//! The [`Database`] facade: parse → Monet transform → index → meet.
//!
//! This is the "search engine add-on" deployment of the paper's
//! conclusion: the meet operator "can serve as a sensible and valuable
//! add-on to an already existing search engine for semi-structured or XML
//! data that comes at little cost".

use crate::answer::AnswerSet;
use crate::meet2::{meet2_indexed, Meet2};
use crate::meet_multi::{Meet, MeetOptions};
use crate::reference::MeetPlanner;
use ncq_fulltext::{search, HitSet, InvertedIndex};
use ncq_store::snapshot::SnapshotError;
use ncq_store::{MappedSnapshot, MonetDb, Oid, PathId, SnapshotWriter, VerifyMode};
use ncq_xml::{Document, ParseError};
use std::fmt;
use std::path::Path;

/// The error type of the meet entry points. The generalized meet
/// accepts any grouped input, so [`Database::meet_terms`] never
/// produces one today; the only inhabitant comes from the Fig. 4
/// oracle [`crate::reference::meet_sets`], which is defined on
/// homogeneous sets only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeetError {
    /// An input set mixed OIDs of different paths.
    HeterogeneousInput {
        /// Path of the first element.
        expected: PathId,
        /// Offending path.
        found: PathId,
    },
}

impl fmt::Display for MeetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeetError::HeterogeneousInput { expected, found } => write!(
                f,
                "meet_sets requires homogeneous input sets (found paths {expected:?} and {found:?}); the generalized meet takes mixed input"
            ),
        }
    }
}

impl std::error::Error for MeetError {}

/// A queryable XML database: storage, full-text index and meet operators
/// behind one handle.
#[derive(Debug, Clone)]
pub struct Database {
    store: MonetDb,
    index: InvertedIndex,
}

/// Registry handles for the snapshot-open telemetry: open latency plus
/// one counter per open style, so METRICS can tell mapped (zero-copy)
/// cold starts from materialized (owned heap copy: non-unix, in-memory
/// bytes) ones.
fn snapshot_open_metrics() -> &'static (
    std::sync::Arc<ncq_obs::Histogram>,
    std::sync::Arc<ncq_obs::Counter>,
    std::sync::Arc<ncq_obs::Counter>,
) {
    static M: std::sync::OnceLock<(
        std::sync::Arc<ncq_obs::Histogram>,
        std::sync::Arc<ncq_obs::Counter>,
        std::sync::Arc<ncq_obs::Counter>,
    )> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let registry = &ncq_obs::obs().registry;
        (
            registry.histogram("ncq_snapshot_open_ns"),
            registry.counter("ncq_snapshot_mapped_total"),
            registry.counter("ncq_snapshot_materialized_total"),
        )
    })
}

/// Record one snapshot open: latency into the histogram, one tick on
/// the mapped or materialized counter: every cold-start entry point
/// reports through this one funnel.
fn record_snapshot_open(started: std::time::Instant, mapped: bool) {
    let (open_ns, mapped_total, materialized_total) = snapshot_open_metrics();
    open_ns.record(started.elapsed().as_nanos() as u64);
    if mapped {
        mapped_total.inc();
    } else {
        materialized_total.inc();
    }
}

impl Database {
    /// Parse an XML string and load it.
    pub fn from_xml_str(xml: &str) -> Result<Database, ParseError> {
        Ok(Database::from_document(&ncq_xml::parse(xml)?))
    }

    /// Load an already-parsed document.
    pub fn from_document(doc: &Document) -> Database {
        let store = MonetDb::from_document(doc);
        let index = InvertedIndex::build(&store);
        Database { store, index }
    }

    /// The underlying Monet transform.
    pub fn store(&self) -> &MonetDb {
        &self.store
    }

    // ----- persistence -----
    //
    // The versioned snapshot container is `ncq_store::snapshot`; the
    // facade stacks the full-text section on the store's sections so
    // one file cold-starts the whole engine with no parse, no meet
    // index DFS and no re-tokenization.

    /// Serialize the whole engine into a snapshot writer: every
    /// section in final form, so opening the file is mmap + checksum +
    /// pointer fixup.
    fn encode_snapshot(&self) -> SnapshotWriter {
        let mut writer = SnapshotWriter::new();
        self.store.encode_snapshot(&mut writer);
        self.index.encode_snapshot(&mut writer);
        writer
    }

    fn decode_untimed(snap: &MappedSnapshot) -> Result<Database, SnapshotError> {
        let store = MonetDb::decode_snapshot(snap)?;
        let index = InvertedIndex::decode_snapshot(snap, &store)?;
        Ok(Database { store, index })
    }

    /// Reconstruct an engine from an already-opened snapshot: fix up
    /// zero-copy views over the mapped (or owned) arena.
    pub fn decode_from(snap: &MappedSnapshot) -> Result<Database, SnapshotError> {
        let started = std::time::Instant::now();
        let db = Database::decode_untimed(snap)?;
        record_snapshot_open(started, snap.is_mapped());
        Ok(db)
    }

    /// Save a snapshot file (atomic rename; deterministic bytes).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.encode_snapshot().write_to(path.as_ref())
    }

    /// Cold-start from a snapshot file: the file is mmapped and served
    /// zero-copy — microseconds of header/table checksums and pointer
    /// fixup instead of the parse → transform → index build pipeline
    /// (off unix, the file is read into an owned arena instead). A file
    /// of any other layout version (the retired v1–v7 included) is a
    /// typed [`SnapshotError::UnsupportedVersion`].
    pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Database, SnapshotError> {
        let started = std::time::Instant::now();
        let snap = MappedSnapshot::open(path.as_ref())?;
        let db = Database::decode_untimed(&snap)?;
        record_snapshot_open(started, snap.is_mapped());
        Ok(db)
    }

    /// The snapshot as in-memory bytes (tests and tooling).
    pub fn snapshot_to_bytes(&self) -> Vec<u8> {
        self.encode_snapshot().into_bytes()
    }

    /// Decode an engine from in-memory snapshot bytes (tests and
    /// tooling), adopted into an owned, 64-byte-aligned arena.
    pub fn from_snapshot_bytes(bytes: Vec<u8>) -> Result<Database, SnapshotError> {
        Database::decode_from(&MappedSnapshot::from_owned_bytes(bytes, VerifyMode::Lazy)?)
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    // ----- full-text entry points -----

    /// Hits for one term (word, phrase or substring — see
    /// [`search::term_hits`]).
    pub fn search(&self, term: &str) -> HitSet {
        search::term_hits(&self.store, &self.index, term)
    }

    /// Hits for a whole word only (pure index lookup).
    pub fn search_word(&self, word: &str) -> HitSet {
        search::word_hits(&self.index, word)
    }

    /// Hits by substring scan (the `contains` predicate).
    pub fn search_contains(&self, needle: &str) -> HitSet {
        search::substring_hits(&self.store, needle)
    }

    /// Hits broadened by a thesaurus (paper §4: "thesauri are a promising
    /// tool … especially to broaden a search that returned too few
    /// answers").
    pub fn search_expanded(&self, term: &str, thesaurus: &ncq_fulltext::Thesaurus) -> HitSet {
        ncq_fulltext::expanded_hits(&self.store, &self.index, thesaurus, term)
    }

    // ----- meet entry points -----
    //
    // Every meet the facade serves is the generalized meet of Fig. 5:
    // one stack pass, then rank and cut.

    /// The roll-up's cost model ([`crate::reference::MeetPlanner`]);
    /// nothing served consults it.
    // Only because `perf/src/trace.rs` links it; ROADMAP 1(d) unlinks it.
    pub fn planner(&self) -> MeetPlanner<'_> {
        MeetPlanner::new(&self.store)
    }

    /// Pairwise meet (paper Fig. 3), via the O(1) indexed fast path.
    pub fn meet_pair(&self, o1: Oid, o2: Oid) -> Meet2 {
        meet2_indexed(&self.store, o1, o2)
    }

    /// Generalized meet over hit groups (paper Fig. 5):
    /// [`crate::sweep::meet_hits`] on this database's store.
    pub fn meet_hits<H: std::borrow::Borrow<HitSet>>(
        &self,
        inputs: &[H],
        options: &MeetOptions,
    ) -> Vec<Meet> {
        crate::sweep::meet_hits(&self.store, inputs, options)
    }

    /// The paper's signature query: full-text search each term, then meet
    /// the hit groups. Default options (no type restriction, no distance
    /// bound).
    ///
    /// A term without hits contributes nothing; the remaining groups
    /// still meet (matching the behaviour of combining independent
    /// full-text searches). The `Result` is part of the signature the
    /// benchmark links against; no input makes it an `Err` today.
    pub fn meet_terms(&self, terms: &[&str]) -> Result<AnswerSet, MeetError> {
        self.meet_terms_with(terms, &MeetOptions::default())
    }

    /// [`Database::meet_terms`] with explicit [`MeetOptions`].
    pub fn meet_terms_with(
        &self,
        terms: &[&str],
        options: &MeetOptions,
    ) -> Result<AnswerSet, MeetError> {
        let inputs: Vec<HitSet> = terms.iter().map(|t| self.search(t)).collect();
        let meets = self.meet_hits(&inputs, options);
        Ok(AnswerSet::from_meets(&self.store, meets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::PathFilter;

    const FIGURE1: &str = r#"
<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
    <article key="BK99">
      <author>Bob Byte</author>
      <title>Hacking &amp; RSI</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>"#;

    #[test]
    fn end_to_end_listing2() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let answers = db.meet_terms(&["Bit", "1999"]).unwrap();
        assert_eq!(answers.tags(), vec!["article"]);
    }

    /// The served witness sample is in document order, whichever way
    /// the hits climb: o3 (under `<b>`) before o6 (under `<a><c>`). The
    /// paper's roll-up absorbs the deeper o6 first.
    #[test]
    fn witnesses_serialize_in_document_order() {
        let db = Database::from_xml_str("<r><a/><b>t</b><a><c>t</c></a></r>").unwrap();
        let xml = db.meet_terms(&["t"]).unwrap().to_detailed_xml();
        let at = |oid: &str| xml.find(&format!("origin=\"{oid}\"")).unwrap();
        assert!(at("o3") < at("o6"), "{xml}");
    }

    /// Sections a reader does not know are skipped: id 8 (the shard
    /// partition map that older saves may carry) and a future id alike.
    #[test]
    fn unknown_sections_are_ignored() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let expected = db.meet_terms(&["Bit", "1999"]).unwrap().to_detailed_xml();
        for id in [8, 0xBEEF] {
            let mut writer = db.encode_snapshot();
            writer.section(id).put_bytes(b"unknown payload");
            let loaded = Database::from_snapshot_bytes(writer.into_bytes()).unwrap();
            assert_eq!(
                loaded.store().dump_relations(),
                db.store().dump_relations(),
                "id {id}"
            );
            let answers = loaded.meet_terms(&["Bit", "1999"]).unwrap();
            assert_eq!(answers.to_detailed_xml(), expected, "id {id}");
        }
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(Database::from_xml_str("<broken>").is_err());
    }

    #[test]
    fn search_modes_agree_on_simple_words() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        assert_eq!(db.search("Ben").len(), db.search_word("Ben").len());
        assert_eq!(db.search_contains("Ben").len(), 1);
    }

    #[test]
    fn meet_pair_through_facade() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let ben = db.search("Ben").iter().next().unwrap().1;
        let bit = db.search("Bit").iter().next().unwrap().1;
        let m = db.meet_pair(ben, bit);
        assert_eq!(db.store().tag(m.meet), Some("author"));
    }

    #[test]
    fn the_facade_agrees_with_the_rollup_oracle() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let key = |ms: Vec<Meet>| -> Vec<_> {
            ms.iter()
                .map(|m| (m.node, m.distance, m.witness_count))
                .collect()
        };
        for terms in [["Bit", "1999"], ["1999", "Hack"]] {
            let inputs = terms.map(|t| db.search(t));
            let options = MeetOptions::default();
            let served = key(db.meet_hits(&inputs, &options));
            assert!(!served.is_empty(), "{terms:?}");
            let oracle = crate::reference::meet_rollup_ranked(db.store(), &inputs, &options);
            assert_eq!(served, key(oracle), "{terms:?}");
        }
    }

    #[test]
    fn options_reach_the_operator() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let opts = MeetOptions {
            filter: PathFilter::exclude_root(db.store()),
            max_distance: Some(4),
            ..MeetOptions::default()
        };
        // Bit+1999 needs distance 5 → blocked.
        let answers = db.meet_terms_with(&["Bit", "1999"], &opts).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn unmatched_terms_contribute_nothing() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let answers = db.meet_terms(&["Ben", "Bit", "zzz-absent"]).unwrap();
        assert_eq!(answers.tags(), vec!["author"]);
    }

    #[test]
    fn answers_are_ranked_by_distance() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        // Bob+Byte meet at distance 0; Ben+Bit at 4; with all four terms
        // the cdata meet must rank first.
        let answers = db.meet_terms(&["Bob", "Byte", "Ben", "Bit"]).unwrap();
        assert_eq!(answers.len(), 2);
        assert!(answers.results[0].distance <= answers.results[1].distance);
        assert_eq!(answers.results[0].tag, "cdata");
    }
}
