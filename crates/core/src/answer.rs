//! Answer sets: what a meet query returns to the user (and
//! [`RowSet`], what a projection query returns).
//!
//! The paper renders answers as
//!
//! ```xml
//! <answer>
//!   <result> article </result>
//! </answer>
//! ```
//!
//! [`AnswerSet`] carries the same information plus everything needed for
//! exploration: the result oid, its tag ("the nearest concept" — a type
//! the user never specified), its full path, the ranking distance, and
//! the witnesses that explain why the node qualified.

use crate::meet_multi::{Meet, MeetWitness};
use ncq_store::{MonetDb, Oid, PathId};
use ncq_xml::escape::{EscapedAttribute, EscapedText};
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// One result of a meet query, borrowed from its [`AnswerSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer<'a> {
    /// The corpus the result came from — `None` for single-document
    /// engines, `Some(name)` when a forest backend concatenated
    /// answers across its catalog (the corpus tag disambiguates
    /// per-corpus oids, which collide across documents).
    pub corpus: Option<&'a str>,
    /// The nearest concept node.
    pub oid: Oid,
    /// Its tag — the paper's `<result>` payload (`cdata` for text nodes).
    pub tag: &'a str,
    /// Its full path (relation name), e.g.
    /// `bibliography/institute/article`.
    pub path: &'a str,
    /// Ranking distance (edges between the two closest witnesses).
    pub distance: usize,
    /// Total witnesses that converged on this node.
    pub witness_count: usize,
    /// Witness sample.
    pub witnesses: Witnesses<'a>,
}

/// A single witness in an answer (a resolved [`MeetWitness`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness<'a> {
    /// The original hit's owner oid.
    pub origin: Oid,
    /// Index of the query term that produced the hit.
    pub term: usize,
    /// Edges between the hit and the result node.
    pub climb: usize,
    /// The matched string (cdata text or attribute value), when
    /// resolvable. `None` (an attribute hit's element) and `Some("")`
    /// are kept apart.
    pub text: Option<&'a str>,
}

/// A result's witness sample, borrowed from its [`AnswerSet`].
#[derive(Clone, Copy)]
pub struct Witnesses<'a> {
    rows: &'a [WitnessRow],
    text: &'a str,
}

impl<'a> Witnesses<'a> {
    /// Number of witnesses in the sample.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The witnesses, in document order of their hits.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Witness<'a>> + 'a {
        let text = self.text;
        self.rows.iter().map(move |w| Witness {
            origin: w.origin,
            term: w.term as usize,
            climb: w.climb as usize,
            text: w.text.resolve(text),
        })
    }
}

impl PartialEq for Witnesses<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Witnesses<'_> {}

impl fmt::Debug for Witnesses<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A corpus that could not contribute to a fan-out answer:
/// every replica of its engine was down, so the results list covers the
/// surviving corpora only. Typed graceful degradation — the marker
/// rides *inside* the answer set instead of failing the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAnswer {
    /// The corpus whose engine did not answer.
    pub corpus: String,
    /// Why (the rendered [`crate::backend::BackendError`]).
    pub detail: String,
}

/// A run of an [`AnswerSet`]'s string arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// No string at all, which an empty one (`len` 0) is not: `len`
    /// `u32::MAX`, which no arena reaches.
    const NONE: Span = Span {
        start: 0,
        len: u32::MAX,
    };

    fn resolve(self, text: &str) -> Option<&str> {
        (self.len != u32::MAX).then(|| &text[self.start as usize..][..self.len as usize])
    }

    /// The same string after `base` more arena bytes in front of it.
    fn rebased(self, base: u32) -> Span {
        Span {
            start: self.start + base,
            len: self.len,
        }
    }
}

/// What the results of one type share: their tag, path and corpus.
#[derive(Debug, Clone, Copy)]
struct Label {
    tag: Span,
    path: Span,
    corpus: Span,
}

/// One result. Its witnesses run from `first_witness` to the next
/// row's.
#[derive(Debug, Clone, Copy)]
struct ResultRow {
    oid: Oid,
    distance: u32,
    witness_count: u32,
    first_witness: u32,
    label: u32,
}

#[derive(Debug, Clone, Copy)]
struct WitnessRow {
    origin: Oid,
    term: u32,
    climb: u32,
    text: Span,
}

/// All results of one meet query, ranked.
///
/// Flat: however many results and witnesses it holds, a set is four
/// heap blocks (labels, result rows, witness rows, one string arena)
/// plus its partial markers. Each tag, path and corpus name is stored
/// once per set; a result names its label by index. Readers see
/// borrowed [`Answer`] views. Equality compares what the views show,
/// not how the arena happens to be laid out.
#[derive(Clone, Default)]
pub struct AnswerSet {
    labels: Vec<Label>,
    rows: Vec<ResultRow>,
    witnesses: Vec<WitnessRow>,
    text: String,
    /// Corpora that failed to answer during a fan-out (empty on full
    /// answers — the common case, and the only case single-corpus
    /// serializations ever see).
    pub partials: Vec<PartialAnswer>,
}

/// A row field as stored. Every field counts nodes, edges, terms or
/// rows of one answer, and oids are `u32` already.
fn narrow(value: usize) -> u32 {
    u32::try_from(value).expect("answer set field exceeds u32")
}

/// An arena length as stored: below `u32::MAX`, which [`Span::NONE`]
/// holds.
fn offset(len: usize) -> u32 {
    assert!(len < u32::MAX as usize, "answer set text exceeds 4 GiB");
    len as u32
}

impl AnswerSet {
    /// Build from ranked meets, resolving display strings against the
    /// database. Sized exactly before it is filled: each distinct
    /// result path is one label, its tag the path's last step.
    pub fn from_meets(db: &MonetDb, meets: Vec<Meet>) -> AnswerSet {
        let (summary, symbols) = (db.summary(), db.symbols());
        let text_of = |w: &MeetWitness| db.string_value(db.sigma(w.origin), w.origin);
        let mut paths: Vec<PathId> = meets.iter().map(|m| m.path).collect();
        paths.sort_unstable();
        paths.dedup();
        let label_bytes: usize = paths.iter().map(|&p| summary.display_len(p, symbols)).sum();
        let witness_bytes: usize = meets
            .iter()
            .flat_map(|m| &m.witnesses)
            .filter_map(text_of)
            .map(str::len)
            .sum();
        let mut set = AnswerSet {
            labels: Vec::with_capacity(paths.len()),
            rows: Vec::with_capacity(meets.len()),
            witnesses: Vec::with_capacity(meets.iter().map(|m| m.witnesses.len()).sum()),
            text: String::with_capacity(offset(label_bytes + witness_bytes) as usize),
            partials: Vec::new(),
        };
        let mut steps = Vec::new();
        for &p in &paths {
            let start = set.text.len();
            let last = summary.display_into(p, symbols, &mut steps, &mut set.text);
            let end = set.text.len();
            set.labels.push(Label {
                tag: Span {
                    start: narrow(last),
                    len: narrow(end - last),
                },
                path: Span {
                    start: narrow(start),
                    len: narrow(end - start),
                },
                corpus: Span::NONE,
            });
        }
        for m in meets {
            set.rows.push(ResultRow {
                oid: m.node,
                distance: narrow(m.distance),
                witness_count: narrow(m.witness_count),
                first_witness: narrow(set.witnesses.len()),
                label: narrow(paths.binary_search(&m.path).expect("a result path")),
            });
            for w in &m.witnesses {
                let text = text_of(w).map_or(Span::NONE, |t| set.store(t));
                set.witnesses.push(WitnessRow {
                    origin: w.origin,
                    term: narrow(w.input),
                    climb: narrow(w.climb),
                    text,
                });
            }
        }
        set
    }

    /// Append `s` to the arena.
    fn store(&mut self, s: &str) -> Span {
        let start = self.text.len() as u32;
        self.text.push_str(s);
        offset(self.text.len());
        Span {
            start,
            len: s.len() as u32,
        }
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the query found nothing.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th best result.
    pub fn get(&self, i: usize) -> Option<Answer<'_>> {
        let row = self.rows.get(i)?;
        let end = self
            .rows
            .get(i + 1)
            .map_or(self.witnesses.len(), |next| next.first_witness as usize);
        let label = self.labels[row.label as usize];
        let text = self.text.as_str();
        Some(Answer {
            corpus: label.corpus.resolve(text),
            oid: row.oid,
            tag: label.tag.resolve(text).unwrap_or_default(),
            path: label.path.resolve(text).unwrap_or_default(),
            distance: row.distance as usize,
            witness_count: row.witness_count as usize,
            witnesses: Witnesses {
                rows: &self.witnesses[row.first_witness as usize..end],
                text,
            },
        })
    }

    /// The results in rank order (best first).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Answer<'_>> + '_ {
        (0..self.rows.len()).map(|i| self.get(i).expect("a row in range"))
    }

    /// Whether any corpus failed to contribute (fan-out degradation).
    pub fn is_partial(&self) -> bool {
        !self.partials.is_empty()
    }

    /// Record that `corpus` could not answer.
    pub fn push_partial(&mut self, corpus: impl Into<String>, detail: impl Into<String>) {
        self.partials.push(PartialAnswer {
            corpus: corpus.into(),
            detail: detail.into(),
        });
    }

    /// The tags of all results, in rank order — the paper's answer lists.
    pub fn tags(&self) -> Vec<&str> {
        self.iter().map(|r| r.tag).collect()
    }

    /// Forest concatenation: `other`'s results follow this set's, every
    /// one of them tagged `corpus` (stored once), and its partial
    /// markers follow this set's.
    pub fn append(&mut self, corpus: &str, other: AnswerSet) {
        let AnswerSet {
            labels,
            rows,
            witnesses,
            text,
            partials,
        } = other;
        self.text.reserve(corpus.len() + text.len());
        let corpus = self.store(corpus);
        let base = self.text.len() as u32;
        self.text.push_str(&text);
        offset(self.text.len());
        let (first_label, first_witness) =
            (narrow(self.labels.len()), narrow(self.witnesses.len()));
        self.labels.extend(labels.iter().map(|l| Label {
            tag: l.tag.rebased(base),
            path: l.path.rebased(base),
            corpus,
        }));
        self.rows.extend(rows.iter().map(|r| ResultRow {
            first_witness: r.first_witness + first_witness,
            label: r.label + first_label,
            ..*r
        }));
        self.witnesses.extend(witnesses.iter().map(|w| WitnessRow {
            text: w.text.rebased(base),
            ..*w
        }));
        self.partials.extend(partials);
    }

    /// Full serialization: the paper's `<answer>` markup enriched with
    /// everything an [`Answer`] carries — result oid, path, ranking
    /// distance, witness count, and the witness sample with matched
    /// strings. This is the wire format of `ncq-server` responses and
    /// the fixture format of the paper-listing golden suite (exhaustive
    /// by design: any behavioural drift shows up as a fixture diff).
    pub fn to_detailed_xml(&self) -> String {
        // Sized up front: growing by doubling raises the heap's
        // high-water mark by up to 2 MB while a corpus is resident. A
        // result's markup is under 96 bytes beside its tag and path, a
        // witness's under 64 beside its text (more only when escaped).
        let labels: usize = self.iter().map(|r| r.tag.len() + r.path.len()).sum();
        let mut out = String::with_capacity(
            32 + labels + 96 * self.rows.len() + 64 * self.witnesses.len() + self.text.len(),
        );
        out.push_str("<answer>\n");
        // `fmt::Write` for `String` never fails.
        for r in self.iter() {
            out.push_str("  <result");
            // The corpus attribute appears only on forest-tagged
            // answers, so single-corpus serializations (the golden
            // fixtures, the snapshot suites) are byte-identical to the
            // pre-forest format.
            if let Some(corpus) = r.corpus {
                let _ = write!(out, " corpus=\"{}\"", EscapedAttribute(corpus));
            }
            let _ = writeln!(
                out,
                " tag=\"{}\" path=\"{}\" oid=\"{}\" distance=\"{}\" witnesses=\"{}\">",
                EscapedAttribute(r.tag),
                EscapedAttribute(r.path),
                r.oid,
                r.distance,
                r.witness_count
            );
            for w in r.witnesses.iter() {
                let _ = writeln!(
                    out,
                    "    <witness term=\"{}\" origin=\"{}\" climb=\"{}\">{}</witness>",
                    w.term,
                    w.origin,
                    w.climb,
                    EscapedText(w.text.unwrap_or_default())
                );
            }
            out.push_str("  </result>\n");
        }
        // Partial markers appear only on degraded fan-out answers, so
        // full answers — including every pre-forest golden fixture —
        // serialize byte-identically to the earlier formats.
        for p in &self.partials {
            let _ = writeln!(
                out,
                "  <partial corpus=\"{}\" detail=\"{}\"/>",
                EscapedAttribute(&p.corpus),
                EscapedAttribute(&p.detail)
            );
        }
        out.push_str("</answer>");
        out
    }

    /// Render in the paper's `<answer>` markup.
    pub fn to_answer_xml(&self) -> String {
        let mut out = String::from("<answer>\n");
        for r in self.iter() {
            let _ = writeln!(out, "  <result> {} </result> ({})", r.tag, r.oid);
        }
        out.push_str("</answer>");
        out
    }
}

/// Builds an [`AnswerSet`] one result at a time from strings it copies
/// (the remote-wire decoder), storing each distinct label once.
pub(crate) struct AnswerBuilder<'s> {
    set: AnswerSet,
    labels: HashMap<(Option<&'s str>, &'s str, &'s str), u32>,
}

impl<'s> AnswerBuilder<'s> {
    /// Room for `results` results, `witnesses` witnesses and `text`
    /// arena bytes: bounds, since [`AnswerBuilder::finish`] gives back
    /// what went unused.
    pub(crate) fn with_capacity(results: usize, witnesses: usize, text: usize) -> Self {
        AnswerBuilder {
            set: AnswerSet {
                labels: Vec::new(),
                rows: Vec::with_capacity(results),
                witnesses: Vec::with_capacity(witnesses),
                text: String::with_capacity(text),
                partials: Vec::new(),
            },
            labels: HashMap::with_capacity(results),
        }
    }

    /// Start the next result; the witnesses pushed next are its.
    pub(crate) fn result(
        &mut self,
        corpus: Option<&'s str>,
        oid: Oid,
        (tag, path): (&'s str, &'s str),
        distance: u32,
        witness_count: u32,
    ) {
        let set = &mut self.set;
        let label = *self.labels.entry((corpus, tag, path)).or_insert_with(|| {
            let path_span = set.store(path);
            // A tag is its path's last step whenever a store rendered
            // both, so it shares the path's bytes.
            let tag = if path.ends_with(tag) {
                Span {
                    start: path_span.start + narrow(path.len() - tag.len()),
                    len: narrow(tag.len()),
                }
            } else {
                set.store(tag)
            };
            let corpus = corpus.map_or(Span::NONE, |c| set.store(c));
            set.labels.push(Label {
                tag,
                path: path_span,
                corpus,
            });
            narrow(set.labels.len() - 1)
        });
        set.rows.push(ResultRow {
            oid,
            distance,
            witness_count,
            first_witness: narrow(set.witnesses.len()),
            label,
        });
    }

    /// Add a witness to the last result started.
    pub(crate) fn witness(&mut self, origin: Oid, term: u32, climb: u32, text: Option<&str>) {
        let text = text.map_or(Span::NONE, |t| self.set.store(t));
        self.set.witnesses.push(WitnessRow {
            origin,
            term,
            climb,
            text,
        });
    }

    /// The set, its bounds given back.
    pub(crate) fn finish(self, partials: Vec<PartialAnswer>) -> AnswerSet {
        let mut set = self.set;
        set.labels.shrink_to_fit();
        set.rows.shrink_to_fit();
        set.witnesses.shrink_to_fit();
        set.text.shrink_to_fit();
        set.partials = partials;
        set
    }
}

impl PartialEq for AnswerSet {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter()) && self.partials == other.partials
    }
}

impl Eq for AnswerSet {}

impl fmt::Debug for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnswerSet")
            .field("results", &self.iter().collect::<Vec<_>>())
            .field("partials", &self.partials)
            .finish()
    }
}

impl fmt::Display for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_answer_xml())
    }
}

/// Output of a query of the SQL dialect: rows for projections, ranked
/// answers for meet aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutput {
    /// Projection result.
    Rows(RowSet),
    /// Meet-aggregation result.
    Answers(AnswerSet),
}

/// One projection row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Projected values (tag names), one per select item.
    pub values: Vec<String>,
    /// The bound node per `from` variable (in `from` order).
    pub nodes: Vec<Oid>,
}

/// A projection result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSet {
    /// Column headers (select-item names).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl RowSet {
    /// Render rows in the paper's `<answer>` markup (one `<result>` per
    /// row, first projected value).
    pub fn to_answer_xml(&self) -> String {
        let mut out = String::from("<answer>\n");
        for row in &self.rows {
            out.push_str(&format!("  <result> {} </result>\n", row.values.join(", ")));
        }
        out.push_str("</answer>");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meet_multi::MeetOptions;
    use crate::sweep::meet_hits;
    use ncq_fulltext::{search, InvertedIndex};
    use ncq_store::MonetDb;
    use ncq_xml::parse;

    fn setup() -> (MonetDb, InvertedIndex) {
        let db = MonetDb::from_document(
            &parse(
                r#"<bib><article key="BB99"><author>Ben Bit</author>
                   <year>1999</year></article></bib>"#,
            )
            .unwrap(),
        );
        let idx = InvertedIndex::build(&db);
        (db, idx)
    }

    #[test]
    fn answers_resolve_tags_paths_and_witness_text() {
        let (db, idx) = setup();
        let inputs = vec![
            search::term_hits(&db, &idx, "Bit"),
            search::term_hits(&db, &idx, "1999"),
        ];
        let meets = meet_hits(&db, &inputs, &MeetOptions::default());
        let answers = AnswerSet::from_meets(&db, meets);
        assert_eq!(answers.len(), 1);
        let a = answers.get(0).unwrap();
        assert_eq!(a.tag, "article");
        assert_eq!(a.path, "bib/article");
        assert_eq!(a.witness_count, 2);
        let texts: Vec<&str> = a.witnesses.iter().filter_map(|w| w.text).collect();
        assert!(texts.contains(&"Ben Bit"));
        assert!(texts.contains(&"1999"));
    }

    #[test]
    fn answer_xml_mirrors_the_paper() {
        let (db, idx) = setup();
        let inputs = vec![
            search::term_hits(&db, &idx, "Bit"),
            search::term_hits(&db, &idx, "1999"),
        ];
        let meets = meet_hits(&db, &inputs, &MeetOptions::default());
        let answers = AnswerSet::from_meets(&db, meets);
        let xml = answers.to_answer_xml();
        assert!(xml.starts_with("<answer>"));
        assert!(xml.contains("<result> article </result>"));
        assert!(xml.ends_with("</answer>"));
        assert_eq!(format!("{answers}"), xml);
    }

    #[test]
    fn detailed_xml_serializes_every_field() {
        let (db, idx) = setup();
        let inputs = vec![
            search::term_hits(&db, &idx, "Bit"),
            search::term_hits(&db, &idx, "1999"),
        ];
        let meets = meet_hits(&db, &inputs, &MeetOptions::default());
        let answers = AnswerSet::from_meets(&db, meets);
        let xml = answers.to_detailed_xml();
        assert!(xml.contains("tag=\"article\""));
        assert!(xml.contains("path=\"bib/article\""));
        assert!(xml.contains("distance=\""));
        assert!(xml.contains("witnesses=\"2\""));
        assert!(xml.contains(">Ben Bit</witness>"));
        assert!(xml.contains(">1999</witness>"));
        assert_eq!(
            AnswerSet::default().to_detailed_xml(),
            "<answer>\n</answer>"
        );
    }

    #[test]
    fn empty_answer_set_renders_empty_answer() {
        let set = AnswerSet::default();
        assert!(set.is_empty());
        assert_eq!(set.to_answer_xml(), "<answer>\n</answer>");
        assert!(set.tags().is_empty());
    }
}
