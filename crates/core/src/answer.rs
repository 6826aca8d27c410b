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

use crate::meet_multi::Meet;
use ncq_store::{MonetDb, Oid};
use std::fmt;

/// A single witness in an answer (a resolved [`crate::meet_multi::MeetWitness`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The original hit's owner oid.
    pub origin: Oid,
    /// Index of the query term that produced the hit.
    pub term: usize,
    /// Edges between the hit and the result node.
    pub climb: usize,
    /// The matched string (cdata text or attribute value), when resolvable.
    pub text: Option<String>,
}

/// One result of a meet query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The corpus the result came from — `None` for single-document
    /// engines, `Some(name)` when a forest backend concatenated
    /// answers across its catalog (the corpus tag disambiguates
    /// per-corpus oids, which collide across documents).
    pub corpus: Option<String>,
    /// The nearest concept node.
    pub oid: Oid,
    /// Its tag — the paper's `<result>` payload (`cdata` for text nodes).
    pub tag: String,
    /// Its full path (relation name), e.g.
    /// `bibliography/institute/article`.
    pub path: String,
    /// Ranking distance (edges between the two closest witnesses).
    pub distance: usize,
    /// Total witnesses that converged on this node.
    pub witness_count: usize,
    /// Witness sample.
    pub witnesses: Vec<Witness>,
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

/// All results of one meet query, ranked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerSet {
    /// Ranked results (best first).
    pub results: Vec<Answer>,
    /// Corpora that failed to answer during a fan-out (empty on full
    /// answers — the common case, and the only case single-corpus
    /// serializations ever see).
    pub partials: Vec<PartialAnswer>,
}

impl AnswerSet {
    /// Build from ranked meets, resolving display strings against the
    /// database.
    pub fn from_meets(db: &MonetDb, meets: Vec<Meet>) -> AnswerSet {
        let results = meets
            .into_iter()
            .map(|m| Answer {
                corpus: None,
                oid: m.node,
                tag: db.label(m.node),
                path: db.relation_name(m.path),
                distance: m.distance,
                witness_count: m.witness_count,
                witnesses: m
                    .witnesses
                    .into_iter()
                    .map(|w| Witness {
                        origin: w.origin,
                        term: w.input,
                        climb: w.climb,
                        text: db
                            .string_value(db.sigma(w.origin), w.origin)
                            .map(str::to_owned),
                    })
                    .collect(),
            })
            .collect();
        AnswerSet {
            results,
            partials: Vec::new(),
        }
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the query found nothing.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
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
        self.results.iter().map(|r| r.tag.as_str()).collect()
    }

    /// Tag every result with a corpus name (forest concatenation).
    pub fn tag_corpus(&mut self, corpus: &str) {
        for r in &mut self.results {
            r.corpus = Some(corpus.to_owned());
        }
    }

    /// Full serialization: the paper's `<answer>` markup enriched with
    /// everything an [`Answer`] carries — result oid, path, ranking
    /// distance, witness count, and the witness sample with matched
    /// strings. This is the wire format of `ncq-server` responses and
    /// the fixture format of the paper-listing golden suite (exhaustive
    /// by design: any behavioural drift shows up as a fixture diff).
    pub fn to_detailed_xml(&self) -> String {
        use ncq_xml::escape::{escape_attribute, escape_text};
        let mut out = String::from("<answer>\n");
        for r in &self.results {
            // The corpus attribute appears only on forest-tagged
            // answers, so single-corpus serializations (the golden
            // fixtures, the snapshot suites) are byte-identical to the
            // pre-forest format.
            let corpus = r
                .corpus
                .as_deref()
                .map(|c| format!(" corpus=\"{}\"", escape_attribute(c)))
                .unwrap_or_default();
            out.push_str(&format!(
                "  <result{} tag=\"{}\" path=\"{}\" oid=\"{}\" distance=\"{}\" witnesses=\"{}\">\n",
                corpus,
                escape_attribute(&r.tag),
                escape_attribute(&r.path),
                r.oid,
                r.distance,
                r.witness_count
            ));
            for w in &r.witnesses {
                out.push_str(&format!(
                    "    <witness term=\"{}\" origin=\"{}\" climb=\"{}\">{}</witness>\n",
                    w.term,
                    w.origin,
                    w.climb,
                    escape_text(w.text.as_deref().unwrap_or_default())
                ));
            }
            out.push_str("  </result>\n");
        }
        // Partial markers appear only on degraded fan-out answers, so
        // full answers — including every pre-forest golden fixture —
        // serialize byte-identically to the earlier formats.
        for p in &self.partials {
            out.push_str(&format!(
                "  <partial corpus=\"{}\" detail=\"{}\"/>\n",
                escape_attribute(&p.corpus),
                escape_attribute(&p.detail)
            ));
        }
        out.push_str("</answer>");
        out
    }

    /// Render in the paper's `<answer>` markup.
    pub fn to_answer_xml(&self) -> String {
        let mut out = String::from("<answer>\n");
        for r in &self.results {
            out.push_str(&format!("  <result> {} </result> ({})\n", r.tag, r.oid));
        }
        out.push_str("</answer>");
        out
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
        let a = &answers.results[0];
        assert_eq!(a.tag, "article");
        assert_eq!(a.path, "bib/article");
        assert_eq!(a.witness_count, 2);
        let texts: Vec<&str> = a
            .witnesses
            .iter()
            .filter_map(|w| w.text.as_deref())
            .collect();
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
