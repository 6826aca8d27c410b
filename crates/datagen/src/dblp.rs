//! Synthetic DBLP-like bibliography (substitute for the real DBLP).
//!
//! Shape mirrors the DBLP XML of ca. 2000: a flat `<dblp>` root with
//! `<inproceedings>` and `<article>` records carrying `author`, `title`,
//! `pages`, `year`, and `booktitle`/`journal` children plus a `key`
//! attribute; one `<proceedings>` record per conference edition.
//!
//! Everything Figure 7 depends on is a config knob:
//!
//! * conference series with editions per year — **ICDE skips 1985**
//!   (the paper: "note that there was no ICDE in 1985, hence the small
//!   step at about 1100 on the x-axis");
//! * publications per edition (controls hit-set and output cardinality);
//! * the number of records whose *title* mentions a conference name —
//!   those become the case study's false positives (the paper saw two).

use crate::pools;
use ncq_xml::Document;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`DblpCorpus::generate`].
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// PRNG seed; equal seeds give byte-identical corpora.
    pub seed: u64,
    /// First conference year (inclusive).
    pub start_year: u16,
    /// Last conference year (inclusive).
    pub end_year: u16,
    /// Conference series, e.g. `["ICDE", "VLDB", "SIGMOD"]`.
    pub conferences: Vec<String>,
    /// `(series, year)` editions that did not take place.
    pub skipped_editions: Vec<(String, u16)>,
    /// Papers per conference edition.
    pub papers_per_edition: usize,
    /// Journal articles per year (spread over [`pools::JOURNALS`]).
    pub journal_articles_per_year: usize,
    /// Records whose title contains a conference name (false positives
    /// for the case-study query; the paper observed two).
    pub title_mentions: usize,
}

impl Default for DblpConfig {
    fn default() -> DblpConfig {
        DblpConfig {
            seed: 0x1CDE,
            start_year: 1984,
            end_year: 1999,
            conferences: vec!["ICDE".into(), "VLDB".into(), "SIGMOD".into(), "EDBT".into()],
            skipped_editions: vec![("ICDE".into(), 1985)],
            papers_per_edition: 20,
            journal_articles_per_year: 10,
            title_mentions: 2,
        }
    }
}

impl DblpConfig {
    /// Scale the default configuration to roughly `records` publication
    /// records (inproceedings + articles), keeping proportions.
    pub fn scaled(records: usize) -> DblpConfig {
        let mut cfg = DblpConfig::default();
        let years = (cfg.end_year - cfg.start_year + 1) as usize;
        let editions = cfg.conferences.len() * years - cfg.skipped_editions.len();
        // Keep the 8:1 inproceedings:articles ratio of the default.
        let per_edition = (records * 8 / 9).div_ceil(editions).max(1);
        cfg.papers_per_edition = per_edition;
        cfg.journal_articles_per_year = (records / 9 / years).max(1);
        cfg
    }

    fn has_edition(&self, conf: &str, year: u16) -> bool {
        !self
            .skipped_editions
            .iter()
            .any(|(c, y)| c == conf && *y == year)
    }
}

/// A generated corpus: the document plus bookkeeping the experiments use.
#[derive(Debug, Clone)]
pub struct DblpCorpus {
    /// The bibliography document.
    pub document: Document,
    /// Publications (inproceedings) per `(conference, year)` edition.
    pub editions: Vec<(String, u16, usize)>,
    /// Total inproceedings records.
    pub inproceedings: usize,
    /// Total journal article records.
    pub articles: usize,
}

impl DblpCorpus {
    /// Generate the corpus for `config`.
    pub fn generate(config: &DblpConfig) -> DblpCorpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut doc = Document::new("dblp");
        let root = doc.root();
        let mut editions = Vec::new();
        let mut inproceedings = 0usize;
        let mut articles = 0usize;
        // Plant title mentions in journal articles of mid-range years:
        // genuine false positives for "conference AND year" queries, and
        // far from the 1985 step so Fig. 7's flat segment stays clean.
        let span = (config.end_year - config.start_year) as usize + 1;
        let mention_years: Vec<u16> = (0..config.title_mentions)
            .map(|i| config.start_year + ((i + 1) * span / (config.title_mentions + 1)) as u16)
            .collect();

        for year in config.start_year..=config.end_year {
            for conf in &config.conferences {
                if !config.has_edition(conf, year) {
                    continue;
                }
                // One proceedings record per edition. Like real DBLP keys
                // ("conf/icde/ICDE99"), the year is fused into one token so
                // that word searches for "1999" or "ICDE" do not hit keys.
                let proc_node = doc.add_element(root, "proceedings");
                let key = format!("conf/{}{}", conf.to_lowercase(), year % 100);
                doc.set_attribute(proc_node, "key", key);
                // The year is deliberately *not* part of the title text:
                // the proceedings' year lives in its <year> element, so a
                // "conference AND year" meet lands on the proceedings
                // element (a legitimate answer), not on the title cdata.
                let t = doc.add_element(proc_node, "title");
                doc.add_text(t, format!("Proceedings of the {conf} Conference"));
                let y = doc.add_element(proc_node, "year");
                doc.add_text(y, year.to_string());
                let pub_node = doc.add_element(proc_node, "publisher");
                doc.add_text(pub_node, "IEEE Computer Society");

                for i in 0..config.papers_per_edition {
                    add_inproceedings(&mut doc, &mut rng, conf, year, i);
                    inproceedings += 1;
                }
                editions.push((conf.clone(), year, config.papers_per_edition));
            }
            let mentions_this_year = mention_years.iter().filter(|&&y| y == year).count();
            for j in 0..config.journal_articles_per_year {
                let mention = if j < mentions_this_year {
                    // Mention a conference by name inside the title.
                    Some(config.conferences[0].as_str())
                } else {
                    None
                };
                add_article(&mut doc, &mut rng, year, j, mention);
                articles += 1;
            }
        }

        DblpCorpus {
            document: doc,
            editions,
            inproceedings,
            articles,
        }
    }

    /// Total publication records (inproceedings + articles).
    pub fn records(&self) -> usize {
        self.inproceedings + self.articles
    }
}

fn random_author(rng: &mut StdRng) -> String {
    let first = pools::FIRST_NAMES[rng.random_range(0..pools::FIRST_NAMES.len())];
    let last = pools::LAST_NAMES[rng.random_range(0..pools::LAST_NAMES.len())];
    format!("{first} {last}")
}

fn random_title(rng: &mut StdRng, mention: Option<&str>) -> String {
    let words = 4 + rng.random_range(0..5);
    let mut title = String::new();
    for i in 0..words {
        let w = pools::TITLE_WORDS[rng.random_range(0..pools::TITLE_WORDS.len())];
        if i == 0 {
            // Capitalize the first word.
            let mut cs = w.chars();
            if let Some(c) = cs.next() {
                title.extend(c.to_uppercase());
                title.push_str(cs.as_str());
            }
        } else {
            title.push(' ');
            title.push_str(w);
        }
    }
    if let Some(conf) = mention {
        title.push_str(&format!(" for {conf} workloads"));
    }
    title
}

fn add_record_body(
    doc: &mut Document,
    rng: &mut StdRng,
    node: ncq_xml::NodeId,
    year: u16,
    mention: Option<&str>,
) {
    let n_authors = 1 + rng.random_range(0..3);
    for _ in 0..n_authors {
        let a = doc.add_element(node, "author");
        let name = random_author(rng);
        doc.add_text(a, name);
    }
    let t = doc.add_element(node, "title");
    let title = random_title(rng, mention);
    doc.add_text(t, title);
    let start = rng.random_range(1..800);
    let p = doc.add_element(node, "pages");
    doc.add_text(p, format!("{start}-{}", start + rng.random_range(5..25)));
    let y = doc.add_element(node, "year");
    doc.add_text(y, year.to_string());
}

fn add_inproceedings(doc: &mut Document, rng: &mut StdRng, conf: &str, year: u16, idx: usize) {
    let root = doc.root();
    let node = doc.add_element(root, "inproceedings");
    let key = format!("conf/{}{}/p{}", conf.to_lowercase(), year % 100, idx);
    doc.set_attribute(node, "key", key);
    add_record_body(doc, rng, node, year, None);
    let bt = doc.add_element(node, "booktitle");
    doc.add_text(bt, conf);
    // DBLP-style crossref to the edition's proceedings record; consumed
    // by ncq-core's RefGraph (the paper's IDREF future work).
    let cr = doc.add_element(node, "crossref");
    doc.add_text(cr, format!("conf/{}{}", conf.to_lowercase(), year % 100));
}

fn add_article(doc: &mut Document, rng: &mut StdRng, year: u16, idx: usize, mention: Option<&str>) {
    let root = doc.root();
    let node = doc.add_element(root, "article");
    let journal = pools::JOURNALS[rng.random_range(0..pools::JOURNALS.len())];
    let key = format!(
        "journals/{}{}/a{}",
        journal.split_whitespace().next().unwrap().to_lowercase(),
        year % 100,
        idx
    );
    doc.set_attribute(node, "key", key);
    add_record_body(doc, rng, node, year, mention);
    let j = doc.add_element(node, "journal");
    doc.add_text(j, journal);
    let v = doc.add_element(node, "volume");
    // Wrapping: a pre-1980 year keeps the volume number release builds
    // (and so the benchmark's generated corpora) always produced,
    // instead of panicking in debug builds.
    doc.add_text(v, year.wrapping_sub(1980).wrapping_add(1).to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DblpConfig::default();
        let a = DblpCorpus::generate(&cfg);
        let b = DblpCorpus::generate(&cfg);
        assert!(a.document.structural_eq(&b.document));
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn different_seeds_differ() {
        let a = DblpCorpus::generate(&DblpConfig::default());
        let b = DblpCorpus::generate(&DblpConfig {
            seed: 99,
            ..DblpConfig::default()
        });
        assert!(!a.document.structural_eq(&b.document));
    }

    #[test]
    fn icde_1985_is_skipped() {
        let corpus = DblpCorpus::generate(&DblpConfig::default());
        assert!(!corpus
            .editions
            .iter()
            .any(|(c, y, _)| c == "ICDE" && *y == 1985));
        // But 1984 and 1986 exist.
        for y in [1984u16, 1986] {
            assert!(corpus
                .editions
                .iter()
                .any(|(c, yy, _)| c == "ICDE" && *yy == y));
        }
    }

    #[test]
    fn record_counts_match_config() {
        let cfg = DblpConfig::default();
        let corpus = DblpCorpus::generate(&cfg);
        let years = (cfg.end_year - cfg.start_year + 1) as usize;
        let editions = cfg.conferences.len() * years - 1; // ICDE'85 skipped
        assert_eq!(corpus.inproceedings, editions * cfg.papers_per_edition);
        assert_eq!(corpus.articles, years * cfg.journal_articles_per_year);
        assert_eq!(corpus.editions.len(), editions);
    }

    #[test]
    fn records_have_the_dblp_shape() {
        let corpus = DblpCorpus::generate(&DblpConfig {
            papers_per_edition: 2,
            journal_articles_per_year: 1,
            ..DblpConfig::default()
        });
        let doc = &corpus.document;
        let root = doc.root();
        let mut seen_inproc = false;
        let mut seen_article = false;
        for rec in doc.children(root) {
            match doc.tag_name(rec).unwrap() {
                "inproceedings" => {
                    seen_inproc = true;
                    assert!(doc.attribute(rec, "key").is_some());
                    let tags: Vec<&str> =
                        doc.children(rec).filter_map(|c| doc.tag_name(c)).collect();
                    for required in ["author", "title", "pages", "year", "booktitle"] {
                        assert!(tags.contains(&required), "missing {required}");
                    }
                }
                "article" => {
                    seen_article = true;
                    let tags: Vec<&str> =
                        doc.children(rec).filter_map(|c| doc.tag_name(c)).collect();
                    for required in ["author", "title", "year", "journal", "volume"] {
                        assert!(tags.contains(&required), "missing {required}");
                    }
                }
                "proceedings" => {}
                other => panic!("unexpected record type {other}"),
            }
        }
        assert!(seen_inproc && seen_article);
    }

    #[test]
    fn title_mentions_are_planted() {
        let corpus = DblpCorpus::generate(&DblpConfig::default());
        let doc = &corpus.document;
        let mut mentions = 0;
        for rec in doc.children(doc.root()) {
            if doc.tag_name(rec) == Some("article") {
                for c in doc.children(rec) {
                    if doc.tag_name(c) == Some("title") && doc.deep_text(c).contains("ICDE") {
                        mentions += 1;
                    }
                }
            }
        }
        assert_eq!(mentions, 2);
    }

    #[test]
    fn scaled_hits_requested_magnitude() {
        for target in [100usize, 1000, 5000] {
            let cfg = DblpConfig::scaled(target);
            let corpus = DblpCorpus::generate(&cfg);
            let n = corpus.records();
            assert!(
                n >= target / 2 && n <= target * 2,
                "target {target}, got {n}"
            );
        }
    }

    #[test]
    fn years_cover_the_configured_range() {
        let corpus = DblpCorpus::generate(&DblpConfig::default());
        let doc = &corpus.document;
        let text = doc.deep_text(doc.root());
        for y in 1984..=1999 {
            assert!(text.contains(&y.to_string()), "missing year {y}");
        }
    }
}
