//! Seeded corpora: the XML text a workload ingests plus the vocabulary
//! its query stream draws from.
//!
//! Two shapes. `dblp` is `ncq_datagen::DblpCorpus`, scaled by *more
//! conferences and years* rather than more papers per edition, so a
//! `MEET <conf> <year>` keeps the paper's Fig. 7 answer size (one
//! edition) however large the corpus gets. `deep` is a fork forest the
//! planner must sweep: two element chains per fork with a token-bearing
//! side leaf every other level, tokens drawn from a Zipf vocabulary so
//! hit sets span three orders of magnitude.

use ncq_datagen::{pools, DblpConfig, DblpCorpus};
use ncq_xml::{write_document, WriteOptions};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Corpus scale. `Quick` exists for smoke runs; its numbers are not
/// comparable with `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// A generated corpus: XML text and the terms queries may use.
pub struct Corpus {
    pub xml: String,
    pub vocab: Vocab,
}

/// What the query generator needs to know about a corpus.
pub enum Vocab {
    Dblp {
        conferences: Vec<String>,
        years: Vec<u16>,
        last_names: Vec<&'static str>,
    },
    /// Tokens by descending frequency with their leaf counts.
    Deep { tokens: Vec<(String, usize)> },
}

/// DBLP-like corpus: 48 conferences x 48 years, so the cold stream
/// finds its 4510 distinct `<conf> <year>` requests at either scale.
/// Full scale has 14 papers per edition (about 34 k records, 10 MB of
/// XML); quick scale 3.
pub fn dblp(seed: u64, scale: Scale) -> Corpus {
    let (n_conf, n_years) = (48, 48);
    let (papers_per_edition, journal_articles_per_year) = match scale {
        Scale::Full => (14, 30),
        Scale::Quick => (3, 6),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0F5);
    let mut conferences: Vec<String> = ["ICDE", "VLDB", "SIGMOD", "EDBT"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    while conferences.len() < n_conf {
        let name = acronym(&mut rng);
        if !conferences.contains(&name) && !collides_with_pools(&name) {
            conferences.push(name);
        }
    }
    let end_year = 1999u16;
    let start_year = end_year + 1 - n_years as u16;
    let config = DblpConfig {
        seed,
        start_year,
        end_year,
        conferences: conferences.clone(),
        papers_per_edition,
        journal_articles_per_year,
        ..DblpConfig::default()
    };
    let corpus = DblpCorpus::generate(&config);
    Corpus {
        xml: write_document(&corpus.document, WriteOptions::default()),
        vocab: Vocab::Dblp {
            conferences,
            years: (start_year..=end_year).collect(),
            last_names: pools::LAST_NAMES.to_vec(),
        },
    }
}

/// Five seeded upper-case letters.
fn acronym(rng: &mut StdRng) -> String {
    (0..5)
        .map(|_| (b'A' + rng.random_range(0..26u8)) as char)
        .collect()
}

/// A conference name must stay its own index term: reject one that
/// equals (case-folded) a word the generator also puts in names or
/// titles.
fn collides_with_pools(name: &str) -> bool {
    let folded = name.to_lowercase();
    pools::FIRST_NAMES
        .iter()
        .chain(pools::LAST_NAMES)
        .chain(pools::TITLE_WORDS)
        .any(|w| w.to_lowercase() == folded)
}

/// Depth of each chain below a fork in the deep corpus.
pub const DEEP_CHAIN_DEPTH: usize = 24;
const DEEP_VOCAB: usize = 8192;
const DEEP_TOKENS_PER_LEAF: usize = 2;

/// Deep fork forest. Full scale: 6000 forks x 2 chains x 24 levels,
/// a two-token leaf every other level (about 600 k nodes, 6 MB).
pub fn deep(seed: u64, scale: Scale) -> Corpus {
    let forks = match scale {
        Scale::Full => 6000,
        Scale::Quick => 600,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEE9);
    let names: Vec<String> = (0..DEEP_VOCAB)
        .map(|r| format!("t{r}x{:03x}", rng.next_u64() & 0xfff))
        .collect();
    let zipf = Zipf::new(DEEP_VOCAB);
    let mut counts = vec![0usize; DEEP_VOCAB];
    let mut xml = String::with_capacity(forks * 1100);
    xml.push_str("<root>");
    for _ in 0..forks {
        xml.push_str("<h>");
        for tag in ["x", "y"] {
            for level in 0..DEEP_CHAIN_DEPTH {
                xml.push('<');
                xml.push_str(tag);
                xml.push('>');
                if level % 2 == 1 {
                    xml.push_str("<a>");
                    let mut seen = [usize::MAX; DEEP_TOKENS_PER_LEAF];
                    for (i, slot) in seen.iter_mut().enumerate() {
                        let rank = zipf.sample(&mut rng);
                        if i > 0 {
                            xml.push(' ');
                        }
                        xml.push_str(&names[rank]);
                        *slot = rank;
                    }
                    // A leaf is one hit however often it repeats a token.
                    counts[seen[0]] += 1;
                    if seen[1] != seen[0] {
                        counts[seen[1]] += 1;
                    }
                    xml.push_str("</a>");
                }
            }
            for _ in 0..DEEP_CHAIN_DEPTH {
                xml.push_str("</");
                xml.push_str(tag);
                xml.push('>');
            }
        }
        xml.push_str("</h>");
    }
    xml.push_str("</root>");
    let mut tokens: Vec<(String, usize)> = names
        .into_iter()
        .zip(counts)
        .filter(|(_, n)| *n > 0)
        .collect();
    tokens.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Corpus {
        xml,
        vocab: Vocab::Deep { tokens },
    }
}

/// Zipf(1) over ranks `0..n` by inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
