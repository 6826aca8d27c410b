//! Synthetic multimedia feature descriptions (substitute for the paper's
//! 200 MB feature-detector output).
//!
//! Figure 6 measures the *meet* cost as a function of the tree distance
//! between two full-text hits (0–20 edges). The only structural property
//! that matters is therefore that we can plant pairs of unique marker
//! terms at **exact** tree distances — which this generator guarantees —
//! inside a realistically deep, noisy feature-description document.
//!
//! Probe construction for a pair at distance `d` under an anchor element:
//!
//! * `d == 0` — one cdata node contains both markers ("Bob Byte" case);
//! * `d == 1` — marker A in an *attribute* of element `X` (owner = `X`),
//!   marker B in a cdata child of `X`;
//! * `d >= 2` — two element chains of lengths `⌊(d−2)/2⌋` and `⌈(d−2)/2⌉`
//!   hang under the anchor; the cdata leaves at their ends are exactly
//!   `d` edges apart, and their meet is the anchor.

use crate::pools;
use ncq_xml::{Document, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`MultimediaCorpus::generate`].
#[derive(Debug, Clone)]
pub struct MultimediaConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Probe pairs are planted for every distance `0..=max_distance`.
    pub max_distance: usize,
    /// Probe pairs per distance.
    pub probes_per_distance: usize,
    /// Background media items (noise the full-text search must wade
    /// through, mimicking the paper's 200 MB of detector output).
    pub noise_items: usize,
}

impl Default for MultimediaConfig {
    fn default() -> MultimediaConfig {
        MultimediaConfig {
            seed: 0xFEED,
            max_distance: 20,
            probes_per_distance: 4,
            noise_items: 500,
        }
    }
}

/// A generated multimedia corpus.
#[derive(Debug, Clone)]
pub struct MultimediaCorpus {
    /// The feature-description document.
    pub document: Document,
    /// Config used (probe terms are derived from it).
    pub config: MultimediaConfig,
}

impl MultimediaCorpus {
    /// Generate a corpus.
    pub fn generate(config: &MultimediaConfig) -> MultimediaCorpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut doc = Document::new("media");
        let root = doc.root();

        // Interleave noise items and probes deterministically.
        for i in 0..config.noise_items {
            add_noise_item(&mut doc, &mut rng, i);
        }
        for d in 0..=config.max_distance {
            for k in 0..config.probes_per_distance {
                let item = doc.add_element(root, "item");
                doc.set_attribute(item, "id", format!("probe-{d}-{k}"));
                plant_probe(&mut doc, item, d, k);
            }
        }

        MultimediaCorpus {
            document: doc,
            config: config.clone(),
        }
    }

    /// The two marker terms of probe `k` at distance `d`. Searching for
    /// them full-text yields exactly `probes_per_distance`-many hits per
    /// side when `k` is ignored, or one hit each with these exact terms.
    pub fn marker_terms(d: usize, k: usize) -> (String, String) {
        (format!("probeq{d:02}x{k}a"), format!("probeq{d:02}x{k}b"))
    }
}

/// Plant one probe pair at exact distance `d` under `item`.
fn plant_probe(doc: &mut Document, item: NodeId, d: usize, k: usize) {
    let (ma, mb) = MultimediaCorpus::marker_terms(d, k);
    match d {
        0 => {
            let f = doc.add_element(item, "annotation");
            doc.add_text(f, format!("{ma} {mb}"));
        }
        1 => {
            let f = doc.add_element(item, "feature");
            doc.set_attribute(f, "detector", ma);
            doc.add_text(f, mb);
        }
        _ => {
            let anchor = doc.add_element(item, "feature");
            let left_len = (d - 2) / 2;
            let right_len = (d - 2) - left_len;
            let mut left = anchor;
            for i in 0..left_len {
                left = doc.add_element(left, if i % 2 == 0 { "region" } else { "segment" });
            }
            let mut right = anchor;
            for i in 0..right_len {
                right = doc.add_element(right, if i % 2 == 0 { "property" } else { "value" });
            }
            doc.add_text(left, ma);
            if left == right {
                // d == 2: both markers are cdata children of the anchor.
                // Separate them with an empty element so the two text
                // nodes stay distinct through serialize → re-parse
                // (adjacent text nodes would merge); the marker distance
                // through the anchor is unchanged.
                doc.add_element(right, "sep");
            }
            doc.add_text(right, mb);
        }
    }
}

/// One background media item: nested detector output with random words.
fn add_noise_item(doc: &mut Document, rng: &mut StdRng, idx: usize) {
    let root = doc.root();
    let item = doc.add_element(root, "item");
    doc.set_attribute(item, "id", format!("media-{idx}"));
    let img = doc.add_element(item, "image");
    let src = doc.add_element(img, "source");
    doc.add_text(src, format!("http://example.org/m/{idx}.jpg"));
    let n_regions = 1 + rng.random_range(0..3);
    for _ in 0..n_regions {
        let region = doc.add_element(img, "region");
        let n_features = 1 + rng.random_range(0..4);
        for _ in 0..n_features {
            let det = pools::DETECTORS[rng.random_range(0..pools::DETECTORS.len())];
            let f = doc.add_element(region, det);
            let n_vals = 1 + rng.random_range(0..3);
            for _ in 0..n_vals {
                let v = doc.add_element(f, "value");
                doc.add_text(
                    v,
                    format!("{:.4}", rng.random_range(0..10_000) as f64 / 10_000.0),
                );
            }
        }
        let kw = doc.add_element(region, "keywords");
        let n_words = 1 + rng.random_range(0..4);
        let words: Vec<&str> = (0..n_words)
            .map(|_| pools::MEDIA_WORDS[rng.random_range(0..pools::MEDIA_WORDS.len())])
            .collect();
        doc.add_text(kw, words.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> MultimediaCorpus {
        MultimediaCorpus::generate(&MultimediaConfig {
            noise_items: 50,
            probes_per_distance: 2,
            max_distance: 12,
            ..MultimediaConfig::default()
        })
    }

    /// Find the node owning marker `m` (the cdata node, or the element for
    /// attribute markers) and return it.
    fn marker_owner(doc: &Document, m: &str) -> NodeId {
        for n in doc.iter_depth_first() {
            if doc.text(n).is_some_and(|t| t.contains(m)) {
                return n;
            }
            if doc.attributes(n).any(|a| a.value.contains(m)) {
                return n;
            }
        }
        panic!("marker {m} not found");
    }

    fn tree_distance(doc: &Document, a: NodeId, b: NodeId) -> usize {
        let anc_a: Vec<NodeId> = doc.ancestors(a).collect();
        for (climb_b, anc) in doc.ancestors(b).enumerate() {
            if let Some(pos) = anc_a.iter().position(|&x| x == anc) {
                return pos + climb_b;
            }
        }
        unreachable!()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = corpus();
        let b = corpus();
        assert!(a.document.structural_eq(&b.document));
    }

    #[test]
    fn probe_markers_sit_at_exact_distances() {
        let c = corpus();
        let doc = &c.document;
        for d in 0..=c.config.max_distance {
            for k in 0..c.config.probes_per_distance {
                let (ma, mb) = MultimediaCorpus::marker_terms(d, k);
                let na = marker_owner(doc, &ma);
                let nb = marker_owner(doc, &mb);
                assert_eq!(
                    tree_distance(doc, na, nb),
                    d,
                    "probe d={d} k={k} has wrong distance"
                );
            }
        }
    }

    #[test]
    fn markers_are_unique() {
        let c = corpus();
        let doc = &c.document;
        let (ma, _) = MultimediaCorpus::marker_terms(3, 0);
        let count = doc
            .iter_depth_first()
            .filter(|&n| doc.text(n).is_some_and(|t| t.contains(&ma)))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn noise_items_have_feature_structure() {
        let c = corpus();
        let doc = &c.document;
        let some_region = doc.find_element(doc.root(), "region").unwrap();
        assert!(doc.children(some_region).next().is_some());
        // Noise must contain at least one known detector element.
        assert!(pools::DETECTORS
            .iter()
            .any(|d| doc.find_element(doc.root(), d).is_some()));
    }

    #[test]
    fn document_grows_with_noise() {
        let small = MultimediaCorpus::generate(&MultimediaConfig {
            noise_items: 10,
            ..MultimediaConfig::default()
        });
        let big = MultimediaCorpus::generate(&MultimediaConfig {
            noise_items: 200,
            ..MultimediaConfig::default()
        });
        assert!(big.document.len() > small.document.len() * 4);
    }
}
