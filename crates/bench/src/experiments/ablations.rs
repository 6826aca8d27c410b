//! Ablations of the design choices the paper calls out.
//!
//! * **A — σ-steering** (§3.2, Fig. 3): the steered pairwise meet performs
//!   exactly `d` parent look-ups; the naive two-ancestor-list LCA performs
//!   `depth(o₁) + d`. On deep documents the gap is the paper's
//!   "superfluous look-ups are avoided".
//! * **B — set scaling** (§5): `meet` input-size scaling should be linear
//!   in the number of hits.
//! * **C — §4 restrictions**: `meet_Π` and `meet^δ` prune work; distance
//!   bounding may *reduce* cost (tokens die early), and filters must not
//!   add more than array-lookup overhead.

use crate::measure::{micros, time_median};
use ncq_core::reference::{meet2, meet2_naive};
use ncq_core::{meet2_indexed, Database, MeetOptions, PathFilter};
use ncq_fulltext::HitSet;
use ncq_store::Oid;
use ncq_xml::{Document, NodeId};

// ----- Ablation A: steering -----

/// One row of the steering ablation.
#[derive(Debug, Clone)]
pub struct SteeringRow {
    /// Depth at which the probe pair sits.
    pub depth: usize,
    /// Distance between the probes.
    pub distance: usize,
    /// Look-ups by the steered algorithm (== distance).
    pub steered_lookups: usize,
    /// Look-ups by the naive baseline (== depth + distance side effects).
    pub naive_lookups: usize,
    /// Steered time, µs.
    pub steered_us: f64,
    /// Naive time, µs.
    pub naive_us: f64,
    /// Indexed (O(1) LCA) time, µs — O(1), no parent walk.
    pub indexed_us: f64,
}

/// The oid the store gives `node`: its position in the document's
/// preorder.
fn oid_of(doc: &Document, node: NodeId) -> Oid {
    let position = doc.iter_depth_first().position(|n| n == node);
    Oid::from_index(position.expect("node belongs to the document"))
}

/// A deep chain document: `root/e/e/…/e` with a small fork of two leaves
/// at the bottom — the worst case for the naive baseline.
pub fn deep_chain_db(depth: usize) -> (Database, Oid, Oid) {
    let mut doc = Document::new("root");
    let mut cur = doc.root();
    for _ in 0..depth {
        cur = doc.add_element(cur, "e");
    }
    let left = doc.add_element(cur, "left");
    let l = doc.add_text(left, "probe-left");
    let right = doc.add_element(cur, "right");
    let r = doc.add_text(right, "probe-right");
    (
        Database::from_document(&doc),
        oid_of(&doc, l),
        oid_of(&doc, r),
    )
}

/// Run the steering ablation over several depths.
pub fn steering(depths: &[usize], runs: usize) -> Vec<SteeringRow> {
    depths
        .iter()
        .map(|&depth| {
            let (db, a, b) = deep_chain_db(depth);
            db.store().meet_index(); // build outside the timed region
            let (m_s, d_s) = time_median(runs, || meet2(db.store(), a, b));
            let (m_n, d_n) = time_median(runs, || meet2_naive(db.store(), a, b));
            let (m_i, d_i) = time_median(runs, || meet2_indexed(db.store(), a, b));
            assert_eq!(m_s.meet, m_n.meet);
            assert_eq!(m_s.meet, m_i.meet);
            assert_eq!(m_s.distance, m_i.distance);
            SteeringRow {
                depth,
                distance: m_s.distance,
                steered_lookups: m_s.lookups,
                naive_lookups: m_n.lookups,
                steered_us: micros(d_s),
                naive_us: micros(d_n),
                indexed_us: micros(d_i),
            }
        })
        .collect()
}

// ----- Ablation B: scaling -----

/// One row of the input-scaling ablation.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of input associations.
    pub input_hits: usize,
    /// Number of meets produced.
    pub meets: usize,
    /// Meet time, µs.
    pub meet_us: f64,
}

/// Scale the generalized meet over growing prefixes of a hit set.
pub fn scaling(
    db: &Database,
    hits_a: &HitSet,
    hits_b: &HitSet,
    steps: usize,
    runs: usize,
) -> Vec<ScalingRow> {
    let all_a: Vec<_> = hits_a.iter().collect();
    let all_b: Vec<_> = hits_b.iter().collect();
    let mut rows = Vec::new();
    for s in 1..=steps {
        let take_a = all_a.len() * s / steps;
        let take_b = all_b.len() * s / steps;
        let ha = HitSet::from_pairs(all_a.iter().copied().take(take_a));
        let hb = HitSet::from_pairs(all_b.iter().copied().take(take_b));
        let inputs = [ha, hb];
        let (meets, d) = time_median(runs, || db.meet_hits(&inputs, &MeetOptions::default()));
        rows.push(ScalingRow {
            input_hits: take_a + take_b,
            meets: meets.len(),
            meet_us: micros(d),
        });
    }
    rows
}

// ----- Ablation C: restrictions -----

/// One row of the restrictions ablation.
#[derive(Debug, Clone)]
pub struct RestrictionRow {
    /// Which variant ran.
    pub variant: String,
    /// Number of meets reported.
    pub meets: usize,
    /// Time, µs.
    pub meet_us: f64,
}

/// Compare unrestricted, root-excluded, allow-listed and distance-bounded
/// meets on the same inputs.
pub fn restrictions(db: &Database, inputs: &[HitSet], runs: usize) -> Vec<RestrictionRow> {
    let variants: Vec<(String, MeetOptions)> = vec![
        ("unrestricted".into(), MeetOptions::default()),
        (
            "exclude-root".into(),
            MeetOptions {
                filter: PathFilter::exclude_root(db.store()),
                ..MeetOptions::default()
            },
        ),
        (
            "within-4".into(),
            MeetOptions {
                max_distance: Some(4),
                ..MeetOptions::default()
            },
        ),
        (
            "within-4-exclude-root".into(),
            MeetOptions {
                filter: PathFilter::exclude_root(db.store()),
                max_distance: Some(4),
                ..MeetOptions::default()
            },
        ),
    ];
    variants
        .into_iter()
        .map(|(name, opts)| {
            let (meets, d) = time_median(runs, || db.meet_hits(inputs, &opts));
            RestrictionRow {
                variant: name,
                meets: meets.len(),
                meet_us: micros(d),
            }
        })
        .collect()
}

/// Text table for the steering ablation.
pub fn steering_table(rows: &[SteeringRow]) -> String {
    let mut out = String::from(
        "# Ablation A — sigma-steered meet2 vs naive LCA vs indexed LCA\n\
         # depth  distance  steered_lookups  naive_lookups  steered_us  naive_us  indexed_us\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7}  {:>8}  {:>15}  {:>13}  {:>10.2}  {:>8.2}  {:>10.2}\n",
            r.depth,
            r.distance,
            r.steered_lookups,
            r.naive_lookups,
            r.steered_us,
            r.naive_us,
            r.indexed_us
        ));
    }
    out
}

/// Text table for the scaling ablation.
pub fn scaling_table(rows: &[ScalingRow]) -> String {
    let mut out = String::from(
        "# Ablation B — generalized meet input scaling\n# input_hits  meets  meet_us\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>12}  {:>5}  {:>8.2}\n",
            r.input_hits, r.meets, r.meet_us
        ));
    }
    out
}

/// Text table for the restrictions ablation.
pub fn restrictions_table(rows: &[RestrictionRow]) -> String {
    let mut out = String::from("# Ablation C — §4 restrictions\n# variant  meets  meet_us\n");
    for r in rows {
        out.push_str(&format!(
            "{:>22}  {:>5}  {:>8.2}\n",
            r.variant, r.meets, r.meet_us
        ));
    }
    out
}

crate::impl_to_json_struct!(SteeringRow {
    depth,
    distance,
    steered_lookups,
    naive_lookups,
    steered_us,
    naive_us,
    indexed_us,
});
crate::impl_to_json_struct!(ScalingRow {
    input_hits,
    meets,
    meet_us
});
crate::impl_to_json_struct!(RestrictionRow {
    variant,
    meets,
    meet_us
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::corpora;

    #[test]
    fn steering_saves_lookups_on_deep_chains() {
        let rows = steering(&[4, 32, 128], 3);
        for r in &rows {
            assert_eq!(r.distance, 4); // leaf→fork is always 2+2
            assert_eq!(r.steered_lookups, 4);
            // Naive pays the whole depth.
            assert!(r.naive_lookups >= r.depth);
            assert!(r.naive_lookups > r.steered_lookups);
        }
        // Deeper chains cost the naive algorithm more look-ups.
        assert!(rows[2].naive_lookups > rows[0].naive_lookups);
    }

    #[test]
    fn scaling_rows_grow_in_input_and_meets() {
        let (db, _) = corpora::dblp_small();
        let a = db.search_word("ICDE");
        let b = db.search_word("1999");
        let rows = scaling(&db, &a, &b, 4, 3);
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(w[1].input_hits >= w[0].input_hits);
        }
        assert!(rows.last().unwrap().meets >= 1);
    }

    #[test]
    fn restrictions_only_remove_answers() {
        let (db, _) = corpora::dblp_small();
        let inputs = vec![db.search_word("ICDE"), db.search_word("1999")];
        let rows = restrictions(&db, &inputs, 3);
        assert_eq!(rows.len(), 4);
        let unrestricted = rows[0].meets;
        for r in &rows[1..] {
            assert!(r.meets <= unrestricted, "{} grew", r.variant);
        }
        // Tables render.
        assert!(steering_table(&steering(&[4], 1)).contains("Ablation A"));
        assert!(scaling_table(&rows_to_scaling()).contains("Ablation B"));
        assert!(restrictions_table(&rows).contains("Ablation C"));
    }

    fn rows_to_scaling() -> Vec<ScalingRow> {
        vec![ScalingRow {
            input_hits: 1,
            meets: 0,
            meet_us: 1.0,
        }]
    }
}
