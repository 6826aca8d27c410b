//! Shared-evaluation batch sweeps.
//!
//! The server's batch window (PR 2) already amortizes *term decodes*
//! across concurrent queries; this module amortizes *evaluation*. A
//! batch of meet queries usually shares hit sets (popular terms recur),
//! and the dominant cost of the indexed sweep is putting every hit in
//! document order. So the batch executor:
//!
//! 1. decodes each **distinct** hit set into a document-order sorted
//!    oid run exactly once per batch (identity by `&HitSet` address —
//!    the server's term cache hands out shared `Arc<HitSet>`s, so equal
//!    terms are pointer-equal);
//! 2. builds each query's item list by a tagged multiway merge of its
//!    inputs' pre-sorted runs — ties take the lower input index,
//!    reproducing `sort_unstable` on `(oid, input)` exactly;
//! 3. evaluates duplicate queries (same inputs, same options) once and
//!    clones the result;
//! 4. runs each query through the same pipeline as the serial path
//!    ([`crate::MeetPlanner::execute`]: same plan, same roll-up, same
//!    rank and cut), plugging in the very same sweep core
//!    (`meet_multi_items`) over the merged runs.
//!
//! Because step 4 is *the same code on the same item order*, batched
//! answers are byte-identical to one-at-a-time evaluation by
//! construction; `tests/batch_equivalence.rs` proves it differentially.

use crate::meet_multi::{meet_multi_items, Meet, MeetOptions};
use crate::Database;
use ncq_fulltext::HitSet;
use ncq_store::Oid;
use std::collections::HashMap;

/// One query of a batch: exactly the arguments of
/// [`crate::MeetBackend::meet_hit_groups`].
#[derive(Debug)]
pub struct BatchQuery<'a> {
    /// The hit groups to meet, in input order (witness `input` indices
    /// are positions in this list).
    pub inputs: Vec<&'a HitSet>,
    /// Per-query options (filter, distance bound, strategy, limit).
    pub options: MeetOptions,
}

impl<'a> BatchQuery<'a> {
    /// Convenience constructor.
    pub fn new(inputs: Vec<&'a HitSet>, options: MeetOptions) -> BatchQuery<'a> {
        BatchQuery { inputs, options }
    }

    /// Same inputs (by address) and same options: safe to evaluate once.
    fn same_as(&self, other: &BatchQuery<'_>) -> bool {
        self.options == other.options
            && self.inputs.len() == other.inputs.len()
            && self
                .inputs
                .iter()
                .zip(&other.inputs)
                .all(|(a, b)| std::ptr::eq(*a, *b))
    }
}

/// Merge pre-sorted per-input oid runs into one `(oid, input)` list.
/// Ties take the lower input index — exactly the order
/// `sort_unstable` gives the serial path's flattened items.
///
/// With a SIMD mode active, each `(oid, input)` pair is packed into a
/// `u64` (`oid` high, tag low — packed order *is* `(Oid, u32)` lex
/// order) and the runs go through the vectorized pairwise merge tree;
/// under `NCQ_SIMD=off` the original k-way scan runs unchanged. Small
/// merges (under ~256 items total) skip the pack/unpack round trip —
/// at that size it costs more than the lanes recover.
fn merge_tagged(runs: &[&[Oid]]) -> Vec<(Oid, u32)> {
    const VECTOR_MIN: usize = 256;
    let total_len: usize = runs.iter().map(|r| r.len()).sum();
    if total_len >= VECTOR_MIN && ncq_simd::mode() != ncq_simd::Mode::Scalar {
        let packed: Vec<Vec<u64>> = runs
            .iter()
            .enumerate()
            .map(|(tag, run)| {
                run.iter()
                    .map(|o| (o.raw() as u64) << 32 | tag as u64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u64]> = packed.iter().map(Vec::as_slice).collect();
        let mut merged = Vec::new();
        ncq_simd::merge_tagged_u64(&refs, &mut merged);
        return merged
            .into_iter()
            .map(|v| (Oid::from_raw((v >> 32) as u32), v as u32))
            .collect();
    }
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursor = vec![0usize; runs.len()];
    loop {
        let mut next: Option<(Oid, usize)> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some(&o) = run.get(cursor[i]) {
                if next.is_none_or(|(best, _)| o < best) {
                    next = Some((o, i));
                }
            }
        }
        let Some((o, i)) = next else { break };
        out.push((o, i as u32));
        cursor[i] += 1;
    }
    out
}

/// Registry handle for the batch-window-size histogram.
fn batch_size_histogram() -> &'static std::sync::Arc<ncq_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<ncq_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| ncq_obs::obs().registry.histogram("ncq_batch_size"))
}

/// The batch executor behind [`Database::meet_hits_batch`].
pub(crate) fn meet_hits_batch(db: &Database, queries: &[BatchQuery<'_>]) -> Vec<Vec<Meet>> {
    if ncq_obs::obs().enabled() && !queries.is_empty() {
        batch_size_histogram().record(queries.len() as u64);
    }
    let _span = ncq_obs::trace::span("meet_batch");
    ncq_obs::trace::annotate("batch", queries.len().to_string());
    // A batch of one is just the serial path — no shared work to find.
    if queries.len() == 1 {
        let q = &queries[0];
        return vec![db.meet_hits(&q.inputs, &q.options)];
    }

    // Distinct hit sets across the batch, decoded lazily: address →
    // document-order sorted oids. Per-path groups inside a HitSet are
    // already sorted; the flatten+sort is paid once per distinct set.
    let mut runs: HashMap<usize, Vec<Oid>> = HashMap::new();

    let mut results: Vec<Option<Vec<Meet>>> = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        // Duplicate of an earlier query: clone its answer.
        if let Some(prev) = (0..qi).find(|&p| queries[p].same_as(q)) {
            let prior = results[prev].clone();
            results.push(prior);
            continue;
        }
        // The roll-up climbs tokens path-by-path; there is no sort to
        // share, and the planner only picks it for tiny inputs. The
        // sweep arm shares the per-hit-set sorted runs.
        let meets = db.planner().execute(&q.inputs, &q.options, || {
            for &h in &q.inputs {
                runs.entry(std::ptr::from_ref(h) as usize)
                    .or_insert_with(|| {
                        let mut oids: Vec<Oid> = h.iter().map(|(_, o)| o).collect();
                        oids.sort_unstable();
                        oids
                    });
            }
            let query_runs: Vec<&[Oid]> = q
                .inputs
                .iter()
                .map(|&h| runs[&(std::ptr::from_ref(h) as usize)].as_slice())
                .collect();
            let items = merge_tagged(&query_runs);
            meet_multi_items(db.store(), &items, &q.options)
        });
        results.push(Some(meets));
    }
    results
        .into_iter()
        .map(|r| r.expect("every query resolves to an answer"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn batched_matches_serial_on_overlapping_terms() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let bit = db.search("Bit");
        let y99 = db.search("1999");
        let ben = db.search("Ben");
        let queries = vec![
            BatchQuery::new(vec![&bit, &y99], MeetOptions::default()),
            BatchQuery::new(vec![&ben, &bit], MeetOptions::default()),
            BatchQuery::new(vec![&bit, &y99], MeetOptions::default()),
            BatchQuery::new(
                vec![&y99, &ben, &bit],
                MeetOptions {
                    strategy: crate::MeetStrategy::Sweep,
                    ..MeetOptions::default()
                },
            ),
        ];
        let batched = db.meet_hits_batch(&queries);
        for (q, got) in queries.iter().zip(&batched) {
            assert_eq!(got, &db.meet_hits(&q.inputs, &q.options));
        }
        // The duplicate pair really is byte-identical.
        assert_eq!(batched[0], batched[2]);
    }

    #[test]
    fn merge_tagged_matches_sort_unstable() {
        let a = [3usize, 5, 9].map(Oid::from_index);
        let b = [1usize, 5, 7].map(Oid::from_index);
        let merged = merge_tagged(&[&a, &b]);
        let mut flat: Vec<(Oid, u32)> = a
            .iter()
            .map(|&o| (o, 0u32))
            .chain(b.iter().map(|&o| (o, 1u32)))
            .collect();
        flat.sort_unstable();
        assert_eq!(merged, flat);
    }

    #[test]
    fn empty_batch_is_fine() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        assert!(db.meet_hits_batch(&[]).is_empty());
    }
}
