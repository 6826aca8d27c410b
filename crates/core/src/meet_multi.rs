//! The generalized meet's vocabulary (the paper's Fig. 5 with the §4
//! restrictions): [`MeetOptions`] in, ranked [`Meet`]s out.
//!
//! Every served meet is one stack pass ([`crate::sweep`]) followed by
//! [`crate::rank::rank_and_cut`]. The paper's own level-by-level token
//! roll-up is the oracle that pass is checked against,
//! [`crate::reference::meet_rollup`].

use crate::filter::PathFilter;
use ncq_store::{Oid, PathId};

/// Tuning and restriction knobs for the generalized meet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeetOptions {
    /// Result-type restriction (`meet_Π`).
    pub filter: PathFilter,
    /// Maximum distance between the two closest witnesses (`meet^δ`).
    pub max_distance: Option<usize>,
    /// Cap on stored witnesses per meet (the count is always exact;
    /// only the sample is bounded). Default 8.
    pub witness_cap: usize,
    /// Top-k bound (the dialect's `limit k`): the answer is the first
    /// `k` of the unbounded ranking, byte for byte. Nothing stops early
    /// for it. [`crate::rank::rank_and_cut`] ranks and truncates; the
    /// stack pass also keeps only the `k` best by the same rank key while
    /// it runs, so a meet that cannot make the cut costs no witness
    /// sample. Any value is safe: nothing is sized by `k`.
    pub limit: Option<usize>,
}

impl MeetOptions {
    /// The effective witness-sample bound: [`MeetOptions::witness_cap`]
    /// with `0` meaning the default of 8. The served sample is the first
    /// `cap` witnesses in document order, part of the byte-identical-
    /// answers contract.
    pub fn cap(&self) -> usize {
        if self.witness_cap == 0 {
            8
        } else {
            self.witness_cap
        }
    }
}

/// One witness of a meet: an original full-text hit that converged there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeetWitness {
    /// The hit's owner oid (cdata node or attribute-carrying element).
    pub origin: Oid,
    /// Index of the hit group (position in the `inputs` slice).
    pub input: usize,
    /// Edges climbed from the origin to the meet.
    pub climb: usize,
}

/// A nearest concept found by the generalized meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meet {
    /// The meet node.
    pub node: Oid,
    /// `σ(node)` — the result type the user did not have to specify.
    pub path: PathId,
    /// Distance between the two closest witnesses through this node
    /// (the ranking heuristic of §4).
    pub distance: usize,
    /// Total number of witnesses that converged here.
    pub witness_count: usize,
    /// Sample of witnesses (bounded by [`MeetOptions::witness_cap`]).
    pub witnesses: Vec<MeetWitness>,
}
