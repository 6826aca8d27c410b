//! # ncq-oracle — what the served meet is checked against
//!
//! A dev-dependency only (`publish = false`): no served crate links it.
//! It holds the test apparatus the suites of the workspace share:
//!
//! * the paper's own algorithms ([`meet2`], [`meet2_naive`],
//!   [`meet_sets`], [`meet_rollup`], [`meet_rollup_ranked`]): Fig. 3's
//!   steered pairwise walk, Fig. 4's two-set frontier lift and Fig. 5's
//!   level-by-level token roll-up, against which `ncq_core::sweep`'s one
//!   stack pass is checked;
//! * [`spec`]: the meet defined from the tree and the hit groups alone,
//!   which `tests/exhaustive.rs` checks the served pass against on every
//!   small tree, hit assignment and distance bound;
//! * [`shapes`]: tree and hit shapes random trees rarely draw;
//! * [`trees`]: the one random-tree generator, and every ordered tree of
//!   a given size.

pub mod shapes;
pub mod spec;
pub mod trees;
mod walks;

pub use trees::{random_tree, TreeDraw};
pub use walks::{meet2, meet2_naive, meet_rollup, meet_rollup_ranked, meet_sets, SetMeets};
