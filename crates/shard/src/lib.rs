//! # ncq-shard — the scatter/gather meet the benchmark compares against
//!
//! The meet operator works over preorder OID intervals, so a document
//! partitions naturally: every subtree is a contiguous OID range, a
//! shard is a run of such ranges, and only the top of the tree — the
//! **spine** — is shared by every shard. This crate is that split of
//! [`ncq_core::Database::meet_hits`]:
//!
//! * [`PartitionMap`] cuts a document into K balanced shards on subtree
//!   boundaries, weighing node count plus string mass, and marks the
//!   spine (the ancestors of every chunk root);
//! * [`ShardedDb::meet_hits`] runs the stack pass per shard in
//!   parallel, deferring spine nodes, then once more over the
//!   survivors — byte-identical answers, pinned by the equivalence
//!   property tests.
//!
//! It is not a deployment: nothing serves it. The benchmark's
//! `shard.meet_us` and `shard.speedup` rows time it against the single
//! engine on the same inputs.
//!
//! ```
//! use ncq_core::{Database, MeetOptions};
//! use ncq_shard::ShardedDb;
//!
//! let db = Database::from_xml_str(
//!     "<bib><article><author>Ben Bit</author><year>1999</year></article></bib>",
//! ).unwrap();
//! let inputs = [db.search("Bit"), db.search("1999")];
//! let options = MeetOptions::default();
//! let single = db.meet_hits(&inputs, &options);
//! assert_eq!(ShardedDb::new(db, 4).meet_hits(&inputs, &options), single);
//! ```

mod partition;
mod pool;
mod sharded;

pub use partition::PartitionMap;
pub use sharded::ShardedDb;
