//! # ncq-shard — preorder-interval sharded execution
//!
//! The meet operator works over preorder/postorder OID intervals, which
//! makes a document *naturally partitionable*: every subtree is a
//! contiguous OID range, so a shard is just an interval, and only the
//! (tiny) top of the tree — the **spine** — must be replicated to
//! resolve cross-shard meets. This crate turns the single-process
//! [`ncq_core::Database`] into that sharded layer:
//!
//! * [`PartitionMap`] cuts a document into K balanced shards on subtree
//!   boundaries, weighing node count plus posting mass, and marks the
//!   replicated spine (the ancestors of every chunk root);
//! * per-shard full-text postings are built by *restriction* of the
//!   global relations ([`ncq_fulltext::InvertedIndex::restrict`] /
//!   [`ncq_store::MonetDb::strings_in_range`]), so term lookups scatter
//!   only to the shards owning hits;
//! * [`ShardedDb`] serves the same `search` / `meet_hits` /
//!   `run_query` surface as [`ncq_core::Database`] — byte-identical
//!   answers, pinned by the golden suite and the randomized
//!   equivalence property tests — with per-shard meets running in
//!   parallel on a persistent worker pool and one more pass of the
//!   same sweep, over the shards' survivors, resolving cross-shard
//!   meets on the spine;
//! * [`ncq_core::MeetBackend`] is implemented, so `ncq-server` workers
//!   (`Server::start_backend`) and `ncq-query` evaluation dispatch to a
//!   sharded engine without changes.
//!
//! ```
//! use ncq_core::{MeetBackend, MeetOptions};
//! use ncq_shard::ShardedDb;
//!
//! let sharded = ShardedDb::from_xml_str(
//!     "<bib><article><author>Ben Bit</author><year>1999</year></article></bib>",
//!     4,
//! ).unwrap();
//! let answers = sharded
//!     .meet_terms_answers(&["Bit", "1999"], &MeetOptions::default())
//!     .unwrap();
//! assert_eq!(answers.results[0].tag, "article");
//! ```

pub mod forest;
pub mod partition;
mod pool;
pub mod sharded;
pub mod snapshot;

pub use forest::{open_catalog_remote, open_forest, sharded_corpus};
pub use partition::{PartitionMap, ShardInfo};
pub use sharded::ShardedDb;
