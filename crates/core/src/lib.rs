//! # ncq-core — the meet operator (nearest concept queries)
//!
//! The primary contribution of Schmidt, Kersten & Windhouwer, *"Querying
//! XML Documents Made Easy: Nearest Concept Queries"* (ICDE 2001): query
//! XML databases **whose content you know but whose mark-up you don't**,
//! by computing lowest common ancestors ("nearest concepts") of full-text
//! hits. The result *type* is not specified in the query — it emerges from
//! the database instance.
//!
//! One pipeline serves every request:
//!
//! ```text
//! search → sweep → rank → cut
//! ```
//!
//! * **search** — each term becomes a hit group
//!   ([`ncq_fulltext::HitSet`]);
//! * **sweep** — the generalized meet of Fig. 5 over arbitrarily many
//!   heterogeneous hit groups, done as one stack pass over the hits in
//!   document order ([`sweep`]) with one O(1) LCA probe per hit. It
//!   applies the §4 extensions: result-type restriction `meet_Π`
//!   ([`filter::PathFilter`]) and distance bound `meet^δ`;
//! * **rank, cut** — distance-based ranking and `limit k`
//!   ([`rank::rank_and_cut`]).
//!
//! [`sweep::meet_hits`] is that pipeline ([`Database::meet_hits`] runs
//! it on a database's store). Every served meet reaches it through
//! `ncq-query`'s evaluation of a SQL meet — the MEET verb is the
//! Listing-2 query it abbreviates — on a local corpus, on each corpus
//! of a forest ([`catalog`]) or on a remote replica ([`remote`]).
//! (`ncq-shard` runs the same pass as a scatter/gather for the
//! benchmark's comparison; nothing serves it.) The paper's own
//! algorithms — the pairwise
//! walks (Fig. 3), the two-set frontier lift (Fig. 4) and the
//! level-by-level token roll-up (Fig. 5) — are not served operators:
//! they live in the dev-only `ncq-oracle` crate, beside a declarative
//! spec of the meet, as the oracles the test suites check the pipeline
//! against.
//!
//! [`Database`] packages parsing, the Monet transform, the inverted index
//! and the pipeline behind one facade:
//!
//! ```
//! use ncq_core::Database;
//!
//! let db = Database::from_xml_str(r#"
//!   <bibliography><institute>
//!     <article key="BB99">
//!       <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
//!       <title>How to Hack</title><year>1999</year>
//!     </article>
//!   </institute></bibliography>"#).unwrap();
//!
//! // "What did Bit do in 1999?" — no schema knowledge required:
//! let answers = db.meet_terms(&["Bit", "1999"]).unwrap();
//! assert_eq!(answers.get(0).unwrap().tag, "article");
//! ```

pub mod answer;
pub mod backend;
pub mod catalog;
pub mod db;
pub mod distance;
pub mod filter;
pub mod graph;
pub mod meet2;
pub mod meet_multi;
pub mod planner;
pub mod rank;
pub mod remote;
pub mod sweep;

pub use answer::{Answer, AnswerSet, PartialAnswer, QueryOutput, Row, RowSet, Witness, Witnesses};
pub use backend::{BackendError, MeetBackend, RobustnessStats};
pub use catalog::{open_forest, Catalog, CatalogError, ForestBackend};
pub use db::{Database, MeetError};
pub use distance::distance;
pub use filter::PathFilter;
pub use graph::{graph_distance, graph_meet, GraphMeet, RefGraph};
pub use meet2::{meet2_indexed, Meet2};
pub use meet_multi::{Meet, MeetOptions};
// Only because `perf/src/trace.rs` links it; ROADMAP 1(d) unlinks it.
pub use planner::ChosenStrategy;
pub use remote::{
    EngineQuery, EngineRequest, EngineResponse, RemoteBackend, RemoteConfig, ReplicaHealth,
    WireError, DEFAULT_FRAME_CAP,
};
