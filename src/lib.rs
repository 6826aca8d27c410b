//! # nearest-concept — facade crate
//!
//! Umbrella crate re-exporting the whole *Nearest Concept Queries* stack,
//! a Rust reproduction of Schmidt, Kersten & Windhouwer, *"Querying XML
//! Documents Made Easy: Nearest Concept Queries"*, ICDE 2001.
//!
//! Most applications only need [`Database`]:
//!
//! ```
//! use nearest_concept::Database;
//!
//! let db = Database::from_xml_str(
//!     "<bib><article><author>Ben Bit</author><year>1999</year></article></bib>",
//! ).unwrap();
//! let answers = db.meet_terms(&["Bit", "1999"]).unwrap();
//! assert_eq!(answers.results[0].tag, "article");
//! ```
//!
//! The individual layers are re-exported as modules:
//!
//! * [`xml`] — XML parser and syntax tree (conceptual model)
//! * [`store`] — Monet transform (physical model, path-partitioned relations)
//! * [`fulltext`] — inverted index producing meet inputs
//! * [`core`] — the one meet pipeline (merged hits → stack pass → rank
//!   and cut), the [`Database`] facade and the paper's walks as
//!   `reference` oracles
//! * [`query`] — the paper's SQL-with-paths dialect incl. the `meet` aggregate
//! * [`server`] — batched concurrent query service over any
//!   [`ncq_core::MeetBackend`] (a `Database`, a remote engine or a
//!   forest of corpora)
//! * [`simd`] — lane-parallel set kernels with runtime CPU dispatch and
//!   bit-identical scalar fallbacks (`NCQ_SIMD` overrides the mode)
//! * [`datagen`] — synthetic DBLP / multimedia corpora used by the benchmarks

pub use ncq_core as core;
pub use ncq_datagen as datagen;
pub use ncq_fulltext as fulltext;
pub use ncq_query as query;
pub use ncq_server as server;
pub use ncq_simd as simd;
pub use ncq_store as store;
pub use ncq_xml as xml;

pub use ncq_core::{
    open_forest, Answer, AnswerSet, Catalog, CatalogError, Database, ForestBackend, MeetBackend,
    MeetOptions, RefGraph,
};
pub use ncq_fulltext::Thesaurus;
pub use ncq_query::{run_query, run_query_opts, QueryOptions, QueryOutput};
pub use ncq_server::{Client, Server, ServerConfig};
pub use ncq_store::{
    Manifest, ManifestEntry, ManifestError, SnapshotError, MANIFEST_VERSION, SNAPSHOT_VERSION,
};
