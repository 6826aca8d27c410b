//! # ncq-store — the Monet transform (physical data model)
//!
//! Implements Section 2 of Schmidt, Kersten & Windhouwer (ICDE 2001): XML
//! syntax trees are decomposed into **associations** (Definition 2) —
//! binary tuples `(oid, oid)`, `(oid, string)` and `(oid, int)` — and all
//! associations of the same **type** are stored together in one binary
//! relation. The type of an association `(·, o)` is the **path** `σ(o)`
//! (Definition 3): the sequence of labels from the root to `o`. The set of
//! all paths of a document is its **path summary**.
//!
//! This path-partitioned, fully decomposed storage model (the *Monet
//! transform*, Definition 4) is what makes the meet operator cheap:
//!
//! * `σ(o)` "comes for free by looking at the name of the relation" — here
//!   a dense `oid → PathId` array filled at bulk-load time;
//! * `parent(o)` is "basically a hash look-up" — here a dense `oid → Oid`
//!   array;
//! * the prefix order on paths (Definition 5) steers the meet algorithms so
//!   that no superfluous look-ups happen.
//!
//! ```
//! let doc = ncq_xml::parse("<bib><article><year>1999</year></article></bib>").unwrap();
//! let db = ncq_store::MonetDb::from_document(&doc);
//! // The year's cdata node lives in relation bib/article/year/cdata:
//! let path = db
//!     .summary()
//!     .lookup_in(&["bib", "article", "year", "cdata"], db.symbols())
//!     .unwrap();
//! let (owner, text) = db.strings_of(path).get(0).unwrap();
//! assert_eq!(text, "1999");
//! assert_eq!(db.relation_name(db.sigma(owner)), "bib/article/year/cdata");
//! ```

pub mod index;
pub mod manifest;
pub mod mmap;
pub mod monet;
pub mod object;
pub mod oid;
pub mod path;
pub mod snapshot;
pub mod stats;
pub mod strings;

pub use index::MeetIndex;
pub use manifest::{
    validate_corpus_name, Manifest, ManifestEntry, ManifestError, MANIFEST_MAGIC, MANIFEST_VERSION,
};
pub use mmap::{
    section_name, ByteReader, ByteWriter, Col, MappedSnapshot, Pod, SnapshotArena, SnapshotWriter,
    VerifyMode,
};
pub use monet::MonetDb;
pub use object::ObjectView;
pub use oid::Oid;
pub use path::{PathId, PathStep, PathSummary};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use stats::{DepthStats, StoreStats};
pub use strings::StringRel;
