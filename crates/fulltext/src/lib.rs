//! # ncq-fulltext — full-text search over Monet-transformed XML
//!
//! The meet operator of Schmidt, Kersten & Windhouwer (ICDE 2001) is
//! "applied to the result of a full-text search": the search produces
//! associations `(o, s)` spread over many string relations, grouped by
//! relation (= path type), and the meet combines them into nearest
//! concepts. This crate provides that front end:
//!
//! * [`tokenize`] — the word tokenizer (case-folded alphanumeric runs),
//! * [`InvertedIndex`] — token → postings over every string relation
//!   of a [`ncq_store::MonetDb`], grouped by path into owner runs,
//! * [`search`] — word / phrase / substring / predicate queries returning a
//!   [`HitSet`]: hits grouped per path, exactly the input shape the
//!   generalized meet algorithm (paper Fig. 5) consumes.
//!
//! ```
//! let doc = ncq_xml::parse(
//!     "<bib><article><author>Ben Bit</author><year>1999</year></article></bib>",
//! ).unwrap();
//! let db = ncq_store::MonetDb::from_document(&doc);
//! let idx = ncq_fulltext::InvertedIndex::build(&db);
//! let hits = ncq_fulltext::search::word_hits(&idx, "bit");
//! assert_eq!(hits.len(), 1);
//! ```

pub mod hits;
pub mod index;
pub mod intersect;
pub mod search;
pub mod snapshot;
pub mod thesaurus;
pub mod tokenize;

pub use hits::HitSet;
pub use index::{InvertedIndex, Postings};
pub use intersect::{intersect, intersect_all};
pub use thesaurus::{expanded_hits, Thesaurus};
