//! # ncq-xml — XML substrate for nearest concept queries
//!
//! A from-scratch XML 1.0 subset parser and an arena-based syntax-tree model
//! implementing the *conceptual data model* of Schmidt, Kersten &
//! Windhouwer, *"Querying XML Documents Made Easy: Nearest Concept
//! Queries"* (ICDE 2001), Definition 1:
//!
//! > An XML document is a rooted tree `D = (V, E, label_E, label_A, rank, r)`
//! > with nodes `V`, edges `E ⊆ V × V`, a distinguished root `r`, element
//! > labels `label_E`, attribute pairs `label_A`, character data modelled as
//! > a special attribute of nodes, and `rank` establishing sibling order.
//!
//! The [`tree::Document`] arena realizes exactly this: element nodes carry a
//! [`symbols::Symbol`] label and attribute list, character data becomes a
//! dedicated *cdata* child node (mirroring the `cdata` nodes of the paper's
//! Figure 1), and sibling order is the order of the sibling links — the
//! order the children were added in. The tree exists to be bulk-loaded
//! into `ncq-store` and dropped, so it is three flat vectors (six `u32`
//! words a node, attribute records, one text blob) plus the symbol table,
//! and [`parse`] allocates per distinct name, not per node.
//!
//! ## Supported XML subset
//!
//! * elements, attributes, character data
//! * `<![CDATA[ … ]]>` sections (merged into character data)
//! * comments and processing instructions (skipped)
//! * `<!DOCTYPE …>` declarations including bracketed internal subsets
//!   (skipped; DTDs are not interpreted)
//! * the five predefined entities and decimal/hex character references
//!
//! Not supported (not needed by any corpus in this reproduction):
//! namespaces-aware processing (prefixes are kept verbatim as part of the
//! tag name), external entities, and DTD validation.
//!
//! ## Quick example
//!
//! ```
//! let doc = ncq_xml::parse("<bib><article year='1999'>How to Hack</article></bib>").unwrap();
//! let root = doc.root();
//! assert_eq!(doc.tag_name(root), Some("bib"));
//! let article = doc.children(root).next().unwrap();
//! assert_eq!(doc.attribute(article, "year"), Some("1999"));
//! ```

pub mod cursor;
pub mod error;
pub mod escape;
pub mod parser;
pub mod symbols;
pub mod tree;
pub mod writer;

pub use error::{ParseError, ParseErrorKind};
pub use parser::{parse, parse_with_options, ParseOptions};
pub use symbols::{Symbol, SymbolTable};
pub use tree::{Attribute, Document, NodeId, NodeKind};
pub use writer::{write_document, WriteOptions};
