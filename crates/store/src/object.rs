//! Object re-assembly (paper §2, end).
//!
//! > "we 're-assemble' an object with OID `o` from those associations whose
//! > first component is `o` … an object can be regarded as a set of
//! > associations."
//!
//! [`ObjectView`] gathers, for one oid: its attributes, its direct text,
//! and its element children — the paper's example re-assembles
//! `author(o14) = { cdata(o14, "BB99"), year(o14, …), title(o14, …) }` into
//! an instance of a class. Useful for displaying answers of meet queries.

use crate::monet::MonetDb;
use crate::oid::Oid;
use crate::path::PathStep;

/// A re-assembled object: one oid with its immediate associations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectView {
    /// The object's oid.
    pub oid: Oid,
    /// Display label (tag name, `cdata`, …).
    pub label: String,
    /// Attribute name/value pairs.
    pub attributes: Vec<(String, String)>,
    /// Direct character data (text of this node if it is a cdata node, or
    /// concatenation of its direct cdata children when an element).
    pub text: String,
    /// Element children in document order.
    pub children: Vec<Oid>,
}

impl ObjectView {
    /// Re-assemble the object behind `oid`.
    pub fn assemble(db: &MonetDb, oid: Oid) -> ObjectView {
        let path = db.sigma(oid);
        let summary = db.summary();
        let mut attributes = Vec::new();
        let mut text = String::new();
        let mut children = Vec::new();

        match summary.step(path) {
            // The node's own string lives in its path's string relation.
            PathStep::Cdata => text.push_str(db.string_value(path, oid).unwrap_or_default()),
            _ => {
                for &child_path in summary.children(path) {
                    match summary.step(child_path) {
                        // An attribute path holds at most one string per
                        // owner.
                        PathStep::Attribute(sym) => {
                            if let Some(value) = db.string_value(child_path, oid) {
                                attributes
                                    .push((db.symbols().resolve(sym).to_owned(), value.to_owned()));
                            }
                        }
                        PathStep::Cdata => {
                            for &child in db.children_on_path(child_path, oid) {
                                text.push_str(
                                    db.string_value(child_path, child).unwrap_or_default(),
                                );
                            }
                        }
                        PathStep::Element(_) => {
                            children.extend(db.children_on_path(child_path, oid))
                        }
                    }
                }
                children.sort_unstable(); // document order
            }
        }

        ObjectView {
            oid,
            label: db.label(oid),
            attributes,
            text,
            children,
        }
    }

    /// Concatenated text of the whole subtree under this object.
    pub fn deep_text(db: &MonetDb, oid: Oid) -> String {
        let mut out = String::new();
        deep_text_rec(db, oid, &mut out);
        out
    }
}

fn deep_text_rec(db: &MonetDb, oid: Oid, out: &mut String) {
    let view = ObjectView::assemble(db, oid);
    if matches!(db.summary().step(db.sigma(oid)), PathStep::Cdata) {
        out.push_str(&view.text);
        return;
    }
    // Interleave cdata children and element children in document order by
    // walking the original tree is simpler, but we stay in the store: use
    // direct text then recurse (adequate for display purposes; element-only
    // content dominates the corpora).
    out.push_str(&view.text);
    for c in view.children {
        deep_text_rec(db, c, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monet::MonetDb;
    use ncq_xml::parse;

    fn db() -> MonetDb {
        MonetDb::from_document(
            &parse(
                r#"<bib><article key="BB99"><author>Ben Bit</author>
                   <year>1999</year></article></bib>"#,
            )
            .unwrap(),
        )
    }

    fn find(db: &MonetDb, label: &str) -> Oid {
        db.iter_oids().find(|&o| db.label(o) == label).unwrap()
    }

    #[test]
    fn article_assembles_with_key_and_children() {
        let db = db();
        let art = find(&db, "article");
        let v = ObjectView::assemble(&db, art);
        assert_eq!(v.label, "article");
        assert_eq!(v.attributes, vec![("key".to_string(), "BB99".to_string())]);
        assert_eq!(v.children.len(), 2); // author, year
        assert!(v.text.is_empty());
    }

    #[test]
    fn author_assembles_with_text() {
        let db = db();
        let author = find(&db, "author");
        let v = ObjectView::assemble(&db, author);
        assert_eq!(v.text, "Ben Bit");
        assert!(v.children.is_empty());
        assert!(v.attributes.is_empty());
    }

    #[test]
    fn cdata_node_assembles_to_its_string() {
        let db = db();
        let cd = db
            .iter_oids()
            .find(|&o| {
                db.label(o) == "cdata" && {
                    let v = ObjectView::assemble(&db, o);
                    v.text == "1999"
                }
            })
            .unwrap();
        let v = ObjectView::assemble(&db, cd);
        assert_eq!(v.text, "1999");
        assert_eq!(v.label, "cdata");
    }

    #[test]
    fn deep_text_concatenates() {
        let db = db();
        let art = find(&db, "article");
        assert_eq!(ObjectView::deep_text(&db, art), "Ben Bit1999");
    }
}
