//! Serialize a [`Document`] back to XML text.

use crate::escape::{escape_attribute, escape_text};
use crate::tree::{Document, NodeId, NodeKind};
use std::fmt::Write as _;

/// Serialization knobs for [`write_document`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Pretty-print with this many spaces per depth level; `None` writes
    /// the document without any inserted whitespace (lossless with respect
    /// to the tree model — pretty printing adds whitespace text that a
    /// whitespace-dropping parse removes again).
    pub indent: Option<usize>,
    /// Emit an `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    pub declaration: bool,
}

/// Serialize the whole document.
pub fn write_document(doc: &Document, options: WriteOptions) -> String {
    let mut out = String::with_capacity(doc.len() * 16);
    if options.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if options.indent.is_some() {
            out.push('\n');
        }
    }
    write_node(doc, doc.root(), options, 0, &mut out);
    out
}

fn write_node(doc: &Document, node: NodeId, options: WriteOptions, depth: usize, out: &mut String) {
    match doc.kind(node) {
        NodeKind::Text(s) => {
            indent(options, depth, out);
            out.push_str(&escape_text(s));
        }
        NodeKind::Element(_) => {
            let tag = doc.tag_name(node).expect("element has a tag");
            indent(options, depth, out);
            out.push('<');
            out.push_str(tag);
            for attr in doc.attributes(node) {
                let name = doc.symbols().resolve(attr.name);
                let _ = write!(out, " {}=\"{}\"", name, escape_attribute(attr.value));
            }
            if doc.children(node).next().is_none() {
                out.push_str("/>");
            } else {
                out.push('>');
                // Mixed content (any text child) suppresses indentation for
                // the element body so text round-trips byte-exactly.
                let mixed = doc.children(node).any(|c| doc.text(c).is_some());
                let child_opts = if mixed {
                    WriteOptions {
                        indent: None,
                        ..options
                    }
                } else {
                    options
                };
                for c in doc.children(node) {
                    write_node(doc, c, child_opts, depth + 1, out);
                }
                indent(child_opts, depth, out);
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
    }
}

fn indent(options: WriteOptions, depth: usize, out: &mut String) {
    if let Some(width) = options.indent {
        if !out.is_empty() {
            out.push('\n');
        }
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_writer_round_trips() {
        let src = r#"<a x="1"><b>text &amp; more</b><c/></a>"#;
        let doc = parse(src).unwrap();
        let written = write_document(&doc, WriteOptions::default());
        assert_eq!(written, src);
    }

    #[test]
    fn empty_elements_use_self_closing_form() {
        let doc = parse("<a></a>").unwrap();
        assert_eq!(write_document(&doc, WriteOptions::default()), "<a/>");
    }

    #[test]
    fn declaration_is_emitted_on_request() {
        let doc = parse("<a/>").unwrap();
        let s = write_document(
            &doc,
            WriteOptions {
                indent: None,
                declaration: true,
            },
        );
        assert_eq!(s, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    }

    #[test]
    fn pretty_printing_indents_element_only_content() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let s = write_document(
            &doc,
            WriteOptions {
                indent: Some(2),
                declaration: false,
            },
        );
        assert_eq!(s, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
    }

    #[test]
    fn pretty_printing_keeps_mixed_content_inline() {
        let doc = parse("<a><b>hi</b></a>").unwrap();
        let s = write_document(
            &doc,
            WriteOptions {
                indent: Some(2),
                declaration: false,
            },
        );
        assert_eq!(s, "<a>\n  <b>hi</b>\n</a>");
    }

    #[test]
    fn pretty_printed_output_reparses_to_same_tree() {
        let src =
            r#"<bib><article key="k"><title>T &lt; U</title><year>1999</year></article></bib>"#;
        let doc = parse(src).unwrap();
        let pretty = write_document(
            &doc,
            WriteOptions {
                indent: Some(4),
                declaration: true,
            },
        );
        let doc2 = parse(&pretty).unwrap();
        assert!(doc.structural_eq(&doc2));
    }

    #[test]
    fn attribute_specials_are_escaped() {
        let mut doc = crate::tree::Document::new("a");
        let root = doc.root();
        doc.set_attribute(root, "v", "a\"b<c>&\n\t");
        let s = write_document(&doc, WriteOptions::default());
        assert_eq!(s, "<a v=\"a&quot;b&lt;c&gt;&amp;&#10;&#9;\"/>");
        let back = parse(&s).unwrap();
        assert_eq!(back.attribute(back.root(), "v"), Some("a\"b<c>&\n\t"));
    }
}
