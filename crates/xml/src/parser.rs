//! Recursive-descent XML parser producing a [`Document`].
//!
//! The parser is hand written against [`Cursor`] and supports the subset
//! documented in the crate root. It is strict about well-formedness
//! (matching tags, single root, attribute quoting, valid entities) because
//! the bulk loader in `ncq-store` assumes a well-formed tree.

use crate::cursor::Cursor;
use crate::error::{ParseError, ParseErrorKind, Position};
use crate::escape::decode_entity;
use crate::tree::{Document, NodeId};

/// Knobs for [`parse_with_options`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions {
    /// Keep text nodes that consist solely of whitespace. Defaults to
    /// `false`: data-oriented XML (bibliographies, feature files) uses
    /// whitespace purely for indentation, and the paper's data model has no
    /// use for it.
    pub keep_whitespace_text: bool,
    /// Trim leading/trailing whitespace of retained text nodes. Defaults to
    /// `false` so that mixed content round-trips unchanged.
    pub trim_text: bool,
}

/// Parse with default [`ParseOptions`].
pub fn parse(src: &str) -> Result<Document, ParseError> {
    parse_with_options(src, ParseOptions::default())
}

/// Parse `src` into a [`Document`].
pub fn parse_with_options(src: &str, options: ParseOptions) -> Result<Document, ParseError> {
    Parser {
        cursor: Cursor::new(src.strip_prefix('\u{feff}').unwrap_or(src)),
        options,
    }
    .parse_document()
}

struct Parser<'a> {
    cursor: Cursor<'a>,
    options: ParseOptions,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            kind,
            position: self.cursor.position(),
        }
    }

    fn err_at(&self, kind: ParseErrorKind, position: Position) -> ParseError {
        ParseError { kind, position }
    }

    fn parse_document(mut self) -> Result<Document, ParseError> {
        self.skip_misc()?;
        if self.cursor.is_eof() {
            return Err(self.err(ParseErrorKind::NoRootElement));
        }
        if !self.cursor.starts_with("<") {
            return Err(self.err(ParseErrorKind::UnexpectedChar {
                found: self.cursor.rest().chars().next().unwrap_or('\0'),
                expected: "'<' starting the root element",
            }));
        }
        let doc = self.parse_root()?;
        self.skip_misc()?;
        if !self.cursor.is_eof() {
            return Err(self.err(ParseErrorKind::TrailingContent));
        }
        Ok(doc)
    }

    /// Skip whitespace, comments, processing instructions, the XML
    /// declaration and DOCTYPE — everything allowed around the root.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.cursor.skip_whitespace();
            if self.cursor.starts_with("<?") {
                self.skip_pi()?;
            } else if self.cursor.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.cursor.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.cursor.starts_with("<?"));
        self.cursor.eat("<?");
        if self.cursor.eat_until("?>").is_none() {
            return Err(self.err(ParseErrorKind::UnexpectedEof {
                while_parsing: "processing instruction",
            }));
        }
        self.cursor.eat("?>");
        Ok(())
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.cursor.starts_with("<!--"));
        self.cursor.eat("<!--");
        if self.cursor.eat_until("-->").is_none() {
            return Err(self.err(ParseErrorKind::UnexpectedEof {
                while_parsing: "comment",
            }));
        }
        self.cursor.eat("-->");
        Ok(())
    }

    /// Skip `<!DOCTYPE … >` with an optional `[ … ]` internal subset.
    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.cursor.eat("<!DOCTYPE");
        let mut bracket_depth = 0usize;
        loop {
            match self.cursor.bump() {
                None => {
                    return Err(self.err(ParseErrorKind::UnexpectedEof {
                        while_parsing: "DOCTYPE declaration",
                    }))
                }
                Some(b'[') => bracket_depth += 1,
                Some(b']') => bracket_depth = bracket_depth.saturating_sub(1),
                Some(b'>') if bracket_depth == 0 => return Ok(()),
                Some(_) => {}
            }
        }
    }

    fn parse_root(&mut self) -> Result<Document, ParseError> {
        // The root start tag gives the Document its root label.
        let open_pos = self.cursor.position();
        if !self.cursor.eat("<") {
            return Err(self.err(ParseErrorKind::NoRootElement));
        }
        let name = self.parse_name()?;
        let mut doc = Document::new(name);
        // Every node still to come ends at a `<` of its own (an element
        // at its close tag or, self-closing, its own tag; a text node at
        // the tag that follows it), so the count bounds the node arena.
        // Sized once, it is one mapping of its own; grown by doubling, it
        // starts as a 100-byte chunk that glibc may hand out from another
        // thread's arena, and then grows there, megabytes that a later
        // `malloc_trim` does not give back.
        doc.reserve_nodes(self.cursor.rest().bytes().filter(|&b| b == b'<').count());
        let root = doc.root();
        let name = name.to_owned();
        let self_closing = self.parse_attributes(&mut doc, root)?;
        if self_closing {
            return Ok(doc);
        }
        self.parse_content(&mut doc, root, &name, open_pos)?;
        Ok(doc)
    }

    /// Parse element content until the matching close tag of `open_name`.
    ///
    /// Implemented with an explicit stack so that arbitrarily deep
    /// documents (the multimedia corpus nests hundreds of levels) cannot
    /// overflow the call stack.
    fn parse_content(
        &mut self,
        doc: &mut Document,
        open_node: NodeId,
        open_name: &str,
        open_pos: Position,
    ) -> Result<(), ParseError> {
        // Stack of (node, name, position-of-open-tag).
        let mut stack: Vec<(NodeId, String, Position)> =
            vec![(open_node, open_name.to_owned(), open_pos)];
        let mut text = String::new();

        macro_rules! flush_text {
            ($parent:expr) => {
                if !text.is_empty() {
                    let keep = self.options.keep_whitespace_text
                        || !text.chars().all(|c| c.is_whitespace());
                    if keep {
                        let body = if self.options.trim_text {
                            text.trim().to_owned()
                        } else {
                            std::mem::take(&mut text)
                        };
                        if !body.is_empty() {
                            doc.add_text($parent, body);
                        }
                    }
                    text.clear();
                }
            };
        }

        while let Some((parent, parent_name, parent_pos)) = stack.last().cloned() {
            if self.cursor.is_eof() {
                return Err(self.err_at(
                    ParseErrorKind::UnexpectedEof {
                        while_parsing: "element content",
                    },
                    parent_pos,
                ));
            }
            if self.cursor.starts_with("</") {
                flush_text!(parent);
                self.cursor.eat("</");
                let name = self.parse_name()?;
                if name != parent_name {
                    return Err(self.err(ParseErrorKind::MismatchedClosingTag {
                        expected: parent_name,
                        found: name.to_owned(),
                    }));
                }
                self.cursor.skip_whitespace();
                if !self.cursor.eat(">") {
                    return Err(self.err(ParseErrorKind::UnexpectedChar {
                        found: self.cursor.rest().chars().next().unwrap_or('\0'),
                        expected: "'>' ending the closing tag",
                    }));
                }
                stack.pop();
            } else if self.cursor.starts_with("<!--") {
                flush_text!(parent);
                self.skip_comment()?;
            } else if self.cursor.starts_with("<![CDATA[") {
                self.cursor.eat("<![CDATA[");
                match self.cursor.eat_until("]]>") {
                    Some(body) => {
                        text.push_str(body);
                        self.cursor.eat("]]>");
                    }
                    None => {
                        return Err(self.err(ParseErrorKind::UnexpectedEof {
                            while_parsing: "CDATA section",
                        }))
                    }
                }
            } else if self.cursor.starts_with("<?") {
                flush_text!(parent);
                self.skip_pi()?;
            } else if self.cursor.starts_with("<") {
                flush_text!(parent);
                let child_pos = self.cursor.position();
                self.cursor.eat("<");
                let name = self.parse_name()?.to_owned();
                let child = doc.add_element(parent, &name);
                let self_closing = self.parse_attributes(doc, child)?;
                if !self_closing {
                    stack.push((child, name, child_pos));
                }
            } else {
                self.parse_text_run(&mut text)?;
            }
        }
        Ok(())
    }

    /// Accumulate character data up to the next `<`, decoding entities.
    fn parse_text_run(&mut self, out: &mut String) -> Result<(), ParseError> {
        loop {
            let chunk = self.cursor.eat_while(|b| b != b'<' && b != b'&');
            out.push_str(chunk);
            match self.cursor.peek() {
                Some(b'&') => {
                    let c = self.parse_entity()?;
                    out.push(c);
                }
                _ => return Ok(()),
            }
        }
    }

    fn parse_entity(&mut self) -> Result<char, ParseError> {
        let pos = self.cursor.position();
        self.cursor.eat("&");
        let body = self
            .cursor
            .eat_while(|b| b != b';' && b != b'<' && b != b'&');
        if !self.cursor.eat(";") {
            return Err(self.err_at(
                ParseErrorKind::InvalidEntity {
                    entity: body.to_owned(),
                },
                pos,
            ));
        }
        decode_entity(body).ok_or_else(|| {
            self.err_at(
                ParseErrorKind::InvalidEntity {
                    entity: body.to_owned(),
                },
                pos,
            )
        })
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let name = self.cursor.eat_while(is_name_byte);
        if name.is_empty() || !is_name_start(name.as_bytes()[0]) {
            return Err(self.err(ParseErrorKind::InvalidName {
                found: name.chars().next(),
            }));
        }
        Ok(name)
    }

    /// Parse attributes and the tag terminator. Returns `true` when the
    /// element was self-closing (`/>`).
    fn parse_attributes(&mut self, doc: &mut Document, node: NodeId) -> Result<bool, ParseError> {
        loop {
            let skipped = self.cursor.skip_whitespace();
            match self.cursor.peek() {
                Some(b'>') => {
                    self.cursor.bump();
                    return Ok(false);
                }
                Some(b'/') => {
                    self.cursor.bump();
                    if !self.cursor.eat(">") {
                        return Err(self.err(ParseErrorKind::UnexpectedChar {
                            found: self.cursor.rest().chars().next().unwrap_or('\0'),
                            expected: "'>' after '/'",
                        }));
                    }
                    return Ok(true);
                }
                None => {
                    return Err(self.err(ParseErrorKind::UnexpectedEof {
                        while_parsing: "start tag",
                    }))
                }
                Some(_) => {
                    if skipped == 0 {
                        return Err(self.err(ParseErrorKind::UnexpectedChar {
                            found: self.cursor.rest().chars().next().unwrap_or('\0'),
                            expected: "whitespace before attribute",
                        }));
                    }
                    let name_pos = self.cursor.position();
                    let name = self.parse_name()?.to_owned();
                    if doc.attribute(node, &name).is_some() {
                        return Err(
                            self.err_at(ParseErrorKind::DuplicateAttribute { name }, name_pos)
                        );
                    }
                    self.cursor.skip_whitespace();
                    if !self.cursor.eat("=") {
                        return Err(self.err(ParseErrorKind::UnexpectedChar {
                            found: self.cursor.rest().chars().next().unwrap_or('\0'),
                            expected: "'=' after attribute name",
                        }));
                    }
                    self.cursor.skip_whitespace();
                    let value = self.parse_attribute_value()?;
                    doc.set_attribute(node, &name, value);
                }
            }
        }
    }

    fn parse_attribute_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.cursor.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            other => {
                return Err(self.err(ParseErrorKind::UnexpectedChar {
                    found: other.map(|b| b as char).unwrap_or('\0'),
                    expected: "quoted attribute value",
                }))
            }
        };
        self.cursor.bump();
        let mut out = String::new();
        loop {
            let chunk = self
                .cursor
                .eat_while(|b| b != quote && b != b'&' && b != b'<');
            out.push_str(chunk);
            match self.cursor.peek() {
                Some(b) if b == quote => {
                    self.cursor.bump();
                    return Ok(out);
                }
                Some(b'&') => {
                    let c = self.parse_entity()?;
                    out.push(c);
                }
                Some(_) => {
                    return Err(self.err(ParseErrorKind::UnexpectedChar {
                        found: '<',
                        expected: "no '<' inside attribute value",
                    }))
                }
                None => {
                    return Err(self.err(ParseErrorKind::UnexpectedEof {
                        while_parsing: "attribute value",
                    }))
                }
            }
        }
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.') || b >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    #[test]
    fn parses_minimal_document() {
        let d = parse("<a/>").unwrap();
        assert_eq!(d.tag_name(d.root()), Some("a"));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn parses_nested_elements_and_text() {
        let d = parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let kids = d.children(d.root());
        assert_eq!(kids.len(), 2);
        assert_eq!(d.tag_name(kids[0]), Some("b"));
        assert_eq!(d.deep_text(d.root()), "helloworld");
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let d = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(d.attribute(d.root(), "x"), Some("1"));
        assert_eq!(d.attribute(d.root(), "y"), Some("two"));
    }

    #[test]
    fn decodes_entities_in_text_and_attributes() {
        let d = parse(r#"<a t="&lt;&amp;&gt;&#65;">x &amp; y&#x21;</a>"#).unwrap();
        assert_eq!(d.attribute(d.root(), "t"), Some("<&>A"));
        assert_eq!(d.deep_text(d.root()), "x & y!");
    }

    #[test]
    fn cdata_sections_become_text() {
        let d = parse("<a><![CDATA[<raw> & stuff]]></a>").unwrap();
        assert_eq!(d.deep_text(d.root()), "<raw> & stuff");
    }

    #[test]
    fn cdata_merges_with_adjacent_text() {
        let d = parse("<a>pre<![CDATA[mid]]>post</a>").unwrap();
        // One single text node.
        assert_eq!(d.children(d.root()).len(), 1);
        assert_eq!(d.deep_text(d.root()), "premidpost");
    }

    #[test]
    fn whitespace_only_text_is_dropped_by_default() {
        let d = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(d.children(d.root()).len(), 2);
    }

    #[test]
    fn whitespace_can_be_kept() {
        let d = parse_with_options(
            "<a> <b/> </a>",
            ParseOptions {
                keep_whitespace_text: true,
                trim_text: false,
            },
        )
        .unwrap();
        assert_eq!(d.children(d.root()).len(), 3);
    }

    #[test]
    fn trim_text_trims() {
        let d = parse_with_options(
            "<a>  padded  </a>",
            ParseOptions {
                keep_whitespace_text: false,
                trim_text: true,
            },
        )
        .unwrap();
        assert_eq!(d.deep_text(d.root()), "padded");
    }

    #[test]
    fn prolog_comments_pis_doctype_are_skipped() {
        let src = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- a comment -->
<!DOCTYPE bib [ <!ELEMENT bib (article*)> ]>
<?target data?>
<bib/>"#;
        let d = parse(src).unwrap();
        assert_eq!(d.tag_name(d.root()), Some("bib"));
    }

    #[test]
    fn comments_inside_content_are_skipped() {
        let d = parse("<a>x<!-- ignore <b> -->y</a>").unwrap();
        // The comment splits the text into two nodes.
        assert_eq!(d.children(d.root()).len(), 2);
        assert_eq!(d.deep_text(d.root()), "xy");
    }

    #[test]
    fn mismatched_tag_is_an_error() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::MismatchedClosingTag { .. }
        ));
    }

    #[test]
    fn unclosed_element_is_an_error() {
        let e = parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_content_is_an_error() {
        let e = parse("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn duplicate_attribute_is_an_error() {
        let e = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::DuplicateAttribute { .. }));
    }

    #[test]
    fn bad_entity_is_an_error() {
        let e = parse("<a>&bogus;</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::InvalidEntity { .. }));
        let e = parse("<a>&unterminated</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::InvalidEntity { .. }));
    }

    #[test]
    fn empty_input_has_no_root() {
        let e = parse("   ").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::NoRootElement));
    }

    #[test]
    fn error_positions_point_at_problem() {
        let e = parse("<a>\n<b></c></b></a>").unwrap_err();
        assert_eq!(e.position.line, 2);
    }

    #[test]
    fn utf8_names_and_text_survive() {
        let d = parse("<café läge=\"süß\">héllo wörld</café>").unwrap();
        assert_eq!(d.tag_name(d.root()), Some("café"));
        assert_eq!(d.attribute(d.root(), "läge"), Some("süß"));
        assert_eq!(d.deep_text(d.root()), "héllo wörld");
    }

    #[test]
    fn bom_is_stripped() {
        let d = parse("\u{feff}<a/>").unwrap();
        assert_eq!(d.tag_name(d.root()), Some("a"));
    }

    #[test]
    fn deep_nesting_does_not_overflow_stack() {
        let depth = 50_000;
        let mut src = String::new();
        for _ in 0..depth {
            src.push_str("<d>");
        }
        src.push_str("leaf");
        for _ in 0..depth {
            src.push_str("</d>");
        }
        let d = parse(&src).unwrap();
        assert_eq!(d.len(), depth + 1);
    }

    #[test]
    fn figure1_document_parses() {
        let src = r#"
<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
    <article key="BK99">
      <author>Bob Byte</author>
      <title>Hacking &amp; RSI</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>"#;
        let d = parse(src).unwrap();
        let arts: Vec<NodeId> = d
            .iter_depth_first()
            .filter(|&n| d.tag_name(n) == Some("article"))
            .collect();
        assert_eq!(arts.len(), 2);
        assert_eq!(d.attribute(arts[0], "key"), Some("BB99"));
        assert_eq!(d.attribute(arts[1], "key"), Some("BK99"));
        let title2 = d.children(arts[1])[1];
        assert_eq!(d.deep_text(title2), "Hacking & RSI");
    }

    #[test]
    fn text_kind_matches() {
        let d = parse("<a>t</a>").unwrap();
        let t = d.children(d.root())[0];
        assert!(matches!(d.kind(t), NodeKind::Text(s) if s == "t"));
        assert_eq!(d.text(t), Some("t"));
        assert_eq!(d.tag_name(t), None);
    }
}
