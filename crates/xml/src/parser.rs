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
    check_size(src.len())?;
    Parser {
        cursor: Cursor::new(src.strip_prefix('\u{feff}').unwrap_or(src)),
        options,
        value: String::new(),
        carried_by: Vec::new(),
    }
    .parse_document()
}

/// The node, attribute and text counters of a [`Document`] are `u32`.
/// Each is bounded by the length of the source — a node and an attribute
/// take at least a byte of markup each, and an entity never decodes to
/// more bytes than it occupies — so refusing a longer source up front
/// keeps every counter on the parser path in range.
fn check_size(bytes: usize) -> Result<(), ParseError> {
    match u32::try_from(bytes) {
        Ok(_) => Ok(()),
        Err(_) => Err(ParseError {
            kind: ParseErrorKind::DocumentTooLarge { bytes },
            position: Position::start(),
        }),
    }
}

struct Parser<'a> {
    cursor: Cursor<'a>,
    options: ParseOptions,
    /// The attribute value being decoded, reused from one to the next.
    value: String,
    /// Per attribute-name symbol, the last element that carried it: a
    /// name met again on the same element is a duplicate, found without
    /// looking at the element's other attributes.
    carried_by: Vec<Option<NodeId>>,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            kind,
            position: self.cursor.position(),
        }
    }

    /// An error at an offset noted earlier.
    fn err_at(&self, kind: ParseErrorKind, offset: usize) -> ParseError {
        ParseError {
            kind,
            position: self.cursor.position_at(offset),
        }
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
        let open = self.cursor.offset();
        if !self.cursor.eat("<") {
            return Err(self.err(ParseErrorKind::NoRootElement));
        }
        let name = self.parse_name()?;
        let mut doc = Document::new(name);
        // Every node still to come ends at a `<` of its own (an element
        // at its close tag or, self-closing, its own tag; a text node at
        // the tag that follows it), every attribute has a `=` of its own
        // and the decoded text is no longer than the source, so these
        // bound the three vectors of the document. Sized once, each is
        // one mapping of its own, resident only as far as it is filled
        // (`Document::reserve` sees to it that dropping it hands the
        // pages back); grown by doubling, it starts as a 100-byte chunk
        // that glibc may hand out from another thread's arena, and then
        // grows there, megabytes that a later `malloc_trim` does not
        // give back.
        let rest = self.cursor.rest();
        let (mut tags, mut assignments) = (0usize, 0usize);
        // Byte-wide counters over chunks they cannot overflow on: the
        // loop the compiler turns into vector compares and adds.
        for chunk in rest.as_bytes().chunks(u8::MAX as usize) {
            let (mut lt, mut eq) = (0u8, 0u8);
            for &b in chunk {
                lt += (b == b'<') as u8;
                eq += (b == b'=') as u8;
            }
            tags += lt as usize;
            assignments += eq as usize;
        }
        doc.reserve(tags, assignments, rest.len());
        let root = doc.root();
        let self_closing = self.parse_attributes(&mut doc, root)?;
        if !self_closing {
            self.parse_content(&mut doc, root, name, open)?;
        }
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
        open_name: &'a str,
        open: usize,
    ) -> Result<(), ParseError> {
        // The open elements: (node, name, offset of the open tag), the
        // name borrowed from the source.
        let mut stack: Vec<(NodeId, &'a str, usize)> = vec![(open_node, open_name, open)];
        // The character data met since the last tag, decoded; reused
        // from one text node to the next.
        let mut text = String::new();

        while let Some(&(parent, parent_name, parent_open)) = stack.last() {
            match self.cursor.peek() {
                None => {
                    let while_parsing = "element content";
                    let kind = ParseErrorKind::UnexpectedEof { while_parsing };
                    return Err(self.err_at(kind, parent_open));
                }
                Some(b'<') => {}
                Some(_) => {
                    let chunk = self.cursor.eat_while(|b| b != b'<' && b != b'&');
                    if self.cursor.peek() == Some(b'&') {
                        text.push_str(chunk);
                        text.push(self.parse_entity()?);
                    } else if text.is_empty() && !self.cursor.starts_with("<![CDATA[") {
                        // The whole text node is one slice of the source.
                        self.add_text(doc, parent, chunk);
                    } else {
                        text.push_str(chunk);
                    }
                    continue;
                }
            }
            let second = self.cursor.peek_at(1);
            if second == Some(b'!') && self.cursor.eat("<![CDATA[") {
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
                continue;
            }
            // Any other markup ends the text node.
            self.add_text(doc, parent, &text);
            text.clear();
            if second == Some(b'/') {
                // Spelled exactly `</name>`, the tag is three comparisons;
                // anything else takes the general path from its start.
                let start = self.cursor.clone();
                if self.cursor.eat("</") && self.cursor.eat(parent_name) && self.cursor.eat(">") {
                    stack.pop();
                    continue;
                }
                self.cursor = start;
                self.cursor.eat("</");
                let name = self.parse_name()?;
                if name != parent_name {
                    return Err(self.err(ParseErrorKind::MismatchedClosingTag {
                        expected: parent_name.to_owned(),
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
                self.skip_comment()?;
            } else if second == Some(b'?') {
                self.skip_pi()?;
            } else {
                let child_open = self.cursor.offset();
                self.cursor.eat("<");
                let name = self.parse_name()?;
                let child = doc.add_element(parent, name);
                let self_closing = self.parse_attributes(doc, child)?;
                if !self_closing {
                    stack.push((child, name, child_open));
                }
            }
        }
        Ok(())
    }

    /// One text node from the character data between two tags, unless
    /// the options drop it.
    fn add_text(&self, doc: &mut Document, parent: NodeId, text: &str) {
        let keep = self.options.keep_whitespace_text || !text.chars().all(char::is_whitespace);
        let body = match self.options.trim_text {
            true => text.trim(),
            false => text,
        };
        if keep && !body.is_empty() {
            doc.add_text(parent, body);
        }
    }

    fn parse_entity(&mut self) -> Result<char, ParseError> {
        let pos = self.cursor.offset();
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
                    let name_at = self.cursor.offset();
                    let name = self.parse_name()?;
                    let symbol = doc.intern(name);
                    if self.carried_by.len() <= symbol.index() {
                        self.carried_by.resize(symbol.index() + 1, None);
                    }
                    if self.carried_by[symbol.index()].replace(node) == Some(node) {
                        let name = name.to_owned();
                        return Err(
                            self.err_at(ParseErrorKind::DuplicateAttribute { name }, name_at)
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
                    self.parse_attribute_value()?;
                    doc.push_attribute(node, symbol, &self.value);
                }
            }
        }
    }

    /// Decode a quoted attribute value into `self.value`.
    fn parse_attribute_value(&mut self) -> Result<(), ParseError> {
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
        self.value.clear();
        loop {
            let chunk = self
                .cursor
                .eat_while(|b| b != quote && b != b'&' && b != b'<');
            self.value.push_str(chunk);
            match self.cursor.peek() {
                Some(b) if b == quote => {
                    self.cursor.bump();
                    return Ok(());
                }
                Some(b'&') => {
                    let c = self.parse_entity()?;
                    self.value.push(c);
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
        let kids: Vec<NodeId> = d.children(d.root()).collect();
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
        assert_eq!(d.children(d.root()).count(), 1);
        assert_eq!(d.deep_text(d.root()), "premidpost");
    }

    #[test]
    fn whitespace_only_text_is_dropped_by_default() {
        let d = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(d.children(d.root()).count(), 2);
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
        assert_eq!(d.children(d.root()).count(), 3);
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
        assert_eq!(d.children(d.root()).count(), 2);
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
    fn duplicate_attribute_is_found_per_element() {
        // The same names on a parent, its child and its sibling are fine.
        let d = parse(r#"<a x="1" y="2"><b x="3"><c y="4" x="5"/></b><b x="6"/></a>"#).unwrap();
        assert_eq!(d.attribute(d.root(), "x"), Some("1"));
        // A repeat after another element used the name in between.
        let e = parse("<a x='1'><b x='2'/></a><!-- -->").map(|_| ());
        assert_eq!(e, Ok(()));
        let e = parse("<a>\n<b x='1' y='2'\n   x='3'/></a>").unwrap_err();
        assert_eq!(
            e.kind,
            ParseErrorKind::DuplicateAttribute { name: "x".into() }
        );
        assert_eq!((e.position.line, e.position.column), (3, 4));
        assert_eq!(e.position.offset, 22);
    }

    #[test]
    fn a_source_the_offsets_cannot_address_is_refused() {
        assert_eq!(check_size(0), Ok(()));
        assert_eq!(check_size(u32::MAX as usize), Ok(()));
        let e = check_size(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::DocumentTooLarge { bytes: 1 << 32 });
        assert_eq!(e.position, Position::start());
        assert_eq!(
            e.to_string(),
            "document of 4294967296 bytes exceeds the 4294967295 the tree can address at 1:1"
        );
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
        let title2 = d.children(arts[1]).nth(1).unwrap();
        assert_eq!(d.deep_text(title2), "Hacking & RSI");
    }

    #[test]
    fn text_kind_matches() {
        let d = parse("<a>t</a>").unwrap();
        let t = d.children(d.root()).next().unwrap();
        assert!(matches!(d.kind(t), NodeKind::Text(s) if s == "t"));
        assert_eq!(d.text(t), Some("t"));
        assert_eq!(d.tag_name(t), None);
    }
}
