//! A byte cursor over the source text.
//!
//! The parser is byte-oriented: XML markup is pure ASCII, and UTF-8
//! multi-byte sequences can only occur inside names, text and attribute
//! values, where they are copied through verbatim. The cursor keeps a
//! byte offset and nothing else; the line and column of an offset are
//! counted when an error is built ([`Cursor::position_at`]), not on every
//! byte of a well-formed document.

use crate::error::Position;

/// Read head over the input string.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    src: &'a str,
    offset: usize,
}

impl<'a> Cursor<'a> {
    /// Create a cursor at the start of `src`.
    pub fn new(src: &'a str) -> Cursor<'a> {
        Cursor { src, offset: 0 }
    }

    /// Current position (for error reporting).
    pub fn position(&self) -> Position {
        self.position_at(self.offset)
    }

    /// Line and column of a byte offset: one pass over the bytes before
    /// it, so only for building an error.
    pub fn position_at(&self, offset: usize) -> Position {
        let before = &self.src.as_bytes()[..offset];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        Position {
            line: 1 + before.iter().filter(|&&b| b == b'\n').count() as u32,
            column: (offset - line_start + 1) as u32,
            offset,
        }
    }

    /// Whether the whole input has been consumed.
    pub fn is_eof(&self) -> bool {
        self.offset >= self.src.len()
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Look at the current byte without consuming it.
    pub fn peek(&self) -> Option<u8> {
        self.peek_at(0)
    }

    /// Look `n` bytes ahead of the current byte.
    pub fn peek_at(&self, n: usize) -> Option<u8> {
        self.src.as_bytes().get(self.offset + n).copied()
    }

    /// Consume and return the current byte.
    pub fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.offset += 1;
        Some(b)
    }

    /// Whether the remaining input starts with `prefix`.
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.rest().starts_with(prefix)
    }

    /// Consume `prefix` if the input starts with it; report success.
    pub fn eat(&mut self, prefix: &str) -> bool {
        let found = self.starts_with(prefix);
        if found {
            self.offset += prefix.len();
        }
        found
    }

    /// Consume bytes while `pred` holds; return the consumed slice.
    pub fn eat_while(&mut self, mut pred: impl FnMut(u8) -> bool) -> &'a str {
        let rest = self.rest();
        let len = rest.bytes().position(|b| !pred(b)).unwrap_or(rest.len());
        self.offset += len;
        &rest[..len]
    }

    /// Skip ASCII whitespace; return how many bytes were skipped.
    pub fn skip_whitespace(&mut self) -> usize {
        self.eat_while(|b| b.is_ascii_whitespace()).len()
    }

    /// Consume everything up to (but not including) `needle`, returning the
    /// consumed slice, or `None` if `needle` never occurs.
    pub fn eat_until(&mut self, needle: &str) -> Option<&'a str> {
        let rest = self.rest();
        let len = rest.find(needle)?;
        self.offset += len;
        Some(&rest[..len])
    }

    /// The remaining unconsumed input (for diagnostics and tests).
    pub fn rest(&self) -> &'a str {
        &self.src[self.offset..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_tracks_lines_and_columns() {
        let mut c = Cursor::new("ab\ncd");
        assert_eq!(c.position().line, 1);
        c.bump(); // a
        c.bump(); // b
        assert_eq!(c.position().column, 3);
        c.bump(); // \n
        assert_eq!(c.position().line, 2);
        assert_eq!(c.position().column, 1);
        c.bump(); // c
        assert_eq!(c.position().column, 2);
    }

    #[test]
    fn position_at_counts_from_the_start() {
        let c = Cursor::new("ab\n\ncd\n");
        let at = |offset| {
            let p = c.position_at(offset);
            (p.line, p.column, p.offset)
        };
        assert_eq!(at(0), (1, 1, 0));
        assert_eq!(at(2), (1, 3, 2)); // the newline itself
        assert_eq!(at(3), (2, 1, 3));
        assert_eq!(at(5), (3, 2, 5));
        assert_eq!(at(7), (4, 1, 7)); // end of input
    }

    #[test]
    fn eat_consumes_only_on_match() {
        let mut c = Cursor::new("<?xml?>");
        assert!(!c.eat("<!"));
        assert_eq!(c.offset(), 0);
        assert!(c.eat("<?xml"));
        assert_eq!(c.rest(), "?>");
    }

    #[test]
    fn eat_while_stops_at_predicate_boundary() {
        let mut c = Cursor::new("name>rest");
        let name = c.eat_while(|b| b != b'>');
        assert_eq!(name, "name");
        assert_eq!(c.peek(), Some(b'>'));
    }

    #[test]
    fn eat_until_finds_needle() {
        let mut c = Cursor::new("hello]]>tail");
        let before = c.eat_until("]]>").unwrap();
        assert_eq!(before, "hello");
        assert!(c.starts_with("]]>"));
    }

    #[test]
    fn eat_until_missing_needle_returns_none() {
        let mut c = Cursor::new("no terminator");
        assert!(c.eat_until("]]>").is_none());
        // Cursor must be unmoved on failure.
        assert_eq!(c.offset(), 0);
    }

    #[test]
    fn skip_whitespace_counts_bytes() {
        let mut c = Cursor::new("  \t\nx");
        assert_eq!(c.skip_whitespace(), 4);
        assert_eq!(c.peek(), Some(b'x'));
        assert_eq!(c.skip_whitespace(), 0);
    }

    #[test]
    fn peek_at_looks_ahead() {
        let c = Cursor::new("abc");
        assert_eq!(c.peek_at(0), Some(b'a'));
        assert_eq!(c.peek_at(2), Some(b'c'));
        assert_eq!(c.peek_at(3), None);
    }
}
