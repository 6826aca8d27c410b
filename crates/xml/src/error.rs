//! Parse errors with source positions.

use std::fmt;

/// Position inside the source text (1-based line/column, 0-based byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes within the line).
    pub column: u32,
    /// 0-based byte offset from the start of the input.
    pub offset: usize,
}

impl Position {
    /// The position of the first byte.
    pub fn start() -> Position {
        Position {
            line: 1,
            column: 1,
            offset: 0,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was in the middle of.
        while_parsing: &'static str,
    },
    /// A tag or attribute name started with an illegal character.
    InvalidName {
        /// The offending byte, if any.
        found: Option<char>,
    },
    /// `</a>` closed `<b>`.
    MismatchedClosingTag {
        /// The open element's name.
        expected: String,
        /// The name found in the closing tag.
        found: String,
    },
    /// A closing tag appeared with no element open.
    UnexpectedClosingTag {
        /// The name found in the stray closing tag.
        found: String,
    },
    /// An entity reference could not be decoded.
    InvalidEntity {
        /// The raw entity text, without `&`/`;`.
        entity: String,
    },
    /// A character that may not appear here.
    UnexpectedChar {
        /// The offending character.
        found: char,
        /// What was expected instead.
        expected: &'static str,
    },
    /// Document has content after the root element closed.
    TrailingContent,
    /// Document has more than one root element.
    MultipleRoots,
    /// Document contains no root element at all.
    NoRootElement,
    /// The same attribute appeared twice on one element.
    DuplicateAttribute {
        /// The repeated attribute name.
        name: String,
    },
    /// The source is longer than the tree's `u32` offsets can address.
    DocumentTooLarge {
        /// Length of the source in bytes.
        bytes: usize,
    },
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnexpectedEof { while_parsing } => {
                write!(f, "unexpected end of input while parsing {while_parsing}")
            }
            ParseErrorKind::InvalidName { found: Some(c) } => {
                write!(f, "invalid name starting with {c:?}")
            }
            ParseErrorKind::InvalidName { found: None } => write!(f, "empty name"),
            ParseErrorKind::MismatchedClosingTag { expected, found } => {
                write!(f, "closing tag </{found}> does not match open <{expected}>")
            }
            ParseErrorKind::UnexpectedClosingTag { found } => {
                write!(f, "closing tag </{found}> with no element open")
            }
            ParseErrorKind::InvalidEntity { entity } => {
                write!(f, "unknown or malformed entity &{entity};")
            }
            ParseErrorKind::UnexpectedChar { found, expected } => {
                write!(f, "unexpected character {found:?}, expected {expected}")
            }
            ParseErrorKind::TrailingContent => write!(f, "content after the root element"),
            ParseErrorKind::MultipleRoots => write!(f, "more than one root element"),
            ParseErrorKind::NoRootElement => write!(f, "no root element found"),
            ParseErrorKind::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute {name:?}")
            }
            ParseErrorKind::DocumentTooLarge { bytes } => {
                let limit = u32::MAX;
                write!(
                    f,
                    "document of {bytes} bytes exceeds the {limit} the tree can address"
                )
            }
        }
    }
}

/// A parse error, locating the problem inside the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Classification and details.
    pub kind: ParseErrorKind,
    /// Where the problem was detected.
    pub position: Position,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.position)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_position() {
        let e = ParseError {
            kind: ParseErrorKind::TrailingContent,
            position: Position {
                line: 3,
                column: 7,
                offset: 42,
            },
        };
        assert_eq!(e.to_string(), "content after the root element at 3:7");
    }

    #[test]
    fn display_mismatched_tag() {
        let k = ParseErrorKind::MismatchedClosingTag {
            expected: "a".into(),
            found: "b".into(),
        };
        assert_eq!(k.to_string(), "closing tag </b> does not match open <a>");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        let e = ParseError {
            kind: ParseErrorKind::NoRootElement,
            position: Position::start(),
        };
        takes_err(&e);
    }
}
