//! Tokenizer for the query dialect.

use crate::error::QueryError;

/// A token with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification and payload.
    pub kind: TokenKind,
    /// Byte offset in the source.
    pub offset: usize,
}

/// Token kinds. Keywords are recognized case-insensitively and carried as
/// [`TokenKind::Word`]s; the parser decides which words are keywords so
/// that tag names like `meet` remain usable in paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Bare word: keyword, variable or tag name.
    Word(String),
    /// `$name` — tag variable.
    TagVar(String),
    /// `@name` — attribute step.
    AttrName(String),
    /// `'...'` or `"..."` string literal.
    Str(String),
    /// Integer literal.
    Number(usize),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `/`.
    Slash,
    /// `*`.
    Star,
    /// `%`.
    Percent,
}

/// Tokenize the whole query.
pub fn lex(src: &str) -> Result<Vec<Token>, QueryError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        let offset = i;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    offset,
                });
                i += 1;
            }
            b')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    offset,
                });
                i += 1;
            }
            b',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    offset,
                });
                i += 1;
            }
            b'/' => {
                out.push(Token {
                    kind: TokenKind::Slash,
                    offset,
                });
                i += 1;
            }
            b'*' => {
                out.push(Token {
                    kind: TokenKind::Star,
                    offset,
                });
                i += 1;
            }
            b'%' => {
                out.push(Token {
                    kind: TokenKind::Percent,
                    offset,
                });
                i += 1;
            }
            b'$' | b'@' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && is_word_byte(bytes[j]) {
                    j += 1;
                }
                if j == start {
                    return Err(QueryError::Lex {
                        offset,
                        found: b as char,
                    });
                }
                let name = src[start..j].to_owned();
                out.push(Token {
                    kind: if b == b'$' {
                        TokenKind::TagVar(name)
                    } else {
                        TokenKind::AttrName(name)
                    },
                    offset,
                });
                i = j;
            }
            b'\'' | b'"' => {
                // Inside the literal a doubled quote stands for one.
                let quote = b as char;
                let mut text = String::new();
                let mut j = i + 1;
                loop {
                    let Some(len) = src[j..].find(quote) else {
                        return Err(QueryError::Lex {
                            offset,
                            found: quote,
                        });
                    };
                    text.push_str(&src[j..j + len]);
                    j += len + 1;
                    if bytes.get(j) != Some(&b) {
                        break;
                    }
                    text.push(quote);
                    j += 1;
                }
                out.push(Token {
                    kind: TokenKind::Str(text),
                    offset,
                });
                i = j;
            }
            b'0'..=b'9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                // A pure digit run can only fail to parse by overflow.
                let n: usize = src[i..j]
                    .parse()
                    .map_err(|_| QueryError::NumberOverflow { offset })?;
                out.push(Token {
                    kind: TokenKind::Number(n),
                    offset,
                });
                i = j;
            }
            _ if is_word_start(b) => {
                let mut j = i;
                while j < bytes.len() && is_word_byte(bytes[j]) {
                    j += 1;
                }
                out.push(Token {
                    kind: TokenKind::Word(src[i..j].to_owned()),
                    offset,
                });
                i = j;
            }
            _ => {
                return Err(QueryError::Lex {
                    offset,
                    found: src[i..].chars().next().unwrap_or('\0'),
                })
            }
        }
    }
    Ok(out)
}

fn is_word_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_and_punctuation() {
        assert_eq!(
            kinds("select meet(t1, t2)"),
            vec![
                TokenKind::Word("select".into()),
                TokenKind::Word("meet".into()),
                TokenKind::LParen,
                TokenKind::Word("t1".into()),
                TokenKind::Comma,
                TokenKind::Word("t2".into()),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn paths_with_wildcards() {
        assert_eq!(
            kinds("bibliography/%/$T/@key/*"),
            vec![
                TokenKind::Word("bibliography".into()),
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Slash,
                TokenKind::TagVar("T".into()),
                TokenKind::Slash,
                TokenKind::AttrName("key".into()),
                TokenKind::Slash,
                TokenKind::Star,
            ]
        );
    }

    #[test]
    fn string_literals_both_quote_styles() {
        // Inside a literal a doubled quote is one quote.
        assert_eq!(
            kinds(r#"'Ben Bit' "19 99" 'it''s' "say ""hi""" '' """#),
            vec![
                TokenKind::Str("Ben Bit".into()),
                TokenKind::Str("19 99".into()),
                TokenKind::Str("it's".into()),
                TokenKind::Str(r#"say "hi""#.into()),
                TokenKind::Str(String::new()),
                TokenKind::Str(String::new()),
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("within 12"),
            vec![TokenKind::Word("within".into()), TokenKind::Number(12),]
        );
    }

    #[test]
    fn offsets_point_into_source() {
        let toks = lex("a  'x'").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(matches!(lex("'open"), Err(QueryError::Lex { .. })));
        assert!(matches!(lex("'it''s"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn bare_sigil_is_an_error() {
        assert!(matches!(lex("$ "), Err(QueryError::Lex { .. })));
        assert!(matches!(lex("@,"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn stray_characters_are_errors() {
        assert!(matches!(lex("a ; b"), Err(QueryError::Lex { .. })));
    }
}
