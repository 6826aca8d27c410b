//! Query-language errors.

use std::fmt;

/// Anything that can go wrong between query text and answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Tokenizer rejected a character.
    Lex {
        /// Byte offset of the offending character.
        offset: usize,
        /// The character.
        found: char,
    },
    /// Parser found an unexpected token.
    Parse {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What was found (token text or `end of input`).
        found: String,
        /// What the parser expected.
        expected: String,
    },
    /// A variable in `select`/`where` is not bound in `from`.
    UnboundVariable {
        /// The variable name.
        name: String,
    },
    /// The same tuple variable was bound twice.
    DuplicateVariable {
        /// The variable name.
        name: String,
    },
    /// Projection result exceeded the configured row limit — the
    /// "combinatorial explosion" the paper warns about.
    RowLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A `within`/`excluding`/`only` modifier on a projection query.
    ModifierWithoutMeet,
    /// `limit 0` — a query that can never return anything is almost
    /// certainly a mistake, so it is rejected up front.
    InvalidLimit,
    /// A numeric literal too large for the host (`within`/`limit`
    /// arguments are `usize`).
    NumberOverflow {
        /// Byte offset of the literal.
        offset: usize,
    },
    /// The query addressed a corpus the backend does not serve (or the
    /// backend serves no named corpora at all).
    UnknownCorpus {
        /// The requested corpus name.
        name: String,
    },
    /// The execution backend failed — a remote replica set became
    /// unavailable mid-query. The query itself is fine; re-issuing it
    /// once a replica recovers is safe.
    Backend {
        /// The backend's typed failure, rendered.
        detail: String,
    },
}

impl From<ncq_core::BackendError> for QueryError {
    fn from(e: ncq_core::BackendError) -> QueryError {
        QueryError::Backend {
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { offset, found } => {
                write!(f, "unexpected character {found:?} at byte {offset}")
            }
            QueryError::Parse {
                offset,
                found,
                expected,
            } => write!(f, "expected {expected}, found {found} at byte {offset}"),
            QueryError::UnboundVariable { name } => {
                write!(f, "variable {name:?} is not bound in the from clause")
            }
            QueryError::DuplicateVariable { name } => {
                write!(f, "variable {name:?} is bound more than once")
            }
            QueryError::RowLimitExceeded { limit } => write!(
                f,
                "projection exceeded {limit} rows (combinatorial explosion); refine the query or use meet()"
            ),
            QueryError::ModifierWithoutMeet => {
                write!(f, "within/excluding/only modifiers require a meet(...) select")
            }
            QueryError::InvalidLimit => {
                write!(f, "limit must be at least 1 (limit 0 can never return an answer)")
            }
            QueryError::NumberOverflow { offset } => {
                write!(f, "numeric literal at byte {offset} is too large")
            }
            QueryError::UnknownCorpus { name } => {
                write!(f, "unknown corpus {name:?} (this backend serves no corpus of that name)")
            }
            QueryError::Backend { detail } => {
                write!(f, "backend failed: {detail}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(QueryError, &str)> = vec![
            (
                QueryError::UnboundVariable { name: "t9".into() },
                "not bound",
            ),
            (QueryError::InvalidLimit, "at least 1"),
            (QueryError::RowLimitExceeded { limit: 7 }, "explosion"),
            (QueryError::ModifierWithoutMeet, "meet"),
            (
                QueryError::UnknownCorpus {
                    name: "dblp".into(),
                },
                "unknown corpus",
            ),
            (
                QueryError::Backend {
                    detail: "replica set down".into(),
                },
                "backend failed",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
