//! Recursive-descent parser for the query dialect.

use crate::ast::{
    Binding, Condition, MeetModifiers, PathExpr, PathStepExpr, Query, SelectClause, SelectItem,
};
use crate::error::QueryError;
use crate::lexer::{lex, Token, TokenKind};

/// Parse a query string into an AST and validate variable references.
pub fn parse_query(src: &str) -> Result<Query, QueryError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    validate(&q)?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, expected: &str) -> QueryError {
        QueryError::Parse {
            offset: self.offset(),
            found: match self.peek() {
                Some(k) => format!("{k:?}"),
                None => "end of input".to_owned(),
            },
            expected: expected.to_owned(),
        }
    }

    /// Consume a word matching `kw` case-insensitively.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(TokenKind::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(kw))
        }
    }

    fn expect_word(&mut self, what: &str) -> Result<String, QueryError> {
        match self.peek() {
            Some(TokenKind::Word(_)) => match self.advance() {
                Some(TokenKind::Word(w)) => Ok(w),
                _ => unreachable!(),
            },
            _ => Err(self.err(what)),
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> Result<(), QueryError> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn expect_eof(&self) -> Result<(), QueryError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("end of query"))
        }
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        self.expect_keyword("select")?;
        let select = self.select_clause()?;
        self.expect_keyword("from")?;
        let corpus = self.corpus_clause()?;
        let from = self.bindings()?;
        let mut conditions = Vec::new();
        if self.eat_keyword("where") {
            loop {
                conditions.push(self.condition()?);
                if !self.eat_keyword("and") {
                    break;
                }
            }
        }
        let limit = self.limit_clause()?;
        Ok(Query {
            select,
            corpus,
            from,
            conditions,
            limit,
        })
    }

    /// Trailing `limit N`. `limit 0` is a typed error — a query that can
    /// never answer is a mistake, not a request.
    fn limit_clause(&mut self) -> Result<Option<usize>, QueryError> {
        if !self.eat_keyword("limit") {
            return Ok(None);
        }
        match self.advance() {
            Some(TokenKind::Number(0)) => Err(QueryError::InvalidLimit),
            Some(TokenKind::Number(n)) => Ok(Some(n)),
            _ => Err(self.err("a number after limit")),
        }
    }

    /// `corpus(name)` right after `from` addresses a named corpus of a
    /// forest deployment. Only the word `corpus` *followed by `(`* is
    /// the clause — a path whose first tag happens to be `corpus` is
    /// never followed by a parenthesis, so both stay parseable. The
    /// trailing comma is optional.
    fn corpus_clause(&mut self) -> Result<Option<String>, QueryError> {
        let is_clause = matches!(self.peek(), Some(TokenKind::Word(w)) if w.eq_ignore_ascii_case("corpus"))
            && matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::LParen)
            );
        if !is_clause {
            return Ok(None);
        }
        self.pos += 2; // corpus (
        let name = self.expect_word("corpus name")?;
        self.expect_kind(&TokenKind::RParen, ")")?;
        if self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
        }
        Ok(Some(name))
    }

    fn select_clause(&mut self) -> Result<SelectClause, QueryError> {
        // `meet(` starts the aggregate; a bare word `meet` not followed by
        // `(` is an ordinary variable.
        let is_meet = matches!(self.peek(), Some(TokenKind::Word(w)) if w.eq_ignore_ascii_case("meet"))
            && matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::LParen)
            );
        if is_meet {
            self.pos += 2; // meet (
            let mut vars = vec![self.expect_word("variable")?];
            while self.peek() == Some(&TokenKind::Comma) {
                self.pos += 1;
                vars.push(self.expect_word("variable")?);
            }
            self.expect_kind(&TokenKind::RParen, ")")?;
            let mut modifiers = MeetModifiers::default();
            loop {
                if self.eat_keyword("within") {
                    match self.advance() {
                        Some(TokenKind::Number(n)) => modifiers.within = Some(n),
                        _ => return Err(self.err("a number after within")),
                    }
                } else if self.eat_keyword("excluding") {
                    modifiers.excluding.push(self.path_expr()?);
                } else if self.eat_keyword("only") {
                    modifiers.only.push(self.path_expr()?);
                } else {
                    break;
                }
            }
            return Ok(SelectClause::Meet { vars, modifiers });
        }
        let mut items = vec![self.select_item()?];
        while self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
            items.push(self.select_item()?);
        }
        Ok(SelectClause::Projection(items))
    }

    fn select_item(&mut self) -> Result<SelectItem, QueryError> {
        match self.peek() {
            Some(TokenKind::TagVar(_)) => match self.advance() {
                Some(TokenKind::TagVar(v)) => Ok(SelectItem::TagVar(v)),
                _ => unreachable!(),
            },
            Some(TokenKind::Word(_)) => Ok(SelectItem::Var(self.expect_word("select item")?)),
            _ => Err(self.err("variable or $tagvar")),
        }
    }

    fn bindings(&mut self) -> Result<Vec<Binding>, QueryError> {
        let mut out = vec![self.binding()?];
        while self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
            out.push(self.binding()?);
        }
        Ok(out)
    }

    fn binding(&mut self) -> Result<Binding, QueryError> {
        let path = self.path_expr()?;
        self.eat_keyword("as"); // optional
        let var = self.expect_word("binding variable")?;
        Ok(Binding { path, var })
    }

    fn path_expr(&mut self) -> Result<PathExpr, QueryError> {
        let mut steps = vec![self.path_step()?];
        while self.peek() == Some(&TokenKind::Slash) {
            self.pos += 1;
            steps.push(self.path_step()?);
        }
        Ok(PathExpr { steps })
    }

    fn path_step(&mut self) -> Result<PathStepExpr, QueryError> {
        match self.peek() {
            Some(TokenKind::Star) => {
                self.pos += 1;
                Ok(PathStepExpr::AnyOne)
            }
            Some(TokenKind::Percent) => {
                self.pos += 1;
                Ok(PathStepExpr::AnySeq)
            }
            Some(TokenKind::TagVar(_)) => match self.advance() {
                Some(TokenKind::TagVar(v)) => Ok(PathStepExpr::TagVar(v)),
                _ => unreachable!(),
            },
            Some(TokenKind::AttrName(_)) => match self.advance() {
                Some(TokenKind::AttrName(a)) => Ok(PathStepExpr::Attribute(a)),
                _ => unreachable!(),
            },
            Some(TokenKind::Word(w)) if w == "cdata" => {
                self.pos += 1;
                Ok(PathStepExpr::Cdata)
            }
            Some(TokenKind::Word(_)) => Ok(PathStepExpr::Tag(self.expect_word("path step")?)),
            _ => Err(self.err("path step")),
        }
    }

    fn condition(&mut self) -> Result<Condition, QueryError> {
        let var = self.expect_word("variable")?;
        self.expect_keyword("contains")?;
        match self.advance() {
            Some(TokenKind::Str(s)) => Ok(Condition { var, needle: s }),
            _ => Err(self.err("a quoted string after contains")),
        }
    }
}

fn validate(q: &Query) -> Result<(), QueryError> {
    // Duplicate bindings.
    for (i, b) in q.from.iter().enumerate() {
        if q.from[..i].iter().any(|b2| b2.var == b.var) {
            return Err(QueryError::DuplicateVariable {
                name: b.var.clone(),
            });
        }
    }
    let bound = |name: &str| q.from.iter().any(|b| b.var == name);
    let tag_vars: Vec<&str> = q
        .from
        .iter()
        .flat_map(|b| b.path.steps.iter())
        .filter_map(|s| match s {
            PathStepExpr::TagVar(v) => Some(v.as_str()),
            _ => None,
        })
        .collect();
    match &q.select {
        SelectClause::Projection(items) => {
            for item in items {
                match item {
                    SelectItem::Var(v) if !bound(v) => {
                        return Err(QueryError::UnboundVariable { name: v.clone() })
                    }
                    SelectItem::TagVar(v) if !tag_vars.contains(&v.as_str()) => {
                        return Err(QueryError::UnboundVariable {
                            name: format!("${v}"),
                        })
                    }
                    _ => {}
                }
            }
        }
        SelectClause::Meet { vars, .. } => {
            for v in vars {
                if !bound(v) {
                    return Err(QueryError::UnboundVariable { name: v.clone() });
                }
            }
        }
    }
    for c in &q.conditions {
        if !bound(&c.var) {
            return Err(QueryError::UnboundVariable {
                name: c.var.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PathStepExpr as S;

    #[test]
    fn parses_the_baseline_query() {
        let q = parse_query(
            "select $T from bibliography/%/$T as t1, bibliography/%/$T as t2 \
             where t1 contains 'Bit' and t2 contains '1999'",
        )
        .unwrap();
        assert_eq!(
            q.select,
            SelectClause::Projection(vec![SelectItem::TagVar("T".into())])
        );
        assert_eq!(q.from.len(), 2);
        assert_eq!(
            q.from[0].path.steps,
            vec![
                S::Tag("bibliography".into()),
                S::AnySeq,
                S::TagVar("T".into())
            ]
        );
        assert_eq!(q.conditions.len(), 2);
        assert_eq!(q.conditions[1].needle, "1999");
    }

    #[test]
    fn parses_the_meet_query_with_modifiers() {
        let q = parse_query(
            "select meet(t1, t2) within 6 excluding bibliography \
             from bibliography/% t1, bibliography/% t2 \
             where t1 contains 'ICDE' and t2 contains '1999'",
        )
        .unwrap();
        match q.select {
            SelectClause::Meet { vars, modifiers } => {
                assert_eq!(vars, vec!["t1", "t2"]);
                assert_eq!(modifiers.within, Some(6));
                assert_eq!(modifiers.excluding.len(), 1);
            }
            _ => panic!("expected meet"),
        }
    }

    #[test]
    fn corpus_clause_parses_and_round_trips() {
        let q = parse_query(
            "select meet(t1, t2) from corpus(dblp), bibliography/% as t1, \
             bibliography/% as t2 where t1 contains 'Bit'",
        )
        .unwrap();
        assert_eq!(q.corpus.as_deref(), Some("dblp"));
        assert_eq!(q.from.len(), 2);
        // Canonical print re-parses to the same AST.
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        // The comma after the clause is optional.
        let q2 = parse_query("select t from corpus(dblp) x as t").unwrap();
        assert_eq!(q2.corpus.as_deref(), Some("dblp"));
        // Case-insensitive keyword, like the rest of the dialect.
        let q3 = parse_query("select t from CORPUS(deep), x as t").unwrap();
        assert_eq!(q3.corpus.as_deref(), Some("deep"));
    }

    #[test]
    fn corpus_as_a_plain_tag_still_works() {
        // A path starting with the tag `corpus` is not the clause.
        let q = parse_query("select t from corpus/% as t").unwrap();
        assert_eq!(q.corpus, None);
        assert_eq!(q.from[0].path.steps[0], S::Tag("corpus".into()));
        // And `corpus` as a binding variable is fine too.
        let q = parse_query("select corpus from x as corpus").unwrap();
        assert_eq!(q.corpus, None);
    }

    #[test]
    fn malformed_corpus_clauses_are_parse_errors() {
        for bad in [
            "select t from corpus(), x as t",
            "select t from corpus(a b), x as t",
            "select t from corpus(a, x as t",
        ] {
            assert!(parse_query(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn as_keyword_is_optional() {
        let a = parse_query("select t from x as t").unwrap();
        let b = parse_query("select t from x t").unwrap();
        assert_eq!(a.from, b.from);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse_query("SELECT t FROM x AS t WHERE t CONTAINS 'q'").is_ok());
    }

    #[test]
    fn meet_as_plain_variable_still_works() {
        // `meet` without parentheses is an ordinary name.
        let q = parse_query("select meet from x as meet").unwrap();
        assert_eq!(
            q.select,
            SelectClause::Projection(vec![SelectItem::Var("meet".into())])
        );
    }

    #[test]
    fn attribute_and_cdata_steps_parse() {
        let q = parse_query("select t from dblp/*/@key as t").unwrap();
        assert_eq!(
            q.from[0].path.steps,
            vec![S::Tag("dblp".into()), S::AnyOne, S::Attribute("key".into())]
        );
        let q = parse_query("select t from dblp/%/cdata as t").unwrap();
        assert_eq!(q.from[0].path.steps.last(), Some(&S::Cdata));
    }

    #[test]
    fn unbound_variables_are_rejected() {
        let e = parse_query("select t9 from x as t1").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable { .. }));
        let e = parse_query("select meet(t1, t9) from x as t1").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable { .. }));
        let e = parse_query("select t1 from x as t1 where t9 contains 'x'").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable { .. }));
        let e = parse_query("select $Z from x/$T as t1").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable { .. }));
    }

    #[test]
    fn duplicate_bindings_are_rejected() {
        let e = parse_query("select t from x as t, y as t").unwrap_err();
        assert!(matches!(e, QueryError::DuplicateVariable { .. }));
    }

    #[test]
    fn a_meet_of_one_variable_is_a_query() {
        // One term's hits meet each other (Fig. 5), as `MEET x` does.
        let q = parse_query("select meet(t1) from x as t1 where t1 contains 'q'").unwrap();
        assert!(matches!(&q.select, SelectClause::Meet { vars, .. } if vars == &["t1"]));
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn limit_clause_parses_and_round_trips() {
        // On a meet, after conditions.
        let q =
            parse_query("select meet(t1, t2) from x as t1, y as t2 where t1 contains 'q' limit 3")
                .unwrap();
        assert_eq!(q.limit, Some(3));
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        // On a projection, without conditions, and with a corpus clause
        // and an `only` modifier in the mix.
        let q = parse_query("select t from corpus(dblp), x as t limit 1").unwrap();
        assert_eq!(q.limit, Some(1));
        assert_eq!(q.corpus.as_deref(), Some("dblp"));
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        let q = parse_query("select meet(t1, t2) only a/b from x as t1, y as t2 limit 12").unwrap();
        assert_eq!(q.limit, Some(12));
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        // Case-insensitive like every other keyword.
        assert_eq!(
            parse_query("select t from x as t LIMIT 2").unwrap().limit,
            Some(2)
        );
    }

    #[test]
    fn limit_zero_is_a_typed_error() {
        let e = parse_query("select t from x as t limit 0").unwrap_err();
        assert!(matches!(e, QueryError::InvalidLimit));
    }

    #[test]
    fn limit_overflow_is_a_typed_error() {
        let src = "select t from x as t limit 123456789012345678901234567890";
        let e = parse_query(src).unwrap_err();
        let offset = src.find("123").unwrap();
        assert_eq!(e, QueryError::NumberOverflow { offset });
    }

    #[test]
    fn malformed_limit_clauses_are_parse_errors() {
        for bad in [
            "select t from x as t limit",
            "select t from x as t limit 'x'",
            "select t from x as t limit 3 4",
            "select t from x as t limit 3 limit 4",
        ] {
            assert!(
                matches!(parse_query(bad), Err(QueryError::Parse { .. })),
                "{bad} should be a parse error"
            );
        }
    }

    #[test]
    fn limit_as_a_plain_name_still_works() {
        // `limit` as a binding variable or tag, with an actual limit
        // clause after it.
        let q = parse_query("select limit from x as limit limit 4").unwrap();
        assert_eq!(q.limit, Some(4));
        assert_eq!(q.from[0].var, "limit");
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        let q = parse_query("select t from limit/% as t").unwrap();
        assert_eq!(q.limit, None);
        assert_eq!(q.from[0].path.steps[0], S::Tag("limit".into()));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let e = parse_query("select t from x as t zzz qqq").unwrap_err();
        assert!(matches!(e, QueryError::Parse { .. }));
    }

    #[test]
    fn missing_pieces_are_parse_errors() {
        for bad in [
            "select",
            "select t",
            "select t from",
            "select t from x as",
            "select t from x as t where",
            "select t from x as t where t contains",
            "select t from x as t where t contains 5",
            "select meet() from x as t",
        ] {
            assert!(parse_query(bad).is_err(), "{bad} should fail");
        }
    }
}
