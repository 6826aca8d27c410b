//! Abstract syntax of the query dialect, with a canonical
//! pretty-printer ([`std::fmt::Display`]) such that
//! `parse(q.to_string()) == q` for every valid query.

use std::fmt;

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathStepExpr {
    /// A concrete element tag.
    Tag(String),
    /// `*` — exactly one element step.
    AnyOne,
    /// `%` — any (possibly empty) sequence of element steps; the paper's
    /// schema wildcard.
    AnySeq,
    /// `@name` — an attribute step.
    Attribute(String),
    /// `cdata` — a character-data step.
    Cdata,
    /// `$X` — a tag variable: matches one element step and captures its
    /// tag; repeated occurrences must unify.
    TagVar(String),
}

/// A path expression: a sequence of steps, matched from the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathExpr {
    /// The steps.
    pub steps: Vec<PathStepExpr>,
}

/// One `from` binding: `pathexpr as var`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Matched path pattern.
    pub path: PathExpr,
    /// Tuple variable name.
    pub var: String,
}

/// One item in a projection select list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem {
    /// A tuple variable — projects the bound node's tag.
    Var(String),
    /// A tag variable — projects the unified tag name.
    TagVar(String),
}

/// Modifiers on a meet aggregate (§4 extensions).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeetModifiers {
    /// `within N` — the distance bound `meet^δ`.
    pub within: Option<usize>,
    /// `excluding <path>` — `meet_Π` exclusion patterns.
    pub excluding: Vec<PathExpr>,
    /// `only <path>` — `meet_Π` allow patterns.
    pub only: Vec<PathExpr>,
}

/// The select clause: projection or meet aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectClause {
    /// `select a, $T, b` — enumerate binding combinations.
    Projection(Vec<SelectItem>),
    /// `select meet(a, b, …)` — aggregate with the meet operator.
    Meet {
        /// Variables whose hit groups feed the meet.
        vars: Vec<String>,
        /// §4 restrictions.
        modifiers: MeetModifiers,
    },
}

/// A `where` predicate: `var contains 'string'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// The tuple variable.
    pub var: String,
    /// The search string.
    pub needle: String,
}

/// A full query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// What to return.
    pub select: SelectClause,
    /// The corpus this query addresses — `from corpus(name), …`.
    /// `None` resolves to the evaluation default (the backend itself
    /// for single-document engines, the catalog default for forests).
    pub corpus: Option<String>,
    /// The bindings.
    pub from: Vec<Binding>,
    /// Conjunctive conditions.
    pub conditions: Vec<Condition>,
    /// `limit N` — at most N answers. Meets are distance-ranked, so the
    /// engine serves this with a bounded sweep that stops once the k-th
    /// best distance cannot improve; projections stop enumerating rows
    /// at N. Always ≥ 1 in a parsed query (`limit 0` is a typed error).
    pub limit: Option<usize>,
}

impl fmt::Display for PathStepExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStepExpr::Tag(t) => write!(f, "{t}"),
            PathStepExpr::AnyOne => write!(f, "*"),
            PathStepExpr::AnySeq => write!(f, "%"),
            PathStepExpr::Attribute(a) => write!(f, "@{a}"),
            PathStepExpr::Cdata => write!(f, "cdata"),
            PathStepExpr::TagVar(v) => write!(f, "${v}"),
        }
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Var(v) => write!(f, "{v}"),
            SelectItem::TagVar(t) => write!(f, "${t}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        match &self.select {
            SelectClause::Projection(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
            }
            SelectClause::Meet { vars, modifiers } => {
                write!(f, "meet({})", vars.join(", "))?;
                if let Some(n) = modifiers.within {
                    write!(f, " within {n}")?;
                }
                for p in &modifiers.excluding {
                    write!(f, " excluding {p}")?;
                }
                for p in &modifiers.only {
                    write!(f, " only {p}")?;
                }
            }
        }
        write!(f, " from ")?;
        if let Some(corpus) = &self.corpus {
            write!(f, "corpus({corpus}), ")?;
        }
        for (i, b) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} as {}", b.path, b.var)?;
        }
        for (i, c) in self.conditions.iter().enumerate() {
            // A needle holding `'` is quoted with `"`, and only a needle
            // holding both kinds needs its `"` doubled (the lexer reads a
            // doubled quote as one), so every other needle prints as
            // typed.
            let quote = if c.needle.contains('\'') { "\"" } else { "'" };
            write!(
                f,
                " {} {} contains {quote}{}{quote}",
                if i == 0 { "where" } else { "and" },
                c.var,
                c.needle.replace(quote, &quote.repeat(2))
            )?;
        }
        if let Some(n) = self.limit {
            write!(f, " limit {n}")?;
        }
        Ok(())
    }
}

impl Query {
    /// The query the `MEET` verb abbreviates: Listing 2 with one `%`
    /// variable per term, `select meet(t0, t1) within δ from % as t0,
    /// % as t1 where t0 contains 'a' and t1 contains 'b' limit k`.
    /// Variable `ti` holds term `i`, so witness `term` indices follow
    /// the term order.
    pub fn meet_terms<S: AsRef<str>>(
        terms: &[S],
        within: Option<usize>,
        limit: Option<usize>,
    ) -> Query {
        let vars: Vec<String> = (0..terms.len()).map(|i| format!("t{i}")).collect();
        Query {
            from: vars
                .iter()
                .map(|var| Binding {
                    path: PathExpr {
                        steps: vec![PathStepExpr::AnySeq],
                    },
                    var: var.clone(),
                })
                .collect(),
            conditions: vars
                .iter()
                .zip(terms)
                .map(|(var, term)| Condition {
                    var: var.clone(),
                    needle: term.as_ref().to_owned(),
                })
                .collect(),
            select: SelectClause::Meet {
                vars,
                modifiers: MeetModifiers {
                    within,
                    ..MeetModifiers::default()
                },
            },
            corpus: None,
            limit,
        }
    }

    /// All `contains` strings attached to one variable.
    pub fn needles_for(&self, var: &str) -> Vec<&str> {
        self.conditions
            .iter()
            .filter(|c| c.var == var)
            .map(|c| c.needle.as_str())
            .collect()
    }

    /// The binding for a variable, if any.
    pub fn binding_for(&self, var: &str) -> Option<&Binding> {
        self.from.iter().find(|b| b.var == var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Query {
        Query {
            select: SelectClause::Projection(vec![SelectItem::TagVar("T".into())]),
            corpus: None,
            from: vec![Binding {
                path: PathExpr {
                    steps: vec![
                        PathStepExpr::Tag("bibliography".into()),
                        PathStepExpr::AnySeq,
                        PathStepExpr::TagVar("T".into()),
                    ],
                },
                var: "t1".into(),
            }],
            conditions: vec![Condition {
                var: "t1".into(),
                needle: "Bit".into(),
            }],
            limit: None,
        }
    }

    #[test]
    fn needles_for_collects_per_variable() {
        let mut q = sample();
        q.conditions.push(Condition {
            var: "t1".into(),
            needle: "1999".into(),
        });
        q.conditions.push(Condition {
            var: "t2".into(),
            needle: "x".into(),
        });
        assert_eq!(q.needles_for("t1"), vec!["Bit", "1999"]);
        assert_eq!(q.needles_for("t2"), vec!["x"]);
        assert!(q.needles_for("t3").is_empty());
    }

    #[test]
    fn a_needle_with_an_apostrophe_prints_double_quoted() {
        let mut q = sample();
        q.conditions[0].needle = "O'Neil".into();
        let text = q.to_string();
        assert!(text.ends_with(r#"where t1 contains "O'Neil""#), "{text}");
        assert_eq!(crate::parse_query(&text).unwrap(), q);
        let q = crate::parse_query(r#"select t from x as t where t contains 'say "hi"'"#).unwrap();
        assert_eq!(crate::parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn a_needle_with_both_quotes_prints_its_double_quotes_doubled() {
        let mut q = sample();
        q.conditions[0].needle = r#"it's "hi""#.into();
        let text = q.to_string();
        assert!(
            text.ends_with(r#"where t1 contains "it's ""hi""""#),
            "{text}"
        );
        assert_eq!(crate::parse_query(&text).unwrap(), q);
        // A one-term MEET whose term spells a second condition stays
        // one condition.
        let q = Query::meet_terms(&["a'\" and t0 contains \"b'"], None, None);
        let text = q.to_string();
        assert_eq!(
            text,
            r#"select meet(t0) from % as t0 where t0 contains "a'"" and t0 contains ""b'""#
        );
        assert_eq!(crate::parse_query(&text).unwrap(), q);
    }

    #[test]
    fn meet_terms_is_listing_2_over_percent() {
        let q = Query::meet_terms(&["Bit", "1999"], Some(4), Some(2));
        assert_eq!(
            q.to_string(),
            "select meet(t0, t1) within 4 from % as t0, % as t1 \
             where t0 contains 'Bit' and t1 contains '1999' limit 2"
        );
        assert_eq!(crate::parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn binding_for_finds_bindings() {
        let q = sample();
        assert!(q.binding_for("t1").is_some());
        assert!(q.binding_for("nope").is_none());
    }
}
