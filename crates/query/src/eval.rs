//! Query evaluation.
//!
//! Two evaluation modes, mirroring the paper's narrative:
//!
//! * **Projection** — enumerate all binding combinations; reproduces the
//!   baseline behaviour the paper criticises (ancestor-implied answers,
//!   potential combinatorial explosion, bounded here by
//!   [`QueryConfig::max_rows`]).
//! * **Meet aggregation** — each variable's binding set is reduced to its
//!   minimal elements (exactly the string associations of the full-text
//!   search; all ancestors are implied by them), and the generalized meet
//!   of the paper's Figure 5 combines them, honouring `within`
//!   (`meet^δ`), `excluding` and `only` (`meet_Π`).

use crate::ast::{PathStepExpr, Query, SelectClause, SelectItem};
use crate::error::QueryError;
use crate::parser::parse_query;
use crate::pathexpr::{match_paths, matched_path_ids, PathMatch};
pub use ncq_core::answer::{QueryOutput, Row, RowSet};
use ncq_core::sweep::meet_hits;
use ncq_core::{AnswerSet, BackendError, MeetBackend, MeetOptions, PathFilter};
use ncq_fulltext::HitSet;
use ncq_store::{MonetDb, Oid, PathId};
use std::sync::Arc;

#[cfg(test)]
use ncq_core::Database;

/// Evaluation limits.
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Maximum number of projection rows before
    /// [`QueryError::RowLimitExceeded`].
    pub max_rows: usize,
}

impl Default for QueryConfig {
    fn default() -> QueryConfig {
        QueryConfig { max_rows: 10_000 }
    }
}

/// Full evaluation options: limits plus corpus routing.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Evaluation limits.
    pub config: QueryConfig,
    /// Corpus to evaluate against when the query text names none —
    /// the server's `USE` verb threads the session corpus through
    /// here. An explicit `from corpus(name)` in the query wins.
    pub default_corpus: Option<String>,
}

/// Parse and evaluate with default limits.
///
/// Generic over the execution backend: the single-process
/// [`ncq_core::Database`], a remote engine and a forest all serve the
/// same dialect with identical answers (the golden suite pins it).
pub fn run_query<B: MeetBackend + ?Sized>(db: &B, src: &str) -> Result<QueryOutput, QueryError> {
    run_query_opts(db, src, &QueryOptions::default())
}

/// Parse and evaluate with full [`QueryOptions`] (limits, default
/// corpus).
pub fn run_query_opts<B: MeetBackend + ?Sized>(
    db: &B,
    src: &str,
    options: &QueryOptions,
) -> Result<QueryOutput, QueryError> {
    let query = {
        let _parse = ncq_obs::trace::span("parse");
        parse_query(src)?
    };
    let _eval = ncq_obs::trace::span("eval");
    evaluate(db, &query, options)
}

/// How a `contains` needle becomes hits on the engine a query
/// evaluates on: [`MeetBackend::search`], or a cache in front of it
/// (`ncq-server`'s term cache).
pub type TermResolver<'a> = dyn FnMut(&str) -> Result<Arc<HitSet>, BackendError> + 'a;

/// Evaluate a parsed query, resolving its corpus first: an explicit
/// `from corpus(name)` wins over [`QueryOptions::default_corpus`];
/// with neither, the backend itself evaluates (which for a forest
/// backend is its catalog's default corpus). A name the backend cannot
/// resolve is a typed [`QueryError::UnknownCorpus`]. Needles resolve
/// through [`MeetBackend::search`].
pub fn evaluate<B: MeetBackend + ?Sized>(
    db: &B,
    query: &Query,
    opts: &QueryOptions,
) -> Result<QueryOutput, QueryError> {
    match query.corpus.as_deref().or(opts.default_corpus.as_deref()) {
        Some(name) => {
            let target = db.corpus(name).ok_or_else(|| QueryError::UnknownCorpus {
                name: name.to_owned(),
            })?;
            evaluate_on(&*target, query, &opts.config, &mut |needle| {
                target.search(needle).map(Arc::new)
            })
        }
        None => evaluate_on(db, query, &opts.config, &mut |needle| {
            db.search(needle).map(Arc::new)
        }),
    }
}

/// Evaluate against an already-resolved backend (the query's corpus
/// clause is not consulted), each `contains` needle becoming hits
/// through `resolve`. A backend without a store (a remote corpus)
/// evaluates the whole query on its replicas: it receives the query
/// text with the corpus clause dropped, and `resolve` is not called.
pub fn evaluate_on<B: MeetBackend + ?Sized>(
    db: &B,
    query: &Query,
    config: &QueryConfig,
    resolve: &mut TermResolver<'_>,
) -> Result<QueryOutput, QueryError> {
    let Some(store) = db.store() else {
        let text = Query {
            corpus: None,
            ..query.clone()
        }
        .to_string();
        return Ok(db.answer_sql(&text, config.max_rows)?);
    };
    match &query.select {
        SelectClause::Meet { vars, modifiers } => {
            let inputs: Vec<Arc<HitSet>> = vars
                .iter()
                .map(|v| hit_group(store, query, v, resolve))
                .collect::<Result<_, _>>()?;
            let mut options = MeetOptions {
                max_distance: modifiers.within,
                limit: query.limit,
                ..MeetOptions::default()
            };
            if !modifiers.only.is_empty() {
                let mut allowed: Vec<PathId> = Vec::new();
                for pat in &modifiers.only {
                    allowed.extend(matched_path_ids(store, pat));
                }
                options.filter = PathFilter::allowing(allowed);
            } else if !modifiers.excluding.is_empty() {
                let mut excluded: Vec<PathId> = Vec::new();
                for pat in &modifiers.excluding {
                    excluded.extend(matched_path_ids(store, pat));
                }
                options.filter = PathFilter::excluding(excluded);
            }
            let meets = meet_hits(store, &inputs, &options);
            let _serialize = ncq_obs::trace::span("serialize");
            Ok(QueryOutput::Answers(AnswerSet::from_meets(store, meets)))
        }
        SelectClause::Projection(items) => projection(store, query, items, config, resolve),
    }
}

/// The hit group of a meet variable: string associations (or bare nodes
/// when the variable has no `contains` predicate) under the variable's
/// matched paths, containing *all* of its needles.
fn hit_group(
    store: &MonetDb,
    query: &Query,
    var: &str,
    resolve: &mut TermResolver<'_>,
) -> Result<Arc<HitSet>, QueryError> {
    let binding = query
        .binding_for(var)
        .ok_or_else(|| QueryError::UnboundVariable {
            name: var.to_owned(),
        })?;
    let needles = query.needles_for(var);

    if needles.is_empty() {
        // No predicate: the variable contributes the matched nodes
        // themselves (elements of matched element paths), read straight
        // from the store's document-order posting lists.
        let matched = matched_path_ids(store, &binding.path);
        return Ok(Arc::new(HitSet::from_pairs(matched.iter().flat_map(
            |&p| store.oids_of_path(p).iter().map(move |&o| (p, o)),
        ))));
    }

    // `%` matches every element path, and every hit lies under the
    // root, so its scope is everything: a needle's hits serve as they
    // are (a cached decode is shared, not copied).
    let everywhere = binding.path.steps == [PathStepExpr::AnySeq];
    let matched = if everywhere {
        Vec::new()
    } else {
        matched_path_ids(store, &binding.path)
    };
    let mut result: Option<Arc<HitSet>> = None;
    for needle in needles {
        let mut hits = resolve(needle)?;
        if !everywhere {
            let mut scoped = HitSet::clone(&hits);
            scoped.retain(|path, _| matched.iter().any(|&mp| store.summary().le(path, mp)));
            hits = Arc::new(scoped);
        }
        result = Some(match result {
            None => hits,
            Some(prev) => {
                // Association-level conjunction.
                let mut both = HitSet::new();
                for (p, o) in prev.iter() {
                    if hits.contains(p, o) {
                        both.insert(p, o);
                    }
                }
                Arc::new(both)
            }
        });
    }
    Ok(result.unwrap_or_default())
}

/// Captured tag-variable assignments of one match.
type TagAssignment = Vec<(String, ncq_xml::Symbol)>;
/// One projection binding: a node with its tag captures.
type BoundNode = (Oid, TagAssignment);

/// A variable's projection bindings: `(node, tag-assignments)` for nodes
/// matching the path pattern whose subtree contains all needles.
fn projection_bindings(
    store: &MonetDb,
    query: &Query,
    var: &str,
    resolve: &mut TermResolver<'_>,
) -> Result<Vec<BoundNode>, QueryError> {
    let binding = query
        .binding_for(var)
        .ok_or_else(|| QueryError::UnboundVariable {
            name: var.to_owned(),
        })?;
    let index = store.meet_index();
    let matches: Vec<PathMatch> = match_paths(store, &binding.path);
    let needles = query.needles_for(var);

    // "Whose offspring contains the needle" is a subtree-interval test:
    // collect each needle's hit owners in document order once, then probe
    // candidates with an O(log hits) emptiness check on their preorder
    // interval — no ancestor-closure materialization.
    let mut needle_owners: Vec<Vec<Oid>> = Vec::with_capacity(needles.len());
    for needle in &needles {
        let mut owners: Vec<Oid> = resolve(needle)?.iter().map(|(_, o)| o).collect();
        owners.sort_unstable();
        owners.dedup();
        needle_owners.push(owners);
    }

    let mut out = Vec::new();
    for m in &matches {
        for &o in store.oids_of_path(m.path) {
            if needle_owners
                .iter()
                .all(|owners| index.subtree_contains_any(o, owners))
            {
                out.push((o, m.tags.clone()));
            }
        }
    }
    // Document order, stable w.r.t. alternative tag assignments.
    out.sort_by_key(|(o, _)| *o);
    Ok(out)
}

fn projection(
    store: &MonetDb,
    query: &Query,
    items: &[SelectItem],
    config: &QueryConfig,
    resolve: &mut TermResolver<'_>,
) -> Result<QueryOutput, QueryError> {
    let var_names: Vec<&str> = query.from.iter().map(|b| b.var.as_str()).collect();
    let mut bindings = Vec::with_capacity(var_names.len());
    for v in &var_names {
        bindings.push(projection_bindings(store, query, v, resolve)?);
    }

    let columns: Vec<String> = items
        .iter()
        .map(|i| match i {
            SelectItem::Var(v) => v.clone(),
            SelectItem::TagVar(t) => format!("${t}"),
        })
        .collect();

    // Nested-loop join over the binding lists, unifying shared tag vars.
    // `limit N` stops the enumeration at N distinct rows — the join is
    // abandoned, not run to completion and truncated.
    let limit = query.limit.unwrap_or(usize::MAX);
    let mut rows: Vec<Row> = Vec::new();
    let mut stack: Vec<(usize, Vec<BoundNode>)> = vec![(0, Vec::new())];
    // Depth-first enumeration without recursion.
    while let Some((level, chosen)) = stack.pop() {
        if rows.len() >= limit {
            break;
        }
        if level == bindings.len() {
            // Emit a row.
            let mut values = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    SelectItem::Var(v) => {
                        let idx = var_names.iter().position(|n| n == v).expect("validated");
                        values.push(store.label(chosen[idx].0));
                    }
                    SelectItem::TagVar(t) => {
                        let sym = chosen
                            .iter()
                            .flat_map(|(_, tags)| tags.iter())
                            .find(|(name, _)| name == t)
                            .map(|(_, sym)| *sym)
                            .expect("validated tag var");
                        values.push(store.symbols().resolve(sym).to_owned());
                    }
                }
            }
            let nodes = chosen.iter().map(|(o, _)| *o).collect();
            let row = Row { values, nodes };
            if !rows.contains(&row) {
                rows.push(row);
                if rows.len() > config.max_rows {
                    return Err(QueryError::RowLimitExceeded {
                        limit: config.max_rows,
                    });
                }
            }
            continue;
        }
        // Push candidates in reverse so document order pops first.
        for cand in bindings[level].iter().rev() {
            // Unify tag variables with choices made so far.
            let ok = cand.1.iter().all(|(name, sym)| {
                chosen
                    .iter()
                    .flat_map(|(_, tags)| tags.iter())
                    .all(|(n2, s2)| n2 != name || s2 == sym)
            });
            if ok {
                let mut next = chosen.clone();
                next.push(cand.clone());
                stack.push((level + 1, next));
            }
        }
    }

    Ok(QueryOutput::Rows(RowSet { columns, rows }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_datagen::FIGURE1_XML;

    fn db() -> Database {
        Database::from_xml_str(FIGURE1_XML).unwrap()
    }

    // ----- the paper's two listings -----

    #[test]
    fn listing1_baseline_returns_ancestor_implied_answers() {
        let db = db();
        let out = run_query(
            &db,
            "select $T \
             from %/$T as t1, %/$T as t2 \
             where t1 contains 'Bit' and t2 contains '1999'",
        )
        .unwrap();
        let QueryOutput::Rows(rows) = out else {
            panic!("expected rows")
        };
        // Tag-unified pairs: article (t1=article1 × t2∈{article1,article2}),
        // institute×institute, bibliography×bibliography.
        let mut tags: Vec<&str> = rows.rows.iter().map(|r| r.values[0].as_str()).collect();
        tags.sort_unstable();
        assert_eq!(
            tags,
            vec!["article", "article", "bibliography", "institute"]
        );
        // 4 rows — exactly the over-broad answer of the paper's listing
        // (the desired `article` plus ancestor-implied rows).
        assert_eq!(rows.rows.len(), 4);
    }

    #[test]
    fn listing2_meet_returns_exactly_the_article() {
        let db = db();
        let out = run_query(
            &db,
            "select meet(t1, t2) \
             from bibliography/% as t1, bibliography/% as t2 \
             where t1 contains 'Bit' and t2 contains '1999'",
        )
        .unwrap();
        let QueryOutput::Answers(answers) = out else {
            panic!("expected answers")
        };
        assert_eq!(answers.tags(), vec!["article"]);
    }

    // ----- semantics details -----

    #[test]
    fn projection_without_conditions_lists_matched_nodes() {
        let db = db();
        let out = run_query(&db, "select t from bibliography/institute/article as t").unwrap();
        let QueryOutput::Rows(rows) = out else {
            panic!()
        };
        assert_eq!(rows.rows.len(), 2);
        assert!(rows.rows.iter().all(|r| r.values[0] == "article"));
    }

    #[test]
    fn meet_modifier_within_blocks_far_meets() {
        let db = db();
        let q = "select meet(t1, t2) within 4 \
                 from bibliography/% as t1, bibliography/% as t2 \
                 where t1 contains 'Bit' and t2 contains '1999'";
        let QueryOutput::Answers(a) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert!(a.is_empty()); // needs distance 5
        let q5 = q.replace("within 4", "within 5");
        let QueryOutput::Answers(a) = run_query(&db, &q5).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["article"]);
    }

    #[test]
    fn meet_modifier_excluding_suppresses_types() {
        let db = db();
        // Ben × RSI meet at institute; excluding it empties the answer.
        let q = "select meet(t1, t2) excluding bibliography/institute \
                 from bibliography/% as t1, bibliography/% as t2 \
                 where t1 contains 'Ben' and t2 contains 'RSI'";
        let QueryOutput::Answers(a) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert!(a.is_empty());
    }

    #[test]
    fn meet_modifier_only_keeps_wanted_types() {
        let db = db();
        let q = "select meet(t1, t2) only bibliography/institute/article \
                 from bibliography/% as t1, bibliography/% as t2 \
                 where t1 contains 'Bit' and t2 contains '1999'";
        let QueryOutput::Answers(a) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["article"]);
    }

    #[test]
    fn meet_variable_without_condition_contributes_nodes() {
        let db = db();
        // t2 binds all year elements; t1 the Bit hit. They meet at the
        // first article.
        let q = "select meet(t1, t2) \
                 from bibliography/% as t1, bibliography/%/year as t2 \
                 where t1 contains 'Bit'";
        let QueryOutput::Answers(a) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["article"]);
    }

    #[test]
    fn path_scope_restricts_hits() {
        let db = db();
        // Restrict t1 to titles: 'Bit' occurs only under author, so t1
        // contributes no hits — no article can be a meet. The two '1999'
        // hits of t2 still meet each other (Fig. 5 semantics: any two
        // input nodes) at the institute.
        let q = "select meet(t1, t2) \
                 from bibliography/%/title as t1, bibliography/% as t2 \
                 where t1 contains 'Bit' and t2 contains '1999'";
        let QueryOutput::Answers(a) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["institute"]);
    }

    #[test]
    fn conjunctive_conditions_on_one_variable() {
        let db = db();
        // Only "Bob Byte" contains both.
        let q = "select meet(t1, t2) \
                 from bibliography/% as t1, bibliography/% as t2 \
                 where t1 contains 'Bob' and t1 contains 'Byte' and t2 contains '1999'";
        let QueryOutput::Answers(a) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["article"]);
    }

    #[test]
    fn corpus_routing_resolves_against_a_forest() {
        use ncq_core::{Catalog, ForestBackend};
        use std::sync::Arc;
        let mut catalog = Catalog::new();
        catalog
            .add("paper", Arc::new(db()) as Arc<dyn MeetBackend>)
            .unwrap();
        catalog
            .add(
                "shop",
                Arc::new(
                    Database::from_xml_str(
                        "<shop><item><label>Bit driver</label><price>1999</price></item></shop>",
                    )
                    .unwrap(),
                ) as Arc<dyn MeetBackend>,
            )
            .unwrap();
        let forest = ForestBackend::new(catalog).unwrap();

        // Explicit corpus routes to the named engine, byte-identically
        // to a direct run on it.
        let q = "select meet(t1, t2) from corpus(shop), shop/% as t1, shop/% as t2 \
                 where t1 contains 'Bit' and t2 contains '1999'";
        let QueryOutput::Answers(a) = run_query(&forest, q).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["item"]);

        // No corpus → the catalog default (the paper corpus).
        let q2 = "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
                  where t1 contains 'Bit' and t2 contains '1999'";
        let QueryOutput::Answers(a) = run_query(&forest, q2).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["article"]);

        // The session default (QueryOptions) routes unqualified text…
        let opts = QueryOptions {
            default_corpus: Some("shop".into()),
            ..QueryOptions::default()
        };
        let q3 = "select meet(t1, t2) from shop/% as t1, shop/% as t2 \
                  where t1 contains 'Bit' and t2 contains '1999'";
        let QueryOutput::Answers(a) = run_query_opts(&forest, q3, &opts).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["item"]);
        // …but an explicit corpus in the text wins over it.
        let QueryOutput::Answers(a) = run_query_opts(
            &forest,
            q2,
            &QueryOptions {
                default_corpus: Some("paper".into()),
                ..QueryOptions::default()
            },
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["article"]);

        // Unknown corpus is typed — on the forest and on a plain
        // Database (which serves no corpora at all).
        let bad = "select t from corpus(absent), x as t";
        assert!(matches!(
            run_query(&forest, bad),
            Err(QueryError::UnknownCorpus { name }) if name == "absent"
        ));
        assert!(matches!(
            run_query(&db(), "select t from corpus(paper), x as t"),
            Err(QueryError::UnknownCorpus { .. })
        ));
    }

    #[test]
    fn limit_bounds_meet_answers_to_the_ranked_prefix() {
        let db = db();
        // t2 is unconditioned, so the '1999' hits meet every element —
        // six distance-ranked answers unbounded.
        let q = "select meet(t1, t2) \
                 from bibliography/% as t1, bibliography/% as t2 \
                 where t1 contains '1999'";
        let QueryOutput::Answers(full) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert!(full.results.len() >= 2);
        for k in 1..=full.results.len() {
            let QueryOutput::Answers(bounded) = run_query(&db, &format!("{q} limit {k}")).unwrap()
            else {
                panic!()
            };
            assert_eq!(bounded.results, full.results[..k], "k = {k}");
        }
        // A limit beyond the answer count changes nothing.
        let QueryOutput::Answers(big) = run_query(&db, &format!("{q} limit 100")).unwrap() else {
            panic!()
        };
        assert_eq!(big.results, full.results);
    }

    fn max_rows_10() -> QueryOptions {
        QueryOptions {
            config: QueryConfig { max_rows: 10 },
            ..QueryOptions::default()
        }
    }

    #[test]
    fn limit_stops_projection_enumeration_early() {
        let db = db();
        let q = "select t1, t2 from bibliography/% as t1, bibliography/% as t2";
        let QueryOutput::Rows(full) = run_query(&db, q).unwrap() else {
            panic!()
        };
        let QueryOutput::Rows(three) = run_query(&db, &format!("{q} limit 3")).unwrap() else {
            panic!()
        };
        assert_eq!(three.rows, full.rows[..3]);
        // The enumeration is abandoned at the limit, so a query whose
        // full join would blow max_rows succeeds when limited below it.
        let out = run_query_opts(&db, &format!("{q} limit 5"), &max_rows_10());
        let QueryOutput::Rows(five) = out.unwrap() else {
            panic!()
        };
        assert_eq!(five.rows, full.rows[..5]);
    }

    #[test]
    fn row_limit_guards_the_explosion() {
        let db = db();
        let q = "select t1, t2 \
                 from bibliography/% as t1, bibliography/% as t2";
        let err = run_query_opts(&db, q, &max_rows_10()).unwrap_err();
        assert!(matches!(err, QueryError::RowLimitExceeded { limit: 10 }));
    }

    #[test]
    fn attribute_hits_respect_scope() {
        let db = db();
        let q = "select meet(t1, t2) \
                 from bibliography/%/@key as t1, bibliography/% as t2 \
                 where t1 contains 'BB99' and t2 contains 'Ben'";
        let QueryOutput::Answers(a) = run_query(&db, q).unwrap() else {
            panic!()
        };
        assert_eq!(a.tags(), vec!["article"]);
    }

    #[test]
    fn rows_render_as_answer_xml() {
        let db = db();
        let QueryOutput::Rows(rows) =
            run_query(&db, "select t from bibliography/institute as t").unwrap()
        else {
            panic!()
        };
        let xml = rows.to_answer_xml();
        assert!(xml.contains("<result> institute </result>"));
    }
}
