//! # ncq-query — the paper's SQL-with-paths dialect
//!
//! Schmidt, Kersten & Windhouwer (ICDE 2001) frame their examples in "a
//! variant of SQL enriched with paths and path variables", for lack of a
//! standard XML query language in 2001. This crate implements that
//! dialect, including the **meet aggregate** the paper adds to it.
//!
//! ## The two queries of the paper
//!
//! The **baseline** (introduction) binds a shared *tag variable* `$T` and
//! suffers from ancestor-implied answers:
//!
//! ```text
//! select $T
//! from %/$T as t1, %/$T as t2
//! where t1 contains 'Bit' and t2 contains '1999'
//! ```
//!
//! The **meet reformulation** (§3.2) replaces the projection by the meet
//! aggregate and returns just the nearest concept:
//!
//! ```text
//! select meet(t1, t2)
//! from bibliography/% as t1, bibliography/% as t2
//! where t1 contains 'Bit' and t2 contains '1999'
//! ```
//!
//! ## Grammar (case-insensitive keywords)
//!
//! ```text
//! query      := SELECT select FROM bindings [WHERE cond (AND cond)*]
//! select     := MEET '(' var (',' var)* ')' modifier*
//!             | item (',' item)*
//! item       := var | '$'NAME                       -- tuple or tag variable
//! modifier   := WITHIN NUMBER                       -- meet^δ  (§4)
//!             | EXCLUDING pathexpr                  -- meet_Π  (§4)
//!             | ONLY pathexpr                       -- allow-list variant
//! bindings   := pathexpr ['as'] var (',' pathexpr ['as'] var)*
//! pathexpr   := step ('/' step)*
//! step       := NAME | '*' | '%' | '@'NAME | 'cdata' | '$'NAME
//! cond       := var CONTAINS STRING
//! ```
//!
//! `*` matches exactly one element step, `%` any (possibly empty)
//! sequence of element steps, `$X` captures a tag and unifies across
//! repeated uses — the paper's path variables. A `STRING` is quoted
//! with `'` or `"`; inside it, a doubled quote stands for one.
//!
//! The server's `MEET a b WITHIN δ LIMIT k` verb is this dialect's
//! Listing 2 over `%` ([`Query::meet_terms`]): `select meet(t0, t1)
//! within δ from % as t0, % as t1 where t0 contains 'a' and t1
//! contains 'b' limit k`.
//!
//! ## Semantics
//!
//! * `v contains 's'` binds `v` to nodes matching its path expression
//!   whose **offspring** contains `s` as character data (or attribute
//!   value) — the paper's reading.
//! * A **projection** query enumerates all variable-binding combinations
//!   (with tag variables unified) — deliberately reproducing the
//!   ancestor-implied, potentially exploding answer the paper criticises.
//!   A configurable row limit keeps that explosion observable but safe.
//! * A **meet** query aggregates: each variable's binding set is reduced
//!   to its *minimal* elements — exactly the string associations the
//!   full-text search returns (every ancestor is implied by them) — and
//!   the generalized meet (Fig. 5) is applied to those hit groups.
//!
//! ```
//! use ncq_core::Database;
//! use ncq_query::{run_query, QueryOutput};
//!
//! let db = Database::from_xml_str(ncq_datagen::FIGURE1_XML).unwrap();
//! let out = run_query(&db, "select meet(t1, t2) \
//!     from bibliography/% as t1, bibliography/% as t2 \
//!     where t1 contains 'Bit' and t2 contains '1999'").unwrap();
//! match out {
//!     QueryOutput::Answers(a) => assert_eq!(a.tags(), vec!["article"]),
//!     _ => unreachable!(),
//! }
//! ```

pub mod ast;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod pathexpr;

pub use ast::{Query, SelectClause};
pub use error::QueryError;
pub use eval::{run_query, run_query_opts, QueryConfig, QueryOptions, QueryOutput, Row, RowSet};
pub use parser::parse_query;
