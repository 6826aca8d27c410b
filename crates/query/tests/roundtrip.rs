//! Randomized tests: random query ASTs survive print → parse, and random
//! query *strings* never panic the pipeline.
//!
//! Seeded loops over a deterministic PRNG stand in for proptest (the
//! offline build cannot fetch it); failures print the seed.

use ncq_query::ast::{
    Binding, Condition, MeetModifiers, PathExpr, PathStepExpr, Query, SelectClause, SelectItem,
};
use ncq_query::parse_query;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn ident(rng: &mut StdRng) -> String {
    loop {
        let len = rng.random_range(1usize..8);
        let mut s = String::new();
        s.push((b'a' + rng.random_range(0u8..26)) as char);
        const TAIL: [char; 38] = [
            'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q',
            'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '0', '1', '2', '3', '4', '5', '6', '7',
            '8', '9', '_', '_',
        ];
        for _ in 1..len {
            s.push(TAIL[rng.random_range(0..TAIL.len())]);
        }
        let keyword = matches!(
            s.as_str(),
            "select"
                | "from"
                | "where"
                | "and"
                | "as"
                | "contains"
                | "meet"
                | "within"
                | "excluding"
                | "only"
                | "cdata"
                | "limit"
        );
        if !keyword {
            return s;
        }
    }
}

fn path_step(rng: &mut StdRng) -> PathStepExpr {
    match rng.random_range(0usize..9) {
        0..=3 => PathStepExpr::Tag(ident(rng)),
        4 => PathStepExpr::AnyOne,
        5 => PathStepExpr::AnySeq,
        6 => PathStepExpr::Attribute(ident(rng)),
        7 => PathStepExpr::Cdata,
        _ => PathStepExpr::TagVar(((b'A' + rng.random_range(0u8..26)) as char).to_string()),
    }
}

fn path_expr(rng: &mut StdRng) -> PathExpr {
    let n = rng.random_range(1usize..5);
    PathExpr {
        steps: (0..n).map(|_| path_step(rng)).collect(),
    }
}

fn needle(rng: &mut StdRng) -> String {
    // Either kind of quote, or both: a literal holding both doubles the
    // one it is quoted with.
    let quotes: &[char] = [&['\''][..], &['"'], &['\'', '"']][rng.random_range(0..3usize)];
    let mut chars = vec!['a', 'B', '7', ' ', '.', '&', '-', 'z', 'Q', '0'];
    chars.extend_from_slice(quotes);
    let len = rng.random_range(1usize..13);
    let s: String = (0..len)
        .map(|_| chars[rng.random_range(0..chars.len())])
        .collect();
    s.trim().to_string() + "x"
}

/// A structurally valid query: distinct binding vars, select/where refer
/// only to bound vars.
fn random_query(rng: &mut StdRng) -> Query {
    let n_bindings = rng.random_range(2usize..4);
    let mut from_raw: Vec<(PathExpr, String)> = (0..n_bindings)
        .map(|_| (path_expr(rng), ident(rng)))
        .collect();
    let is_meet = rng.random_bool();
    let n_conds = rng.random_range(0usize..3);
    let within = if rng.random_bool() {
        Some(rng.random_range(0usize..10))
    } else {
        None
    };
    let excluding: Vec<PathExpr> = (0..rng.random_range(0usize..3))
        .map(|_| path_expr(rng))
        .collect();
    let only: Vec<PathExpr> = (0..rng.random_range(0usize..3))
        .map(|_| path_expr(rng))
        .collect();

    // Dedup binding variables.
    from_raw.sort_by(|a, b| a.1.cmp(&b.1));
    from_raw.dedup_by(|a, b| a.1 == b.1);
    let from: Vec<Binding> = from_raw
        .into_iter()
        .map(|(path, var)| Binding { path, var })
        .collect();
    let tag_vars: Vec<String> = from
        .iter()
        .flat_map(|b| b.path.steps.iter())
        .filter_map(|s| match s {
            PathStepExpr::TagVar(v) => Some(v.clone()),
            _ => None,
        })
        .collect();
    let select = if is_meet {
        SelectClause::Meet {
            vars: from.iter().map(|b| b.var.clone()).collect(),
            modifiers: MeetModifiers {
                within,
                excluding,
                only,
            },
        }
    } else {
        let mut items: Vec<SelectItem> = from
            .iter()
            .map(|b| SelectItem::Var(b.var.clone()))
            .collect();
        if let Some(tv) = tag_vars.first() {
            items.push(SelectItem::TagVar(tv.clone()));
        }
        SelectClause::Projection(items)
    };
    let conditions = (0..n_conds)
        .map(|_| Condition {
            var: from[rng.random_range(0..from.len())].var.clone(),
            needle: needle(rng),
        })
        .collect();
    // A corpus-qualified query half the time (any identifier works —
    // `corpus` only becomes the clause when followed by `(`).
    let corpus = if rng.random_bool() {
        Some(ident(rng))
    } else {
        None
    };
    // `limit 0` is a typed parse error, so valid queries draw from 1..
    let limit = if rng.random_bool() {
        Some(rng.random_range(1usize..50))
    } else {
        None
    };
    Query {
        select,
        corpus,
        from,
        conditions,
        limit,
    }
}

const CASES: u64 = 256;

#[test]
fn print_then_parse_is_identity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng);
        let printed = q.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: {printed:?} failed: {e}"));
        assert_eq!(reparsed, q, "seed {seed}, printed: {printed}");
    }
}

#[test]
fn parser_never_panics() {
    const CHARS: [char; 24] = [
        'a', 'z', '$', '@', '%', '*', '/', ',', '(', ')', '\'', ' ', '"', '0', '9', '<', '>', '=',
        ';', '.', '-', 'é', '≤', '\t',
    ];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1 << 32 | seed);
        let len = rng.random_range(0usize..120);
        let src: String = (0..len)
            .map(|_| CHARS[rng.random_range(0..CHARS.len())])
            .collect();
        let _ = parse_query(&src);
    }
}

/// Mutate a valid query string: each round inserts, deletes, replaces
/// or duplicates a random byte-range (on char boundaries). The pipeline
/// must reject or accept, never panic — and on acceptance, the printer
/// must still round-trip (parse → print → parse is a fixpoint).
#[test]
fn mutated_valid_queries_never_panic_and_reparse_stably() {
    const JUNK: [char; 16] = [
        'a', 'Z', '$', '@', '%', '*', '/', ',', '(', ')', '\'', ' ', '0', '\t', '"', ';',
    ];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3 << 32 | seed);
        let mut src = random_query(&mut rng).to_string();
        for _ in 0..rng.random_range(1usize..6) {
            let chars: Vec<char> = src.chars().collect();
            if chars.is_empty() {
                break;
            }
            let at = rng.random_range(0..chars.len());
            let mutated: String = match rng.random_range(0usize..4) {
                // Insert junk.
                0 => chars[..at]
                    .iter()
                    .chain([&JUNK[rng.random_range(0..JUNK.len())]])
                    .chain(&chars[at..])
                    .collect(),
                // Delete one char.
                1 => chars[..at].iter().chain(&chars[at + 1..]).collect(),
                // Replace one char.
                2 => {
                    let mut v = chars.clone();
                    v[at] = JUNK[rng.random_range(0..JUNK.len())];
                    v.into_iter().collect()
                }
                // Duplicate a range.
                _ => {
                    let end = rng.random_range(at..chars.len().min(at + 12) + 1);
                    chars[..end]
                        .iter()
                        .chain(&chars[at..end])
                        .chain(&chars[end..])
                        .collect()
                }
            };
            if let Ok(q) = parse_query(&mutated) {
                let printed = q.to_string();
                let again = parse_query(&printed)
                    .unwrap_or_else(|e| panic!("seed {seed}: reparse of {printed:?} failed: {e}"));
                assert_eq!(again, q, "seed {seed}: print/parse not a fixpoint");
            }
            src = mutated;
        }
    }
}

/// Lexer-level garbage: random byte strings (not just word soup) must
/// never panic, including multi-byte UTF-8 and control characters.
#[test]
fn lexer_survives_random_unicode() {
    const CHARS: [char; 16] = [
        'a',
        '\u{0}',
        '\u{7f}',
        'é',
        '漢',
        '\u{1F600}',
        '\'',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '$',
        '@',
        '%',
        '9',
    ];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4 << 32 | seed);
        let len = rng.random_range(0usize..80);
        let src: String = (0..len)
            .map(|_| CHARS[rng.random_range(0..CHARS.len())])
            .collect();
        let _ = parse_query(&src);
    }
}

/// `limit`-focused mutation fuzz: start from a corpus-qualified meet
/// query with `only` and `limit` (every clause that has to coexist with
/// it), then mutate the tail around the limit clause. Accepted mutants
/// must round-trip; `limit 0` and overflowing literals must surface as
/// their typed errors, never as panics.
#[test]
fn limit_clause_mutations_round_trip_or_fail_typed() {
    use ncq_query::QueryError;
    let base = "select meet(t1, t2) only a/b from corpus(dblp), x as t1, y as t2 \
                where t1 contains 'q' limit 7";
    let parsed = parse_query(base).expect("base query parses");
    assert_eq!(parsed.limit, Some(7));
    assert_eq!(parsed.corpus.as_deref(), Some("dblp"));
    assert_eq!(parse_query(&parsed.to_string()).unwrap(), parsed);

    assert!(matches!(
        parse_query(&base.replace("limit 7", "limit 0")),
        Err(QueryError::InvalidLimit)
    ));
    assert!(matches!(
        parse_query(&base.replace("limit 7", "limit 99999999999999999999999999")),
        Err(QueryError::NumberOverflow { .. })
    ));

    const TAILS: [&str; 8] = [
        "limit",
        "limit limit",
        "limit 'x'",
        "limit 7 8",
        "limit 7 limit 8",
        "limit -1",
        "limit 7)",
        "7",
    ];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5 << 32 | seed);
        let mut q = random_query(&mut rng);
        q.limit = None;
        let prefix = q.to_string();
        let tail = TAILS[rng.random_range(0..TAILS.len())];
        let src = format!("{prefix} {tail}");
        if let Ok(ok) = parse_query(&src) {
            let printed = ok.to_string();
            let again = parse_query(&printed)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse of {printed:?} failed: {e}"));
            assert_eq!(again, ok, "seed {seed}: limit print/parse not a fixpoint");
        }
    }
}

#[test]
fn parser_never_panics_on_query_soup() {
    const PIECES: [&str; 16] = [
        "select ",
        "from ",
        "where ",
        "meet",
        "contains ",
        "and ",
        "as ",
        "limit ",
        "0 ",
        "(",
        ")",
        "'",
        "$t",
        "%",
        "/",
        ", ",
    ];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2 << 32 | seed);
        let n = rng.random_range(0usize..40);
        let src: String = (0..n)
            .map(|_| PIECES[rng.random_range(0..PIECES.len())])
            .collect();
        let _ = parse_query(&src);
    }
}
