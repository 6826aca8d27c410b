//! Differential harness for `limit k`, and for the MEET verb as the
//! query it abbreviates.
//!
//! `MeetOptions::limit` promises answers byte-identical to the first
//! `k` of the plain unbounded evaluation. This suite proves the promise
//! differentially on random trees — at k ∈ {1, 2, 5}, at k beyond the
//! result size and at the absurd k a hostile client can send, with the
//! paper's roll-up
//! (`ncq_oracle::meet_rollup_ranked`) as the oracle for the ranking — and
//! once more through the full term pipeline.
//!
//! `MEET a b WITHIN δ LIMIT k` is the keyword shorthand of Listing 2,
//! `select meet(t0, t1) within δ from % as t0, % as t1 where t0
//! contains 'a' and t1 contains 'b' limit k`, and must answer byte for
//! byte like it — locally, through a forest and through a remote
//! engine (see `meet_verb_and_its_sql_form_answer_byte_identically`).
//!
//! Seeded loops over the vendored deterministic PRNG stand in for
//! proptest (the offline build cannot fetch it); failures print the
//! seed.

use ncq_fulltext::HitSet;
use ncq_oracle::{meet_rollup_ranked, TreeDraw};
use nearest_concept::core::{
    Catalog, ForestBackend, Meet, MeetBackend, MeetOptions, RemoteBackend, RemoteConfig,
};
use nearest_concept::datagen::{
    DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus, FIGURE1_XML,
};
use nearest_concept::server::{
    EngineConfig, RemoteEngine, Request, Response, Server, ServerConfig,
};
use nearest_concept::xml::Document;
use nearest_concept::{run_query, Database, QueryOutput};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Random tree with text leaves from a small token pool, so hit sets
/// overlap between queries.
fn random_tree(rng: &mut StdRng) -> Document {
    ncq_oracle::random_tree(rng, &TreeDraw::TEXT)
}

/// Terms the generator's token pool can answer — including a phrase and
/// a word that only occurs inside the phrase, so hit sets of different
/// shapes (and empty ones, on small trees) all show up.
const TERMS: [&str; 7] = [
    "alpha",
    "beta",
    "gamma",
    "delta",
    "omega",
    "peaks",
    "twin peaks",
];

/// A meet's rank-relevant fields. The roll-up's witness sample follows
/// absorption order, so the oracle comparison leaves the sample out;
/// the engines are compared byte for byte.
fn ranked(meets: &[Meet]) -> Vec<(usize, usize, usize)> {
    meets
        .iter()
        .map(|m| (m.node.index(), m.distance, m.witness_count))
        .collect()
}

/// `limit k` is the unbounded ranking's prefix: the bounded answer equals `unbounded[..k]` at small k, and equals the
/// full answer when k exceeds the result size; the unbounded ranking is
/// the roll-up's. The k-best selection may skip witness samples but must
/// never change a returned byte, and nothing may be sized by `k`.
#[test]
fn limit_k_equals_the_unbounded_prefix() {
    for seed in 0u64..40 {
        let mut rng = StdRng::seed_from_u64(0x70bb_0000 + seed);
        let doc = random_tree(&mut rng);
        let db = Database::from_document(&doc);
        let hits: Vec<HitSet> = TERMS.iter().map(|t| db.search(t)).collect();
        let n_groups = rng.random_range(2usize..4);
        let inputs: Vec<&HitSet> = (0..n_groups)
            .map(|_| &hits[rng.random_range(0..hits.len())])
            .collect();

        let oracle = meet_rollup_ranked(db.store(), &inputs, &MeetOptions::default());
        let unbounded = db.meet_hits(&inputs, &MeetOptions::default());
        assert_eq!(
            ranked(&unbounded),
            ranked(&oracle),
            "seed {seed}: the engine ranks unlike the roll-up"
        );
        for k in [1usize, 2, 5, unbounded.len() + 100, 1 << 40, usize::MAX] {
            let bounded = db.meet_hits(
                &inputs,
                &MeetOptions {
                    limit: Some(k),
                    ..MeetOptions::default()
                },
            );
            let want = &unbounded[..k.min(unbounded.len())];
            assert_eq!(bounded, want, "seed {seed}: limit {k} != unbounded prefix");
        }
    }
}

/// The same prefix property through the full term pipeline (the
/// ranked `AnswerSet` facade the server and the dialect's `limit k`
/// clause sit on): distances, tags, witness samples and serialized
/// answer XML all come from the unbounded prefix.
#[test]
fn limited_term_queries_answer_the_ranked_prefix() {
    for seed in 0u64..15 {
        let mut rng = StdRng::seed_from_u64(0x9f1d_0000 + seed);
        let doc = random_tree(&mut rng);
        let db = Database::from_document(&doc);
        let terms = ["alpha", "beta", "twin peaks"];
        let full = db.meet_terms(&terms).expect("unbounded");
        for k in [1usize, 2, 5] {
            let options = MeetOptions {
                limit: Some(k),
                ..MeetOptions::default()
            };
            let bounded = db.meet_terms_with(&terms, &options).expect("bounded");
            let cut = k.min(full.len());
            assert_eq!(
                bounded.iter().collect::<Vec<_>>(),
                full.iter().take(cut).collect::<Vec<_>>(),
                "seed {seed}: k = {k}"
            );
        }
    }
}

/// One MEET of the differential: terms, `WITHIN`, `LIMIT`.
type MeetCase = (Vec<String>, Option<usize>, Option<usize>);

/// Listing 2 over `%` for `case`, written out here rather than by the
/// server's desugaring, with every literal single-quoted (an `'` in a
/// term doubled), optionally addressed to a corpus.
fn listing2((terms, within, limit): &MeetCase, corpus: Option<&str>) -> String {
    let vars: Vec<String> = (0..terms.len()).map(|i| format!("t{i}")).collect();
    let mut sql = format!("select meet({})", vars.join(", "));
    if let Some(d) = within {
        sql += &format!(" within {d}");
    }
    sql += " from ";
    if let Some(name) = corpus {
        sql += &format!("corpus({name}), ");
    }
    let bindings: Vec<String> = vars.iter().map(|v| format!("% as {v}")).collect();
    sql += &bindings.join(", ");
    for (i, (var, term)) in vars.iter().zip(terms).enumerate() {
        let word = if i == 0 { "where" } else { "and" };
        sql += &format!(" {word} {var} contains '{}'", term.replace('\'', "''"));
    }
    if let Some(k) = limit {
        sql += &format!(" limit {k}");
    }
    sql
}

/// Terms drawn from a corpus's own strings: words, case folds,
/// substrings, phrases, absent terms (some holding quotes) and
/// duplicates of an earlier term.
fn draw_terms(rng: &mut StdRng, strings: &[String]) -> Vec<String> {
    const ABSENT: [&str; 3] = ["qqabsentqq", "it's", r#"say "hi" it's"#];
    let mut terms: Vec<String> = Vec::new();
    for _ in 0..rng.random_range(1usize..4) {
        let text = &strings[rng.random_range(0..strings.len())];
        let words: Vec<&str> = text.split_whitespace().collect();
        let at = rng.random_range(0..words.len());
        let word = words[at];
        let term = match rng.random_range(0..7usize) {
            0 | 1 => word.to_owned(),
            2 => word.to_uppercase(),
            3 if word.len() > 3 && word.is_ascii() => word[1..word.len() - 1].to_owned(),
            4 if at + 1 < words.len() => format!("{word} {}", words[at + 1]),
            5 => ABSENT[rng.random_range(0..ABSENT.len())].to_owned(),
            6 if !terms.is_empty() => terms[rng.random_range(0..terms.len())].clone(),
            _ => word.to_owned(),
        };
        terms.push(term);
    }
    terms
}

/// Random cases over `db`'s strings, each with and without `WITHIN`
/// and `LIMIT`.
fn draw_cases(rng: &mut StdRng, db: &Database, n: usize) -> Vec<MeetCase> {
    let store = db.store();
    let strings: Vec<String> = store
        .string_paths()
        .flat_map(|p| store.strings_of(p).iter().map(|(_, s)| s.to_owned()))
        .filter(|s| !s.trim().is_empty())
        .take(400)
        .collect();
    if strings.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|_| {
            let terms = draw_terms(rng, &strings);
            let within = rng.random_bool().then(|| rng.random_range(0usize..6));
            let limit = rng.random_bool().then(|| rng.random_range(1usize..4));
            (terms, within, limit)
        })
        .collect()
}

fn answers_xml(output: QueryOutput) -> String {
    match output {
        QueryOutput::Answers(answers) => answers.to_detailed_xml(),
        QueryOutput::Rows(rows) => format!("rows {rows:?}"),
    }
}

fn response_xml(response: Response) -> String {
    match response {
        Response::Answers(answers) => answers.to_detailed_xml(),
        other => format!("{other:?}"),
    }
}

/// The MEET verb and its Listing-2 form answer byte-identically, one
/// term or many: `Database::meet_terms_with` is the reference, and the
/// SQL form runs locally, through a forest (`from corpus(name)` in the
/// text and `USE name` as the session, with the MEET verb beside it)
/// and through a loopback remote engine. Corpora: Figure 1, random
/// trees with attribute hits, DBLP, and the multimedia corpus's planted
/// `(d, k)` probes.
#[test]
fn meet_verb_and_its_sql_form_answer_byte_identically() {
    let mut rng = StdRng::seed_from_u64(0x1157_0002);
    let mut corpora: Vec<(String, Database, Vec<MeetCase>)> = Vec::new();
    let figure1 = Database::from_xml_str(FIGURE1_XML).unwrap();
    let mut cases = draw_cases(&mut rng, &figure1, 40);
    cases.extend(
        [
            (&["Bit", "1999"][..], None, None),
            (&["Ben", "RSI"], Some(4), None),
            (&["Ben", "RSI"], Some(5), None),
            (&["Bit"], None, None),
            (&["Bob", "Byte", "Ben", "Bit"], Some(9), Some(2)),
        ]
        .map(|(terms, within, limit)| {
            let terms = terms.iter().map(|t| t.to_string()).collect();
            (terms, within, limit)
        }),
    );
    corpora.push(("fig1".to_owned(), figure1, cases));
    for seed in 0..40 {
        // `key` attributes too, so hits land on attribute paths.
        let db =
            Database::from_document(&ncq_oracle::random_tree(&mut rng, &TreeDraw::TEXT_AND_KEYS));
        let cases = draw_cases(&mut rng, &db, 8);
        corpora.push((format!("tree{seed}"), db, cases));
    }
    let dblp = Database::from_document(
        &DblpCorpus::generate(&DblpConfig {
            papers_per_edition: 2,
            journal_articles_per_year: 1,
            ..DblpConfig::default()
        })
        .document,
    );
    let cases = draw_cases(&mut rng, &dblp, 40);
    corpora.push(("dblp".to_owned(), dblp, cases));
    let config = MultimediaConfig {
        noise_items: 30,
        max_distance: 8,
        probes_per_distance: 2,
        ..MultimediaConfig::default()
    };
    let multimedia = Database::from_document(&MultimediaCorpus::generate(&config).document);
    let mut cases = draw_cases(&mut rng, &multimedia, 20);
    for d in 0..=config.max_distance {
        for k in 0..config.probes_per_distance {
            let (a, b) = MultimediaCorpus::marker_terms(d, k);
            for within in [None, Some(d), d.checked_sub(1)] {
                cases.push((vec![a.clone(), b.clone()], within, None));
            }
            cases.push((vec![a.clone()], None, Some(1)));
        }
    }
    corpora.push(("multimedia".to_owned(), multimedia, cases));

    let mut catalog = Catalog::new();
    for (name, db, _) in &corpora {
        catalog
            .add(name, Arc::new(db.clone()) as Arc<dyn MeetBackend>)
            .unwrap();
    }
    let forest = ForestBackend::new(catalog).unwrap();
    let server = Server::start_backend(Arc::new(forest.clone()), ServerConfig::default());
    let client = server.client();

    let mut checked = 0usize;
    let mut differences: Vec<String> = Vec::new();
    for (name, db, cases) in &corpora {
        let engine = RemoteEngine::bind(
            "127.0.0.1:0",
            Arc::new(db.clone()) as Arc<dyn MeetBackend>,
            EngineConfig::default(),
        )
        .unwrap();
        let remote = RemoteBackend::new(
            db.clone(),
            &[engine.local_addr().to_string()],
            RemoteConfig::default(),
        )
        .unwrap();
        for case in cases {
            let (terms, within, limit) = case;
            let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
            let options = MeetOptions {
                max_distance: *within,
                limit: *limit,
                ..MeetOptions::default()
            };
            let expected = db
                .meet_terms_with(&refs, &options)
                .unwrap()
                .to_detailed_xml();
            let sql = listing2(case, None);
            let run = |backend: &dyn MeetBackend, text: &str| match run_query(backend, text) {
                Ok(output) => answers_xml(output),
                Err(e) => format!("error: {e}"),
            };
            let meet = Request::MeetTerms {
                terms: terms.clone(),
                within: *within,
                limit: *limit,
                corpus: Some(name.clone()),
            };
            let routes = [
                ("local SQL", run(db, &sql)),
                ("forest SQL", run(&forest, &listing2(case, Some(name)))),
                ("remote SQL", run(&remote, &sql)),
                ("USE MEET", response_xml(client.request(meet).unwrap())),
                (
                    "USE SQL",
                    response_xml(
                        client
                            .request(Request::sql(sql.clone()).with_corpus(Some(name.clone())))
                            .unwrap(),
                    ),
                ),
            ];
            for (route, actual) in routes {
                checked += 1;
                if actual != expected {
                    differences.push(format!(
                        "{name} {route}: MEET {terms:?} within {within:?} limit {limit:?}\n  \
                         {sql}\n--- MEET ---\n{expected}\n--- {route} ---\n{actual}"
                    ));
                }
            }
        }
        engine.shutdown();
    }
    server.shutdown();
    assert!(checked > 2000, "only {checked} comparisons");
    assert!(
        differences.is_empty(),
        "{} of {checked} comparisons differ; the first:\n{}",
        differences.len(),
        differences[..differences.len().min(3)].join("\n\n")
    );
}
