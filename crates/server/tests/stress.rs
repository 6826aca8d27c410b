//! Concurrency stress: many client threads firing mixed meet / search /
//! projection queries at a live server must get byte-identical answers
//! to a single-threaded `run_query` evaluation, and a saturated
//! admission queue must shed or drain — never deadlock.
//!
//! Workloads run over the two datagen corpora of the paper's evaluation
//! (the DBLP substitute and the multimedia substitute), exactly the
//! online query-at-a-time shape the XML IR literature frames for
//! loosely-structured search.

use ncq_core::Database;
use ncq_datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};
use ncq_query::{run_query_opts, QueryConfig, QueryOptions, QueryOutput};
use ncq_server::{Request, Response, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::thread;

const CLIENT_THREADS: usize = 8;

fn dblp_db() -> Arc<Database> {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 6,
        journal_articles_per_year: 2,
        ..DblpConfig::default()
    });
    Arc::new(Database::from_document(&corpus.document))
}

fn multimedia_db() -> Arc<Database> {
    let corpus = MultimediaCorpus::generate(&MultimediaConfig {
        noise_items: 60,
        ..MultimediaConfig::default()
    });
    Arc::new(Database::from_document(&corpus.document))
}

/// Terms guaranteed to hit: whole words harvested from the corpus's own
/// string relations.
fn corpus_terms(db: &Database, want: usize) -> Vec<String> {
    let store = db.store();
    let mut terms = Vec::new();
    'outer: for p in store.string_paths() {
        for (_, text) in store.strings_of(p).iter() {
            if let Some(word) = text.split_whitespace().next() {
                let word: String = word.chars().filter(|c| c.is_alphanumeric()).collect();
                if word.len() >= 2 && !terms.contains(&word) {
                    terms.push(word);
                    if terms.len() >= want {
                        break 'outer;
                    }
                }
            }
        }
    }
    assert!(terms.len() >= 2, "corpus must yield search terms");
    terms
}

/// The request mix one corpus serves, with single-threaded reference
/// responses computed exactly the way the server evaluates them.
fn request_mix(db: &Database, terms: &[String]) -> Vec<(Request, Response)> {
    let root_tag = db.store().label(db.store().root());
    let mut mix: Vec<Request> = Vec::new();
    for pair in terms.windows(2) {
        mix.push(Request::meet_terms([pair[0].clone(), pair[1].clone()]));
        mix.push(Request::MeetTerms {
            terms: vec![pair[0].clone(), pair[1].clone()],
            within: Some(6),
            limit: None,
            corpus: None,
        });
        mix.push(Request::search(pair[0].clone()));
        mix.push(Request::sql(format!(
            "select meet(a, b) from {root_tag}/% as a, {root_tag}/% as b \
             where a contains '{}' and b contains '{}'",
            pair[0], pair[1]
        )));
    }
    // A projection (rows, not answers) and a deliberate parse error.
    mix.push(Request::sql(format!("select t from {root_tag}/* as t")));
    mix.push(Request::sql("select broken ((".to_owned()));

    mix.into_iter()
        .map(|request| {
            let expected = reference(db, &request);
            (request, expected)
        })
        .collect()
}

/// Single-threaded reference evaluation (same options as the server's
/// defaults: default meet options, 10k row limit).
fn reference(db: &Database, request: &Request) -> Response {
    match request {
        Request::MeetTerms { terms, within, .. } => {
            let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
            let options = ncq_core::MeetOptions {
                max_distance: *within,
                ..ncq_core::MeetOptions::default()
            };
            Response::Answers(db.meet_terms_with(&refs, &options).unwrap())
        }
        Request::Sql { src, .. } => {
            let options = QueryOptions {
                config: QueryConfig { max_rows: 10_000 },
                ..QueryOptions::default()
            };
            match run_query_opts(db, src, &options) {
                Ok(QueryOutput::Answers(a)) => Response::Answers(a),
                Ok(QueryOutput::Rows(r)) => Response::Rows(r),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Search { term, .. } => Response::Count(db.search(term).len()),
        // The stress mix is query-only; snapshot and catalog control
        // requests are covered by the unit and protocol suites.
        Request::SnapshotSave { .. } | Request::SnapshotLoad { .. } | Request::Corpora => {
            unreachable!("control requests are not part of the stress mix")
        }
    }
}

fn stress_one_corpus(db: Arc<Database>, label: &str) {
    let terms = corpus_terms(&db, 6);
    let mix = Arc::new(request_mix(&db, &terms));
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            max_in_flight: 64,
            ..ServerConfig::default()
        },
    );

    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let client = server.client();
            let mix = Arc::clone(&mix);
            let label = label.to_owned();
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xD00D + t as u64);
                for i in 0..40 {
                    let (request, expected) = &mix[rng.random_range(0..mix.len())];
                    let got = client.request(request.clone()).unwrap();
                    assert_eq!(
                        &got, expected,
                        "{label}: thread {t} iteration {i} diverged on {request:?}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }

    let stats = server.shutdown();
    assert_eq!(
        stats.served,
        CLIENT_THREADS * 40,
        "{label}: every request answered"
    );
    assert!(stats.batches > 0);
}

#[test]
fn dblp_concurrent_answers_match_single_threaded() {
    stress_one_corpus(dblp_db(), "dblp");
}

#[test]
fn multimedia_concurrent_answers_match_single_threaded() {
    stress_one_corpus(multimedia_db(), "multimedia");
}

/// Saturation: a tiny admission queue under far more offered load than
/// capacity. Blocking clients must all drain (no deadlock), and
/// non-blocking admission must shed with `Saturated` instead of
/// stalling.
#[test]
fn saturated_admission_queue_never_deadlocks() {
    let db = dblp_db();
    let terms = corpus_terms(&db, 3);
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            max_in_flight: 2,
            ..ServerConfig::default()
        },
    );

    let handles: Vec<_> = (0..12)
        .map(|t| {
            let client = server.client();
            let term = terms[t % terms.len()].clone();
            thread::spawn(move || {
                let mut served = 0usize;
                let mut shed = 0usize;
                for i in 0..30 {
                    let request = Request::search(term.clone());
                    if i % 3 == 0 {
                        // Non-blocking admission may shed under saturation.
                        match client.try_request(request) {
                            Ok(Response::Count(_)) => served += 1,
                            Ok(other) => panic!("unexpected {other:?}"),
                            Err(ncq_server::ServerError::Saturated) => shed += 1,
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    } else {
                        match client.request(request) {
                            Ok(Response::Count(_)) => served += 1,
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                }
                (served, shed)
            })
        })
        .collect();

    let mut total_served = 0usize;
    for h in handles {
        let (served, shed) = h.join().expect("client thread panicked");
        assert_eq!(served + shed, 30);
        total_served += served;
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, total_served);
    // Blocking requests (2/3 of the offered load) always complete.
    assert!(total_served >= 12 * 20);
}
