//! Demonstrates `ncq-server`: a concurrent query service over the DBLP
//! substitute corpus, driven both through the blocking client handle
//! (from several threads, each evaluating its own requests) and through
//! the line protocol.
//!
//! ```text
//! cargo run --release --example server_demo
//! ```

use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::server::{serve_lines, Request, Response, Server, ServerConfig};
use nearest_concept::Database;
use std::sync::Arc;
use std::thread;

fn main() {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 20,
        journal_articles_per_year: 5,
        ..DblpConfig::default()
    });
    let db = Arc::new(Database::from_document(&corpus.document));
    println!(
        "loaded DBLP substitute: {} objects, {} records",
        db.store().node_count(),
        corpus.records()
    );

    let config = ServerConfig::default();
    println!("serving at most {} requests at once", config.max_in_flight);
    let server = Server::start(Arc::clone(&db), config);

    // --- concurrent clients over the blocking handle ---
    let years = ["1994", "1995", "1996", "1997"];
    let handles: Vec<_> = years
        .iter()
        .map(|year| {
            let client = server.client();
            let year = year.to_string();
            thread::spawn(move || {
                let answers = client.meet_terms(["ICDE", &year]).expect("query served");
                (year, answers.len())
            })
        })
        .collect();
    for h in handles {
        let (year, n) = h.join().expect("client thread");
        println!("meet(ICDE, {year}): {n} nearest concepts");
    }

    // --- the same queries through the line protocol ---
    let session = "PING\nSEARCH ICDE\nMEET ICDE 1995 WITHIN 8\nQUIT\n";
    let mut out = Vec::new();
    serve_lines(&server.client(), session.as_bytes(), &mut out).expect("in-memory transport");
    println!("--- line protocol session ---");
    print!("{}", String::from_utf8_lossy(&out));

    // --- one SQL round trip ---
    match server
        .client()
        .request(Request::sql(
            "select meet(a, b) within 10 from dblp/% as a, dblp/% as b \
             where a contains 'ICDE' and b contains '1995'",
        ))
        .expect("query served")
    {
        Response::Answers(a) => println!(
            "SQL meet: {} answers, top tag {:?}",
            a.len(),
            a.tags().first().copied().unwrap_or("-")
        ),
        other => println!("SQL gave {other:?}"),
    }

    let stats = server.shutdown();
    println!(
        "served {} requests; {} term decodes, {} term cache hits, {} result cache hits",
        stats.served, stats.term_decodes, stats.term_cache_hits, stats.sem_hits
    );
}
