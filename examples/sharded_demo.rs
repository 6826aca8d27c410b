//! End-to-end sharded deployment: partition the DBLP substitute, serve
//! it through the `ncq-server` worker pool via the `MeetBackend`
//! dispatch, and talk to it over a real TCP socket.
//!
//! ```text
//! cargo run --release --example sharded_demo
//! ```

use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::server::{NetConfig, Server, ServerConfig, TcpAcceptor};
use nearest_concept::{Database, MeetBackend, MeetOptions, ShardedDb};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn main() {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 40,
        journal_articles_per_year: 8,
        ..DblpConfig::default()
    });
    let db = Arc::new(Database::from_document(&corpus.document));
    println!(
        "corpus: {} objects, {} paths",
        db.store().node_count(),
        db.store().summary().len()
    );

    // Partition into 4 shards; the spine (ancestors of every chunk
    // root) is the only replicated state.
    let sharded = ShardedDb::new(Arc::clone(&db), 4);
    println!(
        "partition: {} shards, {} spine nodes, {} scatter workers",
        sharded.shard_count(),
        sharded.partition().spine_len(),
        sharded.worker_count()
    );
    for (i, s) in sharded.partition().shards().iter().enumerate() {
        println!(
            "  shard {i}: {} chunks, {} nodes, mass {}, oid range {:?}",
            s.roots.len(),
            s.nodes,
            s.mass,
            s.range
        );
    }

    // The same query through both engines — answers are identical.
    let single = db.meet_terms(&["ICDE", "1995"]).expect("meet");
    let scattered = sharded
        .meet_terms_answers(&["ICDE", "1995"], &MeetOptions::default())
        .expect("meet");
    assert_eq!(single.to_detailed_xml(), scattered.to_detailed_xml());
    println!(
        "meet(ICDE, 1995): {} answers, first = <{}> (identical on both engines)",
        scattered.len(),
        scattered.results.first().map_or("-", |r| r.tag.as_str())
    );

    // Serve the sharded engine through the unchanged worker pool, over
    // a real socket.
    let server = Server::start_backend(Arc::new(sharded), ServerConfig::default());
    let acceptor = TcpAcceptor::bind(
        "127.0.0.1:0",
        server.client(),
        NetConfig {
            max_connections: 8,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = acceptor.local_addr();
    println!("serving on {addr}");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"MEET ICDE 1995\nSEARCH ICDE\nSTATS\nQUIT\n")
        .expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let head: Vec<&str> = response.lines().take(3).collect();
    println!("wire response head: {head:?}");
    let stats_at = response
        .lines()
        .position(|l| l.starts_with("served="))
        .expect("stats frame");
    for line in response.lines().skip(stats_at).take(7) {
        println!("  {line}");
    }

    acceptor.shutdown();
    let stats = server.shutdown();
    println!(
        "served {} requests, shed {} ({:.1}% shed rate)",
        stats.served,
        stats.shed,
        100.0 * stats.shed_rate()
    );
}
