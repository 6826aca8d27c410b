//! Demonstrates persistent snapshots: build the DBLP substitute once,
//! save it to the versioned binary snapshot, cold-start a fresh engine
//! from the file (no parse, no index preprocess), and serve it over
//! TCP — printing the cold-start timings side by side.
//!
//! ```text
//! cargo run --release --example snapshot_demo [-- SNAPSHOT_PATH]
//! ```
//!
//! With an explicit `SNAPSHOT_PATH` the demo only builds and saves
//! (twice is byte-identical — the CI `snapshot-compat` job runs it
//! with two paths and `cmp`s the files).

use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::server::{NetConfig, Server, ServerConfig, TcpAcceptor};
use nearest_concept::xml::{write_document, WriteOptions};
use nearest_concept::Database;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

fn main() {
    let out = std::env::args().nth(1);
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 20,
        journal_articles_per_year: 5,
        ..DblpConfig::default()
    });
    let xml = write_document(&corpus.document, WriteOptions::default());

    // Warm build: the pipeline every process start used to pay.
    let t = Instant::now();
    let db = Database::from_xml_str(&xml).expect("corpus parses");
    db.store().meet_index();
    let build_time = t.elapsed();
    println!(
        "parse+build: {} objects, {} tokens in {:.1?}",
        db.store().node_count(),
        db.index().vocabulary_size(),
        build_time
    );

    let path = std::env::temp_dir().join("ncq-snapshot-demo.ncq");
    let path = out.as_deref().map(Into::into).unwrap_or(path);
    let t = Instant::now();
    db.save_snapshot(&path).expect("save snapshot");
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "saved {} bytes to {} in {:.1?}",
        snapshot_bytes,
        path.display(),
        t.elapsed()
    );
    if out.is_some() {
        // CI determinism mode: save only (run twice, `cmp` the files).
        return;
    }
    drop(db);

    // Cold start from the file alone.
    let t = Instant::now();
    let cold = Database::open_snapshot(&path).expect("load snapshot");
    let load_time = t.elapsed();
    println!(
        "snapshot cold start: {} objects in {:.1?} ({:.1}x faster than parse+build)",
        cold.store().node_count(),
        load_time,
        build_time.as_secs_f64() / load_time.as_secs_f64()
    );

    // Serve the cold-started engine over TCP (Server::open_snapshot
    // wraps exactly this load).
    let server = Server::open_snapshot(&path, ServerConfig::default()).expect("cold server");
    let acceptor =
        TcpAcceptor::bind("127.0.0.1:0", server.client(), NetConfig::default()).expect("bind");
    println!(
        "serving snapshot-loaded engine on {}",
        acceptor.local_addr()
    );

    let mut stream = TcpStream::connect(acceptor.local_addr()).expect("connect");
    stream
        .write_all(b"SEARCH ICDE\nMEET ICDE 1995 WITHIN 8\nQUIT\n")
        .expect("send");
    let mut reply = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_to_string(&mut reply)
        .ok();
    println!("--- TCP session ---\n{reply}");

    acceptor.shutdown();
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
