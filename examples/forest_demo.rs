//! Demonstrates forest serving: build three corpora (DBLP substitute,
//! multimedia substitute, a deep fork forest), snapshot each, describe
//! them in a versioned manifest, cold-start a whole multi-corpus service from the manifest file, and
//! drive it over TCP — `CORPORA`, `USE`, corpus-routed `MEET`/`SQL`,
//! the `USE *` fan-out, a per-corpus hot swap, and the per-corpus
//! `STATS` lines.
//!
//! ```text
//! cargo run --release --example forest_demo
//! ```

use nearest_concept::datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};
use nearest_concept::server::{NetConfig, Server, ServerConfig, TcpAcceptor};
use nearest_concept::store::manifest::{Manifest, ManifestEntry};
use nearest_concept::Database;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

fn deep_xml(depth: usize, pairs: usize) -> String {
    let mut xml = String::from("<root>");
    for _ in 0..pairs {
        xml.push_str("<h>");
        for _ in 0..depth {
            xml.push_str("<x>");
        }
        xml.push_str("<a>s</a>");
        for _ in 0..depth {
            xml.push_str("</x>");
        }
        for _ in 0..depth {
            xml.push_str("<y>");
        }
        xml.push_str("<b>t</b>");
        for _ in 0..depth {
            xml.push_str("</y>");
        }
        xml.push_str("</h>");
    }
    xml.push_str("</root>");
    xml
}

fn main() {
    let dir = std::env::temp_dir().join("ncq-forest-demo");
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Three corpora with distinct shapes.
    let dblp = Database::from_document(
        &DblpCorpus::generate(&DblpConfig {
            papers_per_edition: 20,
            journal_articles_per_year: 5,
            ..DblpConfig::default()
        })
        .document,
    );
    let multimedia = Database::from_document(
        &MultimediaCorpus::generate(&MultimediaConfig {
            noise_items: 400,
            ..MultimediaConfig::default()
        })
        .document,
    );
    let deep = Database::from_xml_str(&deep_xml(48, 200)).expect("deep corpus");

    // Snapshot each corpus.
    let dblp_snap = dir.join("dblp.ncq");
    let mm_snap = dir.join("multimedia.ncq");
    let deep_snap = dir.join("deep.ncq");
    dblp.save_snapshot(&dblp_snap).expect("save dblp");
    multimedia.save_snapshot(&mm_snap).expect("save multimedia");
    deep.save_snapshot(&deep_snap).expect("save deep");

    // One manifest names the forest: corpus -> snapshot, whole-file
    // checksum, layout version.
    let mut manifest = Manifest::new();
    for (name, path) in [
        ("dblp", &dblp_snap),
        ("multimedia", &mm_snap),
        ("deep", &deep_snap),
    ] {
        manifest
            .push(ManifestEntry::describe(name, path).expect("describe"))
            .expect("push");
    }
    let mpath = dir.join("forest.ncqm");
    manifest.save(&mpath).expect("save manifest");
    println!(
        "manifest: {} corpora, {} bytes at {}",
        manifest.corpora.len(),
        std::fs::metadata(&mpath).map(|m| m.len()).unwrap_or(0),
        mpath.display()
    );

    // Cold-start the whole forest service from the manifest file.
    let t = Instant::now();
    let server = Server::open_manifest(
        &mpath,
        ServerConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("open manifest");
    println!(
        "forest cold start: {} + {} + {} objects in {:.1?}",
        dblp.store().node_count(),
        multimedia.store().node_count(),
        deep.store().node_count(),
        t.elapsed()
    );

    let acceptor =
        TcpAcceptor::bind("127.0.0.1:0", server.client(), NetConfig::default()).expect("bind");
    println!("serving the forest on {}", acceptor.local_addr());

    let mut stream = TcpStream::connect(acceptor.local_addr()).expect("connect");
    stream
        .write_all(
            b"CORPORA\n\
              USE deep\n\
              MEET s t\n\
              USE multimedia\n\
              SQL select meet(a, b) from corpus(dblp), dblp/% as a, dblp/% as b \
              where a contains 'ICDE' and b contains '1995'\n\
              USE *\n\
              SEARCH 1999\n\
              SNAPSHOT LOAD multimedia.ncq INTO multimedia\n\
              STATS\n\
              QUIT\n",
        )
        .expect("send");
    let mut reply = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_to_string(&mut reply)
        .ok();
    // Elide the big answer payloads (XML lines); keep the frames and
    // control lines.
    println!("--- TCP session (answer XML elided) ---");
    for line in reply.lines() {
        if !line.starts_with(' ') && !line.starts_with('<') {
            println!("{line}");
        }
    }

    acceptor.shutdown();
    server.shutdown();
    for p in [&dblp_snap, &mm_snap, &deep_snap, &mpath] {
        std::fs::remove_file(p).ok();
    }
}
