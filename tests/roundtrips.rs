//! Cross-crate round trips: generated corpora survive serialization,
//! re-parsing and re-loading; stores built from either copy agree on
//! meets.

use nearest_concept::datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};
use nearest_concept::store::MonetDb;
use nearest_concept::xml::{parse, write_document, WriteOptions};
use nearest_concept::Database;

#[test]
fn dblp_survives_write_parse_load() {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 4,
        journal_articles_per_year: 2,
        ..DblpConfig::default()
    });
    let xml = write_document(&corpus.document, WriteOptions::default());
    let reparsed = parse(&xml).expect("generated XML re-parses");
    assert!(corpus.document.structural_eq(&reparsed));

    let a = MonetDb::from_document(&corpus.document);
    let b = MonetDb::from_document(&reparsed);
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.summary().len(), b.summary().len());
    let sa = a.stats();
    let sb = b.stats();
    assert_eq!(sa, sb);
}

#[test]
fn multimedia_survives_pretty_printing() {
    let corpus = MultimediaCorpus::generate(&MultimediaConfig {
        noise_items: 20,
        max_distance: 6,
        probes_per_distance: 1,
        ..MultimediaConfig::default()
    });
    let pretty = write_document(
        &corpus.document,
        WriteOptions {
            indent: Some(2),
            declaration: true,
        },
    );
    let reparsed = parse(&pretty).expect("pretty XML re-parses");
    assert!(corpus.document.structural_eq(&reparsed));
}

#[test]
fn meets_agree_across_serialization() {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 5,
        journal_articles_per_year: 2,
        ..DblpConfig::default()
    });
    let db1 = Database::from_document(&corpus.document);
    let xml = write_document(&corpus.document, WriteOptions::default());
    let db2 = Database::from_xml_str(&xml).unwrap();

    for terms in [
        vec!["ICDE", "1999"],
        vec!["VLDB", "1990"],
        vec!["Schmidt", "1995"],
    ] {
        let a = db1.meet_terms(&terms).unwrap();
        let b = db2.meet_terms(&terms).unwrap();
        assert_eq!(a.tags(), b.tags(), "terms {terms:?}");
        let da: Vec<usize> = a.iter().map(|r| r.distance).collect();
        let db_: Vec<usize> = b.iter().map(|r| r.distance).collect();
        assert_eq!(da, db_, "terms {terms:?}");
    }
}

#[test]
fn facade_reexports_cover_the_stack() {
    // The facade must expose every layer (compile-time check, executed
    // for completeness).
    let db = Database::from_xml_str("<a><b>x</b></a>").unwrap();
    let _: &nearest_concept::store::MonetDb = db.store();
    let _: &nearest_concept::fulltext::InvertedIndex = db.index();
    let hits: nearest_concept::fulltext::HitSet = db.search("x");
    assert_eq!(hits.len(), 1);
    let answers: nearest_concept::AnswerSet = db.meet_terms(&["x"]).unwrap();
    assert!(answers.is_empty()); // one lone hit never meets
}
