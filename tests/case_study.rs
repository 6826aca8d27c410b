//! The DBLP case study end to end (paper §5 / Figure 7), on the synthetic
//! corpus.

use nearest_concept::core::{distance, graph_distance, MeetOptions, PathFilter};
use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::fulltext::HitSet;
use nearest_concept::store::Oid;
use nearest_concept::{Database, RefGraph, Thesaurus};
use std::collections::HashSet;

fn setup() -> (Database, DblpCorpus) {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 10,
        journal_articles_per_year: 4,
        ..DblpConfig::default()
    });
    (Database::from_document(&corpus.document), corpus)
}

fn interval_inputs(db: &Database, year_from: u16, year_to: u16) -> [HitSet; 2] {
    let mut years = HitSet::new();
    for y in year_from..=year_to {
        years.union(&db.search_word(&y.to_string()));
    }
    [db.search_word("ICDE"), years]
}

fn case_study(db: &Database, year_from: u16, year_to: u16) -> Vec<nearest_concept::core::Meet> {
    let options = MeetOptions {
        filter: PathFilter::exclude_root(db.store()),
        ..MeetOptions::default()
    };
    db.meet_hits(&interval_inputs(db, year_from, year_to), &options)
}

fn answer_nodes(meets: &[nearest_concept::core::Meet]) -> HashSet<Oid> {
    meets.iter().map(|m| m.node).collect()
}

#[test]
fn single_year_returns_that_years_icde_publications() {
    let (db, corpus) = setup();
    let meets = case_study(&db, 1999, 1999);
    let expected: usize = corpus
        .editions
        .iter()
        .filter(|(c, y, _)| c == "ICDE" && *y == 1999)
        .map(|(_, _, n)| n + 1) // papers + the proceedings record
        .sum();
    assert_eq!(meets.len(), expected);
    // Every answer really is an ICDE record of 1999.
    let store = db.store();
    for m in &meets {
        let tag = store.label(m.node);
        assert!(
            tag == "inproceedings" || tag == "proceedings",
            "unexpected result type {tag}"
        );
        let text = nearest_concept::store::ObjectView::deep_text(store, m.node);
        assert!(text.contains("1999"), "answer must be a 1999 record");
        assert!(text.contains("ICDE") || text.contains("Proceedings of the ICDE"));
    }
}

#[test]
fn year_without_icde_returns_nothing() {
    let (db, _) = setup();
    // No ICDE in 1985 → no ICDE publication meets for that single year.
    let meets = case_study(&db, 1985, 1985);
    assert!(meets.is_empty(), "got {} unexpected meets", meets.len());
}

#[test]
fn full_interval_matches_paper_structure() {
    let (db, corpus) = setup();
    let meets = case_study(&db, 1984, 1999);
    let icde_records: usize = corpus
        .editions
        .iter()
        .filter(|(c, _, _)| c == "ICDE")
        .map(|(_, _, n)| n + 1)
        .sum();
    // All ICDE records of the interval + exactly the two planted false
    // positives ("just two false positives", paper §5).
    assert_eq!(meets.len(), icde_records + 2);
    let store = db.store();
    let fp: Vec<String> = meets
        .iter()
        .map(|m| store.label(m.node))
        .filter(|t| t == "article")
        .collect();
    assert_eq!(fp.len(), 2);

    // The §4 restrictions only remove answers here. meet_Π drops exactly
    // the root.
    let inputs = interval_inputs(&db, 1984, 1999);
    let unrestricted = answer_nodes(&db.meet_hits(&inputs, &MeetOptions::default()));
    let pi = answer_nodes(&meets);
    assert!(pi.is_subset(&unrestricted));
    let extra: Vec<Oid> = unrestricted.difference(&pi).copied().collect();
    assert_eq!(extra, [store.root()]);
    assert_eq!((pi.len(), unrestricted.len()), (167, 168));
    // meet^δ adds no answer: a record's hits are 4 apart, the root's
    // closest pair 6.
    let mut sizes = Vec::new();
    for delta in [0, 1, 2, 3, 4, 6] {
        let options = MeetOptions {
            max_distance: Some(delta),
            ..MeetOptions::default()
        };
        let bounded = answer_nodes(&db.meet_hits(&inputs, &options));
        assert!(bounded.is_subset(&unrestricted), "δ={delta}");
        sizes.push(bounded.len());
    }
    assert_eq!(sizes, [0, 0, 0, 0, 167, 168]);
}

#[test]
fn cardinality_grows_monotonically_with_the_interval() {
    let (db, _) = setup();
    let mut last = 0usize;
    for year_from in (1984u16..=1999).rev() {
        let n = case_study(&db, year_from, 1999).len();
        assert!(n >= last, "shrank at {year_from}");
        last = n;
    }
    // Fig. 7's flat step: there was no ICDE in 1985.
    let n = |year_from| case_study(&db, year_from, 1999).len();
    assert_eq!(n(1985), n(1986), "1985 must add nothing");
    assert!(n(1984) > n(1985), "1984 must add its edition");
}

#[test]
fn crossref_edges_only_shorten_routes() {
    // Future work (§3.2): IDREF edges overlaid on the tree. Probe 64 ICDE
    // hits against 4 proceedings titles.
    let (db, corpus) = setup();
    let store = db.store();
    let graph = RefGraph::from_key_references(store, "key", "crossref");
    assert_eq!(graph.len(), corpus.inproceedings);
    let sources: Vec<Oid> = db
        .search_word("ICDE")
        .iter()
        .map(|(_, o)| o)
        .take(64)
        .collect();
    let targets: Vec<Oid> = db
        .search_word("Proceedings")
        .iter()
        .map(|(_, o)| o)
        .take(4)
        .collect();
    let mut shortcuts = 0;
    for &s in &sources {
        for &t in &targets {
            let (tree, via_refs) = (distance(store, s, t), graph_distance(store, &graph, s, t));
            assert!(via_refs <= tree, "{s:?} {t:?}");
            shortcuts += usize::from(via_refs < tree);
        }
    }
    assert_eq!((sources.len() * targets.len(), shortcuts), (256, 10));
}

#[test]
fn thesaurus_broadening_grows_hits_and_answers() {
    // Future work (§4): broaden "ICDE" with the synonym "EDBT".
    let (db, _) = setup();
    let mut thesaurus = Thesaurus::new();
    thesaurus.add_synonyms(&["ICDE", "EDBT"]);
    let narrow = db.search_word("ICDE");
    let broad = db.search_expanded("ICDE", &thesaurus);
    let year = db.search_word("1999");
    let answers = |term: &HitSet| db.meet_hits(&[term, &year], &MeetOptions::default()).len();
    assert_eq!(
        (narrow.len(), broad.len(), answers(&narrow), answers(&broad)),
        (167, 343, 12, 23)
    );
}

#[test]
fn meets_identify_records_not_fields() {
    let (db, _) = setup();
    let meets = case_study(&db, 1999, 1999);
    let store = db.store();
    for m in &meets {
        // Record elements are direct children of the dblp root.
        assert_eq!(store.parent(m.node), Some(store.root()));
        // Their witnesses are the booktitle/title hit and the year hit.
        assert!(m.witness_count >= 2);
    }
}
