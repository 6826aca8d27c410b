//! The future-work extensions of the paper, exercised together: meets
//! over IDREF-broken structures (crossref edges) and thesaurus-broadened
//! searches.
//!
//! ```sh
//! cargo run --release --example references
//! ```

use nearest_concept::core::{distance, graph_distance};
use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::{AnswerSet, Database, RefGraph, Thesaurus};

fn main() {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition: 10,
        journal_articles_per_year: 3,
        ..DblpConfig::default()
    });
    let db = Database::from_document(&corpus.document);
    let store = db.store();

    // --- IDREF graph meets -------------------------------------------
    // Every inproceedings carries <crossref>conf/xxxNN</crossref>
    // pointing at its proceedings' key attribute — references that
    // "break the tree structure" (paper §3.2).
    let graph = RefGraph::from_key_references(store, "key", "crossref");
    println!(
        "reference overlay: {} crossref edges over {} objects",
        graph.len(),
        store.node_count()
    );

    // A paper's booktitle and its proceedings' title are far apart in
    // the tree but close through the reference edge.
    let paper_bt = db
        .search_word("ICDE")
        .iter()
        .find(|(p, _)| store.relation_name(*p).contains("booktitle"))
        .unwrap()
        .1;
    let proc_title = db
        .search_word("Proceedings")
        .iter()
        .find(|(p, _)| store.relation_name(*p).contains("proceedings/title"))
        .unwrap()
        .1;
    println!(
        "tree distance booktitle→proceedings-title: {}",
        distance(store, paper_bt, proc_title)
    );
    println!(
        "graph distance (via crossref):             {}",
        graph_distance(store, &graph, paper_bt, proc_title)
    );

    // --- Thesaurus broadening ----------------------------------------
    // "broaden a search that returned too few answers" (paper §4).
    let mut thesaurus = Thesaurus::new();
    thesaurus.add_synonyms(&["ICDE", "EDBT"]);

    let narrow = db.meet_terms(&["ICDE", "1999"]).unwrap();
    let broadened = ["ICDE", "1999"].map(|term| db.search_expanded(term, &thesaurus));
    let broad = AnswerSet::from_meets(
        store,
        db.meet_hits(&broadened, &nearest_concept::MeetOptions::default()),
    );
    println!(
        "\n'ICDE 1999' answers: {} narrow, {} with {{ICDE, EDBT}} broadening",
        narrow.len(),
        broad.len()
    );

    // The broadened answers include EDBT publications.
    let edbt_answers = broad
        .results
        .iter()
        .filter(|a| nearest_concept::store::ObjectView::deep_text(store, a.oid).contains("EDBT"))
        .count();
    println!("of which EDBT records: {edbt_answers}");
}
