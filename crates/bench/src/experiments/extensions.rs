//! Extension experiments: the paper's future-work features, measured.
//!
//! * **IDREF graph meets** (§3.2 / conclusion): crossref edges on the
//!   DBLP substitute shorten record↔proceedings routes; we quantify the
//!   shortcut rate and the BFS cost.
//! * **Thesaurus broadening** (§4): synonym expansion grows hit sets and
//!   thereby answers.

use crate::measure::{micros, time_median};
use ncq_core::{distance, graph_distance, Database, MeetOptions, RefGraph};
use ncq_fulltext::Thesaurus;

/// Result of the graph-meet extension experiment.
#[derive(Debug, Clone)]
pub struct GraphResult {
    /// Reference edges discovered (crossref → key).
    pub reference_edges: usize,
    /// Probed node pairs.
    pub pairs: usize,
    /// Pairs where the reference edges shortened the route.
    pub shortcuts: usize,
    /// Mean tree distance over the probed pairs.
    pub mean_tree_distance: f64,
    /// Mean graph distance over the probed pairs.
    pub mean_graph_distance: f64,
    /// Median graph-meet time, µs.
    pub graph_meet_us: f64,
}

/// Probe record→proceedings routes on a DBLP database with crossrefs.
pub fn graph_meets(db: &Database, runs: usize) -> GraphResult {
    let store = db.store();
    let graph = RefGraph::from_key_references(store, "key", "crossref");

    // Pairs: each ICDE booktitle hit vs the proceedings title of its
    // edition — connected via crossref in 3 hops, via the tree in many.
    let icde = db.search_word("ICDE");
    let proceedings = db.search_word("Proceedings");
    let targets: Vec<_> = proceedings.iter().map(|(_, o)| o).take(16).collect();
    let sources: Vec<_> = icde.iter().map(|(_, o)| o).take(64).collect();

    let mut pairs = 0usize;
    let mut shortcuts = 0usize;
    let mut tree_sum = 0usize;
    let mut graph_sum = 0usize;
    for &s in &sources {
        for &t in targets.iter().take(4) {
            let td = distance(store, s, t);
            let gd = graph_distance(store, &graph, s, t);
            assert!(gd <= td, "reference edges may only shorten routes");
            pairs += 1;
            tree_sum += td;
            graph_sum += gd;
            if gd < td {
                shortcuts += 1;
            }
        }
    }
    let (_, d) = time_median(runs, || {
        graph_distance(store, &graph, sources[0], targets[0])
    });

    GraphResult {
        reference_edges: graph.len(),
        pairs,
        shortcuts,
        mean_tree_distance: tree_sum as f64 / pairs as f64,
        mean_graph_distance: graph_sum as f64 / pairs as f64,
        graph_meet_us: micros(d),
    }
}

/// Result of the thesaurus experiment.
#[derive(Debug, Clone)]
pub struct ThesaurusResult {
    /// The narrow term.
    pub term: String,
    /// Hits without broadening.
    pub narrow_hits: usize,
    /// Hits with broadening.
    pub broad_hits: usize,
    /// Answers without broadening.
    pub narrow_answers: usize,
    /// Answers with broadening.
    pub broad_answers: usize,
}

/// Broaden a conference search with a synonym group ("ICDE" ∪ "EDBT" as a
/// stand-in for e.g. "data engineering venues").
pub fn thesaurus_broadening(db: &Database, year: u16) -> ThesaurusResult {
    let mut thesaurus = Thesaurus::new();
    thesaurus.add_synonyms(&["ICDE", "EDBT"]);

    let narrow = db.search_word("ICDE");
    let broad = db.search_expanded("ICDE", &thesaurus);
    let years = db.search_word(&year.to_string());

    let narrow_answers = db
        .meet_hits(&[narrow.clone(), years.clone()], &MeetOptions::default())
        .len();
    let broad_answers = db
        .meet_hits(&[broad.clone(), years], &MeetOptions::default())
        .len();

    ThesaurusResult {
        term: "ICDE".into(),
        narrow_hits: narrow.len(),
        broad_hits: broad.len(),
        narrow_answers,
        broad_answers,
    }
}

/// Text table for both extension experiments.
pub fn table(g: &GraphResult, t: &ThesaurusResult) -> String {
    format!(
        "# Extensions — paper future work\n\
         ## IDREF graph meets (crossref overlay)\n\
         reference edges:     {}\n\
         probed pairs:        {}\n\
         shortcut pairs:      {}\n\
         mean tree distance:  {:.2}\n\
         mean graph distance: {:.2}\n\
         graph meet time:     {:.2} us\n\
         ## Thesaurus broadening\n\
         term:            {}\n\
         hits narrow/broad:    {} / {}\n\
         answers narrow/broad: {} / {}\n",
        g.reference_edges,
        g.pairs,
        g.shortcuts,
        g.mean_tree_distance,
        g.mean_graph_distance,
        g.graph_meet_us,
        t.term,
        t.narrow_hits,
        t.broad_hits,
        t.narrow_answers,
        t.broad_answers,
    )
}

crate::impl_to_json_struct!(GraphResult {
    reference_edges,
    pairs,
    shortcuts,
    mean_tree_distance,
    mean_graph_distance,
    graph_meet_us,
});
crate::impl_to_json_struct!(ThesaurusResult {
    term,
    narrow_hits,
    broad_hits,
    narrow_answers,
    broad_answers,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::corpora;

    #[test]
    fn graph_extension_finds_shortcuts() {
        let (db, corpus) = corpora::dblp_small();
        let r = graph_meets(&db, 3);
        // One crossref per inproceedings.
        assert_eq!(r.reference_edges, corpus.inproceedings);
        assert!(r.pairs > 0);
        assert!(r.shortcuts > 0, "crossrefs must shorten some routes");
        assert!(r.mean_graph_distance <= r.mean_tree_distance);
    }

    #[test]
    fn thesaurus_broadening_grows_hits_and_answers() {
        let (db, _) = corpora::dblp_small();
        let r = thesaurus_broadening(&db, 1999);
        assert!(r.broad_hits > r.narrow_hits);
        assert!(r.broad_answers >= r.narrow_answers);
        let g = graph_meets(&db, 1);
        assert!(table(&g, &r).contains("Extensions"));
    }
}
