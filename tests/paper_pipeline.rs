//! End-to-end reproduction of the paper's qualitative results, spanning
//! every crate: datagen → xml → store → fulltext → core → query.

use nearest_concept::core::{MeetOptions, PathFilter};
use nearest_concept::{run_query, Database, QueryOutput};

fn figure1_db() -> Database {
    Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap()
}

#[test]
fn listing1_baseline_has_ancestor_implied_answers() {
    let db = figure1_db();
    let out = run_query(
        &db,
        "select $T from %/$T as t1, %/$T as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    )
    .unwrap();
    let QueryOutput::Rows(rows) = out else {
        panic!("baseline is a projection")
    };
    let mut tags: Vec<&str> = rows.rows.iter().map(|r| r.values[0].as_str()).collect();
    tags.sort_unstable();
    // Four rows: the desired article plus the rows the paper calls
    // "implied by the path from the first node to the root".
    assert_eq!(
        tags,
        vec!["article", "article", "bibliography", "institute"]
    );
}

#[test]
fn listing2_meet_is_the_true_subset() {
    let db = figure1_db();
    let out = run_query(
        &db,
        "select meet(t1, t2) from bibliography/% as t1, bibliography/% as t2 \
         where t1 contains 'Bit' and t2 contains '1999'",
    )
    .unwrap();
    let QueryOutput::Answers(a) = out else {
        panic!("meet query")
    };
    // "<answer><result> article </result></answer>"
    assert_eq!(a.tags(), vec!["article"]);
    // …and it is a subset of the baseline's answer tags.
}

#[test]
fn section_3_1_worked_examples() {
    let db = figure1_db();
    // meet("Ben","Bit") = the author node.
    assert_eq!(
        db.meet_terms(&["Ben", "Bit"]).unwrap().tags(),
        vec!["author"]
    );
    // meet("Bob","Byte") = the cdata node itself (same association).
    assert_eq!(
        db.meet_terms(&["Bob", "Byte"]).unwrap().tags(),
        vec!["cdata"]
    );
    // meet("Bit","1999") = the article.
    assert_eq!(
        db.meet_terms(&["Bit", "1999"]).unwrap().tags(),
        vec!["article"]
    );
}

#[test]
fn section_3_1_nested_meet_only_reveals_the_institute() {
    // The paper: meet(å1, meet(å2, å3)) = o2 "only reveals that the three
    // associations are located in the bibliography of an institute" —
    // the nested grouping loses the article.
    let db = figure1_db();
    let store = db.store();
    let bit = db.search("Bit").iter().next().unwrap().1;
    let years: Vec<_> = db.search("1999").iter().map(|(_, o)| o).collect();
    assert_eq!(years.len(), 2);
    let inner = db.meet_pair(years[0], years[1]).meet;
    assert_eq!(store.tag(inner), Some("institute"));
    let outer = db.meet_pair(bit, inner).meet;
    assert_eq!(store.tag(outer), Some("institute"));
}

#[test]
fn figure2_relations_exist_with_paper_names() {
    let db = figure1_db();
    let store = db.store();
    let names: Vec<String> = store
        .summary()
        .iter()
        .map(|p| store.relation_name(p))
        .collect();
    // Spot-check the relation names of the paper's Figure 2.
    for expected in [
        "bibliography/institute/article/author/firstname/cdata",
        "bibliography/institute/article/author/lastname/cdata",
        "bibliography/institute/article/title/cdata",
        "bibliography/institute/article/year/cdata",
        "bibliography/institute/article/@key",
    ] {
        assert!(names.contains(&expected.to_string()), "missing {expected}");
    }
}

#[test]
fn meet_pi_blocks_the_document_root() {
    let db = figure1_db();
    // "Ben" and "RSI" live in different articles; their meet is the
    // institute. Excluding institute AND bibliography kills everything.
    let store = db.store();
    let inst = store
        .summary()
        .lookup_in(&["bibliography", "institute"], store.symbols())
        .unwrap();
    let opts = MeetOptions {
        filter: PathFilter::excluding([inst, store.sigma(store.root())]),
        ..MeetOptions::default()
    };
    let answers = db.meet_terms_with(&["Ben", "RSI"], &opts).unwrap();
    assert!(answers.is_empty());
}

#[test]
fn query_language_and_direct_api_agree() {
    let db = figure1_db();
    let api = db.meet_terms(&["Bit", "1999"]).unwrap();
    let out = run_query(
        &db,
        "select meet(a, b) from bibliography/% as a, bibliography/% as b \
         where a contains 'Bit' and b contains '1999'",
    )
    .unwrap();
    let QueryOutput::Answers(lang) = out else {
        panic!()
    };
    assert_eq!(api.tags(), lang.tags());
    assert_eq!(api.get(0).unwrap().oid, lang.get(0).unwrap().oid);
    assert_eq!(api.get(0).unwrap().distance, lang.get(0).unwrap().distance);
}

#[test]
fn object_reassembly_recovers_the_paper_example() {
    // Paper §2 end: the object behind the second article is the set of
    // its associations — key, author, title, year.
    let db = figure1_db();
    let store = db.store();
    let bk99 = db.search("BK99").iter().next().unwrap().1;
    let view = nearest_concept::store::ObjectView::assemble(store, bk99);
    assert_eq!(view.label, "article");
    assert_eq!(
        view.attributes,
        vec![("key".to_string(), "BK99".to_string())]
    );
    assert_eq!(view.children.len(), 3); // author, title, year
}
