//! Quickstart: query an XML document you know the *content* of, but not
//! the mark-up — the paper's opening scenario.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nearest_concept::Database;

fn main() {
    // The paper's running example: a small bibliography whose schema the
    // user has never seen (Figure 1 of the paper).
    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML)
        .expect("the example document is well-formed");

    println!("What did 'Bit' publish in '1999'?\n");

    // One call: full-text search for each term, then the meet operator
    // finds the nearest concept — the result *type* is discovered, not
    // specified.
    let answers = db.meet_terms(&["Bit", "1999"]).expect("query runs");

    println!("{}\n", answers.to_answer_xml());

    for answer in answers.iter() {
        println!(
            "nearest concept: <{}> at {} (distance {} between the hits)",
            answer.tag, answer.path, answer.distance
        );
        for w in answer.witnesses.iter() {
            println!(
                "  witness: {:?} ({} edges below)",
                w.text.unwrap_or("?"),
                w.climb
            );
        }
    }

    // The same operator answers entirely different questions with the
    // same zero-schema formulation:
    for terms in [["Ben", "Bit"], ["Bob", "Byte"]] {
        let a = db.meet_terms(terms.as_ref()).unwrap();
        println!(
            "\nmeet({:?}) -> <{}>",
            terms,
            a.get(0).map_or("none", |r| r.tag)
        );
    }
}
