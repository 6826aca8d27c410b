//! The paper's Figure 1 document against the oracles of `ncq-oracle`:
//! the indexed pairwise meet against Fig. 3's steered walk on every
//! pair, and the facade's meet against Fig. 5's roll-up.

use ncq_core::{meet2_indexed, Database, Meet, MeetOptions};
use ncq_oracle::{meet2, meet_rollup_ranked};
use ncq_store::{MonetDb, Oid};
use ncq_xml::parse;

const FIGURE1: &str = r#"
<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
    <article key="BK99">
      <author>Bob Byte</author>
      <title>Hacking &amp; RSI</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>"#;

#[test]
fn indexed_agrees_with_steered_everywhere() {
    let db = MonetDb::from_document(
        &parse(
            "<bib><inst><art key='k'><au><f>Ben</f><l>Bit</l></au><y>1999</y></art>\
             <art><au>Bob Byte</au><y>1999</y></art></inst></bib>",
        )
        .unwrap(),
    );
    let oids: Vec<Oid> = db.iter_oids().collect();
    for &a in &oids {
        for &b in &oids {
            let s = meet2(&db, a, b);
            let i = meet2_indexed(&db, a, b);
            assert_eq!(s.meet, i.meet, "meet mismatch for {a:?},{b:?}");
            assert_eq!(s.distance, i.distance, "distance mismatch for {a:?},{b:?}");
            assert_eq!(i.lookups, 0, "indexed meet performs no parent walk");
        }
    }
}

#[test]
fn the_facade_agrees_with_the_rollup_oracle() {
    let db = Database::from_xml_str(FIGURE1).unwrap();
    let key = |ms: Vec<Meet>| -> Vec<_> {
        ms.iter()
            .map(|m| (m.node, m.distance, m.witness_count))
            .collect()
    };
    for terms in [["Bit", "1999"], ["1999", "Hack"]] {
        let inputs = terms.map(|t| db.search(t));
        let options = MeetOptions::default();
        let served = key(db.meet_hits(&inputs, &options));
        assert!(!served.is_empty(), "{terms:?}");
        let oracle = meet_rollup_ranked(db.store(), &inputs, &options);
        assert_eq!(served, key(oracle), "{terms:?}");
    }
}
