//! Edge cases and adversarial inputs for the XML parser.

use ncq_xml::{parse, ParseErrorKind};

#[test]
fn cdata_with_brackets_inside() {
    let d = parse("<a><![CDATA[x ]] y ] z >]]></a>").unwrap();
    assert_eq!(d.deep_text(d.root()), "x ]] y ] z >");
}

#[test]
fn text_may_contain_closing_bracket_sequence() {
    let d = parse("<a>x ]]&gt; y</a>").unwrap();
    assert_eq!(d.deep_text(d.root()), "x ]]> y");
}

#[test]
fn comment_with_single_dashes() {
    let d = parse("<a><!-- a - b - c -->t</a>").unwrap();
    assert_eq!(d.deep_text(d.root()), "t");
}

#[test]
fn processing_instruction_with_angle_content() {
    let d = parse("<a><?php if (1 < 2) echo 'x'; ?>t</a>").unwrap();
    assert_eq!(d.deep_text(d.root()), "t");
}

#[test]
fn doctype_with_nested_brackets_and_quotes() {
    let src = r#"<!DOCTYPE bib [
        <!ELEMENT bib (article*)>
        <!ENTITY % pe "<!ELEMENT x (y)>">
        <!ATTLIST article key CDATA #IMPLIED>
    ]><bib/>"#;
    let d = parse(src).unwrap();
    assert_eq!(d.tag_name(d.root()), Some("bib"));
}

#[test]
fn attribute_values_spanning_lines() {
    let d = parse("<a t='one\ntwo'/>").unwrap();
    assert_eq!(d.attribute(d.root(), "t"), Some("one\ntwo"));
}

#[test]
fn attribute_with_other_quote_inside() {
    let d = parse(r#"<a s='say "hi"' d="it's"/>"#).unwrap();
    assert_eq!(d.attribute(d.root(), "s"), Some("say \"hi\""));
    assert_eq!(d.attribute(d.root(), "d"), Some("it's"));
}

#[test]
fn whitespace_inside_tags_is_tolerated() {
    let d = parse("<a  x = '1'  ></ a >".replace("</ a >", "</a  >").as_str()).unwrap();
    assert_eq!(d.attribute(d.root(), "x"), Some("1"));
}

#[test]
fn closing_tag_with_space_before_gt() {
    let d = parse("<a>t</a >").unwrap();
    assert_eq!(d.deep_text(d.root()), "t");
}

#[test]
fn numeric_entity_edge_values() {
    // Lowest legal char (tab) and a high astral-plane char.
    let d = parse("<a>&#9;&#x10FFFF;</a>").unwrap();
    let t = d.deep_text(d.root());
    assert!(t.starts_with('\t'));
    assert!(t.ends_with('\u{10FFFF}'));
}

#[test]
fn entity_without_semicolon_fails_cleanly() {
    let e = parse("<a>&amp</a>").unwrap_err();
    assert!(matches!(e.kind, ParseErrorKind::InvalidEntity { .. }));
}

#[test]
fn lt_inside_attribute_value_is_rejected() {
    let e = parse("<a t='x<y'/>").unwrap_err();
    assert!(matches!(e.kind, ParseErrorKind::UnexpectedChar { .. }));
}

#[test]
fn stray_lt_at_eof() {
    let e = parse("<a><").unwrap_err();
    assert!(matches!(
        e.kind,
        ParseErrorKind::InvalidName { .. } | ParseErrorKind::UnexpectedEof { .. }
    ));
}

#[test]
fn tag_names_with_namespace_prefixes_pass_through() {
    let d = parse("<ns:a xmlns:ns='urn:x'><ns:b/></ns:a>").unwrap();
    assert_eq!(d.tag_name(d.root()), Some("ns:a"));
    assert_eq!(d.attribute(d.root(), "xmlns:ns"), Some("urn:x"));
}

#[test]
fn names_with_dots_dashes_underscores() {
    let d = parse("<a-b.c_d><x.y/></a-b.c_d>").unwrap();
    assert_eq!(d.tag_name(d.root()), Some("a-b.c_d"));
}

#[test]
fn digit_leading_name_is_invalid() {
    let e = parse("<1a/>").unwrap_err();
    assert!(matches!(e.kind, ParseErrorKind::InvalidName { .. }));
}

#[test]
fn very_wide_documents_parse() {
    let mut src = String::from("<r>");
    for i in 0..20_000 {
        src.push_str(&format!("<c i='{i}'/>"));
    }
    src.push_str("</r>");
    let d = parse(&src).unwrap();
    assert_eq!(d.children(d.root()).count(), 20_000);
}

#[test]
fn many_attributes_on_one_element() {
    let mut src = String::from("<r");
    for i in 0..500 {
        src.push_str(&format!(" a{i}='{i}'"));
    }
    src.push_str("/>");
    let d = parse(&src).unwrap();
    assert_eq!(d.attributes(d.root()).count(), 500);
    assert_eq!(d.attribute(d.root(), "a499"), Some("499"));
}

#[test]
fn crlf_line_endings_parse() {
    let d = parse("<a>\r\n  <b>x</b>\r\n</a>").unwrap();
    assert_eq!(d.deep_text(d.root()), "x");
}

#[test]
fn root_after_comment_only_prolog() {
    let d = parse("<!-- header --><a/><!-- trailer -->").unwrap();
    assert_eq!(d.tag_name(d.root()), Some("a"));
}

#[test]
fn pi_and_comment_after_root_are_allowed() {
    let d = parse("<a/><?post data?>\n<!-- done -->").unwrap();
    assert_eq!(d.len(), 1);
}

#[test]
fn empty_attribute_value() {
    let d = parse("<a x=''/>").unwrap();
    assert_eq!(d.attribute(d.root(), "x"), Some(""));
}

#[test]
fn mixed_content_order_is_preserved() {
    let d = parse("<p>one<b>two</b>three<i>four</i>five</p>").unwrap();
    let kinds: Vec<String> = d
        .children(d.root())
        .map(|c| match d.kind(c) {
            ncq_xml::NodeKind::Text(s) => format!("#{s}"),
            ncq_xml::NodeKind::Element(_) => d.tag_name(c).unwrap().to_string(),
        })
        .collect();
    assert_eq!(kinds, vec!["#one", "b", "#three", "i", "#five"]);
}

/// A start tag with `count` distinct attributes `a0='0' a1='1' …`, then
/// `tail`, then `/>`.
fn wide_tag(count: usize, tail: &str) -> String {
    let mut src = String::from("<r");
    for i in 0..count {
        src.push_str(&format!(" a{i}='{i}'"));
    }
    src.push_str(tail);
    src.push_str("/>");
    src
}

/// Hostile input: duplicate detection must not look at the element's
/// other attributes. A scan per attribute is 2 × 10¹⁰ comparisons for
/// each of the two parses here — most of a minute in a release build
/// (measured before the fix: 5 s for 100 000), many in a debug build.
/// The linear parse takes a quarter of a second in a release build and
/// about a second and a half in a debug build, nearly all of it
/// interning 200 000 distinct names.
#[test]
fn two_hundred_thousand_attributes_parse_in_linear_time() {
    const COUNT: usize = 200_000;
    let src = wide_tag(COUNT, "");
    // A duplicate placed last is the worst case for a scan.
    let dup = wide_tag(COUNT, " a7='again'");
    let started = std::time::Instant::now();
    let d = parse(&src).unwrap();
    let e = parse(&dup).unwrap_err();
    let elapsed = started.elapsed();
    println!("{COUNT} attributes, parsed twice: {elapsed:?}");
    assert!(elapsed.as_secs() < 20, "took {elapsed:?}");

    let mut seen = 0;
    for (i, attr) in d.attributes(d.root()).enumerate() {
        assert_eq!(d.symbols().resolve(attr.name)[1..], i.to_string());
        assert_eq!(attr.value, i.to_string());
        seen += 1;
    }
    assert_eq!(seen, COUNT);
    assert_eq!(d.attribute(d.root(), "a199999"), Some("199999"));
    // The error is at the repeated name, as it always was.
    assert_eq!(
        e.kind,
        ParseErrorKind::DuplicateAttribute { name: "a7".into() }
    );
    let at = dup.len() - "a7='again'/>".len();
    assert_eq!(
        (e.position.line, e.position.column, e.position.offset),
        (1, at as u32 + 1, at)
    );
}

/// A chain one million elements deep: the parser keeps its own stack,
/// the walks follow the links, and dropping the tree is three frees —
/// nothing recurses.
#[test]
fn a_million_deep_chain_parses_walks_and_drops() {
    const DEPTH: usize = 1_000_000;
    let mut src = String::with_capacity(DEPTH * 7 + 4);
    for _ in 0..DEPTH {
        src.push_str("<d>");
    }
    src.push_str("leaf");
    for _ in 0..DEPTH {
        src.push_str("</d>");
    }
    let d = parse(&src).unwrap();
    assert_eq!(d.len(), DEPTH + 1);
    assert_eq!(d.iter_depth_first().count(), DEPTH + 1);
    let leaf = d.iter_depth_first().last().unwrap();
    assert_eq!(d.text(leaf), Some("leaf"));
    assert_eq!(d.depth(leaf), DEPTH);
    assert_eq!(d.deep_text(d.root()), "leaf");
    assert_eq!(d.find_element(d.root(), "x"), None);
    let inner = d.children(d.root()).next().unwrap();
    assert_eq!(d.iter_subtree(inner).count(), DEPTH);
    assert!(d.structural_eq(&d.clone()));
    drop(d);
}
