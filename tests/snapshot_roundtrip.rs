//! Snapshot persistence suite — one suite for the one format:
//! round-trip equivalence on random trees, byte determinism, exhaustive
//! corruption handling (truncation, bit flips, forged section-table
//! extents, forged string columns), the layout version pin, the layout
//! byte budget, the typed refusal of the retired v1–v9 layouts through
//! every entry point, that layout 10 changed only `STRINGS`,
//! and a two-process check that one snapshot file serves independent
//! opens with equal answers.
//!
//! Seeded loops over the vendored deterministic PRNG stand in for
//! proptest (the offline build cannot fetch it); failures print the
//! seed.
//!
//! The pinned fixture `tests/golden/snapshot_v10.bin` is a committed
//! current-layout snapshot of the Figure 1 corpus, as
//! `Database::save_snapshot` writes it. Regenerate after an *intended*
//! layout change — which must also bump `SNAPSHOT_VERSION` — with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test snapshot_roundtrip
//! ```
//!
//! The older committed fixtures (`snapshot_v1.bin` … `snapshot_v9.bin`)
//! are files no build writes any more; they stay committed to pin that
//! opening one is a typed `UnsupportedVersion`, never a partial load.

use ncq_oracle::TreeDraw;
use nearest_concept::core::MeetOptions;
use nearest_concept::datagen::{DblpConfig, DblpCorpus};
use nearest_concept::server::{serve_lines, Server, ServerConfig};
use nearest_concept::store::snapshot::{checksum64, section};
use nearest_concept::store::{
    section_name, Manifest, ManifestEntry, MappedSnapshot, PathStep, SnapshotError, VerifyMode,
    SNAPSHOT_VERSION,
};
use nearest_concept::xml::Document;
use nearest_concept::{open_forest, CatalogError, Database};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

/// Random tree with text leaves from a small token pool, so string
/// relations and postings are exercised.
fn random_tree(rng: &mut StdRng) -> Document {
    ncq_oracle::random_tree(rng, &TreeDraw::TEXT)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ncq-snapshot-roundtrip");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// Round-trip property: for random trees, a save → load cycle answers
/// the generalized meet identically — ranking, distances and witness
/// samples included.
#[test]
fn random_trees_round_trip_with_identical_meets() {
    for seed in 0u64..25 {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
        let doc = random_tree(&mut rng);
        let original = Database::from_document(&doc);

        let path = scratch(&format!("prop-{seed}.ncq"));
        original.save_snapshot(&path).expect("save");
        let loaded = Database::open_snapshot(&path).expect("load");

        // The generalized meet through the full term pipeline (the
        // stack pass reads the loaded meet index): serialized answer
        // XML pins ranking, distances, document order and witnesses.
        let terms = ["alpha", "beta", "twin peaks"];
        let options = MeetOptions::default();
        let a = original.meet_terms_with(&terms, &options).unwrap();
        let b = loaded.meet_terms_with(&terms, &options).unwrap();
        assert_eq!(
            a.to_detailed_xml(),
            b.to_detailed_xml(),
            "seed {seed}: loaded Database diverged"
        );

        std::fs::remove_file(&path).ok();
    }
}

/// Determinism: snapshot bytes are a pure function of the database —
/// two saves agree, and a save → load → save cycle is byte-stable.
#[test]
fn snapshot_bytes_are_deterministic_across_saves_and_reloads() {
    let mut rng = StdRng::seed_from_u64(0x0dec_eded);
    let doc = random_tree(&mut rng);
    let db = Database::from_document(&doc);
    let first = db.snapshot_to_bytes();
    assert_eq!(first, db.snapshot_to_bytes(), "same engine, two saves");
    let reloaded = Database::from_snapshot_bytes(first.clone()).expect("reload");
    assert_eq!(
        first,
        reloaded.snapshot_to_bytes(),
        "save -> load -> save drifted"
    );
}

/// Corruption never panics: truncating at *every* section boundary
/// (and just inside each), flipping bytes across the header and every
/// section-table entry, and flipping a byte inside every payload all
/// surface as typed `SnapshotError`s.
#[test]
fn corrupt_snapshots_fail_typed_at_every_boundary() {
    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let path = scratch("corrupt.ncq");
    db.save_snapshot(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();

    // Decode through the mapped path with *eager* verification so a
    // payload flip in the deferred section (the meet index) still
    // surfaces as a typed checksum error rather than a
    // semantically-plausible wrong value.
    let decode = |data: Vec<u8>| -> Result<(), SnapshotError> {
        let snap = MappedSnapshot::from_owned_bytes(data, VerifyMode::Eager)?;
        Database::decode_from(&snap)?;
        Ok(())
    };
    decode(bytes.clone()).expect("pristine bytes decode");

    // Section boundaries from the table (24-byte header, 32-byte
    // entries): offset and offset+len of every section, plus the
    // header/table edges.
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = 24 + 32 * count;
    let mut boundaries = vec![0, 4, 8, 12, 16, 23, 24, table_end - 1, table_end];
    for i in 0..count {
        let at = 24 + 32 * i;
        let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
        boundaries.extend([offset, offset + 1, offset + len / 2, offset + len]);
    }
    boundaries.retain(|&b| b < bytes.len());
    for &cut in &boundaries {
        assert!(
            decode(bytes[..cut].to_vec()).is_err(),
            "truncation at {cut} decoded"
        );
    }

    // Bit flips: every header/table byte, and one byte inside every
    // section payload (start, middle, last).
    let mut flip_at: Vec<usize> = (0..table_end).collect();
    for i in 0..count {
        let at = 24 + 32 * i;
        let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
        if len > 0 {
            flip_at.extend([offset, offset + len / 2, offset + len - 1]);
        }
    }
    for &at in &flip_at {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x40;
        assert!(
            decode(corrupt).is_err(),
            "bit flip at {at} decoded as pristine"
        );
    }
}

/// The entry of section `id` in the table, and its payload's offset
/// and length.
fn section_extent(bytes: &[u8], id: u32) -> (usize, usize, usize) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| 24 + 32 * i)
        .find(|&e| u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == id)
        .expect("section present");
    let start = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
    (entry, start, len)
}

fn section_len(bytes: &[u8], id: u32) -> usize {
    section_extent(bytes, id).2
}

/// `bytes` with `value` written at offset `at` of section `id`'s
/// payload, the section and table checksums repaired: only the
/// decoder's validation stands between the forgery and a served store.
fn forge_section(mut bytes: Vec<u8>, id: u32, at: usize, value: &[u8]) -> Vec<u8> {
    let (entry, start, len) = section_extent(&bytes, id);
    bytes[start + at..start + at + value.len()].copy_from_slice(value);
    let sum = checksum64(&bytes[start..start + ((len + 63) & !63)]);
    bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_sum = checksum64(&bytes[24..24 + 32 * count]);
    bytes[16..24].copy_from_slice(&table_sum.to_le_bytes());
    bytes
}

/// Forged string columns: `STRINGS` is served as six mapped views, its
/// values are handed out as `&str` without a re-check, and a cdata
/// relation's owners are the path's postings in the lazily verified
/// `MEET_INDEX` section, so everything that rests on is validated once
/// at open. One forgery per rule, each with the section and table
/// checksums repaired so only that validation stands in its way — and
/// each a typed `Corrupt` naming the rule, never a panic, never a store.
#[test]
fn forged_string_columns_are_corrupt_not_served() {
    // Nodes o0 r, o1 a, o2 "日本", o3 a, o4 "w", o5 b, o6 "日本"; paths
    // r, r/a, r/a/@k, r/a/cdata, r/b, r/b/cdata. Relations: r/a/@k =
    // {(o1, é), (o3, é)}, r/a/cdata = {(o2, 日本), (o4, w)}, r/b/cdata =
    // {(o6, 日本)}. The dictionary is "é", "日本", "w": the blob "é日本w"
    // with offsets [0, 2, 8, 9], and the value ids [0, 0, 1, 2, 1].
    let db =
        Database::from_xml_str("<r><a k=\"é\">日本</a><a k=\"é\">w</a><b>日本</b></r>").unwrap();
    let (n, paths) = (db.store().node_count(), db.store().summary().len());
    assert_eq!((n, paths), (7, 6));
    let stats = db.store().stats();
    assert_eq!((stats.string_associations, stats.string_bytes), (5, 17));
    assert!(db.store().string_values().iter().eq(["é", "日本", "w"]));
    let pristine = db.snapshot_to_bytes();

    // STRINGS: four counts, then six 64-byte-aligned columns.
    let align64 = |at: usize| (at + 63) & !63;
    let rel_off = align64(32);
    let owner_off = align64(rel_off + 4 * (paths + 1));
    let owners = align64(owner_off + 4 * (paths + 1));
    let value_id = align64(owners + 4 * 2);
    let value_off = align64(value_id + 4 * 5);
    let text = align64(value_off + 4 * 4);
    // MEET_INDEX: four counts, the stack masks, one block minimum, the
    // postings' offsets, then the postings [o0, o1, o3, o2, o4, o5, o6].
    let path_data = align64(align64(align64(64 + 4 * n) + 4) + 4 * (paths + 1));

    // PATHS: the path count, then per path its parent (u32::MAX for a
    // root), a step tag and, but for cdata, a symbol. Paths 0-2 are
    // nine bytes each, so path p <= 3 starts at 4 + 9p; the two cdata
    // records are five.
    let path_record = |p: usize| 4 + 9 * p;
    let paths_len = path_record(paths) - 4 * 2;

    let forge_on = |bytes: Vec<u8>, id: u32, at: usize, value: &[u8]| {
        let expected = match id {
            section::STRINGS => text + 9,
            section::PATHS => paths_len,
            _ => path_data + 4 * n,
        };
        assert_eq!(
            section_len(&bytes, id),
            expected,
            "{} is not laid out as this test assumes",
            section_name(id)
        );
        forge_section(bytes, id, at, value)
    };
    let forge = |id: u32, at: usize, value: &[u8]| forge_on(pristine.clone(), id, at, value);
    // An edit that changes nothing decodes: the repair itself is sound.
    Database::from_snapshot_bytes(forge(section::STRINGS, text, "é".as_bytes()))
        .expect("pristine forgery");
    Database::from_snapshot_bytes(forge(
        section::MEET_INDEX,
        path_data + 12,
        &2u32.to_le_bytes(),
    ))
    .expect("pristine postings forgery");
    Database::from_snapshot_bytes(forge(section::PATHS, path_record(3), &1u32.to_le_bytes()))
        .expect("pristine paths forgery");

    let strings = |at: usize, v: u32| forge(section::STRINGS, at, &v.to_le_bytes());
    let postings =
        |i: usize, v: u32| forge(section::MEET_INDEX, path_data + 4 * i, &v.to_le_bytes());
    // Path `p` made a root path.
    let root = |p: usize| forge(section::PATHS, path_record(p), &u32::MAX.to_le_bytes());
    for (rule, forged, context) in [
        (
            "rel_off not closed",
            strings(rel_off + 4 * paths, 4),
            "string relation offsets are not closed over the entry count",
        ),
        (
            "owner_off not closed",
            strings(owner_off + 4 * paths, 1),
            "attribute owner offsets are not closed over the owner column",
        ),
        (
            "last value offset is not the blob length",
            strings(value_off + 4 * 3, 8),
            "string value offsets do not span the text blob",
        ),
        (
            "non-monotone value_off",
            strings(value_off + 4, 9),
            "string value offsets are not monotone",
        ),
        (
            "invalid UTF-8 byte",
            forge(section::STRINGS, text + 2, &[0xFF]),
            "string text is not UTF-8",
        ),
        (
            "value offset inside a code point",
            strings(value_off + 4, 1),
            "string value offset splits a code point",
        ),
        (
            "value id past the dictionary",
            strings(value_id + 4 * 4, 3),
            "string value id out of range",
        ),
        (
            "an entry moved onto the element path r/a",
            strings(rel_off + 4 * 2, 1),
            "string relation on an element path",
        ),
        (
            "one owner for two attribute values",
            strings(owner_off + 4 * 3, 1),
            "attribute relation and its owners disagree",
        ),
        (
            "attribute owners not increasing",
            strings(owners + 4, 1), // the first `a`, again
            "string relation not in document order",
        ),
        (
            "attribute owner beyond the instance",
            strings(owners + 4, n as u32),
            "string owner out of range",
        ),
        (
            "r/a/@k made a root path",
            root(2),
            "string path without a parent path",
        ),
        (
            "r/a/cdata made a root path",
            root(3),
            "string path without a parent path",
        ),
        (
            // A root path has no parent and an oid past σ no path: were
            // the two compared, they would agree.
            "a root attribute path whose owners are beyond the instance",
            forge_on(
                root(2),
                section::STRINGS,
                owners,
                &[(n as u32).to_le_bytes(), (n as u32 + 1).to_le_bytes()].concat(),
            ),
            "string path without a parent path",
        ),
        (
            "attribute value attached to the b element",
            strings(owners + 4, 5),
            "attribute owner not on the attribute's parent path",
        ),
        (
            "a cdata relation one string short",
            strings(rel_off + 4 * 4, 3),
            "cdata relation does not cover its path",
        ),
        (
            "r/a/cdata postings swapped",
            forge(
                section::MEET_INDEX,
                path_data + 12,
                &[4, 0, 0, 0, 2, 0, 0, 0],
            ),
            "postings not in document order",
        ),
        (
            "an a element among r/a/cdata's postings",
            postings(3, 3),
            "posting not on its path",
        ),
        (
            "a posting beyond the instance",
            postings(4, n as u32),
            "posting beyond the instance",
        ),
    ] {
        match Database::from_snapshot_bytes(forged) {
            Err(SnapshotError::Corrupt { context: found }) => assert_eq!(found, context, "{rule}"),
            Err(other) => panic!("{rule}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{rule}: forged strings were served"),
        }
    }
}

/// A postings run on an element path is validated at open like a cdata
/// run: an oid past the instance there used to open and then panic in
/// `MonetDb::edges_of` (`parent[o]`) on the first walk of that path's
/// edges.
#[test]
fn forged_element_postings_are_corrupt_not_a_panic() {
    // Nodes o0 r, o1 a, o2 "y", o3 a, o4 "w", o5 b, o6 "y"; the postings
    // are [o0, o1, o3, o2, o4, o5, o6], so `path_data[1]` is r/a's o1.
    let db = Database::from_xml_str(r#"<r><a k="x">y</a><a k="x">w</a><b>y</b></r>"#).unwrap();
    let (n, paths) = (db.store().node_count(), db.store().summary().len());
    assert_eq!((n, paths), (7, 6));
    let store = db.store();
    let r_a = store
        .summary()
        .lookup_in(&["r", "a"], store.symbols())
        .unwrap();
    assert_eq!(store.oids_of_path(r_a)[0].index(), 1);
    let align64 = |at: usize| (at + 63) & !63;
    // MEET_INDEX: four counts, the stack masks, one block minimum, the
    // postings' offsets, then the postings.
    let path_data = align64(align64(align64(64 + 4 * n) + 4) + 4 * (paths + 1));
    let pristine = db.snapshot_to_bytes();
    assert_eq!(
        section_len(&pristine, section::MEET_INDEX),
        path_data + 4 * n
    );
    let posting = |i: usize, oid: u32| {
        forge_section(
            pristine.clone(),
            section::MEET_INDEX,
            path_data + 4 * i,
            &oid.to_le_bytes(),
        )
    };
    // The repair itself is sound: rewriting o1 as o1 decodes.
    Database::from_snapshot_bytes(posting(1, 1)).expect("pristine postings forgery");
    for (rule, forged, context) in [
        // The forgery that used to panic: r/a's run [o1, o3] is now
        // [o7, o3].
        (
            "r/a's o1 made o7 = n",
            posting(1, 7),
            "postings not in document order",
        ),
        (
            "r/a's o3 made o7 = n",
            posting(2, 7),
            "posting beyond the instance",
        ),
        (
            "r/a's o1 made o3",
            posting(1, 3),
            "postings not in document order",
        ),
        (
            "r/a's o3 made the b element o5",
            posting(2, 5),
            "posting not on its path",
        ),
        (
            "the root's posting made o1",
            posting(0, 1),
            "posting not on its path",
        ),
    ] {
        match Database::from_snapshot_bytes(forged) {
            Err(SnapshotError::Corrupt { context: found }) => assert_eq!(found, context, "{rule}"),
            Err(other) => panic!("{rule}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{rule}: forged postings were served"),
        }
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn fixture_path() -> PathBuf {
    golden_path(&format!("snapshot_v{SNAPSHOT_VERSION}.bin"))
}

/// The probe answer every open of the Figure 1 corpus must agree on.
fn probe(db: &Database) -> String {
    db.meet_terms(&["Bit", "1999"])
        .expect("probe meet")
        .to_detailed_xml()
}

/// The layout version pin. The committed fixture must (a) carry the
/// current `SNAPSHOT_VERSION`, (b) decode into an engine that answers
/// a known meet, (c) re-encode to the **exact committed bytes**, and
/// (d) equal a fresh save of the Figure 1 corpus.
/// Any layout change that forgets to bump the version fails here
/// loudly: either the old fixture no longer decodes, or the re-encoded
/// bytes drift from the committed ones. After an intended change, bump
/// `SNAPSHOT_VERSION` and regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn pinned_fixture_guards_the_layout_version() {
    let path = fixture_path();
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if update {
        let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
        db.save_snapshot(&path).expect("write fixture");
        return;
    }
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path:?} ({e}); run UPDATE_GOLDEN=1 cargo test --test \
             snapshot_roundtrip to create it"
        )
    });
    let header_version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(
        header_version, SNAPSHOT_VERSION,
        "fixture carries layout version {header_version}, build reads {SNAPSHOT_VERSION}; \
         regenerate the fixture (UPDATE_GOLDEN=1) and commit it as snapshot_v{SNAPSHOT_VERSION}.bin"
    );

    let loaded = Database::from_snapshot_bytes(bytes.clone()).unwrap_or_else(|e| {
        panic!(
            "the committed v{SNAPSHOT_VERSION} fixture no longer decodes ({e}); \
             the layout changed without a SNAPSHOT_VERSION bump"
        )
    });
    let answers = loaded.meet_terms(&["Bit", "1999"]).expect("probe meet");
    assert_eq!(answers.tags(), vec!["article"], "fixture answers drifted");

    // Byte-stability: re-encoding the loaded engine must reproduce the
    // committed bytes exactly.
    assert_eq!(
        loaded.snapshot_to_bytes(),
        bytes,
        "re-encoded bytes drifted from the committed v{SNAPSHOT_VERSION} fixture; \
         bump SNAPSHOT_VERSION and regenerate (UPDATE_GOLDEN=1)"
    );

    // And so must a fresh build: the fixture is exactly what this build
    // writes for Figure 1, not merely something it can re-emit.
    let fresh = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    assert_eq!(
        fresh.snapshot_to_bytes(),
        bytes,
        "a fresh save of Figure 1 drifted from the committed v{SNAPSHOT_VERSION} fixture"
    );
}

/// The retired layouts are refused, typed, through every entry point.
/// `snapshot_v1.bin` … `snapshot_v9.bin` are committed files of the
/// Figure 1 corpus in the v1/v2 materializing layouts and the v3–v9
/// payloads of today's container; no build can
/// write them any more and there is no upgrade tool — the way forward
/// is to rebuild from the source XML and save again, and the error
/// says so. Each open must fail on the header alone with
/// `UnsupportedVersion { found, supported: SNAPSHOT_VERSION }`: never a
/// panic, never a partial load, and on a serving process never a
/// swapped backend. The header is all that guards an old file's
/// sections that decode unchanged, so the last cases forge it: a v7
/// `MEET_INDEX` section (three per-node columns where there is one now),
/// a v8 `FULLTEXT` section (`(path, owner)` pairs where there are runs
/// now) and a v9 `STRINGS` section (a text offset per string where there
/// is a value id now) under the current header are typed corruption
/// errors.
#[test]
fn legacy_fixtures_are_refused_typed() {
    for (fixture, version) in [
        ("snapshot_v1.bin", 1u32),
        ("snapshot_v2.bin", 2),
        ("snapshot_v3.bin", 3),
        ("snapshot_v4.bin", 4),
        ("snapshot_v5.bin", 5),
        ("snapshot_v6.bin", 6),
        ("snapshot_v7.bin", 7),
        ("snapshot_v8.bin", 8),
        ("snapshot_v9.bin", 9),
    ] {
        let bytes = std::fs::read(golden_path(fixture)).expect("read legacy fixture");
        let dir = scratch(&format!("legacy-v{version}"));
        std::fs::create_dir_all(&dir).expect("create legacy scratch dir");
        let path = dir.join("legacy.ncq");
        std::fs::write(&path, &bytes).expect("stage legacy fixture");

        let refused = |e: SnapshotError, via: &str| {
            assert!(
                matches!(
                    e,
                    SnapshotError::UnsupportedVersion { found, supported: SNAPSHOT_VERSION }
                        if found == version
                ),
                "{fixture} via {via}: expected UnsupportedVersion, got {e}"
            );
            assert!(
                e.to_string()
                    .contains("re-save from the source XML with this build"),
                "{fixture} via {via}: the error does not name the way forward: {e}"
            );
        };
        refused(
            Database::open_snapshot(&path).expect_err("refused"),
            "Database::open_snapshot",
        );
        refused(
            Database::from_snapshot_bytes(bytes.clone()).expect_err("refused"),
            "Database::from_snapshot_bytes",
        );

        // Forest: an honest manifest records the file's layout version,
        // and the catalog refuses the entry before opening the file…
        let mut manifest = Manifest::new();
        manifest
            .push(ManifestEntry::describe("fig", &path).expect("describe"))
            .expect("push");
        assert_eq!(manifest.corpora[0].layout_version, version);
        let mpath = dir.join("forest.ncqm");
        manifest.save(&mpath).expect("save manifest");
        assert!(
            matches!(
                open_forest(&mpath),
                Err(CatalogError::LayoutVersion { found, supported: SNAPSHOT_VERSION, .. })
                    if found == version
            ),
            "{fixture}: honest manifest"
        );
        // …and one that claims the current layout fails on the file's
        // own header.
        manifest.corpora[0].layout_version = SNAPSHOT_VERSION;
        manifest.save(&mpath).expect("save manifest");
        match open_forest(&mpath) {
            Err(CatalogError::Corpus { name, error }) => {
                assert_eq!(name, "fig");
                refused(error, "open_forest");
            }
            other => panic!("{fixture}: lying manifest opened as {other:?}"),
        }

        // Wire: a hot `SNAPSHOT LOAD` of the file is an in-band ERR; the
        // old backend keeps serving and no cache epoch moves (the warmed
        // entry still hits — a swap would have made it a second miss).
        let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
        let server = Server::start(
            Arc::new(db),
            ServerConfig {
                snapshot_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
        );
        let session = |input: &str| {
            let mut out = Vec::new();
            serve_lines(&server.client(), input.as_bytes(), &mut out).expect("session");
            String::from_utf8(out).expect("utf-8 session")
        };
        let meet = || session("MEET Bit 1999\nQUIT\n");
        let cold = meet();
        assert!(cold.contains("tag=\"article\""), "{cold}");
        assert_eq!(meet(), cold, "{fixture}: warmed answer");
        let load = session("SNAPSHOT LOAD legacy.ncq\nQUIT\n");
        assert!(
            load.contains(&format!(
                "ERR unsupported snapshot layout version {version} \
                 (this build reads {SNAPSHOT_VERSION}); \
                 re-save from the source XML with this build"
            )),
            "{fixture}: {load}"
        );
        assert_eq!(meet(), cold, "{fixture}: answer after the refused load");
        let stats = server.shutdown();
        assert_eq!(
            (stats.sem_misses, stats.sem_hits),
            (1, 2),
            "{fixture}: the refused load must leave the semantic cache epochs alone"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    for fixture in ["snapshot_v7.bin", "snapshot_v8.bin", "snapshot_v9.bin"] {
        let mut forged = std::fs::read(golden_path(fixture)).expect("read legacy fixture");
        forged[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let err = Database::from_snapshot_bytes(forged).expect_err("old payloads, current header");
        assert!(
            matches!(
                err,
                SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. }
            ),
            "{fixture}: {err}"
        );
    }
}

/// The sections of a snapshot image, by id, read off its section table.
fn section_payloads(bytes: &[u8]) -> Vec<(u32, &[u8])> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = 24 + 32 * i;
            let field =
                |f: usize| u64::from_le_bytes(bytes[at + f..at + f + 8].try_into().unwrap());
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let (start, len) = (field(8) as usize, field(16) as usize);
            (id, &bytes[start..start + len])
        })
        .collect()
}

/// Layout 10 changed `STRINGS` and the version, nothing else: every
/// other section of the Figure 1 fixture is byte for byte the retired
/// layout 9's.
#[test]
fn layout_10_changes_only_the_strings_section() {
    let v9 = std::fs::read(golden_path("snapshot_v9.bin")).expect("read v9 fixture");
    let v10 = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML)
        .unwrap()
        .snapshot_to_bytes();
    let (old, new) = (section_payloads(&v9), section_payloads(&v10));
    let ids = |sections: &[(u32, &[u8])]| sections.iter().map(|&(id, _)| id).collect::<Vec<_>>();
    assert_eq!(ids(&old), ids(&new), "the section list changed");
    for (&(id, old), &(_, new)) in old.iter().zip(&new) {
        assert!(
            id == section::STRINGS || old == new,
            "section {} changed",
            section_name(id)
        );
    }
}

/// The layout byte budget — a structural, timing-free pin of what the
/// file stores per node. The meet index is four columns over the
/// preorder numbering (a u32 stack mask per node, a sparse table over
/// n/32 blocks, the CSR postings): at most 10 bytes a node plus the
/// path offsets and alignment slack — nothing
/// the path summary already says (depths), and nothing only the
/// partitioner reads. `COLUMNS` is the tree itself and nothing else: `σ` and parent, 8
/// bytes a node. `STRINGS` is each distinct value once plus an offset
/// per value, a value id per string, an owner per attribute string (a
/// cdata string's owner is a posting) and two offsets per path, each
/// column padded to a cache line: less than the text of every string
/// plus its id.
/// `FULLTEXT` is the vocabulary plus one owner a posting and a path and
/// an offset a `(token, path)` run — no path repeated per posting.
#[test]
fn store_sections_stay_within_their_byte_budget() {
    let corpus = DblpCorpus::generate(&DblpConfig::scaled(8_000));
    let db = Database::from_document(&corpus.document);
    let (n, paths) = (db.store().node_count(), db.store().summary().len());
    assert!(
        n >= 100_000,
        "corpus too small to pin a per-node budget: {n}"
    );
    let snap = MappedSnapshot::from_owned_bytes(db.snapshot_to_bytes(), VerifyMode::Lazy).unwrap();
    let bytes = |id: u32| snap.section(id).expect("section present").remaining();
    let meet_index = bytes(section::MEET_INDEX);
    assert!(
        meet_index <= 10 * n + 4 * paths + 4096,
        "MEET_INDEX is {meet_index} bytes for {n} nodes / {paths} paths ({:.1} B/node)",
        meet_index as f64 / n as f64
    );
    let columns = bytes(section::COLUMNS);
    assert!(
        columns <= 8 * n + 4096,
        "COLUMNS is {columns} bytes for {n} nodes ({:.1} B/node)",
        columns as f64 / n as f64
    );
    let store = db.store();
    let stats = store.stats();
    let (count, text) = (stats.string_associations, stats.string_bytes);
    let values = store.string_values();
    let distinct: usize = values.iter().map(str::len).sum();
    let attribute_strings: usize = store
        .summary()
        .iter()
        .filter(|&p| matches!(store.summary().step(p), PathStep::Attribute(_)))
        .map(|p| store.strings_of(p).len())
        .sum();
    let strings = bytes(section::STRINGS);
    assert!(
        strings
            <= 4 * (count + attribute_strings + values.len() + 1)
                + distinct
                + 8 * (paths + 1)
                + 32
                + 6 * 64,
        "STRINGS is {strings} bytes for {count} strings ({attribute_strings} attribute values) / \
         {} values of {distinct} bytes / {paths} paths",
        values.len()
    );
    assert!(
        strings < 4 * count + text,
        "STRINGS ({strings} bytes) is no smaller than the text of {count} strings ({text} bytes) \
         and their ids"
    );
    let index = db.index();
    let (tokens, runs, postings) = (
        index.vocabulary_size(),
        index.run_count(),
        index.posting_count(),
    );
    let vocabulary: usize = index.vocabulary().map(str::len).sum();
    let fulltext = bytes(section::FULLTEXT);
    assert!(
        fulltext <= 4 * postings + 8 * runs + vocabulary + 8 * (tokens + 1) + 4 + 6 * 64 + 32,
        "FULLTEXT is {fulltext} bytes for {postings} postings / {runs} runs / {tokens} tokens"
    );
    assert!(
        runs * 8 < postings,
        "a DBLP token's postings should share paths: {runs} runs for {postings} postings"
    );
}

/// Length-lies: forge a section-table entry (shrunken extent, overrun
/// extent, offset pointed at a different section's bytes) and *repair
/// the table checksum* so the header passes. Only per-extent
/// validation — bounds against the file, checksum over the padded
/// extent — stands between the lie and a wild read; every lie must be
/// a typed error naming the section, never a panic or a wrong answer.
#[test]
fn table_length_lies_are_typed_errors_end_to_end() {
    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let path = scratch("length-lies.ncq");
    db.save_snapshot(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");

    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = 24 + 32 * count;
    assert!(count >= 2, "need two sections to swap extents");
    let entry = |i: usize| {
        let at = 24 + 32 * i;
        let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
        (id, offset, len)
    };

    // Each lie rewrites entry fields, then recomputes the table
    // checksum so the forgery is internally consistent.
    let forge = |edit: &dyn Fn(&mut [u8])| {
        let mut forged = bytes.clone();
        edit(&mut forged);
        let sum = checksum64(&forged[24..table_end]);
        forged[16..24].copy_from_slice(&sum.to_le_bytes());
        forged
    };
    let open = |data: &[u8], name: &str| {
        std::fs::write(&path, data).expect("stage forged file");
        let err = Database::open_snapshot(&path)
            .err()
            .unwrap_or_else(|| panic!("{name}: forged snapshot opened cleanly"));
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Corrupt { .. }
            ),
            "{name}: expected a typed corruption error, got {err}"
        );
        err
    };

    // Overrun: the first section claims to extend past end-of-file.
    let (id0, _, _) = entry(0);
    let overrun = forge(&|f: &mut [u8]| {
        f[24 + 16..24 + 24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    });
    let err = open(&overrun, "overrun");
    if let SnapshotError::Truncated { context, .. } = err {
        assert_eq!(
            context,
            section_name(id0),
            "overrun error names the lied section"
        );
    }

    // Shrink: the extent is cut short, so the checksum over the padded
    // extent no longer matches what the writer recorded.
    let shrink = forge(&|f: &mut [u8]| {
        let len = u64::from_le_bytes(f[24 + 16..24 + 24].try_into().unwrap());
        f[24 + 16..24 + 24].copy_from_slice(&(len / 2).to_le_bytes());
    });
    open(&shrink, "shrink");

    // Swap: entry 0's extent redirected at entry 1's bytes — in-bounds,
    // plausible, and only the per-section checksum can tell.
    let (_, off1, len1) = entry(1);
    let swap = forge(&|f: &mut [u8]| {
        f[24 + 8..24 + 16].copy_from_slice(&off1.to_le_bytes());
        f[24 + 16..24 + 24].copy_from_slice(&len1.to_le_bytes());
    });
    open(&swap, "swap");

    std::fs::remove_file(&path).ok();
}

/// One file, two processes: the parent saves a snapshot, opens it, and
/// re-invokes this same test binary as a child that opens the *same
/// path* while the parent's map is still live. Both processes answer
/// the probe identically — the on-disk image is a complete, immutable
/// serving substrate, shareable through the page cache with no
/// per-process rebuild.
#[test]
fn one_snapshot_file_serves_two_processes_with_equal_answers() {
    // Child branch: open the file named by the env var, write the probe
    // answer where the parent asked, and exit.
    if let Ok(snap) = std::env::var("NCQ_V3_TWO_PROC_SNAPSHOT") {
        let out = std::env::var("NCQ_V3_TWO_PROC_OUT").expect("child out path");
        let db = Database::open_snapshot(&snap).expect("child open");
        std::fs::write(&out, probe(&db)).expect("child write");
        return;
    }

    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let path = scratch("two-proc.ncq");
    db.save_snapshot(&path).expect("save");

    // Parent's map stays open across the child's whole lifetime.
    let parent = Database::open_snapshot(&path).expect("parent open");
    let expected = probe(&parent);

    // A second open in the *same* process is also independent: two maps
    // of one file, equal answers.
    let again = Database::open_snapshot(&path).expect("second open");
    assert_eq!(probe(&again), expected, "second in-process open diverged");

    let out = scratch("two-proc-answer.txt");
    std::fs::remove_file(&out).ok();
    let status = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "one_snapshot_file_serves_two_processes_with_equal_answers",
            "--exact",
            "--nocapture",
        ])
        .env("NCQ_V3_TWO_PROC_SNAPSHOT", &path)
        .env("NCQ_V3_TWO_PROC_OUT", &out)
        .status()
        .expect("spawn child process");
    assert!(status.success(), "child process failed");
    let child_answer = std::fs::read_to_string(&out).expect("child answer");
    assert_eq!(child_answer, expected, "child process answers diverged");

    // The parent's map was live the whole time — re-probe to show the
    // concurrent child open did not disturb it.
    assert_eq!(
        probe(&parent),
        expected,
        "parent answers drifted after child ran"
    );

    for p in [&path, &out] {
        std::fs::remove_file(p).ok();
    }
}
