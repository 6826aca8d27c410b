//! Shard-aware forest loading: a manifest entry with `shards > 1`
//! materializes as a [`ShardedDb`], so the catalog's scatter/gather
//! layer addresses `(corpus, shard)` pairs — the catalog routes a
//! query to one corpus, that corpus's [`crate::PartitionMap`] routes the work
//! to its shards, and the gather pass stays the only cross-shard
//! step. Single-shard entries stay plain [`Database`]s (a one-shard
//! `ShardedDb` would only add a delegating facade).
//!
//! This lives in `ncq-shard` (not `ncq-core`) because the core catalog
//! cannot name `ShardedDb` without inverting the crate stack; the
//! opener hook of [`Catalog::open_manifest_remote`] exists exactly for
//! this split.

use crate::sharded::ShardedDb;
use ncq_core::{Catalog, CatalogError, Database, ForestBackend, MeetBackend, RemoteConfig};
use std::path::Path;
use std::sync::Arc;

/// Open every corpus of a manifest with its requested shard count:
/// `shards > 1` entries cold-start as [`ShardedDb`] (reusing the
/// snapshot's stored partition cut when the K matches), single-shard
/// entries as plain [`Database`]s. Snapshot files are verified against
/// the manifest's recorded checksums before decoding. Entries that
/// name replica endpoints are served through `ncq-core`'s
/// `RemoteBackend` instead (the endpoint branch lives in
/// `Catalog::open_manifest_remote`, shared with the unsharded loader),
/// routed by `remote_config` (the stress suites tighten the timeouts).
pub fn open_catalog_remote(
    manifest_path: impl AsRef<Path>,
    remote_config: RemoteConfig,
) -> Result<Catalog, CatalogError> {
    Catalog::open_manifest_remote(
        manifest_path,
        |entry, snap| {
            if entry.shards > 1 {
                Ok(Arc::new(ShardedDb::from_source(snap, entry.shards)?) as Arc<dyn MeetBackend>)
            } else {
                Ok(Arc::new(Database::decode_from(snap)?) as Arc<dyn MeetBackend>)
            }
        },
        remote_config,
    )
}

/// [`open_catalog_remote`] under the default router configuration,
/// wrapped as a serving backend — the engine `ncq-server`'s
/// `Server::open_manifest` spins its worker pool over.
pub fn open_forest(manifest_path: impl AsRef<Path>) -> Result<ForestBackend, CatalogError> {
    ForestBackend::new(open_catalog_remote(manifest_path, RemoteConfig::default())?)
}

/// Build a [`crate::PartitionMap`]-backed corpus programmatically (tests and
/// tooling): partition `db` into `k` shards and return it as a
/// catalog-ready engine.
pub fn sharded_corpus(db: impl Into<Arc<Database>>, k: usize) -> Arc<dyn MeetBackend> {
    Arc::new(ShardedDb::new(db, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_core::MeetOptions;
    use ncq_store::manifest::{Manifest, ManifestEntry};

    fn wide_xml(sections: usize, leaves: usize) -> String {
        let mut xml = String::from("<r>");
        for s in 0..sections {
            xml.push_str("<sec>");
            for l in 0..leaves {
                xml.push_str(&format!("<p>text {s} {l}</p>"));
            }
            xml.push_str("</sec>");
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn manifest_shard_counts_route_to_sharded_engines() {
        let dir = std::env::temp_dir().join("ncq-forest-open-test");
        std::fs::create_dir_all(&dir).unwrap();
        let wide = Database::from_xml_str(&wide_xml(12, 6)).unwrap();
        let narrow = Database::from_xml_str("<bib><a>Ben Bit</a><y>1999</y></bib>").unwrap();

        // Save the wide corpus *through the sharded engine* so the
        // snapshot carries a K=4 partition cut to reuse.
        let wide_snap = dir.join("wide.ncq");
        ShardedDb::new(wide.clone(), 4)
            .save_snapshot(&wide_snap)
            .unwrap();
        let narrow_snap = dir.join("narrow.ncq");
        narrow.save_snapshot(&narrow_snap).unwrap();

        let mut manifest = Manifest::new();
        manifest
            .push(ManifestEntry::describe("wide", &wide_snap, 4).unwrap())
            .unwrap();
        manifest
            .push(ManifestEntry::describe("narrow", &narrow_snap, 1).unwrap())
            .unwrap();
        let mpath = dir.join("forest.ncqm");
        manifest.save(&mpath).unwrap();

        let forest = open_forest(&mpath).unwrap();
        assert_eq!(forest.corpus_names(), vec!["wide", "narrow"]);

        // The sharded corpus answers byte-identically to the direct
        // database — scatter/gather addressed through the catalog.
        let opts = MeetOptions::default();
        let via_forest = forest
            .corpus("wide")
            .unwrap()
            .meet_terms_answers(&["text", "3"], &opts)
            .unwrap();
        let direct = wide.meet_terms(&["text", "3"]).unwrap();
        assert_eq!(via_forest.to_detailed_xml(), direct.to_detailed_xml());

        // Per-corpus hot swap keeps the corpus's sharded shape: the
        // reload goes through ShardedDb::open_snapshot_like.
        let swapped = forest.reload_corpus("wide", &wide_snap).unwrap();
        let again = swapped
            .corpus("wide")
            .unwrap()
            .meet_terms_answers(&["text", "3"], &opts)
            .unwrap();
        assert_eq!(again.to_detailed_xml(), direct.to_detailed_xml());

        for p in [&wide_snap, &narrow_snap, &mpath] {
            std::fs::remove_file(p).ok();
        }
    }
}
