//! The forest engine: a [`Catalog`] of named corpora behind one
//! [`MeetBackend`].
//!
//! The paper defines nearest-concept semantics per document; a serving
//! process holds *many* documents — one engine per corpus, named by a
//! manifest, addressed by the query language (`from corpus(name)`) and
//! the line protocol (`USE`, `CORPORA`). Two pieces implement that
//! here:
//!
//! * [`Catalog`] — an ordered set of `name → Arc<dyn MeetBackend>`
//!   corpora with a default. Built programmatically or from a
//!   versioned [`Manifest`] file ([`Catalog::open_manifest`]: each
//!   entry a snapshot, verified against the manifest's recorded
//!   checksum before decode, served in-process or by its replicas).
//! * [`ForestBackend`] — [`MeetBackend`] over a catalog. The trait
//!   surface (store / search / SQL) routes to the **default corpus**,
//!   so unqualified queries answer byte-identically to a direct
//!   `Database` on that corpus; `corpus(name)` resolution routes
//!   qualified queries, and `ncq-server`'s `USE *` fans a meet out
//!   over every corpus, concatenating corpus-tagged answers in catalog
//!   order. Meets never span corpora — documents share no root, so a
//!   cross-corpus LCA does not exist; concatenation *is* the complete
//!   answer.
//!
//! Hot swaps stay per-corpus: [`MeetBackend::reload_corpus`] clones
//! the catalog, replaces one corpus's engine (via that corpus's
//! `open_snapshot_like`) and returns a new forest sharing
//! every other engine by refcount — the server's generation-tagged
//! swap then retires the old forest without touching in-flight batches
//! or sibling corpora.

use crate::answer::QueryOutput;
use crate::backend::{BackendError, MeetBackend, RobustnessStats};
use crate::db::Database;
use crate::remote::{RemoteBackend, RemoteConfig};
use ncq_fulltext::HitSet;
use ncq_store::manifest::{Manifest, ManifestError};
use ncq_store::snapshot::{checksum64, SnapshotError, SNAPSHOT_VERSION};
use ncq_store::{validate_corpus_name, MappedSnapshot, MonetDb, VerifyMode};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Typed catalog failures: manifest problems, per-corpus snapshot
/// problems, and structural misuse. Never a panic.
#[derive(Debug)]
pub enum CatalogError {
    /// The manifest file failed to load or validate.
    Manifest(ManifestError),
    /// A corpus's snapshot failed to read or decode.
    Corpus {
        /// The corpus name.
        name: String,
        /// The underlying failure.
        error: SnapshotError,
    },
    /// A corpus's snapshot file does not hash to the manifest's
    /// recorded checksum (swapped, truncated or bit-rotted on disk).
    ChecksumMismatch {
        /// The corpus name.
        name: String,
    },
    /// A corpus's recorded snapshot layout version is not the one this
    /// build reads — the manifest describes another era's snapshots.
    LayoutVersion {
        /// The corpus name.
        name: String,
        /// Version recorded in the manifest.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// Two corpora share a name.
    DuplicateCorpus {
        /// The duplicated name.
        name: String,
    },
    /// A name is empty or carries whitespace / control characters.
    InvalidName {
        /// The offending name.
        name: String,
    },
    /// The named corpus does not exist.
    UnknownCorpus {
        /// The requested name.
        name: String,
    },
    /// A forest needs at least one corpus.
    Empty,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Manifest(e) => write!(f, "{e}"),
            CatalogError::Corpus { name, error } => write!(f, "corpus {name:?}: {error}"),
            CatalogError::ChecksumMismatch { name } => write!(
                f,
                "corpus {name:?}: snapshot file does not match the manifest checksum"
            ),
            CatalogError::LayoutVersion {
                name,
                found,
                supported,
            } => write!(
                f,
                "corpus {name:?}: snapshot layout version {found} (this build reads {supported})"
            ),
            CatalogError::DuplicateCorpus { name } => {
                write!(f, "corpus {name:?} appears more than once")
            }
            CatalogError::InvalidName { name } => write!(
                f,
                "corpus name {name:?} must be non-empty without whitespace or control characters"
            ),
            CatalogError::UnknownCorpus { name } => write!(f, "unknown corpus {name:?}"),
            CatalogError::Empty => write!(f, "a catalog needs at least one corpus"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Manifest(e) => Some(e),
            CatalogError::Corpus { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<ManifestError> for CatalogError {
    fn from(e: ManifestError) -> CatalogError {
        CatalogError::Manifest(e)
    }
}

#[derive(Clone)]
struct Corpus {
    name: String,
    backend: Arc<dyn MeetBackend>,
}

/// An ordered, named set of corpora with a default. Engines are held
/// as `Arc<dyn MeetBackend>`, so a catalog clone shares every engine —
/// the cheap building block of per-corpus hot swaps.
#[derive(Clone, Default)]
pub struct Catalog {
    corpora: Vec<Corpus>,
    default: usize,
}

impl Catalog {
    /// An empty catalog (add corpora, then wrap in a
    /// [`ForestBackend`]).
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Append a corpus. The first added corpus is the default until
    /// [`Catalog::set_default`] changes it. The engine's meet index is
    /// forced eagerly so queries never race the build.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        backend: Arc<dyn MeetBackend>,
    ) -> Result<(), CatalogError> {
        let name = name.into();
        if validate_corpus_name(&name).is_err() {
            return Err(CatalogError::InvalidName { name });
        }
        if self.corpora.iter().any(|c| c.name == name) {
            return Err(CatalogError::DuplicateCorpus { name });
        }
        if let Some(store) = backend.store() {
            store.meet_index();
        }
        self.corpora.push(Corpus { name, backend });
        Ok(())
    }

    /// Swap the engine behind an existing corpus (the hot-swap path).
    pub fn replace(
        &mut self,
        name: &str,
        backend: Arc<dyn MeetBackend>,
    ) -> Result<(), CatalogError> {
        let corpus = self
            .corpora
            .iter_mut()
            .find(|c| c.name == name)
            .ok_or_else(|| CatalogError::UnknownCorpus {
                name: name.to_owned(),
            })?;
        if let Some(store) = backend.store() {
            store.meet_index();
        }
        corpus.backend = backend;
        Ok(())
    }

    /// Make `name` the corpus unqualified queries hit.
    pub fn set_default(&mut self, name: &str) -> Result<(), CatalogError> {
        self.default = self
            .corpora
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| CatalogError::UnknownCorpus {
                name: name.to_owned(),
            })?;
        Ok(())
    }

    /// The engine behind a corpus name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn MeetBackend>> {
        self.corpora
            .iter()
            .find(|c| c.name == name)
            .map(|c| &c.backend)
    }

    /// Corpus names, in catalog order.
    pub fn names(&self) -> Vec<String> {
        self.corpora.iter().map(|c| c.name.clone()).collect()
    }

    /// The default corpus's name, if the catalog is non-empty.
    pub fn default_name(&self) -> Option<&str> {
        self.corpora.get(self.default).map(|c| c.name.as_str())
    }

    /// The default corpus's engine. Panics on an empty catalog —
    /// [`ForestBackend::new`] refuses those up front.
    pub fn default_backend(&self) -> &Arc<dyn MeetBackend> {
        &self.corpora[self.default].backend
    }

    /// Number of corpora.
    pub fn len(&self) -> usize {
        self.corpora.len()
    }

    /// Whether the catalog holds no corpora.
    pub fn is_empty(&self) -> bool {
        self.corpora.is_empty()
    }

    /// Iterate `(name, engine)` pairs in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<dyn MeetBackend>)> {
        self.corpora.iter().map(|c| (c.name.as_str(), &c.backend))
    }

    /// Open every corpus of a manifest. Each corpus snapshot is opened
    /// once as a [`MappedSnapshot`] and verified before it is decoded:
    /// the file is mmapped, every section is verified eagerly against
    /// the container's own per-section checksums, and the mapped bytes
    /// are hashed against the manifest's recorded whole-file checksum
    /// so a swapped-but-internally-valid file still fails typed (the
    /// pages are already resident from the eager pass, so this costs no
    /// extra IO). An entry recording any other layout version fails
    /// with [`CatalogError::LayoutVersion`] before its file is opened.
    /// Serving opens that want the lazy microsecond path go through
    /// [`Database::open_snapshot`] directly.
    ///
    /// An entry without endpoints is served in-process as a
    /// [`Database`]. An entry with replica endpoints is verified and
    /// decoded the same way, then handed to [`RemoteBackend::new`],
    /// which keeps nothing of it: the listed replicas answer whole
    /// requests with failover, routed by `remote_config` (timeouts,
    /// retry rounds, backoff — the stress suites tighten these), and
    /// the coordinator holds no copy of the corpus.
    pub fn open_manifest(
        path: impl AsRef<Path>,
        remote_config: RemoteConfig,
    ) -> Result<Catalog, CatalogError> {
        let path = path.as_ref();
        let manifest = Manifest::load(path)?;
        let mut catalog = Catalog::new();
        for entry in &manifest.corpora {
            if entry.layout_version != SNAPSHOT_VERSION {
                return Err(CatalogError::LayoutVersion {
                    name: entry.name.clone(),
                    found: entry.layout_version,
                    supported: SNAPSHOT_VERSION,
                });
            }
            let snapshot_path = Manifest::resolve(path, entry);
            let snap = MappedSnapshot::open_with(&snapshot_path, VerifyMode::Eager).map_err(
                |e| match e {
                    SnapshotError::ChecksumMismatch { .. } => CatalogError::ChecksumMismatch {
                        name: entry.name.clone(),
                    },
                    error => CatalogError::Corpus {
                        name: entry.name.clone(),
                        error,
                    },
                },
            )?;
            if checksum64(snap.bytes()) != entry.checksum {
                return Err(CatalogError::ChecksumMismatch {
                    name: entry.name.clone(),
                });
            }
            let db = Database::decode_from(&snap).map_err(|error| CatalogError::Corpus {
                name: entry.name.clone(),
                error,
            })?;
            let backend: Arc<dyn MeetBackend> = if entry.endpoints.is_empty() {
                Arc::new(db)
            } else {
                let remote = RemoteBackend::new(db, &entry.endpoints, remote_config.clone())
                    .map_err(|_| CatalogError::Corpus {
                        name: entry.name.clone(),
                        // Unreachable: this branch holds a non-empty
                        // endpoint list.
                        error: SnapshotError::Unsupported {
                            context: "remote corpus entry lost its endpoints",
                        },
                    })?;
                Arc::new(remote)
            };
            catalog.add(entry.name.clone(), backend)?;
        }
        let default = &manifest.corpora[manifest.default].name;
        catalog.set_default(default)?;
        Ok(catalog)
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("corpora", &self.names())
            .field("default", &self.default_name())
            .finish()
    }
}

/// Open a manifest under the default router configuration, wrapped as
/// a serving backend — the engine `ncq-server`'s `Server::open_manifest`
/// serves.
pub fn open_forest(manifest_path: impl AsRef<Path>) -> Result<ForestBackend, CatalogError> {
    ForestBackend::new(Catalog::open_manifest(
        manifest_path,
        RemoteConfig::default(),
    )?)
}

/// [`MeetBackend`] over a [`Catalog`]: the forest engine.
#[derive(Clone)]
pub struct ForestBackend {
    catalog: Catalog,
}

impl ForestBackend {
    /// Wrap a catalog; refuses an empty one (the trait surface needs a
    /// default corpus to route to).
    pub fn new(catalog: Catalog) -> Result<ForestBackend, CatalogError> {
        if catalog.is_empty() {
            return Err(CatalogError::Empty);
        }
        Ok(ForestBackend { catalog })
    }

    /// The catalog in effect.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

impl fmt::Debug for ForestBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForestBackend")
            .field("catalog", &self.catalog)
            .finish()
    }
}

impl MeetBackend for ForestBackend {
    fn store(&self) -> Option<&MonetDb> {
        self.catalog.default_backend().store()
    }

    fn search(&self, term: &str) -> Result<HitSet, BackendError> {
        self.catalog.default_backend().search(term)
    }

    fn answer_sql(&self, query: &str, max_rows: usize) -> Result<QueryOutput, BackendError> {
        self.catalog.default_backend().answer_sql(query, max_rows)
    }

    fn corpus(&self, name: &str) -> Option<Arc<dyn MeetBackend>> {
        self.catalog.get(name).map(Arc::clone)
    }

    fn corpus_names(&self) -> Vec<String> {
        self.catalog.names()
    }

    fn default_corpus(&self) -> Option<String> {
        self.catalog.default_name().map(str::to_owned)
    }

    fn robustness_stats(&self) -> RobustnessStats {
        let mut total = RobustnessStats::default();
        for (_, backend) in self.catalog.iter() {
            total.merge(&backend.robustness_stats());
        }
        total
    }

    fn save_snapshot(&self, _path: &Path) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported {
            context: "a forest has no single snapshot; save each corpus through its own engine",
        })
    }

    fn open_snapshot_like(&self, _path: &Path) -> Result<Arc<dyn MeetBackend>, SnapshotError> {
        Err(SnapshotError::Unsupported {
            context: "forest deployments reload per corpus (SNAPSHOT LOAD <file> INTO <corpus>)",
        })
    }

    fn reload_corpus(
        &self,
        name: &str,
        path: &Path,
    ) -> Result<Arc<dyn MeetBackend>, SnapshotError> {
        let current = self.catalog.get(name).ok_or(SnapshotError::Unsupported {
            context: "no corpus of that name in the catalog",
        })?;
        // Reload *this corpus only*; every other engine is shared.
        let fresh = current.open_snapshot_like(path)?;
        let mut catalog = self.catalog.clone();
        catalog
            .replace(name, fresh)
            .expect("corpus existence checked above");
        Ok(Arc::new(ForestBackend { catalog }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerSet;
    use crate::meet_multi::MeetOptions;

    /// A meet of `terms` through a backend's trait surface: its
    /// `search` for the hits, its `store` for the meet.
    fn meet(backend: &dyn MeetBackend, terms: &[&str]) -> AnswerSet {
        let store = backend.store().expect("a local corpus");
        let inputs: Vec<HitSet> = terms.iter().map(|t| backend.search(t).unwrap()).collect();
        let meets = crate::sweep::meet_hits(store, &inputs, &MeetOptions::default());
        AnswerSet::from_meets(store, meets)
    }

    const BIB: &str = r#"<bib><article key="BB99"><author>Ben Bit</author>
        <year>1999</year></article></bib>"#;
    const SHOP: &str = r#"<shop><item><label>Bit driver</label>
        <price>1999</price></item></shop>"#;

    fn forest() -> ForestBackend {
        let mut catalog = Catalog::new();
        catalog
            .add("bib", Arc::new(Database::from_xml_str(BIB).unwrap()))
            .unwrap();
        catalog
            .add("shop", Arc::new(Database::from_xml_str(SHOP).unwrap()))
            .unwrap();
        ForestBackend::new(catalog).unwrap()
    }

    #[test]
    fn trait_surface_routes_to_the_default_corpus_byte_identically() {
        let forest = forest();
        let direct = Database::from_xml_str(BIB).unwrap();
        assert_eq!(
            meet(&forest, &["Bit", "1999"]).to_detailed_xml(),
            direct
                .meet_terms(&["Bit", "1999"])
                .unwrap()
                .to_detailed_xml()
        );
        assert_eq!(forest.search("Bit").unwrap(), direct.search("Bit"));
        assert_eq!(
            MeetBackend::store(&forest).map(MonetDb::node_count),
            Some(direct.store().node_count())
        );
    }

    #[test]
    fn corpus_resolution_and_names() {
        let forest = forest();
        assert_eq!(forest.corpus_names(), vec!["bib", "shop"]);
        assert_eq!(forest.default_corpus().as_deref(), Some("bib"));
        assert!(forest.corpus("shop").is_some());
        assert!(forest.corpus("absent").is_none());
        // Single-document engines are forests of none.
        let db = Database::from_xml_str(BIB).unwrap();
        assert!(db.corpus_names().is_empty());
        assert!(MeetBackend::corpus(&db, "bib").is_none());
    }

    #[test]
    fn catalog_misuse_is_typed() {
        let mut catalog = Catalog::new();
        assert!(matches!(
            ForestBackend::new(catalog.clone()),
            Err(CatalogError::Empty)
        ));
        let db: Arc<dyn MeetBackend> = Arc::new(Database::from_xml_str(BIB).unwrap());
        catalog.add("bib", Arc::clone(&db)).unwrap();
        assert!(matches!(
            catalog.add("bib", Arc::clone(&db)),
            Err(CatalogError::DuplicateCorpus { .. })
        ));
        assert!(matches!(
            catalog.add("two words", Arc::clone(&db)),
            Err(CatalogError::InvalidName { .. })
        ));
        assert!(matches!(
            catalog.set_default("absent"),
            Err(CatalogError::UnknownCorpus { .. })
        ));
        assert!(matches!(
            catalog.replace("absent", db),
            Err(CatalogError::UnknownCorpus { .. })
        ));
    }

    #[test]
    fn reload_corpus_shares_untouched_engines() {
        let dir = std::env::temp_dir().join("ncq-catalog-reload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shop.ncq");
        Database::from_xml_str(SHOP)
            .unwrap()
            .save_snapshot(&path)
            .unwrap();

        let forest = forest();
        let bib_before = Arc::clone(forest.catalog().get("bib").unwrap());
        let swapped = forest.reload_corpus("shop", &path).unwrap();
        // The untouched corpus is the *same* engine (refcount share)…
        let bib_after = swapped.corpus("bib").unwrap();
        assert!(Arc::ptr_eq(&bib_before, &bib_after));
        // …and the swapped corpus still answers.
        let shop = swapped.corpus("shop").unwrap();
        assert_eq!(meet(&*shop, &["Bit", "1999"]).tags(), vec!["item"]);
        // Unknown corpus and non-forest engines fail typed.
        assert!(forest.reload_corpus("absent", &path).is_err());
        let db = Database::from_xml_str(BIB).unwrap();
        assert!(db.reload_corpus("bib", &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_manifest_round_trips_and_detects_rot() {
        use ncq_store::manifest::{Manifest, ManifestEntry};
        let dir = std::env::temp_dir().join("ncq-catalog-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bib_snap = dir.join("bib.ncq");
        let shop_snap = dir.join("shop.ncq");
        Database::from_xml_str(BIB)
            .unwrap()
            .save_snapshot(&bib_snap)
            .unwrap();
        Database::from_xml_str(SHOP)
            .unwrap()
            .save_snapshot(&shop_snap)
            .unwrap();

        let mut manifest = Manifest::new();
        manifest
            .push(ManifestEntry::describe("bib", &bib_snap).unwrap())
            .unwrap();
        manifest
            .push(ManifestEntry::describe("shop", &shop_snap).unwrap())
            .unwrap();
        manifest.default = 1;
        let mpath = dir.join("forest.ncqm");
        manifest.save(&mpath).unwrap();

        let catalog = Catalog::open_manifest(&mpath, RemoteConfig::default()).unwrap();
        assert_eq!(catalog.names(), vec!["bib", "shop"]);
        assert_eq!(catalog.default_name(), Some("shop"));
        let forest = ForestBackend::new(catalog).unwrap();
        // Default routing follows the manifest's default index.
        assert_eq!(meet(&forest, &["Bit", "1999"]).tags(), vec!["item"]);

        // A modified snapshot file fails the manifest checksum, typed.
        let mut rotted = std::fs::read(&bib_snap).unwrap();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x01;
        std::fs::write(&bib_snap, &rotted).unwrap();
        assert!(matches!(
            open_forest(&mpath),
            Err(CatalogError::ChecksumMismatch { name }) if name == "bib"
        ));

        // A dangling snapshot path is a typed io failure.
        std::fs::remove_file(&bib_snap).unwrap();
        assert!(matches!(
            open_forest(&mpath),
            Err(CatalogError::Corpus { name, error: SnapshotError::Io(_) }) if name == "bib"
        ));

        for p in [&shop_snap, &mpath] {
            std::fs::remove_file(p).ok();
        }
    }
}
