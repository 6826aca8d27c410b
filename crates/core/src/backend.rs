//! The execution-backend abstraction: one query surface, many engines.
//!
//! The query language (`ncq-query`), the server and the examples all
//! consume the same capabilities — resolve a term to hits, expose the
//! store the meet runs on, or answer a whole query where the corpus
//! lives. [`MeetBackend`] names that surface so callers can be written
//! once and served by the
//! single-process [`Database`], a [`crate::RemoteBackend`] whose
//! replicas answer whole requests, or a [`crate::ForestBackend`] of
//! named corpora, with identical answers.
//!
//! The trait is object-safe on purpose: `ncq-server` holds its backend
//! as `Arc<dyn MeetBackend>` so one service can front whichever engine
//! the deployment loaded.

use crate::answer::QueryOutput;
use crate::db::Database;
use ncq_fulltext::HitSet;
use ncq_store::snapshot::SnapshotError;
use ncq_store::MonetDb;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Typed execution failures of a backend. Local engines never fail;
/// remote engines surface transport exhaustion and remote-side refusals
/// here — never a panic, never a hang past the configured timeout
/// budget, never a silently empty answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// Every replica of the engine was tried (with retries and
    /// backoff) and none answered.
    Unavailable {
        /// What the last transport failure looked like.
        detail: String,
        /// Total connection/request attempts made before giving up.
        attempts: usize,
    },
    /// The remote engine answered, but with an in-band error (the
    /// request itself was refused — retrying elsewhere would not help).
    Remote {
        /// The remote error message.
        detail: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unavailable { detail, attempts } => {
                write!(f, "engine unavailable after {attempts} attempts: {detail}")
            }
            BackendError::Remote { detail } => write!(f, "remote engine error: {detail}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Robustness counters a backend accumulates while serving: the
/// forest-wide roll-up feeds the server's `STATS` verb. Local engines
/// report zeros; [`crate::RemoteBackend`] counts its failover router's
/// work; `ForestBackend` sums over its corpora.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Backoff retry rounds taken after a full replica sweep failed.
    pub retries: u64,
    /// Mid-call re-issues on another replica after one failed.
    pub failovers: u64,
    /// Replicas currently believed down (a gauge, not a counter).
    pub replicas_down: u64,
    /// Connect/read/write timeouts observed on replica transports.
    pub timeouts: u64,
}

impl RobustnessStats {
    /// Accumulate another backend's counters into this one.
    pub fn merge(&mut self, other: &RobustnessStats) {
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.replicas_down += other.replicas_down;
        self.timeouts += other.timeouts;
    }
}

/// A queryable meet engine over one corpus: full-text resolution and
/// the store the meet runs on, or — for a corpus held elsewhere — the
/// whole query answered where it lives.
///
/// Implementations must agree with [`Database`] bit-for-bit: the golden
/// and forest suites run the same queries through every backend and
/// compare serialized answers.
pub trait MeetBackend: Send + Sync {
    /// The corpus's Monet transform, when this process holds it. `None`
    /// for a remote corpus: its replicas hold the corpus, and such a
    /// backend answers every query whole on them
    /// ([`MeetBackend::answer_sql`]).
    fn store(&self) -> Option<&MonetDb>;

    /// Hits for one term (word, phrase or substring — the dispatch of
    /// [`ncq_fulltext::search::term_hits`]).
    fn search(&self, term: &str) -> Result<HitSet, BackendError>;

    /// Evaluate a query of the SQL dialect whole, on the engine that
    /// holds the corpus: `ncq-query` sends a query here — a MEET as the
    /// Listing-2 query it abbreviates — when the backend it resolved
    /// has no [`MeetBackend::store`]. `query` is
    /// the query text without a `corpus(…)` clause; `max_rows` caps a
    /// projection. Only a backend without a store overrides this; the
    /// default refuses. An evaluation error on the engine comes back
    /// untyped, as its rendered text in [`BackendError::Remote`]
    /// (`ncq-query` then reports it as `QueryError::Backend`).
    fn answer_sql(&self, _query: &str, _max_rows: usize) -> Result<QueryOutput, BackendError> {
        Err(BackendError::Unavailable {
            detail: "this engine holds no corpus to evaluate against".to_owned(),
            attempts: 0,
        })
    }

    /// This engine's robustness counters (zeros for local engines).
    fn robustness_stats(&self) -> RobustnessStats {
        RobustnessStats::default()
    }

    // ----- forest surface -----
    //
    // Single-document engines serve no named corpora, which is what the
    // defaults below say. `ncq-core::ForestBackend` overrides the lot
    // to serve a `Catalog` of named corpora; callers (the query
    // evaluator's `from corpus(name)` resolution, the server's
    // `USE`/`CORPORA` verbs) stay engine-agnostic.

    /// Resolve a named corpus to its engine. `None` when this backend
    /// serves no corpus of that name (single-document engines always
    /// answer `None`).
    fn corpus(&self, _name: &str) -> Option<Arc<dyn MeetBackend>> {
        None
    }

    /// The corpus names this backend serves, in catalog order. Empty
    /// for single-document engines.
    fn corpus_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// The name of the corpus unqualified queries hit, when this
    /// backend routes by corpus.
    fn default_corpus(&self) -> Option<String> {
        None
    }

    /// Cold-load a snapshot and splice it in as corpus `name`,
    /// returning the backend to serve *subsequent* batches. The
    /// replacement is opened by [`MeetBackend::open_snapshot_like`] on
    /// that corpus and shares
    /// every other corpus's engine by refcount, so in-flight batches on
    /// the old backend — and all other corpora — are untouched.
    fn reload_corpus(
        &self,
        _name: &str,
        _path: &Path,
    ) -> Result<Arc<dyn MeetBackend>, SnapshotError> {
        Err(SnapshotError::Unsupported {
            context: "this backend has no named corpora to reload",
        })
    }

    /// Persist this engine's full state as a versioned snapshot file
    /// (the server's `SNAPSHOT SAVE` verb dispatches here). The default
    /// refuses; [`Database`] writes its store and postings.
    fn save_snapshot(&self, _path: &Path) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported {
            context: "this backend does not persist snapshots",
        })
    }

    /// Cold-load a snapshot as an engine of the same kind as `self` (the
    /// server's `SNAPSHOT LOAD` hot-swap dispatches here). The default
    /// loads a plain [`Database`]; a remote corpus refuses (its
    /// replicas own it) and a forest refuses, reloading per corpus
    /// instead.
    fn open_snapshot_like(&self, path: &Path) -> Result<Arc<dyn MeetBackend>, SnapshotError> {
        Ok(Arc::new(Database::open_snapshot(path)?))
    }
}

impl MeetBackend for Database {
    fn store(&self) -> Option<&MonetDb> {
        Some(Database::store(self))
    }

    fn search(&self, term: &str) -> Result<HitSet, BackendError> {
        Ok(Database::search(self, term))
    }

    fn save_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        Database::save_snapshot(self, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = r#"
<bibliography>
  <institute>
    <article key="BB99">
      <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
      <title>How to Hack</title>
      <year>1999</year>
    </article>
  </institute>
</bibliography>"#;

    #[test]
    fn database_backend_matches_its_inherent_api() {
        let db = Database::from_xml_str(FIGURE1).unwrap();
        let backend: &dyn MeetBackend = &db;
        assert_eq!(backend.search("Bit").unwrap(), db.search("Bit"));
        assert_eq!(
            backend.store().map(MonetDb::node_count),
            Some(db.store().node_count())
        );
        // A store-holding backend sends no SQL anywhere.
        assert!(backend.answer_sql("select t from % as t", 10).is_err());
    }
}
