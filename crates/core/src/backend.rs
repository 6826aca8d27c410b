//! The execution-backend abstraction: one query surface, many engines.
//!
//! The query language (`ncq-query`), the server and the examples all
//! consume the same three capabilities — resolve a term to hits, meet
//! hit groups, expose the store for schema work. [`MeetBackend`] names
//! that surface so callers can be written once and served by the
//! single-process [`Database`], a [`crate::RemoteBackend`] proxying to
//! replicas, or a [`crate::ForestBackend`] of named corpora, with
//! identical answers.
//!
//! The trait is object-safe on purpose: `ncq-server` holds its backend
//! as `Arc<dyn MeetBackend>` so one worker pool can front whichever
//! engine the deployment loaded.

use crate::answer::AnswerSet;
use crate::db::Database;
use crate::meet_multi::{Meet, MeetOptions};
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

/// A queryable meet engine: full-text resolution plus the generalized
/// meet, over one shared [`MonetDb`] schema.
///
/// Implementations must agree with [`Database`] bit-for-bit: the golden
/// and forest suites run the same queries through every backend and
/// compare serialized answers.
pub trait MeetBackend: Send + Sync {
    /// The underlying Monet transform.
    fn store(&self) -> &MonetDb;

    /// Hits for one term (word, phrase or substring — the dispatch of
    /// [`ncq_fulltext::search::term_hits`]).
    fn search(&self, term: &str) -> Result<HitSet, BackendError>;

    /// The generalized meet over hit groups (paper Fig. 5), ranked —
    /// the engine's equivalent of [`Database::meet_hits`].
    fn meet_hit_groups(
        &self,
        inputs: &[&HitSet],
        options: &MeetOptions,
    ) -> Result<Vec<Meet>, BackendError>;

    /// The paper's signature query through this engine: search each
    /// term, meet the hit groups, resolve an [`AnswerSet`].
    fn meet_terms_answers(
        &self,
        terms: &[&str],
        options: &MeetOptions,
    ) -> Result<AnswerSet, BackendError> {
        let inputs = terms
            .iter()
            .map(|t| self.search(t))
            .collect::<Result<Vec<HitSet>, _>>()?;
        let refs: Vec<&HitSet> = inputs.iter().collect();
        let meets = self.meet_hit_groups(&refs, options)?;
        Ok(AnswerSet::from_meets(self.store(), meets))
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
    /// loads a plain [`Database`]; a remote engine keeps its replicas
    /// and a forest refuses, reloading per corpus instead.
    fn open_snapshot_like(&self, path: &Path) -> Result<Arc<dyn MeetBackend>, SnapshotError> {
        Ok(Arc::new(Database::open_snapshot(path)?))
    }
}

impl MeetBackend for Database {
    fn store(&self) -> &MonetDb {
        Database::store(self)
    }

    fn search(&self, term: &str) -> Result<HitSet, BackendError> {
        Ok(Database::search(self, term))
    }

    fn meet_hit_groups(
        &self,
        inputs: &[&HitSet],
        options: &MeetOptions,
    ) -> Result<Vec<Meet>, BackendError> {
        Ok(self.meet_hits(inputs, options))
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
        let inputs = vec![db.search("Bit"), db.search("1999")];
        let refs: Vec<&HitSet> = inputs.iter().collect();
        let opts = MeetOptions::default();
        assert_eq!(
            backend.meet_hit_groups(&refs, &opts).unwrap(),
            db.meet_hits(&inputs, &opts)
        );
        let answers = backend.meet_terms_answers(&["Bit", "1999"], &opts).unwrap();
        assert_eq!(answers, db.meet_terms(&["Bit", "1999"]).unwrap());
    }
}
