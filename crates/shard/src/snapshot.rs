//! Snapshot codec for the shard partition map, and the sharded
//! engine's cold-start entry points.
//!
//! A sharded deployment persists one extra section on top of the
//! store/fulltext sections of [`ncq_core::Database`]: the
//! [`PartitionMap`] — chunk roots, covering preorder intervals, the
//! spine bitset and the mass accounting. Everything else a shard needs
//! (restricted postings, spine slices) is *derived* from the map plus
//! the global relations, so the section stays tiny while
//! [`ShardedDb::open_snapshot`] still skips the chunk decomposition
//! walk entirely.
//!
//! The `PARTITION` section (inside the checksummed container of
//! [`ncq_store::mmap`]) front-loads the scalars and shard metadata and
//! stores the two arrays — concatenated chunk roots and the spine
//! bitset — as aligned columns, so the (large, O(n/64)) spine is served
//! zero-copy from the mapped file:
//!
//! ```text
//! requested K · shard count · spine nodes · total mass
//!   · total roots · spine words                      (6 × u64)
//! per shard: root count · start · end · nodes · mass  (5 × u64)
//! roots: u32[total roots]   concatenated, shard-major
//! spine: u64[spine words]
//! ```

use crate::partition::{PartitionMap, ShardInfo};
use crate::sharded::ShardedDb;
use ncq_core::Database;
use ncq_store::snapshot::{section, SnapshotError};
use ncq_store::{MappedSnapshot, Oid, SnapshotWriterV3, VerifyMode};
use std::path::Path;
use std::sync::Arc;

/// Structural checks on a decoded map: shard intervals ascend,
/// stay disjoint and in range, chunk roots are preorder-sorted inside
/// their interval, the spine bitset is sized to the instance and its
/// popcount matches, and every object outside the covering intervals
/// is a spine node ([`PartitionMap::shard_of`] clamps its interval
/// search, so an unnoticed gap would silently attribute an object to a
/// shard that does not own it — it must be a typed error instead).
fn validate_partition(
    requested_k: usize,
    shards: &[ShardInfo],
    spine: &[u64],
    spine_nodes: usize,
    node_count: usize,
) -> Result<(), SnapshotError> {
    if requested_k == 0 || shards.is_empty() || shards.len() > requested_k {
        return Err(SnapshotError::Corrupt {
            context: "partition shard counts inconsistent",
        });
    }
    let mut prev_end = 0usize;
    for shard in shards {
        let (start, end) = (shard.range.start, shard.range.end);
        if shard.roots.is_empty()
            || start < prev_end
            || end <= start
            || end > node_count
            || shard.roots.first().is_some_and(|r| r.index() != start)
            || shard
                .roots
                .iter()
                .any(|r| r.index() < start || r.index() >= end)
            || shard.roots.windows(2).any(|w| w[0] >= w[1])
            || shard.nodes > end - start
        {
            return Err(SnapshotError::Corrupt {
                context: "partition shard interval invalid",
            });
        }
        prev_end = end;
    }
    if spine.len() != node_count.div_ceil(64)
        || spine_nodes != spine.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    {
        return Err(SnapshotError::Corrupt {
            context: "partition spine bitset inconsistent",
        });
    }
    let is_spine = |o: usize| spine[o / 64] >> (o % 64) & 1 == 1;
    let mut cursor = 0usize;
    for shard in shards {
        if (cursor..shard.range.start).any(|o| !is_spine(o)) {
            return Err(SnapshotError::Corrupt {
                context: "partition leaves a non-spine object uncovered",
            });
        }
        cursor = shard.range.end;
    }
    if (cursor..node_count).any(|o| !is_spine(o)) {
        return Err(SnapshotError::Corrupt {
            context: "partition leaves a non-spine object uncovered",
        });
    }
    Ok(())
}

impl PartitionMap {
    /// Write the `PARTITION` section: scalars and shard metadata up
    /// front, then the concatenated chunk roots and the spine bitset as
    /// aligned columns.
    pub fn encode_snapshot(&self, writer: &mut SnapshotWriterV3) {
        let total_roots: usize = self.shards.iter().map(|s| s.roots.len()).sum();
        let mut s = writer.section(section::PARTITION);
        s.put_u64(self.requested_k as u64);
        s.put_u64(self.shards.len() as u64);
        s.put_u64(self.spine_nodes as u64);
        s.put_u64(self.total_mass);
        s.put_u64(total_roots as u64);
        s.put_u64(self.spine.len() as u64);
        for shard in &self.shards {
            s.put_u64(shard.roots.len() as u64);
            s.put_u64(shard.range.start as u64);
            s.put_u64(shard.range.end as u64);
            s.put_u64(shard.nodes as u64);
            s.put_u64(shard.mass);
        }
        let roots: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|s| s.roots.iter().map(|o| o.index() as u32))
            .collect();
        s.put_col::<u32>(&roots);
        s.put_col::<u64>(&self.spine);
    }

    /// Read the `PARTITION` section: shard metadata is materialized
    /// (it is O(K)), the spine bitset stays a zero-copy view. Read
    /// through [`MappedSnapshot::section_verified`] — the section is
    /// fully scanned by the validation below anyway, so the checksum
    /// rides along for free.
    pub fn decode_snapshot(
        snap: &MappedSnapshot,
        node_count: usize,
    ) -> Result<PartitionMap, SnapshotError> {
        let mut s = snap.section_verified(section::PARTITION)?;
        let requested_k = s.get_u64()? as usize;
        let shard_count = s.get_u64()? as usize;
        let spine_nodes = s.get_u64()? as usize;
        let total_mass = s.get_u64()?;
        let total_roots = s.get_u64()? as usize;
        let spine_words = s.get_u64()? as usize;
        if requested_k == 0 || shard_count == 0 || shard_count > requested_k {
            return Err(SnapshotError::Corrupt {
                context: "partition shard counts inconsistent",
            });
        }
        struct Meta {
            roots: usize,
            start: usize,
            end: usize,
            nodes: usize,
            mass: u64,
        }
        // Clamped: a shard entry spans 40 payload bytes, so an
        // inconsistent count fails typed instead of aborting on a
        // multi-gigabyte pre-allocation.
        let mut metas = Vec::with_capacity(shard_count.min(s.remaining() / 40));
        for _ in 0..shard_count {
            metas.push(Meta {
                roots: s.get_u64()? as usize,
                start: s.get_u64()? as usize,
                end: s.get_u64()? as usize,
                nodes: s.get_u64()? as usize,
                mass: s.get_u64()?,
            });
        }
        let roots = s.take_col::<u32>(total_roots)?;
        let spine = s.take_col::<u64>(spine_words)?;
        if !s.at_end() {
            return Err(SnapshotError::Corrupt {
                context: "partition section has trailing bytes",
            });
        }
        let mut shards = Vec::with_capacity(metas.len());
        let mut at = 0usize;
        for m in &metas {
            // Checked walk: a lying per-shard count must fail typed,
            // never slice out of bounds.
            let next = at
                .checked_add(m.roots)
                .filter(|&n| n <= total_roots)
                .ok_or(SnapshotError::Corrupt {
                    context: "partition root counts inconsistent",
                })?;
            shards.push(ShardInfo {
                roots: roots[at..next]
                    .iter()
                    .map(|&r| Oid::from_index(r as usize))
                    .collect(),
                range: m.start..m.end,
                nodes: m.nodes,
                mass: m.mass,
            });
            at = next;
        }
        if at != total_roots {
            return Err(SnapshotError::Corrupt {
                context: "partition root counts inconsistent",
            });
        }
        validate_partition(requested_k, &shards, &spine, spine_nodes, node_count)?;
        Ok(PartitionMap {
            requested_k,
            shards,
            spine,
            spine_nodes,
            total_mass,
        })
    }
}

impl ShardedDb {
    /// Persist the sharded engine: the database sections plus the
    /// partition map, in the zero-copy layout. Restricted postings
    /// are not written — they are re-derived from the map at load (a
    /// linear filter), keeping the file identical to the single-engine
    /// snapshot plus one small section, and keeping saves from any
    /// engine byte-deterministic.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut writer = self.database().encode_snapshot();
        self.partition().encode_snapshot(&mut writer);
        writer.write_to(path.as_ref())
    }

    /// Cold-start a sharded engine from a snapshot file. When the
    /// snapshot carries a partition map built for the same requested
    /// `k`, the stored cut is reused; otherwise (different `k`, or a
    /// snapshot saved from a single engine) the partition is rebuilt —
    /// still without any parse or index preprocess: the meet index
    /// arrives zero-copy out of the map, and the mass prefix sums are
    /// derived in one pass over the string relations, as on a freshly
    /// built store.
    pub fn open_snapshot(path: impl AsRef<Path>, k: usize) -> Result<ShardedDb, SnapshotError> {
        ShardedDb::from_source(&MappedSnapshot::open(path.as_ref())?, k)
    }

    /// Cold-start a sharded engine from in-memory snapshot bytes
    /// (adopted into an owned, 64-byte-aligned arena).
    pub fn from_snapshot_bytes(bytes: Vec<u8>, k: usize) -> Result<ShardedDb, SnapshotError> {
        ShardedDb::from_source(
            &MappedSnapshot::from_owned_bytes(bytes, VerifyMode::Lazy)?,
            k,
        )
    }

    /// Cold-start from an already-opened snapshot — the shared body of
    /// the file and byte entry points, public so forest openers can
    /// route one open snapshot to either engine shape.
    pub fn from_source(source: &MappedSnapshot, k: usize) -> Result<ShardedDb, SnapshotError> {
        let db = Arc::new(Database::decode_from(source)?);
        let workers = crate::sharded::default_workers(k);
        if source.has_section(section::PARTITION) {
            let partition = PartitionMap::decode_snapshot(source, db.store().node_count())?;
            if partition.requested_k() == k {
                return Ok(ShardedDb::with_partition(db, partition, workers));
            }
        }
        Ok(ShardedDb::with_workers(db, k, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_core::MeetBackend;
    use ncq_xml::parse;

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

    fn db() -> Database {
        Database::from_document(&parse(&wide_xml(12, 6)).unwrap())
    }

    /// A container holding only `map`'s PARTITION section.
    fn partition_only(map: &PartitionMap) -> MappedSnapshot {
        let mut w = SnapshotWriterV3::new();
        map.encode_snapshot(&mut w);
        MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap()
    }

    #[test]
    fn partition_map_round_trips_exactly() {
        let db = db();
        let map = PartitionMap::build(db.store(), 4);
        let loaded =
            PartitionMap::decode_snapshot(&partition_only(&map), db.store().node_count()).unwrap();
        assert_eq!(loaded.requested_k(), 4);
        assert_eq!(loaded.shard_count(), map.shard_count());
        assert_eq!(loaded.spine_len(), map.spine_len());
        assert_eq!(loaded.total_mass(), map.total_mass());
        for (a, b) in loaded.shards().iter().zip(map.shards()) {
            assert_eq!(a.roots, b.roots);
            assert_eq!(a.range, b.range);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.mass, b.mass);
        }
        for o in db.store().iter_oids() {
            assert_eq!(loaded.is_spine(o), map.is_spine(o));
            assert_eq!(loaded.shard_of(o), map.shard_of(o));
        }
    }

    #[test]
    fn sharded_snapshot_cold_start_matches_the_live_engine() {
        let dir = std::env::temp_dir().join("ncq-snapshot-shard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wide.ncq");

        let db = db();
        let sharded = ShardedDb::new(db.clone(), 4);
        sharded.save_snapshot(&path).unwrap();

        // Same K: the stored cut is reused.
        let loaded = ShardedDb::open_snapshot(&path, 4).unwrap();
        assert_eq!(loaded.shard_count(), sharded.shard_count());
        assert_eq!(
            loaded.partition().spine_len(),
            sharded.partition().spine_len()
        );
        let opts = ncq_core::MeetOptions::default();
        let meet = |engine: &ShardedDb| engine.meet_terms_answers(&["text", "3"], &opts).unwrap();
        let a = meet(&sharded);
        let b = meet(&loaded);
        assert_eq!(a.to_detailed_xml(), b.to_detailed_xml());
        // And both agree with the unsharded engine.
        let c = db.meet_terms(&["text", "3"]).unwrap();
        assert_eq!(a.to_detailed_xml(), c.to_detailed_xml());

        // Different K: the partition is rebuilt, answers unchanged.
        let rek = ShardedDb::open_snapshot(&path, 2).unwrap();
        assert_eq!(rek.partition().requested_k(), 2);
        assert_eq!(meet(&rek).to_detailed_xml(), a.to_detailed_xml());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coverage_gaps_over_non_spine_objects_are_typed() {
        // Hand-build a PARTITION section whose two shards leave oids
        // 5..10 uncovered with an empty spine: `shard_of` would clamp
        // such an oid into the wrong shard, so decode must refuse.
        let node_count = 15usize;
        let mut w = SnapshotWriterV3::new();
        {
            let mut s = w.section(section::PARTITION);
            s.put_u64(2); // requested k
            s.put_u64(2); // shard count
            s.put_u64(0); // spine nodes
            s.put_u64(15); // total mass
            s.put_u64(2); // total roots
            s.put_u64(1); // spine words
            for (start, end) in [(0u64, 5u64), (10, 15)] {
                s.put_u64(1); // root count
                s.put_u64(start);
                s.put_u64(end);
                s.put_u64(end - start); // nodes
                s.put_u64(end - start); // mass
            }
            s.put_col::<u32>(&[0, 10]); // roots
            s.put_col::<u64>(&[0]); // empty spine bitset
        }
        let snap = MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap();
        assert!(matches!(
            PartitionMap::decode_snapshot(&snap, node_count),
            Err(SnapshotError::Corrupt {
                context: "partition leaves a non-spine object uncovered"
            })
        ));
    }

    #[test]
    fn partition_decoded_against_the_wrong_node_count_is_typed() {
        let db = db();
        let map = PartitionMap::build(db.store(), 4);
        assert!(matches!(
            PartitionMap::decode_snapshot(&partition_only(&map), db.store().node_count() / 2),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn huge_declared_counts_fail_typed_without_allocating() {
        // Checksum-valid scalars claiming absurd shard / root / spine
        // counts fail typed against the section extent.
        for (shards, roots, spine) in [(u64::MAX, 0, 0), (1, u64::MAX / 4, 0), (1, 0, u64::MAX / 8)]
        {
            let mut w = SnapshotWriterV3::new();
            let mut s = w.section(section::PARTITION);
            s.put_u64(u64::MAX); // requested k
            s.put_u64(shards);
            s.put_u64(0); // spine nodes
            s.put_u64(0); // total mass
            s.put_u64(roots);
            s.put_u64(spine);
            for _ in 0..5 {
                s.put_u64(0); // one all-zero shard entry
            }
            let snap = MappedSnapshot::from_owned_bytes(w.into_bytes(), VerifyMode::Eager).unwrap();
            assert!(
                matches!(
                    PartitionMap::decode_snapshot(&snap, 15),
                    Err(SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. })
                ),
                "shards={shards} roots={roots} spine={spine}"
            );
        }
    }
}
