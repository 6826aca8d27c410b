//! Hit sets: full-text results grouped by path type.
//!
//! The paper's generalized meet (Fig. 5) consumes "an arbitrary input set
//! of nodes grouped into relations `R₁ … Rₙ` according to the type of
//! association they represent". [`HitSet`] is that shape: for each path, a
//! sorted, deduplicated vector of owner oids.

use crate::index::Postings;
use ncq_store::{MonetDb, Oid, PathId};
use std::collections::BTreeMap;

/// Full-text hits grouped per path (relation), each group sorted by oid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HitSet {
    groups: BTreeMap<PathId, Vec<Oid>>,
}

impl HitSet {
    /// An empty hit set.
    pub fn new() -> HitSet {
        HitSet::default()
    }

    /// Build from an iterator of `(path, oid)` pairs; sorts and dedups.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (PathId, Oid)>) -> HitSet {
        let mut set = HitSet::new();
        for (p, o) in pairs {
            set.groups.entry(p).or_default().push(o);
        }
        set.normalize();
        set
    }

    /// Add one whole group: `owners` sorted and deduplicated, `path`
    /// not yet present. An empty group is dropped.
    pub(crate) fn push_run(&mut self, path: PathId, owners: Vec<Oid>) {
        debug_assert!(owners.windows(2).all(|w| w[0] < w[1]));
        if !owners.is_empty() {
            let previous = self.groups.insert(path, owners);
            debug_assert!(previous.is_none());
        }
    }

    fn normalize(&mut self) {
        for v in self.groups.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        self.groups.retain(|_, v| !v.is_empty());
    }

    /// Insert one hit.
    pub fn insert(&mut self, path: PathId, oid: Oid) {
        let v = self.groups.entry(path).or_default();
        match v.binary_search(&oid) {
            Ok(_) => {}
            Err(pos) => v.insert(pos, oid),
        }
    }

    /// Number of distinct hits.
    pub fn len(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }

    /// Whether there are no hits.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of distinct relations hit.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The grouped view consumed by the meet operators.
    pub fn groups(&self) -> &BTreeMap<PathId, Vec<Oid>> {
        &self.groups
    }

    /// Iterate over all `(path, oid)` hits.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, Oid)> + '_ {
        self.groups
            .iter()
            .flat_map(|(&p, v)| v.iter().map(move |&o| (p, o)))
    }

    /// Whether `(path, oid)` is a hit.
    pub fn contains(&self, path: PathId, oid: Oid) -> bool {
        self.groups
            .get(&path)
            .is_some_and(|v| v.binary_search(&oid).is_ok())
    }

    /// Union with another hit set.
    pub fn union(&mut self, other: &HitSet) {
        for (&p, v) in &other.groups {
            let dst = self.groups.entry(p).or_default();
            dst.extend_from_slice(v);
        }
        self.normalize();
    }

    /// Keep only hits whose owner satisfies `pred`.
    pub fn retain(&mut self, mut pred: impl FnMut(PathId, Oid) -> bool) {
        for (&p, v) in self.groups.iter_mut() {
            v.retain(|&o| pred(p, o));
        }
        self.groups.retain(|_, v| !v.is_empty());
    }

    /// Pretty listing `relation-name: o1 o2 …` for debugging and examples.
    pub fn display(&self, db: &MonetDb) -> String {
        let mut out = String::new();
        for (&p, v) in &self.groups {
            out.push_str(&db.relation_name(p));
            out.push(':');
            for o in v {
                out.push(' ');
                out.push_str(&o.to_string());
            }
            out.push('\n');
        }
        out
    }
}

/// A token's runs are already this shape: one group per run, as is.
impl From<Postings<'_>> for HitSet {
    fn from(postings: Postings<'_>) -> HitSet {
        let mut set = HitSet::new();
        for (path, owners) in postings.runs() {
            set.push_run(path, owners.to_vec());
        }
        set
    }
}

impl FromIterator<(PathId, Oid)> for HitSet {
    fn from_iter<T: IntoIterator<Item = (PathId, Oid)>>(iter: T) -> HitSet {
        HitSet::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PathId {
        PathId::from_index(i)
    }

    fn o(i: usize) -> Oid {
        Oid::from_index(i)
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let h = HitSet::from_pairs(vec![(p(1), o(5)), (p(1), o(3)), (p(1), o(5)), (p(0), o(9))]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.group_count(), 2);
        assert_eq!(h.groups()[&p(1)], vec![o(3), o(5)]);
    }

    #[test]
    fn insert_keeps_sorted_unique() {
        let mut h = HitSet::new();
        h.insert(p(0), o(4));
        h.insert(p(0), o(2));
        h.insert(p(0), o(4));
        assert_eq!(h.groups()[&p(0)], vec![o(2), o(4)]);
    }

    #[test]
    fn contains_checks_membership() {
        let h = HitSet::from_pairs(vec![(p(2), o(7))]);
        assert!(h.contains(p(2), o(7)));
        assert!(!h.contains(p(2), o(8)));
        assert!(!h.contains(p(3), o(7)));
    }

    #[test]
    fn union_merges() {
        let mut a = HitSet::from_pairs(vec![(p(0), o(1)), (p(1), o(2))]);
        let b = HitSet::from_pairs(vec![(p(0), o(1)), (p(0), o(3))]);
        a.union(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.groups()[&p(0)], vec![o(1), o(3)]);
    }

    #[test]
    fn retain_filters_and_drops_empty_groups() {
        let mut h = HitSet::from_pairs(vec![(p(0), o(1)), (p(1), o(2)), (p(1), o(4))]);
        h.retain(|_, oid| oid.index() % 2 == 0);
        assert_eq!(h.len(), 2);
        assert!(!h.groups().contains_key(&p(0)));
    }

    #[test]
    fn iter_flattens_in_order() {
        let h = HitSet::from_pairs(vec![(p(1), o(9)), (p(0), o(3)), (p(1), o(4))]);
        let flat: Vec<_> = h.iter().collect();
        assert_eq!(flat, vec![(p(0), o(3)), (p(1), o(4)), (p(1), o(9))]);
    }

    #[test]
    fn empty_set_behaves() {
        let h = HitSet::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.iter().count(), 0);
    }
}
