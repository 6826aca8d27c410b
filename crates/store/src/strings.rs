//! String relations as columns over one dictionary of distinct values.
//!
//! The paper's `(oid, string)` associations of one path form one
//! relation. Monet, the paper's back end, keeps each distinct value of
//! a string column once, in its string heap; so does this store. Every
//! relation of the instance shares these columns:
//!
//! * `rel_off` — `paths + 1` entry positions: relation `p` is the
//!   entries `rel_off[p] .. rel_off[p + 1]`, in document order of the
//!   owner,
//! * `value_id` — the value of each entry, an index into the
//!   dictionary,
//! * `value_off` — `values + 1` byte positions: value `v` is the bytes
//!   `value_off[v] .. value_off[v + 1]` of
//! * `text` — every distinct value once, in the order the document
//!   first holds it,
//! * `owner_off` and `owners` — the owner oids of the attribute
//!   relations (`paths + 1` positions into `owners`). A cdata relation
//!   stores no owners: every cdata node owns exactly one string, so the
//!   owners of relation `p` are the path's postings,
//!   [`crate::MonetDb::oids_of_path`].
//!
//! The columns are [`Col`]s — owned after a bulk load, views into the
//! mapped file after a snapshot open — so neither side holds a heap
//! allocation per string or per value. [`StringRel`] is the borrowed
//! view of one relation that [`crate::MonetDb::strings_of`] hands out,
//! and [`StringValues`] the view of the dictionary.
//!
//! The fields are private to this module because [`StringValues`] turns
//! blob bytes into `&str` without re-checking them: both constructors
//! establish, once, that every value is a whole UTF-8 string.

use crate::mmap::Col;
use crate::oid::Oid;
use crate::path::{PathId, PathStep, PathSummary};
use crate::snapshot::SnapshotError;
use std::collections::HashMap;

/// The string relations of one instance. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct StringColumns {
    rel_off: Col<u32>,
    owner_off: Col<u32>,
    owners: Col<Oid>,
    value_id: Col<u32>,
    value_off: Col<u32>,
    text: Col<u8>,
}

/// The six columns of [`StringColumns`] in snapshot order: `rel_off`,
/// `owner_off`, owners, `value_id`, `value_off`, text.
pub(crate) type Columns<'a> = (
    &'a [u32],
    &'a [u32],
    &'a [Oid],
    &'a [u32],
    &'a [u32],
    &'a [u8],
);

/// The six columns as read from a snapshot, before validation.
pub(crate) type OwnedColumns = (Col<u32>, Col<u32>, Col<Oid>, Col<u32>, Col<u32>, Col<u8>);

impl StringColumns {
    /// Group the `(path, owner, string)` associations of a document by
    /// path. `strings` reports every association to the sink it is
    /// given, in document order, and is run twice — once to count the
    /// entries of each relation and meet the distinct values, once to
    /// fill the columns — so the order inside a relation stays document
    /// order (a counting sort). The only thing staged per string is its
    /// value id. `path_off` is the postings' CSR: a cdata relation must
    /// hold exactly one string per node of its path.
    pub(crate) fn from_document_order<'d>(
        summary: &PathSummary,
        path_off: &[u32],
        mut strings: impl FnMut(&mut dyn FnMut(PathId, Oid, &'d str)),
    ) -> StringColumns {
        let path_count = summary.len();
        // The id of each distinct value, keyed by the document's own
        // bytes. Ids count values in the order they first arrive, so no
        // map order reaches the columns.
        let mut dictionary: HashMap<&'d str, u32> = HashMap::new();
        let (mut value_off, mut text) = (vec![0u32], Vec::new());
        // Each string's value id, in document order.
        let mut ids: Vec<u32> = Vec::new();
        // Per path: where its next entry goes.
        let mut entry_at = vec![0usize; path_count + 1];
        strings(&mut |path, _, value| {
            entry_at[path.index() + 1] += 1;
            let next = dictionary.len() as u32;
            ids.push(*dictionary.entry(value).or_insert_with(|| {
                text.extend_from_slice(value.as_bytes());
                value_off
                    .push(u32::try_from(text.len()).expect("the distinct strings fit in 4 GiB"));
                next
            }));
        });
        // The map goes back before the columns are sized.
        drop(dictionary);
        let mut owner_at = vec![0usize; path_count + 1];
        for p in summary.iter() {
            let (i, entries) = (p.index(), entry_at[p.index() + 1]);
            match summary.step(p) {
                PathStep::Attribute(_) => owner_at[i + 1] = entries,
                PathStep::Cdata => assert_eq!(
                    entries as u32,
                    path_off[i + 1] - path_off[i],
                    "every cdata node owns exactly one string"
                ),
                PathStep::Element(_) => assert_eq!(entries, 0, "an element owns no string"),
            }
        }
        for p in 0..path_count {
            entry_at[p + 1] += entry_at[p];
            owner_at[p + 1] += owner_at[p];
        }
        // Entry positions are u32, like the oids.
        u32::try_from(ids.len()).expect("fewer than 2^32 strings");
        let (entry_off, owner_off) = (entry_at.clone(), owner_at.clone());

        let mut owners = vec![Oid::ROOT; owner_off[path_count]];
        let mut value_id = vec![0u32; ids.len()];
        let mut next = ids.iter();
        strings(&mut |path, owner, _| {
            let p = path.index();
            value_id[entry_at[p]] = *next.next().expect("the second walk is no longer");
            entry_at[p] += 1;
            if owner_off[p + 1] > owner_off[p] {
                owners[owner_at[p]] = owner;
                owner_at[p] += 1;
            }
        });
        assert!(
            next.next().is_none() && entry_at[..path_count] == entry_off[1..],
            "the two walks over the document's strings disagree"
        );
        drop(ids);
        let offsets = |at: Vec<usize>| -> Col<u32> {
            at.into_iter()
                .map(|at| at as u32)
                .collect::<Vec<_>>()
                .into()
        };
        StringColumns {
            rel_off: offsets(entry_off),
            owner_off: offsets(owner_off),
            owners: owners.into(),
            value_id: value_id.into(),
            value_off: value_off.into(),
            text: text.into(),
        }
    }

    /// Adopt six columns read from a snapshot, after the one pass that
    /// everything handing out `&str` relies on — the dictionary's
    /// offsets are monotone from 0 to the blob length, the blob is UTF-8
    /// and no offset splits a code point, every value id is in range —
    /// and the checks that make each relation what its path says:
    /// none on an element path; an attribute or cdata path has a parent
    /// path; an attribute relation's owners are elements of the
    /// instance on the attribute's parent path, in document order; a
    /// cdata relation holds one string per node of its path, whose
    /// postings (`path_off`'s runs, checked at open) are its owners.
    pub(crate) fn validated(
        (rel_off, owner_off, owners, value_id, value_off, text): OwnedColumns,
        summary: &PathSummary,
        sigma: &[PathId],
        path_off: &[u32],
    ) -> Result<StringColumns, SnapshotError> {
        let corrupt = |context| Err(SnapshotError::Corrupt { context });
        let closed = |off: &[u32], total: usize| {
            off.first() == Some(&0)
                && off.last().map(|&e| e as usize) == Some(total)
                && off.windows(2).all(|w| w[0] <= w[1])
        };
        if !closed(&rel_off, value_id.len()) {
            return corrupt("string relation offsets are not closed over the entry count");
        }
        if !closed(&owner_off, owners.len()) {
            return corrupt("attribute owner offsets are not closed over the owner column");
        }
        if value_off.first() != Some(&0)
            || value_off.last().map(|&e| e as usize) != Some(text.len())
        {
            return corrupt("string value offsets do not span the text blob");
        }
        if value_off.windows(2).any(|w| w[0] > w[1]) {
            return corrupt("string value offsets are not monotone");
        }
        let Ok(blob) = std::str::from_utf8(&text) else {
            return corrupt("string text is not UTF-8");
        };
        if value_off
            .iter()
            .any(|&at| !blob.is_char_boundary(at as usize))
        {
            return corrupt("string value offset splits a code point");
        }
        let values = value_off.len() - 1;
        if value_id.iter().any(|&id| id as usize >= values) {
            return corrupt("string value id out of range");
        }
        let range = |off: &[u32], p: usize| off[p] as usize..off[p + 1] as usize;
        for p in summary.iter() {
            let (entries, owned) = (range(&rel_off, p.index()), range(&owner_off, p.index()));
            let parent = summary.parent(p);
            match summary.step(p) {
                PathStep::Element(_) => {
                    if !entries.is_empty() || !owned.is_empty() {
                        return corrupt("string relation on an element path");
                    }
                }
                // A string's owner is an element: its path has a parent.
                _ if parent.is_none() => return corrupt("string path without a parent path"),
                PathStep::Attribute(_) => {
                    if owned.len() != entries.len() {
                        return corrupt("attribute relation and its owners disagree");
                    }
                    let owners = &owners[owned];
                    if owners.windows(2).any(|w| w[0] >= w[1]) {
                        return corrupt("string relation not in document order");
                    }
                    if owners.last().is_some_and(|o| o.index() >= sigma.len()) {
                        return corrupt("string owner out of range");
                    }
                    if owners.iter().any(|o| Some(sigma[o.index()]) != parent) {
                        return corrupt("attribute owner not on the attribute's parent path");
                    }
                }
                PathStep::Cdata => {
                    if !owned.is_empty() || entries.len() != range(path_off, p.index()).len() {
                        return corrupt("cdata relation does not cover its path");
                    }
                }
            }
        }
        Ok(StringColumns {
            rel_off,
            owner_off,
            owners,
            value_id,
            value_off,
            text,
        })
    }

    /// The six columns in snapshot order.
    pub(crate) fn columns(&self) -> Columns<'_> {
        (
            &self.rel_off,
            &self.owner_off,
            &self.owners,
            &self.value_id,
            &self.value_off,
            &self.text,
        )
    }

    /// The dictionary of distinct values.
    pub(crate) fn values(&self) -> StringValues<'_> {
        StringValues {
            value_off: &self.value_off,
            text: &self.text,
        }
    }

    /// The bytes of every string, counted once per association.
    pub(crate) fn total_bytes(&self) -> usize {
        let values = self.values();
        self.value_id.iter().map(|&id| values.value(id).len()).sum()
    }

    /// The relation of path `p`, whose postings are `postings`; empty
    /// for a path the instance does not have.
    pub(crate) fn relation<'a>(&'a self, p: PathId, postings: &'a [Oid]) -> StringRel<'a> {
        let span = |off: &[u32]| match off.get(p.index()..p.index() + 2) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        };
        let (entries, owned) = (span(&self.rel_off), span(&self.owner_off));
        // Only an attribute relation stores owners; a cdata relation's
        // are its path's postings.
        let owners = match (entries.is_empty(), owned.is_empty()) {
            (true, _) => &[][..],
            (false, true) => postings,
            (false, false) => &self.owners[owned],
        };
        StringRel {
            owners,
            ids: &self.value_id[entries],
            values: self.values(),
        }
    }
}

/// The dictionary of one instance: each distinct string value once, in
/// the order the document first holds it. A borrowed, `Copy` view;
/// [`StringRel::value_ids`] names its entries by index.
#[derive(Clone, Copy)]
pub struct StringValues<'a> {
    /// `values + 1` positions in `text`.
    value_off: &'a [u32],
    text: &'a [u8],
}

impl<'a> StringValues<'a> {
    /// Number of distinct values.
    #[inline]
    pub fn len(self) -> usize {
        self.value_off.len() - 1
    }

    /// Whether the instance holds no string.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The values in id order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        (0..self.len() as u32).map(move |id| self.value(id))
    }

    /// The one place blob bytes become a `&str`.
    #[inline]
    fn value(self, id: u32) -> &'a str {
        let id = id as usize;
        let bytes = &self.text[self.value_off[id] as usize..self.value_off[id + 1] as usize];
        // SAFETY: `value_off[id]..value_off[id + 1]` is one value of a
        // `StringColumns` dictionary, and a `StringValues` only ever
        // borrows one, whose two constructors make every value a whole
        // UTF-8 string: `from_document_order` copies each value from one
        // `&str`, and `validated` checks that the blob is UTF-8 and that
        // every offset is a char boundary of it.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }
}

/// One string relation: the `(owner, string)` associations of a path,
/// in document order of the owner. A borrowed, `Copy` view over the
/// instance's string columns — nothing is allocated per string.
#[derive(Clone, Copy)]
pub struct StringRel<'a> {
    owners: &'a [Oid],
    /// The value id of each association.
    ids: &'a [u32],
    values: StringValues<'a>,
}

impl<'a> StringRel<'a> {
    /// Number of associations.
    #[inline]
    pub fn len(self) -> usize {
        self.ids.len()
    }

    /// Whether the relation holds no association.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.ids.is_empty()
    }

    /// The `i`-th association in document order.
    pub fn get(self, i: usize) -> Option<(Oid, &'a str)> {
        Some((*self.owners.get(i)?, self.values.value(*self.ids.get(i)?)))
    }

    /// The associations in document order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = (Oid, &'a str)> + 'a {
        self.value_ids()
            .map(move |(owner, id)| (owner, self.values.value(id)))
    }

    /// The associations in document order, each value named by its id
    /// in [`crate::MonetDb::string_values`]: what lets a reader do its
    /// work once per distinct value.
    pub fn value_ids(self) -> impl ExactSizeIterator<Item = (Oid, u32)> + 'a {
        self.owners.iter().copied().zip(self.ids.iter().copied())
    }

    /// The string owned by `owner`, if any (binary search).
    pub(crate) fn value_of(self, owner: Oid) -> Option<&'a str> {
        let i = self.owners.binary_search(&owner).ok()?;
        Some(self.values.value(*self.ids.get(i)?))
    }
}
