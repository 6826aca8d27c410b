//! String relations as columns: one text blob, an offset per string, an
//! owner per string, and a CSR over path ids.
//!
//! The paper's `(oid, string)` associations of one path form one
//! relation; here every relation of the instance shares four columns:
//!
//! * `rel_off` — `paths + 1` entry positions: relation `p` is the
//!   entries `rel_off[p] .. rel_off[p + 1]`,
//! * `owners` — the owner oid per entry, document order inside a
//!   relation,
//! * `text_off` — `entries + 1` byte positions: entry `i` is the bytes
//!   `text_off[i] .. text_off[i + 1]` of
//! * `text` — every string of the instance, back to back, grouped like
//!   the entries.
//!
//! The columns are [`Col`]s — owned after a bulk load, views into the
//! mapped file after a snapshot open — so neither side holds a heap
//! allocation per string. [`StringRel`] is the borrowed view of one
//! relation that [`crate::MonetDb::strings_of`] hands out.
//!
//! The fields are private to this module because [`StringRel`] turns
//! blob bytes into `&str` without re-checking them: both constructors
//! establish, once, that every entry is a whole UTF-8 string.

use crate::mmap::Col;
use crate::oid::Oid;
use crate::path::PathId;
use crate::snapshot::SnapshotError;
use std::ops::Range;

/// The string relations of one instance. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct StringColumns {
    rel_off: Col<u32>,
    owners: Col<Oid>,
    text_off: Col<u32>,
    text: Col<u8>,
}

impl StringColumns {
    /// Group the `(path, owner, string)` associations of a document by
    /// path. `strings` reports every association to the sink it is
    /// given, in document order, and is run twice — once to size the
    /// columns, once to fill them — so nothing is staged per string and
    /// the order inside a relation stays document order (a counting
    /// sort).
    pub(crate) fn from_document_order(
        path_count: usize,
        mut strings: impl FnMut(&mut dyn FnMut(PathId, Oid, &str)),
    ) -> StringColumns {
        // Per path: where its next entry and its next byte go.
        let mut entry_at = vec![0usize; path_count + 1];
        let mut byte_at = vec![0usize; path_count + 1];
        strings(&mut |path, _, value| {
            entry_at[path.index() + 1] += 1;
            byte_at[path.index() + 1] += value.len();
        });
        for p in 0..path_count {
            entry_at[p + 1] += entry_at[p];
            byte_at[p + 1] += byte_at[p];
        }
        let (entries, bytes) = (entry_at[path_count], byte_at[path_count]);
        // Both columns of offsets are u32, like the oids.
        u32::try_from(entries).expect("fewer than 2^32 strings");
        u32::try_from(bytes).expect("the strings of one instance fit in 4 GiB");
        let (entry_off, byte_off) = (entry_at.clone(), byte_at.clone());

        let mut owners = vec![Oid::ROOT; entries];
        let mut text_off = vec![0u32; entries + 1];
        let mut text = vec![0u8; bytes];
        text_off[entries] = bytes as u32;
        strings(&mut |path, owner, value| {
            let (entry, byte) = (&mut entry_at[path.index()], &mut byte_at[path.index()]);
            owners[*entry] = owner;
            text_off[*entry] = *byte as u32;
            text[*byte..*byte + value.len()].copy_from_slice(value.as_bytes());
            *entry += 1;
            *byte += value.len();
        });
        // Every relation filled exactly the room the first walk gave it,
        // so every entry is one whole `&str` of the second.
        assert!(
            entry_at[..path_count] == entry_off[1..] && byte_at[..path_count] == byte_off[1..],
            "the two walks over the document's strings disagree"
        );
        let rel_off: Vec<u32> = entry_off.iter().map(|&at| at as u32).collect();
        StringColumns {
            rel_off: rel_off.into(),
            owners: owners.into(),
            text_off: text_off.into(),
            text: text.into(),
        }
    }

    /// Adopt four columns read from a snapshot, after the one pass that
    /// everything handing out `&str` relies on: `rel_off` is closed over
    /// the entry count, `text_off` is monotone from 0 to the blob
    /// length, the blob is UTF-8 and no offset splits a code point, and
    /// the owners of one relation are oids of the instance in strictly
    /// increasing order.
    pub(crate) fn validated(
        rel_off: Col<u32>,
        owners: Col<Oid>,
        text_off: Col<u32>,
        text: Col<u8>,
        node_count: usize,
    ) -> Result<StringColumns, SnapshotError> {
        let corrupt = |context| Err(SnapshotError::Corrupt { context });
        let entries = owners.len();
        if rel_off.first() != Some(&0)
            || rel_off.last().map(|&e| e as usize) != Some(entries)
            || rel_off.windows(2).any(|w| w[0] > w[1])
        {
            return corrupt("string relation offsets are not closed over the entry count");
        }
        if text_off.len() != entries + 1
            || text_off[0] != 0
            || text_off[entries] as usize != text.len()
        {
            return corrupt("string offsets do not span the text blob");
        }
        if text_off.windows(2).any(|w| w[0] > w[1]) {
            return corrupt("string offsets are not monotone");
        }
        let Ok(blob) = std::str::from_utf8(&text) else {
            return corrupt("string text is not UTF-8");
        };
        if text_off
            .iter()
            .any(|&at| !blob.is_char_boundary(at as usize))
        {
            return corrupt("string offset splits a code point");
        }
        for rel in rel_off.windows(2) {
            let owners = &owners[rel[0] as usize..rel[1] as usize];
            if owners.windows(2).any(|w| w[0] >= w[1]) {
                return corrupt("string relation not in document order");
            }
            if owners.last().is_some_and(|o| o.index() >= node_count) {
                return corrupt("string owner out of range");
            }
        }
        Ok(StringColumns {
            rel_off,
            owners,
            text_off,
            text,
        })
    }

    /// The four columns in snapshot order: `rel_off`, owners,
    /// `text_off`, text.
    pub(crate) fn columns(&self) -> (&[u32], &[Oid], &[u32], &[u8]) {
        (&self.rel_off, &self.owners, &self.text_off, &self.text)
    }

    /// The relation of path `p`; empty for a path the instance does not
    /// have.
    pub(crate) fn relation(&self, p: PathId) -> StringRel<'_> {
        match self.rel_off.get(p.index()..p.index() + 2) {
            Some(&[lo, hi]) => self.entries(lo as usize..hi as usize),
            _ => self.entries(0..0),
        }
    }

    fn entries(&self, r: Range<usize>) -> StringRel<'_> {
        StringRel {
            owners: &self.owners[r.clone()],
            text_off: &self.text_off[r.start..=r.end],
            text: &self.text,
        }
    }
}

/// One string relation: the `(owner, string)` associations of a path,
/// in document order of the owner. A borrowed, `Copy` view over the
/// instance's string columns — nothing is allocated per string.
#[derive(Clone, Copy)]
pub struct StringRel<'a> {
    owners: &'a [Oid],
    /// `owners.len() + 1` positions in `text`.
    text_off: &'a [u32],
    /// The whole blob of the instance, not only this relation's part.
    text: &'a [u8],
}

impl<'a> StringRel<'a> {
    /// Number of associations.
    #[inline]
    pub fn len(self) -> usize {
        self.owners.len()
    }

    /// Whether the relation holds no association.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.owners.is_empty()
    }

    /// The `i`-th association in document order.
    pub fn get(self, i: usize) -> Option<(Oid, &'a str)> {
        let owner = *self.owners.get(i)?;
        Some((owner, self.str_at(self.text_off[i], self.text_off[i + 1])))
    }

    /// The associations in document order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = (Oid, &'a str)> + 'a {
        self.owners
            .iter()
            .zip(self.text_off.windows(2))
            .map(move |(&owner, at)| (owner, self.str_at(at[0], at[1])))
    }

    /// The string owned by `owner`, if any (binary search).
    pub(crate) fn value_of(self, owner: Oid) -> Option<&'a str> {
        let i = self.owners.binary_search(&owner).ok()?;
        self.get(i).map(|(_, value)| value)
    }

    /// The one place blob bytes become a `&str`.
    #[inline]
    fn str_at(self, start: u32, end: u32) -> &'a str {
        let bytes = &self.text[start as usize..end as usize];
        // SAFETY: `start..end` is one entry of `text_off`, and a
        // `StringRel` only ever borrows a `StringColumns`, whose two
        // constructors make every entry a whole UTF-8 string:
        // `from_document_order` copies each entry from one `&str` (and
        // asserts that its fill walk matched its sizing walk), and
        // `validated` checks that the blob is UTF-8 and that every
        // offset is a char boundary of it.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }
}
