//! The forest manifest: a versioned catalog file naming N corpora.
//!
//! A forest deployment needs exactly one artifact beyond the snapshot:
//! a small, corruption-proof file that names every corpus and says
//! where its snapshot lives, what the snapshot bytes must hash to, and
//! which replicas (if any) serve it. A catalog (`ncq-core::Catalog`)
//! opens this file and materializes one engine per entry.
//!
//! # Layout (manifest version 3)
//!
//! ```text
//! offset 0   magic   b"NCQFRST\0"                    8 bytes
//!        8   manifest version (u32 LE)               4 bytes
//!       12   checksum64 of the body (u64 LE)         8 bytes
//!       20   body:
//!              corpus count (u32) · default corpus index (u32)
//!              per corpus:
//!                name (len-prefixed str)
//!                snapshot path (len-prefixed str)
//!                snapshot layout version (u32)
//!                snapshot checksum64 (u64)
//!                replica endpoint count (u32)
//!                per endpoint: host:port (str)
//! ```
//!
//! An empty endpoint list means "serve this corpus in-process". A
//! corpus *with* endpoints is served through `ncq-core`'s
//! `RemoteBackend`: the endpoints name the replica engines that answer
//! its requests whole, and the snapshot is the file the coordinator
//! verifies against the recorded checksum before it routes there (it
//! keeps no copy of the corpus). Like snapshots, a build reads exactly
//! the manifest version it writes; any other version (the retired
//! endpoint-less version 1 and the shard-count version 2 included) is
//! a typed [`ManifestError::UnsupportedVersion`].
//!
//! The same corruption discipline as [`crate::snapshot`]: every failure
//! mode is a typed [`ManifestError`], never a panic — bad magic, a
//! version this build does not read, truncation anywhere, a flipped
//! bit (the body checksum), duplicate or malformed corpus names, a
//! default index out of range. The per-entry snapshot checksum lets the
//! catalog detect a swapped or bit-rotted snapshot *file* before
//! decoding it, and the recorded layout version makes a stale manifest
//! (pointing at snapshots of another era) fail with a version message
//! instead of a decode error.
//!
//! Snapshot paths are stored verbatim; relative paths are resolved
//! against the manifest file's directory ([`Manifest::resolve`]), so a
//! manifest and its snapshots move between machines as one directory.

use crate::mmap::{ByteReader, ByteWriter};
use crate::snapshot::{checksum64, write_atomic, SnapshotError, SNAPSHOT_MAGIC};
use std::fmt;
use std::path::{Path, PathBuf};

/// The 8-byte manifest magic.
pub const MANIFEST_MAGIC: [u8; 8] = *b"NCQFRST\0";

/// Current manifest layout version. Bump on any layout change.
pub const MANIFEST_VERSION: u32 = 3;

/// Typed manifest failures. Loading never panics on malformed input.
#[derive(Debug)]
pub enum ManifestError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with [`MANIFEST_MAGIC`].
    BadMagic,
    /// The manifest layout version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file ends before the advertised structure does.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The body does not match the header checksum.
    ChecksumMismatch,
    /// A checksum-valid body decodes to inconsistent data.
    Corrupt {
        /// What failed to validate.
        context: &'static str,
    },
    /// A corpus name is not a query-dialect word (see
    /// [`validate_corpus_name`]) — names are `from corpus(name)`
    /// arguments, protocol verb tokens and cache-key components, so
    /// they must stay single unambiguous identifiers.
    InvalidName {
        /// The offending name.
        name: String,
    },
    /// The same corpus name appears twice.
    DuplicateCorpus {
        /// The duplicated name.
        name: String,
    },
    /// A replica endpoint is not a `host:port` pair (see
    /// [`validate_endpoint`]).
    InvalidEndpoint {
        /// The offending endpoint.
        endpoint: String,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest io error: {e}"),
            ManifestError::BadMagic => write!(f, "not a forest manifest (bad magic)"),
            ManifestError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported manifest version {found} (this build reads {supported})"
            ),
            ManifestError::Truncated { context } => {
                write!(f, "manifest truncated while reading {context}")
            }
            ManifestError::ChecksumMismatch => write!(f, "manifest body failed its checksum"),
            ManifestError::Corrupt { context } => {
                write!(f, "manifest payload is corrupt: {context}")
            }
            ManifestError::InvalidName { name } => write!(
                f,
                "corpus name {name:?} must be a query-dialect word (letter or _ first, \
                 then letters, digits, _ - . :)"
            ),
            ManifestError::DuplicateCorpus { name } => {
                write!(f, "corpus {name:?} appears more than once")
            }
            ManifestError::InvalidEndpoint { endpoint } => write!(
                f,
                "replica endpoint {endpoint:?} must be host:port with a non-empty host \
                 and a numeric port"
            ),
        }
    }
}

impl std::error::Error for ManifestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManifestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ManifestError {
    fn from(e: std::io::Error) -> ManifestError {
        ManifestError::Io(e)
    }
}

/// Reader failures become manifest failures: the bounds-checked
/// [`ByteReader`] reports `Truncated`/`Corrupt`, which keep their
/// context here.
impl From<SnapshotError> for ManifestError {
    fn from(e: SnapshotError) -> ManifestError {
        match e {
            SnapshotError::Truncated { context, .. } => ManifestError::Truncated { context },
            SnapshotError::Corrupt { context } => ManifestError::Corrupt { context },
            _ => ManifestError::Corrupt {
                context: "manifest body",
            },
        }
    }
}

/// Whether `name` can name a corpus. The rule is exactly the query
/// lexer's *word* shape — first byte alphabetic, `_` or multi-byte
/// UTF-8; remaining bytes alphanumeric, `_`, `-`, `.`, `:` or
/// multi-byte UTF-8 — so every valid corpus name is addressable as
/// `from corpus(name)` and round-trips through the canonical query
/// printer. This also excludes whitespace, NUL and all other control
/// characters, keeping names single unambiguous protocol tokens and
/// collision-free term-cache key prefixes. Shared by the manifest
/// decoder, `ncq-core::Catalog` and the server verbs.
pub fn validate_corpus_name(name: &str) -> Result<(), ManifestError> {
    let bytes = name.as_bytes();
    let valid = match bytes.first() {
        None => false,
        Some(&first) => {
            (first.is_ascii_alphabetic() || first == b'_' || first >= 0x80)
                && bytes[1..].iter().all(|&b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80
                })
        }
    };
    if valid {
        Ok(())
    } else {
        Err(ManifestError::InvalidName {
            name: name.to_owned(),
        })
    }
}

/// Whether `endpoint` can name a replica. The rule: a `host:port`
/// pair whose host is non-empty without whitespace, NUL or other
/// control characters, and whose port parses as a non-zero u16.
/// (Bracketed IPv6 literals like `[::1]:9201` pass — the split is on
/// the *last* colon.) Resolution to a socket address happens at
/// connect time; this check only keeps manifests from carrying tokens
/// the router could never dial.
pub fn validate_endpoint(endpoint: &str) -> Result<(), ManifestError> {
    let invalid = || ManifestError::InvalidEndpoint {
        endpoint: endpoint.to_owned(),
    };
    let (host, port) = endpoint.rsplit_once(':').ok_or_else(invalid)?;
    if host.is_empty()
        || host
            .bytes()
            .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
    {
        return Err(invalid());
    }
    match port.parse::<u16>() {
        Ok(p) if p != 0 => Ok(()),
        _ => Err(invalid()),
    }
}

/// One corpus of a forest deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Corpus name — the routing key of `FROM corpus(name)` queries and
    /// the `USE` verb.
    pub name: String,
    /// Snapshot path as stored (relative paths resolve against the
    /// manifest's directory).
    pub snapshot: String,
    /// The snapshot's layout version as recorded at manifest build
    /// time; a catalog refuses entries whose version it cannot read.
    pub layout_version: u32,
    /// `checksum64` of the whole snapshot file, so a swapped or rotted
    /// snapshot is detected before decoding.
    pub checksum: u64,
    /// Replica engine endpoints (`host:port`), in failover-routing
    /// order. Empty = serve in-process from the snapshot; non-empty =
    /// these replicas answer every request, and the coordinator only
    /// verifies the snapshot, keeping no copy of it.
    pub endpoints: Vec<String>,
}

impl ManifestEntry {
    /// Describe an existing snapshot file: read it, record its layout
    /// version and checksum. The snapshot itself is not decoded.
    pub fn describe(
        name: impl Into<String>,
        snapshot_path: impl AsRef<Path>,
    ) -> Result<ManifestEntry, ManifestError> {
        let name = name.into();
        validate_corpus_name(&name)?;
        let path = snapshot_path.as_ref();
        let bytes = std::fs::read(path)?;
        let mut header = ByteReader::new(&bytes, "snapshot header");
        let layout_version = match (header.get_bytes(8), header.get_u32()) {
            (Ok(magic), Ok(version)) if magic == SNAPSHOT_MAGIC => version,
            _ => {
                return Err(ManifestError::Corrupt {
                    context: "described file is not a snapshot",
                })
            }
        };
        Ok(ManifestEntry {
            name,
            snapshot: path.to_string_lossy().into_owned(),
            layout_version,
            checksum: checksum64(&bytes),
            endpoints: Vec::new(),
        })
    }

    /// Attach replica endpoints (builder style), validating each.
    pub fn with_endpoints(
        mut self,
        endpoints: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<ManifestEntry, ManifestError> {
        let endpoints: Vec<String> = endpoints.into_iter().map(Into::into).collect();
        for e in &endpoints {
            validate_endpoint(e)?;
        }
        self.endpoints = endpoints;
        Ok(self)
    }
}

/// A versioned, checksummed catalog of corpora.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// The corpora, in catalog order (cross-corpus answers concatenate
    /// in this order).
    pub corpora: Vec<ManifestEntry>,
    /// Index of the default corpus (the one unqualified queries hit).
    pub default: usize,
}

impl Manifest {
    /// An empty manifest (push entries, then save).
    pub fn new() -> Manifest {
        Manifest::default()
    }

    /// Append an entry, enforcing name validity, uniqueness and
    /// endpoint shape.
    pub fn push(&mut self, entry: ManifestEntry) -> Result<(), ManifestError> {
        validate_corpus_name(&entry.name)?;
        if self.corpora.iter().any(|e| e.name == entry.name) {
            return Err(ManifestError::DuplicateCorpus { name: entry.name });
        }
        for e in &entry.endpoints {
            validate_endpoint(e)?;
        }
        self.corpora.push(entry);
        Ok(())
    }

    /// The entry named `name`, if any.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.corpora.iter().find(|e| e.name == name)
    }

    /// Resolve an entry's snapshot path against the manifest location:
    /// absolute paths pass through, relative ones join the manifest's
    /// directory.
    pub fn resolve(manifest_path: &Path, entry: &ManifestEntry) -> PathBuf {
        let p = Path::new(&entry.snapshot);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            manifest_path.parent().unwrap_or(Path::new(".")).join(p)
        }
    }

    /// Render the framed manifest bytes (deterministic).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = ByteWriter::new();
        body.put_u32(self.corpora.len() as u32);
        body.put_u32(self.default as u32);
        for e in &self.corpora {
            body.put_str(&e.name);
            body.put_str(&e.snapshot);
            body.put_u32(e.layout_version);
            body.put_u64(e.checksum);
            body.put_u32(e.endpoints.len() as u32);
            for endpoint in &e.endpoints {
                body.put_str(endpoint);
            }
        }
        let body = body.into_bytes();
        let mut out = ByteWriter::new();
        out.put_bytes(&MANIFEST_MAGIC);
        out.put_u32(MANIFEST_VERSION);
        out.put_u64(checksum64(&body));
        out.put_bytes(&body);
        out.into_bytes()
    }

    /// Parse and validate manifest bytes: magic, version, body
    /// checksum, then every structural invariant (non-empty, default in
    /// range, valid unique names and endpoints, no trailing garbage).
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, ManifestError> {
        let mut header = ByteReader::new(bytes, "magic");
        if header.get_bytes(8)? != MANIFEST_MAGIC {
            return Err(ManifestError::BadMagic);
        }
        header.reading("header");
        let version = header.get_u32()?;
        let checksum = header.get_u64()?;
        if version != MANIFEST_VERSION {
            return Err(ManifestError::UnsupportedVersion {
                found: version,
                supported: MANIFEST_VERSION,
            });
        }
        let body = header.get_bytes(header.remaining())?;
        if checksum64(body) != checksum {
            return Err(ManifestError::ChecksumMismatch);
        }
        let mut c = ByteReader::new(body, "manifest body");
        let count = c.get_u32()? as usize;
        if count == 0 {
            return Err(ManifestError::Corrupt {
                context: "manifest names no corpora",
            });
        }
        let default = c.get_u32()? as usize;
        if default >= count {
            return Err(ManifestError::Corrupt {
                context: "default corpus index out of range",
            });
        }
        // Clamped: an entry spans ≥ 20 payload bytes, so a lying count
        // fails typed instead of aborting on a huge pre-allocation.
        let mut corpora = Vec::with_capacity(count.min(c.remaining() / 20 + 1));
        for _ in 0..count {
            let name = c.get_str()?.to_owned();
            validate_corpus_name(&name)?;
            if corpora.iter().any(|e: &ManifestEntry| e.name == name) {
                return Err(ManifestError::DuplicateCorpus { name });
            }
            let snapshot = c.get_str()?.to_owned();
            let layout_version = c.get_u32()?;
            let checksum = c.get_u64()?;
            let n = c.get_u32()? as usize;
            let mut endpoints = Vec::with_capacity(n.min(c.remaining() / 4 + 1));
            for _ in 0..n {
                let endpoint = c.get_str()?.to_owned();
                validate_endpoint(&endpoint)?;
                endpoints.push(endpoint);
            }
            corpora.push(ManifestEntry {
                name,
                snapshot,
                layout_version,
                checksum,
                endpoints,
            });
        }
        if !c.at_end() {
            return Err(ManifestError::Corrupt {
                context: "trailing bytes after the last corpus",
            });
        }
        Ok(Manifest { corpora, default })
    }

    /// Write the manifest to `path` (atomic temp-file + rename, like
    /// snapshot saves).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ManifestError> {
        Ok(write_atomic(path.as_ref(), "manifest", &self.to_bytes())?)
    }

    /// Read and validate a manifest file.
    pub fn load(path: impl AsRef<Path>) -> Result<Manifest, ManifestError> {
        Manifest::from_bytes(&std::fs::read(path.as_ref())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new();
        for (i, (name, path, endpoints)) in [
            ("dblp", "dblp.ncq", vec![]),
            (
                "multimedia",
                "snapshots/mm.ncq",
                vec!["127.0.0.1:9201".to_owned(), "replica-b:9201".to_owned()],
            ),
            ("deep", "/abs/deep.ncq", vec![]),
        ]
        .into_iter()
        .enumerate()
        {
            m.push(ManifestEntry {
                name: name.into(),
                snapshot: path.into(),
                layout_version: crate::snapshot::SNAPSHOT_VERSION,
                checksum: 0x1234_5678_9abc_def0 ^ i as u64,
                endpoints,
            })
            .unwrap();
        }
        m.default = 1;
        m
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let m = sample();
        let loaded = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.entry("deep").unwrap().snapshot, "/abs/deep.ncq");
        assert!(loaded.entry("absent").is_none());
    }

    #[test]
    fn bytes_are_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn truncation_at_every_prefix_is_typed_never_a_panic() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Manifest::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_typed_never_a_panic() {
        let bytes = sample().to_bytes();
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            // Any single flip must be rejected: magic, version, the
            // checksum field itself, or the body (caught by the
            // checksum). No flip may decode successfully — a flipped
            // body byte that somehow passed would silently reroute
            // corpora.
            assert!(
                Manifest::from_bytes(&corrupt).is_err(),
                "flip at {at} went undetected"
            );
        }
    }

    #[test]
    fn header_failures_are_distinct() {
        let bytes = sample().to_bytes();
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Manifest::from_bytes(&bad_magic),
            Err(ManifestError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(matches!(
            Manifest::from_bytes(&bad_version),
            Err(ManifestError::UnsupportedVersion { found: 99, .. })
        ));
        let mut flipped_body = bytes.clone();
        let last = flipped_body.len() - 1;
        flipped_body[last] ^= 0x01;
        assert!(matches!(
            Manifest::from_bytes(&flipped_body),
            Err(ManifestError::ChecksumMismatch)
        ));
    }

    #[test]
    fn duplicate_names_are_typed() {
        let mut m = sample();
        // `push` refuses up front …
        assert!(matches!(
            m.push(ManifestEntry {
                name: "dblp".into(),
                snapshot: "other.ncq".into(),
                layout_version: 1,
                checksum: 0,
                endpoints: vec![],
            }),
            Err(ManifestError::DuplicateCorpus { .. })
        ));
        // … and a hand-built duplicate fails at decode.
        m.corpora.push(ManifestEntry {
            name: "dblp".into(),
            snapshot: "other.ncq".into(),
            layout_version: 1,
            checksum: 0,
            endpoints: vec![],
        });
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(ManifestError::DuplicateCorpus { name }) if name == "dblp"
        ));
    }

    #[test]
    fn malformed_names_are_typed() {
        // Whitespace/control forms, plus names the query lexer could
        // never address as `from corpus(name)`: leading digits,
        // punctuation that closes or splits the clause.
        for bad in [
            "",
            "two words",
            "tab\tname",
            "nul\0name",
            "nl\nname",
            "2024",
            "a)b",
            "x,y",
            "*",
            "semi;colon",
        ] {
            assert!(
                matches!(
                    validate_corpus_name(bad),
                    Err(ManifestError::InvalidName { .. })
                ),
                "{bad:?} accepted"
            );
            let mut m = sample();
            m.corpora[0].name = bad.to_owned();
            assert!(
                Manifest::from_bytes(&m.to_bytes()).is_err(),
                "{bad:?} decoded"
            );
        }
        assert!(validate_corpus_name("dblp-2026.v1").is_ok());
    }

    #[test]
    fn other_manifest_versions_are_refused_typed() {
        // Version 1 (the retired endpoint-less layout), version 2 (the
        // retired shard-count layout), 0 and a future version all fail
        // on the header alone.
        for found in [0u8, 1, 2, 99] {
            let mut bytes = sample().to_bytes();
            bytes[8] = found;
            assert!(matches!(
                Manifest::from_bytes(&bytes),
                Err(ManifestError::UnsupportedVersion { found: f, supported: MANIFEST_VERSION })
                    if f == found as u32
            ));
        }
    }

    #[test]
    fn failed_save_is_typed_io_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("ncq-manifest-failed-save-test");
        std::fs::remove_dir_all(&dir).ok();
        // The destination is an existing directory: the rename fails.
        let dest = dir.join("forest.ncqm");
        std::fs::create_dir_all(&dest).unwrap();
        assert!(matches!(sample().save(&dest), Err(ManifestError::Io(_))));
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["forest.ncqm"], "temp file leaked: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn endpoints_round_trip_and_validate() {
        let m = sample();
        let loaded = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(
            loaded.entry("multimedia").unwrap().endpoints,
            vec!["127.0.0.1:9201", "replica-b:9201"]
        );
        assert!(loaded.entry("dblp").unwrap().endpoints.is_empty());
        // The builder validates…
        let entry = ManifestEntry {
            name: "x".into(),
            snapshot: "x.ncq".into(),
            layout_version: 1,
            checksum: 0,
            endpoints: vec![],
        };
        assert!(entry
            .clone()
            .with_endpoints(["localhost:9201", "[::1]:9201"])
            .is_ok());
        for bad in [
            "",
            "noport",
            "host:",
            ":9201",
            "host:0",
            "host:99999",
            "host:port",
            "ho st:1",
        ] {
            assert!(
                matches!(
                    entry.clone().with_endpoints([bad]),
                    Err(ManifestError::InvalidEndpoint { .. })
                ),
                "{bad:?} accepted by builder"
            );
            // …push validates…
            let mut m2 = Manifest::new();
            let mut e2 = entry.clone();
            e2.endpoints = vec![bad.to_owned()];
            assert!(m2.push(e2).is_err(), "{bad:?} accepted by push");
            // …and a hand-built bad endpoint fails at decode.
            let mut m3 = sample();
            m3.corpora[1].endpoints[0] = bad.to_owned();
            assert!(
                matches!(
                    Manifest::from_bytes(&m3.to_bytes()),
                    Err(ManifestError::InvalidEndpoint { .. })
                ),
                "{bad:?} decoded"
            );
        }
    }

    #[test]
    fn structural_invariants_are_typed() {
        // Empty manifest.
        let empty = Manifest::new();
        assert!(matches!(
            Manifest::from_bytes(&empty.to_bytes()),
            Err(ManifestError::Corrupt { .. })
        ));
        // Default index out of range.
        let mut m = sample();
        m.default = 3;
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(ManifestError::Corrupt { .. })
        ));
    }

    #[test]
    fn save_load_round_trips_through_a_file_and_resolves_paths() {
        let dir = std::env::temp_dir().join("ncq-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forest.ncqm");
        let m = sample();
        m.save(&path).unwrap();
        let loaded = Manifest::load(&path).unwrap();
        assert_eq!(loaded, m);
        // Relative entries resolve against the manifest dir; absolute
        // ones pass through.
        assert_eq!(
            Manifest::resolve(&path, loaded.entry("dblp").unwrap()),
            dir.join("dblp.ncq")
        );
        assert_eq!(
            Manifest::resolve(&path, loaded.entry("multimedia").unwrap()),
            dir.join("snapshots/mm.ncq")
        );
        assert_eq!(
            Manifest::resolve(&path, loaded.entry("deep").unwrap()),
            PathBuf::from("/abs/deep.ncq")
        );
        std::fs::remove_file(&path).ok();
    }

    /// The manifest bytes, pinned: two corpora, the second with two
    /// replica endpoints and the default. Any change to the header, the
    /// body or the string and count encodings fails here.
    #[test]
    fn encoding_is_pinned() {
        let mut m = Manifest::new();
        for (name, snapshot, checksum, endpoints) in [
            ("dblp", "dblp.ncq", 0x0123_4567_89ab_cdef, vec![]),
            (
                "mm",
                "snap/mm.ncq",
                0xfedc_ba98_7654_3210,
                vec!["127.0.0.1:9201".to_owned(), "replica-b:9201".to_owned()],
            ),
        ] {
            m.push(ManifestEntry {
                name: name.into(),
                snapshot: snapshot.into(),
                layout_version: 8,
                checksum,
                endpoints,
            })
            .unwrap();
        }
        m.default = 1;
        let hex: String = m.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        let pinned = concat!(
            "4e4351465253540003000000d094346665e3ec9c", // magic, version, checksum
            "0200000001000000",                         // two corpora, default 1
            "0400000064626c700800000064626c702e6e637108000000efcdab896745230100000000",
            "020000006d6d0b000000736e61702f6d6d2e6e6371080000001032547698badcfe02000000",
            "0e0000003132372e302e302e313a39323031",
            "0e0000007265706c6963612d623a39323031",
        );
        assert_eq!(hex, pinned);
    }

    #[test]
    fn describe_reads_version_and_checksum_from_a_real_snapshot() {
        let dir = std::env::temp_dir().join("ncq-manifest-describe-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("fig.ncq");
        let db = crate::MonetDb::from_document(&ncq_xml::parse("<bib><a>x</a></bib>").unwrap());
        let mut w = crate::SnapshotWriter::new();
        db.encode_snapshot(&mut w);
        w.write_to(&snap).unwrap();
        let entry = ManifestEntry::describe("fig", &snap).unwrap();
        assert_eq!(entry.layout_version, crate::snapshot::SNAPSHOT_VERSION);
        assert_eq!(entry.checksum, checksum64(&std::fs::read(&snap).unwrap()));
        // A non-snapshot file is refused.
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"not a snapshot").unwrap();
        assert!(matches!(
            ManifestEntry::describe("junk", &junk),
            Err(ManifestError::Corrupt { .. })
        ));
        // A dangling path is a typed io error.
        assert!(matches!(
            ManifestEntry::describe("gone", dir.join("gone.ncq")),
            Err(ManifestError::Io(_))
        ));
        for p in [&snap, &junk] {
            std::fs::remove_file(p).ok();
        }
    }
}
