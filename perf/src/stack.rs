//! The system under test, assembled the way a deployment would:
//! snapshot file → `Database::open_snapshot` → `Server::start*` →
//! `TcpAcceptor::bind("127.0.0.1:0")`, every config at its default.
//! Also the set-up pipeline that produces the snapshot, the scratch
//! directory it lives in, and the two memory readings.

use crate::client::{Expected, LineClient};
use crate::workload::{Parts, Query};
use ncq_core::{Database, RemoteBackend, RemoteConfig};
use ncq_query::{run_query, QueryOutput};
use ncq_server::{
    Client, EngineConfig, NetConfig, RemoteEngine, Server, ServerConfig, ServerStats, TcpAcceptor,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The benchmark's output directory, `perf/out/`: traces and scratch.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Scratch directory for snapshot files, removed on drop — which a
/// panic's unwinding also runs. It sits inside the checkout
/// (`perf/out/`): the benchmark may not write anywhere else. Unique per
/// call, not only per process: tests run as threads of one process.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = out_dir().join(format!(
            "scratch-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A `/proc/self/status` field in MB (`VmRSS`: resident now; `VmHWM`:
/// the process's high-water mark).
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand freed heap pages back to the kernel, so a resident-set reading
/// shows what the program holds and not what the allocator keeps from
/// an earlier phase (the dropped XML text and build-side store, freed
/// responses in worker arenas).
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at
        // any time; it only returns free heap pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The serving stack of one workload. Field order is drop order: the
/// acceptor drains its sessions before the server joins its workers,
/// and the front server lets go of its remote backend before the
/// engine it talks to shuts down.
pub struct Stack {
    acceptor: TcpAcceptor,
    server: Server,
    _engine: Option<RemoteEngine>,
}

impl Stack {
    /// Open `snapshot` and serve it on an OS-assigned loopback port.
    /// With `remote`, the front server holds a `RemoteBackend` routing
    /// to one `RemoteEngine` in this process; both open the same file.
    pub fn start(snapshot: &Path, remote: bool) -> Result<Stack, BoxError> {
        let db = Database::open_snapshot(snapshot)?;
        let (server, engine) = if remote {
            let engine = RemoteEngine::bind("127.0.0.1:0", Arc::new(db), EngineConfig::default())?;
            let backend = RemoteBackend::new(
                Database::open_snapshot(snapshot)?,
                &[engine.local_addr().to_string()],
                RemoteConfig::default(),
            )?;
            let server = Server::start_backend(Arc::new(backend), ServerConfig::default());
            (server, Some(engine))
        } else {
            (Server::start(Arc::new(db), ServerConfig::default()), None)
        };
        let acceptor = TcpAcceptor::bind("127.0.0.1:0", server.client(), NetConfig::default())?;
        Ok(Stack {
            acceptor,
            server,
            _engine: engine,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// An in-process handle to the front server.
    pub fn client(&self) -> Client {
        self.server.client()
    }

    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }
}

/// The oracle: what `query` must answer, computed in process on a
/// `Database` built straight from the XML, in the wire's terms
/// (payload line count, payload hash).
pub fn oracle(db: &Database, query: &Query) -> Result<Expected, BoxError> {
    let payload = match query.parts() {
        Parts::Meet(terms, options) => db.meet_terms_with(&terms, &options)?.to_detailed_xml(),
        Parts::Sql(src) => match run_query(db, src)? {
            QueryOutput::Answers(a) => a.to_detailed_xml(),
            QueryOutput::Rows(r) => r.to_answer_xml(),
        },
    };
    Ok(Expected::of(&payload))
}

/// Durations of one set-up repetition, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse: f64,
    pub build: f64,
    pub meet_index: f64,
    /// The v3 image assembled in memory (`snapshot_to_bytes`).
    pub encode: f64,
    /// The image written to the checkout's file system. Not part of
    /// `total`: it is the device's time, not the program's.
    pub file_write: f64,
    /// open_snapshot + server start + bind + connect + one answer.
    pub serve_first: f64,
    /// Everything above except `file_write`.
    pub total: f64,
}

/// One set-up repetition: XML bytes in memory → first verified answer
/// over TCP. Returns the built `Database` (the oracle's source) and
/// leaves the snapshot at `snapshot`.
///
/// `save_snapshot` is taken apart into its two halves — the image
/// encoded to bytes, the bytes written to a file — because only the
/// first is the program's work: the same 62 MB write took 0.02 s or
/// 0.6 s (with `save_snapshot`'s rename, 0.14 s or 1.1 s) from one
/// repetition to the next on the sandbox's ext4 (journal commits,
/// `discard`), which alone moved `setup_s` by half.
pub fn setup_once(
    xml: &str,
    snapshot: &Path,
    remote: bool,
    first: &Query,
) -> Result<(SetupTimes, Database), BoxError> {
    let t0 = Instant::now();
    let doc = ncq_xml::parse(xml)?;
    let t1 = Instant::now();
    let db = Database::from_document(&doc);
    drop(doc);
    let t2 = Instant::now();
    db.store().meet_index();
    let t3 = Instant::now();
    let image = db.snapshot_to_bytes();
    let t4 = Instant::now();
    std::fs::write(snapshot, &image)?;
    drop(image);
    let t5 = Instant::now();
    let stack = Stack::start(snapshot, remote)?;
    let reply = LineClient::connect(stack.addr())?.request(&first.line())?;
    let t6 = Instant::now();
    // Verification and teardown are outside the timed span.
    if !oracle(&db, first)?.matches(&reply) {
        return Err(format!("set-up answer differs from the oracle: {}", first.line()).into());
    }
    drop(stack);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        SetupTimes {
            parse: secs(t0, t1),
            build: secs(t1, t2),
            meet_index: secs(t2, t3),
            encode: secs(t3, t4),
            file_write: secs(t4, t5),
            serve_first: secs(t5, t6),
            total: secs(t0, t4) + secs(t5, t6),
        },
        db,
    ))
}

/// One cold start, milliseconds: snapshot file → first verified
/// answer in process (no socket).
pub fn cold_start_once(
    snapshot: &Path,
    first: &Query,
    expected: Expected,
) -> Result<f64, BoxError> {
    let t0 = Instant::now();
    let db = Database::open_snapshot(snapshot)?;
    let server = Server::start(Arc::new(db), ServerConfig::default());
    let response = server.client().request(first.request())?;
    let ms = us_since(t0) / 1e3;
    let payload = match response {
        ncq_server::Response::Answers(a) => a.to_detailed_xml(),
        ncq_server::Response::Rows(r) => r.to_answer_xml(),
        other => return Err(format!("cold start answered {other:?}").into()),
    };
    if Expected::of(&payload) != expected {
        return Err(format!(
            "cold-start answer differs from the oracle: {}",
            first.line()
        )
        .into());
    }
    Ok(ms)
}
