//! Deterministic fault injection for the framed engine protocol.
//!
//! [`ChaosProxy`] sits between a coordinator's `RemoteBackend` and a
//! real `ncq_server::RemoteEngine`, forwarding frames verbatim —
//! except when the seeded schedule says otherwise. Faults are drawn
//! from a PRNG seeded at construction — once per accepted connection
//! (where [`Fault::Refuse`] lands) and once per request/response
//! exchange (coordinators pool connections, so a per-connection-only
//! draw would pin one fault for a whole batch). A failing stress run
//! replays *exactly* by rerunning with the same seed: no
//! timing-dependent flakiness, no "sometimes corrupts".
//!
//! The fault menu covers the distinct ways a replica dies in practice:
//!
//! * [`Fault::Refuse`] — the connection is accepted and immediately
//!   closed (the portable stand-in for connection refusal: the
//!   coordinator sees an instant reset before any frame);
//! * [`Fault::Disconnect`] — the response is cut off mid-frame after a
//!   fixed number of bytes (process crash mid-reply);
//! * [`Fault::CorruptFrame`] — one payload byte is flipped without
//!   fixing the checksum (bit-rot in flight; must surface as a *typed*
//!   checksum failure, never a silently wrong answer);
//! * [`Fault::Stall`] — the response is withheld past the client's
//!   read timeout (hung process, dead NIC);
//! * [`Fault::SlowDrip`] — the response arrives in tiny chunks (a
//!   congested but live path; the client must reassemble, not time
//!   out).
//!
//! The proxy is frame-aware (it decodes boundaries with the real
//! codec), so faults land at protocol-meaningful positions instead of
//! random TCP offsets.

use ncq_core::remote::{frame_header, read_frame_or_eof, DEFAULT_FRAME_CAP};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// One injectable failure mode. [`Fault::Refuse`] is drawn at accept
/// time; every other fault applies to one request/response exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Forward everything verbatim (the healthy draw).
    None,
    /// Close the connection immediately on accept.
    Refuse,
    /// Relay only the first `after_bytes` bytes of each framed
    /// response, then close — a crash mid-reply.
    Disconnect { after_bytes: usize },
    /// Flip one response payload byte, leaving the frame checksum
    /// stale — the client must detect it as a typed corruption.
    CorruptFrame,
    /// Withhold the response for this long, then close without
    /// answering — the client's read timeout must fire first.
    Stall(Duration),
    /// Deliver the response in tiny chunks with small pauses — slow
    /// but correct; the client must reassemble the frame.
    SlowDrip,
}

/// A deterministic per-connection fault source.
pub struct ChaosSchedule {
    menu: Vec<Fault>,
    rng: Mutex<StdRng>,
}

impl ChaosSchedule {
    /// Draw uniformly from `menu` with a PRNG seeded by `seed`. The
    /// draw sequence — and therefore the whole run — is a pure
    /// function of `(seed, menu, connection order)`.
    pub fn seeded(seed: u64, menu: Vec<Fault>) -> ChaosSchedule {
        assert!(!menu.is_empty(), "chaos schedule needs at least one fault");
        ChaosSchedule {
            menu,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// A schedule that always injects the same fault — the sharpest
    /// tool for targeted tests.
    pub fn always(fault: Fault) -> ChaosSchedule {
        ChaosSchedule::seeded(0, vec![fault])
    }

    fn draw(&self) -> Fault {
        let mut rng = self.rng.lock().expect("chaos rng lock");
        let idx = rng.random_range(0..self.menu.len());
        self.menu[idx].clone()
    }
}

/// A fault-injecting TCP proxy in front of one engine replica.
///
/// Point a `RemoteBackend` endpoint at [`ChaosProxy::local_addr`]; the
/// proxy forwards frames to `upstream`, applying the scheduled fault
/// of each connection to the responses flowing back. One accept thread
/// spawns one relay thread per connection; shutdown (or drop) stops
/// accepting, severs every relay's client socket and joins them all.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// A clone of each live relay's client socket, by connection
    /// number, so shutdown can sever relays blocked in a read.
    clients: Arc<Mutex<HashMap<u64, TcpStream>>>,
    accept_thread: Option<thread::JoinHandle<()>>,
    faults_injected: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Bind an OS-assigned local port proxying to `upstream`.
    pub fn bind(upstream: SocketAddr, schedule: ChaosSchedule) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let clients = Arc::new(Mutex::new(HashMap::new()));
        let faults_injected = Arc::new(AtomicU64::new(0));
        let schedule = Arc::new(schedule);

        let (accept_stop, accept_clients, faults) = (
            Arc::clone(&stop),
            Arc::clone(&clients),
            Arc::clone(&faults_injected),
        );
        let accept_thread = thread::spawn(move || {
            let mut relays = Vec::new();
            for (id, client) in (0u64..).zip(listener.incoming()) {
                if accept_stop.load(SeqCst) {
                    break;
                }
                let Ok(client) = client else { continue };
                // The accept-time draw is where Refuse lands; any other
                // draw becomes the first exchange's fault and later
                // exchanges redraw.
                let first_fault = schedule.draw();
                if first_fault == Fault::Refuse {
                    faults.fetch_add(1, SeqCst);
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                if let Ok(clone) = client.try_clone() {
                    accept_clients.lock().unwrap().insert(id, clone);
                }
                let (schedule, faults) = (Arc::clone(&schedule), Arc::clone(&faults));
                let clients = Arc::clone(&accept_clients);
                relays.push(thread::spawn(move || {
                    let _ = relay_session(client, upstream, first_fault, &schedule, &faults);
                    // Dropping the last clone closes the connection.
                    clients.lock().unwrap().remove(&id);
                }));
            }
            for client in accept_clients.lock().unwrap().values() {
                let _ = client.shutdown(Shutdown::Both);
            }
            for relay in relays {
                let _ = relay.join();
            }
        });
        Ok(ChaosProxy {
            local_addr,
            stop,
            clients,
            accept_thread: Some(accept_thread),
            faults_injected,
        })
    }

    /// The proxy's client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Applied fault draws other than [`Fault::None`] — accept-time
    /// refusals plus per-exchange faults.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(SeqCst)
    }

    /// Stop accepting, sever every relay, join all threads.
    pub fn shutdown(self) {}
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if let Some(accept_thread) = self.accept_thread.take() {
            self.stop.store(true, SeqCst);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.local_addr);
            if let Ok(clients) = self.clients.lock() {
                for client in clients.values() {
                    let _ = client.shutdown(Shutdown::Both);
                }
            }
            let _ = accept_thread.join();
        }
    }
}

/// Rebuild the wire bytes of one frame around `payload`.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    [frame_header(payload).as_slice(), payload].concat()
}

/// Forward request frames upstream and response frames back, applying
/// one freshly drawn fault per exchange (the first exchange reuses the
/// accept-time draw). Ends on either side closing or any relay error —
/// the proxy never retries; retrying is the *client's* job.
fn relay_session(
    client: TcpStream,
    upstream: SocketAddr,
    first_fault: Fault,
    schedule: &ChaosSchedule,
    faults: &AtomicU64,
) -> std::io::Result<()> {
    client.set_nodelay(true)?;
    let server = TcpStream::connect(upstream)?;
    server.set_nodelay(true)?;
    let mut client_read = client.try_clone()?;
    let mut client_write = client;
    let mut server_read = server.try_clone()?;
    let mut server_write = server;
    let mut next_fault = Some(first_fault);
    loop {
        // Request: client -> upstream, always verbatim (faults model a
        // sick *replica*, so they land on the response path).
        let request = match read_frame_or_eof(&mut client_read, DEFAULT_FRAME_CAP) {
            Ok(Some(payload)) => payload,
            _ => return Ok(()),
        };
        server_write.write_all(&frame_bytes(&request))?;
        server_write.flush()?;

        // Response: upstream -> client, through this exchange's fault.
        let fault = next_fault.take().unwrap_or_else(|| schedule.draw());
        if fault != Fault::None {
            faults.fetch_add(1, SeqCst);
        }
        let response = match read_frame_or_eof(&mut server_read, DEFAULT_FRAME_CAP) {
            Ok(Some(payload)) => payload,
            _ => return Ok(()),
        };
        let mut framed = frame_bytes(&response);
        match fault {
            Fault::None => {
                client_write.write_all(&framed)?;
                client_write.flush()?;
            }
            // Drawn mid-session, Refuse degenerates to an immediate
            // close: the connection was already accepted.
            Fault::Refuse => {
                let _ = client_write.shutdown(Shutdown::Both);
                return Ok(());
            }
            Fault::Disconnect { after_bytes } => {
                let cut = after_bytes.min(framed.len());
                client_write.write_all(&framed[..cut])?;
                client_write.flush()?;
                let _ = client_write.shutdown(Shutdown::Both);
                return Ok(());
            }
            Fault::CorruptFrame => {
                // Flip a byte in the payload region; the header keeps
                // the pre-flip checksum, so the client's frame reader
                // must reject it.
                let at = 12 + response.len() / 2;
                framed[at] ^= 0xA5;
                client_write.write_all(&framed)?;
                client_write.flush()?;
            }
            Fault::Stall(for_how_long) => {
                thread::sleep(for_how_long);
                let _ = client_write.shutdown(Shutdown::Both);
                return Ok(());
            }
            Fault::SlowDrip => {
                // Small chunks with pauses, bounded so a dripped frame
                // still lands well inside a sane read timeout.
                let chunk = (framed.len() / 40).max(1);
                for piece in framed.chunks(chunk) {
                    client_write.write_all(piece)?;
                    client_write.flush()?;
                    thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

mod tests {
    use super::*;
    use ncq_core::remote::{RemoteBackend, RemoteConfig};
    use ncq_core::{Database, MeetBackend};
    use ncq_server::{EngineConfig, RemoteEngine};

    const FIG: &str = r#"<bib><article key="BB99"><author>Ben Bit</author>
        <year>1999</year></article></bib>"#;

    fn fast_config() -> RemoteConfig {
        RemoteConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(400),
            write_timeout: Duration::from_millis(400),
            retry_rounds: 2,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            down_probe_after: Duration::from_millis(10),
        }
    }

    fn engine(db: &Arc<Database>) -> RemoteEngine {
        RemoteEngine::bind(
            "127.0.0.1:0",
            Arc::clone(db) as Arc<dyn MeetBackend>,
            EngineConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let menu = vec![
            Fault::None,
            Fault::CorruptFrame,
            Fault::SlowDrip,
            Fault::Disconnect { after_bytes: 5 },
        ];
        let a = ChaosSchedule::seeded(42, menu.clone());
        let b = ChaosSchedule::seeded(42, menu);
        let draws_a: Vec<Fault> = (0..32).map(|_| a.draw()).collect();
        let draws_b: Vec<Fault> = (0..32).map(|_| b.draw()).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|f| *f != draws_a[0]), "menu is sampled");
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        let engine = engine(&db);
        let proxy =
            ChaosProxy::bind(engine.local_addr(), ChaosSchedule::always(Fault::None)).unwrap();
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[proxy.local_addr().to_string()],
            fast_config(),
        )
        .unwrap();
        let query = ncq_query::Query::meet_terms(&["Bit", "1999"], None, None);
        let over_proxy =
            ncq_query::eval::evaluate(&remote, &query, &ncq_query::QueryOptions::default())
                .unwrap();
        assert_eq!(
            over_proxy,
            ncq_query::QueryOutput::Answers(db.meet_terms(&["Bit", "1999"]).unwrap())
        );
        assert_eq!(proxy.faults_injected(), 0);
        proxy.shutdown();
        engine.shutdown();
    }

    #[test]
    fn corrupt_frames_surface_as_typed_failures_not_wrong_answers() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        let engine = engine(&db);
        let proxy = ChaosProxy::bind(
            engine.local_addr(),
            ChaosSchedule::always(Fault::CorruptFrame),
        )
        .unwrap();
        // The corrupt-only replica is the *only* endpoint: every round
        // fails with a typed error; nothing garbled ever decodes.
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[proxy.local_addr().to_string()],
            fast_config(),
        )
        .unwrap();
        let err = remote.search("Bit").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unavailable"), "typed unavailable: {msg}");
        assert!(proxy.faults_injected() > 0);
        proxy.shutdown();
        engine.shutdown();
    }

    #[test]
    fn slow_drip_is_survivable() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        let engine = engine(&db);
        let proxy =
            ChaosProxy::bind(engine.local_addr(), ChaosSchedule::always(Fault::SlowDrip)).unwrap();
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[proxy.local_addr().to_string()],
            fast_config(),
        )
        .unwrap();
        let hits = remote.search("Bit").unwrap();
        assert_eq!(hits, db.search("Bit"));
        proxy.shutdown();
        engine.shutdown();
    }
}
