//! The one TCP listener behind [`crate::TcpAcceptor`] and
//! [`crate::RemoteEngine`]: an accept thread that spawns one named
//! session thread per admitted connection, tracks every live session
//! socket, and on shutdown stops accepting, severs the sockets
//! (unblocking reads) and joins every thread — no session outlives its
//! listener.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread;

/// Tracks every live session socket so shutdown can unblock reads.
#[derive(Default)]
struct SessionRegistry {
    next_id: AtomicUsize,
    streams: Mutex<HashMap<usize, TcpStream>>,
}

impl SessionRegistry {
    fn register(&self, stream: &TcpStream) -> usize {
        let id = self.next_id.fetch_add(1, SeqCst);
        if let Ok(clone) = stream.try_clone() {
            self.streams
                .lock()
                .expect("session registry lock")
                .insert(id, clone);
        }
        id
    }

    fn deregister(&self, id: usize) {
        self.streams
            .lock()
            .expect("session registry lock")
            .remove(&id);
    }

    /// Shut down every registered socket (unblocking blocked reads).
    fn shutdown_all(&self) {
        for stream in self.streams.lock().expect("session registry lock").values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A running listener. Dropping it (or [`Listener::shutdown`]) is a
/// graceful drain.
pub(crate) struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    sessions: Arc<SessionRegistry>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` and start accepting. Threads are named
    /// `<prefix>-acceptor` / `<prefix>-session`.
    ///
    /// `admit` runs on the accept thread, in connection order, for
    /// every accepted socket: `None` refuses the connection (whatever
    /// the hook wrote to it is the refusal; dropping closes it),
    /// `Some(ticket)` spawns a session thread running
    /// `session(stream, ticket)`. The ticket is dropped when the
    /// session ends — or at once if the thread cannot be spawned — so a
    /// guard in it releases whatever `admit` claimed.
    pub(crate) fn bind<T: Send + 'static>(
        addr: impl ToSocketAddrs,
        prefix: &'static str,
        mut admit: impl FnMut(&mut TcpStream) -> Option<T> + Send + 'static,
        session: impl Fn(TcpStream, T) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(SessionRegistry::default());
        let session = Arc::new(session);

        let accept_stop = Arc::clone(&stop);
        let registry = Arc::clone(&sessions);
        let accept_thread = thread::Builder::new()
            .name(format!("{prefix}-acceptor"))
            .spawn(move || {
                let mut handles: Vec<thread::JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_stop.load(SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let Some(ticket) = admit(&mut stream) else {
                        continue;
                    };
                    // Registered here, not on the session thread: a
                    // drain that ran before the new thread did would
                    // miss its socket and wait on its read forever.
                    let id = registry.register(&stream);
                    let (session, sessions) = (Arc::clone(&session), Arc::clone(&registry));
                    let spawned = thread::Builder::new()
                        .name(format!("{prefix}-session"))
                        .spawn(move || {
                            session(stream, ticket);
                            sessions.deregister(id);
                        });
                    match spawned {
                        Ok(handle) => handles.push(handle),
                        Err(_) => registry.deregister(id),
                    }
                    // Reap finished sessions so a long-lived listener
                    // does not accumulate handles.
                    handles.retain(|h| !h.is_finished());
                }
                // Graceful drain: sever every live session (unblocking
                // blocked reads), then join all session threads.
                registry.shutdown_all();
                for handle in handles {
                    let _ = handle.join();
                }
            })?;

        Ok(Listener {
            local_addr,
            stop,
            sessions,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with an OS-assigned port resolved).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, sever live sessions, join every thread.
    pub(crate) fn shutdown(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.stop.store(true, SeqCst);
            // Unblock the accept loop with a throwaway connection; the
            // accept thread then drains the session threads.
            let _ = TcpStream::connect(self.local_addr);
            self.sessions.shutdown_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}
