//! The framed engine listener: serve a [`MeetBackend`] to remote
//! coordinators.
//!
//! The line protocol ([`crate::protocol::serve_lines`]) is the *user*
//! transport; this module is the *engine* transport — the serving side
//! of `ncq-core::remote`'s length-delimited request/response framing.
//! A coordinator's `RemoteBackend` connects here and sends whole
//! queries as their text — a MEET as the Listing-2 query it
//! abbreviates — and gets back finished answers;
//! because this process runs the same engine over the same snapshot,
//! answers are byte-identical to in-process execution. The sub-step
//! opcodes (one term's hits, one meet over shipped hit sets) are
//! served too: the `SEARCH` verb's count uses the first.
//!
//! Failure discipline mirrors the rest of the stack: malformed request
//! *bodies* are answered with an in-band error frame (the framing is
//! intact, the session continues); framing-level desync (truncated
//! frame, failed checksum, oversized length) closes the connection —
//! there is no way to know where the next frame starts. Evaluation
//! panics are caught per request and answered in-band, so a poisoned
//! request never takes the engine down. Shutdown is a graceful drain:
//! stop accepting, unblock every session by shutting its socket down,
//! join all session threads.

use crate::listener::Listener;
use ncq_core::remote::{
    decode_request_traced, encode_error_response, encode_response, read_frame_or_eof, write_frame,
    EngineQuery, EngineRequest, EngineResponse, WireError, DEFAULT_FRAME_CAP,
};
use ncq_core::sweep::meet_hits;
use ncq_core::MeetBackend;
use ncq_query::{run_query_opts, QueryConfig, QueryOptions, QueryOutput};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Engine listener settings: there are none. A session blocks until
/// the coordinator closes it (its failover router reconnects
/// transparently), and frames in both directions are capped at
/// [`DEFAULT_FRAME_CAP`].
// Only because `perf/src/{stack,trace}.rs` pass `EngineConfig::default()`;
// ROADMAP 17 unlinks the benchmark from the engine's internals.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {}

/// A running engine listener: accepts coordinator connections and
/// serves the framed engine protocol over `backend`.
///
/// [`RemoteEngine::shutdown`] (or drop) performs a graceful drain —
/// stop accepting, finish the request each session is evaluating,
/// unblock idle sessions, join every thread.
pub struct RemoteEngine {
    listener: Listener,
    served: Arc<AtomicU64>,
}

impl RemoteEngine {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `backend` framed.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn MeetBackend>,
        _config: EngineConfig,
    ) -> std::io::Result<RemoteEngine> {
        // Force the meet index eagerly so the first remote call does
        // not race the build.
        if let Some(store) = backend.store() {
            store.meet_index();
        }
        let served = Arc::new(AtomicU64::new(0));
        let session_served = Arc::clone(&served);
        let listener = Listener::bind(
            addr,
            "ncq-engine",
            |_| Some(()),
            move |stream, ()| {
                let _ = serve_engine_session(&*backend, stream, &session_served);
            },
        )?;
        Ok(RemoteEngine { listener, served })
    }

    /// The bound address (OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Requests answered so far (all sessions).
    pub fn served(&self) -> u64 {
        self.served.load(SeqCst)
    }

    /// Graceful drain: stop accepting, unblock and join every session.
    pub fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

/// Evaluate one decoded request, panic-isolated.
fn answer(backend: &dyn MeetBackend, request: EngineRequest) -> Vec<u8> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match request {
        EngineRequest::Ping => encode_response(&EngineResponse::Pong),
        EngineRequest::Search { term } => match backend.search(&term) {
            Ok(hits) => encode_response(&EngineResponse::Hits(hits)),
            Err(e) => encode_error_response(&e.to_string()),
        },
        EngineRequest::Meet { inputs, options } => match backend.store() {
            Some(store) => {
                encode_response(&EngineResponse::Meets(meet_hits(store, &inputs, &options)))
            }
            None => encode_error_response("this engine holds no corpus to meet over"),
        },
        EngineRequest::Answer(EngineQuery { text, max_rows }) => {
            let options = QueryOptions {
                config: QueryConfig { max_rows },
                default_corpus: None,
            };
            match run_query_opts(backend, &text, &options) {
                Ok(QueryOutput::Answers(answers)) => {
                    encode_response(&EngineResponse::Answers(answers))
                }
                Ok(QueryOutput::Rows(rows)) => encode_response(&EngineResponse::Rows(rows)),
                Err(e) => encode_error_response(&e.to_string()),
            }
        }
    }));
    result.unwrap_or_else(|_| encode_error_response("internal error: engine evaluation panicked"))
}

/// One coordinator session: frames in, frames out, until EOF or
/// framing desync.
fn serve_engine_session(
    backend: &dyn MeetBackend,
    stream: TcpStream,
    served: &AtomicU64,
) -> Result<(), WireError> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let payload = match read_frame_or_eof(&mut reader, DEFAULT_FRAME_CAP) {
            Ok(Some(payload)) => payload,
            // Clean EOF: the coordinator closed its pooled connection.
            Ok(None) => return Ok(()),
            // Framing-level failure (truncation mid-frame, checksum,
            // oversized length, socket error/timeout): the stream has
            // no recoverable frame boundary — answer nothing and
            // close. The coordinator counts it and fails over.
            Err(e) => return Err(e),
        };
        let response = match decode_request_traced(&payload) {
            // Body-level failure behind intact framing: answer the
            // error in-band and keep serving the session.
            Err(e) => encode_error_response(&e.to_string()),
            Ok((request, trace_id)) => {
                // A propagated trace id starts an engine-side trace
                // under the *coordinator's* id, so the two span trees
                // stitch in the trace ring.
                if let Some(id) = trace_id {
                    ncq_obs::obs().begin_trace(id);
                }
                let response = {
                    let _eval = ncq_obs::trace::span("engine_eval");
                    ncq_obs::trace::annotate(
                        "op",
                        match &request {
                            EngineRequest::Ping => "ping",
                            EngineRequest::Search { .. } => "search",
                            EngineRequest::Meet { .. } => "meet",
                            EngineRequest::Answer(_) => "answer",
                        }
                        .to_owned(),
                    );
                    answer(backend, request)
                };
                if trace_id.is_some() {
                    ncq_obs::obs().finish_trace();
                }
                response
            }
        };
        served.fetch_add(1, SeqCst);
        write_frame(&mut writer, &response, DEFAULT_FRAME_CAP)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncq_core::remote::{RemoteBackend, RemoteConfig};
    use ncq_core::Database;
    use std::time::{Duration, Instant};

    const FIG: &str = r#"<bib><article key="BB99"><author>Ben Bit</author>
        <year>1999</year></article></bib>"#;

    fn fast_config() -> RemoteConfig {
        RemoteConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(1000),
            write_timeout: Duration::from_millis(1000),
            retry_rounds: 1,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            down_probe_after: Duration::from_millis(10),
        }
    }

    #[test]
    fn engine_round_trip_is_byte_identical_to_in_process() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        let engine = RemoteEngine::bind(
            "127.0.0.1:0",
            Arc::clone(&db) as Arc<dyn MeetBackend>,
            EngineConfig::default(),
        )
        .unwrap();
        let remote = RemoteBackend::new(
            Database::from_xml_str(FIG).unwrap(),
            &[engine.local_addr().to_string()],
            fast_config(),
        )
        .unwrap();
        // A MEET travels whole as the Listing-2 text it abbreviates.
        let query = ncq_query::Query::meet_terms(&["Bit", "1999"], None, None);
        let over_wire =
            ncq_query::eval::evaluate(&remote, &query, &QueryOptions::default()).unwrap();
        let local = QueryOutput::Answers(db.meet_terms(&["Bit", "1999"]).unwrap());
        assert_eq!(over_wire, local);
        // The whole MEET is one request, and so is each SQL query.
        assert_eq!(engine.served(), 1);
        for (sql, served) in [
            (
                "select meet(a, b) from bib/% as a, bib/% as b \
                 where a contains 'Bit' and b contains '1999'",
                2,
            ),
            ("select t from bib/article as t", 3),
            // The text sent is the query's `Display`: a needle holding
            // an apostrophe must come back double-quoted.
            (
                r#"select meet(a, b) from bib/% as a, bib/% as b
                   where a contains "Ben Bit'" and b contains '1999'"#,
                4,
            ),
        ] {
            let over_wire = ncq_query::run_query(&remote, sql).unwrap();
            let local = ncq_query::run_query(&*db, sql).unwrap();
            assert!(
                matches!(&local, QueryOutput::Answers(a) if !a.is_empty())
                    || matches!(&local, QueryOutput::Rows(r) if !r.rows.is_empty()),
                "{sql}"
            );
            assert_eq!(over_wire, local, "{sql}");
            assert_eq!(engine.served(), served, "{sql}");
        }
        engine.shutdown();
    }

    #[test]
    fn malformed_bodies_answer_in_band_and_keep_the_session() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        let engine = RemoteEngine::bind(
            "127.0.0.1:0",
            Arc::clone(&db) as Arc<dyn MeetBackend>,
            EngineConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(engine.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A well-framed garbage body: in-band error, session lives.
        write_frame(&mut stream, &[0xFF, 0x01, 0x02], DEFAULT_FRAME_CAP).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = ncq_core::remote::read_frame(&mut reader, DEFAULT_FRAME_CAP).unwrap();
        assert!(matches!(
            ncq_core::remote::decode_response(&reply),
            Err(WireError::Remote(msg)) if msg.contains("opcode")
        ));
        // The same session still answers real requests afterwards.
        let ping = ncq_core::remote::encode_request(&EngineRequest::Ping);
        write_frame(&mut stream, &ping, DEFAULT_FRAME_CAP).unwrap();
        let reply = ncq_core::remote::read_frame(&mut reader, DEFAULT_FRAME_CAP).unwrap();
        assert_eq!(
            ncq_core::remote::decode_response(&reply).unwrap(),
            EngineResponse::Pong
        );
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_sessions_without_hanging() {
        let db = Arc::new(Database::from_xml_str(FIG).unwrap());
        let engine = RemoteEngine::bind(
            "127.0.0.1:0",
            Arc::clone(&db) as Arc<dyn MeetBackend>,
            EngineConfig::default(),
        )
        .unwrap();
        // An idle session blocked in read: shutdown must unblock it.
        let _idle = TcpStream::connect(engine.local_addr()).unwrap();
        let started = Instant::now();
        engine.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
