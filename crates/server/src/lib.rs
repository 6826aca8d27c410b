//! # ncq-server — concurrent query service
//!
//! The paper closes by positioning the meet operator as "a sensible and
//! valuable add-on to an already existing search engine"; the ROADMAP
//! north star is a service shape — heavy traffic, many concurrent
//! clients. This crate is that server loop around
//! [`ncq_core::Database`]:
//!
//! * **the caller evaluates**: there is no worker pool; a request is
//!   evaluated on the thread that makes it (a TCP session thread, or
//!   the in-process caller) over an `Arc<Database>` that is immutable
//!   after load, so callers share it without locks;
//! * **bounded admission**: at most [`ServerConfig::max_in_flight`]
//!   requests evaluate at once. [`Client::request`] waits for a free
//!   slot (back-pressure), [`Client::try_request`] refuses instead
//!   ([`ServerError::Saturated`]) — the admission policy of a service
//!   that would rather shed than stall;
//! * **one request, one evaluation, one answer**: repeated terms share
//!   full-text posting decodes through one shared term cache, repeated
//!   queries meet in the shared result cache;
//! * a **blocking client handle** ([`Client`]) plus a **line protocol**
//!   ([`protocol`]) used by the integration tests and examples;
//! * a **TCP acceptor** ([`net::TcpAcceptor`]): thread-per-connection
//!   `serve_lines` sessions over `std::net::TcpListener` with a hard
//!   connection cap (over-cap connections get one in-band `ERR` line);
//! * an **engine transport** ([`remote::RemoteEngine`]): the serving
//!   side of `ncq-core`'s framed replica protocol — a coordinator's
//!   `RemoteBackend` fails over between several of these, and answers
//!   stay byte-identical to in-process execution;
//! * **backend dispatch**: the service holds an `Arc<dyn MeetBackend>`,
//!   so the same code serves the single-process [`ncq_core::Database`],
//!   a replica-backed [`ncq_core::RemoteBackend`], or a multi-corpus
//!   [`ncq_core::ForestBackend`] ([`Server::start_backend`]);
//! * **forest serving**: [`Server::open_manifest`] boots a catalog of
//!   named corpora from a manifest file; requests route per corpus
//!   (`USE` / `CORPORA` verbs, per-request `corpus` fields), stats
//!   count per corpus, and `SNAPSHOT LOAD <file> INTO <corpus>`
//!   hot-swaps one corpus while sharing every other corpus's engine
//!   with the requests in flight.
//!
//! ```
//! use ncq_core::Database;
//! use ncq_server::{Request, Response, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::from_xml_str(
//!     "<bib><article><author>Ben Bit</author><year>1999</year></article></bib>",
//! ).unwrap());
//! let server = Server::start(db, ServerConfig::default());
//! let client = server.client();
//! let response = client.request(Request::meet_terms(["Bit", "1999"])).unwrap();
//! match response {
//!     Response::Answers(a) => assert_eq!(a.tags(), vec!["article"]),
//!     other => panic!("unexpected {other:?}"),
//! }
//! server.shutdown();
//! ```

mod listener;
pub mod net;
pub mod protocol;
pub mod remote;
pub mod server;

pub use net::{NetConfig, TcpAcceptor};
pub use protocol::serve_lines;
pub use remote::{EngineConfig, RemoteEngine};
pub use server::{
    Client, Request, Response, Server, ServerConfig, ServerError, ServerStats, SnapshotPathError,
    ALL_CORPORA,
};
