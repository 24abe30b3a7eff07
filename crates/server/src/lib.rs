//! `lcs_server` — a dependency-free HTTP/1.1 + JSON daemon that serves
//! low-congestion-shortcut sessions over `std::net`.
//!
//! The serve-many economics of [`ShortcutSession`] — prepare a shortcut
//! once, answer many ops against it — only pay off if the session outlives
//! a single process invocation of a CLI. This daemon keeps sessions warm:
//! each `(graph, partition, backend, config)` spec maps to one long-lived
//! session behind a capacity-bounded LRU, and live sessions over one
//! graph source share one graph, freed with the last of them. Re-POSTing
//! a spec hits the warm session; ops reuse its cached artifacts and bill
//! only the op rounds.
//!
//! # Architecture
//!
//! * **Sockets** — one [`std::net::TcpListener`], cloned into a fixed pool
//!   of worker threads that each block in `accept`. No async runtime, no
//!   dependencies beyond the vendored serde shims.
//! * **Framing** — [`http`] implements just enough HTTP/1.1 for a JSON
//!   API: `Content-Length` bodies, keep-alive, capped heads and bodies,
//!   per-connection read/write timeouts.
//! * **State** — [`state`] holds the warm-session LRU; see its module
//!   docs for the ownership and locking model (graphs shared by `Arc`
//!   between the sessions over them, two-level mutexes, poison-tolerant
//!   locking) and for where a session spec is checked (the session
//!   builder, once).
//! * **Dispatch** — [`api`] routes requests and hand-renders the op
//!   reports to JSON over the vendored [`serde`] `Value` tree.
//! * **Errors** — [`error::ApiError`] maps every handler failure to a
//!   structured `{error, message, status}` body: 400 malformed JSON, 404
//!   unknown session, 409 invalid mutation, 413 oversized body, 422 bad
//!   op arguments. Handlers run behind a `catch_unwind` fence, so one bad
//!   request can never kill a worker: a panic is counted in
//!   [`metrics::Metrics::worker_panics`], answered with a 500, and the
//!   worker keeps serving.
//! * **Shutdown** — `POST /shutdown` (or [`ServerHandle::shutdown`]) sets
//!   a flag and pokes each worker with a dummy connection so blocked
//!   `accept` calls return; workers drain their current connection and
//!   exit.
//!
//! # Quick start
//!
//! ```no_run
//! use lcs_server::{Server, ServerConfig};
//! use serde::Value;
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! let mut client = lcs_server::client::Client::new(handle.addr());
//! let spec = Value::object([(
//!     "graph",
//!     Value::object([
//!         ("kind", Value::Str("grid".into())),
//!         ("rows", Value::U64(8)),
//!         ("cols", Value::U64(8)),
//!     ]),
//! )]);
//! let created = client.post("/sessions", &spec).unwrap();
//! assert_eq!(created.status, 200);
//! handle.shutdown();
//! ```
//!
//! [`ShortcutSession`]: lcs_core::session::ShortcutSession

pub mod api;
pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod metrics;
pub mod state;

pub use error::ApiError;
pub use state::{AppState, Registry, RegistryStats, ServerConfig, SessionEntry, SessionSpec};

use crate::http::ReadError;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The daemon entry point.
pub struct Server;

/// A running server: its bound address, shared state, and worker threads.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let state = Arc::new(AppState::new(config));
        *state.addr.lock().unwrap_or_else(PoisonError::into_inner) = Some(addr);
        let handles = (0..workers)
            .map(|i| {
                let listener = listener.try_clone()?;
                let state = Arc::clone(&state);
                Ok(std::thread::Builder::new()
                    .name(format!("lcs-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &state))
                    .expect("spawning a worker thread"))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ServerHandle {
            addr,
            state,
            workers: handles,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics and registry introspection).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Signals shutdown, wakes the workers, and joins them.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        wake_workers(self.addr, self.workers.len());
        self.state.close_connections();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Blocks until the workers exit (e.g. after `POST /shutdown`).
    pub fn wait(self) {
        // A /shutdown handler cannot wake the other workers from inside a
        // request, so the waiter polls the flag and does the waking.
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        wake_workers(self.addr, self.workers.len());
        self.state.close_connections();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Unblocks workers stuck in `accept` with throwaway connections.
fn wake_workers(addr: SocketAddr, n: usize) {
    for _ in 0..n {
        if let Ok(stream) = TcpStream::connect(addr) {
            drop(stream);
        }
    }
}

fn worker_loop(listener: &TcpListener, state: &Arc<AppState>) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        serve_connection(stream, state);
    }
}

/// Serves one keep-alive connection until close, error, or shutdown.
fn serve_connection(stream: TcpStream, state: &Arc<AppState>) {
    // Registered so shutdown can force-close this connection while the
    // worker is blocked reading the next keep-alive request.
    let slot = state.register_connection(&stream);
    serve_requests(stream, state);
    state.unregister_connection(slot);
}

fn serve_requests(mut stream: TcpStream, state: &Arc<AppState>) {
    let timeout = state.config.io_timeout;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let request = match http::read_request(&mut stream, state.config.max_body) {
            Ok(r) => r,
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(m)) => {
                let err = ApiError::bad_request(format!("malformed request: {m}"));
                let body = json::render(&err.to_body());
                state.metrics.record(err.status, 0);
                let _ = http::write_response(&mut stream, err.status, &body, false);
                return;
            }
            Err(ReadError::TooLarge(limit)) => {
                // The body was never read, so the framing is gone — answer
                // and close.
                let err = ApiError::too_large(limit);
                let body = json::render(&err.to_body());
                state.metrics.record(err.status, 0);
                let _ = http::write_response(&mut stream, err.status, &body, false);
                return;
            }
        };

        let start = Instant::now();
        // The unwind fence is the no-dead-workers guarantee: a panicking
        // handler yields a 500 and this thread keeps serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            api::handle(state, &request.method, &request.path, &request.body)
        }));
        let (status, body) = outcome.unwrap_or_else(|_| {
            state.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            let err = ApiError::internal_panic();
            (err.status, json::render(&err.to_body()))
        });
        let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        state.metrics.record(status, micros);

        let keep_alive = request.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        if http::write_response(&mut stream, status, &body, keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}
