//! # tensordash-server
//!
//! Service infrastructure for running the TensorDash simulator as a
//! long-lived, concurrent process — built on `std` alone, because the
//! workspace builds offline (no `tokio`, no `hyper`; see
//! `crates/shims/`).
//!
//! Three pieces, deliberately free of any simulator knowledge so the
//! transport can be reused (and tested) in isolation:
//!
//! * [`http`] — a bounded HTTP/1.1 subset: request parsing with hard
//!   limits, response writing, and the minimal client the load generator
//!   and end-to-end tests drive the service with;
//! * [`jobs`] — a bounded, generic [`JobQueue`]: back-pressure at
//!   capacity, FIFO worker claiming, queryable job lifecycle, a timed
//!   wait for a job's terminal state, graceful drain on shutdown;
//! * [`server`] — the thread-pool [`Server`]: a blocking
//!   accept loop feeding connection-handler threads, shutting down
//!   cooperatively on an in-process flag, `SIGTERM`, or an idle timeout;
//! * [`retry`] — the client-side [`RetryPolicy`]: jittered exponential
//!   backoff, budget-capped, honoring `Retry-After` on 429/503;
//! * [`fault`] — the seeded [`FaultPlan`] chaos harness: deterministic
//!   fault injection for proving the above actually holds under
//!   resets, panics, and flaky I/O.
//!
//! The TensorDash-specific routes (`POST /v1/experiments`,
//! `GET /v1/jobs/<id>`, `/healthz`, `/metrics`) live in
//! `tensordash_bench::service`, which wires an
//! `ExperimentSpec`-per-request job queue and the process-wide trace
//! cache into a [`Handler`] — this crate is below the
//! experiment layer in the dependency graph, not above it.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tensordash_server::http::{client_request, Request, Response};
//! use tensordash_server::server::{Handler, Server, ServerConfig};
//!
//! struct Pong;
//! impl Handler for Pong {
//!     fn handle(&self, req: &Request) -> Response {
//!         Response::json(200, format!("{{\"pong\": \"{}\"}}", req.path))
//!     }
//! }
//!
//! let server = Server::bind(ServerConfig::default(), Arc::new(Pong)).unwrap();
//! let addr = server.local_addr();
//! let flag = server.shutdown_flag();
//! let running = std::thread::spawn(move || server.run());
//! let (status, body) =
//!     client_request(addr, "GET", "/ping", None, Duration::from_secs(5)).unwrap();
//! assert_eq!((status, body.as_str()), (200, "{\"pong\": \"/ping\"}"));
//! flag.request();
//! running.join().unwrap().unwrap();
//! ```

#![deny(missing_docs)]

pub mod fault;
pub mod http;
pub mod jobs;
pub mod retry;
pub mod server;

pub use fault::{Fault, FaultPlan, FaultSite};
pub use http::{client_exchange, client_request, ClientResponse, Request, Response};
pub use jobs::{
    JobFailure, JobId, JobQueue, JobState, QueueStats, SubmitError, DEFAULT_FINISHED_RETENTION,
};
pub use retry::{client_request_with_retry, Attempt, RetryPolicy};
pub use server::{Handler, Server, ServerConfig, ServerFaultStats, ShutdownFlag};
