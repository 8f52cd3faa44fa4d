//! The resident simulation service: `tensordash serve`.
//!
//! Wires the experiment layer into `tensordash-server`'s generic
//! transport: every `POST /v1/experiments` body is one [`ExperimentSpec`]
//! (the same document `--config` runs), admitted into a bounded job
//! queue, executed by a pool of simulation workers against **one
//! process-wide [`TraceCache`]** — so repeat geometry sweeps from any
//! client hit warm traces — and published as a JSON report that is
//! byte-identical to what a direct [`Simulator`](tensordash_sim::Simulator)
//! run (or the one-shot CLI) produces.
//!
//! Request lifecycle (see `docs/ARCHITECTURE.md` for the full diagram):
//!
//! ```text
//! accept → route → parse spec → queue (bounded, 429 at capacity)
//!        → worker claims → trace-cache lookup → simulate_batch
//!        → report JSON stored → the parked GET /v1/jobs/<id>/report
//!          wakes and answers 200
//! ```
//!
//! Routes:
//!
//! | Route                     | Meaning                                    |
//! |---------------------------|--------------------------------------------|
//! | `POST /v1/experiments`    | submit a spec; `202` + job id, `429` full  |
//! | `POST /v1/traces`         | upload a trace artifact (v1 JSON or v2     |
//! |                           | binary, plain or chunked); `201` + digest, |
//! |                           | `409` on `?digest=` mismatch               |
//! | `GET /v1/jobs/<id>`       | lifecycle envelope (`queued`/`running`/...)|
//! |                           | at once                                    |
//! | `GET /v1/jobs/<id>/report`| the raw report; on a pending job it waits  |
//! |                           | up to 5 s for the job to finish, then      |
//! |                           | `200`, `500`, `504` (timed out) or `202`   |
//! |                           | (still pending); over the cap of half the  |
//! |                           | connection threads it answers at once      |
//! | `GET /v1/traces/<digest>` | stored artifact bytes, digest-verified;    |
//! |                           | `410` when the object rotted (quarantined) |
//! | `GET /healthz`            | liveness                                   |
//! | `GET /metrics`            | jobs, parked report polls, cache, store,   |
//! |                           | model walls                                |
//! | `POST /v1/shutdown`       | graceful shutdown (as `SIGTERM` / idle)    |
//!
//! **Trust model.** Trace sources resolve through
//! [`SourceContext::service`]: a `stored` digest is served from the
//! content-addressed [`TraceStore`] under `--trace-dir`, and a
//! `recorded` path resolves *inside* that directory only — traversal
//! out of it (`../`, absolute paths, symlink escapes) is a `400`, and
//! without `--trace-dir` both source kinds are rejected outright, so a
//! request can never make the server read a file the operator did not
//! place (or a client did not upload) under the trace root. Like
//! `/v1/shutdown`, uploads assume the operator's own clients: the
//! service binds loopback by default and has no authentication layer;
//! don't expose it to untrusted networks.

use crate::experiment::{ExperimentError, ExperimentSpec, SourceContext};
use crate::harness::TraceCache;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tensordash_serde::{json, Serialize, Value};
use tensordash_server::fault::{Fault, FaultPlan, FaultSite};
use tensordash_server::http::{Request, Response};
use tensordash_server::jobs::{JobFailure, JobId, JobQueue, JobState};
use tensordash_server::server::{Handler, Server, ServerConfig, ServerFaultStats, ShutdownFlag};
use tensordash_sim::CancelToken;
use tensordash_store::{StoreError, StoreOp, TraceStore};

/// How `tensordash serve` should run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub addr: SocketAddr,
    /// Simulation worker threads (jobs executing concurrently).
    pub workers: usize,
    /// Trace-cache capacity in builds (`--cache-cap`).
    pub cache_capacity: usize,
    /// Pending-job queue capacity (`--queue-cap`); submissions beyond it
    /// get `429` back-pressure.
    pub queue_capacity: usize,
    /// Connection-handler threads of the HTTP layer. At most half of them
    /// hold report GETs that wait on a pending job.
    pub connection_threads: usize,
    /// Shut down after this long with no requests and no running jobs.
    pub idle_shutdown: Option<Duration>,
    /// Root of the content-addressed trace store (`--trace-dir`).
    /// `None` disables uploads and rejects recorded/stored sources.
    pub trace_dir: Option<PathBuf>,
    /// Request-body cap in bytes (`--max-body-bytes`) — bounds both spec
    /// submissions and trace uploads, plain or chunked.
    pub max_body_bytes: usize,
    /// Default wall-clock deadline for every job
    /// (`--job-deadline-secs`); a request can tighten it with
    /// `?deadline_secs=`. A job past its deadline is cancelled at the
    /// next (layer, op) boundary and lands in the `timed_out` terminal
    /// state. `None` means jobs run unbounded.
    pub job_deadline: Option<Duration>,
    /// Seed the deterministic chaos plan (`--fault-seed`): injects
    /// handler panics/delays, dropped connections, and store I/O errors
    /// on a reproducible schedule. `None` (production) injects nothing.
    pub fault_seed: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: std::thread::available_parallelism()
                .map_or(2, usize::from)
                .min(4),
            cache_capacity: crate::harness::DEFAULT_CACHE_CAPACITY,
            queue_capacity: 256,
            connection_threads: 8,
            idle_shutdown: None,
            trace_dir: None,
            max_body_bytes: tensordash_server::http::DEFAULT_MAX_BODY_BYTES,
            job_deadline: None,
            fault_seed: None,
        }
    }
}

/// How long `GET /v1/jobs/<id>/report` on a queued or running job waits
/// for the job to finish before it answers `202`. A few seconds: long
/// enough for any service-shaped job, well inside the 30 s and 60 s
/// socket timeouts of the in-repo clients.
const REPORT_WAIT: Duration = Duration::from_secs(5);

/// Report polls parked on the job queue. At most `cap` (half the
/// connection threads) park at once, so submits, uploads and `/healthz`
/// always find a free handler; a poll over the cap answers at once.
struct ReportWaits {
    cap: usize,
    /// Polls parked now.
    parked: AtomicUsize,
    /// Polls that ever parked (lifetime total).
    waits: AtomicU64,
    /// Time spent parked, summed over `waits`.
    wait_nanos: AtomicU64,
    /// Polls answered at once because `cap` polls were parked.
    over_cap: AtomicU64,
}

impl ReportWaits {
    fn new(connection_threads: usize) -> Self {
        ReportWaits {
            cap: connection_threads / 2,
            parked: AtomicUsize::new(0),
            waits: AtomicU64::new(0),
            wait_nanos: AtomicU64::new(0),
            over_cap: AtomicU64::new(0),
        }
    }

    /// Claims a parking slot, or counts the poll as over the cap.
    fn park(&self) -> Option<ParkedPoll<'_>> {
        let claimed = self
            .parked
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .is_ok();
        if !claimed {
            self.over_cap.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        Some(ParkedPoll {
            waits: self,
            since: Instant::now(),
        })
    }

    fn document(&self) -> Value {
        Value::Table(vec![
            (
                "parked".into(),
                self.parked.load(Ordering::SeqCst).serialize(),
            ),
            (
                "waits".into(),
                self.waits.load(Ordering::Relaxed).serialize(),
            ),
            (
                "wait_seconds_total".into(),
                Value::Float(
                    Duration::from_nanos(self.wait_nanos.load(Ordering::Relaxed)).as_secs_f64(),
                ),
            ),
            (
                "over_cap".into(),
                self.over_cap.load(Ordering::Relaxed).serialize(),
            ),
        ])
    }
}

/// A claimed parking slot. Dropping it, on return or unwind alike, frees
/// the slot and books the time parked.
struct ParkedPoll<'a> {
    waits: &'a ReportWaits,
    since: Instant,
}

impl Drop for ParkedPoll<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.waits.wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.waits.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Everything a request handler or worker needs, shared via `Arc`.
struct ServiceState {
    /// Finished reports are held behind `Arc` so status polls clone a
    /// pointer, not the report bytes, under the queue lock. They are
    /// `Arc<str>`, sized to the report: the queue retains up to
    /// `DEFAULT_FINISHED_RETENTION` of them, and a `String`'s growth
    /// slack would ride along with each. Each job carries its effective
    /// deadline (config default, possibly tightened per request).
    queue: JobQueue<(ExperimentSpec, Option<Duration>), Arc<str>>,
    cache: TraceCache,
    /// The content-addressed trace store (`--trace-dir`), shared by
    /// uploads and replays across requests and restarts.
    store: Option<Arc<TraceStore>>,
    shutdown: OnceLock<Arc<ShutdownFlag>>,
    /// Per-model `(evaluations, wall seconds)` — the `/metrics` rows.
    model_walls: Mutex<HashMap<String, (u64, f64)>>,
    /// The default job deadline (`--job-deadline-secs`).
    job_deadline: Option<Duration>,
    /// Report polls parked on the queue, and their cap.
    report_waits: ReportWaits,
    /// The chaos plan, when the service runs with `--fault-seed`.
    faults: Option<Arc<FaultPlan>>,
    /// The transport's panic/drain counters, set once at bind.
    server_faults: OnceLock<Arc<ServerFaultStats>>,
    /// Simulation workers that died instead of draining cleanly.
    dead_sim_workers: AtomicU64,
    started: Instant,
}

impl ServiceState {
    /// The trust rules every request resolves sources under.
    fn source_context(&self) -> SourceContext<'_> {
        SourceContext::service(self.store.as_deref())
    }

    /// Runs one admitted experiment; the `Ok` string is the final report
    /// JSON, byte-identical to `tensordash --config`'s output for the
    /// same spec — both run [`ExperimentSpec::run_in`], whatever the
    /// trace source (calibrated zoo profiles, a recorded artifact under
    /// `--trace-dir`, or a stored digest). A job that outlives
    /// `deadline` is cancelled at the next (layer, op) boundary and
    /// lands in the `timed_out` terminal state — the shared trace cache
    /// is never poisoned, because cancellation only abandons simulation
    /// work, never a partial trace build.
    fn run_experiment(
        &self,
        spec: &ExperimentSpec,
        deadline: Option<Duration>,
    ) -> Result<Arc<str>, JobFailure> {
        let cancel = match deadline {
            Some(deadline) => CancelToken::after(deadline),
            None => CancelToken::unbounded(),
        };
        let reports = spec
            .run_in(
                &self.cache,
                &self.source_context().with_cancel(cancel),
                &mut |label, elapsed| {
                    let mut walls = self.model_walls.lock().expect("model walls poisoned");
                    let entry = walls.entry(label.to_string()).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += elapsed;
                },
            )
            .map_err(|e| match e {
                ExperimentError::DeadlineExceeded => JobFailure::TimedOut(format!(
                    "job exceeded its {:.3}s deadline",
                    deadline.unwrap_or_default().as_secs_f64()
                )),
                other => JobFailure::Error(other.to_string()),
            })?;
        Ok(Arc::from(json::write(&spec.report_document(&reports))))
    }

    fn metrics_document(&self) -> Value {
        let jobs = self.queue.stats();
        let cache = self.cache.counters();
        let mut models: Vec<(String, (u64, f64))> = self
            .model_walls
            .lock()
            .expect("model walls poisoned")
            .iter()
            .map(|(name, stats)| (name.clone(), *stats))
            .collect();
        models.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Table(vec![
            (
                "uptime_seconds".into(),
                Value::Float(self.started.elapsed().as_secs_f64()),
            ),
            (
                "jobs".into(),
                Value::Table(vec![
                    ("queued".into(), jobs.queued.serialize()),
                    ("running".into(), jobs.running.serialize()),
                    ("done".into(), jobs.done.serialize()),
                    ("failed".into(), jobs.failed.serialize()),
                    ("timed_out".into(), jobs.timed_out.serialize()),
                    ("panicked".into(), jobs.panicked.serialize()),
                    ("rejected".into(), jobs.rejected.serialize()),
                ]),
            ),
            ("reports".into(), self.report_waits.document()),
            (
                "faults".into(),
                Value::Table(vec![
                    (
                        "injected".into(),
                        self.faults
                            .as_ref()
                            .map_or(0, |plan| plan.injected())
                            .serialize(),
                    ),
                    (
                        "handler_panics".into(),
                        self.server_faults
                            .get()
                            .map_or(0, |f| f.handler_panics())
                            .serialize(),
                    ),
                    (
                        "dead_workers".into(),
                        self.server_faults
                            .get()
                            .map_or(0, |f| f.dead_workers())
                            .serialize(),
                    ),
                    (
                        "dead_sim_workers".into(),
                        self.dead_sim_workers.load(Ordering::Relaxed).serialize(),
                    ),
                ]),
            ),
            (
                "cache".into(),
                Value::Table(vec![
                    ("entries".into(), self.cache.len().serialize()),
                    ("capacity".into(), self.cache.capacity().serialize()),
                    ("hits".into(), cache.hits.serialize()),
                    ("misses".into(), cache.misses.serialize()),
                    ("evictions".into(), cache.evictions.serialize()),
                ]),
            ),
            (
                "store".into(),
                match &self.store {
                    None => Value::Table(vec![("configured".into(), Value::Bool(false))]),
                    Some(store) => {
                        let stats = store.stats();
                        Value::Table(vec![
                            ("configured".into(), Value::Bool(true)),
                            ("objects".into(), stats.objects.serialize()),
                            ("bytes".into(), stats.bytes.serialize()),
                            ("uploads".into(), stats.uploads.serialize()),
                            ("dedup_hits".into(), stats.dedup_hits.serialize()),
                            ("gc_removed".into(), stats.gc_removed.serialize()),
                            ("quarantined".into(), stats.quarantined.serialize()),
                            ("pinned".into(), stats.pinned.serialize()),
                        ])
                    }
                },
            ),
            (
                "models".into(),
                Value::Table(
                    models
                        .into_iter()
                        .map(|(name, (evals, wall))| {
                            (
                                name,
                                Value::Table(vec![
                                    ("evaluations".into(), evals.serialize()),
                                    ("wall_seconds_total".into(), Value::Float(wall)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn envelope(entries: Vec<(&str, Value)>) -> Response {
    let doc = Value::Table(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    Response::json(200, json::write_compact(&doc))
}

fn error_json(status: u16, message: &str) -> Response {
    let doc = Value::Table(vec![("error".to_string(), Value::Str(message.to_string()))]);
    Response::json(status, json::write_compact(&doc))
}

impl Handler for ServiceState {
    fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => envelope(vec![
                ("status", Value::Str("ok".into())),
                (
                    "uptime_seconds",
                    Value::Float(self.started.elapsed().as_secs_f64()),
                ),
            ]),
            ("GET", "/metrics") => Response::json(200, json::write(&self.metrics_document())),
            ("POST", "/v1/experiments") => self.submit(req),
            ("POST", "/v1/traces") => self.upload_trace(req),
            ("POST", "/v1/shutdown") => {
                if let Some(flag) = self.shutdown.get() {
                    flag.request();
                }
                let mut resp = envelope(vec![("status", Value::Str("shutting down".into()))]);
                resp.status = 200;
                resp
            }
            ("GET", path) if path.starts_with("/v1/jobs/") => self.job_status(path),
            ("GET", path) if path.starts_with("/v1/traces/") => self.download_trace(path),
            (_, "/healthz" | "/metrics" | "/v1/experiments" | "/v1/traces" | "/v1/shutdown") => {
                error_json(405, "method not allowed")
            }
            _ => error_json(404, "no such route"),
        }
    }

    fn is_idle(&self) -> bool {
        self.queue.stats().is_idle()
    }
}

impl ServiceState {
    fn submit(&self, req: &Request) -> Response {
        let body = match req.body_utf8() {
            Ok(body) => body,
            Err(message) => return error_json(400, &message),
        };
        let spec: ExperimentSpec = match tensordash_serde::from_json_str(body) {
            Ok(spec) => spec,
            Err(e) => return error_json(400, &format!("invalid experiment spec: {e}")),
        };
        // Validate up front, under the service trust rules: an unknown
        // model, a missing artifact or store object, a path escaping
        // --trace-dir, or a recorded-source/models conflict is the
        // client's mistake and should not consume a queue slot before
        // failing.
        if let Err(e) = spec.validate_in(&self.source_context()) {
            return error_json(400, &e.to_string());
        }
        // `?deadline_secs=` tightens (never loosens past) the service
        // default: the effective deadline is the smaller of the two.
        let deadline = match req.query_value("deadline_secs") {
            None => self.job_deadline,
            Some(text) => match text.parse::<f64>() {
                Ok(secs) if secs.is_finite() && secs > 0.0 => {
                    let requested = Duration::from_secs_f64(secs);
                    Some(self.job_deadline.map_or(requested, |d| d.min(requested)))
                }
                _ => {
                    return error_json(
                        400,
                        &format!("invalid deadline_secs `{text}`: need a positive number"),
                    );
                }
            },
        };
        match self.queue.submit((spec, deadline)) {
            Ok(id) => {
                let mut resp = envelope(vec![
                    ("job", Value::Int(id.0 as i64)),
                    ("status", Value::Str("queued".into())),
                    ("status_url", Value::Str(format!("/v1/jobs/{id}"))),
                    ("report_url", Value::Str(format!("/v1/jobs/{id}/report"))),
                ]);
                resp.status = 202;
                resp
            }
            // Back-pressure is retryable by contract: both rejections
            // carry a Retry-After hint the client retry policy honors.
            Err(e @ tensordash_server::jobs::SubmitError::QueueFull { .. }) => {
                error_json(429, &e.to_string()).with_header("retry-after", "1")
            }
            Err(e) => error_json(503, &e.to_string()).with_header("retry-after", "1"),
        }
    }

    /// `GET /v1/traces/<digest>`: serve a stored artifact's canonical
    /// bytes, digest-verified on the way out. A `404` means no such
    /// object; a `410` means the object rotted on disk and was just
    /// quarantined — it is gone, and re-uploading is the remedy.
    fn download_trace(&self, path: &str) -> Response {
        let Some(store) = &self.store else {
            return error_json(
                503,
                "no trace store configured (start the service with --trace-dir)",
            );
        };
        let text = &path["/v1/traces/".len()..];
        let Some(digest) = tensordash_store::parse_digest(text) else {
            return error_json(400, &format!("invalid digest `{text}`"));
        };
        match store.load_bytes(digest) {
            Ok(bytes) => Response::binary(200, bytes),
            Err(e @ StoreError::Missing(_)) => error_json(404, &e.to_string()),
            Err(e @ StoreError::Corrupt(_)) => error_json(410, &e.to_string()),
            Err(e) => error_json(500, &e.to_string()),
        }
    }

    /// `POST /v1/traces`: ingest a trace artifact (v1 JSON or v2 binary;
    /// the transport may be plain or chunked) into the content-addressed
    /// store. An optional `?digest=<hex>` query is the client's claim of
    /// the content digest, verified **before** anything is committed —
    /// a mismatch (truncated transfer, wrong file) is a `409` naming
    /// both digests. Success is `201` with the digest a `stored` spec
    /// can submit immediately; identical re-uploads dedupe to the
    /// existing object and say so.
    fn upload_trace(&self, req: &Request) -> Response {
        let Some(store) = &self.store else {
            return error_json(
                503,
                "no trace store configured (start the service with --trace-dir)",
            );
        };
        if req.body.is_empty() {
            return error_json(400, "empty upload: send a trace artifact as the body");
        }
        let expected = match req.query_value("digest") {
            None => None,
            Some(text) => match tensordash_store::parse_digest(text) {
                Some(digest) => Some(digest),
                None => {
                    return error_json(400, &format!("invalid digest query `{text}`"));
                }
            },
        };
        match store.insert_bytes(&req.body, expected) {
            Ok(outcome) => {
                let mut resp = envelope(vec![
                    ("digest", Value::Str(format!("{:016x}", outcome.digest))),
                    ("bytes", outcome.bytes.serialize()),
                    ("deduplicated", Value::Bool(outcome.deduplicated)),
                ]);
                resp.status = 201;
                resp
            }
            Err(e @ StoreError::DigestMismatch { .. }) => error_json(409, &e.to_string()),
            Err(e @ StoreError::Corrupt(_)) => error_json(400, &e.to_string()),
            Err(e) => error_json(500, &e.to_string()),
        }
    }

    /// Parks a report poll on a queued or running job until the job
    /// finishes or [`REPORT_WAIT`] passes, and returns its state then.
    /// Over the parking cap it returns `pending` at once. No shutdown
    /// wake is needed: `Service::run` drains every admitted job before it
    /// exits, so a parked poll never outlives its own job.
    fn await_report(&self, id: JobId, pending: JobState<Arc<str>>) -> Option<JobState<Arc<str>>> {
        let Some(_parked) = self.report_waits.park() else {
            return Some(pending);
        };
        self.queue.wait(id, REPORT_WAIT)
    }

    fn job_status(&self, path: &str) -> Response {
        let rest = &path["/v1/jobs/".len()..];
        let (id_text, want_report) = match rest.strip_suffix("/report") {
            Some(id) => (id, true),
            None => (rest, false),
        };
        let Ok(id) = id_text.parse::<u64>() else {
            return error_json(404, &format!("malformed job id `{id_text}`"));
        };
        let state = match self.queue.status(JobId(id)) {
            Some(pending @ (JobState::Queued | JobState::Running)) if want_report => {
                self.await_report(JobId(id), pending)
            }
            state => state,
        };
        let Some(state) = state else {
            return error_json(404, &format!("no job {id}"));
        };
        if want_report {
            return match state {
                JobState::Done(report) => Response::json(200, &*report),
                JobState::Failed(message) => error_json(500, &message),
                JobState::TimedOut(message) => error_json(504, &message),
                pending => {
                    let mut resp = envelope(vec![
                        ("job", Value::Int(id as i64)),
                        ("status", Value::Str(pending.name().into())),
                    ]);
                    resp.status = 202;
                    resp
                }
            };
        }
        let mut entries = vec![
            ("job", Value::Int(id as i64)),
            ("status", Value::Str(state.name().into())),
        ];
        if let JobState::Failed(message) | JobState::TimedOut(message) = &state {
            entries.push(("error", Value::Str(message.clone())));
        }
        if matches!(state, JobState::Done(_)) {
            entries.push(("report_url", Value::Str(format!("/v1/jobs/{id}/report"))));
        }
        envelope(entries)
    }
}

/// A bound-but-not-yet-serving service.
pub struct Service {
    server: Server,
    state: Arc<ServiceState>,
    workers: usize,
}

impl Service {
    /// Binds the listener, opens **and scrubs** the trace store (when
    /// `--trace-dir` is set) — crash litter is reclaimed and corrupt
    /// objects are quarantined before the first request is served —
    /// builds the shared state (queue + process-wide trace cache), wires
    /// the chaos plan (when `--fault-seed` is set) into both the
    /// transport and the store, and prepares `config.workers` simulation
    /// workers.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or the I/O error when the trace store
    /// directories cannot be created or scrubbed.
    pub fn bind(config: &ServiceConfig) -> io::Result<Service> {
        let faults = config
            .fault_seed
            .map(|seed| Arc::new(FaultPlan::seeded(seed)));
        let store = config
            .trace_dir
            .as_ref()
            .map(|dir| {
                let (store, scrub) = TraceStore::open_scrubbed(dir)?;
                if scrub.removed_tmp > 0 || scrub.quarantined > 0 {
                    eprintln!(
                        "tensordash-serve: store scrub removed {} tmp file(s), \
                         verified {} object(s), quarantined {}",
                        scrub.removed_tmp, scrub.verified, scrub.quarantined
                    );
                }
                if let Some(plan) = &faults {
                    let plan = Arc::clone(plan);
                    store.set_fault_hook(Some(Arc::new(move |op| {
                        let site = match op {
                            StoreOp::Read => FaultSite::StoreRead,
                            StoreOp::Write => FaultSite::StoreWrite,
                        };
                        match plan.decide(site) {
                            Fault::Error => Some(io::Error::other("injected store fault")),
                            _ => None,
                        }
                    })));
                }
                Ok::<_, io::Error>(Arc::new(store))
            })
            .transpose()?;
        let state = Arc::new(ServiceState {
            queue: JobQueue::bounded(config.queue_capacity.max(1)),
            cache: TraceCache::with_capacity(config.cache_capacity.max(1)),
            store,
            shutdown: OnceLock::new(),
            model_walls: Mutex::new(HashMap::new()),
            job_deadline: config.job_deadline,
            report_waits: ReportWaits::new(config.connection_threads.max(1)),
            faults: faults.clone(),
            server_faults: OnceLock::new(),
            dead_sim_workers: AtomicU64::new(0),
            started: Instant::now(),
        });
        let server = Server::bind(
            ServerConfig {
                addr: config.addr,
                connection_threads: config.connection_threads.max(1),
                max_body_bytes: config.max_body_bytes.max(1),
                idle_shutdown: config.idle_shutdown,
                faults,
                ..ServerConfig::default()
            },
            Arc::clone(&state) as Arc<dyn Handler>,
        )?;
        state
            .shutdown
            .set(server.shutdown_flag())
            .unwrap_or_else(|_| unreachable!("state is fresh"));
        state
            .server_faults
            .set(server.fault_stats())
            .unwrap_or_else(|_| unreachable!("state is fresh"));
        Ok(Service {
            server,
            state,
            workers: config.workers.max(1),
        })
    }

    /// The actually-bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The flag that triggers a graceful shutdown from outside.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<ShutdownFlag> {
        self.server.shutdown_flag()
    }

    /// Serves until shutdown (flag, `SIGTERM`, idle timeout, or
    /// `POST /v1/shutdown`), then drains: admitted jobs finish, workers
    /// and connection threads join.
    ///
    /// # Errors
    ///
    /// Returns accept-loop I/O errors.
    pub fn run(self) -> io::Result<()> {
        let worker_handles: Vec<_> = (0..self.workers)
            .map(|_| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || {
                    let queue = state.queue.clone();
                    queue.run_worker(|_, (spec, deadline)| state.run_experiment(&spec, deadline));
                })
            })
            .collect();
        let served = self.server.run();
        // Transport is down; let workers finish what was admitted. A
        // worker that died (job panics are caught inside `run_worker`,
        // so this is a harness bug, not a bad spec) degrades the drain
        // instead of aborting it: the remaining workers still finish.
        self.state.queue.shutdown();
        for worker in worker_handles {
            if worker.join().is_err() {
                self.state.dead_sim_workers.fetch_add(1, Ordering::Relaxed);
                eprintln!("tensordash-serve: a simulation worker died; draining the rest");
            }
        }
        served
    }

    /// Runs the service on a background thread, for tests and the
    /// in-process traffic benchmark.
    #[must_use]
    pub fn spawn(self) -> RunningService {
        let addr = self.local_addr();
        let flag = self.shutdown_flag();
        let handle = std::thread::spawn(move || self.run());
        RunningService { addr, flag, handle }
    }
}

/// A service running on a background thread.
pub struct RunningService {
    addr: SocketAddr,
    flag: Arc<ShutdownFlag>,
    handle: std::thread::JoinHandle<io::Result<()>>,
}

impl RunningService {
    /// The service's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins the server thread.
    ///
    /// # Errors
    ///
    /// Returns the server's exit error, or a description of its panic.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.flag.request();
        self.handle
            .join()
            .map_err(|_| io::Error::other("service thread panicked"))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordash_server::http::{client_exchange, client_request};

    const TIMEOUT: Duration = Duration::from_secs(30);

    /// A unique, self-cleaning test directory (no tempfile crate in the
    /// offline workspace).
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(label: &str) -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "tensordash-service-{label}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_spec_json() -> String {
        r#"{"name": "svc-unit", "models": ["AlexNet"],
            "chip": {"tiles": 1},
            "eval": {"sample": {"max_windows": 1, "max_rows": 8},
                     "progress": 0.45, "seed": 3}}"#
            .to_string()
    }

    /// AlexNet at 64 windows × 512 rows: about 0.4 s in the unoptimized
    /// test build, long enough to hold a worker while a test looks at the
    /// service, and far inside [`REPORT_WAIT`].
    fn heavy_spec_json() -> String {
        r#"{"name": "svc-heavy", "models": ["AlexNet"],
            "chip": {"tiles": 1},
            "eval": {"sample": {"max_windows": 64, "max_rows": 512},
                     "progress": 0.45, "seed": 5}}"#
            .to_string()
    }

    /// The report bytes a direct in-process run of `spec_json` writes.
    fn direct_report(spec_json: &str) -> String {
        let spec: ExperimentSpec = tensordash_serde::from_json_str(spec_json).unwrap();
        json::write(&spec.report_document(&spec.run().unwrap()))
    }

    /// Submits `spec_json` and returns the job id.
    fn submit(addr: SocketAddr, spec_json: &str) -> i64 {
        let (status, body) =
            client_request(addr, "POST", "/v1/experiments", Some(spec_json), TIMEOUT).unwrap();
        assert_eq!(status, 202, "{body}");
        json::parse(&body)
            .unwrap()
            .get("job")
            .unwrap()
            .as_int()
            .unwrap()
    }

    /// The `/metrics` `reports` table.
    fn report_metrics(addr: SocketAddr) -> Value {
        let (status, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
        assert_eq!(status, 200, "{body}");
        json::parse(&body).unwrap().get("reports").unwrap().clone()
    }

    fn count(table: &Value, key: &str) -> u64 {
        table.get(key).unwrap().as_u64().unwrap()
    }

    /// Blocks until `/metrics` shows `n` parked report polls.
    fn await_parked(addr: SocketAddr, n: u64) {
        let deadline = Instant::now() + TIMEOUT;
        while count(&report_metrics(addr), "parked") != n {
            assert!(Instant::now() < deadline, "never saw {n} parked polls");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn health_metrics_submit_poll_and_shutdown_roundtrip() {
        let service = Service::bind(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let running = service.spawn();

        let (status, body) = client_request(addr, "GET", "/healthz", None, TIMEOUT).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ok\""), "{body}");

        // Unknown routes, methods, jobs, and bodies all fail cleanly.
        let (status, _) = client_request(addr, "GET", "/nope", None, TIMEOUT).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(addr, "POST", "/healthz", None, TIMEOUT).unwrap();
        assert_eq!(status, 405);
        let (status, _) = client_request(addr, "GET", "/v1/jobs/99", None, TIMEOUT).unwrap();
        assert_eq!(status, 404);
        let (status, body) =
            client_request(addr, "POST", "/v1/experiments", Some("{nope"), TIMEOUT).unwrap();
        assert_eq!(status, 400, "{body}");
        let (status, body) = client_request(
            addr,
            "POST",
            "/v1/experiments",
            Some(r#"{"models": ["NoSuchNet"]}"#),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("NoSuchNet"), "{body}");

        // Submit, poll to completion, fetch the report.
        let (status, body) = client_request(
            addr,
            "POST",
            "/v1/experiments",
            Some(&tiny_spec_json()),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 202, "{body}");
        let submitted = json::parse(&body).unwrap();
        let id = submitted.get("job").unwrap().as_int().unwrap();
        let report_url = format!("/v1/jobs/{id}/report");
        let deadline = Instant::now() + TIMEOUT;
        let report = loop {
            let (status, body) = client_request(addr, "GET", &report_url, None, TIMEOUT).unwrap();
            match status {
                200 => break body,
                202 => {
                    assert!(Instant::now() < deadline, "job never finished");
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => panic!("unexpected status {other}: {body}"),
            }
        };
        assert!(report.contains("\"svc-unit\""), "{report}");
        assert!(report.contains("total_speedup"), "{report}");

        let (status, body) =
            client_request(addr, "GET", &format!("/v1/jobs/{id}"), None, TIMEOUT).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"done\""), "{body}");

        let (status, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
        assert_eq!(status, 200);
        let metrics = json::parse(&body).unwrap();
        assert_eq!(
            metrics
                .get("jobs")
                .unwrap()
                .get("done")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
        assert_eq!(
            metrics
                .get("cache")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
        assert!(
            metrics.get("models").unwrap().get("AlexNet").is_some(),
            "{body}"
        );

        // A report poll on a pending job parks until the job finishes:
        // with the one worker on a heavy job, a tiny job queues behind
        // it, and one GET of its report returns the report and books
        // one wait.
        let before = report_metrics(addr);
        submit(addr, &heavy_spec_json());
        let id = submit(addr, &tiny_spec_json());
        let (status, body) =
            client_request(addr, "GET", &format!("/v1/jobs/{id}/report"), None, TIMEOUT).unwrap();
        assert_eq!(status, 200, "the poll must wait for its job: {body}");
        assert!(body.contains("\"svc-unit\""), "{body}");
        let after = report_metrics(addr);
        assert_eq!(count(&after, "waits") - count(&before, "waits"), 1);
        assert_eq!(count(&after, "parked"), 0);
        assert_eq!(count(&after, "over_cap"), 0);
        assert!(
            after.get("wait_seconds_total").unwrap().as_float().unwrap()
                > before
                    .get("wait_seconds_total")
                    .unwrap()
                    .as_float()
                    .unwrap()
        );

        // POST /v1/shutdown stops the serve loop; join must succeed.
        let (status, _) = client_request(addr, "POST", "/v1/shutdown", None, TIMEOUT).unwrap();
        assert_eq!(status, 200);
        running.handle.join().unwrap().unwrap();
    }

    /// A submission with a microscopic `?deadline_secs=` lands in the
    /// `timed_out` terminal state (504 on report fetch) — and the same
    /// spec without a deadline still succeeds afterwards, because
    /// cancellation never poisons the shared trace cache.
    #[test]
    fn tiny_deadlines_time_out_with_504_without_poisoning_the_cache() {
        let service = Service::bind(&ServiceConfig::default()).unwrap();
        let addr = service.local_addr();
        let running = service.spawn();

        // A non-number deadline is the client's mistake.
        let (status, body) = client_request(
            addr,
            "POST",
            "/v1/experiments?deadline_secs=soon",
            Some(&tiny_spec_json()),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("deadline_secs"), "{body}");

        let (status, body) = client_request(
            addr,
            "POST",
            "/v1/experiments?deadline_secs=0.000001",
            Some(&tiny_spec_json()),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 202, "{body}");
        let id = json::parse(&body)
            .unwrap()
            .get("job")
            .unwrap()
            .as_int()
            .unwrap();
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let (status, body) =
                client_request(addr, "GET", &format!("/v1/jobs/{id}/report"), None, TIMEOUT)
                    .unwrap();
            match status {
                202 => {
                    assert!(
                        Instant::now() < deadline,
                        "job never reached a terminal state"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                504 => {
                    assert!(body.contains("deadline"), "{body}");
                    break;
                }
                other => panic!("unexpected status {other}: {body}"),
            }
        }
        let (status, body) =
            client_request(addr, "GET", &format!("/v1/jobs/{id}"), None, TIMEOUT).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"timed_out\""), "{body}");

        // The same spec, unbounded, completes — the cache was untouched
        // by the cancelled run.
        let (status, body) = client_request(
            addr,
            "POST",
            "/v1/experiments",
            Some(&tiny_spec_json()),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 202, "{body}");
        let id = json::parse(&body)
            .unwrap()
            .get("job")
            .unwrap()
            .as_int()
            .unwrap();
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let (status, body) =
                client_request(addr, "GET", &format!("/v1/jobs/{id}/report"), None, TIMEOUT)
                    .unwrap();
            match status {
                202 => {
                    assert!(Instant::now() < deadline, "job never finished");
                    std::thread::sleep(Duration::from_millis(5));
                }
                200 => {
                    assert!(body.contains("total_speedup"), "{body}");
                    break;
                }
                other => panic!("unexpected status {other}: {body}"),
            }
        }

        let (_, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
        let metrics = json::parse(&body).unwrap();
        let jobs = metrics.get("jobs").unwrap();
        assert_eq!(
            jobs.get("timed_out").unwrap().as_u64().unwrap(),
            1,
            "{body}"
        );
        assert_eq!(jobs.get("done").unwrap().as_u64().unwrap(), 1, "{body}");
        running.shutdown_and_join().unwrap();
    }

    /// `GET /v1/traces/<digest>` serves stored bytes back verbatim, and
    /// an object that rots on disk is a `410` once (quarantined), then a
    /// `404` — garbage is never served.
    #[test]
    fn trace_downloads_are_verified_and_rot_becomes_410_then_404() {
        let dir = TestDir::new("download");
        let service = Service::bind(&ServiceConfig {
            trace_dir: Some(dir.0.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let running = service.spawn();

        // No store on this route prefix without a digest-shaped tail.
        let response = client_exchange(addr, "GET", "/v1/traces/nope", &[], "", TIMEOUT).unwrap();
        assert_eq!(response.status, 400);

        let recording = crate::loadtest::upload_recording(77);
        let bytes = recording.to_bytes();
        let response = client_exchange(
            addr,
            "POST",
            "/v1/traces",
            &bytes,
            "application/octet-stream",
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(response.status, 201, "{}", response.body_utf8_lossy());
        let digest = json::parse(&response.body_utf8_lossy())
            .unwrap()
            .get("digest")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        let url = format!("/v1/traces/{digest}");
        let response = client_exchange(addr, "GET", &url, &[], "", TIMEOUT).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, bytes, "served bytes must be verbatim");

        // Rot the object on disk behind the service's back.
        let object = dir
            .0
            .join("objects")
            .join(format!("{digest}{}", tensordash_store::OBJECT_EXT));
        let mut rotted = std::fs::read(&object).unwrap();
        let mid = rotted.len() / 2;
        rotted[mid] ^= 0x10;
        std::fs::write(&object, &rotted).unwrap();

        let response = client_exchange(addr, "GET", &url, &[], "", TIMEOUT).unwrap();
        assert_eq!(response.status, 410, "{}", response.body_utf8_lossy());
        let response = client_exchange(addr, "GET", &url, &[], "", TIMEOUT).unwrap();
        assert_eq!(response.status, 404, "rot must not be served twice");

        let (_, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
        let metrics = json::parse(&body).unwrap();
        assert_eq!(
            metrics
                .get("store")
                .unwrap()
                .get("quarantined")
                .unwrap()
                .as_u64()
                .unwrap(),
            1,
            "{body}"
        );
        running.shutdown_and_join().unwrap();
    }

    #[test]
    fn queue_capacity_yields_429_back_pressure() {
        // One worker, capacity 1: the second-and-later concurrent
        // submissions see either a queue slot or a 429 — never a hang or
        // a 500.
        let service = Service::bind(&ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let running = service.spawn();
        let mut saw_429 = false;
        for _ in 0..6 {
            let response = client_exchange(
                addr,
                "POST",
                "/v1/experiments",
                tiny_spec_json().as_bytes(),
                "application/json",
                TIMEOUT,
            )
            .unwrap();
            let body = response.body_utf8_lossy();
            match response.status {
                202 => {}
                429 => {
                    saw_429 = true;
                    assert!(body.contains("full"), "{body}");
                    // Back-pressure must tell clients when to come back.
                    assert_eq!(response.header("retry-after"), Some("1"), "{body}");
                }
                other => panic!("unexpected status {other}: {body}"),
            }
        }
        // Regardless of scheduling, the metrics reflect what happened.
        let (_, body) = client_request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
        let metrics = json::parse(&body).unwrap();
        let rejected = metrics
            .get("jobs")
            .unwrap()
            .get("rejected")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(saw_429, rejected > 0);
        running.shutdown_and_join().unwrap();
    }

    /// At most half the handler threads park on report polls. With two
    /// threads the cap is one: while a heavy job holds the only worker and
    /// one poll is parked on it, a second poll answers `202` at once and
    /// counts as over the cap, the free thread still serves `/healthz`
    /// and submits, and the parked poll ends with the job's exact report.
    #[test]
    fn report_polls_park_up_to_half_the_pool_and_answer_202_over_the_cap() {
        let service = Service::bind(&ServiceConfig {
            workers: 1,
            connection_threads: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let running = service.spawn();

        let id = submit(addr, &heavy_spec_json());
        let report_url = format!("/v1/jobs/{id}/report");
        let parked = {
            let report_url = report_url.clone();
            std::thread::spawn(move || {
                client_request(addr, "GET", &report_url, None, TIMEOUT).unwrap()
            })
        };
        await_parked(addr, 1);

        let start = Instant::now();
        let (status, body) = client_request(addr, "GET", &report_url, None, TIMEOUT).unwrap();
        assert_eq!(status, 202, "{body}");
        assert!(
            start.elapsed() < REPORT_WAIT / 5,
            "an over-cap poll waited {:?}",
            start.elapsed()
        );
        // The status route never waits and never counts as a poll.
        let (status, body) =
            client_request(addr, "GET", &format!("/v1/jobs/{id}"), None, TIMEOUT).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"running\""), "{body}");
        let (status, body) = client_request(addr, "GET", "/healthz", None, TIMEOUT).unwrap();
        assert_eq!(status, 200, "{body}");
        submit(addr, &tiny_spec_json());
        let reports = report_metrics(addr);
        assert_eq!(count(&reports, "parked"), 1);
        assert_eq!(count(&reports, "over_cap"), 1);

        let (status, body) = parked.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, direct_report(&heavy_spec_json()));
        let reports = report_metrics(addr);
        assert_eq!(count(&reports, "parked"), 0);
        assert_eq!(count(&reports, "waits"), 1);
        running.shutdown_and_join().unwrap();
    }

    /// Shutdown needs no wake for parked polls: the drain finishes every
    /// admitted job, so `shutdown_and_join` with a poll parked returns,
    /// and the poll gets its report.
    #[test]
    fn shutdown_with_a_parked_poll_returns_and_delivers_the_report() {
        let service = Service::bind(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let running = service.spawn();
        let report_url = format!("/v1/jobs/{}/report", submit(addr, &heavy_spec_json()));
        let parked =
            std::thread::spawn(move || client_request(addr, "GET", &report_url, None, TIMEOUT));
        await_parked(addr, 1);
        running.shutdown_and_join().unwrap();
        let (status, body) = parked.join().unwrap().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, direct_report(&heavy_spec_json()));
    }

    /// The parking slot is freed on every exit path, unwinding included.
    #[test]
    fn a_parked_poll_frees_its_slot_on_return_and_on_unwind() {
        let waits = ReportWaits::new(3);
        {
            let _slot = waits.park().expect("a free slot");
            assert!(waits.park().is_none(), "three threads give one slot");
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = waits.park().expect("the slot was freed on return");
            panic!("a handler dies while parked");
        }));
        assert!(unwound.is_err());
        assert!(waits.park().is_some(), "the slot was freed on unwind");
        let doc = waits.document();
        assert_eq!(count(&doc, "parked"), 0);
        assert_eq!(count(&doc, "waits"), 3);
        assert_eq!(count(&doc, "over_cap"), 1);
    }

    /// The end-to-end chaos contract: a fault-injected service survives
    /// the full adversarial mix — injected panics, dropped connections,
    /// resets, slow-loris drips, oversized bodies, corrupt uploads,
    /// microscopic deadlines — with every leg in a typed outcome and
    /// every surviving report byte-identical to a fault-free run.
    #[test]
    fn chaos_bombardment_leaves_the_service_alive_and_reports_exact() {
        let dir = TestDir::new("chaos");
        let service = Service::bind(&ServiceConfig {
            trace_dir: Some(dir.0.clone()),
            fault_seed: Some(7),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = service.local_addr();
        let running = service.spawn();

        let options = crate::loadtest::LoadtestOptions::smoke(addr);
        let report = crate::loadtest::run_chaos(&options, 7).expect("chaos run starts");
        assert!(report.passed(), "{:?}", report);
        assert_eq!(report.legs, options.requests);
        assert!(report.server_alive, "{report:?}");
        assert_eq!(report.mismatches, 0, "{report:?}");
        assert_eq!(report.unexpected, 0, "{report:?}");
        assert!(
            report.verified >= 1,
            "at least one well-formed leg must byte-verify: {report:?}"
        );

        // The server side kept its books: every terminal job is typed,
        // and nothing died. The fault plan still runs, so this read
        // retries through injected faults like every chaos leg.
        let response = crate::loadtest::chaos_get(addr, "/metrics", 7, &AtomicU64::new(0))
            .expect("/metrics answers through injected faults");
        assert_eq!(response.status, 200, "{}", response.body_utf8_lossy());
        let metrics = json::parse(&response.body_utf8_lossy()).unwrap();
        let faults = metrics.get("faults").unwrap();
        assert_eq!(faults.get("dead_workers").unwrap().as_u64().unwrap(), 0);
        assert_eq!(faults.get("dead_sim_workers").unwrap().as_u64().unwrap(), 0);
        running.shutdown_and_join().unwrap();
    }
}
