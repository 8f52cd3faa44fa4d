//! The `service_mix` workload: a `tensordash serve` process (the
//! library's `Service` with default worker settings and a temporary trace
//! store) driven by closed-loop clients in this process.
//!
//! The mix has the shape of the program's load generator — small
//! calibrated specs with few distinct trace keys and many repeats — but is
//! generated here, together with the client and its poll interval, so a
//! change to the program's load generator cannot change what is measured.
//! Every 8th request uploads a trace artifact and replays it by digest.

use crate::http::{self, Reply};
use crate::spans::{self, Span, Tracer};
use crate::stats::{self, Metrics, END_TO_END, PER_LAYER};
use crate::{models, out_dir, peak_rss_mb, splitmix64, Outcome, RunArgs};
use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tensordash_bench::experiment::SourceContext;
use tensordash_bench::{paperref, ExperimentSpec, Service, ServiceConfig, TraceCache};
use tensordash_serde::{json, Serialize, Value};
use tensordash_sim::{ChipConfig, EvalSpec, ModelReport};
use tensordash_store::TraceStore;
use tensordash_trace::{
    ConvDims, EpochRecord, RecordingMeta, SampleSpec, SparsityGen, TraceRecording, TrainMetrics,
    TrainingOp, UniformSparsity,
};

/// Closed-loop clients; the reference host has two cores.
pub const CLIENTS: usize = 2;
/// Every this-many requests (from index 0) take the upload leg.
const UPLOAD_EVERY: u64 = 8;
/// The client's wait between report polls.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// At least this many requests complete per run, so p99 has ten samples
/// beyond it.
const MIN_REQUESTS: u64 = 1000;
/// A run stops starting requests after this long (or `--seconds`, if
/// longer) whatever it completed, so a slow service still ends.
const MAX_SECONDS: f64 = 120.0;
/// Server set-ups measured per run; the median is reported.
const SETUPS: usize = 5;
/// Requests the traced in-process runs send in their server probe.
const PROBE_REQUESTS: u64 = 32;
/// The calibrated specs of the mix: a model, a tile count, a training
/// progress point and a trace seed below `TRACE_SEEDS` — 72 trace keys.
const MODELS: [&str; 3] = ["AlexNet", "SqueezeNet", "GCN"];
const TILES: [usize; 3] = [1, 2, 4];
const PROGRESS: [f64; 2] = [0.2, 0.45];
const TRACE_SEEDS: u64 = 4;

/// The server child: `perfbench serve --trace-dir <DIR>`. Prints its
/// bound address on the first line, then serves until shut down.
///
/// # Errors
///
/// Usage, bind and serve errors.
pub fn serve_child(args: &[String]) -> Result<(), String> {
    let [flag, dir] = args else {
        return Err("usage: perfbench serve --trace-dir <DIR>".to_string());
    };
    if flag != "--trace-dir" {
        return Err(format!("unknown argument `{flag}`"));
    }
    let config = ServiceConfig {
        trace_dir: Some(dir.into()),
        ..ServiceConfig::default()
    };
    let service = Service::bind(&config).map_err(|e| format!("cannot bind: {e}"))?;
    println!("listening {}", service.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot announce the address: {e}"))?;
    // Should the benchmark die without shutting this server down, the
    // server is re-parented; it notices and shuts itself down.
    let flag = service.shutdown_flag();
    let parent = std::os::unix::process::parent_id();
    let watcher = {
        let flag = std::sync::Arc::clone(&flag);
        std::thread::spawn(move || {
            while !flag.is_requested() {
                if std::os::unix::process::parent_id() != parent {
                    flag.request();
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    let served = service.run();
    flag.request();
    watcher
        .join()
        .map_err(|_| "the parent watcher panicked".to_string())?;
    // The store is temporary: nothing outlives the server.
    let _ = std::fs::remove_dir_all(dir);
    served.map_err(|e| format!("serve failed: {e}"))
}

/// A running server child, stopped (and its store removed) on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns the server on a fresh store under `out/` and waits for its
    /// address.
    fn start(name: &str) -> Result<Server, String> {
        let store = out_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        std::fs::create_dir_all(&store)
            .map_err(|e| format!("cannot create {}: {e}", store.display()))?;
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--trace-dir")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        let server_or_err = |addr| Server {
            child,
            addr,
            store,
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(server_or_err(addr)),
            _ => {
                // Dropping the half-started server kills and reaps it.
                drop(server_or_err(SocketAddr::from(([127, 0, 0, 1], 0))));
                Err(format!(
                    "the server did not announce its address (got `{}`)",
                    line.trim()
                ))
            }
        }
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let reply = http::exchange(self.addr, "POST", "/v1/shutdown", b"", "application/json");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && reply.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
        Err("the server did not shut down within 20 s".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// The request mix of one run, derived from its seed.
struct Mix {
    seed: u64,
    upload: Vec<u8>,
    digest: String,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let recording = upload_recording(seed);
        Mix {
            seed,
            digest: format!("{:016x}", tensordash_trace::canonical_digest(&recording)),
            upload: recording.to_bytes(),
        }
    }

    fn is_upload(index: u64) -> bool {
        index.is_multiple_of(UPLOAD_EVERY)
    }

    /// Request `index`'s spec: a deterministic function of the seed and
    /// the index. Calibrated legs draw from three small models, three tile
    /// counts, two progress points and four trace seeds — few distinct
    /// trace keys, many repeats.
    fn spec(&self, index: u64) -> ExperimentSpec {
        if Mix::is_upload(index) {
            return ExperimentSpec::new(format!("mix-upload-{index}")).with_eval(
                EvalSpec::builder()
                    .stored(self.digest.clone())
                    .build()
                    .expect("the upload digest is valid hex"),
            );
        }
        let mut state = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut draw = |n: usize| {
            state = splitmix64(state);
            (state % n as u64) as usize
        };
        calibrated_spec(
            format!("mix-{index}"),
            MODELS[draw(MODELS.len())],
            TILES[draw(TILES.len())],
            PROGRESS[draw(PROGRESS.len())],
            draw(TRACE_SEEDS as usize) as u64,
        )
    }
}

/// One calibrated spec of the mix: tiny sampling, one model.
fn calibrated_spec(
    name: String,
    model: &str,
    tiles: usize,
    progress: f64,
    trace_seed: u64,
) -> ExperimentSpec {
    ExperimentSpec::new(name)
        .with_models([model])
        .with_chip(
            ChipConfig::builder()
                .tiles(tiles)
                .build()
                .expect("mix chips are valid"),
        )
        .with_eval(EvalSpec {
            sample: SampleSpec::new(2, 16),
            progress,
            seed: trace_seed,
            ..EvalSpec::sweep()
        })
}

/// The one trace artifact upload legs send: a small recording derived
/// from the run seed, packed for the default 16-lane chip. Every upload
/// sends the same bytes, so the store dedupes all but the first.
fn upload_recording(seed: u64) -> TraceRecording {
    let dims = ConvDims::conv_square(1, 16, 6, 8, 3, 1, 1);
    let sample = SampleSpec::new(2, 16);
    let mut recording = TraceRecording::new(RecordingMeta {
        name: format!("perfbench-upload-{seed:x}"),
        epochs: 1,
        batch_size: 8,
        seed,
        lanes: 16,
        sample,
    });
    let op = |op, salt| UniformSparsity::new(0.5).op_trace(dims, op, 16, &sample, seed ^ salt);
    recording.epochs.push(EpochRecord {
        epoch: 0,
        progress: 0.0,
        metrics: TrainMetrics {
            loss: 1.0,
            accuracy: 0.5,
            act_sparsity: 0.4,
            grad_sparsity: 0.6,
            weight_sparsity: 0.0,
        },
        layers: vec![(
            "conv1".to_string(),
            [
                op(TrainingOp::Forward, 1),
                op(TrainingOp::InputGrad, 2),
                op(TrainingOp::WeightGrad, 3),
            ],
        )],
    });
    recording
}

/// One request as its client saw it.
struct Record {
    index: u64,
    latency_ms: f64,
    traced: bool,
    outcome: Result<Vec<u8>, String>,
}

/// Drives request `index`: (upload,) submit, poll every
/// [`POLL_INTERVAL`] until the report arrives. Latency runs from the
/// submit (or upload) to the report bytes received.
fn drive(
    addr: SocketAddr,
    mix: &Mix,
    index: u64,
    tracer: &Tracer,
) -> (f64, Result<Vec<u8>, String>) {
    let spec = mix.spec(index);
    let body = json::write_compact(&spec.serialize());
    let start = Instant::now();
    let root = tracer.begin("request", index, 0);
    let expect = |reply: std::io::Result<Reply>, want: u16, what: &str| match reply {
        Ok(reply) if reply.status == want => Ok(reply),
        Ok(reply) => Err(format!("{what} got {}: {}", reply.status, reply.text())),
        Err(e) => Err(format!("{what} failed: {e}")),
    };
    let outcome = (|| {
        if Mix::is_upload(index) {
            let path = format!("/v1/traces?digest={}", mix.digest);
            let reply = tracer.span("store.upload", index, root, || {
                http::exchange(addr, "POST", &path, &mix.upload, "application/octet-stream")
            });
            expect(reply, 201, "upload")?;
        }
        let reply = tracer.span("server.submit", index, root, || {
            http::exchange(
                addr,
                "POST",
                "/v1/experiments",
                body.as_bytes(),
                "application/json",
            )
        });
        let submitted = expect(reply, 202, "submit")?;
        let report_url = json::parse(&submitted.text())
            .ok()
            .and_then(|doc| {
                doc.get("report_url")
                    .and_then(|v| v.as_str().ok())
                    .map(str::to_string)
            })
            .ok_or("the submit reply has no report_url")?;
        let residence = tracer.begin("server.residence", index, root);
        loop {
            let reply = tracer.span("server.poll", index, residence, || {
                http::exchange(addr, "GET", &report_url, b"", "application/json")
            });
            match reply {
                Ok(reply) if reply.status == 200 => {
                    tracer.end(residence);
                    return Ok(reply.body);
                }
                Ok(reply) if reply.status == 202 => std::thread::sleep(POLL_INTERVAL),
                other => return expect(other, 200, "poll").map(|r| r.body),
            }
        }
    })();
    tracer.end(root);
    (start.elapsed().as_secs_f64() * 1e3, outcome)
}

/// Whether request `index` failed: an error or an unexpected status on
/// the way (`outcome`), no in-process reference, or report bytes that
/// differ from the reference.
fn verdict(
    index: u64,
    outcome: &Result<Vec<u8>, String>,
    expected: Result<String, String>,
) -> Result<(), String> {
    let body = outcome
        .as_ref()
        .map_err(|e| format!("request {index}: {e}"))?;
    let expected = expected.map_err(|e| format!("request {index} has no reference: {e}"))?;
    if expected.as_bytes() == body.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "request {index} report diverges from the in-process run ({} bytes served, {} expected)",
            body.len(),
            expected.len()
        ))
    }
}

/// Fetches `/metrics` as a JSON tree.
fn server_metrics(addr: SocketAddr) -> Result<Value, String> {
    let reply = http::exchange(addr, "GET", "/metrics", b"", "application/json")
        .map_err(|e| format!("/metrics failed: {e}"))?;
    if !reply.is_success() {
        return Err(format!("/metrics got {}", reply.status));
    }
    json::parse(&reply.text()).map_err(|e| format!("/metrics is not JSON: {e}"))
}

/// A counter from a `/metrics` tree by path; 0 when absent.
fn counter(doc: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(|v| {
            v.as_float()
                .ok()
                .or_else(|| v.as_u64().ok().map(|n| n as f64))
        })
        .unwrap_or(0.0)
}

/// Sum over `/metrics` model rows of one field.
fn model_sum(doc: &Value, field: &str) -> f64 {
    doc.get("models")
        .and_then(|m| m.as_table().ok())
        .map_or(0.0, |rows| {
            rows.iter().map(|(_, row)| counter(row, &[field])).sum()
        })
}

/// The reports each distinct spec produces in-process, computed once.
struct References<'a> {
    mix: &'a Mix,
    store: TraceStore,
    runs: HashMap<String, Result<Vec<ModelReport>, String>>,
}

impl<'a> References<'a> {
    fn new(mix: &'a Mix, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        let store =
            TraceStore::open(dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
        store
            .insert_bytes(&mix.upload, None)
            .map_err(|e| format!("cannot store the upload artifact: {e}"))?;
        Ok(References {
            mix,
            store,
            runs: HashMap::new(),
        })
    }

    /// Request `index`'s spec run in-process: `ExperimentSpec::run`, or
    /// for a stored replay the same spec against a local copy of the
    /// store. The name only labels the document, so runs are shared by
    /// every spec that differs in name alone.
    fn reports(&mut self, spec: &ExperimentSpec) -> Result<&[ModelReport], String> {
        let key = json::write_compact(
            &ExperimentSpec {
                name: String::new(),
                ..spec.clone()
            }
            .serialize(),
        );
        let store = &self.store;
        let run = self.runs.entry(key).or_insert_with(|| {
            let reports = if spec.models.is_empty() {
                let ctx = SourceContext::local().with_store(store);
                spec.run_in(&TraceCache::new(), &ctx, &mut |_, _| {})
            } else {
                spec.run()
            };
            reports.map_err(|e| e.to_string())
        });
        run.as_deref().map_err(Clone::clone)
    }

    /// The report bytes request `index` must receive.
    fn expected(&mut self, index: u64) -> Result<String, String> {
        let spec = self.mix.spec(index);
        let reports = self.reports(&spec)?;
        Ok(json::write(&spec.report_document(reports)))
    }
}

/// Every calibrated spec the mix can draw, each once.
fn calibrated_keys() -> Vec<ExperimentSpec> {
    let mut keys = Vec::new();
    for model in MODELS {
        for tiles in TILES {
            for progress in PROGRESS {
                for seed in 0..TRACE_SEEDS {
                    keys.push(calibrated_spec(String::new(), model, tiles, progress, seed));
                }
            }
        }
    }
    keys
}

/// The two simulated metrics over every calibrated spec the mix can draw,
/// each once, so they read the same for every seed: the mean TensorDash
/// speedup, and its mean error against the paper's anchor for each model
/// (the Fig 13 bar for AlexNet and SqueezeNet, the §4.4 gain for GCN).
fn simulated(refs: &mut References<'_>) -> Result<(f64, f64), String> {
    let mut speedups = Vec::new();
    let mut errors = Vec::new();
    for spec in &calibrated_keys() {
        let report = &refs.reports(spec)?[0];
        let paper = paperref::FIG13_TOTAL
            .iter()
            .find(|(name, _)| *name == report.name)
            .map_or(paperref::GCN.0, |(_, v)| *v);
        let s = report.total_speedup();
        speedups.push(s);
        errors.push((s - paper).abs() / paper * 100.0);
    }
    Ok((stats::mean(&speedups), stats::mean(&errors)))
}

/// The run: set-up, the timed closed loop, then the checks.
///
/// # Errors
///
/// Returns a message when the server cannot be started or queried.
pub fn run(args: &RunArgs, trace: bool) -> Result<Outcome, String> {
    let mix = Mix::new(args.seed);
    let mut setup_times = Vec::new();
    let mut server = None;
    for attempt in 0..SETUPS {
        let t0 = Instant::now();
        let started = Server::start(&format!("store-{attempt}"))?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = server.replace(started) {
            Server::stop(previous)?;
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;

    let tracer = if trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let untraced = Tracer::disabled();
    let before = server_metrics(addr)?;
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let elapsed = start.elapsed().as_secs_f64();
                let done = completed.load(Ordering::Relaxed);
                if (elapsed >= args.seconds && done >= MIN_REQUESTS)
                    || elapsed >= MAX_SECONDS.max(args.seconds)
                {
                    break;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                // The traced run traces even indices (every upload leg)
                // and leaves odd ones untraced: the tracing-overhead
                // baseline under the same load.
                let traced = trace && index.is_multiple_of(2);
                let (latency_ms, outcome) =
                    drive(addr, &mix, index, if traced { &tracer } else { &untraced });
                if traced && index % 4 == 2 {
                    probe_healthz(&tracer, addr, index);
                }
                if outcome.is_ok() {
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                records.lock().expect("records poisoned").push(Record {
                    index,
                    latency_ms,
                    traced,
                    outcome,
                });
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let after = server_metrics(addr)?;
    let server_rss = peak_rss_mb(server.child.id()).unwrap_or(0.0);
    server.stop()?;
    // The in-process layers run inside the server, out of the client's
    // sight: the traced run evaluates the mix's specs layer by layer here.
    let work = if trace {
        Some(models::trace_specs(&tracer, &calibrated_keys())?)
    } else {
        None
    };

    let mut records = records.into_inner().expect("records poisoned");
    records.sort_by_key(|r| r.index);
    let ref_dir = out_dir().join(format!("references-{}", std::process::id()));
    let mut refs = References::new(&mix, &ref_dir)?;
    let mut failed = 0u64;
    let mut first_error = None;
    for record in &records {
        let expected = match record.outcome {
            Ok(_) => refs.expected(record.index),
            Err(_) => Ok(String::new()),
        };
        if let Err(e) = verdict(record.index, &record.outcome, expected) {
            failed += 1;
            first_error.get_or_insert(e);
        }
    }
    let simulated = simulated(&mut refs);
    drop(refs);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let (speedup_mean, anchor_error_pct) = simulated?;

    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    let mut notes = vec![
        format!(
            "{} requests from {CLIENTS} closed-loop clients in {wall:.3} s ({} upload legs, poll every {} ms)",
            records.len(),
            records.iter().filter(|r| Mix::is_upload(r.index)).count(),
            POLL_INTERVAL.as_millis()
        ),
        format!(
            "server: {} jobs done, {} cache hits / {} misses, {} uploads ({} deduplicated)",
            delta(&["jobs", "done"]),
            delta(&["cache", "hits"]),
            delta(&["cache", "misses"]),
            delta(&["store", "uploads"]),
            delta(&["store", "dedup_hits"])
        ),
    ];
    if let Some(e) = first_error {
        notes.push(format!("first failure: {e}"));
    }

    let metrics = if let Some(work) = work {
        let spans = tracer.finished();
        notes.push(crate::write_spans(&spans, args));
        let mut m = Metrics::new(PER_LAYER);
        models::set_layer_metrics(
            &mut m,
            &spans,
            &work,
            delta(&["cache", "hits"]),
            delta(&["cache", "misses"]),
        );
        set_layer_metrics(&mut m, &spans, &before, &after);
        notes.extend(overhead(&mut m, &spans, &records));
        m
    } else {
        let latencies: Vec<f64> = records
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(|r| r.latency_ms)
            .collect();
        notes.push(stats::tail_note(latencies.len()));
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", stats::median(&setup_times));
        m.set("evals_per_s", delta(&["jobs", "done"]) / wall);
        m.set("requests_per_s", latencies.len() as f64 / wall);
        m.set("request_ms_p50", stats::percentile(&latencies, 50.0));
        m.set(
            "request_ms_p99",
            stats::percentile(&latencies, stats::tail_percentile(latencies.len())),
        );
        m.set("peak_rss_mb", server_rss);
        m.set("sim_speedup_mean", speedup_mean);
        m.set("anchor_error_pct", anchor_error_pct);
        m
    };
    Ok(Outcome {
        attempted: records.len() as u64,
        failed,
        metrics,
        notes,
    })
}

/// The accept floor: `GET /healthz` on a fresh connection with no work
/// behind it. A failed probe only leaves its span out.
fn probe_healthz(tracer: &Tracer, addr: SocketAddr, index: u64) {
    let _ = tracer.span("server.healthz", index, 0, || {
        http::exchange(addr, "GET", "/healthz", b"", "application/json")
    });
}

/// A short traced probe of the server and store layers for the
/// in-process workloads: a fresh server, the first [`PROBE_REQUESTS`]
/// requests of the mix from one client, each followed by a health probe,
/// and `/metrics` before and after.
///
/// # Errors
///
/// Returns a message when the server cannot start or a request fails.
pub fn probe(tracer: &Tracer, seed: u64) -> Result<(Value, Value), String> {
    let mix = Mix::new(seed);
    let server = Server::start("probe")?;
    let before = server_metrics(server.addr)?;
    for index in 0..PROBE_REQUESTS {
        drive(server.addr, &mix, index, tracer).1?;
        probe_healthz(tracer, server.addr, index);
    }
    let after = server_metrics(server.addr)?;
    server.stop()?;
    Ok((before, after))
}

/// Records the server and store layers' metrics from the client's spans
/// and the server's `/metrics` before and after.
pub fn set_layer_metrics(m: &mut Metrics, spans: &[Span], before: &Value, after: &Value) {
    let p50_ms = |name: &str| -> f64 {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() * 1e3)
            .collect();
        stats::percentile(&ms, 50.0)
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let delta = |path: &[&str]| counter(after, path) - counter(before, path);
    m.set("server.healthz_ms_p50", p50_ms("server.healthz"));
    m.set("server.submit_ms_p50", p50_ms("server.submit"));
    m.set("server.residence_ms_p50", p50_ms("server.residence"));
    m.set(
        "server.polls_per_request",
        stats::ratio(count("server.poll"), count("request")),
    );
    m.set(
        "server.eval_ms_mean",
        1e3 * stats::ratio(
            model_sum(after, "wall_seconds_total") - model_sum(before, "wall_seconds_total"),
            model_sum(after, "evaluations") - model_sum(before, "evaluations"),
        ),
    );
    m.set("store.upload_ms_p50", p50_ms("store.upload"));
    m.set(
        "store.dedup_ratio",
        stats::ratio(
            delta(&["store", "dedup_hits"]),
            delta(&["store", "uploads"]),
        ),
    );
}

/// The traced service run's reconciliation and tracing overhead: traced
/// calibrated requests against the untraced ones interleaved with them,
/// scaled to the same request count.
fn overhead(m: &mut Metrics, spans: &[Span], records: &[Record]) -> Vec<String> {
    let calibrated = |traced: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.outcome.is_ok() && r.traced == traced && !Mix::is_upload(r.index))
            .map(|r| r.latency_ms / 1e3)
            .collect()
    };
    let traced = calibrated(true);
    let untraced_wall = stats::mean(&calibrated(false)) * traced.len() as f64;
    crate::set_trace_metrics(
        m,
        spans,
        spans::reconcile(spans, "request"),
        traced.iter().sum(),
        untraced_wall,
        "request",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_statuses_and_mismatches_each_count_as_one_failure() {
        let served = Ok(b"{\"report\": 1}".to_vec());
        assert!(verdict(1, &served, Ok("{\"report\": 1}".to_string())).is_ok());
        let diverged = verdict(2, &served, Ok("{\"report\": 2}".to_string()));
        assert!(diverged.unwrap_err().contains("diverges"));
        let refused = Err("submit got 429: queue full".to_string());
        assert!(verdict(3, &refused, Ok(String::new()))
            .unwrap_err()
            .contains("429"));
        assert!(verdict(4, &served, Err("unknown model".to_string()))
            .unwrap_err()
            .contains("no reference"));
        let outcomes = [
            verdict(1, &served, Ok("{\"report\": 1}".to_string())),
            verdict(2, &served, Ok("x".to_string())),
            verdict(3, &refused, Ok(String::new())),
        ];
        let failed = outcomes.iter().filter(|v| v.is_err()).count() as u64;
        assert_eq!(
            stats::failed_ratio(outcomes.len() as u64, failed),
            2.0 / 3.0
        );
    }

    #[test]
    fn the_mix_is_a_function_of_seed_and_index() {
        let mix = Mix::new(5);
        let spec = |m: &Mix, i| json::write_compact(&m.spec(i).serialize());
        assert_eq!(spec(&mix, 9), spec(&Mix::new(5), 9));
        assert!(Mix::is_upload(0) && Mix::is_upload(8) && !Mix::is_upload(9));
        assert!(
            mix.spec(8).models.is_empty(),
            "upload legs replay by digest"
        );
        assert_eq!(mix.spec(9).models.len(), 1);
        let distinct: std::collections::HashSet<String> = (1..200)
            .filter(|&i| !Mix::is_upload(i))
            .map(|i| spec(&mix, i))
            .collect();
        assert!(distinct.len() > 100, "names differ per request");
    }
}
