//! The unified TensorDash experiment CLI.
//!
//! One binary drives the whole evaluation: every named table/figure
//! regeneration, and arbitrary declarative experiments described in TOML.
//!
//! ```text
//! tensordash list                      # what can run
//! tensordash run fig13 table3          # named experiments
//! tensordash run all                   # the full evaluation
//! tensordash train --record run.trace.json  # real training -> speedup/epoch
//! tensordash train --replay run.trace.json  # bit-exact artifact replay
//! tensordash trace pack run.trace.json run.trace.bin  # v1 <-> v2 transcode
//! tensordash trace inspect run.trace.bin   # schema, digest, meta
//! tensordash trace gc --trace-dir traces   # sweep the trace store
//! tensordash --config experiment.toml  # a declarative experiment
//! tensordash serve --port 7878 --trace-dir traces  # the resident service
//! tensordash loadtest http://host:port # traffic benchmark against it
//! ```

use std::process::ExitCode;
use std::time::Duration;
use tensordash_bench::experiment::{self, ExperimentSpec};
use tensordash_bench::harness::TraceCache;
use tensordash_bench::{loadtest, service, train};
use tensordash_serde::{Serialize, Value};
use tensordash_sim::{ModelReport, SchedulerKind};

const USAGE: &str = "\
tensordash — the TensorDash (MICRO 2020) reproduction driver

USAGE:
    tensordash <COMMAND> [ARGS]
    tensordash --config <FILE> [--out <FILE>]

COMMANDS:
    list                 List the named experiments
    run <NAME>...        Run named experiments in order (`run all` for the
                         full evaluation); bare names also work, e.g.
                         `tensordash fig13 table3`. With `--scheduler`,
                         the names are zoo models instead (none = the
                         full zoo) and every listed scheduler runs over
                         the same traces, side by side
    bench                Run the fixed perf-tracking workload set and write
                         BENCH_<n>.json (scheduler-kernel + trace-pipeline
                         + service throughput plus end-to-end model
                         evaluations).
                         `--smoke` runs the seconds-scale CI variant;
                         `--out <FILE>` overrides the output path;
                         `--baseline <BENCH_n.json>` diffs throughput
                         against a committed baseline and exits non-zero
                         on regression (>20%; the noisier end-to-end
                         service rate gates at >50%)
    train                Train a real CNN and report loss, accuracy,
                         per-tensor sparsity, and the simulated TensorDash
                         speedup per epoch — authentic dynamic sparsity
                         through the same simulator/report path as `run`.
                         Options: --epochs <N> (default 10), --batch <N>
                         (default 32), --seed <S>, --name <LABEL>,
                         --workers <N> (pipeline epoch N+1 training with
                         epoch N simulation on N sim threads; the report
                         is byte-identical to the serial default),
                         --record <FILE> (write the versioned trace
                         artifact), --replay <FILE> (rebuild the report
                         bit-exactly from an artifact instead of
                         training), --out <FILE>, --smoke (tiny dataset,
                         2 epochs). `--record <FILE>.json` writes v1 JSON;
                         any other name writes the compact binary
                         `tensordash-trace/2`. Either replays through
                         `--config`/`serve` via the experiment key
                         `[eval.source] recorded = <FILE>`, or — uploaded
                         to a trace store — `stored = <DIGEST>`
    trace                Trace-artifact utilities:
                           pack <IN> <OUT>    transcode between v1 JSON and
                                              v2 binary (`.json` output
                                              means v1) and print the
                                              content digest
                           inspect <FILE>     print an artifact's schema,
                                              content digest, and metadata
                           gc --trace-dir <DIR> [--keep <DIGEST>]...
                                              sweep a trace store: remove
                                              abandoned tmp files and every
                                              unpinned object not kept
    serve                Run the resident simulation service: POST
                         /v1/experiments JSON specs, POST /v1/traces
                         artifact uploads, GET /v1/jobs/<id>, GET
                         /v1/jobs/<id>/report (waits up to 5 s for a
                         pending job, then 202), /healthz, /metrics; one
                         process-wide trace cache across all requests. Options: --port <P> (default 7878; 0
                         picks a free port), --host <ADDR>, --workers <N>,
                         --cache-cap <N>, --queue-cap <N>,
                         --trace-dir <DIR> (serve a content-addressed trace
                         store rooted there: uploads land in it, `stored`
                         and `recorded` experiment sources read from it),
                         --max-body-bytes <N> (request-body cap, default
                         4 MiB), --idle-shutdown <SECONDS>,
                         --job-deadline-secs <SECONDS> (cap every job's
                         simulation time; exceeding it is a typed
                         `timed_out` terminal state, 504 on report fetch),
                         --fault-seed <S> (deterministic fault injection
                         into connection handling and store I/O — for
                         chaos testing only). Shuts down gracefully on
                         SIGTERM, idle timeout, or POST /v1/shutdown
    loadtest <URL>       Fire a deterministic randomized experiment mix at
                         a running service and report throughput + latency
                         percentiles. Options: --requests <N> (default 64),
                         --concurrency <N> (default 8), --seed <S>,
                         --upload-every <N> (every Nth request uploads a
                         trace artifact and replays it by digest; needs a
                         --trace-dir service), --smoke (12 requests from
                         4 clients), --chaos <SEED> (adversarial mode:
                         byte-verified submits mixed with resets,
                         slow-loris drips, oversized bodies, corrupt
                         uploads, and tiny-deadline probes; exits nonzero
                         unless the server survives with every leg in a
                         typed outcome — point it at a --fault-seed server)

OPTIONS:
    --config <FILE>      Run a declarative experiment from a TOML file
                         (keys: name, models, [chip], [eval]; all optional —
                         an empty file is the full paper sweep on the
                         Table 2 chip) and write a JSON report
    --scheduler <LIST>   Comma-separated scheduler family members to run
                         (tensordash, 2to4, tstd, dense; see
                         `tensordash list`). One name overrides the
                         spec's `[chip] scheduler`; several run the same
                         spec once per scheduler over one shared trace
                         cache and print a side-by-side speedup table.
                         Works with `run` (zoo models) and `--config`
    --trace-dir <DIR>    A trace-store directory for `--config` runs whose
                         `[eval.source]` is `stored = <DIGEST>`
    --out <FILE>         Where to write the --config JSON report
                         (default: <results dir>/<experiment name>.json)
    --results <DIR>      Results directory for all CSV/JSON outputs
                         (default: `results`, or $TENSORDASH_RESULTS)
    -h, --help           Show this help
    -V, --version        Show the version

Named experiments print the paper's reference numbers next to the
regenerated values and write CSVs; declarative experiments write one JSON
document embedding the spec, per-model total speedups, and full reports.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `tensordash --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("bench") => return run_bench(&args[1..]),
        Some("train") => return run_train(&args[1..]),
        Some("trace") => return run_trace(&args[1..]),
        Some("serve") => return run_serve(&args[1..]),
        Some("loadtest") => return run_loadtest(&args[1..]),
        _ => {}
    }

    let mut names: Vec<String> = Vec::new();
    let mut config: Option<String> = None;
    let mut out: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut schedulers: Vec<SchedulerKind> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" | "help" => {
                println!("{USAGE}");
                return Ok(());
            }
            "-V" | "--version" => {
                println!("tensordash {}", env!("CARGO_PKG_VERSION"));
                return Ok(());
            }
            "--config" => {
                config = Some(take_value(&mut iter, "--config")?);
            }
            "--scheduler" => {
                let raw = take_value(&mut iter, "--scheduler")?;
                schedulers = parse_scheduler_list(&raw)?;
            }
            "--out" => {
                out = Some(take_value(&mut iter, "--out")?);
            }
            "--trace-dir" => {
                trace_dir = Some(take_value(&mut iter, "--trace-dir")?);
            }
            "--results" => {
                let dir = take_value(&mut iter, "--results")?;
                // `csvout::results_path` (the single output path for every
                // experiment) reads this variable.
                std::env::set_var("TENSORDASH_RESULTS", dir);
            }
            "list" => {
                print_list();
                return Ok(());
            }
            "run" => {} // the names follow
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option `{flag}`"));
            }
            name => names.push(name.to_string()),
        }
    }

    if !schedulers.is_empty() && config.is_none() {
        // `run --scheduler ...` compares family members over zoo models
        // (the positional names; none selected means the full zoo) with
        // the default methodology — the same workload an empty
        // `--config` file evaluates.
        if trace_dir.is_some() {
            return Err("`--trace-dir` only applies to `--config` and `serve` runs".to_string());
        }
        let spec = ExperimentSpec::new("scheduler-comparison").with_models(names);
        return run_comparison(&spec, &schedulers, out.as_deref(), None);
    }
    if out.is_some() && config.is_none() {
        // Named experiments write CSVs through the results directory;
        // accepting --out there would silently never produce the file.
        return Err(
            "`--out` only applies to `--config` runs (use `--results` for named experiments)"
                .to_string(),
        );
    }
    if trace_dir.is_some() && config.is_none() {
        return Err("`--trace-dir` only applies to `--config` and `serve` runs".to_string());
    }
    match (config, names.is_empty()) {
        (Some(path), true) => run_config(&path, out.as_deref(), trace_dir.as_deref(), &schedulers),
        (Some(_), false) => Err("`--config` and named experiments are exclusive".to_string()),
        (None, true) => {
            println!("{USAGE}");
            Err("nothing to run".to_string())
        }
        (None, false) => run_named(&names),
    }
}

/// Parses the comma-separated `--scheduler` list into distinct family
/// members, preserving the order they were named in.
fn parse_scheduler_list(raw: &str) -> Result<Vec<SchedulerKind>, String> {
    let mut kinds = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let kind = SchedulerKind::parse(part).map_err(|e| e.to_string())?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err(format!(
            "`--scheduler` needs at least one of: {}",
            SchedulerKind::valid_names()
        ));
    }
    Ok(kinds)
}

fn run_bench(args: &[String]) -> Result<(), String> {
    let mut options = tensordash_bench::BenchOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--out" => {
                options.out = Some(take_value(&mut iter, "--out")?.into());
            }
            "--baseline" => {
                options.baseline = Some(take_value(&mut iter, "--baseline")?.into());
            }
            other => return Err(format!("unknown `bench` argument `{other}`")),
        }
    }
    // Resolve the baseline before the (minutes-long) measurement run,
    // carrying the path alongside the parsed document — every later use
    // flows through this one binding, so no "the path must still be
    // there" assumption (the old `.expect("baseline path")` abort path)
    // survives in the reporting code below.
    let baseline = options
        .baseline
        .as_ref()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline `{}`: {e}", path.display()))?;
            tensordash_serde::json::parse(&text)
                .map(|doc| (path.clone(), doc))
                .map_err(|e| format!("invalid baseline `{}`: {e}", path.display()))
        })
        .transpose()?;
    println!(
        "running the {} perf workload set...",
        if options.smoke { "smoke" } else { "full" }
    );
    let (path, summary) =
        tensordash_bench::perf::run(&options).map_err(|e| format!("cannot write report: {e}"))?;
    println!(
        "kernel: {:.2}x single-step, {:.2}x row-group over the scalar reference ({:.2}x four groups in flight over one, {:.2}x 1-row groups over 4-row)",
        summary.kernel.step_speedup(),
        summary.kernel.group_speedup(),
        summary.kernel.in_flight_speedup(),
        summary.kernel.one_row_ratio()
    );
    println!(
        "sharding: {} {:.4}s at 1 thread, {:.4}s at 8 ({:.2}x)",
        summary.sharding.model,
        summary.sharding.wall_seconds_1_thread,
        summary.sharding.wall_seconds_8_threads,
        summary.sharding.parallel_speedup()
    );
    println!(
        "trace:  {:.2}x bitmap extraction over the reference, {:.2}x warm-cache eval",
        summary.trace.extraction_speedup(),
        summary.trace.cache_hit_speedup
    );
    println!(
        "source: {:.2e} live masks/s (train+extract), {:.2e} replay masks/s, {:.2e} record B/s",
        summary.source.live_masks_per_sec,
        summary.source.replay_masks_per_sec,
        summary.source.record_bytes_per_sec
    );
    println!(
        "store:  {:.2e} binary-replay masks/s ({:.1}x the JSON leg), {:.2e} pack B/s, {:.2}x v1 size",
        summary.store.load_masks_per_sec,
        summary.store.load_masks_per_sec / summary.source.replay_masks_per_sec,
        summary.store.pack_bytes_per_sec,
        summary.store.binary_over_json_bytes
    );
    println!(
        "serde:  {:.2e} report B/s direct, {:.2e} through the tree ({:.2}x)",
        summary.serde.report_bytes_per_sec,
        summary.serde.report_bytes_per_sec_tree,
        summary.serde.direct_speedup()
    );
    for model in &summary.models {
        println!(
            "{:<16} {:>8.4}s wall ({:>7.4}s cached)  {:>14.0} sim cycles/s  speedup {:.3}x",
            model.name,
            model.wall_seconds,
            model.wall_seconds_cached,
            model.cycles_per_second,
            model.speedup
        );
    }
    println!(
        "service: {:.2} req/s from {} clients (p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms)",
        summary.service.requests_per_sec,
        summary.service.concurrency,
        summary.service.latency_ms_p50,
        summary.service.latency_ms_p90,
        summary.service.latency_ms_p99
    );
    println!(
        "total {:.2}s on {} cores ({} synthesis){}  -> wrote {}",
        summary.total_wall_seconds,
        summary.nproc,
        summary.synthesis,
        summary
            .steal_ticks
            .map_or(String::new(), |t| format!(", {t} steal ticks")),
        path.display()
    );

    if let Some((baseline_path, baseline)) = baseline {
        let diffs = tensordash_bench::diff_against_baseline(&summary, &baseline);
        let mut regressed = false;
        println!(
            "\nbaseline {} (per-metric tolerance):",
            baseline_path.display()
        );
        for diff in &diffs {
            let flag = if diff.regressed() {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "  {:<40} {:>12.3e} -> {:>12.3e}  ({:>5.2}x, >{:.0}% fails) {flag}",
                diff.metric,
                diff.baseline,
                diff.current,
                diff.ratio(),
                diff.tolerance * 100.0
            );
        }
        if diffs.is_empty() {
            println!("  (no comparable metrics in baseline)");
        }
        if regressed {
            return Err("throughput regressed against the baseline".to_string());
        }
    }
    Ok(())
}

fn run_train(args: &[String]) -> Result<(), String> {
    let mut options = train::TrainOptions::default();
    let mut epochs_set = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--epochs" => {
                options.epochs = take_parsed(&mut iter, "--epochs")?;
                epochs_set = true;
            }
            "--batch" => options.batch_size = take_parsed(&mut iter, "--batch")?,
            "--seed" => options.seed = take_parsed(&mut iter, "--seed")?,
            "--name" => options.name = take_value(&mut iter, "--name")?,
            "--record" => options.record = Some(take_value(&mut iter, "--record")?.into()),
            "--replay" => options.replay = Some(take_value(&mut iter, "--replay")?.into()),
            "--out" => options.out = Some(take_value(&mut iter, "--out")?.into()),
            "--smoke" => options.smoke = true,
            "--workers" => {
                let workers: usize = take_parsed(&mut iter, "--workers")?;
                if workers == 0 {
                    return Err("`--workers` must be at least 1".to_string());
                }
                options.workers = Some(workers);
            }
            other => return Err(format!("unknown `train` argument `{other}`")),
        }
    }
    if options.smoke && !epochs_set {
        options.epochs = train::TrainOptions::SMOKE_EPOCHS;
    }
    train::run(&options)
}

fn run_trace(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("pack") => run_trace_pack(&args[1..]),
        Some("inspect") => run_trace_inspect(&args[1..]),
        Some("gc") => run_trace_gc(&args[1..]),
        Some(other) => Err(format!(
            "unknown `trace` subcommand `{other}` (expected pack, inspect, or gc)"
        )),
        None => Err(
            "`trace` needs a subcommand: pack <IN> <OUT>, inspect <FILE>, or \
                     gc --trace-dir <DIR> [--keep <DIGEST>]..."
                .to_string(),
        ),
    }
}

/// `tensordash trace pack <IN> <OUT>` — transcode an artifact between the
/// v1 JSON and v2 binary encodings. The input encoding is sniffed; the
/// output encoding follows the file name (`.json` means v1). Both carry
/// the same content digest — packing never changes identity.
fn run_trace_pack(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("`trace pack` needs exactly <IN> and <OUT> paths".to_string());
    };
    let bytes = std::fs::read(input).map_err(|e| format!("cannot read artifact `{input}`: {e}"))?;
    let recording = tensordash_trace::TraceRecording::from_bytes(&bytes)
        .map_err(|e| format!("invalid artifact `{input}`: {e}"))?;
    let digest = tensordash_trace::canonical_digest(&recording);
    let packed = if std::path::Path::new(output.as_str())
        .extension()
        .is_some_and(|e| e == "json")
    {
        recording.to_json().into_bytes()
    } else {
        recording.to_bytes()
    };
    std::fs::write(output, &packed).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    println!(
        "packed `{}` ({} B) -> `{output}` ({} B), digest {digest:016x}",
        input,
        bytes.len(),
        packed.len()
    );
    Ok(())
}

/// `tensordash trace inspect <FILE>` — print an artifact's schema,
/// content digest, and recording metadata without running anything.
fn run_trace_inspect(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("`trace inspect` needs exactly one <FILE> path".to_string());
    };
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read artifact `{path}`: {e}"))?;
    let schema = if tensordash_trace::is_v2(&bytes) {
        tensordash_trace::BINARY_SCHEMA
    } else {
        tensordash_trace::RECORDING_SCHEMA
    };
    let recording = tensordash_trace::TraceRecording::from_bytes(&bytes)
        .map_err(|e| format!("invalid artifact `{path}`: {e}"))?;
    println!("schema:  {schema}");
    println!(
        "digest:  {:016x}",
        tensordash_trace::canonical_digest(&recording)
    );
    println!("name:    {}", recording.meta.name);
    println!(
        "epochs:  {} recorded (meta: {})",
        recording.epochs.len(),
        recording.meta.epochs
    );
    println!("lanes:   {}", recording.meta.lanes);
    println!("bytes:   {}", bytes.len());
    Ok(())
}

/// `tensordash trace gc --trace-dir <DIR> [--keep <DIGEST>]...` — sweep a
/// content-addressed trace store: abandoned `tmp/` files and every
/// unpinned object not on the keep-list are removed.
fn run_trace_gc(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut keep: Vec<u64> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace-dir" => dir = Some(take_value(&mut iter, "--trace-dir")?),
            "--keep" => {
                let text = take_value(&mut iter, "--keep")?;
                keep.push(
                    tensordash_store::parse_digest(&text)
                        .ok_or_else(|| format!("invalid `--keep` digest `{text}`"))?,
                );
            }
            other => return Err(format!("unknown `trace gc` argument `{other}`")),
        }
    }
    let dir = dir.ok_or("`trace gc` needs `--trace-dir <DIR>`")?;
    let store = tensordash_store::TraceStore::open(&dir)
        .map_err(|e| format!("cannot open trace store `{dir}`: {e}"))?;
    let report = store
        .gc(&keep)
        .map_err(|e| format!("gc failed in `{dir}`: {e}"))?;
    println!(
        "gc `{dir}`: removed {} object(s) + {} tmp file(s), kept {}, freed {} B",
        report.removed_objects, report.removed_tmp, report.kept, report.bytes_freed
    );
    Ok(())
}

fn take_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    iter.next()
        .cloned()
        .ok_or_else(|| format!("`{flag}` needs a value"))
}

/// As [`take_value`], parsed — every malformed number becomes a usage
/// error through the one `Err(message)` path, never a panic.
fn take_parsed<T: std::str::FromStr>(
    iter: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let raw = take_value(iter, flag)?;
    raw.parse::<T>()
        .map_err(|_| format!("`{flag}` got `{raw}`, expected a number"))
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut config = service::ServiceConfig::default();
    let mut host = String::from("127.0.0.1");
    let mut port = 7878u16;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--port" => port = take_parsed(&mut iter, "--port")?,
            "--host" => host = take_value(&mut iter, "--host")?,
            "--workers" => {
                config.workers = take_parsed(&mut iter, "--workers")?;
                if config.workers == 0 {
                    return Err("`--workers` must be at least 1".to_string());
                }
            }
            "--cache-cap" => {
                config.cache_capacity = take_parsed(&mut iter, "--cache-cap")?;
                if config.cache_capacity == 0 {
                    return Err("`--cache-cap` must be at least 1".to_string());
                }
            }
            "--queue-cap" => {
                config.queue_capacity = take_parsed(&mut iter, "--queue-cap")?;
                if config.queue_capacity == 0 {
                    return Err("`--queue-cap` must be at least 1".to_string());
                }
            }
            "--trace-dir" => {
                config.trace_dir = Some(take_value(&mut iter, "--trace-dir")?.into());
            }
            "--max-body-bytes" => {
                config.max_body_bytes = take_parsed(&mut iter, "--max-body-bytes")?;
                if config.max_body_bytes == 0 {
                    return Err("`--max-body-bytes` must be at least 1".to_string());
                }
            }
            "--idle-shutdown" => {
                let seconds: f64 = take_parsed(&mut iter, "--idle-shutdown")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("`--idle-shutdown` needs a positive number of seconds".to_string());
                }
                config.idle_shutdown = Some(Duration::from_secs_f64(seconds));
            }
            "--job-deadline-secs" => {
                let seconds: f64 = take_parsed(&mut iter, "--job-deadline-secs")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(
                        "`--job-deadline-secs` needs a positive number of seconds".to_string()
                    );
                }
                config.job_deadline = Some(Duration::from_secs_f64(seconds));
            }
            "--fault-seed" => {
                config.fault_seed = Some(take_parsed(&mut iter, "--fault-seed")?);
            }
            other => return Err(format!("unknown `serve` argument `{other}`")),
        }
    }
    config.addr = format!("{host}:{port}")
        .parse()
        .map_err(|e| format!("invalid bind address `{host}:{port}`: {e}"))?;
    let svc = service::Service::bind(&config).map_err(|e| format!("cannot bind: {e}"))?;
    println!("tensordash serve listening on http://{}", svc.local_addr());
    println!(
        "  {} simulation workers, queue cap {}, trace-cache cap {} builds",
        config.workers, config.queue_capacity, config.cache_capacity
    );
    match &config.trace_dir {
        Some(dir) => println!("  trace store at {}", dir.display()),
        None => println!("  no trace store (pass --trace-dir to accept uploads)"),
    }
    if let Some(deadline) = config.job_deadline {
        println!("  job deadline {:.3}s", deadline.as_secs_f64());
    }
    if let Some(seed) = config.fault_seed {
        println!("  FAULT INJECTION ON (seed {seed}) — do not serve real traffic");
    }
    println!(
        "  POST /v1/experiments | POST /v1/traces | GET /v1/jobs/<id>[/report] | /healthz | /metrics"
    );
    println!("  a report GET on a pending job waits up to 5 s for it to finish, then answers 202");
    // The CI smoke step parses the port off the first line before the
    // first request arrives — don't sit on it in a stdout buffer.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    svc.run().map_err(|e| format!("serve failed: {e}"))?;
    println!("tensordash serve: drained and shut down cleanly");
    Ok(())
}

fn run_loadtest(args: &[String]) -> Result<(), String> {
    let mut url: Option<String> = None;
    let mut requests: Option<usize> = None;
    let mut concurrency: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut upload_every: Option<usize> = None;
    let mut smoke = false;
    let mut chaos: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--requests" => requests = Some(take_parsed(&mut iter, "--requests")?),
            "--concurrency" => concurrency = Some(take_parsed(&mut iter, "--concurrency")?),
            "--seed" => seed = Some(take_parsed(&mut iter, "--seed")?),
            "--upload-every" => upload_every = Some(take_parsed(&mut iter, "--upload-every")?),
            "--smoke" => smoke = true,
            "--chaos" => chaos = Some(take_parsed(&mut iter, "--chaos")?),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown `loadtest` argument `{flag}`"));
            }
            target if url.is_none() => url = Some(target.to_string()),
            extra => return Err(format!("unexpected `loadtest` argument `{extra}`")),
        }
    }
    let url = url.ok_or("`loadtest` needs the service URL (e.g. http://127.0.0.1:7878)")?;
    let addr = loadtest::parse_service_url(&url)?;
    let mut options = if smoke {
        loadtest::LoadtestOptions::smoke(addr)
    } else {
        loadtest::LoadtestOptions::new(addr)
    };
    if let Some(requests) = requests {
        if requests == 0 {
            return Err("`--requests` must be at least 1".to_string());
        }
        options.requests = requests;
    }
    if let Some(concurrency) = concurrency {
        if concurrency == 0 {
            return Err("`--concurrency` must be at least 1".to_string());
        }
        options.concurrency = concurrency;
    }
    if let Some(seed) = seed {
        options.seed = seed;
    }
    if let Some(every) = upload_every {
        options.upload_every = every;
    }
    if let Some(chaos_seed) = chaos {
        println!(
            "chaos: {} adversarial legs from {} clients against http://{addr} (mix seed {}, chaos seed {chaos_seed})",
            options.requests, options.concurrency, options.seed
        );
        let report = loadtest::run_chaos(&options, chaos_seed)?;
        println!(
            "  {} verified, {} typed, {} transport, {} mismatches, {} unexpected — server {} ({:.2}s wall)",
            report.verified,
            report.typed_failures,
            report.transport_failures,
            report.mismatches,
            report.unexpected,
            if report.server_alive { "alive" } else { "DEAD" },
            report.wall_seconds
        );
        println!("{}", tensordash_serde::json::write(&report.document()));
        if !report.passed() {
            return Err("chaos run failed the failure-model contract".to_string());
        }
        return Ok(());
    }
    println!(
        "loadtest: {} requests from {} clients against http://{addr} (seed {})",
        options.requests, options.concurrency, options.seed
    );
    let report = loadtest::run(&options)?;
    println!(
        "  {:.2} req/s  p50 {:.1} ms  p90 {:.1} ms  p99 {:.1} ms  ({} failures, {:.2}s wall)",
        report.requests_per_sec,
        report.latency_ms_p50,
        report.latency_ms_p90,
        report.latency_ms_p99,
        report.failures,
        report.wall_seconds
    );
    println!("{}", tensordash_serde::json::write(&report.document()));
    if report.failures > 0 {
        return Err(format!("{} request(s) failed", report.failures));
    }
    Ok(())
}

fn print_list() {
    println!("named experiments (run with `tensordash run <name>`):\n");
    for exp in experiment::registry() {
        println!("  {:<17} {}", exp.name, exp.summary);
    }
    println!("  {:<17} every experiment above, in order", "all");
    println!("\nzoo models for --config files:\n");
    for model in experiment::zoo_models() {
        println!("  {:<16} {} layers", model.name, model.layers.len());
    }
    println!("\nschedulers for `--scheduler` / `[chip] scheduler` (default: tensordash):\n");
    for kind in SchedulerKind::ALL {
        println!("  {:<16} {}", kind.name(), kind.summary());
    }
}

fn run_named(names: &[String]) -> Result<(), String> {
    // Resolve everything first so a typo fails before hours of sweeps.
    let mut selected = Vec::new();
    for name in names {
        if name.eq_ignore_ascii_case("all") {
            selected.extend(experiment::registry());
        } else {
            selected.push(
                experiment::find(name).ok_or_else(|| {
                    format!("unknown experiment `{name}` (see `tensordash list`)")
                })?,
            );
        }
    }
    for exp in selected {
        println!(
            "\n=== {} {}",
            exp.name,
            "=".repeat(60_usize.saturating_sub(exp.name.len()))
        );
        exp.run();
    }
    Ok(())
}

fn run_config(
    path: &str,
    out: Option<&str>,
    trace_dir: Option<&str>,
    schedulers: &[SchedulerKind],
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec: ExperimentSpec =
        tensordash_serde::from_toml_str(&text).map_err(|e| format!("invalid `{path}`: {e}"))?;
    let workload = match &spec.eval.source {
        tensordash_sim::TraceSourceSpec::Recorded { path } => {
            format!("recorded traces `{path}`")
        }
        tensordash_sim::TraceSourceSpec::Stored { digest } => {
            format!("stored trace {digest}")
        }
        tensordash_sim::TraceSourceSpec::Calibrated if spec.models.is_empty() => {
            "full paper sweep".to_string()
        }
        tensordash_sim::TraceSourceSpec::Calibrated => spec.models.join(", "),
    };
    println!(
        "experiment `{}`: {} on {} tiles x {}x{} PEs",
        spec.name, workload, spec.chip.tiles, spec.chip.tile.rows, spec.chip.tile.cols,
    );
    // A `--trace-dir` opens the content-addressed store so `stored =
    // <DIGEST>` sources resolve; without one, recorded paths still load
    // directly from disk (the local trust model) and stored sources fail
    // validation with a pointer here.
    let store = trace_dir
        .map(|dir| {
            tensordash_store::TraceStore::open(dir)
                .map_err(|e| format!("cannot open trace store `{dir}`: {e}"))
        })
        .transpose()?;
    if !schedulers.is_empty() {
        return run_comparison(&spec, schedulers, out, store.as_ref());
    }
    let reports = match &store {
        Some(store) => {
            let ctx = experiment::SourceContext::local().with_store(store);
            spec.run_in(&TraceCache::new(), &ctx, &mut |_, _| {})
                .map_err(|e| e.to_string())?
        }
        None => spec.run().map_err(|e| e.to_string())?,
    };
    for report in &reports {
        println!(
            "{:<16} total speedup {:.3}x",
            report.name,
            report.total_speedup()
        );
    }
    write_report(out, &spec.name, &spec.report_document(&reports))
}

/// Runs `spec` once per scheduler over one shared trace cache — the
/// traces are scheduler-independent, so every family member prices the
/// same masks and the comparison is apples-to-apples.
///
/// One scheduler behaves exactly like writing it into the spec's
/// `[chip]` table: same console lines, same JSON document, same default
/// output path. Several print a side-by-side speedup table and write a
/// single document with one full report per scheduler.
fn run_comparison(
    spec: &ExperimentSpec,
    kinds: &[SchedulerKind],
    out: Option<&str>,
    store: Option<&tensordash_store::TraceStore>,
) -> Result<(), String> {
    let cache = TraceCache::new();
    let ctx = match store {
        Some(store) => experiment::SourceContext::local().with_store(store),
        None => experiment::SourceContext::local(),
    };
    let mut runs: Vec<(SchedulerKind, ExperimentSpec, Vec<ModelReport>)> = Vec::new();
    for kind in kinds {
        let spec_k = spec.clone().with_scheduler(*kind);
        let reports = spec_k
            .run_in(&cache, &ctx, &mut |_, _| {})
            .map_err(|e| e.to_string())?;
        runs.push((*kind, spec_k, reports));
    }

    if let [(_, spec_k, reports)] = runs.as_slice() {
        for report in reports {
            println!(
                "{:<16} total speedup {:.3}x",
                report.name,
                report.total_speedup()
            );
        }
        return write_report(out, &spec.name, &spec_k.report_document(reports));
    }

    // Every run resolved the same model list in the same order (the spec
    // only differs in its scheduler), so rows line up by index.
    print!("{:<16}", "model");
    for (kind, _, _) in &runs {
        print!("  {:>10}", kind.name());
    }
    println!();
    for (row, report) in runs[0].2.iter().enumerate() {
        print!("{:<16}", report.name);
        for (_, _, reports) in &runs {
            print!("  {:>9.3}x", reports[row].total_speedup());
        }
        println!();
    }

    let members: Vec<Value> = runs
        .iter()
        .map(|(kind, spec_k, reports)| {
            let mut doc = spec_k.report_document(reports).serialize();
            if let Value::Table(fields) = &mut doc {
                fields.insert(
                    0,
                    ("scheduler".to_string(), Value::Str(kind.name().to_string())),
                );
            }
            doc
        })
        .collect();
    let document = Value::Table(vec![
        ("name".to_string(), Value::Str(spec.name.clone())),
        ("schedulers".to_string(), Value::Array(members)),
    ]);
    write_report(out, &spec.name, &document)
}

/// Writes a report document to `--out` when given, or to the results
/// directory under `<name>.json` otherwise.
fn write_report<T: Serialize + ?Sized>(
    out: Option<&str>,
    name: &str,
    document: &T,
) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, tensordash_serde::json::write(document))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("  -> wrote {path}");
            Ok(())
        }
        None => experiment::write_json_report(&format!("{name}.json"), document)
            .map(|_| ())
            .map_err(|e| format!("cannot write report for `{name}`: {e}")),
    }
}
