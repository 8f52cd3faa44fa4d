//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <cold_headline|warm_sweep|service_mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that calls each layer in turn and reports
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` next to this crate for what each workload is for.

mod http;
mod models;
mod service;
mod spans;
mod stats;

use stats::{Metrics, Reconciliation};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["cold_headline", "warm_sweep", "service_mix"];

/// The traced run's layers must explain its wall within this share.
const RECONCILE_TOLERANCE_PCT: f64 = 10.0;

/// One run's command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: String,
    /// Every input derives from this.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// The traced run instead of the end-to-end one.
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: evaluations or requests.
    pub attempted: u64,
    /// Operations that errored, got a non-2xx reply, or failed a check.
    pub failed: u64,
    /// The catalogue this run reports.
    pub metrics: Metrics,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match service::serve_child(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match (run.workload.as_str(), run.trace) {
        ("cold_headline", false) => Ok(models::run(models::Kind::ColdHeadline, &run)),
        ("cold_headline", true) => models::run_traced(models::Kind::ColdHeadline, &run),
        ("warm_sweep", false) => Ok(models::run(models::Kind::WarmSweep, &run)),
        ("warm_sweep", true) => models::run_traced(models::Kind::WarmSweep, &run),
        ("service_mix", trace) => service::run(&run, trace),
        _ => unreachable!("parse accepts only known workloads"),
    };
    match outcome.and_then(|o| emit(&run, &o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` got `{value}`, expected a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` got `{value}`, expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("`--seconds` is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("`--seconds` must be from 1 to 600".to_string());
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("`--seed` is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("`--trace` is required")?,
    })
}

/// Prints the stamp, the notes, every metric with its unit, and last the
/// one-line JSON result.
fn emit(run: &RunArgs, outcome: &Outcome) -> Result<(), String> {
    let rows = outcome.metrics.rows()?;
    if outcome.attempted == 0 {
        return Err("the run attempted no operation".to_string());
    }
    println!("{}", stamp(run));
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  failed_ratio {:.6} ({} failed of {} attempted)",
        stats::failed_ratio(outcome.attempted, outcome.failed),
        outcome.failed,
        outcome.attempted
    );
    for (name, value, unit) in &rows {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// What a result depends on besides the code: the host's cores, the
/// thread counts, the clients, the seed and the commit.
fn stamp(run: &RunArgs) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let service = run.workload == "service_mix";
    // The traced in-process runs simulate at one thread; the server and
    // the untraced runs use the session default.
    let sim_threads = if run.trace && !service {
        1
    } else {
        nproc.min(8)
    };
    format!(
        "perfbench {} seed {} trace {}: nproc {nproc}, sim_threads {sim_threads}, server_workers {}, clients {}, commit {}",
        run.workload,
        run.seed,
        u8::from(run.trace),
        if service {
            tensordash_bench::ServiceConfig::default().workers.to_string()
        } else {
            "-".to_string()
        },
        if service { service::CLIENTS } else { 1 },
        commit()
    )
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository; `unknown` otherwise.
fn commit() -> String {
    let git_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    std::process::Command::new("git")
        .arg("--git-dir")
        .arg(git_dir)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where runs leave spans and temporary stores: `out/` beside this crate.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans to `out/spans-<workload>-<seed>.jsonl`
/// and returns the line that says where.
pub fn write_spans(spans: &[spans::Span], run: &RunArgs) -> String {
    let out = out_dir().join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
    match spans::write_jsonl(spans, &out) {
        Ok(()) => format!("{} spans written to {}", spans.len(), out.display()),
        Err(e) => format!("spans not written to {}: {e}", out.display()),
    }
}

/// SplitMix64: derives every seed the workloads use from `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Records the reconciliation and overhead metrics of a traced run and
/// returns the lines that print them.
pub fn set_trace_metrics(
    metrics: &mut Metrics,
    spans: &[spans::Span],
    recon: Reconciliation,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    root: &str,
) -> Vec<String> {
    let overhead = stats::overhead_pct(traced_wall_s, untraced_wall_s);
    metrics.set("trace.wall_s", recon.wall_s);
    metrics.set("trace.layer_sum_s", recon.layer_sum_s);
    metrics.set("trace.unaccounted_pct", recon.unaccounted_pct());
    metrics.set("trace.untraced_wall_s", untraced_wall_s);
    metrics.set("trace.overhead_pct", overhead);
    vec![
        format!(
            "self times: {}",
            spans::self_time_by_name(spans)
                .iter()
                .map(|(name, secs)| format!("{name} {secs:.4} s"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "reconcile: layer self times {:.4} s of {:.4} s traced `{root}` wall ({:+.2}% unaccounted; within {RECONCILE_TOLERANCE_PCT}%: {})",
            recon.layer_sum_s,
            recon.wall_s,
            recon.unaccounted_pct(),
            if recon.within(RECONCILE_TOLERANCE_PCT) { "yes" } else { "NO" }
        ),
        format!(
            "tracing overhead: traced wall {traced_wall_s:.4} s against untraced wall {untraced_wall_s:.4} s for the same work ({overhead:+.2}%)"
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn workload_names_follow_the_grammar() {
        assert!(WORKLOADS.iter().all(|w| stats::valid_name(w)));
    }

    #[test]
    fn parse_accepts_the_benchmark_command_line_and_rejects_the_rest() {
        let run = parse(&args(&[
            "--workload",
            "warm_sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(run.workload, "warm_sweep");
        assert_eq!(run.seed, 7);
        assert!(run.trace);
        assert!(parse(&args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "--workload",
            "warm_sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "--workload",
            "warm_sweep",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse(&args(&["--workload"])).is_err());
    }
}
