//! The perf-tracking harness behind `tensordash bench`.
//!
//! Every PR runs the same fixed workload set and commits the resulting
//! `BENCH_<n>.json` at the repository root, so the project keeps a
//! performance trajectory the next change has to beat:
//!
//! * **kernel** — scheduler step throughput (`step_masks` vs the scalar
//!   reference search), plus whole row-group throughput: 16 streams as
//!   four Table 2 row-groups stepped in flight by one `run_masks_arena`
//!   call (the headline), the same streams one group per call, and the
//!   per-step engine-dispatch reference;
//! * **schedulers** — the scheduler family side by side over one fixed
//!   row-group arena: each member's modeled speedup, and the row-group
//!   masks/s of every member except the arithmetic `dense` one;
//! * **sharding** — the intra-run parallelism measurement: one
//!   transformer-scale model (the ViT-L MLP pair of GEMMs) evaluated
//!   over warm traces at 1 worker vs 8, reports asserted byte-equal;
//! * **trace** — the trace pipeline feeding that kernel: bit-packed
//!   extraction throughput vs the per-element reference walk
//!   ([`extract_op_trace_reference`]), synthetic arena-generation
//!   throughput, and the warm-cache model-evaluation speedup (the
//!   [`TraceCache`] contract);
//! * **models** — a fixed subset of the zoo evaluated end to end:
//!   wall-clock seconds, simulated TensorDash compute cycles, simulated
//!   cycles per wall second, and the model's speedup over the dense
//!   baseline (the speedups are deterministic and double as a sanity
//!   check that perf work never changed results);
//! * **source** — the train→record→replay legs of the `TraceSource`
//!   pipeline: live training-epoch trace production, artifact
//!   serialization, and recorded-artifact replay throughput;
//! * **store** — the `tensordash-trace/2` binary leg over the identical
//!   workload: v2 pack (encode) throughput and binary-artifact replay
//!   (decode + `layer_ops`) throughput, directly comparable to
//!   `source.replay_masks_per_sec` (the JSON leg);
//! * **service** — traffic throughput of an in-process `tensordash
//!   serve` (with a content-addressed trace store attached) under the
//!   deterministic `loadtest` mix, including the upload + stored-replay
//!   leg: completed experiments per second and p50/p99 submit→report
//!   latency.
//!
//! Every wall/throughput metric comes from one round-robin sampler. Each
//! section builds its workload and registers its timed legs, a closure
//! plus the units of work one call does. The sampler calibrates each leg
//! once so that a timed sample clears a ~10 ms floor, then runs every leg
//! once per round, in registration order, until a fixed wall has passed,
//! and keeps each leg's fastest sample. A shared host's speed moves in
//! regimes lasting seconds, and interference only ever adds time: a
//! best-of taken within one second of a run reads the regime, while one
//! taken across a wall longer than a regime reads the code.
//!
//! `tensordash bench --smoke` runs the same legs over smaller workloads
//! for CI, and `tensordash bench --baseline BENCH_<n>.json`
//! diffs the run against a committed baseline, failing on throughput
//! regressions (see [`diff_against_baseline`]).

use crate::harness::{ModelEval, TraceCache};
use crate::train::{capture_training, TrainOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;
use tensordash_core::{
    PeGeometry, Scheduler, SchedulerKind, SparsityScheduler, StepOutcome, MAX_DEPTH,
};
use tensordash_models::paper_models;
use tensordash_serde::{Serialize, Value};
use tensordash_sim::{ChipConfig, EvalSpec, Simulator};
use tensordash_tensor::Tensor;
use tensordash_trace::{
    extract_op_trace, extract_op_trace_reference, ClusteredSparsity, ConvDims, LayerTensors,
    OpTrace, RecordedSource, SampleSpec, SparsityGen, TraceRecording, TraceRequest, TraceSource,
    TrainingOp,
};

/// How `tensordash bench` should run.
#[derive(Debug, Clone, Default)]
pub struct BenchOptions {
    /// Seconds-scale CI variant: tiny workloads, same measurement path.
    pub smoke: bool,
    /// Explicit output path; `None` picks the next `BENCH_<n>.json` in the
    /// current directory.
    pub out: Option<PathBuf>,
    /// A committed `BENCH_<n>.json` to diff throughput against.
    pub baseline: Option<PathBuf>,
}

/// Scheduler-kernel throughput: the hot path measured in isolation.
#[derive(Debug, Clone, Copy)]
pub struct KernelBench {
    /// Single-window scheduling steps per second through the batched
    /// kernel (`step_masks`, one window per call).
    pub steps_per_sec_batched: f64,
    /// Single-window scheduling steps per second, scalar reference.
    pub steps_per_sec_reference: f64,
    /// Row-group masks scheduled per second by `run_masks_arena` with
    /// four Table 2 row-groups of 4 streams in flight in one call — the
    /// headline rate the `--baseline` gate watches.
    pub group_masks_per_sec_batched: f64,
    /// The same streams through `run_masks_arena` one row-group per call.
    /// Kept measured so a silent fallback to one group in flight shows as
    /// `in_flight_speedup()` near 1.
    pub group_masks_per_sec_one_group: f64,
    /// The same streams through the per-step engine-dispatch reference,
    /// one row-group at a time.
    pub group_masks_per_sec_reference: f64,
}

impl KernelBench {
    /// Batched-over-reference single-step throughput ratio.
    #[must_use]
    pub fn step_speedup(&self) -> f64 {
        self.steps_per_sec_batched / self.steps_per_sec_reference
    }

    /// Four-groups-in-flight over one-group-per-call row-group throughput
    /// ratio — the guard that the in-flight path engages (checked on the
    /// release build, where it holds; see `ci.sh`).
    #[must_use]
    pub fn in_flight_speedup(&self) -> f64 {
        self.group_masks_per_sec_batched / self.group_masks_per_sec_one_group
    }

    /// Batched-over-reference row-group throughput ratio.
    #[must_use]
    pub fn group_speedup(&self) -> f64 {
        self.group_masks_per_sec_batched / self.group_masks_per_sec_reference
    }
}

/// One scheduler family member measured over the fixed row-group
/// workload. Every member consumes the **same** mask streams, so the
/// masks/s rates compare the machines' scheduling costs and the modeled
/// speedups compare what each machine would buy on identical data —
/// apples-to-apples by construction.
#[derive(Debug, Clone)]
pub struct SchedulerBench {
    /// Family member name (`tensordash`, `2to4`, `tstd`, `dense`).
    pub name: String,
    /// Row-group masks scheduled per second through the member's batched
    /// kernel; `None` for `dense`, whose run is arithmetic on the group's
    /// shape, so a rate would only measure the timer.
    pub group_masks_per_sec: Option<f64>,
    /// The member's modeled speedup over the dense baseline on the fixed
    /// workload (deterministic; doubles as a results sanity check).
    pub modeled_speedup: f64,
}

/// Trace-pipeline throughput: extraction, synthesis, and the cache.
#[derive(Debug, Clone, Copy)]
pub struct TraceBench {
    /// Extracted masks per second through the bit-packed bitmap path.
    pub extract_masks_per_sec_bitmap: f64,
    /// Extracted masks per second through the per-element reference walk.
    pub extract_masks_per_sec_reference: f64,
    /// Synthetic masks per second (clustered generator into the arena).
    pub synthetic_masks_per_sec: f64,
    /// Warm-trace-cache model evaluation speedup over the uncached path
    /// (what every chip after the first pays in a geometry sweep).
    pub cache_hit_speedup: f64,
}

impl TraceBench {
    /// Bitmap-over-reference extraction throughput ratio.
    #[must_use]
    pub fn extraction_speedup(&self) -> f64 {
        self.extract_masks_per_sec_bitmap / self.extract_masks_per_sec_reference
    }
}

/// Trace-source pipeline throughput: the train→record→replay legs of the
/// `TraceSource` abstraction, over a fixed tiny training workload that is
/// **identical in the smoke and full variants** (only sample counts
/// differ), so the rates compare across variants like the kernel rates.
#[derive(Debug, Clone, Copy)]
pub struct SourceBench {
    /// Masks per second produced by the live leg: one real training
    /// epoch plus bit-exact trace extraction.
    pub live_masks_per_sec: f64,
    /// Masks per second through the recorded leg: artifact parse plus a
    /// replayed `layer_ops` request.
    pub replay_masks_per_sec: f64,
    /// Artifact serialization throughput (recording → JSON text),
    /// bytes per second.
    pub record_bytes_per_sec: f64,
}

/// Binary trace-store throughput: the `tensordash-trace/2` leg of the
/// record→replay pipeline, over the **same fixed training workload** as
/// [`SourceBench`] — `load_masks_per_sec` counts the identical masks as
/// `source.replay_masks_per_sec`, so the two rates differ only in the
/// artifact encoding (binary decode vs JSON parse), which is the point
/// of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct StoreBench {
    /// Masks per second through the binary-store leg: v2 artifact decode
    /// plus the same replayed `layer_ops` request as the JSON leg.
    pub load_masks_per_sec: f64,
    /// v2 artifact serialization throughput (recording → binary bytes),
    /// bytes per second.
    pub pack_bytes_per_sec: f64,
    /// v2 artifact size over the v1 JSON size of the same recording —
    /// the on-disk/on-wire compression the store buys (lower is better;
    /// a sanity metric, not gated).
    pub binary_over_json_bytes: f64,
}

/// One model's end-to-end evaluation measurement.
#[derive(Debug, Clone)]
pub struct ModelBench {
    /// Zoo model name.
    pub name: String,
    /// Wall-clock seconds per full evaluation, cold traces.
    pub wall_seconds: f64,
    /// Wall-clock seconds per evaluation with the trace cache warm.
    pub wall_seconds_cached: f64,
    /// Simulated TensorDash compute cycles (scaled to the full model).
    pub cycles_simulated: u64,
    /// Simulated cycles per wall second — the headline throughput metric.
    pub cycles_per_second: f64,
    /// Deterministic speedup over the dense baseline (result sanity check).
    pub speedup: f64,
}

/// Intra-run sharding measurement: one transformer-scale model — two
/// enormous GEMMs, the single-big-item regime — evaluated end to end
/// over warm cached traces at 1 worker and at 8, same spec. The 1-thread
/// leg is the serial reduction; the 8-thread leg only wins if a single
/// (layer, op)'s windows really shard across the pool.
#[derive(Debug, Clone)]
pub struct ShardingBench {
    /// The model measured (`ViT-L-MLP`).
    pub model: String,
    /// Wall seconds per evaluation with one worker thread.
    pub wall_seconds_1_thread: f64,
    /// Wall seconds per evaluation with eight worker threads.
    pub wall_seconds_8_threads: f64,
}

impl ShardingBench {
    /// 1-thread over 8-thread wall ratio — above 1.0 when intra-run
    /// parallelism buys real wall time on one big matmul.
    #[must_use]
    pub fn parallel_speedup(&self) -> f64 {
        self.wall_seconds_1_thread / self.wall_seconds_8_threads
    }
}

/// Service-level traffic throughput: an in-process `tensordash serve`
/// under the fixed `loadtest` mix.
#[derive(Debug, Clone, Copy)]
pub struct ServiceBench {
    /// Experiments submitted per measured pass.
    pub requests: usize,
    /// Concurrent load-generator clients.
    pub concurrency: usize,
    /// Completed experiments per second (the fastest loadtest pass).
    pub requests_per_sec: f64,
    /// Median submit→report latency of that pass, milliseconds.
    pub latency_ms_p50: f64,
    /// 90th-percentile submit→report latency, milliseconds — the tail
    /// metric the loadtest reports and the baseline gate watches (p99 is
    /// a single straggler at bench request counts; p90 is stable enough
    /// to gate on).
    pub latency_ms_p90: f64,
    /// 99th-percentile submit→report latency, milliseconds.
    pub latency_ms_p99: f64,
    /// Extra attempts the load generator's retry policy made. Zero on a
    /// healthy loopback run; recorded so a bench that needed retries is
    /// visibly different from one that did not.
    pub retries: u64,
    /// Handler panics the server isolated during the run (`0` in a
    /// fault-free bench — the bench asserts it).
    pub handler_panics: u64,
    /// Jobs that hit a deadline during the run (`0`: the bench sets none).
    pub jobs_timed_out: u64,
    /// Jobs whose worker panicked during the run (`0` in a healthy run).
    pub jobs_panicked: u64,
    /// Store objects quarantined during the run (`0`: nothing rots on a
    /// scratch store the bench just created).
    pub store_quarantined: u64,
}

/// The whole `tensordash bench` measurement set.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// Whether this was the CI smoke variant.
    pub smoke: bool,
    /// Logical CPUs this process could run on (what `nproc` prints). Rates
    /// from two BENCH files only compare directly at equal counts.
    pub nproc: usize,
    /// Clock ticks of CPU the hypervisor stole from this host during the
    /// run (the 8th number of `/proc/stat`'s `cpu` line, read before and
    /// after); `None` where that file cannot be read. Recorded, not gated:
    /// the service tail latency tracks it.
    pub steal_ticks: Option<u64>,
    /// Scheduler-kernel measurements.
    pub kernel: KernelBench,
    /// Scheduler-family comparison (one entry per member, same workload).
    pub schedulers: Vec<SchedulerBench>,
    /// Trace-pipeline measurements.
    pub trace: TraceBench,
    /// Trace-source measurements (live train, record, replay).
    pub source: SourceBench,
    /// Binary trace-store measurements (v2 pack, binary replay).
    pub store: StoreBench,
    /// Per-model end-to-end measurements.
    pub models: Vec<ModelBench>,
    /// Intra-run sharding measurement (one big model, 1 vs 8 threads).
    pub sharding: ShardingBench,
    /// Service traffic measurements (`tensordash serve` + `loadtest`).
    pub service: ServiceBench,
    /// Total wall-clock seconds of the whole run.
    pub total_wall_seconds: f64,
}

impl BenchSummary {
    /// The self-describing JSON document written to `BENCH_<n>.json`.
    #[must_use]
    pub fn document(&self) -> Value {
        let kernel = Value::Table(vec![
            (
                "steps_per_sec_batched".into(),
                Value::Float(self.kernel.steps_per_sec_batched),
            ),
            (
                "steps_per_sec_reference".into(),
                Value::Float(self.kernel.steps_per_sec_reference),
            ),
            (
                "step_speedup".into(),
                Value::Float(self.kernel.step_speedup()),
            ),
            (
                "group_masks_per_sec_batched".into(),
                Value::Float(self.kernel.group_masks_per_sec_batched),
            ),
            (
                "group_masks_per_sec_one_group".into(),
                Value::Float(self.kernel.group_masks_per_sec_one_group),
            ),
            (
                "in_flight_speedup".into(),
                Value::Float(self.kernel.in_flight_speedup()),
            ),
            (
                "group_masks_per_sec_reference".into(),
                Value::Float(self.kernel.group_masks_per_sec_reference),
            ),
            (
                "group_speedup".into(),
                Value::Float(self.kernel.group_speedup()),
            ),
        ]);
        let schedulers = Value::Array(
            self.schedulers
                .iter()
                .map(|s| {
                    let mut fields = vec![("name".into(), Value::Str(s.name.clone()))];
                    if let Some(rate) = s.group_masks_per_sec {
                        fields.push(("group_masks_per_sec".into(), Value::Float(rate)));
                    }
                    fields.push(("modeled_speedup".into(), Value::Float(s.modeled_speedup)));
                    Value::Table(fields)
                })
                .collect(),
        );
        let trace = Value::Table(vec![
            (
                "extract_masks_per_sec_bitmap".into(),
                Value::Float(self.trace.extract_masks_per_sec_bitmap),
            ),
            (
                "extract_masks_per_sec_reference".into(),
                Value::Float(self.trace.extract_masks_per_sec_reference),
            ),
            (
                "extraction_speedup".into(),
                Value::Float(self.trace.extraction_speedup()),
            ),
            (
                "synthetic_masks_per_sec".into(),
                Value::Float(self.trace.synthetic_masks_per_sec),
            ),
            (
                "cache_hit_speedup".into(),
                Value::Float(self.trace.cache_hit_speedup),
            ),
        ]);
        let source = Value::Table(vec![
            (
                "live_masks_per_sec".into(),
                Value::Float(self.source.live_masks_per_sec),
            ),
            (
                "replay_masks_per_sec".into(),
                Value::Float(self.source.replay_masks_per_sec),
            ),
            (
                "record_bytes_per_sec".into(),
                Value::Float(self.source.record_bytes_per_sec),
            ),
        ]);
        let store = Value::Table(vec![
            (
                "load_masks_per_sec".into(),
                Value::Float(self.store.load_masks_per_sec),
            ),
            (
                "pack_bytes_per_sec".into(),
                Value::Float(self.store.pack_bytes_per_sec),
            ),
            (
                "binary_over_json_bytes".into(),
                Value::Float(self.store.binary_over_json_bytes),
            ),
        ]);
        let models = Value::Array(
            self.models
                .iter()
                .map(|m| {
                    Value::Table(vec![
                        ("name".into(), Value::Str(m.name.clone())),
                        ("wall_seconds".into(), Value::Float(m.wall_seconds)),
                        (
                            "wall_seconds_cached".into(),
                            Value::Float(m.wall_seconds_cached),
                        ),
                        ("cycles_simulated".into(), Value::UInt(m.cycles_simulated)),
                        (
                            "cycles_per_second".into(),
                            Value::Float(m.cycles_per_second),
                        ),
                        ("speedup".into(), Value::Float(m.speedup)),
                    ])
                })
                .collect(),
        );
        let service = Value::Table(vec![
            ("requests".into(), self.service.requests.serialize()),
            ("concurrency".into(), self.service.concurrency.serialize()),
            (
                "requests_per_sec".into(),
                Value::Float(self.service.requests_per_sec),
            ),
            (
                "latency_ms_p50".into(),
                Value::Float(self.service.latency_ms_p50),
            ),
            (
                "latency_ms_p90".into(),
                Value::Float(self.service.latency_ms_p90),
            ),
            (
                "latency_ms_p99".into(),
                Value::Float(self.service.latency_ms_p99),
            ),
            ("retries".into(), self.service.retries.serialize()),
            (
                "handler_panics".into(),
                self.service.handler_panics.serialize(),
            ),
            (
                "jobs_timed_out".into(),
                self.service.jobs_timed_out.serialize(),
            ),
            (
                "jobs_panicked".into(),
                self.service.jobs_panicked.serialize(),
            ),
            (
                "store_quarantined".into(),
                self.service.store_quarantined.serialize(),
            ),
        ]);
        let sharding = Value::Table(vec![
            ("model".into(), Value::Str(self.sharding.model.clone())),
            (
                "wall_seconds_1_thread".into(),
                Value::Float(self.sharding.wall_seconds_1_thread),
            ),
            (
                "wall_seconds_8_threads".into(),
                Value::Float(self.sharding.wall_seconds_8_threads),
            ),
            (
                "parallel_speedup".into(),
                Value::Float(self.sharding.parallel_speedup()),
            ),
        ]);
        let mut doc = vec![
            ("schema".into(), Value::Str(BENCH_SCHEMA.into())),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("nproc".into(), self.nproc.serialize()),
        ];
        if let Some(ticks) = self.steal_ticks {
            doc.push(("steal_ticks".into(), ticks.serialize()));
        }
        doc.extend([
            ("kernel".into(), kernel),
            ("schedulers".into(), schedulers),
            ("trace".into(), trace),
            ("source".into(), source),
            ("store".into(), store),
            ("models".into(), models),
            ("sharding".into(), sharding),
            ("service".into(), service),
            (
                "total_wall_seconds".into(),
                Value::Float(self.total_wall_seconds),
            ),
        ]);
        Value::Table(doc)
    }
}

/// Picks the next free `BENCH_<n>.json` (starting at `BENCH_2.json` — the
/// harness landed in PR 2 — so the file sequence tracks the PR sequence
/// without coordination).
///
/// The scan is anchored at the enclosing repository root (the nearest
/// ancestor containing `.git`), falling back to the current directory, so
/// the committed trajectory is found and continued no matter where the
/// CLI is invoked from.
#[must_use]
pub fn next_bench_path() -> PathBuf {
    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = start
        .ancestors()
        .find(|dir| dir.join(".git").exists())
        .map_or(start.clone(), std::path::Path::to_path_buf);
    next_bench_path_in(&root)
}

/// As [`next_bench_path`], scanning an explicit directory.
#[must_use]
pub fn next_bench_path_in(dir: &std::path::Path) -> PathBuf {
    let mut next = 2u32;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u32>().ok())
            {
                next = next.max(n + 1);
            }
        }
    }
    dir.join(format!("BENCH_{next}.json"))
}

/// How long the sampler cycles through the legs: longer than the speed
/// regimes of a busy host (10–20 s on the 2-core reference host), so each
/// leg's fastest sample lands in a fast one. Debug builds run one round:
/// their rates gate nothing.
const SAMPLE_WALL: f64 = if cfg!(debug_assertions) { 0.0 } else { 20.0 };

/// The round-robin sampler behind every timed metric (see the module
/// doc). Each leg owns its workload, so a section registers its legs and
/// returns before any of them runs.
#[derive(Default)]
struct Sampler {
    legs: Vec<(f64, Box<dyn FnMut()>)>,
}

impl Sampler {
    /// Registers a leg that does `units` of work per call, and returns its
    /// index into [`Sampler::run`]'s rates.
    fn leg(&mut self, units: f64, routine: impl FnMut() + 'static) -> usize {
        self.legs.push((units, Box::new(routine)));
        self.legs.len() - 1
    }

    /// Calibrates each leg to the floor, then times one sample of every leg
    /// per round, in registration order, until `wall` seconds of `now`
    /// have passed (one round at least). Returns each leg's units per
    /// second at its fastest sample.
    fn run(mut self, wall: f64, now: impl Fn() -> f64) -> Vec<f64> {
        // Cheap routines repeat until a sample's wall clears ~10 ms, so they
        // report a real rate instead of dividing by timer jitter.
        const FLOOR: f64 = 0.01;
        let time = |routine: &mut Box<dyn FnMut()>, calls: usize| {
            let start = now();
            (0..calls).for_each(|_| routine());
            now() - start
        };
        let calls: Vec<usize> = self
            .legs
            .iter_mut()
            .map(|(_, routine)| {
                let mut n = 1usize;
                loop {
                    let elapsed = time(routine, n);
                    if elapsed >= FLOOR {
                        return n;
                    }
                    // Overshoot the floor 2x so calibration settles in a step or two.
                    let scale = (FLOOR / elapsed.max(1e-9) * 2.0).ceil() as usize;
                    n = n.saturating_mul(scale.max(2));
                }
            })
            .collect();
        let mut best = vec![f64::INFINITY; self.legs.len()];
        let start = now();
        loop {
            for (((_, routine), &n), best) in self.legs.iter_mut().zip(&calls).zip(&mut best) {
                *best = best.min(time(routine, n) / n as f64);
            }
            if now() - start >= wall {
                break;
            }
        }
        self.legs
            .iter()
            .zip(best)
            .map(|((units, _), seconds)| units / seconds)
            .collect()
    }
}

/// The host's CPU steal so far, in clock ticks: the 8th number of
/// `/proc/stat`'s `cpu` line, or `None` where that cannot be read.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn random_masks(seed: u64, rows: usize, density: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let mut mask = 0u64;
            for lane in 0..16 {
                if rng.gen_bool(density) {
                    mask |= 1 << lane;
                }
            }
            mask
        })
        .collect()
}

/// Rows per stream of the kernel bench's row-group legs. The smoke and
/// full variants time the same streams, so the group rates compare
/// across variants.
const KERNEL_GROUP_ROWS: usize = 2048;

/// Registers the scheduler kernel's legs, single-window steps and whole
/// row-groups, batched vs reference, over a fixed mixed-density workload;
/// the returned closure reads their rates.
fn bench_kernel(sampler: &mut Sampler) -> impl FnOnce(&[f64]) -> KernelBench {
    let scheduler = Scheduler::paper(PeGeometry::paper());
    // One step leg per density level, over 512 staging windows: windows
    // of one operation share a sparsity level, so density-homogeneous
    // batches are the representative workload shape, and 512 windows x 32
    // bytes stay L1-resident, so the legs time the kernel's compute, not
    // the memory streaming of synthetic inputs.
    let mut rng = StdRng::seed_from_u64(0xDA5A);
    let batches: Vec<Rc<Vec<[u64; MAX_DEPTH]>>> = [0.1, 0.35, 0.6, 0.9]
        .into_iter()
        .map(|density| {
            let windows = (0..512).map(|_| {
                let mut z = [0u64; MAX_DEPTH];
                for row in z.iter_mut().take(3) {
                    let mut mask = 0u64;
                    for lane in 0..16 {
                        if rng.gen_bool(density) {
                            mask |= 1 << lane;
                        }
                    }
                    *row = mask;
                }
                z
            });
            Rc::new(windows.collect())
        })
        .collect();
    let mut step_legs = |step: fn(&Scheduler, &mut [u64; MAX_DEPTH]) -> StepOutcome| {
        let legs = batches.iter().map(|batch| {
            let (scheduler, batch) = (scheduler.clone(), Rc::clone(batch));
            sampler.leg(batch.len() as f64, move || {
                let macs: usize = batch
                    .iter()
                    .map(|w| step(&scheduler, &mut { *w }).macs)
                    .sum();
                black_box(macs);
            })
        });
        legs.collect::<Vec<_>>()
    };
    let step_batched = step_legs(Scheduler::step_masks);
    let step_reference = step_legs(Scheduler::step_masks_reference);

    // Whole row-groups: four Table 2 groups of 4 streams (the paper
    // tile's rows), back to back in one arena as the simulator feeds a
    // bundle. The headline leg steps all four in flight in one call; the
    // one-group leg prices the same streams a group per call. The two legs
    // are adjacent, so every round times them back to back: a change in
    // the host's speed lands on both, and their ratio reads the code.
    let rows = KERNEL_GROUP_ROWS;
    let streams = group_streams(4, rows);
    let arena = Rc::new(streams.concat());
    let masks = arena.len() as f64;
    let group_batched = sampler.leg(masks, {
        let (scheduler, arena) = (scheduler.clone(), Rc::clone(&arena));
        move || {
            black_box(scheduler.run_masks_arena(&arena, rows, 4));
        }
    });
    let group_one = sampler.leg(masks, {
        let scheduler = scheduler.clone();
        move || {
            for group in arena.chunks(4 * rows) {
                black_box(scheduler.run_masks_arena(group, rows, 4));
            }
        }
    });
    let group_reference = sampler.leg(masks, move || {
        for group in streams.chunks(4) {
            let group: Vec<&[u64]> = group.iter().map(Vec::as_slice).collect();
            black_box(scheduler.run_masks_batched_reference(&group));
        }
    });

    move |rate| {
        // Equal windows per level: the step rate is their count over the
        // levels' summed seconds.
        let steps = |legs: Vec<usize>| {
            legs.len() as f64 / legs.iter().map(|&leg| 1.0 / rate[leg]).sum::<f64>()
        };
        KernelBench {
            steps_per_sec_batched: steps(step_batched),
            steps_per_sec_reference: steps(step_reference),
            group_masks_per_sec_batched: rate[group_batched],
            group_masks_per_sec_one_group: rate[group_one],
            group_masks_per_sec_reference: rate[group_reference],
        }
    }
}

/// The fixed row-group workload of the kernel group legs and the
/// scheduler-family section: `groups` row-groups of 4 streams (the paper
/// tile's rows) of `stream_rows` masks, each group at mixed densities.
fn group_streams(groups: u64, stream_rows: usize) -> Vec<Vec<u64>> {
    (0..groups)
        .flat_map(|g| {
            [0.15, 0.35, 0.5, 0.75]
                .iter()
                .enumerate()
                .map(move |(i, &density)| random_masks(7 + 4 * g + i as u64, stream_rows, density))
        })
        .collect()
}

/// Registers one leg per scheduler family member over one fixed
/// row-group workload: the kernel group legs' first row-group of 4
/// mixed-density streams, in one arena, run through each member's batched
/// kernel. The sampler's floor lets the cheap structured members report
/// commensurable masks/s instead of timer jitter; `dense` is not timed at
/// all (its run is arithmetic on the group's shape). The modeled speedups
/// are deterministic (same seeds every run) and double as a results sanity
/// check: `dense` must read exactly 1.0 and `tensordash` must beat the
/// 2×-capped structured members at these densities.
fn bench_schedulers(
    smoke: bool,
    sampler: &mut Sampler,
) -> impl FnOnce(&[f64]) -> Vec<SchedulerBench> {
    let stream_rows = if smoke { 512 } else { 16_384 };
    let arena = Rc::new(group_streams(1, stream_rows).concat());
    let members: Vec<_> = SchedulerKind::ALL
        .iter()
        .map(|&kind| {
            let scheduler = SparsityScheduler::new(kind, PeGeometry::paper());
            let run = scheduler.run_masks_arena(&arena, stream_rows, 4);
            let modeled_speedup = run.dense_cycles as f64 / run.cycles.max(1) as f64;
            let arena = Rc::clone(&arena);
            let leg = (kind != SchedulerKind::Dense).then(|| {
                sampler.leg(arena.len() as f64, move || {
                    black_box(scheduler.run_masks_arena(&arena, stream_rows, 4));
                })
            });
            (kind, leg, modeled_speedup)
        })
        .collect();
    move |rate| {
        members
            .into_iter()
            .map(|(kind, leg, modeled_speedup)| SchedulerBench {
                name: kind.name().to_string(),
                group_masks_per_sec: leg.map(|leg| rate[leg]),
                modeled_speedup,
            })
            .collect()
    }
}

/// The fixed extraction workload: one realistically-sized conv layer's
/// tensors at mid-training sparsity.
fn extraction_workload(smoke: bool) -> (ConvDims, Tensor, Tensor, Tensor) {
    let d = if smoke {
        ConvDims::conv_square(1, 32, 10, 32, 3, 1, 1)
    } else {
        ConvDims::conv_square(2, 64, 28, 64, 3, 1, 1)
    };
    let (ho, wo) = d.output_hw();
    let mut rng = StdRng::seed_from_u64(0x7ACE);
    let mut sparse = |dims: &[usize], density: f64| {
        Tensor::from_fn(dims, |_| {
            if rng.gen_bool(density) {
                rng.gen_range(0.1f32..1.0)
            } else {
                0.0
            }
        })
    };
    let a = sparse(&[d.n, d.c, d.h, d.w], 0.45);
    let w = sparse(&[d.f, d.c, d.kh, d.kw], 1.0);
    let g = sparse(&[d.n, d.f, ho, wo], 0.55);
    (d, a, w, g)
}

/// Registers the trace pipeline's legs: full-layer extraction (every
/// window of all three training ops) through the bitmap path vs the
/// per-element reference, synthetic arena generation, and model
/// evaluation with cold and warm traces.
fn bench_trace(smoke: bool, sampler: &mut Sampler) -> impl FnOnce(&[f64]) -> TraceBench {
    let (d, a, w, g) = extraction_workload(smoke);
    let layer = Rc::new((a, w, g));
    // Every window of the operation, full stream depth: the overlap between
    // adjacent conv windows is the point of the bitmap path.
    let sample = SampleSpec::new(usize::MAX >> 1, usize::MAX >> 1);
    let extraction = |extract: fn(&LayerTensors<'_>, TrainingOp, usize, &SampleSpec) -> OpTrace| {
        let layer = Rc::clone(&layer);
        move || {
            let (a, w, g) = &*layer;
            let tensors = LayerTensors {
                dims: d,
                activations: a,
                weights: w,
                grad_out: g,
                output_nonzero: None,
            };
            TrainingOp::ALL.map(|op| extract(&tensors, op, 16, &sample))
        }
    };
    let bitmap = extraction(extract_op_trace);
    let masks_per_pass: usize = bitmap().iter().map(|t| t.arena_masks().len()).sum();
    let bitmap = sampler.leg(masks_per_pass as f64, move || {
        black_box(bitmap());
    });
    let reference = extraction(extract_op_trace_reference);
    let reference = sampler.leg(masks_per_pass as f64, move || {
        black_box(reference());
    });

    // Synthetic generation throughput over the same geometry.
    let gen = ClusteredSparsity::new(0.55, 0.3);
    let gen_sample = SampleSpec::new(64, 512);
    let gen_trace = move || gen.op_trace(d, TrainingOp::Forward, 16, &gen_sample, 1);
    let synthetic = sampler.leg(gen_trace().arena_masks().len() as f64, move || {
        black_box(gen_trace());
    });

    // Warm-cache evaluation: what the second chip of a sweep pays.
    let sim = Simulator::new(ChipConfig::paper());
    let model = paper_models().swap_remove(0); // AlexNet
    let spec = EvalSpec::builder()
        .streams(8, 64)
        .progress(0.45)
        .seed(0xDA5A)
        .build()
        .expect("valid cache-bench spec");
    let cache = TraceCache::new();
    let _ = sim.eval_model_cached(&model, &spec, &cache, &model.name); // fill
    let cold = sampler.leg(1.0, {
        let (sim, model, spec) = (sim.clone(), model.clone(), spec.clone());
        move || {
            black_box(sim.eval_model(&model, &spec));
        }
    });
    let warm = sampler.leg(1.0, move || {
        black_box(sim.eval_model_cached(&model, &spec, &cache, &model.name));
    });

    move |rate| TraceBench {
        extract_masks_per_sec_bitmap: rate[bitmap],
        extract_masks_per_sec_reference: rate[reference],
        synthetic_masks_per_sec: rate[synthetic],
        cache_hit_speedup: rate[warm] / rate[cold],
    }
}

/// The fixed training workload of the source and store sections: the
/// trainer options, the recording of one epoch, the request that replays
/// it and its mask count. It is the `--smoke` trainer configuration in
/// **both** variants, so these rates stay commensurable across smoke/full
/// runs, which is what lets CI's smoke run gate them against a committed
/// full-run baseline.
fn training_workload() -> (TrainOptions, TraceRecording, TraceRequest, f64) {
    let options = TrainOptions {
        name: "bench".to_string(),
        epochs: 1,
        batch_size: 32,
        seed: 0xDA5A,
        smoke: true, // the fixed tiny workload, in both variants
        ..TrainOptions::default()
    };
    let recording = capture_training(&options).expect("bench training workload");
    let masks: usize = recording
        .epochs
        .iter()
        .flat_map(|e| e.layers.iter())
        .flat_map(|(_, ops)| ops.iter())
        .map(|t| t.arena_masks().len())
        .sum();
    let request = TraceRequest {
        progress: 0.0,
        lanes: recording.meta.lanes,
        sample: recording.meta.sample,
        seed: 0,
    };
    (options, recording, request, masks as f64)
}

/// Registers the trace-source pipeline's legs: one live training epoch
/// with trace extraction, artifact serialization, and recorded replay
/// (parse + `layer_ops`).
fn bench_source(sampler: &mut Sampler) -> impl FnOnce(&[f64]) -> SourceBench {
    let (options, recording, request, masks) = training_workload();
    let text = recording.to_json();
    let live = sampler.leg(masks, move || {
        black_box(capture_training(&options).expect("bench training workload"));
    });
    let record = sampler.leg(text.len() as f64, move || {
        black_box(recording.to_json());
    });
    let replay = sampler.leg(masks, move || {
        let source = RecordedSource::from_json(&text).expect("bench artifact");
        black_box(source.layer_ops(&request).expect("bench replay"));
    });
    move |rate| SourceBench {
        live_masks_per_sec: rate[live],
        replay_masks_per_sec: rate[replay],
        record_bytes_per_sec: rate[record],
    }
}

/// Registers the binary trace-store legs: `tensordash-trace/2` pack
/// (encode) and binary replay (decode + `layer_ops`), over the
/// **identical** training workload as [`bench_source`] — masks are counted
/// the same way, so `store.load_masks_per_sec /
/// source.replay_masks_per_sec` is exactly the binary-over-JSON replay
/// speedup the v2 format exists to buy.
fn bench_store(sampler: &mut Sampler) -> impl FnOnce(&[f64]) -> StoreBench {
    let (_, recording, request, masks) = training_workload();
    let bytes = recording.to_bytes();
    let binary_over_json_bytes = bytes.len() as f64 / recording.to_json().len() as f64;
    let pack = sampler.leg(bytes.len() as f64, move || {
        black_box(recording.to_bytes());
    });
    let load = sampler.leg(masks, move || {
        let source = RecordedSource::from_bytes(&bytes).expect("bench v2 artifact");
        black_box(source.layer_ops(&request).expect("bench store replay"));
    });
    move |rate| StoreBench {
        load_masks_per_sec: rate[load],
        pack_bytes_per_sec: rate[pack],
        binary_over_json_bytes,
    }
}

/// Registers two legs per model of the fixed workload set, an end-to-end
/// evaluation with cold traces and one with the trace cache warm.
fn bench_models(smoke: bool, sampler: &mut Sampler) -> impl FnOnce(&[f64]) -> Vec<ModelBench> {
    let sim = Simulator::new(ChipConfig::paper());
    let (names, spec): (&[&str], EvalSpec) = if smoke {
        (
            &["AlexNet"],
            EvalSpec::builder()
                .streams(4, 32)
                .progress(0.45)
                .seed(0xDA5A)
                .build()
                .expect("valid smoke eval spec"),
        )
    } else {
        (
            &["AlexNet", "SqueezeNet", "resnet50_DS90"],
            EvalSpec::builder()
                .streams(16, 256)
                .progress(0.45)
                .seed(0xDA5A)
                .build()
                .expect("valid bench eval spec"),
        )
    };
    let zoo = paper_models();
    let models: Vec<_> = names
        .iter()
        .map(|&name| {
            let model = zoo
                .iter()
                .find(|m| m.name == name)
                .expect("bench workload model is in the zoo")
                .clone();
            let report = sim.eval_model(&model, &spec);
            let cache = TraceCache::new();
            let _ = sim.eval_model_cached(&model, &spec, &cache, name);
            let cold = sampler.leg(1.0, {
                let (sim, model, spec) = (sim.clone(), model.clone(), spec.clone());
                move || {
                    black_box(sim.eval_model(&model, &spec));
                }
            });
            let (sim, spec) = (sim.clone(), spec.clone());
            let cached = sampler.leg(1.0, move || {
                black_box(sim.eval_model_cached(&model, &spec, &cache, name));
            });
            let cycles = report.tensordash_counters().compute_cycles;
            (name, cycles, report.total_speedup(), cold, cached)
        })
        .collect();
    move |rate| {
        models
            .into_iter()
            .map(
                |(name, cycles_simulated, speedup, cold, cached)| ModelBench {
                    name: name.to_string(),
                    wall_seconds: 1.0 / rate[cold],
                    wall_seconds_cached: 1.0 / rate[cached],
                    cycles_simulated,
                    cycles_per_second: cycles_simulated as f64 * rate[cold],
                    speedup,
                },
            )
            .collect()
    }
}

/// Registers what intra-run sharding buys on the single-big-item regime:
/// the ViT-L MLP block (two transformer-scale GEMMs — too few (layer,
/// op) items to occupy a pool by themselves) evaluated over warm cached
/// traces at 1 worker and at 8. Before registering, the two reports are
/// asserted byte-equal: the thread count may only move wall time, never
/// results.
fn bench_sharding(smoke: bool, sampler: &mut Sampler) -> impl FnOnce(&[f64]) -> ShardingBench {
    use tensordash_models::vit_l_mlp;

    let model = vit_l_mlp();
    // Enough sampled windows that each op splits into several work
    // items (a bundle is four row-groups of the 4-row tile: windows / 16
    // bundles).
    let spec = EvalSpec::builder()
        .streams(if smoke { 64 } else { 256 }, 128)
        .progress(0.5)
        .seed(0xDA5A)
        .build()
        .expect("valid sharding bench spec");
    let cache = Rc::new(TraceCache::new());
    let serial = Simulator::new(ChipConfig::paper()).with_threads(1);
    let pooled = Simulator::new(ChipConfig::paper()).with_threads(8);
    // Warm the cache and pin down determinism across pools.
    let reference = serial.eval_model_cached(&model, &spec, &cache, &model.name);
    assert_eq!(
        pooled.eval_model_cached(&model, &spec, &cache, &model.name),
        reference,
        "thread count must never change results"
    );
    let mut wall_leg = |sim: Simulator| {
        let (model, spec, cache) = (model.clone(), spec.clone(), Rc::clone(&cache));
        sampler.leg(1.0, move || {
            black_box(sim.eval_model_cached(&model, &spec, &cache, &model.name));
        })
    };
    let (one_thread, eight_threads) = (wall_leg(serial), wall_leg(pooled));
    move |rate| ShardingBench {
        model: model.name,
        wall_seconds_1_thread: 1.0 / rate[one_thread],
        wall_seconds_8_threads: 1.0 / rate[eight_threads],
    }
}

/// Service-level traffic throughput: boots an in-process `tensordash
/// serve` (with a content-addressed trace store in a scratch
/// `--trace-dir`, so the upload + stored-replay leg of the mix is
/// exercised) on an ephemeral port, and registers one pass of the
/// deterministic `loadtest` mix through it as a leg. The fastest pass
/// supplies the rate and the latencies; the returned closure also
/// scrapes the server's fault counters and shuts it down.
///
/// Both variants fire the **identical per-request workload** — smoke only
/// trims the request count, not the 1-in-8 upload mix — so
/// `requests_per_sec` is commensurable between a CI smoke run and a
/// committed full-run baseline, like the kernel rates and unlike the
/// trace/model sections.
///
/// # Panics
///
/// Panics when the loopback server cannot be bound or the load generator
/// cannot reach it — on a bench host that is a broken environment, not a
/// measurement.
fn bench_service(smoke: bool, sampler: &mut Sampler) -> impl FnOnce(&[f64]) -> ServiceBench {
    use crate::loadtest::{self, LoadtestOptions, LoadtestReport};
    use crate::service::{Service, ServiceConfig};

    let trace_dir =
        std::env::temp_dir().join(format!("tensordash-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&trace_dir).expect("cannot create the bench trace directory");
    let service = Service::bind(&ServiceConfig {
        workers: 4,
        connection_threads: 8,
        trace_dir: Some(trace_dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("cannot bind the loopback bench service");
    let addr = service.local_addr();
    let running = service.spawn();

    let mut options = LoadtestOptions::new(addr);
    options.concurrency = 8;
    options.upload_every = 8;
    // The smoke variant trims request count, not the per-request
    // workload — but not below ~4 waves of 8, or ramp-up/down dominates
    // the rate and smoke runs read artificially slow against a full-run
    // baseline.
    options.requests = if smoke { 32 } else { 64 };
    let fastest: Rc<RefCell<Option<LoadtestReport>>> = Rc::default();
    sampler.leg(options.requests as f64, {
        let fastest = Rc::clone(&fastest);
        move || {
            let report = loadtest::run(&options).expect("loadtest against the in-process service");
            assert_eq!(
                report.failures, 0,
                "bench traffic must not drop requests ({} failed)",
                report.failures
            );
            let mut fastest = fastest.borrow_mut();
            if fastest
                .as_ref()
                .is_none_or(|f| report.requests_per_sec > f.requests_per_sec)
            {
                *fastest = Some(report);
            }
        }
    });
    move |_| {
        // Scrape the server's fault-mode counters before shutdown: a
        // fault-free bench run must not have needed the failure model. Any
        // isolated panic, timed-out job, or quarantined object here is a
        // real bug the throughput number would otherwise launder.
        let (status, body) = tensordash_server::http::client_request(
            addr,
            "GET",
            "/metrics",
            None,
            std::time::Duration::from_secs(10),
        )
        .expect("bench service metrics must be reachable");
        assert_eq!(status, 200, "metrics scrape failed: {body}");
        let metrics = tensordash_serde::json::parse(&body).expect("metrics must parse");
        let counter = |section: &str, key: &str| -> u64 {
            metrics
                .get(section)
                .and_then(|s| s.get(key))
                .and_then(|v| v.as_u64().ok())
                .unwrap_or(0)
        };
        let best = fastest.take().expect("at least one loadtest pass");
        let service_bench = ServiceBench {
            requests: best.requests,
            concurrency: best.concurrency,
            requests_per_sec: best.requests_per_sec,
            latency_ms_p50: best.latency_ms_p50,
            latency_ms_p90: best.latency_ms_p90,
            latency_ms_p99: best.latency_ms_p99,
            retries: best.retries,
            handler_panics: counter("faults", "handler_panics"),
            jobs_timed_out: counter("jobs", "timed_out"),
            jobs_panicked: counter("jobs", "panicked"),
            store_quarantined: counter("store", "quarantined"),
        };
        running
            .shutdown_and_join()
            .expect("bench service failed to shut down");
        std::fs::remove_dir_all(&trace_dir).ok();
        assert_eq!(
            (
                service_bench.handler_panics,
                service_bench.jobs_timed_out,
                service_bench.jobs_panicked,
                service_bench.store_quarantined,
            ),
            (0, 0, 0, 0),
            "a fault-free bench run must not trip the failure model"
        );
        service_bench
    }
}

/// The `schema` tag of the documents this build writes. It moves whenever
/// a metric's measured work or sampling changes, so a baseline of another
/// schema is not compared on the kernel legs (see [`diff_against_baseline`]).
const BENCH_SCHEMA: &str = "tensordash-bench/12";

/// Throughput regressions larger than this fraction fail a
/// `--baseline` run (kernel, trace, and model metrics).
pub const BASELINE_TOLERANCE: f64 = 0.20;

/// The wider gate for `service.requests_per_sec`: an end-to-end loadtest
/// over real sockets swings far more between runs than the in-process
/// microbenchmarks (±25% observed back-to-back on one idle machine), so
/// the service gate only fails on drops scheduling noise cannot produce
/// — a serialized worker pool or a blocked queue halves throughput and
/// still trips it.
pub const SERVICE_TOLERANCE: f64 = 0.50;

/// One metric compared against a committed baseline document.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Dotted metric path, e.g. `kernel.steps_per_sec_batched`.
    pub metric: String,
    /// The baseline's recorded value.
    pub baseline: f64,
    /// This run's value.
    pub current: f64,
    /// The fractional drop this metric may show before failing
    /// ([`BASELINE_TOLERANCE`], or [`SERVICE_TOLERANCE`] for the noisier
    /// service rate).
    pub tolerance: f64,
    /// Whether smaller values are the improvement (latencies). Throughput
    /// metrics leave this `false`.
    pub lower_is_better: bool,
}

impl BaselineEntry {
    /// Current over baseline (improvement is `> 1.0` for throughputs,
    /// `< 1.0` for latencies — see `lower_is_better`).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }

    /// Whether this metric regressed beyond its tolerance.
    #[must_use]
    pub fn regressed(&self) -> bool {
        if self.lower_is_better {
            self.ratio() > 1.0 + self.tolerance
        } else {
            self.ratio() < 1.0 - self.tolerance
        }
    }
}

fn baseline_float(doc: &Value, section: &str, key: &str) -> Option<f64> {
    doc.get(section)?.get(key)?.as_float().ok()
}

/// Diffs this run's throughput metrics against a previously committed
/// `BENCH_<n>.json` document.
///
/// Kernel throughputs are per-step/per-mask rates over the same legs in
/// both variants, so they compare across smoke/full runs — which is
/// what lets CI's smoke run gate against a committed full-run baseline.
/// They compare only against a baseline of this build's schema: schema
/// `tensordash-bench/11` kept the key names of both gated kernel legs but
/// changed their work, and `/12` changed how every leg is sampled (the
/// fastest sample of a ~20 s round-robin wall, not a best-of-k taken
/// within about a second), so matching older documents by key name would
/// gate numbers measured another way. Trace and per-model
/// throughputs are only compared when both runs used the same variant:
/// the smoke variant extracts a smaller layer and evaluates a reduced
/// spec, so its masks/sec and cycles-per-second are not commensurable
/// with a full run's. Metrics the baseline predates
/// (e.g. the `trace` section in `BENCH_2.json`) are skipped.
#[must_use]
pub fn diff_against_baseline(summary: &BenchSummary, baseline: &Value) -> Vec<BaselineEntry> {
    fn push(
        entries: &mut Vec<BaselineEntry>,
        metric: &str,
        base: Option<f64>,
        current: f64,
        tolerance: f64,
    ) {
        push_with(entries, metric, base, current, tolerance, false);
    }
    fn push_with(
        entries: &mut Vec<BaselineEntry>,
        metric: &str,
        base: Option<f64>,
        current: f64,
        tolerance: f64,
        lower_is_better: bool,
    ) {
        if let Some(baseline) = base {
            if baseline > 0.0 {
                entries.push(BaselineEntry {
                    metric: metric.to_string(),
                    baseline,
                    current,
                    tolerance,
                    lower_is_better,
                });
            }
        }
    }
    let mut entries = Vec::new();
    let same_schema = baseline
        .get("schema")
        .is_some_and(|schema| schema.as_str().ok() == Some(BENCH_SCHEMA));
    if same_schema {
        push(
            &mut entries,
            "kernel.steps_per_sec_batched",
            baseline_float(baseline, "kernel", "steps_per_sec_batched"),
            summary.kernel.steps_per_sec_batched,
            BASELINE_TOLERANCE,
        );
        push(
            &mut entries,
            "kernel.group_masks_per_sec_batched",
            baseline_float(baseline, "kernel", "group_masks_per_sec_batched"),
            summary.kernel.group_masks_per_sec_batched,
            BASELINE_TOLERANCE,
        );
    }
    // Service traffic throughput: the per-request workload is identical
    // in both variants (smoke only trims the request count), so — like
    // the kernel rates — it compares across smoke/full runs, which is
    // what lets CI's smoke loadtest gate against the committed full-run
    // baseline. Gated at the wider [`SERVICE_TOLERANCE`] (see its doc),
    // and skipped for baselines predating the service section.
    push(
        &mut entries,
        "service.requests_per_sec",
        baseline_float(baseline, "service", "requests_per_sec"),
        summary.service.requests_per_sec,
        SERVICE_TOLERANCE,
    );
    // The p90 tail latency gates alongside the rate, inverted (lower is
    // better) and at the same wide service tolerance; skipped for
    // baselines predating the metric (BENCH_6 and earlier).
    push_with(
        &mut entries,
        "service.latency_ms_p90",
        baseline_float(baseline, "service", "latency_ms_p90"),
        summary.service.latency_ms_p90,
        SERVICE_TOLERANCE,
        true,
    );
    // Trace-source rates run the identical tiny training workload in both
    // variants (see `bench_source`), so — like the kernel rates — they
    // compare across smoke/full runs; skipped for baselines predating the
    // section (BENCH_4 and earlier).
    push(
        &mut entries,
        "source.live_masks_per_sec",
        baseline_float(baseline, "source", "live_masks_per_sec"),
        summary.source.live_masks_per_sec,
        BASELINE_TOLERANCE,
    );
    push(
        &mut entries,
        "source.replay_masks_per_sec",
        baseline_float(baseline, "source", "replay_masks_per_sec"),
        summary.source.replay_masks_per_sec,
        BASELINE_TOLERANCE,
    );
    // Binary trace-store rates run the same fixed workload as the source
    // rates (see `bench_store`), so they also compare across smoke/full
    // runs; skipped for baselines predating the section (BENCH_5 and
    // earlier).
    push(
        &mut entries,
        "store.load_masks_per_sec",
        baseline_float(baseline, "store", "load_masks_per_sec"),
        summary.store.load_masks_per_sec,
        BASELINE_TOLERANCE,
    );
    push(
        &mut entries,
        "store.pack_bytes_per_sec",
        baseline_float(baseline, "store", "pack_bytes_per_sec"),
        summary.store.pack_bytes_per_sec,
        BASELINE_TOLERANCE,
    );

    let same_variant = baseline
        .get("smoke")
        .and_then(|v| v.as_bool().ok())
        .is_some_and(|smoke| smoke == summary.smoke);
    if same_variant {
        // Scheduler-family rates run over stream lengths that differ
        // between variants (512 vs 16384 rows), and the cheap structured
        // members are dominated by fixed per-call cost, so their masks/s
        // only compare within a variant. A member this run did not time
        // (`dense`) is skipped, as are baselines predating the section
        // (BENCH_8 and earlier).
        if let Some(Value::Array(schedulers)) = baseline.get("schedulers") {
            for doc in schedulers {
                let Some(Ok(name)) = doc.get("name").map(Value::as_str) else {
                    continue;
                };
                let Some(current) = summary
                    .schedulers
                    .iter()
                    .find(|s| s.name == name)
                    .and_then(|s| s.group_masks_per_sec)
                else {
                    continue;
                };
                if let Some(Ok(rate)) = doc.get("group_masks_per_sec").map(Value::as_float) {
                    push(
                        &mut entries,
                        &format!("schedulers.{name}.group_masks_per_sec"),
                        Some(rate),
                        current,
                        BASELINE_TOLERANCE,
                    );
                }
            }
        }
        push(
            &mut entries,
            "trace.extract_masks_per_sec_bitmap",
            baseline_float(baseline, "trace", "extract_masks_per_sec_bitmap"),
            summary.trace.extract_masks_per_sec_bitmap,
            BASELINE_TOLERANCE,
        );
        push(
            &mut entries,
            "trace.synthetic_masks_per_sec",
            baseline_float(baseline, "trace", "synthetic_masks_per_sec"),
            summary.trace.synthetic_masks_per_sec,
            BASELINE_TOLERANCE,
        );
        if let Some(Value::Array(models)) = baseline.get("models") {
            for doc in models {
                let Some(Ok(name)) = doc.get("name").map(Value::as_str) else {
                    continue;
                };
                let Some(current) = summary.models.iter().find(|m| m.name == name) else {
                    continue;
                };
                if let Some(Ok(cps)) = doc.get("cycles_per_second").map(Value::as_float) {
                    push(
                        &mut entries,
                        &format!("models.{name}.cycles_per_second"),
                        Some(cps),
                        current.cycles_per_second,
                        BASELINE_TOLERANCE,
                    );
                }
            }
        }
    }
    entries
}

/// Runs the whole measurement set and writes the JSON document.
///
/// Returns the written path and the summary.
///
/// # Errors
///
/// Returns the underlying I/O error if the report cannot be written.
pub fn run(options: &BenchOptions) -> std::io::Result<(PathBuf, BenchSummary)> {
    let start = Instant::now();
    let steal_at_start = steal_ticks();
    let mut sampler = Sampler::default();
    let kernel = bench_kernel(&mut sampler);
    let schedulers = bench_schedulers(options.smoke, &mut sampler);
    let trace = bench_trace(options.smoke, &mut sampler);
    let source = bench_source(&mut sampler);
    let store = bench_store(&mut sampler);
    let models = bench_models(options.smoke, &mut sampler);
    let sharding = bench_sharding(options.smoke, &mut sampler);
    let service = bench_service(options.smoke, &mut sampler);
    let rate = sampler.run(SAMPLE_WALL, || start.elapsed().as_secs_f64());
    let summary = BenchSummary {
        smoke: options.smoke,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        kernel: kernel(&rate),
        schedulers: schedulers(&rate),
        trace: trace(&rate),
        source: source(&rate),
        store: store(&rate),
        models: models(&rate),
        sharding: sharding(&rate),
        service: service(&rate),
        steal_ticks: steal_ticks()
            .zip(steal_at_start)
            .map(|(end, start)| end.saturating_sub(start)),
        total_wall_seconds: start.elapsed().as_secs_f64(),
    };
    let path = options.out.clone().unwrap_or_else(next_bench_path);
    std::fs::write(&path, tensordash_serde::json::write(&summary.document()))?;
    Ok((path, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_schedulers() -> Vec<SchedulerBench> {
        vec![
            SchedulerBench {
                name: "tensordash".into(),
                group_masks_per_sec: Some(1.0e8),
                modeled_speedup: 1.9,
            },
            SchedulerBench {
                name: "dense".into(),
                group_masks_per_sec: None,
                modeled_speedup: 1.0,
            },
        ]
    }

    fn fixed_source() -> SourceBench {
        SourceBench {
            live_masks_per_sec: 1.0e6,
            replay_masks_per_sec: 5.0e6,
            record_bytes_per_sec: 1.0e8,
        }
    }

    fn fixed_store() -> StoreBench {
        StoreBench {
            load_masks_per_sec: 5.0e7,
            pack_bytes_per_sec: 5.0e8,
            binary_over_json_bytes: 0.2,
        }
    }

    fn fixed_sharding() -> ShardingBench {
        ShardingBench {
            model: "ViT-L-MLP".into(),
            wall_seconds_1_thread: 0.8,
            wall_seconds_8_threads: 0.2,
        }
    }

    fn fixed_service() -> ServiceBench {
        ServiceBench {
            requests: 12,
            concurrency: 8,
            requests_per_sec: 50.0,
            latency_ms_p50: 10.0,
            latency_ms_p90: 25.0,
            latency_ms_p99: 40.0,
            retries: 0,
            handler_panics: 0,
            jobs_timed_out: 0,
            jobs_panicked: 0,
            store_quarantined: 0,
        }
    }

    /// The sampler on a fake clock that each leg call advances by the
    /// leg's next scripted cost: samples go round-robin, every timed sample
    /// clears the floor, and each rate comes from the leg's fastest sample.
    #[test]
    fn sampler_runs_legs_round_robin_and_keeps_each_fastest_sample() {
        let clock = Rc::new(std::cell::Cell::new(0.0));
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut sampler = Sampler::default();
        let mut leg = |name: char, units: f64, costs: &'static [f64]| {
            let (clock, calls) = (Rc::clone(&clock), Rc::clone(&calls));
            let mut costs = costs.iter().cycle();
            sampler.leg(units, move || {
                clock.set(clock.get() + costs.next().unwrap());
                calls.borrow_mut().push(name);
            })
        };
        // `a` and `b` clear the 10 ms floor in one call, `c` needs many.
        // `a`'s fastest cost is neither its first nor its last sample.
        let a = leg('a', 6.0, &[0.030, 0.020, 0.025, 0.012, 0.028]);
        let b = leg('b', 1.0, &[0.011]);
        let c = leg('c', 2.0, &[0.001]);
        let rate = sampler.run(1.0, || clock.get());
        assert!((rate[a] - 6.0 / 0.012).abs() < 1e-6, "{}", rate[a]);
        assert!((rate[b] - 1.0 / 0.011).abs() < 1e-6, "{}", rate[b]);
        assert!((rate[c] - 2.0 / 0.001).abs() < 1e-6, "{}", rate[c]);

        // Collapse the call log into runs of one leg: each run is one
        // sample (or, first, one calibration).
        let mut runs: Vec<(char, usize)> = Vec::new();
        for &name in calls.borrow().iter() {
            match runs.last_mut() {
                Some((last, n)) if *last == name => *n += 1,
                _ => runs.push((name, 1)),
            }
        }
        assert!(
            runs.len() > 3 * 10,
            "a 1 s wall holds many rounds: {runs:?}"
        );
        for (i, &(name, n)) in runs.iter().enumerate() {
            assert_eq!(name, ['a', 'b', 'c'][i % 3], "round-robin order: {runs:?}");
            match name {
                'c' => assert!(n >= 10, "a `c` sample of {n} ms is under the floor"),
                _ => assert_eq!(n, 1, "`{name}` sampled twice in a row: {runs:?}"),
            }
        }
    }

    #[test]
    fn smoke_bench_measures_and_serializes() {
        let out = std::env::temp_dir().join(format!(
            "tensordash-bench-smoke-{}.json",
            std::process::id()
        ));
        let (path, summary) = run(&BenchOptions {
            smoke: true,
            out: Some(out),
            baseline: None,
        })
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let BenchSummary {
            kernel,
            trace,
            source,
            store,
            service,
            schedulers,
            ..
        } = &summary;
        assert!(kernel.steps_per_sec_batched > 0.0);
        assert!(kernel.steps_per_sec_reference > 0.0);
        // Both row-group legs are measured. Their ratio is the fallback
        // guard, but it holds only in release: this debug build reads four
        // groups in flight at about 0.9x one group per call, so ci.sh
        // checks `in_flight_speedup` on its release bench run instead.
        assert!(kernel.group_masks_per_sec_batched > 0.0);
        assert!(kernel.group_masks_per_sec_one_group > 0.0);
        assert!(kernel.group_masks_per_sec_reference > 0.0);
        assert!(trace.extract_masks_per_sec_bitmap > 0.0);
        assert!(
            trace.extraction_speedup() > 1.0,
            "bitmap extraction must beat the reference ({}x)",
            trace.extraction_speedup()
        );
        assert!(trace.cache_hit_speedup > 1.0);
        assert!(source.live_masks_per_sec > 0.0);
        assert!(source.replay_masks_per_sec > 0.0);
        assert!(source.record_bytes_per_sec > 0.0);
        assert!(store.load_masks_per_sec > 0.0);
        assert!(store.pack_bytes_per_sec > 0.0);
        assert!(
            store.binary_over_json_bytes < 1.0,
            "the v2 artifact must be smaller than the v1 JSON ({}x)",
            store.binary_over_json_bytes
        );
        assert!(
            store.load_masks_per_sec > source.replay_masks_per_sec,
            "binary replay ({:.0}/s) must beat JSON replay ({:.0}/s)",
            store.load_masks_per_sec,
            source.replay_masks_per_sec
        );
        assert!(service.requests_per_sec > 0.0);
        assert!(service.latency_ms_p50 > 0.0);
        assert!(service.latency_ms_p99 >= service.latency_ms_p50);
        assert_eq!(schedulers.len(), 4, "one entry per family member");
        let member = |name: &str| {
            schedulers
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing scheduler `{name}`"))
        };
        assert!((member("dense").modeled_speedup - 1.0).abs() < 1e-12);
        for name in ["2to4", "tstd"] {
            let s = member(name).modeled_speedup;
            assert!((1.0..=2.0).contains(&s), "{name} speedup {s}");
        }
        assert!(
            member("tensordash").modeled_speedup > member("2to4").modeled_speedup,
            "the promotion network must beat the 2x-capped member on this mix"
        );
        for s in schedulers {
            if s.name == "dense" {
                assert_eq!(s.group_masks_per_sec, None, "the dense member is not timed");
            } else {
                assert!(s.group_masks_per_sec.is_some_and(|rate| rate > 0.0));
            }
        }
        assert_eq!(summary.models.len(), 1);
        assert!(summary.models[0].speedup > 1.0);
        assert!(summary.models[0].wall_seconds_cached <= summary.models[0].wall_seconds * 1.5);
        assert_eq!(summary.sharding.model, "ViT-L-MLP");
        assert!(summary.sharding.wall_seconds_1_thread > 0.0);
        assert!(summary.sharding.wall_seconds_8_threads > 0.0);
        let doc = tensordash_serde::json::parse(&json).unwrap();
        assert!(doc.get("kernel").is_some());
        assert!(doc.get("schedulers").is_some());
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            "tensordash-bench/12"
        );
        assert_eq!(
            doc.get("nproc").unwrap().as_u64().unwrap(),
            summary.nproc as u64
        );
        // Steal is recorded wherever `/proc/stat` reads, and left out
        // elsewhere.
        assert_eq!(
            summary.steal_ticks.is_some(),
            std::fs::read_to_string("/proc/stat").is_ok()
        );
        assert_eq!(
            doc.get("steal_ticks").map(|t| t.as_u64().unwrap()),
            summary.steal_ticks
        );
        assert!(doc.get("trace").is_some());
        assert!(doc.get("source").is_some());
        assert!(doc.get("store").is_some());
        assert!(doc.get("sharding").is_some());
        assert!(doc.get("service").is_some());
        assert!(json.contains("steps_per_sec_batched"));
        assert!(json.contains("group_masks_per_sec_one_group"));
        assert!(json.contains("in_flight_speedup"));
        assert!(json.contains("wall_seconds_8_threads"));
        assert!(json.contains("modeled_speedup"));
        assert!(json.contains("extraction_speedup"));
        assert!(json.contains("requests_per_sec"));
        assert!(json.contains("live_masks_per_sec"));
        assert!(json.contains("load_masks_per_sec"));
        assert!(json.contains("AlexNet"));
    }

    #[test]
    fn baseline_diff_flags_regressions_and_skips_missing_sections() {
        let summary = BenchSummary {
            smoke: true,
            nproc: 2,
            steal_ticks: None,
            kernel: KernelBench {
                steps_per_sec_batched: 5.0e6, // half the baseline: regressed
                steps_per_sec_reference: 1.0e6,
                group_masks_per_sec_batched: 2.0e7, // improved
                group_masks_per_sec_one_group: 1.4e7,
                group_masks_per_sec_reference: 1.0e7,
            },
            schedulers: fixed_schedulers(),
            trace: TraceBench {
                extract_masks_per_sec_bitmap: 1.0e7,
                extract_masks_per_sec_reference: 1.0e6,
                synthetic_masks_per_sec: 1.0e8,
                cache_hit_speedup: 2.0,
            },
            source: fixed_source(),
            store: fixed_store(),
            models: vec![],
            sharding: fixed_sharding(),
            service: fixed_service(),
            total_wall_seconds: 0.0,
        };
        // A kernel-only baseline of this schema (no trace/service
        // sections), full run.
        let kernel_only = r#""smoke": false, "kernel": {"steps_per_sec_batched": 1.0e7,
                "group_masks_per_sec_batched": 1.8e7}, "models": [
                {"name": "AlexNet", "cycles_per_second": 8.0e9}]}"#;
        let baseline = tensordash_serde::json::parse(&format!(
            r#"{{"schema": "tensordash-bench/12", {kernel_only}"#
        ))
        .unwrap();
        let diffs = diff_against_baseline(&summary, &baseline);
        // Trace and model metrics skipped (different variant — and the
        // baseline predates the trace section anyway); both kernel
        // metrics compared.
        assert_eq!(diffs.len(), 2);
        let steps = diffs
            .iter()
            .find(|d| d.metric == "kernel.steps_per_sec_batched")
            .unwrap();
        assert!(steps.regressed());
        let group = diffs
            .iter()
            .find(|d| d.metric == "kernel.group_masks_per_sec_batched")
            .unwrap();
        assert!(!group.regressed());
        assert!(group.ratio() > 1.0);

        // The same numbers under an older schema, or none (BENCH_2 had no
        // tag), time other work under the same key names: not compared.
        for tag in [r#""schema": "tensordash-bench/11", "#, ""] {
            let old = tensordash_serde::json::parse(&format!("{{{tag}{kernel_only}")).unwrap();
            assert!(diff_against_baseline(&summary, &old).is_empty(), "{tag}");
        }
    }

    #[test]
    fn baseline_diff_compares_models_for_matching_variants() {
        let summary = BenchSummary {
            smoke: false,
            nproc: 2,
            steal_ticks: None,
            kernel: KernelBench {
                steps_per_sec_batched: 1.0e7,
                steps_per_sec_reference: 1.0e6,
                group_masks_per_sec_batched: 1.0e7,
                group_masks_per_sec_one_group: 7.0e6,
                group_masks_per_sec_reference: 1.0e7,
            },
            schedulers: fixed_schedulers(),
            trace: TraceBench {
                extract_masks_per_sec_bitmap: 1.0,
                extract_masks_per_sec_reference: 1.0,
                synthetic_masks_per_sec: 1.0,
                cache_hit_speedup: 1.0,
            },
            source: fixed_source(),
            store: fixed_store(),
            models: vec![ModelBench {
                name: "AlexNet".into(),
                wall_seconds: 0.01,
                wall_seconds_cached: 0.005,
                cycles_simulated: 100,
                cycles_per_second: 9.0e9,
                speedup: 2.0,
            }],
            sharding: fixed_sharding(),
            service: fixed_service(),
            total_wall_seconds: 0.0,
        };
        let baseline = tensordash_serde::json::parse(
            r#"{"smoke": false, "kernel": {},
                "trace": {"extract_masks_per_sec_bitmap": 2.0},
                "schedulers": [
                {"name": "tensordash", "group_masks_per_sec": 1.0e9},
                {"name": "2to4", "group_masks_per_sec": 5.0e8},
                {"name": "dense", "group_masks_per_sec": 7.7e12}],
                "models": [
                {"name": "AlexNet", "cycles_per_second": 8.0e9}]}"#,
        )
        .unwrap();
        let diffs = diff_against_baseline(&summary, &baseline);
        let model = diffs
            .iter()
            .find(|d| d.metric == "models.AlexNet.cycles_per_second")
            .expect("same-variant model metric compared");
        assert!(!model.regressed());
        let trace = diffs
            .iter()
            .find(|d| d.metric == "trace.extract_masks_per_sec_bitmap")
            .expect("same-variant trace metric compared");
        assert!(trace.regressed(), "1.0 vs baseline 2.0 must regress");
        let scheduler = diffs
            .iter()
            .find(|d| d.metric == "schedulers.tensordash.group_masks_per_sec")
            .expect("same-variant scheduler metric compared");
        assert!(
            scheduler.regressed(),
            "1.0e8 vs baseline 1.0e9 must regress"
        );
        // A member the summary did not measure, or measured without a
        // rate (`dense`), is skipped, not compared.
        assert!(!diffs
            .iter()
            .any(|d| d.metric == "schedulers.2to4.group_masks_per_sec"));
        assert!(!diffs
            .iter()
            .any(|d| d.metric == "schedulers.dense.group_masks_per_sec"));
    }

    /// The service traffic rate gates like the kernel rates: across
    /// variants, skipped only when the baseline predates the section.
    #[test]
    fn baseline_diff_compares_service_throughput_across_variants() {
        let summary = BenchSummary {
            smoke: true,
            nproc: 2,
            steal_ticks: None,
            kernel: KernelBench {
                steps_per_sec_batched: 1.0,
                steps_per_sec_reference: 1.0,
                group_masks_per_sec_batched: 1.0,
                group_masks_per_sec_one_group: 1.0,
                group_masks_per_sec_reference: 1.0,
            },
            schedulers: fixed_schedulers(),
            trace: TraceBench {
                extract_masks_per_sec_bitmap: 1.0,
                extract_masks_per_sec_reference: 1.0,
                synthetic_masks_per_sec: 1.0,
                cache_hit_speedup: 1.0,
            },
            source: fixed_source(),
            store: fixed_store(),
            models: vec![],
            sharding: fixed_sharding(),
            service: fixed_service(),
            total_wall_seconds: 0.0,
        };
        // Full-run baseline vs smoke summary: service still compared.
        let baseline = tensordash_serde::json::parse(
            r#"{"smoke": false, "service": {"requests_per_sec": 300.0}}"#,
        )
        .unwrap();
        let diffs = diff_against_baseline(&summary, &baseline);
        let service = diffs
            .iter()
            .find(|d| d.metric == "service.requests_per_sec")
            .expect("service metric compared across variants");
        // The service gate is deliberately wider than the kernel gate:
        // at 50 vs 300 (a 6x drop) it must fail, but a kernel-tolerance
        // (20%) drop must NOT — loadtest noise alone swings that far.
        assert_eq!(service.tolerance, SERVICE_TOLERANCE);
        assert!(service.regressed(), "50 vs baseline 300 must regress");
        let mild = BaselineEntry {
            metric: "service.requests_per_sec".into(),
            baseline: 100.0,
            current: 75.0,
            tolerance: SERVICE_TOLERANCE,
            lower_is_better: false,
        };
        assert!(!mild.regressed(), "25% loadtest noise must not fail CI");
    }

    /// `service.latency_ms_p90` gates inverted: growth past the service
    /// tolerance fails; a *drop* of any size never does. Baselines
    /// predating the metric (BENCH_6 and earlier) skip the comparison.
    #[test]
    fn baseline_diff_gates_p90_latency_lower_is_better() {
        let mut summary = BenchSummary {
            smoke: true,
            nproc: 2,
            steal_ticks: None,
            kernel: KernelBench {
                steps_per_sec_batched: 1.0,
                steps_per_sec_reference: 1.0,
                group_masks_per_sec_batched: 1.0,
                group_masks_per_sec_one_group: 1.0,
                group_masks_per_sec_reference: 1.0,
            },
            schedulers: fixed_schedulers(),
            trace: TraceBench {
                extract_masks_per_sec_bitmap: 1.0,
                extract_masks_per_sec_reference: 1.0,
                synthetic_masks_per_sec: 1.0,
                cache_hit_speedup: 1.0,
            },
            source: fixed_source(),
            store: fixed_store(),
            models: vec![],
            sharding: fixed_sharding(),
            service: fixed_service(),
            total_wall_seconds: 0.0,
        };
        summary.service.latency_ms_p90 = 80.0; // 4x the 20ms baseline
        let baseline = tensordash_serde::json::parse(
            r#"{"smoke": false, "service": {"latency_ms_p90": 20.0}}"#,
        )
        .unwrap();
        let diffs = diff_against_baseline(&summary, &baseline);
        let p90 = diffs
            .iter()
            .find(|d| d.metric == "service.latency_ms_p90")
            .expect("p90 compared when the baseline records it");
        assert!(p90.lower_is_better);
        assert!(p90.regressed(), "4x tail-latency growth must fail");

        // Faster-than-baseline tails never regress, however large the move.
        summary.service.latency_ms_p90 = 1.0;
        let diffs = diff_against_baseline(&summary, &baseline);
        let p90 = diffs
            .iter()
            .find(|d| d.metric == "service.latency_ms_p90")
            .unwrap();
        assert!(!p90.regressed());

        // A pre-p90 baseline skips the metric instead of comparing junk.
        let old = tensordash_serde::json::parse(
            r#"{"smoke": false, "service": {"requests_per_sec": 300.0}}"#,
        )
        .unwrap();
        assert!(!diff_against_baseline(&summary, &old)
            .iter()
            .any(|d| d.metric == "service.latency_ms_p90"));
    }

    #[test]
    fn next_bench_path_starts_at_two_and_counts_up() {
        let dir = std::env::temp_dir().join(format!("tensordash-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first = next_bench_path_in(&dir);
        assert_eq!(first.file_name().unwrap(), "BENCH_2.json");
        std::fs::write(&first, "{}").unwrap();
        let second = next_bench_path_in(&dir);
        assert_eq!(second.file_name().unwrap(), "BENCH_3.json");
        std::fs::remove_dir_all(dir).ok();
    }
}
