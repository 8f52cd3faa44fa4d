//! The in-process workloads.
//!
//! - `cold_headline`: the eight Fig 13 models on the Table 2 chip at
//!   `EvalSpec::headline`, back to back in one closed loop. Every
//!   evaluation gets a fresh trace seed, so every one builds its traces.
//! - `warm_sweep`: the same models on the Fig 17 row and Fig 18 column
//!   geometries at `EvalSpec::sweep`, simulated from a `TraceCache` that
//!   set-up filled. The timed loop builds no traces.

use crate::service;
use crate::spans::{self, Span, Tracer};
use crate::stats::{self, Metrics, END_TO_END, PER_LAYER};
use crate::{peak_rss_mb, splitmix64, Outcome, RunArgs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tensordash_bench::harness::{ModelEval, ModelTraces, TraceCache};
use tensordash_bench::{paperref, ExperimentSpec};
use tensordash_models::{paper_models, ModelSpec};
use tensordash_serde::{json, Serialize};
use tensordash_sim::{ChipConfig, EvalSpec, ModelReport, Simulator, Tile};
use tensordash_trace::{OpTrace, TraceRequest, TraceSource};

/// Which in-process workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 13 at headline sampling, every trace built fresh.
    ColdHeadline,
    /// Figs 17 and 18 at sweep sampling, every trace from the cache.
    WarmSweep,
}

/// Fig 17 sweeps PE rows per tile at 4 columns; Fig 18 sweeps columns at
/// 4 rows. The 4×4 point is shared, so six distinct geometries.
const ROWS: [usize; 5] = [1, 2, 4, 8, 16];
const WIDE_COLS: usize = 16;

/// Set-ups measured per run; the median is reported.
const SETUPS: usize = 5;

/// Everything the timed loop needs, built by set-up.
struct Setup {
    models: Vec<ModelSpec>,
    chips: Vec<ChipConfig>,
    sims: Vec<Simulator>,
    cache: TraceCache,
}

impl Kind {
    fn chips(self) -> Vec<ChipConfig> {
        match self {
            Kind::ColdHeadline => vec![ChipConfig::paper()],
            Kind::WarmSweep => ROWS
                .iter()
                .map(|&rows| ChipConfig::builder().rows(rows).build())
                .chain([ChipConfig::builder().cols(WIDE_COLS).build()])
                .map(|chip| chip.expect("the Fig 17/18 geometries are valid"))
                .collect(),
        }
    }

    /// The spec evaluation `(pass, model)` runs under. Cold evaluations
    /// each get a fresh seed, so no trace build is ever reused — except
    /// that pass 0 runs the canonical `EvalSpec::headline` of Fig 13. The
    /// warm sweep uses one seed per run, so its cache serves every pass.
    fn spec(self, seed: u64, pass: usize, model: usize) -> EvalSpec {
        match self {
            Kind::ColdHeadline if pass == 0 => EvalSpec::headline(),
            Kind::ColdHeadline => EvalSpec {
                seed: splitmix64(seed ^ splitmix64(((pass as u64) << 8) | model as u64)),
                ..EvalSpec::headline()
            },
            Kind::WarmSweep => EvalSpec {
                seed: splitmix64(seed),
                ..EvalSpec::sweep()
            },
        }
    }

    /// Builds the models and sessions. The warm sweep fills the trace
    /// cache through `build`, which the traced run wraps in spans. The
    /// cold headline warms its session with one small evaluation instead,
    /// so its set-up is more than a few microseconds of allocation.
    fn setup(self, seed: u64, build: &mut dyn FnMut(&TraceCache, &ModelSpec, &EvalSpec)) -> Setup {
        let models = paper_models();
        let chips = self.chips();
        let sims: Vec<Simulator> = chips.iter().map(|&chip| Simulator::new(chip)).collect();
        let cache = TraceCache::new();
        match self {
            Kind::ColdHeadline => {
                let warm_up = EvalSpec {
                    seed: splitmix64(!seed),
                    ..EvalSpec::sweep()
                };
                black_box(sims[0].eval_model(&models[0], &warm_up));
            }
            Kind::WarmSweep => {
                let spec = self.spec(seed, 0, 0);
                for model in &models {
                    build(&cache, model, &spec);
                }
            }
        }
        Setup {
            models,
            chips,
            sims,
            cache,
        }
    }

    /// One evaluation through the public entry point the workload is
    /// about: a cold `eval_model`, or a warm `eval_model_cached`.
    fn evaluate(
        self,
        sim: &Simulator,
        model: &ModelSpec,
        spec: &EvalSpec,
        cache: &TraceCache,
    ) -> ModelReport {
        match self {
            Kind::ColdHeadline => sim.eval_model(model, spec),
            Kind::WarmSweep => sim.eval_model_cached(model, spec, cache, &model.name),
        }
    }
}

fn fill(cache: &TraceCache, model: &ModelSpec, spec: &EvalSpec) {
    let lanes = ChipConfig::paper().tile.pe.lanes();
    cache
        .source_traces(model, spec, lanes)
        .expect("calibrated sources are infallible");
}

/// The bounds every report must respect: one layer report per model
/// layer, and per operation a speedup between 1 (TensorDash never slows
/// a model down) and 3 (the staging-depth ceiling).
fn plausible(report: &ModelReport, model: &ModelSpec) -> bool {
    report.layers.len() == model.layers.len()
        && report.layers.iter().all(|layer| {
            layer.ops.iter().all(|op| {
                let s =
                    op.baseline.compute_cycles as f64 / op.tensordash.compute_cycles.max(1) as f64;
                (1.0 - 1e-9..=3.0 + 1e-9).contains(&s)
            })
        })
}

/// One pass-0 evaluation kept for the checks.
struct Kept {
    model: usize,
    chip: usize,
    spec: EvalSpec,
    json: String,
    ok: bool,
}

/// One evaluation's total speedup, for the simulated metrics.
struct Speedup {
    model: usize,
    chip: usize,
    speedup: f64,
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: Kind, args: &RunArgs) -> Outcome {
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak memory holds one.
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(kind.setup(args.seed, &mut fill));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        models,
        chips,
        sims,
        cache,
    } = setup.expect("at least one set-up");

    // One pass evaluates every (model, chip) pair once: it regenerates the
    // figure, which is the request a user of these workloads waits for.
    let start = Instant::now();
    let mut pass_ms = Vec::new();
    let mut pair_secs: Vec<Vec<f64>> = vec![Vec::new(); models.len() * sims.len()];
    let mut evaluations = 0u64;
    let mut failed = 0u64;
    let mut kept: Vec<Kept> = Vec::new();
    let mut pass0_speedups: Vec<Speedup> = Vec::new();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let mut busy = 0.0;
        for (m, model) in models.iter().enumerate() {
            let spec = kind.spec(args.seed, pass, m);
            for (c, sim) in sims.iter().enumerate() {
                let t0 = Instant::now();
                let report = kind.evaluate(sim, model, &spec, &cache);
                let text = json::write(&report.serialize());
                let dt = t0.elapsed().as_secs_f64();
                busy += dt;
                pair_secs[m * sims.len() + c].push(dt);
                let ok = plausible(&report, model);
                if pass == 0 {
                    pass0_speedups.push(Speedup {
                        model: m,
                        chip: c,
                        speedup: report.total_speedup(),
                    });
                    kept.push(Kept {
                        model: m,
                        chip: c,
                        spec: spec.clone(),
                        json: text,
                        ok,
                    });
                } else {
                    // Warm passes re-simulate the same traces on the same
                    // chips, so every pass must repeat pass 0 byte for byte.
                    let repeats =
                        kind == Kind::ColdHeadline || text == kept[m * sims.len() + c].json;
                    failed += u64::from(!(ok && repeats));
                }
            }
        }
        pass_ms.push(busy * 1e3);
        evaluations += pair_secs.len() as u64;
        pass += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    // Before the checks below, which hold traces of their own.
    let peak_rss = peak_rss_mb(std::process::id()).unwrap_or(0.0);

    // Pass 0 again through an independent session at one sim thread
    // (and, warm, a cache of its own): reports must match byte for byte.
    let check_cache = TraceCache::new();
    for k in &mut kept {
        let sim = Simulator::new(chips[k.chip]).with_threads(1);
        let reference = kind.evaluate(&sim, &models[k.model], &k.spec, &check_cache);
        k.ok &= json::write(&reference.serialize()) == k.json;
    }
    failed += kept.iter().filter(|k| !k.ok).count() as u64;

    // The simulated metrics use the canonical inputs of the repository's
    // figures, so they read the same for every seed: cold pass 0 runs Fig
    // 13's `EvalSpec::headline`; the warm sweep is re-evaluated (untimed)
    // at Fig 17/18's `EvalSpec::sweep`.
    let speedups = match kind {
        Kind::ColdHeadline => pass0_speedups,
        Kind::WarmSweep => sweep_speedups(&models, &sims),
    };
    let (speedup_mean, anchor_error_pct) = simulated(kind, &speedups, &models, &chips);
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", stats::median(&setup_times));
    // A typical pass: each (model, chip) pair at its median time.
    let typical_pass: f64 = pair_secs.iter().map(|secs| stats::median(secs)).sum();
    metrics.set("evals_per_s", pair_secs.len() as f64 / typical_pass);
    metrics.set(
        "requests_per_s",
        pass_ms.len() as f64 / (pass_ms.iter().sum::<f64>() / 1e3),
    );
    metrics.set("request_ms_p50", stats::percentile(&pass_ms, 50.0));
    metrics.set(
        "request_ms_p99",
        stats::percentile(&pass_ms, stats::tail_percentile(pass_ms.len())),
    );
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set("sim_speedup_mean", speedup_mean);
    metrics.set("anchor_error_pct", anchor_error_pct);
    let mut notes = vec![
        format!(
            "{pass} passes (requests) of {} evaluations, {wall:.3} s timed wall",
            models.len() * sims.len(),
        ),
        stats::tail_note(pass_ms.len()),
        format!(
            "pass walls (ms): {}",
            pass_ms
                .iter()
                .map(|ms| format!("{ms:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    if kind == Kind::ColdHeadline {
        notes.push(format!(
            "Fig 13 mean speedup {speedup_mean:.4}x: {:.3}% from the paper's {}x",
            (speedup_mean - paperref::FIG13_MEAN).abs() / paperref::FIG13_MEAN * 100.0,
            paperref::FIG13_MEAN
        ));
    }
    Outcome {
        attempted: evaluations,
        failed,
        metrics,
        notes,
    }
}

/// Every (model, chip) pair's total speedup at `EvalSpec::sweep`.
fn sweep_speedups(models: &[ModelSpec], sims: &[Simulator]) -> Vec<Speedup> {
    let spec = EvalSpec::sweep();
    let cache = TraceCache::new();
    let mut speedups = Vec::new();
    for (m, model) in models.iter().enumerate() {
        for (c, sim) in sims.iter().enumerate() {
            let report = sim.eval_model_cached(model, &spec, &cache, &model.name);
            speedups.push(Speedup {
                model: m,
                chip: c,
                speedup: report.total_speedup(),
            });
        }
    }
    speedups
}

/// The two simulated metrics: the mean TensorDash speedup, and its error
/// against the paper's anchors — on the cold headline the mean error
/// against each model's Fig 13 bar, on the warm sweep against the Fig 17
/// 1-row and 16-row averages.
fn simulated(
    kind: Kind,
    speedups: &[Speedup],
    models: &[ModelSpec],
    chips: &[ChipConfig],
) -> (f64, f64) {
    let all: Vec<f64> = speedups.iter().map(|k| k.speedup).collect();
    let mean = stats::mean(&all);
    let error = |measured: f64, paper: f64| (measured - paper).abs() / paper * 100.0;
    let anchor = match kind {
        Kind::ColdHeadline => {
            let errors: Vec<f64> = speedups
                .iter()
                .map(|k| {
                    let (_, bar) = paperref::FIG13_TOTAL
                        .iter()
                        .find(|(name, _)| *name == models[k.model].name)
                        .expect("every Fig 13 model has a bar");
                    error(k.speedup, *bar)
                })
                .collect();
            stats::mean(&errors)
        }
        Kind::WarmSweep => {
            let at_rows = |rows: usize| {
                let chip = chips
                    .iter()
                    .position(|c| c.tile.rows == rows && c.tile.cols != WIDE_COLS)
                    .expect("the row sweep covers 1 and 16 rows");
                let s: Vec<f64> = speedups
                    .iter()
                    .filter(|k| k.chip == chip)
                    .map(|k| k.speedup)
                    .collect();
                stats::mean(&s)
            };
            let (one, sixteen) = paperref::FIG17_ROWS;
            (error(at_rows(1), one) + error(at_rows(16), sixteen)) / 2.0
        }
    };
    (mean, anchor)
}

/// Tile row-group chunks of one operation, as the session shards it.
fn chunks(trace: &OpTrace, chip: &ChipConfig) -> usize {
    trace.num_windows().div_ceil(chip.tile.rows)
}

/// Replays every operation's mask arena through `Tile::run_group_arena`
/// in the session's row-group chunks; returns the masks streamed.
fn replay_tile(tile: &Tile, chip: &ChipConfig, traces: &ModelTraces) -> u64 {
    let group = chip.tile.rows;
    let mut masks = 0;
    for (_, ops) in traces {
        for trace in ops {
            let arena = trace.arena_masks();
            let windows = trace.num_windows();
            let rows = trace
                .uniform_rows()
                .expect("synthetic windows share one row count");
            for chunk in 0..chunks(trace, chip) {
                let start = chunk * group;
                let count = group.min(windows - start);
                black_box(tile.run_group_arena(
                    &arena[start * rows..(start + count) * rows],
                    count,
                    rows,
                ));
            }
            masks += arena.len() as u64;
        }
    }
    masks
}

fn mask_count(traces: &ModelTraces) -> u64 {
    traces
        .iter()
        .flat_map(|(_, ops)| ops.iter())
        .map(|t| t.arena_masks().len() as u64)
        .sum()
}

/// Work counted by a traced run's in-process layers.
#[derive(Debug, Default)]
pub struct LayerWork {
    built_masks: u64,
    session_items: u64,
    tile_masks: u64,
    json_bytes: u64,
}

/// Where a traced evaluation's traces come from.
#[derive(Clone, Copy)]
enum Traces<'a> {
    /// Built fresh through `ModelSpec::layer_ops` (`models.build`).
    Build,
    /// Looked up in a filled cache (`harness.cache`).
    Cache(&'a TraceCache),
}

/// One evaluation layer by layer under an `eval` root — traces, then
/// `Simulator::simulate_model` on `sim`, then the report's JSON — and
/// beside the root the tile replay of the same traces (`sim.tile`).
/// Returns the report and its JSON.
fn traced_eval(
    tracer: &Tracer,
    item: u64,
    model: &ModelSpec,
    spec: &EvalSpec,
    sim: &Simulator,
    source: Traces<'_>,
    work: &mut LayerWork,
) -> (ModelReport, String) {
    let chip = sim.chip();
    let lanes = chip.tile.pe.lanes();
    let root = tracer.begin("eval", item, 0);
    let traces: Arc<ModelTraces> = match source {
        Traces::Build => tracer.span("models.build", item, root, || {
            let request = TraceRequest {
                progress: spec.progress,
                lanes,
                sample: spec.sample,
                seed: spec.seed,
            };
            Arc::new(
                model
                    .layer_ops(&request)
                    .expect("calibrated sources are infallible"),
            )
        }),
        Traces::Cache(cache) => tracer.span("harness.cache", item, root, || {
            cache
                .source_traces(model, spec, lanes)
                .expect("calibrated sources are infallible")
        }),
    };
    let report = tracer.span("sim.session", item, root, || {
        let groups: Vec<(&str, &[OpTrace])> = traces
            .iter()
            .map(|(name, ops)| (name.as_str(), ops.as_slice()))
            .collect();
        sim.simulate_model(&model.name, &groups)
    });
    let text = tracer.span("serde.json", item, root, || {
        json::write(&report.serialize())
    });
    tracer.end(root);
    if matches!(source, Traces::Build) {
        work.built_masks += mask_count(&traces);
    }
    work.session_items += traces
        .iter()
        .flat_map(|(_, ops)| ops.iter())
        .map(|t| chunks(t, chip) as u64)
        .sum::<u64>();
    work.json_bytes += text.len() as u64;
    let tile = Tile::with_scheduler(chip.tile, chip.scheduler);
    work.tile_masks += tracer.span("sim.tile", item, 0, || replay_tile(&tile, chip, &traces));
    (report, text)
}

/// Each of `specs` (calibrated, one model each) evaluated layer by layer
/// at one sim thread: the in-process cost of what a service evaluates.
pub fn trace_specs(tracer: &Tracer, specs: &[ExperimentSpec]) -> Result<LayerWork, String> {
    let mut work = LayerWork::default();
    for (i, spec) in specs.iter().enumerate() {
        let models = spec.resolve_models().map_err(|e| e.to_string())?;
        let sim = Simulator::new(spec.chip).with_threads(1);
        for model in &models {
            // Ids above 2^32 keep these apart from request ids.
            let item = (1 << 32) + i as u64;
            traced_eval(
                tracer,
                item,
                model,
                &spec.eval,
                &sim,
                Traces::Build,
                &mut work,
            );
        }
    }
    Ok(work)
}

/// Records the in-process layers' metrics from the spans and `work`, with
/// the trace cache's hits and misses.
pub fn set_layer_metrics(
    metrics: &mut Metrics,
    spans: &[Span],
    work: &LayerWork,
    hits: f64,
    misses: f64,
) {
    let busy = spans::busy_by_name(spans);
    let get = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    metrics.set("models.build.busy_s", get("models.build"));
    metrics.set("models.build.masks", work.built_masks as f64);
    metrics.set(
        "models.build.masks_per_s",
        stats::ratio(work.built_masks as f64, get("models.build")),
    );
    metrics.set("harness.cache.hits", hits);
    metrics.set("harness.cache.misses", misses);
    metrics.set("harness.cache.hit_ratio", stats::ratio(hits, hits + misses));
    metrics.set("sim.session.busy_s", get("sim.session"));
    metrics.set("sim.session.items", work.session_items as f64);
    metrics.set("sim.tile.busy_s", get("sim.tile"));
    metrics.set("sim.tile.masks", work.tile_masks as f64);
    metrics.set(
        "sim.tile.masks_per_s",
        stats::ratio(work.tile_masks as f64, get("sim.tile")),
    );
    metrics.set("sim.exec.overhead_s", get("sim.session") - get("sim.tile"));
    metrics.set("serde.json.busy_s", get("serde.json"));
    metrics.set("serde.json.bytes", work.json_bytes as f64);
}

/// The traced run: each layer's public functions called in turn, one
/// span per call, at one sim thread; then a short traced probe of the
/// server and store layers. Per-layer metrics.
///
/// # Errors
///
/// Returns a message when the server probe cannot run.
pub fn run_traced(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let tracer = Tracer::enabled();
    let mut work = LayerWork::default();
    let setup_root = tracer.begin("setup", 0, 0);
    let Setup {
        models,
        chips,
        cache,
        ..
    } = kind.setup(args.seed, &mut |cache, model, spec| {
        let traces = tracer.span("models.build", 0, setup_root, || {
            let lanes = ChipConfig::paper().tile.pe.lanes();
            cache
                .source_traces(model, spec, lanes)
                .expect("calibrated sources are infallible")
        });
        work.built_masks += mask_count(&traces);
    });
    tracer.end(setup_root);
    let sims: Vec<Simulator> = chips
        .iter()
        .map(|&c| Simulator::new(c).with_threads(1))
        .collect();
    let source = match kind {
        Kind::ColdHeadline => Traces::Build,
        Kind::WarmSweep => Traces::Cache(&cache),
    };

    let start = Instant::now();
    let mut item = 0u64;
    let mut failed = 0u64;
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for (m, model) in models.iter().enumerate() {
            let spec = kind.spec(args.seed, pass, m);
            for sim in &sims {
                item += 1;
                let (report, text) =
                    traced_eval(&tracer, item, model, &spec, sim, source, &mut work);
                // The same evaluation through the untraced public entry
                // point: the layer-by-layer report must equal it byte for
                // byte, and its wall is the tracing-overhead baseline.
                let reference = tracer.span("untraced", item, 0, || {
                    json::write(&kind.evaluate(sim, model, &spec, &cache).serialize())
                });
                failed += u64::from(reference != text || !plausible(&report, model));
            }
        }
        pass += 1;
    }
    let counters = cache.counters();
    let (before, after) = service::probe(&tracer, args.seed)?;

    let spans = tracer.finished();
    let mut metrics = Metrics::new(PER_LAYER);
    set_layer_metrics(
        &mut metrics,
        &spans,
        &work,
        counters.hits as f64,
        counters.misses as f64,
    );
    service::set_layer_metrics(&mut metrics, &spans, &before, &after);
    let recon = spans::reconcile(&spans, "eval");
    let untraced = spans::busy_by_name(&spans)
        .get("untraced")
        .copied()
        .unwrap_or(0.0);
    let mut notes = vec![
        format!("{item} evaluations traced at 1 sim thread"),
        crate::write_spans(&spans, args),
    ];
    notes.extend(crate::set_trace_metrics(
        &mut metrics,
        &spans,
        recon,
        recon.wall_s,
        untraced,
        "eval",
    ));
    Ok(Outcome {
        attempted: item,
        failed,
        metrics,
        notes,
    })
}
