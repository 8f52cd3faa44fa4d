//! # tensordash-bench
//!
//! The experiment harness: the model-evaluation pipeline as an extension
//! of the [`Simulator`](tensordash_sim::Simulator) session, declarative
//! [`ExperimentSpec`] configs, the live-training [`train`] pipeline
//! behind `tensordash train` (real epochs → recorded trace artifacts →
//! bit-exact replay), the resident [`service`] behind `tensordash serve`
//! (with its [`loadtest`] traffic generator), and the single
//! `tensordash` CLI that drives the paper's whole evaluation.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p tensordash-bench --bin tensordash -- run all
//! ```
//!
//! Individual experiments are `tensordash run fig13`, `table3`, ... (see
//! `tensordash list`), and arbitrary chip/model/effort combinations run
//! from a TOML file via `tensordash --config experiment.toml`. Each named
//! experiment prints the paper's rows/series next to the regenerated
//! numbers and writes a CSV under `results/`; declarative experiments
//! write a JSON report through the same output path.
//!
//! Two analysis studies run the same way: `tensordash run calibrate_tile`
//! (tile-efficiency ablation) and `tensordash run compression_study`
//! (§3.6 scheduled-form memory compression).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csvout;
pub mod experiment;
pub mod experiments;
pub mod harness;
pub mod loadtest;
pub mod paperref;
pub mod perf;
pub mod service;
pub mod train;

pub use csvout::{results_path, write_csv};
pub use experiment::{ExperimentError, ExperimentSpec, NamedExperiment, ReportDocument};
pub use harness::{
    EvalSpec, ModelEval, ModelTraces, TraceCache, TraceCacheStats, DEFAULT_CACHE_CAPACITY,
};
pub use loadtest::{LoadtestOptions, LoadtestReport};
pub use perf::{
    diff_against_baseline, BaselineEntry, BenchOptions, BenchSummary, KernelBench, ModelBench,
    ServiceBench, SourceBench, TraceBench, BASELINE_TOLERANCE, SERVICE_TOLERANCE,
};
pub use service::{RunningService, Service, ServiceConfig};
pub use train::{capture_training, train_report_document, TrainOptions};
