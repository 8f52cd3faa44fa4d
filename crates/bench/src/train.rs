//! The live leg of the `TraceSource` pipeline: `tensordash train`.
//!
//! Trains a real CNN (`tensordash-nn`) epoch by epoch through
//! [`Trainer::epochs`], feeds each epoch's extracted traces straight into
//! the [`Simulator`], and emits a **speedup-vs-epoch report** in the
//! shape of the paper's Figs 9/14: loss, accuracy, per-tensor sparsity,
//! and the simulated TensorDash speedup for every epoch — all through the
//! same `simulate_batch`/report code the `run`/`--config` paths use.
//!
//! With `--record <FILE>` the run also writes a versioned
//! [`TraceRecording`] artifact — v1 JSON when the file name ends in
//! `.json`, the compact `tensordash-trace/2` binary otherwise;
//! `--replay <FILE>` accepts either encoding and rebuilds the report
//! **byte-identically** to the live run that produced it (the CI gate
//! `cmp`s the two JSON files), and the same artifact replays through
//! `--config`/`serve` via the `[eval.source] recorded = "<file>"` spec
//! key or, once uploaded to the trace store, `stored = "<digest>"`.

use crate::experiment::write_json_report;
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use tensordash_nn::{Dataset, Network, Sgd, Trainer};
use tensordash_serde::{json, Serialize, Value};
use tensordash_sim::Simulator;
use tensordash_trace::{
    EpochRecord, RecordingMeta, SampleSpec, TraceRecording, TrainMetrics, TrainingOp,
};

/// How `tensordash train` should run.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Workload name — labels the recording, the reports, and the cache
    /// entries of later replays.
    pub name: String,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Training RNG seed (dataset, weights, batch order).
    pub seed: u64,
    /// The seconds-scale CI variant: a smaller dataset, fewer default
    /// epochs, lighter trace sampling.
    pub smoke: bool,
    /// Write the captured traces as a versioned artifact here.
    pub record: Option<PathBuf>,
    /// Replay an artifact instead of training.
    pub replay: Option<PathBuf>,
    /// Where to write the JSON report (default:
    /// `<results dir>/<name>.train.json`).
    pub out: Option<PathBuf>,
    /// Pipeline training with simulation: while epoch `N+1` trains on the
    /// main thread, epoch `N`'s traces are simulated on a second thread
    /// whose simulator runs `workers` work-stealing batch threads. `None`
    /// keeps the serial train-then-simulate path. The report is
    /// **byte-identical** either way, at any worker count — epoch
    /// documents are built by the same code from the same records in the
    /// same order.
    pub workers: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            name: "small-cnn".to_string(),
            epochs: 10,
            batch_size: 32,
            seed: 7,
            smoke: false,
            record: None,
            replay: None,
            out: None,
            workers: None,
        }
    }
}

impl TrainOptions {
    /// The default epoch count of the smoke variant.
    pub const SMOKE_EPOCHS: usize = 2;

    fn sample(&self) -> SampleSpec {
        if self.smoke {
            SampleSpec::new(4, 32)
        } else {
            SampleSpec::new(16, 256)
        }
    }

    fn dataset_samples(&self) -> usize {
        if self.smoke {
            120
        } else {
            480
        }
    }
}

/// Trains per `options` and captures every epoch's metrics and traces.
/// This is the only place the live pipeline touches the trainer; the
/// report is derived from the returned recording afterwards, so a live
/// run and a replay of its artifact share every line of reporting code.
///
/// # Errors
///
/// Returns the trainer's error (e.g. an empty dataset) as a message.
pub fn capture_training(options: &TrainOptions) -> Result<TraceRecording, String> {
    capture_training_with(options, |_| {})
}

/// [`capture_training`] with an observer: `on_epoch` sees each
/// [`EpochRecord`] the moment its epoch finishes — the hook the pipelined
/// report path uses to hand records to the simulation thread while the
/// next epoch is still training.
fn capture_training_with(
    options: &TrainOptions,
    mut on_epoch: impl FnMut(&EpochRecord),
) -> Result<TraceRecording, String> {
    let sim = Simulator::paper();
    let lanes = sim.chip().tile.pe.lanes();
    let sample = options.sample();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let dataset = Dataset::synthetic_shapes(4, options.dataset_samples(), 12, &mut rng);
    let network = Network::small_cnn(1, 12, 4, &mut rng);
    let mut trainer = Trainer::new(network, Sgd::new(0.05, 0.9), dataset);

    let mut recording = TraceRecording::new(RecordingMeta {
        name: options.name.clone(),
        epochs: options.epochs,
        batch_size: options.batch_size,
        seed: options.seed,
        lanes,
        sample,
    });
    for epoch in trainer.epochs(options.epochs, options.batch_size, lanes, sample, &mut rng) {
        let epoch = epoch?;
        let record = EpochRecord {
            epoch: epoch.epoch,
            progress: epoch.progress,
            metrics: TrainMetrics {
                loss: epoch.stats.loss,
                accuracy: epoch.stats.accuracy,
                act_sparsity: epoch.stats.act_sparsity,
                grad_sparsity: epoch.stats.grad_sparsity,
                weight_sparsity: epoch.stats.weight_sparsity,
            },
            layers: epoch.layers,
        };
        on_epoch(&record);
        recording.epochs.push(record);
    }
    Ok(recording)
}

/// Builds the speedup-vs-epoch report document from a recording: every
/// epoch's traces are simulated on `sim` through
/// [`Simulator::simulate_model`] (the unbounded wrapper of the
/// `simulate_batch` path `run`/`--config` reports flow through), then
/// joined with the recorded training metrics.
#[must_use]
pub fn train_report_document(recording: &TraceRecording, sim: &Simulator) -> Value {
    let epochs = recording
        .epochs
        .iter()
        .map(|epoch| epoch_document(&recording.meta.name, epoch, sim))
        .collect();
    assemble_report(&recording.meta, sim, epochs)
}

/// One epoch's entry of the report document: the recorded metrics joined
/// with the simulated speedups of the epoch's traces. Both the serial
/// ([`train_report_document`]) and pipelined report paths go through this
/// single function, which is what makes their outputs byte-identical by
/// construction.
fn epoch_document(model: &str, epoch: &EpochRecord, sim: &Simulator) -> Value {
    let groups: Vec<(&str, &[tensordash_trace::OpTrace])> = epoch
        .layers
        .iter()
        .map(|(name, ops)| (name.as_str(), ops.as_slice()))
        .collect();
    let report = sim.simulate_model(model, &groups);
    let op_speedup = Value::Table(
        TrainingOp::ALL
            .iter()
            .map(|&op| (op.label().to_string(), Value::Float(report.op_speedup(op))))
            .collect(),
    );
    Value::Table(vec![
        ("epoch".to_string(), epoch.epoch.serialize()),
        ("progress".to_string(), epoch.progress.serialize()),
        ("loss".to_string(), epoch.metrics.loss.serialize()),
        ("accuracy".to_string(), epoch.metrics.accuracy.serialize()),
        (
            "act_sparsity".to_string(),
            epoch.metrics.act_sparsity.serialize(),
        ),
        (
            "grad_sparsity".to_string(),
            epoch.metrics.grad_sparsity.serialize(),
        ),
        (
            "weight_sparsity".to_string(),
            epoch.metrics.weight_sparsity.serialize(),
        ),
        (
            "total_speedup".to_string(),
            Value::Float(report.total_speedup()),
        ),
        ("op_speedup".to_string(), op_speedup),
        ("report".to_string(), report.serialize()),
    ])
}

/// The outer report table shared by every reporting path.
fn assemble_report(meta: &RecordingMeta, sim: &Simulator, epochs: Vec<Value>) -> Value {
    Value::Table(vec![
        ("train".to_string(), meta.serialize()),
        ("chip".to_string(), sim.chip().serialize()),
        ("epochs".to_string(), Value::Array(epochs)),
    ])
}

/// Trains **and** simulates concurrently: epoch `N`'s traces are
/// simulated (with a `workers`-thread simulator) on a spawned thread
/// while epoch `N+1` trains on the calling thread, overlapping the two
/// halves of the live pipeline instead of sweeping the recording after
/// training completes. Epoch records flow through an in-order channel and
/// each document is built by the same `epoch_document` helper as the
/// serial path, so the returned report is byte-identical to
/// `train_report_document(&recording, sim)` at any worker count.
///
/// # Errors
///
/// Returns the trainer's error as a message.
pub fn pipelined_train_report(
    options: &TrainOptions,
    workers: usize,
) -> Result<(TraceRecording, Value), String> {
    let sim = Simulator::paper().with_threads(workers.max(1));
    let (tx, rx) = std::sync::mpsc::channel::<EpochRecord>();
    let model = options.name.clone();
    let (recording, epochs) = std::thread::scope(|scope| {
        let sim = &sim;
        let simulate = scope.spawn(move || {
            let mut epochs = Vec::new();
            // `recv` blocks until the trainer sends the next finished
            // epoch; the channel preserves epoch order.
            while let Ok(record) = rx.recv() {
                epochs.push(epoch_document(&model, &record, sim));
            }
            epochs
        });
        let recording = capture_training_with(options, |record| {
            // A send only fails if the simulation thread died; the join
            // below surfaces that panic.
            let _ = tx.send(record.clone());
        });
        drop(tx);
        let epochs = simulate.join().expect("simulation thread panicked");
        recording.map(|recording| (recording, epochs))
    })?;
    let document = assemble_report(&recording.meta, &sim, epochs);
    Ok((recording, document))
}

/// Runs `tensordash train`: live training (optionally `--record`ing the
/// artifact) or an artifact `--replay`, then the per-epoch report.
///
/// # Errors
///
/// Returns a user-facing message on training, I/O, or artifact errors.
pub fn run(options: &TrainOptions) -> Result<(), String> {
    if options.replay.is_some() && options.record.is_some() {
        return Err("`--replay` replays an existing artifact; it cannot `--record`".to_string());
    }
    if options.epochs == 0 {
        return Err("`--epochs` must be at least 1".to_string());
    }
    if options.batch_size == 0 {
        return Err("`--batch` must be at least 1".to_string());
    }

    let sim = Simulator::paper();
    let (recording, document) = match &options.replay {
        Some(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| format!("cannot read artifact `{}`: {e}", path.display()))?;
            let recording = TraceRecording::from_bytes(&bytes)
                .map_err(|e| format!("invalid artifact `{}`: {e}", path.display()))?;
            println!(
                "replaying `{}`: {} recorded epoch(s), {} lanes",
                recording.meta.name,
                recording.epochs.len(),
                recording.meta.lanes
            );
            let document = train_report_document(&recording, &sim);
            (recording, document)
        }
        None => {
            println!(
                "training `{}`: {} epochs x batch {} (seed {})",
                options.name, options.epochs, options.batch_size, options.seed
            );
            let (recording, document) = match options.workers {
                Some(workers) => pipelined_train_report(options, workers)?,
                None => {
                    let recording = capture_training(options)?;
                    let document = train_report_document(&recording, &sim);
                    (recording, document)
                }
            };
            if let Some(path) = &options.record {
                // `.json` keeps the human-inspectable v1 encoding; any
                // other name gets the compact v2 binary (both replay and
                // upload identically — same content digest).
                let bytes = if path.extension().is_some_and(|e| e == "json") {
                    recording.to_json().into_bytes()
                } else {
                    recording.to_bytes()
                };
                std::fs::write(path, bytes)
                    .map_err(|e| format!("cannot write artifact `{}`: {e}", path.display()))?;
                println!("  -> recorded {}", path.display());
            }
            (recording, document)
        }
    };
    print_epoch_table(&document);

    match &options.out {
        Some(path) => {
            std::fs::write(path, json::write(&document))
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            println!("  -> wrote {}", path.display());
        }
        None => {
            write_json_report(&format!("{}.train.json", recording.meta.name), &document)
                .map_err(|e| format!("cannot write report: {e}"))?;
        }
    }
    Ok(())
}

/// Prints the Fig 9/14-shaped epoch table off the report document (one
/// source of truth: what prints is what was written).
fn print_epoch_table(document: &Value) {
    println!("epoch  progress  loss    acc    act-sp  grad-sp  TD-speedup");
    let Some(epochs) = document.get("epochs").and_then(|e| e.as_array().ok()) else {
        return;
    };
    for epoch in epochs {
        let f = |key: &str| {
            epoch
                .get(key)
                .and_then(|v| v.as_float().ok())
                .unwrap_or(0.0)
        };
        let index = epoch
            .get("epoch")
            .and_then(|v| v.as_int().ok())
            .unwrap_or(0);
        println!(
            "{index:>5}  {:<8.3} {:<7.3} {:<6.3} {:<7.3} {:<8.3} {:.2}x",
            f("progress"),
            f("loss"),
            f("accuracy"),
            f("act_sparsity"),
            f("grad_sparsity"),
            f("total_speedup"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_options() -> TrainOptions {
        TrainOptions {
            epochs: TrainOptions::SMOKE_EPOCHS,
            smoke: true,
            ..TrainOptions::default()
        }
    }

    #[test]
    fn captured_training_is_deterministic_and_complete() {
        let options = smoke_options();
        let a = capture_training(&options).unwrap();
        let b = capture_training(&options).unwrap();
        assert_eq!(a, b, "same options must capture bit-identical runs");
        assert_eq!(a.epochs.len(), TrainOptions::SMOKE_EPOCHS);
        assert_eq!(a.meta.lanes, 16);
        for epoch in &a.epochs {
            assert_eq!(epoch.layers.len(), 3, "conv1, conv2, fc");
            assert!(epoch.metrics.loss.is_finite());
        }
    }

    #[test]
    fn report_document_has_the_fig14_shape_and_roundtrips() {
        let recording = capture_training(&smoke_options()).unwrap();
        let sim = Simulator::paper();
        let document = train_report_document(&recording, &sim);
        let epochs = document.get("epochs").unwrap().as_array().unwrap();
        assert_eq!(epochs.len(), TrainOptions::SMOKE_EPOCHS);
        for epoch in epochs {
            assert!(epoch.get("loss").unwrap().as_float().unwrap().is_finite());
            let speedup = epoch.get("total_speedup").unwrap().as_float().unwrap();
            assert!(speedup > 0.5 && speedup < 4.0, "speedup {speedup}");
            assert!(epoch.get("op_speedup").unwrap().get("AxW").is_some());
            assert!(epoch.get("report").unwrap().get("layers").is_some());
        }
        // The live document and the one rebuilt from a serialized artifact
        // must be byte-identical — the record→replay contract.
        let replayed = TraceRecording::from_json(&recording.to_json()).unwrap();
        let replay_document = train_report_document(&replayed, &sim);
        assert_eq!(json::write(&document), json::write(&replay_document));
    }

    /// The pipelined path (simulation overlapping training) must emit the
    /// exact bytes of the serial train-then-simulate path at **every**
    /// worker count — the determinism gate on the epoch pipeline.
    #[test]
    fn pipelined_report_is_byte_identical_to_serial_at_1_2_8_workers() {
        let options = smoke_options();
        let serial_recording = capture_training(&options).unwrap();
        let serial = json::write(&train_report_document(
            &serial_recording,
            &Simulator::paper(),
        ));
        for workers in [1usize, 2, 8] {
            let (recording, document) = pipelined_train_report(&options, workers).unwrap();
            assert_eq!(
                recording, serial_recording,
                "{workers} workers: recording diverged"
            );
            assert_eq!(
                json::write(&document),
                serial,
                "{workers} workers: report bytes diverged"
            );
        }
    }

    /// `--record` → `--replay` byte-identity holds through the in-loop
    /// extraction and the pipelined report path: an artifact recorded by
    /// a pipelined run replays (binary v2 encoding) to the same bytes.
    #[test]
    fn pipelined_recording_replays_byte_identically() {
        let options = smoke_options();
        let (recording, document) = pipelined_train_report(&options, 2).unwrap();
        let replayed = TraceRecording::from_bytes(&recording.to_bytes()).unwrap();
        let replay_document = train_report_document(&replayed, &Simulator::paper());
        assert_eq!(json::write(&document), json::write(&replay_document));
    }
}
