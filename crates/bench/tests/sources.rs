//! Acceptance tests of the `TraceSource` pipeline (train → record →
//! replay → simulate):
//!
//! * calibrated-source reports are **byte-identical** to the
//!   pre-refactor direct `layer_traces` + per-layer simulation path;
//! * a recorded artifact replayed through the declarative experiment
//!   path *and* through the live `tensordash serve` request path yields
//!   reports byte-identical to the live training run that produced it;
//! * the trace cache keys builds by source identity, so calibrated and
//!   recorded builds never collide and replays hit warm traces.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use tensordash_bench::experiment::ExperimentSpec;
use tensordash_bench::harness::{ModelEval, TraceCache};
use tensordash_bench::train::{capture_training, TrainOptions};
use tensordash_models::{layer_traces, paper_models, CalibratedSource};
use tensordash_serde::{json, Serialize};
use tensordash_sim::{CancelToken, ChipConfig, EvalSpec, LayerReport, ModelReport, Simulator};
use tensordash_trace::{OpTrace, RecordedSource, TraceSource};

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tensordash-sources-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The pre-`TraceSource` pipeline, reconstructed verbatim: build traces
/// with `models::layer_traces`, simulate each op pair in order, package
/// the rows — no provider abstraction anywhere.
fn pre_refactor_report(sim: &Simulator, model_index: usize, spec: &EvalSpec) -> ModelReport {
    let model = &paper_models()[model_index];
    let traces = layer_traces(model, spec.progress, 16, &spec.sample, spec.seed);
    ModelReport {
        name: model.name.clone(),
        layers: traces
            .iter()
            .map(|(layer, ops)| LayerReport {
                label: layer.name.clone(),
                ops: ops.iter().map(|t| sim.aggregate(t)).collect(),
            })
            .collect(),
    }
}

/// Acceptance gate: every calibrated consumer — `eval_model`, the cached
/// path, and `eval_source` over a `CalibratedSource` — must be
/// byte-identical to the pre-refactor pipeline.
#[test]
fn calibrated_source_reports_are_byte_identical_to_the_pre_refactor_path() {
    let sim = Simulator::paper();
    let spec = EvalSpec::builder()
        .streams(4, 32)
        .progress(0.45)
        .seed(0xDA5A)
        .build()
        .unwrap();
    let cache = TraceCache::new();
    for model_index in 0..3 {
        let model = &paper_models()[model_index];
        let reference = pre_refactor_report(&sim, model_index, &spec);
        let reference_bytes = json::write(&reference.serialize());

        let direct = sim.eval_model(model, &spec);
        assert_eq!(json::write(&direct.serialize()), reference_bytes);

        let cached = sim.eval_model_cached(model, &spec, &cache, &model.name);
        assert_eq!(json::write(&cached.serialize()), reference_bytes);

        let source = CalibratedSource::new(model.clone());
        let via_source = sim
            .eval_source(
                &source,
                &spec,
                &TraceCache::new(),
                source.label(),
                &CancelToken::unbounded(),
            )
            .unwrap();
        assert_eq!(
            json::write(&via_source.serialize()),
            reference_bytes,
            "{} diverged through the source pipeline",
            model.name
        );
    }
}

fn smoke_training() -> (TrainOptions, tensordash_trace::TraceRecording) {
    let options = TrainOptions {
        name: "sources-test".to_string(),
        epochs: 2,
        smoke: true,
        ..TrainOptions::default()
    };
    let recording = capture_training(&options).expect("smoke training");
    (options, recording)
}

/// The record→replay acceptance gate, CLI-spec leg: replaying a written
/// artifact through the declarative experiment path yields a report
/// byte-identical to simulating the live run's in-memory traces.
#[test]
fn recorded_artifact_replays_byte_identically_through_experiment_specs() {
    let (_, recording) = smoke_training();
    let sim = Simulator::paper();

    // The live report of the final epoch, straight from the trainer's
    // in-memory traces.
    let epoch = recording.epochs.last().unwrap();
    let groups: Vec<(&str, &[OpTrace])> = epoch
        .layers
        .iter()
        .map(|(name, ops)| (name.as_str(), ops.as_slice()))
        .collect();
    let live = sim.simulate_model(&recording.meta.name, &groups);
    let live_bytes = json::write(&live.serialize());

    // Round-trip through the written artifact and the spec path.
    let path = temp_file("replay.trace.json");
    std::fs::write(&path, recording.to_json()).unwrap();
    let spec = ExperimentSpec::new("replay").with_eval(
        EvalSpec::builder()
            .progress(epoch.progress)
            .recorded(path.to_string_lossy())
            .build()
            .unwrap(),
    );
    let reports = spec.run().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(
        json::write(&reports[0].serialize()),
        live_bytes,
        "spec replay diverged from the live run"
    );

    // And at the earlier epoch's progress, the earlier epoch replays.
    let first = &recording.epochs[0];
    let early_spec = ExperimentSpec::new("replay-early").with_eval(
        EvalSpec::builder()
            .progress(first.progress)
            .recorded(path.to_string_lossy())
            .build()
            .unwrap(),
    );
    let early_groups: Vec<(&str, &[OpTrace])> = first
        .layers
        .iter()
        .map(|(name, ops)| (name.as_str(), ops.as_slice()))
        .collect();
    let early_live = sim.simulate_model(&recording.meta.name, &early_groups);
    let early = early_spec.run().unwrap();
    assert_eq!(
        json::write(&early[0].serialize()),
        json::write(&early_live.serialize())
    );
}

/// The record→replay acceptance gate, serve leg: the resident service
/// returns the byte-identical report document for a recorded-source spec
/// that a direct in-process run produces. Served `recorded` paths resolve
/// inside the service's `--trace-dir` jail, so the artifact lives there
/// and the spec names it by relative path.
#[test]
fn recorded_artifact_replays_byte_identically_through_serve() {
    use tensordash_bench::experiment::SourceContext;
    use tensordash_bench::service::{Service, ServiceConfig};
    use tensordash_server::http::client_request;
    use tensordash_store::TraceStore;

    const TIMEOUT: Duration = Duration::from_secs(30);

    let (_, recording) = smoke_training();
    let dir = std::env::temp_dir().join(format!("tensordash-sources-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("serve.trace.json"), recording.to_json()).unwrap();

    let spec = ExperimentSpec::new("serve-replay").with_eval(
        EvalSpec::builder()
            .progress(1.0)
            .recorded("serve.trace.json")
            .build()
            .unwrap(),
    );
    // The direct leg resolves the same relative path through the same
    // jailed context the service will use.
    let store = TraceStore::open(&dir).unwrap();
    let reports = spec
        .run_in(
            &TraceCache::new(),
            &SourceContext::service(Some(&store)),
            &mut |_, _| {},
        )
        .unwrap();
    let expected = json::write(&spec.report_document(&reports));
    drop(store);

    let service = Service::bind(&ServiceConfig {
        trace_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let running = service.spawn();

    let body = json::write_compact(&spec.serialize());
    let (status, response) =
        client_request(addr, "POST", "/v1/experiments", Some(&body), TIMEOUT).unwrap();
    assert_eq!(status, 202, "{response}");
    let id = json::parse(&response)
        .unwrap()
        .get("job")
        .unwrap()
        .as_int()
        .unwrap();
    let report_url = format!("/v1/jobs/{id}/report");
    let deadline = Instant::now() + TIMEOUT;
    let report = loop {
        let (status, body) = client_request(addr, "GET", &report_url, None, TIMEOUT).unwrap();
        match status {
            200 => break body,
            202 => {
                assert!(Instant::now() < deadline, "replay job never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    };
    assert_eq!(report, expected, "serve replay diverged from direct run");

    // A recorded source combined with models must 400 at submission.
    let conflicted =
        r#"{"models": ["AlexNet"], "eval": {"source": {"recorded": "serve.trace.json"}}}"#;
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(conflicted), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("recorded source"), "{body}");

    // A missing artifact must 400 too, not consume a queue slot.
    let missing = r#"{"eval": {"source": {"recorded": "nonexistent.trace.json"}}}"#;
    let (status, body) =
        client_request(addr, "POST", "/v1/experiments", Some(missing), TIMEOUT).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not found"), "{body}");

    running.shutdown_and_join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Source-identity cache keys: a calibrated build and a recorded build
/// live under different keys, and replays hit warm traces.
#[test]
fn cache_keys_distinguish_sources_and_replays_hit() {
    let (_, recording) = smoke_training();
    let recorded = RecordedSource::new(recording);
    let calibrated = CalibratedSource::new(paper_models()[0].clone());
    let spec = EvalSpec::builder()
        .streams(4, 32)
        .progress(0.0)
        .build()
        .unwrap();

    let cache = TraceCache::new();
    let a = cache.source_traces(&recorded, &spec, 16).unwrap();
    let b = cache.source_traces(&calibrated, &spec, 16).unwrap();
    assert_eq!(cache.len(), 2, "distinct sources must not share a key");
    assert_ne!(a.len(), 0);
    assert_ne!(b.len(), 0);

    let again = cache.source_traces(&recorded, &spec, 16).unwrap();
    assert_eq!(cache.counters().hits, 1, "the replay must be a cache hit");
    assert!(std::sync::Arc::ptr_eq(&a, &again));

    // A recording ignores the request's seed/sampling caps, and every
    // progress maps to its nearest epoch — equivalent requests must
    // collapse onto ONE cache entry (`TraceSource::cache_request`), not
    // duplicate the epoch's traces per seed.
    let reseeded = EvalSpec::builder()
        .streams(64, 512)
        .progress(0.1)
        .seed(999)
        .build()
        .unwrap();
    let collapsed = cache.source_traces(&recorded, &reseeded, 16).unwrap();
    assert_eq!(cache.len(), 2, "seed/sample variants must share the entry");
    assert!(std::sync::Arc::ptr_eq(&a, &collapsed));
    // The calibrated source genuinely depends on the seed: a new key.
    let _ = cache.source_traces(&calibrated, &reseeded, 16).unwrap();
    assert_eq!(cache.len(), 3, "calibrated builds still key on the seed");

    // Same chip geometry family: a sweep over tile counts shares the
    // recorded build (lane count unchanged).
    let sim_small = Simulator::new(ChipConfig::builder().tiles(1).build().unwrap());
    let sim_large = Simulator::new(ChipConfig::builder().tiles(4).build().unwrap());
    let unbounded = CancelToken::unbounded();
    let r1 = sim_small
        .eval_source(&recorded, &spec, &cache, recorded.label(), &unbounded)
        .unwrap();
    let r2 = sim_large
        .eval_source(&recorded, &spec, &cache, recorded.label(), &unbounded)
        .unwrap();
    assert_eq!(cache.len(), 3, "geometry sweeps reuse the recorded build");
    assert_eq!(r1.name, r2.name);
    assert!(r1.total_speedup() > 0.5);
}
