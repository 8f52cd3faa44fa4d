//! Committed-bytes acceptance gate for the scheduler-family refactor.
//!
//! The reports under `tests/golden/` were generated by the pre-refactor
//! binary (promotion-network scheduler hard-wired into the tile). After
//! moving that scheduler behind the `SparsityScheduler` interface, the
//! default path must reproduce them **byte for byte** — through the
//! in-code API, and through the CLI with `--scheduler tensordash`
//! spelled out. Each golden document embeds the spec that produced it,
//! so the tests re-run exactly that spec.
//!
//! Those two run 4-row tiles. The 1- and 2-row goldens were generated by
//! the binary that still gave every row-group whole packed words, before
//! row-groups of one and two streams came to share each word: they pin
//! the segmented in-flight kernel to the bytes of the whole-word one.

use std::path::{Path, PathBuf};
use std::process::Command;
use tensordash_bench::experiment::ExperimentSpec;
use tensordash_serde::{Deserialize, Value};
use tensordash_sim::SchedulerKind;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels under the workspace root")
        .to_path_buf()
}

/// Loads a committed golden report and the experiment spec embedded in
/// it.
fn golden(name: &str) -> (String, ExperimentSpec) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed golden `{}`: {e}", path.display()));
    let doc = tensordash_serde::json::parse(&text).expect("golden parses as JSON");
    let Value::Table(fields) = &doc else {
        panic!("golden `{name}` is not a table");
    };
    let experiment = &fields
        .iter()
        .find(|(key, _)| key == "experiment")
        .expect("golden embeds its spec")
        .1;
    let spec = ExperimentSpec::deserialize(experiment).expect("embedded spec deserializes");
    (text, spec)
}

/// Reproduces a golden through the in-code path, both with the spec's
/// default scheduler and with `tensordash` spelled out explicitly.
fn assert_reproduced_in_code(committed: &str, spec: &ExperimentSpec) {
    // The pre-refactor binary had no scheduler field; its specs must
    // deserialize to the default family member.
    assert_eq!(spec.chip.scheduler, SchedulerKind::TensorDash);
    let reports = spec.run().expect("golden spec runs");
    let rebuilt = tensordash_serde::json::write(&spec.report_document(&reports));
    assert_eq!(rebuilt, committed, "default path diverged from golden");

    let explicit = spec.clone().with_scheduler(SchedulerKind::TensorDash);
    let reports = explicit.run().expect("explicit-scheduler spec runs");
    let rebuilt = tensordash_serde::json::write(&explicit.report_document(&reports));
    assert_eq!(
        rebuilt, committed,
        "explicit `tensordash` diverged from golden"
    );
}

/// Reproduces a golden through the CLI with `--scheduler tensordash` —
/// the acceptance gate's exact wording.
fn assert_reproduced_by_cli(committed: &str, spec: &ExperimentSpec, label: &str) {
    let dir = std::env::temp_dir().join(format!("tensordash-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join(format!("{label}.toml"));
    std::fs::write(&config, tensordash_serde::to_toml_string(spec).unwrap()).unwrap();
    let out_path = dir.join(format!("{label}.json"));
    // Relative `recorded` paths in golden specs resolve against the
    // workspace root, exactly as when the goldens were generated.
    let out = Command::new(env!("CARGO_BIN_EXE_tensordash"))
        .current_dir(workspace_root())
        .args([
            "--config",
            config.to_str().unwrap(),
            "--scheduler",
            "tensordash",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("cannot spawn the tensordash binary");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(
        written, committed,
        "`--scheduler tensordash` CLI output diverged from the pre-refactor bytes"
    );
}

/// Every zoo model, simulated from calibrated sparsity through the
/// refactored tile, is byte-identical to the pre-refactor report.
#[test]
fn zoo_golden_is_byte_identical_pre_and_post_refactor() {
    let (committed, spec) = golden("zoo_report.json");
    assert_reproduced_in_code(&committed, &spec);
    assert_reproduced_by_cli(&committed, &spec, "golden-zoo");
}

/// A recorded training trace replayed through the refactored tile is
/// byte-identical to the pre-refactor report.
#[test]
fn recorded_trace_golden_is_byte_identical_pre_and_post_refactor() {
    let (committed, spec) = golden("replay_report.json");
    // The recorded path inside the spec is workspace-relative; resolve
    // it for the in-process run (the CLI leg sets its own cwd instead,
    // which keeps the embedded spec — and so the bytes — untouched).
    let resolved = match &spec.eval.source {
        tensordash_sim::TraceSourceSpec::Recorded { path } => {
            let absolute = workspace_root().join(path);
            let mut patched = spec.clone();
            patched.eval.source = tensordash_sim::TraceSourceSpec::Recorded {
                path: absolute.to_str().unwrap().to_string(),
            };
            patched
        }
        other => panic!("replay golden should use a recorded source, got {other:?}"),
    };
    assert_eq!(resolved.chip.scheduler, SchedulerKind::TensorDash);
    let reports = resolved.run().expect("replay golden runs");
    // The document must embed the *committed* spec (relative path), not
    // the resolved one, to compare bytes.
    let rebuilt = tensordash_serde::json::write(&spec.report_document(&reports));
    assert_eq!(rebuilt, committed, "replay diverged from golden");

    assert_reproduced_by_cli(&committed, &spec, "golden-replay");
}

/// A 1-row tile: sixteen one-stream row-groups share the four packed
/// words of every kernel pass, and each operation has more groups than
/// fit in flight plus a short last bundle. Byte-identical to the report
/// of the whole-word kernel.
#[test]
fn one_row_golden_is_byte_identical() {
    let (committed, spec) = golden("one_row_report.json");
    assert_eq!(spec.chip.tile.rows, 1);
    assert_reproduced_in_code(&committed, &spec);
    assert_reproduced_by_cli(&committed, &spec, "golden-one-row");
}

/// A 2-row tile: eight two-stream row-groups in flight, two to a packed
/// word. Byte-identical to the report of the whole-word kernel.
#[test]
fn two_row_golden_is_byte_identical() {
    let (committed, spec) = golden("two_row_report.json");
    assert_eq!(spec.chip.tile.rows, 2);
    assert_reproduced_in_code(&committed, &spec);
    assert_reproduced_by_cli(&committed, &spec, "golden-two-row");
}
