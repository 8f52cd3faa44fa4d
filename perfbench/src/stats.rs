//! The metric catalogue and the arithmetic every workload reports with:
//! medians, nearest-rank percentiles and the ten-samples-beyond rule,
//! failure ratios, and the name grammar the result line must obey.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run (`--trace 0`), on
/// every workload, in this order. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup_mean", "x"),
    ("anchor_error_pct", "%"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`), on every
/// workload. A layer the workload does not exercise reads 0. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.build.busy_s", "s"),
    ("models.build.masks", "count"),
    ("models.build.masks_per_s", "1/s"),
    ("harness.cache.hits", "count"),
    ("harness.cache.misses", "count"),
    ("harness.cache.hit_ratio", "ratio"),
    ("sim.session.busy_s", "s"),
    ("sim.session.items", "count"),
    ("sim.tile.busy_s", "s"),
    ("sim.tile.masks", "count"),
    ("sim.tile.masks_per_s", "1/s"),
    ("sim.exec.overhead_s", "s"),
    ("serde.json.busy_s", "s"),
    ("serde.json.bytes", "B"),
    ("server.healthz_ms_p50", "ms"),
    ("server.submit_ms_p50", "ms"),
    ("server.residence_ms_p50", "ms"),
    ("server.polls_per_request", "count"),
    ("server.eval_ms_mean", "ms"),
    ("store.upload_ms_p50", "ms"),
    ("store.dedup_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.layer_sum_s", "s"),
    ("trace.unaccounted_pct", "%"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and is at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `99.9 / 100 * 10000` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentile rule: a tail percentile is reported only when at least
/// ten samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// The highest of the usual tail percentiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// The tail percentile a run reports as its p99: p99 itself when at
/// least ten samples lie beyond it, otherwise the highest percentile that
/// has ten beyond, and the median when none has.
pub fn tail_percentile(n: usize) -> f64 {
    highest_supported(n).map_or(50.0, |p| p.min(99.0))
}

/// `part` over `whole`; 0 when `whole` is not positive.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_ratio(attempted: u64, failed: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Notes which percentile `request_ms_p99` reports for `samples`
/// request latencies.
pub fn tail_note(samples: usize) -> String {
    let p = tail_percentile(samples);
    format!(
        "{samples} request latencies: request_ms_p99 reports p{p}, with {} samples beyond it",
        samples_beyond(samples, p)
    )
}

/// A traced wall set against the sum of its layers' self times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// Total duration of the traced root spans, seconds.
    pub wall_s: f64,
    /// Sum of the self times of every span below those roots, seconds.
    pub layer_sum_s: f64,
}

impl Reconciliation {
    /// The share of the wall no layer accounts for, in percent (negative
    /// when the layers over-count).
    pub fn unaccounted_pct(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            (self.wall_s - self.layer_sum_s) / self.wall_s * 100.0
        }
    }

    /// Whether the layers explain the wall within `tolerance_pct`.
    pub fn within(&self, tolerance_pct: f64) -> bool {
        self.unaccounted_pct().abs() <= tolerance_pct
    }
}

/// `traced` against `untraced` for the same work, as a percentage
/// overhead.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    if untraced_s <= 0.0 {
        0.0
    } else {
        (traced_s / untraced_s - 1.0) * 100.0
    }
}

/// The metrics one run reports, keyed by catalogue name.
#[derive(Debug)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            catalogue,
            values: BTreeMap::new(),
        }
    }

    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue — a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values.insert(key, value);
    }

    /// Every catalogue metric as `(name, value, unit)`, in catalogue
    /// order; a metric never set is reported as missing.
    ///
    /// # Errors
    ///
    /// Names the first metric that was never set or is not finite.
    pub fn rows(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        self.catalogue
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                _ if !valid_name(name) || !valid_unit(unit) => Err(format!(
                    "metric `{name}` or its unit `{unit}` breaks the grammar"
                )),
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("metric `{name}` is not finite ({v})")),
                None => Err(format!("metric `{name}` was never measured")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_follow_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }

    #[test]
    fn name_grammar_rejects_what_the_result_line_forbids() {
        for good in ["setup_s", "sim.tile.masks_per_s", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".dot", "has space", "slash/y", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = tensordash_serde::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array().ok())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str().ok()).unwrap();
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(1_500), Some(99.0));
        assert_eq!(highest_supported(150), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(tail_percentile(10_000), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(25), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn failed_ratio_counts_failures_over_attempts() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(1000, 0), 0.0);
        assert_eq!(failed_ratio(1000, 10), 0.01);
        assert_eq!(failed_ratio(4, 4), 1.0);
    }

    #[test]
    fn reconciliation_reports_the_unaccounted_share() {
        let r = Reconciliation {
            wall_s: 2.0,
            layer_sum_s: 1.9,
        };
        assert!((r.unaccounted_pct() - 5.0).abs() < 1e-9);
        assert!(r.within(10.0));
        assert!(!r.within(4.0));
        let over = Reconciliation {
            wall_s: 1.0,
            layer_sum_s: 1.2,
        };
        assert!((over.unaccounted_pct() + 20.0).abs() < 1e-9);
        assert!(!over.within(10.0));
        assert!((overhead_pct(1.05, 1.0) - 5.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn metrics_report_every_catalogue_entry_or_fail() {
        let mut m = Metrics::new(END_TO_END);
        for (name, _) in END_TO_END {
            m.set(name, 1.0);
        }
        assert_eq!(m.rows().unwrap().len(), END_TO_END.len());
        let mut missing = Metrics::new(END_TO_END);
        missing.set("setup_s", 1.0);
        assert!(missing.rows().unwrap_err().contains("never measured"));
        missing.set("evals_per_s", f64::NAN);
        let mut all = Metrics::new(END_TO_END);
        for (name, _) in END_TO_END {
            all.set(name, 1.0);
        }
        all.set("evals_per_s", f64::INFINITY);
        assert!(all.rows().unwrap_err().contains("not finite"));
    }
}
