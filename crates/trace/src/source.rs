//! The unified trace-provider abstraction: every consumer of operand
//! streams — the CLI, declarative experiments, the resident service, the
//! perf harness — asks a [`TraceSource`] for a workload's per-layer
//! operation traces at a training-progress point, and no longer cares
//! whether those traces come from calibrated profiles
//! (`tensordash-models`), a live training run (`tensordash-nn`), or a
//! recorded artifact ([`RecordedSource`](crate::record::RecordedSource)).
//!
//! ```text
//!  Calibrated (models::zoo + synthetic generators)  ─┐
//!  Live       (nn::Trainer epoch iterator)          ─┼─► TraceSource
//!  Recorded   (versioned .trace.json artifact)      ─┘      │
//!                                                    ModelEval::eval_source
//! ```

use crate::stream::{OpTrace, SampleSpec};
use std::fmt;

/// One layer's label plus its three operation traces, in paper order
/// (`[Forward, InputGrad, WeightGrad]`).
pub type LayerOps = (String, [OpTrace; 3]);

/// What a consumer asks a [`TraceSource`] for: the training-progress
/// point, the PE lane width traces must be packed for, and the sampling
/// methodology.
///
/// Not every source reads every field: calibrated profiles use all four,
/// while a recorded artifact replays its stored masks exactly as captured
/// and only honours `progress` (epoch selection) and `lanes` (validated
/// against the recording).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRequest {
    /// Training progress in `[0, 1]`.
    pub progress: f64,
    /// PE lane count the masks must be packed for.
    pub lanes: usize,
    /// Stream sampling caps.
    pub sample: SampleSpec,
    /// Trace seed (synthetic generation only).
    pub seed: u64,
}

/// Why a [`TraceSource`] could not produce traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError(String);

impl SourceError {
    /// An error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        SourceError(message.into())
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SourceError {}

impl From<tensordash_serde::Error> for SourceError {
    fn from(e: tensordash_serde::Error) -> Self {
        SourceError::new(e.to_string())
    }
}

/// A provider of per-layer/per-op operand-stream traces for a
/// training-progress point.
///
/// Implementations must be **deterministic**: the same request against
/// the same source yields bit-identical traces, which is what lets the
/// trace cache key builds by [`identity`](TraceSource::identity) plus the
/// request fields, and what makes recorded-artifact replay byte-identical
/// to the run that produced it.
pub trait TraceSource {
    /// The workload name — used as the report label.
    fn label(&self) -> &str;

    /// A string identifying this source *and its content* for cache
    /// keying: two sources with the same identity must yield bit-identical
    /// traces for every request (e.g. `calibrated:AlexNet`,
    /// `recorded:<content hash>`).
    fn identity(&self) -> String;

    /// The canonical form of `request` for cache keying. Two requests
    /// that canonicalize equally **must** yield bit-identical traces
    /// from this source. The default keys on the request as-is; sources
    /// that ignore request fields (a recording replays stored masks
    /// whatever the sampling caps or seed) collapse them here so
    /// equivalent requests share one cache entry instead of duplicating
    /// builds.
    fn cache_request(&self, request: &TraceRequest) -> TraceRequest {
        *request
    }

    /// The traces of every weighted layer for `request`, in layer order.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError`] when the source cannot satisfy the request
    /// (lane-width mismatch against a recording, an empty artifact, ...).
    fn layer_ops(&self, request: &TraceRequest) -> Result<Vec<LayerOps>, SourceError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_error_displays_its_message() {
        let e = SourceError::new("no epochs");
        assert_eq!(e.to_string(), "no epochs");
        let from: SourceError = tensordash_serde::Error::new("bad value").into();
        assert_eq!(from.to_string(), "bad value");
    }

    /// The trait must stay object-safe: consumers hold `&dyn TraceSource`.
    #[test]
    fn trait_is_object_safe() {
        struct Empty;
        impl TraceSource for Empty {
            fn label(&self) -> &str {
                "empty"
            }
            fn identity(&self) -> String {
                "empty".to_string()
            }
            fn layer_ops(&self, _: &TraceRequest) -> Result<Vec<LayerOps>, SourceError> {
                Ok(Vec::new())
            }
        }
        let source: &dyn TraceSource = &Empty;
        let request = TraceRequest {
            progress: 0.5,
            lanes: 16,
            sample: SampleSpec::new(1, 8),
            seed: 0,
        };
        assert!(source.layer_ops(&request).unwrap().is_empty());
        assert_eq!(source.identity(), "empty");
    }
}
