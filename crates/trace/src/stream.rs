//! The trace container consumed by the cycle simulator.
//!
//! Since PR 3 the sampled streams live in one contiguous **mask arena**: a
//! single `Vec<u64>` holding every window's reduction-row masks back to
//! back, with one [`WindowSpan`] per window recording where its rows sit.
//! The simulator consumes spans (and whole span *groups*) directly from
//! the arena with zero per-window allocations; [`WindowTrace`] survives as
//! a borrowed per-window view for statistics and tests.

use crate::dims::{ConvDims, TrainingOp};

/// The low `lanes` bits set — the bits of a row mask that carry operand
/// slots. Bits at or above `lanes` are storage padding and must never be
/// counted.
#[inline]
#[must_use]
pub fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Where one window's reduction rows live inside a trace's mask arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpan {
    /// First row's index in the arena.
    pub offset: usize,
    /// Number of reduction rows.
    pub rows: usize,
}

/// A flat mask arena under construction: every window's masks appended to
/// one contiguous buffer, spans recorded as windows are pushed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceArena {
    masks: Vec<u64>,
    spans: Vec<WindowSpan>,
}

impl TraceArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// An empty arena with room for `windows` windows of `rows` rows each.
    #[must_use]
    pub fn with_capacity(windows: usize, rows: usize) -> Self {
        TraceArena {
            masks: Vec::with_capacity(windows.saturating_mul(rows)),
            spans: Vec::with_capacity(windows),
        }
    }

    /// Appends one window from an iterator of row masks.
    pub fn push_window<I: IntoIterator<Item = u64>>(&mut self, masks: I) {
        self.push_window_with(|arena| arena.extend(masks));
    }

    /// Appends one window by letting `fill` write rows directly into the
    /// arena buffer — the zero-copy entry generators and extractors use.
    /// Everything `fill` appends becomes the new window's rows.
    pub fn push_window_with(&mut self, fill: impl FnOnce(&mut Vec<u64>)) {
        let offset = self.masks.len();
        fill(&mut self.masks);
        self.spans.push(WindowSpan {
            offset,
            rows: self.masks.len() - offset,
        });
    }

    /// Appends `windows` windows of `rows` rows each, letting `fill` write
    /// all of them at once into one zeroed `windows × rows` slice, window
    /// `k` at rows `k·rows ..`: the batch generators' entry.
    pub(crate) fn push_windows_with(
        &mut self,
        windows: usize,
        rows: usize,
        fill: impl FnOnce(&mut [u64]),
    ) {
        let offset = self.masks.len();
        self.masks.resize(offset + windows * rows, 0);
        fill(&mut self.masks[offset..]);
        self.spans.extend((0..windows).map(|k| WindowSpan {
            offset: offset + k * rows,
            rows,
        }));
    }

    /// Number of windows pushed so far.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no windows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// One scheduled-side stream: a borrowed view of one tile row's operand
/// masks inside an [`OpTrace`]'s arena, in PE reduction order (bit `i` of a
/// mask = lane `i`'s operand is non-zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowTrace<'a> {
    /// Reduction-row masks.
    pub masks: &'a [u64],
    lanes: usize,
}

impl<'a> WindowTrace<'a> {
    /// Creates a window view over raw masks packed for `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds 64.
    #[must_use]
    pub fn new(masks: &'a [u64], lanes: usize) -> Self {
        assert!(
            (1..=64).contains(&lanes),
            "window masks pack 1..=64 lanes per u64, got {lanes}"
        );
        WindowTrace { masks, lanes }
    }

    /// Lane count the masks were packed for.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Non-zero operand slots in this stream. Bits at or above the lane
    /// count are storage padding, not operands — they are masked off
    /// before the popcount, so a corrupt or hand-built mask can never
    /// inflate the count (or drive [`sparsity`](WindowTrace::sparsity)
    /// negative).
    #[must_use]
    pub fn nonzeros(&self) -> u64 {
        let live = lane_mask(self.lanes);
        self.masks
            .iter()
            .map(|m| u64::from((m & live).count_ones()))
            .sum()
    }

    /// Fraction of zero operand slots.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.masks.is_empty() {
            return 0.0;
        }
        let total = (self.masks.len() * self.lanes) as f64;
        1.0 - self.nonzeros() as f64 / total
    }
}

/// Element volumes the memory system moves for one operation — inputs to
/// the DRAM/SRAM traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficVolumes {
    /// Dense-side operand elements (weights / reconstructed filters / A).
    pub dense_elems: u64,
    /// Dense-side non-zero elements.
    pub dense_nonzero: u64,
    /// Scheduled-side operand elements.
    pub sched_elems: u64,
    /// Scheduled-side non-zero elements.
    pub sched_nonzero: u64,
    /// Output elements produced.
    pub out_elems: u64,
    /// Output non-zero elements (drives output-side compression).
    pub out_nonzero: u64,
}

/// How many scheduled-side streams to materialize and how to cap their
/// length. Architecture simulators sample workloads (the paper itself
/// traces one random batch per epoch); results are scaled back up by the
/// sampled fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Maximum number of streams to materialize.
    pub max_windows: usize,
    /// Maximum rows per stream (longer streams are truncated; cycle counts
    /// scale by the truncation factor).
    pub max_rows: usize,
    /// Windows are sampled in contiguous runs of this length, so that a
    /// tile's rows see spatially *adjacent* streams — adjacency correlation
    /// is what drives the row-imbalance effect of the paper's Fig 17.
    pub block: usize,
}

impl SampleSpec {
    /// A spec with explicit caps and the default block of 16.
    ///
    /// # Panics
    ///
    /// Panics if either cap is zero.
    #[must_use]
    pub fn new(max_windows: usize, max_rows: usize) -> Self {
        assert!(
            max_windows > 0 && max_rows > 0,
            "sampling caps must be positive"
        );
        SampleSpec {
            max_windows,
            max_rows,
            block: 16,
        }
    }

    /// Sets the contiguous-run length.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    #[must_use]
    pub fn with_block(mut self, block: usize) -> Self {
        assert!(block > 0, "block must be positive");
        self.block = block;
        self
    }
}

impl tensordash_serde::Serialize for SampleSpec {
    fn serialize(&self) -> tensordash_serde::Value {
        tensordash_serde::Value::Table(vec![
            (
                "max_windows".to_string(),
                tensordash_serde::Serialize::serialize(&self.max_windows),
            ),
            (
                "max_rows".to_string(),
                tensordash_serde::Serialize::serialize(&self.max_rows),
            ),
            (
                "block".to_string(),
                tensordash_serde::Serialize::serialize(&self.block),
            ),
        ])
    }
}

impl tensordash_serde::Deserialize for SampleSpec {
    /// Funnels through [`SampleSpec::new`]/[`SampleSpec::with_block`] so a
    /// document cannot construct zero caps. `block` is optional and
    /// defaults to 16 as in [`SampleSpec::new`].
    fn deserialize(value: &tensordash_serde::Value) -> Result<Self, tensordash_serde::Error> {
        value.expect_keys(&["max_windows", "max_rows", "block"])?;
        let max_windows: usize = value.field("max_windows")?;
        let max_rows: usize = value.field("max_rows")?;
        if max_windows == 0 || max_rows == 0 {
            return Err(tensordash_serde::Error::new(
                "sampling caps must be positive",
            ));
        }
        let spec = SampleSpec::new(max_windows, max_rows);
        match value.get("block") {
            None => Ok(spec),
            Some(b) => {
                let block: usize = usize::try_from(b.as_int()?)
                    .map_err(|_| tensordash_serde::Error::new("block out of range"))?;
                if block == 0 {
                    return Err(tensordash_serde::Error::new("block must be positive"));
                }
                Ok(spec.with_block(block))
            }
        }
    }
}

impl Default for SampleSpec {
    /// 64 streams × 4096 rows in runs of 16 — enough for a 16-row tile with
    /// 4 distinct groups while keeping full-model sweeps fast.
    fn default() -> Self {
        SampleSpec {
            max_windows: 64,
            max_rows: 4096,
            block: 16,
        }
    }
}

/// A sampled operand-stream trace for one training operation of one layer.
///
/// The sampled streams live in one contiguous mask arena; iterate them as
/// [`WindowTrace`] views via [`windows`](OpTrace::windows) or hand whole
/// span groups straight to the simulator via
/// [`arena_masks`](OpTrace::arena_masks)/[`spans`](OpTrace::spans).
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    /// Which of the three convolutions this is.
    pub op: TrainingOp,
    /// PE lane count the masks were packed for.
    pub lanes: usize,
    /// Layer geometry.
    pub dims: ConvDims,
    /// Total scheduled-side streams in the full (unsampled) operation.
    pub total_windows: u64,
    /// Dense reduction rows per stream in the full operation.
    pub total_rows_per_window: u64,
    /// The sampled streams, flattened.
    arena: TraceArena,
    /// Memory-traffic volumes for the full operation.
    pub volumes: TrafficVolumes,
}

impl OpTrace {
    /// Assembles a trace from a filled arena.
    #[must_use]
    pub fn from_arena(
        op: TrainingOp,
        lanes: usize,
        dims: ConvDims,
        total_windows: u64,
        total_rows_per_window: u64,
        arena: TraceArena,
        volumes: TrafficVolumes,
    ) -> Self {
        OpTrace {
            op,
            lanes,
            dims,
            total_windows,
            total_rows_per_window,
            arena,
            volumes,
        }
    }

    /// Number of sampled streams.
    #[must_use]
    pub fn num_windows(&self) -> usize {
        self.arena.spans.len()
    }

    /// Whether the trace has no sampled streams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.spans.is_empty()
    }

    /// The flat mask arena all windows live in.
    #[must_use]
    pub fn arena_masks(&self) -> &[u64] {
        &self.arena.masks
    }

    /// Per-window spans into [`arena_masks`](OpTrace::arena_masks), in
    /// sampled order. Spans are contiguous: window `i+1` starts where
    /// window `i` ends.
    #[must_use]
    pub fn spans(&self) -> &[WindowSpan] {
        &self.arena.spans
    }

    /// Window `i`'s raw masks.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn window_masks(&self, i: usize) -> &[u64] {
        let span = self.arena.spans[i];
        &self.arena.masks[span.offset..span.offset + span.rows]
    }

    /// Window `i` as a borrowed view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn window(&self, i: usize) -> WindowTrace<'_> {
        WindowTrace::new(self.window_masks(i), self.lanes)
    }

    /// Iterates the sampled streams as borrowed views.
    pub fn windows(&self) -> impl ExactSizeIterator<Item = WindowTrace<'_>> {
        self.arena.spans.iter().map(|span| {
            WindowTrace::new(
                &self.arena.masks[span.offset..span.offset + span.rows],
                self.lanes,
            )
        })
    }

    /// The common row count when every sampled window has one (always the
    /// case for extracted and synthetic traces, whose windows cover the
    /// same reduction extent), `None` for ragged hand-built traces.
    #[must_use]
    pub fn uniform_rows(&self) -> Option<usize> {
        let first = self.arena.spans.first()?.rows;
        self.arena
            .spans
            .iter()
            .all(|s| s.rows == first)
            .then_some(first)
    }

    /// Scale factor from sampled windows to the full operation.
    #[must_use]
    pub fn window_scale(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_windows as f64 / self.num_windows() as f64
        }
    }

    /// Scale factor from sampled rows to the full stream length, anchored
    /// on the **longest** sampled stream: truncation caps every stream at
    /// the same row budget, so the longest stream is the one the cap
    /// actually bit. (Anchoring on the first stream would over-scale a
    /// trace whose first window happened to be short.)
    #[must_use]
    pub fn row_scale(&self) -> f64 {
        let sampled = self.arena.spans.iter().map(|s| s.rows).max().unwrap_or(0);
        if sampled == 0 {
            0.0
        } else {
            self.total_rows_per_window as f64 / sampled as f64
        }
    }

    /// Measured scheduled-side sparsity over the sampled streams (includes
    /// structural zeros from padding, stride dilation, and lane rounding —
    /// they are genuine zeros in the operand stream). Bits at or above the
    /// lane count are storage padding and are ignored.
    #[must_use]
    pub fn measured_sparsity(&self) -> f64 {
        let rows = self.arena.masks.len();
        if rows == 0 {
            return 0.0;
        }
        let live = lane_mask(self.lanes);
        let nz: u64 = self
            .arena
            .masks
            .iter()
            .map(|m| u64::from((m & live).count_ones()))
            .sum();
        1.0 - nz as f64 / (rows * self.lanes) as f64
    }

    /// Dense cycles of the full operation for a single PE column pass:
    /// `total_windows × total_rows_per_window`.
    #[must_use]
    pub fn dense_rows_total(&self) -> u64 {
        self.total_windows * self.total_rows_per_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> OpTrace {
        let mut arena = TraceArena::new();
        arena.push_window(vec![0xFFFF; 9]);
        arena.push_window(vec![0x0000; 9]);
        OpTrace::from_arena(
            TrainingOp::Forward,
            16,
            ConvDims::conv_square(1, 16, 4, 4, 3, 1, 1),
            16,
            9,
            arena,
            TrafficVolumes::default(),
        )
    }

    #[test]
    fn window_sparsity_counts_zero_slots() {
        let masks = [0xFFFF, 0x0000];
        let w = WindowTrace::new(&masks, 16);
        assert_eq!(w.nonzeros(), 16);
        assert!((w.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn padding_bits_above_lanes_are_ignored() {
        // A corrupt mask with every bit set must count only the 16 live
        // lanes — before the masking fix this popcounted all 64 bits and
        // drove sparsity to -3.0.
        let masks = [u64::MAX, 0x3_0000];
        let w = WindowTrace::new(&masks, 16);
        assert_eq!(w.nonzeros(), 16);
        assert!((w.sparsity() - 0.5).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&w.sparsity()));
    }

    #[test]
    fn trace_sparsity_ignores_padding_bits() {
        let mut arena = TraceArena::new();
        arena.push_window([u64::MAX; 4]);
        let t = OpTrace::from_arena(
            TrainingOp::Forward,
            16,
            ConvDims::conv_square(1, 16, 4, 4, 3, 1, 1),
            16,
            9,
            arena,
            TrafficVolumes::default(),
        );
        assert_eq!(t.measured_sparsity(), 0.0);
    }

    #[test]
    fn scales_reflect_sampling() {
        let t = tiny_trace();
        assert_eq!(t.window_scale(), 8.0);
        assert_eq!(t.row_scale(), 1.0);
        assert_eq!(t.dense_rows_total(), 144);
    }

    #[test]
    fn row_scale_anchors_on_the_longest_stream() {
        // First window shorter than the cap, second at the cap: the scale
        // must divide by the longest (4 rows), not the first (2 rows).
        let mut arena = TraceArena::new();
        arena.push_window(vec![0xF; 2]);
        arena.push_window(vec![0xF; 4]);
        let t = OpTrace::from_arena(
            TrainingOp::Forward,
            16,
            ConvDims::conv_square(1, 16, 4, 4, 3, 1, 1),
            16,
            8,
            arena,
            TrafficVolumes::default(),
        );
        assert!((t.row_scale() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn measured_sparsity_averages_streams() {
        let t = tiny_trace();
        assert!((t.measured_sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arena_spans_are_contiguous() {
        let t = tiny_trace();
        assert_eq!(t.num_windows(), 2);
        assert_eq!(t.spans()[0], WindowSpan { offset: 0, rows: 9 });
        assert_eq!(t.spans()[1], WindowSpan { offset: 9, rows: 9 });
        assert_eq!(t.uniform_rows(), Some(9));
        assert_eq!(t.arena_masks().len(), 18);
        assert_eq!(t.window_masks(1), &[0u64; 9]);
    }

    #[test]
    fn push_window_with_writes_in_place() {
        let mut arena = TraceArena::with_capacity(2, 3);
        arena.push_window_with(|buf| buf.extend([1, 2, 3]));
        arena.push_window_with(|buf| buf.push(9));
        assert_eq!(arena.windows(), 2);
        assert_eq!(arena.spans[1], WindowSpan { offset: 3, rows: 1 });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sampling_caps_rejected() {
        let _ = SampleSpec::new(0, 10);
    }
}
