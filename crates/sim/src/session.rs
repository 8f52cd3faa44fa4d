//! The owning simulation session: one [`Simulator`] per chip
//! configuration, with single-op, paired, and thread-pooled batch entry
//! points.
//!
//! [`Simulator::simulate_batch`] is the one batch path: it takes a
//! [`CancelToken`], and [`Simulator::simulate_model`] is its unbounded
//! wrapper. Its work items are *(layer, op, bundle)* triples, a bundle
//! being the consecutive tile row-groups of one operation that the
//! scheduler kernel steps in flight together in one tile call (up to
//! four; [`SparsityScheduler::groups_in_flight`](tensordash_core::SparsityScheduler::groups_in_flight)).

use crate::config::ChipConfig;
use crate::exec::{self, ExecMode, OpSim};
use crate::report::{LayerReport, ModelReport, OpAggregate};
use crate::tile::Tile;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tensordash_trace::OpTrace;

/// A cooperative cancellation signal for long simulations: an explicit
/// flag, an optional wall-clock deadline, or both. Workers consult it at
/// *(layer, op, bundle)* work-item boundaries — a fired token stops a
/// batch before its next item, never mid-item (a bundle is up to four
/// tile row-groups in one kernel call), so partial results are simply
/// discarded and nothing half-built escapes.
///
/// Clones share the flag: cancelling any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (only [`cancel`](Self::cancel)
    /// trips it).
    #[must_use]
    pub fn unbounded() -> Self {
        CancelToken::default()
    }

    /// A token that fires once `deadline` passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// A token that fires `timeout` from now.
    #[must_use]
    pub fn after(timeout: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Trips the token explicitly; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired (explicitly or past its deadline).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// The batch was cancelled at a work-item boundary before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation cancelled at a work-item boundary")
    }
}

impl std::error::Error for Cancelled {}

/// A simulation session owning the chip being modelled (and the tile
/// simulator built for it — the scheduler's lookup tables are compiled
/// once per session, not once per operation).
///
/// Construction is infallible from an existing [`ChipConfig`]; pair it
/// with [`ChipConfig::builder`] for validated custom machines.
///
/// # Examples
///
/// ```
/// use tensordash_sim::{ExecMode, Simulator};
/// use tensordash_trace::{ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity};
///
/// let sim = Simulator::paper();
/// let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
/// let trace = UniformSparsity::new(0.6).op_trace(
///     dims, TrainingOp::Forward, sim.chip().tile.pe.lanes(), &SampleSpec::default(), 1);
/// let (td, base) = sim.simulate_pair(&trace);
/// let speedup = base.compute_cycles as f64 / td.compute_cycles as f64;
/// assert!(speedup > 1.5 && speedup <= 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    chip: ChipConfig,
    threads: usize,
    tile: Tile,
}

impl PartialEq for Simulator {
    /// Sessions are equal when they simulate the same chip with the same
    /// thread budget (the cached tile is derived state).
    fn eq(&self, other: &Self) -> bool {
        self.chip == other.chip && self.threads == other.threads
    }
}

impl Simulator {
    /// A session for the given chip.
    #[must_use]
    pub fn new(chip: ChipConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(8);
        Simulator {
            chip,
            threads,
            tile: Tile::with_scheduler(chip.tile, chip.scheduler),
        }
    }

    /// A session on the paper's Table 2 chip.
    #[must_use]
    pub fn paper() -> Self {
        Simulator::new(ChipConfig::paper())
    }

    /// Overrides the worker-thread count used by
    /// [`simulate_batch`](Simulator::simulate_batch) (defaults to the
    /// available parallelism, capped at 8). Results are identical at any
    /// thread count; this only changes wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "simulator needs at least one thread");
        self.threads = threads;
        self
    }

    /// The chip this session simulates.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Simulates one operation on one machine.
    ///
    /// # Panics
    ///
    /// Panics if the trace's lane count differs from the chip's PE width,
    /// or if the trace has no sampled windows.
    #[must_use]
    pub fn simulate(&self, trace: &OpTrace, mode: ExecMode) -> OpSim {
        let sampled = exec::run_sampled(&self.tile, trace);
        exec::finish(&self.chip, &self.tile, trace, mode, &sampled)
    }

    /// Simulates one operation on both machines at once, sharing the
    /// (dominant) bit-exact tile simulation between them.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Simulator::simulate).
    #[must_use]
    pub fn simulate_pair(&self, trace: &OpTrace) -> (OpSim, OpSim) {
        let sampled = exec::run_sampled(&self.tile, trace);
        exec::finish_pair(&self.chip, &self.tile, trace, &sampled)
    }

    /// Simulates one operation on both machines and packages the result as
    /// a report row.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Simulator::simulate).
    #[must_use]
    pub fn aggregate(&self, trace: &OpTrace) -> OpAggregate {
        let (tensordash, baseline) = self.simulate_pair(trace);
        OpAggregate {
            op: trace.op,
            tensordash,
            baseline,
        }
    }

    /// Simulates labelled groups of operations — typically one group per
    /// layer — across a scoped thread pool, returning one [`LayerReport`]
    /// per group in input order.
    ///
    /// Scheduling is **work-stealing with intra-run sharding**: every
    /// *(group, operation, bundle)* triple is one work item, and workers
    /// claim items off a shared atomic index as they finish. A bundle is
    /// as many consecutive tile row-groups of the operation's arena as the
    /// kernel steps in flight (up to four;
    /// [`SparsityScheduler::groups_in_flight`](tensordash_core::SparsityScheduler::groups_in_flight)),
    /// priced by one [`Tile::run_group_arena`] call that steps them in
    /// flight together. A batch of many small
    /// layers balances exactly as before, and a *single* big operation
    /// (one transformer-MLP matmul) also shards across every thread
    /// instead of pinning one worker.
    ///
    /// The reduction-order contract: each bundle's aggregates land in
    /// their own pre-allocated slot, and after the pool joins they are
    /// merged per operation in input (bundle) order before the full-op
    /// scaling runs once. Every merged field is an exact `u64` sum, so
    /// reports are bit-identical to pricing every row-group on its own
    /// and always in input order, whatever the thread count (see
    /// [`with_threads`](Simulator::with_threads)).
    ///
    /// `cancel` is consulted before each work item is claimed. A fired
    /// token stops every worker at its next boundary and the whole batch
    /// returns [`Cancelled`]; a batch whose items all completed before
    /// the token fired still returns its (complete, bit-identical)
    /// reports. This is the deadline hook the resident service uses to
    /// bound job runtimes without poisoning shared caches: nothing
    /// partial is ever returned.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the token fired before every work item
    /// completed.
    ///
    /// # Panics
    ///
    /// As [`simulate`](Simulator::simulate), or if a worker thread panics.
    pub fn simulate_batch(
        &self,
        groups: &[(&str, &[OpTrace])],
        cancel: &CancelToken,
    ) -> Result<Vec<LayerReport>, Cancelled> {
        // One validated plan per (group, op) and one pre-allocated slot
        // per (group, op, bundle): workers write disjoint slots, the
        // reduction below reads them in input order.
        let plans: Vec<Vec<exec::SampledPlan>> = groups
            .iter()
            .map(|(_, ops)| {
                ops.iter()
                    .map(|trace| exec::SampledPlan::new(&self.tile, trace))
                    .collect()
            })
            .collect();
        let slots: Vec<Vec<Vec<OnceLock<exec::Sampled>>>> = plans
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|plan| (0..plan.bundles()).map(|_| OnceLock::new()).collect())
                    .collect()
            })
            .collect();
        let items: Vec<(usize, usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(g, ops)| {
                ops.iter()
                    .enumerate()
                    .flat_map(move |(o, plan)| (0..plan.bundles()).map(move |b| (g, o, b)))
            })
            .collect();

        let workers = self.threads.min(items.len());
        let run_item = |&(g, o, b): &(usize, usize, usize)| {
            let sampled = plans[g][o].run_bundle(&self.tile, b);
            slots[g][o][b]
                .set(sampled)
                .expect("each work item is claimed exactly once");
        };
        if workers <= 1 {
            // In-thread fast path: no spawn overhead on single-core hosts.
            for item in &items {
                if cancel.is_cancelled() {
                    return Err(Cancelled);
                }
                run_item(item);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        if cancel.is_cancelled() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        run_item(item);
                    });
                }
            });
        }

        // The deterministic reduction: per (group, op), merge bundle
        // partials in input order (exact u64 sums), then run the full-op
        // scaling once over the merged aggregates — byte-identical to the
        // serial loop at any thread count.
        let mut layers = Vec::with_capacity(groups.len());
        for ((label, traces), row) in groups.iter().zip(slots) {
            let mut ops = Vec::with_capacity(row.len());
            for (trace, bundle_slots) in traces.iter().zip(row) {
                let mut merged = exec::Sampled::default();
                for slot in bundle_slots {
                    // An unfilled slot means a worker bailed at the
                    // boundary: the batch is incomplete and must not
                    // pretend otherwise.
                    match slot.into_inner() {
                        Some(partial) => merged.absorb(&partial),
                        None => return Err(Cancelled),
                    }
                }
                let (tensordash, baseline) =
                    exec::finish_pair(&self.chip, &self.tile, trace, &merged);
                ops.push(OpAggregate {
                    op: trace.op,
                    tensordash,
                    baseline,
                });
            }
            layers.push(LayerReport {
                label: (*label).to_string(),
                ops,
            });
        }
        Ok(layers)
    }

    /// [`simulate_batch`](Simulator::simulate_batch) under an unbounded
    /// token, wrapping the layers into a named [`ModelReport`].
    #[must_use]
    pub fn simulate_model(&self, name: &str, groups: &[(&str, &[OpTrace])]) -> ModelReport {
        ModelReport {
            name: name.to_string(),
            layers: self
                .simulate_batch(groups, &CancelToken::unbounded())
                .unwrap_or_else(|_| unreachable!("an unbounded token never cancels")),
        }
    }
}

impl From<ChipConfig> for Simulator {
    fn from(chip: ChipConfig) -> Self {
        Simulator::new(chip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordash_trace::{ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity};

    fn traces(sparsity: f64, n: u64) -> Vec<OpTrace> {
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        (0..n)
            .map(|seed| {
                UniformSparsity::new(sparsity).op_trace(
                    dims,
                    TrainingOp::Forward,
                    16,
                    &SampleSpec::new(8, 64),
                    seed,
                )
            })
            .collect()
    }

    /// The batch path under a token that never fires.
    fn batch(sim: &Simulator, groups: &[(&str, &[OpTrace])]) -> Vec<LayerReport> {
        sim.simulate_batch(groups, &CancelToken::unbounded())
            .unwrap()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        let sim = Simulator::paper();
        let ops = traces(0.55, 12);
        let groups: Vec<(&str, &[OpTrace])> = ops.chunks(3).map(|c| ("layer", c)).collect();
        let parallel = batch(&sim, &groups);
        let sequential: Vec<LayerReport> = groups
            .iter()
            .map(|(label, ops)| LayerReport {
                label: (*label).to_string(),
                ops: ops.iter().map(|t| sim.aggregate(t)).collect(),
            })
            .collect();
        assert_eq!(parallel, sequential);
        let single_thread = batch(&sim.clone().with_threads(1), &groups);
        assert_eq!(parallel, single_thread);
    }

    /// The work-stealing queue must behave identically at every worker
    /// count, including counts far above the item count and ragged group
    /// shapes (heavy-tail layers are the point of stealing).
    #[test]
    fn work_stealing_is_thread_count_invariant() {
        let sim = Simulator::paper();
        let ops = traces(0.7, 7);
        let groups: Vec<(&str, &[OpTrace])> = vec![
            ("a", &ops[0..4]),
            ("b", &ops[4..4]),
            ("c", &ops[4..5]),
            ("d", &ops[5..7]),
        ];
        let reference = batch(&sim.clone().with_threads(1), &groups);
        for threads in [2, 3, 8, 64] {
            let got = batch(&sim.clone().with_threads(threads), &groups);
            assert_eq!(got, reference, "{threads} workers diverged");
        }
        assert_eq!(reference[1].ops.len(), 0, "empty group keeps its slot");
    }

    /// One big operation must shard into several bundles of tile
    /// row-groups (the intra-run parallelism path) and still reduce to the
    /// same bytes as the serial per-group loop at every thread count — the
    /// bundled reduction is exact `u64` sums, not floats. The second
    /// operation's last row-group is short (37 windows on 4 tile rows) and
    /// its 10 groups are not a multiple of the bundle size.
    #[test]
    fn intra_run_sharding_is_thread_count_invariant() {
        let sim = Simulator::paper();
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        for (windows, bundles, seed) in [(64, 4, 0x51AB), (37, 3, 0x7A11)] {
            let op = UniformSparsity::new(0.6).op_trace(
                dims,
                TrainingOp::Forward,
                16,
                &SampleSpec::new(windows, 128),
                seed,
            );
            assert_eq!(op.num_windows(), windows);
            let plan = exec::SampledPlan::new(&sim.tile, &op);
            assert_eq!(
                plan.bundles(),
                bundles,
                "the single op must split into multiple work items"
            );
            let sampled = exec::run_sampled_per_group(&sim.tile, &op);
            let (tensordash, baseline) = exec::finish_pair(sim.chip(), &sim.tile, &op, &sampled);
            let per_group = vec![LayerReport {
                label: "mlp".to_string(),
                ops: vec![OpAggregate {
                    op: op.op,
                    tensordash,
                    baseline,
                }],
            }];
            let ops = [op];
            assert_eq!(
                vec![LayerReport {
                    label: "mlp".to_string(),
                    ops: vec![sim.aggregate(&ops[0])],
                }],
                per_group
            );
            let groups: Vec<(&str, &[OpTrace])> = vec![("mlp", &ops)];
            for threads in [1, 2, 8] {
                let got = batch(&sim.clone().with_threads(threads), &groups);
                assert_eq!(
                    got, per_group,
                    "{windows} windows: {threads} workers diverged"
                );
            }
        }
    }

    #[test]
    fn batch_preserves_group_order_and_labels() {
        let sim = Simulator::paper();
        let ops = traces(0.4, 4);
        let labels = ["a", "b", "c", "d"];
        let groups: Vec<(&str, &[OpTrace])> = labels
            .iter()
            .zip(ops.chunks(1))
            .map(|(l, c)| (*l, c))
            .collect();
        let layers = batch(&sim, &groups);
        let got: Vec<&str> = layers.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(got, labels);
    }

    #[test]
    fn empty_batch_is_empty_report() {
        let sim = Simulator::paper();
        assert!(batch(&sim, &[]).is_empty());
        assert_eq!(sim.simulate_model("empty", &[]).layers.len(), 0);
    }

    /// The cancellation contract: an already-fired token stops the batch
    /// at the first boundary on every path (single- and multi-threaded),
    /// and an explicitly expired deadline behaves like an explicit cancel.
    #[test]
    fn cancelled_batches_stop_at_work_item_boundaries() {
        let sim = Simulator::paper();
        let ops = traces(0.5, 6);
        let groups: Vec<(&str, &[OpTrace])> = ops.chunks(2).map(|c| ("layer", c)).collect();

        let fired = CancelToken::unbounded();
        fired.cancel();
        assert_eq!(sim.simulate_batch(&groups, &fired), Err(Cancelled));
        assert_eq!(
            sim.clone().with_threads(1).simulate_batch(&groups, &fired),
            Err(Cancelled)
        );

        // An already-passed deadline fires without an explicit cancel.
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        assert_eq!(sim.simulate_batch(&groups, &expired), Err(Cancelled));

        // Clones share the flag.
        let shared = CancelToken::unbounded();
        let observer = shared.clone();
        assert!(!observer.is_cancelled());
        shared.cancel();
        assert!(observer.is_cancelled());
    }

    /// The service contract: one `Simulator` session and its report types
    /// must be shareable across worker threads (`Arc<Simulator>` serving
    /// concurrent HTTP requests). A compile-time guarantee — if a field
    /// ever grows interior mutability without synchronization, this stops
    /// building.
    #[test]
    fn sessions_and_reports_are_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Simulator>();
        shareable::<ChipConfig>();
        shareable::<ModelReport>();
        shareable::<LayerReport>();
        shareable::<OpAggregate>();
        shareable::<OpSim>();
    }
}
