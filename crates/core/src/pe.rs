//! Functional processing-element models (Figs 6 and 8 of the paper).
//!
//! [`DensePe`] is the baseline: `lanes` MACs per cycle, one dense row per
//! cycle, all products (including zeros) fed to the adder tree.
//! [`TensorDashPe`] composes two [`StagingBuffer`]s, the zero-vector AND
//! stage, and the hierarchical [`Scheduler`] to skip ineffectual pairs.
//!
//! These models compute *real arithmetic* and exist to demonstrate the
//! paper's numerical-fidelity claim: TensorDash performs exactly the same
//! multiset of non-zero products as the dense baseline — it only removes
//! products that are exactly zero. Their per-cycle `MS` selections come
//! from [`Scheduler::step_schedule`], which shares the batched word-parallel
//! selection kernel with the mask-only paths. The cycle-level behaviour
//! feeding the performance results lives in `tensordash-sim`, which uses
//! the much faster mask-only paths ([`Scheduler::run_masks`] and
//! [`Scheduler::run_masks_arena`]).

use crate::element::Element;
use crate::geometry::{PeGeometry, MAX_DEPTH};
use crate::scheduler::Scheduler;
use crate::staging::StagingBuffer;

/// Which operand side(s) the scheduler extracts sparsity from (§3.3).
///
/// The paper's training tiles extract from one side only (`BSide`): one
/// scheduler per PE row suffices because each of the three training
/// convolutions has ample sparsity on at least one operand. `Both` is the
/// full per-PE configuration; `None` bypasses TensorDash (power-gated,
/// §3.5) and behaves exactly like the dense baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparsitySide {
    /// Staging bypassed: dense behaviour (the §3.5 power-gated mode).
    None,
    /// Skip pairs whose A operand is zero.
    ASide,
    /// Skip pairs whose B operand is zero (the tile configuration).
    BSide,
    /// Skip pairs where either operand is zero (`Z = AZ & BZ`).
    #[default]
    Both,
}

/// One row of operand pairs entering a PE: `lanes` values per side.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRow<T> {
    /// A-side operands (e.g. activations).
    pub a: Vec<T>,
    /// B-side operands (e.g. weights or gradients).
    pub b: Vec<T>,
}

impl<T: Element> PairRow<T> {
    /// Builds a row from two equal-length slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn new(a: &[T], b: &[T]) -> Self {
        assert_eq!(a.len(), b.len(), "operand rows must pair up");
        PairRow {
            a: a.to_vec(),
            b: b.to_vec(),
        }
    }

    /// Number of pairs where both operands are non-zero.
    #[must_use]
    pub fn effectual(&self) -> usize {
        self.a
            .iter()
            .zip(&self.b)
            .filter(|(a, b)| !a.is_zero() && !b.is_zero())
            .count()
    }
}

/// Result of streaming operand pairs through a PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeRun {
    /// The accumulated output (f64 accumulator; see [`Element::to_f64`]).
    pub value: f64,
    /// Cycles this PE needed.
    pub cycles: u64,
    /// Rows in the stream = cycles the dense baseline needs.
    pub dense_cycles: u64,
    /// MAC operations actually issued.
    pub macs: u64,
}

impl PeRun {
    /// Speedup over the dense baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            self.dense_cycles as f64 / self.cycles as f64
        }
    }
}

/// The baseline data-parallel PE (Fig 6): processes one row per cycle.
#[derive(Debug, Clone)]
pub struct DensePe {
    geometry: PeGeometry,
}

impl DensePe {
    /// Creates a dense PE with the given geometry.
    #[must_use]
    pub fn new(geometry: PeGeometry) -> Self {
        DensePe { geometry }
    }

    /// Streams `rows` through the PE, accumulating all products.
    pub fn run<T, I>(&self, rows: I) -> PeRun
    where
        T: Element,
        I: IntoIterator<Item = PairRow<T>>,
    {
        let mut run = PeRun {
            value: 0.0,
            cycles: 0,
            dense_cycles: 0,
            macs: 0,
        };
        for row in rows {
            assert!(
                row.a.len() <= self.geometry.lanes(),
                "row wider than the PE"
            );
            for (a, b) in row.a.iter().zip(&row.b) {
                run.value += a.to_f64() * b.to_f64();
            }
            run.macs += row.a.len() as u64;
            run.cycles += 1;
            run.dense_cycles += 1;
        }
        run
    }

    /// The multiset of non-zero products, in dense consumption order.
    pub fn nonzero_products<T, I>(&self, rows: I) -> Vec<f64>
    where
        T: Element,
        I: IntoIterator<Item = PairRow<T>>,
    {
        let mut out = Vec::new();
        for row in rows {
            for (a, b) in row.a.iter().zip(&row.b) {
                if !a.is_zero() && !b.is_zero() {
                    out.push(a.to_f64() * b.to_f64());
                }
            }
        }
        out
    }
}

/// The TensorDash PE (Fig 8): staging buffers + scheduler + sparse muxes.
#[derive(Debug, Clone)]
pub struct TensorDashPe {
    scheduler: Scheduler,
    side: SparsitySide,
}

impl TensorDashPe {
    /// Creates a PE around an existing scheduler.
    #[must_use]
    pub fn new(scheduler: Scheduler, side: SparsitySide) -> Self {
        TensorDashPe { scheduler, side }
    }

    /// The paper-default PE: 16 lanes, 3-deep staging, both-side extraction.
    #[must_use]
    pub fn paper() -> Self {
        TensorDashPe::new(Scheduler::paper(PeGeometry::paper()), SparsitySide::Both)
    }

    /// The PE geometry.
    #[must_use]
    pub fn geometry(&self) -> PeGeometry {
        self.scheduler.geometry()
    }

    /// The configured extraction side.
    #[must_use]
    pub fn side(&self) -> SparsitySide {
        self.side
    }

    /// Streams `rows` through the PE and returns the accumulated value plus
    /// cycle counts.
    pub fn run<T, I>(&self, rows: I) -> PeRun
    where
        T: Element,
        I: IntoIterator<Item = PairRow<T>>,
    {
        self.drive(rows, |_| {})
    }

    /// As [`TensorDashPe::run`], also returning every non-zero product in
    /// consumption order (for fidelity checking against [`DensePe`]).
    pub fn run_recording<T, I>(&self, rows: I) -> (PeRun, Vec<f64>)
    where
        T: Element,
        I: IntoIterator<Item = PairRow<T>>,
    {
        let mut products = Vec::new();
        let run = self.drive(rows, |p| {
            if p != 0.0 {
                products.push(p);
            }
        });
        (run, products)
    }

    fn drive<T, I, F>(&self, rows: I, mut on_product: F) -> PeRun
    where
        T: Element,
        I: IntoIterator<Item = PairRow<T>>,
        F: FnMut(f64),
    {
        let geometry = self.geometry();
        let lane_mask = geometry.lane_mask();
        let mut rows = rows.into_iter();
        let mut a_stage = StagingBuffer::<T>::new(geometry);
        let mut b_stage = StagingBuffer::<T>::new(geometry);
        let mut z = [0u64; MAX_DEPTH];
        let mut exhausted = false;
        let mut run = PeRun {
            value: 0.0,
            cycles: 0,
            dense_cycles: 0,
            macs: 0,
        };

        loop {
            // Replenish: row-wide writes into the free staging slots.
            while !a_stage.is_full() && !exhausted {
                match rows.next() {
                    Some(row) => {
                        assert!(row.a.len() <= geometry.lanes(), "row wider than the PE");
                        let slot = a_stage.rows_pending();
                        a_stage.push_row(&row.a);
                        b_stage.push_row(&row.b);
                        let az = a_stage.nonzero_vector()[slot];
                        let bz = b_stage.nonzero_vector()[slot];
                        z[slot] = match self.side {
                            SparsitySide::None => lane_mask,
                            SparsitySide::ASide => az,
                            SparsitySide::BSide => bz,
                            SparsitySide::Both => az & bz,
                        };
                        run.dense_cycles += 1;
                    }
                    None => exhausted = true,
                }
            }
            let pending = a_stage.rows_pending();
            if pending == 0 {
                break;
            }

            let schedule = self.scheduler.step_schedule(&mut z);
            for sel in schedule.selections.iter().flatten() {
                let a = a_stage.read(sel.movement);
                let b = b_stage.read(sel.movement);
                let product = a.to_f64() * b.to_f64();
                run.value += product;
                run.macs += 1;
                on_product(product);
            }
            run.cycles += 1;

            let advance = schedule.advance.min(pending);
            a_stage.advance(advance);
            b_stage.advance(advance);
            z.rotate_left(advance);
            for slot in &mut z[MAX_DEPTH - advance..] {
                *slot = 0;
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_rows(seed: u64, n: usize, lanes: usize, density: f64) -> Vec<PairRow<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let gen = |rng: &mut StdRng| {
                    (0..lanes)
                        .map(|_| {
                            if rng.gen_bool(density) {
                                rng.gen_range(-2.0f32..2.0)
                            } else {
                                0.0
                            }
                        })
                        .collect::<Vec<_>>()
                };
                let a = gen(&mut rng);
                let b = gen(&mut rng);
                PairRow { a, b }
            })
            .collect()
    }

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn numerical_fidelity_products_are_identical() {
        // The paper's core fidelity claim: TensorDash performs exactly the
        // same non-zero products as the dense schedule — nothing dropped,
        // nothing duplicated.
        let pe = TensorDashPe::paper();
        let dense = DensePe::new(PeGeometry::paper());
        for seed in 0..5 {
            let rows = random_rows(seed, 64, 16, 0.5);
            let (_, td_products) = pe.run_recording(rows.clone());
            let dense_products = dense.nonzero_products(rows);
            assert_eq!(sorted(td_products), sorted(dense_products));
        }
    }

    #[test]
    fn accumulated_value_is_exact_for_integer_valued_data() {
        // With integer-valued operands every partial sum is exactly
        // representable, so reordering cannot change the result at all.
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<PairRow<f32>> = (0..32)
            .map(|_| {
                let gen = |rng: &mut StdRng| {
                    (0..16)
                        .map(|_| {
                            if rng.gen_bool(0.4) {
                                rng.gen_range(-8i32..=8) as f32
                            } else {
                                0.0
                            }
                        })
                        .collect::<Vec<_>>()
                };
                let a = gen(&mut rng);
                let b = gen(&mut rng);
                PairRow { a, b }
            })
            .collect();
        let td = TensorDashPe::paper().run(rows.clone());
        let dn = DensePe::new(PeGeometry::paper()).run(rows);
        assert_eq!(td.value, dn.value);
    }

    #[test]
    fn accumulated_value_matches_dense_within_tolerance() {
        let rows = random_rows(9, 128, 16, 0.6);
        let td = TensorDashPe::paper().run(rows.clone());
        let dn = DensePe::new(PeGeometry::paper()).run(rows);
        let scale = dn.value.abs().max(1.0);
        assert!((td.value - dn.value).abs() / scale < 1e-9);
    }

    #[test]
    fn sparse_streams_finish_early() {
        let rows = random_rows(1, 90, 16, 0.25);
        let td = TensorDashPe::paper().run(rows.clone());
        assert_eq!(td.dense_cycles, 90);
        assert!(td.cycles < 90, "75% sparsity must produce a speedup");
        assert!(td.speedup() > 1.5);
    }

    #[test]
    fn dense_streams_run_at_baseline_speed() {
        let rows = random_rows(2, 50, 16, 1.0);
        let td = TensorDashPe::paper().run(rows.clone());
        assert_eq!(td.cycles, 50);
        assert_eq!(td.macs, 50 * 16);
    }

    #[test]
    fn side_none_behaves_like_the_baseline() {
        let pe = TensorDashPe::new(Scheduler::paper(PeGeometry::paper()), SparsitySide::None);
        let rows = random_rows(4, 70, 16, 0.3);
        let run = pe.run(rows.clone());
        assert_eq!(run.cycles, 70);
        assert_eq!(run.macs, 70 * 16);
        let dn = DensePe::new(PeGeometry::paper()).run(rows);
        assert!((run.value - dn.value).abs() < 1e-9);
    }

    #[test]
    fn b_side_extraction_skips_only_b_zeros() {
        // A-side zeros do not help when extracting on B only.
        let rows: Vec<PairRow<f32>> = (0..30)
            .map(|_| PairRow {
                a: vec![0.0; 16], // A entirely zero
                b: vec![1.0; 16], // B entirely dense
            })
            .collect();
        let pe = TensorDashPe::new(Scheduler::paper(PeGeometry::paper()), SparsitySide::BSide);
        let run = pe.run(rows);
        assert_eq!(run.cycles, 30, "dense B side means no skipping");
        // ... but the accumulated value is still exactly zero.
        assert_eq!(run.value, 0.0);
    }

    #[test]
    fn both_side_never_slower_than_one_side() {
        for seed in 0..4 {
            let rows = random_rows(100 + seed, 200, 16, 0.5);
            let both = TensorDashPe::paper().run(rows.clone());
            let b_only =
                TensorDashPe::new(Scheduler::paper(PeGeometry::paper()), SparsitySide::BSide)
                    .run(rows);
            assert!(both.cycles <= b_only.cycles, "seed {seed}");
        }
    }

    #[test]
    fn effectual_count_matches_macs_for_both_side() {
        let rows = random_rows(8, 60, 16, 0.45);
        let expected: u64 = rows.iter().map(|r| r.effectual() as u64).sum();
        let run = TensorDashPe::paper().run(rows);
        assert_eq!(run.macs, expected);
    }

    #[test]
    fn narrow_final_row_is_zero_padded() {
        let rows = vec![
            PairRow::new(&[1.0f32; 16], &[1.0; 16]),
            PairRow::new(&[2.0f32, 3.0], &[4.0, 5.0]),
        ];
        let run = TensorDashPe::paper().run(rows);
        assert_eq!(run.value, 16.0 + 8.0 + 15.0);
    }

    #[test]
    fn pair_row_effectual_counts_joint_nonzeros() {
        let row = PairRow::new(&[1.0f32, 0.0, 2.0, 3.0], &[1.0, 1.0, 0.0, 2.0]);
        assert_eq!(row.effectual(), 2);
    }
}
