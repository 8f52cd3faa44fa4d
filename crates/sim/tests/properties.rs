//! Property-based tests for the tile and chip simulator invariants.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tensordash_core::PeGeometry;
use tensordash_serde::{json, Serialize};
use tensordash_sim::{
    ChipConfig, ExecMode, GroupRun, LayerReport, ModelReport, OpAggregate, OpSim, SimCounters,
    Simulator, Tile, TileConfig,
};
use tensordash_trace::{
    ClusteredSparsity, ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity,
};

fn tile(rows: usize) -> Tile {
    Tile::new(TileConfig {
        rows,
        cols: 4,
        pe: PeGeometry::paper(),
    })
}

/// Labels at the string writer's edges: quotes, backslashes, control
/// characters and non-ASCII text.
const LABELS: [&str; 6] = [
    "conv1",
    "",
    "quote \" and \\ backslash",
    "nul \u{0} bell \u{7} tab \t nl \n cr \r us \u{1f} del \u{7f}",
    "ünïcødé ✓ 😀",
    "fire2/expand\\3x3",
];

/// Sampled speedups at the float writer's edges: integral values below
/// and above 1e15, signed zero, non-finite values (written as `null`)
/// and shortest-round-trip fractions.
const SPEEDUPS: [f64; 13] = [
    1.0,
    -0.0,
    0.0,
    1.9375,
    1.0 / 3.0,
    1e15 - 1.0,
    1e15,
    3e17,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    5e-324,
];

/// A counter anywhere in `u64`, with the `i64::MAX` boundary (above it
/// the tree takes the `UInt` spill) and the extremes drawn often.
fn counter(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..5) {
        0 => 0,
        1 => u64::MAX,
        2 => i64::MAX as u64 + rng.gen_range(0..2),
        3 => rng.gen_range(0..1_000_000),
        _ => rng.gen(),
    }
}

fn op_sim(rng: &mut StdRng, mode: ExecMode) -> OpSim {
    let mut c = || counter(rng);
    let counters = SimCounters {
        compute_cycles: c(),
        dram_cycles: c(),
        macs_issued: c(),
        mac_slots: c(),
        sram_read_elems: c(),
        sram_write_elems: c(),
        sp_accesses: c(),
        transposer_elems: c(),
        scheduler_steps: c(),
        dram_read_bits: c(),
        dram_write_bits: c(),
    };
    OpSim {
        mode,
        compute_cycles: counter(rng),
        counters,
        sampled_speedup: SPEEDUPS[rng.gen_range(0..SPEEDUPS.len())],
    }
}

/// A report drawn from `seed`, with ragged (and empty) layer and op lists.
fn random_report(seed: u64) -> ModelReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = (0..rng.gen_range(0..5))
        .map(|_| LayerReport {
            label: LABELS[rng.gen_range(0..LABELS.len())].to_string(),
            ops: (0..rng.gen_range(0..4))
                .map(|i| OpAggregate {
                    op: TrainingOp::ALL[i % 3],
                    tensordash: op_sim(&mut rng, ExecMode::TensorDash),
                    baseline: op_sim(&mut rng, ExecMode::Baseline),
                })
                .collect(),
        })
        .collect();
    ModelReport {
        name: LABELS[rng.gen_range(0..LABELS.len())].to_string(),
        layers,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The report types write JSON directly, with no `Value` tree: the
    /// text must be exactly the tree's, at the top level and nested, for
    /// reports, layer lists and ops alike.
    #[test]
    fn direct_report_json_is_the_tree_json(seed in any::<u64>()) {
        let report = random_report(seed);
        prop_assert_eq!(json::write(&report), json::write(&report.serialize()));
        prop_assert_eq!(json::write(&report.layers), json::write(&report.layers.serialize()));
        for indent in [1, 4] {
            let (mut direct, mut tree) = (String::new(), String::new());
            report.write_json(indent, &mut direct);
            report.serialize().write_json(indent, &mut tree);
            prop_assert_eq!(direct, tree);
        }
    }

    /// Tile invariant: cycles are bounded by the dense stream length below
    /// and by the depth-limited minimum above, and every effectual slot is
    /// processed exactly once. At 1 and 2 rows a call carries up to 40
    /// row-groups, more than the kernel steps in flight in shared packed
    /// words: the bounds hold per group, and the call equals the sum of
    /// one call per group.
    #[test]
    fn tile_group_bounds(
        seed in any::<u64>(),
        density in 0.0f64..1.0,
        rows in 1usize..=16,
        drawn_groups in 1usize..=40,
        len in 1usize..300,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = if rows <= 2 { drawn_groups } else { 1 };
        // `groups` row-groups of `rows` streams of `len` masks, back to
        // back in one arena.
        let arena: Vec<u64> = (0..groups * rows * len)
            .map(|_| {
                let mut m = 0u64;
                for lane in 0..16 {
                    if rng.gen_bool(density) {
                        m |= 1 << lane;
                    }
                }
                m
            })
            .collect();
        let tile = tile(rows);
        let run = tile.run_group_arena(&arena, groups * rows, len);
        let (groups, len) = (groups as u64, len as u64);
        prop_assert!(run.cycles <= groups * len, "slower than dense");
        prop_assert!(run.cycles >= groups * len.div_ceil(3), "beat the depth limit");
        let effectual: u64 = arena.iter().map(|m| u64::from(m.count_ones())).sum();
        prop_assert_eq!(run.macs_per_column, effectual);
        prop_assert_eq!(run.scheduler_steps, run.cycles * rows as u64);
        let parts: Vec<GroupRun> = arena
            .chunks(rows * len as usize)
            .map(|group| tile.run_group_arena(group, rows, len as usize))
            .collect();
        prop_assert_eq!(run.cycles, parts.iter().map(|p| p.cycles).sum::<u64>());
        prop_assert_eq!(run.dense_cycles, parts.iter().map(|p| p.dense_cycles).sum::<u64>());
        prop_assert_eq!(
            run.scheduler_steps,
            parts.iter().map(|p| p.scheduler_steps).sum::<u64>()
        );
    }

    /// Chip invariant: TensorDash never needs more compute cycles than the
    /// baseline, for any op, geometry, and sparsity.
    #[test]
    fn chip_never_slower(
        sparsity in 0.0f64..1.0,
        clustering in 0.0f64..0.8,
        op_idx in 0usize..3,
    ) {
        let chip = ChipConfig::paper();
        let dims = ConvDims::conv_square(2, 48, 10, 32, 3, 1, 1);
        let op = TrainingOp::ALL[op_idx];
        let trace = ClusteredSparsity::new(sparsity, clustering).op_trace(
            dims, op, 16, &SampleSpec::new(16, 128), 3);
        let (td, base) = Simulator::new(chip).simulate_pair(&trace);
        prop_assert!(td.compute_cycles <= base.compute_cycles);
        prop_assert!(td.compute_cycles * 3 >= base.compute_cycles,
            "speedup beyond the staging ceiling");
    }

    /// DRAM traffic shrinks monotonically with sparsity and is identical
    /// across machines.
    #[test]
    fn dram_monotone_in_sparsity(s1 in 0.0f64..0.5, delta in 0.1f64..0.5) {
        let chip = ChipConfig::paper();
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        let sparse = UniformSparsity::new((s1 + delta).min(1.0)).op_trace(
            dims, TrainingOp::Forward, 16, &SampleSpec::new(8, 64), 1);
        let dense = UniformSparsity::new(s1).op_trace(
            dims, TrainingOp::Forward, 16, &SampleSpec::new(8, 64), 1);
        let sim = Simulator::new(chip);
        let (td_s, base_s) = sim.simulate_pair(&sparse);
        let (td_d, _) = sim.simulate_pair(&dense);
        prop_assert!(td_s.counters.dram_read_bits <= td_d.counters.dram_read_bits);
        prop_assert_eq!(td_s.counters.dram_read_bits, base_s.counters.dram_read_bits);
    }

    /// The work-stealing batch is invisible in the results: any layer mix
    /// and worker count produces the sequential path's reports bit for
    /// bit, in input order.
    #[test]
    fn work_stealing_batch_equals_sequential(
        seed in any::<u64>(),
        sparsity in 0.1f64..0.9,
        n_groups in 3usize..7,
        threads in 1usize..9,
    ) {
        use tensordash_sim::LayerReport;
        use tensordash_trace::OpTrace;
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        // Ragged group sizes (0..=2 ops per layer) stress the stealing;
        // any three consecutive layers hold three ops.
        let ops: Vec<Vec<OpTrace>> = (0..n_groups)
            .map(|g| {
                (0..(seed as usize + g) % 3)
                    .map(|o| {
                        UniformSparsity::new(sparsity).op_trace(
                            dims,
                            TrainingOp::ALL[o % 3],
                            16,
                            &SampleSpec::new(80, 48),
                            seed ^ (g as u64) << 4 ^ o as u64,
                        )
                    })
                    .collect()
            })
            .collect();
        // Three ops of 80 windows x 18 rows reach the 4,096 sampled masks
        // from which a batch leaves the calling thread for the worker
        // pool, so every thread count above one is priced by the pool.
        let masks: usize = ops.iter().flatten().map(|t| t.arena_masks().len()).sum();
        prop_assert!(masks >= 4096, "{masks} masks stay on the calling thread");
        let labels: Vec<String> = (0..n_groups).map(|g| format!("layer{g}")).collect();
        let groups: Vec<(&str, &[OpTrace])> = labels
            .iter()
            .zip(&ops)
            .map(|(l, o)| (l.as_str(), o.as_slice()))
            .collect();
        let sim = Simulator::paper().with_threads(threads);
        let stolen = sim.simulate_model("batch", &groups).layers;
        let sequential: Vec<LayerReport> = groups
            .iter()
            .map(|(label, ops)| LayerReport {
                label: (*label).to_string(),
                ops: ops.iter().map(|t| sim.aggregate(t)).collect(),
            })
            .collect();
        prop_assert_eq!(stolen, sequential);
    }

    /// Doubling the tiles halves compute cycles (work is tile-parallel).
    #[test]
    fn tiles_scale_compute(sparsity in 0.1f64..0.9) {
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        let trace = UniformSparsity::new(sparsity).op_trace(
            dims, TrainingOp::Forward, 16, &SampleSpec::new(16, 128), 2);
        let c8 = ChipConfig { tiles: 8, ..ChipConfig::paper() };
        let c16 = ChipConfig::paper();
        let (a, _) = Simulator::new(c8).simulate_pair(&trace);
        let (b, _) = Simulator::new(c16).simulate_pair(&trace);
        let ratio = a.compute_cycles as f64 / b.compute_cycles as f64;
        prop_assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }
}
