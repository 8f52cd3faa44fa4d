//! Building simulator traces from model specs and profiles.

use crate::profile::SparsityProfile;
use crate::zoo::{LayerSpec, ModelSpec};
use tensordash_trace::{
    synthesize_arena, ClusteredSparsity, ConvDims, OpTrace, SampleSpec, TrafficVolumes, TrainingOp,
};

/// Builds the trace of one operation of one layer at training progress `t`.
///
/// The scheduled-side stream masks come from a [`ClusteredSparsity`]
/// generator at the profile's sparsity for that operation and layer depth;
/// the traffic volumes carry the profile's per-tensor non-zero counts so
/// the CompressingDMA model sees the right compressibility (including
/// pruned weights for the DS90/SM90 models).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn build_op_trace(
    dims: ConvDims,
    op: TrainingOp,
    profile: &SparsityProfile,
    progress: f64,
    depth_frac: f64,
    lanes: usize,
    sample: &SampleSpec,
    seed: u64,
) -> OpTrace {
    let sched_sparsity = match op {
        TrainingOp::Forward => profile.act_at(progress, depth_frac),
        TrainingOp::InputGrad => profile.grad_at(progress, depth_frac),
        TrainingOp::WeightGrad => profile.weight_grad_at(progress, depth_frac),
    };
    let gen = ClusteredSparsity::new(sched_sparsity, profile.clustering);

    let total_windows = dims.windows(op);
    let total_rows = dims.rows_per_window(op, lanes);
    let n_windows = sample.max_windows.min(total_windows as usize);
    let rows = sample.max_rows.min(total_rows as usize);
    let arena = synthesize_arena(&gen, n_windows, rows, lanes, seed, seed.wrapping_mul(31));

    let act_density = 1.0 - profile.act_at(progress, depth_frac);
    let grad_density = 1.0 - profile.grad_at(progress, depth_frac);
    let weight_density = 1.0 - profile.weight_at(progress);
    let nz = |elems: u64, density: f64| (elems as f64 * density).round() as u64;

    let volumes = match op {
        TrainingOp::Forward => TrafficVolumes {
            dense_elems: dims.w_volume(),
            dense_nonzero: nz(dims.w_volume(), weight_density),
            sched_elems: dims.a_volume(),
            sched_nonzero: nz(dims.a_volume(), act_density),
            out_elems: dims.o_volume(),
            out_nonzero: nz(dims.o_volume(), grad_density.max(act_density)),
        },
        TrainingOp::InputGrad => TrafficVolumes {
            dense_elems: dims.w_volume(),
            dense_nonzero: nz(dims.w_volume(), weight_density),
            sched_elems: dims.o_volume(),
            sched_nonzero: nz(dims.o_volume(), grad_density),
            out_elems: dims.a_volume(),
            out_nonzero: dims.a_volume(),
        },
        TrainingOp::WeightGrad => {
            let (se, sn, de, dn) =
                if profile.grad_at(progress, depth_frac) >= profile.act_at(progress, depth_frac) {
                    (
                        dims.o_volume(),
                        nz(dims.o_volume(), grad_density),
                        dims.a_volume(),
                        nz(dims.a_volume(), act_density),
                    )
                } else {
                    (
                        dims.a_volume(),
                        nz(dims.a_volume(), act_density),
                        dims.o_volume(),
                        nz(dims.o_volume(), grad_density),
                    )
                };
            TrafficVolumes {
                dense_elems: de,
                dense_nonzero: dn,
                sched_elems: se,
                sched_nonzero: sn,
                out_elems: dims.w_volume(),
                out_nonzero: dims.w_volume(),
            }
        }
    };

    OpTrace::from_arena(op, lanes, dims, total_windows, total_rows, arena, volumes)
}

/// Builds all three operation traces for every layer of `model` at training
/// progress `t`. Returns `(layer, [Forward, InputGrad, WeightGrad])` pairs.
#[must_use]
pub fn layer_traces(
    model: &ModelSpec,
    progress: f64,
    lanes: usize,
    sample: &SampleSpec,
    seed: u64,
) -> Vec<(LayerSpec, [OpTrace; 3])> {
    let n_layers = model.layers.len().max(1);
    model
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let depth_frac = if n_layers == 1 {
                0.5
            } else {
                i as f64 / (n_layers - 1) as f64
            };
            let mk = |op: TrainingOp, salt: u64| {
                build_op_trace(
                    layer.dims,
                    op,
                    &model.profile,
                    progress,
                    depth_frac,
                    lanes,
                    sample,
                    seed ^ (i as u64) << 8 ^ salt,
                )
            };
            let traces = [
                mk(TrainingOp::Forward, 1),
                mk(TrainingOp::InputGrad, 2),
                mk(TrainingOp::WeightGrad, 3),
            ];
            (layer.clone(), traces)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Curve;

    fn profile() -> SparsityProfile {
        SparsityProfile {
            act: Curve::constant(0.6),
            grad: Curve::constant(0.7),
            weight: Curve::constant(0.0),
            clustering: 0.3,
            depth_slope: 0.0,
            wg_override: None,
        }
    }

    #[test]
    fn trace_sparsity_matches_profile() {
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        let t = build_op_trace(
            dims,
            TrainingOp::Forward,
            &profile(),
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            1,
        );
        assert!(
            (t.measured_sparsity() - 0.6).abs() < 0.08,
            "{}",
            t.measured_sparsity()
        );
        let t = build_op_trace(
            dims,
            TrainingOp::InputGrad,
            &profile(),
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            2,
        );
        assert!((t.measured_sparsity() - 0.7).abs() < 0.08);
    }

    #[test]
    fn weight_grad_uses_the_sparser_tensor() {
        let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
        let t = build_op_trace(
            dims,
            TrainingOp::WeightGrad,
            &profile(),
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            3,
        );
        // grad (0.7) > act (0.6), so GO is scheduled and its volume is the
        // output volume.
        assert_eq!(t.volumes.sched_elems, dims.o_volume());
        assert!((t.measured_sparsity() - 0.7).abs() < 0.08);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        let a = build_op_trace(
            dims,
            TrainingOp::Forward,
            &profile(),
            0.3,
            0.5,
            16,
            &SampleSpec::default(),
            9,
        );
        let b = build_op_trace(
            dims,
            TrainingOp::Forward,
            &profile(),
            0.3,
            0.5,
            16,
            &SampleSpec::default(),
            9,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn pruned_weights_shrink_dense_side_nonzeros() {
        let mut p = profile();
        p.weight = Curve::constant(0.9);
        let dims = ConvDims::conv_square(2, 32, 8, 32, 3, 1, 1);
        let t = build_op_trace(
            dims,
            TrainingOp::Forward,
            &p,
            0.5,
            0.5,
            16,
            &SampleSpec::default(),
            4,
        );
        assert_eq!(
            t.volumes.dense_nonzero,
            (dims.w_volume() as f64 * 0.1).round() as u64
        );
    }
}
