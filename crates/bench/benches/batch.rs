//! Micro-benchmarks of batch simulation scheduling: the work-stealing
//! `(layer, op)` queue against a statically-chunked split, on a
//! deliberately heavy-tailed layer mix (one ResNet-scale layer among
//! cheap 1×1s — the shape that serializes a static chunk).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tensordash_sim::{LayerReport, Simulator};
use tensordash_trace::{ClusteredSparsity, ConvDims, OpTrace, SampleSpec, SparsityGen, TrainingOp};

/// A heavy-tailed workload: layer 0 carries ~10x the rows of the rest.
fn heavy_tail_groups() -> Vec<(String, Vec<OpTrace>)> {
    let gen = ClusteredSparsity::new(0.55, 0.3);
    let heavy = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
    let light = ConvDims::conv_square(4, 32, 7, 32, 1, 1, 0);
    (0..8)
        .map(|i| {
            let dims = if i == 0 { heavy } else { light };
            let sample = if i == 0 {
                SampleSpec::new(16, 512)
            } else {
                SampleSpec::new(16, 64)
            };
            let ops: Vec<OpTrace> = [
                TrainingOp::Forward,
                TrainingOp::InputGrad,
                TrainingOp::WeightGrad,
            ]
            .into_iter()
            .enumerate()
            .map(|(salt, op)| gen.op_trace(dims, op, 16, &sample, i * 16 + salt as u64))
            .collect();
            (format!("layer{i}"), ops)
        })
        .collect()
}

/// The pre-PR-3 static split: contiguous group chunks, one per worker.
fn simulate_static_chunks(
    sim: &Simulator,
    groups: &[(&str, &[OpTrace])],
    threads: usize,
) -> Vec<LayerReport> {
    let chunk = groups.len().div_ceil(threads).max(1);
    let mut layers: Vec<LayerReport> = Vec::with_capacity(groups.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .chunks(chunk)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(label, ops)| LayerReport {
                            label: (*label).to_string(),
                            ops: ops.iter().map(|t| sim.aggregate(t)).collect(),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            layers.extend(handle.join().expect("worker panicked"));
        }
    });
    layers
}

fn bench_batch_scheduling(c: &mut Criterion) {
    let owned = heavy_tail_groups();
    let groups: Vec<(&str, &[OpTrace])> = owned
        .iter()
        .map(|(label, ops)| (label.as_str(), ops.as_slice()))
        .collect();
    let mut bench_group = c.benchmark_group("batch_scheduling");
    for threads in [1usize, 2, 4] {
        let sim = Simulator::paper().with_threads(threads);
        bench_group.bench_with_input(
            BenchmarkId::new("work_stealing", threads),
            &threads,
            |b, _| b.iter(|| sim.simulate_model("batch", &groups)),
        );
        bench_group.bench_with_input(
            BenchmarkId::new("static_chunks", threads),
            &threads,
            |b, &threads| b.iter(|| simulate_static_chunks(&sim, &groups, threads)),
        );
    }
    bench_group.finish();

    // Balance sanity: both schedules must produce identical reports.
    let sim = Simulator::paper().with_threads(4);
    assert_eq!(
        sim.simulate_model("batch", &groups).layers,
        simulate_static_chunks(&sim, &groups, 4),
        "schedules diverged"
    );
}

criterion_group!(benches, bench_batch_scheduling);
criterion_main!(benches);
