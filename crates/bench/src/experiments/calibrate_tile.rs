//! Calibration / ablation: tile efficiency (achieved ÷ ideal speedup) as
//! a function of uniform sparsity, row count, and clustering. Quantifies
//! the cost of the shared dense-side window (per-cycle min-advance
//! synchronization) that Fig 17 sweeps.

use tensordash_core::PeGeometry;
use tensordash_sim::{Tile, TileConfig};
use tensordash_trace::{ClusteredSparsity, SparsityGen};

/// Runs the ablation, printing one row per (clustering, sparsity) pair.
pub fn run() {
    let rows_list = [1usize, 2, 4, 8, 16];
    println!("tile speedup over dense baseline (uniform streams, 3-deep, 16 lanes)");
    println!(
        "{:<10} {:<10} rows: 1      2      4      8     16",
        "sparsity", "clustering"
    );
    for &clustering in &[0.0, 0.2, 0.35, 0.5] {
        for &sparsity in &[0.3, 0.5, 0.65, 0.8, 0.9] {
            let gen = ClusteredSparsity::new(sparsity, clustering);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
            let streams: Vec<Vec<u64>> = (0..32)
                .map(|i| gen.window_masks(&mut rng, i, 2000, 16))
                .collect();
            let mut line = format!("{sparsity:<10.2} {clustering:<10.2}      ");
            for &rows in &rows_list {
                let tile = Tile::new(TileConfig {
                    rows,
                    cols: 4,
                    pe: PeGeometry::paper(),
                });
                let mut cycles = 0u64;
                let mut dense = 0u64;
                for group in streams.chunks(rows) {
                    let refs: Vec<&[u64]> = group.iter().map(Vec::as_slice).collect();
                    let run = tile.run_group(&refs);
                    cycles += run.cycles;
                    dense += run.dense_cycles;
                }
                line.push_str(&format!("{:>6.2} ", dense as f64 / cycles as f64));
            }
            println!("{line}");
        }
        println!();
    }
}
