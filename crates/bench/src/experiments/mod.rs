//! One module per regenerated table/figure, plus two analysis studies
//! (`calibrate_tile`, `compression_study`). Each exposes `run()`, printing
//! the paper's rows/series next to the measured values and (all but
//! `calibrate_tile`) writing a CSV under `results/`.

pub mod bf16;
pub mod calibrate_tile;
pub mod compression_study;
pub mod fig01;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod gcn;
pub mod table2;
pub mod table3;
