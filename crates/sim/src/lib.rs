//! # tensordash-sim
//!
//! Cycle-level simulator of the TensorDash accelerator and its dense
//! baseline (paper §3.3–3.4 and Table 2).
//!
//! The machine is a grid of tiles; each tile is a `rows × cols` grid of
//! 16-MAC processing elements. The training configuration extracts sparsity
//! on one operand side only: each tile **row** shares one scheduled (sparse)
//! operand stream, one staging buffer, and one hardware scheduler; each
//! **column** shares the dense-side operand. Because all rows read the
//! dense-side staging through the same window, the tile advances by the
//! *minimum* drain across its rows each cycle — rows with denser streams
//! stall the others, which is the work-imbalance effect the paper sweeps in
//! Fig 17.
//!
//! Work is partitioned the way the paper describes (§3.3): tile rows take
//! distinct scheduled-side streams (activation windows / gradient positions
//! / filter maps), tile columns take distinct dense-side outputs (filters /
//! channels), and tiles take distinct stream groups. The simulator executes
//! *sampled* streams bit-exactly through the real
//! [`Scheduler`](tensordash_core::Scheduler) and scales to the full layer —
//! the same sampling methodology the paper uses (one traced batch per
//! epoch).
//!
//! The public API is the owning [`Simulator`] session: build a validated
//! [`ChipConfig`] (every knob of Table 2, TOML/JSON-serializable), open a
//! session on it, and drive single operations, TensorDash/baseline pairs,
//! or thread-pooled batches:
//!
//! ```
//! use tensordash_sim::{ChipConfig, ExecMode, Simulator};
//! use tensordash_trace::{ConvDims, SampleSpec, SparsityGen, TrainingOp, UniformSparsity};
//!
//! let chip = ChipConfig::builder().tiles(16).rows(4).cols(4).build().unwrap();
//! let sim = Simulator::new(chip);
//! let dims = ConvDims::conv_square(4, 64, 14, 64, 3, 1, 1);
//! let trace = UniformSparsity::new(0.6).op_trace(
//!     dims, TrainingOp::Forward, sim.chip().tile.pe.lanes(), &SampleSpec::default(), 1);
//! let run = sim.simulate(&trace, ExecMode::TensorDash);
//! let base = sim.simulate(&trace, ExecMode::Baseline);
//! let speedup = base.compute_cycles as f64 / run.compute_cycles as f64;
//! assert!(speedup > 1.5 && speedup <= 3.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod counters;
pub mod dram;
pub mod eval;
pub mod exec;
pub mod report;
pub mod session;
pub mod tile;

pub use config::{ChipConfig, ChipConfigBuilder, ConfigError, DramConfig, SramConfig, TileConfig};
pub use counters::SimCounters;
pub use dram::{dram_traffic_bits, DramTraffic};
pub use eval::{EvalSpec, EvalSpecBuilder, EvalSpecError, TraceSourceSpec};
pub use exec::{ExecMode, OpSim};
pub use report::{speedup_ratio, LayerReport, ModelReport, OpAggregate};
pub use session::{CancelToken, Cancelled, Simulator};
pub use tile::{GroupRun, Tile};
// The scheduler family lives in core; re-exported here because `ChipConfig`
// carries a `SchedulerKind` and every consumer of the simulator needs it.
pub use tensordash_core::{SchedulerKind, SparsityScheduler, UnknownSchedulerError};
