//! # oocts-profile — evaluation harness
//!
//! Everything needed to reproduce the experimental section of the paper
//! (Section 6 and Appendix B):
//!
//! * [`bounds`] — per-instance memory bounds: the structural lower bound
//!   `LB = max_i w̄_i`, the optimal in-core peak, and the three memory
//!   bounds used by the paper (`M1 = LB`, `M_mid = (LB + Peak − 1)/2`,
//!   `M2 = Peak − 1`);
//! * [`metric`] — the paper's performance metric `(M + IO)/M`;
//! * [`profile`] — Dolan–Moré performance profiles (cumulative distribution
//!   of the overhead with respect to the best algorithm on each instance),
//!   with CSV and ASCII rendering;
//! * [`engine`] — the cell-granularity work-stealing execution engine that
//!   schedules (instance × scheduler) cells over per-worker deques;
//! * [`runner`] — the experiment runner front-end: configuration, result
//!   tables, CSV export, all executed on the engine.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod bounds;
pub mod engine;
pub mod metric;
pub mod profile;
pub mod runner;

pub use bounds::{MemoryBound, MemoryBounds};
pub use engine::{EngineStats, WorkerStats};
pub use metric::performance;
pub use profile::PerformanceProfile;
pub use runner::{
    csv_header, run_experiment, run_experiment_streaming, CellFailure, ExperimentConfig,
    ExperimentError, ExperimentResults, InstanceResult,
};
