//! Shared machinery for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; this library holds what they share: the scheduling-sweep runner,
//! aligned-table printing, CSV emission into `results/`, and the
//! binaries' command-line count parsing.

#![warn(missing_docs)]

pub mod cli;
pub mod report;
pub mod sweep;

pub use cli::count_arg;
pub use report::{write_csv, Table};
pub use sweep::{
    replicated_point, run_one, sched_sweep, shared_seek_surface, surfaced_mems_device,
    ReplicatedPoint, SweepPoint,
};
