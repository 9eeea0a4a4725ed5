//! The analysis-service benchmark: one seeded workload driven through a
//! `serve`-equivalent server process, every verdict checked off-clock
//! against an independent oracle, end-to-end metrics from the live run and
//! per-layer metrics from a traced in-process replay. See `README.md`.

#![warn(missing_docs)]

pub mod client;
pub mod machine;
pub mod procfs;
pub mod replay;
pub mod spawn;
pub mod stats;
pub mod verify;
pub mod workload;
