//! The Pesos benchmark: six named workloads, the end-to-end metrics a user
//! of the store sees, and a per-layer ladder traced from outside the
//! program. See `README.md` in this directory.

pub mod compare;
pub mod gen;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod procfs;
pub mod runner;
pub mod stats;
pub mod target;
pub mod trace;
pub mod workload;
