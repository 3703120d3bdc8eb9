//! The repository's benchmark (see `README.md` beside this crate): four
//! fixed-work workloads measured end to end, and layer by layer from a
//! traced replay, by timing calls into the crates' public functions.

pub mod client;
pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
