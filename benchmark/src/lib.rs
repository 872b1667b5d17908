//! # flexbench — FlexNet's benchmark
//!
//! Six named workloads, three end-to-end metrics and a per-layer ledger,
//! from the bare device loop to digest-verified control-plane
//! convergence. See `benchmark/README.md` for the one command, why each
//! workload exists, and how a layer metric maps to an end-to-end one.
//!
//! Everything here drives the repository's crates through their public
//! functions only; spans are recorded around those calls, from this
//! crate's own files.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
