//! The six workloads (named, with their reasons, in `BENCHMARK.json`) and
//! the interface the harness drives them through.
//!
//! A workload is a sequence of equal **segments** (a fixed number of ops
//! each, covering a whole period of any recurring work such as a log
//! compaction). The harness times `segment()` and nothing else; input generation
//! (`prepare`) and output checking (`verify`) sit outside the timed
//! region, and `replay` re-runs a segment's inputs through a single
//! layer's public functions to measure that layer from outside.

pub mod ctl;
pub mod dev;
pub mod fabric;

use crate::stats::Distribution;
use crate::trace::{Ledger, Tracer};

/// What one timed segment did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentOutcome {
    /// Ops attempted (packets, control ops, recovery scenarios).
    pub attempted: u64,
    /// Ops lost, refused, trapped or not converged. A policy `Drop` the
    /// program asked for is a success.
    pub failed: u64,
}

/// The simulated side of a run after its first window: everything in here
/// is a function of the seed alone and must repeat bit for bit.
#[derive(Debug, Clone)]
pub struct Model {
    /// Modelled latency of an op, in simulated ns.
    pub latency: Distribution,
    /// FNV fingerprint of the model's observable state (`sim_digest`).
    pub digest: u64,
    /// Count-type per-layer metrics, already normalised.
    pub counts: Vec<(&'static str, f64)>,
    /// The per-layer metric under which the harness reports allocator
    /// calls per op inside the first window's traced, timed segments (the
    /// recorder's own excluded): a count, so it repeats exactly.
    pub allocs_metric: Option<&'static str>,
}

/// One workload instance. Construction (`build`) is the set-up the
/// `setup_s` metric times.
pub trait Workload {
    /// Runs untimed segments until caches are full and lazy set-up is done.
    fn warm_up(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Segments in a window. A run measures a whole number of windows, and
    /// everything simulated or counted is taken over the first.
    fn window_segments(&self) -> usize;

    /// Generates the next segment's inputs (untimed).
    fn prepare(&mut self, tr: &mut Tracer);

    /// Runs one segment: only calls into the system under test plus the
    /// minimum of glue. This is the timed region.
    fn segment(&mut self, tr: &mut Tracer) -> SegmentOutcome;

    /// Checks the outputs of the segment just run (untimed).
    fn verify(&mut self) -> Result<(), String>;

    /// Re-runs the last segment's inputs through single layers, under
    /// spans (traced runs only, untimed).
    fn replay(&mut self, tr: &mut Tracer);

    /// Snapshot of the simulated side; called once, when the first window
    /// completes.
    fn model(&mut self, tr: &mut Tracer) -> Model;

    /// Host-time per-layer metrics from what the traced segments, which
    /// attempted `traced_ops` ops, recorded.
    fn timings(&self, ledger: &Ledger<'_>, traced_ops: u64) -> Vec<(&'static str, f64)>;

    /// Drains what is in flight and runs the end-of-run checks.
    fn finish(&mut self) -> Result<(), String>;
}

/// Sizes a workload: the seed drives input generation only, `scale`
/// divides every op count (1 for a real run, 50 for `--smoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Input-generation seed.
    pub seed: u64,
    /// Op-count divisor.
    pub scale: u64,
}

/// Sets up the workload called `name`.
pub fn build(name: &str, p: Params) -> Result<Box<dyn Workload>, String> {
    match name {
        "dev_acl" => Ok(Box::new(dev::Dev::build(dev::Program::Acl, p)?)),
        "dev_cms" => Ok(Box::new(dev::Dev::build(dev::Program::Cms, p)?)),
        "fabric_forward" => Ok(Box::new(fabric::Fabric::build(false, p)?)),
        "fabric_reconfig" => Ok(Box::new(fabric::Fabric::build(true, p)?)),
        "ctl_txn" => Ok(Box::new(ctl::Txn::build(p)?)),
        "ctl_recover" => Ok(Box::new(ctl::Recover::build(p)?)),
        other => Err(format!("unknown workload `{other}`")),
    }
}
