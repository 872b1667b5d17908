//! # flexnet-compiler — compiling fungible programs
//!
//! The compiler layer of the FlexNet reproduction (paper §3.3). It plans
//! against snapshots of device capacity and emits placements the controller
//! effects via runtime reconfiguration:
//!
//! - [`target`] — components, target views, placements.
//! - [`binpack`] — the classical layer: FFD/best-fit/worst-fit packing.
//! - [`fungible`] — the fungible retry loop: GC unused programs, reallocate,
//!   recompile (the new operating point runtime programmability enables).
//! - [`split`] — the "fungible datapath" abstraction and the vertical/
//!   horizontal splitter over a physical path (paper §3.1).
//! - [`incremental`] — maximally-adjacent incremental recompilation with
//!   SLA re-certification.
//!
//! Table merging and energy-aware target choice (§3.3's other objectives)
//! are experiment E11's models, and live beside it in `flexnet-bench`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binpack;
pub mod fungible;
pub mod incremental;
pub mod split;
pub mod target;

pub use binpack::{pack, PackStrategy};
pub use fungible::{compile_fungible, FungibleOptions, FungibleOutcome, Reclaimable};
pub use incremental::{recompile_full, recompile_incremental, IncrementalResult};
pub use split::{split_datapath, LogicalDatapath, SplitResult};
pub use target::{Component, Placement, TargetView};
