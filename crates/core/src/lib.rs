//! # FlexNet — an end-to-end runtime programmable network framework
//!
//! A from-scratch Rust reproduction of the system envisioned in *"A Vision
//! for Runtime Programmable Networks"* (Xing et al., HotNets 2021):
//! a network that "shapeshifts in response to real-time change", where
//! device programs are added, removed, and modified **while serving live
//! traffic**, piloted by a central controller.
//!
//! ## Layers (bottom-up)
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`types`] | Packets, header stacks, ids, resource vectors, simulated time |
//! | [`lang`] | FlexBPF: parser, type checker, verifier, bytecode VM, patch DSL, composition |
//! | [`dataplane`] | RMT/dRMT/tiled/NIC/host device models with **hitless runtime reconfiguration** |
//! | [`compiler`] | Fungible compilation: bin-packing + GC/realloc retry, datapath splitting, incremental recompilation |
//! | [`sim`] | Discrete-event network simulator: topology, traffic, metrics |
//! | [`controller`] | URI-named app management, tenants, migration, dRPC, Raft, transactions, recovery |
//! | [`apps`] | Ready-made FlexBPF apps: firewall, sketches, load balancers, CC components |
//!
//! ## Quickstart
//!
//! Reprogram a switch while traffic flows — the paper's headline capability:
//!
//! ```
//! use flexnet::prelude::*;
//!
//! // A 2-host single-switch network.
//! let (topo, sw, hosts) = Topology::single_switch(2);
//! let mut sim = Simulation::new(topo);
//!
//! // Install a forwarding program, offer 100k packets over 1 s…
//! sim.schedule(SimTime::ZERO, Command::Install {
//!     node: sw,
//!     bundle: flexnet::apps::routing::l3_router(256).unwrap(),
//! });
//! let flow = FlowSpec::udp_cbr(hosts[0], hosts[1], 100_000,
//!                              SimTime::from_millis(1), SimDuration::from_secs(1));
//! sim.load(generate(&[flow], 42));
//!
//! // …and hot-swap in a firewall mid-stream, hitlessly.
//! sim.schedule(SimTime::from_millis(500), Command::RuntimeReconfig {
//!     node: sw,
//!     bundle: flexnet::apps::security::firewall(64).unwrap(),
//! });
//!
//! sim.run_to_completion();
//! assert_eq!(sim.metrics.total_lost(), 0);        // zero loss
//! assert_eq!(sim.metrics.versions_seen(sw).len(), 2); // old XOR new per packet
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use flexnet_apps as apps;
pub use flexnet_compiler as compiler;
pub use flexnet_controller as controller;
pub use flexnet_dataplane as dataplane;
pub use flexnet_lang as lang;
pub use flexnet_sim as sim;
pub use flexnet_types as types;

/// One-stop imports for applications and experiments: what the libraries
/// run. A model only one experiment reaches (Mantis/HyPer4, table merging
/// and the energy objective, elastic scaling, replication groups) lives
/// beside that experiment in `flexnet-bench`, not here.
pub mod prelude {
    pub use flexnet_compiler::{
        compile_fungible, pack, recompile_full, recompile_incremental, split_datapath, Component,
        FungibleOptions, LogicalDatapath, PackStrategy, Placement, TargetView,
    };
    pub use flexnet_controller::{
        invoke_with_retry, transactional_reconfig, transactional_reconfig_over, Controller,
        FailureDetector, Health, HealthEvent, LossyFabric, Migration, MigrationStrategy,
        RaftCluster, RetryPolicy, ServiceRegistry, TxnOutcome, TxnReport,
    };
    pub use flexnet_dataplane::{
        ArchClass, Architecture, CostModel, Device, KeyMatch, ReconfigMode, ReconfigOutcome,
        StateEncoding, TableEntry,
    };
    pub use flexnet_lang::prelude::*;
    pub use flexnet_sim::{
        generate, syn_flood, tenant_churn, ChurnEvent, Command, FaultKind, FaultPlan, FlowSpec,
        LossKind, Metrics, NodeKind, Pattern, Simulation, Topology,
    };
    pub use flexnet_types::{
        AppUri, FlexError, NodeId, Packet, ProgramVersion, ResourceKind, ResourceVec, Result,
        SimDuration, SimTime, TenantId, Verdict, VlanId,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        // Touch one item from each layer to keep the facade honest.
        let _ = SimTime::ZERO;
        let _ = Architecture::drmt_default();
        let p = parse_program("program p { handler ingress(pkt) { forward(0); } }").unwrap();
        assert_eq!(p.name, "p");
        let (_topo, _sw, hosts) = Topology::single_switch(2);
        assert_eq!(hosts.len(), 2);
    }
}
