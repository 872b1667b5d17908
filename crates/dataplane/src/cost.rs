//! Per-architecture cost and energy models.
//!
//! These constants calibrate the simulator. They are order-of-magnitude
//! figures taken from the paper's claims and public datasheets rather than
//! measurements of specific silicon:
//!
//! - §2 reports that on Spectrum (our dRMT model) "program changes complete
//!   within a second" — our per-op costs sum well under a second for typical
//!   changes.
//! - Compile-time baselines must drain, reflash, and redeploy; Tofino-class
//!   recompile-and-reload cycles are tens of seconds.
//! - Per-packet latencies: switching ASICs are sub-microsecond, SmartNICs a
//!   few microseconds, host stacks tens of microseconds.
//! - Power envelopes follow §3.3's observation that "different targets also
//!   have varied energy consumption envelopes" (ASIC high idle/low per-op,
//!   host low idle/high per-packet).

use crate::arch::ArchClass;
use flexnet_lang::diff::ReconfigOp;
use flexnet_types::SimDuration;
use serde::{Deserialize, Serialize};

/// The cost model of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed per-packet pipeline latency.
    pub base_latency: SimDuration,
    /// Additional latency per abstract interpreter op.
    pub per_op: SimDuration,
    /// Peak packets/second the device can process.
    pub throughput_pps: u64,
    /// Runtime reconfiguration: add/modify a table.
    pub table_op: SimDuration,
    /// Runtime reconfiguration: add/remove a parser state.
    pub parser_op: SimDuration,
    /// Runtime reconfiguration: add/remove/modify a state object.
    pub state_op: SimDuration,
    /// Runtime reconfiguration: install/replace/remove a handler.
    pub handler_op: SimDuration,
    /// Runtime reconfiguration: service binding changes.
    pub service_op: SimDuration,
    /// Compile-time baseline: time to drain traffic before reflashing.
    pub drain_time: SimDuration,
    /// Compile-time baseline: recompile + reflash the full program.
    pub reflash_time: SimDuration,
    /// Compile-time baseline: bring the device back into the network.
    pub redeploy_time: SimDuration,
    /// Idle power draw in watts.
    pub power_idle_w: f64,
    /// Power draw at full load in watts.
    pub power_max_w: f64,
    /// Marginal energy per processed packet in microjoules.
    pub energy_per_pkt_uj: f64,
    /// In-data-plane state migration cost per state item.
    pub migrate_per_item: SimDuration,
}

impl CostModel {
    /// The calibrated default for an architecture class.
    pub fn for_arch(class: ArchClass) -> CostModel {
        match class {
            ArchClass::Rmt => CostModel {
                base_latency: SimDuration::from_nanos(400),
                per_op: SimDuration::from_nanos(1),
                throughput_pps: 1_000_000_000,
                // RMT stage rebuilds make table ops the most expensive of
                // the runtime-programmable switches.
                table_op: SimDuration::from_millis(80),
                parser_op: SimDuration::from_millis(120),
                state_op: SimDuration::from_millis(20),
                handler_op: SimDuration::from_millis(60),
                service_op: SimDuration::from_millis(5),
                drain_time: SimDuration::from_secs(2),
                reflash_time: SimDuration::from_secs(25),
                redeploy_time: SimDuration::from_secs(3),
                power_idle_w: 300.0,
                power_max_w: 450.0,
                energy_per_pkt_uj: 0.15,
                migrate_per_item: SimDuration::from_nanos(100),
            },
            ArchClass::Drmt => CostModel {
                base_latency: SimDuration::from_nanos(550),
                per_op: SimDuration::from_nanos(2),
                throughput_pps: 800_000_000,
                // Disaggregation avoids stage rebuilds (paper §2: changes
                // complete within a second on Spectrum).
                table_op: SimDuration::from_millis(25),
                parser_op: SimDuration::from_millis(40),
                state_op: SimDuration::from_millis(10),
                handler_op: SimDuration::from_millis(30),
                service_op: SimDuration::from_millis(5),
                drain_time: SimDuration::from_secs(2),
                reflash_time: SimDuration::from_secs(20),
                redeploy_time: SimDuration::from_secs(3),
                power_idle_w: 280.0,
                power_max_w: 420.0,
                energy_per_pkt_uj: 0.18,
                migrate_per_item: SimDuration::from_nanos(80),
            },
            ArchClass::Tiled => CostModel {
                base_latency: SimDuration::from_nanos(500),
                per_op: SimDuration::from_nanos(2),
                throughput_pps: 900_000_000,
                table_op: SimDuration::from_millis(50),
                parser_op: SimDuration::from_millis(90),
                state_op: SimDuration::from_millis(15),
                handler_op: SimDuration::from_millis(45),
                service_op: SimDuration::from_millis(5),
                drain_time: SimDuration::from_secs(2),
                reflash_time: SimDuration::from_secs(30),
                redeploy_time: SimDuration::from_secs(3),
                power_idle_w: 320.0,
                power_max_w: 470.0,
                energy_per_pkt_uj: 0.16,
                migrate_per_item: SimDuration::from_nanos(100),
            },
            ArchClass::SmartNic => CostModel {
                base_latency: SimDuration::from_micros(2),
                per_op: SimDuration::from_nanos(10),
                throughput_pps: 50_000_000,
                table_op: SimDuration::from_millis(5),
                parser_op: SimDuration::from_millis(8),
                state_op: SimDuration::from_millis(2),
                handler_op: SimDuration::from_millis(10),
                service_op: SimDuration::from_millis(1),
                drain_time: SimDuration::from_millis(500),
                reflash_time: SimDuration::from_secs(8),
                redeploy_time: SimDuration::from_secs(1),
                power_idle_w: 25.0,
                power_max_w: 75.0,
                energy_per_pkt_uj: 0.9,
                migrate_per_item: SimDuration::from_nanos(200),
            },
            ArchClass::Host => CostModel {
                base_latency: SimDuration::from_micros(12),
                per_op: SimDuration::from_nanos(25),
                throughput_pps: 5_000_000,
                // eBPF program-level reload is fast and disruption-free.
                table_op: SimDuration::from_millis(1),
                parser_op: SimDuration::from_millis(1),
                state_op: SimDuration::from_micros(500),
                handler_op: SimDuration::from_millis(2),
                service_op: SimDuration::from_micros(500),
                drain_time: SimDuration::from_millis(100),
                reflash_time: SimDuration::from_secs(2),
                redeploy_time: SimDuration::from_millis(500),
                power_idle_w: 120.0,
                power_max_w: 250.0,
                energy_per_pkt_uj: 6.0,
                migrate_per_item: SimDuration::from_nanos(500),
            },
        }
    }

    /// The duration of one runtime reconfiguration op.
    pub fn op_duration(&self, op: &ReconfigOp) -> SimDuration {
        match op {
            ReconfigOp::AddTable(_) | ReconfigOp::RemoveTable(_) | ReconfigOp::ModifyTable(_) => {
                self.table_op
            }
            ReconfigOp::AddParserState(_) | ReconfigOp::RemoveParserState(_) => self.parser_op,
            ReconfigOp::AddState(_) | ReconfigOp::RemoveState(_) | ReconfigOp::ModifyState(_) => {
                self.state_op
            }
            ReconfigOp::SetHandler(_) | ReconfigOp::RemoveHandler(_) => self.handler_op,
            ReconfigOp::AddService(_) | ReconfigOp::RemoveService(_) => self.service_op,
        }
    }

    /// Total duration of a runtime change (ops applied sequentially, as on
    /// real control channels).
    pub fn plan_duration(&self, ops: &[ReconfigOp]) -> SimDuration {
        ops.iter()
            .fold(SimDuration::ZERO, |acc, op| acc + self.op_duration(op))
    }

    /// Total downtime of the compile-time baseline for any change.
    pub fn reflash_downtime(&self) -> SimDuration {
        self.drain_time + self.reflash_time + self.redeploy_time
    }

    /// Per-packet processing latency for a given interpreter op count.
    pub fn packet_latency(&self, ops: u64) -> SimDuration {
        self.base_latency + self.per_op.saturating_mul(ops)
    }

    /// Power draw at a given utilization in [0, 1].
    pub fn power_at(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.power_idle_w + (self.power_max_w - self.power_idle_w) * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::ast::{Handler, StateDecl, StateKind, TableDecl};

    fn sample_ops() -> Vec<ReconfigOp> {
        vec![
            ReconfigOp::AddState(StateDecl {
                name: "s".into(),
                kind: StateKind::Counter,
                size: 1,
            }.into()),
            ReconfigOp::AddTable(TableDecl {
                name: "t".into(),
                keys: vec![],
                actions: vec![],
                default_action: None,
                size: 8,
            }.into()),
            ReconfigOp::SetHandler(Handler {
                name: "h".into(),
                body: vec![],
            }.into()),
        ]
    }

    #[test]
    fn runtime_change_is_sub_second_on_every_switch_arch() {
        // The paper's §2 claim: program changes complete within a second.
        for class in [ArchClass::Rmt, ArchClass::Drmt, ArchClass::Tiled] {
            let cm = CostModel::for_arch(class);
            let d = cm.plan_duration(&sample_ops());
            assert!(
                d < SimDuration::from_secs(1),
                "{class}: {d} should be < 1s"
            );
            assert!(d > SimDuration::ZERO);
        }
    }

    #[test]
    fn reflash_downtime_dwarfs_runtime_change() {
        for class in [
            ArchClass::Rmt,
            ArchClass::Drmt,
            ArchClass::Tiled,
            ArchClass::SmartNic,
            ArchClass::Host,
        ] {
            let cm = CostModel::for_arch(class);
            assert!(
                cm.reflash_downtime() > cm.plan_duration(&sample_ops()).saturating_mul(5),
                "{class}: baseline must be much slower"
            );
        }
    }

    #[test]
    fn latency_ordering_switch_nic_host() {
        let sw = CostModel::for_arch(ArchClass::Drmt).packet_latency(50);
        let nic = CostModel::for_arch(ArchClass::SmartNic).packet_latency(50);
        let host = CostModel::for_arch(ArchClass::Host).packet_latency(50);
        assert!(sw < nic && nic < host);
    }

    #[test]
    fn power_interpolates() {
        let cm = CostModel::for_arch(ArchClass::Rmt);
        assert_eq!(cm.power_at(0.0), cm.power_idle_w);
        assert_eq!(cm.power_at(1.0), cm.power_max_w);
        assert!(cm.power_at(0.5) > cm.power_idle_w);
        assert_eq!(cm.power_at(7.0), cm.power_max_w, "clamped");
    }

    #[test]
    fn op_durations_cover_all_variants() {
        let cm = CostModel::for_arch(ArchClass::Rmt);
        assert_eq!(cm.op_duration(&ReconfigOp::RemoveTable("x".into())), cm.table_op);
        assert_eq!(
            cm.op_duration(&ReconfigOp::RemoveParserState("x".into())),
            cm.parser_op
        );
        assert_eq!(cm.op_duration(&ReconfigOp::RemoveState("x".into())), cm.state_op);
        assert_eq!(cm.op_duration(&ReconfigOp::RemoveHandler("x".into())), cm.handler_op);
        assert_eq!(
            cm.op_duration(&ReconfigOp::RemoveService("x".into())),
            cm.service_op
        );
    }
}
