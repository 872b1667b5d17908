//! The one fixture every chaos suite builds its world from.
//!
//! The seven seeded suites (`crate::suites`) differ in the fault they
//! inject and the invariants they judge; they do not differ in the fleet
//! they run on, the programs they install, how they baseline the failure
//! detector, or how they close a run. Those pieces live here, once:
//!
//! - [`bundle`], the [`app`] / [`gate`] / [`tap`] / [`lane_base`] programs;
//! - [`CONTROLLERS`], [`patient_policy`], [`intent_log`];
//! - [`LineFleet`] (host – NIC – switch – NIC – host with a replicated
//!   intent log and a lossy fabric) and [`LaneFleet`] (eight parallel
//!   one-switch lanes under live traffic, with the canary rollout);
//! - [`baseline_detector`];
//! - the closing checks, each violation string in exactly one place;
//! - [`Draws`], the one way a suite expands its seed into a schedule.

use flexnet::prelude::*;
use flexnet_controller::{
    run_rollout, IntendedStore, IntentRecord, ProgramClass, ReplicatedIntentLog, RolloutPlan,
    RolloutReport, SloGuards,
};
use flexnet_dataplane::Device;
use flexnet_lang::ast::ActionCall;
use flexnet_sim::diverged;
use flexnet_sim::faults::VICTIM_RESTART_DELAY;
use flexnet_types::hash::mix;
use std::collections::{BTreeMap, BTreeSet};

/// Controller nodes in every suite's Raft cluster.
pub const CONTROLLERS: usize = 3;
/// Heartbeat sweep cadence.
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(50);
/// Lanes (and therefore switches) in the lane fleet.
pub const LANES: usize = 8;
/// Packets per second per lane.
pub const LANE_PPS: u64 = 500;
/// A source address that never appears in generated traffic, so intended
/// entries keyed on it are behaviorally benign: losing one changes the
/// digest, not the traffic outcome.
pub const BENIGN_KEY: u64 = 0xDEAD_BEEF;

/// One seed's schedule hash, `mix(seed ^ salt)` with a salt of the
/// suite's own, and the draws every suite's schedule takes from it. Each
/// draw reads a fixed bit range of the one hash, so a schedule is a pure
/// function of its seed.
#[derive(Debug, Clone, Copy)]
pub struct Draws(u64);

impl Draws {
    /// The hash of `seed` under a suite's `salt`.
    pub fn new(seed: u64, salt: u64) -> Draws {
        Draws(mix(seed ^ salt))
    }

    /// The hash shifted right by `shift`, modulo `n`.
    pub fn bits(self, shift: u32, n: u64) -> u64 {
        (self.0 >> shift) % n
    }

    /// Whether bit `shift` is set.
    pub fn bit(self, shift: u32) -> bool {
        self.bits(shift, 2) == 1
    }

    /// The standard control-fabric loss tier: 0, 10 % or 25 %.
    pub fn fabric_loss(self) -> f64 {
        [0.0, 0.10, 0.25][self.bits(8, 3) as usize]
    }

    /// An index below `n` from the bits at `shift` (0 for an empty fleet).
    pub fn index(self, shift: u32, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.bits(shift, n as u64) as usize
        }
    }

    /// `k ≤ n` distinct indices below `n`, ascending, walked from the
    /// hash's own mix stream.
    pub fn distinct(self, k: usize, n: usize) -> Vec<usize> {
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        let mut z = self.0;
        while picked.len() < k {
            z = mix(z);
            let v = (z as usize) % n;
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// Parses FlexBPF source into a bundle (panics on error; harness inputs are
/// static).
pub fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).expect("harness program parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

/// The line's plain application at `version` 1, 2 or 3: forwarding, plus
/// one counter per later version, so every upgrade is a real diff and
/// traffic flows whichever version survives.
pub fn app(version: u32) -> ProgramBundle {
    bundle(match version {
        1 => "program app kind any { handler ingress(pkt) { forward(1); } }",
        2 => {
            "program app kind any {
               counter c;
               handler ingress(pkt) { count(c); forward(1); }
             }"
        }
        _ => {
            "program app kind any {
               counter c;
               counter d;
               handler ingress(pkt) { count(c); count(d); forward(1); }
             }"
        }
    })
}

/// The switch's critical program: an ACL table of `size` entries in front
/// of line forwarding; `upgraded` is its 2PC upgrade target (one more
/// counter). Losing its entries fails open — the divergence resync closes.
pub fn gate(size: u32, upgraded: bool) -> ProgramBundle {
    let (decl, stmt) = if upgraded {
        ("counter gated;", "count(gated);")
    } else {
        ("", "")
    };
    bundle(&format!(
        "program gate kind any {{
           {decl}
           table acl {{
             key {{ ipv4.src : exact; }}
             action deny() {{ drop(); }}
             action allow() {{ forward(1); }}
             default allow();
             size {size};
           }}
           handler ingress(pkt) {{ {stmt} apply acl; }}
         }}"
    ))
}

/// The NICs' telemetry program: a watch table of `size` entries marking
/// flows of interest, forwarding either way; `upgraded` adds a counter.
pub fn tap(size: u32, upgraded: bool) -> ProgramBundle {
    let (decl, stmt) = if upgraded {
        ("counter sampled;", "count(sampled);")
    } else {
        ("", "")
    };
    bundle(&format!(
        "program tap kind any {{
           counter seen;
           {decl}
           table watch {{
             key {{ ipv4.src : exact; }}
             action mark() {{ count(seen); forward(1); }}
             action pass() {{ forward(1); }}
             default pass();
             size {size};
           }}
           handler ingress(pkt) {{ {stmt} apply watch; }}
         }}"
    ))
}

/// The lanes' well-behaved baseline: plain forwarding down the lane.
pub fn lane_base() -> ProgramBundle {
    bundle("program lane kind any { handler ingress(pkt) { forward(1); } }")
}

/// The patient retry policy every suite drives its control plane with:
/// enough attempts and deadline that only the injected fault decides.
pub fn patient_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 16,
        deadline: SimDuration::from_secs(60),
        ..RetryPolicy::default()
    }
}

/// A replicated intent log over [`CONTROLLERS`] fault-free nodes.
pub fn intent_log(raft_seed: u64) -> Result<ReplicatedIntentLog> {
    ReplicatedIntentLog::new(CONTROLLERS, raft_seed)
}

/// Feeds every node's current incarnation to `detector` at `at`. In a
/// long-running network every device has heartbeated many times before it
/// ever restarts; without this a restart landing before the first beat
/// would *become* the baseline and never read as a flap.
pub fn baseline_detector(sim: &Simulation, detector: &mut FailureDetector, at: SimTime) {
    for node in sim.topo.nodes() {
        detector.observe_heartbeat(
            node.id,
            at,
            node.device.boot_id(),
            node.device.config_digest(),
        );
    }
    detector.poll(at);
}

/// Folds 2PC records to the last one per transaction, reports every
/// transaction not left terminal, and returns the ones that committed.
/// Intended-state records are reconciliation targets, compaction markers
/// are allocator bookkeeping, rollout records belong to the canary
/// journal — none of them is a 2PC phase.
pub fn resolved_txns(records: &[IntentRecord], violations: &mut Vec<String>) -> BTreeSet<u64> {
    let mut last: BTreeMap<u64, &IntentRecord> = BTreeMap::new();
    for rec in records {
        if matches!(
            rec,
            IntentRecord::Intent { .. }
                | IntentRecord::Prepared { .. }
                | IntentRecord::FlipScheduled { .. }
                | IntentRecord::Committed { .. }
                | IntentRecord::Aborted { .. }
        ) {
            last.insert(rec.txn(), rec);
        }
    }
    let mut committed = BTreeSet::new();
    for (txn, rec) in last {
        match rec {
            IntentRecord::Committed { .. } => {
                committed.insert(txn);
            }
            IntentRecord::Aborted { .. } => {}
            _ => violations.push(format!("txn {txn} left unresolved: {rec:?}")),
        }
    }
    committed
}

/// The line world: host – NIC – switch – NIC – host, a replicated intent
/// log, the seed's lossy control fabric and the patient policy.
pub struct LineFleet {
    /// The simulation (topology, devices, metrics).
    pub sim: Simulation,
    /// NIC, switch, NIC — the programmable devices, in path order.
    pub devices: [NodeId; 3],
    /// The traffic source and sink hosts.
    pub hosts: (NodeId, NodeId),
    /// The replicated intent log.
    pub log: ReplicatedIntentLog,
    /// The controller↔device fabric.
    pub fabric: LossyFabric,
    /// [`patient_policy`].
    pub policy: RetryPolicy,
}

impl LineFleet {
    /// Builds the line over `log`, with a fabric dropping `fabric_loss`.
    pub fn new(seed: u64, fabric_loss: f64, log: ReplicatedIntentLog) -> LineFleet {
        let (topo, nodes) = Topology::host_nic_switch_line();
        LineFleet {
            sim: Simulation::new(topo),
            devices: [nodes[1], nodes[2], nodes[3]],
            hosts: (nodes[0], nodes[4]),
            log,
            fabric: LossyFabric::new(fabric_loss, seed),
            policy: patient_policy(),
        }
    }

    /// The switch (the critical device).
    pub fn switch(&self) -> NodeId {
        self.devices[1]
    }

    /// Device `d`, mutably.
    pub fn device(&mut self, d: NodeId) -> &mut Device {
        &mut self.sim.topo.node_mut(d).expect("line node exists").device
    }

    /// The same `(device, bundle)` target on every device.
    pub fn targets(&self, bundle: &ProgramBundle) -> Vec<(NodeId, ProgramBundle)> {
        self.devices.iter().map(|d| (*d, bundle.clone())).collect()
    }

    /// Installs `bundle` on every device.
    pub fn install_everywhere(&mut self, seed: u64, bundle: &ProgramBundle) -> Result<()> {
        for d in self.devices {
            self.device(d)
                .install(bundle.clone())
                .map_err(|e| FlexError::Sim(format!("seed {seed}: install on {d}: {e}")))?;
        }
        Ok(())
    }

    /// Installs [`gate`] on the switch and [`tap`] on the NICs (tables of
    /// `size`), one benign entry each, and commits + journals the same as
    /// intended state; checks intent and devices agree before any fault.
    pub fn provision_gate_and_taps(
        &mut self,
        seed: u64,
        size: u32,
        violations: &mut Vec<String>,
    ) -> Result<IntendedStore> {
        let mut store = IntendedStore::new();
        for d in self.devices {
            let is_sw = d == self.switch();
            let v1 = line_program(is_sw, size, false);
            let class = if is_sw {
                ProgramClass::Critical
            } else {
                ProgramClass::Telemetry
            };
            store.set_class(d, class);
            let (table, entry) = (table_of(is_sw), entry_for(is_sw, BENIGN_KEY));
            let dev = self.device(d);
            dev.install(v1.clone())
                .map_err(|e| FlexError::Sim(format!("seed {seed}: install on {d}: {e}")))?;
            dev.add_entry(table, entry.clone())
                .map_err(|e| FlexError::Sim(format!("seed {seed}: entry on {d}: {e}")))?;
            store.commit_target(&mut self.log, 0, d, v1)?;
            store.record_entry(&mut self.log, d, table, entry)?;
        }
        if !diverged(&self.sim, &store.intended_digests()).is_empty() {
            violations.push("baseline diverged before any fault".into());
        }
        Ok(store)
    }

    /// The [`gate`] / [`tap`] upgrade targets for every device.
    pub fn upgrade_targets(&self, size: u32) -> Vec<(NodeId, ProgramBundle)> {
        let sw = self.switch();
        let upgrade = |&d| (d, line_program(d == sw, size, true));
        self.devices.iter().map(upgrade).collect()
    }

    /// Crashes participant `v` at `at` (losing its volatile shadow) and
    /// reboots it [`VICTIM_RESTART_DELAY`] later.
    pub fn restart_victim(&mut self, seed: u64, v: usize, at: SimTime) -> Result<()> {
        let dev = self.device(self.devices[v]);
        dev.crash(at);
        dev.restart(at + VICTIM_RESTART_DELAY)
            .map_err(|e| FlexError::Sim(format!("seed {seed}: victim restart: {e}")))
    }

    /// Loads a 1000 pps host-to-host CBR flow.
    pub fn load_cbr(&mut self, start: SimTime, duration: SimDuration, seed: u64) {
        let flow = FlowSpec::udp_cbr(self.hosts.0, self.hosts.1, 1000, start, duration);
        self.sim.load(generate(&[flow], seed));
    }

    /// Zero orphan shadows: no device holds an in-doubt transaction.
    pub fn no_orphans(&self, violations: &mut Vec<String>) {
        for d in self.devices {
            let dev = &self.sim.topo.node(d).expect("device exists").device;
            if let Some(tag) = dev.txn_in_doubt() {
                violations.push(format!("orphan in-doubt shadow on {d}: {tag:?}"));
            }
        }
    }

    /// Ticks every device to `at` (scheduled flips materialize) and
    /// requires that nothing is left mid-flight.
    pub fn settle(&mut self, at: SimTime, violations: &mut Vec<String>) {
        for d in self.devices {
            let dev = self.device(d);
            dev.tick(at);
            if dev.reconfig_in_progress() {
                violations.push(format!("{d} still mid-reconfiguration after settling"));
            }
        }
    }

    /// [`LineFleet::settle`], then [`LineFleet::no_orphans`].
    pub fn no_orphans_after_settle(&mut self, at: SimTime, violations: &mut Vec<String>) {
        self.settle(at, violations);
        self.no_orphans(violations);
    }

    /// Convergence: every device's digest equals its intended digest.
    /// Returns (and reports) the devices that are off.
    pub fn digests_match_intended(
        &self,
        store: &IntendedStore,
        after: &str,
        violations: &mut Vec<String>,
    ) -> Vec<NodeId> {
        let off = diverged(&self.sim, &store.intended_digests());
        if !off.is_empty() {
            violations.push(format!("diverged after {after}: {off:?}"));
        }
        off
    }

    /// The durable baseline agrees with the in-memory store (failover
    /// would reconcile to the very same digests).
    pub fn log_replay_matches_store(
        &self,
        store: &IntendedStore,
        violations: &mut Vec<String>,
    ) -> Result<()> {
        if IntendedStore::digests_from_log(&self.log)? != store.intended_digests() {
            violations.push("log-replayed intended digests differ from the store".into());
        }
        Ok(())
    }

    /// Old-XOR-new: a 200 ms probe flow starting just after `at` sees at
    /// most one program version per device that earlier traffic had not
    /// (`phase` names the probe's packets in the violation). Returns the
    /// packets delivered in total.
    pub fn old_xor_new_probe(
        &mut self,
        at: SimTime,
        seed: u64,
        phase: &str,
        violations: &mut Vec<String>,
    ) -> u64 {
        let before = self.devices.map(|d| self.sim.metrics.versions_seen(d));
        let start = at + SimDuration::from_millis(1);
        self.load_cbr(start, SimDuration::from_millis(200), seed);
        self.sim.run_to_completion();
        for (d, before) in self.devices.iter().zip(before) {
            let seen = self.sim.metrics.versions_seen(*d);
            let fresh = seen.iter().filter(|v| !before.contains(v)).count();
            if fresh > 1 {
                violations.push(format!(
                    "{d} processed {phase}packets under {fresh} different versions: \
                     old-XOR-new violated"
                ));
            }
        }
        self.sim.metrics.delivered
    }
}

/// What a line device runs: [`gate`] on the switch, [`tap`] on a NIC.
fn line_program(is_switch: bool, size: u32, upgraded: bool) -> ProgramBundle {
    if is_switch {
        gate(size, upgraded)
    } else {
        tap(size, upgraded)
    }
}

/// The table the benign entries live in on a switch / a NIC.
pub fn table_of(is_switch: bool) -> &'static str {
    if is_switch {
        "acl"
    } else {
        "watch"
    }
}

/// An exact-match entry on `key`: `deny` on the switch, `mark` on a NIC.
pub fn entry_for(is_switch: bool, key: u64) -> TableEntry {
    TableEntry::exact(
        &[key],
        ActionCall {
            action: if is_switch { "deny" } else { "mark" }.into(),
            args: vec![],
        },
    )
}

/// The lane world: [`LANES`] parallel host – switch – host lanes running
/// [`lane_base`], one [`LANE_PPS`] CBR flow per lane from 0.5 s to 8 s,
/// already run to the 1 s mark.
pub struct LaneFleet {
    /// The simulation.
    pub sim: Simulation,
    /// One switch per lane.
    pub switches: Vec<NodeId>,
    /// The controller↔device fabric.
    pub fabric: LossyFabric,
    /// The failure detector heartbeats feed.
    pub detector: FailureDetector,
    /// When the lanes' flows end.
    pub flow_end: SimTime,
}

/// A canary rollout the lane fleet ran.
pub struct Rollout {
    /// The canonical wave plan.
    pub plan: RolloutPlan,
    /// The orchestrator's account.
    pub report: RolloutReport,
    /// The intent log the rollout journaled into.
    pub log: ReplicatedIntentLog,
    /// Every switch's config digest before the rollout began.
    pub old_digests: BTreeMap<NodeId, u64>,
}

impl LaneFleet {
    /// Builds the fleet with a fabric dropping `fabric_loss`.
    pub fn new(seed: u64, fabric_loss: f64) -> Result<LaneFleet> {
        let (topo, switches, lanes) = Topology::parallel_lanes(LANES);
        let mut sim = Simulation::new(topo);
        for &d in &switches {
            sim.topo
                .node_mut(d)
                .expect("lane switch exists")
                .device
                .install(lane_base())
                .map_err(|e| FlexError::Sim(format!("seed {seed}: install on {d}: {e}")))?;
        }
        let flow_start = SimTime::from_millis(500);
        let flow_end = SimTime::from_secs(8);
        let flows: Vec<FlowSpec> = lanes
            .iter()
            .map(|&(src, dst)| {
                let dur = flow_end.saturating_since(flow_start);
                FlowSpec::udp_cbr(src, dst, LANE_PPS, flow_start, dur)
            })
            .collect();
        sim.load(generate(&flows, seed));
        sim.run(SimTime::from_secs(1));
        Ok(LaneFleet {
            sim,
            switches,
            fabric: LossyFabric::new(fabric_loss, seed),
            detector: FailureDetector::default(),
            flow_end,
        })
    }

    /// Device `d`.
    pub fn device(&self, d: NodeId) -> &Device {
        &self.sim.topo.node(d).expect("lane switch exists").device
    }

    /// Rolls `candidate(i)` out to switch `i` from the [`lane_base`]
    /// baseline in canonical waves (1 s soaks, default SLO guards) starting
    /// at the 1 s mark, then drains the remaining traffic.
    pub fn rollout(
        &mut self,
        raft_seed: u64,
        candidate: impl Fn(usize) -> ProgramBundle,
    ) -> Result<Rollout> {
        let mut log = intent_log(raft_seed)?;
        let plan = RolloutPlan::canonical(
            &self.switches,
            SimDuration::from_secs(1),
            SloGuards::default(),
        );
        let switches = self.switches.iter().copied();
        let baseline: Vec<_> = switches.clone().map(|d| (d, lane_base())).collect();
        let candidate: Vec<_> = switches
            .enumerate()
            .map(|(i, d)| (d, candidate(i)))
            .collect();
        let old_digests = self
            .switches
            .iter()
            .map(|&d| (d, self.device(d).config_digest()))
            .collect();
        let report = run_rollout(
            &mut self.sim,
            &plan,
            &baseline,
            &candidate,
            SimTime::from_secs(1),
            &mut self.fabric,
            &patient_policy(),
            &mut log,
            &mut self.detector,
            None,
        )?;
        self.sim.run_to_completion();
        Ok(Rollout {
            plan,
            report,
            log,
            old_digests,
        })
    }

    /// Packets the run lost, and delivered + lost.
    pub fn lost_of_attempts(&self) -> (u64, u64) {
        let lost = self.sim.metrics.total_lost();
        (lost, self.sim.metrics.delivered + lost)
    }

    /// Blast radius: a device the fault never touched dropped nothing.
    pub fn untouched(&self, d: NodeId, role: &str, violations: &mut Vec<String>) {
        let dropped = self.device(d).stats().dropped;
        if dropped > 0 {
            violations.push(format!(
                "{role} {d} dropped {dropped} packets: blast radius leaked"
            ));
        }
    }

    /// Rollback converged: `d` is digest-equal to its pre-rollout baseline.
    pub fn back_on_baseline(&self, d: NodeId, rollout: &Rollout, violations: &mut Vec<String>) {
        if Some(&self.device(d).config_digest()) != rollout.old_digests.get(&d) {
            violations.push(format!(
                "{d} not back on the baseline digest after rollback"
            ));
        }
    }

    /// The network is clean again: the window from `from` to the end of
    /// the flows (after the `event`) carried traffic and lost none.
    pub fn clean_after(&self, event: &str, from: SimTime, violations: &mut Vec<String>) {
        let post = self.sim.metrics.window_stats(from, self.flow_end);
        if post.attempts() == 0 {
            violations.push(format!("no post-{event} traffic observed"));
        } else if post.lost > 0 {
            violations.push(format!(
                "post-{event} window still losing: {}/{} packets",
                post.lost,
                post.attempts()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fixture::{CONTROLLERS, LANES};
    use crate::suites::adversary::{AdversaryScenario, AdversarySchedule};
    use crate::suites::canary::{RolloutFault, RolloutSchedule};
    use crate::suites::overload::{OverloadScenario, OverloadSchedule};
    use crate::suites::recovery::ChaosSchedule;
    use crate::suites::resync::RestartSchedule;
    use crate::suites::sandbox::{RogueScenario, RogueSchedule};
    use crate::suites::storage::{StorageScenario, StorageSchedule};
    use flexnet_sim::CrashPhase;

    /// The standard control-fabric loss tiers.
    const TIERS: [f64; 3] = [0.0, 0.10, 0.25];

    /// Where `x` sits in `all`.
    fn pos<T: PartialEq>(all: &[T], x: &T) -> usize {
        all.iter().position(|a| a == x).expect("a listed cohort")
    }

    /// Whether `v` is strictly ascending (distinct and sorted) below `n`.
    fn distinct_below(v: &[usize], n: usize) -> bool {
        v.windows(2).all(|w| w[0] < w[1]) && v.iter().all(|&i| i < n)
    }

    /// One suite's seed expansion over the fleet the suite runs: its
    /// cohort count, and for a seed the cohort it falls in and the
    /// schedule's `{:?}` — after asserting every draw's bounds and the
    /// suite's own pins.
    type Expansion = (&'static str, usize, fn(u64) -> (usize, String));

    #[test]
    fn every_suite_expands_its_seeds_deterministically_in_bounds_over_every_cohort() {
        let table: [Expansion; 7] = [
            ("recovery", 4, |seed| {
                let s = ChaosSchedule::from_seed(seed, 3);
                assert!(s.victim.is_none_or(|v| v < 3) && TIERS.contains(&s.fabric_loss));
                (pos(&CrashPhase::ALL, &s.crash_phase), format!("{s:?}"))
            }),
            ("resync", 3, |seed| {
                let s = RestartSchedule::from_seed(seed, 3);
                assert_eq!(s.victims.len(), s.restarts);
                assert!(distinct_below(&s.victims, 3) && TIERS.contains(&s.fabric_loss));
                (s.restarts - 1, format!("{s:?}"))
            }),
            ("canary", 5, |seed| {
                let s = RolloutSchedule::from_seed(seed, LANES);
                // The gray victim flips before the final wave (1 → 2 → 4 → 8).
                let gray = s.fault == RolloutFault::GrayDrop;
                assert_eq!(s.gray_victim.is_some(), gray);
                assert!(s.gray_victim.is_none_or(|v| v < 4) && TIERS.contains(&s.fabric_loss));
                (pos(&RolloutFault::ALL, &s.fault), format!("{s:?}"))
            }),
            ("overload", 4, |seed| {
                let s = OverloadSchedule::from_seed(seed, 16);
                assert!([0.0, 0.05].contains(&s.fabric_loss));
                assert!([0.5, 0.7].contains(&s.brownout_loss));
                assert!((6..=10).contains(&s.burst_factor) && (4..=7).contains(&s.slow_factor));
                assert!((600..=1200).contains(&s.fault_ms));
                // A stampede restarts most of the fleet; nothing else does.
                let stampede = s.scenario == OverloadScenario::MassRestart;
                assert!(if stampede {
                    s.restarts >= 12
                } else {
                    s.restarts == 0
                });
                assert_eq!(s.victims.len(), s.restarts);
                assert!(distinct_below(&s.victims, 16));
                (pos(&OverloadScenario::ALL, &s.scenario), format!("{s:?}"))
            }),
            ("sandbox", 4, |seed| {
                let s = RogueSchedule::from_seed(seed, LANES);
                assert!(s.victim < LANES && [64, 256, 1024].contains(&s.gas_limit));
                assert!((1..=4).contains(&s.shrink_to));
                assert!([128, 256, 384].contains(&s.flood_packets));
                assert!(TIERS.contains(&s.fabric_loss));
                // Seeds ≡ 3 mod 4 are the rollout storms.
                assert_eq!(s.scenario == RogueScenario::TrapStormRollout, seed % 4 == 3);
                (pos(&RogueScenario::ALL, &s.scenario), format!("{s:?}"))
            }),
            ("adversary", 5, |seed| {
                let s = AdversarySchedule::from_seed(seed, 3);
                assert!(s.victim < 3 && TIERS.contains(&s.fabric_loss));
                assert!(s.corrupt_prob <= 0.70 && s.dup_prob <= 0.80 && s.reorder_prob <= 0.80);
                assert!((2..=8).contains(&s.reorder_depth) && (8..=16).contains(&s.commands));
                assert!((800..=2400).contains(&s.heal_after_ms));
                // The scenario's own fault dominates.
                assert!(match s.scenario {
                    AdversaryScenario::CorruptStorm => s.corrupt_prob >= 0.30,
                    AdversaryScenario::DupFlood => s.dup_prob >= 0.40,
                    AdversaryScenario::ReorderChurn => s.reorder_prob >= 0.40,
                    _ => true,
                });
                // Seeds ≡ 4 mod 5 are the mid-rollout partitions.
                let mid = s.scenario == AdversaryScenario::PartitionMidRollout;
                assert_eq!(mid, seed % 5 == 4);
                (pos(&AdversaryScenario::ALL, &s.scenario), format!("{s:?}"))
            }),
            ("storage", 6, |seed| {
                let s = StorageSchedule::from_seed(seed, CONTROLLERS);
                assert!(s.victim < CONTROLLERS && TIERS.contains(&s.fabric_loss));
                assert!((2..=7).contains(&s.crash_at_write));
                assert!((200..=800).contains(&s.fsync_lag_us));
                let nospace = s.scenario == StorageScenario::NoSpaceDuringCompaction;
                assert_eq!(s.snap_capacity.is_some(), nospace);
                assert!(s.snap_capacity.is_none_or(|cap| (24..64).contains(&cap)));
                // Seeds ≡ 2 and ≡ 3 mod 6 are the rot (CRC-oracle) runs.
                assert_eq!(
                    s.scenario == StorageScenario::BitRotInColdLog,
                    seed % 6 == 2
                );
                assert_eq!(s.scenario == StorageScenario::RotInSnapshot, seed % 6 == 3);
                (pos(&StorageScenario::ALL, &s.scenario), format!("{s:?}"))
            }),
        ];
        for (suite, cohorts, expand) in table {
            for start in [0, 7, 997] {
                let mut seen: Vec<usize> = (start..start + cohorts as u64)
                    .map(|seed| expand(seed).0)
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(
                    seen.len(),
                    cohorts,
                    "{suite}: seeds {start}.. miss a cohort"
                );
            }
            for seed in 0..120 {
                assert_eq!(
                    expand(seed),
                    expand(seed),
                    "{suite}: seed {seed} expands two ways"
                );
            }
        }
    }
}
