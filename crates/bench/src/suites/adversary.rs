//! E20 — the adversarial fabric: end-to-end integrity and exactly-once
//! control semantics under corruption, duplication, reordering, and
//! asymmetric partitions.
//!
//! Where E14 restarts devices and E17 overloads the controller, E20
//! attacks the *network between them*. The fabric
//! ([`flexnet_controller::LossyFabric`] with its adversary armed) corrupts
//! command frames in flight, delivers commands two or three times over,
//! delays heartbeat copies by several slots, and severs one direction of
//! a victim's link while the other keeps working. The suite drives its
//! `deliver_cmd` / `deliver_up` itself, one delivery attempt per unacked
//! command per heartbeat tick. Four defenses — all armed on
//! [`Arm::Protected`], all ablated on [`Arm::Ablated`] so the off arm can
//! demonstrate the damage — keep the control plane exactly-once and the
//! fleet digest-convergent:
//!
//! 1. **Frame checksums** ([`seal_frame`] / `open_frame`): a corrupted
//!    frame dies at the integrity check as a retryable
//!    [`FlexError::ChecksumMismatch`] — a transport failure that never
//!    reaches config logic, program execution, or any tenant's trap
//!    accounting.
//! 2. **Idempotency tokens** (`Device::absorb_command`): every config
//!    command carries a token; a device that has already absorbed it
//!    re-acknowledges without reapplying. 2PC verbs are idempotent by
//!    construction (duplicate prepare re-acks the existing shadow,
//!    duplicate commit returns `Ok(false)`).
//! 3. **Heartbeat monotonicity** ([`FailureDetector::observe_heartbeat`]):
//!    a reordered pre-restart beat can never regress `boot_id` or the
//!    reported digest — stale beats are rejected wholesale.
//! 4. **`Unreachable` ≠ `Dead`** ([`Health::Unreachable`]): a one-way
//!    partitioned device goes heartbeat-silent while indirect liveness
//!    evidence stays fresh. The detector grades it `Unreachable`, and
//!    remedial reprovisioning is suppressed — repaving a device that is
//!    still serving traffic is how split brain happens.

use crate::fixture::{
    baseline_detector, entry_for, intent_log, table_of, LineFleet, BENIGN_KEY, HEARTBEAT_PERIOD,
};
use crate::sweep::{col, count, total, Arm, Oracle, Report, Suite, Summary};
use flexnet_controller::{Delivery, FailureDetector, Health, HealthEvent};
use flexnet_dataplane::{flip_bits, seal_frame, TxnTag};
use flexnet_sim::{mix, AdversaryScenario, AdversarySchedule};
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Table size of the adversary fleet's gate / tap programs.
const TABLE_SIZE: u32 = 32;
/// Extra post-heal ticks the run takes so retried commands land and the
/// detector's hysteresis clears before invariants are judged.
const DRAIN_TICKS: usize = 200;
/// Corrupted sealed frames thrown at the victim's wire path each run —
/// the in-run proof that corruption is billed to the transport, not to
/// any program.
const WIRE_PROBES: u64 = 8;
/// First key of the out-of-band entry commands (like
/// [`BENIGN_KEY`], never present in generated traffic).
const CMD_KEY_BASE: u64 = 0xE20_0000;

/// Everything one adversarial run produced, on either arm.
#[derive(Debug, Clone)]
pub struct AdversaryReport {
    /// The seed-expanded schedule this run executed.
    pub schedule: AdversarySchedule,
    /// The arm the run executed on.
    pub arm: Arm,
    /// Config commands the controller issued (excluding 2PC verbs).
    pub commands: u32,
    /// Commands whose ack reached the controller.
    pub acked: u32,
    /// Duplicate deliveries the device-side idempotency machinery
    /// absorbed (token window hits + idempotent 2PC re-acks).
    pub duplicates_absorbed: u64,
    /// Corrupted command frames rejected by the checksum (protected):
    /// each fed the retry machinery as a typed transport failure.
    pub corrupt_rejected: u64,
    /// Corrupted command frames *applied as-is* (ablated): each is a
    /// divergence seed.
    pub corrupt_applied: u64,
    /// Stale reordered heartbeats the monotonicity guard rejected.
    pub stale_beats_rejected: u64,
    /// Stale heartbeats applied unguarded (ablated).
    pub stale_beats_accepted: u64,
    /// Polls at which the partition victim was graded
    /// [`Health::Unreachable`] — each one a suppressed repave.
    pub unreachable_polls: u64,
    /// Remedial repaves executed against a live device (ablated: the
    /// victim was graded `Dead` behind a one-way partition).
    pub repaves: u32,
    /// Control messages swallowed by the severed link direction.
    pub partition_drops: u64,
    /// Fabric adversary counters: frames corrupted in flight.
    pub corrupted: u64,
    /// Fabric adversary counters: commands duplicated.
    pub duplicated: u64,
    /// Fabric adversary counters: heartbeats reorder-delayed.
    pub reordered: u64,
    /// Wire-level checksum drops on the probed device (the sealed-frame
    /// corruption probe; protected runs only).
    pub checksum_drops: u64,
    /// Data-plane packets delivered end-to-end during the run.
    pub delivered: u64,
    /// Data-plane packets lost.
    pub lost: u64,
    /// Devices the detector reported as flapped (must be empty: nothing
    /// restarts in E20 — any flap is reorder damage).
    pub flapped: Vec<NodeId>,
    /// Devices whose final digest differs from intended state. Empty on
    /// every protected run; non-empty on oracle seeds ablated.
    pub diverged_nodes: Vec<NodeId>,
    /// Fault start → last command ack.
    pub converge_latency: SimDuration,
    /// Invariant violations (protected runs only; ablated runs report
    /// damage through the counters and `diverged_nodes`).
    pub violations: Vec<String>,
}

impl AdversaryReport {
    /// Whether the run ended digest-divergent (the oracle signal).
    pub fn diverged_end(&self) -> bool {
        !self.diverged_nodes.is_empty()
    }
}

impl Report for AdversaryReport {
    fn failures(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// One in-flight control command and its delivery state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmdKind {
    /// An out-of-band `add_entry` with this exact-match key.
    AddEntry(u64),
    /// 2PC phase 1 toward the v2 target.
    Prepare,
    /// 2PC phase 2 (commit) for the prepared shadow.
    Commit,
}

#[derive(Debug, Clone)]
struct Cmd {
    node: NodeId,
    kind: CmdKind,
    token: u64,
    eligible_tick: usize,
    acked: bool,
}

/// A heartbeat copy the fabric is holding back.
#[derive(Debug, Clone, Copy)]
struct DelayedBeat {
    due_tick: usize,
    node: NodeId,
    sent_at: SimTime,
    boot_id: u64,
    digest: u64,
}

/// Runs the full adversarial scenario for one seed on `arm`.
///
/// Errors only on harness plumbing failures; protocol misbehaviour is
/// reported as violations (protected) or surfaces through the damage
/// counters and `diverged_nodes` (ablated — that arm reports, it is not
/// judged).
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, arm: Arm) -> Result<AdversaryReport> {
    // -- setup: the line, intended state committed + journaled -----------
    let protected = arm == Arm::Protected;
    let schedule = AdversarySchedule::from_seed(seed, 3);
    let mut fleet = LineFleet::new(seed, schedule.fabric_loss, intent_log(schedule.raft_seed)?);
    let (devices, sw) = (fleet.devices, fleet.switch());
    let victim = devices[schedule.victim];
    fleet.fabric.enable_adversary(
        schedule.corrupt_prob,
        schedule.dup_prob,
        schedule.reorder_prob,
        schedule.reorder_depth,
        seed,
    );
    let mut violations: Vec<String> = Vec::new();
    let mut store = fleet.provision_gate_and_taps(seed, TABLE_SIZE, &mut violations)?;
    // The suite's own copy of each device's intended entries — what an
    // ablated remedial repave blindly reinstalls.
    let mut intended_entries: BTreeMap<NodeId, Vec<u64>> =
        devices.iter().map(|d| (*d, vec![BENIGN_KEY])).collect();

    // Baselined at the loop start so the first poll judges real silence,
    // not the setup gap.
    let mut detector = FailureDetector::default();
    detector.monotone_guard = protected;
    let t_base = SimTime::from_secs(1);
    baseline_detector(&fleet.sim, &mut detector, t_base);

    // -- wire-integrity probe: corrupted sealed frames at the victim ----
    // Proves end-to-end that in-flight corruption is a *transport* event:
    // checksum drops increment, parse/program traps and quarantine don't.
    let mut checksum_drops = 0;
    if protected {
        let dev = fleet.device(victim);
        let traps_before = dev.stats().parse_traps;
        for k in 0..WIRE_PROBES {
            let mut frame = seal_frame(b"e20 wire probe: not a real packet");
            flip_bits(&mut frame, mix(seed ^ (0xF1A8 + k)), 1 + (k % 8) as u32);
            match dev.process_sealed_bytes(&frame, k, t_base) {
                Err(FlexError::ChecksumMismatch { .. }) => {}
                other => violations.push(format!(
                    "corrupted sealed frame {k} returned {other:?}, expected ChecksumMismatch"
                )),
            }
        }
        let stats = dev.stats();
        checksum_drops = stats.checksum_drops;
        if stats.checksum_drops != WIRE_PROBES {
            violations.push(format!(
                "{WIRE_PROBES} corrupted frames but {} checksum drops",
                stats.checksum_drops
            ));
        }
        if stats.parse_traps != traps_before {
            violations.push("in-flight corruption was billed as parse traps".into());
        }
        if dev.quarantined() {
            violations.push("in-flight corruption quarantined an innocent program".into());
        }
    }

    // -- fault plan ------------------------------------------------------
    let partitioned = matches!(
        schedule.scenario,
        AdversaryScenario::OneWayPartition | AdversaryScenario::PartitionMidRollout
    );
    let partition_start = t_base + SimDuration::from_millis(150);
    let heal_at = t_base + SimDuration::from_millis(schedule.heal_after_ms);
    let mut partition_active = false;

    // Mid-rollout schedules run a full 2PC toward v2 through the
    // adversarial fabric; the partition lands between prepare and commit.
    let midrollout = schedule.scenario == AdversaryScenario::PartitionMidRollout;
    let upgrade: BTreeMap<NodeId, _> = fleet.upgrade_targets(TABLE_SIZE).into_iter().collect();
    let txn_id = mix(seed ^ 0x7C7C) | 1;
    let tag = TxnTag { txn_id, epoch: 1 };
    let phase_cmds = |kind, salt: u64, tick| {
        let cmd = |(i, d): (usize, &NodeId)| Cmd {
            node: *d,
            kind,
            token: mix(seed ^ (salt + i as u64)),
            eligible_tick: tick,
            acked: false,
        };
        devices.iter().enumerate().map(cmd).collect::<Vec<Cmd>>()
    };
    let mut cmds: Vec<Cmd> = Vec::new();
    if midrollout {
        cmds = phase_cmds(CmdKind::Prepare, 0x9E9E_0000, 0);
    }
    // Out-of-band entry commands, round-robin over the fleet, staggered
    // two ticks apart. Mid-rollout runs gate them on rollout completion
    // (entries added between prepare and flip would miss the shadow).
    let mut entry_cmds: Vec<Cmd> = (0..schedule.commands)
        .map(|i| Cmd {
            node: devices[(i as usize) % devices.len()],
            kind: CmdKind::AddEntry(CMD_KEY_BASE + u64::from(i)),
            token: mix(seed ^ (0x70AD_0000 + u64::from(i))),
            eligible_tick: 2 * i as usize,
            acked: false,
        })
        .collect();
    if !midrollout {
        cmds.append(&mut entry_cmds);
    }

    // -- live traffic ----------------------------------------------------
    let traffic_dur = SimDuration::from_secs(3);
    fleet.load_cbr(t_base + SimDuration::from_millis(1), traffic_dur, seed);

    // -- the adversarial loop --------------------------------------------
    let mut report = AdversaryReport {
        schedule: schedule.clone(),
        arm,
        commands: schedule.commands,
        acked: 0,
        duplicates_absorbed: 0,
        corrupt_rejected: 0,
        corrupt_applied: 0,
        stale_beats_rejected: 0,
        stale_beats_accepted: 0,
        unreachable_polls: 0,
        repaves: 0,
        partition_drops: 0,
        corrupted: 0,
        duplicated: 0,
        reordered: 0,
        checksum_drops,
        delivered: 0,
        lost: 0,
        flapped: Vec::new(),
        diverged_nodes: Vec::new(),
        converge_latency: SimDuration::ZERO,
        violations: Vec::new(),
    };
    let mut delayed: Vec<DelayedBeat> = Vec::new();
    let mut prepares_done = false;
    let mut commits_issued = false;
    let mut rollout_recorded = false;
    let mut repaved: BTreeSet<NodeId> = BTreeSet::new();
    let mut last_ack = t_base;

    let main_ticks = (traffic_dur.as_nanos() / HEARTBEAT_PERIOD.as_nanos()) as usize + 20;
    let mut t = t_base;
    let mut tick = 0usize;
    loop {
        let draining = tick >= main_ticks;
        let pending = cmds.iter().any(|c| !c.acked);
        if draining && !pending && delayed.is_empty() && !partition_active {
            break;
        }
        if tick >= main_ticks + DRAIN_TICKS {
            if pending {
                let stuck: Vec<String> = cmds
                    .iter()
                    .filter(|c| !c.acked)
                    .map(|c| format!("{:?}@{}", c.kind, c.node))
                    .collect();
                violations.push(format!("commands never acknowledged: {stuck:?}"));
            }
            break;
        }
        t += HEARTBEAT_PERIOD;
        tick += 1;

        // Partition lifecycle (no randomness drawn by blocked paths).
        if partitioned && !partition_active && t >= partition_start && t < heal_at {
            if schedule.partition_up {
                fleet.fabric.block_up(victim);
            } else {
                fleet.fabric.block_down(victim);
            }
            partition_active = true;
        }
        if partition_active && t >= heal_at {
            fleet.fabric.heal(victim);
            partition_active = false;
        }

        fleet.sim.run(t);
        for d in devices {
            fleet.device(d).tick(t);
        }

        // 2PC phase transitions: commits go out once every prepare is
        // acked; the entry phase starts once every flip has executed.
        if midrollout && !prepares_done && cmds.iter().all(|c| c.acked) {
            prepares_done = true;
        }
        if midrollout && prepares_done && !commits_issued {
            cmds.extend(phase_cmds(CmdKind::Commit, 0xC0_0000, tick));
            commits_issued = true;
        }
        if midrollout && commits_issued && !rollout_recorded {
            let commits_acked = cmds
                .iter()
                .filter(|c| c.kind == CmdKind::Commit)
                .all(|c| c.acked);
            let flips_done = devices
                .iter()
                .all(|d| !fleet.device(*d).reconfig_in_progress());
            if commits_acked && flips_done {
                for d in devices {
                    store.commit_target(&mut fleet.log, txn_id, d, upgrade[&d].clone())?;
                }
                // Release the held-back entry commands.
                for (j, mut c) in entry_cmds.drain(..).enumerate() {
                    c.eligible_tick = tick + 2 * j;
                    cmds.push(c);
                }
                rollout_recorded = true;
            }
        }

        // One delivery attempt per unacked eligible command per tick.
        for c in cmds.iter_mut() {
            if c.acked || c.eligible_tick > tick {
                continue;
            }
            let is_sw = c.node == sw;
            let table = table_of(is_sw);
            match fleet.fabric.deliver_cmd(c.node) {
                Delivery::Lost => {}
                Delivery::Corrupted { mask_seed } => {
                    if protected {
                        // Integrity check killed the frame; the typed
                        // NACK (ChecksumMismatch) rides the up path and
                        // feeds the retry machinery. Either way: retry.
                        report.corrupt_rejected += 1;
                        let _ = fleet.fabric.deliver_up(c.node);
                    } else if let CmdKind::AddEntry(key) = c.kind {
                        // Unsealed fabric: a payload bit-flip slips
                        // through and the device applies a mangled
                        // entry as-is — the divergence seed.
                        let mangled = key ^ (mix(mask_seed) | 1);
                        let _ = fleet
                            .device(c.node)
                            .add_entry(table, entry_for(is_sw, mangled));
                        report.corrupt_applied += 1;
                        if fleet.fabric.deliver_up(c.node) {
                            c.acked = true;
                            last_ack = t;
                        }
                    }
                    // Corrupted 2PC frames fail to even parse: dropped.
                }
                delivery @ (Delivery::Arrived | Delivery::Duplicated { .. }) => {
                    let copies = match delivery {
                        Delivery::Duplicated { extra } => 1 + u32::from(extra),
                        _ => 1,
                    };
                    for _ in 0..copies {
                        let dev = fleet.device(c.node);
                        match c.kind {
                            CmdKind::AddEntry(key) if protected => {
                                match dev.absorb_command(c.token) {
                                    Ok(()) => {
                                        if let Err(e) = dev.add_entry(table, entry_for(is_sw, key))
                                        {
                                            violations.push(format!(
                                                "add_entry({key:#x}) on {}: {e}",
                                                c.node
                                            ));
                                        }
                                    }
                                    Err(FlexError::StaleDuplicate { .. }) => {
                                        report.duplicates_absorbed += 1;
                                    }
                                    Err(e) => violations
                                        .push(format!("absorb_command on {}: {e}", c.node)),
                                }
                            }
                            // No dedup: every copy (and every retry after
                            // a lost ack) reapplies.
                            CmdKind::AddEntry(key) => {
                                let _ = dev.add_entry(table, entry_for(is_sw, key));
                            }
                            CmdKind::Prepare => {
                                let was_pending = dev.reconfig_in_progress();
                                match dev.prepare_txn_reconfig(upgrade[&c.node].clone(), t, tag) {
                                    Ok(_) if was_pending => report.duplicates_absorbed += 1,
                                    Ok(_) => {}
                                    Err(e) => {
                                        violations.push(format!("prepare on {}: {e}", c.node));
                                    }
                                }
                            }
                            CmdKind::Commit => match dev.commit_txn(tag, t) {
                                Ok(true) => {}
                                Ok(false) => report.duplicates_absorbed += 1,
                                Err(e) => violations.push(format!("commit on {}: {e}", c.node)),
                            },
                        }
                    }
                    if fleet.fabric.deliver_up(c.node) {
                        c.acked = true;
                        last_ack = t;
                    }
                }
            }
        }

        // Delayed (reordered) heartbeat copies due this tick: stale by
        // construction — newer beats arrived while they sat in flight.
        let (due, still): (Vec<DelayedBeat>, Vec<DelayedBeat>) =
            delayed.into_iter().partition(|b| b.due_tick <= tick);
        delayed = still;
        for b in due {
            if detector.observe_heartbeat(b.node, b.sent_at, b.boot_id, b.digest) {
                report.stale_beats_accepted += 1;
            } else {
                report.stale_beats_rejected += 1;
            }
        }

        // Fresh heartbeats (the up path; a severed up direction kills
        // them without drawing randomness), then indirect liveness
        // evidence: the data plane keeps forwarding through a
        // one-way-partitioned device, and the controller sees it
        // (downstream receipts, relayed counters). The legacy detector
        // (ablated) has no such channel.
        for node in fleet.sim.topo.nodes().filter(|n| n.device.is_up()) {
            let (boot_id, digest) = (node.device.boot_id(), node.device.config_digest());
            if !fleet.fabric.deliver_up(node.id) {
                continue;
            }
            let delay = fleet.fabric.reorder_delay();
            if delay == 0 {
                detector.observe_heartbeat(node.id, t, boot_id, digest);
            } else {
                delayed.push(DelayedBeat {
                    due_tick: tick + delay,
                    node: node.id,
                    sent_at: t,
                    boot_id,
                    digest,
                });
            }
        }
        if protected {
            for node in fleet.sim.topo.nodes().filter(|n| n.device.is_up()) {
                detector.note_liveness_hint(node.id, t);
            }
        }

        // Grade and react.
        for (node, event) in detector.poll(t) {
            match event {
                HealthEvent::Flapped { .. } => report.flapped.push(node),
                HealthEvent::Graded(Health::Dead) => {
                    let alive = fleet.sim.topo.node(node).is_some_and(|n| n.device.is_up());
                    if !alive {
                        continue;
                    }
                    if protected {
                        violations.push(format!(
                            "{node} graded dead behind a one-way partition (split-brain risk)"
                        ));
                    } else if repaved.insert(node) {
                        // The legacy controller believes the device is
                        // gone and repaves it from intended state with a
                        // fresh provisioning epoch — but the device is
                        // alive and already configured. Split brain.
                        report.repaves += 1;
                        let is_sw = node == sw;
                        for key in intended_entries.get(&node).cloned().unwrap_or_default() {
                            let entry = entry_for(is_sw, key);
                            let _ = fleet.device(node).add_entry(table_of(is_sw), entry);
                        }
                    }
                }
                _ => {}
            }
        }
        if detector.health(victim) == Some(Health::Unreachable) {
            report.unreachable_polls += 1;
            if detector.admit(victim).is_ok() {
                violations.push(format!(
                    "{victim} admitted to new work while graded unreachable"
                ));
            }
        }
    }

    // Intended state for the out-of-band entries (recorded exactly once
    // per command, however many times the fabric delivered it).
    for c in cmds.iter().chain(entry_cmds.iter()) {
        if let CmdKind::AddEntry(key) = c.kind {
            let is_sw = c.node == sw;
            let entry = entry_for(is_sw, key);
            store.record_entry(&mut fleet.log, c.node, table_of(is_sw), entry)?;
            intended_entries.entry(c.node).or_default().push(key);
            report.acked += u32::from(c.acked);
        }
    }

    // -- settle + invariants ---------------------------------------------
    let settle = t + SimDuration::from_secs(1);
    fleet.sim.run_to_completion();
    fleet.no_orphans_after_settle(settle, &mut violations);
    report.diverged_nodes = fleet.digests_match_intended(&store, "heal", &mut violations);
    fleet.log_replay_matches_store(&store, &mut violations)?;
    if !report.flapped.is_empty() {
        violations.push(format!(
            "nothing restarted, yet the detector flapped {:?}",
            report.flapped
        ));
    }
    if partitioned
        && schedule.partition_up
        && heal_at.saturating_since(partition_start) > SimDuration::from_millis(650)
        && report.unreachable_polls == 0
    {
        violations.push(format!(
            "{victim} was one-way partitioned for {} but never graded unreachable",
            heal_at.saturating_since(partition_start)
        ));
    }
    // Post-heal the victim must have shed the partition grades (as
    // of the loop's final poll — transient Suspect under a still-
    // reordering fabric is honest detector behavior, a lingering
    // Unreachable/Dead is not).
    if let Some(h @ (Health::Unreachable | Health::Dead)) = detector.health(victim) {
        violations.push(format!(
            "victim {victim} still graded {} after heal + drain",
            h.label()
        ));
    }
    // No device downtime in E20: data-plane loss must be noise-level.
    if fleet.sim.metrics.total_lost() > 50 {
        violations.push(format!(
            "lost {} packets with no device ever down",
            fleet.sim.metrics.total_lost()
        ));
    }
    if fleet.sim.metrics.delivered == 0 {
        violations.push("no traffic delivered at all".into());
    }
    // Corruption is transport-billed: no parse traps, no quarantine
    // anywhere (traffic is valid; corrupted control frames must not
    // leak into any program-accountable path).
    for d in devices {
        let dev = fleet.device(d);
        if dev.stats().parse_traps != 0 {
            violations.push(format!(
                "{d} billed {} parse traps under pure fabric corruption",
                dev.stats().parse_traps
            ));
        }
        if dev.quarantined() {
            violations.push(format!("{d} quarantined under pure fabric corruption"));
        }
    }

    if let Some(adv) = fleet.fabric.adversary() {
        report.corrupted = adv.corrupted;
        report.duplicated = adv.duplicated;
        report.reordered = adv.reordered;
    }
    report.partition_drops = fleet.fabric.partition_drops;
    report.delivered = fleet.sim.metrics.delivered;
    report.lost = fleet.sim.metrics.total_lost();
    report.converge_latency = last_ack.saturating_since(t_base);
    // The ablated arm is the reference that shows the damage; its
    // invariants are not judged.
    if protected {
        report.violations = violations;
    }
    Ok(report)
}

type Agg = fn(&[&AdversaryReport]) -> u64;
const DUPS: Agg = |c| total(c, |r| r.duplicates_absorbed);
const CORRUPT: Agg = |c| total(c, |r| r.corrupt_rejected);
const STALE: Agg = |c| total(c, |r| r.stale_beats_rejected);
const UNREACHABLE: Agg = |c| total(c, |r| r.unreachable_polls);
const REPAVES: Agg = |c| total(c, |r| u64::from(r.repaves));
const LOST: Agg = |c| total(c, |r| r.lost);
const DELIVERED: Agg = |c| total(c, |r| r.delivered);

/// Seeds pinned as ablated-arm divergence oracles: two checksum / dedup
/// regressions (corrupt-storm 0, dup-flood 1) and both one-way partition
/// directions (3 two-way-ish down-block, 8 true up-block).
const ORACLE_SEEDS: [u64; 4] = [0, 1, 3, 8];

/// The E20 experiment.
pub fn suite() -> Suite<AdversaryReport> {
    let converged: fn(&[&AdversaryReport]) -> String =
        |c| count(c, |r| r.passed() && !r.diverged_end()).to_string();
    Suite {
        name: "adversary",
        id: "E20",
        title: "adversarial fabric: corruption, duplication, reordering, one-way partitions",
        claim: "a runtime-programmable network rewires itself over the same \
                fabric that is failing; control traffic must survive corrupted, \
                duplicated, reordered and asymmetrically partitioned links with \
                end-to-end integrity and exactly-once command semantics",
        sweep_note: "(scenario = seed mod 5), protections on",
        run,
        cohort_title: "scenario",
        cohorts: AdversaryScenario::ALL
            .iter()
            .map(AdversaryScenario::label)
            .collect(),
        cohort_of: |r| {
            let scenario = r.schedule.scenario;
            AdversaryScenario::ALL
                .iter()
                .position(|s| *s == scenario)
                .expect("a listed scenario")
        },
        columns: vec![
            col("converged", converged),
            col("dups absorbed", |c| DUPS(c).to_string()),
            col("corrupt rej", |c| CORRUPT(c).to_string()),
            col("stale rej", |c| STALE(c).to_string()),
            col("unreach polls", |c| UNREACHABLE(c).to_string()),
            col("lost/delivered", |c| {
                format!("{}/{}", LOST(c), DELIVERED(c))
            }),
        ],
        totals: Some(|all| {
            format!(
                "across the sweep: {} duplicate commands absorbed \
                 exactly-once, {} corrupted frames rejected by \
                 checksum, {} stale heartbeats refused by the \
                 monotonicity guard, {} split-brain repaves (must be 0)",
                DUPS(all),
                CORRUPT(all),
                STALE(all),
                REPAVES(all),
            )
        }),
        oracle: Some(Oracle {
            seeds: &ORACLE_SEEDS,
            bites: AdversaryReport::diverged_end,
            intro: |_, _| {
                format!(
                    "oracle seeds {ORACLE_SEEDS:?}: protections OFF must still diverge \
                     (regression check that the adversary still bites)"
                )
            },
            detail: Some(|off| {
                format!(
                    "corrupt applied={}, dup deliveries={}, repaves={}",
                    off.corrupt_applied, off.duplicated, off.repaves
                )
            }),
            soft: "no longer diverge with protections off — the adversary has \
                   lost its teeth; retune the schedule or re-pin the oracles.",
        }),
        summary: Some(Summary {
            experiment: "e20_adversary",
            head: |t| {
                vec![
                    ("converged", t.passed.to_string()),
                    ("duplicates_absorbed", DUPS(t.on).to_string()),
                    ("corrupt_rejected", CORRUPT(t.on).to_string()),
                    ("stale_beats_rejected", STALE(t.on).to_string()),
                    ("split_brain_repaves", REPAVES(t.on).to_string()),
                    ("oracle_seeds", format!("{ORACLE_SEEDS:?}")),
                    ("oracles_still_diverge", t.oracles_hold.to_string()),
                ]
            },
            cohort: vec![
                col("converged", converged),
                col("duplicates_absorbed", |c| DUPS(c).to_string()),
                col("corrupt_rejected", |c| CORRUPT(c).to_string()),
                col("stale_beats_rejected", |c| STALE(c).to_string()),
                col("unreachable_polls", |c| UNREACHABLE(c).to_string()),
                col("lost", |c| LOST(c).to_string()),
                col("delivered", |c| DELIVERED(c).to_string()),
            ],
            tail: |_| Vec::new(),
        }),
        verdict: "protections-on runs converged after heal (zero digest \
                  divergence, zero split-brain repaves, exactly-once command \
                  application); wrote E20_summary.json",
        failed_note: " (protections on)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_adversarial_seed(seed: u64) -> Result<AdversaryReport> {
        run(seed, Arm::Protected)
    }

    #[test]
    fn protections_on_converges_across_scenarios() {
        // One seed per scenario class; the full 120-seed sweep is the
        // `chaos adversary` binary's job.
        for seed in 0..5 {
            let r = run_adversarial_seed(seed).expect("harness runs");
            assert!(
                r.passed(),
                "seed {seed} ({}) violations: {:?}",
                r.schedule.scenario.label(),
                r.violations
            );
            assert!(!r.diverged_end(), "seed {seed} diverged");
        }
    }

    #[test]
    fn corrupt_storm_exercises_the_checksum_path() {
        // Seed 0 is a corrupt-storm by construction (seed % 5 == 0).
        let r = run_adversarial_seed(0).expect("run");
        assert_eq!(r.schedule.scenario, AdversaryScenario::CorruptStorm);
        assert!(r.corrupted > 0, "the storm corrupted nothing");
        assert!(r.corrupt_rejected > 0, "no corrupted frame was rejected");
        assert_eq!(r.corrupt_applied, 0, "protections on: nothing applied");
        assert_eq!(r.checksum_drops, super::WIRE_PROBES);
    }

    #[test]
    fn dup_flood_is_absorbed_exactly_once() {
        // Seed 1 is a dup-flood (seed % 5 == 1).
        let r = run_adversarial_seed(1).expect("run");
        assert_eq!(r.schedule.scenario, AdversaryScenario::DupFlood);
        assert!(r.duplicated > 0, "the flood duplicated nothing");
        assert!(
            r.duplicates_absorbed > 0,
            "no duplicate was absorbed by the dedup machinery"
        );
        assert!(r.passed(), "violations: {:?}", r.violations);
    }

    #[test]
    fn protections_off_diverges_on_oracle_seeds() {
        // Oracle seeds: heavy corruption (0) and duplication (1) with
        // every defense ablated must leave the fleet digest-divergent —
        // this is the regression oracle the sweep pins.
        for seed in [0u64, 1] {
            let r = run(seed, Arm::Ablated).expect("harness runs");
            assert!(
                r.diverged_end(),
                "seed {seed} protections-off converged — the defenses are not load-bearing"
            );
            assert!(
                r.corrupt_applied > 0 || r.duplicated > 0,
                "seed {seed} off-arm saw no damage at all"
            );
        }
    }

    #[test]
    fn one_way_partition_grades_unreachable_and_heals() {
        // Find a one-way-partition seed whose severed direction is "up"
        // (heartbeats die) — that is where Unreachable-vs-Dead matters.
        let seed = (0..200u64)
            .find(|s| {
                let sch = AdversarySchedule::from_seed(*s, 3);
                sch.scenario == AdversaryScenario::OneWayPartition && sch.partition_up
            })
            .expect("an up-partition seed exists in 0..200");
        let r = run_adversarial_seed(seed).expect("run");
        assert!(r.passed(), "seed {seed} violations: {:?}", r.violations);
        assert!(
            r.unreachable_polls > 0,
            "seed {seed}: the victim was never graded unreachable"
        );
    }
}
