//! E20 — the adversarial fabric: end-to-end integrity and exactly-once
//! control semantics under corruption, duplication, reordering, and
//! asymmetric partitions.
//!
//! Where E14 restarts devices and E17 overloads the controller, E20
//! attacks the *network between them*. The suite's `Adversary` rides on
//! the line's [`LossyFabric`]: it corrupts command frames in flight,
//! delivers commands two or three times over, delays heartbeat copies by
//! several slots, and severs one direction of a victim's link while the
//! other keeps working. The suite plays every delivery itself, one
//! attempt per unacked command per heartbeat tick: the controller's own
//! command channel (`Channel::send`, which `txn`, `recovery` and `resync`
//! use) meets plain loss only. Four defenses — all armed on
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
    baseline_detector, entry_for, intent_log, table_of, Draws, LineFleet, BENIGN_KEY,
    HEARTBEAT_PERIOD,
};
use crate::sweep::{col, count, total, Arm, Oracle, Report, Suite, Summary};
use flexnet_controller::{FailureDetector, Health, HealthEvent, LossyFabric};
use flexnet_dataplane::{flip_bits, seal_frame, TxnTag};
use flexnet_types::hash::mix;
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Which integrity / exactly-once layer an adversarial-fabric run leans
/// on: frame checksums, the device dedup window, heartbeat monotonicity,
/// or the Unreachable-vs-Dead split-brain guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdversaryScenario {
    /// Heavy in-flight bit-flips on the command path: every mangled frame
    /// must die at the checksum (a retryable transport failure), never
    /// reach config logic, and never bill a program's trap window.
    CorruptStorm,
    /// Commands and heartbeats delivered two or three times over: the
    /// device dedup window and idempotent 2PC verbs must absorb every
    /// replay — acknowledged, not reapplied.
    DupFlood,
    /// Bounded reordering delays command/heartbeat copies by several
    /// slots: stale heartbeats must never regress `boot_id` or the
    /// reported digest, and out-of-order command replays must be absorbed.
    ReorderChurn,
    /// One direction of a victim's link is severed — the device keeps
    /// serving traffic and hearing (or sending) but not both. The
    /// detector must grade it `Unreachable`, not `Dead`, suppressing
    /// remedial reprovisioning that would split-brain live state.
    OneWayPartition,
    /// The partition lands in the middle of a 2PC rollout: retried
    /// Prepare/Flip commands after heal must be absorbed exactly-once and
    /// the fleet must converge to a single digest.
    PartitionMidRollout,
}

impl AdversaryScenario {
    /// All scenarios, cycled by the sweep.
    pub const ALL: [AdversaryScenario; 5] = [
        AdversaryScenario::CorruptStorm,
        AdversaryScenario::DupFlood,
        AdversaryScenario::ReorderChurn,
        AdversaryScenario::OneWayPartition,
        AdversaryScenario::PartitionMidRollout,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryScenario::CorruptStorm => "corrupt-storm",
            AdversaryScenario::DupFlood => "dup-flood",
            AdversaryScenario::ReorderChurn => "reorder-churn",
            AdversaryScenario::OneWayPartition => "one-way-partition",
            AdversaryScenario::PartitionMidRollout => "partition-mid-rollout",
        }
    }
}

/// Everything an adversarial-fabric run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which fabric fault this run leans on.
    pub scenario: AdversaryScenario,
    /// Fleet index of the partition victim (partition scenarios) or the
    /// device whose command stream takes the brunt of the fault.
    pub victim: usize,
    /// Baseline drop probability of the controller↔device fabric, drawn
    /// from the standard {0, 10%, 25%} tiers.
    pub fabric_loss: f64,
    /// Per-command in-flight corruption probability.
    pub corrupt_prob: f64,
    /// Per-command duplication probability.
    pub dup_prob: f64,
    /// Per-heartbeat reorder probability.
    pub reorder_prob: f64,
    /// Maximum reorder displacement in heartbeat slots (≤ 8, matching the
    /// dedup-window sizing argument).
    pub reorder_depth: usize,
    /// Partition scenarios: `true` severs the device→controller (up)
    /// direction — acks and heartbeats die, commands still land; `false`
    /// severs controller→device — the device keeps heartbeating but
    /// hears nothing.
    pub partition_up: bool,
    /// Partition scenarios: milliseconds after the run starts at which
    /// the severed direction heals.
    pub heal_after_ms: u64,
    /// How many config commands the controller pushes through the
    /// adversarial fabric during the run.
    pub commands: u32,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl AdversarySchedule {
    /// Expands `seed` into an adversarial-fabric schedule over
    /// `participants` devices.
    ///
    /// The scenario cycles with the seed (any contiguous run of ≥5 seeds
    /// covers every fault class; seeds ≡ 4 mod 5 are the partition-mid-
    /// rollout runs), severity knobs come from the seed's hash, and the
    /// scenario decides which fault dominates — the others idle at
    /// background levels so every run still exercises all defenses.
    pub fn from_seed(seed: u64, participants: usize) -> AdversarySchedule {
        let d = Draws::new(seed, 0xAD5E_7ACE);
        let scenario = AdversaryScenario::ALL[(seed % 5) as usize];
        let tier = |tiers: [f64; 3]| tiers[d.bits(5, 3) as usize];
        let (corrupt_prob, dup_prob, reorder_prob) = match scenario {
            AdversaryScenario::CorruptStorm => (tier([0.30, 0.50, 0.70]), 0.05, 0.05),
            AdversaryScenario::DupFlood => (0.02, tier([0.40, 0.60, 0.80]), 0.10),
            AdversaryScenario::ReorderChurn => (0.02, 0.10, tier([0.40, 0.60, 0.80])),
            AdversaryScenario::OneWayPartition | AdversaryScenario::PartitionMidRollout => {
                (0.05, 0.10, 0.10)
            }
        };
        AdversarySchedule {
            seed,
            scenario,
            victim: d.index(3, participants),
            fabric_loss: d.fabric_loss(),
            corrupt_prob,
            dup_prob,
            reorder_prob,
            reorder_depth: 2 + d.bits(14, 7) as usize,
            partition_up: d.bit(16),
            heal_after_ms: 800 + d.bits(18, 5) * 400,
            commands: 8 + d.bits(24, 9) as u32,
            raft_seed: mix(seed ^ 0x0DD_5EED),
        }
    }
}

/// What the adversary did to one command in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// Dropped: plain loss, or a severed partition direction.
    Lost,
    /// Arrived exactly once, intact.
    Arrived,
    /// Arrived intact, with `extra` duplicate copies right behind it (the
    /// receiver's dedup window must absorb them).
    Duplicated { extra: u8 },
    /// Arrived with bits flipped in flight; `mask_seed` selects which.
    Corrupted { mask_seed: u64 },
}

/// The seeded adversary riding on the line's [`LossyFabric`]: per-command
/// corruption and duplication, bounded heartbeat reordering, and one
/// severed link direction at a time — the asymmetric partition (the
/// controller hears a device that never hears it, or the other way
/// round) that symmetric link-state flips cannot express.
///
/// Every message still crosses the fabric's loss stream exactly as a
/// plain send would; the adversary draws from its **own** stream, seeded
/// apart from the fabric's, so arming it moves no loss draw. A severed
/// direction swallows a message before the loss draw and draws nothing.
#[derive(Debug)]
struct Adversary {
    corrupt_prob: f64,
    dup_prob: f64,
    reorder_prob: f64,
    reorder_depth: usize,
    rng: StdRng,
    /// The partitioned node and the severed direction (`true`: up, the
    /// device's acks and heartbeats; `false`: down, the commands).
    severed: Option<(NodeId, bool)>,
    /// Commands corrupted in flight.
    corrupted: u64,
    /// Commands duplicated in flight.
    duplicated: u64,
    /// Heartbeats delivered out of order.
    reordered: u64,
    /// Messages swallowed by the severed direction.
    partition_drops: u64,
}

impl Adversary {
    /// The adversary `schedule` arms, on its own stream under `seed`.
    fn new(schedule: &AdversarySchedule, seed: u64) -> Adversary {
        Adversary {
            corrupt_prob: schedule.corrupt_prob,
            dup_prob: schedule.dup_prob,
            reorder_prob: schedule.reorder_prob,
            reorder_depth: schedule.reorder_depth,
            rng: StdRng::seed_from_u64(mix(seed ^ 0xAD5E_7ACE_F1A8_0001)),
            severed: None,
            corrupted: 0,
            duplicated: 0,
            reordered: 0,
            partition_drops: 0,
        }
    }

    /// Whether `node`'s `up` direction is severed; counts the swallowed
    /// message if so.
    fn swallows(&mut self, node: NodeId, up: bool) -> bool {
        let cut = self.severed == Some((node, up));
        self.partition_drops += u64::from(cut);
        cut
    }

    /// Sends one device → controller message (heartbeat, ack) from
    /// `node`; `true` when it arrives.
    fn deliver_up(&mut self, fabric: &mut LossyFabric, node: NodeId) -> bool {
        !self.swallows(node, true) && fabric.deliver()
    }

    /// Sends one command to `node`: the partition check, the fabric's
    /// loss draw, then — for a command that survived both — the
    /// corruption and duplication draws.
    fn deliver_cmd(&mut self, fabric: &mut LossyFabric, node: NodeId) -> Delivery {
        if self.swallows(node, false) || !fabric.deliver() {
            return Delivery::Lost;
        }
        if self.rng.gen_bool(self.corrupt_prob) {
            self.corrupted += 1;
            return Delivery::Corrupted {
                mask_seed: self.rng.gen(),
            };
        }
        if self.rng.gen_bool(self.dup_prob) {
            self.duplicated += 1;
            // 1–3 duplicate copies, weighted toward one.
            let extra = 1 + (self.rng.gen_range(0u8..4) / 3);
            return Delivery::Duplicated { extra };
        }
        Delivery::Arrived
    }

    /// Draws the reorder decision for one heartbeat: `0` delivers it in
    /// order, `k > 0` holds it back until `k` later ones overtook it.
    fn reorder_delay(&mut self) -> usize {
        if self.rng.gen_bool(self.reorder_prob) {
            self.reordered += 1;
            self.rng.gen_range(1..=self.reorder_depth)
        } else {
            0
        }
    }
}

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
    let mut adversary = Adversary::new(&schedule, seed);
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
            adversary.severed = Some((victim, schedule.partition_up));
            partition_active = true;
        }
        if partition_active && t >= heal_at {
            adversary.severed = None;
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
            match adversary.deliver_cmd(&mut fleet.fabric, c.node) {
                Delivery::Lost => {}
                Delivery::Corrupted { mask_seed } => {
                    if protected {
                        // Integrity check killed the frame; the typed
                        // NACK (ChecksumMismatch) rides the up path and
                        // feeds the retry machinery. Either way: retry.
                        report.corrupt_rejected += 1;
                        adversary.deliver_up(&mut fleet.fabric, c.node);
                    } else if let CmdKind::AddEntry(key) = c.kind {
                        // Unsealed fabric: a payload bit-flip slips
                        // through and the device applies a mangled
                        // entry as-is — the divergence seed.
                        let mangled = key ^ (mix(mask_seed) | 1);
                        let _ = fleet
                            .device(c.node)
                            .add_entry(table, entry_for(is_sw, mangled));
                        report.corrupt_applied += 1;
                        if adversary.deliver_up(&mut fleet.fabric, c.node) {
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
                    if adversary.deliver_up(&mut fleet.fabric, c.node) {
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
            if !adversary.deliver_up(&mut fleet.fabric, node.id) {
                continue;
            }
            let delay = adversary.reorder_delay();
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

    report.corrupted = adversary.corrupted;
    report.duplicated = adversary.duplicated;
    report.reordered = adversary.reordered;
    report.partition_drops = adversary.partition_drops;
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

    /// An adversary with the given per-message probabilities.
    fn armed(corrupt: f64, dup: f64, reorder: f64, depth: usize, seed: u64) -> Adversary {
        let schedule = AdversarySchedule {
            corrupt_prob: corrupt,
            dup_prob: dup,
            reorder_prob: reorder,
            reorder_depth: depth,
            ..AdversarySchedule::from_seed(seed, 3)
        };
        Adversary::new(&schedule, seed)
    }

    #[test]
    fn the_adversary_leaves_the_fabric_loss_stream_untouched() {
        // The suite's loss draws are pinned to the fabric's stream. A
        // command crosses the lossy link exactly once whether or not the
        // adversary rides on it, and the adversary draws only from its
        // own stream, so arming it must not shift the loss stream at all.
        let run = |seed, arm: bool| {
            let mut f = LossyFabric::new(0.3, seed);
            let mut adv = armed(0.5, 0.5, 0.5, 8, seed);
            (0..500)
                .map(|i| {
                    if i % 7 == 0 {
                        // interleave adversarial draws between plain ones
                        if arm {
                            adv.deliver_cmd(&mut f, NodeId(1));
                            adv.reorder_delay();
                        } else {
                            f.deliver();
                        }
                    }
                    f.deliver()
                })
                .collect::<Vec<_>>()
        };
        for seed in [1u64, 42, 0xDEAD] {
            assert_eq!(run(seed, false), run(seed, true), "seed {seed}");
        }
    }

    #[test]
    fn a_severed_direction_consumes_no_randomness() {
        let mut open = LossyFabric::new(0.3, 11);
        let mut cut = LossyFabric::new(0.3, 11);
        let mut adv = armed(0.2, 0.2, 0.3, 6, 11);
        adv.severed = Some((NodeId(5), false));
        for _ in 0..100 {
            // Swallowed sends return early; the loss rng never advances.
            assert_eq!(adv.deliver_cmd(&mut cut, NodeId(5)), Delivery::Lost);
        }
        adv.severed = Some((NodeId(5), true));
        for _ in 0..100 {
            assert!(!adv.deliver_up(&mut cut, NodeId(5)));
        }
        assert_eq!(adv.partition_drops, 200);
        let a: Vec<bool> = (0..200).map(|_| open.deliver()).collect();
        let b: Vec<bool> = (0..200).map(|_| cut.deliver()).collect();
        assert_eq!(a, b, "severed traffic drew no randomness");
        adv.severed = None;
        assert!(
            adv.deliver_up(&mut LossyFabric::reliable(), NodeId(5)),
            "healed"
        );
    }

    #[test]
    fn adversary_draws_are_deterministic_and_counted() {
        let run = |seed| {
            let mut f = LossyFabric::reliable();
            let mut adv = armed(0.2, 0.2, 0.3, 6, seed);
            let events: Vec<Delivery> = (0..400)
                .map(|_| adv.deliver_cmd(&mut f, NodeId(2)))
                .collect();
            let delays: Vec<usize> = (0..200).map(|_| adv.reorder_delay()).collect();
            (events, delays, adv.corrupted, adv.duplicated, adv.reordered)
        };
        assert_eq!(run(9), run(9), "same seed, same adversarial schedule");
        let (events, delays, corrupted, duplicated, reordered) = run(9);
        assert!(corrupted > 0 && duplicated > 0 && reordered > 0);
        let corrupt_events = events
            .iter()
            .filter(|e| matches!(e, Delivery::Corrupted { .. }));
        assert_eq!(corrupt_events.count() as u64, corrupted);
        assert!(delays.iter().all(|&d| d <= 6), "reorder depth bounded");
        assert!(delays.iter().any(|&d| d > 0));
    }
}
