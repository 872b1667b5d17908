//! Deterministic chaos schedules: seeded coordinator-kill plans composed
//! with data-plane fault injection.
//!
//! A chaos run is fully described by one `u64` seed. The seed expands —
//! via a splitmix-style hash, so neighbouring seeds decorrelate — into a
//! [`ChaosSchedule`]: *which* two-phase-commit phase the coordinator dies
//! in ([`CrashPhase`]), *which* participant device (if any) crashes along
//! with it, and how lossy the control fabric is. The controller crate's
//! chaos harness executes the schedule and checks global invariants; this
//! module only owns the sim-side vocabulary (the schedule and its
//! expansion) so the dependency arrow keeps pointing controller → sim.

use crate::engine::Simulation;
use crate::faults::FaultPlan;
use flexnet_types::{NodeId, SimTime};
use std::collections::BTreeMap;

/// Where in the two-phase-commit protocol the coordinator is killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashPhase {
    /// After the `Intent` record is durable, before any prepare is sent.
    AfterIntent,
    /// After some (but not all) participants prepared shadows.
    MidPrepare,
    /// After the `Prepared` record is durable, before the flip decision.
    AfterPrepared,
    /// After the `FlipScheduled` record is durable, before every commit
    /// command reached its participant.
    AfterFlipScheduled,
}

impl CrashPhase {
    /// All phases, in protocol order.
    pub const ALL: [CrashPhase; 4] = [
        CrashPhase::AfterIntent,
        CrashPhase::MidPrepare,
        CrashPhase::AfterPrepared,
        CrashPhase::AfterFlipScheduled,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            CrashPhase::AfterIntent => "after-intent",
            CrashPhase::MidPrepare => "mid-prepare",
            CrashPhase::AfterPrepared => "after-prepared",
            CrashPhase::AfterFlipScheduled => "after-flip-scheduled",
        }
    }
}

/// Everything a chaos run does, derived deterministically from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Where the coordinator dies.
    pub crash_phase: CrashPhase,
    /// Participant index (into the transaction's device list) that crashes
    /// together with the coordinator, losing its volatile shadow — or
    /// `None` for a clean coordinator-only crash.
    pub victim: Option<usize>,
    /// Drop probability of the controller↔device fabric.
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

/// splitmix64's stream increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64: decorrelates consecutive seeds into independent streams
/// (the workspace's one seed-expansion hash — schedules, retry jitter and
/// the chaos suites all draw through it).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The next draw of the splitmix64 stream whose state is `stream`.
pub fn mix_next(stream: &mut u64) -> u64 {
    let z = mix(*stream);
    *stream = stream.wrapping_add(GAMMA);
    z
}

impl ChaosSchedule {
    /// Expands `seed` into a schedule over `participants` devices.
    ///
    /// The expansion cycles the crash phase with the seed (so any
    /// contiguous run of ≥4 seeds covers every phase), crashes a device
    /// alongside the coordinator in half the runs, and draws fabric loss
    /// from {0, 10%, 25%}.
    pub fn from_seed(seed: u64, participants: usize) -> ChaosSchedule {
        let h = mix(seed);
        let crash_phase = CrashPhase::ALL[(seed % 4) as usize];
        let victim = if participants > 0 && h & 1 == 1 {
            Some(((h >> 1) as usize) % participants)
        } else {
            None
        };
        let fabric_loss = match (h >> 8) % 3 {
            0 => 0.0,
            1 => 0.10,
            _ => 0.25,
        };
        ChaosSchedule {
            seed,
            crash_phase,
            victim,
            fabric_loss,
            raft_seed: mix(seed ^ 0xC0FF_EE00),
        }
    }

    /// The data-plane half of the schedule as a [`FaultPlan`]: the victim
    /// device (if any) crashes at `crash_at` and restarts shortly after,
    /// modelling a power blip that wipes its volatile shadow.
    pub fn fault_plan(&self, devices: &[NodeId], crash_at: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        if let Some(v) = self.victim {
            if let Some(&node) = devices.get(v) {
                plan = plan
                    .crash(crash_at, node)
                    .restart(crash_at + crate::faults::VICTIM_RESTART_DELAY, node);
            }
        }
        plan
    }
}

/// Everything a device-restart chaos run does, derived from one seed.
///
/// Where [`ChaosSchedule`] kills the *coordinator*, a `RestartSchedule`
/// kills *devices*: a seeded subset of the participants crashes and
/// restarts (runtime state wiped), optionally in the middle of an
/// in-flight two-phase-commit transaction. The controller's resync
/// harness executes the schedule and checks that anti-entropy converges
/// every victim back to intended state.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// How many devices restart: 1, about half, or all of them
    /// (the E14 sweep axis — single blip, correlated failure, power event).
    pub restarts: usize,
    /// Participant indices (into the device list) that crash + restart,
    /// distinct, `restarts` of them.
    pub victims: Vec<usize>,
    /// Whether the restarts land in the middle of an in-flight
    /// transaction (between prepare and flip) rather than during steady
    /// traffic.
    pub mid_txn: bool,
    /// Drop probability of the controller↔device fabric.
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl RestartSchedule {
    /// Expands `seed` into a restart schedule over `participants` devices.
    ///
    /// The restart count cycles 1 → ⌈n/2⌉ → n with the seed (so any three
    /// consecutive seeds cover the whole E14 axis), victims are drawn
    /// distinct from the mixed seed, every other run restarts mid-
    /// transaction, and fabric loss comes from {0, 10%, 25%}.
    pub fn from_seed(seed: u64, participants: usize) -> RestartSchedule {
        let h = mix(seed ^ 0x5EED_CAFE);
        let restarts = if participants == 0 {
            0
        } else {
            match seed % 3 {
                0 => 1,
                1 => participants.div_ceil(2),
                _ => participants,
            }
        };
        // Draw distinct victim indices by walking a mixed stream.
        let mut victims: Vec<usize> = Vec::new();
        let mut z = h;
        while victims.len() < restarts {
            z = mix(z);
            let v = (z as usize) % participants;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims.sort_unstable();
        let fabric_loss = match (h >> 8) % 3 {
            0 => 0.0,
            1 => 0.10,
            _ => 0.25,
        };
        RestartSchedule {
            seed,
            restarts,
            victims,
            mid_txn: (h >> 4) & 1 == 1,
            fabric_loss,
            raft_seed: mix(seed ^ 0xDEC0_DED0),
        }
    }

    /// The data-plane half of the schedule as a [`FaultPlan`]: every
    /// victim crashes at `crash_at` and restarts after the standard
    /// victim delay, modelling a correlated power event.
    pub fn fault_plan(&self, devices: &[NodeId], crash_at: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        for &v in &self.victims {
            if let Some(&node) = devices.get(v) {
                plan = plan
                    .crash(crash_at, node)
                    .restart(crash_at + crate::faults::VICTIM_RESTART_DELAY, node);
            }
        }
        plan
    }
}

/// How a canary rollout's *candidate program* misbehaves.
///
/// Where [`ChaosSchedule`] and [`RestartSchedule`] break the substrate
/// (coordinator, devices), a rollout fault ships a *bad program*: the
/// infrastructure works perfectly and the payload itself regresses the
/// SLOs. Each variant is designed to trip a different guard in the
/// controller's canary orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RolloutFault {
    /// The candidate is correct: the rollout must complete every wave
    /// with zero loss and no guard false-positive.
    Clean,
    /// The candidate drops every packet it sees — the loudest possible
    /// regression; the fleet loss-delta guard must fire in wave 1.
    UniformDrop,
    /// One specific device (and only it) receives a pathological build
    /// of the candidate — a device-scoped miscompile. The device keeps
    /// heartbeating on time; only its data-path drop slope betrays it
    /// (the paper's gray failure).
    GrayDrop,
    /// The candidate burns ~2 µs of extra per-packet work: no loss at
    /// all, but the p99 latency-delta guard must catch it.
    LatencyInflation,
    /// The candidate drops 1 packet in 8, per device: fleet-level loss
    /// stays under the guard while only one wave's devices run it, and
    /// crosses the threshold as later waves widen exposure — the
    /// slow-burn regression that only late waves reveal.
    SlowBurn,
}

impl RolloutFault {
    /// All faults, cycled by the sweep.
    pub const ALL: [RolloutFault; 5] = [
        RolloutFault::Clean,
        RolloutFault::UniformDrop,
        RolloutFault::GrayDrop,
        RolloutFault::LatencyInflation,
        RolloutFault::SlowBurn,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            RolloutFault::Clean => "clean",
            RolloutFault::UniformDrop => "uniform-drop",
            RolloutFault::GrayDrop => "gray-drop",
            RolloutFault::LatencyInflation => "latency-inflation",
            RolloutFault::SlowBurn => "slow-burn",
        }
    }
}

/// Everything a canary-rollout chaos run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which way the candidate program is bad (or [`RolloutFault::Clean`]).
    pub fault: RolloutFault,
    /// For [`RolloutFault::GrayDrop`]: the fleet index of the device that
    /// receives the pathological build. Drawn from the first
    /// `min(4, participants)` indices so — under the canonical cumulative
    /// wave plan 1 → 2 → 4 → all — the victim always flips *before* the
    /// final wave, and a guard that works must catch it short of
    /// full-fleet exposure. `None` for every other fault.
    pub gray_victim: Option<usize>,
    /// Drop probability of the controller↔device fabric (the control
    /// plane retries through it; the rollout must still resolve).
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl RolloutSchedule {
    /// Expands `seed` into a rollout schedule over `participants` devices.
    ///
    /// The fault cycles with the seed (any contiguous run of ≥5 seeds
    /// covers every fault class), the gray victim is drawn from the
    /// early-wave indices, and fabric loss comes from {0, 10%, 25%}.
    pub fn from_seed(seed: u64, participants: usize) -> RolloutSchedule {
        let h = mix(seed ^ 0x0BAD_CA5E);
        let fault = RolloutFault::ALL[(seed % 5) as usize];
        let gray_victim = if fault == RolloutFault::GrayDrop && participants > 0 {
            Some(((h >> 3) as usize) % participants.min(4))
        } else {
            None
        };
        let fabric_loss = match (h >> 8) % 3 {
            0 => 0.0,
            1 => 0.10,
            _ => 0.25,
        };
        RolloutSchedule {
            seed,
            fault,
            gray_victim,
            fabric_loss,
            raft_seed: mix(seed ^ 0xCAFE_F11B),
        }
    }
}

/// The rollout schedules for a contiguous seed range (E15's sweep shape).
pub fn rollout_sweep(first_seed: u64, count: u64, participants: usize) -> Vec<RolloutSchedule> {
    (first_seed..first_seed.saturating_add(count))
        .map(|s| RolloutSchedule::from_seed(s, participants))
        .collect()
}

/// How one overload chaos run tries to push the controller into
/// metastable collapse.
///
/// Where the earlier schedules break one thing (a coordinator, a set of
/// devices, a candidate program), an overload scenario breaks the
/// *arithmetic*: it arranges for offered control-plane load to exceed
/// service capacity long enough that, without protection, the backlog's
/// own retries and stale work keep the controller saturated after the
/// original fault clears — the metastable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OverloadScenario {
    /// Most of the fleet restarts at once: a resync stampede meets the
    /// admission path.
    MassRestart,
    /// The control fabric browns out (heavy loss) for the fault window:
    /// every exchange retries, multiplying offered load.
    Brownout,
    /// Devices multiply their telemetry cadence: a flood of the
    /// lowest-priority work class.
    HeartbeatBurst,
    /// The controller itself slows down (capacity divided) while load
    /// stays nominal: queue delay crosses the client timeout and every
    /// request starts arriving in duplicate.
    SlowController,
}

impl OverloadScenario {
    /// All scenarios, cycled by the sweep.
    pub const ALL: [OverloadScenario; 4] = [
        OverloadScenario::MassRestart,
        OverloadScenario::Brownout,
        OverloadScenario::HeartbeatBurst,
        OverloadScenario::SlowController,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            OverloadScenario::MassRestart => "mass-restart",
            OverloadScenario::Brownout => "brownout",
            OverloadScenario::HeartbeatBurst => "heartbeat-burst",
            OverloadScenario::SlowController => "slow-controller",
        }
    }
}

/// Everything an overload chaos run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which overload mechanism this run exercises.
    pub scenario: OverloadScenario,
    /// [`OverloadScenario::MassRestart`]: how many devices restart
    /// (most or all of the fleet — a stampede, not a blip).
    pub restarts: usize,
    /// Device indices that restart, distinct, `restarts` of them.
    pub victims: Vec<usize>,
    /// [`OverloadScenario::Brownout`]: fabric drop probability while the
    /// fault holds.
    pub brownout_loss: f64,
    /// [`OverloadScenario::HeartbeatBurst`]: telemetry cadence
    /// multiplier while the fault holds.
    pub burst_factor: u32,
    /// [`OverloadScenario::SlowController`]: controller service-capacity
    /// divisor while the fault holds.
    pub slow_factor: u32,
    /// Baseline drop probability of the control fabric (outside the
    /// fault window).
    pub fabric_loss: f64,
    /// How long the fault holds, in milliseconds of simulated time.
    pub fault_ms: u64,
}

impl OverloadSchedule {
    /// Expands `seed` into an overload schedule over `participants`
    /// devices.
    ///
    /// The scenario cycles with the seed (any contiguous run of ≥4 seeds
    /// covers every mechanism); severity knobs are drawn from the mixed
    /// seed — always hard enough that offered load exceeds unprotected
    /// capacity during the fault, because a scenario the *unprotected*
    /// controller survives proves nothing about the protections.
    pub fn from_seed(seed: u64, participants: usize) -> OverloadSchedule {
        let h = mix(seed ^ 0x0EE2_10AD);
        let scenario = OverloadScenario::ALL[(seed % 4) as usize];
        let restarts = if scenario == OverloadScenario::MassRestart && participants > 0 {
            // All of the fleet, or three quarters of it: a stampede.
            match (h >> 2) & 1 {
                0 => participants,
                _ => (participants * 3).div_ceil(4),
            }
        } else {
            0
        };
        let mut victims: Vec<usize> = Vec::new();
        let mut z = h;
        while victims.len() < restarts {
            z = mix(z);
            let v = (z as usize) % participants;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims.sort_unstable();
        OverloadSchedule {
            seed,
            scenario,
            restarts,
            victims,
            brownout_loss: if (h >> 4) & 1 == 0 { 0.5 } else { 0.7 },
            burst_factor: 6 + ((h >> 6) % 5) as u32,
            slow_factor: 4 + ((h >> 9) % 4) as u32,
            fabric_loss: if (h >> 12) & 1 == 0 { 0.0 } else { 0.05 },
            fault_ms: 600 + ((h >> 16) % 5) * 150,
        }
    }
}

/// How a rogue tenant attacks the data-plane sandbox.
///
/// Where [`OverloadSchedule`] saturates the *control* plane, a rogue
/// scenario attacks the *data* plane: a verified-but-hostile program (or
/// a hostile packet stream) tries to take a device down from inside its
/// packet path. Each variant targets a different sandbox layer — the gas
/// meter, the typed state traps, the wire parser, and the quarantine ↔
/// rollout interlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RogueScenario {
    /// The program recirculates every packet to burn cycles: the per-
    /// packet gas meter must trap it and the trap-rate window must
    /// quarantine it to the last-known-good image.
    RunawayLoop,
    /// A runtime `ModifyState` shrinks a register array under a running
    /// program: every subsequent indexed access must surface as a typed
    /// out-of-bounds trap (not a panic), and the storm must quarantine.
    StateBomb,
    /// A flood of malformed frames hits the wire parser: every frame must
    /// trap (never panic) and be dropped, and — critically — parse traps
    /// must NOT indict the installed program or trip its quarantine.
    MalformedFlood,
    /// A canary rollout ships a candidate that traps on live traffic
    /// (division by a state value that is zero in production): the
    /// quarantine guard must abort the rollout inside wave 1 and roll the
    /// canaries back, before any later wave widens exposure.
    TrapStormRollout,
}

impl RogueScenario {
    /// All scenarios, cycled by the sweep.
    pub const ALL: [RogueScenario; 4] = [
        RogueScenario::RunawayLoop,
        RogueScenario::StateBomb,
        RogueScenario::MalformedFlood,
        RogueScenario::TrapStormRollout,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            RogueScenario::RunawayLoop => "runaway-loop",
            RogueScenario::StateBomb => "state-bomb",
            RogueScenario::MalformedFlood => "malformed-flood",
            RogueScenario::TrapStormRollout => "trap-storm-rollout",
        }
    }
}

/// Everything a rogue-program chaos run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RogueSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which sandbox layer this run attacks.
    pub scenario: RogueScenario,
    /// Fleet index of the device hosting the rogue program (or receiving
    /// the poison flood). Not used by [`RogueScenario::TrapStormRollout`],
    /// where the rollout's own wave plan decides exposure.
    pub victim: usize,
    /// [`RogueScenario::RunawayLoop`]: the device gas budget tier — low
    /// enough that the loop exhausts it within one packet.
    pub gas_limit: u64,
    /// [`RogueScenario::StateBomb`]: the register array is shrunk to this
    /// many slots at runtime (the program keeps indexing past it).
    pub shrink_to: u64,
    /// [`RogueScenario::MalformedFlood`]: how many poison frames hit the
    /// victim's wire parser.
    pub flood_packets: u32,
    /// Drop probability of the controller↔device fabric (quarantine
    /// signals ride heartbeats through it; the control plane must still
    /// observe and react).
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl RogueSchedule {
    /// Expands `seed` into a rogue schedule over `participants` devices.
    ///
    /// The scenario cycles with the seed (any contiguous run of ≥4 seeds
    /// covers every sandbox layer; seeds ≡ 3 mod 4 are the trap-storm-
    /// during-rollout runs), severity knobs come from the mixed seed, and
    /// fabric loss is drawn from the standard {0, 10%, 25%} tiers.
    pub fn from_seed(seed: u64, participants: usize) -> RogueSchedule {
        let h = mix(seed ^ 0x0BAD_5EED);
        let scenario = RogueScenario::ALL[(seed % 4) as usize];
        let victim = if participants > 0 {
            ((h >> 3) as usize) % participants
        } else {
            0
        };
        RogueSchedule {
            seed,
            scenario,
            victim,
            gas_limit: match (h >> 5) % 3 {
                0 => 64,
                1 => 256,
                _ => 1024,
            },
            shrink_to: 1 + (h >> 7) % 4,
            flood_packets: 128 + ((h >> 16) % 3) as u32 * 128,
            fabric_loss: match (h >> 8) % 3 {
                0 => 0.0,
                1 => 0.10,
                _ => 0.25,
            },
            raft_seed: mix(seed ^ 0xBAD_F00D),
        }
    }
}

/// The rogue schedules for a contiguous seed range (E18's sweep shape).
pub fn rogue_sweep(first_seed: u64, count: u64, participants: usize) -> Vec<RogueSchedule> {
    (first_seed..first_seed.saturating_add(count))
        .map(|s| RogueSchedule::from_seed(s, participants))
        .collect()
}

/// Where [`RogueScenario`] attacks a device from *inside* its packet
/// path, an adversarial-fabric scenario attacks the network *between*
/// controller and device: frames are corrupted in flight, commands are
/// duplicated and reordered, and links fail in one direction only. Each
/// variant stresses a different integrity/exactly-once layer — frame
/// checksums, the device dedup window, heartbeat monotonicity, and the
/// Unreachable-vs-Dead split-brain guard (E20).
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

/// Everything an adversarial-fabric chaos run does, derived from one seed.
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
    /// rollout runs), severity knobs come from the mixed seed, and the
    /// scenario decides which fault dominates — the others idle at
    /// background levels so every run still exercises all defenses.
    pub fn from_seed(seed: u64, participants: usize) -> AdversarySchedule {
        let h = mix(seed ^ 0xAD5E_7ACE);
        let scenario = AdversaryScenario::ALL[(seed % 5) as usize];
        let victim = if participants > 0 {
            ((h >> 3) as usize) % participants
        } else {
            0
        };
        let tier = |lo: f64, mid: f64, hi: f64| match (h >> 5) % 3 {
            0 => lo,
            1 => mid,
            _ => hi,
        };
        let (corrupt_prob, dup_prob, reorder_prob) = match scenario {
            AdversaryScenario::CorruptStorm => (tier(0.30, 0.50, 0.70), 0.05, 0.05),
            AdversaryScenario::DupFlood => (0.02, tier(0.40, 0.60, 0.80), 0.10),
            AdversaryScenario::ReorderChurn => (0.02, 0.10, tier(0.40, 0.60, 0.80)),
            AdversaryScenario::OneWayPartition
            | AdversaryScenario::PartitionMidRollout => (0.05, 0.10, 0.10),
        };
        AdversarySchedule {
            seed,
            scenario,
            victim,
            fabric_loss: match (h >> 8) % 3 {
                0 => 0.0,
                1 => 0.10,
                _ => 0.25,
            },
            corrupt_prob,
            dup_prob,
            reorder_prob,
            reorder_depth: 2 + ((h >> 14) % 7) as usize,
            partition_up: (h >> 16) & 1 == 1,
            heal_after_ms: 800 + ((h >> 18) % 5) * 400,
            commands: 8 + ((h >> 24) % 9) as u32,
            raft_seed: mix(seed ^ 0x0DD_5EED),
        }
    }
}

/// Where every earlier schedule breaks a *process* (coordinator, device,
/// controller) or the *fabric*, a storage scenario breaks the *medium*
/// the control plane persists into: the crash lands mid-append, the
/// in-flight record tears, a cold byte rots, the snapshot itself rots,
/// the disk fills during compaction, or every fsync drags. Each variant
/// stresses a different layer of the durable-state stack — the fsync
/// barrier discipline, recovery scrubbing, checksum verification,
/// snapshot generations, typed `NoSpace` containment, and latency
/// accounting (E21).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageScenario {
    /// A controller node's disk fails in the middle of a log append: the
    /// record's bytes are in the volatile buffer, no barrier ever comes,
    /// and recovery must scrub the torn tail away and rejoin cleanly.
    CrashMidAppend,
    /// The mid-append crash composes with a leader kill at a seeded 2PC
    /// phase: failover and torn-tail recovery race, and the new leader's
    /// log must win over the scrubbed node's truncated suffix.
    TornTailOnFailover,
    /// A bit rots in the *cold* region of a follower's log — bytes synced
    /// long ago, mid-log, with valid records after them. The CRC scrub
    /// must truncate at the rot, demote the node to catch-up-only (it
    /// never votes with a hole), and anti-entropy must re-replicate the
    /// suffix from the leader.
    BitRotInColdLog,
    /// The newest snapshot generation rots: recovery must detect the bad
    /// checksum, fall back to the previous generation, and replay the
    /// longer tail instead of trusting garbage.
    RotInSnapshot,
    /// The snapshot disk is too small for the next generation: compaction
    /// must fail with typed `NoSpace`, leave the log intact, and the
    /// cluster must keep operating (slower, never wrong).
    NoSpaceDuringCompaction,
    /// Every fsync barrier drags (a lagging disk) while the E13 crash
    /// schedule runs: acks wait for durability, elections slow down, and
    /// the run must still converge with the lag fully accounted.
    LaggingFsync,
}

impl StorageScenario {
    /// All scenarios, cycled by the sweep.
    pub const ALL: [StorageScenario; 6] = [
        StorageScenario::CrashMidAppend,
        StorageScenario::TornTailOnFailover,
        StorageScenario::BitRotInColdLog,
        StorageScenario::RotInSnapshot,
        StorageScenario::NoSpaceDuringCompaction,
        StorageScenario::LaggingFsync,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            StorageScenario::CrashMidAppend => "crash-mid-append",
            StorageScenario::TornTailOnFailover => "torn-tail-on-failover",
            StorageScenario::BitRotInColdLog => "bit-rot-in-cold-log",
            StorageScenario::RotInSnapshot => "rot-in-snapshot",
            StorageScenario::NoSpaceDuringCompaction => "nospace-during-compaction",
            StorageScenario::LaggingFsync => "lagging-fsync",
        }
    }
}

/// Everything a storage-chaos run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which layer of the durable-state stack this run attacks.
    pub scenario: StorageScenario,
    /// Controller-node index (0..3) whose disk takes the fault.
    pub victim: usize,
    /// Where in the two-phase-commit protocol the composed crash lands
    /// (used by the failover and lagging-fsync scenarios, which run the
    /// E13 kill schedule on top of the disk fault).
    pub crash_phase: CrashPhase,
    /// The 1-based write index at which the victim's WAL disk trips
    /// (mid-append scenarios).
    pub crash_at_write: u64,
    /// Fsync latency in microseconds ([`StorageScenario::LaggingFsync`]).
    pub fsync_lag_us: u64,
    /// Snapshot-disk capacity in bytes
    /// ([`StorageScenario::NoSpaceDuringCompaction`] pins it small).
    pub snap_capacity: Option<u64>,
    /// Drop probability of the controller↔device fabric.
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
    /// Seed stream for the per-node disk fault plans.
    pub disk_seed: u64,
}

impl StorageSchedule {
    /// Expands `seed` into a storage schedule over `controllers` nodes.
    ///
    /// The scenario cycles with the seed (any contiguous run of ≥6 seeds
    /// covers every storage layer; seeds ≡ 2 mod 6 are the cold-log rot
    /// runs and seeds ≡ 3 mod 6 the snapshot rot runs — the CRC-oracle
    /// scenarios), the crash phase cycles independently, and fabric loss
    /// comes from the standard {0, 10%, 25%} tiers.
    pub fn from_seed(seed: u64, controllers: usize) -> StorageSchedule {
        let h = mix(seed ^ 0xD15C_FA17);
        let scenario = StorageScenario::ALL[(seed % 6) as usize];
        let victim = if controllers > 0 {
            ((h >> 3) as usize) % controllers
        } else {
            0
        };
        StorageSchedule {
            seed,
            scenario,
            victim,
            crash_phase: CrashPhase::ALL[((h >> 6) % 4) as usize],
            crash_at_write: 2 + (h >> 10) % 6,
            fsync_lag_us: 200 + ((h >> 13) % 4) * 200,
            snap_capacity: if scenario == StorageScenario::NoSpaceDuringCompaction {
                Some(24 + (h >> 17) % 40)
            } else {
                None
            },
            fabric_loss: match (h >> 8) % 3 {
                0 => 0.0,
                1 => 0.10,
                _ => 0.25,
            },
            raft_seed: mix(seed ^ 0xD15C_C0DE),
            disk_seed: mix(seed ^ 0xD15C_5EED),
        }
    }
}

/// The convergence check at the heart of anti-entropy: which of the
/// devices in `intended` report a configuration digest different from
/// their intended-state digest? An empty return means the network is
/// digest-equal to the controller's intent — every chaos seed must end
/// this way.
pub fn diverged(sim: &Simulation, intended: &BTreeMap<NodeId, u64>) -> Vec<NodeId> {
    intended
        .iter()
        .filter(|(node, want)| {
            sim.topo
                .node(**node)
                .map(|n| n.device.config_digest() != **want)
                .unwrap_or(true)
        })
        .map(|(node, _)| *node)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_in_their_seed() {
        for seed in [0, 1, 17, u64::MAX - 3] {
            assert_eq!(
                ChaosSchedule::from_seed(seed, 3),
                ChaosSchedule::from_seed(seed, 3)
            );
        }
    }

    #[test]
    fn any_four_consecutive_seeds_cover_every_phase() {
        for start in [0u64, 5, 1000] {
            let mut phases: Vec<CrashPhase> = (start..start + 4)
                .map(|seed| ChaosSchedule::from_seed(seed, 3).crash_phase)
                .collect();
            phases.sort();
            phases.dedup();
            assert_eq!(phases.len(), 4, "seeds {start}..{} miss a phase", start + 4);
        }
    }

    #[test]
    fn victims_stay_in_range_and_sometimes_exist() {
        let schedules: Vec<_> = (0..64).map(|seed| ChaosSchedule::from_seed(seed, 3)).collect();
        let with_victim = schedules
            .iter()
            .filter(|s| s.victim.is_some())
            .count();
        assert!(with_victim > 10, "some runs crash a device: {with_victim}");
        assert!(with_victim < 54, "some runs are coordinator-only");
        for s in &schedules {
            if let Some(v) = s.victim {
                assert!(v < 3, "victim index {v} out of range (seed {})", s.seed);
            }
            assert!((0.0..=0.25).contains(&s.fabric_loss));
        }
    }

    #[test]
    fn zero_participants_never_picks_a_victim() {
        for s in (0..16).map(|seed| ChaosSchedule::from_seed(seed, 0)) {
            assert_eq!(s.victim, None);
        }
    }

    #[test]
    fn restart_schedules_cover_the_sweep_axis_and_stay_distinct() {
        for start in [0u64, 7, 4096] {
            let counts: Vec<usize> = (start..start + 3)
                .map(|seed| RestartSchedule::from_seed(seed, 4))
                .map(|s| s.restarts)
                .collect();
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![1, 2, 4],
                "seeds {start}..{} must cover 1/⌈n/2⌉/all, got {counts:?}",
                start + 3
            );
        }
        for s in (0..64).map(|seed| RestartSchedule::from_seed(seed, 4)) {
            assert_eq!(s.victims.len(), s.restarts, "seed {}", s.seed);
            let mut dedup = s.victims.clone();
            dedup.dedup();
            assert_eq!(dedup, s.victims, "victims distinct+sorted: {:?}", s.victims);
            assert!(s.victims.iter().all(|&v| v < 4));
            assert_eq!(s, RestartSchedule::from_seed(s.seed, 4), "deterministic");
        }
        let mid: usize = (0..64)
            .filter(|&seed| RestartSchedule::from_seed(seed, 4).mid_txn)
            .count();
        assert!(mid > 16 && mid < 48, "both timing modes occur: {mid}/64");
    }

    #[test]
    fn restart_fault_plan_crashes_and_restarts_every_victim() {
        let devices = [NodeId(4), NodeId(5), NodeId(6)];
        for s in (0..12).map(|seed| RestartSchedule::from_seed(seed, devices.len())) {
            let plan = s.fault_plan(&devices, SimTime::from_secs(1));
            assert_eq!(plan.events().len(), 2 * s.restarts, "crash+restart each");
        }
    }

    #[test]
    fn rollout_schedules_cycle_faults_and_keep_gray_victims_early() {
        for start in [0u64, 13, 777] {
            let mut faults: Vec<RolloutFault> = rollout_sweep(start, 5, 8)
                .iter()
                .map(|s| s.fault)
                .collect();
            faults.sort();
            faults.dedup();
            assert_eq!(faults.len(), 5, "seeds {start}..{} miss a fault", start + 5);
        }
        for s in rollout_sweep(0, 120, 8) {
            assert_eq!(s, RolloutSchedule::from_seed(s.seed, 8), "deterministic");
            assert!((0.0..=0.25).contains(&s.fabric_loss));
            match s.fault {
                RolloutFault::GrayDrop => {
                    let v = s.gray_victim.expect("gray runs pick a victim");
                    assert!(
                        v < 4,
                        "gray victim {v} must flip before the final wave (seed {})",
                        s.seed
                    );
                }
                _ => assert_eq!(s.gray_victim, None, "seed {}", s.seed),
            }
        }
    }

    #[test]
    fn gray_victim_respects_small_fleets() {
        for s in rollout_sweep(0, 40, 2) {
            if let Some(v) = s.gray_victim {
                assert!(v < 2);
            }
        }
        for s in rollout_sweep(0, 40, 0) {
            assert_eq!(s.gray_victim, None);
        }
    }

    #[test]
    fn overload_schedules_cover_scenarios_and_stay_in_bounds() {
        for start in [0u64, 3, 997] {
            let mut scenarios: Vec<OverloadScenario> = (start..start + 4)
                .map(|seed| OverloadSchedule::from_seed(seed, 16))
                .map(|s| s.scenario)
                .collect();
            scenarios.sort();
            scenarios.dedup();
            assert_eq!(
                scenarios.len(),
                4,
                "seeds {start}..{} miss a scenario",
                start + 4
            );
        }
        for s in (0..120).map(|seed| OverloadSchedule::from_seed(seed, 16)) {
            assert_eq!(s, OverloadSchedule::from_seed(s.seed, 16), "deterministic");
            assert!((0.0..=0.05).contains(&s.fabric_loss), "seed {}", s.seed);
            assert!((0.5..=0.7).contains(&s.brownout_loss));
            assert!((6..=10).contains(&s.burst_factor));
            assert!((4..=7).contains(&s.slow_factor));
            assert!((600..=1200).contains(&s.fault_ms));
            match s.scenario {
                OverloadScenario::MassRestart => {
                    assert!(
                        s.restarts >= 12,
                        "a stampede restarts most of 16 devices, got {} (seed {})",
                        s.restarts,
                        s.seed
                    );
                    assert_eq!(s.victims.len(), s.restarts);
                    let mut dedup = s.victims.clone();
                    dedup.dedup();
                    assert_eq!(dedup, s.victims, "victims distinct+sorted");
                    assert!(s.victims.iter().all(|&v| v < 16));
                }
                _ => assert!(s.victims.is_empty() && s.restarts == 0),
            }
        }
    }

    #[test]
    fn rogue_schedules_cover_scenarios_and_stay_in_bounds() {
        for start in [0u64, 3, 997] {
            let mut scenarios: Vec<RogueScenario> = rogue_sweep(start, 4, 16)
                .iter()
                .map(|s| s.scenario)
                .collect();
            scenarios.sort();
            scenarios.dedup();
            assert_eq!(
                scenarios.len(),
                4,
                "seeds {start}..{} miss a scenario",
                start + 4
            );
        }
        for s in rogue_sweep(0, 120, 16) {
            assert_eq!(s, RogueSchedule::from_seed(s.seed, 16), "deterministic");
            assert!(s.victim < 16, "seed {}", s.seed);
            assert!([64, 256, 1024].contains(&s.gas_limit));
            assert!((1..=4).contains(&s.shrink_to));
            assert!([128, 256, 384].contains(&s.flood_packets));
            assert!((0.0..=0.25).contains(&s.fabric_loss));
            if s.seed % 4 == 3 {
                assert_eq!(
                    s.scenario,
                    RogueScenario::TrapStormRollout,
                    "seeds ≡ 3 mod 4 are the rollout storms (seed {})",
                    s.seed
                );
            }
        }
        for s in rogue_sweep(0, 16, 0) {
            assert_eq!(s.victim, 0, "empty fleets pin the victim index");
        }
    }

    #[test]
    fn adversary_schedules_cover_scenarios_and_stay_in_bounds() {
        for start in [0u64, 2, 997] {
            let mut scenarios: Vec<AdversaryScenario> = (start..start + 5)
                .map(|seed| AdversarySchedule::from_seed(seed, 16))
                .map(|s| s.scenario)
                .collect();
            scenarios.sort();
            scenarios.dedup();
            assert_eq!(
                scenarios.len(),
                5,
                "seeds {start}..{} miss a scenario",
                start + 5
            );
        }
        for s in (0..120).map(|seed| AdversarySchedule::from_seed(seed, 16)) {
            assert_eq!(s, AdversarySchedule::from_seed(s.seed, 16), "deterministic");
            assert!(s.victim < 16, "seed {}", s.seed);
            assert!((0.0..=0.25).contains(&s.fabric_loss));
            assert!((0.0..=0.70).contains(&s.corrupt_prob));
            assert!((0.0..=0.80).contains(&s.dup_prob));
            assert!((0.0..=0.80).contains(&s.reorder_prob));
            assert!((2..=8).contains(&s.reorder_depth));
            assert!((800..=2400).contains(&s.heal_after_ms));
            assert!((8..=16).contains(&s.commands));
            match s.scenario {
                AdversaryScenario::CorruptStorm => assert!(s.corrupt_prob >= 0.30),
                AdversaryScenario::DupFlood => assert!(s.dup_prob >= 0.40),
                AdversaryScenario::ReorderChurn => assert!(s.reorder_prob >= 0.40),
                _ => {}
            }
            if s.seed % 5 == 4 {
                assert_eq!(
                    s.scenario,
                    AdversaryScenario::PartitionMidRollout,
                    "seeds ≡ 4 mod 5 are the mid-rollout partitions (seed {})",
                    s.seed
                );
            }
        }
        for s in (0..16).map(|seed| AdversarySchedule::from_seed(seed, 0)) {
            assert_eq!(s.victim, 0, "empty fleets pin the victim index");
        }
    }

    #[test]
    fn storage_schedules_cover_scenarios_and_stay_in_bounds() {
        for start in [0u64, 4, 997] {
            let mut scenarios: Vec<StorageScenario> = (start..start + 6)
                .map(|seed| StorageSchedule::from_seed(seed, 3))
                .map(|s| s.scenario)
                .collect();
            scenarios.sort();
            scenarios.dedup();
            assert_eq!(
                scenarios.len(),
                6,
                "seeds {start}..{} miss a scenario",
                start + 6
            );
        }
        for s in (0..120).map(|seed| StorageSchedule::from_seed(seed, 3)) {
            assert_eq!(s, StorageSchedule::from_seed(s.seed, 3), "deterministic");
            assert!(s.victim < 3, "seed {}", s.seed);
            assert!((0.0..=0.25).contains(&s.fabric_loss));
            assert!((2..=7).contains(&s.crash_at_write));
            assert!((200..=800).contains(&s.fsync_lag_us));
            match s.scenario {
                StorageScenario::NoSpaceDuringCompaction => {
                    let cap = s.snap_capacity.expect("nospace runs cap the disk");
                    assert!((24..64).contains(&cap), "seed {}", s.seed);
                }
                _ => assert_eq!(s.snap_capacity, None, "seed {}", s.seed),
            }
            if s.seed % 6 == 2 {
                assert_eq!(s.scenario, StorageScenario::BitRotInColdLog);
            }
            if s.seed % 6 == 3 {
                assert_eq!(s.scenario, StorageScenario::RotInSnapshot);
            }
        }
        for s in (0..16).map(|seed| StorageSchedule::from_seed(seed, 0)) {
            assert_eq!(s.victim, 0, "empty clusters pin the victim index");
        }
    }

    #[test]
    fn diverged_flags_digest_mismatch_and_unknown_nodes() {
        let (topo, sw, _hosts) = crate::topology::Topology::single_switch(2);
        let sim = Simulation::new(topo);
        let actual = sim.topo.node(sw).unwrap().device.config_digest();
        let mut intended = BTreeMap::new();
        intended.insert(sw, actual);
        assert!(diverged(&sim, &intended).is_empty(), "digest-equal");
        intended.insert(sw, actual ^ 1);
        assert_eq!(diverged(&sim, &intended), vec![sw], "mismatch flagged");
        let ghost = NodeId(9999);
        intended.insert(sw, actual);
        intended.insert(ghost, 0);
        assert_eq!(diverged(&sim, &intended), vec![ghost], "unknown diverges");
    }

    #[test]
    fn fault_plan_matches_the_victim() {
        let devices = [NodeId(4), NodeId(5), NodeId(6)];
        let mut seen_crash = false;
        for s in (0..16).map(|seed| ChaosSchedule::from_seed(seed, devices.len())) {
            let plan = s.fault_plan(&devices, SimTime::from_secs(1));
            match s.victim {
                Some(v) => {
                    assert_eq!(plan.events().len(), 2, "crash + restart");
                    assert_eq!(
                        plan.events()[0].kind,
                        crate::faults::FaultKind::DeviceCrash(devices[v])
                    );
                    seen_crash = true;
                }
                None => assert!(plan.events().is_empty()),
            }
        }
        assert!(seen_crash);
    }
}
