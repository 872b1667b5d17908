//! Canary rollouts: wave-by-wave program deployment with SLO guards,
//! gray-failure detection, and automatic rollback (experiment E15).
//!
//! The paper's runtime-programmable network only earns its keep if
//! *changing* the network is safe: a bad program pushed everywhere at
//! once is an outage, not an evolution. This module deploys a candidate
//! program in widening waves (canonically 1 → 2 → 4 → all devices), each
//! wave an ordinary journaled two-phase-commit transaction
//! ([`logged_transactional_reconfig`] — shadow + aligned atomic flip,
//! never in-place). After each wave flips, the orchestrator *soaks*: it
//! holds the rollout for a fixed window, feeding device heartbeats (with
//! data-path counters) to the [`FailureDetector`] and comparing live
//! metrics against the pre-rollout baseline. Four guards are evaluated,
//! most specific first:
//!
//! 1. **consistency** — every device's config digest is exactly the old
//!    XOR the new image, and nobody is stuck mid-reconfiguration;
//! 2. **drop-slope** — no flipped device's per-packet drop rate over the
//!    soak exceeds the gray threshold (catches the device-scoped bad
//!    build whose heartbeats stay punctual);
//! 3. **loss-delta** — fleet-wide loss rate minus the baseline's stays
//!    under the budget (catches uniform and slow-burn regressions: a
//!    per-device trickle too small for the slope guard crosses this one
//!    as waves widen exposure);
//! 4. **p99-delta** — fleet p99 latency minus the baseline's stays under
//!    the budget (catches pure compute inflation that loses nothing).
//!
//! A breach halts the rollout, journals a `RolloutAborted` record, and
//! rolls every flipped device back to its pre-rollout program — one
//! two-phase transaction per device (so one dead device cannot strand
//! its wave-mates on the candidate), shadow + flip, never in-place. A
//! device whose rollback transaction fails is **quarantined** by name in
//! the report — visibly diverged, never silently. The whole state
//! machine is journaled in the replicated intent log (`RolloutStarted`,
//! `WaveCommitted`, `RolloutAborted`, `RolloutCompleted`, `RolledBack`),
//! so a failed-over coordinator can finish an owed rollback with
//! [`resume_rollouts`].
//!
//! The seeded canary suite (experiment E15: which way the candidate is
//! bad, which device gets the gray build, how lossy the control fabric
//! is) lives with the other chaos suites in
//! `flexnet_bench::suites::canary`.

use std::collections::{BTreeMap, BTreeSet};

use crate::core::{FailureDetector, Health, HealthEvent};
use crate::retry::{LossyFabric, RetryPolicy};
use crate::txn::{logged_transactional_reconfig, LoggedTxnOutcome};
use crate::wal::{IntentRecord, ReplicatedIntentLog};
use flexnet_lang::diff::ProgramBundle;
use flexnet_sim::metrics::{WindowDelta, WindowStats};
use flexnet_sim::Simulation;
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};

/// Heartbeat period during soak windows (matches the failure detector's
/// default suspect window of a few missed 50 ms periods).
fn heartbeat_period() -> SimDuration {
    SimDuration::from_millis(50)
}

/// The SLO budgets a wave must stay inside during its soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloGuards {
    /// Fleet loss rate minus baseline loss rate, parts per million.
    pub loss_delta_ppm: u64,
    /// Fleet p99 latency minus baseline p99, nanoseconds.
    pub p99_delta_ns: u64,
    /// Per-device drop slope (dropped/processed over the soak), ppm —
    /// the gray-failure threshold.
    pub drop_slope_ppm: u64,
}

impl Default for SloGuards {
    /// 2% extra loss, 1 µs extra p99, 20% per-device drop slope.
    fn default() -> SloGuards {
        SloGuards {
            loss_delta_ppm: 20_000,
            p99_delta_ns: 1_000,
            drop_slope_ppm: 200_000,
        }
    }
}

/// A wave plan: which devices flip in which order, how long each wave
/// soaks, and the guard budgets.
#[derive(Debug, Clone)]
pub struct RolloutPlan {
    /// Disjoint device groups, in flip order.
    pub waves: Vec<Vec<NodeId>>,
    /// How long each wave (and the pre-rollout baseline) is observed.
    pub soak: SimDuration,
    /// The SLO budgets.
    pub guards: SloGuards,
}

impl RolloutPlan {
    /// The canonical doubling plan: cumulative exposure 1 → 2 → 4 → …
    /// until the whole fleet is covered (8 devices → waves of 1, 1, 2, 4).
    pub fn canonical(fleet: &[NodeId], soak: SimDuration, guards: SloGuards) -> RolloutPlan {
        let mut waves = Vec::new();
        let mut done = 0usize;
        let mut cumulative = 1usize;
        while done < fleet.len() {
            let upto = cumulative.min(fleet.len());
            waves.push(fleet[done..upto].to_vec());
            done = upto;
            cumulative *= 2;
        }
        RolloutPlan {
            waves,
            soak,
            guards,
        }
    }
}

/// Where the coordinator is killed mid-rollout (test instrumentation,
/// mirroring [`flexnet_sim::CrashPhase`] for single transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutCrash {
    /// Right after the given wave's `WaveCommitted` record is durable —
    /// flipped devices are live on the candidate, no verdict journaled.
    AfterWaveCommit(u32),
    /// Right after the `RolloutAborted` record is durable, before any
    /// rollback transaction runs — the rollback is owed to the log.
    AfterAbortRecord,
}

/// A guard breach: which budget, what was observed, what was allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloBreach {
    /// 1-based wave the breach was observed in.
    pub wave: u32,
    /// Guard label: `consistency`, `drop-slope`, `loss-delta`,
    /// `p99-delta`, `admission`, or `wave-txn`.
    pub guard: String,
    /// Observed value (ppm or ns, per the guard).
    pub observed: u64,
    /// The budget it exceeded.
    pub threshold: u64,
}

/// How a rollout ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Every wave committed and soaked clean.
    Completed,
    /// A guard breached in the given wave; every flipped device was
    /// driven back to its pre-rollout program (or quarantined).
    RolledBack {
        /// The wave the breach was observed in.
        wave: u32,
        /// The guard that fired.
        guard: String,
    },
    /// The coordinator died mid-rollout; [`resume_rollouts`] on the
    /// successor finishes the job from the journal.
    Crashed(RolloutCrash),
}

/// The orchestrator's account of one canary rollout.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Rollout id allocated from the intent log (shares the txn id space).
    pub rollout: u64,
    /// How it ended.
    pub outcome: RolloutOutcome,
    /// Waves that committed (and therefore flipped) before the end.
    pub waves_committed: u32,
    /// The per-wave transaction ids, in commit order.
    pub wave_txns: Vec<u64>,
    /// The pre-rollout baseline window.
    pub baseline: WindowStats,
    /// Per-wave soak deltas against the baseline, in wave order.
    pub deltas: Vec<(u32, WindowDelta)>,
    /// The breach that halted the rollout, if any.
    pub breach: Option<SloBreach>,
    /// Devices the failure detector graded [`Health::Degraded`] at any
    /// point during the rollout (punctual heartbeats, bad data path).
    pub degraded_seen: Vec<NodeId>,
    /// Abort decision → last rollback transaction finished.
    pub rollback_latency: Option<SimDuration>,
    /// Devices successfully driven back to their pre-rollout program.
    pub rolled_back: Vec<NodeId>,
    /// Devices whose rollback transaction failed: left on the candidate,
    /// named here — never silently diverged.
    pub quarantined: Vec<NodeId>,
    /// Control messages sent (attempts, including lost ones).
    pub messages: u32,
    /// When the orchestrator stopped working on the rollout.
    pub finished_at: SimTime,
}

/// Per-rollout pre-rollout targets, for rollback after a failover:
/// `rollout id → [(device, pre-rollout bundle)]`. Coordinators persist
/// this next to the log, exactly like the transaction-level
/// [`crate::recovery::TargetDirectory`].
pub type RolloutDirectory = BTreeMap<u64, Vec<(NodeId, ProgramBundle)>>;

/// Runs heartbeats over `[from, until]`: advances the simulation in
/// heartbeat steps and feeds every fleet device's liveness + data-path
/// counters to the detector.
fn soak_with_heartbeats(
    sim: &mut Simulation,
    fleet: &[NodeId],
    detector: &mut FailureDetector,
    from: SimTime,
    until: SimTime,
) {
    let mut t = from;
    while t < until {
        let next = t + heartbeat_period();
        t = if next > until { until } else { next };
        sim.run(t);
        for &d in fleet {
            // No fabric draw: the soak's heartbeats always arrive.
            if let Some(node) = sim.topo.node(d).filter(|n| n.device.is_up()) {
                detector.observe_device(&node.device, t);
            }
        }
    }
}

/// Drains a detector poll into `degraded_seen`, keeping it sorted-unique.
fn note_degraded(
    detector: &mut FailureDetector,
    now: SimTime,
    degraded_seen: &mut Vec<NodeId>,
) {
    for (node, event) in detector.poll(now) {
        if matches!(event, HealthEvent::Graded(Health::Degraded))
            && !degraded_seen.contains(&node)
        {
            degraded_seen.push(node);
        }
    }
    degraded_seen.sort_unstable();
}

/// Evaluates the guards for one soaked wave. Returns the window delta
/// (for the report) and the first breached guard, most specific first:
/// quarantine, consistency, drop-slope, loss-delta, p99-delta.
#[allow(clippy::too_many_arguments)]
fn evaluate_guards(
    sim: &Simulation,
    fleet: &[NodeId],
    flipped: &BTreeSet<NodeId>,
    old_digest: &BTreeMap<NodeId, u64>,
    new_digest: &BTreeMap<NodeId, u64>,
    pre_soak: &BTreeMap<NodeId, (u64, u64)>,
    guards: &SloGuards,
    baseline_window: (SimTime, SimTime),
    soak_window: (SimTime, SimTime),
) -> (WindowDelta, Option<(&'static str, u64, u64)>) {
    let delta = sim
        .metrics
        .window_delta(baseline_window, soak_window);

    // Quarantine: the most specific verdict there is — a device's own
    // sandbox already judged the program (trap storm) and swapped it
    // out. No slope arithmetic needed; one quarantined device condemns
    // the wave.
    for &d in fleet {
        let Some(node) = sim.topo.node(d) else { continue };
        if node.device.is_up() && node.device.quarantined() {
            return (delta, Some(("quarantine", d.0 as u64, 0)));
        }
    }

    // Consistency: old XOR new everywhere, nobody stuck mid-flip.
    let mut inconsistent = 0u64;
    for &d in fleet {
        let Some(node) = sim.topo.node(d) else {
            inconsistent += 1;
            continue;
        };
        let dev = &node.device;
        if !dev.is_up() {
            // A down device is a liveness problem for the detector, not
            // a version-consistency violation.
            continue;
        }
        let digest = dev.config_digest();
        let ok = if flipped.contains(&d) {
            new_digest.get(&d) == Some(&digest)
        } else {
            old_digest.get(&d) == Some(&digest)
        };
        if !ok || dev.reconfig_in_progress() {
            inconsistent += 1;
        }
    }
    if inconsistent > 0 {
        return (delta, Some(("consistency", inconsistent, 0)));
    }

    // Drop slope, per flipped device over this soak only.
    let mut worst_slope = 0u64;
    for &d in flipped {
        let Some(node) = sim.topo.node(d) else { continue };
        let stats = node.device.stats();
        let (pre_processed, pre_dropped) =
            pre_soak.get(&d).copied().unwrap_or((0, 0));
        let d_processed = stats.processed.saturating_sub(pre_processed);
        let d_dropped = stats.dropped.saturating_sub(pre_dropped);
        if d_processed >= 8 {
            let slope = d_dropped * 1_000_000 / d_processed;
            if slope > worst_slope {
                worst_slope = slope;
            }
        }
    }
    if worst_slope >= guards.drop_slope_ppm {
        return (delta, Some(("drop-slope", worst_slope, guards.drop_slope_ppm)));
    }

    if delta.loss_delta_ppm > guards.loss_delta_ppm as i64 {
        return (
            delta,
            Some(("loss-delta", delta.loss_delta_ppm as u64, guards.loss_delta_ppm)),
        );
    }
    if delta.p99_delta_ns > guards.p99_delta_ns as i64 {
        return (
            delta,
            Some(("p99-delta", delta.p99_delta_ns as u64, guards.p99_delta_ns)),
        );
    }
    (delta, None)
}

/// Rolls `devices` (already in rollback order) back to their pre-rollout
/// bundles, one journaled transaction per device — shadow + flip, never
/// in-place, and one unreachable device cannot strand the others. A
/// device whose transaction does not commit is quarantined.
fn rollback_devices(
    sim: &mut Simulation,
    devices: &[NodeId],
    baseline_of: &BTreeMap<NodeId, ProgramBundle>,
    mut t: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
    log: &mut ReplicatedIntentLog,
) -> (SimTime, u32, Vec<NodeId>, Vec<NodeId>) {
    let mut messages = 0u32;
    let mut rolled_back = Vec::new();
    let mut quarantined = Vec::new();
    for &d in devices {
        let Some(bundle) = baseline_of.get(&d) else {
            quarantined.push(d);
            continue;
        };
        // A crashed coordinator may have left this device with its wave
        // flip armed but never materialized; settle it so the rollback's
        // prepare doesn't see a reconfiguration in progress.
        if let Some(node) = sim.topo.node_mut(d) {
            node.device.tick(t);
        }
        // Remedial: no health gate — a breached or gray device must be
        // rollback-able, or quarantine would be forever.
        match logged_transactional_reconfig(
            sim,
            &[(d, bundle.clone())],
            t,
            fabric,
            policy,
            log,
            None,
            None,
            None,
        ) {
            Ok(rep) => {
                messages += rep.messages;
                let mut done = rep.finished_at;
                if let Some(commit_at) = rep.commit_at {
                    if commit_at > done {
                        done = commit_at;
                    }
                }
                if done > t {
                    t = done;
                }
                if rep.outcome == LoggedTxnOutcome::Committed {
                    rolled_back.push(d);
                } else {
                    quarantined.push(d);
                }
            }
            Err(_) => quarantined.push(d),
        }
    }
    // Materialize the rollback flips so digest probes see them.
    t += heartbeat_period();
    for &d in devices {
        if let Some(node) = sim.topo.node_mut(d) {
            node.device.tick(t);
        }
    }
    (t, messages, rolled_back, quarantined)
}

/// Runs a canary rollout of `candidate` over `plan`'s waves.
///
/// `baseline` names each device's pre-rollout bundle (the rollback
/// target); `candidate` names what each device should run afterwards —
/// per-device, so a device-scoped bad build is expressible. Traffic must
/// already be loaded into `sim`; the orchestrator advances simulated
/// time itself (baseline soak, then flip + soak per wave).
///
/// The first `plan.soak` window starting at `now` measures the
/// pre-rollout baseline; every wave's soak is judged against it. Wave
/// transactions are health-gated through `detector` (a degraded device
/// is refused admission → the rollout aborts); rollback transactions are
/// not. `crash`, when set, kills the coordinator at that point,
/// returning [`RolloutOutcome::Crashed`] with the journal exactly as a
/// real death would leave it.
#[allow(clippy::too_many_arguments)]
pub fn run_rollout(
    sim: &mut Simulation,
    plan: &RolloutPlan,
    baseline: &[(NodeId, ProgramBundle)],
    candidate: &[(NodeId, ProgramBundle)],
    now: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
    log: &mut ReplicatedIntentLog,
    detector: &mut FailureDetector,
    crash: Option<RolloutCrash>,
) -> Result<RolloutReport> {
    let fleet: Vec<NodeId> = plan.waves.iter().flatten().copied().collect();
    let baseline_of: BTreeMap<NodeId, ProgramBundle> = baseline.iter().cloned().collect();
    let candidate_of: BTreeMap<NodeId, ProgramBundle> = candidate.iter().cloned().collect();
    for &d in &fleet {
        if !candidate_of.contains_key(&d) || !baseline_of.contains_key(&d) {
            return Err(FlexError::NotFound(format!(
                "rollout: no baseline/candidate bundle for device {d}"
            )));
        }
    }

    // Pre-rollout baseline soak: establish the SLO reference and give
    // the detector a first judgement of every device.
    let mut degraded_seen: Vec<NodeId> = Vec::new();
    let baseline_window = (now, now + plan.soak);
    soak_with_heartbeats(sim, &fleet, detector, baseline_window.0, baseline_window.1);
    note_degraded(detector, baseline_window.1, &mut degraded_seen);
    let baseline_stats = sim.metrics.window_stats(baseline_window.0, baseline_window.1);
    let old_digest: BTreeMap<NodeId, u64> = fleet
        .iter()
        .filter_map(|&d| sim.topo.node(d).map(|n| (d, n.device.config_digest())))
        .collect();

    let rollout = log.next_txn_id();
    log.append(&IntentRecord::RolloutStarted {
        rollout,
        waves: plan
            .waves
            .iter()
            .map(|w| w.iter().map(|n| n.0 as u64).collect())
            .collect(),
    })?;

    // Every exit builds its report here; the one that unwound fills in
    // the rollback fields.
    let report = |outcome, wave_txns: Vec<u64>, deltas, breach, degraded_seen, messages, t| {
        RolloutReport {
            rollout,
            outcome,
            waves_committed: wave_txns.len() as u32,
            wave_txns,
            baseline: baseline_stats,
            deltas,
            breach,
            degraded_seen,
            rollback_latency: None,
            rolled_back: Vec::new(),
            quarantined: Vec::new(),
            messages,
            finished_at: t,
        }
    };

    let mut t = baseline_window.1;
    let mut messages = 0u32;
    let mut wave_txns: Vec<u64> = Vec::new();
    let mut deltas: Vec<(u32, WindowDelta)> = Vec::new();
    let mut flipped: BTreeSet<NodeId> = BTreeSet::new();
    let mut flip_order: Vec<NodeId> = Vec::new();
    let mut new_digest: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut breach: Option<SloBreach> = None;

    for (i, wave) in plan.waves.iter().enumerate() {
        let wave_no = (i + 1) as u32;
        let targets: Vec<(NodeId, ProgramBundle)> = wave
            .iter()
            .map(|d| (*d, candidate_of[d].clone()))
            .collect();
        let rep = match logged_transactional_reconfig(
            sim, &targets, t, fabric, policy, log, None, None,
            Some(detector),
        ) {
            Ok(rep) => rep,
            Err(FlexError::DegradedDevice { node, .. }) => {
                // Health-gated admission refused the wave: halt and roll
                // back what already flipped.
                breach = Some(SloBreach {
                    wave: wave_no,
                    guard: "admission".into(),
                    observed: node,
                    threshold: 0,
                });
                break;
            }
            Err(e) => return Err(e),
        };
        messages += rep.messages;
        if rep.finished_at > t {
            t = rep.finished_at;
        }
        if rep.outcome != LoggedTxnOutcome::Committed {
            // The wave's own 2PC aborted (and rolled its devices back):
            // treat as a breach of the rollout, not a silent retry.
            breach = Some(SloBreach {
                wave: wave_no,
                guard: "wave-txn".into(),
                observed: rep.txn,
                threshold: 0,
            });
            break;
        }
        log.append(&IntentRecord::WaveCommitted {
            rollout,
            wave: wave_no,
            txn: rep.txn,
        })?;
        wave_txns.push(rep.txn);
        flipped.extend(wave.iter().copied());
        flip_order.extend(wave.iter().copied());
        if crash == Some(RolloutCrash::AfterWaveCommit(wave_no)) {
            let outcome = RolloutOutcome::Crashed(RolloutCrash::AfterWaveCommit(wave_no));
            return Ok(report(outcome, wave_txns, deltas, None, degraded_seen, messages, t));
        }

        // Let the aligned flip land, then record the wave's new digests.
        let mut settle = rep.commit_at.unwrap_or(t);
        if t > settle {
            settle = t;
        }
        settle += heartbeat_period();
        sim.run(settle);
        for &d in wave {
            if let Some(node) = sim.topo.node_mut(d) {
                node.device.tick(settle);
                new_digest.insert(d, node.device.config_digest());
            }
        }
        // Per-device counter snapshot: the drop slope is judged over
        // this soak alone, not device lifetime.
        let pre_soak: BTreeMap<NodeId, (u64, u64)> = flipped
            .iter()
            .filter_map(|&d| {
                sim.topo.node(d).map(|n| {
                    let s = n.device.stats();
                    (d, (s.processed, s.dropped))
                })
            })
            .collect();

        let soak_window = (settle, settle + plan.soak);
        soak_with_heartbeats(sim, &fleet, detector, soak_window.0, soak_window.1);
        note_degraded(detector, soak_window.1, &mut degraded_seen);
        t = soak_window.1;

        let (delta, verdict) = evaluate_guards(
            sim,
            &fleet,
            &flipped,
            &old_digest,
            &new_digest,
            &pre_soak,
            &plan.guards,
            baseline_window,
            soak_window,
        );
        deltas.push((wave_no, delta));
        if let Some((guard, observed, threshold)) = verdict {
            breach = Some(SloBreach {
                wave: wave_no,
                guard: guard.into(),
                observed,
                threshold,
            });
            break;
        }
    }

    let Some(breach) = breach else {
        // Every wave soaked clean.
        log.append(&IntentRecord::RolloutCompleted { rollout })?;
        let outcome = RolloutOutcome::Completed;
        return Ok(report(outcome, wave_txns, deltas, None, degraded_seen, messages, t));
    };

    // Halt: journal the verdict, then unwind every flipped device in
    // reverse flip order.
    log.append(&IntentRecord::RolloutAborted {
        rollout,
        wave: breach.wave,
        guard: breach.guard.clone(),
    })?;
    if crash == Some(RolloutCrash::AfterAbortRecord) {
        let outcome = RolloutOutcome::Crashed(RolloutCrash::AfterAbortRecord);
        return Ok(report(outcome, wave_txns, deltas, Some(breach), degraded_seen, messages, t));
    }
    let abort_at = t;
    flip_order.reverse();
    let (t, rb_messages, rolled_back, quarantined) =
        rollback_devices(sim, &flip_order, &baseline_of, t, fabric, policy, log);
    messages += rb_messages;
    log.append(&IntentRecord::RolledBack { rollout })?;
    note_degraded(detector, t, &mut degraded_seen);

    let outcome = RolloutOutcome::RolledBack {
        wave: breach.wave,
        guard: breach.guard.clone(),
    };
    Ok(RolloutReport {
        rollback_latency: Some(t.saturating_since(abort_at)),
        rolled_back,
        quarantined,
        ..report(outcome, wave_txns, deltas, Some(breach), degraded_seen, messages, t)
    })
}

/// One rollout obligation the successor coordinator settled.
#[derive(Debug, Clone)]
pub struct RolloutResume {
    /// The rollout id.
    pub rollout: u64,
    /// Whether this pass had to journal the abort itself (the old
    /// coordinator died mid-rollout with no verdict on record).
    pub aborted_now: bool,
    /// Devices driven back to their pre-rollout program.
    pub rolled_back: Vec<NodeId>,
    /// Devices whose rollback failed — left on the candidate, by name.
    pub quarantined: Vec<NodeId>,
    /// Control messages sent.
    pub messages: u32,
    /// When this obligation was settled.
    pub finished_at: SimTime,
}

/// Scans the intent log for rollouts the dead coordinator left
/// unfinished and settles them.
///
/// Two obligations exist: a rollout with waves committed but no terminal
/// record (the coordinator died mid-soak — the candidate is unproven, so
/// the conservative resolution is abort + rollback), and a rollout whose
/// `RolloutAborted` is on record but whose `RolledBack` is not (the
/// rollback itself is owed). Both end with every flipped device driven
/// back to the `baselines` directory's bundle and a terminal
/// `RolledBack` record. Individual wave *transactions* left in doubt are
/// [`crate::recovery::recover`]'s job and must be resolved first.
///
/// Idempotent: a second pass finds only terminal rollouts and does
/// nothing.
pub fn resume_rollouts(
    sim: &mut Simulation,
    log: &mut ReplicatedIntentLog,
    baselines: &RolloutDirectory,
    now: SimTime,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
) -> Result<Vec<RolloutResume>> {
    struct Owed {
        waves: Vec<Vec<u64>>,
        committed: u32,
        aborted: bool,
    }
    // Only rollouts the log leaves open owe anything, and the replay
    // state keeps exactly their histories.
    let owed: Vec<(u64, Owed)> = {
        let replay = log.replay()?;
        replay
            .open()
            .filter_map(|rollout| {
                let mut state: Option<Owed> = None;
                for rec in replay.history(rollout) {
                    match (rec, &mut state) {
                        (IntentRecord::RolloutStarted { waves, .. }, _) => {
                            state = Some(Owed {
                                waves: waves.clone(),
                                committed: 0,
                                aborted: false,
                            });
                        }
                        (IntentRecord::WaveCommitted { wave, .. }, Some(s)) => {
                            s.committed = s.committed.max(*wave);
                        }
                        (IntentRecord::RolloutAborted { .. }, Some(s)) => s.aborted = true,
                        _ => {}
                    }
                }
                Some((rollout, state?))
            })
            .collect()
    };

    let mut resumed = Vec::new();
    let mut t = now;
    for (rollout, state) in owed {
        let aborted_now = !state.aborted;
        if aborted_now {
            // No verdict ever journaled: the candidate died unproven.
            log.append(&IntentRecord::RolloutAborted {
                rollout,
                wave: state.committed,
                guard: "coordinator-failover".into(),
            })?;
        }
        let flipped: Vec<NodeId> = state
            .waves
            .iter()
            .take(state.committed as usize)
            .flatten()
            .rev()
            .map(|&id| NodeId(id as u32))
            .collect();
        let baseline_of: BTreeMap<NodeId, ProgramBundle> = baselines
            .get(&rollout)
            .map(|ts| ts.iter().cloned().collect())
            .unwrap_or_default();
        let (done, messages, rolled_back, quarantined) =
            rollback_devices(sim, &flipped, &baseline_of, t, fabric, policy, log);
        t = done;
        log.append(&IntentRecord::RolledBack { rollout })?;
        resumed.push(RolloutResume {
            rollout,
            aborted_now,
            rolled_back,
            quarantined,
            messages,
            finished_at: t,
        });
    }
    Ok(resumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::parser::parse_source;
    use flexnet_sim::{generate, FlowSpec, Topology};

    /// Packets per second per lane.
    const LANE_PPS: u64 = 500;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).expect("test program parses");
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().expect("one program"),
        }
    }

    /// The pre-rollout program: plain forwarding down the lane.
    fn lane_base() -> ProgramBundle {
        bundle("program lane kind any { handler ingress(pkt) { forward(1); } }")
    }

    /// The correct candidate: forwarding plus a counter.
    fn lane_good() -> ProgramBundle {
        bundle(
            "program lane kind any {
               counter upgraded;
               handler ingress(pkt) { count(upgraded); forward(1); }
             }",
        )
    }

    /// Uniform drop: every packet dies.
    fn lane_drop_all() -> ProgramBundle {
        bundle("program lane kind any { handler ingress(pkt) { drop(); } }")
    }

    /// A reliable-control-plane environment over `n` lanes, with the
    /// baseline program installed and traffic loaded.
    fn lanes_env(
        n: usize,
        seconds: u64,
    ) -> (Simulation, Vec<NodeId>, ReplicatedIntentLog, LossyFabric, RetryPolicy) {
        let (topo, switches, lanes) = Topology::parallel_lanes(n);
        let mut sim = Simulation::new(topo);
        for &d in &switches {
            sim.topo
                .node_mut(d)
                .unwrap()
                .device
                .install(lane_base())
                .unwrap();
        }
        let flows: Vec<FlowSpec> = lanes
            .iter()
            .map(|&(src, dst)| {
                FlowSpec::udp_cbr(
                    src,
                    dst,
                    LANE_PPS,
                    SimTime::from_millis(500),
                    SimDuration::from_millis(seconds * 1000 - 500),
                )
            })
            .collect();
        sim.load(generate(&flows, 7));
        let log = ReplicatedIntentLog::new(3, 41).unwrap();
        let fabric = LossyFabric::reliable();
        let policy = RetryPolicy::default();
        (sim, switches, log, fabric, policy)
    }

    fn pairs(switches: &[NodeId], bundle: ProgramBundle) -> Vec<(NodeId, ProgramBundle)> {
        switches.iter().map(|&d| (d, bundle.clone())).collect()
    }

    #[test]
    fn canonical_plan_doubles_exposure() {
        let fleet: Vec<NodeId> = (0..8).map(NodeId).collect();
        let plan =
            RolloutPlan::canonical(&fleet, SimDuration::from_secs(1), SloGuards::default());
        let sizes: Vec<usize> = plan.waves.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1, 1, 2, 4]);
        let flat: Vec<NodeId> = plan.waves.iter().flatten().copied().collect();
        assert_eq!(flat, fleet, "every device flips exactly once");
        let tiny = RolloutPlan::canonical(&fleet[..3], SimDuration::from_secs(1), SloGuards::default());
        assert_eq!(tiny.waves.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 1, 1]);
    }

    #[test]
    fn degraded_device_is_excluded_from_wave_admission() {
        // Lane 1's device is gray from the start: its *baseline* program
        // already drops everything, so the baseline soak grades it
        // Degraded. The rollout must refuse the wave containing it and
        // roll wave 1 back — the candidate never reaches a sick device.
        let (mut sim, switches, mut log, mut fabric, policy) = lanes_env(4, 8);
        sim.topo
            .node_mut(switches[1])
            .unwrap()
            .device
            .install(lane_drop_all())
            .unwrap();
        let mut baseline = pairs(&switches, lane_base());
        baseline[1].1 = lane_drop_all();
        let candidate = pairs(&switches, lane_good());
        let plan = RolloutPlan::canonical(
            &switches,
            SimDuration::from_secs(1),
            SloGuards::default(),
        );
        let mut detector = FailureDetector::default();
        let report = run_rollout(
            &mut sim,
            &plan,
            &baseline,
            &candidate,
            SimTime::from_secs(1),
            &mut fabric,
            &policy,
            &mut log,
            &mut detector,
            None,
        )
        .unwrap();
        assert_eq!(
            report.outcome,
            RolloutOutcome::RolledBack {
                wave: 2,
                guard: "admission".into()
            },
            "the sick device sits in wave 2"
        );
        assert!(report.degraded_seen.contains(&switches[1]));
        assert_eq!(report.rolled_back, vec![switches[0]], "wave 1 unwound");
        // Wave 1's device is back on the baseline image.
        assert_eq!(
            sim.topo.node(switches[0]).unwrap().device.program().unwrap().bundle(),
            &lane_base()
        );
    }

    #[test]
    fn failed_rollback_quarantines_the_device_not_silently_diverges() {
        // A uniform-drop rollout breaches in wave 1; the coordinator dies
        // right after journaling the abort. Before the successor resumes,
        // the flipped device crashes — its rollback transaction cannot
        // prepare. It must come out *quarantined by name*, while the log
        // still closes with RolledBack.
        let (mut sim, switches, mut log, mut fabric, policy) = lanes_env(4, 8);
        let baseline = pairs(&switches, lane_base());
        let candidate = pairs(&switches, lane_drop_all());
        let plan = RolloutPlan::canonical(
            &switches,
            SimDuration::from_secs(1),
            SloGuards::default(),
        );
        let mut detector = FailureDetector::default();
        let report = run_rollout(
            &mut sim,
            &plan,
            &baseline,
            &candidate,
            SimTime::from_secs(1),
            &mut fabric,
            &policy,
            &mut log,
            &mut detector,
            Some(RolloutCrash::AfterAbortRecord),
        )
        .unwrap();
        assert_eq!(
            report.outcome,
            RolloutOutcome::Crashed(RolloutCrash::AfterAbortRecord)
        );
        assert_eq!(report.waves_committed, 1);

        // Failover; the flipped device dies before the rollback reaches it.
        log.kill_leader().unwrap();
        log.elect().unwrap();
        sim.topo
            .node_mut(switches[0])
            .unwrap()
            .device
            .crash(report.finished_at);
        let mut directory = RolloutDirectory::new();
        directory.insert(report.rollout, baseline.clone());
        let resumed = resume_rollouts(
            &mut sim,
            &mut log,
            &directory,
            report.finished_at + SimDuration::from_secs(1),
            &mut fabric,
            &policy,
        )
        .unwrap();
        assert_eq!(resumed.len(), 1);
        assert!(!resumed[0].aborted_now, "the abort was already on record");
        assert_eq!(
            resumed[0].quarantined,
            vec![switches[0]],
            "the dead device is named, not silently diverged"
        );
        assert!(resumed[0].rolled_back.is_empty(), "nothing else had flipped");
        // The log is terminal; a second resume pass is a no-op.
        let again = resume_rollouts(
            &mut sim,
            &mut log,
            &directory,
            resumed[0].finished_at,
            &mut fabric,
            &policy,
        )
        .unwrap();
        assert!(again.is_empty(), "resume is idempotent");
    }

    #[test]
    fn failed_over_coordinator_rolls_back_an_unproven_rollout() {
        // The coordinator dies right after wave 2's commit record, with
        // no verdict journaled. The successor must conservatively abort
        // and drive both flipped devices back to the baseline.
        let (mut sim, switches, mut log, mut fabric, policy) = lanes_env(4, 8);
        let baseline = pairs(&switches, lane_base());
        let candidate = pairs(&switches, lane_good());
        let plan = RolloutPlan::canonical(
            &switches,
            SimDuration::from_secs(1),
            SloGuards::default(),
        );
        let mut detector = FailureDetector::default();
        let report = run_rollout(
            &mut sim,
            &plan,
            &baseline,
            &candidate,
            SimTime::from_secs(1),
            &mut fabric,
            &policy,
            &mut log,
            &mut detector,
            Some(RolloutCrash::AfterWaveCommit(2)),
        )
        .unwrap();
        assert_eq!(report.waves_committed, 2);

        log.kill_leader().unwrap();
        log.elect().unwrap();
        let mut directory = RolloutDirectory::new();
        directory.insert(report.rollout, baseline.clone());
        let resumed = resume_rollouts(
            &mut sim,
            &mut log,
            &directory,
            report.finished_at + SimDuration::from_secs(1),
            &mut fabric,
            &policy,
        )
        .unwrap();
        assert_eq!(resumed.len(), 1);
        assert!(resumed[0].aborted_now, "the successor journals the verdict");
        assert_eq!(
            resumed[0].rolled_back,
            vec![switches[1], switches[0]],
            "reverse flip order"
        );
        assert!(resumed[0].quarantined.is_empty());
        for &d in &switches[..2] {
            assert_eq!(
                sim.topo.node(d).unwrap().device.program().unwrap().bundle(),
                &lane_base(),
                "{d} back on the baseline"
            );
        }
        // The journal closed with an abort + rollback pair.
        let records = log.records().unwrap();
        assert!(records.iter().any(|r| matches!(
            r,
            IntentRecord::RolloutAborted { rollout, guard, .. }
                if *rollout == report.rollout && guard == "coordinator-failover"
        )));
        assert!(records
            .iter()
            .any(|r| matches!(r, IntentRecord::RolledBack { rollout } if *rollout == report.rollout)));
    }
}
