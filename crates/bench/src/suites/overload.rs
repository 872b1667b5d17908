//! E17 — the overload-protection layer end to end: the seeded
//! metastability suite.
//!
//! A control plane whose every subsystem *retries harder* when something
//! fails is the recipe for **metastable failure**: a transient fault (mass
//! restart, fabric brownout, telemetry burst, slow controller) pushes
//! offered control-plane load over service capacity; queueing delay
//! crosses the clients' timeout; from then on every request the
//! controller serves is one its requester has already given up on — *pure
//! waste* — while the requesters' retries multiply arrivals. The overload
//! sustains itself after the original fault clears. This suite reproduces
//! that trap deterministically and shows the protection layer breaking
//! it:
//!
//! - **retry budgets** ([`RetryBudget`]) cap retries at a fraction of
//!   successes, so a storm self-extinguishes instead of multiplying
//!   arrivals;
//! - **decorrelated jitter** desynchronizes the retries that do run;
//! - **circuit breakers** ([`BreakerSet`]) stop burning service capacity
//!   on destinations that are down;
//! - **priority admission + deadline shedding** ([`AdmissionQueue`]) keep
//!   remedial/resync work ahead of telemetry floods and discard expired
//!   work *unserved* — shedding a stale item costs a counter bump,
//!   serving it costs capacity;
//! - **the global resync token bucket** ([`TokenBucket`]) paces a
//!   mass-restart stampede into an orderly queue;
//! - **graceful degradation** ([`OverloadGovernor`]) pauses new rollouts
//!   and widens heartbeat cadence + detector thresholds under sustained
//!   shed, instead of dropping failure detection.
//!
//! [`run`] executes one seeded scenario on one [`Arm`]; the acceptance
//! criterion is that the protected controller recovers within a bounded
//! window after the fault clears in *every* seed, while the ablated one —
//! the same controller with every mechanism above off — demonstrably
//! stays collapsed on pinned seeds.
//!
//! ## The model
//!
//! Sixteen devices submit telemetry reports to one controller on a
//! fixed cadence. Each report is a *request* with a client timeout: an
//! unacknowledged report is retransmitted every timeout (a new *copy*
//! in the controller's queue), and a response to a copy older than the
//! timeout is discarded by the requester — serving it achieves nothing.
//! The controller serves work from its admission queue at a fixed
//! capacity (work units per tick); resyncs cost more than telemetry.
//! Divergence (wiped state after a restart) is tracked as a digest
//! mismatch the [`FailureDetector`] observes on heartbeats; a served
//! resync converges the device. All randomness (fabric loss, jitter)
//! derives from the seed; two runs of one seed are identical.

use crate::sweep::{col, count, total, Arm, Oracle, Report, Suite, Summary};
use flexnet_controller::{
    AdmissionQueue, BreakerSet, ControllerMode, FailureDetector, HealthEvent, OverloadGovernor,
    RetryBudget, TokenBucket, WorkClass,
};
use flexnet_sim::{mix, OverloadScenario, OverloadSchedule};
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Simulation tick.
const TICK: SimDuration = SimDuration::from_millis(5);
/// Nominal telemetry/heartbeat cadence per device.
const CADENCE: SimDuration = SimDuration::from_millis(50);
/// Client-side timeout: an unacked report is retransmitted this often,
/// and a response to a copy older than this is discarded.
const CLIENT_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Devices in the fleet.
const FLEET: usize = 16;
/// Per-device unacked-report buffer (real senders bound their memory).
const PENDING_CAP: usize = 8;
/// Controller service capacity, milli-units per tick: 0.5 units/ms.
/// Nominal offered load (16 devices / 50 ms, 1 unit each) is 0.32
/// units/ms — 64% utilization, healthy headroom. The worst-case retry
/// flood (16 devices × 8 buffered reports / 100 ms) is 1.28 units/ms —
/// 2.5× capacity, which is what makes unprotected collapse
/// self-sustaining *after* a fault clears.
const CAPACITY_MU: u64 = 2500;
/// Service costs, milli-units.
const COST_TELEMETRY: u64 = 1000;
const COST_ROLLOUT: u64 = 2000;
const COST_RESYNC: u64 = 4000;
/// Bounded admission-queue capacity (protected runs).
const QUEUE_CAP: usize = 64;
/// Mass-restart downtime before victims come back (state wiped).
const RESTART_DOWNTIME: SimDuration = SimDuration::from_millis(250);
/// Rollout attempts arrive this often.
const ROLLOUT_PERIOD: SimDuration = SimDuration::from_millis(500);
/// The fault is injected at this instant.
const FAULT_AT: SimTime = SimTime::from_millis(1_000);
/// Bounded recovery window after the fault clears (the acceptance
/// criterion for protected runs).
const RECOVERY_WINDOW: SimDuration = SimDuration::from_millis(2_000);
/// Extended observation window for unprotected runs — collapse must be
/// *sustained*, not just slow.
const COLLAPSE_WINDOW: SimDuration = SimDuration::from_millis(4_000);
/// Trailing window for the goodput criterion.
const GOODPUT_WINDOW: SimDuration = SimDuration::from_millis(500);

/// Everything one overload run observed.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// The schedule the seed expanded to.
    pub schedule: OverloadSchedule,
    /// The arm the run executed on.
    pub arm: Arm,
    /// Whether the controller reached steady state (queue drained, all
    /// devices digest-converged, goodput restored, mode Normal) within
    /// `RECOVERY_WINDOW` of the fault clearing.
    pub recovered: bool,
    /// Milliseconds from fault-clear to steady state, when recovered.
    pub recovery_ms: Option<u64>,
    /// Whether the run was still failing the steady-state check at the
    /// end of the *extended* observation window with trailing goodput
    /// near zero — sustained collapse, the metastable signature.
    pub collapsed: bool,
    /// High-water mark of the admission queue.
    pub peak_queue: usize,
    /// Items shed for capacity (evicted or refused at the door).
    pub shed_capacity: u64,
    /// Items shed expired at pop time (timeout-amplification avoided).
    pub shed_expired: u64,
    /// Expired items *served* (unprotected runs; capacity burned for
    /// responses nobody is waiting for).
    pub stale_served: u64,
    /// Reports acknowledged fresh (the run's goodput).
    pub goodput: u64,
    /// Retransmissions refused by the retry budget.
    pub budget_refused: u64,
    /// Circuit-breaker opens on the resync path.
    pub breaker_opens: u64,
    /// Resync admissions denied (and requeued) by the global bucket.
    pub bucket_denied: u64,
    /// Times the governor entered Degraded.
    pub degraded_entered: u64,
    /// Rollout attempts refused while Degraded.
    pub rollouts_paused: u64,
    /// Devices still digest-diverged at the end of the run.
    pub diverged_at_end: usize,
    /// Invariant violations (protected runs must have none).
    pub violations: Vec<String>,
}

impl Report for OverloadReport {
    fn failures(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// One unacknowledged telemetry report on a device.
#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    /// Next retransmission instant.
    next_retry: SimTime,
    /// Previous retransmission gap (decorrelated jitter state).
    prev_gap: SimDuration,
}

/// One device in the harness.
#[derive(Debug)]
struct DeviceState {
    up: bool,
    boot_id: u64,
    /// Live configuration digest; `intended` after a resync.
    digest: u64,
    intended: u64,
    restart_at: Option<SimTime>,
    /// Unacked reports, oldest first, capped at [`PENDING_CAP`].
    pending: VecDeque<Pending>,
    next_report: SimTime,
    next_report_id: u64,
}

/// What a queued work item actually is (the queue itself only knows
/// class and deadline; the harness keeps the payload).
#[derive(Debug, Clone, Copy)]
enum Work {
    /// One copy of a device's report. Fresh (younger than the client
    /// timeout) completes the request; stale is waste.
    Telemetry {
        device: usize,
        report_id: u64,
        submitted: SimTime,
    },
    /// Reconcile one diverged device (costs [`COST_RESYNC`]).
    Resync { device: usize },
    /// A planned-change attempt (pure optional load).
    Rollout,
}

impl Work {
    fn cost(&self) -> u64 {
        match self {
            Work::Telemetry { .. } => COST_TELEMETRY,
            Work::Resync { .. } => COST_RESYNC,
            Work::Rollout => COST_ROLLOUT,
        }
    }
}

fn node_of(device: usize) -> NodeId {
    NodeId(device as u32 + 1)
}

/// Runs the full overload scenario for one seed on `arm`.
///
/// Deterministic: the same `(seed, arm)` pair always produces the
/// identical report. Protected-run invariant violations come back as
/// strings; an ablated run records collapse in
/// [`OverloadReport::collapsed`] without calling it a violation —
/// collapse is that arm's *expected* behaviour.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, arm: Arm) -> Result<OverloadReport> {
    let schedule = OverloadSchedule::from_seed(seed, FLEET);
    let protected = arm == Arm::Protected;
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x0E17_0E17));

    // -- actors ----------------------------------------------------------
    let mut devices: Vec<DeviceState> = (0..FLEET)
        .map(|d| DeviceState {
            up: true,
            boot_id: 1,
            digest: mix(seed ^ d as u64),
            intended: mix(seed ^ d as u64),
            restart_at: None,
            pending: VecDeque::new(),
            next_report: SimTime::ZERO + CADENCE,
            next_report_id: 1,
        })
        .collect();
    let mut queue = if protected {
        AdmissionQueue::bounded(QUEUE_CAP)
    } else {
        AdmissionQueue::unbounded()
    };
    let mut ledger: BTreeMap<u64, Work> = BTreeMap::new();
    let mut detector = FailureDetector::default();
    let mut governor = OverloadGovernor::default();
    let mut budget = RetryBudget::default();
    let mut breakers = BreakerSet::default();
    let mut bucket = TokenBucket::new(SimDuration::from_millis(25), 8);
    // Resyncs waiting on the bucket (or a retry after a failed attempt):
    // (not-before instant, device index).
    let mut resync_waiting: Vec<(SimTime, usize)> = Vec::new();
    let mut resync_pending: BTreeSet<usize> = BTreeSet::new();
    // Head-of-line item popped but not yet affordable this tick.
    let mut carry: Option<(SimTime, Work)> = None;

    // -- counters --------------------------------------------------------
    let mut stale_served = 0u64;
    let mut goodput = 0u64;
    let mut rollouts_paused = 0u64;
    let mut degraded_entered = 0u64;
    let mut goodput_ring: VecDeque<(SimTime, u64)> = VecDeque::new();
    let mut recovered_at: Option<SimTime> = None;
    let mut violations: Vec<String> = Vec::new();

    let fault_clear = FAULT_AT + SimDuration::from_millis(schedule.fault_ms);
    let observe_window = if protected {
        RECOVERY_WINDOW
    } else {
        COLLAPSE_WINDOW
    };
    let t_end = fault_clear + observe_window;
    let mass_restart = schedule.scenario == OverloadScenario::MassRestart;

    let mut budget_mu = 0u64;
    let mut next_rollout = SimTime::ZERO + ROLLOUT_PERIOD;
    let mut t = SimTime::ZERO;
    while t < t_end {
        t += TICK;
        let in_fault = t >= FAULT_AT && t < fault_clear;

        // -- scenario fault effects ------------------------------------
        if mass_restart && t >= FAULT_AT && t.saturating_since(FAULT_AT) < TICK {
            for &v in &schedule.victims {
                devices[v].up = false;
                devices[v].restart_at = Some(FAULT_AT + RESTART_DOWNTIME);
                devices[v].pending.clear();
            }
        }
        for (d, dev) in devices.iter_mut().enumerate() {
            if let Some(at) = dev.restart_at {
                if t >= at {
                    dev.up = true;
                    dev.boot_id += 1;
                    // The restart wiped runtime state: diverged until a
                    // resync converges it.
                    dev.digest = mix(seed ^ 0xBAD0 ^ (d as u64) ^ dev.boot_id);
                    dev.restart_at = None;
                    dev.next_report = t;
                }
            }
        }
        let fabric_loss = if in_fault && schedule.scenario == OverloadScenario::Brownout {
            schedule.brownout_loss
        } else {
            schedule.fabric_loss
        };
        let capacity_mu = if in_fault && schedule.scenario == OverloadScenario::SlowController {
            CAPACITY_MU / u64::from(schedule.slow_factor)
        } else {
            CAPACITY_MU
        };
        let base_cadence = if in_fault && schedule.scenario == OverloadScenario::HeartbeatBurst {
            SimDuration::from_nanos(CADENCE.as_nanos() / u64::from(schedule.burst_factor))
        } else {
            CADENCE
        };
        // Graceful degradation widens the cadence devices are told to
        // use — fewer beats to serve while the backlog drains.
        let cadence = if protected {
            governor.heartbeat_period(base_cadence)
        } else {
            base_cadence
        };

        // -- devices: fresh reports + retransmissions ------------------
        for d in 0..FLEET {
            if !devices[d].up {
                continue;
            }
            // Fresh report on cadence (also the device's heartbeat).
            if t >= devices[d].next_report {
                devices[d].next_report = t + cadence;
                let id = devices[d].next_report_id;
                devices[d].next_report_id += 1;
                devices[d].pending.push_back(Pending {
                    id,
                    next_retry: t + CLIENT_TIMEOUT,
                    prev_gap: CLIENT_TIMEOUT,
                });
                if devices[d].pending.len() > PENDING_CAP {
                    devices[d].pending.pop_front();
                }
                submit_copy(
                    &mut queue,
                    &mut ledger,
                    &mut detector,
                    &mut rng,
                    &devices,
                    d,
                    id,
                    t,
                    fabric_loss,
                );
            }
            // Retransmit unacked reports whose per-copy timeout lapsed.
            let due: Vec<u64> = devices[d]
                .pending
                .iter()
                .filter(|r| t >= r.next_retry)
                .map(|r| r.id)
                .collect();
            for id in due {
                let granted = if protected {
                    // One shared budget keyed by the controller: total
                    // retransmissions stay a fraction of total successes.
                    budget.try_spend(NodeId(0))
                } else {
                    true
                };
                let gap = if protected {
                    let prev = devices[d]
                        .pending
                        .iter()
                        .find(|r| r.id == id)
                        .map(|r| r.prev_gap)
                        .unwrap_or(CLIENT_TIMEOUT);
                    let base = CLIENT_TIMEOUT.as_nanos();
                    let hi = prev.as_nanos().saturating_mul(3).max(base + 1);
                    SimDuration::from_nanos(
                        rng.gen_range(base..hi)
                            .min(SimDuration::from_millis(400).as_nanos()),
                    )
                } else {
                    CLIENT_TIMEOUT
                };
                if let Some(r) = devices[d].pending.iter_mut().find(|r| r.id == id) {
                    r.next_retry = t + gap;
                    r.prev_gap = gap;
                }
                if granted {
                    submit_copy(
                        &mut queue,
                        &mut ledger,
                        &mut detector,
                        &mut rng,
                        &devices,
                        d,
                        id,
                        t,
                        fabric_loss,
                    );
                }
            }
        }

        // -- rollout attempts (pure optional load) ---------------------
        if t >= next_rollout {
            next_rollout = t + ROLLOUT_PERIOD;
            if protected && governor.admit_rollout().is_err() {
                rollouts_paused += 1;
            } else if let Ok(id) = queue.push(WorkClass::Rollout, None, t, t + ROLLOUT_PERIOD) {
                ledger.insert(id, Work::Rollout);
            }
        }

        // -- failure detection + divergence-triggered resync demand ----
        for (node, event) in detector.poll(t) {
            if let HealthEvent::Flapped { .. } = event {
                let d = (node.0 - 1) as usize;
                demand_resync(
                    &mut resync_waiting,
                    &mut resync_pending,
                    &mut bucket,
                    protected,
                    d,
                    t,
                );
            }
        }
        for (d, dev) in devices.iter().enumerate() {
            if dev.up
                && dev.digest != dev.intended
                && detector.digest(node_of(d)) == Some(dev.digest)
            {
                demand_resync(
                    &mut resync_waiting,
                    &mut resync_pending,
                    &mut bucket,
                    protected,
                    d,
                    t,
                );
            }
        }
        // Move bucket-granted resyncs whose start time arrived into the
        // queue (denied ones sit here too, with their retry_after).
        let due: Vec<usize> = resync_waiting
            .iter()
            .filter(|(at, _)| t >= *at)
            .map(|(_, d)| *d)
            .collect();
        resync_waiting.retain(|(at, _)| t < *at);
        for d in due {
            match queue.push(WorkClass::Resync, Some(node_of(d)), t, SimTime::MAX) {
                Ok(id) => {
                    ledger.insert(id, Work::Resync { device: d });
                }
                Err(_) => resync_waiting.push((t + SimDuration::from_millis(10), d)),
            }
        }

        // -- the controller serves --------------------------------------
        budget_mu = (budget_mu + capacity_mu).min(2 * CAPACITY_MU);
        loop {
            let (popped_at, work) = match carry.take() {
                Some(c) => c,
                None => match queue.pop(t) {
                    Some(item) => match ledger.remove(&item.id) {
                        Some(w) => (item.enqueued_at, w),
                        None => continue,
                    },
                    None => break,
                },
            };
            if budget_mu < work.cost() {
                carry = Some((popped_at, work));
                break;
            }
            match work {
                Work::Telemetry {
                    device,
                    report_id,
                    submitted,
                } => {
                    // A carried-over copy can go stale while waiting for
                    // capacity: the protected controller sheds it here
                    // at zero cost, exactly as the queue would have.
                    let fresh = t.saturating_since(submitted) <= CLIENT_TIMEOUT;
                    if !fresh && protected {
                        queue.stats.shed_expired += 1;
                        continue;
                    }
                    budget_mu -= work.cost();
                    if fresh {
                        if let Some(pos) = devices[device]
                            .pending
                            .iter()
                            .position(|r| r.id == report_id)
                        {
                            devices[device].pending.remove(pos);
                            goodput += 1;
                            goodput_ring.push_back((t, 1));
                            budget.on_success(NodeId(0));
                        }
                        // A duplicate fresh copy of an already-acked
                        // report: served, but nothing to complete.
                    } else {
                        // The requester timed this copy out long ago:
                        // capacity burned for a discarded response.
                        stale_served += 1;
                    }
                }
                Work::Resync { device } => {
                    let node = node_of(device);
                    if protected {
                        if let Err(FlexError::CircuitOpen { retry_after, .. }) =
                            breakers.breaker(node).admit(node, t)
                        {
                            // Refused at zero capacity cost: requeue for
                            // after the cooldown.
                            resync_waiting.push((t + retry_after, device));
                            continue;
                        }
                    }
                    budget_mu -= work.cost();
                    let lost = rng.gen_bool(fabric_loss);
                    if devices[device].up && !lost {
                        devices[device].digest = devices[device].intended;
                        resync_pending.remove(&device);
                        if protected {
                            breakers.breaker(node).on_success();
                        }
                    } else {
                        if protected {
                            breakers.breaker(node).on_failure(t);
                        }
                        resync_waiting.push((t + SimDuration::from_millis(50), device));
                    }
                }
                Work::Rollout => {
                    budget_mu -= work.cost();
                }
            }
        }

        // -- governor + detector widening ------------------------------
        if protected {
            let was = governor.mode();
            let now_mode = governor.observe_sheds(t, queue.stats.shed_total());
            if was == ControllerMode::Normal && now_mode == ControllerMode::Degraded {
                degraded_entered += 1;
            }
            detector.widen(governor.detector_scale());
        }

        // -- steady-state check after the fault clears -----------------
        while goodput_ring
            .front()
            .map(|(at, _)| t.saturating_since(*at) > GOODPUT_WINDOW)
            .unwrap_or(false)
        {
            goodput_ring.pop_front();
        }
        if t >= fault_clear && recovered_at.is_none() {
            let trailing: u64 = goodput_ring.iter().map(|(_, n)| n).sum();
            let converged = devices.iter().all(|d| d.up && d.digest == d.intended);
            let drained = queue.len() + usize::from(carry.is_some()) <= FLEET;
            let mode_ok = !protected || governor.mode() == ControllerMode::Normal;
            // ≥ 10% of nominal goodput (160 fresh acks / 500 ms) cleanly
            // separates a draining controller from a collapsed one.
            if converged && drained && mode_ok && trailing >= 16 {
                recovered_at = Some(t);
            }
        }
    }

    // -- verdicts --------------------------------------------------------
    let recovered = recovered_at
        .map(|at| at.saturating_since(fault_clear) <= RECOVERY_WINDOW)
        .unwrap_or(false);
    let trailing: u64 = goodput_ring.iter().map(|(_, n)| n).sum();
    let collapsed = recovered_at.is_none() && trailing < 16;
    let diverged_at_end = devices.iter().filter(|d| d.digest != d.intended).count();

    if protected {
        if !recovered {
            violations.push(format!(
                "protected controller did not recover within {} of fault-clear \
                 (queue {}, diverged {}, trailing goodput {})",
                RECOVERY_WINDOW,
                queue.len(),
                diverged_at_end,
                trailing,
            ));
        }
        if stale_served > 0 {
            violations.push(format!(
                "protected controller served {stale_served} expired items"
            ));
        }
        if diverged_at_end > 0 {
            violations.push(format!(
                "{diverged_at_end} devices still diverged at end of run"
            ));
        }
    }

    Ok(OverloadReport {
        schedule,
        arm,
        recovered,
        recovery_ms: recovered_at.map(|at| at.saturating_since(fault_clear).as_nanos() / 1_000_000),
        collapsed,
        peak_queue: queue.stats.peak_len,
        shed_capacity: queue.stats.shed_capacity,
        shed_expired: queue.stats.shed_expired,
        stale_served,
        goodput,
        budget_refused: budget.refused,
        breaker_opens: breakers.total_opens(),
        bucket_denied: bucket.denied,
        degraded_entered,
        rollouts_paused,
        diverged_at_end,
        violations,
    })
}

/// Submits one copy of report `id` from device `d` toward the
/// controller: the fabric may lose it; a delivered copy bumps the
/// failure detector (liveness is observed at arrival — cheap) and
/// enters the admission queue as telemetry work (processing is what
/// queues). Protected queues may refuse at the door (counted shed); the
/// requester finds out by timeout either way.
#[allow(clippy::too_many_arguments)]
fn submit_copy(
    queue: &mut AdmissionQueue,
    ledger: &mut BTreeMap<u64, Work>,
    detector: &mut FailureDetector,
    rng: &mut StdRng,
    devices: &[DeviceState],
    d: usize,
    report_id: u64,
    t: SimTime,
    fabric_loss: f64,
) {
    if rng.gen_bool(fabric_loss) {
        return;
    }
    detector.observe_heartbeat(node_of(d), t, devices[d].boot_id, devices[d].digest);
    if let Ok(id) = queue.push(
        WorkClass::Telemetry,
        Some(node_of(d)),
        t,
        t + CLIENT_TIMEOUT,
    ) {
        ledger.insert(
            id,
            Work::Telemetry {
                device: d,
                report_id,
                submitted: t,
            },
        );
    }
}

/// Registers demand to resync device `d`. With the global bucket on
/// (`paced`), admission is paced: a granted reservation queues at its start time,
/// a denial parks the device until `retry_after` — requeued, never
/// dropped. Duplicate demand for a device already pending is absorbed.
fn demand_resync(
    waiting: &mut Vec<(SimTime, usize)>,
    pending: &mut BTreeSet<usize>,
    bucket: &mut TokenBucket,
    paced: bool,
    d: usize,
    t: SimTime,
) {
    if !pending.insert(d) {
        return;
    }
    if paced {
        match bucket.reserve(t, "resync admission") {
            Ok(start) => waiting.push((start, d)),
            Err(FlexError::Backpressure { retry_after, .. }) => {
                waiting.push((t + retry_after, d));
            }
            Err(_) => waiting.push((t + SimDuration::from_millis(25), d)),
        }
    } else {
        waiting.push((t, d));
    }
}

/// The `p`-th percentile of the recovery times (ms) in a cohort, 0 when
/// nothing recovered.
fn recovery_percentile(cohort: &[&OverloadReport], p: usize) -> u64 {
    let mut ms: Vec<u64> = cohort.iter().filter_map(|r| r.recovery_ms).collect();
    ms.sort_unstable();
    ms.get(ms.len().saturating_sub(1) * p / 100)
        .copied()
        .unwrap_or(0)
}

/// The E17 experiment.
pub fn suite() -> Suite<OverloadReport> {
    Suite {
        name: "overload",
        id: "E17",
        title: "overload-safe control plane vs. metastable collapse",
        claim: "a runtime-programmable network's control plane must shed load \
                by priority and break retry feedback loops, or a transient \
                fault becomes a self-sustaining outage",
        sweep_note: "(scenario = seed mod 4), each run twice",
        run,
        cohort_title: "scenario",
        cohorts: OverloadScenario::ALL
            .iter()
            .map(OverloadScenario::label)
            .collect(),
        cohort_of: |r| {
            let scenario = r.schedule.scenario;
            OverloadScenario::ALL
                .iter()
                .position(|s| *s == scenario)
                .expect("a listed scenario")
        },
        columns: vec![
            col("recovered", |c| count(c, |r| r.recovered).to_string()),
            col("recovery p50", |c| {
                format!("{} ms", recovery_percentile(c, 50))
            }),
            col("recovery max", |c| {
                format!("{} ms", recovery_percentile(c, 100))
            }),
            col("shed expired", |c| total(c, |r| r.shed_expired).to_string()),
            col("degraded", |c| total(c, |r| r.degraded_entered).to_string()),
        ],
        totals: None,
        // Ablated seeds pinned as collapse regression oracles; the ablated
        // arm runs the whole sweep so the collapse census is reported too.
        oracle: Some(Oracle {
            seeds: &[2, 3, 6, 7, 10, 11],
            bites: |r| r.collapsed,
            intro: |seeds, off| {
                format!(
                    "unprotected cohort: {}/{seeds} runs still collapsed {} ms after the \
                     fault cleared ({} expired items served — capacity \
                     burned on responses nobody was waiting for)",
                    count(off, |r| r.collapsed),
                    COLLAPSE_WINDOW.as_nanos() / 1_000_000,
                    total(off, |r| r.stale_served),
                )
            },
            detail: None,
            soft: "no longer collapse without protections — the metastable trap is gone",
        }),
        summary: Some(Summary {
            experiment: "e17_overload",
            head: |t| {
                let [p50, p90, max] = [50, 90, 100].map(|p| recovery_percentile(t.on, p));
                vec![
                    (
                        "protected_recovered",
                        count(t.on, |r| r.recovered).to_string(),
                    ),
                    (
                        "recovery_ms",
                        format!("{{ \"p50\": {p50}, \"p90\": {p90}, \"max\": {max} }}"),
                    ),
                ]
            },
            cohort: vec![
                col("recovered", |c| count(c, |r| r.recovered).to_string()),
                col("recovery_p50_ms", |c| {
                    recovery_percentile(c, 50).to_string()
                }),
                col("recovery_max_ms", |c| {
                    recovery_percentile(c, 100).to_string()
                }),
            ],
            tail: |t| {
                vec![
                    (
                        "unprotected_collapsed",
                        count(t.off, |r| r.collapsed).to_string(),
                    ),
                    ("pinned_collapse_seeds_held", t.oracles_hold.to_string()),
                ]
            },
        }),
        verdict: "protected runs recovered within the bounded window and \
                  upheld every invariant (no stale serves, full digest \
                  convergence, governor back to Normal); wrote E17_summary.json",
        failed_note: " (protected)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_overload_seed(seed: u64, arm: Arm) -> OverloadReport {
        run(seed, arm).expect("the overload model has no plumbing to fail")
    }

    #[test]
    fn protections_on_recovers_every_scenario() {
        // Seeds 0..4 cycle through all four scenarios.
        for seed in 0..4u64 {
            let r = run_overload_seed(seed, Arm::Protected);
            assert!(
                r.passed(),
                "seed {seed} ({}): {:?}",
                r.schedule.scenario.label(),
                r.violations
            );
            assert!(r.recovered, "seed {seed} did not recover");
            assert_eq!(r.stale_served, 0, "protected never serves stale work");
            assert_eq!(r.diverged_at_end, 0);
        }
    }

    #[test]
    fn protections_off_collapses_on_pinned_seeds() {
        // One pinned seed per collapse-prone mechanism; these are the
        // regression oracles — if a "protection-free" controller stops
        // collapsing, the harness has lost its teeth.
        let mut collapsed_seeds = Vec::new();
        for seed in 0..8u64 {
            let r = run_overload_seed(seed, Arm::Ablated);
            if r.collapsed {
                collapsed_seeds.push(seed);
            }
        }
        assert!(
            !collapsed_seeds.is_empty(),
            "no unprotected seed in 0..8 stays collapsed — the trap is gone"
        );
    }

    #[test]
    fn protection_mechanisms_leave_fingerprints() {
        // Across the first 8 seeds the protected cohort must actually
        // *use* each mechanism — otherwise the sweep proves nothing.
        let reports: Vec<OverloadReport> = (0..8u64)
            .map(|s| run_overload_seed(s, Arm::Protected))
            .collect();
        assert!(
            reports.iter().any(|r| r.shed_expired > 0),
            "deadline shedding never fired"
        );
        assert!(
            reports.iter().any(|r| r.budget_refused > 0),
            "the retry budget never refused a retransmission"
        );
        assert!(
            reports.iter().any(|r| r.degraded_entered > 0),
            "the governor never entered Degraded"
        );
        assert!(
            reports
                .iter()
                .any(|r| r.bucket_denied > 0 || r.rollouts_paused > 0),
            "neither the resync bucket nor the rollout pause engaged"
        );
        // The unprotected cohort burns capacity on stale serves.
        let off: Vec<OverloadReport> = (0..8u64)
            .map(|s| run_overload_seed(s, Arm::Ablated))
            .collect();
        assert!(
            off.iter().any(|r| r.stale_served > 0),
            "unprotected runs never served stale work"
        );
    }
}
