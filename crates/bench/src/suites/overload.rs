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
//! - **retry budgets** (`RetryBudget`) cap retries at a fraction of
//!   successes, so a storm self-extinguishes instead of multiplying
//!   arrivals;
//! - **decorrelated jitter** desynchronizes the retries that do run;
//! - **circuit breakers** (`BreakerSet`) stop burning service capacity
//!   on destinations that are down;
//! - **priority admission + deadline shedding** (`AdmissionQueue`) keep
//!   resync work ahead of telemetry floods and discard expired
//!   work *unserved* — shedding a stale item costs a counter bump,
//!   serving it costs capacity;
//! - **the global resync token bucket** ([`TokenBucket`]) paces a
//!   mass-restart stampede into an orderly queue;
//! - **graceful degradation** (`OverloadGovernor`) pauses new rollouts
//!   and widens heartbeat cadence + detector thresholds under sustained
//!   shed, instead of dropping failure detection.
//!
//! The budget, breakers, queue and governor are this suite's own: E17 is
//! the one thing that drives them, so they live here and not in the
//! controller library. [`run`] executes one seeded scenario on one
//! [`Arm`]; the acceptance criterion is that the protected controller
//! recovers within a bounded window after the fault clears in *every*
//! seed, while the ablated one — the same controller with every mechanism
//! above off — demonstrably stays collapsed on pinned seeds.
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

use crate::fixture::Draws;
use crate::sweep::{col, count, total, Arm, Oracle, Report, Suite, Summary};
use flexnet_controller::{FailureDetector, HealthEvent, TokenBucket};
use flexnet_types::hash::mix;
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How one overload run tries to push the controller into metastable
/// collapse: offered control-plane load exceeds service capacity long
/// enough that, without protection, the backlog's own retries and stale
/// work keep the controller saturated after the fault clears.
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

/// Everything an overload run does, derived from one seed.
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
    /// covers every mechanism); severity knobs come from the seed's hash —
    /// always hard enough that offered load exceeds unprotected capacity
    /// during the fault, because a scenario the *unprotected* controller
    /// survives proves nothing about the protections.
    pub fn from_seed(seed: u64, participants: usize) -> OverloadSchedule {
        let d = Draws::new(seed, 0x0EE2_10AD);
        let scenario = OverloadScenario::ALL[(seed % 4) as usize];
        // All of the fleet, or three quarters of it: a stampede.
        let restarts = match (scenario, d.bit(2)) {
            (OverloadScenario::MassRestart, false) => participants,
            (OverloadScenario::MassRestart, true) => (participants * 3).div_ceil(4),
            _ => 0,
        };
        OverloadSchedule {
            seed,
            scenario,
            restarts,
            victims: d.distinct(restarts, participants),
            brownout_loss: if d.bit(4) { 0.7 } else { 0.5 },
            burst_factor: 6 + d.bits(6, 5) as u32,
            slow_factor: 4 + d.bits(9, 4) as u32,
            fabric_loss: if d.bit(12) { 0.05 } else { 0.0 },
            fault_ms: 600 + d.bits(16, 5) * 150,
        }
    }
}

/// The retry budget, the storm-suppression layer: every fresh
/// acknowledgement earns a tenth of a retry token, every retransmission
/// spends one, and an empty bucket refuses the retransmission (first
/// transmissions are never refused). Sustained retries are capped at a
/// tenth of the success rate, so a retry storm self-extinguishes instead
/// of amplifying, and the budget refills only as real successes resume.
/// Integer millitokens keep it exactly deterministic.
#[derive(Debug)]
struct RetryBudget {
    /// Millitokens in the bucket.
    tokens: u64,
    /// Retransmissions refused.
    refused: u64,
}

impl RetryBudget {
    /// Millitokens one success earns: a tenth of a retry.
    const EARN: u64 = 100;
    /// The bucket's cap: ten retries, the burst a success streak can bank.
    const CAP: u64 = 10_000;

    /// Records a successful exchange, earning budget.
    fn on_success(&mut self) {
        self.tokens = (self.tokens + Self::EARN).min(Self::CAP);
    }

    /// Tries to spend one retry token; `false` means the retry must not
    /// happen.
    fn try_spend(&mut self) -> bool {
        if self.tokens >= 1000 {
            self.tokens -= 1000;
            true
        } else {
            self.refused += 1;
            false
        }
    }
}

impl Default for RetryBudget {
    /// Three retries of starting credit, so a healthy fleet's first
    /// failures can still be retried.
    fn default() -> RetryBudget {
        RetryBudget {
            tokens: 3_000,
            refused: 0,
        }
    }
}

/// State of a per-device circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Calls flow normally; consecutive failures are counted.
    Closed,
    /// Calls are refused until the cooldown elapses.
    Open,
    /// The cooldown elapsed: exactly one probe call is admitted. Success
    /// closes the breaker; failure re-opens it (cooldown restarts).
    HalfOpen,
}

/// A per-device circuit breaker on the resync path: once
/// [`CircuitBreaker::THRESHOLD`] consecutive resyncs against a device
/// have failed, further ones are refused at zero capacity cost until
/// [`CircuitBreaker::COOLDOWN`] elapses; then exactly one probe is
/// admitted, whose success closes the breaker and whose failure re-opens
/// it. During a brownout this turns O(attempts) wasted service per dead
/// device into one probe per cooldown.
#[derive(Debug)]
struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    probe_in_flight: bool,
    /// Times this breaker transitioned Closed/HalfOpen → Open.
    opens: u64,
}

impl CircuitBreaker {
    /// Consecutive failures that trip a closed breaker.
    const THRESHOLD: u32 = 3;
    /// How long an open breaker refuses before admitting a probe.
    const COOLDOWN: SimDuration = SimDuration::from_millis(200);

    fn new() -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            probe_in_flight: false,
            opens: 0,
        }
    }

    /// The state as of `now` (Open lapses to HalfOpen once the cooldown
    /// has elapsed).
    fn state(&self, now: SimTime) -> BreakerState {
        match self.state {
            BreakerState::Open if now.saturating_since(self.opened_at) >= Self::COOLDOWN => {
                BreakerState::HalfOpen
            }
            s => s,
        }
    }

    /// Asks to place a call at `now`. `Ok` admits it — the caller must
    /// then report the outcome; `Err` refuses it with the wait until the
    /// next probe window.
    fn admit(&mut self, now: SimTime) -> std::result::Result<(), SimDuration> {
        match self.state(now) {
            BreakerState::Closed => Ok(()),
            BreakerState::HalfOpen if !self.probe_in_flight => {
                self.state = BreakerState::HalfOpen;
                self.probe_in_flight = true;
                Ok(())
            }
            BreakerState::HalfOpen => Err(Self::COOLDOWN),
            BreakerState::Open => Err((self.opened_at + Self::COOLDOWN).saturating_since(now)),
        }
    }

    /// Reports a successful call: closes the breaker, resets the streak.
    fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.probe_in_flight = false;
    }

    /// Reports a failed call at `now`: a closed breaker trips after the
    /// threshold; a failed half-open probe re-opens at once.
    fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= Self::THRESHOLD {
                    self.trip(now);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.probe_in_flight = false;
        self.consecutive_failures = 0;
        self.opens += 1;
    }
}

/// One [`CircuitBreaker`] per device, created closed on first use.
#[derive(Debug, Default)]
struct BreakerSet {
    breakers: BTreeMap<NodeId, CircuitBreaker>,
}

impl BreakerSet {
    /// The breaker guarding `node`.
    fn breaker(&mut self, node: NodeId) -> &mut CircuitBreaker {
        self.breakers
            .entry(node)
            .or_insert_with(CircuitBreaker::new)
    }

    /// Closed/HalfOpen → Open transitions across the set.
    fn total_opens(&self) -> u64 {
        self.breakers.values().map(|b| b.opens).sum()
    }
}

/// Priority class of controller work, most urgent first: the queue
/// serves classes *strictly* in this order, so a telemetry flood can
/// never starve the resyncs that end the incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WorkClass {
    /// Intended-state reconciliation of a restarted or diverged device.
    Resync,
    /// Planned change: rollout waves.
    Rollout,
    /// Telemetry reports.
    Telemetry,
}

impl WorkClass {
    /// Lanes, one per class.
    const LANES: usize = 3;

    /// Lane index: 0 = most urgent.
    fn index(self) -> usize {
        self as usize
    }

    /// A short stable label for errors.
    fn label(self) -> &'static str {
        match self {
            WorkClass::Resync => "resync",
            WorkClass::Rollout => "rollout",
            WorkClass::Telemetry => "telemetry",
        }
    }
}

/// One queued unit of controller work.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    /// Admission-order id (unique per queue).
    id: u64,
    /// When the item was admitted.
    enqueued_at: SimTime,
    /// Propagated deadline: past it the requester has given up, so
    /// serving the item buys nothing. Expired items are shed at pop time —
    /// serving them is the timeout amplification that sustains
    /// metastable collapse.
    deadline: SimTime,
}

/// Shed accounting for an [`AdmissionQueue`].
#[derive(Debug, Default)]
struct QueueStats {
    /// Items shed because the queue was full (evicted victim or refused
    /// arrival).
    shed_capacity: u64,
    /// Items shed at pop time because their deadline had passed.
    shed_expired: u64,
    /// High-water mark of total queue length.
    peak_len: usize,
}

impl QueueStats {
    /// Total items shed for any reason.
    fn shed_total(&self) -> u64 {
        self.shed_capacity + self.shed_expired
    }
}

/// The controller's front door: a bounded work queue with strict priority
/// classes and deadline-expiry shedding. When full, an arrival evicts the
/// *newest* item of the *lowest*-priority occupied lane below its own
/// class; with nothing below it queued, the arrival itself is refused
/// with the retryable [`FlexError::Backpressure`]. Lanes drain in class
/// order, and expired items are discarded unserved — a counter bump
/// instead of an execution slot.
#[derive(Debug)]
struct AdmissionQueue {
    cap: usize,
    shed_expired: bool,
    lanes: [VecDeque<WorkItem>; WorkClass::LANES],
    next_id: u64,
    stats: QueueStats,
}

impl AdmissionQueue {
    /// A queue of at most `cap` items that sheds expired work at pop time
    /// — the protected configuration.
    fn bounded(cap: usize) -> AdmissionQueue {
        AdmissionQueue {
            cap: cap.max(1),
            shed_expired: true,
            lanes: Default::default(),
            next_id: 0,
            stats: QueueStats::default(),
        }
    }

    /// An unbounded queue that serves expired work anyway — the
    /// unprotected baseline.
    fn unbounded() -> AdmissionQueue {
        AdmissionQueue {
            cap: usize::MAX,
            shed_expired: false,
            ..AdmissionQueue::bounded(1)
        }
    }

    /// Items queued across all lanes.
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Admits one item, possibly evicting lower-priority work. Returns
    /// its admission id, or [`FlexError::Backpressure`] when the queue is
    /// full of work at or above `class`.
    fn push(&mut self, class: WorkClass, now: SimTime, deadline: SimTime) -> Result<u64> {
        if self.len() >= self.cap {
            let victim_lane = (class.index() + 1..WorkClass::LANES)
                .rev()
                .find(|&i| !self.lanes[i].is_empty());
            self.stats.shed_capacity += 1;
            match victim_lane {
                Some(i) => {
                    self.lanes[i].pop_back();
                }
                None => {
                    return Err(FlexError::Backpressure {
                        what: format!("work queue ({})", class.label()),
                        retry_after: SimDuration::from_millis(5),
                    });
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.lanes[class.index()].push_back(WorkItem {
            id,
            enqueued_at: now,
            deadline,
        });
        self.stats.peak_len = self.stats.peak_len.max(self.len());
        Ok(id)
    }

    /// Pops the most urgent live item, shedding (not serving) expired
    /// ones when expiry shedding is on.
    fn pop(&mut self, now: SimTime) -> Option<WorkItem> {
        for lane in self.lanes.iter_mut() {
            while let Some(item) = lane.pop_front() {
                if self.shed_expired && item.deadline < now {
                    self.stats.shed_expired += 1;
                    continue;
                }
                return Some(item);
            }
        }
        None
    }
}

/// Watches the queue's shed counter and flips the controller between
/// normal and *degraded* mode: [`OverloadGovernor::ENTER`] sheds inside
/// [`OverloadGovernor::WINDOW`] enter it, [`OverloadGovernor::EXIT_QUIET`]
/// without a shed leave it. While degraded it refuses new rollouts and
/// widens heartbeat cadence and detector thresholds by
/// [`OverloadGovernor::WIDEN`] — failure detection keeps running.
#[derive(Debug, Default)]
struct OverloadGovernor {
    events: VecDeque<(SimTime, u64)>,
    last_total: u64,
    last_shed_at: Option<SimTime>,
    /// The published mode: `true` while degraded.
    degraded: bool,
}

impl OverloadGovernor {
    /// Sheds inside the window that enter `Degraded`.
    const ENTER: u64 = 8;
    /// The sliding shed-counting window.
    const WINDOW: SimDuration = SimDuration::from_millis(200);
    /// Shed-free time that leaves `Degraded`.
    const EXIT_QUIET: SimDuration = SimDuration::from_millis(300);
    /// The heartbeat-period and detector-threshold multiplier while
    /// degraded.
    const WIDEN: u64 = 4;

    /// Feeds the queue's *cumulative* shed count at `now` and returns
    /// whether the controller is (now) degraded.
    fn observe_sheds(&mut self, now: SimTime, total_sheds: u64) -> bool {
        let delta = total_sheds.saturating_sub(self.last_total);
        self.last_total = self.last_total.max(total_sheds);
        if delta > 0 {
            self.events.push_back((now, delta));
            self.last_shed_at = Some(now);
        }
        while let Some(&(t, _)) = self.events.front() {
            if now.saturating_since(t) > Self::WINDOW {
                self.events.pop_front();
            } else {
                break;
            }
        }
        let recent: u64 = self.events.iter().map(|(_, n)| n).sum();
        if self.degraded {
            let quiet = self
                .last_shed_at
                .is_none_or(|t| now.saturating_since(t) >= Self::EXIT_QUIET);
            self.degraded = !quiet;
        } else {
            self.degraded = recent >= Self::ENTER;
        }
        self.degraded
    }

    /// Gate for *new* rollout work: refused with the retryable
    /// [`FlexError::Backpressure`] while degraded.
    fn admit_rollout(&self) -> Result<()> {
        if !self.degraded {
            return Ok(());
        }
        Err(FlexError::Backpressure {
            what: "rollout admission (controller degraded)".to_string(),
            retry_after: Self::EXIT_QUIET,
        })
    }

    /// The multiplier for heartbeat periods and detector thresholds: 1
    /// nominally, [`OverloadGovernor::WIDEN`] while degraded.
    fn detector_scale(&self) -> u64 {
        if self.degraded {
            Self::WIDEN
        } else {
            1
        }
    }

    /// The heartbeat period devices should use: `base`, widened while
    /// degraded (fewer beats to serve).
    fn heartbeat_period(&self, base: SimDuration) -> SimDuration {
        SimDuration::from_nanos(base.as_nanos().saturating_mul(self.detector_scale()))
    }
}

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
                    budget.try_spend()
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
            } else if let Ok(id) = queue.push(WorkClass::Rollout, t, t + ROLLOUT_PERIOD) {
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
            match queue.push(WorkClass::Resync, t, SimTime::MAX) {
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
                            budget.on_success();
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
                        if let Err(retry_after) = breakers.breaker(node).admit(t) {
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
            let was = governor.degraded;
            if governor.observe_sheds(t, queue.stats.shed_total()) && !was {
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
            let mode_ok = !protected || !governor.degraded;
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
    if let Ok(id) = queue.push(WorkClass::Telemetry, t, t + CLIENT_TIMEOUT) {
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

    #[test]
    fn retry_budget_caps_retries_and_replenishes_on_success() {
        let mut budget = RetryBudget::default();
        // Drain: only the initial credit's worth of retries are granted.
        for _ in 0..3 {
            assert!(budget.try_spend());
        }
        assert!(!budget.try_spend(), "bucket dry, retry refused");
        assert_eq!(budget.refused, 1);
        // 10 successes at 10% earn exactly one more retry.
        for _ in 0..10 {
            budget.on_success();
        }
        assert!(budget.try_spend());
        assert!(!budget.try_spend());
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new();
        let t0 = SimTime::from_secs(1);
        assert_eq!(b.state(t0), BreakerState::Closed);
        // Two failures: still closed (threshold is 3).
        for _ in 0..2 {
            b.admit(t0).unwrap();
            b.on_failure(t0);
        }
        assert_eq!(b.state(t0), BreakerState::Closed);
        // Third consecutive failure trips it.
        b.admit(t0).unwrap();
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);
        assert_eq!(b.opens, 1);
        // Refused during cooldown, with the remaining wait.
        let refused = b.admit(t0 + SimDuration::from_millis(50));
        assert_eq!(refused, Err(SimDuration::from_millis(150)));
        // Cooldown elapsed: exactly one probe is admitted.
        let t1 = t0 + SimDuration::from_millis(200);
        assert_eq!(b.state(t1), BreakerState::HalfOpen);
        b.admit(t1).unwrap();
        assert!(b.admit(t1).is_err(), "second concurrent probe refused");
        // Probe success closes the breaker and resets the streak.
        b.on_success();
        assert_eq!(b.state(t1), BreakerState::Closed);
        b.admit(t1).unwrap();
        b.on_failure(t1);
        assert_eq!(b.state(t1), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn failed_probe_reopens_for_a_fresh_cooldown() {
        let mut b = CircuitBreaker::new();
        for _ in 0..3 {
            b.admit(SimTime::ZERO).unwrap();
            b.on_failure(SimTime::ZERO);
        }
        let t1 = SimTime::from_millis(200);
        b.admit(t1).unwrap(); // half-open probe
        b.on_failure(t1); // probe failed
        assert_eq!(b.opens, 2);
        assert_eq!(
            b.state(t1 + SimDuration::from_millis(199)),
            BreakerState::Open
        );
        assert_eq!(
            b.state(t1 + SimDuration::from_millis(200)),
            BreakerState::HalfOpen,
            "cooldown restarted from the failed probe"
        );
    }

    #[test]
    fn breaker_set_keeps_one_breaker_per_node() {
        let mut set = BreakerSet::default();
        let n = NodeId(7);
        let t = SimTime::from_secs(1);
        assert_eq!(set.breaker(n).state(t), BreakerState::Closed, "new: closed");
        for _ in 0..3 {
            set.breaker(n).admit(t).unwrap();
            set.breaker(n).on_failure(t);
        }
        assert_eq!(set.breaker(n).state(t), BreakerState::Open);
        assert_eq!(set.total_opens(), 1);
        assert!(set
            .breaker(n)
            .admit(t + SimDuration::from_millis(10))
            .is_err());
        // Other devices are unaffected.
        assert!(set.breaker(NodeId(8)).admit(t).is_ok());
        // After the cooldown, the probe is admitted and closes the breaker.
        let t2 = t + SimDuration::from_millis(220);
        set.breaker(n).admit(t2).unwrap();
        set.breaker(n).on_success();
        assert_eq!(set.breaker(n).state(t2), BreakerState::Closed);
    }

    #[test]
    fn admission_queue_serves_strict_priority_and_sheds_lowest_first() {
        let mut q = AdmissionQueue::bounded(3);
        let now = SimTime::ZERO;
        let far = SimTime::from_millis(1_000);
        q.push(WorkClass::Telemetry, now, far).unwrap();
        let rollout = q.push(WorkClass::Rollout, now, far).unwrap();
        let newest_telemetry = q.push(WorkClass::Telemetry, now, far).unwrap();
        // Queue full: a resync evicts the newest telemetry item.
        let first = q.push(WorkClass::Resync, now, far).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.stats.shed_capacity, 1);
        let telemetry = &q.lanes[WorkClass::Telemetry.index()];
        assert!(telemetry.iter().all(|w| w.id != newest_telemetry));
        // A second resync evicts the remaining telemetry.
        let second = q.push(WorkClass::Resync, now, far).unwrap();
        // Serve order is strictly by class, not arrival: resyncs, then
        // the rollout.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(now)).map(|w| w.id).collect();
        assert_eq!(order, vec![first, second, rollout]);
    }

    #[test]
    fn full_queue_of_higher_priority_work_refuses_with_backpressure() {
        let mut q = AdmissionQueue::bounded(2);
        let now = SimTime::ZERO;
        let far = SimTime::from_millis(1_000);
        q.push(WorkClass::Resync, now, far).unwrap();
        q.push(WorkClass::Rollout, now, far).unwrap();
        // Telemetry cannot evict work above its own class.
        let refused = q.push(WorkClass::Telemetry, now, far).unwrap_err();
        assert!(
            matches!(refused, FlexError::Backpressure { .. }),
            "{refused}"
        );
        assert!(
            refused.is_retryable(),
            "backpressure means requeue, not drop"
        );
        assert_eq!(q.len(), 2, "queued work untouched");
    }

    #[test]
    fn admission_queue_sheds_expired_work_before_execution() {
        let mut q = AdmissionQueue::bounded(16);
        let t0 = SimTime::ZERO;
        // Three telemetry items whose requesters time out at 50 ms, one
        // resync good until 500 ms.
        for _ in 0..3 {
            q.push(WorkClass::Telemetry, t0, SimTime::from_millis(50))
                .unwrap();
        }
        let resync = q
            .push(WorkClass::Resync, t0, SimTime::from_millis(500))
            .unwrap();
        // By the time the executor gets there, the telemetry deadlines
        // have passed: the resync is served, the stale telemetry shed
        // unserved (serving it would be pure timeout-amplification).
        let now = SimTime::from_millis(100);
        assert_eq!(q.pop(now).map(|w| w.id), Some(resync));
        assert!(q.pop(now).is_none());
        assert_eq!(q.stats.shed_expired, 3);
        // The unprotected queue happily serves the same stale work.
        let mut unprot = AdmissionQueue::unbounded();
        unprot
            .push(WorkClass::Telemetry, t0, SimTime::from_millis(50))
            .unwrap();
        assert!(unprot.pop(SimTime::from_millis(100)).is_some());
    }

    #[test]
    fn governor_enters_degraded_under_sustained_shed_and_recovers() {
        let mut gov = OverloadGovernor::default();
        assert!(!gov.degraded);
        assert!(gov.admit_rollout().is_ok());
        // 7 sheds in the window: still normal.
        assert!(!gov.observe_sheds(SimTime::from_millis(10), 7));
        // The 8th shed trips it.
        assert!(gov.observe_sheds(SimTime::from_millis(20), 8));
        let paused = gov.admit_rollout().unwrap_err();
        assert!(matches!(paused, FlexError::Backpressure { .. }), "{paused}");
        assert!(paused.is_retryable(), "rollouts resume after recovery");
        // Degradation widens the heartbeat machinery instead of
        // dropping failure detection.
        let base = SimDuration::from_millis(50);
        assert_eq!(gov.heartbeat_period(base), SimDuration::from_millis(200));
        assert_eq!(gov.detector_scale(), 4);
        // Sheds keep trickling: stays degraded.
        assert!(gov.observe_sheds(SimTime::from_millis(150), 9));
        // 300 ms of quiet exits back to normal, and the widening reverts.
        assert!(!gov.observe_sheds(SimTime::from_millis(460), 9));
        assert!(gov.admit_rollout().is_ok());
        assert_eq!(gov.heartbeat_period(base), base);
        assert_eq!(gov.detector_scale(), 1);
    }
}
