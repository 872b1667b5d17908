//! The FlexNet controller facade.
//!
//! "End-to-end, the network is piloted by a central controller that
//! maintains a global view of the topology and traffic patterns, as well as
//! the locations and resource requirements of the network apps" (paper §1).
//! The [`Controller`] ties the management subsystems together: the URI-keyed
//! app registry, the tenant manager (composition + VLANs), and the dRPC
//! service registry. It *plans* — producing program bundles and placements —
//! and leaves effecting those plans to runtime reconfiguration commands, so
//! it can drive either live simulations or unit tests.

use crate::apps::{AppRegistry, AppStatus};
use crate::drpc::{ExecutionSite, ServiceRegistry};
use crate::retry::LossyFabric;
use crate::tenant::TenantManager;
use flexnet_dataplane::Device;
use flexnet_lang::ast::ServiceDecl;
use flexnet_lang::compose::tenant_prefix;
use flexnet_lang::diff::ProgramBundle;
use flexnet_sim::Simulation;
use flexnet_types::{
    AppUri, FlexError, NodeId, Result, SimDuration, SimTime, TenantId, VlanId,
};
use std::collections::{BTreeMap, VecDeque};

/// Liveness of a device as judged by the controller's heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Heartbeats arriving on schedule.
    Healthy,
    /// Heartbeats arriving on schedule, but the data-path health
    /// counters they carry show the device misbehaving (drop slope over
    /// the degradation threshold): alive but wrong — the gray-failure
    /// grade. Excluded from admission like `Suspect`, but *not* routed
    /// around: the device still forwards most traffic and a resync or
    /// rollback usually clears it.
    Degraded,
    /// Heartbeats overdue; the device may be down or partitioned.
    Suspect,
    /// Heartbeats long overdue, but *indirect* evidence (data-plane
    /// counters advancing, peers relaying its traffic) says the device
    /// is alive and forwarding: the one-way-partition grade. We cannot
    /// hear it; the network still can. Excluded from admission like
    /// `Dead`, but — critically — **not** remediated: re-provisioning a
    /// device that is still serving traffic from state we can no longer
    /// observe would split-brain it. The partition heals, the next
    /// heartbeat lands, and the grade clears.
    Unreachable,
    /// Heartbeats long overdue; the controller routes around the device.
    Dead,
}

impl Health {
    /// A short stable label for errors and test output.
    pub fn label(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Suspect => "suspect",
            Health::Unreachable => "unreachable",
            Health::Dead => "dead",
        }
    }
}

/// Cumulative data-path counters piggybacked on a heartbeat. The
/// detector differentiates consecutive observations into a drop slope;
/// absolute values don't matter (and restart-reset counters re-baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPathHealth {
    /// Packets the device processed to a verdict, cumulative.
    pub processed: u64,
    /// Packets the device's program dropped, cumulative.
    pub dropped: u64,
    /// Program execution traps (gas exhaustion, division by zero,
    /// out-of-bounds state …), cumulative. A drop is policy; a trap is a
    /// fault — the split lets the detector treat a trap storm as gray
    /// failure even while total drop volume still looks tame.
    pub traps: u64,
    /// Whether the device's sandbox has quarantined its program (trap
    /// rate crossed threshold; the device fell back to its
    /// last-known-good image or transparent forwarding). Sticky until a
    /// replacement program is installed.
    pub quarantined: bool,
}

/// One typed failure-detector transition.
///
/// [`FailureDetector::poll`] used to report bare `(node, Health)` pairs,
/// which made a device that resumed heartbeating after `Dead`
/// indistinguishable from one that merely blipped: both surfaced as
/// `Healthy`. The typed event keeps that grade stream *and* reports a
/// boot-id advance as its own event, so callers can route a recovered
/// device straight into resync instead of silently resuming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// The silence grade changed (the pre-existing transition stream).
    Graded(Health),
    /// The device resumed heartbeating under a *new* incarnation: it
    /// restarted and lost its runtime state (entries, counters,
    /// registers). Recovery is not resumption — the caller must
    /// reconcile the device against intended state.
    Flapped {
        /// The incarnation the detector had last acknowledged.
        old_boot_id: u64,
        /// The incarnation the latest heartbeat reported.
        new_boot_id: u64,
    },
    /// The device's sandbox quarantined its program: heartbeats are
    /// punctual, but the data plane swapped to its last-known-good
    /// image (or transparent forwarding) after a trap storm. Reported
    /// once per quarantine episode; the device is simultaneously graded
    /// [`Health::Degraded`], so admission refuses it until a
    /// replacement program clears the flag.
    Quarantined {
        /// Cumulative program traps the quarantining heartbeat carried.
        traps: u64,
    },
}

/// Heartbeat-based failure detection with graceful degradation.
///
/// The controller cannot distinguish a crashed device from a partitioned
/// one — both just stop answering. The detector therefore grades silence:
/// a device whose last heartbeat is older than `suspect_after` becomes
/// [`Health::Suspect`], older than `dead_after` becomes [`Health::Dead`].
/// Dead devices should be routed around; a heartbeat from a dead device
/// (crash recovered, partition healed) restores it to [`Health::Healthy`]
/// on the next [`poll`](FailureDetector::poll).
///
/// Heartbeats additionally carry the device's monotone boot id and its
/// configuration digest ([`FailureDetector::observe_heartbeat`]). A
/// boot-id advance surfaces as [`HealthEvent::Flapped`]; the digest is
/// cached per node so the reconciler can check intended-vs-actual
/// convergence without another control-channel round trip.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    suspect_after: SimDuration,
    dead_after: SimDuration,
    /// Hysteresis floor: a device graded `Suspect` or `Dead` only recovers
    /// to `Healthy` once its silence drops *below* this (default
    /// `suspect_after / 2`). Without the band, heartbeats that arrive
    /// late-but-alive — silence oscillating around `suspect_after` — flap
    /// the grade Healthy↔Suspect every poll, and each flap re-triggers
    /// admission churn downstream.
    recover_after: SimDuration,
    /// Multiplier applied to every silence threshold (≥ 1). The overload
    /// governor widens this in `Degraded` mode so a slow controller does
    /// not misread its *own* queueing delay as device death.
    period_scale: u64,
    /// Drop slope (dropped/processed between heartbeats, ppm) at or
    /// above which a punctual device is graded [`Health::Degraded`].
    degrade_threshold_ppm: u64,
    /// Minimum processed-packet delta before a slope is judged — a
    /// handful of packets is noise, not a health signal.
    degrade_min_sample: u64,
    last_seen: BTreeMap<NodeId, SimTime>,
    status: BTreeMap<NodeId, Health>,
    /// Latest boot id each node's heartbeats reported.
    reported_boot: BTreeMap<NodeId, u64>,
    /// Boot id last acknowledged by a poll (flap detection edge).
    acked_boot: BTreeMap<NodeId, u64>,
    /// Latest config digest each node's heartbeats reported.
    digests: BTreeMap<NodeId, u64>,
    /// Data-path counters at the last judged heartbeat, per node.
    counters: BTreeMap<NodeId, DataPathHealth>,
    /// Whether the last judged slope exceeded the degrade threshold.
    datapath_degraded: BTreeMap<NodeId, bool>,
    /// Latest sandbox-quarantine flag each node's heartbeats reported.
    reported_quarantine: BTreeMap<NodeId, bool>,
    /// Quarantine episodes already surfaced by a poll (edge detection).
    acked_quarantine: BTreeMap<NodeId, bool>,
    /// Cumulative trap count from the latest heartbeat, per node.
    reported_traps: BTreeMap<NodeId, u64>,
    /// Latest *indirect* liveness evidence per node (data-plane counters
    /// advancing, a peer relaying the node's traffic). Distinguishes a
    /// one-way-partitioned device ([`Health::Unreachable`]) from a dead
    /// one: heartbeats silent in both cases, but only the former keeps
    /// producing hints.
    liveness_hints: BTreeMap<NodeId, SimTime>,
    /// Ablation hook for the E20 chaos suite: `false` disables the
    /// heartbeat monotonicity guard so the protections-off arm can
    /// demonstrate the damage reordered beats do. Always `true` in
    /// production paths.
    pub monotone_guard: bool,
}

impl FailureDetector {
    /// A detector suspecting after `suspect_after` of silence and declaring
    /// death after `dead_after` (raised to at least `suspect_after`).
    pub fn new(suspect_after: SimDuration, dead_after: SimDuration) -> FailureDetector {
        FailureDetector {
            suspect_after,
            dead_after: dead_after.max(suspect_after),
            recover_after: SimDuration::from_nanos(suspect_after.as_nanos() / 2),
            period_scale: 1,
            degrade_threshold_ppm: 200_000,
            degrade_min_sample: 8,
            last_seen: BTreeMap::new(),
            status: BTreeMap::new(),
            reported_boot: BTreeMap::new(),
            acked_boot: BTreeMap::new(),
            digests: BTreeMap::new(),
            counters: BTreeMap::new(),
            datapath_degraded: BTreeMap::new(),
            reported_quarantine: BTreeMap::new(),
            acked_quarantine: BTreeMap::new(),
            reported_traps: BTreeMap::new(),
            liveness_hints: BTreeMap::new(),
            monotone_guard: true,
        }
    }

    /// Scales every silence threshold by `scale` (clamped to ≥ 1). The
    /// overload governor calls this when entering/leaving `Degraded` mode:
    /// widened thresholds keep failure detection *running* under overload
    /// — late heartbeats are tolerated rather than misgraded — instead of
    /// dropping it.
    pub fn widen(&mut self, scale: u64) {
        self.period_scale = scale.max(1);
    }

    /// The current threshold multiplier (1 = nominal).
    pub fn scale(&self) -> u64 {
        self.period_scale
    }

    /// Records a bare heartbeat from `node` at `now` (liveness only — no
    /// incarnation or digest payload; flap detection stays quiet).
    pub fn observe(&mut self, node: NodeId, now: SimTime) {
        let seen = self.last_seen.entry(node).or_insert(now);
        if now > *seen {
            *seen = now;
        }
    }

    /// Records a full heartbeat: liveness plus the device's monotone
    /// `boot_id` and configuration `digest`.
    ///
    /// Monotonicity guard: a beat that is *stale* — older in send time
    /// than one already recorded, or carrying a `boot_id` below the
    /// highest this node has reported — is rejected **wholesale** and
    /// `false` is returned. A reordering fabric can deliver a
    /// pre-restart beat after post-restart ones; accepting any part of
    /// it (the old digest especially) would regress the cached digest to
    /// a dead incarnation's configuration, flag false divergence, and
    /// trigger a needless resync. Fresh beats return `true`.
    pub fn observe_heartbeat(
        &mut self,
        node: NodeId,
        now: SimTime,
        boot_id: u64,
        digest: u64,
    ) -> bool {
        let stale_time = self.last_seen.get(&node).is_some_and(|&seen| now < seen);
        let stale_boot = self
            .reported_boot
            .get(&node)
            .is_some_and(|&reported| boot_id < reported);
        if self.monotone_guard && (stale_time || stale_boot) {
            return false;
        }
        self.observe(node, now);
        self.reported_boot.insert(node, boot_id);
        // The first heartbeat establishes the baseline incarnation: a
        // device the controller has never seen cannot have flapped.
        self.acked_boot.entry(node).or_insert(boot_id);
        self.digests.insert(node, digest);
        true
    }

    /// Records a full heartbeat that additionally carries the device's
    /// cumulative data-path counters — the gray-failure signal. The
    /// detector differentiates against the counters of the last *judged*
    /// heartbeat: once at least `degrade_min_sample` packets separate the
    /// two, the drop slope is compared against the degrade threshold and
    /// the device's data-path verdict updated. Counters that went
    /// backwards (a restart wiped them) re-baseline and clear the verdict
    /// — a fresh incarnation has not yet misbehaved.
    pub fn observe_heartbeat_health(
        &mut self,
        node: NodeId,
        now: SimTime,
        boot_id: u64,
        digest: u64,
        health: DataPathHealth,
    ) {
        if !self.observe_heartbeat(node, now, boot_id, digest) {
            // Stale (reordered) beat: its counters describe a past the
            // detector has already moved beyond — judge nothing from it.
            return;
        }
        // The quarantine flag is authoritative, not a slope: the device
        // itself judged its program and swapped it out. Record it before
        // any sampling-floor early return, and clear the episode edge
        // when a replacement install lifts it.
        self.reported_quarantine.insert(node, health.quarantined);
        self.reported_traps.insert(node, health.traps);
        if !health.quarantined {
            self.acked_quarantine.insert(node, false);
        }
        let prev = *self.counters.entry(node).or_insert(health);
        if health.processed < prev.processed || health.dropped < prev.dropped {
            self.counters.insert(node, health);
            self.datapath_degraded.insert(node, health.quarantined);
            return;
        }
        let d_processed = health.processed - prev.processed;
        if d_processed >= self.degrade_min_sample {
            let d_dropped = health.dropped - prev.dropped;
            self.counters.insert(node, health);
            self.datapath_degraded.insert(
                node,
                health.quarantined
                    || d_dropped * 1_000_000 / d_processed >= self.degrade_threshold_ppm,
            );
        } else if health.quarantined {
            self.datapath_degraded.insert(node, true);
        }
        // Under the sample floor: keep both the stored counters and the
        // previous verdict, so slow trickles still accumulate into a
        // judgeable delta instead of being re-baselined away.
    }

    /// Records the heartbeat `dev` sends at `now`: its incarnation,
    /// configuration digest and cumulative data-path counters.
    pub fn observe_device(&mut self, dev: &Device, now: SimTime) {
        let stats = dev.stats();
        let health = DataPathHealth {
            processed: stats.processed,
            dropped: stats.dropped,
            traps: stats.traps,
            quarantined: dev.quarantined(),
        };
        self.observe_heartbeat_health(dev.id(), now, dev.boot_id(), dev.config_digest(), health);
    }

    /// Collects one round of heartbeats from every device in `sim` over
    /// `fabric` and returns the typed transitions that resulted. A down
    /// device does not answer; an up device's heartbeat can still be lost
    /// in the fabric — the detector only ever sees silence, never its
    /// cause.
    pub fn sweep(
        &mut self,
        sim: &Simulation,
        fabric: &mut LossyFabric,
        now: SimTime,
    ) -> Vec<(NodeId, HealthEvent)> {
        for node in sim.topo.nodes() {
            if node.device.is_up() && fabric.deliver() {
                self.observe_device(&node.device, now);
            }
        }
        self.poll(now)
    }

    /// Whether `node`'s latest heartbeat reported a sandbox quarantine.
    pub fn quarantine_reported(&self, node: NodeId) -> bool {
        self.reported_quarantine.get(&node) == Some(&true)
    }

    /// Records *indirect* liveness evidence for `node` at `now`: its
    /// data-plane counters advanced, a downstream device kept receiving
    /// its traffic, a peer relayed its digest — anything proving the
    /// device is alive that did not arrive on its own control channel.
    ///
    /// Hints never feed the silence clock (`last_seen`) — they are not
    /// heartbeats and must not mask a genuinely failing control channel.
    /// Their only effect is in [`FailureDetector::poll`]: a device past
    /// `dead_after` of heartbeat silence whose freshest hint is younger
    /// than `dead_after` grades [`Health::Unreachable`] (one-way
    /// partition — suppress remediation) instead of [`Health::Dead`]
    /// (route around and reprovision).
    pub fn note_liveness_hint(&mut self, node: NodeId, now: SimTime) {
        let hint = self.liveness_hints.entry(node).or_insert(now);
        if now > *hint {
            *hint = now;
        }
    }

    /// Re-grades every known device at `now` and returns the typed
    /// transitions since the last poll: grade changes as
    /// [`HealthEvent::Graded`], plus one [`HealthEvent::Flapped`] for
    /// every device whose heartbeats resumed under a new boot id.
    pub fn poll(&mut self, now: SimTime) -> Vec<(NodeId, HealthEvent)> {
        let scale = |d: SimDuration| SimDuration::from_nanos(d.as_nanos().saturating_mul(self.period_scale));
        let (suspect_after, dead_after, recover_after) = (
            scale(self.suspect_after),
            scale(self.dead_after),
            scale(self.recover_after),
        );
        let mut transitions = Vec::new();
        for (&node, &seen) in &self.last_seen {
            let silence = now.saturating_since(seen);
            let prev_grade = self.status.get(&node).copied();
            let health = if silence >= dead_after {
                // Heartbeat-dead. Before declaring the device gone,
                // consult indirect evidence: a fresh liveness hint means
                // the device is alive and forwarding — we just cannot
                // hear it (one-way partition). Grade it Unreachable so
                // admission refuses it but nothing *remediates* it.
                let hint_fresh = self
                    .liveness_hints
                    .get(&node)
                    .is_some_and(|&h| now.saturating_since(h) < dead_after);
                if hint_fresh {
                    Health::Unreachable
                } else {
                    Health::Dead
                }
            } else if silence >= suspect_after {
                Health::Suspect
            } else if silence >= recover_after && prev_grade >= Some(Health::Suspect) {
                // Hysteresis band: silence has shrunk below `suspect_after`
                // but not yet below the recovery floor. A late-but-alive
                // device sits here every period; re-grading it Healthy now
                // would flap it straight back to Suspect on the next late
                // beat. Hold the previous grade until a punctual beat.
                prev_grade.unwrap()
            } else if self.datapath_degraded.get(&node) == Some(&true) {
                // Punctual heartbeats, misbehaving data path: gray.
                Health::Degraded
            } else {
                Health::Healthy
            };
            let prev = self.status.insert(node, health);
            if prev != Some(health) {
                transitions.push((node, HealthEvent::Graded(health)));
            }
            // A boot-id advance is reported once the device is heartbeating
            // again — whether or not the detector ever graded it Dead (a
            // restart faster than one heartbeat period still wipes state).
            // Degraded devices are heartbeating too, so their flaps report.
            if health <= Health::Degraded {
                let reported = self.reported_boot.get(&node).copied();
                let acked = self.acked_boot.get(&node).copied();
                if let (Some(new_boot_id), Some(old_boot_id)) = (reported, acked) {
                    if new_boot_id > old_boot_id {
                        self.acked_boot.insert(node, new_boot_id);
                        transitions.push((
                            node,
                            HealthEvent::Flapped {
                                old_boot_id,
                                new_boot_id,
                            },
                        ));
                    }
                }
                // A quarantine episode is reported exactly once: on the
                // first poll after the flag appears. A replacement
                // install clears the flag (and the ack), re-arming the
                // edge for any later episode.
                if self.reported_quarantine.get(&node) == Some(&true)
                    && self.acked_quarantine.get(&node) != Some(&true)
                {
                    self.acked_quarantine.insert(node, true);
                    transitions.push((
                        node,
                        HealthEvent::Quarantined {
                            traps: self.reported_traps.get(&node).copied().unwrap_or(0),
                        },
                    ));
                }
            }
        }
        transitions
    }

    /// The current grade of `node` (as of the last poll), if it has ever
    /// heartbeated.
    pub fn health(&self, node: NodeId) -> Option<Health> {
        self.status.get(&node).copied()
    }

    /// Devices currently graded `grade`.
    pub fn graded(&self, grade: Health) -> Vec<NodeId> {
        self.status
            .iter()
            .filter(|(_, h)| **h == grade)
            .map(|(n, _)| *n)
            .collect()
    }

    /// The latest configuration digest `node`'s heartbeats reported.
    pub fn digest(&self, node: NodeId) -> Option<u64> {
        self.digests.get(&node).copied()
    }

    /// The latest boot id `node`'s heartbeats reported.
    pub fn boot_id(&self, node: NodeId) -> Option<u64> {
        self.reported_boot.get(&node).copied()
    }

    /// The admission gate for new transactions, waves, and resyncs: only
    /// a device whose current grade is [`Health::Healthy`] (or that the
    /// detector has never heard of — nothing is known against it) may
    /// participate. `Degraded`/`Suspect`/`Unreachable`/`Dead` devices are
    /// refused with the typed, retryable [`FlexError::DegradedDevice`]
    /// *before* a two-phase commit starts, instead of failing
    /// mid-prepare. For [`Health::Unreachable`] this refusal is the
    /// split-brain guard: the device is still serving traffic behind a
    /// one-way partition, so remedial reprovisioning must wait for the
    /// partition to heal (and the grade to clear) rather than rewrite a
    /// configuration the device is actively using.
    pub fn admit(&self, node: NodeId) -> Result<()> {
        match self.status.get(&node) {
            None | Some(Health::Healthy) => Ok(()),
            Some(grade) => Err(FlexError::DegradedDevice {
                node: u64::from(node.raw()),
                grade: grade.label().to_string(),
            }),
        }
    }
}

impl Default for FailureDetector {
    /// Suspect after 150 ms of silence, dead after 500 ms — a few missed
    /// 50 ms heartbeat periods.
    fn default() -> FailureDetector {
        FailureDetector::new(SimDuration::from_millis(150), SimDuration::from_millis(500))
    }
}

/// Priority class of controller work, most urgent first. The admission
/// queue serves classes *strictly* in this order: remedial work (fault
/// recovery, rollback) preempts resync, resync preempts rollout, and
/// telemetry is served only when nothing else waits. Under overload that
/// ordering is the difference between recovery and collapse — a telemetry
/// flood must never starve the resyncs that end the incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkClass {
    /// Fault recovery: rollbacks, remedial transactions, route repair.
    Remedial,
    /// Intended-state reconciliation of a restarted or diverged device.
    Resync,
    /// Planned change: rollout waves, tenant arrivals.
    Rollout,
    /// Telemetry reports, digest gossip, background polling.
    Telemetry,
}

impl WorkClass {
    /// Every class, most urgent first (serve order).
    pub const ALL: [WorkClass; 4] = [
        WorkClass::Remedial,
        WorkClass::Resync,
        WorkClass::Rollout,
        WorkClass::Telemetry,
    ];

    /// Lane index: 0 = most urgent.
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// A short stable label for errors and test output.
    pub fn label(&self) -> &'static str {
        match self {
            WorkClass::Remedial => "remedial",
            WorkClass::Resync => "resync",
            WorkClass::Rollout => "rollout",
            WorkClass::Telemetry => "telemetry",
        }
    }
}

/// One queued unit of controller work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Admission-order id (unique per queue).
    pub id: u64,
    /// Priority class (serve order).
    pub class: WorkClass,
    /// The device this work concerns, if any.
    pub node: Option<NodeId>,
    /// When the item was admitted.
    pub enqueued_at: SimTime,
    /// Propagated deadline: past this instant the *requester* has given
    /// up (timed out, retried, or moved on), so executing the item buys
    /// nothing. Expired items are shed at pop time, before execution —
    /// serving them is the timeout-amplification that sustains
    /// metastable collapse.
    pub deadline: SimTime,
}

/// Shed/serve accounting for an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Items accepted into the queue.
    pub admitted: u64,
    /// Items handed to an executor.
    pub served: u64,
    /// Items shed because the queue was full (evicted victim or refused
    /// arrival).
    pub shed_capacity: u64,
    /// Items shed at pop time because their deadline had passed.
    pub shed_expired: u64,
    /// Sheds per class lane (indexed by [`WorkClass::index`]).
    pub shed_by_class: [u64; 4],
    /// High-water mark of total queue length.
    pub peak_len: usize,
}

impl QueueStats {
    /// Total items shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_capacity + self.shed_expired
    }
}

/// The controller's front door: a bounded work queue with strict
/// priority classes and deadline-expiry shedding.
///
/// Admission policy when full: an arriving item evicts the *newest* item
/// of the *lowest*-priority occupied lane strictly below its own class
/// (shedding the work the system would serve last anyway); if nothing
/// below it is queued, the arrival itself is refused with the typed,
/// retryable [`FlexError::Backpressure`]. Service policy: lanes drain in
/// class order, and (when deadline shedding is enabled) expired items are
/// discarded unserved — each one costs a counter bump instead of an
/// execution slot.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    cap: usize,
    shed_expired: bool,
    lanes: [VecDeque<WorkItem>; 4],
    next_id: u64,
    /// Shed/serve accounting, readable by the overload governor.
    pub stats: QueueStats,
}

impl AdmissionQueue {
    /// A bounded queue holding at most `cap` items, shedding expired work
    /// at pop time — the protected configuration.
    pub fn bounded(cap: usize) -> AdmissionQueue {
        AdmissionQueue {
            cap: cap.max(1),
            shed_expired: true,
            lanes: Default::default(),
            next_id: 0,
            stats: QueueStats::default(),
        }
    }

    /// An unbounded queue that serves expired work anyway — the
    /// unprotected baseline the chaos suite collapses.
    pub fn unbounded() -> AdmissionQueue {
        AdmissionQueue {
            cap: usize::MAX,
            shed_expired: false,
            lanes: Default::default(),
            next_id: 0,
            stats: QueueStats::default(),
        }
    }

    /// Items currently queued across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// True when no work is queued.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.is_empty())
    }

    /// Admits one item, possibly evicting lower-priority work. Returns
    /// the admission id, or retryable [`FlexError::Backpressure`] when
    /// the queue is full of work at or above `class`.
    pub fn push(
        &mut self,
        class: WorkClass,
        node: Option<NodeId>,
        now: SimTime,
        deadline: SimTime,
    ) -> Result<u64> {
        if self.len() >= self.cap {
            let victim_lane = (class.index() + 1..WorkClass::ALL.len())
                .rev()
                .find(|&i| !self.lanes[i].is_empty());
            match victim_lane {
                Some(i) => {
                    self.lanes[i].pop_back();
                    self.stats.shed_capacity += 1;
                    self.stats.shed_by_class[i] += 1;
                }
                None => {
                    self.stats.shed_capacity += 1;
                    self.stats.shed_by_class[class.index()] += 1;
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
            class,
            node,
            enqueued_at: now,
            deadline,
        });
        self.stats.admitted += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.len());
        Ok(id)
    }

    /// Pops the most urgent live item, shedding (not serving) any item
    /// whose deadline has passed when expiry shedding is enabled.
    pub fn pop(&mut self, now: SimTime) -> Option<WorkItem> {
        for lane in self.lanes.iter_mut() {
            while let Some(item) = lane.pop_front() {
                if self.shed_expired && item.deadline < now {
                    self.stats.shed_expired += 1;
                    self.stats.shed_by_class[item.class.index()] += 1;
                    continue;
                }
                self.stats.served += 1;
                return Some(item);
            }
        }
        None
    }
}

/// A global rate limiter with reservation semantics (a deferral-form
/// GCRA): each grant is a *start time* at least one refill period after
/// the previous grant. A caller whose start time would sit further than
/// `horizon` in the future is denied with the typed, retryable
/// [`FlexError::Backpressure`] — it must requeue, not camp on a
/// reservation. With an unbounded horizon and one caller this degenerates
/// to exactly the old per-queue `min_gap` deferral, which is what keeps
/// the existing resync spacing invariants intact.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    refill: SimDuration,
    horizon: SimDuration,
    tat: SimTime,
    /// Reservations granted.
    pub granted: u64,
    /// Reservations denied (callers told to requeue).
    pub denied: u64,
}

impl TokenBucket {
    /// A bucket granting one reservation per `refill`, willing to book at
    /// most `depth` periods into the future before denying.
    pub fn new(refill: SimDuration, depth: u32) -> TokenBucket {
        TokenBucket {
            refill,
            horizon: SimDuration::from_nanos(refill.as_nanos().saturating_mul(u64::from(depth))),
            tat: SimTime::ZERO,
            granted: 0,
            denied: 0,
        }
    }

    /// The refill period (the guaranteed spacing between grants).
    pub fn refill_period(&self) -> SimDuration {
        self.refill
    }

    /// The earliest instant the next reservation could start.
    pub fn next_free(&self) -> SimTime {
        self.tat
    }

    /// Returns an unused reservation: a caller that reserved a slot but
    /// failed before using it restores the bucket to the
    /// [`next_free`](TokenBucket::next_free) value it snapshotted before
    /// reserving, so the failed start does not consume capacity.
    pub fn release(&mut self, prior_tat: SimTime) {
        self.tat = prior_tat;
        self.granted = self.granted.saturating_sub(1);
    }

    /// Reserves the next slot at `now`. `Ok(start)` is the granted start
    /// time (`start >= now`, spaced ≥ one refill after the previous
    /// grant); `Err(Backpressure)` means the backlog already extends past
    /// the horizon and the caller must requeue and retry later.
    pub fn reserve(&mut self, now: SimTime, what: &str) -> Result<SimTime> {
        let start = self.tat.max(now);
        let wait = start.saturating_since(now);
        if wait > self.horizon {
            self.denied += 1;
            return Err(FlexError::Backpressure {
                what: what.to_string(),
                retry_after: wait,
            });
        }
        let mut tat = start;
        tat += self.refill;
        self.tat = tat;
        self.granted += 1;
        Ok(start)
    }
}

/// The controller's published operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerMode {
    /// Nominal: all work classes admitted.
    Normal,
    /// Sustained shedding detected: new rollouts are paused and heartbeat
    /// intervals widened. Failure detection keeps running (with widened
    /// thresholds) — degrading gracefully means shedding *optional* load,
    /// never the recovery machinery.
    Degraded,
}

impl ControllerMode {
    /// A short stable label for errors and test output.
    pub fn label(&self) -> &'static str {
        match self {
            ControllerMode::Normal => "normal",
            ControllerMode::Degraded => "degraded",
        }
    }
}

/// Watches the admission queue's shed counters and flips the controller
/// between [`ControllerMode::Normal`] and [`ControllerMode::Degraded`]:
/// enough sheds inside a sliding window enter `Degraded`; a quiet period
/// with no sheds exits it. While degraded,
/// [`OverloadGovernor::admit_rollout`] refuses new rollouts with
/// [`FlexError::Backpressure`], and [`OverloadGovernor::heartbeat_period`]
/// plus [`OverloadGovernor::detector_scale`] widen the heartbeat
/// machinery instead of dropping it.
#[derive(Debug, Clone)]
pub struct OverloadGovernor {
    enter_threshold: u64,
    window: SimDuration,
    exit_quiet: SimDuration,
    widen_factor: u64,
    events: VecDeque<(SimTime, u64)>,
    last_total: u64,
    last_shed_at: Option<SimTime>,
    mode: ControllerMode,
    /// Times `Degraded` was entered.
    pub entered: u64,
}

impl OverloadGovernor {
    /// A governor entering `Degraded` after `enter_threshold` sheds
    /// within `window`, and returning to `Normal` after `exit_quiet`
    /// without a shed.
    pub fn new(enter_threshold: u64, window: SimDuration, exit_quiet: SimDuration) -> OverloadGovernor {
        OverloadGovernor {
            enter_threshold: enter_threshold.max(1),
            window,
            exit_quiet,
            widen_factor: 4,
            events: VecDeque::new(),
            last_total: 0,
            last_shed_at: None,
            mode: ControllerMode::Normal,
            entered: 0,
        }
    }

    /// Feeds the governor the queue's *cumulative* shed count at `now`
    /// and returns the (possibly updated) mode. Call once per tick with
    /// `queue.stats.shed_total()`.
    pub fn observe_sheds(&mut self, now: SimTime, total_sheds: u64) -> ControllerMode {
        let delta = total_sheds.saturating_sub(self.last_total);
        self.last_total = self.last_total.max(total_sheds);
        if delta > 0 {
            self.events.push_back((now, delta));
            self.last_shed_at = Some(now);
        }
        while let Some(&(t, _)) = self.events.front() {
            if now.saturating_since(t) > self.window {
                self.events.pop_front();
            } else {
                break;
            }
        }
        let recent: u64 = self.events.iter().map(|(_, n)| n).sum();
        match self.mode {
            ControllerMode::Normal => {
                if recent >= self.enter_threshold {
                    self.mode = ControllerMode::Degraded;
                    self.entered += 1;
                }
            }
            ControllerMode::Degraded => {
                let quiet = self
                    .last_shed_at
                    .map(|t| now.saturating_since(t) >= self.exit_quiet)
                    .unwrap_or(true);
                if quiet {
                    self.mode = ControllerMode::Normal;
                }
            }
        }
        self.mode
    }

    /// The current published mode.
    pub fn mode(&self) -> ControllerMode {
        self.mode
    }

    /// Gate for *new* rollout work: refused (retryable
    /// [`FlexError::Backpressure`]) while degraded. In-flight waves are
    /// not interrupted — pausing means not *starting* more.
    pub fn admit_rollout(&self) -> Result<()> {
        match self.mode {
            ControllerMode::Normal => Ok(()),
            ControllerMode::Degraded => Err(FlexError::Backpressure {
                what: "rollout admission (controller degraded)".to_string(),
                retry_after: self.exit_quiet,
            }),
        }
    }

    /// The heartbeat period devices should use: `base` nominally, widened
    /// by the degradation factor while degraded (fewer beats to serve).
    pub fn heartbeat_period(&self, base: SimDuration) -> SimDuration {
        match self.mode {
            ControllerMode::Normal => base,
            ControllerMode::Degraded => {
                SimDuration::from_nanos(base.as_nanos().saturating_mul(self.widen_factor))
            }
        }
    }

    /// The threshold multiplier to hand [`FailureDetector::widen`]: 1
    /// nominally, the widen factor while degraded — thresholds stretch in
    /// step with the heartbeat period so graded health stays meaningful.
    pub fn detector_scale(&self) -> u64 {
        match self.mode {
            ControllerMode::Normal => 1,
            ControllerMode::Degraded => self.widen_factor,
        }
    }
}

impl Default for OverloadGovernor {
    /// Degraded after 8 sheds inside 200 ms; back to normal after 300 ms
    /// without a shed.
    fn default() -> OverloadGovernor {
        OverloadGovernor::new(
            8,
            SimDuration::from_millis(200),
            SimDuration::from_millis(300),
        )
    }
}

/// The central controller.
#[derive(Debug)]
pub struct Controller {
    /// URI-named app registry (paper §3.4).
    pub apps: AppRegistry,
    /// Tenant lifecycle and composition (paper §3 scenario).
    pub tenants: TenantManager,
    /// dRPC registry and discovery (paper §3.4).
    pub services: ServiceRegistry,
    /// Heartbeat-based device liveness (graceful degradation under faults).
    pub detector: FailureDetector,
    infra_node: NodeId,
}

impl Controller {
    /// Builds a controller over an infrastructure program hosted at
    /// `infra_node`, registering the infra app and its provided dRPC
    /// services.
    pub fn new(infra: ProgramBundle, infra_node: NodeId, now: SimTime) -> Result<Controller> {
        let mut apps = AppRegistry::new();
        let mut services = ServiceRegistry::new();
        let uri = AppUri::infra(&infra.program.name);
        let mut placement = flexnet_compiler::Placement::default();
        placement
            .assignments
            .insert(infra.program.name.clone(), infra_node);
        apps.register(uri, None, placement, now)?;
        for svc in infra.program.services.iter().filter(|s| s.provided) {
            services.register(
                &svc.name,
                infra_node,
                svc.params.len(),
                ExecutionSite::DataPlane,
            )?;
        }
        Ok(Controller {
            apps,
            tenants: TenantManager::new(infra),
            services,
            detector: FailureDetector::default(),
            infra_node,
        })
    }

    /// Collects one round of heartbeats ([`FailureDetector::sweep`]) into
    /// the controller's detector. Each delivered heartbeat carries the
    /// device's boot id and configuration digest. Callers react to
    /// [`HealthEvent::Graded`]`(Dead)` by routing around the device
    /// (`Simulation::recompute_routes` already excludes down devices; for
    /// partitions the caller decides) and to [`HealthEvent::Flapped`] by
    /// resynchronizing it against intended state ([`crate::resync`]).
    pub fn sweep_heartbeats(
        &mut self,
        sim: &Simulation,
        fabric: &mut LossyFabric,
        now: SimTime,
    ) -> Vec<(NodeId, HealthEvent)> {
        self.detector.sweep(sim, fabric, now)
    }

    /// The node hosting the composed infrastructure program.
    pub fn infra_node(&self) -> NodeId {
        self.infra_node
    }

    /// Admits a tenant extension. Returns the assigned VLAN and the new
    /// composed bundle to push to the infrastructure device (via
    /// `Command::RuntimeReconfig`). All or nothing: whatever can refuse the
    /// arrival — the app URI, a namespaced service name, admission — is
    /// asked before anything is taken, so a rejected tenant leaves
    /// `tenants`, `apps`, `services` and the VLAN pool as they were.
    pub fn tenant_arrive(
        &mut self,
        tenant: TenantId,
        extension: ProgramBundle,
        now: SimTime,
    ) -> Result<(VlanId, ProgramBundle)> {
        let app_name = extension.program.name.clone();
        let uri = AppUri::new(&tenant.to_string(), &app_name)
            .unwrap_or_else(|| AppUri::infra(&app_name));
        if (self.apps.lookup(&uri)).is_some_and(|app| app.status != AppStatus::Retired) {
            return Err(FlexError::Conflict(format!("app `{uri}` is already registered")));
        }
        let provided: Vec<(String, usize)> = tenant_services(tenant, &extension)
            .map(|(name, svc)| (name, svc.params.len()))
            .collect();
        if let Some((name, _)) = provided.iter().find(|(n, _)| self.services.discover(n).is_some()) {
            return Err(FlexError::Conflict(format!("service `{name}` already registered")));
        }

        let (vlan, composition) = self.tenants.admit(tenant, extension)?;

        // Register the tenant's app under its URI.
        let mut placement = flexnet_compiler::Placement::default();
        placement.assignments.insert(app_name, self.infra_node);
        self.apps.register(uri, Some(tenant), placement, now)?;

        // Register namespaced tenant-provided services.
        for (namespaced, arity) in provided {
            let site = ExecutionSite::DataPlane;
            self.services.register(&namespaced, self.infra_node, arity, site)?;
        }
        Ok((vlan, composition.bundle))
    }

    /// Removes a tenant. Returns the composed bundle without it (push via
    /// runtime reconfiguration; its resources are reclaimed by the diff's
    /// remove ops).
    pub fn tenant_depart(&mut self, tenant: TenantId) -> Result<ProgramBundle> {
        let departed = self.tenants.depart(tenant)?;
        let (composed, _) = self.tenants.composed()?;
        // Retire the tenant's apps and services.
        let uris: Vec<AppUri> = self
            .apps
            .apps_of_tenant(tenant)
            .iter()
            .map(|r| r.uri.clone())
            .collect();
        for uri in uris {
            self.apps.set_status(&uri, AppStatus::Retired)?;
        }
        // Exactly the names its arrival registered: a name that merely
        // starts with the tenant's prefix may be the operator's.
        for (name, _) in tenant_services(tenant, &departed.bundle) {
            self.services.unregister(&name)?;
        }
        Ok(composed)
    }
}

/// The services `extension` provides, under the names `tenant`'s arrival
/// registers them by.
fn tenant_services(
    tenant: TenantId,
    extension: &ProgramBundle,
) -> impl Iterator<Item = (String, &ServiceDecl)> {
    let prefix = tenant_prefix(tenant);
    let provided = extension.program.services.iter().filter(|s| s.provided);
    provided.map(move |s| (format!("{prefix}{}", s.name), &**s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::parser::parse_source;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn infra() -> ProgramBundle {
        bundle(
            "program infra kind switch {
               counter total;
               service provide migrate_state(dst: u32);
               handler ingress(pkt) { count(total); forward(0); }
             }",
        )
    }

    fn controller() -> Controller {
        Controller::new(infra(), NodeId(0), SimTime::ZERO).unwrap()
    }

    #[test]
    fn new_registers_infra_app_and_services() {
        let c = controller();
        assert!(c.apps.lookup(&AppUri::infra("infra")).is_some());
        assert!(c.services.discover("migrate_state").is_some());
        assert_eq!(c.infra_node(), NodeId(0));
    }

    #[test]
    fn tenant_lifecycle_updates_all_registries() {
        let mut c = controller();
        let ext = bundle(
            "program scrubber kind any {
               counter seen;
               service provide scrub(level: u8);
               handler ingress(pkt) { count(seen); }
             }",
        );
        let (vlan, composed) = c.tenant_arrive(TenantId(7), ext, SimTime::ZERO).unwrap();
        assert!(vlan.is_valid());
        assert!(composed.program.state("t7_seen").is_some());
        let uri = AppUri::new("tenant7", "scrubber").unwrap();
        assert!(c.apps.lookup(&uri).is_some());
        assert!(c.services.discover("t7_scrub").is_some());

        let composed = c.tenant_depart(TenantId(7)).unwrap();
        assert!(composed.program.state("t7_seen").is_none());
        assert_eq!(c.apps.lookup(&uri).unwrap().status, AppStatus::Retired);
        assert!(c.services.discover("t7_scrub").is_none());
    }

    #[test]
    fn depart_unknown_tenant_fails() {
        let mut c = controller();
        assert!(c.tenant_depart(TenantId(42)).is_err());
    }

    #[test]
    fn detector_grades_silence_and_recovers() {
        let mut fd = FailureDetector::new(
            SimDuration::from_millis(150),
            SimDuration::from_millis(500),
        );
        let n = NodeId(3);
        fd.observe(n, SimTime::ZERO);
        assert_eq!(
            fd.poll(SimTime::from_millis(100)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        assert_eq!(
            fd.poll(SimTime::from_millis(200)),
            vec![(n, HealthEvent::Graded(Health::Suspect))]
        );
        assert_eq!(
            fd.poll(SimTime::from_millis(600)),
            vec![(n, HealthEvent::Graded(Health::Dead))]
        );
        assert_eq!(fd.graded(Health::Dead), vec![n]);
        // A heartbeat resurrects it on the next poll. Bare heartbeats
        // carry no incarnation, so this reads as a blip, never a flap.
        fd.observe(n, SimTime::from_millis(700));
        assert_eq!(
            fd.poll(SimTime::from_millis(710)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        // No change, no transition.
        assert!(fd.poll(SimTime::from_millis(720)).is_empty());
    }

    #[test]
    fn dead_device_returning_with_new_boot_id_flaps() {
        let mut fd = FailureDetector::default();
        let n = NodeId(4);
        fd.observe_heartbeat(n, SimTime::ZERO, 1, 0xAAAA);
        assert_eq!(
            fd.poll(SimTime::from_millis(10)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        assert_eq!(
            fd.poll(SimTime::from_millis(600)),
            vec![(n, HealthEvent::Graded(Health::Dead))]
        );
        // Heartbeats resume under boot 2: the device restarted, not blipped.
        fd.observe_heartbeat(n, SimTime::from_millis(700), 2, 0xBBBB);
        let events = fd.poll(SimTime::from_millis(710));
        assert!(
            events.contains(&(n, HealthEvent::Graded(Health::Healthy))),
            "grade stream still reports recovery: {events:?}"
        );
        assert!(
            events.contains(&(
                n,
                HealthEvent::Flapped {
                    old_boot_id: 1,
                    new_boot_id: 2
                }
            )),
            "the restart surfaces as a typed flap: {events:?}"
        );
        assert_eq!(fd.digest(n), Some(0xBBBB), "latest digest cached");
        assert_eq!(fd.boot_id(n), Some(2));
        // The flap is edge-triggered: it is reported exactly once.
        fd.observe_heartbeat(n, SimTime::from_millis(750), 2, 0xBBBB);
        assert!(fd.poll(SimTime::from_millis(760)).is_empty());
    }

    #[test]
    fn reordered_stale_heartbeat_is_rejected_wholesale() {
        // Regression: a reordering fabric delivers a pre-restart beat
        // *after* post-restart ones. Before the monotonicity guard, the
        // stale beat's digest overwrote the cached one (spurious
        // divergence → needless resync) even though its boot id was
        // silently ignored.
        let mut fd = FailureDetector::default();
        let n = NodeId(7);
        fd.observe_heartbeat(n, SimTime::from_millis(100), 1, 0xAAAA);
        fd.poll(SimTime::from_millis(110));
        // The device restarts; beats resume under boot 2.
        assert!(fd.observe_heartbeat(n, SimTime::from_millis(200), 2, 0xBBBB));
        let events = fd.poll(SimTime::from_millis(210));
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, HealthEvent::Flapped { .. })));
        // A manually reordered beat: sent at t=150 under boot 1, delivered
        // only now. Both its time and its boot id are stale.
        assert!(
            !fd.observe_heartbeat(n, SimTime::from_millis(150), 1, 0xAAAA),
            "stale beat must be rejected"
        );
        assert_eq!(fd.digest(n), Some(0xBBBB), "digest must not regress");
        assert_eq!(fd.boot_id(n), Some(2), "boot id must not regress");
        assert!(
            fd.poll(SimTime::from_millis(220)).is_empty(),
            "no spurious flap or grade change from the stale beat"
        );
        // Stale-boot-only (fresh timestamp, old incarnation) is equally
        // rejected — a duplicated pre-restart beat delivered late.
        assert!(!fd.observe_heartbeat(n, SimTime::from_millis(230), 1, 0xAAAA));
        assert_eq!(fd.digest(n), Some(0xBBBB));
        assert!(fd.poll(SimTime::from_millis(240)).is_empty());
    }

    #[test]
    fn stale_heartbeat_health_judges_nothing() {
        // The counters on a reordered beat describe a dead incarnation;
        // they must not re-baseline or grade the data path.
        let mut fd = FailureDetector::default();
        let n = NodeId(8);
        let clean = DataPathHealth {
            processed: 1000,
            dropped: 0,
            traps: 0,
            quarantined: false,
        };
        fd.observe_heartbeat_health(n, SimTime::from_millis(100), 2, 0xBBBB, clean);
        fd.poll(SimTime::from_millis(110));
        // Stale beat claiming a quarantine from the old incarnation.
        let poisoned = DataPathHealth {
            processed: 500,
            dropped: 400,
            traps: 400,
            quarantined: true,
        };
        fd.observe_heartbeat_health(n, SimTime::from_millis(50), 1, 0xAAAA, poisoned);
        assert!(!fd.quarantine_reported(n), "stale quarantine flag ignored");
        assert!(
            fd.poll(SimTime::from_millis(120)).is_empty(),
            "no Degraded/Quarantined events from a stale beat"
        );
    }

    #[test]
    fn one_way_partition_grades_unreachable_not_dead() {
        let mut fd = FailureDetector::default();
        let n = NodeId(9);
        fd.observe_heartbeat(n, SimTime::ZERO, 1, 0xAAAA);
        fd.poll(SimTime::from_millis(10));
        // Heartbeats go silent (device→controller direction severed), but
        // the device's traffic keeps arriving downstream: liveness hints.
        fd.note_liveness_hint(n, SimTime::from_millis(550));
        let events = fd.poll(SimTime::from_millis(600));
        assert_eq!(
            events,
            vec![(n, HealthEvent::Graded(Health::Unreachable))],
            "fresh hints + dead-level silence = one-way partition"
        );
        assert_eq!(fd.health(n), Some(Health::Unreachable));
        // Admission refuses it (split-brain guard), retryably, with the
        // stable grade token.
        match fd.admit(n) {
            Err(FlexError::DegradedDevice { node, grade }) => {
                assert_eq!(node, 9);
                assert_eq!(grade, "unreachable");
            }
            other => panic!("expected DegradedDevice, got {other:?}"),
        }
        assert!(fd.admit(n).unwrap_err().is_retryable());
        // Hints age out: with no fresh evidence the grade hardens to Dead.
        let events = fd.poll(SimTime::from_millis(1200));
        assert_eq!(events, vec![(n, HealthEvent::Graded(Health::Dead))]);
        // The partition heals: a punctual beat restores Healthy.
        fd.observe_heartbeat(n, SimTime::from_millis(1250), 1, 0xAAAA);
        assert_eq!(
            fd.poll(SimTime::from_millis(1260)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
    }

    #[test]
    fn liveness_hints_never_feed_the_silence_clock() {
        // A hint is not a heartbeat: a device whose control channel is
        // merely *slow* (Suspect) must not be kept Healthy by hints.
        let mut fd = FailureDetector::default();
        let n = NodeId(10);
        fd.observe(n, SimTime::ZERO);
        fd.poll(SimTime::from_millis(10));
        fd.note_liveness_hint(n, SimTime::from_millis(190));
        assert_eq!(
            fd.poll(SimTime::from_millis(200)),
            vec![(n, HealthEvent::Graded(Health::Suspect))],
            "hints only soften Dead into Unreachable, nothing else"
        );
    }

    #[test]
    fn same_boot_id_recovery_is_a_blip_not_a_flap() {
        let mut fd = FailureDetector::default();
        let n = NodeId(5);
        fd.observe_heartbeat(n, SimTime::ZERO, 3, 0xCCCC);
        fd.poll(SimTime::from_millis(10));
        fd.poll(SimTime::from_millis(600)); // graded Dead
        // Same incarnation resumes: a partition healed; state is intact.
        fd.observe_heartbeat(n, SimTime::from_millis(700), 3, 0xCCCC);
        assert_eq!(
            fd.poll(SimTime::from_millis(710)),
            vec![(n, HealthEvent::Graded(Health::Healthy))],
            "no flap without a boot-id advance"
        );
    }

    #[test]
    fn restart_faster_than_a_heartbeat_period_still_flaps() {
        let mut fd = FailureDetector::default();
        let n = NodeId(6);
        fd.observe_heartbeat(n, SimTime::ZERO, 1, 0xDDDD);
        fd.poll(SimTime::from_millis(10));
        // The next heartbeat already carries boot 2 — the device crashed
        // and restarted between periods, never missing enough beats to be
        // suspected. The wiped state must still be reported.
        fd.observe_heartbeat(n, SimTime::from_millis(50), 2, 0xEEEE);
        assert_eq!(
            fd.poll(SimTime::from_millis(60)),
            vec![(
                n,
                HealthEvent::Flapped {
                    old_boot_id: 1,
                    new_boot_id: 2
                }
            )]
        );
    }

    #[test]
    fn punctual_but_dropping_device_grades_degraded() {
        let mut fd = FailureDetector::default();
        let n = NodeId(7);
        let hb = |fd: &mut FailureDetector, ms, processed, dropped| {
            fd.observe_heartbeat_health(
                n,
                SimTime::from_millis(ms),
                1,
                0xF00,
                DataPathHealth {
                    processed,
                    dropped,
                    ..Default::default()
                },
            );
        };
        hb(&mut fd, 0, 0, 0);
        assert_eq!(
            fd.poll(SimTime::from_millis(10)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        // 100 processed since the baseline, 50 dropped: a 50% slope, far
        // over the 20% threshold — and the heartbeats are on time.
        hb(&mut fd, 50, 100, 50);
        assert_eq!(
            fd.poll(SimTime::from_millis(60)),
            vec![(n, HealthEvent::Graded(Health::Degraded))],
            "alive but wrong is its own grade, not Healthy"
        );
        let refused = fd.admit(n).unwrap_err();
        assert!(matches!(refused, FlexError::DegradedDevice { .. }));
        assert!(refused.is_retryable(), "grades clear; callers may retry");
        // The next interval forwards cleanly: the grade clears.
        hb(&mut fd, 100, 300, 50);
        assert_eq!(
            fd.poll(SimTime::from_millis(110)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        assert!(fd.admit(n).is_ok());
    }

    #[test]
    fn degrade_judgment_needs_samples_and_rebaselines_on_restart() {
        let mut fd = FailureDetector::default();
        let n = NodeId(8);
        fd.observe_heartbeat_health(n, SimTime::ZERO, 1, 0, DataPathHealth::default());
        // 4 packets, all dropped: under the 8-packet sample floor, so no
        // verdict — a handful of drops is noise.
        fd.observe_heartbeat_health(
            n,
            SimTime::from_millis(50),
            1,
            0,
            DataPathHealth {
                processed: 4,
                dropped: 4,
                ..Default::default()
            },
        );
        assert_eq!(
            fd.poll(SimTime::from_millis(60)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        // Four more all-dropped packets accumulate past the floor against
        // the *original* baseline: now it is a judgeable 100% slope.
        fd.observe_heartbeat_health(
            n,
            SimTime::from_millis(100),
            1,
            0,
            DataPathHealth {
                processed: 9,
                dropped: 9,
                ..Default::default()
            },
        );
        assert_eq!(
            fd.poll(SimTime::from_millis(110)),
            vec![(n, HealthEvent::Graded(Health::Degraded))]
        );
        // A restart wipes the counters (they go backwards): re-baseline
        // and clear — the new incarnation has not yet misbehaved.
        fd.observe_heartbeat_health(
            n,
            SimTime::from_millis(150),
            2,
            0,
            DataPathHealth {
                processed: 1,
                dropped: 0,
                ..Default::default()
            },
        );
        let events = fd.poll(SimTime::from_millis(160));
        assert!(events.contains(&(n, HealthEvent::Graded(Health::Healthy))));
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, HealthEvent::Flapped { .. })),
            "the boot-id advance still reports: {events:?}"
        );
    }

    #[test]
    fn quarantine_flag_degrades_and_reports_one_edge_per_episode() {
        let mut fd = FailureDetector::default();
        let n = NodeId(11);
        let hb = |fd: &mut FailureDetector, ms, quarantined, traps| {
            fd.observe_heartbeat_health(
                n,
                SimTime::from_millis(ms),
                1,
                0xF00,
                DataPathHealth {
                    processed: 100 + ms,
                    dropped: 0,
                    traps,
                    quarantined,
                },
            );
        };
        hb(&mut fd, 0, false, 0);
        assert_eq!(
            fd.poll(SimTime::from_millis(10)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        // The device judged its own program and swapped it out: the flag
        // is authoritative even though the drop slope is pristine.
        hb(&mut fd, 50, true, 37);
        let events = fd.poll(SimTime::from_millis(60));
        assert!(events.contains(&(n, HealthEvent::Graded(Health::Degraded))));
        assert!(
            events.contains(&(n, HealthEvent::Quarantined { traps: 37 })),
            "quarantine episode reports with its trap count: {events:?}"
        );
        assert!(fd.quarantine_reported(n));
        assert!(matches!(
            fd.admit(n).unwrap_err(),
            FlexError::DegradedDevice { .. }
        ));
        // The flag persists: degraded holds, but the edge fired already.
        hb(&mut fd, 100, true, 37);
        assert_eq!(
            fd.poll(SimTime::from_millis(110)),
            vec![],
            "one Quarantined event per episode, not per heartbeat"
        );
        // A replacement install lifts the flag: the grade clears and the
        // edge re-arms for any later episode.
        hb(&mut fd, 150, false, 37);
        assert_eq!(
            fd.poll(SimTime::from_millis(160)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
        assert!(fd.admit(n).is_ok());
        hb(&mut fd, 200, true, 41);
        let events = fd.poll(SimTime::from_millis(210));
        assert!(
            events.contains(&(n, HealthEvent::Quarantined { traps: 41 })),
            "a second episode reports its own edge: {events:?}"
        );
    }

    #[test]
    fn admission_gate_refuses_every_unhealthy_grade() {
        let mut fd = FailureDetector::default();
        let (a, b) = (NodeId(1), NodeId(2));
        fd.observe(a, SimTime::ZERO);
        fd.observe(b, SimTime::ZERO);
        fd.poll(SimTime::from_millis(200)); // both Suspect
        for n in [a, b] {
            let e = fd.admit(n).unwrap_err();
            assert!(e.to_string().contains("suspect"), "{e}");
        }
        fd.poll(SimTime::from_millis(900)); // both Dead
        assert!(fd.admit(a).unwrap_err().to_string().contains("dead"));
        // A node the detector has never heard of: nothing against it.
        assert!(fd.admit(NodeId(99)).is_ok());
    }

    #[test]
    fn sweep_marks_crashed_device_dead() {
        use flexnet_sim::{Simulation, Topology};
        let (topo, sw, _hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        let mut c = controller();
        let mut fabric = crate::retry::LossyFabric::reliable();
        // Heartbeats every 50 ms; the switch crashes at 200 ms.
        for ms in (0..=200).step_by(50) {
            c.sweep_heartbeats(&sim, &mut fabric, SimTime::from_millis(ms));
        }
        sim.topo
            .node_mut(sw)
            .unwrap()
            .device
            .crash(SimTime::from_millis(200));
        let mut dead_at = None;
        for ms in (250..=1000).step_by(50) {
            let tr = c.sweep_heartbeats(&sim, &mut fabric, SimTime::from_millis(ms));
            if tr
                .iter()
                .any(|(n, h)| *n == sw && *h == HealthEvent::Graded(Health::Dead))
            {
                dead_at = Some(ms);
                break;
            }
        }
        let dead_at = dead_at.expect("crashed switch declared dead");
        assert!(
            dead_at <= 750,
            "detection bounded by dead_after + one period, got {dead_at} ms"
        );
        // The hosts kept heartbeating and stay healthy.
        assert_eq!(c.detector.graded(Health::Dead), vec![sw]);
    }

    #[test]
    fn delayed_but_alive_heartbeats_do_not_flap() {
        // Heartbeats that arrive *late* — silence oscillating around the
        // suspect threshold — used to flap the grade Healthy↔Suspect on
        // every poll. The hysteresis band holds Suspect until silence
        // drops below the recovery floor (suspect_after / 2 = 75 ms).
        let mut fd = FailureDetector::new(
            SimDuration::from_millis(150),
            SimDuration::from_millis(500),
        );
        let n = NodeId(1);
        fd.observe(n, SimTime::ZERO);
        fd.poll(SimTime::from_millis(10)); // baseline Healthy
        // Silence crosses the threshold: graded Suspect.
        assert_eq!(
            fd.poll(SimTime::from_millis(155)),
            vec![(n, HealthEvent::Graded(Health::Suspect))]
        );
        // A late beat lands; at the next poll silence is back down to
        // 90 ms — below suspect_after but inside the hysteresis band.
        // Without hysteresis this would re-grade Healthy (and the next
        // late beat would flip it Suspect again, forever).
        fd.observe(n, SimTime::from_millis(160));
        assert!(
            fd.poll(SimTime::from_millis(250)).is_empty(),
            "silence in [recover_after, suspect_after) holds the grade"
        );
        assert_eq!(fd.health(n), Some(Health::Suspect));
        // Another late-but-alive cycle: still held, still no transitions.
        fd.observe(n, SimTime::from_millis(320));
        assert!(fd.poll(SimTime::from_millis(410)).is_empty());
        // A punctual beat (silence 10 ms < 75 ms) genuinely recovers it:
        // exactly one transition back to Healthy over the whole episode.
        fd.observe(n, SimTime::from_millis(480));
        assert_eq!(
            fd.poll(SimTime::from_millis(490)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
        );
    }

    #[test]
    fn queue_delay_alone_never_grades_degraded() {
        // A slow controller polls late, but the device heartbeats
        // punctually with a clean data path. Degraded is a *data-path*
        // verdict: controller-side queue delay must not trigger it, and
        // with widened thresholds late polling doesn't even Suspect it.
        let mut fd = FailureDetector::default();
        let n = NodeId(2);
        let hb = |fd: &mut FailureDetector, ms, processed| {
            fd.observe_heartbeat_health(
                n,
                SimTime::from_millis(ms),
                1,
                0xABC,
                DataPathHealth {
                    processed,
                    dropped: 0,
                    ..Default::default()
                },
            );
        };
        hb(&mut fd, 0, 0);
        fd.poll(SimTime::from_millis(10));
        // The controller falls behind: polls lag each beat by 200 ms.
        // At nominal thresholds that reads as Suspect — so the governor
        // widens the detector 4× and the grade stays Healthy throughout.
        fd.widen(4);
        for ms in (50..=450).step_by(50) {
            hb(&mut fd, ms, ms);
        }
        let events = fd.poll(SimTime::from_millis(650)); // 200 ms behind
        assert!(
            events.is_empty(),
            "punctual clean heartbeats + widened thresholds: no transitions, got {events:?}"
        );
        assert_eq!(fd.health(n), Some(Health::Healthy));
        assert!(
            !events
                .iter()
                .any(|(_, e)| *e == HealthEvent::Graded(Health::Degraded)),
            "Degraded must come from drop slope, never queue delay"
        );
        // Back to nominal scale with punctual polls: still healthy.
        fd.widen(1);
        hb(&mut fd, 700, 700);
        assert!(fd.poll(SimTime::from_millis(710)).is_empty());
    }

    #[test]
    fn admission_queue_serves_strict_priority_and_sheds_lowest_first() {
        let mut q = AdmissionQueue::bounded(3);
        let now = SimTime::ZERO;
        let far = SimTime::from_millis(1_000);
        q.push(WorkClass::Telemetry, Some(NodeId(1)), now, far).unwrap();
        q.push(WorkClass::Rollout, Some(NodeId(2)), now, far).unwrap();
        q.push(WorkClass::Telemetry, Some(NodeId(3)), now, far).unwrap();
        // Queue full: a resync evicts the newest telemetry item (node 3).
        q.push(WorkClass::Resync, Some(NodeId(4)), now, far).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.stats.shed_capacity, 1);
        assert_eq!(q.stats.shed_by_class[WorkClass::Telemetry.index()], 1);
        let telemetry = &q.lanes[WorkClass::Telemetry.index()];
        assert!(telemetry.iter().all(|w| w.node != Some(NodeId(3))));
        // Remedial work evicts the remaining telemetry.
        q.push(WorkClass::Remedial, Some(NodeId(5)), now, far).unwrap();
        // Serve order is strictly by class, not arrival: remedial,
        // resync, rollout.
        let order: Vec<WorkClass> = std::iter::from_fn(|| q.pop(now)).map(|w| w.class).collect();
        assert_eq!(
            order,
            vec![WorkClass::Remedial, WorkClass::Resync, WorkClass::Rollout]
        );
        assert_eq!(q.stats.served, 3);
    }

    #[test]
    fn full_queue_of_higher_priority_work_refuses_with_backpressure() {
        let mut q = AdmissionQueue::bounded(2);
        let now = SimTime::ZERO;
        let far = SimTime::from_millis(1_000);
        q.push(WorkClass::Remedial, None, now, far).unwrap();
        q.push(WorkClass::Resync, None, now, far).unwrap();
        // Telemetry cannot evict work above its own class.
        let refused = q
            .push(WorkClass::Telemetry, Some(NodeId(9)), now, far)
            .unwrap_err();
        assert!(matches!(refused, FlexError::Backpressure { .. }), "{refused}");
        assert!(refused.is_retryable(), "backpressure means requeue, not drop");
        assert_eq!(q.len(), 2, "queued work untouched");
    }

    #[test]
    fn admission_queue_sheds_expired_work_before_execution() {
        let mut q = AdmissionQueue::bounded(16);
        let t0 = SimTime::ZERO;
        // Three telemetry items whose requesters time out at 50 ms, one
        // resync good until 500 ms.
        for n in 1..=3 {
            q.push(WorkClass::Telemetry, Some(NodeId(n)), t0, SimTime::from_millis(50))
                .unwrap();
        }
        q.push(WorkClass::Resync, Some(NodeId(7)), t0, SimTime::from_millis(500))
            .unwrap();
        // By the time the executor gets there, the telemetry deadlines
        // have passed: the resync is served, the stale telemetry shed
        // unserved (serving it would be pure timeout-amplification).
        let now = SimTime::from_millis(100);
        let served = q.pop(now).unwrap();
        assert_eq!(served.class, WorkClass::Resync);
        assert!(q.pop(now).is_none());
        assert_eq!(q.stats.shed_expired, 3);
        assert_eq!(q.stats.served, 1);
        // The unprotected queue happily serves the same stale work.
        let mut unprot = AdmissionQueue::unbounded();
        unprot
            .push(WorkClass::Telemetry, None, t0, SimTime::from_millis(50))
            .unwrap();
        assert!(unprot.pop(SimTime::from_millis(100)).is_some());
    }

    #[test]
    fn token_bucket_defers_then_denies_beyond_horizon() {
        // One grant per 25 ms, booking at most 2 periods ahead.
        let mut tb = TokenBucket::new(SimDuration::from_millis(25), 2);
        let now = SimTime::ZERO;
        // First grant is immediate; the next two defer by exactly one
        // refill each (the old min_gap spacing, now global).
        assert_eq!(tb.reserve(now, "resync").unwrap(), SimTime::ZERO);
        assert_eq!(tb.reserve(now, "resync").unwrap(), SimTime::from_millis(25));
        assert_eq!(tb.reserve(now, "resync").unwrap(), SimTime::from_millis(50));
        // The fourth would start 75 ms out — past the 50 ms horizon.
        let denied = tb.reserve(now, "resync").unwrap_err();
        assert!(matches!(denied, FlexError::Backpressure { .. }), "{denied}");
        assert!(denied.is_retryable());
        assert_eq!((tb.granted, tb.denied), (3, 1));
        // Once time passes the backlog, reservations flow again.
        let later = SimTime::from_millis(75);
        assert_eq!(tb.reserve(later, "resync").unwrap(), later);
    }

    #[test]
    fn governor_enters_degraded_under_sustained_shed_and_recovers() {
        let mut gov = OverloadGovernor::new(
            4,
            SimDuration::from_millis(100),
            SimDuration::from_millis(200),
        );
        assert_eq!(gov.mode(), ControllerMode::Normal);
        assert!(gov.admit_rollout().is_ok());
        // 3 sheds in the window: still normal.
        assert_eq!(
            gov.observe_sheds(SimTime::from_millis(10), 3),
            ControllerMode::Normal
        );
        // The 4th shed trips it.
        assert_eq!(
            gov.observe_sheds(SimTime::from_millis(20), 4),
            ControllerMode::Degraded
        );
        assert_eq!(gov.entered, 1);
        let paused = gov.admit_rollout().unwrap_err();
        assert!(matches!(paused, FlexError::Backpressure { .. }), "{paused}");
        assert!(paused.is_retryable(), "rollouts resume after recovery");
        // Degradation widens the heartbeat machinery instead of
        // dropping failure detection.
        let base = SimDuration::from_millis(50);
        assert_eq!(gov.heartbeat_period(base), SimDuration::from_millis(200));
        assert_eq!(gov.detector_scale(), 4);
        // Sheds keep trickling: stays degraded.
        assert_eq!(
            gov.observe_sheds(SimTime::from_millis(150), 5),
            ControllerMode::Degraded
        );
        // 200 ms of quiet exits back to normal, and the widening reverts.
        assert_eq!(
            gov.observe_sheds(SimTime::from_millis(360), 5),
            ControllerMode::Normal
        );
        assert!(gov.admit_rollout().is_ok());
        assert_eq!(gov.heartbeat_period(base), base);
        assert_eq!(gov.detector_scale(), 1);
    }

    #[test]
    fn malicious_tenant_rejected_cleanly() {
        let mut c = controller();
        let evil = bundle("program evil { handler ingress(pkt) { count(total); } }");
        assert!(c.tenant_arrive(TenantId(3), evil, SimTime::ZERO).is_err());
        // Nothing was registered.
        assert!(c.apps.apps_of_tenant(TenantId(3)).is_empty());
        assert_eq!(c.tenants.tenants().len(), 0);
    }
}
