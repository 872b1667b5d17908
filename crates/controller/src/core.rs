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
use flexnet_types::{AppUri, FlexError, NodeId, Result, SimDuration, SimTime, TenantId, VlanId};
use std::collections::BTreeMap;

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
    /// Multiplier applied to every silence threshold (≥ 1). The E17
    /// suite's overload governor widens this in degraded mode so a slow
    /// controller does not misread its *own* queueing delay as device
    /// death.
    period_scale: u64,
    /// Drop slope (dropped/processed between heartbeats, ppm) at or
    /// above which a punctual device is graded [`Health::Degraded`].
    degrade_threshold_ppm: u64,
    /// Minimum processed-packet delta before a slope is judged — a
    /// handful of packets is noise, not a health signal.
    degrade_min_sample: u64,
    /// What the detector knows of each node, in `NodeId` order (the order
    /// of `poll` and `graded`).
    nodes: BTreeMap<NodeId, NodeView>,
    /// Ablation hook for the E20 chaos suite: `false` disables the
    /// heartbeat monotonicity guard so the protections-off arm can
    /// demonstrate the damage reordered beats do. Always `true` in
    /// production paths.
    pub monotone_guard: bool,
}

/// One node as the [`FailureDetector`] sees it.
#[derive(Debug, Clone, Default)]
struct NodeView {
    /// Send time of the latest heartbeat; `None` for a node known only
    /// from a liveness hint, which `poll` does not grade.
    last_seen: Option<SimTime>,
    /// The grade as of the last poll.
    status: Option<Health>,
    /// Latest boot id the node's heartbeats reported.
    reported_boot: Option<u64>,
    /// Boot id last acknowledged by a poll (flap detection edge); set by
    /// the first full heartbeat, so it is meaningful once `reported_boot`
    /// is.
    acked_boot: u64,
    /// Latest config digest the node's heartbeats reported.
    digest: Option<u64>,
    /// Data-path counters at the last judged heartbeat.
    counters: Option<DataPathHealth>,
    /// Whether the last judged slope exceeded the degrade threshold.
    datapath_degraded: bool,
    /// Latest sandbox-quarantine flag the node's heartbeats reported.
    reported_quarantine: bool,
    /// Whether a poll already surfaced the current quarantine episode.
    acked_quarantine: bool,
    /// Cumulative trap count from the latest heartbeat.
    reported_traps: u64,
    /// Latest *indirect* liveness evidence (data-plane counters advancing,
    /// a peer relaying the node's traffic). Distinguishes a
    /// one-way-partitioned device ([`Health::Unreachable`]) from a dead
    /// one: heartbeats silent in both cases, but only the former keeps
    /// producing hints.
    liveness_hint: Option<SimTime>,
}

/// Moves `slot` forward to `now`, never back.
fn advance(slot: &mut Option<SimTime>, now: SimTime) {
    *slot = Some(slot.map_or(now, |t| t.max(now)));
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
            nodes: BTreeMap::new(),
            monotone_guard: true,
        }
    }

    /// Scales every silence threshold by `scale` (clamped to ≥ 1). The
    /// E17 suite's overload governor calls this entering/leaving degraded
    /// mode:
    /// widened thresholds keep failure detection *running* under overload
    /// — late heartbeats are tolerated rather than misgraded — instead of
    /// dropping it.
    pub fn widen(&mut self, scale: u64) {
        self.period_scale = scale.max(1);
    }

    /// Records a bare heartbeat from `node` at `now` (liveness only — no
    /// incarnation or digest payload; flap detection stays quiet).
    pub fn observe(&mut self, node: NodeId, now: SimTime) {
        advance(&mut self.nodes.entry(node).or_default().last_seen, now);
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
        self.heartbeat(node, now, boot_id, digest).is_some()
    }

    /// [`FailureDetector::observe_heartbeat`], handing back the node's
    /// view when the beat was fresh.
    fn heartbeat(
        &mut self,
        node: NodeId,
        now: SimTime,
        boot_id: u64,
        digest: u64,
    ) -> Option<&mut NodeView> {
        let view = self.nodes.entry(node).or_default();
        let stale_time = view.last_seen.is_some_and(|seen| now < seen);
        let stale_boot = view
            .reported_boot
            .is_some_and(|reported| boot_id < reported);
        if self.monotone_guard && (stale_time || stale_boot) {
            return None;
        }
        advance(&mut view.last_seen, now);
        // The first heartbeat establishes the baseline incarnation: a
        // device the controller has never seen cannot have flapped.
        if view.reported_boot.replace(boot_id).is_none() {
            view.acked_boot = boot_id;
        }
        view.digest = Some(digest);
        Some(view)
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
        let (min_sample, threshold_ppm) = (self.degrade_min_sample, self.degrade_threshold_ppm);
        let Some(view) = self.heartbeat(node, now, boot_id, digest) else {
            // Stale (reordered) beat: its counters describe a past the
            // detector has already moved beyond — judge nothing from it.
            return;
        };
        // The quarantine flag is authoritative, not a slope: the device
        // itself judged its program and swapped it out. Record it before
        // any sampling-floor early return, and clear the episode edge
        // when a replacement install lifts it.
        view.reported_quarantine = health.quarantined;
        view.reported_traps = health.traps;
        if !health.quarantined {
            view.acked_quarantine = false;
        }
        let prev = *view.counters.get_or_insert(health);
        if health.processed < prev.processed || health.dropped < prev.dropped {
            view.counters = Some(health);
            view.datapath_degraded = health.quarantined;
            return;
        }
        let d_processed = health.processed - prev.processed;
        if d_processed >= min_sample {
            let d_dropped = health.dropped - prev.dropped;
            view.counters = Some(health);
            view.datapath_degraded =
                health.quarantined || d_dropped * 1_000_000 / d_processed >= threshold_ppm;
        } else if health.quarantined {
            view.datapath_degraded = true;
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
        self.nodes.get(&node).is_some_and(|v| v.reported_quarantine)
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
        advance(&mut self.nodes.entry(node).or_default().liveness_hint, now);
    }

    /// Re-grades every known device at `now` and returns the typed
    /// transitions since the last poll: grade changes as
    /// [`HealthEvent::Graded`], plus one [`HealthEvent::Flapped`] for
    /// every device whose heartbeats resumed under a new boot id.
    pub fn poll(&mut self, now: SimTime) -> Vec<(NodeId, HealthEvent)> {
        let scale = |d: SimDuration| {
            SimDuration::from_nanos(d.as_nanos().saturating_mul(self.period_scale))
        };
        let (suspect_after, dead_after, recover_after) = (
            scale(self.suspect_after),
            scale(self.dead_after),
            scale(self.recover_after),
        );
        let mut transitions = Vec::new();
        for (&node, view) in &mut self.nodes {
            let Some(seen) = view.last_seen else { continue };
            let silence = now.saturating_since(seen);
            let prev_grade = view.status;
            let health = if silence >= dead_after {
                // Heartbeat-dead. Before declaring the device gone,
                // consult indirect evidence: a fresh liveness hint means
                // the device is alive and forwarding — we just cannot
                // hear it (one-way partition). Grade it Unreachable so
                // admission refuses it but nothing *remediates* it.
                let hint_fresh = view
                    .liveness_hint
                    .is_some_and(|h| now.saturating_since(h) < dead_after);
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
            } else if view.datapath_degraded {
                // Punctual heartbeats, misbehaving data path: gray.
                Health::Degraded
            } else {
                Health::Healthy
            };
            if view.status.replace(health) != Some(health) {
                transitions.push((node, HealthEvent::Graded(health)));
            }
            // A boot-id advance is reported once the device is heartbeating
            // again — whether or not the detector ever graded it Dead (a
            // restart faster than one heartbeat period still wipes state).
            // Degraded devices are heartbeating too, so their flaps report.
            if health <= Health::Degraded {
                let old_boot_id = view.acked_boot;
                if let Some(new_boot_id) = view.reported_boot.filter(|&b| b > old_boot_id) {
                    view.acked_boot = new_boot_id;
                    transitions.push((
                        node,
                        HealthEvent::Flapped {
                            old_boot_id,
                            new_boot_id,
                        },
                    ));
                }
                // A quarantine episode is reported exactly once: on the
                // first poll after the flag appears. A replacement
                // install clears the flag (and the ack), re-arming the
                // edge for any later episode.
                if view.reported_quarantine && !view.acked_quarantine {
                    view.acked_quarantine = true;
                    transitions.push((
                        node,
                        HealthEvent::Quarantined {
                            traps: view.reported_traps,
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
        self.nodes.get(&node).and_then(|v| v.status)
    }

    /// Devices currently graded `grade`.
    pub fn graded(&self, grade: Health) -> Vec<NodeId> {
        (self.nodes.iter())
            .filter(|(_, v)| v.status == Some(grade))
            .map(|(n, _)| *n)
            .collect()
    }

    /// The latest configuration digest `node`'s heartbeats reported.
    pub fn digest(&self, node: NodeId) -> Option<u64> {
        self.nodes.get(&node).and_then(|v| v.digest)
    }

    /// The latest boot id `node`'s heartbeats reported.
    pub fn boot_id(&self, node: NodeId) -> Option<u64> {
        self.nodes.get(&node).and_then(|v| v.reported_boot)
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
        match self.health(node) {
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
        let uri =
            AppUri::new(&tenant.to_string(), &app_name).unwrap_or_else(|| AppUri::infra(&app_name));
        if (self.apps.lookup(&uri)).is_some_and(|app| app.status != AppStatus::Retired) {
            return Err(FlexError::Conflict(format!(
                "app `{uri}` is already registered"
            )));
        }
        let provided: Vec<(String, usize)> = tenant_services(tenant, &extension)
            .map(|(name, svc)| (name, svc.params.len()))
            .collect();
        if let Some((name, _)) = provided
            .iter()
            .find(|(n, _)| self.services.discover(n).is_some())
        {
            return Err(FlexError::Conflict(format!(
                "service `{name}` already registered"
            )));
        }

        let (vlan, composition) = self.tenants.admit(tenant, extension)?;

        // Register the tenant's app under its URI.
        let mut placement = flexnet_compiler::Placement::default();
        placement.assignments.insert(app_name, self.infra_node);
        self.apps.register(uri, Some(tenant), placement, now)?;

        // Register namespaced tenant-provided services.
        for (namespaced, arity) in provided {
            let site = ExecutionSite::DataPlane;
            self.services
                .register(&namespaced, self.infra_node, arity, site)?;
        }
        Ok((vlan, composition.bundle))
    }

    /// Removes a tenant, retiring its apps and services. The composition
    /// without it is [`TenantManager::composed`] (push it via runtime
    /// reconfiguration; the tenant's resources are reclaimed by the diff's
    /// remove ops). A departure composes nothing itself: when an arrival
    /// follows, the composition that ships is the one the arrival returns.
    pub fn tenant_depart(&mut self, tenant: TenantId) -> Result<()> {
        let departed = self.tenants.depart(tenant)?;
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
        Ok(())
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

        c.tenant_depart(TenantId(7)).unwrap();
        let (composed, _) = c.tenants.composed().unwrap();
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
        let mut fd =
            FailureDetector::new(SimDuration::from_millis(150), SimDuration::from_millis(500));
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
    fn a_hint_for_a_node_that_never_heartbeated_grades_nothing() {
        let mut fd = FailureDetector::default();
        let n = NodeId(11);
        fd.note_liveness_hint(n, SimTime::from_millis(10));
        for ms in [20, 400, 2_000] {
            assert_eq!(fd.poll(SimTime::from_millis(ms)), vec![]);
        }
        assert_eq!(fd.health(n), None);
        assert!(fd.graded(Health::Unreachable).is_empty());
        fd.admit(n).unwrap();
        // Its first heartbeat starts the grading as for any new node.
        fd.observe(n, SimTime::from_millis(2_000));
        assert_eq!(
            fd.poll(SimTime::from_millis(2_010)),
            vec![(n, HealthEvent::Graded(Health::Healthy))]
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
        let mut fd =
            FailureDetector::new(SimDuration::from_millis(150), SimDuration::from_millis(500));
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
    fn malicious_tenant_rejected_cleanly() {
        let mut c = controller();
        let evil = bundle("program evil { handler ingress(pkt) { count(total); } }");
        assert!(c.tenant_arrive(TenantId(3), evil, SimTime::ZERO).is_err());
        // Nothing was registered.
        assert!(c.apps.apps_of_tenant(TenantId(3)).is_empty());
        assert_eq!(c.tenants.tenants().len(), 0);
    }
}
