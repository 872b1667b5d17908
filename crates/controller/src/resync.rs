//! Device restart recovery: intended-state reconciliation with
//! digest-based anti-entropy and hitless re-provisioning (experiment
//! E14, `DESIGN.md` §9).
//!
//! A restarted device keeps its flashed program image but loses all
//! runtime state — counters, registers, maps, and control-plane table
//! entries (`Device::restart`). From the controller's point of view the
//! device is *diverged*: it answers heartbeats, it runs a program, but
//! its configuration no longer matches what the control plane intended.
//! This module closes that gap:
//!
//! - [`IntendedStore`] — the controller-side record of each device's
//!   desired program and table entries. Every successful journaled
//!   reconfiguration updates it ([`IntendedStore::commit_target`], called
//!   from `logged_transactional_reconfig` once a transaction is past its
//!   point of no return), and every update is made durable in the
//!   replicated intent log first ([`crate::wal::IntentRecord::IntendedState`]),
//!   so the reconciliation baseline survives controller failover
//!   ([`IntendedStore::digests_from_log`]).
//! - **Divergence detection** — devices piggyback a monotone `boot_id`
//!   and an order-independent configuration digest on heartbeats; the
//!   [`FailureDetector`] turns a boot-id advance into
//!   [`crate::core::HealthEvent::Flapped`], and [`flexnet_sim::diverged`] compares
//!   reported digests against [`IntendedStore::intended_digests`].
//! - [`Resyncer`] — the anti-entropy pass: probe the device's digest,
//!   and when it diverges, re-provision the intended program through the
//!   existing shadow-program + atomic-flip path (never in-place), replay
//!   the intended table entries, and verify the digests now agree.
//!   Resyncs are admission-controlled through a *shared global*
//!   [`TokenBucket`] (one grant per [`Resyncer::min_gap`], booking a
//!   bounded number of periods ahead) so a mass restart cannot stampede
//!   the control fabric; a device denied by the bucket is requeued —
//!   never dropped — and [`Resyncer::resync_all`] orders
//!   [`ProgramClass::Critical`] devices before telemetry.
//!
//! The seeded restart suite that drives all of this end to end
//! (experiment E14) lives with the other chaos suites in
//! `flexnet_bench::suites::resync`.

use crate::core::{FailureDetector, TokenBucket};
use crate::retry::{Channel, LossyFabric, RetryPolicy};
use crate::wal::{IntentRecord, ReplicatedIntentLog};
use flexnet_dataplane::{entries_carry_over, Device, ProgramImage, SealTarget, TableEntry};
use flexnet_sim::Simulation;
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Reconciliation priority of a device's intended program.
///
/// The ordering is load-bearing: `Critical < Telemetry`, so sorting
/// devices by `(class, node)` puts routing/security programs ahead of
/// measurement programs in every mass-resync pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProgramClass {
    /// Routing/security: the network is broken (or open) without it.
    Critical,
    /// Measurement: losing it costs visibility, not connectivity.
    Telemetry,
}

/// One device's intended configuration: the program the control plane
/// last committed to it, plus the table entries installed out-of-band.
/// Both change only through the store, which keeps the image's memoised
/// digest true.
#[derive(Debug, Clone)]
pub struct IntendedDevice {
    /// The device.
    pub node: NodeId,
    image: Arc<ProgramImage>,
    entries: Vec<(String, TableEntry)>,
    /// Reconciliation priority.
    pub class: ProgramClass,
    /// The transaction that committed the program (0 = out-of-band).
    pub txn: u64,
}

impl IntendedDevice {
    /// The committed program: the sealed image the device itself runs.
    pub fn image(&self) -> &Arc<ProgramImage> {
        &self.image
    }

    /// Intended control-plane table entries, in installation order.
    pub fn entries(&self) -> &[(String, TableEntry)] {
        &self.entries
    }

    /// The intended-state digest — what the device's heartbeat digest
    /// must equal once converged.
    pub fn digest(&self) -> u64 {
        self.image.config_digest(borrowed(&self.entries))
    }
}

fn borrowed(entries: &[(String, TableEntry)]) -> impl Iterator<Item = (&str, &TableEntry)> {
    entries.iter().map(|(t, e)| (t.as_str(), e))
}

/// The controller's per-device intended-state store.
///
/// Updates are write-ahead: a durable
/// [`IntentRecord::IntendedState`] is appended to the replicated log
/// *before* the in-memory record changes, so a failover successor can
/// rebuild every intended digest from the log alone
/// ([`IntendedStore::digests_from_log`]).
#[derive(Debug, Default)]
pub struct IntendedStore {
    records: BTreeMap<NodeId, IntendedDevice>,
    classes: BTreeMap<NodeId, ProgramClass>,
}

impl IntendedStore {
    /// An empty store.
    pub fn new() -> IntendedStore {
        IntendedStore::default()
    }

    /// Sets the reconciliation priority of `node`'s program (default:
    /// [`ProgramClass::Critical`] — when in doubt, resync first).
    pub fn set_class(&mut self, node: NodeId, class: ProgramClass) {
        self.classes.insert(node, class);
        if let Some(rec) = self.records.get_mut(&node) {
            rec.class = class;
        }
    }

    /// The reconciliation priority of `node`.
    pub fn class(&self, node: NodeId) -> ProgramClass {
        self.classes
            .get(&node)
            .copied()
            .unwrap_or(ProgramClass::Critical)
    }

    /// The intended record for `node`, if the control plane ever
    /// committed a program to it.
    pub fn get(&self, node: NodeId) -> Option<&IntendedDevice> {
        self.records.get(&node)
    }

    /// The intended digest for `node`.
    pub fn digest(&self, node: NodeId) -> Option<u64> {
        self.records.get(&node).map(IntendedDevice::digest)
    }

    /// Every device's intended digest — the comparison baseline for
    /// [`flexnet_sim::diverged`].
    pub fn intended_digests(&self) -> BTreeMap<NodeId, u64> {
        self.records
            .iter()
            .map(|(n, r)| (*n, r.digest()))
            .collect()
    }

    /// Number of devices with an intended record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no device has an intended record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records that transaction `txn` committed `target` to `node`
    /// (a raw bundle is sealed first; the 2PC driver hands over the image
    /// the devices run).
    ///
    /// Intended entries follow the device across the flip: a table's
    /// entries are kept exactly when the new program declares the table
    /// unchanged ([`entries_carry_over`], the rule the device's shadow
    /// build applies), so intent and device agree right after a committed
    /// transaction. The durable [`IntentRecord::IntendedState`] is
    /// journaled *before* the store mutates (write-ahead).
    pub fn commit_target(
        &mut self,
        log: &mut ReplicatedIntentLog,
        txn: u64,
        node: NodeId,
        target: impl SealTarget,
    ) -> Result<()> {
        let image = target.into_image()?;
        let kept: Vec<(String, TableEntry)> = match self.records.get(&node) {
            Some(prev) => {
                let (old, new) = (&prev.image.bundle().program, &image.bundle().program);
                prev.entries
                    .iter()
                    .filter(|(t, _)| old.table(t).is_some_and(|d| entries_carry_over(d, new)))
                    .cloned()
                    .collect()
            }
            None => Vec::new(),
        };
        log.append(&IntentRecord::IntendedState {
            txn,
            device: node.0 as u64,
            digest: image.config_digest(borrowed(&kept)),
        })?;
        let class = self.class(node);
        self.records.insert(
            node,
            IntendedDevice {
                node,
                image,
                entries: kept,
                class,
                txn,
            },
        );
        Ok(())
    }

    /// Records an out-of-band table entry installed on `node` (the
    /// control-plane `add_entry` path, outside any transaction).
    ///
    /// Journaled with txn 0 — replay loops skip intended-state records,
    /// so the marker never collides with a real transaction id.
    pub fn record_entry(
        &mut self,
        log: &mut ReplicatedIntentLog,
        node: NodeId,
        table: &str,
        entry: TableEntry,
    ) -> Result<()> {
        let rec = self.records.get_mut(&node).ok_or_else(|| {
            FlexError::NotFound(format!("no intended program for node {node}"))
        })?;
        if rec.image.bundle().program.table(table).is_none() {
            return Err(FlexError::NotFound(format!(
                "table `{table}` not in the intended program of {node}"
            )));
        }
        let with_new = borrowed(&rec.entries).chain([(table, &entry)]);
        log.append(&IntentRecord::IntendedState {
            txn: 0,
            device: node.0 as u64,
            digest: rec.image.config_digest(with_new),
        })?;
        rec.entries.push((table.to_string(), entry));
        Ok(())
    }

    /// Rebuilds the per-device intended digests from the replicated log
    /// alone: the last [`IntentRecord::IntendedState`] per device wins.
    /// This is what a failover successor starts from — the store's
    /// in-memory state died with the old leader, the log did not.
    pub fn digests_from_log(log: &ReplicatedIntentLog) -> Result<BTreeMap<NodeId, u64>> {
        let replay = log.replay()?;
        Ok(replay
            .intended()
            .map(|(device, digest)| (NodeId(device as u32), digest))
            .collect())
    }
}

/// How one device's resync ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResyncOutcome {
    /// The device's digest already matched intent — nothing to do.
    AlreadyConverged,
    /// The intended program was re-provisioned through the shadow +
    /// atomic-flip path and the intended entries were replayed.
    Reprovisioned {
        /// Primitive ops in the re-provisioning diff.
        ops: usize,
        /// Intended entries replayed after the flip.
        entries: usize,
    },
    /// The device restarted *again* mid-resync: its shadow died with
    /// the new incarnation. The caller re-runs resync against the new
    /// boot id.
    Superseded {
        /// The incarnation that interrupted the resync.
        new_boot_id: u64,
    },
}

/// One device's resync, as reported by [`Resyncer::complete`].
#[derive(Debug, Clone)]
pub struct ResyncReport {
    /// The reconciled device.
    pub node: NodeId,
    /// Its program's reconciliation priority.
    pub class: ProgramClass,
    /// How the resync ended.
    pub outcome: ResyncOutcome,
    /// Admission-controlled instant the resync started.
    pub started_at: SimTime,
    /// When the resync concluded.
    pub finished_at: SimTime,
    /// Control messages sent (attempts, including lost ones).
    pub messages: u32,
}

/// An in-flight resync: returned by [`Resyncer::start`], consumed by
/// [`Resyncer::complete`]. Between the two, further starts for the same
/// node fail with [`FlexError::ResyncInProgress`].
#[derive(Debug, Clone)]
pub struct ResyncTicket {
    node: NodeId,
    class: ProgramClass,
    /// Incarnation the resync was planned against: a higher boot id at
    /// completion means the device restarted mid-resync (superseded).
    boot_id: u64,
    started_at: SimTime,
    /// Flip instant of the re-provisioning shadow; `None` when the
    /// probe found the device already converged.
    ready_at: Option<SimTime>,
    ops: usize,
    messages: u32,
    after_start: SimTime,
}

/// How many refill periods ahead the resync admission bucket will book
/// before denying with [`FlexError::Backpressure`]. A mass restart of up
/// to this many devices defers (preserving the old min-gap spacing); a
/// larger stampede is told to requeue instead of camping on
/// reservations arbitrarily far in the future.
const RESYNC_BUCKET_DEPTH: u32 = 8;

/// The anti-entropy reconciler: drives diverged devices back to their
/// intended state. Admission flows through one *global* token bucket
/// shared by every device — the rate limit protects the controller and
/// the control fabric, which are shared resources, so limiting
/// per-device would let a mass restart multiply the rate by the fleet
/// size.
#[derive(Debug)]
pub struct Resyncer {
    bucket: TokenBucket,
    in_progress: BTreeSet<NodeId>,
    starts: Vec<(SimTime, NodeId)>,
}

impl Default for Resyncer {
    /// At most one resync admission per 25 ms — half a heartbeat period.
    fn default() -> Resyncer {
        Resyncer::new(SimDuration::from_millis(25))
    }
}

impl Resyncer {
    /// A reconciler admitting at most one resync per `min_gap`
    /// (globally, across all devices), booking at most
    /// [`RESYNC_BUCKET_DEPTH`] admissions ahead.
    pub fn new(min_gap: SimDuration) -> Resyncer {
        Resyncer::with_bucket(TokenBucket::new(min_gap, RESYNC_BUCKET_DEPTH))
    }

    /// A reconciler admitting through the caller's bucket (the overload
    /// harness shares one bucket between subsystems and shrinks the
    /// booking horizon to force the requeue path).
    pub fn with_bucket(bucket: TokenBucket) -> Resyncer {
        Resyncer {
            bucket,
            in_progress: BTreeSet::new(),
            starts: Vec::new(),
        }
    }

    /// The configured admission gap (the bucket's refill period).
    pub fn min_gap(&self) -> SimDuration {
        self.bucket.refill_period()
    }

    /// The shared global admission bucket (its `granted`/`denied`
    /// counters are the observable rate-limit behaviour).
    pub fn bucket(&self) -> &TokenBucket {
        &self.bucket
    }

    /// Every admitted resync start, in admission order.
    pub fn starts(&self) -> &[(SimTime, NodeId)] {
        &self.starts
    }

    /// Starts reconciling `node` against its intended state.
    ///
    /// Admission control first: a resync already in flight for this node
    /// fails with [`FlexError::ResyncInProgress`] (retryable — the
    /// running pass converges the device or frees the slot), and the
    /// start instant is deferred to keep at least `min_gap` between
    /// consecutive admissions. Then the device's digest is probed over
    /// the fabric; on divergence the intended bundle is re-provisioned
    /// through [`flexnet_dataplane::Device::begin_runtime_reconfig`] —
    /// the shadow-program + atomic-flip path, *never* in-place — even
    /// when the image is unchanged and only entries must be replayed.
    ///
    /// `gate`, when set, health-gates admission: a node the detector
    /// grades worse than [`Health::Healthy`](crate::core::Health) is
    /// refused up front with the retryable
    /// [`FlexError::DegradedDevice`] — before any fabric traffic or
    /// shadow provisioning. Pass `None` for remedial passes (post-crash
    /// recovery, rollback cleanup) whose whole point is to repair a
    /// device the detector has written off.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        sim: &mut Simulation,
        store: &IntendedStore,
        node: NodeId,
        now: SimTime,
        fabric: &mut LossyFabric,
        policy: &RetryPolicy,
        gate: Option<&FailureDetector>,
    ) -> Result<ResyncTicket> {
        if self.in_progress.contains(&node) {
            return Err(FlexError::ResyncInProgress { node: node.0 as u64 });
        }
        if let Some(detector) = gate {
            detector.admit(node)?;
        }
        let intended = store.get(node).ok_or_else(|| {
            FlexError::NotFound(format!("no intended state for node {node}"))
        })?;
        // Admission: one global token-bucket reservation. The grant is a
        // deferred start instant (≥ min_gap after the previous grant);
        // past the booking horizon the bucket denies with the retryable
        // [`FlexError::Backpressure`] — the caller requeues the node.
        let prior_tat = self.bucket.next_free();
        let start_at = self.bucket.reserve(now, "resync admission")?;
        self.in_progress.insert(node);
        let mut ch = Channel {
            sim,
            fabric,
            policy,
            now: start_at,
            messages: 0,
        };
        let result = start_inner(&mut ch, intended);
        if result.is_err() {
            self.in_progress.remove(&node);
            // The reservation was never used: give it back so a failed
            // start does not consume admission capacity.
            self.bucket.release(prior_tat);
        } else {
            self.starts.push((start_at, node));
        }
        result
    }

    /// Completes a resync started with [`Resyncer::start`]: waits out
    /// the shadow's flip, replays the intended entries (upsert — an
    /// entry already present is replaced, not duplicated), and verifies
    /// the device's digest now equals intent. Always frees the node's
    /// in-progress slot, even on error.
    pub fn complete(
        &mut self,
        sim: &mut Simulation,
        store: &IntendedStore,
        ticket: ResyncTicket,
        fabric: &mut LossyFabric,
        policy: &RetryPolicy,
    ) -> Result<ResyncReport> {
        let node = ticket.node;
        let result = complete_inner(sim, store, &ticket, fabric, policy);
        self.in_progress.remove(&node);
        result
    }

    /// Reconciles every node in `nodes`, critical programs first, one at
    /// a time (sequential + admission gap = no stampede). Returns the
    /// per-device reports in execution order. `gate` is forwarded to
    /// each [`Resyncer::start`]: an unhealthy node fails the whole batch
    /// up front rather than mid-sequence.
    ///
    /// A node denied by the global admission bucket is *requeued, not
    /// dropped*: the batch waits out the bucket's `retry_after` and
    /// retries the same node, so priority order is preserved and every
    /// node in the batch is eventually reconciled.
    #[allow(clippy::too_many_arguments)]
    pub fn resync_all(
        &mut self,
        sim: &mut Simulation,
        store: &IntendedStore,
        nodes: &[NodeId],
        now: SimTime,
        fabric: &mut LossyFabric,
        policy: &RetryPolicy,
        gate: Option<&FailureDetector>,
    ) -> Result<Vec<ResyncReport>> {
        let mut ordered: Vec<NodeId> = nodes.to_vec();
        ordered.sort_by_key(|n| (store.class(*n), *n));
        ordered.dedup();
        if let Some(detector) = gate {
            for node in &ordered {
                detector.admit(*node)?;
            }
        }
        let mut queue: std::collections::VecDeque<NodeId> = ordered.into();
        let mut t = now;
        let mut reports = Vec::new();
        while let Some(node) = queue.pop_front() {
            match self.start(sim, store, node, t, fabric, policy, gate) {
                Ok(ticket) => {
                    let report = self.complete(sim, store, ticket, fabric, policy)?;
                    if report.finished_at > t {
                        t = report.finished_at;
                    }
                    reports.push(report);
                }
                Err(FlexError::Backpressure { retry_after, .. }) => {
                    // Denied by the bucket: requeue at the *front* (the
                    // batch's priority order stands) and wait out the
                    // backlog. Each denial advances `t`, so the retry is
                    // granted and the loop terminates.
                    t += retry_after.max(SimDuration::from_nanos(1));
                    queue.push_front(node);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(reports)
    }
}

/// The fabric half of [`Resyncer::start`], on a channel opened at the
/// admitted start instant: probe, and re-provision when diverged.
fn start_inner(ch: &mut Channel<'_>, intended: &IntendedDevice) -> Result<ResyncTicket> {
    let (node, started_at) = (intended.node, ch.now);
    // Probe the device's digest and boot id over the fabric.
    let (got, boot_id) = ch.send(node, "resync", |dev, _| {
        if !dev.is_up() {
            return Err(FlexError::Unavailable(format!(
                "resync probe: device {node} is down"
            )));
        }
        Ok((dev.config_digest(), dev.boot_id()))
    })?;
    // Diverged: re-provision the intended image via shadow + flip.
    let shadow = if got == intended.digest() {
        None
    } else {
        let image = intended.image();
        Some(ch.send(node, "resync", |dev, at| dev.begin_runtime_reconfig(image.clone(), at))?)
    };
    Ok(ResyncTicket {
        node,
        class: intended.class,
        boot_id,
        started_at,
        ready_at: shadow.as_ref().map(|rep| rep.ready_at),
        ops: shadow.map_or(0, |rep| rep.ops),
        messages: ch.messages,
        after_start: ch.now,
    })
}

fn complete_inner(
    sim: &mut Simulation,
    store: &IntendedStore,
    ticket: &ResyncTicket,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
) -> Result<ResyncReport> {
    let node = ticket.node;
    let intended = store.get(node).ok_or_else(|| {
        FlexError::NotFound(format!("no intended state for node {node}"))
    })?;
    let want = intended.digest();
    let mut ch = Channel {
        sim,
        fabric,
        policy,
        now: ticket.after_start,
        messages: ticket.messages,
    };

    let report = |ch: &Channel<'_>, outcome| ResyncReport {
        node,
        class: ticket.class,
        outcome,
        started_at: ticket.started_at,
        finished_at: ch.now,
        messages: ch.messages,
    };

    // A boot-id advance since the start means the device restarted
    // mid-resync: the shadow died with its incarnation. Report it —
    // the caller re-runs resync against the new boot id.
    let new_boot_id = device(ch.sim, node)?.boot_id();
    if new_boot_id > ticket.boot_id {
        return Ok(report(&ch, ResyncOutcome::Superseded { new_boot_id }));
    }

    let Some(ready_at) = ticket.ready_at else {
        // The probe found the device digest-equal to intent.
        return Ok(report(&ch, ResyncOutcome::AlreadyConverged));
    };

    // Let the shadow flip (atomic: packets before see the old program,
    // packets after see the new one).
    ch.now = ready_at.max(ch.now);
    device(ch.sim, node)?.tick(ch.now);

    // Replay the intended entries. Upsert: remove-then-add is exact and
    // idempotent, so entries the flip carried over are not duplicated.
    let mut entries = 0usize;
    for (table, entry) in intended.entries() {
        ch.send(node, "resync", |dev, _| {
            dev.remove_entry(table, &entry.matches)?;
            dev.add_entry(table, entry.clone())
        })?;
        entries += 1;
    }

    // Verify: the whole point of digest-based anti-entropy is that
    // convergence is checked, not assumed.
    let got = device(ch.sim, node)?.config_digest();
    if got != want {
        return Err(FlexError::DigestMismatch {
            node: node.0 as u64,
            want,
            got,
        });
    }
    let ops = ticket.ops;
    Ok(report(&ch, ResyncOutcome::Reprovisioned { ops, entries }))
}

/// The simulation's own handle on `node`'s device, for the reads and the
/// clock tick that are not commands and cross no fabric.
fn device(sim: &mut Simulation, node: NodeId) -> Result<&mut Device> {
    let node = sim
        .topo
        .node_mut(node)
        .ok_or_else(|| FlexError::Sim(format!("resync: unknown node {node}")))?;
    Ok(&mut node.device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::ast::ActionCall;
    use flexnet_lang::diff::ProgramBundle;
    use flexnet_lang::parser::parse_source;
    use flexnet_sim::faults::VICTIM_RESTART_DELAY;
    use flexnet_sim::{diverged, Topology};

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).expect("test program parses");
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().expect("one program"),
        }
    }

    /// The switch's critical program: an ACL in front of line forwarding
    /// (`counter` adds the upgrade target's counter).
    fn critical(counter: bool) -> ProgramBundle {
        let (decl, stmt) = if counter { ("counter gated;", "count(gated);") } else { ("", "") };
        bundle(&format!(
            "program gate kind any {{
               {decl}
               table acl {{
                 key {{ ipv4.src : exact; }}
                 action deny() {{ drop(); }}
                 action allow() {{ forward(1); }}
                 default allow();
                 size 16;
               }}
               handler ingress(pkt) {{ {stmt} apply acl; }}
             }}"
        ))
    }

    fn critical_v1() -> ProgramBundle {
        critical(false)
    }

    fn critical_v2() -> ProgramBundle {
        critical(true)
    }

    /// The NICs' telemetry program: a watch table, forwarding either way.
    fn telemetry_v1() -> ProgramBundle {
        bundle(
            "program tap kind any {
               counter seen;
               table watch {
                 key { ipv4.src : exact; }
                 action mark() { count(seen); forward(1); }
                 action pass() { forward(1); }
                 default pass();
                 size 8;
               }
               handler ingress(pkt) { apply watch; }
             }",
        )
    }

    fn entry(action: &str) -> TableEntry {
        TableEntry::exact(
            &[0xDEAD_BEEF],
            ActionCall {
                action: action.into(),
                args: vec![],
            },
        )
    }

    fn deny_entry() -> TableEntry {
        entry("deny")
    }

    fn mark_entry() -> TableEntry {
        entry("mark")
    }

    fn reliable_env() -> (LossyFabric, RetryPolicy) {
        (LossyFabric::reliable(), RetryPolicy::default())
    }

    fn provisioned() -> (Simulation, [NodeId; 3], IntendedStore, ReplicatedIntentLog) {
        let (topo, nodes) = Topology::host_nic_switch_line();
        let devices = [nodes[1], nodes[2], nodes[3]];
        let sw = nodes[2];
        let mut sim = Simulation::new(topo);
        let mut log = ReplicatedIntentLog::new(3, 7).unwrap();
        let mut store = IntendedStore::new();
        store.set_class(sw, ProgramClass::Critical);
        store.set_class(devices[0], ProgramClass::Telemetry);
        store.set_class(devices[2], ProgramClass::Telemetry);
        for d in devices {
            let (v1, table, entry) = if d == sw {
                (critical_v1(), "acl", deny_entry())
            } else {
                (telemetry_v1(), "watch", mark_entry())
            };
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.install(v1.clone()).unwrap();
            dev.add_entry(table, entry.clone()).unwrap();
            store.commit_target(&mut log, 0, d, v1).unwrap();
            store.record_entry(&mut log, d, table, entry).unwrap();
        }
        (sim, devices, store, log)
    }

    #[test]
    fn store_digest_matches_device_digest() {
        let (sim, devices, store, _log) = provisioned();
        for d in devices {
            assert_eq!(
                store.digest(d).unwrap(),
                sim.topo.node(d).unwrap().device.config_digest(),
                "{d}: intended and actual digests must agree when in sync"
            );
        }
        assert!(diverged(&sim, &store.intended_digests()).is_empty());
    }

    #[test]
    fn commit_target_keeps_entries_of_surviving_tables_only() {
        let (_sim, devices, mut store, mut log) = provisioned();
        let sw = devices[1];
        let with_entry = store.digest(sw).unwrap();
        // Upgrading to v2 keeps the acl table: the entry must survive.
        store.commit_target(&mut log, 9, sw, critical_v2()).unwrap();
        assert_eq!(store.get(sw).unwrap().entries().len(), 1, "entry kept");
        assert_eq!(store.get(sw).unwrap().txn, 9);
        assert_ne!(store.digest(sw).unwrap(), with_entry, "bundle changed");
        // A program without the table drops its intended entries.
        store
            .commit_target(
                &mut log,
                10,
                sw,
                bundle("program gate kind any { handler ingress(pkt) { forward(1); } }"),
            )
            .unwrap();
        assert!(store.get(sw).unwrap().entries().is_empty(), "entry dropped");
    }

    #[test]
    fn record_entry_requires_a_known_table() {
        let (_sim, devices, mut store, mut log) = provisioned();
        let err = store
            .record_entry(&mut log, devices[1], "nope", deny_entry())
            .unwrap_err();
        assert!(matches!(err, FlexError::NotFound(_)));
        let err = store
            .record_entry(&mut log, NodeId(999), "acl", deny_entry())
            .unwrap_err();
        assert!(matches!(err, FlexError::NotFound(_)));
    }

    #[test]
    fn intended_digests_survive_failover_via_the_log() {
        let (_sim, _devices, store, mut log) = provisioned();
        log.kill_leader().unwrap();
        log.elect().unwrap();
        assert_eq!(
            IntendedStore::digests_from_log(&log).unwrap(),
            store.intended_digests(),
            "a successor rebuilds the same reconciliation baseline"
        );
    }

    #[test]
    fn restarted_device_is_reprovisioned_and_verified() {
        let (mut sim, devices, store, _log) = provisioned();
        let sw = devices[1];
        let (mut fabric, policy) = reliable_env();
        let dev = &mut sim.topo.node_mut(sw).unwrap().device;
        dev.crash(SimTime::from_secs(1));
        dev.restart(SimTime::from_secs(1) + VICTIM_RESTART_DELAY).unwrap();
        assert_eq!(diverged(&sim, &store.intended_digests()), vec![sw]);

        let mut r = Resyncer::default();
        let now = SimTime::from_secs(2);
        let ticket = r.start(&mut sim, &store, sw, now, &mut fabric, &policy, None).unwrap();
        let report = r.complete(&mut sim, &store, ticket, &mut fabric, &policy).unwrap();
        assert!(
            matches!(report.outcome, ResyncOutcome::Reprovisioned { entries: 1, .. }),
            "wiped entries force a real re-provision: {:?}",
            report.outcome
        );
        assert!(diverged(&sim, &store.intended_digests()).is_empty());
    }

    #[test]
    fn converged_device_resync_is_a_noop() {
        let (mut sim, devices, store, _log) = provisioned();
        let (mut fabric, policy) = reliable_env();
        let mut r = Resyncer::default();
        let ticket = r
            .start(&mut sim, &store, devices[0], SimTime::from_secs(1), &mut fabric, &policy, None)
            .unwrap();
        let report = r
            .complete(&mut sim, &store, ticket, &mut fabric, &policy)
            .unwrap();
        assert_eq!(report.outcome, ResyncOutcome::AlreadyConverged);
    }

    #[test]
    fn double_start_is_resync_in_progress() {
        let (mut sim, devices, store, _log) = provisioned();
        let sw = devices[1];
        let (mut fabric, policy) = reliable_env();
        let mut r = Resyncer::default();
        let ticket = r
            .start(&mut sim, &store, sw, SimTime::from_secs(1), &mut fabric, &policy, None)
            .unwrap();
        let err = r
            .start(&mut sim, &store, sw, SimTime::from_secs(1), &mut fabric, &policy, None)
            .unwrap_err();
        assert!(matches!(err, FlexError::ResyncInProgress { .. }));
        assert!(err.is_retryable(), "the slot frees itself");
        // Completing frees the slot.
        r.complete(&mut sim, &store, ticket, &mut fabric, &policy).unwrap();
        assert!(r
            .start(&mut sim, &store, sw, SimTime::from_secs(2), &mut fabric, &policy, None)
            .is_ok());
    }

    #[test]
    fn health_gate_refuses_suspect_node_before_any_fabric_traffic() {
        let (mut sim, devices, store, _log) = provisioned();
        let sw = devices[1];
        let (mut fabric, policy) = reliable_env();
        // The detector last heard from the switch a long silence ago.
        let mut detector = FailureDetector::default();
        for d in devices {
            detector.observe(d, SimTime::ZERO);
        }
        detector.observe(devices[0], SimTime::from_millis(800));
        detector.observe(devices[2], SimTime::from_millis(800));
        detector.poll(SimTime::from_millis(850));
        let mut r = Resyncer::default();
        let err = r
            .start(
                &mut sim,
                &store,
                sw,
                SimTime::from_secs(1),
                &mut fabric,
                &policy,
                Some(&detector),
            )
            .unwrap_err();
        assert!(
            matches!(err, FlexError::DegradedDevice { .. }),
            "typed refusal, got {err:?}"
        );
        assert!(err.is_retryable());
        // Refused before admission: no start was journaled, the slot is
        // free, and the device holds no shadow.
        assert!(r.starts().is_empty());
        assert!(!sim.topo.node(sw).unwrap().device.reconfig_in_progress());
        // A batch containing the suspect node fails whole, up front.
        let err = r
            .resync_all(
                &mut sim,
                &store,
                &devices,
                SimTime::from_secs(1),
                &mut fabric,
                &policy,
                Some(&detector),
            )
            .unwrap_err();
        assert!(matches!(err, FlexError::DegradedDevice { .. }));
        // A remedial pass (gate = None) still reaches the device.
        assert!(r
            .start(&mut sim, &store, sw, SimTime::from_secs(1), &mut fabric, &policy, None)
            .is_ok());
    }

    #[test]
    fn restart_mid_resync_is_superseded_not_corrupted() {
        let (mut sim, devices, store, _log) = provisioned();
        let sw = devices[1];
        let (mut fabric, policy) = reliable_env();
        let dev = &mut sim.topo.node_mut(sw).unwrap().device;
        dev.crash(SimTime::from_secs(1));
        dev.restart(SimTime::from_millis(1200)).unwrap();

        let mut r = Resyncer::default();
        let ticket = r
            .start(&mut sim, &store, sw, SimTime::from_secs(2), &mut fabric, &policy, None)
            .unwrap();
        // The device restarts again while the resync's shadow is in
        // flight — the shadow dies with the incarnation.
        let dev = &mut sim.topo.node_mut(sw).unwrap().device;
        dev.crash(SimTime::from_millis(2500));
        dev.restart(SimTime::from_millis(2700)).unwrap();
        let report = r
            .complete(&mut sim, &store, ticket, &mut fabric, &policy)
            .unwrap();
        assert!(
            matches!(report.outcome, ResyncOutcome::Superseded { .. }),
            "{:?}",
            report.outcome
        );
        // The follow-up resync against the new incarnation converges.
        let ticket = r
            .start(&mut sim, &store, sw, SimTime::from_secs(3), &mut fabric, &policy, None)
            .unwrap();
        let report = r
            .complete(&mut sim, &store, ticket, &mut fabric, &policy)
            .unwrap();
        assert!(matches!(report.outcome, ResyncOutcome::Reprovisioned { .. }));
        assert!(diverged(&sim, &store.intended_digests()).is_empty());
    }

    #[test]
    fn mass_resync_is_critical_first_and_rate_limited() {
        let (mut sim, devices, store, _log) = provisioned();
        let (mut fabric, policy) = reliable_env();
        for d in devices {
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.crash(SimTime::from_secs(1));
            dev.restart(SimTime::from_secs(1) + VICTIM_RESTART_DELAY).unwrap();
        }
        let mut r = Resyncer::default();
        let reports = r
            .resync_all(&mut sim, &store, &devices, SimTime::from_secs(2), &mut fabric, &policy, None)
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports[0].class,
            ProgramClass::Critical,
            "the switch resyncs before the taps"
        );
        for pair in r.starts().windows(2) {
            assert!(
                pair[1].0.saturating_since(pair[0].0) >= r.min_gap(),
                "admission gap respected: {:?}",
                r.starts()
            );
        }
        assert!(diverged(&sim, &store.intended_digests()).is_empty());
    }

    #[test]
    fn denied_by_the_bucket_is_requeued_not_dropped() {
        let (mut sim, devices, store, _log) = provisioned();
        let (mut fabric, policy) = reliable_env();
        for d in devices {
            let dev = &mut sim.topo.node_mut(d).unwrap().device;
            dev.crash(SimTime::from_secs(1));
            dev.restart(SimTime::from_secs(1) + VICTIM_RESTART_DELAY).unwrap();
        }
        // A zero-depth bucket denies every start that would need to
        // defer — the worst case for a mass restart. The batch must
        // still reconcile every device by requeueing, never dropping.
        let mut r = Resyncer::with_bucket(TokenBucket::new(
            SimDuration::from_millis(25),
            0,
        ));
        // A direct start that needs deferral surfaces typed backpressure.
        let t0 = SimTime::from_secs(2);
        let ticket = r
            .start(&mut sim, &store, devices[1], t0, &mut fabric, &policy, None)
            .unwrap();
        let err = r
            .start(&mut sim, &store, devices[0], t0, &mut fabric, &policy, None)
            .unwrap_err();
        assert!(matches!(err, FlexError::Backpressure { .. }), "{err}");
        assert!(err.is_retryable(), "denial means requeue, not drop");
        assert!(r.bucket().denied > 0);
        r.complete(&mut sim, &store, ticket, &mut fabric, &policy).unwrap();

        // The batch path requeues denied nodes and converges them all.
        let reports = r
            .resync_all(
                &mut sim,
                &store,
                &devices,
                SimTime::from_secs(4),
                &mut fabric,
                &policy,
                None,
            )
            .unwrap();
        assert_eq!(reports.len(), 3, "nothing dropped");
        assert!(diverged(&sim, &store.intended_digests()).is_empty());
        // Spacing held even through the deny/requeue cycles.
        for pair in r.starts().windows(2) {
            assert!(pair[1].0.saturating_since(pair[0].0) >= r.min_gap());
        }
    }
}
