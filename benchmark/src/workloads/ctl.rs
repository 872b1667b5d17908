//! `ctl_txn` and `ctl_recover`: control operations from intent to
//! digest-verified convergence.
//!
//! Both run one closed-loop client against a 3-node `ReplicatedIntentLog`
//! on simulated disks, a `LossyFabric` dropping 2 % of control messages,
//! and the eight leaves of `Topology::leaf_spine(2, 8, 1)` — no packets
//! flow. `ctl_txn` exercises the **append** side (front end, compose,
//! journaled 2PC, WAL + Raft + fsync); `ctl_recover` the **replay** side
//! (coordinator crash, election, disk revival, log replay, resync). A WAL
//! change that speeds one and slows the other shows as exactly that.

use super::{Model, Params, SegmentOutcome, Workload};
use crate::stats::{distribution, median, Fnv, SplitMix};
use crate::trace::{Ledger, Tracer};
use flexnet_controller::recovery::TargetDirectory;
use flexnet_controller::txn::LoggedTxnOutcome;
use flexnet_controller::{
    logged_transactional_reconfig, recover, Controller, FailureDetector, IntendedStore,
    IntentRecord, LossyFabric, NodeStorage, ReplicatedIntentLog, Resyncer, RetryPolicy,
};
use flexnet_dataplane::TableEntry;
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::headers::HeaderRegistry;
use flexnet_lang::parser::parse_source;
use flexnet_lang::typecheck::check_program;
use flexnet_lang::verifier::verify_program;
use flexnet_sim::{CrashPhase, Simulation, Topology};
use flexnet_types::{NodeId, SimDuration, SimTime, TenantId};
use std::collections::VecDeque;

/// Controller nodes in the Raft cluster.
const CONTROLLERS: usize = 3;
/// Control-fabric message loss.
const FABRIC_LOSS: f64 = 0.02;
/// Tenants kept admitted on `ctl_txn`.
const TENANTS: usize = 8;
/// Leaves each `ctl_txn` op reprograms (of 8), and each `ctl_recover`
/// transaction names.
const TXN_TARGETS: usize = 4;
const RECOVER_TARGETS: usize = 3;
/// `ctl_txn`: heartbeat sweep cadence and segment length, in ops.
const SWEEP_EVERY: u64 = 16;
const OPS_PER_SEGMENT: u64 = 64;

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 16,
        deadline: SimDuration::from_secs(60),
        ..RetryPolicy::default()
    }
}

fn build_program(src: &str) -> Result<ProgramBundle, String> {
    flexnet_apps::build(src).map_err(|e| format!("program does not build: {e}"))
}

/// The eight-leaf fabric with `program` installed on every leaf, and a
/// freshly elected intent log on fault-free simulated disks.
fn world(
    program: &ProgramBundle,
    seed: u64,
) -> Result<(Simulation, Vec<NodeId>, ReplicatedIntentLog), String> {
    let (topo, _spines, leaves, _hosts) = Topology::leaf_spine(2, 8, 1);
    let mut sim = Simulation::new(topo);
    for leaf in &leaves {
        sim.topo
            .node_mut(*leaf)
            .ok_or("leaf vanished")?
            .device
            .install(program.clone())
            .map_err(|e| format!("install on {leaf}: {e}"))?;
    }
    let log = new_log(seed)?;
    Ok((sim, leaves, log))
}

fn new_log(seed: u64) -> Result<ReplicatedIntentLog, String> {
    let storages = (0..CONTROLLERS as u64)
        .map(|i| NodeStorage::fault_free(seed ^ (i + 1)))
        .collect();
    ReplicatedIntentLog::new_with(CONTROLLERS, seed, storages)
        .map_err(|e| format!("intent log: {e}"))
}

/// Σ over controller nodes of WAL-disk fsyncs and durable bytes.
fn disk_totals(log: &mut ReplicatedIntentLog) -> (u64, u64) {
    let cluster = log.cluster_mut();
    (0..cluster.len())
        .filter_map(|i| cluster.storage(i).ok())
        .map(|s| {
            let disk = s.wal().disk();
            (disk.stats().fsyncs, disk.synced_bytes().len() as u64)
        })
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Folds a world into a fingerprint.
fn fold_world(
    h: &mut Fnv,
    sim: &Simulation,
    leaves: &[NodeId],
    store: &IntendedStore,
    log: &ReplicatedIntentLog,
    clock: SimTime,
) {
    h.push(clock.as_nanos());
    h.push(log.now().as_nanos());
    h.push(log.epoch().unwrap_or(0));
    for leaf in leaves {
        h.push(store.digest(*leaf).unwrap_or(0));
        let dev = sim.topo.node(*leaf).map(|n| &n.device);
        h.push(dev.map_or(0, |d| d.config_digest()));
        h.push(dev.map_or(0, |d| d.boot_id()));
    }
    if let Ok(records) = log.records() {
        h.push(flexnet_controller::replay_digest(&records));
    }
}

/// How many of `nodes` run something other than the controller's intent.
fn diverged(sim: &Simulation, store: &IntendedStore, nodes: &[NodeId]) -> usize {
    nodes
        .iter()
        .filter(|n| {
            let dev = sim.topo.node(**n).map(|node| &node.device);
            dev.map(|d| Some(d.config_digest())) != Some(store.digest(**n))
        })
        .count()
}

// ---------------------------------------------------------------------
// ctl_txn
// ---------------------------------------------------------------------

const INFRA: &str = "program infra kind switch {
   counter total;
   service provide migrate_state(dst: u32);
   handler ingress(pkt) { count(total); forward(0); }
 }";

/// A tenant extension of one of three flavours, every constant seeded.
fn tenant_source(rng: &mut SplitMix, flavour: u64) -> String {
    let n = rng.below(1 << 20);
    match flavour % 3 {
        0 => format!(
            "program meter{n} kind any {{
               counter seen;
               map hits : map<u32, u32>[{size}];
               handler ingress(pkt) {{
                 count(seen);
                 let c = map_get(hits, ipv4.src) + {inc};
                 map_put(hits, ipv4.src, c);
                 if (c > {limit}) {{ drop(); }}
               }}
             }}",
            size = 64 << rng.below(3),
            inc = 1 + rng.below(4),
            limit = 1000 + rng.below(100_000),
        ),
        1 => format!(
            "program acl{n} kind any {{
               counter denied;
               table rules {{
                 key {{ ipv4.src : exact; tcp.dport : exact; }}
                 action deny() {{ count(denied); drop(); }}
                 action pass() {{ }}
                 default pass();
                 size {size};
               }}
               handler ingress(pkt) {{
                 if (valid(tcp) && tcp.dport == {port}) {{ apply rules; }}
               }}
             }}",
            size = 16 << rng.below(3),
            port = 1 + rng.below(65_000),
        ),
        _ => format!(
            "program sketch{n} kind any {{
               register row : u64[{width}];
               counter updates;
               handler ingress(pkt) {{
                 let i = hash(ipv4.src, ipv4.dst, {salt}) % {width};
                 reg_write(row, i, reg_read(row, i) + 1);
                 count(updates);
               }}
             }}",
            width = 128 << rng.below(3),
            salt = rng.below(1 << 16),
        ),
    }
}

/// FlexBPF source → checked, verified bundle (the lang front end).
fn front_end(src: &str) -> Result<ProgramBundle, String> {
    let file = parse_source(src).map_err(|e| e.to_string())?;
    let program = file
        .programs
        .into_iter()
        .next()
        .ok_or("no program in source")?;
    let registry = HeaderRegistry::with_user_headers(&file.headers).map_err(|e| e.to_string())?;
    check_program(&program, &registry).map_err(|e| e.to_string())?;
    verify_program(&program, &registry).map_err(|e| e.to_string())?;
    Ok(ProgramBundle {
        headers: file.headers,
        program,
    })
}

/// One segment's world for `ctl_txn`: fleet, controller with [`TENANTS`]
/// tenants admitted, intended state and the intent log. A fresh one per
/// segment, because the log's compaction summary keeps one record per
/// resolved transaction and an op gets dearer as it grows (measured in one
/// long-lived world: 0.94 ms per op at the start, 1.35 ms after 16 000).
/// The 5th percentile of such a run is its first few segments — or, when
/// those were disturbed, later and dearer ones: of all six workloads this
/// one then had the widest run-to-run spread (13–22 %). Equal worlds make
/// equal segments.
struct TxnWorld {
    sim: Simulation,
    leaves: Vec<NodeId>,
    ctl: Controller,
    log: ReplicatedIntentLog,
    store: IntendedStore,
    fabric: LossyFabric,
    live: VecDeque<TenantId>,
    next_tenant: u32,
    clock: SimTime,
    /// Records in the log's snapshot summary after the last compaction.
    summary_len: usize,
    /// WAL-disk fsyncs when the segment's timed part began.
    fsyncs_at_start: u64,
}

/// What the first window accumulates on `ctl_txn`; worlds are folded in as
/// their segments end.
#[derive(Default)]
struct TxnTally {
    digest: Fnv,
    fsyncs: u64,
    latency_ns: Vec<u64>,
    messages: u64,
    ops_done: u64,
    replayed_records: u64,
    replayed_ops: u64,
    replayed_bytes: u64,
    commit_ms: Vec<f64>,
}

/// The append side of the control plane.
pub struct Txn {
    seed: u64,
    infra: ProgramBundle,
    policy: RetryPolicy,
    /// A second log the segment's committed records are replayed into.
    shadow: ReplicatedIntentLog,
    rng: SplitMix,
    world: TxnWorld,
    sources: Vec<String>,
    op_no: u64,
    segment_no: u64,
    segment_ops: u64,
    first_error: Option<String>,
    tally: TxnTally,
}

impl Txn {
    /// Deals the next segment's sources: every segment holds the same mix
    /// of flavours, in a seeded order, so that segments are equal work.
    fn deal_sources(&mut self) {
        let mut flavours: Vec<u64> = (0..self.segment_ops).collect();
        self.rng.shuffle(&mut flavours);
        self.sources.clear();
        for flavour in flavours {
            self.sources.push(tenant_source(&mut self.rng, flavour));
        }
        self.world.fsyncs_at_start = disk_totals(&mut self.world.log).0;
    }

    /// Builds a world.
    pub fn build(p: Params) -> Result<Txn, String> {
        let infra = build_program(INFRA)?;
        let mut rng = SplitMix::new(p.seed, 0x7E4A);
        let policy = retry_policy();
        let world = TxnWorld::build(&infra, p.seed, &policy, &mut rng)?;
        Ok(Txn {
            seed: p.seed,
            infra,
            policy,
            shadow: new_log(p.seed ^ 0x5AD0)?,
            rng,
            world,
            sources: Vec::new(),
            op_no: 0,
            segment_no: 0,
            segment_ops: (OPS_PER_SEGMENT / p.scale.max(1)).max(4),
            first_error: None,
            tally: TxnTally::default(),
        })
    }
}

impl TxnWorld {
    /// A world at steady state: [`TENANTS`] tenants admitted through the
    /// same op the benchmark times.
    fn build(
        infra: &ProgramBundle,
        seed: u64,
        policy: &RetryPolicy,
        rng: &mut SplitMix,
    ) -> Result<TxnWorld, String> {
        let (sim, leaves, log) = world(infra, seed)?;
        let mut ctl =
            Controller::new(infra.clone(), leaves[0], SimTime::ZERO).map_err(|e| e.to_string())?;
        // Heartbeats are swept every 16 ops, i.e. every few simulated
        // seconds: silence thresholds scale with that period, so one lost
        // heartbeat (2 % loss) does not grade a healthy leaf down.
        ctl.detector =
            FailureDetector::new(SimDuration::from_secs(60), SimDuration::from_secs(120));
        let mut w = TxnWorld {
            sim,
            leaves,
            ctl,
            log,
            store: IntendedStore::new(),
            fabric: LossyFabric::new(FABRIC_LOSS, seed),
            live: VecDeque::new(),
            next_tenant: 1,
            clock: SimTime::from_millis(1),
            summary_len: 0,
            fsyncs_at_start: 0,
        };
        let (mut off, mut scratch) = (Tracer::new(), TxnTally::default());
        for op in 0..TENANTS as u64 {
            w.op(&mut off, op, &tenant_source(rng, op), policy, &mut scratch)?;
        }
        Ok(w)
    }

    /// One closed-loop control op; `Err` means it did not converge.
    fn op(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        src: &str,
        policy: &RetryPolicy,
        tally: &mut TxnTally,
    ) -> Result<(), String> {
        let now = self.clock;
        let raft_before = self.log.now();

        let open = tr.begin("lang.frontend", op);
        let extension = front_end(src);
        tr.end(open);
        let extension = extension?;

        // Steady state: the oldest tenant leaves, a new one arrives.
        let open = tr.begin("lang.compose", op);
        let composed = (|| {
            if self.live.len() >= TENANTS {
                let oldest = self.live.pop_front().expect("non-empty");
                self.ctl
                    .tenant_depart(oldest)
                    .map_err(|e| format!("depart: {e}"))?;
            }
            let tenant = TenantId(self.next_tenant);
            self.next_tenant = self.next_tenant % 64 + 1;
            let (_vlan, composed) = self
                .ctl
                .tenant_arrive(tenant, extension, now)
                .map_err(|e| format!("arrive: {e}"))?;
            self.live.push_back(tenant);
            Ok::<_, String>(composed)
        })();
        tr.end(open);
        let composed = composed?;

        let targets: Vec<(NodeId, ProgramBundle)> = (0..TXN_TARGETS)
            .map(|j| {
                let leaf = self.leaves[(op as usize + j) % self.leaves.len()];
                (leaf, composed.clone())
            })
            .collect();
        let open = tr.begin("controller.txn.logged_transactional_reconfig", op);
        let report = logged_transactional_reconfig(
            &mut self.sim,
            &targets,
            now,
            &mut self.fabric,
            policy,
            &mut self.log,
            None,
            Some(&mut self.store),
            Some(&self.ctl.detector),
        );
        tr.end(open);
        let report = report.map_err(|e| format!("txn: {e}"))?;
        tally.messages += report.messages as u64;
        self.sim.reconfig_reports.clear();
        let commit_at = match (report.outcome, report.commit_at) {
            (LoggedTxnOutcome::Committed, Some(at)) => at,
            (outcome, _) => {
                let why = format!(
                    "txn {} ended {outcome:?}: {:?}",
                    report.txn,
                    self.sim.errors.last()
                );
                self.sim.errors.clear();
                return Err(why);
            }
        };

        // Tick every participant to the aligned flip.
        let open = tr.begin("dataplane.device.tick", op);
        for (node, _) in &targets {
            if let Some(n) = self.sim.topo.node_mut(*node) {
                n.device.tick(commit_at);
            }
        }
        tr.end(open);

        // Converged = every target runs exactly what the store intends.
        let nodes: Vec<NodeId> = targets.iter().map(|(n, _)| *n).collect();
        let pending = nodes
            .iter()
            .filter(|n| {
                self.sim
                    .topo
                    .node(**n)
                    .is_some_and(|x| x.device.reconfig_in_progress())
            })
            .count();
        let apart = diverged(&self.sim, &self.store, &nodes);
        let done_at = commit_at.max(report.finished_at);
        self.clock = done_at + SimDuration::from_millis(1);
        let raft = self.log.now().saturating_since(raft_before);
        tally
            .latency_ns
            .push(done_at.saturating_since(now).as_nanos() + raft.as_nanos());
        tally.ops_done += 1;
        if pending + apart > 0 || !self.sim.errors.is_empty() {
            let why = format!(
                "op {op}: {pending} targets still pending, {apart} digests diverged, errors {:?}",
                self.sim.errors.first()
            );
            self.sim.errors.clear();
            return Err(why);
        }
        Ok(())
    }
}

impl Workload for Txn {
    fn warm_up(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // On the world `build` made; every timed segment gets its own.
        self.deal_sources();
        let warm = self.segment(tr);
        self.verify()?;
        if warm.failed > 0 {
            return Err("warm-up ops failed".into());
        }
        self.tally = TxnTally::default();
        Ok(())
    }

    fn window_segments(&self) -> usize {
        16
    }

    fn prepare(&mut self, _tr: &mut Tracer) {
        self.segment_no += 1;
        let seed = SplitMix::new(self.seed, self.segment_no).next_u64();
        match TxnWorld::build(&self.infra, seed, &self.policy, &mut self.rng) {
            Ok(world) => self.world = world,
            Err(e) => self.first_error = Some(e),
        }
        self.deal_sources();
    }

    fn segment(&mut self, tr: &mut Tracer) -> SegmentOutcome {
        let sources = std::mem::take(&mut self.sources);
        let w = &mut self.world;
        let mut failed = 0;
        // One compaction per segment: of the admissions here; what the
        // segment appends after it is the tail `replay` reads.
        let open = tr.begin("controller.wal.compact", self.op_no);
        let report = w.log.compact();
        tr.end(open);
        match report {
            Ok(r) => w.summary_len = r.summary_len,
            Err(e) => {
                self.first_error.get_or_insert(format!("compact: {e}"));
            }
        }
        for src in &sources {
            let op = self.op_no;
            let root = tr.begin("flexbench.ctl_txn.op", op);
            let done = w.op(tr, op, src, &self.policy, &mut self.tally);
            tr.end(root);
            if let Err(e) = done {
                failed += 1;
                self.first_error.get_or_insert(e);
            }
            if op % SWEEP_EVERY == SWEEP_EVERY - 1 {
                let open = tr.begin("controller.core.sweep_heartbeats", op);
                w.ctl.sweep_heartbeats(&w.sim, &mut w.fabric, w.clock);
                tr.end(open);
            }
            self.op_no += 1;
        }
        SegmentOutcome {
            attempted: sources.len() as u64,
            failed,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let w = &mut self.world;
        fold_world(
            &mut self.tally.digest,
            &w.sim,
            &w.leaves,
            &w.store,
            &w.log,
            w.clock,
        );
        self.tally.fsyncs += disk_totals(&mut w.log).0 - w.fsyncs_at_start;
        let apart = diverged(&w.sim, &w.store, &w.leaves);
        match self.first_error.take() {
            Some(e) => Err(e),
            None if apart > 0 => Err(format!("{apart} leaves diverge from intended state")),
            None => Ok(()),
        }
    }

    fn replay(&mut self, tr: &mut Tracer) {
        // The WAL layer from outside: the records this segment committed
        // after its compaction, appended one by one to a shadow log.
        let Ok(records) = self.world.log.records() else {
            return;
        };
        let tail = &records[self.world.summary_len.min(records.len())..];
        let bytes_before = disk_totals(&mut self.shadow).1;
        for rec in tail {
            let before = self.shadow.now();
            let open = tr.begin("controller.wal.append", self.op_no);
            let appended = self.shadow.append(rec);
            tr.end(open);
            if appended.is_ok() {
                let ms = self.shadow.now().saturating_since(before).as_nanos() as f64 / 1e6;
                self.tally.commit_ms.push(ms);
            }
        }
        self.tally.replayed_records += tail.len() as u64;
        self.tally.replayed_ops += self.segment_ops;
        self.tally.replayed_bytes += disk_totals(&mut self.shadow).1.saturating_sub(bytes_before);
        // Keep the shadow small; its compaction is not what is measured.
        let _ = self.shadow.compact();
    }

    fn model(&mut self, _tr: &mut Tracer) -> Model {
        let t = &self.tally;
        let mut h = t.digest;
        h.push(t.ops_done);
        h.push(t.messages);
        let ops = t.ops_done.max(1) as f64;
        let replayed_ops = t.replayed_ops.max(1) as f64;
        Model {
            latency: distribution(&mut t.latency_ns.clone()),
            digest: h.finish(),
            counts: vec![
                ("controller.txn.msgs_per_op", t.messages as f64 / ops),
                (
                    "controller.wal.records_per_op",
                    t.replayed_records as f64 / replayed_ops,
                ),
                ("controller.storage.fsyncs_per_op", t.fsyncs as f64 / ops),
                (
                    "controller.storage.bytes_per_op",
                    t.replayed_bytes as f64 / replayed_ops,
                ),
                ("controller.raft.sim_commit_ms_p50", median(&t.commit_ms)),
                ("controller.wal.summary_len", self.world.summary_len as f64),
            ],
            allocs_metric: None,
        }
    }

    fn timings(&self, ledger: &Ledger<'_>, traced_ops: u64) -> Vec<(&'static str, f64)> {
        let mut op_ns = ledger.durations("flexbench.ctl_txn.op");
        vec![
            (
                "lang.frontend.ns_per_op",
                ledger.ns_per("lang.frontend", traced_ops),
            ),
            (
                "lang.compose.ns_per_op",
                ledger.ns_per("lang.compose", traced_ops),
            ),
            (
                "controller.txn.ns_per_op",
                ledger.ns_per("controller.txn.logged_transactional_reconfig", traced_ops),
            ),
            (
                "controller.txn.op_ns_p99",
                distribution(&mut op_ns).p99 as f64,
            ),
            (
                "controller.wal.append_ns_per_record",
                ledger.ns_mean("controller.wal.append"),
            ),
            (
                "controller.wal.compact_ns",
                ledger.ns_mean("controller.wal.compact"),
            ),
            (
                "controller.core.heartbeat_sweep_ns",
                ledger.ns_mean("controller.core.sweep_heartbeats"),
            ),
            (
                "dataplane.device.tick_ns_per_op",
                ledger.ns_per("dataplane.device.tick", traced_ops),
            ),
        ]
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// ctl_recover
// ---------------------------------------------------------------------

/// Scenarios between two compactions of the log.
const COMPACT_EVERY_SCENARIOS: u64 = 64;
/// Scenarios per segment. Every segment starts from a fresh world and ages
/// it with nothing but its own scenarios: the log's compaction summary
/// keeps one record per resolved transaction and recovery reads the whole
/// log, so a scenario costs more the more came before it in the same world
/// (measured: 0.33 ms on an empty log, 0.55 ms after 128 scenarios, 1.7 ms
/// after 1 280). One world per segment makes segments equal work; 128
/// scenarios make the history-dependent part about a quarter of it — so a
/// change to either the fixed or the replay cost of a recovery moves the
/// figure — while keeping a segment short enough (≈ 60 ms) to fit between
/// two disturbances of a shared host. The ledger splits the two sides:
/// `..ns_per_op_young_log` over the first 64 scenarios of a segment,
/// `..ns_per_op_aged_log` over the last 64.
const SCENARIOS_PER_SEGMENT: u64 = 128;

/// Program variant `k`: the same ACL table, `k + 1` counters.
fn recover_variant(k: usize) -> Result<ProgramBundle, String> {
    let decls: String = (0..=k).map(|i| format!("counter c{i};\n")).collect();
    let counts: String = (0..=k).map(|i| format!("count(c{i});\n")).collect();
    build_program(&format!(
        "program app kind any {{
           {decls}
           table acl {{
             key {{ ipv4.src : exact; }}
             action deny() {{ drop(); }}
             action allow() {{ forward(0); }}
             default allow();
             size 16;
           }}
           handler ingress(pkt) {{ {counts} apply acl; forward(0); }}
         }}"
    ))
}

/// One seeded recovery scenario's inputs.
struct Scenario {
    phase: CrashPhase,
    /// Index into the transaction's targets of the device that crashes
    /// with the coordinator, if any.
    victim: Option<usize>,
}

/// One segment's world for `ctl_recover`: a fleet, its intended state and
/// a controller cluster.
struct World {
    sim: Simulation,
    leaves: Vec<NodeId>,
    log: ReplicatedIntentLog,
    store: IntendedStore,
    fabric: LossyFabric,
    resyncer: Resyncer,
    clock: SimTime,
    disk_at_start: (u64, u64),
}

impl World {
    fn build(variant0: &ProgramBundle, seed: u64) -> Result<World, String> {
        let (mut sim, leaves, mut log) = world(variant0, seed)?;
        let mut store = IntendedStore::new();
        for (i, leaf) in leaves.iter().enumerate() {
            store
                .commit_target(&mut log, 0, *leaf, variant0.clone())
                .map_err(|e| format!("intended state: {e}"))?;
            // Out-of-band entries: a restarted leaf loses them, which is
            // what gives the resync something to repair.
            for k in 0..2u64 {
                let entry = TableEntry::exact(
                    &[0xC0A8_0000 + 16 * i as u64 + k],
                    ActionCall {
                        action: "deny".into(),
                        args: vec![],
                    },
                );
                sim.topo
                    .node_mut(*leaf)
                    .ok_or("leaf vanished")?
                    .device
                    .add_entry("acl", entry.clone())
                    .map_err(|e| format!("add_entry: {e}"))?;
                store
                    .record_entry(&mut log, *leaf, "acl", entry)
                    .map_err(|e| format!("record_entry: {e}"))?;
            }
        }
        let disk_at_start = disk_totals(&mut log);
        Ok(World {
            sim,
            leaves,
            log,
            store,
            fabric: LossyFabric::new(FABRIC_LOSS, seed),
            resyncer: Resyncer::default(),
            clock: SimTime::from_secs(1),
            disk_at_start,
        })
    }
}

/// The replay side of the control plane.
pub struct Recover {
    seed: u64,
    policy: RetryPolicy,
    variants: Vec<ProgramBundle>,
    rng: SplitMix,
    world: World,
    scenarios: Vec<Scenario>,
    scenario_no: u64,
    segment_no: u64,
    segment_ops: u64,
    first_error: Option<String>,
    // First-window accounting; worlds are folded in as their segments end.
    digest: Fnv,
    fsyncs: u64,
    disk_bytes: u64,
    latency_ns: Vec<u64>,
    failover_ms: Vec<f64>,
    resync_ms: Vec<f64>,
    messages: u64,
    second_pass_changes: u64,
    ops_done: u64,
    summary_len: usize,
}

impl Recover {
    /// Builds a world.
    pub fn build(p: Params) -> Result<Recover, String> {
        let variants = (0..4).map(recover_variant).collect::<Result<Vec<_>, _>>()?;
        let world = World::build(&variants[0], p.seed)?;
        Ok(Recover {
            seed: p.seed,
            policy: retry_policy(),
            variants,
            rng: SplitMix::new(p.seed, 0xC4A5),
            world,
            scenarios: Vec::new(),
            scenario_no: 0,
            segment_no: 0,
            segment_ops: (SCENARIOS_PER_SEGMENT / p.scale.max(1)).max(4),
            first_error: None,
            digest: Fnv::default(),
            fsyncs: 0,
            disk_bytes: 0,
            latency_ns: Vec::new(),
            failover_ms: Vec::new(),
            resync_ms: Vec::new(),
            messages: 0,
            second_pass_changes: 0,
            ops_done: 0,
            summary_len: 0,
        })
    }

    /// Deals the next segment's scenarios: every segment holds the same
    /// mix — each crash phase a quarter, a victim device in a third — in a
    /// seeded order, so that segments are equal work.
    fn draw_scenarios(&mut self) {
        self.scenarios.clear();
        for i in 0..self.segment_ops as usize {
            let phase = CrashPhase::ALL[i % 4];
            let victim = (i % 3 == 0).then_some(i / 3 % RECOVER_TARGETS);
            self.scenarios.push(Scenario { phase, victim });
        }
        self.rng.shuffle(&mut self.scenarios);
    }

    /// Crash → failover → recovery → resync → converged, from public
    /// functions only. `Err` means the scenario did not converge.
    fn scenario(&mut self, tr: &mut Tracer, s: &Scenario) -> Result<(), String> {
        let op = self.scenario_no;
        let World {
            sim,
            leaves,
            log,
            store,
            fabric,
            resyncer,
            clock,
            ..
        } = &mut self.world;
        let e = |what: &str, err: flexnet_types::FlexError| format!("scenario {op}: {what}: {err}");
        let target_bundle = &self.variants[op as usize % self.variants.len()];
        let targets: Vec<(NodeId, ProgramBundle)> = (0..RECOVER_TARGETS)
            .map(|j| {
                let leaf = leaves[(op as usize + j) % leaves.len()];
                (leaf, target_bundle.clone())
            })
            .collect();

        // Act 1: the journaled 2PC runs until its coordinator dies.
        let open = tr.begin("controller.txn.logged_transactional_reconfig", op);
        let txn = logged_transactional_reconfig(
            sim,
            &targets,
            *clock,
            fabric,
            &self.policy,
            log,
            Some(s.phase),
            Some(store),
            None,
        );
        tr.end(open);
        let txn = txn.map_err(|err| e("txn", err))?;
        let crash_at = txn.finished_at;
        if let Some(v) = s.victim {
            let dev = &mut sim
                .topo
                .node_mut(targets[v].0)
                .ok_or("victim vanished")?
                .device;
            dev.crash(crash_at);
            dev.restart(crash_at + flexnet_sim::faults::VICTIM_RESTART_DELAY)
                .map_err(|err| e("victim restart", err))?;
        }

        // Act 2: failover, then the dead node comes back from its disk.
        let raft_before = log.now();
        let open = tr.begin("controller.raft.elect", op);
        let elected = log.kill_leader().and_then(|dead| log.elect().map(|_| dead));
        tr.end(open);
        let dead = elected.map_err(|err| e("failover", err))?;
        let open = tr.begin("controller.storage.revive", op);
        let revived = log.cluster_mut().revive(dead);
        tr.end(open);
        revived.map_err(|err| e("revive", err))?;
        let failover = log.now().saturating_since(raft_before);

        // Act 3: recovery from the log.
        let mut directory = TargetDirectory::new();
        directory.insert(txn.txn, targets.clone());
        let recover_from = crash_at + failover;
        let open = tr.begin("controller.recovery.recover", op);
        let recovery = recover(
            sim,
            log,
            &directory,
            leaves,
            recover_from,
            fabric,
            &self.policy,
        );
        tr.end(open);
        let recovery = recovery.map_err(|err| e("recover", err))?;
        self.messages += recovery.messages as u64;

        // Let every released or re-prepared shadow reach its flip.
        let settled = recovery
            .finished_at
            .max(txn.commit_at.unwrap_or(SimTime::ZERO))
            + SimDuration::from_secs(1);
        for leaf in leaves.iter() {
            if let Some(n) = sim.topo.node_mut(*leaf) {
                n.device.tick(settled);
            }
        }
        // The successor owns intent now: a rolled-forward transaction's
        // targets become the intended state.
        let forward = matches!(
            txn.outcome,
            LoggedTxnOutcome::Crashed(CrashPhase::AfterFlipScheduled) | LoggedTxnOutcome::Committed
        );
        if forward && txn.outcome != LoggedTxnOutcome::Committed {
            for (node, bundle) in &targets {
                store
                    .commit_target(log, txn.txn, *node, bundle.clone())
                    .map_err(|err| e("intended state", err))?;
            }
        }

        // Act 4: anti-entropy over the whole fleet.
        let open = tr.begin("controller.resync.resync_all", op);
        let resync = resyncer.resync_all(sim, store, leaves, settled, fabric, &self.policy, None);
        tr.end(open);
        let reports = resync.map_err(|err| e("resync", err))?;
        let converged_at = reports
            .iter()
            .map(|r| r.finished_at)
            .max()
            .unwrap_or(settled);
        sim.reconfig_reports.clear();

        // The checks.
        let open = tr.begin("controller.wal.records", op);
        let records = log.records();
        tr.end(open);
        let records = records.map_err(|err| e("records", err))?;
        let last = records
            .iter()
            .rev()
            .find(|r| !matches!(r, IntentRecord::IntendedState { .. }) && r.txn() == txn.txn);
        let terminal_ok = match last {
            Some(IntentRecord::Committed { .. }) => forward,
            Some(IntentRecord::Aborted { .. }) => !forward,
            _ => false,
        };
        let in_doubt = leaves
            .iter()
            .filter(|n| {
                sim.topo
                    .node(**n)
                    .is_some_and(|x| x.device.txn_in_doubt().is_some())
            })
            .count();
        let open = tr.begin("controller.recovery.recover_again", op);
        let second = recover(
            sim,
            log,
            &directory,
            leaves,
            converged_at,
            fabric,
            &self.policy,
        );
        tr.end(open);
        let second = second.map_err(|err| e("second recover", err))?;
        let changes = second.resolutions.len()
            + second.orphans_swept
            + second.reprepared
            + second.wiped_shadows;
        self.second_pass_changes += changes as u64;
        let apart = diverged(sim, store, leaves);

        self.failover_ms.push(failover.as_nanos() as f64 / 1e6);
        self.resync_ms
            .push(converged_at.saturating_since(settled).as_nanos() as f64 / 1e6);
        self.latency_ns
            .push(converged_at.saturating_since(crash_at).as_nanos());
        self.ops_done += 1;
        *clock = converged_at.max(second.finished_at) + SimDuration::from_millis(10);
        if !terminal_ok || in_doubt + changes + apart > 0 || !sim.errors.is_empty() {
            let why = format!(
                "scenario {op} ({}, victim {:?}): terminal record ok {terminal_ok}, {in_doubt} in-doubt shadows, second pass changed {changes}, {apart} digests diverged, errors {:?}",
                s.phase.label(),
                s.victim,
                sim.errors.first()
            );
            sim.errors.clear();
            return Err(why);
        }
        Ok(())
    }
}

impl Workload for Recover {
    fn warm_up(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // On the world `build` made; every timed segment gets its own.
        self.draw_scenarios();
        let warm = self.segment(tr);
        self.verify()?;
        if warm.failed > 0 {
            return Err("warm-up scenarios failed".into());
        }
        self.digest = Fnv::default();
        self.latency_ns.clear();
        self.failover_ms.clear();
        self.resync_ms.clear();
        (self.messages, self.ops_done, self.fsyncs, self.disk_bytes) = (0, 0, 0, 0);
        Ok(())
    }

    fn window_segments(&self) -> usize {
        10
    }

    fn prepare(&mut self, _tr: &mut Tracer) {
        self.segment_no += 1;
        let seed = SplitMix::new(self.seed, self.segment_no).next_u64();
        match World::build(&self.variants[0], seed) {
            Ok(world) => self.world = world,
            Err(e) => self.first_error = Some(e),
        }
        self.draw_scenarios();
    }

    fn segment(&mut self, tr: &mut Tracer) -> SegmentOutcome {
        let scenarios = std::mem::take(&mut self.scenarios);
        let mut failed = 0;
        for (i, s) in scenarios.iter().enumerate() {
            let root = tr.begin("flexbench.ctl_recover.scenario", self.scenario_no);
            let done = self.scenario(tr, s);
            tr.end(root);
            if let Err(e) = done {
                failed += 1;
                self.first_error.get_or_insert(e);
            }
            self.scenario_no += 1;
            if (i as u64 + 1).is_multiple_of(COMPACT_EVERY_SCENARIOS) || i + 1 == scenarios.len() {
                let open = tr.begin("controller.wal.compact", self.scenario_no);
                let report = self.world.log.compact();
                tr.end(open);
                match report {
                    Ok(r) => self.summary_len = r.summary_len,
                    Err(e) => {
                        self.first_error.get_or_insert(format!("compact: {e}"));
                    }
                }
            }
        }
        SegmentOutcome {
            attempted: scenarios.len() as u64,
            failed,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let w = &mut self.world;
        fold_world(
            &mut self.digest,
            &w.sim,
            &w.leaves,
            &w.store,
            &w.log,
            w.clock,
        );
        let (fsyncs, bytes) = disk_totals(&mut w.log);
        self.fsyncs += fsyncs - w.disk_at_start.0;
        self.disk_bytes += bytes.saturating_sub(w.disk_at_start.1);
        let apart = diverged(&self.world.sim, &self.world.store, &self.world.leaves);
        match self.first_error.take() {
            Some(e) => Err(e),
            None if apart > 0 => Err(format!("{apart} leaves diverge from intended state")),
            None => Ok(()),
        }
    }

    fn replay(&mut self, _tr: &mut Tracer) {}

    fn model(&mut self, _tr: &mut Tracer) -> Model {
        let mut h = self.digest;
        h.push(self.ops_done);
        h.push(self.messages);
        let ops = self.ops_done.max(1) as f64;
        Model {
            latency: distribution(&mut self.latency_ns.clone()),
            digest: h.finish(),
            counts: vec![
                (
                    "controller.recovery.msgs_per_op",
                    self.messages as f64 / ops,
                ),
                (
                    "controller.recovery.second_pass_changes",
                    self.second_pass_changes as f64,
                ),
                (
                    "controller.raft.sim_failover_ms_p50",
                    median(&self.failover_ms),
                ),
                ("controller.resync.sim_ms_p50", median(&self.resync_ms)),
                ("controller.storage.fsyncs_per_op", self.fsyncs as f64 / ops),
                (
                    "controller.storage.bytes_per_op",
                    self.disk_bytes as f64 / ops,
                ),
                ("controller.wal.summary_len", self.summary_len as f64),
            ],
            allocs_metric: None,
        }
    }

    fn timings(&self, ledger: &Ledger<'_>, traced_ops: u64) -> Vec<(&'static str, f64)> {
        // A scenario's place in its segment is its log's age.
        let per_scenario = ledger.durations("flexbench.ctl_recover.scenario");
        let edge = COMPACT_EVERY_SCENARIOS.min(self.segment_ops / 2);
        let mean_where = |wanted: std::ops::Range<u64>| {
            let picked: Vec<f64> = per_scenario
                .iter()
                .enumerate()
                .filter(|(i, _)| wanted.contains(&(*i as u64 % self.segment_ops)))
                .map(|(_, ns)| *ns as f64)
                .collect();
            picked.iter().sum::<f64>() / picked.len().max(1) as f64
        };
        vec![
            (
                "controller.recovery.ns_per_op_young_log",
                mean_where(0..edge),
            ),
            (
                "controller.recovery.ns_per_op_aged_log",
                mean_where(self.segment_ops - edge..self.segment_ops),
            ),
            (
                "controller.txn.ns_per_op",
                ledger.ns_per("controller.txn.logged_transactional_reconfig", traced_ops),
            ),
            (
                "controller.raft.elect_ns",
                ledger.ns_mean("controller.raft.elect"),
            ),
            (
                "controller.storage.revive_ns",
                ledger.ns_mean("controller.storage.revive"),
            ),
            (
                "controller.recovery.recover_ns",
                ledger.ns_mean("controller.recovery.recover"),
            ),
            (
                "controller.resync.resync_ns",
                ledger.ns_mean("controller.resync.resync_all"),
            ),
            (
                "controller.wal.records_ns",
                ledger.ns_mean("controller.wal.records"),
            ),
            (
                "controller.wal.compact_ns",
                ledger.ns_mean("controller.wal.compact"),
            ),
        ]
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}
