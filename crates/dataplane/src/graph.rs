//! The forwarding graph: the device hot path as composable burst nodes.
//!
//! A [`ForwardingGraph`] carries bursts of 64–256 packets through a small
//! pipeline of [`GraphNode`] stages over reusable per-burst lanes
//! ([`BurstLanes`]) — no per-packet allocation, no per-packet call chain.
//! It has two entries over the same stage list:
//!
//! ```text
//!   run         packets ──▶ exec ───────────────────────────▶ [sched] ──▶ emit
//!   run_sealed  frames  ──▶ admission (checksum ▶ parse ▶ exec) ▶ [sched] ──▶ emit
//! ```
//!
//! - The **exec** stage ([`ExecNode`]) is the device's one packet loop,
//!   [`crate::device::Device::process_burst`]: every packet through the
//!   same per-packet body a single [`crate::device::Device::process`] call
//!   runs (gas, traps, quarantine billed to the exact packet), with the
//!   preamble and engine resolution paid once per run. It is always the
//!   first stage.
//! - **Admission** is what [`ForwardingGraph::run_sealed`] does in place of
//!   the exec stage ([`crate::device::Device::process_sealed_burst`]):
//!   checksum verification and wire parsing bill the exact offending
//!   frame, and surviving packets run the same packet loop in arrival
//!   order around each poison frame.
//! - The **sched** stage ([`SchedNode`], only in
//!   [`ForwardingGraph::with_scheduler`]) classifies forwarded packets
//!   into weighted classes — by a packet field or by a batch
//!   ([`crate::table::TableInstance::lookup_burst`]) table lookup — and
//!   queues them on a deficit-round-robin [`EgressScheduler`].
//! - The **emit** stage ([`EmitNode`]) fixes the egress order: the
//!   scheduler's DRR order when a sched stage ran, else arrival order.
//!
//! Scheduling affects *emission order and egress drops only*: per-packet
//! verdicts, counters, and state effects are fully determined by the exec
//! stage, so the differential suite's burst ≡ single-packet guarantee is
//! untouched by any scheduler configuration.

use crate::device::{Device, FrameOutcome, ProcessResult};
use crate::sched::EgressScheduler;
use crate::table::BURST_MISS;
use flexnet_types::{Packet, Result, SimTime, Sym, Verdict};

/// Reusable per-burst lanes shared by every stage of a graph.
///
/// Index-aligned with the burst's packets; all vectors retain capacity
/// across bursts, so a steady-state burst allocates nothing.
#[derive(Debug, Default)]
pub struct BurstLanes {
    /// One result per packet of the burst (written by the exec stage).
    pub results: Vec<ProcessResult>,
    /// Per-input-frame outcomes (wire entry only).
    pub frame_outcomes: Vec<FrameOutcome>,
    /// Egress order: burst-local packet indices in emission order
    /// (written by the emit stage). A packet with a `Forward` verdict
    /// that is missing here was tail-dropped by an egress-queue cap.
    pub egress: Vec<u32>,
    /// Whether a scheduler stage queued this burst (read by emit).
    scheduled: bool,
    /// Key staging for batch table classification.
    keys: Vec<u64>,
    /// Winner staging for batch table classification.
    hits: Vec<u32>,
}

impl BurstLanes {
    fn begin(&mut self) {
        self.results.clear();
        self.frame_outcomes.clear();
        self.egress.clear();
        self.scheduled = false;
    }
}

/// One stage's view of the burst in flight.
pub struct GraphCtx<'a> {
    /// The device under the graph.
    pub dev: &'a mut Device,
    /// The burst's shared timestamp.
    pub now: SimTime,
    /// The packets of the burst.
    pub pkts: &'a mut [Packet],
    /// The burst's shared lanes.
    pub lanes: &'a mut BurstLanes,
}

/// A composable stage of the forwarding graph.
pub trait GraphNode: std::fmt::Debug {
    /// Stage name (`"exec"`, `"sched"`, `"emit"`, …).
    fn name(&self) -> &'static str;
    /// Runs the stage over the burst.
    fn run(&mut self, cx: &mut GraphCtx<'_>) -> Result<()>;
}

/// The exec stage — the device's one packet loop, [`Device::process_burst`].
#[derive(Debug, Default)]
pub struct ExecNode;

impl GraphNode for ExecNode {
    fn name(&self) -> &'static str {
        "exec"
    }

    fn run(&mut self, cx: &mut GraphCtx<'_>) -> Result<()> {
        cx.dev.process_burst(cx.pkts, cx.now, &mut cx.lanes.results)
    }
}

/// How the sched stage maps a forwarded packet to a scheduler class.
#[derive(Debug, Clone)]
pub enum Classifier {
    /// Read a packet field (dotted path, e.g. `ipv4.dscp` or `meta.tc`);
    /// the value modulo the class count selects the class. A packet
    /// without the field — or a path that is not `proto.field` — lands in
    /// class 0.
    Field(String),
    /// Batch-resolve a table of the installed program by name
    /// ([`crate::table::TableInstance::lookup_burst`], one pass for the
    /// whole burst): a hit's first action argument is the class id; a
    /// miss — or an uninstalled table — lands in class 0.
    Table(String),
}

/// A [`Classifier`] with its names resolved once, at stage construction.
#[derive(Debug)]
enum Resolved {
    /// `None` when the path was not `proto.field`: every packet is class 0.
    Field(Option<(Sym, Sym)>),
    Table(String),
}

/// The queue stage: classifies forwarded packets and runs them through a
/// weighted (deficit) round-robin [`EgressScheduler`], writing emission
/// order into [`BurstLanes::egress`]. Packets the class cap rejects are
/// counted against exactly their class ([`EgressScheduler::drops`]) and
/// omitted from the egress order — an egress tail drop, after the verdict.
#[derive(Debug)]
pub struct SchedNode {
    sched: EgressScheduler,
    classify: Resolved,
    /// Per-burst class assignments (reused across bursts).
    scratch_classes: Vec<usize>,
}

impl SchedNode {
    /// A sched stage over `sched` using `classify`.
    pub fn new(sched: EgressScheduler, classify: Classifier) -> SchedNode {
        let classify = match classify {
            Classifier::Field(path) => Resolved::Field(
                path.split_once('.')
                    .map(|(proto, field)| (Sym::intern(proto), Sym::intern(field))),
            ),
            Classifier::Table(name) => Resolved::Table(name),
        };
        SchedNode {
            sched,
            classify,
            scratch_classes: Vec::new(),
        }
    }

    /// The underlying scheduler (per-class drop/depth stats).
    pub fn scheduler(&self) -> &EgressScheduler {
        &self.sched
    }

    /// The class of packet `idx` under the current classifier.
    fn classes_of(&self, cx: &mut GraphCtx<'_>, classes: &mut Vec<usize>) {
        let n = self.sched.num_classes();
        classes.clear();
        match &self.classify {
            Resolved::Field(path) => {
                for pkt in cx.pkts.iter() {
                    let value = path.and_then(|(proto, field)| pkt.get_field_sym(proto, field));
                    classes.push(value.unwrap_or(0) as usize % n);
                }
            }
            Resolved::Table(tname) => {
                let lanes = &mut *cx.lanes;
                let Some(table) = cx.dev.table(tname) else {
                    classes.resize(cx.pkts.len(), 0);
                    return;
                };
                lanes.keys.clear();
                for pkt in cx.pkts.iter() {
                    for &(proto, field) in table.key_syms() {
                        lanes.keys.push(pkt.get_field_sym(proto, field).unwrap_or(0));
                    }
                }
                table.lookup_burst(&lanes.keys, table.key_arity(), &mut lanes.hits);
                for &hit in lanes.hits.iter() {
                    let class = if hit == BURST_MISS {
                        0
                    } else {
                        table.resolved_at(hit).1.first().copied().unwrap_or(0) as usize % n
                    };
                    classes.push(class);
                }
                // A zero-arity classifier table yields no hits; default all.
                classes.resize(cx.pkts.len(), 0);
            }
        }
    }
}

impl GraphNode for SchedNode {
    fn name(&self) -> &'static str {
        "sched"
    }

    fn run(&mut self, cx: &mut GraphCtx<'_>) -> Result<()> {
        let mut classes = std::mem::take(&mut self.scratch_classes);
        self.classes_of(cx, &mut classes);
        for (idx, pkt) in cx.pkts.iter().enumerate() {
            if !matches!(cx.lanes.results[idx].verdict, Verdict::Forward(_)) {
                continue;
            }
            let _ = self
                .sched
                .enqueue(classes[idx], idx as u64, pkt.wire_len() as u64);
        }
        cx.lanes.egress.clear();
        while let Some(token) = self.sched.dequeue() {
            cx.lanes.egress.push(token as u32);
        }
        cx.lanes.scheduled = true;
        self.scratch_classes = classes;
        Ok(())
    }
}

/// The final stage: fixes [`BurstLanes::egress`]. When no scheduler stage
/// ran, emission order is arrival order over `Forward` verdicts.
#[derive(Debug, Default)]
pub struct EmitNode;

impl GraphNode for EmitNode {
    fn name(&self) -> &'static str {
        "emit"
    }

    fn run(&mut self, cx: &mut GraphCtx<'_>) -> Result<()> {
        if cx.lanes.scheduled {
            return Ok(());
        }
        cx.lanes.egress.clear();
        for (idx, r) in cx.lanes.results.iter().enumerate() {
            if matches!(r.verdict, Verdict::Forward(_)) {
                cx.lanes.egress.push(idx as u32);
            }
        }
        Ok(())
    }
}

/// A device's forwarding graph: an ordered stage list plus the reusable
/// burst lanes the stages share.
#[derive(Debug)]
pub struct ForwardingGraph {
    /// `nodes[0]` is the exec stage: both constructors put it there and
    /// [`ForwardingGraph::push_node`] only appends.
    nodes: Vec<Box<dyn GraphNode>>,
    lanes: BurstLanes,
    /// Packet storage for the sealed-frame entry.
    parsed: Vec<Packet>,
}

impl ForwardingGraph {
    /// The default graph: exec → emit (no QoS).
    pub fn standard() -> ForwardingGraph {
        ForwardingGraph {
            nodes: vec![Box::new(ExecNode), Box::new(EmitNode)],
            lanes: BurstLanes::default(),
            parsed: Vec::new(),
        }
    }

    /// A graph with an egress scheduler: exec → sched → emit.
    pub fn with_scheduler(sched: EgressScheduler, classify: Classifier) -> ForwardingGraph {
        ForwardingGraph {
            nodes: vec![
                Box::new(ExecNode),
                Box::new(SchedNode::new(sched, classify)),
                Box::new(EmitNode),
            ],
            lanes: BurstLanes::default(),
            parsed: Vec::new(),
        }
    }

    /// Appends a custom stage (runs after the current last stage).
    pub fn push_node(&mut self, node: Box<dyn GraphNode>) {
        self.nodes.push(node);
    }

    /// The stages, in order.
    pub fn nodes(&self) -> &[Box<dyn GraphNode>] {
        &self.nodes
    }

    /// The lanes of the most recent burst.
    pub fn lanes(&self) -> &BurstLanes {
        &self.lanes
    }

    /// Carries a burst of parsed packets through every stage, returning
    /// the filled lanes.
    pub fn run(
        &mut self,
        dev: &mut Device,
        pkts: &mut [Packet],
        now: SimTime,
    ) -> Result<&BurstLanes> {
        let ForwardingGraph { nodes, lanes, .. } = self;
        lanes.begin();
        let mut cx = GraphCtx {
            dev,
            now,
            pkts,
            lanes,
        };
        for node in nodes.iter_mut() {
            node.run(&mut cx)?;
        }
        Ok(&self.lanes)
    }

    /// The wire entry: admission ([`Device::process_sealed_burst`] —
    /// checksum, parse, and exec with exact per-offender billing) takes the
    /// exec stage's place, then the surviving packets go through the
    /// remaining stages (sched/emit). Per-frame outcomes land in
    /// [`BurstLanes::frame_outcomes`]; [`BurstLanes::results`] and
    /// [`BurstLanes::egress`] are index-aligned with the *admitted*
    /// packets.
    pub fn run_sealed(
        &mut self,
        dev: &mut Device,
        frames: &[Vec<u8>],
        first_id: u64,
        now: SimTime,
    ) -> Result<&BurstLanes> {
        let ForwardingGraph {
            nodes,
            lanes,
            parsed,
        } = self;
        lanes.begin();
        dev.process_sealed_burst(frames, first_id, now, parsed, &mut lanes.frame_outcomes)?;
        lanes.results.extend(
            lanes
                .frame_outcomes
                .iter()
                .filter_map(|o| match o {
                    FrameOutcome::Processed(r) => Some(r.clone()),
                    _ => None,
                }),
        );
        let mut cx = GraphCtx {
            dev,
            now,
            pkts: &mut parsed[..],
            lanes,
        };
        // Admission already executed the packets: skip the exec stage, which
        // is the first by construction (whatever any stage is named).
        for node in nodes.iter_mut().skip(1) {
            node.run(&mut cx)?;
        }
        Ok(&self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::device::tests::bundle;
    use crate::state::StateEncoding;
    use crate::table::TableEntry;
    use crate::wire::{encode_wire, flip_bits, seal_frame};
    use flexnet_types::NodeId;

    fn new_dev() -> Device {
        Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        )
    }

    /// Forwards everything except `ipv4.src == 3`, which drops.
    fn filter_dev() -> Device {
        let mut d = new_dev();
        d.install(bundle(
            "program filter kind any {
               handler ingress(pkt) {
                 if (ipv4.src == 3) { drop(); }
                 forward(1);
               }
             }",
        ))
        .unwrap();
        d
    }

    fn burst(n: u64) -> Vec<Packet> {
        (0..n).map(|i| Packet::tcp(i, i as u32, 0, 1, 80, 0)).collect()
    }

    #[test]
    fn standard_graph_emits_forwards_in_arrival_order() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut pkts = burst(8);
        let lanes = g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        assert_eq!(lanes.results.len(), 8);
        assert_eq!(lanes.results[3].verdict, Verdict::Drop);
        // Dropped packet 3 is excluded; everyone else emits in order.
        assert_eq!(lanes.egress, vec![0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn field_classifier_drr_interleaves_by_weight() {
        let mut dev = filter_dev();
        // Class = ipv4.dst % 2; weight 3:1; quantum = one packet's bytes,
        // so a round emits three class-0 packets then one class-1 packet.
        let bytes = Packet::tcp(0, 0, 0, 1, 80, 0).wire_len() as u64;
        let mut g = ForwardingGraph::with_scheduler(
            EgressScheduler::new(&[3, 1], bytes, 64),
            Classifier::Field("ipv4.dst".into()),
        );
        // 12 of each class, interleaved on arrival (src 100+i avoids the
        // filter's drop rule).
        let mut pkts: Vec<Packet> = (0..24u64)
            .map(|i| Packet::tcp(i, 100 + i as u32, (i % 2) as u32, 1, 80, 0))
            .collect();
        let lanes = g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        assert_eq!(lanes.egress.len(), 24, "nothing tail-dropped");
        // Emission is a permutation of the burst.
        let mut sorted = lanes.egress.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<u32>>());
        // Weighted share: the first DRR round emits 3 even-dst packets for
        // every odd-dst packet.
        let class0_early = lanes.egress[..8]
            .iter()
            .filter(|&&i| pkts[i as usize].get_field("ipv4.dst") == Some(0))
            .count();
        assert_eq!(class0_early, 6, "3:1 weights ⇒ 6 of the first 8 are class 0");
    }

    #[test]
    fn table_classifier_batch_resolves_classes() {
        let mut dev = new_dev();
        dev.install(bundle(
            "program qos kind any {
               table tcmap {
                 key { ipv4.src : exact; }
                 action setclass(tc: u16) { forward(1); }
                 default setclass(0);
                 size 16;
               }
               handler ingress(pkt) { forward(1); }
             }",
        ))
        .unwrap();
        // src 7 → class 1 (first action arg); everything else misses → 0.
        dev.add_entry(
            "tcmap",
            TableEntry::exact(
                &[7],
                flexnet_lang::ast::ActionCall {
                    action: "setclass".into(),
                    args: vec![1],
                },
            ),
        )
        .unwrap();

        // Quantum of one packet: each round visit emits exactly one packet,
        // so equal weights strictly alternate classes.
        let bytes = Packet::tcp(0, 0, 0, 1, 80, 0).wire_len() as u64;
        let mut g = ForwardingGraph::with_scheduler(
            EgressScheduler::new(&[1, 1], bytes, 64),
            Classifier::Table("tcmap".into()),
        );
        // Arrival: four class-0 packets, then four class-1 packets.
        let mut pkts: Vec<Packet> = (0..8u64)
            .map(|i| Packet::tcp(i, if i < 4 { 1 } else { 7 }, 0, 1, 80, 0))
            .collect();
        let lanes = g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        // Equal weights alternate classes per round — proof the batch table
        // lookup actually separated the classes (arrival order would be
        // 0..8 otherwise).
        assert_eq!(lanes.egress, vec![0, 4, 1, 5, 2, 6, 3, 7]);
    }

    #[test]
    fn egress_cap_tail_drops_after_the_verdict() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::with_scheduler(
            EgressScheduler::new(&[1], 10_000, 2),
            Classifier::Field("ipv4.dst".into()),
        );
        let mut pkts: Vec<Packet> = (0..5u64)
            .map(|i| Packet::tcp(i, 100, 0, 1, 80, 0))
            .collect();
        let lanes = g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        // Every verdict stays Forward — the cap is an egress-queue drop,
        // not a processing drop.
        assert!(lanes
            .results
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Forward(_))));
        assert_eq!(lanes.egress, vec![0, 1], "only the first two fit the cap");
        assert_eq!(dev.stats().processed, 5);
    }

    #[test]
    fn run_sealed_bills_the_poison_frame_and_schedules_survivors() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut frames: Vec<Vec<u8>> = (0..8u64)
            .map(|i| seal_frame(&encode_wire(&Packet::tcp(i, 100, 0, 1, 80, 0))))
            .collect();
        flip_bits(&mut frames[5], 0xFEED, 2);
        let lanes = g.run_sealed(&mut dev, &frames, 0, SimTime::ZERO).unwrap();
        assert_eq!(lanes.frame_outcomes.len(), 8);
        assert_eq!(lanes.frame_outcomes[5], FrameOutcome::ChecksumDrop);
        assert_eq!(lanes.results.len(), 7, "results align with admitted packets");
        assert_eq!(lanes.egress, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(dev.stats().checksum_drops, 1);
        assert_eq!(dev.stats().processed, 7);
    }

    /// A custom stage that happens to share the exec stage's name.
    #[derive(Debug)]
    struct CountingNode(std::rc::Rc<std::cell::Cell<u32>>);

    impl GraphNode for CountingNode {
        fn name(&self) -> &'static str {
            "exec"
        }

        fn run(&mut self, _cx: &mut GraphCtx<'_>) -> Result<()> {
            self.0.set(self.0.get() + 1);
            Ok(())
        }
    }

    #[test]
    fn a_pushed_stage_named_exec_runs_once_per_burst_on_both_entries() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let runs = std::rc::Rc::new(std::cell::Cell::new(0));
        g.push_node(Box::new(CountingNode(runs.clone())));

        g.run(&mut dev, &mut burst(4), SimTime::ZERO).unwrap();
        assert_eq!(runs.get(), 1, "run");
        assert_eq!(dev.stats().processed, 4);

        let frames: Vec<Vec<u8>> = burst(4).iter().map(|p| seal_frame(&encode_wire(p))).collect();
        let lanes = g.run_sealed(&mut dev, &frames, 0, SimTime::ZERO).unwrap();
        assert_eq!(lanes.results.len(), 4);
        assert_eq!(runs.get(), 2, "run_sealed skips the exec stage by position, not by name");
        assert_eq!(dev.stats().processed, 8, "each admitted packet executed exactly once");
    }

    #[test]
    fn lanes_retain_capacity_across_bursts() {
        let mut dev = filter_dev();
        let mut g = ForwardingGraph::standard();
        let mut pkts = burst(64);
        g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        let cap_before = g.lanes().results.capacity();
        for _ in 0..5 {
            let mut pkts = burst(64);
            g.run(&mut dev, &mut pkts, SimTime::ZERO).unwrap();
        }
        assert_eq!(g.lanes().results.capacity(), cap_before);
        assert_eq!(g.lanes().results.len(), 64);
    }
}
