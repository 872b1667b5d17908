//! E10 — Real-time network control: dRPC latency, replicated state
//! failover, and distributed-controller consensus (paper §3.4).
//!
//! "We envision that the network control operations are invoked by the
//! control plane, but their execution may take place partially or entirely
//! in the data plane. … the FlexNet controller replicates important network
//! state … across multiple physical devices. … logically centralized
//! controllers are realized in physically distributed nodes, which brings
//! classic distributed systems concerns on consensus and availability."

use flexnet::prelude::*;
use flexnet_bench::replicate::ReplicationGroup;
use flexnet_bench::{header, row, sep};
use flexnet_controller::drpc::ExecutionSite;

fn drpc_section() {
    println!("\n--- dRPC invocation vs control-plane escalation ---\n");
    row(&["hops", "drpc-latency", "ctrl-latency", "speedup"]);
    sep(4);
    let mut reg = ServiceRegistry::new();
    reg.register("mig_dp", NodeId(1), 1, ExecutionSite::DataPlane)
        .unwrap();
    reg.register("mig_cp", NodeId(1), 1, ExecutionSite::ControlPlane)
        .unwrap();
    for hops in [1u32, 2, 4, 8] {
        let dp = reg
            .invoke("mig_dp", NodeId(9), &[1], hops, SimTime::ZERO)
            .unwrap();
        let cp = reg
            .invoke("mig_cp", NodeId(9), &[1], hops, SimTime::ZERO)
            .unwrap();
        row(&[
            &hops.to_string(),
            &dp.to_string(),
            &cp.to_string(),
            &flexnet_bench::times(cp.as_nanos() as f64, dp.as_nanos() as f64),
        ]);
    }
}

fn replication_section() {
    println!("\n--- replicated state: failover loss vs sync period ---\n");
    row(&["sync-every", "epochs-cut", "lost-on-failover", "promoted"]);
    sep(4);
    // The primary cuts an epoch every 100 ms of updates; the replica is
    // synced every Nth epoch. Kill the primary at t=1s.
    for sync_every in [1u64, 2, 5, 10] {
        let mut group = ReplicationGroup::new(NodeId(1), vec![NodeId(2), NodeId(3)]);
        let mut cut = 0u64;
        for i in 1..=13u64 {
            let epoch = group.cut_epoch();
            cut += 1;
            if i % sync_every == 0 {
                group.record_applied(NodeId(2), epoch).unwrap();
            }
            if i % (sync_every * 2) == 0 {
                group.record_applied(NodeId(3), epoch).unwrap();
            }
        }
        let report = group.fail_node(NodeId(1)).unwrap().unwrap();
        row(&[
            &format!("{sync_every} epochs"),
            &cut.to_string(),
            &report.lost_epochs.to_string(),
            &report.promoted.to_string(),
        ]);
    }
}

fn raft_section() {
    println!("\n--- distributed controllers: election + failover (5 nodes) ---\n");
    row(&["seed", "first-election", "failover-election", "log-intact"]);
    sep(4);
    let mut elections = Vec::new();
    for seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
        let mut c = RaftCluster::new(5, seed);
        let t0 = c.now();
        let l1 = c
            .run_until_leader(SimDuration::from_secs(10))
            .expect("leader");
        let first = c.now().saturating_since(t0);
        c.propose(b"deploy infra").unwrap();
        c.run_for(SimDuration::from_millis(500), SimDuration::from_millis(10));

        c.kill(l1).unwrap();
        let t1 = c.now();
        // Run until a *different* leader appears.
        let mut second = SimDuration::ZERO;
        for _ in 0..600 {
            c.step(SimDuration::from_millis(10));
            if let Some(l2) = c.leader() {
                if l2 != l1 {
                    second = c.now().saturating_since(t1);
                    break;
                }
            }
        }
        c.run_for(SimDuration::from_millis(500), SimDuration::from_millis(10));
        let l2 = c.leader().expect("re-elected");
        let intact = c.committed(l2).unwrap() == [b"deploy infra"];
        elections.push((first, second));
        row(&[
            &seed.to_string(),
            &first.to_string(),
            &second.to_string(),
            if intact { "yes" } else { "NO" },
        ]);
    }
    let avg_ms = |f: &dyn Fn(&(SimDuration, SimDuration)) -> SimDuration| {
        elections.iter().map(|e| f(e).as_millis()).sum::<u64>() / elections.len() as u64
    };
    println!(
        "\nmean first election {} ms, mean failover re-election {} ms \
         (timeout range {}..{})",
        avg_ms(&|e| e.0),
        avg_ms(&|e| e.1),
        flexnet_controller::raft::ELECTION_TIMEOUT_MIN,
        flexnet_controller::raft::ELECTION_TIMEOUT_MAX,
    );

    println!("\n--- availability: majority vs minority partitions ---\n");
    let mut c = RaftCluster::new(5, 99);
    let leader = c.run_until_leader(SimDuration::from_secs(5)).unwrap();
    // Kill two nodes (minority): still available.
    let mut killed = 0;
    for i in 0..c.len() {
        if i != leader && killed < 2 {
            c.kill(i).unwrap();
            killed += 1;
        }
    }
    c.propose(b"with 3/5 alive").unwrap();
    c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
    let ok3 = c
        .committed(leader)
        .unwrap()
        .iter()
        .any(|cmd| *cmd == b"with 3/5 alive");
    // Kill one more *alive* follower (majority gone): unavailable.
    for i in 0..c.len() {
        if i != leader && c.is_alive(i) && killed < 3 {
            c.kill(i).unwrap();
            killed += 1;
        }
    }
    c.propose(b"with 2/5 alive").unwrap();
    c.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
    let ok2 = c
        .committed(leader)
        .unwrap()
        .iter()
        .any(|cmd| *cmd == b"with 2/5 alive");
    println!("commits with 3/5 controllers alive: {ok3}");
    println!(
        "commits with 2/5 controllers alive: {ok2} (correctly unavailable: {})",
        !ok2
    );
}

fn main() {
    header(
        "E10",
        "real-time network control",
        "dRPC executes at data-plane speeds vs ms-scale controller escalation; \
         replicated state survives device failure; distributed controllers \
         re-elect and keep piloting (paper \u{a7}3.4)",
    );
    drpc_section();
    replication_section();
    raft_section();
    println!(
        "\nshape check: dRPC stays in double-digit microseconds while controller \
         escalation is milliseconds (~100x); failover loss shrinks to zero as \
         sync frequency rises; elections complete in a few hundred simulated ms \
         and the replicated management log survives leader loss."
    );
}
