//! Adversarial/invariant tests for the Raft controller cluster: election
//! safety (at most one leader per term), log-matching on committed
//! prefixes, and liveness under churn and loss.

use flexnet_controller::raft::{RaftCluster, Role};
use flexnet_types::SimDuration;
use proptest::prelude::*;

/// Committed prefixes across nodes must never conflict: one is a prefix of
/// the other.
fn assert_log_matching(c: &RaftCluster) {
    for i in 0..c.len() {
        for j in (i + 1)..c.len() {
            let a = c.committed(i).unwrap();
            let b = c.committed(j).unwrap();
            let n = a.len().min(b.len());
            assert_eq!(&a[..n], &b[..n], "committed prefixes diverge ({i} vs {j})");
        }
    }
}

#[test]
fn at_most_one_leader_per_term_over_long_run() {
    use std::collections::BTreeMap;
    let mut c = RaftCluster::new(5, 314);
    c.drop_prob = 0.1;
    let mut leaders_by_term: BTreeMap<u64, std::collections::BTreeSet<usize>> = BTreeMap::new();
    for step in 0..2_000 {
        c.step(SimDuration::from_millis(5));
        for i in 0..c.len() {
            if c.role(i) == Role::Leader {
                leaders_by_term.entry(c.term(i)).or_default().insert(i);
            }
        }
        // Periodic churn: kill and revive a rotating node.
        if step % 400 == 399 {
            let victim = (step / 400) % c.len();
            c.kill(victim).unwrap();
        }
        if step % 400 == 200 && step > 400 {
            let victim = ((step - 200) / 400) % c.len();
            c.revive(victim).unwrap();
        }
    }
    for (term, leaders) in &leaders_by_term {
        assert!(
            leaders.len() <= 1,
            "term {term} had multiple leaders: {leaders:?}"
        );
    }
    assert!(!leaders_by_term.is_empty(), "someone led at some point");
}

#[test]
fn committed_prefixes_never_diverge_under_churn() {
    let mut c = RaftCluster::new(5, 2718);
    c.drop_prob = 0.05;
    let mut proposed = 0;
    for round in 0..40 {
        c.run_for(SimDuration::from_millis(250), SimDuration::from_millis(10));
        if c.leader().is_some() {
            let _ = c.propose(format!("cmd{proposed}").as_bytes());
            proposed += 1;
        }
        assert_log_matching(&c);
        if round % 10 == 9 {
            if let Some(l) = c.leader() {
                c.kill(l).unwrap();
                c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
                c.revive(l).unwrap();
            }
        }
    }
    c.drop_prob = 0.0;
    c.run_for(SimDuration::from_secs(3), SimDuration::from_millis(10));
    assert_log_matching(&c);
    // Liveness: a healthy quiescent cluster converges on a sizable log.
    let leader = c.leader().expect("leader after recovery");
    assert!(
        c.committed(leader).unwrap().len() >= proposed / 2,
        "committed {} of {} proposals",
        c.committed(leader).unwrap().len(),
        proposed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Elections succeed for any seed and moderate loss.
    #[test]
    fn election_liveness(seed in any::<u64>(), loss in 0u32..30) {
        let mut c = RaftCluster::new(5, seed);
        c.drop_prob = loss as f64 / 100.0;
        let leader = c.run_until_leader(SimDuration::from_secs(30));
        prop_assert!(leader.is_some(), "no leader with seed {seed} loss {loss}%");
    }

    /// A committed entry survives the crash of any minority subset.
    #[test]
    fn committed_entries_survive_minority_crash(
        seed in any::<u64>(),
        kill_mask in 0usize..5,
    ) {
        let mut c = RaftCluster::new(5, seed);
        c.run_until_leader(SimDuration::from_secs(10)).unwrap();
        c.propose(b"durable").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        // Kill up to two nodes (a minority), chosen by the mask.
        let mut killed = 0;
        for i in 0..c.len() {
            if killed < 2 && (i + kill_mask) % 2 == 0 {
                c.kill(i).unwrap();
                killed += 1;
            }
        }
        c.run_for(SimDuration::from_secs(3), SimDuration::from_millis(10));
        let leader = c.leader().expect("majority keeps a leader");
        prop_assert!(c.committed(leader).unwrap().iter().any(|cmd| *cmd == b"durable"));
    }
}
