//! Distributed controller consensus.
//!
//! Paper §3.4: "For large networks, logically centralized controllers are
//! realized in physically distributed nodes, which brings classic
//! distributed systems concerns on consensus and availability."
//!
//! This module is a self-contained, simulated-time Raft implementation:
//! leader election with randomized timeouts, log replication with the
//! prev-index/term consistency check, majority commit (current-term only),
//! and a lossy message fabric. Controller commands (app deployments, tenant
//! changes) are replicated as log entries so any controller node can take
//! over piloting the network after a failure (experiment E10).
//!
//! Since ISSUE 9 every node persists through a [`NodeStorage`] — hard
//! state (term/vote) is fsync'd *before* any vote or append is
//! acknowledged, log entries are fsync'd before the append response, and
//! [`RaftCluster::revive`] rebuilds the node from disk via a checksummed
//! scrub instead of trusting its pre-crash memory. The default storage is
//! fault-free (fsync-on-write), which keeps every pre-existing experiment
//! byte-identical; the E21 storage-chaos schedules arm fault plans via
//! [`RaftCluster::new_with`]. Three consequences of taking storage
//! seriously:
//!
//! - a node whose disk trips mid-write **self-crashes** instead of
//!   acking (the write may or may not be durable — only a crash-recover
//!   scrub can tell);
//! - a node whose recovery had to discard synced bytes (torn tail, bit
//!   rot) rejoins **catch-up-only**: it never campaigns or grants votes
//!   while its log may have a hole, until replication has refilled it to
//!   the leader's commit point;
//! - logs are bounded: [`RaftCluster::compact_to`] folds the committed
//!   prefix into a checksummed snapshot and followers that fell behind
//!   the snapshot horizon are caught up with an `InstallSnapshot`.

use crate::storage::NodeStorage;
use flexnet_types::{FlexError, Result, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::rc::Rc;

/// Election timeouts are drawn uniformly from this range.
pub const ELECTION_TIMEOUT_MIN: SimDuration = SimDuration::from_millis(150);
/// Upper bound of the election timeout range.
pub const ELECTION_TIMEOUT_MAX: SimDuration = SimDuration::from_millis(300);
/// Leader heartbeat (empty AppendEntries) interval.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// One-way message delay on the controller fabric.
pub const NET_DELAY: SimDuration = SimDuration::from_millis(5);

/// A Raft term.
pub type Term = u64;

/// A controller command's bytes (opaque to Raft): an immutable slice of a
/// shared buffer.
///
/// A clone copies a reference count, never the bytes: a proposal allocates
/// its command once and every log, message and replica shares it, a
/// revive decodes its whole log into one buffer
/// ([`NodeStorage::recover`]), and a compaction's summary is one buffer
/// all compacted nodes share. A buffer lives as long as any command points
/// into it. A command dereferences to `&[u8]` and compares and hashes
/// exactly as that slice does.
///
/// The count is an `Rc`'s, not an `Arc`'s: a cluster is driven by one
/// thread, and an atomic increment and decrement per kept command cost
/// about a third of a revive.
#[derive(Clone)]
pub struct LogCommand {
    buf: Rc<[u8]>,
    start: usize,
    end: usize,
}

impl LogCommand {
    /// `commands` back to back in one shared buffer, one command each.
    pub fn shared<B: AsRef<[u8]>>(commands: impl IntoIterator<Item = B>) -> Vec<LogCommand> {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for command in commands {
            buf.extend_from_slice(command.as_ref());
            ends.push(buf.len());
        }
        let buf = Rc::from(buf);
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts
            .zip(&ends)
            .map(|(start, &end)| LogCommand::slice(&buf, start..end))
            .collect()
    }

    /// The command at `at` in `buf`.
    pub(crate) fn slice(buf: &Rc<[u8]>, at: Range<usize>) -> LogCommand {
        LogCommand {
            buf: Rc::clone(buf),
            start: at.start,
            end: at.end,
        }
    }

    /// The command's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl Deref for LogCommand {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<&[u8]> for LogCommand {
    fn from(bytes: &[u8]) -> LogCommand {
        let buf: Rc<[u8]> = Rc::from(bytes);
        LogCommand::slice(&buf, 0..bytes.len())
    }
}

impl PartialEq for LogCommand {
    fn eq(&self, other: &LogCommand) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for LogCommand {}

impl<const N: usize> PartialEq<&[u8; N]> for LogCommand {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_bytes() == *other
    }
}

impl Hash for LogCommand {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

/// Printed as a byte-string literal: `b"deploy app1"`, `b"\x02\x05"`.
impl fmt::Debug for LogCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.as_bytes().escape_ascii())
    }
}

/// One replicated controller command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The term in which the entry was created.
    pub term: Term,
    /// The controller command.
    pub command: LogCommand,
}

/// A node's current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// The (at most one per term) leader.
    Leader,
}

#[derive(Debug, Clone)]
enum Msg {
    RequestVote {
        term: Term,
        candidate: usize,
        last_log_index: usize,
        last_log_term: Term,
    },
    Vote {
        term: Term,
        from: usize,
        granted: bool,
    },
    AppendEntries {
        term: Term,
        leader: usize,
        prev_index: usize,
        prev_term: Term,
        entries: Vec<LogEntry>,
        leader_commit: usize,
    },
    AppendResp {
        term: Term,
        from: usize,
        success: bool,
        match_index: usize,
    },
    /// The follower is behind the leader's snapshot horizon: ship the
    /// whole snapshot (summary command sequence) instead of entries.
    InstallSnapshot {
        term: Term,
        leader: usize,
        base_index: usize,
        base_term: Term,
        cmds: Vec<LogCommand>,
    },
}

#[derive(Debug)]
struct RaftNode {
    term: Term,
    voted_for: Option<usize>,
    /// Entries *after* the snapshot: `log[k]` is global index
    /// `base_index + k + 1`.
    log: Vec<LogEntry>,
    /// Number of globally committed entries (≥ `base_index`).
    commit: usize,
    /// Global index the snapshot covers through (0 = no snapshot).
    base_index: usize,
    /// Term of the entry at `base_index`.
    base_term: Term,
    /// The snapshot's summary command sequence.
    snapshot: Vec<LogCommand>,
    role: Role,
    election_deadline: SimTime,
    last_heartbeat: SimTime,
    votes: BTreeSet<usize>,
    next_index: Vec<usize>,
    match_index: Vec<usize>,
    alive: bool,
    /// Recovery discarded synced bytes: the log may have a hole, so the
    /// node must not vote or campaign until replication refills it.
    catchup_only: bool,
    /// Bumped by everything that changes the committed prefix other than
    /// growth (see [`CommittedView::generation`]).
    prefix_gen: u64,
    storage: NodeStorage,
}

impl RaftNode {
    /// Global index of the last entry (snapshot included).
    fn last_index(&self) -> usize {
        self.base_index + self.log.len()
    }

    /// Term of the entry at global index `idx` (0 for index 0, the
    /// snapshot's base term at the base, 0 when unknown/out of range).
    fn term_at(&self, idx: usize) -> Term {
        if idx == 0 {
            0
        } else if idx == self.base_index {
            self.base_term
        } else if idx > self.base_index && idx <= self.last_index() {
            self.log[idx - self.base_index - 1].term
        } else {
            0
        }
    }

    /// Term of the last entry (base term when the tail is empty).
    fn last_term(&self) -> Term {
        self.log.last().map(|e| e.term).unwrap_or(self.base_term)
    }
}

/// A borrowed look at one node's committed command sequence: the snapshot
/// summary followed by the committed log tail, with no command cloned.
#[derive(Debug, Clone, Copy)]
pub struct CommittedView<'a> {
    /// The node's prefix generation. Between two views of one node with
    /// the same generation the sequence only *grew*: the earlier view is a
    /// prefix of the later one. Everything else that can happen to a
    /// committed prefix bumps it — [`RaftCluster::revive`] (rebuilt from
    /// the disk scrub), [`RaftCluster::compact_to`], adopting an
    /// `InstallSnapshot`, and (defensively; Raft's log-matching property
    /// rules it out) a follower truncating below its commit index.
    pub generation: u64,
    /// The snapshot's summary command sequence.
    pub snapshot: &'a [LogCommand],
    /// The committed entries after the snapshot.
    pub tail: &'a [LogEntry],
}

impl<'a> CommittedView<'a> {
    /// The commands from position `from` (0-based, snapshot first) on.
    pub fn commands_from(&self, from: usize) -> impl Iterator<Item = &'a [u8]> {
        let snapshot = self.snapshot.get(from..).unwrap_or_default();
        let tail = self
            .tail
            .get(from.saturating_sub(self.snapshot.len())..)
            .unwrap_or_default();
        snapshot
            .iter()
            .map(LogCommand::as_bytes)
            .chain(tail.iter().map(|e| e.command.as_bytes()))
    }
}

/// A simulated cluster of Raft controller nodes.
#[derive(Debug)]
pub struct RaftCluster {
    nodes: Vec<RaftNode>,
    now: SimTime,
    rng: StdRng,
    /// Probability each message is dropped by the fabric.
    pub drop_prob: f64,
    inflight: Vec<(SimTime, usize, Msg)>,
    /// Last node observed acting as leader (hint for [`FlexError::NoLeader`]).
    last_leader: Option<usize>,
}

impl RaftCluster {
    /// A cluster of `n` nodes with a deterministic seed and fault-free
    /// storage (every write durable immediately; crashes lose nothing).
    pub fn new(n: usize, seed: u64) -> RaftCluster {
        let storages = (0..n)
            .map(|i| {
                NodeStorage::fault_free(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .collect();
        RaftCluster::new_with(n, seed, storages)
    }

    /// A cluster whose node `i` persists through `storages[i]` (possibly
    /// armed with fault plans, possibly carrying pre-crash state — each
    /// node boots from whatever its storage recovers).
    ///
    /// Storage never draws from the cluster RNG, so arming plans cannot
    /// perturb the seeded election/fabric stream.
    pub fn new_with(n: usize, seed: u64, storages: Vec<NodeStorage>) -> RaftCluster {
        assert_eq!(storages.len(), n, "one NodeStorage per node");
        let mut rng = StdRng::seed_from_u64(seed);
        let now = SimTime::ZERO;
        let nodes = storages
            .into_iter()
            .map(|mut storage| {
                let deadline = now + random_timeout(&mut rng);
                let rec = storage.recover();
                RaftNode {
                    term: rec.term,
                    voted_for: rec.voted_for,
                    log: rec.entries,
                    commit: rec.base_index as usize,
                    base_index: rec.base_index as usize,
                    base_term: rec.base_term,
                    snapshot: rec.snapshot_cmds,
                    role: Role::Follower,
                    election_deadline: deadline,
                    last_heartbeat: now,
                    votes: BTreeSet::new(),
                    next_index: vec![0; n],
                    match_index: vec![0; n],
                    alive: true,
                    catchup_only: rec.needs_catchup,
                    prefix_gen: 0,
                    storage,
                }
            })
            .collect();
        RaftCluster {
            nodes,
            now,
            rng,
            drop_prob: 0.0,
            inflight: Vec::new(),
            last_leader: None,
        }
    }

    /// Cluster size.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The alive leader with the highest term, if any.
    pub fn leader(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive && n.role == Role::Leader)
            .max_by_key(|(_, n)| n.term)
            .map(|(i, _)| i)
    }

    /// A node's role.
    pub fn role(&self, i: usize) -> Role {
        self.nodes[i].role
    }

    /// A node's term.
    pub fn term(&self, i: usize) -> Term {
        self.nodes[i].term
    }

    /// Looks up node `i`, with a typed error instead of an index panic.
    fn node(&self, i: usize) -> Result<&RaftNode> {
        self.nodes
            .get(i)
            .ok_or_else(|| FlexError::NotFound(format!("raft node {i}")))
    }

    /// The committed command sequence as node `i` can reconstruct it:
    /// snapshot summary followed by the committed log tail, borrowed.
    pub fn committed_view(&self, i: usize) -> Result<CommittedView<'_>> {
        let n = self.node(i)?;
        let tail = n.commit.saturating_sub(n.base_index).min(n.log.len());
        Ok(CommittedView {
            generation: n.prefix_gen,
            snapshot: &n.snapshot,
            tail: &n.log[..tail],
        })
    }

    /// [`RaftCluster::committed_view`], the commands shared (for tests
    /// and harness grading; the control plane reads the view).
    pub fn committed(&self, i: usize) -> Result<Vec<LogCommand>> {
        let view = self.committed_view(i)?;
        let tail = view.tail.iter().map(|e| e.command.clone());
        Ok(view.snapshot.iter().cloned().chain(tail).collect())
    }

    /// Global index of a node's last entry (committed and uncommitted,
    /// snapshot included).
    pub fn log_len(&self, i: usize) -> Result<usize> {
        Ok(self.node(i)?.last_index())
    }

    /// Number of globally committed entries as node `i` knows it.
    pub fn commit_index(&self, i: usize) -> Result<u64> {
        Ok(self.node(i)?.commit as u64)
    }

    /// Global index node `i`'s snapshot covers through (0 = none).
    pub fn base_index(&self, i: usize) -> Result<u64> {
        Ok(self.node(i)?.base_index as u64)
    }

    /// The command at 1-based global index `global` in node `i`'s log
    /// tail. `None` when the slot was compacted into the snapshot or is
    /// beyond the last entry.
    pub fn command_at(&self, i: usize, global: u64) -> Result<Option<&[u8]>> {
        let n = self.node(i)?;
        let global = global as usize;
        if global <= n.base_index || global > n.last_index() {
            return Ok(None);
        }
        Ok(Some(&n.log[global - n.base_index - 1].command))
    }

    /// Whether node `i` is demoted to catch-up-only (rejoined with a
    /// possible hole in its log; must not vote until refilled).
    pub fn catchup_only(&self, i: usize) -> bool {
        self.nodes.get(i).is_some_and(|n| n.catchup_only)
    }

    /// Node `i`'s durable storage (counters, disk stats).
    pub fn storage(&self, i: usize) -> Result<&NodeStorage> {
        Ok(&self.node(i)?.storage)
    }

    /// Node `i`'s durable storage, mutable (fault injection in
    /// harnesses: bit rot, snapshot rot).
    pub fn storage_mut(&mut self, i: usize) -> Result<&mut NodeStorage> {
        self.node(i)?;
        Ok(&mut self.nodes[i].storage)
    }

    /// Kills a node (it stops sending and receiving). The power loss
    /// also crashes its disks: unsynced bytes die, an armed plan may
    /// tear the in-flight record.
    pub fn kill(&mut self, i: usize) -> Result<()> {
        self.node(i)?;
        self.nodes[i].alive = false;
        self.nodes[i].storage.crash();
        Ok(())
    }

    /// Revives a node as a follower, rebuilding term/vote/log/snapshot
    /// from its disks via the recovery scrub — *not* from its pre-crash
    /// memory. A recovery that had to discard synced bytes demotes the
    /// node to catch-up-only.
    pub fn revive(&mut self, i: usize) -> Result<()> {
        self.node(i)?;
        let deadline = self.now + random_timeout(&mut self.rng);
        let n_nodes = self.nodes.len();
        let rec = self.nodes[i].storage.recover();
        let n = &mut self.nodes[i];
        n.term = rec.term;
        n.voted_for = rec.voted_for;
        n.base_index = rec.base_index as usize;
        n.base_term = rec.base_term;
        n.snapshot = rec.snapshot_cmds;
        n.log = rec.entries;
        n.commit = n.base_index;
        // The prefix now is whatever the scrub verified, not what memory
        // held before the crash.
        n.prefix_gen += 1;
        n.alive = true;
        n.role = Role::Follower;
        n.votes.clear();
        n.next_index = vec![0; n_nodes];
        n.match_index = vec![0; n_nodes];
        n.catchup_only = rec.needs_catchup;
        n.election_deadline = deadline;
        Ok(())
    }

    /// Number of alive nodes.
    pub fn alive(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Whether node `i` is alive (`false` for out-of-range indices).
    pub fn is_alive(&self, i: usize) -> bool {
        self.nodes.get(i).is_some_and(|n| n.alive)
    }

    /// Proposes a command to the current leader.
    ///
    /// With no leader this fails with [`FlexError::NoLeader`] carrying the
    /// last known leader as a hint and an election timeout as the
    /// retry-after — a *retryable* condition (elections converge on their
    /// own), which [`crate::retry::with_retry`] honors by backing off and
    /// re-proposing instead of giving up.
    ///
    /// The entry is fsync'd to the leader's WAL *before* it enters the
    /// in-memory log. A leader whose disk trips mid-append self-crashes
    /// (the command's durability is unknowable without a scrub) and the
    /// storage error propagates; a typed refusal (`NoSpace`) leaves the
    /// leader intact and the log unchanged. Any bytes are a command, the
    /// empty sequence too.
    pub fn propose(&mut self, command: &[u8]) -> Result<()> {
        let Some(leader) = self.leader() else {
            return Err(FlexError::NoLeader {
                hint: self.last_leader.map(|l| l as u64),
                retry_after: ELECTION_TIMEOUT_MAX,
            });
        };
        let entry = LogEntry {
            term: self.nodes[leader].term,
            command: LogCommand::from(command),
        };
        let at = self.nodes[leader].last_index() as u64;
        if let Err(e) = self.nodes[leader]
            .storage
            .sync_log(at, std::slice::from_ref(&entry))
        {
            if self.nodes[leader].storage.is_tripped() {
                self.self_crash(leader);
            }
            return Err(e);
        }
        self.nodes[leader].log.push(entry);
        let last = self.nodes[leader].last_index();
        self.nodes[leader].match_index[leader] = last;
        Ok(())
    }

    /// Folds node `i`'s committed prefix through global index `upto`
    /// into a snapshot whose replacement command sequence is `summary`.
    /// The snapshot is fsync'd before the in-memory log shrinks, and WAL
    /// segments behind the snapshot-fallback horizon are deleted. On
    /// [`flexnet_types::StorageError::NoSpace`] the node keeps its full
    /// log and the typed error propagates. The node shares `summary`'s
    /// commands.
    pub fn compact_to(&mut self, i: usize, upto: u64, summary: &[LogCommand]) -> Result<()> {
        self.node(i)?;
        let upto_us = upto as usize;
        let (base, commit) = (self.nodes[i].base_index, self.nodes[i].commit);
        if upto_us <= base || upto_us > commit {
            return Err(FlexError::Consensus(format!(
                "compaction point {upto} outside ({base}, {commit}]"
            )));
        }
        let new_term = self.nodes[i].term_at(upto_us);
        self.nodes[i]
            .storage
            .compact_snapshot(upto, new_term, summary)?;
        let n = &mut self.nodes[i];
        n.log.drain(..upto_us - n.base_index);
        n.snapshot = summary.to_vec();
        n.base_index = upto_us;
        n.base_term = new_term;
        n.prefix_gen += 1;
        Ok(())
    }

    /// Advances simulated time by `dt`, delivering messages and firing
    /// timeouts.
    pub fn step(&mut self, dt: SimDuration) {
        self.now += dt;
        // Deliver due messages, moved out in send order; the stable sort
        // then orders them by recipient.
        let mut due: Vec<(usize, Msg)> = self
            .inflight
            .extract_if(.., |(at, _, _)| *at <= self.now)
            .map(|(_, to, msg)| (to, msg))
            .collect();
        due.sort_by_key(|(to, _)| *to);
        for (to, msg) in due {
            if self.nodes[to].alive {
                self.handle(to, msg);
            }
        }
        // Timers.
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            match self.nodes[i].role {
                Role::Leader => {
                    if self.now.saturating_since(self.nodes[i].last_heartbeat) >= HEARTBEAT_INTERVAL
                    {
                        self.nodes[i].last_heartbeat = self.now;
                        self.send_appends(i);
                    }
                }
                Role::Follower | Role::Candidate => {
                    if self.now >= self.nodes[i].election_deadline {
                        self.start_election(i);
                    }
                }
            }
        }
    }

    /// Runs the cluster for `duration` in `tick`-sized steps.
    pub fn run_for(&mut self, duration: SimDuration, tick: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            self.step(tick);
        }
    }

    /// Runs until a leader exists or `max` elapses; returns the leader.
    pub fn run_until_leader(&mut self, max: SimDuration) -> Option<usize> {
        let end = self.now + max;
        while self.now < end {
            if let Some(l) = self.leader() {
                return Some(l);
            }
            self.step(SimDuration::from_millis(10));
        }
        self.leader()
    }

    fn send(&mut self, to: usize, msg: Msg) {
        if self.rng.gen_bool(self.drop_prob.clamp(0.0, 1.0)) {
            return;
        }
        // Small jitter keeps elections from livelocking in lockstep.
        let jitter = SimDuration::from_micros(self.rng.gen_range(0..1000));
        self.inflight.push((self.now + NET_DELAY + jitter, to, msg));
    }

    /// A storage-induced crash: the node stops (no ack for whatever was
    /// in flight) and its disks take the power loss.
    fn self_crash(&mut self, i: usize) {
        self.nodes[i].alive = false;
        self.nodes[i].storage.crash();
    }

    /// Fsyncs node `i`'s current (term, vote) to its hard-state disk.
    /// Returns whether the persist succeeded — callers must not send the
    /// message the persist guards otherwise. A tripped medium
    /// self-crashes the node.
    fn persist_hard(&mut self, i: usize) -> bool {
        let term = self.nodes[i].term;
        let vote = self.nodes[i].voted_for;
        match self.nodes[i].storage.persist_hard(term, vote) {
            Ok(_) => true,
            Err(_) => {
                if self.nodes[i].storage.is_tripped() {
                    self.self_crash(i);
                }
                false
            }
        }
    }

    fn start_election(&mut self, i: usize) {
        let deadline = self.now + random_timeout(&mut self.rng);
        if self.nodes[i].catchup_only {
            // Never campaign with a hole in the log: the candidate's
            // completeness check would lie about what it durably holds.
            self.nodes[i].election_deadline = deadline;
            return;
        }
        let (term, last_log_index, last_log_term) = {
            let n = &mut self.nodes[i];
            n.role = Role::Candidate;
            n.term += 1;
            n.voted_for = Some(i);
            n.votes = BTreeSet::from([i]);
            n.election_deadline = deadline;
            (n.term, n.last_index(), n.last_term())
        };
        // The term bump and self-vote must be durable before any ballot
        // leaves the node (a re-voting amnesiac could elect two leaders).
        if !self.persist_hard(i) {
            return;
        }
        for peer in 0..self.nodes.len() {
            if peer != i {
                self.send(
                    peer,
                    Msg::RequestVote {
                        term,
                        candidate: i,
                        last_log_index,
                        last_log_term,
                    },
                );
            }
        }
        self.maybe_win(i);
    }

    fn maybe_win(&mut self, i: usize) {
        let majority = self.nodes.len() / 2 + 1;
        if self.nodes[i].role == Role::Candidate && self.nodes[i].votes.len() >= majority {
            let last = self.nodes[i].last_index();
            let n_nodes = self.nodes.len();
            let n = &mut self.nodes[i];
            n.role = Role::Leader;
            n.next_index = vec![last; n_nodes];
            n.match_index = vec![0; n_nodes];
            n.match_index[i] = last;
            n.last_heartbeat = self.now;
            self.last_leader = Some(i);
            self.send_appends(i);
        }
    }

    fn send_appends(&mut self, leader: usize) {
        for peer in 0..self.nodes.len() {
            if peer == leader {
                continue;
            }
            // A peer behind the snapshot horizon can't be served from
            // the log — ship the snapshot itself.
            if self.nodes[leader].next_index[peer] < self.nodes[leader].base_index {
                let n = &self.nodes[leader];
                let msg = Msg::InstallSnapshot {
                    term: n.term,
                    leader,
                    base_index: n.base_index,
                    base_term: n.base_term,
                    cmds: n.snapshot.clone(),
                };
                self.send(peer, msg);
                continue;
            }
            let (term, prev_index, prev_term, entries, leader_commit) = {
                let n = &self.nodes[leader];
                let next = n.next_index[peer].min(n.last_index()).max(n.base_index);
                let prev_term = n.term_at(next);
                (
                    n.term,
                    next,
                    prev_term,
                    n.log[next - n.base_index..].to_vec(),
                    n.commit,
                )
            };
            self.send(
                peer,
                Msg::AppendEntries {
                    term,
                    leader,
                    prev_index,
                    prev_term,
                    entries,
                    leader_commit,
                },
            );
        }
    }

    fn become_follower(&mut self, i: usize, term: Term) {
        let deadline = self.now + random_timeout(&mut self.rng);
        let n = &mut self.nodes[i];
        n.term = term;
        n.role = Role::Follower;
        n.voted_for = None;
        n.votes.clear();
        n.election_deadline = deadline;
        // The new term is durable before the node acts in it.
        self.persist_hard(i);
    }

    fn handle(&mut self, me: usize, msg: Msg) {
        match msg {
            Msg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                if term > self.nodes[me].term {
                    self.become_follower(me, term);
                    if !self.nodes[me].alive {
                        return;
                    }
                }
                let (granted_raw, catchup) = {
                    let n = &self.nodes[me];
                    let up_to_date = last_log_term > n.last_term()
                        || (last_log_term == n.last_term() && last_log_index >= n.last_index());
                    (
                        term >= n.term
                            && up_to_date
                            && (n.voted_for.is_none() || n.voted_for == Some(candidate)),
                        n.catchup_only,
                    )
                };
                // "Never votes with a hole": a catch-up-only node's
                // ballot could elect a leader missing committed entries.
                let mut granted = granted_raw && !catchup;
                if granted_raw && catchup {
                    self.nodes[me].storage.counters_mut().votes_refused_catchup += 1;
                }
                if granted {
                    self.nodes[me].voted_for = Some(candidate);
                    self.nodes[me].election_deadline = self.now + random_timeout(&mut self.rng);
                    // The vote must be durable before the ballot is sent
                    // (an amnesiac re-vote could elect two leaders).
                    if !self.persist_hard(me) {
                        if !self.nodes[me].alive {
                            return;
                        }
                        self.nodes[me].voted_for = None;
                        granted = false;
                    }
                }
                let my_term = self.nodes[me].term;
                self.send(
                    candidate,
                    Msg::Vote {
                        term: my_term,
                        from: me,
                        granted,
                    },
                );
            }
            Msg::Vote {
                term,
                from,
                granted,
            } => {
                if term > self.nodes[me].term {
                    self.become_follower(me, term);
                    return;
                }
                if granted && self.nodes[me].role == Role::Candidate {
                    self.nodes[me].votes.insert(from);
                    self.maybe_win(me);
                }
            }
            Msg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => {
                if term > self.nodes[me].term
                    || (term == self.nodes[me].term && self.nodes[me].role != Role::Follower)
                {
                    self.become_follower(me, term);
                    if !self.nodes[me].alive {
                        return;
                    }
                }
                if term < self.nodes[me].term {
                    let my_term = self.nodes[me].term;
                    self.send(
                        leader,
                        Msg::AppendResp {
                            term: my_term,
                            from: me,
                            success: false,
                            match_index: 0,
                        },
                    );
                    return;
                }
                // Valid leader contact: reset election timer.
                self.nodes[me].election_deadline = self.now + random_timeout(&mut self.rng);
                self.last_leader = Some(leader);
                // Normalize a prev below my snapshot base: the entries
                // overlapping the snapshot are committed and known to
                // match — skip them.
                let mut entries = entries;
                let (prev_index, prev_term, covered) = {
                    let n = &self.nodes[me];
                    if prev_index < n.base_index {
                        let skip = n.base_index - prev_index;
                        entries.drain(..skip.min(entries.len()));
                        (n.base_index, n.base_term, entries.is_empty())
                    } else {
                        (prev_index, prev_term, false)
                    }
                };
                let ok = covered || {
                    let n = &self.nodes[me];
                    prev_index <= n.last_index()
                        && (prev_index == 0 || n.term_at(prev_index) == prev_term)
                };
                let (success, match_index) = if ok {
                    // First entry that is actually new (index beyond my
                    // log, or a term conflict). Matching duplicates —
                    // heartbeats, resends — cost zero disk writes.
                    let first_new = {
                        let n = &self.nodes[me];
                        let mut k = entries.len();
                        for (j, e) in entries.iter().enumerate() {
                            let idx = prev_index + j + 1;
                            if idx > n.last_index() || n.term_at(idx) != e.term {
                                k = j;
                                break;
                            }
                        }
                        k
                    };
                    if first_new < entries.len() {
                        let write_from = (prev_index + first_new) as u64;
                        // The suffix must be durable before the ack.
                        let new = &entries[first_new..];
                        match self.nodes[me].storage.sync_log(write_from, new) {
                            Ok(_) => {
                                let n = &mut self.nodes[me];
                                if prev_index + first_new < n.commit {
                                    n.prefix_gen += 1;
                                }
                                n.log.truncate(prev_index + first_new - n.base_index);
                                n.log.extend(entries.drain(first_new..));
                            }
                            Err(_) => {
                                if self.nodes[me].storage.is_tripped() {
                                    // The append may be half on the
                                    // platter — crash, never ack.
                                    self.self_crash(me);
                                    return;
                                }
                                let my_term = self.nodes[me].term;
                                self.send(
                                    leader,
                                    Msg::AppendResp {
                                        term: my_term,
                                        from: me,
                                        success: false,
                                        match_index: 0,
                                    },
                                );
                                return;
                            }
                        }
                    }
                    let n = &mut self.nodes[me];
                    let new_commit = leader_commit.min(n.last_index());
                    n.commit = n.commit.max(new_commit).max(n.base_index);
                    // Catch-up complete: the node now holds everything
                    // the leader knows committed, so it may vote again.
                    if n.catchup_only && n.last_index() >= leader_commit {
                        n.catchup_only = false;
                    }
                    (true, n.last_index())
                } else {
                    (false, 0)
                };
                let my_term = self.nodes[me].term;
                self.send(
                    leader,
                    Msg::AppendResp {
                        term: my_term,
                        from: me,
                        success,
                        match_index,
                    },
                );
            }
            Msg::InstallSnapshot {
                term,
                leader,
                base_index,
                base_term,
                cmds,
            } => {
                if term > self.nodes[me].term
                    || (term == self.nodes[me].term && self.nodes[me].role != Role::Follower)
                {
                    self.become_follower(me, term);
                    if !self.nodes[me].alive {
                        return;
                    }
                }
                if term < self.nodes[me].term {
                    let my_term = self.nodes[me].term;
                    self.send(
                        leader,
                        Msg::AppendResp {
                            term: my_term,
                            from: me,
                            success: false,
                            match_index: 0,
                        },
                    );
                    return;
                }
                self.nodes[me].election_deadline = self.now + random_timeout(&mut self.rng);
                self.last_leader = Some(leader);
                let my_commit = self.nodes[me].commit;
                let match_index = if base_index > my_commit {
                    // Adopt: everything through base_index is committed
                    // cluster-wide, so discarding the local log is safe.
                    match self.nodes[me]
                        .storage
                        .adopt_snapshot(base_index as u64, base_term, &cmds)
                    {
                        Ok(_) => {
                            let n = &mut self.nodes[me];
                            n.snapshot = cmds;
                            n.base_index = base_index;
                            n.base_term = base_term;
                            n.log.clear();
                            n.commit = base_index;
                            n.prefix_gen += 1;
                            base_index
                        }
                        Err(_) => {
                            if self.nodes[me].storage.is_tripped() {
                                self.self_crash(me);
                                return;
                            }
                            let my_term = self.nodes[me].term;
                            self.send(
                                leader,
                                Msg::AppendResp {
                                    term: my_term,
                                    from: me,
                                    success: false,
                                    match_index: 0,
                                },
                            );
                            return;
                        }
                    }
                } else {
                    // Already have it: tell the leader where I really am.
                    my_commit
                };
                let my_term = self.nodes[me].term;
                self.send(
                    leader,
                    Msg::AppendResp {
                        term: my_term,
                        from: me,
                        success: true,
                        match_index,
                    },
                );
            }
            Msg::AppendResp {
                term,
                from,
                success,
                match_index,
            } => {
                if term > self.nodes[me].term {
                    self.become_follower(me, term);
                    return;
                }
                if self.nodes[me].role != Role::Leader {
                    return;
                }
                if success {
                    self.nodes[me].match_index[from] =
                        self.nodes[me].match_index[from].max(match_index);
                    self.nodes[me].next_index[from] = match_index;
                    self.advance_commit(me);
                } else {
                    // Back off and retry on next heartbeat.
                    let ni = &mut self.nodes[me].next_index[from];
                    *ni = ni.saturating_sub(1);
                }
            }
        }
    }

    /// Leader commit rule: the largest index replicated on a majority whose
    /// entry is from the current term.
    fn advance_commit(&mut self, leader: usize) {
        let majority = self.nodes.len() / 2 + 1;
        let n = &self.nodes[leader];
        let mut candidate = n.commit;
        for idx in (n.commit + 1)..=n.last_index() {
            let replicas = n.match_index.iter().filter(|m| **m >= idx).count();
            if replicas >= majority && n.term_at(idx) == n.term {
                candidate = idx;
            }
        }
        self.nodes[leader].commit = candidate;
    }
}

fn random_timeout(rng: &mut StdRng) -> SimDuration {
    let span = ELECTION_TIMEOUT_MAX.as_nanos() - ELECTION_TIMEOUT_MIN.as_nanos();
    SimDuration::from_nanos(ELECTION_TIMEOUT_MIN.as_nanos() + rng.gen_range(0..=span))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(c: &mut RaftCluster) -> usize {
        c.run_until_leader(SimDuration::from_secs(5))
            .expect("a leader must emerge")
    }

    #[test]
    fn elects_exactly_one_leader() {
        let mut c = RaftCluster::new(5, 42);
        let leader = settle(&mut c);
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        let leaders: Vec<usize> = (0..c.len())
            .filter(|&i| c.role(i) == Role::Leader)
            .collect();
        assert_eq!(leaders.len(), 1);
        assert_eq!(leaders[0], c.leader().unwrap());
        let _ = leader;
    }

    #[test]
    fn proposals_commit_on_majority() {
        let mut c = RaftCluster::new(3, 7);
        settle(&mut c);
        c.propose(b"deploy app1").unwrap();
        c.propose(b"tenant 5 arrive").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        let leader = c.leader().unwrap();
        assert_eq!(
            c.committed(leader).unwrap(),
            LogCommand::shared(["deploy app1", "tenant 5 arrive"])
        );
        // Followers converge too.
        for i in 0..c.len() {
            assert_eq!(c.committed(i).unwrap().len(), 2, "node {i} lagging");
        }
    }

    #[test]
    fn leader_failure_triggers_reelection_preserving_log() {
        let mut c = RaftCluster::new(5, 11);
        let l1 = settle(&mut c);
        c.propose(b"before failover").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        c.kill(l1).unwrap();
        c.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
        let l2 = c.leader().expect("new leader after failover");
        assert_ne!(l1, l2);
        assert!(c.term(l2) > 0);
        // The committed entry survived the failover.
        assert_eq!(c.committed(l2).unwrap(), [b"before failover"]);
        // And the new leader accepts new commands.
        c.propose(b"after failover").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        assert_eq!(c.committed(l2).unwrap().len(), 2);
    }

    #[test]
    fn no_commits_without_majority() {
        let mut c = RaftCluster::new(5, 13);
        let leader = settle(&mut c);
        // Kill 3 of 5 (leaving leader + 1).
        let mut killed = 0;
        for i in 0..c.len() {
            if i != leader && killed < 3 {
                c.kill(i).unwrap();
                killed += 1;
            }
        }
        c.propose(b"doomed").unwrap();
        c.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
        assert!(
            !c.committed(leader)
                .unwrap()
                .iter()
                .any(|cmd| *cmd == b"doomed"),
            "a minority must not commit"
        );
    }

    #[test]
    fn survives_lossy_fabric() {
        let mut c = RaftCluster::new(3, 17);
        c.drop_prob = 0.2;
        settle(&mut c);
        c.propose(b"lossy world").unwrap();
        c.run_for(SimDuration::from_secs(5), SimDuration::from_millis(10));
        let leader = c.leader().unwrap();
        assert_eq!(c.committed(leader).unwrap(), [b"lossy world"]);
    }

    #[test]
    fn revived_node_catches_up() {
        let mut c = RaftCluster::new(3, 23);
        settle(&mut c);
        // Kill a follower, commit entries, revive it.
        let leader = c.leader().unwrap();
        let follower = (0..c.len()).find(|&i| i != leader).unwrap();
        c.kill(follower).unwrap();
        c.propose(b"while you were gone").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        c.revive(follower).unwrap();
        c.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
        assert_eq!(c.committed(follower).unwrap(), [b"while you were gone"]);
    }

    #[test]
    fn propose_without_leader_is_typed_and_retryable() {
        let mut c = RaftCluster::new(3, 29);
        let err = c.propose(b"too early").unwrap_err();
        assert!(
            matches!(
                err,
                FlexError::NoLeader {
                    hint: None,
                    retry_after: ELECTION_TIMEOUT_MAX,
                }
            ),
            "got {err:?}"
        );
        assert!(err.is_retryable());
        // After an election the error (post-kill of every node) carries the
        // deposed leader as a hint.
        let leader = settle(&mut c);
        for i in 0..c.len() {
            c.kill(i).unwrap();
        }
        match c.propose(b"nobody home").unwrap_err() {
            FlexError::NoLeader { hint: Some(h), .. } => assert_eq!(h, leader as u64),
            other => panic!("expected a hinted NoLeader, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_nodes_are_typed_errors_not_panics() {
        let mut c = RaftCluster::new(3, 31);
        assert!(matches!(c.kill(99), Err(FlexError::NotFound(_))));
        assert!(matches!(c.revive(99), Err(FlexError::NotFound(_))));
        assert!(matches!(c.committed(99), Err(FlexError::NotFound(_))));
        assert!(!c.is_alive(99));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c = RaftCluster::new(5, seed);
            let l = settle(&mut c);
            (l, c.term(l))
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn whole_cluster_power_loss_recovers_the_log_from_disk() {
        let mut c = RaftCluster::new(3, 51);
        settle(&mut c);
        c.propose(b"survives power loss").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        // Kill EVERY node: all in-memory state is gone; only disks
        // survive. Then revive the fleet.
        for i in 0..c.len() {
            c.kill(i).unwrap();
        }
        for i in 0..c.len() {
            c.revive(i).unwrap();
        }
        let leader = c
            .run_until_leader(SimDuration::from_secs(5))
            .expect("fleet re-elects after full power loss");
        // Raft only commits prior-term entries through a current-term
        // one — drive one proposal to pull the old entry over the line.
        c.propose(b"post-recovery").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        assert_eq!(
            c.committed(leader).unwrap(),
            LogCommand::shared(["survives power loss", "post-recovery"])
        );
    }

    /// Commands are bytes: an empty one, one holding `\n` and one that is
    /// not UTF-8 come back byte for byte from a commit, a compaction into
    /// a snapshot, an `InstallSnapshot` to a lagging follower and a kill
    /// and revive of every node.
    #[test]
    fn any_bytes_survive_commit_snapshot_install_and_revive() {
        let odd: [&[u8]; 4] = [b"", b"a\nb", &[0xFF, 0xC3, 0x00, 0x80], b"\n"];
        let mut c = RaftCluster::new(3, 41);
        let leader = settle(&mut c);
        let lagging = (0..c.len()).find(|&i| i != leader).unwrap();
        c.kill(lagging).unwrap();
        for cmd in odd {
            c.propose(cmd).unwrap();
        }
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        assert_eq!(
            c.committed(leader).unwrap(),
            LogCommand::shared(odd),
            "committed"
        );
        // The summary replacing the prefix is those same commands.
        let upto = c.commit_index(leader).unwrap();
        let summary = c.committed(leader).unwrap();
        for i in (0..c.len()).filter(|&i| i != lagging) {
            c.compact_to(i, upto, &summary).unwrap();
        }
        for cmd in odd {
            c.propose(cmd).unwrap();
        }
        c.run_for(SimDuration::from_millis(200), SimDuration::from_millis(10));
        c.revive(lagging).unwrap();
        c.run_for(SimDuration::from_secs(3), SimDuration::from_millis(10));
        assert_eq!(
            c.base_index(lagging).unwrap(),
            upto,
            "the lagging follower's snapshot"
        );
        let want = LogCommand::shared(odd.iter().chain(&odd));
        for i in 0..c.len() {
            assert_eq!(
                c.committed(i).unwrap(),
                want,
                "node {i} before the power loss"
            );
        }
        for i in 0..c.len() {
            c.kill(i).unwrap();
            c.revive(i).unwrap();
        }
        let leader = settle(&mut c);
        // Prior-term entries commit through one of the new term.
        c.propose(b"").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        let want = LogCommand::shared(odd.iter().chain(&odd).chain(&[&b""[..]]));
        assert_eq!(c.committed(leader).unwrap(), want, "after the revive");
    }

    /// What a node holds on its disks: term and vote, every entry's term
    /// and command, the snapshot and the base it covers.
    type Held = (
        Term,
        Option<usize>,
        Vec<LogEntry>,
        Vec<LogCommand>,
        usize,
        Term,
    );

    fn held(n: &RaftNode) -> Held {
        let (log, snapshot) = (n.log.clone(), n.snapshot.clone());
        (
            n.term,
            n.voted_for,
            log,
            snapshot,
            n.base_index,
            n.base_term,
        )
    }

    /// Acked implies durable: on fault-free disks, through seeded
    /// schedules of proposals, steps, kills, revives and compactions, a
    /// revived node holds term for term and byte for byte the log and the
    /// snapshot it held when it was killed.
    #[test]
    fn a_revive_gives_back_exactly_what_was_durable() {
        const BYTES: [u8; 6] = [b'a', b'\n', 0x00, 0xC3, 0x80, 0xFF];
        let command = |rng: &mut StdRng| -> Vec<u8> {
            (0..rng.gen_range(0..5))
                .map(|_| BYTES[rng.gen_range(0..BYTES.len())])
                .collect()
        };
        let mut revives = 0;
        for seed in 0..24u64 {
            let mut c = RaftCluster::new(3, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
            let mut at_kill: Vec<Option<Held>> = vec![None; c.len()];
            for op in 0..400 {
                let i = rng.gen_range(0..c.len());
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let _ = c.propose(&command(&mut rng));
                    }
                    4..=6 => c.step(SimDuration::from_millis(rng.gen_range(1..40))),
                    7 if c.is_alive(i) => {
                        at_kill[i] = Some(held(&c.nodes[i]));
                        c.kill(i).unwrap();
                    }
                    8 => {
                        if let Some(before) = at_kill[i].take() {
                            c.revive(i).unwrap();
                            assert_eq!(held(&c.nodes[i]), before, "seed {seed} op {op} node {i}");
                            revives += 1;
                        }
                    }
                    9 if c.is_alive(i) => {
                        let (base, commit) = (c.nodes[i].base_index, c.nodes[i].commit);
                        if commit > base {
                            let upto = rng.gen_range(base + 1..=commit) as u64;
                            let summary: Vec<Vec<u8>> = (0..rng.gen_range(0..4))
                                .map(|_| command(&mut rng))
                                .collect();
                            c.compact_to(i, upto, &LogCommand::shared(summary)).unwrap();
                        }
                    }
                    _ => {}
                }
            }
        }
        assert!(revives > 100, "{revives} revives");
    }

    #[test]
    fn snapshot_compaction_and_install_snapshot_catch_up_a_stale_node() {
        let mut c = RaftCluster::new(3, 37);
        settle(&mut c);
        c.propose(b"early 1").unwrap();
        c.propose(b"early 2").unwrap();
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        let leader = c.leader().unwrap();
        let stale = (0..c.len()).find(|&i| i != leader).unwrap();
        c.kill(stale).unwrap();
        for k in 0..10 {
            c.propose(format!("bulk {k}").as_bytes()).unwrap();
        }
        c.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
        // Compact every caught-up node to the commit point.
        let upto = c.commit_index(leader).unwrap();
        let summary = LogCommand::shared(["compacted 0"]);
        for i in 0..c.len() {
            if c.is_alive(i) && c.commit_index(i).unwrap() >= upto {
                c.compact_to(i, upto, &summary).unwrap();
                assert_eq!(c.base_index(i).unwrap(), upto);
            }
        }
        // The stale node is far behind the snapshot horizon: only an
        // InstallSnapshot can catch it up.
        // Drain in-flight pre-compaction appends while the node is still
        // down — they were addressed to a dead process and must not
        // resurrect the deleted log tail.
        c.run_for(SimDuration::from_millis(200), SimDuration::from_millis(10));
        c.revive(stale).unwrap();
        c.run_for(SimDuration::from_secs(3), SimDuration::from_millis(10));
        assert_eq!(c.base_index(stale).unwrap(), upto, "snapshot adopted");
        assert_eq!(
            c.committed(stale).unwrap(),
            c.committed(leader).unwrap(),
            "stale node converges on summary + tail"
        );
    }
}
