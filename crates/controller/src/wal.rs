//! The replicated write-ahead intent log.
//!
//! Crash-recovery for transactional reconfiguration (ISSUE 2) needs the
//! coordinator's *intent* to survive the coordinator: if the controller
//! node driving a two-phase commit dies between "every device prepared"
//! and "every device flipped", someone must be able to tell, after the
//! fact, whether the transaction was past its point of no return. This
//! module journals every phase transition of every transaction as an
//! [`IntentRecord`] and replicates it through the controller's own
//! [`RaftCluster`] *before* the corresponding command is sent to the data
//! plane — the classic write-ahead rule. A record is only considered
//! durable once Raft has committed it on a majority, so any surviving
//! controller node can replay the log ([`crate::recovery`]) and resolve
//! every in-doubt transaction deterministically.
//!
//! This module is the one place that knows what a control record looks
//! like: [`IntentRecord::encode`] and [`IntentRecord::decode`] are its
//! codec — one stable line of text per record, e.g. `intent 3 dev 1,2,4`,
//! human-readable in test failures — and Raft and the disks below it carry
//! the encodings as opaque bytes.

use crate::raft::{CommittedView, LogCommand, RaftCluster};
use crate::storage::NodeStorage;
use flexnet_types::hash::{fnv1a, FNV_OFFSET};
use flexnet_types::{FlexError, Result, SimDuration, SimTime};
use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// One durable phase transition of a reconfiguration transaction.
///
/// The record sequence for a transaction `t` is a prefix of
/// `Intent → Prepared → FlipScheduled → Committed`, or ends in `Aborted`
/// after any of the first two. The *last* record for `t` determines how
/// recovery resolves it (see `DESIGN.md` §8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentRecord {
    /// The coordinator decided to run transaction `txn` over `devices`.
    /// Logged before the first prepare is sent.
    Intent {
        /// Transaction id (monotone per log).
        txn: u64,
        /// Node ids of every participant (shared: a read of the log copies
        /// a pointer, not the list).
        devices: Rc<[u64]>,
    },
    /// Every participant acked its prepare; `devices` now hold shadow
    /// programs awaiting the coordinator's decision.
    Prepared {
        /// Transaction id.
        txn: u64,
        /// Node ids that hold a prepared shadow (shared, as in `Intent`).
        devices: Rc<[u64]>,
    },
    /// The coordinator chose to commit and scheduled the aligned flip.
    /// Logged before any commit command is sent — past this record the
    /// transaction must roll *forward*.
    FlipScheduled {
        /// Transaction id.
        txn: u64,
        /// The aligned flip instant sent to every participant.
        commit_at: SimTime,
    },
    /// Every participant confirmed the commit. Terminal.
    Committed {
        /// Transaction id.
        txn: u64,
    },
    /// The transaction was rolled back everywhere. Terminal.
    Aborted {
        /// Transaction id.
        txn: u64,
    },
    /// The controller's intended configuration for one device changed:
    /// transaction `txn` (0 for out-of-band table-entry updates) left
    /// `device` with intended-state digest `digest`. Journaled by the
    /// intended-state store ([`crate::resync::IntendedStore`]) so the
    /// per-device reconciliation target survives coordinator failover.
    /// Orthogonal to the 2PC phase machine — recovery's in-doubt
    /// resolution ignores these records.
    IntendedState {
        /// Transaction that produced this intended state (0 = entry-level
        /// update outside any transaction).
        txn: u64,
        /// The device this intent describes.
        device: u64,
        /// Digest of the full intended configuration
        /// ([`flexnet_dataplane::config_digest_of`]).
        digest: u64,
    },
    /// A canary rollout started. Logged with the full wave plan before
    /// the first wave deploys, so a failed-over coordinator knows the
    /// membership of every wave without the originator's memory. Rollout
    /// ids share the transaction-id space (one allocator, so they stay
    /// unique and monotone across failover).
    RolloutStarted {
        /// Rollout id.
        rollout: u64,
        /// The wave plan: `waves[k]` is the device set of wave `k+1`.
        waves: Vec<Vec<u64>>,
    },
    /// Wave `wave` (1-based) of `rollout` flipped to the candidate via
    /// per-wave transaction `txn`. The set of `WaveCommitted` records is
    /// exactly the set of waves a rollback must un-flip.
    WaveCommitted {
        /// Rollout id.
        rollout: u64,
        /// 1-based wave number.
        wave: u32,
        /// The logged 2PC transaction that deployed the wave.
        txn: u64,
    },
    /// A soak-window SLO guard breached: the rollout halted at `wave`
    /// and rollback of every committed wave is owed. Logged before the
    /// first rollback command, so a coordinator that dies mid-rollback
    /// leaves an `Aborted`-without-`RolledBack` suffix for its successor
    /// to finish.
    RolloutAborted {
        /// Rollout id.
        rollout: u64,
        /// 1-based wave whose soak breached.
        wave: u32,
        /// Single-token guard label (e.g. `loss-delta`, `p99-delta`).
        guard: String,
    },
    /// Every wave committed and every soak stayed under its guards: the
    /// candidate is fleet-wide. Terminal for the rollout.
    RolloutCompleted {
        /// Rollout id.
        rollout: u64,
    },
    /// Every committed wave was rolled back to the prior program.
    /// Terminal for the rollout.
    RolledBack {
        /// Rollout id.
        rollout: u64,
    },
    /// Log-compaction marker: everything before this record was folded
    /// into a snapshot summary and `txn` is the id allocator's
    /// high-water mark at compaction time. Written first in every
    /// snapshot ([`ReplayState::summary`]) so a failed-over
    /// coordinator never reuses an id whose records were compacted
    /// away. Recovery's in-doubt resolution ignores it.
    Compacted {
        /// Highest transaction/rollout id seen before compaction.
        txn: u64,
    },
}

impl IntentRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            IntentRecord::Intent { txn, .. }
            | IntentRecord::Prepared { txn, .. }
            | IntentRecord::FlipScheduled { txn, .. }
            | IntentRecord::Committed { txn }
            | IntentRecord::Aborted { txn }
            | IntentRecord::IntendedState { txn, .. }
            | IntentRecord::Compacted { txn } => *txn,
            // Rollout ids share the allocator, so they count here too —
            // a failed-over coordinator must not reuse them.
            IntentRecord::RolloutStarted { rollout, .. }
            | IntentRecord::RolloutAborted { rollout, .. }
            | IntentRecord::RolloutCompleted { rollout }
            | IntentRecord::RolledBack { rollout } => *rollout,
            IntentRecord::WaveCommitted { rollout, txn, .. } => (*rollout).max(*txn),
        }
    }

    /// The transaction or rollout whose phase machine this record
    /// advances: every rollout record counts towards its rollout (a
    /// `WaveCommitted` too — its wave transaction has 2PC records of its
    /// own). `None` for the two kinds that advance none: intended-state
    /// records (reconciliation targets) and compaction markers.
    fn subject(&self) -> Option<u64> {
        match self {
            IntentRecord::IntendedState { .. } | IntentRecord::Compacted { .. } => None,
            IntentRecord::WaveCommitted { rollout, .. } => Some(*rollout),
            other => Some(other.txn()),
        }
    }

    /// Whether this record closes its transaction or rollout.
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            IntentRecord::Committed { .. }
                | IntentRecord::Aborted { .. }
                | IntentRecord::RolloutCompleted { .. }
                | IntentRecord::RolledBack { .. }
        )
    }

    /// Stable wire encoding, the Raft command that journals the record:
    /// one line of text, e.g. `intent 3 dev 1,2,4` or `flip 3 at 1500000000`.
    pub fn encode(&self) -> Vec<u8> {
        fn devs(devices: &[u64]) -> String {
            devices
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
        match self {
            IntentRecord::Intent { txn, devices } => {
                format!("intent {txn} dev {}", devs(devices))
            }
            IntentRecord::Prepared { txn, devices } => {
                format!("prepared {txn} dev {}", devs(devices))
            }
            IntentRecord::FlipScheduled { txn, commit_at } => {
                format!("flip {txn} at {}", commit_at.as_nanos())
            }
            IntentRecord::Committed { txn } => format!("committed {txn}"),
            IntentRecord::Aborted { txn } => format!("aborted {txn}"),
            IntentRecord::IntendedState {
                txn,
                device,
                digest,
            } => format!("intended {txn} dev {device} digest {digest}"),
            IntentRecord::RolloutStarted { rollout, waves } => {
                let plan = waves.iter().map(|w| devs(w)).collect::<Vec<_>>().join(";");
                format!("rollout-started {rollout} waves {plan}")
            }
            IntentRecord::WaveCommitted { rollout, wave, txn } => {
                format!("wave-committed {rollout} wave {wave} txn {txn}")
            }
            IntentRecord::RolloutAborted {
                rollout,
                wave,
                guard,
            } => format!("rollout-aborted {rollout} wave {wave} guard {guard}"),
            IntentRecord::RolloutCompleted { rollout } => {
                format!("rollout-completed {rollout}")
            }
            IntentRecord::RolledBack { rollout } => format!("rolled-back {rollout}"),
            IntentRecord::Compacted { txn } => format!("compacted {txn}"),
        }
        .into_bytes()
    }

    /// Parses a record previously produced by [`IntentRecord::encode`];
    /// anything else, bytes that are not UTF-8 included, is a
    /// [`FlexError::Consensus`] error.
    pub fn decode(bytes: &[u8]) -> Result<IntentRecord> {
        let bad = || {
            FlexError::Consensus(format!(
                "malformed intent record: b\"{}\"",
                bytes.escape_ascii()
            ))
        };
        let mut parts = std::str::from_utf8(bytes)
            .map_err(|_| bad())?
            .split_whitespace();
        let kind = parts.next().ok_or_else(bad)?;
        let txn: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let parse_devs = |list: &str| -> Result<Vec<u64>> {
            if list.is_empty() {
                return Ok(Vec::new());
            }
            list.split(',')
                .map(|d| d.parse().map_err(|_| bad()))
                .collect()
        };
        let rec = match kind {
            "intent" | "prepared" => {
                if parts.next() != Some("dev") {
                    return Err(bad());
                }
                let devices = parse_devs(parts.next().unwrap_or(""))?.into();
                if kind == "intent" {
                    IntentRecord::Intent { txn, devices }
                } else {
                    IntentRecord::Prepared { txn, devices }
                }
            }
            "flip" => {
                if parts.next() != Some("at") {
                    return Err(bad());
                }
                let ns: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                IntentRecord::FlipScheduled {
                    txn,
                    commit_at: SimTime::from_nanos(ns),
                }
            }
            "committed" => IntentRecord::Committed { txn },
            "aborted" => IntentRecord::Aborted { txn },
            "rollout-started" => {
                if parts.next() != Some("waves") {
                    return Err(bad());
                }
                let plan = parts.next().ok_or_else(bad)?;
                let waves = plan
                    .split(';')
                    .map(parse_devs)
                    .collect::<Result<Vec<Vec<u64>>>>()?;
                if waves.iter().any(Vec::is_empty) {
                    return Err(bad());
                }
                IntentRecord::RolloutStarted {
                    rollout: txn,
                    waves,
                }
            }
            "wave-committed" => {
                if parts.next() != Some("wave") {
                    return Err(bad());
                }
                let wave: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                if parts.next() != Some("txn") {
                    return Err(bad());
                }
                let wave_txn: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                IntentRecord::WaveCommitted {
                    rollout: txn,
                    wave,
                    txn: wave_txn,
                }
            }
            "rollout-aborted" => {
                if parts.next() != Some("wave") {
                    return Err(bad());
                }
                let wave: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                if parts.next() != Some("guard") {
                    return Err(bad());
                }
                let guard = parts.next().ok_or_else(bad)?.to_string();
                IntentRecord::RolloutAborted {
                    rollout: txn,
                    wave,
                    guard,
                }
            }
            "rollout-completed" => IntentRecord::RolloutCompleted { rollout: txn },
            "rolled-back" => IntentRecord::RolledBack { rollout: txn },
            "compacted" => IntentRecord::Compacted { txn },
            "intended" => {
                if parts.next() != Some("dev") {
                    return Err(bad());
                }
                let device: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                if parts.next() != Some("digest") {
                    return Err(bad());
                }
                let digest: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                IntentRecord::IntendedState {
                    txn,
                    device,
                    digest,
                }
            }
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(rec)
    }
}

/// Prefix of the no-op barrier entries [`ReplicatedIntentLog::elect`]
/// commits so a new leader can commit its predecessors' records (Raft
/// only commits prior-term entries transitively through a current-term
/// entry).
const BARRIER: &str = "barrier";

/// The replay state: a committed record sequence, decoded, plus the one
/// fold every reader of the log needs — the id allocator's high-water
/// mark, the latest intended state per device, and per transaction or
/// rollout its last record, whether that record is terminal, and its full
/// history while it is open.
///
/// Records are folded in one at a time, so a reader that has seen a
/// prefix pays only for what was committed since.
/// [`ReplicatedIntentLog::replay`] keeps one, advanced over the current
/// leader's committed prefix; [`compact_records`] and [`replay_digest`]
/// run the same fold from empty over a slice.
///
/// A history is dropped when its terminal record arrives, exactly as if
/// the log had been compacted there: a record that (against the protocol —
/// ids are never reused) follows a terminal one restarts the history from
/// that terminal record.
#[derive(Debug, Default)]
pub struct ReplayState {
    records: Vec<IntentRecord>,
    max_id: u64,
    /// Device → position in `records` of its latest `IntendedState`.
    intended: BTreeMap<u64, usize>,
    /// Transaction or rollout id → positions in `records` of its history:
    /// every record while it is open, the terminal record alone after.
    histories: BTreeMap<u64, Vec<usize>>,
    /// The ids whose last record is not terminal.
    open: BTreeSet<u64>,
}

impl ReplayState {
    /// Folds a record sequence from empty.
    pub(crate) fn over(records: &[IntentRecord]) -> ReplayState {
        let mut state = ReplayState::default();
        for rec in records {
            state.push(rec.clone());
        }
        state
    }

    /// Folds the next committed record in.
    fn push(&mut self, rec: IntentRecord) {
        let at = self.records.len();
        self.max_id = self.max_id.max(rec.txn());
        if let IntentRecord::IntendedState { device, .. } = rec {
            self.intended.insert(device, at);
        } else if let Some(id) = rec.subject() {
            let history = self.histories.entry(id).or_default();
            if rec.is_terminal() {
                history.clear();
                self.open.remove(&id);
            } else {
                self.open.insert(id);
            }
            history.push(at);
        }
        self.records.push(rec);
    }

    /// Folds the next committed command in; election barriers fold away. A
    /// command that does not decode is the typed error and leaves the
    /// state as it was. The control plane's one decode site.
    pub(crate) fn absorb(&mut self, command: &[u8]) -> Result<()> {
        if !command.starts_with(BARRIER.as_bytes()) {
            self.push(IntentRecord::decode(command)?);
        }
        Ok(())
    }

    /// The record sequence folded so far.
    pub fn records(&self) -> &[IntentRecord] {
        &self.records
    }

    /// The highest transaction or rollout id any record carries (0 for an
    /// empty sequence): the id allocator's high-water mark.
    pub fn max_id(&self) -> u64 {
        self.max_id
    }

    /// `(device, digest)` of the latest intended state per device, in
    /// device order.
    pub(crate) fn intended(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.intended
            .values()
            .filter_map(|at| match self.records[*at] {
                IntentRecord::IntendedState { device, digest, .. } => Some((device, digest)),
                _ => None,
            })
    }

    /// The transactions and rollouts whose last record is not terminal,
    /// in id order.
    pub fn open(&self) -> impl Iterator<Item = u64> + '_ {
        self.open.iter().copied()
    }

    /// The last record of transaction or rollout `id`.
    pub fn last(&self, id: u64) -> Option<&IntentRecord> {
        let at = *self.histories.get(&id)?.last()?;
        Some(&self.records[at])
    }

    /// The history of `id`: every record while it is open, its terminal
    /// record alone once it is closed.
    pub fn history(&self, id: u64) -> impl Iterator<Item = &IntentRecord> + '_ {
        self.histories
            .get(&id)
            .into_iter()
            .flatten()
            .map(|at| &self.records[*at])
    }

    /// The participants of open transaction `id`: the device list of its
    /// latest `Intent` or `Prepared` record (empty when there is none, and
    /// once the transaction is closed).
    pub fn participants(&self, id: u64) -> &[u64] {
        self.history(id)
            .filter_map(|rec| match rec {
                IntentRecord::Intent { devices, .. } | IntentRecord::Prepared { devices, .. } => {
                    Some(&devices[..])
                }
                _ => None,
            })
            .last()
            .unwrap_or_default()
    }

    /// The recovery-relevant summary a snapshot keeps in place of the
    /// sequence:
    ///
    /// - a [`IntentRecord::Compacted`] marker carrying the id allocator's
    ///   high-water mark (so a successor never reuses a compacted-away id),
    /// - the latest [`IntentRecord::IntendedState`] per device (the
    ///   reconciliation targets),
    /// - the *final* record of every terminal transaction and rollout
    ///   (their resolution is all recovery needs),
    /// - the *full* record history of every non-terminal transaction and
    ///   rollout (recovery must still resolve them).
    ///
    /// Folding summary + tail gives the state folding the full sequence
    /// gives ([`ReplayState::digest`] is the checked form of that claim).
    pub fn summary(&self) -> Vec<IntentRecord> {
        let marker = IntentRecord::Compacted { txn: self.max_id };
        let kept = self
            .intended
            .values()
            .chain(self.histories.values().flatten())
            .map(|at| self.records[*at].clone());
        std::iter::once(marker).chain(kept).collect()
    }

    /// A semantic digest of the fold: FNV-1a 64 over the state recovery
    /// actually consumes — the id high-water mark, the latest intended
    /// state per device, and the final record per transaction and rollout.
    /// Invariant under [`ReplayState::summary`], and any content
    /// corruption that survives decoding perturbs it.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        // Each field is followed by one 0xff separator byte.
        let mut eat = |bytes: &[u8]| h = fnv1a(fnv1a(h, bytes), &[0xff]);
        eat(&self.max_id.to_le_bytes());
        for (device, at) in &self.intended {
            eat(&device.to_le_bytes());
            eat(&self.records[*at].encode());
        }
        for (id, history) in &self.histories {
            if let Some(at) = history.last() {
                eat(&id.to_le_bytes());
                eat(&self.records[*at].encode());
            }
        }
        h
    }
}

/// Folds a committed record sequence into the recovery-relevant summary
/// a snapshot keeps in its place ([`ReplayState::summary`]): the replay
/// fold, run from empty.
pub fn compact_records(records: &[IntentRecord]) -> Vec<IntentRecord> {
    ReplayState::over(records).summary()
}

/// A semantic digest of a replayed record sequence
/// ([`ReplayState::digest`]): the replay fold, run from empty. Invariant
/// under [`compact_records`]: summary + tail digests equal to full-log
/// digests.
pub fn replay_digest(records: &[IntentRecord]) -> u64 {
    ReplayState::over(records).digest()
}

/// Decodes a committed command sequence (skipping election barriers)
/// and digests it. A command that fails to decode is itself the signal
/// — with checksums disabled, rotted bytes replay as garbage — so the
/// error propagates for the caller to grade as divergence.
pub fn state_digest(cmds: &[LogCommand]) -> Result<u64> {
    let mut state = ReplayState::default();
    for cmd in cmds {
        state.absorb(cmd)?;
    }
    Ok(state.digest())
}

/// The replay state of one node's committed prefix, how far into that
/// prefix it has been folded, and the commands it folded.
#[derive(Debug, Default)]
struct Fold {
    /// The node whose prefix was folded and its
    /// [`CommittedView::generation`] then; `None` before the first read
    /// (an empty fold, or a compaction seed whose leader did not install
    /// the snapshot).
    at: Option<(usize, u64)>,
    /// The commands consumed (barriers included), back to back: command
    /// `i` ends at `ends[i]` and starts where command `i - 1` ends.
    folded: Vec<u8>,
    ends: Vec<usize>,
    state: ReplayState,
}

impl Fold {
    /// The fold of a compaction summary: its records pushed as they are
    /// (no command decoded), `commands` their encodings.
    fn seed(at: Option<(usize, u64)>, records: Vec<IntentRecord>, commands: &[LogCommand]) -> Fold {
        let mut fold = Fold {
            at,
            ..Fold::default()
        };
        for (rec, command) in records.into_iter().zip(commands) {
            fold.state.push(rec);
            fold.folded.extend_from_slice(command);
            fold.ends.push(fold.folded.len());
        }
        fold
    }

    /// Commands consumed.
    fn consumed(&self) -> usize {
        self.ends.len()
    }

    /// The commands consumed, in order.
    fn kept(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.folded[start..end])
    }

    /// Whether what was folded is still a prefix of `node`'s `view`. On the
    /// same node and prefix generation the sequence only grew; on any other
    /// (a new leader, a revived, compacted or re-based prefix) the fold is
    /// kept when the view's first commands are byte for byte the ones it
    /// consumed — the fold of the same commands is the same state.
    fn keeps(&self, node: usize, view: CommittedView<'_>) -> bool {
        let committed = view.snapshot.len() + view.tail.len();
        committed >= self.consumed()
            && (self.at == Some((node, view.generation))
                || view.commands_from(0).zip(self.kept()).all(|(a, b)| a == b))
    }

    /// Folds the rest of `node`'s `view` in; the fold must keep the view.
    fn advance(&mut self, node: usize, view: CommittedView<'_>) -> Result<()> {
        self.at = Some((node, view.generation));
        // A command that does not decode stops the fold *at* it: never
        // skipped, never folded past, re-attempted by the next read.
        for command in view.commands_from(self.consumed()) {
            self.state.absorb(command)?;
            self.folded.extend_from_slice(command);
            self.ends.push(self.folded.len());
        }
        Ok(())
    }
}

/// The replay cursor: the fold of the log's current representation and
/// the fold of the one it left. A node holds either a compaction's summary
/// plus its tail or the prefix the summary replaced, so a successor on
/// either side of the last compaction finds its fold here.
#[derive(Debug, Default)]
struct Cursor {
    /// The fold the last read advanced.
    current: Fold,
    /// The fold of the other representation.
    other: Fold,
}

impl Cursor {
    /// Brings the current fold up to `node`'s `view`. Whether a fold is
    /// still a prefix of `view` is decided here, on every read: harnesses
    /// kill, revive, step and rot the cluster behind the log's back
    /// ([`ReplicatedIntentLog::cluster_mut`]). The current fold is kept
    /// when it keeps the view, else the other one when it does; only when
    /// neither does is the fold re-run from empty, and the older of the two
    /// is dropped.
    fn advance(&mut self, node: usize, view: CommittedView<'_>) -> Result<()> {
        if !self.current.keeps(node, view) {
            std::mem::swap(&mut self.current, &mut self.other);
            if !self.current.keeps(node, view) {
                self.current = Fold::default();
            }
        }
        self.current.advance(node, view)
    }

    /// Makes `fold` the current fold; the current one becomes the other.
    fn install(&mut self, fold: Fold) {
        self.other = std::mem::replace(&mut self.current, fold);
    }
}

/// How long [`ReplicatedIntentLog::append`] drives the cluster waiting for
/// a majority commit before declaring the append failed.
const APPEND_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// The write-ahead intent log, replicated over a [`RaftCluster`].
///
/// `append` blocks (in simulated time) until the record is *committed* on
/// a majority — only then may the coordinator act on it. The current Raft
/// leader's term doubles as the **controller epoch** used for fencing
/// ([`flexnet_dataplane::Device::observe_epoch`]): terms are monotone and
/// unique per leader, so a deposed coordinator necessarily carries a
/// smaller epoch than its successor.
#[derive(Debug)]
pub struct ReplicatedIntentLog {
    cluster: RaftCluster,
    next_txn: u64,
    /// The current leader's committed prefix, folded as far as it was last
    /// read.
    cursor: RefCell<Cursor>,
}

impl ReplicatedIntentLog {
    /// A log replicated over `n` controller nodes; runs the initial
    /// election so the log is immediately usable.
    pub fn new(n: usize, seed: u64) -> Result<ReplicatedIntentLog> {
        ReplicatedIntentLog::over(RaftCluster::new(n, seed))
    }

    /// Like [`ReplicatedIntentLog::new`], but each node persists to the
    /// given [`NodeStorage`] (one per node, possibly armed with fault
    /// plans) instead of default fault-free disks.
    pub fn new_with(
        n: usize,
        seed: u64,
        storages: Vec<NodeStorage>,
    ) -> Result<ReplicatedIntentLog> {
        ReplicatedIntentLog::over(RaftCluster::new_with(n, seed, storages))
    }

    fn over(mut cluster: RaftCluster) -> Result<ReplicatedIntentLog> {
        cluster
            .run_until_leader(SimDuration::from_secs(10))
            .ok_or_else(|| FlexError::Consensus("initial election never converged".into()))?;
        Ok(ReplicatedIntentLog {
            cluster,
            next_txn: 1,
            cursor: RefCell::default(),
        })
    }

    /// The underlying cluster (for fault injection in tests/harnesses).
    pub fn cluster_mut(&mut self) -> &mut RaftCluster {
        &mut self.cluster
    }

    /// Current simulated time of the controller fabric.
    pub fn now(&self) -> SimTime {
        self.cluster.now()
    }

    /// The current leader, or the retryable [`FlexError::NoLeader`].
    fn leader(&self) -> Result<usize> {
        self.cluster.leader().ok_or(FlexError::NoLeader {
            hint: None,
            retry_after: crate::raft::ELECTION_TIMEOUT_MAX,
        })
    }

    /// The current controller epoch: the leader's Raft term.
    ///
    /// Fails with the retryable [`FlexError::NoLeader`] during elections.
    pub fn epoch(&self) -> Result<u64> {
        Ok(self.cluster.term(self.leader()?))
    }

    /// Allocates the next transaction id.
    ///
    /// Ids are derived from the committed log on construction and after
    /// failover ([`ReplicatedIntentLog::elect`]), so a successor
    /// coordinator never reuses a predecessor's id.
    pub fn next_txn_id(&mut self) -> u64 {
        let id = self.next_txn;
        self.next_txn += 1;
        id
    }

    /// Durably appends `record`: proposes it to the leader and drives the
    /// cluster until a majority has committed it.
    ///
    /// Returns [`FlexError::NoLeader`] (retryable) when no leader exists,
    /// and [`FlexError::Consensus`] when the leader was deposed before the
    /// record committed — in both cases the record is *not* durable and
    /// the coordinator must not act on it.
    pub fn append(&mut self, record: &IntentRecord) -> Result<()> {
        self.commit_command(record.encode())
    }

    /// Proposes `command` and drives the cluster until a majority commits
    /// it under the same leader.
    fn commit_command(&mut self, command: Vec<u8>) -> Result<()> {
        self.cluster.propose(&command)?;
        let shown = command.escape_ascii();
        // `propose` only succeeds under a leader, but the leader's
        // durable append can trip its own disk mid-propose — re-check
        // instead of unwrapping.
        let leader = self.leader()?;
        // The command's global index: the leader appended it at the end
        // of its log (uncommitted entries may precede it, so length of
        // the committed prefix alone would be the wrong slot).
        let target = self.cluster.log_len(leader)? as u64;
        let deadline = self.cluster.now() + APPEND_TIMEOUT;
        while self.cluster.now() < deadline {
            self.cluster.step(SimDuration::from_millis(10));
            if !self.cluster.is_alive(leader) || self.cluster.leader() != Some(leader) {
                return Err(FlexError::Consensus(format!(
                    "leader {leader} deposed before \"{shown}\" committed"
                )));
            }
            if self.cluster.commit_index(leader)? < target {
                continue;
            }
            // Commit reached the slot under the same leader, so the
            // entry there is ours (a `None` means a concurrent local
            // compaction folded it into the snapshot — equally durable).
            match self.cluster.command_at(leader, target)? {
                Some(c) if c == command.as_slice() => return Ok(()),
                None => return Ok(()),
                Some(other) => {
                    return Err(FlexError::Consensus(format!(
                        "slot {target} committed \"{}\", not \"{shown}\"",
                        other.escape_ascii()
                    )))
                }
            }
        }
        Err(FlexError::Consensus(format!(
            "append of \"{shown}\" did not commit within {APPEND_TIMEOUT}"
        )))
    }

    /// The replay state of the committed log as the current leader sees
    /// it: the one way the control plane reads its log.
    ///
    /// Each call folds in what the leader committed since the last one
    /// (every committed command is decoded once). A new leader, or one
    /// whose prefix was rebuilt from its disk, compacted or re-based by a
    /// snapshot, adopts a fold when its prefix holds the very commands that
    /// fold consumed — the cursor keeps one for each side of the last
    /// compaction — and is re-folded from empty otherwise. Election barriers
    /// (see [`ReplicatedIntentLog::elect`]) are internal bookkeeping and
    /// filtered out.
    ///
    /// A committed command that does not decode (bit rot replicated with
    /// checksums disabled) is a [`FlexError::Consensus`] error on every
    /// read: the fold stops at it and is never handed out short.
    pub fn replay(&self) -> Result<Ref<'_, ReplayState>> {
        let leader = self.leader()?;
        // A view handed out earlier and still alive borrows `self`, so
        // nothing was committed since it was brought up to date.
        if let Ok(mut cursor) = self.cursor.try_borrow_mut() {
            cursor.advance(leader, self.cluster.committed_view(leader)?)?;
        }
        Ok(Ref::map(self.cursor.borrow(), |c| &c.current.state))
    }

    /// The committed record sequence, decoded, as seen by the current
    /// leader — a clone of [`ReplayState::records`], which shares every
    /// device list rather than copying it.
    pub fn records(&self) -> Result<Vec<IntentRecord>> {
        Ok(self.replay()?.records().to_vec())
    }

    /// Kills the current leader (the crash under test); returns its index.
    pub fn kill_leader(&mut self) -> Result<usize> {
        let leader = self.leader()?;
        self.cluster.kill(leader)?;
        Ok(leader)
    }

    /// Runs the cluster until a (new) leader emerges, commits a barrier
    /// entry in the new term (Raft's rule: prior-term entries only commit
    /// transitively through a current-term entry, so without the barrier
    /// the predecessor's durable records would stay invisible), and
    /// re-derives `next_txn` from the committed log so the new
    /// coordinator's ids continue where the old one's left off. Returns
    /// the leader index.
    pub fn elect(&mut self) -> Result<usize> {
        let leader = self
            .cluster
            .run_until_leader(SimDuration::from_secs(10))
            .ok_or_else(|| FlexError::Consensus("no quorum: election never converged".into()))?;
        let term = self.cluster.term(leader);
        self.commit_command(format!("{BARRIER} {term}").into_bytes())?;
        // An undecodable committed log (bit rot replicated with checksums
        // disabled) must not wedge failover — the id allocator keeps its
        // current high-water mark and the divergence surfaces in grading.
        let max_seen = self.replay().map_or(0, |replay| replay.max_id());
        self.next_txn = self.next_txn.max(max_seen + 1);
        Ok(leader)
    }

    /// Snapshot + compaction: folds the committed prefix into a summary
    /// ([`ReplayState::summary`]) and installs it as a snapshot on every
    /// caught-up node, deleting WAL segments behind the fallback
    /// horizon. Nodes whose commit lags, or whose snapshot disk refuses
    /// with [`flexnet_types::StorageError::NoSpace`], are skipped and
    /// keep their full log — compaction is per-node best-effort and
    /// never blocks the cluster.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        let leader = self.leader()?;
        let upto = self.cluster.commit_index(leader)?;
        let base = self.cluster.base_index(leader)?;
        let mut report = CompactionReport {
            upto,
            summary_len: 0,
            compacted: Vec::new(),
            skipped: Vec::new(),
            nospace: 0,
        };
        if upto <= base {
            return Ok(report);
        }
        // The summary replays to the same recovery state as the full
        // committed prefix (checked by digest equality in the property
        // suite). Barriers are bookkeeping and fold away.
        let records = self.replay()?.summary();
        // One buffer every compacted node shares.
        let summary = LogCommand::shared(records.iter().map(IntentRecord::encode));
        report.summary_len = summary.len();
        for i in 0..self.cluster.len() {
            if !self.cluster.is_alive(i) || self.cluster.commit_index(i)? < upto {
                report.skipped.push(i);
                continue;
            }
            match self.cluster.compact_to(i, upto, &summary) {
                Ok(()) => report.compacted.push(i),
                Err(FlexError::Storage(flexnet_types::StorageError::NoSpace { .. })) => {
                    report.nospace += 1;
                    report.skipped.push(i);
                }
                Err(e) => return Err(e),
            }
        }
        // The summary's fold is the fold of every compacted node's prefix:
        // a decoded command is the record it encodes. The full prefix's
        // fold stays for the nodes skipped.
        let at = if report.compacted.contains(&leader) {
            Some((leader, self.cluster.committed_view(leader)?.generation))
        } else {
            None
        };
        self.cursor
            .get_mut()
            .install(Fold::seed(at, records, &summary));
        Ok(report)
    }
}

/// What one [`ReplicatedIntentLog::compact`] pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// Global log index the snapshot covers through.
    pub upto: u64,
    /// Records in the snapshot summary.
    pub summary_len: usize,
    /// Nodes that installed the snapshot and dropped log segments.
    pub compacted: Vec<usize>,
    /// Nodes skipped (lagging commit, dead, or out of snapshot space).
    pub skipped: Vec<usize>,
    /// Skips caused specifically by `NoSpace`.
    pub nospace: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_records() -> Vec<IntentRecord> {
        vec![
            IntentRecord::Intent {
                txn: 3,
                devices: [1, 2, 4].into(),
            },
            IntentRecord::Prepared {
                txn: 3,
                devices: [1, 2].into(),
            },
            IntentRecord::FlipScheduled {
                txn: 3,
                commit_at: SimTime::from_millis(1500),
            },
            IntentRecord::Committed { txn: 3 },
            IntentRecord::Aborted { txn: 4 },
            IntentRecord::Intent {
                txn: 5,
                devices: [].into(),
            },
            IntentRecord::IntendedState {
                txn: 3,
                device: 2,
                digest: 0xDEAD_BEEF_u64,
            },
            IntentRecord::IntendedState {
                txn: 0,
                device: 7,
                digest: u64::MAX,
            },
            IntentRecord::RolloutStarted {
                rollout: 6,
                waves: vec![vec![1], vec![2, 4], vec![5, 6, 7]],
            },
            IntentRecord::WaveCommitted {
                rollout: 6,
                wave: 2,
                txn: 9,
            },
            IntentRecord::RolloutAborted {
                rollout: 6,
                wave: 3,
                guard: "loss-delta".into(),
            },
            IntentRecord::RolloutCompleted { rollout: 8 },
            IntentRecord::RolledBack { rollout: 6 },
            IntentRecord::Compacted { txn: 11 },
        ]
    }

    #[test]
    fn records_round_trip_through_the_wire_encoding() {
        for rec in all_records() {
            let wire = rec.encode();
            assert_eq!(
                IntentRecord::decode(&wire).unwrap(),
                rec,
                "round-trip of {wire:?}"
            );
        }
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        for bad in [
            "",
            "intent",
            "intent x dev 1",
            "intent 3 dev 1,x",
            "intent 3 devices 1",
            "flip 3 at",
            "flip 3 at 12 extra",
            "committed 3 extra",
            "exploded 3",
            "intended 3 dev 2",
            "intended 3 dev 2 digest",
            "intended 3 dev 2 digest x",
            "intended 3 device 2 digest 9",
            "rollout-started 6",
            "rollout-started 6 waves",
            "rollout-started 6 waves 1;;2",
            "rollout-started 6 waves 1,x",
            "wave-committed 6 wave 2",
            "wave-committed 6 wave 2 txn x",
            "rollout-aborted 6 wave 3",
            "rollout-aborted 6 wave 3 guard",
            "rollout-completed",
            "rolled-back 6 extra",
            "compacted",
            "compacted x",
            "compacted 3 extra",
        ] {
            assert!(
                matches!(
                    IntentRecord::decode(bad.as_bytes()),
                    Err(FlexError::Consensus(_))
                ),
                "{bad:?} must not decode"
            );
        }
    }

    #[test]
    fn append_is_durable_and_ordered() {
        let mut log = ReplicatedIntentLog::new(3, 42).unwrap();
        let recs = all_records();
        for rec in &recs {
            log.append(rec).unwrap();
        }
        assert_eq!(log.records().unwrap(), recs);
    }

    #[test]
    fn log_survives_leader_crash_and_epoch_rises() {
        let mut log = ReplicatedIntentLog::new(5, 7).unwrap();
        let epoch0 = log.epoch().unwrap();
        let rec = IntentRecord::Intent {
            txn: 9,
            devices: [1, 2].into(),
        };
        log.append(&rec).unwrap();
        let old = log.kill_leader().unwrap();
        let new = log.elect().unwrap();
        assert_ne!(old, new);
        assert!(
            log.epoch().unwrap() > epoch0,
            "a successor's epoch strictly rises"
        );
        assert_eq!(log.records().unwrap(), vec![rec]);
        // The successor continues txn ids past everything durable.
        assert_eq!(log.next_txn_id(), 10);
    }

    #[test]
    fn append_without_quorum_fails_typed() {
        let mut log = ReplicatedIntentLog::new(3, 11).unwrap();
        // Kill both followers: the leader alone cannot commit.
        let leader = log.cluster.leader().unwrap();
        for i in 0..log.cluster.len() {
            if i != leader {
                log.cluster.kill(i).unwrap();
            }
        }
        let err = log.append(&IntentRecord::Committed { txn: 1 }).unwrap_err();
        assert!(matches!(err, FlexError::Consensus(_)), "got {err:?}");
    }

    #[test]
    fn a_successor_holding_the_folded_commands_adopts_the_fold() {
        let mut log = ReplicatedIntentLog::new(3, 5).unwrap();
        for rec in &all_records() {
            log.append(rec).unwrap();
        }
        let digest = log.replay().unwrap().digest();
        let (old, consumed) = {
            let fold = &mut log.cursor.borrow_mut().current;
            // A mark no fold computes (the records' highest id is 11): a
            // re-fold from empty would replace it.
            fold.state.max_id = 1_000;
            (fold.at.map(|(node, _)| node), fold.consumed())
        };
        assert_eq!(consumed, all_records().len());
        log.kill_leader().unwrap();
        let successor = log.elect().unwrap();
        assert_ne!(Some(successor), old);
        let cursor = log.cursor.borrow();
        let fold = &cursor.current;
        assert_eq!(fold.at.map(|(node, _)| node), Some(successor));
        assert_eq!(
            fold.consumed(),
            consumed + 1,
            "the kept commands, then the barrier"
        );
        assert_eq!(fold.state.max_id, 1_000, "the fold was adopted, not re-run");
        drop(cursor);
        assert_eq!(
            log.next_txn_id(),
            1_001,
            "the successor's ids continue from the kept fold"
        );
        // Without the mark, the adopted fold is the one before the crash.
        log.cursor.borrow_mut().current.state.max_id = 11;
        assert_eq!(log.replay().unwrap().digest(), digest);
    }

    #[test]
    fn a_successor_whose_prefix_rotted_refolds_and_fails_like_a_fresh_fold() {
        use crate::storage::NodeStorage;
        use flexnet_sim::disk::DiskFaultPlan;
        // Checksums off: the scrub keeps a rotted record.
        let storages = (0..3u64)
            .map(|i| {
                let (wal, hard) = (DiskFaultPlan::seeded(i), DiskFaultPlan::seeded(!i));
                NodeStorage::with_plans(wal, hard, None, i, false)
            })
            .collect();
        let mut log = ReplicatedIntentLog::new_with(3, 9, storages).unwrap();
        let records = all_records();
        for rec in &records {
            log.append(rec).unwrap();
        }
        let clean = log.replay().unwrap().digest();
        // Record 5 is `intent 5 dev `: a flipped bit anywhere in the
        // ` dev ` the rot reaches leaves it undecodable.
        assert_eq!(records[5].encode(), b"intent 5 dev ");
        let leader = log.cluster.leader().unwrap();
        for i in (0..3).filter(|&i| i != leader) {
            log.cluster.kill(i).unwrap();
            let wal = log.cluster.storage_mut(i).unwrap().wal_mut();
            assert!(wal.rot_payload(5).is_some());
            log.cluster.revive(i).unwrap();
        }
        // The followers learn the commit index again, then one succeeds.
        log.cluster.step(SimDuration::from_millis(500));
        log.kill_leader().unwrap();
        let successor = log.elect().unwrap();
        let got = log.replay().map(|r| r.digest()).unwrap_err();
        let mut fresh = ReplayState::default();
        let committed = log.cluster.committed(successor).unwrap();
        let want = committed
            .iter()
            .try_for_each(|c| fresh.absorb(c))
            .unwrap_err();
        assert!(matches!(got, FlexError::Consensus(_)), "{got}");
        assert_eq!(got, want);
        let fold = &log.cursor.borrow().current;
        let stopped = (fold.at.map(|(node, _)| node), fold.consumed());
        assert_eq!(
            stopped,
            (Some(successor), 5),
            "stopped at the rotted record"
        );
        assert_ne!(fold.state.digest(), clean);
    }

    /// `replay()` against a fold from empty of the leader's committed
    /// commands: the same records, digest, open set and id mark, or the
    /// same error.
    fn assert_replay_is_a_fresh_fold(log: &ReplicatedIntentLog, ctx: &str) {
        let Some(leader) = log.cluster.leader() else {
            return;
        };
        let mut fresh = ReplayState::default();
        let view = log.cluster.committed_view(leader).unwrap();
        let want = view.commands_from(0).try_for_each(|c| fresh.absorb(c));
        match (log.replay(), want) {
            (Ok(got), Ok(())) => {
                assert_eq!(got.records(), fresh.records(), "{ctx}: records");
                assert_eq!(got.digest(), fresh.digest(), "{ctx}: digest");
                assert!(got.open().eq(fresh.open()), "{ctx}: open");
                assert_eq!(got.max_id(), fresh.max_id(), "{ctx}: max id");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{ctx}"),
            (got, want) => panic!(
                "{ctx}: read {:?}, a fresh fold {want:?}",
                got.map(|r| r.digest())
            ),
        }
    }

    fn revive_dead(log: &mut ReplicatedIntentLog) {
        for i in 0..log.cluster.len() {
            if !log.cluster.is_alive(i) {
                log.cluster.revive(i).unwrap();
            }
        }
    }

    /// One seeded schedule of appends, compactions that skip a dead or
    /// lagging follower, failovers, revives and (checksums off) rot of a
    /// follower's WAL payload, checked after every step.
    fn run_cursor_schedule(seed: u64) {
        use crate::storage::NodeStorage;
        use flexnet_sim::disk::DiskFaultPlan;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const NODES: usize = 3;
        let crc_checks = seed.is_multiple_of(2);
        let storages = (0..NODES as u64)
            .map(|i| {
                let (wal, hard) = (
                    DiskFaultPlan::seeded(seed ^ i),
                    DiskFaultPlan::seeded(!seed ^ i),
                );
                NodeStorage::with_plans(wal, hard, None, seed ^ i, crc_checks)
            })
            .collect();
        let mut log = ReplicatedIntentLog::new_with(NODES, seed, storages).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds = all_records();
        let mut next_id = 0;
        for step in 0..60 {
            let ctx = format!("seed {seed} step {step}");
            let follower =
                (0..NODES).find(|&i| Some(i) != log.cluster.leader() && rng.gen_bool(0.5));
            match rng.gen_range(0..100u32) {
                0..=44 => {
                    next_id += 1;
                    let mut rec = kinds[rng.gen_range(0..kinds.len())].clone();
                    if let IntentRecord::Intent { txn, .. } | IntentRecord::Committed { txn } =
                        &mut rec
                    {
                        *txn = next_id;
                    }
                    let _ = log.append(&rec);
                }
                45..=59 => {
                    // A follower killed, or revived just now, is skipped.
                    match follower {
                        Some(i) if log.cluster.is_alive(i) => log.cluster.kill(i).unwrap(),
                        Some(i) => log.cluster.revive(i).unwrap(),
                        None => {}
                    }
                    let _ = log.compact();
                }
                60..=74 => {
                    if log.kill_leader().is_ok() && log.elect().is_err() {
                        revive_dead(&mut log);
                        let _ = log.elect();
                    }
                }
                75..=84 => revive_dead(&mut log),
                85..=94 if !crc_checks => {
                    if let Some(i) = follower {
                        log.cluster.kill(i).unwrap();
                        let wal = log.cluster.storage_mut(i).unwrap().wal_mut();
                        let (from, until) = (wal.base_record(), wal.next_record());
                        if from < until {
                            wal.rot_payload(rng.gen_range(from..until));
                        }
                        log.cluster.revive(i).unwrap();
                    }
                }
                _ => log.cluster.step(SimDuration::from_millis(300)),
            }
            assert_replay_is_a_fresh_fold(&log, &ctx);
        }
    }

    #[test]
    fn the_cursor_reads_what_a_fold_from_empty_reads() {
        for seed in 0..48 {
            run_cursor_schedule(seed);
        }
    }

    #[test]
    fn compaction_summary_replays_to_the_full_log_digest() {
        let records = vec![
            IntentRecord::Intent {
                txn: 1,
                devices: [4, 5].into(),
            },
            IntentRecord::Prepared {
                txn: 1,
                devices: [4, 5].into(),
            },
            IntentRecord::FlipScheduled {
                txn: 1,
                commit_at: SimTime::from_secs(1),
            },
            IntentRecord::IntendedState {
                txn: 1,
                device: 4,
                digest: 11,
            },
            IntentRecord::IntendedState {
                txn: 1,
                device: 5,
                digest: 12,
            },
            IntentRecord::Committed { txn: 1 },
            IntentRecord::IntendedState {
                txn: 2,
                device: 4,
                digest: 13,
            },
            IntentRecord::Intent {
                txn: 2,
                devices: [4].into(),
            },
            IntentRecord::Prepared {
                txn: 2,
                devices: [4].into(),
            },
        ];
        let summary = compact_records(&records);
        // The open txn 2 keeps its full history; txn 1 folds to its
        // terminal record; device 4's intended state keeps only digest 13.
        assert!(matches!(summary[0], IntentRecord::Compacted { txn: 2 }));
        assert_eq!(replay_digest(&summary), replay_digest(&records));
        // And compaction is idempotent under replay.
        assert_eq!(
            replay_digest(&compact_records(&summary)),
            replay_digest(&records)
        );
    }

    #[test]
    fn txn_ids_are_monotone() {
        let mut log = ReplicatedIntentLog::new(3, 13).unwrap();
        let a = log.next_txn_id();
        let b = log.next_txn_id();
        assert!(b > a);
    }
}
