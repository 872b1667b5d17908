//! Crash-consistent durable control state (experiment E21).
//!
//! PRs 2–4 proved the control plane *logically* recovers from crashes,
//! but its Raft logs and intent records lived in in-memory `Vec`s that
//! survived `kill`/`revive` intact. This module puts a real storage
//! discipline under them, on top of [`flexnet_sim::disk::SimDisk`]:
//!
//! - **Record frame** — every durable record is length-prefixed and
//!   CRC-checksummed (`[len u32][crc u32][payload]`), so recovery can
//!   tell a torn tail from bit rot from a clean end of log. Payloads are
//!   opaque bytes: what a command means is [`crate::wal`]'s business.
//! - **Scrub** ([`scrub`]) — the recovery scan: verify every record,
//!   truncate at the first torn or corrupt one, and report whether the
//!   fault was a tail tear (benign — the record was never acked) or
//!   mid-log rot (the suffix must be discarded and re-fetched).
//! - **[`SegmentedWal`]** — the per-node Raft log on disk, in bounded
//!   logical segments so compaction can delete whole segments behind a
//!   snapshot.
//! - **[`SnapshotStore`]** — checksummed snapshot generations (the last
//!   two are kept), each framed like the WAL; a rotted newest generation
//!   falls back to the previous one plus a longer log tail.
//! - **[`NodeStorage`]** — one controller node's disks: hard state
//!   (term/vote, fsync'd before any vote or append ack), the WAL, and
//!   snapshots, with [`NodeStorage::recover`] performing the full
//!   scrub + fallback + catch-up-demotion decision.
//!
//! The seeded storage suite (experiment E21: crash-mid-append,
//! torn-tail-on-failover, cold-log rot, snapshot rot, `NoSpace` during
//! compaction, lagging fsync, and the CRC-checks-off oracle arm) lives
//! with the other chaos suites in `flexnet_bench::suites::storage`.

use crate::raft::{LogCommand, LogEntry};
use flexnet_sim::disk::{DiskFaultPlan, SimDisk};
use flexnet_types::hash::checksum32;
use flexnet_types::{FlexError, Result, SimDuration, StorageError};
use std::ops::Range;
use std::rc::Rc;

/// Bytes of record header: `[len u32 LE][crc u32 LE]`. The checksum is
/// [`checksum32`]: the workspace has no CRC crate and must not grow one,
/// and a table-free word checksum detects with certainty any change
/// confined to one aligned 4-byte word — every single-bit rot the fault
/// model injects — at word speed, with no table to warm at each revive.
pub const RECORD_HEADER: usize = 8;

/// Records per logical WAL segment. Compaction deletes storage only in
/// whole-segment units, so the bound keeps deletions aligned and cheap.
pub const SEG_CAP: u64 = 8;

/// Snapshot generations retained. Recovery falls back at most this many
/// times before declaring the node snapshot-less.
pub const SNAP_GENERATIONS: usize = 2;

/// Bytes of a snapshot generation's first record, `[base_index][base_term]`
/// framed: its commands' records start here.
const SNAP_BASE: usize = RECORD_HEADER + 16;

/// Frames `payload` as one durable record: `[len][crc][payload]`.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    push_record(&mut out, payload);
    out
}

/// Appends `payload` to `out`, framed as by [`encode_record`].
fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// `[a u64 LE][b u64 LE]`: the payload of a snapshot's base record and of
/// a hard-state record.
fn words(a: u64, b: u64) -> [u8; 16] {
    let mut payload = [0u8; 16];
    payload[..8].copy_from_slice(&a.to_le_bytes());
    payload[8..].copy_from_slice(&b.to_le_bytes());
    payload
}

/// The two words of a [`words`] payload; `None` for a payload of any other
/// length (rot with checksums off).
fn read_words(payload: &[u8]) -> Option<(u64, u64)> {
    match payload.as_chunks() {
        (&[a, b], []) => Some((u64::from_le_bytes(a), u64::from_le_bytes(b))),
        _ => None,
    }
}

/// Frames a Raft log entry as a record payload: `[term u64 LE][command]`.
pub fn encode_entry(term: u64, command: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + command.len());
    p.extend_from_slice(&term.to_le_bytes());
    p.extend_from_slice(command);
    p
}

/// The command of an [`encode_entry`] payload at `payload`: the bytes
/// after its 8-byte term. A short payload reads as term 0 and no command
/// rather than panicking — with CRC checks disabled (the protections-off
/// arm), rotted payloads reach the decoder and must surface as wrong
/// state, never a crash.
fn entry_command(payload: &Range<usize>) -> Range<usize> {
    match payload.len() {
        0..8 => payload.end..payload.end,
        _ => payload.start + 8..payload.end,
    }
}

/// The log entries framed at `payloads` in `bytes` (verified
/// [`encode_entry`] payloads, in order), their commands slices of one
/// shared buffer — the span of `bytes` from the first command to the
/// last, copied once: a constant number of allocations, whatever their
/// count.
fn decode_entries(bytes: &[u8], payloads: &[Range<usize>]) -> Vec<LogEntry> {
    let (Some(first), Some(last)) = (payloads.first(), payloads.last()) else {
        return Vec::new();
    };
    let origin = entry_command(first).start;
    let buf: Rc<[u8]> = Rc::from(&bytes[origin..last.end]);
    // Sized with room to spare: the node's log grows from here, and an
    // exactly sized one would be copied whole by the first append after
    // the revive.
    let mut entries = Vec::with_capacity(2 * payloads.len());
    entries.extend(payloads.iter().map(|payload| {
        let term = bytes[payload.clone()]
            .first_chunk()
            .map_or(0, |t| u64::from_le_bytes(*t));
        let command = entry_command(payload);
        LogEntry {
            term,
            command: LogCommand::slice(&buf, command.start - origin..command.end - origin),
        }
    }));
    entries
}

/// What one recovery scan of a byte region found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Where the payload of every record that verified lies in the
    /// scanned region, in order (the region is not copied).
    pub payloads: Vec<Range<usize>>,
    /// Byte length of the verified prefix (the truncation point).
    pub valid_bytes: usize,
    /// Whether any synced bytes follow the verified prefix (i.e. the
    /// scan stopped short and truncation will drop data).
    pub truncated: bool,
    /// What stopped the scan (`None` = clean end of log).
    pub fault: Option<StorageError>,
    /// Whether a structurally valid, checksum-clean record follows the
    /// fault — rot landed *mid-log* on cold data, not on the tail.
    pub mid_log: bool,
}

/// Scans `bytes` as a sequence of framed records, verifying structure
/// and (when `crc_checks`) checksums. `base_record` numbers the first
/// record for error reporting (segment = global index / [`SEG_CAP`]).
///
/// The scan is the crash-consistency workhorse: a record whose bytes
/// end early is a **torn write** (the crash hit between the write and
/// its fsync barrier — the record was never acknowledged, so truncating
/// it loses nothing durable); a record that parses but fails its CRC is
/// **bit rot** on synced data (everything from it on is untrustworthy).
pub fn scrub(bytes: &[u8], base_record: u64, crc_checks: bool) -> ScrubOutcome {
    // Sized by a walk over the headers: one allocation, whatever the count.
    let mut payloads: Vec<Range<usize>> = Vec::with_capacity(frames(bytes).count());
    let mut off = 0usize;
    let mut fault = None;
    while off < bytes.len() {
        let segment = (base_record + payloads.len() as u64) / SEG_CAP;
        let Some((payload, want)) = frame(&bytes[off..]) else {
            fault = Some(StorageError::TornRecord {
                segment,
                offset: off as u64,
            });
            break;
        };
        let at = off + payload.start..off + payload.end;
        if crc_checks {
            let got = checksum32(&bytes[at.clone()]);
            if got != want {
                fault = Some(StorageError::ChecksumFailed {
                    segment,
                    want: u64::from(want),
                    got: u64::from(got),
                });
                break;
            }
        }
        off = at.end;
        payloads.push(at);
    }
    // Mid-log detection: does a verifiable record follow the fault? If
    // so the corruption hit cold data, not the in-flight tail.
    let mid_log = fault.is_some() && next_record_verifies(&bytes[off..]);
    ScrubOutcome {
        payloads,
        valid_bytes: off,
        truncated: off < bytes.len(),
        fault,
        mid_log,
    }
}

/// The record framed at the start of `bytes`: its payload's range and its
/// stored checksum, or `None` when the header or the payload its length
/// announces is cut short.
fn frame(bytes: &[u8]) -> Option<(Range<usize>, u32)> {
    let header: [u8; RECORD_HEADER] = bytes.get(..RECORD_HEADER)?.try_into().ok()?;
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let end = RECORD_HEADER + u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    (end <= bytes.len()).then_some((RECORD_HEADER..end, u32::from_le_bytes([c0, c1, c2, c3])))
}

/// Whether the one bad record at the start of `bytes` is followed by a
/// structurally valid, checksum-clean record. The bad record is skipped
/// only if its length prefix still fits in `bytes`.
fn next_record_verifies(bytes: &[u8]) -> bool {
    let Some((bad, _)) = frame(bytes) else {
        return false;
    };
    let rest = &bytes[bad.end..];
    frame(rest).is_some_and(|(payload, want)| checksum32(&rest[payload]) == want)
}

/// Byte offsets `(start, total_len)` of the records framed back to back
/// from the start of `bytes`, up to the first one cut short (structural
/// parse only, no checksum — on a healthy region, callers use it on bytes
/// they wrote).
fn frames(bytes: &[u8]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        let (payload, _) = frame(&bytes[off..])?;
        let span = (off, payload.end);
        off += payload.end;
        Some(span)
    })
}

/// The per-node Raft log on disk: framed records over a [`SimDisk`], in
/// bounded logical segments of [`SEG_CAP`] records.
///
/// `base_record` is the global index of the first record still on disk;
/// compaction advances it by deleting whole segments behind the
/// snapshot-fallback horizon.
#[derive(Debug)]
pub struct SegmentedWal {
    disk: SimDisk,
    base_record: u64,
    count: u64,
    crc_checks: bool,
}

impl SegmentedWal {
    /// A WAL over `disk` (usually freshly planned, possibly armed).
    pub fn new(disk: SimDisk, crc_checks: bool) -> SegmentedWal {
        SegmentedWal {
            disk,
            base_record: 0,
            count: 0,
            crc_checks,
        }
    }

    /// Global index of the first record on disk.
    pub fn base_record(&self) -> u64 {
        self.base_record
    }

    /// Global index one past the last durable record.
    pub fn next_record(&self) -> u64 {
        self.base_record + self.count
    }

    /// Appends one framed record (volatile until [`SegmentedWal::fsync`]).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.disk.write(&encode_record(payload))?;
        self.count += 1;
        Ok(())
    }

    /// The fsync barrier; returns the latency charged.
    pub fn fsync(&mut self) -> Result<SimDuration> {
        self.disk.fsync()
    }

    /// Power loss: volatile bytes die (the armed plan may tear the
    /// in-flight record onto the platter).
    pub fn crash(&mut self) {
        self.disk.crash();
    }

    /// Scans the durable region.
    pub fn scrub(&self) -> ScrubOutcome {
        scrub(self.disk.synced_bytes(), self.base_record, self.crc_checks)
    }

    /// Recovery: scrub, truncate the disk at the first bad record, and
    /// return where the verified payloads lie in the synced region that
    /// remains (plus what was wrong, if anything).
    pub fn recover(&mut self) -> ScrubOutcome {
        let outcome = self.scrub();
        if outcome.truncated {
            let keep = self.disk.synced_bytes()[..outcome.valid_bytes].to_vec();
            self.disk.set_synced(keep);
        }
        self.count = outcome.payloads.len() as u64;
        outcome
    }

    /// Drops every record at global index ≥ `keep_until` (the Raft
    /// conflicting-suffix truncation, mirrored onto disk).
    pub fn truncate_records(&mut self, keep_until: u64) {
        if keep_until >= self.next_record() {
            return;
        }
        let keep = keep_until.saturating_sub(self.base_record) as usize;
        let cut = frames(self.disk.synced_bytes())
            .nth(keep)
            .map_or(0, |(s, _)| s);
        let bytes = self.disk.synced_bytes()[..cut].to_vec();
        self.disk.set_synced(bytes);
        self.count = keep as u64;
    }

    /// Deletes whole segments wholly below `horizon` (records covered by
    /// a retained snapshot generation). Advances `base_record` to the
    /// largest segment boundary ≤ `horizon`.
    pub fn delete_through(&mut self, horizon: u64) {
        let boundary = (horizon / SEG_CAP) * SEG_CAP;
        if boundary <= self.base_record {
            return;
        }
        let boundary = boundary.min(self.next_record());
        let drop = (boundary - self.base_record) as usize;
        let cut = frames(self.disk.synced_bytes())
            .nth(drop)
            .map_or_else(|| self.disk.synced_bytes().len(), |(s, _)| s);
        let bytes = self.disk.synced_bytes()[cut..].to_vec();
        self.disk.set_synced(bytes);
        self.count -= drop as u64;
        self.base_record = boundary;
    }

    /// Discards volatile (un-fsync'd) bytes after a refused write, so a
    /// half-built batch can't leak into a later barrier. Only valid when
    /// the synced region is healthy (not after a torn crash).
    fn abort_volatile(&mut self) {
        let keep = self.disk.synced_bytes().to_vec();
        self.disk.set_synced(keep);
        self.count = frames(self.disk.synced_bytes()).count() as u64;
    }

    /// Injects bit rot into the *payload* of the record at global index
    /// `global`. A payload longer than 16 bytes is rotted past its first 16:
    /// for a Raft entry (`[term u64][command]`) that skips the term and the
    /// command's first 8 bytes. A payload of 16 bytes or less is rotted
    /// anywhere in it, its term included. The skip is 16 bytes, not the
    /// 8-byte term, because E21's recorded oracle seeds depend on where the
    /// rot lands; it stays until ROADMAP 12(a) re-draws E21. Returns the
    /// rotted byte offset, or `None` if out of range.
    pub fn rot_payload(&mut self, global: u64) -> Option<usize> {
        if global < self.base_record || global >= self.next_record() {
            return None;
        }
        let idx = (global - self.base_record) as usize;
        let (start, total) = frames(self.disk.synced_bytes()).nth(idx)?;
        let payload_start = start + RECORD_HEADER;
        let payload_len = total - RECORD_HEADER;
        let lo = if payload_len > 16 {
            payload_start + 16
        } else {
            payload_start
        };
        let content = lo..start + total;
        self.disk.rot_byte(&[content])
    }

    /// The underlying disk (stats, fault state).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }
}

/// Checksummed snapshot generations (newest last, at most
/// [`SNAP_GENERATIONS`] kept).
///
/// A generation's disk holds records framed as the WAL's are: first
/// `[base_index u64][base_term u64]`, then one record per command of the
/// summary sequence that replaces the compacted log prefix. Loading tries
/// the newest generation first and falls back when its scrub stops short;
/// the fallback horizon (the oldest retained generation's base) bounds how
/// much WAL compaction may delete.
#[derive(Debug)]
pub struct SnapshotStore {
    /// `(generation id, base_index, disk)`, oldest first.
    gens: Vec<(u64, u64, SimDisk)>,
    next_gen: u64,
    capacity: Option<u64>,
    seed: u64,
    crc_checks: bool,
    fsync_lag: SimDuration,
}

impl SnapshotStore {
    /// A store writing generations to fresh disks seeded from `seed`,
    /// each capped at `capacity` bytes (`None` = unbounded).
    pub fn new(seed: u64, capacity: Option<u64>, crc_checks: bool) -> SnapshotStore {
        SnapshotStore {
            gens: Vec::new(),
            next_gen: 1,
            capacity,
            seed,
            crc_checks,
            fsync_lag: SimDuration::ZERO,
        }
    }

    /// Arms an fsync latency on every future generation's disk.
    pub fn with_fsync_lag(mut self, lag: SimDuration) -> SnapshotStore {
        self.fsync_lag = lag;
        self
    }

    /// Writes a new generation. On [`StorageError::NoSpace`] nothing is
    /// retained — the store (and the log behind it) are unchanged.
    pub fn install(&mut self, base_index: u64, base_term: u64, cmds: &[LogCommand]) -> Result<u64> {
        let framed = cmds.iter().map(|c| RECORD_HEADER + c.len()).sum::<usize>();
        let mut bytes = Vec::with_capacity(SNAP_BASE + framed);
        push_record(&mut bytes, &words(base_index, base_term));
        for cmd in cmds {
            push_record(&mut bytes, cmd);
        }
        let mut plan = DiskFaultPlan::seeded(self.seed ^ self.next_gen);
        plan.fsync_lag = self.fsync_lag;
        if let Some(cap) = self.capacity {
            plan = plan.with_capacity(cap);
        }
        let mut disk = SimDisk::with_plan(plan);
        disk.write(&bytes)?;
        disk.fsync()?;
        let gen = self.next_gen;
        self.next_gen += 1;
        self.gens.push((gen, base_index, disk));
        while self.gens.len() > SNAP_GENERATIONS {
            self.gens.remove(0);
        }
        Ok(gen)
    }

    /// Loads the newest verifiable generation. Returns
    /// `(generation, base_index, base_term, commands, fallbacks)` where
    /// `fallbacks` counts newer generations that failed their checksum
    /// and were skipped. `None` when no generation verifies (or none
    /// exists). The commands are slices of one buffer.
    pub fn load(&self) -> Option<(u64, u64, u64, Vec<LogCommand>, u64)> {
        let mut fallbacks = 0u64;
        for (gen, _, disk) in self.gens.iter().rev() {
            let bytes = disk.synced_bytes();
            let outcome = scrub(bytes, 0, self.crc_checks);
            let base = outcome
                .payloads
                .first()
                .and_then(|at| read_words(&bytes[at.clone()]));
            let (Some((base_index, base_term)), None) = (base, &outcome.fault) else {
                fallbacks += 1;
                continue;
            };
            let buf: Rc<[u8]> = Rc::from(&bytes[SNAP_BASE..]);
            let cmds = outcome.payloads[1..]
                .iter()
                .map(|at| LogCommand::slice(&buf, at.start - SNAP_BASE..at.end - SNAP_BASE))
                .collect();
            return Some((*gen, base_index, base_term, cmds, fallbacks));
        }
        None
    }

    /// The oldest retained generation's base index — the WAL-deletion
    /// horizon (records below it may be deleted; records above it must
    /// stay so a fallback can replay its tail).
    pub fn fallback_horizon(&self) -> Option<u64> {
        self.gens.first().map(|(_, base, _)| *base)
    }

    /// How many generations are retained.
    pub fn generations(&self) -> usize {
        self.gens.len()
    }

    /// Injects bit rot into the newest generation's commands: one bit of
    /// one byte drawn from their payloads (not the base record, not a
    /// record header), so the corruption lands on content.
    /// Returns whether a byte was flipped.
    pub fn rot_latest(&mut self) -> bool {
        let Some((_, _, disk)) = self.gens.last_mut() else {
            return false;
        };
        let records = scrub(disk.synced_bytes(), 0, false).payloads;
        disk.rot_byte(records.get(1..).unwrap_or_default())
            .is_some()
    }
}

/// Observability counters for one node's storage stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Recoveries that truncated a torn tail record.
    pub torn_truncations: u64,
    /// Recoveries that truncated at a failed checksum.
    pub checksum_truncations: u64,
    /// Checksum failures with verifiable records *after* them — rot on
    /// cold data, the catch-up-demotion trigger.
    pub mid_log_rot: u64,
    /// Snapshot generations skipped for a failed checksum.
    pub snapshot_fallbacks: u64,
    /// Recoveries that demoted the node to catch-up-only (it discarded
    /// synced bytes and must not vote until the leader refills it).
    pub catchup_demotions: u64,
    /// Writes refused with `NoSpace`.
    pub nospace: u64,
    /// Votes refused because the node was in catch-up-only mode.
    pub votes_refused_catchup: u64,
    /// Total fsync latency charged across all disks.
    pub fsync_lag: SimDuration,
}

impl StorageCounters {
    /// Folds `other` into `self` (the harness rolls per-node counters
    /// into one fleet-wide account).
    pub fn merge(&mut self, other: &StorageCounters) {
        self.torn_truncations += other.torn_truncations;
        self.checksum_truncations += other.checksum_truncations;
        self.mid_log_rot += other.mid_log_rot;
        self.snapshot_fallbacks += other.snapshot_fallbacks;
        self.catchup_demotions += other.catchup_demotions;
        self.nospace += other.nospace;
        self.votes_refused_catchup += other.votes_refused_catchup;
        self.fsync_lag += other.fsync_lag;
    }
}

/// Everything [`NodeStorage::recover`] reconstructs from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Persisted current term (0 when nothing was ever persisted).
    pub term: u64,
    /// Persisted vote in that term.
    pub voted_for: Option<usize>,
    /// Global index the snapshot covers through (0 = no snapshot).
    pub base_index: u64,
    /// Term of the entry at `base_index`.
    pub base_term: u64,
    /// The snapshot's summary command sequence, slices of one buffer.
    pub snapshot_cmds: Vec<LogCommand>,
    /// Verified log tail: the entries after `base_index`, their commands
    /// slices of one buffer.
    pub entries: Vec<LogEntry>,
    /// The node discarded synced bytes (tear or rot) or lost its
    /// snapshot chain: it must rejoin as a non-voting catch-up follower
    /// until the leader has refilled everything committed.
    pub needs_catchup: bool,
}

/// One controller node's durable storage: hard state (term/vote), the
/// segmented WAL, and snapshot generations.
#[derive(Debug)]
pub struct NodeStorage {
    hard: SimDisk,
    wal: SegmentedWal,
    snaps: SnapshotStore,
    crc_checks: bool,
    hard_records: u64,
    counters: StorageCounters,
}

impl NodeStorage {
    /// Fault-free storage (the default under every legacy experiment:
    /// every write fsyncs immediately and crashes lose nothing).
    pub fn fault_free(seed: u64) -> NodeStorage {
        NodeStorage::with_plans(
            DiskFaultPlan::seeded(seed),
            DiskFaultPlan::seeded(seed ^ 0x4A2D_0001),
            None,
            seed,
            true,
        )
    }

    /// Storage with explicit fault plans: `wal_plan` under the log,
    /// `hard_plan` under term/vote, `snap_capacity` capping snapshot
    /// generations, `crc_checks` arming checksum verification (the
    /// protections switch).
    pub fn with_plans(
        wal_plan: DiskFaultPlan,
        hard_plan: DiskFaultPlan,
        snap_capacity: Option<u64>,
        seed: u64,
        crc_checks: bool,
    ) -> NodeStorage {
        let snap_lag = wal_plan.fsync_lag;
        NodeStorage {
            hard: SimDisk::with_plan(hard_plan),
            wal: SegmentedWal::new(SimDisk::with_plan(wal_plan), crc_checks),
            snaps: SnapshotStore::new(seed ^ 0x5AAF_5AAF, snap_capacity, crc_checks)
                .with_fsync_lag(snap_lag),
            crc_checks,
            hard_records: 0,
            counters: StorageCounters::default(),
        }
    }

    /// Whether checksum verification is armed.
    pub fn crc_checks(&self) -> bool {
        self.crc_checks
    }

    /// Durably records `(term, vote)` — the write-then-barrier that must
    /// precede any vote or append acknowledgement — as one record
    /// `[term u64 LE][vote u64 LE]`, `u64::MAX` for no vote. The hard-state
    /// log is rewritten in place once it accumulates a segment's worth of
    /// records (only the last one matters).
    pub fn persist_hard(&mut self, term: u64, vote: Option<usize>) -> Result<SimDuration> {
        let record = encode_record(&words(term, vote.map_or(u64::MAX, |v| v as u64)));
        self.hard.write(&record)?;
        let lag = self.hard.fsync()?;
        self.counters.fsync_lag += lag;
        self.hard_records += 1;
        if self.hard_records > 64 {
            self.hard.set_synced(record);
            self.hard_records = 1;
        }
        Ok(lag)
    }

    /// Mirrors the in-memory log suffix onto disk: truncates any
    /// conflicting records at global index ≥ `from`, appends `entries`,
    /// and fsyncs once. Returns the barrier latency. On error the
    /// in-flight record is in the volatile buffer and the caller must
    /// treat the node as crashed (the ack must never be sent).
    pub fn sync_log(&mut self, from: u64, entries: &[LogEntry]) -> Result<SimDuration> {
        self.wal.truncate_records(from);
        if entries.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        for entry in entries {
            if let Err(e) = self.wal.append(&encode_entry(entry.term, &entry.command)) {
                if matches!(e, FlexError::Storage(StorageError::NoSpace { .. })) {
                    self.counters.nospace += 1;
                }
                // A typed refusal leaves the synced region healthy —
                // drop the half-built batch. A tripped medium keeps its
                // in-flight bytes for the crash to tear.
                if !self.wal.disk().is_tripped() {
                    self.wal.abort_volatile();
                }
                return Err(e);
            }
        }
        let lag = self.wal.fsync()?;
        self.counters.fsync_lag += lag;
        Ok(lag)
    }

    /// Local compaction: installs a snapshot generation covering through
    /// `base_index` and deletes WAL segments behind the fallback
    /// horizon. The log tail above `base_index` stays. `NoSpace` leaves
    /// everything intact.
    pub fn compact_snapshot(
        &mut self,
        base_index: u64,
        base_term: u64,
        cmds: &[LogCommand],
    ) -> Result<()> {
        match self.snaps.install(base_index, base_term, cmds) {
            Ok(_) => {}
            Err(e) => {
                if matches!(e, FlexError::Storage(StorageError::NoSpace { .. })) {
                    self.counters.nospace += 1;
                }
                return Err(e);
            }
        }
        if let Some(horizon) = self.snaps.fallback_horizon() {
            self.wal.delete_through(horizon);
        }
        Ok(())
    }

    /// Adopts a leader-shipped snapshot (InstallSnapshot): the local log
    /// is discarded wholesale and restarts empty at `base_index`.
    pub fn adopt_snapshot(
        &mut self,
        base_index: u64,
        base_term: u64,
        cmds: &[LogCommand],
    ) -> Result<()> {
        self.snaps.install(base_index, base_term, cmds)?;
        self.wal.truncate_records(self.wal.base_record());
        self.wal.base_record = base_index;
        Ok(())
    }

    /// Power loss across all disks.
    pub fn crash(&mut self) {
        self.hard.crash();
        self.wal.crash();
    }

    /// Full recovery: hard-state scrub, snapshot load with generation
    /// fallback, WAL scrub with tail truncation, and the catch-up
    /// decision ("never votes with a hole").
    pub fn recover(&mut self) -> RecoveredState {
        // Hard state: last verified record wins.
        let hard_scrub = scrub(self.hard.synced_bytes(), 0, self.crc_checks);
        if hard_scrub.truncated {
            let keep = self.hard.synced_bytes()[..hard_scrub.valid_bytes].to_vec();
            self.hard.set_synced(keep);
        }
        self.hard_records = hard_scrub.payloads.len() as u64;
        // A record that does not read (rot with checksums off) is term 0
        // and no vote.
        let last = hard_scrub.payloads.last();
        let (term, vote) = last
            .and_then(|at| read_words(&self.hard.synced_bytes()[at.clone()]))
            .unwrap_or((0, u64::MAX));
        let voted_for = usize::try_from(vote).ok().filter(|_| vote != u64::MAX);

        // Snapshot: newest verifiable generation.
        let (base_index, base_term, snapshot_cmds, fallbacks) = match self.snaps.load() {
            Some((_, base, bterm, cmds, fb)) => (base, bterm, cmds, fb),
            None => (0, 0, Vec::new(), self.snaps.generations() as u64),
        };
        self.counters.snapshot_fallbacks += fallbacks;

        // WAL tail.
        let outcome = self.wal.recover();
        match &outcome.fault {
            Some(StorageError::TornRecord { .. }) => self.counters.torn_truncations += 1,
            Some(StorageError::ChecksumFailed { .. }) => {
                self.counters.checksum_truncations += 1;
                if outcome.mid_log {
                    self.counters.mid_log_rot += 1;
                }
            }
            _ => {}
        }
        let mut needs_catchup = outcome.truncated;

        // Assemble the tail above the snapshot base. A WAL that starts
        // *after* the recovered base (every covering generation rotted
        // away) is a hole: the node keeps nothing and catches up.
        let wal_base = self.wal.base_record();
        let mut entries = Vec::new();
        if wal_base > base_index {
            needs_catchup = true;
            self.wal.truncate_records(wal_base);
        } else {
            let skip = (base_index - wal_base) as usize;
            let kept = outcome.payloads.get(skip..).unwrap_or_default();
            entries = decode_entries(self.wal.disk().synced_bytes(), kept);
        }
        if needs_catchup {
            self.counters.catchup_demotions += 1;
        }
        RecoveredState {
            term,
            voted_for,
            base_index,
            base_term,
            snapshot_cmds,
            entries,
            needs_catchup,
        }
    }

    /// Observability counters.
    pub fn counters(&self) -> &StorageCounters {
        &self.counters
    }

    /// Mutable counters (the Raft layer accounts vote refusals here).
    pub fn counters_mut(&mut self) -> &mut StorageCounters {
        &mut self.counters
    }

    /// The WAL (fault injection in harnesses).
    pub fn wal_mut(&mut self) -> &mut SegmentedWal {
        &mut self.wal
    }

    /// The WAL, read-only.
    pub fn wal(&self) -> &SegmentedWal {
        &self.wal
    }

    /// The snapshot store (fault injection in harnesses).
    pub fn snaps_mut(&mut self) -> &mut SnapshotStore {
        &mut self.snaps
    }

    /// The snapshot store, read-only.
    pub fn snaps(&self) -> &SnapshotStore {
        &self.snaps
    }

    /// Whether any underlying disk is tripped mid-write.
    pub fn is_tripped(&self) -> bool {
        self.hard.is_tripped() || self.wal.disk().is_tripped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal(seed: u64) -> SegmentedWal {
        SegmentedWal::new(
            SimDisk::with_plan(DiskFaultPlan::seeded(seed).tearing()),
            true,
        )
    }

    /// `rot_payload` skips a payload's first 16 bytes when it is longer
    /// than that, and rots a shorter payload anywhere, its term included.
    #[test]
    fn rot_payload_skips_sixteen_bytes_of_a_long_payload_and_none_of_a_short_one() {
        let mut w = SegmentedWal::new(SimDisk::with_plan(DiskFaultPlan::seeded(3)), true);
        let long = encode_entry(5, &[b'x'; 24]); // 32-byte payload
        let short = encode_entry(5, &[b'y'; 8]); // 16-byte payload
        w.append(&long).unwrap();
        w.append(&short).unwrap();
        w.fsync().unwrap();
        let (long_at, short_at) = (RECORD_HEADER, 2 * RECORD_HEADER + long.len());
        let mut in_short_term = false;
        for _ in 0..200 {
            let at = w.rot_payload(0).expect("record 0 exists");
            assert!((long_at + 16..long_at + long.len()).contains(&at), "{at}");
            let at = w.rot_payload(1).expect("record 1 exists");
            assert!((short_at..short_at + short.len()).contains(&at), "{at}");
            in_short_term |= at < short_at + 8;
        }
        assert!(in_short_term, "a short payload's term is rotted too");
        assert_eq!(w.rot_payload(2), None);
    }

    /// The verified payloads of a scrub of `bytes`.
    fn payloads<'a>(bytes: &'a [u8], outcome: &ScrubOutcome) -> Vec<&'a [u8]> {
        outcome
            .payloads
            .iter()
            .map(|at| &bytes[at.clone()])
            .collect()
    }

    fn entry(term: u64, command: &str) -> LogEntry {
        LogEntry {
            term,
            command: command.as_bytes().into(),
        }
    }

    /// Each payload a revive keeps reads as its term and the bytes after
    /// it, a payload shorter than a term as term 0 and no command, all
    /// sliced from one buffer.
    #[test]
    fn entries_decode_to_their_terms_and_command_bytes() {
        let entry = encode_entry(7, &[b'a', 0xFF, b'\n', 0xC3]);
        let runs: [&[&[u8]]; 4] = [
            &[&entry, &encode_entry(9, b"")],
            &[&entry[..8], &entry, &entry[..5], &[], &entry],
            &[&[]],
            &[],
        ];
        for run in runs {
            let bytes: Vec<u8> = run.iter().flat_map(|p| encode_record(p)).collect();
            let outcome = scrub(&bytes, 0, true);
            assert_eq!(outcome.payloads.len(), run.len());
            let got = decode_entries(&bytes, &outcome.payloads);
            let want = run.iter().map(|p| match p.split_first_chunk() {
                Some((term, command)) => (u64::from_le_bytes(*term), command),
                None => (0, &[][..]),
            });
            assert!(
                got.iter().map(|e| (e.term, &e.command[..])).eq(want),
                "{run:?}"
            );
        }
    }

    #[test]
    fn scrub_accepts_a_clean_log_and_truncates_a_torn_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(b"alpha"));
        bytes.extend_from_slice(&encode_record(b"beta"));
        let clean = scrub(&bytes, 0, true);
        assert_eq!(payloads(&bytes, &clean), [&b"alpha"[..], b"beta"]);
        assert!(!clean.truncated);
        assert_eq!(clean.valid_bytes, bytes.len());

        // Tear the second record mid-payload: only the first survives.
        let torn = scrub(&bytes[..bytes.len() - 2], 0, true);
        assert_eq!(payloads(&bytes, &torn), [b"alpha"]);
        assert!(torn.truncated);
        assert!(matches!(torn.fault, Some(StorageError::TornRecord { .. })));
        assert!(!torn.mid_log);
    }

    #[test]
    fn scrub_flags_mid_log_rot_but_only_when_checksums_are_armed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(b"record zero padded long"));
        let flip = bytes.len() - 3;
        bytes.extend_from_slice(&encode_record(b"record one"));
        bytes[flip] ^= 0x40; // rot inside record 0's payload

        let armed = scrub(&bytes, 0, true);
        assert!(armed.payloads.is_empty());
        assert!(armed.truncated);
        assert!(matches!(
            armed.fault,
            Some(StorageError::ChecksumFailed { .. })
        ));
        // A verifiable record sits after the corrupt one: rot, not tear.
        assert!(armed.mid_log);

        let disarmed = scrub(&bytes, 0, false);
        assert_eq!(disarmed.payloads.len(), 2);
        assert!(!disarmed.truncated);
    }

    #[test]
    fn segmented_wal_survives_crash_only_past_the_fsync_barrier() {
        let mut w = wal(7);
        w.append(b"first").unwrap();
        w.fsync().unwrap();
        w.append(b"second").unwrap();
        // No barrier for "second": the crash tears it away.
        w.crash();
        let outcome = w.recover();
        assert_eq!(payloads(w.disk().synced_bytes(), &outcome), [b"first"]);
        assert_eq!(w.next_record(), 1);
    }

    #[test]
    fn delete_through_frees_whole_segments_and_keeps_the_tail() {
        let mut w = wal(11);
        for i in 0..20u8 {
            w.append(&[i]).unwrap();
        }
        w.fsync().unwrap();
        // Horizon 13 rounds down to the segment boundary at record 8.
        w.delete_through(13);
        assert_eq!(w.base_record(), 8);
        assert_eq!(w.next_record(), 20);
        let outcome = w.scrub();
        assert_eq!(outcome.payloads.len(), 12);
        assert_eq!(payloads(w.disk().synced_bytes(), &outcome)[0], [8u8]);
    }

    #[test]
    fn snapshot_store_falls_back_past_a_rotted_generation() {
        let mut s = SnapshotStore::new(5, None, true);
        s.install(4, 2, &LogCommand::shared(["a", "b"])).unwrap();
        s.install(8, 3, &LogCommand::shared(["a", "b", "c"]))
            .unwrap();
        assert!(s.rot_latest());
        let (_gen, base, term, cmds, fallbacks) = s.load().expect("older generation verifies");
        assert_eq!((base, term, fallbacks), (4, 2, 1));
        assert_eq!(cmds, LogCommand::shared(["a", "b"]));
        assert_eq!(s.generations(), 2);
    }

    /// With checksums off, a generation whose records do not all frame
    /// is passed over as a rotted one is.
    #[test]
    fn a_snapshot_gives_back_its_commands_and_falls_back_when_cut() {
        let mut s = SnapshotStore::new(9, None, false);
        let old = LogCommand::shared([&b"a"[..], b""]);
        let new = LogCommand::shared([&b""[..], b"a\nb", &[0xFF, 0x00]]);
        s.install(3, 1, &old).unwrap();
        s.install(6, 2, &new).unwrap();
        assert_eq!(s.load().unwrap(), (2, 6, 2, new, 0));
        let disk = &mut s.gens.last_mut().unwrap().2;
        let cut = disk.synced_bytes()[..disk.synced_bytes().len() - 1].to_vec();
        disk.set_synced(cut);
        assert_eq!(s.load().unwrap(), (1, 3, 1, old, 1));
    }

    #[test]
    fn node_storage_recovers_hard_state_snapshot_and_tail() {
        let mut ns = NodeStorage::fault_free(21);
        ns.persist_hard(3, Some(1)).unwrap();
        ns.sync_log(0, &[entry(1, "one"), entry(1, "two"), entry(3, "three")])
            .unwrap();
        ns.compact_snapshot(2, 1, &LogCommand::shared(["summary"]))
            .unwrap();
        ns.crash();
        let state = ns.recover();
        assert_eq!(state.term, 3);
        assert_eq!(state.voted_for, Some(1));
        assert_eq!(state.base_index, 2);
        assert_eq!(state.base_term, 1);
        assert_eq!(state.snapshot_cmds, [b"summary"]);
        assert_eq!(state.entries, [entry(3, "three")]);
        assert!(!state.needs_catchup);
    }

    #[test]
    fn mid_log_rot_demotes_recovery_to_catch_up_only() {
        let mut ns = NodeStorage::fault_free(22);
        ns.sync_log(
            0,
            &[
                entry(1, "committed long ago"),
                entry(1, "also cold data here"),
                entry(1, "the warm tail record"),
            ],
        )
        .unwrap();
        ns.crash();
        assert!(ns.wal_mut().rot_payload(0).is_some());
        let state = ns.recover();
        assert!(state.needs_catchup);
        assert!(state.entries.is_empty());
        assert_eq!(ns.counters().mid_log_rot, 1);
        assert_eq!(ns.counters().catchup_demotions, 1);
    }

    #[test]
    fn recovery_after_compaction_is_bounded_by_the_tail() {
        // The satellite-1 regression: after compaction, recovery replays
        // snapshot + tail, not the full history. Write many records, keep
        // a short tail, and pin the replayed entry count to the tail.
        let mut ns = NodeStorage::fault_free(33);
        let entries: Vec<LogEntry> = (0..40)
            .map(|i| entry(1, &format!("intended 0 dev 4 digest {i}")))
            .collect();
        ns.sync_log(0, &entries).unwrap();
        ns.compact_snapshot(36, 1, &LogCommand::shared(["intended 0 dev 4 digest 35"]))
            .unwrap();
        ns.crash();
        let state = ns.recover();
        assert_eq!(state.base_index, 36);
        assert_eq!(state.entries.len(), 4, "recovery must replay only the tail");
        // The WAL holds at most the tail rounded up to a segment.
        assert!(ns.wal().next_record() - ns.wal().base_record() <= 8);
    }
}
