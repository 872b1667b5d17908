//! Crash-consistent durable control state (experiment E21).
//!
//! PRs 2–4 proved the control plane *logically* recovers from crashes,
//! but its Raft logs and intent records lived in in-memory `Vec`s that
//! survived `kill`/`revive` intact. This module puts a real storage
//! discipline under them, on top of [`flexnet_sim::disk::SimDisk`]:
//!
//! - **Record codec** — every durable record is length-prefixed and
//!   CRC-checksummed (`[len u32][crc u32][payload]`), so recovery can
//!   tell a torn tail from bit rot from a clean end of log.
//! - **Scrub** ([`scrub`]) — the recovery scan: verify every record,
//!   truncate at the first torn or corrupt one, and report whether the
//!   fault was a tail tear (benign — the record was never acked) or
//!   mid-log rot (the suffix must be discarded and re-fetched).
//! - **[`SegmentedWal`]** — the per-node Raft log on disk, in bounded
//!   logical segments so compaction can delete whole segments behind a
//!   snapshot.
//! - **[`SnapshotStore`]** — checksummed snapshot generations (the last
//!   two are kept); a rotted newest generation falls back to the
//!   previous one plus a longer log tail.
//! - **[`NodeStorage`]** — one controller node's disks: hard state
//!   (term/vote, fsync'd before any vote or append ack), the WAL, and
//!   snapshots, with [`NodeStorage::recover`] performing the full
//!   scrub + fallback + catch-up-demotion decision.
//! - **Compaction** ([`compact_records`]) — folds the committed intent
//!   log into its recovery-relevant summary
//!   ([`crate::wal::ReplayState::summary`]): latest intended state per
//!   device, final record per terminal transaction, full history for
//!   anything unresolved, and a [`crate::wal::IntentRecord::Compacted`]
//!   marker preserving the id allocator's high-water mark.
//!
//! The seeded storage suite (experiment E21: crash-mid-append,
//! torn-tail-on-failover, cold-log rot, snapshot rot, `NoSpace` during
//! compaction, lagging fsync, and the CRC-checks-off oracle arm) lives
//! with the other chaos suites in `flexnet_bench::suites::storage`.

use crate::wal::{IntentRecord, ReplayState};
use flexnet_sim::disk::{DiskFaultPlan, SimDisk};
use flexnet_types::{FlexError, Result, SimDuration, StorageError};

/// Bytes of record header: `[len u32 LE][crc u32 LE]`.
pub const RECORD_HEADER: usize = 8;

/// Records per logical WAL segment. Compaction deletes storage only in
/// whole-segment units, so the bound keeps deletions aligned and cheap.
pub const SEG_CAP: u64 = 8;

/// Snapshot generations retained. Recovery falls back at most this many
/// times before declaring the node snapshot-less.
pub const SNAP_GENERATIONS: usize = 2;

/// FNV-1a 32-bit over `bytes` — the record checksum. (The workspace has
/// no CRC crate and must not grow one; FNV-1a detects the single-bit
/// and short-burst corruptions the fault model injects.)
pub fn record_crc(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Frames `payload` as one durable record: `[len][crc][payload]`.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_crc(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frames a Raft log entry as a record payload: `[term u64 LE][command]`.
pub fn encode_entry(term: u64, command: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + command.len());
    p.extend_from_slice(&term.to_le_bytes());
    p.extend_from_slice(command.as_bytes());
    p
}

/// Inverse of [`encode_entry`]. Short or non-UTF-8 payloads decode
/// *lossily* (term 0 / replacement characters) rather than panicking —
/// with CRC checks disabled (the protections-off arm), rotted payloads
/// reach this decoder and must surface as wrong state, never a crash.
pub fn decode_entry(payload: &[u8]) -> (u64, String) {
    if payload.len() < 8 {
        return (0, String::new());
    }
    let mut term = [0u8; 8];
    term.copy_from_slice(&payload[..8]);
    (
        u64::from_le_bytes(term),
        String::from_utf8_lossy(&payload[8..]).into_owned(),
    )
}

/// What one recovery scan of a byte region found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Every record that verified, in order.
    pub payloads: Vec<Vec<u8>>,
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
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut off = 0usize;
    let mut fault = None;
    while off < bytes.len() {
        let global = base_record + payloads.len() as u64;
        let segment = global / SEG_CAP;
        let remaining = bytes.len() - off;
        if remaining < RECORD_HEADER {
            fault = Some(StorageError::TornRecord {
                segment,
                offset: off as u64,
            });
            break;
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&bytes[off..off + 4]);
        let len = u32::from_le_bytes(len4) as usize;
        if len > remaining - RECORD_HEADER {
            fault = Some(StorageError::TornRecord {
                segment,
                offset: off as u64,
            });
            break;
        }
        let mut crc4 = [0u8; 4];
        crc4.copy_from_slice(&bytes[off + 4..off + 8]);
        let want = u32::from_le_bytes(crc4);
        let payload = &bytes[off + RECORD_HEADER..off + RECORD_HEADER + len];
        let got = record_crc(payload);
        if crc_checks && got != want {
            fault = Some(StorageError::ChecksumFailed {
                segment,
                want: u64::from(want),
                got: u64::from(got),
            });
            break;
        }
        payloads.push(payload.to_vec());
        off += RECORD_HEADER + len;
    }
    // Mid-log detection: does a verifiable record follow the fault? If
    // so the corruption hit cold data, not the in-flight tail.
    let mid_log = if fault.is_some() {
        next_record_verifies(&bytes[off..])
    } else {
        false
    };
    ScrubOutcome {
        payloads,
        valid_bytes: off,
        truncated: off < bytes.len(),
        fault,
        mid_log,
    }
}

/// Whether `bytes` starts with (possibly after the one bad record) a
/// structurally valid, checksum-clean record.
fn next_record_verifies(bytes: &[u8]) -> bool {
    // Skip the bad record if its length prefix is still plausible, then
    // try to verify the record after it.
    let mut starts = vec![0usize];
    if bytes.len() >= RECORD_HEADER {
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&bytes[..4]);
        let len = u32::from_le_bytes(len4) as usize;
        if let Some(next) = RECORD_HEADER.checked_add(len) {
            if next < bytes.len() {
                starts.push(next);
            }
        }
    }
    starts.into_iter().skip(1).any(|s| {
        let rest = &bytes[s..];
        if rest.len() < RECORD_HEADER {
            return false;
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&rest[..4]);
        let len = u32::from_le_bytes(len4) as usize;
        if len > rest.len() - RECORD_HEADER {
            return false;
        }
        let mut crc4 = [0u8; 4];
        crc4.copy_from_slice(&rest[4..8]);
        record_crc(&rest[RECORD_HEADER..RECORD_HEADER + len]) == u32::from_le_bytes(crc4)
    })
}

/// Byte offsets `(start, total_len)` of each framed record in a healthy
/// region (structural parse only — callers use it on bytes they wrote).
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut off = 0usize;
    while off + RECORD_HEADER <= bytes.len() {
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&bytes[off..off + 4]);
        let len = u32::from_le_bytes(len4) as usize;
        if len > bytes.len() - off - RECORD_HEADER {
            break;
        }
        spans.push((off, RECORD_HEADER + len));
        off += RECORD_HEADER + len;
    }
    spans
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
    /// return the verified payloads (plus what was wrong, if anything).
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
        let spans = record_spans(self.disk.synced_bytes());
        let cut = spans.get(keep).map_or(0, |(s, _)| *s);
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
        let spans = record_spans(self.disk.synced_bytes());
        let cut = spans.get(drop).map_or_else(
            || self.disk.synced_bytes().len(),
            |(s, _)| *s,
        );
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
        self.count = record_spans(self.disk.synced_bytes()).len() as u64;
    }

    /// Injects bit rot into the *payload* of the record at global index
    /// `global` — past the 8-byte term field when the payload is long
    /// enough, so the corrupted bytes are the command content itself.
    /// Returns the rotted byte offset, or `None` if out of range.
    pub fn rot_payload(&mut self, global: u64) -> Option<usize> {
        if global < self.base_record || global >= self.next_record() {
            return None;
        }
        let idx = (global - self.base_record) as usize;
        let (start, total) = *record_spans(self.disk.synced_bytes()).get(idx)?;
        let payload_start = start + RECORD_HEADER;
        let payload_len = total - RECORD_HEADER;
        let lo = if payload_len > 16 {
            payload_start + 16
        } else {
            payload_start
        };
        self.disk.rot_byte(lo, start + total)
    }

    /// The underlying disk (stats, fault state).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }
}

/// Checksummed snapshot generations (newest last, at most
/// [`SNAP_GENERATIONS`] kept).
///
/// A snapshot's payload is `[base_index u64][base_term u64][commands
/// joined by '\n']` — the summary command sequence that replaces the
/// compacted log prefix. Loading tries the newest generation first and
/// falls back on checksum failure; the fallback horizon (the oldest
/// retained generation's base) bounds how much WAL compaction may
/// delete.
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
    pub fn install(&mut self, base_index: u64, base_term: u64, cmds: &[String]) -> Result<u64> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&base_index.to_le_bytes());
        payload.extend_from_slice(&base_term.to_le_bytes());
        payload.extend_from_slice(cmds.join("\n").as_bytes());
        let mut plan = DiskFaultPlan::seeded(self.seed ^ self.next_gen);
        plan.fsync_lag = self.fsync_lag;
        if let Some(cap) = self.capacity {
            plan = plan.with_capacity(cap);
        }
        let mut disk = SimDisk::with_plan(plan);
        disk.write(&encode_record(&payload))?;
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
    /// exists).
    pub fn load(&self) -> Option<(u64, u64, u64, Vec<String>, u64)> {
        let mut fallbacks = 0u64;
        for (gen, _, disk) in self.gens.iter().rev() {
            let outcome = scrub(disk.synced_bytes(), 0, self.crc_checks);
            let Some(payload) = outcome.payloads.first() else {
                fallbacks += 1;
                continue;
            };
            if payload.len() < 16 {
                fallbacks += 1;
                continue;
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[..8]);
            let base_index = u64::from_le_bytes(b);
            b.copy_from_slice(&payload[8..16]);
            let base_term = u64::from_le_bytes(b);
            let rest = String::from_utf8_lossy(&payload[16..]);
            let cmds: Vec<String> = if rest.is_empty() {
                Vec::new()
            } else {
                rest.split('\n').map(str::to_string).collect()
            };
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

    /// Injects bit rot into the newest generation's command region (past
    /// the 16-byte base fields, so the corruption lands on content).
    /// Returns whether a byte was flipped.
    pub fn rot_latest(&mut self) -> bool {
        let Some((_, _, disk)) = self.gens.last_mut() else {
            return false;
        };
        let len = disk.synced_bytes().len();
        disk.rot_byte(RECORD_HEADER + 16, len).is_some()
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
    /// The snapshot's summary command sequence.
    pub snapshot_cmds: Vec<String>,
    /// Verified log tail: `(term, command)` for entries after
    /// `base_index`.
    pub entries: Vec<(u64, String)>,
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
    /// precede any vote or append acknowledgement. The hard-state log is
    /// rewritten in place once it accumulates a segment's worth of
    /// records (only the last one matters).
    pub fn persist_hard(&mut self, term: u64, vote: Option<usize>) -> Result<SimDuration> {
        let line = match vote {
            Some(v) => format!("hs {term} {v}"),
            None => format!("hs {term} -"),
        };
        self.hard.write(&encode_record(line.as_bytes()))?;
        let lag = self.hard.fsync()?;
        self.counters.fsync_lag += lag;
        self.hard_records += 1;
        if self.hard_records > 64 {
            let last = encode_record(line.as_bytes());
            self.hard.set_synced(last);
            self.hard_records = 1;
        }
        Ok(lag)
    }

    /// Mirrors the in-memory log suffix onto disk: truncates any
    /// conflicting records at global index ≥ `from`, appends `entries`,
    /// and fsyncs once. Returns the barrier latency. On error the
    /// in-flight record is in the volatile buffer and the caller must
    /// treat the node as crashed (the ack must never be sent).
    pub fn sync_log(&mut self, from: u64, entries: &[(u64, String)]) -> Result<SimDuration> {
        self.wal.truncate_records(from);
        if entries.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        for (term, cmd) in entries {
            if let Err(e) = self.wal.append(&encode_entry(*term, cmd)) {
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
        cmds: &[String],
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
        cmds: &[String],
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
        let (mut term, mut voted_for) = (0u64, None);
        if let Some(last) = hard_scrub.payloads.last() {
            let line = String::from_utf8_lossy(last);
            let mut parts = line.split_whitespace();
            if parts.next() == Some("hs") {
                term = parts.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                voted_for = match parts.next() {
                    Some("-") | None => None,
                    Some(v) => v.parse().ok(),
                };
            }
        }

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
        let mut entries: Vec<(u64, String)> = Vec::new();
        if wal_base > base_index {
            needs_catchup = true;
            self.wal.truncate_records(wal_base);
        } else {
            let skip = (base_index - wal_base) as usize;
            for payload in outcome.payloads.iter().skip(skip) {
                let (t, cmd) = decode_entry(payload);
                entries.push((t, cmd));
            }
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

// ---------------------------------------------------------------------
// Compaction and replay digests
// ---------------------------------------------------------------------

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
pub fn state_digest(cmds: &[String]) -> Result<u64> {
    let mut state = ReplayState::default();
    for cmd in cmds {
        state.absorb(cmd)?;
    }
    Ok(state.digest())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_types::SimTime;

    fn wal(seed: u64) -> SegmentedWal {
        SegmentedWal::new(SimDisk::with_plan(DiskFaultPlan::seeded(seed).tearing()), true)
    }

    #[test]
    fn scrub_accepts_a_clean_log_and_truncates_a_torn_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(b"alpha"));
        bytes.extend_from_slice(&encode_record(b"beta"));
        let clean = scrub(&bytes, 0, true);
        assert_eq!(clean.payloads, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert!(!clean.truncated);
        assert_eq!(clean.valid_bytes, bytes.len());

        // Tear the second record mid-payload: only the first survives.
        let torn = scrub(&bytes[..bytes.len() - 2], 0, true);
        assert_eq!(torn.payloads, vec![b"alpha".to_vec()]);
        assert!(torn.truncated);
        assert!(matches!(
            torn.fault,
            Some(StorageError::TornRecord { .. })
        ));
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
        assert_eq!(outcome.payloads, vec![b"first".to_vec()]);
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
        assert_eq!(outcome.payloads[0], vec![8u8]);
    }

    #[test]
    fn snapshot_store_falls_back_past_a_rotted_generation() {
        let mut s = SnapshotStore::new(5, None, true);
        s.install(4, 2, &["a".into(), "b".into()]).unwrap();
        s.install(8, 3, &["a".into(), "b".into(), "c".into()]).unwrap();
        assert!(s.rot_latest());
        let (_gen, base, term, cmds, fallbacks) = s.load().expect("older generation verifies");
        assert_eq!((base, term, fallbacks), (4, 2, 1));
        assert_eq!(cmds, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.generations(), 2);
    }

    #[test]
    fn node_storage_recovers_hard_state_snapshot_and_tail() {
        let mut ns = NodeStorage::fault_free(21);
        ns.persist_hard(3, Some(1)).unwrap();
        ns.sync_log(0, &[(1, "one".into()), (1, "two".into()), (3, "three".into())])
            .unwrap();
        ns.compact_snapshot(2, 1, &["summary".into()]).unwrap();
        ns.crash();
        let state = ns.recover();
        assert_eq!(state.term, 3);
        assert_eq!(state.voted_for, Some(1));
        assert_eq!(state.base_index, 2);
        assert_eq!(state.base_term, 1);
        assert_eq!(state.snapshot_cmds, vec!["summary".to_string()]);
        assert_eq!(state.entries, vec![(3, "three".to_string())]);
        assert!(!state.needs_catchup);
    }

    #[test]
    fn mid_log_rot_demotes_recovery_to_catch_up_only() {
        let mut ns = NodeStorage::fault_free(22);
        ns.sync_log(
            0,
            &[
                (1, "committed long ago".into()),
                (1, "also cold data here".into()),
                (1, "the warm tail record".into()),
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
    fn compaction_summary_replays_to_the_full_log_digest() {
        let records = vec![
            IntentRecord::Intent { txn: 1, devices: vec![4, 5] },
            IntentRecord::Prepared { txn: 1, devices: vec![4, 5] },
            IntentRecord::FlipScheduled { txn: 1, commit_at: SimTime::from_secs(1) },
            IntentRecord::IntendedState { txn: 1, device: 4, digest: 11 },
            IntentRecord::IntendedState { txn: 1, device: 5, digest: 12 },
            IntentRecord::Committed { txn: 1 },
            IntentRecord::IntendedState { txn: 2, device: 4, digest: 13 },
            IntentRecord::Intent { txn: 2, devices: vec![4] },
            IntentRecord::Prepared { txn: 2, devices: vec![4] },
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
    fn recovery_after_compaction_is_bounded_by_the_tail() {
        // The satellite-1 regression: after compaction, recovery replays
        // snapshot + tail, not the full history. Write many records, keep
        // a short tail, and pin the replayed entry count to the tail.
        let mut ns = NodeStorage::fault_free(33);
        let entries: Vec<(u64, String)> =
            (0..40).map(|i| (1, format!("intended 0 dev 4 digest {i}"))).collect();
        ns.sync_log(0, &entries).unwrap();
        ns.compact_snapshot(36, 1, &["intended 0 dev 4 digest 35".into()]).unwrap();
        ns.crash();
        let state = ns.recover();
        assert_eq!(state.base_index, 36);
        assert_eq!(state.entries.len(), 4, "recovery must replay only the tail");
        // The WAL holds at most the tail rounded up to a segment.
        assert!(ns.wal().next_record() - ns.wal().base_record() <= 8);
    }
}
