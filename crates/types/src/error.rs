//! The unified error type for the FlexNet stack.

use crate::resources::ResourceVec;
use crate::time::SimDuration;
use std::fmt;

/// Convenience alias used by every FlexNet crate.
pub type Result<T> = std::result::Result<T, FlexError>;

/// A typed data-plane trap: a per-packet execution fault that the
/// sandbox converts into a fail-closed verdict instead of a panic or a
/// hung sweep.
///
/// Traps are the unit of the isolation layer's failure-containment
/// contract. Every fault reachable from packet input — gas exhaustion,
/// division by zero, an out-of-bounds state slot, a malformed wire
/// header, a table whose runtime-reconfigured shape no longer matches
/// its static proof — is one of these variants, carried in the packet
/// outcome so the device can count it, drop the packet, and quarantine
/// the program if the rate crosses threshold. Both execution engines
/// (AST interpreter and bytecode VM) must produce the *identical*
/// variant at the identical gas count for the same packet: trap
/// identity is part of the differential invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// The per-packet instruction budget ran out. `limit` is the budget
    /// the packet was admitted with (for recirculated packets, the
    /// remaining budget of the pass that exhausted it).
    GasExhausted {
        /// The gas budget that was exceeded.
        limit: u64,
    },
    /// Integer division or modulo by zero. `op` is `"/"` or `"%"`.
    DivisionByZero {
        /// The operator that trapped (`/` or `%`).
        op: &'static str,
    },
    /// A register access landed outside the register's declared size.
    /// Unreachable for programs whose static proof still holds — the
    /// verifier bounds every index at install time — but runtime
    /// reconfiguration can shrink a register after the proof ran.
    StateOutOfBounds {
        /// The state object kind (single token, e.g. `register`).
        kind: &'static str,
        /// The state object's declared name.
        name: String,
        /// The offending index.
        index: u64,
        /// The object's size at the time of access.
        size: u64,
    },
    /// Packet bytes failed wire parsing: truncated header, impossible
    /// length field, unsupported version. Indicts the *packet*, not the
    /// program — parse traps never count toward program quarantine.
    MalformedPacket {
        /// What was wrong with the bytes.
        reason: String,
    },
    /// A table's key width exceeds the engine limit. Unreachable
    /// through the type checker; reachable when a runtime reconfig adds
    /// a table shape the static pipeline never saw.
    KeyOverflow {
        /// The table applied.
        table: String,
        /// The key width the table demanded.
        width: u64,
        /// The maximum the engine supports.
        max: u64,
    },
    /// A table entry dispatched to an action the program does not
    /// define (stale entry after a runtime reconfig).
    UnknownAction {
        /// The table applied.
        table: String,
        /// The missing action (name, or `#idx` in slot form).
        action: String,
    },
    /// A table entry's action arguments do not match the action's
    /// declared parameter count.
    ArityMismatch {
        /// The table applied.
        table: String,
        /// The action whose arity was violated.
        action: String,
    },
    /// The bytecode image itself is inconsistent (stack underflow, pc
    /// out of range, unbalanced loop/call frames). Means the compiler
    /// or image storage is at fault, never the packet.
    CorruptImage {
        /// Which structural invariant broke.
        reason: &'static str,
    },
}

impl Trap {
    /// Single-token label for accounting and log lines.
    pub fn label(&self) -> &'static str {
        match self {
            Trap::GasExhausted { .. } => "gas-exhausted",
            Trap::DivisionByZero { .. } => "div-by-zero",
            Trap::StateOutOfBounds { .. } => "state-oob",
            Trap::MalformedPacket { .. } => "malformed-packet",
            Trap::KeyOverflow { .. } => "key-overflow",
            Trap::UnknownAction { .. } => "unknown-action",
            Trap::ArityMismatch { .. } => "arity-mismatch",
            Trap::CorruptImage { .. } => "corrupt-image",
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::GasExhausted { limit } => write!(f, "gas exhausted (budget {limit})"),
            Trap::DivisionByZero { op } => write!(f, "division by zero (`{op}`)"),
            Trap::StateOutOfBounds {
                kind,
                name,
                index,
                size,
            } => write!(
                f,
                "{kind} `{name}` index {index} out of bounds (size {size})"
            ),
            Trap::MalformedPacket { reason } => write!(f, "malformed packet: {reason}"),
            Trap::KeyOverflow { table, width, max } => write!(
                f,
                "table `{table}` key width {width} exceeds engine max {max}"
            ),
            Trap::UnknownAction { table, action } => write!(
                f,
                "table `{table}` entry references unknown action `{action}`"
            ),
            Trap::ArityMismatch { table, action } => {
                write!(f, "table `{table}` action `{action}` arity mismatch")
            }
            Trap::CorruptImage { reason } => write!(f, "corrupt bytecode image: {reason}"),
        }
    }
}

/// A typed durable-storage fault: what a crash, a cosmic ray, or a full
/// disk actually does to persisted control state.
///
/// These are the unit of the storage layer's fail-closed contract: a
/// control plane that cannot prove a log record intact must detect,
/// truncate, and re-replicate — never replay garbage into the fleet.
/// Each variant names one physical failure mode of the simulated disk
/// ([`crate::FlexError::Storage`] carries them through the stack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A record's bytes end before its length prefix promised: the
    /// write was in flight when the crash hit. Recovery truncates the
    /// log at the tear — the record was never acknowledged, so nothing
    /// durable is lost.
    TornRecord {
        /// 0-based segment holding the torn record.
        segment: u64,
        /// Byte offset of the record header within the segment.
        offset: u64,
    },
    /// A record parsed structurally but its checksum does not match its
    /// payload: bit rot landed on synced data. The suffix from this
    /// record on is untrustworthy and must be discarded and re-fetched
    /// from a replica.
    ChecksumFailed {
        /// 0-based segment holding the rotted record.
        segment: u64,
        /// The checksum stored in the record header.
        want: u64,
        /// The checksum computed over the bytes actually on disk.
        got: u64,
    },
    /// The disk refused a write: capacity exhausted. The write did
    /// *not* happen (no partial state); compaction or operator action
    /// frees space.
    NoSpace {
        /// Bytes the refused write needed.
        needed: u64,
        /// The disk's configured capacity in bytes.
        capacity: u64,
    },
}

impl StorageError {
    /// Single-token label for accounting and log lines.
    pub fn label(&self) -> &'static str {
        match self {
            StorageError::TornRecord { .. } => "torn-record",
            StorageError::ChecksumFailed { .. } => "checksum-failed",
            StorageError::NoSpace { .. } => "no-space",
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TornRecord { segment, offset } => {
                write!(f, "torn record in segment {segment} at offset {offset}")
            }
            StorageError::ChecksumFailed { segment, want, got } => write!(
                f,
                "record checksum failed in segment {segment}: stored {want:#x}, computed {got:#x} (bit rot)"
            ),
            StorageError::NoSpace { needed, capacity } => write!(
                f,
                "disk full: write of {needed} bytes refused (capacity {capacity})"
            ),
        }
    }
}

/// Errors produced anywhere in the FlexNet stack.
///
/// A single error enum (rather than one per crate) keeps cross-crate
/// plumbing simple: the compiler calls into the data plane, the controller
/// calls into both, and all of them surface errors to the same callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlexError {
    /// FlexBPF source failed to lex or parse. Carries line, column, message.
    Parse {
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        col: u32,
        /// Human-readable description.
        msg: String,
    },
    /// FlexBPF program failed type checking.
    Type(String),
    /// FlexBPF program failed verification (unbounded execution, unsafe map
    /// access, etc.).
    Verify(String),
    /// The compiler could not produce a placement or lowering.
    Compile(String),
    /// A device did not have the resources an operation required.
    ResourceExhausted {
        /// What the operation needed (boxed: a `ResourceVec` is an array).
        needed: Box<ResourceVec>,
        /// What the device had free.
        available: Box<ResourceVec>,
        /// What was being placed.
        context: String,
    },
    /// A runtime reconfiguration could not be applied.
    Reconfig(String),
    /// A named entity (app, table, device, service, tenant…) does not exist.
    NotFound(String),
    /// An access-control check rejected the operation.
    Denied(String),
    /// A patch program failed to apply to its base program.
    Patch(String),
    /// Datapath composition detected a conflict between modules.
    Conflict(String),
    /// A distributed-controller consensus operation failed.
    Consensus(String),
    /// A simulator invariant was violated or a simulation input was invalid.
    Sim(String),
    /// An SLA certification failed (latency or throughput objective missed).
    SlaViolation(String),
    /// An operation did not complete before its deadline (retries included).
    Timeout(String),
    /// The target device or service is down / unreachable.
    Unavailable(String),
    /// A command carried a controller epoch older than one the receiver has
    /// already accepted: the sender is a deposed (zombie) coordinator and
    /// must stand down. Fencing makes split-brain flips impossible.
    Fenced {
        /// The highest epoch the receiver has accepted.
        seen: u64,
        /// The stale epoch the command carried.
        got: u64,
    },
    /// A consensus proposal found no leader. Unlike [`FlexError::Consensus`]
    /// this is transient: the caller should retry after `retry_after`,
    /// optionally starting at the hinted last-known leader.
    NoLeader {
        /// Index of the last node known to have led, if any.
        hint: Option<u64>,
        /// How long to wait before retrying (an election timeout).
        retry_after: SimDuration,
    },
    /// After a resync re-provisioned a device, its content digest still
    /// differs from the controller's intended-state digest: the
    /// anti-entropy pass failed to converge and must not be reported as
    /// success.
    DigestMismatch {
        /// The device whose configuration diverged.
        node: u64,
        /// The intended-state digest the controller expected.
        want: u64,
        /// The digest the device actually reported.
        got: u64,
    },
    /// A resync for this device is already in flight. Transient: the
    /// running resync either converges the device (making the retry a
    /// no-op) or completes and frees the slot for the retry.
    ResyncInProgress {
        /// The device being resynchronized.
        node: u64,
    },
    /// A device is excluded from admission because its health grade is
    /// not `Healthy` — it may be silent (suspect/dead), one-way
    /// partitioned (unreachable: alive, but its replies never arrive) or
    /// gray-failing (heartbeats on time, data path degraded). Retryable:
    /// the failure detector clears the grade when the device recovers, the
    /// partition heals or a resync converges it.
    DegradedDevice {
        /// The excluded device.
        node: u64,
        /// The health grade that blocked admission (single token:
        /// `degraded`, `suspect`, `unreachable` or `dead`).
        grade: String,
    },
    /// The controller's admission layer refused the work: the bounded
    /// queue is full of higher-priority work, the global rate bucket has
    /// no tokens within its horizon, or the controller is in `Degraded`
    /// mode and is shedding this class. Retryable — admission pressure
    /// clears as the queue drains; the caller should *requeue* the work
    /// (never drop it) and try again after `retry_after`.
    Backpressure {
        /// What refused admission (single phrase, e.g. `resync bucket`,
        /// `work queue`, `rollouts paused: controller degraded`).
        what: String,
        /// How long to wait before re-offering the work.
        retry_after: SimDuration,
    },
    /// A packet's execution trapped in the data-plane sandbox. The
    /// engines use this internally to unwind to the packet boundary;
    /// devices convert it into a fail-closed drop plus trap accounting,
    /// so it normally never crosses the device API. Not retryable —
    /// re-executing the same packet against the same program reproduces
    /// the trap.
    Trap(Trap),
    /// A frame failed its end-to-end integrity check: the checksum the
    /// sender sealed into the frame does not match what the receiver
    /// computed over the bytes that arrived. Indicts the *fabric*, not
    /// the payload's author — a corrupted control command or wire frame
    /// is a transport failure (retransmission gets a fresh copy), never
    /// a parse trap billed to a program. Retryable by design: it feeds
    /// the same breaker/retry machinery as `Timeout`/`Unavailable`.
    ChecksumMismatch {
        /// The checksum sealed into the frame by the sender.
        want: u64,
        /// The checksum the receiver computed over the received bytes.
        got: u64,
    },
    /// A command carried an idempotency token the receiver has already
    /// absorbed: this is a duplicate delivery (fabric duplication, or a
    /// retry of a command whose ack was lost) of work that is already
    /// done. *Not* retryable — retrying a duplicate just produces
    /// another duplicate; the caller should treat it as success-shaped
    /// ("already applied") and consult device state if it needs the
    /// original outcome.
    StaleDuplicate {
        /// The idempotency token that was replayed.
        token: u64,
    },
    /// A durable-storage fault surfaced by the simulated disk layer or
    /// the crash-consistent log built on it. Retryability splits per
    /// variant — see [`FlexError::is_retryable`].
    Storage(StorageError),
    /// A hitless change redefines a user header the running program
    /// parses. One parser serves the old and the new program until the
    /// flip, so parsing the header the new way before the flip would show
    /// old packets the new layout (and parsing it the old way after the
    /// flip the reverse): old-XOR-new would break. The change is refused
    /// before anything on the device moves; a reflash, or the new
    /// definition under another name, is the way forward.
    LiveHeaderRedefined {
        /// The redefined header.
        header: String,
    },
    /// Bytecode lowering could not resolve a name to a slot index.
    ///
    /// Surfaced at install/compile time — a program that references a
    /// table, state object, service, action, or local the target image
    /// does not provide must be rejected *before* it can see a packet,
    /// not degraded into per-packet misses.
    UnresolvedSymbol {
        /// The symbol's kind (single token: `table`, `map`, `register`,
        /// `counter`, `meter`, `service`, `action`, `local`, `handler`).
        kind: String,
        /// The unresolved name.
        name: String,
    },
}

impl fmt::Display for FlexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlexError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            FlexError::Type(m) => write!(f, "type error: {m}"),
            FlexError::Verify(m) => write!(f, "verification failed: {m}"),
            FlexError::Compile(m) => write!(f, "compilation failed: {m}"),
            FlexError::ResourceExhausted {
                needed,
                available,
                context,
            } => write!(
                f,
                "resources exhausted while placing {context}: needed {needed}, available {available}"
            ),
            FlexError::Reconfig(m) => write!(f, "reconfiguration failed: {m}"),
            FlexError::NotFound(m) => write!(f, "not found: {m}"),
            FlexError::Denied(m) => write!(f, "access denied: {m}"),
            FlexError::Patch(m) => write!(f, "patch failed: {m}"),
            FlexError::Conflict(m) => write!(f, "composition conflict: {m}"),
            FlexError::Consensus(m) => write!(f, "consensus failure: {m}"),
            FlexError::Sim(m) => write!(f, "simulation error: {m}"),
            FlexError::SlaViolation(m) => write!(f, "SLA violation: {m}"),
            FlexError::Timeout(m) => write!(f, "timed out: {m}"),
            FlexError::Unavailable(m) => write!(f, "unavailable: {m}"),
            FlexError::Fenced { seen, got } => write!(
                f,
                "fenced: stale controller epoch {got} (receiver has accepted epoch {seen})"
            ),
            FlexError::NoLeader { hint, retry_after } => match hint {
                Some(h) => write!(
                    f,
                    "no leader elected (last known: node {h}; retry after {retry_after})"
                ),
                None => write!(f, "no leader elected (retry after {retry_after})"),
            },
            FlexError::DigestMismatch { node, want, got } => write!(
                f,
                "digest mismatch on node {node}: intended {want:#018x}, device reports {got:#018x}"
            ),
            FlexError::ResyncInProgress { node } => {
                write!(f, "resync already in progress on node {node}")
            }
            FlexError::DegradedDevice { node, grade } => {
                write!(f, "node {node} excluded from admission: health grade {grade}")
            }
            FlexError::Backpressure { what, retry_after } => write!(
                f,
                "backpressure from {what}: requeue and retry after {retry_after}"
            ),
            FlexError::ChecksumMismatch { want, got } => write!(
                f,
                "frame checksum mismatch: sealed {want:#018x}, computed {got:#018x} (corrupted in flight)"
            ),
            FlexError::StaleDuplicate { token } => write!(
                f,
                "stale duplicate: idempotency token {token:#x} already absorbed"
            ),
            FlexError::Trap(t) => write!(f, "data-plane trap: {t}"),
            FlexError::Storage(s) => write!(f, "storage fault: {s}"),
            FlexError::LiveHeaderRedefined { header } => write!(
                f,
                "hitless change refused: it redefines header `{header}`, but one parser serves \
                 both programs until the flip, so re-parsing a live header would break \
                 old-XOR-new; reflash, or give the new definition another name"
            ),
            FlexError::UnresolvedSymbol { kind, name } => {
                write!(f, "unresolved {kind} `{name}` during bytecode lowering")
            }
        }
    }
}

impl std::error::Error for FlexError {}

impl FlexError {
    /// Whether a retry (after backoff) may succeed without any other
    /// intervention.
    ///
    /// [`FlexError::NoLeader`] qualifies: elections converge on their
    /// own, so waiting an election timeout and re-proposing is the
    /// correct reaction. [`FlexError::ResyncInProgress`] qualifies: the
    /// running resync finishes (or converges the device outright), after
    /// which the retry succeeds or becomes a no-op. `Timeout` is produced
    /// *by* the retry layer (its budget is already spent), `Unavailable`
    /// is resolved by the failure detector rather than blind retries, and
    /// everything else is semantic.
    ///
    /// [`FlexError::DegradedDevice`] qualifies: the grade is cleared when
    /// the device recovers, resyncs, or a rollback restores its old
    /// program, so a later admission attempt can succeed.
    ///
    /// The overload-protection error [`FlexError::Backpressure`] is
    /// retryable: the queue drains.
    ///
    /// The adversarial-fabric errors split:
    /// [`FlexError::ChecksumMismatch`] is retryable (a retransmission
    /// gets an uncorrupted copy), but [`FlexError::StaleDuplicate`] is
    /// *not* — the work is already done; retrying manufactures more
    /// duplicates.
    ///
    /// The storage faults split the same way, mirroring the fabric's
    /// `ChecksumMismatch` treatment: [`StorageError::NoSpace`] is
    /// retryable (compaction frees space, after which the same write
    /// succeeds) and [`StorageError::ChecksumFailed`] is retryable at
    /// the *caller's* level (the node re-fetches an intact copy from a
    /// replica, exactly as a retransmission replaces a corrupted
    /// frame). [`StorageError::TornRecord`] is *not* — it is resolved by
    /// recovery's scrub path, never by re-issuing the read.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FlexError::NoLeader { .. }
                | FlexError::ResyncInProgress { .. }
                | FlexError::DegradedDevice { .. }
                | FlexError::Backpressure { .. }
                | FlexError::ChecksumMismatch { .. }
                | FlexError::Storage(
                    StorageError::NoSpace { .. } | StorageError::ChecksumFailed { .. }
                )
        )
    }

    /// Single-token label for accounting, metrics, and log lines.
    ///
    /// Stable: these tokens are written into experiment summaries and
    /// matched by CI smoke checks, so renaming one is a breaking change.
    pub fn label(&self) -> &'static str {
        match self {
            FlexError::Parse { .. } => "parse",
            FlexError::Type(_) => "type",
            FlexError::Verify(_) => "verify",
            FlexError::Compile(_) => "compile",
            FlexError::ResourceExhausted { .. } => "resource-exhausted",
            FlexError::Reconfig(_) => "reconfig",
            FlexError::NotFound(_) => "not-found",
            FlexError::Denied(_) => "denied",
            FlexError::Patch(_) => "patch",
            FlexError::Conflict(_) => "conflict",
            FlexError::Consensus(_) => "consensus",
            FlexError::Sim(_) => "sim",
            FlexError::SlaViolation(_) => "sla-violation",
            FlexError::Timeout(_) => "timeout",
            FlexError::Unavailable(_) => "unavailable",
            FlexError::Fenced { .. } => "fenced",
            FlexError::NoLeader { .. } => "no-leader",
            FlexError::DigestMismatch { .. } => "digest-mismatch",
            FlexError::ResyncInProgress { .. } => "resync-in-progress",
            FlexError::DegradedDevice { .. } => "degraded-device",
            FlexError::Backpressure { .. } => "backpressure",
            FlexError::ChecksumMismatch { .. } => "checksum-mismatch",
            FlexError::StaleDuplicate { .. } => "stale-duplicate",
            FlexError::Trap(t) => t.label(),
            FlexError::Storage(s) => s.label(),
            FlexError::LiveHeaderRedefined { .. } => "live-header-redefined",
            FlexError::UnresolvedSymbol { .. } => "unresolved-symbol",
        }
    }

    /// Shorthand for a parse error.
    pub fn parse(line: u32, col: u32, msg: impl Into<String>) -> FlexError {
        FlexError::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl From<Trap> for FlexError {
    fn from(t: Trap) -> FlexError {
        FlexError::Trap(t)
    }
}

impl From<StorageError> for FlexError {
    fn from(s: StorageError) -> FlexError {
        FlexError::Storage(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{ResourceKind, ResourceVec};

    #[test]
    fn display_formats_are_stable() {
        let e = FlexError::parse(3, 7, "unexpected token");
        assert_eq!(e.to_string(), "parse error at 3:7: unexpected token");
        assert_eq!(
            FlexError::NotFound("app x".into()).to_string(),
            "not found: app x"
        );
    }

    #[test]
    fn resource_exhausted_mentions_both_sides() {
        let needed = ResourceVec::of(ResourceKind::SramKb, 128);
        let available = ResourceVec::of(ResourceKind::SramKb, 64);
        let e = FlexError::ResourceExhausted {
            needed: Box::new(needed),
            available: Box::new(available),
            context: "table acl".into(),
        };
        let s = e.to_string();
        assert!(s.contains("table acl"));
        assert!(s.contains("128"));
        assert!(s.contains("64"));
    }

    #[test]
    fn fencing_and_leader_errors_format_and_classify() {
        let fenced = FlexError::Fenced { seen: 7, got: 3 };
        assert!(fenced.to_string().contains("epoch 3"));
        assert!(fenced.to_string().contains("epoch 7"));
        assert!(
            !fenced.is_retryable(),
            "a zombie must stand down, not retry"
        );

        let no_leader = FlexError::NoLeader {
            hint: Some(2),
            retry_after: SimDuration::from_millis(300),
        };
        assert!(no_leader.to_string().contains("node 2"));
        assert!(no_leader.is_retryable(), "elections converge; retry helps");
        let anon = FlexError::NoLeader {
            hint: None,
            retry_after: SimDuration::from_millis(300),
        };
        assert!(anon.is_retryable());
        assert!(!FlexError::Timeout("x".into()).is_retryable());
        assert!(!FlexError::Unavailable("x".into()).is_retryable());
    }

    #[test]
    fn resync_errors_format_and_classify() {
        let mismatch = FlexError::DigestMismatch {
            node: 4,
            want: 0xABCD,
            got: 0x1234,
        };
        let s = mismatch.to_string();
        assert!(s.contains("node 4"), "{s}");
        assert!(s.contains("0x000000000000abcd"), "{s}");
        assert!(s.contains("0x0000000000001234"), "{s}");
        assert!(
            !mismatch.is_retryable(),
            "a failed reconcile needs intervention, not blind retries"
        );

        let busy = FlexError::ResyncInProgress { node: 9 };
        assert!(busy.to_string().contains("node 9"));
        assert!(
            busy.is_retryable(),
            "the in-flight resync completes on its own; retrying helps"
        );
    }

    #[test]
    fn degraded_device_formats_and_classifies() {
        let degraded = FlexError::DegradedDevice {
            node: 5,
            grade: "degraded".into(),
        };
        assert!(degraded.to_string().contains("node 5"));
        assert!(degraded.to_string().contains("degraded"));
        assert!(
            degraded.is_retryable(),
            "grades clear on recovery/resync; a later admission can succeed"
        );
    }

    #[test]
    fn unresolved_symbol_formats_and_classifies_per_kind() {
        // One assertion per symbol kind the lowering pass can fail on.
        for kind in [
            "table", "map", "register", "counter", "meter", "service", "action", "local", "handler",
        ] {
            let e = FlexError::UnresolvedSymbol {
                kind: kind.into(),
                name: format!("my_{kind}"),
            };
            let s = e.to_string();
            assert!(s.contains(kind), "{s}");
            assert!(s.contains(&format!("`my_{kind}`")), "{s}");
            assert!(
                !e.is_retryable(),
                "an unresolved {kind} is a program defect; retrying reproduces it"
            );
        }
    }

    #[test]
    fn overload_errors_format_and_classify() {
        let bp = FlexError::Backpressure {
            what: "resync bucket".into(),
            retry_after: SimDuration::from_millis(100),
        };
        assert!(bp.to_string().contains("resync bucket"));
        assert!(
            bp.is_retryable(),
            "admission pressure clears as the queue drains"
        );
    }

    #[test]
    fn adversarial_fabric_errors_format_label_and_classify() {
        let bad = FlexError::ChecksumMismatch {
            want: 0xABCD,
            got: 0x1234,
        };
        let s = bad.to_string();
        assert!(s.contains("0x000000000000abcd"), "{s}");
        assert!(s.contains("0x0000000000001234"), "{s}");
        assert_eq!(bad.label(), "checksum-mismatch");
        assert!(
            bad.is_retryable(),
            "a retransmission gets an uncorrupted copy; retrying helps"
        );

        let dup = FlexError::StaleDuplicate { token: 0xBEEF };
        assert!(dup.to_string().contains("0xbeef"));
        assert_eq!(dup.label(), "stale-duplicate");
        assert!(
            !dup.is_retryable(),
            "the work is already done; retrying manufactures more duplicates"
        );
    }

    #[test]
    fn labels_are_stable_single_tokens() {
        let cases: Vec<(FlexError, &str)> = vec![
            (FlexError::Timeout("x".into()), "timeout"),
            (FlexError::Unavailable("x".into()), "unavailable"),
            (
                FlexError::ChecksumMismatch { want: 1, got: 2 },
                "checksum-mismatch",
            ),
            (FlexError::StaleDuplicate { token: 1 }, "stale-duplicate"),
            (
                FlexError::Trap(Trap::MalformedPacket { reason: "x".into() }),
                "malformed-packet",
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.label(), want);
            assert!(
                !e.label().contains(' '),
                "labels are single tokens: {}",
                e.label()
            );
        }
    }

    #[test]
    fn traps_format_label_and_classify() {
        let cases: Vec<(Trap, &str, &str)> = vec![
            (
                Trap::GasExhausted { limit: 4096 },
                "gas-exhausted",
                "gas exhausted (budget 4096)",
            ),
            (
                Trap::DivisionByZero { op: "/" },
                "div-by-zero",
                "division by zero (`/`)",
            ),
            (
                Trap::StateOutOfBounds {
                    kind: "register",
                    name: "hits".into(),
                    index: 40,
                    size: 16,
                },
                "state-oob",
                "register `hits` index 40 out of bounds (size 16)",
            ),
            (
                Trap::MalformedPacket {
                    reason: "ipv4 header truncated".into(),
                },
                "malformed-packet",
                "malformed packet: ipv4 header truncated",
            ),
            (
                Trap::KeyOverflow {
                    table: "acl".into(),
                    width: 20,
                    max: 16,
                },
                "key-overflow",
                "table `acl` key width 20 exceeds engine max 16",
            ),
            (
                Trap::UnknownAction {
                    table: "t".into(),
                    action: "gone".into(),
                },
                "unknown-action",
                "table `t` entry references unknown action `gone`",
            ),
            (
                Trap::ArityMismatch {
                    table: "t".into(),
                    action: "go".into(),
                },
                "arity-mismatch",
                "table `t` action `go` arity mismatch",
            ),
            (
                Trap::CorruptImage {
                    reason: "bytecode stack underflow",
                },
                "corrupt-image",
                "corrupt bytecode image: bytecode stack underflow",
            ),
        ];
        for (trap, label, display) in cases {
            assert_eq!(trap.label(), label);
            assert_eq!(trap.to_string(), display);
            let e: FlexError = trap.into();
            assert_eq!(e.to_string(), format!("data-plane trap: {display}"));
            assert!(
                !e.is_retryable(),
                "the same packet reproduces the trap; retrying cannot help"
            );
        }
    }

    #[test]
    fn storage_errors_format_label_and_classify() {
        let torn = FlexError::Storage(StorageError::TornRecord {
            segment: 2,
            offset: 96,
        });
        assert!(torn.to_string().contains("segment 2"));
        assert_eq!(torn.label(), "torn-record");
        assert!(
            !torn.is_retryable(),
            "a tear is resolved by scrub-truncation, not by re-reading"
        );

        let rot = FlexError::Storage(StorageError::ChecksumFailed {
            segment: 1,
            want: 0xAB,
            got: 0xCD,
        });
        assert!(rot.to_string().contains("0xab"), "{rot}");
        assert_eq!(rot.label(), "checksum-failed");
        assert!(
            rot.is_retryable(),
            "mirrors ChecksumMismatch: a replica re-fetch gets an intact copy"
        );

        let full = FlexError::Storage(StorageError::NoSpace {
            needed: 128,
            capacity: 64,
        });
        assert!(full.to_string().contains("128"));
        assert!(full.to_string().contains("64"));
        assert_eq!(full.label(), "no-space");
        assert!(
            full.is_retryable(),
            "compaction frees space; retry succeeds"
        );

        // From impl and single-token labels.
        let e: FlexError = StorageError::NoSpace {
            needed: 1,
            capacity: 0,
        }
        .into();
        assert!(matches!(e, FlexError::Storage(_)));
        for s in [
            StorageError::TornRecord {
                segment: 0,
                offset: 0,
            },
            StorageError::ChecksumFailed {
                segment: 0,
                want: 0,
                got: 1,
            },
            StorageError::NoSpace {
                needed: 0,
                capacity: 0,
            },
        ] {
            assert!(!s.label().contains(' '), "labels are single tokens");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&FlexError::Type("x".into()));
    }
}
