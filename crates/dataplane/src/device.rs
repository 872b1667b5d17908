//! The runtime-programmable device model.
//!
//! A [`Device`] is one node of the data plane: an architecture-specific
//! resource allocator, a parser graph, a cost model, and (at most) one
//! installed FlexBPF program with its tables and state. Devices process
//! packets by interpreting the installed program's `ingress` handler and
//! are reprogrammed either *hitlessly at runtime* (see `reconfig.rs`) or by
//! the compile-time drain/reflash baseline.

use crate::arch::{ArchClass, Architecture, ArchAllocator};
use crate::cost::CostModel;
use crate::image::{Code, ProgramImage, SealTarget};
use crate::parser::ParserGraph;
use crate::state::{DeviceState, LogicalState, StateEncoding};
use crate::table::{TableEntry, TableSet};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::bytecode::{
    self, CompiledProgram, SlotEnv, SlotResolver, SymbolKind,
};
use flexnet_lang::diff::{ProgramBundle, ReconfigOp};
use flexnet_lang::headers::HeaderRegistry;
use flexnet_lang::interp::{execute_metered, ExecEnv, GAS_UNLIMITED};
use flexnet_lang::ir::program_elements;
use flexnet_types::{
    FlexError, NodeId, Packet, ProgramVersion, ResourceVec, Result, SimDuration, SimTime, Trap,
    Verdict,
};
use std::sync::Arc;

/// Maximum recirculation passes before a packet is dropped (hardware bounds
/// recirculation to protect the pipeline).
pub const MAX_RECIRCULATIONS: u32 = 4;

/// The port a packet leaves on when no handler yields a verdict.
const DEFAULT_PORT: u16 = 0;

/// The content digest of a device with no program installed.
///
/// Distinct from every real digest (which folds at least the program
/// source through FNV-1a from a non-zero offset basis), so a
/// never-provisioned or fully-wiped device is distinguishable from any
/// provisioned one.
pub const EMPTY_CONFIG_DIGEST: u64 = 0;

/// Capacity of the per-device idempotency-token dedup window
/// ([`Device::absorb_command`]).
///
/// Sizing: the window must cover every command that can still be in
/// flight when its duplicate arrives. With the retry policy's 16
/// attempts, the fabric's bounded reorder depth (≤8), and one command
/// outstanding per coordinator, 64 tokens is an order of magnitude
/// beyond the deepest replay the chaos fabric can produce, while
/// keeping the memory fixed (512 bytes) under any dup-flood.
pub const DEDUP_WINDOW: usize = 64;

/// Resolves program symbols to the dense slots a specific device's tables
/// and state plane actually assigned — the layout the bytecode VM indexes.
struct DeviceResolver<'a> {
    tables: &'a TableSet,
    state: &'a DeviceState,
    services: &'a [Arc<flexnet_lang::ast::ServiceDecl>],
}

impl SlotResolver for DeviceResolver<'_> {
    fn resolve(&self, kind: SymbolKind, name: &str) -> Option<u16> {
        match kind {
            SymbolKind::Table => self.tables.slot_of(name),
            SymbolKind::Map => self.state.map_slot(name),
            SymbolKind::Register => self.state.register_slot(name),
            SymbolKind::Counter => self.state.counter_slot(name),
            SymbolKind::Meter => self.state.meter_slot(name),
            SymbolKind::Service => self
                .services
                .iter()
                .position(|s| s.name == name)
                .map(|i| i as u16),
        }
    }
}

/// One program installed on a device: the sealed image it runs, this
/// device's tables and state, and the slot-resolved bytecode the fast
/// path executes.
#[derive(Debug, Clone)]
pub struct InstalledProgram {
    code: Code,
    /// Match/action tables with entries.
    pub tables: TableSet,
    /// Stateful storage.
    pub state: DeviceState,
    /// The compiled image, lowered against this instance's slot layout
    /// (shared with every other fresh instance of the same sealed image).
    /// `None` after a structural reconfiguration op until the next rebuild
    /// (entry-level changes never invalidate it — entries are data, not
    /// layout).
    compiled: Option<Arc<CompiledProgram>>,
}

impl InstalledProgram {
    /// Seals `target` (a raw bundle is checked and verified here; an
    /// image already was) and materializes it — including lowering it to
    /// bytecode, so a program that references an unresolvable symbol is
    /// rejected at install time ([`FlexError::UnresolvedSymbol`]), not
    /// when a packet first reaches the dangling reference.
    pub fn new(target: impl SealTarget, encoding: StateEncoding) -> Result<InstalledProgram> {
        let image = target.into_image()?;
        let program = &image.bundle().program;
        let mut p = InstalledProgram {
            tables: TableSet::from_decls(&program.tables),
            state: DeviceState::from_decls(&program.states, encoding),
            code: Code::Sealed(image),
            compiled: None,
        };
        p.recompile()?;
        Ok(p)
    }

    /// The shadow of a hitless change: `image` and its bytecode, with no
    /// tables and no state — [`InstalledProgram::carry_over`] builds those at
    /// the flip, in declaration order, the layout every sealed image's
    /// shared bytecode is compiled for. The first instance of an image
    /// under an encoding is built whole, which compiles that bytecode (or
    /// fails on an unresolvable symbol) once for everyone after.
    pub(crate) fn shadow(image: Arc<ProgramImage>, encoding: StateEncoding) -> Result<InstalledProgram> {
        let Some(compiled) = image.compiled(encoding).cloned() else {
            return InstalledProgram::new(image, encoding);
        };
        Ok(InstalledProgram {
            tables: TableSet::default(),
            state: DeviceState::from_decls(&[], encoding),
            code: Code::Sealed(image),
            compiled: Some(compiled),
        })
    }

    /// Rebuilds the bytecode image against the current slot layout.
    pub fn recompile(&mut self) -> Result<()> {
        let (bundle, registry) = self.code.parts();
        let resolver = DeviceResolver {
            tables: &self.tables,
            state: &self.state,
            services: &bundle.program.services,
        };
        let compile = || bytecode::compile(&bundle.program, registry, &resolver);
        self.compiled = Some(self.code.compiled_for(self.state.encoding(), compile)?);
        Ok(())
    }

    /// The current bytecode image, if one is built.
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.as_deref()
    }

    /// The installed bundle (headers + program).
    pub fn bundle(&self) -> &ProgramBundle {
        self.code.parts().0
    }

    /// The sealed image this instance runs; `None` once in-place ops have
    /// mutated the program away from it.
    pub fn image(&self) -> Option<&Arc<ProgramImage>> {
        self.code.image()
    }

    /// Content digest of this instance (program + entries): the image's
    /// memoised program part continued over the live entries.
    pub fn config_digest(&self) -> u64 {
        let entries = self.tables.iter().flat_map(|t| {
            let table = t.decl.name.as_str();
            t.entries.iter().map(move |e| (table, e))
        });
        self.code.config_digest(entries)
    }

    /// The carry-over rule of a hitless flip: this (incoming) instance's
    /// storage is built from its declarations, each state object
    /// `outgoing` also declares and each table declared unchanged
    /// (`entries_carry_over`) as a copy of what `outgoing` holds when this
    /// is called ([`DeviceState::carrying`], [`TableSet::carrying`]). The
    /// copy is the only one made: `outgoing` stays whole, as the
    /// quarantine fallback.
    pub(crate) fn carry_over(&mut self, outgoing: &InstalledProgram) {
        let program = &self.code.parts().0.program;
        self.tables = TableSet::carrying(&program.tables, &outgoing.tables);
        self.state =
            DeviceState::carrying(&program.states, self.state.encoding(), Some(&outgoing.state));
    }

    /// Rebuilds tables and state from the declarations (a restart wiped
    /// them); the bytecode is rebuilt on first use.
    fn reset_runtime(&mut self, encoding: StateEncoding) {
        let program = &self.code.parts().0.program;
        self.tables = TableSet::from_decls(&program.tables);
        self.state = DeviceState::from_decls(&program.states, encoding);
        self.compiled = None;
    }

    /// Applies one reconfiguration op to this instance's structures.
    ///
    /// This is the only mutation of an installed program (the
    /// `UnsafeInPlace` ablation and fault injection). The sealed image is
    /// left untouched: the first op moves this instance onto a private,
    /// unverified copy, without the digest memo or the shared bytecode.
    pub fn apply_op(&mut self, op: &ReconfigOp) -> Result<()> {
        let (bundle, registry) = self.code.patch();
        match op {
            ReconfigOp::AddTable(t) => {
                self.tables.add_table(t.clone())?;
                bundle.program.tables.push(t.clone());
            }
            ReconfigOp::RemoveTable(n) => {
                self.tables.remove_table(n)?;
                bundle.program.tables.retain(|t| &t.name != n);
            }
            ReconfigOp::ModifyTable(t) => {
                self.tables.modify_table(t.clone())?;
                if let Some(slot) = bundle.program.tables.iter_mut().find(|x| x.name == t.name) {
                    *slot = t.clone();
                }
            }
            ReconfigOp::AddState(s) => {
                self.state.add_state(s)?;
                bundle.program.states.push(s.clone());
            }
            ReconfigOp::RemoveState(n) => {
                self.state.remove_state(n)?;
                bundle.program.states.retain(|s| &s.name != n);
            }
            ReconfigOp::ModifyState(s) => {
                self.state.modify_state(s)?;
                if let Some(slot) = bundle.program.states.iter_mut().find(|x| x.name == s.name) {
                    *slot = s.clone();
                }
            }
            ReconfigOp::AddParserState(h) => {
                registry.register(h)?;
                bundle.headers.push(h.clone());
            }
            ReconfigOp::RemoveParserState(n) => {
                bundle.headers.retain(|h| &h.name != n);
                *registry = HeaderRegistry::with_user_headers(&bundle.headers)?;
            }
            ReconfigOp::SetHandler(h) => {
                match bundle.program.handlers.iter_mut().find(|x| x.name == h.name) {
                    Some(slot) => *slot = h.clone(),
                    None => bundle.program.handlers.push(h.clone()),
                }
            }
            ReconfigOp::RemoveHandler(n) => {
                bundle.program.handlers.retain(|h| &h.name != n);
            }
            ReconfigOp::AddService(s) => {
                bundle.program.services.push(s.clone());
            }
            ReconfigOp::RemoveService(n) => {
                bundle.program.services.retain(|s| &s.name != n);
            }
        }
        // Structural ops can move slots (removals shift later slots down);
        // drop the image and rebuild lazily against the new layout.
        self.compiled = None;
        Ok(())
    }
}

/// ExecEnv adapter joining a program's tables and state.
struct DeviceEnv<'a> {
    tables: &'a TableSet,
    state: &'a mut DeviceState,
    invocations: &'a mut Vec<(String, Vec<u64>)>,
}

impl ExecEnv for DeviceEnv<'_> {
    fn table_lookup(&mut self, table: &str, keys: &[u64]) -> Option<ActionCall> {
        self.tables
            .get(table)?
            .lookup(keys)
            .map(|e| e.action.clone())
    }

    fn map_get(&mut self, map: &str, key: u64) -> Option<u64> {
        self.state.map_get(map, key)
    }

    fn map_put(&mut self, map: &str, key: u64, value: u64) -> Result<()> {
        self.state.map_put(map, key, value)
    }

    fn map_del(&mut self, map: &str, key: u64) {
        self.state.map_del(map, key);
    }

    fn reg_read(&mut self, reg: &str, idx: u64) -> Result<u64> {
        self.state.reg_read_checked(reg, idx)
    }

    fn reg_write(&mut self, reg: &str, idx: u64, val: u64) -> Result<()> {
        self.state.reg_write_checked(reg, idx, val)
    }

    fn counter_add(&mut self, counter: &str, pkts: u64, bytes: u64) {
        self.state.counter_add(counter, pkts, bytes);
    }

    fn counter_read(&mut self, counter: &str) -> u64 {
        self.state.counter_read(counter)
    }

    fn meter_check(&mut self, meter: &str, key: u64) -> bool {
        self.state.meter_check(meter, key)
    }

    fn invoke_service(&mut self, service: &str, args: &[u64]) {
        self.invocations.push((service.to_string(), args.to_vec()));
    }
}

/// SlotEnv adapter for the bytecode fast path: every access is a dense
/// vector index — no string hashing or name lookups on the packet path.
struct SlotDeviceEnv<'a> {
    tables: &'a TableSet,
    state: &'a mut DeviceState,
    /// Slot → service name (from the compiled image), only touched on the
    /// rare `invoke` statement.
    service_names: &'a [String],
    invocations: &'a mut Vec<(String, Vec<u64>)>,
}

impl SlotEnv for SlotDeviceEnv<'_> {
    fn table_lookup(&mut self, table: u16, keys: &[u64]) -> Option<(u16, &[u64])> {
        self.tables.by_slot(table)?.lookup_resolved(keys)
    }

    fn map_get(&mut self, map: u16, key: u64) -> Option<u64> {
        self.state.map_get_at(map, key)
    }

    fn map_put(&mut self, map: u16, key: u64, value: u64) -> Result<()> {
        self.state.map_put_at(map, key, value);
        Ok(())
    }

    fn map_del(&mut self, map: u16, key: u64) {
        self.state.map_del_at(map, key);
    }

    fn reg_read(&mut self, reg: u16, idx: u64) -> Result<u64> {
        self.state.reg_read_at_checked(reg, idx)
    }

    fn reg_write(&mut self, reg: u16, idx: u64, val: u64) -> Result<()> {
        self.state.reg_write_at_checked(reg, idx, val)
    }

    fn counter_add(&mut self, counter: u16, pkts: u64, bytes: u64) {
        self.state.counter_add_at(counter, pkts, bytes);
    }

    fn counter_read(&mut self, counter: u16) -> u64 {
        self.state.counter_read_at(counter)
    }

    fn meter_check(&mut self, meter: u16, key: u64) -> bool {
        self.state.meter_check_at(meter, key)
    }

    fn invoke_service(&mut self, service: u16, args: &[u64]) {
        let name = self
            .service_names
            .get(service as usize)
            .cloned()
            .unwrap_or_default();
        self.invocations.push((name, args.to_vec()));
    }
}

/// Which engine a device uses on its packet path. Both are semantically
/// identical (the differential suite proves verdict, op-count, and
/// state-effect equivalence); the interpreter remains as the executable
/// reference and for debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Walk the AST by name (the reference semantics).
    Interpreter,
    /// Execute the install-time compiled, slot-resolved image (default).
    #[default]
    Bytecode,
}

/// Per-device execution sandbox configuration: the gas budget every
/// packet is admitted with, and the trap-rate window that triggers
/// program quarantine.
///
/// Paper §3.1 requires FlexBPF programs be "analyzable to certify
/// bounded execution \[and\] well-behavedness" — but the static proof
/// is computed at install time, and runtime reconfiguration can
/// invalidate it (a shrunk register, a stale table entry). The sandbox
/// is the *runtime* enforcement backstop: every packet carries a gas
/// budget, every fault is a typed [`Trap`] converted into a fail-closed
/// drop, and a program whose trap rate crosses threshold is quarantined
/// — atomically swapped back to the device's last-known-good image (or
/// a transparent-forward default when there is none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SandboxConfig {
    /// Per-packet instruction budget, shared across recirculation
    /// passes. The verifier bounds one pass at 4096 ops; the default
    /// budget covers the worst verified pass through every allowed
    /// recirculation with headroom, so it only fires on programs whose
    /// static proof no longer holds.
    pub gas_limit: u64,
    /// Tumbling trap-accounting window, in packets.
    pub trap_window: u64,
    /// Quarantine when `traps / window ≥ threshold` (parts per million)
    /// within a window.
    pub trap_threshold_ppm: u64,
    /// Minimum packets observed in the current window before the rate
    /// test may fire (one early trap in a tiny window is noise).
    pub min_window: u64,
}

impl Default for SandboxConfig {
    fn default() -> SandboxConfig {
        SandboxConfig {
            gas_limit: 32_768,
            trap_window: 64,
            trap_threshold_ppm: 500_000,
            min_window: 16,
        }
    }
}

impl SandboxConfig {
    /// A sandbox with metering disabled (traps still fire; gas never
    /// exhausts). Used by benchmarks to measure metering overhead.
    pub fn unmetered() -> SandboxConfig {
        SandboxConfig {
            gas_limit: GAS_UNLIMITED,
            ..SandboxConfig::default()
        }
    }
}

/// The sandbox's tumbling trap-accounting window: packets and program
/// traps seen since it last rolled over.
#[derive(Debug, Clone, Copy, Default)]
struct TrapWindow {
    packets: u64,
    traps: u64,
}

impl TrapWindow {
    /// Counts one cleanly processed packet.
    fn clean(&mut self, cfg: &SandboxConfig) {
        self.packets += 1;
        self.roll(cfg);
    }

    /// Counts one trapped packet and returns the in-window trap rate in
    /// parts per million.
    fn trapped(&mut self) -> u64 {
        self.packets += 1;
        self.traps += 1;
        self.traps.saturating_mul(1_000_000) / self.packets
    }

    /// Starts a fresh window once `cfg.trap_window` packets were seen.
    fn roll(&mut self, cfg: &SandboxConfig) {
        if self.packets >= cfg.trap_window {
            *self = TrapWindow::default();
        }
    }
}

/// What happened to one packet at one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessResult {
    /// The final verdict.
    pub verdict: Verdict,
    /// Simulated processing latency at this device.
    pub latency: SimDuration,
    /// The program version that processed the packet.
    pub version: ProgramVersion,
    /// Interpreter ops executed.
    pub ops: u64,
    /// `true` when the device refused the packet (drained for a
    /// compile-time reflash) — the packet was lost, not processed.
    pub refused: bool,
    /// The trap that ended execution, when the packet trapped. The
    /// verdict is always [`Verdict::Drop`] in that case (fail closed).
    pub trap: Option<Trap>,
}

/// Per-frame outcome of [`Device::process_sealed_burst`], index-aligned
/// with the input frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Checksum and parse passed; the packet ran the installed program.
    Processed(ProcessResult),
    /// The end-to-end checksum failed: billed to
    /// [`DeviceStats::checksum_drops`] only — exactly this frame, no trap
    /// window involvement, burst neighbors untouched (the single-frame
    /// equivalent is the [`FlexError::ChecksumMismatch`] error return of
    /// [`Device::process_sealed_bytes`]).
    ChecksumDrop,
    /// Wire parse failed: a fail-closed drop billed to
    /// [`DeviceStats::parse_traps`], indicting the packet — never the
    /// program, so no quarantine pressure.
    ParseDrop(ProcessResult),
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Packets processed to a verdict.
    pub processed: u64,
    /// Packets refused while drained (compile-time baseline loss).
    pub refused: u64,
    /// Packets punted to the controller.
    pub punted: u64,
    /// Packets dropped because recirculation exceeded the bound.
    pub recirc_dropped: u64,
    /// Packets dropped by a program verdict. The data-path health
    /// signal piggybacked on heartbeats: a rising dropped/processed
    /// slope on a device that still heartbeats on time is the
    /// gray-failure signature.
    pub dropped: u64,
    /// Program execution traps (gas exhaustion, division by zero,
    /// out-of-bounds state, …). Each is also a `dropped` packet; the
    /// split lets the controller tell a policy drop from a fault drop.
    pub traps: u64,
    /// Wire-parse traps (malformed packet bytes). Counted separately
    /// because they indict the *packet*, never the program — parse
    /// traps do not feed the quarantine rate.
    pub parse_traps: u64,
    /// Times the trap-rate threshold fired and the device swapped the
    /// active program for its last-known-good image (or the
    /// transparent-forward default).
    pub quarantines: u64,
    /// Sealed frames dropped because their end-to-end checksum failed
    /// ([`crate::wire::open_frame`]): the fabric corrupted them in
    /// flight. Counted apart from both `parse_traps` and program traps —
    /// a corrupted frame indicts the *fabric*, so it never feeds any
    /// program's quarantine rate and never reaches the parser at all.
    pub checksum_drops: u64,
}

/// The wire admission step every byte-level entry shares: the checksum of
/// a `sealed` frame is verified before any byte is parsed, then the body is
/// parsed into a packet. A frame turned away comes back as the stage's own
/// typed error ([`FlexError::ChecksumMismatch`], or the parser's
/// [`Trap::MalformedPacket`]) for [`Device::bill`] to charge.
fn admit(bytes: &[u8], sealed: bool, id: u64) -> Result<Packet> {
    let body = if sealed {
        crate::wire::open_frame(bytes)?
    } else {
        bytes
    };
    crate::wire::parse_wire(body, id)
}

/// A runtime-programmable network device.
#[derive(Debug)]
pub struct Device {
    id: NodeId,
    allocator: ArchAllocator,
    cost: CostModel,
    encoding: StateEncoding,
    parser: ParserGraph,
    active: Option<InstalledProgram>,
    version: ProgramVersion,
    /// In-flight runtime reconfiguration (managed by `reconfig.rs`).
    pub(crate) pending: Option<crate::reconfig::PendingReconfig>,
    /// When non-`None`, the device refuses traffic until this instant
    /// (compile-time drain/reflash baseline).
    pub(crate) drained_until: Option<SimTime>,
    /// Whether the device is powered and reachable (fault injection).
    up: bool,
    /// Monotone incarnation counter, bumped on every restart. Reported in
    /// heartbeats so the controller can tell a device that *rebooted*
    /// (runtime state wiped — resync required) from one whose heartbeats
    /// were merely delayed (a blip — nothing to do). Stored with the
    /// program image, like `fence`, so it survives the restart it counts.
    boot_id: u64,
    /// Highest controller epoch this device has accepted (split-brain
    /// fencing; see `reconfig.rs`). Stored with the program image, so it
    /// survives crashes — a zombie coordinator stays fenced across the
    /// device's own restarts.
    pub(crate) fence: u64,
    /// Bounded record of recently absorbed control-command idempotency
    /// tokens (exactly-once semantics under a duplicating fabric).
    /// Stored with the program image, like `fence` and `boot_id`, so a
    /// duplicate delivered *after* a restart is still absorbed.
    recent_cmds: std::collections::VecDeque<u64>,
    stats: DeviceStats,
    invocations: Vec<(String, Vec<u64>)>,
    exec_mode: ExecMode,
    /// Execution sandbox configuration (gas budget, quarantine window).
    sandbox: SandboxConfig,
    /// The last program image that completed an install or a hitless
    /// flip without being quarantined — the image quarantine falls back
    /// to. After a flip it is the outgoing instance whole: its program
    /// with its state and entries as of the flip, copies of what the
    /// incoming program carried over. Boxed: it is touched only on
    /// install/flip/quarantine, never on the packet path.
    last_good: Option<Box<InstalledProgram>>,
    /// Sticky quarantine flag, reported in heartbeats. Cleared by the
    /// next successful install or hitless flip (a human or the
    /// controller shipped a replacement), never by time.
    quarantined: bool,
    /// The current trap-accounting window.
    window: TrapWindow,
    /// The most recent program trap (diagnostics; heartbeat detail).
    last_trap: Option<Trap>,
    /// Reusable VM frame storage: one set of stack/local/key/field buffers
    /// shared by every packet the device runs, so steady-state execution
    /// performs no heap allocations.
    vm: bytecode::VmScratch,
}

impl Device {
    /// Creates an empty device.
    pub fn new(id: NodeId, arch: Architecture, encoding: StateEncoding) -> Device {
        let cost = CostModel::for_arch(arch.class());
        Device {
            id,
            allocator: ArchAllocator::new(arch),
            cost,
            encoding,
            parser: ParserGraph::new(),
            active: None,
            version: ProgramVersion::INITIAL,
            pending: None,
            drained_until: None,
            up: true,
            boot_id: 1,
            fence: 0,
            recent_cmds: std::collections::VecDeque::new(),
            stats: DeviceStats::default(),
            invocations: Vec::new(),
            exec_mode: ExecMode::default(),
            sandbox: SandboxConfig::default(),
            last_good: None,
            quarantined: false,
            window: TrapWindow::default(),
            last_trap: None,
            vm: bytecode::VmScratch::new(),
        }
    }

    /// Selects the packet-path engine (bytecode by default).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The packet-path engine in use.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Replaces the sandbox configuration (gas budget, trap window).
    pub fn set_sandbox(&mut self, cfg: SandboxConfig) {
        self.sandbox = cfg;
        self.window = TrapWindow::default();
    }

    /// The sandbox configuration in force.
    pub fn sandbox(&self) -> SandboxConfig {
        self.sandbox
    }

    /// Whether the active program was quarantined (trap rate crossed
    /// threshold and the device fell back to its last-known-good image
    /// or the transparent default). Sticky until the next successful
    /// install or hitless flip; reported in heartbeats.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// The most recent program trap, if any (diagnostics).
    pub fn last_trap(&self) -> Option<&Trap> {
        self.last_trap.as_ref()
    }

    /// The device id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The architecture class.
    pub fn arch_class(&self) -> ArchClass {
        self.allocator.arch().class()
    }

    /// The architecture instance.
    pub fn architecture(&self) -> &Architecture {
        self.allocator.arch()
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The state encoding this device uses.
    pub fn encoding(&self) -> StateEncoding {
        self.encoding
    }

    /// The allocator (placement state).
    pub fn allocator(&self) -> &ArchAllocator {
        &self.allocator
    }

    /// Mutable allocator access (used by the fungible compiler to
    /// tentatively reshuffle placements).
    pub fn allocator_mut(&mut self) -> &mut ArchAllocator {
        &mut self.allocator
    }

    /// The current program version.
    pub fn version(&self) -> ProgramVersion {
        self.version
    }

    pub(crate) fn bump_version(&mut self) {
        self.version = self.version.next();
    }

    /// The installed program, if any.
    pub fn program(&self) -> Option<&InstalledProgram> {
        self.active.as_ref()
    }

    /// Mutable access to the installed program (controller-side table entry
    /// and state manipulation).
    pub fn program_mut(&mut self) -> Option<&mut InstalledProgram> {
        self.active.as_mut()
    }

    pub(crate) fn take_active(&mut self) -> Option<InstalledProgram> {
        self.active.take()
    }

    pub(crate) fn set_active(&mut self, p: InstalledProgram) {
        self.active = Some(p);
    }

    /// The parser graph.
    pub fn parser(&self) -> &ParserGraph {
        &self.parser
    }

    pub(crate) fn parser_mut(&mut self) -> &mut ParserGraph {
        &mut self.parser
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    // -- exactly-once command absorption --------------------------------------

    /// Absorbs a control command's idempotency `token`: the first
    /// delivery records it and returns `Ok(())` (apply the command); any
    /// replay within the window returns [`FlexError::StaleDuplicate`]
    /// (acknowledge, do **not** reapply).
    ///
    /// The window is bounded at [`DEDUP_WINDOW`] tokens — a dup-flood
    /// cannot grow device memory — and persists across crash/restart
    /// like `fence` and `boot_id`, so a duplicate that arrives after the
    /// device rebooted is still absorbed exactly once.
    pub fn absorb_command(&mut self, token: u64) -> Result<()> {
        self.ensure_up()?;
        if self.recent_cmds.contains(&token) {
            return Err(FlexError::StaleDuplicate { token });
        }
        if self.recent_cmds.len() >= DEDUP_WINDOW {
            self.recent_cmds.pop_front();
        }
        self.recent_cmds.push_back(token);
        Ok(())
    }

    /// Whether `token` is inside the dedup window (a replay would be
    /// absorbed rather than reapplied).
    pub fn seen_command(&self, token: u64) -> bool {
        self.recent_cmds.contains(&token)
    }

    /// Tokens currently held by the dedup window (bounded by
    /// [`DEDUP_WINDOW`]).
    pub fn dedup_len(&self) -> usize {
        self.recent_cmds.len()
    }

    /// Drains recorded dRPC invocations.
    pub fn take_invocations(&mut self) -> Vec<(String, Vec<u64>)> {
        std::mem::take(&mut self.invocations)
    }

    // -- fault lifecycle ------------------------------------------------------

    /// Whether the device is powered and reachable.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The current incarnation: 1 for the first boot, +1 per restart.
    pub fn boot_id(&self) -> u64 {
        self.boot_id
    }

    /// Content digest of the running configuration (program + entries),
    /// or [`EMPTY_CONFIG_DIGEST`] with no program installed. Piggybacked
    /// on heartbeats for divergence detection. Equals
    /// [`crate::config_digest_of`] over the installed bundle and entries.
    pub fn config_digest(&self) -> u64 {
        self.active
            .as_ref()
            .map_or(EMPTY_CONFIG_DIGEST, InstalledProgram::config_digest)
    }

    /// Errors with [`FlexError::Unavailable`] when the device is down.
    pub(crate) fn ensure_up(&self) -> Result<()> {
        if self.up {
            Ok(())
        } else {
            Err(FlexError::Unavailable(format!("device {} is down", self.id)))
        }
    }

    /// Crashes the device: it stops serving traffic and control commands.
    ///
    /// An in-flight reconfiguration is lost with the device's volatile
    /// memory — its shadow program is discarded and the pre-reconfig
    /// placement and parser are restored, so accounting matches the
    /// (persistent) active program the device reboots into.
    pub fn crash(&mut self, now: SimTime) {
        if self.pending.is_some() {
            let _ = self.abort_reconfig(now);
        }
        self.up = false;
    }

    /// Restarts a crashed device.
    ///
    /// The active program image survives (it is flashed), but all runtime
    /// state is wiped: counters, registers, maps, and control-plane table
    /// entries reset to their declared initial values. The program version
    /// advances — packets can observe that they crossed an incarnation —
    /// and the monotone `boot_id` rises, so the controller's failure
    /// detector can distinguish this restart from a heartbeat blip and
    /// trigger a resync.
    pub fn restart(&mut self, _now: SimTime) -> Result<()> {
        if self.up {
            return Err(FlexError::Sim(format!(
                "device {} is already up",
                self.id
            )));
        }
        self.up = true;
        self.drained_until = None;
        if let Some(p) = self.active.as_mut() {
            p.reset_runtime(self.encoding);
        }
        self.version = self.version.next();
        self.boot_id += 1;
        Ok(())
    }

    // -- installation ---------------------------------------------------------

    /// Installs a program from scratch (initial deployment or reflash),
    /// allocating resources for every element. A sealed image is not
    /// checked again; what is per-device — kind support, resource
    /// admission, the parser graph, symbol resolution — always runs.
    pub fn install(&mut self, target: impl SealTarget) -> Result<()> {
        self.ensure_up()?;
        let installed = InstalledProgram::new(target, self.encoding)?;
        let kind = installed.bundle().program.kind;
        if !self.allocator.arch().supports(kind) {
            return Err(FlexError::Compile(format!(
                "program kind `{kind}` not supported on {} device {}",
                self.arch_class(),
                self.id
            )));
        }
        // Release any previous placement.
        let old_placed: Vec<String> = self.allocator.placed().map(str::to_string).collect();
        for name in old_placed {
            let _ = self.allocator.free(&name);
        }
        self.parser = ParserGraph::new();

        self.place_elements(&installed)?;
        for h in &installed.bundle().headers {
            self.parser.add_state(h)?;
        }
        // The outgoing program becomes the quarantine fallback — unless
        // the device is quarantined, in which case the outgoing program
        // *is* the suspect (or already the fallback) and must not be
        // re-stashed as known-good. A fresh install always lifts
        // quarantine: the controller shipped a replacement.
        if let Some(prev) = self.active.take() {
            if !self.quarantined {
                self.last_good = Some(Box::new(prev));
            }
        }
        self.quarantined = false;
        self.window = TrapWindow::default();
        self.active = Some(installed);
        self.version = self.version.next();
        Ok(())
    }

    /// Called by the reconfiguration engine when a hitless flip commits:
    /// the outgoing image becomes the quarantine fallback, and any
    /// quarantine is lifted (a replacement program shipped).
    pub(crate) fn note_flip_committed(&mut self, outgoing: Option<InstalledProgram>) {
        if let Some(prev) = outgoing {
            if !self.quarantined {
                self.last_good = Some(Box::new(prev));
            }
        }
        self.quarantined = false;
        self.window = TrapWindow::default();
    }

    /// Allocates every element of `installed`, applying monotone stage
    /// ordering for tables on RMT (tables applied later may not sit in an
    /// earlier stage than their predecessors).
    fn place_elements(&mut self, installed: &InstalledProgram) -> Result<()> {
        let (bundle, registry) = installed.code.parts();
        let elements = program_elements(&bundle.program, &bundle.headers, registry);
        // Determine table application order from handlers.
        let mut apply_order: Vec<String> = Vec::new();
        for h in &bundle.program.handlers {
            collect_applies(&h.body, &mut apply_order);
        }
        let mut last_stage = 0usize;
        let mut placed: Vec<String> = Vec::new();
        let result = (|| {
            for e in &elements {
                let min_stage = if e.kind == flexnet_lang::ir::ElementKind::Table
                    && apply_order.contains(&e.name)
                {
                    last_stage
                } else {
                    0
                };
                let loc = self.allocator.alloc(&e.name, &e.demand, min_stage)?;
                placed.push(e.name.clone());
                if let (crate::arch::Location::Stage(s), true) = (
                    loc,
                    e.kind == flexnet_lang::ir::ElementKind::Table
                        && apply_order.contains(&e.name),
                ) {
                    last_stage = s;
                }
            }
            Ok(())
        })();
        if result.is_err() {
            for name in placed {
                let _ = self.allocator.free(&name);
            }
        }
        result
    }

    /// Used resources (architecture kinds), including the parser.
    pub fn used(&self) -> ResourceVec {
        let mut u = self.allocator.used();
        u += self.parser.used();
        u
    }

    /// Total capacity (architecture kinds).
    pub fn capacity(&self) -> ResourceVec {
        self.allocator.arch().capacity()
    }

    /// Max-component utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.used().utilization_of(&self.capacity())
    }

    // -- control-plane entry management ---------------------------------------

    /// Installs a table entry.
    pub fn add_entry(&mut self, table: &str, entry: TableEntry) -> Result<()> {
        self.ensure_up()?;
        let p = self
            .active
            .as_mut()
            .ok_or_else(|| FlexError::NotFound("no program installed".into()))?;
        p.tables
            .get_mut(table)
            .ok_or_else(|| FlexError::NotFound(format!("table `{table}`")))?
            .insert(entry)
    }

    /// Removes table entries matching the given key matches.
    pub fn remove_entry(&mut self, table: &str, matches: &[crate::table::KeyMatch]) -> Result<usize> {
        self.ensure_up()?;
        let p = self
            .active
            .as_mut()
            .ok_or_else(|| FlexError::NotFound("no program installed".into()))?;
        Ok(p.tables
            .get_mut(table)
            .ok_or_else(|| FlexError::NotFound(format!("table `{table}`")))?
            .remove(matches))
    }

    /// Snapshots the installed program's logical state.
    pub fn snapshot_state(&self) -> Option<LogicalState> {
        self.active.as_ref().map(|p| p.state.snapshot())
    }

    /// Restores a logical state snapshot into the installed program.
    pub fn restore_state(&mut self, state: &LogicalState) -> Result<()> {
        let p = self
            .active
            .as_mut()
            .ok_or_else(|| FlexError::NotFound("no program installed".into()))?;
        p.state.restore(state);
        Ok(())
    }

    // -- packet processing ------------------------------------------------------

    /// Processes one packet at simulated time `now` — a burst of one.
    pub fn process(&mut self, pkt: &mut Packet, now: SimTime) -> Result<ProcessResult> {
        self.ensure_up()?;
        self.run_one(pkt, now)
    }

    /// Processes a burst of packets at simulated time `now`, writing one
    /// [`ProcessResult`] per packet — input order, index-aligned — into
    /// `out` (cleared first, capacity reused).
    ///
    /// Every packet goes through the same per-packet body as
    /// [`Device::process`], so a burst is observably a `process` call per
    /// packet in order at the same `now`: verdicts, op counts, gas traps,
    /// recirculation limits, trap-window accounting, and quarantine
    /// (including a mid-burst quarantine swapping the active image for the
    /// *remainder* of the burst) all bill the exact packet that incurred
    /// them. What the burst form pays once per run instead of once per
    /// packet is the drain/commit preamble — the whole burst shares one
    /// `now` — and opening the run (image check, handler-entry resolution).
    ///
    /// On `Err` (device down, image corrupt) `out` holds results only for
    /// the packets completed before the failure.
    pub fn process_burst(
        &mut self,
        pkts: &mut [Packet],
        now: SimTime,
        out: &mut Vec<ProcessResult>,
    ) -> Result<()> {
        out.clear();
        self.ensure_up()?;
        self.run_burst(pkts, now, |r| out.push(r))
    }

    /// Parses raw wire bytes into a packet and processes it.
    ///
    /// The poison-packet entry point: bytes that fail wire parsing
    /// produce a typed [`Trap::MalformedPacket`] and a fail-closed drop
    /// — never a panic, and never a quarantine (parse traps indict the
    /// packet, not the program, so they are accounted separately).
    pub fn process_bytes(&mut self, bytes: &[u8], id: u64, now: SimTime) -> Result<ProcessResult> {
        self.process_frame(bytes, false, id, now)
    }

    /// Verifies a sealed frame's end-to-end checksum, then parses and
    /// processes the body.
    ///
    /// The adversarial-fabric entry point: a frame corrupted in flight
    /// fails [`crate::wire::open_frame`] *before* the parser or any
    /// program sees a byte. The drop is counted in
    /// [`DeviceStats::checksum_drops`] only — it is neither a parse trap
    /// nor a program trap, touches no trap window, and can never push
    /// any tenant's program toward quarantine. The caller sees the typed
    /// [`FlexError::ChecksumMismatch`] so transport-layer retry/breaker
    /// machinery reacts, not program-fault accounting.
    pub fn process_sealed_bytes(
        &mut self,
        sealed: &[u8],
        id: u64,
        now: SimTime,
    ) -> Result<ProcessResult> {
        self.process_frame(sealed, true, id, now)
    }

    /// Verifies, parses, and processes a burst of sealed frames, writing
    /// one [`FrameOutcome`] per frame (input order, index-aligned) into
    /// `out`; packets that survive admission are left, post-processing,
    /// in `pkts` (in outcome order, `Processed` entries only). Both are
    /// cleared first and keep their capacity.
    ///
    /// Billing is per-offender, exactly as the single-frame entry points
    /// bill: a corrupted frame counts one `checksum_drops` and nothing
    /// else; a malformed body counts one `parse_traps` + one `dropped`
    /// and never feeds any trap window; neighbors in the burst are
    /// processed as if the poison frame had arrived alone between them.
    /// Admitted packets are parsed straight into `pkts` and run as
    /// sub-slices of it *flushed in arrival order around each poison
    /// frame*, so quarantine/version interleaving matches the equivalent
    /// single-frame call sequence.
    pub fn process_sealed_burst(
        &mut self,
        frames: &[Vec<u8>],
        first_id: u64,
        now: SimTime,
        pkts: &mut Vec<Packet>,
        out: &mut Vec<FrameOutcome>,
    ) -> Result<()> {
        out.clear();
        pkts.clear();
        self.ensure_up()?;
        let mut flushed = 0;
        for (k, sealed) in frames.iter().enumerate() {
            match admit(sealed, true, first_id + k as u64) {
                Ok(pkt) => pkts.push(pkt),
                Err(poison) => {
                    self.run_burst(&mut pkts[flushed..], now, |r| {
                        out.push(FrameOutcome::Processed(r))
                    })?;
                    flushed = pkts.len();
                    out.push(match self.bill(poison) {
                        Ok(r) => FrameOutcome::ParseDrop(r),
                        Err(FlexError::ChecksumMismatch { .. }) => FrameOutcome::ChecksumDrop,
                        Err(e) => return Err(e),
                    });
                }
            }
        }
        self.run_burst(&mut pkts[flushed..], now, |r| {
            out.push(FrameOutcome::Processed(r))
        })
    }

    /// The single-frame wire entry: one up-check, [`admit`], then the
    /// packet processed or the poison billed.
    fn process_frame(
        &mut self,
        bytes: &[u8],
        sealed: bool,
        id: u64,
        now: SimTime,
    ) -> Result<ProcessResult> {
        self.ensure_up()?;
        match admit(bytes, sealed, id) {
            Ok(mut pkt) => self.run_one(&mut pkt, now),
            Err(poison) => self.bill(poison),
        }
    }

    /// A burst of one behind the up-check, its result returned.
    fn run_one(&mut self, pkt: &mut Packet, now: SimTime) -> Result<ProcessResult> {
        let mut result = None;
        self.run_burst(std::slice::from_mut(pkt), now, |r| result = Some(r))?;
        Ok(result.expect("a burst of one packet yields one result"))
    }

    /// The one packet loop, behind the up-check: preamble, then every
    /// packet through the per-packet body, each result handed to `sink`
    /// in input order.
    ///
    /// Packets execute in *runs*: maximal stretches of consecutive packets
    /// handled by the same installed image, with the engine [`ExecMode`]
    /// selects resolved once per run. A program trap closes the run,
    /// because its accounting ([`Device::note_program_trap`]) may
    /// quarantine the image and swap in the last-known-good fallback; the
    /// next run then opens on whatever is active, so trap accounting
    /// always lands between packets, never retroactively on a neighbor.
    fn run_burst(
        &mut self,
        pkts: &mut [Packet],
        now: SimTime,
        mut sink: impl FnMut(ProcessResult),
    ) -> Result<()> {
        if self.draining(now) {
            pkts.iter().for_each(|_| sink(self.refuse()));
            return Ok(());
        }
        let mut rest = pkts.iter_mut();
        while rest.len() > 0 {
            let version = self.version;
            let Some(active) = self.active.as_mut() else {
                // No program: transparent default forwarding for the rest
                // of the burst (only the control plane installs images, so
                // none can appear mid-burst).
                for pkt in rest {
                    self.stats.processed += 1;
                    pkt.record_processing(self.id, version);
                    sink(ProcessResult {
                        verdict: Verdict::Forward(DEFAULT_PORT),
                        latency: self.cost.base_latency,
                        version,
                        ops: 0,
                        refused: false,
                        trap: None,
                    });
                }
                return Ok(());
            };

            active.state.now = now;
            // Resolved once per run; the reference interpreter walks the AST
            // and needs neither.
            let image = match self.exec_mode {
                ExecMode::Interpreter => None,
                ExecMode::Bytecode => {
                    if active.compiled.is_none() {
                        active.recompile()?;
                    }
                    let image = active.compiled.as_deref().ok_or(Trap::CorruptImage {
                        reason: "bytecode image missing after rebuild",
                    })?;
                    let entry = image
                        .handler_entry("ingress")
                        .ok_or_else(|| FlexError::NotFound("handler `ingress`".into()))?;
                    Some((image, entry))
                }
            };
            let (code, tables, state) = (&active.code, &active.tables, &mut active.state);

            // At most one trapped packet per run — the trap ends it.
            let mut run_trap = None;
            for pkt in rest.by_ref() {
                let hidden = self.parser.strip_invisible(pkt);
                let mut ops = 0u64;
                let mut passes = 0u32;
                let (verdict, trap) = loop {
                    // Gas is a *per-packet* budget: recirculated passes run
                    // on whatever the earlier passes left.
                    let gas = self.sandbox.gas_limit.saturating_sub(ops);
                    // The engine is the body's only varying part.
                    let outcome = match image {
                        Some((image, entry)) => {
                            // The concrete env type monomorphizes state
                            // access inside the VM — no vtable dispatch.
                            let mut env = SlotDeviceEnv {
                                tables,
                                state,
                                service_names: &image.service_names,
                                invocations: &mut self.invocations,
                            };
                            let vm = &mut self.vm;
                            bytecode::execute_compiled(image, entry, pkt, &mut env, gas, vm)?
                        }
                        None => {
                            let (bundle, registry) = code.parts();
                            let program = &bundle.program;
                            let mut env = DeviceEnv {
                                tables,
                                state,
                                invocations: &mut self.invocations,
                            };
                            execute_metered(program, "ingress", pkt, &mut env, registry, gas)?
                        }
                    };
                    ops += outcome.ops;
                    if outcome.trap.is_some() {
                        // Fail closed: a trapped packet is dropped, never
                        // forwarded on a half-executed pipeline.
                        break (Verdict::Drop, outcome.trap);
                    }
                    let verdict = outcome
                        .verdict
                        .unwrap_or(Verdict::Forward(DEFAULT_PORT));
                    if verdict != Verdict::Recirculate {
                        break (verdict, None);
                    }
                    passes += 1;
                    if passes > MAX_RECIRCULATIONS {
                        self.stats.recirc_dropped += 1;
                        break (Verdict::Drop, None);
                    }
                };
                self.parser.reattach(pkt, hidden);
                pkt.record_processing(self.id, version);
                self.stats.processed += 1;
                if verdict == Verdict::ToController {
                    self.stats.punted += 1;
                }
                if verdict == Verdict::Drop {
                    self.stats.dropped += 1;
                }
                sink(ProcessResult {
                    verdict,
                    latency: self.cost.packet_latency(ops),
                    version,
                    ops,
                    refused: false,
                    trap: trap.clone(),
                });
                match trap {
                    Some(t) => {
                        run_trap = Some(t);
                        break;
                    }
                    None => self.window.clean(&self.sandbox),
                }
            }
            if let Some(t) = run_trap {
                // The run's borrows are released here, so trap accounting
                // may quarantine and swap the active image before the next
                // run opens.
                self.note_program_trap(t, now);
            }
        }
        Ok(())
    }

    /// The time-dependent preamble of every packet entry: commits a
    /// reconfiguration whose transition completed, then reports whether the
    /// device is still drained at `now` (a drain that ran out is lifted).
    fn draining(&mut self, now: SimTime) -> bool {
        crate::reconfig::commit_if_ready(self, now);
        match self.drained_until {
            Some(until) if now < until => true,
            _ => {
                self.drained_until = None;
                false
            }
        }
    }

    /// Refuses one packet of a drained device: lost, not processed.
    fn refuse(&mut self) -> ProcessResult {
        self.stats.refused += 1;
        ProcessResult {
            verdict: Verdict::Drop,
            latency: SimDuration::ZERO,
            version: self.version,
            ops: 0,
            refused: true,
            trap: None,
        }
    }

    /// Bills a frame [`admit`] turned away to exactly that frame. A malformed
    /// body is the packet's fault: a fail-closed drop at the device's current
    /// version that feeds no trap window. A corrupted frame is the fabric's:
    /// counted, and handed back as the typed error it is.
    fn bill(&mut self, poison: FlexError) -> Result<ProcessResult> {
        match poison {
            FlexError::Trap(t) => {
                self.stats.parse_traps += 1;
                self.stats.dropped += 1;
                Ok(ProcessResult {
                    verdict: Verdict::Drop,
                    latency: self.cost.base_latency,
                    version: self.version,
                    ops: 0,
                    refused: false,
                    trap: Some(t),
                })
            }
            corrupt @ FlexError::ChecksumMismatch { .. } => {
                self.stats.checksum_drops += 1;
                Err(corrupt)
            }
            codec_failure => Err(codec_failure),
        }
    }

    /// Read access to a table of the active program (used by the egress
    /// scheduler's table classifier and diagnostics).
    pub fn table(&self, name: &str) -> Option<&crate::table::TableInstance> {
        self.active.as_ref()?.tables.get(name)
    }

    /// Trap-window accounting for one trapped packet; quarantines the
    /// program when the in-window trap rate crosses threshold.
    fn note_program_trap(&mut self, trap: Trap, now: SimTime) {
        self.stats.traps += 1;
        self.last_trap = Some(trap);
        let rate_ppm = self.window.trapped();
        if !self.quarantined
            && self.window.packets >= self.sandbox.min_window
            && rate_ppm >= self.sandbox.trap_threshold_ppm
        {
            self.quarantine_now(now);
        } else {
            self.window.roll(&self.sandbox);
        }
    }

    /// Quarantines the active program: atomically swaps in the
    /// last-known-good image (or the transparent-forward default when
    /// none is stashed) and sets the sticky `quarantined` flag that
    /// heartbeats report to the controller.
    fn quarantine_now(&mut self, now: SimTime) {
        // A quarantine mid-reconfiguration also condemns the in-flight
        // transition — the shadow belongs to the same suspect push.
        if self.pending.is_some() {
            let _ = self.abort_reconfig(now);
        }
        self.stats.quarantines += 1;
        self.quarantined = true;
        self.window = TrapWindow::default();
        self.active = self.last_good.take().map(|good| *good);
        self.version = self.version.next();
    }
}

/// Collects table names in `apply` order.
fn collect_applies(block: &[flexnet_lang::ast::Stmt], out: &mut Vec<String>) {
    use flexnet_lang::ast::Stmt;
    for s in block {
        match s {
            Stmt::Apply(t) if !out.contains(t) => out.push(t.clone()),
            Stmt::If(_, a, b) => {
                collect_applies(a, out);
                collect_applies(b, out);
            }
            Stmt::Repeat(_, b) => collect_applies(b, out),
            _ => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config_digest_of;
    use flexnet_lang::parser::parse_source;

    pub(crate) fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn fw_bundle() -> ProgramBundle {
        bundle(
            "program fw kind any {
               map blocked : map<u32, u8>[64];
               counter hits;
               table acl {
                 key { ipv4.src : exact; }
                 action deny() { count(hits); drop(); }
                 action allow(port: u16) { forward(port); }
                 default allow(1);
                 size 16;
               }
               handler ingress(pkt) {
                 if (map_get(blocked, ipv4.src) == 1) { drop(); }
                 apply acl;
                 forward(1);
               }
             }",
        )
    }

    fn new_dev() -> Device {
        Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        )
    }

    #[test]
    fn install_and_process_default_allow() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        let mut pkt = Packet::tcp(1, 10, 20, 1, 80, 0);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Forward(1));
        assert!(!r.refused);
        assert!(r.latency >= d.cost_model().base_latency);
        assert_eq!(pkt.trace.len(), 1);
        assert_eq!(d.stats().processed, 1);
    }

    #[test]
    fn entries_change_behavior() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        d.add_entry(
            "acl",
            TableEntry::exact(
                &[99],
                ActionCall {
                    action: "deny".into(),
                    args: vec![],
                },
            ),
        )
        .unwrap();
        let mut pkt = Packet::tcp(1, 99, 20, 1, 80, 0);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Drop);
        assert_eq!(d.program().unwrap().state.counter_read("hits"), 1);
        // Removing the entry restores the default.
        let n = d
            .remove_entry("acl", &[crate::table::KeyMatch::Exact(99)])
            .unwrap();
        assert_eq!(n, 1);
        let mut pkt2 = Packet::tcp(2, 99, 20, 1, 80, 0);
        assert_eq!(
            d.process(&mut pkt2, SimTime::ZERO).unwrap().verdict,
            Verdict::Forward(1)
        );
    }

    #[test]
    fn map_state_drives_drop() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        d.program_mut()
            .unwrap()
            .state
            .map_put("blocked", 77, 1)
            .unwrap();
        let mut pkt = Packet::tcp(1, 77, 20, 1, 80, 0);
        assert_eq!(
            d.process(&mut pkt, SimTime::ZERO).unwrap().verdict,
            Verdict::Drop
        );
    }

    #[test]
    fn empty_device_forwards_on_default_port() {
        let mut d = new_dev();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Forward(DEFAULT_PORT));
    }

    #[test]
    fn unsupported_kind_rejected() {
        let mut d = Device::new(
            NodeId(2),
            Architecture::smartnic_default(),
            StateEncoding::StatefulTable,
        );
        let b = bundle("program p kind switch { handler ingress(pkt) { forward(1); } }");
        assert!(d.install(b).is_err());
    }

    #[test]
    fn install_rolls_back_on_resource_failure() {
        let mut d = Device::new(
            NodeId(3),
            Architecture::Rmt {
                stages: 1,
                per_stage: ResourceVec::of(flexnet_types::ResourceKind::SramKb, 1),
            },
            StateEncoding::StatefulTable,
        );
        // Demands far more than 1 KiB of SRAM.
        let b = bundle(
            "program p kind any {
               table t { key { ipv4.src : exact; } size 65536; }
               handler ingress(pkt) { apply t; forward(1); }
             }",
        );
        assert!(d.install(b).is_err());
        assert_eq!(d.allocator().placed().count(), 0, "rollback must free all");
        assert!(d.program().is_none());
    }

    #[test]
    fn recirculation_bounded() {
        let mut d = new_dev();
        d.install(bundle(
            "program loopy kind any { handler ingress(pkt) { recirculate(); } }",
        ))
        .unwrap();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Drop);
        assert_eq!(d.stats().recirc_dropped, 1);
        assert!(r.ops > 0);
    }

    #[test]
    fn punt_counted() {
        let mut d = new_dev();
        d.install(bundle(
            "program p kind any { handler ingress(pkt) { punt(); } }",
        ))
        .unwrap();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::ToController);
        assert_eq!(d.stats().punted, 1);
    }

    #[test]
    fn invocations_drained() {
        let mut d = new_dev();
        d.install(bundle(
            "program p kind any {
               service require mig(dst: u32);
               handler ingress(pkt) { invoke mig(5); forward(1); }
             }",
        ))
        .unwrap();
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(d.take_invocations(), vec![("mig".to_string(), vec![5])]);
        assert!(d.take_invocations().is_empty());
    }

    #[test]
    fn snapshot_and_restore_roundtrip() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        d.program_mut()
            .unwrap()
            .state
            .map_put("blocked", 5, 1)
            .unwrap();
        let snap = d.snapshot_state().unwrap();

        let mut d2 = new_dev();
        d2.install(fw_bundle()).unwrap();
        d2.restore_state(&snap).unwrap();
        assert_eq!(d2.program_mut().unwrap().state.map_get("blocked", 5), Some(1));
    }

    #[test]
    fn reinstall_replaces_placement() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        let used_before = d.used();
        assert!(!used_before.is_zero());
        d.install(bundle(
            "program tiny kind any { handler ingress(pkt) { forward(1); } }",
        ))
        .unwrap();
        assert!(
            used_before.covers(&d.used()) && d.used() != used_before,
            "smaller program must use fewer resources"
        );
        assert_eq!(d.version(), ProgramVersion(2));
    }

    #[test]
    fn digest_tracks_program_and_entries_only() {
        let mut d = new_dev();
        assert_eq!(d.config_digest(), EMPTY_CONFIG_DIGEST, "no program yet");
        d.install(fw_bundle()).unwrap();
        let base = d.config_digest();
        assert_ne!(base, EMPTY_CONFIG_DIGEST);

        // Volatile state does not move the digest...
        d.program_mut().unwrap().state.map_put("blocked", 7, 1).unwrap();
        let mut pkt = Packet::tcp(1, 10, 20, 1, 80, 0);
        d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(d.config_digest(), base, "counters/maps are not config");

        // ...but an installed entry does, and removing it restores it.
        let entry = TableEntry::exact(
            &[99],
            ActionCall {
                action: "deny".into(),
                args: vec![],
            },
        );
        d.add_entry("acl", entry.clone()).unwrap();
        let with_entry = d.config_digest();
        assert_ne!(with_entry, base);
        d.remove_entry("acl", &[crate::table::KeyMatch::Exact(99)])
            .unwrap();
        assert_eq!(d.config_digest(), base);

        // An identical device computes the identical digest, and the
        // free function agrees with the device's own fold.
        let mut d2 = new_dev();
        d2.install(fw_bundle()).unwrap();
        assert_eq!(d2.config_digest(), base);
        d2.add_entry("acl", entry.clone()).unwrap();
        assert_eq!(d2.config_digest(), with_entry);
        assert_eq!(
            config_digest_of(&fw_bundle(), &[("acl".to_string(), entry)]),
            with_entry,
            "controller-side digest over (bundle, entries) matches the device"
        );
    }

    #[test]
    fn digest_is_entry_order_insensitive() {
        let allow = |port: u64| ActionCall {
            action: "allow".into(),
            args: vec![port],
        };
        let a = ("acl".to_string(), TableEntry::exact(&[1], allow(2)));
        let b = ("acl".to_string(), TableEntry::exact(&[3], allow(4)));
        assert_eq!(
            config_digest_of(&fw_bundle(), &[a.clone(), b.clone()]),
            config_digest_of(&fw_bundle(), &[b, a]),
            "install order must not change the digest"
        );
    }

    #[test]
    fn restart_bumps_boot_id_and_reverts_digest_to_program_only() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        let program_only = d.config_digest();
        d.add_entry(
            "acl",
            TableEntry::exact(
                &[99],
                ActionCall {
                    action: "deny".into(),
                    args: vec![],
                },
            ),
        )
        .unwrap();
        assert_eq!(d.boot_id(), 1);
        d.crash(SimTime::from_secs(1));
        d.restart(SimTime::from_secs(2)).unwrap();
        assert_eq!(d.boot_id(), 2, "restart advances the incarnation");
        assert_eq!(
            d.config_digest(),
            program_only,
            "entries are wiped: the digest reveals the divergence"
        );
        // A never-provisioned device restarts cleanly too.
        let mut empty = new_dev();
        empty.crash(SimTime::from_secs(1));
        empty.restart(SimTime::from_secs(2)).unwrap();
        assert_eq!(empty.boot_id(), 2);
        assert_eq!(empty.config_digest(), EMPTY_CONFIG_DIGEST);
    }

    #[test]
    fn exec_modes_agree_on_verdict_ops_and_state() {
        let mk = |mode: ExecMode| {
            let mut d = new_dev();
            d.set_exec_mode(mode);
            d.install(fw_bundle()).unwrap();
            d.add_entry(
                "acl",
                TableEntry::exact(
                    &[99],
                    ActionCall {
                        action: "deny".into(),
                        args: vec![],
                    },
                ),
            )
            .unwrap();
            d.program_mut().unwrap().state.map_put("blocked", 7, 1).unwrap();
            d
        };
        let mut interp = mk(ExecMode::Interpreter);
        let mut byte = mk(ExecMode::Bytecode);
        for (id, src) in [(1u64, 99u32), (2, 7), (3, 10)] {
            let mut pa = Packet::tcp(id, src, 20, 1, 80, 0);
            let mut pb = pa.clone();
            let ra = interp.process(&mut pa, SimTime::ZERO).unwrap();
            let rb = byte.process(&mut pb, SimTime::ZERO).unwrap();
            assert_eq!(ra.verdict, rb.verdict, "src {src}");
            assert_eq!(ra.ops, rb.ops, "src {src}");
            assert_eq!(ra.latency, rb.latency, "src {src}");
            assert_eq!(pa, pb, "src {src}");
        }
        assert_eq!(interp.snapshot_state(), byte.snapshot_state());
        assert_eq!(interp.stats(), byte.stats());
    }

    #[test]
    fn bytecode_image_survives_restart_and_reconfig_ops() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        assert!(d.program().unwrap().compiled().is_some(), "eager at install");
        // A structural op drops the image; the next packet rebuilds it.
        d.program_mut()
            .unwrap()
            .apply_op(&ReconfigOp::AddState(flexnet_lang::ast::StateDecl {
                name: "extra".into(),
                kind: flexnet_lang::ast::StateKind::Counter,
                size: 1,
            }.into()))
            .unwrap();
        assert!(d.program().unwrap().compiled().is_none(), "invalidated");
        let mut pkt = Packet::tcp(1, 10, 20, 1, 80, 0);
        assert_eq!(
            d.process(&mut pkt, SimTime::ZERO).unwrap().verdict,
            Verdict::Forward(1)
        );
        assert!(d.program().unwrap().compiled().is_some(), "lazily rebuilt");
        // Restart wipes structures; processing works immediately after.
        d.crash(SimTime::from_secs(1));
        d.restart(SimTime::from_secs(2)).unwrap();
        let mut pkt2 = Packet::tcp(2, 10, 20, 1, 80, 0);
        assert_eq!(
            d.process(&mut pkt2, SimTime::from_secs(3)).unwrap().verdict,
            Verdict::Forward(1)
        );
    }

    /// A verified program that divides by a map value — 0 for every
    /// packet whose src is not in the map, so every packet traps.
    fn trapping_bundle() -> ProgramBundle {
        bundle(
            "program bad kind any {
               map d : map<u32, u32>[64];
               handler ingress(pkt) {
                 let x = 1000 / map_get(d, ipv4.src);
                 forward(1);
               }
             }",
        )
    }

    #[test]
    fn gas_exhaustion_drops_and_counts_in_both_modes() {
        for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
            let mut d = new_dev();
            d.set_exec_mode(mode);
            d.install(fw_bundle()).unwrap();
            d.set_sandbox(SandboxConfig {
                gas_limit: 3, // far below the handler's cost
                ..SandboxConfig::default()
            });
            let mut pkt = Packet::tcp(1, 10, 20, 1, 80, 0);
            let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
            assert_eq!(r.verdict, Verdict::Drop, "{mode:?}: fail closed");
            assert_eq!(r.trap, Some(Trap::GasExhausted { limit: 3 }), "{mode:?}");
            assert_eq!(d.stats().traps, 1, "{mode:?}");
            assert_eq!(d.stats().dropped, 1, "{mode:?}");
            assert!(!d.quarantined(), "{mode:?}: one trap in a tiny window is noise");
        }
    }

    #[test]
    fn gas_budget_is_shared_across_recirculation() {
        let mut d = new_dev();
        d.install(bundle(
            "program loopy kind any { handler ingress(pkt) { recirculate(); } }",
        ))
        .unwrap();
        // One pass costs 1 op; 3 gas admits passes 1-3 and traps pass 4
        // at its first charge, before the recirculation bound (5 passes).
        d.set_sandbox(SandboxConfig {
            gas_limit: 3,
            ..SandboxConfig::default()
        });
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Drop);
        assert_eq!(r.ops, 4, "3 budgeted passes + the trapping charge");
        assert!(
            matches!(r.trap, Some(Trap::GasExhausted { .. })),
            "gas, not the recirculation bound, must fire first: {:?}",
            r.trap
        );
        assert_eq!(d.stats().recirc_dropped, 0);
    }

    #[test]
    fn trap_storm_quarantines_to_last_known_good() {
        let mut d = new_dev();
        d.set_sandbox(SandboxConfig {
            trap_window: 64,
            min_window: 16,
            trap_threshold_ppm: 500_000,
            ..SandboxConfig::default()
        });
        d.install(fw_bundle()).unwrap();
        let good_digest = d.config_digest();
        // Ship the rogue program; the fw image becomes last-known-good.
        d.install(trapping_bundle()).unwrap();
        assert_eq!(
            d.last_good.as_ref().map(|p| p.config_digest()),
            Some(good_digest)
        );
        let bad_digest = d.config_digest();
        assert_ne!(bad_digest, good_digest);

        let mut quarantined_at = None;
        for i in 0..64u64 {
            let mut pkt = Packet::tcp(i, i as u32, 20, 1, 80, 0);
            d.process(&mut pkt, SimTime::ZERO).unwrap();
            if d.quarantined() {
                quarantined_at = Some(i + 1);
                break;
            }
        }
        assert_eq!(
            quarantined_at,
            Some(16),
            "100% trap rate must quarantine the moment the window is judgeable"
        );
        assert_eq!(d.stats().quarantines, 1);
        assert_eq!(
            d.config_digest(),
            good_digest,
            "fallback must be digest-identical to the stashed image"
        );
        assert_eq!(
            d.last_trap().map(|t| t.label()),
            Some("div-by-zero"),
            "diagnostics name the storm's trap kind"
        );

        // The fallback serves traffic cleanly and trap accounting is reset.
        let mut pkt = Packet::tcp(999, 10, 20, 1, 80, 0);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Forward(1));
        assert_eq!(r.trap, None);

        // A fresh install (the rollback path) lifts the quarantine.
        d.install(fw_bundle()).unwrap();
        assert!(!d.quarantined());
    }

    #[test]
    fn quarantine_without_fallback_fails_to_transparent_default() {
        let mut d = new_dev();
        d.install(trapping_bundle()).unwrap(); // first program: no last-good
        for i in 0..20u64 {
            let mut pkt = Packet::tcp(i, i as u32, 20, 1, 80, 0);
            d.process(&mut pkt, SimTime::ZERO).unwrap();
        }
        assert!(d.quarantined());
        assert!(d.program().is_none(), "no fallback: program removed");
        let mut pkt = Packet::tcp(99, 1, 2, 3, 4, 0);
        let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
        assert_eq!(
            r.verdict,
            Verdict::Forward(DEFAULT_PORT),
            "quarantined device degrades to transparent forwarding"
        );
    }

    #[test]
    fn poison_bytes_trap_without_indicting_the_program() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        // A flood of truncated frames: all dropped, none panic, and the
        // *program* is never quarantined — the packets are at fault.
        for i in 0..100u64 {
            let r = d
                .process_bytes(&[0xffu8; 5], i, SimTime::ZERO)
                .unwrap();
            assert_eq!(r.verdict, Verdict::Drop);
            assert!(matches!(r.trap, Some(Trap::MalformedPacket { .. })));
        }
        assert_eq!(d.stats().parse_traps, 100);
        assert_eq!(d.stats().traps, 0, "parse traps are not program traps");
        assert!(!d.quarantined());

        // Valid bytes still flow through the program.
        let pkt = Packet::tcp(7, 10, 20, 1, 80, 0);
        let bytes = crate::wire::encode_wire(&pkt);
        let r = d.process_bytes(&bytes, 7, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Forward(1));
        assert_eq!(r.trap, None);
    }

    #[test]
    fn reconfig_flip_stashes_outgoing_image_as_last_good() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        let fw_digest = d.config_digest();
        let next = bundle("program v2 kind any { handler ingress(pkt) { forward(2); } }");
        d.begin_runtime_reconfig(next, SimTime::ZERO).unwrap();
        // Drive time forward until the transition commits.
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            t += SimDuration::from_millis(10);
            let mut pkt = Packet::tcp(1, 10, 20, 1, 80, 0);
            let r = d.process(&mut pkt, t).unwrap();
            if r.verdict == Verdict::Forward(2) {
                break;
            }
        }
        assert_eq!(
            d.last_good.as_ref().map(|p| p.config_digest()),
            Some(fw_digest),
            "hitless flip must stash the outgoing image"
        );
    }

    #[test]
    fn stage_ordering_for_applied_tables() {
        // Two sequentially applied tables, each too big to share a stage:
        // the second must land in a later stage.
        let per_stage = ResourceVec::from_pairs([
            (flexnet_types::ResourceKind::SramKb, 8),
            (flexnet_types::ResourceKind::ActionSlots, 64),
        ]);
        let mut d = Device::new(
            NodeId(4),
            Architecture::Rmt {
                stages: 4,
                per_stage,
            },
            StateEncoding::StatefulTable,
        );
        let b = bundle(
            "program p kind any {
               table first { key { ipv4.src : exact; } size 1024; }
               table second { key { ipv4.dst : exact; } size 1024; }
               handler ingress(pkt) { apply first; apply second; forward(1); }
             }",
        );
        d.install(b).unwrap();
        let s1 = d.allocator().location("first").unwrap();
        let s2 = d.allocator().location("second").unwrap();
        match (s1, s2) {
            (crate::arch::Location::Stage(a), crate::arch::Location::Stage(b)) => {
                assert!(b >= a, "second table must not precede first (got {a} vs {b})");
                assert_ne!(a, b, "1024-entry tables cannot share an 8KiB stage");
            }
            other => panic!("expected stage placements, got {other:?}"),
        }
    }

    /// A program that traps iff `ipv4.src` is in map `d` (division by
    /// `1 - map_get`), so a burst can carry exactly one poisoned packet.
    fn selective_trap_bundle() -> ProgramBundle {
        bundle(
            "program sel kind any {
               map d : map<u32, u32>[64];
               handler ingress(pkt) {
                 let x = 1000 / (1 - map_get(d, ipv4.src));
                 forward(1);
               }
             }",
        )
    }

    #[test]
    fn burst_bills_exactly_the_poisoned_packet() {
        // One program-trapping packet inside a 256-burst: the trap, the
        // drop, and the window accounting hit index 77 alone; all 255
        // neighbors keep their verdicts, ops, and clean-window billing.
        for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
            let mut d = new_dev();
            d.set_exec_mode(mode);
            d.install(selective_trap_bundle()).unwrap();
            d.program_mut().unwrap().state.map_put("d", 77, 1).unwrap();

            let mut burst: Vec<Packet> =
                (0..256).map(|i| Packet::tcp(i, i as u32, 9, 1, 80, 0)).collect();
            let mut out = Vec::new();
            d.process_burst(&mut burst, SimTime::ZERO, &mut out).unwrap();

            assert_eq!(out.len(), 256);
            for (i, r) in out.iter().enumerate() {
                if i == 77 {
                    assert_eq!(r.verdict, Verdict::Drop, "{mode:?}");
                    assert!(matches!(r.trap, Some(Trap::DivisionByZero { .. })), "{mode:?}: {:?}", r.trap);
                } else {
                    assert_eq!(r.verdict, Verdict::Forward(1), "{mode:?} neighbor {i}");
                    assert_eq!(r.trap, None, "{mode:?} neighbor {i}");
                    assert_eq!(r.ops, out[0].ops, "{mode:?} neighbor {i} ops uniform");
                }
            }
            let s = d.stats();
            assert_eq!(s.processed, 256, "{mode:?}");
            assert_eq!(s.traps, 1, "{mode:?}: exactly the poison packet");
            assert_eq!(s.dropped, 1, "{mode:?}");
            assert!(!d.quarantined(), "{mode:?}: one trap in 256 is no storm");
        }
    }

    #[test]
    fn burst_trap_storm_quarantines_at_the_same_packet_as_single() {
        // Every packet traps: the single-packet path quarantines exactly
        // when the window crosses threshold, swapping to transparent
        // forwarding mid-stream. One 64-burst must produce the identical
        // per-packet sequence — including the mid-burst image swap.
        let mut single = new_dev();
        single.install(trapping_bundle()).unwrap();
        let mut burst_dev = new_dev();
        burst_dev.install(trapping_bundle()).unwrap();

        let mut singles = Vec::new();
        for i in 0..64u64 {
            let mut pkt = Packet::tcp(i, i as u32, 9, 1, 80, 0);
            singles.push(single.process(&mut pkt, SimTime::ZERO).unwrap());
        }
        let mut burst: Vec<Packet> =
            (0..64).map(|i| Packet::tcp(i, i as u32, 9, 1, 80, 0)).collect();
        let mut out = Vec::new();
        burst_dev
            .process_burst(&mut burst, SimTime::ZERO, &mut out)
            .unwrap();

        assert_eq!(out, singles, "burst ≡ single across the quarantine flip");
        assert!(burst_dev.quarantined());
        assert_eq!(burst_dev.stats(), single.stats());
        assert_eq!(burst_dev.version(), single.version());
        // The flip really happened mid-burst: early packets trapped on the
        // suspect image, later ones forwarded transparently.
        assert!(out.iter().take(10).all(|r| r.trap.is_some()));
        assert!(out.iter().rev().take(10).all(|r| r.trap.is_none()));
    }

    #[test]
    fn burst_of_one_equals_process() {
        let mut a = new_dev();
        a.install(fw_bundle()).unwrap();
        let mut b = new_dev();
        b.install(fw_bundle()).unwrap();
        for i in 0..32u64 {
            let mut pa = Packet::tcp(i, (i % 5) as u32, 9, 1, 80, 0);
            let mut pb = pa.clone();
            let ra = a.process(&mut pa, SimTime::ZERO).unwrap();
            let mut out = Vec::new();
            b.process_burst(std::slice::from_mut(&mut pb), SimTime::ZERO, &mut out)
                .unwrap();
            assert_eq!(out.as_slice(), &[ra]);
            assert_eq!(pa, pb);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.snapshot_state(), b.snapshot_state());
    }

    #[test]
    fn drained_burst_refuses_every_packet_without_processing() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        d.begin_reflash(
            bundle("program v2 kind any { handler ingress(pkt) { forward(2); } }"),
            SimTime::ZERO,
        )
        .unwrap();
        let mut burst: Vec<Packet> =
            (0..8).map(|i| Packet::tcp(i, 1, 9, 1, 80, 0)).collect();
        let mut out = Vec::new();
        d.process_burst(&mut burst, SimTime::ZERO, &mut out).unwrap();
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|r| r.refused && r.verdict == Verdict::Drop));
        assert_eq!(d.stats().refused, 8);
        assert_eq!(d.stats().processed, 0);
    }

    #[test]
    fn sealed_burst_checksum_poison_bills_exactly_one_frame() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        let mut frames: Vec<Vec<u8>> = (0..256u64)
            .map(|i| {
                crate::wire::seal_frame(&crate::wire::encode_wire(&Packet::tcp(
                    i, 10, 20, 1, 80, 0,
                )))
            })
            .collect();
        crate::wire::flip_bits(&mut frames[100], 0xBAD5EED, 3);

        let mut pkts = Vec::new();
        let mut out = Vec::new();
        d.process_sealed_burst(&frames, 0, SimTime::ZERO, &mut pkts, &mut out)
            .unwrap();

        assert_eq!(out.len(), 256);
        for (i, o) in out.iter().enumerate() {
            if i == 100 {
                assert_eq!(*o, FrameOutcome::ChecksumDrop, "the corrupted frame");
            } else {
                match o {
                    FrameOutcome::Processed(r) => {
                        assert_eq!(r.verdict, Verdict::Forward(1), "neighbor {i}")
                    }
                    other => panic!("neighbor {i} mis-billed: {other:?}"),
                }
            }
        }
        let s = d.stats();
        assert_eq!(s.checksum_drops, 1, "exactly the corrupted frame");
        assert_eq!(s.processed, 255);
        assert_eq!(s.parse_traps, 0);
        assert_eq!(s.traps, 0, "fabric corruption never indicts the program");
        assert!(!d.quarantined());
        assert_eq!(pkts.len(), 255, "admitted packets retained for egress");
    }

    #[test]
    fn sealed_burst_parse_poison_bills_exactly_one_frame() {
        let mut d = new_dev();
        d.install(fw_bundle()).unwrap();
        let mut frames: Vec<Vec<u8>> = (0..256u64)
            .map(|i| {
                crate::wire::seal_frame(&crate::wire::encode_wire(&Packet::tcp(
                    i, 10, 20, 1, 80, 0,
                )))
            })
            .collect();
        // A validly sealed frame whose *body* is garbage: passes the
        // checksum, fails the parser.
        frames[31] = crate::wire::seal_frame(&[0xffu8; 5]);

        let mut pkts = Vec::new();
        let mut out = Vec::new();
        d.process_sealed_burst(&frames, 0, SimTime::ZERO, &mut pkts, &mut out)
            .unwrap();

        match &out[31] {
            FrameOutcome::ParseDrop(r) => {
                assert_eq!(r.verdict, Verdict::Drop);
                assert!(matches!(r.trap, Some(Trap::MalformedPacket { .. })));
            }
            other => panic!("expected a parse drop, got {other:?}"),
        }
        assert!(out
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 31)
            .all(|(_, o)| matches!(o, FrameOutcome::Processed(_))));
        let s = d.stats();
        assert_eq!(s.parse_traps, 1, "exactly the malformed frame");
        assert_eq!(s.checksum_drops, 0);
        assert_eq!(s.processed, 255);
        assert_eq!(s.dropped, 1, "the parse drop and nothing else");
        assert_eq!(s.traps, 0, "parse traps are not program traps");
        assert!(!d.quarantined());
    }
}
