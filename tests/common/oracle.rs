//! The reference a device's one engine is held to: the AST interpreter
//! (`interp.rs`), run in lockstep with the device.
//!
//! [`process`] first runs the device's preamble (a burst of zero packets
//! commits a reconfiguration that is ready and checks the drain), then runs
//! the device's per-packet rules over a copy of the state the device now
//! holds: hidden headers stripped, gas shared across recirculation passes,
//! at most [`MAX_RECIRCULATIONS`] of them, a trap is a drop, no verdict is
//! the default port. Every name the interpreter asks for resolves through
//! `TableSet::get` and `DeviceState::*_slot`, never through the compiled
//! image. Then the device processes the packet, and the two must agree on
//! the result, the packet, the whole `DeviceState` (maps with their LRU/FIFO
//! stamps, registers, counters, meter buckets, `now`), the config digest
//! and the service invocations — after every packet. A quarantine swaps the
//! device's program, so after one the state and digest are not compared.

use flexnet_dataplane::device::MAX_RECIRCULATIONS;
use flexnet_dataplane::{
    Device, DeviceState, ForwardingGraph, ProcessResult, TableSet, EMPTY_CONFIG_DIGEST,
};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::headers::HeaderRegistry;
use flexnet_types::{Packet, Result, SimTime, Trap, Verdict};

#[path = "interp.rs"]
mod interp;
use interp::{execute_metered, ExecEnv};

/// The interpreter's state plane: one program's tables and a copy of its
/// state, addressed by name.
struct NamedEnv<'a> {
    tables: &'a TableSet,
    state: &'a mut DeviceState,
    invocations: Vec<(String, Vec<u64>)>,
}

impl ExecEnv for NamedEnv<'_> {
    fn table_lookup(&mut self, table: &str, keys: &[u64]) -> Option<ActionCall> {
        Some(self.tables.get(table)?.lookup(keys)?.action.clone())
    }

    fn map_get(&mut self, map: &str, key: u64) -> Option<u64> {
        self.state.map_get_at(self.state.map_slot(map)?, key)
    }

    fn map_put(&mut self, map: &str, key: u64, value: u64) -> Result<()> {
        if let Some(slot) = self.state.map_slot(map) {
            self.state.map_put_at(slot, key, value);
        }
        Ok(())
    }

    fn map_del(&mut self, map: &str, key: u64) {
        if let Some(slot) = self.state.map_slot(map) {
            self.state.map_del_at(slot, key);
        }
    }

    fn reg_read(&mut self, reg: &str, idx: u64) -> Result<u64> {
        let slot = self.state.register_slot(reg);
        slot.map_or(Ok(0), |slot| self.state.reg_read_at_checked(slot, idx))
    }

    fn reg_write(&mut self, reg: &str, idx: u64, val: u64) -> Result<()> {
        let slot = self.state.register_slot(reg);
        slot.map_or(Ok(()), |slot| {
            self.state.reg_write_at_checked(slot, idx, val)
        })
    }

    fn counter_add(&mut self, counter: &str, pkts: u64, bytes: u64) {
        if let Some(slot) = self.state.counter_slot(counter) {
            self.state.counter_add_at(slot, pkts, bytes);
        }
    }

    fn counter_read(&mut self, counter: &str) -> u64 {
        self.state.counter_read(counter)
    }

    fn meter_check(&mut self, meter: &str, key: u64) -> bool {
        let slot = self.state.meter_slot(meter);
        slot.is_none_or(|slot| self.state.meter_check_at(slot, key))
    }

    fn invoke_service(&mut self, service: &str, args: &[u64]) {
        self.invocations.push((service.to_string(), args.to_vec()));
    }
}

/// Processes `pkt` on `dev` at `now`, asserting the device did exactly what
/// the reference does with the program the device holds; returns the
/// device's result.
pub fn process(dev: &mut Device, pkt: &mut Packet, now: SimTime) -> ProcessResult {
    ForwardingGraph::standard()
        .run(dev, &mut [], now)
        .expect("preamble");
    let (version, id) = (dev.version(), pkt.id);
    let mut want_pkt = pkt.clone();
    let want = reference(dev, &mut want_pkt, now);
    let got = dev.process(pkt, now).expect("device processes");
    assert_eq!(
        comparable(&got),
        comparable(&want.result),
        "pkt {id}: result"
    );
    assert_eq!(*pkt, want_pkt, "pkt {id}: packet");
    assert_eq!(
        dev.take_invocations(),
        want.invocations,
        "pkt {id}: invocations"
    );
    if dev.version() == version {
        let state = dev.program().map(|p| &p.state);
        assert_eq!(state, want.state.as_ref(), "pkt {id}: device state");
        assert_eq!(dev.config_digest(), want.digest, "pkt {id}: config digest");
    }
    got
}

/// What the reference makes of one packet.
struct Expected {
    result: ProcessResult,
    state: Option<DeviceState>,
    digest: u64,
    invocations: Vec<(String, Vec<u64>)>,
}

fn reference(dev: &Device, pkt: &mut Packet, now: SimTime) -> Expected {
    let version = dev.version();
    let Some(program) = dev.program() else {
        pkt.record_processing(dev.id(), version);
        let result = ProcessResult {
            verdict: Verdict::Forward(0),
            latency: dev.cost_model().base_latency,
            version,
            ops: 0,
            refused: false,
            trap: None,
        };
        return Expected {
            result,
            state: None,
            digest: EMPTY_CONFIG_DIGEST,
            invocations: Vec::new(),
        };
    };
    let bundle = program.bundle();
    let registry = HeaderRegistry::with_user_headers(&bundle.headers).expect("headers register");
    let mut state = program.state.clone();
    state.now = now;
    let mut env = NamedEnv {
        tables: program.tables(),
        state: &mut state,
        invocations: Vec::new(),
    };
    let hidden = dev.parser().strip_invisible(pkt);
    let (mut ops, mut passes) = (0u64, 0u32);
    let (verdict, trap) = loop {
        let gas = dev.sandbox().gas_limit.saturating_sub(ops);
        let outcome = execute_metered(&bundle.program, "ingress", pkt, &mut env, &registry, gas)
            .expect("reference executes");
        ops += outcome.ops;
        if outcome.trap.is_some() {
            break (Verdict::Drop, outcome.trap);
        }
        match outcome.verdict.unwrap_or(Verdict::Forward(0)) {
            Verdict::Recirculate => {
                passes += 1;
                if passes > MAX_RECIRCULATIONS {
                    break (Verdict::Drop, None);
                }
            }
            verdict => break (verdict, None),
        }
    };
    dev.parser().reattach(pkt, hidden);
    pkt.record_processing(dev.id(), version);
    let invocations = env.invocations;
    let latency = dev.cost_model().packet_latency(ops);
    Expected {
        result: ProcessResult {
            verdict,
            latency,
            version,
            ops,
            refused: false,
            trap,
        },
        state: Some(state),
        digest: program.config_digest(),
        invocations,
    }
}

/// `result` with the one payload the engines spell differently blanked: an
/// `UnknownAction` names the action by source name in the interpreter and
/// by slot in the VM.
fn comparable(result: &ProcessResult) -> ProcessResult {
    let mut r = result.clone();
    if let Some(Trap::UnknownAction { action, .. }) = &mut r.trap {
        action.clear();
    }
    r
}
