//! The reconfiguration window, pinned from outside the device.
//!
//! A hitless change keeps the old program serving until the flip — for a
//! cost-model transition, or indefinitely while a 2PC shadow is in doubt.
//! Whatever the old program and the control plane write in that window is
//! the device's state: the flip carries what is there *at the flip*, an
//! abort keeps it, and a crash reboots into the old image. And a begin the
//! device rejects leaves placement, resource use and the parser untouched.
//! The outgoing program stays behind as the quarantine fallback with a copy
//! of what it held at the flip — not empty, not what its successor wrote.

use flexnet::prelude::*;
use flexnet_dataplane::TxnTag;
use flexnet_lang::ast::ActionCall;

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).unwrap();
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().unwrap(),
    }
}

/// Every packet bumps a counter, a register cell and a map; `t` denies.
/// `headers` and `decls` are spliced in, `t` holds `t_size` entries and
/// unmatched packets leave on `port`.
fn app(headers: &str, decls: &str, t_size: u32, port: u16) -> ProgramBundle {
    app_with(headers, decls, t_size, port, "")
}

/// `app` with `stmts` run after the table and before the forward.
fn app_with(headers: &str, decls: &str, t_size: u32, port: u16, stmts: &str) -> ProgramBundle {
    bundle(&format!(
        "{headers}
         program app kind any {{
           counter c;
           register r : u64[4];
           map seen : map<u32, u64>[64];
           {decls}
           table t {{
             key {{ ipv4.src : exact; }}
             action deny() {{ drop(); }}
             size {t_size};
           }}
           handler ingress(pkt) {{
             count(c);
             reg_write(r, 0, reg_read(r, 0) + 1);
             map_put(seen, ipv4.src, 1);
             apply t;
             {stmts}
             forward({port});
           }}
         }}"
    ))
}

const VX: &str = "header vx { fields { id: 16; } follows udp when udp.dport == 4789; }";

fn old() -> ProgramBundle {
    app("", "", 8, 1)
}

/// Keeps `c`, `r`, `seen` and `t` as declared, adds a header and a counter.
fn new() -> ProgramBundle {
    app(VX, "counter extra;", 8, 2)
}

fn deny(src: u64) -> TableEntry {
    let action = ActionCall {
        action: "deny".into(),
        args: vec![],
    };
    TableEntry::exact(&[src], action)
}

fn verdict(d: &mut Device, id: u64, src: u32, at: SimTime) -> Verdict {
    let mut pkt = Packet::tcp(id, src, 2, 3, 4, 0);
    d.process(&mut pkt, at).unwrap().verdict
}

/// A device on `old()` that has counted one packet and denies source 100.
fn warmed_up() -> Device {
    let mut d = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    d.install(old()).unwrap();
    assert_eq!(verdict(&mut d, 0, 9, SimTime::ZERO), Verdict::Forward(1));
    d.add_entry("t", deny(100)).unwrap();
    d
}

/// What the window does at `at`, all of it on the old program: five more
/// packets counted, source 200 denied, source 100 allowed again.
fn write_in_window(d: &mut Device, at: SimTime) {
    for i in 0..5 {
        assert_eq!(verdict(d, 10 + i, 20 + i as u32, at), Verdict::Forward(1));
    }
    d.add_entry("t", deny(200)).unwrap();
    assert_eq!(d.remove_entry("t", &[KeyMatch::Exact(100)]).unwrap(), 1);
}

/// The state `warmed_up` + `write_in_window` leave, whichever program holds it.
fn assert_window_writes_present(d: &Device) {
    let p = d.program().unwrap();
    assert_eq!(p.state.counter_read("c"), 6, "counter: 1 at begin + 5 in the window");
    assert_eq!(p.state.reg_read("r", 0), 6, "register cell");
    assert_eq!(p.state.map_len("seen"), 6, "map keys");
    let t = p.tables.get("t").unwrap();
    assert!(t.lookup(&[200]).is_some(), "entry acked in the window is present");
    assert!(t.lookup(&[100]).is_none(), "entry removed in the window is absent");
}

/// Placement, resource use and parser, as the tests compare them.
fn footprint(d: &Device) -> (Vec<String>, ResourceVec, ResourceVec, bool) {
    (
        d.allocator().placed().map(str::to_owned).collect(),
        d.allocator().used(),
        d.parser().used(),
        d.parser().can_parse("vx"),
    )
}

#[test]
fn the_flip_carries_what_the_window_wrote() {
    let mut d = warmed_up();
    let t0 = SimTime::from_secs(1);
    let rep = d.begin_runtime_reconfig(new(), t0).unwrap();
    assert_eq!(rep.outcome, ReconfigOutcome::InFlight);
    write_in_window(&mut d, t0 + SimDuration::from_nanos(rep.duration.as_nanos() / 2));
    assert_window_writes_present(&d);

    let before = d.version();
    d.tick(rep.ready_at);
    assert!(d.version() > before, "flipped");
    assert_window_writes_present(&d);
    assert_eq!(verdict(&mut d, 90, 200, rep.ready_at), Verdict::Drop);
    assert_eq!(verdict(&mut d, 91, 100, rep.ready_at), Verdict::Forward(2));
}

#[test]
fn a_shadow_held_in_doubt_and_released_late_carries_what_is_there_then() {
    let mut d = warmed_up();
    let tag = TxnTag { txn_id: 7, epoch: 1 };
    let rep = d.prepare_txn_reconfig(new(), SimTime::from_secs(1), tag).unwrap();
    // Far past `ready_at` the shadow is still in doubt and the old program
    // still serves — and still writes.
    let late = rep.ready_at + SimDuration::from_secs(3600);
    d.tick(late);
    assert_eq!(d.txn_in_doubt(), Some(tag));
    write_in_window(&mut d, late);

    let release = late + SimDuration::from_secs(1);
    assert!(d.commit_txn(tag, release).unwrap());
    let before = d.version();
    d.tick(release);
    assert!(d.version() > before, "flipped");
    assert_window_writes_present(&d);
    assert_eq!(verdict(&mut d, 90, 200, release), Verdict::Drop);
    assert_eq!(verdict(&mut d, 91, 100, release), Verdict::Forward(2));
}

#[test]
fn abort_keeps_every_window_write_and_restores_placement_and_parser() {
    let tag = TxnTag { txn_id: 3, epoch: 1 };
    for transactional in [false, true] {
        let mut d = warmed_up();
        let before = footprint(&d);
        let version = d.version();
        let t0 = SimTime::from_secs(1);
        let rep = if transactional {
            d.prepare_txn_reconfig(new(), t0, tag).unwrap()
        } else {
            d.begin_runtime_reconfig(new(), t0).unwrap()
        };
        assert_ne!(footprint(&d), before, "make-before-break holds both footprints");
        let mid = t0 + SimDuration::from_nanos(rep.duration.as_nanos() / 2);
        write_in_window(&mut d, mid);

        let aborted = if transactional {
            d.abort_txn(tag, mid).unwrap().expect("a shadow to discard")
        } else {
            d.abort_reconfig(mid).unwrap()
        };
        assert_eq!(aborted.outcome, ReconfigOutcome::Aborted);
        assert_eq!(footprint(&d), before, "placement, use and parser exactly as before");
        assert_eq!(d.version(), version);
        d.tick(rep.ready_at + SimDuration::from_secs(10));
        assert_eq!(d.version(), version, "no flip resurrects");
        assert_window_writes_present(&d);
        assert_eq!(verdict(&mut d, 90, 21, rep.ready_at), Verdict::Forward(1));
    }
}

#[test]
fn a_crash_in_the_window_reboots_into_the_old_image() {
    let mut d = warmed_up();
    let before = footprint(&d);
    let digest = {
        let mut fresh = Device::new(
            NodeId(2),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        fresh.install(old()).unwrap();
        fresh.config_digest()
    };
    let t0 = SimTime::from_secs(1);
    let rep = d.begin_runtime_reconfig(new(), t0).unwrap();
    let mid = t0 + SimDuration::from_nanos(rep.duration.as_nanos() / 2);
    write_in_window(&mut d, mid);
    d.crash(mid);
    d.restart(rep.ready_at).unwrap();

    assert!(!d.reconfig_in_progress(), "the shadow died with the crash");
    assert_eq!(d.program().unwrap().bundle(), &old());
    assert_eq!(d.config_digest(), digest, "old image, runtime state wiped");
    assert_eq!(footprint(&d), before);
    let after = rep.ready_at + SimDuration::from_secs(10);
    assert_eq!(verdict(&mut d, 90, 200, after), Verdict::Forward(1));
    assert_eq!(d.program().unwrap().state.counter_read("c"), 1);
}

#[test]
fn a_rejected_begin_leaves_no_residue() {
    // Adds a header, re-sizes `t` (a `ModifyTable`: free, then an alloc the
    // device cannot satisfy) and replaces the handler.
    let too_big = || app(VX, "", 1 << 30, 2);
    let tag = TxnTag { txn_id: 5, epoch: 1 };
    for transactional in [false, true] {
        let mut d = warmed_up();
        let before = footprint(&d);
        let digest = d.config_digest();
        let t0 = SimTime::from_secs(1);
        let err = if transactional {
            d.prepare_txn_reconfig(too_big(), t0, tag).unwrap_err()
        } else {
            d.begin_runtime_reconfig(too_big(), t0).unwrap_err()
        };
        assert!(matches!(err, FlexError::ResourceExhausted { .. }), "{err}");
        assert!(!d.reconfig_in_progress());
        assert_eq!(footprint(&d), before, "placement, use and parser untouched");
        assert_eq!(d.config_digest(), digest);
        // The device is not wedged: the change it can hold still goes through.
        let rep = d.begin_runtime_reconfig(new(), t0).unwrap();
        d.tick(rep.ready_at);
        assert_eq!(verdict(&mut d, 90, 21, rep.ready_at), Verdict::Forward(2));
    }
}

/// `new()`'s declarations on `port`, with a handler that divides by zero on
/// every source from 5000 up: a program a storm can quarantine.
fn rogue(port: u16) -> ProgramBundle {
    let trap = "if (ipv4.src >= 5000) { let x = 1000 / map_get(seen, 0); }";
    app_with(VX, "counter extra;", 8, port, trap)
}

/// Traps the active program until the device quarantines it.
fn storm(d: &mut Device, at: SimTime) {
    for i in 0..64 {
        assert_eq!(verdict(d, 1000 + i, 5000 + i as u32, at), Verdict::Drop);
        if d.quarantined() {
            return;
        }
    }
    panic!("64 trapping packets did not quarantine the program");
}

/// The digest of a fresh device on `program` holding `denied`.
fn digest_of(program: ProgramBundle, denied: &[u64]) -> u64 {
    let mut fresh = Device::new(
        NodeId(2),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    fresh.install(program).unwrap();
    for src in denied {
        fresh.add_entry("t", deny(*src)).unwrap();
    }
    fresh.config_digest()
}

#[test]
fn quarantine_falls_back_to_the_outgoing_program_as_it_stood_at_the_flip() {
    let tag = TxnTag { txn_id: 11, epoch: 1 };
    for transactional in [false, true] {
        // v1 -> v2, writing in the window; v2 is the rogue.
        let mut d = warmed_up();
        let t0 = SimTime::from_secs(1);
        let flip = if transactional {
            let rep = d.prepare_txn_reconfig(rogue(2), t0, tag).unwrap();
            let late = rep.ready_at + SimDuration::from_secs(3600);
            write_in_window(&mut d, late);
            assert!(d.commit_txn(tag, late).unwrap());
            late
        } else {
            let rep = d.begin_runtime_reconfig(rogue(2), t0).unwrap();
            write_in_window(&mut d, t0 + SimDuration::from_nanos(rep.duration.as_nanos() / 2));
            rep.ready_at
        };
        d.tick(flip);
        assert_eq!(d.program().unwrap().bundle(), &rogue(2), "flipped");

        // v2 writes on: three packets, one entry more, one entry less.
        for i in 0..3 {
            assert_eq!(verdict(&mut d, 50 + i, 70 + i as u32, flip), Verdict::Forward(2));
        }
        d.add_entry("t", deny(300)).unwrap();
        assert_eq!(d.remove_entry("t", &[KeyMatch::Exact(200)]).unwrap(), 1);
        assert_eq!(d.program().unwrap().state.counter_read("c"), 9);

        storm(&mut d, flip);
        assert_eq!(d.program().unwrap().bundle(), &old(), "back on v1");
        assert_window_writes_present(&d);
        let t = d.program().unwrap().tables.get("t").unwrap();
        assert_eq!(t.len(), 1, "v1's entries as of the flip, and only those");
        assert_eq!(d.config_digest(), digest_of(old(), &[200]));
        assert_eq!(verdict(&mut d, 90, 200, flip), Verdict::Drop);
        assert_eq!(verdict(&mut d, 91, 300, flip), Verdict::Forward(1));
    }
}

#[test]
fn a_second_flip_replaces_the_fallback_with_the_second_outgoing_program() {
    let mut d = warmed_up();
    let t0 = SimTime::from_secs(1);
    let rep = d.begin_runtime_reconfig(new(), t0).unwrap();
    write_in_window(&mut d, t0);
    d.tick(rep.ready_at);

    // v2 = `new()` serves and is written to, then flips to the rogue v3.
    let t1 = rep.ready_at + SimDuration::from_secs(1);
    for i in 0..4 {
        assert_eq!(verdict(&mut d, 50 + i, 70 + i as u32, t1), Verdict::Forward(2));
    }
    d.add_entry("t", deny(300)).unwrap();
    let rep = d.begin_runtime_reconfig(rogue(3), t1).unwrap();
    assert_eq!(verdict(&mut d, 60, 80, t1), Verdict::Forward(2)); // in the window
    d.tick(rep.ready_at);
    assert_eq!(d.program().unwrap().bundle(), &rogue(3), "flipped again");

    // v3 writes on, then storms.
    assert_eq!(verdict(&mut d, 61, 81, rep.ready_at), Verdict::Forward(3));
    d.add_entry("t", deny(400)).unwrap();
    storm(&mut d, rep.ready_at);

    let p = d.program().unwrap();
    assert_eq!(p.bundle(), &new(), "back on v2, not v1");
    assert_eq!(p.state.counter_read("c"), 11, "6 carried from v1 + 5 under v2");
    assert_eq!(p.state.reg_read("r", 0), 11);
    assert_eq!(p.state.map_len("seen"), 11);
    assert_eq!(p.state.counter_read("extra"), 0);
    let t = p.tables.get("t").unwrap();
    assert_eq!(t.len(), 2);
    assert!(t.lookup(&[200]).is_some() && t.lookup(&[300]).is_some());
    assert_eq!(d.config_digest(), digest_of(new(), &[200, 300]));
}
