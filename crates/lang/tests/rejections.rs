//! The exact verdict of the checks that turn source into a certified
//! program: header registry, type checker and verifier, in that order.
//! Each row pins the whole `FlexError` — variant and text — so a rewrite
//! of any of the three passes must reject the same programs with the same
//! words, and accept the same ones.

use flexnet_lang::headers::HeaderRegistry;
use flexnet_lang::parser::parse_source;
use flexnet_lang::typecheck::check_program;
use flexnet_lang::verifier::verify_program;
use flexnet_types::{FlexError, Result};

/// What `apps::build` and `ProgramImage::seal` run: registry, check, verify.
fn certify(src: &str) -> Result<()> {
    let file = parse_source(src)?;
    let registry = HeaderRegistry::with_user_headers(&file.headers)?;
    for p in &file.programs {
        check_program(p, &registry)?;
        verify_program(p, &registry)?;
    }
    Ok(())
}

fn ty(msg: &str) -> Result<()> {
    Err(FlexError::Type(msg.into()))
}

fn verify(msg: &str) -> Result<()> {
    Err(FlexError::Verify(msg.into()))
}

const TABLE_T: &str = "table t { key { ipv4.src : exact; } size 4; }";

#[test]
fn every_rejection_keeps_its_text() {
    let rows: Vec<(&str, String, Result<()>)> = vec![
        // --- unique names: states, then tables, then services ---
        (
            "two duplicate states: the first in declaration order",
            "program p { counter y; counter x; counter y; counter x; }".into(),
            ty("duplicate name `y`"),
        ),
        (
            "a table named like a later-declared state",
            format!("program p {{ {TABLE_T} counter t; counter c; counter c; }}"),
            ty("duplicate name `c`"),
        ),
        (
            "a table named like a state, and a service named like a table",
            format!(
                "program p {{ service require u(a: u32); counter t; {TABLE_T}
                   table u {{ key {{ ipv4.dst : exact; }} size 4; }} }}"
            ),
            ty("duplicate name `t`"),
        ),
        (
            "a service named like a table",
            format!("program p {{ {TABLE_T} service require t(a: u32); }}"),
            ty("duplicate name `t`"),
        ),
        (
            "two duplicate services",
            "program p { service require b(); service require a();
               service require a(); service require b(); }"
                .into(),
            ty("duplicate name `a`"),
        ),
        (
            "a duplicate handler",
            "program p { handler h(pkt) { drop(); } handler g(pkt) { drop(); }
               handler g(pkt) { drop(); } handler h(pkt) { drop(); } }"
                .into(),
            ty("duplicate handler `g`"),
        ),
        (
            "a duplicate action",
            "program p { table t { key { ipv4.src : exact; }
               action a() { drop(); } action b() { drop(); } action a() { drop(); }
               size 4; } }"
                .into(),
            ty("table `t` declares action `a` twice"),
        ),
        // --- locals ---
        (
            "a shadowed local in one block",
            "program p { handler h(pkt) { let x = 1; let x = 2; } }".into(),
            ty("in handler `h`: local `x` is already declared (shadowing is not allowed)"),
        ),
        (
            "a local shadowed in a nested block",
            "program p { handler h(pkt) { let x = 1; if (valid(tcp)) { let x = 2; } } }".into(),
            ty("in handler `h`: local `x` is already declared (shadowing is not allowed)"),
        ),
        (
            "a local shadowing an action parameter",
            "program p { table t { key { ipv4.src : exact; }
               action a(x: u16) { let x = 1; forward(x); } size 4; } }"
                .into(),
            ty("in action `t.a`: local `x` is already declared (shadowing is not allowed)"),
        ),
        (
            "a repeated action parameter",
            "program p { table t { key { ipv4.src : exact; }
               action a(x: u16, x: u16) { forward(x); } size 4; } }"
                .into(),
            ty("local `x` is already declared (shadowing is not allowed)"),
        ),
        (
            "a name declared again after its block closed",
            "program p { handler h(pkt) {
               if (valid(tcp)) { let y = 1; forward(y); } else { let y = 2; forward(y); }
               let y = 3; forward(y); } }"
                .into(),
            Ok(()),
        ),
        (
            "an unknown local",
            "program p { handler h(pkt) { x = 1; } }".into(),
            ty("in handler `h`: unknown local `x`"),
        ),
        (
            "a local read after its block closed",
            "program p { handler h(pkt) { if (valid(ipv4)) { let y = 1; } forward(y); } }".into(),
            ty("in handler `h`: unknown local `y`"),
        ),
        (
            "a local of one action read in the next",
            "program p { table t { key { ipv4.src : exact; }
               action a(v: u16) { let w = v; forward(w); } action b() { forward(w); }
               size 4; } }"
                .into(),
            ty("in action `t.b`: unknown local `w`"),
        ),
        (
            "a local of one handler read in the next",
            "program p { handler g(pkt) { let w = 1; forward(w); }
               handler h(pkt) { forward(w); } }"
                .into(),
            ty("in handler `h`: unknown local `w`"),
        ),
        (
            "a type-mismatched assignment",
            "program p { handler h(pkt) { let x = 1; x = 1 == 1; } }".into(),
            ty("in handler `h`: local `x` was Int, assigned Bool"),
        ),
        (
            "a boolean local assigned an integer in a nested block",
            "program p { handler h(pkt) { let b = valid(tcp); if (b) { b = 2; } } }".into(),
            ty("in handler `h`: local `b` was Bool, assigned Int"),
        ),
        // --- other name resolution ---
        (
            "an unknown protocol in a table key",
            "program p { table t { key { ipv9.src : exact; } size 4; } }".into(),
            ty("in table `t`: unknown protocol `ipv9`"),
        ),
        (
            "an unknown field of a builtin",
            "program p { handler h(pkt) { let x = ipv4.nofield; } }".into(),
            ty("in handler `h`: protocol `ipv4` has no field `nofield`"),
        ),
        (
            "an unknown field of a user header",
            "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
             program p { handler h(pkt) { let x = vxlan.nope; } }"
                .into(),
            ty("in handler `h`: protocol `vxlan` has no field `nope`"),
        ),
        (
            "a user header's fields and validity",
            "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
             program p { handler h(pkt) { if (valid(vxlan)) { forward(vxlan.vni % 4); } drop(); } }"
                .into(),
            Ok(()),
        ),
        (
            "state of the wrong kind",
            "program p { map m : map<u32, u8>[4]; handler h(pkt) { count(m); } }".into(),
            ty("in handler `h`: state `m` is not a counter"),
        ),
        // --- the verifier ---
        (
            "a register index that may reach its size",
            "program p { register r : u64[16];
               handler h(pkt) { reg_write(r, ipv4.src, 1); forward(1); } }"
                .into(),
            verify(
                "register `r` index may reach 4294967295 but size is 16; \
                 use `index % 16` to prove bounds",
            ),
        ),
        (
            "a register index joined across an if",
            "program p { register r : u64[10];
               handler h(pkt) { let i = 0; if (valid(tcp)) { i = 10; } reg_write(r, i, 1); } }"
                .into(),
            verify(
                "register `r` index may reach 10 but size is 10; \
                 use `index % 10` to prove bounds",
            ),
        ),
        (
            "a register index joined across an if, in bounds",
            "program p { register r : u64[11];
               handler h(pkt) { let i = 0; if (valid(tcp)) { i = 10; } else { i = 3; }
                 reg_write(r, i, 1); forward(1); } }"
                .into(),
            Ok(()),
        ),
        (
            "a register index widened by a loop",
            "program p { register r : u64[8];
               handler h(pkt) { let i = 0; repeat (4) { reg_write(r, i, 1); i = i + 1; } } }"
                .into(),
            verify(
                "register `r` index may reach 18446744073709551615 but size is 8; \
                 use `index % 8` to prove bounds",
            ),
        ),
        (
            "a register index from an action parameter",
            "program p { register r : u64[16];
               table t { key { ipv4.src : exact; } action a(i: u32) { reg_write(r, i, 1); } size 4; } }"
                .into(),
            verify(
                "register `r` index may reach 18446744073709551615 but size is 16; \
                 use `index % 16` to prove bounds",
            ),
        ),
        (
            "an over-long repeat",
            "program p { handler h(pkt) { repeat (65) { meta.x = 1; } forward(1); } }".into(),
            verify("repeat count 65 exceeds the bound 64"),
        ),
        (
            "a handler over the op bound",
            "program p { handler h(pkt) { repeat (64) { repeat (64) { meta.x = 1; } } forward(1); } }"
                .into(),
            verify("handler `h` worst-case op count 8259 exceeds the bound 4096"),
        ),
        (
            "apply inside an action",
            format!(
                "program p {{ {TABLE_T}
                   table outer {{ key {{ ipv4.dst : exact; }}
                     action ok() {{ drop(); }} action a() {{ if (valid(tcp)) {{ apply t; }} }}
                     size 4; }} }}"
            ),
            verify("action `outer.a`: actions may not apply tables (apply cycles would be unbounded)"),
        ),
        (
            "a loop inside an action",
            "program p { table t { key { ipv4.src : exact; }
               action a() { repeat (2) { meta.x = 1; } } size 4; } }"
                .into(),
            verify("action `t.a`: actions may not contain loops"),
        ),
        // --- the header registry ---
        (
            "a user header that redeclares a builtin",
            "header ipv4 { fields { x: 8; } } program p { }".into(),
            ty("header `ipv4` is already declared"),
        ),
        (
            "a user header declared twice",
            "header a { fields { x: 8; } } header a { fields { y: 8; } } program p { }".into(),
            ty("header `a` is already declared"),
        ),
        (
            "a user header that follows an unknown protocol",
            "header x { fields { y: 8; } follows nope when nope.f == 1; } program p { }".into(),
            ty("header `x` follows unknown protocol `nope`"),
        ),
        (
            "a user header that selects on a missing field",
            "header x { fields { y: 8; } follows udp when udp.nofield == 1; } program p { }".into(),
            ty("header `x` selects on `udp.nofield` which does not exist"),
        ),
        (
            "a user header that follows another user header",
            "header a { fields { y: 8; } follows udp when udp.dport == 1; }
             header b { fields { z: 8; } follows a when a.y == 2; }
             program p { handler h(pkt) { if (valid(b)) { forward(b.z); } drop(); } }"
                .into(),
            Ok(()),
        ),
        (
            "a user header with no fields",
            "header e { fields { } } program p { }".into(),
            ty("header `e` declares no fields"),
        ),
    ];
    for (what, src, expected) in &rows {
        assert_eq!(&certify(src), expected, "{what}:\n{src}");
    }
}
