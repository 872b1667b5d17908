//! Incremental composition (`DESIGN.md` §22): the tenant manager keeps one
//! `Fragment` per admitted tenant and assembles them, and that must be
//! indistinguishable from composing the admitted extensions from scratch.
//!
//! Random arrive/depart histories are drawn from a pool holding every
//! rejection kind — undeclared reference, incompatible header, duplicate
//! provider (against the infrastructure, and against another tenant's
//! namespaced name), missing and mis-arity import — beside the three
//! `ctl_txn` tenant flavours and the sharing cases. After **every step**:
//!
//! - `TenantManager::composed()` equals `compose(infra, admitted in id
//!   order)`, bundle and report — by value: the two share no declaration;
//! - an arrival is admitted exactly when that from-scratch composition
//!   with the newcomer in it — in id order, the order that ships —
//!   succeeds, and a rejection carries `compose`'s error: the one the walk
//!   that meets the newcomer last reports (so a clash is blamed on who
//!   brought it), or, where only the shipped id-order walk fails, that
//!   walk's;
//! - a rejected step changes nothing: a twin manager that is never shown
//!   the rejected steps stays equal in tenants, VLANs and composition —
//!   also on every later step, which is where a leaked VLAN would surface.

use flexnet::prelude::*;
use flexnet_controller::TenantManager;
use flexnet_lang::compose::CompositionReport;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const STEPS: usize = 40;
/// Tenant ids are drawn from `1..=TENANT_IDS`: few enough that histories
/// revisit ids (duplicate arrivals, departures that hit) and interleave.
const TENANT_IDS: u32 = 6;

fn bundle(src: &str) -> ProgramBundle {
    let file = parse_source(src).unwrap();
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().unwrap(),
    }
}

fn infra() -> ProgramBundle {
    bundle(
        "program infra kind switch {
           counter total;
           service provide migrate_state(dst: u32);
           table routing {
             key { ipv4.dst : lpm; }
             action out(port: u16) { forward(port); }
             default out(0);
             size 1024;
           }
           handler ingress(pkt) { count(total); apply routing; forward(0); }
         }",
    )
}

/// What tenants may bring. At most one fault of its own per entry, so the
/// order in which a tenant's own faults are reported does not enter.
const POOL: &[&str] = &[
    // The three `ctl_txn` flavours (benchmark/src/workloads/ctl.rs).
    "program meter kind any {
       counter seen;
       map hits : map<u32, u32>[64];
       handler ingress(pkt) {
         count(seen);
         let c = map_get(hits, ipv4.src) + 2;
         map_put(hits, ipv4.src, c);
         if (c > 4000) { drop(); }
       }
     }",
    "program acl kind any {
       counter denied;
       table rules {
         key { ipv4.src : exact; tcp.dport : exact; }
         action deny() { count(denied); drop(); }
         action pass() { }
         default pass();
         size 32;
       }
       handler ingress(pkt) {
         if (valid(tcp) && tcp.dport == 443) { apply rules; }
       }
     }",
    "program sketch kind any {
       register row : u64[256];
       counter updates;
       handler ingress(pkt) {
         let i = hash(ipv4.src, ipv4.dst, 77) % 256;
         reg_write(row, i, reg_read(row, i) + 1);
         count(updates);
       }
     }",
    // A stateless table: shared between the tenants that bring it.
    "program x {
       table screen {
         key { tcp.dport : exact; }
         action deny() { drop(); }
         size 16;
       }
       handler ingress(pkt) { apply screen; }
       handler egress(pkt) { apply screen; }
     }",
    // Undeclared references: infrastructure state, infrastructure table.
    "program evil { handler ingress(pkt) { count(total); } }",
    "program evil { handler ingress(pkt) { apply routing; } }",
    // One header, two incompatible layouts: whoever comes second clashes.
    "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
     program x { handler ingress(pkt) { meta.m = 0; } }",
    "header vxlan { fields { vni: 32; } }
     program x { handler ingress(pkt) { meta.m = 0; } }",
    // Imports: satisfied, missing, wrong arity.
    "program x {
       service require migrate_state(dst: u32);
       handler ingress(pkt) { invoke migrate_state(1); }
     }",
    "program x {
       service require nonexistent(dst: u32);
       handler ingress(pkt) { invoke nonexistent(1); }
     }",
    "program x {
       service require migrate_state(a: u32, b: u32);
       handler ingress(pkt) { invoke migrate_state(1, 2); }
     }",
    // Providers: fine, taken by the infrastructure, and named like
    // another tenant's namespaced `scrub` — a clash only when that tenant
    // is admitted, provides `scrub` and comes first in id order.
    "program x { service provide scrub(level: u8); handler ingress(pkt) { meta.m = 1; } }",
    "program x { service provide migrate_state(dst: u32); handler ingress(pkt) { meta.m = 1; } }",
    "program x { service provide t2_scrub(level: u8); handler ingress(pkt) { meta.m = 1; } }",
    "program x { service provide t4_scrub(level: u8); handler ingress(pkt) { meta.m = 1; } }",
];

/// The admitted extensions, as the reference sees them.
type Admitted = BTreeMap<TenantId, TenantExtension>;

fn reference(infra: &ProgramBundle, admitted: &Admitted) -> (ProgramBundle, CompositionReport) {
    let in_id_order: Vec<TenantExtension> = admitted.values().cloned().collect();
    let c = compose(infra, &in_id_order).expect("an admitted set composes");
    (c.bundle, c.report)
}

/// What `compose` says about admitting `newcomer` (see the module docs).
fn reference_rejection(
    infra: &ProgramBundle,
    admitted: &Admitted,
    newcomer: &TenantExtension,
) -> Option<FlexError> {
    let mut newcomer_last: Vec<TenantExtension> = admitted.values().cloned().collect();
    newcomer_last.push(newcomer.clone());
    let mut shipped = admitted.clone();
    shipped.insert(newcomer.tenant, newcomer.clone());
    let shipped: Vec<TenantExtension> = shipped.into_values().collect();
    let shipped_fails = compose(infra, &shipped).err()?;
    Some(
        compose(infra, &newcomer_last)
            .err()
            .unwrap_or(shipped_fails),
    )
}

fn shares_a_declaration(a: &ProgramBundle, b: &ProgramBundle) -> bool {
    fn any<T>(a: &[Arc<T>], b: &[Arc<T>]) -> bool {
        a.iter().any(|x| b.iter().any(|y| Arc::ptr_eq(x, y)))
    }
    let (p, q) = (&a.program, &b.program);
    any(&a.headers, &b.headers)
        || any(&p.states, &q.states)
        || any(&p.tables, &q.tables)
        || any(&p.services, &q.services)
        || any(&p.handlers, &q.handlers)
}

fn assert_in_step(
    tm: &TenantManager,
    twin: &TenantManager,
    admitted: &Admitted,
    infra: &ProgramBundle,
) {
    let composed = tm.composed().unwrap();
    let (reference, twin_composed) = (reference(infra, admitted), twin.composed().unwrap());
    // Neither shares a declaration with the manager's composition, so the
    // equalities below compare every one by value, none by address.
    for other in [&reference.0, &twin_composed.0] {
        assert!(!shares_a_declaration(&composed.0, other));
    }
    assert_eq!(composed, reference);
    assert_eq!(composed, twin_composed);
    assert_eq!(tm.tenants(), admitted.keys().copied().collect::<Vec<_>>());
    assert_eq!(tm.tenants(), twin.tenants());
    for (tenant, ext) in admitted {
        assert_eq!(tm.vlan_of(*tenant), Some(ext.vlan));
        assert_eq!(twin.vlan_of(*tenant), Some(ext.vlan));
    }
}

fn run_history(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Three parses: the reference and the two managers share nothing.
    let infra = infra();
    let mut tm = TenantManager::new(self::infra());
    let mut twin = TenantManager::new(self::infra());
    let mut admitted = Admitted::new();
    let (mut accepted, mut rejected) = (0, 0);

    for _ in 0..STEPS {
        let tenant = TenantId(rng.gen_range(1..=TENANT_IDS));
        if rng.gen_range(0..3) == 0 {
            let known = admitted.remove(&tenant).is_some();
            assert_eq!(tm.depart(tenant).is_ok(), known, "depart {tenant}");
            if known {
                twin.depart(tenant).unwrap();
            }
        } else {
            // Parsed afresh for each holder (see `shares_a_declaration`).
            let source = POOL[rng.gen_range(0..POOL.len())];
            let brought = || bundle(source);
            let outcome = tm.arrive(tenant, brought());
            if admitted.contains_key(&tenant) {
                assert!(
                    matches!(outcome, Err(FlexError::Conflict(_))),
                    "{outcome:?}"
                );
                rejected += 1;
            } else {
                // The VLAN is the manager's to pick; no error names it.
                let vlan = *outcome.as_ref().unwrap_or(&VlanId(4000));
                let newcomer = TenantExtension {
                    tenant,
                    vlan,
                    bundle: brought(),
                };
                match reference_rejection(&infra, &admitted, &newcomer) {
                    None => {
                        assert!(outcome.is_ok(), "compose admits {tenant}: {outcome:?}");
                        assert_eq!(twin.arrive(tenant, brought()).unwrap(), vlan);
                        admitted.insert(tenant, newcomer);
                        accepted += 1;
                    }
                    Some(why) => {
                        assert_eq!(outcome.unwrap_err().to_string(), why.to_string());
                        rejected += 1;
                    }
                }
            }
        }
        assert_in_step(&tm, &twin, &admitted, &infra);
    }
    assert!(
        accepted > 0 && rejected > 0,
        "seed {seed}: a history exercises both"
    );
}

/// The latent bug this design removed, end to end: an arrival that only
/// the shipped order rejects must not leave the tenant half-admitted in
/// the controller.
#[test]
fn controller_rejects_what_the_shipped_order_rejects_and_stays_clean() {
    let mut ctl = Controller::new(infra(), NodeId(0), SimTime::ZERO).unwrap();
    ctl.tenant_arrive(TenantId(4), bundle(POOL[11]), SimTime::ZERO)
        .unwrap();
    let (_, before) = ctl
        .tenant_arrive(TenantId(6), bundle(POOL[13]), SimTime::ZERO)
        .unwrap();
    // Tenant 2's `scrub` namespaces to the `t2_scrub` tenant 6 wrote.
    let err = ctl
        .tenant_arrive(TenantId(2), bundle(POOL[11]), SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, FlexError::Conflict(_)), "{err}");
    assert_eq!(ctl.tenants.tenants(), vec![TenantId(4), TenantId(6)]);
    assert!(ctl.apps.apps_of_tenant(TenantId(2)).is_empty());
    assert!(ctl.services.discover("t2_scrub").is_none());
    assert_eq!(ctl.tenants.composed().unwrap().0, before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_churn_history_composes_as_from_scratch(seed in 0u64..1_000_000) {
        run_history(seed);
    }
}
