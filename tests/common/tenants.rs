//! The tenant churn of a `ctl_txn`-shaped control operation: the
//! infrastructure program, the tenant sources, and the step that keeps
//! eight tenants live. Shared by the allocation budget
//! (`tests/control_alloc.rs`) and the microbenchmarks, so both measure the
//! same composition.

use flexnet::prelude::*;
use std::collections::VecDeque;

pub const INFRA: &str = "program infra kind switch {
   counter total;
   service provide migrate_state(dst: u32);
   handler ingress(pkt) { count(total); forward(0); }
 }";

/// How many tenants stay live.
pub const TENANTS: usize = 8;

/// A tenant extension of one of three flavours; every constant comes from
/// the op number.
pub fn tenant_source(op: u64) -> String {
    match op % 3 {
        0 => format!(
            "program meter{op} kind any {{
               counter seen;
               map hits : map<u32, u32>[{size}];
               handler ingress(pkt) {{
                 count(seen);
                 let c = map_get(hits, ipv4.src) + {inc};
                 map_put(hits, ipv4.src, c);
                 if (c > {limit}) {{ drop(); }}
               }}
             }}",
            size = 64 << (op % 3),
            inc = 1 + op % 4,
            limit = 1000 + op * 977,
        ),
        1 => format!(
            "program acl{op} kind any {{
               counter denied;
               table rules {{
                 key {{ ipv4.src : exact; tcp.dport : exact; }}
                 action deny() {{ count(denied); drop(); }}
                 action pass() {{ }}
                 default pass();
                 size {size};
               }}
               handler ingress(pkt) {{
                 if (valid(tcp) && tcp.dport == {port}) {{ apply rules; }}
               }}
             }}",
            size = 16 << (op % 3),
            port = 1 + op * 131,
        ),
        _ => format!(
            "program sketch{op} kind any {{
               register row : u64[{width}];
               counter updates;
               handler ingress(pkt) {{
                 let i = hash(ipv4.src, ipv4.dst, {salt}) % {width};
                 reg_write(row, i, reg_read(row, i) + 1);
                 count(updates);
               }}
             }}",
            width = 128 << (op % 3),
            salt = op * 7919 % 65_536,
        ),
    }
}

/// Op `op`'s churn: once eight tenants are live the oldest departs, then
/// op `op`'s tenant arrives with `extension`. Returns the composition.
pub fn churn(
    ctl: &mut Controller,
    live: &mut VecDeque<TenantId>,
    op: u64,
    extension: ProgramBundle,
    now: SimTime,
) -> ProgramBundle {
    churn_keeping(TENANTS, ctl, live, op, extension, now)
}

/// [`churn`] keeping `keep` (at most 64) tenants live.
pub fn churn_keeping(
    keep: usize,
    ctl: &mut Controller,
    live: &mut VecDeque<TenantId>,
    op: u64,
    extension: ProgramBundle,
    now: SimTime,
) -> ProgramBundle {
    if live.len() >= keep {
        let oldest = live.pop_front().expect("tenants are live");
        ctl.tenant_depart(oldest).expect("a live tenant departs");
    }
    let tenant = TenantId(op as u32 % 64 + 1);
    let (_vlan, composed) = ctl
        .tenant_arrive(tenant, extension, now)
        .expect("the tenant arrives");
    live.push_back(tenant);
    composed
}
