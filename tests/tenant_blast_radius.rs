//! The blast radius of one rogue tenant on a shared device, pinned.
//!
//! Composition puts every tenant's extension into one program per device
//! (`lang::compose`), while the sandbox quarantines per installed
//! program: a trap storm in one tenant's block swaps the whole
//! composition for the device's last-known-good one. This test measures
//! what that costs the tenants that did nothing wrong.
//!
//! Eight tenants share one device. Tenants 1, 2 and 4–8 run the three
//! `ctl_txn` flavours; tenant 3 arrives last with a runaway loop that the
//! verifier bounds but that no low gas budget covers, so the device's
//! previous flip left it the seven-tenant composition as its fallback.
//! Every round sends one packet on each benign tenant's VLAN and a burst
//! of eight on tenant 3's. The count is of benign packets served by a
//! program other than the intended eight-tenant composition. Today it is
//! every benign packet after the quarantine, and every benign tenant is
//! hit: containment per tenant is open work, and a change that contains
//! the storm changes the pinned numbers on purpose.
//!
//! The test also pins what the swap rolls back. The fallback holds its
//! state as of the last flip, so every counter increment written after that
//! flip and before the quarantine is lost.

#[path = "common/tenants.rs"]
mod tenants;

use flexnet::apps;
use flexnet::prelude::*;
use flexnet_dataplane::SandboxConfig;
use flexnet_types::Sym;

/// The rogue tenant's extension: 512 register updates a packet, inside the
/// verifier's bound, far over the gas budget below.
const ROGUE_BURN: &str = "program burn kind any {
   register spin : u64[1];
   handler ingress(pkt) {
     repeat (64) {
       repeat (8) { reg_write(spin, 0, reg_read(spin, 0) + 1); }
     }
     forward(1);
   }
 }";

const ROGUE: TenantId = TenantId(3);
/// Packets tenant 3 sends per round.
const BURST: usize = 8;
const ROUNDS: usize = 16;

/// Every counter of the active program by name, with its packet count.
fn counters(dev: &Device) -> Vec<(String, u64)> {
    let state = dev.snapshot_state().unwrap();
    state
        .counters
        .into_iter()
        .map(|(name, (pkts, _))| (name, pkts))
        .collect()
}

/// A TCP packet on `vlan`, with the routing metadata the programs read.
fn packet(id: u64, vlan: VlanId) -> Packet {
    let mut p = Packet::tcp(id, 10 + id as u32 % 7, 2, 3, 80, 0x10);
    p.insert_header_sym(
        flexnet_types::Header::vlan(u64::from(vlan.0)),
        Some(Sym::ETH),
    );
    p.metadata.insert("dst_node".into(), 1);
    p
}

#[test]
fn a_rogue_tenant_takes_every_co_resident_tenant_off_its_program() {
    let infra = apps::build(tenants::INFRA).unwrap();
    let mut ctl = Controller::new(infra.clone(), NodeId(1), SimTime::ZERO).unwrap();
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(infra).unwrap();

    // Seven benign tenants, then the rogue (the churn's op `n` brings
    // tenant `n + 1`): each arrival is one hitless flip.
    let (mut now, mut live) = (SimTime::from_millis(1), std::collections::VecDeque::new());
    for op in [0, 1, 3, 4, 5, 6, 7, 2] {
        let source = match op {
            2 => ROGUE_BURN.to_string(),
            _ => tenants::tenant_source(op),
        };
        let extension = apps::build(&source).unwrap();
        let composed = tenants::churn(&mut ctl, &mut live, op, extension, now);
        let report = dev.begin_runtime_reconfig(composed, now).unwrap();
        dev.tick(report.ready_at);
        now = report.ready_at + SimDuration::from_millis(1);
    }
    let intended = dev.version();
    let intended_digest = dev.config_digest();
    assert_eq!(live.len(), 8);
    dev.set_sandbox(SandboxConfig { gas_limit: 256 });

    // tenant → (packets sent, packets served by another program).
    let mut served_elsewhere = std::collections::BTreeMap::<TenantId, (u64, u64)>::new();
    let (mut id, mut rogue_traps, mut rogue_forwarded, mut quarantined_at) = (0u64, 0, 0, None);
    let mut before_quarantine = Vec::new();
    for _ in 0..ROUNDS {
        for tenant in ctl.tenants.tenants() {
            let vlan = ctl.tenants.vlan_of(tenant).unwrap();
            let sends = if tenant == ROGUE { BURST } else { 1 };
            for _ in 0..sends {
                id += 1;
                if quarantined_at.is_none() {
                    before_quarantine = counters(&dev);
                }
                let result = dev.process(&mut packet(id, vlan), now).unwrap();
                if tenant == ROGUE {
                    rogue_traps += u64::from(result.trap.is_some());
                    rogue_forwarded += u64::from(result.verdict != Verdict::Drop);
                } else {
                    assert_eq!(result.trap, None, "benign tenant {tenant} trapped");
                    let entry = served_elsewhere.entry(tenant).or_default();
                    entry.0 += 1;
                    entry.1 += u64::from(result.version != intended);
                }
                if dev.quarantined() && quarantined_at.is_none() {
                    quarantined_at = Some(id);
                }
            }
        }
    }

    // The storm quarantined the device at the first packet that took the
    // window's trap rate to one half: tenant 3's ninth, the 18th packet.
    assert_eq!((quarantined_at, rogue_traps), (Some(18), 9));
    assert_eq!(dev.stats().quarantines, 1);
    // The whole composition was swapped, not the rogue's block: every
    // benign tenant is served by the fallback from then on, and the
    // fallback, which has no block for tenant 3, forwards the rogue's
    // remaining packets through the infrastructure.
    assert_ne!(dev.config_digest(), intended_digest);
    assert_eq!(rogue_forwarded, (ROUNDS * BURST) as u64 - 9);
    let hit: Vec<(u32, u64, u64)> = (served_elsewhere.into_iter())
        .map(|(tenant, (sent, elsewhere))| (tenant.0, sent, elsewhere))
        .collect();
    let total: u64 = hit.iter().map(|&(_, _, elsewhere)| elsewhere).sum();
    println!(
        "benign packets served by another program: {total} of {}",
        7 * ROUNDS
    );
    assert_eq!(
        hit,
        [
            (1, 16, 14),
            (2, 16, 14),
            (4, 16, 15),
            (5, 16, 15),
            (6, 16, 15),
            (7, 16, 15),
            (8, 16, 15)
        ]
    );
    assert_eq!(total, 103);

    // The rollback. Just before the quarantining packet, the composition
    // had counted 9 packets in `total`. Tenant 1 had two `seen`, tenants 4
    // and 7 one `seen` each, and tenant 6 one `updates`. (The rogue's
    // trapped packets add nothing to `total`.) At the end, each counter
    // holds only what the fallback counted after the swap: `total` the 222
    // packets after the 18th, and each benign tenant the packets served by
    // the fallback. So all those increments are lost, as predicted. The
    // ACL tenants' `denied` stays 0, because their tables are empty.
    let names = [
        "t1_seen",
        "t2_denied",
        "t4_seen",
        "t5_denied",
        "t6_updates",
        "t7_seen",
        "t8_denied",
        "total",
    ];
    let pin = |counts: [u64; 8]| {
        names
            .map(String::from)
            .into_iter()
            .zip(counts)
            .collect::<Vec<_>>()
    };
    assert_eq!(before_quarantine, pin([2, 0, 1, 0, 1, 1, 0, 9]));
    assert_eq!(counters(&dev), pin([14, 0, 15, 0, 15, 15, 0, 222]));
}
