//! Security defenses (paper §1.1, "Real-time security").
//!
//! These are the programs the controller "summons into the network
//! on-the-fly and retire\[s\] when attacks subside": a stateful firewall, a
//! SYN-flood defense, and a per-source rate limiter. Each is built to be
//! injected at runtime — no resident footprint is assumed beforehand.

use crate::build;
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::Result;

/// A stateful firewall: a dynamic blocklist map consulted before an ACL
/// table (`acl`) whose entries the controller manages.
///
/// `acl_size` bounds the ACL.
pub fn firewall(acl_size: u64) -> Result<ProgramBundle> {
    build(&format!(
        "program firewall kind any {{
           map blocked : map<u32, u8>[1024];
           counter dropped;
           table acl {{
             key {{ ipv4.src : exact; tcp.dport : exact; }}
             action deny() {{ count(dropped); drop(); }}
             action allow() {{ forward(0); }}
             default allow();
             size {acl_size};
           }}
           handler ingress(pkt) {{
             if (map_get(blocked, ipv4.src) == 1) {{
               count(dropped);
               drop();
             }}
             apply acl;
             forward(0);
           }}
         }}"
    ))
}

/// A SYN-flood defense: counts SYNs per destination and drops SYNs to
/// destinations above `syn_threshold`; established (ACK) traffic passes.
/// A `reports` counter lets the controller watch attack intensity, and a
/// per-source meter (`src_rate`) caps spoofed-source bursts at
/// `per_src_pps`.
pub fn syn_defense(syn_threshold: u64, per_src_pps: u64) -> Result<ProgramBundle> {
    build(&format!(
        "program syn_defense kind any {{
           map syn_counts : map<u32, u64>[4096];
           counter dropped;
           counter reports;
           meter src_rate rate {per_src_pps} burst {per_src_pps};
           handler ingress(pkt) {{
             if (valid(tcp) && (tcp.flags & 2) == 2 && (tcp.flags & 16) == 0) {{
               if (!meter_check(src_rate, ipv4.src)) {{
                 count(dropped);
                 drop();
               }}
               let c = map_get(syn_counts, ipv4.dst) + 1;
               map_put(syn_counts, ipv4.dst, c);
               count(reports);
               if (c > {syn_threshold}) {{
                 count(dropped);
                 drop();
               }}
             }}
             forward(0);
           }}
         }}"
    ))
}

/// A per-source token-bucket rate limiter.
pub fn rate_limiter(rate_pps: u64, burst: u64) -> Result<ProgramBundle> {
    build(&format!(
        "program rate_limiter kind any {{
           counter throttled;
           meter lim rate {rate_pps} burst {burst};
           handler ingress(pkt) {{
             if (!meter_check(lim, ipv4.src)) {{
               count(throttled);
               drop();
             }}
             forward(0);
           }}
         }}"
    ))
}

/// An incremental-change (patch DSL) source that hardens a running
/// `firewall` app: shrink nothing, add a SYN meter in front of the ACL and
/// flip the ACL default to deny. Demonstrates the paper's hot-patching use
/// case ("hot-patching the network against zero-day attacks before a
/// permanent fix is rolled out", §1.1).
pub fn firewall_hardening_patch() -> &'static str {
    r#"patch zero_day_mitigation on firewall {
         add counter suspicious;
         add meter syn_meter rate 1000 burst 64;
         modify handler ingress {
           prepend {
             if (valid(tcp) && (tcp.flags & 2) == 2) {
               if (!meter_check(syn_meter, ipv4.src)) {
                 count(suspicious);
                 drop();
               }
             }
           }
         }
         set_default acl deny();
       }"#
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::{Architecture, Device, StateEncoding};
    use flexnet_lang::patch::{apply_patch, parse_patch};
    use flexnet_types::{NodeId, Packet, SimTime, Verdict};

    fn dev(bundle: ProgramBundle) -> Device {
        let mut d = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle).unwrap();
        d
    }

    #[test]
    fn firewall_blocks_blocklisted_sources() {
        let mut d = dev(firewall(64).unwrap());
        let state = &mut d.program_mut().unwrap().state;
        state.map_put_at(state.map_slot("blocked").unwrap(), 666, 1);
        let mut bad = Packet::tcp(1, 666, 2, 3, 80, 0x10);
        assert_eq!(
            d.process(&mut bad, SimTime::ZERO).unwrap().verdict,
            Verdict::Drop
        );
        let mut good = Packet::tcp(2, 7, 2, 3, 80, 0x10);
        assert_eq!(
            d.process(&mut good, SimTime::ZERO).unwrap().verdict,
            Verdict::Forward(0)
        );
        assert_eq!(d.program_mut().unwrap().state.counter_read("dropped"), 1);
    }

    #[test]
    fn syn_defense_drops_floods_but_passes_established() {
        let mut d = dev(syn_defense(5, 1_000_000).unwrap());
        // 5 SYNs pass, the 6th to the same dst is dropped.
        for i in 0..5 {
            let mut syn = Packet::tcp(i, 100 + i as u32, 9, 1, 80, 0x02);
            assert_eq!(
                d.process(&mut syn, SimTime::ZERO).unwrap().verdict,
                Verdict::Forward(0),
                "syn {i} under threshold"
            );
        }
        let mut syn6 = Packet::tcp(6, 200, 9, 1, 80, 0x02);
        assert_eq!(
            d.process(&mut syn6, SimTime::ZERO).unwrap().verdict,
            Verdict::Drop
        );
        // ACK traffic to the same (attacked) destination still flows.
        let mut ack = Packet::tcp(7, 300, 9, 1, 80, 0x10);
        assert_eq!(
            d.process(&mut ack, SimTime::ZERO).unwrap().verdict,
            Verdict::Forward(0)
        );
    }

    #[test]
    fn rate_limiter_throttles_above_rate() {
        let mut d = dev(rate_limiter(10, 2).unwrap());
        let t = SimTime::ZERO;
        let mut verdicts = Vec::new();
        for i in 0..4 {
            let mut p = Packet::udp(i, 5, 6, 7, 8);
            verdicts.push(d.process(&mut p, t).unwrap().verdict);
        }
        assert_eq!(verdicts[0], Verdict::Forward(0));
        assert_eq!(verdicts[1], Verdict::Forward(0));
        assert_eq!(verdicts[2], Verdict::Drop, "burst of 2 exhausted");
        assert_eq!(d.program_mut().unwrap().state.counter_read("throttled"), 2);
    }

    #[test]
    fn hardening_patch_applies_and_verifies() {
        let base = firewall(64).unwrap();
        let patch = parse_patch(firewall_hardening_patch()).unwrap();
        let patched = apply_patch(&base, &patch).unwrap();
        // Patched program still certifies.
        let reg =
            flexnet_lang::headers::HeaderRegistry::with_user_headers(&patched.headers).unwrap();
        flexnet_lang::typecheck::check_program(&patched.program, &reg).unwrap();
        flexnet_lang::verifier::verify_program(&patched.program, &reg).unwrap();
        // Default flipped to deny: unmatched traffic is now dropped.
        let mut d = dev(patched);
        let mut p = Packet::tcp(1, 7, 2, 3, 80, 0x10);
        assert_eq!(
            d.process(&mut p, SimTime::ZERO).unwrap().verdict,
            Verdict::Drop
        );
    }

    #[test]
    fn defense_state_observable_for_scaling() {
        // The elastic scaler reads attack volume via the reports counter.
        let mut d = dev(syn_defense(1_000_000, 1_000_000).unwrap());
        for i in 0..50 {
            let mut syn = Packet::tcp(i, i as u32, 9, 1, 80, 0x02);
            d.process(&mut syn, SimTime::ZERO).unwrap();
        }
        assert_eq!(d.program_mut().unwrap().state.counter_read("reports"), 50);
    }
}
