//! The app gallery, shared by the test files that sweep "every program".

use flexnet_lang::diff::ProgramBundle;

/// Every program the app gallery can produce, spanning maps, registers,
/// counters, meters, exact/LPM/ternary tables, punts, and services.
pub fn gallery() -> Vec<(&'static str, ProgramBundle)> {
    use flexnet::apps as a;
    vec![
        ("cms", a::telemetry::count_min_sketch(4, 1024).unwrap()),
        ("heavy_hitter", a::telemetry::heavy_hitter(256, 16).unwrap()),
        ("path_tracer", a::telemetry::path_tracer(7).unwrap()),
        ("firewall", a::security::firewall(64).unwrap()),
        ("syn_defense", a::security::syn_defense(20, 100).unwrap()),
        (
            "rate_limiter",
            a::security::rate_limiter(1_000, 64).unwrap(),
        ),
        ("l3_router", a::routing::l3_router(64).unwrap()),
        ("vlan_gateway", a::routing::vlan_gateway().unwrap()),
        ("ecmp", a::lb::ecmp(4).unwrap()),
        ("hula", a::lb::hula(4).unwrap()),
        ("ecn_marking", a::cc::ecn_marking(100).unwrap()),
        ("dctcp_host", a::cc::dctcp_host().unwrap()),
        ("hpcc_nic", a::cc::hpcc_nic().unwrap()),
        ("bbr_host", a::cc::bbr_host().unwrap()),
    ]
}
