//! Telemetry apps: the count-min sketch of the paper's migration argument
//! (§3.4) and a heavy-hitter reporter.

use crate::build;
use flexnet_dataplane::DeviceState;
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::{FlexError, Result};

/// Maximum sketch depth (rows are unrolled into the program text).
pub const MAX_CMS_DEPTH: usize = 8;

/// A count-min sketch: `depth` register rows of `width` cells, updated per
/// packet with row-salted hashes of the 5-tuple. Row registers are named
/// `cms_row0 … cms_row{depth-1}`; estimates are read control-plane side via
/// [`cms_estimate`].
pub fn count_min_sketch(depth: usize, width: u64) -> Result<ProgramBundle> {
    if depth == 0 || depth > MAX_CMS_DEPTH {
        return Err(FlexError::Compile(format!(
            "sketch depth must be 1..={MAX_CMS_DEPTH}"
        )));
    }
    if width == 0 {
        return Err(FlexError::Compile("sketch width must be positive".into()));
    }
    let mut decls = String::new();
    let mut updates = String::new();
    for row in 0..depth {
        decls.push_str(&format!("register cms_row{row} : u64[{width}];\n"));
        updates.push_str(&format!(
            "let i{row} = hash(ipv4.src, ipv4.dst, ipv4.proto, {row}) % {width};\n\
             reg_write(cms_row{row}, i{row}, reg_read(cms_row{row}, i{row}) + 1);\n"
        ));
    }
    build(&format!(
        "program cms kind any {{
           {decls}
           counter updates;
           handler ingress(pkt) {{
             {updates}
             count(updates);
             forward(0);
           }}
         }}"
    ))
}

/// The row-salted hash the sketch program uses, reproduced for control-
/// plane reads. Must stay in sync with the generated program text.
pub fn cms_index(src: u32, dst: u32, proto: u8, row: usize, width: u64) -> u64 {
    flexnet_types::hash::hash_values(&[src as u64, dst as u64, proto as u64, row as u64]) % width
}

/// Control-plane count-min estimate for a (src, dst, proto) key: the
/// minimum across rows.
pub fn cms_estimate(
    state: &DeviceState,
    depth: usize,
    width: u64,
    src: u32,
    dst: u32,
    proto: u8,
) -> u64 {
    (0..depth)
        .map(|row| {
            let idx = cms_index(src, dst, proto, row, width);
            state.reg_read(&format!("cms_row{row}"), idx)
        })
        .min()
        .unwrap_or(0)
}

/// A heavy-hitter reporter: counts per-source packets in a map and punts
/// the first packet that pushes a source above `threshold` to the
/// controller (a one-shot report; the controller resets the entry).
pub fn heavy_hitter(map_size: u64, threshold: u64) -> Result<ProgramBundle> {
    build(&format!(
        "program heavy_hitter kind any {{
           map counts : map<u32, u64>[{map_size}];
           counter reported;
           handler ingress(pkt) {{
             let c = map_get(counts, ipv4.src) + 1;
             map_put(counts, ipv4.src, c);
             if (c == {threshold}) {{
               count(reported);
               punt();
             }}
             forward(0);
           }}
         }}"
    ))
}

/// An in-band path tracer — one of the paper's §3.4 "utility functions for
/// network control \[that\] do not have a persistent footprint inside the
/// network, but are injected in real-time for maintenance tasks and removed
/// soon after".
///
/// Each traversed device appends itself to the packet's `meta.trace`
/// fingerprint (a rolling hash of `node_id`) and stamps `meta.hop{N}` slots
/// up to [`TRACE_MAX_HOPS`], so the controller can reconstruct the exact
/// path a probe took. `node_id` is the device identifier the controller
/// writes when injecting the tracer.
pub fn path_tracer(node_id: u32) -> Result<ProgramBundle> {
    build(&format!(
        "program path_tracer kind any {{
           counter traced;
           handler ingress(pkt) {{
             let depth = meta.trace_depth;
             if (depth < {TRACE_MAX_HOPS}) {{
               meta.trace = hash(meta.trace, {node_id});
               meta.trace_depth = depth + 1;
               count(traced);
             }}
             forward(0);
           }}
         }}"
    ))
}

/// Maximum hops recorded by [`path_tracer`].
pub const TRACE_MAX_HOPS: u64 = 16;

/// Reconstruction helper: the fingerprint `path_tracer` produces for a
/// given node sequence. The controller compares this against `meta.trace`
/// to verify which path a probe took.
pub fn trace_fingerprint(nodes: &[u32]) -> u64 {
    let mut acc = 0u64;
    for n in nodes {
        acc = flexnet_types::hash::hash_values(&[acc, *n as u64]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::{Architecture, Device, StateEncoding};
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
    fn sketch_counts_flows_accurately_when_sparse() {
        let (depth, width) = (4, 1024);
        let mut d = dev(count_min_sketch(depth, width).unwrap());
        // 30 packets of flow A, 5 of flow B.
        for i in 0..30 {
            let mut p = Packet::tcp(i, 10, 20, 1, 2, 0);
            d.process(&mut p, SimTime::ZERO).unwrap();
        }
        for i in 0..5 {
            let mut p = Packet::tcp(100 + i, 11, 21, 1, 2, 0);
            d.process(&mut p, SimTime::ZERO).unwrap();
        }
        let state = &d.program().unwrap().state;
        let a = cms_estimate(state, depth, width, 10, 20, 6);
        let b = cms_estimate(state, depth, width, 11, 21, 6);
        assert_eq!(a, 30);
        assert_eq!(b, 5);
        // Unseen flow estimates (near) zero in a sparse sketch.
        let c = cms_estimate(state, depth, width, 99, 98, 6);
        assert!(c <= 1);
    }

    #[test]
    fn sketch_never_underestimates() {
        // Overload a tiny sketch: estimates may inflate but never shrink.
        let (depth, width) = (2, 8);
        let mut d = dev(count_min_sketch(depth, width).unwrap());
        for i in 0..200u64 {
            let mut p = Packet::tcp(i, (i % 40) as u32, 1, 1, 2, 0);
            d.process(&mut p, SimTime::ZERO).unwrap();
        }
        let state = &d.program().unwrap().state;
        for src in 0..40u32 {
            let est = cms_estimate(state, depth, width, src, 1, 6);
            assert!(est >= 5, "flow {src} true count 5, estimate {est}");
        }
    }

    #[test]
    fn sketch_depth_bounds_enforced() {
        assert!(count_min_sketch(0, 8).is_err());
        assert!(count_min_sketch(MAX_CMS_DEPTH + 1, 8).is_err());
        assert!(count_min_sketch(2, 0).is_err());
    }

    #[test]
    fn heavy_hitter_reports_once_at_threshold() {
        let mut d = dev(heavy_hitter(256, 10).unwrap());
        let mut punts = 0;
        for i in 0..20 {
            let mut p = Packet::tcp(i, 5, 6, 1, 2, 0);
            if d.process(&mut p, SimTime::ZERO).unwrap().verdict == Verdict::ToController {
                punts += 1;
            }
        }
        assert_eq!(punts, 1, "exactly one report at the threshold crossing");
        assert_eq!(d.program_mut().unwrap().state.counter_read("reported"), 1);
    }

    #[test]
    fn path_tracer_fingerprints_the_route() {
        // Three devices in sequence, each running the tracer with its id.
        let route = [11u32, 22, 33];
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        for id in route {
            let mut d = dev(path_tracer(id).unwrap());
            let r = d.process(&mut pkt, SimTime::ZERO).unwrap();
            assert_eq!(r.verdict, Verdict::Forward(0));
        }
        assert_eq!(pkt.metadata["trace_depth"], 3);
        assert_eq!(pkt.metadata["trace"], trace_fingerprint(&route));
        // A different route yields a different fingerprint.
        assert_ne!(pkt.metadata["trace"], trace_fingerprint(&[22, 11, 33]));
    }

    #[test]
    fn path_tracer_bounds_depth() {
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        let mut d = dev(path_tracer(5).unwrap());
        for _ in 0..(TRACE_MAX_HOPS + 10) {
            d.process(&mut pkt, SimTime::ZERO).unwrap();
        }
        assert_eq!(pkt.metadata["trace_depth"], TRACE_MAX_HOPS);
        assert_eq!(
            d.program_mut().unwrap().state.counter_read("traced"),
            TRACE_MAX_HOPS
        );
    }

    #[test]
    fn sketch_state_migrates_losslessly() {
        // The §3.4 scenario: per-packet-mutating sketch state snapshot.
        let (depth, width) = (4, 64);
        let mut src_dev = dev(count_min_sketch(depth, width).unwrap());
        for i in 0..17 {
            let mut p = Packet::tcp(i, 1, 2, 3, 4, 0);
            src_dev.process(&mut p, SimTime::ZERO).unwrap();
        }
        let snap = src_dev.snapshot_state().unwrap();
        let mut dst_dev = dev(count_min_sketch(depth, width).unwrap());
        dst_dev.restore_state(&snap).unwrap();
        assert_eq!(
            cms_estimate(&dst_dev.program().unwrap().state, depth, width, 1, 2, 6),
            17
        );
    }
}
