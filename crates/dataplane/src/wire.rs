//! The raw-bytes wire codec.
//!
//! Everything else in the stack works on [`Packet`]s — already-parsed
//! header stacks. This module is the boundary where *untrusted bytes*
//! enter: [`parse_wire`] turns an Ethernet frame into a `Packet`, and
//! every way the bytes can lie (truncated header, impossible length
//! field, unsupported version, runaway VLAN stack) is a typed
//! [`Trap::MalformedPacket`] — never a panic, never an out-of-bounds
//! read. A malformed frame indicts the *packet*, not the installed
//! program, so the device counts parse traps separately and they never
//! feed program quarantine.
//!
//! [`encode_wire`] is the inverse for the protocols the codec speaks;
//! round-tripping is pinned by tests and exploited by the fuzz harness
//! (valid frames must parse; arbitrary bytes must parse-or-trap).

use flexnet_types::{FlexError, Header, Packet, Result, Sym, Trap};

/// Maximum 802.1Q tags the parser will walk before declaring the frame
/// malformed (real pipelines bound VLAN stacking the same way).
pub const MAX_VLAN_DEPTH: usize = 4;

/// Length of the integrity trailer appended by [`seal_frame`]: a
/// big-endian FNV-1a checksum of everything before it.
pub const FRAME_CHECKSUM_LEN: usize = 8;

/// FNV-1a over the frame bytes — the end-to-end integrity check for
/// links that can corrupt in flight.
///
/// FNV is not cryptographic; the threat model is a *faulty* fabric
/// (bit flips, truncation), not a malicious one, and a 64-bit FNV
/// catches any burst the chaos fabric can inject while staying cheap
/// enough for the per-frame hot path.
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the integrity trailer: `bytes ++ BE64(frame_checksum(bytes))`.
///
/// Sealed frames travel links modeled by the adversarial fabric;
/// [`open_frame`] verifies and strips the trailer at the receiver.
pub fn seal_frame(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() + FRAME_CHECKSUM_LEN);
    out.extend_from_slice(bytes);
    out.extend_from_slice(&frame_checksum(bytes).to_be_bytes());
    out
}

/// Verifies and strips the integrity trailer sealed by [`seal_frame`].
///
/// Returns the original frame bytes, or [`FlexError::ChecksumMismatch`]
/// if any bit of the frame (or the trailer itself) changed in flight.
/// The error is a typed *transport* failure — it feeds the retry/breaker
/// machinery and is never billed to a program as a parse trap, so
/// corruption can never push a tenant toward quarantine.
pub fn open_frame(bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < FRAME_CHECKSUM_LEN {
        // Too short to even carry a trailer: treat as a zero-want
        // mismatch so the caller still sees a transport failure.
        return Err(FlexError::ChecksumMismatch {
            want: 0,
            got: frame_checksum(bytes),
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - FRAME_CHECKSUM_LEN);
    let want = u64::from_be_bytes(trailer.try_into().expect("8-byte trailer"));
    let got = frame_checksum(body);
    if want != got {
        return Err(FlexError::ChecksumMismatch { want, got });
    }
    Ok(body)
}

/// Flips `flips` pseudo-randomly chosen bits of `bytes` in place, seeded
/// by `seed` — the chaos harness's in-flight corruption primitive.
///
/// Deterministic: the same `(len, seed, flips)` always mangles the same
/// bits, so E20 corruption schedules replay exactly. Distinct flip
/// positions are chosen (a bit is never flipped back by a later draw),
/// guaranteeing the frame genuinely differs from the original whenever
/// `flips > 0` and the buffer is non-empty.
pub fn flip_bits(bytes: &mut [u8], seed: u64, flips: u32) {
    if bytes.is_empty() {
        return;
    }
    let total_bits = bytes.len() as u64 * 8;
    let mut state = seed;
    let mut chosen = Vec::with_capacity(flips as usize);
    for _ in 0..flips.min(total_bits as u32) {
        // splitmix64 step — same generator the fabric schedules use.
        let mut pos;
        loop {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            pos = (z ^ (z >> 31)) % total_bits;
            if !chosen.contains(&pos) {
                break;
            }
        }
        chosen.push(pos);
        bytes[(pos / 8) as usize] ^= 1 << (pos % 8);
    }
}

fn trap(reason: impl Into<String>) -> flexnet_types::FlexError {
    Trap::MalformedPacket {
        reason: reason.into(),
    }
    .into()
}

/// Reads a big-endian u16 at `off`.
fn be16(b: &[u8], off: usize) -> u64 {
    ((b[off] as u64) << 8) | b[off + 1] as u64
}

/// Reads a big-endian u32 at `off`.
fn be32(b: &[u8], off: usize) -> u64 {
    ((b[off] as u64) << 24) | ((b[off + 1] as u64) << 16) | ((b[off + 2] as u64) << 8)
        | b[off + 3] as u64
}

/// Reads a big-endian u48 (MAC address) at `off`.
fn be48(b: &[u8], off: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..6 {
        v = (v << 8) | b[off + i] as u64;
    }
    v
}

/// Parses one Ethernet frame into a [`Packet`] with the given id.
///
/// Fails closed: any inconsistency in the bytes is a
/// [`Trap::MalformedPacket`] naming what was wrong. Unknown ethertypes
/// and IP protocols are *not* malformed — parsing stops and the rest of
/// the frame becomes payload, exactly like a real pipeline punting an
/// unparsed protocol past its last known header.
pub fn parse_wire(bytes: &[u8], id: u64) -> Result<Packet> {
    let mut headers: Vec<Header> = Vec::with_capacity(4);
    let mut off = 0usize;

    if bytes.len() < 14 {
        return Err(trap(format!("ethernet frame truncated (len {})", bytes.len())));
    }
    let dst = be48(bytes, 0);
    let src = be48(bytes, 6);
    let mut ethertype = be16(bytes, 12);
    off += 14;

    // 802.1Q tags, bounded.
    let mut vlans = 0usize;
    while ethertype == 0x8100 {
        vlans += 1;
        if vlans > MAX_VLAN_DEPTH {
            return Err(trap(format!("vlan stack deeper than {MAX_VLAN_DEPTH}")));
        }
        if bytes.len() < off + 4 {
            return Err(trap("vlan tag truncated"));
        }
        let tci = be16(bytes, off);
        let mut h = Header::vlan(tci & 0x0fff);
        h.fields.insert(Sym::PCP, tci >> 13);
        headers.push(h);
        ethertype = be16(bytes, off + 2);
        off += 4;
    }
    // The eth header goes outermost-first; vlan tags sit after it.
    headers.insert(0, Header::ethernet(src, dst, ethertype));

    let mut payload_start = off;
    if ethertype == 0x0800 {
        if bytes.len() < off + 20 {
            return Err(trap(format!(
                "ipv4 header truncated ({} bytes after ethernet)",
                bytes.len() - off
            )));
        }
        let version = bytes[off] >> 4;
        if version != 4 {
            return Err(trap(format!("ipv4 version {version} unsupported")));
        }
        let ihl = (bytes[off] & 0x0f) as usize;
        if ihl < 5 {
            return Err(trap(format!("ipv4 ihl {ihl} below minimum 5")));
        }
        let hdr_len = ihl * 4;
        if bytes.len() < off + hdr_len {
            return Err(trap(format!(
                "ipv4 options truncated (ihl {ihl} needs {hdr_len} bytes)"
            )));
        }
        let total_len = be16(bytes, off + 2) as usize;
        if total_len < hdr_len {
            return Err(trap(format!(
                "ipv4 total length {total_len} below header length {hdr_len}"
            )));
        }
        if total_len > bytes.len() - off {
            return Err(trap(format!(
                "ipv4 total length {total_len} exceeds frame ({} bytes left)",
                bytes.len() - off
            )));
        }
        let tos = bytes[off + 1] as u64;
        let ttl = bytes[off + 8] as u64;
        let proto = bytes[off + 9];
        let ip_src = be32(bytes, off + 12);
        let ip_dst = be32(bytes, off + 16);
        let mut h = Header::ipv4(ip_src as u32, ip_dst as u32, proto);
        h.fields.insert(Sym::TTL, ttl);
        h.fields.insert(Sym::DSCP, tos >> 2);
        h.fields.insert(Sym::ECN, tos & 0x3);
        headers.push(h);
        let l4_off = off + hdr_len;
        let l4_end = off + total_len;
        off = l4_off;
        payload_start = off;

        match proto {
            6 => {
                if l4_end < off + 20 || bytes.len() < off + 20 {
                    return Err(trap(format!(
                        "tcp header truncated ({} bytes after ipv4)",
                        l4_end.saturating_sub(off)
                    )));
                }
                let data_off = (bytes[off + 12] >> 4) as usize;
                if data_off < 5 {
                    return Err(trap(format!("tcp data offset {data_off} below minimum 5")));
                }
                if l4_end < off + data_off * 4 {
                    return Err(trap(format!(
                        "tcp options truncated (data offset {data_off} needs {} bytes)",
                        data_off * 4
                    )));
                }
                let mut h = Header::tcp(
                    be16(bytes, off) as u16,
                    be16(bytes, off + 2) as u16,
                    bytes[off + 13],
                );
                h.fields.insert(Sym::SEQ, be32(bytes, off + 4));
                h.fields.insert(Sym::ACK, be32(bytes, off + 8));
                h.fields.insert(Sym::WINDOW, be16(bytes, off + 14));
                headers.push(h);
                payload_start = off + data_off * 4;
            }
            17 => {
                if l4_end < off + 8 || bytes.len() < off + 8 {
                    return Err(trap(format!(
                        "udp header truncated ({} bytes after ipv4)",
                        l4_end.saturating_sub(off)
                    )));
                }
                let udp_len = be16(bytes, off + 4) as usize;
                if udp_len < 8 {
                    return Err(trap(format!("udp length field {udp_len} below minimum 8")));
                }
                if udp_len > l4_end - off {
                    return Err(trap(format!(
                        "udp length field {udp_len} exceeds ipv4 payload ({} bytes)",
                        l4_end - off
                    )));
                }
                headers.push(Header::udp(
                    be16(bytes, off) as u16,
                    be16(bytes, off + 2) as u16,
                ));
                payload_start = off + 8;
            }
            // Unknown L4: the rest of the IP datagram is payload.
            _ => {}
        }
        // Payload length comes from the IP total length, not the frame
        // (frames may carry padding past the datagram).
        let payload_len = l4_end.saturating_sub(payload_start) as u32;
        let mut pkt = Packet::new(id, headers, payload_len);
        pkt.payload = bytes[payload_start..l4_end].to_vec().into();
        return Ok(pkt);
    }

    // Non-IP frame: everything after the L2 headers is payload.
    let payload_len = (bytes.len() - payload_start) as u32;
    let mut pkt = Packet::new(id, headers, payload_len);
    pkt.payload = bytes[payload_start..].to_vec().into();
    Ok(pkt)
}

fn push16(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&[(v >> 8) as u8, v as u8]);
}

fn push32(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&[(v >> 24) as u8, (v >> 16) as u8, (v >> 8) as u8, v as u8]);
}

fn push48(out: &mut Vec<u8>, v: u64) {
    for i in (0..6).rev() {
        out.push((v >> (i * 8)) as u8);
    }
}

/// Reads `name` from an optional header.
fn field(h: Option<&Header>, name: Sym) -> Option<u64> {
    h.and_then(|h| h.get_sym(name))
}

/// Encodes a packet back to wire bytes for the protocols the codec
/// speaks (eth, vlan, ipv4, tcp, udp). Headers the codec does not know
/// are skipped — the encoder exists to make *valid* frames for tests
/// and the chaos suite, not to be a general serializer.
pub fn encode_wire(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let eth = pkt.header_sym(Sym::ETH);
    push48(&mut out, field(eth, Sym::DST).unwrap_or(2));
    push48(&mut out, field(eth, Sym::SRC).unwrap_or(1));

    let vlans: Vec<&Header> = pkt.headers.iter().filter(|h| h.proto == Sym::VLAN).collect();
    let has_ip = pkt.has_header_sym(Sym::IPV4);
    let inner_ethertype = if has_ip {
        0x0800
    } else {
        field(eth, Sym::ETHERTYPE).unwrap_or(0xffff)
    };
    if vlans.is_empty() {
        push16(&mut out, inner_ethertype);
    } else {
        // Each 0x8100 announces the tag that follows; the last tag
        // carries the inner ethertype.
        for (i, v) in vlans.iter().enumerate() {
            push16(&mut out, 0x8100);
            let tci = (v.get_sym(Sym::PCP).unwrap_or(0) << 13)
                | (v.get_sym(Sym::VID).unwrap_or(0) & 0x0fff);
            push16(&mut out, tci);
            if i + 1 == vlans.len() {
                push16(&mut out, inner_ethertype);
            }
        }
    }

    if let Some(ip) = pkt.header_sym(Sym::IPV4) {
        let proto = ip.get_sym(Sym::PROTO).unwrap_or(0) as u8;
        let l4: Vec<u8> = match proto {
            6 => {
                let t = pkt.header_sym(Sym::TCP);
                let mut l4 = Vec::with_capacity(20);
                push16(&mut l4, field(t, Sym::SPORT).unwrap_or(0));
                push16(&mut l4, field(t, Sym::DPORT).unwrap_or(0));
                push32(&mut l4, field(t, Sym::SEQ).unwrap_or(0));
                push32(&mut l4, field(t, Sym::ACK).unwrap_or(0));
                l4.push(5 << 4); // data offset 5, no options
                l4.push(field(t, Sym::FLAGS).unwrap_or(0) as u8);
                push16(&mut l4, field(t, Sym::WINDOW).unwrap_or(65_535));
                push16(&mut l4, 0); // checksum (unchecked by the parser)
                push16(&mut l4, 0); // urgent pointer
                l4
            }
            17 => {
                let u = pkt.header_sym(Sym::UDP);
                let mut l4 = Vec::with_capacity(8);
                push16(&mut l4, field(u, Sym::SPORT).unwrap_or(0));
                push16(&mut l4, field(u, Sym::DPORT).unwrap_or(0));
                push16(&mut l4, 8 + pkt.payload.len() as u64);
                push16(&mut l4, 0); // checksum
                l4
            }
            _ => Vec::new(),
        };
        let total_len = 20 + l4.len() + pkt.payload.len();
        out.push(0x45); // version 4, ihl 5
        let tos =
            (ip.get_sym(Sym::DSCP).unwrap_or(0) << 2) | (ip.get_sym(Sym::ECN).unwrap_or(0) & 0x3);
        out.push(tos as u8);
        push16(&mut out, total_len as u64);
        push16(&mut out, 0); // identification
        push16(&mut out, 0); // flags/fragment
        out.push(ip.get_sym(Sym::TTL).unwrap_or(64) as u8);
        out.push(proto);
        push16(&mut out, 0); // checksum (unchecked by the parser)
        push32(&mut out, ip.get_sym(Sym::SRC).unwrap_or(0));
        push32(&mut out, ip.get_sym(Sym::DST).unwrap_or(0));
        out.extend_from_slice(&l4);
    }
    out.extend_from_slice(&pkt.payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_types::FlexError;

    fn parse_trap(bytes: &[u8]) -> String {
        match parse_wire(bytes, 1) {
            Err(FlexError::Trap(Trap::MalformedPacket { reason })) => reason,
            other => panic!("expected malformed-packet trap, got {other:?}"),
        }
    }

    #[test]
    fn tcp_frame_round_trips() {
        let mut pkt = Packet::tcp(7, 0x0a000001, 0x0a000002, 1234, 80, 0x12);
        pkt.payload = vec![0xde, 0xad, 0xbe, 0xef].into();
        pkt.payload_len = 4;
        let bytes = encode_wire(&pkt);
        let parsed = parse_wire(&bytes, 7).unwrap();
        assert_eq!(parsed.get_field("ipv4.src"), Some(0x0a000001));
        assert_eq!(parsed.get_field("ipv4.dst"), Some(0x0a000002));
        assert_eq!(parsed.get_field("ipv4.proto"), Some(6));
        assert_eq!(parsed.get_field("tcp.sport"), Some(1234));
        assert_eq!(parsed.get_field("tcp.dport"), Some(80));
        assert_eq!(parsed.get_field("tcp.flags"), Some(0x12));
        assert_eq!(parsed.payload_len, 4);
        assert_eq!(&parsed.payload[..], &[0xde, 0xad, 0xbe, 0xef]);
        // A second round trip is byte-identical (the codec is stable).
        assert_eq!(encode_wire(&parsed), bytes);
    }

    #[test]
    fn udp_and_vlan_frames_round_trip() {
        let mut pkt = Packet::udp(9, 10, 20, 53, 5353);
        pkt.payload = vec![1, 2, 3].into();
        pkt.payload_len = 3;
        pkt.insert_header(flexnet_types::Header::vlan(42), Some("eth"));
        let bytes = encode_wire(&pkt);
        let parsed = parse_wire(&bytes, 9).unwrap();
        assert_eq!(parsed.get_field("vlan.vid"), Some(42));
        assert_eq!(parsed.get_field("udp.dport"), Some(5353));
        assert_eq!(parsed.get_field("ipv4.proto"), Some(17));
        assert_eq!(parsed.payload_len, 3);
    }

    #[test]
    fn non_ip_frames_parse_to_l2_only() {
        let mut arp = vec![0u8; 14];
        arp[12] = 0x08;
        arp[13] = 0x06; // ARP
        arp.extend_from_slice(&[0xaa; 28]);
        let pkt = parse_wire(&arp, 1).unwrap();
        assert!(pkt.has_header("eth"));
        assert!(!pkt.has_header("ipv4"));
        assert_eq!(pkt.payload_len, 28);
    }

    #[test]
    fn truncations_trap_with_named_reasons() {
        assert!(parse_trap(&[]).contains("ethernet frame truncated"));
        assert!(parse_trap(&[0u8; 13]).contains("ethernet frame truncated"));

        // Valid eth announcing IPv4, then nothing.
        let mut b = vec![0u8; 14];
        b[12] = 0x08;
        b[13] = 0x00;
        assert!(parse_trap(&b).contains("ipv4 header truncated"));

        // Valid eth announcing a VLAN tag, then nothing.
        let mut b = vec![0u8; 14];
        b[12] = 0x81;
        b[13] = 0x00;
        assert!(parse_trap(&b).contains("vlan tag truncated"));
    }

    #[test]
    fn impossible_length_fields_trap() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        pkt.payload = vec![].into();
        pkt.payload_len = 0;
        let good = encode_wire(&pkt);

        // Version 6 in an ipv4 slot.
        let mut b = good.clone();
        b[14] = 0x65;
        assert!(parse_trap(&b).contains("version 6"));

        // IHL below minimum.
        let mut b = good.clone();
        b[14] = 0x44;
        assert!(parse_trap(&b).contains("ihl 4"));

        // Total length larger than the frame.
        let mut b = good.clone();
        b[16] = 0xff;
        b[17] = 0xff;
        assert!(parse_trap(&b).contains("exceeds frame"));

        // Total length smaller than the IP header itself.
        let mut b = good.clone();
        b[16] = 0;
        b[17] = 10;
        assert!(parse_trap(&b).contains("below header length"));

        // TCP data offset below minimum.
        let mut b = good.clone();
        b[34 + 12] = 0x40;
        assert!(parse_trap(&b).contains("data offset 4"));
    }

    #[test]
    fn udp_length_lies_trap() {
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        pkt.payload = vec![0; 4].into();
        pkt.payload_len = 4;
        let good = encode_wire(&pkt);

        // UDP length below 8.
        let mut b = good.clone();
        b[34 + 4] = 0;
        b[34 + 5] = 3;
        assert!(parse_trap(&b).contains("below minimum 8"));

        // UDP length beyond the IP datagram.
        let mut b = good.clone();
        b[34 + 4] = 0xff;
        b[34 + 5] = 0xff;
        assert!(parse_trap(&b).contains("exceeds ipv4 payload"));
    }

    #[test]
    fn vlan_stack_is_bounded() {
        let mut b = vec![0u8; 12];
        b.extend_from_slice(&[0x81, 0x00]);
        for _ in 0..(MAX_VLAN_DEPTH + 1) {
            b.extend_from_slice(&[0x00, 0x01, 0x81, 0x00]);
        }
        assert!(parse_trap(&b).contains("vlan stack deeper"));
    }

    #[test]
    fn sealed_frames_open_clean_and_catch_any_flip() {
        let mut pkt = Packet::tcp(7, 0x0a000001, 0x0a000002, 1234, 80, 0x12);
        pkt.payload = vec![0xde, 0xad, 0xbe, 0xef].into();
        pkt.payload_len = 4;
        let bytes = encode_wire(&pkt);
        let sealed = seal_frame(&bytes);
        assert_eq!(sealed.len(), bytes.len() + FRAME_CHECKSUM_LEN);
        assert_eq!(open_frame(&sealed).unwrap(), &bytes[..]);

        // Every single-bit flip anywhere in the sealed frame — body or
        // trailer — is caught as a typed transport failure.
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut corrupt = sealed.clone();
                corrupt[byte] ^= 1 << bit;
                match open_frame(&corrupt) {
                    Err(FlexError::ChecksumMismatch { want, got }) => assert_ne!(want, got),
                    other => panic!(
                        "flip at byte {byte} bit {bit}: expected ChecksumMismatch, got {other:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn runt_sealed_frames_are_transport_failures_not_traps() {
        for len in 0..FRAME_CHECKSUM_LEN {
            let junk = vec![0xAB; len];
            match open_frame(&junk) {
                Err(FlexError::ChecksumMismatch { .. }) => {}
                other => panic!("runt of {len} bytes: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_checksum_is_order_sensitive() {
        // FNV-1a must distinguish reorderings, not just byte multisets.
        assert_ne!(frame_checksum(&[1, 2, 3]), frame_checksum(&[3, 2, 1]));
        assert_ne!(frame_checksum(&[]), frame_checksum(&[0]));
    }

    #[test]
    fn flip_bits_is_deterministic_and_always_mutates() {
        let original: Vec<u8> = (0u8..64).collect();
        for seed in [0u64, 1, 0xAD5E, u64::MAX] {
            for flips in 1..=8u32 {
                let mut a = original.clone();
                let mut b = original.clone();
                flip_bits(&mut a, seed, flips);
                flip_bits(&mut b, seed, flips);
                assert_eq!(a, b, "same seed, same damage");
                assert_ne!(a, original, "flips must actually flip");
                let changed: u32 = a
                    .iter()
                    .zip(&original)
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
                assert_eq!(changed, flips, "distinct positions: {flips} bits differ");
            }
        }
        let mut empty: Vec<u8> = vec![];
        flip_bits(&mut empty, 7, 8); // no panic on empty buffers
    }

    #[test]
    fn arbitrary_junk_never_panics() {
        // A deterministic pseudo-random byte soup; the property-based
        // harness in tests/ goes much further — this pins the unit level.
        let mut x = 0x9e3779b97f4a7c15u64;
        for len in 0..200usize {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                bytes.push(x as u8);
            }
            let _ = parse_wire(&bytes, 1); // Ok or Err(Trap) — never panic
        }
    }
}
