//! The workspace's hashes, each written once: FNV-1a (64-bit, over bytes or
//! over little-endian words), the storage record checksum (two FNV-style
//! 32-bit lanes over 4-byte words) and splitmix64.
//!
//! None is cryptographic. Every value feeds a pinned digest, a recording, a
//! wire trailer or a durable record, so none may change without re-pinning
//! what it feeds; the unit test below pins them all. The record checksum
//! replaced a byte-serial FNV-1a 32 (`DESIGN.md` §15): no recording or
//! summary printed a checksum, and a simulated disk outlives no process.

/// The FNV-1a 64-bit offset basis: the state before any byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit fold of `bytes` into the state `h`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One FNV-1a step of the `hash()` builtin: folds `v`'s eight bytes, low
/// byte first, into the state `h`. The state after a prefix of arguments
/// depends on that prefix alone, which is what lets the VM resume a hash
/// from a shared prefix.
#[inline]
pub fn fnv_step(mut h: u64, v: u64) -> u64 {
    for i in 0..8 {
        h ^= (v >> (i * 8)) & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the words of `values`: what the `hash()` builtin computes.
pub fn hash_values(values: &[u64]) -> u64 {
    values.iter().fold(FNV_OFFSET, |h, &v| fnv_step(h, v))
}

/// The durable record checksum: two FNV-style 32-bit lanes over the
/// little-endian 4-byte words of `bytes` — even words in one lane, odd in
/// the other, and the trailing 0–3 bytes, zero-padded, as one more word of
/// the odd lane — started from the length and joined by odd-multiply steps.
///
/// A lane step `h = rotl((h ^ w) * K, 13)` is a bijection of the word for
/// a fixed state and of the state for a fixed word, and the join is a
/// bijection of either lane for a fixed other, so a change confined to one
/// aligned 4-byte word — any single-bit flip among them — changes the
/// checksum with certainty. It needs no table, and the two lanes keep two
/// multiplies in flight: a scrub runs at word speed, not byte speed.
pub fn checksum32(bytes: &[u8]) -> u32 {
    const K: u32 = 0x9e37_79b1;
    let step = |h: u32, w: [u8; 4]| (h ^ u32::from_le_bytes(w)).wrapping_mul(K).rotate_left(13);
    let mut a = 0x811c_9dc5 ^ bytes.len() as u32;
    let mut b = 0x0100_0193u32;
    let (pairs, rest) = bytes.as_chunks::<8>();
    for pair in pairs {
        let ([lo, hi], []) = pair.as_chunks::<4>() else {
            unreachable!("8 bytes are two words")
        };
        a = step(a, *lo);
        b = step(b, *hi);
    }
    let (word, tail) = rest.as_chunks::<4>();
    if let [word] = word {
        a = step(a, *word);
    }
    if !tail.is_empty() {
        let mut padded = [0u8; 4];
        padded[..tail.len()].copy_from_slice(tail);
        b = step(b, padded);
    }
    let mut h = a.wrapping_mul(0x85eb_ca77) ^ b;
    h = (h ^ (h >> 15)).wrapping_mul(0xc2b2_ae3d);
    h ^ (h >> 16)
}

/// splitmix64's stream increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64: decorrelates consecutive seeds into independent streams
/// (the workspace's one seed-expansion hash — schedules, retry jitter, the
/// chaos suites and in-flight bit flips all draw through it).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The next draw of the splitmix64 stream whose state is `stream`.
pub fn mix_next(stream: &mut u64) -> u64 {
    let z = mix(*stream);
    *stream = stream.wrapping_add(GAMMA);
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hash_keeps_its_pinned_values() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv_step(FNV_OFFSET, 0), 0xa8c7_f832_281a_39c5);
        assert_eq!(
            fnv_step(FNV_OFFSET, 0x0102_0304_0506_0708),
            0x0c6d_4496_e178_59d5
        );
        let word = 0x0102_0304_0506_0708u64;
        assert_eq!(fnv_step(7, word), fnv1a(7, &word.to_le_bytes()));
        assert_eq!(hash_values(&[]), FNV_OFFSET);
        assert_eq!(hash_values(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
        assert_eq!(checksum32(b""), 0x3a72_e385);
        assert_eq!(checksum32(b"a"), 0x8562_45e4);
        assert_eq!(checksum32(b"foobar"), 0x00b1_eecc);
        assert_eq!(checksum32(b"intent 3 dev 1,2,4"), 0x54e0_3638);
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(1), 0x910a_2dec_8902_5cc1);
        let mut stream = 7;
        let draws = [(); 3].map(|()| mix_next(&mut stream));
        assert_eq!(
            draws,
            [
                0x63cb_e1e4_5932_0dd7,
                0x044c_3cd7_f43c_661c,
                0xe698_4080_bab1_2a02
            ]
        );
        assert_eq!(stream, 0xdaa6_6d2c_7ddf_7446);
    }

    /// Payloads of every length from 0 to 40 bytes (every tail and lane
    /// split) plus a 1 KiB one: flipping any one bit, and replacing any one
    /// aligned word with any of a spread of other values, changes the
    /// checksum.
    #[test]
    fn any_change_inside_one_aligned_word_is_detected() {
        let mut stream = 11;
        let mut payloads: Vec<Vec<u8>> = (0..=40usize)
            .map(|n| (0..n).map(|_| mix_next(&mut stream) as u8).collect())
            .collect();
        payloads.push((0..1024).map(|_| mix_next(&mut stream) as u8).collect());
        for p in &payloads {
            let clean = checksum32(p);
            let mut rotted = p.clone();
            for bit in 0..8 * p.len() {
                rotted[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum32(&rotted), clean, "{} bytes, bit {bit}", p.len());
                rotted[bit / 8] ^= 1 << (bit % 8);
            }
            for start in (0..p.len()).step_by(4) {
                let end = (start + 4).min(p.len());
                for _ in 0..16 {
                    let other = mix_next(&mut stream).to_le_bytes();
                    rotted[start..end].copy_from_slice(&other[..end - start]);
                    if rotted[start..end] != p[start..end] {
                        let n = p.len();
                        assert_ne!(checksum32(&rotted), clean, "{n} bytes, word at {start}");
                    }
                }
                rotted[start..end].copy_from_slice(&p[start..end]);
            }
        }
    }
}
