//! The workspace's hashes, each written once: FNV-1a (64-bit over bytes or
//! over little-endian words, 32-bit for the storage record checksum) and
//! splitmix64.
//!
//! None is cryptographic. Every value feeds a pinned digest, a recording, a
//! wire trailer or a durable record, so none may change.

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

/// FNV-1a 32-bit over `bytes`: the durable record checksum.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
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
        assert_eq!(fnv_step(FNV_OFFSET, 0x0102_0304_0506_0708), 0x0c6d_4496_e178_59d5);
        let word = 0x0102_0304_0506_0708u64;
        assert_eq!(fnv_step(7, word), fnv1a(7, &word.to_le_bytes()));
        assert_eq!(hash_values(&[]), FNV_OFFSET);
        assert_eq!(hash_values(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(1), 0x910a_2dec_8902_5cc1);
        let mut stream = 7;
        let draws = [(); 3].map(|()| mix_next(&mut stream));
        assert_eq!(draws, [0x63cb_e1e4_5932_0dd7, 0x044c_3cd7_f43c_661c, 0xe698_4080_bab1_2a02]);
        assert_eq!(stream, 0xdaa6_6d2c_7ddf_7446);
    }
}
