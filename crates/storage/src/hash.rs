//! The engine's hash function.
//!
//! Section 4.3 of the paper notes that the *same* hash function is used for
//! NUMA partitioning and for the hash-table bucket index (partitioning uses
//! the lowest bits here, the table uses the highest bits), which co-locates
//! matching join pairs on the same socket. We use a 64-bit
//! multiply-xorshift finaliser (Murmur3/splitmix-style): fast, good
//! avalanche, no per-query seeds needed (the engine is not exposed to
//! untrusted keys in these experiments).

/// Hash a 64-bit key.
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash a signed key (join keys are `i64` in the engine).
#[inline]
pub fn hash_i64(x: i64) -> u64 {
    hash64(x as u64)
}

/// The 128-bit product of `a` and `b`, its halves folded by xor: every
/// input bit reaches every output bit in one multiply.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Little-endian `N`-byte word of `bytes` at `at`.
#[inline]
fn word<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N].try_into().expect("in bounds")
}

/// Hash a byte string, a word at a time: each 8-byte little-endian word
/// is folded into the state with one widening multiply. The last word is
/// the string's last eight bytes, overlapping the one before it; a string
/// under eight bytes is read as two overlapping 4-byte halves, or (under
/// four) as its first, middle and last byte. The length seeds the state,
/// which makes those overlaps unambiguous, and the state goes through the
/// 64-bit finaliser. Dictionaries precompute this per value
/// ([`crate::Dictionary::hash_of`]), so a code hashes as its string does.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const K0: u64 = 0xa076_1d64_78bd_642f;
    const K1: u64 = 0xe703_7ed1_a0b4_28db;
    let len = bytes.len();
    let mut h = (len as u64) ^ K0;
    let last = if len >= 8 {
        let mut at = 0;
        while at + 8 < len {
            h = fold_mul(h ^ u64::from_le_bytes(word(bytes, at)), K1);
            at += 8;
        }
        u64::from_le_bytes(word(bytes, len - 8))
    } else if len >= 4 {
        let half = |at| u64::from(u32::from_le_bytes(word(bytes, at)));
        half(0) | half(len - 4) << 32
    } else if len > 0 {
        u64::from(bytes[0]) | u64::from(bytes[len / 2]) << 8 | u64::from(bytes[len - 1]) << 16
    } else {
        0
    };
    hash64(fold_mul(h ^ last, K1))
}

/// Combine two hashes (for composite keys).
#[inline]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    hash64(a ^ b.rotate_left(32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(42), hash64(42));
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(hash64(1), hash64(2));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"b"));
        assert_ne!(
            hash_combine(hash64(1), hash64(2)),
            hash_combine(hash64(2), hash64(1))
        );
    }

    #[test]
    fn avalanche_spreads_low_bits() {
        // Sequential keys must not map to sequential buckets: count
        // collisions in the top 8 bits over 1000 sequential keys.
        let mut buckets = [0u32; 256];
        for k in 0..1000u64 {
            buckets[(hash64(k) >> 56) as usize] += 1;
        }
        let max = buckets.iter().copied().max().unwrap();
        assert!(
            max < 20,
            "top-bit distribution too skewed: max bucket {max}"
        );
    }

    #[test]
    fn near_identical_strings_spread_over_high_and_low_bits() {
        // TPC-H keys differ in a digit or two: both ends of the hash (the
        // table's high bits, partitioning's low bits) must still spread.
        let (mut high, mut low) = ([0u32; 256], [0u32; 256]);
        for k in 0..10_000 {
            for s in [format!("Customer#{k:09}"), format!("{k}")] {
                let h = hash_bytes(s.as_bytes());
                high[(h >> 56) as usize] += 1;
                low[(h & 0xff) as usize] += 1;
            }
        }
        // 20,000 keys over 256 buckets: 78 each on average.
        for buckets in [high, low] {
            let max = buckets.iter().copied().max().unwrap();
            assert!(max < 120, "skewed: max bucket {max}");
        }
    }

    #[test]
    fn every_byte_and_every_length_counts() {
        // Lengths 0–40 cover the short-string reads and each tail length
        // (0–7) over several whole words; zero bytes make a shorter
        // string's overlapping reads the thing to tell apart.
        let data: Vec<u8> = (0..40u8).map(|i| if i % 3 == 0 { 0 } else { i }).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=data.len() {
            let s = &data[..len];
            assert!(
                seen.insert(hash_bytes(s)),
                "prefix of length {len} collides"
            );
            for i in 0..len {
                let mut t = s.to_vec();
                t[i] ^= 0x80;
                assert_ne!(hash_bytes(&t), hash_bytes(s), "byte {i} of {len} ignored");
            }
        }
    }

    #[test]
    fn signed_hash_matches_bit_pattern() {
        assert_eq!(hash_i64(-1), hash64(u64::MAX));
    }
}
