//! CRC64 over device-word payloads, for checksummed transfers.
//!
//! The checked copy variants ([`crate::Device::memcpy_htod_checked_on`] and
//! friends) compare a CRC of the payload before the wire against a CRC of
//! what landed. CRC-64/XZ's generator polynomial detects every single-bit
//! error (the code is linear and no `x^j` is divisible by the degree-64
//! polynomial), which is exactly the corruption class the fault injector
//! models — so a scripted flip can never slip through a checked copy.
//!
//! The simulator hashes the 64-bit storage words directly rather than a
//! serialized byte stream: buffers store one element per word
//! ([`crate::DeviceScalar::to_word`]), so word identity *is* payload
//! identity. Each word is its 8 little-endian bytes, so `crc ^= word`
//! followed by one slicing-by-8 table step (eight 256-entry tables, built
//! once at first use) is exactly the CRC-64/XZ of that byte stream: the
//! value 64 bit-serial shift/xor steps per word give. How fast this
//! simulator hashes is separate from what the cost model charges:
//! [`crate::Device::CRC64_FLOPS_PER_BYTE`] prices the paper-era host's
//! byte-serial CRC, independently of this implementation.

/// Reflected CRC-64/XZ generator polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Lazily initialised slicing-by-8 tables for [`POLY`]: table `k` holds the
/// CRC contribution of a byte followed by `k` zero bytes.
fn tables() -> &'static [[u64; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u64; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u64;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            for (entry, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *entry = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC64 over a stream of 64-bit payload words.
pub fn crc64<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let t = tables();
    let mut crc = !0u64;
    for w in words {
        let x = crc ^ w;
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-serial CRC64, one shift/xor step per bit: the oracle.
    fn reference_crc64<I: IntoIterator<Item = u64>>(words: I) -> u64 {
        let mut crc = !0u64;
        for w in words {
            crc ^= w;
            for _ in 0..64 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_answer_is_crc64_xz() {
        // The catalogue check value of CRC-64/XZ is over "123456789", which
        // is not a whole number of words; feed it bytewise through table 0.
        let mut crc = !0u64;
        for &b in b"123456789" {
            crc = tables()[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        assert_eq!(!crc, 0x995D_C9BB_DF19_39FA);
        // A word stream is its little-endian bytes: the two words of
        // "12345678ABCDEFGH" read the CRC-64/XZ of those 16 bytes.
        let word = |s: &[u8; 8]| u64::from_le_bytes(*s);
        assert_eq!(
            crc64([word(b"12345678"), word(b"ABCDEFGH")]),
            0xDF75_8BD2_D376_28A6
        );
        assert_eq!(crc64([]), 0);
    }

    #[test]
    fn empty_and_zero_payloads_differ() {
        assert_ne!(crc64([]), crc64([0u64]));
        assert_ne!(crc64([0u64]), crc64([0u64, 0]));
    }

    #[test]
    fn deterministic() {
        let payload = [1u64, 2, 3, u64::MAX];
        assert_eq!(crc64(payload), crc64(payload));
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let payload: Vec<u64> = (0..4u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let clean = crc64(payload.iter().copied());
        for elem in 0..payload.len() {
            for bit in 0..64 {
                let mut flipped = payload.clone();
                flipped[elem] ^= 1u64 << bit;
                assert_ne!(
                    crc64(flipped),
                    clean,
                    "flip at word {elem} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn order_matters() {
        assert_ne!(crc64([1u64, 2]), crc64([2u64, 1]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_matches_bit_serial(words in proptest::collection::vec(any::<u64>(), 0..300)) {
            prop_assert_eq!(
                crc64(words.iter().copied()),
                reference_crc64(words.iter().copied())
            );
        }
    }
}
