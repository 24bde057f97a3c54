//! CRC-32 (IEEE 802.3 polynomial, reflected) for metadata and chunk
//! integrity.
//!
//! Slicing-by-8: eight 256-entry tables, built once at first use, fold
//! eight input bytes per step (table `k` holds the CRC contribution of a
//! byte followed by `k` zero bytes), and the tail of fewer than eight bytes
//! goes through table 0 one byte at a time. The values are the ubiquitous
//! zlib/PNG CRC, so they can be cross-checked with external tools, and a
//! streaming [`Crc32`] fed any split of the input reads the same value as
//! the one-shot [`crc32`].

/// Reflected IEEE generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Lazily initialised slicing-by-8 tables for [`POLY`].
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
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

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let x = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")) ^ c as u64;
            c = t[7][(x & 0xFF) as usize]
                ^ t[6][((x >> 8) & 0xFF) as usize]
                ^ t[5][((x >> 16) & 0xFF) as usize]
                ^ t[4][((x >> 24) & 0xFF) as usize]
                ^ t[3][((x >> 32) & 0xFF) as usize]
                ^ t[2][((x >> 40) & 0xFF) as usize]
                ^ t[1][((x >> 48) & 0xFF) as usize]
                ^ t[0][(x >> 56) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-at-a-time CRC-32, one table step per byte: the oracle.
    fn reference_crc32(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard zlib/PNG test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(77) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn sliced_matches_bytewise_at_every_short_length() {
        // Every length 0..64 crosses the 8-byte fold and the tail.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=data.len() {
            assert_eq!(crc32(&data[..n]), reference_crc32(&data[..n]), "n={n}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 512];
        let base = crc32(&data);
        for pos in [0usize, 100, 511] {
            data[pos] ^= 0x40;
            assert_ne!(crc32(&data), base, "flip at {pos} must change CRC");
            data[pos] ^= 0x40;
        }
    }

    /// A byte string and two split points inside it.
    fn bytes_and_cuts() -> impl Strategy<Value = (Vec<u8>, usize, usize)> {
        (0usize..1500)
            .prop_flat_map(|n| (proptest::collection::vec(any::<u8>(), n..=n), 0..=n, 0..=n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_matches_bytewise_one_shot_and_split(case in bytes_and_cuts()) {
            let (data, a, b) = case;
            let want = reference_crc32(&data);
            prop_assert_eq!(crc32(&data), want);
            let (lo, hi) = (a.min(b), a.max(b));
            let mut h = Crc32::new();
            h.update(&data[..lo]);
            h.update(&data[lo..hi]);
            h.update(&data[hi..]);
            prop_assert_eq!(h.finish(), want, "split at {} and {}", lo, hi);
        }
    }
}
