//! CRC64 over device-word payloads, for checksummed transfers.
//!
//! A checked copy ([`crate::Device::memcpy_htod`] or
//! [`crate::Device::memcpy_dtoh`] with `checked` set) compares a CRC of the
//! payload before the wire against a CRC of what landed. CRC-64/XZ's generator polynomial detects every single-bit
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
//!
//! A [`NonzeroWords`] copy hashes as the dense stream it stands for
//! ([`crc64_nonzero`]) without visiting its zeros. A zero word leaves
//! `crc ^ 0 = crc` and then takes one table step, which is a linear map `Z`
//! of the 64-bit register, so a run of `n` zero words is `Zⁿ`. The tables
//! hold `Z^(2^k)` for every `k` below 64, so a run advances through one
//! table per set bit of `n`: O(log n) for a run of any length.
//!
//! The same tables join lanes. The register after `n` words from `r` is
//! `Zⁿ(r) ⊕ raw`, where `raw` is what those words leave in a zero register.
//! So a dense stream ([`crc64`], what the checked host → device copies
//! hash) splits into four contiguous quarters stepped side by side,
//! four independent table-lookup chains instead of one, and the quarters'
//! registers combine into exactly the one-lane CRC.

use crate::memory::NonzeroWords;

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

/// One slicing-by-8 step: the register after the eight bytes of `x`
/// (the register XOR the next payload word) pass through it.
#[inline]
fn step(t: &[[u64; 256]; 8], x: u64) -> u64 {
    t[7][(x & 0xFF) as usize]
        ^ t[6][((x >> 8) & 0xFF) as usize]
        ^ t[5][((x >> 16) & 0xFF) as usize]
        ^ t[4][((x >> 24) & 0xFF) as usize]
        ^ t[3][((x >> 32) & 0xFF) as usize]
        ^ t[2][((x >> 40) & 0xFF) as usize]
        ^ t[1][((x >> 48) & 0xFF) as usize]
        ^ t[0][(x >> 56) as usize]
}

/// Registers [`crc64`] advances side by side.
const LANES: usize = 4;

/// CRC64 over the dense word streams `segments` hold one after another,
/// each a length `n` and a reader of its words `0..n`, hashed in
/// `LANES` lanes.
pub fn crc64<W: Fn(usize) -> u64>(segments: impl IntoIterator<Item = (usize, W)>) -> u64 {
    let (t, levels) = (tables(), zero_runs());
    !segments.into_iter().fold(!0u64, |crc, (n, word)| {
        advance_words(t, levels, crc, n, word)
    })
}

/// The register after the words `word(0..n)` pass through it from `crc`.
///
/// One register's table steps form a chain, each waiting for the one
/// before. So each lane takes a contiguous quarter of the words (the last
/// one also the remainder) and the lanes step side by side, the first from
/// `crc` and the others from zero. The register after `n` words from `r`
/// is `Zⁿ(r) ⊕ raw`, where `raw` is what the same words leave in a zero
/// register, so the lanes join exactly: each joined prefix is carried past
/// the next lane's words by [`advance_zeros`] and XOR-ed with that lane.
fn advance_words(
    t: &[[u64; 256]; 8],
    levels: &[Linear; 64],
    crc: u64,
    n: usize,
    word: impl Fn(usize) -> u64,
) -> u64 {
    let quarter = n / LANES;
    let mut lanes = [0u64; LANES];
    lanes[0] = crc;
    for i in 0..quarter {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = step(t, *lane ^ word(k * quarter + i));
        }
    }
    let last = LANES - 1;
    for i in LANES * quarter..n {
        lanes[last] = step(t, lanes[last] ^ word(i));
    }
    let mut joined = lanes[0];
    for (k, &lane) in lanes.iter().enumerate().skip(1) {
        let words = if k == last {
            n - last * quarter
        } else {
            quarter
        };
        joined = advance_zeros(levels, joined, words as u64) ^ lane;
    }
    joined
}

/// A linear map of the register, as sixteen nibble tables: entry `[j][v]`
/// is the image of the nibble value `v` at bit `4j`.
type Linear = [[u64; 16]; 16];

fn apply(m: &Linear, x: u64) -> u64 {
    m.iter()
        .enumerate()
        .fold(0, |acc, (j, t)| acc ^ t[((x >> (4 * j)) & 0xF) as usize])
}

/// The nibble tables of the map that sends bit `i` to `columns[i]`.
fn linear(columns: &[u64; 64]) -> Linear {
    let mut m = [[0u64; 16]; 16];
    for (j, t) in m.iter_mut().enumerate() {
        for v in 1..16usize {
            let low = v.trailing_zeros() as usize;
            t[v] = t[v & (v - 1)] ^ columns[4 * j + low];
        }
    }
    m
}

/// Lazily built zero-run tables: level `k` is `Z^(2^k)`, a run of `2^k`
/// zero words. Level 0 is one table step of each basis vector; each
/// further level squares the one before.
fn zero_runs() -> &'static [Linear; 64] {
    use std::sync::OnceLock;
    static LEVELS: OnceLock<Box<[Linear; 64]>> = OnceLock::new();
    LEVELS.get_or_init(|| {
        let t = tables();
        let mut levels = Box::new([[[0u64; 16]; 16]; 64]);
        let mut columns: [u64; 64] = std::array::from_fn(|i| step(t, 1u64 << i));
        for level in levels.iter_mut() {
            *level = linear(&columns);
            columns = columns.map(|c| apply(level, c));
        }
        levels
    })
}

/// The register after `n` zero words.
fn advance_zeros(levels: &[Linear; 64], mut crc: u64, n: u64) -> u64 {
    let mut rest = n;
    while rest != 0 {
        crc = apply(&levels[rest.trailing_zeros() as usize], crc);
        rest &= rest - 1;
    }
    crc
}

/// [`crc64`] of the dense word stream a nonzero copy stands for, its
/// zeros included, in O(log run) per zero run.
pub fn crc64_nonzero(copy: &NonzeroWords) -> u64 {
    let (t, levels) = (tables(), zero_runs());
    let mut crc = !0u64;
    let mut next = 0usize;
    for (i, w) in copy.cells() {
        crc = step(t, advance_zeros(levels, crc, (i - next) as u64) ^ w);
        next = i + 1;
    }
    !advance_zeros(levels, crc, (copy.len() - next) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`crc64`] of one slice.
    fn crc_of(words: &[u64]) -> u64 {
        crc64([(words.len(), |i: usize| words[i])])
    }

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
            crc_of(&[word(b"12345678"), word(b"ABCDEFGH")]),
            0xDF75_8BD2_D376_28A6
        );
        assert_eq!(crc_of(&[]), 0);
    }

    #[test]
    fn empty_and_zero_payloads_differ() {
        assert_ne!(crc_of(&[]), crc_of(&[0]));
        assert_ne!(crc_of(&[0]), crc_of(&[0, 0]));
    }

    #[test]
    fn deterministic() {
        let payload = [1u64, 2, 3, u64::MAX];
        assert_eq!(crc_of(&payload), crc_of(&payload));
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        // 1–9 words put the flip in every lane and every remainder slot.
        for len in 1..=9u64 {
            let payload: Vec<u64> = (0..len).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let clean = crc_of(&payload);
            for elem in 0..payload.len() {
                for bit in 0..64 {
                    let mut flipped = payload.clone();
                    flipped[elem] ^= 1u64 << bit;
                    assert_ne!(
                        crc_of(&flipped),
                        clean,
                        "flip at word {elem} of {len}, bit {bit} must be detected"
                    );
                }
            }
        }
    }

    #[test]
    fn order_matters() {
        assert_ne!(crc_of(&[1, 2]), crc_of(&[2, 1]));
    }

    /// `Z` by its definition: one zero word through the bit-serial loop.
    fn zero_word(mut crc: u64) -> u64 {
        for _ in 0..64 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        crc
    }

    #[test]
    fn every_zero_run_level_is_the_square_of_the_one_below() {
        // The levels are linear maps, so agreeing on the 64 basis vectors is
        // agreeing everywhere: level 0 is Z and level k is level k−1 twice,
        // which makes level k exactly Z^(2^k) at every k.
        let levels = zero_runs();
        for i in 0..64 {
            let e = 1u64 << i;
            assert_eq!(apply(&levels[0], e), zero_word(e), "level 0, bit {i}");
            for k in 1..64 {
                let twice = apply(&levels[k - 1], apply(&levels[k - 1], e));
                assert_eq!(apply(&levels[k], e), twice, "level {k}, bit {i}");
            }
        }
    }

    #[test]
    fn zero_runs_at_every_level_up_to_2_20_match_the_dense_crc() {
        // Runs of 2^k − 1 words take every level below k; runs of 2^k words
        // take level k alone. Each run is framed by nonzero words.
        for k in 0..=20u32 {
            for run in [(1usize << k) - 1, 1 << k] {
                let mut dense = vec![0u64; run + 2];
                dense[0] = 0x0123_4567_89AB_CDEF;
                dense[run + 1] = 1;
                let copy = NonzeroWords::from_slice(&dense).unwrap();
                let want = crc_of(&dense);
                assert_eq!(crc64_nonzero(&copy), want, "run of {run} words");
                if k <= 16 {
                    assert_eq!(want, reference_crc64(dense.iter().copied()));
                }
                let trailing = NonzeroWords::from_slice(&dense[..run + 1]).unwrap();
                assert_eq!(
                    crc64_nonzero(&trailing),
                    crc_of(&dense[..run + 1]),
                    "trailing run of {run} words"
                );
            }
        }
        assert_eq!(crc64_nonzero(&NonzeroWords::zeros(0).unwrap()), crc_of(&[]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lanes_match_bit_serial_at_every_length_to_64(
            words in proptest::collection::vec(any::<u64>(), 64),
        ) {
            // Every length 0–64: each lane remainder at every quarter size
            // up to 16.
            for len in 0..=64 {
                let want = reference_crc64(words[..len].iter().copied());
                prop_assert_eq!(crc_of(&words[..len]), want, "{} words", len);
            }
        }

        #[test]
        fn lanes_hash_a_batch_as_its_concatenation(
            slices in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..200),
                0..6,
            ),
        ) {
            let batched = crc64(slices.iter().map(|s| (s.len(), move |i: usize| s[i])));
            let whole: Vec<u64> = slices.concat();
            prop_assert_eq!(batched, reference_crc64(whole.iter().copied()));
        }

        #[test]
        fn sliced_matches_bit_serial(words in proptest::collection::vec(any::<u64>(), 0..3000)) {
            prop_assert_eq!(crc_of(&words), reference_crc64(words.iter().copied()));
        }

        #[test]
        fn nonzero_crc_matches_the_dense_stream(
            runs in proptest::collection::vec((0usize..3000, any::<u64>()), 0..40),
            tail in 0usize..5000,
        ) {
            // Zero runs of random length, each ended by one random word
            // (itself zero at times), then a trailing run.
            let mut dense = Vec::new();
            for (run, w) in runs {
                dense.resize(dense.len() + run, 0);
                dense.push(w);
            }
            dense.resize(dense.len() + tail, 0);
            let copy = NonzeroWords::from_slice(&dense).unwrap();
            prop_assert_eq!(crc64_nonzero(&copy), crc_of(&dense));
            prop_assert_eq!(crc64_nonzero(&copy), reference_crc64(dense.iter().copied()));
        }
    }
}
