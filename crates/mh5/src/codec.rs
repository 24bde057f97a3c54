//! Chunk payload codecs.
//!
//! Detector backgrounds are long runs of identical values, so a byte-level
//! run-length codec is worthwhile; the writer keeps a chunk compressed only
//! when it actually shrinks, so pathological inputs cost at most a copy.

use crate::error::Mh5Error;
use crate::Result;

/// How a chunk payload is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Verbatim little-endian element bytes.
    Raw,
    /// Byte run-length encoding: a stream of `(run_len: u8 ≥ 1, byte)` pairs.
    Rle,
}

impl Codec {
    /// Stable on-disk code.
    pub const fn code(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Rle => 1,
        }
    }

    /// Decode an on-disk code.
    pub fn from_code(code: u8) -> Result<Codec> {
        Ok(match code {
            0 => Codec::Raw,
            1 => Codec::Rle,
            other => return Err(Mh5Error::Corrupt(format!("unknown codec code {other}"))),
        })
    }
}

/// RLE-encode `data`. Always succeeds; may be longer than the input.
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let run = run_len(&data[i..]);
        out.push(run as u8);
        out.push(data[i]);
        i += run;
    }
    out
}

/// Length of the run of `data[0]` that opens `data`, capped at 255.
/// Compares 8 bytes at a time; the first differing byte of a word is its
/// lowest nonzero byte of the little-endian XOR.
fn run_len(data: &[u8]) -> usize {
    let b = data[0];
    let max = data.len().min(255);
    let pattern = u64::from_le_bytes([b; 8]);
    let mut run = 1;
    while run + 8 <= max {
        let word = u64::from_le_bytes(data[run..run + 8].try_into().expect("an 8-byte window"));
        let diff = word ^ pattern;
        if diff != 0 {
            return run + (diff.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    while run < max && data[run] == b {
        run += 1;
    }
    run
}

/// Decode an RLE stream, validating that it expands to exactly
/// `expected_len` bytes. The output is reserved by what the stream can
/// hold (255 bytes per pair), never by the claimed length alone.
pub fn rle_decode(data: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return Err(Mh5Error::Corrupt("RLE stream has odd length".into()));
    }
    let mut out = Vec::with_capacity(expected_len.min(255 * (data.len() / 2)));
    for pair in data.chunks_exact(2) {
        let (run, b) = (pair[0] as usize, pair[1]);
        if run == 0 {
            return Err(Mh5Error::Corrupt("RLE run of length zero".into()));
        }
        if out.len() + run > expected_len {
            return Err(Mh5Error::Corrupt(format!(
                "RLE stream expands past expected length {expected_len}"
            )));
        }
        out.resize(out.len() + run, b);
    }
    if out.len() != expected_len {
        return Err(Mh5Error::Corrupt(format!(
            "RLE stream expands to {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Encode a chunk with the requested codec preference, falling back to raw
/// when compression does not pay. Returns the payload and the codec actually
/// used; a raw payload is `data` itself, not a copy.
pub fn encode_chunk(data: Vec<u8>, prefer: Codec) -> (Vec<u8>, Codec) {
    match prefer {
        Codec::Raw => (data, Codec::Raw),
        Codec::Rle => {
            let enc = rle_encode(&data);
            if enc.len() < data.len() {
                (enc, Codec::Rle)
            } else {
                (data, Codec::Raw)
            }
        }
    }
}

/// Decode a chunk payload stored with `codec` into `raw_len` bytes; a raw
/// payload is returned as is, not copied.
pub fn decode_chunk(payload: Vec<u8>, codec: Codec, raw_len: usize) -> Result<Vec<u8>> {
    match codec {
        Codec::Raw => {
            if payload.len() != raw_len {
                return Err(Mh5Error::Corrupt(format!(
                    "raw chunk is {} bytes, directory records {raw_len}",
                    payload.len()
                )));
            }
            Ok(payload)
        }
        Codec::Rle => rle_decode(&payload, raw_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte-scanning encoder, one comparison per byte: the oracle.
    fn reference_rle_encode(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 2);
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while run < 255 && i + run < data.len() && data[i + run] == b {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        out
    }

    #[test]
    fn codes_round_trip() {
        assert_eq!(Codec::from_code(Codec::Raw.code()).unwrap(), Codec::Raw);
        assert_eq!(Codec::from_code(Codec::Rle.code()).unwrap(), Codec::Rle);
        assert!(Codec::from_code(7).is_err());
    }

    #[test]
    fn rle_round_trips() {
        for data in [
            vec![],
            vec![42u8],
            vec![0u8; 1000],
            (0..=255u8).collect::<Vec<_>>(),
            vec![1, 1, 1, 2, 2, 3, 3, 3, 3, 3],
            vec![9u8; 300], // run longer than 255
        ] {
            let enc = rle_encode(&data);
            assert_eq!(rle_decode(&enc, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn rle_compresses_constant_data() {
        let data = vec![7u8; 10_000];
        let enc = rle_encode(&data);
        assert!(
            enc.len() < 100,
            "constant data should compress well: {}",
            enc.len()
        );
    }

    #[test]
    fn encode_chunk_falls_back_to_raw() {
        let incompressible: Vec<u8> = (0..=255u8).collect();
        let (payload, codec) = encode_chunk(incompressible.clone(), Codec::Rle);
        assert_eq!(codec, Codec::Raw);
        assert_eq!(payload, incompressible);
    }

    #[test]
    fn decode_rejects_corrupt_streams() {
        assert!(rle_decode(&[3], 3).is_err(), "odd length");
        assert!(rle_decode(&[0, 5], 0).is_err(), "zero run");
        assert!(rle_decode(&[200, 1], 10).is_err(), "expands too far");
        assert!(rle_decode(&[5, 1], 10).is_err(), "expands too little");
        assert!(
            decode_chunk(vec![1, 2, 3], Codec::Raw, 4).is_err(),
            "raw length mismatch"
        );
    }

    #[test]
    fn decode_reserves_by_the_stream_not_the_claim() {
        // One pair cannot expand to a terabyte; reserving the claimed size
        // up front would abort the process instead of returning an error.
        assert!(matches!(
            rle_decode(&[3, 7], 1 << 40),
            Err(Mh5Error::Corrupt(_))
        ));
    }

    /// Runs of random length (often past 255) over a small alphabet, so
    /// neighbouring runs sometimes share a byte.
    fn runs() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0u8..4, 1usize..700), 0..12).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encoder_matches_byte_scanning_reference_on_runs(data in runs()) {
            let enc = rle_encode(&data);
            prop_assert_eq!(&enc, &reference_rle_encode(&data));
            prop_assert_eq!(rle_decode(&enc, data.len()).unwrap(), data.clone());
            let (payload, codec) = encode_chunk(data.clone(), Codec::Rle);
            if enc.len() < data.len() {
                prop_assert_eq!((payload, codec), (enc, Codec::Rle));
            } else {
                prop_assert_eq!((payload, codec), (data, Codec::Raw));
            }
        }

        #[test]
        fn encoder_matches_reference_on_incompressible_input(
            data in proptest::collection::vec(any::<u8>(), 0..2000)
        ) {
            prop_assert_eq!(rle_encode(&data), reference_rle_encode(&data));
            let (payload, codec) = encode_chunk(data.clone(), Codec::Rle);
            let want = if reference_rle_encode(&data).len() < data.len() {
                Codec::Rle
            } else {
                Codec::Raw
            };
            prop_assert_eq!(codec, want);
            prop_assert_eq!(decode_chunk(payload, codec, data.len()).unwrap(), data);
        }
    }
}
