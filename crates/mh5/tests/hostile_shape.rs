//! A file whose metadata claims a dataset far larger than its chunks hold.
//!
//! A random byte flip never reaches the chunk directory checks: the
//! metadata CRC-32 fails first. So this test decodes a valid file's object
//! table, grows one dataset's shape and chunk shape to 65,536 × 65,536 (one
//! chunk either way, so the directory still matches the grid), re-seals the
//! block with `mh5::crc::crc32`, and reads the dataset. The read must fail
//! with a typed error before it allocates for the claimed 8 GiB. CI runs
//! this binary under a virtual-memory limit, so an output sized from the
//! claim aborts the job instead of passing on a runner with spare memory.

use std::path::PathBuf;

use mh5::crc::crc32;
use mh5::meta::{ObjectTable, Payload};
use mh5::shape::{Chunking, Shape};
use mh5::{Codec, Dtype, FileReader, FileWriter, Mh5Error, HEADER_LEN};

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mh5_hostile_{}_{name}.mh5", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Rewrite the metadata block of the file at `path` through `mutate`,
/// re-sealed with its CRC-32. The encoded table keeps its length.
fn reseal(path: &PathBuf, mutate: impl FnOnce(&mut ObjectTable)) {
    let mut bytes = std::fs::read(path).unwrap();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (meta_offset, meta_len) = (word(12), word(20));
    let block = &bytes[meta_offset..meta_offset + meta_len];
    let mut table = ObjectTable::decode(&block[4..]).unwrap();
    mutate(&mut table);
    let body = table.encode();
    assert_eq!(
        body.len() + 4,
        meta_len,
        "the mutation keeps the block length"
    );
    bytes[meta_offset..meta_offset + 4].copy_from_slice(&crc32(&body).to_le_bytes());
    bytes[meta_offset + 4..meta_offset + meta_len].copy_from_slice(&body);
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn a_claimed_shape_its_chunks_cannot_hold_is_a_typed_error() {
    let p = tmp("grown");
    let mut w = FileWriter::create(&p).unwrap();
    let ds = w
        .create_dataset(FileWriter::ROOT, "counts", Dtype::U16, &[4, 8], &[4, 8])
        .unwrap();
    let data: Vec<u16> = (0..32).collect();
    w.write_all(ds, &data).unwrap();
    w.finish().unwrap();
    assert!(std::fs::metadata(&p).unwrap().len() > HEADER_LEN);

    let huge = Shape::new(&[65_536, 65_536]).unwrap();
    reseal(&p, |table| {
        let Payload::Dataset(meta) = &mut table.objects[1].payload else {
            panic!("object 1 is the dataset");
        };
        assert_eq!(meta.chunks.len(), 1);
        meta.chunking = Chunking::new(huge, huge).unwrap();
    });

    let r = FileReader::open(&p).expect("the re-sealed metadata is consistent");
    let ds = r.resolve_path("/counts").unwrap();
    assert_eq!(r.dataset_info(ds).unwrap().shape, vec![65_536, 65_536]);
    match r.read_all::<u16>(ds) {
        Err(Mh5Error::Corrupt(msg)) => assert!(msg.contains("raw length"), "{msg}"),
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }
    // A small hyperslab of the claimed dataset touches the same chunk and
    // fails the same way.
    assert!(matches!(
        r.read_hyperslab::<u16>(ds, &[0, 0], &[2, 2]),
        Err(Mh5Error::Corrupt(_))
    ));
    std::fs::remove_file(&p).ok();
}

#[test]
fn a_chunk_whose_stored_bytes_cannot_expand_is_a_typed_error() {
    let p = tmp("short");
    let mut w = FileWriter::create(&p).unwrap();
    let ds = w
        .create_dataset_with_codec(
            FileWriter::ROOT,
            "counts",
            Dtype::U16,
            &[4, 8],
            &[4, 8],
            Codec::Rle,
        )
        .unwrap();
    // Both bytes of 0x0707 match, so the chunk stores as one RLE pair.
    w.write_all(ds, &[0x0707u16; 32]).unwrap();
    w.finish().unwrap();
    // Claim a raw payload more than 255 bytes per stored RLE pair.
    reseal(&p, |table| {
        let Payload::Dataset(meta) = &mut table.objects[1].payload else {
            panic!("object 1 is the dataset");
        };
        let shape = Shape::new(&[4_096, 4_096]).unwrap();
        meta.chunking = Chunking::new(shape, shape).unwrap();
        meta.chunks[0].raw_len = 4_096 * 4_096 * 2;
    });
    let r = FileReader::open(&p).unwrap();
    let ds = r.resolve_path("/counts").unwrap();
    assert_eq!(r.dataset_info(ds).unwrap().stored_bytes, 2);
    match r.read_all::<u16>(ds) {
        Err(Mh5Error::Corrupt(msg)) => assert!(msg.contains("cannot expand"), "{msg}"),
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }
    std::fs::remove_file(&p).ok();
}
