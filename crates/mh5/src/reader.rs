//! Reading mh5 files.
//!
//! [`FileReader::open`] validates the header, truncation guard and metadata
//! CRC up front; dataset payloads are read lazily, chunk by chunk, so a
//! hyperslab read touches only the chunks it intersects — this is what lets
//! the reconstruction pipeline stream row slabs through a memory-capped
//! device without ever materialising the whole stack.

use std::cell::RefCell;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::attr::AttrValue;
use crate::codec::decode_chunk;
use crate::crc::crc32;
use crate::dtype::{decode_slice, Element};
use crate::error::Mh5Error;
use crate::meta::{DatasetInfo, DatasetMeta, ObjectId, ObjectKind, ObjectTable, Payload};
use crate::shape::copy_box;
use crate::{Result, FORMAT_VERSION, HEADER_LEN, MAGIC};

/// Read-only handle to an mh5 file.
#[derive(Debug)]
pub struct FileReader {
    file: RefCell<File>,
    table: ObjectTable,
    file_len: u64,
}

impl FileReader {
    /// Open and validate `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<FileReader> {
        let mut file = File::open(path)?;
        let actual_len = file.metadata()?.len();
        if actual_len < HEADER_LEN {
            return Err(Mh5Error::Truncated {
                expected: HEADER_LEN,
                actual: actual_len,
            });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let magic: [u8; 8] = header[..8].try_into().unwrap();
        if magic != MAGIC {
            return Err(Mh5Error::BadMagic(magic));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(Mh5Error::UnsupportedVersion(version));
        }
        let meta_offset = u64::from_le_bytes(header[12..20].try_into().unwrap());
        let meta_len = u64::from_le_bytes(header[20..28].try_into().unwrap());
        let file_len = u64::from_le_bytes(header[28..36].try_into().unwrap());
        if file_len == 0 || meta_offset == 0 {
            return Err(Mh5Error::Corrupt(
                "header was never finalized (writer did not finish)".into(),
            ));
        }
        if actual_len < file_len {
            return Err(Mh5Error::Truncated {
                expected: file_len,
                actual: actual_len,
            });
        }
        if meta_offset.checked_add(meta_len) != Some(file_len) {
            return Err(Mh5Error::Corrupt(format!(
                "metadata block [{meta_offset}, +{meta_len}) does not end at recorded file length {file_len}"
            )));
        }
        if meta_len < 4 {
            return Err(Mh5Error::Corrupt(
                "metadata block too small for its CRC".into(),
            ));
        }
        let mut block = vec![0u8; meta_len as usize];
        file.seek(SeekFrom::Start(meta_offset))?;
        file.read_exact(&mut block)?;
        let stored = u32::from_le_bytes(block[..4].try_into().unwrap());
        let computed = crc32(&block[4..]);
        if stored != computed {
            return Err(Mh5Error::ChecksumMismatch { stored, computed });
        }
        let table = ObjectTable::decode(&block[4..])?;
        // Validate the chunk directory stays inside the payload region.
        for obj in &table.objects {
            if let Payload::Dataset(ds) = &obj.payload {
                for (ci, e) in ds.chunks.iter().enumerate() {
                    let end = e.offset.checked_add(e.stored_len);
                    if e.offset < HEADER_LEN || end.is_none() || end.unwrap() > meta_offset {
                        return Err(Mh5Error::Corrupt(format!(
                            "dataset {:?} chunk {ci} payload [{}, +{}) escapes data region",
                            obj.name, e.offset, e.stored_len
                        )));
                    }
                }
            }
        }
        Ok(FileReader {
            file: RefCell::new(file),
            table,
            file_len,
        })
    }

    /// The root group.
    pub fn root(&self) -> ObjectId {
        ObjectId(0)
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Kind of an object.
    pub fn kind(&self, obj: ObjectId) -> Result<ObjectKind> {
        Ok(self.table.get(obj)?.kind())
    }

    /// Name of an object (empty for the root).
    pub fn name(&self, obj: ObjectId) -> Result<&str> {
        Ok(&self.table.get(obj)?.name)
    }

    /// Children of a group as `(name, id)` pairs, in creation order.
    pub fn list(&self, group: ObjectId) -> Result<Vec<(String, ObjectId)>> {
        let obj = self.table.get(group)?;
        match &obj.payload {
            Payload::Group { children } => children
                .iter()
                .map(|&c| {
                    let id = ObjectId(c);
                    Ok((self.table.get(id)?.name.clone(), id))
                })
                .collect(),
            Payload::Dataset(_) => Err(Mh5Error::WrongKind {
                path: obj.name.clone(),
                expected: "group",
            }),
        }
    }

    /// Resolve an absolute path like `/entry/images`.
    pub fn resolve_path(&self, path: &str) -> Result<ObjectId> {
        self.table.resolve_path(path)
    }

    /// Look up a child by name.
    pub fn child(&self, group: ObjectId, name: &str) -> Result<Option<ObjectId>> {
        self.table.child(group, name)
    }

    /// All attributes of an object.
    pub fn attrs(&self, obj: ObjectId) -> Result<&[(String, AttrValue)]> {
        Ok(&self.table.get(obj)?.attrs)
    }

    /// One attribute by name.
    pub fn attr(&self, obj: ObjectId, name: &str) -> Result<Option<&AttrValue>> {
        Ok(self
            .table
            .get(obj)?
            .attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v))
    }

    fn dataset_meta(&self, ds: ObjectId) -> Result<&DatasetMeta> {
        let obj = self.table.get(ds)?;
        match &obj.payload {
            Payload::Dataset(m) => Ok(m),
            Payload::Group { .. } => Err(Mh5Error::WrongKind {
                path: obj.name.clone(),
                expected: "dataset",
            }),
        }
    }

    /// Summary of a dataset.
    pub fn dataset_info(&self, ds: ObjectId) -> Result<DatasetInfo> {
        let m = self.dataset_meta(ds)?;
        Ok(DatasetInfo {
            dtype: m.dtype,
            shape: m.chunking.shape.dims().to_vec(),
            chunk_shape: m.chunking.chunk.dims().to_vec(),
            n_chunks: m.chunks.len(),
            stored_bytes: m.chunks.iter().map(|c| c.stored_len).sum(),
        })
    }

    /// Read and decode one chunk's raw bytes.
    fn read_chunk_bytes(&self, meta: &DatasetMeta, chunk_index: usize) -> Result<Vec<u8>> {
        let entry = meta.chunks.get(chunk_index).ok_or_else(|| {
            Mh5Error::Corrupt(format!("chunk index {chunk_index} outside directory"))
        })?;
        let expected_raw = meta.chunking.chunk_elements(chunk_index) * meta.dtype.size();
        if entry.raw_len as usize != expected_raw {
            return Err(Mh5Error::Corrupt(format!(
                "chunk {chunk_index} raw length {} != geometric size {expected_raw}",
                entry.raw_len
            )));
        }
        let mut payload = vec![0u8; entry.stored_len as usize];
        {
            let mut f = self.file.borrow_mut();
            f.seek(SeekFrom::Start(entry.offset))?;
            f.read_exact(&mut payload)?;
        }
        let computed = crc32(&payload);
        if computed != entry.checksum {
            return Err(Mh5Error::ChecksumMismatch {
                stored: entry.checksum,
                computed,
            });
        }
        decode_chunk(payload, entry.codec, entry.raw_len as usize)
    }

    /// Read an entire dataset into a row-major vector.
    pub fn read_all<T: Element>(&self, ds: ObjectId) -> Result<Vec<T>> {
        let info = self.dataset_info(ds)?;
        let offset = vec![0usize; info.shape.len()];
        self.read_hyperslab(ds, &offset, &info.shape)
    }

    /// Read a hyperslab: `count[i]` elements starting at `offset[i]` on each
    /// axis, returned row-major with shape `count`.
    pub fn read_hyperslab<T: Element>(
        &self,
        ds: ObjectId,
        offset: &[usize],
        count: &[usize],
    ) -> Result<Vec<T>> {
        let meta = self.dataset_meta(ds)?;
        if T::DTYPE != meta.dtype {
            return Err(Mh5Error::TypeMismatch {
                expected: T::DTYPE.name(),
                actual: meta.dtype.name(),
            });
        }
        let rank = meta.chunking.shape.rank();
        let elem = meta.dtype.size();
        let n_out: usize = count.iter().product();
        let mut out_bytes = vec![0u8; n_out * elem];
        meta.chunking.for_each_intersecting_chunk(
            offset,
            count,
            |ci, in_chunk, in_slab, ext| {
                let chunk_bytes = self.read_chunk_bytes(meta, ci)?;
                let coords = meta.chunking.chunk_coords(ci);
                let chunk_ext = meta.chunking.chunk_extent(&coords[..rank]);
                copy_box(
                    &chunk_bytes,
                    &chunk_ext[..rank],
                    in_chunk,
                    &mut out_bytes,
                    count,
                    in_slab,
                    ext,
                    elem,
                );
                Ok(())
            },
        )?;
        decode_slice(&out_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Dtype;
    use crate::writer::FileWriter;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mh5_reader_{}_{name}.mh5", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn write_sample(p: &PathBuf) -> Vec<u16> {
        let mut w = FileWriter::create(p).unwrap();
        let entry = w.create_group(FileWriter::ROOT, "entry").unwrap();
        w.set_attr(entry, "beamline", AttrValue::Str("34-ID-E".into()))
            .unwrap();
        w.set_attr(entry, "wire_radius_um", AttrValue::Float(25.0))
            .unwrap();
        let ds = w
            .create_dataset(entry, "images", Dtype::U16, &[4, 6, 9], &[1, 2, 9])
            .unwrap();
        let data: Vec<u16> = (0..4 * 6 * 9).map(|i| (i * 7 % 60_000) as u16).collect();
        w.write_all(ds, &data).unwrap();
        w.finish().unwrap();
        data
    }

    #[test]
    fn full_round_trip() {
        let p = tmp("round");
        let data = write_sample(&p);
        let r = FileReader::open(&p).unwrap();
        let ds = r.resolve_path("/entry/images").unwrap();
        let info = r.dataset_info(ds).unwrap();
        assert_eq!(info.shape, vec![4, 6, 9]);
        assert_eq!(info.chunk_shape, vec![1, 2, 9]);
        assert_eq!(info.n_chunks, 12);
        let back: Vec<u16> = r.read_all(ds).unwrap();
        assert_eq!(back, data);
        assert_eq!(
            r.attr(r.resolve_path("/entry").unwrap(), "wire_radius_um")
                .unwrap()
                .unwrap()
                .as_float(),
            Some(25.0)
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn hyperslab_matches_reference() {
        let p = tmp("slab");
        let data = write_sample(&p);
        let r = FileReader::open(&p).unwrap();
        let ds = r.resolve_path("/entry/images").unwrap();
        // Row-slab read across images: images 1..3, rows 3..5, all cols.
        let got: Vec<u16> = r.read_hyperslab(ds, &[1, 3, 2], &[2, 2, 5]).unwrap();
        let mut want = Vec::new();
        for img in 1..3 {
            for row in 3..5 {
                for col in 2..7 {
                    want.push(data[(img * 6 + row) * 9 + col]);
                }
            }
        }
        assert_eq!(got, want);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn out_of_bounds_selection_rejected() {
        let p = tmp("oob");
        write_sample(&p);
        let r = FileReader::open(&p).unwrap();
        let ds = r.resolve_path("/entry/images").unwrap();
        assert!(matches!(
            r.read_hyperslab::<u16>(ds, &[0, 5, 0], &[1, 2, 9]),
            Err(Mh5Error::SelectionOutOfBounds { axis: 1, .. })
        ));
        assert!(
            r.read_hyperslab::<u16>(ds, &[0, 0], &[1, 1]).is_err(),
            "rank mismatch"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let p = tmp("dtype");
        write_sample(&p);
        let r = FileReader::open(&p).unwrap();
        let ds = r.resolve_path("/entry/images").unwrap();
        assert!(matches!(
            r.read_all::<f64>(ds),
            Err(Mh5Error::TypeMismatch { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_file_detected() {
        let p = tmp("trunc");
        write_sample(&p);
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 10]).unwrap();
        assert!(matches!(
            FileReader::open(&p),
            Err(Mh5Error::Truncated { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn metadata_corruption_detected_by_crc() {
        let p = tmp("crc");
        write_sample(&p);
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip one bit in the metadata body (last 10 bytes are inside it).
        let n = bytes.len();
        bytes[n - 5] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            FileReader::open(&p),
            Err(Mh5Error::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn chunk_payload_corruption_detected() {
        // Flip a byte inside a chunk payload (not the metadata): the
        // per-chunk CRC must catch it on read, while open() succeeds.
        let p = tmp("payload");
        write_sample(&p);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[HEADER_LEN as usize + 3] ^= 0x10; // first chunk's payload
        std::fs::write(&p, &bytes).unwrap();
        let r = FileReader::open(&p).expect("metadata is intact");
        let ds = r.resolve_path("/entry/images").unwrap();
        assert!(matches!(
            r.read_all::<u16>(ds),
            Err(Mh5Error::ChecksumMismatch { .. })
        ));
        // Chunks elsewhere still read fine.
        let tail: Vec<u16> = r.read_hyperslab(ds, &[3, 4, 0], &[1, 2, 9]).unwrap();
        assert_eq!(tail.len(), 18);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_magic_detected() {
        let p = tmp("magic");
        write_sample(&p);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[0] = b'X';
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(FileReader::open(&p), Err(Mh5Error::BadMagic(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn unfinished_file_detected() {
        let p = tmp("unfinished");
        let mut w = FileWriter::create(&p).unwrap();
        let ds = w
            .create_dataset(FileWriter::ROOT, "d", Dtype::U8, &[2], &[2])
            .unwrap();
        w.write_chunk(ds, 0, &[1u8, 2]).unwrap();
        drop(w); // never finished
        assert!(FileReader::open(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn listing_and_kinds() {
        let p = tmp("list");
        write_sample(&p);
        let r = FileReader::open(&p).unwrap();
        let entries = r.list(r.root()).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "entry");
        assert_eq!(r.kind(entries[0].1).unwrap(), ObjectKind::Group);
        let inner = r.list(entries[0].1).unwrap();
        assert_eq!(inner[0].0, "images");
        assert_eq!(r.kind(inner[0].1).unwrap(), ObjectKind::Dataset);
        // Listing a dataset is a kind error.
        assert!(r.list(inner[0].1).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rle_datasets_round_trip() {
        let p = tmp("rle");
        let mut w = FileWriter::create(&p).unwrap();
        let ds = w
            .create_dataset_with_codec(
                FileWriter::ROOT,
                "flat",
                Dtype::U16,
                &[16, 16],
                &[4, 16],
                crate::codec::Codec::Rle,
            )
            .unwrap();
        // 0x0707: both little-endian bytes equal, so byte-level RLE applies.
        let data = vec![0x0707u16; 256];
        w.write_all(ds, &data).unwrap();
        w.finish().unwrap();
        let r = FileReader::open(&p).unwrap();
        let ds = r.resolve_path("/flat").unwrap();
        let info = r.dataset_info(ds).unwrap();
        assert!(
            info.stored_bytes < 256 * 2,
            "constant data should compress: {} bytes",
            info.stored_bytes
        );
        let back: Vec<u16> = r.read_all(ds).unwrap();
        assert_eq!(back, data);
        std::fs::remove_file(&p).ok();
    }
}
