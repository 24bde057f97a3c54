//! Writing mh5 files.
//!
//! The writer streams chunk payloads to disk as they arrive and keeps only
//! metadata in memory; the metadata block and header back-patch happen in
//! [`FileWriter::finish`]. Datasets may be written wholesale
//! ([`write_all`](FileWriter::write_all)) or chunk by chunk
//! ([`write_chunk`](FileWriter::write_chunk)) for generators that produce
//! one image at a time.
//!
//! Writes are crash-safe: everything goes to `<path>.tmp`, and only
//! [`FileWriter::finish`] — after a flush and fsync — atomically renames the
//! temporary into place. An interrupted export therefore never leaves a
//! truncated or headerless file at the destination; at worst a stale `.tmp`
//! remains (and a writer dropped without finishing removes it).

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::attr::AttrValue;
use crate::codec::{encode_chunk, Codec};
use crate::crc::crc32;
use crate::dtype::{encode_slice, Dtype, Element};
use crate::error::Mh5Error;
use crate::extend::ExtendableState;
use crate::meta::{validate_name, ChunkEntry, DatasetMeta, Object, ObjectId, ObjectTable, Payload};
use crate::shape::{copy_box, Chunking, Shape};
use crate::{Result, FORMAT_VERSION, HEADER_LEN, MAGIC};

/// Streaming writer for an mh5 file.
#[derive(Debug)]
pub struct FileWriter {
    out: BufWriter<File>,
    /// Where the bytes actually go until `finish` renames them into place.
    tmp_path: PathBuf,
    /// The destination the caller asked for.
    final_path: PathBuf,
    table: ObjectTable,
    /// Per-dataset chunk directories being filled (`None` = not yet written).
    pending: Vec<Option<Vec<Option<ChunkEntry>>>>,
    /// Preferred codec per dataset.
    codecs: Vec<Codec>,
    /// Growing datasets (see [`crate::extend`]).
    extendables: Vec<ExtendableState>,
    /// Next payload byte goes here.
    offset: u64,
    finished: bool,
}

impl FileWriter {
    /// The root group of every file.
    pub const ROOT: ObjectId = ObjectId(0);

    /// Open a writer targeting `path`. Bytes stream into `<path>.tmp` —
    /// the destination itself is untouched until [`FileWriter::finish`]
    /// renames the completed file into place.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<FileWriter> {
        let final_path = path.as_ref().to_path_buf();
        let file_name = final_path
            .file_name()
            .ok_or_else(|| Mh5Error::WriterState("path has no file name".into()))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp_path = final_path.with_file_name(tmp_name);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?; // metadata offset, patched later
        out.write_all(&0u64.to_le_bytes())?; // metadata length
        out.write_all(&0u64.to_le_bytes())?; // file length
        out.flush()?;
        Ok(FileWriter {
            out,
            tmp_path,
            final_path,
            table: ObjectTable::with_root(),
            pending: vec![None],
            codecs: vec![Codec::Raw],
            extendables: Vec::new(),
            offset: HEADER_LEN,
            finished: false,
        })
    }

    fn check_open(&self) -> Result<()> {
        if self.finished {
            return Err(Mh5Error::WriterState("writer already finished".into()));
        }
        Ok(())
    }

    fn add_child(&mut self, parent: ObjectId, name: &str, payload: Payload) -> Result<ObjectId> {
        validate_name(name)?;
        if self.table.child(parent, name)?.is_some() {
            return Err(Mh5Error::DuplicateName(name.to_string()));
        }
        let id = ObjectId(self.table.objects.len() as u32);
        self.table.objects.push(Object {
            name: name.to_string(),
            attrs: Vec::new(),
            payload,
        });
        match &mut self.table.get_mut(parent)?.payload {
            Payload::Group { children } => children.push(id.0),
            Payload::Dataset(_) => {
                // `child` above already rejected datasets; defensive.
                return Err(Mh5Error::WrongKind {
                    path: name.to_string(),
                    expected: "group",
                });
            }
        }
        Ok(id)
    }

    /// Create a group under `parent`.
    pub fn create_group(&mut self, parent: ObjectId, name: &str) -> Result<ObjectId> {
        self.check_open()?;
        let id = self.add_child(
            parent,
            name,
            Payload::Group {
                children: Vec::new(),
            },
        )?;
        self.pending.push(None);
        self.codecs.push(Codec::Raw);
        Ok(id)
    }

    /// Create a dataset under `parent` with raw (uncompressed) chunks.
    pub fn create_dataset(
        &mut self,
        parent: ObjectId,
        name: &str,
        dtype: Dtype,
        shape: &[usize],
        chunk_shape: &[usize],
    ) -> Result<ObjectId> {
        self.create_dataset_with_codec(parent, name, dtype, shape, chunk_shape, Codec::Raw)
    }

    /// Create a dataset choosing the preferred chunk codec. With
    /// [`Codec::Rle`], each chunk falls back to raw storage when RLE does not
    /// shrink it.
    pub fn create_dataset_with_codec(
        &mut self,
        parent: ObjectId,
        name: &str,
        dtype: Dtype,
        shape: &[usize],
        chunk_shape: &[usize],
        codec: Codec,
    ) -> Result<ObjectId> {
        self.check_open()?;
        let chunking = Chunking::new(Shape::new(shape)?, Shape::new(chunk_shape)?)?;
        let n_chunks = chunking.n_chunks();
        let id = self.add_child(
            parent,
            name,
            Payload::Dataset(DatasetMeta {
                dtype,
                chunking,
                chunks: Vec::new(),
            }),
        )?;
        self.pending.push(Some(vec![None; n_chunks]));
        self.codecs.push(codec);
        Ok(id)
    }

    /// Set (or replace) an attribute on any object.
    pub fn set_attr(&mut self, obj: ObjectId, name: &str, value: AttrValue) -> Result<()> {
        self.check_open()?;
        validate_name(name)?;
        let o = self.table.get_mut(obj)?;
        if let Some(slot) = o.attrs.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            o.attrs.push((name.to_string(), value));
        }
        Ok(())
    }

    pub(crate) fn register_extendable(&mut self, state: ExtendableState) {
        self.extendables.push(state);
    }

    pub(crate) fn extendable_mut(&mut self, ds: ObjectId) -> Option<&mut ExtendableState> {
        self.extendables.iter_mut().find(|e| e.dataset == ds)
    }

    /// Grow an extendable dataset's pending chunk directory to `total`.
    pub(crate) fn reserve_extendable_chunks(&mut self, ds: ObjectId, total: usize) -> Result<()> {
        let dir = self.pending[ds.index()]
            .as_mut()
            .ok_or_else(|| Mh5Error::WriterState("not a dataset".into()))?;
        if dir.len() < total {
            dir.resize(total, None);
        }
        // Patch the recorded shape so write_chunk's bounds checks see the
        // grown axis.
        let state_slices = self
            .extendables
            .iter()
            .find(|e| e.dataset == ds)
            .map(|e| e.n_slices)
            .unwrap_or(0);
        if let Payload::Dataset(meta) = &mut self.table.get_mut(ds)?.payload {
            let mut shape = meta.chunking.shape.dims().to_vec();
            shape[0] = state_slices.max(1);
            let chunk = meta.chunking.chunk.dims().to_vec();
            meta.chunking = Chunking::new(Shape::new(&shape)?, Shape::new(&chunk)?)?;
        }
        Ok(())
    }

    /// The dataset's metadata, checked to hold elements of type `T`.
    fn typed_dataset_meta<T: Element>(&self, ds: ObjectId) -> Result<&DatasetMeta> {
        let meta = match &self.table.get(ds)?.payload {
            Payload::Dataset(m) => m,
            Payload::Group { .. } => {
                return Err(Mh5Error::WrongKind {
                    path: self.table.get(ds)?.name.clone(),
                    expected: "dataset",
                })
            }
        };
        if T::DTYPE != meta.dtype {
            return Err(Mh5Error::TypeMismatch {
                expected: T::DTYPE.name(),
                actual: meta.dtype.name(),
            });
        }
        Ok(meta)
    }

    /// Write one chunk (by linear chunk index) of a dataset. `data` must
    /// contain exactly the chunk's (clipped) elements in row-major order.
    pub fn write_chunk<T: Element>(
        &mut self,
        ds: ObjectId,
        chunk_index: usize,
        data: &[T],
    ) -> Result<()> {
        self.check_open()?;
        let meta = self.typed_dataset_meta::<T>(ds)?;
        let n_chunks = meta.chunking.n_chunks();
        if chunk_index >= n_chunks {
            return Err(Mh5Error::BadShape(format!(
                "chunk index {chunk_index} outside directory of {n_chunks}"
            )));
        }
        let expected = meta.chunking.chunk_elements(chunk_index);
        if data.len() != expected {
            return Err(Mh5Error::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        self.put_chunk(ds, chunk_index, encode_slice(data))
    }

    /// Encode `raw` (one chunk's element bytes) with the dataset's codec,
    /// checksum it, and stream it to disk as directory slot `chunk_index`.
    fn put_chunk(&mut self, ds: ObjectId, chunk_index: usize, raw: Vec<u8>) -> Result<()> {
        let dir = self.pending[ds.index()]
            .as_mut()
            .expect("dataset always has a pending directory");
        if dir[chunk_index].is_some() {
            return Err(Mh5Error::WriterState(format!(
                "chunk {chunk_index} written twice"
            )));
        }
        let raw_len = raw.len() as u64;
        let (payload, codec) = encode_chunk(raw, self.codecs[ds.index()]);
        let checksum = crc32(&payload);
        self.out.write_all(&payload)?;
        dir[chunk_index] = Some(ChunkEntry {
            offset: self.offset,
            stored_len: payload.len() as u64,
            raw_len,
            codec,
            checksum,
        });
        self.offset += payload.len() as u64;
        Ok(())
    }

    /// Write a whole dataset at once; `data` is the full row-major array.
    pub fn write_all<T: Element>(&mut self, ds: ObjectId, data: &[T]) -> Result<()> {
        self.check_open()?;
        let chunking = self.typed_dataset_meta::<T>(ds)?.chunking;
        let n_elements = chunking.shape.n_elements();
        if data.len() != n_elements {
            return Err(Mh5Error::LengthMismatch {
                expected: n_elements,
                actual: data.len(),
            });
        }
        self.write_array_chunks(ds, &chunking, data, 0)
    }

    /// Write every chunk of the row-major array `data` (shaped and chunked
    /// by `chunking`) into directory slots `first_chunk..`. A chunk that is
    /// one contiguous run of `data` — extent 1 on its leading axes, full
    /// extent on its trailing ones — is encoded straight from its slice;
    /// any other is gathered with [`copy_box`] from the array's bytes,
    /// which are encoded once, on the first such chunk.
    pub(crate) fn write_array_chunks<T: Element>(
        &mut self,
        ds: ObjectId,
        chunking: &Chunking,
        data: &[T],
        first_chunk: usize,
    ) -> Result<()> {
        let rank = chunking.shape.rank();
        let dims = chunking.shape.dims();
        let elem = T::DTYPE.size();
        let mut bytes: Option<Vec<u8>> = None;
        for ci in 0..chunking.n_chunks() {
            let coords = chunking.chunk_coords(ci);
            let origin = &chunking.chunk_origin(&coords[..rank])[..rank];
            let extent = &chunking.chunk_extent(&coords[..rank])[..rank];
            let n: usize = extent.iter().product();
            let contiguous = (0..rank)
                .any(|k| extent[..k].iter().all(|&e| e == 1) && extent[k + 1..] == dims[k + 1..]);
            let raw = if contiguous {
                let start = chunking.shape.linear_index(origin);
                encode_slice(&data[start..start + n])
            } else {
                let bytes = bytes.get_or_insert_with(|| encode_slice(data));
                let mut buf = vec![0u8; n * elem];
                copy_box(
                    bytes,
                    dims,
                    origin,
                    &mut buf,
                    extent,
                    &vec![0; rank],
                    extent,
                    elem,
                );
                buf
            };
            self.put_chunk(ds, first_chunk + ci, raw)?;
        }
        Ok(())
    }

    /// Finish the file: verify every dataset is complete, append the
    /// CRC-protected metadata block, patch the header, fsync, and
    /// atomically rename the temporary into the destination. The
    /// destination either keeps its old content or gains the complete new
    /// file — never anything in between.
    pub fn finish(mut self) -> Result<()> {
        self.check_open()?;
        // Finalize extendable datasets: at least one slice, shape patched.
        for state in &self.extendables {
            if state.n_slices == 0 {
                let name = self.table.get(state.dataset)?.name.clone();
                return Err(Mh5Error::WriterState(format!(
                    "extendable dataset {name:?} never received a slice"
                )));
            }
        }
        // Move pending chunk directories into the table, verifying coverage.
        for (idx, pending) in self.pending.iter_mut().enumerate() {
            if let Some(dir) = pending.take() {
                let name = self.table.objects[idx].name.clone();
                let mut chunks = Vec::with_capacity(dir.len());
                for (ci, e) in dir.into_iter().enumerate() {
                    match e {
                        Some(e) => chunks.push(e),
                        None => {
                            return Err(Mh5Error::WriterState(format!(
                                "dataset {name:?} chunk {ci} never written"
                            )))
                        }
                    }
                }
                if let Payload::Dataset(meta) = &mut self.table.objects[idx].payload {
                    meta.chunks = chunks;
                }
            }
        }
        let body = self.table.encode();
        let crc = crc32(&body);
        let meta_offset = self.offset;
        let meta_len = 4 + body.len() as u64;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&body)?;
        let file_len = meta_offset + meta_len;
        // Patch the header.
        self.out.flush()?;
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(12))?;
        file.write_all(&meta_offset.to_le_bytes())?;
        file.write_all(&meta_len.to_le_bytes())?;
        file.write_all(&file_len.to_le_bytes())?;
        file.flush()?;
        // Durability before visibility: the temporary's bytes must be on
        // disk before the rename makes them the destination.
        file.sync_all()?;
        fs::rename(&self.tmp_path, &self.final_path)?;
        // Persist the rename itself (best effort — not all platforms allow
        // opening a directory for sync).
        if let Some(parent) = self.final_path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        self.finished = true;
        Ok(())
    }
}

impl Drop for FileWriter {
    fn drop(&mut self) {
        // An unfinished writer (abandoned or errored) leaves the
        // destination untouched; clean up its temporary.
        if !self.finished {
            let _ = fs::remove_file(&self.tmp_path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mh5_writer_{}_{name}.mh5", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn header_is_written_up_front() {
        let p = tmp("header");
        let tmp_file =
            p.with_file_name(format!("{}.tmp", p.file_name().unwrap().to_string_lossy()));
        let w = FileWriter::create(&p).unwrap();
        // The in-flight bytes live in the temporary, header first...
        let bytes = std::fs::read(&tmp_file).unwrap();
        assert!(bytes.len() >= HEADER_LEN as usize);
        assert_eq!(&bytes[..8], &MAGIC);
        // ...while the destination stays untouched until `finish`.
        assert!(!p.exists(), "destination must not exist mid-write");
        drop(w);
        assert!(
            !tmp_file.exists(),
            "abandoned writer cleans up its temporary"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn finish_renames_atomically_and_failed_finish_leaves_no_output() {
        let p = tmp("atomic");
        let tmp_file =
            p.with_file_name(format!("{}.tmp", p.file_name().unwrap().to_string_lossy()));

        // A complete write lands at the destination, temporary gone.
        let mut w = FileWriter::create(&p).unwrap();
        let ds = w
            .create_dataset(FileWriter::ROOT, "d", Dtype::U8, &[2], &[2])
            .unwrap();
        w.write_chunk(ds, 0, &[7u8, 9]).unwrap();
        w.finish().unwrap();
        assert!(p.exists());
        assert!(!tmp_file.exists());
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(&bytes[..8], &MAGIC, "finished file is a valid mh5");

        // A failed finish (incomplete dataset) must not clobber the
        // previously finished file, and must clean its temporary.
        let mut w = FileWriter::create(&p).unwrap();
        w.create_dataset(FileWriter::ROOT, "d", Dtype::U8, &[4], &[2])
            .unwrap();
        assert!(w.finish().is_err());
        assert_eq!(
            std::fs::read(&p).unwrap(),
            bytes,
            "old output survives an interrupted rewrite"
        );
        assert!(!tmp_file.exists());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn duplicate_names_rejected() {
        let p = tmp("dup");
        let mut w = FileWriter::create(&p).unwrap();
        w.create_group(FileWriter::ROOT, "entry").unwrap();
        assert!(matches!(
            w.create_group(FileWriter::ROOT, "entry"),
            Err(Mh5Error::DuplicateName(_))
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn invalid_names_rejected() {
        let p = tmp("names");
        let mut w = FileWriter::create(&p).unwrap();
        assert!(w.create_group(FileWriter::ROOT, "a/b").is_err());
        assert!(w.create_group(FileWriter::ROOT, "").is_err());
        assert!(w.set_attr(FileWriter::ROOT, "", AttrValue::Int(1)).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_dtype_rejected() {
        let p = tmp("dtype");
        let mut w = FileWriter::create(&p).unwrap();
        let ds = w
            .create_dataset(FileWriter::ROOT, "d", Dtype::U16, &[4], &[2])
            .unwrap();
        let bad = [1.0f64, 2.0];
        assert!(matches!(
            w.write_chunk(ds, 0, &bad),
            Err(Mh5Error::TypeMismatch { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_chunk_length_rejected() {
        let p = tmp("len");
        let mut w = FileWriter::create(&p).unwrap();
        let ds = w
            .create_dataset(FileWriter::ROOT, "d", Dtype::U16, &[5], &[2])
            .unwrap();
        // chunks: [2, 2, 1]
        assert!(w.write_chunk(ds, 0, &[1u16, 2]).is_ok());
        assert!(matches!(
            w.write_chunk(ds, 2, &[1u16, 2]),
            Err(Mh5Error::LengthMismatch {
                expected: 1,
                actual: 2
            })
        ));
        assert!(w.write_chunk(ds, 3, &[1u16]).is_err(), "index out of range");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn double_write_rejected() {
        let p = tmp("double");
        let mut w = FileWriter::create(&p).unwrap();
        let ds = w
            .create_dataset(FileWriter::ROOT, "d", Dtype::U8, &[2], &[2])
            .unwrap();
        w.write_chunk(ds, 0, &[1u8, 2]).unwrap();
        assert!(matches!(
            w.write_chunk(ds, 0, &[1u8, 2]),
            Err(Mh5Error::WriterState(_))
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn finish_requires_complete_datasets() {
        let p = tmp("incomplete");
        let mut w = FileWriter::create(&p).unwrap();
        let ds = w
            .create_dataset(FileWriter::ROOT, "d", Dtype::U8, &[4], &[2])
            .unwrap();
        w.write_chunk(ds, 0, &[1u8, 2]).unwrap();
        assert!(matches!(w.finish(), Err(Mh5Error::WriterState(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn write_all_matches_chunk_by_chunk_writes() {
        // The first five chunk shapes are contiguous runs of the array and
        // take the slice path; the last two are gathered. Either way the
        // file must equal one written chunk by chunk.
        let shape = [3usize, 4, 6];
        let data: Vec<u32> = (0..72u32).map(|i| (i / 5) * 0x0101_0101).collect();
        let chunks = [
            [1, 2, 6],
            [1, 4, 6],
            [3, 4, 6],
            [1, 1, 4],
            [2, 4, 6],
            [2, 3, 5],
            [1, 4, 3],
        ];
        for chunk in chunks {
            for codec in [Codec::Raw, Codec::Rle] {
                let write = |p: &Path, whole: bool| {
                    let mut w = FileWriter::create(p).unwrap();
                    let ds = w
                        .create_dataset_with_codec(
                            FileWriter::ROOT,
                            "d",
                            Dtype::U32,
                            &shape,
                            &chunk,
                            codec,
                        )
                        .unwrap();
                    if whole {
                        w.write_all(ds, &data).unwrap();
                    } else {
                        let chunking =
                            Chunking::new(Shape::new(&shape).unwrap(), Shape::new(&chunk).unwrap())
                                .unwrap();
                        for ci in 0..chunking.n_chunks() {
                            let coords = chunking.chunk_coords(ci);
                            let o = chunking.chunk_origin(&coords[..3]);
                            let e = chunking.chunk_extent(&coords[..3]);
                            let mut elems = Vec::new();
                            for i in o[0]..o[0] + e[0] {
                                for j in o[1]..o[1] + e[1] {
                                    for k in o[2]..o[2] + e[2] {
                                        elems.push(data[(i * shape[1] + j) * shape[2] + k]);
                                    }
                                }
                            }
                            w.write_chunk(ds, ci, &elems).unwrap();
                        }
                    }
                    w.finish().unwrap();
                    std::fs::read(p).unwrap()
                };
                let (a, b) = (tmp("whole"), tmp("by_chunk"));
                assert_eq!(
                    write(&a, true),
                    write(&b, false),
                    "chunk {chunk:?} {codec:?}"
                );
                std::fs::remove_file(&a).ok();
                std::fs::remove_file(&b).ok();
            }
        }
    }

    #[test]
    fn attrs_replace_in_place() {
        let p = tmp("attrs");
        let mut w = FileWriter::create(&p).unwrap();
        w.set_attr(FileWriter::ROOT, "x", AttrValue::Int(1))
            .unwrap();
        w.set_attr(FileWriter::ROOT, "x", AttrValue::Int(2))
            .unwrap();
        assert_eq!(w.table.objects[0].attrs.len(), 1);
        assert_eq!(w.table.objects[0].attrs[0].1, AttrValue::Int(2));
        std::fs::remove_file(&p).ok();
    }
}
