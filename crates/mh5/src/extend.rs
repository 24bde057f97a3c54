//! Extendable datasets: append-along-axis-0 writing.
//!
//! Beamline acquisition produces one detector image per wire step without
//! knowing up front how many steps a scan will have (scans get aborted and
//! resumed). HDF5 models this with unlimited dimensions; mh5 models the
//! useful subset: a dataset whose axis 0 grows one *slice* at a time, with
//! chunk axis 0 fixed at 1, finalized to an ordinary dataset on
//! [`crate::FileWriter::finish`].
//!
//! The reader needs no changes — an extended dataset is indistinguishable
//! from one written with a known shape.

use crate::dtype::{Dtype, Element};
use crate::error::Mh5Error;
use crate::meta::ObjectId;
use crate::shape::{Chunking, Shape};
use crate::writer::FileWriter;
use crate::Result;

/// Writer-side state of one growing dataset.
#[derive(Debug)]
pub(crate) struct ExtendableState {
    pub dataset: ObjectId,
    pub dtype: Dtype,
    /// Shape of one axis-0 slice (rank = dataset rank − 1).
    pub slice_shape: Vec<usize>,
    /// Chunking of one slice.
    pub slice_chunking: Chunking,
    /// Slices appended so far.
    pub n_slices: usize,
}

impl ExtendableState {
    pub fn elements_per_slice(&self) -> usize {
        self.slice_shape.iter().product()
    }
}

impl FileWriter {
    /// Create a dataset whose axis 0 grows by [`append_slice`]
    /// (`FileWriter::append_slice`). `slice_shape` / `slice_chunk` describe
    /// one axis-0 slice (so the final dataset has rank
    /// `slice_shape.len() + 1` and chunk shape `(1, slice_chunk…)`).
    pub fn create_extendable_dataset(
        &mut self,
        parent: ObjectId,
        name: &str,
        dtype: Dtype,
        slice_shape: &[usize],
        slice_chunk: &[usize],
    ) -> Result<ObjectId> {
        if slice_shape.len() + 1 > crate::MAX_RANK {
            return Err(Mh5Error::BadShape(format!(
                "slice rank {} leaves no room for the growth axis",
                slice_shape.len()
            )));
        }
        let slice_chunking = Chunking::new(Shape::new(slice_shape)?, Shape::new(slice_chunk)?)?;
        // Create as a 1-slice dataset; the real shape is patched at finish.
        let mut shape = Vec::with_capacity(slice_shape.len() + 1);
        shape.push(1usize);
        shape.extend_from_slice(slice_shape);
        let mut chunk = Vec::with_capacity(slice_chunk.len() + 1);
        chunk.push(1usize);
        chunk.extend_from_slice(slice_chunk);
        let id = self.create_dataset(parent, name, dtype, &shape, &chunk)?;
        self.register_extendable(ExtendableState {
            dataset: id,
            dtype,
            slice_shape: slice_shape.to_vec(),
            slice_chunking,
            n_slices: 0,
        });
        Ok(id)
    }

    /// Append one axis-0 slice (`data.len()` must equal the slice element
    /// count). Returns the index of the new slice.
    pub fn append_slice<T: Element>(&mut self, ds: ObjectId, data: &[T]) -> Result<usize> {
        let state = self
            .extendable_mut(ds)
            .ok_or_else(|| Mh5Error::WriterState("dataset is not extendable".into()))?;
        if T::DTYPE != state.dtype {
            let expected = T::DTYPE.name();
            let actual = state.dtype.name();
            return Err(Mh5Error::TypeMismatch { expected, actual });
        }
        let per_slice = state.elements_per_slice();
        if data.len() != per_slice {
            return Err(Mh5Error::LengthMismatch {
                expected: per_slice,
                actual: data.len(),
            });
        }
        let slice_idx = state.n_slices;
        state.n_slices += 1;
        let chunking = state.slice_chunking;
        // The slice's chunks are directory slots `slice_idx * n_chunks..`
        // (chunk axis 0 is 1); the pending directory grows on demand.
        let n_chunks = chunking.n_chunks();
        self.reserve_extendable_chunks(ds, (slice_idx + 1) * n_chunks)?;
        self.write_array_chunks(ds, &chunking, data, slice_idx * n_chunks)?;
        Ok(slice_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::FileReader;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mh5_extend_{}_{name}.mh5", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_then_read_back() {
        let path = tmp("basic");
        let mut w = FileWriter::create(&path).unwrap();
        let ds = w
            .create_extendable_dataset(FileWriter::ROOT, "images", Dtype::U16, &[3, 4], &[2, 4])
            .unwrap();
        let mut expect = Vec::new();
        for s in 0..5u16 {
            let slice: Vec<u16> = (0..12).map(|i| s * 100 + i).collect();
            assert_eq!(w.append_slice(ds, &slice).unwrap(), s as usize);
            expect.extend_from_slice(&slice);
        }
        w.finish().unwrap();

        let r = FileReader::open(&path).unwrap();
        let ds = r.resolve_path("/images").unwrap();
        let info = r.dataset_info(ds).unwrap();
        assert_eq!(info.shape, vec![5, 3, 4]);
        assert_eq!(info.chunk_shape, vec![1, 2, 4]);
        let all: Vec<u16> = r.read_all(ds).unwrap();
        assert_eq!(all, expect);
        // Hyperslabs across the grown axis work like any dataset.
        let mid: Vec<u16> = r.read_hyperslab(ds, &[1, 1, 0], &[3, 2, 4]).unwrap();
        assert_eq!(mid.len(), 24);
        assert_eq!(mid[0], expect[(3 + 1) * 4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_slice_length_rejected() {
        let path = tmp("len");
        let mut w = FileWriter::create(&path).unwrap();
        let ds = w
            .create_extendable_dataset(FileWriter::ROOT, "d", Dtype::F64, &[4], &[2])
            .unwrap();
        assert!(matches!(
            w.append_slice(ds, &[1.0f64, 2.0]),
            Err(Mh5Error::LengthMismatch {
                expected: 4,
                actual: 2
            })
        ));
        assert!(matches!(
            w.append_slice(ds, &[1u16, 2, 3, 4]),
            Err(Mh5Error::TypeMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appending_to_ordinary_dataset_rejected() {
        let path = tmp("ordinary");
        let mut w = FileWriter::create(&path).unwrap();
        let ds = w
            .create_dataset(FileWriter::ROOT, "d", Dtype::F64, &[4], &[2])
            .unwrap();
        assert!(matches!(
            w.append_slice(ds, &[1.0f64, 2.0, 3.0, 4.0]),
            Err(Mh5Error::WriterState(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_slices_is_a_finish_error() {
        let path = tmp("empty");
        let mut w = FileWriter::create(&path).unwrap();
        let _ds = w
            .create_extendable_dataset(FileWriter::ROOT, "d", Dtype::U8, &[4], &[4])
            .unwrap();
        assert!(matches!(w.finish(), Err(Mh5Error::WriterState(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rank_limit_enforced() {
        let path = tmp("rank");
        let mut w = FileWriter::create(&path).unwrap();
        assert!(w
            .create_extendable_dataset(
                FileWriter::ROOT,
                "d",
                Dtype::U8,
                &[2, 2, 2, 2],
                &[1, 1, 1, 1]
            )
            .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_chunks_in_slices_round_trip() {
        // Slice 5 wide, chunk 2 wide → clipped edge chunk per slice.
        let path = tmp("edges");
        let mut w = FileWriter::create(&path).unwrap();
        let ds = w
            .create_extendable_dataset(FileWriter::ROOT, "d", Dtype::I32, &[5], &[2])
            .unwrap();
        w.append_slice(ds, &[1i32, 2, 3, 4, 5]).unwrap();
        w.append_slice(ds, &[-1i32, -2, -3, -4, -5]).unwrap();
        w.finish().unwrap();
        let r = FileReader::open(&path).unwrap();
        let all: Vec<i32> = r.read_all(r.resolve_path("/d").unwrap()).unwrap();
        assert_eq!(all, vec![1, 2, 3, 4, 5, -1, -2, -3, -4, -5]);
        std::fs::remove_file(&path).ok();
    }
}
