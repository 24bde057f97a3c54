//! Dataset shapes, chunk grids, and hyperslab/box arithmetic.
//!
//! All datasets are row-major. A dataset of shape `S` with chunk shape `C`
//! is stored as a grid of `ceil(S_i / C_i)` chunks per axis; *edge chunks are
//! clipped* — a chunk stores exactly the elements inside the dataset, so no
//! padding bytes ever hit the disk.

use crate::dtype::Element;
use crate::error::Mh5Error;
use crate::{Result, MAX_RANK};

/// A dataset or chunk shape: rank 1..=4, no zero extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Build a shape from a slice of extents.
    pub fn new(dims: &[usize]) -> Result<Shape> {
        if dims.is_empty() || dims.len() > MAX_RANK {
            return Err(Mh5Error::BadShape(format!(
                "rank {} outside supported range 1..={MAX_RANK}",
                dims.len()
            )));
        }
        if let Some(_zero) = dims.iter().position(|&d| d == 0) {
            return Err(Mh5Error::BadShape(format!("zero extent in shape {dims:?}")));
        }
        // Guard against overflow in element counts.
        let mut n: usize = 1;
        for &d in dims {
            n = n
                .checked_mul(d)
                .ok_or_else(|| Mh5Error::BadShape(format!("shape {dims:?} overflows usize")))?;
        }
        let mut a = [1usize; MAX_RANK];
        a[..dims.len()].copy_from_slice(dims);
        Ok(Shape {
            dims: a,
            rank: dims.len(),
        })
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The extents, one per axis.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Total number of elements.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.dims().iter().product()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> [usize; MAX_RANK] {
        let mut s = [1usize; MAX_RANK];
        for i in (0..self.rank.saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.dims[i + 1];
        }
        s
    }

    /// Linear (row-major) index of a coordinate.
    pub fn linear_index(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.rank);
        let s = self.strides();
        coords.iter().zip(s.iter()).map(|(&c, &st)| c * st).sum()
    }
}

/// A dataset shape plus its chunk shape; provides the chunk-grid arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunking {
    /// Full dataset shape.
    pub shape: Shape,
    /// Nominal chunk shape (edge chunks are clipped).
    pub chunk: Shape,
}

impl Chunking {
    /// Validate that `chunk` has the same rank as `shape` and no axis larger
    /// than the dataset.
    pub fn new(shape: Shape, chunk: Shape) -> Result<Chunking> {
        if shape.rank() != chunk.rank() {
            return Err(Mh5Error::BadShape(format!(
                "chunk rank {} != dataset rank {}",
                chunk.rank(),
                shape.rank()
            )));
        }
        for (axis, (&c, &s)) in chunk.dims().iter().zip(shape.dims()).enumerate() {
            if c > s {
                return Err(Mh5Error::BadShape(format!(
                    "chunk extent {c} exceeds dataset extent {s} on axis {axis}"
                )));
            }
        }
        Ok(Chunking { shape, chunk })
    }

    /// Chunks per axis.
    pub fn grid_dims(&self) -> [usize; MAX_RANK] {
        let mut g = [1usize; MAX_RANK];
        for (i, slot) in g.iter_mut().enumerate().take(self.shape.rank()) {
            *slot = self.shape.dims()[i].div_ceil(self.chunk.dims()[i]);
        }
        g
    }

    /// Total number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.grid_dims()[..self.shape.rank()].iter().product()
    }

    /// Chunk-grid coordinates of chunk `index` (row-major over the grid).
    pub fn chunk_coords(&self, index: usize) -> [usize; MAX_RANK] {
        let g = self.grid_dims();
        let rank = self.shape.rank();
        let mut rem = index;
        let mut coords = [0usize; MAX_RANK];
        for i in (0..rank).rev() {
            coords[i] = rem % g[i];
            rem /= g[i];
        }
        debug_assert_eq!(rem, 0, "chunk index out of range");
        coords
    }

    /// Linear chunk index from grid coordinates.
    pub fn chunk_index(&self, coords: &[usize]) -> usize {
        let g = self.grid_dims();
        let rank = self.shape.rank();
        let mut idx = 0usize;
        for i in 0..rank {
            debug_assert!(coords[i] < g[i]);
            idx = idx * g[i] + coords[i];
        }
        idx
    }

    /// Dataset coordinates of the first element of a chunk.
    pub fn chunk_origin(&self, coords: &[usize]) -> [usize; MAX_RANK] {
        let mut o = [0usize; MAX_RANK];
        for i in 0..self.shape.rank() {
            o[i] = coords[i] * self.chunk.dims()[i];
        }
        o
    }

    /// Actual (clipped) extent of a chunk.
    pub fn chunk_extent(&self, coords: &[usize]) -> [usize; MAX_RANK] {
        let mut e = [1usize; MAX_RANK];
        for i in 0..self.shape.rank() {
            let start = coords[i] * self.chunk.dims()[i];
            e[i] = self.chunk.dims()[i].min(self.shape.dims()[i] - start);
        }
        e
    }

    /// Number of elements in a (clipped) chunk.
    pub fn chunk_elements(&self, index: usize) -> usize {
        let coords = self.chunk_coords(index);
        self.chunk_extent(&coords)[..self.shape.rank()]
            .iter()
            .product()
    }

    /// Validate a hyperslab selection against the dataset bounds.
    pub fn validate_selection(&self, offset: &[usize], count: &[usize]) -> Result<()> {
        let rank = self.shape.rank();
        if offset.len() != rank || count.len() != rank {
            return Err(Mh5Error::BadShape(format!(
                "selection rank {}/{} != dataset rank {rank}",
                offset.len(),
                count.len()
            )));
        }
        for axis in 0..rank {
            if count[axis] == 0 {
                return Err(Mh5Error::BadShape(format!("zero count on axis {axis}")));
            }
            let end = offset[axis].checked_add(count[axis]);
            if end.is_none() || end.unwrap() > self.shape.dims()[axis] {
                return Err(Mh5Error::SelectionOutOfBounds {
                    axis,
                    offset: offset[axis],
                    count: count[axis],
                    extent: self.shape.dims()[axis],
                });
            }
        }
        Ok(())
    }

    /// Visit every chunk intersecting the hyperslab `offset/count`.
    ///
    /// For each intersection the callback receives the chunk's linear index
    /// and the intersection box described three ways:
    /// * `in_chunk` — box origin in chunk-local coordinates,
    /// * `in_slab` — box origin in selection-local coordinates,
    /// * `extent` — box extents.
    pub fn for_each_intersecting_chunk<F>(
        &self,
        offset: &[usize],
        count: &[usize],
        mut f: F,
    ) -> Result<()>
    where
        F: FnMut(usize, &[usize], &[usize], &[usize]) -> Result<()>,
    {
        self.validate_selection(offset, count)?;
        let rank = self.shape.rank();
        let chunk_dims = self.chunk.dims();
        // Chunk-grid range intersecting the slab per axis.
        let mut first = [0usize; MAX_RANK];
        let mut last = [0usize; MAX_RANK]; // inclusive
        for i in 0..rank {
            first[i] = offset[i] / chunk_dims[i];
            last[i] = (offset[i] + count[i] - 1) / chunk_dims[i];
        }
        // Odometer over the chunk sub-grid.
        let mut cur = first;
        loop {
            let coords = &cur[..rank];
            let origin = self.chunk_origin(coords);
            let ext = self.chunk_extent(coords);
            let mut in_chunk = [0usize; MAX_RANK];
            let mut in_slab = [0usize; MAX_RANK];
            let mut box_ext = [1usize; MAX_RANK];
            for i in 0..rank {
                let lo = offset[i].max(origin[i]);
                let hi = (offset[i] + count[i]).min(origin[i] + ext[i]);
                debug_assert!(lo < hi);
                in_chunk[i] = lo - origin[i];
                in_slab[i] = lo - offset[i];
                box_ext[i] = hi - lo;
            }
            f(
                self.chunk_index(coords),
                &in_chunk[..rank],
                &in_slab[..rank],
                &box_ext[..rank],
            )?;
            // Advance odometer.
            let mut axis = rank;
            loop {
                if axis == 0 {
                    return Ok(());
                }
                axis -= 1;
                if cur[axis] < last[axis] {
                    cur[axis] += 1;
                    cur[(axis + 1)..rank].copy_from_slice(&first[(axis + 1)..rank]);
                    break;
                }
            }
        }
    }
}

/// Copy an n-D box between two row-major byte buffers.
///
/// `src_shape`/`dst_shape` are element extents of the buffers; the box of
/// `extent` elements is read starting at `src_origin` and written starting at
/// `dst_origin`. The innermost axis is copied with `copy_from_slice`.
#[allow(clippy::too_many_arguments)]
pub fn copy_box(
    src: &[u8],
    src_shape: &[usize],
    src_origin: &[usize],
    dst: &mut [u8],
    dst_shape: &[usize],
    dst_origin: &[usize],
    extent: &[usize],
    elem_size: usize,
) {
    let span = |at: usize, n: usize| at * elem_size..(at + n) * elem_size;
    for_each_box_row(
        src_shape,
        src_origin,
        dst_shape,
        dst_origin,
        extent,
        |so, dof, n| dst[span(dof, n)].copy_from_slice(&src[span(so, n)]),
    );
}

/// [`copy_box`] from little-endian `T` bytes into a buffer of `U`: each
/// element of the box is decoded and converted straight into `dst`, which
/// must already hold zeros where the box lands. An element whose bytes are
/// all zero is not written, so a zero-filled `dst` never touches the pages
/// a sparse dataset leaves empty.
pub(crate) fn decode_box<T: Element, U: From<T>>(
    src: &[u8],
    src_shape: &[usize],
    src_origin: &[usize],
    dst: &mut [U],
    dst_shape: &[usize],
    dst_origin: &[usize],
    extent: &[usize],
) {
    let size = T::DTYPE.size();
    for_each_box_row(
        src_shape,
        src_origin,
        dst_shape,
        dst_origin,
        extent,
        |so, dof, n| {
            let bytes = src[so * size..(so + n) * size].chunks_exact(size);
            for (d, b) in dst[dof..dof + n].iter_mut().zip(bytes) {
                if b.iter().any(|&x| x != 0) {
                    *d = U::from(T::read_le(b));
                }
            }
        },
    );
}

/// Visit the innermost-axis rows of an n-D box as `(src, dst, len)`
/// element offsets into two row-major buffers, in row-major order.
fn for_each_box_row(
    src_shape: &[usize],
    src_origin: &[usize],
    dst_shape: &[usize],
    dst_origin: &[usize],
    extent: &[usize],
    mut row: impl FnMut(usize, usize, usize),
) {
    let rank = extent.len();
    debug_assert_eq!(src_shape.len(), rank);
    debug_assert_eq!(dst_shape.len(), rank);
    // Row-major strides in elements.
    let strides = |shape: &[usize]| {
        let mut s = [1usize; MAX_RANK];
        for i in (0..rank.saturating_sub(1)).rev() {
            s[i] = s[i + 1] * shape[i + 1];
        }
        s
    };
    let ss = strides(src_shape);
    let ds = strides(dst_shape);
    // Odometer over all axes but the last.
    let mut idx = [0usize; MAX_RANK];
    loop {
        let mut so = 0usize;
        let mut dof = 0usize;
        for i in 0..rank {
            let off = if i < rank - 1 { idx[i] } else { 0 };
            so += (src_origin[i] + off) * ss[i];
            dof += (dst_origin[i] + off) * ds[i];
        }
        row(so, dof, extent[rank - 1]);
        // Advance over axes 0..rank-1.
        let mut axis = rank - 1;
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < extent[axis] {
                break;
            }
            idx[axis] = 0;
            if axis == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert!(Shape::new(&[]).is_err());
        assert!(Shape::new(&[1, 2, 3, 4, 5]).is_err());
        assert!(Shape::new(&[3, 0, 2]).is_err());
        let s = Shape::new(&[4, 6, 9]).unwrap();
        assert_eq!(s.rank(), 3);
        assert_eq!(s.n_elements(), 216);
        assert_eq!(&s.strides()[..3], &[54, 9, 1]);
        assert_eq!(s.linear_index(&[1, 2, 3]), 54 + 18 + 3);
    }

    #[test]
    fn shape_overflow_rejected() {
        assert!(Shape::new(&[usize::MAX, 2]).is_err());
    }

    #[test]
    fn chunk_grid_arithmetic() {
        // 4 images × 6 rows × 9 cols, chunked (1, 2, 9): Fig 2 of the paper.
        let ck = Chunking::new(
            Shape::new(&[4, 6, 9]).unwrap(),
            Shape::new(&[1, 2, 9]).unwrap(),
        )
        .unwrap();
        assert_eq!(&ck.grid_dims()[..3], &[4, 3, 1]);
        assert_eq!(ck.n_chunks(), 12);
        for i in 0..12 {
            let c = ck.chunk_coords(i);
            assert_eq!(ck.chunk_index(&c[..3]), i);
            assert_eq!(ck.chunk_elements(i), 18);
        }
    }

    #[test]
    fn edge_chunks_are_clipped() {
        let ck = Chunking::new(Shape::new(&[5, 7]).unwrap(), Shape::new(&[2, 3]).unwrap()).unwrap();
        assert_eq!(&ck.grid_dims()[..2], &[3, 3]);
        // Bottom-right chunk is 1×1.
        let coords = [2usize, 2usize];
        assert_eq!(&ck.chunk_extent(&coords)[..2], &[1, 1]);
        assert_eq!(&ck.chunk_origin(&coords)[..2], &[4, 6]);
        let total: usize = (0..ck.n_chunks()).map(|i| ck.chunk_elements(i)).sum();
        assert_eq!(total, 35);
    }

    #[test]
    fn chunk_larger_than_dataset_rejected() {
        assert!(Chunking::new(Shape::new(&[4]).unwrap(), Shape::new(&[5]).unwrap()).is_err());
        assert!(
            Chunking::new(Shape::new(&[4, 4]).unwrap(), Shape::new(&[4]).unwrap()).is_err(),
            "rank mismatch"
        );
    }

    #[test]
    fn selection_validation() {
        let ck = Chunking::new(Shape::new(&[4, 6]).unwrap(), Shape::new(&[2, 2]).unwrap()).unwrap();
        assert!(ck.validate_selection(&[0, 0], &[4, 6]).is_ok());
        assert!(ck.validate_selection(&[3, 5], &[1, 1]).is_ok());
        assert!(matches!(
            ck.validate_selection(&[3, 5], &[1, 2]),
            Err(Mh5Error::SelectionOutOfBounds { axis: 1, .. })
        ));
        assert!(ck.validate_selection(&[0, 0], &[0, 1]).is_err());
        assert!(ck.validate_selection(&[0], &[1]).is_err());
    }

    #[test]
    fn intersection_visitor_covers_selection_exactly() {
        let ck = Chunking::new(
            Shape::new(&[4, 6, 9]).unwrap(),
            Shape::new(&[1, 2, 4]).unwrap(),
        )
        .unwrap();
        let offset = [1usize, 1, 2];
        let count = [2usize, 4, 6];
        let mut covered = vec![false; count.iter().product()];
        ck.for_each_intersecting_chunk(&offset, &count, |_idx, _in_chunk, in_slab, ext| {
            for a in 0..ext[0] {
                for b in 0..ext[1] {
                    for c in 0..ext[2] {
                        let lin = ((in_slab[0] + a) * count[1] + (in_slab[1] + b)) * count[2]
                            + (in_slab[2] + c);
                        assert!(!covered[lin], "element covered twice");
                        covered[lin] = true;
                    }
                }
            }
            Ok(())
        })
        .unwrap();
        assert!(
            covered.iter().all(|&c| c),
            "every selected element visited exactly once"
        );
    }

    #[test]
    fn copy_box_2d() {
        // 4×5 source, copy middle 2×3 box into a 3×3 dest at (1,0).
        let src: Vec<u8> = (0..20).collect();
        let mut dst = vec![0u8; 9];
        copy_box(
            &src,
            &[4, 5],
            &[1, 1],
            &mut dst,
            &[3, 3],
            &[1, 0],
            &[2, 3],
            1,
        );
        assert_eq!(dst, vec![0, 0, 0, 6, 7, 8, 11, 12, 13]);
    }

    #[test]
    fn copy_box_respects_element_size() {
        let src: Vec<u8> = (0..32).collect(); // 4×2 of u32
        let mut dst = vec![0u8; 16]; // 2×2 of u32
        copy_box(
            &src,
            &[4, 2],
            &[2, 0],
            &mut dst,
            &[2, 2],
            &[0, 0],
            &[2, 2],
            4,
        );
        assert_eq!(&dst[..], &src[16..32]);
    }

    #[test]
    fn copy_box_1d_and_3d() {
        let src: Vec<u8> = (0..24).collect();
        let mut dst = vec![0u8; 4];
        copy_box(&src, &[24], &[10], &mut dst, &[4], &[0], &[4], 1);
        assert_eq!(dst, vec![10, 11, 12, 13]);

        // 2×3×4 source → extract the (z=1) 1×2×2 corner box.
        let mut dst = vec![0u8; 4];
        copy_box(
            &src,
            &[2, 3, 4],
            &[1, 1, 2],
            &mut dst,
            &[1, 2, 2],
            &[0, 0, 0],
            &[1, 2, 2],
            1,
        );
        assert_eq!(dst, vec![18, 19, 22, 23]);
    }
}
