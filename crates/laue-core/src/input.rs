//! Input data: in-memory image stacks and streaming slab sources.

use crate::error::CoreError;
use crate::Result;

/// A borrowed view of a complete wire-scan image stack.
///
/// Layout is `images[z][row][col]` flattened row-major — the "1-D array"
/// data structure the paper settles on (its Fig 4 experiment).
#[derive(Debug, Clone, Copy)]
pub struct ScanView<'a> {
    /// Flattened intensities, `n_images · n_rows · n_cols` long.
    pub images: &'a [f64],
    /// Number of wire-scan steps (= images).
    pub n_images: usize,
    /// Detector rows.
    pub n_rows: usize,
    /// Detector columns.
    pub n_cols: usize,
}

impl<'a> ScanView<'a> {
    /// Build and validate a view.
    pub fn new(
        images: &'a [f64],
        n_images: usize,
        n_rows: usize,
        n_cols: usize,
    ) -> Result<ScanView<'a>> {
        let expected = n_images
            .checked_mul(n_rows)
            .and_then(|v| v.checked_mul(n_cols))
            .ok_or_else(|| CoreError::ShapeMismatch("stack size overflows usize".into()))?;
        if images.len() != expected {
            return Err(CoreError::ShapeMismatch(format!(
                "stack of {} values does not match {n_images}×{n_rows}×{n_cols}",
                images.len()
            )));
        }
        if n_images < 2 {
            return Err(CoreError::ShapeMismatch(
                "a wire scan needs at least two images to form one differential".into(),
            ));
        }
        if n_rows == 0 || n_cols == 0 {
            return Err(CoreError::ShapeMismatch("empty detector".into()));
        }
        Ok(ScanView {
            images,
            n_images,
            n_rows,
            n_cols,
        })
    }

    /// Intensity at `(image, row, col)`.
    #[inline]
    pub fn at(&self, z: usize, r: usize, c: usize) -> f64 {
        self.images[(z * self.n_rows + r) * self.n_cols + c]
    }

    /// Pixels per image.
    #[inline]
    pub fn pixels_per_image(&self) -> usize {
        self.n_rows * self.n_cols
    }

    /// Total stack size in elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Never true for a validated view.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// A source of row slabs: `read_slab(row0, n)` returns the sub-stack
/// covering rows `row0 .. row0 + n` of **every** image, flattened as
/// `slab[z][row - row0][col]`.
///
/// This is the access pattern of the paper's Fig 2: the host never needs the
/// full stack in memory; the GPU engine pulls a few rows at a time, and the
/// mh5-backed implementation in `laue-pipeline` maps it straight onto a
/// chunked hyperslab read.
pub trait SlabSource {
    /// Number of images in the stack.
    fn n_images(&self) -> usize;
    /// Detector rows.
    fn n_rows(&self) -> usize;
    /// Detector columns.
    fn n_cols(&self) -> usize;
    /// Read rows `row0 .. row0 + n_rows_slab` of every image.
    fn read_slab(&mut self, row0: usize, n_rows_slab: usize) -> Result<Vec<f64>>;

    /// [`SlabSource::read_slab`] into `slab`, whose allocation a source
    /// may reuse: a GPU ring reads each of its slabs, and re-reads them for
    /// the ABFT reference, into one buffer.
    fn read_slab_into(
        &mut self,
        row0: usize,
        n_rows_slab: usize,
        slab: &mut Vec<f64>,
    ) -> Result<()> {
        *slab = self.read_slab(row0, n_rows_slab)?;
        Ok(())
    }
}

/// [`SlabSource`] over an in-memory stack.
#[derive(Debug, Clone)]
pub struct InMemorySlabSource {
    images: Vec<f64>,
    n_images: usize,
    n_rows: usize,
    n_cols: usize,
}

impl InMemorySlabSource {
    /// Wrap an owned stack.
    pub fn new(
        images: Vec<f64>,
        n_images: usize,
        n_rows: usize,
        n_cols: usize,
    ) -> Result<InMemorySlabSource> {
        ScanView::new(&images, n_images, n_rows, n_cols)?;
        Ok(InMemorySlabSource {
            images,
            n_images,
            n_rows,
            n_cols,
        })
    }

    /// View of the full stack.
    pub fn view(&self) -> ScanView<'_> {
        ScanView {
            images: &self.images,
            n_images: self.n_images,
            n_rows: self.n_rows,
            n_cols: self.n_cols,
        }
    }
}

impl SlabSource for InMemorySlabSource {
    fn n_images(&self) -> usize {
        self.n_images
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn read_slab(&mut self, row0: usize, n_rows_slab: usize) -> Result<Vec<f64>> {
        if row0 + n_rows_slab > self.n_rows {
            return Err(CoreError::Source(format!(
                "slab rows {row0}..{} outside detector of {} rows",
                row0 + n_rows_slab,
                self.n_rows
            )));
        }
        let mut out = Vec::with_capacity(self.n_images * n_rows_slab * self.n_cols);
        for z in 0..self.n_images {
            let start = (z * self.n_rows + row0) * self.n_cols;
            out.extend_from_slice(&self.images[start..start + n_rows_slab * self.n_cols]);
        }
        Ok(out)
    }
}

/// A region-of-interest adapter over any [`SlabSource`]: exposes only rows
/// `r0..r0+n_rows` and columns `c0..c0+n_cols` of the underlying stack.
///
/// Pair it with [`laue_geometry::DetectorGeometry::crop`] (via
/// [`crate::ScanGeometry`]) and the reconstruction of the ROI is bit-exact
/// with the corresponding sub-block of a full reconstruction — a beamline
/// only pays for the pixels it cares about.
#[derive(Debug)]
pub struct RoiSlabSource<S> {
    inner: S,
    r0: usize,
    c0: usize,
    n_rows: usize,
    n_cols: usize,
}

impl<S: SlabSource> RoiSlabSource<S> {
    /// Restrict `inner` to the given rectangle.
    pub fn new(
        inner: S,
        r0: usize,
        c0: usize,
        n_rows: usize,
        n_cols: usize,
    ) -> Result<RoiSlabSource<S>> {
        if n_rows == 0 || n_cols == 0 {
            return Err(CoreError::ShapeMismatch("empty region of interest".into()));
        }
        if r0 + n_rows > inner.n_rows() || c0 + n_cols > inner.n_cols() {
            return Err(CoreError::ShapeMismatch(format!(
                "ROI ({r0}+{n_rows}, {c0}+{n_cols}) outside {}×{} detector",
                inner.n_rows(),
                inner.n_cols()
            )));
        }
        Ok(RoiSlabSource {
            inner,
            r0,
            c0,
            n_rows,
            n_cols,
        })
    }

    /// The wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SlabSource> SlabSource for RoiSlabSource<S> {
    fn n_images(&self) -> usize {
        self.inner.n_images()
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn read_slab(&mut self, row0: usize, n_rows_slab: usize) -> Result<Vec<f64>> {
        if row0 + n_rows_slab > self.n_rows {
            return Err(CoreError::Source(format!(
                "ROI slab rows {row0}..{} outside {} ROI rows",
                row0 + n_rows_slab,
                self.n_rows
            )));
        }
        let full = self.inner.read_slab(self.r0 + row0, n_rows_slab)?;
        let inner_cols = self.inner.n_cols();
        let p = self.inner.n_images();
        let mut out = Vec::with_capacity(p * n_rows_slab * self.n_cols);
        for z in 0..p {
            for r in 0..n_rows_slab {
                let start = (z * n_rows_slab + r) * inner_cols + self.c0;
                out.extend_from_slice(&full[start..start + self.n_cols]);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> (Vec<f64>, usize, usize, usize) {
        let (p, m, n) = (3usize, 4usize, 5usize);
        let data: Vec<f64> = (0..p * m * n).map(|i| i as f64).collect();
        (data, p, m, n)
    }

    #[test]
    fn view_validation() {
        let (data, p, m, n) = stack();
        assert!(ScanView::new(&data, p, m, n).is_ok());
        assert!(ScanView::new(&data[..10], p, m, n).is_err());
        assert!(
            ScanView::new(&data[..m * n], 1, m, n).is_err(),
            "one image is not a scan"
        );
        assert!(ScanView::new(&[], 2, 0, 5).is_err());
    }

    #[test]
    fn indexing_is_row_major() {
        let (data, p, m, n) = stack();
        let v = ScanView::new(&data, p, m, n).unwrap();
        assert_eq!(v.at(0, 0, 0), 0.0);
        assert_eq!(v.at(0, 0, 4), 4.0);
        assert_eq!(v.at(0, 1, 0), 5.0);
        assert_eq!(v.at(1, 0, 0), 20.0);
        assert_eq!(v.at(2, 3, 4), (2 * 20 + 3 * 5 + 4) as f64);
        assert_eq!(v.pixels_per_image(), 20);
        assert_eq!(v.len(), 60);
        assert!(!v.is_empty());
    }

    #[test]
    fn slab_source_extracts_rows_across_images() {
        let (data, p, m, n) = stack();
        let mut src = InMemorySlabSource::new(data.clone(), p, m, n).unwrap();
        let slab = src.read_slab(1, 2).unwrap();
        assert_eq!(slab.len(), p * 2 * n);
        // slab[z][r][c] == stack[z][r + 1][c]
        let v = ScanView::new(&data, p, m, n).unwrap();
        for z in 0..p {
            for r in 0..2 {
                for c in 0..n {
                    assert_eq!(slab[(z * 2 + r) * n + c], v.at(z, r + 1, c));
                }
            }
        }
    }

    #[test]
    fn roi_source_selects_the_rectangle() {
        let (data, p, m, n) = stack();
        let inner = InMemorySlabSource::new(data.clone(), p, m, n).unwrap();
        let mut roi = RoiSlabSource::new(inner, 1, 2, 2, 3).unwrap();
        assert_eq!(roi.n_rows(), 2);
        assert_eq!(roi.n_cols(), 3);
        assert_eq!(roi.n_images(), p);
        let slab = roi.read_slab(0, 2).unwrap();
        let v = ScanView::new(&data, p, m, n).unwrap();
        for z in 0..p {
            for r in 0..2 {
                for c in 0..3 {
                    assert_eq!(slab[(z * 2 + r) * 3 + c], v.at(z, r + 1, c + 2));
                }
            }
        }
        // Partial ROI slab.
        let slab = roi.read_slab(1, 1).unwrap();
        assert_eq!(slab[0], v.at(0, 2, 2));
        assert!(roi.read_slab(1, 2).is_err());
    }

    #[test]
    fn roi_bounds_validated() {
        let (data, p, m, n) = stack();
        let mk = || InMemorySlabSource::new(data.clone(), p, m, n).unwrap();
        assert!(
            RoiSlabSource::new(mk(), 0, 0, m, n).is_ok(),
            "full-frame ROI"
        );
        assert!(RoiSlabSource::new(mk(), 3, 0, 2, n).is_err());
        assert!(RoiSlabSource::new(mk(), 0, 4, 1, 2).is_err());
        assert!(RoiSlabSource::new(mk(), 0, 0, 0, 1).is_err());
    }

    #[test]
    fn slab_bounds_checked() {
        let (data, p, m, n) = stack();
        let mut src = InMemorySlabSource::new(data, p, m, n).unwrap();
        assert!(src.read_slab(3, 2).is_err());
        assert!(src.read_slab(0, 5).is_err());
        assert!(src.read_slab(0, 4).is_ok());
    }
}
