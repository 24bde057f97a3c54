//! The reconstruction output: a depth-resolved image stack.

use crate::config::ReconstructionConfig;

/// Depth-resolved intensity: `data[bin][row][col]`, row-major.
///
/// Bin `k` covers depths `[depth_start + k·w, depth_start + (k+1)·w)` of the
/// configuration the reconstruction ran with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepthImage {
    /// Number of depth bins.
    pub n_bins: usize,
    /// Detector rows.
    pub n_rows: usize,
    /// Detector columns.
    pub n_cols: usize,
    /// Flattened intensities.
    pub data: Vec<f64>,
}

impl DepthImage {
    /// Zero-filled output for a run.
    pub fn zeroed(n_bins: usize, n_rows: usize, n_cols: usize) -> DepthImage {
        DepthImage {
            n_bins,
            n_rows,
            n_cols,
            data: vec![0.0; n_bins * n_rows * n_cols],
        }
    }

    /// Linear index of `(bin, row, col)`.
    #[inline]
    pub fn index(&self, bin: usize, row: usize, col: usize) -> usize {
        (bin * self.n_rows + row) * self.n_cols + col
    }

    /// Intensity at `(bin, row, col)`.
    #[inline]
    pub fn at(&self, bin: usize, row: usize, col: usize) -> f64 {
        self.data[self.index(bin, row, col)]
    }

    /// Mutable intensity at `(bin, row, col)`.
    #[inline]
    pub fn at_mut(&mut self, bin: usize, row: usize, col: usize) -> &mut f64 {
        let i = self.index(bin, row, col);
        &mut self.data[i]
    }

    /// The depth profile of one pixel: intensity per bin.
    pub fn depth_profile(&self, row: usize, col: usize) -> Vec<f64> {
        (0..self.n_bins).map(|b| self.at(b, row, col)).collect()
    }

    /// Summed intensity of one depth bin's image.
    pub fn bin_total(&self, bin: usize) -> f64 {
        let start = bin * self.n_rows * self.n_cols;
        self.data[start..start + self.n_rows * self.n_cols]
            .iter()
            .sum()
    }

    /// Total deposited intensity.
    pub fn total_intensity(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Depth (bin centre) with the highest summed intensity, with the
    /// configuration that produced this image.
    pub fn peak_depth(&self, cfg: &ReconstructionConfig) -> Option<f64> {
        (0..self.n_bins)
            .map(|b| (b, self.bin_total(b)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|&(_, v)| v > 0.0)
            .map(|(b, _)| cfg.bin_center(b))
    }

    /// Peak depth of a single pixel's profile.
    pub fn pixel_peak_depth(
        &self,
        row: usize,
        col: usize,
        cfg: &ReconstructionConfig,
    ) -> Option<f64> {
        (0..self.n_bins)
            .map(|b| (b, self.at(b, row, col)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|&(_, v)| v > 0.0)
            .map(|(b, _)| cfg.bin_center(b))
    }

    /// Accumulate another image (same shape) into this one — used to merge
    /// per-slab partial outputs.
    pub fn accumulate(&mut self, other: &DepthImage) -> crate::Result<()> {
        if (self.n_bins, self.n_rows, self.n_cols) != (other.n_bins, other.n_rows, other.n_cols) {
            return Err(crate::CoreError::ShapeMismatch(format!(
                "cannot accumulate a {}×{}×{} image into a {}×{}×{} one",
                other.n_bins, other.n_rows, other.n_cols, self.n_bins, self.n_rows, self.n_cols
            )));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
        Ok(())
    }

    /// Overwrite rows `[row0, row0 + rows)` of every depth bin from a slab
    /// buffer laid out `[(bin * rows + r) * n_cols + c]` — the layout the
    /// GPU download path and the journal both use. Assignment (not
    /// accumulation) matches the download semantics: each slab owns its
    /// rows exclusively, so replaying committed slabs in append order
    /// reproduces the image bit-for-bit.
    pub fn assign_rows(&mut self, row0: usize, rows: usize, slab: &[f64]) -> crate::Result<()> {
        if row0.checked_add(rows).is_none_or(|end| end > self.n_rows) {
            return Err(crate::CoreError::ShapeMismatch(format!(
                "slab rows {row0} + {rows} exceed the {}-row image",
                self.n_rows
            )));
        }
        if slab.len() != self.n_bins * rows * self.n_cols {
            return Err(crate::CoreError::ShapeMismatch(format!(
                "slab buffer holds {} values but {} rows of {} bins × {} cols \
                 need {}",
                slab.len(),
                rows,
                self.n_bins,
                self.n_cols,
                self.n_bins * rows * self.n_cols
            )));
        }
        for bin in 0..self.n_bins {
            for r in 0..rows {
                let src = (bin * rows + r) * self.n_cols;
                let dst = self.index(bin, row0 + r, 0);
                self.data[dst..dst + self.n_cols].copy_from_slice(&slab[src..src + self.n_cols]);
            }
        }
        Ok(())
    }

    /// Largest absolute difference to another image (for equivalence tests).
    pub fn max_abs_diff(&self, other: &DepthImage) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips() {
        let mut img = DepthImage::zeroed(3, 4, 5);
        assert_eq!(img.data.len(), 60);
        *img.at_mut(2, 3, 4) = 7.5;
        assert_eq!(img.at(2, 3, 4), 7.5);
        assert_eq!(img.index(1, 0, 0), 20);
        assert_eq!(img.depth_profile(3, 4), vec![0.0, 0.0, 7.5]);
    }

    #[test]
    fn totals_and_peaks() {
        let cfg = ReconstructionConfig::new(0.0, 30.0, 3);
        let mut img = DepthImage::zeroed(3, 2, 2);
        *img.at_mut(1, 0, 0) = 5.0;
        *img.at_mut(1, 1, 1) = 3.0;
        *img.at_mut(2, 0, 1) = 1.0;
        assert_eq!(img.bin_total(0), 0.0);
        assert_eq!(img.bin_total(1), 8.0);
        assert_eq!(img.total_intensity(), 9.0);
        assert_eq!(img.peak_depth(&cfg), Some(15.0));
        assert_eq!(img.pixel_peak_depth(0, 1, &cfg), Some(25.0));
        assert_eq!(
            img.pixel_peak_depth(1, 0, &cfg),
            None,
            "empty profile has no peak"
        );
    }

    #[test]
    fn accumulate_merges_slabs() {
        let mut a = DepthImage::zeroed(2, 2, 2);
        let mut b = DepthImage::zeroed(2, 2, 2);
        *a.at_mut(0, 0, 0) = 1.0;
        *b.at_mut(0, 0, 0) = 2.0;
        *b.at_mut(1, 1, 1) = 4.0;
        a.accumulate(&b).unwrap();
        assert_eq!(a.at(0, 0, 0), 3.0);
        assert_eq!(a.at(1, 1, 1), 4.0);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let mut a = DepthImage::zeroed(1, 2, 2);
        let b = DepthImage::zeroed(1, 2, 2);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        *a.at_mut(0, 1, 0) = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }

    #[test]
    fn assign_rows_overwrites_exactly_its_rows() {
        let mut img = DepthImage::zeroed(2, 4, 3);
        // Bin 0 rows 1..3 then bin 1 rows 1..3, row-major.
        let slab: Vec<f64> = (1..=12).map(f64::from).collect();
        img.assign_rows(1, 2, &slab).unwrap();
        assert_eq!(img.at(0, 1, 0), 1.0);
        assert_eq!(img.at(0, 2, 2), 6.0);
        assert_eq!(img.at(1, 1, 0), 7.0);
        assert_eq!(img.at(1, 2, 2), 12.0);
        assert_eq!(img.at(0, 0, 0), 0.0, "untouched rows stay zero");
        assert_eq!(img.at(1, 3, 2), 0.0);
        // Re-assignment overwrites rather than accumulates.
        img.assign_rows(1, 2, &slab).unwrap();
        assert_eq!(img.at(0, 1, 0), 1.0);
        assert_eq!(img.total_intensity(), 78.0);
    }

    #[test]
    fn assign_rows_rejects_bad_shapes() {
        let mut img = DepthImage::zeroed(2, 4, 3);
        assert!(img.assign_rows(3, 2, &[0.0; 12]).is_err(), "past end");
        assert!(
            img.assign_rows(usize::MAX - 1, 2, &[]).is_err(),
            "a wrapping row range is out of bounds, not a panic"
        );
        assert!(
            img.assign_rows(0, 2, &[0.0; 5]).is_err(),
            "wrong buffer length"
        );
        assert!(img.assign_rows(0, 2, &[0.0; 12]).is_ok());
    }

    #[test]
    fn accumulate_rejects_shape_mismatch() {
        let mut a = DepthImage::zeroed(1, 2, 2);
        let b = DepthImage::zeroed(2, 2, 2);
        match a.accumulate(&b) {
            Err(crate::CoreError::ShapeMismatch(msg)) => {
                assert!(msg.contains("2×2×2") && msg.contains("1×2×2"));
            }
            other => panic!("expected a typed shape error, got {other:?}"),
        }
    }
}
