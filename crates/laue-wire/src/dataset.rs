//! Scan files: geometry + image stack + optional ground truth in one `mh5`
//! container.
//!
//! Layout (mirroring a beamline HDF5 scan):
//!
//! ```text
//! /entry
//!   @creator, @seed …
//!   /geometry        (calibration attributes, see `geom_io`)
//!   images           u16 dataset, shape (n_steps, n_rows, n_cols),
//!                    chunked (1, chunk_rows, n_cols)
//!   /truth           optional ground truth (synthetic scans only)
//!     row, col       u32 datasets
//!     depth, weight  f64 datasets
//! ```
//!
//! [`ScanFile`] keeps the reader open and implements
//! [`laue_core::SlabSource`], so the reconstruction pipelines stream row
//! slabs straight from chunked storage — the exact access pattern of the
//! paper's Fig 2 without ever materialising the stack.

use std::path::Path;

use laue_core::{CoreError, ScanGeometry, SlabSource};
use mh5::{AttrValue, Dtype, FileReader, FileWriter, ObjectId};

use crate::geom_io;
use crate::scatterer::{SamplePlan, Scatterer};
use crate::{Result, WireError};

/// Convert a rendered intensity to a detector count.
fn to_u16(v: f64) -> u16 {
    v.round().clamp(0.0, 65_535.0) as u16
}

/// Write a scan file.
///
/// `images` is the rendered stack `stack[z][row][col]` (values are rounded
/// and clamped to the u16 detector range, like a real camera); `chunk_rows`
/// controls the row granularity of chunked storage (and therefore the
/// finest efficient slab read).
pub fn write_scan<P: AsRef<Path>>(
    path: P,
    geom: &ScanGeometry,
    images: &[f64],
    truth: Option<&SamplePlan>,
    chunk_rows: usize,
) -> Result<()> {
    let (p, m, n) = (
        geom.wire.n_steps,
        geom.detector.n_rows,
        geom.detector.n_cols,
    );
    if images.len() != p * m * n {
        return Err(WireError::InvalidParameter(format!(
            "stack of {} values does not match {p}×{m}×{n}",
            images.len()
        )));
    }
    let chunk_rows = chunk_rows.clamp(1, m);
    let mut w = FileWriter::create(path)?;
    let entry = w.create_group(FileWriter::ROOT, "entry")?;
    w.set_attr(
        entry,
        "creator",
        AttrValue::Str("laue-wire synthetic scan".into()),
    )?;
    let g = w.create_group(entry, "geometry")?;
    geom_io::write_geometry(&mut w, g, geom)?;

    let counts: Vec<u16> = images.iter().map(|&v| to_u16(v)).collect();
    let ds = w.create_dataset(entry, "images", Dtype::U16, &[p, m, n], &[1, chunk_rows, n])?;
    w.write_all(ds, &counts)?;

    if let Some(plan) = truth {
        if !plan.is_empty() {
            let t = w.create_group(entry, "truth")?;
            let k = plan.len();
            let rows: Vec<u32> = plan.scatterers.iter().map(|s| s.row as u32).collect();
            let cols: Vec<u32> = plan.scatterers.iter().map(|s| s.col as u32).collect();
            let depth: Vec<f64> = plan.scatterers.iter().map(|s| s.depth).collect();
            let weight: Vec<f64> = plan.scatterers.iter().map(|s| s.intensity).collect();
            let d = w.create_dataset(t, "row", Dtype::U32, &[k], &[k])?;
            w.write_all(d, &rows)?;
            let d = w.create_dataset(t, "col", Dtype::U32, &[k], &[k])?;
            w.write_all(d, &cols)?;
            let d = w.create_dataset(t, "depth", Dtype::F64, &[k], &[k])?;
            w.write_all(d, &depth)?;
            let d = w.create_dataset(t, "weight", Dtype::F64, &[k], &[k])?;
            w.write_all(d, &weight)?;
        }
    }
    w.finish()?;
    Ok(())
}

/// An open scan file: geometry parsed, stack streamable.
#[derive(Debug)]
pub struct ScanFile {
    reader: FileReader,
    images: ObjectId,
    geometry: ScanGeometry,
    truth: Option<SamplePlan>,
    n_images: usize,
    n_rows: usize,
    n_cols: usize,
}

impl ScanFile {
    /// Open and validate a scan file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<ScanFile> {
        let reader = FileReader::open(path)?;
        let entry = reader
            .resolve_path("/entry")
            .map_err(|_| WireError::MissingField("/entry group".into()))?;
        let g = reader
            .resolve_path("/entry/geometry")
            .map_err(|_| WireError::MissingField("/entry/geometry group".into()))?;
        let geometry = geom_io::read_geometry(&reader, g)?;
        let images = reader
            .child(entry, "images")?
            .ok_or_else(|| WireError::MissingField("/entry/images dataset".into()))?;
        let info = reader.dataset_info(images)?;
        if info.shape.len() != 3 {
            return Err(WireError::MissingField("3-D images dataset".into()));
        }
        if info.dtype != Dtype::U16 {
            return Err(WireError::MissingField("u16 images dataset".into()));
        }
        let (p, m, n) = (info.shape[0], info.shape[1], info.shape[2]);
        if p != geometry.wire.n_steps
            || m != geometry.detector.n_rows
            || n != geometry.detector.n_cols
        {
            return Err(WireError::InvalidParameter(format!(
                "images shape {p}×{m}×{n} disagrees with geometry \
                 {}×{}×{}",
                geometry.wire.n_steps, geometry.detector.n_rows, geometry.detector.n_cols
            )));
        }
        let truth = Self::read_truth(&reader)?;
        Ok(ScanFile {
            reader,
            images,
            geometry,
            truth,
            n_images: p,
            n_rows: m,
            n_cols: n,
        })
    }

    fn read_truth(reader: &FileReader) -> Result<Option<SamplePlan>> {
        let Ok(t) = reader.resolve_path("/entry/truth") else {
            return Ok(None);
        };
        let get = |name: &str| -> Result<ObjectId> {
            reader
                .child(t, name)?
                .ok_or_else(|| WireError::MissingField(format!("/entry/truth/{name}")))
        };
        let rows: Vec<u32> = reader.read_all(get("row")?)?;
        let cols: Vec<u32> = reader.read_all(get("col")?)?;
        let depth: Vec<f64> = reader.read_all(get("depth")?)?;
        let weight: Vec<f64> = reader.read_all(get("weight")?)?;
        if rows.len() != cols.len() || rows.len() != depth.len() || rows.len() != weight.len() {
            return Err(WireError::MissingField("consistent truth arrays".into()));
        }
        let mut plan = SamplePlan::new();
        for i in 0..rows.len() {
            plan.scatterers.push(Scatterer {
                row: rows[i] as usize,
                col: cols[i] as usize,
                depth: depth[i],
                intensity: weight[i],
            });
        }
        Ok(Some(plan))
    }

    /// The calibration stored in the file.
    pub fn geometry(&self) -> &ScanGeometry {
        &self.geometry
    }

    /// Ground truth, when the file carries one.
    pub fn truth(&self) -> Option<&SamplePlan> {
        self.truth.as_ref()
    }

    /// Total file size on disk, bytes.
    pub fn file_len(&self) -> u64 {
        self.reader.file_len()
    }

    /// Read the whole stack as `f64` (small scans / tests).
    pub fn read_full(&self) -> Result<Vec<f64>> {
        let counts: Vec<u16> = self.reader.read_all(self.images)?;
        Ok(counts.into_iter().map(f64::from).collect())
    }
}

impl SlabSource for ScanFile {
    fn n_images(&self) -> usize {
        self.n_images
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn read_slab(&mut self, row0: usize, n_rows_slab: usize) -> laue_core::Result<Vec<f64>> {
        let mut slab = Vec::new();
        self.read_slab_into(row0, n_rows_slab, &mut slab)?;
        Ok(slab)
    }

    /// The counts decode straight into `slab`: no u16 copy is made, and a
    /// buffer that holds the slab is reused.
    fn read_slab_into(
        &mut self,
        row0: usize,
        n_rows_slab: usize,
        slab: &mut Vec<f64>,
    ) -> laue_core::Result<()> {
        self.reader
            .read_hyperslab_into::<u16, f64>(
                self.images,
                &[0, row0, 0],
                &[self.n_images, n_rows_slab, self.n_cols],
                slab,
            )
            .map_err(|e| CoreError::Source(format!("mh5 hyperslab read failed: {e}")))
    }
}

/// Alias used by the pipeline: open a scan for streaming.
pub fn read_scan<P: AsRef<Path>>(path: P) -> Result<ScanFile> {
    ScanFile::open(path)
}

/// Concatenate scans that were acquired in parts (an aborted-and-resumed
/// wire scan): the geometries must agree on everything except the step
/// count, and each part's wire trajectory must continue exactly where the
/// previous part stopped (`origin_b = origin_a + n_a · step`).
///
/// Writes a single combined scan (truth tables are merged when every part
/// carries one) and returns the total number of wire steps.
pub fn concat_scans<P: AsRef<Path>>(parts: &[P], out: P) -> Result<usize> {
    if parts.len() < 2 {
        return Err(WireError::InvalidParameter(
            "concatenation needs at least two parts".into(),
        ));
    }
    let scans: Vec<ScanFile> = parts.iter().map(ScanFile::open).collect::<Result<_>>()?;
    let first = &scans[0];
    let g0 = first.geometry();
    let mut total_steps = g0.wire.n_steps;
    for (i, scan) in scans.iter().enumerate().skip(1) {
        let g = scan.geometry();
        if g.detector != g0.detector || g.beam != g0.beam {
            return Err(WireError::InvalidParameter(format!(
                "part {i} has a different detector/beam calibration"
            )));
        }
        if g.wire.axis != g0.wire.axis
            || g.wire.radius != g0.wire.radius
            || g.wire.step != g0.wire.step
        {
            return Err(WireError::InvalidParameter(format!(
                "part {i} has a different wire (axis/radius/step)"
            )));
        }
        let expected_origin = g0.wire.origin + g0.wire.step * total_steps as f64;
        if !g.wire.origin.approx_eq(expected_origin, 1e-6) {
            return Err(WireError::InvalidParameter(format!(
                "part {i} does not continue the scan: origin {:?}, expected {expected_origin:?}",
                g.wire.origin
            )));
        }
        total_steps += g.wire.n_steps;
    }

    let combined_geom = laue_core::ScanGeometry {
        beam: g0.beam,
        wire: laue_geometry::WireGeometry::new(
            g0.wire.axis,
            g0.wire.radius,
            g0.wire.origin,
            g0.wire.step,
            total_steps,
        )?,
        detector: g0.detector.clone(),
    };
    let (m, n) = (g0.detector.n_rows, g0.detector.n_cols);
    let mut images = Vec::with_capacity(total_steps * m * n);
    let mut truth = SamplePlan::new();
    let mut all_truth = true;
    for scan in &scans {
        images.extend(scan.read_full()?);
        match scan.truth() {
            Some(t) => truth.scatterers.extend(t.scatterers.iter().copied()),
            None => all_truth = false,
        }
    }
    write_scan(
        out,
        &combined_geom,
        &images,
        if all_truth { Some(&truth) } else { None },
        8,
    )?;
    Ok(total_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("laue_scan_{}_{name}.mh5", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn demo_scan() -> (ScanGeometry, Vec<f64>, SamplePlan) {
        let geom = ScanGeometry::demo(6, 5, 8, -20.0, 4.0).unwrap();
        let mut plan = SamplePlan::new();
        plan.add_point(2, 3, 10.0, 120.0).unwrap();
        plan.add_point(4, 1, -15.0, 60.0).unwrap();
        let images = crate::forward::render_stack(
            &geom,
            &plan,
            &crate::forward::RenderOptions {
                background: 5.0,
                ..Default::default()
            },
        )
        .unwrap();
        (geom, images, plan)
    }

    #[test]
    fn write_open_round_trip() {
        let (geom, images, plan) = demo_scan();
        let path = tmp("roundtrip");
        write_scan(&path, &geom, &images, Some(&plan), 2).unwrap();
        let scan = ScanFile::open(&path).unwrap();
        assert_eq!(scan.geometry().wire.n_steps, 8);
        assert_eq!(scan.n_images(), 8);
        assert_eq!(scan.n_rows(), 6);
        assert_eq!(scan.n_cols(), 5);
        assert_eq!(scan.truth().unwrap().len(), 2);
        assert!(scan.file_len() > 0);
        let full = scan.read_full().unwrap();
        // Values round-trip through u16 rounding.
        for (a, b) in images.iter().zip(&full) {
            assert!((a - b).abs() <= 0.5, "{a} vs {b}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slab_source_matches_full_read() {
        let (geom, images, _) = demo_scan();
        let path = tmp("slabs");
        write_scan(&path, &geom, &images, None, 2).unwrap();
        let mut scan = ScanFile::open(&path).unwrap();
        assert!(scan.truth().is_none());
        let full = scan.read_full().unwrap();
        // Read rows 1..4 via the slab API and compare.
        let slab = scan.read_slab(1, 3).unwrap();
        for z in 0..8 {
            for r in 0..3 {
                for c in 0..5 {
                    assert_eq!(slab[(z * 3 + r) * 5 + c], full[(z * 6 + (r + 1)) * 5 + c]);
                }
            }
        }
        // A buffer left dirty by a larger read is reused for the same rows.
        let mut buf = vec![f64::NAN; full.len()];
        let capacity = buf.capacity();
        scan.read_slab_into(1, 3, &mut buf).unwrap();
        assert_eq!(buf, slab);
        assert_eq!(buf.capacity(), capacity);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_stack_length_rejected() {
        let (geom, images, _) = demo_scan();
        let path = tmp("badlen");
        assert!(matches!(
            write_scan(&path, &geom, &images[..10], None, 2),
            Err(WireError::InvalidParameter(_))
        ));
    }

    #[test]
    fn values_clamp_to_detector_range() {
        let geom = ScanGeometry::demo(2, 2, 2, 0.0, 5.0).unwrap();
        let images = vec![-5.0, 1e9, 42.4, 42.6, 0.0, 1.0, 2.0, 3.0];
        let path = tmp("clamp");
        write_scan(&path, &geom, &images, None, 1).unwrap();
        let scan = ScanFile::open(&path).unwrap();
        let full = scan.read_full().unwrap();
        assert_eq!(full[0], 0.0, "negatives clamp to zero");
        assert_eq!(full[1], 65_535.0, "overflow clamps to full well");
        assert_eq!(full[2], 42.0);
        assert_eq!(full[3], 43.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concat_resumed_scan_parts() {
        // One 16-step scan rendered whole, then re-rendered as two 8-step
        // parts; concatenation must reproduce the whole scan.
        let whole_geom = ScanGeometry::demo(5, 5, 16, -40.0, 5.0).unwrap();
        let mut plan = SamplePlan::new();
        plan.add_point(2, 2, 10.0, 150.0).unwrap();
        let whole = crate::forward::render_stack(
            &whole_geom,
            &plan,
            &crate::forward::RenderOptions {
                background: 5.0,
                ..Default::default()
            },
        )
        .unwrap();

        let part = |first_step: usize, n: usize| -> ScanGeometry {
            let origin = whole_geom.wire.origin + whole_geom.wire.step * first_step as f64;
            ScanGeometry {
                beam: whole_geom.beam,
                wire: laue_geometry::WireGeometry::new(
                    whole_geom.wire.axis,
                    whole_geom.wire.radius,
                    origin,
                    whole_geom.wire.step,
                    n,
                )
                .unwrap(),
                detector: whole_geom.detector.clone(),
            }
        };
        let ga = part(0, 8);
        let gb = part(8, 8);
        let (m, n) = (5, 5);
        let pa = tmp("concat_a");
        let pb = tmp("concat_b");
        let pc = tmp("concat_out");
        write_scan(&pa, &ga, &whole[..8 * m * n], Some(&plan), 2).unwrap();
        write_scan(&pb, &gb, &whole[8 * m * n..], Some(&plan), 2).unwrap();
        let total = concat_scans(&[&pa, &pb], &pc).unwrap();
        assert_eq!(total, 16);
        let combined = ScanFile::open(&pc).unwrap();
        assert_eq!(combined.n_images(), 16);
        assert_eq!(combined.geometry().wire.n_steps, 16);
        assert!(combined
            .geometry()
            .wire
            .origin
            .approx_eq(whole_geom.wire.origin, 1e-9));
        let data = combined.read_full().unwrap();
        for (a, b) in data.iter().zip(&whole) {
            assert!((a - b).abs() <= 0.5, "u16 rounding only");
        }
        assert_eq!(combined.truth().unwrap().len(), 2, "truth tables merged");
        for p in [&pa, &pb, &pc] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn concat_rejects_mismatched_parts() {
        let g1 = ScanGeometry::demo(4, 4, 6, 0.0, 5.0).unwrap();
        let img1 = vec![1.0; 6 * 16];
        let pa = tmp("bad_a");
        write_scan(&pa, &g1, &img1, None, 2).unwrap();

        // Part B does not continue where A stopped.
        let g2 = ScanGeometry::demo(4, 4, 6, 100.0, 5.0).unwrap();
        let pb = tmp("bad_b");
        write_scan(&pb, &g2, &img1, None, 2).unwrap();
        let pc = tmp("bad_out");
        let err = concat_scans(&[&pa, &pb], &pc).unwrap_err();
        assert!(err.to_string().contains("does not continue"), "{err}");

        // Different detector.
        let g3 = ScanGeometry::demo(4, 5, 6, 30.0, 5.0).unwrap();
        let pd = tmp("bad_d");
        write_scan(&pd, &g3, &vec![1.0; 6 * 20], None, 2).unwrap();
        let err = concat_scans(&[&pa, &pd], &pc).unwrap_err();
        assert!(err.to_string().contains("detector"), "{err}");

        // A single part is rejected.
        assert!(concat_scans(&[&pa], &pc).is_err());
        for p in [&pa, &pb, &pd] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(&pc).ok();
    }

    #[test]
    fn missing_pieces_detected() {
        // A plain mh5 file without the scan structure.
        let path = tmp("notascan");
        let mut w = FileWriter::create(&path).unwrap();
        w.create_group(FileWriter::ROOT, "whatever").unwrap();
        w.finish().unwrap();
        assert!(matches!(
            ScanFile::open(&path),
            Err(WireError::MissingField(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
