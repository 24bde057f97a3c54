//! Result export: depth-resolved output as mh5 and text.
//!
//! The original program "writes results back to text files" (§III-C); the
//! text exporters mirror that, while the mh5 exporter keeps results in the
//! same container family as the inputs.

use std::io::Write;
use std::path::Path;

use laue_core::{DepthImage, ReconstructionConfig};
use mh5::{AttrValue, Codec, Dtype, FileWriter};

use crate::report::RunReport;
use crate::Result;

/// Write the depth image to an mh5 file:
/// `/reconstruction/depth_image` (f64, `(bins, rows, cols)`, one chunk per
/// depth bin), with the depth axis and run metadata as attributes. The
/// chunks are RLE-coded: a depth image is mostly zeros, so a chunk shrinks
/// to a few bytes per run, and one that would not shrink is stored raw.
pub fn write_mh5<P: AsRef<Path>>(
    path: P,
    report: &RunReport,
    cfg: &ReconstructionConfig,
) -> Result<()> {
    let img = &report.image;
    let mut w = FileWriter::create(path).map_err(crate::PipelineError::Mh5)?;
    let g = w.create_group(FileWriter::ROOT, "reconstruction")?;
    w.set_attr(g, "engine", AttrValue::Str(report.engine.clone()))?;
    w.set_attr(g, "depth_start_um", AttrValue::Float(cfg.depth_start))?;
    w.set_attr(g, "depth_end_um", AttrValue::Float(cfg.depth_end))?;
    w.set_attr(g, "n_depth_bins", AttrValue::Int(cfg.n_depth_bins as i64))?;
    w.set_attr(
        g,
        "intensity_cutoff",
        AttrValue::Float(cfg.intensity_cutoff),
    )?;
    w.set_attr(g, "total_time_s", AttrValue::Float(report.total_time_s))?;
    w.set_attr(
        g,
        "pairs_deposited",
        AttrValue::Int(report.stats.pairs_deposited as i64),
    )?;
    let ds = w.create_dataset_with_codec(
        g,
        "depth_image",
        Dtype::F64,
        &[img.n_bins, img.n_rows, img.n_cols],
        &[1, img.n_rows, img.n_cols],
        Codec::Rle,
    )?;
    w.write_all(ds, &img.data)?;
    w.finish()?;
    Ok(())
}

/// Write one pixel's depth profile as two-column text
/// (`depth_um intensity`).
pub fn write_profile_text<W: Write>(
    out: &mut W,
    image: &DepthImage,
    cfg: &ReconstructionConfig,
    row: usize,
    col: usize,
) -> Result<()> {
    writeln!(out, "# depth profile of pixel ({row}, {col})")?;
    writeln!(out, "# depth_um  intensity")?;
    for (bin, v) in image.depth_profile(row, col).iter().enumerate() {
        writeln!(out, "{:12.4}  {:14.6}", cfg.bin_center(bin), v)?;
    }
    Ok(())
}

/// Write the per-bin total intensity (the integrated depth histogram).
pub fn write_histogram_text<W: Write>(
    out: &mut W,
    image: &DepthImage,
    cfg: &ReconstructionConfig,
) -> Result<()> {
    writeln!(out, "# integrated depth histogram")?;
    writeln!(out, "# depth_um  total_intensity")?;
    for bin in 0..image.n_bins {
        writeln!(
            out,
            "{:12.4}  {:14.6}",
            cfg.bin_center(bin),
            image.bin_total(bin)
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use laue_core::ReconStats;
    use mh5::FileReader;

    fn report() -> (RunReport, ReconstructionConfig) {
        let cfg = ReconstructionConfig::new(0.0, 100.0, 4);
        let mut image = DepthImage::zeroed(4, 2, 3);
        *image.at_mut(1, 0, 0) = 7.0;
        *image.at_mut(2, 1, 2) = 3.0;
        (
            RunReport::host(
                "cpu-seq".into(),
                image,
                ReconStats::default(),
                1.0,
                (4, 2, 3),
            ),
            cfg,
        )
    }

    #[test]
    fn mh5_export_round_trips() {
        let (r, cfg) = report();
        let path = std::env::temp_dir().join(format!("export_{}.mh5", std::process::id()));
        write_mh5(&path, &r, &cfg).unwrap();
        let f = FileReader::open(&path).unwrap();
        let g = f.resolve_path("/reconstruction").unwrap();
        assert_eq!(
            f.attr(g, "engine").unwrap().unwrap().as_str(),
            Some("cpu-seq")
        );
        assert_eq!(
            f.attr(g, "n_depth_bins").unwrap().unwrap().as_int(),
            Some(4)
        );
        let ds = f.resolve_path("/reconstruction/depth_image").unwrap();
        let data: Vec<f64> = f.read_all(ds).unwrap();
        assert_eq!(data, r.image.data);
        // Two nonzero cells in 24: the zeros are stored as runs.
        let raw_bytes = 8 * r.image.data.len() as u64;
        let stored = f.dataset_info(ds).unwrap().stored_bytes;
        assert!(
            stored < raw_bytes,
            "stored {stored} of {raw_bytes} raw bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_exports_are_parsable() {
        let (r, cfg) = report();
        let mut buf = Vec::new();
        write_profile_text(&mut buf, &r.image, &cfg, 0, 0).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let data_lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(data_lines.len(), 4);
        // Bin 1 (centre 37.5) carries 7.0.
        let fields: Vec<f64> = data_lines[1]
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(fields, vec![37.5, 7.0]);

        let mut buf = Vec::new();
        write_histogram_text(&mut buf, &r.image, &cfg).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("37.5"));
        let total: f64 = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((total - 10.0).abs() < 1e-9);
    }
}
