//! End-to-end data-integrity layer: detection and accounting for silent
//! corruption.
//!
//! GPU nodes of the paper's era (Fermi-class, pre-ECC-everywhere clusters)
//! were notorious for silent data corruption: a transfer or kernel can
//! complete "successfully" with wrong bits. The simulator injects exactly
//! that class of fault ([`cuda_sim::FaultPlan`] silent bit-flips and stuck
//! kernels); this module supplies the three defences the engines wire in
//! when [`IntegrityMode`](crate::config::IntegrityMode) ≠ `Off`:
//!
//! 1. **Checksummed transfers** — every host↔device copy runs with the
//!    `checked` flag of [`cuda_sim::Device::memcpy_htod`] and
//!    [`cuda_sim::Device::memcpy_dtoh`] set, whose CRC64 detects every
//!    single-bit payload error. A CRC
//!    mismatch is retryable: re-sending the payload re-rolls the fault
//!    dice, so one-shot flips are *corrected* by the existing transfer
//!    retry loop.
//! 2. **ABFT depth-sum verification** — after each slab's download, the
//!    host re-reads the slab from the source and redundantly recomputes its
//!    per-depth-bin sums with the dense CPU pair loop, on every host core
//!    and without building the slab's image (`slab_reference`). The
//!    device executor deposits in that loop's order at any worker count, so
//!    the sums are compared bit for bit. The recompute FLOPs are charged to
//!    the overlapped host-CPU resource, so the planner's virtual-time model
//!    prices the verification without stalling device streams.
//! 3. **Watchdog deadlines** — each launch's modeled duration is compared
//!    against `WATCHDOG_MULTIPLIER` (4) × the cost model's prediction for its
//!    metered work; a stuck kernel (injected stall) blows the deadline
//!    while its cost stays honest.
//!
//! Recovery is mode-dependent: `verify` aborts the run with
//! [`CoreError::IntegrityViolation`](crate::CoreError::IntegrityViolation)
//! on the first failed check (never failing over — that would re-export
//! condemned data); `scrub` quarantines the slab (a poison record in the
//! run journal), re-executes it with bounded exponential backoff, and — if
//! the device corrupts persistently — repairs the slab from the host
//! reference's dense payload (`slab_donor`, computed only then). A run
//! that detected *and corrected* corruption completes bit-identical to a
//! fault-free run and is marked `INTEGRITY-DEGRADED` in its report.

use std::ops::Range;

use cuda_sim::exec::host_cores;
use cuda_sim::{Cost, NonzeroWords};
use laue_geometry::DepthMapper;

use crate::config::ReconstructionConfig;
use crate::cpu;
use crate::geometry::ScanGeometry;
use crate::input::{ScanView, SlabSource};
use crate::multi::row_bands;
use crate::stats::ReconStats;
use crate::Result;

/// How many times a scrub re-executes a failed slab before repairing it
/// from the host reference.
pub(crate) const MAX_SCRUB_RETRIES: u32 = 3;

/// First scrub backoff (virtual seconds); doubles per further attempt on
/// the same slab, mirroring the transfer retry loop.
pub(crate) const SCRUB_BACKOFF_BASE_S: f64 = 100e-6;

/// Watchdog deadline of a launch, as a multiple of the cost model's
/// prediction for its metered work: generous enough that cost-model
/// prediction error (< 15 % per the planner's validation sweep) never trips
/// it, tight enough that an injected multi-× stall always does.
pub(crate) const WATCHDOG_MULTIPLIER: f64 = 4.0;

/// What the integrity layer did during one reconstruction. All zeros when
/// [`IntegrityMode::Off`](crate::config::IntegrityMode::Off) (no checks
/// run, nothing to report).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntegrityReport {
    /// Individual checks evaluated: checked transfers, ABFT slab
    /// verifications, and per-launch watchdog deadlines.
    pub checks_run: u64,
    /// Transfers whose CRC64 end-to-end check failed (each is detected
    /// corruption; a successful retry also corrects it).
    pub transfer_crc_failures: u64,
    /// Slab verifications where the ABFT depth-bin sums disagreed with the
    /// host reference.
    pub abft_mismatches: u64,
    /// Launches whose modeled duration blew the watchdog deadline.
    pub watchdog_timeouts: u64,
    /// Distinct corruption events detected (CRC failures plus condemned
    /// slabs — a slab counts once no matter how many retries it takes).
    pub corruptions_detected: u64,
    /// Detected corruptions that recovery made good (clean re-send,
    /// verified re-execution, or host-reference repair).
    pub corruptions_corrected: u64,
    /// Slab re-executions performed by scrub recovery.
    pub scrub_retries: u64,
    /// Slabs repaired from the host ABFT reference after the retry budget
    /// was exhausted (a persistently corrupting device).
    pub cpu_fallback_slabs: u64,
    /// Host-CPU seconds spent on verification work (CRC passes and ABFT
    /// recomputes), accounted on the overlapped host resource. This is a
    /// *resource* charge, not a makespan delta: the checks ride the host
    /// CPU in parallel with device streams, so on a healthy device this
    /// figure routinely exceeds the verify-vs-off total-time difference
    /// (it can even exceed the total run time outright).
    pub verify_host_cpu_s: f64,
    /// Virtual stream seconds integrity recovery *added to the makespan*:
    /// CRC-retry backoffs, scrub quarantine backoffs, and re-executed
    /// slabs (upload + kernels + download of every retry). Zero on a
    /// clean run — this is the field that matches the verify-vs-off
    /// total-time delta, unlike [`verify_host_cpu_s`](Self::verify_host_cpu_s).
    pub exposed_overhead_s: f64,
}

impl IntegrityReport {
    /// Fold another report (a band's, a device's) into this one.
    pub fn merge(&mut self, other: &IntegrityReport) {
        self.checks_run += other.checks_run;
        self.transfer_crc_failures += other.transfer_crc_failures;
        self.abft_mismatches += other.abft_mismatches;
        self.watchdog_timeouts += other.watchdog_timeouts;
        self.corruptions_detected += other.corruptions_detected;
        self.corruptions_corrected += other.corruptions_corrected;
        self.scrub_retries += other.scrub_retries;
        self.cpu_fallback_slabs += other.cpu_fallback_slabs;
        self.verify_host_cpu_s += other.verify_host_cpu_s;
        self.exposed_overhead_s += other.exposed_overhead_s;
    }

    /// Did this run see corruption at all? A completed run with
    /// `degraded() == true` produced correct output (every detection was
    /// corrected — otherwise it would have aborted) but ran on hardware
    /// that corrupted data; callers surface it as `INTEGRITY-DEGRADED`.
    pub fn degraded(&self) -> bool {
        self.corruptions_detected > 0
    }
}

/// The host-side redundant slab computation the ABFT check compares
/// against.
pub(crate) struct SlabReference {
    /// Per-depth-bin sums of the slab's cells, bit-identical to what
    /// [`bin_sums`] takes over the slab's dense payload.
    pub(crate) bin_sums: Vec<f64>,
    /// Host FLOPs the recompute and a bin-sum pass over the dense slab
    /// cost.
    pub(crate) host_flops: u64,
}

/// Redundantly recompute one slab's per-bin sums on the host, without
/// building its image.
///
/// The slab's intensities are re-read from the source into `slab`, the
/// ring's host buffer — verification must not trust the device-resident
/// copy — and walked by the host's one dense pair loop
/// ([`cpu::DenseWalk`]), which deposits every cell in the order the device
/// executor does (every compaction/accumulation variant is bit-equal to
/// it), so the sums are bit-identical to an uncorrupted slab's whichever
/// plan the GPU ran. Row bands run on every host core.
pub(crate) fn slab_reference(
    source: &mut dyn SlabSource,
    slab: &mut Vec<f64>,
    geom: &ScanGeometry,
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    row0: usize,
    rows: usize,
) -> Result<SlabReference> {
    source.read_slab_into(row0, rows, slab)?;
    let view = ScanView::new(slab, source.n_images(), rows, source.n_cols())?;
    let walk = cpu::DenseWalk::new(view, geom, mapper, cfg, row0);
    Ok(reference_sums(&walk, cfg.n_depth_bins, host_cores()))
}

/// [`slab_reference`]'s sums over `walk`, on `workers` row bands
/// ([`row_bands`]).
///
/// Each pixel deposits into an `n_bins` scratch row; its nonzero cells go
/// to the band's list in pixel order. The bands' lists are then added to
/// the sums in row order: every bin's cells arrive in row-major pixel
/// order, its index order in the slab payload, so each sum adds the same
/// values in the same order as [`bin_sums`] over the dense image.
fn reference_sums(walk: &cpu::DenseWalk<'_>, n_bins: usize, workers: usize) -> SlabReference {
    let (rows, cols) = (walk.view().n_rows, walk.view().n_cols);
    let bands = row_bands(rows, workers);
    let pairs = 0..walk.view().n_images - 1;
    let band = |rows: Range<usize>| {
        let mut scratch = vec![0.0f64; n_bins];
        let mut cells: Vec<(usize, f64)> = Vec::new();
        let (mut stats, mut cost) = (ReconStats::default(), Cost::default());
        for r in rows {
            for c in 0..cols {
                let (mut lo, mut hi) = (n_bins, 0);
                walk.pixel(r, c, pairs.clone(), &mut stats, &mut cost, |bin, amount| {
                    scratch[bin] += amount;
                    lo = lo.min(bin);
                    hi = hi.max(bin + 1);
                });
                for (bin, cell) in scratch.iter_mut().enumerate().take(hi).skip(lo) {
                    let v = std::mem::take(cell);
                    if v.to_bits() != 0 {
                        cells.push((bin, v));
                    }
                }
            }
        }
        (cells, cost.flops)
    };
    let parts: Vec<(Vec<(usize, f64)>, u64)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = bands[1..]
            .iter()
            .map(|rows| scope.spawn(|| band(rows.clone())))
            .collect();
        let mut parts = vec![band(bands[0].clone())];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("an ABFT reference band panicked")),
        );
        parts
    });
    let mut bin_sums = vec![0.0; n_bins];
    let mut host_flops = (n_bins * rows * cols) as u64;
    for (cells, flops) in parts {
        for (bin, v) in cells {
            bin_sums[bin] += v;
        }
        host_flops += flops;
    }
    SlabReference {
        bin_sums,
        host_flops,
    }
}

/// The repair donor scrub commits once its retries are spent: the slab's
/// nonzero cells in slab layout, `[(bin · rows + r) · n_cols + c]` — the
/// payload a slab download returns and
/// [`crate::journal::SlabProgress::commit`] takes — recomputed from a fresh
/// re-read of the source. Only a persistently corrupting device needs it,
/// so the ABFT check never builds it; its FLOPs were charged with that
/// check's.
pub(crate) fn slab_donor(
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    row0: usize,
    rows: usize,
) -> Result<NonzeroWords> {
    let slab = source.read_slab(row0, rows)?;
    let view = ScanView::new(&slab, source.n_images(), rows, source.n_cols())?;
    let walk = cpu::DenseWalk::new(view, geom, mapper, cfg, row0);
    let (image, _stats, _cost) = cpu::reconstruct_rows(&walk, 0..rows);
    Ok(NonzeroWords::from_slice(&image.data)?)
}

/// Per-depth-bin sums of a slab payload's cells, summed in index order:
/// the observed side of the ABFT check. [`reference_sums`] adds the
/// reference's cells in the same order, so a slab bit-identical to the
/// reference's payload always produces bit-identical sums.
pub(crate) fn bin_sums(slab: &NonzeroWords, n_bins: usize) -> Vec<f64> {
    let per_bin = slab.len() / n_bins.max(1);
    let mut sums = vec![0.0; n_bins];
    for (i, w) in slab.cells() {
        sums[i / per_bin] += f64::from_bits(w);
    }
    sums
}

/// Compare ABFT sums bit for bit: the kernel executor reproduces the
/// host's deposit order at any worker count, and a NaN from corruption can
/// never match a real-valued reference.
pub(crate) fn sums_match(observed: &[f64], reference: &[f64]) -> bool {
    observed.len() == reference.len()
        && observed
            .iter()
            .zip(reference)
            .all(|(o, r)| o.to_bits() == r.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::tests::{random_stack, reconstruct_rows_oracle, wire_edge};
    use proptest::prelude::*;

    /// The dense reference as it was before [`reference_sums`], kept as the
    /// oracle: the slab's whole image from the pre-walk loop, its nonzero
    /// cells, and their [`bin_sums`].
    fn dense_reference(
        view: &ScanView<'_>,
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        row0: usize,
    ) -> (NonzeroWords, Vec<f64>, u64) {
        let (image, _stats, cost) =
            reconstruct_rows_oracle(view, geom, mapper, cfg, 0..view.n_rows, row0);
        let data = NonzeroWords::from_slice(&image.data).unwrap();
        let host_flops = cost.flops + image.data.len() as u64;
        let sums = bin_sums(&data, cfg.n_depth_bins);
        (data, sums, host_flops)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The image-free sums are the dense payload's `bin_sums` bit for
        /// bit, and charge the same host FLOPs, at any band count.
        #[test]
        fn image_free_sums_match_the_dense_reference(
            stack in random_stack(10, 7, 6),
            row0 in 0usize..5,
            cutoff in prop_oneof![Just(0.0f64), 0.0f64..60.0],
            edge in wire_edge(),
            start in -1500.0f64..200.0,
            width in 50.0f64..3000.0,
            bins in 1usize..90,
            workers in 1usize..=4,
        ) {
            let (p, rows, n, data) = stack;
            let geom = ScanGeometry::demo(row0 + rows + 1, n, p, -60.0, 6.0).unwrap();
            let mapper = geom.mapper().unwrap();
            let mut cfg = ReconstructionConfig::new(start, start + width, bins);
            cfg.intensity_cutoff = cutoff;
            cfg.wire_edge = edge;
            let view = ScanView::new(&data, p, rows, n).unwrap();
            let (_, want_sums, want_flops) = dense_reference(&view, &geom, &mapper, &cfg, row0);
            let walk = cpu::DenseWalk::new(view, &geom, &mapper, &cfg, row0);
            let got = reference_sums(&walk, bins, workers);
            prop_assert!(
                sums_match(&got.bin_sums, &want_sums),
                "{:?} vs {:?}",
                got.bin_sums,
                want_sums
            );
            prop_assert_eq!(got.host_flops, want_flops);
        }
    }

    #[test]
    fn slab_reference_and_donor_match_the_dense_payload() {
        let geom = ScanGeometry::demo(6, 5, 9, -60.0, 6.0).unwrap();
        let mapper = geom.mapper().unwrap();
        let cfg = ReconstructionConfig::new(-1200.0, 1200.0, 60);
        let (p, m, n) = (9, 6, 5);
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| 900.0 - 31.0 * (i / (m * n)) as f64 - (i % 7) as f64 * 3.0)
            .collect();
        let mut source = crate::input::InMemorySlabSource::new(data.clone(), p, m, n).unwrap();
        let (row0, rows) = (2, 3);
        let reference = slab_reference(
            &mut source,
            &mut Vec::new(),
            &geom,
            &mapper,
            &cfg,
            row0,
            rows,
        )
        .unwrap();
        let donor = slab_donor(&mut source, &geom, &mapper, &cfg, row0, rows).unwrap();
        let slab = source.read_slab(row0, rows).unwrap();
        let view = ScanView::new(&slab, p, rows, n).unwrap();
        let (want, want_sums, want_flops) = dense_reference(&view, &geom, &mapper, &cfg, row0);
        assert!(donor.nnz() > 0);
        assert_eq!(donor, want);
        assert!(sums_match(&reference.bin_sums, &want_sums));
        assert_eq!(reference.host_flops, want_flops);
    }

    #[test]
    fn report_merges_and_flags_degradation() {
        let mut a = IntegrityReport {
            checks_run: 3,
            verify_host_cpu_s: 0.5,
            ..IntegrityReport::default()
        };
        assert!(!a.degraded());
        let b = IntegrityReport {
            checks_run: 2,
            corruptions_detected: 1,
            corruptions_corrected: 1,
            scrub_retries: 2,
            verify_host_cpu_s: 0.25,
            exposed_overhead_s: 0.125,
            ..IntegrityReport::default()
        };
        a.merge(&b);
        assert_eq!(a.checks_run, 5);
        assert_eq!(a.scrub_retries, 2);
        assert!((a.verify_host_cpu_s - 0.75).abs() < 1e-12);
        assert!((a.exposed_overhead_s - 0.125).abs() < 1e-12);
        assert!(a.degraded());
    }

    #[test]
    fn bin_sums_are_per_bin_and_order_stable() {
        // 2 bins × 3 values each; the zeros stay implicit.
        let data = [1.0, 0.0, 3.0, 0.0, 20.0, 30.0];
        let slab = NonzeroWords::from_slice(&data).unwrap();
        assert_eq!(bin_sums(&slab, 2), vec![4.0, 50.0]);
        let empty = NonzeroWords::zeros(6).unwrap();
        assert_eq!(bin_sums(&empty, 2), vec![0.0, 0.0]);
    }

    #[test]
    fn exact_match_catches_any_bit_difference() {
        let reference = [1.0, -2.5, 0.0];
        let mut observed = reference;
        assert!(sums_match(&observed, &reference));
        observed[1] = f64::from_bits(observed[1].to_bits() ^ (1 << 62));
        assert!(!sums_match(&observed, &reference));
        // A corruption-made NaN can never match a real reference.
        let nan = [f64::NAN, -2.5, 0.0];
        assert!(!sums_match(&nan, &reference));
        // Nor can a last-bit reassociation difference, or a short slab.
        let close = [1.0, f64::from_bits((-2.5f64).to_bits() + 1), 0.0];
        assert!(!sums_match(&close, &reference));
        assert!(!sums_match(&reference[..1], &reference), "length");
    }
}
