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
//! 1. **Checksummed transfers** — every host↔device copy runs through the
//!    CRC64-checked variants ([`cuda_sim::Device::memcpy_htod_checked_on`]
//!    and friends), which detect every single-bit payload error. A CRC
//!    mismatch is retryable: re-sending the payload re-rolls the fault
//!    dice, so one-shot flips are *corrected* by the existing transfer
//!    retry loop.
//! 2. **ABFT depth-sum verification** — after each slab's download, the
//!    host redundantly recomputes the slab with the dense CPU engine
//!    (bit-identical to the device under the sequential executor) and
//!    compares per-depth-bin sums. The recompute FLOPs are charged to the
//!    overlapped host-CPU resource, so the planner's virtual-time model
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
//! reference. A run that detected *and corrected* corruption completes
//! bit-identical to a fault-free run and is marked `INTEGRITY-DEGRADED`
//! in its report.

use cuda_sim::NonzeroWords;
use laue_geometry::DepthMapper;

use crate::config::ReconstructionConfig;
use crate::cpu;
use crate::geometry::ScanGeometry;
use crate::input::{ScanView, SlabSource};
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
/// against — and the repair donor when scrub exhausts its retries.
pub(crate) struct SlabReference {
    /// The slab's nonzero cells in slab layout,
    /// `[(bin · rows + r) · n_cols + c]` — the payload a slab download
    /// returns and [`crate::journal::SlabProgress::commit`] takes.
    pub(crate) data: NonzeroWords,
    /// Per-depth-bin sums of `data` ([`bin_sums`]).
    pub(crate) bin_sums: Vec<f64>,
    /// Host FLOPs the recompute (and its bin-sum pass) cost.
    pub(crate) host_flops: u64,
}

/// Redundantly recompute one slab on the host with the dense CPU engine.
///
/// The dense path deposits in exactly the order the sequential device
/// executor does (and all compaction/accumulation variants are bit-equal
/// to it), so the reference is bit-identical to an uncorrupted slab no
/// matter which plan the GPU ran. The slab's intensities are re-read from
/// the source — verification must not trust the device-resident copy.
pub(crate) fn slab_reference(
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    row0: usize,
    rows: usize,
) -> Result<SlabReference> {
    let slab = source.read_slab(row0, rows)?;
    let view = ScanView::new(&slab, source.n_images(), rows, source.n_cols())?;
    let (image, _stats, cost) = cpu::reconstruct_rows(&view, geom, mapper, cfg, 0..rows, row0);
    let data = NonzeroWords::from_slice(&image.data)?;
    let bin_sums = bin_sums(&data, cfg.n_depth_bins);
    let host_flops = cost.flops + image.data.len() as u64;
    Ok(SlabReference {
        data,
        bin_sums,
        host_flops,
    })
}

/// Per-depth-bin sums of a slab payload's cells, summed in index order.
/// The observed slab and the host reference both go through this one
/// function, so two bit-identical slabs always produce bit-identical sums.
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
