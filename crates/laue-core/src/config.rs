//! Reconstruction parameters.

use crate::error::CoreError;
use crate::Result;
use laue_geometry::WireEdge;

/// How the engines exploit differential-stack sparsity.
///
/// Every mode produces bit-identical images: the sparsity pass only removes
/// work that provably deposits nothing (sub-cutoff differentials and pairs
/// whose wire-shadow band misses the reconstruction window for an entire
/// detector row). The modes differ only in whether the prescan/compaction
/// cost is paid and when the compacted launch is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionMode {
    /// Dense traversal of the full `(row, col, pair)` domain. No prescan,
    /// no culling — the behaviour of every release before this knob.
    #[default]
    Off,
    /// Always cull wire-shadowed rows and run the metered prescan, then
    /// pick dense or compacted execution per slab by comparing the modeled
    /// cost of both launches on the target device (see
    /// `laue_core::planner`).
    Auto,
    /// Always cull, prescan, and launch over the compacted work-list,
    /// regardless of density.
    On,
}

/// How the GPU engines accumulate depth intensities into the output image.
///
/// Every strategy produces bit-identical images: per pixel the deposits
/// land in the same ascending-depth order whether they go straight to
/// device memory or stage through a per-block shared tile first. The
/// strategies differ only in modeled cost — the privatized path replaces
/// one global CAS atomic per deposit with cheap shared-memory updates plus
/// a single global add per touched `(pixel, bin)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumulationMode {
    /// Per-deposit `atomicAdd(double)` CAS loop on device memory — the
    /// paper's §III-C scheme and the behaviour of every release before
    /// this knob.
    #[default]
    Atomic,
    /// Per-block privatized depth-bin tiles in shared memory, committed by
    /// one global add per touched `(pixel, bin)` cell. Slabs whose bin
    /// tile exceeds the device's shared memory fall back to the atomic
    /// path (recorded in the stats).
    Privatized,
    /// Pick per slab by comparing the modeled kernel cost of both
    /// strategies on the target device (see `laue_core::planner`); slabs
    /// whose bin tile cannot fit shared memory always run atomic.
    Auto,
}

/// End-to-end data-integrity policy for a run (see `laue_core::integrity`).
///
/// Silent corruption — a flipped bit in a DMA payload, a wrong sum from a
/// "successful" kernel, a hung launch — carries no error code, so the only
/// defence is redundant checking. The modes trade verification cost for
/// coverage; every mode still produces bit-identical images on a healthy
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No integrity checking (the behaviour of every release before this
    /// knob). Silent corruption propagates to the output undetected.
    #[default]
    Off,
    /// Detect: checksummed transfers (CRC64 before/after the wire),
    /// ABFT-style per-slab depth-sum verification against a redundant host
    /// computation, and a per-launch watchdog deadline. A detected
    /// corruption aborts the run with a detected-corruption error rather
    /// than exporting bad data.
    Verify,
    /// Detect and repair: everything `verify` does, plus quarantine of the
    /// failed slab, bounded re-execution with exponential backoff, and a
    /// host-side repair path if the device keeps corrupting. The run
    /// completes bit-identical to a fault-free run, flagged
    /// `INTEGRITY-DEGRADED` when anything had to be corrected.
    Scrub,
}

impl IntegrityMode {
    /// Stable lower-case label used by the CLI and the run journal.
    pub fn label(self) -> &'static str {
        match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Verify => "verify",
            IntegrityMode::Scrub => "scrub",
        }
    }

    /// Parse a CLI spelling (`off`, `verify`, `scrub`).
    pub fn parse(s: &str) -> Option<IntegrityMode> {
        match s {
            "off" => Some(IntegrityMode::Off),
            "verify" => Some(IntegrityMode::Verify),
            "scrub" => Some(IntegrityMode::Scrub),
            _ => None,
        }
    }

    /// Whether any integrity checking runs at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, IntegrityMode::Off)
    }

    /// Whether a detected corruption is repaired in place (re-execute /
    /// host fallback) instead of aborting the run.
    #[inline]
    pub fn repairs(self) -> bool {
        matches!(self, IntegrityMode::Scrub)
    }
}

/// How the execution strategy for a run is chosen.
///
/// Every plan produces bit-identical images — layout, ring depth, slab
/// rows, compaction, and accumulation are all correctness-free choices —
/// so the planner only moves modeled cost around. Under both modes the
/// configured compaction and accumulation modes are the ones priced and
/// run (`auto` ones resolve per slab by the cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Run the engine's plan: its layout and triangulation, and each
    /// pinned slab height, ring depth and reduction, the engine's default
    /// where unpinned.
    #[default]
    Fixed,
    /// Enumerate candidate execution plans (layout × table placement ×
    /// ring depth × slab rows, and on more than one node reduction
    /// topology × overlap), searching only what is not pinned, predict
    /// each candidate's virtual cost with the calibrated cuda-sim model,
    /// and run the argmin. The chosen plan and its predicted cost are
    /// reported in the run's explain block.
    Auto,
}

impl PlanMode {
    /// Stable lower-case label used by the CLI and the run journal.
    pub fn label(self) -> &'static str {
        match self {
            PlanMode::Fixed => "fixed",
            PlanMode::Auto => "auto",
        }
    }

    /// Parse a CLI spelling (`fixed`, `auto`).
    pub fn parse(s: &str) -> Option<PlanMode> {
        match s {
            "fixed" => Some(PlanMode::Fixed),
            "auto" => Some(PlanMode::Auto),
            _ => None,
        }
    }
}

impl AccumulationMode {
    /// Stable lower-case label used by the CLI and the run journal.
    pub fn label(self) -> &'static str {
        match self {
            AccumulationMode::Atomic => "atomic",
            AccumulationMode::Privatized => "privatized",
            AccumulationMode::Auto => "auto",
        }
    }

    /// Parse a CLI spelling (`atomic`, `privatized`, `auto`).
    pub fn parse(s: &str) -> Option<AccumulationMode> {
        match s {
            "atomic" => Some(AccumulationMode::Atomic),
            "privatized" => Some(AccumulationMode::Privatized),
            "auto" => Some(AccumulationMode::Auto),
            _ => None,
        }
    }

    /// Whether this mode ever privatizes (i.e. the engine should consider
    /// the shared-memory tile at all).
    #[inline]
    pub fn wants_privatized(self) -> bool {
        !matches!(self, AccumulationMode::Atomic)
    }
}

impl CompactionMode {
    /// Stable lower-case label used by the CLI and the run journal.
    pub fn label(self) -> &'static str {
        match self {
            CompactionMode::Off => "off",
            CompactionMode::Auto => "auto",
            CompactionMode::On => "on",
        }
    }

    /// Parse a CLI spelling (`off`, `auto`, `on`).
    pub fn parse(s: &str) -> Option<CompactionMode> {
        match s {
            "off" => Some(CompactionMode::Off),
            "auto" => Some(CompactionMode::Auto),
            "on" => Some(CompactionMode::On),
            _ => None,
        }
    }

    /// Whether this mode runs the sparsity pass at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, CompactionMode::Off)
    }
}

/// Parameters of a depth reconstruction run.
///
/// ```
/// use laue_core::ReconstructionConfig;
///
/// let mut cfg = ReconstructionConfig::new(-100.0, 100.0, 50);
/// cfg.intensity_cutoff = 2.5; // the paper's d_cutoff
/// cfg.validate().unwrap();
/// assert_eq!(cfg.bin_width(), 4.0);
/// assert_eq!(cfg.bin_center(0), -98.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionConfig {
    /// First reconstructed depth, µm (depths below are discarded).
    pub depth_start: f64,
    /// One-past-last reconstructed depth, µm.
    pub depth_end: f64,
    /// Number of depth bins between `depth_start` and `depth_end`.
    pub n_depth_bins: usize,
    /// Differential intensities with `|ΔI|` below this are skipped — the
    /// paper's `d_cutoff`; raising it lowers the "pixel percentage" of
    /// Fig 9.
    pub intensity_cutoff: f64,
    /// Which wire edge the reconstruction follows.
    pub wire_edge: WireEdge,
    /// Sparsity strategy: wire-shadow row culling plus active-pair
    /// compaction. Defaults to [`CompactionMode::Off`] (dense traversal).
    pub compaction: CompactionMode,
    /// Depth-intensity accumulation strategy on the GPU engines. Defaults
    /// to [`AccumulationMode::Atomic`] (the paper-faithful CAS loop); CPU
    /// engines ignore it.
    pub accumulation: AccumulationMode,
    /// Whether the execution plan is taken from the flags verbatim
    /// ([`PlanMode::Fixed`], the default) or chosen by the cost-model
    /// planner ([`PlanMode::Auto`]).
    pub plan: PlanMode,
    /// End-to-end data-integrity policy (checksummed transfers, ABFT
    /// depth-sum verification, launch watchdog, scrub/re-execute).
    /// Defaults to [`IntegrityMode::Off`].
    pub integrity: IntegrityMode,
}

impl ReconstructionConfig {
    /// A reasonable default over a given depth window.
    pub fn new(depth_start: f64, depth_end: f64, n_depth_bins: usize) -> ReconstructionConfig {
        ReconstructionConfig {
            depth_start,
            depth_end,
            n_depth_bins,
            intensity_cutoff: 0.0,
            wire_edge: WireEdge::Leading,
            compaction: CompactionMode::default(),
            accumulation: AccumulationMode::default(),
            plan: PlanMode::default(),
            integrity: IntegrityMode::default(),
        }
    }

    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if !self.depth_start.is_finite() || !self.depth_end.is_finite() {
            return Err(CoreError::InvalidConfig(
                "depth range must be finite".into(),
            ));
        }
        if self.depth_end <= self.depth_start {
            return Err(CoreError::InvalidConfig(format!(
                "depth_end {} must exceed depth_start {}",
                self.depth_end, self.depth_start
            )));
        }
        if self.n_depth_bins == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one depth bin".into(),
            ));
        }
        if self.intensity_cutoff < 0.0 || !self.intensity_cutoff.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "intensity cutoff {} must be ≥ 0 and finite",
                self.intensity_cutoff
            )));
        }
        Ok(())
    }

    /// Width of one depth bin, µm.
    #[inline]
    pub fn bin_width(&self) -> f64 {
        (self.depth_end - self.depth_start) / self.n_depth_bins as f64
    }

    /// Centre depth of bin `k`, µm.
    #[inline]
    pub fn bin_center(&self, k: usize) -> f64 {
        self.depth_start + (k as f64 + 0.5) * self.bin_width()
    }

    /// All bin centres, in order.
    pub fn bin_centers(&self) -> Vec<f64> {
        (0..self.n_depth_bins).map(|k| self.bin_center(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        c.validate().unwrap();
        assert_eq!(c.bin_width(), 4.0);
        assert_eq!(c.bin_center(0), -98.0);
        assert_eq!(c.bin_center(49), 98.0);
        assert_eq!(c.bin_centers().len(), 50);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let base = ReconstructionConfig::new(0.0, 100.0, 10);
        let mut c = base.clone();
        c.depth_end = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.depth_start = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.n_depth_bins = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.intensity_cutoff = -1.0;
        assert!(c.validate().is_err());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn compaction_mode_round_trips_and_defaults_off() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.compaction, CompactionMode::Off);
        assert!(!c.compaction.enabled());
        for m in [
            CompactionMode::Off,
            CompactionMode::Auto,
            CompactionMode::On,
        ] {
            assert_eq!(CompactionMode::parse(m.label()), Some(m));
        }
        assert_eq!(CompactionMode::parse("dense"), None);
        assert!(CompactionMode::Auto.enabled() && CompactionMode::On.enabled());
    }

    #[test]
    fn accumulation_mode_round_trips_and_defaults_atomic() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.accumulation, AccumulationMode::Atomic);
        assert!(!c.accumulation.wants_privatized());
        for m in [
            AccumulationMode::Atomic,
            AccumulationMode::Privatized,
            AccumulationMode::Auto,
        ] {
            assert_eq!(AccumulationMode::parse(m.label()), Some(m));
        }
        assert_eq!(AccumulationMode::parse("shared"), None);
        assert!(AccumulationMode::Privatized.wants_privatized());
        assert!(AccumulationMode::Auto.wants_privatized());
    }

    #[test]
    fn integrity_mode_round_trips_and_defaults_off() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.integrity, IntegrityMode::Off);
        assert!(!c.integrity.enabled());
        for m in [
            IntegrityMode::Off,
            IntegrityMode::Verify,
            IntegrityMode::Scrub,
        ] {
            assert_eq!(IntegrityMode::parse(m.label()), Some(m));
        }
        assert_eq!(IntegrityMode::parse("abft"), None);
        assert!(IntegrityMode::Verify.enabled() && !IntegrityMode::Verify.repairs());
        assert!(IntegrityMode::Scrub.enabled() && IntegrityMode::Scrub.repairs());
    }

    #[test]
    fn plan_mode_round_trips_and_defaults_fixed() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.plan, PlanMode::Fixed);
        for m in [PlanMode::Fixed, PlanMode::Auto] {
            assert_eq!(PlanMode::parse(m.label()), Some(m));
        }
        assert_eq!(PlanMode::parse("best"), None);
    }

    #[test]
    fn bin_centers_span_range_symmetrically() {
        let c = ReconstructionConfig::new(10.0, 20.0, 4);
        let centers = c.bin_centers();
        assert!((centers[0] - 11.25).abs() < 1e-12);
        assert!((centers[3] - 18.75).abs() < 1e-12);
        // First and last centres are half a bin from the range edges.
        assert!((centers[0] - c.depth_start - c.bin_width() / 2.0).abs() < 1e-12);
    }
}
