//! Deterministic, seed-driven fault injection for the simulated device.
//!
//! Real GPU deployments fail in mundane ways: `cudaMalloc` returns
//! out-of-memory because another process grabbed the card, a DMA transfer
//! times out transiently, or the device falls off the bus entirely. The
//! reconstruction pipeline has to survive all three — re-plan with smaller
//! slabs, retry the copy, or degrade to the CPU engine. A [`FaultPlan`]
//! scripts those failures reproducibly so the recovery paths are testable:
//!
//! * **counted faults** — "fail the Nth device allocation / H2D / D2H"
//!   (1-based, injected exactly once);
//! * **probabilistic faults** — each transfer fails with probability `p`,
//!   drawn from a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//!   stream keyed by [`FaultPlan::seed`], so a given seed always produces
//!   the same fault sequence;
//! * **capacity lies** — the device reports only `report_mem` bytes of
//!   memory (the "another tenant on the card" scenario), which both the
//!   slab planner and the allocator observe;
//! * **hard failure** — after `fail_after_ops` successful operations (or
//!   `fail_after_launches` successful kernel launches, which in the
//!   reconstruction pipeline means "after slab N") the device is lost;
//!   every subsequent allocation, copy or launch returns
//!   [`SimError::DeviceLost`].
//!
//! Injected transfer faults are *transient*: the same copy retried
//! succeeds (unless the dice say otherwise again). Injected allocation
//! faults surface as ordinary [`SimError::OutOfMemory`] with the real
//! allocator statistics, so callers handle scripted and genuine OOM through
//! one code path.
//!
//! Beyond fail-stop faults the plan also scripts **silent corruption** —
//! the failure class no error code announces:
//!
//! * **transfer bit flips** — the Nth H2D/D2H copy's payload has one bit
//!   flipped in flight (the copy *succeeds*; only checksums can tell);
//! * **kernel bit flips** — during the Nth kernel launch one f64 deposit is
//!   perturbed by a single bit (a flipped mantissa in device memory), or,
//!   persistently, during every launch from the Nth on — a device no retry
//!   heals;
//! * **stuck kernels** — the Nth launch takes `stall_s` extra virtual
//!   seconds with no error, the "hung SM" a watchdog must convert into a
//!   detected timeout.
//!
//! All silent faults are scripted by ordinal and leave a record in the
//! device's op trace and [`FaultStats`], so chaos runs are replayable.
//!
//! Fault ordinals count in **submission order** per direction (H2D, D2H,
//! launches), and the probabilistic dice are a pure hash of
//! `(seed, kind, ordinal)` rather than a shared sequential stream — so a
//! given spec fires at the same logical operation whatever stream
//! interleaving the ring pipeline chooses (depth 1 and depth 3 see the
//! same faults).

use crate::error::{SimError, TransferDir};

/// A scripted fault schedule. All knobs default to "never fail".
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault dice (probabilistic knobs only).
    pub seed: u64,
    /// Fail the Nth allocation (1-based) with an out-of-memory error.
    pub fail_alloc_nth: Option<u64>,
    /// Fail the Nth host→device copy (1-based) with a transient fault.
    pub fail_h2d_nth: Option<u64>,
    /// Fail the Nth device→host copy (1-based) with a transient fault.
    pub fail_d2h_nth: Option<u64>,
    /// Each H2D copy fails with this probability (transient).
    pub h2d_fail_prob: f64,
    /// Each D2H copy fails with this probability (transient).
    pub d2h_fail_prob: f64,
    /// Report (and enforce) only this much device memory.
    pub report_mem: Option<u64>,
    /// After this many successful device operations the device is lost.
    pub fail_after_ops: Option<u64>,
    /// The device is lost at the kernel launch *after* this many successful
    /// ones (launches map 1:1 to row slabs in the reconstruction pipeline).
    /// Unlike `fail_after_ops`, transfers that drain already-launched slabs
    /// still complete, so the loss lands exactly at a slab boundary; once
    /// tripped, every operation refuses.
    pub fail_after_launches: Option<u64>,
    /// Silently flip one bit in the payload of the Nth H2D copy (1-based).
    /// The copy reports success.
    pub flip_h2d_nth: Option<u64>,
    /// Silently flip one bit in the payload of the Nth D2H copy (1-based).
    pub flip_d2h_nth: Option<u64>,
    /// Byte offset (into the payload, wrapped by its length) where transfer
    /// flips land; the top bit of that byte is XOR-ed.
    pub flip_byte: u64,
    /// During the Nth kernel launch (1-based), flip one mantissa bit of the
    /// `flip_op`th f64 deposit ([`crate::ThreadCtx::atomic_add_f64`]).
    pub flip_kernel_nth: Option<u64>,
    /// Every kernel launch from the Nth (1-based) on flips its `flip_op`th
    /// f64 deposit, retries included: a persistently corrupting device.
    pub flip_kernel_from: Option<u64>,
    /// Which f64 deposit of the targeted launch is perturbed (0-based).
    pub flip_op: u64,
    /// The Nth kernel launch (1-based) stalls for `stall_s` extra seconds.
    pub stuck_kernel_nth: Option<u64>,
    /// Extra virtual seconds the stuck launch takes.
    pub stall_s: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            fail_alloc_nth: None,
            fail_h2d_nth: None,
            fail_d2h_nth: None,
            h2d_fail_prob: 0.0,
            d2h_fail_prob: 0.0,
            report_mem: None,
            fail_after_ops: None,
            fail_after_launches: None,
            flip_h2d_nth: None,
            flip_d2h_nth: None,
            flip_byte: 0,
            flip_kernel_nth: None,
            flip_kernel_from: None,
            flip_op: 0,
            stuck_kernel_nth: None,
            stall_s: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder seed).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Fail the `n`th device allocation (1-based), once.
    pub fn fail_nth_alloc(mut self, n: u64) -> FaultPlan {
        self.fail_alloc_nth = Some(n);
        self
    }

    /// Fail the `n`th host→device copy (1-based), once.
    pub fn fail_nth_h2d(mut self, n: u64) -> FaultPlan {
        self.fail_h2d_nth = Some(n);
        self
    }

    /// Fail the `n`th device→host copy (1-based), once.
    pub fn fail_nth_d2h(mut self, n: u64) -> FaultPlan {
        self.fail_d2h_nth = Some(n);
        self
    }

    /// Fail each H2D copy with probability `p` (transient).
    pub fn h2d_fault_rate(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.h2d_fail_prob = p;
        self
    }

    /// Fail each D2H copy with probability `p` (transient).
    pub fn d2h_fault_rate(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.d2h_fail_prob = p;
        self
    }

    /// Report (and enforce) only `bytes` of device memory.
    pub fn report_mem_bytes(mut self, bytes: u64) -> FaultPlan {
        self.report_mem = Some(bytes);
        self
    }

    /// Lose the device after `n` successful operations.
    pub fn fail_after(mut self, n: u64) -> FaultPlan {
        self.fail_after_ops = Some(n);
        self
    }

    /// Lose the device after `n` successful kernel launches (i.e. right at
    /// the boundary of the `n`th row slab).
    pub fn fail_after_launches(mut self, n: u64) -> FaultPlan {
        self.fail_after_launches = Some(n);
        self
    }

    /// Silently flip one payload bit of the `n`th H2D copy (1-based).
    pub fn flip_nth_h2d(mut self, n: u64) -> FaultPlan {
        self.flip_h2d_nth = Some(n);
        self
    }

    /// Silently flip one payload bit of the `n`th D2H copy (1-based).
    pub fn flip_nth_d2h(mut self, n: u64) -> FaultPlan {
        self.flip_d2h_nth = Some(n);
        self
    }

    /// Payload byte offset transfer flips land on (wrapped by length).
    pub fn flip_byte_offset(mut self, byte: u64) -> FaultPlan {
        self.flip_byte = byte;
        self
    }

    /// Flip one mantissa bit of a deposit during the `n`th launch (1-based).
    pub fn flip_nth_kernel(mut self, n: u64) -> FaultPlan {
        self.flip_kernel_nth = Some(n);
        self
    }

    /// Flip one mantissa bit of a deposit during every launch from the
    /// `n`th (1-based) on.
    pub fn flip_kernel_from(mut self, n: u64) -> FaultPlan {
        self.flip_kernel_from = Some(n);
        self
    }

    /// Which f64 deposit of the targeted launch is perturbed (0-based).
    pub fn flip_op_index(mut self, k: u64) -> FaultPlan {
        self.flip_op = k;
        self
    }

    /// Stall the `n`th kernel launch (1-based) for `stall_s` extra seconds.
    pub fn stall_nth_kernel(mut self, n: u64, stall_s: f64) -> FaultPlan {
        assert!(stall_s >= 0.0, "stall must be non-negative");
        self.stuck_kernel_nth = Some(n);
        self.stall_s = stall_s;
        self
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self != &FaultPlan {
            seed: self.seed,
            ..FaultPlan::default()
        }
    }
}

/// Counters of what a [`FaultPlan`] actually injected on one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Allocation failures injected.
    pub allocs_failed: u64,
    /// H2D copy faults injected.
    pub h2d_failed: u64,
    /// D2H copy faults injected.
    pub d2h_failed: u64,
    /// Operations refused because the device was lost.
    pub refused_after_loss: u64,
    /// H2D payloads silently corrupted.
    pub h2d_flipped: u64,
    /// D2H payloads silently corrupted.
    pub d2h_flipped: u64,
    /// Kernel deposits silently corrupted (only flips that actually landed
    /// — an armed launch with fewer deposits than `flip_op` fires nothing).
    pub kernel_flipped: u64,
    /// Kernel launches stalled by the stuck-kernel fault.
    pub kernel_stalled: u64,
}

impl FaultStats {
    /// Total faults injected (excluding post-loss refusals).
    pub fn total_injected(&self) -> u64 {
        self.allocs_failed + self.h2d_failed + self.d2h_failed
    }

    /// Total *silent* corruptions injected (flips and stalls): faults that
    /// returned no error and are only observable through integrity checks.
    pub fn total_silent(&self) -> u64 {
        self.h2d_flipped + self.d2h_flipped + self.kernel_flipped + self.kernel_stalled
    }

    /// Fold another device's counters into this one (fleet aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.allocs_failed += other.allocs_failed;
        self.h2d_failed += other.h2d_failed;
        self.d2h_failed += other.d2h_failed;
        self.refused_after_loss += other.refused_after_loss;
        self.h2d_flipped += other.h2d_flipped;
        self.d2h_flipped += other.d2h_flipped;
        self.kernel_flipped += other.kernel_flipped;
        self.kernel_stalled += other.kernel_stalled;
    }

    /// Merge any granularity of the fleet hierarchy — the devices of one
    /// node, or the per-node totals of a cluster — into one aggregate.
    /// `None` when no member carried a fault plan, so reports can
    /// distinguish "no faults configured" from "configured, fired zero".
    pub fn merge_all(stats: impl IntoIterator<Item = FaultStats>) -> Option<FaultStats> {
        let mut acc: Option<FaultStats> = None;
        for s in stats {
            acc.get_or_insert_with(FaultStats::default).merge(&s);
        }
        acc
    }
}

/// What the plan wants done to the payload of one (successful) transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransferOutcome {
    /// Deliver the payload untouched.
    Clean,
    /// Deliver the payload with the top bit of `byte` (wrapped by the
    /// payload length) flipped — and report success.
    Corrupt { byte: u64 },
}

/// Silent effects the plan attaches to one (successful) kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaunchEffects {
    /// Flip one mantissa bit of the `flip_op`th f64 deposit.
    pub(crate) flip_op: Option<u64>,
    /// Extra virtual seconds the launch takes (stuck kernel).
    pub(crate) stall_s: f64,
}

impl LaunchEffects {
    pub(crate) const CLEAN: LaunchEffects = LaunchEffects {
        flip_op: None,
        stall_s: 0.0,
    };
}

/// Live fault state: the plan plus deterministic submission-order counters.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    allocs: u64,
    h2d: u64,
    d2h: u64,
    ops_completed: u64,
    launches: u64,
    lost: bool,
    pub(crate) stats: FaultStats,
}

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` keyed purely by `(seed, kind, ordinal)` — no
/// shared mutable stream, so the draw for "the 7th H2D copy" is the same
/// however allocs, launches and D2H copies interleave around it. This is
/// what makes probabilistic fault specs stable across pipeline depths.
fn keyed_dice(seed: u64, kind: u64, ordinal: u64) -> f64 {
    let mut s = seed
        ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ordinal.wrapping_mul(0xD1B5_4A32_D192_ED03);
    (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Dice-stream tags (the `kind` key of [`keyed_dice`]).
const DICE_H2D_FAIL: u64 = 1;
const DICE_D2H_FAIL: u64 = 2;

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            allocs: 0,
            h2d: 0,
            d2h: 0,
            ops_completed: 0,
            launches: 0,
            lost: false,
            stats: FaultStats::default(),
        }
    }

    /// Gate shared by every device operation: fails permanently once the
    /// scripted op budget is exhausted.
    fn check_alive(&mut self) -> Result<(), SimError> {
        if self.lost {
            self.stats.refused_after_loss += 1;
            return Err(SimError::DeviceLost);
        }
        if let Some(limit) = self.plan.fail_after_ops {
            if self.ops_completed >= limit {
                self.lost = true;
                self.stats.refused_after_loss += 1;
                return Err(SimError::DeviceLost);
            }
        }
        Ok(())
    }

    /// Has the device been lost (permanently) by this plan?
    pub(crate) fn is_lost(&self) -> bool {
        self.lost
    }

    /// Called by [`crate::Device`] before each allocation. `Ok(())` means
    /// proceed with the real allocator.
    pub(crate) fn on_alloc(&mut self) -> Result<(), SimError> {
        self.check_alive()?;
        self.allocs += 1;
        if self.plan.fail_alloc_nth == Some(self.allocs) {
            self.stats.allocs_failed += 1;
            // Reported as plain OOM by the caller (which has the allocator
            // statistics at hand); signal with a marker error here.
            return Err(SimError::InvalidRequest("injected alloc fault".into()));
        }
        self.ops_completed += 1;
        Ok(())
    }

    /// Called before each copy; `dir` picks the counter and dice. A clean
    /// outcome may still ask the caller to corrupt the payload silently.
    pub(crate) fn on_transfer(&mut self, dir: TransferDir) -> Result<TransferOutcome, SimError> {
        self.check_alive()?;
        let (count, nth, prob, flip_nth, dice_kind) = match dir {
            TransferDir::HostToDevice => {
                self.h2d += 1;
                (
                    self.h2d,
                    self.plan.fail_h2d_nth,
                    self.plan.h2d_fail_prob,
                    self.plan.flip_h2d_nth,
                    DICE_H2D_FAIL,
                )
            }
            TransferDir::DeviceToHost => {
                self.d2h += 1;
                (
                    self.d2h,
                    self.plan.fail_d2h_nth,
                    self.plan.d2h_fail_prob,
                    self.plan.flip_d2h_nth,
                    DICE_D2H_FAIL,
                )
            }
        };
        let scripted = nth == Some(count);
        let rolled = prob > 0.0 && keyed_dice(self.plan.seed, dice_kind, count) < prob;
        if scripted || rolled {
            match dir {
                TransferDir::HostToDevice => self.stats.h2d_failed += 1,
                TransferDir::DeviceToHost => self.stats.d2h_failed += 1,
            }
            return Err(SimError::TransferFault { dir, index: count });
        }
        self.ops_completed += 1;
        if flip_nth == Some(count) {
            match dir {
                TransferDir::HostToDevice => self.stats.h2d_flipped += 1,
                TransferDir::DeviceToHost => self.stats.d2h_flipped += 1,
            }
            return Ok(TransferOutcome::Corrupt {
                byte: self.plan.flip_byte,
            });
        }
        Ok(TransferOutcome::Clean)
    }

    /// Called before each kernel launch. The `fail_after_launches` limit
    /// trips here (and only here): transfers draining already-launched
    /// slabs still complete, so the loss lands exactly at a slab boundary.
    /// Once tripped, the loss is permanent for every operation. A
    /// successful launch may carry silent effects (a deposit flip or an
    /// injected stall) the device applies while executing it.
    pub(crate) fn on_launch(&mut self) -> Result<LaunchEffects, SimError> {
        self.check_alive()?;
        if let Some(limit) = self.plan.fail_after_launches {
            if self.launches >= limit {
                self.lost = true;
                self.stats.refused_after_loss += 1;
                return Err(SimError::DeviceLost);
            }
        }
        self.ops_completed += 1;
        self.launches += 1;
        let mut effects = LaunchEffects::CLEAN;
        let persistent = self
            .plan
            .flip_kernel_from
            .is_some_and(|n| self.launches >= n);
        if persistent || self.plan.flip_kernel_nth == Some(self.launches) {
            effects.flip_op = Some(self.plan.flip_op);
        }
        if self.plan.stuck_kernel_nth == Some(self.launches) {
            effects.stall_s = self.plan.stall_s;
            self.stats.kernel_stalled += 1;
        }
        Ok(effects)
    }

    /// The armed kernel flip actually landed on a deposit (reported back by
    /// the executor — a launch with too few deposits fires nothing).
    pub(crate) fn record_kernel_flip(&mut self) {
        self.stats.kernel_flipped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut st = FaultState::new(plan);
        for _ in 0..100 {
            st.on_alloc().unwrap();
            st.on_transfer(TransferDir::HostToDevice).unwrap();
            st.on_transfer(TransferDir::DeviceToHost).unwrap();
            st.on_launch().unwrap();
        }
        assert_eq!(st.stats, FaultStats::default());
    }

    #[test]
    fn nth_alloc_fails_exactly_once() {
        let mut st = FaultState::new(FaultPlan::new(1).fail_nth_alloc(3));
        assert!(st.on_alloc().is_ok());
        assert!(st.on_alloc().is_ok());
        assert!(st.on_alloc().is_err(), "third allocation must fail");
        assert!(st.on_alloc().is_ok(), "fault is one-shot");
        assert_eq!(st.stats.allocs_failed, 1);
    }

    #[test]
    fn transfer_faults_are_deterministic_per_seed() {
        let sequence = |seed: u64| -> Vec<bool> {
            let mut st = FaultState::new(FaultPlan::new(seed).h2d_fault_rate(0.5));
            (0..64)
                .map(|_| st.on_transfer(TransferDir::HostToDevice).is_err())
                .collect()
        };
        assert_eq!(sequence(7), sequence(7), "same seed, same faults");
        assert_ne!(sequence(7), sequence(8), "different seed, different faults");
        assert!(
            sequence(7).iter().any(|&f| f),
            "p = 0.5 must fire sometimes"
        );
        assert!(sequence(7).iter().any(|&f| !f), "and pass sometimes");
    }

    #[test]
    fn hard_failure_is_permanent() {
        let mut st = FaultState::new(FaultPlan::new(0).fail_after(2));
        assert!(st.on_alloc().is_ok());
        assert!(st.on_launch().is_ok());
        assert!(matches!(st.on_alloc(), Err(SimError::DeviceLost)));
        assert!(matches!(
            st.on_transfer(TransferDir::DeviceToHost),
            Err(SimError::DeviceLost)
        ));
        assert!(matches!(st.on_launch(), Err(SimError::DeviceLost)));
        assert_eq!(st.stats.refused_after_loss, 3);
    }

    #[test]
    fn loss_after_n_launches_trips_at_the_next_launch_only() {
        let mut st = FaultState::new(FaultPlan::new(0).fail_after_launches(2));
        for _ in 0..10 {
            st.on_alloc().unwrap();
            st.on_transfer(TransferDir::HostToDevice).unwrap();
        }
        assert!(st.on_launch().is_ok());
        assert!(st.on_launch().is_ok());
        assert!(!st.is_lost());
        // Transfers between the last good launch and the fatal one still
        // pass — that is what pins the loss to a slab boundary.
        assert!(st.on_transfer(TransferDir::DeviceToHost).is_ok());
        assert!(matches!(st.on_launch(), Err(SimError::DeviceLost)));
        assert!(st.is_lost(), "loss is permanent");
        assert!(matches!(st.on_alloc(), Err(SimError::DeviceLost)));
        assert!(matches!(
            st.on_transfer(TransferDir::DeviceToHost),
            Err(SimError::DeviceLost)
        ));
    }

    #[test]
    fn probabilistic_faults_ignore_interleaving() {
        // The dice for "the Nth h2d copy" must not depend on how many
        // allocs, launches or d2h copies happened in between — that is
        // what keeps fault specs stable across ring pipeline depths.
        let outcomes = |noise: bool| -> Vec<bool> {
            let mut st = FaultState::new(FaultPlan::new(9).h2d_fault_rate(0.4));
            (0..32)
                .map(|i| {
                    if noise {
                        // Interleave unrelated operations.
                        st.on_alloc().unwrap();
                        let _ = st.on_transfer(TransferDir::DeviceToHost);
                        if i % 3 == 0 {
                            st.on_launch().unwrap();
                        }
                    }
                    st.on_transfer(TransferDir::HostToDevice).is_err()
                })
                .collect()
        };
        assert_eq!(outcomes(false), outcomes(true));
        assert!(outcomes(false).iter().any(|&f| f));
        assert!(outcomes(false).iter().any(|&f| !f));
    }

    #[test]
    fn scripted_flip_fires_once_and_reports_success() {
        let mut st = FaultState::new(FaultPlan::new(0).flip_nth_h2d(2).flip_byte_offset(13));
        assert_eq!(
            st.on_transfer(TransferDir::HostToDevice).unwrap(),
            TransferOutcome::Clean
        );
        assert_eq!(
            st.on_transfer(TransferDir::HostToDevice).unwrap(),
            TransferOutcome::Corrupt { byte: 13 }
        );
        assert_eq!(
            st.on_transfer(TransferDir::HostToDevice).unwrap(),
            TransferOutcome::Clean,
            "flip is one-shot"
        );
        assert_eq!(st.stats.h2d_flipped, 1);
        assert_eq!(st.stats.total_silent(), 1);
        assert_eq!(
            st.stats.total_injected(),
            0,
            "silent faults are not failures"
        );
    }

    #[test]
    fn kernel_effects_script_by_launch_ordinal() {
        let mut st = FaultState::new(
            FaultPlan::new(0)
                .flip_nth_kernel(2)
                .flip_op_index(5)
                .stall_nth_kernel(3, 0.75),
        );
        assert_eq!(st.on_launch().unwrap(), LaunchEffects::CLEAN);
        let fx = st.on_launch().unwrap();
        assert_eq!(fx.flip_op, Some(5));
        assert_eq!(fx.stall_s, 0.0);
        let fx = st.on_launch().unwrap();
        assert_eq!(fx.flip_op, None);
        assert_eq!(fx.stall_s, 0.75);
        assert_eq!(st.on_launch().unwrap(), LaunchEffects::CLEAN);
        assert_eq!(st.stats.kernel_stalled, 1);
        assert_eq!(st.stats.kernel_flipped, 0, "flip counts only when it lands");
        st.record_kernel_flip();
        assert_eq!(st.stats.kernel_flipped, 1);
    }

    #[test]
    fn persistent_kernel_flip_arms_every_launch_from_the_nth() {
        let mut st = FaultState::new(FaultPlan::new(0).flip_kernel_from(3).flip_op_index(2));
        assert_eq!(st.on_launch().unwrap(), LaunchEffects::CLEAN);
        assert_eq!(st.on_launch().unwrap(), LaunchEffects::CLEAN);
        for _ in 0..5 {
            assert_eq!(
                st.on_launch().unwrap().flip_op,
                Some(2),
                "and every one after"
            );
        }
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::new(42)
            .fail_nth_alloc(1)
            .fail_nth_h2d(2)
            .fail_nth_d2h(3)
            .h2d_fault_rate(0.1)
            .d2h_fault_rate(0.2)
            .report_mem_bytes(1 << 20)
            .fail_after(99);
        assert!(plan.is_active());
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.report_mem, Some(1 << 20));
        assert_eq!(plan.fail_alloc_nth, Some(1));
        let mut st = FaultState::new(plan);
        assert!(st.on_alloc().is_err());
        assert!(st.on_transfer(TransferDir::HostToDevice).is_ok());
        match st.on_transfer(TransferDir::HostToDevice) {
            Err(SimError::TransferFault {
                dir: TransferDir::HostToDevice,
                index: 2,
            }) => {}
            other => panic!("expected scripted h2d fault, got {other:?}"),
        }
        assert!(st.stats.total_injected() >= 2);
    }
}
