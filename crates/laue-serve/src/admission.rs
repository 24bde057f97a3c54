//! Admission control: bounded queues plus cost-model backlog prediction.
//!
//! A service that accepts everything converts overload into unbounded
//! queues and minutes-long p99s; one that bounds only queue *depth*
//! treats a queue of 30 quick-look jobs the same as a queue of 30
//! full-detector productions. This policy bounds both dimensions:
//!
//! * **Per-tenant queue depth** — a hard cap on outstanding jobs per
//!   tenant, the classic isolation knob (one tenant's burst cannot fill
//!   the service).
//! * **Predicted backlog seconds** — the sum over queued jobs of the
//!   cost-model-predicted service time, from the same
//!   [`laue_core::planner::plan_auto`] enumeration the `--plan auto`
//!   pipeline uses, at one device and under the slab rows the job's
//!   quantum pins ([`JobShape::pins`]). Predictions are memoized per
//!   [`JobShape`] (the planner's answer depends only on shape under a
//!   fixed device), so admission costs one planner call per *distinct*
//!   shape, not per job.
//!
//! A rejected job is turned away at arrival — the open-loop client is
//! told "try later" rather than being silently queued into a latency it
//! would never accept.

use std::collections::HashMap;

use cuda_sim::{DeviceProps, HostProps, InterconnectProps};
use laue_core::planner::{plan_auto, TableWarmth};

use crate::job::{JobShape, JobSpec, RejectReason};

/// Admission limits. `usize::MAX` / `f64::INFINITY` disable a bound.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Maximum queued (not yet completed) jobs per tenant.
    pub max_tenant_depth: usize,
    /// Maximum predicted backlog across the whole service, in seconds of
    /// device work per device (i.e. the backlog the fleet can clear in
    /// this many seconds).
    pub max_backlog_s: f64,
}

impl AdmissionPolicy {
    /// No limits: every job is admitted (the saturation sweep's mode).
    pub fn unbounded() -> AdmissionPolicy {
        AdmissionPolicy {
            max_tenant_depth: usize::MAX,
            max_backlog_s: f64::INFINITY,
        }
    }

    /// Judge one arrival against the current queue state.
    pub fn admit(
        &self,
        tenant_depth: usize,
        predicted_backlog_s: f64,
        job_predicted_s: f64,
    ) -> Result<(), RejectReason> {
        if tenant_depth >= self.max_tenant_depth {
            return Err(RejectReason::QueueDepth);
        }
        if predicted_backlog_s + job_predicted_s > self.max_backlog_s {
            return Err(RejectReason::Backlog);
        }
        Ok(())
    }
}

/// What admission control did over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Jobs admitted into the queues.
    pub accepted: u64,
    /// Jobs rejected on the per-tenant depth bound.
    pub rejected_depth: u64,
    /// Jobs rejected on the predicted-backlog bound.
    pub rejected_backlog: u64,
}

impl AdmissionStats {
    /// Total arrivals seen.
    pub fn offered(&self) -> u64 {
        self.accepted + self.rejected_depth + self.rejected_backlog
    }

    /// Record a decision.
    pub fn record(&mut self, decision: &Result<(), RejectReason>) {
        match decision {
            Ok(()) => self.accepted += 1,
            Err(RejectReason::QueueDepth) => self.rejected_depth += 1,
            Err(RejectReason::Backlog) => self.rejected_backlog += 1,
        }
    }
}

/// Memoized cost-model service-time predictor.
///
/// One planner enumeration per distinct job shape, priced under the pins
/// the shape's quantum runs with; every later job of the same shape is
/// answered from the memo. Predictions use a cold-cache [`TableWarmth`] —
/// pessimistic for warm tenants, which is the right bias for an admission
/// bound.
pub struct ServicePredictor {
    props: DeviceProps,
    host: HostProps,
    memo: HashMap<JobShape, f64>,
}

impl ServicePredictor {
    /// Predictor for a fleet of identical devices with the given props.
    pub fn new(props: DeviceProps, host: HostProps) -> ServicePredictor {
        ServicePredictor {
            props,
            host,
            memo: HashMap::new(),
        }
    }

    /// Predicted standalone service seconds for a job of this spec.
    pub fn predict(&mut self, spec: &JobSpec) -> f64 {
        if let Some(&s) = self.memo.get(&spec.shape) {
            return s;
        }
        // The planner's prediction depends on shape, not data: any scan
        // of the right dimensions prices the same. Use a canonical one.
        let (mut source, geom) = JobSpec {
            seed: 0,
            ..spec.clone()
        }
        .source();
        // One node sends nothing, so the fabric prices nothing here.
        let predicted = plan_auto(
            &self.props,
            &self.host,
            &InterconnectProps::ib_qdr(),
            1,
            1,
            spec.shape.pins(),
            &mut source,
            &geom,
            &spec.config(),
            TableWarmth::default(),
            None,
        )
        .map(|plan| plan.predicted_s)
        .unwrap_or(0.0);
        self.memo.insert(spec.shape, predicted);
        predicted
    }

    /// Distinct shapes priced so far (memo size).
    pub fn shapes_priced(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobClass, JobShape};
    use laue_core::planner::plan_run;

    fn spec(shape: JobShape) -> JobSpec {
        JobSpec {
            id: 0,
            tenant: 0,
            class: JobClass::Batch,
            arrival_s: 0.0,
            shape,
            seed: 11,
        }
    }

    #[test]
    fn policy_bounds_depth_then_backlog() {
        let policy = AdmissionPolicy {
            max_tenant_depth: 2,
            max_backlog_s: 1.0,
        };
        assert!(policy.admit(0, 0.0, 0.1).is_ok());
        assert_eq!(policy.admit(2, 0.0, 0.1), Err(RejectReason::QueueDepth));
        assert_eq!(policy.admit(1, 0.95, 0.1), Err(RejectReason::Backlog));
        let mut stats = AdmissionStats::default();
        stats.record(&policy.admit(0, 0.0, 0.1));
        stats.record(&policy.admit(2, 0.0, 0.1));
        stats.record(&policy.admit(1, 0.95, 0.1));
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.rejected_depth, 1);
        assert_eq!(stats.rejected_backlog, 1);
        assert_eq!(stats.offered(), 3);
    }

    #[test]
    fn predictor_memoizes_per_shape_and_orders_sizes() {
        let mut p = ServicePredictor::new(DeviceProps::tesla_m2070(), HostProps::xeon_e5630());
        let small = p.predict(&spec(JobShape::small()));
        let small_again = p.predict(&spec(JobShape::small()));
        let large = p.predict(&spec(JobShape::large()));
        assert_eq!(small.to_bits(), small_again.to_bits(), "memo hit");
        assert_eq!(p.shapes_priced(), 2);
        assert!(small > 0.0);
        assert!(
            large > small,
            "large job must predict slower: {large:.2e} vs {small:.2e}"
        );

        // The large shape is priced at the 4 slab rows its quantum pins,
        // not at the memory fit an unpinned plan would choose.
        let spec = spec(JobShape::large());
        assert_eq!(spec.shape.pins().rows, Some(4));
        let canonical = JobSpec { seed: 0, ..spec };
        let (props, host) = (DeviceProps::tesla_m2070(), HostProps::xeon_e5630());
        let (cfg, cold, net) = (
            spec.config(),
            TableWarmth::default(),
            InterconnectProps::ib_qdr(),
        );
        let (mut source, geom) = canonical.source();
        let pins = spec.shape.pins();
        let pinned = plan_auto(
            &props,
            &host,
            &net,
            1,
            1,
            pins,
            &mut source,
            &geom,
            &cfg,
            cold,
            None,
        );
        let pinned = pinned.unwrap();
        assert!(pinned.label.ends_with("/r4"), "{}", pinned.label);
        assert_eq!(large.to_bits(), pinned.predicted_s.to_bits());
        let (mut source, geom) = canonical.source();
        let unpinned = plan_run(&props, &host, &mut source, &geom, &cfg, cold).unwrap();
        assert_ne!(unpinned.plan.rows_per_slab, Some(4));
        assert_ne!(large.to_bits(), unpinned.predicted_s.to_bits());
    }
}
