//! Work meters: what a kernel did, and where the virtual time went.

/// Work performed by (part of) a kernel, accumulated by simulated threads.
///
/// Costs are *logical* work counts — the performance models in
/// [`crate::props`] convert them to seconds. `atomic_max_chain` approximates
/// the longest chain of atomics hitting one address (the serialization
/// bound); it is estimated from striped per-address counters and merged with
/// `max`, the other fields with `+`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Floating-point operations.
    pub flops: u64,
    /// Device-memory bytes moved (reads + writes).
    pub mem_bytes: u64,
    /// Atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Estimated longest same-address atomic chain.
    pub atomic_max_chain: u64,
    /// On-chip shared-memory bytes moved (reads + writes).
    pub shared_bytes: u64,
    /// Atomic RMWs resolved in shared memory.
    pub shared_atomic_ops: u64,
    /// Shared-memory bytes reserved per block at launch (occupancy
    /// pressure); merged with `max` like the chain bound.
    pub shared_request: u64,
}

impl Cost {
    /// Merge another cost into this one (sums; max for the chain bound).
    pub fn merge(&mut self, other: &Cost) {
        self.flops += other.flops;
        self.mem_bytes += other.mem_bytes;
        self.atomic_ops += other.atomic_ops;
        self.atomic_max_chain = self.atomic_max_chain.max(other.atomic_max_chain);
        self.shared_bytes += other.shared_bytes;
        self.shared_atomic_ops += other.shared_atomic_ops;
        self.shared_request = self.shared_request.max(other.shared_request);
    }

    /// True when no work at all was recorded.
    pub fn is_zero(&self) -> bool {
        *self == Cost::default()
    }
}

/// Number of free-form trace counters available to kernels.
pub const TRACE_SLOTS: usize = 8;

/// Record of one kernel launch, for reports and ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// Kernel label passed to `launch`.
    pub name: String,
    /// Total simulated threads.
    pub threads: u64,
    /// Aggregated work.
    pub cost: Cost,
    /// Modeled duration, seconds.
    pub duration_s: f64,
    /// Stream the launch ran on.
    pub stream: usize,
    /// Virtual start time on its stream.
    pub start_s: f64,
    /// Virtual end time on its stream.
    pub end_s: f64,
    /// Simulator-instrumentation counters (see
    /// [`crate::ThreadCtx::trace`]); excluded from the performance model.
    pub traces: [u64; TRACE_SLOTS],
}

/// Aggregated virtual-time accounting for a device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Meters {
    /// Seconds spent in host↔device transfers.
    pub comm_time_s: f64,
    /// Extra seconds transfers spent stalled on (or fragmented across)
    /// the host's shared PCIe bus, beyond their uncontended duration.
    /// Zero for strictly serial schedules; the honest price of overlap.
    pub bus_wait_s: f64,
    /// Seconds spent in kernels.
    pub compute_time_s: f64,
    /// Bytes shipped host → device.
    pub h2d_bytes: u64,
    /// Bytes shipped device → host.
    pub d2h_bytes: u64,
    /// Number of host↔device transfers.
    pub transfers: u64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Total metered kernel work.
    pub kernel_cost: Cost,
}

impl Meters {
    /// Wall-clock-equivalent total when copies and kernels never overlap
    /// (the paper's baseline pipeline).
    pub fn serial_total_s(&self) -> f64 {
        self.comm_time_s + self.compute_time_s
    }

    /// Merge another device's meters into this one: every field sums,
    /// except the kernel cost, which merges as [`Cost::merge`] does.
    pub fn merge(&mut self, other: &Meters) {
        self.comm_time_s += other.comm_time_s;
        self.bus_wait_s += other.bus_wait_s;
        self.compute_time_s += other.compute_time_s;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.transfers += other.transfers;
        self.launches += other.launches;
        self.kernel_cost.merge(&other.kernel_cost);
    }
}

/// Striped per-address collision counter used to estimate the longest
/// same-address atomic chain without tracking every address exactly.
#[derive(Debug)]
pub struct ChainEstimator {
    buckets: Vec<u32>,
}

impl ChainEstimator {
    /// Number of stripes; power of two for cheap masking.
    pub const BUCKETS: usize = 4096;

    /// Fresh estimator (one per executor worker, merged afterwards).
    pub fn new() -> ChainEstimator {
        ChainEstimator {
            buckets: vec![0; Self::BUCKETS],
        }
    }

    /// Record one atomic touching `address_index`.
    #[inline]
    pub fn record(&mut self, address_index: usize) {
        self.buckets[address_index & (Self::BUCKETS - 1)] += 1;
    }

    /// Merge a worker's counts into this one (bucket-wise sum, because the
    /// same address chains across workers).
    pub fn merge(&mut self, other: &ChainEstimator) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// Upper-bound estimate of the longest same-address chain.
    pub fn max_chain(&self) -> u64 {
        self.buckets.iter().copied().max().unwrap_or(0) as u64
    }
}

impl Default for ChainEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_merge_sums_and_maxes() {
        let mut a = Cost {
            flops: 10,
            mem_bytes: 100,
            atomic_ops: 2,
            atomic_max_chain: 5,
            shared_bytes: 64,
            shared_atomic_ops: 3,
            shared_request: 1024,
        };
        let b = Cost {
            flops: 3,
            mem_bytes: 7,
            atomic_ops: 4,
            atomic_max_chain: 2,
            shared_bytes: 16,
            shared_atomic_ops: 1,
            shared_request: 2048,
        };
        a.merge(&b);
        assert_eq!(a.flops, 13);
        assert_eq!(a.mem_bytes, 107);
        assert_eq!(a.atomic_ops, 6);
        assert_eq!(a.atomic_max_chain, 5);
        assert_eq!(a.shared_bytes, 80);
        assert_eq!(a.shared_atomic_ops, 4);
        assert_eq!(a.shared_request, 2048, "request merges with max");
        assert!(!a.is_zero());
        assert!(Cost::default().is_zero());
    }

    #[test]
    fn chain_estimator_counts_hot_addresses() {
        let mut e = ChainEstimator::new();
        for _ in 0..100 {
            e.record(42);
        }
        for i in 0..50 {
            e.record(i * ChainEstimator::BUCKETS + 7); // all alias bucket 7
        }
        assert_eq!(e.max_chain(), 100);
        let mut other = ChainEstimator::new();
        for _ in 0..30 {
            other.record(42);
        }
        e.merge(&other);
        assert_eq!(e.max_chain(), 130);
    }

    #[test]
    fn serial_total_is_sum() {
        let m = Meters {
            comm_time_s: 1.5,
            compute_time_s: 2.5,
            ..Meters::default()
        };
        assert_eq!(m.serial_total_s(), 4.0);
    }

    #[test]
    fn meters_merge_sums_devices() {
        let one = Meters {
            comm_time_s: 1.5,
            bus_wait_s: 0.25,
            transfers: 3,
            launches: 2,
            kernel_cost: Cost {
                flops: 10,
                atomic_max_chain: 5,
                ..Cost::default()
            },
            ..Meters::default()
        };
        let mut sum = Meters::default();
        sum.merge(&one);
        sum.merge(&one);
        assert_eq!(sum.comm_time_s, 3.0);
        assert_eq!(sum.bus_wait_s, 0.5);
        assert_eq!(sum.transfers, 6);
        assert_eq!(sum.launches, 4);
        assert_eq!(sum.kernel_cost.flops, 20);
        assert_eq!(sum.kernel_cost.atomic_max_chain, 5, "chain merges with max");
    }
}
