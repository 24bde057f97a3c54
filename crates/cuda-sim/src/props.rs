//! Device and host performance models.
//!
//! The simulator separates *what work a kernel did* (the [`Cost`] meters)
//! from *how long that work takes* on a given machine. `DeviceProps` and
//! `HostProps` hold the machine parameters and convert costs to seconds with
//! a roofline-style model: execution time is the maximum of the compute
//! time, the memory time, and the serialized-atomics time, plus fixed
//! overheads.
//!
//! The presets are calibrated from the published specs of the paper's
//! evaluation node: an NVIDIA Tesla M2070 (Fermi, 6 GB, 515 DP GFLOP/s,
//! 150 GB/s, PCIe gen-2 ×16 ≈ 8 GB/s) and a 4-core Xeon E5630 at 2.53 GHz.

use crate::meter::Cost;

/// Performance-relevant properties of the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProps {
    /// Marketing name, for reports.
    pub name: String,
    /// Modeled device memory capacity in bytes.
    pub total_mem: u64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Execution lanes (CUDA cores) per SM.
    pub lanes_per_sm: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Double-precision floating point operations per lane per cycle.
    pub dp_flops_per_lane_cycle: f64,
    /// Device memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Host↔device (PCIe) bandwidth, bytes/s.
    pub pcie_bw: f64,
    /// Fixed latency per host↔device transfer, seconds.
    pub pcie_latency: f64,
    /// Fixed overhead per kernel launch, seconds.
    pub launch_overhead: f64,
    /// Time for one serialized atomic RMW on device memory, seconds.
    pub atomic_op_time: f64,
    /// On-chip shared memory available to one block, bytes.
    pub shared_mem_per_block: u64,
    /// Aggregate shared-memory bandwidth, bytes/s (all SMs; an order of
    /// magnitude above device memory on every generation).
    pub shared_bw: f64,
    /// Time for one serialized shared-memory atomic RMW, seconds (shared
    /// atomics resolve in the SM, far cheaper than global ones).
    pub shared_atomic_op_time: f64,
    /// Hardware limit: threads per block.
    pub max_threads_per_block: u64,
    /// Hardware limit: block dimensions.
    pub max_block_dim: [u64; 3],
    /// Hardware limit: grid dimensions.
    pub max_grid_dim: [u64; 3],
}

impl DeviceProps {
    /// The paper's evaluation GPU: Tesla M2070 (Fermi GF100).
    ///
    /// 6 GB GDDR5, 14 SMs × 32 lanes at 1.15 GHz, 515 GFLOP/s double
    /// precision, ~150 GB/s memory bandwidth, PCIe gen-2 ×16 host link.
    /// Block/grid limits are the values quoted in the paper's §IV
    /// (1024 threads/block, 1024×1024×64 block, 65535×65535×1 grid).
    pub fn tesla_m2070() -> DeviceProps {
        DeviceProps {
            name: "Tesla M2070 (simulated)".into(),
            total_mem: 6 * 1024 * 1024 * 1024,
            sm_count: 14,
            lanes_per_sm: 32,
            clock_hz: 1.15e9,
            dp_flops_per_lane_cycle: 1.0, // 14*32*1.15e9 ≈ 515 DP GFLOP/s
            mem_bw: 150.0e9,
            pcie_bw: 8.0e9,
            pcie_latency: 10.0e-6,
            launch_overhead: 7.0e-6,
            // Fermi-era global-atomic throughput: ~0.5 G spread-address
            // RMWs/s device-wide → ~30 ns per op per SM with 14 SMs.
            atomic_op_time: 30.0e-9,
            // Fermi: 48 KB shared + 16 KB L1 per SM (the 48/16 split).
            shared_mem_per_block: 48 * 1024,
            // 32 banks × 4 B per clock per SM ≈ 147 GB/s × 14 SMs ≈ 2 TB/s;
            // conservative 1 TB/s leaves room for bank conflicts.
            shared_bw: 1.0e12,
            shared_atomic_op_time: 6.0e-9,
            max_threads_per_block: 1024,
            max_block_dim: [1024, 1024, 64],
            max_grid_dim: [65_535, 65_535, 1],
        }
    }

    /// A consumer Fermi card of the same era: GeForce GTX 580.
    ///
    /// 1.5 GB GDDR5, 16 SMs × 32 lanes at 1.544 GHz; consumer Fermi runs
    /// double precision at 1/8 of single → ~198 DP GFLOP/s. Higher memory
    /// bandwidth (192 GB/s) but a quarter of the M2070's capacity — the
    /// "what if the beamline had bought gaming cards" scenario.
    pub fn gtx_580() -> DeviceProps {
        DeviceProps {
            name: "GeForce GTX 580 (simulated)".into(),
            total_mem: 1536 * 1024 * 1024,
            sm_count: 16,
            lanes_per_sm: 32,
            clock_hz: 1.544e9,
            dp_flops_per_lane_cycle: 0.25, // DP throttled to 1/8 of SP
            mem_bw: 192.0e9,
            pcie_bw: 8.0e9,
            pcie_latency: 10.0e-6,
            launch_overhead: 7.0e-6,
            atomic_op_time: 30.0e-9,
            // Same GF100/GF110 SM shared memory as the M2070, slightly
            // faster with the higher core clock.
            shared_mem_per_block: 48 * 1024,
            shared_bw: 1.2e12,
            shared_atomic_op_time: 6.0e-9,
            max_threads_per_block: 1024,
            max_block_dim: [1024, 1024, 64],
            max_grid_dim: [65_535, 65_535, 1],
        }
    }

    /// The next-generation upgrade path: Tesla K40 (Kepler GK110B, 2013).
    ///
    /// 12 GB, 15 SMX × 192 lanes at 745 MHz → 1.43 DP TFLOP/s, 288 GB/s,
    /// PCIe gen-3 ×16 (~12 GB/s), faster atomics, relaxed grid limits.
    pub fn tesla_k40() -> DeviceProps {
        DeviceProps {
            name: "Tesla K40 (simulated)".into(),
            total_mem: 12 * 1024 * 1024 * 1024,
            sm_count: 15,
            lanes_per_sm: 192,
            clock_hz: 745.0e6,
            dp_flops_per_lane_cycle: 2.0 / 3.0, // 64 DP units per 192-lane SMX, 2 flop/FMA
            mem_bw: 288.0e9,
            pcie_bw: 12.0e9,
            pcie_latency: 8.0e-6,
            launch_overhead: 5.0e-6,
            atomic_op_time: 10.0e-9, // Kepler's much faster global atomics
            // GK110B: 64 KB shared/L1 per SMX (48 KB usable per block on
            // real silicon, but the 64 KB carveout is what the whatif
            // scenario cares about), wider banks (8 B mode), on-chip
            // shared atomics.
            shared_mem_per_block: 64 * 1024,
            shared_bw: 2.0e12,
            shared_atomic_op_time: 2.0e-9,
            max_threads_per_block: 1024,
            max_block_dim: [1024, 1024, 64],
            max_grid_dim: [2_147_483_647, 65_535, 65_535],
        }
    }

    /// A deliberately tiny device for tests: 64 KiB of memory, 2 SMs.
    /// Forces the chunking and OOM paths at laptop-scale data sizes.
    pub fn tiny(total_mem: u64) -> DeviceProps {
        DeviceProps {
            name: "tiny test device".into(),
            total_mem,
            sm_count: 2,
            lanes_per_sm: 4,
            clock_hz: 1.0e9,
            dp_flops_per_lane_cycle: 1.0,
            mem_bw: 10.0e9,
            pcie_bw: 1.0e9,
            pcie_latency: 1.0e-6,
            launch_overhead: 1.0e-6,
            atomic_op_time: 100.0e-9,
            // Small on purpose: 8 KiB forces the privatized-accumulation
            // fallback paths at test scale just as 64 KiB of device memory
            // forces chunking.
            shared_mem_per_block: 8 * 1024,
            shared_bw: 40.0e9,
            shared_atomic_op_time: 20.0e-9,
            max_threads_per_block: 256,
            max_block_dim: [256, 256, 64],
            // Relaxed (Kepler-style) grid limits: the tiny device is a test
            // vehicle, not a Fermi model; only the M2070 preset keeps the
            // historical z = 1 grid restriction.
            max_grid_dim: [65_535, 65_535, 65_535],
        }
    }

    /// Peak double-precision throughput, FLOP/s.
    pub fn peak_dp_flops(&self) -> f64 {
        self.sm_count as f64
            * self.lanes_per_sm as f64
            * self.clock_hz
            * self.dp_flops_per_lane_cycle
    }

    /// Time for one host↔device bus transaction of `bytes`: a coalesced
    /// batch pays the latency once on its summed payload.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.pcie_latency + bytes as f64 / self.pcie_bw
    }

    /// Occupancy factor for a kernel that reserves `shared_request` bytes
    /// of shared memory per block: how much of the device's throughput the
    /// launch can actually use, in (0, 1].
    ///
    /// With fewer concurrent blocks per SM there is less latency hiding;
    /// the model takes 4 resident blocks per SM as enough to saturate and
    /// scales down linearly below that. A kernel that requests no shared
    /// memory is unconstrained (factor 1).
    pub fn occupancy(&self, shared_request: u64) -> f64 {
        if shared_request == 0 {
            return 1.0;
        }
        let resident = (self.shared_mem_per_block / shared_request).max(1) as f64;
        (resident / 4.0).min(1.0)
    }

    /// Roofline kernel time for metered work.
    ///
    /// `flops / peak` and `mem_bytes / bandwidth` bound throughput; atomics
    /// add both a throughput term and a serialization term — the longest
    /// same-address chain (`max_bucket`) executes strictly one at a time.
    /// Shared-memory traffic and shared atomics get their own (much
    /// cheaper) throughput terms, and a large per-block shared-memory
    /// request lowers occupancy, inflating every throughput term (but not
    /// the serialization term, which is latency- not parallelism-bound).
    pub fn kernel_time(&self, cost: &Cost) -> f64 {
        let occupancy = self.occupancy(cost.shared_request);
        let compute = cost.flops as f64 / (self.peak_dp_flops() * occupancy);
        let memory = cost.mem_bytes as f64 / (self.mem_bw * occupancy);
        let shared = cost.shared_bytes as f64 / (self.shared_bw * occupancy);
        let atomic_throughput =
            cost.atomic_ops as f64 * self.atomic_op_time / (self.sm_count as f64);
        let shared_atomic_throughput =
            cost.shared_atomic_ops as f64 * self.shared_atomic_op_time / (self.sm_count as f64);
        let atomic_serial = cost.atomic_max_chain as f64 * self.atomic_op_time;
        self.launch_overhead
            + compute
                .max(memory)
                .max(shared)
                .max(atomic_throughput)
                .max(shared_atomic_throughput)
                .max(atomic_serial)
    }
}

/// Performance-relevant properties of the host CPU used for the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProps {
    /// Marketing name, for reports.
    pub name: String,
    /// Physical cores.
    pub cores: u32,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Double-precision FLOPs per core per cycle (SIMD width × issue).
    pub dp_flops_per_core_cycle: f64,
    /// Peak-to-scalar slowdown of non-vectorised code (the reconstruction
    /// loop is scalar); ≥ 1.
    pub scalar_penalty: f64,
    /// Memory bandwidth, bytes/s.
    pub mem_bw: f64,
}

impl HostProps {
    /// The paper's evaluation CPU: one 4-core Xeon E5630 (Westmere-EP,
    /// 2.53 GHz, SSE2 → 4 DP FLOP/cycle, ~25 GB/s tri-channel DDR3).
    pub fn xeon_e5630() -> HostProps {
        HostProps {
            name: "Xeon E5630 (modeled)".into(),
            cores: 4,
            clock_hz: 2.53e9,
            dp_flops_per_core_cycle: 4.0,
            // Scalar DP code on Westmere sustains ≈ 2 FLOP/cycle (add+mul
            // ports, no SSE width) → half the 4 FLOP/cycle SIMD peak.
            scalar_penalty: 2.0,
            mem_bw: 25.0e9,
        }
    }

    /// Peak double-precision throughput with `cores_used` cores, FLOP/s.
    pub fn peak_dp_flops(&self, cores_used: u32) -> f64 {
        cores_used.min(self.cores) as f64 * self.clock_hz * self.dp_flops_per_core_cycle
    }

    /// Roofline time for metered work on `cores_used` cores.
    ///
    /// The sequential baseline of the paper uses `cores_used = 1`. A scalar
    /// (non-SIMD) reconstruction loop does not reach the SIMD peak, so the
    /// model divides peak by [`scalar_penalty`](Self::scalar_penalty).
    pub fn kernel_time(&self, cost: &Cost, cores_used: u32) -> f64 {
        let compute = cost.flops as f64 * self.scalar_penalty / self.peak_dp_flops(cores_used);
        let memory = cost.mem_bytes as f64 / self.mem_bw;
        compute.max(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m2070_matches_published_specs() {
        let d = DeviceProps::tesla_m2070();
        // 515 GFLOP/s DP within 1%.
        assert!((d.peak_dp_flops() - 515.2e9).abs() / 515.2e9 < 0.01);
        assert_eq!(d.total_mem, 6 * 1024 * 1024 * 1024);
        assert_eq!(d.max_threads_per_block, 1024);
        assert_eq!(d.max_grid_dim, [65_535, 65_535, 1]);
        // Fermi shared memory: 48 KB per block, far cheaper than global.
        assert_eq!(d.shared_mem_per_block, 48 * 1024);
        assert!(d.shared_bw > 5.0 * d.mem_bw);
        assert!(d.shared_atomic_op_time < d.atomic_op_time / 2.0);
    }

    #[test]
    fn alternative_presets_match_published_specs() {
        let gtx = DeviceProps::gtx_580();
        // ~198 DP GFLOP/s within 2 %.
        assert!((gtx.peak_dp_flops() - 197.6e9).abs() / 197.6e9 < 0.02);
        let k40 = DeviceProps::tesla_k40();
        // ~1.43 DP TFLOP/s within 2 %.
        assert!((k40.peak_dp_flops() - 1.43e12).abs() / 1.43e12 < 0.02);
        assert!(k40.total_mem > DeviceProps::tesla_m2070().total_mem);
        assert!(gtx.total_mem < DeviceProps::tesla_m2070().total_mem);
        // Kepler: larger shared memory, much faster shared atomics.
        let m2070 = DeviceProps::tesla_m2070();
        assert!(k40.shared_mem_per_block > m2070.shared_mem_per_block);
        assert!(k40.shared_atomic_op_time < m2070.shared_atomic_op_time);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let d = DeviceProps::tesla_m2070();
        let t1 = d.transfer_time(1 << 20);
        let t2 = d.transfer_time(1 << 24);
        assert!(t2 > t1);
        // Latency dominates tiny transfers.
        assert!((d.transfer_time(1) - d.pcie_latency) / d.pcie_latency < 0.01);
    }

    #[test]
    fn kernel_time_is_roofline() {
        let d = DeviceProps::tesla_m2070();
        // Pure compute: 515 GFLOP should take ~1 s.
        let c = Cost {
            flops: 515_200_000_000,
            ..Cost::default()
        };
        let t = d.kernel_time(&c);
        assert!((t - 1.0).abs() < 0.01, "{t}");
        // Memory-bound kernel: 150 GB at 150 GB/s ≈ 1 s.
        let c = Cost {
            mem_bytes: 150_000_000_000,
            ..Cost::default()
        };
        assert!((d.kernel_time(&c) - 1.0).abs() < 0.01);
        // Max, not sum.
        let c = Cost {
            flops: 515_200_000_000,
            mem_bytes: 75_000_000_000,
            ..Cost::default()
        };
        assert!((d.kernel_time(&c) - 1.0).abs() < 0.02);
    }

    #[test]
    fn atomic_serialization_dominates_hot_addresses() {
        let d = DeviceProps::tesla_m2070();
        let spread = Cost {
            atomic_ops: 10_000,
            atomic_max_chain: 10,
            ..Cost::default()
        };
        let hot = Cost {
            atomic_ops: 10_000,
            atomic_max_chain: 10_000,
            ..Cost::default()
        };
        assert!(d.kernel_time(&hot) > 5.0 * d.kernel_time(&spread));
    }

    #[test]
    fn shared_memory_traffic_is_cheaper_than_global() {
        let d = DeviceProps::tesla_m2070();
        let global = Cost {
            mem_bytes: 10_000_000_000,
            ..Cost::default()
        };
        let shared = Cost {
            shared_bytes: 10_000_000_000,
            ..Cost::default()
        };
        assert!(d.kernel_time(&global) > 5.0 * d.kernel_time(&shared));
        // Same for atomics: shared RMWs resolve in the SM.
        let global = Cost {
            atomic_ops: 10_000_000,
            ..Cost::default()
        };
        let shared = Cost {
            shared_atomic_ops: 10_000_000,
            ..Cost::default()
        };
        assert!(d.kernel_time(&global) > 2.0 * d.kernel_time(&shared));
    }

    #[test]
    fn big_shared_requests_cost_occupancy() {
        let d = DeviceProps::tesla_m2070();
        assert_eq!(d.occupancy(0), 1.0);
        // 4+ resident blocks saturate.
        assert_eq!(d.occupancy(d.shared_mem_per_block / 4), 1.0);
        assert_eq!(d.occupancy(d.shared_mem_per_block / 8), 1.0);
        // One resident block: quarter throughput.
        assert!((d.occupancy(d.shared_mem_per_block) - 0.25).abs() < 1e-12);
        // Occupancy inflates throughput-bound kernel time proportionally.
        let light = Cost {
            flops: 515_200_000_000,
            shared_request: d.shared_mem_per_block / 4,
            ..Cost::default()
        };
        let heavy = Cost {
            shared_request: d.shared_mem_per_block,
            ..light
        };
        let ratio = (d.kernel_time(&heavy) - d.launch_overhead)
            / (d.kernel_time(&light) - d.launch_overhead);
        assert!((ratio - 4.0).abs() < 0.01, "{ratio}");
        // ...but not the latency-bound atomic serialization term.
        let chain = Cost {
            atomic_max_chain: 1_000_000,
            shared_request: d.shared_mem_per_block,
            ..Cost::default()
        };
        let free = Cost {
            shared_request: 0,
            ..chain
        };
        assert_eq!(d.kernel_time(&chain), d.kernel_time(&free));
    }

    #[test]
    fn host_model_speedup_with_cores() {
        let h = HostProps::xeon_e5630();
        let c = Cost {
            flops: 10_000_000_000,
            ..Cost::default()
        };
        let t1 = h.kernel_time(&c, 1);
        let t4 = h.kernel_time(&c, 4);
        assert!((t1 / t4 - 4.0).abs() < 0.01);
        // Asking for more cores than exist clamps.
        assert_eq!(h.kernel_time(&c, 64), t4);
    }

    #[test]
    fn gpu_beats_scalar_cpu_on_compute_bound_work() {
        // The headline premise of the paper: for compute-heavy kernels the
        // modeled M2070 is much faster than one Xeon core.
        let d = DeviceProps::tesla_m2070();
        let h = HostProps::xeon_e5630();
        let c = Cost {
            flops: 1_000_000_000_000,
            ..Cost::default()
        };
        let ratio = h.kernel_time(&c, 1) / d.kernel_time(&c);
        assert!(ratio > 50.0, "modeled GPU/CPU ratio {ratio}");
    }
}
