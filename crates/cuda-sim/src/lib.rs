//! `cuda-sim` — a software CUDA-like device with a calibrated virtual-time
//! cost model.
//!
//! The CLUSTER 2015 depth-reconstruction paper is a CUDA port evaluated on a
//! Tesla M2070. Its claims are about the *structure* of the computation —
//! host↔device transfer volume vs. kernel work, row-slab chunking under a
//! 6 GB memory cap, CAS-based `atomicAdd(double)`, layout-dependent pointer
//! shipping — none of which require silicon to reproduce. This crate supplies
//! that execution model in software:
//!
//! * **Separate device address space.** Data reaches the device only through
//!   [`Device::memcpy_htod`] / [`Device::memcpy_dtoh`], which really copy
//!   bytes and charge `bytes / pcie_bandwidth + latency` to the
//!   communication meter.
//! * **Capped device memory** with a first-fit/coalescing allocator —
//!   allocations beyond the modeled capacity fail with
//!   [`SimError::OutOfMemory`], exactly the constraint that forces the
//!   paper's row-slab pipeline.
//! * **Grid/block kernel launches** ([`Device::launch`]): every simulated
//!   thread runs functionally (real data, real results), sequentially or on
//!   a host thread pool; kernels meter their work through [`ThreadCtx`].
//! * **`atomicAdd(double)`** implemented the way the paper does it — a
//!   compare-and-swap loop over the 64-bit bit pattern — with retry counting
//!   so contention is observable.
//! * **Virtual time.** Each operation advances a stream timeline using a
//!   roofline-style model over the metered work
//!   ([`DeviceProps::kernel_time`]); [`HostProps`] provides the matching
//!   model for the CPU baseline. Ratios (GPU vs CPU, transfer vs compute)
//!   are therefore deterministic and machine-independent.
//! * **Streams with optional copy/compute overlap** for the double-buffering
//!   ablation the paper's related-work section discusses.
//!
//! The default [`DeviceProps::tesla_m2070`] and [`HostProps::xeon_e5630`]
//! presets are calibrated from the published specifications of the paper's
//! evaluation node (515 DP GFLOP/s vs. ~40, PCIe gen-2 ×16, 6 GB).
//!
//! # Example
//!
//! ```
//! use cuda_sim::{Device, DeviceProps, Dim3, LaunchConfig};
//!
//! let device = Device::new(DeviceProps::tesla_m2070());
//! let xs = device.alloc_from_slice::<f64>(&[1.0, 2.0, 3.0, 4.0]).unwrap();
//! let out = device.alloc_zeroed::<f64>(1).unwrap();
//! let cfg = LaunchConfig::new(Dim3::linear(2), Dim3::linear(2));
//! device
//!     .launch("sum", cfg, |ctx| {
//!         let i = ctx.global_id().x as usize;
//!         let v = ctx.read(&xs, i);
//!         ctx.atomic_add_f64(&out, 0, v);
//!     })
//!     .unwrap();
//! let mut result = [0.0f64];
//! device.memcpy_dtoh(&out, &mut result).unwrap();
//! assert_eq!(result[0], 10.0);
//! assert!(device.meters().compute_time_s > 0.0);
//! ```

pub mod alloc;
pub mod checksum;
pub mod cluster;
pub mod device;
pub mod error;
pub mod event;
pub mod fault;
pub mod fleet;
pub mod host;
pub mod kernel;
pub mod memory;
pub mod meter;
pub mod props;
pub mod sim;
pub mod stream;
pub mod trace;

pub use cluster::{Delivery, Interconnect, InterconnectProps};
pub use device::{Device, TimeSpan};
pub use error::{SimError, TransferDir};
pub use event::Event;
pub use fault::{FaultPlan, FaultStats};
pub use fleet::{FleetClock, FleetSpan};
pub use host::{Duplex, Host, HostConfig};
pub use kernel::{Dim3, LaunchConfig, ThreadCtx};
pub use memory::{DeviceBuffer, DeviceScalar};
pub use meter::{ChainEstimator, Cost, LaunchRecord, Meters, TRACE_SLOTS};
pub use props::{DeviceProps, ExecMode, HostProps};
pub use sim::{Clock, Engine, EventRecord, ResourceId, VirtualClock};
pub use stream::StreamId;
pub use trace::{OpRecord, TraceMode, DEFAULT_TRACE_CAP};

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
