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
//! * **Separate device address space.** Data crosses the bus only through
//!   one copy per direction: [`Device::memcpy_htod`] lands a batch of
//!   buffers in one transaction, [`Device::memcpy_dtoh`] returns a buffer's
//!   nonzero words ([`NonzeroWords`]). Both really copy data, charge
//!   `latency + bytes / pcie_bandwidth` to the communication meter, and
//!   take a `checked` flag for an end-to-end CRC64 ([`checksum`]).
//! * **Capped device memory** with a first-fit/coalescing allocator —
//!   allocations beyond the modeled capacity fail with
//!   [`SimError::OutOfMemory`], exactly the constraint that forces the
//!   paper's row-slab pipeline.
//! * **Grid/block kernel launches** ([`Device::launch`]): every simulated
//!   thread runs functionally (real data, real results); kernels meter
//!   their work through [`ThreadCtx`]. Large launches run on every host
//!   core ([`exec`]) with results bit-identical to one core.
//! * **`atomicAdd(double)`** ([`ThreadCtx::atomic_add_f64`]), which the
//!   paper emulates with a compare-and-swap loop: every cell receives its
//!   deposits in the sequential order, and the cost model charges each as
//!   a serialized atomic.
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
//! use cuda_sim::{Device, DeviceProps, Dim3, LaunchConfig, StreamId};
//!
//! let device = Device::new(DeviceProps::tesla_m2070());
//! let xs = device.alloc::<f64>(4).unwrap();
//! let host = [1.0, 2.0, 3.0, 4.0];
//! device
//!     .memcpy_htod(StreamId::DEFAULT, &[(&xs, &host)], false)
//!     .unwrap();
//! let out = device.alloc::<f64>(1).unwrap();
//! let cfg = LaunchConfig::new(Dim3::linear(2), Dim3::linear(2));
//! device
//!     .launch("sum", cfg, |ctx| {
//!         let i = ctx.global_id().x as usize;
//!         let v = ctx.read(&xs, i);
//!         ctx.atomic_add_f64(&out, 0, v);
//!     })
//!     .unwrap();
//! let (result, _) = device.memcpy_dtoh(StreamId::DEFAULT, &out, false).unwrap();
//! assert_eq!(result.cells().collect::<Vec<_>>(), [(0, 10.0f64.to_bits())]);
//! assert!(device.meters().compute_time_s > 0.0);
//! ```

pub mod alloc;
pub mod checksum;
pub mod cluster;
pub mod device;
pub mod error;
pub mod exec;
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
pub use fault::{FaultPlan, FaultStats};
pub use fleet::{FleetClock, FleetSpan};
pub use host::{Duplex, Host, HostConfig};
pub use kernel::{Dim3, LaunchConfig, ThreadCtx};
pub use memory::{DeviceBuffer, DeviceScalar, NonzeroWords};
pub use meter::{ChainEstimator, Cost, LaunchRecord, Meters, TRACE_SLOTS};
pub use props::{DeviceProps, HostProps};
pub use sim::{Clock, Engine, EventRecord, ResourceId, VirtualClock};
pub use stream::StreamId;
pub use trace::{OpRecord, DEFAULT_TRACE_CAP};

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
