//! Kernel launch geometry and the per-thread execution context.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::SimError;
use crate::memory::{DeviceBuffer, DeviceScalar};
use crate::meter::{ChainEstimator, Cost};
use crate::props::DeviceProps;

/// CUDA-style 3-component extent or index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    pub x: u64,
    pub y: u64,
    pub z: u64,
}

impl Dim3 {
    /// `(x, y, z)` extent.
    pub const fn new(x: u64, y: u64, z: u64) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// 1-D extent `(n, 1, 1)`.
    pub const fn linear(n: u64) -> Dim3 {
        Dim3 { x: n, y: 1, z: 1 }
    }

    /// Total element count.
    pub const fn count(self) -> u64 {
        self.x * self.y * self.z
    }
}

/// A kernel launch configuration: grid of blocks, block of threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid: Dim3,
    pub block: Dim3,
}

impl LaunchConfig {
    /// Build a configuration.
    pub const fn new(grid: Dim3, block: Dim3) -> LaunchConfig {
        LaunchConfig { grid, block }
    }

    /// 1-D helper: enough `block_size`-wide blocks to cover `n` threads.
    pub const fn linear(n: u64, block_size: u64) -> LaunchConfig {
        let blocks = n.div_ceil(block_size);
        LaunchConfig {
            grid: Dim3::linear(blocks),
            block: Dim3::linear(block_size),
        }
    }

    /// Cover a 3-D domain `(x, y, z)` with blocks of shape `block`, exactly
    /// like the paper's `(rows, cols, images)` thread mapping.
    pub const fn cover(domain: Dim3, block: Dim3) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3 {
                x: domain.x.div_ceil(block.x),
                y: domain.y.div_ceil(block.y),
                z: domain.z.div_ceil(block.z),
            },
            block,
        }
    }

    /// Total simulated threads.
    pub const fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Validate against the device's hardware limits.
    pub fn validate(&self, props: &DeviceProps) -> Result<(), SimError> {
        if self.grid.count() == 0 || self.block.count() == 0 {
            return Err(SimError::InvalidLaunch("empty grid or block".into()));
        }
        if self.block.count() > props.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "{} threads per block exceeds limit {}",
                self.block.count(),
                props.max_threads_per_block
            )));
        }
        let b = [self.block.x, self.block.y, self.block.z];
        let g = [self.grid.x, self.grid.y, self.grid.z];
        for axis in 0..3 {
            if b[axis] > props.max_block_dim[axis] {
                return Err(SimError::InvalidLaunch(format!(
                    "block dim {axis} = {} exceeds limit {}",
                    b[axis], props.max_block_dim[axis]
                )));
            }
            if g[axis] > props.max_grid_dim[axis] {
                return Err(SimError::InvalidLaunch(format!(
                    "grid dim {axis} = {} exceeds limit {}",
                    g[axis], props.max_grid_dim[axis]
                )));
            }
        }
        Ok(())
    }
}

/// XOR mask a kernel-flip fault applies to the targeted f64 deposit: the
/// top exponent bit. For |v| < 2 the perturbed deposit becomes huge (or
/// non-finite), for |v| ≥ 2 it collapses towards zero — either way the
/// accumulated sum changes decisively, so a bitwise ABFT comparison always
/// notices a landed flip.
const KERNEL_FLIP_MASK: u64 = 1 << 62;

/// Armed silent-corruption state for one launch (see [`crate::fault`]):
/// flip the `target`-th f64 deposit, counted in the sequential deposit
/// order. Deposits land in that order at every worker count (see
/// [`crate::exec`]), so the flip always hits the same deposit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flip {
    target: u64,
    seen: u64,
    fired: bool,
}

impl Flip {
    pub(crate) fn new(target: u64) -> Flip {
        Flip {
            target,
            seen: 0,
            fired: false,
        }
    }

    /// Whether the targeted deposit has landed.
    pub(crate) fn fired(&self) -> bool {
        self.fired
    }
}

/// Land one f64 deposit: `slot += v`, with `v` perturbed if it is the
/// armed flip's target. The executor lands deposits one at a time, in the
/// sequential order, so a plain load and store is the whole add.
#[inline]
pub(crate) fn land_f64(slot: &AtomicU64, v: f64, flip: &mut Option<Flip>) {
    let mut v = v;
    if let Some(f) = flip {
        if f.seen == f.target {
            v = f64::from_bits(v.to_bits() ^ KERNEL_FLIP_MASK);
            f.fired = true;
        }
        f.seen += 1;
    }
    let old = f64::from_bits(slot.load(Ordering::Relaxed));
    slot.store((old + v).to_bits(), Ordering::Relaxed);
}

/// The f64 deposits one chunk of blocks made, in execution order, held
/// back until every earlier chunk's have landed.
#[derive(Debug, Default)]
pub(crate) struct AddLog {
    /// Every buffer the chunk deposited into, by first use.
    bufs: Vec<Arc<[AtomicU64]>>,
    /// `bufs` index by the buffer's storage address.
    slots: HashMap<usize, u32>,
    /// `bufs` index of the last deposit's buffer (the common next one).
    last: u32,
    /// `(bufs index, cell, value)` per deposit.
    adds: Vec<(u32, usize, f64)>,
}

impl AddLog {
    /// Record `buf[i] += v`.
    #[inline]
    fn push(&mut self, buf: &DeviceBuffer<f64>, i: usize, v: f64) {
        assert!(
            i < buf.len(),
            "deposit at {i} past the end of a {}-element buffer",
            buf.len()
        );
        let same = self
            .bufs
            .get(self.last as usize)
            .is_some_and(|b| Arc::ptr_eq(b, &buf.words));
        if !same {
            self.last = self.slot_of(&buf.words);
        }
        self.adds.push((self.last, i, v));
    }

    fn slot_of(&mut self, words: &Arc<[AtomicU64]>) -> u32 {
        let n = self.bufs.len() as u32;
        let slot = *self.slots.entry(words.as_ptr() as usize).or_insert(n);
        if slot == n {
            self.bufs.push(Arc::clone(words));
        }
        slot
    }

    /// Land every deposit in order, then empty the log (keeping its
    /// capacity for the next chunk).
    pub(crate) fn land(&mut self, flip: &mut Option<Flip>) {
        for &(b, i, v) in &self.adds {
            land_f64(&self.bufs[b as usize][i], v, flip);
        }
        self.adds.clear();
        self.bufs.clear();
        self.slots.clear();
        self.last = 0;
    }
}

/// Where a worker's f64 deposits go.
#[derive(Debug)]
pub(crate) enum Deposits {
    /// Straight into device memory, with the launch's armed flip (the
    /// one-worker executor runs every block in sequential order).
    Direct(Option<Flip>),
    /// Into the current chunk's log (the parallel executor).
    Logged(AddLog),
}

/// Per-worker scratch shared by all threads that worker simulates.
#[derive(Debug)]
pub(crate) struct WorkerState {
    pub cost: Cost,
    pub chain: ChainEstimator,
    pub traces: [u64; crate::meter::TRACE_SLOTS],
    pub deposits: Deposits,
}

impl WorkerState {
    pub fn new(deposits: Deposits) -> WorkerState {
        WorkerState {
            cost: Cost::default(),
            chain: ChainEstimator::new(),
            traces: [0; crate::meter::TRACE_SLOTS],
            deposits,
        }
    }
}

/// Execution context handed to every simulated kernel thread.
///
/// Mirrors the implicit CUDA state (`blockIdx`, `threadIdx`, …) and is the
/// only sanctioned way for a kernel to touch device memory — its accessors
/// meter the traffic that the timing model charges.
pub struct ThreadCtx<'a> {
    pub block_idx: Dim3,
    pub thread_idx: Dim3,
    pub grid_dim: Dim3,
    pub block_dim: Dim3,
    pub(crate) state: &'a mut WorkerState,
}

impl ThreadCtx<'_> {
    /// Global 3-D thread id: `blockIdx * blockDim + threadIdx`.
    #[inline]
    pub fn global_id(&self) -> Dim3 {
        Dim3 {
            x: self.block_idx.x * self.block_dim.x + self.thread_idx.x,
            y: self.block_idx.y * self.block_dim.y + self.thread_idx.y,
            z: self.block_idx.z * self.block_dim.z + self.thread_idx.z,
        }
    }

    /// Linearised global id (x fastest, then y, then z).
    #[inline]
    pub fn global_linear(&self) -> u64 {
        let g = self.global_id();
        let nx = self.grid_dim.x * self.block_dim.x;
        let ny = self.grid_dim.y * self.block_dim.y;
        (g.z * ny + g.y) * nx + g.x
    }

    /// Charge `n` floating-point operations to this kernel.
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.state.cost.flops += n;
    }

    /// Charge `n` bytes of device-memory traffic not covered by the typed
    /// accessors (e.g. modeled pointer-table indirections).
    #[inline]
    pub fn charge_mem_bytes(&mut self, n: u64) {
        self.state.cost.mem_bytes += n;
    }

    /// Charge `n` bytes of on-chip shared-memory traffic (the per-block
    /// tile handed out by [`crate::Device::launch_shared_on`]). An order of
    /// magnitude cheaper than device memory in the timing model.
    #[inline]
    pub fn charge_shared_bytes(&mut self, n: u64) {
        self.state.cost.shared_bytes += n;
    }

    /// Charge one shared-memory atomic RMW (8 bytes of shared traffic plus
    /// the SM-local atomic cost). The simulator's shared tiles are mutated
    /// directly by the kernel closure — this meters what that mutation
    /// would cost as a `__shared__` atomic on hardware.
    #[inline]
    pub fn charge_shared_atomic(&mut self) {
        self.state.cost.shared_atomic_ops += 1;
        self.state.cost.shared_bytes += 8;
    }

    /// Increment a free-form trace counter.
    ///
    /// Trace counters are **simulator instrumentation**, not device work:
    /// they cost nothing in the performance model and surface in
    /// [`crate::LaunchRecord::traces`]. The reconstruction engines use them
    /// for outcome statistics that a real kernel would either not collect or
    /// collect with negligible warp-local reductions.
    #[inline]
    pub fn trace(&mut self, slot: usize) {
        self.state.traces[slot] += 1;
    }

    /// Read one element; meters the memory traffic.
    ///
    /// Out-of-bounds access panics — the simulator's equivalent of a device
    /// memory fault.
    #[inline]
    pub fn read<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.state.cost.mem_bytes += T::SIZE;
        buf.load(i)
    }

    /// Write one element; meters the memory traffic. Racy writes to the same
    /// slot have "some thread wins" semantics, as on real hardware.
    #[inline]
    pub fn write<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.state.cost.mem_bytes += T::SIZE;
        buf.store(i, v);
    }

    /// `atomicAdd(double)`: `buf[i] += v`. The paper emulates it with a
    /// compare-and-swap loop (Fermi-era CUDA had no native f64 atomicAdd);
    /// the timing model charges it as one serialized atomic. Every cell
    /// receives its deposits in the sequential execution order at any
    /// worker count, so the sum is bit-for-bit reproducible. Deposits land
    /// once the launch's earlier blocks have, so a kernel must not read a
    /// cell it accumulates into during the same launch.
    #[inline]
    pub fn atomic_add_f64(&mut self, buf: &DeviceBuffer<f64>, i: usize, v: f64) {
        self.state.cost.atomic_ops += 1;
        self.state.cost.mem_bytes += 8;
        self.state.chain.record(i);
        match &mut self.state.deposits {
            Deposits::Direct(flip) => land_f64(buf.word(i), v, flip),
            Deposits::Logged(log) => log.push(buf, i, v),
        }
    }

    /// Integer atomic add (native on the device). Integer addition is
    /// exact and order-free, so concurrent workers add in place.
    #[inline]
    pub fn atomic_add_u64(&mut self, buf: &DeviceBuffer<u64>, i: usize, v: u64) {
        self.state.cost.atomic_ops += 1;
        self.state.cost.mem_bytes += 8;
        self.state.chain.record(i);
        buf.word(i).fetch_add(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_counts() {
        assert_eq!(Dim3::linear(5).count(), 5);
        assert_eq!(Dim3::new(2, 9, 4).count(), 72, "the paper's Fig 6 example");
    }

    #[test]
    fn linear_config_covers_n() {
        let cfg = LaunchConfig::linear(1000, 256);
        assert_eq!(cfg.grid.x, 4);
        assert!(cfg.total_threads() >= 1000);
    }

    #[test]
    fn cover_matches_paper_example() {
        // 2 rows × 9 cols × 4 images with block (2, 9, 4) → one block.
        let cfg = LaunchConfig::cover(Dim3::new(2, 9, 4), Dim3::new(2, 9, 4));
        assert_eq!(cfg.grid, Dim3::new(1, 1, 1));
        assert_eq!(cfg.total_threads(), 72);
        // Same domain, blocks of (2, 3, 2) → 1×3×2 grid.
        let cfg = LaunchConfig::cover(Dim3::new(2, 9, 4), Dim3::new(2, 3, 2));
        assert_eq!(cfg.grid, Dim3::new(1, 3, 2));
    }

    #[test]
    fn validation_enforces_device_limits() {
        let props = crate::DeviceProps::tesla_m2070();
        assert!(LaunchConfig::linear(1 << 20, 1024).validate(&props).is_ok());
        // Too many threads per block.
        assert!(LaunchConfig::linear(4096, 2048).validate(&props).is_err());
        // Grid z > 1 not allowed on Fermi.
        let cfg = LaunchConfig::new(Dim3::new(1, 1, 2), Dim3::linear(32));
        assert!(cfg.validate(&props).is_err());
        // Block z ≤ 64.
        let cfg = LaunchConfig::new(Dim3::linear(1), Dim3::new(1, 1, 128));
        assert!(cfg.validate(&props).is_err());
        // Empty launch.
        let cfg = LaunchConfig::new(Dim3::new(0, 1, 1), Dim3::linear(32));
        assert!(cfg.validate(&props).is_err());
    }
}
