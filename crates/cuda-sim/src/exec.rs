//! The kernel executor: how a launch's simulated threads run on the host.
//!
//! A launch below [`PARALLEL_LAUNCH_THREADS`] runs every block on the
//! calling thread, in linear block order, and each f64 deposit lands in
//! device memory as it is made. A larger launch runs on every host core:
//! workers claim contiguous chunks of blocks in order, and each chunk
//! appends its f64 deposits to a log instead of landing them. A finished
//! chunk's log lands once every earlier chunk's has, applied by whichever
//! worker completes that prefix: a worker whose chunk is not next parks
//! the log and claims more work, so no worker ever waits for another.
//! Every cell therefore receives its deposits in the sequential order, the
//! armed kernel flip hits the same deposit, and the result is bit-identical
//! at any worker count. Costs, chain buckets and trace counters are
//! order-free sums.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::kernel::{AddLog, Deposits, Dim3, Flip, LaunchConfig, ThreadCtx, WorkerState};
use crate::meter::{ChainEstimator, Cost, TRACE_SLOTS};

/// Launches of at least this many simulated threads run on every host core;
/// smaller ones run on the calling thread, with no thread spawned. A spawn
/// costs tens of microseconds, so the gate keeps the many-tiny-launch
/// workloads (fused service batches of a few thousand threads) serial while
/// a reconstruction slab's launch (tens of thousands to millions) spreads.
pub const PARALLEL_LAUNCH_THREADS: u64 = 16_384;

/// Simulated threads per chunk a parallel worker claims: small enough that
/// a few parked logs stay a few hundred KiB and the tail balances, large
/// enough that claiming and landing cost nothing next to the kernel.
const CHUNK_THREADS: u64 = 4_096;

/// Fewest chunks per worker, so a slow chunk cannot leave the others idle.
const CHUNKS_PER_WORKER: u64 = 4;

/// Host cores, read once per process: the workers of a launch at or above
/// the gate.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// What one launch's execution produced besides its memory effects.
pub(crate) struct Outcome {
    pub cost: Cost,
    pub traces: [u64; TRACE_SLOTS],
    /// Whether the armed flip landed on a deposit.
    pub flipped: bool,
}

/// Run every block of `cfg` on `workers` host threads (the calling thread
/// among them); `flip` arms the launch's kernel flip.
pub(crate) fn run<F, E>(
    cfg: LaunchConfig,
    shared_f64: usize,
    kernel: &F,
    epilogue: &E,
    workers: usize,
    flip: Option<Flip>,
) -> Outcome
where
    F: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
    E: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
{
    let blocks = cfg.grid.count();
    let workers = (workers as u64).min(blocks);
    if workers <= 1 {
        let mut state = WorkerState::new(Deposits::Direct(flip));
        run_blocks(cfg, 0..blocks, shared_f64, kernel, epilogue, &mut state);
        let mut cost = state.cost;
        cost.atomic_max_chain = state.chain.max_chain();
        return Outcome {
            cost,
            traces: state.traces,
            flipped: matches!(state.deposits, Deposits::Direct(Some(f)) if f.fired()),
        };
    }
    // At least CHUNKS_PER_WORKER chunks each, so the tail balances.
    let chunk = (CHUNK_THREADS / cfg.block.count())
        .min(blocks / (workers * CHUNKS_PER_WORKER))
        .max(1);
    let chunks = blocks.div_ceil(chunk);
    // Claiming publishes nothing but the index: the kernel's inputs are
    // read-only during the launch, and logs travel through `ledger`.
    let next = AtomicU64::new(0);
    let ledger = Ledger::new(flip);
    let work = || {
        let mut state = WorkerState::new(Deposits::Logged(AddLog::default()));
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            let range = c * chunk..((c + 1) * chunk).min(blocks);
            run_blocks(cfg, range, shared_f64, kernel, epilogue, &mut state);
            let Deposits::Logged(log) = &mut state.deposits else {
                unreachable!("a parallel worker logs its deposits")
            };
            *log = ledger.finish(c, std::mem::take(log));
        }
        state
    };
    let states: Vec<WorkerState> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut states = vec![work()];
        states.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("a kernel worker panicked")),
        );
        states
    });
    let mut cost = Cost::default();
    let mut chain = ChainEstimator::new();
    let mut traces = [0u64; TRACE_SLOTS];
    for s in &states {
        cost.merge(&s.cost);
        chain.merge(&s.chain);
        for (t, v) in traces.iter_mut().zip(s.traces) {
            *t += v;
        }
    }
    cost.atomic_max_chain = chain.max_chain();
    Outcome {
        cost,
        traces,
        flipped: ledger.flipped(),
    }
}

/// The chunk logs of a parallel launch that have not landed yet.
struct Ledger(Mutex<Landing>);

struct Landing {
    /// The chunk whose log lands next.
    next: u64,
    /// Finished chunks' logs, waiting for an earlier chunk.
    parked: BTreeMap<u64, AddLog>,
    /// The launch's armed flip; taken by the worker landing logs.
    flip: Option<Flip>,
}

impl Ledger {
    fn new(flip: Option<Flip>) -> Ledger {
        Ledger(Mutex::new(Landing {
            next: 0,
            parked: BTreeMap::new(),
            flip,
        }))
    }

    /// Hand in chunk `c`'s log. If every earlier chunk has landed, land it
    /// and then every parked successor it unblocks, outside the lock;
    /// otherwise park it. Returns an empty log for the worker's next chunk.
    ///
    /// Only the holder of chunk `next` lands, and it advances `next` under
    /// the lock after each log, so one worker lands at a time and the lock
    /// orders each lander's stores before the next lander's loads.
    fn finish(&self, c: u64, log: AddLog) -> AddLog {
        let mut flip = {
            let mut st = self.0.lock();
            if c != st.next {
                st.parked.insert(c, log);
                return AddLog::default();
            }
            st.flip.take()
        };
        let (mut c, mut log) = (c, log);
        loop {
            log.land(&mut flip);
            let mut st = self.0.lock();
            c += 1;
            st.next = c;
            match st.parked.remove(&c) {
                Some(parked) => log = parked,
                None => {
                    st.flip = flip;
                    return log;
                }
            }
        }
    }

    /// Whether the armed flip landed (once every chunk has).
    fn flipped(&self) -> bool {
        self.0.lock().flip.is_some_and(|f| f.fired())
    }
}

/// Decompose a linear block index into grid coordinates (x fastest).
fn block_coords(grid: Dim3, linear: u64) -> Dim3 {
    let x = linear % grid.x;
    let y = (linear / grid.x) % grid.y;
    let z = linear / (grid.x * grid.y);
    Dim3 { x, y, z }
}

/// Run `blocks` in linear order: each block's threads in `(z, y, x)` order
/// over its own zeroed shared tile, then its epilogue.
fn run_blocks<F, E>(
    cfg: LaunchConfig,
    blocks: Range<u64>,
    shared_f64: usize,
    kernel: &F,
    epilogue: &E,
    state: &mut WorkerState,
) where
    F: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
    E: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
{
    // One tile per call, re-zeroed per block (the hardware hands every
    // block pristine shared memory only logically; reuse is free here).
    let mut shared = vec![0.0f64; shared_f64];
    for b in blocks {
        let block_idx = block_coords(cfg.grid, b);
        shared.fill(0.0);
        for tz in 0..cfg.block.z {
            for ty in 0..cfg.block.y {
                for tx in 0..cfg.block.x {
                    let mut ctx = ThreadCtx {
                        block_idx,
                        thread_idx: Dim3 {
                            x: tx,
                            y: ty,
                            z: tz,
                        },
                        grid_dim: cfg.grid,
                        block_dim: cfg.block,
                        state,
                    };
                    kernel(&mut ctx, &mut shared);
                }
            }
        }
        let mut ctx = ThreadCtx {
            block_idx,
            thread_idx: Dim3 { x: 0, y: 0, z: 0 },
            grid_dim: cfg.grid,
            block_dim: cfg.block,
            state,
        };
        epilogue(&mut ctx, &mut shared);
    }
}
