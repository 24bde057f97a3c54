//! Persistent depth-table cache.
//!
//! The per-(scan-step, pixel) edge depths are pure functions of the scan
//! geometry — they never change across slabs, engines, row bands, or
//! repeated runs. This module keeps one host copy of them per geometry and
//! accounts for the tables the
//! [`Triangulation::HostTables`](crate::gpu::Triangulation) design ships:
//!
//! * **edge tables** — per geometry and wire edge, the full-detector
//!   [`EdgeTable`], in an LRU of 8 entries
//!   ([`DepthTableCache::edge_table`]). The first miss builds it on every
//!   host core, and records its wire-shadow cull ([`EdgeTable::cull`]) in
//!   the same pass. Four readers share it: the in-kernel `set_two`, the
//!   cull, whose queries take each run's depth window, a `HostTables`
//!   run's slab uploads (each ships its rows, [`EdgeTable::rows`]) and its
//!   resident upload, so the planner and every ring of every run of one
//!   geometry and edge share one build, whatever their window or binning;
//! * **host accounting** — the [`TableKey::new`] keys of the host tables a
//!   `HostTables` run has paid for, LRU-bounded like the entries
//!   ([`DepthTableCache::host_lookup`]): a miss charges the full detector's
//!   triangulation FLOPs ([`EdgeTable::build_flops`]) once per distinct
//!   geometry and binning, a hit charges nothing;
//! * **device side** — per device, the full-detector table as a resident
//!   [`DeviceBuffer`] that survives across slabs and runs, LRU-bounded by a
//!   configurable byte budget (a slice of `DeviceProps::total_mem`). A warm
//!   run re-uses the resident buffer at virtual time 0 — the upload
//!   disappears from the timeline entirely.
//!
//! Edge tables and their culls are wall-clock savings only: the kernel
//! charges the triangulations it skips, each ring still charges its band's
//! cull triangulations on a hit or a miss, and a `HostTables` run charges
//! exactly what its host key's hit or miss says, so every modeled time is
//! unchanged. An edge table never counts in [`TableCacheStats`] nor shows
//! in [`DepthTableCache::peek_host`] — planner warmth and hit rates read
//! only the host keys.
//!
//! A key holds the *bit patterns* of every f64 its entry depends on — the
//! beam, detector and wire scan, the wire edge, and for a host key the
//! depth binning too — so equality is exact: two keys collide only for
//! byte-identical geometry, and a cached table is bit-identical to a fresh
//! computation.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use cuda_sim::exec::host_cores;
use cuda_sim::DeviceBuffer;
use laue_geometry::{DepthMapper, Vec3, WireEdge};

use crate::config::ReconstructionConfig;
use crate::geometry::ScanGeometry;
use crate::pair::FLOPS_PER_DEPTH;
use crate::planning::{ShadowCull, StepBounds};

/// Host-side entries kept per cache, host keys and edge tables each
/// (distinct geometries per process are few; this only bounds pathological
/// churn).
const HOST_ENTRIES: usize = 8;

/// Content-addressed identity of one depth table.
///
/// Built from the bit patterns of every input the table is a function of;
/// compared by full equality (no truncated hashing), so distinct geometries
/// can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableKey(Vec<u64>);

impl TableKey {
    /// Key for the host table a `HostTables` run of `geom` under `cfg`
    /// pays for.
    pub fn new(geom: &ScanGeometry, cfg: &ReconstructionConfig) -> TableKey {
        let mut w = Self::geometry_words(geom);
        // Depth binning + edge + mode tag (HostTables = 1).
        w.push(cfg.depth_start.to_bits());
        w.push(cfg.depth_end.to_bits());
        w.push(cfg.n_depth_bins as u64);
        w.push(edge_word(cfg.wire_edge));
        w.push(1);
        TableKey(w)
    }

    /// Key for the [`EdgeTable`] of `geom` under `edge`: the geometry and
    /// the edge only, since edge depths do not depend on the binning.
    pub fn edges(geom: &ScanGeometry, edge: WireEdge) -> TableKey {
        let mut w = Self::geometry_words(geom);
        w.push(edge_word(edge));
        w.push(2);
        TableKey(w)
    }

    /// The bit patterns of every geometry input (beam, detector, wire scan).
    fn geometry_words(geom: &ScanGeometry) -> Vec<u64> {
        fn v3(v: laue_geometry::Vec3, w: &mut Vec<u64>) {
            w.push(v.x.to_bits());
            w.push(v.y.to_bits());
            w.push(v.z.to_bits());
        }
        let mut w = Vec::with_capacity(40);
        // Beam.
        v3(geom.beam.origin, &mut w);
        v3(geom.beam.direction, &mut w);
        // Detector.
        let d = &geom.detector;
        w.push(d.n_rows as u64);
        w.push(d.n_cols as u64);
        w.push(d.pixel_pitch_row.to_bits());
        w.push(d.pixel_pitch_col.to_bits());
        for row in d.rotation.rows {
            v3(row, &mut w);
        }
        v3(d.translation, &mut w);
        // Wire scan.
        let wire = &geom.wire;
        v3(wire.axis, &mut w);
        w.push(wire.radius.to_bits());
        v3(wire.origin, &mut w);
        v3(wire.step, &mut w);
        w.push(wire.n_steps as u64);
        w
    }
}

fn edge_word(edge: WireEdge) -> u64 {
    match edge {
        WireEdge::Leading => 0,
        WireEdge::Trailing => 1,
    }
}

/// Fewest depths worth building on every host core; a smaller table builds
/// on the calling thread, since a spawn costs tens of microseconds.
const PARALLEL_BUILD_DEPTHS: usize = 1 << 16;

/// The host's one depth table: one edge depth per `(scan step, detector
/// row, col)` of the rows it covers, `NaN` where no tangent exists, with
/// the bit patterns of the pixel positions and wire centres it was
/// triangulated from. Depths are stored pixel-major with the step fastest,
/// the order a `set_two` thread walks them.
///
/// Four readers share it. The in-kernel `set_two` takes a pair's two depths
/// from it ([`EdgeTable::pair_depths`]) whenever the pixel and wire centres
/// the thread read from device memory equal those inputs bit for bit, and
/// triangulates what it read otherwise, so a corrupted upload changes a run
/// exactly as it would without the table. The wire-shadow cull is its
/// per-(step, row) min/max, recorded as the depths are
/// ([`EdgeTable::cull`]). A
/// [`HostTables`](crate::gpu::Triangulation::HostTables) run ships each
/// slab's rows as they lie ([`EdgeTable::rows`]), or the whole table once
/// when it is made device-resident.
#[derive(Debug)]
pub struct EdgeTable {
    pub(crate) n_steps: usize,
    pub(crate) n_cols: usize,
    /// First detector row of the span the table covers.
    pub(crate) row0: usize,
    /// Per span row: whether it was triangulated (a row between two bands
    /// never is, and holds only `NaN`).
    pub(crate) covered: Vec<bool>,
    /// Bits of each span pixel's position, `(r · n_cols + c) · 3 + axis`.
    pixels: Vec<u64>,
    /// Bits of each wire centre, `z · 3 + axis`.
    wires: Vec<u64>,
    /// Depths, indexed `(r · n_cols + c) · n_steps + z`, `r` span-relative.
    pub(crate) depths: Vec<f64>,
    /// The per-(step, row) bounds of `depths`, shared so that a reader of
    /// the cull alone can drop the depths.
    pub(crate) cull: Arc<ShadowCull>,
}

impl EdgeTable {
    /// Triangulate the detector rows of `bands` (disjoint, ascending) at
    /// every wire step, in row bands on every host core, recording each
    /// (step, row)'s bounds for the cull as the depths land. The table
    /// spans the first band's first row to the last band's last row; a row
    /// between two bands is never triangulated and reads live for every
    /// pair. Each depth is `mapper.depth` of the very pixel and wire centre
    /// the GPU path uploads, so it is bit-identical to the kernel's own
    /// triangulation.
    pub fn build(
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        edge: WireEdge,
        bands: &[Range<usize>],
    ) -> EdgeTable {
        let span = bands.first().map_or(0, |b| b.start)..bands.last().map_or(0, |b| b.end);
        let (n_steps, n_cols) = (geom.wire.n_steps, geom.detector.n_cols);
        let mut covered = vec![false; span.len()];
        for r in bands.iter().flat_map(|b| b.clone()) {
            covered[r - span.start] = true;
        }
        let centres = geom.wire.centers();
        let pixel = |r: usize, c: usize| geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let pixels = span
            .clone()
            .flat_map(|r| (0..n_cols).flat_map(move |c| bits(pixel(r, c))))
            .collect();
        let wires = centres.iter().flat_map(|&w| bits(w)).collect();

        let row_len = n_cols * n_steps;
        let mut depths = vec![f64::NAN; span.len() * row_len];
        let mut bounds = vec![StepBounds::EMPTY; span.len() * n_steps];
        // Fill the span rows from `first` on that `rows` and `bounds` hold.
        let fill = |rows: &mut [f64], bounds: &mut [StepBounds], first: usize| {
            let rows = rows.chunks_exact_mut(row_len);
            for ((r, row), steps) in (first..).zip(rows).zip(bounds.chunks_exact_mut(n_steps)) {
                if !covered[r] {
                    continue;
                }
                for (c, cell) in row.chunks_exact_mut(n_steps).enumerate() {
                    let p = pixel(span.start + r, c);
                    for ((d, &w), step) in cell.iter_mut().zip(&centres).zip(steps.iter_mut()) {
                        *d = mapper.depth(p, w, edge).unwrap_or(f64::NAN);
                        step.add(*d);
                    }
                }
            }
        };
        let workers = if depths.len() >= PARALLEL_BUILD_DEPTHS {
            host_cores().clamp(1, span.len())
        } else {
            1
        };
        if workers <= 1 {
            fill(&mut depths, &mut bounds, 0);
        } else {
            let per = span.len().div_ceil(workers);
            let fill = &fill;
            std::thread::scope(|scope| {
                let mut bands = depths
                    .chunks_mut(per * row_len)
                    .zip(bounds.chunks_mut(per * n_steps))
                    .enumerate();
                let (_, (first, first_bounds)) = bands.next().expect("a nonempty table");
                for (i, (rows, bounds)) in bands {
                    scope.spawn(move || fill(rows, bounds, i * per));
                }
                fill(first, first_bounds, 0);
            });
        }
        EdgeTable {
            n_steps,
            n_cols,
            row0: span.start,
            covered,
            pixels,
            wires,
            depths,
            cull: Arc::new(ShadowCull::new(span.start, n_steps, bounds)),
        }
    }

    /// Host FLOPs of triangulating `rows` detector rows of `geom` at every
    /// wire step: what building their table costs, and what the model
    /// charges wherever a run triangulates on the host, whichever table it
    /// reads.
    pub fn build_flops(geom: &ScanGeometry, rows: usize) -> u64 {
        (geom.wire.n_steps * rows * geom.detector.n_cols) as u64 * FLOPS_PER_DEPTH
    }

    /// The depths of detector rows `[row0, row0 + rows)`, which the table
    /// must span: `((r − row0) · n_cols + c) · n_steps + z`, the layout a
    /// slab's table ships in.
    pub fn rows(&self, row0: usize, rows: usize) -> &[f64] {
        let row_len = self.n_cols * self.n_steps;
        let first = row0 - self.row0;
        &self.depths[first * row_len..(first + rows) * row_len]
    }

    /// The wire-shadow cull of the rows the table covers, built with it.
    /// It outlives the table: a reader of the cull alone keeps this `Arc`
    /// and drops the depths.
    pub fn cull(&self) -> &Arc<ShadowCull> {
        &self.cull
    }

    /// The table a run of `cfg` reads, from its one build site, or `None`
    /// when nothing would read it. With a `cache` it is the scan geometry's
    /// full-detector table, built on the first miss and shared by every
    /// later call of that geometry and edge, whatever its window or
    /// binning. With no cache only a run that ships `host_tables` or culls
    /// gets one, over `bands`, the rows it processes. It never counts in
    /// [`TableCacheStats`].
    pub fn resolve(
        cache: Option<&DepthTableCache>,
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        host_tables: bool,
        bands: &[Range<usize>],
    ) -> Option<Arc<EdgeTable>> {
        let edge = cfg.wire_edge;
        match cache {
            Some(cache) => {
                let all = 0..geom.detector.n_rows;
                Some(cache.edge_table(&TableKey::edges(geom, edge), || {
                    EdgeTable::build(geom, mapper, edge, std::slice::from_ref(&all))
                }))
            }
            None if host_tables || cfg.compaction.enabled() => {
                Some(Arc::new(EdgeTable::build(geom, mapper, edge, bands)))
            }
            None => None,
        }
    }

    /// The edge depths of steps `z` and `z + 1` at pixel `(row, col)`,
    /// when the table covers `row` and `pixel`, `w0` and `w1` are bit for
    /// bit the pixel position and wire centres it was triangulated from;
    /// `None` otherwise, and the caller triangulates what it holds.
    #[inline]
    pub fn pair_depths(
        &self,
        row: usize,
        col: usize,
        z: usize,
        pixel: Vec3,
        w0: Vec3,
        w1: Vec3,
    ) -> Option<(f64, f64)> {
        let r = row.checked_sub(self.row0)?;
        if !*self.covered.get(r)? {
            return None;
        }
        let p = r * self.n_cols + col;
        let same = |v: Vec3, b: &[u64]| {
            v.x.to_bits() == b[0] && v.y.to_bits() == b[1] && v.z.to_bits() == b[2]
        };
        let w = &self.wires[z * 3..z * 3 + 6];
        if !(same(pixel, &self.pixels[p * 3..p * 3 + 3]) && same(w0, w) && same(w1, &w[3..])) {
            return None;
        }
        let i = p * self.n_steps + z;
        Some((self.depths[i], self.depths[i + 1]))
    }
}

/// Hit/miss/evict counters, both per-run (returned by the engines) and
/// lifetime (see [`DepthTableCache::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCacheStats {
    /// Host table already paid for by an earlier run.
    pub host_hits: u64,
    /// Host table paid for by this run (its triangulation charged).
    pub host_misses: u64,
    /// Device-resident table re-used (no upload, ready at virtual time 0).
    pub device_hits: u64,
    /// Device-resident table uploaded (or residency skipped for budget).
    pub device_misses: u64,
    /// Resident tables dropped to respect the byte budget.
    pub evictions: u64,
    /// Bytes resident on the device after the run.
    pub resident_bytes: u64,
}

impl TableCacheStats {
    /// Total hits (host + device) — the headline counter for reports.
    pub fn hits(&self) -> u64 {
        self.host_hits + self.device_hits
    }

    /// Total misses (host + device).
    pub fn misses(&self) -> u64 {
        self.host_misses + self.device_misses
    }

    /// Fold a run's counters into an aggregate.
    pub fn merge(&mut self, other: &TableCacheStats) {
        self.host_hits += other.host_hits;
        self.host_misses += other.host_misses;
        self.device_hits += other.device_hits;
        self.device_misses += other.device_misses;
        self.evictions += other.evictions;
        self.resident_bytes = self.resident_bytes.max(other.resident_bytes);
    }
}

/// Host-side entries by key, least recently used first.
type Lru<T> = VecDeque<(TableKey, Arc<T>)>;

/// The entry for `key`, moved to the most recently used end.
fn touch<T>(lru: &mut Lru<T>, key: &TableKey) -> Option<Arc<T>> {
    let pos = lru.iter().position(|(k, _)| k == key)?;
    let entry = lru.remove(pos)?;
    let value = Arc::clone(&entry.1);
    lru.push_back(entry);
    Some(value)
}

/// Add `value` as the most recently used entry, dropping the least
/// recently used past [`HOST_ENTRIES`].
fn insert<T>(lru: &mut Lru<T>, key: &TableKey, value: &Arc<T>) {
    lru.push_back((key.clone(), Arc::clone(value)));
    while lru.len() > HOST_ENTRIES {
        lru.pop_front();
    }
}

#[derive(Debug)]
struct DeviceEntry {
    device_id: u64,
    key: TableKey,
    buf: DeviceBuffer<f64>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Device-resident byte budget per device; 0 disables residency.
    budget: u64,
    /// Host keys a `HostTables` run has paid for, LRU order (front =
    /// coldest); the tables themselves are the edge tables.
    host: Lru<()>,
    /// Full-detector edge tables with their culls, LRU order; never
    /// counted.
    edges: Lru<EdgeTable>,
    /// Device entries, LRU order (front = coldest), across all devices;
    /// the budget applies per device id.
    device: VecDeque<DeviceEntry>,
    totals: TableCacheStats,
}

/// The persistent cache. Cheap to share (`&` methods, internal lock);
/// typically held in an `Arc` by whatever outlives the runs — the pipeline,
/// a bench harness, or a test.
#[derive(Debug, Default)]
pub struct DepthTableCache {
    inner: Mutex<Inner>,
}

impl DepthTableCache {
    /// A cache whose device-resident side may hold up to `budget_bytes`
    /// per device. The host side is always active.
    pub fn new(budget_bytes: u64) -> DepthTableCache {
        let cache = DepthTableCache::default();
        cache.set_budget(budget_bytes);
        cache
    }

    /// Change the device-resident byte budget (evicting to fit happens on
    /// the next insertion). 0 disables residency; host caching stays on.
    pub fn set_budget(&self, budget_bytes: u64) {
        self.inner.lock().unwrap().budget = budget_bytes;
    }

    /// Current device-resident byte budget.
    pub fn budget(&self) -> u64 {
        self.inner.lock().unwrap().budget
    }

    /// Lifetime counters over every run that used this cache.
    pub fn totals(&self) -> TableCacheStats {
        self.inner.lock().unwrap().totals
    }

    /// Look up the host table `key` names ([`TableKey::new`]), counting a
    /// hit or a miss in `run` and the lifetime totals: `true` when an
    /// earlier run already paid for its triangulation, `false` on a miss,
    /// which the caller charges and which makes the key the most recently
    /// used.
    pub fn host_lookup(&self, key: &TableKey, run: &mut TableCacheStats) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let hit = touch(&mut inner.host, key).is_some();
        if hit {
            run.host_hits += 1;
            inner.totals.host_hits += 1;
        } else {
            run.host_misses += 1;
            inner.totals.host_misses += 1;
            insert(&mut inner.host, key, &Arc::new(()));
        }
        hit
    }

    /// Get (or build with `compute` and insert) the full-detector
    /// [`EdgeTable`] for `key` ([`TableKey::edges`]), its cull included. It
    /// never counts in [`TableCacheStats`] nor shows in
    /// [`DepthTableCache::peek_host`]. When two callers miss the same key
    /// at once, both build and the first insert wins.
    pub fn edge_table(
        &self,
        key: &TableKey,
        compute: impl FnOnce() -> EdgeTable,
    ) -> Arc<EdgeTable> {
        if let Some(hit) = touch(&mut self.inner.lock().unwrap().edges, key) {
            return hit;
        }
        // Build outside the lock (it is the expensive part).
        let built = Arc::new(compute());
        let mut inner = self.inner.lock().unwrap();
        if let Some(first) = touch(&mut inner.edges, key) {
            return first;
        }
        insert(&mut inner.edges, key, &built);
        built
    }

    /// Look up the resident buffer for `(device_id, key)`, refreshing its
    /// LRU position. Counts a device hit in `run` when found. The returned
    /// handle aliases the cached allocation — dropping it does not evict.
    pub fn lookup_device(
        &self,
        device_id: u64,
        key: &TableKey,
        run: &mut TableCacheStats,
    ) -> Option<DeviceBuffer<f64>> {
        let mut inner = self.inner.lock().unwrap();
        let pos = inner
            .device
            .iter()
            .position(|e| e.device_id == device_id && e.key == *key)?;
        let entry = inner.device.remove(pos).unwrap();
        let buf = entry.buf.clone();
        inner.device.push_back(entry);
        run.device_hits += 1;
        inner.totals.device_hits += 1;
        Some(buf)
    }

    /// Whether the host table `key` names is paid for, without refreshing
    /// its LRU position or counting a hit — the execution planner asks
    /// this to predict table costs without perturbing the cache it is
    /// predicting.
    pub fn peek_host(&self, key: &TableKey) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.host.iter().any(|(k, _)| k == key)
    }

    /// Whether `(device_id, key)` is device-resident, without LRU refresh
    /// or hit accounting (see [`DepthTableCache::peek_host`]).
    pub fn peek_device(&self, device_id: u64, key: &TableKey) -> bool {
        let inner = self.inner.lock().unwrap();
        inner
            .device
            .iter()
            .any(|e| e.device_id == device_id && e.key == *key)
    }

    /// Bytes currently resident on `device_id`.
    pub fn resident_bytes(&self, device_id: u64) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .device
            .iter()
            .filter(|e| e.device_id == device_id)
            .map(|e| e.buf.modeled_bytes())
            .sum()
    }

    /// Evict LRU entries of `device_id` until `incoming` more bytes would
    /// fit the budget. Returns false (without evicting anything useful)
    /// when `incoming` alone exceeds the budget — residency is pointless.
    pub fn evict_to_fit(&self, device_id: u64, incoming: u64, run: &mut TableCacheStats) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let budget = inner.budget;
        if incoming > budget {
            return false;
        }
        loop {
            let resident: u64 = inner
                .device
                .iter()
                .filter(|e| e.device_id == device_id)
                .map(|e| e.buf.modeled_bytes())
                .sum();
            if resident + incoming <= budget {
                return true;
            }
            let pos = inner
                .device
                .iter()
                .position(|e| e.device_id == device_id)
                .expect("resident > 0 implies an entry");
            inner.device.remove(pos);
            run.evictions += 1;
            inner.totals.evictions += 1;
        }
    }

    /// Drop every resident table of `device_id` (memory-pressure escape
    /// hatch: frees the allocations so the engine can retry).
    pub fn evict_device(&self, device_id: u64, run: &mut TableCacheStats) {
        let mut inner = self.inner.lock().unwrap();
        let before = inner.device.len();
        inner.device.retain(|e| e.device_id != device_id);
        let evicted = (before - inner.device.len()) as u64;
        run.evictions += evicted;
        inner.totals.evictions += evicted;
    }

    /// Insert a freshly uploaded resident table (counts the device miss
    /// that caused the upload).
    pub fn insert_device(
        &self,
        device_id: u64,
        key: TableKey,
        buf: DeviceBuffer<f64>,
        run: &mut TableCacheStats,
    ) {
        let mut inner = self.inner.lock().unwrap();
        run.device_misses += 1;
        inner.totals.device_misses += 1;
        inner.device.push_back(DeviceEntry {
            device_id,
            key,
            buf,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_sim::{Device, DeviceProps};

    fn demo() -> (ScanGeometry, ReconstructionConfig) {
        (
            ScanGeometry::demo(6, 6, 10, -60.0, 6.0).unwrap(),
            ReconstructionConfig::new(-400.0, 400.0, 40),
        )
    }

    /// The oracle: the full detector triangulated one step at a time in a
    /// plain serial loop, the depth of step `z` at pixel `(r, c)` at
    /// `(z · n_rows + r) · n_cols + c`, `NaN` where no tangent exists.
    fn step_major_oracle(geom: &ScanGeometry, mapper: &DepthMapper, edge: WireEdge) -> Vec<f64> {
        let (n_images, n_rows, n_cols) = (
            geom.wire.n_steps,
            geom.detector.n_rows,
            geom.detector.n_cols,
        );
        let mut depths = Vec::with_capacity(n_images * n_rows * n_cols);
        for z in 0..n_images {
            let wire = geom.wire.center_unchecked(z as f64);
            for r in 0..n_rows {
                for c in 0..n_cols {
                    let p = geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
                    depths.push(mapper.depth(p, wire, edge).unwrap_or(f64::NAN));
                }
            }
        }
        depths
    }

    #[test]
    fn key_is_stable_and_geometry_sensitive() {
        let (geom, cfg) = demo();
        assert_eq!(TableKey::new(&geom, &cfg), TableKey::new(&geom, &cfg));
        let mut other = geom.clone();
        other.wire.radius += 1e-12;
        assert_ne!(TableKey::new(&geom, &cfg), TableKey::new(&other, &cfg));
        let mut cfg2 = cfg.clone();
        cfg2.n_depth_bins += 1;
        assert_ne!(TableKey::new(&geom, &cfg), TableKey::new(&geom, &cfg2));
    }

    #[test]
    fn host_cache_computes_once_and_returns_identical_tables() {
        let (geom, cfg) = demo();
        let mapper = geom.mapper().unwrap();
        let cache = DepthTableCache::new(0);
        let key = TableKey::new(&geom, &cfg);
        let mut run = TableCacheStats::default();
        assert!(!cache.peek_host(&key));
        assert!(!cache.host_lookup(&key, &mut run), "the first lookup pays");
        assert!(cache.peek_host(&key));
        assert!(cache.host_lookup(&key, &mut run), "the second is paid for");
        assert_eq!((run.host_misses, run.host_hits), (1, 1));
        assert_eq!(cache.totals(), run);
        // Another binning is another host table, though it reads the same
        // edge table.
        let mut other = cfg.clone();
        other.n_depth_bins += 1;
        assert!(!cache.host_lookup(&TableKey::new(&geom, &other), &mut run));
        assert_eq!(run.host_misses, 2);
        // The table itself is built once per geometry and handed out as is.
        let edges = TableKey::edges(&geom, cfg.wire_edge);
        let rows = 0..geom.detector.n_rows;
        let first = cache.edge_table(&edges, || {
            EdgeTable::build(&geom, &mapper, cfg.wire_edge, std::slice::from_ref(&rows))
        });
        let second = cache.edge_table(&edges, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.totals(), run, "edge tables count nothing");
        // One key more than the LRU holds evicts the coldest.
        for i in 1..=HOST_ENTRIES {
            let mut cfg = cfg.clone();
            cfg.depth_end += i as f64;
            cache.host_lookup(&TableKey::new(&geom, &cfg), &mut run);
        }
        assert!(!cache.peek_host(&key), "the oldest key was evicted");
    }

    #[test]
    fn culls_are_cached_per_geometry_apart_from_depth_table_accounting() {
        let (geom, cfg) = demo();
        let mapper = geom.mapper().unwrap();
        let cache = DepthTableCache::new(0);
        let all = 0..geom.detector.n_rows;
        let bands = std::slice::from_ref(&all);
        // Two configs of one geometry: another binning and a window that
        // culls.
        let mut other = ReconstructionConfig::new(-350.0, 150.0, cfg.n_depth_bins + 7);
        other.wire_edge = cfg.wire_edge;
        let resolve = |cfg: &ReconstructionConfig| {
            EdgeTable::resolve(Some(&cache), &geom, &mapper, cfg, false, bands)
                .expect("a cache always resolves a table")
        };
        let first = resolve(&cfg);
        let second = resolve(&other);
        assert!(Arc::ptr_eq(&first, &second), "one table per geometry");
        assert!(Arc::ptr_eq(first.cull(), second.cull()), "and one cull");
        // Each window reads the live pairs a freshly built table gives it.
        let fresh = EdgeTable::build(&geom, &mapper, cfg.wire_edge, bands);
        for c in [&cfg, &other] {
            for r in all.clone() {
                assert_eq!(first.cull().live_pairs(c, r), fresh.cull().live_pairs(c, r));
            }
        }
        let n_pairs = geom.wire.n_steps - 1;
        assert!(all
            .clone()
            .any(|r| first.cull().live_pairs(&other, r).len() < n_pairs));
        // Neither the table nor its cull is a depth table: no hit, no
        // miss, no warmth.
        assert_eq!(cache.totals(), TableCacheStats::default());
        let edges = TableKey::edges(&geom, cfg.wire_edge);
        assert!(!cache.peek_host(&TableKey::new(&geom, &cfg)) && !cache.peek_host(&edges));
        // The other edge is another table with its own cull.
        let mut trailing = cfg.clone();
        trailing.wire_edge = match cfg.wire_edge {
            WireEdge::Leading => WireEdge::Trailing,
            WireEdge::Trailing => WireEdge::Leading,
        };
        assert!(!Arc::ptr_eq(first.cull(), resolve(&trailing).cull()));
        // One table more than the LRU holds evicts the coldest, cull and
        // all.
        let build = || EdgeTable::build(&geom, &mapper, cfg.wire_edge, bands);
        for i in 1..=HOST_ENTRIES {
            let mut cfg = cfg.clone();
            cfg.n_depth_bins += i;
            cache.edge_table(&TableKey::new(&geom, &cfg), build);
        }
        let mut rebuilt = false;
        let back = cache.edge_table(&edges, || {
            rebuilt = true;
            build()
        });
        assert!(rebuilt, "the oldest table was evicted");
        assert!(!Arc::ptr_eq(first.cull(), back.cull()));
        assert_eq!(cache.totals(), TableCacheStats::default());
    }

    /// The depth envelope of pair `(z, z + 1)` on `row` as a serial second
    /// pass over `table`'s depths finds it: the min/max of the row's finite
    /// depths at both steps, `None` (never culled) where any depth is not
    /// finite or none is.
    fn serial_envelope(table: &EdgeTable, z: usize, row: usize) -> Option<(f64, f64)> {
        let (n_cols, n_steps) = (table.n_cols, table.n_steps);
        let r = row - table.row0;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (c, step) in (0..n_cols).flat_map(|c| [(c, z), (c, z + 1)]) {
            let d = table.depths[(r * n_cols + c) * n_steps + step];
            if !d.is_finite() {
                return None;
            }
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (lo <= hi).then_some((lo, hi))
    }

    #[test]
    fn edge_tables_hold_the_kernel_depths_for_their_exact_inputs() {
        // Big enough to build on every host core, with the wire tilted so
        // that a row's depths differ from column to column.
        let mut geom = ScanGeometry::demo(40, 36, 50, -60.0, 2.0).unwrap();
        let w = &geom.wire;
        geom.wire = laue_geometry::WireGeometry::new(
            Vec3::new(1.0, 0.05, 0.02),
            w.radius,
            w.origin,
            w.step,
            w.n_steps,
        )
        .unwrap();
        let cfg = ReconstructionConfig::new(-400.0, 400.0, 40);
        let mapper = geom.mapper().unwrap();
        let edge = cfg.wire_edge;
        let all = 0..geom.detector.n_rows;
        let table = EdgeTable::build(&geom, &mapper, edge, std::slice::from_ref(&all));
        assert!(table.depths.len() >= PARALLEL_BUILD_DEPTHS);
        let dense = step_major_oracle(&geom, &mapper, edge);
        let at = |z: usize, r: usize, c: usize| dense[(z * 40 + r) * 36 + c].to_bits();
        let pixel = |r: usize, c: usize| geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
        let wire = |z: usize| geom.wire.center_unchecked(z as f64);
        for (r, c, z) in [(0, 0, 0), (3, 4, 7), (17, 35, 48), (39, 20, 30)] {
            let (d0, d1) = table
                .pair_depths(r, c, z, pixel(r, c), wire(z), wire(z + 1))
                .expect("the table's own inputs");
            assert_eq!((d0.to_bits(), d1.to_bits()), (at(z, r, c), at(z + 1, r, c)));
        }
        // Any other bit pattern is triangulated by the caller.
        let p = pixel(3, 4);
        let nudged = Vec3::new(p.x, f64::from_bits(p.y.to_bits() ^ 1), p.z);
        assert_eq!(table.pair_depths(3, 4, 7, nudged, wire(7), wire(8)), None);
        assert_eq!(table.pair_depths(3, 4, 7, p, wire(8), wire(8)), None);
        assert_eq!(
            table.pair_depths(3, 4, 7, pixel(3, 5), wire(7), wire(8)),
            None
        );
        // The cull recorded in the build's row bands holds the serial
        // pass's envelope exactly: a window ending one ulp above its low
        // end or starting one ulp below its high end keeps the strip, one
        // ending at the low end or starting at the high end culls it.
        let mut bounded = 0;
        for (z, r) in (0..49).flat_map(|z| (0..40).map(move |r| (z, r))) {
            let live = |start: f64, end: f64| {
                let cfg = ReconstructionConfig::new(start, end, 40);
                table.cull().pair_row_live(&cfg, z, r)
            };
            match serial_envelope(&table, z, r) {
                None => assert!(live(1e9, 2e9), "pair {z}, row {r}"),
                Some((lo, hi)) => {
                    bounded += 1;
                    assert!(live(-1e9, lo.next_up()) && !live(-1e9, lo), "{z}, {r}");
                    assert!(live(hi.next_down(), 1e9) && !live(hi, 1e9), "{z}, {r}");
                }
            }
        }
        assert!(bounded > 0);
        // A banded table answers for its bands' rows only.
        let banded = EdgeTable::build(&geom, &mapper, edge, &[2..5, 9..12]);
        for r in [2, 4, 9, 11] {
            assert!(banded
                .pair_depths(r, 1, 0, pixel(r, 1), wire(0), wire(1))
                .is_some());
        }
        for r in [0, 1, 5, 8, 12, 39] {
            assert_eq!(
                banded.pair_depths(r, 1, 0, pixel(r, 1), wire(0), wire(1)),
                None
            );
        }
    }

    #[test]
    fn table_rows_hand_each_slab_the_oracle_depths() {
        let geom = ScanGeometry::demo(9, 7, 12, -60.0, 6.0).unwrap();
        let mapper = geom.mapper().unwrap();
        let (n_steps, n_rows, n_cols) = (12, 9, 7);
        for edge in [WireEdge::Leading, WireEdge::Trailing] {
            let oracle = step_major_oracle(&geom, &mapper, edge);
            assert!(oracle.iter().any(|d| d.is_finite()));
            let full = EdgeTable::build(&geom, &mapper, edge, std::slice::from_ref(&(0..n_rows)));
            let banded = EdgeTable::build(&geom, &mapper, edge, &[1..4, 6..8]);
            let cases: [(&EdgeTable, &[(usize, usize)]); 2] = [
                (&full, &[(0, 9), (0, 1), (2, 3), (5, 4), (8, 1)]),
                (&banded, &[(1, 3), (2, 2), (3, 1), (6, 2), (7, 1)]),
            ];
            for (table, slabs) in cases {
                for &(row0, rows) in slabs {
                    let slab = table.rows(row0, rows);
                    assert_eq!(slab.len(), rows * n_cols * n_steps);
                    for (r, c, z) in (0..rows).flat_map(|r| {
                        (0..n_cols).flat_map(move |c| (0..n_steps).map(move |z| (r, c, z)))
                    }) {
                        let got = slab[(r * n_cols + c) * n_steps + z];
                        let want = oracle[(z * n_rows + row0 + r) * n_cols + c];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{edge:?} rows {row0}+{rows}: ({r}, {c}, {z})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn device_lru_respects_budget_and_counts_evictions() {
        let device = Device::new(DeviceProps::tiny(1 << 20));
        let cache = DepthTableCache::new(2048);
        let mut run = TableCacheStats::default();
        let (geom, cfg) = demo();
        let key = |i: usize| {
            let mut cfg = cfg.clone();
            cfg.n_depth_bins = 10 + i;
            TableKey::new(&geom, &cfg)
        };
        // Each entry is 1024 B; budget fits two.
        for i in 0..3 {
            let incoming = 1024;
            assert!(cache.evict_to_fit(device.id(), incoming, &mut run));
            let buf = device.alloc::<f64>(128).unwrap();
            cache.insert_device(device.id(), key(i), buf, &mut run);
        }
        assert_eq!(run.device_misses, 3);
        assert_eq!(run.evictions, 1, "third insert evicted the LRU entry");
        assert_eq!(cache.resident_bytes(device.id()), 2048);
        assert!(
            cache
                .lookup_device(device.id(), &key(0), &mut run)
                .is_none(),
            "oldest entry evicted"
        );
        assert!(cache
            .lookup_device(device.id(), &key(2), &mut run)
            .is_some());
        assert_eq!(run.device_hits, 1);
        // Oversized incoming refuses without evicting the survivors.
        assert!(!cache.evict_to_fit(device.id(), 4096, &mut run));
        assert_eq!(cache.resident_bytes(device.id()), 2048);
        // Budget is per device: a second device starts from zero.
        let other = Device::new(DeviceProps::tiny(1 << 20));
        assert_eq!(cache.resident_bytes(other.id()), 0);
        assert!(cache.evict_to_fit(other.id(), 2048, &mut run));
        // Full eviction frees everything.
        cache.evict_device(device.id(), &mut run);
        assert_eq!(cache.resident_bytes(device.id()), 0);
    }
}
