//! Persistent depth-table cache.
//!
//! The per-(scan-step, pixel) edge-depth tables shipped by
//! [`Triangulation::HostTables`](crate::gpu::Triangulation) are pure
//! functions of the scan geometry — they never change across slabs, engines,
//! row bands, or repeated runs, yet the pre-cache engine recomputed and
//! re-uploaded them from scratch every time. This module keeps them:
//!
//! * **host side** — a content-addressed map from [`TableKey`] to
//!   `Arc<DepthTables>`, so the triangulation FLOPs are paid once per
//!   distinct geometry (a small LRU bounds the entry count);
//! * **device side** — per device, the full-detector table as a resident
//!   [`DeviceBuffer`] that survives across slabs and runs, LRU-bounded by a
//!   configurable byte budget (a slice of `DeviceProps::total_mem`). A warm
//!   run re-uses the resident buffer at virtual time 0 — the upload
//!   disappears from the timeline entirely;
//! * **edge tables** — per geometry and wire edge, the full-detector
//!   [`EdgeTable`] that the in-kernel `set_two` and the wire-shadow cull
//!   read, in an LRU of its own with the same entry bound
//!   ([`DepthTableCache::edge_table`]). The first miss builds it on every
//!   host core, and every later call of that geometry reads it instead of
//!   triangulating;
//! * **wire-shadow culls** — per geometry and depth window, the
//!   full-detector [`ShadowCull`] that compaction reads, a per-(step, row)
//!   min/max over the edge table, in an LRU of its own with the same entry
//!   bound ([`DepthTableCache::shadow_cull`]), so the planner and every
//!   ring of every run of one geometry share one build.
//!
//! Edge tables and culls are wall-clock savings only: the kernel charges
//! the triangulations it skips, and each ring still charges its band's
//! cull triangulations ([`ShadowCull::build_flops`]) on a hit or a miss,
//! so every modeled time is unchanged. Both stay out of the depth-table
//! entries, [`DepthTableCache::peek_host`] and [`TableCacheStats`] —
//! planner warmth and hit rates read only depth tables.
//!
//! The key hashes the *bit patterns* of every f64 the table depends on
//! (beam, detector, wire scan, depth binning, wire edge, triangulation
//! mode), so equality is exact: two keys collide only for byte-identical
//! geometry, and a cached table is bit-identical to a fresh computation.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use cuda_sim::exec::host_cores;
use cuda_sim::DeviceBuffer;
use laue_geometry::{DepthMapper, Vec3, WireEdge};

use crate::config::ReconstructionConfig;
use crate::geometry::ScanGeometry;
use crate::planning::ShadowCull;

/// Host-side entries kept per cache, depth tables, edge tables and culls
/// each (distinct geometries per process are few; this only bounds
/// pathological churn).
const HOST_ENTRIES: usize = 8;

/// Content-addressed identity of one depth table.
///
/// Built from the bit patterns of every input the table is a function of;
/// compared by full equality (no truncated hashing), so distinct geometries
/// can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableKey(Vec<u64>);

impl TableKey {
    /// Key for the table implied by `geom` + `cfg` (HostTables mode).
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

/// The host-side depth table for a full detector: one precomputed edge
/// depth per `(scan step, row, col)`, `NaN` where no tangent exists.
#[derive(Debug, Clone)]
pub struct DepthTables {
    /// Scan steps (= images).
    pub n_images: usize,
    /// Detector rows covered (the full detector).
    pub n_rows: usize,
    /// Detector columns.
    pub n_cols: usize,
    /// Depths, indexed `(z · n_rows + r) · n_cols + c`.
    pub depths: Vec<f64>,
    /// Host FLOPs spent computing the table (charged once per miss).
    pub host_flops: u64,
}

impl DepthTables {
    /// Compute the full-detector table. Element order and per-element math
    /// match the per-slab path exactly, so a cached table is bit-identical
    /// to tables computed slab by slab.
    pub fn compute(
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
    ) -> DepthTables {
        let (n_images, n_rows, n_cols) = (
            geom.wire.n_steps,
            geom.detector.n_rows,
            geom.detector.n_cols,
        );
        let mut depths = Vec::with_capacity(n_images * n_rows * n_cols);
        let mut host_flops = 0u64;
        for z in 0..n_images {
            let wire = geom.wire.center_unchecked(z as f64);
            for r in 0..n_rows {
                for c in 0..n_cols {
                    let p = geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
                    host_flops += crate::pair::FLOPS_PER_DEPTH;
                    depths.push(mapper.depth(p, wire, cfg.wire_edge).unwrap_or(f64::NAN));
                }
            }
        }
        DepthTables {
            n_images,
            n_rows,
            n_cols,
            depths,
            host_flops,
        }
    }

    /// Device bytes the table occupies when resident.
    pub fn bytes(&self) -> u64 {
        (self.depths.len() * 8) as u64
    }

    /// The rows `[row0, row0 + rows)` of every step, in per-slab layout
    /// `(z · rows + r') · n_cols + c` — what a slab upload ships.
    pub fn slice_rows(&self, row0: usize, rows: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_images * rows * self.n_cols);
        for z in 0..self.n_images {
            for r in row0..row0 + rows {
                let base = (z * self.n_rows + r) * self.n_cols;
                out.extend_from_slice(&self.depths[base..base + self.n_cols]);
            }
        }
        out
    }
}

/// Fewest depths worth building on every host core; a smaller table builds
/// on the calling thread, since a spawn costs tens of microseconds.
const PARALLEL_BUILD_DEPTHS: usize = 1 << 16;

/// The triangulations the in-kernel GPU path and its wire-shadow cull
/// share: one edge depth per `(scan step, detector row, col)` of the rows
/// it covers, `NaN` where no tangent exists, with the bit patterns of the
/// pixel positions and wire centres it was triangulated from.
///
/// Two readers share it. The in-kernel `set_two` takes a pair's two depths
/// from it ([`EdgeTable::pair_depths`]) whenever the pixel and wire centres
/// the thread read from device memory equal those inputs bit for bit, and
/// triangulates what it read otherwise, so a corrupted upload changes a run
/// exactly as it would without the table. The wire-shadow cull is its
/// per-(step, row) min/max ([`ShadowCull::from_edges`]). Depths are stored
/// pixel-major with the step fastest, the order a `set_two` thread walks
/// them.
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
}

impl EdgeTable {
    /// Triangulate the detector rows of `bands` (disjoint, ascending) at
    /// every wire step, in row bands on every host core. The table spans
    /// the first band's first row to the last band's last row. Each depth
    /// is `mapper.depth` of the very pixel and wire centre the GPU path
    /// uploads, so it is bit-identical to the kernel's own triangulation.
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
        // Fill the span rows from `first` on that `rows` holds.
        let fill = |rows: &mut [f64], first: usize| {
            for (r, row) in (first..).zip(rows.chunks_exact_mut(row_len)) {
                if !covered[r] {
                    continue;
                }
                for (c, cell) in row.chunks_exact_mut(n_steps).enumerate() {
                    let p = pixel(span.start + r, c);
                    for (d, &w) in cell.iter_mut().zip(&centres) {
                        *d = mapper.depth(p, w, edge).unwrap_or(f64::NAN);
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
            fill(&mut depths, 0);
        } else {
            let per = span.len().div_ceil(workers);
            let fill = &fill;
            std::thread::scope(|scope| {
                let mut bands = depths.chunks_mut(per * row_len).enumerate();
                let (_, first) = bands.next().expect("a nonempty table");
                for (i, rows) in bands {
                    scope.spawn(move || fill(rows, i * per));
                }
                fill(first, 0);
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
        }
    }

    /// The table a run of `cfg` reads, from its one build site, or `None`
    /// when nothing would read it. With a `cache` it is the scan geometry's
    /// full-detector table, built on the first miss and shared by every
    /// later call of that geometry; the in-kernel `set_two` reads it when
    /// `in_kernel`, and the wire-shadow cull when compaction is on. With
    /// no cache only a compaction run gets one, over `bands`, the rows it
    /// processes (the triangulations its cull costs). It never counts in
    /// [`TableCacheStats`].
    pub fn resolve(
        cache: Option<&DepthTableCache>,
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        in_kernel: bool,
        bands: &[Range<usize>],
    ) -> Option<Arc<EdgeTable>> {
        let compaction = cfg.compaction.enabled();
        let edge = cfg.wire_edge;
        match cache {
            Some(cache) if in_kernel || compaction => {
                let all = 0..geom.detector.n_rows;
                Some(cache.edge_table(&TableKey::edges(geom, edge), || {
                    EdgeTable::build(geom, mapper, edge, std::slice::from_ref(&all))
                }))
            }
            None if compaction => Some(Arc::new(EdgeTable::build(geom, mapper, edge, bands))),
            _ => None,
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
    /// Host table found already computed.
    pub host_hits: u64,
    /// Host table computed from scratch.
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
    /// Host entries, LRU order (front = coldest).
    host: Lru<DepthTables>,
    /// Full-detector wire-shadow culls, LRU order; never counted.
    culls: Lru<ShadowCull>,
    /// Full-detector edge tables, LRU order; never counted.
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

    /// Get (or compute and insert) the host-side table for `key`. The
    /// `compute` closure runs only on a miss; `run` receives the per-run
    /// hit/miss accounting.
    pub fn host_tables(
        &self,
        key: &TableKey,
        run: &mut TableCacheStats,
        compute: impl FnOnce() -> DepthTables,
    ) -> Arc<DepthTables> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(tables) = touch(&mut inner.host, key) {
                run.host_hits += 1;
                inner.totals.host_hits += 1;
                return tables;
            }
        }
        // Compute outside the lock (it is the expensive part).
        let tables = Arc::new(compute());
        let mut inner = self.inner.lock().unwrap();
        run.host_misses += 1;
        inner.totals.host_misses += 1;
        insert(&mut inner.host, key, &tables);
        tables
    }

    /// Get (or build with `compute` and insert) the full-detector
    /// wire-shadow cull for `key`. Neither counts in [`TableCacheStats`]
    /// nor shows in [`DepthTableCache::peek_host`].
    pub fn shadow_cull(
        &self,
        key: &TableKey,
        compute: impl FnOnce() -> ShadowCull,
    ) -> Arc<ShadowCull> {
        self.uncounted(|inner| &mut inner.culls, key, compute)
    }

    /// Get (or build with `compute` and insert) the full-detector
    /// [`EdgeTable`] for `key` ([`TableKey::edges`]). Like a cull, it never
    /// counts in [`TableCacheStats`] nor shows in
    /// [`DepthTableCache::peek_host`].
    pub fn edge_table(
        &self,
        key: &TableKey,
        compute: impl FnOnce() -> EdgeTable,
    ) -> Arc<EdgeTable> {
        self.uncounted(|inner| &mut inner.edges, key, compute)
    }

    /// The entry for `key` in the uncounted LRU `lru` picks, built with
    /// `compute` on a miss. When two callers miss the same key at once,
    /// both build and the first insert wins.
    fn uncounted<T>(
        &self,
        lru: impl Fn(&mut Inner) -> &mut Lru<T>,
        key: &TableKey,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(hit) = touch(lru(&mut self.inner.lock().unwrap()), key) {
            return hit;
        }
        // Build outside the lock (it is the expensive part).
        let built = Arc::new(compute());
        let mut inner = self.inner.lock().unwrap();
        let lru = lru(&mut inner);
        if let Some(first) = touch(lru, key) {
            return first;
        }
        insert(lru, key, &built);
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

    /// Whether the host-side table for `key` is cached, without refreshing
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
        let first = cache.host_tables(&key, &mut run, || {
            DepthTables::compute(&geom, &mapper, &cfg)
        });
        let second = cache.host_tables(&key, &mut run, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(run.host_hits, 1);
        assert_eq!(run.host_misses, 1);
        let fresh = DepthTables::compute(&geom, &mapper, &cfg);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&second.depths), bits(&fresh.depths));
    }

    #[test]
    fn culls_are_cached_per_geometry_apart_from_depth_table_accounting() {
        let (geom, cfg) = demo();
        let mapper = geom.mapper().unwrap();
        let cache = DepthTableCache::new(0);
        let key = |i: usize| {
            let mut cfg = cfg.clone();
            cfg.depth_end += i as f64;
            TableKey::new(&geom, &cfg)
        };
        let full = || ShadowCull::compute(&geom, &mapper, &cfg, 0..geom.detector.n_rows);
        let first = cache.shadow_cull(&key(0), full);
        let again = cache.shadow_cull(&key(0), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&first, &again));
        let edges = TableKey::edges(&geom, cfg.wire_edge);
        let rows = 0..geom.detector.n_rows;
        let table = cache.edge_table(&edges, || {
            EdgeTable::build(&geom, &mapper, cfg.wire_edge, std::slice::from_ref(&rows))
        });
        let kept = cache.edge_table(&edges, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&table, &kept));
        // Neither a cull nor an edge table is a depth table: no hit, no
        // miss, no warmth.
        assert_eq!(cache.totals(), TableCacheStats::default());
        assert!(!cache.peek_host(&key(0)) && !cache.peek_host(&edges));
        // One geometry more than the LRU holds evicts the coldest cull.
        for i in 1..=HOST_ENTRIES {
            cache.shadow_cull(&key(i), full);
        }
        cache.shadow_cull(&key(HOST_ENTRIES), || panic!("newest kept"));
        let mut rebuilt = false;
        let back = cache.shadow_cull(&key(0), || {
            rebuilt = true;
            full()
        });
        assert!(rebuilt, "the oldest cull was evicted");
        assert!(!Arc::ptr_eq(&first, &back));
        assert_eq!(cache.totals(), TableCacheStats::default());
    }

    #[test]
    fn edge_tables_hold_the_kernel_depths_for_their_exact_inputs() {
        // Big enough to build on every host core.
        let geom = ScanGeometry::demo(40, 36, 50, -60.0, 2.0).unwrap();
        let cfg = ReconstructionConfig::new(-400.0, 400.0, 40);
        let mapper = geom.mapper().unwrap();
        let edge = cfg.wire_edge;
        let all = 0..geom.detector.n_rows;
        let table = EdgeTable::build(&geom, &mapper, edge, std::slice::from_ref(&all));
        assert!(table.depths.len() >= PARALLEL_BUILD_DEPTHS);
        let dense = DepthTables::compute(&geom, &mapper, &cfg);
        let at = |z: usize, r: usize, c: usize| dense.depths[(z * 40 + r) * 36 + c].to_bits();
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
    fn slice_rows_matches_per_slab_layout() {
        let (geom, cfg) = demo();
        let mapper = geom.mapper().unwrap();
        let full = DepthTables::compute(&geom, &mapper, &cfg);
        // Recompute rows 2..5 the way the per-slab path does.
        let (row0, rows) = (2usize, 3usize);
        let mut slab = Vec::new();
        for z in 0..full.n_images {
            let wire = geom.wire.center_unchecked(z as f64);
            for r in row0..row0 + rows {
                for c in 0..full.n_cols {
                    let p = geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
                    slab.push(mapper.depth(p, wire, cfg.wire_edge).unwrap_or(f64::NAN));
                }
            }
        }
        let sliced = full.slice_rows(row0, rows);
        assert_eq!(
            sliced.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slab.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
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
