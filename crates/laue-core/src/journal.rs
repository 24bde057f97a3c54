//! Append-only, CRC-framed run journal: slab-granular checkpoint/resume.
//!
//! The paper's row-slab chunking (Fig 2) makes the slab the natural unit of
//! recovery: each slab's depth-band partial sums are complete the moment its
//! D2H download lands, and no later slab ever touches those rows again. The
//! journal exploits that by recording every committed slab — row range,
//! per-slab [`ReconStats`], and the slab's rows of the output image — in an
//! append-only file framed with [`mh5::crc`] CRC-32 checksums:
//!
//! ```text
//! header:  magic "LAUEJRN1" | version u32 | key hash u64 |
//!          n_bins u64 | n_rows u64 | n_cols u64 |
//!          desc_len u32 | description bytes | crc32 of all of the above
//! record:  payload_len u32 | crc32(payload) | payload
//! commit:  payload = kind 0 u64 | row0 u64 | rows u64 |
//!                    10 × ReconStats u64 |
//!                    rows·n_bins·n_cols × f64 (slab rows, bin-major)
//! poison:  payload = kind 1 u64 | row0 u64 | rows u64
//! ```
//!
//! A record is built in one buffer, frame first, and written as is; its
//! `u32` length caps a payload at 4 GiB − 1 bytes. Executors cap their
//! slabs at [`RunJournal::max_slab_rows`] before the first one launches,
//! so every slab fits; a payload that still does not is a
//! [`CoreError::Journal`] rather than a wrapped length.
//!
//! A *poison* record quarantines a row band: an integrity check condemned
//! the slab's data, so replay un-covers (and zeroes) those rows, dropping
//! any earlier commit of them. The scrub writer appends the poison
//! *before* re-executing, so a crash between condemnation and the clean
//! re-commit can never resurrect condemned data on resume.
//!
//! Every field is little-endian. The file is keyed by a content hash of
//! (scan fingerprint, dimensions, configuration, engine, slab plan): a
//! journal only resumes the *exact* run that wrote it — any drift in inputs
//! or plan silently starts fresh instead of merging incompatible partial
//! sums. A torn tail (the process died mid-append) is detected by the
//! record CRC or a short read, truncated away, and replay continues from
//! the last intact record. Because slab downloads *assign* their rows
//! rather than accumulate, replaying records in append order reproduces the
//! committed prefix of the image bit-for-bit, and chunking invariance (the
//! engines produce identical images for any `rows_per_slab`) lets the
//! resumed run cover the remaining rows with whatever slab plan it likes.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

use mh5::crc::{crc32, Crc32};

use crate::output::DepthImage;
use crate::stats::ReconStats;
use crate::{CoreError, Result};

const MAGIC: [u8; 8] = *b"LAUEJRN1";
// v2 widened the per-slab stats block from 6 to 8 words (culled_rows,
// compacted_pairs); v3 widened it to 10 (privatized_pairs,
// accum_fallback_pairs); v4 folds the resolved execution plan into the
// journal key, so a plan flip forces a clean restart; v5 prefixes every
// payload with a record-kind word (commit/poison) and folds the integrity
// mode into the key; v6 folds the cluster topology (node layout, reduction
// routing, overlap) into the key, so resuming under a different cluster
// shape restarts clean; v7 keys on the whole resolved configuration and
// cluster options rather than a hand-picked field list, which brings the
// watchdog multiplier into the key; v8 keys on the resolved plan in place
// of the engine label, plan token and cluster options, so aliases of one
// plan share a journal. An older journal fails the version check and the
// run starts fresh — exactly the safe behaviour for a format change.
const VERSION: u32 = 8;

/// Payload kind word: a committed slab.
const KIND_COMMIT: u64 = 0;
/// Payload kind word: a poisoned (quarantined) row band.
const KIND_POISON: u64 = 1;

fn io_err(what: &str, e: std::io::Error) -> CoreError {
    CoreError::Journal(format!("{what}: {e}"))
}

/// Identity of one reconstruction run for journal-keying purposes.
///
/// The `description` spells out every input that must match for a resume to
/// be sound (scan fingerprint, dimensions, config, resolved plan); the
/// `hash` is a 64-bit digest of it used in the journal filename and header.
/// On open both are compared — a hash collision cannot cross-wire runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalKey {
    /// 64-bit digest of `description`.
    pub hash: u64,
    /// Human-readable run identity the hash summarises.
    pub description: String,
}

impl JournalKey {
    /// Key a run by its full identity string.
    pub fn new(description: String) -> JournalKey {
        let lo = crc32(description.as_bytes()) as u64;
        let mut salted = Crc32::new();
        salted.update(b"laue-journal-salt");
        salted.update(description.as_bytes());
        let hi = salted.finish() as u64;
        JournalKey {
            hash: (hi << 32) | lo,
            description,
        }
    }
}

/// One slab's worth of committed output, as read back from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedSlab {
    /// First detector row of the slab.
    pub row0: usize,
    /// Number of rows.
    pub rows: usize,
    /// The slab's share of the pair counters.
    pub stats: ReconStats,
    /// `rows · n_bins · n_cols` intensities, laid out
    /// `[(bin * rows + r) * n_cols + c]` (see [`DepthImage::assign_rows`]).
    pub data: Vec<f64>,
}

/// One replayed journal record, in append order.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A durably committed slab.
    Commit(CommittedSlab),
    /// A quarantined row band: an integrity check condemned this slab, so
    /// any earlier commit of these rows must not be trusted on replay.
    Poison {
        /// First detector row of the condemned band.
        row0: usize,
        /// Number of rows.
        rows: usize,
    },
}

/// An open run journal positioned for appends.
#[derive(Debug)]
pub struct RunJournal {
    file: File,
    path: PathBuf,
    dims: (usize, usize, usize),
}

impl RunJournal {
    /// Open (or create) the journal for `key` under `dir` and return it
    /// together with the records already written by a previous run, in
    /// append order.
    ///
    /// `dims` is `(n_bins, n_rows, n_cols)` of the output image. With
    /// `resume == false`, or when the existing file's key/dimensions do not
    /// match, the journal starts fresh (the stale file is truncated). A
    /// torn trailing record is silently dropped.
    pub fn open(
        dir: &Path,
        key: &JournalKey,
        dims: (usize, usize, usize),
        resume: bool,
    ) -> Result<(RunJournal, Vec<JournalRecord>)> {
        fs::create_dir_all(dir).map_err(|e| io_err("create journal dir", e))?;
        let path = dir.join(format!("{:016x}.journal", key.hash));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open journal", e))?;

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read journal", e))?;

        let (slabs, valid_len) = if resume {
            parse(&bytes, key, dims)
        } else {
            (Vec::new(), 0)
        };

        if valid_len == 0 {
            // Fresh start: rewrite the header from scratch.
            file.set_len(0).map_err(|e| io_err("truncate journal", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek journal", e))?;
            let header = encode_header(key, dims);
            file.write_all(&header)
                .map_err(|e| io_err("write journal header", e))?;
            file.sync_data().map_err(|e| io_err("sync journal", e))?;
        } else {
            // Drop any torn tail, keep the intact prefix.
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate journal", e))?;
            file.seek(SeekFrom::End(0))
                .map_err(|e| io_err("seek journal", e))?;
        }

        Ok((RunJournal { file, path, dims }, slabs))
    }

    /// Where this journal lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one committed slab. The record is framed in one buffer and
    /// written with a single `write_all`, then flushed with `sync_data`,
    /// so after this returns the slab survives a process kill; a kill
    /// *during* the write leaves a torn tail the next open truncates away.
    /// A slab whose payload does not fit the frame's `u32` length is a
    /// [`CoreError::Journal`], checked before anything is allocated.
    pub fn append(
        &mut self,
        row0: usize,
        rows: usize,
        stats: &ReconStats,
        data: &[f64],
    ) -> Result<()> {
        let (n_bins, _, n_cols) = self.dims;
        debug_assert_eq!(data.len(), n_bins * rows * n_cols);
        let mut record = begin_record(KIND_COMMIT, row0, rows, 8 * STATS_WORDS + 8 * data.len())?;
        for v in stats_words(stats) {
            record.extend_from_slice(&v.to_le_bytes());
        }
        record.extend(data.iter().flat_map(|v| v.to_le_bytes()));
        self.write_record(record)
    }

    /// The most rows one committed slab may span and still fit one record.
    /// Executors cap their slab plan by this before the first slab
    /// launches, so a journalled run never computes a slab it cannot make
    /// durable. Even one row past the frame is a [`CoreError::Journal`].
    pub fn max_slab_rows(&self) -> Result<usize> {
        let (n_bins, _, n_cols) = self.dims;
        max_slab_rows(n_bins, n_cols)
    }

    /// Append a poison record quarantining `rows` detector rows from
    /// `row0`: an integrity check condemned the slab, and replay must not
    /// trust any earlier commit of those rows. Durable before the method
    /// returns, like [`append`](Self::append).
    pub fn append_poison(&mut self, row0: usize, rows: usize) -> Result<()> {
        let record = begin_record(KIND_POISON, row0, rows, 0)?;
        self.write_record(record)
    }

    /// Fill in the frame of a record built by [`begin_record`] — payload
    /// length and CRC-32 — and make it durable.
    fn write_record(&mut self, mut record: Vec<u8>) -> Result<()> {
        let len = frame_len(record.len() - FRAME_BYTES)?;
        let crc = crc32(&record[FRAME_BYTES..]);
        record[..4].copy_from_slice(&len.to_le_bytes());
        record[4..FRAME_BYTES].copy_from_slice(&crc.to_le_bytes());
        self.file
            .write_all(&record)
            .map_err(|e| io_err("append journal record", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("sync journal", e))?;
        Ok(())
    }

    /// Delete the journal — called once the run completed and its output is
    /// safely on disk, so a later `--resume` does not replay a finished run.
    pub fn remove(self) -> Result<()> {
        let path = self.path.clone();
        drop(self.file);
        fs::remove_file(&path).map_err(|e| io_err("remove journal", e))
    }
}

const STATS_WORDS: usize = 10;

/// Record frame ahead of each payload: `payload_len u32 | crc32 u32`.
const FRAME_BYTES: usize = 8;

/// The frame's length field for a payload of `payload_len` bytes. A
/// payload of 4 GiB or more would wrap the `u32`, and replay would read
/// the record as a torn tail and drop it with every later one.
fn frame_len(payload_len: usize) -> Result<u32> {
    u32::try_from(payload_len).map_err(|_| {
        CoreError::Journal(format!(
            "record payload of {payload_len} bytes exceeds the {} byte frame limit",
            u32::MAX
        ))
    })
}

/// Payload bytes of a commit record ahead of its slab values: the kind
/// word, the row band and the stats block.
const COMMIT_HEAD_BYTES: usize = 8 * (3 + STATS_WORDS);

/// The most rows of `n_bins × n_cols` f64 values whose commit payload fits
/// the frame's `u32` length.
fn max_slab_rows(n_bins: usize, n_cols: usize) -> Result<usize> {
    let row_bytes = 8usize.saturating_mul(n_bins).saturating_mul(n_cols);
    match (u32::MAX as usize - COMMIT_HEAD_BYTES) / row_bytes.max(1) {
        0 => Err(CoreError::Journal(format!(
            "one detector row of {row_bytes} bytes exceeds the {} byte record frame limit",
            u32::MAX
        ))),
        rows => Ok(rows),
    }
}

/// Start a framed record: a placeholder frame, then the kind word and row
/// band, with room reserved for `rest` more payload bytes, so the payload
/// is built in place and [`RunJournal::write_record`] writes it as is.
fn begin_record(kind: u64, row0: usize, rows: usize, rest: usize) -> Result<Vec<u8>> {
    let payload_len = 8 * 3 + rest;
    frame_len(payload_len)?;
    let mut record = Vec::with_capacity(FRAME_BYTES + payload_len);
    record.extend_from_slice(&[0; FRAME_BYTES]);
    record.extend_from_slice(&kind.to_le_bytes());
    record.extend_from_slice(&(row0 as u64).to_le_bytes());
    record.extend_from_slice(&(rows as u64).to_le_bytes());
    Ok(record)
}

fn stats_words(s: &ReconStats) -> [u64; STATS_WORDS] {
    [
        s.pairs_total,
        s.pairs_below_cutoff,
        s.pairs_invalid_geometry,
        s.pairs_out_of_range,
        s.pairs_deposited,
        s.deposits,
        s.culled_rows,
        s.compacted_pairs,
        s.privatized_pairs,
        s.accum_fallback_pairs,
    ]
}

fn encode_header(key: &JournalKey, dims: (usize, usize, usize)) -> Vec<u8> {
    let desc = key.description.as_bytes();
    let mut h = Vec::with_capacity(8 + 4 + 8 * 4 + 4 + desc.len() + 4);
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&VERSION.to_le_bytes());
    h.extend_from_slice(&key.hash.to_le_bytes());
    h.extend_from_slice(&(dims.0 as u64).to_le_bytes());
    h.extend_from_slice(&(dims.1 as u64).to_le_bytes());
    h.extend_from_slice(&(dims.2 as u64).to_le_bytes());
    h.extend_from_slice(&(desc.len() as u32).to_le_bytes());
    h.extend_from_slice(desc);
    let crc = crc32(&h);
    h.extend_from_slice(&crc.to_le_bytes());
    h
}

/// Byte-slice cursor used by the replay parser.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Parse a journal byte image against the expected key and dimensions.
/// Returns the intact records in append order and the byte length of the
/// valid prefix (`0` means "unusable — start fresh").
fn parse(
    bytes: &[u8],
    key: &JournalKey,
    dims: (usize, usize, usize),
) -> (Vec<JournalRecord>, usize) {
    let mut c = Cursor { bytes, pos: 0 };
    let fresh = (Vec::new(), 0);

    // Header.
    let Some(magic) = c.take(8) else { return fresh };
    if magic != MAGIC {
        return fresh;
    }
    let Some(version) = c.u32() else { return fresh };
    if version != VERSION {
        return fresh;
    }
    let Some(hash) = c.u64() else { return fresh };
    let (Some(b), Some(r), Some(cols)) = (c.u64(), c.u64(), c.u64()) else {
        return fresh;
    };
    let Some(desc_len) = c.u32() else {
        return fresh;
    };
    let Some(desc) = c.take(desc_len as usize) else {
        return fresh;
    };
    let header_crc = crc32(&bytes[..c.pos]);
    let Some(stored_crc) = c.u32() else {
        return fresh;
    };
    if stored_crc != header_crc
        || hash != key.hash
        || desc != key.description.as_bytes()
        || (b as usize, r as usize, cols as usize) != dims
    {
        return fresh;
    }

    // Records, until EOF or a torn/corrupt tail.
    let (n_bins, n_rows, n_cols) = dims;
    let mut records = Vec::new();
    let mut valid = c.pos;
    while let Some(len) = c.u32() {
        let Some(stored) = c.u32() else { break };
        let Some(payload) = c.take(len as usize) else {
            break;
        };
        if crc32(payload) != stored {
            break;
        }
        let mut p = Cursor {
            bytes: payload,
            pos: 0,
        };
        let (Some(kind), Some(row0), Some(rows)) = (p.u64(), p.u64(), p.u64()) else {
            break;
        };
        let (row0, rows) = (row0 as usize, rows as usize);
        // A band past the image — or one whose end wraps — is as unusable
        // as a torn tail.
        if rows == 0 || row0.checked_add(rows).is_none_or(|end| end > n_rows) {
            break;
        }
        match kind {
            KIND_POISON => {
                if payload.len() != 8 * 3 {
                    break;
                }
                records.push(JournalRecord::Poison { row0, rows });
            }
            KIND_COMMIT => {
                let mut words = [0u64; STATS_WORDS];
                let mut ok = true;
                for w in &mut words {
                    match p.u64() {
                        Some(v) => *w = v,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let n_values = n_bins * rows * n_cols;
                if !ok || payload.len() != COMMIT_HEAD_BYTES + 8 * n_values {
                    break;
                }
                let data: Vec<f64> = payload[COMMIT_HEAD_BYTES..]
                    .chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                    .collect();
                records.push(JournalRecord::Commit(CommittedSlab {
                    row0,
                    rows,
                    stats: ReconStats {
                        pairs_total: words[0],
                        pairs_below_cutoff: words[1],
                        pairs_invalid_geometry: words[2],
                        pairs_out_of_range: words[3],
                        pairs_deposited: words[4],
                        deposits: words[5],
                        culled_rows: words[6],
                        compacted_pairs: words[7],
                        privatized_pairs: words[8],
                        accum_fallback_pairs: words[9],
                    },
                    data,
                }));
            }
            _ => break,
        }
        valid = c.pos;
    }
    (records, valid)
}

// ---------------------------------------------------------------------------
// Slab progress
// ---------------------------------------------------------------------------

/// In-memory view of a partially reconstructed image: the merged output so
/// far, the merged stats, and which rows are already committed. Built fresh
/// for a new run or by [`SlabProgress::replay`] from journal records; the
/// engines then fill in only the [`SlabProgress::uncovered`] row ranges.
#[derive(Debug)]
pub struct SlabProgress {
    /// The merged output image (committed rows populated, rest zero).
    pub image: DepthImage,
    /// Pair counters merged over all committed slabs.
    pub stats: ReconStats,
    committed: Vec<(usize, usize)>,
    covered: Vec<bool>,
}

impl SlabProgress {
    /// Progress for a brand-new run: nothing committed.
    pub fn new(n_bins: usize, n_rows: usize, n_cols: usize) -> SlabProgress {
        SlabProgress {
            image: DepthImage::zeroed(n_bins, n_rows, n_cols),
            stats: ReconStats::default(),
            committed: Vec::new(),
            covered: vec![false; n_rows],
        }
    }

    /// Rebuild progress from journal records, applying them in append
    /// order (later records overwrite earlier rows, matching the download
    /// assignment semantics). A poison record drops every earlier commit
    /// that overlaps its band — those rows become uncovered again and are
    /// recomputed by the resuming run, so condemned data never survives a
    /// crash between condemnation and the clean re-commit.
    pub fn replay(
        n_bins: usize,
        n_rows: usize,
        n_cols: usize,
        records: &[JournalRecord],
    ) -> Result<SlabProgress> {
        // Does the band `[row0, row0 + rows)` end after `row`? A band whose
        // end wraps `usize` reaches past every row.
        let ends_after = |row0: usize, rows: usize, row: usize| {
            row0.checked_add(rows).is_none_or(|end| end > row)
        };
        let mut live: Vec<&CommittedSlab> = Vec::new();
        for rec in records {
            match rec {
                JournalRecord::Commit(s) => live.push(s),
                JournalRecord::Poison { row0, rows } => {
                    live.retain(|s| {
                        !(ends_after(s.row0, s.rows, *row0) && ends_after(*row0, *rows, s.row0))
                    });
                }
            }
        }
        let mut p = SlabProgress::new(n_bins, n_rows, n_cols);
        for s in live {
            p.commit(None, s.row0, s.rows, &s.stats, &s.data)?;
        }
        Ok(p)
    }

    /// Make one slab final: append it to `journal` when one is attached
    /// (durable first, so a slab is either fully durable or not committed
    /// at all), then assign its rows (slab layout, see
    /// [`DepthImage::assign_rows`]) into the image, merge its stats, and
    /// mark the rows covered. Every path that finishes a slab — the GPU
    /// ring, journal replay (which passes no journal), CPU salvage — ends
    /// here.
    pub fn commit(
        &mut self,
        journal: Option<&mut RunJournal>,
        row0: usize,
        rows: usize,
        stats: &ReconStats,
        slab: &[f64],
    ) -> Result<()> {
        if let Some(j) = journal {
            j.append(row0, rows, stats, slab)?;
        }
        self.image.assign_rows(row0, rows, slab)?;
        self.stats.merge(stats);
        self.committed.push((row0, rows));
        self.covered[row0..row0 + rows].fill(true);
        Ok(())
    }

    /// How many slabs have been committed (including replayed ones).
    pub fn committed_slabs(&self) -> usize {
        self.committed.len()
    }

    /// How many detector rows are committed.
    pub fn committed_rows(&self) -> usize {
        self.covered.iter().filter(|&&c| c).count()
    }

    /// Is every row of `band` committed?
    pub fn is_complete(&self, band: Range<usize>) -> bool {
        self.covered[band].iter().all(|&c| c)
    }

    /// Maximal runs of uncommitted rows within `band`, in row order —
    /// exactly the work a resumed or failed-over run still owes.
    pub fn uncovered(&self, band: Range<usize>) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut start: Option<usize> = None;
        for r in band.clone() {
            match (self.covered[r], start) {
                (false, None) => start = Some(r),
                (true, Some(s)) => {
                    runs.push(s..r);
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push(s..band.end);
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laue-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn slab(row0: usize, rows: usize, n_bins: usize, n_cols: usize, fill: f64) -> CommittedSlab {
        CommittedSlab {
            row0,
            rows,
            stats: ReconStats {
                pairs_total: 10,
                pairs_deposited: 4,
                deposits: 8,
                ..ReconStats::default()
            },
            data: vec![fill; n_bins * rows * n_cols],
        }
    }

    #[test]
    fn append_then_resume_replays_bitwise() {
        let dir = tmp_dir("roundtrip");
        let key = JournalKey::new("scan=1 cfg=x engine=gpu".into());
        let dims = (2, 6, 3);
        let (mut j, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        assert!(replayed.is_empty());
        let s0 = slab(0, 2, 2, 3, 1.5);
        let s1 = slab(2, 3, 2, 3, -0.25);
        j.append(s0.row0, s0.rows, &s0.stats, &s0.data).unwrap();
        j.append(s1.row0, s1.rows, &s1.stats, &s1.data).unwrap();
        drop(j);

        let (j2, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        assert_eq!(
            replayed,
            vec![
                JournalRecord::Commit(s0.clone()),
                JournalRecord::Commit(s1.clone())
            ]
        );
        let p = SlabProgress::replay(2, 6, 3, &replayed).unwrap();
        assert_eq!(p.committed_slabs(), 2);
        assert_eq!(p.committed_rows(), 5);
        assert_eq!(p.uncovered(0..6), vec![5..6]);
        assert!(!p.is_complete(0..6));
        assert!(p.is_complete(0..5));
        assert_eq!(p.image.at(0, 0, 0), 1.5);
        assert_eq!(p.image.at(1, 4, 2), -0.25);
        assert_eq!(p.image.at(0, 5, 0), 0.0);
        assert_eq!(p.stats.pairs_total, 20);
        j2.remove().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let key = JournalKey::new("torn".into());
        let dims = (1, 4, 2);
        let (mut j, _) = RunJournal::open(&dir, &key, dims, true).unwrap();
        let s0 = slab(0, 2, 1, 2, 3.0);
        j.append(s0.row0, s0.rows, &s0.stats, &s0.data).unwrap();
        let path = j.path().to_path_buf();
        drop(j);

        // Simulate a kill mid-append: half a record of garbage at the tail.
        let mut bytes = fs::read(&path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&[0x77; 13]);
        fs::write(&path, &bytes).unwrap();

        let (j2, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        assert_eq!(
            replayed,
            vec![JournalRecord::Commit(s0)],
            "intact prefix survives"
        );
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            intact as u64,
            "torn tail truncated"
        );
        drop(j2);

        // A corrupt record body (bad CRC) also stops replay at the tear.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (_j3, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        assert!(replayed.is_empty(), "corrupt record dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_or_dims_mismatch_starts_fresh() {
        let dir = tmp_dir("key");
        let key = JournalKey::new("run-a".into());
        let dims = (1, 4, 2);
        let (mut j, _) = RunJournal::open(&dir, &key, dims, true).unwrap();
        let s0 = slab(0, 4, 1, 2, 1.0);
        j.append(s0.row0, s0.rows, &s0.stats, &s0.data).unwrap();
        drop(j);

        // Same key, resume disabled → fresh.
        let (_, replayed) = RunJournal::open(&dir, &key, dims, false).unwrap();
        assert!(replayed.is_empty());

        // Different description hashes to a different file entirely.
        let other = JournalKey::new("run-b".into());
        assert_ne!(other.hash, key.hash);
        let (_, replayed) = RunJournal::open(&dir, &other, dims, true).unwrap();
        assert!(replayed.is_empty());

        // Same key, different dimensions → fresh (stale file truncated).
        let (mut j, _) = RunJournal::open(&dir, &key, dims, true).unwrap();
        j.append(0, 4, &ReconStats::default(), &[0.0; 8]).unwrap();
        drop(j);
        let (_, replayed) = RunJournal::open(&dir, &key, (1, 5, 2), true).unwrap();
        assert!(replayed.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_quarantines_earlier_commits_on_replay() {
        let dir = tmp_dir("poison");
        let key = JournalKey::new("poison".into());
        let dims = (1, 6, 2);
        let (mut j, _) = RunJournal::open(&dir, &key, dims, true).unwrap();
        let s0 = slab(0, 2, 1, 2, 1.0);
        let bad = slab(2, 2, 1, 2, 7.0); // the commit a later check condemns
        let good = slab(2, 2, 1, 2, 2.0);
        j.append(s0.row0, s0.rows, &s0.stats, &s0.data).unwrap();
        j.append(bad.row0, bad.rows, &bad.stats, &bad.data).unwrap();
        j.append_poison(2, 2).unwrap();
        drop(j);

        // Poison with no re-commit: the band is uncovered and zeroed.
        let (mut j, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[2], JournalRecord::Poison { row0: 2, rows: 2 });
        let p = SlabProgress::replay(1, 6, 2, &replayed).unwrap();
        assert_eq!(p.committed_slabs(), 1, "condemned commit dropped");
        assert_eq!(p.uncovered(0..6), vec![2..6]);
        assert_eq!(p.image.at(0, 2, 0), 0.0, "condemned rows zeroed");
        assert_eq!(p.stats.pairs_total, 10, "condemned stats not merged");

        // Poison followed by a clean re-commit covers the band again.
        j.append(good.row0, good.rows, &good.stats, &good.data)
            .unwrap();
        drop(j);
        let (_j, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        let p = SlabProgress::replay(1, 6, 2, &replayed).unwrap();
        assert_eq!(p.committed_slabs(), 2);
        assert_eq!(p.uncovered(0..6), vec![4..6]);
        assert_eq!(p.image.at(0, 2, 0), 2.0, "re-commit wins");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_truncates_to_last_valid_record() {
        let dir = tmp_dir("midflip");
        let key = JournalKey::new("midflip".into());
        let dims = (1, 4, 2);
        let (mut j, _) = RunJournal::open(&dir, &key, dims, true).unwrap();
        let path = j.path().to_path_buf();
        let header_len = fs::metadata(&path).unwrap().len() as usize;
        let slabs: Vec<CommittedSlab> = (0..3).map(|r| slab(r, 1, 1, 2, r as f64)).collect();
        for s in &slabs {
            j.append(s.row0, s.rows, &s.stats, &s.data).unwrap();
        }
        drop(j);

        // Flip one byte in the middle of the *second* record's CRC frame.
        let mut bytes = fs::read(&path).unwrap();
        let record_len = (bytes.len() - header_len) / 3;
        let target = header_len + record_len + record_len / 2;
        bytes[target] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        // Resume detects the corruption, keeps only the prefix before it,
        // and truncates the file to the last valid record — the third
        // (intact) record after the tear must not survive either, because
        // replay past a corrupt frame cannot be trusted.
        let (j2, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        assert_eq!(replayed, vec![JournalRecord::Commit(slabs[0].clone())]);
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            header_len + record_len,
            "truncated to the last valid record"
        );
        let p = SlabProgress::replay(1, 4, 2, &replayed).unwrap();
        assert_eq!(p.uncovered(0..4), vec![1..4], "only rows 1..4 owed");
        drop(j2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_assigns_merges_and_covers() {
        let mut p = SlabProgress::new(1, 4, 2);
        let stats = ReconStats {
            pairs_total: 7,
            ..ReconStats::default()
        };
        p.commit(None, 0, 2, &stats, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(p.committed_slabs(), 1);
        assert_eq!(p.committed_rows(), 2);
        assert_eq!(p.stats.pairs_total, 7);
        assert_eq!(p.uncovered(0..4), vec![2..4]);
        assert_eq!(p.uncovered(1..3), vec![2..3]);
        assert_eq!(p.image.at(0, 0, 1), 2.0);
        // A bad band is rejected before anything changes.
        assert!(p.commit(None, 3, 2, &stats, &[0.0; 4]).is_err());
        assert_eq!(p.committed_rows(), 2);
        assert_eq!(p.stats.pairs_total, 7);
    }

    #[test]
    fn wrapping_row_range_ends_the_parse_like_a_torn_tail() {
        let dir = tmp_dir("wrap");
        let key = JournalKey::new("wrap".into());
        let dims = (1, 4, 2);
        let (mut j, _) = RunJournal::open(&dir, &key, dims, true).unwrap();
        let s0 = slab(0, 2, 1, 2, 3.0);
        j.append(s0.row0, s0.rows, &s0.stats, &s0.data).unwrap();
        let path = j.path().to_path_buf();
        let intact = fs::metadata(&path).unwrap().len();
        // `row0 + rows` wraps to 0, which an unchecked bound would accept.
        j.append_poison(usize::MAX - 1, 2).unwrap();
        drop(j);

        let (_j, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
        assert_eq!(replayed, vec![JournalRecord::Commit(s0)]);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            intact,
            "the bad record is truncated away"
        );
        let p = SlabProgress::replay(1, 4, 2, &replayed).unwrap();
        assert_eq!(p.uncovered(0..4), vec![2..4]);

        // Replay itself must not wrap either: a poison reaching past every
        // row quarantines whatever it overlaps.
        let wrapping = [
            replayed[0].clone(),
            JournalRecord::Poison {
                row0: 1,
                rows: usize::MAX,
            },
        ];
        let p = SlabProgress::replay(1, 4, 2, &wrapping).unwrap();
        assert_eq!(p.committed_slabs(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_payload_past_the_u32_frame_is_an_error_not_a_wrapped_length() {
        let limit = u32::MAX as usize;
        assert_eq!(frame_len(limit).unwrap(), u32::MAX);
        assert!(matches!(frame_len(limit + 1), Err(CoreError::Journal(_))));
        // `append` checks before it reserves: a record one byte past the
        // limit fails without allocating its 4 GiB.
        assert!(matches!(
            begin_record(KIND_COMMIT, 0, 1, limit + 1 - 8 * 3),
            Err(CoreError::Journal(_))
        ));
    }

    #[test]
    fn max_slab_rows_is_the_largest_band_whose_record_fits() {
        // 200 bins × 2048 cols: a 1,311-row slab passes 4 GiB.
        let rows = max_slab_rows(200, 2048).unwrap();
        assert_eq!(rows, 1310);
        let payload = |rows: usize| COMMIT_HEAD_BYTES + 8 * 200 * rows * 2048;
        assert!(frame_len(payload(rows)).is_ok());
        assert!(frame_len(payload(rows + 1)).is_err());
        // A row that alone overflows the frame cannot be journalled at all.
        assert!(matches!(
            max_slab_rows(1, 1 << 29),
            Err(CoreError::Journal(_))
        ));
        let dir = tmp_dir("max-rows");
        let key = JournalKey::new("max-rows".into());
        let (j, _) = RunJournal::open(&dir, &key, (200, 4096, 2048), true).unwrap();
        assert_eq!(j.max_slab_rows().unwrap(), 1310);
        drop(j);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_is_its_frame_then_its_payload() {
        let dir = tmp_dir("frame");
        let key = JournalKey::new("frame".into());
        let (mut j, _) = RunJournal::open(&dir, &key, (1, 4, 2), true).unwrap();
        let header_len = fs::metadata(j.path()).unwrap().len() as usize;
        j.append_poison(1, 2).unwrap();
        let bytes = fs::read(j.path()).unwrap();
        let record = &bytes[header_len..];
        let payload: Vec<u8> = [KIND_POISON, 1, 2]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert_eq!(&record[..4], &24u32.to_le_bytes());
        assert_eq!(&record[4..8], &crc32(&payload).to_le_bytes());
        assert_eq!(&record[8..], &payload[..]);
        drop(j);
        let _ = fs::remove_dir_all(&dir);
    }
}
