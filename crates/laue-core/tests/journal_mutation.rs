//! Structure-aware mutation of the run journal's v9 commit record.
//!
//! A random byte flip never reaches the record decoder: the record's
//! CRC-32 fails first. So this test decodes a valid journal into its
//! fields, changes one field — `row0`, `rows`, the cell count, a cell
//! index, the raw/cells form word, or the payload's length — re-seals the
//! record with `mh5::crc::crc32`, and resumes. `RunJournal::open` must
//! return the records before the mutated one (the mutated record and
//! everything after it dropped and truncated away), or every record when
//! the mutation happens to leave a valid one, or a typed error. It must
//! never panic, and never make an allocation larger than the file it
//! reads: this binary's global allocator records the largest request made
//! during each `open`. CI also runs it under a virtual-memory limit, so an
//! allocation sized from a corrupt length aborts the job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cuda_sim::NonzeroWords;
use laue_core::journal::{JournalKey, JournalRecord, RunJournal};
use laue_core::ReconStats;
use mh5::crc::crc32;
use proptest::prelude::*;

/// The system allocator, recording the largest single request while armed.
struct Largest;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only updates two atomics and
// never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System`'s, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Bookkeeping an `open` may allocate beyond the file itself: the record
/// list, the path and the error strings.
const SLACK_BYTES: usize = 4096;

/// One record's payload, decoded field by field.
#[derive(Debug, Clone)]
enum Payload {
    Poison {
        row0: u64,
        rows: u64,
    },
    Commit {
        row0: u64,
        rows: u64,
        stats: [u64; 10],
        form: u64,
        body: Body,
    },
}

#[derive(Debug, Clone)]
enum Body {
    Raw(Vec<u8>),
    Cells {
        count: u64,
        index: Vec<u32>,
        words: Vec<u64>,
    },
}

/// A journal file: its header bytes and its records' payloads.
struct Decoded {
    header: Vec<u8>,
    payloads: Vec<Payload>,
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Decode a journal the writer produced, per the layout in the
/// `laue_core::journal` module docs.
fn decode(bytes: &[u8]) -> Decoded {
    // magic 8 | version 4 | hash 8 | dims 24 | desc_len 4 | desc | crc 4
    let desc_len = u32_at(bytes, 44) as usize;
    let header_len = 48 + desc_len + 4;
    let mut payloads = Vec::new();
    let mut at = header_len;
    while at < bytes.len() {
        let len = u32_at(bytes, at) as usize;
        let p = &bytes[at + 8..at + 8 + len];
        at += 8 + len;
        let (kind, row0, rows) = (u64_at(p, 0), u64_at(p, 8), u64_at(p, 16));
        if kind == 1 {
            payloads.push(Payload::Poison { row0, rows });
            continue;
        }
        let stats: [u64; 10] = std::array::from_fn(|k| u64_at(p, 24 + 8 * k));
        let form = u64_at(p, 104);
        let body = &p[112..];
        let body = if form == 0 {
            Body::Raw(body.to_vec())
        } else {
            let count = u64_at(body, 0);
            let n = count as usize;
            Body::Cells {
                count,
                index: (0..n).map(|k| u32_at(body, 8 + 4 * k)).collect(),
                words: (0..n).map(|k| u64_at(body, 8 + 4 * n + 8 * k)).collect(),
            }
        };
        payloads.push(Payload::Commit {
            row0,
            rows,
            stats,
            form,
            body,
        });
    }
    Decoded {
        header: bytes[..header_len].to_vec(),
        payloads,
    }
}

fn encode_payload(p: &Payload) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |w: u64| out.extend_from_slice(&w.to_le_bytes());
    match p {
        Payload::Poison { row0, rows } => {
            put(1);
            put(*row0);
            put(*rows);
        }
        Payload::Commit {
            row0,
            rows,
            stats,
            form,
            body,
        } => {
            put(0);
            put(*row0);
            put(*rows);
            stats.iter().for_each(|&w| put(w));
            put(*form);
            match body {
                Body::Raw(raw) => out.extend_from_slice(raw),
                Body::Cells {
                    count,
                    index,
                    words,
                } => {
                    put(*count);
                    out.extend(index.iter().flat_map(|i| i.to_le_bytes()));
                    out.extend(words.iter().flat_map(|w| w.to_le_bytes()));
                }
            }
        }
    }
    out
}

/// The file with every payload framed and sealed: `len | crc32 | payload`.
fn seal(header: &[u8], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = header.to_vec();
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(p).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// A field value drawn from the boundaries a decoder must survive.
fn hostile(choice: u8, random: u64, near: u64) -> u64 {
    match choice % 10 {
        0 => 0,
        1 => 1,
        2 => near.wrapping_sub(1),
        3 => near.wrapping_add(1),
        4 => u32::MAX as u64,
        5 => u64::MAX,
        6 => u64::MAX / 12 + 1,
        7 => 1 << 32,
        8 => random % near.saturating_add(8),
        _ => random,
    }
}

/// Apply mutation `what` to `payload`; `false` when it does not apply to
/// this record (no cells to touch on a raw or poison record).
fn mutate(payload: &mut Payload, what: u8, choice: u8, random: u64) -> bool {
    match (payload, what % 6) {
        (Payload::Poison { row0, .. }, 0) | (Payload::Commit { row0, .. }, 0) => {
            *row0 = hostile(choice, random, *row0);
        }
        (Payload::Poison { rows, .. }, 1) | (Payload::Commit { rows, .. }, 1) => {
            *rows = hostile(choice, random, *rows);
        }
        (
            Payload::Commit {
                body: Body::Cells { count, .. },
                ..
            },
            2,
        ) => *count = hostile(choice, random, *count),
        (
            Payload::Commit {
                body: Body::Cells { index, .. },
                ..
            },
            3,
        ) if !index.is_empty() => {
            let k = random as usize % index.len();
            index[k] = hostile(choice, random >> 8, index[k] as u64) as u32;
        }
        (Payload::Commit { form, .. }, 4) => *form = hostile(choice, random, *form),
        (Payload::Commit { body, .. }, 5) => {
            // Grow or shrink the payload by up to 16 bytes at its end.
            let grow = choice.is_multiple_of(2);
            let delta = (random % 16 + 1) as usize;
            match body {
                Body::Raw(raw) if grow => raw.extend(std::iter::repeat_n(0xA5, delta)),
                Body::Raw(raw) => raw.truncate(raw.len().saturating_sub(delta)),
                Body::Cells { words, .. } if grow => words.push(random | 1),
                Body::Cells { words, .. } => {
                    words.pop();
                }
            }
        }
        _ => return false,
    }
    true
}

/// `cells` slab values from an xorshift stream seeded by `seed`, each
/// nonzero with probability `density` %: sparse slabs journal as cells,
/// dense ones raw.
fn slab_values(cells: usize, density: u64, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..cells)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 100 < density {
                f64::from_bits(x >> 1)
            } else {
                0.0
            }
        })
        .collect()
}

fn tmp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("laue-journal-mutation-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_mutated_commit_record_resumes_to_its_intact_prefix(
        shape in (1usize..4, 2usize..8, 1usize..5),
        slabs in proptest::collection::vec((any::<u64>(), 0u64..101, 0u8..8), 1..5),
        target in any::<usize>(),
        what in any::<u8>(),
        choice in any::<u8>(),
        random in any::<u64>(),
    ) {
        let (n_bins, n_rows, n_cols) = shape;
        let dir = tmp_dir();
        let _ = fs::remove_dir_all(&dir);
        let key = JournalKey::new("journal-mutation".into());
        let dims = (n_bins, n_rows, n_cols);
        let (mut j, _) = RunJournal::open(&dir, &key, dims, true).unwrap();
        let path = j.path().to_path_buf();
        for &(seed, density, poison) in &slabs {
            let row0 = seed as usize % n_rows;
            let rows = 1 + (seed >> 16) as usize % (n_rows - row0);
            if poison == 0 {
                j.append_poison(row0, rows).unwrap();
                continue;
            }
            let values = slab_values(n_bins * rows * n_cols, density, seed);
            let stats = ReconStats { pairs_total: seed, ..ReconStats::default() };
            j.append(row0, rows, &stats, &NonzeroWords::from_slice(&values).unwrap())
                .unwrap();
        }
        drop(j);
        let (j, original) = RunJournal::open(&dir, &key, dims, true).unwrap();
        drop(j);
        prop_assert_eq!(original.len(), slabs.len(), "the writer's journal replays whole");

        let bytes = fs::read(&path).unwrap();
        let decoded = decode(&bytes);
        let mut payloads: Vec<Payload> = decoded.payloads.clone();
        let k = target % payloads.len();
        prop_assume!(mutate(&mut payloads[k], what, choice, random));
        let encoded: Vec<Vec<u8>> = payloads.iter().map(encode_payload).collect();
        let mutated = seal(&decoded.header, &encoded);
        let prefix_len = seal(&decoded.header, &encoded[..k]).len();
        fs::write(&path, &mutated).unwrap();

        LARGEST.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        let opened = RunJournal::open(&dir, &key, dims, true);
        ARMED.store(false, Ordering::Relaxed);
        let largest = LARGEST.load(Ordering::Relaxed);
        prop_assert!(
            largest <= mutated.len() + SLACK_BYTES,
            "open allocated {} bytes for a {}-byte file", largest, mutated.len()
        );
        match opened {
            Ok((j, replayed)) => {
                prop_assert!(replayed.len() >= k);
                prop_assert_eq!(&replayed[..k], &original[..k], "the intact prefix");
                let on_disk = fs::metadata(&path).unwrap().len() as usize;
                if replayed.len() == k {
                    prop_assert_eq!(on_disk, prefix_len, "truncated to the intact prefix");
                } else {
                    // The mutation left a record the parser accepts: then
                    // every record survives, the later ones unchanged.
                    prop_assert_eq!(replayed.len(), original.len());
                    prop_assert_eq!(&replayed[k + 1..], &original[k + 1..]);
                    prop_assert_eq!(on_disk, mutated.len());
                    if let JournalRecord::Commit(s) = &replayed[k] {
                        prop_assert_eq!(s.data.len(), n_bins * s.rows * n_cols);
                        prop_assert!(s.row0 + s.rows <= n_rows);
                    }
                }
                drop(j);
            }
            Err(e) => prop_assert!(matches!(e, laue_core::CoreError::Journal(_)), "{e}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
