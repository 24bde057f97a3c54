//! Device memory: typed buffers in a separate address space.
//!
//! Every buffer's payload lives in a host-side slab of `AtomicU64` words —
//! one element per word — so simulated threads can race on it safely.
//! Fresh buffers come back zeroed from the host allocator
//! (`Arc::new_zeroed_slice`), so a page of device memory costs host memory
//! only once something writes to it; that one `unsafe` call is the crate's
//! only one. *Capacity accounting is separate from storage*: the allocator
//! charges the modeled element size (`DeviceScalar::SIZE`), which is what
//! the memory-cap and transfer models see, regardless of how the simulator
//! chooses to back the data.
//!
//! [`NonzeroWords`] is the host side of a device → host copy: only the
//! buffer's nonzero words, with every all-zero word left implicit.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::alloc::Allocator;
use crate::error::SimError;
use crate::Result;

/// Scalars storable in device buffers.
pub trait DeviceScalar: Copy + Default + Send + Sync + 'static {
    /// Modeled size in bytes (drives capacity and PCIe accounting).
    const SIZE: u64;
    /// Name for diagnostics.
    const NAME: &'static str;
    /// Pack into a storage word.
    fn to_word(self) -> u64;
    /// Unpack from a storage word.
    fn from_word(w: u64) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $size:expr, $name:expr, $to:expr, $from:expr) => {
        impl DeviceScalar for $t {
            const SIZE: u64 = $size;
            const NAME: &'static str = $name;
            #[inline]
            fn to_word(self) -> u64 {
                ($to)(self)
            }
            #[inline]
            fn from_word(w: u64) -> Self {
                ($from)(w)
            }
        }
    };
}

impl_scalar!(
    f64,
    8,
    "f64",
    |v: f64| v.to_bits(),
    |w: u64| f64::from_bits(w)
);
impl_scalar!(f32, 4, "f32", |v: f32| v.to_bits() as u64, |w: u64| {
    f32::from_bits(w as u32)
});
impl_scalar!(u64, 8, "u64", |v: u64| v, |w: u64| w);
impl_scalar!(u32, 4, "u32", |v: u32| v as u64, |w: u64| w as u32);
impl_scalar!(i32, 4, "i32", |v: i32| v as u32 as u64, |w: u64| w as u32
    as i32);
impl_scalar!(u16, 2, "u16", |v: u16| v as u64, |w: u64| w as u16);
impl_scalar!(u8, 1, "u8", |v: u8| v as u64, |w: u64| w as u8);

/// RAII registration of an address range with the device allocator.
#[derive(Debug)]
pub(crate) struct Allocation {
    pub(crate) addr: u64,
    pub(crate) bytes: u64,
    pub(crate) allocator: Arc<Mutex<Allocator>>,
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.allocator.lock().free(self.addr);
    }
}

/// A typed buffer in simulated device memory.
///
/// Cloning a handle aliases the same device memory (like copying a CUDA
/// device pointer); the allocation is released when the last handle drops.
#[derive(Debug, Clone)]
pub struct DeviceBuffer<T: DeviceScalar> {
    pub(crate) words: Arc<[AtomicU64]>,
    pub(crate) allocation: Arc<Allocation>,
    pub(crate) device_id: u64,
    pub(crate) len: usize,
    _marker: PhantomData<T>,
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    pub(crate) fn new(len: usize, allocation: Allocation, device_id: u64) -> DeviceBuffer<T> {
        // SAFETY: `AtomicU64` has the size and bit validity of `u64`, so the
        // all-zero bytes the allocator hands back are `len` valid atomics
        // holding 0.
        let words = unsafe { Arc::<[AtomicU64]>::new_zeroed_slice(len).assume_init() };
        DeviceBuffer {
            words,
            allocation: Arc::new(allocation),
            device_id,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements (never constructed in
    /// practice; allocations are non-empty).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Modeled size in bytes (what the allocator and PCIe model charge).
    pub fn modeled_bytes(&self) -> u64 {
        self.len as u64 * T::SIZE
    }

    /// Modeled device address (for diagnostics).
    pub fn device_addr(&self) -> u64 {
        self.allocation.addr
    }

    /// Bytes this buffer holds against the device capacity (includes no
    /// alignment padding; the allocator rounds internally).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocation.bytes
    }

    /// Raw load (device-side; kernels use [`crate::ThreadCtx::read`], which
    /// also meters the traffic).
    #[inline]
    pub(crate) fn load(&self, i: usize) -> T {
        T::from_word(self.words[i].load(Ordering::Relaxed))
    }

    /// Raw store (device-side).
    #[inline]
    pub(crate) fn store(&self, i: usize, v: T) {
        self.words[i].store(v.to_word(), Ordering::Relaxed);
    }

    /// Atomic slot accessor for CAS loops.
    #[inline]
    pub(crate) fn word(&self, i: usize) -> &AtomicU64 {
        &self.words[i]
    }

    /// Scribble a recognisable garbage pattern over every element: a failed
    /// DMA may have written any prefix, so fault injection poisons the whole
    /// buffer to guarantee a retry that "worked" only because the data
    /// survived from a partial copy cannot pass silently.
    pub(crate) fn poison(&self) {
        for w in self.words.iter() {
            w.store(0xDEAD_BEEF_DEAD_BEEF, Ordering::Relaxed);
        }
    }

    /// The buffer's nonzero words, read in one pass: each block of eight
    /// words is tested with one OR, so the zero pages of a sparse buffer
    /// cost a read and nothing else.
    pub(crate) fn nonzero_words(&self) -> Result<NonzeroWords> {
        let mut copy = NonzeroWords::zeros(self.len)?;
        for (block, words) in self.words.chunks(8).enumerate() {
            if words
                .iter()
                .fold(0, |acc, w| acc | w.load(Ordering::Relaxed))
                == 0
            {
                continue;
            }
            for (k, w) in words.iter().enumerate() {
                let w = w.load(Ordering::Relaxed);
                if w != 0 {
                    copy.push_unchecked(block * 8 + k, w);
                }
            }
        }
        Ok(copy)
    }
}

/// Refuse a copy whose last cell index does not fit a `u32`.
fn check_len(len: usize) -> Result<()> {
    if len > 0 && u32::try_from(len - 1).is_err() {
        return Err(SimError::InvalidRequest(format!(
            "{len} cells exceed the u32 cell index of a nonzero copy"
        )));
    }
    Ok(())
}

/// A host copy of a buffer that keeps only its nonzero words.
///
/// A cell is nonzero when its storage word is not all-zero, so for `f64`
/// the −0.0 and NaN cells travel and only +0.0 stays implicit. The copy
/// keeps the buffer's length and its nonzero cells in index order — a
/// `u32` index and a word each — so it stands for exactly one dense word
/// stream: [`scatter_into`](Self::scatter_into) rebuilds that stream and
/// [`crate::checksum::crc64_nonzero`] hashes it. Every constructor keeps
/// the cells strictly ascending, inside the length and nonzero, and a
/// length whose last index does not fit a `u32` is refused, never
/// truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonzeroWords {
    len: usize,
    index: Vec<u32>,
    words: Vec<u64>,
}

impl NonzeroWords {
    /// An all-zero copy of `len` cells.
    pub fn zeros(len: usize) -> Result<NonzeroWords> {
        NonzeroWords::with_capacity(len, 0)
    }

    /// An all-zero copy of `len` cells with room for `cells` nonzero ones.
    pub fn with_capacity(len: usize, cells: usize) -> Result<NonzeroWords> {
        check_len(len)?;
        Ok(NonzeroWords {
            len,
            index: Vec::with_capacity(cells),
            words: Vec::with_capacity(cells),
        })
    }

    /// The nonzero elements of a host slice.
    pub fn from_slice<T: DeviceScalar>(values: &[T]) -> Result<NonzeroWords> {
        let mut copy = NonzeroWords::zeros(values.len())?;
        for (i, v) in values.iter().enumerate() {
            let w = v.to_word();
            if w != 0 {
                copy.push_unchecked(i, w);
            }
        }
        Ok(copy)
    }

    /// Cells in the dense stream the copy stands for, zeros included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a copy of no cells at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many cells are nonzero.
    pub fn nnz(&self) -> usize {
        self.index.len()
    }

    /// The nonzero cells' indices, ascending.
    pub fn indices(&self) -> &[u32] {
        &self.index
    }

    /// The nonzero cells' words, in index order.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// `(index, word)` of every nonzero cell, in index order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.index
            .iter()
            .map(|&i| i as usize)
            .zip(self.words.iter().copied())
    }

    /// Add cell `index` holding `word`. It must lie past every cell already
    /// held and inside the length, and `word` must not be zero; otherwise
    /// nothing changes and the error says which rule broke.
    pub fn push(&mut self, index: usize, word: u64) -> Result<()> {
        let after_last = self.index.last().is_none_or(|&last| index > last as usize);
        if word == 0 || index >= self.len || !after_last {
            return Err(SimError::InvalidRequest(format!(
                "cell {index} (word {word:#x}) is zero, out of order or past {} cells",
                self.len
            )));
        }
        self.push_unchecked(index, word);
        Ok(())
    }

    /// [`push`](Self::push) for a caller that walks indices below `len` in
    /// ascending order and skips zero words.
    fn push_unchecked(&mut self, index: usize, word: u64) {
        debug_assert!(index < self.len && word != 0);
        // `index < len`, and `with_capacity` checked `len - 1` fits a u32.
        self.index.push(index as u32);
        self.words.push(word);
    }

    /// Append `other` as the cells that follow this copy's last one: the
    /// result stands for this stream and then `other`'s.
    pub fn append(&mut self, other: &NonzeroWords) -> Result<()> {
        let base = self.len;
        let len = base.checked_add(other.len).ok_or_else(|| {
            SimError::InvalidRequest("appended nonzero copy overflows usize".into())
        })?;
        check_len(len)?;
        self.len = len;
        self.index.reserve(other.nnz());
        self.words.reserve(other.nnz());
        for (i, w) in other.cells() {
            self.push_unchecked(base + i, w);
        }
        Ok(())
    }

    /// Write the dense stream into `dst`: every cell zero except the held
    /// ones.
    ///
    /// # Panics
    ///
    /// When `dst` does not hold exactly [`len`](Self::len) elements.
    pub fn scatter_into<T: DeviceScalar>(&self, dst: &mut [T]) {
        assert_eq!(dst.len(), self.len, "scatter target length");
        dst.fill(T::from_word(0));
        for (i, w) in self.cells() {
            dst[i] = T::from_word(w);
        }
    }

    /// XOR `mask` into cell `index` (a silent transfer flip): a zero cell
    /// joins the copy, and a cell the flip zeroes leaves it.
    pub(crate) fn flip(&mut self, index: usize, mask: u64) {
        debug_assert!(index < self.len && mask != 0);
        match self.index.binary_search(&(index as u32)) {
            Ok(k) => {
                self.words[k] ^= mask;
                if self.words[k] == 0 {
                    self.index.remove(k);
                    self.words.remove(k);
                }
            }
            Err(k) => {
                self.index.insert(k, index as u32);
                self.words.insert(k, mask);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_allocation(bytes: u64) -> Allocation {
        let alloc = Arc::new(Mutex::new(Allocator::new(1 << 20)));
        let addr = alloc.lock().alloc(bytes).unwrap();
        Allocation {
            addr,
            bytes,
            allocator: alloc,
        }
    }

    #[test]
    fn scalar_round_trips() {
        fn rt<T: DeviceScalar + PartialEq + std::fmt::Debug>(vals: &[T]) {
            for &v in vals {
                assert_eq!(T::from_word(v.to_word()), v);
            }
        }
        rt::<f64>(&[0.0, -1.5, std::f64::consts::PI, f64::MAX, 5e-324]);
        rt::<f32>(&[0.0, -2.5, f32::MAX]);
        rt::<u64>(&[0, u64::MAX]);
        rt::<u32>(&[0, u32::MAX]);
        rt::<i32>(&[i32::MIN, -1, 0, i32::MAX]);
        rt::<u16>(&[0, u16::MAX]);
        rt::<u8>(&[0, 255]);
    }

    #[test]
    fn negative_i32_survives_packing() {
        assert_eq!(i32::from_word((-123i32).to_word()), -123);
    }

    #[test]
    fn buffer_load_store() {
        let buf: DeviceBuffer<f64> = DeviceBuffer::new(8, test_allocation(64), 1);
        assert_eq!(buf.len(), 8);
        assert!(!buf.is_empty());
        assert_eq!(buf.modeled_bytes(), 64);
        buf.store(3, 2.5);
        assert_eq!(buf.load(3), 2.5);
        assert_eq!(buf.load(0), 0.0, "zero-initialised");
    }

    #[test]
    fn fresh_buffers_are_zero_and_copy_to_an_empty_payload() {
        let buf: DeviceBuffer<f64> = DeviceBuffer::new(1000, test_allocation(8000), 1);
        assert!((0..1000).all(|i| buf.load(i).to_bits() == 0));
        let copy = buf.nonzero_words().unwrap();
        assert_eq!((copy.len(), copy.nnz()), (1000, 0));
        buf.store(9, -0.0);
        buf.store(17, 1.0);
        let copy = buf.nonzero_words().unwrap();
        let cells: Vec<(usize, u64)> = copy.cells().collect();
        assert_eq!(
            cells,
            vec![(9, (-0.0f64).to_bits()), (17, 1.0f64.to_bits())]
        );
    }

    #[test]
    fn nonzero_copy_keeps_every_nonzero_bit_pattern() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let values = [0.0, -0.0, nan, 5e-324, 0.0, 2.5, 0.0];
        let copy = NonzeroWords::from_slice(&values).unwrap();
        assert_eq!(copy.len(), 7);
        assert_eq!(copy.indices(), &[1, 2, 3, 5]);
        let mut back = [9.0f64; 7];
        copy.scatter_into(&mut back);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn push_keeps_cells_ascending_in_range_and_nonzero() {
        let mut copy = NonzeroWords::zeros(4).unwrap();
        copy.push(1, 7).unwrap();
        assert!(copy.push(1, 8).is_err(), "repeated index");
        assert!(copy.push(0, 8).is_err(), "out of order");
        assert!(copy.push(4, 8).is_err(), "past the length");
        assert!(copy.push(2, 0).is_err(), "a zero word is implicit");
        copy.push(3, 9).unwrap();
        assert_eq!(copy.cells().collect::<Vec<_>>(), vec![(1, 7), (3, 9)]);
    }

    #[test]
    fn append_offsets_the_second_copy() {
        let mut a = NonzeroWords::from_slice(&[0u64, 5, 0]).unwrap();
        let b = NonzeroWords::from_slice(&[6u64, 0]).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.cells().collect::<Vec<_>>(), vec![(1, 5), (3, 6)]);
    }

    #[test]
    fn flip_adds_toggles_and_drops_cells() {
        let mut copy = NonzeroWords::from_slice(&[0u64, 0x80, 3]).unwrap();
        copy.flip(0, 0x80);
        copy.flip(1, 0x80);
        copy.flip(2, 0x8000);
        assert_eq!(
            copy.cells().collect::<Vec<_>>(),
            vec![(0, 0x80), (2, 0x8003)],
            "a flip that zeroes a cell removes it"
        );
    }

    #[test]
    fn cell_indices_never_truncate_silently() {
        let last = u32::MAX as usize;
        assert!(NonzeroWords::zeros(last + 1).is_ok(), "index u32::MAX fits");
        assert!(matches!(
            NonzeroWords::zeros(last + 2),
            Err(SimError::InvalidRequest(_))
        ));
        let mut near = NonzeroWords::zeros(last).unwrap();
        assert!(near.append(&NonzeroWords::zeros(2).unwrap()).is_err());
        assert_eq!(near.len(), last, "a refused append changes nothing");
    }

    #[test]
    fn poison_overwrites_every_element() {
        let buf: DeviceBuffer<f64> = DeviceBuffer::new(4, test_allocation(32), 1);
        buf.store(0, 1.0);
        buf.store(3, 4.0);
        buf.poison();
        let garbage = f64::from_bits(0xDEAD_BEEF_DEAD_BEEF);
        for i in 0..4 {
            assert_eq!(buf.load(i).to_bits(), garbage.to_bits());
        }
    }

    #[test]
    fn clone_aliases_same_memory() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::new(4, test_allocation(16), 1);
        let alias = buf.clone();
        buf.store(2, 99);
        assert_eq!(alias.load(2), 99);
    }

    #[test]
    fn drop_releases_allocation() {
        let alloc = Arc::new(Mutex::new(Allocator::new(1 << 20)));
        let addr = alloc.lock().alloc(64).unwrap();
        let allocation = Allocation {
            addr,
            bytes: 64,
            allocator: Arc::clone(&alloc),
        };
        let buf: DeviceBuffer<u8> = DeviceBuffer::new(64, allocation, 1);
        assert!(alloc.lock().used() > 0);
        let alias = buf.clone();
        drop(buf);
        assert!(alloc.lock().used() > 0, "alias keeps allocation live");
        drop(alias);
        assert_eq!(alloc.lock().used(), 0);
    }
}
