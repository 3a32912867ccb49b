//! Flat structure-of-arrays storage for the tagged TAGE components.
//!
//! The predictor used to store its tagged components as
//! `Vec<Vec<TaggedEntry>>` — one heap allocation per table, with tag,
//! prediction counter and useful counter interleaved per entry. The hot
//! lookup path only needs the *tags* (one compare per table), so the
//! interleaved layout dragged the counters through the cache on every probe.
//!
//! [`TageTables`] flattens all tables of a predictor into three contiguous
//! arrays — one per field — indexed by `offset[table] + entry`. Tables may
//! differ in size ([`crate::TageGeometry`] drives per-table entry counts);
//! each table's entry count is a power of two, and for the uniform
//! geometries of the paper's presets ([`crate::TageGeometry::uniform`]) the
//! per-table offsets reduce to the
//! historical `(table_rank << index_bits) | entry` layout bit for bit. A
//! whole-storage sweep (the periodic graceful useful-counter reset) is a
//! single linear pass over one array regardless of the shape.
//!
//! The layout is an exact bit-for-bit re-arrangement of the nested-`Vec`
//! storage: `tests/soa_parity.rs` pins equivalence against
//! [`crate::reference::ReferenceTagePredictor`], which retains the old
//! layout as an executable specification.

use tage_predictors::counter::{SignedCounter, UnsignedCounter};

use crate::entry::TaggedEntry;

/// All tagged components of one predictor in a flat structure-of-arrays
/// layout: three parallel arrays, one slot per entry of every table, with
/// per-table offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageTables {
    /// Partial tags, one `u16` per entry (the only array the lookup probes).
    tags: Box<[u16]>,
    /// Signed prediction counters.
    ctrs: Box<[SignedCounter]>,
    /// Unsigned useful counters.
    useful: Box<[UnsignedCounter]>,
    /// The flat starting offset of each table (prefix sums of the entry
    /// counts); the flat index of entry `idx` of table `t` is
    /// `offsets[t] + idx`.
    offsets: Box<[usize]>,
    /// Per-table log2 entry counts.
    index_bits: Box<[u32]>,
    /// Width of the prediction counters (kept for in-place [`TageTables::clear`]).
    counter_bits: u8,
    /// Width of the useful counters (kept for in-place [`TageTables::clear`]).
    useful_bits: u8,
}

impl TageTables {
    /// Creates one empty table of `1 << bits` entries per element of
    /// `index_bits`, with counters of the given widths (all entries start in
    /// the never-allocated state, exactly like [`TaggedEntry::new`]).
    pub fn new(index_bits: &[u32], counter_bits: u8, useful_bits: u8) -> Self {
        let mut offsets = Vec::with_capacity(index_bits.len());
        let mut total = 0usize;
        for &bits in index_bits {
            offsets.push(total);
            total += 1usize << bits;
        }
        TageTables {
            tags: vec![0u16; total].into_boxed_slice(),
            ctrs: vec![SignedCounter::new(counter_bits); total].into_boxed_slice(),
            useful: vec![UnsignedCounter::new(useful_bits); total].into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            index_bits: index_bits.to_vec().into_boxed_slice(),
            counter_bits,
            useful_bits,
        }
    }

    /// [`TageTables::new`] for `num_tables` equally sized tables — the
    /// uniform shape of the paper's presets ([`crate::TageGeometry::uniform`]).
    pub fn uniform(num_tables: usize, index_bits: u32, counter_bits: u8, useful_bits: u8) -> Self {
        TageTables::new(&vec![index_bits; num_tables], counter_bits, useful_bits)
    }

    /// Restores every entry to the never-allocated state in place, without
    /// touching the heap — bit-for-bit identical to a freshly constructed
    /// [`TageTables`] of the same shape.
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.ctrs.fill(SignedCounter::new(self.counter_bits));
        self.useful.fill(UnsignedCounter::new(self.useful_bits));
    }

    /// Number of tagged tables.
    #[inline]
    pub fn num_tables(&self) -> usize {
        self.offsets.len()
    }

    /// The raw parallel arrays (tags, prediction counters, useful counters)
    /// for snapshot serialization.
    pub(crate) fn raw_parts(&self) -> (&[u16], &[SignedCounter], &[UnsignedCounter]) {
        (&self.tags, &self.ctrs, &self.useful)
    }

    /// Mutable access to the raw parallel arrays for snapshot restore.
    pub(crate) fn raw_parts_mut(
        &mut self,
    ) -> (&mut [u16], &mut [SignedCounter], &mut [UnsignedCounter]) {
        (&mut self.tags, &mut self.ctrs, &mut self.useful)
    }

    /// Total entry count across all tables.
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.tags.len()
    }

    /// Number of entries of table `t`.
    #[inline]
    pub fn entries(&self, t: usize) -> usize {
        1usize << self.index_bits[t]
    }

    /// The flat array offset of entry `idx` of table `t`.
    #[inline]
    fn flat(&self, t: usize, idx: usize) -> usize {
        debug_assert!(t < self.num_tables());
        debug_assert!(idx < self.entries(t));
        self.offsets[t] + idx
    }

    /// The stored partial tag of entry `idx` of table `t`.
    #[inline]
    pub fn tag(&self, t: usize, idx: usize) -> u16 {
        self.tags[self.flat(t, idx)]
    }

    /// [`TageTables::tag`] without the flat-array bounds check, for the
    /// lane-batched probe loop where it is the only branch left.
    ///
    /// # Safety contract (checked in debug builds)
    ///
    /// `t` must be below [`TageTables::num_tables`] and `idx` below
    /// [`TageTables::entries`] of that table; the probe loop guarantees both
    /// by construction (`t` ranges over the table count and `idx` is hashed
    /// through the table's index mask).
    #[inline]
    #[allow(unsafe_code)]
    pub(crate) fn tag_unchecked(&self, t: usize, idx: usize) -> u16 {
        let flat = self.flat(t, idx);
        debug_assert!(flat < self.tags.len());
        // SAFETY: `flat` adds a masked index below the table's entry count
        // to the table's starting offset, and `tags` was sized to exactly
        // the sum of all per-table entry counts at construction.
        unsafe { *self.tags.get_unchecked(flat) }
    }

    /// The prediction counter of entry `idx` of table `t`.
    #[inline]
    pub fn ctr(&self, t: usize, idx: usize) -> SignedCounter {
        self.ctrs[self.flat(t, idx)]
    }

    /// Mutable access to the prediction counter of entry `idx` of table `t`.
    #[inline]
    pub fn ctr_mut(&mut self, t: usize, idx: usize) -> &mut SignedCounter {
        let flat = self.flat(t, idx);
        &mut self.ctrs[flat]
    }

    /// The useful counter of entry `idx` of table `t`.
    #[inline]
    pub fn useful(&self, t: usize, idx: usize) -> UnsignedCounter {
        self.useful[self.flat(t, idx)]
    }

    /// Mutable access to the useful counter of entry `idx` of table `t`.
    #[inline]
    pub fn useful_mut(&mut self, t: usize, idx: usize) -> &mut UnsignedCounter {
        let flat = self.flat(t, idx);
        &mut self.useful[flat]
    }

    /// Returns `true` if entry `idx` of table `t` may be reclaimed by the
    /// allocation policy (its useful counter is null).
    #[inline]
    pub fn is_allocatable(&self, t: usize, idx: usize) -> bool {
        self.useful[self.flat(t, idx)].is_zero()
    }

    /// Re-initialises entry `idx` of table `t` for a newly allocated
    /// (PC, history) pair, mirroring [`TaggedEntry::allocate`]: weak-correct
    /// counter, zero useful counter.
    #[inline]
    pub fn allocate(&mut self, t: usize, idx: usize, tag: u16, taken: bool) {
        let flat = self.flat(t, idx);
        self.tags[flat] = tag;
        self.ctrs[flat].set_weak(taken);
        self.useful[flat].reset();
    }

    /// One step of the graceful useful-counter reset: clears bit `phase` of
    /// every useful counter, across all tables, in a single linear pass.
    pub fn clear_useful_bit(&mut self, phase: u8) {
        for counter in self.useful.iter_mut() {
            counter.clear_bit(phase);
        }
    }

    /// Hints the CPU to pull the cache line holding the tag of entry `idx`
    /// of table `t` into cache ahead of the actual probe.
    ///
    /// This is a pure scheduling hint: it never changes architectural state,
    /// and it compiles to nothing on targets without a prefetch intrinsic.
    #[inline]
    pub fn prefetch_tag(&self, t: usize, idx: usize) {
        let flat = self.flat(t, idx);
        prefetch(core::ptr::addr_of!(self.tags[flat]).cast());
    }

    /// Hints the CPU to pull the cache lines holding the prediction and
    /// useful counters of entry `idx` of table `t` ahead of an update.
    #[inline]
    pub fn prefetch_counters(&self, t: usize, idx: usize) {
        let flat = self.flat(t, idx);
        prefetch(core::ptr::addr_of!(self.ctrs[flat]).cast());
        prefetch(core::ptr::addr_of!(self.useful[flat]).cast());
    }

    /// A by-value [`TaggedEntry`] view of entry `idx` of table `t`, for
    /// diagnostics and tests (the storage itself never materialises
    /// entries).
    pub fn entry(&self, t: usize, idx: usize) -> TaggedEntry {
        let flat = self.flat(t, idx);
        TaggedEntry {
            tag: self.tags[flat],
            ctr: self.ctrs[flat],
            useful: self.useful[flat],
        }
    }
}

/// Issues a read prefetch for the cache line containing `ptr`.
///
/// Prefetching cannot fault and never changes architectural state — the
/// intrinsic is a scheduling hint only — so this helper is the one place
/// the crate permits `unsafe` (the crate is otherwise `deny(unsafe_code)`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn prefetch(ptr: *const u8) {
    use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    unsafe { _mm_prefetch::<_MM_HINT_T0>(ptr.cast()) }
}

/// Portable fallback: no prefetch hint available, do nothing.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn prefetch(_ptr: *const u8) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tables_match_fresh_entries() {
        let tables = TageTables::uniform(4, 8, 3, 2);
        assert_eq!(tables.num_tables(), 4);
        assert_eq!(tables.entries(0), 256);
        assert_eq!(tables.total_entries(), 4 * 256);
        let reference = TaggedEntry::new(3, 2);
        for t in 0..4 {
            for idx in [0usize, 1, 128, 255] {
                assert_eq!(tables.entry(t, idx), reference);
                assert!(tables.is_allocatable(t, idx));
            }
        }
    }

    #[test]
    fn ragged_tables_have_independent_shapes() {
        let tables = TageTables::new(&[6, 8, 4], 3, 2);
        assert_eq!(tables.num_tables(), 3);
        assert_eq!(tables.entries(0), 64);
        assert_eq!(tables.entries(1), 256);
        assert_eq!(tables.entries(2), 16);
        assert_eq!(tables.total_entries(), 64 + 256 + 16);
    }

    #[test]
    fn ragged_mutation_does_not_bleed_across_table_boundaries() {
        let mut tables = TageTables::new(&[4, 6, 4], 3, 2);
        // Last entry of table 0 and first entry of table 1 are flat
        // neighbours; mutate both and check isolation.
        tables.allocate(0, 15, 0xAB, true);
        tables.useful_mut(1, 0).increment();
        assert_eq!(tables.tag(0, 15), 0xAB);
        assert_eq!(tables.tag(1, 0), 0);
        assert!(!tables.is_allocatable(1, 0));
        assert!(tables.useful(0, 15).is_zero(), "allocate resets u to 0");
        // Last entry of table 1 borders first of table 2.
        tables.allocate(1, 63, 0x3C, false);
        assert_eq!(tables.tag(2, 0), 0);
        assert_eq!(tables.tag(1, 63), 0x3C);
    }

    #[test]
    fn allocate_mirrors_tagged_entry_allocate() {
        let mut tables = TageTables::uniform(2, 4, 3, 2);
        let mut reference = TaggedEntry::new(3, 2);
        tables.allocate(1, 7, 0x1ab, true);
        reference.allocate(0x1ab, true);
        assert_eq!(tables.entry(1, 7), reference);
        // Entries in other tables at the same index are untouched.
        assert_eq!(tables.entry(0, 7), TaggedEntry::new(3, 2));
        assert_eq!(tables.tag(1, 7), 0x1ab);
        assert!(tables.ctr(1, 7).predict_taken());
    }

    #[test]
    fn useful_mutation_is_per_entry() {
        let mut tables = TageTables::uniform(2, 4, 3, 2);
        tables.useful_mut(0, 3).increment();
        assert!(!tables.is_allocatable(0, 3));
        assert!(tables.is_allocatable(0, 4));
        assert!(tables.is_allocatable(1, 3));
        assert_eq!(tables.useful(0, 3).value(), 1);
    }

    #[test]
    fn clear_useful_bit_sweeps_every_table() {
        let mut tables = TageTables::new(&[4, 5, 4], 3, 2);
        for t in 0..3 {
            for idx in 0..16 {
                tables.useful_mut(t, idx).increment();
            }
        }
        tables.clear_useful_bit(0);
        for t in 0..3 {
            for idx in 0..16 {
                assert!(tables.is_allocatable(t, idx), "t={t} idx={idx}");
            }
        }
    }

    #[test]
    fn clear_restores_the_freshly_constructed_state() {
        let mut tables = TageTables::new(&[4, 6, 4], 3, 2);
        tables.allocate(1, 7, 0x2b, true);
        tables.useful_mut(2, 9).increment();
        tables.ctr_mut(0, 5).increment();
        tables.clear();
        assert_eq!(tables, TageTables::new(&[4, 6, 4], 3, 2));
    }

    #[test]
    fn prefetch_hints_are_pure() {
        let tables = TageTables::uniform(2, 4, 3, 2);
        let before = tables.clone();
        tables.prefetch_tag(1, 3);
        tables.prefetch_counters(0, 15);
        assert_eq!(tables, before);
    }

    #[test]
    fn ctr_mut_updates_only_the_target() {
        let mut tables = TageTables::uniform(2, 4, 3, 2);
        tables.ctr_mut(1, 2).increment();
        assert_eq!(tables.ctr(1, 2).value(), 0);
        assert_eq!(tables.ctr(0, 2).value(), -1);
    }
}
