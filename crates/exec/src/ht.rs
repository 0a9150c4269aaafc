//! Lock-free tagged hash table (paper Section 4.2, Figure 7).
//!
//! A chaining hash table whose directory words pack a 48-bit entry handle
//! with a 16-bit tag filter: every element of a bucket's chain sets one of
//! the 16 tag bits (derived from its hash), so a selective probe usually
//! needs exactly one cache miss — if the probe key's tag bit is clear, the
//! chain cannot contain it and traversal is skipped. Handle and tag are
//! updated together by a single compare-and-swap.
//!
//! Deviation noted in DESIGN.md: the paper stores raw 48-bit pointers; we
//! store 48-bit *handles* (1-based entry indexes) into a pre-allocated
//! entry store — identical bit layout and CAS protocol, but memory-safe.
//! Entries reference build tuples as `(area, row)` pairs into the frozen
//! build-side [`morsel_storage::AreaSet`], which is exactly the paper's
//! "insert pointers to its tuples" design.
//!
//! The table is insert-only, and lookups only begin after all inserts are
//! complete (enforced by the pipeline boundary); this is what makes the
//! low-cost synchronization sufficient.

use std::sync::atomic::{AtomicU64, Ordering};

use morsel_numa::{Residency, DEFAULT_STRIPE};

const HANDLE_BITS: u32 = 48;
const HANDLE_MASK: u64 = (1 << HANDLE_BITS) - 1;
const TAG_MASK: u64 = !HANDLE_MASK;

/// Tag bit for a hash: one of the 16 high bits.
#[inline]
fn tag_bit(hash: u64) -> u64 {
    1 << (HANDLE_BITS + ((hash >> 28) & 15) as u32)
}

/// `n` zeroed atomics straight from the allocator (`calloc`): the pages
/// are not touched here, so the workers whose inserts first write them
/// fault them in, in parallel, instead of one worker doing it inside
/// `Stage::build` while the others idle.
fn zeroed_atomics(n: usize) -> Vec<AtomicU64> {
    const _: () = assert!(
        std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
            && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
    );
    let mut words = std::mem::ManuallyDrop::new(vec![0u64; n]);
    // SAFETY: `AtomicU64` has the size and bit validity of `u64` (std's
    // documented guarantee) and, by the assertion above, its alignment
    // on this target, so the buffer keeps the layout it was allocated
    // with. `ManuallyDrop` hands its ownership to the new `Vec`, which
    // is the only one to free it.
    unsafe {
        Vec::from_raw_parts(
            words.as_mut_ptr().cast::<AtomicU64>(),
            words.len(),
            words.capacity(),
        )
    }
}

/// The lock-free tagged hash table.
pub struct TaggedHashTable {
    directory: Vec<AtomicU64>,
    /// `slot = hash >> shift`.
    shift: u32,
    /// Hash of each entry (indexed by handle-1).
    hashes: Vec<AtomicU64>,
    /// Next handle in chain (0 = end).
    nexts: Vec<AtomicU64>,
    /// Entries are laid out area-major: area `a` owns the entry indexes
    /// `bases[a]..bases[a + 1]`, so an entry's `(area, row)` follows from
    /// these prefix sums (one element more than there are areas) and no
    /// per-entry location is stored.
    bases: Vec<usize>,
    /// Early-filtering enabled? (ablation knob; the paper always tags).
    tagging: bool,
    /// Simulated placement of the directory: interleaved across all nodes
    /// (Section 2: the global table "is interleaved (spread) across all
    /// sockets" to avoid contention).
    residency: Residency,
}

impl TaggedHashTable {
    /// Allocate a perfectly sized table for `area_rows[i]` tuples per
    /// build area. Capacity is the next power of two of at least twice
    /// the input size (Section 4.2: "sized quite generously to at least
    /// twice the size of the input").
    pub fn new(area_rows: &[usize], sockets: u16) -> Self {
        Self::with_tagging(area_rows, sockets, true)
    }

    pub fn with_tagging(area_rows: &[usize], sockets: u16, tagging: bool) -> Self {
        // Candidate lists store the area and the row of a match as u32 —
        // enforce both bounds here (in release too) so they can never
        // truncate.
        assert!(
            area_rows.len() <= 1 << 8,
            "too many areas for 8-bit area index"
        );
        let mut bases = Vec::with_capacity(area_rows.len() + 1);
        let mut n = 0usize;
        bases.push(0);
        for &rows in area_rows {
            assert!(
                rows <= u32::MAX as usize,
                "area too large for 32-bit row index"
            );
            n += rows;
            bases.push(n);
        }
        let cap = (2 * n).next_power_of_two().max(16);
        TaggedHashTable {
            directory: zeroed_atomics(cap),
            shift: 64 - cap.trailing_zeros(),
            hashes: zeroed_atomics(n),
            nexts: zeroed_atomics(n),
            bases,
            tagging,
            residency: Residency::Interleaved {
                sockets,
                stripe: DEFAULT_STRIPE,
            },
        }
    }

    /// Estimated allocation footprint of a table over `rows` build-side
    /// tuples: the directory (8 B/slot, sized to the next power of two
    /// of at least twice the input) plus per-entry hash and next-pointer.
    /// Used to charge the owning query's memory budget *before* the
    /// build pipeline allocates.
    pub fn estimate_bytes(rows: usize) -> u64 {
        let cap = (2 * rows).next_power_of_two().max(16) as u64;
        8 * cap + 16 * rows as u64
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Directory capacity (slots).
    pub fn capacity(&self) -> usize {
        self.directory.len()
    }

    /// Total simulated bytes of the directory (for traffic accounting).
    pub fn directory_bytes(&self) -> u64 {
        8 * self.directory.len() as u64
    }

    /// Simulated residency of the directory (interleaved).
    pub fn residency(&self) -> &Residency {
        &self.residency
    }

    /// Global entry index for `(area, row)` — the handle minus one.
    #[inline]
    pub fn entry_index(&self, area: usize, row: usize) -> usize {
        debug_assert!(row < self.bases[area + 1] - self.bases[area]);
        self.bases[area] + row
    }

    /// Tuple location of entry `idx`: the last area whose base is at or
    /// below it (empty areas share their successor's base and are skipped).
    #[inline]
    pub fn loc(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx < self.len());
        let area = self.bases.partition_point(|&b| b <= idx) - 1;
        (area, idx - self.bases[area])
    }

    /// Insert entry `idx` (pre-assigned to a build tuple) with `hash`.
    /// Lock-free CAS loop, Figure 7 of the paper.
    pub fn insert(&self, idx: usize, hash: u64) {
        let slot = (hash >> self.shift) as usize;
        let handle = idx as u64 + 1;
        debug_assert!(handle <= HANDLE_MASK);
        self.hashes[idx].store(hash, Ordering::Relaxed);
        let mut old = self.directory[slot].load(Ordering::Acquire);
        loop {
            // Set next to the old entry, without the tag.
            self.nexts[idx].store(old & HANDLE_MASK, Ordering::Release);
            // Add old and new tag.
            let new = (old & TAG_MASK) | tag_bit(hash) | handle;
            match self.directory[slot].compare_exchange_weak(
                old,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => old = actual,
            }
        }
    }

    /// One hash at a time, no batching: what [`Self::probe_batch`] is
    /// tested against. Visits every chained entry whose stored hash equals
    /// `hash` and returns the chain links traversed.
    #[cfg(test)]
    pub fn probe<F: FnMut(usize)>(&self, hash: u64, mut on_candidate: F) -> u32 {
        let slot = (hash >> self.shift) as usize;
        let word = self.directory[slot].load(Ordering::Acquire);
        if self.tagging && word & tag_bit(hash) == 0 {
            return 0;
        }
        let mut handle = word & HANDLE_MASK;
        let mut travers = 0;
        while handle != 0 {
            let idx = (handle - 1) as usize;
            travers += 1;
            if self.hashes[idx].load(Ordering::Relaxed) == hash {
                on_candidate(idx);
            }
            handle = self.nexts[idx].load(Ordering::Acquire);
        }
        travers
    }

    /// Probe for a whole hash vector. Pass 1 loads one directory word per
    /// hash and applies the tag filter: it writes `(row, handle)` at a
    /// cursor that advances by whether the word can hold the key, so the
    /// loop has no dependent loads between rows (the misses overlap) and
    /// no data-dependent branch (a selective probe mispredicts nothing).
    /// Pass 2 chain-walks only the survivors, invoking
    /// `on_candidate(i, entry)` for every entry whose stored hash matches
    /// `hashes[i]`. Candidates arrive by ascending `i`, each row's in chain
    /// order. Returns the chain links traversed (cost accounting); the tag
    /// filter makes that 0 for most selective misses.
    // `#[inline]` folds this into its one caller, `ProbeOp::apply`,
    // whichever codegen units the two land in. Left to the partitioning
    // it once went out of line, a 16 KiB survivor block on every call's
    // frame, and `analytic_warm` ran ~3 % slower on a 2-core host.
    #[inline]
    pub fn probe_batch<F: FnMut(u32, usize)>(&self, hashes: &[u64], mut on_candidate: F) -> u64 {
        // With tagging off every non-empty slot passes: its handle bits
        // join the tag bit in the test.
        let untagged = if self.tagging { 0 } else { HANDLE_MASK };
        // The two passes alternate over blocks of rows: long enough for
        // the directory misses of a block to overlap, short enough for its
        // survivor list to stay in L1.
        const BLOCK: usize = 1024;
        let mut pending = [(0u32, 0u64); BLOCK];
        let mut traversed = 0u64;
        for (b, block) in hashes.chunks(BLOCK).enumerate() {
            let mut k = 0;
            for (j, &h) in block.iter().enumerate() {
                let word = self.directory[(h >> self.shift) as usize].load(Ordering::Acquire);
                pending[k] = ((b * BLOCK + j) as u32, word & HANDLE_MASK);
                k += usize::from(word & (tag_bit(h) | untagged) != 0);
            }
            for &(i, mut handle) in &pending[..k] {
                let h = hashes[i as usize];
                while handle != 0 {
                    let idx = (handle - 1) as usize;
                    traversed += 1;
                    if self.hashes[idx].load(Ordering::Relaxed) == h {
                        on_candidate(i, idx);
                    }
                    handle = self.nexts[idx].load(Ordering::Acquire);
                }
            }
        }
        traversed
    }

    #[cfg(test)]
    pub fn probe_key_i64(&self, key: i64) -> Vec<usize> {
        let mut out = Vec::new();
        self.probe(morsel_storage::hash64(key as u64), |idx| out.push(idx));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_storage::hash64;
    use std::sync::Arc;

    /// Build a table over one area of n sequential keys (key = row index).
    fn build_seq(n: usize, tagging: bool) -> TaggedHashTable {
        let ht = TaggedHashTable::with_tagging(&[n], 4, tagging);
        for row in 0..n {
            ht.insert(row, hash64(row as u64));
        }
        ht
    }

    #[test]
    fn perfectly_sized_capacity() {
        let ht = TaggedHashTable::new(&[1000], 4);
        assert_eq!(ht.len(), 1000);
        assert!(ht.capacity() >= 2000);
        assert!(ht.capacity() <= 4096);
        assert!(ht.capacity().is_power_of_two());
    }

    #[test]
    fn empty_table_probes_cleanly() {
        let ht = TaggedHashTable::new(&[], 4);
        assert!(ht.is_empty());
        assert_eq!(ht.capacity(), 16);
        assert!(ht.probe_key_i64(42).is_empty());
    }

    #[test]
    fn insert_then_probe_finds_every_key() {
        let ht = build_seq(10_000, true);
        for k in 0..10_000i64 {
            let found = ht.probe_key_i64(k);
            assert_eq!(found.len(), 1, "key {k}");
            assert_eq!(ht.loc(found[0]), (0, k as usize));
        }
    }

    #[test]
    fn misses_are_not_found() {
        let ht = build_seq(1000, true);
        for k in 1000..2000i64 {
            assert!(ht.probe_key_i64(k).is_empty(), "phantom match for {k}");
        }
    }

    #[test]
    fn tag_filter_skips_most_miss_traversals() {
        let ht_tagged = build_seq(100_000, true);
        let ht_plain = build_seq(100_000, false);
        let mut traversed_tagged = 0u32;
        let mut traversed_plain = 0u32;
        for k in 100_000..200_000u64 {
            traversed_tagged += ht_tagged.probe(hash64(k), |_| {});
            traversed_plain += ht_plain.probe(hash64(k), |_| {});
        }
        assert!(
            traversed_tagged * 2 < traversed_plain,
            "tagging saved too little: {traversed_tagged} vs {traversed_plain}"
        );
    }

    #[test]
    fn probe_batch_matches_scalar_probe() {
        // 3 000 entries over 600 distinct keys, one of them with a chain of
        // 60 duplicates; the directory is sized to at least twice the
        // entries, so well over 30 % of its slots stay empty. Probed with
        // hits, misses and repeats, tagging on and off: the batched pass
        // must report the candidates of the per-row probe, in its order,
        // and traverse as many links.
        let n = 3_000usize;
        let key = |row: usize| if row < 60 { 7 } else { (row % 600) as u64 };
        for tagging in [true, false] {
            let ht = TaggedHashTable::with_tagging(&[n], 4, tagging);
            for row in 0..n {
                ht.insert(row, hash64(key(row)));
            }
            let used: std::collections::HashSet<usize> = (0..n)
                .map(|r| (hash64(key(r)) >> ht.shift) as usize)
                .collect();
            assert!(used.len() * 10 <= ht.capacity() * 7, "under 30 % empty");
            let hashes: Vec<u64> = (0..4_000u64).map(|i| hash64(i % 1_500)).collect();
            let mut batched: Vec<(u32, usize)> = Vec::new();
            let traversed = ht.probe_batch(&hashes, |i, idx| batched.push((i, idx)));
            let mut scalar: Vec<(u32, usize)> = Vec::new();
            let mut scalar_traversed = 0u64;
            for (i, &h) in hashes.iter().enumerate() {
                scalar_traversed += u64::from(ht.probe(h, |idx| scalar.push((i as u32, idx))));
            }
            assert_eq!(batched, scalar, "tagging {tagging}");
            assert_eq!(traversed, scalar_traversed, "tagging {tagging}");
            let sevens = batched.iter().filter(|(i, _)| *i == 7).count();
            assert!(sevens >= 60, "key 7 chains {sevens} duplicates");
        }
    }

    #[test]
    fn duplicate_keys_chain() {
        let ht = TaggedHashTable::new(&[100], 4);
        // All 100 entries share one key.
        for row in 0..100 {
            ht.insert(row, hash64(7));
        }
        let mut found = ht.probe_key_i64(7);
        found.sort_unstable();
        assert_eq!(found, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn multi_area_locations() {
        let ht = TaggedHashTable::new(&[10, 20, 5], 4);
        assert_eq!(ht.len(), 35);
        assert_eq!(ht.loc(0), (0, 0));
        assert_eq!(ht.loc(9), (0, 9));
        assert_eq!(ht.loc(10), (1, 0));
        assert_eq!(ht.loc(30), (2, 0));
        assert_eq!(ht.entry_index(1, 5), 15);
        assert_eq!(ht.entry_index(2, 4), 34);
    }

    #[test]
    fn locations_skip_empty_areas() {
        let ht = TaggedHashTable::new(&[0, 3, 0, 0, 2, 0], 4);
        assert_eq!(ht.len(), 5);
        let locs: Vec<(usize, usize)> = (0..5).map(|i| ht.loc(i)).collect();
        assert_eq!(locs, vec![(1, 0), (1, 1), (1, 2), (4, 0), (4, 1)]);
        for (idx, &(a, r)) in locs.iter().enumerate() {
            assert_eq!(ht.entry_index(a, r), idx);
        }
    }

    #[test]
    fn footprint_estimate_covers_the_allocation() {
        for n in [0usize, 1, 100, 379_016] {
            let ht = TaggedHashTable::new(&[n], 4);
            let allocated = 8 * (ht.directory.len() + ht.hashes.len() + ht.nexts.len());
            let estimate = TaggedHashTable::estimate_bytes(n) as usize;
            assert_eq!(estimate, allocated, "{n}");
        }
    }

    #[test]
    fn concurrent_insert_is_lossless() {
        let n = 80_000usize;
        let threads = 8;
        let ht = Arc::new(TaggedHashTable::new(&[n], 4));
        std::thread::scope(|s| {
            for t in 0..threads {
                let ht = Arc::clone(&ht);
                s.spawn(move || {
                    let per = n / threads;
                    for row in t * per..(t + 1) * per {
                        ht.insert(row, hash64((row % 1000) as u64));
                    }
                });
            }
        });
        // Every key 0..1000 occurs exactly n/1000 times.
        for k in 0..1000i64 {
            assert_eq!(ht.probe_key_i64(k).len(), n / 1000, "key {k}");
        }
    }

    #[test]
    fn directory_is_interleaved() {
        let ht = TaggedHashTable::new(&[1 << 20], 4);
        // With a 2MB stripe and a 2^21-slot (16MB) directory, all four
        // nodes hold part of it.
        let nodes: std::collections::HashSet<u16> = (0..ht.capacity())
            .step_by(1024)
            .map(|s| ht.residency().node_at(s * 8).0)
            .collect();
        assert_eq!(nodes.len(), 4);
        assert!(ht.directory_bytes() >= (1 << 20) * 2 * 8);
    }
}
