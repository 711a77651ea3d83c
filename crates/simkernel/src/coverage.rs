//! kcov-style coverage collection.
//!
//! Real kcov records the program counters of basic blocks executed by the
//! current task. Our drivers instead *emit* block identifiers derived from
//! their internal state (see [`crate::driver::DriverCtx::hit`]): every
//! distinct `(driver, operation, state fingerprint)` combination maps to a
//! stable [`Block`] inside the driver's reserved identifier region. Distinct
//! deep states therefore reveal distinct blocks, which is what makes coverage
//! a proxy for driver state exploration.
//!
//! [`CoverageMap`] stores covered blocks as paged bitmaps: a sorted map from
//! `block >> 16` to a 65536-bit page, so one page spans exactly one
//! [`DRIVER_REGION`]. Inserts and membership tests are shift/mask operations
//! instead of hashing, set algebra (union, difference, popcount) runs over
//! `u64` words in fixed-size chunks the compiler autovectorizes, and
//! iteration is sorted ascending. The word kernels are exported for reuse by
//! other bitmap layers (the fuzzer's signal pages use the same routines).

use std::collections::BTreeMap;
use std::fmt;

/// A coverage basic-block identifier (the simulated analogue of a kernel
/// code address recorded by kcov).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Block(pub u64);

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl fmt::LowerHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Size of the block-identifier region reserved for each driver.
///
/// Real vendor drivers contain thousands to tens of thousands of basic
/// blocks; a 16-bit region per driver keeps totals in the same order of
/// magnitude as the paper's per-device kcov figures once several drivers are
/// registered.
pub const DRIVER_REGION: u64 = 1 << 16;

/// Deterministic 64-bit mixer (splitmix64 finalizer) used to fingerprint
/// driver state into a block offset.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Computes the block for `parts` within the region starting at `base`.
///
/// The same `(base, parts)` always maps to the same block, so coverage is
/// reproducible across runs and across device reboots.
pub fn block_for(base: u64, parts: &[u64]) -> Block {
    block_for_chunks(base, &[parts])
}

/// [`block_for`] of the concatenation of `chunks`, without building it:
/// lets a caller prefix or suffix a fingerprint with no buffer.
pub fn block_for_chunks(base: u64, chunks: &[&[u64]]) -> Block {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &p in chunks.iter().copied().flatten() {
        acc = mix64(acc ^ p);
    }
    Block(base + acc % DRIVER_REGION)
}

// ---------------------------------------------------------------------------
// Word kernels
//
// All bitmap set algebra in the workspace funnels through these three
// routines. They process fixed 8-word (512-bit) chunks with a plain inner
// loop — the shape LLVM autovectorizes — and fall back to a scalar tail for
// slices whose length is not a multiple of 8.
// ---------------------------------------------------------------------------

const WORD_CHUNK: usize = 8;

/// Total population count over `words`.
#[inline]
pub fn words_popcount(words: &[u64]) -> u64 {
    let mut total = 0u64;
    let chunks = words.chunks_exact(WORD_CHUNK);
    let tail = chunks.remainder();
    for chunk in chunks {
        let mut t = 0u64;
        for &w in chunk {
            t += u64::from(w.count_ones());
        }
        total += t;
    }
    for &w in tail {
        total += u64::from(w.count_ones());
    }
    total
}

/// Unions `src` into `dst` word-wise, returning how many bits were newly
/// set. Both slices must have the same length.
#[inline]
pub fn words_union_count(dst: &mut [u64], src: &[u64]) -> u64 {
    assert_eq!(dst.len(), src.len(), "word slices must match");
    let mut new = 0u64;
    let n = dst.len() / WORD_CHUNK * WORD_CHUNK;
    let (dst_head, dst_tail) = dst.split_at_mut(n);
    let (src_head, src_tail) = src.split_at(n);
    for (dc, sc) in dst_head
        .chunks_exact_mut(WORD_CHUNK)
        .zip(src_head.chunks_exact(WORD_CHUNK))
    {
        for k in 0..WORD_CHUNK {
            new += u64::from((sc[k] & !dc[k]).count_ones());
            dc[k] |= sc[k];
        }
    }
    for (d, &s) in dst_tail.iter_mut().zip(src_tail) {
        new += u64::from((s & !*d).count_ones());
        *d |= s;
    }
    new
}

/// Calls `f(word_index, new_mask)` for every word where `cov` carries bits
/// that `seen` lacks. The AND-NOT scan runs over fixed 8-word chunks and
/// `f` only fires on words that actually hold new bits, so the common
/// nothing-new case is a pure vector sweep. Both slices must have the same
/// length.
#[inline]
pub fn words_new_bits<F: FnMut(usize, u64)>(cov: &[u64], seen: &[u64], mut f: F) {
    assert_eq!(cov.len(), seen.len(), "word slices must match");
    let n = cov.len() / WORD_CHUNK * WORD_CHUNK;
    let mut idx = 0;
    while idx < n {
        let c = &cov[idx..idx + WORD_CHUNK];
        let s = &seen[idx..idx + WORD_CHUNK];
        let mut any = 0u64;
        for k in 0..WORD_CHUNK {
            any |= c[k] & !s[k];
        }
        if any != 0 {
            for k in 0..WORD_CHUNK {
                let new = c[k] & !s[k];
                if new != 0 {
                    f(idx + k, new);
                }
            }
        }
        idx += WORD_CHUNK;
    }
    for k in n..cov.len() {
        let new = cov[k] & !seen[k];
        if new != 0 {
            f(k, new);
        }
    }
}

/// A per-task kcov buffer: collects the blocks executed while enabled.
///
/// Mirrors the `KCOV_ENABLE`/`KCOV_DISABLE` usage pattern: the fuzzer
/// enables collection around each test-case execution and drains the buffer
/// afterwards.
#[derive(Debug, Clone, Default)]
pub struct KcovBuffer {
    enabled: bool,
    blocks: Vec<Block>,
}

impl KcovBuffer {
    /// Creates a disabled, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts collecting coverage; clears any previous contents.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.blocks.clear();
    }

    /// Stops collecting and returns the ordered list of blocks hit since
    /// [`enable`](Self::enable) (duplicates preserved, as with real kcov).
    pub fn disable(&mut self) -> Vec<Block> {
        self.enabled = false;
        std::mem::take(&mut self.blocks)
    }

    /// Stops collecting and appends the buffered blocks to `out`, keeping
    /// this buffer's allocation for the next enable/disable cycle. The
    /// reuse-friendly form of [`disable`](Self::disable).
    pub fn disable_into(&mut self, out: &mut Vec<Block>) {
        self.enabled = false;
        out.append(&mut self.blocks);
    }

    /// Stops collecting and drops the buffered blocks, keeping the
    /// allocation for whoever reuses this buffer next.
    pub fn reset(&mut self) {
        self.enabled = false;
        self.blocks.clear();
    }

    /// Whether the buffer is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a block if collection is enabled.
    pub fn record(&mut self, block: Block) {
        if self.enabled {
            self.blocks.push(block);
        }
    }

    /// Number of blocks currently buffered.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the buffer holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Number of block identifiers spanned by one coverage page.
pub const COV_PAGE_BLOCKS: u64 = DRIVER_REGION;

/// Right-shift that maps a block identifier to its page key.
pub const COV_PAGE_SHIFT: u32 = COV_PAGE_BLOCKS.trailing_zeros();

/// `u64` words per coverage page.
pub const COV_PAGE_WORDS: usize = (COV_PAGE_BLOCKS / 64) as usize;

static ZERO_PAGE: [u64; COV_PAGE_WORDS] = [0; COV_PAGE_WORDS];

/// One 65536-bit page of a [`CoverageMap`]: the blocks covered inside a
/// single `DRIVER_REGION`-sized identifier window, plus a maintained live
/// count so "did this page change?" is an integer compare.
#[derive(Clone)]
pub struct CovPage {
    bits: [u64; COV_PAGE_WORDS],
    live: u32,
}

impl CovPage {
    fn empty() -> Box<Self> {
        Box::new(Self {
            bits: [0; COV_PAGE_WORDS],
            live: 0,
        })
    }

    #[inline]
    fn set(&mut self, slot: u64) -> bool {
        let word = (slot >> 6) as usize;
        let mask = 1u64 << (slot & 63);
        let prev = self.bits[word];
        self.bits[word] = prev | mask;
        let new = prev & mask == 0;
        self.live += u32::from(new);
        new
    }

    #[inline]
    fn get(&self, slot: u64) -> bool {
        self.bits[(slot >> 6) as usize] & (1u64 << (slot & 63)) != 0
    }

    /// Number of covered blocks in this page.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// Appends every block present in `self` but absent from `base` to
    /// `out`, in ascending identifier order. `None` means "diff against
    /// the empty page". Block identifiers are reconstructed against
    /// `page_base` (the first identifier the page spans).
    pub fn diff_into(&self, base: Option<&CovPage>, page_base: u64, out: &mut Vec<Block>) {
        let seen = base.map_or(&ZERO_PAGE, |p| &p.bits);
        words_new_bits(&self.bits, seen, |word, mut mask| {
            let word_base = page_base + (word as u64) * 64;
            while mask != 0 {
                out.push(Block(word_base + u64::from(mask.trailing_zeros())));
                mask &= mask - 1;
            }
        });
    }

    /// Unions `other` into `self`, returning how many blocks were new.
    fn union_from(&mut self, other: &CovPage) -> u64 {
        let new = words_union_count(&mut self.bits, &other.bits);
        self.live += new as u32;
        new
    }

    /// Counts covered blocks with slot in the half-open range `[lo, hi)`,
    /// `hi <= COV_PAGE_BLOCKS`.
    fn count_range(&self, lo: u64, hi: u64) -> usize {
        if lo >= hi {
            return 0;
        }
        if lo == 0 && hi == COV_PAGE_BLOCKS {
            return self.live as usize;
        }
        let mask_from = |bit: u64| !0u64 << bit;
        let mask_below = |bit: u64| {
            if bit == 0 {
                0
            } else {
                !0u64 >> (64 - bit)
            }
        };
        let (lw, lb) = ((lo >> 6) as usize, lo & 63);
        let (hw, hb) = ((hi >> 6) as usize, hi & 63);
        if lw == hw {
            return (self.bits[lw] & mask_from(lb) & mask_below(hb)).count_ones() as usize;
        }
        let mut total = (self.bits[lw] & mask_from(lb)).count_ones() as u64;
        total += words_popcount(&self.bits[lw + 1..hw]);
        if hb != 0 {
            total += u64::from((self.bits[hw] & mask_below(hb)).count_ones());
        }
        total as usize
    }
}

impl fmt::Debug for CovPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CovPage").field("live", &self.live).finish()
    }
}

/// An accumulated set of covered blocks, used by fuzzers to track global
/// progress (`Kernel` also keeps one per boot).
///
/// Stored as sorted 65536-bit pages keyed by `block >> 16`: inserts and
/// lookups are shift/mask operations, bulk union and difference run over
/// the word kernels, and [`iter`](Self::iter) yields blocks in ascending
/// identifier order.
#[derive(Clone, Default)]
pub struct CoverageMap {
    pages: BTreeMap<u64, Box<CovPage>>,
    total: usize,
}

impl CoverageMap {
    /// Creates an empty coverage map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a block; returns `true` when it was not previously covered.
    #[inline]
    pub fn insert(&mut self, block: Block) -> bool {
        let page = self
            .pages
            .entry(block.0 >> COV_PAGE_SHIFT)
            .or_insert_with(CovPage::empty);
        let new = page.set(block.0 & (COV_PAGE_BLOCKS - 1));
        self.total += usize::from(new);
        new
    }

    /// Merges `blocks`, returning how many were new.
    pub fn merge<I: IntoIterator<Item = Block>>(&mut self, blocks: I) -> usize {
        blocks.into_iter().filter(|b| self.insert(*b)).count()
    }

    /// Unions an entire map into `self` page-wise (word-level, no per-block
    /// work), returning how many blocks were new.
    pub fn union_from(&mut self, other: &CoverageMap) -> usize {
        let mut new = 0u64;
        for (&key, src) in &other.pages {
            match self.pages.entry(key) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    new += e.get_mut().union_from(src);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    new += u64::from(src.live);
                    e.insert(src.clone());
                }
            }
        }
        self.total += new as usize;
        new as usize
    }

    /// Whether `block` has been covered.
    #[inline]
    pub fn contains(&self, block: Block) -> bool {
        self.pages
            .get(&(block.0 >> COV_PAGE_SHIFT))
            .is_some_and(|p| p.get(block.0 & (COV_PAGE_BLOCKS - 1)))
    }

    /// Total number of distinct blocks covered.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether no blocks are covered.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates over covered blocks in ascending identifier order.
    pub fn iter(&self) -> impl Iterator<Item = Block> + '_ {
        self.pages.iter().flat_map(|(&key, page)| {
            let base = key << COV_PAGE_SHIFT;
            page.bits.iter().enumerate().flat_map(move |(w, &word)| BitIter {
                word,
                base: base + (w as u64) * 64,
            })
        })
    }

    /// The page holding blocks `[key << 16, (key + 1) << 16)`, if any block
    /// in that window is covered.
    pub fn page(&self, key: u64) -> Option<&CovPage> {
        self.pages.get(&key).map(|b| &**b)
    }

    /// Iterates `(page_key, page)` pairs in ascending key order. Together
    /// with [`CovPage::live`] this lets delta consumers skip pages whose
    /// live count has not moved since their last scan.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &CovPage)> {
        self.pages.iter().map(|(&k, p)| (k, &**p))
    }

    /// Counts covered blocks in the half-open identifier range
    /// `[base, base + DRIVER_REGION)`, i.e. per-driver coverage.
    pub fn count_in_region(&self, base: u64) -> usize {
        let end = base + DRIVER_REGION;
        let first_key = base >> COV_PAGE_SHIFT;
        let last_key = (end - 1) >> COV_PAGE_SHIFT;
        let mut total = 0;
        for (&key, page) in self.pages.range(first_key..=last_key) {
            let page_base = key << COV_PAGE_SHIFT;
            let lo = base.max(page_base) - page_base;
            let hi = end.min(page_base + COV_PAGE_BLOCKS) - page_base;
            total += page.count_range(lo, hi);
        }
        total
    }
}

impl fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoverageMap")
            .field("blocks", &self.total)
            .field("pages", &self.pages.len())
            .finish()
    }
}

struct BitIter {
    word: u64,
    base: u64,
}

impl Iterator for BitIter {
    type Item = Block;

    fn next(&mut self) -> Option<Block> {
        if self.word == 0 {
            return None;
        }
        let bit = u64::from(self.word.trailing_zeros());
        self.word &= self.word - 1;
        Some(Block(self.base + bit))
    }
}

impl Extend<Block> for CoverageMap {
    fn extend<I: IntoIterator<Item = Block>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl FromIterator<Block> for CoverageMap {
    fn from_iter<I: IntoIterator<Item = Block>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend(iter);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn block_for_is_deterministic() {
        let a = block_for(0x1000_0000, &[1, 2, 3]);
        let b = block_for(0x1000_0000, &[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn block_for_stays_in_region() {
        for i in 0..1000 {
            let b = block_for(0x2000_0000, &[i, i * 7, 42]);
            assert!(b.0 >= 0x2000_0000 && b.0 < 0x2000_0000 + DRIVER_REGION);
        }
    }

    #[test]
    fn block_for_distinguishes_state() {
        let a = block_for(0, &[1, 2]);
        let b = block_for(0, &[2, 1]);
        assert_ne!(a, b, "order of state parts must matter");
    }

    #[test]
    fn kcov_records_only_when_enabled() {
        let mut kcov = KcovBuffer::new();
        kcov.record(Block(1));
        assert!(kcov.is_empty());
        kcov.enable();
        kcov.record(Block(2));
        kcov.record(Block(2));
        let got = kcov.disable();
        assert_eq!(got, vec![Block(2), Block(2)], "duplicates preserved");
        kcov.record(Block(3));
        assert!(kcov.is_empty());
    }

    #[test]
    fn enable_clears_previous_contents() {
        let mut kcov = KcovBuffer::new();
        kcov.enable();
        kcov.record(Block(7));
        kcov.enable();
        assert!(kcov.is_empty());
    }

    #[test]
    fn disable_into_appends_and_keeps_buffer_reusable() {
        let mut kcov = KcovBuffer::new();
        let mut out = vec![Block(1)];
        kcov.enable();
        kcov.record(Block(2));
        kcov.record(Block(3));
        kcov.disable_into(&mut out);
        assert_eq!(out, vec![Block(1), Block(2), Block(3)]);
        assert!(kcov.is_empty());
        assert!(!kcov.is_enabled());
        kcov.enable();
        kcov.record(Block(9));
        assert_eq!(kcov.disable(), vec![Block(9)]);
    }

    #[test]
    fn coverage_map_merge_counts_new() {
        let mut map = CoverageMap::new();
        assert_eq!(map.merge([Block(1), Block(2), Block(1)]), 2);
        assert_eq!(map.merge([Block(2), Block(3)]), 1);
        assert_eq!(map.len(), 3);
        assert!(map.contains(Block(3)));
    }

    #[test]
    fn count_in_region_filters() {
        let map: CoverageMap = [Block(10), Block(DRIVER_REGION + 5), Block(20)]
            .into_iter()
            .collect();
        assert_eq!(map.count_in_region(0), 2);
        assert_eq!(map.count_in_region(DRIVER_REGION), 1);
    }

    /// Deterministic pseudo-random block stream spread over several pages,
    /// including page boundaries.
    fn scatter(n: u64) -> impl Iterator<Item = Block> {
        (0..n).map(|i| {
            let x = mix64(i.wrapping_mul(0x9e37_79b9));
            Block((x % (5 * DRIVER_REGION)) + 0x1000_0000)
        })
    }

    #[test]
    fn bitmap_map_matches_hashset_reference() {
        let mut map = CoverageMap::new();
        let mut reference: HashSet<Block> = HashSet::new();
        for b in scatter(10_000) {
            assert_eq!(map.insert(b), reference.insert(b), "insert verdict for {b}");
        }
        assert_eq!(map.len(), reference.len());
        for b in scatter(10_000) {
            assert!(map.contains(b));
        }
        assert!(!map.contains(Block(0)));
        let got: Vec<Block> = map.iter().collect();
        let mut want: Vec<Block> = reference.iter().copied().collect();
        want.sort_unstable();
        assert_eq!(got, want, "iteration is sorted and complete");
        for base in [0, 0x1000_0000, 0x1000_0000 + DRIVER_REGION, 0x1001_8000] {
            let want = reference
                .iter()
                .filter(|b| b.0 >= base && b.0 < base + DRIVER_REGION)
                .count();
            assert_eq!(map.count_in_region(base), want, "region base 0x{base:x}");
        }
    }

    #[test]
    fn union_from_counts_new_blocks() {
        let mut a: CoverageMap = scatter(400).collect();
        let b: CoverageMap = scatter(800).collect();
        let before = a.len();
        let new = a.union_from(&b);
        assert_eq!(a.len(), before + new);
        assert_eq!(a.len(), b.len(), "scatter(400) is a prefix of scatter(800)");
        assert_eq!(a.union_from(&b), 0, "second union finds nothing new");
        let got: Vec<Block> = a.iter().collect();
        let want: Vec<Block> = b.iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn page_diff_into_matches_set_difference() {
        let seen: CoverageMap = scatter(300).collect();
        let cov: CoverageMap = scatter(600).collect();
        let mut out = Vec::new();
        for (key, page) in cov.pages() {
            page.diff_into(seen.page(key), key << COV_PAGE_SHIFT, &mut out);
        }
        let seen_set: HashSet<Block> = seen.iter().collect();
        let mut want: Vec<Block> = cov.iter().filter(|b| !seen_set.contains(b)).collect();
        want.sort_unstable();
        // Per-page appends are already globally sorted: pages ascend.
        assert_eq!(out, want);
        // Diff against nothing yields the whole page.
        let mut all = Vec::new();
        for (key, page) in cov.pages() {
            page.diff_into(None, key << COV_PAGE_SHIFT, &mut all);
        }
        assert_eq!(all.len(), cov.len());
    }

    #[test]
    fn word_kernels_agree_with_scalar_reference() {
        // Lengths chosen to exercise both the chunked body and the tail.
        for len in [0usize, 1, 7, 8, 9, 64, 67] {
            let a: Vec<u64> = (0..len as u64).map(mix64).collect();
            let b: Vec<u64> = (0..len as u64).map(|i| mix64(i ^ 0xABCD)).collect();
            let want_pop: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(words_popcount(&a), want_pop);

            let mut dst = a.clone();
            let new = words_union_count(&mut dst, &b);
            let want_new: u64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| u64::from((y & !x).count_ones()))
                .sum();
            assert_eq!(new, want_new);
            assert!(dst.iter().zip(a.iter().zip(&b)).all(|(d, (x, y))| *d == x | y));

            let mut got = Vec::new();
            words_new_bits(&b, &a, |idx, mask| got.push((idx, mask)));
            let want: Vec<(usize, u64)> = a
                .iter()
                .zip(&b)
                .enumerate()
                .filter_map(|(i, (x, y))| {
                    let m = y & !x;
                    (m != 0).then_some((i, m))
                })
                .collect();
            assert_eq!(got, want);
        }
    }
}
