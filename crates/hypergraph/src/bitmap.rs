//! Dense bit-set posting representation (DESIGN.md §5.4).
//!
//! Posting lists over a partition's local row space are naturally bounded
//! (`0..rows`), so a dense partition can represent a posting set as one bit
//! per row. Set algebra then becomes word-wide bitwise operations — 64
//! elements per instruction, with none of the branch misprediction cost of
//! merge loops — which is exactly the "very efficient on modern hardware"
//! observation the paper makes about Algorithm 4's set operations.
//!
//! [`InvertedIndex`](crate::inverted::InvertedIndex) materialises a
//! `Bitmap` next to the sorted posting list for *dense* keys, and candidate
//! generation switches between the two representations per anchor based on
//! predicted cost (see `hgmatch-core`'s candidate generation and
//! DESIGN.md §5.5).

use serde::{Deserialize, Serialize};

/// A fixed-domain bit set over `0..domain` (local row ids).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    domain: u32,
}

impl Bitmap {
    /// Creates an empty bitmap over `0..domain`.
    pub fn new(domain: u32) -> Self {
        Self {
            words: vec![0; Self::words_for(domain)],
            domain,
        }
    }

    /// Builds a bitmap from a strictly sorted slice of ids `< domain`.
    pub fn from_sorted(list: &[u32], domain: u32) -> Self {
        let mut bm = Self::new(domain);
        bm.insert_list(list);
        bm
    }

    #[inline]
    fn words_for(domain: u32) -> usize {
        (domain as usize).div_ceil(64)
    }

    /// The domain size (exclusive upper bound of storable ids).
    #[inline]
    pub fn domain(&self) -> u32 {
        self.domain
    }

    /// Clears all bits, re-sizing the domain to `domain` but keeping the
    /// word allocation when possible. Intended for scratch reuse.
    pub fn reset(&mut self, domain: u32) {
        self.domain = domain;
        let words = Self::words_for(domain);
        self.words.clear();
        self.words.resize(words, 0);
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics (debug) or is undefined-free but wrong (release: panics via
    /// slice indexing) when `i >= domain`.
    #[inline]
    pub fn insert(&mut self, i: u32) {
        debug_assert!(i < self.domain);
        self.words[(i >> 6) as usize] |= 1u64 << (i & 63);
    }

    /// Sets every bit of a sorted id list.
    #[inline]
    pub fn insert_list(&mut self, list: &[u32]) {
        for &i in list {
            self.insert(i);
        }
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= domain` (slice indexing).
    #[inline]
    pub fn remove(&mut self, i: u32) {
        debug_assert!(i < self.domain);
        self.words[(i >> 6) as usize] &= !(1u64 << (i & 63));
    }

    /// Grows the domain to `domain`, keeping every set bit. Growing is how
    /// a live posting bitmap follows its partition's row space as rows are
    /// appended ([`crate::dynamic`]); shrinking is a no-op.
    pub fn grow(&mut self, domain: u32) {
        if domain <= self.domain {
            return;
        }
        self.domain = domain;
        self.words.resize(Self::words_for(domain), 0);
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        debug_assert!(i < self.domain);
        self.words[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Word-wise OR of another bitmap over the same domain.
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn union_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.domain, other.domain, "bitmap domain mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Word-wise AND of another bitmap over the same domain.
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn intersect_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.domain, other.domain, "bitmap domain mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Word-wise AND-NOT (`self \ other`) over the same domain.
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn difference_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.domain, other.domain, "bitmap domain mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// The backing words, 64 row-bits apiece (bit `i` lives at
    /// `words()[i >> 6] & (1 << (i & 63))`). Exposed so word-structured
    /// consumers can popcount and decode word ranges without going through
    /// the per-bit API.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends the set bits, ascending, to `out`.
    pub fn extract_into(&self, out: &mut Vec<u32>) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            let base = (wi as u32) << 6;
            while w != 0 {
                out.push(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// The set bits as a fresh sorted vector.
    pub fn to_sorted(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones() as usize);
        self.extract_into(&mut out);
        out
    }

    /// Retains only the elements of `list` whose bit is set, preserving
    /// order — a list∩bitmap intersection without materialising the bitmap
    /// as a list.
    pub fn filter_list_into(&self, list: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend(list.iter().copied().filter(|&i| self.contains(i)));
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_extract() {
        let mut bm = Bitmap::new(200);
        for &i in &[0u32, 63, 64, 65, 127, 199] {
            bm.insert(i);
        }
        assert!(bm.contains(0) && bm.contains(63) && bm.contains(64));
        assert!(!bm.contains(1) && !bm.contains(128));
        assert_eq!(bm.count_ones(), 6);
        assert_eq!(bm.to_sorted(), vec![0, 63, 64, 65, 127, 199]);
    }

    #[test]
    fn from_sorted_roundtrips() {
        let list: Vec<u32> = (0..500).step_by(7).collect();
        let bm = Bitmap::from_sorted(&list, 500);
        assert_eq!(bm.to_sorted(), list);
    }

    #[test]
    fn set_algebra_matches_lists() {
        let a: Vec<u32> = (0..300).step_by(2).collect();
        let b: Vec<u32> = (0..300).step_by(3).collect();
        let mut ab = Bitmap::from_sorted(&a, 300);
        ab.intersect_assign(&Bitmap::from_sorted(&b, 300));
        assert_eq!(ab.to_sorted(), (0..300).step_by(6).collect::<Vec<u32>>());

        let mut u = Bitmap::from_sorted(&a, 300);
        u.union_assign(&Bitmap::from_sorted(&b, 300));
        assert_eq!(u.count_ones() as usize, {
            let mut all = a.clone();
            all.extend(&b);
            all.sort_unstable();
            all.dedup();
            all.len()
        });

        let mut d = Bitmap::from_sorted(&a, 300);
        d.difference_assign(&Bitmap::from_sorted(&b, 300));
        let expected: Vec<u32> = a.iter().copied().filter(|x| x % 3 != 0).collect();
        assert_eq!(d.to_sorted(), expected);
    }

    #[test]
    fn filters_preserve_order() {
        let bm = Bitmap::from_sorted(&[2, 4, 8], 10);
        let mut out = Vec::new();
        bm.filter_list_into(&[1, 2, 3, 4, 5, 8, 9], &mut out);
        assert_eq!(out, vec![2, 4, 8]);
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut bm = Bitmap::new(1000);
        bm.insert(999);
        bm.reset(100);
        assert_eq!(bm.domain(), 100);
        assert!(bm.is_empty());
        bm.insert(99);
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn empty_domain_is_fine() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.to_sorted(), Vec::<u32>::new());
        assert_eq!(bm.size_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "domain mismatch")]
    fn mismatched_domains_panic() {
        let mut a = Bitmap::new(64);
        a.union_assign(&Bitmap::new(65));
    }
}
