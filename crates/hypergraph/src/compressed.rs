//! Delta-bitpacked block containers for mid-density postings (DESIGN.md §14).
//!
//! Raw sorted lists cost 4 bytes per posting; dense keys already switch to
//! [`Bitmap`](crate::bitmap::Bitmap)s, but the long mid-density tail — hub
//! vertices of big partitions that are nowhere near bitmap density — is
//! where index memory actually goes. This module stores such postings
//! Roaring-style: fixed-span blocks of up to [`BLOCK_LEN`] row ids, each
//! block holding its first value verbatim in a small header and the
//! remaining values as gap deltas (`v[i] - v[i-1] - 1`) bitpacked LSB-first
//! into `u64` words at the minimal width for that block. Pure runs pack to
//! width 0 (header only); a typical mid-density gap of ~32 rows packs to
//! ~6 bits/posting — a 5× reduction against the raw list.
//!
//! Decode never materialises the whole posting: the fused kernels in
//! [`crate::setops`] decode one block at a time into a stack-resident
//! `[u32; BLOCK_LEN]` scratch and run the ordinary SIMD/scalar set algebra
//! against the overlapping slice of the other operand, skipping blocks
//! whose `[min, max]` span cannot intersect it at all.
//!
//! Encoding is deterministic per block, but block *boundaries* drift under
//! in-place deletes (a spliced block keeps its shortened span). Canonical
//! boundaries are restored wherever byte-identity matters: the dynamic
//! index re-encodes from the sorted list at freeze time, so the
//! snapshot==rebuild oracle still compares canonical encodings.

use serde::{Deserialize, Serialize};

use crate::setops::is_strictly_sorted;

/// Maximum values per block, and the length of the decode scratch array.
pub const BLOCK_LEN: usize = 256;

/// Per-block metadata: the span for block skipping, the word offset of the
/// packed deltas, and the decode parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct BlockHeader {
    /// First value of the block, stored verbatim.
    base: u32,
    /// Last value of the block (inclusive), for skip checks without decode.
    max: u32,
    /// Index of the block's first word in `packed`.
    offset: u32,
    /// Values in the block (`1..=BLOCK_LEN`).
    count: u16,
    /// Bits per packed delta (`0..=32`); 0 means a pure run.
    width: u8,
}

impl BlockHeader {
    /// Words occupied by this block's packed deltas.
    #[inline]
    fn num_words(&self) -> usize {
        ((self.count as usize - 1) * self.width as usize).div_ceil(64)
    }
}

/// A sorted `u32` set stored as delta-bitpacked fixed-span blocks.
///
/// # Example
///
/// ```
/// use hgmatch_hypergraph::compressed::{CompressedPostings, BLOCK_LEN};
///
/// let values: Vec<u32> = (0..1000).map(|i| i * 3).collect();
/// let c = CompressedPostings::from_sorted(&values);
/// assert_eq!(c.len(), 1000);
/// assert_eq!(c.to_sorted(), values);
/// // Gap-2 deltas pack into 2 bits each: far below 4 bytes/posting.
/// assert!(c.size_bytes() * 3 < values.len() * 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedPostings {
    headers: Vec<BlockHeader>,
    packed: Vec<u64>,
    len: u32,
}

impl CompressedPostings {
    /// Encodes a strictly sorted slice, chunked into [`BLOCK_LEN`]-spans.
    pub fn from_sorted(values: &[u32]) -> Self {
        let mut c = Self::default();
        for chunk in values.chunks(BLOCK_LEN) {
            c.push_block(chunk);
        }
        c
    }

    /// Appends one block of up to [`BLOCK_LEN`] strictly sorted values, all
    /// greater than the current maximum.
    ///
    /// # Panics
    /// Panics (debug) when `values` is empty, oversized, unsorted, or does
    /// not extend the container.
    pub fn push_block(&mut self, values: &[u32]) {
        debug_assert!(!values.is_empty() && values.len() <= BLOCK_LEN);
        debug_assert!(is_strictly_sorted(values));
        debug_assert!(self.headers.last().is_none_or(|h| h.max < values[0]));
        let offset = self.packed.len() as u32;
        let header = encode_block(values, offset, &mut self.packed);
        self.headers.push(header);
        self.len += values.len() as u32;
    }

    /// Total number of stored values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no value is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.headers.len()
    }

    /// `(min, max)` span of block `i`, for skip checks without decoding.
    #[inline]
    pub fn block_range(&self, i: usize) -> (u32, u32) {
        let h = &self.headers[i];
        (h.base, h.max)
    }

    /// Whether block `i` is a pure run (width 0): it stores *every* integer
    /// in its `[min, max]` span. The fused kernels exploit this — set
    /// algebra against a contiguous range needs no decode at all.
    #[inline]
    pub fn block_is_run(&self, i: usize) -> bool {
        self.headers[i].width == 0
    }

    /// Smallest stored value, or `None` when empty.
    #[inline]
    pub fn min(&self) -> Option<u32> {
        self.headers.first().map(|h| h.base)
    }

    /// Largest stored value, or `None` when empty.
    #[inline]
    pub fn max(&self) -> Option<u32> {
        self.headers.last().map(|h| h.max)
    }

    /// Decodes block `i` into `scratch`, returning the decoded prefix.
    #[inline]
    pub fn decode_block<'s>(&self, i: usize, scratch: &'s mut [u32; BLOCK_LEN]) -> &'s [u32] {
        let h = &self.headers[i];
        let count = h.count as usize;
        scratch[0] = h.base;
        if h.width == 0 {
            // Pure run: values are consecutive.
            for (k, slot) in scratch[1..count].iter_mut().enumerate() {
                *slot = h.base + k as u32 + 1;
            }
        } else {
            let words = &self.packed[h.offset as usize..];
            unpack_deltas(h.width, words, h.base, &mut scratch[1..count]);
        }
        &scratch[..count]
    }

    /// Appends every stored value, ascending, to `out`.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.len());
        let mut scratch = [0u32; BLOCK_LEN];
        for i in 0..self.headers.len() {
            out.extend_from_slice(self.decode_block(i, &mut scratch));
        }
    }

    /// The stored values as a fresh sorted vector.
    pub fn to_sorted(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_into(&mut out);
        out
    }

    /// Whether `v` is stored. One header binary search plus one block decode.
    pub fn contains(&self, v: u32) -> bool {
        let Some(i) = self.find_block(v) else {
            return false;
        };
        let mut scratch = [0u32; BLOCK_LEN];
        self.decode_block(i, &mut scratch).binary_search(&v).is_ok()
    }

    /// Index of the block whose span covers `v`, if any.
    #[inline]
    fn find_block(&self, v: u32) -> Option<usize> {
        let i = self.headers.partition_point(|h| h.max < v);
        (i < self.headers.len() && self.headers[i].base <= v).then_some(i)
    }

    /// Removes `v` if present, re-encoding only its block (block-local
    /// repack: later blocks shift their word offsets but are not touched).
    /// Returns whether the value was present. The deleted block's span
    /// shrinks in place, so boundaries may drift from a canonical
    /// [`from_sorted`](Self::from_sorted) encoding — see the module docs.
    pub fn remove(&mut self, v: u32) -> bool {
        let Some(i) = self.find_block(v) else {
            return false;
        };
        let mut scratch = [0u32; BLOCK_LEN];
        let decoded = self.decode_block(i, &mut scratch);
        let Ok(pos) = decoded.binary_search(&v) else {
            return false;
        };
        let count = decoded.len();
        scratch.copy_within(pos + 1..count, pos);

        let old = self.headers[i];
        let old_words = old.num_words();
        let start = old.offset as usize;
        let new_words = if count == 1 {
            // Block emptied: drop its header entirely.
            self.headers.remove(i);
            self.packed.drain(start..start + old_words);
            0
        } else {
            // Deleting can *grow* the width (two gaps merge into one), so
            // re-encode the survivors from scratch.
            let mut fresh = Vec::with_capacity(old_words);
            let header = encode_block(&scratch[..count - 1], old.offset, &mut fresh);
            let n = fresh.len();
            self.packed.splice(start..start + old_words, fresh);
            self.headers[i] = header;
            n
        };
        if new_words != old_words {
            let shift = old_words as i64 - new_words as i64;
            let tail = if count == 1 { i } else { i + 1 };
            for h in &mut self.headers[tail..] {
                h.offset = (h.offset as i64 - shift) as u32;
            }
        }
        self.len -= 1;
        true
    }

    /// Approximate heap size in bytes: packed words plus block headers.
    pub fn size_bytes(&self) -> usize {
        self.headers.len() * std::mem::size_of::<BlockHeader>()
            + self.packed.len() * std::mem::size_of::<u64>()
    }

    /// Appends the HGMB snapshot wire encoding: block headers (field by field,
    /// fixed widths), packed words, total length.
    pub(crate) fn encode_v2(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_u32_le(self.headers.len() as u32);
        for h in &self.headers {
            buf.put_u32_le(h.base);
            buf.put_u32_le(h.max);
            buf.put_u32_le(h.offset);
            buf.put_u16_le(h.count);
            buf.put_u8(h.width);
        }
        buf.put_u32_le(self.packed.len() as u32);
        for &w in &self.packed {
            buf.put_u64_le(w);
        }
        buf.put_u32_le(self.len);
    }

    /// Decodes the HGMB snapshot wire encoding, advancing `data` past it. Every
    /// block invariant the decode kernels rely on (span ordering, word
    /// ranges, counts) is re-validated so corrupt input errors instead of
    /// panicking later inside `decode_block`.
    pub(crate) fn decode_v2(data: &mut &[u8]) -> crate::error::Result<Self> {
        use crate::error::HypergraphError;
        use bytes::Buf;
        let corrupt = |msg: &str| HypergraphError::Corrupt(format!("compressed posting: {msg}"));
        crate::io::need(data, 4, "compressed block count")?;
        let num_blocks = data.get_u32_le() as usize;
        crate::io::need(data, num_blocks * 15, "compressed block headers")?;
        let mut headers = Vec::with_capacity(num_blocks);
        for _ in 0..num_blocks {
            headers.push(BlockHeader {
                base: data.get_u32_le(),
                max: data.get_u32_le(),
                offset: data.get_u32_le(),
                count: data.get_u16_le(),
                width: data.get_u8(),
            });
        }
        crate::io::need(data, 4, "compressed word count")?;
        let num_words = data.get_u32_le() as usize;
        let packed = crate::io::read_u64s(data, num_words, "compressed packed words")?;
        crate::io::need(data, 4, "compressed length")?;
        let len = data.get_u32_le();

        let mut total = 0u64;
        let mut prev_max: Option<u32> = None;
        for h in &headers {
            if h.count == 0 || h.count as usize > BLOCK_LEN {
                return Err(corrupt("block count out of range"));
            }
            if h.width > 32 {
                return Err(corrupt("delta width out of range"));
            }
            if h.max < h.base {
                return Err(corrupt("block span inverted"));
            }
            if prev_max.is_some_and(|m| h.base <= m) {
                return Err(corrupt("block spans out of order"));
            }
            if h.offset as usize + h.num_words() > packed.len() {
                return Err(corrupt("block words out of range"));
            }
            prev_max = Some(h.max);
            total += h.count as u64;
        }
        if total != len as u64 {
            return Err(corrupt("length disagrees with block counts"));
        }
        Ok(Self {
            headers,
            packed,
            len,
        })
    }
}

/// Unpacks `out.len()` gap deltas of `width` bits from `words` and prefix-
/// sums them (`v[i] = v[i-1] + 1 + delta`) starting from `base`. Dispatches
/// to a monomorphised loop per width so the extraction arithmetic constant-
/// folds: the shift/mask schedule for a fixed width is periodic, which lets
/// the compiler unroll the hot loop and drop the cross-word branch wherever
/// `64 % width == 0`. The serial prefix-sum chain (1 add/value) remains —
/// that is the decode floor the fused kernels amortise via run blocks.
fn unpack_deltas(width: u8, words: &[u64], base: u32, out: &mut [u32]) {
    #[inline(always)]
    fn unpack<const W: u32>(words: &[u64], base: u32, out: &mut [u32]) {
        let mask = (1u64 << W) - 1;
        let mut prev = base;
        let mut bit = 0u32;
        for slot in out {
            let word = (bit >> 6) as usize;
            let sh = bit & 63;
            let mut d = words[word] >> sh;
            if sh + W > 64 {
                d |= words[word + 1] << (64 - sh);
            }
            prev = prev.wrapping_add(1).wrapping_add((d & mask) as u32);
            *slot = prev;
            bit += W;
        }
    }
    macro_rules! dispatch {
        ($($w:literal)+) => {
            match width {
                $($w => unpack::<$w>(words, base, out),)+
                _ => unreachable!("width is 1..=32"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
              17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
}

/// Encodes one block's deltas into `packed` (appending whole words starting
/// at `offset`, which must be `packed.len()` on entry for appends) and
/// returns its header.
fn encode_block(values: &[u32], offset: u32, packed: &mut Vec<u64>) -> BlockHeader {
    let base = values[0];
    let max = *values.last().unwrap();
    let mut max_delta = 0u32;
    for w in values.windows(2) {
        max_delta = max_delta.max(w[1] - w[0] - 1);
    }
    let width = (32 - max_delta.leading_zeros()) as u8;
    let header = BlockHeader {
        base,
        max,
        offset,
        count: values.len() as u16,
        width,
    };
    let start = packed.len();
    packed.resize(start + header.num_words(), 0);
    if width > 0 {
        let words = &mut packed[start..];
        let mut bit = 0usize;
        for w in values.windows(2) {
            let d = (w[1] - w[0] - 1) as u64;
            let word = bit >> 6;
            let sh = bit & 63;
            words[word] |= d << sh;
            if sh + width as usize > 64 {
                words[word + 1] |= d >> (64 - sh);
            }
            bit += width as usize;
        }
    }
    header
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) {
        let c = CompressedPostings::from_sorted(values);
        assert_eq!(c.len(), values.len());
        assert_eq!(
            c.to_sorted(),
            values,
            "roundtrip of {} values",
            values.len()
        );
    }

    #[test]
    fn empty_and_singleton() {
        let c = CompressedPostings::from_sorted(&[]);
        assert!(c.is_empty());
        assert_eq!(c.num_blocks(), 0);
        assert_eq!(c.to_sorted(), Vec::<u32>::new());
        roundtrip(&[0]);
        roundtrip(&[u32::MAX]);
    }

    #[test]
    fn runs_pack_to_width_zero() {
        let values: Vec<u32> = (10..10 + 600).collect();
        let c = CompressedPostings::from_sorted(&values);
        assert_eq!(c.to_sorted(), values);
        // Three blocks of consecutive values: headers only, no packed words.
        assert_eq!(c.num_blocks(), 3);
        assert_eq!(c.size_bytes(), 3 * std::mem::size_of::<BlockHeader>());
    }

    #[test]
    fn block_boundaries_roundtrip() {
        for n in [255usize, 256, 257, 511, 512, 513] {
            let values: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
            roundtrip(&values);
        }
    }

    #[test]
    fn max_gap_deltas_roundtrip() {
        // 32-bit-wide deltas, including values at the domain edges.
        roundtrip(&[0, 1, u32::MAX - 1, u32::MAX]);
        roundtrip(&[5, 1 << 31, u32::MAX]);
        let mut mixed = vec![0u32];
        let mut v = 0u32;
        for (i, gap) in [1u32, 1 << 20, 2, 1 << 30, 3, 1, 1 << 10]
            .iter()
            .enumerate()
        {
            v += gap + (i as u32 % 2);
            mixed.push(v);
        }
        roundtrip(&mixed);
    }

    #[test]
    fn contains_finds_exactly_members() {
        let values: Vec<u32> = (0..900u32).map(|i| i * 5).collect();
        let c = CompressedPostings::from_sorted(&values);
        for &v in &values {
            assert!(c.contains(v));
        }
        for v in [1u32, 4, 2501, 4496, 4500] {
            assert!(!c.contains(v), "{v} should be absent");
        }
    }

    #[test]
    fn remove_matches_list_semantics() {
        let values: Vec<u32> = (0..700u32).map(|i| i * 3 + 1).collect();
        let mut c = CompressedPostings::from_sorted(&values);
        let mut model = values.clone();
        // Remove from the front, middle, a block boundary, and the back.
        for v in [1u32, 1000, 255 * 3 + 1, 256 * 3 + 1, 699 * 3 + 1, 0] {
            let expected = model.binary_search(&v).map(|p| model.remove(p)).is_ok();
            assert_eq!(c.remove(v), expected, "remove({v})");
            assert_eq!(c.to_sorted(), model);
        }
    }

    #[test]
    fn remove_can_grow_block_width() {
        // A pure run (width 0): deleting an interior value creates a gap,
        // forcing the block to repack at width 1.
        let values: Vec<u32> = (0..100).collect();
        let mut c = CompressedPostings::from_sorted(&values);
        assert_eq!(c.size_bytes(), std::mem::size_of::<BlockHeader>());
        assert!(c.remove(50));
        let expected: Vec<u32> = values.iter().copied().filter(|&v| v != 50).collect();
        assert_eq!(c.to_sorted(), expected);
        assert!(c.size_bytes() > std::mem::size_of::<BlockHeader>());
    }

    #[test]
    fn remove_drains_whole_container() {
        let values: Vec<u32> = (0..520u32).map(|i| i * 2).collect();
        let mut c = CompressedPostings::from_sorted(&values);
        for &v in values.iter().rev() {
            assert!(c.remove(v));
            assert!(!c.remove(v), "double remove of {v}");
        }
        assert!(c.is_empty());
        assert_eq!(c.num_blocks(), 0);
        assert!(c.packed.is_empty());
    }

    #[test]
    fn mid_density_beats_raw_lists_3x() {
        // Average gap 32 over a 256k-row space: the acceptance-criteria
        // shape. 13 gap bits would be pathological; typical is ~5-6.
        let values: Vec<u32> = (0..8192u32).map(|i| i * 32 + (i % 7)).collect();
        let c = CompressedPostings::from_sorted(&values);
        assert_eq!(c.to_sorted(), values);
        let raw = values.len() * 4;
        assert!(
            c.size_bytes() * 3 <= raw,
            "compressed {} vs raw {} bytes",
            c.size_bytes(),
            raw
        );
    }

    #[test]
    fn push_block_appends_in_order() {
        let mut c = CompressedPostings::default();
        c.push_block(&[3, 9, 10]);
        c.push_block(&[20]);
        let tail: Vec<u32> = (100..356).collect();
        c.push_block(&tail);
        assert_eq!(c.num_blocks(), 3);
        let mut expected = vec![3, 9, 10, 20];
        expected.extend(tail);
        assert_eq!(c.to_sorted(), expected);
        assert_eq!(c.block_range(1), (20, 20));
    }
}
