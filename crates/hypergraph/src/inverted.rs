//! The lightweight inverted hyperedge index (paper §IV-C).
//!
//! Each signature partition carries one inverted index mapping a vertex to
//! the *posting list* of local row ids of all its incident hyperedges in that
//! partition, in ascending order. Candidate generation (Algorithm 4) fetches
//! `he(v, S(eq))` from this index in `O(log k)` and then works purely with
//! sorted-set operations.
//!
//! The index is stored in CSR form over a sorted key array rather than a hash
//! map: lookups binary-search the key array, and the whole structure is a few
//! flat allocations — matching the paper's "lightweight" size analysis of
//! `O(a_H · |E(H)|)` total postings.
//!
//! Postings are stored adaptively in one of two representations
//! (DESIGN.md §5.4), chosen per key by an internal density rule:
//!
//! * **list** — the raw sorted `u32` slice; sparse keys and small partitions.
//! * **bitmap** — the sorted list *plus* a [`Bitmap`] over the row space, for
//!   dense keys of large partitions (word-wide set algebra).
//!
//! [`set_forced_repr`] pins the choice for stress testing.

use std::sync::atomic::{AtomicU8, Ordering};

use serde::{Deserialize, Serialize};

use crate::bitmap::Bitmap;

/// Partitions with fewer rows than this never materialise bitmaps — the
/// sorted lists are already tiny (DESIGN.md §5.4). Exported so candidate
/// generation's density heuristic cannot drift from the index's own switch.
pub const MIN_BITMAP_ROWS: usize = 256;

/// A key is *dense* — and gets a bitmap next to its sorted posting list —
/// when it covers at least `1/DENSE_KEY_DIV` of the partition's rows.
const DENSE_KEY_DIV: usize = 32;

/// Sentinel in `dense_idx` for keys without a bitmap.
const NO_BITMAP: u32 = u32::MAX;

/// Which of the two posting representations a key uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReprKind {
    /// Raw sorted row-id list.
    List,
    /// Sorted list plus a dense [`Bitmap`] over the partition's row space.
    Bitmap,
}

/// Forced representation override, process-wide. 0 = none; else
/// 1 + discriminant of the forced [`ReprKind`].
static FORCED_REPR: AtomicU8 = AtomicU8::new(0);

/// Pins every key to one representation process-wide (`None` restores the
/// adaptive rule). Takes effect on the next index build or dynamic update;
/// used by stress tests to prove representations are semantically invisible.
pub fn set_forced_repr(kind: Option<ReprKind>) {
    let v = match kind {
        None => 0,
        Some(ReprKind::List) => 1,
        Some(ReprKind::Bitmap) => 2,
    };
    FORCED_REPR.store(v, Ordering::Relaxed);
}

/// The representation [`set_forced_repr`] pins, if any. Tests that assert
/// representation-specific structure skip themselves when this is set.
pub fn forced_repr() -> Option<ReprKind> {
    match FORCED_REPR.load(Ordering::Relaxed) {
        1 => Some(ReprKind::List),
        2 => Some(ReprKind::Bitmap),
        _ => None,
    }
}

/// Whether the dense-key rule alone (ignoring any forced override) gives
/// `posting_len` a bitmap in a partition of `num_rows` rows.
#[inline]
pub(crate) fn key_is_dense(posting_len: usize, num_rows: usize) -> bool {
    num_rows >= MIN_BITMAP_ROWS && posting_len * DENSE_KEY_DIV >= num_rows
}

/// The adaptive representation rule shared by [`InvertedIndex::build`] and
/// the dynamic index ([`crate::dynamic`]): dense keys of large partitions →
/// [`ReprKind::Bitmap`]; everything else → [`ReprKind::List`].
/// Centralised — and applied again at freeze time — so the mutable path
/// flips representations at the *same* thresholds as a fresh build and the
/// snapshot==rebuild oracle compares identical bytes. A forced override
/// ([`forced_repr`]) wins over the rule.
#[inline]
pub(crate) fn choose_repr(posting_len: usize, num_rows: usize) -> ReprKind {
    if let Some(kind) = forced_repr() {
        return kind;
    }
    if key_is_dense(posting_len, num_rows) {
        ReprKind::Bitmap
    } else {
        ReprKind::List
    }
}

/// A posting set in whichever representation its key carries. Consumers
/// dispatch on the arm to pick the cheapest set operation (DESIGN.md §5.5);
/// every arm holds the sorted list ([`Posting::list`]).
#[derive(Debug, Clone, Copy)]
pub enum Posting<'a> {
    /// Sorted local row ids.
    List(&'a [u32]),
    /// Dense key: the sorted list plus its bitmap over the row space.
    Dense {
        /// Sorted local row ids.
        list: &'a [u32],
        /// The same set as one bit per row.
        bits: &'a Bitmap,
    },
    #[doc(hidden)]
    Compressed(CompressedPostings),
}

impl<'a> Posting<'a> {
    /// An empty posting (absent vertex).
    pub const EMPTY: Posting<'static> = Posting::List(&[]);

    /// The sorted row ids.
    #[inline]
    pub fn list(&self) -> &'a [u32] {
        match *self {
            Posting::List(list) | Posting::Dense { list, .. } => list,
            Posting::Compressed(c) => match c {},
        }
    }

    /// Number of row ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.list().len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`Posting::list`], which every arm stores, as an `Option`.
    #[inline]
    pub fn as_list(&self) -> Option<&'a [u32]> {
        Some(self.list())
    }

    /// The bitmap side, present only for dense keys.
    #[inline]
    pub fn bits(&self) -> Option<&'a Bitmap> {
        match self {
            Posting::Dense { bits, .. } => Some(bits),
            _ => None,
        }
    }

    /// The sorted row ids as a fresh vector.
    pub fn to_sorted(&self) -> Vec<u32> {
        self.list().to_vec()
    }

    /// Which representation this posting carries.
    #[inline]
    pub fn repr(&self) -> ReprKind {
        match self.bits() {
            Some(_) => ReprKind::Bitmap,
            None => ReprKind::List,
        }
    }
}

/// The retired delta-bitpacked representation, uninhabited: no posting
/// holds one. It stays only for `benchmark/src/layers.rs`, a package of
/// its own that still matches `Posting::Compressed`, calls the two
/// `*_compressed_*` kernels in [`crate::setops`] and reads
/// [`ReprBreakdown`]'s `compressed_*` fields. All of it goes once that
/// file drops its compressed arm.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum CompressedPostings {}

impl CompressedPostings {
    #[doc(hidden)]
    pub fn decode_into(&self, _out: &mut Vec<u32>) {
        match *self {}
    }
}

/// Per-representation key/byte accounting of one index, for the CLI `stats`
/// breakdown. Bytes cover the posting payloads only (lists and bitmaps),
/// not the shared CSR key/offset arrays. The two `compressed_*` fields are
/// always 0 (see [`CompressedPostings`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ReprBreakdown {
    /// Keys stored as raw lists / their posting entries / their list bytes.
    pub list_keys: usize,
    /// Posting entries of list keys.
    pub list_postings: usize,
    /// Bytes of list keys (4 per posting).
    pub list_bytes: usize,
    /// Keys carrying a bitmap.
    pub bitmap_keys: usize,
    /// Posting entries of bitmap keys.
    pub bitmap_postings: usize,
    /// Bytes of bitmap keys (sorted list + bitmap words).
    pub bitmap_bytes: usize,
    #[doc(hidden)]
    pub compressed_keys: usize,
    #[doc(hidden)]
    pub compressed_bytes: usize,
}

impl ReprBreakdown {
    /// Accumulates another breakdown (e.g. across partitions).
    pub fn add(&mut self, other: &ReprBreakdown) {
        self.list_keys += other.list_keys;
        self.list_postings += other.list_postings;
        self.list_bytes += other.list_bytes;
        self.bitmap_keys += other.bitmap_keys;
        self.bitmap_postings += other.bitmap_postings;
        self.bitmap_bytes += other.bitmap_bytes;
    }

    /// Total posting entries across both representations.
    pub fn total_postings(&self) -> usize {
        self.list_postings + self.bitmap_postings
    }

    /// Total posting payload bytes across both representations.
    pub fn total_bytes(&self) -> usize {
        self.list_bytes + self.bitmap_bytes
    }
}

/// Inverted index from vertex id to a sorted posting set of local hyperedge
/// row ids within one partition.
///
/// A partition of fewer than two rows carries the empty index (no keys, no
/// heap): its one row answers `he(v, s)` itself (DESIGN.md §2). Postings are
/// therefore read through [`crate::Partition::incident_posting`], never from
/// the index directly.
///
/// # Example
///
/// ```
/// use hgmatch_hypergraph::{EdgeId, Label, Partition, SignatureId};
///
/// // One partition of three hyperedge rows: {0,1}, {1,2}, {0,2}.
/// let rows = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
/// let ids = (0..3).map(EdgeId::new).collect();
/// let labels = vec![Label::new(0); 3];
/// let p = Partition::new(SignatureId::new(0), 2, rows, ids, &labels);
///
/// // he(v, S): vertex 1 is incident to rows 0 and 1.
/// assert_eq!(p.incident_posting(1).to_sorted(), &[0, 1]);
/// // Absent vertices yield an empty posting.
/// assert!(p.incident_posting(9).is_empty());
/// assert_eq!((p.index().num_keys(), p.index().num_postings()), (3, 6));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvertedIndex {
    /// Sorted vertex ids that appear in this partition.
    keys: Vec<u32>,
    /// `offsets[i]..offsets[i+1]` is the posting range of `keys[i]`.
    offsets: Vec<u32>,
    /// Concatenated posting lists (local row ids, ascending per key).
    postings: Vec<u32>,
    /// Rows in the partition this index covers (the bitmap domain).
    num_rows: u32,
    /// Per-key index into `bitmaps`, or [`NO_BITMAP`]; empty (no heap) when
    /// no key has a bitmap.
    dense_idx: Vec<u32>,
    /// Bitmaps of the dense keys, in key order.
    bitmaps: Vec<Bitmap>,
}

impl InvertedIndex {
    /// The index of a partition below two rows: no keys and no heap, equal
    /// to `InvertedIndex::default()`.
    pub(crate) const EMPTY: Self = Self {
        keys: Vec::new(),
        offsets: Vec::new(),
        postings: Vec::new(),
        num_rows: 0,
        dense_idx: Vec::new(),
        bitmaps: Vec::new(),
    };

    /// Builds the index from `(vertex, row)` incidences.
    ///
    /// `rows[r]` must be the sorted vertex list of local row `r`; rows are
    /// visited in ascending order so each posting list comes out sorted.
    pub fn build(rows: &[&[u32]]) -> Self {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (row, vertices) in rows.iter().enumerate() {
            let row = row as u32;
            for &v in *vertices {
                pairs.push((v, row));
            }
        }
        pairs.sort_unstable();

        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        let mut postings = Vec::with_capacity(pairs.len());
        for (v, row) in pairs {
            if keys.last() != Some(&v) {
                // Close the previous key's range (offsets always ends with
                // the running posting count) and open a new one.
                keys.push(v);
                offsets.push(postings.len() as u32);
            }
            postings.push(row);
            *offsets.last_mut().unwrap() = postings.len() as u32;
        }

        Self::finish(keys, offsets, postings, rows.len() as u32)
    }

    /// Builds the index from per-key sorted posting lists, visited in
    /// ascending key order. Produces exactly what [`InvertedIndex::build`]
    /// would for the same incidences — this is the freeze path of the
    /// dynamic index ([`crate::dynamic`]), which already keeps its postings
    /// keyed and sorted.
    pub(crate) fn from_sorted_postings<'a>(
        cells: impl Iterator<Item = (u32, &'a [u32])>,
        num_rows: u32,
    ) -> Self {
        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        let mut postings = Vec::new();
        for (key, list) in cells {
            debug_assert!(keys.last().is_none_or(|&k| k < key), "keys must ascend");
            debug_assert!(crate::setops::is_strictly_sorted(list));
            if list.is_empty() {
                continue;
            }
            keys.push(key);
            postings.extend_from_slice(list);
            offsets.push(postings.len() as u32);
        }
        Self::finish(keys, offsets, postings, num_rows)
    }

    /// Shared tail of the constructors: the adaptive representation switch
    /// ([`choose_repr`]). Dense keys additionally carry a bitmap over the
    /// row space; the side table is allocated at its first entry.
    fn finish(keys: Vec<u32>, offsets: Vec<u32>, postings: Vec<u32>, num_rows: u32) -> Self {
        let mut dense_idx = Vec::new();
        let mut bitmaps = Vec::new();
        for i in 0..keys.len() {
            let list = &postings[offsets[i] as usize..offsets[i + 1] as usize];
            if choose_repr(list.len(), num_rows as usize) == ReprKind::Bitmap {
                dense_idx.resize(keys.len(), NO_BITMAP);
                dense_idx[i] = bitmaps.len() as u32;
                bitmaps.push(Bitmap::from_sorted(list, num_rows));
            }
        }
        Self {
            keys,
            offsets,
            postings,
            num_rows,
            dense_idx,
            bitmaps,
        }
    }

    /// Number of rows in the partition this index covers (the domain of
    /// posting bitmaps).
    #[inline]
    pub fn num_rows(&self) -> u32 {
        self.num_rows
    }

    /// Returns the posting set for `vertex` in its stored representation
    /// (an empty [`Posting::List`] for absent vertices). Crate-private:
    /// callers go through [`crate::Partition::incident_posting`], which also
    /// answers for a one-row partition's empty index.
    #[inline]
    pub(crate) fn posting(&self, vertex: u32) -> Posting<'_> {
        match self.keys.binary_search(&vertex) {
            Ok(i) => self.posting_at(i),
            Err(_) => Posting::EMPTY,
        }
    }

    /// The posting of the key at position `i` in the sorted key array.
    #[inline]
    fn posting_at(&self, i: usize) -> Posting<'_> {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        let list = &self.postings[start..end];
        match self.dense_idx.get(i).filter(|&&d| d != NO_BITMAP) {
            Some(&dense) => Posting::Dense {
                list,
                bits: &self.bitmaps[dense as usize],
            },
            None => Posting::List(list),
        }
    }

    /// Whether every key carries the representation [`choose_repr`] gives
    /// it in this process now. False for an index decoded from a snapshot
    /// written under another [`set_forced_repr`], or built before it
    /// changed; the dynamic writer adopts only canonical indices, so its
    /// snapshots keep equalling a fresh build.
    pub(crate) fn is_canonical(&self) -> bool {
        (0..self.keys.len()).all(|i| {
            let posting = self.posting_at(i);
            posting.repr() == choose_repr(posting.len(), self.num_rows as usize)
        })
    }

    /// Number of keys carrying a dense (bitmap) representation.
    #[inline]
    pub fn num_dense_keys(&self) -> usize {
        self.bitmaps.len()
    }

    /// Number of incidences (total posting entries).
    #[inline]
    pub fn num_postings(&self) -> usize {
        self.postings.len()
    }

    /// Number of distinct vertices indexed.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Approximate heap size of the index in bytes, including the bitmaps
    /// of dense keys.
    pub fn size_bytes(&self) -> usize {
        (self.keys.len() + self.offsets.len() + self.postings.len() + self.dense_idx.len())
            * std::mem::size_of::<u32>()
            + self.bitmaps.iter().map(Bitmap::size_bytes).sum::<usize>()
    }

    /// Per-representation key and byte accounting (CLI `stats`).
    pub fn repr_breakdown(&self) -> ReprBreakdown {
        let mut b = ReprBreakdown::default();
        for i in 0..self.keys.len() {
            let posting = self.posting_at(i);
            let list_bytes = std::mem::size_of_val(posting.list());
            match posting.bits() {
                None => {
                    b.list_keys += 1;
                    b.list_postings += posting.len();
                    b.list_bytes += list_bytes;
                }
                Some(bits) => {
                    b.bitmap_keys += 1;
                    b.bitmap_postings += posting.len();
                    b.bitmap_bytes += list_bytes + bits.size_bytes();
                }
            }
        }
        b
    }

    /// Iterates `(vertex, posting)` pairs in ascending vertex order
    /// (crate-private for the same reason as [`InvertedIndex::posting`]; see
    /// [`crate::Partition::postings`]).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, Posting<'_>)> {
        self.keys
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, self.posting_at(i)))
    }

    /// Appends the HGMB snapshot wire encoding: every internal array verbatim, so
    /// a loaded index is byte-for-byte the saved one — including which
    /// representation each key carries (the adaptive rule is *not* re-run
    /// on load; see DESIGN.md §17). The dense side table follows its
    /// bitmap count and is written only when that count is non-zero; the
    /// retired compressed-container count is written as 0.
    pub(crate) fn encode(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_u32_le(self.keys.len() as u32);
        for &k in &self.keys {
            buf.put_u32_le(k);
        }
        for &o in &self.offsets {
            buf.put_u32_le(o);
        }
        buf.put_u32_le(self.postings.len() as u32);
        for &p in &self.postings {
            buf.put_u32_le(p);
        }
        buf.put_u32_le(self.num_rows);
        buf.put_u32_le(self.bitmaps.len() as u32);
        for &d in &self.dense_idx {
            buf.put_u32_le(d);
        }
        for bm in &self.bitmaps {
            bm.encode_v2(buf);
        }
        buf.put_u32_le(0);
    }

    /// Decodes the HGMB snapshot wire encoding, advancing `data` past it. All
    /// structural invariants `posting_at` relies on (offset monotonicity,
    /// side-table index ranges, row-space bounds) are re-validated so
    /// corrupt input errors instead of panicking at query time.
    /// `legacy_side_tables` reads the v2/v3 layout, where both side tables
    /// are always present and precede their container counts; a table with
    /// no container to point at is dropped. A non-zero compressed-container
    /// count, from any version, is refused with
    /// [`HypergraphError::CompressedPostings`](crate::error::HypergraphError::CompressedPostings):
    /// such a key stores no list to read.
    pub(crate) fn decode(data: &mut &[u8], legacy_side_tables: bool) -> crate::error::Result<Self> {
        use crate::error::HypergraphError;
        use bytes::Buf;
        let corrupt = |msg: String| HypergraphError::Corrupt(format!("inverted index: {msg}"));
        crate::io::need(data, 4, "index key count")?;
        let num_keys = data.get_u32_le() as usize;
        let keys = crate::io::read_u32s(data, num_keys, "index keys")?;
        if !crate::setops::is_strictly_sorted(&keys) {
            return Err(corrupt("keys not strictly sorted".into()));
        }
        let offsets = crate::io::read_u32s(data, num_keys + 1, "index offsets")?;
        crate::io::need(data, 4, "index posting count")?;
        let num_postings = data.get_u32_le() as usize;
        let postings = crate::io::read_u32s(data, num_postings, "index postings")?;
        crate::io::need(data, 4, "index row count")?;
        let num_rows = data.get_u32_le();
        let (dense_idx, num_bitmaps) = decode_dense_table(data, num_keys, legacy_side_tables)?;
        let mut bitmaps = Vec::with_capacity(num_bitmaps.min(1024));
        for _ in 0..num_bitmaps {
            let bm = Bitmap::decode_v2(data)?;
            if bm.domain() != num_rows {
                return Err(corrupt(format!(
                    "bitmap domain {} in a {num_rows}-row index",
                    bm.domain()
                )));
            }
            bitmaps.push(bm);
        }
        // The retired compressed containers: a v2/v3 side table, then their
        // count, which is refused before anything it would count is read.
        let comp_table = if legacy_side_tables {
            crate::io::read_u32s(data, num_keys, "index side table")?
        } else {
            Vec::new()
        };
        crate::io::need(data, 4, "index container count")?;
        if data.get_u32_le() != 0 {
            return Err(HypergraphError::CompressedPostings);
        }
        if comp_table.iter().any(|&c| c != u32::MAX) {
            return Err(corrupt(
                "compressed table points past its containers".into(),
            ));
        }

        if offsets[0] != 0 || *offsets.last().unwrap() as usize != postings.len() {
            return Err(corrupt("offsets do not cover the posting array".into()));
        }
        for i in 0..num_keys {
            if offsets[i] > offsets[i + 1] {
                return Err(corrupt("offsets not monotone".into()));
            }
            let list = &postings[offsets[i] as usize..offsets[i + 1] as usize];
            if !crate::setops::is_strictly_sorted(list) {
                return Err(corrupt(format!("posting of key {} not sorted", keys[i])));
            }
            if list.last().is_some_and(|&r| r >= num_rows) {
                return Err(corrupt(format!(
                    "posting of key {} exceeds the {num_rows}-row space",
                    keys[i]
                )));
            }
            let d = dense_idx.get(i).copied().unwrap_or(NO_BITMAP);
            if d != NO_BITMAP && d as usize >= bitmaps.len() {
                return Err(corrupt("dense table points past the bitmaps".into()));
            }
        }
        Ok(Self {
            keys,
            offsets,
            postings,
            num_rows,
            dense_idx,
            bitmaps,
        })
    }
}

/// Decodes the dense side table and the bitmap count: `(table, count)` in
/// the legacy v2/v3 order, where the table is always present; `(count,
/// table)` otherwise, with the table absent at count 0. A table with no
/// bitmap to point at is returned empty, and must hold only [`NO_BITMAP`].
fn decode_dense_table(
    data: &mut &[u8],
    num_keys: usize,
    legacy: bool,
) -> crate::error::Result<(Vec<u32>, usize)> {
    use bytes::Buf;
    let mut table = Vec::new();
    if legacy {
        table = crate::io::read_u32s(data, num_keys, "index side table")?;
    }
    crate::io::need(data, 4, "index container count")?;
    let count = data.get_u32_le() as usize;
    if count == 0 {
        if table.iter().any(|&i| i != NO_BITMAP) {
            return Err(crate::error::HypergraphError::Corrupt(
                "inverted index: dense table points past its containers".into(),
            ));
        }
        return Ok((Vec::new(), 0));
    }
    if !legacy {
        table = crate::io::read_u32s(data, num_keys, "index side table")?;
    }
    Ok((table, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setops::is_strictly_sorted;

    #[test]
    fn build_and_lookup() {
        // Partition 1 of the paper's Table I: e1 = {v2, v4}, e2 = {v4, v6}.
        let rows: Vec<&[u32]> = vec![&[2, 4], &[4, 6]];
        let idx = InvertedIndex::build(&rows);
        assert_eq!(idx.posting(2).to_sorted(), &[0]);
        assert_eq!(idx.posting(4).to_sorted(), &[0, 1]);
        assert_eq!(idx.posting(6).to_sorted(), &[1]);
        assert!(idx.posting(99).is_empty());
        assert_eq!(idx.num_keys(), 3);
        assert_eq!(idx.num_postings(), 4);
    }

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::build(&[]);
        assert_eq!(idx.num_keys(), 0);
        assert!(idx.posting(0).is_empty());
        assert_eq!(idx.size_bytes(), 4); // the single offset sentinel
    }

    #[test]
    fn posting_lists_are_sorted() {
        let rows: Vec<&[u32]> = vec![&[1, 2, 3], &[2, 3], &[1, 3], &[3]];
        let idx = InvertedIndex::build(&rows);
        for (_, posting) in idx.iter() {
            assert!(is_strictly_sorted(&posting.to_sorted()));
        }
        assert_eq!(idx.posting(3).to_sorted(), &[0, 1, 2, 3]);
        assert_eq!(idx.posting(1).to_sorted(), &[0, 2]);
    }

    #[test]
    fn iter_visits_keys_in_order() {
        let rows: Vec<&[u32]> = vec![&[5, 9], &[1, 5]];
        let idx = InvertedIndex::build(&rows);
        let keys: Vec<u32> = idx.iter().map(|(v, _)| v).collect();
        assert_eq!(keys, vec![1, 5, 9]);
    }

    #[test]
    fn size_accounts_all_arrays() {
        let rows: Vec<&[u32]> = vec![&[1, 2]];
        let idx = InvertedIndex::build(&rows);
        // keys=2, offsets=3, postings=2 → 7 u32s; no bitmaps, so the side
        // table is not allocated.
        assert_eq!(idx.size_bytes(), 7 * 4);
        assert_eq!(idx.num_dense_keys(), 0);
    }

    #[test]
    fn small_partitions_stay_list_only() {
        let rows: Vec<Vec<u32>> = (0..100).map(|_| vec![7u32]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let idx = InvertedIndex::build(&refs);
        // Vertex 7 is in every row, but 100 rows < MIN_BITMAP_ROWS.
        assert_eq!(idx.num_dense_keys(), 0);
        assert_eq!(idx.posting(7).repr(), ReprKind::List);
        assert_eq!(idx.posting(7).len(), 100);
    }

    #[test]
    fn dense_keys_get_bitmaps_sparse_keys_do_not() {
        // 512 rows; vertex 1 in every row (dense), vertex `1000 + r` unique
        // per row (sparse).
        let rows: Vec<Vec<u32>> = (0..512u32).map(|r| vec![1, 1000 + r]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let idx = InvertedIndex::build(&refs);
        assert_eq!(idx.num_rows(), 512);
        assert_eq!(idx.num_dense_keys(), 1);

        let dense = idx.posting(1);
        assert_eq!(dense.len(), 512);
        let bits = dense.bits().expect("hub vertex must be dense");
        assert_eq!(bits.to_sorted(), dense.as_list().unwrap());

        let sparse = idx.posting(1000);
        assert_eq!(sparse.to_sorted(), &[0]);
        assert!(sparse.bits().is_none());

        let absent = idx.posting(999);
        assert!(absent.is_empty() && absent.bits().is_none());

        // Bitmap bytes are accounted.
        assert!(idx.size_bytes() > (idx.num_keys() * 3 + 1 + idx.num_postings()) * 4);
    }

    #[test]
    fn forced_repr_env_parsing_is_inert_here() {
        // No environment variable pins a representation: only
        // `set_forced_repr` does, and no unit test calls it.
        assert_eq!(forced_repr(), None);
    }
}
