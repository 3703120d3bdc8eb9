//! Signature-partitioned hyperedge tables (paper §IV-B, Table I).
//!
//! All data hyperedges sharing one signature live in one `Partition`: a CSR
//! table of sorted vertex lists plus the partition's [`InvertedIndex`]. The
//! row count of the table *is* the hyperedge cardinality `Card(eq, H)` used
//! by the matching-order planner (Definition V.2), available in `O(1)`.
//!
//! A partition of one row builds no inverted index and no planner label
//! groups (`indexed`): its `he(v, s)` is `{0}` when `v` is in the row and
//! `∅` otherwise, which the row answers by itself, and every vertex of it
//! has degree one.
//!
//! A partition is two layers. The body (`PartitionBody`) — vertex table,
//! inverted index, planner stats — is a function of the partition's rows
//! alone and sits behind an [`Arc`]; the envelope around it (signature id,
//! global ids) is what a snapshot's canonical renumbering assigns. The
//! dynamic writer ([`crate::dynamic`]) re-issues only envelopes for
//! partitions whose rows an epoch did not change, so their bodies are
//! shared across epochs. An envelope holds no allocation of its own: its
//! global ids are a range of one slab per graph, which the builder, the
//! snapshot decoder and the dynamic snapshot each fill in partition order.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::{EdgeId, Label, SignatureId};
use crate::inverted::{InvertedIndex, Posting, ReprBreakdown};
use crate::stats::PartitionStats;

/// Whether a partition of `rows` rows carries an inverted index and
/// per-label planner stats. With one row the row itself is the index and
/// every degree is one (DESIGN.md §2): every structure that holds either —
/// the frozen body, the dynamic writer's, a snapshot record — keeps them
/// empty below two rows.
#[inline]
pub(crate) fn indexed(rows: usize) -> bool {
    rows >= 2
}

/// The row content of one hyperedge table: immutable once built, and
/// independent of which signature id and global edge ids a snapshot gives
/// the partition.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PartitionBody {
    /// Arity shared by all rows (signatures fix the arity).
    arity: u32,
    /// Flattened sorted vertex lists; row `r` is
    /// `vertices[r*arity..(r+1)*arity]`.
    vertices: Vec<u32>,
    /// vertex → sorted local rows; `Some` iff [`indexed`], so a one-row
    /// body holds a pointer, not an empty index.
    index: Option<Box<InvertedIndex>>,
    /// Cardinality summaries for the cost-based planner (DESIGN.md §13);
    /// no label groups unless [`indexed`]. Covered by `PartialEq`, so the
    /// dynamic snapshot-vs-rebuild oracle also proves the incremental
    /// stats maintenance.
    stats: PartitionStats,
}

/// What [`Partition::index`] lends for a partition below two rows.
static EMPTY_INDEX: InvertedIndex = InvertedIndex::EMPTY;

impl PartitionBody {
    /// Builds the body of `rows`, each a sorted vertex list of `arity`
    /// vertices: the inverted index (from two rows on) and the planner's
    /// cardinality summaries from `labels` (the graph's vertex labels).
    ///
    /// # Panics
    /// Panics if any row's length differs from `arity`, or if row vertex
    /// lists are not strictly sorted (debug builds).
    pub(crate) fn build(arity: u32, rows: Vec<Vec<u32>>, labels: &[Label]) -> Self {
        let mut vertices = Vec::with_capacity(rows.len() * arity as usize);
        for row in &rows {
            assert_eq!(row.len(), arity as usize, "row arity mismatch");
            debug_assert!(
                crate::setops::is_strictly_sorted(row),
                "row vertex lists must be sorted and duplicate-free"
            );
            vertices.extend_from_slice(row);
        }
        let index = if indexed(rows.len()) {
            let row_slices: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
            InvertedIndex::build(&row_slices)
        } else {
            InvertedIndex::EMPTY
        };
        Self::from_index(arity, rows.len(), vertices, index, labels)
    }

    /// Assembles the body of `rows` rows from its flattened vertex table
    /// and a prebuilt index — the snapshot decoder ([`crate::io`]) must not
    /// rebuild it. The planner stats are derived from `index` and `labels`,
    /// so a build and a decode cannot disagree on them. Every key of
    /// `index` must be a vertex of `labels` with a non-empty posting.
    pub(crate) fn from_index(
        arity: u32,
        rows: usize,
        vertices: Vec<u32>,
        index: InvertedIndex,
        labels: &[Label],
    ) -> Self {
        let degrees = index.iter().map(|(v, posting)| (v, posting.len()));
        let stats = PartitionStats::from_degrees(rows, degrees, labels);
        Self::from_parts(arity, vertices, index, stats)
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.stats.rows as usize
    }

    /// Assembles a body from already-flattened rows, a prebuilt index and
    /// already computed stats (whose `rows` is the row count); the index is
    /// kept only if [`indexed`].
    pub(crate) fn from_parts(
        arity: u32,
        vertices: Vec<u32>,
        index: InvertedIndex,
        stats: PartitionStats,
    ) -> Self {
        let rows = stats.rows as usize;
        debug_assert_eq!(rows * arity as usize, vertices.len());
        debug_assert!(if indexed(rows) {
            index.num_rows() as usize == rows
        } else {
            index == InvertedIndex::EMPTY && stats.labels.is_empty()
        });
        Self {
            arity,
            vertices,
            index: indexed(rows).then(|| Box::new(index)),
            stats,
        }
    }
}

/// One hyperedge table: every hyperedge in it has the same signature.
///
/// Equality compares content — the signature id, the global ids and the
/// body's rows, index and stats — never body or slab identity, so
/// snapshot == rebuild-from-scratch stays a byte-level oracle whether or
/// not bodies are shared.
#[derive(Debug, Clone)]
pub struct Partition {
    signature: SignatureId,
    /// Where row 0's global id sits in `gids`.
    first: u32,
    /// The global ids of every partition of the graph, back to back in
    /// partition order; this one's are `first..first + len()`.
    gids: Arc<[EdgeId]>,
    body: Arc<PartitionBody>,
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.signature == other.signature
            && self.global_ids() == other.global_ids()
            && self.body == other.body
    }
}

impl Eq for Partition {}

impl Partition {
    /// Assembles a partition from rows of sorted vertex lists and their
    /// global ids, building the inverted index (from two rows on) and
    /// computing the planner's cardinality summaries from `labels` (the
    /// graph's vertex labels). The ids get a slab of their own; a whole
    /// graph's partitions share one ([`crate::builder`]).
    ///
    /// # Panics
    /// Panics if any row's length differs from `arity`, or if row vertex
    /// lists are not strictly sorted (debug builds).
    pub fn new(
        signature: SignatureId,
        arity: u32,
        rows: Vec<Vec<u32>>,
        global_ids: Vec<EdgeId>,
        labels: &[Label],
    ) -> Self {
        assert_eq!(
            rows.len(),
            global_ids.len(),
            "rows and global ids must align"
        );
        let body = PartitionBody::build(arity, rows, labels);
        Self {
            signature,
            first: 0,
            gids: global_ids.into(),
            body: Arc::new(body),
        }
    }

    /// The partitions of one graph: `bodies` in signature-id order, each in
    /// an envelope whose global ids are the next `rows` ids of `gids`, the
    /// graph's slab. The builder, the snapshot decoder and the dynamic
    /// snapshot (which re-issues only this for a partition whose rows did
    /// not change, [`crate::dynamic`]) all assemble partitions here.
    pub(crate) fn envelopes(
        bodies: impl IntoIterator<Item = Arc<PartitionBody>>,
        gids: Vec<EdgeId>,
    ) -> Vec<Arc<Partition>> {
        let gids: Arc<[EdgeId]> = gids.into();
        let mut first = 0;
        let partitions: Vec<Arc<Partition>> = bodies
            .into_iter()
            .enumerate()
            .map(|(sid, body)| {
                let partition = Self {
                    signature: SignatureId::from_index(sid),
                    first: u32::try_from(first).expect("edge-id overflow"),
                    gids: Arc::clone(&gids),
                    body,
                };
                first += partition.len();
                Arc::new(partition)
            })
            .collect();
        assert_eq!(first, gids.len(), "the slab holds every row's id");
        partitions
    }

    /// The body's shared handle (the dynamic writer keeps and re-issues it).
    #[inline]
    pub(crate) fn body_arc(&self) -> &Arc<PartitionBody> {
        &self.body
    }

    /// The slab this partition's global ids are a range of.
    #[cfg(test)]
    pub(crate) fn gid_slab(&self) -> &Arc<[EdgeId]> {
        &self.gids
    }

    /// The signature id all rows in this partition share.
    #[inline]
    pub fn signature(&self) -> SignatureId {
        self.signature
    }

    /// Arity of every hyperedge in this partition.
    #[inline]
    pub fn arity(&self) -> u32 {
        self.body.arity
    }

    /// Number of hyperedges — the `O(1)` cardinality used by the planner.
    #[inline]
    pub fn len(&self) -> usize {
        self.body.rows()
    }

    /// Whether the partition holds no hyperedges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted vertex list of local row `row`.
    #[inline]
    pub fn row(&self, row: u32) -> &[u32] {
        let a = self.body.arity as usize;
        let start = row as usize * a;
        &self.body.vertices[start..start + a]
    }

    /// Global edge id of local row `row`.
    #[inline]
    pub fn global_id(&self, row: u32) -> EdgeId {
        self.global_ids()[row as usize]
    }

    /// All global ids, indexed by local row.
    #[inline]
    pub fn global_ids(&self) -> &[EdgeId] {
        &self.gids[self.first as usize..][..self.len()]
    }

    /// The partition's inverted hyperedge index: a shared empty one for a
    /// one-row partition, so read postings through
    /// [`Partition::incident_posting`] or [`Partition::postings`].
    #[inline]
    pub fn index(&self) -> &InvertedIndex {
        self.body.index.as_deref().unwrap_or(&EMPTY_INDEX)
    }

    /// The flattened vertex table (`len * arity` sorted lists back to
    /// back) — the serialisation path writes it verbatim.
    #[inline]
    pub(crate) fn raw_vertices(&self) -> &[u32] {
        &self.body.vertices
    }

    /// The planner's cardinality summaries for this partition
    /// ([`PartitionStats`], DESIGN.md §13).
    #[inline]
    pub fn stats(&self) -> &PartitionStats {
        &self.body.stats
    }

    /// Posting set of local rows incident to `vertex` — `he(v, s)` for this
    /// partition's signature `s` — in whichever representation the index
    /// chose (sorted list or bitmap-augmented list); Algorithm 4
    /// dispatches on it to pick the cheapest kernel.
    /// A one-row partition answers from its row: `[0]` or empty.
    #[inline]
    pub fn incident_posting(&self, vertex: u32) -> Posting<'_> {
        match &self.body.index {
            Some(index) => index.posting(vertex),
            None => self.row_posting(vertex),
        }
    }

    /// `he(v, s)` of a partition of at most one row, read off the row.
    /// Kept out of line so that [`Partition::incident_posting`] inlines as
    /// little more than the index lookup.
    #[inline(never)]
    fn row_posting(&self, vertex: u32) -> Posting<'_> {
        if !self.is_empty() && self.row(0).binary_search(&vertex).is_ok() {
            Posting::List(&[0])
        } else {
            Posting::EMPTY
        }
    }

    /// Iterates `(vertex, posting)` pairs in ascending vertex order — every
    /// incidence of the partition, a one-row partition's included.
    pub fn postings(&self) -> impl Iterator<Item = (u32, Posting<'_>)> {
        let single: &[u32] = if indexed(self.len()) || self.is_empty() {
            &[]
        } else {
            self.row(0)
        };
        let one_row = single.iter().map(|&v| (v, Posting::List(&[0])));
        self.index().iter().chain(one_row)
    }

    /// Per-representation key and byte accounting of the partition's
    /// postings (CLI `stats`). A one-row partition reports its row as list
    /// postings at 0 index bytes, so postings always total `len × arity`.
    pub fn repr_breakdown(&self) -> ReprBreakdown {
        if let Some(index) = &self.body.index {
            return index.repr_breakdown();
        }
        let incidences = self.body.vertices.len();
        ReprBreakdown {
            list_keys: incidences,
            list_postings: incidences,
            ..ReprBreakdown::default()
        }
    }

    /// Iterates `(local row, vertex list)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.len() as u32).map(move |r| (r, self.row(r)))
    }

    /// Approximate heap size of the table (vertex lists + global ids),
    /// excluding the inverted index.
    pub fn table_size_bytes(&self) -> usize {
        self.body.vertices.len() * std::mem::size_of::<u32>()
            + self.len() * std::mem::size_of::<EdgeId>()
    }

    /// Approximate heap size of the inverted index (0 for one row).
    pub fn index_size_bytes(&self) -> usize {
        self.index().size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Labels of the paper's Fig. 1b data graph (A=0, B=1, C=2).
    fn sample_labels() -> Vec<Label> {
        [0u32, 2, 0, 0, 1, 2, 0].map(Label::new).to_vec()
    }

    fn sample() -> Partition {
        // Partition 3 of the paper's Table I: signature {A,A,B,C};
        // e5 = {v0,v1,v4,v6}, e6 = {v2,v3,v4,v5}.
        Partition::new(
            SignatureId::new(2),
            4,
            vec![vec![0, 1, 4, 6], vec![2, 3, 4, 5]],
            vec![EdgeId::new(4), EdgeId::new(5)],
            &sample_labels(),
        )
    }

    #[test]
    fn rows_and_globals() {
        let p = sample();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.arity(), 4);
        assert_eq!(p.row(0), &[0, 1, 4, 6]);
        assert_eq!(p.row(1), &[2, 3, 4, 5]);
        assert_eq!(p.global_id(0), EdgeId::new(4));
        assert_eq!(p.global_id(1), EdgeId::new(5));
    }

    #[test]
    fn incident_postings_match_paper_table() {
        let p = sample();
        assert_eq!(p.incident_posting(0).to_sorted(), vec![0]);
        assert_eq!(p.incident_posting(4).to_sorted(), vec![0, 1]); // v4 → [e5, e6]
        assert_eq!(p.incident_posting(5).to_sorted(), vec![1]);
        assert!(p.incident_posting(7).is_empty());
    }

    #[test]
    fn one_row_partition_answers_from_its_row() {
        let p = Partition::new(
            SignatureId::new(0),
            3,
            vec![vec![1, 4, 6]],
            vec![EdgeId::new(0)],
            &sample_labels(),
        );
        assert_eq!(p.index_size_bytes(), 0);
        assert_eq!(*p.index(), InvertedIndex::default());
        // Every degree is one: no label groups, and the planner reads 1.0.
        assert!(p.stats().labels.is_empty());
        assert_eq!(p.stats().size_biased_degree(Label::new(0)), 1.0);
        for v in 0..8 {
            let want: &[u32] = if [1, 4, 6].contains(&v) { &[0] } else { &[] };
            assert_eq!(p.incident_posting(v).to_sorted(), want, "vertex {v}");
        }
        let keys: Vec<u32> = p.postings().map(|(v, _)| v).collect();
        assert_eq!(keys, vec![1, 4, 6]);
        let b = p.repr_breakdown();
        assert_eq!((b.list_keys, b.list_postings, b.total_bytes()), (3, 3, 0));
        assert_eq!(
            *p.stats(),
            crate::stats::PartitionStats::recompute(&p, &sample_labels())
        );
    }

    #[test]
    fn iter_rows_covers_table() {
        let p = sample();
        let rows: Vec<u32> = p.iter_rows().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn sizes_are_positive() {
        let p = sample();
        assert_eq!(p.table_size_bytes(), (8 + 2) * 4);
        assert!(p.index_size_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let _ = Partition::new(
            SignatureId::new(0),
            3,
            vec![vec![0, 1]],
            vec![EdgeId::new(0)],
            &sample_labels(),
        );
    }

    #[test]
    #[should_panic(expected = "rows and global ids")]
    fn misaligned_ids_panic() {
        let _ = Partition::new(
            SignatureId::new(0),
            1,
            vec![vec![0]],
            vec![],
            &sample_labels(),
        );
    }

    #[test]
    fn stats_summarise_labels_and_degrees() {
        let p = sample();
        let s = p.stats();
        assert_eq!(s.rows, 2);
        // Labels present: A (v0..v3, v6 subset), B (v4), C (v1, v5).
        let labels: Vec<u32> = s.labels.iter().map(|g| g.label.raw()).collect();
        assert_eq!(labels, vec![0, 1, 2]);
        // A: v0, v1? no — v1 is C. A-vertices here: v0, v2, v3, v6, each in
        // one row — 4 distinct, 4 incidences, Σd² = 4.
        let a = s.label_group(Label::new(0)).unwrap();
        assert_eq!((a.distinct_vertices, a.incidences), (4, 4));
        assert_eq!(a.sum_sq_degrees, 4);
        // B: v4 in both rows — degree 2, size-biased mean 4/2.
        let b = s.label_group(Label::new(1)).unwrap();
        assert_eq!((b.distinct_vertices, b.incidences), (1, 2));
        assert_eq!(b.sum_sq_degrees, 4);
        assert!((b.size_biased_degree() - 2.0).abs() < 1e-12);
        assert_eq!(s.size_biased_degree(Label::new(1)), b.size_biased_degree());
        // Absent label has no group.
        assert!(s.label_group(Label::new(9)).is_none());
        // Equality with the recompute oracle is definitional here.
        assert_eq!(
            *s,
            crate::stats::PartitionStats::recompute(&p, &sample_labels())
        );
    }
}
