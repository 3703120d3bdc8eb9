//! The immutable, indexed data hypergraph (paper §IV).
//!
//! A [`Hypergraph`] is the product of offline preprocessing: vertex labels,
//! signature-partitioned hyperedge tables with inverted indices and a global
//! edge locator. The global vertex→edge incidence CSR and the adjacency
//! counts (used by the match-by-vertex baselines, the IHS filter and the
//! query samplers — never by the HGMatch engine) are derived from those on
//! first use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::ids::{EdgeId, Label, SignatureId, VertexId};
use crate::partition::Partition;
use crate::signature::{Signature, SignatureInterner};
use crate::stats::HypergraphStats;

/// Process-unique identity of one assembled snapshot.
///
/// Global edge ids are only meaningful *within* one snapshot — the dynamic
/// writer's compaction remaps them across epochs — so executor scratch
/// caches keyed by edge id (the expansion level stack) must be invalidated
/// whenever they are reused against a different snapshot, even one with
/// overlapping edge ids. Snapshot identity is not part of hypergraph
/// *content*: [`Hypergraph`]'s equality leaves it out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapshotUid(u64);

impl SnapshotUid {
    fn fresh() -> Self {
        // Starts at 1 so 0 can mean "no snapshot yet" in caches.
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Where a global hyperedge lives: its partition and local row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeLocation {
    /// Partition (signature) the edge belongs to.
    pub signature: SignatureId,
    /// Row inside the partition table.
    pub row: u32,
}

/// Global incidence CSR: `offsets[v]..offsets[v+1]` indexes the sorted
/// global edge ids incident to vertex `v`.
#[derive(Debug, Clone)]
struct Incidence {
    offsets: Vec<u64>,
    edges: Vec<u32>,
}

/// An immutable vertex-labelled hypergraph in HGMatch's partitioned layout.
///
/// Partitions are [`Arc`]-shared, and each shares its row content (the
/// partition body, see [`crate::partition`]) with the previous epoch's
/// when the dynamic snapshot path ([`crate::dynamic`]) found its rows
/// unchanged.
///
/// Equality compares content: labels, signatures, partitions and locator.
/// The incidence CSR and adjacency counts are functions of those and the
/// snapshot uid is identity, so none of the three takes part.
#[derive(Debug, Clone)]
pub struct Hypergraph {
    pub(crate) labels: Vec<Label>,
    pub(crate) num_labels: u32,
    pub(crate) interner: SignatureInterner,
    pub(crate) partitions: Vec<Arc<Partition>>,
    pub(crate) locator: Vec<EdgeLocation>,
    /// Built by the first reader ([`Hypergraph::incidence`]).
    incidence: OnceLock<Incidence>,
    /// `|adj(v)|` per vertex (number of distinct adjacent vertices), for
    /// the IHS filter; built by the first reader.
    adj_counts: OnceLock<Vec<u32>>,
    /// Process-unique snapshot identity.
    pub(crate) uid: SnapshotUid,
}

impl PartialEq for Hypergraph {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
            && self.interner == other.interner
            && self.partitions == other.partitions
            && self.locator == other.locator
    }
}

impl Hypergraph {
    /// Assembles a hypergraph from its partition tables and edge locator.
    /// Shared by the offline [`crate::builder::HypergraphBuilder`] and the
    /// dynamic snapshot path ([`crate::dynamic`]); the derived state is
    /// left to its first reader, so neither pays for it.
    pub(crate) fn assemble(
        labels: Vec<Label>,
        interner: SignatureInterner,
        partitions: Vec<Arc<Partition>>,
        locator: Vec<EdgeLocation>,
    ) -> Self {
        let num_labels = labels.iter().map(|l| l.raw() + 1).max().unwrap_or(0);
        Hypergraph {
            labels,
            num_labels,
            interner,
            partitions,
            locator,
            incidence: OnceLock::new(),
            adj_counts: OnceLock::new(),
            uid: SnapshotUid::fresh(),
        }
    }

    /// Seeds the adjacency counts, which the snapshot decoder
    /// ([`crate::io`]) reads from the file rather than derive: they are the
    /// one derived value that costs more to derive than to store
    /// (DESIGN.md §17.2).
    pub(crate) fn with_adj_counts(self, adj_counts: Vec<u32>) -> Self {
        Hypergraph {
            adj_counts: OnceLock::from(adj_counts),
            ..self
        }
    }

    /// The global incidence CSR, built on first use by walking the locator
    /// — already in ascending global-id order, so per-vertex lists come
    /// out sorted.
    fn incidence(&self) -> &Incidence {
        self.incidence.get_or_init(|| {
            let nv = self.labels.len();
            let mut offsets = vec![0u64; nv + 1];
            for p in &self.partitions {
                for &v in p.raw_vertices() {
                    offsets[v as usize + 1] += 1;
                }
            }
            for v in 0..nv {
                offsets[v + 1] += offsets[v];
            }
            let mut cursor = offsets[..nv].to_vec();
            let mut edges = vec![0u32; offsets[nv] as usize];
            for (g, loc) in self.locator.iter().enumerate() {
                for &v in self.partitions[loc.signature.index()].row(loc.row) {
                    let c = &mut cursor[v as usize];
                    edges[*c as usize] = g as u32;
                    *c += 1;
                }
            }
            Incidence { offsets, edges }
        })
    }

    /// `|adj(v)|` per vertex, built on first use.
    pub(crate) fn adj_counts(&self) -> &[u32] {
        self.adj_counts.get_or_init(|| {
            (0..self.num_vertices())
                .map(|v| self.adjacent_vertices(VertexId::from_index(v)).len() as u32)
                .collect()
        })
    }

    /// Process-unique identity of this snapshot (never 0).
    ///
    /// Global edge ids are only comparable between hypergraphs with equal
    /// `uid`: the dynamic writer's compaction remaps ids across epochs, so
    /// caches keyed by edge id (e.g. the executors' expansion level stack)
    /// must reset when this changes. Two snapshots with identical content
    /// still have distinct uids; content equality is `==`.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid.0
    }

    /// Number of vertices `|V(H)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of hyperedges `|E(H)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.locator.len()
    }

    /// Size of the label alphabet `|Σ|`.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.num_labels as usize
    }

    /// Label of a vertex.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v.index()]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The signature interner (signature ⇄ partition id).
    #[inline]
    pub fn interner(&self) -> &SignatureInterner {
        &self.interner
    }

    /// All signature partitions, indexed by [`SignatureId`].
    #[inline]
    pub fn partitions(&self) -> &[Arc<Partition>] {
        &self.partitions
    }

    /// The partition for `id`.
    #[inline]
    pub fn partition(&self, id: SignatureId) -> &Partition {
        &self.partitions[id.index()]
    }

    /// Finds the partition holding hyperedges with `signature`, if any.
    pub fn partition_of(&self, signature: &Signature) -> Option<&Partition> {
        self.interner.get(signature).map(|id| self.partition(id))
    }

    /// `Card(eq, H)`: number of data hyperedges whose signature equals
    /// `signature` (Definition V.2). `O(1)` after an interner lookup.
    pub fn cardinality(&self, signature: &Signature) -> usize {
        self.partition_of(signature).map_or(0, Partition::len)
    }

    /// Where global edge `e` lives.
    #[inline]
    pub fn locate(&self, e: EdgeId) -> EdgeLocation {
        self.locator[e.index()]
    }

    /// Sorted vertex list of global edge `e`.
    #[inline]
    pub fn edge_vertices(&self, e: EdgeId) -> &[u32] {
        let loc = self.locate(e);
        self.partitions[loc.signature.index()].row(loc.row)
    }

    /// Arity of global edge `e`.
    #[inline]
    pub fn edge_arity(&self, e: EdgeId) -> usize {
        let loc = self.locate(e);
        self.partitions[loc.signature.index()].arity() as usize
    }

    /// Signature id of global edge `e`.
    #[inline]
    pub fn edge_signature(&self, e: EdgeId) -> SignatureId {
        self.locate(e).signature
    }

    /// Sorted global edge ids incident to vertex `v` — `he(v)`.
    #[inline]
    pub fn incident_edges(&self, v: VertexId) -> &[u32] {
        let inc = self.incidence();
        &inc.edges[inc.offsets[v.index()] as usize..inc.offsets[v.index() + 1] as usize]
    }

    /// Degree `d(v) = |he(v)|`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.incident_edges(v).len()
    }

    /// `|he_a(v)|`: number of incident hyperedges of arity `a`.
    pub fn degree_with_arity(&self, v: VertexId, arity: usize) -> usize {
        self.incident_edges(v)
            .iter()
            .filter(|&&e| self.edge_arity(EdgeId::new(e)) == arity)
            .count()
    }

    /// `|he(v, s)|`: number of incident hyperedges with signature id `s`.
    #[inline]
    pub fn degree_with_signature(&self, v: VertexId, s: SignatureId) -> usize {
        self.partitions[s.index()].incident_posting(v.raw()).len()
    }

    /// Number of distinct adjacent vertices `|adj(v)|`.
    #[inline]
    pub fn adjacent_count(&self, v: VertexId) -> usize {
        self.adj_counts()[v.index()] as usize
    }

    /// Collects the distinct adjacent vertices of `v`, sorted.
    pub fn adjacent_vertices(&self, v: VertexId) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &e in self.incident_edges(v) {
            out.extend_from_slice(self.edge_vertices(EdgeId::new(e)));
        }
        out.sort_unstable();
        out.dedup();
        if let Ok(pos) = out.binary_search(&v.raw()) {
            out.remove(pos);
        }
        out
    }

    /// Iterates all global edges as `(EdgeId, vertex list)`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (EdgeId, &[u32])> {
        (0..self.num_edges()).map(move |i| {
            let e = EdgeId::from_index(i);
            (e, self.edge_vertices(e))
        })
    }

    /// Average arity `a_H`.
    pub fn average_arity(&self) -> f64 {
        if self.num_edges() == 0 {
            return 0.0;
        }
        let total: usize = self
            .partitions
            .iter()
            .map(|p| p.len() * p.arity() as usize)
            .sum();
        total as f64 / self.num_edges() as f64
    }

    /// Maximum arity `a_max`.
    pub fn max_arity(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.arity() as usize)
            .max()
            .unwrap_or(0)
    }

    /// Computes summary statistics (the columns of the paper's Table II).
    pub fn stats(&self) -> HypergraphStats {
        HypergraphStats::compute(self)
    }

    /// Total bytes of hyperedge tables (the "graph size" of Fig. 7).
    pub fn table_size_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.table_size_bytes()).sum()
    }

    /// Total bytes of inverted indices (the "index size" of Fig. 7).
    pub fn index_size_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.index_size_bytes()).sum()
    }

    /// Tests whether a sorted vertex set exists as a hyperedge, returning its
    /// global id. Used by the match-by-vertex baselines to verify hyperedge
    /// constraints (Theorem III.2).
    pub fn find_edge(&self, sorted_vertices: &[u32]) -> Option<EdgeId> {
        if sorted_vertices.is_empty()
            || sorted_vertices
                .iter()
                .any(|&v| v as usize >= self.labels.len())
        {
            // Unknown vertices cannot be part of any edge (snapshots of a
            // growing dynamic graph may carry vertices older ones lack).
            return None;
        }
        let signature = Signature::new(
            sorted_vertices
                .iter()
                .map(|&v| self.labels[v as usize])
                .collect(),
        );
        let partition = self.partition_of(&signature)?;
        // Probe the partition's inverted index via the least-frequent vertex.
        let mut best: Option<crate::inverted::Posting<'_>> = None;
        for &v in sorted_vertices {
            let posting = partition.incident_posting(v);
            if posting.is_empty() {
                return None;
            }
            if best.is_none_or(|b| posting.len() < b.len()) {
                best = Some(posting);
            }
        }
        best?.list().iter().find_map(|&row| {
            (partition.row(row) == sorted_vertices).then(|| partition.global_id(row))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    /// Builds the data hypergraph of the paper's Fig. 1b.
    pub(crate) fn paper_data_graph() -> Hypergraph {
        // Labels: A=0, B=1, C=2.
        // v0:A v1:C v2:A v3:A v4:B v5:C v6:A
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
            b.add_vertex(Label::new(l));
        }
        // e1..e6 (0-indexed e0..e5 here):
        b.add_edge(vec![2, 4]).unwrap(); // e1 {v2,v4}
        b.add_edge(vec![4, 6]).unwrap(); // e2 {v4,v6}
        b.add_edge(vec![0, 1, 2]).unwrap(); // e3 {v0,v1,v2}
        b.add_edge(vec![3, 5, 6]).unwrap(); // e4 {v3,v5,v6}
        b.add_edge(vec![0, 1, 4, 6]).unwrap(); // e5 {v0,v1,v4,v6}
        b.add_edge(vec![2, 3, 4, 5]).unwrap(); // e6 {v2,v3,v4,v5}
        b.build().unwrap()
    }

    #[test]
    fn fig1_partitions_match_table1() {
        let h = paper_data_graph();
        assert_eq!(h.num_vertices(), 7);
        assert_eq!(h.num_edges(), 6);
        assert_eq!(h.partitions().len(), 3);

        // {A,B} partition holds e1, e2.
        let ab = Signature::new(vec![Label::new(0), Label::new(1)]);
        let p = h.partition_of(&ab).expect("AB partition");
        assert_eq!(p.len(), 2);
        assert_eq!(h.cardinality(&ab), 2);

        // {A,A,C} partition holds e3, e4.
        let aac = Signature::new(vec![Label::new(0), Label::new(0), Label::new(2)]);
        assert_eq!(h.cardinality(&aac), 2);

        // {A,A,B,C} partition holds e5, e6.
        let aabc = Signature::new(vec![
            Label::new(0),
            Label::new(0),
            Label::new(1),
            Label::new(2),
        ]);
        assert_eq!(h.cardinality(&aabc), 2);

        // Missing signature has zero cardinality.
        let none = Signature::new(vec![Label::new(1), Label::new(1)]);
        assert_eq!(h.cardinality(&none), 0);
    }

    #[test]
    fn incidence_and_degrees() {
        let h = paper_data_graph();
        // v4 (B) is in e1, e2, e5, e6 → global ids 0, 1, 4, 5.
        assert_eq!(h.incident_edges(VertexId::new(4)), &[0, 1, 4, 5]);
        assert_eq!(h.degree(VertexId::new(4)), 4);
        assert_eq!(h.degree_with_arity(VertexId::new(4), 2), 2);
        assert_eq!(h.degree_with_arity(VertexId::new(4), 4), 2);
        assert_eq!(h.degree_with_arity(VertexId::new(4), 3), 0);
    }

    #[test]
    fn adjacency() {
        let h = paper_data_graph();
        // v0 is in e3 {v0,v1,v2} and e5 {v0,v1,v4,v6} → adj = {1,2,4,6}.
        assert_eq!(h.adjacent_vertices(VertexId::new(0)), vec![1, 2, 4, 6]);
        assert_eq!(h.adjacent_count(VertexId::new(0)), 4);
    }

    #[test]
    fn derived_state_is_outside_equality_and_built_once_under_a_race() {
        let h = paper_data_graph();
        let unread = paper_data_graph();
        // Eight threads race the first use; `OnceLock` admits one builder,
        // so all of them must see the same allocation and the same values.
        let barrier = std::sync::Barrier::new(8);
        let seen: Vec<(&[u32], usize)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let edges = h.incident_edges(VertexId::new(4));
                        (edges, h.adjacent_count(VertexId::new(0)))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for &(edges, adj) in &seen {
            assert_eq!((edges, adj), (&[0, 1, 4, 5][..], 4));
            assert_eq!(edges.as_ptr(), seen[0].0.as_ptr());
        }
        // A graph whose derived state was read equals one where it never was.
        assert!(unread.incidence.get().is_none() && h.incidence.get().is_some());
        assert_eq!(h, unread);
    }

    #[test]
    fn edge_lookup() {
        let h = paper_data_graph();
        assert_eq!(h.edge_vertices(EdgeId::new(2)), &[0, 1, 2]);
        assert_eq!(h.edge_arity(EdgeId::new(4)), 4);
        assert_eq!(h.find_edge(&[2, 4]), Some(EdgeId::new(0)));
        assert_eq!(h.find_edge(&[0, 1, 4, 6]), Some(EdgeId::new(4)));
        assert_eq!(h.find_edge(&[0, 2]), None); // same labels as no edge
        assert_eq!(h.find_edge(&[]), None);
        assert_eq!(h.find_edge(&[0, 3]), None); // signature exists ({A,A})? no
    }

    #[test]
    fn arity_summaries() {
        let h = paper_data_graph();
        assert_eq!(h.max_arity(), 4);
        let avg = h.average_arity();
        assert!((avg - 3.0).abs() < 1e-9, "avg arity {avg}");
    }

    #[test]
    fn degree_with_signature_matches_partition_postings() {
        let h = paper_data_graph();
        let aabc = Signature::new(vec![
            Label::new(0),
            Label::new(0),
            Label::new(1),
            Label::new(2),
        ]);
        let sid = h.interner().get(&aabc).unwrap();
        assert_eq!(h.degree_with_signature(VertexId::new(4), sid), 2);
        assert_eq!(h.degree_with_signature(VertexId::new(0), sid), 1);
    }
}
