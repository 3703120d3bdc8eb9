//! Mutable construction of [`Hypergraph`]s.
//!
//! The builder performs the paper's offline preprocessing (§IV, §VII-A):
//! vertices inside a hyperedge are deduplicated, repeated hyperedges are
//! dropped (or rejected, per [`DuplicatePolicy`]), hyperedges are grouped
//! into signature partitions, and the inverted indices are built.

use std::sync::Arc;

use crate::error::{HypergraphError, Result};
use crate::fxhash::FxHashMap;
use crate::hypergraph::{EdgeLocation, Hypergraph};
use crate::ids::{EdgeId, Label, SignatureId, VertexId};
use crate::partition::{Partition, PartitionBody};
use crate::signature::SignatureInterner;

/// How the builder treats inputs the paper's preprocessing would clean up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Silently drop repeated hyperedges and repeated vertices within a
    /// hyperedge — mirrors the paper's dataset preprocessing.
    #[default]
    Dedupe,
    /// Return an error on any duplicate.
    Reject,
}

/// Incrementally builds a [`Hypergraph`].
#[derive(Debug, Default)]
pub struct HypergraphBuilder {
    labels: Vec<Label>,
    edges: Vec<Vec<u32>>,
    policy: DuplicatePolicy,
    seen_edges: FxHashMap<Vec<u32>, ()>,
}

impl HypergraphBuilder {
    /// Creates an empty builder with the default (paper-style) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with an explicit duplicate policy.
    pub fn with_policy(policy: DuplicatePolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Adds a vertex with `label`, returning its id (dense, in call order).
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId::from_index(self.labels.len());
        self.labels.push(label);
        id
    }

    /// Adds `n` vertices all labelled `label`; returns the first id.
    pub fn add_vertices(&mut self, n: usize, label: Label) -> VertexId {
        let first = VertexId::from_index(self.labels.len());
        self.labels.extend(std::iter::repeat_n(label, n));
        first
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of (kept) hyperedges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a hyperedge over raw vertex ids. Vertices may arrive unsorted;
    /// duplicates inside the edge and repeated edges are handled per policy.
    ///
    /// Returns the prospective edge id, or `None` if a duplicate edge was
    /// dropped under [`DuplicatePolicy::Dedupe`].
    pub fn add_edge(&mut self, mut vertices: Vec<u32>) -> Result<Option<EdgeId>> {
        let edge_index = self.edges.len();
        let repeated = canonical_edge(&mut vertices, self.labels.len(), edge_index)?;
        if repeated && self.policy == DuplicatePolicy::Reject {
            return Err(HypergraphError::DuplicateVertex {
                vertex: first_dup(&vertices),
            });
        }
        if self.seen_edges.contains_key(&vertices) {
            return match self.policy {
                DuplicatePolicy::Dedupe => Ok(None),
                DuplicatePolicy::Reject => Err(HypergraphError::DuplicateHyperedge { edge_index }),
            };
        }
        self.seen_edges.insert(vertices.clone(), ());
        self.edges.push(vertices);
        Ok(Some(EdgeId::from_index(edge_index)))
    }

    /// Adds a hyperedge over typed vertex ids.
    pub fn add_edge_ids(
        &mut self,
        vertices: impl IntoIterator<Item = VertexId>,
    ) -> Result<Option<EdgeId>> {
        self.add_edge(vertices.into_iter().map(VertexId::raw).collect())
    }

    /// Finalises the hypergraph: partitions by signature, builds inverted
    /// indices and the edge locator. The partitions' global ids are ranges
    /// of one slab, filled in partition order.
    pub fn build(self) -> Result<Hypergraph> {
        let Self {
            labels,
            edges,
            seen_edges,
            ..
        } = self;
        // The duplicate check's copy of every edge is done with.
        drop(seen_edges);

        // Group edges by signature, preserving global insertion order ids.
        let mut interner = SignatureInterner::new();
        let mut groups: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut locator = vec![
            EdgeLocation {
                signature: SignatureId::new(0),
                row: 0
            };
            edges.len()
        ];
        let mut signature: Vec<Label> = Vec::new();
        for (i, edge) in edges.into_iter().enumerate() {
            signature.clear();
            signature.extend(edge.iter().map(|&v| labels[v as usize]));
            signature.sort_unstable();
            let sid = interner.intern_sorted(&signature);
            if sid.index() == groups.len() {
                groups.push(Vec::new());
            }
            let rows = &mut groups[sid.index()];
            locator[i] = EdgeLocation {
                signature: sid,
                row: rows.len() as u32,
            };
            rows.push(edge);
        }

        // Partition `p`'s ids start where the rows of those before it end.
        let mut first = Vec::with_capacity(groups.len());
        let mut end = 0;
        for rows in &groups {
            first.push(end);
            end += rows.len();
        }
        let mut gids = vec![EdgeId::new(0); end];
        for (i, loc) in locator.iter().enumerate() {
            gids[first[loc.signature.index()] + loc.row as usize] = EdgeId::from_index(i);
        }
        let mut counts = vec![0; labels.len()];
        let bodies = groups.into_iter().enumerate().map(|(sid, rows)| {
            let arity = interner.resolve(SignatureId::from_index(sid)).arity() as u32;
            Arc::new(PartitionBody::build(arity, rows, &labels, &mut counts))
        });
        let partitions = Partition::envelopes(bodies, gids);

        Ok(Hypergraph::assemble(labels, interner, partitions, locator))
    }
}

/// The rule every hyperedge passes on its way in, here and in
/// `hgmatch_core::QueryShape`: an empty edge, or one naming a vertex not
/// below `num_vertices`, is rejected; the rest is sorted and its repeated
/// vertices dropped. `edge_index` is the id the edge would get (the number
/// of edges kept before it), which the errors report. Returns whether a
/// vertex repeated.
///
/// # Errors
/// [`HypergraphError::EmptyHyperedge`] or [`HypergraphError::UnknownVertex`].
pub fn canonical_edge(
    vertices: &mut Vec<u32>,
    num_vertices: usize,
    edge_index: usize,
) -> Result<bool> {
    if vertices.is_empty() {
        return Err(HypergraphError::EmptyHyperedge { edge_index });
    }
    if let Some(&vertex) = vertices.iter().find(|&&v| v as usize >= num_vertices) {
        return Err(HypergraphError::UnknownVertex { vertex, edge_index });
    }
    vertices.sort_unstable();
    let before = vertices.len();
    vertices.dedup();
    Ok(vertices.len() != before)
}

fn first_dup(sorted_dedup: &[u32]) -> u32 {
    // After dedup we cannot recover which value repeated without the
    // original; report the first element as the offending vertex set member.
    sorted_dedup.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_empty() {
        let h = HypergraphBuilder::new().build().unwrap();
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(h.num_edges(), 0);
        assert_eq!(h.num_labels(), 0);
        assert_eq!(h.average_arity(), 0.0);
        assert_eq!(h.max_arity(), 0);
    }

    #[test]
    fn unknown_vertex_rejected() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(0));
        let err = b.add_edge(vec![0, 5]).unwrap_err();
        assert!(matches!(
            err,
            HypergraphError::UnknownVertex { vertex: 5, .. }
        ));
    }

    #[test]
    fn empty_edge_rejected() {
        let mut b = HypergraphBuilder::new();
        let err = b.add_edge(vec![]).unwrap_err();
        assert!(matches!(err, HypergraphError::EmptyHyperedge { .. }));
    }

    #[test]
    fn dedupe_policy_drops_duplicates() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(3, Label::new(0));
        assert!(b.add_edge(vec![0, 1]).unwrap().is_some());
        // Same set, different order → dropped.
        assert!(b.add_edge(vec![1, 0]).unwrap().is_none());
        // Repeated vertex inside an edge is deduped: {2,2} → {2}.
        assert!(b.add_edge(vec![2, 2]).unwrap().is_some());
        let h = b.build().unwrap();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.edge_vertices(EdgeId::new(1)), &[2]);
    }

    #[test]
    fn reject_policy_errors_on_duplicates() {
        let mut b = HypergraphBuilder::with_policy(DuplicatePolicy::Reject);
        b.add_vertices(3, Label::new(0));
        b.add_edge(vec![0, 1]).unwrap();
        assert!(matches!(
            b.add_edge(vec![1, 0]).unwrap_err(),
            HypergraphError::DuplicateHyperedge { .. }
        ));
        assert!(matches!(
            b.add_edge(vec![2, 2]).unwrap_err(),
            HypergraphError::DuplicateVertex { .. }
        ));
    }

    #[test]
    fn global_ids_follow_insertion_order() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(0)); // v0: L0
        b.add_vertex(Label::new(1)); // v1: L1
        b.add_vertex(Label::new(0)); // v2: L0
        let e0 = b.add_edge(vec![0, 1]).unwrap().unwrap(); // sig {L0,L1}
        let e1 = b.add_edge(vec![0, 2]).unwrap().unwrap(); // sig {L0,L0}
        let e2 = b.add_edge(vec![1, 2]).unwrap().unwrap(); // sig {L0,L1}
        assert_eq!(
            (e0, e1, e2),
            (EdgeId::new(0), EdgeId::new(1), EdgeId::new(2))
        );
        let h = b.build().unwrap();
        assert_eq!(h.edge_vertices(EdgeId::new(0)), &[0, 1]);
        assert_eq!(h.edge_vertices(EdgeId::new(1)), &[0, 2]);
        assert_eq!(h.edge_vertices(EdgeId::new(2)), &[1, 2]);
        // Two partitions; e0 and e2 share one.
        assert_eq!(h.partitions().len(), 2);
        assert_eq!(
            h.edge_signature(EdgeId::new(0)),
            h.edge_signature(EdgeId::new(2))
        );
        assert_ne!(
            h.edge_signature(EdgeId::new(0)),
            h.edge_signature(EdgeId::new(1))
        );
    }

    #[test]
    fn incidence_lists_sorted_by_global_id() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(4, Label::new(0));
        b.add_vertex(Label::new(1));
        // Insert edges whose partition order differs from global order.
        b.add_edge(vec![0, 4]).unwrap(); // g0, sig {L0,L1}
        b.add_edge(vec![0, 1]).unwrap(); // g1, sig {L0,L0}
        b.add_edge(vec![0, 2]).unwrap(); // g2, sig {L0,L0}
        b.add_edge(vec![0, 3, 4]).unwrap(); // g3, arity 3
        let h = b.build().unwrap();
        assert_eq!(h.incident_edges(VertexId::new(0)), &[0, 1, 2, 3]);
        assert_eq!(h.incident_edges(VertexId::new(4)), &[0, 3]);
        assert_eq!(h.degree(VertexId::new(0)), 4);
    }

    #[test]
    fn num_labels_spans_alphabet() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(7));
        assert_eq!(b.build().unwrap().num_labels(), 8);
    }

    /// Spokes `{0, x}` of a hub with the smallest id: the duplicate-edge map
    /// keys are `[0, x]`, which a hash that is weak in its low bits sends
    /// down one probe chain (4.9 s to add 100 k, 24 s for 200 k, before
    /// `FxHasher::finish` folded the high bits down). Adding stays linear:
    /// 4× the spokes must take under 8× the time, where linear work reads
    /// 4× and the quadratic defect 16×, a factor of 2 of margin each way.
    #[test]
    fn hub_with_smallest_id_adds_in_linear_time() {
        let add_spokes = |n: u32| {
            // Best of three: a ratio of two short timings must not trip on
            // one descheduled run.
            (0..3)
                .map(|_| {
                    let mut b = HypergraphBuilder::new();
                    b.add_vertices(n as usize + 1, Label::new(0));
                    let start = std::time::Instant::now();
                    for x in 1..=n {
                        b.add_edge(vec![0, x]).unwrap();
                    }
                    assert_eq!(b.num_edges(), n as usize);
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let (small, large) = (add_spokes(100_000), add_spokes(400_000));
        assert!(
            large.as_secs_f64() < 8.0 * small.as_secs_f64(),
            "100 k spokes took {small:?}, 400 k took {large:?}"
        );
    }
}
