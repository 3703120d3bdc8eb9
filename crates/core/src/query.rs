//! Query-side analysis.
//!
//! A [`QueryShape`] is a query as the serving API admits it: vertex labels
//! plus canonical hyperedge vertex lists in one flat word list, which is
//! also the plan cache's key. A [`QueryGraph`] is derived from a shape
//! with the structure the planner and the matching operators need:
//! per-hyperedge signatures, hyperedge adjacency as 64-bit masks, and
//! per-vertex incidence masks. Queries in the paper's workloads have at
//! most six hyperedges; the engine supports up to 64 so that all
//! incidence sets fit in one word.

use std::ops::Range;
use std::sync::Arc;

use hgmatch_hypergraph::builder::canonical_edge;
use hgmatch_hypergraph::fxhash::FxHashSet;
use hgmatch_hypergraph::{Hypergraph, Label, Signature};

use crate::error::{MatchError, Result};

/// Maximum number of query hyperedges (incidence masks are `u64`).
pub const MAX_QUERY_EDGES: usize = 64;

/// Validates the engine-level shape constraints of a query hypergraph
/// without compiling it: non-empty, and at most [`MAX_QUERY_EDGES`]
/// hyperedges — which is also [`crate::MAX_PLAN_STEPS`], the width of the
/// per-position `StepCounts` accounting, so anything longer would not
/// merely be slow but silently truncate its own observability. Shared by
/// the CLI's query-file parsers, [`QueryShape::new`] and every
/// [`QueryGraph`], so untrusted input is rejected with one clear
/// diagnostic at the edge instead of failing deep inside submission.
///
/// # Errors
/// [`MatchError::EmptyQuery`] or [`MatchError::QueryTooLarge`].
pub fn validate_query_shape(query: &Hypergraph) -> Result<()> {
    check_edge_count(query.num_edges())
}

fn check_edge_count(edges: usize) -> Result<()> {
    if edges == 0 {
        return Err(MatchError::EmptyQuery);
    }
    if edges > MAX_QUERY_EDGES {
        return Err(MatchError::QueryTooLarge {
            edges,
            max: MAX_QUERY_EDGES,
        });
    }
    Ok(())
}

/// A query in canonical flat form, one shared word list:
/// `[|V|, labels…, |e₀|, e₀…, |e₁|, e₁…]`, each edge sorted with no
/// repeated vertex and no edge repeated.
///
/// This is what [`crate::MatchServer`] admits and what its plan cache
/// keys on: two shapes are equal exactly when they are the *same*
/// labelled hypergraph, for which the planner provably produces the same
/// plan against a fixed data hypergraph (isomorphic but relabelled
/// queries differ: canonical labelling would cost more than Algorithm 3
/// saves on the paper's ≤ 6-edge queries). A cache hit derives nothing else
/// from it; a miss derives the [`QueryGraph`]. Building a shape costs one
/// pass over the input, with none of a [`Hypergraph`]'s signature
/// partitions or inverted postings.
///
/// [`QueryShape::new`] applies [`hgmatch_hypergraph::HypergraphBuilder`]'s
/// default rules and [`validate_query_shape`]'s limits, and accepts or
/// rejects exactly what those two do, with the same diagnostics. A shape
/// taken `From<&Hypergraph>` already obeys the builder's rules; its edge
/// count is checked where a [`QueryGraph`] is derived from it, so a shape
/// past the limits is never planned or cached.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryShape(Arc<[u32]>);

impl QueryShape {
    /// The shape of the query whose vertex `i` has `labels[i]` and whose
    /// hyperedges are `edges`, in order, under the builder's default
    /// rules: each edge is sorted and its repeated vertices dropped, a
    /// repeated edge is dropped, an empty edge or an unknown vertex is an
    /// error.
    ///
    /// # Errors
    /// [`MatchError::InvalidHyperedge`] for the first edge the builder
    /// would refuse (its `reason` is the builder's error text), then
    /// [`MatchError::EmptyQuery`] or [`MatchError::QueryTooLarge`] on the
    /// deduplicated edge count.
    pub fn new<E: Into<Vec<u32>>>(
        labels: &[Label],
        edges: impl IntoIterator<Item = E>,
    ) -> Result<Self> {
        let mut words = vec![labels.len() as u32];
        words.extend(labels.iter().map(|l| l.raw()));
        let mut seen = FxHashSet::default();
        for (i, edge) in edges.into_iter().enumerate() {
            let mut vertices = edge.into();
            canonical_edge(&mut vertices, labels.len(), seen.len()).map_err(|e| {
                MatchError::InvalidHyperedge {
                    edge: i,
                    reason: e.to_string(),
                }
            })?;
            if !seen.contains(&vertices) {
                words.push(vertices.len() as u32);
                words.extend_from_slice(&vertices);
                seen.insert(vertices);
            }
        }
        check_edge_count(seen.len())?;
        Ok(Self(words.into()))
    }

    /// Number of query vertices `|V(q)|`.
    pub fn num_vertices(&self) -> usize {
        self.0[0] as usize
    }

    /// The vertex labels, as raw label ids.
    pub fn labels(&self) -> &[u32] {
        &self.0[1..=self.num_vertices()]
    }

    /// The hyperedges in order, each a sorted vertex list.
    pub fn edges(&self) -> impl Iterator<Item = &[u32]> {
        self.edge_ranges().map(|r| &self.0[r])
    }

    /// Where each hyperedge's vertices sit in the word list.
    fn edge_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut at = 1 + self.num_vertices();
        std::iter::from_fn(move || {
            let len = *self.0.get(at)? as usize;
            let range = at + 1..at + 1 + len;
            at = range.end;
            Some(range)
        })
    }
}

impl From<&Hypergraph> for QueryShape {
    fn from(query: &Hypergraph) -> Self {
        let len = 1
            + query.num_vertices()
            + query
                .iter_edges()
                .map(|(_, vs)| 1 + vs.len())
                .sum::<usize>();
        let mut words =
            std::iter::once(query.num_vertices() as u32)
                .chain(query.labels().iter().map(|l| l.raw()))
                .chain(query.iter_edges().flat_map(|(_, vs)| {
                    std::iter::once(vs.len() as u32).chain(vs.iter().copied())
                }));
        // Driven by a range, the iterator's exact length is known up front,
        // so the shared slice is allocated once at its final size.
        Self(
            (0..len)
                .map(|_| words.next().expect("`len` counts every word"))
                .collect(),
        )
    }
}

/// A query shape plus derived matching structure.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    shape: QueryShape,
    /// Where the sorted vertex list of each query hyperedge sits in
    /// `shape`.
    edges: Vec<Range<usize>>,
    /// Signature per query hyperedge.
    signatures: Vec<Signature>,
    /// Label per query vertex.
    labels: Vec<Label>,
    /// Bitmask of hyperedges adjacent to hyperedge `i` (excluding `i`).
    adjacency: Vec<u64>,
    /// Bitmask of hyperedges incident to vertex `v`.
    incidence: Vec<u64>,
}

impl QueryGraph {
    /// Analyses a query hypergraph: [`QueryGraph::from_shape`] of its
    /// [`QueryShape`].
    ///
    /// # Errors
    /// Fails if the query has no hyperedges or more than
    /// [`MAX_QUERY_EDGES`].
    pub fn new(query: &Hypergraph) -> Result<Self> {
        Self::from_shape(&QueryShape::from(query))
    }

    /// Analyses a query shape.
    ///
    /// # Errors
    /// Fails if the shape has no hyperedges or more than
    /// [`MAX_QUERY_EDGES`].
    pub fn from_shape(shape: &QueryShape) -> Result<Self> {
        let edges: Vec<Range<usize>> = shape.edge_ranges().collect();
        check_edge_count(edges.len())?;
        let labels: Vec<Label> = shape.labels().iter().map(|&l| Label::new(l)).collect();
        let signatures: Vec<Signature> = shape
            .edges()
            .map(|vs| Signature::new(vs.iter().map(|&v| labels[v as usize]).collect()))
            .collect();

        let mut incidence = vec![0u64; labels.len()];
        for (i, vs) in shape.edges().enumerate() {
            for &v in vs {
                incidence[v as usize] |= 1 << i;
            }
        }

        let adjacency = shape
            .edges()
            .enumerate()
            .map(|(i, vs)| vs.iter().fold(0, |mask, &v| mask | incidence[v as usize]) & !(1 << i))
            .collect();

        Ok(Self {
            shape: shape.clone(),
            edges,
            signatures,
            labels,
            adjacency,
            incidence,
        })
    }

    /// Number of query hyperedges `|E(q)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of query vertices `|V(q)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Sorted vertex list of query hyperedge `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> &[u32] {
        &self.shape.0[self.edges[i].clone()]
    }

    /// Signature of query hyperedge `i`.
    #[inline]
    pub fn signature(&self, i: usize) -> &Signature {
        &self.signatures[i]
    }

    /// Label of query vertex `v`.
    #[inline]
    pub fn label(&self, v: u32) -> Label {
        self.labels[v as usize]
    }

    /// Bitmask of hyperedges adjacent to hyperedge `i` (sharing ≥1 vertex).
    #[inline]
    pub fn adjacent_edges(&self, i: usize) -> u64 {
        self.adjacency[i]
    }

    /// Bitmask of hyperedges incident to vertex `v`.
    #[inline]
    pub fn incident_edges(&self, v: u32) -> u64 {
        self.incidence[v as usize]
    }

    /// Degree of vertex `v` within the hyperedge subset `mask`.
    #[inline]
    pub fn degree_within(&self, v: u32, mask: u64) -> u32 {
        (self.incidence[v as usize] & mask).count_ones()
    }

    /// Average arity `a_q` of the query (used in the memory-bound theorem).
    pub fn average_arity(&self) -> f64 {
        let total: usize = self.edges.iter().map(ExactSizeIterator::len).sum();
        total as f64 / self.edges.len() as f64
    }

    /// Whether the query is connected (every hyperedge reachable from the
    /// first through shared vertices). The paper assumes connected queries;
    /// the planner falls back gracefully for disconnected ones.
    pub fn is_connected(&self) -> bool {
        let ne = self.num_edges();
        let mut visited = 1u64;
        let mut frontier = 1u64;
        while frontier != 0 {
            let mut next = 0u64;
            let mut f = frontier;
            while f != 0 {
                let i = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.adjacency[i] & !visited;
            }
            visited |= next;
            frontier = next;
        }
        visited.count_ones() as usize == ne
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgmatch_hypergraph::HypergraphBuilder;

    /// The paper's Fig. 1a query: u0:A u1:C u2:A u3:A u4:B,
    /// edges ({u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}).
    pub(crate) fn paper_query() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap();
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![0, 1, 3, 4]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn the_shape_is_the_flat_canonical_form() {
        let mut b = HypergraphBuilder::new();
        for &l in &[4u32, 5, 6] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 0, 1]).unwrap();
        b.add_edge(vec![1, 2]).unwrap();
        let shape = QueryShape::from(&b.build().unwrap());
        assert_eq!(&shape.0[..], &[3, 4, 5, 6, 3, 0, 1, 2, 2, 1, 2]);
        assert_eq!(shape.labels(), &[4, 5, 6]);
        let edges: Vec<&[u32]> = shape.edges().collect();
        assert_eq!(edges, [&[0, 1, 2][..], &[1, 2]]);

        let labels = [4, 5, 6].map(Label::new);
        let direct = QueryShape::new(&labels, [vec![2, 1, 0, 2], vec![2, 1], vec![1, 2]]);
        assert_eq!(direct.unwrap(), shape);
    }

    #[test]
    fn rejects_empty_query() {
        let q = HypergraphBuilder::new().build().unwrap();
        assert_eq!(QueryGraph::new(&q).unwrap_err(), MatchError::EmptyQuery);
    }

    #[test]
    fn rejects_oversized_query() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(66, Label::new(0));
        for i in 0..65 {
            b.add_edge(vec![i, i + 1]).unwrap();
        }
        let q = b.build().unwrap();
        assert!(matches!(
            QueryGraph::new(&q).unwrap_err(),
            MatchError::QueryTooLarge { edges: 65, max: 64 }
        ));
    }

    #[test]
    fn adjacency_masks() {
        let q = QueryGraph::new(&paper_query()).unwrap();
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.num_vertices(), 5);
        // e0 {u2,u4} shares u2 with e1 and u4 with e2.
        assert_eq!(q.adjacent_edges(0), 0b110);
        assert_eq!(q.adjacent_edges(1), 0b101);
        assert_eq!(q.adjacent_edges(2), 0b011);
    }

    #[test]
    fn incidence_masks_and_degree() {
        let q = QueryGraph::new(&paper_query()).unwrap();
        // u2 ∈ e0, e1.
        assert_eq!(q.incident_edges(2), 0b011);
        // u0 ∈ e1, e2.
        assert_eq!(q.incident_edges(0), 0b110);
        assert_eq!(q.degree_within(2, 0b001), 1);
        assert_eq!(q.degree_within(2, 0b111), 2);
        assert_eq!(q.degree_within(3, 0b011), 0);
    }

    #[test]
    fn signatures_match_labels() {
        let q = QueryGraph::new(&paper_query()).unwrap();
        assert_eq!(q.signature(0).labels(), &[Label::new(0), Label::new(1)]);
        assert_eq!(
            q.signature(2).labels(),
            &[Label::new(0), Label::new(0), Label::new(1), Label::new(2)]
        );
    }

    #[test]
    fn connectivity() {
        let q = QueryGraph::new(&paper_query()).unwrap();
        assert!(q.is_connected());

        let mut b = HypergraphBuilder::new();
        b.add_vertices(4, Label::new(0));
        b.add_edge(vec![0, 1]).unwrap();
        b.add_edge(vec![2, 3]).unwrap();
        let disconnected = QueryGraph::new(&b.build().unwrap()).unwrap();
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn average_arity() {
        let q = QueryGraph::new(&paper_query()).unwrap();
        assert!((q.average_arity() - 3.0).abs() < 1e-9);
    }
}
