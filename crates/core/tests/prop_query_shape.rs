//! `QueryShape::new` against its oracle: `HypergraphBuilder` under its
//! default policy followed by `validate_query_shape`, the path every query
//! took before the front door decoded straight into a shape.
//!
//! On any input the two accept or reject together, with the same
//! diagnostic (and the shape names the input position of a refused edge).
//! On acceptance the shape is the flat key of the built hypergraph, word
//! for word, so a door request and a `&Hypergraph` submission of the same
//! query share one plan-cache entry, and the `QueryGraph` derived from the
//! shape describes the built hypergraph.
//!
//! Inputs mix two regimes. Small queries over a few vertices, where ids
//! past the label list, empty edges, repeated vertices, repeated edges
//! and zero edges are all common. And queries of 60–70 edges over as many
//! vertices, on both sides of the 64-edge limit, with repeats that decide
//! which side a query lands on.

use hgmatch_core::{validate_query_shape, MatchError, QueryGraph, QueryShape};
use hgmatch_hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, Label, Signature};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One random query as `(labels, edges)`, unvalidated.
fn random_input(seed: u64) -> (Vec<Label>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let large = rng.random_range(0..4u32) == 0;
    let (nv, ne) = if large {
        (rng.random_range(60..71usize), rng.random_range(60..71usize))
    } else {
        (rng.random_range(0..6usize), rng.random_range(0..9usize))
    };
    let labels = (0..nv)
        .map(|_| Label::new(rng.random_range(0..3u32)))
        .collect();
    let mut edges: Vec<Vec<u32>> = Vec::with_capacity(ne);
    for _ in 0..ne {
        let roll = rng.random_range(0..100u32);
        let edge = if !edges.is_empty() && roll < if large { 8 } else { 20 } {
            // A repeat of an earlier edge, in another vertex order.
            let mut e = edges[rng.random_range(0..edges.len())].clone();
            e.reverse();
            e
        } else if large {
            match rng.random_range(0..200u32) {
                0 => Vec::new(),
                1 => vec![nv as u32],
                _ => {
                    let len = rng.random_range(1..4usize);
                    (0..len).map(|_| rng.random_range(0..nv as u32)).collect()
                }
            }
        } else {
            // Up to two ids past the labels, and short edges over few
            // vertices repeat both vertices and whole edges.
            let len = rng.random_range(0..5usize);
            (0..len)
                .map(|_| rng.random_range(0..nv as u32 + 2))
                .collect()
        };
        edges.push(edge);
    }
    (labels, edges)
}

/// The oracle: the builder, then the shape gate. A refusal carries the
/// input position of the edge the builder refused, if it was an edge.
fn oracle(labels: &[Label], edges: &[Vec<u32>]) -> Result<Hypergraph, (Option<usize>, String)> {
    let mut b = HypergraphBuilder::new();
    for &l in labels {
        b.add_vertex(l);
    }
    for (i, e) in edges.iter().enumerate() {
        b.add_edge(e.clone())
            .map_err(|err| (Some(i), err.to_string()))?;
    }
    let h = b.build().map_err(|err| (None, err.to_string()))?;
    validate_query_shape(&h).map_err(|err| (None, err.to_string()))?;
    Ok(h)
}

fn agrees_with_oracle(seed: u64) -> TestCaseResult {
    let (labels, edges) = random_input(seed);
    let shape = QueryShape::new(&labels, edges.iter().map(Vec::as_slice));
    match (oracle(&labels, &edges), shape) {
        (Ok(h), Ok(shape)) => {
            prop_assert_eq!(&shape, &QueryShape::from(&h));
            let q = QueryGraph::from_shape(&shape).expect("an accepted shape compiles");
            prop_assert_eq!(q.num_vertices(), h.num_vertices());
            prop_assert_eq!(q.num_edges(), h.num_edges());
            for v in 0..h.num_vertices() as u32 {
                prop_assert_eq!(q.label(v), h.labels()[v as usize]);
            }
            for i in 0..h.num_edges() {
                let vs = h.edge_vertices(EdgeId::from_index(i));
                prop_assert_eq!(q.edge(i), vs);
                let sig = Signature::new(vs.iter().map(|&v| h.labels()[v as usize]).collect());
                prop_assert_eq!(q.signature(i), &sig);
            }
        }
        (Err((edge, text)), Err(err)) => {
            prop_assert_eq!(&err.to_string(), &text);
            let shape_edge = match err {
                MatchError::InvalidHyperedge { edge, .. } => Some(edge),
                _ => None,
            };
            prop_assert_eq!(shape_edge, edge);
        }
        (oracle, shape) => {
            return Err(TestCaseError::fail(format!(
            "seed {seed}: oracle {:?} but shape {shape:?} for labels {labels:?}, edges {edges:?}",
            oracle.map(|h| h.num_edges())
        )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]
    #[test]
    fn shape_agrees_with_builder_and_shape_gate(seed in 0u64..u64::MAX) {
        agrees_with_oracle(seed)?;
    }
}

/// The regimes the property relies on all occur in its inputs.
#[test]
fn inputs_cover_every_rule() {
    let (mut empty_edge, mut unknown, mut repeated_vertex, mut repeated_edge) = (0, 0, 0, 0);
    let (mut no_edges, mut too_many, mut at_limit) = (0, 0, 0);
    for case in 0..2048u64 {
        let (labels, edges) = random_input(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        empty_edge += edges.iter().any(Vec::is_empty) as u32;
        unknown += edges.iter().flatten().any(|&v| v as usize >= labels.len()) as u32;
        repeated_vertex += edges.iter().any(|e| {
            let mut s = e.clone();
            s.sort_unstable();
            s.dedup();
            s.len() < e.len()
        }) as u32;
        no_edges += edges.is_empty() as u32;
        match oracle(&labels, &edges) {
            Ok(h) => {
                repeated_edge += (h.num_edges() < edges.len()) as u32;
                at_limit += (h.num_edges() == 64) as u32;
            }
            Err((None, text)) => too_many += text.contains("the engine supports at most") as u32,
            Err(_) => {}
        }
    }
    for (what, n) in [
        ("empty edge", empty_edge),
        ("unknown vertex", unknown),
        ("repeated vertex", repeated_vertex),
        ("repeated edge", repeated_edge),
        ("zero edges", no_edges),
        ("more than 64 edges", too_many),
        ("exactly 64 edges", at_limit),
    ] {
        assert!(n >= 5, "only {n} inputs with {what}");
    }
}
