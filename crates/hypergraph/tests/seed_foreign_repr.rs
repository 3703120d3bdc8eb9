//! Seeding a writer from a graph whose postings were built in a
//! representation this process no longer chooses (built before
//! `set_forced_repr` changed): `DynamicHypergraph::from_hypergraph` must
//! not adopt those bodies, or adopted and re-frozen partitions would
//! disagree and `snapshot == rebuild-from-scratch` would fail.
//!
//! The only test in this file: it flips the process-wide forced
//! representation, which must not race other tests.

use hgmatch_hypergraph::inverted::{set_forced_repr, ReprKind};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, HypergraphBuilder, Label};

fn build(edges: &[Vec<u32>]) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for l in [0u32, 1, 0, 1, 2, 2, 0] {
        b.add_vertex(Label::new(l));
    }
    for e in edges {
        b.add_edge(e.clone()).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn seed_in_a_foreign_representation_is_refrozen_not_adopted() {
    // Every signature has two rows: a one-row partition carries no index,
    // so it has no representation to be foreign in and is rightly adopted.
    let mut edges = vec![
        vec![0, 1],
        vec![2, 3],
        vec![0, 2],
        vec![1, 4],
        vec![3, 5],
        vec![2, 6],
    ];
    // Every key of this small graph is a list under the adaptive rule.
    set_forced_repr(Some(ReprKind::Bitmap));
    let seed = build(&edges);
    set_forced_repr(None);

    // The seed keeps its bitmaps, so it differs from a build here.
    assert_ne!(seed, build(&edges));

    let mut d = DynamicHypergraph::from_hypergraph(&seed);
    let first = d.snapshot();
    assert_eq!(*first.graph, build(&edges));
    assert_eq!(first.partitions_shared, 0);

    // A later epoch mixes one re-frozen partition with shared bodies.
    d.insert_hyperedge(vec![0, 3]).unwrap();
    edges.push(vec![0, 3]);
    let second = d.snapshot();
    assert_eq!(*second.graph, build(&edges));
    assert_eq!(second.partitions_frozen, 1);
}
