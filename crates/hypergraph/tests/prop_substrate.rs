//! Property-based tests of the storage substrate: set-operation algebra
//! against a `BTreeSet` oracle, signature multiset semantics, builder
//! invariants, and I/O round-trips.

use std::collections::BTreeSet;

use hgmatch_datasets::testgen::assert_derived_state_eq;
use hgmatch_hypergraph::{io, setops, HypergraphBuilder, Label, Signature};
use proptest::prelude::*;

fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0u32..500, 0..60)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

proptest! {
    #[test]
    fn intersect_matches_btreeset(a in sorted_set(), b in sorted_set()) {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let expected: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(setops::intersect(&a, &b), expected);
    }

    #[test]
    fn union_matches_btreeset(a in sorted_set(), b in sorted_set()) {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let expected: Vec<u32> = sa.union(&sb).copied().collect();
        prop_assert_eq!(setops::union(&a, &b), expected);
    }

    #[test]
    fn difference_matches_btreeset(a in sorted_set(), b in sorted_set()) {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let expected: Vec<u32> = sa.difference(&sb).copied().collect();
        prop_assert_eq!(setops::difference(&a, &b), expected);
    }

    #[test]
    fn intersects_iff_nonempty_intersection(a in sorted_set(), b in sorted_set()) {
        prop_assert_eq!(setops::intersects(&a, &b), !setops::intersect(&a, &b).is_empty());
    }

    #[test]
    fn subset_agrees_with_difference(a in sorted_set(), b in sorted_set()) {
        prop_assert_eq!(setops::is_subset(&a, &b), setops::difference(&a, &b).is_empty());
    }

    #[test]
    fn multiway_ops_match_pairwise(lists in proptest::collection::vec(sorted_set(), 0..6)) {
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let many = setops::intersect_many(refs.clone());
        let expected = match refs.split_first() {
            None => Vec::new(),
            Some((first, rest)) => {
                rest.iter().fold(first.to_vec(), |acc, s| setops::intersect(&acc, s))
            }
        };
        prop_assert_eq!(many, expected);

        let many_union = setops::union_many(refs.clone());
        let expected: Vec<u32> = {
            let mut all: BTreeSet<u32> = BTreeSet::new();
            for l in &lists {
                all.extend(l.iter().copied());
            }
            all.into_iter().collect()
        };
        prop_assert_eq!(many_union, expected);
    }

    #[test]
    fn outputs_stay_sorted(a in sorted_set(), b in sorted_set()) {
        prop_assert!(setops::is_strictly_sorted(&setops::intersect(&a, &b)));
        prop_assert!(setops::is_strictly_sorted(&setops::union(&a, &b)));
        prop_assert!(setops::is_strictly_sorted(&setops::difference(&a, &b)));
    }

    #[test]
    fn signature_equality_is_order_independent(mut labels in proptest::collection::vec(0u32..8, 1..10)) {
        let forward = Signature::new(labels.iter().map(|&l| Label::new(l)).collect());
        labels.reverse();
        let backward = Signature::new(labels.iter().map(|&l| Label::new(l)).collect());
        prop_assert_eq!(&forward, &backward);
        let total: usize = forward.label_counts().map(|(_, c)| c).sum();
        prop_assert_eq!(total, forward.arity());
    }
}

/// Strategy: a sorted set sized to sit on either side of the dispatcher's
/// gallop ratio (16×) against a partner of ~1000 elements — the adversarial
/// shapes for kernel selection: 1000/62 ≈ ratio boundary, plus far-smaller
/// and equal-size extremes.
fn ratio_adversarial_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (0usize..5).prop_flat_map(|shape| {
        let small_size = match shape {
            0 => 1usize..4,      // extreme gallop
            1 => 50usize..70,    // straddles 1000/16 = 62.5
            2 => 120usize..140,  // just below ratio: merge/SIMD
            3 => 900usize..1100, // equal sized: SIMD block path
            _ => 15usize..17,    // SIMD_MIN_LEN boundary
        };
        (
            proptest::collection::btree_set(0u32..4000, small_size)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            proptest::collection::btree_set(0u32..4000, 950usize..1050)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// SIMD dispatch (intersection/difference) against the scalar oracle on
    /// adversarial size ratios, in both argument orders.
    #[test]
    fn simd_kernels_match_scalar_oracle((a, b) in ratio_adversarial_pair()) {
        let mut auto_out = Vec::new();
        let mut scalar_out = Vec::new();
        for (x, y) in [(&a, &b), (&b, &a)] {
            setops::intersect_into(x, y, &mut auto_out);
            setops::intersect_into_scalar(x, y, &mut scalar_out);
            prop_assert_eq!(&auto_out, &scalar_out);
            prop_assert!(setops::is_strictly_sorted(&auto_out));

            setops::difference_into(x, y, &mut auto_out);
            setops::difference_into_scalar(x, y, &mut scalar_out);
            prop_assert_eq!(&auto_out, &scalar_out);
            prop_assert!(setops::is_strictly_sorted(&auto_out));
        }
    }

    /// Bitmap set algebra against the scalar list kernels as oracle.
    #[test]
    fn bitmap_kernels_match_scalar_oracle((a, b) in ratio_adversarial_pair()) {
        use hgmatch_hypergraph::Bitmap;
        let domain = 4000u32;
        let ba = Bitmap::from_sorted(&a, domain);
        let bb = Bitmap::from_sorted(&b, domain);

        let mut and = ba.clone();
        and.intersect_assign(&bb);
        prop_assert_eq!(and.to_sorted(), setops::intersect(&a, &b));

        let mut or = ba.clone();
        or.union_assign(&bb);
        prop_assert_eq!(or.to_sorted(), setops::union(&a, &b));

        let mut not = ba.clone();
        not.difference_assign(&bb);
        prop_assert_eq!(not.to_sorted(), setops::difference(&a, &b));

        // The filter form agrees with materialised set algebra.
        let mut filtered = Vec::new();
        bb.filter_list_into(&a, &mut filtered);
        prop_assert_eq!(&filtered, &setops::intersect(&a, &b));
    }

    /// Degenerate inputs: empty, identical and disjoint lists through every
    /// dispatch path.
    #[test]
    fn kernel_edge_cases_hold(a in sorted_set()) {
        let empty: Vec<u32> = Vec::new();
        prop_assert_eq!(setops::intersect(&a, &empty), empty.clone());
        prop_assert_eq!(setops::intersect(&a, &a), a.clone());
        prop_assert_eq!(setops::difference(&a, &a), empty.clone());
        prop_assert_eq!(setops::difference(&a, &empty), a.clone());
        prop_assert_eq!(setops::union(&a, &empty), a.clone());
        let shifted: Vec<u32> = a.iter().map(|&v| v + 10_000).collect();
        prop_assert_eq!(setops::intersect(&a, &shifted), empty);
        prop_assert_eq!(setops::difference(&a, &shifted), a.clone());
    }

    /// The k-way tournament union agrees with a BTreeSet fold for any number
    /// of inputs (both below and above the tournament threshold).
    #[test]
    fn kway_union_matches_btreeset(lists in proptest::collection::vec(sorted_set(), 0..10)) {
        let mut refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        let mut scratch = setops::MultiwayScratch::new();
        setops::union_many_into(&mut refs, &mut out, &mut scratch);
        let expected: Vec<u32> = {
            let mut all: BTreeSet<u32> = BTreeSet::new();
            for l in &lists {
                all.extend(l.iter().copied());
            }
            all.into_iter().collect()
        };
        prop_assert_eq!(out, expected);
    }
}

/// Strategy: a random small hypergraph as (labels, edges).
fn hypergraph_parts() -> impl Strategy<Value = (Vec<u32>, Vec<Vec<u32>>)> {
    (2usize..30).prop_flat_map(|nv| {
        let labels = proptest::collection::vec(0u32..4, nv);
        let edges = proptest::collection::vec(
            proptest::collection::btree_set(0u32..nv as u32, 1..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..25,
        );
        (labels, edges)
    })
}

fn build(labels: &[u32], edges: &[Vec<u32>]) -> hgmatch_hypergraph::Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &l in labels {
        b.add_vertex(Label::new(l));
    }
    for e in edges {
        let _ = b.add_edge(e.clone()).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_invariants((labels, edges) in hypergraph_parts()) {
        let h = build(&labels, &edges);
        // Every edge is sorted and within bounds; locator agrees with
        // partition contents; incidence lists are sorted and consistent.
        let mut incidence_total = 0usize;
        for (e, vs) in h.iter_edges() {
            prop_assert!(setops::is_strictly_sorted(vs));
            prop_assert!(vs.iter().all(|&v| (v as usize) < h.num_vertices()));
            let loc = h.locate(e);
            let p = h.partition(loc.signature);
            prop_assert_eq!(p.row(loc.row), vs);
            prop_assert_eq!(p.global_id(loc.row), e);
            incidence_total += vs.len();
        }
        let from_vertices: usize = (0..h.num_vertices())
            .map(|v| h.degree(hgmatch_hypergraph::VertexId::from_index(v)))
            .sum();
        prop_assert_eq!(incidence_total, from_vertices);
        for v in 0..h.num_vertices() {
            let vid = hgmatch_hypergraph::VertexId::from_index(v);
            prop_assert!(setops::is_strictly_sorted(h.incident_edges(vid)));
            for &e in h.incident_edges(vid) {
                prop_assert!(h
                    .edge_vertices(hgmatch_hypergraph::EdgeId::new(e))
                    .binary_search(&(v as u32))
                    .is_ok());
            }
        }
    }

    #[test]
    fn find_edge_finds_all_and_only_edges((labels, edges) in hypergraph_parts()) {
        let h = build(&labels, &edges);
        for (e, vs) in h.iter_edges() {
            prop_assert_eq!(h.find_edge(vs), Some(e));
        }
    }

    #[test]
    fn text_roundtrip((labels, edges) in hypergraph_parts()) {
        let h = build(&labels, &edges);
        let mut lbuf = Vec::new();
        let mut ebuf = Vec::new();
        io::write_text(&h, &mut lbuf, &mut ebuf).unwrap();
        let h2 = io::read_text(lbuf.as_slice(), ebuf.as_slice()).unwrap();
        prop_assert_eq!(h.labels(), h2.labels());
        prop_assert_eq!(h.num_edges(), h2.num_edges());
        for (e, vs) in h.iter_edges() {
            prop_assert_eq!(h2.edge_vertices(e), vs);
        }
    }

    #[test]
    fn binary_roundtrip((labels, edges) in hypergraph_parts()) {
        let h = build(&labels, &edges);
        let bytes = io::encode_snapshot(&h);
        let h2 = io::decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(&h2, &h);
        assert_derived_state_eq(&h2, &h);
        prop_assert_eq!(io::encode_snapshot(&h2), bytes);
    }

    #[test]
    fn binary_truncation_never_panics((labels, edges) in hypergraph_parts(), cut in 0usize..1 << 20) {
        let h = build(&labels, &edges);
        let bytes = io::encode_snapshot(&h);
        let cut = cut % bytes.len();
        // Any strict prefix must produce an error, not a panic or success.
        prop_assert!(io::decode_snapshot(&bytes[..cut]).is_err());
    }

    #[test]
    fn bipartite_conversion_preserves_incidences((labels, edges) in hypergraph_parts()) {
        let h = build(&labels, &edges);
        let g = hgmatch_hypergraph::bipartite::BipartiteGraph::from_hypergraph(&h);
        prop_assert_eq!(g.num_vertex_nodes(), h.num_vertices());
        prop_assert_eq!(g.num_edge_nodes(), h.num_edges());
        let total: usize = (0..h.num_edges())
            .map(|e| h.edge_arity(hgmatch_hypergraph::EdgeId::from_index(e)))
            .sum();
        prop_assert_eq!(g.num_incidences(), total);
    }
}
