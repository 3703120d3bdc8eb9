//! Differential property tests of the dynamic-update subsystem: random
//! interleaved insert/delete sequences on [`DynamicHypergraph`] must
//! produce snapshots — partitions, inverted indices with their bitmap
//! postings, locator, incidence CSR — equal in every field to a fresh
//! [`HypergraphBuilder`] build over the surviving hyperedges, and each
//! snapshot must re-freeze no more partitions than its epoch touched.
//!
//! Kernel modes: index construction is kernel-independent, but CI's
//! second test pass replays this whole suite under `HGMATCH_FORCE_SCALAR=1`
//! alongside the core-level matching differentials, so a representation
//! bug that only bites one kernel family still fails the PR.

use hgmatch_datasets::testgen::{assert_derived_state_eq, TestRng};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, HypergraphBuilder, Label, SnapshotDelta};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The reference model: vertex labels plus live edges in (re-)insertion
/// order — exactly what a fresh build would consume.
struct Model {
    labels: Vec<Label>,
    live: Vec<Vec<u32>>,
}

impl Model {
    fn rebuild(&self) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &self.labels {
            b.add_vertex(l);
        }
        for e in &self.live {
            b.add_edge(e.clone()).expect("model edges are valid");
        }
        b.build().expect("model builds")
    }

    /// The signature (sorted label multiset) of `edge`.
    fn signature(&self, edge: &[u32]) -> Vec<Label> {
        let mut labels: Vec<Label> = edge.iter().map(|&v| self.labels[v as usize]).collect();
        labels.sort_unstable();
        labels
    }
}

/// Delta-proportional publish: a snapshot rebuilds the body of at most the
/// partitions whose signature an op since the previous snapshot named, and
/// shares every other. `touched` is reset for the next epoch.
fn assert_frozen_within_touched(
    snap: &SnapshotDelta,
    touched: &mut BTreeSet<Vec<Label>>,
) -> Result<(), TestCaseError> {
    prop_assert!(
        snap.partitions_frozen <= touched.len(),
        "{} partitions frozen, {} signatures touched",
        snap.partitions_frozen,
        touched.len()
    );
    prop_assert_eq!(
        snap.partitions_frozen + snap.partitions_shared,
        snap.graph.partitions().len()
    );
    touched.clear();
    Ok(())
}

/// Applies `ops` random operations, snapshotting along the way with
/// probability ~1/4 per op, and checks every snapshot (and the final one)
/// against the rebuild oracle.
fn run_case(seed: u64, nv: usize, nl: u64, ops: usize) -> Result<(), TestCaseError> {
    let mut rng = TestRng(seed);
    let mut model = Model {
        labels: (0..nv).map(|_| Label::new(rng.below(nl) as u32)).collect(),
        live: Vec::new(),
    };
    let mut dynamic = DynamicHypergraph::new();
    for &l in &model.labels {
        dynamic.add_vertex(l);
    }

    let mut touched: BTreeSet<Vec<Label>> = BTreeSet::new();
    for _ in 0..ops {
        let delete = !model.live.is_empty() && rng.below(100) < 40;
        if delete {
            let idx = rng.below(model.live.len() as u64) as usize;
            let edge = model.live.remove(idx);
            touched.insert(model.signature(&edge));
            let removed = dynamic.delete_hyperedge(&edge).expect("delete is Ok");
            prop_assert!(removed, "model edge {edge:?} must be live");
        } else {
            let arity = 1 + rng.below(4.min(nv as u64)) as usize;
            let mut edge: Vec<u32> = Vec::new();
            while edge.len() < arity {
                let v = rng.below(nv as u64) as u32;
                if !edge.contains(&v) {
                    edge.push(v);
                }
            }
            edge.sort_unstable();
            touched.insert(model.signature(&edge));
            let duplicate = model.live.contains(&edge);
            let inserted = dynamic
                .insert_hyperedge(edge.clone())
                .expect("insert is Ok");
            prop_assert_eq!(
                inserted.is_some(),
                !duplicate,
                "dedupe must mirror the model for {:?}",
                &edge
            );
            if !duplicate {
                model.live.push(edge);
            }
        }

        if rng.below(100) < 25 {
            let snap = dynamic.snapshot();
            assert_snapshot_matches(&snap.graph, &model)?;
            assert_frozen_within_touched(&snap, &mut touched)?;
        }
    }

    let snap = dynamic.snapshot();
    assert_snapshot_matches(&snap.graph, &model)?;
    assert_frozen_within_touched(&snap, &mut touched)?;
    prop_assert_eq!(snap.graph.num_edges(), model.live.len());
    // Republishing without mutations must be the identical Arc.
    let again = dynamic.snapshot();
    prop_assert!(std::sync::Arc::ptr_eq(&snap.graph, &again.graph));
    prop_assert_eq!(again.partitions_frozen, 0);
    Ok(())
}

/// Field-by-field equality of a snapshot against the rebuild oracle. The
/// top-level `PartialEq` covers all stored content; the per-partition
/// assertions exist to localise failures (and to state the acceptance
/// criterion — inverted indices *including bitmap postings* byte-equal —
/// explicitly). The lazily derived incidence CSR and adjacency counts are
/// outside `PartialEq`, so they are compared vertex by vertex.
fn assert_snapshot_matches(snap: &Hypergraph, model: &Model) -> Result<(), TestCaseError> {
    let oracle = model.rebuild();
    prop_assert_eq!(snap.num_vertices(), oracle.num_vertices());
    prop_assert_eq!(snap.num_edges(), oracle.num_edges());
    prop_assert_eq!(snap.partitions().len(), oracle.partitions().len());
    for (got, want) in snap.partitions().iter().zip(oracle.partitions()) {
        prop_assert_eq!(got.signature(), want.signature());
        prop_assert_eq!(got.global_ids(), want.global_ids());
        // InvertedIndex PartialEq compares keys, offsets, postings, the
        // dense-key table and every bitmap — the byte-equivalence oracle.
        prop_assert_eq!(got.index(), want.index());
        prop_assert_eq!(got.index().num_dense_keys(), want.index().num_dense_keys());
    }
    prop_assert_eq!(snap, &oracle);
    assert_derived_state_eq(snap, &oracle);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The acceptance oracle: ≥256 random interleaved insert/delete
    /// sequences, snapshot state identical to a from-scratch rebuild.
    #[test]
    fn interleaved_updates_match_rebuild(
        seed in 0u64..u64::MAX,
        nv in 2usize..14,
        nl in 1u64..4,
        ops in 1usize..48,
    ) {
        run_case(seed, nv, nl, ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Heavier sequences cross the bitmap-density and compaction
    /// thresholds: few vertices + many ops concentrate postings.
    #[test]
    fn dense_sequences_match_rebuild(
        seed in 0u64..u64::MAX,
        ops in 100usize..260,
    ) {
        run_case(seed, 6, 2, ops)?;
    }
}

/// Deterministic regression: a hub partition crossing MIN_BITMAP_ROWS and
/// then shrinking back below it, with snapshots on both sides.
#[test]
fn bitmap_threshold_crossing_round_trip() {
    let n = 400u32;
    let mut model = Model {
        labels: std::iter::once(Label::new(0))
            .chain(std::iter::repeat_n(Label::new(1), n as usize))
            .collect(),
        live: Vec::new(),
    };
    let mut dynamic = DynamicHypergraph::new();
    for &l in &model.labels {
        dynamic.add_vertex(l);
    }
    for leaf in 1..=n {
        dynamic.insert_hyperedge(vec![0, leaf]).unwrap();
        model.live.push(vec![0, leaf]);
    }
    let snap = dynamic.snapshot();
    assert_eq!(*snap.graph, model.rebuild());
    assert!(
        snap.graph
            .partition(hgmatch_hypergraph::SignatureId::new(0))
            .index()
            .num_dense_keys()
            > 0
    );

    for leaf in 1..n {
        dynamic.delete_hyperedge(&[0, leaf]).unwrap();
    }
    model.live.retain(|e| e[1] == n);
    let snap = dynamic.snapshot();
    assert_eq!(*snap.graph, model.rebuild());
    assert_eq!(
        snap.graph
            .partition(hgmatch_hypergraph::SignatureId::new(0))
            .index()
            .num_dense_keys(),
        0
    );
}

/// Deterministic regression for the representation rule, driven three
/// ways: a hub key grows from a short list to a bitmap, is diluted back
/// to a (long) list by hub-free rows of its partition, and is thinned to a
/// short list by deletions — with a snapshot==rebuild check at each stage.
#[test]
fn three_way_representation_thresholds_round_trip() {
    use hgmatch_hypergraph::inverted::{ReprKind, MIN_BITMAP_ROWS};

    let hub_edges = 300u32;
    assert!(hub_edges as usize >= MIN_BITMAP_ROWS); // stage 2 reaches bitmap
    let dilution = 32 * hub_edges; // pushes hub density below rows/32
    let mut model = Model {
        labels: Vec::new(),
        live: Vec::new(),
    };
    let mut dynamic = DynamicHypergraph::new();
    let add = |model: &mut Model, d: &mut DynamicHypergraph, l: u32| {
        model.labels.push(Label::new(l));
        d.add_vertex(Label::new(l));
        (model.labels.len() - 1) as u32
    };
    let hub = add(&mut model, &mut dynamic, 0);
    let leaves: Vec<u32> = (0..hub_edges)
        .map(|_| add(&mut model, &mut dynamic, 1))
        .collect();
    let xs: Vec<u32> = (0..98).map(|_| add(&mut model, &mut dynamic, 0)).collect();
    let ys: Vec<u32> = (0..98).map(|_| add(&mut model, &mut dynamic, 1)).collect();

    let hub_repr = |snap: &Hypergraph| {
        snap.partitions()
            .iter()
            .find(|p| !p.incident_posting(hub).is_empty())
            .map(|p| p.incident_posting(hub).repr())
    };
    let insert = |model: &mut Model, d: &mut DynamicHypergraph, e: Vec<u32>| {
        d.insert_hyperedge(e.clone()).unwrap();
        model.live.push(e);
    };

    // Stage 1: a handful of hub edges — plain list.
    for &leaf in &leaves[..8] {
        insert(&mut model, &mut dynamic, vec![hub, leaf]);
    }
    let snap = dynamic.snapshot();
    assert_eq!(*snap.graph, model.rebuild());
    assert_eq!(hub_repr(&snap.graph), Some(ReprKind::List));

    // Stage 2: full hub posting — dense in the small partition: bitmap.
    for &leaf in &leaves[8..] {
        insert(&mut model, &mut dynamic, vec![hub, leaf]);
    }
    let snap = dynamic.snapshot();
    assert_eq!(*snap.graph, model.rebuild());
    assert_eq!(hub_repr(&snap.graph), Some(ReprKind::Bitmap));

    // Stage 3: dilute the same partition with hub-free {0,1} edges until
    // the hub key is no longer dense: a long list.
    let mut made = 0u32;
    'dilute: for &x in &xs {
        for &y in &ys {
            insert(&mut model, &mut dynamic, vec![x, y]);
            made += 1;
            if made == dilution {
                break 'dilute;
            }
        }
    }
    assert_eq!(made, dilution, "dilution pool too small");
    let snap = dynamic.snapshot();
    assert_eq!(*snap.graph, model.rebuild());
    assert_eq!(hub_repr(&snap.graph), Some(ReprKind::List));

    // Stage 4: delete all but 8 hub edges: a short list.
    for &leaf in &leaves[8..] {
        assert!(dynamic.delete_hyperedge(&[hub, leaf]).unwrap());
    }
    model
        .live
        .retain(|e| e[0] != hub || leaves[..8].contains(&e[1]));
    let snap = dynamic.snapshot();
    assert_eq!(*snap.graph, model.rebuild());
    assert_eq!(hub_repr(&snap.graph), Some(ReprKind::List));
}
