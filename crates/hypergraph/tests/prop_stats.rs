//! Stats-maintenance differential harness (DESIGN.md §13.2): the
//! per-partition cardinality summaries ([`PartitionStats`]) are maintained
//! *incrementally* by [`DynamicHypergraph`] — O(1) integer bookkeeping per
//! posting edit, surviving tombstoning, threshold compaction and
//! copy-on-write snapshot reuse — and must stay **bit-equal** to
//! [`PartitionStats::recompute`] (the from-scratch oracle over the frozen
//! index) at every published snapshot.
//!
//! The main property interleaves insert/delete/compact/snapshot
//! operations over ≥ 256 random interleavings (a deterministic 256-seed
//! sweep plus a proptest layer on top) and checks every partition of every
//! snapshot, including snapshots whose partitions were Arc-reused from the
//! previous epoch.

use hgmatch_datasets::testgen::TestRng;
use hgmatch_hypergraph::{
    DynamicHypergraph, HypergraphBuilder, Label, PartitionStats, SignatureId,
};
use proptest::prelude::*;

/// Checks every partition of a snapshot against the recompute oracle.
fn assert_stats_bit_equal(graph: &hgmatch_hypergraph::Hypergraph, context: &str) {
    for (sid, partition) in graph.partitions().iter().enumerate() {
        let recomputed = PartitionStats::recompute(partition, graph.labels());
        assert_eq!(
            *partition.stats(),
            recomputed,
            "{context}: partition {sid} maintained stats diverge from recompute"
        );
        // Internal consistency: from two rows on (an indexed partition),
        // incidences = rows * arity summed over labels (every row slot is
        // one posting of one labelled vertex); below two rows every degree
        // is one, and the stats store no groups.
        let total: u64 = partition.stats().labels.iter().map(|g| g.incidences).sum();
        if partition.len() >= 2 {
            assert_eq!(
                total,
                partition.len() as u64 * partition.arity() as u64,
                "{context}: partition {sid} incidences must cover every row slot"
            );
        } else {
            assert!(
                partition.stats().labels.is_empty(),
                "{context}: partition {sid} of one row stores label groups"
            );
        }
    }
}

/// One random interleaving: `ops` insert/delete operations with ~25%
/// snapshot probability after each op, hub-skewed vertex picks so posting
/// lengths spread from one to dozens.
fn run_case(seed: u64, nv: u64, nl: u64, ops: usize) {
    let mut rng = TestRng(seed);
    let mut dynamic = DynamicHypergraph::new();
    for _ in 0..nv {
        dynamic.add_vertex(Label::new(rng.below(nl) as u32));
    }
    let mut live: Vec<Vec<u32>> = Vec::new();
    let mut snapshots = 0usize;
    for _ in 0..ops {
        let delete = !live.is_empty() && rng.below(100) < 40;
        if delete {
            let idx = rng.below(live.len() as u64) as usize;
            let edge = live.swap_remove(idx);
            assert!(dynamic.delete_hyperedge(&edge).expect("delete Ok"));
        } else {
            let arity = 2 + rng.below(3) as usize;
            let mut edge: Vec<u32> = Vec::new();
            while edge.len() < arity {
                // Hub bias: half the picks land in the first few vertices,
                // building long posting lists next to short ones.
                let v = if rng.below(2) == 0 {
                    rng.below(4.min(nv))
                } else {
                    rng.below(nv)
                } as u32;
                if !edge.contains(&v) {
                    edge.push(v);
                }
            }
            if dynamic
                .insert_hyperedge(edge.clone())
                .expect("insert Ok")
                .is_some()
            {
                edge.sort_unstable();
                live.push(edge);
            }
        }
        if rng.below(100) < 25 {
            let snap = dynamic.snapshot();
            assert_stats_bit_equal(&snap.graph, &format!("seed {seed} mid-stream"));
            snapshots += 1;
        }
    }
    let snap = dynamic.snapshot();
    assert_stats_bit_equal(&snap.graph, &format!("seed {seed} final"));
    assert!(snapshots + 1 >= 1);
}

/// The acceptance sweep: 256 random interleavings, deterministic.
#[test]
fn incremental_stats_equal_recompute_across_256_interleavings() {
    for seed in 0..256u64 {
        run_case(seed, 24, 3, 90);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Proptest layer on top of the sweep: arbitrary seeds and shapes.
    #[test]
    fn incremental_stats_equal_recompute(
        seed in 0u64..1u64 << 48,
        nv in 6u64..40,
        ops in 20usize..160,
    ) {
        run_case(seed, nv, 4, ops);
    }
}

/// Deleting down a hub shrinks its degree one posting at a time; the
/// maintained moments must track every transition (including the
/// posting-cell removal at degree 0).
#[test]
fn hub_shrink_tracks_degree_moments() {
    let mut d = DynamicHypergraph::new();
    d.add_vertex(Label::new(0)); // hub
    d.add_vertices(40, Label::new(1));
    for leaf in 1..=40u32 {
        d.insert_hyperedge(vec![0, leaf]).unwrap();
    }
    for kept in (1..=40u32).rev() {
        let snap = d.snapshot();
        assert_stats_bit_equal(&snap.graph, &format!("hub at degree {kept}"));
        let stats = snap.graph.partition(SignatureId::new(0)).stats();
        if kept >= 2 {
            let hub = stats.label_group(Label::new(0)).expect("hub group");
            assert_eq!(hub.incidences, kept as u64);
            assert_eq!(hub.distinct_vertices, 1);
            assert_eq!(hub.sum_sq_degrees, (kept as u64) * (kept as u64));
        }
        // One row stores no group; degree one is what the planner reads.
        assert_eq!(stats.size_biased_degree(Label::new(0)), kept as f64);
        d.delete_hyperedge(&[0, kept]).unwrap();
    }
    // Hub fully unlinked: the label group disappears.
    let snap = d.snapshot();
    assert_eq!(snap.graph.num_edges(), 0);
    assert!(snap.graph.partitions().is_empty());
}

/// Snapshot partitions reused via Arc across epochs still carry correct
/// stats (the reuse path skips freeze entirely).
#[test]
fn arc_reused_partitions_keep_their_stats() {
    let mut d = DynamicHypergraph::new();
    d.add_vertices(4, Label::new(0));
    d.add_vertices(2, Label::new(1));
    d.insert_hyperedge(vec![0, 1]).unwrap(); // {0,0}
    d.insert_hyperedge(vec![0, 4]).unwrap(); // {0,1}
    let first = d.snapshot();
    // Touch only a new signature; the two existing partitions are reused.
    d.insert_hyperedge(vec![1, 2, 3]).unwrap();
    let second = d.snapshot();
    assert_stats_bit_equal(&second.graph, "after reuse");
    for sid in 0..2 {
        assert_eq!(
            first.graph.partition(SignatureId::new(sid)).stats(),
            second.graph.partition(SignatureId::new(sid)).stats(),
        );
    }
}

/// The static build path computes the same stats as the dynamic path for
/// the same content (a direct restatement of the snapshot == rebuild
/// oracle, focused on stats).
#[test]
fn static_build_and_dynamic_freeze_agree() {
    let mut d = DynamicHypergraph::new();
    let labels: Vec<Label> = [0u32, 1, 0, 2, 1, 0].map(Label::new).to_vec();
    for &l in &labels {
        d.add_vertex(l);
    }
    let edges = [
        vec![0, 1],
        vec![0, 2],
        vec![1, 3, 4],
        vec![2, 5],
        vec![0, 5],
    ];
    for e in &edges {
        d.insert_hyperedge(e.clone()).unwrap();
    }
    d.delete_hyperedge(&[0, 2]).unwrap();
    let snap = d.snapshot();

    let mut b = HypergraphBuilder::new();
    for &l in &labels {
        b.add_vertex(l);
    }
    for e in [vec![0, 1], vec![1, 3, 4], vec![2, 5], vec![0, 5]] {
        b.add_edge(e).unwrap();
    }
    let built = b.build().unwrap();
    assert_eq!(*snap.graph, built);
    for (sid, p) in built.partitions().iter().enumerate() {
        assert_eq!(
            p.stats(),
            snap.graph.partition(SignatureId::new(sid as u32)).stats()
        );
    }
}
