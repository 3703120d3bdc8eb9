//! Quickstart: the paper's running example (Fig. 1) end to end.
//!
//! Builds the data hypergraph of Fig. 1b and the query of Fig. 1a, shows
//! the signature-partitioned storage (Table I) and the compiled matching
//! order, and enumerates both embeddings.
//!
//! Run with: `cargo run --release --example quickstart`

use hgmatch_core::Matcher;
use hgmatch_hypergraph::{HypergraphBuilder, Label};

fn main() {
    // Labels: A = 0, B = 1, C = 2.
    const A: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;

    // Data hypergraph H (Fig. 1b): v0..v6 with labels A,C,A,A,B,C,A and
    // hyperedges e1..e6 (0-indexed here).
    let mut builder = HypergraphBuilder::new();
    for &l in &[A, C, A, A, B, C, A] {
        builder.add_vertex(Label::new(l));
    }
    builder.add_edge(vec![2, 4]).unwrap(); // e1 {v2, v4}
    builder.add_edge(vec![4, 6]).unwrap(); // e2 {v4, v6}
    builder.add_edge(vec![0, 1, 2]).unwrap(); // e3 {v0, v1, v2}
    builder.add_edge(vec![3, 5, 6]).unwrap(); // e4 {v3, v5, v6}
    builder.add_edge(vec![0, 1, 4, 6]).unwrap(); // e5 {v0, v1, v4, v6}
    builder.add_edge(vec![2, 3, 4, 5]).unwrap(); // e6 {v2, v3, v4, v5}
    let data = builder.build().unwrap();

    println!(
        "Data hypergraph: {} vertices, {} hyperedges",
        data.num_vertices(),
        data.num_edges()
    );
    println!("Signature partitions (Table I):");
    for partition in data.partitions() {
        let signature = data.interner().resolve(partition.signature());
        println!(
            "  {:?}: {} hyperedges, {} postings",
            signature,
            partition.len(),
            partition.repr_breakdown().total_postings()
        );
    }

    // Query hypergraph q (Fig. 1a): u0..u4 labelled A,C,A,A,B.
    let mut builder = HypergraphBuilder::new();
    for &l in &[A, C, A, A, B] {
        builder.add_vertex(Label::new(l));
    }
    builder.add_edge(vec![2, 4]).unwrap(); // {u2, u4}
    builder.add_edge(vec![0, 1, 2]).unwrap(); // {u0, u1, u2}
    builder.add_edge(vec![0, 1, 3, 4]).unwrap(); // {u0, u1, u3, u4}
    let query = builder.build().unwrap();

    let matcher = Matcher::new(&data);

    // EXPLAIN: the matching order, i.e. the SCAN → EXPAND* path of Fig. 5a.
    let plan = matcher.plan(&query).unwrap();
    println!("\nMatching order over query hyperedges: {:?}", plan.order());

    // Enumerate. The paper's two embeddings are (e1,e3,e5) and (e2,e4,e6);
    // with 0-indexed ids those are (e0,e2,e4) and (e1,e3,e5).
    let embeddings = matcher.find_all(&query).unwrap();
    println!("\nFound {} embeddings:", embeddings.len());
    for m in &embeddings {
        println!("  {m}");
    }
    assert_eq!(embeddings.len(), 2);

    // Counting with metrics (the Fig. 9 counters).
    let (count, stats) = matcher.count_with_stats(&query).unwrap();
    println!("\ncount = {count} in {:?}", stats.elapsed);
    println!(
        "scan rows = {}, candidates = {}, filtered = {}, validated = {}",
        stats.metrics.scan_rows,
        stats.metrics.candidates,
        stats.metrics.filtered,
        stats.metrics.validated
    );
}
