//! Resident-bytes gate (DESIGN.md §13.1): the heap a graph holds, per
//! hyperedge. A counting global allocator measures the live heap that a
//! text load (`io::read_text`) leaves behind and its high-water mark during
//! the load, the heap that seeding the dynamic writer from that graph
//! (`DynamicHypergraph::from_hypergraph`) adds on top, and the heap one
//! snapshot after an epoch of updates adds beside the previous one, and
//! holds the first three to a bound in bytes per hyperedge and the last to
//! one in bytes per partition.
//!
//! The graphs are AR-S and WT-S at a tenth of their profile size, scaled
//! as the benchmark's `--smoke` mode scales them. This file holds one test
//! so that no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hgmatch_datasets::{
    generate, generate_update_stream, profile_by_name, GeneratorConfig, UpdateStreamConfig,
};
use hgmatch_hypergraph::io::{read_text, write_text};
use hgmatch_hypergraph::DynamicHypergraph;

/// The system allocator, counting the bytes currently allocated and their
/// high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts `size` more bytes as live.
fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only reads sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one profile's graph holds, in bytes.
struct Reading {
    edges: usize,
    /// Live heap after `io::read_text`, and its high-water mark during it.
    loaded: usize,
    load_peak: usize,
    /// Added by `DynamicHypergraph::from_hypergraph`.
    seeded: usize,
    /// Added by one snapshot after an epoch of updates, with the previous
    /// snapshot still held, and that snapshot's partition count.
    snapshot: usize,
    partitions: usize,
}

impl Reading {
    fn per_edge(bytes: usize, edges: usize) -> f64 {
        bytes as f64 / edges as f64
    }
}

/// Measures the named profile at a tenth of its size.
fn read(profile: &str) -> Reading {
    let config = profile_by_name(profile).expect("known profile").config;
    let generated = generate(&GeneratorConfig {
        num_vertices: (config.num_vertices / 10).max(64),
        num_edges: (config.num_edges / 10).max(256),
        ..config
    });
    let (mut labels, mut edges) = (Vec::new(), Vec::new());
    write_text(&generated, &mut labels, &mut edges).unwrap();
    // An epoch of 3:1 inserts to deletes, one op per 30 edges (the
    // benchmark's 2 000 ops on AR-S's 66 k edges).
    let stream = generate_update_stream(
        &generated,
        &UpdateStreamConfig {
            ops: generated.num_edges() / 30,
            insert_ratio: 0.75,
            ..UpdateStreamConfig::default()
        },
    );
    drop(generated);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let graph = read_text(&labels[..], &edges[..]).unwrap();
    let loaded = LIVE.load(Ordering::Relaxed) - before;
    let load_peak = PEAK.load(Ordering::Relaxed) - before;
    let mut writer = DynamicHypergraph::from_hypergraph(&graph);
    let seeded = LIVE.load(Ordering::Relaxed) - before - loaded;

    let previous = writer.snapshot().graph;
    for op in &stream {
        writer.apply(op).unwrap();
    }
    let at = LIVE.load(Ordering::Relaxed);
    let next = writer.snapshot().graph;
    let snapshot = LIVE.load(Ordering::Relaxed) - at;
    let reading = Reading {
        edges: graph.num_edges(),
        loaded,
        load_peak,
        seeded,
        snapshot,
        partitions: next.partitions().len(),
    };
    drop((previous, next, writer));

    let per_edge = |bytes| Reading::per_edge(bytes, reading.edges);
    println!(
        "{profile}: {} edges; load {loaded} B ({:.1} B/edge), peak {load_peak} B ({:.1} B/edge), \
         writer {seeded} B ({:.1} B/edge); snapshot {snapshot} B over {} partitions ({:.1} B/partition)",
        reading.edges,
        per_edge(loaded),
        per_edge(load_peak),
        per_edge(seeded),
        reading.partitions,
        snapshot as f64 / reading.partitions as f64,
    );
    reading
}

#[test]
fn heap_per_hyperedge_stays_bounded() {
    // (profile, text-load, load-peak and writer bounds in bytes per
    // hyperedge, snapshot bound in bytes per partition).
    // This code reads 407 / 415 / 468 B per edge and 145 B per partition
    // on AR-S, 322 / 327 / 515 and 190 on WT-S. The load and writer
    // bounds keep the margins they had over the previous readings (113 /
    // 161 B on AR-S, 65 / 75 B on WT-S). A build that keeps the duplicate
    // check's copy of every edge through partitioning peaks at 591 and 412
    // B per edge; a snapshot that copies every signature twice and gives
    // every partition a global-id `Vec` adds 282 and 253 B per partition:
    // both fail.
    let bounds = [
        ("AR-S", 520.0, 500.0, 630.0, 200.0),
        ("WT-S", 390.0, 380.0, 590.0, 230.0),
    ];
    // Measure every profile before asserting, so a failure reports them all.
    let readings: Vec<Reading> = bounds.iter().map(|b| read(b.0)).collect();
    for ((profile, load_bound, peak_bound, writer_bound, snapshot_bound), r) in
        bounds.into_iter().zip(readings)
    {
        let load = Reading::per_edge(r.loaded, r.edges);
        let peak = Reading::per_edge(r.load_peak, r.edges);
        let writer = Reading::per_edge(r.seeded, r.edges);
        let snapshot = r.snapshot as f64 / r.partitions as f64;
        assert!(
            load <= load_bound,
            "{profile}: a text load holds {load:.1} B per hyperedge, over the {load_bound} B bound"
        );
        assert!(
            peak <= peak_bound,
            "{profile}: a text load peaks at {peak:.1} B per hyperedge, over the {peak_bound} B bound"
        );
        assert!(
            writer <= writer_bound,
            "{profile}: the seeded writer holds {writer:.1} B per hyperedge, over the {writer_bound} B bound"
        );
        assert!(
            snapshot <= snapshot_bound,
            "{profile}: a snapshot adds {snapshot:.1} B per partition, over the {snapshot_bound} B bound"
        );
    }
}
