//! Resident-bytes gate (DESIGN.md §13.1): the heap a graph holds, per
//! hyperedge. A counting global allocator measures the live heap that a
//! text load (`io::read_text`) leaves behind, and the heap that seeding the
//! dynamic writer from that graph (`DynamicHypergraph::from_hypergraph`)
//! adds on top, and holds each to a bound in bytes per hyperedge.
//!
//! The graphs are AR-S and WT-S at a tenth of their profile size, scaled
//! as the benchmark's `--smoke` mode scales them. This file holds one test
//! so that no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hgmatch_datasets::{generate, profile_by_name, GeneratorConfig};
use hgmatch_hypergraph::io::{read_text, write_text};
use hgmatch_hypergraph::DynamicHypergraph;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only reads sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes per hyperedge of the named profile at a tenth of its
/// size: `(after io::read_text, added by DynamicHypergraph::from_hypergraph)`.
fn heap_per_edge(profile: &str) -> (f64, f64) {
    let config = profile_by_name(profile).expect("known profile").config;
    let generated = generate(&GeneratorConfig {
        num_vertices: (config.num_vertices / 10).max(64),
        num_edges: (config.num_edges / 10).max(256),
        ..config
    });
    let (mut labels, mut edges) = (Vec::new(), Vec::new());
    write_text(&generated, &mut labels, &mut edges).unwrap();
    drop(generated);

    let before = LIVE.load(Ordering::Relaxed);
    let graph = read_text(&labels[..], &edges[..]).unwrap();
    let loaded = LIVE.load(Ordering::Relaxed) - before;
    let writer = DynamicHypergraph::from_hypergraph(&graph);
    let seeded = LIVE.load(Ordering::Relaxed) - before - loaded;
    drop(writer);

    let n = graph.num_edges() as f64;
    let (load, write) = (loaded as f64 / n, seeded as f64 / n);
    println!(
        "{profile}: {} edges; load {loaded} B ({load:.1} B/edge), writer {seeded} B ({write:.1} B/edge)",
        graph.num_edges()
    );
    (load, write)
}

#[test]
fn heap_per_hyperedge_stays_bounded() {
    // (profile, text-load bound, writer bound) in bytes per hyperedge.
    // Each bound sits between this code's reading — 487 / 639 (AR-S),
    // 355 / 645 (WT-S) — and that of a build whose one-row partitions keep
    // planner label groups, an inline index and a writer `StatsAcc`:
    // 948 / 1159 and 554 / 823.
    let bounds = [("AR-S", 600.0, 800.0), ("WT-S", 420.0, 720.0)];
    // Measure every profile before asserting, so a failure reports them all.
    let readings: Vec<(f64, f64)> = bounds.iter().map(|b| heap_per_edge(b.0)).collect();
    for ((profile, load_bound, writer_bound), (load, writer)) in bounds.into_iter().zip(readings) {
        assert!(
            load <= load_bound,
            "{profile}: a text load holds {load:.1} B per hyperedge, over the {load_bound} B bound"
        );
        assert!(
            writer <= writer_bound,
            "{profile}: the seeded writer holds {writer:.1} B per hyperedge, over the {writer_bound} B bound"
        );
    }
}
