//! Resident-bytes gate (DESIGN.md §13.1): a text load holds little more
//! heap than the paper's structures — the hyperedge tables and inverted
//! indices of Fig. 7. A counting global allocator measures the live heap a
//! load leaves behind and holds it to a multiple of
//! `table_size_bytes() + index_size_bytes()`.
//!
//! The graphs are AR-S and WT-S at a tenth of their profile size, scaled
//! as the benchmark's `--smoke` mode scales them. This file holds one test
//! so that no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hgmatch_datasets::{generate, profile_by_name, GeneratorConfig};
use hgmatch_hypergraph::io::{read_text, write_text};

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

/// Live heap after `io::read_text` of the named profile at a tenth of its
/// size, over the graph's table + index bytes.
fn heap_over_index(profile: &str) -> f64 {
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
    let live = LIVE.load(Ordering::Relaxed) - before;
    let index = graph.table_size_bytes() + graph.index_size_bytes();
    let ratio = live as f64 / index as f64;
    println!("{profile}: live heap {live} B for {index} B of table + index ({ratio:.2}x)");
    ratio
}

#[test]
fn text_load_heap_stays_near_table_plus_index() {
    for (profile, bound) in [("AR-S", 4.0), ("WT-S", 5.0)] {
        let ratio = heap_over_index(profile);
        assert!(
            ratio <= bound,
            "{profile}: live heap is {ratio:.2}x table + index, over the {bound}x bound"
        );
    }
}
