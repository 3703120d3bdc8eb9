//! Microbenchmarks of the sorted-set kernels behind candidate generation
//! (paper §V-B): the merge-vs-gallop ablation, the scalar-vs-SIMD and
//! list-vs-bitmap comparisons of DESIGN.md §5, the k-way union, and the
//! allocation cost of the expansion task layout (DESIGN.md §6).
//!
//! Run `HGMATCH_BENCH_JSON=BENCH_setops.json cargo bench --bench
//! bench_setops` to regenerate the committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hgmatch_hypergraph::bitmap::Bitmap;
use hgmatch_hypergraph::setops::{self, KernelMode};
use std::hint::black_box;

fn evens(n: u32) -> Vec<u32> {
    (0..n).map(|i| i * 2).collect()
}

fn multiples(n: u32, k: u32) -> Vec<u32> {
    (0..n).map(|i| i * k).collect()
}

fn bench_intersections(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    let large = evens(100_000);
    for small_len in [16u32, 256, 4_096, 65_536] {
        let small = multiples(small_len, 7);
        group.bench_with_input(
            BenchmarkId::new("adaptive", small_len),
            &small,
            |b, small| {
                let mut out = Vec::new();
                b.iter(|| {
                    setops::intersect_into(black_box(small), black_box(&large), &mut out);
                    black_box(out.len())
                });
            },
        );
    }
    group.finish();
}

/// The acceptance-criterion comparison: scalar merge vs SIMD dispatch vs
/// bitmap AND on large, similar-sized posting lists.
fn bench_scalar_vs_simd(c: &mut Criterion) {
    let a = multiples(100_000, 2);
    let b = multiples(100_000, 3);
    let mut group = c.benchmark_group("intersect_large");

    group.bench_function("scalar_merge", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            setops::intersect_into_scalar(black_box(&a), black_box(&b), &mut out);
            black_box(out.len())
        });
    });
    group.bench_function(format!("simd_{}", setops::simd_level()), |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            setops::intersect_into(black_box(&a), black_box(&b), &mut out);
            black_box(out.len())
        });
    });
    // Bitmap AND over the same sets (domain = max value), pre-built as a
    // partition's inverted index would hold them.
    let domain = 300_001u32;
    let ba = Bitmap::from_sorted(&a, domain);
    let bb = Bitmap::from_sorted(&b, domain);
    group.bench_function("bitmap_and", |bench| {
        let mut acc = Bitmap::new(domain);
        let mut out = Vec::new();
        bench.iter(|| {
            acc.clone_from(black_box(&ba));
            acc.intersect_assign(black_box(&bb));
            out.clear();
            acc.extract_into(&mut out);
            black_box(out.len())
        });
    });
    group.finish();

    let mut group = c.benchmark_group("difference_large");
    group.bench_function("scalar_merge", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            setops::difference_into_scalar(black_box(&a), black_box(&b), &mut out);
            black_box(out.len())
        });
    });
    group.bench_function(format!("simd_{}", setops::simd_level()), |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            setops::difference_into(black_box(&a), black_box(&b), &mut out);
            black_box(out.len())
        });
    });
    group.finish();
}

fn bench_union_difference(c: &mut Criterion) {
    let a = multiples(50_000, 2);
    let b = multiples(50_000, 3);
    c.bench_function("union/50k+50k", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            setops::union_into(black_box(&a), black_box(&b), &mut out);
            black_box(out.len())
        });
    });
    c.bench_function("difference/50k-50k", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            setops::difference_into(black_box(&a), black_box(&b), &mut out);
            black_box(out.len())
        });
    });
}

fn bench_multiway(c: &mut Criterion) {
    let lists: Vec<Vec<u32>> = (2..8u32).map(|k| multiples(20_000, k)).collect();
    c.bench_function("intersect_many/6-way", |bench| {
        bench.iter(|| {
            let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
            black_box(setops::intersect_many(refs).len())
        });
    });
    c.bench_function("union_many/6-way", |bench| {
        bench.iter(|| {
            let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
            black_box(setops::union_many(refs).len())
        });
    });

    // k-way tournament vs the old O(k·n) accumulating pairwise loop, on
    // many equal-sized lists (the shape of a hub anchor's posting union).
    let wide: Vec<Vec<u32>> = (0..16u32)
        .map(|k| (k..60_000).step_by(16).collect())
        .collect();
    let mut group = c.benchmark_group("union_many_16way");
    group.bench_function("tournament", |bench| {
        let mut out = Vec::new();
        let mut scratch = setops::MultiwayScratch::new();
        bench.iter(|| {
            let mut refs: Vec<&[u32]> = wide.iter().map(|l| l.as_slice()).collect();
            setops::union_many_into(&mut refs, &mut out, &mut scratch);
            black_box(out.len())
        });
    });
    group.bench_function("pairwise", |bench| {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        bench.iter(|| {
            let mut refs: Vec<&[u32]> = wide.iter().map(|l| l.as_slice()).collect();
            refs.sort_unstable_by_key(|s| s.len());
            setops::union_into(refs[0], refs[1], &mut out);
            for s in &refs[2..] {
                setops::union_into(&out, s, &mut scratch);
                std::mem::swap(&mut out, &mut scratch);
            }
            black_box(out.len())
        });
    });
    group.finish();
}

/// Allocation cost of the expansion task layout (DESIGN.md §6.2): per-task
/// boxed embeddings (the old layout) vs a recycled buffer pool vs the
/// inline fixed array, over a depth-4 embedding.
fn bench_task_alloc(c: &mut Criterion) {
    const DEPTH: usize = 4;
    let parent = [7u32, 11, 13, 17];
    let mut group = c.benchmark_group("expand_task_emb");

    group.bench_function("boxed_per_task", |bench| {
        bench.iter(|| {
            let mut next = Vec::with_capacity(DEPTH + 1);
            next.extend_from_slice(black_box(&parent));
            next.push(19);
            let boxed: Box<[u32]> = next.into_boxed_slice();
            black_box(boxed.len())
        });
    });
    group.bench_function("pooled_buffer", |bench| {
        let mut pool: Vec<Vec<u32>> = Vec::new();
        bench.iter(|| {
            let mut buf = pool.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(black_box(&parent));
            buf.push(19);
            let len = buf.len();
            pool.push(buf);
            black_box(len)
        });
    });
    group.bench_function("inline_array", |bench| {
        bench.iter(|| {
            let mut emb = [0u32; 8];
            emb[..DEPTH].copy_from_slice(black_box(&parent));
            emb[DEPTH] = 19;
            black_box(emb[DEPTH] as usize + DEPTH + 1)
        });
    });
    group.finish();
}

/// The host the rows were taken on, as a metric row of the JSON report:
/// a committed baseline says how many CPUs produced it.
fn record_host(c: &mut Criterion) {
    c.record_metric(
        "host_cpus",
        hgmatch_bench::report::host_cpus() as f64,
        "count",
    );
}

/// Kernel-mode sanity for the JSON baseline: record that ForceScalar and
/// Auto agree on the measured shapes (cheap; the real guarantee is the
/// cross-check test suite).
fn bench_mode_agreement(c: &mut Criterion) {
    let a = multiples(100_000, 2);
    let b = multiples(100_000, 3);
    let mut auto_out = Vec::new();
    let mut scalar_out = Vec::new();
    setops::intersect_into(&a, &b, &mut auto_out);
    setops::set_kernel_mode(KernelMode::ForceScalar);
    setops::intersect_into(&a, &b, &mut scalar_out);
    setops::set_kernel_mode(KernelMode::Auto);
    assert_eq!(
        auto_out, scalar_out,
        "kernel families disagree on bench input"
    );
    c.bench_function("sanity/kernel_families_agree", |bench| {
        bench.iter(|| black_box(auto_out.len()));
    });
}

criterion_group!(
    benches,
    bench_intersections,
    bench_scalar_vs_simd,
    bench_union_difference,
    bench_multiway,
    bench_task_alloc,
    bench_mode_agreement,
    record_host
);
criterion_main!(benches);
