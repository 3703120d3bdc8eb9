//! First-class result aggregation modes (DESIGN.md §18).
//!
//! Everything downstream of `Sink::consume` used to be all-or-nothing:
//! either materialise every embedding or only count. Analytics-style
//! workloads want the points in between — an exact count with *zero*
//! materialization, the best k embeddings by some score, or a fixed-size
//! uniform sample with confidence bounds — and they want them without a
//! post-hoc pass over a result set that may not fit in memory.
//!
//! The modes here are deliberately *schedule-independent* in what they
//! return:
//!
//! * **CountOnly** — counts ride the existing bulk `add_count` path, so
//!   the result is exact regardless of worker count or split timing.
//! * **TopK** — a total order (score descending, embedding bytes
//!   ascending as the tiebreak) makes the kept set a pure function of the
//!   result multiset. Workers fast-reject through a lock-free score
//!   floor; only contenders touch the shared bounded heap.
//! * **Sampled** — priority sampling: every embedding gets a priority
//!   from a seeded hash of its *content*, and the `budget` smallest
//!   priorities win. Because priorities ignore arrival order entirely,
//!   the sample is identical for any schedule and reproducible across
//!   runs with the same seed, while still being a uniform random subset
//!   over the seed choice.
//!
//! [`AggregateSink`] dispatches on the mode over [`TopKState`] /
//! [`SampleState`]; the summary side of a finished query is
//! [`AggregateSummary`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::embedding::Embedding;
use crate::sink::Sink;

/// Pluggable per-embedding score used by [`AggregateMode::TopK`]. Scores
/// are computed from the embedding's data-edge ids (query-edge order), so
/// they are schedule-independent by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreFn {
    /// Sum of the data edge ids — a cheap stand-in for "prefer embeddings
    /// over recent edges" (higher ids are appended later).
    EdgeIdSum,
    /// `u32::MAX - min(edge id)`: prefers embeddings whose *oldest* edge
    /// is still recent.
    MinEdge,
    /// Seeded content hash — an arbitrary but deterministic total order,
    /// useful for exercising top-k machinery without a domain score.
    Hash,
}

impl ScoreFn {
    /// Scores one embedding (data edge ids in query-edge order).
    #[inline]
    pub fn score(self, emb: &[u32]) -> u64 {
        match self {
            ScoreFn::EdgeIdSum => emb.iter().map(|&e| e as u64).sum(),
            ScoreFn::MinEdge => (u32::MAX - emb.iter().copied().min().unwrap_or(u32::MAX)) as u64,
            ScoreFn::Hash => hash_emb(0x5C0_12EF, emb),
        }
    }

    /// Stable wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ScoreFn::EdgeIdSum => "edge_id_sum",
            ScoreFn::MinEdge => "min_edge",
            ScoreFn::Hash => "hash",
        }
    }

    /// Parses a wire/CLI name (see [`ScoreFn::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "edge_id_sum" => Some(ScoreFn::EdgeIdSum),
            "min_edge" => Some(ScoreFn::MinEdge),
            "hash" => Some(ScoreFn::Hash),
            _ => None,
        }
    }
}

/// How a query's results are aggregated (DESIGN.md §18.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateMode {
    /// Materialise every embedding (the pre-existing behaviour).
    Materialize,
    /// Exact count with zero embedding materialization.
    CountOnly,
    /// Keep the `k` best embeddings by `score` (score descending,
    /// embedding bytes ascending as the deterministic tiebreak).
    TopK {
        /// Number of embeddings to keep.
        k: usize,
        /// Scoring function.
        score: ScoreFn,
    },
    /// Keep a seed-reproducible uniform sample of at most `budget`
    /// embeddings; the count stays exact.
    Sampled {
        /// Maximum sample size.
        budget: usize,
        /// Hash seed; same seed + same result set ⇒ same sample.
        seed: u64,
    },
}

impl AggregateMode {
    /// Stable wire/CLI/metrics name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            AggregateMode::Materialize => "materialize",
            AggregateMode::CountOnly => "count_only",
            AggregateMode::TopK { .. } => "top_k",
            AggregateMode::Sampled { .. } => "sampled",
        }
    }

    /// Whether executors must materialise embeddings for this mode.
    pub fn needs_embeddings(self) -> bool {
        !matches!(self, AggregateMode::CountOnly)
    }
}

/// Mode-specific summary attached to a finished query's outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateSummary {
    /// Every embedding was materialised; nothing to summarise.
    Materialized,
    /// Count-only: the outcome's `count` is the whole answer.
    Count,
    /// Top-k: per-kept-embedding scores, best first (parallel to the
    /// outcome's embedding list).
    TopK {
        /// Requested k.
        k: usize,
        /// Scoring function used.
        score: ScoreFn,
        /// Scores of the kept embeddings, best first.
        scores: Vec<u64>,
    },
    /// Sampled: sample size, sampling fraction and a 95% confidence
    /// half-width for fraction-of-total estimates computed on the sample.
    Sampled {
        /// Requested budget.
        budget: usize,
        /// Seed used.
        seed: u64,
        /// Embeddings actually sampled (`min(budget, count)`).
        sampled: u64,
        /// `sampled / count` (1.0 when the count is 0).
        fraction: f64,
        /// 95% confidence half-width for a proportion estimated on the
        /// sample, with finite-population correction.
        ci95: f64,
    },
}

impl AggregateSummary {
    /// The mode name this summary belongs to (see [`AggregateMode::name`]).
    pub fn mode_name(&self) -> &'static str {
        match self {
            AggregateSummary::Materialized => "materialize",
            AggregateSummary::Count => "count_only",
            AggregateSummary::TopK { .. } => "top_k",
            AggregateSummary::Sampled { .. } => "sampled",
        }
    }
}

/// SplitMix64 finalizer — the standard avalanche used by seeded hashers.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded content hash of an embedding: folds every edge id through
/// SplitMix64. Order-sensitive within the embedding (positions matter)
/// but independent of delivery order across embeddings.
#[inline]
pub fn hash_emb(seed: u64, emb: &[u32]) -> u64 {
    let mut h = splitmix64(seed ^ 0xD6E8_FEB8_6659_FD93);
    for &e in emb {
        h = splitmix64(h ^ e as u64);
    }
    h
}

/// 95% confidence half-width for a proportion estimated from a uniform
/// sample of `sampled` out of `total`, at the conservative p=0.5 variance,
/// with finite-population correction. 0 when the sample covers everything.
pub fn ci95_half_width(sampled: u64, total: u64) -> f64 {
    if sampled == 0 || total <= 1 || sampled >= total {
        return 0.0;
    }
    let n = sampled as f64;
    let big_n = total as f64;
    let fpc = ((big_n - n) / (big_n - 1.0)).sqrt();
    1.96 * (0.25 / n).sqrt() * fpc
}

/// Heap entry ordered so a `BinaryHeap`'s max is the *worst* kept
/// embedding: lower score first, then *larger* embedding bytes first
/// (ties on score evict the lexicographically largest).
#[derive(Debug, Clone, PartialEq, Eq)]
struct HeapWorst {
    score: u64,
    emb: Embedding,
}

impl Ord for HeapWorst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.emb.cmp(&other.emb))
    }
}

impl PartialOrd for HeapWorst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared top-k accumulator: a bounded heap behind a mutex, guarded by a
/// lock-free score floor so the hot path (an embedding that cannot make
/// the cut) costs one relaxed load. The floor only ever rises; a stale
/// (low) read merely over-admits into the locked path, never rejects a
/// qualifying embedding — so the kept set is exact.
#[derive(Debug)]
pub struct TopKState {
    k: usize,
    score: ScoreFn,
    /// Worst kept score once the heap is full; 0 (reject nothing) before.
    floor: AtomicU64,
    heap: Mutex<std::collections::BinaryHeap<HeapWorst>>,
}

impl TopKState {
    /// Creates an accumulator keeping the best `k` embeddings by `score`.
    pub fn new(k: usize, score: ScoreFn) -> Self {
        Self {
            k,
            score,
            floor: AtomicU64::new(0),
            heap: Mutex::new(std::collections::BinaryHeap::with_capacity(k.min(4096))),
        }
    }

    /// Offers one embedding. Thread-safe; call from any worker.
    pub fn offer(&self, emb: &[u32]) {
        if self.k == 0 {
            return;
        }
        let s = self.score.score(emb);
        // Fast reject: strictly below the floor can never displace the
        // worst kept entry (equal scores still contend on the tiebreak).
        if s < self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut heap = self.heap.lock();
        if heap.len() < self.k {
            heap.push(HeapWorst {
                score: s,
                emb: Embedding::new(emb.to_vec()),
            });
            if heap.len() == self.k {
                self.floor
                    .store(heap.peek().unwrap().score, Ordering::Relaxed);
            }
            return;
        }
        let worst = heap.peek().unwrap();
        let cand = HeapWorst {
            score: s,
            emb: Embedding::new(emb.to_vec()),
        };
        // `cand < worst` in HeapWorst order ⇔ cand ranks better (higher
        // score, or equal score with smaller bytes).
        if cand < *worst {
            heap.pop();
            heap.push(cand);
            self.floor
                .store(heap.peek().unwrap().score, Ordering::Relaxed);
        }
    }

    /// Finishes: the kept embeddings best-first (score descending,
    /// bytes ascending on ties) with their scores.
    pub fn finish(&self) -> (Vec<Embedding>, Vec<u64>) {
        let mut entries: Vec<HeapWorst> = std::mem::take(&mut *self.heap.lock()).into_vec();
        // HeapWorst's Ord sorts worst-last ascending; best-first is the
        // plain sort (smallest HeapWorst = best embedding).
        entries.sort_unstable();
        let scores = entries.iter().map(|e| e.score).collect();
        (entries.into_iter().map(|e| e.emb).collect(), scores)
    }
}

/// Heap entry for sampling, max-heap by (priority, bytes): the max is the
/// entry to evict — the largest priority, largest bytes on priority ties.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct HeapSample {
    priority: u64,
    emb: Embedding,
}

/// Shared priority-sampling accumulator: keeps the `budget` embeddings
/// with the smallest seeded content-hash priorities. The kept set is a
/// pure function of (seed, result multiset) — no schedule dependence —
/// and a uniform random subset over the choice of seed. A lock-free
/// threshold (largest kept priority) fast-rejects the hot path the same
/// way [`TopKState`]'s floor does.
#[derive(Debug)]
pub struct SampleState {
    budget: usize,
    seed: u64,
    /// Largest kept priority once full; u64::MAX (reject nothing) before.
    threshold: AtomicU64,
    heap: Mutex<std::collections::BinaryHeap<HeapSample>>,
}

impl SampleState {
    /// Creates a sampler keeping at most `budget` embeddings under `seed`.
    pub fn new(budget: usize, seed: u64) -> Self {
        Self {
            budget,
            seed,
            threshold: AtomicU64::new(u64::MAX),
            heap: Mutex::new(std::collections::BinaryHeap::with_capacity(
                budget.min(4096),
            )),
        }
    }

    /// Offers one embedding. Thread-safe; call from any worker.
    pub fn offer(&self, emb: &[u32]) {
        if self.budget == 0 {
            return;
        }
        let p = hash_emb(self.seed, emb);
        if p > self.threshold.load(Ordering::Relaxed) {
            return;
        }
        let mut heap = self.heap.lock();
        if heap.len() < self.budget {
            heap.push(HeapSample {
                priority: p,
                emb: Embedding::new(emb.to_vec()),
            });
            if heap.len() == self.budget {
                self.threshold
                    .store(heap.peek().unwrap().priority, Ordering::Relaxed);
            }
            return;
        }
        let cand = HeapSample {
            priority: p,
            emb: Embedding::new(emb.to_vec()),
        };
        if cand < *heap.peek().unwrap() {
            heap.pop();
            heap.push(cand);
            self.threshold
                .store(heap.peek().unwrap().priority, Ordering::Relaxed);
        }
    }

    /// Finishes: the sampled embeddings in sorted (deterministic) order.
    pub fn finish(&self) -> Vec<Embedding> {
        let mut embs: Vec<Embedding> = std::mem::take(&mut *self.heap.lock())
            .into_vec()
            .into_iter()
            .map(|e| e.emb)
            .collect();
        embs.sort_unstable();
        embs
    }
}

/// The crate's one mode-dispatching sink, run by both
/// [`crate::Matcher::aggregate_with`] and the serving layer: counts always,
/// aggregates embeddings per the query's [`AggregateMode`], and flips to
/// *satisfied* once `limit` results are reached so workers stop expanding
/// the query (not merely stop recording results).
///
/// Mode dispatch (DESIGN.md §18.2):
/// * `Materialize` — bounded collection, results sorted and truncated to
///   the limit at take-out.
/// * `CountOnly` — nothing is ever allocated; counts ride the bulk
///   `add_count` path.
/// * `TopK`/`Sampled` — embeddings are offered to the shared bounded
///   accumulator; the exact count still comes from `add_count`.
#[derive(Debug)]
pub struct AggregateSink {
    mode: AggregateMode,
    limit: Option<u64>,
    count: AtomicU64,
    results: Mutex<Vec<Embedding>>,
    topk: Option<TopKState>,
    sample: Option<SampleState>,
    satisfied: AtomicBool,
}

impl AggregateSink {
    /// Creates the sink for `mode`, stopping after `limit` results if set.
    pub fn new(mode: AggregateMode, limit: Option<u64>) -> Self {
        let (topk, sample) = match mode {
            AggregateMode::TopK { k, score } => (Some(TopKState::new(k, score)), None),
            AggregateMode::Sampled { budget, seed } => (None, Some(SampleState::new(budget, seed))),
            _ => (None, None),
        };
        Self {
            mode,
            limit,
            count: AtomicU64::new(0),
            results: Mutex::new(Vec::new()),
            topk,
            sample,
            satisfied: AtomicBool::new(limit == Some(0)),
        }
    }

    /// Extracts the final `(count, embeddings, summary)` triple. Collected
    /// embeddings are sorted for determinism and truncated to the limit;
    /// the raw count is clamped to the limit as well (non-materialising
    /// limited queries may overshoot by up to one flush batch before the
    /// early-exit lands).
    pub fn take_output(&self) -> (u64, Option<Vec<Embedding>>, AggregateSummary) {
        let limit = self.limit.unwrap_or(u64::MAX);
        match self.mode {
            AggregateMode::Materialize => {
                let mut v = std::mem::take(&mut *self.results.lock());
                v.sort_unstable();
                v.truncate(limit.min(usize::MAX as u64) as usize);
                (v.len() as u64, Some(v), AggregateSummary::Materialized)
            }
            AggregateMode::CountOnly => (
                self.count.load(Ordering::Relaxed).min(limit),
                None,
                AggregateSummary::Count,
            ),
            AggregateMode::TopK { k, score } => {
                let (embs, scores) = self.topk.as_ref().expect("topk state").finish();
                (
                    self.count.load(Ordering::Relaxed).min(limit),
                    Some(embs),
                    AggregateSummary::TopK { k, score, scores },
                )
            }
            AggregateMode::Sampled { budget, seed } => {
                let embs = self.sample.as_ref().expect("sample state").finish();
                let sampled = embs.len() as u64;
                // The exact count can never be below the number of distinct
                // embeddings actually delivered to the sampler.
                let total = self.count.load(Ordering::Relaxed).min(limit).max(sampled);
                let fraction = if total == 0 {
                    1.0
                } else {
                    sampled as f64 / total as f64
                };
                (
                    total,
                    Some(embs),
                    AggregateSummary::Sampled {
                        budget,
                        seed,
                        sampled,
                        fraction,
                        ci95: ci95_half_width(sampled, total),
                    },
                )
            }
        }
    }
}

impl Sink for AggregateSink {
    fn needs_embeddings(&self) -> bool {
        self.mode.needs_embeddings()
    }

    fn consume(&self, embedding: &[u32]) {
        match self.mode {
            AggregateMode::Materialize => {
                let limit = self.limit.unwrap_or(u64::MAX) as usize;
                let mut guard = self.results.lock();
                if guard.len() < limit {
                    guard.push(Embedding::new(embedding.to_vec()));
                }
                if guard.len() >= limit {
                    self.satisfied.store(true, Ordering::Release);
                }
            }
            AggregateMode::CountOnly => {}
            AggregateMode::TopK { .. } => self.topk.as_ref().expect("topk state").offer(embedding),
            AggregateMode::Sampled { .. } => {
                self.sample.as_ref().expect("sample state").offer(embedding)
            }
        }
    }

    fn add_count(&self, n: u64) {
        let total = self.count.fetch_add(n, Ordering::Relaxed) + n;
        // In every mode but Materialize the *count* is the limit signal
        // (materialising queries saturate on the collected length instead,
        // so the kept set is exactly the first `limit` delivered).
        if !matches!(self.mode, AggregateMode::Materialize) {
            if let Some(limit) = self.limit {
                if total >= limit {
                    self.satisfied.store(true, Ordering::Release);
                }
            }
        }
    }

    fn is_satisfied(&self) -> bool {
        self.satisfied.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb(ids: &[u32]) -> Embedding {
        Embedding::new(ids.to_vec())
    }

    #[test]
    fn score_fns_are_deterministic() {
        assert_eq!(ScoreFn::EdgeIdSum.score(&[1, 2, 3]), 6);
        assert_eq!(ScoreFn::MinEdge.score(&[7, 3, 9]), (u32::MAX - 3) as u64);
        assert_eq!(ScoreFn::Hash.score(&[1, 2]), ScoreFn::Hash.score(&[1, 2]));
        assert_ne!(ScoreFn::Hash.score(&[1, 2]), ScoreFn::Hash.score(&[2, 1]));
        for f in [ScoreFn::EdgeIdSum, ScoreFn::MinEdge, ScoreFn::Hash] {
            assert_eq!(ScoreFn::parse(f.name()), Some(f));
        }
        assert_eq!(ScoreFn::parse("nope"), None);
    }

    #[test]
    fn mode_names_and_needs() {
        assert_eq!(AggregateMode::Materialize.name(), "materialize");
        assert_eq!(AggregateMode::CountOnly.name(), "count_only");
        assert!(!AggregateMode::CountOnly.needs_embeddings());
        assert!(AggregateMode::Materialize.needs_embeddings());
        let tk = AggregateMode::TopK {
            k: 3,
            score: ScoreFn::EdgeIdSum,
        };
        assert!(tk.needs_embeddings());
        assert_eq!(tk.name(), "top_k");
    }

    #[test]
    fn topk_keeps_best_with_deterministic_ties() {
        let st = TopKState::new(2, ScoreFn::EdgeIdSum);
        st.offer(&[1, 1]); // score 2
        st.offer(&[5, 5]); // score 10
        st.offer(&[2, 8]); // score 10, larger bytes than [5,5]? [2,8] < [5,5]
        st.offer(&[0, 1]); // score 1, rejected by floor after heap fills
        let (embs, scores) = st.finish();
        assert_eq!(scores, vec![10, 10]);
        // Ties break on ascending bytes: [2,8] before [5,5].
        assert_eq!(embs, vec![emb(&[2, 8]), emb(&[5, 5])]);
    }

    #[test]
    fn topk_matches_oracle_under_threads() {
        let all: Vec<Vec<u32>> = (0..5000u32).map(|i| vec![i % 97, i / 97]).collect();
        let st = TopKState::new(25, ScoreFn::EdgeIdSum);
        std::thread::scope(|s| {
            for chunk in all.chunks(1250) {
                let st = &st;
                s.spawn(move || {
                    for e in chunk {
                        st.offer(e);
                    }
                });
            }
        });
        let (embs, scores) = st.finish();
        // Oracle: sort everything by (score desc, bytes asc), take 25.
        let mut oracle: Vec<(u64, Embedding)> = all
            .iter()
            .map(|e| (ScoreFn::EdgeIdSum.score(e), emb(e)))
            .collect();
        oracle.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        oracle.truncate(25);
        assert_eq!(scores, oracle.iter().map(|o| o.0).collect::<Vec<_>>());
        assert_eq!(embs, oracle.into_iter().map(|o| o.1).collect::<Vec<_>>());
    }

    #[test]
    fn topk_zero_keeps_nothing() {
        let st = TopKState::new(0, ScoreFn::Hash);
        st.offer(&[1]);
        let (embs, scores) = st.finish();
        assert!(embs.is_empty() && scores.is_empty());
    }

    #[test]
    fn sample_is_schedule_independent_and_seeded() {
        let all: Vec<Vec<u32>> = (0..2000u32).map(|i| vec![i, i ^ 7]).collect();
        let run = |order_rev: bool, seed: u64| {
            let st = SampleState::new(64, seed);
            if order_rev {
                for e in all.iter().rev() {
                    st.offer(e);
                }
            } else {
                for e in &all {
                    st.offer(e);
                }
            }
            st.finish()
        };
        let a = run(false, 42);
        let b = run(true, 42);
        assert_eq!(a, b, "delivery order must not change the sample");
        assert_eq!(a.len(), 64);
        let c = run(false, 43);
        assert_ne!(a, c, "different seeds should give different samples");
    }

    #[test]
    fn sample_under_budget_keeps_everything() {
        let st = SampleState::new(10, 7);
        for i in 0..5u32 {
            st.offer(&[i]);
        }
        let got = st.finish();
        assert_eq!(got.len(), 5);
        let want: Vec<Embedding> = (0..5u32).map(|i| emb(&[i])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn ci95_bounds() {
        assert_eq!(ci95_half_width(0, 100), 0.0);
        assert_eq!(ci95_half_width(100, 100), 0.0);
        let w = ci95_half_width(64, 10_000);
        assert!(w > 0.0 && w < 0.13, "w={w}");
        // More samples ⇒ tighter bound.
        assert!(ci95_half_width(256, 10_000) < w);
    }
}
