//! The swarm: one seeded differential driver for the paper's contract — an
//! exact embedding multiset whatever the schedule — across every stressor
//! the engine has (DESIGN.md §8, §11, §12, §15, §18).
//!
//! Swarm testing (Groce et al., ISSTA 2012): instead of one CI job per
//! environment axis, each case draws its own subset of features, so
//! stressors meet — forced bitmaps under an eager re-plan, a limit
//! during a split, an epoch race on a one-worker pool. A case draws
//!
//! * a data [`Profile`] built from `testgen` and up to three planted
//!   queries on it (random instances of several densities, single-label
//!   data, the `blowup` clique and the underestimated `hub`);
//! * the kernel family and the posting representation, set through the
//!   process-wide switches before the data is built;
//! * 1, 2, 4 or 8 workers, a re-plan ratio of 0 (off), 8 (the default)
//!   or 0.5 (eager), a split threshold of 0 (off), 4 or the default, and
//!   whether work stealing is on;
//! * an aggregation mode and an optional limit;
//! * a [`Venue`]: `MatchServer::run` (caller first), `submit` (pooled),
//!   the static `ParallelEngine`, `Matcher` (adaptive when it can be) or
//!   `BfsExecutor`;
//! * for the two serving venues, whether update epochs race the queries.
//!
//! Every outcome is held to the sequential executor on
//! `testgen::rebuild_oracle` of the snapshot its query pinned, built in
//! the adaptive representation and run on the scalar kernels:
//!
//! * counts and multisets are exact, top-k is byte-identical, and a
//!   sample is the pure function of (seed, multiset) that
//!   [`oracle_sample`] computes;
//! * a limit reports exactly `min(limit, total)` embeddings (a sample no
//!   fewer than it kept), all of them the oracle's, and a venue on the
//!   task engine materializes at most one `ABORT_PROBE` block per
//!   participant past it;
//! * at one worker with no re-plan and no update, a first-k run returns
//!   the sequential executor's first k;
//! * a serving pool ends every case with its task accounting balanced.
//!
//! Cases run serially (the two switches are process-wide) and each is a
//! pure function of its index. A failure prints the index, the seed and
//! every drawn feature, and so does a case that hangs past [`STALL`];
//! setting [`FIRST_CASE`] to that index replays it first.

use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hgmatch_core::aggregate::{hash_emb, AggregateSink};
use hgmatch_core::config::SPLIT_THRESHOLD;
use hgmatch_core::engine::ParallelEngine;
use hgmatch_core::exec::{BfsExecutor, RunStats, SequentialExecutor};
use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig};
use hgmatch_core::{
    AggregateMode, AggregateSummary, CollectSink, Embedding, FirstKSink, MatchConfig, Matcher,
    Plan, Planner, QueryGraph, QueryOutcome, ScoreFn,
};
use hgmatch_datasets::testgen::{
    blowup, hub, random_arity_hypergraph, random_subquery, rebuild_oracle, TestRng,
};
use hgmatch_datasets::{generate_update_stream, UpdateStreamConfig};
use hgmatch_hypergraph::inverted::set_forced_repr;
use hgmatch_hypergraph::setops::{set_kernel_mode, KernelMode};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, ReprKind};

/// Cases per run: sized so the swarm's debug `cargo test` stays within a
/// minute on a 2-vCPU host.
const CASES: u64 = 3000;

/// Index of the first case run; a failing case replays from here.
const FIRST_CASE: u64 = 0;

/// How long one case may run before the watchdog calls it hung: well
/// past the slowest case's debug time.
const STALL: Duration = Duration::from_secs(120);

/// `engine::task::ABORT_PROBE`: rows a participant validates between two
/// stop probes, so past a limit it may finish one such block
/// (`limit_split`'s bound).
const ABORT_PROBE: u64 = 1024;

/// Update operations a racing writer applies, and how many it publishes
/// at a time.
const UPDATE_OPS: usize = 120;
const UPDATE_CHUNK: usize = 40;

/// A data hypergraph and the queries planted in it.
#[derive(Debug, Clone, Copy)]
enum Profile {
    /// 30 vertices, 60 edges over 3 labels, arity 1–4.
    Sparse,
    /// 18 vertices, 40 edges over 2 labels, arity 2–3.
    Small,
    /// Single-label data: the most automorphism pressure on validation.
    OneLabel,
    /// 40 vertices, 900 edges over 2 labels: postings of hundreds of rows,
    /// dense enough for the bitmap and SIMD kernels; up to 3-edge queries.
    Dense,
    /// 120 vertices, 420 edges over 3 labels: queries on both sides of the
    /// caller-first gate.
    Served,
    /// `testgen::blowup`: a clique queried with a path, huge candidate
    /// lists at every depth.
    Blowup,
    /// `testgen::hub` at a fan of 100 or 200: an estimate under the
    /// caller-first gate for a query that runs past the inline budget.
    Hub,
}

/// The profiles a case draws from, uniformly. The hub is listed twice: it
/// is the instance that hands a caller-first run to the pool mid-query.
const PROFILES: [Profile; 8] = [
    Profile::Hub,
    Profile::Sparse,
    Profile::Small,
    Profile::OneLabel,
    Profile::Dense,
    Profile::Served,
    Profile::Blowup,
    Profile::Hub,
];

impl Profile {
    /// The data and up to three planted queries, drawn from `rng`.
    fn build(self, rng: &mut TestRng) -> (Hypergraph, Vec<Hypergraph>) {
        let (nv, ne, labels, min_arity, max_arity, max_k) = match self {
            Profile::Sparse => (30, 60, 3, 1, 4, 3),
            Profile::Small => (18, 40, 2, 2, 3, 3),
            Profile::OneLabel => (20, 40, 1, 1, 3, 4),
            Profile::Dense => (40, 900, 2, 2, 3, 3),
            Profile::Served => (120, 420, 3, 2, 4, 3),
            Profile::Blowup => {
                let (data, query) = blowup(8 + rng.below(4) as u32, 2 + rng.below(2) as u32);
                return (data, vec![query]);
            }
            Profile::Hub => {
                let (data, query) = hub(100 * (1 + rng.below(2) as u32));
                return (data, vec![query]);
            }
        };
        let data = random_arity_hypergraph(rng.next_u64(), nv, ne, labels, min_arity, max_arity);
        let queries = (0..3)
            .filter_map(|i| {
                // A dense 3-edge query runs for up to a second in a debug
                // build, so only a case's first dense query may have three.
                let max_k = if matches!(self, Profile::Dense) && i > 0 {
                    2
                } else {
                    max_k
                };
                let k = 1 + rng.below(max_k) as usize;
                random_subquery(&data, rng.next_u64(), k)
            })
            .collect();
        (data, queries)
    }
}

/// Where a case's queries run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Venue {
    /// `MatchServer::run`: caller first, spilling to the pool.
    Run,
    /// `MatchServer::submit` + `wait`: always pooled.
    Submit,
    /// `ParallelEngine::run`: the one-shot pool on a static plan.
    Engine,
    /// `Matcher::run`: the sequential executor at one worker, else the
    /// one-shot pool, re-planning mid-query when the ratio allows.
    Matcher,
    /// `BfsExecutor::run`: level at a time.
    Bfs,
}

/// The venues a case draws from, uniformly. `run` — what the front door
/// calls — is listed twice.
const VENUES: [Venue; 6] = [
    Venue::Run,
    Venue::Run,
    Venue::Submit,
    Venue::Engine,
    Venue::Matcher,
    Venue::Bfs,
];

/// Every feature of one case, drawn from its index.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    profile: Profile,
    kernel: KernelMode,
    repr: Option<ReprKind>,
    workers: usize,
    replan_ratio: f64,
    split_threshold: usize,
    work_stealing: bool,
    mode: AggregateMode,
    /// A limit as a fraction of each query's epoch-0 count, in eighths.
    limit_eighths: Option<u64>,
    venue: Venue,
    updates: bool,
}

impl Case {
    fn draw(index: u64) -> Self {
        let seed = TestRng(0x5EED_5A4E ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        let mut rng = TestRng(seed);
        let profile = PROFILES[rng.below(PROFILES.len() as u64) as usize];
        let kernel = [KernelMode::Auto, KernelMode::ForceScalar][rng.below(2) as usize];
        let repr = [None, Some(ReprKind::List), Some(ReprKind::Bitmap)][rng.below(3) as usize];
        let workers = [1, 2, 4, 8][rng.below(4) as usize];
        let replan_ratio = [0.0, 8.0, 0.5][rng.below(3) as usize];
        let split_threshold = [0, 4, SPLIT_THRESHOLD][rng.below(3) as usize];
        let work_stealing = rng.below(4) != 0;
        let score = [ScoreFn::EdgeIdSum, ScoreFn::MinEdge][rng.below(2) as usize];
        // First-k (materialize under a limit) is the one order-sensitive
        // shape, so it is drawn as often as each mode on its own.
        let shape = rng.below(5);
        let mode = match shape {
            0 => AggregateMode::CountOnly,
            1 | 4 => AggregateMode::Materialize,
            2 => AggregateMode::TopK {
                k: 1 + rng.below(4) as usize,
                score,
            },
            _ => AggregateMode::Sampled {
                budget: 1 + rng.below(4) as usize,
                seed: rng.next_u64(),
            },
        };
        let limit_eighths = (shape == 4 || rng.below(2) == 0).then(|| 1 + rng.below(7));
        let venue = VENUES[rng.below(VENUES.len() as u64) as usize];
        let updates = matches!(venue, Venue::Run | Venue::Submit) && rng.below(3) == 0;
        Self {
            seed: rng.next_u64(),
            profile,
            kernel,
            repr,
            workers,
            replan_ratio,
            split_threshold,
            work_stealing,
            mode,
            limit_eighths,
            venue,
            updates,
        }
    }

    fn match_config(&self) -> MatchConfig {
        MatchConfig::parallel(self.workers)
            .with_replan_ratio(self.replan_ratio)
            .with_split_threshold(self.split_threshold)
            .with_work_stealing(self.work_stealing)
    }

    /// Threads that may execute one query's tasks at once: the pool, plus
    /// the calling thread on the caller-first venue.
    fn participants(&self) -> u64 {
        self.workers as u64 + u64::from(self.venue == Venue::Run)
    }

    fn run(&self) {
        set_kernel_mode(self.kernel);
        set_forced_repr(self.repr);
        let mut rng = TestRng(self.seed);
        let (data, queries) = self.profile.build(&mut rng);
        let data = Arc::new(data);
        let mut oracles = Oracles::default();
        let limits: Vec<Option<u64>> = (0..queries.len())
            .map(|qi| {
                let total = self.reference(|| oracles.all(0, &data, qi, &queries[qi]).len());
                self.limit_eighths
                    .map(|e| (total as u64 * e).div_ceil(8).max(1))
            })
            .collect();
        let (observed, mut published) = match self.venue {
            Venue::Run | Venue::Submit => self.serve(&data, &queries, &limits, &mut rng),
            _ => (self.one_shot(&data, &queries, &limits), HashMap::new()),
        };
        published.insert(0, data);
        self.reference(|| {
            for obs in &observed {
                let (qi, limit) = (obs.query, limits[obs.query]);
                let graph = &published[&obs.epoch];
                let first_k = match limit {
                    Some(k) if self.exact_prefix(obs) => Some(sequential_first_k(
                        oracles.rebuilt(obs.epoch, graph),
                        &queries[qi],
                        k,
                    )),
                    _ => None,
                };
                let all = oracles.all(obs.epoch, graph, qi, &queries[qi]);
                self.check(obs, limit, all, first_k.as_deref());
            }
        });
        set_kernel_mode(KernelMode::Auto);
        set_forced_repr(None);
    }

    /// Runs `f` under the reference configuration — scalar kernels, the
    /// adaptive representation rule — then restores the case's switches.
    fn reference<T>(&self, f: impl FnOnce() -> T) -> T {
        set_forced_repr(None);
        set_kernel_mode(KernelMode::ForceScalar);
        let out = f();
        set_forced_repr(self.repr);
        set_kernel_mode(self.kernel);
        out
    }

    /// The one-shot venues: each query once, on `data` (epoch 0).
    fn one_shot(
        &self,
        data: &Hypergraph,
        queries: &[Hypergraph],
        limits: &[Option<u64>],
    ) -> Vec<Observed> {
        let config = self.match_config();
        let mut observed = Vec::new();
        for (qi, query) in queries.iter().enumerate() {
            let sink = AggregateSink::new(self.mode, limits[qi]);
            let stats: RunStats = match self.venue {
                Venue::Engine => ParallelEngine::run(&plan(data, query), data, &sink, &config),
                Venue::Matcher => Matcher::with_config(data, config.clone())
                    .run(query, &sink)
                    .unwrap(),
                Venue::Bfs => BfsExecutor::run(&plan(data, query), data, &sink, &config),
                Venue::Run | Venue::Submit => unreachable!("served venues"),
            };
            if self.workers == 1 {
                assert_eq!(
                    stats.metrics.split_expansions, 0,
                    "q{qi}: a lone worker must never split"
                );
            }
            let (count, embeddings, summary) = sink.take_output();
            observed.push(Observed {
                query: qi,
                epoch: 0,
                status: None,
                count,
                embeddings,
                summary,
                materialized: stats.metrics.materialized,
                replans: stats.metrics.replans,
            });
        }
        observed
    }

    /// The serving venues: every query through one pool, in waves that
    /// race a writer publishing update epochs when the case draws them.
    /// Returns the outcomes and every snapshot published after `data`
    /// (epoch 0).
    fn serve(
        &self,
        data: &Arc<Hypergraph>,
        queries: &[Hypergraph],
        limits: &[Option<u64>],
        rng: &mut TestRng,
    ) -> (Vec<Observed>, HashMap<u64, Arc<Hypergraph>>) {
        let server = MatchServer::new(
            Arc::clone(data),
            ServeConfig {
                match_config: self.match_config(),
                ..ServeConfig::default()
                    .with_threads(self.workers)
                    .with_fairness_quantum(8)
            },
        );
        let options = |qi: usize| {
            let options = QueryOptions::default().with_aggregate(self.mode);
            match limits[qi] {
                Some(limit) => options.with_max_results(limit),
                None => options,
            }
        };
        let wave = || -> Vec<QueryOutcome> {
            match self.venue {
                Venue::Run => (0..queries.len())
                    .map(|qi| server.run(&queries[qi], options(qi)).unwrap())
                    .collect(),
                _ => {
                    let handles: Vec<_> = (0..queries.len())
                        .map(|qi| server.submit(&queries[qi], options(qi)).unwrap())
                        .collect();
                    handles.into_iter().map(|h| h.wait()).collect()
                }
            }
        };

        let mut published = HashMap::new();
        let mut outcomes = Vec::new();
        if self.updates {
            let mut writer = DynamicHypergraph::from_hypergraph(data);
            // The baseline the first delta is taken against: `data`'s
            // content, so the server's epoch 0 is this writer's first epoch.
            writer.snapshot();
            let stream = generate_update_stream(
                data,
                &UpdateStreamConfig {
                    ops: UPDATE_OPS,
                    insert_ratio: 0.6,
                    seed: rng.next_u64(),
                    ..UpdateStreamConfig::default()
                },
            );
            let snapshots = Mutex::new(HashMap::new());
            let waves = AtomicU64::new(0);
            let (writer_done, reader_done) = (AtomicBool::new(false), AtomicBool::new(false));
            std::thread::scope(|scope| {
                // The writer waits for a full wave after every publish, so
                // waves overlap every epoch on any core count. Each side
                // raises its flag however it exits, so a panic on one ends
                // the other's wait and the scope re-raises it.
                scope.spawn(|| {
                    let _done = SetOnDrop(&writer_done);
                    for chunk in stream.chunks(UPDATE_CHUNK) {
                        for op in chunk {
                            writer.apply(op).unwrap();
                        }
                        let delta = writer.snapshot();
                        let epoch = server.update_data(
                            Arc::clone(&delta.graph),
                            &delta.touched_labels,
                            delta.sids_stable,
                        );
                        snapshots.lock().unwrap().insert(epoch, delta.graph);
                        let target = waves.load(Ordering::Acquire) + 1;
                        while waves.load(Ordering::Acquire) < target
                            && !reader_done.load(Ordering::Acquire)
                        {
                            std::thread::yield_now();
                        }
                    }
                });
                let _done = SetOnDrop(&reader_done);
                while !writer_done.load(Ordering::Acquire) {
                    outcomes.extend(wave().into_iter().enumerate());
                    waves.fetch_add(1, Ordering::Release);
                }
            });
            published = snapshots.into_inner().unwrap();
        } else {
            outcomes.extend(wave().into_iter().enumerate());
        }

        let stats = server.stats();
        assert_eq!(stats.active, 0, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(stats.tasks_spawned, stats.tasks_executed, "{stats:?}");
        if self.workers == 1 {
            assert_eq!(stats.splits, 0, "a lone worker must never split");
        }
        server.shutdown();
        let observed = outcomes
            .into_iter()
            .map(|(qi, o)| Observed {
                query: qi,
                epoch: o.data_epoch,
                status: Some(o.status),
                count: o.count,
                embeddings: o.embeddings,
                summary: o.aggregate,
                materialized: o.metrics.materialized,
                replans: o.metrics.replans,
            })
            .collect();
        (observed, published)
    }

    /// Whether a limited run must return exactly the sequential
    /// executor's first k: one worker delivering depth first, on the plan
    /// it was admitted with, with no update to make a cached plan stale.
    fn exact_prefix(&self, obs: &Observed) -> bool {
        self.workers == 1
            && obs.replans == 0
            && !self.updates
            && self.venue != Venue::Bfs
            && matches!(self.mode, AggregateMode::Materialize)
    }

    /// Holds one outcome to the oracle's full result `all` and, where
    /// [`Case::exact_prefix`] applies, to its sequential `first_k`.
    fn check(
        &self,
        obs: &Observed,
        limit: Option<u64>,
        all: &[Embedding],
        first_k: Option<&[Embedding]>,
    ) {
        let ctx = format!("q{} at epoch {}", obs.query, obs.epoch);
        let total = all.len() as u64;
        let mut want = limit.map_or(total, |l| l.min(total));
        if let (AggregateMode::Sampled { .. }, Some(kept)) = (self.mode, &obs.embeddings) {
            // A sample never reports fewer embeddings than it kept, even
            // past a limit (`AggregateSink::take_output`).
            want = want.max(kept.len() as u64);
        }
        assert_eq!(
            obs.count, want,
            "{ctx}: count (total {total}, limit {limit:?})"
        );
        if let Some(status) = obs.status {
            match limit {
                Some(l) if l < total => assert_eq!(status, QueryStatus::LimitReached, "{ctx}"),
                Some(l) if l > total => assert_eq!(status, QueryStatus::Completed, "{ctx}"),
                Some(_) => assert!(
                    matches!(status, QueryStatus::Completed | QueryStatus::LimitReached),
                    "{ctx}: {status:?}"
                ),
                None => assert_eq!(status, QueryStatus::Completed, "{ctx}"),
            }
        }
        // limit_split's bound is the task engine's; the sequential and BFS
        // executors flush counts on their own cadence.
        let task_engine = match self.venue {
            Venue::Run | Venue::Submit | Venue::Engine => true,
            Venue::Matcher => self.workers > 1,
            Venue::Bfs => false,
        };
        if let (Some(l), true) = (limit, task_engine) {
            let bound = l + self.participants() * ABORT_PROBE;
            assert!(
                obs.materialized <= bound,
                "{ctx}: {} embeddings materialized past a limit of {l} (bound {bound})",
                obs.materialized
            );
        }

        let kept = obs.embeddings.as_deref();
        match (self.mode, limit) {
            (AggregateMode::CountOnly, _) => {
                assert!(kept.is_none(), "{ctx}: count-only kept embeddings");
                assert_eq!(obs.materialized, 0, "{ctx}: count-only materialized");
            }
            (AggregateMode::Materialize, None) => {
                assert_eq!(kept, Some(all), "{ctx}: multiset");
            }
            (AggregateMode::Materialize, Some(l)) => {
                let kept = kept.expect("materialized");
                assert_eq!(kept.len() as u64, want, "{ctx}");
                assert_sub_multiset(kept, all, &ctx);
                if let Some(first) = first_k {
                    assert_eq!(kept, first, "{ctx}: not the sequential first {l}");
                }
            }
            (AggregateMode::TopK { k, score }, None) => {
                let (embs, scores) = oracle_top_k(all, k, score);
                assert_eq!(kept, Some(&embs[..]), "{ctx}: top-k kept set");
                match &obs.summary {
                    AggregateSummary::TopK {
                        k: sk,
                        score: ss,
                        scores: got,
                    } => assert_eq!((*sk, *ss, got), (k, score, &scores), "{ctx}"),
                    other => panic!("{ctx}: wrong summary {other:?}"),
                }
            }
            (AggregateMode::Sampled { budget, seed }, None) => {
                let sample = oracle_sample(all, budget, seed);
                assert_eq!(
                    kept,
                    Some(&sample[..]),
                    "{ctx}: sample not seed-reproducible"
                );
                match &obs.summary {
                    AggregateSummary::Sampled {
                        sampled,
                        fraction,
                        ci95,
                        ..
                    } => {
                        assert_eq!(*sampled, (budget as u64).min(total), "{ctx}");
                        assert!(*fraction > 0.0 && *fraction <= 1.0, "{ctx}");
                        assert!(*ci95 >= 0.0, "{ctx}");
                        if *sampled == total {
                            assert_eq!(*ci95, 0.0, "{ctx}: full coverage has no CI");
                        }
                    }
                    other => panic!("{ctx}: wrong summary {other:?}"),
                }
            }
            (
                AggregateMode::TopK { k: cap, .. } | AggregateMode::Sampled { budget: cap, .. },
                _,
            ) => {
                // A limited top-k or sample keeps the best of whatever was
                // found first: oracle embeddings, as many as the cap and
                // the count allow.
                let kept = kept.expect("kept");
                assert!(kept.len() <= cap, "{ctx}");
                assert!(kept.len() as u64 >= want.min(cap as u64), "{ctx}");
                assert_sub_multiset(kept, all, &ctx);
            }
        }
    }
}

/// Raises its flag when dropped, on return or while unwinding.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One query's result, from whichever venue ran it.
struct Observed {
    query: usize,
    epoch: u64,
    /// The serving layer's terminal status (`None` on one-shot venues).
    status: Option<QueryStatus>,
    count: u64,
    embeddings: Option<Vec<Embedding>>,
    summary: AggregateSummary,
    materialized: u64,
    replans: u64,
}

/// The oracle side of a case: rebuilds of every pinned snapshot and the
/// sequential executor's sorted result per (epoch, query), each computed
/// once. Used under [`Case::reference`].
#[derive(Default)]
struct Oracles {
    rebuilt: HashMap<u64, Hypergraph>,
    all: HashMap<(u64, usize), Vec<Embedding>>,
}

impl Oracles {
    fn rebuilt(&mut self, epoch: u64, graph: &Hypergraph) -> &Hypergraph {
        self.rebuilt
            .entry(epoch)
            .or_insert_with(|| rebuild_oracle(graph))
    }

    fn all(
        &mut self,
        epoch: u64,
        graph: &Hypergraph,
        qi: usize,
        query: &Hypergraph,
    ) -> &[Embedding] {
        if !self.all.contains_key(&(epoch, qi)) {
            let oracle = self.rebuilt(epoch, graph);
            let sink = CollectSink::new();
            SequentialExecutor::run(
                &plan(oracle, query),
                oracle,
                &sink,
                &MatchConfig::sequential(),
            );
            self.all.insert((epoch, qi), sink.into_results());
        }
        &self.all[&(epoch, qi)]
    }
}

fn plan(data: &Hypergraph, query: &Hypergraph) -> Plan {
    Planner::plan(&QueryGraph::new(query).unwrap(), data).unwrap()
}

/// The first `k` embeddings the sequential executor delivers on `oracle`,
/// sorted.
fn sequential_first_k(oracle: &Hypergraph, query: &Hypergraph, k: u64) -> Vec<Embedding> {
    let sink = FirstKSink::new(k as usize);
    SequentialExecutor::run(
        &plan(oracle, query),
        oracle,
        &sink,
        &MatchConfig::sequential(),
    );
    sink.into_results()
}

/// Asserts that every embedding of `part` occurs in the sorted `all`, no
/// more often than there.
fn assert_sub_multiset(part: &[Embedding], all: &[Embedding], ctx: &str) {
    let mut part = part.to_vec();
    part.sort_unstable();
    let mut rest = all.iter();
    for emb in &part {
        assert!(
            rest.any(|a| a == emb),
            "{ctx}: {emb:?} is not an oracle embedding"
        );
    }
}

/// Oracle top-k: sort the full result set by (score desc, bytes asc) and
/// keep the first k — the total order `TopKState` promises.
fn oracle_top_k(all: &[Embedding], k: usize, score: ScoreFn) -> (Vec<Embedding>, Vec<u64>) {
    let mut scored: Vec<(u64, Embedding)> = all
        .iter()
        .map(|e| (score.score(e.raw()), e.clone()))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scored.truncate(k);
    let scores = scored.iter().map(|(s, _)| *s).collect();
    (scored.into_iter().map(|(_, e)| e).collect(), scores)
}

/// Oracle sample: the `budget` embeddings with the smallest (priority,
/// bytes) pairs under the seeded content hash, sorted — the pure function
/// of (seed, result multiset) `SampleState` implements.
fn oracle_sample(all: &[Embedding], budget: usize, seed: u64) -> Vec<Embedding> {
    let mut prioritised: Vec<(u64, Embedding)> = all
        .iter()
        .map(|e| (hash_emb(seed, e.raw()), e.clone()))
        .collect();
    prioritised.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    prioritised.truncate(budget);
    let mut embs: Vec<Embedding> = prioritised.into_iter().map(|(_, e)| e).collect();
    embs.sort_unstable();
    embs
}

/// Aborts the process, naming the running case, once one case has run
/// for [`STALL`]: a hang fails with its index instead of running until
/// the CI timeout with the test's output still captured.
fn watchdog(current: &AtomicU64, done: &AtomicBool) {
    let (mut seen, mut since) = (u64::MAX, Instant::now());
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(100));
        let index = current.load(Ordering::Acquire);
        if index != seen {
            (seen, since) = (index, Instant::now());
        } else if since.elapsed() > STALL {
            let case = Case::draw(index);
            let _ = writeln!(
                std::io::stderr(),
                "swarm case {index} hung for {STALL:?} (replay: FIRST_CASE = {index}): {case:#?}"
            );
            std::process::abort();
        }
    }
}

#[test]
fn swarm() {
    let current = AtomicU64::new(FIRST_CASE);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| watchdog(&current, &done));
        let _done = SetOnDrop(&done);
        for index in FIRST_CASE..CASES {
            current.store(index, Ordering::Release);
            let case = Case::draw(index);
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case.run())) {
                eprintln!("swarm case {index} failed (replay: FIRST_CASE = {index}): {case:#?}");
                resume_unwind(panic);
            }
        }
    });
}
