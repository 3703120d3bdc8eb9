//! The four workloads. Each runs in a process of its own, so that peak
//! memory and CPU time belong to it alone; the load generator and the
//! system under test share that process.
//!
//! A workload is a fixed list of requests replayed for many measured
//! passes after a discarded warm-up: fixed work, never a fixed duration. A
//! throughput or a latency percentile is computed within each pass and the
//! run reports the first decile of the per-pass values, see
//! [`crate::stats`]. The sizes below give 13 to 24 s of measured passes on
//! the 2-core host this was written on.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hgmatch_core::serve::{MatchServer, QueryOptions, QueryStatus, ServeConfig, ServeStats};
use hgmatch_core::{MatchConfig, Matcher};
use hgmatch_datasets::{generate, profile_by_name, GeneratorConfig};
use hgmatch_hypergraph::{DynamicHypergraph, Hypergraph, Partition, UpdateOp};
use hgmatch_server::{FrontDoor, FrontDoorConfig};

use crate::client::{parse_answer, Answer, Client, Status};
use crate::inputs::{
    self, build_pool, http_request, is_embedding, mixed_requests, oracle_count, request_body,
    uniform_requests, update_stream, GraphText, Mode, PoolQuery, PoolSpec, Request,
    MATERIALIZE_LIMIT,
};
use crate::layers::{self, ratio, Values};
use crate::procfs;
use crate::replay;
use crate::rng::{Rng, Zipf};
use crate::spec;
use crate::stats::{first_decile, median, percentile, samples_beyond};
use crate::trace::{self, Span, Tracer};

/// `--seconds` of the driver's runs (`run_seconds` in `/BENCHMARK.json`):
/// what the pass counts below are for. Another value scales them.
pub const RUN_SECONDS: f64 = 20.0;

/// Engine threads, HTTP handler threads and the client cap: the host has
/// two cores. Every other setting of the program stays at its default, so
/// that a changed default shows.
pub const THREADS: usize = 2;

/// Update ops per epoch, everywhere.
const EPOCH_OPS: usize = 2_000;

/// Seed of every update stream.
const STREAM_SEED: u64 = 0x7374_7265;

/// Reply bodies and requests kept for the codec measurement.
const CODEC_SAMPLES: usize = 512;

/// Embeddings the materialize-cost measurement may collect.
const MATERIALIZE_CAP: u64 = 2_000_000;

/// Untraced and traced passes of a traced run, alternating.
const TRACE_PASSES: usize = 2;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/20 of the work on a 1/10 data graph, one pass: the same code
    /// paths in seconds, for tests.
    pub smoke: bool,
    /// Test hook: shift one oracle count, which must fail the run.
    pub corrupt_oracle: bool,
    /// Where trace files go.
    pub out_dir: std::path::PathBuf,
}

impl Options {
    /// `base` requests per pass; a twentieth in smoke mode, at least one.
    fn sized(&self, base: usize) -> usize {
        if self.smoke {
            (base / 20).max(1)
        } else {
            base
        }
    }

    /// `full` passes or epochs at [`RUN_SECONDS`], in proportion at
    /// another `--seconds`; never fewer than three, for the median's sake.
    fn scaled(&self, full: usize) -> usize {
        ((full as f64 * self.seconds / RUN_SECONDS).round() as usize).max(3)
    }

    /// Measured passes: one in smoke mode; a traced run alternates
    /// [`TRACE_PASSES`] untraced and traced passes instead.
    fn passes(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else if self.trace {
            TRACE_PASSES
        } else {
            self.scaled(full)
        }
    }

    /// The workload's data graph as the text the program loads. Whatever
    /// generating it took is freed again, so that the process's peak
    /// memory is the program's own.
    fn dataset_text(&self, name: &str) -> GraphText {
        let generated = if self.smoke {
            let config = profile_by_name(name).expect("known profile").config;
            generate(&GeneratorConfig {
                num_vertices: (config.num_vertices / 10).max(64),
                num_edges: (config.num_edges / 10).max(256),
                ..config
            })
        } else {
            inputs::dataset(name)
        };
        GraphText::of(&generated)
    }

    /// The workload's query pool. Smoke accepts lighter queries, as its
    /// data graph is a tenth, and keeps an eighth of them, spread over the
    /// pool's settings.
    fn build_pool(&self, data: &Hypergraph, spec: PoolSpec) -> Vec<PoolQuery> {
        if !self.smoke {
            return build_pool(data, &spec);
        }
        let pool = build_pool(
            data,
            &PoolSpec {
                min_count: spec.min_count / 1000,
                ..spec
            },
        );
        let keep = (pool.len() / 8).max(4).min(pool.len());
        let stride = (pool.len() / keep).max(1);
        pool.into_iter().step_by(stride).take(keep).collect()
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Human-readable lines: sample counts, sizes, run facts.
    pub notes: Vec<String>,
}

/// Requests attempted and failed (non-200, wrong answer, timed out).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// For the run's notes: where the process ran.
fn on_cpus(pinned: Option<usize>) -> String {
    pinned.map_or("on every CPU allowed".to_string(), |cpu| {
        format!("process pinned to CPU {cpu}")
    })
}

/// Runs the named workload.
pub fn run(workload: &str, options: &Options) -> Outcome {
    match workload {
        "point_http" => http_workload(&POINT_HTTP, options),
        "enum_http" => http_workload(&ENUM_HTTP, options),
        "heavy_lib" => heavy_lib(options),
        "update_mix" => update_mix(options),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------------
// Timing: passes over a fixed list, and what they boil down to.
// ---------------------------------------------------------------------

/// The time-based end-to-end numbers of a workload.
#[derive(Debug, Default)]
struct Timing {
    qps: f64,
    emb_per_s: f64,
    lat_p50_ms: f64,
    lat_p95_ms: f64,
    cpu_ms_per_query: f64,
    /// Which samples the numbers rest on.
    note: String,
}

/// The measured passes of a workload, one entry per pass (in `update_mix`
/// per epoch's query phase).
#[derive(Debug, Default)]
struct Passes {
    /// Seconds from the first request sent to the last reply read.
    wall_s: Vec<f64>,
    /// Seconds each request took as its client saw it.
    latencies_s: Vec<Vec<f64>>,
    /// Process CPU seconds, load generator included.
    cpu_s: Vec<f64>,
    /// Embeddings found.
    embeddings: Vec<u64>,
}

impl Passes {
    fn timing(&self) -> Timing {
        let passes = self.wall_s.len();
        if passes == 0 {
            return Timing::default();
        }
        let per_pass = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..passes).map(f).collect() };
        let requests = |i: usize| self.latencies_s[i].len() as f64;
        // Seconds, not rates: the first decile is of values where lower is
        // better.
        let s_per_request = per_pass(&|i| self.wall_s[i] / requests(i));
        let qps = 1.0 / first_decile(&s_per_request);
        // Embeddings per request are the list's, whichever pass is the
        // first decile (`update_mix` draws another list every epoch).
        let embeddings_per_request =
            self.embeddings.iter().sum::<u64>() as f64 / per_pass(&requests).iter().sum::<f64>();
        let percentile_s =
            |p: f64| first_decile(&per_pass(&|i| percentile(&self.latencies_s[i], p)));
        Timing {
            qps,
            emb_per_s: qps * embeddings_per_request,
            lat_p50_ms: percentile_s(50.0) * 1e3,
            lat_p95_ms: percentile_s(95.0) * 1e3,
            cpu_ms_per_query: first_decile(&per_pass(&|i| self.cpu_s[i] / requests(i))) * 1e3,
            note: format!(
                "first deciles over {passes} passes of {} requests ({} of a pass beyond its p95); seconds per pass from {:.4} to {:.4}",
                self.latencies_s[0].len(),
                samples_beyond(self.latencies_s[0].len(), 95.0),
                self.wall_s.iter().copied().fold(f64::INFINITY, f64::min),
                self.wall_s.iter().copied().fold(0.0, f64::max),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Update epochs: shared by the coda of every workload and by update_mix.
// ---------------------------------------------------------------------

/// Times of the write path, one entry per measured epoch.
#[derive(Debug, Default)]
struct WriteStats {
    apply_s: Vec<f64>,
    snapshot_s: Vec<f64>,
    update_data_s: Vec<f64>,
    /// Partitions holding a delete when published (each is compacted by
    /// or at the snapshot): a lower bound on compactions, from the stream.
    compactions: u64,
    partitions: u64,
    partitions_reused: u64,
}

impl WriteStats {
    fn end_to_end(&self) -> Values {
        let publish_s: Vec<f64> = self
            .snapshot_s
            .iter()
            .zip(&self.update_data_s)
            .map(|(s, u)| s + u)
            .collect();
        vec![
            (
                "update_kops_per_s",
                EPOCH_OPS as f64 / 1e3 / first_decile(&self.apply_s),
            ),
            ("publish_ms", first_decile(&publish_s) * 1e3),
        ]
    }

    fn per_layer(&self) -> Values {
        let apply_ns: Vec<f64> = self
            .apply_s
            .iter()
            .map(|s| s * 1e9 / EPOCH_OPS as f64)
            .collect();
        let snapshot_ms: Vec<f64> = self.snapshot_s.iter().map(|s| s * 1e3).collect();
        let update_ms: Vec<f64> = self.update_data_s.iter().map(|s| s * 1e3).collect();
        vec![
            ("core.serve.update_data_ms", median(&update_ms)),
            ("hypergraph.dynamic.apply_ns_per_op", median(&apply_ns)),
            ("hypergraph.dynamic.snapshot_ms_p50", median(&snapshot_ms)),
            ("hypergraph.dynamic.compactions", self.compactions as f64),
            (
                "hypergraph.dynamic.partitions_reused_ratio",
                ratio(self.partitions_reused as f64, self.partitions as f64),
            ),
        ]
    }
}

/// The writer side of the data plane: a `DynamicHypergraph` publishing
/// epochs into a `MatchServer`.
struct EpochWriter {
    dynamic: DynamicHypergraph,
    current: Arc<Hypergraph>,
}

impl EpochWriter {
    /// Seeds the writer from `data` and takes its first snapshot.
    fn start(data: &Hypergraph) -> Self {
        let mut dynamic = DynamicHypergraph::from_hypergraph(data);
        let current = dynamic.snapshot().graph;
        EpochWriter { dynamic, current }
    }

    /// A pool on the writer's latest snapshot, for it to publish into.
    fn serve(&self) -> MatchServer {
        MatchServer::new(
            Arc::clone(&self.current),
            ServeConfig::default().with_threads(THREADS),
        )
    }

    /// Applies one epoch of ops and publishes it into `server`. A measured
    /// epoch enters `stats`; `tracer` gets one span per epoch and stage.
    fn epoch(
        &mut self,
        server: &MatchServer,
        ops: &[UpdateOp],
        stats: Option<&mut WriteStats>,
        tracer: Option<&mut Tracer>,
    ) {
        let labels = self.current.labels();
        let deleted_from: HashSet<Vec<u32>> = ops
            .iter()
            .filter_map(|op| match op {
                UpdateOp::Delete(vs) => {
                    let mut signature: Vec<u32> =
                        vs.iter().map(|&v| labels[v as usize].raw()).collect();
                    signature.sort_unstable();
                    Some(signature)
                }
                UpdateOp::Insert(_) | UpdateOp::AddVertex(_) => None,
            })
            .collect();

        assert_eq!(ops.len(), EPOCH_OPS, "an epoch is a fixed amount of work");
        let t0 = Instant::now();
        for op in ops {
            self.dynamic.apply(op).expect("generated op applies");
        }
        let t1 = Instant::now();
        let delta = self.dynamic.snapshot();
        let t2 = Instant::now();
        server.update_data(
            Arc::clone(&delta.graph),
            &delta.touched_labels,
            delta.sids_stable,
        );
        let t3 = Instant::now();

        if let Some(tracer) = tracer {
            let root = tracer.span(0, "epoch", t0, t3);
            tracer.span(root, "dynamic.apply", t0, t1);
            tracer.span(root, "dynamic.snapshot", t1, t2);
            tracer.span(root, "serve.update_data", t2, t3);
        }
        if let Some(stats) = stats {
            let before: HashSet<*const Partition> =
                self.current.partitions().iter().map(Arc::as_ptr).collect();
            stats.apply_s.push((t1 - t0).as_secs_f64());
            stats.snapshot_s.push((t2 - t1).as_secs_f64());
            stats.update_data_s.push((t3 - t2).as_secs_f64());
            stats.compactions += deleted_from.len() as u64;
            stats.partitions += delta.graph.partitions().len() as u64;
            stats.partitions_reused += delta
                .graph
                .partitions()
                .iter()
                .filter(|p| before.contains(&Arc::as_ptr(p)))
                .count() as u64;
        }
        self.current = delta.graph;
    }
}

/// The update coda of every read-only workload: `epochs` measured epochs of
/// [`EPOCH_OPS`] ops on the workload's own data graph, spot-checked
/// against the oracle. It runs beside the measured passes, see [`Beside`],
/// and in cycles: a cycle starts a writer on the data graph and applies
/// the same stream, one discarded epoch and `cycle` measured ones.
struct Coda<'a> {
    data: &'a Hypergraph,
    /// Started with the first epoch, so that the read path's peak memory
    /// can be read before.
    writer: Option<EpochWriter>,
    stats: WriteStats,
    /// One cycle's ops. A constant of the code, like the data graph: which
    /// edges go decides what an epoch costs (seeds moved
    /// `update_kops_per_s` by 11 %).
    stream: Vec<UpdateOp>,
    /// Measured epochs wanted in all and in a cycle, and the next epoch's
    /// place in its cycle (0 is the discarded one).
    epochs: usize,
    cycle: usize,
    at: usize,
    /// The cheapest pool query checks what each slice has published.
    check: &'a PoolQuery,
}

impl<'a> Coda<'a> {
    fn new(
        data: &'a Hypergraph,
        pool: &'a [PoolQuery],
        epochs: usize,
        cycle: usize,
        options: &Options,
    ) -> Self {
        let epochs = if options.smoke { 2 } else { epochs };
        let cycle = cycle.min(epochs);
        Coda {
            data,
            writer: None,
            stats: WriteStats::default(),
            stream: update_stream(data, (1 + cycle) * EPOCH_OPS, STREAM_SEED),
            epochs,
            cycle,
            at: 0,
            check: pool
                .iter()
                .min_by_key(|q| q.count)
                .expect("a pool has queries"),
        }
    }

    /// Publishes epochs until `measured` of them are measured ones. The
    /// pool they are published into lives only that long: its idle workers
    /// wake every millisecond, which the passes should not see.
    fn advance(&mut self, measured: usize, tally: &mut Tally, mut tracer: Option<&mut Tracer>) {
        let mut pool: Option<MatchServer> = None;
        while self.stats.apply_s.len() < measured {
            if self.at == 0 {
                if let Some(server) = pool.take() {
                    server.shutdown();
                }
                self.writer = Some(EpochWriter::start(self.data));
            }
            let writer = self.writer.as_mut().expect("a cycle starts its writer");
            let server = pool.get_or_insert_with(|| writer.serve());
            let ops = &self.stream[self.at * EPOCH_OPS..][..EPOCH_OPS];
            let stats = (self.at > 0).then_some(&mut self.stats);
            writer.epoch(server, ops, stats, tracer.as_deref_mut());
            self.at = (self.at + 1) % (1 + self.cycle);
        }
        let (Some(server), Some(writer)) = (pool, &self.writer) else {
            return;
        };
        let served = server
            .run(&self.check.graph, QueryOptions::count())
            .expect("pool queries are valid");
        let expected = oracle_count(&writer.current, &self.check.graph);
        tally.record(served.status == QueryStatus::Completed && served.count == expected);
        server.shutdown();
    }
}

/// What runs beside the measured passes, a slice of it after each pass:
/// the cold builds behind `setup_s` and the epochs of the update coda.
/// Both are short (a cold build of SB takes 40 ms, an epoch 30), and the
/// host is slow for seconds to minutes at a time: done in one go they see
/// one state of the host, spread over the run they see what the passes see.
struct Beside<'a> {
    /// One cold build as a user pays it; returns its seconds.
    build: &'a dyn Fn() -> f64,
    builds: usize,
    setup_s: Vec<f64>,
    coda: Coda<'a>,
    slices: usize,
    done: usize,
    /// `VmHWM` when the first slice began: set-up, warm-up and one pass
    /// (every later pass repeats its work), nothing of what runs beside.
    peak_rss_mb: f64,
}

impl<'a> Beside<'a> {
    /// `first_build_s` is the build the workload itself runs on, the first
    /// of `builds`; `slices` is the number of passes that will each be
    /// followed by a slice.
    fn new(
        first_build_s: f64,
        build: &'a dyn Fn() -> f64,
        builds: usize,
        coda: Coda<'a>,
        slices: usize,
        options: &Options,
    ) -> Self {
        Beside {
            build,
            builds: if options.smoke || options.trace {
                1
            } else {
                builds
            },
            setup_s: vec![first_build_s],
            coda,
            slices,
            done: 0,
            peak_rss_mb: 0.0,
        }
    }

    fn slice(&mut self, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        if self.done == 0 {
            self.peak_rss_mb = procfs::peak_rss_mb();
        }
        self.done += 1;
        let due = |total: usize| total * self.done / self.slices;
        while self.setup_s.len() < due(self.builds) {
            self.setup_s.push((self.build)());
        }
        self.coda.advance(due(self.coda.epochs), tally, tracer);
    }
}

// ---------------------------------------------------------------------
// Shared reporting.
// ---------------------------------------------------------------------

fn index_mb(data: &Hypergraph) -> f64 {
    (data.table_size_bytes() + data.index_size_bytes()) as f64 / 1e6
}

/// The ten end-to-end metrics.
fn end_to_end(
    setup_s: &[f64],
    timing: Timing,
    peak_rss_mb: f64,
    data: &Hypergraph,
    write: &WriteStats,
    notes: &mut Vec<String>,
) -> Values {
    notes.push(timing.note);
    notes.push(format!(
        "setup_s: first decile of {} cold builds {setup_s:.3?} s; write metrics: first deciles over {} epochs",
        setup_s.len(),
        write.snapshot_s.len()
    ));
    let mut values = vec![
        ("setup_s", first_decile(setup_s)),
        ("qps", timing.qps),
        ("lat_p50_ms", timing.lat_p50_ms),
        ("lat_p95_ms", timing.lat_p95_ms),
        ("emb_per_s", timing.emb_per_s),
        ("cpu_ms_per_query", timing.cpu_ms_per_query),
        ("peak_rss_mb", peak_rss_mb),
        ("index_mb", index_mb(data)),
    ];
    values.extend(write.end_to_end());
    values
}

/// What a workload holds when its measured passes are over.
struct Measured<'a> {
    name: &'static str,
    options: &'a Options,
    data: &'a Hypergraph,
    text: &'a GraphText,
    pool: &'a [PoolQuery],
    timing: Timing,
    /// Seconds of every cold build.
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    /// `update_mix`'s own epochs, or the coda's.
    write: WriteStats,
    layer_values: Values,
    /// Holds the spans recorded so far; the origin of the run's trace.
    tracer: Tracer,
    tally: Tally,
    outcome: Outcome,
}

/// The part every workload ends with: in a traced run the layers below
/// the pool, then the report.
fn finish(measured: Measured) -> Outcome {
    let Measured {
        name,
        options,
        data,
        text,
        pool,
        timing,
        setup_s,
        peak_rss_mb,
        write,
        mut layer_values,
        mut tracer,
        mut tally,
        mut outcome,
    } = measured;
    if options.trace {
        layer_values.extend(engine_layers(data, text, pool, &mut tracer, &mut tally));
        layer_values.extend(write.per_layer());
        write_trace(options, name, &tracer.spans, &mut outcome.notes);
        outcome.per_layer = per_layer(layer_values);
    }
    outcome.end_to_end = end_to_end(
        &setup_s,
        timing,
        peak_rss_mb,
        data,
        &write,
        &mut outcome.notes,
    );
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome
}

/// Tracing overhead: 1 − traced throughput ÷ untraced throughput.
fn trace_overhead(untraced: &Timing, traced: &Timing) -> (&'static str, f64) {
    ("trace.overhead_frac", 1.0 - ratio(traced.qps, untraced.qps))
}

/// Every per-layer metric by name, in the order of the spec; a layer the
/// workload does not reach reads 0.
fn per_layer(measured: Values) -> Values {
    spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = measured
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |&(_, v)| v);
            (m.name, value)
        })
        .collect()
}

/// Counters of the serving pool at one instant — admitted queries, plan
/// hits, misses and invalidations, tasks, steals, splits, assists, worker
/// busy seconds, requests shed — as numbers, so that differences over
/// several traced intervals add up.
type ServeCounters = [f64; 10];

fn serve_counters(stats: &ServeStats, busy_s: f64, shed: f64) -> ServeCounters {
    [
        stats.admitted as f64,
        stats.plan_cache_hits as f64,
        stats.plan_cache_misses as f64,
        stats.plans_invalidated as f64,
        stats.tasks_executed as f64,
        stats.steals as f64,
        stats.splits as f64,
        stats.assists as f64,
        busy_s,
        shed,
    ]
}

fn server_counters(server: &MatchServer) -> ServeCounters {
    let busy_s = server
        .worker_stats()
        .iter()
        .map(|w| w.busy.as_secs_f64())
        .sum();
    serve_counters(&server.stats(), busy_s, 0.0)
}

/// The door exposes the pool's per-worker busy time and its own shed
/// counters only through the `/metrics` text.
fn door_counters(door: &FrontDoor) -> ServeCounters {
    let text = door.metrics_text();
    let sum = |family: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(family))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    serve_counters(
        &door.stats(),
        sum("hgmatch_worker_busy_seconds_total{"),
        sum("hgmatch_shed_total{"),
    )
}

/// Adds what happened between `before` and `after` to `total`.
fn add_interval(total: &mut ServeCounters, before: &ServeCounters, after: &ServeCounters) {
    for ((t, b), a) in total.iter_mut().zip(before).zip(after) {
        *t += a - b;
    }
}

/// `core::serve` numbers from counter differences over `wall_s` seconds.
fn serve_layer(delta: &ServeCounters, wall_s: f64) -> Values {
    let [admitted, hits, misses, invalidated, tasks, steals, splits, assists, busy_s, shed] =
        *delta;
    vec![
        ("core.serve.plan_hit_ratio", ratio(hits, hits + misses)),
        ("core.serve.plans_invalidated", invalidated),
        ("core.serve.tasks_per_query", ratio(tasks, admitted)),
        ("core.serve.steals", steals),
        ("core.serve.splits", splits),
        ("core.serve.assists", assists),
        (
            "core.serve.worker_busy_frac",
            ratio(busy_s, THREADS as f64 * wall_s),
        ),
        ("server.door.shed_count", shed),
    ]
}

/// The layers below the serving pool, measured on the workload's distinct
/// queries: planning, the one-shot engine, the staged replay (checked
/// against the oracle's total), materialization cost, the set kernels on
/// the postings the plans read, and the static index numbers.
fn engine_layers(
    data: &Hypergraph,
    text: &GraphText,
    pool: &[PoolQuery],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Values {
    let queries = || pool.iter().map(|q| &q.graph);
    let mut values = layers::planning(data, queries());
    let sequential_s: f64 = pool.iter().map(|q| q.oracle_s).sum();
    values.extend(layers::engine(data, queries(), sequential_s));

    let began = Instant::now();
    let replayed = replay::replay(data, queries());
    let mut cursor = tracer.ns(began);
    for (i, (stages, deliver)) in replayed.per_query.iter().enumerate() {
        let total: Duration = stages
            .iter()
            .map(|s| s.prepare + s.generate + s.validate)
            .sum::<Duration>()
            + *deliver;
        let root = tracer.span_ns(
            0,
            "replay.query",
            cursor,
            cursor + total.as_nanos() as u64,
            replayed.counts[i],
        );
        for s in stages {
            for (name, took, count) in [
                ("replay.prepare", s.prepare, s.expansions),
                ("replay.generate", s.generate, s.expansions),
                ("replay.validate", s.validate, s.validate_calls),
            ] {
                let end = cursor + took.as_nanos() as u64;
                tracer.span_ns(root, name, cursor, end, count);
                cursor = end;
            }
        }
        let end = cursor + deliver.as_nanos() as u64;
        tracer.span_ns(root, "replay.deliver", cursor, end, replayed.counts[i]);
        cursor = end;
    }
    // The replay is one more implementation of the paper's semantics:
    // hold it to the oracle too.
    for (query, &count) in pool.iter().zip(&replayed.counts) {
        tally.record(count == query.count);
    }
    let totals = replayed.total;
    values.extend([
        ("core.candidates.prepare_s", totals.prepare.as_secs_f64()),
        ("core.candidates.generate_s", totals.generate.as_secs_f64()),
        ("core.validate.validate_s", totals.validate.as_secs_f64()),
        ("core.sink.deliver_s", replayed.deliver.as_secs_f64()),
        ("core.candidates.calls", totals.expansions as f64),
        ("core.candidates.produced", totals.produced as f64),
        ("core.validate.calls", totals.validate_calls as f64),
        (
            "core.validate.valid_ratio",
            ratio(totals.valid as f64, totals.produced as f64),
        ),
        ("core.sink.embeddings", replayed.embeddings as f64),
        (
            "core.memory.peak_partial_bytes",
            replayed.peak_partial_bytes as f64,
        ),
    ]);

    let counted: Vec<(&Hypergraph, u64)> = pool.iter().map(|q| (&q.graph, q.count)).collect();
    values.push((
        "core.sink.materialize_ns_per_emb",
        layers::materialize_ns_per_embedding(data, &counted, MATERIALIZE_CAP),
    ));
    values.extend(layers::setops(data, &replayed.anchor_keys));
    values.extend(layers::hypergraph_static(text, data));
    values
}

fn write_trace(options: &Options, workload: &str, spans: &[Span], notes: &mut Vec<String>) {
    let path = options.out_dir.join(format!("trace-{workload}.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("trace file {} not written: {e}", path.display())),
    }
}

// ---------------------------------------------------------------------
// point_http and enum_http: the socket path.
// ---------------------------------------------------------------------

struct HttpSpec {
    name: &'static str,
    dataset: &'static str,
    pool: fn() -> PoolSpec,
    /// Closed-loop clients, each on a connection of its own: a client
    /// sends the list's next unsent request when its previous reply has
    /// arrived.
    clients: usize,
    /// Builds a pass of requests from (pool size, options).
    requests: fn(usize, &Options) -> Vec<Request>,
    passes: usize,
    /// Cold builds behind `setup_s`; measured epochs of the coda, in all
    /// and in a cycle.
    builds: usize,
    coda_epochs: usize,
    coda_cycle: usize,
    /// Whether the process is pinned to one CPU, before it spawns its first
    /// thread, so that all of them inherit it.
    ///
    /// `point_http` and `update_mix` are closed loops of one request at a
    /// time: at any instant exactly one thread has work. On two CPUs every
    /// hand-off between threads wakes a halted CPU — on a virtual machine
    /// a trip through the hypervisor, whose cost follows the host's load.
    /// Measured here, a `point_http` request takes 105 us on two CPUs
    /// against 36 us on one and an `update_mix` query 31 us against 10 us,
    /// so two thirds of the two-CPU numbers are the hypervisor's; and with
    /// medians over 10 passes of 1.4 s (56 epochs) ten runs spread by 8 to
    /// 20 % (10 to 11 %) on two CPUs against 2 to 5 % on one. On one CPU a
    /// hand-off is a context switch and the CPU never halts.
    one_cpu: bool,
}

static POINT_HTTP: HttpSpec = HttpSpec {
    name: "point_http",
    dataset: "AR-S",
    // 96 distinct queries stay below plan_cache_capacity (128): after the
    // warm-up every request is a plan-cache hit.
    pool: || PoolSpec {
        pool_seed: 0x0070_6f69_6e74,
        per_setting: &[(0, 32), (1, 32), (2, 32)],
        min_count: 1,
        max_count: 100,
        with_top_k: false,
    },
    clients: 1,
    requests: |pool, options| uniform_requests(pool, options.sized(85), options.seed),
    passes: 40,
    // A cold build of AR-S takes 0.9 s, a publish rebuilds 58 k partitions
    // in about 0.8 s, and a writer takes 1 s to start: one cycle.
    builds: 5,
    coda_epochs: 5,
    coda_cycle: 5,
    one_cpu: true,
};

static ENUM_HTTP: HttpSpec = HttpSpec {
    name: "enum_http",
    dataset: "HB-S",
    pool: || PoolSpec {
        pool_seed: 0x656e_756d,
        per_setting: &[(0, 32), (1, 32)],
        min_count: 1_000,
        max_count: 500_000,
        with_top_k: true,
    },
    clients: 2,
    requests: |pool, options| mixed_requests(pool, options.sized(1), options.seed),
    passes: 11,
    builds: 11,
    // A publish on HB-S takes 0.12 s and so does a writer's start: one
    // cycle, an epoch after each pass.
    coda_epochs: 11,
    coda_cycle: 11,
    one_cpu: false,
};

/// The request bytes `rendered` holds for `request` (three modes per
/// pool query).
fn wire<'a>(rendered: &'a [Vec<u8>], request: &Request) -> &'a [u8] {
    &rendered[request.query as usize * 3 + request.mode as usize]
}

/// One reply as the client saw it.
struct Reply {
    http_status: u16,
    start: Instant,
    done: Instant,
    answer: Option<Answer>,
}

/// What one client brings back from a pass: replies by list position,
/// sample bodies, spans.
type ClientLog = (Vec<(usize, Reply)>, Vec<Vec<u8>>, Vec<Span>);

/// What a pass over the socket returns.
struct HttpPass {
    /// In list order.
    replies: Vec<Reply>,
    wall_s: f64,
    cpu_s: f64,
    /// Reply bodies of the first requests (traced passes only).
    bodies: Vec<Vec<u8>>,
    spans: Vec<Span>,
}

/// Replays `requests` once over `clients` closed loops.
fn http_pass(
    addr: SocketAddr,
    requests: &[Request],
    rendered: &[Vec<u8>],
    clients: usize,
    trace_origin: Option<Instant>,
) -> HttpPass {
    let connections: Vec<Client> = (0..clients)
        .map(|_| Client::connect(addr).expect("connect to the front door"))
        .collect();
    let next = AtomicUsize::new(0);
    let cpu_before = procfs::cpu_seconds();
    let began = Instant::now();
    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(lane, mut client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut tracer = trace_origin.map(|o| Tracer::new(o, lane as u64 + 1));
                    let mut replies = Vec::with_capacity(requests.len() / clients + 1);
                    let mut bodies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        let reply = match client.round_trip(wire(rendered, request)) {
                            Ok(rt) => {
                                let answer = (rt.status == 200)
                                    .then(|| parse_answer(client.body()))
                                    .flatten();
                                if let Some(tracer) = &mut tracer {
                                    let root = tracer.span(0, "request", rt.start, rt.done);
                                    tracer.span(root, "client.write", rt.start, rt.written);
                                    tracer.span(root, "client.wait", rt.written, rt.first_byte);
                                    tracer.span(root, "client.read", rt.first_byte, rt.done);
                                    if let Some(a) = &answer {
                                        // Rebuilt from the server's own
                                        // microseconds, ending where the
                                        // reply began to arrive.
                                        let end = tracer.ns(rt.first_byte);
                                        let exec = end.saturating_sub(a.exec_us * 1000);
                                        let queue = exec.saturating_sub(a.queue_us * 1000);
                                        tracer.span_ns(root, "serve.queue", queue, exec, 1);
                                        tracer.span_ns(root, "serve.exec", exec, end, a.count);
                                    }
                                    if bodies.len() < CODEC_SAMPLES / clients {
                                        bodies.push(client.body().to_vec());
                                    }
                                }
                                Reply {
                                    http_status: rt.status,
                                    start: rt.start,
                                    done: rt.done,
                                    answer,
                                }
                            }
                            Err(_) => {
                                // A broken connection fails this request;
                                // the next one gets a fresh socket.
                                client = Client::connect(addr).expect("reconnect");
                                let now = Instant::now();
                                Reply {
                                    http_status: 0,
                                    start: now,
                                    done: now,
                                    answer: None,
                                }
                            }
                        };
                        replies.push((i, reply));
                    }
                    (replies, bodies, tracer.map_or(Vec::new(), |t| t.spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = began.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;

    let mut out = HttpPass {
        replies: Vec::new(),
        wall_s,
        cpu_s,
        bodies: Vec::new(),
        spans: Vec::new(),
    };
    let mut indexed = Vec::with_capacity(requests.len());
    for (replies, bodies, spans) in per_client {
        indexed.extend(replies);
        out.bodies.extend(bodies);
        out.spans.extend(spans);
    }
    indexed.sort_by_key(|&(i, _)| i);
    assert_eq!(indexed.len(), requests.len(), "one reply per request");
    out.replies = indexed.into_iter().map(|(_, reply)| reply).collect();
    out
}

/// Adds a pass over the socket to the workload's passes. A request that
/// failed took forever, as far as any latency limit goes.
fn fold_http_pass(passes: &mut Passes, pass: &HttpPass) {
    passes.wall_s.push(pass.wall_s);
    passes.latencies_s.push(
        pass.replies
            .iter()
            .map(|r| {
                if r.http_status == 200 {
                    (r.done - r.start).as_secs_f64()
                } else {
                    f64::INFINITY
                }
            })
            .collect(),
    );
    passes.cpu_s.push(pass.cpu_s);
    passes.embeddings.push(
        pass.replies
            .iter()
            .filter_map(|r| r.answer.as_ref())
            .map(|a| a.count)
            .sum(),
    );
}

/// Checks every reply of a pass (in list order) against the oracle,
/// outside the timing.
fn verify_http(
    data: &Hypergraph,
    pool: &[PoolQuery],
    requests: &[Request],
    replies: &[Reply],
    tally: &mut Tally,
) {
    for (reply, &request) in replies.iter().zip(requests) {
        let query = &pool[request.query as usize];
        let ok = reply.http_status == 200
            && reply
                .answer
                .as_ref()
                .is_some_and(|a| answer_is_right(data, query, request.mode, a));
        tally.record(ok);
    }
}

fn answer_is_right(data: &Hypergraph, query: &PoolQuery, mode: Mode, answer: &Answer) -> bool {
    match mode {
        Mode::Count => answer.status == Status::Completed && answer.count == query.count,
        Mode::TopK => {
            answer.status == Status::Completed
                && answer.count == query.count
                && answer.embeddings.as_ref() == Some(&query.top_k)
        }
        Mode::Materialize => {
            // A subset of the right size: the limit if the query has more,
            // else everything; distinct, and each one an embedding.
            let expected = query.count.min(MATERIALIZE_LIMIT);
            let status_ok = if query.count > MATERIALIZE_LIMIT {
                answer.status == Status::LimitReached
            } else {
                answer.status != Status::Other
            };
            let Some(embeddings) = &answer.embeddings else {
                return false;
            };
            let distinct: HashSet<&Vec<u32>> = embeddings.iter().collect();
            status_ok
                && answer.count == expected
                && embeddings.len() as u64 == expected
                && distinct.len() == embeddings.len()
                && embeddings
                    .iter()
                    .all(|e| is_embedding(data, &query.graph, e))
        }
    }
}

fn http_workload(spec: &HttpSpec, options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let pinned = spec.one_cpu.then(procfs::pin_to_one_cpu).flatten();
    let text = options.dataset_text(spec.dataset);

    // Set-up as a user pays it: text in memory -> parse + index build ->
    // front door listening. Generating the synthetic graph is not part.
    // The benchmark checks answers on the graph the door serves, not on a
    // copy that would double the process's memory.
    let build = || {
        let began = Instant::now();
        let data = Arc::new(text.load());
        let door = FrontDoor::bind(
            Arc::clone(&data),
            FrontDoorConfig {
                http_threads: THREADS,
                serve: ServeConfig::default().with_threads(THREADS),
                ..FrontDoorConfig::default()
            },
        )
        .expect("bind the front door");
        (began.elapsed().as_secs_f64(), data, door)
    };
    let cold_build = || {
        let (seconds, _, door) = build();
        door.shutdown();
        seconds
    };
    let (first_build_s, data, door) = build();
    let addr = door.local_addr();

    let mut pool = options.build_pool(&data, (spec.pool)());
    if options.corrupt_oracle {
        pool[0].count += 1;
    }
    let requests = (spec.requests)(pool.len(), options);
    let rendered: Vec<Vec<u8>> = pool
        .iter()
        .flat_map(|q| {
            [Mode::Count, Mode::TopK, Mode::Materialize]
                .map(|mode| http_request(&request_body(&q.graph, mode)))
        })
        .collect();
    outcome.notes.push(format!(
        "{}: {} edges, {} distinct queries, {} requests per pass, {} client(s), seed {}, {}",
        spec.dataset,
        data.num_edges(),
        pool.len(),
        requests.len(),
        spec.clients,
        options.seed,
        on_cpus(pinned)
    ));

    // Warm-up: a quarter pass fills the plan cache and the allocator.
    let quarter = &requests[..requests.len().div_ceil(4)];
    let warm = http_pass(addr, quarter, &rendered, spec.clients, None);
    verify_http(&data, &pool, &requests, &warm.replies, &mut tally);

    // A traced run alternates untraced and traced passes, so that both
    // see the same minutes of the host.
    let passes = options.passes(spec.passes);
    let coda = Coda::new(&data, &pool, spec.coda_epochs, spec.coda_cycle, options);
    let mut beside = Beside::new(
        first_build_s,
        &cold_build,
        spec.builds,
        coda,
        passes,
        options,
    );
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut untraced = Passes::default();
    let mut traced = Passes::default();
    let mut traced_replies = Vec::new();
    let mut traced_wall_s = 0.0;
    let mut bodies = Vec::new();
    let mut serve_traced: ServeCounters = [0.0; 10];
    for _ in 0..passes {
        let pass = http_pass(addr, &requests, &rendered, spec.clients, None);
        verify_http(&data, &pool, &requests, &pass.replies, &mut tally);
        fold_http_pass(&mut untraced, &pass);
        if options.trace {
            let before = door_counters(&door);
            let pass = http_pass(
                addr,
                &requests,
                &rendered,
                spec.clients,
                Some(tracer.origin()),
            );
            traced_wall_s += pass.wall_s;
            add_interval(&mut serve_traced, &before, &door_counters(&door));
            verify_http(&data, &pool, &requests, &pass.replies, &mut tally);
            fold_http_pass(&mut traced, &pass);
            bodies = pass.bodies;
            tracer.spans.extend(pass.spans);
            traced_replies.extend(pass.replies);
        }
        beside.slice(&mut tally, options.trace.then_some(&mut tracer));
    }
    let timing = untraced.timing();

    let mut layer_values = Values::new();
    if options.trace {
        let answers = || {
            traced_replies
                .iter()
                .filter_map(|r| Some((r, r.answer.as_ref()?)))
        };
        let overhead: Vec<f64> = answers()
            .map(|(r, a)| (r.done - r.start).as_secs_f64() * 1e6 - a.elapsed_us as f64)
            .collect();
        let queue: Vec<f64> = answers().map(|(_, a)| a.queue_us as f64).collect();
        let exec: Vec<f64> = answers().map(|(_, a)| a.exec_us as f64).collect();
        layer_values.extend([
            ("server.door.overhead_us", median(&overhead)),
            ("core.serve.queue_us_p50", median(&queue)),
            ("core.serve.exec_us_p50", median(&exec)),
            trace_overhead(&timing, &traced.timing()),
        ]);
        layer_values.extend(serve_layer(&serve_traced, traced_wall_s));
        let sample: Vec<&[u8]> = requests
            .iter()
            .take(CODEC_SAMPLES)
            .map(|r| wire(&rendered, r))
            .collect();
        layer_values.extend(layers::server_codec(&sample, &bodies));
        outcome.notes.push(format!(
            "door overhead, queue and exec medians over {} traced requests",
            overhead.len()
        ));
    }

    let stats = door.shutdown();
    if stats.active != 0 || stats.timed_out != 0 || stats.cancelled != 0 {
        tally.failed += 1;
    }

    finish(Measured {
        name: spec.name,
        options,
        data: &data,
        text: &text,
        pool: &pool,
        timing,
        setup_s: beside.setup_s,
        peak_rss_mb: beside.peak_rss_mb,
        write: beside.coda.stats,
        layer_values,
        tracer,
        tally,
        outcome,
    })
}

// ---------------------------------------------------------------------
// heavy_lib: the one-shot parallel engine in process.
// ---------------------------------------------------------------------

/// Measured passes of `heavy_lib`, each followed by a cold build and a
/// cycle of the coda. On SB an epoch takes 30 ms and so does a writer's
/// start, so a cycle is short and every pass is followed by the same two
/// epochs: a first decile wants like compared with like, and an epoch of
/// 2000 ops on so small a graph costs between 1.8 and 2.7 ms to apply,
/// depending on the ops.
const HEAVY_PASSES: usize = 11;
const HEAVY_CODA_EPOCHS: usize = 22;
const HEAVY_CODA_CYCLE: usize = 2;

/// Distinct queries, each once a pass: a pass's median is its 15th fastest
/// query and its 95th percentile its 28th, with one query beyond. The
/// queries lie 20 % apart around the median, so these are the same two
/// queries in every pass.
const HEAVY_QUERIES: usize = 29;

fn heavy_pool() -> PoolSpec {
    PoolSpec {
        pool_seed: 0x0068_6561_7679,
        per_setting: &[(1, HEAVY_QUERIES)],
        min_count: 100_000,
        max_count: 2_000_000,
        with_top_k: false,
    }
}

/// One pass: every query of `order` through `Matcher` at 2 threads into a
/// `CountSink`, one after another.
fn heavy_pass(
    data: &Hypergraph,
    pool: &[PoolQuery],
    order: &[u32],
    passes: &mut Passes,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) {
    let matcher = Matcher::with_config(data, MatchConfig::parallel(THREADS));
    let mut seconds = Vec::with_capacity(order.len());
    let mut embeddings = 0;
    let cpu_before = procfs::cpu_seconds();
    let began = Instant::now();
    for &q in order {
        let query = &pool[q as usize];
        let t0 = Instant::now();
        let count = matcher.count(&query.graph).expect("pool queries are valid");
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            let root = tracer.span(0, "request", t0, t1);
            tracer.span_ns(root, "engine.run", tracer.ns(t0), tracer.ns(t1), count);
        }
        seconds.push((t1 - t0).as_secs_f64());
        embeddings += count;
        tally.record(count == query.count);
    }
    passes.wall_s.push(began.elapsed().as_secs_f64());
    passes.cpu_s.push(procfs::cpu_seconds() - cpu_before);
    passes.latencies_s.push(seconds);
    passes.embeddings.push(embeddings);
}

fn heavy_lib(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let text = options.dataset_text("SB");

    // No pool and no door: set-up is the cold build alone.
    let build = || {
        let began = Instant::now();
        let data = text.load();
        (began.elapsed().as_secs_f64(), data)
    };
    let cold_build = || build().0;
    let (first_build_s, data) = build();

    let mut pool = options.build_pool(&data, heavy_pool());
    if options.corrupt_oracle {
        pool[0].count += 1;
    }
    // What a query takes depends on what ran before it (by 10 % for the
    // queries around the median), and with 29 queries one order decides
    // which of them is the median. So every pass has an order of its own,
    // all of them drawn from the seed.
    let mut order: Vec<u32> = (0..pool.len() as u32).collect();
    let mut orders = Rng::derive(options.seed, 1);
    orders.shuffle(&mut order);
    outcome.notes.push(format!(
        "SB: {} edges, {} distinct q3 queries of {}..{} embeddings, {} queries per pass, seed {}",
        data.num_edges(),
        pool.len(),
        pool.iter().map(|q| q.count).min().unwrap_or(0),
        pool.iter().map(|q| q.count).max().unwrap_or(0),
        order.len(),
        options.seed
    ));

    // Warm-up: half a pass; the engine keeps no state between queries.
    let half = &order[..order.len().div_ceil(2)];
    heavy_pass(&data, &pool, half, &mut Passes::default(), &mut tally, None);

    let passes = options.passes(HEAVY_PASSES);
    let coda = Coda::new(&data, &pool, HEAVY_CODA_EPOCHS, HEAVY_CODA_CYCLE, options);
    let mut beside = Beside::new(
        first_build_s,
        &cold_build,
        HEAVY_PASSES,
        coda,
        passes,
        options,
    );
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut untraced = Passes::default();
    let mut traced = Passes::default();
    for _ in 0..passes {
        orders.shuffle(&mut order);
        heavy_pass(&data, &pool, &order, &mut untraced, &mut tally, None);
        if options.trace {
            heavy_pass(
                &data,
                &pool,
                &order,
                &mut traced,
                &mut tally,
                Some(&mut tracer),
            );
        }
        beside.slice(&mut tally, options.trace.then_some(&mut tracer));
    }
    let timing = untraced.timing();

    let mut layer_values = Values::new();
    if options.trace {
        layer_values.push(trace_overhead(&timing, &traced.timing()));
    }
    finish(Measured {
        name: "heavy_lib",
        options,
        data: &data,
        text: &text,
        pool: &pool,
        timing,
        setup_s: beside.setup_s,
        peak_rss_mb: beside.peak_rss_mb,
        write: beside.coda.stats,
        layer_values,
        tracer,
        tally,
        outcome,
    })
}

// ---------------------------------------------------------------------
// update_mix: writes beside reads, in process, one driver thread.
// ---------------------------------------------------------------------

/// `update_mix` runs in cycles, each on a cold build of the base graph: one
/// discarded epoch, then [`MIX_CYCLE_EPOCHS`] measured ones. The stream is
/// 3:1 inserts, so 64 epochs in a row would triple the graph, and a query
/// or a publish of the last epoch cost 1.6 times one of the first: epochs
/// so unlike have no common first decile. Within a cycle the graph grows by
/// a quarter. A cycle's cold build is a sample of `setup_s`.
const MIX_CYCLES: usize = 8;
const MIX_CYCLE_EPOCHS: usize = 8;
/// Queries per epoch, drawn Zipf(1.0) over the pool.
const MIX_QUERIES: usize = 5_000;

fn mix_pool() -> PoolSpec {
    // 512 distinct shapes are four times the plan cache, and every publish
    // here drops the cached plans: the median query is a hit, the tail of
    // each epoch plans again.
    PoolSpec {
        pool_seed: 0x006d_6978,
        per_setting: &[(0, 171), (1, 171), (2, 170)],
        min_count: 1,
        max_count: 100,
        with_top_k: false,
    }
}

fn update_mix(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    // One request at a time: one CPU, see `HttpSpec::one_cpu`.
    let pinned = procfs::pin_to_one_cpu();
    let text = options.dataset_text("WT-S");

    // Set-up: cold build, then the writer's seeding and first snapshot,
    // then the pool start.
    let build = || {
        let began = Instant::now();
        let data = text.load();
        let writer = EpochWriter::start(&data);
        let server = writer.serve();
        (began.elapsed().as_secs_f64(), data, writer, server)
    };
    let (first_build_s, data, writer, server) = build();
    let mut built = Some((writer, server));
    let mut setup_s = vec![first_build_s];

    let pool = options.build_pool(&data, mix_pool());
    let cycles = options.passes(MIX_CYCLES);
    let (epochs, queries_per_epoch) = if options.smoke {
        (4, MIX_QUERIES / 10)
    } else {
        (MIX_CYCLE_EPOCHS, MIX_QUERIES)
    };
    // The stream is a constant of the workload: it decides which
    // embeddings the graph gains and loses, and with them how much work
    // every later query is. The seed draws the queries.
    let stream = update_stream(&data, (1 + epochs) * EPOCH_OPS, STREAM_SEED);
    let zipf = Zipf::new(pool.len(), 1.0);
    let mut draws = Rng::derive(options.seed, 3);
    outcome.notes.push(format!(
        "WT-S: {} edges, {} distinct queries, {cycles} cycles of 1+{epochs} epochs of {EPOCH_OPS} ops and {queries_per_epoch} Zipf(1.0) queries, seed {}, {}",
        data.num_edges(),
        pool.len(),
        options.seed,
        on_cpus(pinned)
    ));

    let mut write = WriteStats::default();
    let mut peak_rss_mb = 0.0;
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut untraced = Passes::default();
    let mut traced = Passes::default();
    let mut queue_us = Vec::new();
    let mut exec_us = Vec::new();
    let mut serve_traced: ServeCounters = [0.0; 10];
    let mut expected = vec![0u64; pool.len()];
    for _ in 0..cycles {
        let (mut writer, server) = built.take().unwrap_or_else(|| {
            let (seconds, _, writer, server) = build();
            setup_s.push(seconds);
            (writer, server)
        });
        for (i, ops) in stream.chunks(EPOCH_OPS).enumerate() {
            let measured = i > 0;
            // A traced run traces every second measured epoch.
            let tracing = options.trace && measured && i % 2 == 0;
            let before = tracing.then(|| server_counters(&server));
            writer.epoch(
                &server,
                ops,
                measured.then_some(&mut write),
                tracing.then_some(&mut tracer),
            );

            // The oracle for this epoch, outside the timed sections.
            for (slot, query) in expected.iter_mut().zip(&pool) {
                *slot = oracle_count(&writer.current, &query.graph);
            }
            if options.corrupt_oracle {
                expected[0] += 1;
            }

            let mut latencies_s = Vec::with_capacity(queries_per_epoch);
            let mut embeddings = 0;
            let cpu_before = procfs::cpu_seconds();
            let began = Instant::now();
            for _ in 0..queries_per_epoch {
                let q = zipf.sample(&mut draws);
                let t0 = Instant::now();
                let served = server
                    .run(&pool[q].graph, QueryOptions::count())
                    .expect("pool queries are valid");
                let t1 = Instant::now();
                latencies_s.push((t1 - t0).as_secs_f64());
                embeddings += served.count;
                tally
                    .record(served.status == QueryStatus::Completed && served.count == expected[q]);
                if tracing {
                    let root = tracer.span(0, "request", t0, t1);
                    let end = tracer.ns(t1);
                    let exec = end.saturating_sub(served.execution.as_nanos() as u64);
                    let queue = exec.saturating_sub(served.queue_wait.as_nanos() as u64);
                    tracer.span_ns(root, "serve.queue", queue, exec, 1);
                    tracer.span_ns(root, "serve.exec", exec, end, served.count);
                    queue_us.push(served.queue_wait.as_secs_f64() * 1e6);
                    exec_us.push(served.execution.as_secs_f64() * 1e6);
                }
            }
            if !measured {
                continue;
            }
            // An epoch's query phase is a pass.
            let passes = if tracing { &mut traced } else { &mut untraced };
            passes.wall_s.push(began.elapsed().as_secs_f64());
            passes.cpu_s.push(procfs::cpu_seconds() - cpu_before);
            passes.latencies_s.push(latencies_s);
            passes.embeddings.push(embeddings);
            if let Some(before) = before {
                // From before the publish, so that its invalidations count.
                add_interval(&mut serve_traced, &before, &server_counters(&server));
            }
            if peak_rss_mb == 0.0 {
                // Set-up, the discarded epoch and a measured one: every
                // later epoch and cycle repeats that work.
                peak_rss_mb = procfs::peak_rss_mb();
            }
        }
        let stats = server.stats();
        if stats.timed_out != 0 || stats.cancelled != 0 {
            tally.failed += 1;
        }
        server.shutdown();
    }
    let timing = untraced.timing();

    let mut layer_values = Values::new();
    if options.trace {
        layer_values.extend([
            ("core.serve.queue_us_p50", median(&queue_us)),
            ("core.serve.exec_us_p50", median(&exec_us)),
            trace_overhead(&timing, &traced.timing()),
        ]);
        layer_values.extend(serve_layer(&serve_traced, traced.wall_s.iter().sum()));
        outcome.notes.push(format!(
            "queue and exec medians over {} traced requests in {} epochs",
            queue_us.len(),
            traced.wall_s.len()
        ));
    }

    // In a traced run the engine layers follow, on the pool as the
    // load-time graph answers it.
    finish(Measured {
        name: "update_mix",
        options,
        data: &data,
        text: &text,
        pool: &pool,
        timing,
        setup_s,
        peak_rss_mb,
        write,
        layer_values,
        tracer,
        tally,
        outcome,
    })
}
