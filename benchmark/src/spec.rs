//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each should move. `BENCHMARK.json` and `METRICS.json` mirror
//! these tables; `tests/smoke.rs` checks that they agree.

/// One workload of the benchmark.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "point_http",
        why: "AR-S over loopback POST /match, 1 client, 96 cached-plan queries of <=100 embeddings: front door and queue hand-off are the whole latency",
    },
    WorkloadSpec {
        name: "enum_http",
        why: "HB-S over the same socket, 2 clients, 64 queries of 1e3-5e5 embeddings in count/top-k/materialize mix: the resident pool enumerating and encoding",
    },
    WorkloadSpec {
        name: "heavy_lib",
        why: "SB in process through Matcher parallel(2) + CountSink, q3 queries of 1e5-2e6 embeddings: candidates, validation and set kernels with no front door",
    },
    WorkloadSpec {
        name: "update_mix",
        why: "WT-S in process, one driver alternating 2000-op update epochs with Zipf queries over 512 shapes: writes beside reads, plan-cache misses in the tail",
    },
];

/// One end-to-end metric: what a user of the system would see.
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen. A bound tells
    /// nothing below the spread of ten runs of the same code, which for the
    /// time metrics on the 2-vCPU host this was written on is 1 to 8 % while
    /// the host's slow state comes and goes within a run, and up to 15 %
    /// when it lasts through some runs whole; see "Spread" in the README.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEndSpec; 10] = [
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "first decile of the run's 5 to 11 cold builds, one before and the others between the passes: edge-list text -> io::read_text -> pool/FrontDoor start",
    },
    EndToEndSpec {
        name: "qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "requests of a pass / its wall time, of the pass at the first decile of seconds per request",
    },
    EndToEndSpec {
        name: "lat_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "client-observed latency per request: each pass's median, first decile over the passes",
    },
    EndToEndSpec {
        name: "lat_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "client-observed latency per request: each pass's 95th percentile, first decile over the passes",
    },
    EndToEndSpec {
        name: "emb_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "qps x embeddings per request of the list (the paper's throughput)",
    },
    EndToEndSpec {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "process user+sys CPU of a pass / its requests, load generator included, first decile over the passes",
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
        what: "VmHWM of the workload's process after set-up, warm-up and the first pass, the generator's output freed before the load",
    },
    EndToEndSpec {
        name: "index_mb",
        unit: "MB",
        better: "lower",
        bound: 0.01,
        what: "table_size_bytes + index_size_bytes of the data graph, exact",
    },
    EndToEndSpec {
        name: "update_kops_per_s",
        unit: "kops/s",
        better: "higher",
        bound: 0.25,
        what: "update ops applied per second of apply time, of the epoch (2000 ops) at the first decile of apply time",
    },
    EndToEndSpec {
        name: "publish_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "snapshot() + update_data per epoch, first decile over the epochs",
    },
];

/// One per-layer metric, from the traced run only.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The module that owns the number.
    pub layer: &'static str,
    /// `metric@workload` pairs this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const DOOR: &str = "lat_p50_ms@point_http qps@point_http";
const SERVE_Q: &str = "lat_p50_ms@point_http";
const SERVE_P: &str = "qps@enum_http lat_p95_ms@enum_http";
const SERVE_C: &str = "lat_p95_ms@update_mix";
const ENGINE: &str = "emb_per_s@heavy_lib lat_p95_ms@heavy_lib";
const PLAN: &str = "lat_p95_ms@update_mix qps@update_mix";
const KERNEL: &str = "emb_per_s@heavy_lib emb_per_s@enum_http";
const SETUP: &str = "setup_s@*";
const SPACE: &str = "index_mb@* peak_rss_mb@*";
const WRITE: &str = "update_kops_per_s@update_mix publish_ms@update_mix";

// One row per metric reads better than what rustfmt makes of it.
#[rustfmt::skip]
pub const PER_LAYER: [LayerSpec; 53] = [
    layer("server.http.parse_us", "us", "lower", "server::http", DOOR),
    layer("server.json.decode_us", "us", "lower", "server::json", DOOR),
    layer("server.http.render_us", "us", "lower", "server::http", DOOR),
    layer("server.door.overhead_us", "us", "lower", "server", DOOR),
    layer("server.door.shed_count", "count", "lower", "server", DOOR),
    layer("core.serve.queue_us_p50", "us", "lower", "core::serve", SERVE_Q),
    layer("core.serve.exec_us_p50", "us", "lower", "core::serve", SERVE_Q),
    layer("core.serve.plan_hit_ratio", "ratio", "higher", "core::serve", SERVE_C),
    layer("core.serve.plans_invalidated", "count", "lower", "core::serve", SERVE_C),
    layer("core.serve.tasks_per_query", "count", "lower", "core::serve", SERVE_P),
    layer("core.serve.steals", "count", "lower", "core::serve", SERVE_P),
    layer("core.serve.splits", "count", "higher", "core::serve", SERVE_P),
    layer("core.serve.assists", "count", "higher", "core::serve", SERVE_P),
    layer("core.serve.worker_busy_frac", "ratio", "higher", "core::serve", SERVE_P),
    layer("core.serve.update_data_ms", "ms", "lower", "core::serve", "publish_ms@*"),
    layer("core.engine.speedup_2t", "ratio", "higher", "core::engine", ENGINE),
    layer("core.engine.busy_balance", "ratio", "higher", "core::engine", ENGINE),
    layer("core.engine.splits", "count", "higher", "core::engine", ENGINE),
    layer("core.engine.steals", "count", "lower", "core::engine", ENGINE),
    layer("core.engine.spinup_us", "us", "lower", "core::engine", ENGINE),
    layer("core.query.build_us", "us", "lower", "core::query", PLAN),
    layer("core.plan.plan_us", "us", "lower", "core::plan", PLAN),
    layer("core.plan.greedy_us", "us", "lower", "core::plan", PLAN),
    layer("core.candidates.prepare_s", "s", "lower", "core::candidates", KERNEL),
    layer("core.candidates.generate_s", "s", "lower", "core::candidates", KERNEL),
    layer("core.validate.validate_s", "s", "lower", "core::validate", KERNEL),
    layer("core.sink.deliver_s", "s", "lower", "core::sink", KERNEL),
    layer("core.candidates.calls", "count", "lower", "core::candidates", KERNEL),
    layer("core.candidates.produced", "count", "lower", "core::candidates", KERNEL),
    layer("core.validate.calls", "count", "lower", "core::validate", KERNEL),
    layer("core.validate.valid_ratio", "ratio", "higher", "core::validate", KERNEL),
    layer("core.sink.embeddings", "count", "higher", "core::sink", KERNEL),
    layer("core.sink.materialize_ns_per_emb", "ns", "lower", "core::sink", "lat_p95_ms@enum_http"),
    layer("core.memory.peak_partial_bytes", "B", "lower", "core::memory", "peak_rss_mb@*"),
    layer("hypergraph.io.parse_ms", "ms", "lower", "hypergraph::io", SETUP),
    layer("hypergraph.builder.build_ms", "ms", "lower", "hypergraph::builder", SETUP),
    layer("hypergraph.io.snapshot_encode_ms", "ms", "lower", "hypergraph::io", SETUP),
    layer("hypergraph.io.snapshot_decode_ms", "ms", "lower", "hypergraph::io", SETUP),
    layer("hypergraph.io.snapshot_bytes", "B", "lower", "hypergraph::io", SETUP),
    layer("hypergraph.inverted.bytes_list", "B", "lower", "hypergraph::inverted", SPACE),
    layer("hypergraph.inverted.bytes_bitmap", "B", "lower", "hypergraph::inverted", SPACE),
    layer("hypergraph.inverted.bytes_compressed", "B", "lower", "hypergraph::inverted", SPACE),
    layer("hypergraph.inverted.keys_list", "count", "lower", "hypergraph::inverted", SPACE),
    layer("hypergraph.inverted.keys_bitmap", "count", "lower", "hypergraph::inverted", SPACE),
    layer("hypergraph.inverted.keys_compressed", "count", "lower", "hypergraph::inverted", SPACE),
    layer("hypergraph.setops.intersect_ns_per_elem", "ns", "lower", "hypergraph::setops", KERNEL),
    layer("hypergraph.setops.difference_ns_per_elem", "ns", "lower", "hypergraph::setops", KERNEL),
    layer("hypergraph.setops.union_ns_per_elem", "ns", "lower", "hypergraph::setops", KERNEL),
    layer("hypergraph.dynamic.apply_ns_per_op", "ns", "lower", "hypergraph::dynamic", WRITE),
    layer("hypergraph.dynamic.snapshot_ms_p50", "ms", "lower", "hypergraph::dynamic", WRITE),
    layer("hypergraph.dynamic.compactions", "count", "lower", "hypergraph::dynamic", WRITE),
    layer("hypergraph.dynamic.partitions_reused_ratio", "ratio", "higher", "hypergraph::dynamic", WRITE),
    layer("trace.overhead_frac", "ratio", "lower", "benchmark::trace", "qps@*"),
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
