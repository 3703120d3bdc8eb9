//! Per-layer numbers taken from outside, by timing calls into the crates'
//! public functions with the workload's own inputs.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use hgmatch_core::{CollectSink, CountSink, MatchConfig, Matcher, Planner, QueryGraph};
use hgmatch_hypergraph::inverted::{Posting, ReprBreakdown};
use hgmatch_hypergraph::{setops, Bitmap, Hypergraph, HypergraphBuilder, SignatureId};
use hgmatch_server::{http, json};

use crate::inputs::GraphText;
use crate::stats::median;

/// Name → value pairs of per-layer metrics.
pub type Values = Vec<(&'static str, f64)>;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// `server::http` and `server::json` on the workload's own bytes: each
/// request through `http::read_request` (fed over a loopback socket pair,
/// so one `read` call is inside) and `json::parse`, each reply body
/// through `http::render_response`. Medians over the samples.
pub fn server_codec(requests: &[&[u8]], reply_bodies: &[Vec<u8>]) -> Values {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut feeder =
        TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect loopback");
    let (mut served, _) = listener.accept().expect("accept loopback");
    served
        .set_read_timeout(Some(http::READ_POLL))
        .expect("set read timeout");

    let mut parse = Vec::with_capacity(requests.len());
    let mut decode = Vec::with_capacity(requests.len());
    let mut carry = Vec::new();
    for bytes in requests {
        feeder.write_all(bytes).expect("feed request");
        let t = Instant::now();
        let request = http::read_request(&mut served, &mut carry, &|| false)
            .expect("own request parses")
            .expect("request present");
        parse.push(micros(t));
        let t = Instant::now();
        let doc = json::parse(&request.body).expect("own body decodes");
        decode.push(micros(t));
        std::hint::black_box(doc);
    }

    let render: Vec<f64> = reply_bodies
        .iter()
        .map(|body| {
            let response = http::Response::json(200, String::from_utf8_lossy(body).into_owned());
            let t = Instant::now();
            let bytes = http::render_response(&response, false);
            let us = micros(t);
            std::hint::black_box(bytes);
            us
        })
        .collect();

    vec![
        ("server.http.parse_us", median(&parse)),
        ("server.json.decode_us", median(&decode)),
        ("server.http.render_us", median(&render)),
    ]
}

/// `core::query` and `core::plan`: cold `QueryGraph::new`, `Planner::plan`
/// and `Planner::plan_greedy`, median over the distinct queries.
pub fn planning<'q>(data: &Hypergraph, queries: impl Iterator<Item = &'q Hypergraph>) -> Values {
    let (mut build, mut plan, mut greedy) = (Vec::new(), Vec::new(), Vec::new());
    for query in queries {
        let t = Instant::now();
        let graph = QueryGraph::new(query).expect("pool queries are valid");
        build.push(micros(t));
        let t = Instant::now();
        std::hint::black_box(Planner::plan(&graph, data).expect("pool queries plan"));
        plan.push(micros(t));
        let t = Instant::now();
        std::hint::black_box(Planner::plan_greedy(&graph, data).expect("pool queries plan"));
        greedy.push(micros(t));
    }
    vec![
        ("core.query.build_us", median(&build)),
        ("core.plan.plan_us", median(&plan)),
        ("core.plan.greedy_us", median(&greedy)),
    ]
}

/// `core::engine`: the one-shot parallel engine on the workload's distinct
/// queries at 2 threads against the sequential executor's wall time for
/// the same queries (`sequential_s`, from the oracle run).
pub fn engine<'q>(
    data: &Hypergraph,
    queries: impl Iterator<Item = &'q Hypergraph>,
    sequential_s: f64,
) -> Values {
    let matcher = Matcher::with_config(data, MatchConfig::parallel(2));
    let (mut wall, mut busy_sum, mut busy_max) = (0.0, 0.0, 0.0);
    let (mut splits, mut steals) = (0u64, 0u64);
    for query in queries {
        let t = Instant::now();
        let (_, stats) = matcher
            .count_with_stats(query)
            .expect("pool queries are valid");
        wall += t.elapsed().as_secs_f64();
        let busy: Vec<f64> = stats.workers.iter().map(|w| w.busy.as_secs_f64()).collect();
        busy_sum += busy.iter().sum::<f64>();
        busy_max += busy.iter().copied().fold(0.0, f64::max);
        splits += stats.workers.iter().map(|w| w.splits).sum::<u64>();
        steals += stats.workers.iter().map(|w| w.steals).sum::<u64>();
    }

    // Spin-up: the engine on the cheapest query there is, one hyperedge
    // whose signature is the data graph's smallest partition.
    let smallest = data
        .partitions()
        .iter()
        .min_by_key(|p| p.len())
        .expect("data graph has partitions");
    let mut builder = HypergraphBuilder::new();
    let row = smallest.row(0);
    for &v in row {
        builder.add_vertex(data.label(v.into()));
    }
    builder
        .add_edge((0..row.len() as u32).collect())
        .expect("one-edge query is valid");
    let tiny = builder.build().expect("one-edge query builds");
    let spinup: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(matcher.count(&tiny).expect("one-edge query runs"));
            micros(t)
        })
        .collect();

    vec![
        ("core.engine.speedup_2t", ratio(sequential_s, wall)),
        ("core.engine.busy_balance", ratio(busy_sum, 2.0 * busy_max)),
        ("core.engine.splits", splits as f64),
        ("core.engine.steals", steals as f64),
        ("core.engine.spinup_us", median(&spinup)),
    ]
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not reach).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `core::sink`: what materializing costs per embedding — a sequential
/// `CollectSink` run minus a `CountSink` run over the first queries of the
/// pool, up to `cap` embeddings in total.
pub fn materialize_ns_per_embedding(
    data: &Hypergraph,
    queries: &[(&Hypergraph, u64)],
    cap: u64,
) -> f64 {
    let matcher = Matcher::with_config(data, MatchConfig::sequential());
    let (mut collect_s, mut count_s, mut embeddings) = (0.0, 0.0, 0u64);
    for &(query, count) in queries {
        if embeddings > 0 && embeddings + count > cap {
            break;
        }
        let sink = CountSink::new();
        let t = Instant::now();
        matcher.run(query, &sink).expect("pool queries are valid");
        count_s += t.elapsed().as_secs_f64();
        let sink = CollectSink::new();
        let t = Instant::now();
        matcher.run(query, &sink).expect("pool queries are valid");
        collect_s += t.elapsed().as_secs_f64();
        embeddings += sink.count();
    }
    // A difference of two runs: below this many embeddings it is noise.
    if embeddings < 10_000 {
        return 0.0;
    }
    ratio((collect_s - count_s).max(0.0) * 1e9, embeddings as f64)
}

/// `hypergraph::io`, `::builder` and `::inverted`: the cold build split
/// into parse and index build, the binary snapshot round trip, and the
/// index bytes and keys per posting representation.
pub fn hypergraph_static(text: &GraphText, graph: &Hypergraph) -> Values {
    use hgmatch_hypergraph::io;

    let t = Instant::now();
    let labels = io::parse_labels(&text.labels[..]).expect("generated labels parse");
    let edges = io::parse_edges(&text.edges[..]).expect("generated edges parse");
    let parse_ms = micros(t) / 1e3;
    let t = Instant::now();
    let mut builder = HypergraphBuilder::new();
    for label in labels {
        builder.add_vertex(label);
    }
    for edge in edges {
        builder.add_edge(edge).expect("generated edge is valid");
    }
    let built = builder.build().expect("generated graph builds");
    let build_ms = micros(t) / 1e3;
    drop(built);

    let t = Instant::now();
    let snapshot = io::encode_snapshot(graph);
    let encode_ms = micros(t) / 1e3;
    let t = Instant::now();
    let decoded = io::decode_snapshot(&snapshot).expect("own snapshot decodes");
    let decode_ms = micros(t) / 1e3;
    assert!(decoded == *graph, "snapshot round trip changed the graph");

    let mut repr = ReprBreakdown::default();
    for partition in graph.partitions() {
        repr.add(&partition.index().repr_breakdown());
    }
    vec![
        ("hypergraph.io.parse_ms", parse_ms),
        ("hypergraph.builder.build_ms", build_ms),
        ("hypergraph.io.snapshot_encode_ms", encode_ms),
        ("hypergraph.io.snapshot_decode_ms", decode_ms),
        ("hypergraph.io.snapshot_bytes", snapshot.len() as f64),
        ("hypergraph.inverted.bytes_list", repr.list_bytes as f64),
        ("hypergraph.inverted.bytes_bitmap", repr.bitmap_bytes as f64),
        (
            "hypergraph.inverted.bytes_compressed",
            repr.compressed_bytes as f64,
        ),
        ("hypergraph.inverted.keys_list", repr.list_keys as f64),
        ("hypergraph.inverted.keys_bitmap", repr.bitmap_keys as f64),
        (
            "hypergraph.inverted.keys_compressed",
            repr.compressed_keys as f64,
        ),
    ]
}

/// Elements each set-kernel measurement pushes through, in total.
const SETOPS_ELEMENTS: usize = 8_000_000;

/// `hypergraph::setops`: the public kernels on pairs of the postings the
/// workload's plans read, each in its stored representation — bitmap
/// word ops for dense pairs (one copy of the left operand included), the
/// fused kernels when one side is compressed, the list kernels otherwise.
/// Nanoseconds per input element (`|a| + |b|`).
pub fn setops(graph: &Hypergraph, anchor_keys: &[(u32, u32)]) -> Values {
    let mut keys = anchor_keys.to_vec();
    keys.sort_unstable();
    let postings: Vec<(u32, Posting<'_>)> = keys
        .iter()
        .map(|&(sid, v)| {
            (
                sid,
                graph.partition(SignatureId::new(sid)).incident_posting(v),
            )
        })
        .filter(|(_, p)| !p.is_empty())
        .collect();
    // Neighbours in key order that share a partition (and so a row space).
    let mut pairs: Vec<(Posting<'_>, Posting<'_>)> = postings
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| (w[0].1, w[1].1))
        .collect();
    if pairs.is_empty() {
        pairs = postings.iter().map(|&(_, p)| (p, p)).collect();
    }
    let elements: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
    if elements == 0 {
        return vec![
            ("hypergraph.setops.intersect_ns_per_elem", 0.0),
            ("hypergraph.setops.difference_ns_per_elem", 0.0),
            ("hypergraph.setops.union_ns_per_elem", 0.0),
        ];
    }
    let rounds = (SETOPS_ELEMENTS / elements).clamp(1, 100_000);

    // A compressed right operand is decoded once, outside the timing, as
    // candidate generation does before a k-way merge.
    let right_lists: Vec<Option<Vec<u32>>> = pairs
        .iter()
        .map(|(_, b)| b.as_list().is_none().then(|| b.to_sorted()))
        .collect();

    let mut out = Vec::new();
    let mut bits = Bitmap::default();
    let mut decoded = Vec::new();
    let mut time = |op: Op| {
        let t = Instant::now();
        for _ in 0..rounds {
            for ((a, b), right) in pairs.iter().zip(&right_lists) {
                let b_list = right.as_deref().or(b.as_list()).expect("list or decoded");
                match (a, b.bits()) {
                    (Posting::Dense { bits: a_bits, .. }, Some(b_bits)) => {
                        bits.clone_from(a_bits);
                        match op {
                            Op::Intersect => bits.intersect_assign(b_bits),
                            Op::Difference => bits.difference_assign(b_bits),
                            Op::Union => bits.union_assign(b_bits),
                        }
                        std::hint::black_box(bits.words());
                    }
                    (Posting::Compressed(c), _) => {
                        match op {
                            Op::Intersect => setops::intersect_compressed_into(c, b_list, &mut out),
                            Op::Difference => {
                                setops::difference_compressed_list_into(c, b_list, &mut out)
                            }
                            Op::Union => {
                                decoded.clear();
                                c.decode_into(&mut decoded);
                                setops::union_into(&decoded, b_list, &mut out);
                            }
                        }
                        std::hint::black_box(out.len());
                    }
                    _ => {
                        let a_list = a.as_list().expect("list or dense");
                        match op {
                            Op::Intersect => setops::intersect_into(a_list, b_list, &mut out),
                            Op::Difference => setops::difference_into(a_list, b_list, &mut out),
                            Op::Union => setops::union_into(a_list, b_list, &mut out),
                        }
                        std::hint::black_box(out.len());
                    }
                }
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / (rounds * elements) as f64
    };
    vec![
        (
            "hypergraph.setops.intersect_ns_per_elem",
            time(Op::Intersect),
        ),
        (
            "hypergraph.setops.difference_ns_per_elem",
            time(Op::Difference),
        ),
        ("hypergraph.setops.union_ns_per_elem", time(Op::Union)),
    ]
}

#[derive(Clone, Copy)]
enum Op {
    Intersect,
    Difference,
    Union,
}
