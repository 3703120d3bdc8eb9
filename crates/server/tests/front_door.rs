//! End-to-end tests of the HTTP front door: real sockets, real engine.
//!
//! Covers the admission gates (quota, queue depth, cost), the error
//! paths shared with the CLI's query validation, keep-alive, graceful
//! drain, and a golden test pinning the `/metrics` text format.

use hgmatch_core::ServeConfig;
use hgmatch_hypergraph::{Hypergraph, HypergraphBuilder, Label};
use hgmatch_server::{FrontDoor, FrontDoorConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Two triangles sharing a vertex: the crate's doc example data.
fn two_triangles() -> Arc<Hypergraph> {
    let mut b = HypergraphBuilder::new();
    for &l in &[0u32, 0, 1, 0, 0] {
        b.add_vertex(Label::new(l));
    }
    b.add_edge(vec![0, 1, 2]).unwrap();
    b.add_edge(vec![2, 3, 4]).unwrap();
    Arc::new(b.build().unwrap())
}

/// A dense single-label pair clique: every 2-subset of `n` vertices is
/// an edge, so multi-edge path queries have a huge search space — used
/// to hold a worker busy for a controlled window (with a timeout).
fn clique(n: usize) -> Arc<Hypergraph> {
    let mut b = HypergraphBuilder::new();
    for _ in 0..n {
        b.add_vertex(Label::new(0));
    }
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            b.add_edge(vec![i, j]).unwrap();
        }
    }
    Arc::new(b.build().unwrap())
}

/// The doc-example query: one {A, A, B} hyperedge (2 matches in
/// `two_triangles`).
const TRIANGLE_QUERY: &str = r#"{"labels":[0,0,1],"edges":[[0,1,2]]}"#;

/// A 5-edge path over the clique's single label — combinatorial search
/// space, always stopped by its `timeout_ms`.
const HEAVY_QUERY: &str = concat!(
    r#"{"labels":[0,0,0,0,0,0],"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]],"#,
    r#""timeout_ms":400}"#
);

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .unwrap()
        .split(' ')
        .nth(1)
        .unwrap()
        .parse::<u16>()
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let len = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse::<usize>().unwrap())
        .unwrap_or(0);
    let body_start = head_end + 4;
    while buf.len() < body_start + len {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + len].to_vec()).unwrap();
    Reply {
        status,
        headers,
        body,
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    read_reply(&mut stream)
}

fn field_u64(body: &str, field: &str) -> Option<u64> {
    let marker = format!("\"{field}\":");
    let rest = &body[body.find(&marker)? + marker.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[test]
fn match_end_to_end_with_plan_cache() {
    let door = FrontDoor::bind(
        two_triangles(),
        FrontDoorConfig {
            serve: ServeConfig::default().with_threads(2),
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let addr = door.local_addr();

    let r1 = request(addr, "POST", "/match", TRIANGLE_QUERY);
    assert_eq!(r1.status, 200, "{}", r1.body);
    assert_eq!(field_u64(&r1.body, "count"), Some(2));
    assert!(r1.body.contains("\"status\":\"completed\""), "{}", r1.body);
    assert!(r1.body.contains("\"plan_cached\":false"), "{}", r1.body);

    // Same shape again: served from the plan cache.
    let r2 = request(addr, "POST", "/match", TRIANGLE_QUERY);
    assert_eq!(r2.status, 200);
    assert!(r2.body.contains("\"plan_cached\":true"), "{}", r2.body);
    // A point query runs on the handler thread that parsed it (§8.5).
    assert!(r2.body.contains("\"inline\":true"), "{}", r2.body);

    // Collect mode returns the matched data-edge tuples.
    let r3 = request(
        addr,
        "POST",
        "/match",
        r#"{"labels":[0,0,1],"edges":[[0,1,2]],"collect":true}"#,
    );
    assert_eq!(r3.status, 200);
    assert!(r3.body.contains("\"embeddings\":[[0],[1]]"), "{}", r3.body);

    // The latency split is present and consistent: elapsed = queue + exec.
    let elapsed = field_u64(&r1.body, "elapsed_us").unwrap();
    let queue = field_u64(&r1.body, "queue_us").unwrap();
    let exec = field_u64(&r1.body, "exec_us").unwrap();
    // Exact in nanoseconds; each microsecond field truncates separately.
    assert!(
        elapsed >= queue + exec && elapsed <= queue + exec + 1,
        "elapsed={elapsed} queue={queue} exec={exec}"
    );

    let stats = door.shutdown();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.plan_cache_hits, 2);
    assert_eq!((stats.ran_inline, stats.spilled), (3, 0));
}

#[test]
fn aggregate_modes_end_to_end() {
    let door = FrontDoor::bind(
        two_triangles(),
        FrontDoorConfig {
            serve: ServeConfig::default().with_threads(2),
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let addr = door.local_addr();

    // count_only: exact count, no embeddings array, zero materialized.
    let r = request(
        addr,
        "POST",
        "/match",
        r#"{"labels":[0,0,1],"edges":[[0,1,2]],"aggregate":{"mode":"count_only"}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(field_u64(&r.body, "count"), Some(2));
    assert_eq!(field_u64(&r.body, "materialized"), Some(0));
    assert!(!r.body.contains("\"embeddings\""), "{}", r.body);
    assert!(
        r.body.contains("\"aggregate\":{\"mode\":\"count_only\"}"),
        "{}",
        r.body
    );

    // top_k: count stays exact, only k embeddings, scores attached.
    let r = request(
        addr,
        "POST",
        "/match",
        r#"{"labels":[0,0,1],"edges":[[0,1,2]],"aggregate":{"mode":"top_k","k":1,"score":"edge_id_sum"}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(field_u64(&r.body, "count"), Some(2));
    // The two embeddings are data edges [0] and [1]; top-1 by id sum = [1].
    assert!(r.body.contains("\"embeddings\":[[1]]"), "{}", r.body);
    assert!(
        r.body
            .contains("\"mode\":\"top_k\",\"k\":1,\"score\":\"edge_id_sum\",\"scores\":[1]"),
        "{}",
        r.body
    );

    // sampled: seed-reproducible subset plus confidence metadata.
    let body = r#"{"labels":[0,0,1],"edges":[[0,1,2]],"aggregate":{"mode":"sampled","budget":1,"seed":42}}"#;
    let r1 = request(addr, "POST", "/match", body);
    let r2 = request(addr, "POST", "/match", body);
    assert_eq!(r1.status, 200, "{}", r1.body);
    assert_eq!(field_u64(&r1.body, "count"), Some(2));
    assert!(
        r1.body
            .contains("\"mode\":\"sampled\",\"budget\":1,\"seed\":42,\"sampled\":1"),
        "{}",
        r1.body
    );
    let sample_of = |b: &str| {
        let start = b.find("\"embeddings\":").unwrap();
        b[start..b[start..].find(']').unwrap() + start + 1].to_string()
    };
    assert_eq!(
        sample_of(&r1.body),
        sample_of(&r2.body),
        "same seed must reproduce the same sample"
    );

    // Unknown modes and malformed parameters are client errors.
    let r = request(
        addr,
        "POST",
        "/match",
        r#"{"labels":[0,0,1],"edges":[[0,1,2]],"aggregate":{"mode":"median"}}"#,
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown aggregate mode"), "{}", r.body);
    let r = request(
        addr,
        "POST",
        "/match",
        r#"{"labels":[0,0,1],"edges":[[0,1,2]],"aggregate":{"mode":"top_k"}}"#,
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("aggregate.k"), "{}", r.body);

    // The aggregate metric families report per-mode query counts.
    let m = request(addr, "GET", "/metrics", "");
    assert!(
        m.body
            .contains("hgmatch_queries_aggregate_total{mode=\"count_only\"} 1"),
        "{}",
        m.body
    );
    assert!(
        m.body
            .contains("hgmatch_queries_aggregate_total{mode=\"top_k\"} 1"),
        "{}",
        m.body
    );
    assert!(
        m.body
            .contains("hgmatch_queries_aggregate_total{mode=\"sampled\"} 2"),
        "{}",
        m.body
    );
    assert!(
        m.body.contains("hgmatch_results_found_total 8"),
        "{}",
        m.body
    );
    // count_only materialised nothing; top_k and the two sampled runs
    // each materialised both embeddings to aggregate over them.
    assert!(
        m.body.contains("hgmatch_results_materialized_total 6"),
        "{}",
        m.body
    );

    let stats = door.shutdown();
    assert_eq!(stats.queries_count_only, 1);
    assert_eq!(stats.queries_top_k, 1);
    assert_eq!(stats.queries_sampled, 2);
    assert_eq!(stats.results_found, 8);
    assert_eq!(stats.results_materialized, 6);
}

#[test]
fn validation_errors_are_client_errors() {
    let door = FrontDoor::bind(two_triangles(), FrontDoorConfig::default()).unwrap();
    let addr = door.local_addr();

    let r = request(addr, "POST", "/match", "this is not json");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("invalid JSON"), "{}", r.body);

    // Shared shape validation: empty query.
    let r = request(addr, "POST", "/match", r#"{"labels":[0],"edges":[]}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("no hyperedges"), "{}", r.body);

    // Shared shape validation: over MAX_QUERY_EDGES.
    let labels: Vec<String> = (0..66).map(|_| "0".to_string()).collect();
    let edges: Vec<String> = (0..65).map(|i| format!("[{},{}]", i, i + 1)).collect();
    let long = format!(
        "{{\"labels\":[{}],\"edges\":[{}]}}",
        labels.join(","),
        edges.join(",")
    );
    let r = request(addr, "POST", "/match", &long);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("65"), "{}", r.body);

    // Vertex id out of range.
    let r = request(addr, "POST", "/match", r#"{"labels":[0],"edges":[[0,9]]}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("edges[0][1]"), "{}", r.body);

    // Routing errors.
    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "GET", "/match", "").status, 405);
    assert_eq!(request(addr, "POST", "/metrics", "").status, 405);
    // Unlisted methods on known paths are 405, not 404.
    assert_eq!(request(addr, "PATCH", "/match", "").status, 405);
    assert_eq!(request(addr, "OPTIONS", "/healthz", "").status, 405);
    // A query string does not hide a known path.
    assert_eq!(request(addr, "GET", "/metrics?x=1", "").status, 200);
    assert_eq!(request(addr, "GET", "/healthz?probe=lb", "").status, 200);
    // Chunked framing is rejected, not silently desynced.
    let mut chunked = TcpStream::connect(addr).unwrap();
    chunked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    chunked
        .write_all(b"POST /match HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    let r = read_reply(&mut chunked);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("Transfer-Encoding"), "{}", r.body);

    let stats = door.shutdown();
    assert_eq!(
        stats.admitted, 0,
        "no malformed request may reach the engine"
    );
}

/// Every way `POST /match` decodes to a 400, each with its diagnostic.
/// None of them reaches the engine.
#[test]
fn every_decode_error_is_a_400_with_its_reason() {
    let door = FrontDoor::bind(two_triangles(), FrontDoorConfig::default()).unwrap();
    let addr = door.local_addr();
    let long_tenant = format!(
        r#"{{"tenant":"{}","labels":[0],"edges":[[0]]}}"#,
        "t".repeat(65)
    );
    let cases: &[(&str, &str)] = &[
        ("[1,2]", "request body must be a JSON object"),
        (r#"{"tenant":7}"#, "field 'tenant' must be a string"),
        (
            r#"{"tenant":""}"#,
            "field 'tenant' must be 1..=64 characters",
        ),
        (&long_tenant, "field 'tenant' must be 1..=64 characters"),
        (
            r#"{"edges":[[0]]}"#,
            "field 'labels' must be an array of vertex labels",
        ),
        (
            r#"{"labels":[0]}"#,
            "field 'edges' must be an array of vertex-id arrays",
        ),
        (
            r#"{"labels":[0,-1],"edges":[[0]]}"#,
            "labels[1] is not a valid label id",
        ),
        (
            r#"{"labels":[0,4294967296],"edges":[[0]]}"#,
            "labels[1] is not a valid label id",
        ),
        (
            r#"{"labels":[0],"edges":[0]}"#,
            "edges[0] must be an array of vertex ids",
        ),
        (
            r#"{"labels":[0],"edges":[[0,1.5]]}"#,
            "edges[0][1] must be a vertex id below 1",
        ),
        // The builder's rules, with the builder's text: the error names the
        // input position and the id the edge would have had after the
        // repeated edge before it was dropped.
        (
            r#"{"labels":[0,0],"edges":[[0],[0],[]]}"#,
            "edges[2]: hyperedge #1 is empty",
        ),
        (
            r#"{"labels":[0],"edges":[]}"#,
            "query hypergraph has no hyperedges",
        ),
        (
            r#"{"labels":[0],"edges":[[0]],"collect":1}"#,
            "field 'collect' must be a boolean",
        ),
        (
            r#"{"labels":[0],"edges":[[0]],"max_results":-3}"#,
            "field 'max_results' must be a non-negative integer",
        ),
        (
            r#"{"labels":[0],"edges":[[0]],"timeout_ms":"soon"}"#,
            "field 'timeout_ms' must be a non-negative integer",
        ),
        (
            r#"{"labels":[0],"edges":[[0]],"aggregate":{}}"#,
            "field 'aggregate.mode' must be a string",
        ),
        (
            r#"{"labels":[0],"edges":[[0]],"aggregate":{"mode":"top_k","k":1,"score":"max"}}"#,
            "field 'aggregate.score' must be one of",
        ),
        (
            r#"{"labels":[0],"edges":[[0]],"aggregate":{"mode":"sampled"}}"#,
            "field 'aggregate.budget' must be a non-negative integer",
        ),
        (
            r#"{"labels":[0],"edges":[[0]],"aggregate":{"mode":"sampled","budget":4,"seed":"x"}}"#,
            "field 'aggregate.seed' must be a non-negative integer",
        ),
    ];
    for &(body, reason) in cases {
        let r = request(addr, "POST", "/match", body);
        assert_eq!(r.status, 400, "{body} -> {}", r.body);
        assert!(r.body.contains(reason), "{body} -> {}", r.body);
    }
    // 65 distinct edges are too many; 65 with one repeat are 64, which fit.
    let labels = vec!["0"; 66].join(",");
    let path = |n: usize| {
        (0..n)
            .map(|i| format!("[{},{}]", i, i + 1))
            .collect::<Vec<_>>()
    };
    let long = format!(
        r#"{{"labels":[{labels}],"edges":[{}]}}"#,
        path(65).join(",")
    );
    let r = request(addr, "POST", "/match", &long);
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(
        r.body
            .contains("query has 65 hyperedges; the engine supports at most 64"),
        "{}",
        r.body
    );
    let mut repeated = path(64);
    repeated.push("[1,0]".to_string());
    let fits = format!(
        r#"{{"labels":[{labels}],"edges":[{}]}}"#,
        repeated.join(",")
    );
    assert_eq!(request(addr, "POST", "/match", &fits).status, 200);

    let stats = door.shutdown();
    assert_eq!(
        stats.admitted, 1,
        "only the 64-edge body reaches the engine"
    );
}

/// A repeated hyperedge (in any vertex order, with repeated vertices) is
/// dropped, as the builder drops it: the request is served, counted and
/// cached as the deduplicated query.
#[test]
fn a_repeated_edge_is_served_as_the_deduplicated_query() {
    let door = FrontDoor::bind(two_triangles(), FrontDoorConfig::default()).unwrap();
    let addr = door.local_addr();
    let repeated = r#"{"labels":[0,0,1],"edges":[[0,1,2],[2,1,0],[1,2,0,1]],"collect":true}"#;
    let r = request(addr, "POST", "/match", repeated);
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(field_u64(&r.body, "count"), Some(2));
    assert!(r.body.contains("\"embeddings\":[[0],[1]]"), "{}", r.body);
    // The single-edge query is the same shape: a plan-cache hit.
    let r = request(addr, "POST", "/match", TRIANGLE_QUERY);
    assert_eq!(field_u64(&r.body, "count"), Some(2));
    assert!(r.body.contains("\"plan_cached\":true"), "{}", r.body);
    let stats = door.shutdown();
    assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 1));
}

/// A body that is one string of almost `MAX_BODY_BYTES` decodes in linear
/// time and is refused at once; decoding it once took 40 s per handler.
#[test]
fn a_mebibyte_tenant_is_refused_promptly() {
    let door = FrontDoor::bind(two_triangles(), FrontDoorConfig::default()).unwrap();
    let addr = door.local_addr();
    let frame = r#"{"tenant":"","labels":[0],"edges":[[0]]}"#;
    let tenant = "t".repeat(hgmatch_server::http::MAX_BODY_BYTES - frame.len());
    let body = format!(r#"{{"tenant":"{tenant}","labels":[0],"edges":[[0]]}}"#);
    assert_eq!(body.len(), hgmatch_server::http::MAX_BODY_BYTES);
    let start = std::time::Instant::now();
    let r = request(addr, "POST", "/match", &body);
    let elapsed = start.elapsed();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(
        r.body.contains("field 'tenant' must be 1..=64 characters"),
        "{}",
        r.body
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "a 1 MiB tenant took {elapsed:?}"
    );
    door.shutdown();
}

#[test]
fn tenant_quota_returns_429_with_retry_after() {
    let door = FrontDoor::bind(
        two_triangles(),
        FrontDoorConfig {
            tenant_qps: 0.001, // burst 1, effectively no refill during the test
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let addr = door.local_addr();

    let body_a = r#"{"tenant":"a","labels":[0,0,1],"edges":[[0,1,2]]}"#;
    let r1 = request(addr, "POST", "/match", body_a);
    assert_eq!(r1.status, 200, "{}", r1.body);
    let r2 = request(addr, "POST", "/match", body_a);
    assert_eq!(r2.status, 429);
    assert!(r2.body.contains("over quota"), "{}", r2.body);
    assert!(r2.header("Retry-After").is_some());

    // Quotas are per tenant: a different tenant still gets through.
    let body_b = r#"{"tenant":"b","labels":[0,0,1],"edges":[[0,1,2]]}"#;
    assert_eq!(request(addr, "POST", "/match", body_b).status, 200);

    let metrics = request(addr, "GET", "/metrics", "").body;
    assert!(
        metrics.contains("hgmatch_shed_total{reason=\"quota\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("hgmatch_tenant_admitted_total{tenant=\"a\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("hgmatch_tenant_shed_total{tenant=\"a\"} 1"),
        "{metrics}"
    );
    door.shutdown();
}

#[test]
fn full_queue_sheds_with_429() {
    let door = FrontDoor::bind(
        clique(40),
        FrontDoorConfig {
            queue_depth: 1,
            http_threads: 4,
            serve: ServeConfig::default().with_threads(1),
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let addr = door.local_addr();

    // Occupy the single queue slot with a query that runs until its
    // 400 ms timeout.
    let holder = std::thread::spawn(move || request(addr, "POST", "/match", HEAVY_QUERY));
    std::thread::sleep(Duration::from_millis(150));

    // While it runs, further requests are shed, not queued.
    let shed = request(addr, "POST", "/match", TRIANGLE_QUERY);
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("submission queue full"), "{}", shed.body);
    assert_eq!(shed.header("Retry-After"), Some("1"));

    let held = holder.join().unwrap();
    assert_eq!(held.status, 200, "{}", held.body);
    assert!(
        held.body.contains("\"status\":\"timed-out\""),
        "{}",
        held.body
    );

    let metrics = request(addr, "GET", "/metrics", "").body;
    assert!(
        metrics.contains("hgmatch_shed_total{reason=\"queue_full\"} 1"),
        "{metrics}"
    );
    door.shutdown();
}

#[test]
fn cost_admission_sheds_expensive_queries_under_load() {
    let door = FrontDoor::bind(
        clique(40),
        FrontDoorConfig {
            queue_depth: 3,
            http_threads: 4,
            admit_cost: 0.5, // every clique query estimates higher
            serve: ServeConfig::default().with_threads(1),
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let addr = door.local_addr();

    // Load the server: one running query (load 1 → gate still closed:
    // it was admitted while the server was idle).
    let holder = std::thread::spawn(move || request(addr, "POST", "/match", HEAVY_QUERY));
    std::thread::sleep(Duration::from_millis(150));

    // Second expensive query: load 2, 2*2 > 3 → the cost gate sheds it.
    let shed = request(addr, "POST", "/match", HEAVY_QUERY);
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("predicted-expensive"), "{}", shed.body);
    assert!(shed.body.contains("estimated_cost"), "{}", shed.body);
    assert_eq!(shed.header("Retry-After"), Some("2"));

    assert_eq!(holder.join().unwrap().status, 200);
    let metrics = request(addr, "GET", "/metrics", "").body;
    assert!(
        metrics.contains("hgmatch_shed_total{reason=\"cost\"} 1"),
        "{metrics}"
    );
    door.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let door = FrontDoor::bind(two_triangles(), FrontDoorConfig::default()).unwrap();
    let mut stream = TcpStream::connect(door.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    for i in 0..3 {
        let req = format!(
            "POST /match HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{TRIANGLE_QUERY}",
            TRIANGLE_QUERY.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        let reply = read_reply(&mut stream);
        assert_eq!(reply.status, 200, "request {i}: {}", reply.body);
        assert_eq!(reply.header("Connection"), Some("keep-alive"));
    }
    // One connection, three engine queries.
    let stats = door.shutdown();
    assert_eq!(stats.admitted, 3);
}

#[test]
fn http10_client_gets_connection_close() {
    let door = FrontDoor::bind(two_triangles(), FrontDoorConfig::default()).unwrap();
    let mut stream = TcpStream::connect(door.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let reply = read_reply(&mut stream);
    assert_eq!(reply.status, 200);
    // HTTP/1.0 without Connection: keep-alive defaults to close — the
    // server must say so and actually close, not hold the socket open.
    assert_eq!(reply.header("Connection"), Some("close"));
    let mut buf = [0u8; 1];
    assert!(matches!(stream.read(&mut buf), Ok(0) | Err(_)));
    door.shutdown();
}

#[test]
fn stalled_clients_do_not_wedge_shutdown() {
    let door = FrontDoor::bind(
        two_triangles(),
        FrontDoorConfig {
            http_threads: 2,
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let addr = door.local_addr();

    // Saturate every handler thread with a connection stalled
    // mid-request: one mid-headers, one with a declared body that never
    // arrives. Keep the sockets open across shutdown.
    let mut s1 = TcpStream::connect(addr).unwrap();
    s1.write_all(b"POST /match HTTP/1.1\r\nContent-Le").unwrap();
    let mut s2 = TcpStream::connect(addr).unwrap();
    s2.write_all(b"POST /match HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\nstall")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Shutdown must drain despite both handlers being mid-read: the
    // stop flag is checked on every poll iteration, not only while a
    // connection is idle.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(door.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown wedged on stalled clients");
    assert_eq!(stats.admitted, 0);
    drop((s1, s2));
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let door = FrontDoor::bind(
        clique(40),
        FrontDoorConfig {
            serve: ServeConfig::default().with_threads(1),
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let addr = door.local_addr();

    // A query that will still be running when shutdown starts.
    let in_flight = std::thread::spawn(move || request(addr, "POST", "/match", HEAVY_QUERY));
    std::thread::sleep(Duration::from_millis(150));

    let stats = door.shutdown();

    // The in-flight query was answered, not dropped.
    let reply = in_flight.join().unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        reply.body.contains("\"status\":\"timed-out\""),
        "{}",
        reply.body
    );
    // Its estimate is far above the caller-first gate: it went to the pool.
    assert!(reply.body.contains("\"inline\":false"), "{}", reply.body);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.active, 0, "shutdown returned with queries active");

    // The listener is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly; a request must at least fail.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        }
    );
}

#[test]
fn metrics_format_golden() {
    // Format-stability contract: a fresh 2-worker server must render
    // exactly this document (one deterministic request: this scrape).
    let door = FrontDoor::bind(
        two_triangles(),
        FrontDoorConfig {
            http_threads: 1,
            serve: ServeConfig::default().with_threads(2),
            ..FrontDoorConfig::default()
        },
    )
    .unwrap();
    let reply = request(door.local_addr(), "GET", "/metrics", "");
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.txt"),
            &reply.body,
        )
        .unwrap();
    }
    let expected = include_str!("golden_metrics.txt");
    assert_eq!(
        reply.body, expected,
        "metrics format drifted; update tests/golden_metrics.txt deliberately"
    );
    door.shutdown();
}
