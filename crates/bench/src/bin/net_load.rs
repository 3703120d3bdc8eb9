//! Open-loop load generation against the HTTP front door (DESIGN.md
//! §16): requests fire on a fixed arrival schedule regardless of how
//! fast the server answers, which is what exposes queueing collapse —
//! a closed-loop client would politely slow down with the server.
//!
//! Procedure:
//!
//! 1. **unloaded** — one closed-loop client measures the baseline p50
//!    latency of the workload;
//! 2. **capacity** — `threads` closed-loop clients estimate the
//!    saturated service rate (counting only admitted requests);
//! 3. **open-loop phases** — arrivals at 1×, 2× and 4× the estimated
//!    capacity. Per phase: p50/p99 of admitted (200) requests, shed
//!    rate (429s), and any other outcome (which must not happen).
//!
//! The committed `BENCH_net.json` baseline records the gate results the
//! issue demands: under 2× overload the server sheds via 429 rather
//! than queueing without bound, and the p99 of *admitted* queries stays
//! within 5× of the unloaded p50. `--check` turns the gates into hard
//! assertions (used by the CI bench-smoke job).
//!
//! Usage: `net_load [--dataset NAME] [--threads N] [--http-threads N]
//!                  [--queue-depth N] [--duration SECS] [--json PATH]
//!                  [--check]`.
//! `HGMATCH_BENCH_SMOKE=1` shrinks everything for the CI smoke job.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hgmatch_bench::experiments::bench_smoke;
use hgmatch_bench::harness::Workload;
use hgmatch_bench::report::{git_sha, host_cpus, median, percentile};
use hgmatch_core::ServeConfig;
use hgmatch_datasets::{profile_by_name, standard_settings};
use hgmatch_hypergraph::{EdgeId, Hypergraph};
use hgmatch_server::{FrontDoor, FrontDoorConfig};

/// Upper bound on the open-loop arrival rate: past this the generator's
/// own scheduling jitter (thread wakeups) dominates the measurement.
const MAX_RATE_QPS: f64 = 800.0;

/// Per-request engine budget, so one heavy sampled query cannot wedge a
/// worker for a whole phase.
const REQUEST_TIMEOUT_MS: u64 = 2000;

fn main() {
    let smoke = bench_smoke();
    let mut dataset = "SB".to_string();
    let mut threads = 2usize;
    let mut http_threads = 8usize;
    let mut queue_depth = 0usize; // 0 → 2 × threads
    let mut duration = Duration::from_secs_f64(if smoke { 1.0 } else { 3.0 });
    let mut json_path: Option<String> = None;
    let mut check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => {
                i += 1;
                dataset = args.get(i).expect("--dataset NAME").clone();
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threads N");
            }
            "--http-threads" => {
                i += 1;
                http_threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--http-threads N");
            }
            "--queue-depth" => {
                i += 1;
                queue_depth = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--queue-depth N");
            }
            "--duration" => {
                i += 1;
                duration = Duration::from_secs_f64(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--duration SECS"),
                );
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json PATH").clone());
            }
            "--check" => check = true,
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }
    let threads = threads.max(1);
    // Default queue depth = the worker count: admitted requests are the
    // ones executing, so their latency stays near the unloaded service
    // time and overload shows up as 429s, not queueing.
    let queue_depth = if queue_depth == 0 {
        threads
    } else {
        queue_depth
    };

    // Workload: q2/q3 random-walk queries serialised as /match bodies.
    let profile = profile_by_name(&dataset).expect("known dataset");
    let data = Arc::new(profile.generate());
    // SB q2 queries cost single-digit milliseconds each — heavy enough
    // that the engine, not HTTP parsing, is the bottleneck (otherwise
    // "2x capacity" would not overload anything), light enough that no
    // query hits its own timeout.
    let settings = standard_settings();
    let per_setting = if smoke { 8 } else { 16 };
    let workload = Workload::sample(&data, settings[0], per_setting, 17);
    let sampled: Vec<String> = workload.queries.iter().map(query_body).collect();
    assert!(!sampled.is_empty(), "workload sampling produced no queries");

    let door = FrontDoor::bind(
        Arc::clone(&data),
        FrontDoorConfig {
            http_threads,
            queue_depth,
            serve: ServeConfig::default().with_threads(threads),
            ..FrontDoorConfig::default()
        },
    )
    .expect("bind front door");
    let addr = door.local_addr();

    // Per-body calibration: cost each sampled query solo, then keep the
    // tightest-spread third of the bodies. The p99 gate compares loaded
    // latency against 5x the unloaded p50, so a workload whose own solo
    // costs span 5x would fail before any queueing happened; the
    // calibration pass also warms the plan cache so phase A measures
    // steady-state latency.
    let reps = if smoke { 3 } else { 5 };
    let mut cal = Client::new(addr, false);
    let mut costed: Vec<(f64, String)> = sampled
        .into_iter()
        .map(|body| {
            let mut lats = Vec::with_capacity(reps);
            for _ in 0..reps {
                let (status, lat) = cal.request(&body).expect("calibration request failed");
                assert_eq!(status, 200, "calibration request must be admitted");
                lats.push(lat);
            }
            (median(&lats), body)
        })
        .collect();
    costed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let width = costed.len().div_ceil(3).max(2).min(costed.len());
    let mut lo = 0;
    for start in 0..=costed.len() - width {
        if costed[start + width - 1].0 / costed[start].0 < costed[lo + width - 1].0 / costed[lo].0 {
            lo = start;
        }
    }
    let hi = lo + width;
    let bodies: Vec<String> = costed[lo..hi].iter().map(|(_, b)| b.clone()).collect();
    println!(
        "# net_load: {} of {} bodies kept ({:.3}..{:.3} ms solo) on {}, {} engine threads, {} http threads, queue depth {}",
        bodies.len(),
        costed.len(),
        costed[lo].0 * 1e3,
        costed[hi - 1].0 * 1e3,
        profile.name,
        threads,
        http_threads,
        queue_depth
    );

    // Phase A: unloaded p50 (one closed-loop client).
    let cal_requests = if smoke { 20 } else { 60 };
    let unloaded = closed_loop(addr, &bodies, 1, cal_requests);
    let unloaded_p50 = median(&unloaded.ok_latencies);
    assert!(
        unloaded.errors == 0 && unloaded.other == 0,
        "unloaded phase must be clean: {unloaded:?}"
    );

    // Phase B: capacity estimate (threads closed-loop clients, counting
    // only admitted requests).
    let capacity_run = closed_loop(addr, &bodies, threads, cal_requests * threads);
    let capacity = (capacity_run.ok_latencies.len() as f64 / capacity_run.wall.as_secs_f64())
        .min(MAX_RATE_QPS);
    println!(
        "# unloaded p50 {:.3} ms, estimated capacity {:.1} q/s",
        unloaded_p50 * 1e3,
        capacity
    );

    // Open-loop phases: 1×, 2×, 4× the estimated capacity.
    let client_pool = if smoke { 8 } else { 24 };
    let mut phases = Vec::new();
    for mult in [1.0f64, 2.0, 4.0] {
        let rate = (capacity * mult).min(MAX_RATE_QPS * mult);
        let total = ((rate * duration.as_secs_f64()).ceil() as usize).max(client_pool);
        let result = open_loop(addr, &bodies, rate, total, client_pool);
        println!(
            "{}x\trate={:.1}/s\tsent={}\tok={}\tshed={}\tother={}\terrors={}\tp50={:.3}ms\tp99={:.3}ms\tshed_rate={:.3}",
            mult,
            rate,
            result.sent,
            result.ok_latencies.len(),
            result.shed,
            result.other,
            result.errors,
            median(&result.ok_latencies) * 1e3,
            percentile(&result.ok_latencies, 99.0) * 1e3,
            result.shed as f64 / result.sent.max(1) as f64,
        );
        phases.push((mult, rate, result));
    }

    let stats = door.shutdown();
    assert_eq!(stats.active, 0, "drain left queries active");
    println!(
        "# drained: {} admitted, queue-wait {:.3}s vs execution {:.3}s total",
        stats.admitted,
        stats.queue_wait_total.as_secs_f64(),
        stats.execution_total.as_secs_f64()
    );

    // Gates (ISSUE 8 acceptance criteria).
    let all_answered = phases
        .iter()
        .all(|(_, _, r)| r.errors == 0 && r.other == 0 && r.ok_latencies.len() + r.shed == r.sent);
    let sheds_at_2x = phases[1].2.shed > 0;
    let p99_2x = percentile(&phases[1].2.ok_latencies, 99.0);
    let p99_bounded = p99_2x <= 5.0 * unloaded_p50;
    println!(
        "# gates: all_answered={all_answered} sheds_at_2x={sheds_at_2x} p99_2x={:.3}ms vs 5x_unloaded_p50={:.3}ms -> bounded={p99_bounded}",
        p99_2x * 1e3,
        5.0 * unloaded_p50 * 1e3
    );

    if let Some(path) = &json_path {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"git_sha\": \"{}\", \"host_cpus\": {},",
            git_sha(),
            host_cpus()
        );
        let _ = writeln!(
            out,
            "  \"dataset\": \"{}\", \"threads\": {threads}, \"http_threads\": {http_threads}, \"queue_depth\": {queue_depth},",
            profile.name
        );
        let _ = writeln!(
            out,
            "  \"unloaded_p50_ms\": {:.3}, \"capacity_qps\": {:.1},",
            unloaded_p50 * 1e3,
            capacity
        );
        out.push_str("  \"phases\": [\n");
        for (i, (mult, rate, r)) in phases.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"overload\": {mult}, \"target_qps\": {rate:.1}, \"sent\": {}, \"ok\": {}, \"shed\": {}, \"other\": {}, \"errors\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"shed_rate\": {:.3}}}{}",
                r.sent,
                r.ok_latencies.len(),
                r.shed,
                r.other,
                r.errors,
                median(&r.ok_latencies) * 1e3,
                percentile(&r.ok_latencies, 99.0) * 1e3,
                r.shed as f64 / r.sent.max(1) as f64,
                if i + 1 < phases.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"gates\": {{\"all_answered\": {all_answered}, \"sheds_at_2x\": {sheds_at_2x}, \"p99_within_5x_unloaded_p50\": {p99_bounded}}}"
        );
        out.push_str("}\n");
        std::fs::write(path, out).expect("write json report");
        println!("# wrote {path}");
    }

    if check {
        assert!(all_answered, "every request must be answered 200 or 429");
        assert!(sheds_at_2x, "2x overload must shed with 429");
        assert!(
            p99_bounded,
            "p99 of admitted queries ({:.3}ms) exceeded 5x unloaded p50 ({:.3}ms)",
            p99_2x * 1e3,
            5.0 * unloaded_p50 * 1e3
        );
        println!("# check passed");
    }
}

/// Serialises a sampled query hypergraph as a `/match` request body.
fn query_body(q: &Hypergraph) -> String {
    let mut body = String::from("{\"labels\":[");
    for (i, l) in q.labels().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&l.raw().to_string());
    }
    body.push_str("],\"edges\":[");
    for e in 0..q.num_edges() {
        if e > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in q.edge_vertices(EdgeId::from_index(e)).iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&v.to_string());
        }
        body.push(']');
    }
    let _ = write!(body, "],\"timeout_ms\":{REQUEST_TIMEOUT_MS}}}");
    body
}

/// A front-door HTTP client: keep-alive (calibration) or one connection
/// per request (open-loop, so a finite client pool cannot pin handlers).
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    oneshot: bool,
}

impl Client {
    fn new(addr: SocketAddr, oneshot: bool) -> Self {
        Client {
            addr,
            stream: None,
            oneshot,
        }
    }

    /// Sends one `/match` request; returns the status code and latency.
    fn request(&mut self, body: &str) -> Result<(u16, f64), ()> {
        for attempt in 0..2 {
            if self.stream.is_none() {
                let stream = TcpStream::connect(self.addr).map_err(|_| ())?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(|_| ())?;
                let _ = stream.set_nodelay(true);
                self.stream = Some(stream);
            }
            let stream = self.stream.as_mut().unwrap();
            let begin = Instant::now();
            let connection = if self.oneshot { "close" } else { "keep-alive" };
            let req = format!(
                "POST /match HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                body.len()
            );
            if stream.write_all(req.as_bytes()).is_err() {
                self.stream = None;
                if attempt == 0 {
                    continue;
                }
                return Err(());
            }
            match read_status(stream) {
                Ok((status, close)) => {
                    if close || self.oneshot {
                        self.stream = None;
                    }
                    return Ok((status, begin.elapsed().as_secs_f64()));
                }
                Err(()) => {
                    self.stream = None;
                    if attempt == 0 {
                        continue;
                    }
                    return Err(());
                }
            }
        }
        Err(())
    }
}

/// Reads one response, returning (status, connection-closed).
fn read_status(stream: &mut TcpStream) -> Result<(u16, bool), ()> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(()),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ())?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(())?;
    let mut len = 0usize;
    let mut close = false;
    for line in head.split("\r\n").skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| ())?;
            } else if k.trim().eq_ignore_ascii_case("connection") {
                close = v.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let total = head_end + 4 + len;
    while buf.len() < total {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(()),
        }
    }
    Ok((status, close))
}

/// Aggregate of one generation phase.
#[derive(Debug, Default)]
struct PhaseResult {
    sent: usize,
    /// Latencies of admitted (200) requests, seconds.
    ok_latencies: Vec<f64>,
    /// 429 responses.
    shed: usize,
    /// Any other status (gate: must stay 0).
    other: usize,
    /// Requests with no parseable response (gate: must stay 0).
    errors: usize,
    wall: Duration,
}

impl PhaseResult {
    fn absorb(&mut self, status: Result<(u16, f64), ()>) {
        self.sent += 1;
        match status {
            Ok((200, lat)) => self.ok_latencies.push(lat),
            Ok((429, _)) => self.shed += 1,
            Ok(_) => self.other += 1,
            Err(()) => self.errors += 1,
        }
    }
}

/// Closed-loop: `clients` threads send back-to-back until `total`
/// requests have gone out.
fn closed_loop(addr: SocketAddr, bodies: &[String], clients: usize, total: usize) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let begin = Instant::now();
    let results: Vec<PhaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr, false);
                    let mut local = PhaseResult::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        local.absorb(client.request(&bodies[k % bodies.len()]));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    merge(results, begin.elapsed())
}

/// Open-loop: request `k` fires at `begin + k/rate` regardless of
/// completions; a pool of client threads executes the schedule.
fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    rate: f64,
    total: usize,
    clients: usize,
) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let begin = Instant::now();
    let results: Vec<PhaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr, true);
                    let mut local = PhaseResult::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let fire_at = begin + Duration::from_secs_f64(k as f64 / rate);
                        if let Some(wait) = fire_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        local.absorb(client.request(&bodies[k % bodies.len()]));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    merge(results, begin.elapsed())
}

fn merge(parts: Vec<PhaseResult>, wall: Duration) -> PhaseResult {
    let mut out = PhaseResult {
        wall,
        ..PhaseResult::default()
    };
    for p in parts {
        out.sent += p.sent;
        out.ok_latencies.extend(p.ok_latencies);
        out.shed += p.shed;
        out.other += p.other;
        out.errors += p.errors;
    }
    out
}
