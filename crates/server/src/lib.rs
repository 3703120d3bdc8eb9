//! # hgmatch-server
//!
//! The network front door for the [`hgmatch_core::serve::MatchServer`]
//! resident serving layer: a small HTTP/1.1 server on `std::net` that
//! translates JSON match requests into engine submissions, with the
//! admission machinery a multi-tenant deployment needs in front of an
//! expensive query engine (DESIGN.md §16):
//!
//! * **per-tenant quotas** — a token bucket per tenant name
//!   ([`tenant::TenantGovernor`]), refilling at `tenant_qps`;
//! * **queue-depth backpressure** — at most `queue_depth` match requests
//!   queued or executing; past that, HTTP 429 with `Retry-After` instead
//!   of unbounded queue growth;
//! * **cost-based admission control** — under load (queue more than half
//!   full) the planner's cost estimate
//!   ([`hgmatch_core::serve::MatchServer::estimate_cost`]) gates
//!   admission: predicted-expensive queries are shed with 429 so cheap
//!   queries keep their latency. The estimate is the cost model's price
//!   of its own order, before any pilot run, so shedding stays cheap;
//! * **observability** — `GET /metrics` renders every engine and door
//!   counter in Prometheus text format ([`metrics::render`]), including
//!   the queue-wait vs execution latency split that makes saturation
//!   visible;
//! * **graceful shutdown** — the listener stops accepting, in-flight
//!   queries run to completion, late-queued requests get 503, and the
//!   engine pool drains before [`FrontDoor::shutdown`] returns.
//!
//! ## Protocol
//!
//! `POST /match` with a JSON body:
//!
//! ```json
//! {
//!   "tenant": "acme",
//!   "labels": [0, 0, 1],
//!   "edges": [[0, 1, 2], [2, 1]],
//!   "collect": false,
//!   "max_results": 100,
//!   "timeout_ms": 1000,
//!   "aggregate": {"mode": "top_k", "k": 10, "score": "edge_id_sum"}
//! }
//! ```
//!
//! `labels[i]` is the label of query vertex `i`; `edges` lists the query
//! hyperedges over those vertex ids. The body decodes straight into a
//! [`hgmatch_core::QueryShape`], the plan cache's key, under the
//! hypergraph builder's rules and the same limits the CLI applies
//! ([`hgmatch_core::validate_query_shape`]), so a query is refused
//! identically on both entry paths and no query hypergraph is built.
//! A 200 response carries the outcome: status, count, the latency split,
//! the matched data-edge tuples the aggregation mode kept, and an
//! `aggregate` summary object (DESIGN.md §18.5).
//!
//! The optional `aggregate` object selects the result-aggregation mode:
//! `{"mode":"materialize"}`, `{"mode":"count_only"}`,
//! `{"mode":"top_k","k":K,"score":"edge_id_sum"|"min_edge"|"hash"}` or
//! `{"mode":"sampled","budget":B,"seed":S}`. When absent, `collect`
//! chooses between materialize and count-only as before. Counts ride the
//! split `u64` encoding ([`json::write_u64`]): a bare number within
//! `f64`'s exact range, a decimal string beyond — never a corrupted
//! float.

pub mod http;
pub mod json;
pub mod metrics;
pub mod tenant;

use hgmatch_core::serve::QueryStatus;
use hgmatch_core::serve::{ServeStats, WorkerServeStats};
use hgmatch_core::{
    AggregateMode, AggregateSummary, MatchError, MatchServer, QueryOptions, QueryOutcome,
    QueryShape, ScoreFn, ServeConfig,
};
use hgmatch_hypergraph::{Hypergraph, Label};
use http::{HttpError, Request, Response};
use metrics::DoorSnapshot;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest accepted tenant name; longer names are rejected with 400.
pub const MAX_TENANT_LEN: usize = 64;

/// Tenant used when a request names none.
pub const DEFAULT_TENANT: &str = "default";

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Front-door configuration. Construct with [`FrontDoorConfig::default`]
/// and override fields, or [`FrontDoorConfig::from_env`] to layer the
/// `HGMATCH_LISTEN_ADDR` / `HGMATCH_QUEUE_DEPTH` / `HGMATCH_TENANT_QPS`
/// environment variables over the defaults.
#[derive(Debug, Clone)]
pub struct FrontDoorConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`FrontDoor::local_addr`]).
    pub addr: String,
    /// Connection-handler threads (each serves one connection at a time).
    pub http_threads: usize,
    /// Accepted connections waiting for a handler before the accept loop
    /// itself starts turning connections away with 429.
    pub pending_connections: usize,
    /// Maximum match requests queued or executing before new ones are
    /// shed with 429 + `Retry-After` (the submission-queue bound).
    pub queue_depth: usize,
    /// Per-tenant token-bucket refill rate in requests/second
    /// (0 disables quotas).
    pub tenant_qps: f64,
    /// Cost-based admission threshold: under load, queries whose
    /// planner-estimated cost exceeds this are shed with 429.
    /// `f64::INFINITY` (the default) disables the gate.
    pub admit_cost: f64,
    /// Engine configuration for the embedded [`MatchServer`].
    pub serve: ServeConfig,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        let serve = ServeConfig::default();
        FrontDoorConfig {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 4,
            pending_connections: 128,
            queue_depth: serve.threads * 4,
            tenant_qps: 0.0,
            admit_cost: f64::INFINITY,
            serve,
        }
    }
}

impl FrontDoorConfig {
    /// Defaults with `HGMATCH_LISTEN_ADDR`, `HGMATCH_QUEUE_DEPTH` and
    /// `HGMATCH_TENANT_QPS` applied on top (invalid values are ignored).
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Ok(addr) = std::env::var("HGMATCH_LISTEN_ADDR") {
            if !addr.is_empty() {
                config.addr = addr;
            }
        }
        if let Some(depth) = std::env::var("HGMATCH_QUEUE_DEPTH")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            config.queue_depth = depth.max(1);
        }
        if let Some(qps) = std::env::var("HGMATCH_TENANT_QPS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            config.tenant_qps = qps.max(0.0);
        }
        config
    }
}

/// Lock-free front-door counters (engine counters live in
/// [`MatchServer`]).
#[derive(Debug, Default)]
struct DoorCounters {
    http_requests: AtomicU64,
    r200: AtomicU64,
    r400: AtomicU64,
    r404: AtomicU64,
    r405: AtomicU64,
    r413: AtomicU64,
    r429: AtomicU64,
    r500: AtomicU64,
    r503: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_quota: AtomicU64,
    shed_cost: AtomicU64,
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
}

impl DoorCounters {
    fn count_response(&self, status: u16) {
        match status {
            200 => &self.r200,
            400 => &self.r400,
            404 => &self.r404,
            405 => &self.r405,
            413 => &self.r413,
            429 => &self.r429,
            500 => &self.r500,
            _ => &self.r503,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, in_flight: u64) -> DoorSnapshot {
        DoorSnapshot {
            http_requests: self.http_requests.load(Ordering::Relaxed),
            responses: vec![
                (200, self.r200.load(Ordering::Relaxed)),
                (400, self.r400.load(Ordering::Relaxed)),
                (404, self.r404.load(Ordering::Relaxed)),
                (405, self.r405.load(Ordering::Relaxed)),
                (413, self.r413.load(Ordering::Relaxed)),
                (429, self.r429.load(Ordering::Relaxed)),
                (500, self.r500.load(Ordering::Relaxed)),
                (503, self.r503.load(Ordering::Relaxed)),
            ],
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_quota: self.shed_quota.load(Ordering::Relaxed),
            shed_cost: self.shed_cost.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            in_flight,
        }
    }
}

/// State shared by the accept loop and the connection handlers.
struct DoorShared {
    engine: MatchServer,
    counters: DoorCounters,
    tenants: tenant::TenantGovernor,
    queue_depth: usize,
    admit_cost: f64,
    /// Match requests past admission, queued into the engine or
    /// executing.
    in_flight: AtomicU64,
    /// Connections accepted but not yet picked up by a handler.
    queued_connections: AtomicU64,
    shutting_down: AtomicBool,
}

impl DoorShared {
    /// Submission-queue occupancy: requests inside the engine plus
    /// connections still waiting for a handler (each of which may carry
    /// a request).
    fn current_load(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed) + self.queued_connections.load(Ordering::Relaxed)
    }
}

/// Decrements the in-flight count however the request ends.
struct InFlightGuard<'a>(&'a AtomicU64);

impl<'a> InFlightGuard<'a> {
    /// Admits one request against `shared.queue_depth`, or refuses.
    fn admit(shared: &'a DoorShared) -> Result<Self, ()> {
        let prior = shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let load = prior + shared.queued_connections.load(Ordering::Relaxed);
        if load as usize >= shared.queue_depth {
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            return Err(());
        }
        Ok(InFlightGuard(&shared.in_flight))
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The running HTTP front door. Dropping it without
/// [`FrontDoor::shutdown`] leaves its threads running until process
/// exit; call `shutdown` for a graceful drain.
pub struct FrontDoor {
    inner: Arc<DoorShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    handler_threads: Vec<JoinHandle<()>>,
}

impl FrontDoor {
    /// Binds the listener, starts the engine pool and the accept/handler
    /// threads, and returns the running front door.
    pub fn bind(data: Arc<Hypergraph>, config: FrontDoorConfig) -> std::io::Result<FrontDoor> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let engine = MatchServer::new(data, config.serve.clone());
        let shared = Arc::new(DoorShared {
            engine,
            counters: DoorCounters::default(),
            tenants: tenant::TenantGovernor::new(config.tenant_qps),
            queue_depth: config.queue_depth.max(1),
            admit_cost: config.admit_cost,
            in_flight: AtomicU64::new(0),
            queued_connections: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });

        let (tx, rx) =
            std::sync::mpsc::sync_channel::<TcpStream>(config.pending_connections.max(1));
        let rx = Arc::new(parking_lot::Mutex::new(rx));

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("hgmatch-accept".to_string())
            .spawn(move || accept_loop(listener, tx, accept_shared))?;

        let mut handler_threads = Vec::with_capacity(config.http_threads.max(1));
        for i in 0..config.http_threads.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            handler_threads.push(
                std::thread::Builder::new()
                    .name(format!("hgmatch-http-{i}"))
                    .spawn(move || handler_loop(rx, shared))?,
            );
        }

        Ok(FrontDoor {
            inner: shared,
            local_addr,
            accept_thread: Some(accept_thread),
            handler_threads,
        })
    }

    /// The bound socket address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Engine counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.inner.engine.stats()
    }

    /// The current `/metrics` document, for out-of-band inspection.
    pub fn metrics_text(&self) -> String {
        render_metrics_text(&self.inner)
    }

    /// Graceful shutdown: stop accepting, drain queued connections
    /// (late match requests get 503), let in-flight queries finish, then
    /// stop the engine pool. Returns the final engine stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread owned the only sender; its exit disconnects
        // the channel, so handlers drain what is queued and then stop.
        for t in self.handler_threads.drain(..) {
            let _ = t.join();
        }
        let shared = Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("front-door threads still hold state after join"));
        let stats = shared.engine.stats();
        shared.engine.shutdown();
        stats
    }
}

fn accept_loop(listener: TcpListener, tx: SyncSender<TcpStream>, shared: Arc<DoorShared>) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                shared.queued_connections.fetch_add(1, Ordering::Relaxed);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        shared.queued_connections.fetch_sub(1, Ordering::Relaxed);
                        reject_connection(stream, &shared);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Turns a connection away at the accept stage (handler backlog full).
fn reject_connection(mut stream: TcpStream, shared: &DoorShared) {
    // This runs on the single accept thread: a client that never reads
    // must not stall accepting, so bound the write.
    if stream.set_write_timeout(Some(http::WRITE_TIMEOUT)).is_err() {
        return;
    }
    shared
        .counters
        .connections_rejected
        .fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .shed_queue_full
        .fetch_add(1, Ordering::Relaxed);
    shared.counters.count_response(429);
    let resp =
        Response::error(429, "server overloaded: connection backlog full").with_retry_after(1);
    let _ = stream.write_all(&http::render_response(&resp, true));
}

fn handler_loop(rx: Arc<parking_lot::Mutex<Receiver<TcpStream>>>, shared: Arc<DoorShared>) {
    loop {
        let stream = {
            let guard = rx.lock();
            guard.recv()
        };
        match stream {
            Ok(stream) => {
                shared.queued_connections.fetch_sub(1, Ordering::Relaxed);
                handle_connection(stream, &shared);
            }
            // Accept loop exited and the queue is drained: stop.
            Err(_) => return,
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &DoorShared) {
    if stream.set_read_timeout(Some(http::READ_POLL)).is_err()
        || stream.set_write_timeout(Some(http::WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    let stop = || shared.shutting_down.load(Ordering::SeqCst);
    loop {
        match http::read_request(&mut stream, &mut carry, &stop) {
            Ok(Some(req)) => {
                let resp = route(shared, &req);
                shared.counters.count_response(resp.status);
                let close = req.wants_close() || stop();
                if http::write_response(&mut stream, &resp, close).is_err() || close {
                    return;
                }
            }
            Ok(None) => return,
            Err(HttpError::TooLarge) => {
                let resp = Response::error(413, "request exceeds size limits");
                shared.counters.count_response(413);
                let _ = http::write_response(&mut stream, &resp, true);
                return;
            }
            Err(HttpError::Malformed(msg)) => {
                let resp = Response::error(400, msg);
                shared.counters.count_response(400);
                let _ = http::write_response(&mut stream, &resp, true);
                return;
            }
            Err(HttpError::Io(_)) => return,
        }
    }
}

fn route(shared: &DoorShared, req: &Request) -> Response {
    shared
        .counters
        .http_requests
        .fetch_add(1, Ordering::Relaxed);
    // Match on the path component alone: a query string (`/metrics?x=1`)
    // must not turn a known path into a 404.
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: render_metrics_text(shared).into_bytes(),
            retry_after: None,
        },
        ("GET", "/healthz") => Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: b"ok\n".to_vec(),
            retry_after: None,
        },
        ("POST", "/match") => handle_match(shared, &req.body),
        (_, "/match" | "/metrics" | "/healthz") => {
            Response::error(405, "method not allowed for this path")
        }
        _ => Response::error(404, "unknown path"),
    }
}

fn render_metrics_text(shared: &DoorShared) -> String {
    let stats = shared.engine.stats();
    let workers: Vec<WorkerServeStats> = shared.engine.worker_stats();
    let door = shared.counters.snapshot(shared.current_load());
    let tenants = shared.tenants.snapshot();
    metrics::render(&stats, &workers, &door, &tenants)
}

/// A parsed and validated `/match` request body.
#[derive(Debug)]
struct MatchRequest {
    tenant: String,
    query: QueryShape,
    options: QueryOptions,
}

impl MatchRequest {
    fn from_json(doc: &json::Json) -> Result<MatchRequest, String> {
        if !matches!(doc, json::Json::Obj(_)) {
            return Err("request body must be a JSON object".to_string());
        }
        let tenant = match doc.get("tenant") {
            None => DEFAULT_TENANT.to_string(),
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| "field 'tenant' must be a string".to_string())?;
                if name.is_empty() || name.len() > MAX_TENANT_LEN {
                    return Err(format!(
                        "field 'tenant' must be 1..={MAX_TENANT_LEN} characters"
                    ));
                }
                name.to_string()
            }
        };

        let labels = doc
            .get("labels")
            .and_then(json::Json::as_arr)
            .ok_or_else(|| "field 'labels' must be an array of vertex labels".to_string())?;
        let edges = doc
            .get("edges")
            .and_then(json::Json::as_arr)
            .ok_or_else(|| "field 'edges' must be an array of vertex-id arrays".to_string())?;

        let labels = labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                l.as_u64()
                    .filter(|&v| v <= u32::MAX as u64)
                    .map(|v| Label::new(v as u32))
                    .ok_or_else(|| format!("labels[{i}] is not a valid label id"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let edges = edges
            .iter()
            .enumerate()
            .map(|(i, edge)| {
                let members = edge
                    .as_arr()
                    .ok_or_else(|| format!("edges[{i}] must be an array of vertex ids"))?;
                members
                    .iter()
                    .enumerate()
                    .map(|(j, m)| {
                        m.as_u64()
                            .filter(|&v| (v as usize) < labels.len())
                            .map(|v| v as u32)
                            .ok_or_else(|| {
                                format!(
                                    "edges[{i}][{j}] must be a vertex id below {}",
                                    labels.len()
                                )
                            })
                    })
                    .collect::<Result<Vec<u32>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        // The builder's rules and the same shape gate the CLI applies to
        // query files: empty and over-long (> MAX_QUERY_EDGES hyperedges)
        // queries are rejected before they reach the planner.
        let query = QueryShape::new(&labels, edges).map_err(|e| match e {
            MatchError::InvalidHyperedge { edge, reason } => format!("edges[{edge}]: {reason}"),
            e => e.to_string(),
        })?;

        let collect = match doc.get("collect") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| "field 'collect' must be a boolean".to_string())?,
        };
        let max_results =
            match doc.get("max_results") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    "field 'max_results' must be a non-negative integer".to_string()
                })?),
            };
        let timeout = match doc.get("timeout_ms") {
            None => None,
            Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                "field 'timeout_ms' must be a non-negative integer".to_string()
            })?)),
        };
        let aggregate = match doc.get("aggregate") {
            None => None,
            Some(v) => Some(parse_aggregate(v)?),
        };

        Ok(MatchRequest {
            tenant,
            query,
            options: QueryOptions {
                timeout,
                max_results,
                collect,
                aggregate,
            },
        })
    }
}

/// Parses the `aggregate` request object into an [`AggregateMode`].
fn parse_aggregate(v: &json::Json) -> Result<AggregateMode, String> {
    let mode = v
        .get("mode")
        .and_then(json::Json::as_str)
        .ok_or_else(|| "field 'aggregate.mode' must be a string".to_string())?;
    match mode {
        "materialize" => Ok(AggregateMode::Materialize),
        "count_only" => Ok(AggregateMode::CountOnly),
        "top_k" => {
            let k = v
                .get("k")
                .and_then(json::Json::as_u64)
                .filter(|&k| k <= usize::MAX as u64)
                .ok_or_else(|| "field 'aggregate.k' must be a non-negative integer".to_string())?;
            let score = match v.get("score") {
                None => ScoreFn::EdgeIdSum,
                Some(s) => s.as_str().and_then(ScoreFn::parse).ok_or_else(|| {
                    "field 'aggregate.score' must be one of \
                         'edge_id_sum', 'min_edge', 'hash'"
                        .to_string()
                })?,
            };
            Ok(AggregateMode::TopK {
                k: k as usize,
                score,
            })
        }
        "sampled" => {
            let budget = v
                .get("budget")
                .and_then(json::Json::as_u64)
                .filter(|&b| b <= usize::MAX as u64)
                .ok_or_else(|| {
                    "field 'aggregate.budget' must be a non-negative integer".to_string()
                })?;
            let seed = match v.get("seed") {
                None => 0,
                Some(s) => s.as_u64_lossless().ok_or_else(|| {
                    "field 'aggregate.seed' must be a non-negative integer \
                     (or a decimal string past 2^53)"
                        .to_string()
                })?,
            };
            Ok(AggregateMode::Sampled {
                budget: budget as usize,
                seed,
            })
        }
        other => Err(format!(
            "unknown aggregate mode '{other}' (expected 'materialize', \
             'count_only', 'top_k' or 'sampled')"
        )),
    }
}

fn handle_match(shared: &DoorShared, body: &[u8]) -> Response {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Response::error(503, "server is shutting down");
    }
    let doc = match json::parse(body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let req = match MatchRequest::from_json(&doc) {
        Ok(req) => req,
        Err(e) => return Response::error(400, &e),
    };

    // Gate 1: tenant quota.
    let now = Instant::now();
    if let Err(wait) = shared.tenants.try_admit(&req.tenant, now) {
        shared.counters.shed_quota.fetch_add(1, Ordering::Relaxed);
        return Response::error(429, &format!("tenant '{}' over quota", req.tenant))
            .with_retry_after((wait.ceil() as u32).max(1));
    }

    // Gate 2: submission-queue depth.
    let guard = match InFlightGuard::admit(shared) {
        Ok(guard) => guard,
        Err(()) => {
            shared
                .counters
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            shared.tenants.record_shed(&req.tenant, now);
            return Response::error(429, "submission queue full").with_retry_after(1);
        }
    };

    // Gate 3: cost-based admission, only under load (queue more than
    // half full) so an idle server never rejects on estimates alone.
    if shared.admit_cost.is_finite() && shared.current_load() as usize * 2 > shared.queue_depth {
        match shared.engine.estimate_cost(req.query.clone()) {
            Ok(cost) if cost > shared.admit_cost => {
                drop(guard);
                shared.counters.shed_cost.fetch_add(1, Ordering::Relaxed);
                shared.tenants.record_shed(&req.tenant, now);
                return Response::json(
                    429,
                    format!(
                        "{{\"error\":\"predicted-expensive query shed under load\",\"estimated_cost\":{cost:.1}}}"
                    ),
                )
                .with_retry_after(2);
            }
            Ok(_) => {}
            Err(e) => {
                drop(guard);
                return Response::error(400, &e.to_string());
            }
        }
    }

    // Caller-first (DESIGN.md §8.5, §16.5): this handler thread executes a
    // cheap query itself and blocks on the pool only for the rest.
    let outcome = shared.engine.run(req.query, req.options);
    drop(guard);
    match outcome {
        Ok(outcome) if outcome.status == QueryStatus::Failed => Response::json(
            500,
            format!(
                "{{\"error\":\"query {} failed: a task panicked and was contained\"}}",
                outcome.id
            ),
        ),
        Ok(outcome) => Response::json(200, outcome_json(&outcome)),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Serialises a [`QueryOutcome`] as the `/match` response body. The count
/// uses the split `u64` encoding ([`json::write_u64`]) so results past
/// 2^53 cross the wire losslessly.
fn outcome_json(outcome: &QueryOutcome) -> String {
    let mut out = String::with_capacity(160);
    out.push_str(&format!(
        "{{\"id\":{},\"status\":\"{}\",\"count\":",
        outcome.id, outcome.status,
    ));
    json::write_u64(&mut out, outcome.count);
    out.push_str(&format!(
        ",\"elapsed_us\":{},\"queue_us\":{},\"exec_us\":{},\"plan_cached\":{},\"data_epoch\":{},\"peak_memory_bytes\":{},\"materialized\":{},\"inline\":{}",
        outcome.elapsed.as_micros(),
        outcome.queue_wait.as_micros(),
        outcome.execution.as_micros(),
        outcome.plan_cached,
        outcome.data_epoch,
        outcome.peak_memory_bytes,
        outcome.metrics.materialized,
        outcome.inline,
    ));
    out.push_str(",\"aggregate\":");
    write_aggregate_json(&mut out, &outcome.aggregate);
    if let Some(embeddings) = &outcome.embeddings {
        out.push_str(",\"embeddings\":[");
        for (i, emb) in embeddings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, edge) in emb.raw().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&edge.to_string());
            }
            out.push(']');
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Serialises the mode-specific [`AggregateSummary`] object.
fn write_aggregate_json(out: &mut String, summary: &AggregateSummary) {
    out.push_str(&format!("{{\"mode\":\"{}\"", summary.mode_name()));
    match summary {
        AggregateSummary::Materialized | AggregateSummary::Count => {}
        AggregateSummary::TopK { k, score, scores } => {
            out.push_str(&format!(
                ",\"k\":{k},\"score\":\"{}\",\"scores\":[",
                score.name()
            ));
            for (i, s) in scores.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_u64(out, *s);
            }
            out.push(']');
        }
        AggregateSummary::Sampled {
            budget,
            seed,
            sampled,
            fraction,
            ci95,
        } => {
            out.push_str(&format!(",\"budget\":{budget},\"seed\":"));
            json::write_u64(out, *seed);
            out.push_str(&format!(
                ",\"sampled\":{sampled},\"fraction\":{fraction},\"ci95\":{ci95}"
            ));
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgmatch_hypergraph::HypergraphBuilder;

    fn two_triangles() -> Arc<Hypergraph> {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 0, 1, 0, 0] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![2, 3, 4]).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn match_request_parses_and_validates() {
        let doc = json::parse(
            br#"{"labels":[0,0,1],"edges":[[0,1,2]],"collect":true,"max_results":5,"timeout_ms":100}"#,
        )
        .unwrap();
        let req = MatchRequest::from_json(&doc).unwrap();
        assert_eq!(req.tenant, DEFAULT_TENANT);
        assert_eq!(req.query.edges().count(), 1);
        assert!(req.options.collect);
        assert_eq!(req.options.max_results, Some(5));
        assert_eq!(req.options.timeout, Some(Duration::from_millis(100)));

        // Shared shape validation: empty and over-long queries rejected.
        let empty = json::parse(br#"{"labels":[0],"edges":[]}"#).unwrap();
        let err = MatchRequest::from_json(&empty).unwrap_err();
        assert!(err.contains("no hyperedges"), "{err}");

        let labels: Vec<String> = (0..66).map(|_| "0".to_string()).collect();
        let edges: Vec<String> = (0..65).map(|i| format!("[{},{}]", i, i + 1)).collect();
        let doc = format!(
            "{{\"labels\":[{}],\"edges\":[{}]}}",
            labels.join(","),
            edges.join(",")
        );
        let err = MatchRequest::from_json(&json::parse(doc.as_bytes()).unwrap()).unwrap_err();
        assert!(err.contains("65"), "{err}");

        // Out-of-range vertex ids are a crisp 400, not a build panic.
        let bad = json::parse(br#"{"labels":[0],"edges":[[0,7]]}"#).unwrap();
        let err = MatchRequest::from_json(&bad).unwrap_err();
        assert!(err.contains("edges[0][1]"), "{err}");
    }

    #[test]
    fn outcome_json_is_valid_json() {
        let data = two_triangles();
        let engine = MatchServer::new(Arc::clone(&data), ServeConfig::default().with_threads(1));
        let mut q = HypergraphBuilder::new();
        for &l in &[0u32, 0, 1] {
            q.add_vertex(Label::new(l));
        }
        q.add_edge(vec![0, 1, 2]).unwrap();
        let query = q.build().unwrap();
        let outcome = engine.run(&query, QueryOptions::collect_all()).unwrap();
        let body = outcome_json(&outcome);
        let parsed = json::parse(body.as_bytes()).unwrap();
        assert_eq!(parsed.get("count").and_then(json::Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("status").and_then(json::Json::as_str),
            Some("completed")
        );
        assert_eq!(
            parsed
                .get("embeddings")
                .and_then(json::Json::as_arr)
                .map(|a| a.len()),
            Some(2)
        );
        engine.shutdown();
    }

    #[test]
    fn in_flight_guard_enforces_queue_depth() {
        let shared = DoorShared {
            engine: MatchServer::new(two_triangles(), ServeConfig::default().with_threads(1)),
            counters: DoorCounters::default(),
            tenants: tenant::TenantGovernor::new(0.0),
            queue_depth: 2,
            admit_cost: f64::INFINITY,
            in_flight: AtomicU64::new(0),
            queued_connections: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        };
        let g1 = InFlightGuard::admit(&shared).unwrap();
        let _g2 = InFlightGuard::admit(&shared).unwrap();
        assert!(InFlightGuard::admit(&shared).is_err());
        drop(g1);
        let _g3 = InFlightGuard::admit(&shared).unwrap();
        // Queued connections count toward the load.
        shared.queued_connections.store(1, Ordering::Relaxed);
        assert!(InFlightGuard::admit(&shared).is_err());
    }
}
