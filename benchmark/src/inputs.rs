//! Input generation: data graphs, query pools, request bodies and update
//! streams. The data graph, the query pool and the update stream of a
//! workload are constants of the code (profile, pool and stream seeds), so
//! that the work a run does is the same for every `--seed`; the seed
//! orders the requests and draws `update_mix`'s Zipf queries.

use std::sync::atomic::{AtomicU64, Ordering};

use hgmatch_core::{AggregateMode, MatchConfig, Matcher, ScoreFn, Sink};
use hgmatch_datasets::{
    generate_update_stream, profile_by_name, standard_settings, QuerySetting, UpdateStreamConfig,
};
use hgmatch_hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, UpdateOp, VertexId};

use crate::rng::Rng;

/// Insert share of every update stream (3:1 insert:delete).
pub const INSERT_RATIO: f64 = 0.75;

/// Generates the named dataset profile with its own profile seed.
pub fn dataset(name: &str) -> Hypergraph {
    profile_by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset profile {name}"))
        .generate()
}

/// A data graph as the text the program loads: labels and edge list.
pub struct GraphText {
    pub labels: Vec<u8>,
    pub edges: Vec<u8>,
}

impl GraphText {
    pub fn of(graph: &Hypergraph) -> Self {
        let mut text = GraphText {
            labels: Vec::new(),
            edges: Vec::new(),
        };
        hgmatch_hypergraph::io::write_text(graph, &mut text.labels, &mut text.edges)
            .expect("writing to memory cannot fail");
        text
    }

    /// The cold build the program does at start-up: parse + index build.
    pub fn load(&self) -> Hypergraph {
        hgmatch_hypergraph::io::read_text(&self.labels[..], &self.edges[..])
            .expect("generated text is valid")
    }
}

/// How a request wants its results aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Count,
    /// Best 10 by edge-id sum; deterministic, so checked for equality.
    TopK,
    /// Materialize, stopping at [`MATERIALIZE_LIMIT`] embeddings.
    Materialize,
}

pub const TOP_K: usize = 10;
pub const MATERIALIZE_LIMIT: u64 = 1000;

impl Mode {
    pub fn aggregate(self) -> AggregateMode {
        match self {
            Mode::Count => AggregateMode::CountOnly,
            Mode::TopK => AggregateMode::TopK {
                k: TOP_K,
                score: ScoreFn::EdgeIdSum,
            },
            Mode::Materialize => AggregateMode::Materialize,
        }
    }
}

/// One distinct query of a workload with its oracle answers.
pub struct PoolQuery {
    pub graph: Hypergraph,
    /// Embedding count from the sequential `Matcher`.
    pub count: u64,
    /// Wall time of that sequential run.
    pub oracle_s: f64,
    /// The deterministic top-k answer (filled only where top-k is asked).
    pub top_k: Vec<Vec<u32>>,
}

/// A counting sink that asks the executor to stop once the count passes
/// `limit`, so a candidate query that is too heavy for a pool costs a
/// bounded amount of time to reject.
struct BoundedCount {
    count: AtomicU64,
    limit: u64,
}

impl Sink for BoundedCount {
    fn add_count(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    fn is_satisfied(&self) -> bool {
        self.count.load(Ordering::Relaxed) > self.limit
    }
}

/// The oracle: `query`'s embedding count through the sequential executor.
pub fn oracle_count(data: &Hypergraph, query: &Hypergraph) -> u64 {
    Matcher::with_config(data, MatchConfig::sequential())
        .count(query)
        .expect("pool queries are valid")
}

/// The oracle count if it is at most `limit`, else `None` (early stop).
fn oracle_count_within(data: &Hypergraph, query: &Hypergraph, limit: u64) -> Option<u64> {
    let sink = BoundedCount {
        count: AtomicU64::new(0),
        limit,
    };
    Matcher::with_config(data, MatchConfig::sequential())
        .run(query, &sink)
        .expect("sampled queries are valid");
    let n = sink.count.load(Ordering::Relaxed);
    (n <= limit).then_some(n)
}

/// The oracle's top-k answer in the engine's own deterministic order.
pub fn oracle_top_k(data: &Hypergraph, query: &Hypergraph) -> Vec<Vec<u32>> {
    Matcher::with_config(data, MatchConfig::sequential())
        .aggregate_with(query, Mode::TopK.aggregate())
        .expect("pool queries are valid")
        .embeddings
        .unwrap_or_default()
        .iter()
        .map(|e| e.raw().to_vec())
        .collect()
}

/// Samples a connected sub-hypergraph of `setting.num_edges` hyperedges by
/// a random walk: pick a chosen edge, one of its vertices, one of that
/// vertex's incident edges. Unlike `datasets::sample_query` this never
/// lists a hub's whole neighbourhood, so it stays cheap on AR-S. Every
/// sampled query has at least one embedding by construction.
pub fn sample_walk(data: &Hypergraph, setting: &QuerySetting, rng: &mut Rng) -> Option<Hypergraph> {
    const ATTEMPTS: usize = 300;
    // After this many misses the vertex-count window is dropped, as the
    // datasets crate does for profiles whose arities cannot meet it.
    const STRICT: usize = 200;
    for attempt in 0..ATTEMPTS {
        let mut edges = vec![rng.below(data.num_edges() as u64) as u32];
        let mut tries = 0;
        while edges.len() < setting.num_edges && tries < 64 {
            tries += 1;
            let from = edges[rng.below(edges.len() as u64) as usize];
            let vs = data.edge_vertices(EdgeId::new(from));
            let v = vs[rng.below(vs.len() as u64) as usize];
            let incident = data.incident_edges(VertexId::new(v));
            let pick = incident[rng.below(incident.len() as u64) as usize];
            if !edges.contains(&pick) {
                edges.push(pick);
            }
        }
        if edges.len() < setting.num_edges {
            continue;
        }
        let mut vertices: Vec<u32> = edges
            .iter()
            .flat_map(|&e| data.edge_vertices(EdgeId::new(e)))
            .copied()
            .collect();
        vertices.sort_unstable();
        vertices.dedup();
        let in_window = (setting.min_vertices..=setting.max_vertices).contains(&vertices.len());
        if !in_window && attempt < STRICT {
            continue;
        }
        let mut builder = HypergraphBuilder::new();
        for &v in &vertices {
            builder.add_vertex(data.label(VertexId::new(v)));
        }
        for &e in &edges {
            let renumbered = data
                .edge_vertices(EdgeId::new(e))
                .iter()
                .map(|v| vertices.binary_search(v).expect("member vertex") as u32)
                .collect();
            builder
                .add_edge(renumbered)
                .expect("extracted edge is valid");
        }
        return Some(builder.build().expect("extracted query is valid"));
    }
    None
}

/// Which queries a pool keeps.
pub struct PoolSpec {
    /// Fixed seed of the pool: a constant of the workload, like the
    /// dataset's profile seed.
    pub pool_seed: u64,
    /// `(index into standard_settings(), queries wanted)`.
    pub per_setting: &'static [(usize, usize)],
    /// Accepted oracle counts, inclusive.
    pub min_count: u64,
    pub max_count: u64,
    /// Whether the oracle also records the top-k answer.
    pub with_top_k: bool,
}

/// Builds a pool: samples queries in a fixed order and keeps the first
/// distinct ones whose oracle count lies in the wanted range; a sampler
/// that stops yielding them is a broken workload and panics. The oracle
/// run that selects a query is also its reference answer, and one that
/// passes `max_count` stops there, so rejecting costs a bounded time.
pub fn build_pool(data: &Hypergraph, spec: &PoolSpec) -> Vec<PoolQuery> {
    let settings = standard_settings();
    let mut pool = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &(setting, wanted) in spec.per_setting {
        let mut rng = Rng::derive(spec.pool_seed, setting as u64);
        let mut kept = 0;
        let mut draws = 0;
        while kept < wanted {
            assert!(
                draws < wanted * 200,
                "query pool: {kept}/{wanted} {} queries with counts in {}..={}",
                settings[setting].name,
                spec.min_count,
                spec.max_count
            );
            draws += 1;
            let Some(graph) = sample_walk(data, &settings[setting], &mut rng) else {
                continue;
            };
            if !seen.insert(request_body(&graph, Mode::Count)) {
                continue;
            }
            let began = std::time::Instant::now();
            let Some(count) = oracle_count_within(data, &graph, spec.max_count) else {
                continue;
            };
            let oracle_s = began.elapsed().as_secs_f64();
            if count < spec.min_count {
                continue;
            }
            let top_k = if spec.with_top_k {
                oracle_top_k(data, &graph)
            } else {
                Vec::new()
            };
            pool.push(PoolQuery {
                graph,
                count,
                oracle_s,
                top_k,
            });
            kept += 1;
        }
    }
    pool
}

/// Serialises a query as a `POST /match` JSON body.
pub fn request_body(query: &Hypergraph, mode: Mode) -> String {
    let mut body = String::from("{\"labels\":[");
    for (i, l) in query.labels().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&l.raw().to_string());
    }
    body.push_str("],\"edges\":[");
    for e in 0..query.num_edges() {
        if e > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in query
            .edge_vertices(EdgeId::from_index(e))
            .iter()
            .enumerate()
        {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&v.to_string());
        }
        body.push(']');
    }
    body.push_str("],\"aggregate\":");
    match mode {
        Mode::Count => body.push_str("{\"mode\":\"count_only\"}"),
        Mode::TopK => body.push_str(&format!(
            "{{\"mode\":\"top_k\",\"k\":{TOP_K},\"score\":\"edge_id_sum\"}}"
        )),
        Mode::Materialize => body.push_str(&format!(
            "{{\"mode\":\"materialize\"}},\"max_results\":{MATERIALIZE_LIMIT}"
        )),
    }
    body.push('}');
    body
}

/// The complete HTTP request for a body, as sent on a keep-alive socket.
pub fn http_request(body: &str) -> Vec<u8> {
    format!(
        "POST /match HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One entry of a request list: which pool query, asked how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub query: u32,
    pub mode: Mode,
}

/// A pass of count-only requests: every pool query `repeats` times, in an
/// order drawn from `seed`. The work of the pass does not depend on the
/// seed; its order does.
pub fn uniform_requests(pool_len: usize, repeats: usize, seed: u64) -> Vec<Request> {
    let mut list: Vec<Request> = (0..pool_len * repeats)
        .map(|i| Request {
            query: (i % pool_len) as u32,
            mode: Mode::Count,
        })
        .collect();
    Rng::derive(seed, 1).shuffle(&mut list);
    list
}

/// A pass with the 70 % count-only / 20 % top-k / 10 % materialize mix:
/// every pool query `tens` times ten, each ten holding exactly 7/2/1 of
/// the modes, in an order drawn from `seed`. The work of the pass does not
/// depend on the seed; its order does.
pub fn mixed_requests(pool_len: usize, tens: usize, seed: u64) -> Vec<Request> {
    const PATTERN: [Mode; 10] = [
        Mode::Count,
        Mode::Count,
        Mode::Count,
        Mode::TopK,
        Mode::Count,
        Mode::Count,
        Mode::Materialize,
        Mode::Count,
        Mode::TopK,
        Mode::Count,
    ];
    let mut list = Vec::with_capacity(pool_len * tens * 10);
    for query in 0..pool_len as u32 {
        for _ in 0..tens {
            list.extend(PATTERN.iter().map(|&mode| Request { query, mode }));
        }
    }
    Rng::derive(seed, 1).shuffle(&mut list);
    list
}

/// The update stream of a run: `ops` effective mutations against `base`.
pub fn update_stream(base: &Hypergraph, ops: usize, seed: u64) -> Vec<UpdateOp> {
    generate_update_stream(
        base,
        &UpdateStreamConfig {
            ops,
            insert_ratio: INSERT_RATIO,
            seed: Rng::derive(seed, 2).next_u64(),
            ..UpdateStreamConfig::default()
        },
    )
}

/// Checks that `edges` (data edge ids in query-edge order) is an embedding
/// of `query` in `data`, independently of the engine: the edges must be
/// distinct, of the query edges' arities, and the multiset of vertex
/// profiles (label, set of positions whose edge holds the vertex) must
/// equal the query's. Vertices with equal profiles are interchangeable, so
/// this is exactly the existence of a label-preserving injective vertex
/// mapping that carries every query edge onto its data edge.
pub fn is_embedding(data: &Hypergraph, query: &Hypergraph, edges: &[u32]) -> bool {
    if edges.len() != query.num_edges() {
        return false;
    }
    let mut data_profiles: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for (pos, &e) in edges.iter().enumerate() {
        if e as usize >= data.num_edges() || edges[..pos].contains(&e) {
            return false;
        }
        let vs = data.edge_vertices(EdgeId::new(e));
        if vs.len() != query.edge_arity(EdgeId::from_index(pos)) {
            return false;
        }
        for &v in vs {
            *data_profiles.entry(v).or_default() |= 1 << pos;
        }
    }
    let mut have: Vec<(u32, u64)> = data_profiles
        .iter()
        .map(|(&v, &mask)| (data.label(VertexId::new(v)).raw(), mask))
        .collect();
    let mut want: Vec<(u32, u64)> = (0..query.num_vertices() as u32)
        .map(|v| {
            let mask = query
                .incident_edges(VertexId::new(v))
                .iter()
                .fold(0u64, |m, &e| m | 1 << e);
            (query.label(VertexId::new(v)).raw(), mask)
        })
        .filter(|&(_, mask)| mask != 0)
        .collect();
    have.sort_unstable();
    want.sort_unstable();
    have == want
}
