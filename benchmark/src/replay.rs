//! Level-synchronous replay of a query through the engine's public stage
//! functions (`ExpansionState::prepare`, `generate_candidates`,
//! `validate_candidate`, `Plan::to_query_order`), timing each stage from
//! outside. Partial embeddings of one plan position are expanded in
//! batches of at most [`BATCH`], and a batch is only handed to the next
//! position after its timers have stopped, so no timed section contains
//! another and memory stays bounded by `BATCH × plan length`.
//!
//! The counts repeat exactly from run to run; the times carry three clock
//! reads per partial embedding (about 25 ns each).

use std::time::{Duration, Instant};

use hgmatch_core::candidates::{generate_candidates, ExpansionState};
use hgmatch_core::validate::{validate_candidate, ValidateScratch, Validation};
use hgmatch_core::{CountSink, MatchConfig, Plan, Planner, QueryGraph, Sink, MAX_PLAN_STEPS};
use hgmatch_hypergraph::{EdgeId, Hypergraph, VertexId};

/// Partial embeddings buffered per plan position before they move on.
pub const BATCH: usize = 50_000;

/// Anchor postings remembered for the set-kernel measurement.
pub const MAX_ANCHOR_KEYS: usize = 200;

/// Stage totals of one plan position.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    pub prepare: Duration,
    pub generate: Duration,
    pub validate: Duration,
    /// `prepare` + `generate_candidates` calls (one pair per partial).
    pub expansions: u64,
    pub produced: u64,
    pub validate_calls: u64,
    pub valid: u64,
}

impl StageTotals {
    fn add(&mut self, other: &StageTotals) {
        self.prepare += other.prepare;
        self.generate += other.generate;
        self.validate += other.validate;
        self.expansions += other.expansions;
        self.produced += other.produced;
        self.validate_calls += other.validate_calls;
        self.valid += other.valid;
    }
}

/// What replaying a set of queries measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Totals over all queries and plan positions.
    pub total: StageTotals,
    pub deliver: Duration,
    pub embeddings: u64,
    pub peak_partial_bytes: usize,
    /// `(partition, vertex)` of the first anchor postings the plans read.
    pub anchor_keys: Vec<(u32, u32)>,
    /// Per query: its embedding count, for the oracle comparison.
    pub counts: Vec<u64>,
    /// Per query: stage totals per position and delivery time, for spans.
    pub per_query: Vec<(Vec<StageTotals>, Duration)>,
}

struct Run<'a> {
    data: &'a Hypergraph,
    plan: &'a Plan,
    config: MatchConfig,
    sink: CountSink,
    states: Vec<ExpansionState>,
    scratch: ValidateScratch,
    /// One buffer of flattened partial embeddings per position.
    levels: Vec<Vec<u32>>,
    stages: Vec<StageTotals>,
    deliver: Duration,
    live_bytes: usize,
    peak_bytes: usize,
    ordered: Vec<u32>,
    anchor_keys: &'a mut Vec<(u32, u32)>,
}

impl Run<'_> {
    /// Expands every partial embedding buffered for `depth` ≥ 1 (each of
    /// `depth` edges) and leaves the buffer empty.
    fn expand(&mut self, depth: usize) {
        let batch = std::mem::take(&mut self.levels[depth]);
        if depth == self.plan.len() {
            self.deliver(&batch, depth);
        } else {
            for emb in batch.chunks_exact(depth) {
                self.expand_one(depth, emb);
                if self.levels[depth + 1].len() >= BATCH * (depth + 1) {
                    self.expand(depth + 1);
                }
            }
            if !self.levels[depth + 1].is_empty() {
                self.expand(depth + 1);
            }
        }
        self.live_bytes -= batch.len() * 4;
        // Hand the allocation back for the next batch of this position.
        let mut batch = batch;
        batch.clear();
        self.levels[depth] = batch;
    }

    fn expand_one(&mut self, depth: usize, emb: &[u32]) {
        let step = &self.plan.steps()[depth];
        let Some(pid) = step.partition else { return };
        let partition = self.data.partition(pid);
        let state = &mut self.states[depth];

        let t0 = Instant::now();
        state.prepare(self.data, step, emb);
        let t1 = Instant::now();
        let produced = generate_candidates(self.data, step, emb, state, &self.config);
        let t2 = Instant::now();

        let mut valid = 0u64;
        let next = &mut self.levels[depth + 1];
        let before = next.len();
        for &row in &state.candidates {
            let global = partition.global_id(row).raw();
            // Scan rows are valid by construction, as in the executors.
            let ok = depth == 0
                || validate_candidate(
                    self.data,
                    step,
                    depth,
                    emb,
                    state,
                    global,
                    partition.row(row),
                    &mut self.scratch,
                ) == Validation::Valid;
            if ok {
                valid += 1;
                next.extend_from_slice(emb);
                next.push(global);
            }
        }
        let t3 = Instant::now();

        let totals = &mut self.stages[depth];
        totals.prepare += t1 - t0;
        totals.generate += t2 - t1;
        totals.validate += t3 - t2;
        totals.expansions += 1;
        totals.produced += produced as u64;
        if depth > 0 {
            totals.validate_calls += produced as u64;
        }
        totals.valid += valid;

        self.live_bytes += (next.len() - before) * 4;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);

        if self.anchor_keys.len() < MAX_ANCHOR_KEYS {
            self.note_anchor_keys(depth, emb);
        }
    }

    /// Remembers which postings this expansion's anchors read, by the
    /// same vertex filter candidate generation applies.
    fn note_anchor_keys(&mut self, depth: usize, emb: &[u32]) {
        let step = &self.plan.steps()[depth];
        let Some(pid) = step.partition else { return };
        let state = &self.states[depth];
        for anchor in &step.anchors {
            let prev = EdgeId::new(emb[anchor.prev_pos as usize]);
            for &v in self.data.edge_vertices(prev) {
                if self.data.label(VertexId::new(v)) != anchor.label
                    || state.embedding_degree(v) != anchor.required_degree
                    || state.non_incident.binary_search(&v).is_ok()
                {
                    continue;
                }
                let key = (pid.raw(), v);
                if self.anchor_keys.len() < MAX_ANCHOR_KEYS && !self.anchor_keys.contains(&key) {
                    self.anchor_keys.push(key);
                }
            }
        }
    }

    /// Delivers complete embeddings the way the executors do: reorder and
    /// `consume` only if the sink wants tuples, count in bulk.
    fn deliver(&mut self, batch: &[u32], len: usize) {
        let t0 = Instant::now();
        let n = (batch.len() / len) as u64;
        if self.sink.needs_embeddings() {
            for emb in batch.chunks_exact(len) {
                self.plan.to_query_order_into(emb, &mut self.ordered);
                self.sink.consume(&self.ordered);
            }
        }
        self.sink.add_count(n);
        self.deliver += t0.elapsed();
    }
}

/// Replays `queries` against `data`, one after another.
pub fn replay<'q>(data: &Hypergraph, queries: impl Iterator<Item = &'q Hypergraph>) -> Replay {
    let mut out = Replay::default();
    for query in queries {
        let graph = QueryGraph::new(query).expect("pool queries are valid");
        let plan = Planner::plan(&graph, data).expect("pool queries plan");
        assert!(plan.len() <= MAX_PLAN_STEPS);
        if plan.is_infeasible() {
            out.counts.push(0);
            out.per_query.push((Vec::new(), Duration::ZERO));
            continue;
        }
        let mut run = Run {
            data,
            plan: &plan,
            config: MatchConfig::sequential(),
            sink: CountSink::new(),
            states: (0..plan.len()).map(|_| ExpansionState::new()).collect(),
            scratch: ValidateScratch::new(),
            levels: vec![Vec::new(); plan.len() + 1],
            stages: vec![StageTotals::default(); plan.len()],
            deliver: Duration::ZERO,
            live_bytes: 0,
            peak_bytes: 0,
            ordered: Vec::new(),
            anchor_keys: &mut out.anchor_keys,
        };
        // Position 0 has one (empty) partial embedding: the scan.
        run.expand_one(0, &[]);
        run.expand(1);

        let count = run.sink.count();
        out.counts.push(count);
        out.embeddings += count;
        out.deliver += run.deliver;
        out.peak_partial_bytes = out.peak_partial_bytes.max(run.peak_bytes);
        for stage in &run.stages {
            out.total.add(stage);
        }
        out.per_query.push((run.stages, run.deliver));
    }
    out
}
