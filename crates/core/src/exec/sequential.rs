//! Single-threaded depth-first executor.
//!
//! The reference implementation of the match-by-hyperedge framework
//! (Algorithm 2 executed depth-first): one partial embedding is live per
//! depth, so memory is `O(aq · |E(q)| + Σ candidates)`. All Fig. 9
//! filtering metrics are collected here.

use std::time::Instant;

use hgmatch_hypergraph::Hypergraph;

use crate::candidates::{generate_candidates, ExpansionState};
use crate::config::MatchConfig;
use crate::exec::{RunStats, WorkerStats};
use crate::metrics::MatchMetrics;
use crate::plan::Plan;
use crate::sink::Sink;
use crate::validate::{validate_candidate, ValidateScratch, Validation};

/// How many expansions between timeout / early-stop checks.
const CHECK_INTERVAL: u64 = 1024;

/// Sequential (single-thread, depth-first) executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

struct Dfs<'a, S: Sink> {
    plan: &'a Plan,
    data: &'a Hypergraph,
    sink: &'a S,
    config: &'a MatchConfig,
    states: Vec<ExpansionState>,
    scratch: ValidateScratch,
    metrics: MatchMetrics,
    emb: Vec<u32>,
    deadline: Option<Instant>,
    checks: u64,
    stop: bool,
    pending_count: u64,
}

impl SequentialExecutor {
    /// Runs `plan` against `data`, delivering results to `sink`.
    pub fn run<S: Sink>(
        plan: &Plan,
        data: &Hypergraph,
        sink: &S,
        config: &MatchConfig,
    ) -> RunStats {
        let start = Instant::now();
        let mut stats = RunStats::default();
        if plan.is_infeasible() {
            stats.elapsed = start.elapsed();
            stats.workers = vec![WorkerStats::default()];
            return stats;
        }

        let mut dfs = Dfs {
            plan,
            data,
            sink,
            config,
            states: (0..plan.len()).map(|_| ExpansionState::new()).collect(),
            scratch: ValidateScratch::new(),
            metrics: MatchMetrics::default(),
            emb: Vec::with_capacity(plan.len()),
            deadline: config.timeout.map(|t| start + t),
            checks: 0,
            stop: false,
            pending_count: 0,
        };
        dfs.descend(0);
        dfs.flush_counts();

        stats.metrics = dfs.metrics;
        stats.timed_out = dfs.stop && dfs.deadline.is_some_and(|d| Instant::now() >= d);
        stats.elapsed = start.elapsed();
        stats.workers = vec![WorkerStats {
            busy: stats.elapsed,
            tasks: dfs.metrics.expansions + 1,
            steals: 0,
            splits: 0,
            assists: 0,
            matches: dfs.metrics.embeddings,
        }];
        stats
    }
}

impl<S: Sink> Dfs<'_, S> {
    fn descend(&mut self, depth: usize) {
        if self.stop {
            return;
        }
        if depth == self.plan.len() {
            self.deliver();
            return;
        }

        let step = &self.plan.steps()[depth];
        // An absent signature means zero candidates: skip the state
        // preparation entirely instead of preparing and then discovering
        // there is no partition.
        let partition = match step.partition {
            Some(p) => self.data.partition(p),
            None => {
                if depth > 0 {
                    self.metrics.expansions += 1;
                }
                return;
            }
        };
        self.states[depth].prepare(self.data, step, &self.emb);
        let produced = generate_candidates(
            self.data,
            step,
            &self.emb,
            &mut self.states[depth],
            self.config,
        );

        // Per-step observed counts, as the parallel engine records them, so
        // single-threaded runs report observed-vs-estimated cardinalities
        // (`explain --observed`).
        self.metrics.steps.record_candidates(depth, produced as u64);
        if depth == 0 {
            self.metrics.scan_rows += produced as u64;
            // Scan rows are valid by construction.
            self.metrics.steps.record_partials(0, produced as u64);
        } else {
            self.metrics.expansions += 1;
            self.metrics.candidates += produced as u64;
        }
        let mut valid_here = 0u64;

        // Take ownership of the candidate buffer so deeper recursion can
        // reuse the per-depth state; restored afterwards to keep capacity.
        let cands = std::mem::take(&mut self.states[depth].candidates);
        for &row in &cands {
            if self.stop {
                break;
            }
            self.tick();
            let global = partition.global_id(row).raw();
            if depth == 0 {
                // Scan rows are valid by construction (signature equality).
                self.emb.push(global);
                self.descend(1.min(self.plan.len()));
                self.emb.pop();
                continue;
            }
            let verdict = validate_candidate(
                self.data,
                step,
                depth,
                &self.emb,
                &self.states[depth],
                global,
                partition.row(row),
                &mut self.scratch,
            );
            match verdict {
                Validation::Valid => {
                    self.metrics.filtered += 1;
                    self.metrics.validated += 1;
                    valid_here += 1;
                    self.emb.push(global);
                    self.descend(depth + 1);
                    self.emb.pop();
                }
                Validation::WrongProfiles => {
                    self.metrics.filtered += 1;
                }
                Validation::WrongVertexCount | Validation::Duplicate => {}
            }
        }
        self.states[depth].candidates = cands;
        if depth > 0 {
            self.metrics.steps.record_partials(depth, valid_here);
        }
    }

    fn deliver(&mut self) {
        self.metrics.embeddings += 1;
        self.pending_count += 1;
        if self.sink.needs_embeddings() {
            self.metrics.materialized += 1;
            let ordered = self.plan.to_query_order(&self.emb);
            self.sink.consume(&ordered);
        }
        if self.pending_count >= CHECK_INTERVAL {
            self.flush_counts();
        }
    }

    fn flush_counts(&mut self) {
        if self.pending_count > 0 {
            self.sink.add_count(self.pending_count);
            self.pending_count = 0;
        }
    }

    #[inline]
    fn tick(&mut self) {
        self.checks += 1;
        if self.checks.is_multiple_of(CHECK_INTERVAL) {
            if self.sink.is_satisfied() {
                self.stop = true;
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.stop = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::query::QueryGraph;
    use crate::sink::{CollectSink, CountSink, FirstKSink};
    use hgmatch_hypergraph::{HypergraphBuilder, Label};

    fn paper_data() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap();
        b.add_edge(vec![4, 6]).unwrap();
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![3, 5, 6]).unwrap();
        b.add_edge(vec![0, 1, 4, 6]).unwrap();
        b.add_edge(vec![2, 3, 4, 5]).unwrap();
        b.build().unwrap()
    }

    fn paper_query() -> QueryGraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap();
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![0, 1, 3, 4]).unwrap();
        QueryGraph::new(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn paper_example_finds_two_embeddings() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        let sink = CollectSink::new();
        let stats = SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::default());
        assert_eq!(stats.embeddings(), 2);
        assert!(!stats.timed_out);
        let results = sink.into_results();
        // In query-edge order: (q0,q1,q2) → (e0,e2,e4) and (e1,e3,e5).
        assert_eq!(results[0].raw(), &[0, 2, 4]);
        assert_eq!(results[1].raw(), &[1, 3, 5]);
    }

    #[test]
    fn single_edge_query_counts_partition() {
        let data = paper_data();
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(0));
        b.add_vertex(Label::new(1));
        b.add_edge(vec![0, 1]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let sink = CountSink::new();
        let stats = SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::default());
        // Two {A,B} data hyperedges.
        assert_eq!(stats.embeddings(), 2);
        assert_eq!(sink.count(), 2);
        assert_eq!(stats.metrics.scan_rows, 2);
    }

    #[test]
    fn infeasible_query_returns_zero() {
        let data = paper_data();
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(7));
        b.add_edge(vec![0, 1]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let sink = CountSink::new();
        let stats = SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::default());
        assert_eq!(stats.embeddings(), 0);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn first_k_stops_early() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        let sink = FirstKSink::new(1);
        SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::default());
        assert_eq!(sink.into_results().len(), 1);
    }

    #[test]
    fn metrics_are_consistent() {
        let data = paper_data();
        let plan = Planner::plan(&paper_query(), &data).unwrap();
        let sink = CountSink::new();
        let stats = SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::default());
        let m = stats.metrics;
        assert!(m.filtered <= m.candidates);
        assert!(m.validated <= m.filtered);
        assert!(m.embeddings <= m.validated + m.scan_rows);
        assert!(m.expansions > 0);
    }

    #[test]
    fn disconnected_query_still_correct() {
        // Two independent {A,B} edges in the paper data: e0 {2,4}, e1 {4,6}
        // share v4, so the only disconnected assignments are none — the two
        // edges always intersect. Expect 0 embeddings for a disconnected
        // 2-edge query whose parts must not overlap... they do overlap, so
        // the vertex-count check rejects every pair.
        let data = paper_data();
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 1, 0, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![0, 1]).unwrap();
        b.add_edge(vec![2, 3]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let sink = CountSink::new();
        let stats = SequentialExecutor::run(&plan, &data, &sink, &MatchConfig::default());
        assert_eq!(stats.embeddings(), 0);
    }
}
