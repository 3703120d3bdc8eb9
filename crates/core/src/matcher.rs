//! High-level matching facade.
//!
//! [`Matcher`] ties the pipeline together: analyse the query, plan against
//! the indexed data hypergraph, pick an executor (sequential for one
//! thread, the task-based parallel engine otherwise) and run it into a
//! sink. This mirrors the paper's Fig. 3 online-processing path.

use hgmatch_hypergraph::Hypergraph;

use crate::aggregate::{AggregateMode, AggregateSink, AggregateSummary};
use crate::config::MatchConfig;
use crate::embedding::Embedding;
use crate::engine::ParallelEngine;
use crate::error::Result;
use crate::exec::{RunStats, SequentialExecutor};
use crate::plan::{Plan, Planner};
use crate::query::QueryGraph;
use crate::sink::{CollectSink, CountSink, FirstKSink, Sink};

/// Result of [`Matcher::aggregate`]: the exact embedding count, whatever
/// embeddings the mode kept, the mode-specific summary and the run's
/// execution statistics.
#[derive(Debug)]
pub struct AggregateOutcome {
    /// Exact number of embeddings found (all modes count exactly).
    pub count: u64,
    /// Embeddings the mode kept: everything (sorted) under materialize,
    /// `None` under count-only, the best k (best first) under top-k, the
    /// sample (sorted) under sampled.
    pub embeddings: Option<Vec<Embedding>>,
    /// Mode-specific summary (top-k scores, sample confidence bounds, …).
    pub summary: AggregateSummary,
    /// Execution statistics of the run.
    pub stats: RunStats,
}

/// Matches query hypergraphs against one indexed data hypergraph.
///
/// One [`Matcher`] answers one query at a time (the parallel engine spins
/// its pool up per run). For streams of concurrent queries on a resident
/// pool, use [`crate::serve::MatchServer`].
///
/// # Example
///
/// ```
/// use hgmatch_core::{MatchConfig, Matcher};
/// use hgmatch_hypergraph::{HypergraphBuilder, Label};
///
/// // Data: two triangles sharing a vertex (labels A=0, B=1).
/// let mut b = HypergraphBuilder::new();
/// for &l in &[0u32, 0, 1, 0, 0] {
///     b.add_vertex(Label::new(l));
/// }
/// b.add_edge(vec![0, 1, 2]).unwrap();
/// b.add_edge(vec![2, 3, 4]).unwrap();
/// let data = b.build().unwrap();
///
/// // Query: one {A, A, B} hyperedge — matches both triangles.
/// let mut q = HypergraphBuilder::new();
/// for &l in &[0u32, 0, 1] {
///     q.add_vertex(Label::new(l));
/// }
/// q.add_edge(vec![0, 1, 2]).unwrap();
/// let query = q.build().unwrap();
///
/// let matcher = Matcher::with_config(&data, MatchConfig::parallel(2));
/// assert_eq!(matcher.count(&query).unwrap(), 2);
/// assert_eq!(matcher.find_all(&query).unwrap().len(), 2);
/// assert!(matcher.contains(&query).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct Matcher<'a> {
    data: &'a Hypergraph,
    config: MatchConfig,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher with the default (sequential) configuration.
    pub fn new(data: &'a Hypergraph) -> Self {
        Self {
            data,
            config: MatchConfig::default(),
        }
    }

    /// Creates a matcher with an explicit configuration.
    pub fn with_config(data: &'a Hypergraph, config: MatchConfig) -> Self {
        Self { data, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The data hypergraph.
    pub fn data(&self) -> &'a Hypergraph {
        self.data
    }

    /// Plans a query without executing it (EXPLAIN-style use).
    pub fn plan(&self, query: &Hypergraph) -> Result<Plan> {
        let q = QueryGraph::new(query)?;
        Planner::plan(&q, self.data)
    }

    /// Counts all embeddings of `query`.
    pub fn count(&self, query: &Hypergraph) -> Result<u64> {
        let sink = CountSink::new();
        let stats = self.run(query, &sink)?;
        Ok(stats.embeddings())
    }

    /// Counts embeddings and returns the full execution statistics.
    pub fn count_with_stats(&self, query: &Hypergraph) -> Result<(u64, RunStats)> {
        let sink = CountSink::new();
        let stats = self.run(query, &sink)?;
        Ok((stats.embeddings(), stats))
    }

    /// Enumerates all embeddings, sorted, in query-edge order.
    pub fn find_all(&self, query: &Hypergraph) -> Result<Vec<Embedding>> {
        let sink = CollectSink::new();
        self.run(query, &sink)?;
        Ok(sink.into_results())
    }

    /// Returns up to `k` embeddings, stopping early once found.
    pub fn find_first(&self, query: &Hypergraph, k: usize) -> Result<Vec<Embedding>> {
        let sink = FirstKSink::new(k);
        self.run(query, &sink)?;
        Ok(sink.into_results())
    }

    /// Tests whether at least one embedding exists.
    pub fn contains(&self, query: &Hypergraph) -> Result<bool> {
        Ok(!self.find_first(query, 1)?.is_empty())
    }

    /// Runs `query` under the configured aggregation mode
    /// ([`MatchConfig::aggregate`]): exact count plus whatever embeddings
    /// the mode keeps (DESIGN.md §18.2).
    pub fn aggregate(&self, query: &Hypergraph) -> Result<AggregateOutcome> {
        self.aggregate_with(query, self.config.aggregate)
    }

    /// Runs `query` under an explicit aggregation mode, overriding the
    /// configured one.
    pub fn aggregate_with(
        &self,
        query: &Hypergraph,
        mode: AggregateMode,
    ) -> Result<AggregateOutcome> {
        let sink = AggregateSink::new(mode, None);
        let stats = self.run(query, &sink)?;
        let (count, embeddings, summary) = sink.take_output();
        Ok(AggregateOutcome {
            count,
            embeddings,
            summary,
            stats,
        })
    }

    /// Runs `query` into `sink` with the configured executor. Parallel
    /// runs additionally re-optimize mid-query when observed candidate
    /// counts cross [`MatchConfig::replan_ratio`] × the plan's estimate
    /// (DESIGN.md §15); set the ratio to 0 — or use
    /// [`Matcher::run_plan`] — for a strictly static execution.
    pub fn run<S: Sink>(&self, query: &Hypergraph, sink: &S) -> Result<RunStats> {
        let q = QueryGraph::new(query)?;
        let plan = Planner::plan(&q, self.data)?;
        if self.config.threads > 1 && self.config.replan_ratio > 0.0 {
            let plan = std::sync::Arc::new(plan);
            return Ok(ParallelEngine::run_adaptive(
                &q,
                &plan,
                self.data,
                sink,
                &self.config,
            ));
        }
        Ok(self.run_plan(&plan, sink))
    }

    /// Runs a pre-compiled plan into `sink`, exactly as compiled — never
    /// adaptively (the order-invariance differential harnesses depend on
    /// this executing the given order to completion).
    pub fn run_plan<S: Sink>(&self, plan: &Plan, sink: &S) -> RunStats {
        if self.config.threads <= 1 {
            SequentialExecutor::run(plan, self.data, sink, &self.config)
        } else {
            ParallelEngine::run(plan, self.data, sink, &self.config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MatchError;
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

    fn paper_query() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap();
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![0, 1, 3, 4]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn count_and_find_agree() {
        let data = paper_data();
        let query = paper_query();
        let m = Matcher::new(&data);
        assert_eq!(m.count(&query).unwrap(), 2);
        let all = m.find_all(&query).unwrap();
        assert_eq!(all.len(), 2);
        assert!(m.contains(&query).unwrap());
        assert_eq!(m.find_first(&query, 1).unwrap().len(), 1);
    }

    #[test]
    fn parallel_config_uses_engine() {
        let data = paper_data();
        let query = paper_query();
        let m = Matcher::with_config(&data, MatchConfig::parallel(2));
        let (count, stats) = m.count_with_stats(&query).unwrap();
        assert_eq!(count, 2);
        assert_eq!(stats.workers.len(), 2);
    }

    #[test]
    fn aggregate_modes_agree_on_count() {
        use crate::aggregate::ScoreFn;
        let data = paper_data();
        let query = paper_query();
        let m = Matcher::new(&data);
        let full = m
            .aggregate_with(&query, AggregateMode::Materialize)
            .unwrap();
        let count = m.aggregate_with(&query, AggregateMode::CountOnly).unwrap();
        let topk = m
            .aggregate_with(
                &query,
                AggregateMode::TopK {
                    k: 1,
                    score: ScoreFn::EdgeIdSum,
                },
            )
            .unwrap();
        let sampled = m
            .aggregate_with(&query, AggregateMode::Sampled { budget: 1, seed: 7 })
            .unwrap();
        assert_eq!(full.count, 2);
        assert_eq!(count.count, 2);
        assert_eq!(topk.count, 2);
        assert_eq!(sampled.count, 2);
        assert!(count.embeddings.is_none());
        assert_eq!(full.embeddings.as_ref().unwrap().len(), 2);
        assert_eq!(topk.embeddings.as_ref().unwrap().len(), 1);
        assert_eq!(sampled.embeddings.as_ref().unwrap().len(), 1);
        // The top-1 by edge-id sum is the max-sum member of the full set.
        let best = full
            .embeddings
            .unwrap()
            .into_iter()
            .max_by_key(|e| e.raw().iter().map(|&x| x as u64).sum::<u64>())
            .unwrap();
        assert_eq!(topk.embeddings.unwrap()[0], best);
        // The sample is a member of the full result set.
        match sampled.summary {
            AggregateSummary::Sampled {
                sampled: n,
                fraction,
                ..
            } => {
                assert_eq!(n, 1);
                assert!((fraction - 0.5).abs() < 1e-9);
            }
            other => panic!("unexpected summary {other:?}"),
        }
    }

    #[test]
    fn empty_query_errors() {
        let data = paper_data();
        let empty = HypergraphBuilder::new().build().unwrap();
        assert_eq!(
            Matcher::new(&data).count(&empty).unwrap_err(),
            MatchError::EmptyQuery
        );
    }

    #[test]
    fn plan_is_inspectable() {
        let data = paper_data();
        let plan = Matcher::new(&data).plan(&paper_query()).unwrap();
        assert_eq!(plan.len(), 3);
    }
}
