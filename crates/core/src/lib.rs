//! # hgmatch-core
//!
//! The HGMatch match-by-hyperedge subhypergraph matching engine
//! (Yang et al., "HGMatch: A Match-by-Hyperedge Approach for Subgraph
//! Matching on Hypergraphs", ICDE 2023).
//!
//! Instead of extending a partial embedding one *vertex* at a time (the
//! match-by-vertex framework used by every prior subhypergraph matcher),
//! HGMatch expands by one *hyperedge* at a time:
//!
//! 1. [`plan`] computes a matching order over query hyperedges from the
//!    data hypergraph's per-partition cardinality statistics: a
//!    statistics-driven cost model with bounded enumeration of connected
//!    orders ([`cost`], DESIGN.md §13), falling back to the paper's greedy
//!    Algorithm 3 whenever the model predicts no significant win. A query
//!    the model prices as expensive has its shortlisted orders measured on
//!    a sample instead ([`pilot`]).
//! 2. [`candidates`] generates candidate data hyperedges for the next query
//!    hyperedge purely with sorted-set operations over the inverted
//!    hyperedge index (Algorithm 4, Observations V.1–V.4).
//! 3. [`validate`] removes false positives by comparing multisets of
//!    *vertex profiles* — no backtracking ever happens (Algorithm 5,
//!    Theorem V.2).
//!
//! A compiled [`Plan`] is the paper's SCAN → EXPAND* → SINK dataflow
//! (Fig. 5a): its first step scans, every later step expands. It is
//! scheduled by one of three executors:
//!
//! * [`exec::SequentialExecutor`] — depth-first, single thread, the
//!   reference semantics (also collects the Fig. 9 filtering metrics);
//! * [`exec::BfsExecutor`] — level-at-a-time with full materialisation,
//!   the memory-hungry strawman of Fig. 11;
//! * [`engine::ParallelEngine`] — the paper's task-based scheduler: LIFO
//!   per-worker deques (a mutex-guarded ring buffer, DESIGN.md §7),
//!   dynamic work stealing, bounded memory (§VI, Theorem VI.1).
//!
//! The per-task execution core (candidate generation, validation,
//! delivery) is shared between two *schedulers* of that third executor:
//! the one-shot [`engine::ParallelEngine`], which owns a scoped pool for a
//! single query, and the resident [`serve::MatchServer`], which keeps one
//! worker pool alive for the process lifetime and serves many concurrent
//! queries against a shared data hypergraph — with fair interleaving,
//! per-query cancellation/timeouts/result limits, and a plan cache
//! (DESIGN.md §8). Use [`Matcher`] for one-query-at-a-time workloads and
//! [`serve::MatchServer`] when queries arrive as a stream.
//!
//! ```
//! use hgmatch_hypergraph::{HypergraphBuilder, Label};
//! use hgmatch_core::Matcher;
//!
//! // Data: two triangles sharing a vertex (labels A=0, B=1).
//! let mut b = HypergraphBuilder::new();
//! for &l in &[0u32, 0, 1, 0, 0] {
//!     b.add_vertex(Label::new(l));
//! }
//! b.add_edge(vec![0, 1, 2]).unwrap();
//! b.add_edge(vec![2, 3, 4]).unwrap();
//! let data = b.build().unwrap();
//!
//! // Query: one hyperedge {A, A, B}.
//! let mut q = HypergraphBuilder::new();
//! for &l in &[0u32, 0, 1] {
//!     q.add_vertex(Label::new(l));
//! }
//! q.add_edge(vec![0, 1, 2]).unwrap();
//! let query = q.build().unwrap();
//!
//! let matcher = Matcher::new(&data);
//! assert_eq!(matcher.count(&query).unwrap(), 2);
//! ```

pub mod aggregate;
pub mod candidates;
pub mod config;
pub mod cost;
pub mod embedding;
pub mod engine;
pub mod error;
pub mod exec;
pub mod matcher;
pub mod memory;
pub mod metrics;
pub mod pilot;
pub mod plan;
pub mod query;
pub mod serve;
pub mod sink;
pub mod validate;

pub use aggregate::{AggregateMode, AggregateSummary, ScoreFn};
pub use config::MatchConfig;
pub use cost::{CostModel, Explain, OrderEstimate, StepEstimate};
pub use embedding::Embedding;
pub use error::{MatchError, Result};
pub use matcher::{AggregateOutcome, Matcher};
pub use metrics::{MatchMetrics, StepCounts, MAX_PLAN_STEPS};
pub use pilot::{PilotOutcome, PilotRun};
pub use plan::{Plan, Planner};
pub use query::{validate_query_shape, QueryGraph, QueryShape, MAX_QUERY_EDGES};
pub use serve::{MatchServer, QueryHandle, QueryOptions, QueryOutcome, QueryStatus, ServeConfig};
pub use sink::{CollectSink, CountSink, FirstKSink, Sink};
