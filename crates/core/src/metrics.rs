//! Execution metrics.
//!
//! The counters mirror the quantities the paper reports in Fig. 9
//! ("Candidates Filtering"): the number of candidate hyperedges produced by
//! Algorithm 4, how many survive the cheap vertex-count check of
//! Observation V.5 ("Filtered"), and how many are true embeddings after the
//! vertex-profile comparison ("Embeddings"). Engines keep one
//! `MatchMetrics` per worker and merge at the end, so recording is free of
//! contention.
//!
//! Beyond the aggregate counters, [`StepCounts`] attributes candidates and
//! validated partials to the *plan position* that produced them — what
//! `explain --observed` sets beside the planner's per-step estimates.
//! The storage is a fixed-capacity inline array (no heap allocation on
//! the hot path): plan length is bounded by [`MAX_PLAN_STEPS`] because the
//! engine tracks matched query edges in a `u64` bitmask.

use serde::{Deserialize, Serialize};

/// Upper bound on plan length for per-step attribution — the engine's
/// query-edge bitmask is a `u64`, so no compilable plan exceeds it.
pub const MAX_PLAN_STEPS: usize = 64;

/// Per-plan-position counters, stored inline (allocation-free).
///
/// Position `0` is the SCAN step (candidates = partials = scanned rows);
/// position `d > 0` counts the candidates generated while extending
/// depth-`d` partials and how many of them validated into depth-`d+1`
/// partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepCounts {
    len: u32,
    candidates: [u64; MAX_PLAN_STEPS],
    partials: [u64; MAX_PLAN_STEPS],
}

impl Default for StepCounts {
    fn default() -> Self {
        Self {
            len: 0,
            candidates: [0; MAX_PLAN_STEPS],
            partials: [0; MAX_PLAN_STEPS],
        }
    }
}

impl StepCounts {
    /// Number of positions with recorded data (highest touched + 1).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Candidates produced per position, truncated to the touched prefix.
    pub fn candidates(&self) -> &[u64] {
        &self.candidates[..self.len as usize]
    }

    /// Validated partials per position, truncated to the touched prefix.
    pub fn partials(&self) -> &[u64] {
        &self.partials[..self.len as usize]
    }

    /// Adds `n` produced candidates at plan position `step`.
    #[inline]
    pub fn record_candidates(&mut self, step: usize, n: u64) {
        if step < MAX_PLAN_STEPS {
            self.candidates[step] += n;
            self.len = self.len.max(step as u32 + 1);
        }
    }

    /// Adds `n` validated partials at plan position `step`.
    #[inline]
    pub fn record_partials(&mut self, step: usize, n: u64) {
        if step < MAX_PLAN_STEPS {
            self.partials[step] += n;
            self.len = self.len.max(step as u32 + 1);
        }
    }

    /// Merges another worker's per-step counters into this one.
    pub fn merge(&mut self, other: &StepCounts) {
        for i in 0..other.len as usize {
            self.candidates[i] += other.candidates[i];
            self.partials[i] += other.partials[i];
        }
        self.len = self.len.max(other.len);
    }
}

/// Counters collected during one match execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchMetrics {
    /// Rows emitted by the SCAN operator (matches of the first query edge).
    pub scan_rows: u64,
    /// Candidate hyperedges produced by candidate generation (Fig. 9
    /// "Candidates"), summed over all EXPAND steps.
    pub candidates: u64,
    /// Candidates that passed the vertex-count check of Observation V.5
    /// (Fig. 9 "Filtered").
    pub filtered: u64,
    /// Candidates that passed full vertex-profile validation — i.e. valid
    /// (partial) embeddings produced by EXPAND.
    pub validated: u64,
    /// Complete embeddings delivered to the sink (Fig. 9 "Embeddings").
    /// Counting is exact in every aggregation mode; this is the logical
    /// result count, not an allocation count.
    pub embeddings: u64,
    /// Embeddings actually *materialised* (converted to query order and
    /// handed to `Sink::consume`). Zero in count-only mode; ≤ `embeddings`
    /// always. Keeping this separate from `embeddings` is what lets
    /// `/metrics` and `explain --observed` report bulk-counted results
    /// without claiming they were allocated (DESIGN.md §18.3).
    pub materialized: u64,
    /// EXPAND invocations (one per partial embedding per step).
    pub expansions: u64,
    /// Expansions whose candidate range was published as splittable
    /// (DESIGN.md §12): the validating loop could be joined mid-flight by
    /// idle workers instead of running serially on one.
    pub split_expansions: u64,
    /// Candidate chunks claimed by *assisting* workers — participants that
    /// joined a splittable expansion through a stolen assist ticket rather
    /// than having generated the candidates themselves.
    pub assist_chunks: u64,
    /// Candidates / validated partials attributed to the plan position that
    /// produced them — observed cardinalities `explain --observed` compares
    /// against [`crate::Plan::est_candidates`].
    pub steps: StepCounts,
}

impl MatchMetrics {
    /// Merges another worker's counters into this one.
    pub fn merge(&mut self, other: &MatchMetrics) {
        self.scan_rows += other.scan_rows;
        self.candidates += other.candidates;
        self.filtered += other.filtered;
        self.validated += other.validated;
        self.embeddings += other.embeddings;
        self.materialized += other.materialized;
        self.expansions += other.expansions;
        self.split_expansions += other.split_expansions;
        self.assist_chunks += other.assist_chunks;
        self.steps.merge(&other.steps);
    }

    /// True when no counter was touched — the cheap per-task merge guard
    /// (every per-step record also bumps an aggregate counter, so checking
    /// the scalars suffices; no 1 KiB struct compare on the hot path).
    pub fn is_empty(&self) -> bool {
        self.scan_rows == 0
            && self.candidates == 0
            && self.filtered == 0
            && self.validated == 0
            && self.embeddings == 0
            && self.materialized == 0
            && self.expansions == 0
            && self.split_expansions == 0
            && self.assist_chunks == 0
    }

    /// False-positive rate of candidate generation: the fraction of
    /// candidates that were not valid embeddings (paper §V-B remark reports
    /// this is extremely low).
    pub fn false_positive_rate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        1.0 - self.validated as f64 / self.candidates as f64
    }

    /// Fraction of vertex-count-filtered candidates that were true
    /// embeddings (the paper observes ≈97%).
    pub fn filtered_precision(&self) -> f64 {
        if self.filtered == 0 {
            return 0.0;
        }
        self.validated as f64 / self.filtered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = MatchMetrics {
            scan_rows: 1,
            candidates: 10,
            filtered: 8,
            validated: 7,
            embeddings: 3,
            materialized: 3,
            expansions: 5,
            split_expansions: 2,
            assist_chunks: 4,
            ..Default::default()
        };
        a.steps.record_candidates(1, 10);
        a.steps.record_partials(1, 7);
        let b = a;
        a.merge(&b);
        assert_eq!(a.candidates, 20);
        assert_eq!(a.embeddings, 6);
        assert_eq!(a.materialized, 6);
        assert_eq!(a.expansions, 10);
        assert_eq!(a.split_expansions, 4);
        assert_eq!(a.assist_chunks, 8);
        assert_eq!(a.steps.candidates(), &[0, 20]);
        assert_eq!(a.steps.partials(), &[0, 14]);
    }

    #[test]
    fn rates() {
        let m = MatchMetrics {
            candidates: 100,
            filtered: 50,
            validated: 40,
            ..Default::default()
        };
        assert!((m.false_positive_rate() - 0.6).abs() < 1e-9);
        assert!((m.filtered_precision() - 0.8).abs() < 1e-9);
        let empty = MatchMetrics::default();
        assert_eq!(empty.false_positive_rate(), 0.0);
        assert_eq!(empty.filtered_precision(), 0.0);
    }

    #[test]
    fn step_counts_bound_and_emptiness() {
        let mut s = StepCounts::default();
        assert!(s.is_empty());
        s.record_candidates(2, 5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.candidates(), &[0, 0, 5]);
        // Out-of-range positions are dropped, not panicking.
        s.record_candidates(MAX_PLAN_STEPS, 1);
        assert_eq!(s.len(), 3);

        let mut m = MatchMetrics::default();
        assert!(m.is_empty());
        m.expansions = 1;
        assert!(!m.is_empty());
    }
}
