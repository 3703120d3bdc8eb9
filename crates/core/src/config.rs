//! Execution configuration.

use std::time::Duration;

use crate::aggregate::AggregateMode;

/// Configuration shared by all executors.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Worker threads for the parallel engine (the sequential executor
    /// ignores this). Must be ≥ 1.
    pub threads: usize,
    /// Wall-clock budget; execution aborts (reporting `timed_out`) when
    /// exceeded. `None` = unbounded.
    pub timeout: Option<Duration>,
    /// Dynamic work stealing (paper §VI-C). Disabling it reproduces the
    /// `HGMatch-NOSTL` baseline of Fig. 12.
    pub work_stealing: bool,
    /// Candidate-list length at which the *last-step* expansion becomes
    /// splittable (DESIGN.md §12): instead of validating the whole list
    /// serially, the executing worker publishes assist tickets so idle
    /// peers can claim disjoint chunks of the same in-flight candidate
    /// range. Earlier steps never split — their candidates become child
    /// tasks, which stealing already divides. Defaults to
    /// [`SPLIT_THRESHOLD`]; `0` disables mid-flight splitting (the
    /// `fig12_stealing` steal-vs-assist ablation). Splits are also
    /// suppressed when `threads` is 1 (nobody could assist, and
    /// single-worker delivery order stays exactly the sequential
    /// executor's).
    pub split_threshold: usize,
    /// Mid-query re-plan trigger (DESIGN.md §15): when the observed
    /// candidate count at a plan position exceeds this factor times the
    /// planner's estimate, the unmatched suffix is re-ordered with
    /// observed cardinalities folded in. `0` disables adaptive
    /// re-optimization entirely (no feedback state is allocated).
    /// Defaults to 8.
    pub replan_ratio: f64,
    /// How results are aggregated (DESIGN.md §18.2). `Materialize`
    /// preserves the pre-aggregation behaviour; the sink-construction
    /// helpers ([`crate::Matcher::aggregate`], the serve layer's
    /// per-query options) consult this as the default mode.
    pub aggregate: AggregateMode,
}

/// Default [`MatchConfig::split_threshold`]: the last-step candidate count
/// from which work assisting pays. It is the smallest size in the
/// `fig12_stealing` hub sweep (`BENCH_stealing.json` `hub_sweep`, 2
/// workers on 2 vCPUs) where assisting beats stealing by ≥ 1.2× in the
/// median, rounded down to a power of two — 2·10⁶ since validation runs in
/// branch-free blocks, so 2²⁰; `fig12_stealing --check` fails if a
/// full-size sweep puts the crossover above it.
pub const SPLIT_THRESHOLD: usize = 1_048_576;

/// Default [`MatchConfig::replan_ratio`]: the observed/estimated
/// candidate-count ratio past which the engine re-plans the unmatched
/// suffix of an in-flight query (DESIGN.md §15). It sits well past the
/// planner's 2× confidence margin: a blow-up the trigger fires on is a
/// genuine misestimate, not model noise.
const REPLAN_RATIO: f64 = 8.0;

/// Confidence margin of the cost-based planner: the searched order
/// replaces the greedy Algorithm 3 order only when its estimated cost is
/// at least this factor cheaper (DESIGN.md §13.3). Near-tie estimates are
/// statistically indistinguishable — label-level summaries cannot separate
/// them — so the planner stays with the paper's baseline there instead of
/// flipping on noise. The default of 2 reflects that per-step selectivity
/// estimates multiply across joins, so small predicted wins are within
/// the model's error bars while real planning mistakes (hub fan-outs)
/// show up as several-fold predicted gaps.
pub(crate) const PLAN_MARGIN: f64 = 2.0;

/// Beam width of the cost-based order search for queries above the
/// exhaustive bound (DESIGN.md §13.3).
pub(crate) const PLAN_BEAM: usize = 8;

/// Largest query-edge count the order search enumerates exhaustively with
/// branch-and-bound; larger queries fall back to beam search. Tests reach
/// the beam path through [`crate::CostModel::best_order_bounded`].
pub(crate) const PLAN_EXHAUSTIVE: usize = 8;

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            timeout: None,
            work_stealing: true,
            split_threshold: SPLIT_THRESHOLD,
            replan_ratio: REPLAN_RATIO,
            aggregate: AggregateMode::Materialize,
        }
    }
}

impl MatchConfig {
    /// Single-threaded config.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Parallel config with `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Sets the timeout, builder style.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Toggles work stealing, builder style.
    pub fn with_work_stealing(mut self, enabled: bool) -> Self {
        self.work_stealing = enabled;
        self
    }

    /// Sets the splittable-expansion threshold (0 disables mid-flight
    /// splitting), builder style.
    pub fn with_split_threshold(mut self, threshold: usize) -> Self {
        self.split_threshold = threshold;
        self
    }

    /// Sets the mid-query re-plan trigger ratio (0 disables adaptive
    /// re-optimization), builder style.
    pub fn with_replan_ratio(mut self, ratio: f64) -> Self {
        self.replan_ratio = ratio.max(0.0);
        self
    }

    /// Sets the default aggregation mode, builder style.
    pub fn with_aggregate(mut self, mode: AggregateMode) -> Self {
        self.aggregate = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = MatchConfig::default();
        assert_eq!(c.threads, 1);
        assert!(c.timeout.is_none());
        assert!(c.work_stealing);
        assert_eq!(c.split_threshold, SPLIT_THRESHOLD);
        assert_eq!(c.replan_ratio, 8.0);
        assert_eq!(c.aggregate, AggregateMode::Materialize);
    }

    #[test]
    fn builders() {
        let c = MatchConfig::parallel(8)
            .with_timeout(Duration::from_secs(5))
            .with_work_stealing(false);
        assert_eq!(c.threads, 8);
        assert_eq!(c.timeout, Some(Duration::from_secs(5)));
        assert!(!c.work_stealing);
        // Zero threads clamps to one.
        assert_eq!(MatchConfig::parallel(0).threads, 1);
        let c = MatchConfig::default().with_split_threshold(16);
        assert_eq!(c.split_threshold, 16);
        // Negative ratios clamp to 0 (= adaptive re-optimization off).
        let c = MatchConfig::default().with_replan_ratio(-1.0);
        assert_eq!(c.replan_ratio, 0.0);
        let c = MatchConfig::default().with_replan_ratio(0.5);
        assert_eq!(c.replan_ratio, 0.5);
    }
}
