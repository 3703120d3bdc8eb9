//! Property test of the first-class aggregation modes (DESIGN.md §18.2):
//! on random planted instances, `CountOnly` / `TopK` / `Sampled` must
//! agree with a materialize-then-aggregate oracle computed in plain code
//! from the full sorted result set — under both kernel families
//! (`Auto` vs `ForceScalar`), worker counts 1 and 4, and forced
//! last-step work-assist splitting (threshold 4).
//!
//! Determinism contract pinned here: top-k is byte-identical to the
//! oracle at *every* worker count (the (score desc, bytes asc) total
//! order leaves no schedule freedom), and the sample is a pure function
//! of (seed, result multiset) — reproducible across worker counts and
//! kernel families.

use hgmatch_core::aggregate::{hash_emb, AggregateMode, AggregateSummary};
use hgmatch_core::{Embedding, MatchConfig, Matcher, ScoreFn};
use hgmatch_datasets::testgen::{random_arity_hypergraph, random_subquery};
use hgmatch_hypergraph::setops::{self, KernelMode};
use proptest::prelude::*;
use std::sync::Mutex;

/// The kernel mode is process-global; every case serialises on this lock
/// so a concurrent case cannot flip the mode mid-run.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock_mode() -> std::sync::MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|poisoned| {
        setops::set_kernel_mode(KernelMode::Auto);
        poisoned.into_inner()
    })
}

/// Oracle top-k: sort the full result set by (score desc, bytes asc) and
/// keep the first k — the same total order `TopKState` promises.
fn oracle_top_k(all: &[Embedding], k: usize, score: ScoreFn) -> (Vec<Embedding>, Vec<u64>) {
    let mut scored: Vec<(u64, Embedding)> = all
        .iter()
        .map(|e| (score.score(e.raw()), e.clone()))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scored.truncate(k);
    let scores = scored.iter().map(|(s, _)| *s).collect();
    (scored.into_iter().map(|(_, e)| e).collect(), scores)
}

/// Oracle sample: keep the `budget` embeddings with the smallest
/// (priority, bytes) pairs under the seeded content hash, sorted — the
/// pure function of (seed, result multiset) `SampleState` implements.
fn oracle_sample(all: &[Embedding], budget: usize, seed: u64) -> Vec<Embedding> {
    let mut prioritised: Vec<(u64, Embedding)> = all
        .iter()
        .map(|e| (hash_emb(seed, e.raw()), e.clone()))
        .collect();
    prioritised.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    prioritised.truncate(budget);
    let mut embs: Vec<Embedding> = prioritised.into_iter().map(|(_, e)| e).collect();
    embs.sort_unstable();
    embs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn aggregation_modes_match_the_materialize_oracle(
        seed in 0u64..1 << 48,
        k in 1usize..4,
        topk_k in 1usize..5,
        budget in 1usize..5,
        sample_seed in 0u64..1 << 32,
    ) {
        let _guard = lock_mode();
        let data = random_arity_hypergraph(seed, 18, 40, 2, 2, 3);
        let Some(query) = random_subquery(&data, seed ^ 0xA5A5, k) else {
            return Ok(());
        };

        // Oracle: the full sorted result set from the reference run.
        let all = Matcher::new(&data).find_all(&query).unwrap();
        let total = all.len() as u64;
        prop_assert!(total >= 1, "planted query must match");
        let score = if topk_k % 2 == 0 { ScoreFn::EdgeIdSum } else { ScoreFn::MinEdge };
        let (want_topk, want_scores) = oracle_top_k(&all, topk_k, score);
        let want_sample = oracle_sample(&all, budget, sample_seed);

        for kernel in [KernelMode::Auto, KernelMode::ForceScalar] {
            setops::set_kernel_mode(kernel);
            for workers in [1usize, 4] {
                let tag = format!("seed={seed} kernel={kernel:?} workers={workers}");
                let config = MatchConfig::parallel(workers).with_split_threshold(4);
                let matcher = Matcher::with_config(&data, config);

                let out = matcher
                    .aggregate_with(&query, AggregateMode::CountOnly)
                    .unwrap();
                prop_assert_eq!(out.count, total, "count-only: {}", &tag);
                prop_assert!(out.embeddings.is_none(), "count-only materialised: {}", &tag);
                prop_assert_eq!(out.stats.metrics.materialized, 0, "count-only: {}", &tag);

                let out = matcher
                    .aggregate_with(&query, AggregateMode::Materialize)
                    .unwrap();
                prop_assert_eq!(out.count, total, "materialize: {}", &tag);
                prop_assert_eq!(out.embeddings.as_deref(), Some(&all[..]), "materialize: {}", &tag);

                let out = matcher
                    .aggregate_with(&query, AggregateMode::TopK { k: topk_k, score })
                    .unwrap();
                prop_assert_eq!(out.count, total, "top-k count: {}", &tag);
                prop_assert_eq!(
                    out.embeddings.as_deref(),
                    Some(&want_topk[..]),
                    "top-k kept set: {}", &tag
                );
                match &out.summary {
                    AggregateSummary::TopK { k: sk, score: ss, scores } => {
                        prop_assert_eq!(*sk, topk_k);
                        prop_assert_eq!(*ss, score);
                        prop_assert_eq!(scores, &want_scores, "top-k scores: {}", &tag);
                    }
                    other => prop_assert!(false, "wrong summary {other:?}: {}", &tag),
                }

                let mode = AggregateMode::Sampled { budget, seed: sample_seed };
                let out = matcher.aggregate_with(&query, mode).unwrap();
                prop_assert_eq!(out.count, total, "sampled count: {}", &tag);
                prop_assert_eq!(
                    out.embeddings.as_deref(),
                    Some(&want_sample[..]),
                    "sample not seed-reproducible: {}", &tag
                );
                match &out.summary {
                    AggregateSummary::Sampled { sampled, fraction, ci95, .. } => {
                        prop_assert_eq!(*sampled, (budget as u64).min(total));
                        prop_assert!(*fraction > 0.0 && *fraction <= 1.0);
                        prop_assert!(*ci95 >= 0.0);
                        if *sampled == total {
                            prop_assert_eq!(*ci95, 0.0, "full coverage has no CI: {}", &tag);
                        }
                    }
                    other => prop_assert!(false, "wrong summary {other:?}: {}", &tag),
                }
            }
        }
        setops::set_kernel_mode(KernelMode::Auto);
    }
}
