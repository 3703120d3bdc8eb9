//! Candidate generation is sound and complete relative to validation
//! (DESIGN.md §6.5): at every expansion, the rows `generate_candidates`
//! returns that validate are exactly the rows of the *whole* partition
//! that validate. Generation may only ever drop rows validation would
//! reject — whichever profile class it intersects first, whichever posting
//! representation the members carry, whichever kernel family runs the set
//! operations.
//!
//! `validate_candidate` itself is held to the paper's Algorithm 5 by the
//! unit-level differential in `src/validate.rs`; this suite needs only the
//! public stage functions, so it can flip the two process-wide switches —
//! kernel mode and forced posting representation — that a unit test
//! sharing its binary with others cannot.

use std::sync::Mutex;

use hgmatch_core::candidates::{generate_candidates, ExpansionState};
use hgmatch_core::validate::{validate_candidate, ValidateScratch, Validation};
use hgmatch_core::{MatchConfig, Plan, Planner, QueryGraph};
use hgmatch_datasets::testgen::{random_arity_hypergraph, random_subquery};
use hgmatch_hypergraph::inverted::set_forced_repr;
use hgmatch_hypergraph::setops::{self, KernelMode};
use hgmatch_hypergraph::{Hypergraph, ReprKind};
use proptest::prelude::*;

/// Kernel mode and forced representation are process-global: the
/// properties of this binary serialise on this lock.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

/// Expansions checked per `(case, representation, kernel mode, order)`;
/// each validates a whole partition. The walk is depth first, so the budget
/// goes to whole root-to-leaf paths rather than to the first level.
const EXPANSION_BUDGET: usize = 120;

struct Walk<'a> {
    data: &'a Hypergraph,
    plan: &'a Plan,
    state: ExpansionState,
    scratch: ValidateScratch,
    budget: usize,
}

impl Walk<'_> {
    /// Expands `emb` and every valid extension of it, depth first, while
    /// the budget lasts.
    fn expand(&mut self, emb: &mut Vec<u32>) -> Result<(), TestCaseError> {
        let pos = emb.len();
        if pos == self.plan.len() || self.budget == 0 {
            return Ok(());
        }
        self.budget -= 1;
        let step = &self.plan.steps()[pos];
        let Some(pid) = step.partition else {
            return Ok(());
        };
        let partition = self.data.partition(pid);
        self.state.prepare(self.data, step, emb);
        generate_candidates(
            self.data,
            step,
            emb,
            &mut self.state,
            &MatchConfig::sequential(),
        );
        prop_assert!(setops::is_strictly_sorted(&self.state.candidates));

        let mut valid_rows = Vec::new();
        for (row, vertices) in partition.iter_rows() {
            let global = partition.global_id(row).raw();
            // Scan rows are valid by construction, as in the executors.
            let valid = pos == 0
                || validate_candidate(
                    self.data,
                    step,
                    pos,
                    emb,
                    &self.state,
                    global,
                    vertices,
                    &mut self.scratch,
                ) == Validation::Valid;
            if valid {
                valid_rows.push(row);
            }
        }
        let generated_valid: Vec<u32> = self
            .state
            .candidates
            .iter()
            .copied()
            .filter(|row| valid_rows.binary_search(row).is_ok())
            .collect();
        prop_assert_eq!(
            &generated_valid,
            &valid_rows,
            "order {:?} emb {:?}: generated {:?}",
            self.plan.order(),
            emb,
            &self.state.candidates
        );

        for row in valid_rows {
            emb.push(partition.global_id(row).raw());
            self.expand(emb)?;
            emb.pop();
        }
        Ok(())
    }
}

/// The planner's order first, then every other order of a `k`-edge query,
/// `k ≤ 3` — disconnected ones included.
fn orders(query: &QueryGraph, data: &Hypergraph) -> Vec<Vec<u32>> {
    let k = query.num_edges() as u32;
    let mut out = vec![Planner::plan(query, data).unwrap().order().to_vec()];
    for a in 0..k {
        for b in (0..k).filter(|&b| b != a) {
            let mut order = vec![a, b];
            order.extend((0..k).filter(|&c| c != a && c != b));
            if !out.contains(&order) {
                out.push(order);
            }
        }
    }
    out
}

fn check_case(seed: u64, labels: u32, k: usize) -> Result<(), TestCaseError> {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let result = (|| {
        for repr in [
            None,
            Some(ReprKind::List),
            Some(ReprKind::Bitmap),
            Some(ReprKind::Compressed),
        ] {
            // The representation is chosen when the index is built.
            set_forced_repr(repr);
            // Few labels and low arity: partitions of several hundred rows,
            // past the bitmap accumulator's 256-row floor.
            let data = random_arity_hypergraph(seed, 36, 900, labels, 2, 3);
            let Some(query) = random_subquery(&data, seed ^ 0xC1A5, k) else {
                return Ok(()); // dead-end walk: nothing to check
            };
            let query = QueryGraph::new(&query).unwrap();
            for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
                setops::set_kernel_mode(mode);
                for order in orders(&query, &data) {
                    let plan = Planner::plan_with_order(&query, &data, order).unwrap();
                    let mut walk = Walk {
                        data: &data,
                        plan: &plan,
                        state: ExpansionState::new(),
                        scratch: ValidateScratch::new(),
                        budget: EXPANSION_BUDGET,
                    };
                    walk.expand(&mut Vec::new())?;
                }
            }
        }
        Ok(())
    })();
    setops::set_kernel_mode(KernelMode::Auto);
    set_forced_repr(None); // back to the environment's setting
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn generation_keeps_exactly_the_valid_rows(
        seed in 0u64..1u64 << 48,
        labels in 1u32..3,
        k in 2usize..4,
    ) {
        check_case(seed, labels, k)?;
    }
}
