//! Embedding validation — the paper's Algorithm 5.
//!
//! Candidate generation can produce false positives; instead of falling
//! back to backtracking search for a vertex bijection (Lemma V.1), HGMatch
//! compares multisets of *vertex profiles* (Definition V.3, Theorem V.2):
//! `(label, incident matched hyperedges)` of the new query hyperedge's
//! vertices against those of the candidate's vertices, after a cheap check
//! that the number of distinct vertices matches (Observation V.5). The
//! paper measures that ≈ 97 % of the candidates surviving the count check
//! are true positives — [`crate::MatchMetrics::filtered_precision`], which
//! [`Validation`]'s four-way split keeps exact.
//!
//! Here the comparison is compiled away (DESIGN.md §6.5). A candidate comes
//! from the step's partition, so its label multiset is the query
//! hyperedge's; the profiles of vertices *new* to the embedding then agree
//! as soon as the profiles of the *shared* ones do, and so does the vertex
//! count. The shared query profiles are the step's classes
//! ([`crate::plan::Anchor`]), and [`ExpansionState::prepare`] has written
//! every vertex of the partial embedding its class code into a dense byte
//! table. Validating a candidate is: count its vertices by code — one table
//! load each, no search, no sort — and compare the few counters against the
//! classes' multiplicities. Which of the paper's two checks a reject fails
//! is read off the same counters afterwards.
//!
//! The counters are byte lanes of one word when the step allows it
//! ([`Step::need_lanes`]), and a [`ValidateScratch`] array otherwise. One
//! row kernel serves [`validate_candidate`] and [`validate_block`], the
//! engine's branch-free loop over a block of rows.

use hgmatch_hypergraph::hypergraph::Hypergraph;
use hgmatch_hypergraph::Partition;

use crate::candidates::{ExpansionState, CODE_ABSENT};
use crate::plan::{Anchor, Step};

/// Outcome of validating one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validation {
    /// The candidate is the same data hyperedge as an earlier match; an
    /// injective vertex mapping can never map two query hyperedges onto one
    /// data hyperedge, so it is rejected outright.
    Duplicate,
    /// Rejected by the vertex-count check (Observation V.5).
    WrongVertexCount,
    /// Rejected by the vertex-profile multiset comparison (Theorem V.2).
    WrongProfiles,
    /// The extended partial embedding is valid.
    Valid,
}

/// Reusable per-code vertex counters for the steps byte lanes cannot
/// count — more than [`crate::plan::LANE_CLASSES`] classes or an arity of
/// 256 and up; every other step counts in a register. A code is a byte, so
/// indexing needs no bounds check; the counters are `u32` like vertex ids,
/// so no candidate arity can wrap one.
///
/// Cache-line aligned: every call clears the first eight counters with two
/// 16-byte stores and then increments them through store forwarding. With
/// the natural 4-byte alignment, where the array lands is an accident of
/// the owning stack frame's layout, and a clear that straddles a line costs
/// `validate_candidate` 60 % (`heavy_lib/emb_per_s` 19.8 M → 15.1 M when an
/// unrelated change moved the engine's frame; measured in PR 21).
#[derive(Debug)]
#[repr(align(64))]
pub struct ValidateScratch {
    counts: [u32; 256],
}

impl ValidateScratch {
    /// Creates empty scratch.
    pub fn new() -> Self {
        Self { counts: [0; 256] }
    }
}

impl Default for ValidateScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Validates extending `emb` (positions `0..step_index`, itself a valid
/// partial embedding) with the candidate whose global id is `cand_global`
/// and sorted vertex list `cand_vertices`, a row of `step`'s partition.
///
/// `state` must have been [`ExpansionState::prepare`]d for `(step, emb)`
/// on `data`.
#[allow(clippy::too_many_arguments)] // hot-path kernel: explicit borrows beat a context struct here
pub fn validate_candidate(
    data: &Hypergraph,
    step: &Step,
    step_index: usize,
    emb: &[u32],
    state: &ExpansionState,
    cand_global: u32,
    cand_vertices: &[u32],
    scratch: &mut ValidateScratch,
) -> Validation {
    debug_assert_eq!(emb.len(), step_index);
    debug_assert_eq!(state.codes().len(), data.num_vertices());
    RowKernel::new(step, state, scratch).verdict(emb, cand_global, cand_vertices)
}

/// Algorithm 5 over a block of rows of `step`'s partition, with no branch
/// per row: every row's global id is written at the end of `valid`, and
/// the end advances by the row's verdict, so `valid` grows by exactly the
/// block's valid extensions of `emb`, in row order. Returns how many rows
/// [`validate_candidate`] would call `Valid`, and how many `Valid` or
/// `WrongProfiles` (the survivors of the count check,
/// [`crate::MatchMetrics::filtered`]).
///
/// The kernel — byte lanes or counters — is picked once for the block.
/// `state` must have been [`ExpansionState::prepare`]d for `(step, emb)`.
pub fn validate_block(
    step: &Step,
    state: &ExpansionState,
    scratch: &mut ValidateScratch,
    partition: &Partition,
    emb: &[u32],
    rows: &[u32],
    valid: &mut Vec<u32>,
) -> (u64, u64) {
    match RowKernel::new(step, state, scratch) {
        RowKernel::Lanes(lanes) => compact(partition, emb, rows, valid, |row| lanes.check(row)),
        RowKernel::Counters(mut counters) => {
            compact(partition, emb, rows, valid, |row| counters.check(row))
        }
    }
}

/// [`validate_block`]'s loop over one row kernel.
#[inline(always)]
fn compact(
    partition: &Partition,
    emb: &[u32],
    rows: &[u32],
    valid: &mut Vec<u32>,
    mut check: impl FnMut(&[u32]) -> (bool, bool),
) -> (u64, u64) {
    let base = valid.len();
    valid.resize(base + rows.len(), 0);
    let slots = &mut valid[base..];
    let (mut kept, mut filtered) = (0, 0u64);
    for &row in rows {
        let global = partition.global_id(row).raw();
        let fresh = emb.iter().fold(true, |fresh, &e| fresh & (e != global));
        let (profiles, count) = check(partition.row(row));
        slots[kept] = global;
        kept += usize::from(fresh & profiles);
        filtered += u64::from(fresh & (profiles | count));
    }
    valid.truncate(base + kept);
    (kept as u64, filtered)
}

/// Algorithm 5's counting for one row of a step's partition, the duplicate
/// test left to the caller: [`RowKernel::check`] says whether the shared
/// profiles match (Theorem V.2) and whether the vertex count does
/// (Observation V.5). Codes: 0 absent, `1..=classes` the classes,
/// `classes + 1` no class.
pub(crate) enum RowKernel<'a> {
    Lanes(Lanes<'a>),
    Counters(Counters<'a>),
}

impl<'a> RowKernel<'a> {
    /// The kernel of `step` over the prepared `state`: lanes when the step
    /// compiled a need word, `scratch`'s counters otherwise.
    pub(crate) fn new(
        step: &'a Step,
        state: &'a ExpansionState,
        scratch: &'a mut ValidateScratch,
    ) -> Self {
        match step.need_lanes {
            Some(need) => Self::Lanes(Lanes {
                codes: state.codes(),
                need,
                new: new_vertices(step, state),
            }),
            None => Self::counters(step, state, scratch),
        }
    }

    /// The counter kernel of `step`, which any step may use.
    pub(crate) fn counters(
        step: &'a Step,
        state: &'a ExpansionState,
        scratch: &'a mut ValidateScratch,
    ) -> Self {
        Self::Counters(Counters {
            codes: state.codes(),
            classes: &step.anchors,
            new: new_vertices(step, state),
            counts: &mut scratch.counts,
        })
    }

    /// `(profiles match, vertex count matches)` for one row.
    #[inline]
    fn check(&mut self, row: &[u32]) -> (bool, bool) {
        match self {
            Self::Lanes(lanes) => lanes.check(row),
            Self::Counters(counters) => counters.check(row),
        }
    }

    /// [`validate_candidate`]'s verdict on the row `vertices` of global id
    /// `global` as an extension of `emb`.
    pub(crate) fn verdict(&mut self, emb: &[u32], global: u32, vertices: &[u32]) -> Validation {
        if emb.contains(&global) {
            return Validation::Duplicate;
        }
        // A reject failed Observation V.5 if its distinct-vertex count is
        // off, and the profile comparison otherwise.
        match self.check(vertices) {
            (true, _) => Validation::Valid,
            (false, true) => Validation::WrongProfiles,
            (false, false) => Validation::WrongVertexCount,
        }
    }
}

/// How many vertices a valid row of `step` brings that the prepared
/// embedding lacks — its absent vertices. A count that wrapped matches no
/// row.
fn new_vertices(step: &Step, state: &ExpansionState) -> u64 {
    u64::from(step.vertices_after).wrapping_sub(state.num_vertices() as u64)
}

/// Per-code counts as the byte lanes of one word: lane `c` counts the
/// row's vertices of code `c`. No lane carries, since a count is at most
/// the arity, below 256.
pub(crate) struct Lanes<'a> {
    codes: &'a [u8],
    /// [`Step::need_lanes`]: the needs in lanes `1..=classes`, zero in the
    /// no-class lane and in lane 0, which the comparison masks.
    need: u64,
    /// Lane 0's value under the count check.
    new: u64,
}

impl Lanes<'_> {
    #[inline(always)]
    fn check(&self, row: &[u32]) -> (bool, bool) {
        let mut acc = 0u64;
        for &v in row {
            acc += 1 << (8 * u32::from(self.codes[v as usize]));
        }
        (acc & !0xFF == self.need, acc & 0xFF == self.new)
    }
}

/// Per-code counts in a [`ValidateScratch`] array, for any step.
pub(crate) struct Counters<'a> {
    codes: &'a [u8],
    classes: &'a [Anchor],
    /// `counts[0]`'s value under the count check.
    new: u64,
    counts: &'a mut [u32; 256],
}

impl Counters<'_> {
    #[inline(always)]
    fn check(&mut self, row: &[u32]) -> (bool, bool) {
        let classes = self.classes.len();
        let counts = &mut *self.counts;
        // Few classes is the rule: a fixed-size clear is a couple of stores.
        counts[..8].fill(0);
        if classes + 2 > 8 {
            counts[8..classes + 2].fill(0);
        }
        for &v in row {
            counts[self.codes[v as usize] as usize] += 1;
        }
        // Theorem V.2 on the shared vertices: every class exactly as often
        // as the query hyperedge has it, nothing else of the embedding.
        let mut mismatch = counts[classes + 1];
        for (class, &count) in self.classes.iter().zip(&counts[1..]) {
            mismatch |= count ^ class.need;
        }
        (
            mismatch == 0,
            u64::from(counts[CODE_ABSENT as usize]) == self.new,
        )
    }
}

/// Algorithm 5 as the paper writes it, kept as the oracle the class
/// counting is tested against: collect `V(m)` and the candidate's
/// `(label, incident matched positions)` profiles by searching every
/// matched edge, check the distinct-vertex count (Observation V.5), then
/// sort and compare with the query hyperedge's profiles (Theorem V.2). It
/// shares nothing with [`validate_candidate`]: no expansion state, no plan
/// classes — the query side is derived from the query graph and the
/// matching order.
#[cfg(test)]
pub(crate) fn validate_reference(
    data: &Hypergraph,
    query: &crate::query::QueryGraph,
    plan: &crate::plan::Plan,
    emb: &[u32],
    cand_global: u32,
) -> Validation {
    use hgmatch_hypergraph::Label;

    if emb.contains(&cand_global) {
        return Validation::Duplicate;
    }
    let pos = emb.len();
    let step = &plan.steps()[pos];
    let cand_vertices = data.edge_vertices(cand_global.into());

    let mut embedded: Vec<u32> = emb
        .iter()
        .flat_map(|&e| data.edge_vertices(e.into()))
        .copied()
        .collect();
    embedded.sort_unstable();
    embedded.dedup();
    let new_vertices = cand_vertices
        .iter()
        .filter(|v| embedded.binary_search(v).is_err())
        .count();
    if embedded.len() + new_vertices != step.vertices_after as usize {
        return Validation::WrongVertexCount;
    }

    let mut got: Vec<(Label, u64)> = cand_vertices
        .iter()
        .map(|&v| {
            let mut mask = 1u64 << pos;
            for (j, &e) in emb.iter().enumerate() {
                if data.edge_vertices(e.into()).binary_search(&v).is_ok() {
                    mask |= 1 << j;
                }
            }
            (data.label(v.into()), mask)
        })
        .collect();
    got.sort_unstable();

    let order = plan.order();
    let mut want: Vec<(Label, u64)> = query
        .edge(order[pos] as usize)
        .iter()
        .map(|&u| {
            let mut mask = 0u64;
            for (j, &e) in order[..=pos].iter().enumerate() {
                if query.incident_edges(u) & (1 << e) != 0 {
                    mask |= 1 << j;
                }
            }
            (query.label(u), mask)
        })
        .collect();
    want.sort_unstable();

    if got == want {
        Validation::Valid
    } else {
        Validation::WrongProfiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, ExpansionState};
    use crate::config::MatchConfig;
    use crate::plan::{Plan, Planner, LANE_CLASSES};
    use crate::query::QueryGraph;
    use hgmatch_datasets::testgen::{random_arity_hypergraph, random_subquery};
    use hgmatch_hypergraph::{EdgeId, HypergraphBuilder, Label};
    use proptest::prelude::*;

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

    /// Validates data edge `cand` as the extension of `emb` under `plan`,
    /// on a freshly prepared state — with the step's own kernel, which the
    /// counter kernel must agree with.
    fn verdict(data: &Hypergraph, plan: &Plan, emb: &[u32], cand: u32) -> Validation {
        let step = &plan.steps()[emb.len()];
        let mut state = ExpansionState::new();
        state.prepare(data, step, emb);
        let mut scratch = ValidateScratch::new();
        let vertices = data.edge_vertices(EdgeId::new(cand));
        let got = validate_candidate(
            data,
            step,
            emb.len(),
            emb,
            &state,
            cand,
            vertices,
            &mut scratch,
        );
        let by_counters =
            RowKernel::counters(step, &state, &mut scratch).verdict(emb, cand, vertices);
        assert_eq!(by_counters, got, "the counter kernel disagrees on e{cand}");
        got
    }

    #[test]
    fn paper_embeddings_validate() {
        let data = paper_data();
        let plan = Planner::plan_with_order(&paper_query(), &data, vec![0, 1, 2]).unwrap();
        // Final step of the first paper embedding (e0, e2) + e4, and of the
        // second, (e1, e3) + e5.
        assert_eq!(verdict(&data, &plan, &[0, 2], 4), Validation::Valid);
        assert_eq!(verdict(&data, &plan, &[1, 3], 5), Validation::Valid);
    }

    #[test]
    fn cross_embedding_mix_rejected() {
        // (e0, e2) extended with e5 has the wrong incidence structure.
        let data = paper_data();
        let plan = Planner::plan_with_order(&paper_query(), &data, vec![0, 1, 2]).unwrap();
        assert_ne!(verdict(&data, &plan, &[0, 2], 5), Validation::Valid);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let data = paper_data();
        let plan = Planner::plan_with_order(&paper_query(), &data, vec![0, 1, 2]).unwrap();
        assert_eq!(verdict(&data, &plan, &[0], 0), Validation::Duplicate);
    }

    #[test]
    fn vertex_count_check_fires() {
        // Query: the path e0={u0,u1}, e1={u1,u2}, e2={u2,u3}, one label,
        // four vertices. Data: the triangle e0={v0,v1}, e1={v1,v2},
        // e2={v0,v2}. After (e0, e1) the candidate e2 closes the triangle:
        // it touches v2 as the query asks, but its other vertex v0 is
        // already in the embedding where the query wants a new one —
        // 3 data vertices against 4 query vertices.
        let mut d = HypergraphBuilder::new();
        d.add_vertices(3, Label::new(0));
        d.add_edge(vec![0, 1]).unwrap();
        d.add_edge(vec![1, 2]).unwrap();
        d.add_edge(vec![0, 2]).unwrap();
        let data = d.build().unwrap();

        let mut q = HypergraphBuilder::new();
        q.add_vertices(4, Label::new(0));
        q.add_edge(vec![0, 1]).unwrap();
        q.add_edge(vec![1, 2]).unwrap();
        q.add_edge(vec![2, 3]).unwrap();
        let query = QueryGraph::new(&q.build().unwrap()).unwrap();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();

        assert_eq!(
            verdict(&data, &plan, &[0, 1], 2),
            Validation::WrongVertexCount
        );
    }

    #[test]
    fn profile_check_fires_when_counts_agree() {
        // Query: e0={u0,u1}, e1={u1,u2}, e2={u0,u3}, one label — a path
        // with a pendant edge at its *end* vertex u0, four vertices. Data:
        // e0={v0,v1}, e1={v1,v2}, then e2={v1,v3} and e3={v0,v3}. After
        // (e0, e1), so f(u0)=v0, f(u1)=v1, f(u2)=v2, both e2 and e3 bring
        // one new vertex, so both pass the count check; but e2 hangs off
        // v1, which lies in e0 *and* e1, where the query's shared vertex u0
        // lies in e0 only. Only the profile comparison tells them apart.
        let mut d = HypergraphBuilder::new();
        d.add_vertices(4, Label::new(0));
        d.add_edge(vec![0, 1]).unwrap(); // e0
        d.add_edge(vec![1, 2]).unwrap(); // e1
        d.add_edge(vec![1, 3]).unwrap(); // e2: right count, wrong profile
        d.add_edge(vec![0, 3]).unwrap(); // e3: valid
        let data = d.build().unwrap();

        let mut q = HypergraphBuilder::new();
        q.add_vertices(4, Label::new(0));
        q.add_edge(vec![0, 1]).unwrap();
        q.add_edge(vec![1, 2]).unwrap();
        q.add_edge(vec![0, 3]).unwrap();
        let query = QueryGraph::new(&q.build().unwrap()).unwrap();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();

        assert_eq!(verdict(&data, &plan, &[0, 1], 2), Validation::WrongProfiles);
        assert_eq!(verdict(&data, &plan, &[0, 1], 3), Validation::Valid);
    }

    #[test]
    fn counters_do_not_wrap_on_wide_candidates() {
        // A 300-vertex query edge sharing 299 same-label vertices with the
        // first: one class needed 299 times, a count a byte cannot hold.
        // The candidate that shares only 299 - 256 = 43 of them would pass
        // a wrapped counter compare against a wrapped need; both must be
        // exact.
        let n = 300u32;
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2 * n as usize, Label::new(0));
        b.add_edge((0..n - 1).collect()).unwrap(); // e0
        b.add_edge((0..n).collect()).unwrap(); // e1 ⊃ e0: valid
                                               // e2: 43 vertices of e0, the rest outside.
        b.add_edge((0..43).chain(n..2 * n - 43).collect()).unwrap();
        let data = b.build().unwrap();
        assert_eq!(data.edge_vertices(EdgeId::new(2)).len(), n as usize);

        let mut q = HypergraphBuilder::new();
        q.add_vertices(n as usize, Label::new(0));
        q.add_edge((0..n - 1).collect()).unwrap();
        q.add_edge((0..n).collect()).unwrap();
        let query = QueryGraph::new(&q.build().unwrap()).unwrap();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1]).unwrap();
        assert_eq!(plan.steps()[1].anchors[0].need, n - 1);

        for (cand, want) in [
            (1, Validation::Valid),
            (2, Validation::WrongVertexCount),
            (0, Validation::Duplicate),
        ] {
            assert_eq!(verdict(&data, &plan, &[0], cand), want);
            assert_eq!(validate_reference(&data, &query, &plan, &[0], cand), want);
        }
    }

    /// Checks every `(candidate, verdict)` pair with [`verdict`] and the
    /// reference, as extensions of data edge 0 under the order `[0, 1]`.
    fn assert_verdicts(
        data: &Hypergraph,
        query: &QueryGraph,
        plan: &Plan,
        cases: &[(u32, Validation)],
    ) {
        for &(cand, want) in cases {
            assert_eq!(verdict(data, plan, &[0], cand), want, "e{cand}");
            assert_eq!(
                validate_reference(data, query, plan, &[0], cand),
                want,
                "e{cand}"
            );
        }
    }

    #[test]
    fn lanes_hold_six_classes_and_the_no_class_lane() {
        // Query e0 = {u0..u(c-1), x, y}, e1 = {u0..u(c-1), z}: the c shared
        // vertices carry labels 0..c, so step 1 has c classes of need 1,
        // and x, y, z carry label c. Data: e0, e1 (valid), e2 = every class
        // vertex and x — whose lanes match every class, so only the
        // no-class lane (lane 7 at c = 6) rejects it — and e3, which trades
        // the label-0 class vertex for a new label-0 vertex w.
        for c in [LANE_CLASSES as u32, LANE_CLASSES as u32 + 1] {
            let (x, y, z, w) = (c, c + 1, c + 2, c + 3);
            let shared = || (0..c).collect::<Vec<u32>>();
            let first_two = |vertices: u32| {
                let mut b = HypergraphBuilder::new();
                for v in 0..vertices {
                    b.add_vertex(Label::new(if v < c {
                        v
                    } else if v == w {
                        0
                    } else {
                        c
                    }));
                }
                b.add_edge([shared(), vec![x, y]].concat()).unwrap();
                b.add_edge([shared(), vec![z]].concat()).unwrap();
                b
            };
            let query = QueryGraph::new(&first_two(w).build().unwrap()).unwrap();
            let mut b = first_two(w + 1);
            b.add_edge([shared(), vec![x]].concat()).unwrap();
            b.add_edge([(1..c).collect(), vec![x, w]].concat()).unwrap();
            let data = b.build().unwrap();

            let plan = Planner::plan_with_order(&query, &data, vec![0, 1]).unwrap();
            let step = &plan.steps()[1];
            assert_eq!(step.anchors.len(), c as usize);
            assert_eq!(step.need_lanes.is_some(), c as usize <= LANE_CLASSES);
            assert_verdicts(
                &data,
                &query,
                &plan,
                &[
                    (1, Validation::Valid),
                    (2, Validation::WrongVertexCount),
                    (3, Validation::WrongProfiles),
                    (0, Validation::Duplicate),
                ],
            );
        }
    }

    #[test]
    fn lanes_hold_arity_255_and_a_need_of_255() {
        // Query e0 = {u0..un}, e1 = {u0..u(n-1)}, one label: step 1 needs
        // its one class n times, n = 255 fills a lane to the brim. Data:
        // e0, e1 (valid), e2 = e1 with its last vertex swapped for a new
        // one. At n = 256 the step is the counter kernel's.
        for n in [255u32, 256] {
            let first_two = |vertices: u32| {
                let mut b = HypergraphBuilder::new();
                b.add_vertices(vertices as usize, Label::new(0));
                b.add_edge((0..=n).collect()).unwrap();
                b.add_edge((0..n).collect()).unwrap();
                b
            };
            let query = QueryGraph::new(&first_two(n + 1).build().unwrap()).unwrap();
            let mut b = first_two(n + 2);
            b.add_edge((0..n - 1).chain([n + 1]).collect()).unwrap();
            let data = b.build().unwrap();

            let plan = Planner::plan_with_order(&query, &data, vec![0, 1]).unwrap();
            let step = &plan.steps()[1];
            assert_eq!((step.arity, step.anchors[0].need), (n, n));
            assert_eq!(step.need_lanes, (n < 256).then_some(u64::from(n) << 8));
            assert_verdicts(
                &data,
                &query,
                &plan,
                &[
                    (1, Validation::Valid),
                    (2, Validation::WrongVertexCount),
                    (0, Validation::Duplicate),
                ],
            );
        }
    }

    /// All permutations of `0..k`.
    fn all_orders(k: u32) -> Vec<Vec<u32>> {
        let mut orders: Vec<Vec<u32>> = vec![Vec::new()];
        for _ in 0..k {
            let mut longer = Vec::new();
            for prefix in &orders {
                for e in (0..k).filter(|e| !prefix.contains(e)) {
                    longer.push(prefix.iter().copied().chain([e]).collect());
                }
            }
            orders = longer;
        }
        orders
    }

    /// Rows [`walk`] checked on lane-eligible steps, and on steps only the
    /// counter kernel can validate.
    #[derive(Debug, Default)]
    struct KernelRows {
        lanes: u64,
        counters_only: u64,
    }

    /// Walks every partial embedding of `plan` depth first — extensions
    /// chosen by the reference oracle over the *whole* partition, so the
    /// walk owes nothing to generation — and at every one checks, on a
    /// single reused state:
    ///
    /// * each partition row gets the reference's verdict, variant for
    ///   variant, from the step's own kernel (lanes where the step has a
    ///   need word) and from the counter kernel;
    /// * [`validate_block`] keeps exactly the rows the reference accepts
    ///   and counts its `filtered` split;
    /// * generation keeps every row the reference accepts.
    ///
    /// Returns the number of complete embeddings.
    fn walk(
        data: &Hypergraph,
        query: &QueryGraph,
        plan: &Plan,
        emb: &mut Vec<u32>,
        state: &mut ExpansionState,
        scratch: &mut ValidateScratch,
        rows: &mut KernelRows,
    ) -> Result<u64, TestCaseError> {
        let pos = emb.len();
        if pos == plan.len() {
            return Ok(1);
        }
        let step = &plan.steps()[pos];
        let Some(pid) = step.partition else {
            return Ok(0);
        };
        let partition = data.partition(pid);
        state.prepare(data, step, emb);
        generate_candidates(data, step, emb, state, &MatchConfig::sequential());
        let generated = state.candidates.clone();

        let mut valid = Vec::new();
        let mut filtered = 0;
        for (row, vertices) in partition.iter_rows() {
            let global = partition.global_id(row).raw();
            let want = if pos == 0 {
                Validation::Valid // scan rows: signature equality is the whole test
            } else {
                validate_reference(data, query, plan, emb, global)
            };
            if pos > 0 {
                let got =
                    validate_candidate(data, step, pos, emb, state, global, vertices, scratch);
                let by_counters =
                    RowKernel::counters(step, state, scratch).verdict(emb, global, vertices);
                for (kernel, got) in [("step's", got), ("counter", by_counters)] {
                    prop_assert_eq!(
                        got,
                        want,
                        "{} kernel, order {:?} emb {:?} candidate {}",
                        kernel,
                        plan.order(),
                        emb,
                        global
                    );
                }
                match step.need_lanes {
                    Some(_) => rows.lanes += 1,
                    None => rows.counters_only += 1,
                }
                filtered += u64::from(matches!(
                    want,
                    Validation::Valid | Validation::WrongProfiles
                ));
            }
            if want == Validation::Valid {
                prop_assert!(
                    generated.binary_search(&row).is_ok(),
                    "order {:?} emb {:?}: generation dropped valid row {}",
                    plan.order(),
                    emb,
                    row
                );
                valid.push(global);
            }
        }
        if pos > 0 {
            // The block over the whole partition, after a stale prefix
            // that it must keep.
            let all_rows: Vec<u32> = (0..partition.len() as u32).collect();
            let mut block = vec![u32::MAX];
            let counts =
                validate_block(step, state, scratch, partition, emb, &all_rows, &mut block);
            prop_assert_eq!(counts, (valid.len() as u64, filtered));
            prop_assert_eq!(&block[1..], &valid[..]);
            prop_assert_eq!(block[0], u32::MAX);
        }

        let mut total = 0;
        for global in valid {
            emb.push(global);
            total += walk(data, query, plan, emb, state, scratch, rows)?;
            emb.pop();
        }
        Ok(total)
    }

    /// [`walk`]s every order of a `k`-edge query planted in a random
    /// hypergraph of `nv` vertices over `labels` labels and `ne` edges of
    /// arity `2..=max_arity`, and checks that all orders count the same
    /// embeddings.
    fn check_case(
        seed: u64,
        (nv, ne, labels, max_arity): (usize, usize, u32, usize),
        k: usize,
        rows: &mut KernelRows,
    ) -> Result<(), TestCaseError> {
        let data = random_arity_hypergraph(seed, nv, ne, labels, 2, max_arity);
        let Some(query) = random_subquery(&data, seed ^ 0x5EED, k) else {
            return Ok(()); // dead-end walk: nothing to check
        };
        let query = QueryGraph::new(&query).unwrap();
        let mut state = ExpansionState::new();
        let mut scratch = ValidateScratch::new();
        let mut counts = Vec::new();
        for order in all_orders(k as u32) {
            let plan = Planner::plan_with_order(&query, &data, order).unwrap();
            counts.push(walk(
                &data,
                &query,
                &plan,
                &mut Vec::new(),
                &mut state,
                &mut scratch,
                rows,
            )?);
        }
        prop_assert!(counts[0] >= 1, "the planted embedding is found");
        prop_assert!(
            counts.iter().all(|&c| c == counts[0]),
            "counts per order: {:?}",
            counts
        );
        Ok(())
    }

    /// Both row kernels meet the reference on the steps only one of them
    /// serves: wide edges over many labels give steps of more than
    /// [`LANE_CLASSES`] classes, which the proptest's random cases reach
    /// only sometimes; this sweep requires rows on both kinds of step.
    #[test]
    fn both_row_kernels_agree_with_the_reference_on_wide_steps() {
        let mut rows = KernelRows::default();
        for seed in 0..64u64 {
            check_case(seed, (11, 24, 9, 10), 3, &mut rows).unwrap();
            if rows.lanes > 0 && rows.counters_only > 0 {
                return;
            }
        }
        panic!("64 seeds did not reach both kernels: {rows:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Class counting is Algorithm 5: on random labelled hypergraphs,
        /// planted queries and *every* matching order (disconnected ones
        /// included), each `(step, partial embedding, partition row)` gets
        /// the reference's verdict from both row kernels and the block, the
        /// `Duplicate` / `WrongVertexCount` / `WrongProfiles` split
        /// included; and all orders count the same embeddings. Wide edges
        /// over many labels reach steps of more than [`LANE_CLASSES`]
        /// classes.
        #[test]
        fn class_counting_agrees_with_the_reference(
            seed in 0u64..1u64 << 48,
            nv in 6usize..14,
            ne in 8usize..36,
            labels in 1u32..12,
            max_arity in 4usize..10,
            k in 2usize..5,
        ) {
            check_case(seed, (nv, ne, labels, max_arity), k, &mut KernelRows::default())?;
        }
    }
}
