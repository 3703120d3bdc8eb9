//! Candidate hyperedge generation — the paper's Algorithm 4.
//!
//! Given a partial embedding `m` and the next query hyperedge `eq`, the
//! candidates are data hyperedges that
//!
//! * live in the partition with signature `S(eq)` (Observation V.1),
//! * are incident, for every *profile class* of the step — a distinct
//!   `(label, earlier incident edges)` profile among the query vertices
//!   `eq` shares with the edges matched before it
//!   ([`crate::plan::Anchor`]) — to at least one *member* of the class: a
//!   vertex of `V(m)` with that label lying in exactly those matched edges
//!   (Observations V.2 and V.4, with the degree test sharpened to the exact
//!   edge set).
//!
//! As in the paper, rows touching a vertex matched by a non-adjacent query
//! edge (`V_n_incdt`, Observation V.3) are not subtracted here: validation
//! rejects them, since such a vertex is in no class.
//!
//! [`ExpansionState::prepare`] writes every vertex of `V(m)` its class code
//! into one dense byte table; generation reads members off it and
//! validation ([`crate::validate`]) counts a candidate's vertices by it
//! (DESIGN.md §6.5).
//!
//! Everything else is posting-list algebra: per class a *union* of `he(v,
//! S(eq))` lists, then an *intersection* across classes. Each union picks
//! the cheaper of two representations per class (DESIGN.md §5.5): the
//! k-way sorted-list merge of [`setops::union_many_into`], or a [`Bitmap`]
//! accumulator over the partition's row space when the postings are dense
//! (hub vertices carry precomputed bitmaps in the inverted index, OR-ing 64
//! rows per instruction).

use hgmatch_hypergraph::bitmap::Bitmap;
use hgmatch_hypergraph::hypergraph::Hypergraph;
use hgmatch_hypergraph::setops;
use hgmatch_hypergraph::Partition;

use crate::config::MatchConfig;
use crate::plan::Step;

use hgmatch_hypergraph::inverted::{Posting, MIN_BITMAP_ROWS};

/// The bitmap accumulator is chosen when the postings to union hold at
/// least `rows / LIST_DENSITY_DIV` entries (or any of them already has a
/// precomputed bitmap).
const LIST_DENSITY_DIV: usize = 16;

/// Candidate rows emitted between `abort()` probes of the anchor-less
/// scan. The expansion loop probes every `ABORT_PROBE` *validated*
/// candidates, but a disconnected step materialises the whole partition
/// in one call, so the scan probes at least once per this many rows.
/// Matches the expansion loop's cadence (`engine::task::ABORT_PROBE`),
/// keeping the worst-case candidate budget between probes bounded by the
/// same constant.
const GEN_ABORT_PROBE: usize = 1024;

/// One distinct vertex of the partial embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MVertex {
    /// The data vertex id.
    pub v: u32,
    /// `d_Hm(v)`: its degree within the partial embedding.
    pub degree: u32,
    /// Bit `j` set ⇔ the edge at matching-order position `j` contains `v`:
    /// the data-side half of a vertex profile (Definition V.3), which
    /// [`ExpansionState::prepare`] turns into the vertex's class code.
    pub mask: u64,
}

/// The sorted vertex multiset of one embedding prefix.
#[derive(Debug, Default, Clone)]
struct Level {
    /// The data edge matched at this position (cache key).
    edge: u32,
    /// Distinct vertices of the prefix `emb[..=pos]`, sorted by id.
    m: Vec<MVertex>,
}

/// Per-expansion state shared between candidate generation and validation.
///
/// The vertex multiset is maintained as a *stack of levels*, one per
/// embedding prefix: preparing for an embedding that extends (or shares a
/// prefix with) the previously prepared one only merges the new edges'
/// vertices instead of re-sorting the whole embedding — under the engines'
/// depth-first order almost every preparation is a single `O(|V(m)|)` merge
/// (DESIGN.md §6.3). On top of the stack sits the *class-code table*
/// (DESIGN.md §6.5): one byte per data vertex saying which profile class of
/// the prepared step the vertex is a member of.
#[derive(Debug, Default)]
pub struct ExpansionState {
    /// Multiset stack; `levels[p]` covers `emb[..=p]`.
    levels: Vec<Level>,
    /// Levels currently valid (the stack is reused, not truncated).
    depth: usize,
    /// [`Hypergraph::uid`] the cached levels were built against (0 = none).
    /// Level reuse compares global edge ids, which are only meaningful
    /// within one snapshot — the serving pool's per-worker scratch outlives
    /// queries pinned to *different* epochs, whose compaction may have
    /// remapped ids, so a uid change must drop the cache.
    data_uid: u64,
    /// Class code per data vertex for the prepared `(step, emb)`:
    /// [`CODE_ABSENT`] outside `V(m)`, `i + 1` for a member of
    /// `step.anchors[i]`, `step.anchors.len() + 1` for a vertex of `V(m)` in
    /// no class (a valid candidate contains none). Non-zero exactly at
    /// [`ExpansionState::vertices`]: `prepare` zeroes the entries of the
    /// level it leaves and never the whole table. Sized to the snapshot's
    /// vertex count on first use and whenever that count changes.
    codes: Vec<u8>,
    /// Sorted vertices matched by non-adjacent previous edges
    /// (`V_n_incdt` of Algorithm 4 line 1). Rebuilt per preparation.
    /// Generation does not read it; the layer-replay tool in `benchmark/`
    /// does, and ROADMAP 5(c) removes it with that tool.
    pub non_incident: Vec<u32>,
    /// Output: candidate local rows in the step's partition.
    pub candidates: Vec<u32>,
    // Scratch buffers (allocated once, reused across expansions).
    union: Vec<u32>,
    tmp: Vec<u32>,
    mw: setops::MultiwayScratch,
    acc_bits: Bitmap,
    anchor_bits: Bitmap,
    /// The allocations behind generation's per-class posting and slice
    /// lists, parked empty between calls (their elements borrow from the
    /// snapshot of the call; see [`recycle`]).
    postings: Vec<Posting<'static>>,
    lists: Vec<&'static [u32]>,
}

static EMPTY_LEVEL: &[MVertex] = &[];

/// Table code of a data vertex outside the partial embedding.
pub(crate) const CODE_ABSENT: u8 = 0;

impl ExpansionState {
    /// Creates empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current embedding's distinct vertices, sorted by id.
    #[inline]
    pub fn vertices(&self) -> &[MVertex] {
        top_level(&self.levels, self.depth)
    }

    /// Looks up the [`MVertex`] entry of `v`, if it is in the embedding.
    #[inline]
    pub fn vertex_entry(&self, v: u32) -> Option<&MVertex> {
        let m = self.vertices();
        match m.binary_search_by_key(&v, |e| e.v) {
            Ok(i) => Some(&m[i]),
            Err(_) => None,
        }
    }

    /// `d_Hm(v)`: degree of data vertex `v` within the partial embedding.
    #[inline]
    pub fn embedding_degree(&self, v: u32) -> u32 {
        self.vertex_entry(v).map_or(0, |e| e.degree)
    }

    /// Whether `v` already occurs in the partial embedding.
    #[inline]
    pub fn contains_vertex(&self, v: u32) -> bool {
        self.vertex_entry(v).is_some()
    }

    /// `|V(Hm)|`: distinct vertices in the partial embedding.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices().len()
    }

    /// The class-code table of the prepared `(step, emb)`, indexed by data
    /// vertex id.
    #[inline]
    pub(crate) fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Rebuilds the state for the partial embedding `emb` (global edge ids,
    /// matching-order positions) at `step`.
    ///
    /// Levels shared with the previously prepared embedding are reused; only
    /// positions where `emb` diverges are (re)built, each by one linear
    /// merge of the new edge's vertices into the previous level. The code
    /// table is rewritten for `step` on every call (the same embedding
    /// under another step, or another plan version, has other classes).
    pub fn prepare(&mut self, data: &Hypergraph, step: &Step, emb: &[u32]) {
        // Un-write the codes of the level being left while it still says
        // which entries they are (the table is as long as the snapshot
        // that level was built against has vertices).
        for e in top_level(&self.levels, self.depth) {
            self.codes[e.v as usize] = CODE_ABSENT;
        }
        if self.codes.len() != data.num_vertices() {
            self.codes.resize(data.num_vertices(), CODE_ABSENT);
        }
        // Cached levels describe edge ids of the snapshot they were built
        // against; against any other snapshot (even an equal-content one)
        // the ids may denote different edges, so the cache is dropped.
        if self.data_uid != data.uid() {
            self.data_uid = data.uid();
            self.depth = 0;
        }
        // Longest prefix of valid levels matching `emb`.
        let mut keep = 0usize;
        while keep < self.depth && keep < emb.len() && self.levels[keep].edge == emb[keep] {
            keep += 1;
        }
        for pos in keep..emb.len() {
            // Split `levels` so we can read level `pos-1` while writing
            // level `pos`.
            if self.levels.len() == pos {
                self.levels.push(Level::default());
            }
            let (prev, rest) = self.levels.split_at_mut(pos);
            let prev_m: &[MVertex] = if pos == 0 {
                EMPTY_LEVEL
            } else {
                &prev[pos - 1].m
            };
            let level = &mut rest[0];
            level.edge = emb[pos];
            merge_edge(
                prev_m,
                data.edge_vertices(emb[pos].into()),
                1u64 << pos,
                &mut level.m,
            );
        }
        self.depth = emb.len();

        let no_class = step.anchors.len() as u8 + 1;
        for e in top_level(&self.levels, self.depth) {
            let label = data.label(e.v.into());
            self.codes[e.v as usize] = step
                .anchors
                .binary_search_by_key(&(label, e.mask), |a| (a.label, a.prev_mask))
                .map_or(no_class, |class| class as u8 + 1);
        }

        self.non_incident.clear();
        for &pos in &step.nonadjacent_prev {
            self.non_incident
                .extend_from_slice(data.edge_vertices(emb[pos as usize].into()));
        }
        self.non_incident.sort_unstable();
        self.non_incident.dedup();
    }
}

/// The level covering the whole prepared embedding (free-standing so
/// `prepare` can walk it while writing the code table).
#[inline]
fn top_level(levels: &[Level], depth: usize) -> &[MVertex] {
    match depth.checked_sub(1) {
        Some(top) => &levels[top].m,
        None => EMPTY_LEVEL,
    }
}

/// Merges a sorted edge-vertex list into a sorted multiset level:
/// `out = prev ⊎ vs`, tagging merged-in vertices with `bit`.
fn merge_edge(prev: &[MVertex], vs: &[u32], bit: u64, out: &mut Vec<MVertex>) {
    out.clear();
    out.reserve(prev.len() + vs.len());
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < vs.len() {
        let e = prev[i];
        match e.v.cmp(&vs[j]) {
            std::cmp::Ordering::Less => {
                out.push(e);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(MVertex {
                    v: vs[j],
                    degree: 1,
                    mask: bit,
                });
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(MVertex {
                    v: e.v,
                    degree: e.degree + 1,
                    mask: e.mask | bit,
                });
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&prev[i..]);
    out.extend(vs[j..].iter().map(|&v| MVertex {
        v,
        degree: 1,
        mask: bit,
    }));
}

/// Runs Algorithm 4: fills `state.candidates` with the local rows of the
/// step's partition that may extend `emb`. Returns the number of candidates.
///
/// [`ExpansionState::prepare`] must have been called for the same
/// `(step, emb)` first. `_config` is unread; ROADMAP 5(c) removes it with
/// the layer-replay tool in `benchmark/`, its last outside caller.
pub fn generate_candidates(
    data: &Hypergraph,
    step: &Step,
    emb: &[u32],
    state: &mut ExpansionState,
    _config: &MatchConfig,
) -> usize {
    generate_candidates_with_abort(data, step, emb, state, _config, &mut || false)
        .expect("a never-firing abort cannot interrupt generation")
}

/// [`generate_candidates`] with a cooperative stop signal: `abort` is
/// polled at class boundaries, per posting of a bitmap union, and every
/// `GEN_ABORT_PROBE` rows of the class-less partition scan, so a
/// cancel/timeout lands within a bounded candidate budget. Returns `None`
/// when aborted mid-generation — `state.candidates` then holds partial
/// garbage and the caller must emit nothing.
///
/// Once the state's buffers have grown to the workload, a call allocates
/// nothing (DESIGN.md §6; `tests/alloc_free.rs` counts). `_config` is
/// unread, as in [`generate_candidates`].
pub fn generate_candidates_with_abort(
    data: &Hypergraph,
    step: &Step,
    emb: &[u32],
    state: &mut ExpansionState,
    _config: &MatchConfig,
    abort: &mut dyn FnMut() -> bool,
) -> Option<usize> {
    let mut postings = std::mem::take(&mut state.postings);
    let produced = generate_into(data, step, emb, state, abort, &mut postings);
    state.postings = recycle(postings);
    produced
}

/// Empties `v` and hands its allocation back as a vec of `U` — used with
/// `T` and `U` the same type up to a lifetime, where collecting a
/// `vec::IntoIter` reuses the buffer in place. That reuse is the standard
/// library's implementation, not its contract: without it this allocates
/// afresh and stays correct, and `tests/alloc_free.rs` notices.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| -> U { unreachable!("the vec was just cleared") })
        .collect()
}

/// The body of [`generate_candidates_with_abort`], with the per-class
/// posting list borrowed from the caller so every exit leaves its
/// allocation behind.
fn generate_into<'d>(
    data: &'d Hypergraph,
    step: &Step,
    emb: &[u32],
    state: &mut ExpansionState,
    abort: &mut dyn FnMut() -> bool,
    postings: &mut Vec<Posting<'d>>,
) -> Option<usize> {
    state.candidates.clear();
    let Some(pid) = step.partition else {
        return Some(0); // signature absent from the data: no candidates
    };
    let partition = data.partition(pid);
    let rows = partition.len();

    if step.anchors.is_empty() {
        // Disconnected step (or an explicitly disconnected order): every row
        // of the partition is a candidate; validation sorts out the rest.
        // Chunked so a huge partition cannot pin the worker past a stop.
        let mut row = 0u32;
        while (row as usize) < rows {
            if abort() {
                return None;
            }
            let end = ((row as usize + GEN_ABORT_PROBE).min(rows)) as u32;
            state.candidates.extend(row..end);
            row = end;
        }
    }

    // Whether the running intersection is `state.acc_bits` (dense) instead
    // of the sorted list `state.candidates`.
    let mut use_bits = false;
    for (class, code) in step.anchors.iter().zip(1u8..) {
        // Class boundary: every set operation below is bounded by the
        // operand sizes this probe guards.
        if abort() {
            return None;
        }
        // The class's members all lie in the edge matched at its lowest
        // position; the code table says which of that edge's vertices they
        // are.
        postings.clear();
        let members = data
            .edge_vertices(emb[class.prev_pos as usize].into())
            .iter()
            .filter(|&&v| state.codes[v as usize] == code);
        let (total, have_bits) = collect_postings(partition, members, postings);
        // A valid candidate contains `need` members, each listing it.
        if postings.len() < class.need as usize {
            state.candidates.clear();
            return Some(0);
        }

        // Representation switch (DESIGN.md §5.5): a bitmap accumulator
        // when the postings are dense in the row space, the k-way list
        // merge otherwise.
        let dense = is_dense(rows, total, have_bits);

        if code == 1 {
            if dense {
                use_bits = true;
                if union_postings_into_bitmap(postings, rows, &mut state.acc_bits, abort) {
                    return None;
                }
            } else {
                union_postings_into_list(
                    postings,
                    &mut state.lists,
                    &mut state.candidates,
                    &mut state.mw,
                );
            }
            continue;
        }

        if use_bits {
            // C' ∩ next class union, word-wise.
            if union_postings_into_bitmap(postings, rows, &mut state.anchor_bits, abort) {
                return None;
            }
            state.acc_bits.intersect_assign(&state.anchor_bits);
            if state.acc_bits.is_empty() {
                return Some(0);
            }
            continue;
        }
        if dense {
            // Sorted-list accumulator filtered through the class's
            // bitmap union: O(|C'|) membership tests, no materialised
            // union.
            if union_postings_into_bitmap(postings, rows, &mut state.anchor_bits, abort) {
                return None;
            }
            state
                .anchor_bits
                .filter_list_into(&state.candidates, &mut state.tmp);
        } else {
            union_postings_into_list(postings, &mut state.lists, &mut state.union, &mut state.mw);
            setops::intersect_into(&state.candidates, &state.union, &mut state.tmp);
        }
        std::mem::swap(&mut state.candidates, &mut state.tmp);
        if state.candidates.is_empty() {
            return Some(0);
        }
    }

    if use_bits {
        if abort() {
            return None;
        }
        // Decode the surviving rows.
        state
            .candidates
            .reserve(state.acc_bits.count_ones() as usize);
        state.acc_bits.extract_into(&mut state.candidates);
    }
    Some(state.candidates.len())
}

/// Whether a union of postings holding `total` entries over a partition of
/// `rows` rows goes through a bitmap accumulator (DESIGN.md §5.5).
fn is_dense(rows: usize, total: usize, have_bits: bool) -> bool {
    rows >= MIN_BITMAP_ROWS && (have_bits || total * LIST_DENSITY_DIV >= rows)
}

/// Pushes the non-empty postings of `vertices` in `partition` onto
/// `postings`; returns their total length and whether any carries a
/// precomputed bitmap.
fn collect_postings<'d, 'v>(
    partition: &'d Partition,
    vertices: impl IntoIterator<Item = &'v u32>,
    postings: &mut Vec<Posting<'d>>,
) -> (usize, bool) {
    let mut total = 0usize;
    let mut have_bits = false;
    for &v in vertices {
        let posting = partition.incident_posting(v);
        if posting.is_empty() {
            continue;
        }
        total += posting.len();
        have_bits |= posting.bits().is_some();
        postings.push(posting);
    }
    (total, have_bits)
}

/// Unions `postings` as sorted lists into `out` (cleared first) by the
/// k-way merge; `lists` lends the allocation for the slice list.
fn union_postings_into_list(
    postings: &[Posting<'_>],
    lists: &mut Vec<&'static [u32]>,
    out: &mut Vec<u32>,
    mw: &mut setops::MultiwayScratch,
) {
    let mut slices: Vec<&[u32]> = std::mem::take(lists);
    slices.extend(postings.iter().map(Posting::list));
    setops::union_many_into(&mut slices, out, mw);
    *lists = recycle(slices);
}

/// Unions postings of either representation into `acc`, reset to the
/// partition's row domain first: precomputed bitmaps word-wise OR, sorted
/// lists as bit sets. Probes `abort` per posting; returns `true` when
/// aborted mid-union (`acc` is then partial garbage).
fn union_postings_into_bitmap(
    postings: &[Posting<'_>],
    rows: usize,
    acc: &mut Bitmap,
    abort: &mut dyn FnMut() -> bool,
) -> bool {
    acc.reset(rows as u32);
    for p in postings {
        if abort() {
            return true;
        }
        match p.bits() {
            Some(bits) => acc.union_assign(bits),
            None => acc.insert_list(p.list()),
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::query::QueryGraph;
    use hgmatch_hypergraph::{HypergraphBuilder, Label};

    fn paper_data() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![2, 4]).unwrap(); // e0 (paper e1)
        b.add_edge(vec![4, 6]).unwrap(); // e1 (paper e2)
        b.add_edge(vec![0, 1, 2]).unwrap(); // e2 (paper e3)
        b.add_edge(vec![3, 5, 6]).unwrap(); // e3 (paper e4)
        b.add_edge(vec![0, 1, 4, 6]).unwrap(); // e4 (paper e5)
        b.add_edge(vec![2, 3, 4, 5]).unwrap(); // e5 (paper e6)
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
    fn paper_example_v1() {
        // Example V.1: ϕ = (q0, q1, q2), m = (e1, e3) in paper ids —
        // (e0, e2) in ours. Candidates for q2 must be {e5 (paper)} = row of
        // our e4 in its partition.
        let data = paper_data();
        let query = paper_query();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
        let step = &plan.steps()[2];
        let emb = [0u32, 2]; // our e0 (paper e1), e2 (paper e3)

        let mut state = ExpansionState::new();
        state.prepare(&data, step, &emb);
        let n = generate_candidates(&data, step, &emb, &mut state, &MatchConfig::default());
        assert_eq!(n, 1);
        let partition = data.partition(step.partition.unwrap());
        let globals: Vec<u32> = state
            .candidates
            .iter()
            .map(|&r| partition.global_id(r).raw())
            .collect();
        assert_eq!(globals, vec![4]); // paper e5
    }

    #[test]
    fn prepare_builds_embedding_degrees() {
        let data = paper_data();
        let query = paper_query();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
        let mut state = ExpansionState::new();
        state.prepare(&data, &plan.steps()[2], &[0, 2]);
        // m = {e0 {2,4}, e2 {0,1,2}} → v2 appears twice.
        assert_eq!(state.embedding_degree(2), 2);
        assert_eq!(state.embedding_degree(0), 1);
        assert_eq!(state.embedding_degree(4), 1);
        assert_eq!(state.embedding_degree(9), 0);
        assert_eq!(state.num_vertices(), 4);
        assert!(state.contains_vertex(4));
        assert!(!state.contains_vertex(6));
    }

    #[test]
    fn prepare_builds_membership_masks() {
        let data = paper_data();
        let query = paper_query();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
        let mut state = ExpansionState::new();
        state.prepare(&data, &plan.steps()[2], &[0, 2]);
        // v2 ∈ e0 (position 0) and e2 (position 1); v4 ∈ e0 only; v0 ∈ e2.
        assert_eq!(state.vertex_entry(2).unwrap().mask, 0b11);
        assert_eq!(state.vertex_entry(4).unwrap().mask, 0b01);
        assert_eq!(state.vertex_entry(0).unwrap().mask, 0b10);
        assert!(state.vertex_entry(6).is_none());
    }

    /// Prepares `reused` for `(step, emb)` and checks everything a caller
    /// can observe of it against a state that has never seen anything
    /// else: the level, the code table (all of it — a stale entry anywhere
    /// is a wrong verdict waiting for its vertex), the candidates and the
    /// verdict on every row of the partition.
    fn assert_agrees_with_fresh(
        reused: &mut ExpansionState,
        data: &Hypergraph,
        step: &Step,
        emb: &[u32],
    ) {
        use crate::validate::{validate_candidate, ValidateScratch};

        let mut fresh = ExpansionState::new();
        fresh.prepare(data, step, emb);
        reused.prepare(data, step, emb);
        assert_eq!(reused.vertices(), fresh.vertices(), "emb {emb:?}");
        assert_eq!(reused.non_incident, fresh.non_incident, "emb {emb:?}");
        assert_eq!(reused.codes(), fresh.codes(), "emb {emb:?}");
        assert_eq!(reused.codes().len(), data.num_vertices());
        let coded = reused.codes().iter().filter(|&&c| c != CODE_ABSENT).count();
        assert_eq!(coded, reused.num_vertices(), "codes live exactly on V(m)");

        let config = MatchConfig::default();
        generate_candidates(data, step, emb, &mut fresh, &config);
        generate_candidates(data, step, emb, reused, &config);
        assert_eq!(reused.candidates, fresh.candidates, "emb {emb:?}");

        let Some(pid) = step.partition else { return };
        let partition = data.partition(pid);
        let mut scratch = ValidateScratch::new();
        for (row, vertices) in partition.iter_rows() {
            let global = partition.global_id(row).raw();
            let mut verdict = |state: &ExpansionState| {
                validate_candidate(
                    data,
                    step,
                    emb.len(),
                    emb,
                    state,
                    global,
                    vertices,
                    &mut scratch,
                )
            };
            assert_eq!(verdict(reused), verdict(&fresh), "emb {emb:?} row {row}");
        }
    }

    #[test]
    fn prepare_is_incremental_across_prefixes() {
        // Preparing a sibling after a deep descent must still be correct:
        // the level stack rebuilds only from the divergence point, and the
        // code table forgets exactly the level it leaves.
        let data = paper_data();
        let query = paper_query();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
        let mut reused = ExpansionState::new();

        let sequences: Vec<Vec<u32>> = vec![
            vec![0],
            vec![0, 2],
            vec![0, 2], // same again
            vec![0, 3], // sibling at depth 1
            vec![1, 3], // diverges at depth 0
            vec![1],    // shrink
            vec![],     // all the way up: the scan step
            vec![1, 3], // regrow
        ];
        for emb in &sequences {
            let step = &plan.steps()[emb.len()];
            assert_agrees_with_fresh(&mut reused, &data, step, emb);
        }
    }

    #[test]
    fn prepare_rewrites_codes_for_another_plan_version() {
        // A serving worker's scratch runs tasks of many queries, so it can
        // see the same embedding prefix under another plan: the levels are
        // reused as they are, but the step — and with it every class code —
        // is another one. Orders (q0, q1, q2) and (q0, q2, q1) share
        // position 0 and differ at position 1.
        let data = paper_data();
        let query = paper_query();
        let v0 = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
        let v1 = Planner::plan_with_order(&query, &data, vec![0, 2, 1]).unwrap();
        assert_ne!(v0.steps()[1].anchors, v1.steps()[1].anchors);

        let mut reused = ExpansionState::new();
        for emb in [[0u32], [1]] {
            for plan in [&v0, &v1, &v0] {
                assert_agrees_with_fresh(&mut reused, &data, &plan.steps()[1], &emb);
            }
        }
        // And deeper, where the two versions have matched different edges.
        assert_agrees_with_fresh(&mut reused, &data, &v0.steps()[2], &[0, 2]);
        assert_agrees_with_fresh(&mut reused, &data, &v1.steps()[2], &[0, 4]);
        assert_agrees_with_fresh(&mut reused, &data, &v0.steps()[2], &[1, 3]);
    }

    #[test]
    fn prepare_drops_cache_across_snapshots() {
        // The same global edge id denotes *different* edges in different
        // snapshots (the dynamic writer's compaction remaps ids), and the
        // serving pool reuses one scratch across queries pinned to
        // different epochs: reusing a state against a second graph must
        // rebuild the level cache even though the edge-id prefix matches,
        // and must carry no code over — also when the second graph has
        // more vertices than the table was sized for, or fewer.
        let data_a = paper_data();
        let variant = |extra_vertices: usize| {
            let mut b = HypergraphBuilder::new();
            for &l in &[0u32, 2, 0, 0, 1, 2, 0] {
                b.add_vertex(Label::new(l));
            }
            b.add_vertices(extra_vertices, Label::new(0));
            b.add_edge(vec![0, 4]).unwrap(); // e0: same {A,B} signature as
                                             // data_a's e0 {2,4}, different set
            b.add_edge(vec![4, 6]).unwrap();
            b.add_edge(vec![0, 1, 2]).unwrap();
            b.add_edge(vec![3, 5, 6]).unwrap();
            b.add_edge(vec![0, 1, 4, 6]).unwrap();
            b.add_edge(vec![2, 3, 4, 5]).unwrap();
            b.build().unwrap()
        };
        let data_b = variant(0);
        let data_big = variant(5);
        assert!(data_big.num_vertices() > data_a.num_vertices());

        let query = paper_query();
        let plan_a = Planner::plan_with_order(&query, &data_a, vec![0, 1, 2]).unwrap();
        let plan_b = Planner::plan_with_order(&query, &data_b, vec![0, 1, 2]).unwrap();
        let plan_big = Planner::plan_with_order(&query, &data_big, vec![0, 1, 2]).unwrap();

        let mut reused = ExpansionState::new();
        reused.prepare(&data_a, &plan_a.steps()[1], &[0]);
        assert!(reused.contains_vertex(2), "data_a's e0 is {{2,4}}");
        assert_agrees_with_fresh(&mut reused, &data_b, &plan_b.steps()[1], &[0]);
        assert!(!reused.contains_vertex(2), "data_b's e0 is {{0,4}}");

        // Grow, shrink, and grow again mid-descent.
        assert_agrees_with_fresh(&mut reused, &data_big, &plan_big.steps()[2], &[0, 2]);
        assert_agrees_with_fresh(&mut reused, &data_a, &plan_a.steps()[2], &[0, 2]);
        assert_agrees_with_fresh(&mut reused, &data_big, &plan_big.steps()[1], &[1]);
        assert_agrees_with_fresh(&mut reused, &data_a, &plan_a.steps()[0], &[]);
    }

    #[test]
    fn second_step_candidates() {
        // After matching q0 → e0 {v2,v4}, candidates for q1 {A,A,C} must be
        // incident to v2 (the A vertex of e0, the one member of the step's
        // one class): only e2 {0,1,2} qualifies (e3 does not touch v2).
        let data = paper_data();
        let query = paper_query();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
        let step = &plan.steps()[1];
        let emb = [0u32];
        let mut state = ExpansionState::new();
        state.prepare(&data, step, &emb);
        let n = generate_candidates(&data, step, &emb, &mut state, &MatchConfig::default());
        let partition = data.partition(step.partition.unwrap());
        let globals: Vec<u32> = state
            .candidates
            .iter()
            .map(|&r| partition.global_id(r).raw())
            .collect();
        assert_eq!(n, 1);
        assert_eq!(globals, vec![2]);
    }

    #[test]
    fn missing_partition_yields_nothing() {
        let data = paper_data();
        // Query with a signature {B,B} absent from the data.
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(1));
        b.add_edge(vec![0, 1]).unwrap();
        let q = QueryGraph::new(&b.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        assert!(plan.is_infeasible());
        let mut state = ExpansionState::new();
        state.prepare(&data, &plan.steps()[0], &[]);
        let n = generate_candidates(
            &data,
            &plan.steps()[0],
            &[],
            &mut state,
            &MatchConfig::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn second_embedding_path_found() {
        // The paper's second embedding is (e2, e4, e6) in its 1-indexed ids
        // = our (e1, e3, e5). Walk it step by step: q0 → e1 {v4,v6}, then
        // q1 {A,A,C} must pick e3 {3,5,6} (v6 anchors it; v3/v6 degree
        // filtering rules out e2), then q2 must pick exactly e5.
        let data = paper_data();
        let query = paper_query();
        let plan = Planner::plan_with_order(&query, &data, vec![0, 1, 2]).unwrap();
        let mut state = ExpansionState::new();

        let step1 = &plan.steps()[1];
        let emb1 = [1u32];
        state.prepare(&data, step1, &emb1);
        let n = generate_candidates(&data, step1, &emb1, &mut state, &MatchConfig::default());
        let partition = data.partition(step1.partition.unwrap());
        let globals: Vec<u32> = state
            .candidates
            .iter()
            .map(|&r| partition.global_id(r).raw())
            .collect();
        assert_eq!((n, globals), (1, vec![3]));

        let step2 = &plan.steps()[2];
        let emb2 = [1u32, 3];
        state.prepare(&data, step2, &emb2);
        let n = generate_candidates(&data, step2, &emb2, &mut state, &MatchConfig::default());
        let partition = data.partition(step2.partition.unwrap());
        let globals: Vec<u32> = state
            .candidates
            .iter()
            .map(|&r| partition.global_id(r).raw())
            .collect();
        // The classes reject e4 even though it contains v4 and v6: within
        // (e1, e3), v6 lies in both matched edges, but every shared query
        // vertex of q2 lies in exactly one, so v6 is in no class; the class
        // members are v4 (B, in e1), v3 (A, in e3) and v5 (C, in e3), and
        // only e5 is incident to one of each.
        assert_eq!((n, globals), (1, vec![5]));
    }

    #[test]
    fn dense_partition_uses_bitmap_path_with_same_results() {
        // A large {A,B} partition around one hub vertex so the inverted
        // index materialises a bitmap and the anchor union takes the dense
        // path; a second step anchored on the hub must agree with the
        // list-only result of the small-partition equivalent.
        let n = 600u32;
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(0)); // v0: hub, label A
        for _ in 0..n {
            b.add_vertex(Label::new(1)); // leaves, label B
        }
        for leaf in 1..=n {
            b.add_edge(vec![0, leaf]).unwrap(); // {A,B} × 600, all via v0
        }
        let data = b.build().unwrap();

        // Query: two {A,B} edges sharing the A vertex.
        let mut qb = HypergraphBuilder::new();
        qb.add_vertex(Label::new(0));
        qb.add_vertex(Label::new(1));
        qb.add_vertex(Label::new(1));
        qb.add_edge(vec![0, 1]).unwrap();
        qb.add_edge(vec![0, 2]).unwrap();
        let q = QueryGraph::new(&qb.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let step = &plan.steps()[1];

        let mut state = ExpansionState::new();
        let emb = [0u32];
        state.prepare(&data, step, &emb);
        let count = generate_candidates(&data, step, &emb, &mut state, &MatchConfig::default());
        // All rows except the matched edge itself remain candidates (the
        // duplicate is removed by validation, not generation).
        assert_eq!(count, n as usize);
        assert!(hgmatch_hypergraph::setops::is_strictly_sorted(
            &state.candidates
        ));

        // The partition's hub key is genuinely dense-represented.
        let partition = data.partition(step.partition.unwrap());
        assert!(partition.incident_posting(0).bits().is_some());
    }

    /// A hub-and-leaves {A,B} graph: `hubs` A vertices, `hubs * per_hub`
    /// {A,B} edges, hub `i` incident to every `hubs`-th row — each hub
    /// posting has `per_hub` entries spread across the partition.
    fn hub_graph(hubs: u32, per_hub: u32) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for _ in 0..hubs {
            b.add_vertex(Label::new(0));
        }
        let leaves = hubs * per_hub;
        for _ in 0..leaves {
            b.add_vertex(Label::new(1));
        }
        for leaf in 0..leaves {
            b.add_edge(vec![leaf % hubs, hubs + leaf]).unwrap();
        }
        b.build().unwrap()
    }

    /// Two {A,B} query edges sharing the A vertex.
    fn hub_query() -> QueryGraph {
        let mut qb = HypergraphBuilder::new();
        qb.add_vertex(Label::new(0));
        qb.add_vertex(Label::new(1));
        qb.add_vertex(Label::new(1));
        qb.add_edge(vec![0, 1]).unwrap();
        qb.add_edge(vec![0, 2]).unwrap();
        QueryGraph::new(&qb.build().unwrap()).unwrap()
    }

    /// An abort closure that returns `false` for the first `grace` probes
    /// and `true` from then on, counting every probe.
    fn probe_fuse(grace: u64) -> (std::rc::Rc<std::cell::Cell<u64>>, impl FnMut() -> bool) {
        let probes = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let p = std::rc::Rc::clone(&probes);
        (probes, move || {
            p.set(p.get() + 1);
            p.get() > grace
        })
    }

    #[test]
    fn abort_bounds_anchorless_scan_emission() {
        // A disconnected step materialises the whole partition (40960 rows
        // here); k grace probes must bound the emission to k probe budgets.
        let data = hub_graph(40, 1024);
        let mut qb = HypergraphBuilder::new();
        for &l in &[0u32, 1, 0, 1] {
            qb.add_vertex(Label::new(l));
        }
        qb.add_edge(vec![0, 1]).unwrap();
        qb.add_edge(vec![2, 3]).unwrap();
        let q = QueryGraph::new(&qb.build().unwrap()).unwrap();
        let plan = Planner::plan(&q, &data).unwrap();
        let step = &plan.steps()[1];
        assert!(step.anchors.is_empty());
        let emb = [0u32];

        let mut state = ExpansionState::new();
        state.prepare(&data, step, &emb);
        let (_, mut abort) = probe_fuse(3);
        let out = generate_candidates_with_abort(
            &data,
            step,
            &emb,
            &mut state,
            &MatchConfig::default(),
            &mut abort,
        );
        assert_eq!(out, None);
        assert!(
            state.candidates.len() <= 3 * GEN_ABORT_PROBE,
            "three grace probes bound the scan to three probe budgets, got {}",
            state.candidates.len()
        );
    }

    #[test]
    fn immediate_abort_emits_nothing() {
        let data = hub_graph(40, 1024);
        let q = hub_query();
        let plan = Planner::plan(&q, &data).unwrap();
        let step = &plan.steps()[1];
        let emb = [0u32];
        let mut state = ExpansionState::new();
        state.prepare(&data, step, &emb);
        let out = generate_candidates_with_abort(
            &data,
            step,
            &emb,
            &mut state,
            &MatchConfig::default(),
            &mut || true,
        );
        assert_eq!(out, None);
        assert!(state.candidates.is_empty());
    }
}
