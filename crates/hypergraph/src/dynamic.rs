//! Online hypergraph updates: incremental index maintenance and
//! copy-on-write snapshots.
//!
//! The offline pipeline ([`crate::builder::HypergraphBuilder`]) builds an
//! immutable [`Hypergraph`] once; production traffic instead *streams*
//! hyperedge insertions and deletions. [`DynamicHypergraph`] is the mutable
//! counterpart: it keeps the same signature-partitioned layout but
//! maintains every structure incrementally —
//!
//! * **Postings grow in place.** Rows are only ever appended to a
//!   partition, so a vertex's posting set grows by a sorted push; the
//!   list↔bitmap adaptive representation flips at the *same* thresholds as
//!   a fresh [`InvertedIndex::build`] (the rule is shared code). Dense keys
//!   grow their bitmap along with the partition's row space.
//! * **Deletions tombstone, then compact.** Deleting a hyperedge marks its
//!   row dead and unlinks it from the affected posting lists in `O(degree)`
//!   posting edits; the row storage itself is compacted (order-preserving)
//!   once tombstones pass a threshold, or at the next snapshot.
//! * **Readers get epoch-pinned snapshots.** [`DynamicHypergraph::snapshot`]
//!   freezes the live state into a canonical immutable [`Hypergraph`] —
//!   *identical* to rebuilding from scratch over the surviving hyperedges
//!   (the differential-testing oracle). A partition is a thin envelope
//!   (canonical signature id, global edge ids) around an [`Arc`]-shared
//!   body (rows, inverted index, stats); a snapshot re-freezes the body
//!   of exactly the partitions whose rows changed since the
//!   previous one and re-issues only the envelope of every other, so its
//!   cost follows the epoch's delta, not the graph (copy-on-write at
//!   partition granularity; DESIGN.md §11.2). The returned
//!   [`SnapshotDelta`] counts the partitions re-frozen and shared.
//!
//! Canonicalisation on snapshot means dynamic edge ids (returned by
//! [`DynamicHypergraph::insert_hyperedge`]) are *not* the ids of the
//! snapshot: snapshots renumber live edges densely in insertion order, the
//! way a fresh build would. Identify edges across epochs by their vertex
//! set ([`Hypergraph::find_edge`]).

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::error::{HypergraphError, Result};
use crate::fxhash::FxHashMap;
use crate::hypergraph::{EdgeLocation, Hypergraph};
use crate::ids::{EdgeId, Label, SignatureId, VertexId};
use crate::inverted::{choose_repr, InvertedIndex, ReprKind};
use crate::partition::{indexed, Partition, PartitionBody};
use crate::signature::SignatureInterner;
use crate::stats::{LabelCardinality, PartitionStats};

/// Tombstones needed before a partition compacts mid-stream (snapshots
/// always compact). Small partitions compact eagerly; large ones amortise.
const COMPACT_MIN_DEAD: usize = 32;

/// One operation of an update stream.
///
/// The text form (one op per line, `#` comments and blank lines skipped) is
/// what the CLI `update` subcommand and the `datasets` stream generator
/// exchange:
///
/// ```text
/// v 3            # add a vertex with label 3
/// + 0 4 7        # insert the hyperedge {0, 4, 7}
/// - 0 4 7        # delete it again
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add a vertex with the given label.
    AddVertex(Label),
    /// Insert a hyperedge over existing vertex ids.
    Insert(Vec<u32>),
    /// Delete the hyperedge with exactly this vertex set.
    Delete(Vec<u32>),
}

impl UpdateOp {
    /// Parses one stream line; `Ok(None)` for blanks and comments.
    pub fn parse_line(line: &str, lineno: usize) -> Result<Option<Self>> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        let parse_err = |message: String| HypergraphError::Parse {
            line: lineno,
            message,
        };
        let mut tokens = trimmed.split_whitespace();
        let tag = tokens.next().expect("non-empty line has a first token");
        let values: Vec<u32> = tokens
            .map(|t| {
                t.parse()
                    .map_err(|_| parse_err(format!("invalid id {t:?}")))
            })
            .collect::<Result<_>>()?;
        match tag {
            "v" => match values.as_slice() {
                [label] => Ok(Some(Self::AddVertex(Label::new(*label)))),
                _ => Err(parse_err("`v` takes exactly one label".into())),
            },
            "+" | "-" => {
                if values.is_empty() {
                    return Err(parse_err(format!("`{tag}` needs at least one vertex")));
                }
                Ok(Some(if tag == "+" {
                    Self::Insert(values)
                } else {
                    Self::Delete(values)
                }))
            }
            other => Err(parse_err(format!(
                "unknown op {other:?} (expected `v`, `+` or `-`)"
            ))),
        }
    }

    /// The text form of this op (no trailing newline).
    pub fn to_line(&self) -> String {
        let join = |vs: &[u32]| {
            vs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            Self::AddVertex(l) => format!("v {}", l.raw()),
            Self::Insert(vs) => format!("+ {}", join(vs)),
            Self::Delete(vs) => format!("- {}", join(vs)),
        }
    }
}

/// Parses a whole update-stream text into ops.
pub fn parse_update_stream(text: &str) -> Result<Vec<UpdateOp>> {
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(op) = UpdateOp::parse_line(line, i + 1)? {
            ops.push(op);
        }
    }
    Ok(ops)
}

/// Serialises ops into the update-stream text format.
pub fn write_update_stream(ops: &[UpdateOp]) -> String {
    let mut out = String::new();
    for op in ops {
        out.push_str(&op.to_line());
        out.push('\n');
    }
    out
}

/// A consistent published epoch: the frozen graph plus how much of it
/// this snapshot re-froze.
#[derive(Debug, Clone)]
pub struct SnapshotDelta {
    /// The immutable, canonical view of the live hyperedge set.
    pub graph: Arc<Hypergraph>,
    /// The writer's epoch counter at freeze time (one tick per mutation).
    pub epoch: u64,
    /// Always empty. A plan cache once used it to keep plans across a
    /// publish; it now empties on every publish, and the field stays only
    /// for callers that still pass it to `MatchServer::update_data`.
    #[doc(hidden)]
    pub touched_labels: Vec<Label>,
    /// Always `false`; kept for the same callers as `touched_labels`.
    #[doc(hidden)]
    pub sids_stable: bool,
    /// Partitions whose body (rows, index, stats) this snapshot rebuilt:
    /// those whose rows changed since the previous one. An exact count
    /// that repeats for a given update stream.
    pub partitions_frozen: usize,
    /// Partitions that share their body with the previous snapshot and got
    /// only a new envelope. `partitions_frozen + partitions_shared` is the
    /// snapshot's partition count.
    ///
    /// The benchmark's traced `hypergraph.dynamic.partitions_reused_ratio`
    /// compares envelope pointers (`Arc<Partition>`), which are new every
    /// epoch, and so keeps reading ≈ 0; these two fields are the counters
    /// of body reuse.
    pub partitions_shared: usize,
}

/// One posting set of the mutable index: the sorted row-id list, plus a
/// bitmap over the row space while the adaptive rule ([`choose_repr`])
/// calls the key dense.
///
/// The bitmap is the mutable-state analogue of the frozen index's per-key
/// switch: snapshots do *not* consume it (freeze reads the list and
/// re-derives canonical representations over the compacted row space); it
/// exists so the mutable path carries the same memory profile the static
/// index would. The rule is re-evaluated *lazily*, at the cell's own next
/// mutation — rows appended through other vertices grow the partition
/// without touching this cell, so its representation can lag the current
/// row count until then (compaction resyncs every cell). Maintenance is
/// O(1) amortised per posting edit except when a cell crosses the density
/// threshold, which builds or drops that one cell's bitmap.
#[derive(Debug, Default)]
struct PostingCell {
    list: Vec<u32>,
    bits: Option<Bitmap>,
}

impl PostingCell {
    /// Appends `row` (strictly above every stored row).
    fn push(&mut self, row: u32, row_space: usize) {
        debug_assert!(self.list.last().is_none_or(|&r| r < row));
        self.list.push(row);
        if let Some(bits) = &mut self.bits {
            bits.grow(row_space as u32);
            bits.insert(row);
        }
    }

    /// Unlinks `row` if present.
    fn remove_row(&mut self, row: u32) {
        if let Ok(i) = self.list.binary_search(&row) {
            self.list.remove(i);
        }
        if let Some(bits) = &mut self.bits {
            if row < bits.domain() {
                bits.remove(row);
            }
        }
    }

    /// Re-evaluates the adaptive representation after a mutation.
    /// `row_space` is the partition's current row-id domain.
    fn sync_repr(&mut self, row_space: usize) {
        let dense = choose_repr(self.list.len(), row_space) == ReprKind::Bitmap;
        if dense != self.bits.is_some() {
            self.bits = dense.then(|| Bitmap::from_sorted(&self.list, row_space as u32));
        }
    }
}

/// The mutable per-partition inverted index: vertex → [`PostingCell`].
#[derive(Debug, Default)]
struct DynIndex {
    cells: FxHashMap<u32, PostingCell>,
}

impl DynIndex {
    /// Links appended `row` to `v`. Rows only grow, so the push keeps the
    /// cell sorted in every representation. Returns the posting length
    /// after the insert.
    fn insert(&mut self, v: u32, row: u32, row_space: usize) -> usize {
        let cell = self.cells.entry(v).or_default();
        cell.push(row, row_space);
        cell.sync_repr(row_space);
        cell.list.len()
    }

    /// Unlinks `row` from `v` (tombstoned row leaves the posting set).
    /// Returns the posting length after the removal.
    fn remove(&mut self, v: u32, row: u32, row_space: usize) -> usize {
        let Some(cell) = self.cells.get_mut(&v) else {
            debug_assert!(false, "removing a row from an unindexed vertex");
            return 0;
        };
        cell.remove_row(row);
        let remaining = cell.list.len();
        if remaining == 0 {
            self.cells.remove(&v);
            return remaining;
        }
        cell.sync_repr(row_space);
        remaining
    }

    /// Applies an order-preserving row renumbering after compaction and
    /// re-chooses every cell's representation for the shrunk row space.
    /// Each list is renumbered where it is; each bitmap is rebuilt.
    fn remap_rows(&mut self, remap: &[u32], row_space: usize) {
        for cell in self.cells.values_mut() {
            for r in &mut cell.list {
                debug_assert_ne!(remap[*r as usize], u32::MAX, "posting to dead row");
                *r = remap[*r as usize];
            }
            cell.bits = None;
            cell.sync_repr(row_space);
        }
    }
}

/// Incrementally maintained per-label degree summaries of one partition —
/// the mutable counterpart of [`PartitionStats`] (DESIGN.md §13). Every
/// posting edit reports a vertex-degree transition `old → new` here; the
/// bookkeeping is exact integer arithmetic, so the emitted stats are
/// bit-equal to [`PartitionStats::recompute`] over the same live state
/// (asserted by `prop_stats.rs` and, via `Partition` equality, by every
/// snapshot-vs-rebuild differential).
#[derive(Debug, Default)]
struct StatsAcc {
    groups: FxHashMap<Label, LabelAcc>,
}

#[derive(Debug, Default)]
struct LabelAcc {
    distinct: u64,
    incidences: u64,
    sum_sq: u64,
}

impl StatsAcc {
    /// Records that a vertex of `label` moved from within-partition degree
    /// `old` to `new` (the two differ by exactly one posting).
    fn on_degree_change(&mut self, label: Label, old: u64, new: u64) {
        debug_assert_eq!(old.abs_diff(new), 1, "posting edits move degrees by one");
        let group = self.groups.entry(label).or_default();
        if old == 0 {
            group.distinct += 1;
        }
        if new == 0 {
            group.distinct -= 1;
        }
        if new > old {
            group.incidences += 1;
        } else {
            group.incidences -= 1;
        }
        group.sum_sq = group.sum_sq + new * new - old * old;
        if group.distinct == 0 {
            debug_assert_eq!(group.incidences, 0);
            debug_assert_eq!(group.sum_sq, 0);
            self.groups.remove(&label);
        }
    }

    /// Emits the canonical (label-sorted) form a frozen partition carries.
    fn to_stats(&self, rows: u64) -> PartitionStats {
        let mut labels: Vec<LabelCardinality> = self
            .groups
            .iter()
            .map(|(&label, acc)| LabelCardinality {
                label,
                distinct_vertices: acc.distinct,
                incidences: acc.incidences,
                sum_sq_degrees: acc.sum_sq,
            })
            .collect();
        labels.sort_unstable_by_key(|g| g.label);
        PartitionStats { rows, labels }
    }
}

/// One mutable signature partition: tombstoned row storage plus the
/// incrementally maintained [`DynIndex`] and [`StatsAcc`].
///
/// Both follow the frozen partition's one-row rule ([`indexed`]): they
/// stay empty while the partition has at most one row, dead or alive, and
/// cover every live row from the second row on.
#[derive(Debug)]
struct DynPartition {
    arity: u32,
    /// Flattened vertex lists, tombstoned rows included until compaction.
    vertices: Vec<u32>,
    /// Dynamic edge id of each row (ascending; holds for tombstones too).
    global: Vec<u32>,
    live: Vec<bool>,
    dead: usize,
    index: DynIndex,
    stats: StatsAcc,
    /// The body last frozen from these rows, for the next snapshot to
    /// share; `None` once a row was inserted or deleted since.
    frozen: Option<Arc<PartitionBody>>,
}

impl DynPartition {
    fn new(arity: u32) -> Self {
        Self {
            arity,
            vertices: Vec::new(),
            global: Vec::new(),
            live: Vec::new(),
            dead: 0,
            index: DynIndex::default(),
            stats: StatsAcc::default(),
            frozen: None,
        }
    }

    fn rows_total(&self) -> usize {
        self.global.len()
    }

    fn live_len(&self) -> usize {
        self.global.len() - self.dead
    }

    /// Appends a live row, linking it into the index and stats. Returns
    /// the row id.
    fn insert_row(&mut self, vs: &[u32], gid: u32, labels: &[Label]) -> u32 {
        let row = self.global.len() as u32;
        self.vertices.extend_from_slice(vs);
        self.global.push(gid);
        self.live.push(true);
        self.frozen = None;
        let row_space = self.global.len();
        if !indexed(row_space) {
            return row; // the only row: no index and no stats yet
        }
        if row == 1 && self.live[0] {
            // The second row starts the index and the stats: link and
            // count row 0 first.
            let a = self.arity as usize;
            for &v in &self.vertices[..a] {
                self.index.insert(v, 0, 1);
                self.stats.on_degree_change(labels[v as usize], 0, 1);
            }
        }
        for &v in vs {
            let new_degree = self.index.insert(v, row, row_space) as u64;
            self.stats
                .on_degree_change(labels[v as usize], new_degree - 1, new_degree);
        }
        row
    }

    /// Tombstones a row and removes it from the posting sets and stats.
    fn delete_row(&mut self, row: u32, labels: &[Label]) {
        debug_assert!(self.live[row as usize], "double delete");
        self.live[row as usize] = false;
        self.dead += 1;
        self.frozen = None;
        let row_space = self.global.len();
        if !indexed(row_space) {
            return; // the only row: no index or stats to unlink from
        }
        let a = self.arity as usize;
        for i in 0..a {
            let v = self.vertices[row as usize * a + i];
            let new_degree = self.index.remove(v, row, row_space) as u64;
            self.stats
                .on_degree_change(labels[v as usize], new_degree + 1, new_degree);
        }
    }

    fn should_compact(&self) -> bool {
        self.dead >= COMPACT_MIN_DEAD && self.dead * 2 >= self.rows_total()
    }

    /// Drops tombstoned rows, renumbering the survivors densely in order.
    /// Returns `(dynamic gid, new row)` for every surviving row so the
    /// caller can fix its locator.
    fn compact(&mut self) -> Vec<(u32, u32)> {
        let total = self.rows_total();
        let a = self.arity as usize;
        let mut remap = vec![u32::MAX; total];
        let mut vertices = Vec::with_capacity(self.live_len() * a);
        let mut global = Vec::with_capacity(self.live_len());
        let mut moves = Vec::with_capacity(self.live_len());
        for (r, slot) in remap.iter_mut().enumerate().take(total) {
            if !self.live[r] {
                continue;
            }
            let new_row = global.len() as u32;
            *slot = new_row;
            vertices.extend_from_slice(&self.vertices[r * a..(r + 1) * a]);
            global.push(self.global[r]);
            moves.push((self.global[r], new_row));
        }
        self.vertices = vertices;
        self.live = vec![true; global.len()];
        self.global = global;
        self.dead = 0;
        if indexed(self.rows_total()) {
            self.index.remap_rows(&remap, self.rows_total());
        } else {
            self.index = DynIndex::default();
            self.stats = StatsAcc::default();
        }
        moves
    }

    /// The immutable body of this (compacted) partition: the body of the
    /// previous freeze unless a row changed since.
    fn freeze(&mut self) -> Arc<PartitionBody> {
        debug_assert_eq!(self.dead, 0, "freeze requires a compacted partition");
        if self.frozen.is_none() {
            self.frozen = Some(Arc::new(self.freeze_body()));
        }
        Arc::clone(self.frozen.as_ref().expect("frozen above"))
    }

    /// Builds the immutable body of the current rows. The CSR index is
    /// emitted straight from the maintained postings — no re-sort, and by
    /// construction byte-identical to a fresh [`InvertedIndex::build`] —
    /// or, for one row, no index and no label groups, as
    /// [`Partition::new`] leaves them.
    fn freeze_body(&self) -> PartitionBody {
        // Compacted: every remaining row is live, and the maintained
        // summaries are exactly what a recompute would produce.
        let stats = self.stats.to_stats(self.rows_total() as u64);
        if !indexed(self.rows_total()) {
            debug_assert!(self.index.cells.is_empty() && self.stats.groups.is_empty());
            return PartitionBody::from_parts(
                self.arity,
                self.vertices.clone(),
                InvertedIndex::EMPTY,
                stats,
            );
        }
        // `finish` re-chooses the canonical representation per key, so the
        // snapshot stays byte-identical to a fresh build.
        let mut cells: Vec<(u32, &[u32])> = self
            .index
            .cells
            .iter()
            .map(|(&v, c)| (v, c.list.as_slice()))
            .collect();
        cells.sort_unstable_by_key(|&(v, _)| v);
        let index =
            InvertedIndex::from_sorted_postings(cells.into_iter(), self.rows_total() as u32);
        PartitionBody::from_parts(self.arity, self.vertices.clone(), index, stats)
    }
}

/// The previous snapshot, republished while nothing changes.
#[derive(Debug)]
struct SnapCache {
    graph: Arc<Hypergraph>,
    epoch: u64,
}

/// A vertex-labelled hypergraph under online insertion and deletion of
/// hyperedges, with incrementally maintained partitions and inverted
/// indices and cheap epoch-pinned snapshots for readers.
///
/// # Example
///
/// ```
/// use hgmatch_hypergraph::{DynamicHypergraph, Label};
///
/// let mut h = DynamicHypergraph::new();
/// h.add_vertices(4, Label::new(0));
/// h.insert_hyperedge(vec![0, 1]).unwrap();
/// h.insert_hyperedge(vec![1, 2, 3]).unwrap();
/// let first = h.snapshot();
/// assert_eq!(first.graph.num_edges(), 2);
///
/// h.delete_hyperedge(&[0, 1]).unwrap();
/// let second = h.snapshot();
/// assert_eq!(second.graph.num_edges(), 1);
/// // The earlier snapshot is unaffected: readers pin their epoch.
/// assert_eq!(first.graph.num_edges(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DynamicHypergraph {
    labels: Vec<Label>,
    /// All-time signature interner (dynamic sids; extinct ones keep slots).
    interner: SignatureInterner,
    parts: Vec<DynPartition>,
    /// Dynamic gid → live location (`None` = deleted). Gids never reuse.
    locator: Vec<Option<EdgeLocation>>,
    /// Sorted vertex set → dynamic gid, for dedupe and delete-by-set.
    edge_lookup: FxHashMap<Vec<u32>, u32>,
    live_edges: usize,
    epoch: u64,
    cache: Option<SnapCache>,
    /// The sorted labels of the edge being inserted, kept to look its
    /// signature up without allocating.
    signature_scratch: Vec<Label>,
}

impl DynamicHypergraph {
    /// Creates an empty dynamic hypergraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a dynamic hypergraph from an existing immutable one (same
    /// vertices, same hyperedges in the same order). The writer adopts
    /// `h`'s signatures, with `h`'s ids, and its partitions adopt `h`'s
    /// bodies, so the first snapshot shares both instead of re-freezing
    /// the graph it was seeded from. A body is adopted only if
    /// it is what a freeze here would emit: same rows in the same order,
    /// every posting in the representation this process chooses (its
    /// planner stats are a function of those rows wherever `h` came from:
    /// a build, a freeze or a snapshot decode derive them alike).
    pub fn from_hypergraph(h: &Hypergraph) -> Self {
        let mut d = Self::new();
        d.labels = h.labels().to_vec();
        d.interner = h.interner().clone();
        d.parts = h
            .partitions()
            .iter()
            .map(|p| DynPartition::new(p.arity()))
            .collect();
        for (_, vs) in h.iter_edges() {
            d.insert_hyperedge(vs.to_vec())
                .expect("edges of a built hypergraph are valid");
        }
        for (part, seed) in d.parts.iter_mut().zip(h.partitions()) {
            // Edges were replayed in `h`'s order, so a partition's rows are
            // `h`'s rows unless `h` was not laid out in that order. A seed
            // index in another representation than this process would
            // choose (a snapshot file written under a different
            // `set_forced_repr`) is re-frozen like any dirty partition.
            if seed.raw_vertices() == part.vertices && seed.index().is_canonical() {
                part.frozen = Some(Arc::clone(seed.body_arc()));
            }
        }
        // Seeding is epoch 0, not a stream of updates.
        d.epoch = 0;
        d
    }

    /// Adds a vertex with `label`, returning its id (dense, in call order).
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId::from_index(self.labels.len());
        self.labels.push(label);
        self.epoch += 1;
        id
    }

    /// Adds `n` vertices all labelled `label`; returns the first id.
    pub fn add_vertices(&mut self, n: usize, label: Label) -> VertexId {
        let first = VertexId::from_index(self.labels.len());
        self.labels.extend(std::iter::repeat_n(label, n));
        self.epoch += 1;
        first
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of *live* hyperedges.
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// The writer's epoch counter (one tick per mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the (unsorted) vertex set is currently a live hyperedge.
    pub fn contains_edge(&self, vertices: &[u32]) -> bool {
        let mut key = vertices.to_vec();
        key.sort_unstable();
        key.dedup();
        self.edge_lookup.contains_key(&key)
    }

    /// Inserts a hyperedge over raw vertex ids. Vertices may arrive
    /// unsorted; duplicates inside the edge are collapsed and a repeat of a
    /// live edge is dropped (`Ok(None)`), mirroring the offline builder's
    /// dedupe policy.
    ///
    /// Returns the edge's *dynamic* id — stable for this writer, not the id
    /// the edge will carry in snapshots (see the module docs).
    pub fn insert_hyperedge(&mut self, mut vertices: Vec<u32>) -> Result<Option<EdgeId>> {
        let edge_index = self.locator.len();
        if vertices.is_empty() {
            return Err(HypergraphError::EmptyHyperedge { edge_index });
        }
        for &v in &vertices {
            if v as usize >= self.labels.len() {
                return Err(HypergraphError::UnknownVertex {
                    vertex: v,
                    edge_index,
                });
            }
        }
        vertices.sort_unstable();
        vertices.dedup();
        if self.edge_lookup.contains_key(&vertices) {
            return Ok(None);
        }

        let signature = &mut self.signature_scratch;
        signature.clear();
        signature.extend(vertices.iter().map(|&v| self.labels[v as usize]));
        signature.sort_unstable();
        let sid = self.interner.intern_sorted(signature);
        if sid.index() == self.parts.len() {
            self.parts.push(DynPartition::new(vertices.len() as u32));
        }

        let gid = u32::try_from(self.locator.len()).expect("edge-id overflow");
        let row = self.parts[sid.index()].insert_row(&vertices, gid, &self.labels);
        self.locator.push(Some(EdgeLocation {
            signature: sid,
            row,
        }));
        self.edge_lookup.insert(vertices, gid);
        self.live_edges += 1;
        self.epoch += 1;
        Ok(Some(EdgeId::new(gid)))
    }

    /// Deletes the hyperedge with exactly this vertex set (order and
    /// repeats ignored). Returns whether an edge was removed.
    pub fn delete_hyperedge(&mut self, vertices: &[u32]) -> Result<bool> {
        let mut key = vertices.to_vec();
        key.sort_unstable();
        key.dedup();
        let Some(gid) = self.edge_lookup.remove(&key) else {
            return Ok(false);
        };
        let loc = self.locator[gid as usize]
            .take()
            .expect("lookup and locator agree");
        let part = &mut self.parts[loc.signature.index()];
        part.delete_row(loc.row, &self.labels);
        self.live_edges -= 1;
        self.epoch += 1;
        if part.should_compact() {
            self.compact_partition(loc.signature);
        }
        Ok(true)
    }

    /// Applies one stream op. Returns whether the graph changed (duplicate
    /// inserts and misses are no-ops, not errors — streams are replayable).
    pub fn apply(&mut self, op: &UpdateOp) -> Result<bool> {
        match op {
            UpdateOp::AddVertex(label) => {
                self.add_vertex(*label);
                Ok(true)
            }
            UpdateOp::Insert(vs) => Ok(self.insert_hyperedge(vs.clone())?.is_some()),
            UpdateOp::Delete(vs) => self.delete_hyperedge(vs),
        }
    }

    fn compact_partition(&mut self, sid: SignatureId) {
        for (gid, new_row) in self.parts[sid.index()].compact() {
            self.locator[gid as usize]
                .as_mut()
                .expect("surviving row is live")
                .row = new_row;
        }
    }

    /// Freezes the current live state into a canonical immutable
    /// [`Hypergraph`] and returns it with its re-freeze counts
    /// ([`SnapshotDelta`]).
    ///
    /// The result is exactly what [`crate::builder::HypergraphBuilder`]
    /// would produce from the live hyperedges replayed in insertion order —
    /// partitions in first-encounter order, edges densely renumbered —
    /// which makes rebuild-from-scratch a byte-level oracle for this path.
    ///
    /// Cost: the rows of the partitions mutated since the previous
    /// snapshot (their bodies are re-frozen), plus per live edge one id in
    /// the graph's global-id slab and one locator entry, plus per live
    /// partition an envelope (`Arc<Partition>`, two pointers and two ids)
    /// and one map entry of the canonical interner, which shares the
    /// writer's signature and reuses its cached hash. Every envelope is
    /// rewritten, because deletions shift the dense edge ids and
    /// extinctions the signature ids; the body of every other partition is
    /// shared with the previous snapshot via [`Arc`], wherever its ids
    /// moved to.
    pub fn snapshot(&mut self) -> SnapshotDelta {
        if let Some(cache) = &self.cache {
            if cache.epoch == self.epoch {
                // Nothing changed: republish the cached epoch.
                return SnapshotDelta {
                    graph: Arc::clone(&cache.graph),
                    epoch: self.epoch,
                    touched_labels: Vec::new(),
                    sids_stable: false,
                    partitions_frozen: 0,
                    partitions_shared: cache.graph.partitions().len(),
                };
            }
        }

        // Snapshots expose dense rows: compact every tombstoned partition.
        for sid in 0..self.parts.len() {
            if self.parts[sid].dead > 0 {
                self.compact_partition(SignatureId::from_index(sid));
            }
        }

        // Canonical renumbering: scan live edges in dynamic-gid (insertion)
        // order; signatures take canonical ids in first-encounter order and
        // edges take dense ids — the orders a fresh build would assign.
        let mut canon_sid_of: Vec<Option<SignatureId>> = vec![None; self.parts.len()];
        let mut dyn_of_canon: Vec<SignatureId> = Vec::new();
        let mut gid_remap = vec![u32::MAX; self.locator.len()];
        let mut next_gid = 0u32;
        for (gid, loc) in self.locator.iter().enumerate() {
            let Some(loc) = loc else { continue };
            let canon = &mut canon_sid_of[loc.signature.index()];
            if canon.is_none() {
                *canon = Some(SignatureId::from_index(dyn_of_canon.len()));
                dyn_of_canon.push(loc.signature);
            }
            gid_remap[gid] = next_gid;
            next_gid += 1;
        }
        let canon_interner = SignatureInterner::from_distinct(
            dyn_of_canon
                .iter()
                .map(|&dyn_sid| self.interner.resolve(dyn_sid).clone())
                .collect(),
        );

        // One reuse rule: rows unchanged ⇒ body shared. Every partition
        // gets a new envelope under its canonical sid, and its renumbered
        // edge ids go into the graph's slab in the same order.
        let mut partitions_frozen = 0;
        let mut gids: Vec<EdgeId> = Vec::with_capacity(self.live_edges);
        let bodies: Vec<Arc<PartitionBody>> = dyn_of_canon
            .iter()
            .map(|&dyn_sid| {
                let part = &mut self.parts[dyn_sid.index()];
                partitions_frozen += usize::from(part.frozen.is_none());
                gids.extend(
                    part.global
                        .iter()
                        .map(|&g| EdgeId::new(gid_remap[g as usize])),
                );
                part.freeze()
            })
            .collect();
        let partitions = Partition::envelopes(bodies, gids);
        let partitions_shared = partitions.len() - partitions_frozen;

        // Canonical locator: live edges in insertion order; rows are the
        // (compacted) dynamic rows, which match the frozen tables.
        let locator: Vec<EdgeLocation> = self
            .locator
            .iter()
            .flatten()
            .map(|loc| EdgeLocation {
                signature: canon_sid_of[loc.signature.index()].expect("live sid is canonical"),
                row: loc.row,
            })
            .collect();

        let graph = Arc::new(Hypergraph::assemble(
            self.labels.clone(),
            canon_interner,
            partitions,
            locator,
        ));

        self.cache = Some(SnapCache {
            graph: Arc::clone(&graph),
            epoch: self.epoch,
        });
        SnapshotDelta {
            graph,
            epoch: self.epoch,
            touched_labels: Vec::new(),
            sids_stable: false,
            partitions_frozen,
            partitions_shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;
    use crate::inverted::MIN_BITMAP_ROWS;
    use crate::signature::Signature;

    /// Rebuild oracle: a fresh build over `edges` in order.
    fn rebuild(labels: &[Label], edges: &[Vec<u32>]) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in labels {
            b.add_vertex(l);
        }
        for e in edges {
            b.add_edge(e.clone()).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn snapshot_matches_fresh_build_under_inserts() {
        let mut d = DynamicHypergraph::new();
        let labels: Vec<Label> = [0u32, 2, 0, 0, 1, 2, 0].map(Label::new).to_vec();
        for &l in &labels {
            d.add_vertex(l);
        }
        let edges = vec![
            vec![2, 4],
            vec![4, 6],
            vec![0, 1, 2],
            vec![3, 5, 6],
            vec![0, 1, 4, 6],
            vec![2, 3, 4, 5],
        ];
        for e in &edges {
            d.insert_hyperedge(e.clone()).unwrap();
        }
        let snap = d.snapshot();
        assert_eq!(*snap.graph, rebuild(&labels, &edges));
    }

    #[test]
    fn snapshot_matches_fresh_build_under_deletes() {
        let mut d = DynamicHypergraph::new();
        let labels: Vec<Label> = [0u32, 1, 0, 1, 0].map(Label::new).to_vec();
        for &l in &labels {
            d.add_vertex(l);
        }
        for e in [vec![0, 1], vec![2, 3], vec![0, 3], vec![1, 2, 4]] {
            d.insert_hyperedge(e).unwrap();
        }
        d.snapshot();
        assert!(d.delete_hyperedge(&[2, 3]).unwrap());
        assert!(!d.delete_hyperedge(&[2, 3]).unwrap(), "already gone");
        let snap = d.snapshot();
        let expected = rebuild(&labels, &[vec![0, 1], vec![0, 3], vec![1, 2, 4]]);
        assert_eq!(*snap.graph, expected);
        assert_eq!(snap.graph.num_edges(), 3);
    }

    #[test]
    fn reinsert_after_delete_moves_to_insertion_order() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(4, Label::new(0));
        d.insert_hyperedge(vec![0, 1]).unwrap();
        d.insert_hyperedge(vec![2, 3]).unwrap();
        d.delete_hyperedge(&[0, 1]).unwrap();
        d.insert_hyperedge(vec![0, 1]).unwrap();
        let snap = d.snapshot();
        // Canonical order: {2,3} (older surviving insert) then {0,1}.
        let labels = vec![Label::new(0); 4];
        assert_eq!(*snap.graph, rebuild(&labels, &[vec![2, 3], vec![0, 1]]));
    }

    /// The body-reuse oracle: the partition of `signature` has the same
    /// body allocation in both graphs.
    fn shares_body(a: &Hypergraph, b: &Hypergraph, signature: &[u32]) -> bool {
        let signature = Signature::new(signature.iter().copied().map(Label::new).collect());
        let (a, b) = (a.partition_of(&signature), b.partition_of(&signature));
        Arc::ptr_eq(a.unwrap().body_arc(), b.unwrap().body_arc())
    }

    #[test]
    fn clean_partitions_share_their_body_across_snapshots() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(6, Label::new(0));
        d.add_vertices(2, Label::new(1));
        d.insert_hyperedge(vec![0, 1]).unwrap(); // {0,0}
        d.insert_hyperedge(vec![0, 6]).unwrap(); // {0,1}
        let first = d.snapshot();
        assert_eq!((first.partitions_frozen, first.partitions_shared), (2, 0));
        // Touch only the {0,0,0} signature (new partition appended last).
        d.insert_hyperedge(vec![2, 3, 4]).unwrap();
        let second = d.snapshot();
        assert!(shares_body(&first.graph, &second.graph, &[0, 0]));
        assert!(shares_body(&first.graph, &second.graph, &[0, 1]));
        assert_eq!((second.partitions_frozen, second.partitions_shared), (1, 2));
    }

    #[test]
    fn deleting_the_lowest_gid_keeps_untouched_bodies_shared() {
        // Deleting edge 0 shifts the dense id of every later edge, in every
        // partition: the envelopes change, the untouched bodies must not.
        let labels: Vec<Label> = [0u32, 0, 0, 0, 1, 1, 2, 2].map(Label::new).to_vec();
        let edges = vec![
            vec![0, 1],    // {0,0}, gid 0: deleted below
            vec![4, 5],    // {1,1}
            vec![2, 3],    // {0,0}
            vec![0, 4, 6], // {0,1,2}
            vec![6, 7],    // {2,2}
        ];
        let mut d = DynamicHypergraph::from_hypergraph(&rebuild(&labels, &edges));
        let first = d.snapshot();
        d.delete_hyperedge(&[0, 1]).unwrap();
        let second = d.snapshot();
        assert_eq!(*second.graph, rebuild(&labels, &edges[1..]));
        for untouched in [&[1, 1][..], &[0, 1, 2], &[2, 2]] {
            assert!(
                shares_body(&first.graph, &second.graph, untouched),
                "untouched partition {untouched:?} must share its body"
            );
        }
        assert!(!shares_body(&first.graph, &second.graph, &[0, 0]));
        assert_eq!((second.partitions_frozen, second.partitions_shared), (1, 3));
    }

    #[test]
    fn extinction_shifts_sids_but_keeps_untouched_bodies_shared() {
        let labels: Vec<Label> = [0u32, 0, 1, 1, 2, 2].map(Label::new).to_vec();
        let edges = vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![2, 4]];
        let mut d = DynamicHypergraph::from_hypergraph(&rebuild(&labels, &edges));
        let first = d.snapshot();
        // {0,0} goes extinct: every other signature moves down one sid.
        d.delete_hyperedge(&[0, 1]).unwrap();
        let second = d.snapshot();
        assert_eq!(*second.graph, rebuild(&labels, &edges[1..]));
        for untouched in [&[1, 1][..], &[2, 2], &[1, 2]] {
            assert!(
                shares_body(&first.graph, &second.graph, untouched),
                "untouched partition {untouched:?} must share its body"
            );
        }
        assert_eq!((second.partitions_frozen, second.partitions_shared), (0, 3));
    }

    #[test]
    fn unchanged_state_republishes_the_cached_snapshot() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(2, Label::new(0));
        d.insert_hyperedge(vec![0, 1]).unwrap();
        let a = d.snapshot();
        let b = d.snapshot();
        assert!(Arc::ptr_eq(&a.graph, &b.graph));
    }

    #[test]
    fn deleting_first_live_edge_of_a_signature_can_reorder_sids() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(4, Label::new(0));
        d.add_vertices(2, Label::new(1));
        d.insert_hyperedge(vec![0, 1]).unwrap(); // {0,0} first
        d.insert_hyperedge(vec![4, 5]).unwrap(); // {1,1}
        d.insert_hyperedge(vec![2, 3]).unwrap(); // {0,0} again
        d.snapshot();
        // Deleting {0,1} makes {1,1}'s first live edge older than {0,0}'s.
        d.delete_hyperedge(&[0, 1]).unwrap();
        let snap = d.snapshot();
        let labels: Vec<Label> = [0u32, 0, 0, 0, 1, 1].map(Label::new).to_vec();
        assert_eq!(*snap.graph, rebuild(&labels, &[vec![4, 5], vec![2, 3]]));
    }

    #[test]
    fn adaptive_postings_flip_at_build_thresholds() {
        // Drive one partition past MIN_BITMAP_ROWS with a hub vertex: the
        // hub's live posting cell must pick up a bitmap exactly when a
        // fresh build would, and drop it again as deletions thin it out.
        let mut d = DynamicHypergraph::new();
        let n = (MIN_BITMAP_ROWS + 64) as u32;
        d.add_vertex(Label::new(0)); // hub
        d.add_vertices(n as usize, Label::new(1));
        for leaf in 1..=n {
            d.insert_hyperedge(vec![0, leaf]).unwrap();
        }
        {
            let part = &d.parts[0];
            let hub = &part.index.cells[&0];
            assert_eq!(hub.list.len(), n as usize);
            let bits = hub.bits.as_ref().expect("hub is dense: bitmap expected");
            assert_eq!(bits.to_sorted(), hub.list, "bitmap mirrors the list");
            // A leaf vertex stays list-only.
            assert!(part.index.cells[&1].bits.is_none());
        }
        // Snapshot equals a fresh build including its dense keys.
        let snap = d.snapshot();
        let p = snap.graph.partition(SignatureId::new(0));
        assert!(p.index().num_dense_keys() >= 1);
        assert!(p.incident_posting(0).bits().is_some());

        // Delete most hub edges: the cell must shed its bitmap when the
        // density rule stops holding.
        for leaf in 1..n {
            d.delete_hyperedge(&[0, leaf]).unwrap();
        }
        let part = &d.parts[0];
        assert!(part.index.cells[&0].bits.is_none(), "sparse again");
        let snap = d.snapshot();
        let expected = {
            let mut b = HypergraphBuilder::new();
            b.add_vertex(Label::new(0));
            b.add_vertices(n as usize, Label::new(1));
            b.add_edge(vec![0, n]).unwrap();
            b.build().unwrap()
        };
        assert_eq!(*snap.graph, expected);
    }

    #[test]
    fn compaction_threshold_keeps_state_consistent() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(300, Label::new(0));
        let mut edges: Vec<Vec<u32>> = Vec::new();
        for i in 0..149u32 {
            let e = vec![2 * i, 2 * i + 1];
            d.insert_hyperedge(e.clone()).unwrap();
            edges.push(e);
        }
        // Delete enough to cross COMPACT_MIN_DEAD and the 50% ratio.
        for e in edges.drain(..80) {
            d.delete_hyperedge(&e).unwrap();
        }
        // The threshold fired mid-stream: tombstones were reclaimed at
        // least once, so fewer than the 80 deletions remain as dead rows.
        assert!(d.parts[0].dead < 80, "compaction ran");
        let snap = d.snapshot();
        let labels = vec![Label::new(0); 300];
        assert_eq!(*snap.graph, rebuild(&labels, &edges));
    }

    #[test]
    fn duplicate_and_invalid_edges_behave_like_the_builder() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(3, Label::new(0));
        assert!(d.insert_hyperedge(vec![0, 1]).unwrap().is_some());
        assert!(d.insert_hyperedge(vec![1, 0]).unwrap().is_none());
        assert!(d.insert_hyperedge(vec![2, 2]).unwrap().is_some());
        assert!(matches!(
            d.insert_hyperedge(vec![]),
            Err(HypergraphError::EmptyHyperedge { .. })
        ));
        assert!(matches!(
            d.insert_hyperedge(vec![0, 9]),
            Err(HypergraphError::UnknownVertex { vertex: 9, .. })
        ));
        assert_eq!(d.num_edges(), 2);
        assert!(d.contains_edge(&[0, 1]) && d.contains_edge(&[2]));
    }

    #[test]
    fn update_op_round_trips_through_text() {
        let ops = vec![
            UpdateOp::AddVertex(Label::new(5)),
            UpdateOp::Insert(vec![0, 4, 7]),
            UpdateOp::Delete(vec![0, 4, 7]),
        ];
        let text = write_update_stream(&ops);
        assert_eq!(parse_update_stream(&text).unwrap(), ops);
        assert_eq!(
            parse_update_stream("# comment\n\n+ 1 2\n").unwrap(),
            vec![UpdateOp::Insert(vec![1, 2])]
        );
        assert!(parse_update_stream("x 1\n").is_err());
        assert!(parse_update_stream("+\n").is_err());
        assert!(parse_update_stream("v 1 2\n").is_err());
        assert!(parse_update_stream("+ a\n").is_err());
    }

    #[test]
    fn apply_replays_a_stream() {
        let mut d = DynamicHypergraph::new();
        let ops = parse_update_stream("v 0\nv 0\nv 1\n+ 0 1\n+ 1 2\n- 0 1\n").unwrap();
        for op in &ops {
            d.apply(op).unwrap();
        }
        assert_eq!((d.num_vertices(), d.num_edges()), (3, 1));
        // Replaying the deletes/duplicates is a no-op, not an error.
        assert!(!d.apply(&UpdateOp::Delete(vec![0, 1])).unwrap());
        assert!(!d.apply(&UpdateOp::Insert(vec![1, 2])).unwrap());
    }

    /// Whether the writer's partition of `sid` holds no index.
    fn unindexed(d: &DynamicHypergraph, sid: usize) -> bool {
        d.parts[sid].index.cells.is_empty()
    }

    #[test]
    fn one_row_boundary_grows_shrinks_and_compacts() {
        // One signature {0,0,0}: rows over vertices 0..6.
        let labels = vec![Label::new(0); 6];
        let (a, b, c) = ([0, 1, 2], [2, 3, 4], [1, 4, 5]);
        let expect = |rows: &[[u32; 3]]| {
            let rows: Vec<Vec<u32>> = rows.iter().map(|r| r.to_vec()).collect();
            rebuild(&labels, &rows)
        };
        let mut d = DynamicHypergraph::new();
        d.add_vertices(6, Label::new(0));
        d.insert_hyperedge(a.to_vec()).unwrap();
        assert!(unindexed(&d, 0), "one row: no index");
        assert_eq!(*d.snapshot().graph, expect(&[a]));

        // 1 → 2 rows: row 0 is linked before row 1.
        d.insert_hyperedge(b.to_vec()).unwrap();
        assert_eq!(d.parts[0].index.cells.len(), 5);
        let snap = d.snapshot();
        assert_eq!(*snap.graph, expect(&[a, b]));
        let p = snap.graph.partition(SignatureId::new(0));
        assert_eq!(p.incident_posting(2).to_sorted(), vec![0, 1]);

        // Delete row 1: the tombstone unlinks it; compacting back to one
        // row drops the index.
        d.delete_hyperedge(&b).unwrap();
        assert_eq!(d.parts[0].index.cells.len(), 3);
        assert_eq!(*d.snapshot().graph, expect(&[a]));
        assert!(unindexed(&d, 0), "compacted to one row: index dropped");

        // Grow again from the compacted row, then delete row 0 instead.
        d.insert_hyperedge(c.to_vec()).unwrap();
        assert_eq!(*d.snapshot().graph, expect(&[a, c]));
        d.delete_hyperedge(&a).unwrap();
        assert_eq!(*d.snapshot().graph, expect(&[c]));
        assert!(unindexed(&d, 0));
    }

    #[test]
    fn tombstoned_only_row_is_not_linked_by_the_second() {
        let labels = vec![Label::new(0); 4];
        let mut d = DynamicHypergraph::new();
        d.add_vertices(4, Label::new(0));
        d.insert_hyperedge(vec![0, 1]).unwrap();
        d.snapshot();
        // Tombstone the only row (no index or stats to unlink it from),
        // then insert with no snapshot between: row 0 is dead when row 1
        // arrives.
        d.delete_hyperedge(&[0, 1]).unwrap();
        assert_eq!((d.parts[0].rows_total(), d.parts[0].dead), (1, 1));
        d.insert_hyperedge(vec![1, 2]).unwrap();
        assert_eq!(d.parts[0].index.cells.len(), 2, "only row 1 is linked");
        assert_eq!(*d.snapshot().graph, rebuild(&labels, &[vec![1, 2]]));
        d.insert_hyperedge(vec![0, 3]).unwrap();
        assert_eq!(
            *d.snapshot().graph,
            rebuild(&labels, &[vec![1, 2], vec![0, 3]])
        );
    }

    /// A snapshot whose every partition's stats equal the recompute oracle.
    fn stats_checked_snapshot(d: &mut DynamicHypergraph) -> Arc<Hypergraph> {
        let graph = d.snapshot().graph;
        for (sid, p) in graph.partitions().iter().enumerate() {
            let want = PartitionStats::recompute(p, graph.labels());
            assert_eq!(*p.stats(), want, "partition {sid}");
        }
        graph
    }

    /// The writer's label groups for dynamic partition `sid`.
    fn stat_groups(d: &DynamicHypergraph, sid: usize) -> usize {
        d.parts[sid].stats.groups.len()
    }

    #[test]
    fn second_row_counts_a_live_first_row() {
        // One signature {0,1}: vertices 0, 1 of label 0 and 2 of label 1.
        let mut d = DynamicHypergraph::new();
        d.add_vertices(2, Label::new(0));
        d.add_vertex(Label::new(1));
        d.insert_hyperedge(vec![0, 2]).unwrap();
        assert_eq!(stat_groups(&d, 0), 0, "one row: no stats");
        let one = stats_checked_snapshot(&mut d);
        assert!(one.partition(SignatureId::new(0)).stats().labels.is_empty());

        // Row 1 shares vertex 2 with the live row 0, whose vertices count
        // now: vertex 2 has degree 2.
        d.insert_hyperedge(vec![1, 2]).unwrap();
        assert_eq!(stat_groups(&d, 0), 2);
        let two = stats_checked_snapshot(&mut d);
        let stats = two.partition(SignatureId::new(0)).stats();
        assert_eq!(stats.size_biased_degree(Label::new(0)), 1.0);
        assert_eq!(stats.size_biased_degree(Label::new(1)), 2.0);
    }

    #[test]
    fn second_row_skips_a_tombstoned_first_row() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(3, Label::new(0));
        d.add_vertex(Label::new(1));
        d.insert_hyperedge(vec![0, 3]).unwrap();
        stats_checked_snapshot(&mut d);
        // Deleting the only row touches no stats; row 0 stays a tombstone
        // while rows 1 and 2 arrive, and only they are counted.
        d.delete_hyperedge(&[0, 3]).unwrap();
        assert_eq!((d.parts[0].dead, stat_groups(&d, 0)), (1, 0));
        d.insert_hyperedge(vec![1, 3]).unwrap();
        d.insert_hyperedge(vec![2, 3]).unwrap();
        let graph = stats_checked_snapshot(&mut d);
        let stats = graph.partition(SignatureId::new(0)).stats();
        let group = stats.label_group(Label::new(1)).expect("label-1 group");
        assert_eq!((group.incidences, group.sum_sq_degrees), (2, 4));
    }

    #[test]
    fn compacting_to_one_row_drops_the_stats() {
        let mut d = DynamicHypergraph::new();
        d.add_vertices(4, Label::new(0));
        d.insert_hyperedge(vec![0, 1]).unwrap();
        d.insert_hyperedge(vec![1, 2]).unwrap();
        stats_checked_snapshot(&mut d);
        d.delete_hyperedge(&[1, 2]).unwrap();
        assert_eq!(stat_groups(&d, 0), 1, "two rows, one live: counted");
        stats_checked_snapshot(&mut d);
        assert_eq!(stat_groups(&d, 0), 0, "compacted to one row");
        // The second row counts row 0 again, once.
        d.insert_hyperedge(vec![1, 3]).unwrap();
        let graph = stats_checked_snapshot(&mut d);
        let hub = graph.partition(SignatureId::new(0)).stats().labels[0].clone();
        assert_eq!((hub.distinct_vertices, hub.incidences), (3, 4));
    }

    #[test]
    fn seeded_one_row_partitions_grow() {
        // {0,1} and {1,1} hold one row each, {0,0} two.
        let labels: Vec<Label> = [0u32, 0, 0, 1, 1, 1].map(Label::new).to_vec();
        let mut edges = vec![vec![0, 3], vec![0, 1], vec![3, 4], vec![1, 2]];
        let base = rebuild(&labels, &edges);
        let mut d = DynamicHypergraph::from_hypergraph(&base);
        assert!(unindexed(&d, 0) && unindexed(&d, 2));
        let first = d.snapshot();
        assert_eq!(*first.graph, base);
        assert_eq!((first.partitions_frozen, first.partitions_shared), (0, 3));
        for e in [vec![1, 4], vec![4, 5], vec![2, 5], vec![0, 2]] {
            d.insert_hyperedge(e.clone()).unwrap();
            edges.push(e);
            assert_eq!(*d.snapshot().graph, rebuild(&labels, &edges));
        }
    }

    /// Asserts that `graph`'s partitions take their global ids from one
    /// slab, back to back in partition order.
    fn assert_one_gid_slab(graph: &Hypergraph) {
        let parts = graph.partitions();
        let slab = parts[0].gid_slab();
        let mut first = 0;
        for (sid, p) in parts.iter().enumerate() {
            assert!(Arc::ptr_eq(p.gid_slab(), slab), "partition {sid}");
            assert_eq!(p.global_ids().as_ptr(), slab[first..].as_ptr());
            first += p.len();
        }
        assert_eq!(first, slab.len());
    }

    #[test]
    fn snapshots_share_the_writer_signatures_and_one_gid_slab() {
        let labels: Vec<Label> = [0u32, 0, 1, 1, 2, 2].map(Label::new).to_vec();
        let edges = vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![4, 5], vec![1, 3]];
        let base = rebuild(&labels, &edges);
        assert_one_gid_slab(&base);
        let mut d = DynamicHypergraph::from_hypergraph(&base);
        // The writer adopts the seed's signatures, ids included.
        for (sid, signature) in base.interner().iter() {
            let adopted = d.interner.resolve(sid).labels();
            assert_eq!(adopted.as_ptr(), signature.labels().as_ptr());
        }
        // {0,0} goes extinct, {1,2} and {0,2} are born.
        d.delete_hyperedge(&[0, 1]).unwrap();
        d.insert_hyperedge(vec![3, 4]).unwrap();
        d.insert_hyperedge(vec![4, 5]).unwrap(); // already live: no-op
        d.insert_hyperedge(vec![0, 5]).unwrap();
        let snap = d.snapshot();
        let live = [
            vec![2, 3],
            vec![0, 2],
            vec![4, 5],
            vec![1, 3],
            vec![3, 4],
            vec![0, 5],
        ];
        assert_eq!(*snap.graph, rebuild(&labels, &live));
        for (_, signature) in snap.graph.interner().iter() {
            let writer = d.interner.get(signature).expect("a live signature");
            let writer = d.interner.resolve(writer).labels();
            assert_eq!(signature.labels().as_ptr(), writer.as_ptr());
        }
        assert_one_gid_slab(&snap.graph);
    }

    #[test]
    fn from_hypergraph_adopts_the_seed_bodies() {
        let labels: Vec<Label> = [0u32, 1, 0, 1].map(Label::new).to_vec();
        let edges = vec![vec![0, 1], vec![2, 3], vec![0, 2]];
        let base = rebuild(&labels, &edges);
        let mut d = DynamicHypergraph::from_hypergraph(&base);
        assert_eq!(d.epoch(), 0);
        let snap = d.snapshot();
        assert_eq!(*snap.graph, base);
        // The first snapshot re-freezes nothing of the graph it came from.
        assert_eq!((snap.partitions_frozen, snap.partitions_shared), (0, 2));
        for (got, seed) in snap.graph.partitions().iter().zip(base.partitions()) {
            assert!(Arc::ptr_eq(got.body_arc(), seed.body_arc()));
        }
    }
}
