//! Sharded data plane: N independent [`DynamicHypergraph`] shards behind
//! one writer facade (DESIGN.md §17).
//!
//! Hyperedges are routed to shards by hashing their smallest vertex id, so
//! each shard owns a disjoint slice of the hyperedge set while the vertex
//! set (and its labels) is replicated to every shard. Each shard keeps its
//! own inverted indexes, takes its own update stream and advances its own
//! epoch; [`ShardedHypergraph::snapshot`] scatter-gathers the per-shard
//! snapshots into one merged [`Hypergraph`] whose content is **identical**
//! to what a monolithic [`DynamicHypergraph`] fed the same update stream
//! would produce — the sharded==monolithic differential oracle in
//! `dynamic_differential.rs` holds by construction:
//!
//! * A global insertion sequence number is recorded per live hyperedge, so
//!   the merge lays edges out in exactly the monolithic insertion order
//!   (reinserted edges move to the end, as in [`DynamicHypergraph`]).
//! * Per-partition posting lists are **not** re-indexed: each shard's
//!   already-sorted postings are translated through a monotone shard-row →
//!   merged-row map and unioned with the tournament k-way machinery of
//!   [`crate::setops::union_many_into`] — the same kernels candidate
//!   generation runs on.
//!
//! With `HGMATCH_SHARDS=1` (the default, [`env_shards`]) the facade is a
//! zero-cost pass-through to a single [`DynamicHypergraph`], including its
//! snapshot-identity guarantees (unchanged data returns the same `Arc`).

use std::sync::Arc;

use crate::dynamic::{DynamicHypergraph, SnapshotDelta, UpdateOp};
use crate::error::Result;
use crate::fxhash::{hash_u64, FxHashMap};
use crate::hypergraph::{EdgeLocation, Hypergraph};
use crate::ids::{EdgeId, Label, SignatureId, VertexId};
use crate::inverted::InvertedIndex;
use crate::partition::Partition;
use crate::setops::{union_many_into, MultiwayScratch};
use crate::signature::{Signature, SignatureInterner};
use crate::stats::PartitionStats;

/// Number of shards requested via `HGMATCH_SHARDS` (default 1, i.e. the
/// monolithic data plane).
pub fn env_shards() -> usize {
    std::env::var("HGMATCH_SHARDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Memoized result of the last scatter-gather merge.
struct CachedMerge {
    /// Facade epoch the merge was taken at.
    epoch: u64,
    /// The merged delta handed to callers (same `Arc` until data changes).
    delta: SnapshotDelta,
    /// Merged signature assignment, by merged [`SignatureId`] — the basis
    /// of the next merge's `sids_stable` flag.
    sigs: Vec<Signature>,
}

/// A hash-sharded dynamic hypergraph: the writer facade over N independent
/// [`DynamicHypergraph`] shards. See the module docs for the layout.
pub struct ShardedHypergraph {
    shards: Vec<DynamicHypergraph>,
    /// Global insertion sequence of every **live** hyperedge, keyed by its
    /// canonical (sorted, deduplicated) vertex list.
    seq_of_key: FxHashMap<Vec<u32>, u64>,
    next_seq: u64,
    /// Facade epoch: bumps on every effective mutation across any shard.
    epoch: u64,
    cached: Option<CachedMerge>,
}

impl ShardedHypergraph {
    /// Creates an empty sharded hypergraph with `num_shards ≥ 1` shards.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        Self {
            shards: (0..num_shards).map(|_| DynamicHypergraph::new()).collect(),
            seq_of_key: FxHashMap::default(),
            next_seq: 0,
            epoch: 0,
            cached: None,
        }
    }

    /// Shards an existing static hypergraph: vertices are replicated to all
    /// shards, hyperedges routed in their original insertion (edge id)
    /// order, so the first merged snapshot equals `h` itself.
    pub fn from_hypergraph(h: &Hypergraph, num_shards: usize) -> Result<Self> {
        let mut sharded = Self::new(num_shards);
        for &label in h.labels() {
            sharded.add_vertex(label);
        }
        for (_, vs) in h.iter_edges() {
            let inserted = sharded.insert_hyperedge(vs.to_vec())?;
            debug_assert!(inserted, "static hypergraphs hold no duplicate edges");
        }
        Ok(sharded)
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices (replicated, so every shard agrees).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.shards[0].num_vertices()
    }

    /// Number of live hyperedges across all shards.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.seq_of_key.len()
    }

    /// Facade epoch: advances on every effective mutation on any shard.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Shard index owning the hyperedge with canonical key `key`.
    #[inline]
    fn route(&self, key: &[u32]) -> usize {
        let anchor = key.first().copied().unwrap_or(0);
        (hash_u64(anchor as u64) % self.shards.len() as u64) as usize
    }

    /// Sorts and deduplicates a vertex list into the canonical edge key.
    fn canonical(mut vertices: Vec<u32>) -> Vec<u32> {
        vertices.sort_unstable();
        vertices.dedup();
        vertices
    }

    /// Adds a vertex with `label` to every shard; all shards assign the
    /// same id, which is returned.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let mut id = None;
        for shard in &mut self.shards {
            let v = shard.add_vertex(label);
            debug_assert!(
                id.is_none_or(|prev| prev == v),
                "shards disagree on vertex ids"
            );
            id = Some(v);
        }
        self.epoch += 1;
        id.expect("at least one shard")
    }

    /// Whether a hyperedge with exactly this vertex set is live.
    pub fn contains_edge(&self, vertices: &[u32]) -> bool {
        let key = Self::canonical(vertices.to_vec());
        self.shards[self.route(&key)].contains_edge(&key)
    }

    /// Inserts a hyperedge, routing it to its shard. Returns `Ok(false)` if
    /// an identical hyperedge is already live (no change).
    pub fn insert_hyperedge(&mut self, vertices: Vec<u32>) -> Result<bool> {
        let key = Self::canonical(vertices);
        let shard = self.route(&key);
        match self.shards[shard].insert_hyperedge(key.clone())? {
            Some(_) => {
                self.seq_of_key.insert(key, self.next_seq);
                self.next_seq += 1;
                self.epoch += 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Deletes the hyperedge with exactly this vertex set. Returns
    /// `Ok(false)` if no such hyperedge is live.
    pub fn delete_hyperedge(&mut self, vertices: &[u32]) -> Result<bool> {
        let key = Self::canonical(vertices.to_vec());
        let shard = self.route(&key);
        if self.shards[shard].delete_hyperedge(&key)? {
            self.seq_of_key.remove(&key);
            self.epoch += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Applies one update-stream operation; returns whether it changed the
    /// hypergraph (mirrors [`DynamicHypergraph::apply`]).
    pub fn apply(&mut self, op: &UpdateOp) -> Result<bool> {
        match op {
            UpdateOp::AddVertex(label) => {
                self.add_vertex(*label);
                Ok(true)
            }
            UpdateOp::Insert(vs) => self.insert_hyperedge(vs.clone()),
            UpdateOp::Delete(vs) => self.delete_hyperedge(vs),
        }
    }

    /// Takes a consistent snapshot of the whole sharded hypergraph.
    ///
    /// With one shard this is a pass-through. Otherwise the per-shard
    /// snapshots are scatter-gathered into one merged graph laid out in
    /// global insertion order; if nothing changed since the last call, the
    /// previous delta (same `Arc`) is returned.
    pub fn snapshot(&mut self) -> SnapshotDelta {
        if self.shards.len() == 1 {
            return self.shards[0].snapshot();
        }
        if let Some(cached) = &self.cached {
            if cached.epoch == self.epoch {
                return cached.delta.clone();
            }
        }
        self.merge_snapshots()
    }

    /// The scatter-gather merge (slow path of [`Self::snapshot`]); stores
    /// the result in `self.cached` and returns it.
    fn merge_snapshots(&mut self) -> SnapshotDelta {
        let deltas: Vec<SnapshotDelta> = self.shards.iter_mut().map(|s| s.snapshot()).collect();
        let labels: Vec<Label> = deltas[0].graph.labels().to_vec();

        // Lay every live hyperedge out in global insertion order.
        let mut order: Vec<(u64, usize, SignatureId, u32)> =
            Vec::with_capacity(self.seq_of_key.len());
        for (shard, delta) in deltas.iter().enumerate() {
            for p in delta.graph.partitions() {
                for (row, vs) in p.iter_rows() {
                    let seq = *self
                        .seq_of_key
                        .get(vs)
                        .expect("live shard edge must carry a sequence number");
                    order.push((seq, shard, p.signature(), row));
                }
            }
        }
        order.sort_unstable_by_key(|&(seq, ..)| seq);

        // First-encounter interning in global order reproduces the
        // monolithic signature assignment; build the merged partition
        // tables and the monotone shard-row → merged-row maps.
        let mut interner = SignatureInterner::new();
        let mut vertices_of: Vec<Vec<u32>> = Vec::new();
        let mut global_ids_of: Vec<Vec<EdgeId>> = Vec::new();
        let mut row_maps: Vec<FxHashMap<(usize, SignatureId), Vec<u32>>> = Vec::new();
        let mut locator = Vec::with_capacity(order.len());
        for (e, &(_, shard, shard_sid, shard_row)) in order.iter().enumerate() {
            let shard_graph = &deltas[shard].graph;
            let sig = shard_graph.interner().resolve(shard_sid);
            let sid = interner.intern(sig.clone());
            if sid.index() == vertices_of.len() {
                vertices_of.push(Vec::new());
                global_ids_of.push(Vec::new());
                row_maps.push(FxHashMap::default());
            }
            let merged_row = global_ids_of[sid.index()].len() as u32;
            let p = &shard_graph.partitions()[shard_sid.index()];
            vertices_of[sid.index()].extend_from_slice(p.row(shard_row));
            global_ids_of[sid.index()].push(EdgeId::from_index(e));
            locator.push(EdgeLocation {
                signature: sid,
                row: merged_row,
            });
            let map = row_maps[sid.index()].entry((shard, shard_sid)).or_default();
            debug_assert_eq!(map.len(), shard_row as usize, "shard rows arrive in order");
            map.push(merged_row);
        }

        // Merge per-shard postings per key with the tournament k-way union
        // kernel; translation through the monotone row maps keeps every
        // input sorted, so no re-indexing is needed.
        let mut scratch = MultiwayScratch::new();
        let mut partitions: Vec<Arc<Partition>> = Vec::with_capacity(vertices_of.len());
        for (sid_idx, (vertices, global_ids)) in
            vertices_of.into_iter().zip(global_ids_of).enumerate()
        {
            let sid = SignatureId::from_index(sid_idx);
            let arity = interner.resolve(sid).arity() as u32;
            let rows = global_ids.len();

            // key → translated posting list per contributing shard.
            let mut translated: std::collections::BTreeMap<u32, Vec<Vec<u32>>> =
                std::collections::BTreeMap::new();
            for (&(shard, shard_sid), map) in &row_maps[sid_idx] {
                let p = &deltas[shard].graph.partitions()[shard_sid.index()];
                for (v, posting) in p.index().iter() {
                    let list: Vec<u32> = posting
                        .to_sorted()
                        .into_iter()
                        .map(|r| map[r as usize])
                        .collect();
                    debug_assert!(crate::setops::is_strictly_sorted(&list));
                    translated.entry(v).or_default().push(list);
                }
            }
            let mut cells: Vec<(u32, Vec<u32>)> = Vec::with_capacity(translated.len());
            let mut merged = Vec::new();
            for (v, mut lists) in translated {
                if lists.len() == 1 {
                    cells.push((v, lists.pop().expect("one list")));
                } else {
                    let mut inputs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
                    merged.clear();
                    union_many_into(&mut inputs, &mut merged, &mut scratch);
                    cells.push((v, merged.clone()));
                }
            }
            let index = InvertedIndex::from_sorted_postings(
                cells.iter().map(|(v, list)| (*v, list.as_slice())),
                rows as u32,
            );
            let stats = PartitionStats::recompute_from_index(&index, rows, &labels);
            partitions.push(Arc::new(Partition::from_parts(
                sid, arity, vertices, global_ids, index, stats,
            )));
        }

        let sigs: Vec<Signature> = interner.iter().map(|(_, s)| s.clone()).collect();
        let sids_stable = match &self.cached {
            // Ids stay meaningful iff every previously assigned id still
            // denotes the same signature (a removed suffix is harmless).
            Some(prev) => sigs.iter().zip(prev.sigs.iter()).all(|(a, b)| a == b),
            // Like the monolithic first snapshot: no predecessor to be
            // stable against.
            None => false,
        };
        let mut touched_labels: Vec<Label> = deltas
            .iter()
            .flat_map(|d| d.touched_labels.clone())
            .collect();
        touched_labels.sort_unstable();
        touched_labels.dedup();

        // The merge re-derives every merged partition from the shards'
        // postings, so none shares a body with the previous merged epoch.
        let partitions_frozen = partitions.len();
        let graph = Arc::new(Hypergraph::assemble(labels, interner, partitions, locator));
        let delta = SnapshotDelta {
            graph,
            epoch: self.epoch,
            touched_labels,
            sids_stable,
            partitions_frozen,
            partitions_shared: 0,
        };
        self.cached = Some(CachedMerge {
            epoch: self.epoch,
            delta: delta.clone(),
            sigs,
        });
        delta
    }
}

impl std::fmt::Debug for ShardedHypergraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHypergraph")
            .field("shards", &self.shards.len())
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    fn monolithic_and_sharded(num_shards: usize) -> (DynamicHypergraph, ShardedHypergraph) {
        (DynamicHypergraph::new(), ShardedHypergraph::new(num_shards))
    }

    fn apply_script(
        mono: &mut DynamicHypergraph,
        sharded: &mut ShardedHypergraph,
        ops: &[UpdateOp],
    ) {
        for op in ops {
            let a = mono.apply(op).unwrap();
            let b = sharded.apply(op).unwrap();
            assert_eq!(a, b, "divergent effect for {op:?}");
        }
    }

    fn script() -> Vec<UpdateOp> {
        use UpdateOp::*;
        let mut ops = vec![AddVertex(Label::new(0)); 12];
        ops.extend([AddVertex(Label::new(1)), AddVertex(Label::new(2))]);
        ops.extend([
            Insert(vec![0, 1, 2]),
            Insert(vec![2, 3]),
            Insert(vec![4, 5, 6]),
            Insert(vec![0, 1, 2]), // duplicate: no-op
            Delete(vec![2, 3]),
            Insert(vec![7, 8]),
            Insert(vec![2, 3]), // reinsert moves to end
            Insert(vec![9, 10, 11, 12]),
            Delete(vec![4, 5, 6]),
            Insert(vec![0, 13]),
        ]);
        ops
    }

    #[test]
    fn sharded_snapshot_equals_monolithic() {
        for num_shards in [1, 2, 3, 4, 7] {
            let (mut mono, mut sharded) = monolithic_and_sharded(num_shards);
            apply_script(&mut mono, &mut sharded, &script());
            assert_eq!(mono.num_edges(), sharded.num_edges());
            assert_eq!(mono.num_vertices(), sharded.num_vertices());
            let a = mono.snapshot();
            let b = sharded.snapshot();
            assert_eq!(
                *a.graph, *b.graph,
                "sharded ({num_shards}) merge diverges from monolithic"
            );
        }
    }

    #[test]
    fn from_hypergraph_first_snapshot_is_identity() {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(10, Label::new(0));
        b.add_vertex(Label::new(3));
        b.add_edge(vec![0, 1, 2]).unwrap();
        b.add_edge(vec![3, 10]).unwrap();
        b.add_edge(vec![4, 5, 6, 7]).unwrap();
        let h = b.build().unwrap();
        for num_shards in [1, 2, 4] {
            let mut sharded = ShardedHypergraph::from_hypergraph(&h, num_shards).unwrap();
            assert_eq!(*sharded.snapshot().graph, h);
        }
    }

    #[test]
    fn unchanged_snapshot_returns_same_arc() {
        let (mut mono, mut sharded) = monolithic_and_sharded(3);
        apply_script(&mut mono, &mut sharded, &script());
        let a = sharded.snapshot();
        let b = sharded.snapshot();
        assert!(Arc::ptr_eq(&a.graph, &b.graph));
        // A mutation invalidates the memo.
        assert!(sharded.insert_hyperedge(vec![1, 2, 3]).unwrap());
        let c = sharded.snapshot();
        assert!(!Arc::ptr_eq(&a.graph, &c.graph));
    }

    #[test]
    fn first_snapshot_has_no_predecessor() {
        let (mut mono, mut sharded) = monolithic_and_sharded(2);
        apply_script(&mut mono, &mut sharded, &script());
        let delta = sharded.snapshot();
        assert!(
            !delta.sids_stable,
            "first merged snapshot has no predecessor"
        );
        assert!(!delta.touched_labels.is_empty());
        // Inserting into an existing partition keeps signature ids stable.
        assert!(sharded.insert_hyperedge(vec![3, 4]).unwrap());
        let next = sharded.snapshot();
        assert!(next.sids_stable);
    }

    #[test]
    fn duplicate_and_missing_ops_are_no_ops() {
        let mut sharded = ShardedHypergraph::new(4);
        sharded.add_vertex(Label::new(0));
        sharded.add_vertex(Label::new(0));
        assert!(sharded.insert_hyperedge(vec![0, 1]).unwrap());
        assert!(!sharded.insert_hyperedge(vec![1, 0]).unwrap());
        assert!(sharded.contains_edge(&[0, 1]));
        assert!(!sharded.delete_hyperedge(&[0]).unwrap());
        assert!(sharded.delete_hyperedge(&[0, 1]).unwrap());
        assert!(!sharded.contains_edge(&[0, 1]));
        assert_eq!(sharded.num_edges(), 0);
    }

    #[test]
    fn env_shards_parses() {
        // Not set in the test environment unless CI exports it; both are valid.
        let n = env_shards();
        assert!(n >= 1);
    }
}
