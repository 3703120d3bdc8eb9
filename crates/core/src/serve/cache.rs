//! The plan cache: repeated query shapes skip Algorithm 3.
//!
//! A serving workload repeats query shapes constantly (the same template
//! with different parameters, the same dashboard query every few seconds),
//! so the server memoises compiled [`Plan`]s. The cache key is the query's
//! *canonical form*: its vertex-label vector plus its canonicalised
//! (sorted) hyperedge lists — the same canonicalisation
//! [`hgmatch_hypergraph::Signature`] applies to label multisets, lifted to
//! the whole query. The per-edge `Signature`s themselves are *not* stored
//! in the key: they are a pure function of the labels and edge lists, so
//! they cannot distinguish any queries the key does not already
//! distinguish — they are rebuilt (and interned) during planning on a
//! miss, and a hit touches only the label/edge comparison.
//!
//! Plans are valid for exactly one data hypergraph (the planner orders by
//! the data's signature cardinalities and steps embed `SignatureId`s of its
//! interner). Under dynamic updates the server publishes a new snapshot per
//! epoch ([`MatchServer::update_data`]), so every entry is tagged with the
//! epoch it is valid for: a key match whose epoch lags the current one is a
//! miss. [`PlanCache::revalidate`] decides, per published epoch, which
//! entries survive:
//!
//! * when partition ids shifted (`sids_stable == false`) nothing survives —
//!   cached plans embed `SignatureId`s that may now dangle;
//! * an entry whose query labels are disjoint from the update's touched
//!   labels saw no cardinality change: re-tagged to the new epoch;
//! * an entry whose labels *were* touched is checked for **stats drift**
//!   (DESIGN.md §13.4): each entry carries the per-signature cardinalities
//!   its plan was costed against, and as long as the relative change stays
//!   within the replan threshold ([`crate::ServeConfig::replan_drift`])
//!   the plan is still near-optimal and its partition ids are still
//!   valid, so it is re-tagged; past the threshold
//!   (including any signature appearing or going extinct — infinite drift)
//!   it is dropped and counted in `plans_replanned`, forcing a fresh
//!   cost-based plan on the shape's next submission.
//!
//! Eviction is least-recently-used over a bounded capacity; hits, misses,
//! invalidations and replans are observable through [`MatchServer::stats`].
//!
//! [`MatchServer::update_data`]: super::MatchServer::update_data
//!
//! [`MatchServer`]: super::MatchServer
//! [`MatchServer::stats`]: super::MatchServer::stats

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hgmatch_hypergraph::fxhash::FxHashMap;
use hgmatch_hypergraph::{Hypergraph, Label, Signature};
use parking_lot::Mutex;

use crate::error::Result;
use crate::plan::{Plan, Planner};
use crate::query::QueryGraph;

/// Canonical cache key of a query hypergraph.
///
/// Two queries collide exactly when they have the same vertex labels and
/// the same (sorted) hyperedge vertex lists — i.e. when they are the *same*
/// labelled hypergraph, for which the planner provably produces the same
/// plan against a fixed data hypergraph. Isomorphic-but-relabelled queries
/// plan afresh: full canonical labelling would cost more than Algorithm 3
/// saves on the paper's ≤ 6-edge queries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    labels: Box<[Label]>,
    edges: Box<[Box<[u32]>]>,
}

impl PlanKey {
    pub(crate) fn new(query: &Hypergraph) -> Self {
        Self {
            labels: query.labels().into(),
            edges: query.iter_edges().map(|(_, vs)| Box::from(vs)).collect(),
        }
    }
}

/// What [`PlanCache::plan_for`] hands a submission: the plan plus the
/// per-shape values a hit would otherwise derive again per query.
#[derive(Debug)]
pub(crate) struct Planned {
    pub(crate) plan: Arc<Plan>,
    /// The query graph the plan was compiled from, shared with the cache
    /// entry (mid-query re-planning needs it; a hit must not rebuild it).
    pub(crate) query: Arc<QueryGraph>,
    /// The canonical key the lookup built, for [`PlanCache::write_back`];
    /// `None` when caching is disabled.
    pub(crate) key: Option<PlanKey>,
    /// Whether planning was skipped.
    pub(crate) cached: bool,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<Plan>,
    /// Built once per shape; epoch-independent (a function of the query
    /// hypergraph alone), so it survives `write_back` and `revalidate`.
    query: Arc<QueryGraph>,
    last_used: u64,
    /// Data epoch this plan is valid for. A key match at a stale epoch is
    /// a miss (the entry is replaced by the re-planned result).
    epoch: u64,
    /// Stats fingerprint: the distinct query-edge signatures and the
    /// cardinality each had in the snapshot the plan was costed against.
    /// Drift is always measured against *plan time*, so it accumulates
    /// across label-touching epochs until the replan threshold trips.
    sig_cards: Box<[(Signature, u64)]>,
}

impl Entry {
    /// Maximum relative cardinality drift of this entry's signatures
    /// against `data`, with `f64::INFINITY` for a signature that appeared
    /// or went extinct since plan time (such a plan may be infeasible-
    /// compiled or embed a dangling partition id — never keep it).
    fn drift(&self, data: &Hypergraph) -> f64 {
        let mut worst = 0.0f64;
        for (sig, old) in self.sig_cards.iter() {
            let new = data.cardinality(sig) as u64;
            let drift = match (*old, new) {
                (0, 0) => 0.0,
                (0, _) | (_, 0) => f64::INFINITY,
                (old, new) => old.abs_diff(new) as f64 / old as f64,
            };
            worst = worst.max(drift);
        }
        worst
    }
}

/// The per-entry fingerprint: distinct signatures of the query's edges and
/// their cardinality in `data`, sorted for deterministic comparison.
fn fingerprint(query: &QueryGraph, data: &Hypergraph) -> Box<[(Signature, u64)]> {
    let mut sigs: Vec<&Signature> = (0..query.num_edges()).map(|e| query.signature(e)).collect();
    sigs.sort_unstable();
    sigs.dedup();
    sigs.into_iter()
        .map(|sig| (sig.clone(), data.cardinality(sig) as u64))
        .collect()
}

#[derive(Debug, Default)]
struct Inner {
    map: FxHashMap<PlanKey, Entry>,
    tick: u64,
}

/// A bounded LRU cache of compiled plans, keyed by canonical query form
/// and tagged with the data epoch each plan was compiled against.
#[derive(Debug)]
pub(crate) struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    replanned: AtomicU64,
    corrections: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (0 disables
    /// caching: every submission plans afresh).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            replanned: AtomicU64::new(0),
            corrections: AtomicU64::new(0),
        }
    }

    /// Returns the plan for `query` against `data` (the snapshot of
    /// `epoch`), reusing a cached one when the canonical form matches at
    /// the same epoch. A hit derives nothing from `query` beyond the key.
    pub(crate) fn plan_for(
        &self,
        query: &Hypergraph,
        data: &Hypergraph,
        epoch: u64,
    ) -> Result<Planned> {
        if self.capacity == 0 {
            let q = Arc::new(QueryGraph::new(query)?);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(Planned {
                plan: Arc::new(Planner::plan(&q, data)?),
                query: q,
                key: None,
                cached: false,
            });
        }

        let key = PlanKey::new(query);
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                if entry.epoch == epoch {
                    entry.last_used = tick;
                    let (plan, query) = (Arc::clone(&entry.plan), Arc::clone(&entry.query));
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Planned {
                        plan,
                        query,
                        key: Some(key),
                        cached: true,
                    });
                }
                // Stale epoch (e.g. inserted by a submission racing an
                // update): fall through to re-plan and overwrite.
            }
        }

        // Plan outside the lock: planning is cheap but not free, and
        // submissions should not serialise behind each other's planning.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let q = Arc::new(QueryGraph::new(query)?);
        let plan = Arc::new(Planner::plan(&q, data)?);
        let sig_cards = fingerprint(&q, data);

        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // Evict the least-recently-used entry (linear scan: serving
            // caches are small, eviction is rare).
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        let entry = inner.map.entry(key.clone()).or_insert_with(|| Entry {
            plan: Arc::clone(&plan),
            query: Arc::clone(&q),
            last_used: tick,
            epoch,
            sig_cards: sig_cards.clone(),
        });
        if entry.epoch < epoch {
            // Overwrite a stale entry in place; never downgrade a fresher
            // one a racing submitter installed meanwhile.
            *entry = Entry {
                plan: Arc::clone(&plan),
                query: Arc::clone(&q),
                last_used: tick,
                epoch,
                sig_cards,
            };
        }
        Ok(Planned {
            plan,
            query: q,
            key: Some(key),
            cached: false,
        })
    }

    /// Writes a mid-query corrected plan (DESIGN.md §15) back to `key`'s
    /// entry, so repeated submissions of the shape start from the
    /// observation-corrected order instead of re-walking into the same
    /// misestimate. Overwrites only an entry still tagged with `epoch` —
    /// the epoch the correcting query was pinned to — never one a newer
    /// epoch has re-planned (its statistics supersede the observations),
    /// and never inserts: an evicted shape has no stats fingerprint to
    /// carry. Returns whether the correction landed.
    pub(crate) fn write_back(&self, key: &PlanKey, plan: Arc<Plan>, epoch: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(key) {
            if entry.epoch == epoch {
                entry.plan = plan;
                entry.last_used = tick;
                drop(inner);
                self.corrections.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Reconciles the cache with a newly published data epoch (`data` is
    /// that epoch's snapshot). When `sids_stable` is false every entry is
    /// dropped. Otherwise entries whose query labels are disjoint from
    /// `touched_labels` re-tag to `epoch` unchanged (no cardinality they
    /// depend on moved); label-touched entries re-tag while their
    /// cardinality drift since *plan time* stays within `replan_drift`,
    /// and are dropped — counted in `plans_replanned` — once it exceeds it
    /// (so the next submission of the shape plans afresh against the new
    /// statistics).
    ///
    /// Only entries at the epoch being superseded (`epoch - 1`) are
    /// eligible to survive: an entry lagging further behind was inserted
    /// by a submission that raced an earlier update (planning happens
    /// outside the data lock) and never passed that update's invalidation,
    /// so its plan may embed re-numbered partition ids even though its
    /// labels are disjoint from *this* update's.
    pub(crate) fn revalidate(
        &self,
        epoch: u64,
        touched_labels: &[Label],
        sids_stable: bool,
        data: &Hypergraph,
        replan_drift: f64,
    ) {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        let mut replanned = 0u64;
        if sids_stable {
            inner.map.retain(|key, entry| {
                if entry.epoch + 1 != epoch {
                    return false; // skipped an epoch's sweep — see above
                }
                let touched = key.labels.iter().any(|l| touched_labels.contains(l));
                if touched && entry.drift(data) > replan_drift {
                    replanned += 1;
                    return false;
                }
                entry.epoch = epoch;
                true
            });
        } else {
            inner.map.clear();
        }
        let dropped = (before - inner.map.len()) as u64;
        drop(inner);
        // `plans_invalidated` counts every drop; `plans_replanned` the
        // drift-driven subset.
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        self.replanned.fetch_add(replanned, Ordering::Relaxed);
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (planning happened).
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by [`PlanCache::revalidate`] so far.
    pub(crate) fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Entries dropped because their stats drifted past the replan
    /// threshold (a subset of [`PlanCache::invalidated`]).
    pub(crate) fn replanned(&self) -> u64 {
        self.replanned.load(Ordering::Relaxed)
    }

    /// Corrected plans written back by adaptive queries
    /// ([`PlanCache::write_back`]) so far.
    pub(crate) fn corrections(&self) -> u64 {
        self.corrections.load(Ordering::Relaxed)
    }

    /// Plans currently cached.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgmatch_hypergraph::HypergraphBuilder;

    fn tiny_data() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 1, 0, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![0, 1]).unwrap();
        b.add_edge(vec![2, 3]).unwrap();
        b.build().unwrap()
    }

    fn ab_query(extra: u32) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(0));
        b.add_vertex(Label::new(extra));
        b.add_edge(vec![0, 1]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn hit_on_identical_query() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let Planned {
            plan: p1,
            cached: hit1,
            ..
        } = cache.plan_for(&ab_query(1), &data, 0).unwrap();
        let Planned {
            plan: p2,
            cached: hit2,
            ..
        } = cache.plan_for(&ab_query(1), &data, 0).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn different_labels_miss() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        cache.plan_for(&ab_query(1), &data, 0).unwrap();
        let hit = cache.plan_for(&ab_query(0), &data, 0).unwrap().cached;
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_evicts_lru() {
        let data = tiny_data();
        let cache = PlanCache::new(2);
        let q1 = ab_query(1);
        let q2 = ab_query(0);
        cache.plan_for(&q1, &data, 0).unwrap(); // {q1}
        cache.plan_for(&q2, &data, 0).unwrap(); // {q1, q2}
        cache.plan_for(&q1, &data, 0).unwrap(); // touch q1

        // A third shape evicts q2 (least recently used), not q1.
        let mut b = HypergraphBuilder::new();
        b.add_vertices(3, Label::new(0));
        b.add_edge(vec![0, 1, 2]).unwrap();
        let q3 = b.build().unwrap();
        cache.plan_for(&q3, &data, 0).unwrap();
        assert_eq!(cache.len(), 2);

        let hit1 = cache.plan_for(&q1, &data, 0).unwrap().cached;
        assert!(hit1, "recently-used entry must survive eviction");
        let hit2 = cache.plan_for(&q2, &data, 0).unwrap().cached;
        assert!(!hit2, "LRU entry must have been evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let data = tiny_data();
        let cache = PlanCache::new(0);
        cache.plan_for(&ab_query(1), &data, 0).unwrap();
        let hit = cache.plan_for(&ab_query(1), &data, 0).unwrap().cached;
        assert!(!hit);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn planning_errors_propagate() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let empty = HypergraphBuilder::new().build().unwrap();
        assert!(cache.plan_for(&empty, &data, 0).is_err());
    }

    #[test]
    fn stale_epoch_is_a_miss() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        cache.plan_for(&ab_query(1), &data, 0).unwrap();
        let hit = cache.plan_for(&ab_query(1), &data, 1).unwrap().cached;
        assert!(!hit, "entry tagged epoch 0 must not serve epoch 1");
        // The entry was upgraded in place: epoch 1 now hits.
        let hit = cache.plan_for(&ab_query(1), &data, 1).unwrap().cached;
        assert!(hit);
        assert_eq!(cache.len(), 1);
    }

    /// `tiny_data` with `extra` additional {A,B} edges (drifts the {0,1}
    /// signature's cardinality from 2 to `2 + extra`).
    fn drifted_data(extra: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for &l in &[0u32, 1, 0, 1] {
            b.add_vertex(Label::new(l));
        }
        b.add_edge(vec![0, 1]).unwrap();
        b.add_edge(vec![2, 3]).unwrap();
        for _ in 0..extra {
            let a = b.add_vertex(Label::new(0)).raw();
            let c = b.add_vertex(Label::new(1)).raw();
            b.add_edge(vec![a, c]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn revalidate_keeps_touched_entries_within_drift() {
        let data = tiny_data();
        let cache = PlanCache::new(8);
        cache.plan_for(&ab_query(1), &data, 0).unwrap(); // {0,1}: card 2
                                                         // Label 0 touched, but cardinality moved 2 → 3 (drift 0.5 ≤ 0.5):
                                                         // the plan stays near-optimal and is re-tagged, not re-planned.
        let drifted = drifted_data(1);
        cache.revalidate(1, &[Label::new(0)], true, &drifted, 0.5);
        assert_eq!(
            (cache.len(), cache.invalidated(), cache.replanned()),
            (1, 0, 0)
        );
        let hit = cache.plan_for(&ab_query(1), &drifted, 1).unwrap().cached;
        assert!(hit, "below-threshold drift keeps the entry");
    }

    #[test]
    fn revalidate_replans_entries_past_drift_threshold() {
        let data = tiny_data();
        let cache = PlanCache::new(8);
        cache.plan_for(&ab_query(1), &data, 0).unwrap(); // {0,1}: card 2
        cache.plan_for(&ab_query(2), &data, 0).unwrap(); // labels {0,2}: card 0
                                                         // Cardinality 2 → 6 is drift 2.0 > 0.5: dropped and counted as a
                                                         // replan. The {0,2} entry's signature stayed at 0 (drift 0) but
                                                         // its labels were touched too — label 0 — so it is drift-checked
                                                         // and kept.
        let drifted = drifted_data(4);
        cache.revalidate(1, &[Label::new(0), Label::new(1)], true, &drifted, 0.5);
        assert_eq!(
            (cache.len(), cache.invalidated(), cache.replanned()),
            (1, 1, 1)
        );
        let hit = cache.plan_for(&ab_query(1), &drifted, 1).unwrap().cached;
        assert!(!hit, "drifted entry was dropped");
        let hit = cache.plan_for(&ab_query(2), &drifted, 1).unwrap().cached;
        assert!(hit, "undrifted entry survived");
    }

    #[test]
    fn signature_extinction_or_birth_is_infinite_drift() {
        let data = drifted_data(0);
        let cache = PlanCache::new(8);
        cache.plan_for(&ab_query(1), &data, 0).unwrap(); // {0,1}: card 2
                                                         // New data where the {0,1} signature is extinct: the plan may
                                                         // embed a dangling partition id, so even a huge threshold drops
                                                         // it.
        let mut b = HypergraphBuilder::new();
        b.add_vertices(2, Label::new(0));
        b.add_edge(vec![0, 1]).unwrap();
        let extinct = b.build().unwrap();
        cache.revalidate(1, &[Label::new(0), Label::new(1)], true, &extinct, 1e12);
        assert_eq!((cache.len(), cache.replanned()), (0, 1));
    }

    #[test]
    fn revalidate_drops_entries_that_skipped_an_epoch() {
        let data = tiny_data();
        let cache = PlanCache::new(8);
        // An entry a racing submitter inserted at epoch 0 *after* the
        // epoch-1 invalidation swept (so it never passed it)…
        cache.plan_for(&ab_query(1), &data, 0).unwrap();
        // …must not be promoted by a later label-disjoint update: it is
        // dropped even though no touched label matches.
        cache.revalidate(2, &[Label::new(9)], true, &data, 0.5);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidated(), 1);
        assert_eq!(cache.replanned(), 0, "an epoch skip is not a replan");
        // The normal chain (entry at the superseded epoch) still carries.
        cache.plan_for(&ab_query(1), &data, 2).unwrap();
        cache.revalidate(3, &[Label::new(9)], true, &data, 0.5);
        let hit = cache.plan_for(&ab_query(1), &data, 3).unwrap().cached;
        assert!(hit, "contiguous-epoch entry survives");
    }

    #[test]
    fn write_back_replaces_same_epoch_entry() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let q = ab_query(1);
        let original = cache.plan_for(&q, &data, 0).unwrap().plan;
        let corrected = Arc::new({
            let qg = QueryGraph::new(&q).unwrap();
            Planner::plan(&qg, &data).unwrap()
        });
        assert!(cache.write_back(&PlanKey::new(&q), Arc::clone(&corrected), 0));
        assert_eq!(cache.corrections(), 1);
        let Planned {
            plan: served,
            cached: hit,
            ..
        } = cache.plan_for(&q, &data, 0).unwrap();
        assert!(hit);
        assert!(
            Arc::ptr_eq(&served, &corrected) && !Arc::ptr_eq(&served, &original),
            "subsequent hits must serve the corrected plan"
        );
    }

    #[test]
    fn write_back_never_clobbers_newer_epochs_or_absent_shapes() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let q = ab_query(1);
        cache.plan_for(&q, &data, 0).unwrap();
        // The entry moved on to epoch 1 (re-planned against fresher
        // statistics): a stale epoch-0 correction must not land.
        let newer = cache.plan_for(&q, &data, 1).unwrap().plan;
        let stale = Arc::new({
            let qg = QueryGraph::new(&q).unwrap();
            Planner::plan(&qg, &data).unwrap()
        });
        assert!(!cache.write_back(&PlanKey::new(&q), Arc::clone(&stale), 0));
        let Planned {
            plan: served,
            cached: hit,
            ..
        } = cache.plan_for(&q, &data, 1).unwrap();
        assert!(hit && Arc::ptr_eq(&served, &newer));
        // Absent shapes and disabled caches are no-ops.
        assert!(!cache.write_back(&PlanKey::new(&ab_query(0)), Arc::clone(&stale), 1));
        assert!(!PlanCache::new(0).write_back(&PlanKey::new(&q), stale, 0));
        assert_eq!(cache.corrections(), 0);
    }

    #[test]
    fn stale_write_back_after_revalidate_never_resurrects() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let q = ab_query(1);
        let plan = cache.plan_for(&q, &data, 0).unwrap().plan;
        // The sweep dropped the entry (sids shifted): a correction pinned
        // to the swept epoch must not re-insert a plan that may embed
        // dangling partition ids.
        cache.revalidate(1, &[], false, &data, 0.5);
        assert!(!cache.write_back(&PlanKey::new(&q), plan, 0));
        assert_eq!((cache.len(), cache.corrections()), (0, 0));
    }

    /// Hammers `plan_for`, `write_back` and `revalidate` from racing
    /// threads over a capacity-2 cache, so corrections land while their
    /// entry is being evicted by other shapes and while the epoch moves
    /// under them. No interleaving may deadlock, lose a counter update,
    /// overgrow the capacity, or land a correction on a dead entry.
    #[test]
    fn write_back_races_eviction_and_epoch_bumps() {
        use std::sync::atomic::AtomicU64;

        let data = tiny_data();
        let cache = PlanCache::new(2);
        let epoch = AtomicU64::new(0);
        let plan_calls = AtomicU64::new(0);
        let landed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (cache, data, epoch) = (&cache, &data, &epoch);
                let (plan_calls, landed) = (&plan_calls, &landed);
                scope.spawn(move || {
                    let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                    for _ in 0..300 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let shape = ab_query(((state >> 33) % 5) as u32);
                        let e = epoch.load(Ordering::Relaxed);
                        let plan = cache.plan_for(&shape, data, e).unwrap().plan;
                        plan_calls.fetch_add(1, Ordering::Relaxed);
                        if state & 1 == 0 && cache.write_back(&PlanKey::new(&shape), plan, e) {
                            landed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            let (cache, data, epoch) = (&cache, &data, &epoch);
            scope.spawn(move || {
                for i in 0..60u64 {
                    let e = epoch.fetch_add(1, Ordering::Relaxed) + 1;
                    let touched = [Label::new((i % 5) as u32)];
                    cache.revalidate(e, &touched, i % 4 != 3, data, 0.5);
                    std::thread::yield_now();
                }
            });
        });
        assert!(cache.len() <= 2, "eviction must bound the cache");
        assert_eq!(
            cache.hits() + cache.misses(),
            plan_calls.load(Ordering::Relaxed),
            "every plan_for is exactly one hit or one miss"
        );
        assert_eq!(
            cache.corrections(),
            landed.load(Ordering::Relaxed),
            "corrections counts exactly the write_backs that landed"
        );
    }

    #[test]
    fn revalidate_clears_everything_when_sids_shift() {
        let data = tiny_data();
        let cache = PlanCache::new(8);
        cache.plan_for(&ab_query(1), &data, 0).unwrap();
        cache.plan_for(&ab_query(2), &data, 0).unwrap();
        cache.revalidate(1, &[], false, &data, 0.5);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidated(), 2);
        assert_eq!(cache.replanned(), 0);
    }
}
