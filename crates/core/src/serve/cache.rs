//! The plan cache: repeated query shapes skip Algorithm 3.
//!
//! A serving workload repeats query shapes constantly (the same template
//! with different parameters, the same dashboard query every few seconds),
//! so the server memoises compiled [`Plan`]s. The cache key is the query's
//! [`QueryShape`], its *canonical form*: its vertex-label vector plus its
//! canonicalised (sorted) hyperedge lists — the same canonicalisation
//! [`hgmatch_hypergraph::Signature`] applies to label multisets, lifted to
//! the whole query. The per-edge `Signature`s themselves are *not* stored
//! in the key: they are a pure function of the labels and edge lists, so
//! they cannot distinguish any queries the key does not already
//! distinguish — they are rebuilt (and interned) during planning on a
//! miss, and a hit touches only the key comparison. The submission's
//! shape *is* the key: the cache's map and its slot share its one
//! allocation. A miss derives the shape's `QueryGraph` only to plan it;
//! the entry keeps the plan alone.
//!
//! Plans are valid for exactly one data hypergraph (the planner orders by
//! the data's signature cardinalities and steps embed `SignatureId`s of its
//! interner). Under dynamic updates the server publishes a new snapshot per
//! epoch ([`MatchServer::update_data`]), and a publish clears the cache
//! ([`PlanCache::clear`]): an entry lives for exactly the epoch it was
//! planned on (DESIGN.md §13.4). A miss is cheap (a few µs, DESIGN.md
//! §8.4), so deciding which plans could outlive their epoch would cost
//! more than re-planning them. Every entry is still tagged with its epoch,
//! because a submission pinned to the previous epoch may insert after the
//! clear: a key match whose epoch lags the current one is a miss.
//!
//! Eviction is exact least-recently-used over a bounded capacity, O(1) per
//! operation (DESIGN.md §8.4): entries live in a slab of slots linked most
//! recent first, and the map goes from key to slot. Hits, misses and
//! invalidations are observable through [`MatchServer::stats`].
//!
//! [`MatchServer::update_data`]: super::MatchServer::update_data
//! [`MatchServer::stats`]: super::MatchServer::stats

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hgmatch_hypergraph::fxhash::FxHashMap;
use hgmatch_hypergraph::Hypergraph;
use parking_lot::Mutex;

use crate::error::Result;
use crate::plan::{Plan, Planner};
use crate::query::{QueryGraph, QueryShape};

/// What [`PlanCache::plan_for`] hands a submission.
#[derive(Debug)]
pub(crate) struct Planned {
    pub(crate) plan: Arc<Plan>,
    /// Whether planning was skipped.
    pub(crate) cached: bool,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<Plan>,
    /// Data epoch this plan is valid for. A key match at a stale epoch is
    /// a miss (the entry is replaced by the re-planned result).
    epoch: u64,
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident entry, its key and its recency links.
#[derive(Debug)]
struct Slot {
    key: QueryShape,
    entry: Entry,
    /// The next more recently used slot, or `NIL` at the head.
    prev: u32,
    /// The next less recently used slot, or `NIL` at the tail.
    next: u32,
}

/// The store: an exact LRU, O(1) per operation.
#[derive(Debug)]
struct Lru {
    map: FxHashMap<QueryShape, u32>,
    slots: Vec<Slot>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot (`NIL` when empty).
    tail: u32,
}

impl Lru {
    fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let head = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = head;
        match head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Marks slot `i` most recently used.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Inserts an absent `key` as the most recently used entry. At
    /// `capacity` (≥ 1) the least recently used slot is reused, and its
    /// old contents are returned for the caller to drop outside the lock.
    fn insert(&mut self, key: QueryShape, entry: Entry, capacity: usize) -> Option<Slot> {
        let slot = Slot {
            key: key.clone(),
            entry,
            prev: NIL,
            next: NIL,
        };
        let (i, evicted) = if self.slots.len() < capacity {
            self.slots.push(slot);
            (self.slots.len() as u32 - 1, None)
        } else {
            let i = self.tail;
            self.unlink(i);
            let victim = std::mem::replace(&mut self.slots[i as usize], slot);
            self.map.remove(&victim.key);
            (i, Some(victim))
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }
}

/// A bounded LRU cache of compiled plans, keyed by canonical query form
/// and tagged with the data epoch each plan was compiled against.
#[derive(Debug)]
pub(crate) struct PlanCache {
    capacity: usize,
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (0 disables
    /// caching: every submission plans afresh).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            lru: Mutex::new(Lru::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Returns the plan for the query `key` against `data` (the snapshot
    /// of `epoch`), reusing a cached one when the shape matches at the
    /// same epoch. A hit derives nothing from `key`; a miss derives its
    /// `QueryGraph` to plan it.
    pub(crate) fn plan_for(
        &self,
        key: QueryShape,
        data: &Hypergraph,
        epoch: u64,
    ) -> Result<Planned> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(Planned {
                plan: Arc::new(Planner::plan(&QueryGraph::from_shape(&key)?, data)?),
                cached: false,
            });
        }

        {
            let mut lru = self.lru.lock();
            if let Some(&i) = lru.map.get(&key) {
                let entry = &lru.slots[i as usize].entry;
                if entry.epoch == epoch {
                    let plan = Arc::clone(&entry.plan);
                    lru.touch(i);
                    drop(lru);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Planned { plan, cached: true });
                }
                // Stale epoch (e.g. inserted by a submission racing an
                // update): fall through to re-plan and overwrite.
            }
        }

        // Plan outside the lock: planning is cheap but not free, and
        // submissions should not serialise behind each other's planning.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(Planner::plan(&QueryGraph::from_shape(&key)?, data)?);
        let entry = Entry {
            plan: Arc::clone(&plan),
            epoch,
        };

        let mut lru = self.lru.lock();
        let (stale, evicted) = match lru.map.get(&key).copied() {
            // Overwrite a stale entry in place; never downgrade a fresher
            // one a racing submitter installed meanwhile.
            Some(i) if lru.slots[i as usize].entry.epoch < epoch => {
                lru.touch(i);
                let stale = std::mem::replace(&mut lru.slots[i as usize].entry, entry);
                (Some(stale), None)
            }
            Some(_) => (None, None),
            None => (None, lru.insert(key, entry, self.capacity)),
        };
        drop(lru);
        // The replaced entry and the evicted slot release their plans here,
        // after the lock.
        drop((stale, evicted));
        Ok(Planned {
            plan,
            cached: false,
        })
    }

    /// Drops every entry: called by [`MatchServer::update_data`] under the
    /// data lock as it publishes a new epoch, so no submission pinned to
    /// the new epoch can find a plan of the old one. The dropped entries
    /// count in `plans_invalidated` and release their plans after the lock.
    ///
    /// [`MatchServer::update_data`]: super::MatchServer::update_data
    pub(crate) fn clear(&self) {
        let dropped = std::mem::replace(&mut *self.lru.lock(), Lru::new());
        self.invalidated
            .fetch_add(dropped.slots.len() as u64, Ordering::Relaxed);
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (planning happened).
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by [`PlanCache::clear`] so far.
    pub(crate) fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Plans currently cached.
    pub(crate) fn len(&self) -> usize {
        self.lru.lock().slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgmatch_hypergraph::{HypergraphBuilder, Label};
    use proptest::prelude::*;

    impl Lru {
        /// Slot indices from most to least recently used.
        fn recency(&self) -> impl Iterator<Item = u32> + '_ {
            let first = (self.head != NIL).then_some(self.head);
            std::iter::successors(first, |&i| {
                let next = self.slots[i as usize].next;
                (next != NIL).then_some(next)
            })
        }
    }

    impl PlanCache {
        /// [`PlanCache::plan_for`] of a query hypergraph's shape.
        fn plan(&self, query: &Hypergraph, data: &Hypergraph, epoch: u64) -> Result<Planned> {
            self.plan_for(query.into(), data, epoch)
        }

        /// The resident keys, most recently used first, after checking
        /// that the links and the map describe the same slab.
        fn resident(&self) -> Vec<QueryShape> {
            let lru = self.lru.lock();
            let order: Vec<u32> = lru.recency().collect();
            assert_eq!(order.len(), lru.slots.len(), "every slot is linked once");
            assert_eq!(lru.map.len(), lru.slots.len());
            assert_eq!(lru.tail, order.last().copied().unwrap_or(NIL));
            let mut prev = NIL;
            order
                .iter()
                .map(|&i| {
                    let slot = &lru.slots[i as usize];
                    assert_eq!(slot.prev, prev, "back link of slot {i}");
                    assert_eq!(lru.map[&slot.key], i);
                    prev = i;
                    slot.key.clone()
                })
                .collect()
        }
    }

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
        } = cache.plan(&ab_query(1), &data, 0).unwrap();
        let Planned {
            plan: p2,
            cached: hit2,
            ..
        } = cache.plan(&ab_query(1), &data, 0).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn the_key_is_the_flat_canonical_form() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let mut b = HypergraphBuilder::new();
        b.add_vertex(Label::new(1));
        b.add_vertex(Label::new(0));
        b.add_edge(vec![1, 0]).unwrap();
        let query = b.build().unwrap();
        cache.plan(&query, &data, 0).unwrap();
        let [key] = &cache.resident()[..] else {
            panic!("one resident key");
        };
        assert_eq!(key.num_vertices(), 2);
        assert_eq!(key.labels(), &[1, 0]);
        let edges: Vec<&[u32]> = key.edges().collect();
        assert_eq!(edges, [&[0, 1][..]]);
        assert_eq!(*key, QueryShape::from(&query));
    }

    #[test]
    fn different_labels_miss() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        cache.plan(&ab_query(1), &data, 0).unwrap();
        let hit = cache.plan(&ab_query(0), &data, 0).unwrap().cached;
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_evicts_lru() {
        let data = tiny_data();
        let cache = PlanCache::new(2);
        let q1 = ab_query(1);
        let q2 = ab_query(0);
        cache.plan(&q1, &data, 0).unwrap(); // {q1}
        cache.plan(&q2, &data, 0).unwrap(); // {q1, q2}
        cache.plan(&q1, &data, 0).unwrap(); // touch q1

        // A third shape evicts q2 (least recently used), not q1.
        let mut b = HypergraphBuilder::new();
        b.add_vertices(3, Label::new(0));
        b.add_edge(vec![0, 1, 2]).unwrap();
        let q3 = b.build().unwrap();
        cache.plan(&q3, &data, 0).unwrap();
        assert_eq!(cache.len(), 2);

        let hit1 = cache.plan(&q1, &data, 0).unwrap().cached;
        assert!(hit1, "recently-used entry must survive eviction");
        let hit2 = cache.plan(&q2, &data, 0).unwrap().cached;
        assert!(!hit2, "LRU entry must have been evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let data = tiny_data();
        let cache = PlanCache::new(0);
        cache.plan(&ab_query(1), &data, 0).unwrap();
        let hit = cache.plan(&ab_query(1), &data, 0).unwrap().cached;
        assert!(!hit);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn planning_errors_propagate() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let empty = HypergraphBuilder::new().build().unwrap();
        assert!(cache.plan(&empty, &data, 0).is_err());
    }

    #[test]
    fn stale_epoch_is_a_miss() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        cache.plan(&ab_query(1), &data, 0).unwrap();
        let hit = cache.plan(&ab_query(1), &data, 1).unwrap().cached;
        assert!(!hit, "entry tagged epoch 0 must not serve epoch 1");
        // The entry was upgraded in place: epoch 1 now hits.
        let hit = cache.plan(&ab_query(1), &data, 1).unwrap().cached;
        assert!(hit);
        assert_eq!(cache.len(), 1);
    }

    /// A publish (which once swept only when partition ids shifted, and
    /// now always) drops every resident entry and counts each; the next
    /// submission of every shape misses at the new epoch.
    #[test]
    fn revalidate_clears_everything_when_sids_shift() {
        let data = tiny_data();
        let cache = PlanCache::new(8);
        let (q1, q2) = (ab_query(1), ab_query(2));
        cache.plan(&q1, &data, 0).unwrap();
        cache.plan(&q2, &data, 0).unwrap();
        cache.clear();
        assert_eq!((cache.len(), cache.invalidated()), (0, 2));
        assert!(cache.resident().is_empty());
        for q in [&q1, &q2] {
            assert!(!cache.plan(q, &data, 1).unwrap().cached);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 4));
        // The next publish drops exactly what is resident again.
        cache.clear();
        assert_eq!(cache.invalidated(), 4);
    }

    /// The miss path's epoch guard: a submission pinned to the epoch a
    /// publish cleared plans on that epoch's snapshot, and its plan (which
    /// may embed partition ids the new epoch no longer has) must never be
    /// served at the new epoch, nor overwrite the new epoch's entry.
    #[test]
    fn stale_write_back_after_revalidate_never_resurrects() {
        let data = tiny_data();
        let cache = PlanCache::new(4);
        let q = ab_query(1);
        cache.plan(&q, &data, 0).unwrap();
        cache.clear();
        // Pinned to epoch 0, racing the publish: misses and inserts.
        let old = cache.plan(&q, &data, 0).unwrap();
        assert!(!old.cached);
        assert_eq!(cache.len(), 1);
        // Epoch 1 is not served the epoch-0 plan.
        let new = cache.plan(&q, &data, 1).unwrap();
        assert!(!new.cached && !Arc::ptr_eq(&new.plan, &old.plan));
        // A later epoch-0 submission misses and leaves epoch 1's entry.
        assert!(!cache.plan(&q, &data, 0).unwrap().cached);
        let served = cache.plan(&q, &data, 1).unwrap();
        assert!(served.cached && Arc::ptr_eq(&served.plan, &new.plan));
        assert_eq!(cache.len(), 1);
    }

    /// Hammers `plan_for` and `clear` from racing threads over a
    /// capacity-2 cache, so misses insert while other shapes evict their
    /// entry and while the epoch moves under them. No interleaving may
    /// deadlock, lose a counter update or overgrow the capacity.
    #[test]
    fn write_back_races_eviction_and_epoch_bumps() {
        let data = tiny_data();
        let cache = PlanCache::new(2);
        let epoch = AtomicU64::new(0);
        let plan_calls = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (cache, data, epoch, plan_calls) = (&cache, &data, &epoch, &plan_calls);
                scope.spawn(move || {
                    let mut state = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                    for _ in 0..300 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let shape = ab_query(((state >> 33) % 5) as u32);
                        let e = epoch.load(Ordering::Relaxed);
                        cache.plan(&shape, data, e).unwrap();
                        plan_calls.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let (cache, epoch) = (&cache, &epoch);
            scope.spawn(move || {
                for _ in 0..60 {
                    epoch.fetch_add(1, Ordering::Relaxed);
                    cache.clear();
                    std::thread::yield_now();
                }
            });
        });
        assert!(cache.len() <= 2, "eviction must bound the cache");
        assert_eq!(cache.resident().len(), cache.len());
        assert_eq!(
            cache.hits() + cache.misses(),
            plan_calls.load(Ordering::Relaxed),
            "every plan_for is exactly one hit or one miss"
        );
    }

    /// The differential test's shapes as `(vertex labels, edges)`: four on
    /// labels {0, 1} and four on {2, 3}. The third repeats a signature.
    const SHAPES: [(&[u32], &[&[u32]]); 8] = [
        (&[0, 1], &[&[0, 1]]),
        (&[0, 0], &[&[0, 1]]),
        (&[0, 1, 0], &[&[0, 1], &[1, 2]]),
        (&[0, 1, 1], &[&[0, 1, 2]]),
        (&[2, 3], &[&[0, 1]]),
        (&[2, 2, 3], &[&[0, 1], &[1, 2]]),
        (&[3, 3], &[&[0, 1]]),
        (&[2, 3, 3], &[&[0, 1, 2]]),
    ];

    /// The label multisets of the shapes' edges.
    const SIGNATURES: [&[u32]; 7] = [
        &[0, 1],
        &[0, 0],
        &[0, 1, 1],
        &[2, 3],
        &[2, 2],
        &[3, 3],
        &[2, 3, 3],
    ];

    fn shape(i: usize) -> Hypergraph {
        let (labels, edges) = SHAPES[i];
        let mut b = HypergraphBuilder::new();
        for &l in labels {
            b.add_vertex(Label::new(l));
        }
        for edge in edges {
            b.add_edge(edge.to_vec()).unwrap();
        }
        b.build().unwrap()
    }

    /// A snapshot with `counts[s]` disjoint edges of `SIGNATURES[s]`, plus
    /// one edge no shape matches, so that it is never empty.
    fn snapshot(counts: &[u64]) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let mut add = |labels: &[u32]| {
            let edge = labels
                .iter()
                .map(|&l| b.add_vertex(Label::new(l)).raw())
                .collect();
            b.add_edge(edge).unwrap();
        };
        add(&[9, 9]);
        for (labels, &count) in SIGNATURES.iter().zip(counts) {
            (0..count).for_each(|_| add(labels));
        }
        b.build().unwrap()
    }

    /// The differential test's reference: an LRU written from its
    /// definition. Resident shapes sit in a `Vec`, most recently used
    /// first, each with its epoch.
    #[derive(Default)]
    struct ReferenceLru {
        resident: Vec<(usize, u64)>,
        invalidated: u64,
    }

    impl ReferenceLru {
        fn make_most_recent(&mut self, i: usize) {
            let entry = self.resident.remove(i);
            self.resident.insert(0, entry);
        }

        /// Whether `plan_for` hits.
        fn plan_for(&mut self, capacity: usize, shape: usize, epoch: u64) -> bool {
            match self.resident.iter().position(|r| r.0 == shape) {
                Some(i) if self.resident[i].1 == epoch => {
                    self.make_most_recent(i);
                    return true;
                }
                Some(i) if self.resident[i].1 < epoch => {
                    self.resident[i] = (shape, epoch);
                    self.make_most_recent(i);
                }
                Some(_) => {}
                None if capacity > 0 => {
                    self.resident.truncate(capacity - 1);
                    self.resident.insert(0, (shape, epoch));
                }
                None => {}
            }
            false
        }

        fn clear(&mut self) {
            self.invalidated += self.resident.len() as u64;
            self.resident.clear();
        }
    }

    /// Drives one seeded sequence of `plan_for` and `clear` through a
    /// cache of `capacity` and through the reference, comparing them after
    /// every operation.
    fn agrees_with_reference(capacity: usize, seed: u64, ops: usize) -> TestCaseResult {
        let keys: Vec<QueryShape> = (0..SHAPES.len())
            .map(|i| QueryShape::from(&shape(i)))
            .collect();
        let cache = PlanCache::new(capacity);
        let mut reference = ReferenceLru::default();
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        // `snapshots[epoch]` is that epoch's data.
        let mut snapshots = vec![snapshot(&[1; 7])];
        for _ in 0..ops {
            let epoch = snapshots.len() as u64 - 1;
            // One operation in four is pinned to the previous epoch, as a
            // submission racing a publish is.
            let pinned = epoch.saturating_sub(u64::from(draw(4) == 0));
            let data = &snapshots[pinned as usize];
            match draw(10) {
                0..=7 => {
                    let s = draw(8) as usize;
                    let hit = cache
                        .plan_for(keys[s].clone(), data, pinned)
                        .unwrap()
                        .cached;
                    prop_assert_eq!(hit, reference.plan_for(capacity, s, pinned));
                }
                _ => {
                    let counts: Vec<u64> = (0..SIGNATURES.len()).map(|_| draw(3)).collect();
                    snapshots.push(snapshot(&counts));
                    cache.clear();
                    reference.clear();
                }
            }
            let resident: Vec<usize> = cache
                .resident()
                .iter()
                .map(|key| {
                    keys.iter()
                        .position(|k| k == key)
                        .expect("a submitted shape")
                })
                .collect();
            let expected: Vec<usize> = reference.resident.iter().map(|r| r.0).collect();
            prop_assert_eq!(resident, expected);
            prop_assert_eq!(cache.len(), reference.resident.len());
            prop_assert_eq!(cache.invalidated(), reference.invalidated);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slab store is an exact LRU: each hit or miss, the resident
        /// shapes in recency order and every counter agree with the
        /// reference after each operation, at capacities 0, 1, 2 and 4.
        #[test]
        fn the_store_agrees_with_a_reference_lru(
            seed in 0u64..1 << 48,
            capacity in 0usize..4,
            ops in 1usize..120,
        ) {
            agrees_with_reference([0, 1, 2, 4][capacity], seed, ops)?;
        }
    }
}
