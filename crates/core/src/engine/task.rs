//! The shared per-task execution core.
//!
//! One *task* (paper Definition VI.1) is the unit both schedulers trade in:
//! the one-shot [`ParallelEngine`](super::ParallelEngine) (scoped pool, one
//! query per run) and the resident serving pool of [`crate::serve`] (one
//! pool, many concurrent queries). This module owns everything that happens
//! *inside* a task — scan-range splitting, candidate generation, validation,
//! delivery, spill-buffer pooling, memory accounting — while the scheduler
//! supplies a [`Scheduler`]:
//!
//! * `announce(k)`, then `push(Task)` k times — where child tasks go. A
//!   task announces all its children before the first becomes visible, so
//!   the scheduler counts them pending in one update. The one-shot engine
//!   pushes to its local deque; the serving pool additionally tags each
//!   child with its query handle so tasks of many queries can interleave
//!   in one deque.
//! * `stop() -> bool` — the cooperative stop signal, polled at task entry
//!   and every [`ABORT_PROBE`] candidates inside a long expansion, so
//!   cancellation and timeouts take effect *mid-expansion* instead of at
//!   the next task boundary.
//!
//! What tasks leave behind for their query — metrics, and embeddings
//! counted but not yet added to the sink — accumulates in a [`Tally`] the
//! scheduler keeps across tasks and publishes at its own boundaries
//! (DESIGN.md §8.1); the core never flushes at task end.
//!
//! Child expansions are emitted in **reverse candidate order**: the worker
//! deques are LIFO, so popping then visits candidates in ascending order —
//! the exact depth-first order of [`crate::exec::SequentialExecutor`]. With
//! one worker the delivery sequence is therefore identical to the
//! sequential executor's, which is what makes `max_results` early-exit
//! deterministic (and testable) under the serving layer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::deque::{Steal, Stealer, Worker as Deque};
use hgmatch_hypergraph::{Hypergraph, Partition};

use crate::candidates::{generate_candidates_with_abort, ExpansionState};
use crate::config::MatchConfig;
use crate::memory::MemoryTracker;
use crate::metrics::MatchMetrics;
use crate::plan::{Plan, Step};
use crate::sink::Sink;
use crate::validate::{validate_block, ValidateScratch};

/// Abort polls / deadline checks happen every this many probe ticks (the
/// schedulers' stop probes are expected to do the cheap flag load every
/// call and the expensive checks on this cadence).
pub(crate) const CHECK_INTERVAL: u64 = 256;

/// Candidates validated between stop probes inside one expansion, so a
/// cancelled query releases its worker even mid-way through a huge
/// candidate list.
const ABORT_PROBE: usize = 1024;

/// Embeddings a [`Tally`] counts before handing them to the sink. Counts
/// outlive the task that found them, so this is what keeps
/// `is_satisfied()` current for a `max_results` stop: across a run of
/// one-embedding tasks as much as inside one giant (possibly split)
/// expansion. Small enough that a limit lands within one probe-ish of
/// saturation, large enough that counting stays a batched atomic.
const COUNT_FLUSH: u64 = 64;

/// Rows per SCAN task: a scan range splits in halves until it is at most
/// this long, bounding task granularity.
const SCAN_CHUNK: u32 = 256;

/// Largest assist claim, in candidate rows. A participant probes the stop
/// signal once per claim, so this must not exceed [`ABORT_PROBE`]; 256 is
/// the claim size the `hub_adversary` row was measured at.
const MAX_CLAIM: usize = 256;
const _: () = assert!(MAX_CLAIM <= ABORT_PROBE);

/// Claims a shared range of at least this many rows is cut into at least,
/// so that up to this many participants each find a share of a short one.
const MIN_CLAIMS: usize = 8;

/// Rows per assist claim on a shared range of `len` candidates.
fn claim_chunk(len: usize) -> usize {
    (len / MIN_CLAIMS).clamp(1, MAX_CLAIM)
}

/// Partial embeddings of at most this many edges live inline in the task —
/// no heap allocation on the expansion path. Queries with more hyperedges
/// than this spill to pooled buffers (DESIGN.md §6.2).
pub(crate) const INLINE_EMB: usize = 8;

/// Recycled spill buffers kept per worker.
const POOL_CAP: usize = 64;

/// A schedulable unit (paper Definition VI.1).
#[derive(Debug)]
pub(crate) enum Task {
    /// Scan rows `start..end` of the first step's partition; splits itself
    /// while the range exceeds the configured chunk size.
    Scan { start: u32, end: u32 },
    /// Expand the partial embedding `emb[..depth]` (matching-order
    /// positions `0..depth`) at step `depth`. Inline: no allocation.
    Expand { depth: u8, emb: [u32; INLINE_EMB] },
    /// Expansion deeper than [`INLINE_EMB`]; the buffer is recycled through
    /// the executing worker's pool.
    ExpandSpilled { emb: Vec<u32> },
    /// An assist ticket for a splittable expansion (DESIGN.md §12): a
    /// claim on the shared candidate range of an expansion some other
    /// worker is (or was) validating. Executing it joins the work-assisting
    /// claim loop; if the range has already drained it degenerates to
    /// accounting.
    Assist { shared: Arc<SplitExpansion> },
}

/// A splittable expansion — the work-assisting scheduler's shared unit.
///
/// One worker ran candidate generation for `emb` at the plan's last
/// position and found a list long enough to divide
/// ([`crate::MatchConfig::split_threshold`]); instead of validating it
/// serially, the list and the pinned partial embedding move into this
/// shared object (the plan, data snapshot and sink travel with the task's
/// query environment), and `next` becomes the single source of truth for
/// who validates what: every participant — the owner plus any thief that
/// stole an [`Task::Assist`] ticket — claims disjoint sub-ranges via
/// `fetch_add` until the range drains. A claim is therefore validated
/// exactly once, by exactly one participant, with no coordination beyond
/// one atomic per claim. Every valid candidate completes an embedding, so
/// a participant delivers and spawns nothing.
#[derive(Debug)]
pub(crate) struct SplitExpansion {
    /// The partial embedding this expansion extends (matching-order data
    /// edge ids; its length is the step index).
    pub(crate) emb: Vec<u32>,
    /// The shared candidate range: the sorted row list Algorithm 4
    /// produced on the owner.
    cands: Vec<u32>,
    /// Next unclaimed candidate index; `fetch_add(chunk)` claims
    /// `[old, old + chunk)`, with `chunk` = [`claim_chunk`] of the length.
    next: AtomicUsize,
}

impl SplitExpansion {
    /// Heap bytes this shared expansion materialises (tracked against the
    /// query's [`MemoryTracker`]: allocated at split, released by the
    /// participant that claims the final chunk).
    fn bytes(&self) -> usize {
        (self.emb.len() + self.cands.len()) * std::mem::size_of::<u32>()
    }
}

/// Everything one task execution needs to know about the query it belongs
/// to. The one-shot engine builds one per run; the serving pool builds one
/// per *task* from the task's query tag.
pub(crate) struct QueryEnv<'a, S: Sink + ?Sized> {
    pub plan: &'a Plan,
    pub data: &'a Hypergraph,
    pub sink: &'a S,
    pub config: &'a MatchConfig,
    pub tracker: &'a MemoryTracker,
}

/// The scheduler's side of one task execution.
pub(crate) trait Scheduler {
    /// The cooperative stop signal.
    fn stop(&mut self) -> bool;
    /// Announces the `k > 0` children this task is about to push, before
    /// the first of them becomes visible: a scheduler counting pending
    /// tasks raises its count once, by `k`, and never falls below the true
    /// number. Nothing between the announcement and the last push can
    /// panic.
    fn announce(&mut self, k: usize);
    /// Makes one announced child runnable.
    fn push(&mut self, task: Task);
}

/// What executed tasks of one query leave on the thread that ran them
/// until its scheduler publishes it (DESIGN.md §8.1).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) metrics: MatchMetrics,
    /// Embeddings counted but not yet handed to [`Sink::add_count`].
    uncounted: u64,
}

impl Tally {
    /// Hands the held count to `sink`.
    pub(crate) fn flush_counts<S: Sink + ?Sized>(&mut self, sink: &S) {
        if self.uncounted > 0 {
            sink.add_count(self.uncounted);
            self.uncounted = 0;
        }
    }
}

/// Per-worker scratch reused across tasks — and, in the serving pool,
/// across *queries*: the expansion level-stack caches data-edge prefixes
/// ([`ExpansionState::prepare`]), which are query-agnostic.
#[derive(Debug, Default)]
pub(crate) struct ExecScratch {
    state: ExpansionState,
    validate: ValidateScratch,
    /// Recycled spill buffers for embeddings deeper than [`INLINE_EMB`].
    pool: Vec<Vec<u32>>,
    /// Reused buffer for assembling complete embeddings at the last step.
    full: Vec<u32>,
    /// Reused buffer for query-order delivery.
    ordered: Vec<u32>,
    /// Valid extensions of the current expansion, buffered so children can
    /// be emitted in reverse (LIFO ⇒ ascending pop order).
    valid: Vec<u32>,
}

impl ExecScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Executes one task against `env`, adding what it finds to `tally` and
/// handing its children to `sched`.
///
/// The task's queued-embedding bytes are released from `env.tracker` here
/// regardless of the abort outcome, so schedulers can account spawned tasks
/// eagerly and drop cancelled ones by simply executing them (the execution
/// degenerates to the accounting).
pub(crate) fn execute_task<S: Sink + ?Sized>(
    env: &QueryEnv<'_, S>,
    scratch: &mut ExecScratch,
    tally: &mut Tally,
    task: Task,
    sched: &mut dyn Scheduler,
) {
    let mut exec = Exec {
        env,
        scratch,
        tally,
        sched,
        release: 0,
    };
    exec.execute(task);
    // A task that spawned released its bytes in the same update.
    exec.track(0);
}

/// xorshift64* — the per-worker steal-victim RNG shared by both schedulers.
pub(crate) fn next_rand(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Random-victim batch stealing (paper §VI-C): up to `2 * stealers.len()`
/// attempts at taking half of a random victim's deque from its cold
/// (oldest-task) end into `local`. Returns the popped task; the caller
/// records the steal in its own counters.
pub(crate) fn steal_from_victims<T>(
    stealers: &[Stealer<T>],
    local: &Deque<T>,
    self_id: usize,
    rng: &mut u64,
) -> Option<T> {
    let n = stealers.len();
    if n <= 1 {
        return None;
    }
    for _ in 0..2 * n {
        let victim = (next_rand(rng) as usize) % n;
        if victim == self_id {
            continue;
        }
        match stealers[victim].steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Retry | Steal::Empty => continue,
        }
    }
    None
}

struct Exec<'e, 'a, S: Sink + ?Sized> {
    env: &'e QueryEnv<'a, S>,
    scratch: &'e mut ExecScratch,
    tally: &'e mut Tally,
    sched: &'e mut dyn Scheduler,
    /// Bytes of the queued embedding this task consumed, released with the
    /// task's one [`MemoryTracker`] update ([`Exec::track`]).
    release: usize,
}

impl<S: Sink + ?Sized> Exec<'_, '_, S> {
    fn execute(&mut self, task: Task) {
        match task {
            Task::Scan { start, end } => self.execute_scan(start, end),
            Task::Expand { depth, emb } => {
                let depth = depth as usize;
                self.release = MemoryTracker::embedding_bytes(depth);
                self.execute_expand(depth, &emb[..depth]);
            }
            Task::ExpandSpilled { emb } => {
                self.release = MemoryTracker::embedding_bytes(emb.len());
                self.execute_expand(emb.len(), &emb);
                if self.scratch.pool.len() < POOL_CAP {
                    self.scratch.pool.push(emb);
                }
            }
            // Tickets carry no queued embedding (the split owner's Expand
            // task already released its bytes), so there is nothing to free.
            Task::Assist { shared } => self.execute_assist(&shared),
        }
    }

    /// The task's one net update of the memory tracker: `bytes` of new
    /// state against the queued embedding it consumed. Applied before any
    /// child is visible, so the Theorem VI.1 peak within a task is what
    /// freeing first and then allocating child by child recorded.
    fn track(&mut self, bytes: usize) {
        let release = std::mem::take(&mut self.release);
        if bytes > release {
            self.env.tracker.alloc(bytes - release);
        } else if release > bytes {
            self.env.tracker.free(release - bytes);
        }
    }

    /// Joins the claim loop of a splittable expansion as an assisting
    /// participant: rebuilds the expansion state for the pinned partial
    /// embedding (the one non-amortised cost of resuming on another
    /// worker), then validates chunks until the shared range drains. A
    /// ticket popped after the range drained — or after the query stopped —
    /// degenerates to accounting.
    fn execute_assist(&mut self, shared: &SplitExpansion) {
        if self.sched.stop() || shared.next.load(Ordering::Relaxed) >= shared.cands.len() {
            return;
        }
        let step = &self.env.plan.steps()[shared.emb.len()];
        self.scratch.state.prepare(self.env.data, step, &shared.emb);
        self.run_split(shared, false);
    }

    fn execute_scan(&mut self, start: u32, end: u32) {
        if self.sched.stop() {
            return;
        }
        if end - start > SCAN_CHUNK {
            let mid = start + (end - start) / 2;
            // Emit the far half first so the near half is processed next
            // (LIFO), keeping the scan roughly in order locally.
            self.sched.announce(2);
            self.sched.push(Task::Scan { start: mid, end });
            self.sched.push(Task::Scan { start, end: mid });
            return;
        }

        let plan = self.env.plan;
        let partition = self
            .env
            .data
            .partition(plan.steps()[0].partition.expect("feasible"));
        let rows = (end - start) as u64;
        self.tally.metrics.scan_rows += rows;
        // Every scanned row is a position-0 partial (SCAN filters nothing).
        self.note_step(0, rows, rows);
        if plan.len() > 1 {
            let globals = (start..end).rev().map(|row| partition.global_id(row).raw());
            self.spawn_children(&[], globals);
        } else if self.env.sink.needs_embeddings() {
            // Single-edge query: scan rows are complete embeddings.
            for row in start..end {
                let global = partition.global_id(row).raw();
                self.scratch.full.clear();
                self.scratch.full.push(global);
                self.deliver_full();
            }
        } else {
            self.tally.metrics.embeddings += rows;
            self.count(rows);
        }
    }

    fn execute_expand(&mut self, depth: usize, emb: &[u32]) {
        if self.sched.stop() {
            return;
        }
        let plan = self.env.plan;
        let data = self.env.data;
        let cfg = self.env.config;
        let step = &plan.steps()[depth];
        self.tally.metrics.expansions += 1;
        // A step whose signature is absent from the data can never extend
        // anything: skip the (non-trivial) state preparation outright.
        let Some(pid) = step.partition else {
            return;
        };
        self.scratch.state.prepare(data, step, emb);
        // Generation probes the abort signal at class boundaries and
        // through anchor-less scans (which can emit far more than
        // ABORT_PROBE rows in one call); a mid-generation abort leaves the
        // candidate buffer partial, so nothing below may run.
        let sched = &mut *self.sched;
        let Some(produced) = generate_candidates_with_abort(
            data,
            step,
            emb,
            &mut self.scratch.state,
            cfg,
            &mut || sched.stop(),
        ) else {
            return;
        };
        self.tally.metrics.candidates += produced as u64;
        let partition = data.partition(pid);
        let last = depth + 1 == plan.len();

        let cands = std::mem::take(&mut self.scratch.state.candidates);

        // Work-assisting split (DESIGN.md §12): a last-step candidate list
        // long enough to dominate this worker's schedule moves into shared
        // ownership, and assist tickets let idle peers claim chunks of it
        // mid-flight. Earlier steps never split: their valid candidates
        // become child tasks, which stealing divides already. The ticket
        // count — one per peer that could usefully join, bounded by the
        // claims beyond the owner's first — gates the whole split: zero
        // tickets (one worker, stealing disabled so nobody could ever take
        // one, or a range of one claim) means the shared state could never
        // offer parallelism, and the plain serial loop below is strictly
        // cheaper. With one worker this also keeps delivery order exactly
        // the sequential executor's — the `max_results` determinism
        // contract.
        let tickets = if last
            && cfg.split_threshold > 0
            && cfg.work_stealing
            && cands.len() >= cfg.split_threshold
        {
            ((cands.len() - 1) / claim_chunk(cands.len())).min(cfg.threads.saturating_sub(1))
        } else {
            0
        };
        if tickets > 0 {
            // Copied, not moved: the Arc outlives this task on other
            // workers' deques, so donating the scratch buffer would
            // forfeit its warmed capacity on every split. One exact-size
            // copy is cheaper than regrowing the buffer from empty past
            // the (large) split threshold on the next expansion.
            let shared = cands.clone();
            self.scratch.state.candidates = cands;
            self.publish_split(emb, shared, tickets);
            return;
        }

        self.scratch.valid.clear();
        let mut aborted = false;
        let validated_before = self.tally.metrics.validated;
        for (i, rows) in cands.chunks(ABORT_PROBE).enumerate() {
            // Mid-expansion cancellation: a huge candidate list must not pin
            // this worker past a cancel/timeout/limit signal.
            if i > 0 && self.probe() {
                aborted = true;
                break;
            }
            self.validate_rows(partition, step, emb, rows, last);
        }
        // Reverse emission: the LIFO deque then pops extensions in ascending
        // candidate order, matching the sequential executor's visit order.
        // After a mid-loop abort nothing is emitted — the extensions would
        // only degenerate to accounting when popped, delaying worker
        // release (and nothing has been allocated for them yet).
        if !aborted {
            let valid = std::mem::take(&mut self.scratch.valid);
            self.spawn_children(emb, valid.iter().rev().copied());
            self.scratch.valid = valid;
            // A completed expansion is a step boundary: attribute the
            // counts to this position.
            let partials = self.tally.metrics.validated - validated_before;
            self.note_step(depth, produced as u64, partials);
        }
        self.scratch.state.candidates = cands;
    }

    /// Publishes a splittable last-step expansion (DESIGN.md §12): moves
    /// the candidate range into shared ownership, accounts it, emits
    /// `tickets` assist tickets for idle peers, and joins the claim loop as
    /// owner. Tickets go out *before* the owner starts validating, so a
    /// thief can join while the range is still full.
    fn publish_split(&mut self, emb: &[u32], cands: Vec<u32>, tickets: usize) {
        let shared = Arc::new(SplitExpansion {
            emb: emb.to_vec(),
            cands,
            next: AtomicUsize::new(0),
        });
        // The shared buffers are materialised state that outlives this
        // task (they stay live until the range drains), so they count
        // against the query's memory bound like queued embeddings do.
        self.track(shared.bytes());
        self.tally.metrics.split_expansions += 1;
        self.sched.announce(tickets);
        for _ in 0..tickets {
            self.sched.push(Task::Assist {
                shared: Arc::clone(&shared),
            });
        }
        self.run_split(&shared, true);
    }

    /// The work-assisting claim loop: claims disjoint chunks of `shared`'s
    /// last-step candidate range until it drains, validating each row and
    /// delivering (or counting) the embeddings it completes.
    ///
    /// [`ExpansionState::prepare`] must have run for `shared.emb` on this
    /// worker's scratch (the owner did so before generating candidates;
    /// [`Exec::execute_assist`] does it for thieves).
    fn run_split(&mut self, shared: &SplitExpansion, owner: bool) {
        let depth = shared.emb.len();
        let step = &self.env.plan.steps()[depth];
        let Some(pid) = step.partition else {
            return; // unreachable: a split implies candidates, which imply a partition
        };
        let partition = self.env.data.partition(pid);
        let total = shared.cands.len();
        let chunk = claim_chunk(total);
        let validated_before = self.tally.metrics.validated;
        loop {
            let start = shared.next.fetch_add(chunk, Ordering::Relaxed);
            if start >= total {
                break;
            }
            if !owner {
                self.tally.metrics.assist_chunks += 1;
            }
            let end = (start + chunk).min(total);
            // The claimer of the final chunk releases the shared buffers'
            // accounting (exactly one participant sees end == total with a
            // live claim). A stopped query may skip the release — harmless:
            // its peak is already recorded and the tracker dies with it.
            if end == total {
                self.env.tracker.free(shared.bytes());
            }
            let rows = &shared.cands[start..end];
            self.validate_rows(partition, step, &shared.emb, rows, true);
            // One stop probe per claim (a claim is at most ABORT_PROBE
            // rows): unclaimed chunks of a stopped query are dropped —
            // every other participant sees the same signal.
            if self.probe() {
                return;
            }
        }
        // This participant's share is a completed step boundary; the owner
        // also accounts the candidates it generated.
        let candidates = if owner { total as u64 } else { 0 };
        let partials = self.tally.metrics.validated - validated_before;
        self.note_step(depth, candidates, partials);
    }

    /// The one candidate loop, over a block of at most [`ABORT_PROBE`]
    /// rows of one expansion — the serial path's block or a claim of a
    /// split: [`validate_block`] compacts the block's valid extensions onto
    /// `scratch.valid` with no branch per row. Short of the last step they
    /// stay there for the children; at the last step each completes an
    /// embedding, which is delivered in row order to a sink that wants
    /// embeddings and otherwise only counted, once for the block, and
    /// `scratch.valid` is left as it was found.
    fn validate_rows(
        &mut self,
        partition: &Partition,
        step: &Step,
        emb: &[u32],
        rows: &[u32],
        last: bool,
    ) {
        let scratch = &mut *self.scratch;
        let base = scratch.valid.len();
        let (valid, filtered) = validate_block(
            step,
            &scratch.state,
            &mut scratch.validate,
            partition,
            emb,
            rows,
            &mut scratch.valid,
        );
        self.tally.metrics.filtered += filtered;
        self.tally.metrics.validated += valid;
        if !last {
            return;
        }
        if self.env.sink.needs_embeddings() {
            for i in base..self.scratch.valid.len() {
                let global = self.scratch.valid[i];
                self.scratch.full.clear();
                self.scratch.full.extend_from_slice(emb);
                self.scratch.full.push(global);
                self.deliver_full();
            }
        } else if valid > 0 {
            self.tally.metrics.embeddings += valid;
            self.count(valid);
        }
        self.scratch.valid.truncate(base);
    }

    /// Emits one child expansion of `parent` per data edge of `globals`,
    /// in the order given, after one memory-tracker update and one
    /// announcement for all of them.
    fn spawn_children(&mut self, parent: &[u32], globals: impl ExactSizeIterator<Item = u32>) {
        let k = globals.len();
        if k == 0 {
            return;
        }
        self.track(k * MemoryTracker::embedding_bytes(parent.len() + 1));
        self.sched.announce(k);
        for global in globals {
            self.push_expand(parent, global);
        }
    }

    /// Pushes the expansion of `parent + [global]`, inline when it fits and
    /// through a pooled spill buffer beyond [`INLINE_EMB`]. The memory
    /// tracker accounts the queued embedding either way — Theorem VI.1
    /// bounds materialised partial embeddings, not allocator traffic.
    fn push_expand(&mut self, parent: &[u32], global: u32) {
        let len = parent.len() + 1;
        if len <= INLINE_EMB {
            let mut emb = [0u32; INLINE_EMB];
            emb[..parent.len()].copy_from_slice(parent);
            emb[parent.len()] = global;
            self.sched.push(Task::Expand {
                depth: len as u8,
                emb,
            });
        } else {
            let mut buf = self.scratch.pool.pop().unwrap_or_default();
            buf.clear();
            buf.reserve(len);
            buf.extend_from_slice(parent);
            buf.push(global);
            self.sched.push(Task::ExpandSpilled { emb: buf });
        }
    }

    /// Records per-position counts at a completed step boundary (the
    /// observed side of `explain --observed`).
    fn note_step(&mut self, pos: usize, candidates: u64, partials: u64) {
        let steps = &mut self.tally.metrics.steps;
        steps.record_candidates(pos, candidates);
        steps.record_partials(pos, partials);
    }

    /// Delivers `self.scratch.full` as a complete embedding to a sink that
    /// wants embeddings.
    fn deliver_full(&mut self) {
        self.tally.metrics.embeddings += 1;
        self.tally.metrics.materialized += 1;
        self.count(1);
        self.env
            .plan
            .to_query_order_into(&self.scratch.full, &mut self.scratch.ordered);
        self.env.sink.consume(&self.scratch.ordered);
    }

    /// Counts `n` embeddings toward the sink, batched in the tally.
    fn count(&mut self, n: u64) {
        self.tally.uncounted += n;
        if self.tally.uncounted >= COUNT_FLUSH {
            self.tally.flush_counts(self.env.sink);
        }
    }

    /// A mid-expansion stop probe. The count found so far reaches the sink
    /// first, so a `max_results` limit is seen by this probe and every
    /// other participant's.
    fn probe(&mut self) -> bool {
        self.tally.flush_counts(self.env.sink);
        self.sched.stop()
    }
}

/// Closures as a [`Scheduler`], for unit tests: `stop` is the probe and
/// `push` takes each child; every push must have been announced.
#[cfg(test)]
pub(crate) struct Closures<F, P> {
    stop: F,
    push: P,
    announced: usize,
}

#[cfg(test)]
impl<F: FnMut() -> bool, P: FnMut(Task)> Closures<F, P> {
    pub(crate) fn new(stop: F, push: P) -> Self {
        Self {
            stop,
            push,
            announced: 0,
        }
    }
}

#[cfg(test)]
impl<F: FnMut() -> bool, P: FnMut(Task)> Scheduler for Closures<F, P> {
    fn stop(&mut self) -> bool {
        (self.stop)()
    }

    fn announce(&mut self, k: usize) {
        assert!(k > 0 && self.announced == 0, "one announcement per batch");
        self.announced = k;
    }

    fn push(&mut self, task: Task) {
        self.announced = self.announced.checked_sub(1).expect("pushed unannounced");
        (self.push)(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, ExpansionState};
    use crate::config::MatchConfig;
    use crate::memory::MemoryTracker;
    use crate::plan::{Plan, Planner};
    use crate::query::QueryGraph;
    use crate::sink::{CollectSink, CountSink};
    use hgmatch_hypergraph::{HypergraphBuilder, Label};

    /// Complete pair graph over `n` same-label vertices and a 2-edge path
    /// query: every expansion of a matched first edge sees a fat candidate
    /// list (every other edge in the single {A,A} partition).
    fn pair_clique(n: u32) -> (Hypergraph, Plan) {
        path_over_clique(n, 2)
    }

    /// The same data under a path query of `path_edges` edges.
    fn path_over_clique(n: u32, path_edges: u32) -> (Hypergraph, Plan) {
        let mut d = HypergraphBuilder::new();
        d.add_vertices(n as usize, Label::new(0));
        for i in 0..n {
            for j in (i + 1)..n {
                d.add_edge(vec![i, j]).unwrap();
            }
        }
        let data = d.build().unwrap();
        let mut q = HypergraphBuilder::new();
        q.add_vertices(path_edges as usize + 1, Label::new(0));
        for i in 0..path_edges {
            q.add_edge(vec![i, i + 1]).unwrap();
        }
        let query = QueryGraph::new(&q.build().unwrap()).unwrap();
        let plan = Planner::plan(&query, &data).unwrap();
        (data, plan)
    }

    /// Runs `root` and every task it transitively spawns on one thread,
    /// returning (delivered, executed tasks, metrics). With a config that
    /// splits, this drains assist tickets after the owner's claim loop —
    /// the degenerate-ticket path.
    fn drain(
        data: &Hypergraph,
        plan: &Plan,
        config: &MatchConfig,
        root: Task,
    ) -> (u64, u64, MatchMetrics) {
        drain_on(&mut ExecScratch::new(), data, plan, config, root)
    }

    /// [`drain`] on a caller-supplied scratch, whatever earlier tasks left
    /// in it.
    fn drain_on(
        scratch: &mut ExecScratch,
        data: &Hypergraph,
        plan: &Plan,
        config: &MatchConfig,
        root: Task,
    ) -> (u64, u64, MatchMetrics) {
        let sink = CountSink::new();
        let (executed, metrics) = drain_into(&sink, scratch, data, plan, config, root);
        (sink.count(), executed, metrics)
    }

    /// [`drain_on`] into `sink`, publishing the tally at the end as a
    /// scheduler would; returns (executed tasks, metrics).
    fn drain_into<S: Sink>(
        sink: &S,
        scratch: &mut ExecScratch,
        data: &Hypergraph,
        plan: &Plan,
        config: &MatchConfig,
        root: Task,
    ) -> (u64, MatchMetrics) {
        let tracker = MemoryTracker::new();
        let env = QueryEnv {
            plan,
            data,
            sink,
            config,
            tracker: &tracker,
        };
        let scan = matches!(root, Task::Scan { .. });
        let mut tally = Tally::default();
        let mut queue = vec![root];
        let mut executed = 0;
        while let Some(task) = queue.pop() {
            let mut sched = Closures::new(|| false, |t| queue.push(t));
            execute_task(&env, scratch, &mut tally, task, &mut sched);
            executed += 1;
        }
        tally.flush_counts(sink);
        if scan {
            assert_eq!(tracker.live_bytes(), 0, "every queued embedding released");
        }
        (executed, tally.metrics)
    }

    /// The inline expansion task of the partial embedding `emb`.
    fn expand(emb: &[u32]) -> Task {
        let mut inline = [0u32; INLINE_EMB];
        inline[..emb.len()].copy_from_slice(emb);
        Task::Expand {
            depth: emb.len() as u8,
            emb: inline,
        }
    }

    /// An assist ticket over the candidates the owner of `emb`'s expansion
    /// would have shared, with no claim taken yet.
    fn ticket(data: &Hypergraph, plan: &Plan, emb: Vec<u32>) -> (Task, usize) {
        let step = &plan.steps()[emb.len()];
        let mut state = ExpansionState::new();
        state.prepare(data, step, &emb);
        let produced = generate_candidates(data, step, &emb, &mut state, &MatchConfig::default());
        let shared = Arc::new(SplitExpansion {
            emb,
            cands: std::mem::take(&mut state.candidates),
            next: AtomicUsize::new(0),
        });
        (Task::Assist { shared }, produced)
    }

    /// The rule itself: under one threshold, a fat expansion short of the
    /// last position spawns children and never splits, while a last-step
    /// one publishes its range and emits only tickets.
    #[test]
    fn only_the_last_step_splits() {
        let (data, plan) = path_over_clique(9, 3);
        let config = MatchConfig::parallel(2).with_split_threshold(4);
        let sink = CountSink::new();
        let tracker = MemoryTracker::new();
        let env = QueryEnv {
            plan: &plan,
            data: &data,
            sink: &sink,
            config: &config,
            tracker: &tracker,
        };
        let run = |emb: &[u32]| {
            let mut tally = Tally::default();
            let mut emitted = Vec::new();
            execute_task(
                &env,
                &mut ExecScratch::new(),
                &mut tally,
                expand(emb),
                &mut Closures::new(|| false, |t| emitted.push(t)),
            );
            (tally.metrics, emitted)
        };

        // e0 = {0,1}, e8 = {1,2}: a valid two-edge prefix.
        let (inner, children) = run(&[0]);
        assert!(inner.candidates >= 4, "the inner expansion is fat enough");
        assert_eq!(inner.split_expansions, 0);
        assert!(!children.is_empty());
        assert!(children.iter().all(|t| matches!(t, Task::Expand { .. })));

        let (last, tickets) = run(&[0, 8]);
        assert!(last.candidates >= 4);
        assert_eq!(last.split_expansions, 1);
        assert!(!tickets.is_empty());
        assert!(tickets.iter().all(|t| matches!(t, Task::Assist { .. })));
    }

    #[test]
    fn split_path_delivers_the_same_embeddings() {
        let (data, plan) = pair_clique(9); // 36 edges, plenty of candidates
        let root = || Task::Scan {
            start: 0,
            end: data.partition(plan.steps()[0].partition.unwrap()).len() as u32,
        };

        let plain = MatchConfig::parallel(4).with_split_threshold(0);
        let (expect, _, m0) = drain(&data, &plan, &plain, root());
        assert!(expect > 0);
        assert_eq!(m0.split_expansions, 0);

        let split = MatchConfig::parallel(4).with_split_threshold(4);
        let (got, executed, m1) = drain(&data, &plan, &split, root());
        assert_eq!(got, expect, "splitting must not change the result set");
        assert!(m1.split_expansions > 0, "threshold 4 must trigger splits");
        // One thread drains everything: the owner's claim loop empties each
        // shared range, so every ticket degenerates to accounting — but is
        // still executed exactly once.
        assert_eq!(m1.assist_chunks, 0);
        assert!(executed > m1.split_expansions);
    }

    #[test]
    fn single_worker_config_never_splits() {
        let (data, plan) = pair_clique(9);
        let config = MatchConfig::parallel(1).with_split_threshold(1);
        let root = Task::Scan {
            start: 0,
            end: data.partition(plan.steps()[0].partition.unwrap()).len() as u32,
        };
        let (_, _, m) = drain(&data, &plan, &config, root);
        assert_eq!(m.split_expansions, 0, "threads=1 suppresses splitting");
    }

    /// The thief path, deterministically: an assist ticket executed on a
    /// *fresh* scratch (as a thief would) must validate exactly the chunks
    /// the owner did not claim and deliver the same embeddings.
    #[test]
    fn assist_ticket_resumes_on_fresh_scratch() {
        let (data, plan) = pair_clique(9);
        let config = MatchConfig::parallel(2).with_split_threshold(0);

        // Oracle: the plain (unsplit) expansion of e0.
        let (expect, _, _) = drain(&data, &plan, &config, expand(&[0]));
        assert!(expect > 0);

        // The ticket alone (owner never claims): a fresh scratch must
        // rebuild the expansion state and drain the whole range.
        let (ticket, produced) = ticket(&data, &plan, vec![0]);
        assert!(produced > 0);
        let Task::Assist { shared } = ticket else {
            unreachable!()
        };
        let (got, _, m) = drain(
            &data,
            &plan,
            &config,
            Task::Assist {
                shared: Arc::clone(&shared),
            },
        );
        assert_eq!(got, expect);
        assert_eq!(
            m.assist_chunks as usize,
            produced.div_ceil(claim_chunk(produced))
        );

        // A second ticket on the drained range degenerates to accounting.
        let (rest, executed, m2) = drain(&data, &plan, &config, Task::Assist { shared });
        assert_eq!((rest, executed), (0, 1));
        assert_eq!(m2.assist_chunks, 0);
    }

    /// The thief path as it really happens: the ticket lands on a scratch
    /// that has just descended somewhere else entirely — in another query,
    /// since scratch is reused across queries. Its level stack and
    /// class-code table describe another embedding — one step deeper, so
    /// more vertices carry a code than the ticket's embedding has — and
    /// `execute_assist`'s one `prepare` must leave no trace of it.
    #[test]
    fn assist_ticket_resumes_on_a_used_scratch() {
        let (data, plan) = path_over_clique(9, 3);
        let (_, deeper) = path_over_clique(9, 4);
        let config = MatchConfig::parallel(2).with_split_threshold(0);

        let mut scratch = ExecScratch::new();
        // Last-step tickets over two-edge prefixes sharing one vertex.
        for (own, stolen) in [(35u32, [0u32, 8]), (0, [20, 15]), (20, [35, 34])] {
            // The thief's own work first: a whole four-edge subtree.
            let (own_count, _, _) = drain_on(&mut scratch, &data, &deeper, &config, expand(&[own]));
            assert!(own_count > 0);
            // Then the ticket for an unrelated embedding.
            let (expect, _, _) = drain(&data, &plan, &config, expand(&stolen));
            assert!(expect > 0);
            let (got, _, _) = drain_on(
                &mut scratch,
                &data,
                &plan,
                &config,
                ticket(&data, &plan, stolen.to_vec()).0,
            );
            assert_eq!(
                got, expect,
                "ticket for {stolen:?} after working under e{own}"
            );
        }
    }

    /// Bulk counting at the last step: a count-only sink and a collecting
    /// sink see the same expansions validate the same rows and find the
    /// same embeddings — on the serial path, and on a split forced at
    /// threshold 4 whose ticket runs on a fresh scratch. The block loop
    /// gives what a per-row `validate_candidate` loop gives: the counts,
    /// the delivered sequence and the child order.
    #[test]
    fn count_only_and_collecting_sinks_agree() {
        let (data, plan) = pair_clique(9);
        let rows = data.partition(plan.steps()[0].partition.unwrap()).len() as u32;
        let serial = MatchConfig::parallel(2).with_split_threshold(0);
        let split = MatchConfig::parallel(2).with_split_threshold(4);
        let roots: [(&MatchConfig, &dyn Fn() -> Task); 3] = [
            (&serial, &|| Task::Scan {
                start: 0,
                end: rows,
            }),
            (&split, &|| Task::Scan {
                start: 0,
                end: rows,
            }),
            (&split, &|| ticket(&data, &plan, vec![0]).0),
        ];
        for (case, (config, root)) in roots.into_iter().enumerate() {
            let counting = CountSink::new();
            let (_, counted) = drain_into(
                &counting,
                &mut ExecScratch::new(),
                &data,
                &plan,
                config,
                root(),
            );
            let collecting = CollectSink::new();
            let (_, collected) = drain_into(
                &collecting,
                &mut ExecScratch::new(),
                &data,
                &plan,
                config,
                root(),
            );
            assert!(counted.embeddings > 0, "case {case}");
            for (what, count_only, collect) in [
                ("embeddings", counted.embeddings, collected.embeddings),
                ("validated", counted.validated, collected.validated),
                ("filtered", counted.filtered, collected.filtered),
                ("count", counting.count(), collecting.count()),
            ] {
                assert_eq!(count_only, collect, "case {case}: {what}");
            }
            assert_eq!(counting.count(), counted.embeddings, "case {case}");
            assert_eq!(
                (counted.materialized, collected.materialized),
                (0, collected.embeddings)
            );
            assert_eq!(collecting.into_results().len() as u64, counted.embeddings);
            if case > 0 {
                assert!(
                    counted.split_expansions + counted.assist_chunks > 0,
                    "case {case}"
                );
            }
        }

        // The block loop against a per-row `validate_candidate` loop over
        // the same candidates: a fan's first expansion spans three blocks,
        // at the last step under both sinks and at an inner step, on the
        // lanes and forced onto the counter kernel.
        for three_edges in [false, true] {
            let (data, lanes) = fan(1000, three_edges);
            assert!(lanes.steps().iter().all(|step| step.need_lanes.is_some()));
            for plan in [lanes.clone(), lanes.with_counter_kernel()] {
                let case = (three_edges, plan.steps()[1].need_lanes.is_some());
                let (validated, filtered, valid) = per_row(&data, &plan, &[0]);
                assert_eq!((validated, filtered), (1000, 2000), "{case:?}");

                let delivered = parking_lot::Mutex::new(Vec::new());
                let sink =
                    crate::sink::CallbackSink::new(|e: &[u32]| delivered.lock().push(e.to_vec()));
                let (metrics, children) = one_task(&sink, &data, &plan, expand(&[0]));
                let (counted, _) = one_task(&CountSink::new(), &data, &plan, expand(&[0]));
                assert!(metrics.candidates > 2 * ABORT_PROBE as u64, "{case:?}");
                for m in [&metrics, &counted] {
                    assert_eq!((m.validated, m.filtered), (validated, filtered), "{case:?}");
                }
                if !three_edges {
                    let want: Vec<Vec<u32>> = valid
                        .iter()
                        .map(|&g| plan.to_query_order(&[0, g]))
                        .collect();
                    assert_eq!(delivered.into_inner(), want, "{case:?}: delivery order");
                    assert_eq!(
                        (metrics.embeddings, counted.embeddings),
                        (validated, validated)
                    );
                    assert!(children.is_empty());
                } else {
                    let order: Vec<u32> = children
                        .iter()
                        .map(|t| match t {
                            Task::Expand { depth: 2, emb, .. } if emb[0] == 0 => emb[1],
                            other => panic!("{case:?}: unexpected child {other:?}"),
                        })
                        .collect();
                    assert!(
                        order.iter().rev().eq(&valid),
                        "{case:?}: reverse child order"
                    );
                    assert_eq!(metrics.embeddings, 0);
                }
            }
        }

        // A claim loop at the last step leaves `scratch.valid` as found.
        let (data, plan) = fan(1000, false);
        let mut scratch = ExecScratch::new();
        scratch.valid.extend([7, 8, 9]);
        let (delivered, _, _) = drain_on(
            &mut scratch,
            &data,
            &plan,
            &MatchConfig::parallel(2),
            ticket(&data, &plan, vec![0]).0,
        );
        assert_eq!(delivered, per_row(&data, &plan, &[0]).0);
        assert_eq!(scratch.valid, [7, 8, 9]);
    }

    /// Edge 0 = `{0, 1, 2}` with labels A, A, B, and `blades` times three
    /// `{A, A, B}` edges around it, each sharing vertex 0, with a fresh A
    /// vertex `s` and a fresh B vertex `t`: `{0, 1, t}`, `{0, s, 2}` and
    /// `{0, s, t}`. The query `{u0, u1, u2}`, `{u0, u1, u3}` (and, with
    /// `three_edges`, `{u3, u4, u5}`), labelled alike and matched in that
    /// order, extends edge 0 by every `{0, 1, t}`; `{0, s, 2}` passes the
    /// count check and fails the profiles (2 is no class), `{0, s, t}`
    /// fails the count.
    fn fan(blades: u32, three_edges: bool) -> (Hypergraph, Plan) {
        let (a, b) = (Label::new(0), Label::new(1));
        let mut d = HypergraphBuilder::new();
        for label in [a, a, b] {
            d.add_vertex(label);
        }
        d.add_edge(vec![0, 1, 2]).unwrap();
        for _ in 0..blades {
            let (s, t) = (d.add_vertex(a).raw(), d.add_vertex(b).raw());
            for edge in [[0, 1, t], [0, s, 2], [0, s, t]] {
                d.add_edge(edge.to_vec()).unwrap();
            }
        }
        let data = d.build().unwrap();
        let mut q = HypergraphBuilder::new();
        for label in [a, a, b, b] {
            q.add_vertex(label);
        }
        q.add_edge(vec![0, 1, 2]).unwrap();
        q.add_edge(vec![0, 1, 3]).unwrap();
        if three_edges {
            q.add_vertices(2, a);
            q.add_edge(vec![3, 4, 5]).unwrap();
        }
        let query = QueryGraph::new(&q.build().unwrap()).unwrap();
        let order = (0..query.num_edges() as u32).collect();
        let plan = Planner::plan_with_order(&query, &data, order).unwrap();
        (data, plan)
    }

    /// A per-row `validate_candidate` loop over the candidates of `emb`'s
    /// expansion: (validated, filtered, valid global ids in row order).
    fn per_row(data: &Hypergraph, plan: &Plan, emb: &[u32]) -> (u64, u64, Vec<u32>) {
        use crate::validate::{validate_candidate, Validation};
        let step = &plan.steps()[emb.len()];
        let partition = data.partition(step.partition.unwrap());
        let mut state = ExpansionState::new();
        state.prepare(data, step, emb);
        generate_candidates(data, step, emb, &mut state, &MatchConfig::default());
        let mut scratch = ValidateScratch::new();
        let (mut filtered, mut valid) = (0, Vec::new());
        for &row in &state.candidates {
            let global = partition.global_id(row).raw();
            let vertices = partition.row(row);
            match validate_candidate(
                data,
                step,
                emb.len(),
                emb,
                &state,
                global,
                vertices,
                &mut scratch,
            ) {
                Validation::Valid => {
                    filtered += 1;
                    valid.push(global);
                }
                Validation::WrongProfiles => filtered += 1,
                Validation::WrongVertexCount | Validation::Duplicate => {}
            }
        }
        (valid.len() as u64, filtered, valid)
    }

    /// Executes `task` alone into `sink`, publishing the tally at the end;
    /// returns its metrics and its children in push order.
    fn one_task<S: Sink>(
        sink: &S,
        data: &Hypergraph,
        plan: &Plan,
        task: Task,
    ) -> (MatchMetrics, Vec<Task>) {
        let config = MatchConfig::parallel(2);
        let tracker = MemoryTracker::new();
        let env = QueryEnv {
            plan,
            data,
            sink,
            config: &config,
            tracker: &tracker,
        };
        let (mut tally, mut children) = (Tally::default(), Vec::new());
        let mut sched = Closures::new(|| false, |t| children.push(t));
        execute_task(&env, &mut ExecScratch::new(), &mut tally, task, &mut sched);
        tally.flush_counts(sink);
        (tally.metrics, children)
    }

    /// A stop raised *during* candidate generation (not just between
    /// validation probes) must abandon the expansion: no children, no
    /// deliveries, and no candidate accounting for the partial decode —
    /// the cancellation-latency contract generation's block-boundary
    /// probes exist to uphold.
    #[test]
    fn mid_generation_abort_spawns_nothing() {
        let (data, plan) = pair_clique(12);
        let sink = CountSink::new();
        let tracker = MemoryTracker::new();
        let config = MatchConfig::default();
        let env = QueryEnv {
            plan: &plan,
            data: &data,
            sink: &sink,
            config: &config,
            tracker: &tracker,
        };
        let mut scratch = ExecScratch::new();
        let mut tally = Tally::default();
        let mut spawned = 0usize;
        let mut probes = 0u64;
        // Probe 1 is the task-entry check; every later probe (the first of
        // which generation itself issues) sees the stop raised.
        let mut sched = Closures::new(
            || {
                probes += 1;
                probes > 1
            },
            |_| spawned += 1,
        );
        execute_task(&env, &mut scratch, &mut tally, expand(&[0]), &mut sched);
        assert!(probes >= 2, "generation must probe past task entry");
        let metrics = tally.metrics;
        assert_eq!(metrics.embeddings, 0);
        assert_eq!(spawned, 0, "an aborted generation must emit no children");
        assert_eq!(
            metrics.candidates, 0,
            "a partial decode contributes no candidate accounting"
        );
        assert_eq!(metrics.expansions, 1);
    }
}
