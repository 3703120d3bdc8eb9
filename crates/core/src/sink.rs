//! Result sinks — the SINK dataflow operator's consumption strategies.
//!
//! The paper's SINK operator either counts or outputs embeddings (§VI-A).
//! Executors deliver counts in batches (`add_count`), so counting costs
//! one relaxed atomic add per batch rather than per embedding; full
//! embeddings are only materialised when `needs_embeddings()` says so.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::embedding::Embedding;

/// Consumes match results. Implementations must be thread-safe: workers
/// call methods concurrently.
pub trait Sink: Sync {
    /// Whether the executor should materialise embeddings and call
    /// [`Sink::consume`] (otherwise it only counts).
    fn needs_embeddings(&self) -> bool {
        false
    }

    /// Delivers one complete embedding (data edge ids in query-edge order).
    /// Only called when [`Sink::needs_embeddings`] returns `true`.
    fn consume(&self, _embedding: &[u32]) {}

    /// Delivers a batch of `n` matches (always called; a batch may span
    /// several tasks of one worker).
    fn add_count(&self, n: u64);

    /// When `true`, executors stop producing new results as soon as
    /// practical (used by first-k search).
    fn is_satisfied(&self) -> bool {
        false
    }
}

/// Counts embeddings.
#[derive(Debug, Default)]
pub struct CountSink {
    count: AtomicU64,
}

impl CountSink {
    /// Creates a zeroed counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total matches delivered so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl Sink for CountSink {
    fn add_count(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }
}

/// Collects every embedding.
#[derive(Debug, Default)]
pub struct CollectSink {
    count: AtomicU64,
    results: Mutex<Vec<Embedding>>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the collected embeddings, sorted for determinism.
    pub fn into_results(self) -> Vec<Embedding> {
        let mut v = self.results.into_inner();
        v.sort_unstable();
        v
    }

    /// Number of embeddings collected.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl Sink for CollectSink {
    fn needs_embeddings(&self) -> bool {
        true
    }

    fn consume(&self, embedding: &[u32]) {
        self.results.lock().push(Embedding::new(embedding.to_vec()));
    }

    fn add_count(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }
}

/// Collects up to `k` embeddings then asks executors to stop. May collect
/// slightly more than `k` under parallel execution; excess is trimmed.
#[derive(Debug)]
pub struct FirstKSink {
    k: usize,
    count: AtomicU64,
    satisfied: AtomicBool,
    results: Mutex<Vec<Embedding>>,
}

impl FirstKSink {
    /// Creates a sink that stops after `k` embeddings.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            count: AtomicU64::new(0),
            satisfied: AtomicBool::new(k == 0),
            results: Mutex::new(Vec::new()),
        }
    }

    /// Takes at most `k` collected embeddings, sorted for determinism.
    pub fn into_results(self) -> Vec<Embedding> {
        let mut v = self.results.into_inner();
        v.sort_unstable();
        v.truncate(self.k);
        v
    }
}

impl Sink for FirstKSink {
    fn needs_embeddings(&self) -> bool {
        true
    }

    fn consume(&self, embedding: &[u32]) {
        let mut guard = self.results.lock();
        if guard.len() < self.k {
            guard.push(Embedding::new(embedding.to_vec()));
        }
        if guard.len() >= self.k {
            self.satisfied.store(true, Ordering::Release);
        }
    }

    fn add_count(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    fn is_satisfied(&self) -> bool {
        self.satisfied.load(Ordering::Acquire)
    }
}

/// Streams each embedding to a callback.
pub struct CallbackSink<F: Fn(&[u32]) + Sync> {
    count: AtomicU64,
    callback: F,
}

impl<F: Fn(&[u32]) + Sync> CallbackSink<F> {
    /// Wraps `callback`; it is invoked once per embedding, concurrently.
    pub fn new(callback: F) -> Self {
        Self {
            count: AtomicU64::new(0),
            callback,
        }
    }

    /// Number of embeddings streamed.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl<F: Fn(&[u32]) + Sync> Sink for CallbackSink<F> {
    fn needs_embeddings(&self) -> bool {
        true
    }

    fn consume(&self, embedding: &[u32]) {
        (self.callback)(embedding);
    }

    fn add_count(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_accumulates() {
        let s = CountSink::new();
        s.add_count(3);
        s.add_count(4);
        assert_eq!(s.count(), 7);
        assert!(!s.needs_embeddings());
        assert!(!s.is_satisfied());
    }

    #[test]
    fn collect_sink_sorts() {
        let s = CollectSink::new();
        s.consume(&[5, 6]);
        s.consume(&[1, 2]);
        s.add_count(2);
        assert_eq!(s.count(), 2);
        assert!(s.needs_embeddings());
        let results = s.into_results();
        assert_eq!(results[0].raw(), &[1, 2]);
        assert_eq!(results[1].raw(), &[5, 6]);
    }

    #[test]
    fn first_k_stops() {
        let s = FirstKSink::new(2);
        assert!(!s.is_satisfied());
        s.consume(&[1]);
        assert!(!s.is_satisfied());
        s.consume(&[2]);
        assert!(s.is_satisfied());
        s.consume(&[3]); // ignored: already full
        assert_eq!(s.into_results().len(), 2);
    }

    #[test]
    fn first_zero_is_immediately_satisfied() {
        let s = FirstKSink::new(0);
        assert!(s.is_satisfied());
        assert!(s.into_results().is_empty());
    }

    #[test]
    fn callback_sink_streams() {
        use std::sync::atomic::AtomicU64;
        let seen = AtomicU64::new(0);
        let s = CallbackSink::new(|emb: &[u32]| {
            seen.fetch_add(emb.iter().map(|&e| e as u64).sum(), Ordering::Relaxed);
        });
        s.consume(&[1, 2]);
        s.consume(&[3]);
        s.add_count(2);
        assert_eq!(seen.load(Ordering::Relaxed), 6);
        assert_eq!(s.count(), 2);
    }
}
