//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory during a run and are written as JSON lines at exit.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent == 0` marks a root; spans of one request
/// share the root's id as their parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls or items the interval covers.
    pub count: u64,
}

/// A span buffer owned by one thread; ids are unique across buffers.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `lane` separates the id spaces of concurrent tracers.
    pub fn new(origin: Instant, lane: u64) -> Self {
        Tracer {
            origin,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// The instant offsets are counted from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span between two instants and returns its id.
    pub fn span(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.span_ns(parent, name, start_ns, end_ns, 1)
    }

    /// Records a span from nanosecond offsets, with a call count.
    pub fn span_ns(
        &mut self,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            count,
        });
        id
    }
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}
