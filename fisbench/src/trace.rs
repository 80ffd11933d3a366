//! Timing and the in-memory span recorder.
//!
//! Every timed call in the benchmark goes through [`Recorder::span`],
//! which measures the call whether or not tracing is on. With tracing
//! off (the end-to-end run) that is all it does; with tracing on it also
//! keeps a span (name, start, end, parent) in memory, and
//! [`Recorder::write_jsonl`] writes them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span totals for one name: how many, their summed duration, and their
/// summed self time (duration minus the time their child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

/// An open span. [`Guard::finish`] closes it and returns its duration.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start: Instant,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the recorder was created.
    pub fn wall_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under `parent` (a [`Guard::id`]).
    pub fn span(&self, name: &'static str, parent: Option<usize>) -> Guard<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Guard {
            recorder: self,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Times `f` as a span and returns its result with the seconds taken.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let guard = self.span(name, parent);
        let value = std::hint::black_box(f());
        (value, guard.finish())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for span in &spans {
            let entry = totals.entry(span.name).or_default();
            let duration = span.duration_ns();
            entry.count += 1;
            entry.total_ns += duration;
            // Children on other threads can overlap each other, so their
            // sum may exceed the parent; self time never goes negative.
            entry.self_ns += duration.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","start_us":{:.3},"end_us":{:.3}}}"#,
                span.id,
                parent,
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }

    /// Measured cost of recording one span (open, close, store), in
    /// nanoseconds, from a scratch recorder.
    pub fn span_cost_ns() -> f64 {
        const N: usize = 20_000;
        let scratch = Recorder::new(true);
        let started = Instant::now();
        for _ in 0..N {
            scratch.span("calibration", None).finish();
        }
        started.elapsed().as_nanos() as f64 / N as f64
    }
}

impl Guard<'_> {
    /// The id children pass as their parent; `None` when tracing is off.
    pub fn id(&self) -> Option<usize> {
        self.recorder.enabled.then_some(self.id)
    }

    /// Closes the span and returns its duration in seconds.
    pub fn finish(self) -> f64 {
        let end = Instant::now();
        let seconds = end.duration_since(self.start).as_secs_f64();
        if self.recorder.enabled {
            let origin = self.recorder.origin;
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start.duration_since(origin).as_nanos() as u64,
                end_ns: end.duration_since(origin).as_nanos() as u64,
            };
            self.recorder
                .spans
                .lock()
                .expect("span list lock poisoned")
                .push(span);
        }
        seconds
    }
}
