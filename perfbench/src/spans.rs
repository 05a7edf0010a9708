//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions: name, start, end, the span that caused it and
//! the request it belongs to.  Nothing is written until the run ends.  A
//! disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A span id; [`NO_SPAN`] when tracing is off or for a root's parent.
pub type SpanId = usize;

/// The id returned by a disabled tracer and used as "no parent".
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Records an already-timed interval as a closed span.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let result = f();
        self.end(id);
        result
    }

    /// Count, total and self time per span name.  A span's self time is
    /// its duration minus the part of it that its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if span.parent != NO_SPAN {
                child_ns[span.parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one tab-separated line:
    /// `id parent request name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.lock().iter().enumerate() {
            let parent = if span.parent == NO_SPAN {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true);
        let t0 = tracer.origin;
        let ms = Duration::from_millis;
        let root = tracer.record("root", NO_SPAN, 1, t0, t0 + ms(10));
        tracer.record("child", root, 1, t0 + ms(2), t0 + ms(5));
        let totals = tracer.totals();
        assert_eq!(totals["root"].total_ns, 10_000_000);
        assert_eq!(totals["root"].self_ns, 7_000_000);
        assert_eq!(totals["child"].self_ns, 3_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.begin("x", NO_SPAN, 0);
        tracer.end(id);
        assert!(tracer.totals().is_empty());
    }
}
