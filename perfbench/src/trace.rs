//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the program; nothing inside the program is instrumented. Each
//! span keeps a name, start and end, its parent, and the request or task
//! id it belongs to. Spans stay in memory until [`Trace::write`] dumps
//! them as JSON lines at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`exp.task.leader`, `protocol.parse`, …).
    pub name: &'static str,
    /// Start, seconds since the trace origin.
    pub start: f64,
    /// End, seconds since the trace origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id (serving) or unique-task index (sweeps).
    pub id: u64,
}

impl Span {
    /// Wall duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span store of one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Trace { origin, spans: Vec::new() }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span { name, start: at(start), end: at(end), parent, id });
        self.spans.len() - 1
    }

    /// Sets the end of a span to now: a parent is recorded with its start
    /// as its end, its children are recorded while it runs, and this
    /// closes it.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
    }

    /// All spans in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. Children of one parent run one after another, so their
    /// durations add.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration();
            }
        }
        own
    }

    /// Self time summed per span name under each root span (a span with no
    /// parent), keyed by the root's index.
    #[must_use]
    pub fn self_time_by_root(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let own = self.self_times();
        let mut root = vec![0; self.spans.len()];
        let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            // Parents are recorded before their children, so the parent's
            // root is already known.
            root[i] = span.parent.map_or(i, |p| root[p]);
            *out.entry(root[i]).or_default().entry(span.name).or_insert(0.0) += own[i];
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates the file write failure.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent},"id":{}}}"#,
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.id
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut trace = Trace::new(t0);
        let root = trace.record("pass", None, 0, ms(0), ms(100));
        trace.record("a", Some(root), 1, ms(10), ms(40));
        let b = trace.record("b", Some(root), 2, ms(40), ms(90));
        trace.record("c", Some(b), 2, ms(50), ms(60));
        let own = trace.self_times();
        assert!((own[root] - 0.020).abs() < 1e-9);
        assert!((own[b] - 0.040).abs() < 1e-9);
        let other = trace.record("pass", None, 1, ms(100), ms(110));
        let by_root = trace.self_time_by_root();
        assert!((by_root[&root]["a"] - 0.030).abs() < 1e-9);
        assert!((by_root[&root]["c"] - 0.010).abs() < 1e-9);
        assert!((by_root[&root].values().sum::<f64>() - 0.100).abs() < 1e-9);
        assert!((by_root[&other]["pass"] - 0.010).abs() < 1e-9);
    }
}
