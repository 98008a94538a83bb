//! In-memory spans: name, start, end, parent and op id, kept per thread
//! and written out once when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: `op.<kind>` roots, `http.<call>` client calls, or
    /// `<layer>.<function>` in the layer pass.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Start, in µs since the run's epoch.
    pub start_us: f64,
    /// End, in µs since the run's epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// A span recorder. A disabled tracer records nothing, so the untraced
/// run pays only a branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Self {
        Self::new(self.epoch, self.enabled)
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished interval; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
        });
        Some(self.spans.len() - 1)
    }

    /// Start a span that encloses spans recorded before [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// End a span started with [`open`](Self::open).
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, op, parent, start, Instant::now());
        value
    }

    /// Move another thread's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span `keep` accepts, in ms: its duration minus
    /// the time its direct children cover.
    pub fn self_ms(&self, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| keep(span))
            .map(|(i, span)| span.ms() - child_ms[i])
            .collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}{}",
                span.name,
                span.op,
                span.start_us,
                span.end_us,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut tracer = Tracer::new(epoch, true);
        let root = tracer.record("op.miss", 1, None, at(0), at(100));
        tracer.record("http.submit", 1, root, at(0), at(10));
        tracer.record("http.poll", 1, root, at(50), at(80));
        let mut other = tracer.fork();
        let root2 = other.record("op.miss", 2, None, at(0), at(40));
        other.record("http.submit", 2, root2, at(0), at(40));
        tracer.absorb(other);
        let mut roots = tracer.self_ms(|s| s.name == "op.miss");
        roots.sort_by(f64::total_cmp);
        assert_eq!(roots.len(), 2);
        assert!(roots[0].abs() < 1e-6 && (roots[1] - 60.0).abs() < 1e-6);
        assert_eq!(
            tracer.self_ms(|s| s.name == "http.submit"),
            vec![10.0, 40.0]
        );
        assert_eq!(tracer.self_ms(|s| s.name.starts_with("http.")).len(), 3);
        assert_eq!(tracer.self_ms(|s| s.parent.is_none()).len(), 2);
        assert!(tracer.to_json().contains("\"parent\":3"));
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        assert_eq!(tracer.time("x", 0, None, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
