//! In-memory span recording for the traced run. Spans are taken around
//! the benchmark's own calls into each layer, kept in memory, and written
//! out once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Identifies a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `zatel.heatmap`.
    pub name: String,
    /// The cell or request the span belongs to.
    pub group: String,
    /// Offset from the recorder's start.
    pub start: Duration,
    /// Offset from the recorder's start.
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The span's duration.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Offset of now from the epoch.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Records a span whose bounds were measured elsewhere (a job's
    /// timing reported by the executor, for example).
    pub fn record(
        &mut self,
        name: &str,
        group: &str,
        start: Duration,
        end: Duration,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_owned(),
            group: group.to_owned(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends; children recorded in
    /// between name it as their parent.
    pub fn open(&mut self, name: &str, group: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.record(name, group, now, now, parent)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        group: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.open(name, group, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval that its
    /// children cover (overlapping children count once).
    pub fn self_time(&self, id: SpanId) -> Duration {
        let span = &self.spans[id];
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = span.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur().saturating_sub(covered)
    }

    /// Total self time of every span called `name`, in seconds.
    pub fn total_self_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i).as_secs_f64())
            .sum()
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64())
            .sum()
    }

    /// Writes the spans as JSON lines (`name`, `group`, `start_us`,
    /// `end_us`, `parent`, `self_us`).
    ///
    /// # Errors
    ///
    /// Returns the I/O error that stopped the write.
    pub fn write_out(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut m = minijson::Map::new();
            m.insert("id".into(), minijson::Value::from(i as u64));
            m.insert("name".into(), minijson::Value::from(s.name.as_str()));
            m.insert("group".into(), minijson::Value::from(s.group.as_str()));
            m.insert("start_us".into(), micros(s.start));
            m.insert("end_us".into(), micros(s.end));
            m.insert(
                "parent".into(),
                s.parent
                    .map_or(minijson::Value::Null, |p| minijson::Value::from(p as u64)),
            );
            m.insert("self_us".into(), micros(self.self_time(i)));
            writeln!(out, "{}", minijson::Value::Object(m))?;
        }
        out.flush()
    }
}

fn micros(d: Duration) -> minijson::Value {
    minijson::Value::from(d.as_micros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let parent = t.record("p", "c", ms(0), ms(100), None);
        t.record("a", "c", ms(10), ms(40), Some(parent));
        // Overlaps `a`: the union 10..60 is covered once.
        t.record("b", "c", ms(30), ms(60), Some(parent));
        // Not a child.
        t.record("x", "c", ms(0), ms(100), None);
        assert_eq!(t.self_time(parent), ms(50));
        assert_eq!(t.total_self_s("a"), 0.03);
        assert_eq!(t.total_s("p"), 0.1);
    }
}
