//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! A traced run keeps every span in memory and writes them out once at
//! the end: as Chrome trace-event JSON (loadable in Perfetto) and as a
//! per-layer self-time table. Self time is a span's duration minus the
//! part of it that its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;
use tsm::trace::JsonWriter;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `launch.execute`.
    pub name: &'static str,
    /// Request, batch, launch or episode id the span belongs to.
    pub id: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. Disabled recorders only run the timed
/// closures, so untraced runs pay nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for `id`. Spans opened inside
    /// `f` become its children.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Renames the most recent span named `from` — for a boundary whose
    /// name depends on what the call did (a plan reused or compiled).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Durations in milliseconds of every span named `name` that lies
    /// inside a span named `ancestor`.
    pub fn durations_under_ms(&self, name: &str, ancestor: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.has_ancestor(s, ancestor))
            .map(Span::ms)
            .collect()
    }

    fn has_ancestor(&self, s: &Span, ancestor: &str) -> bool {
        let mut p = s.parent;
        while let Some(i) = p {
            if self.spans[i].name == ancestor {
                return true;
            }
            p = self.spans[i].parent;
        }
        false
    }

    /// Duration in milliseconds of the most recent span named `name`.
    pub fn last_ms(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(Span::ms)
    }

    /// Self time of every span, indexed like [`Spans::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The per-layer self-time table: one row per span name, sorted by
    /// total self time, descending.
    pub fn self_time_table(&self) -> String {
        let self_ns = self.self_ns();
        let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.end_ns - s.start_ns;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, s.end_ns - s.start_ns, *own)),
            }
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.3));
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_ms/call"
        );
        for (name, count, total, own) in rows {
            let _ = writeln!(
                out,
                "{name:<28} {count:>8} {:>12.3} {:>12.3} {:>12.4}",
                total as f64 / 1e6,
                own as f64 / 1e6,
                own as f64 / 1e6 / count as f64
            );
        }
        out
    }

    /// Chrome trace-event JSON of every span (complete `X` events on one
    /// thread, microsecond timestamps), loadable in Perfetto.
    pub fn perfetto_json(&self) -> String {
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_str("displayTimeUnit", "ms");
        w.key("traceEvents").begin_array();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.field_str("name", s.name).field_str("ph", "X");
            w.field_u64("pid", 1).field_u64("tid", 1);
            w.field_raw("ts", &us(s.start_ns));
            w.field_raw("dur", &us(s.end_ns - s.start_ns));
            w.key("args").begin_object();
            w.field_u64("span", i as u64);
            w.field_raw("parent", &s.parent.map_or(-1, |p| p as i64).to_string());
            w.field_u64("id", s.id);
            w.end_object().end_object();
        }
        w.end_array().end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut spans = Spans::new(true);
        spans.time("outer", 7, |s| {
            s.time("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.time("inner", 8, |_| ());
        });
        let all = spans.spans();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        let own = spans.self_ns();
        let inner: u64 = all[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], (all[0].end_ns - all[0].start_ns) - inner);
        assert!(spans.self_time_table().contains("inner"));
        assert!(spans.perfetto_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let v = spans.time("outer", 0, |s| s.time("inner", 0, |_| 3));
        assert_eq!(v, 3);
        assert!(spans.spans().is_empty());
    }
}
