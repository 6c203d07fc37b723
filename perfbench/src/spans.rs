//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded around the benchmark's calls into each layer (never
//! inside the program), kept in memory, and written as a Chrome
//! `trace_event` file when the run ends. A span's self time is its
//! duration minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. Times are microseconds since the recorder started.
#[derive(Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Counts recorded at the span's boundary (ops, instructions, bytes).
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<u64>, thread: u64) -> Guard<'_> {
        Guard {
            recorder: self,
            span: Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                thread,
                start_us: self.now_us(),
                end_us: 0.0,
                args: Vec::new(),
            },
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Total and self time per span name, in microseconds, with counts.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0.0, |c| covered_us(c, s.start_us, s.end_us));
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.dur_us();
            entry.2 += s.dur_us() - covered;
        }
        out
    }

    /// Writes every span as a Chrome `trace_event` complete event.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let mut args = format!("\"id\":{},\"parent\":{}", s.id, s.parent.unwrap_or(0));
            for (k, v) in &s.args {
                args.push_str(&format!(",\"{k}\":{v}"));
            }
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}{}",
                s.name,
                s.thread,
                s.start_us,
                s.dur_us(),
                args,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Length of `[start, end]` covered by the union of `intervals`.
fn covered_us(intervals: &[(f64, f64)], start: f64, end: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

pub struct Guard<'r> {
    recorder: &'r Recorder,
    span: Span,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.span.id
    }

    pub fn arg(&mut self, key: &'static str, value: f64) {
        self.span.args.push((key, value));
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.span.end_us = self.recorder.now_us();
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(self.span.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_covered_once() {
        let c = [(1.0, 4.0), (2.0, 5.0), (7.0, 8.0), (9.0, 20.0)];
        assert_eq!(covered_us(&c, 0.0, 10.0), 4.0 + 1.0 + 1.0);
    }
}
