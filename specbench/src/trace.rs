//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, the span that caused it and the id of the
//! request it belongs to. Spans stay in memory during the run and are
//! written out at the end; a span's self time is its duration minus the
//! part of its interval its children cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent itself is recorded.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start: self.ns(start),
            end: self.ns(end).max(self.ns(start)),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Records a span and returns its id.
    pub fn add(
        &self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(id, parent, request, name, start, end);
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Self time of every span, in nanoseconds, keyed by span id.
    pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        spans
            .iter()
            .map(|s| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let mut cursor = s.start;
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(cursor), b.min(s.end));
                        if b > a {
                            covered += b - a;
                            cursor = b;
                        }
                    }
                }
                (s.id, s.duration_ns().saturating_sub(covered))
            })
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent request name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = Tracer::self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent.map_or(0, |p| p),
                s.request,
                s.name,
                s.start,
                s.end,
                selfs[&s.id]
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
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let tr = Tracer::new(t0);
        let root = tr.id();
        tr.add(
            Some(root),
            1,
            "a",
            t0 + Duration::from_nanos(10),
            t0 + Duration::from_nanos(30),
        );
        tr.add(
            Some(root),
            1,
            "b",
            t0 + Duration::from_nanos(25),
            t0 + Duration::from_nanos(50),
        );
        tr.record(root, None, 1, "root", t0, t0 + Duration::from_nanos(100));
        let spans = tr.spans();
        let selfs = Tracer::self_times(&spans);
        assert_eq!(selfs[&root], 60);
    }
}
