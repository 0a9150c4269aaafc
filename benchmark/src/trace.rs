//! The traced run's span recorder. Spans are taken from outside the
//! engine, around the harness's calls into each layer; they live in
//! memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

pub struct Span {
    pub parent: Option<SpanId>,
    /// Statement the span belongs to (spans of one statement share it).
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per span name: how often it ran, its total time, and its self time
/// (total minus the part its child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::with_origin(Instant::now())
    }

    /// A recorder whose clock starts at `origin`; recorders that share
    /// an origin can be [`Tracer::absorb`]ed into one another.
    pub fn with_origin(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span whose ends were time-stamped elsewhere (another
    /// thread took them).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let start_ns = at(start);
        self.spans.push(Span {
            parent,
            stmt,
            name,
            start_ns,
            end_ns: at(end).max(start_ns),
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Append another recorder's spans (same origin), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Start a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, stmt: u32) -> SpanId {
        let now = self.now();
        self.spans.push(Span {
            parent,
            stmt,
            name,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// End span `id` now and return its duration.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.ns()
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, stmt);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(covered);
        }
        out
    }

    /// Mean duration of the spans called `name`, in microseconds (0 if
    /// none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (count, total_ns) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.ns()));
        total_ns as f64 / count.max(1) as f64 / 1e3
    }

    /// Write every span as one row of `columns`, plus the per-name
    /// totals, to `path`.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Arr(vec![
                    Json::Int(id as u64),
                    s.parent.map_or(Json::Null, |p| Json::Int(u64::from(p))),
                    Json::Int(u64::from(s.stmt)),
                    Json::str(s.name),
                    Json::Int(s.start_ns),
                    Json::Int(s.end_ns),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Int(t.count)),
                        ("total_ns", Json::Int(t.total_ns)),
                        ("self_ns", Json::Int(t.self_ns)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            (
                "columns",
                Json::Arr(
                    ["id", "parent", "stmt", "name", "start_ns", "end_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("totals", Json::obj(totals)),
            ("spans", Json::Arr(rows)),
        ]);
        std::fs::write(path, format!("{doc}\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("stmt", None, 0);
        t.time("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let totals = t.totals();
        let stmt = totals["stmt"];
        let child = totals["child"];
        assert_eq!(stmt.count, 1);
        assert_eq!(stmt.self_ns, stmt.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        assert!(t.mean_us("child") >= 2000.0);
        assert_eq!(t.mean_us("absent"), 0.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::with_origin(origin);
        a.open("first", None, 0);
        let mut b = Tracer::with_origin(origin);
        let root = b.record("stmt", None, 1, origin, Instant::now());
        b.record("child", Some(root), 1, origin, origin);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.totals()["stmt"].count, 1);
    }
}
