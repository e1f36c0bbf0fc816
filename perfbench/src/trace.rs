//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the program; nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent span,
//! the request or session id it belongs to, and the thread it ran on.
//! Spans stay in memory until [`Tracer::write_jsonl`] writes them out
//! when the run ends. [`per_layer`] turns a traced schedule's spans into
//! the per-layer metrics every workload reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Outcome;

/// The program's layers, named after its modules. A span belongs to the
/// longest of these that is its name or a dotted prefix of its name;
/// spans of no layer (a workload's root, probes) count for none.
pub const LAYERS: [&str; 19] = [
    "core",
    "faultlog",
    "analysis",
    "parallel",
    "policy",
    "faultdb.direct",
    "faultdb.snapshot",
    "faultdb.format",
    "faultdb.query",
    "faultdb.db",
    "faultdb.cache",
    "faultdb.kernel",
    "faultdb.shard",
    "faultdb.days",
    "faultdb.server",
    "faultdb.wal",
    "faultdb.catalog",
    "faultdb.ingest_server",
    "faultdb.repl",
];

pub fn layer_of(name: &str) -> Option<&'static str> {
    LAYERS
        .iter()
        .copied()
        .filter(|l| {
            name.strip_prefix(l)
                .is_some_and(|r| r.is_empty() || r.starts_with('.'))
        })
        .max_by_key(|l| l.len())
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Request or session id (0 when the span belongs to no request).
    pub req: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A span that is open; it is recorded when [`Tracer::end`] closes it.
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    req: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

fn thread_key() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn start(&self, name: &'static str, parent: Option<u32>, req: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            req,
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: Open) -> Span {
        let end_ns = self.now_ns();
        self.push(open, end_ns)
    }

    /// Record a span whose bounds were taken elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let open = Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            req,
            start_ns: ns(start),
        };
        self.push(open, ns(end))
    }

    fn push(&self, open: Open, end_ns: u64) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            thread: thread_key(),
            start_ns: open.start_ns,
            end_ns: end_ns.max(open.start_ns),
        };
        self.spans
            .lock()
            .expect("span list lock is never held across a panic")
            .push(span.clone());
        span
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.start(name, parent, req);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock is never held across a panic")
            .clone()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.req,
                s.thread,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time per span name, in seconds.
///
/// A span's children on its own thread are subtracted from its
/// duration. Children on other threads are the span's work fanned out
/// to workers (the campaign's node hooks run on the simulation workers):
/// then the span's own thread only waits, and each worker thread counts
/// the time from the span's start to its last child's end, minus the
/// children it ran.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, BTreeMap<u64, Vec<(u64, u64)>>> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns).max(lo);
            children
                .entry(p.id)
                .or_default()
                .entry(s.thread)
                .or_default()
                .push((lo, hi));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        let own = kids.remove(&s.thread);
        let mut ns = match own {
            Some(iv) => (s.end_ns - s.start_ns).saturating_sub(union_ns(iv)),
            None if kids.is_empty() => s.end_ns - s.start_ns,
            None => 0,
        };
        for iv in kids.into_values() {
            let last = iv.iter().map(|c| c.1).max().unwrap_or(s.start_ns);
            ns += (last - s.start_ns).saturating_sub(union_ns(iv));
        }
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Print the per-layer self-time table.
pub fn print_self_times(spans: &[Span]) {
    println!("self time by span:");
    for (name, secs) in self_times(spans) {
        println!("  {name:<34} {secs:>12.6} s");
    }
}

/// Share of `[start_ns, end_ns)` covered by the spans whose parent is
/// `parent`, in percent.
pub fn coverage_pct(spans: &[Span], parent: Option<u32>, start_ns: u64, end_ns: u64) -> f64 {
    let iv = spans
        .iter()
        .filter(|s| s.parent == parent)
        .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    union_ns(iv) as f64 / end_ns.saturating_sub(start_ns).max(1) as f64 * 100.0
}

/// Whole-run figures of a traced schedule, beside its spans.
pub struct Schedule {
    /// Wall-clock of the traced schedule, probes excluded.
    pub wall_s: f64,
    /// Share of that wall-clock inside the schedule's top-level spans.
    pub coverage_pct: f64,
    /// Traced minus untraced, as a share of untraced.
    pub overhead_pct: f64,
    /// Block-cache hits ÷ lookups of the engines the workload queried.
    pub cache_hit_ratio: f64,
}

/// Record the per-layer metrics of a traced run: for every layer in
/// [`LAYERS`], the self time of its spans in the schedule (summed over
/// threads) as a share of the schedule's wall-clock — 0 for a layer the
/// workload never calls, or calls only inside another layer's span —
/// and the schedule's whole-run figures.
pub fn per_layer(out: &mut Outcome, spans: &[Span], s: Schedule) {
    let mut busy: BTreeMap<&str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (name, secs) in self_times(spans) {
        if let Some(layer) = layer_of(name) {
            *busy.entry(layer).or_default() += secs;
        }
    }
    for layer in LAYERS {
        out.metric(
            &format!("{layer}.self_pct"),
            busy[layer] / s.wall_s * 100.0,
            "%",
        );
    }
    out.metric("faultdb.cache.hit_ratio", s.cache_hit_ratio, "ratio");
    out.metric("trace.wall_s", s.wall_s, "s");
    out.metric("trace.coverage_pct", s.coverage_pct, "%");
    out.metric("trace.overhead_pct", s.overhead_pct, "%");
    out.metric("trace.spans", spans.len() as f64, "count");
}
