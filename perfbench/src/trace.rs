//! Spans recorded around every call the benchmark makes into a layer.
//!
//! A span has a name, a start, an end and a parent. Spans stay in memory
//! while a run measures and are written out when it ends. A layer's self
//! time is its spans' duration minus the part their child spans cover.
//! Roots are named `bench.*`: their self time is the benchmark's own work
//! between calls, reported as `residual_s`, so the self times of every
//! span add up to the wall time of the roots.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Wall and CPU time of one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub wall: Duration,
    pub cpu: Duration,
}

impl std::ops::Add for Timing {
    type Output = Timing;

    fn add(self, other: Timing) -> Timing {
        Timing {
            wall: self.wall + other.wall,
            cpu: self.cpu + other.cpu,
        }
    }
}

/// Records spans (wall clock) when on; always returns the call's wall and
/// CPU time, so the untraced run times the same calls without keeping
/// spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An entered span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    cpu: Duration,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            let ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            start,
            cpu: crate::cpu::thread(),
            index,
        }
    }

    pub fn exit(&mut self, open: Open) -> Timing {
        let cpu = crate::cpu::thread() - open.cpu;
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns(end);
            self.open.pop();
        }
        Timing {
            wall: end - open.start,
            cpu,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Timing) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Per-name totals over the spans of one or more threads.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub count: u64,
    pub self_s: f64,
    pub durations_s: Vec<f64>,
}

/// Self times by span name, plus the wall time of the roots.
#[derive(Debug, Default)]
pub struct Report {
    pub layers: BTreeMap<&'static str, Layer>,
    pub wall_s: f64,
}

impl Report {
    /// Folds in the spans one thread recorded (parents index that list).
    pub fn add_thread(&mut self, spans: &[Span]) {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
        let mut self_s: Vec<f64> = spans.iter().map(dur).collect();
        for s in spans {
            match s.parent {
                Some(p) => self_s[p] -= dur(s),
                None => self.wall_s += dur(s),
            }
        }
        for (s, own) in spans.iter().zip(self_s) {
            let layer = self.layers.entry(s.name).or_default();
            layer.count += 1;
            layer.self_s += own;
            layer.durations_s.push(dur(s));
        }
    }

    /// Self time of the `bench.*` roots: time between calls into layers.
    pub fn residual_s(&self) -> f64 {
        self.layers
            .iter()
            .filter(|(name, _)| name.starts_with("bench."))
            .map(|(_, l)| l.self_s)
            .sum()
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.self_s)
    }

    /// Median duration of one call of `name`, in seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| crate::median(&l.durations_s))
    }

    /// The layer (not a `bench.*` root) with the most self time.
    pub fn top_layer(&self) -> Option<(&'static str, f64)> {
        self.layers
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(name, l)| (*name, l.self_s))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Prints the self-time table and the check that it sums to wall time.
    pub fn print(&self, workload: &str) {
        println!("trace report for {workload}: self time per layer");
        let mut rows: Vec<_> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        let mut sum = 0.0;
        for (name, l) in rows {
            sum += l.self_s;
            println!(
                "  {name:<22} {:>10.6} s  {:>5.1}%  calls {}",
                l.self_s,
                100.0 * l.self_s / self.wall_s.max(1e-12),
                l.count
            );
        }
        println!(
            "  sum of self times {sum:.6} s = wall {:.6} s (residual_s {:.6} s)",
            self.wall_s,
            self.residual_s()
        );
        if let Some((name, s)) = self.top_layer() {
            println!(
                "  top layer: {name} ({:.1}% of wall)",
                100.0 * s / self.wall_s.max(1e-12)
            );
        }
    }
}

/// Writes every span as `thread name start_ns end_ns parent` lines.
pub fn write_spans(path: &std::path::Path, threads: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent")?;
    for (thread, spans) in threads {
        for s in *spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
