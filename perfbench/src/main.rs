//! The repository benchmark: three workloads driven through the public API
//! of factor-windows and the shipped `fw-serve` binary.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-hop10|keyed-durable|serve-fanout> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from the seed before
//! anything is timed. Every result row of every pass is checked against
//! `fw_engine::reference_results`; a mismatch exits with code 1 and prints
//! no result. With `--trace 0` the last stdout line is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run is measured once
//! untraced and once with spans around every call into a layer, and the
//! JSON carries the per-layer metrics. `METRICS.md` defines every metric.

mod alloc;
mod cpu;
mod inproc;
mod inputs;
mod oracle;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Threads the oracle runs on (the box this was tuned on has two cores).
const ORACLE_THREADS: usize = 2;
/// Where span dumps and the server's checkpoint file go.
const OUT_DIR: &str = "perfbench/out";

const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("wall_events_per_s", "events/s"),
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("peak_mem_mb", "MB"),
    ("ok_ops_frac", "ratio"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("core.optimize_us", "us"),
    ("engine.compile_us", "us"),
    ("core.predicted_cost", "cost"),
    ("engine.elements_per_event", "count"),
    ("engine.agg_ops_per_event", "count"),
    ("engine.push_s", "s"),
    ("engine.seal_s", "s"),
    ("engine.drain_s", "s"),
    ("engine.rows_per_event", "count"),
    ("engine.reorder_buffered_max", "events"),
    ("engine.interner_bytes", "bytes"),
    ("engine.checkpoint_ms_p50", "ms"),
    ("engine.checkpoint_ms_max", "ms"),
    ("engine.checkpoint_bytes", "bytes"),
    ("serve.register_ms", "ms"),
    ("serve.send_s", "s"),
    ("serve.recv_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.bytes_out", "bytes"),
    ("serve.bytes_in", "bytes"),
    ("serve.result_frames", "count"),
    ("serve.ingest_queue_high_water", "count"),
    ("serve.outbox_high_water", "count"),
    ("serve.batches_shed", "count"),
    ("serve.results_dropped", "count"),
    ("loadgen.lag_ms_max", "ms"),
    ("loadgen.sleep_s", "s"),
    ("loadgen.drain_s", "s"),
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("latency.samples", "count"),
    ("residual_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Metric values by name, printed in the order of a metric list.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The JSON object of `list`, each value with its unit.
    fn json(&self, list: &[(&str, &str)]) -> String {
        let fields: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn print(&self, list: &[(&str, &str)]) {
        for (name, unit) in list {
            println!("  {name:<30} {:>16.6} {unit}", self.get(name));
        }
    }
}

/// Builds the `fw-serve` binary from the checkout (a no-op when fresh) and
/// returns its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-q", "-p", "fw-serve"])
        .args(["--bin", "fw-serve", "--manifest-path", "Cargo.toml"])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err("building fw-serve failed".into());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(target.join("release").join("fw-serve"))
}

/// What a workload run reports.
struct Run {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper-hop10" | "keyed-durable" => run_inproc(&args),
        "serve-fanout" => build_server().and_then(|server| run_serve(&args, &server)),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(run) => {
            let list = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{} seed {} metrics:", args.workload, args.seed);
            run.metrics.print(list);
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                run.attempted,
                run.failed,
                run.metrics.json(list)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Events per in-process pass.
const PASS_EVENTS: usize = 1 << 20;

fn inproc_workload(args: &Args) -> inproc::Workload {
    if args.workload == "paper-hop10" {
        let (sql, terms) = inputs::hop10_query();
        inproc::Workload {
            sql,
            terms,
            cols: inputs::columns(args.seed, PASS_EVENTS, 1, 0),
            batch: 4096,
            element_work: factor_windows::engine::DEFAULT_ELEMENT_WORK,
            out_of_order: 0,
            durable: false,
            checkpoint_every: 0,
        }
    } else {
        let (sql, terms) = inputs::keyed_query();
        inproc::Workload {
            sql,
            terms,
            cols: inputs::columns(args.seed, PASS_EVENTS, 16_384, 512),
            batch: 4096,
            element_work: 0,
            out_of_order: 512,
            durable: true,
            checkpoint_every: 1 << 18,
        }
    }
}

fn check(what: &str, got: &[oracle::Digest], want: oracle::Digest) -> Result<(), String> {
    match got.iter().position(|d| *d != want) {
        None => Ok(()),
        Some(i) => Err(format!(
            "oracle mismatch in {what} {i}: {} rows, digest {:?}; reference has {} rows, digest {want:?}",
            got[i].rows,
            got[i],
            want.rows
        )),
    }
}

fn run_inproc(args: &Args) -> Result<Run, String> {
    let w = inproc_workload(args);
    let (base, m) = if args.trace {
        let base = w.measure(args.seconds / 2.0, false)?;
        (Some(base), w.measure(args.seconds / 2.0, true)?)
    } else {
        (None, w.measure(args.seconds, false)?)
    };
    let oracle_start = std::time::Instant::now();
    let mut want = oracle::Digest::default();
    for d in oracle::expected(&w.terms, &w.cols, ORACLE_THREADS) {
        want.merge(d);
    }
    println!(
        "oracle: {} rows per pass in {:.1} s; {} passes checked",
        want.rows,
        oracle_start.elapsed().as_secs_f64(),
        m.digests.len() + base.as_ref().map_or(0, |b| b.digests.len())
    );
    for run in base.iter().chain([&m]) {
        check("pass", &run.digests, want)?;
        check("recovery", &run.recovery_digests, want)?;
    }

    let n = w.cols.len() as f64;
    let mut metrics = Metrics::default();
    let (eps, wall_eps) = m.best_eps(w.cols.len());
    println!(
        "{} passes of {} events (events/s per pass p10 {:.0}, p50 {:.0}, p90 {:.0}; every batch at its best {eps:.0}); {} latency samples",
        m.pass_eps.len(),
        w.cols.len(),
        percentile(&m.pass_eps, 10.0),
        percentile(&m.pass_eps, 50.0),
        percentile(&m.pass_eps, 90.0),
        m.latency_s.len()
    );
    println!(
        "{} recoveries (median {:.4} s; every batch at its best {:.4} s)",
        m.recovery_s.len(),
        median(&m.recovery_s),
        m.best_recovery_s()
    );
    metrics.set("events_per_s", eps);
    metrics.set("wall_events_per_s", wall_eps);
    metrics.set("setup_s", median(&m.setup_s));
    metrics.set("recovery_s", m.best_recovery_s());
    metrics.set("peak_mem_mb", m.peak_mem_bytes as f64 / 1e6);
    // Every error return aborts the run, so a run that reports has none.
    metrics.set("ok_ops_frac", 1.0);

    if let Some(base) = base {
        let mut report = trace::Report::default();
        report.add_thread(&m.spans);
        report.print(&args.workload);
        write_spans(args, &[("main", &m.spans)]);
        layer_times(&mut metrics, &report);
        metrics.set("core.predicted_cost", m.cost as f64);
        metrics.set("engine.elements_per_event", m.stats.elements() as f64 / n);
        metrics.set("engine.agg_ops_per_event", m.stats.agg_ops as f64 / n);
        metrics.set("engine.rows_per_event", m.rows as f64 / n);
        metrics.set("engine.reorder_buffered_max", m.buffered_max as f64);
        metrics.set("engine.interner_bytes", m.interner_bytes as f64);
        metrics.set("engine.checkpoint_ms_p50", median(&m.checkpoint_ms));
        metrics.set(
            "engine.checkpoint_ms_max",
            percentile(&m.checkpoint_ms, 100.0),
        );
        metrics.set("engine.checkpoint_bytes", m.checkpoint_bytes as f64);
        metrics.set("latency.p50_ms", percentile(&m.latency_s, 50.0) * 1e3);
        metrics.set("latency.p99_ms", percentile(&m.latency_s, 99.0) * 1e3);
        metrics.set("latency.samples", m.latency_s.len() as f64);
        overhead(&mut metrics, base.best_eps(w.cols.len()).0, eps);
    }
    Ok(Run {
        attempted: m.ops,
        failed: 0,
        metrics,
    })
}

/// Self times of every layer span, `residual_s` and the traced wall time.
fn layer_times(metrics: &mut Metrics, report: &trace::Report) {
    metrics.set("sql.parse_us", report.median_s("sql.parse") * 1e6);
    metrics.set("core.optimize_us", report.median_s("core.optimize") * 1e6);
    metrics.set("engine.compile_us", report.median_s("engine.compile") * 1e6);
    for (metric, span) in [
        ("engine.push_s", "engine.push"),
        ("engine.seal_s", "engine.seal"),
        ("engine.drain_s", "engine.drain"),
        ("serve.send_s", "serve.send"),
        ("serve.recv_s", "serve.recv"),
        ("serve.decode_s", "serve.decode"),
        ("loadgen.sleep_s", "loadgen.sleep"),
        ("loadgen.drain_s", "loadgen.drain"),
    ] {
        metrics.set(metric, report.self_s(span));
    }
    metrics.set("serve.register_ms", report.median_s("serve.register") * 1e3);
    metrics.set("residual_s", report.residual_s());
    metrics.set("trace.wall_s", report.wall_s);
}

fn overhead(metrics: &mut Metrics, untraced_eps: f64, traced_eps: f64) {
    let pct = 100.0 * (untraced_eps - traced_eps) / untraced_eps;
    println!(
        "tracing overhead: {pct:.2}% (untraced {untraced_eps:.0} events/s, traced {traced_eps:.0} events/s)"
    );
    metrics.set("trace.overhead_pct", pct);
}

fn write_spans(args: &Args, threads: &[(&str, &[trace::Span])]) {
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match trace::write_spans(&path, threads) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

/// The serve stream for a run of `seconds`: `BLOCKS` blocks of `PACED`
/// paced batches (0.2 s each) plus unpaced batches for about 2.5% of the
/// run each at the server's capacity (about 1.6M events/s on the two-core
/// box this was tuned on).
fn serve_workload(args: &Args, seconds: f64) -> serve::Workload {
    let unpaced = ((0.025 * seconds * 1.6e6 / serve::BATCH as f64) as usize).max(128);
    let batches = serve::BLOCKS * (serve::PACED + unpaced);
    serve::Workload {
        queries: inputs::serve_queries(),
        cols: inputs::columns(args.seed, batches * serve::BATCH, 4096, 0),
        unpaced,
    }
}

/// The result-latency limit on p99 for `serve-fanout`.
const LATENCY_LIMIT_MS: f64 = 50.0;

fn run_serve(args: &Args, bin: &Path) -> Result<Run, String> {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let w = serve_workload(args, seconds);
    let out = Path::new(OUT_DIR);
    let (base, m) = if args.trace {
        let base = w.measure(bin, out, false)?;
        (Some(base), w.measure(bin, out, true)?)
    } else {
        (None, w.measure(bin, out, false)?)
    };
    // Failures the server admits to come first: they would also show as
    // missing rows, but they are not an oracle mismatch.
    let mut failed = 0;
    for run in base.iter().chain([&m]) {
        let stats = run
            .stats
            .as_ref()
            .ok_or("no stats snapshot from the server")?;
        failed = run.reader.error_frames
            + stats.batches_shed
            + stats.results_dropped
            + stats.push_errors;
        if failed > 0 {
            return Err(format!(
                "the server reported {failed} failed operations ({} error frames, {} batches shed, {} result rows dropped, {} push errors)",
                run.reader.error_frames, stats.batches_shed, stats.results_dropped, stats.push_errors
            ));
        }
    }
    let n = w.cols.len() as u64;
    let oracle_start = std::time::Instant::now();
    let terms: Vec<inputs::Term> = w.queries.iter().map(|(_, t)| t.clone()).collect();
    let wants = oracle::expected(&terms, &w.cols, ORACLE_THREADS);
    for (q, ((sql, _), want)) in w.queries.iter().zip(wants).enumerate() {
        for run in base.iter().chain([&m]) {
            check(
                &format!("query {q} ({sql})"),
                &run.reader.digests[q..=q],
                want,
            )?;
        }
    }
    for run in base.iter().chain([&m]) {
        match run.reader.finished {
            Some((events, _)) if events == n => {}
            other => return Err(format!("server accounted {other:?} events, sent {n}")),
        }
    }
    println!(
        "oracle: every row of {} queries matches ({:.1} s); {} capacity samples (events/s p10 {:.0}, p50 {:.0}, p90 {:.0}; wall-clock p10 {:.0}, p50 {:.0}, p90 {:.0})",
        w.queries.len(),
        oracle_start.elapsed().as_secs_f64(),
        m.capacity_eps.len(),
        percentile(&m.capacity_eps, 10.0),
        percentile(&m.capacity_eps, 50.0),
        percentile(&m.capacity_eps, 90.0),
        percentile(&m.wall_capacity_eps, 10.0),
        percentile(&m.wall_capacity_eps, 50.0),
        percentile(&m.wall_capacity_eps, 90.0),
    );

    let p99_ms = percentile(&m.latency_s, 99.0) * 1e3;
    println!(
        "result latency p50 {:.3} ms, p99 {p99_ms:.3} ms over {} samples: {} the {LATENCY_LIMIT_MS} ms limit on p99 (reported, not enforced)",
        percentile(&m.latency_s, 50.0) * 1e3,
        m.latency_s.len(),
        if p99_ms <= LATENCY_LIMIT_MS { "within" } else { "over" },
    );
    let stats = m.stats.as_ref().expect("checked above");
    let attempted = m.frames_out.max(1);
    let eps = median(&m.capacity_eps);
    let mut metrics = Metrics::default();
    metrics.set("events_per_s", eps);
    metrics.set("wall_events_per_s", median(&m.wall_capacity_eps));
    metrics.set("setup_s", median(&m.setup_s));
    // The least restart, as in process: interference only adds time.
    let recovery = m.recovery_s.iter().copied().fold(f64::INFINITY, f64::min);
    metrics.set("recovery_s", recovery);
    metrics.set("peak_mem_mb", m.server_hwm_bytes as f64 / 1e6);
    metrics.set("ok_ops_frac", 1.0 - failed as f64 / attempted as f64);

    if let Some(base) = base {
        let mut report = trace::Report::default();
        for (_, spans) in &m.spans {
            report.add_thread(spans);
        }
        report.print(&args.workload);
        let threads: Vec<(&str, &[trace::Span])> =
            m.spans.iter().map(|(t, s)| (*t, s.as_slice())).collect();
        write_spans(args, &threads);
        layer_times(&mut metrics, &report);
        metrics.set("engine.checkpoint_bytes", m.reader.checkpoint_bytes as f64);
        metrics.set("serve.bytes_out", m.bytes_out as f64);
        metrics.set("serve.bytes_in", m.reader.bytes_in as f64);
        metrics.set("serve.result_frames", m.reader.result_frames as f64);
        metrics.set(
            "serve.ingest_queue_high_water",
            stats.ingest_queue_high_water as f64,
        );
        metrics.set("serve.outbox_high_water", stats.outbox_high_water as f64);
        metrics.set("serve.batches_shed", stats.batches_shed as f64);
        metrics.set("serve.results_dropped", stats.results_dropped as f64);
        metrics.set("loadgen.lag_ms_max", m.lag_max_s * 1e3);
        metrics.set("latency.p50_ms", percentile(&m.latency_s, 50.0) * 1e3);
        metrics.set("latency.p99_ms", percentile(&m.latency_s, 99.0) * 1e3);
        metrics.set("latency.samples", m.latency_s.len() as f64);
        overhead(&mut metrics, median(&base.capacity_eps), eps);
    }
    Ok(Run {
        attempted,
        failed,
        metrics,
    })
}
