//! The in-process workloads (`paper-hop10`, `keyed-durable`): passes over
//! the generated stream through the `Session`/`Pipeline` facade.
//!
//! Each pass parses, optimizes and compiles a fresh pipeline (set-up),
//! then feeds the stream with `push_columns` in fixed batches, announcing a
//! watermark and polling results after each batch. Only the calls into the
//! program are timed; the result digest is folded between calls.
//!
//! Every pass feeds the same batches, so batch `i` does the same work in
//! each. Throughput and recovery are reported with every batch at the
//! least time any pass spent on it: interference from other tenants of a
//! shared host only adds time, and comes in bursts and phases that a
//! median over passes follows.

use crate::alloc;
use crate::cpu;
use crate::inputs::{Columns, Term};
use crate::oracle::Digest;
use crate::trace::{Span, Timing, Tracer};
use factor_windows::engine::ExecStats;
use factor_windows::{ApiError, PlanChoice, Session};
use std::time::{Duration, Instant};

/// Recoveries timed after each pass.
const RECOVERIES_PER_PASS: usize = 2;
/// Upper bound on passes per measurement (sample vectors are reserved).
const MAX_PASSES: usize = 4096;

/// One in-process workload: its inputs and how the session is configured.
pub struct Workload {
    pub sql: String,
    pub terms: Vec<Term>,
    pub cols: Columns,
    /// Events per `push_columns` call; a watermark follows each batch.
    pub batch: usize,
    pub element_work: u32,
    /// Out-of-order tolerance, also the watermark's lag behind the newest
    /// event time.
    pub out_of_order: u64,
    /// Compile onto the checkpointable slot core.
    pub durable: bool,
    /// Events between in-memory checkpoints; 0 never checkpoints.
    pub checkpoint_every: u64,
}

/// A checkpoint taken seven eighths into the stream, and what recovering
/// from it needs.
struct Recovery {
    session: Session,
    snapshot: Vec<u8>,
    /// Events before the checkpoint: the replay starts here.
    cut: usize,
    /// Digest of the rows sealed before the checkpoint.
    before: Digest,
}

/// What one stretch of passes observed.
#[derive(Default)]
pub struct Measured {
    /// Events per CPU-second spent in the program, per pass.
    pub pass_eps: Vec<f64>,
    /// Per batch of the stream, the least time any pass spent on it.
    pub batch_best: Vec<Timing>,
    /// CPU time of parse, optimize and compile, per pass.
    pub setup_s: Vec<f64>,
    /// Per batch, wall clock: from handing it to `push_columns` until
    /// `poll_results` returned the rows its watermark sealed.
    pub latency_s: Vec<f64>,
    /// Restore from a checkpoint plus the replay of the stream after it.
    pub recovery_s: Vec<f64>,
    /// The least CPU time a restore took, and per replayed batch the
    /// least CPU time any recovery spent on it.
    pub restore_best: Duration,
    pub replay_best: Vec<Duration>,
    /// Per recovery: rows sealed before the checkpoint plus rows the
    /// restored pipeline sealed, which must be the whole stream's rows.
    pub recovery_digests: Vec<Digest>,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_bytes: usize,
    pub peak_mem_bytes: usize,
    /// Calls made into the program.
    pub ops: u64,
    pub digests: Vec<Digest>,
    pub stats: ExecStats,
    pub cost: u128,
    pub rows: u64,
    pub buffered_max: usize,
    pub interner_bytes: u64,
    pub spans: Vec<Span>,
}

impl Measured {
    /// Events per CPU-second and per wall-clock second of the stream with
    /// every batch at its best time.
    pub fn best_eps(&self, events: usize) -> (f64, f64) {
        let cpu: Duration = self.batch_best.iter().map(|t| t.cpu).sum();
        let wall: Duration = self.batch_best.iter().map(|t| t.wall).sum();
        (
            events as f64 / cpu.as_secs_f64(),
            events as f64 / wall.as_secs_f64(),
        )
    }

    /// The best restore plus every replayed batch at its best time.
    pub fn best_recovery_s(&self) -> f64 {
        (self.restore_best + self.replay_best.iter().sum::<Duration>()).as_secs_f64()
    }
}

fn api(e: ApiError) -> String {
    e.to_string()
}

impl Workload {
    fn session(&self, durable: bool) -> Session {
        let session = Session::from_sql(&self.sql).expect("generated SQL parses");
        self.configure(session, durable)
    }

    fn configure(&self, session: Session, durable: bool) -> Session {
        session
            .plan_choice(PlanChoice::Auto)
            .element_work(self.element_work)
            .out_of_order(self.out_of_order)
            .durable(durable)
            .collect_results(true)
    }

    /// Runs passes until `seconds` have gone by (at least three).
    pub fn measure(&self, seconds: f64, traced: bool) -> Result<Measured, String> {
        let start = Instant::now();
        let mut tr = Tracer::new(traced, start);
        let mut m = Measured::default();
        // The benchmark's own sample vectors never grow inside a pass, so
        // the allocator's high-water mark sees only the program.
        for v in [&mut m.pass_eps, &mut m.setup_s] {
            v.reserve(MAX_PASSES);
        }
        m.digests.reserve(MAX_PASSES);
        let recovery = self.checkpoint_for_recovery()?;
        let slowest = Timing {
            wall: Duration::MAX,
            cpu: Duration::MAX,
        };
        m.batch_best = vec![slowest; self.cols.len().div_ceil(self.batch)];
        m.restore_best = Duration::MAX;
        let replayed = (self.cols.len() - recovery.cut).div_ceil(self.batch);
        m.replay_best = vec![Duration::MAX; replayed];
        let mut replay = Vec::with_capacity(replayed);
        let root = tr.enter("bench.passes");
        while m.pass_eps.len() < 3 || start.elapsed().as_secs_f64() < seconds {
            if m.pass_eps.len() == MAX_PASSES {
                return Err(format!("more than {MAX_PASSES} passes"));
            }
            let batches = self.cols.len().div_ceil(self.batch) + 1;
            m.latency_s.reserve(batches);
            m.checkpoint_ms.reserve(batches);
            self.pass(&mut tr, &mut m)?;
            // Recoveries run between passes, after the pass's memory peak
            // is taken, so they spread over the run like the passes do.
            for _ in 0..RECOVERIES_PER_PASS {
                let (sample, _) =
                    tr.time("engine.recover", || self.recover(&recovery, &mut replay));
                let (restore, digest) = sample?;
                m.recovery_s
                    .push((restore + replay.iter().sum::<Duration>()).as_secs_f64());
                m.recovery_digests.push(digest);
                m.restore_best = m.restore_best.min(restore);
                for (best, t) in m.replay_best.iter_mut().zip(&replay) {
                    *best = (*best).min(*t);
                }
            }
        }
        tr.exit(root);
        m.spans = tr.into_spans();
        Ok(m)
    }

    fn pass(&self, tr: &mut Tracer, m: &mut Measured) -> Result<(), String> {
        let base = alloc::reset_peak();
        let (session, parse) = tr.time("sql.parse", || Session::from_sql(&self.sql));
        let session = self.configure(session.map_err(api)?, self.durable);
        let (optimized, optimize) = tr.time("core.optimize", || session.optimize().map(|_| ()));
        optimized.map_err(api)?;
        let (pipeline, compile) = tr.time("engine.compile", || session.build());
        let mut p = pipeline.map_err(api)?;
        m.setup_s
            .push((parse + optimize + compile).cpu.as_secs_f64());
        m.ops += 3;

        let c = &self.cols;
        let n = c.len();
        let mut busy = Timing::default();
        let mut digest = Digest::default();
        let mut rows = 0u64;
        let mut max_time = 0u64;
        let mut watermark = 0u64;
        let mut next_checkpoint = self.checkpoint_every;
        let mut snapshot = Vec::new();
        for (i, start) in (0..n).step_by(self.batch).enumerate() {
            let before = busy;
            let end = (start + self.batch).min(n);
            let (times, keys, values) = (
                &c.times[start..end],
                &c.keys[start..end],
                &c.values[start..end],
            );
            let (pushed, d) = tr.time("engine.push", || p.push_columns(times, keys, values));
            pushed.map_err(api)?;
            busy = busy + d;
            m.ops += 1;
            m.buffered_max = m.buffered_max.max(p.buffered());
            max_time = times.iter().copied().fold(max_time, u64::max);
            let mark = if end == n {
                n as u64
            } else {
                (max_time + 1).saturating_sub(self.out_of_order)
            };
            if mark > watermark {
                watermark = mark;
                let (sealed, s) = seal(tr, &mut p, watermark, m, &mut digest)?;
                busy = busy + s;
                rows += sealed;
                m.latency_s.push((d + s).wall.as_secs_f64());
            }
            if self.checkpoint_every > 0 && end as u64 >= next_checkpoint {
                snapshot.clear();
                let (done, d) = tr.time("engine.checkpoint", || p.checkpoint(&mut snapshot));
                done.map_err(api)?;
                busy = busy + d;
                m.ops += 1;
                m.checkpoint_ms.push(d.cpu.as_secs_f64() * 1e3);
                m.checkpoint_bytes = snapshot.len();
                next_checkpoint += self.checkpoint_every;
            }
            let best = &mut m.batch_best[i];
            best.cpu = best.cpu.min(busy.cpu - before.cpu);
            best.wall = best.wall.min(busy.wall - before.wall);
        }
        m.pass_eps.push(n as f64 / busy.cpu.as_secs_f64());
        m.digests.push(digest);
        m.stats = p.stats();
        m.cost = p.cost();
        m.rows = rows;
        m.interner_bytes = m.interner_bytes.max(p.interner_stats().1);
        drop(p);

        m.peak_mem_bytes = m.peak_mem_bytes.max(alloc::peak().saturating_sub(base));
        Ok(())
    }

    /// Prepares `recovery_s`: a durable pipeline (for a non-durable
    /// workload, a durable build of the same query) checkpoints after seven
    /// eighths of the stream.
    fn checkpoint_for_recovery(&self) -> Result<Recovery, String> {
        let session = self.session(true);
        let mut p = session.build().map_err(api)?;
        let n = self.cols.len();
        let cut = n / 8 * 7 / self.batch * self.batch;
        let mut before = Digest::default();
        self.replay(&mut p, 0..cut, &mut before, &mut Vec::new())?;
        let mut snapshot = Vec::new();
        p.checkpoint(&mut snapshot).map_err(api)?;
        let cursor = p.events_processed();
        if cursor != cut as u64 {
            return Err(format!("checkpoint cursor {cursor}, expected {cut}"));
        }
        Ok(Recovery {
            session,
            snapshot,
            cut,
            before,
        })
    }

    /// One `recovery_s` sample: restores from the checkpoint and replays
    /// the rest of the stream until its rows are drained, leaving the CPU
    /// time of each replayed batch in `replay`. Returns the CPU time of the
    /// restore and the digest of every row the stream sealed, before the
    /// checkpoint and after the restore.
    fn recover(
        &self,
        r: &Recovery,
        replay: &mut Vec<Duration>,
    ) -> Result<(Duration, Digest), String> {
        let start = cpu::thread();
        let restored = r.session.restore(&mut r.snapshot.as_slice());
        let restore = cpu::thread() - start;
        let mut q = restored.map_err(api)?;
        let mut digest = r.before;
        self.replay(&mut q, r.cut..self.cols.len(), &mut digest, replay)?;
        Ok((restore, digest))
    }

    /// Feeds events `range` to `p` batch by batch, announcing the
    /// watermark and draining rows into `digest` after each batch. Leaves
    /// the CPU time each batch spent in the program in `busy`.
    fn replay(
        &self,
        p: &mut factor_windows::Pipeline,
        range: std::ops::Range<usize>,
        digest: &mut Digest,
        busy: &mut Vec<Duration>,
    ) -> Result<(), String> {
        let c = &self.cols;
        let n = c.len();
        busy.clear();
        let mut max_time = 0u64;
        for start in range.clone().step_by(self.batch) {
            let end = (start + self.batch).min(range.end);
            let t = cpu::thread();
            p.push_columns(
                &c.times[start..end],
                &c.keys[start..end],
                &c.values[start..end],
            )
            .map_err(api)?;
            max_time = c.times[start..end].iter().copied().fold(max_time, u64::max);
            let mark = if end == n {
                n as u64
            } else {
                (max_time + 1).saturating_sub(self.out_of_order)
            };
            p.advance_watermark(mark).map_err(api)?;
            let rows = p.poll_results();
            busy.push(cpu::thread() - t);
            for row in &rows {
                digest.add(row);
            }
        }
        Ok(())
    }
}

/// Announces `to`, drains what it sealed into `digest`, and returns the
/// number of rows and the time both calls took.
fn seal(
    tr: &mut Tracer,
    p: &mut factor_windows::Pipeline,
    to: u64,
    m: &mut Measured,
    digest: &mut Digest,
) -> Result<(u64, Timing), String> {
    let (sealed, s) = tr.time("engine.seal", || p.advance_watermark(to));
    sealed.map_err(api)?;
    let (out, d) = tr.time("engine.drain", || p.poll_results());
    m.ops += 2;
    for row in &out {
        digest.add(row);
    }
    Ok((out.len() as u64, s + d))
}
