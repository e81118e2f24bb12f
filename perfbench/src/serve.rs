//! The `serve-fanout` workload: the shipped `fw-serve` binary as a separate
//! process, driven over one loopback connection.
//!
//! The client is written here on raw `fw_serve::wire::{FrameWriter,
//! FrameReader}` frames over one `TcpStream`. It does not reuse
//! `fw_serve::run_load`: that client waits up to 5 ms in `poll` and stops
//! at every sealing watermark, so its numbers measure the load generator,
//! not the server. Here a writer thread sends on an open-loop schedule and
//! a reader thread timestamps every `Results` frame as it arrives.
//!
//! The stream is sent in `BLOCKS` blocks. Each block first sends `PACED`
//! batches at `RATE_EPS`, one batch plus its watermark every
//! `BATCH / RATE_EPS` seconds whatever the server does; each watermark's
//! latency runs from its scheduled send time to the arrival of the probe
//! rows it seals. The block then sends unpaced, as fast as the connection
//! accepts (`Overflow::Block` backpressure), and measures the server's
//! capacity over that stretch. Before the next block the writer waits
//! until every sent batch has its rows back. Capacity is taken per block
//! and the median block is reported, so a burst of interference on a
//! shared host moves one block, not the run.
//!
//! Set-up is measured on a second server that does nothing else, with
//! `SETUPS_PER_BLOCK` cycles at the start of every block, while the
//! streaming server is idle. The samples spread over the whole run, so a
//! slow stretch of a shared host moves some of them, not all.

use crate::cpu;
use crate::inputs::{Columns, Term};
use crate::oracle::Digest;
use crate::trace::{Span, Tracer};
use factor_windows::core::json;
use factor_windows::serve::wire::{Frame, FrameReader, FrameWriter, KIND_PUSH_COLUMNS};
use factor_windows::serve::MetricsSnapshot;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events per `PushColumns` frame; a watermark follows every frame.
pub const BATCH: usize = 1024;
/// The paced send rate, in events per second.
pub const RATE_EPS: f64 = 1_000_000.0;
/// Paced-then-unpaced blocks per run.
pub const BLOCKS: usize = 12;
/// Paced batches per block; the run's 2400 latency samples keep ten
/// beyond p99.
pub const PACED: usize = 200;
/// Unpaced batches at the start of a block left out of its wall-clock
/// capacity, while the server's queues fill.
const FILL: usize = 32;
/// Set-up cycles (connect, hello, register every query, deregister) at the
/// start of every block.
const SETUPS_PER_BLOCK: usize = 2;
/// Longest wait for a block's results before the next block starts.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Server restarts from the checkpoint per run.
const RESTARTS: usize = 25;
/// Pause before the server's CPU clock is read after its last reply, so
/// the threads that answered have blocked and their time is accounted.
const SETTLE: Duration = Duration::from_millis(10);
/// Paced latency samples a run must have, so that p99 has at least ten
/// samples beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 1000;

pub struct Workload {
    /// Standing queries in registration order; the last is the probe.
    pub queries: Vec<(String, Term)>,
    /// `BLOCKS` blocks of `PACED + unpaced` batches.
    pub cols: Columns,
    pub unpaced: usize,
}

/// What one run observed.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Every paced watermark's latency.
    pub latency_s: Vec<f64>,
    /// Per block: unpaced events per CPU-second of the server's busiest
    /// thread (the bottleneck), and per wall-clock second.
    pub capacity_eps: Vec<f64>,
    pub wall_capacity_eps: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub server_hwm_bytes: u64,
    pub lag_max_s: f64,
    pub frames_out: u64,
    pub bytes_out: u64,
    pub reader: ReaderOut,
    pub stats: Option<MetricsSnapshot>,
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

/// The fw-serve child process; killed and reaped on drop.
struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &Path, extra: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("fw-serve listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("fw-serve did not report its address: {line:?}"));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The server's peak resident set (`VmHWM`), in bytes.
    fn peak_rss_bytes(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection with reusable frame buffers.
struct Conn {
    stream: TcpStream,
    out: FrameWriter,
    reader: FrameReader,
    frames_out: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: FrameWriter::new(),
            reader: FrameReader::new(),
            frames_out: 0,
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        self.frames_out += 1;
        self.out
            .write(&mut self.stream, frame)
            .map_err(|e| e.to_string())
    }

    /// Sends `frame` and returns the reply; an `Error` frame is an error.
    fn request(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.send(frame)?;
        match self.reader.read(&mut self.stream) {
            Ok(Frame::Error { code, message }) => Err(format!("server error {code}: {message}")),
            Ok(reply) => Ok(reply),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// What the reader thread saw.
#[derive(Default)]
pub struct ReaderOut {
    /// Arrival of the probe frame sealed by batch `j`'s watermark.
    pub arrivals: Vec<Option<Instant>>,
    pub digests: Vec<Digest>,
    pub result_frames: u64,
    pub bytes_in: u64,
    pub error_frames: u64,
    pub finished: Option<(u64, u64)>,
    pub checkpoint_bytes: u64,
    pub stats_json: String,
    pub spans: Vec<Span>,
}

/// Reads until the `StatsJson` reply. `arrived` counts the batches whose
/// probe rows are in (they arrive in batch order).
fn read_loop(
    stream: TcpStream,
    ids: Vec<u32>,
    batches: usize,
    arrived: &AtomicUsize,
    tr: &mut Tracer,
) -> Result<ReaderOut, String> {
    let probe = ids.len() - 1;
    let mut out = ReaderOut {
        arrivals: vec![None; batches],
        digests: vec![Digest::default(); ids.len()],
        ..ReaderOut::default()
    };
    let mut input = BufReader::with_capacity(1 << 16, stream);
    let mut reader = FrameReader::new();
    let root = tr.enter("bench.reader");
    loop {
        let recv = tr.enter("serve.recv");
        let raw = reader.read_raw(&mut input);
        tr.exit(recv);
        let (kind, payload) = raw.map_err(|e| format!("reading results: {e}"))?;
        let arrival = Instant::now();
        out.bytes_in += payload.len() as u64 + 5;
        let (frame, _) = tr.time("serve.decode", || Frame::decode(kind, payload));
        match frame.map_err(|e| format!("decoding a server frame: {e}"))? {
            Frame::Results { query_id, rows } => {
                out.result_frames += 1;
                let q = ids
                    .iter()
                    .position(|&id| id == query_id)
                    .ok_or_else(|| format!("results for unknown query {query_id}"))?;
                for row in &rows {
                    out.digests[q].add(row);
                }
                if q == probe {
                    // Probe rows arrive in batch order; a frame may carry
                    // the rows of several watermarks, and each of those
                    // batches arrived with it.
                    let end = rows.iter().map(|r| r.interval.end).max().unwrap_or(0);
                    let upto = (end as usize).div_ceil(BATCH).min(batches);
                    let next = arrived.load(Ordering::Relaxed);
                    if upto > next {
                        out.arrivals[next..upto].fill(Some(arrival));
                        arrived.store(upto, Ordering::Release);
                    }
                }
            }
            Frame::Lagging { kind, count } => {
                eprintln!("serve-fanout: server lagging ({kind:?}, {count})");
            }
            Frame::Error { code, message } => {
                out.error_frames += 1;
                eprintln!("serve-fanout: server error {code}: {message}");
            }
            Frame::Finished { events, rows } => out.finished = Some((events, rows)),
            Frame::CheckpointAck { bytes } => out.checkpoint_bytes = bytes,
            Frame::StatsJson { json } => {
                out.stats_json = json;
                break;
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    tr.exit(root);
    Ok(out)
}

/// Waits until the probe rows of the first `upto` batches are in.
fn drain(arrived: &AtomicUsize, upto: usize) -> Result<(), String> {
    let start = Instant::now();
    // Acquire pairs with the reader's Release: every batch counted has
    // its rows in.
    while arrived.load(Ordering::Acquire) < upto {
        if start.elapsed() > DRAIN_TIMEOUT {
            return Err(format!(
                "no results for batch {} after {DRAIN_TIMEOUT:?}",
                arrived.load(Ordering::Acquire)
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

impl Workload {
    /// Starts `bin`, streams every block, measuring set-up between blocks
    /// on a second server, then restarts the streaming server from its
    /// checkpoint `RESTARTS` times.
    pub fn measure(&self, bin: &Path, out_dir: &Path, traced: bool) -> Result<Measured, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
        let checkpoint: PathBuf = out_dir.join(format!("serve-{}.fwc", std::process::id()));
        let checkpoint_arg = checkpoint.to_string_lossy().into_owned();
        let result = self.measure_with(bin, &checkpoint_arg, traced);
        let _ = std::fs::remove_file(&checkpoint);
        result
    }

    fn measure_with(&self, bin: &Path, checkpoint: &str, traced: bool) -> Result<Measured, String> {
        let epoch = Instant::now();
        let mut m = Measured::default();
        let server = Server::spawn(bin, &["--checkpoint", checkpoint])?;
        let setup_server = Server::spawn(bin, &[])?;
        // Set-up connections stay open until the stream ends: a closed
        // connection's threads would wind down inside the next set-up.
        let mut setups = Vec::with_capacity(BLOCKS * SETUPS_PER_BLOCK);

        let mut tr = Tracer::new(traced, epoch);
        let (mut conn, ids) = self.setup(&server, &mut tr, &mut m)?;

        let c = &self.cols;
        let batches = c.len() / BATCH;
        let block = PACED + self.unpaced;
        let arrived = Arc::new(AtomicUsize::new(0));
        let stream = conn.stream.try_clone().map_err(|e| e.to_string())?;
        let reader_ids = ids.clone();
        let reader_arrived = Arc::clone(&arrived);
        let reader = std::thread::spawn(move || {
            let mut tr = Tracer::new(traced, epoch);
            let out = read_loop(stream, reader_ids, batches, &reader_arrived, &mut tr);
            out.map(|mut o| {
                o.spans = tr.into_spans();
                o
            })
        });

        let root = tr.enter("bench.writer");
        let period = Duration::from_secs_f64(BATCH as f64 / RATE_EPS);
        // When each block's schedule started; batch `k` of a block is due
        // `k` periods later.
        let mut starts = Vec::with_capacity(BLOCKS);
        let pid = server.child.id();
        let mut unpaced_from: Option<Vec<(u32, Duration)>> = None;
        let mut t0 = Instant::now();
        let mut sent = Ok(());
        for j in 0..=batches {
            let k = j % block;
            if k == 0 && j > 0 {
                let (drained, _) = tr.time("loadgen.drain", || drain(&arrived, j));
                if let Err(e) = drained {
                    sent = Err(e);
                    break;
                }
                if let Some(before) = unpaced_from.take() {
                    let busiest = cpu::busiest(&before, &cpu::threads_of(pid));
                    m.capacity_eps
                        .push((self.unpaced * BATCH) as f64 / busiest.as_secs_f64());
                }
            }
            if j == batches {
                break;
            }
            if k == 0 {
                for _ in 0..SETUPS_PER_BLOCK {
                    if let Err(e) = self.setup_cycle(&setup_server, &mut tr, &mut m, &mut setups) {
                        sent = Err(e);
                        break;
                    }
                }
                if sent.is_err() {
                    break;
                }
                t0 = Instant::now();
                starts.push(t0);
            } else if k == PACED {
                unpaced_from = Some(cpu::threads_of(pid));
            }
            if k < PACED {
                let at = t0 + period * k as u32;
                let now = Instant::now();
                if at > now {
                    let (_, _) = tr.time("loadgen.sleep", || std::thread::sleep(at - now));
                }
                m.lag_max_s = m
                    .lag_max_s
                    .max(Instant::now().saturating_duration_since(at).as_secs_f64());
            }
            let span = tr.enter("serve.send");
            let (lo, hi) = (j * BATCH, (j + 1) * BATCH);
            sent = conn
                .out
                .write_columns(
                    &mut conn.stream,
                    KIND_PUSH_COLUMNS,
                    &c.times[lo..hi],
                    &c.keys[lo..hi],
                    &c.values[lo..hi],
                )
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    conn.send(&Frame::Watermark {
                        watermark: hi as u64,
                    })
                });
            tr.exit(span);
            conn.frames_out += 1;
            m.bytes_out += (BATCH * 20 + 14 + 13) as u64;
            if sent.is_err() {
                break;
            }
        }
        if sent.is_ok() {
            let span = tr.enter("serve.send");
            sent = [Frame::Finish, Frame::Checkpoint, Frame::Stats]
                .iter()
                .try_for_each(|f| conn.send(f));
            tr.exit(span);
        }
        tr.exit(root);
        if sent.is_err() {
            // Unblock the reader, which waits for a reply that never comes.
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        let read = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        sent?;
        m.reader = read?;
        m.frames_out += conn.frames_out;
        m.server_hwm_bytes = server.peak_rss_bytes().unwrap_or(0);
        drop(conn);
        drop(server);
        drop(setups);
        drop(setup_server);

        let rd = &m.reader;
        m.stats = json::parse(&rd.stats_json)
            .ok()
            .and_then(|v| MetricsSnapshot::from_json(&v));
        // The writer drained every block, so every batch has an arrival.
        let arrival = |j: usize| rd.arrivals[j].ok_or(format!("batch {j} has no probe rows"));
        for (b, start) in (0..batches).step_by(block).zip(&starts) {
            for k in 0..PACED {
                let due = *start + period * k as u32;
                let late = arrival(b + k)?.saturating_duration_since(due);
                m.latency_s.push(late.as_secs_f64());
            }
            let (first, last) = (b + PACED + FILL, b + block - 1);
            let secs = arrival(last)?
                .saturating_duration_since(arrival(first)?)
                .as_secs_f64();
            m.wall_capacity_eps
                .push(((last - first) * BATCH) as f64 / secs);
        }
        if m.latency_s.len() < MIN_LATENCY_SAMPLES {
            return Err(format!(
                "{} latency samples, fewer than {MIN_LATENCY_SAMPLES}",
                m.latency_s.len()
            ));
        }
        let mut spans = vec![("writer", tr.into_spans())];
        spans.push(("reader", std::mem::take(&mut m.reader.spans)));
        m.spans = spans;

        let n = c.len() as u64;
        for _ in 0..RESTARTS {
            m.recovery_s.push(restart(bin, checkpoint, &ids, n)?);
        }
        Ok(m)
    }

    /// One measured set-up whose queries are deregistered again, so the
    /// server's group is empty before the next one; the connection is
    /// kept in `keep`.
    fn setup_cycle(
        &self,
        server: &Server,
        tr: &mut Tracer,
        m: &mut Measured,
        keep: &mut Vec<Conn>,
    ) -> Result<(), String> {
        let (mut c, ids) = self.setup(server, tr, m)?;
        for &query_id in &ids {
            c.request(&Frame::Deregister { query_id })?;
        }
        m.frames_out += c.frames_out;
        keep.push(c);
        Ok(())
    }

    /// Connect, hello, and one register round trip per query. The set-up
    /// time is the CPU time the server (every thread, exited ones too) and
    /// this thread spent on it.
    fn setup(
        &self,
        server: &Server,
        tr: &mut Tracer,
        m: &mut Measured,
    ) -> Result<(Conn, Vec<u32>), String> {
        let root = tr.enter("bench.setup");
        let pid = server.child.id();
        let start = cpu::process(pid) + cpu::thread();
        let (conn, _) = tr.time("serve.connect", || Conn::connect(server.addr));
        let mut conn = conn?;
        let (hello, _) = tr.time("serve.hello", || conn.request(&Frame::hello()));
        if !matches!(hello?, Frame::HelloAck { .. }) {
            return Err("no HelloAck".into());
        }
        let mut ids = Vec::with_capacity(self.queries.len());
        for (sql, _) in &self.queries {
            let (reply, _) = tr.time("serve.register", || {
                conn.request(&Frame::Register { sql: sql.clone() })
            });
            match reply? {
                Frame::Registered { query_id } => ids.push(query_id),
                other => return Err(format!("register answered {other:?}")),
            }
        }
        let client = cpu::thread();
        std::thread::sleep(SETTLE);
        let end = cpu::process(pid) + client;
        m.setup_s.push(end.saturating_sub(start).as_secs_f64());
        tr.exit(root);
        Ok((conn, ids))
    }
}

/// CPU time a server spawned on `checkpoint` spends, from its start until
/// every query in `ids` is resumed at the stream's end `n`.
fn restart(bin: &Path, checkpoint: &str, ids: &[u32], n: u64) -> Result<f64, String> {
    let server = Server::spawn(bin, &["--restore", checkpoint])?;
    let mut conn = Conn::connect(server.addr)?;
    conn.request(&Frame::hello())?;
    for &query_id in ids {
        match conn.request(&Frame::Resume { query_id })? {
            Frame::ResumeAck { events, watermark } if (events, watermark) == (n, n) => {}
            other => {
                return Err(format!(
                    "q{query_id} resume answered {other:?}, expected ({n}, {n})"
                ))
            }
        }
    }
    std::thread::sleep(SETTLE);
    Ok(cpu::process(server.child.id()).as_secs_f64())
}
