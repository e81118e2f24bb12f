//! CPU time of the threads doing the work (Linux only).
//!
//! The benchmark times the program in CPU time rather than wall time: on a
//! shared virtual machine the hypervisor steals a varying share of every
//! vCPU (5 to 37% of a busy loop's wall time on the two-core box this was
//! tuned on), and steal is excluded from a thread's CPU time, not from
//! the wall clock.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `CPUCLOCK_SCHED`, the low bits of a process CPU clock id.
const CPUCLOCK_SCHED: i32 = 2;

fn read_clock(clock: i32) -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// CPU time the calling thread has run.
pub fn thread() -> Duration {
    read_clock(CLOCK_THREAD_CPUTIME_ID).expect("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed")
}

/// CPU time process `pid` has used so far, threads that have exited
/// included, so the figure never goes down. It reads the process's CPU
/// clock (`MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`, the id
/// `clock_getcpuclockid` returns). A thread that is running when it is read
/// may lag by up to a scheduler tick; threads that block are exact.
pub fn process(pid: u32) -> Duration {
    let clock = ((!(pid as i32)) << 3) | CPUCLOCK_SCHED;
    read_clock(clock).unwrap_or_else(|| panic!("no CPU clock for process {pid}"))
}

/// CPU time of every thread of process `pid`, as `(tid, time)`, from
/// `/proc/<pid>/task/<tid>/schedstat`. A thread's figure is brought up to
/// date whenever it is switched out, so it is exact for threads that block.
pub fn threads_of(pid: u32) -> Vec<(u32, Duration)> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let tid = task.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            let ns = stat.split_whitespace().next()?.parse().ok()?;
            Some((tid, Duration::from_nanos(ns)))
        })
        .collect()
}

/// The most CPU any one thread of `pid` used between two
/// [`threads_of`] snapshots.
pub fn busiest(before: &[(u32, Duration)], after: &[(u32, Duration)]) -> Duration {
    after
        .iter()
        .map(|(tid, t)| {
            let start = before
                .iter()
                .find(|(b, _)| b == tid)
                .map_or(Duration::ZERO, |b| b.1);
            t.saturating_sub(start)
        })
        .max()
        .unwrap_or(Duration::ZERO)
}
