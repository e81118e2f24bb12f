//! Per-window-instance state ("panes") with in-order sealing.
//!
//! A window `W⟨r,s⟩` has at most `⌈r/s⌉ + 1` instances open at any time in
//! an in-order stream, so panes live in a `VecDeque` indexed by instance
//! number relative to the oldest unsealed instance. Sealing walks the
//! front without allocating: retired pane slabs are cleared into a spare
//! pool and reused, so the steady state performs zero allocations — the
//! cost model equates one sub-aggregate combine with one raw update, and
//! the implementation has to honor that for measured throughput to track
//! modeled cost (Figure 19).
//!
//! Panes are slot-indexed accumulator columns with epoch-stamped
//! occupancy (`slab::Occupancy`): the core's
//! [`crate::slab::KeyInterner`] maps each raw key to a dense slot once
//! per batch at ingress, and every fold/combine indexes contiguous memory
//! by slot — no hash probes on the steady-state path. Raw keys reappear
//! only where the cost-model's per-element work is seeded and where
//! sealed results are emitted, recovered via the interner's slot→key
//! table.

use fw_core::{Interval, Window};
use std::collections::VecDeque;

/// The behavior [`PaneDeque`] needs from a pane representation (the
/// pipeline core's SoA panes, `MultiPane`, crate-private). New panes are
/// cloned from a blank prototype, so they arrive fully shaped.
pub trait PaneState: Clone {
    /// True when the pane holds no live entries.
    fn is_empty(&self) -> bool;
    /// Empties the pane for reuse (O(1) for epoch-stamped occupancy).
    fn clear(&mut self);
}

/// Emulated per-element processing cost: dependent ALU iterations executed
/// for every element an operator consumes (a raw event folded into one
/// instance, or one sub-aggregate entry combined into one instance).
///
/// Production engines (Trill's columnar batches, Flink's operator chain)
/// spend 100ns+ per element on expression evaluation, (de)serialization and
/// dispatch, which is *why* the paper's measured throughput tracks its
/// cost model (Figure 19): the work the model counts dominates everything
/// it does not count. A bare Rust loop folds an f64 in ~8ns, so without
/// this emulation engine bookkeeping (sealing, watermark scans) — which
/// the model does not charge — would distort plan comparisons. The default
/// is calibrated to ≈100ns/element; `0` disables the emulation. Applied
/// identically to every executor, including the slicing baseline.
/// See DESIGN.md §4.9.
pub const DEFAULT_ELEMENT_WORK: u32 = 64;

/// Runs `iters` dependent ALU iterations; the return value must be consumed
/// (the executors fold it into a black-box sink) so the loop survives
/// optimization.
#[inline]
#[must_use]
pub fn element_work(seed: u64, iters: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ 0x9E37;
    }
    x
}

/// Instance-indexed pane storage of one window operator
/// ([`crate::multi`]): a deque of per-key panes fronted by the oldest
/// unsealed instance, with strictly in-order sealing and a bounded spare
/// pool. This is the bookkeeping layer only — accumulator semantics, cost
/// accounting, and element-work emulation live in the store composing
/// it.
#[derive(Debug)]
pub struct PaneDeque<P: PaneState> {
    window: Window,
    panes: VecDeque<P>,
    /// Absolute instance index of `panes.front()`; also the next instance
    /// to seal (sealing is strictly in order).
    front_m: u64,
    /// Cleared slabs ready for reuse (allocation-free steady state). Capped
    /// at `spare_cap`: an in-order stream needs at most the maximum
    /// concurrently-open instance count, and a disorder or time-gap burst
    /// that retires a long run of panes must not pin their memory forever.
    spare: Vec<P>,
    /// Maximum spare panes retained: `r/s + 1`, the most instances ever
    /// open at once.
    spare_cap: usize,
    /// Prototype every new pane is cloned from when the spare pool is
    /// empty.
    blank: P,
}

impl<P: PaneState> PaneDeque<P> {
    /// Creates an empty deque for `window` whose panes start as clones of
    /// `blank`.
    #[must_use]
    pub fn new(window: Window, blank: P) -> Self {
        PaneDeque {
            window,
            panes: VecDeque::new(),
            front_m: 0,
            spare: Vec::new(),
            // s | r is enforced at window construction, so r/s is exact.
            spare_cap: (window.range() / window.slide()) as usize + 1,
            blank,
        }
    }

    /// The window this deque belongs to.
    #[must_use]
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// End timestamp of instance `m` (saturating; used as a deadline).
    #[inline]
    fn instance_end(&self, m: u64) -> u64 {
        m.saturating_mul(self.window.slide())
            .saturating_add(self.window.range())
    }

    /// The earliest unsealed instance's end — the next deadline.
    #[inline]
    #[must_use]
    pub fn front_end(&self) -> u64 {
        self.instance_end(self.front_m)
    }

    /// Number of open panes (diagnostics and memory-bound tests).
    #[must_use]
    pub fn open_panes(&self) -> usize {
        self.panes.len()
    }

    /// The pane of instance `m`, opening panes (recycled from the spare
    /// pool when possible) as needed.
    #[inline]
    pub fn pane_mut(&mut self, m: u64) -> &mut P {
        debug_assert!(
            m >= self.front_m,
            "update behind sealed instance {m} < {}",
            self.front_m
        );
        let want = (m - self.front_m) as usize;
        if want >= self.panes.len() {
            self.open_through(want);
        }
        &mut self.panes[want]
    }

    /// Opens panes up to relative index `want`.
    #[cold]
    #[inline(never)]
    fn open_through(&mut self, want: usize) {
        while self.panes.len() <= want {
            let blank = &self.blank;
            self.panes
                .push_back(self.spare.pop().unwrap_or_else(|| blank.clone()));
        }
    }

    /// Positions the deque at its next due (`end ≤ watermark`), non-empty
    /// instance and returns that instance's interval without sealing it.
    /// Empty due instances are skipped; with no panes at all the cursor
    /// fast-forwards past everything due. Follow up with
    /// [`Self::front_pane`] and [`Self::retire_front`].
    pub fn prepare_due(&mut self, watermark: u64) -> Option<Interval> {
        loop {
            if self.front_end() > watermark {
                return None;
            }
            match self.panes.front() {
                None => {
                    let s = self.window.slide();
                    let r = self.window.range();
                    if watermark >= r {
                        let first_open = (watermark - r) / s + 1;
                        self.front_m = self.front_m.max(first_open);
                    }
                    return None;
                }
                Some(pane) if pane.is_empty() => {
                    let empty = self.panes.pop_front().expect("checked non-empty deque");
                    self.recycle(empty);
                    self.front_m += 1;
                }
                Some(_) => return Some(self.window.interval(self.front_m)),
            }
        }
    }

    /// The pane positioned by [`Self::prepare_due`].
    #[inline]
    #[must_use]
    pub fn front_pane(&self) -> &P {
        self.panes.front().expect("prepare_due positioned a pane")
    }

    /// Seals the pane positioned by [`Self::prepare_due`]: clears it into
    /// the spare pool and advances the cursor.
    #[inline]
    pub fn retire_front(&mut self) {
        let mut pane = self
            .panes
            .pop_front()
            .expect("prepare_due positioned a pane");
        pane.clear();
        self.recycle(pane);
        self.front_m += 1;
    }

    /// Returns a cleared pane to the spare pool, bounded at `spare_cap`
    /// so a retirement burst cannot grow retired-pane memory without
    /// bound.
    #[inline]
    fn recycle(&mut self, pane: P) {
        if self.spare.len() < self.spare_cap {
            self.spare.push(pane);
        }
    }

    /// Like [`Self::prepare_due`], but never advances the cursor past
    /// instance `stop`, and returns instance `stop` when due even if its
    /// pane is empty (opening it on demand). State migration parks
    /// carried-over content for instance `stop` *outside* the deque (see
    /// `crate::multi`), so the ordinary skip-empty fast-forward must not
    /// discard it, while instances before `stop` still seal and skip
    /// normally.
    pub fn prepare_due_upto(&mut self, watermark: u64, stop: u64) -> Option<Interval> {
        debug_assert!(stop >= self.front_m, "carry behind the seal cursor");
        loop {
            if self.front_end() > watermark {
                return None;
            }
            if self.front_m == stop {
                let _ = self.pane_mut(stop); // open the (possibly empty) pane
                return Some(self.window.interval(stop));
            }
            match self.panes.front() {
                None => {
                    // Everything open is empty: fast-forward as
                    // `prepare_due` would, clamped at `stop`.
                    let s = self.window.slide();
                    let r = self.window.range();
                    if watermark >= r {
                        let first_open = (watermark - r) / s + 1;
                        self.front_m = self.front_m.max(first_open.min(stop));
                    }
                    if self.front_m != stop || self.front_end() > watermark {
                        return None;
                    }
                    // Loop around: `stop` itself is due.
                }
                Some(pane) if pane.is_empty() => {
                    let empty = self.panes.pop_front().expect("checked non-empty deque");
                    self.recycle(empty);
                    self.front_m += 1;
                }
                Some(_) => return Some(self.window.interval(self.front_m)),
            }
        }
    }

    /// Iterates the open, non-empty panes together with their absolute
    /// instance indices (state-migration and flush support; see
    /// [`crate::multi`]).
    pub fn iter_open(&self) -> impl Iterator<Item = (u64, &P)> {
        let front = self.front_m;
        self.panes
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(move |(i, p)| (front + i as u64, p))
    }

    /// True when no open pane holds a live entry — the deque-level idle
    /// condition under which slot-indexed state references no slot at
    /// all, so the owning core may recycle its interner.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.panes.iter().all(P::is_empty)
    }

    /// Drops every pane slab (open panes are expected empty — see
    /// [`Self::is_idle`]) and the spare pool, freeing capacity sized to a
    /// retired slot space. The seal cursor is untouched; panes reopen on
    /// demand.
    pub fn compact(&mut self) {
        debug_assert!(self.is_idle(), "compacting a deque with live panes");
        self.panes.clear();
        self.spare.clear();
    }

    /// Drains every open, non-empty pane out of the deque, returning
    /// `(absolute instance index, pane)` pairs. Used to migrate window
    /// state into a freshly compiled core when a group's merged plan is
    /// rebuilt at a watermark boundary.
    pub fn take_open(&mut self) -> Vec<(u64, P)> {
        let front = self.front_m;
        self.panes
            .drain(..)
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, p)| (front + i as u64, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiStore;
    use fw_core::AggregateFunction::{Min, Sum};

    fn w(r: u64, s: u64) -> Window {
        Window::new(r, s).unwrap()
    }

    /// Tests intern keys as themselves (`slot == key`), with an identity
    /// slot->key table for combine's work seeds.
    const IDENTITY: &[u32] = &[0, 1, 2, 3, 4, 5, 6, 7];

    #[test]
    fn tumbling_update_and_seal() {
        let mut store = MultiStore::single(w(10, 10), Sum);
        for t in 0..25 {
            store.fold(&[t], &[0], &[1.0]);
        }
        // Watermark 20: instances [0,10) and [10,20) are due.
        assert_eq!(
            store.pop_due(20),
            Some((Interval::new(0, 10), vec![(0, 10.0)]))
        );
        assert_eq!(
            store.pop_due(20),
            Some((Interval::new(10, 20), vec![(0, 10.0)]))
        );
        assert!(store.pop_due(20).is_none());
        // Flush: the partial instance [20, 30) has 5 events.
        assert_eq!(
            store.pop_due(u64::MAX),
            Some((Interval::new(20, 30), vec![(0, 5.0)]))
        );
    }

    #[test]
    fn update_run_matches_per_event_updates() {
        // Same fold, same accounting, for tumbling and hopping windows and
        // for repeated keys inside a run (the shared slot-resolve path).
        for window in [w(10, 10), w(20, 5)] {
            let times = [41u64, 41, 42, 43, 43, 44];
            let slots = [1u32, 1, 2, 2, 2, 1];
            let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
            let mut per_event = MultiStore::single(window, Sum);
            for i in 0..times.len() {
                per_event.fold(&times[i..=i], &slots[i..=i], &values[i..=i]);
            }
            let mut run = MultiStore::single(window, Sum);
            run.fold(&times, &slots, &values);
            assert_eq!(run.counters(), per_event.counters());
            loop {
                let a = per_event.pop_due(u64::MAX);
                let b = run.pop_due(u64::MAX);
                assert_eq!(a, b, "window {window:?}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn hopping_events_hit_multiple_instances() {
        let mut store = MultiStore::single(w(10, 5), Sum);
        store.fold(&[7], &[1], &[1.0]); // instances [0,10) and [5,15)
        assert_eq!(
            store.pop_due(10),
            Some((Interval::new(0, 10), vec![(1, 1.0)]))
        );
        assert_eq!(
            store.pop_due(15),
            Some((Interval::new(5, 15), vec![(1, 1.0)]))
        );
    }

    #[test]
    fn combine_routes_to_containing_instances() {
        // Parent W(10,10) feeds W(20,10): sub-agg [10,20) belongs to
        // instances [0,20) and [10,30).
        let mut store = MultiStore::single(w(20, 10), Min);
        store.combine(&Interval::new(10, 20), &[(0, 3.5)], IDENTITY);
        store.combine(&Interval::new(0, 10), &[(0, 7.0)], IDENTITY);
        assert_eq!(
            store.pop_due(20),
            Some((Interval::new(0, 20), vec![(0, 3.5)]))
        );
        assert_eq!(
            store.pop_due(30),
            Some((Interval::new(10, 30), vec![(0, 3.5)]))
        );
    }

    #[test]
    fn combine_hoists_work_setup_once_per_call() {
        // The emulated-work sink must accumulate across the instances of
        // one combine call exactly as per-instance calls would: the
        // hoisted sink is written back once, XOR-combining every term.
        let mut hopping = MultiStore::single(w(20, 10), Min);
        hopping.combine(&Interval::new(10, 20), &[(0, 1.0), (2, 5.0)], IDENTITY);
        let expected = element_work(0, DEFAULT_ELEMENT_WORK)
            ^ element_work(2, DEFAULT_ELEMENT_WORK)
            ^ element_work(1, DEFAULT_ELEMENT_WORK)
            ^ element_work(1 ^ 2, DEFAULT_ELEMENT_WORK);
        // 2 entries x 2 instances, no raw updates.
        assert_eq!(hopping.counters(), (0, 4, expected));
    }

    #[test]
    fn empty_instances_are_skipped() {
        let mut store = MultiStore::single(w(10, 10), Sum);
        store.fold(&[35], &[0], &[2.0]); // only instance [30, 40) has data
        assert_eq!(
            store.pop_due(100),
            Some((Interval::new(30, 40), vec![(0, 2.0)]))
        );
        assert!(store.pop_due(100).is_none());
    }

    #[test]
    fn fast_forward_without_data() {
        let mut store = MultiStore::single(w(10, 10), Sum);
        assert!(store.pop_due(1_000_000).is_none());
        // The cursor jumped: a later event lands in the right instance.
        store.fold(&[1_000_005], &[0], &[1.0]);
        let (iv, _) = store.pop_due(u64::MAX).unwrap();
        assert_eq!(iv, Interval::new(1_000_000, 1_000_010));
    }

    #[test]
    fn panes_are_recycled_not_reallocated() {
        let mut store = MultiStore::single(w(10, 10), Sum);
        for round in 0u64..100 {
            for t in round * 10..(round + 1) * 10 {
                store.fold(&[t], &[(t % 3) as u32], &[1.0]);
            }
            if round > 0 {
                assert!(store.pop_due(round * 10).is_some());
            }
        }
        // One open pane plus at most a couple of spares — not 100 panes.
        let deque = store.deque();
        assert!(deque.open_panes() <= 2, "{}", deque.open_panes());
        assert!(deque.spare.len() <= 3, "{} spares", deque.spare.len());
    }

    #[test]
    fn spare_pool_is_bounded_after_a_burst() {
        // A large time gap opens (and then retires) a long run of panes;
        // the spare pool must keep at most the steady-state count, not
        // the whole burst.
        let mut store = MultiStore::single(w(10, 10), Sum);
        store.fold(&[0], &[0], &[1.0]);
        store.fold(&[100_000], &[0], &[1.0]); // gap-fills ~10k instances
        let mut sealed = 0;
        while store.pop_due(u64::MAX).is_some() {
            sealed += 1;
        }
        assert_eq!(sealed, 2); // only the two non-empty instances emit
        let spares = store.deque().spare.len();
        assert!(spares <= 2, "{spares} spares retained");

        // Same bound for a hopping window (r/s + 1 = 11).
        let mut store = MultiStore::single(w(100, 10), Sum);
        store.fold(&[0], &[0], &[1.0]);
        store.fold(&[50_000], &[0], &[1.0]);
        while store.pop_due(u64::MAX).is_some() {}
        let spares = store.deque().spare.len();
        assert!(spares <= 11, "{spares} spares retained");
    }

    #[test]
    fn open_pane_count_is_bounded() {
        let mut store = MultiStore::single(w(100, 10), Sum);
        for t in 0..10_000u64 {
            while store.pop_due(t).is_some() {}
            store.fold(&[t], &[0], &[1.0]);
        }
        let open = store.deque().open_panes();
        assert!(open <= 11, "{open} panes open");
    }
}
