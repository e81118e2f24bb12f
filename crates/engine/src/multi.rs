//! The pipeline core: one shared pane flow, one accumulator column per
//! aggregate term.
//!
//! Every plan — single- or multi-aggregate — compiles to one
//! `MultiCore` whose pane bookkeeping (instance tracking, sealing, key
//! interning, sub-aggregate routing) runs once per element; each pane
//! carries one accumulator *column per aggregate term*. A single-term
//! query is the degenerate case of that shared pane. The hot loops are
//! term-outer kernels monomorphized per [`Aggregate`] — dispatched once
//! per batch for one-term queries and once per run and term otherwise,
//! never per key — and one-term panes fuse occupancy into the fold and
//! combine passes. This is the execution-side counterpart of the paper's
//! premise — amortize shared work across correlated aggregates — applied
//! along the function axis in addition to the window axis. The same core
//! exports and re-adopts its pane state, so every pipeline can
//! checkpoint, restore, and swap plans live.
//!
//! Per-function combinability is honored within one plan: distributive and
//! algebraic terms (MIN/MAX/SUM/COUNT/AVG) ride the plan's sub-aggregate
//! topology, while holistic terms (MEDIAN) ride **raw panes** on every
//! exposed window — a sub-aggregate-fed exposed operator receives raw
//! events for its holistic slots and parent panes for the rest. Factor
//! (hidden) windows never materialize holistic state.
//!
//! Cost accounting attributes pane work once: [`ExecStats::updates`] and
//! [`ExecStats::combines`] count pane elements exactly as a
//! single-aggregate pipeline would, and the per-slot fan-out is reported
//! separately as [`ExecStats::agg_ops`].

use crate::agg::{Aggregate, AvgAgg, CountAgg, MaxAgg, MedianAgg, MinAgg, SumAgg, SumCount};
use crate::error::{EngineError, Result};
use crate::event::{ResultSink, WindowResult};
use crate::executor::ExecStats;
use crate::pane::{element_work, PaneDeque};
use crate::profile::{NodeProfile, ProfileLevel};
use crate::slab::Occupancy;
use fw_core::{AggregateClass, AggregateFunction, Interval, QueryPlan, Window};
use std::time::Instant;

/// Exported execution state of a slot-based core, captured at a watermark
/// boundary for a live plan swap (`PlanPipeline::rebuild`).
///
/// Export first cascades every *in-flight* open pane down the
/// sub-aggregate forest ([`MultiCore::flush_open`]) so that each exposed
/// window's open instances hold **every** event observed so far — whether
/// it arrived raw or was still buffered inside a parent/factor window's
/// unsealed pane. Only exposed windows are then exported: the new plan's
/// internal topology (factor windows, feed edges) may be entirely
/// different, and its fresh internal state will deliver exactly the events
/// *after* the boundary, so migrated instances (events before) plus fresh
/// flow (events after) reconstruct every instance exactly once.
///
/// Slots are identified by `(function, column)` so state survives a slot
/// list that grows, shrinks, or reorders across the swap; slots new to the
/// plan initialize fresh (their partial instances are suppressed by the
/// group routing layer's `since` filter).
pub(crate) struct GroupState {
    /// Ordering watermark of the exporting core.
    pub(crate) watermark: u64,
    /// Maximum event time the exporting core has folded.
    pub(crate) last_event_time: u64,
    /// Slot identities of the exporting core, slot-indexed.
    pub(crate) slots: Vec<(AggregateFunction, String)>,
    /// Open panes of every exposed window: `(window, [(instance,
    /// key-addressed rows)])`. Rows travel keyed by raw key and sorted by
    /// it, so exported state is neutral to any core's slot assignment —
    /// the adopting core re-interns on its own table.
    pub(crate) windows: Vec<(Window, Vec<(u64, KeyedPane)>)>,
}

/// One accumulator slot in interchange (row) format: the representation
/// state migration and the checkpoint codec speak, shape-checked against
/// each slot's aggregate function.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// MIN / MAX / SUM state.
    F64(f64),
    /// COUNT state.
    U64(u64),
    /// AVG state.
    SumCount(SumCount),
    /// MEDIAN state (holistic: the full multiset).
    Values(Vec<f64>),
}

fn init_slot(f: AggregateFunction) -> Slot {
    match f {
        AggregateFunction::Min => Slot::F64(MinAgg::init()),
        AggregateFunction::Max => Slot::F64(MaxAgg::init()),
        AggregateFunction::Sum => Slot::F64(SumAgg::init()),
        AggregateFunction::Count => Slot::U64(CountAgg::init()),
        AggregateFunction::Avg => Slot::SumCount(AvgAgg::init()),
        AggregateFunction::Median => Slot::Values(MedianAgg::init()),
    }
}

/// Per-key multi-accumulators for one window instance: one slot per
/// aggregate term, in SELECT-list order. This is the *interchange* row
/// format — state migration ([`GroupState`]) and the checkpoint codec
/// speak rows keyed by raw key; live panes hold the same state as SoA
/// columns ([`MultiPane`]).
pub(crate) type MultiAcc = Box<[Slot]>;

/// Key-addressed pane rows: `(raw key, row)` pairs, the migration and
/// checkpoint representation of one instance's state.
pub(crate) type KeyedPane = Vec<(u32, MultiAcc)>;

/// One aggregate term's accumulator column, slot-indexed (the SoA
/// counterpart of one [`Slot`] position across every key).
#[derive(Debug, Clone)]
enum SlotCol {
    /// MIN / MAX / SUM state.
    F64(Vec<f64>),
    /// COUNT state.
    U64(Vec<u64>),
    /// AVG state.
    SumCount(Vec<SumCount>),
    /// MEDIAN state (holistic: the full multiset per key).
    Values(Vec<Vec<f64>>),
}

/// Runs `$body` with the type alias `$a` bound to the [`Aggregate`]
/// implementing the function `$f`: the one dispatch point that selects a
/// monomorphized kernel. Hot paths pay it once per batch, run, or pane —
/// never per key.
macro_rules! with_agg {
    ($f:expr, $a:ident => $body:expr) => {
        match $f {
            AggregateFunction::Min => {
                type $a = MinAgg;
                $body
            }
            AggregateFunction::Max => {
                type $a = MaxAgg;
                $body
            }
            AggregateFunction::Sum => {
                type $a = SumAgg;
                $body
            }
            AggregateFunction::Count => {
                type $a = CountAgg;
                $body
            }
            AggregateFunction::Avg => {
                type $a = AvgAgg;
                $body
            }
            AggregateFunction::Median => {
                type $a = MedianAgg;
                $body
            }
        }
    };
}

/// Ties an [`Aggregate`] to the [`SlotCol`] variant holding its state, so
/// the kernels below compile to straight-line code per function.
trait ColAgg: Aggregate {
    fn col(col: &SlotCol) -> &[Self::Acc];
    fn col_mut(col: &mut SlotCol) -> &mut Vec<Self::Acc>;
}

macro_rules! col_agg {
    ($($agg:ty => $variant:ident),*) => {$(
        impl ColAgg for $agg {
            #[inline]
            fn col(col: &SlotCol) -> &[Self::Acc] {
                match col {
                    SlotCol::$variant(v) => v,
                    _ => unreachable!("column shape is fixed at construction"),
                }
            }
            #[inline]
            fn col_mut(col: &mut SlotCol) -> &mut Vec<Self::Acc> {
                match col {
                    SlotCol::$variant(v) => v,
                    _ => unreachable!("column shape is fixed at construction"),
                }
            }
        }
    )*};
}

col_agg!(MinAgg => F64, MaxAgg => F64, SumAgg => F64, CountAgg => U64, AvgAgg => SumCount, MedianAgg => Values);

/// End of the key sub-run starting at `slots[k]` (consecutive equal
/// slots share one accumulator resolve).
#[inline]
fn sub_run_end(slots: &[u32], k: usize) -> usize {
    let slot = slots[k];
    let mut end = k + 1;
    while end < slots.len() && slots[end] == slot {
        end += 1;
    }
    end
}

/// Fused one-term fold: occupies each key sub-run's slot (re-initializing
/// it on first touch) and folds the sub-run through the aggregate's
/// columnar kernel.
#[inline]
fn touch_fold_runs<A: ColAgg>(
    occ: &mut Occupancy,
    col: &mut SlotCol,
    slots: &[u32],
    values: &[f64],
) {
    let col = A::col_mut(col);
    if let ([slot], [value]) = (slots, values) {
        // The per-event path's one-element run.
        let acc = &mut col[*slot as usize];
        if occ.occupy(*slot) {
            A::reset(acc);
        }
        A::update(acc, *value);
        return;
    }
    let mut k = 0;
    while k < slots.len() {
        let end = sub_run_end(slots, k);
        let slot = slots[k];
        let acc = &mut col[slot as usize];
        if occ.occupy(slot) {
            A::reset(acc);
        }
        A::fold_run(acc, &values[k..end]);
        k = end;
    }
}

/// Occupies every key sub-run's slot (the multi-term occupancy pass; the
/// columns then re-initialize the fresh slots term by term).
#[inline]
fn occupy_runs(occ: &mut Occupancy, slots: &[u32]) {
    let mut k = 0;
    while k < slots.len() {
        let end = sub_run_end(slots, k);
        occ.occupy(slots[k]);
        k = end;
    }
}

/// Folds each key sub-run into its (already occupied) slot of one column.
#[inline]
fn fold_runs<A: ColAgg>(col: &mut SlotCol, slots: &[u32], values: &[f64]) {
    let col = A::col_mut(col);
    let mut k = 0;
    while k < slots.len() {
        let end = sub_run_end(slots, k);
        A::fold_run(&mut col[slots[k] as usize], &values[k..end]);
        k = end;
    }
}

/// Re-initializes the freshly occupied `slots` of one column.
#[inline]
fn reset_slots<A: ColAgg>(col: &mut SlotCol, slots: &[u32]) {
    let col = A::col_mut(col);
    for &slot in slots {
        A::reset(&mut col[slot as usize]);
    }
}

/// Fused one-term combine: occupies each of the source's live `slots`
/// (re-initializing on first touch) and combines the source accumulator
/// in. Parent and child columns are slot-aligned through the core's one
/// interner, so the merge is a linear walk.
#[inline]
fn touch_combine_all<A: ColAgg>(
    occ: &mut Occupancy,
    col: &mut SlotCol,
    src: &SlotCol,
    slots: &[u32],
) {
    let (col, src) = (A::col_mut(col), A::col(src));
    for &slot in slots {
        let i = slot as usize;
        let acc = &mut col[i];
        if occ.occupy(slot) {
            A::reset(acc);
        }
        A::combine(acc, &src[i]);
    }
}

/// Applies `op` (`combine`, or `merge` for carried halves) from the
/// source's live `slots` into their (already occupied) slots of one
/// column.
#[inline]
fn combine_all<A: ColAgg>(
    col: &mut SlotCol,
    src: &SlotCol,
    slots: &[u32],
    op: impl Fn(&mut A::Acc, &A::Acc),
) {
    let (col, src) = (A::col_mut(col), A::col(src));
    for &slot in slots {
        let i = slot as usize;
        op(&mut col[i], &src[i]);
    }
}

/// Writes one term's finalized value into every `stride`-th result row,
/// live slots in first-touch order (the rows were pushed key-major, one
/// per (slot, term)).
#[inline]
fn finalize_into<A: ColAgg>(
    col: &SlotCol,
    slots: &[u32],
    rows: &mut [WindowResult],
    stride: usize,
) {
    let col = A::col(col);
    for (row, &slot) in rows.iter_mut().step_by(stride).zip(slots) {
        row.value = A::finalize(&col[slot as usize]);
    }
}

/// One-term emission: one finalized result row per live slot.
#[inline]
fn push_finalized<A: ColAgg>(
    col: &SlotCol,
    slots: &[u32],
    slot_keys: &[u32],
    rows: &mut Vec<WindowResult>,
    window: Window,
    interval: Interval,
) {
    let col = A::col(col);
    rows.extend(slots.iter().map(|&slot| WindowResult {
        window,
        interval,
        key: slot_keys[slot as usize],
        agg: 0,
        value: A::finalize(&col[slot as usize]),
    }));
}

impl SlotCol {
    fn new(f: AggregateFunction) -> Self {
        match f {
            AggregateFunction::Min | AggregateFunction::Max | AggregateFunction::Sum => {
                SlotCol::F64(Vec::new())
            }
            AggregateFunction::Count => SlotCol::U64(Vec::new()),
            AggregateFunction::Avg => SlotCol::SumCount(Vec::new()),
            AggregateFunction::Median => SlotCol::Values(Vec::new()),
        }
    }

    /// Grows the column to cover `n` slots (placeholders are gated by the
    /// pane's occupancy and re-initialized on first touch).
    fn grow(&mut self, n: usize) {
        match self {
            SlotCol::F64(v) => v.resize(n, 0.0),
            SlotCol::U64(v) => v.resize(n, 0),
            SlotCol::SumCount(v) => v.resize(n, SumCount::default()),
            SlotCol::Values(v) => v.resize_with(n, Vec::new),
        }
    }

    /// Reads slot `i` out as a row-format [`Slot`].
    fn read(&self, i: usize) -> Slot {
        match self {
            SlotCol::F64(v) => Slot::F64(v[i]),
            SlotCol::U64(v) => Slot::U64(v[i]),
            SlotCol::SumCount(v) => Slot::SumCount(v[i]),
            SlotCol::Values(v) => Slot::Values(v[i].clone()),
        }
    }

    /// Writes a row-format [`Slot`] into slot `i`.
    fn write(&mut self, i: usize, slot: &Slot) {
        match (self, slot) {
            (SlotCol::F64(v), Slot::F64(x)) => v[i] = *x,
            (SlotCol::U64(v), Slot::U64(x)) => v[i] = *x,
            (SlotCol::SumCount(v), Slot::SumCount(x)) => v[i] = *x,
            (SlotCol::Values(v), Slot::Values(x)) => {
                v[i].clear();
                v[i].extend_from_slice(x);
            }
            _ => unreachable!("slot shape is fixed at init"),
        }
    }
}

/// One window instance's multi-aggregate state as a struct of arrays:
/// one [`SlotCol`] per aggregate term, sharing a single epoch-stamped
/// [`Occupancy`]. A fold over a key sub-run dispatches each term's
/// column once and then runs a tight loop over contiguous memory.
#[derive(Debug, Clone)]
pub(crate) struct MultiPane {
    /// Live slots this epoch.
    occ: Occupancy,
    /// One column per aggregate term (SELECT-list order), each covering
    /// `occ.capacity()` slots.
    cols: Box<[SlotCol]>,
}

impl crate::pane::PaneState for MultiPane {
    #[inline]
    fn is_empty(&self) -> bool {
        self.occ.is_empty()
    }
    #[inline]
    fn clear(&mut self) {
        self.occ.clear();
    }
}

impl MultiPane {
    /// An empty pane with one column per function.
    fn new(funcs: &[AggregateFunction]) -> Self {
        MultiPane {
            occ: Occupancy::default(),
            cols: funcs.iter().map(|&f| SlotCol::new(f)).collect(),
        }
    }

    /// Number of live keys this epoch.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.occ.len()
    }

    /// Grows occupancy and every column to cover `n` slots — paid once
    /// per fold or combine call, so the key loops index without growth
    /// checks.
    #[inline]
    fn ensure(&mut self, n: usize) {
        if n > self.occ.capacity() {
            self.grow(n);
        }
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, n: usize) {
        self.occ.grow(n);
        for col in self.cols.iter_mut() {
            col.grow(n);
        }
    }

    /// Re-initializes, in every column, the slots first occupied after the
    /// touched list held `before` entries (the multi-term counterpart of
    /// the fused one-term kernels).
    fn reset_fresh(&mut self, before: usize, funcs: &[AggregateFunction]) {
        let fresh = &self.occ.touched()[before..];
        for (col, &f) in self.cols.iter_mut().zip(funcs) {
            with_agg!(f, A => reset_slots::<A>(col, fresh));
        }
    }

    /// Occupies one slot, re-initializing every column on first touch
    /// (the row-at-a-time path of state adoption).
    fn occupy_row(&mut self, slot: u32, funcs: &[AggregateFunction]) {
        self.ensure(slot as usize + 1);
        let before = self.occ.len();
        self.occ.occupy(slot);
        self.reset_fresh(before, funcs);
    }

    /// Reads the row at `slot` in interchange format.
    fn read_row(&self, slot: u32) -> MultiAcc {
        self.cols.iter().map(|c| c.read(slot as usize)).collect()
    }

    /// Writes an interchange row into `slot` (occupying it).
    fn write_row(&mut self, slot: u32, acc: &MultiAcc, funcs: &[AggregateFunction]) {
        self.occupy_row(slot, funcs);
        for (col, slot_val) in self.cols.iter_mut().zip(acc.iter()) {
            col.write(slot as usize, slot_val);
        }
    }

    /// Materializes the pane as key-addressed rows, sorted by raw key
    /// (the canonical, parallelism-neutral order), via the interner's
    /// slot→key table.
    fn to_entries(&self, slot_keys: &[u32]) -> KeyedPane {
        let mut entries: KeyedPane = self
            .occ
            .touched()
            .iter()
            .map(|&s| (slot_keys[s as usize], self.read_row(s)))
            .collect();
        entries.sort_by_key(|&(key, _)| key);
        entries
    }

    /// Folds the carried half of an instance in (emission-side merge; see
    /// [`Aggregate::merge`]). Both panes are slot-aligned through the same
    /// interner.
    fn merge_from(&mut self, carried: &MultiPane, funcs: &[AggregateFunction]) {
        self.ensure(carried.occ.capacity());
        let before = self.occ.len();
        for &slot in carried.occ.touched() {
            self.occ.occupy(slot);
        }
        self.reset_fresh(before, funcs);
        let slots = carried.occ.touched();
        for (j, col) in self.cols.iter_mut().enumerate() {
            with_agg!(funcs[j], A => combine_all::<A>(col, &carried.cols[j], slots, A::merge));
        }
    }

    /// Appends one result row per (live slot, term), key-major over the
    /// live slots in first-touch order. Each term finalizes through one
    /// monomorphized loop: one-term panes push finished rows directly,
    /// wider panes push the row skeletons and then fill them term by term.
    fn emit_into(
        &self,
        rows: &mut Vec<WindowResult>,
        funcs: &[AggregateFunction],
        slot_keys: &[u32],
        window: Window,
        interval: Interval,
    ) {
        let slots = self.occ.touched();
        if let [f] = *funcs {
            with_agg!(f, A => push_finalized::<A>(&self.cols[0], slots, slot_keys, rows, window, interval));
            return;
        }
        let base = rows.len();
        for &slot in slots {
            let key = slot_keys[slot as usize];
            rows.extend((0..funcs.len() as u32).map(|agg| WindowResult {
                window,
                interval,
                key,
                agg,
                value: 0.0,
            }));
        }
        for (j, &f) in funcs.iter().enumerate() {
            let rows = &mut rows[base + j..];
            with_agg!(f, A => finalize_into::<A>(&self.cols[j], slots, rows, funcs.len()));
        }
    }
}

/// Instances of `window` a run starting at `t0` routes to: a run never
/// crosses a slide boundary, so one instance computation serves all of
/// it (and a tumbling window needs no more than one division).
#[inline(always)]
fn run_instances(window: &Window, t0: u64) -> std::ops::RangeInclusive<u64> {
    if window.is_tumbling() {
        let m = t0 / window.slide();
        m..=m
    } else {
        window.instances_containing(t0)
    }
}

/// Emulated element work of folding the run `times` into instance `m`
/// (XOR-combined, so it is independent of the value folds' order).
#[inline(always)]
fn run_work(times: &[u64], m: u64, work: u32) -> u64 {
    times
        .iter()
        .fold(0, |sink, &t| sink ^ element_work(t ^ m, work))
}

/// Emulated element work of combining the live `slots` of a source pane
/// into instance `m`, seeded with their raw keys.
#[inline(always)]
fn pane_work(slots: &[u32], slot_keys: &[u32], m: u64, work: u32) -> u64 {
    slots.iter().fold(0, |sink, &slot| {
        sink ^ element_work(m ^ u64::from(slot_keys[slot as usize]), work)
    })
}

/// A store's raw-run fold — [`MultiStore::fold_one`] monomorphized per
/// aggregate ([`OneTerm`]), or [`MultiStore::fold_multi`] ([`Terms`]) —
/// resolved once per feed call and inlined into the run loop.
trait RawFold {
    fn fold(store: &mut MultiStore, times: &[u64], slots: &[u32], values: &[f64], n_slots: usize);
}

struct OneTerm<A>(std::marker::PhantomData<A>);

impl<A: ColAgg> RawFold for OneTerm<A> {
    #[inline(always)]
    fn fold(store: &mut MultiStore, times: &[u64], slots: &[u32], values: &[f64], n_slots: usize) {
        store.fold_one::<A>(times, slots, values, n_slots);
    }
}

struct Terms;

impl RawFold for Terms {
    #[inline(always)]
    fn fold(store: &mut MultiStore, times: &[u64], slots: &[u32], values: &[f64], n_slots: usize) {
        store.fold_multi(times, slots, values, n_slots);
    }
}

/// The open instances of one window operator: the [`PaneDeque`]
/// bookkeeping (sealing, fast-forward, spare-pane recycling) plus
/// per-term accumulator semantics and pane-level cost accounting (one
/// `update`/`combine` per element, however many terms the element fans
/// out to).
pub(crate) struct MultiStore {
    deque: PaneDeque<MultiPane>,
    /// Carried-over panes from a live plan swap, for open instances of
    /// operators that feed children — ascending by instance index, held
    /// *outside* the regular deque so sealing can cascade only the
    /// post-swap pane to children and fold the pre-swap half in just
    /// before emission (see [`MultiCore::adopt`]). Pre-swap contributions
    /// already reached every descendant through the export-time flush;
    /// cascading them again would double-count (fatal for SUM/COUNT/AVG).
    carry: Vec<(u64, MultiPane)>,
    /// All aggregate terms' functions, slot-indexed (SELECT-list order).
    funcs: Box<[AggregateFunction]>,
    /// Slot indices raw events update at this operator: every slot on a
    /// raw-fed operator, the holistic slots on a sub-aggregate-fed exposed
    /// operator, empty on a sub-aggregate-fed factor operator.
    raw_mask: Box<[usize]>,
    /// Slot indices parent panes combine into (the combinable terms).
    combine_mask: Box<[usize]>,
    work: u32,
    work_sink: u64,
    /// Pane-level raw updates (counted once per element, not per slot).
    updates: u64,
    /// Pane-level sub-aggregate combines (once per element, not per slot).
    combines: u64,
    /// Instances sealed at this operator (profiling; counters level).
    seals: u64,
    /// Result rows emitted from this operator (profiling; counters level).
    emitted: u64,
    /// High-water of live entries in any sealing pane (profiling).
    pane_live_hw: u64,
    /// Sampled nanoseconds attributed to this operator (timed level).
    nanos: u64,
}

impl MultiStore {
    fn new(
        window: Window,
        funcs: Box<[AggregateFunction]>,
        raw_mask: Box<[usize]>,
        combine_mask: Box<[usize]>,
        work: u32,
    ) -> Self {
        MultiStore {
            deque: PaneDeque::new(window, MultiPane::new(&funcs)),
            carry: Vec::new(),
            funcs,
            raw_mask,
            combine_mask,
            work,
            work_sink: 0,
            updates: 0,
            combines: 0,
            seals: 0,
            emitted: 0,
            pane_live_hw: 0,
            nanos: 0,
        }
    }

    #[inline]
    fn front_end(&self) -> u64 {
        self.deque.front_end()
    }

    /// Per-term accumulator operations the pane work fanned out to: every
    /// raw update feeds each raw-fed term, every combine each combinable
    /// term.
    fn agg_ops(&self) -> u64 {
        self.updates * self.raw_mask.len() as u64 + self.combines * self.combine_mask.len() as u64
    }

    /// Records one sealed instance with `live` occupied entries
    /// (profiling, counters level).
    #[inline]
    fn note_seal(&mut self, live: u64) {
        self.seals += 1;
        self.pane_live_hw = self.pane_live_hw.max(live);
    }

    /// Adds sampled nanoseconds to this operator (profiling, timed level).
    #[inline]
    fn add_nanos(&mut self, ns: u64) {
        self.nanos += ns;
    }

    /// Copies this operator's observed counters into a [`NodeProfile`]
    /// (identity fields are the caller's responsibility). The term
    /// fan-out ships as `agg_ops` ([`Self::agg_ops`]).
    fn profile_into(&self, p: &mut NodeProfile) {
        p.updates += self.updates;
        p.combines += self.combines;
        p.agg_ops += self.agg_ops();
        p.seals += self.seals;
        p.emitted += self.emitted;
        p.pane_live_hw = p.pane_live_hw.max(self.pane_live_hw);
        p.nanos += self.nanos;
    }

    /// Positions the store at its next due instance, taking carried-over
    /// panes into account: an instance whose only content is carry must
    /// still seal (the plain skip-empty fast-forward would drop it).
    fn next_due(&mut self, watermark: u64) -> Option<Interval> {
        match self.carry.first() {
            None => self.deque.prepare_due(watermark),
            Some(&(stop, _)) => self.deque.prepare_due_upto(watermark, stop),
        }
    }

    /// Folds the carried pane for instance `m` (if any) into the front
    /// pane — called after the instance cascaded to children and before
    /// it is emitted, so children only ever see post-swap contributions.
    fn merge_carry_front(&mut self, m: u64) {
        if !matches!(self.carry.first(), Some(&(m0, _)) if m0 == m) {
            return;
        }
        let (_, carried) = self.carry.remove(0);
        self.deque.pane_mut(m).merge_from(&carried, &self.funcs);
    }

    /// True when the store holds no live state at all: every open pane is
    /// empty and no carried-over swap state is parked. Carried panes are
    /// slot-addressed, so compaction must also wait for them to drain.
    fn is_idle(&self) -> bool {
        self.carry.is_empty() && self.deque.is_idle()
    }

    /// Frees slab capacity sized to a retired slot space (see
    /// [`PaneDeque::compact`]); callers must hold the idle condition.
    fn compact(&mut self) {
        self.deque.compact();
    }

    /// Folds a *run* of raw events — column slices whose timestamps are
    /// non-decreasing and all route to the same instance set, with keys
    /// pre-translated to dense slots (`n_slots` is the interner's slot
    /// count) — into those instances, for a one-term store: the whole
    /// instance loop is monomorphized per aggregate and occupancy is fused
    /// into the fold over every key sub-run — zero hash probes, no per-key
    /// dispatch. The emulated element-work loop runs apart from (after)
    /// the value fold; its sink is combined by XOR, so the split is
    /// order-insensitive, while the value folds keep strict per-element
    /// order for the order-sensitive kernels (SUM/AVG). Pane work is
    /// counted once per element.
    #[inline(always)]
    fn fold_one<A: ColAgg>(
        &mut self,
        times: &[u64],
        slots: &[u32],
        values: &[f64],
        n_slots: usize,
    ) {
        debug_assert_eq!(&*self.raw_mask, &[0]);
        for m in run_instances(self.deque.window(), times[0]) {
            let pane = self.deque.pane_mut(m);
            pane.ensure(n_slots);
            touch_fold_runs::<A>(&mut pane.occ, &mut pane.cols[0], slots, values);
            self.work_sink ^= run_work(times, m, self.work);
            self.updates += times.len() as u64;
        }
    }

    /// [`Self::fold_one`] for a multi-term store: one occupancy pass, then
    /// one kernel per raw-fed term. Out of line, so the one-term run loops
    /// it shares a caller with stay compact.
    #[inline(never)]
    fn fold_multi(&mut self, times: &[u64], slots: &[u32], values: &[f64], n_slots: usize) {
        for m in run_instances(self.deque.window(), times[0]) {
            let pane = self.deque.pane_mut(m);
            pane.ensure(n_slots);
            let before = pane.occ.len();
            occupy_runs(&mut pane.occ, slots);
            pane.reset_fresh(before, &self.funcs);
            for &j in self.raw_mask.iter() {
                with_agg!(self.funcs[j], A => fold_runs::<A>(&mut pane.cols[j], slots, values));
            }
            self.work_sink ^= run_work(times, m, self.work);
            self.updates += times.len() as u64;
        }
    }

    /// Folds a whole upstream pane into every instance containing `iv`,
    /// combining the combinable slots only (holistic slots are raw-fed and
    /// must never inherit parent state). Both panes are slot-aligned
    /// through the shared interner, so the merge is a linear walk of the
    /// source's live slots by one monomorphized kernel per term
    /// (occupancy fused in for one-term stores); `slot_keys` (the
    /// interner's slot→key table) recovers raw keys for the emulated
    /// element-work seed.
    fn combine_pane(&mut self, iv: &Interval, source: &MultiPane, slot_keys: &[u32]) {
        match *self.funcs {
            [f] => with_agg!(f, A => self.combine_one::<A>(iv, source, slot_keys)),
            _ => self.combine_multi(iv, source, slot_keys),
        }
    }

    /// [`Self::combine_pane`] for a one-term store. Out of line: inlined
    /// into the seal loop it measured slower (4096-key factored ingest).
    #[inline(never)]
    fn combine_one<A: ColAgg>(&mut self, iv: &Interval, source: &MultiPane, slot_keys: &[u32]) {
        let slots = source.occ.touched();
        for m in self.deque.window().instances_containing_interval(iv) {
            let pane = self.deque.pane_mut(m);
            pane.ensure(slot_keys.len());
            touch_combine_all::<A>(&mut pane.occ, &mut pane.cols[0], &source.cols[0], slots);
            self.work_sink ^= pane_work(slots, slot_keys, m, self.work);
            self.combines += slots.len() as u64;
        }
    }

    /// [`Self::combine_pane`] for a multi-term store: one occupancy pass,
    /// then one kernel per combinable term.
    #[inline(never)]
    fn combine_multi(&mut self, iv: &Interval, source: &MultiPane, slot_keys: &[u32]) {
        let slots = source.occ.touched();
        for m in self.deque.window().instances_containing_interval(iv) {
            let pane = self.deque.pane_mut(m);
            pane.ensure(slot_keys.len());
            let before = pane.occ.len();
            for &slot in slots {
                pane.occ.occupy(slot);
            }
            pane.reset_fresh(before, &self.funcs);
            for &j in self.combine_mask.iter() {
                let src = &source.cols[j];
                with_agg!(self.funcs[j], A => combine_all::<A>(&mut pane.cols[j], src, slots, A::combine));
            }
            self.work_sink ^= pane_work(slots, slot_keys, m, self.work);
            self.combines += slots.len() as u64;
        }
    }
}

/// Pane-layer test support: a one-term store driven with slots standing
/// in for keys.
#[cfg(test)]
impl MultiStore {
    /// A one-term store over `window` at the default element work.
    pub(crate) fn single(window: Window, f: AggregateFunction) -> Self {
        let combine: Box<[usize]> = match f.class() {
            AggregateClass::Holistic => Box::new([]),
            _ => Box::new([0]),
        };
        MultiStore::new(
            window,
            Box::new([f]),
            Box::new([0]),
            combine,
            crate::pane::DEFAULT_ELEMENT_WORK,
        )
    }

    /// Folds one run (see [`Self::update_run`]).
    pub(crate) fn fold(&mut self, times: &[u64], slots: &[u32], values: &[f64]) {
        let n_slots = slots.iter().max().map_or(0, |&s| s as usize + 1);
        with_agg!(self.funcs[0], A => self.fold_one::<A>(times, slots, values, n_slots));
    }

    /// Combines a source pane holding `entries` (one value per slot).
    pub(crate) fn combine(&mut self, iv: &Interval, entries: &[(u32, f64)], slot_keys: &[u32]) {
        let mut source = MultiPane::new(&self.funcs);
        source.ensure(slot_keys.len());
        for &(slot, value) in entries {
            with_agg!(self.funcs[0], A => touch_fold_runs::<A>(&mut source.occ, &mut source.cols[0], &[slot], &[value]));
        }
        self.combine_pane(iv, &source, slot_keys);
    }

    /// Seals the next due instance, returning its `(slot, value)` rows
    /// sorted by slot.
    pub(crate) fn pop_due(&mut self, watermark: u64) -> Option<(Interval, Vec<(u32, f64)>)> {
        let interval = self.next_due(watermark)?;
        let pane = self.deque.front_pane();
        let mut rows: Vec<(u32, f64)> = pane
            .occ
            .touched()
            .iter()
            .map(|&slot| {
                let value = with_agg!(self.funcs[0], A => A::finalize(&A::col(&pane.cols[0])[slot as usize]));
                (slot, value)
            })
            .collect();
        rows.sort_by_key(|&(slot, _)| slot);
        self.deque.retire_front();
        Some((interval, rows))
    }

    /// `(updates, combines, work sink)`.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (self.updates, self.combines, self.work_sink)
    }

    pub(crate) fn deque(&self) -> &PaneDeque<MultiPane> {
        &self.deque
    }
}

/// The compiled physical pipeline of a plan: the
/// [`crate::executor::PlanPipeline`] core for every aggregate list.
pub(crate) struct MultiCore {
    stores: Vec<MultiStore>,
    windows: Vec<Window>,
    exposed: Vec<bool>,
    children: Vec<Vec<usize>>,
    /// Operators that receive raw events (non-empty `raw_mask`).
    raw_ops: Vec<usize>,
    /// Plan node id of each operator (op-indexed) — the stable identity
    /// per-node profiles report under.
    node_ids: Vec<usize>,
    /// Per-node instrumentation level this core was compiled with.
    profile: ProfileLevel,
    /// Seal passes observed (drives the sampled per-node clock).
    seal_passes: u64,
    /// Feed batches observed (drives the sampled per-node clock).
    feed_passes: u64,
    /// Interner compactions performed by this core.
    compactions: u64,
    funcs: Box<[AggregateFunction]>,
    /// Slot identities (`(function, column)`), slot-indexed — the key
    /// state migration matches slots by across plan swaps.
    term_ids: Vec<(AggregateFunction, String)>,
    /// Key → dense slot, shared by every store so parent and child panes
    /// align slot-for-slot and combines are linear merges.
    interner: crate::slab::KeyInterner,
    /// Per-batch key→slot translation buffer (reused; ingress-only).
    slot_buf: Vec<u32>,
    /// Largest live-entry count seen in a sealing pane since the last
    /// compaction — the signal distinguishing a genuinely wide key space
    /// from a rotating one that has retired most of its slots.
    peak_pane_live: usize,
    /// `fed` at the last compaction (spacing guard against thrash).
    last_compact_fed: u64,
    /// Interner high-water `(slots, bytes)` across compactions.
    interner_hw: (u64, u64),
    watermark: u64,
    deadline: u64,
    results_emitted: u64,
    fed: u64,
    last_event_time: u64,
}

impl MultiCore {
    pub(crate) fn compile(
        plan: &QueryPlan,
        element_work: u32,
        profile: ProfileLevel,
    ) -> Result<Self> {
        plan.validate().map_err(EngineError::InvalidPlan)?;
        let funcs: Box<[AggregateFunction]> =
            plan.aggregates().iter().map(|s| s.function()).collect();
        let term_ids: Vec<(AggregateFunction, String)> = plan
            .aggregates()
            .iter()
            .map(|s| (s.function(), s.column().to_string()))
            .collect();
        let combinable: Vec<usize> = funcs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.class() != AggregateClass::Holistic)
            .map(|(j, _)| j)
            .collect();
        let holistic: Vec<usize> = funcs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.class() == AggregateClass::Holistic)
            .map(|(j, _)| j)
            .collect();

        let node_ids: Vec<usize> = plan.window_nodes().collect();
        let op_of = |node: usize| {
            node_ids
                .iter()
                .position(|&n| n == node)
                .expect("window node")
        };

        let mut windows = Vec::with_capacity(node_ids.len());
        let mut exposed = Vec::with_capacity(node_ids.len());
        let mut children = vec![Vec::new(); node_ids.len()];
        let mut raw_ops = Vec::new();
        let mut stores = Vec::with_capacity(node_ids.len());
        for (op, &node) in node_ids.iter().enumerate() {
            let window = *plan.window_at(node).expect("window node");
            let is_exposed = plan.is_exposed(node);
            windows.push(window);
            exposed.push(is_exposed);
            let raw_mask: Vec<usize> = match plan.feeding_window(node) {
                // Raw-fed: every slot living at this operator shares the
                // pane feed. Factor operators carry combinable slots only.
                None => {
                    if is_exposed {
                        (0..funcs.len()).collect()
                    } else {
                        combinable.clone()
                    }
                }
                // Sub-aggregate-fed: combinable slots arrive as parent
                // panes; holistic slots (exposed operators only) ride raw.
                Some(parent) => {
                    if combinable.is_empty() {
                        return Err(EngineError::HolisticSubAggregate {
                            function: funcs[holistic[0]].name(),
                        });
                    }
                    children[op_of(parent)].push(op);
                    if is_exposed {
                        holistic.clone()
                    } else {
                        Vec::new()
                    }
                }
            };
            if !raw_mask.is_empty() {
                raw_ops.push(op);
            }
            stores.push(MultiStore::new(
                window,
                funcs.clone(),
                raw_mask.into_boxed_slice(),
                combinable.clone().into_boxed_slice(),
                element_work,
            ));
        }
        let mut core = MultiCore {
            stores,
            windows,
            exposed,
            children,
            raw_ops,
            node_ids,
            profile,
            seal_passes: 0,
            feed_passes: 0,
            compactions: 0,
            funcs,
            term_ids,
            interner: crate::slab::KeyInterner::new(),
            slot_buf: Vec::new(),
            peak_pane_live: 0,
            last_compact_fed: 0,
            interner_hw: (0, 0),
            watermark: 0,
            deadline: 0,
            results_emitted: 0,
            fed: 0,
            last_event_time: 0,
        };
        core.recompute_deadline();
        Ok(core)
    }

    fn recompute_deadline(&mut self) {
        self.deadline = self
            .stores
            .iter()
            .map(MultiStore::front_end)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Emits one result per (key, aggregate term) for the pane at the
    /// store front, straight into the sink (no intermediate buffer; see
    /// [`MultiPane::emit_into`]). Keys are recovered through the
    /// interner's slot→key table.
    #[inline]
    fn emit_front(&mut self, op: usize, interval: Interval, sink: &mut ResultSink) {
        let pane = self.stores[op].deque.front_pane();
        if let ResultSink::Collect(rows) = sink {
            let slot_keys = self.interner.keys();
            pane.emit_into(rows, &self.funcs, slot_keys, self.windows[op], interval);
        }
        let emitted = pane.len() as u64 * self.funcs.len() as u64;
        self.results_emitted += emitted;
        if self.profile.counters_on() {
            self.stores[op].emitted += emitted;
        }
    }

    /// Cascades every open (unsealed) pane down the sub-aggregate forest
    /// without sealing or emitting anything. After the pass, each window's
    /// open instances hold every event observed so far, including
    /// contributions that were still in flight inside an ancestor's
    /// unsealed pane. Operators are topologically ordered (parents first),
    /// so a single pass propagates transitively.
    ///
    /// Exactly-once is preserved: an open pane has never been delivered
    /// (delivery normally happens at seal), and after the flush the old
    /// core is discarded, so each in-flight element reaches each
    /// descendant instance once. Under covered-by semantics overlapping
    /// deliveries can double up exactly as they do during normal sealing —
    /// which only overlap-tolerant functions (MIN/MAX) ride.
    fn flush_open(&mut self) {
        let slot_keys = self.interner.keys();
        for op in 0..self.stores.len() {
            if self.children[op].is_empty() {
                continue;
            }
            let (head, tail) = self.stores.split_at_mut(op + 1);
            let window = *head[op].deque.window();
            for (m, pane) in head[op].deque.iter_open() {
                let interval = window.interval(m);
                for &child in &self.children[op] {
                    debug_assert!(child > op, "plan must be topologically ordered");
                    tail[child - op - 1].combine_pane(&interval, pane, slot_keys);
                }
            }
        }
    }

    /// Exports the core's migratable state for a live plan swap: flushes
    /// in-flight sub-aggregates downward, then drains the open panes of
    /// every exposed window (see [`GroupState`]). Carried-over panes from
    /// a previous swap are folded back into their instances first — they
    /// are emission-side state and must keep traveling as such.
    pub(crate) fn export_state(&mut self) -> GroupState {
        self.flush_open();
        let mut windows = Vec::new();
        for op in 0..self.stores.len() {
            if !self.exposed[op] {
                continue;
            }
            let funcs = self.funcs.clone();
            let slot_keys = self.interner.keys();
            let store = &mut self.stores[op];
            let mut panes = store.deque.take_open();
            for (m, carried) in std::mem::take(&mut store.carry) {
                match panes.iter_mut().find(|(pm, _)| *pm == m) {
                    Some((_, pane)) => pane.merge_from(&carried, &funcs),
                    None => panes.push((m, carried)),
                }
            }
            panes.sort_by_key(|&(m, _)| m);
            if !panes.is_empty() {
                // Hand state over key-addressed (sorted by raw key): the
                // adopting core owns a different interner, and checkpoint
                // snapshots must stay slot-assignment-neutral.
                let entries: Vec<(u64, KeyedPane)> = panes
                    .iter()
                    .map(|(m, pane)| (*m, pane.to_entries(slot_keys)))
                    .collect();
                windows.push((self.windows[op], entries));
            }
        }
        GroupState {
            watermark: self.watermark,
            last_event_time: self.last_event_time,
            slots: self.term_ids.clone(),
            windows,
        }
    }

    /// Installs exported state into this (freshly compiled) core: exposed
    /// windows present in both plans receive their open panes back, with
    /// accumulator slots matched by `(function, column)`; slots new to
    /// this plan initialize fresh, slots that disappeared are dropped.
    /// Exported windows absent from this plan are discarded. The ordering
    /// watermark and end-of-stream horizon carry over.
    ///
    /// Panes of operators that feed children are parked in the store's
    /// *carry* rather than the live deque: their pre-swap contributions
    /// already reached every descendant through the export-time flush, so
    /// sealing must cascade only the post-swap pane and fold the carried
    /// half in just before emission. Leaf operators (no children) adopt
    /// directly into the deque.
    pub(crate) fn adopt(&mut self, state: GroupState) {
        debug_assert_eq!(self.fed, 0, "state is adopted into a fresh core only");
        self.watermark = self.watermark.max(state.watermark);
        self.last_event_time = self.last_event_time.max(state.last_event_time);
        let slot_map: Vec<Option<usize>> = self
            .term_ids
            .iter()
            .map(|key| state.slots.iter().position(|old| old == key))
            .collect();
        for (window, panes) in state.windows {
            let Some(op) =
                (0..self.stores.len()).find(|&op| self.exposed[op] && self.windows[op] == window)
            else {
                continue;
            };
            let funcs = self.funcs.clone();
            let feeds_children = !self.children[op].is_empty();
            // Fast-forward the cursor past everything already sealed so
            // re-opening instance m does not allocate panes for the
            // sealed prefix (returns None: a fresh deque has no panes).
            let positioned = self.stores[op].deque.prepare_due(state.watermark);
            debug_assert!(positioned.is_none());
            let remap = |old_acc: &MultiAcc| -> MultiAcc {
                funcs
                    .iter()
                    .enumerate()
                    .map(|(j, &f)| match slot_map[j] {
                        Some(old_j) => old_acc[old_j].clone(),
                        None => init_slot(f),
                    })
                    .collect()
            };
            // Entries arrive key-sorted, so slot assignment in this
            // core's interner is deterministic (key order) regardless of
            // the exporting core's interning history.
            if feeds_children {
                let mut carried: Vec<(u64, MultiPane)> = Vec::with_capacity(panes.len());
                for (m, entries) in panes {
                    let mut pane = MultiPane::new(&funcs);
                    for (key, old_acc) in entries {
                        let slot = self.interner.intern(key);
                        pane.write_row(slot, &remap(&old_acc), &funcs);
                    }
                    carried.push((m, pane));
                }
                carried.sort_by_key(|&(m, _)| m);
                self.stores[op].carry = carried;
            } else {
                for (m, entries) in panes {
                    for (key, old_acc) in entries {
                        let slot = self.interner.intern(key);
                        self.stores[op]
                            .deque
                            .pane_mut(m)
                            .write_row(slot, &remap(&old_acc), &funcs);
                    }
                }
            }
        }
        self.recompute_deadline();
    }

    /// Seals every instance with `end ≤ watermark`, cascading combinable
    /// sub-aggregates down the forest. Operators are stored in topological
    /// order (parents first), so a single pass suffices; the pass also
    /// refreshes the deadline. Cascading runs *before* the carry merge, so
    /// instances migrated across a plan swap deliver only their post-swap
    /// half to children (the pre-swap half already arrived through the
    /// export-time flush) while still emitting the complete instance.
    fn advance(&mut self, watermark: u64, sink: &mut ResultSink) {
        let counters = self.profile.counters_on();
        let clock = self.profile.clock_on() && {
            self.seal_passes = self.seal_passes.wrapping_add(1);
            self.seal_passes
                .is_multiple_of(crate::executor::PROFILE_CLOCK_STRIDE)
        };
        let mut deadline = u64::MAX;
        for op in 0..self.stores.len() {
            // Most operators have nothing due at a given watermark: skip
            // them with one compare.
            let front_end = self.stores[op].front_end();
            if front_end > watermark {
                deadline = deadline.min(front_end);
                continue;
            }
            let mut op_timer = clock.then(Instant::now);
            let mut op_nanos = 0u64;
            while let Some(interval) = self.stores[op].next_due(watermark) {
                let (head, tail) = self.stores.split_at_mut(op + 1);
                let pane = head[op].deque.front_pane();
                let live = pane.len();
                self.peak_pane_live = self.peak_pane_live.max(live);
                let slot_keys = self.interner.keys();
                match &mut op_timer {
                    // Sampled pass: child combines are timed separately so
                    // their cost lands on the child node, not the sealer.
                    Some(start) => {
                        op_nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        for &child in &self.children[op] {
                            debug_assert!(child > op, "plan must be topologically ordered");
                            let t0 = Instant::now();
                            tail[child - op - 1].combine_pane(&interval, pane, slot_keys);
                            tail[child - op - 1].add_nanos(
                                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            );
                        }
                        *start = Instant::now();
                    }
                    None => {
                        for &child in &self.children[op] {
                            debug_assert!(child > op, "plan must be topologically ordered");
                            tail[child - op - 1].combine_pane(&interval, pane, slot_keys);
                        }
                    }
                }
                if counters {
                    self.stores[op].note_seal(live as u64);
                }
                if !self.stores[op].carry.is_empty() {
                    let m = interval.start / self.windows[op].slide();
                    self.stores[op].merge_carry_front(m);
                }
                if self.exposed[op] {
                    self.emit_front(op, interval, sink);
                }
                self.stores[op].deque.retire_front();
            }
            if let Some(start) = op_timer {
                op_nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.stores[op].add_nanos(op_nanos);
            }
            deadline = deadline.min(self.stores[op].front_end());
        }
        self.deadline = deadline;
    }

    /// Recycles the interner (and the pane columns sized to it) at idle
    /// points when the live key working set has shrunk well below the
    /// slot count — long key churn would otherwise grow dense columns
    /// without bound. Only runs when no store holds live state (open or
    /// carried-over panes; slot ids are then referenced nowhere), at
    /// least [`crate::executor::COMPACT_MIN_SLOTS`] slots exist, the
    /// largest recent pane used under half the slots, and enough events
    /// passed since the last compaction to amortize re-interning.
    ///
    /// Called from watermark announcements only — never from the sealing
    /// inside a columnar feed, whose translated slot buffer must stay
    /// valid for the rest of the batch.
    fn maybe_compact(&mut self) {
        let slots = self.interner.len();
        if slots >= crate::executor::COMPACT_MIN_SLOTS
            && slots >= 2 * self.peak_pane_live.max(1)
            && self.fed.saturating_sub(self.last_compact_fed) >= 16 * slots as u64
            && self.stores.iter().all(MultiStore::is_idle)
        {
            self.interner_hw.0 = self.interner_hw.0.max(slots as u64);
            self.interner_hw.1 = self.interner_hw.1.max(self.interner.bytes() as u64);
            self.interner.clear();
            for store in &mut self.stores {
                store.compact();
            }
            self.compactions += 1;
            self.peak_pane_live = 0;
            self.last_compact_fed = self.fed;
        }
    }
}

/// The pipeline-facing surface [`crate::executor::PlanPipeline`] drives.
impl MultiCore {
    /// The run-sliced feed: intern the key column into dense slots once
    /// at ingress, split the columns at slide boundaries and the sealing
    /// deadline, then fold each run into every raw-fed operator with one
    /// instance division per run and one slot-indexed accumulator resolve
    /// per key sub-run — zero hash probes past this point. Behavior
    /// (results, error position, accounting) is element-for-element
    /// identical to feeding the events one at a time.
    pub(crate) fn feed_columns(
        &mut self,
        times: &[u64],
        keys: &[u32],
        values: &[f64],
        sink: &mut ResultSink,
    ) -> Result<()> {
        // One dispatch per batch: the whole run loop below compiles per
        // aggregate for one-term queries.
        match *self.funcs {
            [f] => with_agg!(f, A => self.feed::<OneTerm<A>>(times, keys, values, sink)),
            _ => self.feed::<Terms>(times, keys, values, sink),
        }
    }

    /// [`Self::feed_columns`] with the stores' raw fold resolved.
    #[inline(always)]
    fn feed<F: RawFold>(
        &mut self,
        times: &[u64],
        keys: &[u32],
        values: &[f64],
        sink: &mut ResultSink,
    ) -> Result<()> {
        debug_assert!(times.len() == keys.len() && times.len() == values.len());
        let clock = self.profile.clock_on() && {
            self.feed_passes = self.feed_passes.wrapping_add(1);
            self.feed_passes
                .is_multiple_of(crate::executor::PROFILE_CLOCK_STRIDE)
        };
        if let ([t], [key]) = (times, keys) {
            // The per-event wrapper's one-element batch: no run slicing,
            // no slot buffer.
            self.check_order(*t, sink)?;
            let slot = self.interner.intern(*key);
            self.fold_raw::<F>(times, &[slot], values, clock);
            return Ok(());
        }
        // Intern the key column once at ingress: one interner probe per
        // key change, zero hash probes on the fold path below.
        let mut slot_buf = std::mem::take(&mut self.slot_buf);
        crate::executor::intern_keys(&mut self.interner, keys, &mut slot_buf);
        let mut i = 0;
        while i < times.len() {
            let head = times[i];
            if let Err(e) = self.check_order(head, sink) {
                self.slot_buf = slot_buf;
                return Err(e);
            }
            let limit = crate::executor::run_limit(
                head,
                self.raw_ops.iter().map(|&op| &self.windows[op]),
                self.deadline,
            );
            let j = i + crate::executor::run_len(&times[i..], limit);
            self.fold_raw::<F>(&times[i..j], &slot_buf[i..j], &values[i..j], clock);
            i = j;
        }
        self.slot_buf = slot_buf;
        Ok(())
    }

    /// Validates a run head against the ordering watermark and seals
    /// whatever it makes due.
    #[inline(always)]
    fn check_order(&mut self, head: u64, sink: &mut ResultSink) -> Result<()> {
        if head < self.watermark {
            return Err(EngineError::OutOfOrderEvent {
                at: head,
                watermark: self.watermark,
            });
        }
        if head >= self.deadline {
            self.advance(head, sink);
        }
        Ok(())
    }

    /// Folds one run into every raw-fed operator (timing each on sampled
    /// passes) and advances the feed accounting.
    #[inline(always)]
    fn fold_raw<F: RawFold>(&mut self, times: &[u64], slots: &[u32], values: &[f64], clock: bool) {
        let n_slots = self.interner.len();
        for &op in &self.raw_ops {
            let store = &mut self.stores[op];
            if clock {
                let t0 = Instant::now();
                F::fold(store, times, slots, values, n_slots);
                store.add_nanos(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            } else {
                F::fold(store, times, slots, values, n_slots);
            }
        }
        let last = times[times.len() - 1];
        self.watermark = last;
        self.fed += times.len() as u64;
        self.last_event_time = self.last_event_time.max(last);
    }

    pub(crate) fn advance_to(&mut self, watermark: u64, sink: &mut ResultSink) {
        self.advance(watermark, sink);
        self.watermark = self.watermark.max(watermark);
        self.maybe_compact();
    }

    pub(crate) fn watermark(&self) -> u64 {
        self.watermark
    }

    pub(crate) fn events_fed(&self) -> u64 {
        self.fed
    }

    pub(crate) fn last_event_time(&self) -> u64 {
        self.last_event_time
    }

    pub(crate) fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    pub(crate) fn stats(&self) -> ExecStats {
        ExecStats {
            updates: self.stores.iter().map(|s| s.updates).sum(),
            combines: self.stores.iter().map(|s| s.combines).sum(),
            agg_ops: self.stores.iter().map(MultiStore::agg_ops).sum(),
            replans: 0,
        }
    }

    pub(crate) fn work_total(&self) -> u64 {
        self.stores
            .iter()
            .map(|s| s.work_sink)
            .fold(0u64, u64::wrapping_add)
    }

    pub(crate) fn interner_stats(&self) -> (u64, u64) {
        (
            self.interner_hw.0.max(self.interner.len() as u64),
            self.interner_hw.1.max(self.interner.bytes() as u64),
        )
    }

    pub(crate) fn node_profiles(&self) -> Vec<NodeProfile> {
        self.windows
            .iter()
            .enumerate()
            .map(|(op, w)| {
                let mut p = NodeProfile {
                    node: self.node_ids[op],
                    range: w.range(),
                    slide: w.slide(),
                    exposed: self.exposed[op],
                    raw_fed: self.raw_ops.contains(&op),
                    ..NodeProfile::default()
                };
                self.stores[op].profile_into(&mut p);
                p
            })
            .collect()
    }

    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{sorted_results, Event};
    use crate::executor::{PipelineOptions, PlanPipeline};
    use crate::reference::reference_results;
    use fw_core::{AggregateSpec, Optimizer, PlanChoice, WindowQuery, WindowSet};

    fn w(r: u64, s: u64) -> Window {
        Window::new(r, s).unwrap()
    }

    fn events(n: u64, keys: u32) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(t, (t % u64::from(keys)) as u32, ((t * 7) % 23) as f64))
            .collect()
    }

    fn multi_query(ws: &[Window], funcs: &[AggregateFunction]) -> WindowQuery {
        let specs = funcs.iter().map(|&f| AggregateSpec::new(f)).collect();
        WindowQuery::with_aggregates(WindowSet::new(ws.to_vec()).unwrap(), specs).unwrap()
    }

    /// Per-term slice of a multi-aggregate result set, with the tag reset
    /// so it compares equal to a single-aggregate run.
    fn slice_of(results: &[WindowResult], agg: u32) -> Vec<WindowResult> {
        results
            .iter()
            .filter(|r| r.agg == agg)
            .map(|r| WindowResult { agg: 0, ..*r })
            .collect()
    }

    #[test]
    fn multi_core_matches_single_aggregate_runs_per_term() {
        let windows = [w(20, 20), w(30, 30), w(40, 40)];
        let funcs = [
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
            AggregateFunction::Count,
        ];
        let evs = events(500, 4);
        for choice in PlanChoice::CONCRETE {
            let multi = Optimizer::default()
                .optimize(&multi_query(&windows, &funcs))
                .unwrap();
            let plan = &multi.select(choice).plan;
            let out = PlanPipeline::run(plan, &evs, PipelineOptions::collecting()).unwrap();
            let got = sorted_results(out.results);
            for (j, &f) in funcs.iter().enumerate() {
                let single = Optimizer::default()
                    .optimize(&WindowQuery::new(
                        WindowSet::new(windows.to_vec()).unwrap(),
                        f,
                    ))
                    .unwrap();
                let sout = PlanPipeline::run(
                    &single.select(choice).plan,
                    &evs,
                    PipelineOptions::collecting(),
                )
                .unwrap();
                assert_eq!(
                    slice_of(&got, j as u32),
                    sorted_results(sout.results),
                    "{f} diverges under {choice}"
                );
            }
        }
    }

    #[test]
    fn holistic_rider_matches_reference_in_a_factored_plan() {
        // MEDIAN rides raw panes inside a plan whose MIN/MAX terms share
        // sub-aggregates (including through a hidden factor window).
        let windows = [w(20, 20), w(30, 30), w(40, 40)];
        let funcs = [
            AggregateFunction::Median,
            AggregateFunction::Min,
            AggregateFunction::Max,
        ];
        let q = multi_query(&windows, &funcs);
        let out = Optimizer::default().optimize(&q).unwrap();
        assert!(out.factored.plan.factor_window_count() > 0);
        let evs = events(400, 3);
        let run =
            PlanPipeline::run(&out.factored.plan, &evs, PipelineOptions::collecting()).unwrap();
        let got = sorted_results(run.results);
        for (j, &f) in funcs.iter().enumerate() {
            let oracle = reference_results(&windows, f, &evs);
            assert_eq!(slice_of(&got, j as u32), oracle, "{f} diverges from oracle");
        }
    }

    #[test]
    fn pane_work_is_attributed_once_not_per_term() {
        let windows = [w(20, 20), w(30, 30), w(40, 40)];
        let evs = events(1200, 2);
        let opts = PipelineOptions::default();
        let single = Optimizer::default()
            .optimize(&WindowQuery::new(
                WindowSet::new(windows.to_vec()).unwrap(),
                AggregateFunction::Sum,
            ))
            .unwrap();
        let sref = PlanPipeline::run(&single.factored.plan, &evs, opts).unwrap();

        let funcs = [
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
            AggregateFunction::Count,
        ];
        let multi = Optimizer::default()
            .optimize(&multi_query(&windows, &funcs))
            .unwrap();
        assert_eq!(multi.factored.plan.factor_window_count(), 1);
        let mrun = PlanPipeline::run(&multi.factored.plan, &evs, opts).unwrap();
        // Pane maintenance is identical to the single-aggregate plan...
        assert_eq!(mrun.stats.updates, sref.stats.updates);
        assert_eq!(mrun.stats.combines, sref.stats.combines);
        // ...while the slot fan-out reports the per-term work.
        assert_eq!(
            mrun.stats.agg_ops,
            4 * (sref.stats.updates + sref.stats.combines)
        );
    }

    #[test]
    fn all_holistic_sub_aggregate_feed_is_rejected() {
        use fw_core::plan::PlanBuilder;
        let mut b = PlanBuilder::with_aggregates(vec![
            AggregateSpec::new(AggregateFunction::Median),
            AggregateSpec::new(AggregateFunction::Median).with_label("M2"),
        ]);
        let src = b.source();
        let w20 = b.window_agg(src, w(20, 20), "w20".to_string(), true);
        let w40 = b.window_agg(w20, w(40, 40), "w40".to_string(), true);
        let plan = b.finish(vec![w20, w40]);
        let err = PlanPipeline::compile(&plan, PipelineOptions::default())
            .err()
            .unwrap();
        assert!(matches!(err, EngineError::HolisticSubAggregate { .. }));
    }

    #[test]
    fn incremental_push_and_watermarks_match_batch() {
        let windows = [w(10, 10), w(20, 10), w(40, 20)];
        let funcs = [AggregateFunction::Sum, AggregateFunction::Count];
        let q = multi_query(&windows, &funcs);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(300, 3);
        let batch =
            PlanPipeline::run(&out.factored.plan, &evs, PipelineOptions::collecting()).unwrap();

        let mut pipeline =
            PlanPipeline::compile(&out.factored.plan, PipelineOptions::collecting()).unwrap();
        let mut collected = Vec::new();
        for (i, &e) in evs.iter().enumerate() {
            pipeline.push(e).unwrap();
            if i % 90 == 89 {
                pipeline.advance_watermark(e.time).unwrap();
                collected.extend(pipeline.poll_results());
            }
        }
        let tail = pipeline.finish().unwrap();
        collected.extend(tail.results);
        assert_eq!(sorted_results(collected), sorted_results(batch.results));
    }
}
