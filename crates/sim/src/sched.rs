//! Event schedulers: the binary heap the engine grew up with, and the
//! hierarchical timing wheel that replaced it on the hot path.
//!
//! The engine's contract is a **total order**: events pop in ascending
//! `(at, key)`, where the 64-bit `key` encodes an event *class* in its
//! top bits and a class-specific discriminator below:
//!
//! * **Arrivals** ([`EventQueue::push_at_key`], key < 2^30, with the
//!   push counter appended in the low bits) carry a caller-chosen key —
//!   the engine uses the directed link index: two packets can never
//!   finish the same link's serializer at the same instant, so
//!   same-instant arrivals on different links order by a property of
//!   the schedule itself rather than by when their events happened to
//!   be pushed.
//! * **Timers** ([`EventQueue::push`], class 1) order by the monotone
//!   push counter — same-instant timers drain in push order, as before.
//! * **Serializer completions** ([`EventQueue::push_last`], class 2)
//!   sort after everything else at their instant: an observer at a
//!   packet boundary sees the boundary as not-yet-crossed.
//!
//! Under that order every run is byte-identical, under either
//! scheduler. A
//! `BinaryHeap` delivers that at O(log n) per operation — and WAN and
//! fat-tree scenarios keep 10⁴–10⁵ events pending, so every push and pop
//! sifts through ~17 levels of cold cache lines. The [`TimingWheel`]
//! delivers the same order at amortized O(1): near-future events land in
//! fine-grained buckets, far-future events in coarser levels that cascade
//! down as the clock advances, and events beyond the horizon wait in a
//! small overflow heap.
//!
//! [`EventQueue`] wraps both behind one surface; [`SchedulerKind`] in
//! `SimConfig` selects the implementation (the heap stays available as a
//! differential oracle — `crates/sim/tests/sched_diff.rs` drives random
//! event streams through both and requires identical pop sequences).
//!
//! ## Wheel geometry
//!
//! * [`LEVELS`] = 3 levels of [`SLOTS`] = 256 buckets each.
//! * Level 0 buckets are 2^[`BASE_SHIFT`] = 512 ns wide, so level 0 spans
//!   ~131 µs — datacenter serialization/propagation events resolve here.
//! * Each coarser level widens buckets 256×: level 1 spans ~33.5 ms (WAN
//!   propagation, probe periods), level 2 ~8.6 s (TCP RTOs, far timers).
//! * Beyond level 2 lies the overflow `BinaryHeap`, drained back into the
//!   wheel as the horizon advances. With the engine filtering events past
//!   `stop_at`, overflow is practically never touched.
//!
//! A bucket holds its entries unsorted; when the clock reaches a level-0
//! bucket the entries move into a small `ready` heap that restores exact
//! `(at, seq)` order. Sorting ~bucket-sized heaps is where the asymptotic
//! win comes from: the heap's log(pending) becomes log(bucket occupancy).

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the level-0 bucket width in nanoseconds (512 ns).
pub const BASE_SHIFT: u32 = 9;
/// log2 of the bucket count per level (256 buckets).
pub const SLOT_BITS: u32 = 8;
/// Buckets per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels below the overflow heap.
pub const LEVELS: usize = 3;

const SLOT_MASK: u64 = (SLOTS as u64) - 1;
const WORDS: usize = SLOTS / 64;

#[inline]
const fn level_shift(lvl: usize) -> u32 {
    BASE_SHIFT + SLOT_BITS * lvl as u32
}

/// Caller-chosen arrival keys ([`EventQueue::push_at_key`]) must lie
/// below this bound; the scheduler appends its monotone push counter in
/// the low 32 bits (so equal caller keys at one instant drain in push
/// order — e.g. two live arrivals on one link across a down/up flap)
/// and the composed key must stay below the timer class at `2^62`.
pub const ARRIVAL_KEY_LIMIT: u64 = 1 << 30;
/// Class tag of plain-push timer events.
const TIMER_CLASS: u64 = 1 << 62;
/// Class tag of sort-last serializer completions.
const LAST_CLASS: u64 = 2 << 62;

/// One scheduled event: the instant, the class-encoding tie-breaker, the
/// payload. Ordered by `(at, key)` — the engine's total order.
#[derive(Debug, Clone)]
pub struct SchedEntry<T> {
    /// When the event fires.
    pub at: Time,
    /// Tie-break key (see the module docs for the class encoding).
    pub key: u64,
    /// The event payload.
    pub ev: T,
}

impl<T> PartialEq for SchedEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<T> Eq for SchedEntry<T> {}
impl<T> PartialOrd for SchedEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for SchedEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// Scheduler occupancy/behavior counters, surfaced in `SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Peak number of pending events over the run.
    pub peak_pending: u64,
    /// Entries re-filed from a coarser wheel level into a finer one as the
    /// clock advanced (0 under the heap scheduler).
    pub cascades: u64,
    /// Entries that landed beyond the wheel horizon in the overflow heap
    /// (0 under the heap scheduler).
    pub overflow_pushes: u64,
}

/// Which event-queue implementation the engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel (the default).
    #[default]
    Wheel,
    /// The original binary heap — kept as a differential oracle and an
    /// escape hatch (`SimConfig::scheduler`).
    Heap,
}

/// The original scheduler: one `BinaryHeap` over all pending events.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<SchedEntry<T>>>,
    seq: u64,
    peak: usize,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            peak: 0,
        }
    }
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    pub fn new() -> HeapQueue<T> {
        HeapQueue::default()
    }

    /// Schedules a timer-class event at `at` (same-instant timers drain
    /// in push order); `at` must not precede any popped instant.
    pub fn push(&mut self, at: Time, ev: T) {
        self.seq += 1;
        let key = TIMER_CLASS | self.seq;
        self.heap.push(Reverse(SchedEntry { at, key, ev }));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Schedules an arrival-class event with a caller-chosen tie-break
    /// key (`key < 2^30`): same-instant arrivals order by key, ahead of
    /// every timer and completion at that instant; equal keys drain in
    /// push order (the counter in the low bits breaks the tie).
    pub fn push_at_key(&mut self, at: Time, key: u64, ev: T) {
        debug_assert!(key < ARRIVAL_KEY_LIMIT, "arrival key overflows its class");
        self.seq += 1;
        let key = (key << 32) | (self.seq & 0xFFFF_FFFF);
        self.heap.push(Reverse(SchedEntry { at, key, ev }));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Schedules a completion-class event: sorts after everything else
    /// at its instant (same-instant completions keep push order).
    pub fn push_last(&mut self, at: Time, ev: T) {
        self.seq += 1;
        let key = LAST_CLASS | self.seq;
        self.heap.push(Reverse(SchedEntry { at, key, ev }));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the `(at, key)`-minimal pending event.
    pub fn pop(&mut self) -> Option<SchedEntry<T>> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Occupancy counters.
    pub fn counters(&self) -> SchedCounters {
        SchedCounters {
            peak_pending: self.peak as u64,
            cascades: 0,
            overflow_pushes: 0,
        }
    }
}

/// Hierarchical timing wheel preserving exact `(at, seq)` pop order.
///
/// Invariants (all times in ns):
///
/// * `cur` is a level-0 bucket boundary; every pending event with
///   `at < cur` sits in `ready`, already totally ordered.
/// * A level-`l` bucket with absolute index `s` (i.e. covering
///   `[s << shift_l, (s+1) << shift_l)`) is occupied only for
///   `s ∈ [cur >> shift_l, (cur >> shift_l) + SLOTS)`, so the ring index
///   `s & SLOT_MASK` is unambiguous.
/// * Coarse buckets never contain events of the coarse bucket `cur` is in:
///   placement always picks the finest level that can hold the event.
/// * Overflow entries all lie at or beyond every wheel entry's bucket.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// `levels[l][s & SLOT_MASK]`: unsorted entries of one bucket.
    levels: Vec<Vec<Vec<SchedEntry<T>>>>,
    /// Per-level bucket-occupancy bitmaps (`SLOTS` bits each).
    occ: [[u64; WORDS]; LEVELS],
    /// The opened level-0 bucket, sorted descending by `(at, key)` and
    /// popped from the back — the fast path: one sort per bucket beats
    /// two heap operations per event.
    run: Vec<SchedEntry<T>>,
    /// Stragglers pushed behind the drain front (same-instant pushes
    /// during a bucket drain), in exact `(at, key)` heap order. Merged
    /// with `run` on pop.
    ready: BinaryHeap<Reverse<SchedEntry<T>>>,
    /// Drain front: a level-0 boundary; everything earlier is in `run`
    /// or `ready`.
    cur: u64,
    /// Events beyond the level-`LEVELS-1` horizon.
    overflow: BinaryHeap<Reverse<SchedEntry<T>>>,
    len: usize,
    seq: u64,
    peak: usize,
    cascades: u64,
    overflow_pushes: u64,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occ: [[0; WORDS]; LEVELS],
            run: Vec::new(),
            ready: BinaryHeap::new(),
            cur: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            peak: 0,
            cascades: 0,
            overflow_pushes: 0,
        }
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel at time 0.
    pub fn new() -> TimingWheel<T> {
        TimingWheel::default()
    }

    /// Schedules a timer-class event at `at`. `at` must be no earlier
    /// than the `at` of the last popped event (the discrete-event
    /// contract; the engine never schedules into the past).
    pub fn push(&mut self, at: Time, ev: T) {
        self.seq += 1;
        let key = TIMER_CLASS | self.seq;
        self.push_entry(SchedEntry { at, key, ev });
    }

    /// Schedules an arrival-class event with a caller-chosen tie-break
    /// key (`key < 2^30`); see [`HeapQueue::push_at_key`].
    pub fn push_at_key(&mut self, at: Time, key: u64, ev: T) {
        debug_assert!(key < ARRIVAL_KEY_LIMIT, "arrival key overflows its class");
        self.seq += 1;
        let key = (key << 32) | (self.seq & 0xFFFF_FFFF);
        self.push_entry(SchedEntry { at, key, ev });
    }

    /// Schedules a completion-class event (sorts last at its instant).
    pub fn push_last(&mut self, at: Time, ev: T) {
        self.seq += 1;
        let key = LAST_CLASS | self.seq;
        self.push_entry(SchedEntry { at, key, ev });
    }

    fn push_entry(&mut self, entry: SchedEntry<T>) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.place(entry);
    }

    /// Pops the `(at, key)`-minimal pending event.
    pub fn pop(&mut self) -> Option<SchedEntry<T>> {
        loop {
            // Fast path: merge the sorted run with the straggler heap.
            match (self.run.last(), self.ready.peek()) {
                (Some(r), Some(Reverse(h))) => {
                    self.len -= 1;
                    return Some(if (r.at, r.key) <= (h.at, h.key) {
                        self.run.pop().expect("just peeked")
                    } else {
                        self.ready.pop().expect("just peeked").0
                    });
                }
                (Some(_), None) => {
                    self.len -= 1;
                    return Some(self.run.pop().expect("just peeked"));
                }
                (None, Some(_)) => {
                    self.len -= 1;
                    return Some(self.ready.pop().expect("just peeked").0);
                }
                (None, None) => {}
            }
            if self.len == 0 {
                return None;
            }
            // Pick the earliest occupied bucket across levels. On equal
            // starts the coarser bucket wins: its window covers the finer
            // one, so it must cascade before the finer bucket drains.
            let mut best: Option<(usize, u64)> = None;
            for lvl in 0..LEVELS {
                if let Some(abs) = self.first_occupied(lvl) {
                    let start = abs << level_shift(lvl);
                    match best {
                        Some((blvl, babs)) if (babs << level_shift(blvl)) < start => {}
                        _ => best = Some((lvl, abs)),
                    }
                }
            }
            let Some((lvl, abs)) = best else {
                // Wheel empty: jump the clock to the overflow head and
                // refill everything within the new horizon.
                let head = self.overflow.peek().expect("len > 0, wheels empty").0.at.0;
                self.cur = self.cur.max(head >> BASE_SHIFT << BASE_SHIFT);
                let horizon = ((self.cur >> level_shift(LEVELS - 1)) + SLOTS as u64)
                    << level_shift(LEVELS - 1);
                self.pull_overflow(horizon);
                continue;
            };
            let shift = level_shift(lvl);
            let start = abs << shift;
            let end = start + (1 << shift);
            if matches!(self.overflow.peek(), Some(Reverse(e)) if e.at.0 < end) {
                // Rare: the horizon moved past overflow entries. Re-place
                // them before committing to this bucket.
                self.cur = self.cur.max(start);
                self.pull_overflow(end);
                continue;
            }
            self.cur = self.cur.max(start);
            let idx = (abs & SLOT_MASK) as usize;
            self.occ[lvl][idx / 64] &= !(1u64 << (idx % 64));
            let mut bucket = std::mem::take(&mut self.levels[lvl][idx]);
            if lvl == 0 {
                // Reached: sort once (descending, popped from the back)
                // and advance the drain front past this bucket. The old
                // run allocation is recycled as the emptied bucket.
                debug_assert!(self.run.is_empty());
                bucket.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.key)));
                std::mem::swap(&mut self.run, &mut bucket);
                self.levels[lvl][idx] = bucket;
                self.cur = end;
                continue;
            } else {
                // Cascade one coarse bucket into finer levels.
                self.cascades += bucket.len() as u64;
                for e in bucket.drain(..) {
                    self.place(e);
                }
            }
            self.levels[lvl][idx] = bucket; // recycle the allocation
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupancy counters.
    pub fn counters(&self) -> SchedCounters {
        SchedCounters {
            peak_pending: self.peak as u64,
            cascades: self.cascades,
            overflow_pushes: self.overflow_pushes,
        }
    }

    /// Files an entry into ready / the finest fitting level / overflow.
    fn place(&mut self, entry: SchedEntry<T>) {
        let at = entry.at.0;
        if at < self.cur {
            // Inside the already-drained window: joins the ready order
            // directly (same-instant pushes during a bucket drain).
            self.ready.push(Reverse(entry));
            return;
        }
        for lvl in 0..LEVELS {
            let shift = level_shift(lvl);
            if (at >> shift) - (self.cur >> shift) < SLOTS as u64 {
                let idx = ((at >> shift) & SLOT_MASK) as usize;
                self.levels[lvl][idx].push(entry);
                self.occ[lvl][idx / 64] |= 1u64 << (idx % 64);
                return;
            }
        }
        self.overflow_pushes += 1;
        self.overflow.push(Reverse(entry));
    }

    /// Re-places overflow entries with `at < bound` into the wheel.
    /// `bound` must be within the current horizon so they cannot bounce
    /// back to overflow.
    fn pull_overflow(&mut self, bound: u64) {
        while matches!(self.overflow.peek(), Some(Reverse(e)) if e.at.0 < bound) {
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }

    /// The smallest occupied absolute bucket index of a level, scanning
    /// the occupancy bitmap one rotation from the bucket holding `cur`.
    fn first_occupied(&self, lvl: usize) -> Option<u64> {
        let base = self.cur >> level_shift(lvl);
        let p0 = (base & SLOT_MASK) as usize;
        let occ = &self.occ[lvl];
        let (w0, b0) = (p0 / 64, p0 % 64);
        for k in 0..=WORDS {
            let wi = (w0 + k) % WORDS;
            let mut w = occ[wi];
            if k == 0 {
                w &= !0u64 << b0;
            } else if k == WORDS {
                w &= (1u64 << b0) - 1; // wrapped tail of the first word
            }
            if w != 0 {
                let p = wi * 64 + w.trailing_zeros() as usize;
                let dist = (p + SLOTS - p0) as u64 & SLOT_MASK;
                return Some(base + dist);
            }
        }
        None
    }
}

/// The engine's event queue: one of the two schedulers, chosen by
/// `SimConfig::scheduler`.
#[derive(Debug)]
pub enum EventQueue<T> {
    /// Hierarchical timing wheel.
    Wheel(TimingWheel<T>),
    /// Plain binary heap.
    Heap(HeapQueue<T>),
}

impl<T> EventQueue<T> {
    /// An empty queue of the requested kind.
    pub fn new(kind: SchedulerKind) -> EventQueue<T> {
        match kind {
            SchedulerKind::Wheel => EventQueue::Wheel(TimingWheel::new()),
            SchedulerKind::Heap => EventQueue::Heap(HeapQueue::new()),
        }
    }

    /// Schedules a timer-class event at `at` (monotone: `at` ≥ the last
    /// popped instant).
    #[inline]
    pub fn push(&mut self, at: Time, ev: T) {
        match self {
            EventQueue::Wheel(w) => w.push(at, ev),
            EventQueue::Heap(h) => h.push(at, ev),
        }
    }

    /// Schedules an arrival-class event with a caller-chosen key
    /// (`key < 2^30`, pops ahead of same-instant timers/completions;
    /// equal keys at one instant drain in push order).
    #[inline]
    pub fn push_at_key(&mut self, at: Time, key: u64, ev: T) {
        match self {
            EventQueue::Wheel(w) => w.push_at_key(at, key, ev),
            EventQueue::Heap(h) => h.push_at_key(at, key, ev),
        }
    }

    /// Schedules a completion-class event (sorts last at its instant).
    #[inline]
    pub fn push_last(&mut self, at: Time, ev: T) {
        match self {
            EventQueue::Wheel(w) => w.push_last(at, ev),
            EventQueue::Heap(h) => h.push_last(at, ev),
        }
    }

    /// Pops the `(at, key)`-minimal pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<SchedEntry<T>> {
        match self {
            EventQueue::Wheel(w) => w.pop(),
            EventQueue::Heap(h) => h.pop(),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(w) => w.len(),
            EventQueue::Heap(h) => h.len(),
        }
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy counters.
    pub fn counters(&self) -> SchedCounters {
        match self {
            EventQueue::Wheel(w) => w.counters(),
            EventQueue::Heap(h) => h.counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a scheduler completely, asserting the pop order is
    /// non-decreasing in `(at, seq)`.
    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.at.0, e.key, e.ev));
        }
        assert!(out.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        out
    }

    #[test]
    fn same_instant_pops_in_push_order() {
        let mut w = TimingWheel::new();
        for i in 0..100u32 {
            w.push(Time(1_000), i);
        }
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cross_level_order_is_global() {
        let mut w = TimingWheel::new();
        // One event per scale: level 0, level 1, level 2, overflow.
        w.push(Time::us(1), 0);
        w.push(Time::ms(5), 1);
        w.push(Time::ms(500), 2);
        w.push(Time(30_000_000_000), 3); // 30 s — beyond the wheel horizon
        w.push(Time(100), 4);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, vec![4, 0, 1, 2, 3]);
        assert!(w.counters().overflow_pushes >= 1);
        assert!(w.counters().cascades >= 2);
    }

    #[test]
    fn pushes_during_drain_join_current_bucket() {
        let mut w = TimingWheel::new();
        w.push(Time(100), 0);
        w.push(Time(100), 1);
        let first = w.pop().unwrap();
        assert_eq!(first.ev, 0);
        // Same instant as the event being handled: must still pop before
        // anything later, after the already-queued same-instant event.
        w.push(Time(100), 2);
        w.push(Time(101), 3);
        w.push(Time::ms(1), 4);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_gaps_and_bucket_boundaries() {
        let mut w = TimingWheel::new();
        // Straddle level-0 bucket edges and level-1 boundaries exactly.
        let g0 = 1u64 << BASE_SHIFT;
        let g1 = 1u64 << level_shift(1);
        for (i, &at) in [g0 - 1, g0, g0 + 1, g1 - 1, g1, g1 + 1, 7 * g1, 200 * g1]
            .iter()
            .enumerate()
        {
            w.push(Time(at), i as u32);
        }
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, ev)| ev).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // A fixed but irregular schedule driven through both schedulers.
        let mut wheel = TimingWheel::new();
        let mut heap = HeapQueue::new();
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut wheel_out = Vec::new();
        let mut heap_out = Vec::new();
        for i in 0..20_000u32 {
            let delta = match rnd() % 10 {
                0..=5 => rnd() % 2_000,      // sub-bucket to level 0
                6 | 7 => rnd() % 300_000,    // level 0/1
                8 => rnd() % 40_000_000,     // level 1/2
                _ => rnd() % 20_000_000_000, // level 2 + overflow
            };
            wheel.push(Time(now + delta), i);
            heap.push(Time(now + delta), i);
            if rnd() % 3 == 0 {
                let (a, b) = (wheel.pop().unwrap(), heap.pop().unwrap());
                now = a.at.0;
                wheel_out.push((a.at, a.key, a.ev));
                heap_out.push((b.at, b.key, b.ev));
            }
        }
        while let Some(a) = wheel.pop() {
            wheel_out.push((a.at, a.key, a.ev));
        }
        while let Some(b) = heap.pop() {
            heap_out.push((b.at, b.key, b.ev));
        }
        assert_eq!(wheel_out, heap_out);
        assert_eq!(wheel.len(), 0);
    }

    /// Same-instant arrivals with *equal* caller keys (one link's
    /// pre-flap in-flight packet + a post-recovery packet) drain in push
    /// order, identically on both schedulers — the composed key's low
    /// bits carry the push counter, so no two entries ever compare
    /// equal and pop order can never fall to implementation whims.
    #[test]
    fn equal_arrival_keys_drain_in_push_order() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut q = EventQueue::new(kind);
            let t = Time::us(7);
            for i in 0..50u32 {
                q.push_at_key(t, 3, i); // same instant, same link key
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.ev)).collect();
            assert_eq!(order, (0..50).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    /// The class order at one instant: arrivals (by key), then timers
    /// (push order), then completions (push order) — on both schedulers.
    #[test]
    fn classes_order_arrivals_timers_completions() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut q = EventQueue::new(kind);
            let t = Time::us(3);
            q.push_last(t, 100u32); // completion pushed first...
            q.push(t, 10);
            q.push_at_key(t, 7, 1);
            q.push(t, 11);
            q.push_at_key(t, 2, 0); // ...arrival with the smallest key last
            q.push_last(t, 101);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.ev)).collect();
            assert_eq!(order, vec![0, 1, 10, 11, 100, 101], "{kind:?}");
        }
    }

    #[test]
    fn counters_track_peak_occupancy() {
        let mut q = EventQueue::new(SchedulerKind::Wheel);
        for i in 0..50u32 {
            q.push(Time(i as u64 * 10), i);
        }
        for _ in 0..20 {
            q.pop();
        }
        assert_eq!(q.len(), 30);
        assert_eq!(q.counters().peak_pending, 50);
        let h = EventQueue::<u32>::new(SchedulerKind::Heap);
        assert_eq!(h.counters(), SchedCounters::default());
    }
}
