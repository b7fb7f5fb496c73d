//! Progress-sharing resources.
//!
//! A [`ProgressSet`] is a set of jobs, each carrying an amount of remaining
//! *work* (bytes, cpu-nanoseconds, …) that drains at an externally assigned
//! *rate* (work units per virtual second). Engines use it like this:
//!
//! 1. whenever the active set changes, `advance_to(now)` to account the work
//!    done at the old rates,
//! 2. assign the new rates (`set_rate`),
//! 3. query `earliest_completion()` and schedule a completion event there,
//! 4. when that event fires, `advance_to` again and `take_finished` the jobs
//!    that drained.
//!
//! Both the flow-level network model (concurrent transfers sharing link
//! bandwidth) and the CPU model (atomic steps under processor sharing) are
//! instances of this pattern, so the fiddly float/rounding logic lives here
//! exactly once.
//!
//! Progress is accounted **lazily**: `advance_to` only moves the clock
//! (O(1)); a job's remaining work is *settled* — materialized against the
//! clock — only when that job's own rate changes, when it is removed, or
//! when it completes. Between settlements the remaining work is implied by
//! `settled_remaining − rate·(now − settled_at)`.
//!
//! Jobs live in a slab. Every job with an announced finish time owns
//! exactly one entry in a min-heap of slab slots ordered by `(due, key)`,
//! and records that entry's position, so a rate change re-sifts the job's
//! single entry in place (O(log jobs)) and the next completion is a peek.
//! Neither advancing time nor finding the next completion ever scans the
//! job set: per-event cost is O(jobs whose rate changed · log jobs).

use std::hash::Hash;

use crate::fxhash::FxHashMap;
use crate::time::{SimDuration, SimTime};

/// Work below this many units counts as finished; guards against float dust
/// left over by rate changes.
const WORK_EPS: f64 = 1e-6;

/// `Job::pos` of a job without an announced completion (stalled at rate 0).
const UNANNOUNCED: usize = usize::MAX;

#[derive(Clone, Copy, Debug)]
struct Job<K> {
    key: K,
    /// Remaining work at `settled_at`.
    remaining: f64,
    rate: f64,
    /// Time at which `remaining` was last materialized.
    settled_at: SimTime,
    /// Announced completion time; meaningful while `pos != UNANNOUNCED`.
    due: SimTime,
    /// Index of this job's entry in the completion heap, or `UNANNOUNCED`.
    pos: usize,
}

/// A set of jobs draining remaining work at assigned rates.
///
/// `K` identifies jobs; `Ord` is required so that completion ties are broken
/// deterministically regardless of hash-map iteration order.
#[derive(Clone)]
pub struct ProgressSet<K: Eq + Hash + Copy + Ord> {
    /// Key → slab slot of every live job.
    index: FxHashMap<K, usize>,
    /// Job slab; vacant slots are listed in `free`.
    slots: Vec<Job<K>>,
    free: Vec<usize>,
    /// Min-heap of the slots of announced jobs, ordered by `(due, key)`.
    heap: Vec<usize>,
    last: SimTime,
}

impl<K: Eq + Hash + Copy + Ord + std::fmt::Debug> std::fmt::Debug for ProgressSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSet")
            .field(
                "jobs",
                &self
                    .index
                    .values()
                    .map(|&s| &self.slots[s])
                    .collect::<Vec<_>>(),
            )
            .field("last", &self.last)
            .finish_non_exhaustive()
    }
}

impl<K: Eq + Hash + Copy + Ord> Default for ProgressSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// `x.round().max(1.0)` as an integer, or `None` when that does not fit
/// below 2⁶⁴ — for `x ≥ 0`, bit-for-bit what `f64::round` (round half away
/// from zero) gives, without the libm call. Doubles at or above 2⁵² are
/// already integers; below it truncation and the fractional part are exact.
fn round_ns(x: f64) -> Option<u64> {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    const TWO_64: f64 = 18_446_744_073_709_551_616.0;
    if x >= TWO_52 {
        return (x < TWO_64).then_some(x as u64);
    }
    let whole = x as u64;
    let up = x - whole as f64 >= 0.5;
    Some((whole + u64::from(up)).max(1))
}

impl<K: Eq + Hash + Copy + Ord> ProgressSet<K> {
    /// An empty set anchored at time zero.
    pub fn new() -> Self {
        ProgressSet {
            index: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            last: SimTime::ZERO,
        }
    }

    /// Accounts work done between the last advance and `now` at the current
    /// rates. `now` must not precede the previous advance.
    ///
    /// O(1): only the clock moves; individual jobs are settled lazily when
    /// their own state is next touched.
    pub fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "ProgressSet time went backwards");
        if now > self.last {
            self.last = now;
        }
    }

    /// Remaining work of `job` as of the current clock, without mutating it.
    fn implied_remaining(&self, job: &Job<K>) -> f64 {
        if job.rate <= 0.0 || self.last <= job.settled_at {
            return job.remaining;
        }
        let dt = (self.last - job.settled_at).as_secs_f64();
        (job.remaining - job.rate * dt).max(0.0)
    }

    /// Materializes `job`'s remaining work at the current clock.
    fn settle(last: SimTime, job: &mut Job<K>) {
        if job.rate > 0.0 && last > job.settled_at {
            let dt = (last - job.settled_at).as_secs_f64();
            job.remaining = (job.remaining - job.rate * dt).max(0.0);
        }
        job.settled_at = last;
    }

    /// Completion time of a just-settled job: now when already finished,
    /// the drain time rounded to the nearest nanosecond when running, none
    /// when stalled at rate 0.
    fn due(&self, remaining: f64, rate: f64) -> Option<SimTime> {
        if Self::finished_at(remaining, rate) {
            Some(self.last)
        } else if rate > 0.0 {
            // Round to the nearest nanosecond: the clock cannot resolve
            // finer, and `finished` tolerates up to one nanosecond of
            // residual drain, so nearest-rounding never strands a job.
            let secs = remaining / rate;
            round_ns(secs * 1e9).map(|ns| self.last + SimDuration::from_nanos(ns))
        } else {
            None
        }
    }

    /// (Re-)announces a just-settled job: moves, inserts or drops its heap
    /// entry to match its current remaining work and rate.
    fn announce(&mut self, slot: usize) {
        let job = self.slots[slot];
        let Some(due) = self.due(job.remaining, job.rate) else {
            self.unannounce(slot);
            return;
        };
        let pos = if job.pos == UNANNOUNCED {
            self.heap.push(slot);
            self.heap.len() - 1
        } else {
            job.pos
        };
        self.slots[slot].due = due;
        self.slots[slot].pos = pos;
        self.resift(pos);
    }

    /// Drops the job in `slot`'s heap entry, if it has one.
    fn unannounce(&mut self, slot: usize) {
        let pos = std::mem::replace(&mut self.slots[slot].pos, UNANNOUNCED);
        if pos == UNANNOUNCED {
            return;
        }
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.slots[self.heap[pos]].pos = pos;
            self.resift(pos);
        }
    }

    /// Moves the heap entry at `pos` up or down to its ordered place.
    fn resift(&mut self, pos: usize) {
        if !self.sift_up(pos) {
            self.sift_down(pos);
        }
    }

    /// Whether heap slot `a` orders before heap slot `b`.
    fn before(&self, a: usize, b: usize) -> bool {
        let (a, b) = (&self.slots[a], &self.slots[b]);
        (a.due, a.key) < (b.due, b.key)
    }

    /// Swaps heap entries `i` and `j`, keeping their jobs' positions.
    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.slots[self.heap[i]].pos = i;
        self.slots[self.heap[j]].pos = j;
    }

    /// Restores the heap order upward from `pos`; whether the entry moved.
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let start = pos;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.before(self.heap[pos], self.heap[parent]) {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
        pos != start
    }

    /// Restores the heap order downward from `pos`.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !self.before(self.heap[child], self.heap[pos]) {
                break;
            }
            self.swap(pos, child);
            pos = child;
        }
    }

    /// Drops the job in `slot` from the set.
    fn vacate(&mut self, slot: usize) {
        self.unannounce(slot);
        self.index.remove(&self.slots[slot].key);
        self.free.push(slot);
    }

    /// Adds a job with `work` units remaining and rate 0. Panics if the key
    /// is already present — reusing keys for live jobs is always an engine
    /// bug.
    pub fn insert(&mut self, now: SimTime, key: K, work: f64) {
        self.advance_to(now);
        assert!(work >= 0.0, "negative work");
        let job = Job {
            key,
            remaining: work,
            rate: 0.0,
            settled_at: now,
            due: now,
            pos: UNANNOUNCED,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = job;
                slot
            }
            None => {
                self.slots.push(job);
                self.slots.len() - 1
            }
        };
        let prev = self.index.insert(key, slot);
        assert!(prev.is_none(), "duplicate ProgressSet job key");
        self.announce(slot);
    }

    /// Assigns a new drain rate to `key`. The caller is responsible for
    /// having advanced to `now` conceptually; this method does it for them.
    pub fn set_rate(&mut self, now: SimTime, key: K, rate: f64) {
        self.advance_to(now);
        assert!(rate >= 0.0 && rate.is_finite(), "invalid rate {rate}");
        let slot = *self.index.get(&key).expect("set_rate on unknown job");
        let job = &mut self.slots[slot];
        Self::settle(self.last, job);
        job.rate = rate;
        self.announce(slot);
    }

    /// Removes a job, returning its remaining work if it was present.
    pub fn remove(&mut self, now: SimTime, key: K) -> Option<f64> {
        self.advance_to(now);
        let slot = *self.index.get(&key)?;
        Self::settle(self.last, &mut self.slots[slot]);
        self.vacate(slot); // the vacated slot keeps its contents until reused
        Some(self.slots[slot].remaining)
    }

    /// Remaining work of a job.
    pub fn remaining(&self, key: K) -> Option<f64> {
        self.index
            .get(&key)
            .map(|&s| self.implied_remaining(&self.slots[s]))
    }

    /// Current drain rate of a job.
    pub fn rate(&self, key: K) -> Option<f64> {
        self.index.get(&key).map(|&s| self.slots[s].rate)
    }

    /// Whether `key` is a live job.
    pub fn contains(&self, key: K) -> bool {
        self.index.contains_key(&key)
    }

    /// Number of live jobs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no jobs remain.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates over live job keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.index.keys().copied()
    }

    /// The earliest time at which some job finishes under current rates,
    /// with its key. Jobs with rate 0 and positive work never finish. Ties
    /// are broken by smallest key.
    ///
    /// The time is the drain time rounded to the nearest nanosecond, which
    /// advancing to is guaranteed to drain the job to within the internal
    /// work epsilon; it never precedes the set's clock.
    pub fn earliest_completion(&self) -> Option<(K, SimTime)> {
        self.heap.first().map(|&s| {
            let job = &self.slots[s];
            (job.key, job.due.max(self.last))
        })
    }

    /// Whether a job counts as finished: fully drained, or within one
    /// nanosecond of draining at its current rate (below clock resolution).
    fn finished_at(remaining: f64, rate: f64) -> bool {
        remaining <= WORK_EPS || remaining <= rate * 1.5e-9
    }

    /// Advances to `now` and removes every job whose announced completion
    /// has come due, returning their keys sorted (deterministic order).
    pub fn take_finished(&mut self, now: SimTime) -> Vec<K> {
        self.advance_to(now);
        let mut done: Vec<K> = Vec::new();
        while let Some(&slot) = self.heap.first() {
            if self.slots[slot].due > now {
                break;
            }
            let job = &mut self.slots[slot];
            Self::settle(now, job);
            if Self::finished_at(job.remaining, job.rate) {
                done.push(job.key);
                self.vacate(slot);
            } else {
                // Rounding left residual work (possible only when the rate
                // dropped between announce and due time in the same
                // nanosecond); re-announce from the settled state.
                self.announce(slot);
            }
        }
        done.sort_unstable();
        done
    }

    /// Current virtual time of the set (time of the last advance).
    pub fn now(&self) -> SimTime {
        self.last
    }

    /// Completion-heap entries currently held: one per announced job — an
    /// implementation detail exposed for memory-bound regression tests.
    pub fn completion_heap_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn single_job_completes_at_work_over_rate() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 1000.0);
        ps.set_rate(SimTime::ZERO, 1, 1000.0); // 1000 units/s -> 1 s
        let (k, when) = ps.earliest_completion().unwrap();
        assert_eq!(k, 1);
        assert_eq!(when, t(1_000_000_000));
        let done = ps.take_finished(when);
        assert_eq!(done, vec![1]);
        assert!(ps.is_empty());
    }

    #[test]
    fn rate_change_midway() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 7u32, 100.0);
        ps.set_rate(SimTime::ZERO, 7, 100.0); // would finish at 1s
        ps.set_rate(t(500_000_000), 7, 50.0); // half done, half rate
        let (_, when) = ps.earliest_completion().unwrap();
        assert_eq!(when, t(1_500_000_000));
    }

    #[test]
    fn zero_rate_never_finishes() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 5.0);
        assert!(ps.earliest_completion().is_none());
    }

    #[test]
    fn zero_work_finishes_immediately() {
        let mut ps = ProgressSet::new();
        ps.insert(t(10), 1u32, 0.0);
        let (k, when) = ps.earliest_completion().unwrap();
        assert_eq!((k, when), (1, t(10)));
    }

    #[test]
    fn completion_tie_breaks_by_key() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 9u32, 100.0);
        ps.insert(SimTime::ZERO, 3u32, 100.0);
        ps.set_rate(SimTime::ZERO, 9, 100.0);
        ps.set_rate(SimTime::ZERO, 3, 100.0);
        let (k, _) = ps.earliest_completion().unwrap();
        assert_eq!(k, 3);
        let done = ps.take_finished(t(1_000_000_000));
        assert_eq!(done, vec![3, 9]);
    }

    #[test]
    fn remove_returns_remaining() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 100.0);
        ps.set_rate(SimTime::ZERO, 1, 100.0);
        let rem = ps.remove(t(250_000_000), 1).unwrap();
        assert!((rem - 75.0).abs() < 1e-6, "rem = {rem}");
        assert!(ps.remove(t(250_000_000), 1).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_key_panics() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 1.0);
        ps.insert(SimTime::ZERO, 1u32, 1.0);
    }

    #[test]
    fn rounding_up_guarantees_completion() {
        let mut ps = ProgressSet::new();
        // Work/rate chosen so work/rate is not an integer number of ns.
        ps.insert(SimTime::ZERO, 1u32, 1.0);
        ps.set_rate(SimTime::ZERO, 1, 3.0);
        let (_, when) = ps.earliest_completion().unwrap();
        let done = ps.take_finished(when);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn stale_announcements_do_not_resurrect_jobs() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 100.0);
        ps.set_rate(SimTime::ZERO, 1, 100.0); // announced at 1s
        ps.set_rate(t(100_000_000), 1, 0.0); // stalled; announcement stale
        assert!(ps.earliest_completion().is_none());
        assert!(ps.take_finished(t(2_000_000_000)).is_empty());
        assert!((ps.remaining(1).unwrap() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn lazy_advance_does_not_scan_jobs() {
        // Many stalled jobs; advancing and completing one job must not
        // disturb the others' remaining work.
        let mut ps = ProgressSet::new();
        for i in 0..1000u32 {
            ps.insert(SimTime::ZERO, i, 1000.0);
        }
        ps.set_rate(SimTime::ZERO, 500, 1000.0);
        let (k, when) = ps.earliest_completion().unwrap();
        assert_eq!(k, 500);
        assert_eq!(ps.take_finished(when), vec![500]);
        for i in (0..1000u32).filter(|&i| i != 500) {
            assert_eq!(ps.remaining(i), Some(1000.0));
        }
    }

    #[test]
    fn clone_after_churn_is_compact_and_behaves_identically() {
        let mut ps = ProgressSet::new();
        for i in 0..8u32 {
            ps.insert(SimTime::ZERO, i, 1e6);
        }
        // Churn rates: each change re-sifts the job's one heap entry.
        for round in 0..1_000u64 {
            ps.set_rate(t(round), (round % 8) as u32, 1.0 + (round % 5) as f64);
        }
        let mut copy = ps.clone();
        assert_eq!(copy.completion_heap_len(), copy.len());
        // Identical evolution: same completions at the same instants.
        for step in 0..50u64 {
            let now = t(10_000 + step * 1_000_000_000);
            assert_eq!(ps.earliest_completion(), copy.earliest_completion());
            assert_eq!(ps.take_finished(now), copy.take_finished(now));
        }
        // Divergence after the copy stays independent.
        let first = ps.keys().next();
        if let Some(k) = first {
            ps.remove(t(1e18 as u64), k);
            assert_eq!(copy.len(), ps.len() + 1);
        }
    }

    #[test]
    fn queries_mirror_set_state() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 3u32, 100.0);
        ps.insert(SimTime::ZERO, 7u32, 100.0);
        ps.set_rate(SimTime::ZERO, 7, 50.0);
        assert_eq!(ps.len(), 2);
        assert!(!ps.is_empty());
        assert!(ps.contains(3) && ps.contains(7) && !ps.contains(9));
        assert_eq!(ps.remaining(7), Some(100.0));
        assert_eq!(ps.rate(7), Some(50.0));
        assert_eq!(ps.rate(3), Some(0.0));
        let mut keys: Vec<u32> = ps.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![3, 7]);
    }

    #[test]
    fn earliest_completion_skips_stalled_and_rerated_jobs() {
        let mut ps = ProgressSet::new();
        assert_eq!(ps.earliest_completion(), None);
        ps.insert(SimTime::ZERO, 9u32, 100.0);
        ps.insert(SimTime::ZERO, 3u32, 100.0);
        ps.insert(SimTime::ZERO, 5u32, 100.0);
        ps.set_rate(SimTime::ZERO, 9, 100.0);
        ps.set_rate(SimTime::ZERO, 3, 100.0);
        // Job 5 is announced, then stalled: its entry must leave the heap.
        ps.set_rate(SimTime::ZERO, 5, 10.0);
        ps.set_rate(t(1), 5, 0.0);
        assert_eq!(ps.completion_heap_len(), 2);
        assert_eq!(ps.earliest_completion(), Some((3, t(1_000_000_000))));
        // A stalled-only set announces nothing.
        let mut stalled = ProgressSet::new();
        stalled.insert(SimTime::ZERO, 1u32, 5.0);
        assert_eq!(stalled.earliest_completion(), None);
        assert_eq!(stalled.completion_heap_len(), 0);
    }

    #[test]
    fn earliest_completion_clamps_overdue_completions_to_now() {
        let mut ps = ProgressSet::new();
        ps.insert(SimTime::ZERO, 1u32, 100.0);
        ps.set_rate(SimTime::ZERO, 1, 100.0); // finishes at 1s
                                              // Advance past the completion without collecting it: the reported
                                              // time must clamp to `now`, never lie in the past.
        ps.advance_to(t(2_000_000_000));
        assert_eq!(ps.earliest_completion(), Some((1, t(2_000_000_000))));
    }

    #[test]
    fn earliest_completion_tracks_announcements_under_heavy_churn() {
        let mut ps = ProgressSet::new();
        for i in 0..4u32 {
            ps.insert(SimTime::ZERO, i, 1000.0);
        }
        let mut due = [None; 4];
        for round in 0..64u64 {
            let now = t(round);
            let k = (round % 4) as u32;
            let rate = 1.0 + (round % 7) as f64;
            ps.set_rate(now, k, rate);
            // Reference announcement, rounded through libm.
            let ns = (ps.remaining(k).unwrap() / rate * 1e9).round().max(1.0);
            due[k as usize] = Some((now + SimDuration::from_nanos(ns as u64), k));
            let want = due.iter().flatten().min().map(|&(d, k)| (k, d));
            assert_eq!(ps.earliest_completion(), want, "round {round}");
        }
    }

    #[test]
    fn integer_round_matches_libm_round() {
        use simrng::{Rng, Xoshiro256};
        let libm = |x: f64| {
            let r = x.round().max(1.0);
            (r < u64::MAX as f64).then_some(r as u64)
        };
        let two_52 = 4_503_599_627_370_496.0_f64;
        let mut xs = vec![
            0.0,
            1e-300,
            0.25,
            0.5,
            0.49999999999999994,
            0.9999999999999999,
            1.5,
            2.5,
            2.4999999999999996,
            2.5000000000000004,
            1234567.5,
            1234567.4999999998,
            two_52 - 0.5,
            two_52 - 1.5,
            two_52,
            two_52 + 2.0,
            3.0 * two_52,
            1.8e19,
            18_446_744_073_709_549_568.0, // largest double below 2^64
            18_446_744_073_709_551_616.0, // 2^64
            1e300,
            f64::INFINITY,
        ];
        let mut rng = Xoshiro256::seed_from_u64(0x20D);
        for _ in 0..10_000 {
            let x = rng.gen_range_f64(0.0, 1.0);
            xs.push(x);
            xs.push(x * 1e9);
            xs.push((x * 1e6).floor() + 0.5);
        }
        for x in xs {
            assert_eq!(round_ns(x), libm(x), "x = {x:e}");
        }
        // [0, 1) clamps to one nanosecond.
        assert_eq!(round_ns(0.0), Some(1));
        assert_eq!(round_ns(0.7), Some(1));
    }

    #[test]
    fn completion_heap_is_bounded_under_rate_churn() {
        let mut ps = ProgressSet::new();
        for i in 0..8u32 {
            ps.insert(SimTime::ZERO, i, 1e12);
        }
        for round in 0..100_000u64 {
            let now = t(round);
            ps.set_rate(now, (round % 8) as u32, 1.0 + (round % 13) as f64);
            assert!(
                ps.completion_heap_len() <= ps.len(),
                "completion heap outgrew the job set: {} entries for {} jobs",
                ps.completion_heap_len(),
                ps.len()
            );
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use simrng::{Rng, Xoshiro256};

    /// Splitting an advance into arbitrary sub-steps conserves work.
    #[test]
    fn advance_is_additive() {
        let mut rng = Xoshiro256::seed_from_u64(0xA11D);
        for case in 0..256 {
            let work = rng.gen_range_f64(1.0, 1e6);
            let rate = rng.gen_range_f64(0.1, 1e6);
            let cut = rng.gen_range_u64(1, 999);
            let total = SimDuration::from_millis(1000);
            let mid = SimDuration::from_millis(cut);

            let mut one = ProgressSet::new();
            one.insert(SimTime::ZERO, 0u32, work);
            one.set_rate(SimTime::ZERO, 0, rate);
            one.advance_to(SimTime::ZERO + total);

            let mut two = ProgressSet::new();
            two.insert(SimTime::ZERO, 0u32, work);
            two.set_rate(SimTime::ZERO, 0, rate);
            two.advance_to(SimTime::ZERO + mid);
            two.advance_to(SimTime::ZERO + total);

            let a = one.remaining(0).unwrap();
            let b = two.remaining(0).unwrap();
            assert!(
                (a - b).abs() <= 1e-6 * work.max(1.0),
                "case {case}: split advance diverged: {a} vs {b}"
            );
        }
    }

    /// Completion always happens when the engine advances to the announced
    /// completion time, for arbitrary work/rate pairs.
    #[test]
    fn announced_completion_completes() {
        let mut rng = Xoshiro256::seed_from_u64(0xC0DE);
        for case in 0..256 {
            let work = rng.gen_range_f64(1e-3, 1e9);
            let rate = rng.gen_range_f64(1e-3, 1e9);
            let mut ps = ProgressSet::new();
            ps.insert(SimTime::ZERO, 0u32, work);
            ps.set_rate(SimTime::ZERO, 0, rate);
            if let Some((_, when)) = ps.earliest_completion() {
                let done = ps.take_finished(when);
                assert_eq!(done, vec![0], "case {case}: work {work}, rate {rate}");
            }
        }
    }

    /// Remaining work is monotonically non-increasing under advances.
    #[test]
    fn remaining_monotone() {
        let mut rng = Xoshiro256::seed_from_u64(0x310);
        for case in 0..256 {
            let work = rng.gen_range_f64(1.0, 1e6);
            let rate = rng.gen_range_f64(0.0, 1e6);
            let steps = 1 + rng.gen_index(19);
            let mut ps = ProgressSet::new();
            ps.insert(SimTime::ZERO, 0u32, work);
            ps.set_rate(SimTime::ZERO, 0, rate);
            let mut now = SimTime::ZERO;
            let mut prev = work;
            for _ in 0..steps {
                now += SimDuration::from_nanos(rng.gen_range_u64(1, 1_000_000));
                ps.advance_to(now);
                let r = ps.remaining(0).unwrap();
                assert!(r <= prev + 1e-9, "case {case}: remaining grew");
                assert!(r >= 0.0);
                prev = r;
            }
        }
    }

    /// The lazy implementation agrees with an eager reference model that
    /// drains every job at every advance, over random operation sequences.
    /// The model also tracks each job's announced completion (recomputed
    /// through libm rounding), and `earliest_completion` must name the
    /// minimum `(due, key)` of that scan — with zero-work jobs and
    /// identical work/rate pairs supplying plenty of ties.
    #[test]
    fn lazy_matches_eager_reference() {
        #[derive(Clone, Copy)]
        struct Ref {
            remaining: f64,
            rate: f64,
            due: Option<SimTime>,
        }
        fn ref_due(now: SimTime, remaining: f64, rate: f64) -> Option<SimTime> {
            if remaining <= WORK_EPS || remaining <= rate * 1.5e-9 {
                Some(now)
            } else if rate > 0.0 {
                let ns = (remaining / rate * 1e9).round().max(1.0);
                (ns < u64::MAX as f64).then(|| now + SimDuration::from_nanos(ns as u64))
            } else {
                None
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(0x1A2);
        for case in 0..128 {
            let mut ps: ProgressSet<u32> = ProgressSet::new();
            let mut model: std::collections::BTreeMap<u32, Ref> = Default::default();
            let mut now = SimTime::ZERO;
            let mut next_key = 0u32;
            for _ in 0..200 {
                let op = rng.gen_index(6);
                match op {
                    0 | 4 => {
                        // Op 4 draws tie-prone work: none at all, or 1000.
                        let work = if op == 0 {
                            rng.gen_range_f64(0.5, 1e4)
                        } else {
                            1000.0 * rng.gen_index(2) as f64
                        };
                        ps.insert(now, next_key, work);
                        model.insert(
                            next_key,
                            Ref {
                                remaining: work,
                                rate: 0.0,
                                due: ref_due(now, work, 0.0),
                            },
                        );
                        next_key += 1;
                    }
                    1 | 5 if !model.is_empty() => {
                        let keys: Vec<u32> = model.keys().copied().collect();
                        let k = keys[rng.gen_index(keys.len())];
                        let rate = if op == 1 {
                            rng.gen_range_f64(0.0, 1e4)
                        } else {
                            [500.0, 1000.0][rng.gen_index(2)]
                        };
                        ps.set_rate(now, k, rate);
                        let settled = ps.remaining(k).unwrap();
                        let r = model.get_mut(&k).unwrap();
                        r.rate = rate;
                        r.due = ref_due(now, settled, rate);
                    }
                    2 if !model.is_empty() => {
                        let keys: Vec<u32> = model.keys().copied().collect();
                        let k = keys[rng.gen_index(keys.len())];
                        let got = ps.remove(now, k).unwrap();
                        let want = model.remove(&k).unwrap().remaining;
                        assert!(
                            (got - want).abs() <= 1e-6 * want.max(1.0) + 1e-6,
                            "case {case}: remove({k}) = {got}, want {want}"
                        );
                    }
                    _ => {
                        let dt = rng.gen_range_u64(1, 500_000_000);
                        let dt_secs = dt as f64 / 1e9;
                        now += SimDuration::from_nanos(dt);
                        for r in model.values_mut() {
                            r.remaining = (r.remaining - r.rate * dt_secs).max(0.0);
                        }
                        for k in ps.take_finished(now) {
                            let r = model.remove(&k).unwrap();
                            assert!(
                                r.due.is_some_and(|d| d <= now),
                                "case {case}: {k} completed before its announcement"
                            );
                            assert!(
                                r.remaining <= WORK_EPS.max(r.rate * 3e-9) + 1e-6,
                                "case {case}: premature completion of {k}: {} left",
                                r.remaining
                            );
                        }
                        // Survivors that came due held residual work and
                        // were re-announced from their settled state.
                        for (&k, r) in &mut model {
                            if r.due.is_some_and(|d| d <= now) {
                                r.due = ref_due(now, ps.remaining(k).unwrap(), r.rate);
                            }
                        }
                    }
                }
                for (&k, r) in &model {
                    let got = ps.remaining(k).unwrap();
                    assert!(
                        (got - r.remaining).abs() <= 1e-6 * r.remaining.max(1.0) + 1e-5,
                        "case {case}: remaining({k}) = {got}, want {}",
                        r.remaining
                    );
                }
                let want = model
                    .iter()
                    .filter_map(|(&k, r)| r.due.map(|d| (d, k)))
                    .min()
                    .map(|(d, k)| (k, d.max(now)));
                assert_eq!(ps.earliest_completion(), want, "case {case}");
            }
        }
    }
}
