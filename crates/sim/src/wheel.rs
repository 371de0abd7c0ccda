//! A hierarchical timing wheel: O(1)-amortized deadline bookkeeping for
//! many concurrent timers.
//!
//! The Connection Manager tracks one "earliest deadline" per emulated node
//! (a BGP speaker's next hold/keepalive/MRAI expiry, a flow table's next
//! idle/hard timeout). With hundreds of daemons, recomputing the global
//! minimum by scanning every node each engine step is the dominant pump
//! cost; the wheel makes *register / cancel / next-deadline / fire-due*
//! all cheap:
//!
//! * [`TimerWheel::schedule`] — O(1): place the key's deadline into the
//!   slot of the finest level whose window covers it (re-scheduling first
//!   removes the old entry, found by probing the handful of slots its
//!   deadline can map to — no tombstones, no heap churn).
//! * [`TimerWheel::advance`] — amortized O(fired + slots crossed): walk
//!   the slots between the old and new position, firing due entries and
//!   cascading coarse-level entries down.
//! * [`TimerWheel::next_deadline`] — O(levels): per level, a 64-bit
//!   occupancy bitmap gives the first populated slot in visit order; slot
//!   windows partition time, so the earliest populated slot of each level
//!   holds that level's minimum and the answer is the min over levels.
//!
//! Determinism: `advance` returns fired entries sorted by `(deadline,
//! key)`, and all internal containers iterate in deterministic order, so
//! two runs that schedule the same deadlines observe the same fire order.
//! The wheel deliberately coexists with [`crate::EventQueue`]: the queue
//! orders the *engine's* events; the wheel indexes *per-node* deadlines
//! whose owners re-arm constantly (where a heap would churn O(log n) per
//! update and tombstones would accumulate).

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Slots per level; the shift (6 bits) makes slot math masks.
const SLOTS: usize = 64;
const SLOT_BITS: u32 = 6;
/// Hierarchy depth. With the default 1 ms granularity the levels span
/// 64 ms, 4.1 s, 4.4 min and 4.7 h; later deadlines go to the overflow
/// list (rare: protocol timers are seconds-scale).
const LEVELS: usize = 4;

#[derive(Debug, Clone)]
struct Level<K> {
    slots: Vec<Vec<(K, u64)>>,
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occupied: u64,
}

impl<K> Level<K> {
    fn new() -> Level<K> {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }
}

/// A hierarchical timing wheel mapping keys to a single deadline each.
///
/// Re-scheduling a key replaces its previous deadline; [`TimerWheel::advance`]
/// fires every entry whose deadline has been reached and removes it.
#[derive(Debug, Clone)]
pub struct TimerWheel<K> {
    /// Tick width in nanoseconds (level-0 slot width).
    granularity: u64,
    /// Current position: `now / granularity` of the last `advance`.
    cur: u64,
    levels: Vec<Level<K>>,
    /// Deadlines whose tick is ≤ `cur` (scheduled in the past, or landed
    /// on the current tick): fired by the next `advance` that reaches them.
    due: Vec<(K, u64)>,
    /// Deadlines beyond the coarsest level's window.
    overflow: Vec<(K, u64)>,
    /// The authoritative key → deadline map (`len`, exact lookups).
    deadline_of: BTreeMap<K, u64>,
}

impl<K: Ord + Copy> TimerWheel<K> {
    /// A wheel with 1 ms ticks — matched to the default FTI increment, the
    /// natural resolution of control-plane deadlines here.
    pub fn new() -> TimerWheel<K> {
        TimerWheel::with_granularity_ns(1_000_000)
    }

    /// A wheel with explicit tick width (nanoseconds, ≥ 1).
    pub fn with_granularity_ns(granularity: u64) -> TimerWheel<K> {
        assert!(granularity > 0, "granularity must be positive");
        TimerWheel {
            granularity,
            cur: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            due: Vec::new(),
            overflow: Vec::new(),
            deadline_of: BTreeMap::new(),
        }
    }

    /// Number of scheduled keys.
    pub fn len(&self) -> usize {
        self.deadline_of.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.deadline_of.is_empty()
    }

    /// The deadline currently scheduled for `key`, if any.
    pub fn deadline_of(&self, key: K) -> Option<SimTime> {
        self.deadline_of.get(&key).map(|d| SimTime::from_nanos(*d))
    }

    /// Schedules (or re-schedules) `key` to fire at `deadline`. Deadlines
    /// at or before the wheel's current position fire on the next
    /// [`TimerWheel::advance`] that reaches them.
    pub fn schedule(&mut self, key: K, deadline: SimTime) {
        let d = deadline.as_nanos();
        if let Some(old) = self.deadline_of.insert(key, d) {
            if old == d {
                return;
            }
            self.remove_entry(key, old);
        }
        self.place(key, d);
    }

    /// Unschedules `key`. Returns true when it was scheduled.
    pub fn cancel(&mut self, key: K) -> bool {
        match self.deadline_of.remove(&key) {
            Some(old) => {
                self.remove_entry(key, old);
                true
            }
            None => false,
        }
    }

    /// The earliest scheduled deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut best: Option<u64> = None;
        let mut consider = |d: u64| {
            best = Some(match best {
                Some(b) => b.min(d),
                None => d,
            });
        };
        for (k, d) in &self.due {
            debug_assert_eq!(self.deadline_of.get(k), Some(d));
            consider(*d);
        }
        for (l, level) in self.levels.iter().enumerate() {
            if level.occupied == 0 {
                continue;
            }
            // Visit slots in time order starting just after the current
            // position at this level; the first populated slot holds the
            // level's minimum (slot windows partition time).
            let cur_l = self.cur >> (SLOT_BITS * l as u32);
            let first = ((cur_l + 1) % SLOTS as u64) as u32;
            let rotated = level.occupied.rotate_right(first);
            let offset = rotated.trailing_zeros();
            let slot = (first + offset) as usize % SLOTS;
            for (_, d) in &level.slots[slot] {
                consider(*d);
            }
        }
        for (_, d) in &self.overflow {
            consider(*d);
        }
        best.map(SimTime::from_nanos)
    }

    /// Moves the wheel to `now`, returning every entry whose deadline is
    /// ≤ `now`, sorted by `(deadline, key)` and removed from the wheel.
    pub fn advance(&mut self, now: SimTime) -> Vec<(K, SimTime)> {
        let now_ns = now.as_nanos();
        let new = now_ns / self.granularity;
        let mut candidates: Vec<(K, u64)> = Vec::new();
        if new > self.cur {
            for l in 0..LEVELS {
                let shift = SLOT_BITS * l as u32;
                let cur_l = self.cur >> shift;
                let new_l = new >> shift;
                if cur_l == new_l {
                    // No slot boundary crossed at this level, hence none
                    // at any coarser level either.
                    break;
                }
                let level = &mut self.levels[l];
                if new_l - cur_l >= SLOTS as u64 {
                    for s in 0..SLOTS {
                        candidates.append(&mut level.slots[s]);
                    }
                    level.occupied = 0;
                } else {
                    for t in (cur_l + 1)..=new_l {
                        let s = (t as usize) % SLOTS;
                        candidates.append(&mut level.slots[s]);
                        level.occupied &= !(1u64 << s);
                    }
                }
            }
            // Entering a new coarsest-level slot may bring overflow
            // entries into the wheel's window: re-place them all.
            let top_shift = SLOT_BITS * (LEVELS as u32 - 1);
            if (new >> top_shift) != (self.cur >> top_shift) {
                candidates.append(&mut self.overflow);
            }
            self.cur = new;
        }
        // `due` entries are already at or before the current position;
        // fire the reached ones, keep the rest (sub-tick precision).
        let mut still_due = Vec::new();
        for (k, d) in self.due.drain(..) {
            if d <= now_ns {
                candidates.push((k, d));
            } else {
                still_due.push((k, d));
            }
        }
        self.due = still_due;

        let mut fired: Vec<(K, u64)> = Vec::new();
        for (k, d) in candidates {
            debug_assert_eq!(self.deadline_of.get(&k), Some(&d));
            if d <= now_ns {
                self.deadline_of.remove(&k);
                fired.push((k, d));
            } else {
                // Not yet reached: cascade down to its new location.
                self.place(k, d);
            }
        }
        fired.sort_unstable_by_key(|&(k, d)| (d, k));
        fired
            .into_iter()
            .map(|(k, d)| (k, SimTime::from_nanos(d)))
            .collect()
    }

    /// Puts an entry where it belongs relative to the current position.
    fn place(&mut self, key: K, d: u64) {
        match self.location(d) {
            Location::Due => self.due.push((key, d)),
            Location::Slot(l, s) => {
                self.levels[l].slots[s].push((key, d));
                self.levels[l].occupied |= 1u64 << s;
            }
            Location::Overflow => self.overflow.push((key, d)),
        }
    }

    /// Removes a previously placed entry. `due` and `overflow` are
    /// canonical locations; within the levels an entry sits at the level
    /// chosen when it was placed or last cascaded, which may be *coarser*
    /// than what `location` computes against the advanced `cur` (cascading
    /// only moves entries down when their coarse slot is crossed) — so
    /// search from the computed level upward.
    fn remove_entry(&mut self, key: K, d: u64) {
        match self.location(d) {
            Location::Due => {
                if let Some(pos) = self.due.iter().position(|(k, dd)| *k == key && *dd == d) {
                    self.due.swap_remove(pos);
                }
            }
            Location::Slot(l0, _) => {
                let tick = d / self.granularity;
                for l in l0..LEVELS {
                    let s = ((tick >> (SLOT_BITS * l as u32)) as usize) % SLOTS;
                    let slot = &mut self.levels[l].slots[s];
                    if let Some(pos) = slot.iter().position(|(k, dd)| *k == key && *dd == d) {
                        slot.swap_remove(pos);
                        if slot.is_empty() {
                            self.levels[l].occupied &= !(1u64 << s);
                        }
                        return;
                    }
                }
                debug_assert!(false, "scheduled entry missing from wheel");
            }
            Location::Overflow => {
                if let Some(pos) = self
                    .overflow
                    .iter()
                    .position(|(k, dd)| *k == key && *dd == d)
                {
                    self.overflow.swap_remove(pos);
                }
            }
        }
    }

    fn location(&self, d: u64) -> Location {
        let tick = d / self.granularity;
        if tick <= self.cur {
            return Location::Due;
        }
        for l in 0..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let tick_l = tick >> shift;
            let cur_l = self.cur >> shift;
            if tick_l - cur_l < SLOTS as u64 {
                return Location::Slot(l, (tick_l as usize) % SLOTS);
            }
        }
        Location::Overflow
    }
}

impl<K: Ord + Copy> Default for TimerWheel<K> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

enum Location {
    Due,
    Slot(usize, usize),
    Overflow,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(1, ms(30));
        w.schedule(2, ms(10));
        w.schedule(3, ms(20));
        assert_eq!(w.next_deadline(), Some(ms(10)));
        let fired = w.advance(ms(25));
        assert_eq!(fired, vec![(2, ms(10)), (3, ms(20))]);
        assert_eq!(w.next_deadline(), Some(ms(30)));
        assert_eq!(w.advance(ms(30)), vec![(1, ms(30))]);
        assert!(w.is_empty());
    }

    #[test]
    fn reschedule_replaces_and_cancel_removes() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(1, ms(10));
        w.schedule(1, ms(50));
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline(), Some(ms(50)));
        assert!(w.advance(ms(20)).is_empty(), "old deadline must not fire");
        assert!(w.cancel(1));
        assert!(!w.cancel(1));
        assert!(w.advance(ms(100)).is_empty());
    }

    #[test]
    fn cascades_across_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // 10 s = 10 000 ticks: lives at level 2 initially, must cascade
        // down and fire at exactly its deadline.
        w.schedule(7, ms(10_000));
        assert_eq!(w.next_deadline(), Some(ms(10_000)));
        assert!(w.advance(ms(9_999)).is_empty());
        assert_eq!(w.next_deadline(), Some(ms(10_000)));
        assert_eq!(w.advance(ms(10_000)), vec![(7, ms(10_000))]);
    }

    #[test]
    fn big_jump_fires_everything_due() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        for i in 0..100u64 {
            w.schedule(i, ms(i * 37 + 1));
        }
        let fired = w.advance(ms(100 * 37));
        assert_eq!(fired.len(), 100);
        // Sorted by (deadline, key).
        for pair in fired.windows(2) {
            assert!((pair[0].1, pair[0].0) < (pair[1].1, pair[1].0));
        }
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.advance(ms(100));
        w.schedule(1, ms(40));
        assert_eq!(w.next_deadline(), Some(ms(40)));
        assert_eq!(w.advance(ms(100)), vec![(1, ms(40))]);
    }

    #[test]
    fn sub_tick_deadlines_are_exact() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.advance(SimTime::from_nanos(1_000_200));
        // Same 1 ms tick as `cur`, but later than now: must not fire early.
        w.schedule(1, SimTime::from_nanos(1_000_700));
        assert!(w.advance(SimTime::from_nanos(1_000_500)).is_empty());
        assert_eq!(w.next_deadline(), Some(SimTime::from_nanos(1_000_700)));
        assert_eq!(
            w.advance(SimTime::from_nanos(1_000_700)),
            vec![(1, SimTime::from_nanos(1_000_700))]
        );
    }

    #[test]
    fn overflow_beyond_top_level_window() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // 64^4 ms ≈ 4.66 h is past the wheel's window at t=0.
        let far = ms(20_000_000);
        w.schedule(1, far);
        assert_eq!(w.next_deadline(), Some(far));
        assert!(w.advance(ms(19_999_999)).is_empty());
        assert_eq!(w.advance(far), vec![(1, far)]);
    }

    #[test]
    fn next_deadline_is_global_min_across_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.advance(ms(60)); // desync level boundaries from zero
        w.schedule(1, ms(70)); // level 0
        w.schedule(2, ms(200)); // level 1
        w.schedule(3, ms(90_000)); // level 2
        assert_eq!(w.next_deadline(), Some(ms(70)));
        w.cancel(1);
        assert_eq!(w.next_deadline(), Some(ms(200)));
        w.cancel(2);
        assert_eq!(w.next_deadline(), Some(ms(90_000)));
    }

    /// Differential test against a naive BTreeMap model under a
    /// deterministic pseudo-random schedule/cancel/advance workload.
    #[test]
    fn matches_naive_model() {
        let mut w: TimerWheel<u16> = TimerWheel::new();
        let mut model: BTreeMap<u16, u64> = BTreeMap::new();
        let mut now = 0u64;
        let mut rng = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for _ in 0..3000 {
            match next() % 4 {
                0 | 1 => {
                    let key = (next() % 50) as u16;
                    // Mix near, far and past deadlines.
                    let d = match next() % 8 {
                        0 => now.saturating_sub(next() % 5_000_000),
                        1..=5 => now + next() % 80_000_000,
                        _ => now + next() % 20_000_000_000,
                    };
                    w.schedule(key, SimTime::from_nanos(d));
                    model.insert(key, d);
                }
                2 => {
                    let key = (next() % 50) as u16;
                    assert_eq!(w.cancel(key), model.remove(&key).is_some());
                }
                _ => {
                    now += next() % 50_000_000;
                    let fired = w.advance(SimTime::from_nanos(now));
                    let mut expect: Vec<(u16, u64)> = model
                        .iter()
                        .filter(|(_, d)| **d <= now)
                        .map(|(k, d)| (*k, *d))
                        .collect();
                    expect.sort_unstable_by_key(|a| (a.1, a.0));
                    for (k, _) in &expect {
                        model.remove(k);
                    }
                    let got: Vec<(u16, u64)> =
                        fired.iter().map(|(k, d)| (*k, d.as_nanos())).collect();
                    assert_eq!(got, expect, "divergence at now={now}");
                }
            }
            assert_eq!(w.len(), model.len());
            assert_eq!(
                w.next_deadline().map(|d| d.as_nanos()),
                model.values().min().copied()
            );
        }
    }
}
