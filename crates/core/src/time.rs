//! The time domain `T` and closed-open periods.
//!
//! Following §2.2, temporal tuples carry fixed-width periods `[T1, T2)` and
//! every operation definition refers only to period *endpoints*, which makes
//! the algebra independent of the granularity of time (months in the paper's
//! example, but any discrete, totally ordered domain works).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use crate::error::{Error, Result};

/// An instant of the discrete time domain `T`.
pub type Instant = i64;

/// Smallest representable instant ("beginning of time").
pub const TIME_MIN: Instant = i64::MIN / 4;
/// Largest representable instant ("forever"). Kept away from `i64::MAX` so
/// endpoint arithmetic cannot overflow.
pub const TIME_MAX: Instant = i64::MAX / 4;

/// A closed-open time period `[start, end)`.
///
/// The invariant `start <= end` is maintained by all constructors; a period
/// with `start == end` is *empty* (contains no instants) and never appears in
/// a valid temporal relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Period {
    /// Inclusive start instant.
    pub start: Instant,
    /// Exclusive end instant.
    pub end: Instant,
}

impl Period {
    /// Construct a period, validating `start <= end`.
    pub fn new(start: Instant, end: Instant) -> Result<Period> {
        if start > end {
            Err(Error::InvalidPeriod { start, end })
        } else {
            Ok(Period { start, end })
        }
    }

    /// Construct a period; panics if `start > end`. For literals in tests and
    /// examples where the bounds are statically evident.
    pub fn of(start: Instant, end: Instant) -> Period {
        Period::new(start, end).expect("period start must not exceed end")
    }

    /// The period spanning all of time.
    pub fn always() -> Period {
        Period {
            start: TIME_MIN,
            end: TIME_MAX,
        }
    }

    /// True when the period contains no instants.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Number of instants in the period.
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }

    /// True when instant `t` lies within `[start, end)`.
    pub fn contains(&self, t: Instant) -> bool {
        self.start <= t && t < self.end
    }

    /// True when the two periods share at least one instant.
    pub fn overlaps(&self, other: &Period) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// True when the two periods are adjacent (meet exactly, in either
    /// direction) without overlapping. This is the merge condition of the
    /// paper's *minimal* coalescing operation (§2.4): value-equivalent tuples
    /// with adjacent periods are merged; overlap handling is `rdupᵀ`'s job.
    pub fn adjacent(&self, other: &Period) -> bool {
        self.end == other.start || other.end == self.start
    }

    /// Intersection, or `None` when the periods do not overlap.
    pub fn intersect(&self, other: &Period) -> Option<Period> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Period { start, end })
        } else {
            None
        }
    }

    /// The smallest period covering both arguments (used by merging).
    pub fn hull(&self, other: &Period) -> Period {
        Period {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Merge with an adjacent period. Returns `None` when not adjacent.
    pub fn merge_adjacent(&self, other: &Period) -> Option<Period> {
        if self.adjacent(other) {
            Some(self.hull(other))
        } else {
            None
        }
    }

    /// Temporal subtraction `self − other`: zero, one, or two periods, in
    /// chronological order. This is the period arithmetic behind `\ᵀ` and the
    /// `Changeᵀ` step of the paper's `rdupᵀ` definition (§2.5), which notes
    /// the result "can contain zero, one, or two tuples".
    pub fn subtract(&self, other: &Period) -> Vec<Period> {
        if !self.overlaps(other) {
            return vec![*self];
        }
        let mut out = Vec::with_capacity(2);
        if self.start < other.start {
            out.push(Period {
                start: self.start,
                end: other.start,
            });
        }
        if other.end < self.end {
            out.push(Period {
                start: other.end,
                end: self.end,
            });
        }
        out
    }
}

impl fmt::Display for Period {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// The instants claimed so far by one value-equivalence class, as sorted,
/// disjoint, non-touching intervals (`start → end`).
///
/// [`Coverage::claim`] is the whole of the class-wise `rdupᵀ`: the paper's
/// head/tail recursion leaves, for each tuple in list order, its period
/// minus the union of the *earlier* periods of its class, fragments in
/// chronological order — so each tuple claims what is still free and the
/// rest of its period is already someone else's. Every stored interval is
/// removed at most once after it is inserted, so `n` claims cost
/// `O(n log n)`.
#[derive(Debug, Default, Clone)]
pub struct Coverage {
    claimed: BTreeMap<Instant, Instant>,
}

impl Coverage {
    /// Nothing claimed yet.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Claim `period`: call `emit` on each maximal part of it that no
    /// earlier claim covers, in chronological order, then mark the whole
    /// period claimed.
    pub fn claim(&mut self, period: Period, mut emit: impl FnMut(Period)) {
        let Period { start, end } = period;
        if start >= end {
            return;
        }
        // `free` is where the unexamined remainder of the period begins;
        // `merged` grows into the one interval that replaces every stored
        // interval the period overlaps or touches.
        let mut free = start;
        let mut merged = period;
        if let Some((&s, &e)) = self.claimed.range(..=start).next_back() {
            if e >= start {
                self.claimed.remove(&s);
                free = e;
                merged = Period::of(s, e.max(end));
            }
        }
        let absorbed: Vec<(Instant, Instant)> = self
            .claimed
            .range((Bound::Excluded(start), Bound::Included(end)))
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in absorbed {
            if free < s {
                emit(Period::of(free, s));
            }
            free = e;
            merged.end = merged.end.max(e);
            self.claimed.remove(&s);
        }
        if free < end {
            emit(Period::of(free, end));
        }
        self.claimed.insert(merged.start, merged.end);
    }
}

/// A step function over time built from weighted period endpoints; used to
/// implement the snapshot-reducible operations (`\ᵀ`, `ξᵀ`, `∪ᵀ`, `rdupᵀ`
/// checks) exactly: at every instant the count of a value-equivalence class
/// is the sum of weights of periods containing that instant.
#[derive(Debug, Default, Clone)]
pub struct CountTimeline {
    /// (instant, delta) events.
    events: Vec<(Instant, i64)>,
}

impl CountTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        CountTimeline::default()
    }

    /// Add `weight` over `period`.
    pub fn add(&mut self, period: Period, weight: i64) {
        if period.is_empty() || weight == 0 {
            return;
        }
        self.events.push((period.start, weight));
        self.events.push((period.end, -weight));
    }

    /// Sweep the timeline producing maximal constant intervals with their
    /// counts; intervals with count zero are skipped. Output is sorted and
    /// disjoint (adjacent intervals have different counts). The events are
    /// sorted in place, not copied.
    pub fn constant_intervals(&mut self) -> Vec<(Period, i64)> {
        if self.events.is_empty() {
            return Vec::new();
        }
        self.events.sort_unstable();
        let events = &self.events;
        let mut out: Vec<(Period, i64)> = Vec::new();
        let mut count: i64 = 0;
        let mut prev: Instant = events[0].0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            if t != prev && count != 0 {
                // Merge with previous interval if it continues with the same
                // count (keeps output minimal).
                match out.last_mut() {
                    Some((p, c)) if *c == count && p.end == prev => p.end = t,
                    _ => out.push((
                        Period {
                            start: prev,
                            end: t,
                        },
                        count,
                    )),
                }
            }
            let mut delta = 0;
            while i < events.len() && events[i].0 == t {
                delta += events[i].1;
                i += 1;
            }
            count += delta;
            prev = t;
        }
        debug_assert_eq!(count, 0, "timeline weights must cancel");
        out
    }
}

/// The members alive during an [`EndpointSweep`], told as they come and go.
pub trait LiveSet {
    /// Member `id`'s period begins.
    fn enter(&mut self, id: u32);
    /// Member `id`'s period ends.
    fn leave(&mut self, id: u32);
}

/// The constant-interval sweep under `ξᵀ`: one group's periods split at
/// every distinct endpoint — an empty period's too, whatever the live set
/// does there — with one interval reported per split on which some member
/// is live, in chronological order. Gaps report nothing. Sorting the
/// endpoints once makes a sweep `O(n log n)` plus the [`LiveSet`]'s work;
/// the buffers are kept for the next group.
#[derive(Debug, Default)]
pub struct EndpointSweep {
    members: Vec<(u32, Period)>,
    /// Events packed as `(instant − first) << 32 | tag`, when the group's
    /// endpoints span less than 2³² — one `u64` compare per sort step.
    packed: Vec<u64>,
    /// `(instant, tag)` events of a group spanning more.
    wide: Vec<(Instant, u32)>,
}

/// An event's tag: `index << 2 | what`, the member's index in the sweep's
/// input and what happens at the instant. A group has fewer than 2³⁰
/// members (its rows are `u32` ids, and memory ends far sooner).
const LEAVE: u32 = 0;
const ENTER: u32 = 1;
const SPLIT: u32 = 2;

impl EndpointSweep {
    /// Sweep `members` — `(id, period)` pairs, read in full (the first
    /// error reading one ends the sweep before it starts) — through
    /// `live`, calling `emit` with the live set and each interval on which
    /// it is not empty.
    pub fn run<S: LiveSet>(
        &mut self,
        members: impl IntoIterator<Item = Result<(u32, Period)>>,
        live: &mut S,
        emit: impl FnMut(&S, Period) -> Result<()>,
    ) -> Result<()> {
        self.members.clear();
        for member in members {
            self.members.push(member?);
        }
        let Some(first) = self.members.iter().map(|(_, p)| p.start).min() else {
            return Ok(());
        };
        let last = self
            .members
            .iter()
            .map(|(_, p)| p.end)
            .max()
            .unwrap_or(first);
        if (last as u64).wrapping_sub(first as u64) < 1 << 32 {
            let packed = &mut self.packed;
            packed.clear();
            push_events(&self.members, |at, tag| {
                packed.push((at as u64).wrapping_sub(first as u64) << 32 | tag as u64)
            });
            packed.sort_unstable();
            let event = |k: usize| {
                let key = packed[k];
                (first.wrapping_add((key >> 32) as i64), key as u32)
            };
            walk(packed.len(), event, &self.members, live, emit)
        } else {
            let wide = &mut self.wide;
            wide.clear();
            push_events(&self.members, |at, tag| wide.push((at, tag)));
            wide.sort_unstable_by_key(|&(at, _)| at);
            walk(wide.len(), |k| wide[k], &self.members, live, emit)
        }
    }
}

/// Every member's events: its start and end, or a split for an empty period.
fn push_events(members: &[(u32, Period)], mut push: impl FnMut(Instant, u32)) {
    for (i, (_, p)) in members.iter().enumerate() {
        let i = (i as u32) << 2;
        if p.is_empty() {
            push(p.start, i | SPLIT);
        } else {
            push(p.start, i | ENTER);
            push(p.end, i | LEAVE);
        }
    }
}

/// Apply the `n` sorted `(instant, tag)` events to `live`, emitting each
/// interval between consecutive distinct instants on which a member is
/// live.
fn walk<S: LiveSet>(
    n: usize,
    event: impl Fn(usize) -> (Instant, u32),
    members: &[(u32, Period)],
    live: &mut S,
    mut emit: impl FnMut(&S, Period) -> Result<()>,
) -> Result<()> {
    let mut alive = 0usize;
    let mut k = 0;
    while k < n {
        let (at, _) = event(k);
        let mut next = at;
        while k < n {
            let (t, tag) = event(k);
            if t != at {
                next = t;
                break;
            }
            let id = members[(tag >> 2) as usize].0;
            match tag & 3 {
                ENTER => {
                    live.enter(id);
                    alive += 1;
                }
                LEAVE => {
                    live.leave(id);
                    alive -= 1;
                }
                _ => {}
            }
            k += 1;
        }
        // A live member ends at a later endpoint, so `next` is one.
        if alive > 0 {
            emit(live, Period::of(at, next))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_order() {
        assert!(Period::new(3, 1).is_err());
        assert!(Period::new(1, 1).unwrap().is_empty());
        assert!(!Period::of(1, 2).is_empty());
    }

    #[test]
    fn containment_is_closed_open() {
        let p = Period::of(2, 5);
        assert!(!p.contains(1));
        assert!(p.contains(2));
        assert!(p.contains(4));
        assert!(!p.contains(5));
    }

    #[test]
    fn overlap_and_adjacency_are_disjoint_notions() {
        let a = Period::of(1, 4);
        let b = Period::of(4, 7);
        assert!(!a.overlaps(&b));
        assert!(a.adjacent(&b));
        assert!(b.adjacent(&a));
        let c = Period::of(3, 5);
        assert!(a.overlaps(&c));
        assert!(!a.adjacent(&c));
    }

    #[test]
    fn intersection() {
        assert_eq!(
            Period::of(1, 5).intersect(&Period::of(3, 8)),
            Some(Period::of(3, 5))
        );
        assert_eq!(Period::of(1, 3).intersect(&Period::of(3, 8)), None);
    }

    #[test]
    fn subtract_produces_zero_one_or_two_pieces() {
        let p = Period::of(1, 10);
        assert_eq!(p.subtract(&Period::of(1, 10)), vec![]);
        assert_eq!(p.subtract(&Period::of(0, 4)), vec![Period::of(4, 10)]);
        assert_eq!(p.subtract(&Period::of(7, 12)), vec![Period::of(1, 7)]);
        assert_eq!(
            p.subtract(&Period::of(3, 6)),
            vec![Period::of(1, 3), Period::of(6, 10)]
        );
        assert_eq!(p.subtract(&Period::of(10, 12)), vec![p]);
    }

    #[test]
    fn paper_figure3_fragment() {
        // John [6,11) minus John [1,8) leaves [8,11) — Figure 3's R3.
        assert_eq!(
            Period::of(6, 11).subtract(&Period::of(1, 8)),
            vec![Period::of(8, 11)]
        );
    }

    #[test]
    fn timeline_counts() {
        let mut tl = CountTimeline::new();
        tl.add(Period::of(1, 5), 1);
        tl.add(Period::of(3, 8), 1);
        let got = tl.constant_intervals();
        assert_eq!(
            got,
            vec![
                (Period::of(1, 3), 1),
                (Period::of(3, 5), 2),
                (Period::of(5, 8), 1),
            ]
        );
    }

    #[test]
    fn timeline_merges_equal_counts() {
        let mut tl = CountTimeline::new();
        tl.add(Period::of(1, 4), 1);
        tl.add(Period::of(4, 9), 1);
        assert_eq!(tl.constant_intervals(), vec![(Period::of(1, 9), 1)]);
    }

    #[test]
    fn timeline_negative_weights() {
        let mut tl = CountTimeline::new();
        tl.add(Period::of(1, 9), 2);
        tl.add(Period::of(3, 6), -3);
        let got = tl.constant_intervals();
        assert_eq!(
            got,
            vec![
                (Period::of(1, 3), 2),
                (Period::of(3, 6), -1),
                (Period::of(6, 9), 2),
            ]
        );
    }

    /// The live ids, in the order they entered.
    #[derive(Default)]
    struct Ids(Vec<u32>);

    impl LiveSet for Ids {
        fn enter(&mut self, id: u32) {
            self.0.push(id);
        }
        fn leave(&mut self, id: u32) {
            self.0.retain(|&i| i != id);
        }
    }

    #[test]
    fn endpoint_sweep_splits_at_every_endpoint_and_skips_gaps() {
        // `far` pushes the group's span past 2³², off the packed path.
        for far in [0, 1 << 40] {
            let members = [
                (10, Period::of(0, 4)),
                (11, Period::of(2, 2)), // empty: only splits
                (12, Period::of(6, 8 + far)),
                (13, Period::of(0, 2)),
            ];
            let mut got = Vec::new();
            EndpointSweep::default()
                .run(members.map(Ok), &mut Ids::default(), |live, p| {
                    let mut ids = live.0.clone();
                    ids.sort_unstable();
                    got.push((p, ids));
                    Ok(())
                })
                .unwrap();
            assert_eq!(
                got,
                vec![
                    (Period::of(0, 2), vec![10, 13]),
                    (Period::of(2, 4), vec![10]),
                    (Period::of(6, 8 + far), vec![12]),
                ],
                "span {far}"
            );
        }
    }

    #[test]
    fn endpoint_sweep_stops_at_the_first_unreadable_member() {
        let members = [
            Ok((1, Period::of(0, 4))),
            Err(Error::InvalidPeriod { start: 5, end: 3 }),
        ];
        let result = EndpointSweep::default().run(members, &mut Ids::default(), |_, _| {
            panic!("nothing is swept before every member is read")
        });
        assert_eq!(result, Err(Error::InvalidPeriod { start: 5, end: 3 }));
    }
}
