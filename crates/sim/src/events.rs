//! A deterministic discrete-event queue.
//!
//! Devices, timers and remote machines schedule future work here; the
//! machine run loop drains events whose deadline has passed whenever
//! simulated time advances. Ties are broken by insertion order so runs are
//! fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::hash::FnvHashSet;
use crate::snapshot::{load_new, Sink, Snap, SnapError, SnapReader};
use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

crate::snap_fields! { EventId(_) }

struct Entry<T> {
    at: SimTime,
    seq: u64,
    id: EventId,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events carrying payloads of type `T`.
///
/// # Examples
///
/// ```
/// use svt_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(20), "late");
/// q.schedule(SimTime::from_ns(10), "early");
/// assert_eq!(q.pop_due(SimTime::from_ns(15)).map(|(_, p)| p), Some("early"));
/// assert_eq!(q.pop_due(SimTime::from_ns(15)), None);
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    // FNV-keyed: the live set is touched on every schedule/pop, and ids
    // are trusted sequence numbers, so SipHash buys nothing here.
    live: FnvHashSet<EventId>,
    cancelled: Vec<EventId>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            live: FnvHashSet::default(),
            cancelled: Vec::new(),
        }
    }

    /// Removes `id` from the pending-cancellation list if present.
    /// Out-of-line: cancellations are rare, the empty check in the pop
    /// paths should stay small enough to inline.
    #[cold]
    fn take_cancelled(&mut self, id: EventId) -> bool {
        if let Some(pos) = self.cancelled.iter().position(|c| *c == id) {
            self.cancelled.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Schedules `payload` to fire at instant `at`. Returns a handle that can
    /// later be passed to [`EventQueue::cancel`].
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = EventId(seq);
        self.live.insert(id);
        self.heap.push(Entry {
            at,
            seq,
            id,
            payload,
        });
        id
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        if self.live.remove(&id) {
            self.cancelled.push(id);
        }
    }

    /// Pops the earliest event whose deadline is `<= now`, if any, together
    /// with its deadline. Cancelled events are silently discarded.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        loop {
            let due = matches!(self.heap.peek(), Some(e) if e.at <= now);
            if !due {
                return None;
            }
            let e = self.heap.pop().expect("peeked entry vanished");
            if !self.cancelled.is_empty() && self.take_cancelled(e.id) {
                continue;
            }
            self.live.remove(&e.id);
            return Some((e.at, e.payload));
        }
    }

    /// Pops the earliest event unconditionally (used when a CPU idles and
    /// time jumps forward to the next event). Returns its deadline.
    #[inline]
    pub fn pop_next(&mut self) -> Option<(SimTime, T)> {
        loop {
            let e = self.heap.pop()?;
            if !self.cancelled.is_empty() && self.take_cancelled(e.id) {
                continue;
            }
            self.live.remove(&e.id);
            return Some((e.at, e.payload));
        }
    }

    /// Deadline of the earliest live event, if any.
    #[inline]
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        loop {
            let (is_cancelled, at) = match self.heap.peek() {
                None => return None,
                Some(e) => (
                    !self.cancelled.is_empty() && self.cancelled.contains(&e.id),
                    e.at,
                ),
            };
            if !is_cancelled {
                return Some(at);
            }
            let e = self.heap.pop().expect("peeked entry vanished");
            assert!(
                self.take_cancelled(e.id),
                "entry was cancelled a moment ago"
            );
        }
    }

    /// Deadline and a view of the payload of the earliest live event,
    /// without removing it. The SMP scheduler uses this to decide which
    /// vCPU a pending event belongs to before committing to popping it.
    pub fn peek_next(&mut self) -> Option<(SimTime, &T)> {
        self.next_deadline()?;
        self.heap.peek().map(|e| (e.at, &e.payload))
    }

    /// Total events ever scheduled on this queue — live, fired or
    /// cancelled. The wall-clock self-benchmark uses this as the
    /// simulator's unit of work.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Number of live scheduled events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Entries are written in `seq` order (unique, total) and the id sets
/// sorted, so identical queues serialize identically regardless of heap
/// layout; the rebuilt heap pops in exactly the original order, since
/// ordering is `(at, seq)`.
impl<T: Snap + Default> Snap for EventQueue<T> {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let EventQueue {
            heap,
            next_seq,
            live,
            cancelled,
        } = self;
        next_seq.save(w);
        let mut entries: Vec<&Entry<T>> = heap.iter().collect();
        entries.sort_by_key(|e| e.seq);
        entries.len().save(w);
        for e in entries {
            (e.at, e.seq, e.id).save(w);
            e.payload.save(w);
        }
        live.save(w);
        let mut cancelled = cancelled.clone();
        cancelled.sort_unstable();
        cancelled.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_seq.load(r)?;
        let entries = load_new::<Vec<(SimTime, u64, EventId, T)>>(r)?.into_iter();
        self.heap = entries
            .map(|(at, seq, id, payload)| Entry {
                at,
                seq,
                id,
                payload,
            })
            .collect();
        self.live.load(r)?;
        self.cancelled.load(r)
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let now = SimTime::from_ns(100);
        assert_eq!(q.pop_due(now), Some((SimTime::from_ns(10), 1)));
        assert_eq!(q.pop_due(now), Some((SimTime::from_ns(20), 2)));
        assert_eq!(q.pop_due(now), Some((SimTime::from_ns(30), 3)));
        assert_eq!(q.pop_due(now), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.pop_due(t).map(|(_, p)| p), Some("a"));
        assert_eq!(q.pop_due(t).map(|(_, p)| p), Some("b"));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(50), ());
        assert_eq!(q.pop_due(SimTime::from_ns(49)), None);
        assert!(q.pop_due(SimTime::from_ns(50)).is_some());
    }

    #[test]
    fn cancel_discards_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(1), 1);
        q.schedule(SimTime::from_ns(2), 2);
        q.cancel(id);
        assert_eq!(
            q.pop_due(SimTime::from_ns(10)),
            Some((SimTime::from_ns(2), 2))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(1), 1);
        assert!(q.pop_due(SimTime::from_ns(1)).is_some());
        q.cancel(id);
        q.schedule(SimTime::from_ns(2), 2);
        // A stale cancellation of a fired id must not eat a later event even
        // though ids are never reused.
        assert_eq!(
            q.pop_due(SimTime::from_ns(2)),
            Some((SimTime::from_ns(2), 2))
        );
    }

    #[test]
    fn next_deadline_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(1), 1);
        q.schedule(SimTime::from_ns(7), 2);
        q.cancel(id);
        assert_eq!(q.next_deadline(), Some(SimTime::from_ns(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_next_skips_cancelled_and_keeps_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(1), "gone");
        q.schedule(SimTime::from_ns(4), "kept");
        q.cancel(id);
        assert_eq!(q.peek_next(), Some((SimTime::from_ns(4), &"kept")));
        // Peeking does not consume.
        assert_eq!(
            q.pop_due(SimTime::from_ns(4)),
            Some((SimTime::from_ns(4), "kept"))
        );
        assert_eq!(q.peek_next(), None);
    }

    #[test]
    fn pop_next_jumps_forward() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(9), "x");
        assert_eq!(q.pop_next(), Some((SimTime::from_us(9), "x")));
        assert_eq!(q.pop_next(), None);
    }
}
