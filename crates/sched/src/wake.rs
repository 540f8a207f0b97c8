//! The event queue under [`crate::event::EventSim`].

use std::collections::VecDeque;

/// Pending `FetchDone` completions as `(wake in nanoseconds, tenant)`,
/// in wake order — the only future the simulator ever waits for.
///
/// A heap would sift every fault through log n levels for keys that
/// arrive already sorted, so this is a FIFO: a push joins the back, and
/// an earlier wake (none occurs today) is placed by search, so delivery
/// is correct whatever the push order. Ties are settled at delivery: a
/// batch is everything at or before `now`, hence whole runs of equal
/// wakes, and sorting it by `(wake, tenant)` is the heap's pop order —
/// without going quadratic when ties arrive tenant-descending.
#[derive(Default)]
pub(crate) struct WakeQueue {
    pending: VecDeque<(u64, u32)>,
    /// Scratch for the batch being delivered.
    batch: Vec<(u64, u32)>,
}

impl WakeQueue {
    /// Queues `tenant` to wake at `wake`; `true` if it joined the back,
    /// which is the case the queue is built for.
    pub(crate) fn push(&mut self, wake: u64, tenant: u32) -> bool {
        let at = match self.pending.back() {
            Some(&(last, _)) if last > wake => self.pending.partition_point(|e| e.0 <= wake),
            _ => self.pending.len(),
        };
        self.pending.insert(at, (wake, tenant));
        at + 1 == self.pending.len()
    }

    pub(crate) fn next_wake(&self) -> Option<u64> {
        self.pending.front().map(|e| e.0)
    }

    /// Moves every completion at or before `now` onto `ready`, in
    /// `(wake, tenant)` order.
    pub(crate) fn deliver(&mut self, now: u64, ready: &mut VecDeque<u32>) {
        self.batch.clear();
        while let Some(&due) = self.pending.front().filter(|e| e.0 <= now) {
            self.batch.push(due);
            self.pending.pop_front();
        }
        self.batch.sort_unstable();
        ready.extend(self.batch.iter().map(|e| e.1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_trace::rng::Rng64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drains `q` up to `now` and checks the delivery against the
    /// heap's pop order.
    fn deliver_like_the_heap(
        q: &mut WakeQueue,
        model: &mut BinaryHeap<Reverse<(u64, u32)>>,
        now: u64,
    ) {
        let mut ready = VecDeque::new();
        q.deliver(now, &mut ready);
        let mut expected = Vec::new();
        while let Some(&Reverse((_, tenant))) = model.peek().filter(|e| e.0 .0 <= now) {
            model.pop();
            expected.push(tenant);
        }
        assert_eq!(Vec::from(ready), expected, "delivery up to {now}");
        assert_eq!(q.next_wake(), model.peek().map(|e| e.0 .0));
    }

    #[test]
    fn delivers_in_heap_order_whatever_the_push_order() {
        let mut rng = Rng64::new(1967);
        for round in 0..200 {
            let mut q = WakeQueue::default();
            let mut model = BinaryHeap::new();
            // Few distinct wakes, so ties are the rule; pushes in any
            // order, deliveries at any instant in between — at the wake
            // just pushed too, which is what a zero fetch time does.
            let span = 1 + rng.below(12);
            for tenant in 0..rng.below(80) as u32 {
                let wake = rng.below(span);
                let latest = model.iter().map(|e: &Reverse<(u64, u32)>| e.0 .0).max();
                assert_eq!(q.push(wake, tenant), latest.is_none_or(|l| l <= wake));
                model.push(Reverse((wake, tenant)));
                if rng.below(4) == 0 {
                    deliver_like_the_heap(&mut q, &mut model, rng.below(span + 1));
                }
            }
            deliver_like_the_heap(&mut q, &mut model, span);
            assert_eq!(q.next_wake(), None, "round {round} drains");
        }
    }

    #[test]
    fn sorts_equal_wakes_pushed_in_descending_tenant_order() {
        let mut q = WakeQueue::default();
        let mut model = BinaryHeap::new();
        for tenant in (0..100_000u32).rev() {
            q.push(7, tenant);
            model.push(Reverse((7, tenant)));
        }
        deliver_like_the_heap(&mut q, &mut model, 6);
        deliver_like_the_heap(&mut q, &mut model, 7);
    }
}
