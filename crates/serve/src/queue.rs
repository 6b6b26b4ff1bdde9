//! The bounded ingress queue: the single backpressure point between
//! the feeding threads and the worker pool.
//!
//! Two producer modes share it. `push` never blocks — a full queue is an
//! *admission verdict* (`Rejected{queue_full}`), not a stall, so a
//! flooding socket client slows itself down instead of the accept loop.
//! `push_wait` blocks while the queue is full, so a pipe or a file is
//! read no faster than the workers answer it and nothing is shed; `pop`
//! and `close` wake it. `pop` blocks until work arrives or the queue is
//! closed, and — the drain guarantee — a closed queue still hands out
//! everything that was accepted before the close: `pop` returns `None`
//! only once the queue is both closed *and* empty.
//!
//! Each side counts its sleepers, so a push or a pop signals the other
//! side only when someone is waiting there.
//!
//! Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot`
//! subset deliberately ships no condvar).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers asleep on `ready`.
    idle_poppers: usize,
    /// Producers asleep on `room`.
    blocked_pushers: usize,
}

/// A bounded MPMC queue with shedding or blocking producers and draining
/// close.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    room: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                idle_poppers: 0,
                blocked_pushers: 0,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without blocking. `Err` returns the item when the queue is
    /// full or already closed — the caller owns the rejection reply.
    pub fn push(&self, item: T) -> Result<(), T> {
        let st = self.state.lock().unwrap();
        if st.closed || st.items.len() >= self.capacity {
            return Err(item);
        }
        self.enqueue(st, item);
        Ok(())
    }

    /// Enqueue, waiting while the queue is full. `Err` returns the item
    /// when the queue is closed before it finds room.
    pub fn push_wait(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap();
        while !st.closed && st.items.len() >= self.capacity {
            st.blocked_pushers += 1;
            st = self.room.wait(st).unwrap();
            st.blocked_pushers -= 1;
        }
        if st.closed {
            return Err(item);
        }
        self.enqueue(st, item);
        Ok(())
    }

    fn enqueue(&self, mut st: MutexGuard<'_, State<T>>, item: T) {
        st.items.push_back(item);
        let wake = st.idle_poppers > 0;
        drop(st);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Dequeue, blocking until an item arrives. Returns `None` only when
    /// the queue is closed *and* drained — every accepted item is handed
    /// to exactly one popper first.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                let wake = st.blocked_pushers > 0;
                drop(st);
                if wake {
                    self.room.notify_one();
                }
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st.idle_poppers += 1;
            st = self.ready.wait(st).unwrap();
            st.idle_poppers -= 1;
        }
    }

    /// Close the queue: producers start failing (blocked ones wake up and
    /// get their item back), consumers drain what is left and then see
    /// `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
        self.room.notify_all();
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_accepted_items_then_ends() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        q.close();
        assert_eq!(q.push(99), Err(99), "closed queue rejects producers");
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<i32>::new(4));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.push(7).unwrap();
        q.close();
        let got: Vec<Option<i32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got.iter().filter(|o| o.is_some()).count(), 1);
        assert_eq!(got.iter().filter(|o| o.is_none()).count(), 2);
    }

    #[test]
    fn blocking_push_waits_for_a_pop_and_fails_after_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(2))
        };
        // The pusher sleeps on the full queue until the pop makes room.
        while q.state.lock().unwrap().blocked_pushers == 0 {
            std::thread::yield_now();
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(pusher.join().unwrap(), Ok(()));
        assert_eq!(q.len(), 1);

        // Full again: a close hands the waiting item back.
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(3))
        };
        while q.state.lock().unwrap().blocked_pushers == 0 {
            std::thread::yield_now();
        }
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(3));
        assert_eq!(q.push_wait(4), Err(4), "a closed queue fails at once");
        assert_eq!(q.pop(), Some(2), "the close still drains what was accepted");
        assert_eq!(q.pop(), None);
    }
}
