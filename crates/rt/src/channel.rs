//! A multi-producer single-consumer channel, unbounded or bounded.
//!
//! API-compatible with the subset of `crossbeam::channel` the event log
//! and harness use. Semantics that matter to the online verifier (§4.2):
//!
//! * **Drain before disconnect** — `recv` keeps returning buffered
//!   messages after every [`Sender`] is gone; only an *empty* and
//!   disconnected channel yields [`RecvError`]. The verification thread
//!   therefore always checks every event the program managed to log.
//! * **Disconnect wakes blockers** — dropping the last `Sender` (e.g. via
//!   `EventLog::close()` swapping the channel sink out, or a straggler
//!   thread dropping its logger) acquires the queue lock before
//!   signalling, so a receiver blocked in `recv`/`recv_timeout` cannot
//!   miss the wakeup and hang. Symmetrically, dropping the [`Receiver`]
//!   wakes senders blocked on a full bounded channel.
//! * **Unbounded sends never block** — [`unbounded`] queues without limit;
//!   `send` to a dropped [`Receiver`] returns the value back instead of
//!   panicking.
//! * **Bounded sends apply backpressure** — [`bounded`] makes `send` block
//!   while the queue holds `capacity` messages, so a producer that outruns
//!   its consumer (a program outrunning a slow verifier) is slowed down
//!   instead of growing the heap without bound. [`Sender::send_timeout`]
//!   bounds that wait, which is what overload policies that *shed* instead
//!   of stall are built on.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the unsent value back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Sender::send_timeout`]; carries the unsent value
/// back either way.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The channel stayed full for the whole timeout.
    Timeout(T),
    /// The [`Receiver`] is gone; the message can never be delivered.
    Closed(T),
}

impl<T> SendTimeoutError<T> {
    /// Recovers the unsent message.
    pub fn into_inner(self) -> T {
        match self {
            SendTimeoutError::Timeout(v) | SendTimeoutError::Closed(v) => v,
        }
    }

    /// Whether the failure was a timeout (as opposed to disconnection).
    pub fn is_timeout(&self) -> bool {
        matches!(self, SendTimeoutError::Timeout(_))
    }
}

impl<T> fmt::Debug for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => f.write_str("SendTimeoutError::Timeout(..)"),
            SendTimeoutError::Closed(_) => f.write_str("SendTimeoutError::Closed(..)"),
        }
    }
}

impl<T> fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => f.write_str("timed out waiting for channel capacity"),
            SendTimeoutError::Closed(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl<T> std::error::Error for SendTimeoutError<T> {}

/// Error returned by [`Receiver::recv`]: the channel is empty and every
/// sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty but senders remain.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

struct State<T> {
    queue: VecDeque<T>,
    /// `Some(n)` ⇒ `send` blocks while the queue holds `n` messages.
    capacity: Option<usize>,
    /// Live [`Sender`] handles. 0 ⇒ disconnected on the producing side.
    senders: usize,
    /// The [`Receiver`] is still alive.
    receiver_alive: bool,
    /// Total messages ever popped by the receiver — lets a supervisor
    /// compute how many events a failed consumer got through before dying.
    popped: u64,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled on every send and on producer-side disconnect.
    ready: Condvar,
    /// Signalled on every receive and on receiver drop; only senders on a
    /// bounded channel ever wait on it.
    not_full: Condvar,
}

impl<T> Shared<T> {
    /// Locks the state, shrugging off poison: a panicking producer must
    /// not wedge the verification thread (the queue contents stay valid —
    /// all critical sections are a push/pop plus counter updates).
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn channel_with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receiver_alive: true,
            popped: 0,
        }),
        ready: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Creates an unbounded MPSC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel_with_capacity(None)
}

/// Creates a bounded MPSC channel holding at most `capacity` messages:
/// `send` blocks while the channel is full, which is the backpressure knob
/// a logging producer uses so a slow consumer cannot make it buffer
/// without bound.
///
/// # Panics
///
/// Panics if `capacity` is zero (rendezvous channels are not supported —
/// an event log must be able to buffer at least one event without a
/// consumer already waiting).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be at least 1");
    channel_with_capacity(Some(capacity))
}

/// The sending half; clone freely (multi-producer).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Sender<T> {
    /// Appends a message. On an unbounded channel this never blocks; on a
    /// bounded channel it blocks while the channel is full. Fails
    /// (returning the message) when the [`Receiver`] has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        loop {
            if !state.receiver_alive {
                return Err(SendError(value));
            }
            match state.capacity {
                Some(cap) if state.queue.len() >= cap => {
                    state = self
                        .shared
                        .not_full
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                _ => break,
            }
        }
        state.queue.push_back(value);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Appends a whole batch of messages under one lock acquisition and
    /// (at most) one receiver wakeup, draining `values`.
    ///
    /// This is the amortization primitive for batched logging: a
    /// per-thread buffer flushing 64 events pays one lock round-trip
    /// instead of 64. On a bounded channel the batch respects capacity —
    /// the call blocks mid-batch while the channel is full, waking the
    /// receiver for what has been queued so far, which preserves the
    /// backpressure contract of [`Sender::send`].
    ///
    /// # Errors
    ///
    /// [`SendError`] when the [`Receiver`] is gone (immediately or
    /// mid-batch), carrying how many messages were never queued so the
    /// caller can account for them; those are dropped, matching the
    /// fire-and-forget contract of a logging sink whose verifier stopped
    /// early. `values` is left empty either way.
    pub fn send_many(&self, values: &mut Vec<T>) -> Result<(), SendError<usize>> {
        if values.is_empty() {
            return Ok(());
        }
        let mut pending = values.drain(..);
        let mut state = self.shared.lock();
        let mut queued = 0usize;
        loop {
            if !state.receiver_alive {
                drop(state);
                // Drain (and drop) the rest so `values` ends up empty.
                return Err(SendError(pending.count()));
            }
            if let Some(cap) = state.capacity {
                if state.queue.len() >= cap {
                    if queued > 0 {
                        // The receiver may be asleep; hand it what we
                        // queued so far so it can free capacity.
                        self.shared.ready.notify_one();
                        queued = 0;
                    }
                    state = self
                        .shared
                        .not_full
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    continue;
                }
            }
            match pending.next() {
                Some(v) => {
                    state.queue.push_back(v);
                    queued += 1;
                }
                None => break,
            }
        }
        drop(state);
        if queued > 0 {
            self.shared.ready.notify_one();
        }
        Ok(())
    }

    /// Like [`Sender::send`], but gives up after `timeout` instead of
    /// blocking indefinitely on a full bounded channel.
    ///
    /// This is the primitive behind shed-style overload policies: the
    /// producer bounds how long it will wait for the consumer, then makes
    /// an explicit, *counted* decision about the message instead of
    /// deadlocking (the failure mode the old all-or-nothing blocking send
    /// documented as a sizing rule).
    ///
    /// # Errors
    ///
    /// [`SendTimeoutError::Closed`] when the [`Receiver`] is gone (also
    /// when it drops mid-wait — a blocked sender must wake with the error,
    /// not sleep forever); [`SendTimeoutError::Timeout`] when the channel
    /// stayed full for the whole timeout. Both carry the value back.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if !state.receiver_alive {
                return Err(SendTimeoutError::Closed(value));
            }
            match state.capacity {
                Some(cap) if state.queue.len() >= cap => {
                    let Some(remaining) = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|d| !d.is_zero())
                    else {
                        return Err(SendTimeoutError::Timeout(value));
                    };
                    let (guard, _timed_out) = self
                        .shared
                        .not_full
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    state = guard;
                }
                _ => break,
            }
        }
        state.queue.push_back(value);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let disconnected = state.senders == 0;
        // Signal *while the lock's release is ordered after the count
        // update*: a receiver blocked in `wait` re-acquires the lock and
        // re-checks `senders` before sleeping again, so this cannot race
        // into a lost wakeup.
        drop(state);
        if disconnected {
            self.shared.ready.notify_all();
        }
    }
}

/// The receiving half (single consumer by convention; `&self` methods).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

impl<T> Receiver<T> {
    /// The channel's capacity: `Some(n)` for a bounded channel, `None`
    /// for unbounded. Lets a consumer adapt its drain discipline to the
    /// producers' blocking behavior (bounded-channel producers park —
    /// and shed-style producers park *with a deadline* — so consumers
    /// of bounded channels should keep their service stints short).
    pub fn capacity(&self) -> Option<usize> {
        self.shared.lock().capacity
    }

    /// Blocks until a message is available or the channel disconnects.
    /// Buffered messages are always drained before [`RecvError`].
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                state.popped += 1;
                self.notify_not_full(&state);
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .shared
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks until at least one message is available, then drains the
    /// *entire* queue into `buf` under a single lock acquisition,
    /// returning how many messages were appended.
    ///
    /// This is the consumer-side twin of [`Sender::send_many`]: a checker
    /// that processes events batch-at-a-time pays one lock round-trip and
    /// one wakeup per batch instead of per event. `buf` is not cleared —
    /// messages are appended after its existing contents — so a caller
    /// can reuse one allocation across calls (`buf.clear()` then
    /// `recv_many`).
    ///
    /// On a bounded channel *every* blocked sender is woken (a bulk drain
    /// frees many slots at once, so `notify_one` would strand all but one
    /// of them until the next receive).
    ///
    /// # Errors
    ///
    /// [`RecvError`] only when the channel is empty *and* every sender is
    /// gone — buffered messages are always drained first, like
    /// [`Receiver::recv`].
    pub fn recv_many(&self, buf: &mut Vec<T>) -> Result<usize, RecvError> {
        self.recv_up_to(buf, usize::MAX)
    }

    /// Like [`Receiver::recv_many`], but takes at most `max` messages.
    ///
    /// The cap bounds the *consumer's service stint*: a consumer that
    /// drains the whole queue then processes it holds producers off for
    /// the full batch's processing time, which matters when producers
    /// bound their own waits (shed-style overload policies time out and
    /// drop instead of waiting out a long stint). A capped drain keeps
    /// the free-a-slot cadence close to per-event consumption while
    /// still amortizing the lock and wakeup costs `max`-fold.
    ///
    /// # Panics
    ///
    /// `max` must be at least 1.
    pub fn recv_up_to(&self, buf: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        assert!(max > 0, "recv_up_to cap must be at least 1");
        let mut state = self.shared.lock();
        loop {
            if !state.queue.is_empty() {
                let n = state.queue.len().min(max);
                buf.extend(state.queue.drain(..n));
                state.popped += n as u64;
                let bounded = state.capacity.is_some();
                drop(state);
                if bounded {
                    self.shared.not_full.notify_all();
                }
                return Ok(n);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .shared
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(v) => {
                state.popped += 1;
                self.notify_not_full(&state);
                Ok(v)
            }
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                state.popped += 1;
                self.notify_not_full(&state);
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            let (guard, _timed_out) = self
                .shared
                .ready
                .wait_timeout(state, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.shared.lock().queue.is_empty()
    }

    /// Total messages ever received through this channel.
    ///
    /// Monotone across the receiver's lifetime; a supervisor restarting a
    /// crashed consumer diffs this around the crash to report how many
    /// messages the dead consumer had already taken off the queue (work
    /// that is lost unless the replacement can re-derive it).
    pub fn popped(&self) -> u64 {
        self.shared.lock().popped
    }

    /// A read-only probe of this channel's queue, detached from the
    /// single-consumer discipline: it can be cloned and shipped to a
    /// supervisor thread without granting it the ability to receive.
    pub fn monitor(&self) -> Monitor<T> {
        Monitor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A blocking iterator: yields until the channel is empty *and*
    /// disconnected.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }

    /// A non-blocking iterator over the currently buffered messages.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    /// Wakes one sender blocked on a full bounded channel. Signalling
    /// while still holding the lock is fine: the woken sender re-acquires
    /// it and re-checks the queue length before proceeding.
    fn notify_not_full(&self, state: &State<T>) {
        if state.capacity.is_some() {
            self.shared.not_full.notify_one();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receiver_alive = false;
        let bounded = state.capacity.is_some();
        drop(state);
        if bounded {
            // Senders blocked on a full channel must observe the dead
            // receiver and fail out instead of sleeping forever.
            self.shared.not_full.notify_all();
        }
    }
}

/// A passive observer of one channel's queue, handed out by
/// [`Receiver::monitor`].
///
/// Holds the shared state but participates in none of the disconnect
/// bookkeeping: dropping a `Monitor` never closes the channel, and a
/// `Monitor` outliving the `Receiver` simply keeps reporting the frozen
/// final counters. An overload controller samples `len()` (current
/// occupancy) and `popped()` (monotone consumption) to tell a checker
/// that is *slow* from one that has *stopped*: occupancy > 0 with
/// `popped` frozen across a deadline is a stuck shard.
pub struct Monitor<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Monitor<T> {
    fn clone(&self) -> Self {
        Monitor {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> fmt::Debug for Monitor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Monitor { .. }")
    }
}

impl<T> Monitor<T> {
    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.shared.lock().queue.is_empty()
    }

    /// Total messages ever received through this channel (monotone).
    pub fn popped(&self) -> u64 {
        self.shared.lock().popped
    }
}

/// Blocking iterator returned by [`Receiver::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// Non-blocking iterator returned by [`Receiver::try_iter`].
#[derive(Debug)]
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Owning blocking iterator returned by [`Receiver::into_iter`].
#[derive(Debug)]
pub struct IntoIter<T> {
    receiver: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn try_recv_empty_then_value_then_disconnected() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn disconnect_drains_buffered_messages_first() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn dropping_last_sender_wakes_blocked_receiver() {
        let (tx, rx) = unbounded::<i32>();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn dropping_a_clone_does_not_disconnect() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap();
        assert_eq!(rx.recv(), Ok(5));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_to_dropped_receiver_returns_the_value() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(41), Err(SendError(41)));
    }

    #[test]
    fn recv_timeout_orderings() {
        let (tx, rx) = unbounded();
        // Value already queued: immediate.
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(1));
        // Empty but connected: times out.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        // Value arrives mid-wait: received.
        let t = {
            let tx = tx.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                tx.send(2).unwrap();
            })
        };
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
        t.join().unwrap();
        // Disconnected while empty: Disconnected, not Timeout.
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn iterators_drain_until_disconnect() {
        let (tx, rx) = unbounded();
        let producer = thread::spawn(move || {
            for i in 0..50 {
                tx.send(i).unwrap();
            }
        });
        let collected: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(collected, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn try_iter_is_non_blocking() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let drained: Vec<i32> = rx.try_iter().collect();
        assert_eq!(drained, vec![1, 2]);
        // Channel still connected; try_iter stopped instead of blocking.
        tx.send(3).unwrap();
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Third send must block until the receiver pops.
        let t = thread::spawn(move || {
            tx.send(3).unwrap();
            3
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.len(), 2, "third send should still be blocked");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(t.join().unwrap(), 3);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_errors_out_when_receiver_drops_mid_block() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError(2)));
    }

    /// Regression companion to
    /// `bounded_send_errors_out_when_receiver_drops_mid_block`: *several*
    /// senders parked on the same full channel must all wake with
    /// `Err(Closed)` when the receiver drops — `Receiver::drop` has to
    /// `notify_all`, not `notify_one`, or all but one sender sleep
    /// forever.
    #[test]
    fn every_blocked_sender_wakes_with_err_when_receiver_drops() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        let blocked: Vec<_> = (1..=4)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i))
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.len(), 1, "all four senders should still be blocked");
        drop(rx);
        for t in blocked {
            let result = t.join().unwrap();
            assert!(matches!(result, Err(SendError(_))), "sender must fail out, not hang");
        }
    }

    #[test]
    fn send_timeout_times_out_on_a_full_channel() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let start = Instant::now();
        let err = tx.send_timeout(2, Duration::from_millis(20)).unwrap_err();
        assert!(err.is_timeout());
        assert_eq!(err.into_inner(), 2);
        assert!(start.elapsed() >= Duration::from_millis(20));
        // The queued message is untouched.
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn send_timeout_succeeds_once_a_slot_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            rx.recv().unwrap();
            rx
        });
        tx.send_timeout(2, Duration::from_secs(5)).unwrap();
        let rx = t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn send_timeout_reports_closed_when_receiver_drops_mid_wait() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send_timeout(2, Duration::from_secs(30)));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        match t.join().unwrap() {
            Err(SendTimeoutError::Closed(v)) => assert_eq!(v, 2),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn send_timeout_reports_closed_not_timeout_when_already_disconnected() {
        let (tx, rx) = bounded::<i32>(1);
        drop(rx);
        assert!(matches!(
            tx.send_timeout(9, Duration::from_millis(1)),
            Err(SendTimeoutError::Closed(9))
        ));
    }

    #[test]
    fn send_many_preserves_order_and_drains_the_batch() {
        let (tx, rx) = unbounded();
        let mut batch: Vec<i32> = (0..10).collect();
        tx.send_many(&mut batch).unwrap();
        assert!(batch.is_empty());
        tx.send(10).unwrap();
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, (0..11).collect::<Vec<_>>());
        // Empty batch is a no-op.
        tx.send_many(&mut Vec::new()).unwrap();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_many_wakes_a_blocked_receiver() {
        let (tx, rx) = unbounded::<i32>();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        tx.send_many(&mut vec![9, 10]).unwrap();
        assert_eq!(t.join().unwrap(), Ok(9));
    }

    #[test]
    fn send_many_counts_what_a_receiver_hung_up_mid_batch_never_got() {
        let (tx, rx) = bounded(2);
        let t = thread::spawn(move || {
            let mut batch: Vec<i32> = (0..10).collect();
            (tx.send_many(&mut batch), batch)
        });
        // Hang up only once the sender is blocked with the bound queued.
        while rx.len() < 2 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(rx);
        let (res, batch) = t.join().unwrap();
        assert_eq!(res, Err(SendError(8)));
        assert!(batch.is_empty());
    }

    #[test]
    fn send_many_respects_bounded_capacity() {
        let (tx, rx) = bounded(2);
        let t = thread::spawn(move || {
            let mut batch: Vec<i32> = (0..20).collect();
            tx.send_many(&mut batch).unwrap();
            assert!(batch.is_empty());
        });
        // The producer must stall at the bound, not buffer past it.
        thread::sleep(Duration::from_millis(20));
        assert!(rx.len() <= 2);
        let got: Vec<i32> = rx.iter().collect();
        t.join().unwrap();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn send_many_to_dropped_receiver_fails_and_empties() {
        let (tx, rx) = unbounded();
        drop(rx);
        let mut batch = vec![1, 2, 3];
        assert_eq!(tx.send_many(&mut batch), Err(SendError(3)));
        assert!(batch.is_empty());
    }

    #[test]
    fn send_many_fails_out_when_receiver_drops_mid_batch() {
        let (tx, rx) = bounded(1);
        let t = thread::spawn(move || {
            let mut batch: Vec<i32> = (0..10).collect();
            tx.send_many(&mut batch)
        });
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        // One message fits before the sender blocks (none, if the sender
        // had not started yet); the rest never reach the channel.
        assert!(matches!(t.join().unwrap(), Err(SendError(9 | 10))));
    }

    #[test]
    fn recv_many_drains_the_whole_queue_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut buf = vec![-1];
        assert_eq!(rx.recv_many(&mut buf), Ok(10));
        // Appends after existing contents; caller controls clearing.
        assert_eq!(buf, (-1..10).collect::<Vec<_>>());
        assert_eq!(rx.popped(), 10);
        drop(tx);
        buf.clear();
        assert_eq!(rx.recv_many(&mut buf), Err(RecvError));
        assert!(buf.is_empty());
    }

    #[test]
    fn recv_up_to_caps_the_drain_and_keeps_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_up_to(&mut buf, 4), Ok(4));
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(rx.popped(), 4);
        assert_eq!(rx.recv_up_to(&mut buf, 4), Ok(4));
        // Shorter final drain, then disconnect.
        assert_eq!(rx.recv_up_to(&mut buf, 4), Ok(2));
        assert_eq!(buf, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.popped(), 10);
        assert_eq!(rx.recv_up_to(&mut buf, 4), Err(RecvError));
    }

    /// A capped drain of a full bounded channel must still wake blocked
    /// senders: the freed slots belong to whoever is parked.
    #[test]
    fn recv_up_to_frees_slots_for_blocked_senders() {
        let (tx, rx) = bounded(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let blocked = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(2))
        };
        thread::sleep(Duration::from_millis(20));
        let mut buf = Vec::new();
        assert_eq!(rx.recv_up_to(&mut buf, 1), Ok(1));
        assert_eq!(buf, vec![0]);
        assert_eq!(blocked.join().unwrap(), Ok(()));
        drop(tx);
        while let Ok(_n) = rx.recv_up_to(&mut buf, 1) {}
        assert_eq!(buf, vec![0, 1, 2]);
    }

    #[test]
    fn recv_many_blocks_until_a_message_arrives() {
        let (tx, rx) = unbounded::<i32>();
        let t = thread::spawn(move || {
            let mut buf = Vec::new();
            let n = rx.recv_many(&mut buf);
            (n, buf)
        });
        thread::sleep(Duration::from_millis(20));
        tx.send_many(&mut vec![7, 8, 9]).unwrap();
        let (n, buf) = t.join().unwrap();
        assert_eq!(n, Ok(3));
        assert_eq!(buf, vec![7, 8, 9]);
    }

    #[test]
    fn recv_many_drains_buffered_messages_before_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let mut buf = Vec::new();
        assert_eq!(rx.recv_many(&mut buf), Ok(2));
        assert_eq!(buf, vec![1, 2]);
        assert_eq!(rx.recv_many(&mut buf), Err(RecvError));
    }

    /// A bulk drain frees every slot of a bounded channel at once, so all
    /// parked senders must wake — `notify_one` would strand the rest.
    #[test]
    fn recv_many_wakes_every_blocked_sender() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        let blocked: Vec<_> = (1..=3)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i))
            })
            .collect();
        drop(tx);
        thread::sleep(Duration::from_millis(30));
        let mut got = Vec::new();
        while rx.recv_many(&mut got).is_ok() {}
        for t in blocked {
            t.join().unwrap().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn popped_counts_total_receives() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.popped(), 0);
        rx.recv().unwrap();
        rx.try_recv().unwrap();
        rx.recv_timeout(Duration::from_millis(5)).unwrap();
        assert_eq!(rx.popped(), 3);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn bounded_drains_before_disconnect_like_unbounded() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn bounded_rejects_zero_capacity() {
        let _ = bounded::<i32>(0);
    }

    #[test]
    fn mpsc_from_many_threads_delivers_everything() {
        let (tx, rx) = unbounded();
        let mut producers = Vec::new();
        for t in 0..8 {
            let tx = tx.clone();
            producers.push(thread::spawn(move || {
                for i in 0..500 {
                    tx.send((t, i)).unwrap();
                }
            }));
        }
        drop(tx);
        let mut counts = [0usize; 8];
        let mut last_seen = [-1i64; 8];
        for (t, i) in rx.iter() {
            counts[t] += 1;
            // Per-producer FIFO order.
            assert!(i64::from(i) > last_seen[t]);
            last_seen[t] = i64::from(i);
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(counts.iter().all(|&c| c == 500));
    }
}
