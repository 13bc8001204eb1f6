//! MPMC channels over real threads, with the same semantics as the
//! simulator channels: rendezvous / bounded / unbounded capacities,
//! cancel-safe futures (usable as `choose!` arms), close on either
//! side.
//!
//! # One core
//!
//! Every channel is one `Mutex<State>`: the message queue, the keyed
//! wakers of parked receivers and senders, the endpoint counts and
//! the closed flag. Each operation takes the lock once, moves a value
//! or registers its waker, and wakes only peers it unblocked: a send
//! wakes one parked receiver, a receive wakes one space-waiting
//! sender per slot it freed, and `close` or the last endpoint drop
//! wakes everyone. Because registration and wake happen under the
//! same lock, a wake cannot be lost, and cancelled futures
//! (`choose!` losers) deregister on drop and pass any consumed wake
//! on while messages remain.
//!
//! A lock-free slot ring for bounded and unbounded channels measured
//! no end-to-end gain over this core on the `perfbench` workloads
//! (sharded KV serving and booted-kernel syscall chains), so there is
//! no second implementation and no mode switch.
//!
//! # Batched drains
//!
//! [`Receiver::recv_many`] / [`Receiver::try_recv_many`] move a burst
//! of messages into a caller buffer in one operation — one wakeup and
//! one dispatch for the whole batch instead of one per message. The
//! OS server loops (syscall servers, vnode tasks, cache shards,
//! drivers) drain through these.

use crate::sync::{Arc, AtomicU64, Mutex, Ordering};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::executor::plock;

/// Buffering discipline of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// No buffer: send completes when a receiver takes the value.
    Rendezvous,
    /// Fixed-depth buffer with backpressure.
    Bounded(usize),
    /// Unlimited buffer: send never waits.
    Unbounded,
}

/// Error returned by `send`; the value comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// Channel closed or all receivers dropped.
    Closed(T),
}

impl<T> SendError<T> {
    /// Recovers the unsent value.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Closed(v) => v,
        }
    }
}

/// Error returned by `recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Channel closed and drained.
    Closed,
}

/// Error returned by `try_send`; the value comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel cannot accept a message right now.
    Full(T),
    /// Channel closed or all receivers dropped.
    Closed(T),
}

/// Error returned by `try_recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is ready.
    Empty,
    /// Channel closed and drained.
    Closed,
}

// ---------------------------------------------------------------------------
// Fast-path / slow-path statistics (process-global, Relaxed).
// ---------------------------------------------------------------------------

static FAST_SENDS: AtomicU64 = AtomicU64::new(0);
static SLOW_SENDS: AtomicU64 = AtomicU64::new(0);
static FAST_RECVS: AtomicU64 = AtomicU64::new(0);
static SLOW_RECVS: AtomicU64 = AtomicU64::new(0);
static RECV_WAKES: AtomicU64 = AtomicU64::new(0);
static SEND_WAKES: AtomicU64 = AtomicU64::new(0);
static RECV_MANY_CALLS: AtomicU64 = AtomicU64::new(0);
static RECV_MANY_MSGS: AtomicU64 = AtomicU64::new(0);
static SEND_MANY_CALLS: AtomicU64 = AtomicU64::new(0);
static SEND_MANY_MSGS: AtomicU64 = AtomicU64::new(0);
static REPLY_WAKES_COALESCED: AtomicU64 = AtomicU64::new(0);

#[inline]
fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Reply-wake coalescing.
// ---------------------------------------------------------------------------

thread_local! {
    /// When `Some`, receiver wakes triggered by sends on this thread
    /// are parked here (deduplicated by task) instead of delivered
    /// immediately; the enclosing [`coalesce_wakes`] scope flushes
    /// them on exit.
    static WAKE_SCOPE: std::cell::RefCell<Option<Vec<Waker>>> =
        const { std::cell::RefCell::new(None) };

    /// The last scope's emptied waker buffer, kept for the next scope
    /// on this thread: steady-state reply batching must not allocate
    /// (the zero-alloc pipelined-call contract).
    static WAKE_SCOPE_SPARE: std::cell::Cell<Option<Vec<Waker>>> =
        const { std::cell::Cell::new(None) };
}

/// Delivers a receiver wake, honoring an active [`coalesce_wakes`]
/// scope: inside a scope, wakes for the same task collapse into one
/// (counted as `chan.reply_wakes_coalesced`) and everything flushes
/// when the scope ends.
fn deliver_recv_wake(w: Waker) {
    WAKE_SCOPE.with(|s| match &mut *s.borrow_mut() {
        Some(buf) => {
            if buf.iter().any(|q| q.will_wake(&w)) {
                bump(&REPLY_WAKES_COALESCED);
            } else {
                buf.push(w);
            }
        }
        None => w.wake(),
    });
}

/// Completion-side wake for the [`crate::oneshot`] slots: same
/// counter and same [`coalesce_wakes`] scope handling as a channel's
/// receiver wake, so servers that publish reply bursts inside a scope
/// coalesce oneshot completions exactly like channel replies.
pub(crate) fn deliver_reply_wake(w: Waker) {
    bump(&RECV_WAKES);
    deliver_recv_wake(w);
}

/// Flushes the scope's collected wakes even if the closure panics (a
/// swallowed wake would strand a parked peer forever).
struct WakeScopeGuard {
    prev: Option<Vec<Waker>>,
}

impl Drop for WakeScopeGuard {
    fn drop(&mut self) {
        let collected =
            WAKE_SCOPE.with(|s| std::mem::replace(&mut *s.borrow_mut(), self.prev.take()));
        if let Some(mut ws) = collected {
            for w in ws.drain(..) {
                w.wake();
            }
            WAKE_SCOPE_SPARE.with(|s| s.set(Some(ws)));
        }
    }
}

/// Runs `f` with receiver wakes coalesced: sends inside the scope
/// that would wake a parked peer collect their wakers instead, one
/// per distinct task, and deliver them when the scope exits.
///
/// This is the **reply-batching** primitive: a server that drained a
/// burst of requests answers them all inside one scope, so a client
/// with several outstanding replies is woken once for the whole
/// batch instead of once per message (it would otherwise wake, find
/// one reply, re-park, and repeat). Duplicate wakes avoided are
/// counted as `chan.reply_wakes_coalesced`.
///
/// `f` must be synchronous (replies published with `try_send`); the
/// scope is per-thread and must not span an `.await`.
pub fn coalesce_wakes<R>(f: impl FnOnce() -> R) -> R {
    let buf = WAKE_SCOPE_SPARE.with(|s| s.take()).unwrap_or_default();
    let prev = WAKE_SCOPE.with(|s| s.borrow_mut().replace(buf));
    let _guard = WakeScopeGuard { prev };
    f()
}

/// All channel counters: `(name, value)` pairs. The counters are
/// process-global (channels are not tied to one runtime).
///
/// * `chan.fast_sends` / `chan.fast_recvs` — operations that
///   completed without parking: a `send`/`recv`/`recv_many` ready on
///   its first poll, or a successful `try_send`/`try_recv`.
/// * `chan.slow_sends` / `chan.slow_recvs` — operations that parked
///   (registered a waker) at least once.
/// * `chan.recv_wakes` / `chan.send_wakes` — wakeups issued to parked
///   peers.
/// * `chan.recv_many_calls` / `chan.recv_many_msgs` — batched drains
///   and the messages they moved.
/// * `chan.send_many_calls` / `chan.send_many_msgs` — batched submits
///   ([`Sender::try_send_many`]) and the messages they enqueued.
/// * `chan.reply_wakes_coalesced` — duplicate same-task wakes
///   absorbed by a [`coalesce_wakes`] reply scope.
pub fn chan_counters() -> Vec<(&'static str, u64)> {
    vec![
        ("chan.fast_sends", FAST_SENDS.load(Ordering::Relaxed)),
        ("chan.slow_sends", SLOW_SENDS.load(Ordering::Relaxed)),
        ("chan.fast_recvs", FAST_RECVS.load(Ordering::Relaxed)),
        ("chan.slow_recvs", SLOW_RECVS.load(Ordering::Relaxed)),
        ("chan.recv_wakes", RECV_WAKES.load(Ordering::Relaxed)),
        ("chan.send_wakes", SEND_WAKES.load(Ordering::Relaxed)),
        (
            "chan.recv_many_calls",
            RECV_MANY_CALLS.load(Ordering::Relaxed),
        ),
        (
            "chan.recv_many_msgs",
            RECV_MANY_MSGS.load(Ordering::Relaxed),
        ),
        (
            "chan.send_many_calls",
            SEND_MANY_CALLS.load(Ordering::Relaxed),
        ),
        (
            "chan.send_many_msgs",
            SEND_MANY_MSGS.load(Ordering::Relaxed),
        ),
        (
            "chan.reply_wakes_coalesced",
            REPLY_WAKES_COALESCED.load(Ordering::Relaxed),
        ),
    ]
}

/// Reads one channel counter by its `chan.*` name (0 if unknown).
pub fn chan_counter(name: &str) -> u64 {
    chan_counters()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Zeroes every channel counter (benchmark phase boundaries).
pub fn reset_chan_counters() {
    for c in [
        &FAST_SENDS,
        &SLOW_SENDS,
        &FAST_RECVS,
        &SLOW_RECVS,
        &RECV_WAKES,
        &SEND_WAKES,
        &RECV_MANY_CALLS,
        &RECV_MANY_MSGS,
        &SEND_MANY_CALLS,
        &SEND_MANY_MSGS,
        &REPLY_WAKES_COALESCED,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Creates a channel of the given capacity.
pub fn channel<T: Send>(cap: Capacity) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Mutex::new(State {
        cap,
        queue: VecDeque::new(),
        recv_waiters: VecDeque::new(),
        send_waiters: VecDeque::new(),
        senders: 1,
        receivers: 1,
        closed: false,
    }));
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// Sending endpoint; clone freely across tasks and threads.
pub struct Sender<T> {
    shared: Arc<Mutex<State<T>>>,
}

/// Receiving endpoint; clone freely across tasks and threads.
pub struct Receiver<T> {
    shared: Arc<Mutex<State<T>>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_endpoint("Sender", &self.shared, f)
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_endpoint("Receiver", &self.shared, f)
    }
}

/// Debug must never contend (or self-deadlock) on the channel state:
/// tracing a channel from inside an operation that holds the lock is
/// legal. Uses `try_lock` with a `<locked>` fallback.
fn debug_endpoint<T>(
    name: &str,
    shared: &Mutex<State<T>>,
    f: &mut std::fmt::Formatter<'_>,
) -> std::fmt::Result {
    match shared.try_lock() {
        Ok(st) => f
            .debug_struct(name)
            .field("queued", &st.queue.len())
            .field("closed", &st.closed)
            .finish(),
        Err(_) => f.debug_struct(name).field("state", &"<locked>").finish(),
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        plock(&self.shared).senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        plock(&self.shared).receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.shared);
        st.senders -= 1;
        if st.senders == 0 {
            st.wake_everyone();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.shared);
        st.receivers -= 1;
        if st.receivers == 0 {
            st.wake_everyone();
        }
    }
}

impl<T: Send> Sender<T> {
    /// Sends a value according to the channel discipline.
    pub fn send(&self, value: T) -> SendFut<'_, T> {
        SendFut {
            shared: &self.shared,
            value: Some(value),
            entry_id: None,
            parked: false,
        }
    }

    /// Attempts a non-waiting send.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = plock(&self.shared);
        if st.send_shut() {
            return Err(TrySendError::Closed(value));
        }
        if !st.has_room() {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        st.wake_one_recv();
        bump(&FAST_SENDS);
        Ok(())
    }

    /// Enqueues the items of `buf` in order, waking the receiving
    /// task **once for the whole burst** instead of once per item —
    /// the send-side analogue of [`Receiver::recv_many`], and the
    /// submission primitive behind pipelined request ports.
    ///
    /// Stops at the first item the channel cannot accept (full or
    /// closed channel); unsent items remain at the front of `buf`.
    /// Returns how many items were enqueued.
    pub fn try_send_many(&self, buf: &mut VecDeque<T>) -> usize {
        let mut n = 0usize;
        coalesce_wakes(|| {
            while let Some(v) = buf.pop_front() {
                match self.try_send(v) {
                    Ok(()) => n += 1,
                    Err(TrySendError::Full(v)) | Err(TrySendError::Closed(v)) => {
                        buf.push_front(v);
                        break;
                    }
                }
            }
        });
        if n > 0 {
            bump(&SEND_MANY_CALLS);
            SEND_MANY_MSGS.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }

    /// Closes the channel.
    pub fn close(&self) {
        close_shared(&self.shared);
    }

    /// Returns `true` if the channel can no longer deliver sends.
    pub fn is_closed(&self) -> bool {
        plock(&self.shared).send_shut()
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        plock(&self.shared).queue.len()
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl<T: Send> Receiver<T> {
    /// Receives the next value.
    pub fn recv(&self) -> RecvFut<'_, T> {
        RecvFut {
            shared: &self.shared,
            waiter_id: None,
            parked: false,
        }
    }

    /// Attempts a non-waiting receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = plock(&self.shared);
        match st.pop() {
            Some(v) => {
                bump(&FAST_RECVS);
                Ok(v)
            }
            None if st.drained_shut() => Err(TryRecvError::Closed),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Moves up to `max` ready messages into `buf` without waiting;
    /// returns how many were moved (0 when none are ready *or* the
    /// channel is closed — use [`Receiver::try_recv`] to
    /// distinguish).
    pub fn try_recv_many(&self, buf: &mut Vec<T>, max: usize) -> usize {
        let n = plock(&self.shared).drain(buf, max);
        if n > 0 {
            bump(&RECV_MANY_CALLS);
            RECV_MANY_MSGS.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }

    /// Waits until at least one message is available, then moves up
    /// to `max` of them into `buf` in one drain; resolves to the
    /// number moved. Resolves to 0 when the channel is closed and
    /// drained — or immediately when `max == 0`, so callers that
    /// loop on `n == 0` must pass `max >= 1`. One wakeup and one
    /// dispatch amortize over the whole batch — the server-loop hot
    /// path.
    ///
    /// Cancel-safe: dropping the future mid-wait loses nothing;
    /// messages already drained are in `buf` (owned by the caller).
    pub fn recv_many<'a>(&'a self, buf: &'a mut Vec<T>, max: usize) -> RecvManyFut<'a, T> {
        RecvManyFut {
            shared: &self.shared,
            buf,
            max,
            waiter_id: None,
            parked: false,
        }
    }

    /// Closes the channel.
    pub fn close(&self) {
        close_shared(&self.shared);
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        plock(&self.shared).queue.len()
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Receiver<T>) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

fn close_shared<T>(shared: &Mutex<State<T>>) {
    let mut st = plock(shared);
    st.closed = true;
    st.wake_everyone();
}

// ---------------------------------------------------------------------------
// Channel state.
// ---------------------------------------------------------------------------

struct RecvWaiter {
    id: u64,
    waker: Waker,
}

struct SendEntry<T> {
    id: u64,
    waker: Waker,
    /// Rendezvous: the parked value. `None` for bounded space-waiters.
    value: Option<T>,
    /// Set when a receiver takes a rendezvous value.
    taken: bool,
}

struct State<T> {
    cap: Capacity,
    queue: VecDeque<T>,
    recv_waiters: VecDeque<RecvWaiter>,
    send_waiters: VecDeque<SendEntry<T>>,
    senders: usize,
    receivers: usize,
    closed: bool,
}

impl<T> State<T> {
    fn wake_one_recv(&mut self) {
        if let Some(w) = self.recv_waiters.pop_front() {
            bump(&RECV_WAKES);
            deliver_recv_wake(w.waker);
        }
    }

    fn wake_one_send(&mut self) {
        if let Some(e) = self.send_waiters.front() {
            bump(&SEND_WAKES);
            e.waker.wake_by_ref();
        }
    }

    fn wake_everyone(&mut self) {
        for w in self.recv_waiters.drain(..) {
            w.waker.wake();
        }
        for e in self.send_waiters.iter() {
            e.waker.wake_by_ref();
        }
    }

    fn drained_shut(&self) -> bool {
        (self.closed || self.senders == 0)
            && self.queue.is_empty()
            && self.send_waiters.iter().all(|e| e.value.is_none())
    }

    fn send_shut(&self) -> bool {
        self.closed || self.receivers == 0
    }

    /// Can a send enqueue right now? A rendezvous send can only when
    /// a receiver is parked to take the value.
    fn has_room(&self) -> bool {
        match self.cap {
            Capacity::Unbounded => true,
            Capacity::Bounded(n) => self.queue.len() < n,
            Capacity::Rendezvous => !self.recv_waiters.is_empty(),
        }
    }

    /// Takes the next message: the queue head (waking one
    /// space-waiter), else a parked rendezvous sender's value.
    fn pop(&mut self) -> Option<T> {
        if let Some(v) = self.queue.pop_front() {
            self.wake_one_send();
            return Some(v);
        }
        self.take_from_parked_sender()
    }

    fn take_from_parked_sender(&mut self) -> Option<T> {
        for e in self.send_waiters.iter_mut() {
            if let Some(v) = e.value.take() {
                e.taken = true;
                e.waker.wake_by_ref();
                return Some(v);
            }
        }
        None
    }

    /// Drains up to `max` messages (queued, then parked rendezvous
    /// senders), then wakes one *distinct* space-waiter per freed
    /// slot. (Waking the front entry per pop, as single receives do,
    /// would collapse into one effective wake here: the front sender
    /// cannot repoll-and-deregister while we hold the lock.)
    fn drain(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        let mut freed = 0;
        while n < max {
            if let Some(v) = self.queue.pop_front() {
                freed += 1;
                buf.push(v);
                n += 1;
                continue;
            }
            if let Some(v) = self.take_from_parked_sender() {
                buf.push(v);
                n += 1;
                continue;
            }
            break;
        }
        for e in self.send_waiters.iter().take(freed) {
            bump(&SEND_WAKES);
            e.waker.wake_by_ref();
        }
        n
    }

    /// Registers a parked receiver, or refreshes its waker. An entry
    /// that is gone was popped by a wake that raced this poll finding
    /// nothing, so it is re-inserted.
    fn park_recv(&mut self, waiter_id: &mut Option<u64>, waker: &Waker) {
        if let Some(id) = *waiter_id {
            if let Some(w) = self.recv_waiters.iter_mut().find(|w| w.id == id) {
                w.waker = waker.clone();
                return;
            }
        }
        let id = fresh_id();
        self.recv_waiters.push_back(RecvWaiter {
            id,
            waker: waker.clone(),
        });
        *waiter_id = Some(id);
    }

    fn deregister_recv(&mut self, waiter_id: &mut Option<u64>) {
        if let Some(id) = waiter_id.take() {
            self.recv_waiters.retain(|w| w.id != id);
        }
    }
}

/// Drop half of a cancelled receive: deregister, and pass the baton
/// if work remains for other waiters (a wake consumed on our behalf
/// must not strand a message).
fn cancel_recv<T>(shared: &Mutex<State<T>>, waiter_id: &mut Option<u64>) {
    if waiter_id.is_none() {
        return;
    }
    let mut st = plock(shared);
    st.deregister_recv(waiter_id);
    if !st.queue.is_empty() {
        st.wake_one_recv();
    }
}

// ---------------------------------------------------------------------------
// Send future.
// ---------------------------------------------------------------------------

/// Future returned by [`Sender::send`]; cancel-safe.
pub struct SendFut<'a, T> {
    shared: &'a Mutex<State<T>>,
    value: Option<T>,
    entry_id: Option<u64>,
    /// Ever parked (for fast/slow accounting).
    parked: bool,
}

impl<T> Unpin for SendFut<'_, T> {}

fn send_done<T>(parked: bool) -> Poll<Result<(), SendError<T>>> {
    bump(if parked { &SLOW_SENDS } else { &FAST_SENDS });
    Poll::Ready(Ok(()))
}

impl<T: Send> Future for SendFut<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let fut = &mut *self;
        let mut st = plock(fut.shared);

        // Registered already?
        if let Some(id) = fut.entry_id {
            let Some(i) = st.send_waiters.iter().position(|e| e.id == id) else {
                // Entries leave the list only through this future, so
                // an absent entry means a racing cleanup; treat as
                // closed.
                return Poll::Ready(Err(SendError::Closed(
                    fut.value.take().expect("value retained"),
                )));
            };
            if st.send_waiters[i].taken {
                st.send_waiters.remove(i);
                fut.entry_id = None;
                return send_done(true);
            }
            if st.send_shut() {
                let mut e = st.send_waiters.remove(i).expect("present");
                fut.entry_id = None;
                let v = e
                    .value
                    .take()
                    .or_else(|| fut.value.take())
                    .expect("waiting send holds its value");
                return Poll::Ready(Err(SendError::Closed(v)));
            }
            // Bounded space-waiter: retry the commit.
            if let Capacity::Bounded(n) = st.cap {
                if st.queue.len() < n {
                    let v = fut.value.take().expect("bounded keeps value in future");
                    st.queue.push_back(v);
                    st.send_waiters.remove(i);
                    fut.entry_id = None;
                    st.wake_one_recv();
                    return send_done(true);
                }
            }
            // Refresh the waker and keep waiting.
            st.send_waiters[i].waker = cx.waker().clone();
            return Poll::Pending;
        }

        if st.send_shut() {
            return Poll::Ready(Err(SendError::Closed(
                fut.value.take().expect("unsent value present"),
            )));
        }
        if st.has_room() {
            // A rendezvous hands off through the queue; the woken
            // receiver takes it.
            st.queue
                .push_back(fut.value.take().expect("unsent value present"));
            st.wake_one_recv();
            return send_done(false);
        }
        // Park. A rendezvous sender parks with its value, which a
        // receiver takes directly; a bounded sender keeps it and
        // retries the commit when woken.
        let value = match st.cap {
            Capacity::Rendezvous => fut.value.take(),
            _ => None,
        };
        let id = fresh_id();
        st.send_waiters.push_back(SendEntry {
            id,
            waker: cx.waker().clone(),
            value,
            taken: false,
        });
        fut.entry_id = Some(id);
        fut.parked = true;
        Poll::Pending
    }
}

impl<T> Drop for SendFut<'_, T> {
    fn drop(&mut self) {
        if let Some(id) = self.entry_id.take() {
            plock(self.shared).send_waiters.retain(|e| e.id != id);
        }
    }
}

// ---------------------------------------------------------------------------
// Receive futures.
// ---------------------------------------------------------------------------

/// Future returned by [`Receiver::recv`]; cancel-safe.
pub struct RecvFut<'a, T> {
    shared: &'a Mutex<State<T>>,
    waiter_id: Option<u64>,
    parked: bool,
}

impl<T> Unpin for RecvFut<'_, T> {}

fn recv_done<T>(v: T, parked: bool) -> Poll<Result<T, RecvError>> {
    bump(if parked { &SLOW_RECVS } else { &FAST_RECVS });
    Poll::Ready(Ok(v))
}

impl<T: Send> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let fut = &mut *self;
        let mut st = plock(fut.shared);
        if let Some(v) = st.pop() {
            st.deregister_recv(&mut fut.waiter_id);
            return recv_done(v, fut.parked);
        }
        if st.drained_shut() {
            st.deregister_recv(&mut fut.waiter_id);
            return Poll::Ready(Err(RecvError::Closed));
        }
        fut.parked = true;
        st.park_recv(&mut fut.waiter_id, cx.waker());
        Poll::Pending
    }
}

impl<T> Drop for RecvFut<'_, T> {
    fn drop(&mut self) {
        cancel_recv(self.shared, &mut self.waiter_id);
    }
}

/// Future returned by [`Receiver::recv_many`]; cancel-safe. Resolves
/// to the number of messages appended to the buffer (0 = closed and
/// drained).
pub struct RecvManyFut<'a, T> {
    shared: &'a Mutex<State<T>>,
    buf: &'a mut Vec<T>,
    max: usize,
    waiter_id: Option<u64>,
    parked: bool,
}

impl<T> Unpin for RecvManyFut<'_, T> {}

fn batch_done(n: usize, parked: bool) -> Poll<usize> {
    bump(&RECV_MANY_CALLS);
    RECV_MANY_MSGS.fetch_add(n as u64, Ordering::Relaxed);
    bump(if parked { &SLOW_RECVS } else { &FAST_RECVS });
    Poll::Ready(n)
}

impl<T: Send> Future for RecvManyFut<'_, T> {
    type Output = usize;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let fut = &mut *self;
        if fut.max == 0 {
            return Poll::Ready(0);
        }
        let mut st = plock(fut.shared);
        let n = st.drain(fut.buf, fut.max);
        if n > 0 {
            st.deregister_recv(&mut fut.waiter_id);
            return batch_done(n, fut.parked);
        }
        if st.drained_shut() {
            st.deregister_recv(&mut fut.waiter_id);
            return Poll::Ready(0);
        }
        fut.parked = true;
        st.park_recv(&mut fut.waiter_id, cx.waker());
        Poll::Pending
    }
}

impl<T> Drop for RecvManyFut<'_, T> {
    fn drop(&mut self) {
        cancel_recv(self.shared, &mut self.waiter_id);
    }
}
