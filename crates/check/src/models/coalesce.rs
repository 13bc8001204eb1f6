//! Model of the wake-coalescing scope against a concurrently parking
//! receiver.
//!
//! mirrors: `parchan/src/chan.rs` — `coalesce_wakes`,
//! `deliver_recv_wake`, `WakeScopeGuard::drop`, with the receiver
//! running the same spin-then-park protocol as `models::parking`.
//!
//! Inside a scope, a send that would wake a parked receiver *buffers*
//! the wake (deduplicated per task) instead of delivering it; the
//! guard flushes the buffer on scope exit — even on panic, because a
//! swallowed wake strands the parked peer forever. That last clause
//! is the invariant this model checks: with the receiver free to park
//! at any point between the server's sends, every schedule must end
//! with the receiver woken and all replies taken. The seeded mutants
//! are the two ways the real code could regress: dropping the buffer
//! instead of flushing it, and deduplicating so eagerly that the
//! buffered wake is consumed without ever being delivered.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{fence, AtomicUsize};
use crate::thread;

/// Seeded bugs for [`coalesce_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocol.
    None,
    /// Scope exit drops the buffered wakes instead of flushing them
    /// (the exact hazard `WakeScopeGuard`'s doc comment warns about).
    ScopeDropsWakes,
    /// Coalescing consumes the parked registration but counts the
    /// wake as a duplicate without buffering it: the dedup check
    /// mistakes "first wake" for "already pending".
    DedupSwallowsFirstWake,
}

struct Chan {
    /// Published replies (the server's sends).
    msgs: AtomicUsize,
    /// The receiver's parked-registration count.
    recv_parked: AtomicUsize,
}

/// A server publishes `n_replies` replies to one client inside a
/// coalescing scope; the client (model root, thread 0) takes them
/// with spin-then-park. Every schedule must deliver all replies with
/// at most one wake actually sent (the coalescing contract), and
/// nobody left parked (the flush contract).
pub fn coalesce_model(mutant: Mutant, n_replies: usize) {
    let ch = Arc::new(Chan {
        msgs: AtomicUsize::new(0),
        recv_parked: AtomicUsize::new(0),
    });
    let client_tid = 0;

    let sch = ch.clone();
    let server = thread::spawn(move || {
        // `coalesce_wakes(|| ...)`: the scope buffer is a plain local
        // — the real one is a thread-local Vec<Waker>, invisible to
        // other threads, so it needs no atomics here.
        let mut buffered_wake = false;
        let mut wakes_sent = 0usize;
        for _ in 0..n_replies {
            // A send with an active scope: publish, fence, scan; a
            // positive scan claims the registration and buffers (or
            // coalesces) instead of waking.
            sch.msgs.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if sch.recv_parked.load(Ordering::SeqCst) > 0 {
                match mutant {
                    Mutant::DedupSwallowsFirstWake => {
                        // BUG (seeded): counted as coalesced, never
                        // buffered.
                    }
                    _ => {
                        if !buffered_wake {
                            buffered_wake = true;
                        }
                        // else: deduplicated (`will_wake` hit) — the
                        // one buffered wake covers this reply too.
                    }
                }
            }
            // Let the client interleave between replies (the real
            // server does channel sends and reply formatting here).
            thread::yield_now();
        }
        // `WakeScopeGuard::drop`: flush on scope exit.
        if mutant != Mutant::ScopeDropsWakes && buffered_wake {
            thread::unpark(client_tid);
            wakes_sent += 1;
        }
        wakes_sent
    });

    // Client: the same spin-then-park consumer as `models::parking`.
    let try_pop = |ch: &Chan| -> bool {
        let mut cur = ch.msgs.load(Ordering::SeqCst);
        while cur > 0 {
            match ch
                .msgs
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    };
    let mut got = 0;
    while got < n_replies {
        if try_pop(&ch) {
            got += 1;
            continue;
        }
        ch.recv_parked.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if try_pop(&ch) {
            ch.recv_parked.fetch_sub(1, Ordering::SeqCst);
            got += 1;
            continue;
        }
        thread::park();
        ch.recv_parked.fetch_sub(1, Ordering::SeqCst);
    }
    let wakes_sent = server.join();
    assert!(
        wakes_sent <= 1,
        "coalescing must collapse a reply burst into at most one wake"
    );
}
