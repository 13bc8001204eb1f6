//! Model of the executor's park/unpark Dekker pair.
//!
//! mirrors: `parchan/src/executor.rs` — `worker_loop`'s park tail
//! (`IdleSet::register` → SeqCst fence → `RtInner::has_work`
//! re-sweep) against `RtInner::notify_work` (publish → SeqCst fence
//! → idle-mask scan → wake). `msgs` stands for the run queues and
//! `recv_parked` for the worker's idle bit.
//!
//! The invariant under test is the one the `worker_loop` comment
//! states: *either the producer observes the registration (and
//! wakes), or the parker's re-check observes the work*. Both sides
//! being SeqCst (register → fence → re-check vs publish → fence →
//! scan) is what makes the "both miss" outcome impossible; every
//! mutant here re-creates a way for both to miss, and the checker
//! reports it as the parked-forever deadlock (the lost wake).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{fence, AtomicUsize};
use crate::thread;

/// Seeded bugs for [`parking_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocol.
    None,
    /// Consumer parks without the post-register re-pop: a message
    /// published between its failed pop and its registration is never
    /// noticed by either side.
    ConsumerNoRecheck,
    /// Producer scans the parked count *before* publishing: a
    /// consumer registering between scan and publish sleeps through
    /// the message.
    ProducerScanBeforePublish,
    /// Both sides keep their program order but drop the SeqCst fences
    /// to Relaxed-ordered operations. Under the checker's
    /// sequentially-consistent exploration this VERIFIES — documenting
    /// precisely why the fences must stay SeqCst in the real code:
    /// the bug this pair prevents is a weak-memory reordering, which
    /// only TSan/hardware can witness. See the module docs.
    RelaxedDekker,
}

struct Chan {
    /// Published work (stands in for the run queues).
    msgs: AtomicUsize,
    /// The idle registration (stands in for the worker's idle bit).
    recv_parked: AtomicUsize,
}

/// One producer publishes `n_msgs` items with the `notify_work`
/// wake protocol; the consumer (model root, thread 0) takes them with
/// the register-then-recheck park protocol. Every schedule must
/// deliver all items with nobody left parked.
pub fn parking_model(mutant: Mutant, n_msgs: usize) {
    let ch = Arc::new(Chan {
        msgs: AtomicUsize::new(0),
        recv_parked: AtomicUsize::new(0),
    });
    let (load_ord, rmw_ord) = if mutant == Mutant::RelaxedDekker {
        (Ordering::Relaxed, Ordering::Relaxed)
    } else {
        (Ordering::SeqCst, Ordering::SeqCst)
    };

    let pch = ch.clone();
    let consumer_tid = 0; // the model root runs the consumer below
    let producer = thread::spawn(move || {
        for _ in 0..n_msgs {
            if mutant == Mutant::ProducerScanBeforePublish {
                // BUG (seeded): scan-then-publish.
                let parked = pch.recv_parked.load(load_ord) > 0;
                pch.msgs.fetch_add(1, rmw_ord);
                if parked {
                    thread::unpark(consumer_tid);
                }
            } else {
                // `notify_work`: publish, fence, scan, wake-if-parked.
                pch.msgs.fetch_add(1, rmw_ord);
                if mutant != Mutant::RelaxedDekker {
                    fence(Ordering::SeqCst);
                }
                if pch.recv_parked.load(load_ord) > 0 {
                    thread::unpark(consumer_tid);
                }
            }
        }
    });

    // Consumer: fast pop, else register → fence → re-pop → park.
    let try_pop = |ch: &Chan| -> bool {
        let mut cur = ch.msgs.load(load_ord);
        while cur > 0 {
            match ch.msgs.compare_exchange(cur, cur - 1, rmw_ord, load_ord) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    };
    let mut got = 0;
    while got < n_msgs {
        if try_pop(&ch) {
            got += 1;
            continue;
        }
        // Register as idle (`IdleSet::register`), then re-check
        // behind the fence that pairs with the producer's.
        ch.recv_parked.fetch_add(1, rmw_ord);
        if mutant != Mutant::RelaxedDekker {
            fence(Ordering::SeqCst);
        }
        if mutant != Mutant::ConsumerNoRecheck && try_pop(&ch) {
            // Deregister (`IdleSet::deregister`); a wake already sent
            // to us becomes a stale token the next park shrugs off.
            ch.recv_parked.fetch_sub(1, rmw_ord);
            got += 1;
            continue;
        }
        thread::park();
        ch.recv_parked.fetch_sub(1, rmw_ord);
    }
    producer.join();
    assert_eq!(
        ch.recv_parked.load(Ordering::SeqCst),
        0,
        "registration leaked"
    );
}
