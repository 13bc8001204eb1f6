//! Randomized MPMC stress for the channel core.
//!
//! Invariants checked on every run:
//!
//! * **No message lost** — everything sent is received exactly once.
//! * **No message duplicated** — same multiset, exact counts.
//! * **Per-producer FIFO** — a consumer never observes producer P's
//!   message k after P's message k+1 (checked per consumer).
//!
//! The workload is PCG-driven so failures are reproducible from the
//! printed seed: producers mix `send` with `try_send` retries,
//! consumers mix `recv`, `try_recv`, and batched `recv_many`, and
//! capacities include a non-power-of-two bound and unbounded bursts
//! thousands of messages deep.

use std::collections::HashMap;

use chanos_parchan::{chan_counter, channel, Capacity, Runtime, TrySendError};

/// Minimal PCG-32 (no external deps; parchan is dependency-free).
#[derive(Clone)]
struct Pcg {
    state: u64,
    inc: u64,
}

impl Pcg {
    fn new(seed: u64, stream: u64) -> Pcg {
        let mut p = Pcg {
            state: 0,
            inc: (stream << 1) | 1,
        };
        p.next();
        p.state = p.state.wrapping_add(seed);
        p.next();
        p
    }

    fn next(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(6364136223846793005).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n.max(1)
    }
}

/// One message: (producer id, per-producer sequence number).
type Msg = (u32, u32);

/// Runs `producers`x`consumers` over `cap` and checks the three
/// invariants. Returns the total number of messages moved.
fn stress(cap: Capacity, producers: u32, consumers: u32, per_producer: u32, seed: u64) -> u64 {
    let rt = Runtime::new(4);
    let (tx, rx) = channel::<Msg>(cap);

    let consumer_handles: Vec<_> = (0..consumers)
        .map(|c| {
            let rx = rx.clone();
            let mut rng = Pcg::new(seed ^ 0xC0, u64::from(c));
            rt.spawn(async move {
                let mut got: Vec<Msg> = Vec::new();
                let mut buf: Vec<Msg> = Vec::new();
                loop {
                    match rng.below(3) {
                        // Plain awaited receive.
                        0 => match rx.recv().await {
                            Ok(m) => got.push(m),
                            Err(_) => break,
                        },
                        // Opportunistic try_recv, fall back to recv.
                        1 => match rx.try_recv() {
                            Ok(m) => got.push(m),
                            Err(_) => match rx.recv().await {
                                Ok(m) => got.push(m),
                                Err(_) => break,
                            },
                        },
                        // Batched drain.
                        _ => {
                            let max = 1 + rng.below(16) as usize;
                            let n = rx.recv_many(&mut buf, max).await;
                            if n == 0 {
                                break;
                            }
                            assert!(n <= max, "recv_many overdrained: {n} > {max}");
                            got.append(&mut buf);
                        }
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);

    let producer_handles: Vec<_> = (0..producers)
        .map(|p| {
            let tx = tx.clone();
            let mut rng = Pcg::new(seed ^ 0xA511, u64::from(p));
            rt.spawn(async move {
                for i in 0..per_producer {
                    if rng.below(4) == 0 {
                        // try_send with awaited fallback.
                        match tx.try_send((p, i)) {
                            Ok(()) => {}
                            Err(TrySendError::Full(v)) => tx.send(v).await.expect("open"),
                            Err(TrySendError::Closed(_)) => panic!("closed under producer"),
                        }
                    } else {
                        tx.send((p, i)).await.expect("open");
                    }
                }
            })
        })
        .collect();
    drop(tx);

    for p in producer_handles {
        p.join_blocking().expect("producer ok");
    }
    let mut all: Vec<Msg> = Vec::new();
    for c in consumer_handles {
        let got = c.join_blocking().expect("consumer ok");
        // Per-producer FIFO within one consumer's stream.
        let mut last: HashMap<u32, u32> = HashMap::new();
        for &(p, i) in &got {
            if let Some(prev) = last.insert(p, i) {
                assert!(
                    prev < i,
                    "per-producer FIFO violated: consumer saw p{p}:{i} after p{p}:{prev}"
                );
            }
        }
        all.extend(got);
    }
    rt.shutdown();

    // No loss, no duplication.
    assert_eq!(
        all.len() as u64,
        u64::from(producers) * u64::from(per_producer),
        "message count off (seed {seed})"
    );
    all.sort_unstable();
    for p in 0..producers {
        for i in 0..per_producer {
            let idx = (p as usize) * (per_producer as usize) + i as usize;
            assert_eq!(all[idx], (p, i), "lost or duplicated message (seed {seed})");
        }
    }
    all.len() as u64
}

#[test]
fn mpmc_bounded_all_caps() {
    // Four seeds per capacity; Bounded(3) is a non-power-of-two
    // bound.
    for variant in [0, 10, 100, 110] {
        for (ci, cap) in [
            Capacity::Bounded(1),
            Capacity::Bounded(3),
            Capacity::Bounded(64),
        ]
        .into_iter()
        .enumerate()
        {
            stress(cap, 4, 4, 300, 0xB0 + variant + ci as u64);
        }
    }
}

#[test]
fn mpmc_unbounded_deep_bursts_keep_fifo() {
    // 4 producers x 2000 messages: the queue runs thousands deep
    // whenever consumers fall behind.
    for seed in [0xAB, 0xAC, 0xB5, 0xB6] {
        stress(Capacity::Unbounded, 4, 2, 2000, seed);
    }
}

#[test]
fn spsc_and_fan_shapes() {
    stress(Capacity::Bounded(8), 1, 1, 2000, 0x51);
    stress(Capacity::Unbounded, 8, 1, 250, 0x52);
    stress(Capacity::Bounded(4), 1, 8, 2000, 0x53);
}

#[test]
fn recv_many_batches_and_close() {
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<u32>(Capacity::Unbounded);
    let out = rt.block_on(async move {
        for i in 0..100u32 {
            tx.send(i).await.unwrap();
        }
        let mut buf = Vec::new();
        // Drains are capped at max and preserve order.
        let n = rx.recv_many(&mut buf, 64).await;
        assert_eq!(n, 64);
        let n2 = rx.recv_many(&mut buf, 64).await;
        assert_eq!(n2, 36);
        assert_eq!(buf, (0..100).collect::<Vec<_>>());
        // After close-and-drain, recv_many resolves 0.
        tx.close();
        let n3 = rx.recv_many(&mut buf, 8).await;
        assert_eq!(buf.len(), 100);
        n3
    });
    assert_eq!(out, 0);
    rt.shutdown();
}

#[test]
fn recv_many_wakes_on_late_send() {
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<u32>(Capacity::Bounded(8));
    let recv = rt.spawn(async move {
        let mut buf = Vec::new();
        let n = rx.recv_many(&mut buf, 8).await;
        (n, buf)
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    rt.block_on(async {
        tx.send(7).await.unwrap();
        tx.send(8).await.unwrap();
    });
    let (n, buf) = recv.join_blocking().unwrap();
    assert!(n >= 1, "a parked recv_many must wake on send");
    assert_eq!(buf[0], 7);
    rt.shutdown();
}

#[test]
fn try_recv_many_nonblocking() {
    let rt = Runtime::new(1);
    let (tx, rx) = channel::<u32>(Capacity::Bounded(16));
    rt.block_on(async {
        let mut buf = Vec::new();
        assert_eq!(rx.try_recv_many(&mut buf, 4), 0);
        for i in 0..6 {
            tx.send(i).await.unwrap();
        }
        assert_eq!(rx.try_recv_many(&mut buf, 4), 4);
        assert_eq!(rx.try_recv_many(&mut buf, 4), 2);
        assert_eq!(buf, vec![0, 1, 2, 3, 4, 5]);
        // Backpressure slots freed: a full channel accepts again.
        for i in 0..16 {
            tx.try_send(i).unwrap();
        }
        assert!(tx.try_send(99).is_err());
        assert_eq!(rx.try_recv_many(&mut buf, 16), 16);
        assert!(tx.try_send(99).is_ok());
    });
    rt.shutdown();
}

#[test]
fn cancelled_recv_futures_pass_the_wake() {
    // A recv future that wins a wake but is dropped before polling
    // (the choose! loser case) must not strand the message.
    let rt = Runtime::new(4);
    let (tx, rx) = channel::<u32>(Capacity::Bounded(4));
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let rx = rx.clone();
            rt.spawn(async move {
                let mut got = 0u64;
                loop {
                    // Race two receives; the loser's future drops
                    // registered.
                    let a = rx.recv();
                    let b = rx.recv();
                    let r = match chanos_parchan::race(a, b).await {
                        chanos_parchan::Either::Left(r) => r,
                        chanos_parchan::Either::Right(r) => r,
                    };
                    match r {
                        Ok(_) => got += 1,
                        Err(_) => break,
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);
    rt.block_on(async {
        for i in 0..600u32 {
            tx.send(i).await.unwrap();
        }
    });
    drop(tx);
    let total: u64 = consumers
        .into_iter()
        .map(|c| c.join_blocking().unwrap())
        .sum();
    assert_eq!(total, 600, "cancelled futures stranded messages");
    rt.shutdown();
}

#[test]
fn debug_never_blocks() {
    let (tx, rx) = channel::<u32>(Capacity::Bounded(2));
    tx.try_send(1).unwrap();
    let s = format!("{tx:?} {rx:?}");
    assert!(s.contains("Sender") && s.contains("Receiver"));
    // Debug under a held lock must not deadlock — exercised by
    // formatting from another thread while ops run; here the cheap
    // smoke is that a rendezvous channel formats at all.
    let (tx, _rx) = channel::<u32>(Capacity::Rendezvous);
    let _ = format!("{tx:?}");
}

#[test]
fn fast_path_counters_move() {
    // Sends and receives that never park count as fast, awaited or
    // not (ports submit through `try_send`).
    let fast = || {
        (
            chan_counter("chan.fast_sends"),
            chan_counter("chan.fast_recvs"),
        )
    };
    let before = fast();
    let rt = Runtime::new(1);
    let (tx, rx) = channel::<u32>(Capacity::Bounded(64));
    rt.block_on(async {
        for i in 0..50 {
            tx.send(i).await.unwrap();
        }
        for _ in 0..50 {
            rx.recv().await.unwrap();
        }
    });
    rt.shutdown();
    let awaited = fast();
    assert!(
        awaited.0 >= before.0 + 50 && awaited.1 >= before.1 + 50,
        "uncontended bounded sends and receives should all take the fast path"
    );
    for i in 0..50 {
        tx.try_send(i).unwrap();
    }
    for i in 0..50 {
        assert_eq!(rx.try_recv(), Ok(i));
    }
    let tried = fast();
    assert!(
        tried.0 >= awaited.0 + 50 && tried.1 >= awaited.1 + 50,
        "successful try_send/try_recv should count as fast"
    );
}

#[test]
fn reply_burst_coalesces_wakes_for_one_peer() {
    use chanos_parchan::{coalesce_wakes, join_all, Sender};
    // A server answering a drained burst of requests inside a
    // coalesce_wakes scope must wake a peer with several outstanding
    // replies once per burst, not once per reply.
    let rt = Runtime::new(2);
    let (req_tx, req_rx) = chanos_parchan::channel::<Sender<u64>>(Capacity::Unbounded);
    let server = rt.spawn(async move {
        let mut buf: Vec<Sender<u64>> = Vec::new();
        loop {
            let n = req_rx.recv_many(&mut buf, 64).await;
            if n == 0 {
                break;
            }
            coalesce_wakes(|| {
                for reply in buf.drain(..) {
                    let _ = reply.try_send(7);
                }
            });
        }
    });
    let before = chan_counter("chan.reply_wakes_coalesced");
    rt.block_on(async {
        for _ in 0..200 {
            // Pipeline 16 calls, then await all replies: the replies
            // land while this task is parked on all 16 channels.
            let mut replies = Vec::new();
            for _ in 0..16 {
                let (rtx, rrx) = chanos_parchan::channel::<u64>(Capacity::Bounded(1));
                req_tx.send(rtx).await.unwrap();
                replies.push(rrx);
            }
            let futs: Vec<_> = replies.iter().map(|r| r.recv()).collect();
            for v in join_all(futs).await {
                assert_eq!(v.unwrap(), 7);
            }
        }
    });
    drop(req_tx);
    server.join_blocking().unwrap();
    assert!(
        chan_counter("chan.reply_wakes_coalesced") > before,
        "bursts of same-peer replies must coalesce at least once"
    );
    rt.shutdown();
}
