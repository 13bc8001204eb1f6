//! Channel microbench matrix: capacity x producers x consumers x
//! payload x drain batch on the `chanos-parchan` threads backend, plus
//! a worker-count sweep of the contended bounded case. Results print
//! as markdown and are recorded to `BENCH_chan.json` (override the
//! path with `CHANOS_BENCH_OUT`), stamped with the host's core count.
//! Every row is the median of [`TRIALS`] runs, recorded with the
//! fastest and slowest.
//!
//! Quick mode (`CHANOS_BENCH_MS` < 100, as in CI) shrinks the
//! message counts so the matrix stays a smoke test.

use std::time::Instant;

use chanos_bench::harness::default_budget;
use chanos_parchan::{chan_counter, channel, reset_chan_counters, Capacity, Runtime};

#[derive(Clone)]
struct Case {
    cap: Capacity,
    producers: usize,
    consumers: usize,
    payload: usize,
    batch: usize,
}

/// Runs per row; the row reports their median.
const TRIALS: usize = 5;

struct Row {
    case: Case,
    workers: usize,
    msgs: u64,
    /// Wall time of each trial, fastest first.
    nanos: Vec<u128>,
}

impl Row {
    fn rate(&self, nanos: u128) -> f64 {
        self.msgs as f64 / (nanos as f64 / 1e9)
    }

    fn msgs_per_sec(&self) -> f64 {
        self.rate(self.nanos[self.nanos.len() / 2])
    }

    /// `(slowest, fastest)` trial rate.
    fn range(&self) -> (f64, f64) {
        (
            self.rate(self.nanos[self.nanos.len() - 1]),
            self.rate(self.nanos[0]),
        )
    }
}

fn cap_name(c: Capacity) -> String {
    match c {
        Capacity::Rendezvous => "rendezvous".into(),
        Capacity::Bounded(n) => format!("bounded({n})"),
        Capacity::Unbounded => "unbounded".into(),
    }
}

/// Moves `msgs_per_producer * producers` messages of type `T`
/// through one channel and returns the wall time in nanoseconds. The
/// payload constructor runs per message on the producer (a plain
/// `u64` for the 8-byte cases — no allocator noise — and an owned
/// `Vec` for the larger ones).
fn run_typed<T: Send + 'static>(
    case: &Case,
    workers: usize,
    msgs_per_producer: u64,
    make: impl Fn() -> T + Clone + Send + 'static,
) -> u128 {
    let rt = Runtime::new(workers);
    let (tx, rx) = channel::<T>(case.cap);
    let total = msgs_per_producer * case.producers as u64;

    let t0 = Instant::now();
    let consumers: Vec<_> = (0..case.consumers)
        .map(|_| {
            let rx = rx.clone();
            let batch = case.batch;
            rt.spawn(async move {
                let mut got = 0u64;
                if batch <= 1 {
                    while let Ok(v) = rx.recv().await {
                        std::hint::black_box(&v);
                        got += 1;
                    }
                } else {
                    let mut buf = Vec::with_capacity(batch);
                    loop {
                        let n = rx.recv_many(&mut buf, batch).await;
                        if n == 0 {
                            break;
                        }
                        for v in buf.drain(..) {
                            std::hint::black_box(&v);
                        }
                        got += n as u64;
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);
    let producers: Vec<_> = (0..case.producers)
        .map(|_| {
            let tx = tx.clone();
            let make = make.clone();
            rt.spawn(async move {
                for _ in 0..msgs_per_producer {
                    assert!(tx.send(make()).await.is_ok(), "channel closed early");
                }
            })
        })
        .collect();
    drop(tx);
    for p in producers {
        p.join_blocking().expect("producer");
    }
    let got: u64 = consumers
        .into_iter()
        .map(|c| c.join_blocking().expect("consumer"))
        .sum();
    let nanos = t0.elapsed().as_nanos();
    rt.shutdown();
    assert_eq!(got, total, "bench lost messages");
    nanos
}

fn run_case(case: &Case, workers: usize, msgs_per_producer: u64) -> Row {
    let mut nanos: Vec<u128> = (0..TRIALS)
        .map(|_| {
            if case.payload <= 8 {
                run_typed::<u64>(case, workers, msgs_per_producer, || 0xAB)
            } else {
                let payload = case.payload;
                run_typed::<Vec<u8>>(case, workers, msgs_per_producer, move || {
                    vec![0xAB; payload]
                })
            }
        })
        .collect();
    nanos.sort_unstable();
    Row {
        case: case.clone(),
        workers,
        msgs: msgs_per_producer * case.producers as u64,
        nanos,
    }
}

fn json_escape_free(s: &str) -> String {
    // All emitted strings are ASCII identifiers; keep it simple.
    s.replace('"', "'")
}

fn main() {
    let quick = default_budget() < std::time::Duration::from_millis(100);
    let msgs: u64 = if quick { 2_000 } else { 25_000 };

    let cases = [
        Case {
            cap: Capacity::Bounded(4),
            producers: 1,
            consumers: 1,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Bounded(64),
            producers: 1,
            consumers: 1,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Bounded(64),
            producers: 4,
            consumers: 4,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Bounded(64),
            producers: 4,
            consumers: 4,
            payload: 256,
            batch: 1,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 1,
            consumers: 1,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 4,
            consumers: 4,
            payload: 8,
            batch: 1,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 4,
            consumers: 4,
            payload: 8,
            batch: 32,
        },
        Case {
            cap: Capacity::Unbounded,
            producers: 4,
            consumers: 1,
            payload: 256,
            batch: 32,
        },
    ];

    println!("\n## Channel microbench (4 workers)\n");
    println!("| capacity | prod x cons | payload | drain | msgs/s (median) | min..max |");
    println!("|---|---|---|---|---|---|");

    reset_chan_counters();
    let mut rows: Vec<Row> = Vec::new();
    for case in &cases {
        let per_prod = msgs / case.producers as u64;
        let r = run_case(case, 4, per_prod);
        let (lo, hi) = r.range();
        println!(
            "| {} | {}x{} | {}B | {} | {:.0} | {lo:.0}..{hi:.0} |",
            cap_name(case.cap),
            case.producers,
            case.consumers,
            case.payload,
            case.batch,
            r.msgs_per_sec(),
        );
        rows.push(r);
    }

    // Worker-count scaling on the contended bounded case: the same
    // message volume at 1, 2, 4, and host_cores workers. Counts above
    // host_cores timeshare the cores, so only the rows up to it are a
    // scaling curve.
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut worker_counts = vec![1usize, 2, 4, host_cores.max(1)];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    let scaling_case = Case {
        cap: Capacity::Bounded(64),
        producers: 4,
        consumers: 4,
        payload: 8,
        batch: 1,
    };
    println!("\n## Worker-count scaling: bounded(64) 4p/4c, host_cores={host_cores}\n");
    println!("| workers | msgs/s (median) | min..max |");
    println!("|---|---|---|");
    let mut scaling_rows: Vec<Row> = Vec::new();
    for &w in &worker_counts {
        let per_prod = msgs / scaling_case.producers as u64;
        let r = run_case(&scaling_case, w, per_prod);
        let (lo, hi) = r.range();
        println!("| {w} | {:.0} | {lo:.0}..{hi:.0} |", r.msgs_per_sec());
        scaling_rows.push(r);
    }

    println!("\n## Channel path counters (whole run)\n");
    println!("| counter | value |");
    println!("|---|---|");
    for (name, v) in chanos_parchan::chan_counters() {
        println!("| {name} | {v} |");
    }

    // Record the run as JSON (hand-rolled; no serde in this build).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"bench\": \"chan_micro\",\n  \"quick\": {quick},\n  \"workers\": 4,\n  \"trials\": {TRIALS},\n"
    ));
    j.push_str(&format!(
        "  \"host_cores\": {host_cores},\n  \"backend\": \"threads\",\n"
    ));
    let emit_rows = |j: &mut String, rows: &[Row]| {
        for (i, r) in rows.iter().enumerate() {
            j.push_str(&format!(
                "    {{\"capacity\": \"{}\", \"producers\": {}, \"consumers\": {}, \
                 \"payload_bytes\": {}, \"drain_batch\": {}, \
                 \"workers\": {}, \"msgs\": {}, \"msgs_per_sec\": {:.1}, \
                 \"msgs_per_sec_min\": {:.1}, \"msgs_per_sec_max\": {:.1}}}{}\n",
                json_escape_free(&cap_name(r.case.cap)),
                r.case.producers,
                r.case.consumers,
                r.case.payload,
                r.case.batch,
                r.workers,
                r.msgs,
                r.msgs_per_sec(),
                r.range().0,
                r.range().1,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
    };
    j.push_str("  \"scaling\": [\n");
    emit_rows(&mut j, &scaling_rows);
    j.push_str("  ],\n  \"matrix\": [\n");
    emit_rows(&mut j, &rows);
    j.push_str("  ],\n  \"counters\": {\n");
    let counters = chanos_parchan::chan_counters();
    for (i, (name, v)) in counters.iter().enumerate() {
        j.push_str(&format!(
            "    \"{name}\": {v}{}\n",
            if i + 1 < counters.len() { "," } else { "" }
        ));
    }
    j.push_str("  }\n}\n");
    chanos_bench::harness::write_bench_json("CHANOS_BENCH_OUT", "BENCH_chan.json", &j);
    // Keep one counter alive for the linker regardless of matrix.
    std::hint::black_box(chan_counter("chan.fast_sends"));
}
