//! `kv_zipf`: the sharded KV service under zipf load, driven through
//! `KvClient::get_many`/`set_many` by the benchmark's own clients.
//!
//! Two phases. The open phase offers a fixed 200k ops/s: each client
//! sends a burst on a timeline (`due += gap`), and every operation's
//! latency runs from its burst's *due* time, so a late generator or a
//! slow burst shows in the latency instead of lowering the offered
//! load. The closed phase sends the next burst as soon as the last
//! one resolved and gives the throughput. The two phases alternate in
//! one-second slices, so a host stall of a few seconds spoils some
//! windows of each phase rather than every window of one.

use std::sync::Arc;

use chanos_rt::{self as rt, Pcg32};
use chanos_serve::{spawn_kv, KvCfg, KvClient, Zipf};

use crate::counters::Counters;
use crate::probe;
use crate::stats::{Hist, Recorder};
use crate::trace::Tracer;
use crate::{Args, Checked, Report, Stop, Threads};

const KEYS: usize = 10_000;
const VAL_LEN: usize = 64;
const THETA: f64 = 0.99;
const SET_PERCENT: u64 = 10;
const CLIENTS: usize = 2;
const BURST: usize = 8;
/// Offered load of the open phase, ops/s over all clients.
const OPEN_RATE: u64 = 200_000;
/// Closed-loop operations run during set-up to warm the shards.
const WARMUP_OPS: u64 = 40_000;
/// Statistics windows. Stalls of a few milliseconds, which the open
/// loop turns into queueing delay, came several times a second on a
/// shared 2-vCPU VM: about 40% of quarter-second windows held one, so
/// their median p99 flipped between runs. About 16% of 50-ms windows
/// do, and each still holds 10k samples.
const WINDOW_NS: u64 = 50_000_000;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// Writer id 0 is the preload; client `c` writes as `c + 1`.
fn fill(key: u64, writer: u8) -> u8 {
    ((key.wrapping_mul(0x9E37_79B9) >> 7) as u8) ^ writer.wrapping_mul(0x5B)
}

/// The 64-byte value `writer` stores under `key`: the key, the
/// writer id, then a fill byte derived from both.
fn value(key: u64, writer: u8) -> Vec<u8> {
    let mut v = vec![fill(key, writer); VAL_LEN];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8] = writer;
    v
}

/// Whether `v` is a value some valid writer stored under `key`.
fn valid(key: u64, v: &[u8]) -> bool {
    v.len() == VAL_LEN
        && v[..8] == key.to_le_bytes()
        && usize::from(v[8]) <= CLIENTS
        && v[9..].iter().all(|&b| b == fill(key, v[8]))
}

struct Kv {
    kv: KvClient,
    zipf: Arc<Zipf>,
}

/// What one client saw in one phase.
struct ClientOut {
    rec: Recorder,
    in_phase: u64,
    checked: Checked,
    /// Issue time minus due time, per burst (open phase).
    gen_late: Hist,
    /// Wake time minus due time, per burst that slept.
    sleep_late: Hist,
    bursts: u64,
    tracer: Tracer,
}

impl ClientOut {
    /// Adds another client's results for the same phase.
    fn merge(&mut self, o: ClientOut) {
        self.add(o, Recorder::merge);
    }

    /// Adds the results of a later slice of the same phase.
    fn then(&mut self, o: ClientOut) {
        self.add(o, Recorder::append);
    }

    fn add(&mut self, mut o: ClientOut, rec: fn(&mut Recorder, Recorder)) {
        rec(&mut self.rec, o.rec);
        self.in_phase += o.in_phase;
        self.checked.add(&mut o.checked);
        self.gen_late.merge(&o.gen_late);
        self.sleep_late.merge(&o.sleep_late);
        self.bursts += o.bursts;
        self.tracer.merge(o.tracer);
    }
}

#[derive(Clone, Copy)]
struct Phase {
    /// Input stream; each phase draws different keys.
    stream: u64,
    /// Per-client gap between bursts in ns; 0 = closed loop.
    gap: u64,
    t0: u64,
    end: u64,
    seed: u64,
    trace: bool,
}

async fn client(kv: Arc<Kv>, c: usize, ph: Phase) -> ClientOut {
    let mut rng = Pcg32::with_stream(ph.seed, ph.stream * 16 + c as u64 + 1);
    let writer = c as u8 + 1;
    let mut out = ClientOut {
        rec: Recorder::new(ph.t0, ph.end, WINDOW_NS),
        in_phase: 0,
        checked: Checked::default(),
        gen_late: Hist::new(),
        sleep_late: Hist::new(),
        bursts: 0,
        tracer: Tracer::new(ph.trace, c as u64 + 1),
    };
    // Stagger the clients' timelines evenly over one gap.
    let mut due = ph.t0 + ph.gap * c as u64 / CLIENTS as u64;
    let (mut gets, mut sets) = (Vec::with_capacity(BURST), Vec::with_capacity(BURST));
    loop {
        gets.clear();
        sets.clear();
        for _ in 0..BURST {
            let key = kv.zipf.sample(&mut rng);
            if rng.bounded(100) < SET_PERCENT {
                sets.push(key);
            } else {
                gets.push(key);
            }
        }
        let now = rt::now();
        if ph.gap == 0 {
            if now >= ph.end {
                break;
            }
            due = now;
        } else {
            if due >= ph.end {
                break;
            }
            if due > now {
                rt::sleep(due - now).await;
                out.sleep_late.record(rt::now().saturating_sub(due));
            }
        }
        let root = out.tracer.id();
        let burst_span = out.tracer.id();
        let issue = rt::now();
        out.gen_late.record(issue - due);
        let get_calls = kv.kv.get_many(&gets);
        let set_calls = kv
            .kv
            .set_many(sets.iter().map(|&k| (k, value(k, writer))).collect());
        let issued = rt::now();
        out.checked.attempted += BURST as u64;
        out.bursts += 1;
        let mut last = issued;
        for (&key, call) in gets.iter().zip(get_calls) {
            match call.await {
                Ok(Some(v)) if valid(key, &v) => {}
                Ok(other) => out
                    .checked
                    .bad
                    .push(format!("GET {key} returned {other:?}")),
                Err(_) => out.checked.failed += 1,
            }
            last = rt::now();
            out.rec.record(last, last - due);
        }
        for (&key, call) in sets.iter().zip(set_calls) {
            match call.await {
                Ok(true) => {}
                Ok(false) => out
                    .checked
                    .bad
                    .push(format!("SET {key}: preloaded key was missing")),
                Err(_) => out.checked.failed += 1,
            }
            last = rt::now();
            out.rec.record(last, last - due);
        }
        if last < ph.end {
            out.in_phase += BURST as u64;
        }
        let tr = &mut out.tracer;
        tr.leaf("serve.kv_issue", burst_span, root, issue, issued);
        tr.record(burst_span, "serve.kv_burst", root, root, issue, last);
        tr.record(root, "bench.burst", 0, root, due, last);
        if ph.gap > 0 {
            due += ph.gap;
        }
    }
    out
}

async fn run_phase(kv: Arc<Kv>, ph: Phase) -> ClientOut {
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| rt::spawn(client(kv.clone(), c, ph)))
        .collect();
    let mut all: Option<ClientOut> = None;
    for h in handles {
        let o = h.join().await.expect("kv client task ended");
        match &mut all {
            Some(a) => a.merge(o),
            None => all = Some(o),
        }
    }
    all.expect("at least one client")
}

fn phase(seed: u64, stream: u64, gap: u64, secs: f64, trace: bool) -> Phase {
    let t0 = rt::now();
    Phase {
        stream,
        gap,
        t0,
        end: t0 + (secs * 1e9) as u64,
        seed,
        trace,
    }
}

async fn setup(seed: u64) -> Arc<Kv> {
    let kv = spawn_kv(KvCfg::default());
    for chunk in (0..KEYS as u64).collect::<Vec<_>>().chunks(256) {
        for call in kv.set_many(chunk.iter().map(|&k| (k, value(k, 0))).collect()) {
            assert!(!call.await.expect("preload SET"), "preload keys are fresh");
        }
    }
    let kv = Arc::new(Kv {
        kv,
        zipf: Arc::new(Zipf::new(KEYS, THETA)),
    });
    // Warm-up: a closed loop over the same mix, on its own stream.
    let warm = Phase {
        stream: 0,
        gap: 0,
        t0: rt::now(),
        end: u64::MAX,
        seed,
        trace: false,
    };
    let mut done = 0;
    while done < WARMUP_OPS {
        let o = run_phase(
            kv.clone(),
            Phase {
                end: rt::now() + 2_000_000,
                ..warm
            },
        )
        .await;
        assert!(
            o.checked.bad.is_empty() && o.checked.failed == 0,
            "warm-up failed: {:?}",
            o.checked.bad.first()
        );
        done += o.checked.attempted;
    }
    kv
}

/// Runs `kv_zipf` and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let th = Threads::start(SETUPS, |rt| rt.block_on(setup(args.seed)), report);
    let kv = th.state.clone();
    let secs = args.seconds as f64;
    // One burst of BURST ops per client every `gap` ns.
    let gap = 1_000_000_000 * (BURST * CLIENTS) as u64 / OPEN_RATE;
    let seed = args.seed;
    if !args.trace {
        let pairs = (args.seconds / 2).max(1);
        let slice = secs / (2 * pairs) as f64;
        let (mut open, mut closed) = th.rt.block_on(async {
            let mut open = run_phase(kv.clone(), phase(seed, 1, gap, slice, false)).await;
            let mut closed = run_phase(kv.clone(), phase(seed, 2, 0, slice, false)).await;
            for i in 1..pairs {
                let stream = 1 + 2 * i;
                open.then(run_phase(kv.clone(), phase(seed, stream, gap, slice, false)).await);
                closed.then(run_phase(kv.clone(), phase(seed, stream + 1, 0, slice, false)).await);
            }
            (open, closed)
        });
        report.checked.add(&mut open.checked);
        report.checked.add(&mut closed.checked);
        let lat = open.rec.summary(open.in_phase);
        let thr = closed.rec.summary(closed.in_phase);
        report.metric("ops_per_s", thr.rate_windowed);
        report.metric_n("p50_us", lat.p50_ns / 1e3, lat.samples);
        report.metric_n("p99_us", lat.p99_windowed_ns / 1e3, lat.samples);
        report.note(format!(
            "{pairs} open and {pairs} closed slices of {slice} s; open: {} ops offered at {OPEN_RATE}/s; whole-phase p99 {:.2} us; p99_us is the median of the 50-ms windows' p99s {:?}; closed: ops_per_s is the median of the windows' rates {:?}, {:.0} ops/s over the whole phase",
            lat.samples,
            lat.p99_ns / 1e3,
            lat.window_p99_us,
            thr.window_rates,
            thr.rate
        ));
        th.finish(report);
        return;
    }
    // Traced run: an untraced closed phase for the overhead ratio,
    // traced open and closed phases between counter snapshots, then
    // probes while an untraced closed loop keeps the pool busy.
    let quarter = secs / 4.0;
    let (mut base, mut open, mut closed, mut load, counters, mut probes) = th.rt.block_on(async {
        let base = run_phase(kv.clone(), phase(seed, 1, 0, quarter, false)).await;
        let before = Counters::take(rt::stat_get);
        let open = run_phase(kv.clone(), phase(seed, 2, gap, quarter, true)).await;
        let closed = run_phase(kv.clone(), phase(seed, 3, 0, quarter, true)).await;
        let counters = Counters::take(rt::stat_get).since(&before);
        let ph = phase(seed, 4, 0, quarter, false);
        let load = rt::spawn(run_phase(kv.clone(), ph));
        let probes = probe::run(None, seed, Stop::At(ph.end)).await;
        let load = load.join().await.expect("load task ended");
        (base, open, closed, load, counters, probes)
    });
    for o in [&mut base, &mut open, &mut closed, &mut load] {
        report.checked.add(&mut o.checked);
    }
    let (slept, bursts) = (open.sleep_late.count(), open.gen_late.count());
    let late = |h: &Hist, q| h.quantile(q) / 1e3;
    report.metric_n(
        "parchan.sleep_late_p50_us",
        late(&open.sleep_late, 0.5),
        slept,
    );
    report.metric_n(
        "parchan.sleep_late_p99_us",
        late(&open.sleep_late, 0.99),
        slept,
    );
    report.metric_n("bench.gen_late_p99_us", late(&open.gen_late, 0.99), bursts);
    let ops = (open.checked.attempted + closed.checked.attempted) as f64;
    let mut spans = open.tracer;
    spans.merge(closed.tracer);
    report.span_median("serve.kv_issue_us", &spans, "serve.kv_issue");
    report.span_median("serve.kv_burst_us", &spans, "serve.kv_burst");
    report.layer_counters(&counters, ops);
    report.self_times(&spans, ops);
    report.trace_overhead(
        base.rec.summary(base.in_phase).rate_windowed,
        closed.rec.summary(closed.in_phase).rate_windowed,
    );
    report.probes(&mut probes);
    report.write_trace(args, &[&spans, &probes.tracer]);
    th.finish(report);
}
