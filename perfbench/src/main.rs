//! The chanos benchmark: whole workloads driven through the public
//! APIs, measured end to end, and split into layers in a traced run.
//!
//! ```text
//! chanos-perfbench --workload <kv_zipf|syscall_hot|fs_cold|sim_os> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics, and writes the spans it recorded to
//! `<out>/trace-<workload>.tsv`. Lines before the last one are
//! human-readable notes (sample counts, whole-run figures); the last
//! line is one JSON object. Every operation's answer is checked; the
//! exit code is non-zero when any check or operation failed.

mod counters;
mod kv;
mod os;
mod probe;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use chanos_parchan::Runtime;

use counters::Counters;
use probe::ProbeOut;
use trace::Tracer;

/// End-to-end metrics, reported with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("parchan.spawn_poll_us", "us"),
    ("parchan.sleep_late_p50_us", "us"),
    ("parchan.sleep_late_p99_us", "us"),
    ("parchan.steals_per_kop", "count"),
    ("parchan.wakes_local_frac", "frac"),
    ("parchan.chan_slow_send_frac", "frac"),
    ("parchan.drain_batch", "count"),
    ("rt.echo_rtt_us", "us"),
    ("rt.echo_batch8_us", "us"),
    ("rt.call_failures", "count"),
    ("serve.kv_issue_us", "us"),
    ("serve.kv_burst_us", "us"),
    ("serve.kv_reqs_per_burst", "count"),
    ("serve.self_us_per_op", "us"),
    ("kernel.getpid_us", "us"),
    ("kernel.open_us", "us"),
    ("kernel.read_us", "us"),
    ("kernel.write_us", "us"),
    ("kernel.close_us", "us"),
    ("kernel.syscalls_per_op", "count"),
    ("kernel.self_us_per_op", "us"),
    ("nr.alive_us", "us"),
    ("nr.local_reads_per_op", "count"),
    ("nr.catch_ups_per_kop", "count"),
    ("nr.ops_per_append", "count"),
    ("vfs.lookup_us", "us"),
    ("vfs.read_us", "us"),
    ("vfs.write_us", "us"),
    ("vfs.cache_hit_ratio", "frac"),
    ("vfs.vnodes_spawned", "count"),
    ("drivers.read_batch_us", "us"),
    ("drivers.blocks_read_per_op", "count"),
    ("drivers.blocks_written_per_op", "count"),
    ("drivers.bursts_sorted_per_op", "count"),
    ("drivers.seek_saved_per_op", "count"),
    ("sim.host_ops_per_s", "ops/s"),
    ("sim.host_setup_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.polls_per_op", "count"),
    ("sim.csp_sends_per_op", "count"),
    ("sim.hops_per_send", "count"),
    ("sim.virtual_cycles_per_op", "cycles"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.self_us_per_op", "us"),
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Workload seed: every input is drawn from it.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".");
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--out" => out = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        out,
    })
}

/// When a closed loop or a probe loop stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this runtime time.
    At(u64),
    /// After this many iterations.
    After(u64),
}

impl Stop {
    /// Whether iteration `done + 1` may start at time `now`.
    pub fn more(self, done: u64, now: u64) -> bool {
        match self {
            Stop::At(t) => now < t,
            Stop::After(n) => done < n,
        }
    }
}

/// What the checks of some operations found.
#[derive(Default)]
pub struct Checked {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or never resolved.
    pub failed: u64,
    /// Wrong answers.
    pub bad: Vec<String>,
}

impl Checked {
    /// Moves `o`'s counts and wrong answers into `self`.
    pub fn add(&mut self, o: &mut Checked) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.bad.append(&mut o.bad);
    }
}

/// Everything a run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Every operation's outcome.
    pub checked: Checked,
    metrics: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, u64>,
    notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// Sets a metric derived from `n` samples.
    pub fn metric_n(&mut self, name: &'static str, v: f64, n: u64) {
        self.metric(name, v);
        self.samples.insert(name, n);
    }

    /// Sets a metric to the median duration, in microseconds, of the
    /// spans called `span`.
    pub fn span_median(&mut self, name: &'static str, tr: &Tracer, span: &str) {
        let mut d = tr.durations(span);
        if !d.is_empty() {
            self.metric_n(name, stats::median_us(&mut d), d.len() as u64);
        }
    }

    /// Adds a human-readable line to the output.
    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Per-op ratios and fractions from the counters of the traced
    /// window, over `ops` completed operations.
    pub fn layer_counters(&mut self, c: &Counters, ops: f64) {
        let wakes = c.sum(&[
            "sched.wakes_local",
            "sched.wakes_injector",
            "sched.wakes_pinned",
        ]);
        let sends = c.sum(&["chan.fast_sends", "chan.slow_sends"]);
        let lookups = c.sum(&["cache.hits", "cache.misses"]);
        let per_op = |n: &str| c.ratio(n, ops);
        let m = [
            ("parchan.steals_per_kop", 1e3 * per_op("sched.steals")),
            (
                "parchan.wakes_local_frac",
                c.ratio("sched.wakes_local", wakes),
            ),
            (
                "parchan.chan_slow_send_frac",
                c.ratio("chan.slow_sends", sends),
            ),
            (
                "parchan.drain_batch",
                c.ratio("chan.recv_many_msgs", c.get("chan.recv_many_calls")),
            ),
            (
                "rt.call_failures",
                c.sum(&[
                    "port.calls_cancelled",
                    "port.calls_timed_out",
                    "port.calls_dropped_at_submit",
                ]),
            ),
            (
                "serve.kv_reqs_per_burst",
                c.sum(&["serve.kv_gets", "serve.kv_sets"]) / c.get("serve.kv_bursts").max(1.0),
            ),
            ("kernel.syscalls_per_op", per_op("kernel.syscalls")),
            ("nr.local_reads_per_op", per_op("nr.local_reads")),
            ("nr.catch_ups_per_kop", 1e3 * per_op("nr.catch_ups")),
            (
                "nr.ops_per_append",
                c.ratio("nr.append_ops", c.get("nr.log_appends")),
            ),
            ("vfs.cache_hit_ratio", c.ratio("cache.hits", lookups)),
            ("vfs.vnodes_spawned", c.get("msgfs.vnode_threads_spawned")),
            ("drivers.blocks_read_per_op", per_op("disk.reads")),
            ("drivers.blocks_written_per_op", per_op("disk.writes")),
            ("drivers.bursts_sorted_per_op", per_op("disk.bursts_sorted")),
            (
                "drivers.seek_saved_per_op",
                per_op("disk.seek_distance_saved"),
            ),
            ("sim.events_per_op", per_op("sim.events")),
            ("sim.polls_per_op", per_op("sim.polls")),
            ("sim.csp_sends_per_op", per_op("csp.sends")),
            ("sim.hops_per_send", c.ratio("csp.hops", c.get("csp.sends"))),
        ];
        for (name, v) in m {
            self.metric(name, v);
        }
        if lookups == 0.0 {
            self.note("no buffer-cache lookups in the traced window".to_string());
        }
    }

    /// Checks that a traced run stressed the layers its workload was
    /// chosen for: the drivers stay idle and the buffer cache always
    /// hits on the hot mix, while `fs_cold` mostly misses and reaches
    /// the disk. A change to the cache size or the file layout that
    /// turns one workload into the other fails the run.
    fn check_layers(&mut self, workload: &str) {
        let m = |n: &str| self.metrics.get(n).copied().unwrap_or(0.0);
        let io = [
            "drivers.blocks_read_per_op",
            "drivers.blocks_written_per_op",
            "drivers.bursts_sorted_per_op",
            "drivers.seek_saved_per_op",
        ]
        .map(m);
        let hit = m("vfs.cache_hit_ratio");
        let idle = io.iter().all(|&v| v == 0.0);
        let ok = match workload {
            "kv_zipf" => idle,
            "syscall_hot" | "sim_os" => idle && hit == 1.0,
            "fs_cold" => io[0] > 0.0 && io[1] > 0.0 && hit < 0.6,
            _ => true,
        };
        if !ok {
            self.checked.bad.push(format!(
                "{workload} missed its layers: drivers blocks read, written, bursts sorted, seek saved per op {io:?}; cache hit ratio {hit}"
            ));
        }
    }

    /// Each layer's self time per op, from the workload's spans.
    pub fn self_times(&mut self, tr: &Tracer, ops: f64) {
        for (layer, ns) in tr.self_time_by_layer() {
            let name = match layer {
                "bench" => "bench.self_us_per_op",
                "serve" => "serve.self_us_per_op",
                "kernel" => "kernel.self_us_per_op",
                _ => continue,
            };
            self.metric(name, ns as f64 / 1e3 / ops.max(1.0));
        }
    }

    /// `bench.trace_overhead_frac` from the untraced and traced rates.
    pub fn trace_overhead(&mut self, untraced: f64, traced: f64) {
        self.metric("bench.trace_overhead_frac", 1.0 - traced / untraced);
        self.note(format!("ops/s untraced {untraced:.1}, traced {traced:.1}"));
    }

    /// Median duration of each probe.
    pub fn probes(&mut self, p: &mut ProbeOut) {
        for (span, metric) in [
            ("parchan.spawn_poll", "parchan.spawn_poll_us"),
            ("rt.echo_rtt", "rt.echo_rtt_us"),
            ("rt.echo_batch8", "rt.echo_batch8_us"),
            ("nr.alive", "nr.alive_us"),
            ("vfs.lookup", "vfs.lookup_us"),
            ("vfs.read", "vfs.read_us"),
            ("vfs.write", "vfs.write_us"),
            ("drivers.read_batch", "drivers.read_batch_us"),
        ] {
            self.span_median(metric, &p.tracer, span);
        }
        self.checked.add(&mut p.checked);
    }

    /// Writes the spans of a traced run to `<out>/trace-<workload>.tsv`,
    /// replacing the previous traced run's file.
    pub fn write_trace(&mut self, args: &Args, tracers: &[&Tracer]) {
        let path = args.out.join(format!("trace-{}.tsv", args.workload));
        match std::fs::create_dir_all(&args.out).and_then(|()| trace::write_tsv(&path, tracers)) {
            Ok(n) => self.note(format!("{n} spans written to {}", path.display())),
            Err(e) => self
                .checked
                .bad
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    /// Prints the notes and the result line; returns whether the run
    /// passed every check.
    fn print(mut self, trace: bool) -> bool {
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        let mut json = Vec::new();
        let mut missing = Vec::new();
        for &(name, unit) in wanted {
            let v = self.metrics.get(name).copied().unwrap_or_else(|| {
                missing.push(name);
                0.0
            });
            let v = if v.is_finite() { v } else { 0.0 };
            match self.samples.get(name) {
                Some(n) => println!("metric {name} = {v} {unit} (n={n})"),
                None => println!("metric {name} = {v} {unit}"),
            }
            json.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if !missing.is_empty() {
            self.note(format!(
                "not exercised by this workload, reported as 0: {}",
                missing.join(", ")
            ));
        }
        let failed_frac = self.checked.failed as f64 / self.checked.attempted.max(1) as f64;
        self.note(format!(
            "failed_frac = {failed_frac} ({} of {} operations failed, {} wrong answers)",
            self.checked.failed,
            self.checked.attempted,
            self.checked.bad.len()
        ));
        for n in &self.notes {
            println!("# {n}");
        }
        for b in self.checked.bad.iter().take(10) {
            println!("# CHECK FAILED: {b}");
        }
        let correct =
            self.checked.bad.is_empty() && self.checked.failed == 0 && self.checked.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checked.attempted,
            self.checked.failed,
            json.join(", ")
        );
        correct
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Runtime workers: one per available core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// A threads-backend runtime with its workload set up.
pub struct Threads<S> {
    /// The runtime that runs the measurement.
    pub rt: Runtime,
    /// What set-up built.
    pub state: S,
}

impl<S> Threads<S> {
    /// Starts a runtime and runs `setup` on it `n` times, tearing down
    /// all but the last, and reports the median set-up time.
    pub fn start(n: usize, setup: impl Fn(&Runtime) -> S, report: &mut Report) -> Threads<S> {
        let mut times = Vec::with_capacity(n);
        let mut last = None;
        for i in 0..n {
            let t = Instant::now();
            let rt = Runtime::new(workers());
            let state = setup(&rt);
            times.push(t.elapsed().as_secs_f64());
            if i + 1 == n {
                last = Some(Threads { rt, state });
            } else {
                drop(state);
                rt.shutdown();
            }
        }
        let median = stats::median(&mut times.clone());
        report.metric_n("setup_s", median, n as u64);
        report.note(format!(
            "setup_s is the median of {n} set-ups: {times:.4?}; {} runtime workers",
            workers()
        ));
        last.expect("at least one set-up")
    }

    /// Records peak memory and shuts the runtime down.
    pub fn finish(self, report: &mut Report) {
        report.metric("peak_rss_mb", peak_rss_mb());
        drop(self.state);
        self.rt.shutdown();
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chanos-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "kv_zipf" => kv::run(&args, &mut report),
        "syscall_hot" => os::run_threads(os::HOT, 9, &args, &mut report),
        "fs_cold" => os::run_threads(os::COLD, 7, &args, &mut report),
        "sim_os" => os::run_sim(&args, &mut report),
        w => {
            eprintln!(
                "chanos-perfbench: unknown workload {w} (kv_zipf, syscall_hot, fs_cold, sim_os)"
            );
            std::process::exit(2);
        }
    }
    if args.trace {
        report.check_layers(&args.workload);
    }
    if !report.print(args.trace) {
        std::process::exit(1);
    }
}
