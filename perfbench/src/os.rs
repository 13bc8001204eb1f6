//! The booted message kernel: `syscall_hot`, `fs_cold` (threads) and
//! `sim_os` (simulator).
//!
//! Each process keeps several *chains* in flight. A chain is
//! `getpid` → `open` → a whole-file read (80%) or rewrite (20%) →
//! `close`, on a file drawn uniformly from the workload's set; its
//! latency runs from issue until `close` resolves. Every file is
//! written whole with one byte per writer, so a read must return the
//! full length filled, block by block, with a byte one of the
//! workload's writers wrote to that file.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use chanos_kernel::{boot, BootCfg, Env, FsKind, KernelKind, Os, Pid};
use chanos_rt::{self as rt, CoreId, Pcg32};
use chanos_sim::{Config, Simulation};

use crate::counters::Counters;
use crate::probe;
use crate::stats::{self, Recorder, WINDOW_NS};
use crate::trace::Tracer;
use crate::{Args, Checked, Report, Stop, Threads};

/// Kernel service cores on every backend.
const KERNEL_CORES: u32 = 2;
/// Chains in flight per process.
const CHAINS_PER_PROC: usize = 8;
/// Share of chains that rewrite their file, in percent.
const WRITE_PERCENT: u64 = 20;

/// The file set a workload runs over.
#[derive(Debug, Clone, Copy)]
pub struct FsSpec {
    /// Directories the files are spread over.
    pub dirs: usize,
    /// Files.
    pub files: usize,
    /// Bytes per file; every read and write covers the whole file.
    pub size: usize,
}

/// 64 files of 4 KiB: 64 blocks, 1/8 of the 512-block buffer cache.
pub const HOT: FsSpec = FsSpec {
    dirs: 1,
    files: 64,
    size: 4096,
};

/// 256 files of 32 KiB in 8 directories: 2048 blocks, 4x the cache.
pub const COLD: FsSpec = FsSpec {
    dirs: 8,
    files: 256,
    size: 32 * 1024,
};

impl FsSpec {
    /// Path of file `f`.
    pub fn path(&self, f: usize) -> String {
        format!("/d{}/f{f}", f % self.dirs)
    }
}

/// The fill byte `writer` uses for file `f`; writer 0 is the preload,
/// process `p` writes as `p + 1`.
fn fill(f: usize, writer: usize) -> u8 {
    1 + ((f * 37 + writer * 101) % 250) as u8
}

/// A booted kernel with the workload's files in place.
pub struct KernelWl {
    /// The booted OS.
    pub os: Os,
    /// The file set.
    pub spec: FsSpec,
    /// Inode of each file.
    pub inos: Vec<u64>,
    /// Processes that write (sets the valid fill bytes).
    pub procs: usize,
    /// A registered pid for the pid-table probe.
    pub probe_pid: Pid,
    /// Blocks on the disk.
    pub disk_blocks: u64,
}

impl KernelWl {
    /// The whole-file contents `writer` writes to file `f`.
    pub fn content(&self, f: usize, writer: usize) -> Vec<u8> {
        vec![fill(f, writer); self.spec.size]
    }

    /// Checks a whole-file read of file `f`.
    pub fn check(&self, f: usize, data: &[u8]) -> Result<(), String> {
        if data.len() != self.spec.size {
            return Err(format!(
                "read of file {f} returned {} of {} bytes",
                data.len(),
                self.spec.size
            ));
        }
        for block in data.chunks(chanos_drivers::BLOCK_SIZE) {
            let b = block[0];
            if !(0..=self.procs).any(|w| fill(f, w) == b) || block.iter().any(|&x| x != b) {
                return Err(format!("read of file {f} returned bytes no writer wrote"));
            }
        }
        Ok(())
    }
}

/// Boots the message kernel, formats MsgFs, writes every file and
/// warms the vnode tasks and the buffer cache with the chain mix.
pub async fn setup(spec: FsSpec, procs: usize, seed: u64, app_cores: Vec<CoreId>) -> Arc<KernelWl> {
    let cfg = BootCfg::new(
        KernelKind::Message,
        FsKind::Message,
        (0..KERNEL_CORES).map(CoreId).collect(),
    );
    let disk_blocks = cfg.disk_blocks;
    let os = boot(cfg).await;
    for d in 0..spec.dirs {
        os.vfs.mkdir(&format!("/d{d}")).await.expect("mkdir");
    }
    let mut inos = Vec::with_capacity(spec.files);
    for f in 0..spec.files {
        let ino = os.vfs.create(&spec.path(f)).await.expect("create");
        os.vfs
            .write(ino, 0, &vec![fill(f, 0); spec.size])
            .await
            .expect("preload write");
        inos.push(ino);
    }
    let probe_pid = os.procs.alloc("bench-probe", CoreId(0)).await.pid;
    let wl = Arc::new(KernelWl {
        os,
        spec,
        inos,
        procs,
        probe_pid,
        disk_blocks,
    });
    // Warm-up: every file read once, then the mix twice over the set.
    let env = wl.os.procs.env();
    for f in 0..spec.files {
        let fd = env.open(&spec.path(f)).await.expect("warm open");
        let data = env.read(fd, spec.size).await.expect("warm read");
        wl.check(f, &data).expect("preloaded contents");
        env.close(fd).await.expect("warm close");
    }
    let per_chain = (2 * spec.files / (procs * CHAINS_PER_PROC)).max(4) as u64;
    let warm = run_chains(
        wl.clone(),
        ChainCfg {
            app_cores,
            seed,
            stream: 0,
            stop: Stop::After(per_chain),
            t0: 0,
            end: WINDOW_NS,
            trace: false,
        },
    )
    .await;
    assert!(
        warm.tally.checked.bad.is_empty() && warm.tally.checked.failed == 0,
        "warm-up failed: {:?}",
        warm.tally.checked.bad.first()
    );
    wl
}

/// How one measured run of chains goes.
#[derive(Clone)]
pub struct ChainCfg {
    /// One process per core, in order.
    pub app_cores: Vec<CoreId>,
    /// Workload seed.
    pub seed: u64,
    /// Input stream; phases draw different files.
    pub stream: u64,
    /// When each chain stops issuing.
    pub stop: Stop,
    /// Phase start and end, for the windowed statistics.
    pub t0: u64,
    /// See `t0`.
    pub end: u64,
    /// Record spans.
    pub trace: bool,
}

/// What the chain tasks of one run counted.
pub struct Tally {
    /// Chains that completed before the phase end.
    pub in_phase: u64,
    /// Chains started, chains with a failed syscall, wrong answers.
    pub checked: Checked,
    /// Spans, if tracing.
    pub tracer: Tracer,
}

impl Tally {
    fn new(trace: bool, task: u64) -> Tally {
        Tally {
            in_phase: 0,
            checked: Checked::default(),
            tracer: Tracer::new(trace, task),
        }
    }

    fn merge(&mut self, mut o: Tally) {
        self.in_phase += o.in_phase;
        self.checked.add(&mut o.checked);
        self.tracer.merge(o.tracer);
    }
}

/// What a run of chains measured.
pub struct ChainOut {
    /// Chain latencies.
    pub rec: Recorder,
    /// Counts and spans.
    pub tally: Tally,
}

/// Spawns one process per app core, each with [`CHAINS_PER_PROC`]
/// chain tasks, and waits for all of them. The chains share one
/// latency recorder, so its size does not grow with the task count.
pub async fn run_chains(wl: Arc<KernelWl>, cfg: ChainCfg) -> ChainOut {
    let rec = Arc::new(Mutex::new(Recorder::new(cfg.t0, cfg.end, WINDOW_NS)));
    let mut procs = Vec::new();
    for (p, &core) in cfg.app_cores.iter().enumerate() {
        let (wl, cfg, rec) = (wl.clone(), cfg.clone(), rec.clone());
        let (_pid, h) = wl
            .clone()
            .os
            .procs
            .spawn_process(core, move |env| async move {
                let chains: Vec<_> = (0..CHAINS_PER_PROC)
                    .map(|c| {
                        let id = (p * CHAINS_PER_PROC + c) as u64;
                        let args = (env.clone(), wl.clone(), cfg.clone(), rec.clone());
                        rt::spawn(chain(args, p + 1, id))
                    })
                    .collect();
                let mut tally = Tally::new(false, 0);
                for h in chains {
                    tally.merge(h.join().await.expect("chain task ended"));
                }
                tally
            });
        procs.push(h);
    }
    let mut tally = Tally::new(false, 0);
    for h in procs {
        tally.merge(h.join().await.expect("process ended"));
    }
    let rec = Arc::try_unwrap(rec)
        .ok()
        .expect("every chain task has ended")
        .into_inner()
        .expect("no chain task panicked while recording");
    ChainOut { rec, tally }
}

type ChainArgs = (Env, Arc<KernelWl>, ChainCfg, Arc<Mutex<Recorder>>);

async fn chain((env, wl, cfg, rec): ChainArgs, writer: usize, id: u64) -> Tally {
    let mut rng = Pcg32::with_stream(cfg.seed, cfg.stream * 1024 + id + 1);
    let mut out = Tally::new(cfg.trace, id + 1);
    let spec = wl.spec;
    let mut n = 0;
    while cfg.stop.more(n, rt::now()) {
        n += 1;
        let f = rng.bounded(spec.files as u64) as usize;
        let write = rng.bounded(100) < WRITE_PERCENT;
        let req = (id << 32) | n;
        out.checked.attempted += 1;
        let root = out.tracer.id();
        let t0 = rt::now();
        match one_chain(&env, &wl, f, write, writer, root, req, &mut out.tracer).await {
            Ok(()) => {}
            Err(Fail::Syscall) => out.checked.failed += 1,
            Err(Fail::Wrong(e)) => out.checked.bad.push(e),
        }
        let done = rt::now();
        out.tracer.record(root, "bench.chain", 0, req, t0, done);
        rec.lock()
            .expect("no chain task panicked while recording")
            .record(done, done - t0);
        if done < cfg.end {
            out.in_phase += 1;
        }
    }
    out
}

enum Fail {
    Syscall,
    Wrong(String),
}

#[allow(clippy::too_many_arguments)]
async fn one_chain(
    env: &Env,
    wl: &KernelWl,
    f: usize,
    write: bool,
    writer: usize,
    root: u64,
    req: u64,
    tr: &mut Tracer,
) -> Result<(), Fail> {
    let t = rt::now();
    let pid = env.getpid().await;
    tr.leaf("kernel.getpid", root, req, t, rt::now());
    if pid != env.pid {
        return Err(Fail::Wrong(format!("getpid gave {pid:?} to {:?}", env.pid)));
    }
    let t = rt::now();
    let fd = env
        .open(&wl.spec.path(f))
        .await
        .map_err(|_| Fail::Syscall)?;
    tr.leaf("kernel.open", root, req, t, rt::now());
    let t = rt::now();
    let body = if write {
        let n = env.write(fd, &wl.content(f, writer)).await;
        tr.leaf("kernel.write", root, req, t, rt::now());
        match n {
            Ok(n) if n == wl.spec.size => Ok(()),
            Ok(n) => Err(Fail::Wrong(format!("write of file {f} took {n} bytes"))),
            Err(_) => Err(Fail::Syscall),
        }
    } else {
        let data = env.read(fd, wl.spec.size).await;
        tr.leaf("kernel.read", root, req, t, rt::now());
        match data {
            Ok(d) => wl.check(f, &d).map_err(Fail::Wrong),
            Err(_) => Err(Fail::Syscall),
        }
    };
    let t = rt::now();
    let closed = env.close(fd).await;
    tr.leaf("kernel.close", root, req, t, rt::now());
    body?;
    closed.map_err(|_| Fail::Syscall)
}

fn kernel_spans(report: &mut Report, tr: &Tracer, ops: f64) {
    for (span, metric) in [
        ("kernel.getpid", "kernel.getpid_us"),
        ("kernel.open", "kernel.open_us"),
        ("kernel.read", "kernel.read_us"),
        ("kernel.write", "kernel.write_us"),
        ("kernel.close", "kernel.close_us"),
    ] {
        report.span_median(metric, tr, span);
    }
    report.self_times(tr, ops);
}

/// Processes on the threads backend: one per worker, at most 2.
const THREAD_PROCS: usize = 2;

/// Runs `syscall_hot` or `fs_cold` on the threads backend.
pub fn run_threads(spec: FsSpec, setups: usize, args: &Args, report: &mut Report) {
    let seed = args.seed;
    let th = Threads::start(
        setups,
        |rt| {
            let cores = app_cores(rt.handle().workers());
            rt.block_on(setup(spec, cores.len(), seed, cores))
        },
        report,
    );
    let wl = th.state.clone();
    let cores = app_cores(th.rt.handle().workers());
    let phase = move |stream: u64, secs: f64, trace: bool| {
        let t0 = rt::now();
        let end = t0 + (secs * 1e9) as u64;
        ChainCfg {
            app_cores: cores.clone(),
            seed,
            stream,
            stop: Stop::At(end),
            t0,
            end,
            trace,
        }
    };
    let secs = args.seconds as f64;
    if !args.trace {
        let mut out = th
            .rt
            .block_on(async { run_chains(wl.clone(), phase(1, secs, false)).await });
        report.checked.add(&mut out.tally.checked);
        let s = out.rec.summary(out.tally.in_phase);
        report.metric("ops_per_s", s.rate_windowed);
        report.metric_n("p50_us", s.p50_ns / 1e3, s.samples);
        report.metric_n("p99_us", s.p99_windowed_ns / 1e3, s.samples);
        report.note(format!(
            "{} chains; whole-run p99 {:.2} us; p99_us is the median of the quarter-second windows' p99s {:?}; ops_per_s the median of their rates {:?}; whole-run rate {:.1} chains/s",
            out.tally.checked.attempted,
            s.p99_ns / 1e3,
            s.window_p99_us,
            s.window_rates,
            s.rate
        ));
        th.finish(report);
        return;
    }
    // Traced run: untraced quarter for the overhead ratio, traced half
    // between counter snapshots, probe quarter under untraced load.
    let (mut base, mut traced, mut load, counters, mut probes) = th.rt.block_on(async {
        let base = run_chains(wl.clone(), phase(1, secs / 4.0, false)).await;
        let before = Counters::take(rt::stat_get);
        let traced = run_chains(wl.clone(), phase(2, secs / 2.0, true)).await;
        let counters = Counters::take(rt::stat_get).since(&before);
        let cfg = phase(3, secs / 4.0, false);
        let stop = cfg.stop;
        let load = rt::spawn(run_chains(wl.clone(), cfg));
        let probes = probe::run(Some(wl.clone()), seed, stop).await;
        let load = load.join().await.expect("load ended");
        (base, traced, load, counters, probes)
    });
    for o in [&mut base, &mut traced, &mut load] {
        report.checked.add(&mut o.tally.checked);
    }
    let base_rate = base.rec.summary(base.tally.in_phase).rate_windowed;
    let ops = traced.tally.checked.attempted as f64;
    let traced_tr = traced.tally.tracer;
    let traced_rate = traced.rec.summary(traced.tally.in_phase).rate_windowed;
    report.layer_counters(&counters, ops);
    kernel_spans(report, &traced_tr, ops);
    report.trace_overhead(base_rate, traced_rate);
    report.probes(&mut probes);
    report.write_trace(args, &[&traced_tr, &probes.tracer]);
    th.finish(report);
}

/// App cores on threads: one process per worker, at most 2.
fn app_cores(workers: usize) -> Vec<CoreId> {
    (0..workers.clamp(1, THREAD_PROCS) as u32)
        .map(CoreId)
        .collect()
}

/// Simulated cores of `sim_os`.
const SIM_CORES: usize = 8;
/// Processes of `sim_os`, on cores 2..6.
const SIM_PROCS: u32 = 4;
/// Chains per chain task in one simulated run.
const SIM_CHAINS_PER_TASK: u64 = 500;

struct SimRun {
    /// Host seconds the set-up took.
    setup_s: f64,
    /// Simulated cycles the set-up took.
    setup_cycles: u64,
    chains_s: f64,
    hash: u64,
    cycles: u64,
    out: ChainOut,
    counters: Counters,
    probes: Option<probe::ProbeOut>,
}

fn sim_run(seed: u64, trace: bool) -> SimRun {
    let mut sim = Simulation::with_config(Config {
        cores: SIM_CORES,
        seed,
        ..Config::default()
    });
    let cores: Vec<CoreId> = (KERNEL_CORES..KERNEL_CORES + SIM_PROCS)
        .map(CoreId)
        .collect();
    let t = Instant::now();
    let wl = sim
        .block_on(setup(HOT, cores.len(), seed, cores.clone()))
        .expect("sim set-up");
    let setup_s = t.elapsed().as_secs_f64();
    let setup_cycles = sim.now();
    let before = Counters::take(|n| sim.stats().counter(n));
    let v0 = sim.now();
    let cfg = ChainCfg {
        app_cores: cores,
        seed,
        stream: 1,
        stop: Stop::After(SIM_CHAINS_PER_TASK),
        t0: 0,
        end: WINDOW_NS,
        trace,
    };
    let t = Instant::now();
    let out = sim
        .block_on(run_chains(wl.clone(), cfg))
        .expect("sim chains");
    let chains_s = t.elapsed().as_secs_f64();
    let counters = Counters::take(|n| sim.stats().counter(n)).since(&before);
    let (hash, cycles) = (sim.trace_hash(), sim.now() - v0);
    let probes = trace.then(|| {
        sim.block_on(probe::run(Some(wl), seed, Stop::After(200)))
            .expect("sim probes")
    });
    SimRun {
        setup_s,
        setup_cycles,
        chains_s,
        hash,
        cycles,
        out,
        counters,
        probes,
    }
}

/// Runs `sim_os`: fresh simulations of a fixed chain count, repeated
/// until the time is up; each must reproduce the first one's trace
/// hash and virtual cycles exactly.
///
/// Set-up time, throughput and latency are those of the simulated
/// machine (simulated seconds, chains per simulated second, simulated
/// microseconds). The host speed of the simulator goes to the
/// per-layer `sim.host_*` metrics: on a shared VM it drifted by up to
/// 1.6x between runs minutes apart, more than any bound an end-to-end
/// metric may carry.
pub fn run_sim(args: &Args, report: &mut Report) {
    if args.trace {
        return run_sim_traced(args, report);
    }
    let started = Instant::now();
    let (mut host_setup, mut host_rate) = (Vec::new(), Vec::new());
    let mut first: Option<SimRun> = None;
    while host_rate.len() < 3 || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let mut r = sim_run(args.seed, false);
        host_setup.push(r.setup_s);
        host_rate.push(r.out.tally.checked.attempted as f64 / r.chains_s);
        report.checked.add(&mut r.out.tally.checked);
        match &first {
            None => first = Some(r),
            Some(f) if (f.hash, f.cycles) != (r.hash, r.cycles) => report.checked.bad.push(format!(
                "simulation {} diverged: trace hash {:#x} after {} cycles, first run {:#x} after {}",
                host_rate.len(),
                r.hash,
                r.cycles,
                f.hash,
                f.cycles
            )),
            Some(_) => {}
        }
    }
    let f = first.expect("at least one simulation");
    let s = f.out.rec.summary(0);
    let n = host_rate.len() as u64;
    let chains = f.out.tally.checked.attempted;
    let rates: Vec<f64> = host_rate.iter().map(|r| r.round()).collect();
    report.metric("setup_s", f.setup_cycles as f64 / 1e9);
    report.metric_n("ops_per_s", chains as f64 / (f.cycles as f64 / 1e9), chains);
    report.metric_n("p50_us", s.p50_ns / 1e3, s.samples);
    report.metric_n("p99_us", s.p99_ns / 1e3, s.samples);
    report.metric("peak_rss_mb", crate::peak_rss_mb());
    report.note(format!(
        "{n} simulations of {chains} chains each, identical trace hash {:#x} and {} virtual cycles; setup_s, ops_per_s, p50_us and p99_us are simulated (1 cycle = 1 ns), latencies over {} samples; host chains/s per simulation {rates:?}, median {:.1}; host set-up median {:.4} s",
        f.hash,
        f.cycles,
        s.samples,
        stats::median(&mut host_rate),
        stats::median(&mut host_setup)
    ));
}

/// The traced `sim_os` run: untraced then traced simulations in this
/// process, so the overhead ratio compares like with like.
fn run_sim_traced(args: &Args, report: &mut Report) {
    let started = Instant::now();
    let (mut rate, mut t_rate, mut host_setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut expect: Option<(u64, u64)> = None;
    let mut traced: Option<SimRun> = None;
    while t_rate.len() < 3 || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let trace = rate.len() >= 3 && started.elapsed().as_secs_f64() >= args.seconds as f64 / 2.0;
        let mut r = sim_run(args.seed, trace);
        report.checked.add(&mut r.out.tally.checked);
        let key = (r.hash, r.cycles);
        if *expect.get_or_insert(key) != key {
            report
                .checked
                .bad
                .push(format!("simulation diverged (traced: {trace})"));
        }
        let r_rate = r.out.tally.checked.attempted as f64 / r.chains_s;
        host_setup.push(r.setup_s);
        if trace {
            t_rate.push(r_rate);
            traced = Some(r);
        } else {
            rate.push(r_rate);
        }
    }
    let mut t = traced.expect("at least one traced simulation");
    let ops = t.out.tally.checked.attempted as f64;
    let c = &t.counters;
    report.layer_counters(c, ops);
    let events = c.get("sim.events");
    report.metric("sim.host_ns_per_event", t.chains_s * 1e9 / events.max(1.0));
    report.metric("sim.virtual_cycles_per_op", t.cycles as f64 / ops);
    kernel_spans(report, &t.out.tally.tracer, ops);
    let host_rate = stats::median(&mut rate);
    report.metric_n("sim.host_ops_per_s", host_rate, rate.len() as u64);
    report.metric_n(
        "sim.host_setup_s",
        stats::median(&mut host_setup),
        host_setup.len() as u64,
    );
    report.trace_overhead(host_rate, stats::median(&mut t_rate));
    let mut probes = t.probes.take().expect("traced run probes");
    report.probes(&mut probes);
    report.write_trace(args, &[&t.out.tally.tracer, &probes.tracer]);
    report.note("sim_os spans and probes are in simulated time (1 cycle = 1 ns)".to_string());
}
