//! Timed calls into single layers, made by the benchmark while a
//! workload keeps the runtime busy.
//!
//! Each round times: a spawn until the new task's first poll
//! (parchan), a `Port::call` and an 8-call `call_batch` to an echo
//! task the benchmark owns (rt), and, on a booted kernel, a pid-table
//! read (nr), a path lookup, a whole-file read and a whole-file
//! rewrite straight on the VFS (vfs) and an 8-block `read_batch` on
//! the raw disk (drivers). Probes run outside the counter window, so
//! the work they add does not show in the per-op counts.

use std::sync::Arc;

use chanos_rt::{self as rt, port_channel, Capacity, Pcg32, Port, ReplyTo};

use crate::os::KernelWl;
use crate::trace::Tracer;
use crate::{Checked, Stop};

/// Pause between probe rounds, so probes stay a small load.
const ROUND_GAP: u64 = 500_000;
/// Blocks per `read_batch` probe.
const BATCH_BLOCKS: u64 = 8;

struct Echo {
    v: u64,
    reply: ReplyTo<u64>,
}

fn spawn_echo() -> Port<Echo> {
    let (port, rx) = port_channel::<Echo>(Capacity::Unbounded);
    rt::spawn_named("bench-echo", async move {
        let mut buf = Vec::with_capacity(16);
        loop {
            buf.clear();
            if rx.recv_many(&mut buf, 16).await == 0 {
                return;
            }
            rt::coalesce_replies(|| {
                for Echo { v, reply } in buf.drain(..) {
                    let _ = reply.send_now(v);
                }
            });
        }
    });
    port
}

/// What the probes measured.
pub struct ProbeOut {
    /// One root span per probe call, named after the layer function.
    pub tracer: Tracer,
    /// Probe calls made, probe calls that failed, wrong answers.
    pub checked: Checked,
}

/// Runs probe rounds until `stop`.
pub async fn run(kernel: Option<Arc<KernelWl>>, seed: u64, stop: Stop) -> ProbeOut {
    let echo = spawn_echo();
    let mut rng = Pcg32::with_stream(seed, 0xB0B);
    let mut out = ProbeOut {
        tracer: Tracer::new(true, 0xFFFF),
        checked: Checked::default(),
    };
    let mut round = 0u64;
    while stop.more(round, rt::now()) {
        round += 1;
        let tr = &mut out.tracer;

        let t = rt::now();
        match rt::spawn(async { rt::now() }).join().await {
            Ok(first_poll) => tr.leaf("parchan.spawn_poll", 0, round, t, first_poll),
            Err(_) => out.checked.failed += 1,
        }

        let t = rt::now();
        match echo.call(move |reply| Echo { v: round, reply }).await {
            Ok(v) if v == round => tr.leaf("rt.echo_rtt", 0, round, t, rt::now()),
            Ok(v) => out
                .checked
                .bad
                .push(format!("echo of {round} returned {v}")),
            Err(_) => out.checked.failed += 1,
        }

        let t = rt::now();
        let calls = echo.call_batch((0..BATCH_BLOCKS).map(|i| move |reply| Echo { v: i, reply }));
        let mut ok = true;
        for (i, call) in (0..).zip(calls) {
            match call.await {
                Ok(v) if v == i => {}
                Ok(v) => {
                    out.checked
                        .bad
                        .push(format!("batched echo of {i} returned {v}"));
                    ok = false;
                }
                Err(_) => {
                    out.checked.failed += 1;
                    ok = false;
                }
            }
        }
        if ok {
            tr.leaf("rt.echo_batch8", 0, round, t, rt::now());
        }
        out.checked.attempted += 3;

        if let Some(k) = &kernel {
            kernel_round(k, &mut rng, round, &mut out).await;
        }
        rt::sleep(ROUND_GAP).await;
    }
    out
}

async fn kernel_round(k: &KernelWl, rng: &mut Pcg32, round: u64, out: &mut ProbeOut) {
    let tr = &mut out.tracer;
    out.checked.attempted += 5;

    let t = rt::now();
    if k.os.procs.alive(k.probe_pid).await {
        tr.leaf("nr.alive", 0, round, t, rt::now());
    } else {
        out.checked
            .bad
            .push(format!("registered pid {:?} is not alive", k.probe_pid));
    }

    let f = rng.bounded(k.spec.files as u64) as usize;
    let t = rt::now();
    match k.os.vfs.lookup(&k.spec.path(f)).await {
        Ok(ino) if ino == k.inos[f] => tr.leaf("vfs.lookup", 0, round, t, rt::now()),
        Ok(ino) => out
            .checked
            .bad
            .push(format!("lookup of file {f} gave inode {ino}")),
        Err(_) => out.checked.failed += 1,
    }

    let t = rt::now();
    match k.os.vfs.read(k.inos[f], 0, k.spec.size).await {
        Ok(data) => match k.check(f, &data) {
            Ok(()) => tr.leaf("vfs.read", 0, round, t, rt::now()),
            Err(e) => out.checked.bad.push(e),
        },
        Err(_) => out.checked.failed += 1,
    }

    let t = rt::now();
    match k.os.vfs.write(k.inos[f], 0, &k.content(f, 0)).await {
        Ok(()) => tr.leaf("vfs.write", 0, round, t, rt::now()),
        Err(_) => out.checked.failed += 1,
    }

    let first = rng.bounded(k.disk_blocks - BATCH_BLOCKS);
    let lbas: Vec<u64> = (first..first + BATCH_BLOCKS).collect();
    let t = rt::now();
    let res = k.os.disk.read_batch(&lbas).await;
    if res
        .iter()
        .all(|r| matches!(r, Ok(b) if b.len() == chanos_drivers::BLOCK_SIZE))
    {
        tr.leaf("drivers.read_batch", 0, round, t, rt::now());
    } else {
        out.checked.failed += 1;
    }
}
