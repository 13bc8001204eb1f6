//! Snapshots of the counters the layers already keep, taken at the
//! benchmark's phase boundaries.
//!
//! On threads the names resolve through `chanos_rt::stat_get`, which
//! reads the scheduler's `sched.*` atomics and the runtime's counter
//! map (`parchan::Handle::stat_get`) and the process-global `chan.*`
//! atomics (`parchan::chan_counter`); on the simulator they come from
//! `Simulation::stats`.

use std::collections::BTreeMap;

/// Every counter a per-layer metric is derived from.
pub const NAMES: &[&str] = &[
    "sched.steals",
    "sched.wakes_local",
    "sched.wakes_injector",
    "sched.wakes_pinned",
    "chan.fast_sends",
    "chan.slow_sends",
    "chan.recv_many_calls",
    "chan.recv_many_msgs",
    "port.calls_cancelled",
    "port.calls_timed_out",
    "port.calls_dropped_at_submit",
    "serve.kv_bursts",
    "serve.kv_gets",
    "serve.kv_sets",
    "kernel.syscalls",
    "nr.local_reads",
    "nr.catch_ups",
    "nr.append_ops",
    "nr.log_appends",
    "cache.hits",
    "cache.misses",
    "msgfs.vnode_threads_spawned",
    "disk.reads",
    "disk.writes",
    "disk.bursts_sorted",
    "disk.seek_distance_saved",
    "sim.events",
    "sim.polls",
    "csp.sends",
    "csp.hops",
];

/// Counter values at one instant, or the change between two.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Reads every counter in [`NAMES`] through `get`.
    pub fn take(get: impl Fn(&str) -> u64) -> Counters {
        Counters(NAMES.iter().map(|&n| (n, get(n))).collect())
    }

    /// `self - before`, counter by counter.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&n, &v)| (n, v.saturating_sub(before.get_u64(n))))
                .collect(),
        )
    }

    fn get_u64(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// One counter as a float.
    pub fn get(&self, name: &str) -> f64 {
        self.get_u64(name) as f64
    }

    /// `num / den`, or 0 when `den` is 0.
    pub fn ratio(&self, num: &str, den: f64) -> f64 {
        if den == 0.0 {
            0.0
        } else {
            self.get(num) / den
        }
    }

    /// The sum of several counters.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }
}
