//! Latency statistics over one measured phase.
//!
//! Latencies go into a log-linear histogram: exact below 256 ns and
//! 128 buckets per power of two above, so a reported quantile (the
//! bucket's midpoint) is within 0.4% of the true sample. Memory stays
//! fixed however many operations a run completes, so the benchmark's
//! own bookkeeping does not grow the peak RSS it reports.
//!
//! Samples are grouped by the window in which the operation completed;
//! the windowed figures (per-window p99, per-window throughput) are
//! reported as medians so that a stall of a few milliseconds on a
//! shared host spoils one window, not the result. A window should hold
//! over a thousand samples, and be short enough that most windows see
//! no stall at all.

/// The windows of the chain workloads, in nanoseconds: a quarter
/// second holds over a thousand chains on each of them.
pub const WINDOW_NS: u64 = 250_000_000;

/// Minimum samples a window needs before its p99 counts: ten samples
/// beyond the percentile.
const MIN_P99_SAMPLES: u64 = 1000;

/// Sub-buckets per power of two.
const SUB_BITS: u32 = 7;
/// Values below this are their own bucket.
const LINEAR: u64 = 2 << SUB_BITS;
/// Largest power of two tracked (2^37 ns is about 137 s); longer
/// latencies land in the last bucket.
const MAX_EXP: u32 = 36;
const BUCKETS: usize = LINEAR as usize + ((MAX_EXP - SUB_BITS) as usize) * (1 << SUB_BITS);

fn bucket(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let mant = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    LINEAR as usize + (exp - SUB_BITS - 1) as usize * (1 << SUB_BITS) + mant as usize
}

/// The midpoint of bucket `i`.
fn value_of(i: usize) -> f64 {
    if (i as u64) < LINEAR {
        return i as f64;
    }
    let k = i - LINEAR as usize;
    let exp = SUB_BITS + 1 + (k >> SUB_BITS) as u32;
    let mant = (k & ((1 << SUB_BITS) - 1)) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    ((1u64 << exp) + mant * width) as f64 + (width as f64 - 1.0) / 2.0
}

/// A latency histogram.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    /// Adds another histogram's samples. Empty buckets are skipped, so
    /// pages no sample reached are never written and stay out of the
    /// resident set.
    pub fn merge(&mut self, o: &Hist) {
        for (a, &b) in self.counts.iter_mut().zip(&o.counts) {
            if b != 0 {
                *a += b;
            }
        }
        self.n += o.n;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile `q` (0 if empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return value_of(i);
            }
        }
        value_of(BUCKETS - 1)
    }
}

/// Latency samples of one phase, grouped by completion window.
pub struct Recorder {
    t0: u64,
    window: u64,
    /// Length of the phase, or of all slices appended, in ns.
    len: u64,
    windows: Vec<Hist>,
}

impl Recorder {
    /// A recorder for the phase `[t0, end)` in windows of `window`
    /// (times in ns).
    pub fn new(t0: u64, end: u64, window: u64) -> Recorder {
        let n = (end.saturating_sub(t0) / window).max(1) as usize;
        Recorder {
            t0,
            window,
            len: end.saturating_sub(t0),
            windows: (0..n).map(|_| Hist::new()).collect(),
        }
    }

    /// Records one operation that completed at `done` after `lat` ns.
    /// Completions past the phase end are kept for the latency
    /// quantiles but land in the last window.
    pub fn record(&mut self, done: u64, lat: u64) {
        let w = (done.saturating_sub(self.t0) / self.window) as usize;
        let last = self.windows.len() - 1;
        self.windows[w.min(last)].record(lat);
    }

    /// Adds another recorder of the same phase.
    pub fn merge(&mut self, other: Recorder) {
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.merge(theirs);
        }
    }

    /// Adds the windows of a later slice of the same phase, for a phase
    /// measured in several slices; each slice records into its own
    /// recorder before it is appended.
    pub fn append(&mut self, later: Recorder) {
        self.windows.extend(later.windows);
        self.len += later.len;
    }

    /// Summarises the phase. `completed_in_phase` is the number of
    /// operations that completed before the phase end, which sets the
    /// whole-phase throughput.
    pub fn summary(self, completed_in_phase: u64) -> Summary {
        let secs = self.len as f64 / 1e9;
        let win_secs = secs / self.windows.len() as f64;
        let mut window_p99 = Vec::new();
        let mut window_rate = Vec::new();
        let mut all = Hist::new();
        for w in &self.windows {
            window_rate.push(w.n as f64 / win_secs);
            if w.n >= MIN_P99_SAMPLES {
                window_p99.push(w.quantile(0.99));
            }
            all.merge(w);
        }
        let whole_p99 = all.quantile(0.99);
        let p99_windowed_ns = if window_p99.is_empty() {
            whole_p99
        } else {
            median(&mut window_p99)
        };
        Summary {
            samples: all.n,
            p50_ns: all.quantile(0.5),
            p99_windowed_ns,
            p99_ns: whole_p99,
            window_p99_us: window_p99
                .iter()
                .map(|v| (v / 1e2).round() / 10.0)
                .collect(),
            window_rates: window_rate.iter().map(|r| r.round()).collect(),
            rate_windowed: median(&mut window_rate),
            rate: completed_in_phase as f64 / secs,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Latency samples.
    pub samples: u64,
    /// Whole-phase median latency, ns.
    pub p50_ns: f64,
    /// Median over windows of each window's p99, ns.
    pub p99_windowed_ns: f64,
    /// Whole-phase p99, ns.
    pub p99_ns: f64,
    /// The p99 of each window that had enough samples for one, in
    /// microseconds to 0.1, sorted.
    pub window_p99_us: Vec<f64>,
    /// Median over windows of completions per second.
    pub rate_windowed: f64,
    /// Completions per second in each window, in order.
    pub window_rates: Vec<f64>,
    /// Completions in the phase over its length, per second.
    pub rate: f64,
}

/// Nearest-rank quantile of sorted samples (0 if empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `v` (0 if empty); reorders `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples in microseconds (0 if empty); reorders `v`.
pub fn median_us(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    quantile(v, 0.5) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn histogram_error_stays_below_half_a_percent() {
        for v in (0..=MAX_EXP)
            .map(|i| 1u64 << i)
            .flat_map(|p| [p, p + p / 3, p * 2 - 1])
        {
            let mut h = Hist::new();
            h.record(v);
            let got = h.quantile(0.5);
            let expect = v as f64;
            assert!((got - expect).abs() <= expect * 0.004 + 0.5, "{v}: {got}");
        }
    }

    #[test]
    fn windows_split_by_completion_time() {
        let mut r = Recorder::new(0, 2 * WINDOW_NS, WINDOW_NS);
        for i in 0..1000 {
            r.record(10, i);
            r.record(WINDOW_NS + 10, i);
        }
        r.record(5 * WINDOW_NS, 7); // late completion joins the last window
        let s = r.summary(2000);
        assert_eq!(s.samples, 2001);
        assert_eq!(s.window_p99_us.len(), 2);
        assert_eq!(s.rate, 2000.0 / (2 * WINDOW_NS) as f64 * 1e9);
        assert!((s.p50_ns - 500.0).abs() <= 4.0, "{}", s.p50_ns);
    }

    #[test]
    fn appended_slices_keep_their_windows() {
        let mut r = Recorder::new(0, WINDOW_NS, WINDOW_NS);
        let mut later = Recorder::new(5 * WINDOW_NS, 6 * WINDOW_NS, WINDOW_NS);
        for i in 0..1000 {
            r.record(10, i);
            later.record(5 * WINDOW_NS + 10, 2 * i);
        }
        r.append(later);
        let s = r.summary(2000);
        assert_eq!(s.window_p99_us.len(), 2);
        assert_eq!(s.rate, 2000.0 / (2 * WINDOW_NS) as f64 * 1e9);
    }
}
