//! What every workload's measured phase shares: fixed-size sample
//! buffers, CPU and memory readings over the processes running program
//! code, and the end-to-end metrics computed from them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::host;
use crate::spans::now_ns;
use crate::stats::{beyond, median_f64, quantile, quantile_f64};
use crate::{Check, Metrics};

/// A thread's latency buffer holds this many times its share of the
/// warm-up's request rate over the phase.
const HEADROOM: f64 = 3.0;

/// A latency buffer allocated and touched before measuring, so the
/// harness's memory does not grow with throughput. A thread completes
/// its requests in time order, so each time window's latencies are one
/// contiguous run of the buffer.
pub struct Lat {
    ns: Vec<u32>,
    len: usize,
    /// One past the last sample of each window before the current one.
    ends: Vec<usize>,
}

impl Lat {
    pub fn new(capacity: usize, windows: usize) -> Self {
        // A nonzero fill writes every page now; a zeroed allocation
        // would be mapped lazily, during the measurement.
        Self { ns: vec![u32::MAX; capacity], len: 0, ends: Vec::with_capacity(windows) }
    }

    /// Records one latency completed in `window` (never an earlier
    /// window than the previous one's); a full buffer is a failure, since
    /// dropping samples would bias the quantiles.
    fn push(&mut self, ns: u64, window: usize, check: &mut Check) {
        if self.len == self.ns.len() {
            check.fail("latency buffer full: the rate rose threefold over the warm-up's");
            return;
        }
        while self.ends.len() < window {
            self.ends.push(self.len);
        }
        self.ns[self.len] = u32::try_from(ns).unwrap_or(u32::MAX);
        self.len += 1;
    }

    /// The latencies of each of `windows` windows.
    fn windows(&self, windows: usize) -> impl Iterator<Item = &[u32]> {
        let end = |w: usize| self.ends.get(w).copied().unwrap_or(self.len);
        (0..windows).map(move |w| &self.ns[if w == 0 { 0 } else { end(w - 1) }..end(w)])
    }
}

/// A preallocated sample buffer for the traced requests (every
/// `stride`-th), dropping samples once full.
pub struct Sampler<S> {
    pub stride: u64,
    pub samples: Vec<S>,
}

impl<S> Sampler<S> {
    pub fn new(stride: u64, capacity: usize) -> Self {
        Self { stride: stride.max(1), samples: Vec::with_capacity(capacity) }
    }

    pub fn wants(&self, seq: u64) -> bool {
        seq.is_multiple_of(self.stride) && self.samples.len() < self.samples.capacity()
    }
}

/// CPU seconds used so far by this process and the daemons in `pids`.
pub fn cpu_seconds(pids: &[u32], check: &mut Check) -> f64 {
    let mut total = 0.0;
    for pid in std::iter::once(None).chain(pids.iter().map(|&p| Some(p))) {
        match host::cpu_seconds(pid) {
            Some(s) => total += s,
            None => check.fail(format!("no CPU reading for {pid:?}")),
        }
    }
    total
}

/// Summed peak RSS of this process and the daemons in `pids`, in MiB.
pub fn peak_rss_mb(pids: &[u32], check: &mut Check) -> f64 {
    let mut total = 0.0;
    for pid in std::iter::once(None).chain(pids.iter().map(|&p| Some(p))) {
        match host::peak_rss_mb(pid) {
            Some(mb) => total += mb,
            None => check.fail(format!("no memory reading for {pid:?}")),
        }
    }
    total
}

/// Resets the peak RSS of this process and the daemons in `pids` to
/// their current RSS, so a phase's peak is its own and not that of
/// set-up or of an earlier workload.
fn reset_peak_rss(pids: &[u32], check: &mut Check) {
    for pid in std::iter::once(None).chain(pids.iter().map(|&p| Some(p))) {
        if let Err(e) = host::reset_peak_rss(pid) {
            check.fail(format!("reset peak RSS of {pid:?}: {e}"));
        }
    }
}

/// What a phase records.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Rec {
    /// Warm-up: nothing.
    Off,
    /// Latency of every request.
    Latency,
    /// Latency, plus the live spans of every sampled request.
    Traced,
}

/// A sampled request, ordered by its sequence number.
pub trait Seq {
    fn seq(&self) -> u64;
}

/// One load thread's recorders.
pub struct Thread<S> {
    pub rec: Rec,
    pub check: Check,
    lat: Lat,
    pub sampler: Sampler<S>,
    /// When the phase started; then when the thread's last request
    /// completed.
    pub last: u64,
    start: u64,
    window_ns: u64,
    windows: usize,
}

impl<S> Thread<S> {
    /// Records the latency of a request that completed at `at` (when
    /// the phase records).
    pub fn done(&mut self, ns: u64, at: u64) {
        if self.rec != Rec::Off {
            let w = ((at.saturating_sub(self.start)) / self.window_ns)
                .min(self.windows as u64 - 1);
            self.lat.push(ns, w as usize, &mut self.check);
        }
    }

    /// Whether request `seq` should be sampled.
    pub fn sampled(&self, seq: u64) -> bool {
        self.rec == Rec::Traced && self.sampler.wants(seq)
    }
}

/// A measured phase and its traced samples.
pub struct Drive<S> {
    pub phase: Phase,
    pub samples: Vec<S>,
    /// The sequence numbers the phase drew from the shared counter.
    pub seqs: std::ops::Range<u64>,
}

impl<S> Drive<S> {
    /// Requests started per second over the phase, the rate the next
    /// phase's latency buffers are sized for.
    pub fn rate(&self) -> f64 {
        (self.seqs.end - self.seqs.start) as f64 / self.phase.wall_s.max(1e-9)
    }
}

/// How a workload records a phase: the sampling stride of a traced
/// phase, the samples kept per thread, and the length of the time
/// windows the end-to-end quantiles are taken over.
#[derive(Clone, Copy)]
pub struct Recording {
    pub stride: u64,
    pub samples: usize,
    pub window: Duration,
}

/// Runs `body` on one scoped thread per context for `dur`, then
/// collects latencies by window, samples (sorted by seq), failures, and
/// the CPU and peak memory of this process and the daemons `pids`. The
/// latency buffers are sized for `rate` requests per second over all
/// threads: the warm-up's [`Drive::rate`] (a warm-up records nothing).
pub fn drive<C: Send, S: Send + Seq>(
    ctxs: Vec<C>,
    pids: &[u32],
    next: &AtomicU64,
    dur: Duration,
    rec: Rec,
    rate: f64,
    recording: Recording,
    check: &mut Check,
    body: impl Fn(C, &mut Thread<S>, u64) + Sync,
) -> Drive<S> {
    let Recording { stride, samples, window } = recording;
    // A phase shorter than two windows is one window.
    let windows = ((dur.as_secs_f64() / window.as_secs_f64()).round() as usize).max(1);
    let load_threads = ctxs.len();
    let share = HEADROOM * rate / load_threads.max(1) as f64 * dur.as_secs_f64();
    let cap = if rec == Rec::Off { 0 } else { (share as usize).max(1024) };
    let samples = if rec == Rec::Traced { samples } else { 0 };
    let window_ns =
        (u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX) / windows as u64).max(1);
    // Buffers are allocated before the clock starts.
    let recorders: Vec<Thread<S>> = ctxs
        .iter()
        .map(|_| Thread {
            rec,
            check: Check::default(),
            lat: Lat::new(cap, windows),
            sampler: Sampler::new(stride, samples),
            last: 0,
            start: 0,
            window_ns,
            windows,
        })
        .collect();
    if rec != Rec::Off {
        reset_peak_rss(pids, check);
    }
    let first = next.load(Ordering::Relaxed);
    let cpu0 = cpu_seconds(pids, check);
    let start = now_ns();
    let until = start + u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    let body = &body;
    let threads: Vec<Thread<S>> = std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .zip(recorders)
            .map(|(ctx, mut t)| {
                s.spawn(move || {
                    t.last = start;
                    t.start = start;
                    body(ctx, &mut t, until);
                    t
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load threads do not panic")).collect()
    });
    // Read before the samples are sorted out below, which allocates.
    let cpu_s = cpu_seconds(pids, check) - cpu0;
    // The latency buffers are the harness's own and were resident in
    // full before the peak was reset. Sized from the warm-up's rate,
    // they would carry the host's speed into the reading.
    let buffers_mb =
        (load_threads * cap * std::mem::size_of::<u32>()) as f64 / (1 << 20) as f64;
    let rss_mb = peak_rss_mb(pids, check) - buffers_mb;
    let mut by_window = vec![Vec::new(); windows];
    let mut sampled = Vec::new();
    let mut end = start;
    for t in threads {
        check.merge(t.check);
        for (all, mine) in by_window.iter_mut().zip(t.lat.windows(windows)) {
            all.extend(mine.iter().map(|&ns| u64::from(ns)));
        }
        sampled.extend(t.sampler.samples);
        end = end.max(t.last);
    }
    sampled.sort_unstable_by_key(Seq::seq);
    let completed = by_window.iter().map(Vec::len).sum::<usize>() as u64;
    Drive {
        phase: Phase {
            windows: by_window,
            window_s: window_ns as f64 / 1e9,
            completed,
            wall_s: (end - start) as f64 / 1e9,
            cpu_s,
            rss_mb,
        },
        samples: sampled,
        seqs: first..next.load(Ordering::Relaxed),
    }
}

/// One measured phase's raw outcome.
pub struct Phase {
    /// Latencies by the window they completed in.
    pub windows: Vec<Vec<u64>>,
    /// The length of each window.
    pub window_s: f64,
    pub completed: u64,
    /// From the phase start to its last completion.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
}

impl Phase {
    pub fn cpu_us_per_req(&self) -> f64 {
        1e6 * self.cpu_s / self.completed.max(1) as f64
    }

    /// Completions per second in each window.
    fn window_rates(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.len() as f64 / self.window_s).collect()
    }
}

/// The end-to-end metrics of a measured phase, each read from the
/// fastest quarter of its time windows: a latency quantile is the lower
/// quartile of the windows' own quantiles, throughput the upper quartile
/// of their completion rates. The host's other tenants only ever slow
/// the program, in bursts that last from one to several seconds and move
/// a window's numbers by up to a third; the fastest quarter of the
/// windows is what the program delivers when they leave it alone, and it
/// still moves with every window when the program itself slows down.
/// The tail is the p90: on a 2-vCPU host that shares its cores,
/// one-second windows of a single run gave p99s a factor of ten apart.
/// Returns the sample counts and the phase's CPU per request as workload
/// parameters (CPU per request follows the host's drift too closely to
/// carry a bound; it is a per-layer metric of traced runs).
pub fn end_to_end(
    m: &mut Metrics,
    mut phase: Phase,
    setup_s: &[f64],
    check: &mut Check,
) -> String {
    if phase.windows.iter().any(Vec::is_empty) {
        check.fail("a measured window completed no request");
    }
    let mut per_window = |q: f64| -> f64 {
        let v: Vec<f64> =
            phase.windows.iter_mut().map(|w| quantile(w, q).unwrap_or(0) as f64).collect();
        quantile_f64(&v, 0.25).unwrap_or(0.0)
    };
    let p50 = per_window(0.50);
    let p90 = per_window(0.90);
    m.push("latency_p50_us", p50 / 1e3, "us");
    m.push("latency_p90_us", p90 / 1e3, "us");
    let rps = quantile_f64(&phase.window_rates(), 0.75).unwrap_or(0.0);
    m.push("throughput_rps", rps, "1/s");
    m.push("peak_rss_mb", phase.rss_mb, "MiB");
    m.push("setup_s", median_f64(setup_s), "s");
    let n: usize = phase.windows.iter().map(Vec::len).sum();
    let beyond: usize = phase.windows.iter().map(|w| beyond(w.len(), 0.90)).sum();
    format!(
        ",\"windows\":{},\"samples\":{n},\"beyond_p90\":{beyond},\"cpu_us_per_req\":{}",
        phase.windows.len(),
        phase.cpu_us_per_req()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_split_into_their_windows() {
        let mut check = Check::default();
        let mut lat = Lat::new(8, 5);
        for (ns, w) in [(10, 0), (11, 0), (12, 2), (13, 2), (14, 4)] {
            lat.push(ns, w, &mut check);
        }
        let got: Vec<&[u32]> = lat.windows(5).collect();
        assert_eq!(got, [&[10, 11][..], &[], &[12, 13], &[], &[14]]);
        // A thread that stopped in window 1 leaves the later ones empty.
        let mut early = Lat::new(8, 3);
        early.push(7, 1, &mut check);
        assert_eq!(early.windows(3).collect::<Vec<_>>(), [&[][..], &[7], &[]]);
        assert_eq!(check.failed, 0);
    }

    #[test]
    fn throughput_is_the_upper_quartile_of_window_rates() {
        let phase = Phase {
            windows: [3, 1, 4, 2].map(|n| vec![1; n]).to_vec(),
            window_s: 0.5,
            completed: 10,
            wall_s: 2.0,
            cpu_s: 0.0,
            rss_mb: 0.0,
        };
        assert_eq!(phase.window_rates(), [6.0, 2.0, 8.0, 4.0]);
        let mut m = Metrics::default();
        end_to_end(&mut m, phase, &[1.0], &mut Check::default());
        let rps = m.0.iter().find(|m| m.name == "throughput_rps").expect("throughput");
        // Rank ceil(0.75 · 4) = 3 of 2, 4, 6, 8.
        assert_eq!(rps.value, 6.0);
    }

    #[test]
    fn a_full_latency_buffer_is_a_failure() {
        let mut check = Check::default();
        let mut lat = Lat::new(1, 1);
        lat.push(1, 0, &mut check);
        lat.push(2, 0, &mut check);
        assert_eq!(check.failed, 1);
        assert_eq!(lat.windows(1).collect::<Vec<_>>(), [&[1][..]]);
    }
}
