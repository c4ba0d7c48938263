//! Order statistics, SLO accounting and backlog detection shared by the
//! workloads. Everything here is pure so the self-tests at the bottom can
//! pin the rules the reported numbers depend on.

/// Percentiles the tail is chosen from, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise in `p·n/100` (99.99 × 100 000 is not
    // exactly 99 990) from rounding a whole rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank index of `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it among `n` samples; the maximum (100) when even the median
/// has fewer, so a short sample still reports its worst case.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(100.0)
}

/// Median of an unsorted slice (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median, µs.
    pub p50: f64,
    /// The tail value at [`Latency::tail_pct`], µs.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    /// Samples beyond the tail percentile in each window (a per-call
    /// tail), or windows beyond it (a sustained tail).
    pub beyond: usize,
    /// Samples summarised.
    pub samples: usize,
    /// Contiguous windows the sample was cut into.
    pub windows: usize,
}

/// Most windows [`summarize`] and [`window_rates`] cut a run into: a 50 s
/// run of a workload with thousands of calls per second gets windows of
/// about 0.12 s, so a scheduler stall of a few ms on a shared host
/// spoils a few windows, not the median over them.
pub const WINDOWS: usize = 400;

/// Fewest samples in a window: enough for a p90 with ten beyond it.
const MIN_WINDOW_SAMPLES: usize = 100;

/// Cuts `samples` into `windows` contiguous windows of equal length (the
/// last takes the remainder) and sorts each.
fn sorted_windows(samples: &[f64], windows: usize) -> Vec<Vec<f64>> {
    let windows = windows.clamp(1, samples.len().max(1));
    let size = samples.len() / windows;
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            let mut chunk = samples[w * size..end].to_vec();
            chunk.sort_by(f64::total_cmp);
            chunk
        })
        .collect()
}

/// Summarises latencies in arrival order. The run is cut into up to
/// `max_windows` contiguous windows of at least [`MIN_WINDOW_SAMPLES`];
/// each window gets its median and its tail at one common percentile
/// (picked from the smallest window), and each reported value is the
/// median of its window values, so a few windows spoiled by a scheduler
/// stall of the host do not set the result.
pub fn summarize(samples: &[f64], max_windows: usize) -> Latency {
    assert!(!samples.is_empty(), "no latency samples");
    let windows = (samples.len() / MIN_WINDOW_SAMPLES).clamp(1, max_windows.max(1));
    let tail_pct = tail_percentile(samples.len() / windows);
    summarize_windows(samples, windows, Tail::PerCall(tail_pct))
}

/// How a closed loop's `latency_tail_us` is taken from its windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// This percentile of the calls in each window, median over windows.
    PerCall(f64),
    /// This percentile, over windows, of each window's median call: the
    /// latency the slowest stretches of the run held for a whole window.
    Sustained(f64),
}

/// Summarises closed-loop latencies in windows of a fixed number of
/// calls, with a fixed tail rule. Unlike [`summarize`], neither the
/// windows' length nor the tail percentile depends on how many calls the
/// host's speed let the run make, so runs on a faster or slower host
/// report the same statistic.
pub fn summarize_calls(samples: &[f64], window: usize, tail: Tail) -> Latency {
    assert!(!samples.is_empty(), "no latency samples");
    summarize_windows(samples, samples.len() / window.max(1), tail)
}

fn summarize_windows(samples: &[f64], windows: usize, tail: Tail) -> Latency {
    let chunks = sorted_windows(samples, windows);
    let p50s: Vec<f64> = chunks.iter().map(|c| percentile(c, 50.0)).collect();
    let (tail_pct, tail_us, beyond_it) = match tail {
        Tail::PerCall(p) => {
            let tails: Vec<f64> = chunks.iter().map(|c| percentile(c, p)).collect();
            (p, median(&tails), beyond(chunks[0].len(), p))
        }
        Tail::Sustained(p) => {
            let mut sorted = p50s.clone();
            sorted.sort_by(f64::total_cmp);
            (p, percentile(&sorted, p), beyond(sorted.len(), p))
        }
    };
    Latency {
        p50: median(&p50s),
        tail: tail_us,
        tail_pct,
        beyond: beyond_it,
        samples: samples.len(),
        windows: chunks.len(),
    }
}

/// Completion rates, per second, of up to `max_windows` contiguous
/// windows of equal completion count (at least [`MIN_WINDOW_SAMPLES`]
/// each). `done_s` holds completion times in seconds from the start of
/// the measured span; a window's rate is its completions over the time
/// from the previous window's last completion (or the start) to its own.
pub fn window_rates(done_s: &[f64], max_windows: usize) -> Vec<f64> {
    let windows = (done_s.len() / MIN_WINDOW_SAMPLES).clamp(1, max_windows.max(1));
    rates_in(done_s, windows)
}

/// Completion rates as in [`window_rates`], over windows of a fixed
/// `per_window` completions.
pub fn call_rates(done_s: &[f64], per_window: usize) -> Vec<f64> {
    rates_in(done_s, done_s.len() / per_window.max(1))
}

fn rates_in(done_s: &[f64], windows: usize) -> Vec<f64> {
    let mut done = done_s.to_vec();
    done.sort_by(f64::total_cmp);
    if done.is_empty() {
        return Vec::new();
    }
    let windows = windows.clamp(1, done.len());
    let size = done.len() / windows;
    let mut from = 0.0;
    (0..windows)
        .map(|w| {
            let last = if w + 1 == windows {
                done.len()
            } else {
                (w + 1) * size
            } - 1;
            let count = last + 1 - w * size;
            let rate = count as f64 / (done[last] - from);
            from = done[last];
            rate
        })
        .collect()
}

/// Latency of an open-loop request counted from when it was due, not from
/// when the generator got round to sending it: a stalled generator makes
/// every request due during the stall late, and that wait is the client's.
pub fn due_latency_us(due_us: f64, submit_us: f64, service_us: f64) -> f64 {
    (submit_us - due_us).max(0.0) + service_us
}

/// Queue depth growth, beyond doubling, that marks a backlog as growing.
pub const BACKLOG_SLACK: f64 = 8.0;

/// Whether queue-depth samples taken at even intervals over a phase show
/// a growing backlog: the mean depth over the last third exceeds twice
/// the first third's by more than [`BACKLOG_SLACK`] requests. A queue
/// pinned at capacity from the start is not *growing*; its refusals miss
/// the SLO instead.
pub fn backlog_grows(depths: &[usize]) -> bool {
    let third = depths.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let early = mean(&depths[..third]);
    let late = mean(&depths[depths.len() - third..]);
    late > 2.0 * early + BACKLOG_SLACK
}

/// Samples per window for the SLO tail: enough for a p99 with ten beyond.
const SLO_WINDOW: usize = 1_000;

/// The SLO tail of a phase: p99 of due-time latency per window of about
/// [`SLO_WINDOW`] requests, median over windows.
pub fn slo_tail_us(latencies: &[f64]) -> f64 {
    if latencies.len() < SLO_WINDOW {
        return f64::INFINITY;
    }
    let s = summarize(latencies, latencies.len() / SLO_WINDOW);
    debug_assert_eq!(s.tail_pct, 99.0);
    s.tail
}

/// The share of requests refused or failed, per window of about
/// [`SLO_WINDOW`] sent requests in sending order, median over windows (0
/// when nothing was sent).
pub fn miss_share(missed: &[bool]) -> f64 {
    let shares: Vec<f64> = missed
        .chunks(SLO_WINDOW)
        .filter(|w| w.len() * 2 >= SLO_WINDOW || missed.len() < SLO_WINDOW)
        .map(|w| w.iter().filter(|&&m| m).count() as f64 / w.len() as f64)
        .collect();
    if shares.is_empty() {
        return 0.0;
    }
    median(&shares)
}

/// One open-loop phase at a fixed offered rate, as judged for the SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePhase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent (due) in the phase.
    pub sent: usize,
    /// [`miss_share`] of the sent requests.
    pub miss_share: f64,
    /// [`slo_tail_us`] of the answered requests.
    pub tail_us: f64,
    /// Whether the queue-depth samples showed a growing backlog.
    pub backlog_growing: bool,
}

impl RatePhase {
    /// Whether the phase meets the SLO: a miss share of at most
    /// `1 − share`, the SLO tail within `limit_us`, and no growing backlog.
    pub fn meets(&self, share: f64, limit_us: f64) -> bool {
        self.sent > 0
            && !self.backlog_growing
            && self.miss_share <= 1.0 - share
            && self.tail_us <= limit_us
    }
}

/// The highest offered rate whose phase meets the SLO (0 when none does).
pub fn max_rate_at_slo(phases: &[RatePhase], share: f64, limit_us: f64) -> f64 {
    phases
        .iter()
        .filter(|p| p.meets(share, limit_us))
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        // 1_009 samples: p99.9 leaves 1, p99 leaves 10.
        assert_eq!(tail_percentile(1_009), 99.0);
        // 99 samples: p90 leaves 9, so fall back to the median.
        assert_eq!(tail_percentile(99), 50.0);
        // Too few for even the median: report the maximum.
        assert_eq!(tail_percentile(15), 100.0);
        assert_eq!(tail_percentile(0), 100.0);
        for n in [20usize, 57, 100, 999, 1_000, 12_345] {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn summary_ignores_a_disturbed_window() {
        // Ten windows of 1000; one window is disturbed by 1000 µs.
        let mut samples = Vec::new();
        for w in 0..10 {
            let base = if w == 3 { 1_000.0 } else { 0.0 };
            samples.extend((0..1_000).map(|i| base + 10.0 + (i % 100) as f64));
        }
        let s = summarize(&samples, 10);
        assert_eq!(s.windows, 10);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.p50, 59.0);
        assert_eq!(s.tail, 108.0);
        assert_eq!(s.samples, 10_000);
    }

    #[test]
    fn closed_loop_tail_is_fixed_whatever_the_call_count() {
        // A p99 per 1000-call window stays p99 however many calls a
        // faster host fits in the run, where `summarize` would move on to
        // p99.9 once windows reach 10 000 calls.
        let calls: Vec<f64> = (0..40_000).map(|i| (i % 1_000) as f64).collect();
        let s = summarize_calls(&calls, 1_000, Tail::PerCall(99.0));
        assert_eq!((s.windows, s.tail_pct, s.beyond), (40, 99.0, 10));
        assert_eq!((s.p50, s.tail), (499.0, 989.0));
        assert_eq!(summarize(&calls, 4).tail_pct, 99.9);
        // Fewer calls than one window: one window of all of them.
        assert_eq!(summarize_calls(&calls[..10], 1_000, Tail::PerCall(90.0)).windows, 1);
    }

    #[test]
    fn sustained_tail_follows_slow_stretches_not_single_calls() {
        // 100 windows of 20 calls at 10 µs. Every window has two 500 µs
        // calls, which set a per-call p90 but not a window's median.
        let mut calls = Vec::new();
        for w in 0..100 {
            // Windows 0..=19 are a slow stretch at 30 µs.
            let base = if w < 20 { 30.0 } else { 10.0 };
            calls.extend((0..20).map(|i| if i < 2 { 500.0 } else { base }));
        }
        let s = summarize_calls(&calls, 20, Tail::Sustained(90.0));
        assert_eq!((s.windows, s.beyond), (100, 10));
        assert_eq!((s.p50, s.tail), (10.0, 30.0));
        let per_call = summarize_calls(&calls, 20, Tail::PerCall(90.0));
        assert_eq!(per_call.tail, 10.0);
        assert_eq!(summarize_calls(&calls, 20, Tail::PerCall(95.0)).tail, 500.0);
    }

    #[test]
    fn window_rates_split_by_count() {
        // 1000 completions/s for 2 s, then 500/s for 2 s (1000 each).
        let mut done: Vec<f64> = (1..=2_000).map(|i| i as f64 / 1_000.0).collect();
        done.extend((1..=1_000).map(|i| 2.0 + i as f64 / 500.0));
        let rates = window_rates(&done, 3);
        assert_eq!(rates.len(), 3);
        assert!((rates[0] - 1_000.0).abs() < 1e-6);
        assert!((rates[1] - 1_000.0).abs() < 1e-6);
        assert!((rates[2] - 500.0).abs() < 1e-6);
        assert_eq!(median(&rates), 1_000.0);
        assert_eq!(window_rates(&[0.5, 1.0], 10), vec![2.0]);
        assert!(window_rates(&[], 10).is_empty());
        // Fixed windows of 1000 completions: the same three rates.
        assert_eq!(call_rates(&done, 1_000), rates);
        assert_eq!(call_rates(&done, 2).len(), 1_500);
        assert_eq!(call_rates(&[0.5, 1.0], 1_000), vec![2.0]);
    }

    #[test]
    fn stalled_generator_charges_the_wait_to_requests() {
        // Requests due every 100 µs, each served in 50 µs once sent. The
        // generator stalls 10 ms at request 100, then sends the backlog
        // at once.
        let stall_at = 100;
        let stall_us = 10_000.0;
        let mut from_due = Vec::new();
        let mut from_submit = Vec::new();
        for i in 0..1_000 {
            let due = i as f64 * 100.0;
            let resume = stall_at as f64 * 100.0 + stall_us;
            let submit = if i >= stall_at && due < resume {
                resume
            } else {
                due
            };
            from_due.push(due_latency_us(due, submit, 50.0));
            from_submit.push(50.0);
        }
        // The 100 requests due during the stall waited up to 10 ms.
        let late = from_due.iter().filter(|&&l| l > 50.0).count();
        assert_eq!(late, 100);
        assert_eq!(from_due[stall_at], 10_050.0);
        let due = summarize(&from_due, 1);
        let submit = summarize(&from_submit, 1);
        assert!(due.tail > 9_000.0, "tail hides the stall: {}", due.tail);
        assert_eq!(submit.tail, 50.0, "send-time latency cannot see a stall");
        // An early send is never negative latency.
        assert_eq!(due_latency_us(100.0, 90.0, 5.0), 5.0);
    }

    #[test]
    fn backlog_detection() {
        let steady: Vec<usize> = (0..300).map(|i| 3 + i % 5).collect();
        assert!(!backlog_grows(&steady));
        let saturated = vec![256usize; 300];
        assert!(!backlog_grows(&saturated));
        let ramp: Vec<usize> = (0..300).map(|i| i / 2).collect();
        assert!(backlog_grows(&ramp));
        // Small noisy growth below the slack is not a backlog.
        let wobble: Vec<usize> = (0..300).map(|i| if i > 200 { 6 } else { 1 }).collect();
        assert!(!backlog_grows(&wobble));
        assert!(!backlog_grows(&[1, 50]));
    }

    #[test]
    fn max_rate_respects_share_tail_and_backlog() {
        let phase = |rate: f64, missed: usize, tail_us: f64, growing: bool| RatePhase {
            rate,
            sent: 1_000,
            miss_share: missed as f64 / 1_000.0,
            tail_us,
            backlog_growing: growing,
        };
        let phases = [
            phase(1_000.0, 0, 900.0, false),
            phase(2_000.0, 10, 4_000.0, false),
            // Meets share and tail but its backlog grows: not sustainable.
            phase(4_000.0, 0, 900.0, true),
            // Too many refusals.
            phase(8_000.0, 400, 900.0, false),
            // Tail over the limit.
            phase(16_000.0, 0, 6_000.0, false),
        ];
        assert_eq!(max_rate_at_slo(&phases, 0.99, 5_000.0), 2_000.0);
        assert_eq!(max_rate_at_slo(&phases, 0.999, 5_000.0), 1_000.0);
        assert_eq!(max_rate_at_slo(&phases, 0.99, 1_000.0), 1_000.0);
        assert_eq!(max_rate_at_slo(&phases[3..], 0.99, 5_000.0), 0.0);
        let empty = phase(1.0, 0, 0.0, false);
        assert!(!RatePhase { sent: 0, ..empty }.meets(0.99, 5_000.0));
    }

    #[test]
    fn slo_tail_is_a_windowed_p99() {
        // 5 windows of 1000: p99 is 990 in each, but one window has a
        // stall pushing its top 5% to 50 ms.
        let mut lat = Vec::new();
        for w in 0..5 {
            lat.extend((1..=1_000).map(|i| {
                if w == 2 && i > 950 {
                    50_000.0
                } else {
                    i as f64
                }
            }));
        }
        assert_eq!(slo_tail_us(&lat), 990.0);
        assert_eq!(slo_tail_us(&lat[..999]), f64::INFINITY);
    }

    #[test]
    fn miss_share_ignores_a_stalled_window() {
        // 10 windows of 1000; a stall refuses 600 requests in one window
        // and 5 in each of the others.
        let mut missed = Vec::new();
        for w in 0..10 {
            let n = if w == 4 { 600 } else { 5 };
            missed.extend((0..1_000).map(|i| i < n));
        }
        assert_eq!(miss_share(&missed), 0.005);
        // Overload refuses in every window.
        let overload: Vec<bool> = (0..10_000).map(|i| i % 3 == 0).collect();
        assert!((miss_share(&overload) - 0.333).abs() < 0.001);
        // A short phase is one window; an empty one misses nothing.
        assert_eq!(miss_share(&[true, false, false, false]), 0.25);
        assert_eq!(miss_share(&[]), 0.0);
    }
}
