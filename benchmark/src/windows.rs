//! Window aggregation: a run is cut into short equal windows, and each
//! timing value is read off a fit of the windows' values against the share
//! of CPU time the host granted.
//!
//! The benchmark runs on shared virtual machines whose hypervisor takes
//! the cores away for tens of seconds at a time: `steal` in `/proc/stat`
//! reaches 60 %, a 100 ms operation then takes 250 ms, whole runs fall
//! inside such a phase, and no statistic of the raw values repeats within
//! a factor of two. What does repeat is the relation between a window's
//! value and the share of the CPU time the guest asked for that it got
//! (`busy / (busy + stolen)`), a power law within a run. So every window
//! records that share, throughput and CPU time per request are fitted
//! against it, latency follows throughput's exponent as far as the
//! operation is long (see [`latency_slope`]), and the value reported is the
//! one at a share of 1: what the run's own windows say the metric is on an
//! undisturbed host. On a quiet host that is the geometric mean of the
//! window values. The median of the raw window values, the exponent and
//! the mean share are reported beside it.

use std::time::{Duration, Instant};

use crate::driver::{Kind, Sample};
use crate::host;
use crate::json::Json;
use crate::stats;

/// A window whose slowest operation is this many times its median is
/// named a stall (a noisy neighbour, not the program).
pub const STALL_RATIO: f64 = 100.0;

/// Exponent range for throughput against the granted share: a closed
/// loop bound by the CPU cannot lose less than the share taken from it.
const RATE_SLOPES: (f64, f64) = (1.0, 2.0);
/// Exponent range for CPU time per request: taking cores away does not
/// make a request cheaper.
const COST_SLOPES: (f64, f64) = (-2.0, 0.0);
/// The order of a hypervisor time slice, in µs.
const SLICE_US: f64 = 4000.0;

/// The exponent of a latency percentile against the granted share, given
/// throughput's fitted exponent and the percentile's raw value.
///
/// In a closed loop mean latency is clients ÷ throughput, so it carries
/// throughput's exponent, negated. A percentile follows the mean as far as
/// the operation is long: one that spans many stolen slices loses its
/// share of each, while among operations far shorter than a slice a few
/// are hit whole and the rest not at all, so the tail absorbs the loss and
/// the median does not move. Fitting this exponent per run was tried
/// first; twenty noisy windows do not pin it down (the same code gave
/// 116 ms and 230 ms), tying it to throughput's does.
pub fn latency_slope(rate_slope: f64, raw_us: f64) -> f64 {
    -rate_slope * raw_us / (raw_us + SLICE_US)
}

/// What the watcher read at a window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Mark {
    /// When, from the run's origin.
    pub at: Duration,
    /// CPU seconds the process has used so far (all threads).
    pub cpu_s: Option<f64>,
    /// Peak resident set since the previous mark, MiB.
    pub peak_rss_mb: Option<f64>,
    /// System-wide `(busy, stolen)` CPU seconds so far.
    pub system_cpu_s: Option<(f64, f64)>,
}

impl Mark {
    /// Read the clocks now.
    pub fn now(origin: Instant) -> Mark {
        Mark {
            at: origin.elapsed(),
            cpu_s: host::process_cpu_s(),
            peak_rss_mb: host::peak_rss_mb(),
            system_cpu_s: host::system_cpu_s(),
        }
    }

    /// Share of the CPU time the guest wanted between `self` and the
    /// later `end` that it was granted.
    pub fn granted_until(&self, end: &Mark) -> Option<f64> {
        let (a, b) = self.system_cpu_s.zip(end.system_cpu_s)?;
        let (busy, stolen) = (b.0 - a.0, b.1 - a.1);
        (busy > 0.0).then(|| busy / (busy + stolen))
    }
}

/// Sleep from boundary to boundary of `count` windows of length `window`
/// starting at `origin`, reading the clocks at each; returns `count + 1`
/// marks. Runs on the caller's thread while the clients run on theirs.
pub fn watch(origin: Instant, window: Duration, count: usize) -> Vec<Mark> {
    (0..=count)
        .map(|k| {
            let boundary = origin + window * k as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let mark = Mark::now(origin);
            // The next window's peak starts from what is resident now.
            host::reset_peak_rss();
            mark
        })
        .collect()
}

/// One window's values.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Operations that completed in the window.
    pub samples: usize,
    /// Requests completed per second.
    pub throughput_qps: f64,
    /// Median operation latency (µs).
    pub p50_us: f64,
    /// 90th-percentile operation latency (µs).
    pub p90_us: f64,
    /// Slowest operation (µs).
    pub max_us: f64,
    /// Process CPU time per request (µs), all threads, clients included.
    pub cpu_us_per_request: Option<f64>,
    /// Peak resident set within the window (MiB).
    pub peak_rss_mb: Option<f64>,
    /// Share of the CPU time the guest wanted that it was granted.
    pub granted: Option<f64>,
}

/// One timing metric of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The reported value: the fit at a granted share of 1, or the raw
    /// median where the host does not say what it granted.
    pub value: f64,
    /// Median of the windows' raw values.
    pub raw_median: f64,
    /// Fitted exponent against the granted share (0 without a fit).
    pub slope: f64,
}

/// A run's aggregated client-side numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The windows, in time order (empty ones dropped).
    pub windows: Vec<Window>,
    /// Requests completed per second.
    pub throughput_qps: Timing,
    /// The windows' median operation latency (µs).
    pub latency_p50_us: Timing,
    /// The windows' 90th-percentile operation latency (µs).
    pub latency_p90_us: Timing,
    /// Process CPU time per request (µs).
    pub cpu_us_per_request: Option<Timing>,
    /// Median of the windows' peaks (memory is not disturbed by steal).
    pub peak_rss_mb: Option<f64>,
    /// Mean granted share over the windows.
    pub granted_mean: Option<f64>,
    /// `(max − min) / median` of the windows' raw throughputs.
    pub window_spread: f64,
    /// Windows whose max latency exceeds [`STALL_RATIO`] × their median.
    pub stall_windows: usize,
    /// Slowest operation of the run (µs).
    pub latency_max_us: f64,
    /// The highest percentile beyond the 90th that the pooled sample
    /// supports (ten samples beyond it), with its raw value.
    pub tail: Option<(f64, f64)>,
    /// Median latency of the pooled reads / writes (µs), on a mixed run.
    pub read_p50_us: Option<f64>,
    /// See `read_p50_us`.
    pub write_p50_us: Option<f64>,
    /// Operations in all windows together.
    pub samples: usize,
}

/// One metric's window values against the windows' granted shares: the
/// exponent comes from `slope_of` (given the `(share, value)` points and
/// the raw median), the value is read at a share of 1. Where the host does
/// not say what it granted, the raw median stands.
fn timing(
    windows: &[Window],
    value: fn(&Window) -> Option<f64>,
    slope_of: impl FnOnce(&[(f64, f64)], f64) -> Option<f64>,
) -> Option<Timing> {
    let values: Vec<f64> = windows.iter().filter_map(value).collect();
    let raw_median = stats::median(&values)?;
    let points: Option<Vec<(f64, f64)>> = windows
        .iter()
        .map(|w| Some((w.granted?, value(w)?)))
        .collect();
    let read = points.and_then(|p| {
        let slope = slope_of(&p, raw_median)?;
        Some((stats::at_full_grant(&p, slope)?, slope))
    });
    let (value, slope) = read.unwrap_or((raw_median, 0.0));
    Some(Timing {
        value,
        raw_median,
        slope,
    })
}

/// A [`timing`] exponent fitted by least squares within `range`.
fn fitted(range: (f64, f64)) -> impl FnOnce(&[(f64, f64)], f64) -> Option<f64> {
    move |points, _| Some(stats::fit_at_full_grant(points, range)?.slope)
}

/// Aggregate `samples` over the windows that `marks` bound (window `k`
/// runs from mark `k` to mark `k + 1`). `None` when no window holds a
/// sample.
pub fn summarize(samples: &[Sample], marks: &[Mark]) -> Option<Summary> {
    let bounds: Vec<f64> = marks.iter().map(|m| m.at.as_secs_f64()).collect();
    let count = bounds.len().checked_sub(1)?;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); count];
    let mut requests = vec![0f64; count];
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for s in samples {
        // Throughput: an operation's requests are credited to each window
        // in proportion to the part of the operation that ran inside it, so
        // a window of a few 200 ms passes is not quantized to whole passes.
        let end = s.end.as_secs_f64();
        let start = (end - s.latency_us / 1e6).max(0.0);
        for (credit, w) in requests.iter_mut().zip(bounds.windows(2)) {
            let inside = (end.min(w[1]) - start.max(w[0])).max(0.0);
            if inside > 0.0 {
                *credit += f64::from(s.requests) * inside / (end - start);
            }
        }
        // Latency: the operation belongs to the window it completed in.
        let Some(k) = bounds.windows(2).position(|w| w[0] <= end && end < w[1]) else {
            continue; // Finished after the last window closed.
        };
        latencies[k].push(s.latency_us);
        match s.kind {
            Kind::Write => writes.push(s.latency_us),
            Kind::Read | Kind::Pass => reads.push(s.latency_us),
        }
    }
    let mut pooled = Vec::new();
    let mut windows = Vec::new();
    for (k, lat) in latencies.iter_mut().enumerate() {
        stats::sort(lat);
        let (Some(p50), Some(p90), Some(&max)) = (
            stats::percentile(lat, 50.0),
            stats::percentile(lat, 90.0),
            lat.last(),
        ) else {
            continue;
        };
        pooled.extend_from_slice(lat);
        let cpu_s = marks[k + 1].cpu_s.zip(marks[k].cpu_s).map(|(b, a)| b - a);
        windows.push(Window {
            samples: lat.len(),
            throughput_qps: requests[k] / (bounds[k + 1] - bounds[k]),
            p50_us: p50,
            p90_us: p90,
            max_us: max,
            cpu_us_per_request: cpu_s.map(|s| s * 1e6 / requests[k]).filter(|us| *us > 0.0),
            peak_rss_mb: marks[k + 1].peak_rss_mb,
            granted: marks[k].granted_until(&marks[k + 1]),
        });
    }
    stats::sort(&mut pooled);
    let column =
        |f: fn(&Window) -> Option<f64>| -> Vec<f64> { windows.iter().filter_map(f).collect() };
    let granted = column(|w| w.granted);
    let throughput_qps = timing(&windows, |w| Some(w.throughput_qps), fitted(RATE_SLOPES))?;
    let tied = |_: &[(f64, f64)], raw_us: f64| Some(latency_slope(throughput_qps.slope, raw_us));
    Some(Summary {
        throughput_qps,
        latency_p50_us: timing(&windows, |w| Some(w.p50_us), tied)?,
        latency_p90_us: timing(&windows, |w| Some(w.p90_us), tied)?,
        cpu_us_per_request: timing(&windows, |w| w.cpu_us_per_request, fitted(COST_SLOPES)),
        peak_rss_mb: stats::median(&column(|w| w.peak_rss_mb)),
        granted_mean: (!granted.is_empty())
            .then(|| granted.iter().sum::<f64>() / granted.len() as f64),
        window_spread: stats::relative_spread(&column(|w| Some(w.throughput_qps)))?,
        stall_windows: windows
            .iter()
            .filter(|w| w.max_us > STALL_RATIO * w.p50_us)
            .count(),
        latency_max_us: *pooled.last()?,
        tail: stats::highest_supported_percentile(pooled.len())
            .filter(|p| *p > 90.0)
            .and_then(|p| Some((p, stats::percentile(&pooled, p)?))),
        read_p50_us: stats::median(&reads).filter(|_| !writes.is_empty()),
        write_p50_us: stats::median(&writes),
        samples: pooled.len(),
        windows,
    })
}

impl Summary {
    /// The per-window values, for the detail file.
    pub fn windows_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::Arr(
            self.windows
                .iter()
                .map(|w| {
                    Json::obj([
                        ("samples", Json::Int(w.samples as i64)),
                        ("granted", opt(w.granted)),
                        ("throughput_qps", Json::Num(w.throughput_qps)),
                        ("latency_p50_us", Json::Num(w.p50_us)),
                        ("latency_p90_us", Json::Num(w.p90_us)),
                        ("latency_max_us", Json::Num(w.max_us)),
                        ("cpu_us_per_request", opt(w.cpu_us_per_request)),
                        ("peak_rss_mb", opt(w.peak_rss_mb)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_ms: u64, latency_us: f64, kind: Kind) -> Sample {
        Sample {
            end: Duration::from_millis(end_ms),
            latency_us,
            kind,
            requests: if kind == Kind::Pass { 6 } else { 1 },
        }
    }

    /// Marks one second apart; CPU time and peak memory per mark, and no
    /// word from the host on what it granted.
    fn marks(cpu_s: &[f64], rss: &[f64]) -> Vec<Mark> {
        cpu_s
            .iter()
            .zip(rss)
            .enumerate()
            .map(|(k, (c, r))| Mark {
                at: Duration::from_secs(k as u64),
                cpu_s: Some(*c),
                peak_rss_mb: Some(*r),
                system_cpu_s: None,
            })
            .collect()
    }

    fn plain_marks(count: usize) -> Vec<Mark> {
        (0..=count)
            .map(|k| Mark {
                at: Duration::from_secs(k as u64),
                cpu_s: None,
                peak_rss_mb: None,
                system_cpu_s: None,
            })
            .collect()
    }

    #[test]
    fn without_the_host_signal_values_are_medians_of_windows() {
        // Three 1 s windows with 2, 4 and 3 reads; latencies differ per
        // window so each window's median is known.
        let mut samples = Vec::new();
        for (w, (n, lat)) in [(2u64, 100.0), (4, 300.0), (3, 200.0)].iter().enumerate() {
            for i in 0..*n {
                samples.push(sample(w as u64 * 1000 + 100 + i, *lat, Kind::Read));
            }
        }
        // One operation that finished after the last window is dropped.
        samples.push(sample(3500, 1e5, Kind::Read));
        // CPU: 2 ms, 2 ms, 6 ms per window; peaks 10, 30, 20 MiB (the
        // first mark's peak belongs to no window).
        let m = marks(&[1.0, 1.002, 1.004, 1.010], &[99.0, 10.0, 30.0, 20.0]);
        let s = summarize(&samples, &m).unwrap();
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.samples, 9);
        let plain = |v: f64| Timing {
            value: v,
            raw_median: v,
            slope: 0.0,
        };
        assert_eq!(s.throughput_qps, plain(3.0));
        assert_eq!(s.latency_p50_us, plain(200.0));
        assert_eq!(s.latency_p90_us, plain(200.0));
        assert_eq!(s.granted_mean, None);
        assert_eq!(s.window_spread, (4.0 - 2.0) / 3.0);
        assert_eq!(s.latency_max_us, 300.0);
        assert_eq!(s.stall_windows, 0);
        assert_eq!(s.tail, None);
        assert_eq!(s.read_p50_us, None);
        assert_eq!(s.write_p50_us, None);
        // 1000, 500 and 2000 µs per request: the median window's.
        assert!((s.cpu_us_per_request.unwrap().value - 1000.0).abs() < 1e-6);
        assert_eq!(s.peak_rss_mb, Some(20.0));
    }

    #[test]
    fn timing_values_are_read_at_a_full_grant() {
        // Six 1 s windows on a host that granted these shares; the
        // program does 8 requests/s undisturbed, each taking 300 µs, and
        // both follow power laws in the share.
        let shares = [0.5, 0.5, 1.0, 0.9, 0.25, 1.0];
        let mut marks = vec![Mark {
            at: Duration::ZERO,
            cpu_s: None,
            peak_rss_mb: None,
            system_cpu_s: Some((0.0, 0.0)),
        }];
        let mut samples = Vec::new();
        for (k, g) in shares.iter().enumerate() {
            let (busy, stolen) = marks[k].system_cpu_s.unwrap();
            marks.push(Mark {
                at: Duration::from_secs(k as u64 + 1),
                cpu_s: None,
                peak_rss_mb: Some(10.0 * (k + 1) as f64),
                system_cpu_s: Some((busy + g, stolen + 1.0 - g)),
            });
            let n = (8.0 * g).round() as u64;
            for i in 0..n {
                let end = k as u64 * 1000 + 100 + i;
                samples.push(sample(end, 300.0 / g, Kind::Read));
            }
        }
        let s = summarize(&samples, &marks).unwrap();
        assert_eq!(s.windows.len(), 6);
        assert_eq!(s.windows[4].granted, Some(0.25));
        // Raw medians sit between the disturbed and the free windows...
        assert_eq!(s.throughput_qps.raw_median, 5.5);
        assert_eq!(s.latency_p50_us.raw_median, (300.0 / 0.9 + 600.0) / 2.0);
        // ...the fits recover the undisturbed values and the exponents.
        assert!(
            (s.throughput_qps.value - 8.0).abs() < 0.2,
            "{:?}",
            s.throughput_qps
        );
        assert!((s.throughput_qps.slope - 1.0).abs() < 0.05);
        // 300 µs operations are far shorter than a stolen slice, so their
        // percentiles take only a little of throughput's exponent.
        let p50 = s.latency_p50_us;
        assert_eq!(
            p50.slope,
            latency_slope(s.throughput_qps.slope, p50.raw_median)
        );
        assert!(p50.slope < 0.0 && p50.slope > -0.15, "{p50:?}");
        assert!(p50.value > 300.0 && p50.value < p50.raw_median, "{p50:?}");
        // What is not timing is not fitted.
        assert_eq!(s.peak_rss_mb, Some(35.0));
        assert_eq!(s.latency_max_us, 1200.0);
        assert!((s.granted_mean.unwrap() - 4.15 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn long_operations_follow_throughput_and_short_ones_do_not() {
        assert_eq!(latency_slope(1.2, 300.0), -1.2 * 300.0 / 4300.0);
        assert!(latency_slope(1.2, 300.0) > -0.1);
        assert!(latency_slope(1.2, 100_000.0) < -1.15);
        assert_eq!(latency_slope(1.0, 0.0), 0.0);
    }

    #[test]
    fn a_pass_counts_its_requests_and_a_stall_is_named() {
        let mut samples: Vec<Sample> = (1..=30)
            .map(|i| sample(i * 10, 1000.0, Kind::Pass))
            .collect();
        samples.push(sample(400, 150_000.0, Kind::Pass));
        let s = summarize(&samples, &plain_marks(2)).unwrap();
        // The second window is empty and dropped.
        assert_eq!(s.windows.len(), 1);
        assert_eq!(s.throughput_qps.value, 31.0 * 6.0);
        assert_eq!(s.stall_windows, 1);
        assert_eq!(s.latency_p50_us.value, 1000.0);
        assert_eq!(s.tail, None);
        assert_eq!(s.cpu_us_per_request, None);
        assert_eq!(s.peak_rss_mb, None);
    }

    #[test]
    fn an_operation_across_a_boundary_is_shared_between_windows() {
        // One 400 ms pass of 6 requests ending 100 ms into the second
        // window: three quarters of it ran in the first.
        let samples = [sample(1100, 400_000.0, Kind::Pass)];
        let s = summarize(&samples, &plain_marks(2)).unwrap();
        // Only the window it completed in has a latency sample...
        assert_eq!(s.windows.len(), 1);
        // ...and that window is credited a quarter of the requests.
        let credited = s.throughput_qps.value;
        assert!((credited - 1.5).abs() < 1e-9, "{credited}");
    }

    #[test]
    fn reads_and_writes_are_split_only_on_a_mixed_run() {
        let samples = [
            sample(10, 100.0, Kind::Read),
            sample(20, 5000.0, Kind::Write),
            sample(30, 300.0, Kind::Read),
        ];
        let s = summarize(&samples, &plain_marks(1)).unwrap();
        assert_eq!(s.read_p50_us, Some(200.0));
        assert_eq!(s.write_p50_us, Some(5000.0));
        assert!(summarize(&[], &plain_marks(3)).is_none());
        assert!(summarize(&samples, &[]).is_none());
    }

    #[test]
    fn the_watcher_marks_every_boundary() {
        let origin = Instant::now();
        let m = watch(origin, Duration::from_millis(5), 3);
        assert_eq!(m.len(), 4);
        for (k, mark) in m.iter().enumerate() {
            assert!(mark.at >= Duration::from_millis(5 * k as u64));
        }
        assert!(m.windows(2).all(|w| w[0].cpu_s <= w[1].cpu_s));
    }
}
