//! A dependency-free micro-benchmark harness.
//!
//! The container this repo builds in has no network access to the crate
//! registry, so the benches cannot use criterion; this module provides the
//! small subset we need: warm-up, a fixed measurement window, and a
//! per-iteration mean. Results are printed in a criterion-like one-line
//! format and returned for machine output (`perfsuite` writes JSON).

use std::time::{Duration, Instant};

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name, e.g. `sim_comb_chain/256`.
    pub name: String,
    /// Iterations executed inside the measurement window.
    pub iters: u64,
    /// Total wall time of the measurement window.
    pub total: Duration,
}

impl Measurement {
    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.total.as_nanos() as f64 / self.iters.max(1) as f64
    }

    /// Mean iterations per second.
    pub fn iters_per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter()
    }

    /// Mean milliseconds per iteration.
    pub fn ms_per_iter(&self) -> f64 {
        self.ns_per_iter() / 1e6
    }
}

/// Renders a duration the way a human scans a bench table.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Runs `f` repeatedly: a short warm-up, then a fixed measurement window,
/// and returns the mean. The closure's result is passed through
/// [`std::hint::black_box`] so the optimizer cannot delete the work.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    const WARMUP: Duration = Duration::from_millis(150);
    const WINDOW: Duration = Duration::from_millis(600);

    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP {
        std::hint::black_box(f());
        warm_iters += 1;
    }

    // Size batches from the warm-up rate so we check the clock rarely.
    let per_iter = warm_start.elapsed().as_nanos() as u64 / warm_iters.max(1);
    let batch = (10_000_000 / per_iter.max(1)).clamp(1, 10_000);

    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < WINDOW {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        iters += batch;
    }
    let m = Measurement {
        name: name.to_owned(),
        iters,
        total: start.elapsed(),
    };
    println!(
        "{:<40} {:>12}/iter   ({} iters)",
        m.name,
        fmt_ns(m.ns_per_iter()),
        m.iters
    );
    m
}

/// Result of a paired overhead measurement.
///
/// `pct` is the number to report: the median paired slowdown, clamped to
/// ≥ 0 because a real overhead cannot be negative — a negative median
/// means measurement noise exceeded the effect. `raw_pct` keeps the
/// unclamped median for diagnostics. `ci_lo_pct..ci_hi_pct` is an
/// approximate 95% confidence interval for the median (sign-test order
/// statistics over the quad ratios — distribution-free, so timing
/// outliers cannot widen it arbitrarily), and `noisy` records that the
/// interval contains zero: the measurement cannot distinguish the
/// overhead from nothing.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// Median paired slowdown in percent, clamped to `max(raw_pct, 0)`.
    pub pct: f64,
    /// Unclamped median, possibly negative under noise.
    pub raw_pct: f64,
    /// Lower bound of the ~95% CI for the median slowdown, percent.
    pub ci_lo_pct: f64,
    /// Upper bound of the ~95% CI for the median slowdown, percent.
    pub ci_hi_pct: f64,
    /// True when the CI straddles zero — the effect is not resolved.
    pub noisy: bool,
    /// ABBA quads actually measured (adaptive, odd, 9..=25).
    pub quads: usize,
    /// Measurement window actually used per closure run, in ms.
    pub window_ms: f64,
}

/// Measures the per-iteration slowdown of `with` relative to `base`,
/// robustly against machine drift (frequency scaling, noisy neighbors).
///
/// Each repetition runs the closures in an ABBA quad — base, with, with,
/// base — so linear drift within the quad cancels to first order, and the
/// per-quad ratio is `(b₁+b₂)/(a₁+a₂)`. The reported overhead is the
/// median over the quads, with a sign-test 95% CI from the sorted
/// ratios. A separately-benched mean comparison would fold seconds of
/// drift into the delta; even simple AB pairing leaves a first-order
/// drift term, which is how earlier runs recorded a physically
/// impossible −7% overhead.
///
/// The window is adaptive: the warm-up pass doubles as calibration, and
/// the window is stretched (up to a cap) so that even a slow workload
/// completes enough iterations per window for the per-window mean to be
/// stable. A fixed short window gave slow workloads 1–2 iterations per
/// window, and their quad ratios were pure scheduling noise — which is
/// why `noisy` used to stick on for exactly the workloads where the
/// overhead mattered most. The quad count shrinks (never below 9) to
/// keep the total measurement inside a fixed time budget.
pub fn paired_overhead_pct(base: &mut dyn FnMut(), with: &mut dyn FnMut()) -> Overhead {
    const MIN_WINDOW: Duration = Duration::from_millis(40);
    const MAX_WINDOW: Duration = Duration::from_millis(320);
    const TARGET_WINDOW_ITERS: f64 = 12.0;
    const BUDGET: Duration = Duration::from_secs(10);
    fn window(f: &mut dyn FnMut(), dur: Duration) -> f64 {
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < dur {
            f();
            iters += 1;
        }
        start.elapsed().as_nanos() as f64 / iters.max(1) as f64
    }

    // Warm-up doubles as calibration: how slow is one iteration?
    let a_ns = window(base, MIN_WINDOW);
    let b_ns = window(with, MIN_WINDOW);
    let per_iter_ns = a_ns.max(b_ns);
    let want = Duration::from_nanos((per_iter_ns * TARGET_WINDOW_ITERS).min(1e12) as u64);
    let win = want.clamp(MIN_WINDOW, MAX_WINDOW);
    let by_budget = (BUDGET.as_nanos() / (4 * win.as_nanos()).max(1)) as usize;
    let quads = by_budget.clamp(9, 25) | 1; // odd, so the median is one ratio

    let mut ratios = Vec::with_capacity(quads);
    for _ in 0..quads {
        let a1 = window(base, win);
        let b1 = window(with, win);
        let b2 = window(with, win);
        let a2 = window(base, win);
        ratios.push((b1 + b2) / (a1 + a2));
    }
    ratios.sort_by(f64::total_cmp);
    let raw_pct = (ratios[quads / 2] - 1.0) * 100.0;
    // Sign-test order-statistic CI for the median: under H0 each ratio
    // falls on either side of the true median with p=1/2, so the ranks
    // covering ~95% are median ± 1.96·√n/2.
    let n = quads as f64;
    let lo_rank = (((n - 1.0) / 2.0) - 0.98 * n.sqrt()).floor().max(0.0) as usize;
    let hi_rank = (quads - 1).saturating_sub(lo_rank);
    let ci_lo_pct = (ratios[lo_rank] - 1.0) * 100.0;
    let ci_hi_pct = (ratios[hi_rank] - 1.0) * 100.0;
    let noisy = ci_lo_pct <= 0.0 && ci_hi_pct >= 0.0;
    if noisy {
        eprintln!(
            "warning: paired overhead {raw_pct:.2}% has a 95% CI \
             [{ci_lo_pct:.2}%, {ci_hi_pct:.2}%] straddling zero; \
             the effect is below this machine's noise floor"
        );
    }
    Overhead {
        pct: raw_pct.max(0.0),
        raw_pct,
        ci_lo_pct,
        ci_hi_pct,
        noisy,
        quads,
        window_ms: win.as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let m = bench("noop_sum", || (0..100u64).sum::<u64>());
        assert!(m.iters > 0);
        assert!(m.ns_per_iter() > 0.0);
    }

    #[test]
    fn paired_overhead_of_identical_work_is_small_and_never_negative() {
        let mut a = || {
            std::hint::black_box((0..500u64).sum::<u64>());
        };
        let mut b = || {
            std::hint::black_box((0..500u64).sum::<u64>());
        };
        let oh = paired_overhead_pct(&mut a, &mut b);
        assert!(oh.pct >= 0.0, "reported overhead must be clamped: {oh:?}");
        assert!(
            oh.raw_pct.abs() < 50.0,
            "identical closures diverged: {oh:?}"
        );
        assert!(
            oh.ci_lo_pct <= oh.raw_pct && oh.raw_pct <= oh.ci_hi_pct,
            "median must sit inside its own CI: {oh:?}"
        );
    }

    /// A serially-dependent LCG chain the optimizer cannot collapse. The
    /// obvious `(0..n).sum()` fixture is useless in release builds —
    /// LLVM's scalar evolution folds it to the closed form, both sides
    /// become O(1), and the "20× slower" closure measures 0% overhead.
    fn chain(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..std::hint::black_box(n) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    #[test]
    fn real_overhead_is_detected() {
        let mut a = || {
            std::hint::black_box(chain(200));
        };
        let mut b = || {
            std::hint::black_box(chain(4000));
        };
        let oh = paired_overhead_pct(&mut a, &mut b);
        assert!(!oh.noisy, "a 20x slowdown must not read as noise: {oh:?}");
        assert!(oh.pct > 100.0, "expected a large overhead: {oh:?}");
        assert!(
            oh.ci_lo_pct > 0.0,
            "the CI must exclude zero for a real effect: {oh:?}"
        );
    }

    #[test]
    fn slow_workloads_get_longer_windows() {
        // ~4 ms per iteration: the old fixed 40 ms window fit only a
        // handful of iterations and the quad ratios were scheduling
        // noise — `noisy` stuck on for exactly these workloads. The
        // adaptive window must stretch instead.
        let mut a = || std::thread::sleep(Duration::from_millis(4));
        let mut b = || std::thread::sleep(Duration::from_millis(4));
        let oh = paired_overhead_pct(&mut a, &mut b);
        assert!(
            oh.window_ms > 40.0,
            "window must stretch for slow iterations: {oh:?}"
        );
        assert!(oh.quads >= 9 && oh.quads % 2 == 1, "quads odd and >= 9: {oh:?}");
        // Sleeps are identical, so whatever the verdict, the CI has to
        // be tight around zero rather than tens of percent wide.
        assert!(
            oh.ci_hi_pct - oh.ci_lo_pct < 20.0,
            "CI must be tight for identical sleeps: {oh:?}"
        );
    }
}
