//! A minimal wall-clock benchmark harness.
//!
//! The repository builds without registry access, so the `benches/`
//! entries use this instead of Criterion: warm up, take `samples` timed
//! runs, and report min / median / mean. Numbers are host wall-clock and
//! machine-dependent; the virtual-time tables printed by `reproduce` are
//! the deterministic ones.

use std::hint::black_box;
use std::time::Instant;

/// Timing summary of one benchmark case, in nanoseconds per run.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    /// Fastest observed run.
    pub min_ns: u64,
    /// Median run.
    pub median_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
}

/// Times `f` for `samples` runs (after one untimed warm-up) and returns
/// the summary. The closure's result is passed through [`black_box`] so
/// the work cannot be optimised away.
pub fn sample<T>(samples: usize, mut f: impl FnMut() -> T) -> Sampled {
    assert!(samples > 0);
    black_box(f());
    let mut runs: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    runs.sort_unstable();
    Sampled {
        min_ns: runs[0],
        median_ns: runs[runs.len() / 2],
        mean_ns: runs.iter().sum::<u64>() / runs.len() as u64,
    }
}

/// Times `N` operations against each other: in each of `reps` rounds,
/// `op(leg)` runs `iters` times for every leg in turn, so the legs share
/// host windows. Returns each leg's best mean ns per call over the rounds,
/// so a cold cache or scheduling hiccup cannot inflate a number.
pub fn best_mean_ns<const N: usize>(
    reps: usize,
    iters: usize,
    mut op: impl FnMut(usize),
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (leg, best) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..iters {
                op(leg);
            }
            *best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    best
}

/// Runs one named benchmark case and prints a line in the shape
/// `group/name  min .. median .. mean`.
pub fn case<T>(group: &str, name: &str, samples: usize, f: impl FnMut() -> T) {
    let s = sample(samples, f);
    println!(
        "{group}/{name:<28} min {:>12}  median {:>12}  mean {:>12}",
        fmt_ns(s.min_ns),
        fmt_ns(s.median_ns),
        fmt_ns(s.mean_ns)
    );
}

/// Human format for a nanosecond quantity.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reports_ordered_stats() {
        let s = sample(9, || {
            let mut x = 0u64;
            for i in 0..1000u64 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        assert!(s.min_ns <= s.median_ns);
        assert!(s.min_ns <= s.mean_ns);
    }

    #[test]
    fn best_mean_ns_times_each_leg() {
        let mut calls = [0usize; 2];
        let [a, b] = best_mean_ns(3, 10, |leg| calls[leg] += 1);
        assert_eq!(calls, [30, 30]);
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_500_000), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
