//! Offline drop-in subset of the `criterion` API.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of criterion the `vbadet-bench` suite uses:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::throughput`] / [`BenchmarkGroup::sample_size`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`], `criterion_group!` /
//! `criterion_main!`, and [`black_box`].
//!
//! Instead of criterion's statistical machinery this stub runs a short
//! warm-up, then a fixed number of timed samples, and prints the median
//! per-iteration time (plus throughput when configured). Good enough to
//! track relative regressions by eye; not a statistics engine.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Input size in bytes processed per iteration.
    Bytes(u64),
    /// Number of elements processed per iteration.
    Elements(u64),
}

/// How much setup output to batch per timing measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs: one setup per measured iteration.
    SmallInput,
    /// Large per-iteration inputs: same behavior in this stub.
    LargeInput,
    /// Per-iteration setup: same behavior in this stub.
    PerIteration,
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the configured number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` with untimed per-iteration `setup`.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// A named collection of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark and prints its median per-iteration time.
    pub fn bench_function<N: Into<String>, F>(&mut self, name: N, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.into();
        let full = format!("{}/{}", self.name, name);

        // Warm-up + calibration: find an iteration count that gives a
        // measurable (>= ~2ms) sample without running forever.
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= Duration::from_millis(2) || iters >= 1 << 20 {
                break;
            }
            iters *= 4;
        }

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.elapsed.as_secs_f64() / iters as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];

        let mut line = format!("{full:<48} time: {:>12}/iter", fmt_seconds(median));
        if let Some(tp) = self.throughput {
            let (amount, unit) = match tp {
                Throughput::Bytes(n) => (n as f64, "B"),
                Throughput::Elements(n) => (n as f64, "elem"),
            };
            if median > 0.0 {
                line.push_str(&format!("  thrpt: {}", fmt_rate(amount / median, unit)));
            }
        }
        println!("{line}");
        self.criterion.completed += 1;
        self
    }

    /// Ends the group (prints a blank separator line).
    pub fn finish(&mut self) {
        println!();
    }
}

fn fmt_seconds(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.2} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

fn fmt_rate(per_sec: f64, unit: &str) -> String {
    if unit == "B" {
        if per_sec >= 1e9 {
            format!("{:.2} GiB/s", per_sec / (1u64 << 30) as f64)
        } else if per_sec >= 1e6 {
            format!("{:.2} MiB/s", per_sec / (1u64 << 20) as f64)
        } else {
            format!("{:.2} KiB/s", per_sec / 1024.0)
        }
    } else {
        format!("{per_sec:.0} {unit}/s")
    }
}

/// Benchmark runner.
#[derive(Default)]
pub struct Criterion {
    completed: usize,
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group<N: Into<String>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 10,
            throughput: None,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<N: Into<String>, F>(&mut self, name: N, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(name, f);
        self
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            // `cargo test -q` runs harness=false benches with --test-like
            // args (e.g. `--nocapture`); skip actual timing there so the
            // test suite stays fast. `cargo bench` passes `--bench`.
            let args: Vec<String> = std::env::args().collect();
            if args.iter().any(|a| a == "--test") {
                return;
            }
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
        assert_eq!(c.completed, 2);
    }

    #[test]
    fn formatting_units() {
        assert!(fmt_seconds(5e-9).ends_with("ns"));
        assert!(fmt_seconds(5e-6).ends_with("µs"));
        assert!(fmt_seconds(5e-3).ends_with("ms"));
        assert!(fmt_rate(2e9, "B").ends_with("GiB/s"));
        assert!(fmt_rate(500.0, "elem").ends_with("elem/s"));
    }
}
