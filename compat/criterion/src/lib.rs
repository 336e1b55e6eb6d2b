//! Vendored stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no registry access, so this workspace
//! carries a minimal, dependency-free implementation of the criterion
//! API its benches use. Measurement is a warmup pass to calibrate the
//! per-iteration cost followed by timed batches (at least ten measured
//! iterations) — no outlier rejection or bootstrap statistics — and
//! results print one line per benchmark:
//!
//! ```text
//! substrate/wht/65536        time: 312.44 us/iter (64 iters)
//! ```
//!
//! Point the workspace `criterion` dependency back at crates.io to swap
//! in the real crate unchanged.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target measurement time per benchmark. Kept short: the shim favors
/// fast full-suite runs over tight confidence intervals.
const TARGET_MEASURE: Duration = Duration::from_millis(300);
const TARGET_WARMUP: Duration = Duration::from_millis(100);
/// Fewest measured iterations per benchmark, so a routine slower than
/// the time budget still reports a mean over several calls.
const MIN_MEASURED_ITERS: u64 = 10;

/// Measured iterations for a routine of `per_iter` seconds: enough to
/// fill [`TARGET_MEASURE`], at least [`MIN_MEASURED_ITERS`].
fn measured_iters(per_iter: f64) -> u64 {
    ((TARGET_MEASURE.as_secs_f64() / per_iter).ceil() as u64).max(MIN_MEASURED_ITERS)
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time repeated calls of `f` (warmup, then measured batches).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup: estimate per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < TARGET_WARMUP {
            black_box(f());
            warm_iters += 1;
        }
        let iters = measured_iters(warm_start.elapsed().as_secs_f64() / warm_iters as f64);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
        self.iters_done = iters;
    }

    /// Time `routine` on a fresh input from `setup` per call; only the
    /// routine is on the clock, and its output is dropped off it. Every
    /// [`BatchSize`] runs one setup per routine call.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut timed = |iters: Option<u64>| {
            let (mut done, mut elapsed) = (0u64, Duration::ZERO);
            while iters.map_or(elapsed < TARGET_WARMUP, |n| done < n) {
                let input = setup();
                let start = Instant::now();
                let out = black_box(routine(input));
                elapsed += start.elapsed();
                drop(out);
                done += 1;
            }
            (done, elapsed)
        };
        let (warm_iters, warm) = timed(None);
        let iters = measured_iters(warm.as_secs_f64() / warm_iters as f64);
        (self.iters_done, self.elapsed) = timed(Some(iters));
    }
}

/// How many inputs [`Bencher::iter_batched`] sets up at a time —
/// accepted for criterion compatibility (only the variant the benches
/// use); the shim sets up one per call.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs too large to hold many of.
    LargeInput,
}

/// A parameterized benchmark label, e.g. `kwise_eval/32`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        Self {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// Just the parameter as the label.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// Conversion for the flexible `bench_function` id argument.
pub trait IntoBenchmarkLabel {
    /// The printed label.
    fn into_label(self) -> String;
}

impl IntoBenchmarkLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkLabel for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkLabel for String {
    fn into_label(self) -> String {
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _parent: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Accepted for criterion compatibility; the shim's fixed time budget
    /// ignores it.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for criterion compatibility; ignored by the shim.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: String, mut f: F) {
        let mut b = Bencher {
            iters_done: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = if b.iters_done > 0 {
            b.elapsed.as_secs_f64() / b.iters_done as f64
        } else {
            0.0
        };
        println!(
            "{}/{:<40} time: {} ({} iters)",
            self.name,
            label,
            fmt_secs(per_iter),
            b.iters_done
        );
    }

    /// Benchmark a closure under the given id.
    pub fn bench_function<L: IntoBenchmarkLabel, F: FnMut(&mut Bencher)>(
        &mut self,
        id: L,
        f: F,
    ) -> &mut Self {
        self.run(id.into_label(), f);
        self
    }

    /// Benchmark a closure that receives an input by reference.
    pub fn bench_with_input<L, I, F>(&mut self, id: L, input: &I, mut f: F) -> &mut Self
    where
        L: IntoBenchmarkLabel,
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.into_label(), |b| f(b, input));
        self
    }

    /// End the group (printing is incremental, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _parent: self,
        }
    }

    /// Benchmark a closure outside any group.
    pub fn bench_function<L: IntoBenchmarkLabel, F: FnMut(&mut Bencher)>(
        &mut self,
        id: L,
        f: F,
    ) -> &mut Self {
        let mut g = self.benchmark_group("bench");
        g.bench_function(id, f);
        self
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s/iter")
    } else if s >= 1e-3 {
        format!("{:.2} ms/iter", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} us/iter", s * 1e6)
    } else {
        format!("{:.0} ns/iter", s * 1e9)
    }
}

/// Declare a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim-test");
        let mut ran = false;
        g.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn iter_batched_sets_up_one_input_per_call() {
        let mut b = Bencher {
            iters_done: 0,
            elapsed: Duration::ZERO,
        };
        let (mut setups, mut calls) = (0u64, 0u64);
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 64]
            },
            |v| {
                calls += 1;
                v.len()
            },
            BatchSize::LargeInput,
        );
        assert_eq!(setups, calls);
        assert!(b.iters_done > 0 && b.iters_done < calls);
    }

    #[test]
    fn slow_routines_still_measure_the_minimum_iterations() {
        // ~35 ms per call: the 300 ms budget alone would allow 9.
        let slow = || std::thread::sleep(Duration::from_millis(35));
        let mut b = Bencher {
            iters_done: 0,
            elapsed: Duration::ZERO,
        };
        b.iter(slow);
        assert!(b.iters_done >= MIN_MEASURED_ITERS, "iter: {}", b.iters_done);
        b.iter_batched(|| (), |()| slow(), BatchSize::LargeInput);
        assert!(
            b.iters_done >= MIN_MEASURED_ITERS,
            "iter_batched: {}",
            b.iters_done
        );
    }

    #[test]
    fn benchmark_id_labels() {
        assert_eq!(BenchmarkId::new("f", 32).into_label(), "f/32");
        assert_eq!(BenchmarkId::from_parameter(7).into_label(), "7");
    }
}
