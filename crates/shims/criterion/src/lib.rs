//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so the workspace's
//! benches link against this minimal harness instead. It implements the
//! API subset the benches use — [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId`], [`Throughput`], the [`criterion_group!`] /
//! [`criterion_main!`] macros and [`black_box`] — measures median
//! wall-clock time per iteration, prints a one-line summary per bench,
//! and writes a JSON record per group to `target/criterion-shim/` so
//! runs can be archived as baseline artifacts.
//!
//! Environment knobs:
//! * `CRITERION_SHIM_QUICK=1` — one warm-up + three samples per bench,
//!   for CI smoke runs.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fmt::Display;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Opaque value barrier (shim of `std::hint::black_box` re-export).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Per-iteration throughput annotation.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Hierarchical benchmark name (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Bencher {
    /// Times `routine`, collecting `sample_size` samples after a warm-up.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm-up: run until the warm-up budget is spent (at least once),
        // and estimate the per-iteration cost for batch sizing.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        // Batch so one sample costs about measurement_time / sample_size.
        let sample_budget = self.measurement_time.as_secs_f64() / self.sample_size.max(1) as f64;
        let batch = ((sample_budget / per_iter.max(1e-9)).ceil() as u64).clamp(1, 1 << 24);
        self.samples.clear();
        for _ in 0..self.sample_size.max(1) {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(t0.elapsed() / batch as u32);
        }
    }

    fn median(&self) -> Duration {
        let mut s = self.samples.clone();
        if s.is_empty() {
            return Duration::ZERO;
        }
        s.sort_unstable();
        s[s.len() / 2]
    }
}

struct Record {
    name: String,
    median: Duration,
    throughput: Option<Throughput>,
}

/// A named group of related benchmarks (shim of criterion's group).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
    records: Vec<Record>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-bench measurement budget.
    pub fn measurement_time(&mut self, time: Duration) -> &mut Self {
        self.measurement_time = time;
        self
    }

    /// Sets the per-bench warm-up budget.
    pub fn warm_up_time(&mut self, time: Duration) -> &mut Self {
        self.warm_up_time = time;
        self
    }

    /// Sets the number of samples per bench.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Annotates every following bench with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let quick = std::env::var_os("CRITERION_SHIM_QUICK").is_some();
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: if quick { 3 } else { self.sample_size },
            measurement_time: if quick {
                Duration::from_millis(30)
            } else {
                self.measurement_time
            },
            warm_up_time: if quick {
                Duration::from_millis(5)
            } else {
                self.warm_up_time
            },
        };
        f(&mut bencher);
        let median = bencher.median();
        let name = id.to_string();
        let mut line = format!("{}/{name}: median {median:?}", self.name);
        if let Some(Throughput::Bytes(bytes)) = self.throughput {
            let secs = median.as_secs_f64();
            if secs > 0.0 {
                let mibs = bytes as f64 / secs / (1024.0 * 1024.0);
                let _ = write!(line, " ({mibs:.1} MiB/s)");
            }
        }
        println!("{line}");
        self.records.push(Record {
            name,
            median,
            throughput: self.throughput,
        });
        self
    }

    /// Runs one benchmark parameterized by an input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Finishes the group, writing its JSON record.
    pub fn finish(self) {
        let mut json = String::from("{\n");
        let _ = write!(json, "  \"group\": {:?},\n  \"benches\": [", self.name);
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n    {{ \"name\": {:?}, \"median_ns\": {}",
                r.name,
                r.median.as_nanos()
            );
            if let Some(Throughput::Bytes(bytes)) = r.throughput {
                let secs = r.median.as_secs_f64();
                if secs > 0.0 {
                    let _ = write!(
                        json,
                        ", \"bytes\": {bytes}, \"mib_per_s\": {:.2}",
                        bytes as f64 / secs / (1024.0 * 1024.0)
                    );
                }
            }
            json.push_str(" }");
        }
        json.push_str("\n  ]\n}\n");
        let dir = output_root().join("criterion-shim");
        if std::fs::create_dir_all(&dir).is_ok() {
            let file = dir.join(format!("{}.json", sanitize(&self.name)));
            let _ = std::fs::write(file, &json);
        }
        self.criterion.finished_groups += 1;
    }
}

/// The workspace `target/` directory: cargo runs bench binaries with the
/// *package* directory as cwd, so a relative path would scatter output
/// across member crates. Walk up from the executable
/// (`target/<profile>/deps/bench-…`) instead; fall back to cwd-relative
/// `target` when the layout is unrecognizable.
fn output_root() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return dir.into();
    }
    if let Ok(exe) = std::env::current_exe() {
        for ancestor in exe.ancestors() {
            if ancestor.file_name().is_some_and(|n| n == "target") {
                return ancestor.to_path_buf();
            }
        }
    }
    std::path::PathBuf::from("target")
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Benchmark driver (shim of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    finished_groups: usize,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
            throughput: None,
            records: Vec::new(),
            criterion: self,
        }
    }
}

/// Declares a group of benchmark functions (shim of criterion's macro).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)*) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)*) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_records() {
        std::env::set_var("CRITERION_SHIM_QUICK", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_self_test");
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("noop", |b| b.iter(|| black_box(2 + 2)));
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
        assert_eq!(c.finished_groups, 1);
    }

    #[test]
    fn benchmark_id_formats_as_path() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
    }
}
