//! A minimal wall-clock benchmark runner: warmup, N timed iterations,
//! min / mean / median / p95, human-readable table plus JSON lines on
//! stdout. The in-tree replacement for the `criterion` harness.
//!
//! Iteration counts scale with `MDV_BENCH_ITERS` (default 10) so CI can
//! run the benches as a fast smoke pass while local runs measure properly.

use std::time::Instant;

/// Warmup and measurement iteration counts.
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    pub warmup_iters: u32,
    pub iters: u32,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            warmup_iters: 2,
            iters: 10,
        }
    }
}

impl BenchOptions {
    /// Default options with `MDV_BENCH_ITERS` applied (minimum 1).
    pub fn from_env() -> Self {
        let mut opts = BenchOptions::default();
        if let Ok(raw) = std::env::var("MDV_BENCH_ITERS") {
            let iters: u32 = raw
                .parse()
                .unwrap_or_else(|_| panic!("MDV_BENCH_ITERS must be an integer, got '{raw}'"));
            opts.iters = iters.max(1);
            opts.warmup_iters = (iters / 5).clamp(1, 5);
        }
        opts
    }
}

/// Timing summary of one benchmark, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub iters: u32,
    pub min_ns: u64,
    pub max_ns: u64,
    pub mean_ns: u64,
    pub median_ns: u64,
    pub p95_ns: u64,
}

impl Stats {
    /// Summarizes raw per-iteration samples. Panics on an empty slice.
    pub fn from_samples(samples: &[u64]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let median_ns = if n.is_multiple_of(2) {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2
        } else {
            sorted[n / 2]
        };
        // nearest-rank p95: smallest sample ≥ 95% of the distribution
        let p95_idx = ((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1;
        Stats {
            iters: n as u32,
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
            mean_ns: (sorted.iter().sum::<u64>() / n as u64),
            median_ns,
            p95_ns: sorted[p95_idx],
        }
    }
}

/// Times `routine` over fresh inputs from `setup` (setup time excluded),
/// like criterion's `iter_batched`. The routine's return value is consumed
/// through [`std::hint::black_box`] so its computation is not optimized
/// out, and dropped only after the clock has stopped: a routine that takes
/// its input by value should hand it back, or the input's destructor is
/// part of what is timed.
pub fn measure<I, R>(
    opts: BenchOptions,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> Stats {
    for _ in 0..opts.warmup_iters {
        std::hint::black_box(routine(setup()));
    }
    let samples: Vec<u64> = (0..opts.iters.max(1))
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            let elapsed = start.elapsed();
            drop(output);
            elapsed.as_nanos() as u64
        })
        .collect();
    Stats::from_samples(&samples)
}

/// A named group of benchmarks printed together, criterion-style.
pub struct BenchGroup {
    name: String,
    opts: BenchOptions,
    rows: Vec<(String, Stats)>,
}

impl BenchGroup {
    pub fn new(name: &str) -> Self {
        BenchGroup {
            name: name.to_owned(),
            opts: BenchOptions::from_env(),
            rows: Vec::new(),
        }
    }

    pub fn with_options(name: &str, opts: BenchOptions) -> Self {
        BenchGroup {
            name: name.to_owned(),
            opts,
            rows: Vec::new(),
        }
    }

    /// Benchmarks `routine` over per-iteration inputs from `setup`.
    pub fn bench_with_setup<I, R>(
        &mut self,
        id: &str,
        setup: impl FnMut() -> I,
        routine: impl FnMut(I) -> R,
    ) -> Stats {
        let stats = measure(self.opts, setup, routine);
        self.rows.push((id.to_owned(), stats));
        stats
    }

    /// Benchmarks a closure with no per-iteration setup.
    pub fn bench(&mut self, id: &str, mut routine: impl FnMut()) -> Stats {
        self.bench_with_setup(id, || (), |()| routine())
    }

    /// Prints the table and one JSON line per benchmark, and returns the
    /// collected rows.
    pub fn finish(self) -> Vec<(String, Stats)> {
        println!("\n== {} ({} iters) ==", self.name, self.opts.iters);
        println!(
            "{:<24} {:>12} {:>12} {:>12}",
            "bench", "median", "p95", "min"
        );
        for (id, s) in &self.rows {
            println!(
                "{:<24} {:>12} {:>12} {:>12}",
                id,
                format_ns(s.median_ns),
                format_ns(s.p95_ns),
                format_ns(s.min_ns)
            );
        }
        for (id, s) in &self.rows {
            println!("{}", json_line(&self.name, id, s));
        }
        self.rows
    }
}

/// Renders one benchmark result as the runner's machine-readable JSON line
/// (the format `finish` prints). Public so harnesses can also collect the
/// lines into a results file (e.g. `BENCH_filter_scaling.json`).
pub fn json_line(group: &str, bench: &str, s: &Stats) -> String {
    format!(
        "{{\"group\":\"{}\",\"bench\":\"{}\",\"iters\":{},\"min_ns\":{},\
         \"mean_ns\":{},\"median_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
        escape_json(group),
        escape_json(bench),
        s.iters,
        s.min_ns,
        s.mean_ns,
        s.median_ns,
        s.p95_ns,
        s.max_ns
    )
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_summarize_correctly() {
        let s = Stats::from_samples(&[10, 20, 30, 40, 100]);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.median_ns, 30);
        assert_eq!(s.mean_ns, 40);
        assert_eq!(s.p95_ns, 100);
        assert_eq!(s.iters, 5);
    }

    #[test]
    fn even_sample_median_is_midpoint() {
        let s = Stats::from_samples(&[10, 20, 30, 40]);
        assert_eq!(s.median_ns, 25);
    }

    #[test]
    fn p95_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(Stats::from_samples(&samples).p95_ns, 95);
        assert_eq!(Stats::from_samples(&[7]).p95_ns, 7);
    }

    #[test]
    fn measure_stops_the_clock_before_dropping_the_result() {
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        }
        let opts = BenchOptions {
            warmup_iters: 0,
            iters: 3,
        };
        // handed back: the 30 ms destructor runs after the clock stopped
        let returned = measure(opts, || SlowDrop, |input| input);
        assert!(
            returned.min_ns < 15_000_000,
            "drop of the result was timed: {returned:?}"
        );
        // consumed: the destructor is the routine's own work and is timed
        let consumed = measure(opts, || SlowDrop, drop);
        assert!(
            consumed.min_ns >= 30_000_000,
            "routine's own drop not timed: {consumed:?}"
        );
    }

    #[test]
    fn measure_runs_setup_per_iteration() {
        let mut setups = 0u32;
        let opts = BenchOptions {
            warmup_iters: 1,
            iters: 4,
        };
        let stats = measure(
            opts,
            || {
                setups += 1;
                vec![0u8; 64]
            },
            |v| {
                std::hint::black_box(v.len());
            },
        );
        assert_eq!(setups, 5, "1 warmup + 4 timed");
        assert_eq!(stats.iters, 4);
    }

    #[test]
    fn group_collects_rows() {
        let opts = BenchOptions {
            warmup_iters: 0,
            iters: 3,
        };
        let mut g = BenchGroup::with_options("unit", opts);
        g.bench("noop", || {});
        g.bench_with_setup(
            "sum",
            || (0u64..100).collect::<Vec<_>>(),
            |v| {
                std::hint::black_box(v.iter().sum::<u64>());
            },
        );
        let rows = g.finish();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "noop");
        assert_eq!(rows[1].1.iters, 3);
    }

    #[test]
    fn json_line_is_well_formed() {
        let s = Stats::from_samples(&[10, 20, 30]);
        let line = json_line("g", "b\"1", &s);
        assert!(line.starts_with("{\"group\":\"g\",\"bench\":\"b\\\"1\","));
        assert!(line.contains("\"median_ns\":20"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("tab\there"), "tab\\u0009here");
    }
}
