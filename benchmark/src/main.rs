//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <select|select-write|reshape|load|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload generates its inputs from
//! the seed, measures for the given seconds, checks every output, prints
//! a report and, as the last line, one JSON object. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the run records spans
//! around its calls into each layer and reports the per-layer set. See
//! `benchmark/README.md` for the workloads and metric definitions.

mod alloc;
mod cpu;
mod device;
mod layers;
mod load;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::{LayerTime, Span};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["select", "select-write", "reshape", "load"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The end-to-end metrics of `BENCHMARK.json`.
    pub e2e: Vec<Metric>,
    /// The workload's own figures, under the names its notes use.
    pub detail: Vec<Metric>,
    /// The per-layer metrics of `BENCHMARK.json` (traced runs).
    pub layers: Vec<Metric>,
    pub report: String,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn e2e(
    setup_s: f64,
    cpu_ms_per_op: f64,
    peak_heap_mb: f64,
    space_amp: f64,
    store_bytes_per_input_byte: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("cpu_ms_per_op", "ms", cpu_ms_per_op),
        Metric::new("peak_heap_mb", "MB", peak_heap_mb),
        Metric::new("space_amp", "ratio", space_amp),
        Metric::new(
            "store_bytes_per_input_byte",
            "ratio",
            store_bytes_per_input_byte,
        ),
    ]
}

/// A markdown table of self time per layer, per operation of `root`.
pub fn self_time_table(
    out: &mut String,
    agg: &BTreeMap<&'static str, LayerTime>,
    names: &[&str],
    root: &str,
) {
    let ops = agg.get(root).map(|t| t.count).unwrap_or(0).max(1) as f64;
    let root_ms = agg.get(root).map(|t| t.total_s * 1e3 / ops).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "| span | count | self ms per {root} | share of {root} |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    let mut sum = 0.0;
    for name in names {
        if let Some(t) = agg.get(name) {
            let per_op = t.self_s * 1e3 / ops;
            sum += per_op;
            let _ = writeln!(
                out,
                "| {name} | {} | {per_op:.4} | {:.1}% |",
                t.count,
                per_op / root_ms * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "| **sum of self times** | | {sum:.4} | {:.1}% of the mean {root} ({root_ms:.4} ms) |",
        sum / root_ms * 100.0
    );
}

/// A small seeded generator for write targets (SplitMix64).
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where results and scratch stores go: `benchmark/out` under the
/// directory the command runs from (the repository root).
fn out_dir() -> PathBuf {
    let bench = Path::new("benchmark");
    if bench.join("Cargo.toml").is_file() {
        bench.join("out")
    } else {
        PathBuf::from("out")
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let work = WorkDir(out_dir().join(format!("work-{name}-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("mkdir {}: {e}", work.0.display()))?;
    match name {
        "select" => serve::run(serve::Mode::Select, args, &work.0),
        "select-write" => serve::run(serve::Mode::SelectWrite, args, &work.0),
        "reshape" => serve::run(serve::Mode::Reshape, args, &work.0),
        "load" => load::run(args, &work.0),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn json_metrics(metrics: &[Metric], prefix: &str) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{prefix}{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect()
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let out = out_dir();
    let mut entries = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    for name in &names {
        let mut outcome = match run_workload(name, &args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: workload {name}: {e}");
                std::process::exit(1);
            }
        };
        let metrics = if args.trace {
            &outcome.layers
        } else {
            &outcome.e2e
        };
        let broken: Vec<String> = metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} could not be measured", m.name))
            .collect();
        for b in broken {
            outcome.fail(b);
        }
        println!(
            "== {name} (seed {}, {} s, trace {})",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        print_metrics("workload figures:", &outcome.detail);
        if !args.trace {
            print_metrics("end-to-end metrics:", &outcome.e2e);
        }
        print_metrics("per-layer metrics:", &outcome.layers);
        for f in &outcome.failures {
            println!("FAILED: {f}");
        }
        println!(
            "checks: {} attempted, {} failed",
            outcome.attempted, outcome.failed
        );
        let metrics = if args.trace {
            &outcome.layers
        } else {
            &outcome.e2e
        };
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        entries.extend(json_metrics(metrics, &prefix));
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.correct();

        let stem = format!("{name}-seed{}", args.seed);
        let line = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"figures\": {{{}}}}}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            json_metrics(metrics, "").join(", "),
            json_metrics(&outcome.detail, "").join(", ")
        );
        let suffix = if args.trace { "-trace" } else { "" };
        let _ = std::fs::write(out.join(format!("{stem}{suffix}.json")), line + "\n");
        if args.trace {
            let mut report = format!(
                "# Traced run: {name}, seed {}, {} s\n\n{}\n## Per-layer metrics\n\n| metric | value | unit |\n|---|---|---|\n",
                args.seed, args.seconds, outcome.report
            );
            for m in &outcome.layers {
                let _ = writeln!(report, "| {} | {} | {} |", m.name, m.value, m.unit);
            }
            println!("{}", outcome.report);
            let _ = std::fs::write(out.join(format!("{stem}-trace.md")), report);
            let _ = std::fs::write(
                out.join(format!("{stem}-spans.tsv")),
                trace::to_tsv(&outcome.spans),
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && attempted > 0,
        entries.join(", ")
    );
}
