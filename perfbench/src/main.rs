//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--queryd-bin PATH] [--out-dir DIR]
//! perfbench compare BASE NEW
//! ```
//!
//! A run generates its workload's inputs from `--seed`, times the
//! workload for `--seconds` with tracing off (`--trace 0`, the end-to-end
//! metrics) or drives the same work stage by stage under spans (`--trace
//! 1`, the per-layer metrics), checks the program's outputs, and prints
//! every metric by name with its unit. The last line of standard output is
//! the result as one JSON object; the line before it is the run's
//! provenance. The exit code is non-zero when an output check failed.
//!
//! `compare` reads two result sets (files or directories of captured
//! standard output) and gives a verdict per workload and metric, using
//! only the bounds recorded in `BENCHMARK.json`.

#![forbid(unsafe_code)]

mod batch;
mod compare;
mod inputs;
mod json;
mod openloop;
mod queryd;
mod report;
mod stats;
mod trace;
mod traced;

use json::{num, quote, Json};
use report::{Metric, Report};
use std::path::{Path, PathBuf};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["campaign-warm", "queryd-open", "paper-fig2"];

/// The default workload seed, and the held-out seed that a claimed gain
/// must also hold on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// What a workload run produced: metrics, counts, checks and notes.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
    /// Worker threads (or client connections) the workload used.
    pub threads: usize,
}

impl Outcome {
    pub fn new(threads: usize) -> Outcome {
        Outcome {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            notes: Vec::new(),
            threads,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Record an output check; a failed one counts as a failed attempt.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.to_string(), ok));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

/// Peak resident set size in MB of `pid` (this process when `None`), from
/// `VmHWM` in `/proc/<pid>/status`; 0 where that file does not exist.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    queryd_bin: PathBuf,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--queryd-bin PATH] [--out-dir DIR]\n       perfbench compare BASE NEW";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        queryd_bin: PathBuf::from("stamp_queryd"),
        out_dir: PathBuf::from("."),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--queryd-bin" => args.queryd_bin = PathBuf::from(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared_metrics(spec: &Json, trace: bool) -> Result<Vec<(String, String)>, String> {
    let key = if trace { "per_layer" } else { "end_to_end" };
    spec.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: malformed {key} entry {m}")),
            }
        })
        .collect()
}

pub fn read_spec(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The commit the checkout was built from, when it is a git repository.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn provenance(args: &Args, out: &Outcome) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let fields = [
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", nproc().to_string()),
        ("threads", out.threads.to_string()),
        ("commit", quote(&git_commit())),
        ("profile", quote(profile)),
        (
            "queryd_traffic",
            quote(if args.workload == "queryd-open" || args.trace {
                "loopback 127.0.0.1"
            } else {
                "none"
            }),
        ),
        ("default_seed", DEFAULT_SEED.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(Outcome, Vec<(String, String)>), String> {
    let spec = read_spec(Path::new("BENCHMARK.json"))?;
    let declared = declared_metrics(&spec, args.trace)?;
    let n = nproc();
    let out = if args.trace {
        traced::run(
            &args.workload,
            args.seed,
            args.seconds,
            n,
            &args.queryd_bin,
            &args.out_dir,
        )?
    } else {
        match args.workload.as_str() {
            "campaign-warm" => batch::campaign_warm(args.seed, args.seconds, n),
            "paper-fig2" => batch::paper_fig2(args.seed, args.seconds, n),
            "queryd-open" => queryd::open_workload(args.seed, args.seconds, n, &args.queryd_bin)?,
            w => return Err(format!("unknown workload {w}")),
        }
    };
    Ok((out, declared))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let code = match argv.as_slice() {
            [_, base, new] => match compare::run(Path::new(base), Path::new(new)) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    1
                }
            },
            _ => {
                eprintln!("{USAGE}");
                2
            }
        };
        std::process::exit(code);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (mut out, declared) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // The printed metrics are exactly the declared ones, in declared order.
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        match out.metrics.iter().find(|m| &m.name == name) {
            Some(m) if &m.unit == unit && m.value.is_finite() => metrics.push(m.clone()),
            Some(m) => {
                eprintln!(
                    "perfbench: metric {name} measured as {} {}",
                    m.value, m.unit
                );
                out.check(&format!("metric {name} is finite in {unit}"), false);
            }
            None => out.check(&format!("metric {name} measured"), false),
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for (what, ok) in &out.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for m in &metrics {
        println!(
            "{:<40} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    let correct = out.checks.iter().all(|(_, ok)| *ok);
    println!("{}", provenance(&args, &out));
    let report = Report {
        correct,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
    };
    println!("{}", report.to_json_line());
    if !correct {
        std::process::exit(1);
    }
}
