//! The statsize benchmark.
//!
//! ```text
//! statbench --workload <size_gen3000|serve_c1355|campaign_iscas|all>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload untraced for about `--seconds`
//! seconds and reports the end-to-end metrics. `--trace 1` is the traced
//! run: the per-layer split of all three workloads, each traced phase
//! beside an untraced twin so the tracing overhead shows. Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a table of every
//! metric with its unit, sample count and the end-to-end metric it
//! should move goes to standard error. The exit code is non-zero when an
//! output check fails.
//!
//! `--workload all` runs each workload in a child process of its own (so
//! each reports its own peak memory) and prints every result.

mod campaign;
mod report;
mod serve;
mod size;
mod stats;
mod stream;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["size_gen3000", "serve_c1355", "campaign_iscas"];

/// `BENCHMARK.json`, built in so every run checks that it reports exactly
/// the metrics the file names.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The names listed under `section` of `BENCHMARK.json` (`workloads`,
/// `end_to_end` or `per_layer`).
fn declared(section: &str) -> Vec<String> {
    let json = statsize::wire::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let obj = json.as_object().expect("BENCHMARK.json is an object");
    statsize::wire::get(obj, section)
        .ok()
        .and_then(statsize::wire::Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| {
            e.as_object()
                .and_then(|o| statsize::wire::get_str(o, "name").ok())
        })
        .map(str::to_string)
        .collect()
}

/// Fails the run unless the result line carries exactly the metrics
/// `BENCHMARK.json` lists under `section`.
fn check_reported(out: &mut Outcome, section: &str) {
    let mut want = declared(section);
    let mut got: Vec<String> = out.metrics[..out.reported]
        .iter()
        .map(|m| m.name.clone())
        .collect();
    want.sort();
    got.sort();
    out.check(got == want, || {
        format!("reported metrics {got:?} differ from the {section} list {want:?}")
    });
}

/// Set-ups timed before each repetition of a timed phase; `setup_s` is
/// the median of all of them. Spreading them over the run, instead of
/// timing them back to back at its start, keeps the figure from hanging
/// on the machine's state at one moment.
pub const SETUPS_PER_REP: usize = 5;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: statbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, got `{value}`")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number(),
            "--seconds" => seconds = number(),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Self> {
        let dir = Path::new(".bench_tmp").join(format!("statbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall and CPU seconds of each repetition of a timed phase.
#[derive(Debug, Default)]
pub struct Reps {
    /// Wall time of each repetition's timed part.
    pub wall: Vec<f64>,
    /// CPU time (all threads) of each whole repetition.
    pub cpu: Vec<f64>,
}

/// Repeats `rep` until `seconds` have passed and at least `min_reps`
/// repetitions ran; `rep` returns the wall time of its timed part.
pub fn repeat(seconds: u64, min_reps: usize, mut rep: impl FnMut() -> Duration) -> Reps {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps = Reps::default();
    while reps.wall.len() < min_reps || start.elapsed() < budget {
        let cpu = report::cpu_seconds().unwrap_or(f64::NAN);
        reps.wall.push(rep().as_secs_f64());
        reps.cpu
            .push(report::cpu_seconds().unwrap_or(f64::NAN) - cpu);
    }
    reps
}

/// Runs `f`, counting a panic as a failed operation instead of ending
/// the run.
pub fn guarded<R>(out: &mut Outcome, what: &str, f: impl FnOnce() -> R) -> Option<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Some(r),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            out.failed += 1;
            out.errors.push(format!("{what} panicked: {msg}"));
            None
        }
    }
}

/// Records the two end-to-end metrics every workload measures the same
/// way: peak memory and the share of operations answered.
pub fn common_tail(out: &mut Outcome) {
    match report::peak_rss_mb() {
        Ok(mb) => out.metric("peak_rss_mb", mb, "MB", 1, "VmHWM of this process"),
        Err(e) => {
            out.errors.push(e);
            out.metric("peak_rss_mb", f64::NAN, "MB", 0, "");
        }
    }
    let attempted = out.attempted.max(1);
    out.metric(
        "ok_frac",
        (attempted - out.failed.min(attempted)) as f64 / attempted as f64,
        "frac",
        attempted as usize,
        "1 - failed_frac: answered ops over attempted ops",
    );
}

/// Prints `failed_frac`, failed over attempted operations, for people.
/// End-to-end metrics are chosen never to read zero, so the result line
/// carries the same count as `ok_frac`.
pub fn failed_frac(out: &mut Outcome, what: &str) {
    out.metric(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
        out.attempted as usize,
        what,
    );
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this program: {e}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    // The traced run covers every workload, so it runs once.
    let names: &[&str] = if args.trace {
        &WORKLOADS[..1]
    } else {
        &WORKLOADS
    };
    for name in names {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(_) | Err(_) => code = ExitCode::FAILURE,
        }
    }
    code
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.workload == "all" {
        return run_all(&args);
    }
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let (title, mut out) = if args.trace {
        (
            "traced run (all workloads)".to_string(),
            traced(&args, &scratch),
        )
    } else {
        let out = match args.workload.as_str() {
            "size_gen3000" => size::run(args.seconds),
            "serve_c1355" => serve::run(args.seed, args.seconds, &scratch),
            _ => campaign::run(args.seconds, &scratch),
        };
        (format!("{} seed={}", args.workload, args.seed), out)
    };
    check_reported(
        &mut out,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    );
    drop(scratch);
    eprint!("{}", out.table(&title));
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: each workload's per-layer split, then the spans
/// written to `.bench_tmp/spans.jsonl`.
fn traced(args: &Args, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = String::new();
    spans += &size::traced(&mut out);
    spans += &serve::traced(args.seed, &mut out, scratch);
    spans += &campaign::traced(&mut out, scratch);
    out.seal_reported();
    if let Err(e) = std::fs::write(Path::new(".bench_tmp").join("spans.jsonl"), spans) {
        out.errors.push(format!("cannot write the spans: {e}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_match_the_workloads() {
        assert_eq!(declared("workloads"), WORKLOADS);
        let e2e = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(e2e.iter().any(|n| n == "setup_s"));
        assert!(!per_layer.is_empty());
        let mut all: Vec<&String> = e2e.iter().chain(&per_layer).collect();
        for name in &all {
            assert!(report::valid_name(name), "bad metric name `{name}`");
            assert!(name.len() <= 64, "metric name `{name}` is too long");
        }
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used twice");
    }
}
