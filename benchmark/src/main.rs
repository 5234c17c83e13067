//! The repository's benchmark. One command builds a `FabricNetwork` per
//! workload, drives it from outside, prints every metric by name with its
//! unit, checks that the outputs are correct and writes
//! `benchmark/out/<workload>.json`. See `README.md` beside this package.

mod check;
mod compare;
mod host;
mod json;
mod load;
mod metrics;
mod report;
mod run;
mod span;
mod staged;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use report::WorkloadRuns;
use run::{Plan, RunDirs};
use workloads::Workload;

const USAGE: &str = "usage: benchmark [--workload W] [--seed N] [--seconds S] [--passes P] \
[--trace [0|1]] [--quick] [--out DIR]\n       benchmark --compare A B\n\
workloads: sb_uniform sb_zipf sb_zipf_vanilla custom_lsm (default: all four)";

#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    passes: usize,
    trace: bool,
    quick: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    /// Internal: this process makes one run (of pass N) and reports it to
    /// the invocation that spawned it. Every run gets a process of its own,
    /// so peak memory and thread state never carry over from run to run.
    child_pass: Option<usize>,
}

/// The benchmark package's directory: where `cargo run` found the manifest,
/// or where the package was compiled.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn parse_args(argv: &[String], default_out: PathBuf) -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::ALL.to_vec(),
        seed: 1,
        seconds: 20,
        passes: 1,
        trace: false,
        quick: false,
        out: default_out,
        compare: None,
        child_pass: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        let mut number = || -> Result<u64, String> {
            value("a number")?
                .parse()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = workloads::by_name(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--passes" => {
                args.passes = number()? as usize;
                if args.passes == 0 {
                    return Err("--passes must be at least 1".into());
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = it
                    .next_if(|v| matches!(v.as_str(), "0" | "1"))
                    .is_none_or(|v| v == "1")
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ));
            }
            "--child-pass" => args.child_pass = Some(number()? as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn entry_path(args: &Args, w: Workload, pass: usize) -> PathBuf {
    args.out
        .join("tmp")
        .join(format!("{}-pass{pass}.run.json", w.name))
}

/// The child side: one run of one workload in this process.
fn run_one(args: &Args, pass: usize) -> ExitCode {
    let w = args.workloads[0];
    let plan = Plan::new(args.seconds, args.quick, args.trace);
    let dirs = RunDirs {
        out: args.out.clone(),
    };
    let out = run::run_workload(w, args.seed, &plan, args.trace, &dirs);
    report::print_run(w, pass, &out);
    let path = entry_path(args, w, pass);
    let written = std::fs::create_dir_all(args.out.join("tmp"))
        .and_then(|()| std::fs::write(&path, report::run_entry(pass, &out).to_line()));
    match written {
        Ok(()) if out.correct() => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

/// The parent side: runs `w` once in a child process and reads its entry
/// back. A child that dies (a peer thread that hit a protocol violation, a
/// failed ledger audit in `finish`) is a failed run, not a crash of the
/// benchmark.
fn spawn_run(args: &Args, w: Workload, pass: usize) -> Json {
    let path = entry_path(args, w, pass);
    let _ = std::fs::remove_file(&path);
    let mut cmd = std::process::Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", w.name, "--child-pass", &pass.to_string()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.quick {
        cmd.arg("--quick");
    }
    let status = match cmd.status() {
        Ok(s) => s,
        Err(e) => return report::crashed_entry(pass, &format!("could not start the run: {e}")),
    };
    let entry = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t));
    let _ = std::fs::remove_file(&path);
    entry.unwrap_or_else(|e| report::crashed_entry(pass, &format!("{status}, no run entry: {e}")))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, package_dir().join("out")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = package_dir().join("..").join("BENCHMARK.json");
    if let Some((a, b)) = &args.compare {
        return match compare::run(&manifest, a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("{}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    if let Some(pass) = args.child_pass {
        return run_one(&args, pass);
    }

    let env = host::environment(args.seed, args.passes, args.seconds, args.trace, args.quick);
    let mut all: Vec<WorkloadRuns> = args
        .workloads
        .iter()
        .map(|w| WorkloadRuns::new(*w))
        .collect();
    let mut calib_history = Vec::new();
    let calib = |entry: &Json| -> (f64, f64) {
        let at = |i: usize| {
            entry
                .get("calib_ms")
                .and_then(Json::as_arr)
                .and_then(|a| a.get(i)?.as_f64())
        };
        (at(0).unwrap_or(f64::NAN), at(1).unwrap_or(f64::NAN))
    };
    let flag = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_bool) == Some(true);

    // Passes interleave the workloads (w1 w2 w3 w4, w1 ...), so slow drift
    // of the host lands on all of them alike.
    for pass in 0..args.passes {
        for runs in &mut all {
            let w = runs.workload;
            eprintln!("# pass {} of {}: {}", pass + 1, args.passes, w.name);
            let mut entry = spawn_run(&args, w, pass);
            let (before, after) = calib(&entry);
            let mut noisy = host::is_noisy(before, after, &calib_history);
            let invalid = flag(&entry, "correct") && !flag(&entry, "open_valid");
            // A single run is never repeated: whoever budgets its time (the
            // driver allots 180 s to a run) must get one run for one call.
            if (noisy || invalid) && args.passes > 1 {
                eprintln!(
                    "# {}: {} (calibration {before:.1} -> {after:.1} ms); running it once more",
                    w.name,
                    if noisy {
                        "noisy host"
                    } else {
                        "invalid open phase"
                    },
                );
                entry = spawn_run(&args, w, pass);
                let (before, after) = calib(&entry);
                noisy = host::is_noisy(before, after, &calib_history);
            }
            let (before, after) = calib(&entry);
            calib_history.extend([before, after].into_iter().filter(|c| c.is_finite()));
            runs.push(entry, noisy);
        }
    }
    let _ = std::fs::remove_dir_all(args.out.join("tmp"));

    let bounds = std::fs::read_to_string(&manifest)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|m| compare::bounds_from(&m).ok())
        .unwrap_or_default();
    let mut all_correct = true;
    for runs in &all {
        if args.passes > 1 {
            report::print_summary(runs, &bounds);
        }
        let path = args.out.join(format!("{}.json", runs.workload.name));
        if let Err(e) = std::fs::write(&path, runs.document(&env).to_pretty()) {
            eprintln!("{}: {e}", path.display());
            all_correct = false;
        }
        all_correct &= runs.correct();
    }
    // Last line of standard output: one JSON object per workload.
    for runs in &all {
        println!(
            "{}",
            runs.contract_line(args.trace, all.len() > 1).to_line()
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv, PathBuf::from("out"))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload sb_zipf --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workloads, vec![workloads::by_name("sb_zipf").unwrap()]);
        assert_eq!((a.seed, a.seconds, a.trace, a.passes), (7, 10, false, 1));
        assert!(
            parse("--workload sb_zipf --seed 7 --seconds 10 --trace 1")
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let a = parse("--trace --quick --passes 3").unwrap();
        assert!(a.trace && a.quick);
        assert_eq!(a.passes, 3);
        assert_eq!(a.workloads.len(), 4);
        assert_eq!(a.seed, 1);
        let c = parse("--compare x y").unwrap();
        assert_eq!(c.compare, Some((PathBuf::from("x"), PathBuf::from("y"))));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--passes 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--compare onlyone").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
