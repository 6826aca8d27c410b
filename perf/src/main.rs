//! `perf`: the repo's benchmark. See README.md next to this crate.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0   end-to-end metrics
//! perf --workload W --seed N --seconds S --trace 1   per-layer metrics
//! perf calibrate                                     noise → NOISE.json
//! perf manifest                                      render BENCHMARK.json
//! ```
//! `--quick` shrinks corpus, windows and repetitions for a smoke run;
//! its numbers compare with nothing.

mod calibrate;
mod client;
mod corpus;
mod run;
mod spec;
mod stack;
mod stats;
mod trace;
mod workload;

use run::RunConfig;
use std::process::ExitCode;
use workload::WorkloadId;

const USAGE: &str = "usage: perf --workload <dblp_hot|dblp_cold|deep_sweep|remote_dblp> \
[--seed N] [--seconds S] [--trace 0|1] [--quick]\n       perf calibrate\n       perf manifest";

struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(WorkloadId::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ran = match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["manifest"] => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        ["calibrate"] => calibrate::calibrate().map_err(|e| format!("calibrate: {e}")),
        _ => {
            let args = match parse_args(&argv) {
                Ok(args) => args,
                Err(msg) => {
                    eprintln!("perf: {msg}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let Some(workload) = args.workload else {
                eprintln!("perf: --workload is required\n{USAGE}");
                return ExitCode::from(2);
            };
            let quick_default = if args.quick {
                2.0
            } else {
                spec::RUN_SECONDS as f64
            };
            let cfg = RunConfig {
                workload,
                seed: args.seed,
                seconds: args.seconds.unwrap_or(quick_default),
                quick: args.quick,
            };
            let result = if args.trace {
                trace::run_and_print(&cfg)
            } else {
                run::run_and_print(&cfg)
            };
            result.map_err(|e| format!("{}: {e}", workload.name()))
        }
    };
    // `Ok(false)`: the command completed and found something wrong.
    match ran {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
