//! The repository's benchmark harness. See `README.md` beside `Cargo.toml`
//! for the metric and workload definitions and `BENCHMARK.json` at the
//! repository root for the contract the driver runs it under.
//!
//! ```text
//! cods-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1|FILE>
//! cods-benchmark run <workload|all> [--seed N] [--seconds S] [--trace 0|1|FILE] [--smoke] [--json]
//! cods-benchmark repeat [--sets 2] [--runs 3] [--seed N] [--seconds S] [--smoke]
//! cods-benchmark manifest
//! ```

mod data;
mod evolve_resident;
mod host;
mod probes;
mod record;
mod repeat;
mod run;
mod serve;
mod spec;

use run::{Options, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: cods-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1|FILE>\n       \
         cods-benchmark run <workload|all> [--seed N] [--seconds S] [--trace 0|1|FILE] [--smoke] [--json]\n       \
         cods-benchmark repeat [--sets 2] [--runs 3] [--seed N] [--seconds S] [--smoke]\n       \
         cods-benchmark manifest\nworkloads: {}",
        spec::WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

/// Where runs keep their data directories and span files: beside the
/// executable, so inside the build directory of whatever checkout built it.
fn data_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let root = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("cods-benchmark-data");
    std::fs::create_dir_all(&root).expect("data root beside the executable");
    root
}

fn run_in_process(opts: &Options) -> Report {
    let root = data_root();
    if opts.workload == "evolve_resident" {
        run::run::<evolve_resident::EvolveResident>(opts, &root)
    } else {
        run::run::<serve::Serve>(opts, &root)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut command = String::from("run");
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        trace_file: None,
        smoke: false,
        json: false,
    };
    let (mut sets, mut runs) = (2usize, 3usize);
    if let Some(first) = args.peek().filter(|a| !a.starts_with("--")).cloned() {
        command = first;
        args.next();
        if command == "run" {
            opts.workload = args.next().unwrap_or_default();
        }
    }
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        let parsed = match flag.as_str() {
            "--workload" => {
                opts.workload = value();
                true
            }
            "--seed" => value().parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value().parse().map(|v| opts.seconds = v).is_ok(),
            "--sets" => value().parse().map(|v| sets = v).is_ok(),
            "--runs" => value().parse().map(|v| runs = v).is_ok(),
            "--trace" => {
                match value().as_str() {
                    "0" => {}
                    "1" => opts.trace = true,
                    file => {
                        opts.trace = true;
                        opts.trace_file = Some(PathBuf::from(file));
                    }
                }
                true
            }
            "--smoke" => {
                opts.smoke = true;
                true
            }
            "--json" => {
                opts.json = true;
                true
            }
            _ => false,
        };
        if !parsed {
            return usage(&format!("bad argument {flag}"));
        }
    }
    match command.as_str() {
        "manifest" => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        "repeat" => repeat::repeat(&opts, sets, runs),
        "run" if opts.workload == "all" => repeat::run_all(&opts),
        "run" if spec::WORKLOADS.iter().any(|w| w.0 == opts.workload) => {
            let report = run_in_process(&opts);
            if !opts.json {
                report.print_table();
            }
            println!("{}", report.detail_line());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        _ => usage(&format!(
            "unknown command or workload {command:?} {:?}",
            opts.workload
        )),
    }
}
