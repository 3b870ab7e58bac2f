//! `run all` and `repeat`: the suite as child processes of this same
//! executable, one process per workload run so peak RSS, the process-wide
//! buffer cache and set-up time are each run's own.

use crate::host::median;
use crate::run::Options;
use crate::spec;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// A set's median `host.pass_iqr_ratio` above this means the passes of a
/// workload were not one population (drift or two regimes).
const MAX_PASS_IQR_RATIO: f64 = 1.15;

/// The numbers of one child run, read back from its detail line.
struct Child {
    detail: String,
    correct: bool,
}

impl Child {
    /// The value of metric `name` (`"name": [value, samples]`).
    fn metric(&self, name: &str) -> f64 {
        let key = format!("\"{name}\": [");
        self.detail
            .split_once(&key)
            .and_then(|(_, rest)| rest.split(',').next()?.trim().parse().ok())
            .unwrap_or(f64::NAN)
    }

    fn op_digest(&self) -> &str {
        self.detail
            .split_once("\"op_digest\": \"")
            .and_then(|(_, rest)| rest.split('"').next())
            .unwrap_or("")
    }
}

/// Runs one workload in a child process; echoes its table when `show`.
fn child(opts: &Options, workload: &str, seed: u64, show: bool) -> Option<Child> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if !show || opts.json {
        cmd.arg("--json");
    }
    let output = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let (result, detail) = (lines.pop()?, lines.pop()?);
    if show {
        for line in &lines {
            println!("{line}");
        }
        println!("{detail}");
    }
    Some(Child {
        detail: detail.to_string(),
        correct: output.status.success() && result.contains("\"correct\": true"),
    })
}

/// `run all`: every workload once, then the checks that span workloads.
pub fn run_all(opts: &Options) -> ExitCode {
    let mut ok = true;
    let mut digests = BTreeMap::new();
    for (workload, _) in spec::WORKLOADS {
        match child(opts, workload, opts.seed, true) {
            Some(c) => {
                ok &= c.correct;
                digests.insert(*workload, c.op_digest().to_string());
            }
            None => {
                eprintln!("{workload}: the run did not finish");
                ok = false;
            }
        }
    }
    let same = same_op_list(&digests);
    exit_code(ok && same)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `serve_hot` and `serve_cold` differ in the cache budget and nothing else.
fn same_op_list(digests: &BTreeMap<&str, String>) -> bool {
    let same = digests.get("serve_hot") == digests.get("serve_cold");
    println!(
        "op list digest: serve_hot {} serve_cold {} — {}",
        digests.get("serve_hot").map_or("-", String::as_str),
        digests.get("serve_cold").map_or("-", String::as_str),
        if same { "identical" } else { "DIFFERENT" }
    );
    same
}

/// `repeat`: the suite as `sets` back-to-back sets of `runs` runs (seeds
/// `seed..seed + runs` in every set). Prints, per workload and end-to-end
/// metric, each set's median, the relative difference between the first
/// and last set and the bound, plus the host gauges per set; fails if any
/// difference exceeds its bound, any set's median pass IQR ratio exceeds
/// `MAX_PASS_IQR_RATIO`, or any op failed.
pub fn repeat(opts: &Options, sets: usize, runs: usize) -> ExitCode {
    let mut ok = true;
    // results[workload][set] = that set's runs.
    let mut results: BTreeMap<&str, Vec<Vec<Child>>> = BTreeMap::new();
    let mut digests = BTreeMap::new();
    for set in 0..sets {
        for run in 0..runs {
            for (workload, _) in spec::WORKLOADS {
                eprintln!("set {} run {} {workload}", set + 1, run + 1);
                let Some(c) = child(opts, workload, opts.seed + run as u64, false) else {
                    eprintln!("{workload}: the run did not finish");
                    return ExitCode::FAILURE;
                };
                if !c.correct {
                    eprintln!("{workload}: incorrect or failed ops: {}", c.detail);
                    ok = false;
                }
                if run == 0 {
                    digests.insert(*workload, c.op_digest().to_string());
                }
                let per_set = results.entry(workload).or_default();
                per_set.resize_with(set + 1, Vec::new);
                per_set[set].push(c);
            }
        }
    }
    let set_median = |runs: &[Child], name: &str| {
        median(&runs.iter().map(|c| c.metric(name)).collect::<Vec<_>>())
    };
    for (workload, _) in spec::WORKLOADS {
        let per_set = &results[workload];
        println!("== {workload}");
        println!(
            "{:<30} {:>40} {:>9} {:>6}",
            "metric", "set medians", "rel diff", "bound"
        );
        for (name, _, better, bound) in spec::END_TO_END {
            let medians: Vec<f64> = per_set.iter().map(|s| set_median(s, name)).collect();
            let (first, last) = (medians[0], medians[medians.len() - 1]);
            let worse = if *better == "lower" {
                (last - first) / first
            } else {
                (first - last) / first
            };
            let verdict = if worse > *bound {
                ok = false;
                "EXCEEDS"
            } else {
                ""
            };
            let shown: Vec<String> = medians.iter().map(|m| format!("{m:.4}")).collect();
            println!(
                "{name:<30} {:>40} {worse:>+9.4} {bound:>6} {verdict}",
                shown.join(" ")
            );
        }
        for gauge in [
            "host.pass_iqr_ratio",
            "host.footprint_growth_mb",
            "host.ref_loop_ms",
            "host.steal_ms_per_s",
        ] {
            let medians: Vec<f64> = per_set.iter().map(|s| set_median(s, gauge)).collect();
            let too_wide =
                gauge == "host.pass_iqr_ratio" && medians.iter().any(|&m| m > MAX_PASS_IQR_RATIO);
            ok &= !too_wide;
            let shown: Vec<String> = medians.iter().map(|m| format!("{m:.4}")).collect();
            println!(
                "{gauge:<30} {:>40} {}",
                shown.join(" "),
                if too_wide { "EXCEEDS 1.15" } else { "" }
            );
        }
    }
    let same = same_op_list(&digests);
    exit_code(ok && same)
}
