//! `cods` — an interactive shell reproducing the CODS demonstration
//! workflow (Section 3 / Figure 4 of the paper): create tables, load data,
//! queue and execute schema modification operators, and watch the "Data
//! Evolution Status" log.
//!
//! ```text
//! cargo run -p cods-cli
//! cods> demo
//! cods> DECOMPOSE TABLE R INTO S (employee, skill), T (employee, address)
//! cods> scan T where employee = Jones
//! ```
//!
//! Non-interactive use: pipe commands on stdin or pass a script file as the
//! first argument; the exit status is then the number of lines that failed.
//! `cods serve` hosts a platform over TCP and `cods connect` runs the same
//! statements against it.

#![forbid(unsafe_code)]

use cods::Cods;
use cods_cli::{repl, run_command, HELP};
use std::io::{BufRead, IsTerminal};

/// Ends a non-interactive session: the exit status counts failed lines.
fn exit_with(failed: usize) -> ! {
    if failed > 0 {
        eprintln!("{failed} line(s) failed");
    }
    std::process::exit(failed.min(255) as i32);
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: cods serve [addr] [--demo] [--durable <file>] \
         [--idle-timeout <secs>] [--write-timeout <secs>]"
    );
    std::process::exit(1);
}

fn parse_secs(arg: Option<&String>) -> std::time::Duration {
    let Some(arg) = arg else {
        usage_exit("serve: timeout flags need a seconds value");
    };
    match arg.parse::<u64>() {
        Ok(s) if s > 0 => std::time::Duration::from_secs(s),
        _ => usage_exit(&format!("serve: bad timeout {arg:?}, want seconds > 0")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Network subcommands dispatch before the script-path fallback.
    match args.get(1).map(String::as_str) {
        Some("serve") => {
            let mut addr = "127.0.0.1:4050".to_string();
            let mut opts = cods_cli::ServeOptions::default();
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--demo" => opts.preload_demo = true,
                    "--durable" => match rest.next() {
                        Some(file) => opts.durable = Some(file.clone()),
                        None => usage_exit("serve: --durable needs a catalog file"),
                    },
                    "--idle-timeout" => opts.idle_timeout = Some(parse_secs(rest.next())),
                    "--write-timeout" => opts.write_timeout = Some(parse_secs(rest.next())),
                    a if a.starts_with('-') => {
                        usage_exit(&format!("serve: unknown flag {a}"));
                    }
                    a => addr = a.to_string(),
                }
            }
            if let Err(e) = cods_cli::serve(&addr, &opts) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            return;
        }
        Some("connect") => {
            let Some(addr) = args.get(2) else {
                eprintln!("usage: cods connect <addr>");
                std::process::exit(1);
            };
            let stdin = std::io::stdin();
            let interactive = stdin.is_terminal();
            match cods_cli::connect_repl(addr, stdin.lock(), &mut std::io::stdout(), interactive) {
                Ok(failed) if !interactive => exit_with(failed),
                Ok(_) => return,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        _ => {}
    }

    let mut cods = Cods::new();
    let script = std::env::args().nth(1);
    let interactive = script.is_none() && std::io::stdin().is_terminal();

    println!("CODS — Column Oriented Database Schema update (VLDB 2010 reproduction)");
    if interactive {
        print!("{HELP}");
    }

    let reader: Box<dyn BufRead> = match &script {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            }),
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    let mut out = std::io::stdout();
    let failed = repl("cods> ", reader, &mut out, interactive, |line, out| {
        run_command(&mut cods, line, out)
    });
    println!();
    if !interactive {
        exit_with(failed);
    }
}
