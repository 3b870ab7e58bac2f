//! The network side of the CLI: `cods serve <addr>` hosts a platform
//! behind the framed TCP protocol, `cods connect <addr>` is a small
//! client REPL over [`cods_server::Client`].
//!
//! `connect` accepts the statements both shells share (see
//! [`crate::commands::HELP`]), `stats <table>`, whose text the server
//! renders as the local shell does, and three meta commands of its own:
//! `ping`, `refresh` and `metrics`.

use crate::commands::{repl, run_statement, Backend, BatchFn, Outcome, HELP};
use cods_query::{Query, RowSet};
use cods_server::{Client, ClientError, QueryReply, ServerConfig};
use cods_storage::ValueType;
use std::io::Write;
use std::time::Duration;

/// How `cods serve` should host the platform, parsed from the command
/// line by `main`.
#[derive(Debug, Default, Clone)]
pub struct ServeOptions {
    /// Start with the paper's demo table loaded.
    pub preload_demo: bool,
    /// Open this catalog file durably ([`cods_storage::open_durable`]):
    /// replay its commit log, and acknowledge every script only after the
    /// group fsync covering its commit. A `kill -9` at any point loses no
    /// acknowledged commit.
    pub durable: Option<String>,
    /// Evict connections idle longer than this.
    pub idle_timeout: Option<Duration>,
    /// Fail writes to clients that stop reading for longer than this.
    pub write_timeout: Option<Duration>,
}

/// In durable mode, how often the background checkpointer folds the
/// commit log into a full save.
const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(30);

/// Hosts `cods` behind `addr` until the process is killed.
pub fn serve(addr: &str, opts: &ServeOptions) -> Result<(), String> {
    let (mut cods, log) = match &opts.durable {
        Some(file) => {
            let (catalog, log, replay) = cods_storage::open_durable(std::path::Path::new(file))
                .map_err(|e| format!("cannot open {file} durably: {e}"))?;
            println!(
                "opened {file} durably: {} commit(s) replayed{}",
                replay.replayed,
                if replay.discarded_torn {
                    ", torn tail discarded"
                } else {
                    ""
                },
            );
            (cods::Cods::with_catalog(catalog), Some(log))
        }
        None => (cods::Cods::new(), None),
    };
    if opts.preload_demo {
        crate::run_command(&mut cods, "demo", &mut std::io::stdout())?;
    }
    let config = ServerConfig {
        idle_timeout: opts.idle_timeout,
        write_timeout: opts.write_timeout,
        commit_log: log.clone(),
        ..ServerConfig::default()
    };
    let cods = std::sync::Arc::new(cods);
    // Periodic checkpointing keeps the log short; recovery does not need
    // it (a kill at any moment replays the log), it only bounds replay
    // work and disk growth.
    if let Some(log) = log {
        let cods = std::sync::Arc::clone(&cods);
        std::thread::spawn(move || loop {
            std::thread::sleep(CHECKPOINT_INTERVAL);
            if log.stats().pending_records > 0 {
                match log.checkpoint(cods.catalog()) {
                    Ok(n) => println!("checkpoint: {n} commit record(s) folded into the save"),
                    Err(e) => eprintln!("checkpoint failed: {e}"),
                }
            }
        });
    }
    let handle = cods_server::Server::bind(addr, cods, config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("serving on {}", handle.local_addr());
    println!("connect with: cods connect {}", handle.local_addr());
    loop {
        std::thread::park();
    }
}

/// Runs the connect REPL against `addr`, reading commands from `input`
/// and writing results to `out`. Returns how many lines failed.
pub fn connect_repl(
    addr: &str,
    input: impl std::io::BufRead,
    out: &mut impl Write,
    interactive: bool,
) -> Result<usize, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    writeln!(
        out,
        "connected to {addr} (catalog v{})",
        client.catalog_version()
    )
    .ok();
    let prompt = format!("cods@{addr}> ");
    Ok(repl(&prompt, input, out, interactive, |line, out| {
        connect_command(&mut client, line, out)
    }))
}

impl Backend for Client {
    fn script(&mut self, text: &str) -> Result<String, String> {
        Client::script(self, text).map_err(fmt_err)
    }

    fn query(&mut self, query: Query, on_batch: &mut BatchFn<'_>) -> Result<QueryReply, String> {
        let wrapped = |columns: &[(String, ValueType)], rows| {
            on_batch(columns, &RowSet::from_rows(columns.len(), rows))
        };
        Client::query(self, query, wrapped).map_err(fmt_err)
    }
}

/// Executes one connect-REPL command line: a meta command, or — anything
/// else — a shared statement ([`run_statement`]) against the server.
pub fn connect_command(
    client: &mut Client,
    line: &str,
    out: &mut impl Write,
) -> Result<Outcome, String> {
    let mut words = line.split_whitespace();
    match words.next().unwrap_or("") {
        "quit" | "exit" => return Ok(Outcome::Quit),
        "help" => {
            write!(out, "{HELP}").ok();
        }
        "ping" => {
            client.ping().map_err(fmt_err)?;
            writeln!(out, "pong").ok();
        }
        "refresh" => {
            let v = client.refresh().map_err(fmt_err)?;
            writeln!(out, "snapshot re-pinned at catalog v{v}").ok();
        }
        "metrics" => {
            let m = client.metrics().map_err(fmt_err)?;
            writeln!(
                out,
                "connections: {} open / {} total",
                m.connections_open, m.connections_total
            )
            .ok();
            writeln!(
                out,
                "requests: {} in flight, {} queued, {} admitted, {} rejected",
                m.in_flight, m.queued, m.admitted_total, m.rejected_total
            )
            .ok();
            writeln!(
                out,
                "streamed: {} rows, {} bytes",
                m.rows_streamed, m.bytes_streamed
            )
            .ok();
            writeln!(out, "{}", m.cache).ok();
            if m.idle_evicted > 0 {
                writeln!(out, "idle-evicted: {} connection(s)", m.idle_evicted).ok();
            }
            if let Some(l) = m.log {
                writeln!(
                    out,
                    "durability: {} commit(s) over {} fsync(s) (max batch {}, {} us fsync time); \
                     {} record(s) pending checkpoint, {} log bytes",
                    l.commits,
                    l.fsyncs,
                    l.max_batch,
                    l.fsync_micros,
                    l.pending_records,
                    l.log_bytes
                )
                .ok();
            }
        }
        "stats" => {
            let table = words.next().ok_or("usage: stats <table>")?;
            write!(out, "{}", client.stats(table).map_err(fmt_err)?).ok();
        }
        _ => run_statement(client, line, out)?,
    }
    Ok(Outcome::Continue)
}

/// A server-side failure prints as its message alone, so both shells
/// report the same text for the same mistake.
fn fmt_err(e: ClientError) -> String {
    match e {
        ClientError::Server { message, .. } => message,
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_server::{Server, ServerConfig};
    use std::sync::Arc;

    fn demo_server() -> cods_server::ServerHandle {
        let mut cods = cods::Cods::new();
        crate::run_command(&mut cods, "demo", &mut Vec::new()).unwrap();
        Server::bind("127.0.0.1:0", Arc::new(cods), ServerConfig::default()).unwrap()
    }

    fn run(client: &mut Client, line: &str) -> String {
        let mut out = Vec::new();
        if let Err(e) = connect_command(client, line, &mut out) {
            panic!("{line:?} failed: {e}");
        }
        String::from_utf8(out).unwrap()
    }

    fn fails(client: &mut Client, line: &str) -> String {
        match connect_command(client, line, &mut Vec::new()) {
            Err(e) => e,
            Ok(_) => panic!("{line:?} must fail"),
        }
    }

    #[test]
    fn repl_surfaces_scan_count_and_metrics() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let count = run(&mut client, "count R where employee = Jones");
        assert!(count.contains("3 of 7 rows"), "got: {count}");

        let scan = run(&mut client, "scan R select skill where employee = Jones");
        assert!(scan.contains("skill=Typing"), "got: {scan}");
        assert!(scan.contains("3 row(s)"), "got: {scan}");

        let agg = run(&mut client, "agg R by employee count:skill");
        assert!(agg.contains("count(skill)="), "got: {agg}");
        assert!(agg.contains("4 row(s)"), "got: {agg}");

        let stats = run(&mut client, "stats R");
        assert!(stats.contains("7 rows, 3 columns"), "got: {stats}");

        // Counters visible through the REPL, with the rows we just
        // streamed accounted for.
        let metrics = run(&mut client, "metrics");
        assert!(metrics.contains("connections: 1 open"), "got: {metrics}");
        assert!(metrics.contains("admitted"), "got: {metrics}");
        assert!(metrics.contains("cache:"), "got: {metrics}");
        let rows_line = metrics
            .lines()
            .find(|l| l.starts_with("streamed:"))
            .expect("streamed line");
        assert!(!rows_line.contains("streamed: 0 rows"), "got: {metrics}");
        assert_eq!(run(&mut client, "help"), HELP);
    }

    #[test]
    fn repl_streams_joins() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Second table to join against: a copy of the demo table.
        run(&mut client, "COPY TABLE R TO R2");
        let joined = run(&mut client, "join R R2 on employee=employee");
        // Jones has 3 skill rows on each side: 9 Jones matches, plus
        // Roberts 2x2, Ellis and Harrison 1x1.
        assert!(joined.contains("15 row(s)"), "got: {joined}");
        assert!(joined.contains("employee=Jones"), "got: {joined}");
        fails(&mut client, "join R R2 on");
        fails(&mut client, "join R R2 on employee");
    }

    #[test]
    fn repl_runs_statements_and_script_files_and_sees_its_own_writes() {
        let server = demo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let msg = run(&mut client, "COPY TABLE R TO R2");
        assert!(msg.contains("1 operator(s) committed"), "got: {msg}");
        // Read-your-writes: the session snapshot moved with the script.
        let stats = run(&mut client, "stats R2");
        assert!(stats.contains("7 rows"), "got: {stats}");
        // `run <file>` sends a local script file as one atomic script.
        let file = std::env::temp_dir().join("cods_cli_remote_run_test.smo");
        std::fs::write(&file, "COPY TABLE R TO R3\nDROP TABLE R2 -- done\n").unwrap();
        let msg = run(&mut client, &format!("run {}", file.display()));
        assert!(msg.contains("2 operator(s) committed"), "got: {msg}");
        std::fs::remove_file(&file).ok();
        // Unknown statements and server-side errors surface as the
        // server's message, without the wire's error class.
        assert_eq!(fails(&mut client, "stats R2"), "unknown table: R2");
        assert!(fails(&mut client, "bogus").contains("unrecognized statement"));
    }
}
