//! Scripts can fail: `cods <file>` and a `cods connect` whose stdin is not
//! a terminal print an `error:` line per failed line and exit with their
//! count; a clean script exits 0.

use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::Arc;

const SCRIPT: &str = "\
# two of these lines fail
COPY TABLE R TO R2
count R2 where employee = Jones
count nope
FROBNICATE R
DROP TABLE R2
";

fn cods() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cods"))
}

fn script_file(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("cods_exit_{}_{name}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn a_script_file_exits_with_its_failed_line_count() {
    let bad = script_file("bad.cods", &format!("demo\n{SCRIPT}"));
    let out = cods().arg(&bad).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("3 of 7 rows satisfy"), "{stdout}");
    assert!(stdout.contains("error: unknown table: nope"), "{stdout}");
    assert_eq!(stdout.matches("error:").count(), 2, "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("2 line(s) failed"));

    let good = script_file("good.cods", "demo\ncount R\nquit\ncount nope\n");
    let out = cods().arg(&good).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_file(bad).ok();
    std::fs::remove_file(good).ok();
}

#[test]
fn a_piped_connect_session_exits_with_its_failed_line_count() {
    let mut platform = cods::Cods::new();
    cods_cli::run_command(&mut platform, "demo", &mut Vec::new()).unwrap();
    let server = cods_server::Server::bind(
        "127.0.0.1:0",
        Arc::new(platform),
        cods_server::ServerConfig::default(),
    )
    .unwrap();
    let mut child = cods()
        .args(["connect", &server.local_addr().to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(SCRIPT.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("3 of 7 rows satisfy"), "{stdout}");
    assert!(stdout.contains("error: unknown table: nope"), "{stdout}");
    assert!(!stdout.contains("cods@"), "no prompt when piped: {stdout}");
}
