//! Crash-point fault injection for the durability test-suite.
//!
//! Every filesystem *mutation* on the save / journal / vacuum paths goes
//! through the wrappers in this module. When the layer is disarmed (the
//! default) each wrapper is a thread-local read plus the real syscall, so
//! production cost is negligible. A test arms the layer with a **unit
//! budget** — writes cost one unit per byte, every other mutating
//! operation (`set_len`, `sync_all`, `rename`, `remove_file`, file
//! creation) costs one unit — and the first unit past the budget "crashes
//! the process": the offending write stops mid-buffer, and every later
//! mutation fails. Sweeping the budget from 0 to the total unit count of a
//! save therefore simulates a power cut at every byte boundary *and* at
//! every boundary between syscalls.
//!
//! The state is thread-local on purpose: a crash test arms only its own
//! thread, so concurrently running tests (and background vacuum threads)
//! keep saving normally. Reads are deliberately not faulted: a crash
//! destroys in-flight writes, not the ability of the *next* process to
//! read what reached the disk.
//!
//! While armed, the layer also keeps a per-thread [`trace`] of the
//! mutations that went through, so a test can assert a protocol's exact
//! order — that the journal is synced before the target is touched, or
//! that every create, rename and unlink a commit depends on is followed by
//! a sync of its directory ([`sync_dir`]).

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Sentinel budget meaning "no fault injection".
const UNLIMITED: i64 = i64::MAX;

thread_local! {
    /// Units remaining before the simulated crash ([`UNLIMITED`] = disarmed).
    static BUDGET: Cell<i64> = const { Cell::new(UNLIMITED) };
    /// Set once the budget is exhausted: the modeled process is "dead" and
    /// every further mutation fails.
    static DEAD: Cell<bool> = const { Cell::new(false) };
    /// Units consumed since the last [`arm`] — used by tests to size a sweep.
    static UNITS: Cell<u64> = const { Cell::new(0) };
    /// Mutations performed since the last [`arm`].
    static TRACE: RefCell<Vec<Mutation>> = const { RefCell::new(Vec::new()) };
}

/// One filesystem mutation as [`trace`] records it. Paths are reduced to
/// their file names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// A file created (or truncated by creation).
    Create(String),
    /// A complete `write_all` to an open file.
    Write,
    /// `File::set_len` on an open file.
    SetLen,
    /// `File::sync_all` on an open file.
    Sync,
    /// A sync of a file's parent directory.
    SyncDir,
    /// `fs::rename(from, to)`.
    Rename(String, String),
    /// `fs::remove_file`.
    Remove(String),
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Arm the layer on this thread: the next `budget` units of filesystem
/// mutation succeed, everything after fails. Resets the [`units`] counter
/// and the [`trace`].
pub fn arm(budget: u64) {
    UNITS.with(|u| u.set(0));
    TRACE.with(|t| t.borrow_mut().clear());
    DEAD.with(|d| d.set(false));
    BUDGET.with(|b| b.set(budget.min(UNLIMITED as u64 - 1) as i64));
}

/// Disarm the layer on this thread: all wrappers become passthroughs again.
pub fn disarm() {
    BUDGET.with(|b| b.set(UNLIMITED));
    DEAD.with(|d| d.set(false));
}

/// Units consumed since the last [`arm`] on this thread. Arm with
/// `u64::MAX`, run the operation under test, and read this to learn how
/// many crash points a sweep must cover.
pub fn units() -> u64 {
    UNITS.with(|u| u.get())
}

/// The mutations this thread performed since the last [`arm`], in order.
pub fn trace() -> Vec<Mutation> {
    TRACE.with(|t| t.borrow().clone())
}

fn record(m: Mutation) {
    TRACE.with(|t| t.borrow_mut().push(m));
}

fn armed() -> bool {
    BUDGET.with(|b| b.get()) != UNLIMITED
}

fn injected() -> io::Error {
    io::Error::other("injected crash (fault budget exhausted)")
}

/// Charge `n` units against the budget. Returns how many of them fit;
/// marks the modeled process dead if any did not.
fn charge(n: u64) -> u64 {
    if DEAD.with(|d| d.get()) {
        return 0;
    }
    let before = BUDGET.with(|b| {
        let v = b.get();
        b.set(v.saturating_sub(n as i64));
        v
    });
    let granted = (before.max(0) as u64).min(n);
    if granted < n {
        DEAD.with(|d| d.set(true));
    }
    UNITS.with(|u| u.set(u.get() + granted));
    granted
}

/// Faultable `write_all`: on a mid-buffer crash the granted prefix still
/// reaches the file (as it could on real hardware) before the error.
pub(crate) fn write_all(f: &mut File, buf: &[u8]) -> io::Result<()> {
    if !armed() {
        return f.write_all(buf);
    }
    let granted = charge(buf.len() as u64) as usize;
    f.write_all(&buf[..granted])?;
    if granted < buf.len() {
        return Err(injected());
    }
    record(Mutation::Write);
    Ok(())
}

/// Charge one unit for a non-write mutation, failing if the budget is gone.
fn mutation(m: Mutation) -> io::Result<()> {
    if !armed() {
        return Ok(());
    }
    if charge(1) == 1 {
        record(m);
        Ok(())
    } else {
        Err(injected())
    }
}

/// Faultable `File::set_len`.
pub(crate) fn set_len(f: &File, len: u64) -> io::Result<()> {
    mutation(Mutation::SetLen)?;
    f.set_len(len)
}

/// Faultable `File::sync_all`.
pub(crate) fn sync(f: &File) -> io::Result<()> {
    mutation(Mutation::Sync)?;
    f.sync_all()
}

/// Faultable sync of `path`'s parent directory: makes a create, rename or
/// unlink of `path` durable, which syncing the file itself does not. One
/// unit, like any other non-write mutation.
pub(crate) fn sync_dir(path: &Path) -> io::Result<()> {
    mutation(Mutation::SyncDir)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    sync_dir_at(dir)
}

#[cfg(unix)]
fn sync_dir_at(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing here; their entries are left
/// to the platform.
#[cfg(not(unix))]
fn sync_dir_at(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Faultable `fs::rename`.
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    mutation(Mutation::Rename(file_name(from), file_name(to)))?;
    std::fs::rename(from, to)
}

/// Faultable `fs::remove_file`.
pub(crate) fn remove_file(path: &Path) -> io::Result<()> {
    mutation(Mutation::Remove(file_name(path)))?;
    std::fs::remove_file(path)
}

/// Faultable `File::create` (creation truncates, so it is a mutation).
pub(crate) fn create(path: &Path) -> io::Result<File> {
    mutation(Mutation::Create(file_name(path)))?;
    File::create(path)
}

/// Open an existing file for read+write. Opening mutates nothing, but a
/// dead modeled process cannot issue new syscalls either.
pub(crate) fn open_rw(path: &Path) -> io::Result<File> {
    if armed() && DEAD.with(|d| d.get()) {
        return Err(injected());
    }
    std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sweep_crashes_mid_buffer_then_everything_fails() {
        let dir = std::env::temp_dir().join(format!(
            "cods-fault-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");

        arm(u64::MAX);
        let mut f = create(&path).unwrap();
        write_all(&mut f, b"hello world").unwrap();
        sync(&f).unwrap();
        sync_dir(&path).unwrap();
        let total = units();
        assert_eq!(total, 1 + 11 + 1 + 1); // create + bytes + sync + dir sync
        assert_eq!(
            trace(),
            [
                Mutation::Create("t.bin".into()),
                Mutation::Write,
                Mutation::Sync,
                Mutation::SyncDir
            ]
        );

        arm(1 + 4); // crash 4 bytes into the payload
        let mut f = create(&path).unwrap();
        assert!(write_all(&mut f, b"hello world").is_err());
        assert!(sync(&f).is_err());
        assert!(set_len(&f, 0).is_err());
        disarm();
        assert_eq!(std::fs::read(&path).unwrap(), b"hell");
        std::fs::remove_dir_all(&dir).ok();
    }
}
