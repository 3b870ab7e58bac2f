//! Crash-point and I/O-failure injection for the durability test-suite.
//!
//! Every filesystem *mutation* on the save / commit-log / vacuum paths goes
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
//! The same budget can be armed for a failure the process survives
//! ([`Point::Fail`]): the mutation at the first unit past the budget
//! returns an `io::Error` — a write stops mid-buffer (a short write,
//! failing like ENOSPC), any other mutation fails like EIO — and the layer
//! disarms, so whatever the caller does next reaches the disk. Sweeping
//! that budget checks that a failed operation leaves a state the same
//! process can retry from.
//!
//! The state is thread-local on purpose: a crash test arms only its own
//! thread, so concurrently running tests keep saving normally. Every
//! mutation a save makes runs in the saving thread — the auto-vacuum
//! included, which compacts inside the save that crosses its threshold —
//! so arming that thread sweeps and traces all of them. Reads are deliberately not faulted: a crash
//! destroys in-flight writes, not the ability of the *next* process to
//! read what reached the disk.
//!
//! While armed, the layer also keeps a per-thread trace of the
//! mutations that went through, so a test can assert a protocol's exact
//! order — that a save's new bytes are synced before its commit slot is
//! written, or that every create, rename and unlink a commit depends on is
//! followed by a sync of its directory (`sync_dir`).
//!
//! Tests drive the layer through two functions rather than arming it by
//! hand. [`probe`] runs an operation armed with no limit and returns its
//! result, the units it used and its trace: the size of a sweep, the
//! protocol order a test pins, or proof that an operation (a reopen) wrote
//! nothing. [`sweep`] then runs the operation once per budget in
//! `0..units`, killed ([`Point::Kill`]) or failed ([`Point::Fail`]) at that
//! unit, hands each run to the test's check, and prints how many points it
//! visited. The crash model lives here, in one place; each test keeps only
//! what it asserts about the state a run left.

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
    /// Armed for [`Point::Fail`]: the exhausting mutation fails and the
    /// layer disarms instead of dying.
    static SURVIVE: Cell<bool> = const { Cell::new(false) };
    /// Units consumed since the last [`arm`] — used by tests to size a sweep.
    static UNITS: Cell<u64> = const { Cell::new(0) };
    /// Mutations performed since the last [`arm`].
    static TRACE: RefCell<Vec<Mutation>> = const { RefCell::new(Vec::new()) };
}

/// One filesystem mutation as the trace records it. Paths are reduced to
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
/// and the trace.
pub fn arm(budget: u64) {
    arm_as(budget, false);
}

fn arm_as(budget: u64, survive: bool) {
    UNITS.with(|u| u.set(0));
    TRACE.with(|t| t.borrow_mut().clear());
    DEAD.with(|d| d.set(false));
    SURVIVE.with(|s| s.set(survive));
    BUDGET.with(|b| b.set(budget.min(UNLIMITED as u64 - 1) as i64));
}

/// Disarm the layer on this thread: all wrappers become passthroughs again.
pub fn disarm() {
    BUDGET.with(|b| b.set(UNLIMITED));
    DEAD.with(|d| d.set(false));
}

/// Units consumed since the last [`arm`] on this thread: how many crash
/// points a sweep of the operation run since must cover. [`probe`] returns
/// it with the trace.
pub fn units() -> u64 {
    UNITS.with(|u| u.get())
}

/// The mutations this thread performed since the last [`arm`], in order.
fn trace() -> Vec<Mutation> {
    TRACE.with(|t| t.borrow().clone())
}

/// Run `f` with the layer armed and no limit, then disarm: returns what
/// `f` returned, the units it used and the mutations it made, in order.
pub fn probe<R>(f: impl FnOnce() -> R) -> (R, u64, Vec<Mutation>) {
    arm(u64::MAX);
    let result = f();
    disarm();
    (result, units(), trace())
}

/// What a [`sweep`] does at the first unit past each budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// The process dies there ([`arm`]).
    Kill,
    /// The mutation that needs the unit fails (a write after writing
    /// what fit), the process lives on, and the layer disarms itself.
    Fail,
}

/// Run one operation once per budget in `0..units`, in order: `setup`
/// builds a fresh state, the layer is armed at the budget as `point` says,
/// `op` runs on the state, the layer is disarmed, and `check` gets the
/// budget, the state and what `op` returned. At the end, prints `label`
/// with the number of points visited.
pub fn sweep<S, R>(
    label: &str,
    point: Point,
    units: u64,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S) -> R,
    mut check: impl FnMut(u64, S, R),
) {
    for budget in 0..units {
        let mut state = setup();
        arm_as(budget, point == Point::Fail);
        let result = op(&mut state);
        disarm();
        check(budget, state, result);
    }
    let kind = match point {
        Point::Kill => "kill",
        Point::Fail => "fail",
    };
    println!("{label} sweep: {units} {kind} points");
}

fn record(m: Mutation) {
    TRACE.with(|t| t.borrow_mut().push(m));
}

fn armed() -> bool {
    BUDGET.with(|b| b.get()) != UNLIMITED
}

/// The error of the mutation that exhausted the budget: armed for
/// [`Point::Fail`], ENOSPC for a write and EIO for anything else; after
/// [`arm`], the crash.
fn injected(write: bool) -> io::Error {
    match (SURVIVE.with(|s| s.get()), write) {
        (true, true) => io::Error::new(
            io::ErrorKind::StorageFull,
            "injected short write (no space left on device)",
        ),
        (true, false) => io::Error::other("injected I/O error (EIO)"),
        (false, _) => io::Error::other("injected crash (fault budget exhausted)"),
    }
}

/// Charge `n` units against the budget. Returns how many of them fit; if
/// any did not, marks the modeled process dead — or, armed for
/// [`Point::Fail`], disarms the layer.
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
        if SURVIVE.with(|s| s.get()) {
            BUDGET.with(|b| b.set(UNLIMITED));
        } else {
            DEAD.with(|d| d.set(true));
        }
    }
    UNITS.with(|u| u.set(u.get() + granted));
    granted
}

/// Faultable `write_all`: on a mid-buffer crash the granted prefix still
/// reaches the file (as it could on real hardware) before the error.
pub(crate) fn write_all(f: &mut File, buf: &[u8]) -> io::Result<()> {
    write_pieces(f, &[buf])
}

/// Faultable [`write_all`] of `pieces` back to back, without joining them
/// into one buffer first: one write to the layer — charged their total
/// length, recorded as one [`Mutation::Write`] — whose granted prefix may
/// end inside any piece.
pub(crate) fn write_pieces<B: AsRef<[u8]>>(f: &mut File, pieces: &[B]) -> io::Result<()> {
    let len: u64 = pieces.iter().map(|p| p.as_ref().len() as u64).sum();
    let armed = armed();
    let granted = if armed { charge(len) } else { len };
    let mut out = io::BufWriter::with_capacity(1 << 16, &mut *f);
    let mut left = granted;
    for piece in pieces {
        let piece = piece.as_ref();
        let n = piece.len().min(usize::try_from(left).unwrap_or(usize::MAX));
        out.write_all(&piece[..n])?;
        left -= n as u64;
    }
    out.flush()?;
    if !armed {
        return Ok(());
    }
    if granted < len {
        return Err(injected(true));
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
        Err(injected(false))
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
        return Err(injected(false));
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

        // A failure the process survives: the short write is an ENOSPC
        // error, and the layer is disarmed after it.
        arm_as(1 + 4, true);
        let mut f = create(&path).unwrap();
        let err = write_all(&mut f, b"hello world").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        write_all(&mut f, b"!").unwrap();
        sync(&f).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hell!");
        arm_as(0, true);
        assert!(sync(&f).is_err(), "EIO on the first unit");
        sync(&f).unwrap();
        disarm();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pieces_write_as_one_write_and_crash_inside_any_piece() {
        let dir = std::env::temp_dir().join(format!(
            "cods-fault-pieces-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        let pieces: [&[u8]; 3] = [b"hello", b" ", b"world"];

        // Charged and recorded as the joined buffer would be.
        let joined = probe(|| write_all(&mut create(&path).unwrap(), b"hello world"));
        let split = probe(|| write_pieces(&mut create(&path).unwrap(), &pieces));
        assert_eq!((split.1, split.2), (joined.1, joined.2));
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");

        // Every budget inside the bytes writes exactly its prefix.
        for bytes in 0..11 {
            arm(1 + bytes);
            let mut f = create(&path).unwrap();
            assert!(write_pieces(&mut f, &pieces).is_err());
            disarm();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                &b"hello world"[..bytes as usize]
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_runs_every_budget_in_order_and_disarms_after_each() {
        let dir = std::env::temp_dir().join(format!(
            "cods-fault-sweep-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        let write = |path: &Path| -> io::Result<()> {
            let mut f = create(path)?;
            write_all(&mut f, b"hello world")?;
            sync(&f)
        };

        // What the hand-armed quartet reads: the units and the trace.
        arm(u64::MAX);
        write(&path).unwrap();
        disarm();
        let quartet = (units(), trace());
        let ((), total, trace) = probe(|| write(&path).unwrap());
        assert_eq!((total, trace), quartet);
        assert_eq!(total, 1 + 11 + 1); // create + bytes + sync
        assert!(!armed());

        for point in [Point::Kill, Point::Fail] {
            let mut seen = Vec::new();
            sweep(
                "synthetic",
                point,
                total,
                || std::fs::remove_file(&path).ok(),
                |_| write(&path),
                |budget, _, res| {
                    assert!(!armed(), "{point:?} {budget}: still armed");
                    assert!(res.is_err(), "{point:?} {budget}: survived");
                    seen.push(budget);
                },
            );
            assert_eq!(seen, (0..total).collect::<Vec<_>>(), "{point:?}");
            // The last budget, 12, lets the create and all 11 bytes
            // through and stops the sync, killed or failed.
            let len = std::fs::read(&path).map(|b| b.len()).unwrap_or(0);
            assert_eq!(len as u64, total - 2, "{point:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
