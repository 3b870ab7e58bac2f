//! Write-ahead rollback journal — the crash-safety layer under every save.
//!
//! ## Commit protocol
//!
//! An append-save overwrites `[cut, EOF)` of a live file in place: the
//! dead space past the last extent the new state keeps, the old index and
//! the footer ([`crate::persist`]). Before the first byte of the target is
//! touched, [`TailGuard::begin`] copies the old tail into a sidecar journal
//! (`<file>.wal`), checksums it, seals it, `fsync`s it and syncs the
//! directory, so the journal's name is as durable as its bytes. Only then
//! is the target written, truncated to its new length, and synced. **The
//! commit point is the deletion of the journal** (SQLite hot-journal
//! semantics), made durable by a second directory sync before anything
//! that depends on the new state — a checkpoint's log truncation — runs. A
//! reader that finds a sealed journal next to a file knows a save died
//! mid-overwrite and [`recover`] rolls the tail back to the last durable
//! footer; a reader that finds a *torn* journal knows the save died while
//! journaling — before the target was modified — and simply discards it.
//! Every crash point therefore lands on exactly the old or the new catalog:
//!
//! ```text
//! crash while journaling  → torn journal, target untouched   → new ignored, OLD wins
//! crash while overwriting → sealed journal, torn target      → rollback,    OLD wins
//! crash before wal unlink → sealed journal, complete target  → rollback,    OLD wins
//! after wal unlink        → committed                        → NEW wins
//! ```
//!
//! Full rewrites don't need a journal: they build the new image in a
//! sibling temp file, sync it, and `rename(2)` over the target — the
//! rename is the commit point, and a directory sync makes it durable.
//!
//! ## The frame format
//!
//! The journal body is a sequence of checksummed frames, reusable by any
//! subsystem that needs a rollback log (the `rowstore` page journal writes
//! through [`JournalWriter`] too):
//!
//! ```text
//! file  := magic:u32 version:u16 frame* seal
//! frame := tag:u32 len:u64 payload:[u8; len] fnv:u64
//! seal  := SEAL_TAG:u32 0:u64 fnv:u64
//! ```
//!
//! `fnv` is the checksum (`checksum` below) of `tag || len || payload`. A
//! journal is *valid* only if every frame checksums and the seal is the
//! final bytes of the file — anything else is torn and is treated as absent.
//!
//! The checksum is FNV-1a's xor-multiply step taken one little-endian `u64`
//! at a time (the bytes past the last whole word one at a time), closed by
//! a fold of the length and of the high half into the low. Every step is a
//! bijection of the running state, so a change confined to one word — any
//! single flipped byte — always changes the result, at an eighth of the
//! multiplies of the byte-wise loop. The same function also guards the
//! network: `cods-server` checksums every wire frame (`kind ‖ len ‖
//! payload`) with [`checksum`], so storage and wire frames are verified by
//! one function.

use crate::error::StorageError;
use crate::fault;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Journal file magic ("CODS WAL").
const JOURNAL_MAGIC: u32 = 0xC0D5_0A11;
/// Journal format version (2: word-at-a-time frame checksum).
const JOURNAL_VERSION: u16 = 2;
/// Tag of the closing seal frame.
const SEAL_TAG: u32 = u32::MAX;
/// Frame tag used by [`TailGuard`] for the saved tail before-image.
const TAIL_TAG: u32 = 1;

/// Bytes of the journal file header (magic + version).
pub const JOURNAL_HEADER_BYTES: u64 = 6;
/// Fixed bytes added around every frame payload (tag + len + checksum).
pub const FRAME_OVERHEAD_BYTES: u64 = 20;
/// Bytes of the seal frame.
pub const SEAL_BYTES: u64 = FRAME_OVERHEAD_BYTES;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The frame checksum of the concatenation of `chunks` (see the module
/// docs) — journal frames, commit-log frames and the server's wire frames
/// all verify with it. How the bytes are split into chunks does not matter.
pub fn checksum(chunks: &[&[u8]]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME);
    let mut h = FNV_OFFSET;
    let mut len = 0u64;
    // Bytes of a word begun in one chunk and finished in a later one.
    let mut carry = [0u8; 8];
    let mut carried = 0usize;
    for chunk in chunks {
        len += chunk.len() as u64;
        let mut rest = *chunk;
        if carried > 0 {
            let take = (8 - carried).min(rest.len());
            carry[carried..carried + take].copy_from_slice(&rest[..take]);
            carried += take;
            rest = &rest[take..];
            if carried < 8 {
                continue;
            }
            h = step(h, u64::from_le_bytes(carry));
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        carry[..tail.len()].copy_from_slice(tail);
        carried = tail.len();
    }
    for &b in &carry[..carried] {
        h = step(h, b as u64);
    }
    h = step(h, len);
    h ^ (h >> 32)
}

/// Appends one frame (`tag len payload fnv`) to `out` — the unit both the
/// rollback journal and the catalog commit log write. `payload` appends the
/// payload straight to `out`, so it is built (or read off a file) where it
/// will be written from and never copied; whatever it returns is handed
/// back, and a caller whose `payload` failed discards `out`.
pub(crate) fn encode_frame<R>(
    out: &mut Vec<u8>,
    tag: u32,
    payload: impl FnOnce(&mut Vec<u8>) -> R,
) -> R {
    let start = out.len();
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&[0; 8]); // the length, once it is known
    let res = payload(out);
    let len = (out.len() - start - 12) as u64;
    out[start + 4..start + 12].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&[&out[start..]]);
    out.extend_from_slice(&sum.to_le_bytes());
    res
}

/// Scans a frame area (file header already stripped) for the longest valid
/// frame prefix: frames are accepted until the first one that is
/// incomplete or fails its checksum. Returns the accepted frames — tag and
/// payload, borrowed from `bytes` — and the byte length of the valid
/// prefix; anything past it is a torn tail.
///
/// This is the one loop that walks frames. The commit log
/// ([`crate::commitlog`]) takes the prefix as it is — acknowledged-prefix
/// semantics, no seal, a torn append at the end is not an error;
/// [`read_frames`] adds the journal's all-or-nothing rule on top.
pub(crate) fn scan_frame_prefix(bytes: &[u8]) -> (Vec<(u32, &[u8])>, usize) {
    let mut frames = Vec::new();
    let mut at = 0usize;
    loop {
        if bytes.len() - at < FRAME_OVERHEAD_BYTES as usize {
            return (frames, at);
        }
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let Some(end) = (at as u64)
            .checked_add(FRAME_OVERHEAD_BYTES)
            .and_then(|v| v.checked_add(len))
            .and_then(|v| usize::try_from(v).ok())
            .filter(|&end| end <= bytes.len())
        else {
            return (frames, at);
        };
        let sum = u64::from_le_bytes(bytes[end - 8..end].try_into().unwrap());
        if sum != checksum(&[&bytes[at..end - 8]]) {
            return (frames, at);
        }
        frames.push((tag, &bytes[at + 12..end - 8]));
        at = end;
    }
}

/// What [`journal_status`] found next to a target file — the read-only
/// inspection behind the CLI's `wal` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// No `<file>.wal` sidecar: the last save committed cleanly.
    Absent,
    /// A sealed rollback journal: a save died mid-overwrite and the next
    /// open will roll the target back.
    Sealed {
        /// Bytes of the journal file.
        bytes: u64,
    },
    /// A torn journal: the save died while journaling, before the target
    /// was touched; the next open discards it.
    Torn {
        /// Bytes of the journal file.
        bytes: u64,
    },
}

/// Inspects the rollback journal of `target` without recovering it.
pub fn journal_status(target: &Path) -> JournalStatus {
    let wal = wal_path(target);
    let Ok(meta) = std::fs::metadata(&wal) else {
        return JournalStatus::Absent;
    };
    match std::fs::read(&wal).ok().as_deref().and_then(read_frames) {
        Some(_) => JournalStatus::Sealed { bytes: meta.len() },
        None => JournalStatus::Torn { bytes: meta.len() },
    }
}

/// Appends checksummed frames to a journal file. Writes go through the
/// fault-injection layer so crash tests cover journaling itself.
pub struct JournalWriter {
    file: File,
    bytes: u64,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let mut file = fault::create(path)?;
        let mut header = [0u8; JOURNAL_HEADER_BYTES as usize];
        header[..4].copy_from_slice(&JOURNAL_MAGIC.to_le_bytes());
        header[4..6].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
        fault::write_all(&mut file, &header)?;
        Ok(JournalWriter {
            file,
            bytes: JOURNAL_HEADER_BYTES,
        })
    }

    /// Appends one frame. `tag` is caller-defined (page number, record
    /// kind, …) but must not collide with the seal tag `u32::MAX`.
    pub fn append(&mut self, tag: u32, payload: &[u8]) -> std::io::Result<()> {
        debug_assert_ne!(tag, SEAL_TAG);
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD_BYTES as usize + payload.len());
        encode_frame(&mut frame, tag, |out| out.extend_from_slice(payload));
        self.write_frame(&frame)
    }

    /// Appends an already serialized frame.
    fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        fault::write_all(&mut self.file, frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Writes the seal frame and `fsync`s: after this returns, the journal
    /// is durably valid and will be honored by [`recover`].
    pub fn seal(&mut self) -> std::io::Result<()> {
        let mut seal = Vec::with_capacity(SEAL_BYTES as usize);
        encode_frame(&mut seal, SEAL_TAG, |_| ());
        self.write_frame(&seal)?;
        fault::sync(&self.file)
    }

    /// Rewinds to just past the header so the next transaction overwrites
    /// the previous frames in place (SQLite PERSIST journal mode — offered
    /// exactly because per-commit `ftruncate` is expensive).
    pub fn rewind(&mut self) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(JOURNAL_HEADER_BYTES))?;
        Ok(())
    }

    /// Total bytes written to the journal, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Reads back a journal from its file's bytes. Returns the frame list, or
/// `None` when the file is torn or invalid in any way (bad header, bad
/// checksum, missing seal, trailing garbage) — a torn journal is treated
/// as absent.
fn read_frames(bytes: &[u8]) -> Option<Vec<(u32, &[u8])>> {
    let body = bytes.get(JOURNAL_HEADER_BYTES as usize..)?;
    if bytes[..4] != JOURNAL_MAGIC.to_le_bytes() || bytes[4..6] != JOURNAL_VERSION.to_le_bytes() {
        return None;
    }
    // Valid only whole: every byte is a frame, and the seal — which nothing
    // before it may look like — is the last of them.
    let (mut frames, used) = scan_frame_prefix(body);
    let sealed = used == body.len()
        && frames.pop() == Some((SEAL_TAG, &[]))
        && frames.iter().all(|(tag, _)| *tag != SEAL_TAG);
    sealed.then_some(frames)
}

/// The sidecar journal path for a target file: `<file>.wal`.
pub fn wal_path(target: &Path) -> PathBuf {
    let mut name = target.file_name().unwrap_or_default().to_os_string();
    name.push(".wal");
    target.with_file_name(name)
}

/// Guards an in-place tail overwrite of `target`. Constructed *before* the
/// target is touched; [`TailGuard::commit`] (journal deletion) is the
/// commit point, [`TailGuard::abort`] rolls the target back in-process.
pub(crate) struct TailGuard {
    target: PathBuf,
    wal: PathBuf,
}

impl TailGuard {
    /// Journals the current `[cut, EOF)` tail of `target` durably. After
    /// this returns the target may be overwritten from `cut`: any crash
    /// will roll back to the state captured here.
    pub(crate) fn begin(target: &Path, cut: u64) -> Result<TailGuard, StorageError> {
        let old_len = std::fs::metadata(target)?.len();
        if cut > old_len {
            return Err(StorageError::Corrupt(format!(
                "cannot journal tail at {cut} past EOF {old_len} of {}",
                target.display()
            )));
        }
        // The frame is built around the tail where it is read — `cut
        // old_len`, then the tail straight off the file — and is never
        // copied again.
        let tail_len = old_len - cut;
        let mut frame = Vec::with_capacity((FRAME_OVERHEAD_BYTES + 16 + tail_len) as usize);
        let read = encode_frame(&mut frame, TAIL_TAG, |out| {
            out.extend_from_slice(&cut.to_le_bytes());
            out.extend_from_slice(&old_len.to_le_bytes());
            let mut f = File::open(target)?;
            f.seek(SeekFrom::Start(cut))?;
            f.take(tail_len).read_to_end(out)
        })?;
        if read as u64 != tail_len {
            return Err(StorageError::Corrupt(format!(
                "{} shrank while its tail was being journaled",
                target.display()
            )));
        }

        let wal = wal_path(target);
        let mut w = JournalWriter::create(&wal)?;
        w.write_frame(&frame)?;
        w.seal()?; // durable before the target is touched…
        fault::sync_dir(&wal)?; // …and so is its name
        Ok(TailGuard {
            target: target.to_path_buf(),
            wal,
        })
    }

    /// Commit point: deletes the journal, and syncs the directory so the
    /// deletion cannot be undone by a power cut after the caller moved on.
    /// The overwrite it guarded must be fully written *and synced* before
    /// calling this.
    pub(crate) fn commit(self) -> std::io::Result<()> {
        fault::remove_file(&self.wal)?;
        fault::sync_dir(&self.wal)
    }

    /// Rolls the target back in-process after a failed overwrite — the
    /// same work [`recover`] would do on next open. Best-effort: under an
    /// injected crash the rollback itself fails (as it would have had the
    /// process died), and recovery happens at the next open instead.
    pub(crate) fn abort(self) {
        let _ = recover(&self.target);
    }
}

/// What [`recover`] found (and did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No journal: the file committed cleanly.
    Clean,
    /// A sealed journal was found — a save died mid-overwrite — and the
    /// tail was rolled back to the last durable footer.
    RolledBack,
    /// A torn journal was found — a save died while journaling, before the
    /// target was modified — and discarded.
    DiscardedTornJournal,
}

/// Recovers `target` from an interrupted save, if one is detected.
///
/// Call with the file's [`path_lock`] held (the save and vacuum paths do
/// this automatically). Uses the fault-injected fs wrappers so a crash
/// *during* recovery is itself recoverable.
pub fn recover(target: &Path) -> Result<Recovery, StorageError> {
    let wal = wal_path(target);
    if !wal.exists() {
        return Ok(Recovery::Clean);
    }
    let bytes = std::fs::read(&wal)?;
    // Exactly one tail frame whose payload is consistent with itself;
    // anything else — torn, foreign, or sealed by someone who did not write
    // it (the checksum is no MAC) — is not a journal to roll back from.
    let rollback = match read_frames(&bytes).as_deref() {
        Some([(TAIL_TAG, payload)]) if payload.len() >= 16 => {
            let cut = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let old_len = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
            let tail = &payload[16..];
            (cut.checked_add(tail.len() as u64) == Some(old_len)).then_some((cut, old_len, tail))
        }
        _ => None,
    };
    match rollback {
        None => {
            // Torn or foreign journal ⇒ the guarded overwrite never began
            // (the journal is synced before the target is touched), so the
            // target is intact as-is.
            fault::remove_file(&wal)?;
            fault::sync_dir(&wal)?;
            Ok(Recovery::DiscardedTornJournal)
        }
        Some((cut, old_len, tail)) => {
            let mut f = fault::open_rw(target)?;
            f.seek(SeekFrom::Start(cut))?;
            fault::write_all(&mut f, tail)?;
            fault::set_len(&f, old_len)?;
            fault::sync(&f)?;
            drop(f);
            fault::remove_file(&wal)?;
            fault::sync_dir(&wal)?;
            Ok(Recovery::RolledBack)
        }
    }
}

/// Per-path save/vacuum lock. Serializes mutating operations (save,
/// recovery, vacuum) on the same file within this process, so a
/// threshold-triggered background vacuum can never interleave with — or
/// lose the update of — a concurrent save.
pub(crate) fn path_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    let key = normalize(path);
    let mut map = LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    map.entry(key).or_default().clone()
}

/// Best-effort stable key for a path: resolve symlinks when the file (or
/// at least its parent directory) exists, fall back to an absolutized
/// lexical path otherwise.
fn normalize(path: &Path) -> PathBuf {
    if let Ok(c) = path.canonicalize() {
        return c;
    }
    if let (Some(parent), Some(name)) = (path.parent(), path.file_name()) {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(c) = parent.canonicalize() {
            return c.join(name);
        }
    }
    match std::env::current_dir() {
        Ok(cwd) if path.is_relative() => cwd.join(path),
        _ => path.to_path_buf(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cods-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn frames_round_trip_and_torn_journals_read_as_none() {
        let p = scratch("j1.wal");
        let mut w = JournalWriter::create(&p).unwrap();
        w.append(7, b"abc").unwrap();
        w.append(9, b"").unwrap();
        w.seal().unwrap();
        assert_eq!(
            w.bytes_written(),
            JOURNAL_HEADER_BYTES + (FRAME_OVERHEAD_BYTES + 3) + FRAME_OVERHEAD_BYTES + SEAL_BYTES
        );
        let bytes = std::fs::read(&p).unwrap();
        let frames = read_frames(&bytes).unwrap();
        assert_eq!(frames, vec![(7, &b"abc"[..]), (9, &[][..])]);

        // Chop one byte off the end: torn.
        for cut in [bytes.len() - 1, bytes.len() - SEAL_BYTES as usize, 3, 0] {
            assert!(
                read_frames(&bytes[..cut]).is_none(),
                "cut at {cut} should be torn"
            );
        }
        // Flip a payload byte: checksum failure.
        let mut flipped = bytes.clone();
        flipped[JOURNAL_HEADER_BYTES as usize + 12] ^= 0xff;
        assert!(read_frames(&flipped).is_none());
        // Bytes after the seal, or a second seal: not a journal.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(read_frames(&trailing).is_none());
        let mut resealed = bytes.clone();
        encode_frame(&mut resealed, SEAL_TAG, |_| ());
        assert!(read_frames(&resealed).is_none());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn checksum_sees_every_single_byte_flip_and_ignores_chunking() {
        let payload: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        let len = payload.len();
        let sum = checksum(&[&payload]);
        for at in [0, 7, 8, len - 9, len - 1] {
            let mut flipped = payload.clone();
            flipped[at] ^= 0x01;
            assert_ne!(checksum(&[&flipped]), sum, "flip at {at} went unseen");
        }
        // A frame is summed as three chunks when written and as slices of
        // one buffer when read: the split must not matter, wherever it
        // falls relative to the words.
        for cut in [0, 1, 4, 8, 13, len - 3, len] {
            let (a, b) = payload.split_at(cut);
            assert_eq!(checksum(&[a, b]), sum, "split at {cut}");
            assert_eq!(checksum(&[a, &[], b]), sum, "split at {cut}");
        }
        // Length is part of the sum: trailing zeros are not free.
        assert_ne!(checksum(&[&[0u8; 8]]), checksum(&[&[0u8; 16]]));
        assert_ne!(checksum(&[&[]]), checksum(&[&[0u8]]));
    }

    #[test]
    fn tail_guard_rolls_back_an_overwrite() {
        let p = scratch("t1.bin");
        std::fs::write(&p, b"HEAP|OLDTAIL").unwrap();
        let guard = TailGuard::begin(&p, 5).unwrap();
        // Clobber the tail with something longer, as an append-save would.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.seek(SeekFrom::Start(5)).unwrap();
        f.write_all(b"NEWMUCHLONGERTAIL").unwrap();
        drop(f);
        guard.abort();
        assert_eq!(std::fs::read(&p).unwrap(), b"HEAP|OLDTAIL");
        assert!(!wal_path(&p).exists());
        assert_eq!(recover(&p).unwrap(), Recovery::Clean);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_journal_is_discarded_and_target_untouched() {
        let p = scratch("t2.bin");
        std::fs::write(&p, b"ORIGINAL").unwrap();
        // A journal that never got sealed.
        let mut w = JournalWriter::create(&wal_path(&p)).unwrap();
        w.append(TAIL_TAG, b"garbage-before-image").unwrap();
        drop(w);
        assert_eq!(recover(&p).unwrap(), Recovery::DiscardedTornJournal);
        assert!(!wal_path(&p).exists());
        assert_eq!(std::fs::read(&p).unwrap(), b"ORIGINAL");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sealed_journal_rolls_back_on_recover() {
        let p = scratch("t3.bin");
        std::fs::write(&p, b"HEAP|TAIL").unwrap();
        let _guard = TailGuard::begin(&p, 5); // leak the guard: simulated crash
        std::fs::write(&p, b"HEAP|TORN-NEW-TAIL-XYZ").unwrap();
        assert_eq!(recover(&p).unwrap(), Recovery::RolledBack);
        assert_eq!(std::fs::read(&p).unwrap(), b"HEAP|TAIL");
        assert!(!wal_path(&p).exists());
        std::fs::remove_file(&p).ok();
    }

    /// A sealed journal anyone can write (the checksum is no MAC) whose
    /// `cut + tail` overflows: foreign, discarded, target untouched.
    #[test]
    fn hostile_sealed_journal_is_discarded_not_a_panic() {
        let p = scratch("t4.tbl");
        let schema = crate::Schema::build(&[("k", crate::ValueType::Int)], &[]).unwrap();
        let rows: Vec<_> = (0..8).map(|i| vec![crate::Value::Int(i)]).collect();
        let table = crate::Table::from_rows("t", schema, &rows).unwrap();
        crate::persist::save_table(&table, &p).unwrap();
        let healthy = std::fs::read(&p).unwrap();

        let mut w = JournalWriter::create(&wal_path(&p)).unwrap();
        let mut payload = (u64::MAX - 3).to_le_bytes().to_vec(); // cut
        payload.extend_from_slice(&4u64.to_le_bytes()); // old_len
        payload.extend_from_slice(b"eight by"); // the "tail"
        w.append(TAIL_TAG, &payload).unwrap();
        w.seal().unwrap();
        assert!(matches!(journal_status(&p), JournalStatus::Sealed { .. }));

        assert_eq!(recover(&p).unwrap(), Recovery::DiscardedTornJournal);
        assert!(!wal_path(&p).exists());
        assert_eq!(std::fs::read(&p).unwrap(), healthy);
        let back = crate::persist::read_table(&p).unwrap();
        assert_eq!(back.to_rows(), table.to_rows());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn path_lock_is_stable_across_spellings() {
        let p = scratch("lock.bin");
        std::fs::write(&p, b"x").unwrap();
        let a = path_lock(&p);
        let b = path_lock(&p.canonicalize().unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        std::fs::remove_file(&p).ok();
    }
}
