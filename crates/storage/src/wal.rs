//! Checksummed frames, the one frame checksum, and the per-file save lock.
//!
//! A table file commits itself through its two commit slots
//! ([`crate::persist`]); nothing here journals a save. What this module
//! keeps is the frame unit that the catalog commit log
//! ([`crate::commitlog`]) appends and the row store's page journal writes
//! through [`JournalWriter`], the checksum that verifies every frame, the
//! commit slots and the server's wire frames, and `path_lock`, which
//! serializes the saves, vacuums and opens of one file in this process.
//!
//! ## The frame format
//!
//! ```text
//! file  := magic:u32 version:u16 frame*
//! frame := tag:u32 len:u64 payload:[u8; len] fnv:u64
//! ```
//!
//! `fnv` is the checksum (`checksum` below) of `tag || len || payload`.
//! A reader takes the longest prefix of whole frames whose checksums hold
//! (`scan_frame_prefix`); anything past it is a torn tail.
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

use crate::codec::Reader;
use crate::fault;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Journal file magic ("CODS WAL").
const JOURNAL_MAGIC: u32 = 0xC0D5_0A11;
/// Journal format version (2: word-at-a-time frame checksum).
const JOURNAL_VERSION: u16 = 2;

/// Bytes of the journal file header (magic + version).
pub const JOURNAL_HEADER_BYTES: u64 = 6;
/// Fixed bytes added around every frame payload (tag + len + checksum).
pub const FRAME_OVERHEAD_BYTES: u64 = 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The frame checksum of the concatenation of `chunks` (see the module
/// docs) — journal frames, commit-log frames, commit slots and the
/// server's wire frames all verify with it. How the bytes are split into chunks does not matter.
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
/// page journal and the catalog commit log write. `payload` appends the
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
/// semantics: a torn append at the end is not an error.
pub(crate) fn scan_frame_prefix(bytes: &[u8]) -> (Vec<(u32, &[u8])>, usize) {
    let mut frames = Vec::new();
    let mut r = Reader::new(bytes);
    loop {
        let at = r.position();
        match read_frame(&mut r) {
            Some(frame) => frames.push(frame),
            None => return (frames, at),
        }
    }
}

/// Reads one frame through the checked reader: its tag and payload, when
/// the bytes hold all of it and its checksum matches the tag, length and
/// payload it covers.
fn read_frame<'a>(r: &mut Reader<'a>) -> Option<(u32, &'a [u8])> {
    let mut covered = *r;
    let tag = r.u32().ok()?;
    let len = usize::try_from(r.u64().ok()?).ok()?;
    let payload = r.take(len).ok()?;
    let sum = r.u64().ok()?;
    let covered = covered.take(12 + len).ok()?;
    (sum == checksum(&[covered])).then_some((tag, payload))
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
    /// kind, …).
    pub fn append(&mut self, tag: u32, payload: &[u8]) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD_BYTES as usize + payload.len());
        encode_frame(&mut frame, tag, |out| out.extend_from_slice(payload));
        fault::write_all(&mut self.file, &frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
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

/// Per-path save lock. Serializes the saves, vacuums and opens of one file
/// within this process, so a vacuum never interleaves with — or loses the
/// update of — a concurrent save, and a save never places bytes where an
/// open is still binding slots. A save that triggers the auto-vacuum holds
/// it through the compaction.
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

    /// A test's own directory under the temp dir, removed with all it
    /// holds when the guard drops — also when the test fails.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "cods-wal-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn frames_round_trip_and_a_torn_frame_ends_the_prefix() {
        let dir = Scratch::new();
        let p = dir.path("j1.wal");
        let mut w = JournalWriter::create(&p).unwrap();
        w.append(7, b"abc").unwrap();
        w.append(9, b"").unwrap();
        assert_eq!(
            w.bytes_written(),
            JOURNAL_HEADER_BYTES + (FRAME_OVERHEAD_BYTES + 3) + FRAME_OVERHEAD_BYTES
        );
        let bytes = std::fs::read(&p).unwrap();
        let body = &bytes[JOURNAL_HEADER_BYTES as usize..];
        let (frames, used) = scan_frame_prefix(body);
        assert_eq!(frames, vec![(7, &b"abc"[..]), (9, &[][..])]);
        assert_eq!(used, body.len());

        // Chop bytes off the end: the last frame is torn, the first stands.
        let first = (FRAME_OVERHEAD_BYTES + 3) as usize;
        for cut in [body.len() - 1, first + 1] {
            assert_eq!(
                scan_frame_prefix(&body[..cut]),
                (vec![(7, &b"abc"[..])], first)
            );
        }
        // Flip a payload byte: the checksum fails and nothing is accepted.
        let mut flipped = body.to_vec();
        flipped[12] ^= 0xff;
        assert_eq!(scan_frame_prefix(&flipped), (vec![], 0));
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
    fn path_lock_is_stable_across_spellings() {
        let dir = Scratch::new();
        let p = dir.path("lock.bin");
        std::fs::write(&p, b"x").unwrap();
        let a = path_lock(&p);
        let b = path_lock(&p.canonicalize().unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }
}
