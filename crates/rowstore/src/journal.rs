//! Rollback journal, modeling the SQLite-style durability cost.
//!
//! SQLite's default (rollback-journal) mode copies the *before image* of
//! every page a statement dirties into a journal file before modifying it,
//! and truncates the journal on commit. For a bulk `INSERT INTO … SELECT`
//! executed row at a time under autocommit (the "S" curve of Figure 3a),
//! that is one 8 KiB journal write plus a truncate per transaction. This
//! module reproduces exactly that work: the page copies and journal-file
//! writes are real; only the fsync is elided (documented substitution —
//! DESIGN.md §2 — because synchronous-I/O latency would measure the disk,
//! not the algorithms).
//!
//! The on-disk records are [`cods_storage::wal::JournalWriter`] frames —
//! the same checksummed format the column store's crash-safe save protocol
//! journals with — with the page number as the frame tag and the 8 KiB
//! before-image as the payload. This journal never *seals* (sealing is
//! the fsync this model elides), which also means a leftover file is
//! always read back as torn and discarded, exactly what rollback-journal
//! semantics want for a journal whose transaction never committed.

use crate::page::PAGE_SIZE;
use cods_storage::wal::JournalWriter;
use std::path::PathBuf;

/// A rollback journal holding before-images of dirtied pages.
#[derive(Default)]
pub struct Journal {
    /// Before-images saved this transaction (page number, image).
    images: Vec<(u32, Box<[u8; PAGE_SIZE]>)>,
    /// Pages already journaled this transaction.
    journaled: std::collections::HashSet<u32>,
    /// Journal file (SQLite-like persistent journal); `None` keeps the
    /// journal purely in memory.
    file: Option<(PathBuf, JournalWriter)>,
    /// Statistics: total pages journaled across all transactions.
    pub pages_journaled: u64,
    /// Statistics: committed transactions.
    pub commits: u64,
    /// Statistics: bytes written to the journal file.
    pub bytes_written: u64,
}

impl Journal {
    /// Creates an in-memory journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a file-backed journal at `path` (truncating any previous
    /// content). The file is removed on drop.
    pub fn with_file(path: PathBuf) -> std::io::Result<Self> {
        let writer = JournalWriter::create(&path)?;
        let mut j = Journal::new();
        j.bytes_written = writer.bytes_written();
        j.file = Some((path, writer));
        Ok(j)
    }

    /// Creates a file-backed journal in the system temp directory with a
    /// unique name.
    pub fn with_temp_file() -> std::io::Result<Self> {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("cods-journal-{}-{n}.tmp", std::process::id()));
        Self::with_file(path)
    }

    /// Returns `true` when the journal is file-backed.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// Records the before-image of `page_no` unless already recorded in this
    /// transaction. Returns `true` if a copy was made.
    pub fn record_before_image(&mut self, page_no: u32, image: &[u8; PAGE_SIZE]) -> bool {
        if !self.journaled.insert(page_no) {
            return false;
        }
        // The actual 8 KiB copy — the cost the baseline pays per dirty page.
        let mut copy = Box::new([0u8; PAGE_SIZE]);
        copy.copy_from_slice(image);
        if let Some((_, w)) = &mut self.file {
            // SQLite writes the page number + page image to the journal
            // before the page may be modified (one buffered record): a
            // frame tagged with the page number, carrying the image.
            w.append(page_no, &copy[..]).expect("journal write");
            self.bytes_written = w.bytes_written();
        }
        self.images.push((page_no, copy));
        self.pages_journaled += 1;
        true
    }

    /// Commits the transaction: the journal is truncated and per-transaction
    /// state reset.
    pub fn commit(&mut self) {
        self.images.clear();
        self.journaled.clear();
        if let Some((_, w)) = &mut self.file {
            // PERSIST journal mode: rewind and overwrite instead of
            // truncating (SQLite offers this exactly because per-commit
            // ftruncate is expensive; the journaled bytes are identical).
            w.rewind().expect("journal rewind");
        }
        self.commits += 1;
    }

    /// Pages journaled in the current (uncommitted) transaction.
    pub fn pending_pages(&self) -> usize {
        self.images.len()
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        if let Some((path, _)) = &self.file {
            std::fs::remove_file(path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_each_page_once_per_txn() {
        let mut j = Journal::new();
        let img = Box::new([7u8; PAGE_SIZE]);
        assert!(j.record_before_image(3, &img));
        assert!(!j.record_before_image(3, &img));
        assert!(j.record_before_image(4, &img));
        assert_eq!(j.pending_pages(), 2);
        assert_eq!(j.pages_journaled, 2);
        assert!(!j.is_file_backed());
    }

    #[test]
    fn commit_resets_transaction() {
        let mut j = Journal::new();
        let img = Box::new([0u8; PAGE_SIZE]);
        j.record_before_image(1, &img);
        j.commit();
        assert_eq!(j.pending_pages(), 0);
        assert_eq!(j.commits, 1);
        // Same page journaled again in the next transaction.
        assert!(j.record_before_image(1, &img));
        assert_eq!(j.pages_journaled, 2);
    }

    #[test]
    fn file_backed_journal_writes_and_rewinds() {
        use cods_storage::wal::{FRAME_OVERHEAD_BYTES, JOURNAL_HEADER_BYTES};
        let record = PAGE_SIZE as u64 + FRAME_OVERHEAD_BYTES;
        let mut j = Journal::with_temp_file().unwrap();
        assert!(j.is_file_backed());
        let img = Box::new([9u8; PAGE_SIZE]);
        j.record_before_image(1, &img);
        j.record_before_image(2, &img);
        assert_eq!(j.bytes_written, JOURNAL_HEADER_BYTES + 2 * record);
        j.commit();
        j.record_before_image(1, &img);
        j.commit();
        assert_eq!(j.bytes_written, JOURNAL_HEADER_BYTES + 3 * record);
        assert_eq!(j.commits, 2);
    }

    #[test]
    fn temp_file_removed_on_drop() {
        let path;
        {
            let j = Journal::with_temp_file().unwrap();
            path = j.file.as_ref().unwrap().0.clone();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
