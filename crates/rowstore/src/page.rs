//! Slotted pages: the unit of storage and journaling in the row-store
//! baseline. Fixed 8 KiB pages with a slot directory growing from the end,
//! record bytes growing from the start — the classic heap-file layout.

/// Page size in bytes (8 KiB, SQLite-like default scale).
pub const PAGE_SIZE: usize = 8192;

/// Bytes of per-page header: record-area watermark + slot count.
const HEADER: usize = 4;
/// Bytes per slot directory entry: offset + length.
const SLOT: usize = 4;

/// A fixed-size slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
    /// Byte offset where the next record would start.
    free_start: usize,
    /// Number of slots in the directory.
    slots: u16,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
            free_start: HEADER,
            slots: 0,
        }
    }

    /// Number of records stored.
    pub fn slot_count(&self) -> u16 {
        self.slots
    }

    /// Free bytes remaining for one more record of `len` bytes (including
    /// its slot entry).
    pub fn fits(&self, len: usize) -> bool {
        let slot_area = (self.slots as usize + 1) * SLOT;
        self.free_start + len + slot_area <= PAGE_SIZE
    }

    /// Inserts a record, returning its slot number, or `None` if it does not
    /// fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if !self.fits(record.len()) {
            return None;
        }
        let off = self.free_start;
        self.data[off..off + record.len()].copy_from_slice(record);
        self.free_start += record.len();
        let slot = self.slots;
        let dir = PAGE_SIZE - (slot as usize + 1) * SLOT;
        self.data[dir..dir + 2].copy_from_slice(&(off as u16).to_le_bytes());
        self.data[dir + 2..dir + 4].copy_from_slice(&(record.len() as u16).to_le_bytes());
        self.slots += 1;
        Some(slot)
    }

    /// Reads the record in `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn record(&self, slot: u16) -> &[u8] {
        assert!(slot < self.slots, "slot {slot} out of range {}", self.slots);
        let dir = PAGE_SIZE - (slot as usize + 1) * SLOT;
        let off = u16::from_le_bytes([self.data[dir], self.data[dir + 1]]) as usize;
        let len = u16::from_le_bytes([self.data[dir + 2], self.data[dir + 3]]) as usize;
        &self.data[off..off + len]
    }

    /// Iterates all records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.slots).map(move |s| self.record(s))
    }

    /// Raw page image (for journaling).
    pub fn image(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_back() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.record(s0), b"hello");
        assert_eq!(p.record(s1), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = vec![7u8; 1000];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8 pages of ~1004 bytes each fit in 8 KiB.
        assert!((7..=8).contains(&n), "fit {n} records");
        assert!(!p.fits(1000));
        assert!(p.fits(10));
    }

    #[test]
    fn empty_record_is_fine() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        assert_eq!(p.record(s), b"");
    }

    #[test]
    fn records_iterates_in_order() {
        let mut p = Page::new();
        p.insert(b"a").unwrap();
        p.insert(b"bb").unwrap();
        p.insert(b"ccc").unwrap();
        let all: Vec<&[u8]> = p.records().collect();
        assert_eq!(all, vec![b"a".as_ref(), b"bb".as_ref(), b"ccc".as_ref()]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        Page::new().record(0);
    }
}
