//! Heap files: an append-only sequence of slotted pages plus row addressing.

use crate::page::{Page, PAGE_SIZE};

/// Physical address of a row: page number and slot within the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    /// Page index within the heap file.
    pub page: u32,
    /// Slot index within the page.
    pub slot: u16,
}

/// An append-only heap file of slotted pages.
#[derive(Default)]
pub struct HeapFile {
    pages: Vec<Page>,
    rows: u64,
}

impl HeapFile {
    /// Creates an empty heap file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of rows stored.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Approximate on-disk footprint.
    pub fn size_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Appends a record, allocating a new page when the last one is full.
    ///
    /// # Panics
    /// Panics if the record is larger than a page.
    pub fn insert(&mut self, record: &[u8]) -> RowId {
        assert!(
            record.len() + 8 <= PAGE_SIZE,
            "record of {} bytes exceeds page size",
            record.len()
        );
        if self.pages.is_empty() || !self.pages.last().unwrap().fits(record.len()) {
            self.pages.push(Page::new());
        }
        let page = self.pages.len() - 1;
        let slot = self
            .pages
            .last_mut()
            .unwrap()
            .insert(record)
            .expect("record fits after page allocation");
        self.rows += 1;
        RowId {
            page: page as u32,
            slot,
        }
    }

    /// Reads the record at `rid`.
    pub fn record(&self, rid: RowId) -> &[u8] {
        self.pages[rid.page as usize].record(rid.slot)
    }

    /// Full scan in insertion order, yielding `(RowId, record bytes)`.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[u8])> {
        self.pages.iter().enumerate().flat_map(|(pno, page)| {
            (0..page.slot_count()).map(move |slot| {
                (
                    RowId {
                        page: pno as u32,
                        slot,
                    },
                    page.record(slot),
                )
            })
        })
    }

    /// Shared access to a page.
    pub fn page(&self, page: u32) -> &Page {
        &self.pages[page as usize]
    }

    /// Index of the page the *next* insert of `len` bytes would land on.
    pub fn target_page(&self, len: usize) -> u32 {
        if self.pages.is_empty() || !self.pages.last().unwrap().fits(len) {
            self.pages.len() as u32
        } else {
            (self.pages.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_across_pages() {
        let mut h = HeapFile::new();
        let rec = vec![1u8; 3000];
        let ids: Vec<RowId> = (0..10).map(|_| h.insert(&rec)).collect();
        assert_eq!(h.row_count(), 10);
        assert!(h.page_count() >= 4); // 2 per page
        assert_ne!(ids[0].page, ids[9].page);
        for id in ids {
            assert_eq!(h.record(id), rec.as_slice());
        }
    }

    #[test]
    fn scan_preserves_order() {
        let mut h = HeapFile::new();
        for i in 0u32..100 {
            h.insert(&i.to_le_bytes());
        }
        let scanned: Vec<u32> = h
            .scan()
            .map(|(_, r)| u32::from_le_bytes(r.try_into().unwrap()))
            .collect();
        assert_eq!(scanned, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn target_page_predicts_insert() {
        let mut h = HeapFile::new();
        assert_eq!(h.target_page(100), 0);
        let rid = h.insert(&[0u8; 100]);
        assert_eq!(rid.page, 0);
        // Something enormous forces a new page (8 KiB minus header minus the
        // 100 bytes already used no longer fits 8150 bytes).
        assert_eq!(h.target_page(8150), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_record_panics() {
        HeapFile::new().insert(&vec![0u8; PAGE_SIZE]);
    }
}
