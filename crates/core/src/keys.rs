//! Key numbering for the SMO executors. DECOMPOSE's distinction and MERGE's
//! key table both number the distinct keys of some key columns, where a key
//! is one dictionary id per column. With one column the id is the index of
//! an array, and nothing is hashed. With several, keys are stored flat and
//! found through one open-addressed table hashed with `cods_query`'s id
//! hasher, so no key is ever allocated on its own.

use cods_query::agg::IdHasher;
use cods_storage::Table;
use std::hash::Hasher;

/// "No key", "no row": the empty entry of an id-indexed table.
pub(crate) const NONE: u32 = u32::MAX;

/// Numbers distinct keys densely, in first-insertion order, keeping them
/// flat: key `n` is `keys()[n * width..][..width]`.
pub(crate) enum KeyIndex {
    /// One key column: a key is its dictionary id, and `number_of[id]` is
    /// its number ([`NONE`] until interned).
    ById { number_of: Vec<u32>, keys: Vec<u32> },
    /// Several key columns.
    ByTuple(TupleIndex),
}

impl KeyIndex {
    /// An empty index for keys over `table`'s columns at `cols`, sized for
    /// about `expect` keys.
    pub(crate) fn new(table: &Table, cols: &[usize], expect: usize) -> KeyIndex {
        match cols {
            [c] => KeyIndex::ById {
                number_of: vec![NONE; table.column(*c).dict().len()],
                keys: Vec::with_capacity(expect),
            },
            _ => KeyIndex::ByTuple(TupleIndex::with_capacity(cols.len(), expect)),
        }
    }

    /// The number of `key`, and whether this call assigned it.
    #[inline]
    pub(crate) fn intern(&mut self, key: &[u32]) -> (u32, bool) {
        match self {
            KeyIndex::ById { number_of, keys } => {
                let slot = &mut number_of[key[0] as usize];
                if *slot != NONE {
                    return (*slot, false);
                }
                *slot = keys.len() as u32;
                keys.push(key[0]);
                (*slot, true)
            }
            KeyIndex::ByTuple(index) => index.intern(key),
        }
    }

    /// The number of `key`, if interned.
    #[inline]
    pub(crate) fn get(&self, key: &[u32]) -> Option<u32> {
        match self {
            KeyIndex::ById { number_of, .. } => {
                Some(number_of[key[0] as usize]).filter(|&n| n != NONE)
            }
            KeyIndex::ByTuple(index) => index.get(key),
        }
    }

    /// Every interned key's ids, flat, in number order.
    pub(crate) fn keys(&self) -> &[u32] {
        match self {
            KeyIndex::ById { keys, .. } => keys,
            KeyIndex::ByTuple(index) => &index.keys,
        }
    }

    /// Forgets every key, so the index can serve the next chunk: an id
    /// table is reset through the ids it holds, not refilled.
    pub(crate) fn clear(&mut self) {
        match self {
            KeyIndex::ById { number_of, keys } => {
                for &id in keys.iter() {
                    number_of[id as usize] = NONE;
                }
                keys.clear();
            }
            KeyIndex::ByTuple(index) => index.clear(),
        }
    }
}

/// Id tuples of one width, numbered in first-insertion order and stored
/// flat (`keys[n * width..][..width]` is tuple `n`). `slots` is a
/// power-of-two open-addressing table of tuple numbers, probed linearly
/// and kept at most half full.
pub(crate) struct TupleIndex {
    width: usize,
    keys: Vec<u32>,
    slots: Vec<u32>,
}

impl TupleIndex {
    fn with_capacity(width: usize, expect: usize) -> TupleIndex {
        TupleIndex {
            width,
            keys: Vec::with_capacity(expect * width),
            slots: vec![NONE; (expect.max(8) * 2).next_power_of_two()],
        }
    }

    fn len(&self) -> usize {
        self.keys.len() / self.width
    }

    fn hash(key: &[u32]) -> usize {
        let mut h = IdHasher::default();
        for &id in key {
            h.write_u32(id);
        }
        h.finish() as usize
    }

    /// `Ok(number)` when `key` is present, else `Err(slot)`, the empty slot
    /// it would take.
    fn find(&self, key: &[u32]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            let n = self.slots[i];
            if n == NONE {
                return Err(i);
            }
            let at = n as usize * self.width;
            if &self.keys[at..at + self.width] == key {
                return Ok(n);
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, key: &[u32]) -> Option<u32> {
        self.find(key).ok()
    }

    fn intern(&mut self, key: &[u32]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.width);
        match self.find(key) {
            Ok(n) => (n, false),
            Err(slot) => {
                let n = self.len() as u32;
                self.slots[slot] = n;
                self.keys.extend_from_slice(key);
                if self.len() * 2 > self.slots.len() {
                    self.grow();
                }
                (n, true)
            }
        }
    }

    fn grow(&mut self) {
        let size = self.slots.len() * 2;
        self.slots = vec![NONE; size];
        let mask = size - 1;
        for (n, key) in self.keys.chunks_exact(self.width).enumerate() {
            let mut i = Self::hash(key) & mask;
            while self.slots[i] != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = n as u32;
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.slots.fill(NONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Schema, Value, ValueType};

    fn table(rows: &[(i64, i64)]) -> Table {
        let schema = Schema::build(&[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
            .collect();
        Table::from_rows("R", schema, &rows).unwrap()
    }

    #[test]
    fn both_shapes_number_in_first_insertion_order_and_clear() {
        let t = table(&[(0, 0), (1, 1), (2, 2)]);
        for cols in [vec![0usize], vec![0, 1]] {
            let w = cols.len();
            let mut index = KeyIndex::new(&t, &cols, 0);
            let keys: Vec<Vec<u32>> = [2u32, 0, 2, 1, 0].iter().map(|&id| vec![id; w]).collect();
            let got: Vec<(u32, bool)> = keys.iter().map(|k| index.intern(k)).collect();
            assert_eq!(
                got,
                vec![(0, true), (1, true), (0, false), (2, true), (1, false)]
            );
            assert_eq!(index.keys().len(), 3 * w);
            assert_eq!(index.get(&vec![1; w]), Some(2));
            index.clear();
            assert!(index.keys().is_empty());
            assert_eq!(index.get(&vec![2; w]), None);
            assert_eq!(index.intern(&vec![1; w]), (0, true));
        }
    }

    #[test]
    fn tuple_index_survives_growth() {
        let mut index = TupleIndex::with_capacity(3, 0);
        for i in 0..10_000u32 {
            assert_eq!(index.intern(&[i % 7, i, i / 3]), (i, true));
        }
        for i in (0..10_000u32).rev() {
            assert_eq!(index.get(&[i % 7, i, i / 3]), Some(i));
            assert_eq!(index.intern(&[i % 7, i, i / 3]), (i, false));
        }
        assert_eq!(index.get(&[1, 2, 3]), None);
        assert_eq!(index.len(), 10_000);
    }
}
