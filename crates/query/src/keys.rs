//! Key numbering: the one step under the paper's data-level operators and
//! the query kernels. DECOMPOSE's distinction, MERGE's key tables, the
//! group-by and the hash join's build all number the distinct keys of some
//! key columns, where a key is one dictionary id per column. With one
//! column the id is the index of an array, and nothing is hashed. With
//! several (or none: the one empty key of a group-by without grouping
//! columns), keys are stored flat and found through one open-addressed
//! table hashed with `splitmix64`, so no key is ever allocated on its
//! own.

use cods_storage::Table;

/// "No key", "no row": the empty entry of an id-indexed table.
pub const NONE: u32 = u32::MAX;

/// Numbers distinct keys densely, in first-insertion order, keeping them
/// flat: key `n` is `keys()[n * width..][..width]`.
pub enum KeyIndex {
    /// One key column: a key is its dictionary id.
    ById {
        /// The number of each dictionary id, [`NONE`] until interned.
        number_of: Vec<u32>,
        /// The interned ids in number order.
        keys: Vec<u32>,
    },
    /// Several key columns, or none.
    ByTuple(TupleIndex),
}

impl KeyIndex {
    /// An empty index for keys over `table`'s columns at `cols`, sized for
    /// about `expect` keys.
    pub fn new(table: &Table, cols: &[usize], expect: usize) -> KeyIndex {
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
    pub fn intern(&mut self, key: &[u32]) -> (u32, bool) {
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
    pub fn get(&self, key: &[u32]) -> Option<u32> {
        match self {
            KeyIndex::ById { number_of, .. } => {
                Some(number_of[key[0] as usize]).filter(|&n| n != NONE)
            }
            KeyIndex::ByTuple(index) => index.get(key),
        }
    }

    /// Every interned key's ids, flat, in number order.
    pub fn keys(&self) -> &[u32] {
        match self {
            KeyIndex::ById { keys, .. } => keys,
            KeyIndex::ByTuple(index) => &index.keys,
        }
    }

    /// Forgets every key, so the index can serve the next chunk: an id
    /// table is reset through the ids it holds, not refilled.
    pub fn clear(&mut self) {
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
pub struct TupleIndex {
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

    /// The number of tuples held. A zero-width tuple stores no ids, so it
    /// is counted by whoever interns it.
    fn len(&self) -> usize {
        self.keys.len() / self.width.max(1)
    }

    /// Seeded apart from [`key_partition`]: the keys of one join pass
    /// agree on their partition, and must not on their slot.
    fn hash(key: &[u32]) -> usize {
        key.iter().fold(0x2545_F491_4F6C_DD1D, |h, &id| {
            splitmix64(h ^ u64::from(id))
        }) as usize
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

/// The SplitMix64 finalizer: the one mixer behind every key table and
/// every join partition split.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The join pass of a key's rows among `partitions`: the key's ids folded
/// through `splitmix64`, so a one-column key's pass is
/// `splitmix64(id) % partitions`.
pub(crate) fn key_partition(key: &[u32], partitions: u32) -> u32 {
    let h = key.iter().fold(0, |h, &id| splitmix64(h ^ u64::from(id)));
    (h % u64::from(partitions)) as u32
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

    #[test]
    fn a_zero_width_key_numbers_as_one_group() {
        let t = table(&[(0, 0)]);
        let mut index = KeyIndex::new(&t, &[], 0);
        assert_eq!(index.intern(&[]), (0, true));
        assert_eq!(index.intern(&[]), (0, false));
        assert_eq!(index.get(&[]), Some(0));
        assert!(index.keys().is_empty());
        index.clear();
        assert_eq!(index.get(&[]), None);
        assert_eq!(index.intern(&[]), (0, true));
    }

    #[test]
    fn a_one_column_key_partitions_by_its_mixed_id() {
        for id in [0u32, 1, 7, 65_535, u32::MAX - 1] {
            for p in [1u32, 2, 3, 64] {
                let want = (splitmix64(u64::from(id)) % u64::from(p)) as u32;
                assert_eq!(key_partition(&[id], p), want, "id {id}, {p} partitions");
            }
        }
    }
}
