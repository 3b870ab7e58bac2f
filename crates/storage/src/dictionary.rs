//! Per-column dictionaries mapping values to dense integer ids.
//!
//! A bitmap-encoded column is a dictionary plus one bitmap per id (the `v × r`
//! matrix of Section 2.2 of the paper). Ids are assigned in first-appearance
//! order; evolution operators work on ids and only touch the `Value`s when a
//! dictionary itself must be rewritten (never for reused columns, and never
//! for a column derived without dropping a value: it shares the handle).

use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The lazily built *value-ordered view* of a [`Dictionary`]: ids are
/// assigned in first-appearance order, so id order says nothing about value
/// order — this view is the permutation that makes range reasoning over ids
/// possible. `ordered` lists the ids sorted ascending by their values;
/// `ranks` is its inverse (`ranks[id]` = position of `id`'s value in sorted
/// order). Zone maps store extreme *ids* (stable under dictionary growth)
/// and resolve them to ranks through this view at scan time.
#[derive(Debug, PartialEq, Eq)]
pub struct ValueOrder {
    ordered: Vec<u32>,
    ranks: Vec<u32>,
}

impl ValueOrder {
    fn build(values: &[Value]) -> ValueOrder {
        let mut ordered: Vec<u32> = (0..values.len() as u32).collect();
        ordered.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
        let mut ranks = vec![0u32; values.len()];
        for (rank, &id) in ordered.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        ValueOrder { ordered, ranks }
    }

    /// Number of values covered.
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Returns `true` when the dictionary was empty.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Ids sorted ascending by value (`ordered[rank] = id`).
    pub fn ordered(&self) -> &[u32] {
        &self.ordered
    }

    /// Value-order rank per id (`ranks[id] = rank`; inverse of
    /// [`ValueOrder::ordered`]).
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }
}

/// Interning dictionary: dense `u32` ids for distinct [`Value`]s.
///
/// A shared copy-on-write handle: the values, the id map and the cached
/// value order live behind one `Arc`. A clone is a reference bump, so every
/// column derived from another without dropping a value — a filter that
/// keeps every value, a compaction, a DECOMPOSE's changed side — holds its
/// input's dictionary, and [`Dictionary::same_as`] tells two such apart
/// from two that merely hold equal values. Interning a new value into a
/// shared handle copies it first ([`Arc::make_mut`]); no other operation
/// does.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    inner: Arc<Interned>,
}

#[derive(Debug, Default)]
struct Interned {
    values: Vec<Value>,
    ids: HashMap<Value, u32>,
    /// Lazily built value-order permutation; invalidated whenever a new
    /// value is interned.
    order: OnceLock<ValueOrder>,
}

impl Clone for Interned {
    /// Only [`Arc::make_mut`] copies the interned values, right before a
    /// new one is added, which invalidates the value order: the copy starts
    /// without one.
    fn clone(&self) -> Interned {
        Interned {
            values: self.values.clone(),
            ids: self.ids.clone(),
            order: OnceLock::new(),
        }
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A dictionary over `values`, which must be distinct, in id order.
    fn of_distinct(values: Vec<Value>) -> Dictionary {
        let ids = values
            .iter()
            .enumerate()
            .map(|(id, v)| (v.clone(), id as u32))
            .collect();
        Dictionary {
            inner: Arc::new(Interned {
                values,
                ids,
                order: OnceLock::new(),
            }),
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.inner.values.len()
    }

    /// Returns `true` when no values are interned.
    pub fn is_empty(&self) -> bool {
        self.inner.values.is_empty()
    }

    /// `true` when both handles hold the same interned values — one is a
    /// clone of the other and neither has grown since — so an id means the
    /// same value in both. Equal values in two separately built
    /// dictionaries are not the same.
    pub fn same_as(&self, other: &Dictionary) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Interns `v`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, v: Value) -> u32 {
        if let Some(&id) = self.inner.ids.get(&v) {
            return id;
        }
        let inner = Arc::make_mut(&mut self.inner);
        let id = inner.values.len() as u32;
        inner.values.push(v.clone());
        inner.ids.insert(v, id);
        // Growth shifts value order: drop the cached view.
        inner.order = OnceLock::new();
        id
    }

    /// The value-ordered view of this dictionary, built on first use and
    /// cached until the next growth (O(v log v) to build, O(1) after).
    /// Every clone of the handle shares the one view.
    pub fn value_order(&self) -> &ValueOrder {
        self.inner
            .order
            .get_or_init(|| ValueOrder::build(&self.inner.values))
    }

    /// Looks up the id of `v` without interning.
    pub fn id_of(&self, v: &Value) -> Option<u32> {
        self.inner.ids.get(v).copied()
    }

    /// The value for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn value(&self, id: u32) -> &Value {
        &self.inner.values[id as usize]
    }

    /// All values in id order.
    pub fn values(&self) -> &[Value] {
        &self.inner.values
    }

    /// Iterates `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Value)> {
        self.values().iter().enumerate().map(|(i, v)| (i as u32, v))
    }

    /// Builds a dictionary from values in id order (values must be distinct).
    pub fn from_values(values: Vec<Value>) -> Result<Self, String> {
        let d = Dictionary::of_distinct(values);
        if d.inner.ids.len() != d.len() {
            return Err("duplicate value in dictionary".into());
        }
        Ok(d)
    }

    /// Keeps only the ids for which `keep(id)` is true, producing the
    /// compacted dictionary and the old-id → new-id mapping (`None` for
    /// dropped ids). Used after bitmap filtering drops values that no longer
    /// occur. Keeping every id returns this handle itself.
    pub fn compact(&self, mut keep: impl FnMut(u32) -> bool) -> (Dictionary, Vec<Option<u32>>) {
        let mut kept = 0u32;
        let mapping: Vec<Option<u32>> = (0..self.len() as u32)
            .map(|id| {
                keep(id).then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        if kept as usize == self.len() {
            return (self.clone(), mapping);
        }
        let values = self
            .values()
            .iter()
            .zip(&mapping)
            .filter(|(_, m)| m.is_some())
            .map(|(v, _)| v.clone())
            .collect();
        (Dictionary::of_distinct(values), mapping)
    }

    /// Merges `other` into a copy of `self`, returning the merged dictionary
    /// and the mapping from `other`'s ids to merged ids. Used by UNION TABLES.
    /// Merging a dictionary with itself is the identity and hashes nothing.
    pub fn merge(&self, other: &Dictionary) -> (Dictionary, Vec<u32>) {
        if self.same_as(other) {
            return (self.clone(), (0..self.len() as u32).collect());
        }
        let mut merged = self.clone();
        let mapping = other
            .values()
            .iter()
            .map(|v| merged.intern(v.clone()))
            .collect();
        (merged, mapping)
    }

    /// Maps every id in this dictionary to the id of the same value in
    /// `target` (`None` when `target` lacks the value). This is the hash
    /// join's dictionary-reconciliation step: computed once per join-key
    /// column pair, after which probing works entirely in the build side's
    /// id space with no value comparisons on the per-row path. Two handles
    /// of one dictionary map by identity, without hashing a value.
    pub fn remap_to(&self, target: &Dictionary) -> Vec<Option<u32>> {
        if self.same_as(target) {
            return (0..self.len() as u32).map(Some).collect();
        }
        self.values().iter().map(|v| target.id_of(v)).collect()
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        let value_bytes: usize = self
            .values()
            .iter()
            .map(|v| match v {
                Value::Str(s) => std::mem::size_of::<Value>() + s.len(),
                _ => std::mem::size_of::<Value>(),
            })
            .sum();
        // Values are stored twice (vec + hash map key) plus the id.
        value_bytes * 2 + self.len() * 4
    }
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other) || self.values() == other.values()
    }
}
impl Eq for Dictionary {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern(Value::str("a")), 0);
        assert_eq!(d.intern(Value::str("b")), 1);
        assert_eq!(d.intern(Value::str("a")), 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.value(1), &Value::str("b"));
        assert_eq!(d.id_of(&Value::str("b")), Some(1));
        assert_eq!(d.id_of(&Value::str("zzz")), None);
    }

    #[test]
    fn from_values_rejects_duplicates() {
        assert!(Dictionary::from_values(vec![Value::int(1), Value::int(1)]).is_err());
        let d = Dictionary::from_values(vec![Value::int(1), Value::int(2)]).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn compaction() {
        let mut d = Dictionary::new();
        for i in 0..5 {
            d.intern(Value::int(i));
        }
        let (c, map) = d.compact(|id| id % 2 == 0);
        assert_eq!(c.len(), 3);
        assert_eq!(map, vec![Some(0), None, Some(1), None, Some(2)]);
        assert_eq!(c.value(1), &Value::int(2));
    }

    #[test]
    fn merge_maps_other_ids() {
        let mut a = Dictionary::new();
        a.intern(Value::str("x"));
        a.intern(Value::str("y"));
        let mut b = Dictionary::new();
        b.intern(Value::str("y"));
        b.intern(Value::str("z"));
        let (merged, map) = a.merge(&b);
        assert_eq!(merged.len(), 3);
        assert_eq!(map, vec![1, 2]); // y → 1 (existing), z → 2 (new)
    }

    #[test]
    fn remap_to_reconciles_id_spaces() {
        let mut a = Dictionary::new();
        a.intern(Value::str("x"));
        a.intern(Value::str("y"));
        a.intern(Value::Null);
        let mut b = Dictionary::new();
        b.intern(Value::str("y"));
        b.intern(Value::Null);
        b.intern(Value::str("w"));
        assert_eq!(a.remap_to(&b), vec![None, Some(0), Some(1)]);
        assert_eq!(b.remap_to(&a), vec![Some(1), Some(2), None]);
        assert_eq!(Dictionary::new().remap_to(&a), Vec::<Option<u32>>::new());
    }

    #[test]
    fn value_order_ranks_by_value_not_id() {
        let mut d = Dictionary::new();
        // First-appearance ids: 9 → 0, 3 → 1, 7 → 2.
        d.intern(Value::int(9));
        d.intern(Value::int(3));
        d.intern(Value::int(7));
        let o = d.value_order();
        assert_eq!(o.ordered(), &[1, 2, 0]); // 3 < 7 < 9
        assert_eq!(o.ranks(), &[2, 0, 1]);
    }

    #[test]
    fn value_order_invalidated_on_growth() {
        let mut d = Dictionary::new();
        d.intern(Value::int(5));
        assert_eq!(d.value_order().ordered(), &[0]);
        d.intern(Value::int(1)); // sorts before 5
        assert_eq!(d.value_order().ordered(), &[1, 0]);
        // Re-interning an existing value keeps the cache valid.
        d.intern(Value::int(5));
        assert_eq!(d.value_order().ordered(), &[1, 0]);
        // Clones share the built view.
        let c = d.clone();
        assert_eq!(c.value_order().ranks(), d.value_order().ranks());
    }

    #[test]
    fn null_sorts_first_in_value_order() {
        let mut d = Dictionary::new();
        d.intern(Value::int(2));
        d.intern(Value::Null);
        assert_eq!(d.value_order().ordered(), &[1, 0]);
    }

    #[test]
    fn interning_into_a_clone_leaves_the_original_alone() {
        let mut d = Dictionary::from_values(vec![Value::int(9), Value::int(3)]).unwrap();
        let order_before: Vec<u32> = d.value_order().ordered().to_vec();
        let mut c = d.clone();
        assert!(c.same_as(&d));
        // Re-interning a present value neither copies nor invalidates.
        assert_eq!(c.intern(Value::int(3)), 1);
        assert!(c.same_as(&d));
        // A new value copies the clone first.
        assert_eq!(c.intern(Value::int(1)), 2);
        assert!(!c.same_as(&d));
        assert_eq!(d.values(), &[Value::int(9), Value::int(3)]);
        assert_eq!(d.id_of(&Value::int(1)), None);
        assert_eq!(d.value_order().ordered(), order_before.as_slice());
        assert_eq!(c.value_order().ordered(), &[2, 1, 0]);
        // An unshared handle grows in place.
        let before = d.clone();
        drop(before);
        d.intern(Value::int(5));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn operations_that_keep_every_value_keep_the_handle() {
        let d = Dictionary::from_values(vec![Value::str("x"), Value::str("y")]).unwrap();
        let (kept, map) = d.compact(|_| true);
        assert!(kept.same_as(&d));
        assert_eq!(map, vec![Some(0), Some(1)]);
        let (dropped, _) = d.compact(|id| id == 1);
        assert!(!dropped.same_as(&d));
        assert_eq!(dropped.values(), &[Value::str("y")]);

        let (merged, map) = d.merge(&d.clone());
        assert!(merged.same_as(&d));
        assert_eq!(map, vec![0, 1]);
        assert_eq!(d.remap_to(&d.clone()), vec![Some(0), Some(1)]);

        // Equal values, separate dictionaries: equal but not the same.
        let twin = Dictionary::from_values(d.values().to_vec()).unwrap();
        assert_eq!(twin, d);
        assert!(!twin.same_as(&d));
    }

    #[test]
    fn equality_ignores_hash_map_internals() {
        let mut a = Dictionary::new();
        a.intern(Value::int(1));
        let b = Dictionary::from_values(vec![Value::int(1)]).unwrap();
        assert_eq!(a, b);
    }
}
