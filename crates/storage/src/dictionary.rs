//! Per-column dictionaries mapping values to dense integer ids.
//!
//! A bitmap-encoded column is a dictionary plus one bitmap per id (the `v × r`
//! matrix of Section 2.2 of the paper). Ids are assigned in first-appearance
//! order; evolution operators work on ids and only touch the `Value`s when a
//! dictionary itself must be rewritten (never for reused columns, and never
//! for a column derived without dropping a value: it shares the handle).
//!
//! At rest a dictionary is its values and nothing it can derive: no value →
//! id map. A lookup reads the value order — an offset for a dense run of
//! ints, a binary search otherwise — and only interning a value that breaks
//! the dense shape builds a map, which a finished builder and a merge shed.

use crate::span::{self, Span};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The lazily built *value-ordered view* of a [`Dictionary`]: ids are
/// assigned in first-appearance order, so id order says nothing about value
/// order in general — this view is the permutation that makes range
/// reasoning over ids possible. `ordered` lists the ids sorted ascending by
/// their values; `ranks` is its inverse (`ranks[id]` = position of `id`'s
/// value in sorted order). Zone maps store extreme *ids* (stable under
/// dictionary growth) and resolve them to ranks through this view at scan
/// time.
///
/// When the values already ascend in id order — a key column loaded in key
/// order — the order is the identity and holds no vectors: an id is its own
/// rank. A loop over ids asks [`ValueOrder::rank_table`] once and runs one
/// of two loops, so the identity costs no per-id branch.
#[derive(Debug)]
pub struct ValueOrder {
    len: usize,
    /// `(ordered, ranks)`; `None` for the identity.
    sorted: Option<(Vec<u32>, Vec<u32>)>,
    /// `0..len`, spelled out only when an identity order is asked for its
    /// slices ([`ValueOrder::ordered`], [`ValueOrder::ranks`]).
    spelled: OnceLock<Box<[u32]>>,
}

impl ValueOrder {
    /// One pass finds ascending values (the identity); anything else sorts.
    fn build(values: &[Value]) -> ValueOrder {
        let mut timer = span::enter(Span::OrderIdentity);
        timer.items(|| values.len() as u64);
        if values.windows(2).all(|w| w[0] < w[1]) {
            return ValueOrder::identity(values.len());
        }
        timer.relabel(Span::OrderSorted);
        let ordered = sorted_ids(values);
        let mut ranks = vec![0u32; values.len()];
        for (rank, &id) in ordered.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        ValueOrder {
            len: values.len(),
            sorted: Some((ordered, ranks)),
            spelled: OnceLock::new(),
        }
    }

    fn identity(len: usize) -> ValueOrder {
        ValueOrder {
            len,
            sorted: None,
            spelled: OnceLock::new(),
        }
    }

    /// `true` when the values ascend in id order: every id is its rank.
    pub fn is_identity(&self) -> bool {
        self.sorted.is_none()
    }

    /// `ranks[id]`, or `None` for the identity, where an id is its rank.
    pub fn rank_table(&self) -> Option<&[u32]> {
        self.sorted.as_ref().map(|(_, ranks)| ranks.as_slice())
    }

    /// `ordered[rank]`, or `None` for the identity, where a rank is its id.
    pub fn id_table(&self) -> Option<&[u32]> {
        self.sorted.as_ref().map(|(ordered, _)| ordered.as_slice())
    }

    /// Ids sorted ascending by value (`ordered[rank] = id`). The identity
    /// spells `0..len` out on the first call; a read path asks
    /// [`ValueOrder::id_table`] instead.
    pub fn ordered(&self) -> &[u32] {
        self.id_table().unwrap_or_else(|| self.spelled())
    }

    /// Value-order rank per id (`ranks[id] = rank`; inverse of
    /// [`ValueOrder::ordered`]). The identity spells `0..len` out on the
    /// first call; a read path asks [`ValueOrder::rank_table`] instead.
    pub fn ranks(&self) -> &[u32] {
        self.rank_table().unwrap_or_else(|| self.spelled())
    }

    fn spelled(&self) -> &[u32] {
        self.spelled.get_or_init(|| (0..self.len as u32).collect())
    }

    /// The id at `rank`.
    #[inline]
    pub fn id_at(&self, rank: u32) -> u32 {
        self.id_table()
            .map_or(rank, |ordered| ordered[rank as usize])
    }

    /// Heap bytes of whatever vectors were built.
    fn size_bytes(&self) -> usize {
        let words = self.sorted.as_ref().map_or(0, |(o, r)| o.len() + r.len())
            + self.spelled.get().map_or(0, |s| s.len());
        words * std::mem::size_of::<u32>()
    }
}

/// Ids sorted ascending by value. Ints and `Null` (which sorts first) are
/// sorted as keys beside their ids, so a comparison reads no value; any
/// other values are compared through their ids.
fn sorted_ids(values: &[Value]) -> Vec<u32> {
    let int_key = |v: &Value| match v {
        Value::Null => Some(None),
        Value::Int(i) => Some(Some(*i)),
        _ => None,
    };
    let keys: Option<Vec<_>> = values
        .iter()
        .zip(0u32..)
        .map(|(v, id)| Some((int_key(v)?, id)))
        .collect();
    if let Some(mut keys) = keys {
        keys.sort_unstable();
        return keys.into_iter().map(|(_, id)| id).collect();
    }
    let mut ordered: Vec<u32> = (0..values.len() as u32).collect();
    ordered.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
    ordered
}

/// Interning dictionary: dense `u32` ids for distinct [`Value`]s.
///
/// A shared copy-on-write handle: the values and what is derived from them
/// (the value order, and a value → id map while values are interned) live
/// behind one `Arc`. A clone is a reference bump, so every column derived
/// from another without dropping a value — a filter that keeps every value,
/// a compaction, a DECOMPOSE's changed side — holds its input's dictionary,
/// and [`Dictionary::same_as`] tells two such apart from two that merely
/// hold equal values. Interning a new value into a shared handle copies it
/// first ([`Arc::make_mut`]); no other operation does.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    inner: Arc<Interned>,
}

#[derive(Debug, Default)]
struct Interned {
    values: Vec<Value>,
    /// The value → id map, built by the first interned value that does not
    /// extend a dense int run, and shed when a builder finishes.
    ids: OnceLock<HashMap<Value, u32>>,
    /// Lazily built value order; invalidated whenever a new value is
    /// interned, except one that extends a dense int run.
    order: OnceLock<ValueOrder>,
}

impl Clone for Interned {
    /// Only [`Arc::make_mut`] copies the interned values, right before a
    /// new one is added: the copy starts with its values alone.
    fn clone(&self) -> Interned {
        Interned {
            values: self.values.clone(),
            ids: OnceLock::new(),
            order: OnceLock::new(),
        }
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    fn of(values: Vec<Value>, order: Option<ValueOrder>) -> Dictionary {
        Dictionary {
            inner: Arc::new(Interned {
                values,
                ids: OnceLock::new(),
                order: order.map_or_else(OnceLock::new, OnceLock::from),
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

    /// Interns `v`, returning its id (existing or freshly assigned). A value
    /// that extends a dense run of ints (the next int, or the first value)
    /// keeps the identity order and needs no map; any other new value
    /// builds the map on first use.
    pub fn intern(&mut self, v: Value) -> u32 {
        if let Some(id) = self.id_of(&v) {
            return id;
        }
        let extends = self.inner.ids.get().is_none()
            && match (self.inner.values.last(), &v) {
                (None, Value::Int(_)) => true,
                (Some(Value::Int(last)), Value::Int(i)) => {
                    self.dense_first().is_some() && last.checked_add(1) == Some(*i)
                }
                _ => false,
            };
        let inner = Arc::make_mut(&mut self.inner);
        let id = inner.values.len() as u32;
        if extends {
            inner.order = OnceLock::from(ValueOrder::identity(id as usize + 1));
        } else {
            if inner.ids.get().is_none() {
                let mut timer = span::enter(Span::InternMap);
                timer.items(|| inner.values.len() as u64);
                let ids: HashMap<Value, u32> = inner.values.iter().cloned().zip(0..).collect();
                inner.ids = OnceLock::from(ids);
            }
            let ids = inner.ids.get_mut().expect("built above");
            ids.insert(v.clone(), id);
            inner.order = OnceLock::new();
        }
        inner.values.push(v);
        id
    }

    /// Drops the value → id map interning built, when this handle is its
    /// only holder: what a finished builder or merge keeps is its values.
    pub(crate) fn shed_map(&mut self) {
        if let Some(inner) = Arc::get_mut(&mut self.inner) {
            inner.ids = OnceLock::new();
        }
    }

    /// The value-ordered view of this dictionary, built on first use and
    /// cached until the next growth (one pass when the values ascend, else
    /// O(v log v) to build; O(1) after). Every clone of the handle shares
    /// the one view.
    pub fn value_order(&self) -> &ValueOrder {
        self.inner
            .order
            .get_or_init(|| ValueOrder::build(&self.inner.values))
    }

    /// The first value, when the values are the ints `first..first+len` in
    /// id order: then `v`'s id is `v − first`.
    fn dense_first(&self) -> Option<i64> {
        match (self.values().first(), self.values().last()) {
            (Some(Value::Int(first)), Some(Value::Int(last)))
                if i128::from(*last) - i128::from(*first) + 1 == self.len() as i128
                    && self.value_order().is_identity() =>
            {
                Some(*first)
            }
            _ => None,
        }
    }

    /// The rank of the first value for which `before` is false, all values
    /// for which it holds ranking first (a binary search over the value
    /// order, as [`slice::partition_point`]).
    pub fn partition_point(&self, mut before: impl FnMut(&Value) -> bool) -> u32 {
        let values = self.values();
        (match self.value_order().id_table() {
            None => values.partition_point(before),
            Some(ordered) => ordered.partition_point(|&id| before(&values[id as usize])),
        }) as u32
    }

    /// Looks up the id of `v` without interning: through the map while one
    /// is built, an offset for a dense int run, a binary search over the
    /// value order otherwise.
    pub fn id_of(&self, v: &Value) -> Option<u32> {
        if let Some(ids) = self.inner.ids.get() {
            return ids.get(v).copied();
        }
        if let (Some(first), Value::Int(i)) = (self.dense_first(), v) {
            let id = i128::from(*i) - i128::from(first);
            return (0..self.len() as i128).contains(&id).then_some(id as u32);
        }
        let rank = self.partition_point(|x| x < v);
        let id = (rank < self.len() as u32).then(|| self.value_order().id_at(rank))?;
        (self.value(id) == v).then_some(id)
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

    /// Builds a dictionary from values in id order (values must be
    /// distinct). Strictly ascending values are distinct by that pass;
    /// any others are sorted, equal neighbours in the sorted order are
    /// refused, and the order is kept for the reads that need it.
    pub fn from_values(values: Vec<Value>) -> Result<Self, String> {
        let order = ValueOrder::build(&values);
        if let Some(ordered) = order.id_table() {
            let value = |w: &[u32]| (&values[w[0] as usize], &values[w[1] as usize]);
            if ordered.windows(2).any(|w| value(w).0 == value(w).1) {
                return Err("duplicate value in dictionary".into());
            }
        }
        Ok(Dictionary::of(values, Some(order)))
    }

    /// Keeps only the ids for which `keep(id)` is true, producing the
    /// compacted dictionary and the old-id → new-id mapping (`None` for
    /// dropped ids). Used after bitmap filtering drops values that no longer
    /// occur. Keeping every id returns this handle itself; the values kept
    /// from an identity order still ascend.
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
        let order = self.inner.order.get().filter(|o| o.is_identity());
        let order = order.map(|_| ValueOrder::identity(kept as usize));
        (Dictionary::of(values, order), mapping)
    }

    /// Merges `other` into a copy of `self`, returning the merged dictionary
    /// and the mapping from `other`'s ids to merged ids. Used by UNION TABLES.
    /// Merging a dictionary with itself is the identity and hashes nothing;
    /// the merged dictionary keeps no map.
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
        merged.shed_map();
        (merged, mapping)
    }

    /// Maps every id in this dictionary to the id of the same value in
    /// `target` (`None` when `target` lacks the value). This is the hash
    /// join's dictionary-reconciliation step: computed once per join-key
    /// column pair, after which probing works entirely in the build side's
    /// id space with no value comparisons on the per-row path.
    ///
    /// Two handles of one dictionary map by identity, two dense int runs by
    /// an offset, both without reading a value. Anything else is one merge
    /// of the two value orders (a two-pointer walk when both are the
    /// identity), which reads every value of both sides.
    pub fn remap_to(&self, target: &Dictionary) -> Vec<Option<u32>> {
        let timed = |span, items: usize| {
            let mut timer = span::enter(span);
            timer.items(|| items as u64);
            timer
        };
        if self.same_as(target) {
            let _timer = timed(Span::RemapSame, self.len());
            return (0..self.len() as u32).map(Some).collect();
        }
        if let (Some(a), Some(b)) = (self.dense_first(), target.dense_first()) {
            let _timer = timed(Span::RemapOffset, self.len());
            // Id `i` here holds `a + i`, which `target` holds at `a + i − b`.
            let shift = i128::from(a) - i128::from(b);
            let (n, m) = (self.len() as i128, target.len() as i128);
            let (lo, hi) = ((-shift).clamp(0, n), (m - shift).clamp(0, n));
            let mut out = vec![None; self.len()];
            for (i, slot) in (lo..hi).zip(&mut out[lo as usize..hi as usize]) {
                *slot = Some((i + shift) as u32);
            }
            return out;
        }
        let (from, to) = (self.value_order(), target.value_order());
        let path = if from.is_identity() && to.is_identity() {
            Span::RemapWalk
        } else {
            Span::RemapMerge
        };
        let _timer = timed(path, self.len() + target.len());
        let (a, b) = (self.values(), target.values());
        let mut out = vec![None; a.len()];
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (from.id_at(i as u32), to.id_at(j as u32));
            match a[x as usize].cmp(&b[y as usize]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out[x as usize] = Some(y);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Approximate heap footprint in bytes: the values, plus the value
    /// order's vectors and the value → id map where they were built.
    pub fn size_bytes(&self) -> usize {
        let value_bytes: usize = self
            .values()
            .iter()
            .map(|v| match v {
                Value::Str(s) => std::mem::size_of::<Value>() + s.len(),
                _ => std::mem::size_of::<Value>(),
            })
            .sum();
        let order_bytes = self.inner.order.get().map_or(0, ValueOrder::size_bytes);
        // A map bucket: a key (sharing a string's bytes), an id, a control byte.
        let bucket = std::mem::size_of::<(Value, u32)>() + 1;
        let map_bytes = self.inner.ids.get().map_or(0, |m| m.capacity() * bucket);
        value_bytes + order_bytes + map_bytes
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

    /// The heap bytes of `values` alone, as [`Dictionary::size_bytes`]
    /// counts them.
    fn value_bytes(values: &[Value]) -> usize {
        let str_bytes: usize = values
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.len(),
                _ => 0,
            })
            .sum();
        std::mem::size_of_val(values) + str_bytes
    }

    #[test]
    fn ascending_values_are_an_identity_order_with_no_vectors_and_no_map() {
        let values: Vec<Value> = (0..100).map(|i| Value::int(3 * i - 50)).collect();
        let d = Dictionary::from_values(values.clone()).unwrap();
        assert!(d.value_order().is_identity());
        assert_eq!(d.value_order().rank_table(), None);
        assert_eq!(d.id_of(&Value::int(-50)), Some(0));
        assert_eq!(d.id_of(&Value::int(-49)), None);
        assert_eq!(d.size_bytes(), value_bytes(&values));
        // Strictly: equal neighbours are a duplicate, not an ascent.
        let twice = vec![Value::int(1), Value::int(2), Value::int(2), Value::int(3)];
        assert!(Dictionary::from_values(twice).is_err());
        // A sorted order is counted once it is built: 8 bytes a value.
        let s = Dictionary::from_values(vec![Value::str("b"), Value::str("a")]).unwrap();
        assert_eq!(s.size_bytes(), value_bytes(s.values()) + 2 * 8);
    }

    #[test]
    fn a_dense_int_run_interns_without_a_map_until_a_value_breaks_it() {
        let mut d = Dictionary::new();
        for i in (-5..1000).chain((-5..1000).rev()) {
            assert_eq!(d.intern(Value::int(i)), (i + 5) as u32);
        }
        assert!(d.value_order().is_identity());
        assert_eq!(d.size_bytes(), value_bytes(d.values()));
        assert_eq!(d.id_of(&Value::int(999)), Some(1004));
        assert_eq!(d.id_of(&Value::int(1000)), None);
        // A gap breaks the run: the map is built and counted.
        assert_eq!(d.intern(Value::int(5000)), 1005);
        assert!(d.size_bytes() > value_bytes(d.values()));
        assert_eq!(d.id_of(&Value::int(5000)), Some(1005));
        assert_eq!(d.id_of(&Value::int(7)), Some(12));
        // A finished dictionary sheds it.
        d.shed_map();
        assert_eq!(d.size_bytes(), value_bytes(d.values()));
        assert_eq!(d.id_of(&Value::int(5000)), Some(1005));
        assert_eq!(d.id_of(&Value::int(4999)), None);
    }

    #[test]
    fn remap_offsets_two_dense_runs_by_their_starts() {
        let run = |from: i64, to: i64| {
            Dictionary::from_values((from..to).map(Value::int).collect()).unwrap()
        };
        let (a, b) = (run(-3, 4), run(0, 10));
        assert_eq!(
            a.remap_to(&b),
            vec![None, None, None, Some(0), Some(1), Some(2), Some(3)]
        );
        assert_eq!(
            b.remap_to(&a)[..5],
            [Some(3), Some(4), Some(5), Some(6), None]
        );
        assert_eq!(
            run(i64::MAX - 1, i64::MAX).remap_to(&run(i64::MIN, i64::MIN + 2)),
            vec![None]
        );
        // An identity order that is not dense walks; a shuffled one merges.
        let sparse =
            Dictionary::from_values(vec![Value::Null, Value::int(2), Value::int(9)]).unwrap();
        assert_eq!(sparse.remap_to(&b), vec![None, Some(2), Some(9)]);
        let shuffled = Dictionary::from_values(vec![Value::int(9), Value::int(-3)]).unwrap();
        assert_eq!(shuffled.remap_to(&a), vec![None, Some(0)]);
        assert_eq!(a.remap_to(&shuffled)[..2], [Some(1), None]);
    }
}
