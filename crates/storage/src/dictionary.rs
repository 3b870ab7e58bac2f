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
//! A dense run of ints — the ints `first..first + len` in id order, what a
//! key column loaded in key order interns — is held as `(first, len)`
//! alone: its length, lookups, value order, remaps by offset and its saved
//! form read no value, and every read of a value makes it from the bounds
//! ([`Dictionary::value`]), so a run is never spelled out and the memory a
//! dictionary holds does not depend on which reads ran.

use crate::span::{self, Span};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The lazily built *value-ordered view* of a [`Dictionary`]: ids are
/// assigned in first-appearance order, so id order says nothing about value
/// order in general — this view is the permutation that makes range
/// reasoning over ids possible: the ids sorted ascending by their values
/// ([`ValueOrder::id_table`], `ordered[rank] = id`) and its inverse
/// ([`ValueOrder::rank_table`], `ranks[id] = rank`). Zone maps store
/// extreme *ids* (stable under dictionary growth) and resolve them to ranks
/// through this view at scan time.
///
/// When the values already ascend in id order — a key column loaded in key
/// order — the order is the identity and holds no vectors: an id is its own
/// rank, and both tables are `None`. A loop over ids asks for a table once
/// and runs one of two loops, so the identity costs no per-id branch.
#[derive(Debug)]
pub struct ValueOrder {
    /// `(ordered, ranks)`; `None` for the identity.
    sorted: Option<(Vec<u32>, Vec<u32>)>,
}

impl ValueOrder {
    /// One pass finds ascending values (the identity); anything else sorts.
    fn build(values: &[Value]) -> ValueOrder {
        let mut timer = span::enter(Span::OrderIdentity);
        timer.items(|| values.len() as u64);
        if values.windows(2).all(|w| w[0] < w[1]) {
            return ValueOrder::IDENTITY;
        }
        timer.relabel(Span::OrderSorted);
        let ordered = sorted_ids(values);
        let mut ranks = vec![0u32; values.len()];
        for (rank, &id) in ordered.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        ValueOrder {
            sorted: Some((ordered, ranks)),
        }
    }

    const IDENTITY: ValueOrder = ValueOrder { sorted: None };

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

    /// The id at `rank`.
    #[inline]
    pub fn id_at(&self, rank: u32) -> u32 {
        self.id_table()
            .map_or(rank, |ordered| ordered[rank as usize])
    }

    /// Heap bytes of the sorted order's vectors.
    fn size_bytes(&self) -> usize {
        let words = self.sorted.as_ref().map_or(0, |(o, r)| o.len() + r.len());
        words * std::mem::size_of::<u32>()
    }
}

/// Ids sorted ascending by value. Distinct ints spanning exactly as many
/// values as there are — a permutation of a dense run — are placed by
/// value, each id at `v − min`, in O(n); a repeat found while placing
/// falls back to the sort. Other ints and `Null` (which sorts first) are
/// sorted as keys beside their ids, so a comparison reads no value; any
/// other values are compared through their ids.
fn sorted_ids(values: &[Value]) -> Vec<u32> {
    if let Some(ordered) = placed_ids(values) {
        return ordered;
    }
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

/// [`sorted_ids`]' direct-address path: each id placed at its int's offset
/// from the least, when every value is an int, `max − min + 1` is the
/// count and no two land on one place. One min/max pass, one placing pass.
fn placed_ids(values: &[Value]) -> Option<Vec<u32>> {
    let int = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        _ => None,
    };
    let mut min = int(values.first()?)?;
    let mut max = min;
    for v in values {
        let i = int(v)?;
        min = min.min(i);
        max = max.max(i);
    }
    if i128::from(max) - i128::from(min) + 1 != values.len() as i128 {
        return None;
    }
    let mut ordered = vec![u32::MAX; values.len()];
    for (id, v) in (0u32..).zip(values) {
        let at = &mut ordered[(i128::from(int(v)?) - i128::from(min)) as usize];
        if *at != u32::MAX {
            return None;
        }
        *at = id;
    }
    Some(ordered)
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

/// The values of a dictionary, in id order.
#[derive(Clone, Debug)]
enum Values {
    /// Any values, each held.
    List(Vec<Value>),
    /// The ints `first..first + len`, held by their bounds.
    Dense { first: i64, len: usize },
}

impl Default for Values {
    fn default() -> Values {
        Values::List(Vec::new())
    }
}

#[derive(Debug, Default)]
struct Interned {
    values: Values,
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

    /// Wraps `values`, holding them as a dense run when they are one: the
    /// ints `first..first + len`, which `order` (when known) says ascend.
    fn of(values: Vec<Value>, order: Option<ValueOrder>) -> Dictionary {
        let ascends = order.as_ref().is_some_and(ValueOrder::is_identity);
        let values = match (values.first(), values.last()) {
            (Some(Value::Int(first)), Some(Value::Int(last)))
                if ascends
                    && i128::from(*last) - i128::from(*first) + 1 == values.len() as i128 =>
            {
                Values::Dense {
                    first: *first,
                    len: values.len(),
                }
            }
            _ => Values::List(values),
        };
        Dictionary {
            inner: Arc::new(Interned {
                values,
                ids: OnceLock::new(),
                order: order.map_or_else(OnceLock::new, OnceLock::from),
            }),
        }
    }

    /// The dictionary of the ints `first..first + len`, in id order, held
    /// by those bounds: nothing is allocated per value.
    ///
    /// # Panics
    /// Panics when the last value would overflow `i64` or `len` is 0 (the
    /// empty dictionary is [`Dictionary::new`]).
    pub fn dense(first: i64, len: usize) -> Dictionary {
        assert!(len > 0, "a dense run of no values");
        assert!(
            first.checked_add(len as i64 - 1).is_some(),
            "a dense run from {first} of {len} values overflows i64"
        );
        Dictionary {
            inner: Arc::new(Interned {
                values: Values::Dense { first, len },
                ids: OnceLock::new(),
                order: OnceLock::from(ValueOrder::IDENTITY),
            }),
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        match &self.inner.values {
            Values::List(v) => v.len(),
            Values::Dense { len, .. } => *len,
        }
    }

    /// Returns `true` when no values are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when both handles hold the same interned values — one is a
    /// clone of the other and neither has grown since — so an id means the
    /// same value in both. Equal values in two separately built
    /// dictionaries are not the same.
    pub fn same_as(&self, other: &Dictionary) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Interns `v`, returning its id (existing or freshly assigned). An int
    /// that extends a dense run (the next int, or the first value) keeps
    /// the run — no value is held, no map built; any other new value
    /// spells the run out and builds the map on first use.
    pub fn intern(&mut self, v: Value) -> u32 {
        if let Some(id) = self.id_of(&v) {
            return id;
        }
        let id = self.len() as u32;
        let extends = match (&self.inner.values, &v) {
            (Values::List(values), Value::Int(_)) => values.is_empty(),
            (Values::Dense { first, len, .. }, Value::Int(i)) => {
                first.checked_add(*len as i64) == Some(*i)
            }
            _ => false,
        };
        let inner = Arc::make_mut(&mut self.inner);
        if extends {
            match (&mut inner.values, &v) {
                (Values::Dense { len, .. }, _) => *len += 1,
                (_, &Value::Int(first)) => inner.values = Values::Dense { first, len: 1 },
                _ => unreachable!("only an int extends a run"),
            }
            inner.order = OnceLock::from(ValueOrder::IDENTITY);
            return id;
        }
        if let Values::Dense { first, len } = inner.values {
            inner.values = Values::List((0..len as i64).map(|i| Value::Int(first + i)).collect());
        }
        let Values::List(values) = &mut inner.values else {
            unreachable!("spelled out above")
        };
        if inner.ids.get().is_none() {
            let mut timer = span::enter(Span::InternMap);
            timer.items(|| values.len() as u64);
            let ids: HashMap<Value, u32> = values.iter().cloned().zip(0..).collect();
            inner.ids = OnceLock::from(ids);
        }
        let ids = inner.ids.get_mut().expect("built above");
        ids.insert(v.clone(), id);
        inner.order = OnceLock::new();
        values.push(v);
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
    /// O(v log v) to build; O(1) after, and for a dense run). Every clone
    /// of the handle shares the one view.
    pub fn value_order(&self) -> &ValueOrder {
        self.inner.order.get_or_init(|| match &self.inner.values {
            Values::List(values) => ValueOrder::build(values),
            Values::Dense { .. } => ValueOrder::IDENTITY,
        })
    }

    /// The first value, when the values are the ints `first..first+len` in
    /// id order: then `v`'s id is `v − first`.
    pub fn dense_first(&self) -> Option<i64> {
        match &self.inner.values {
            Values::Dense { first, .. } => Some(*first),
            Values::List(_) => None,
        }
    }

    /// `true` when the dictionary is a dense run of ints, held by its
    /// bounds ([`Dictionary::dense`]).
    pub fn is_dense(&self) -> bool {
        self.dense_first().is_some()
    }

    /// The rank of the first value for which `before` is false, all values
    /// for which it holds ranking first (a binary search over the value
    /// order, as [`slice::partition_point`]).
    pub fn partition_point(&self, mut before: impl FnMut(&Value) -> bool) -> u32 {
        let order = self.value_order();
        let (mut lo, mut hi) = (0, self.len() as u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(&self.value(order.id_at(mid))) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Looks up the id of `v` without interning: through the map while one
    /// is built, an offset for a dense int run, a binary search over the
    /// value order otherwise.
    pub fn id_of(&self, v: &Value) -> Option<u32> {
        if let Some(ids) = self.inner.ids.get() {
            return ids.get(v).copied();
        }
        if let Some(first) = self.dense_first() {
            let Value::Int(i) = v else { return None };
            let id = i128::from(*i) - i128::from(first);
            return (0..self.len() as i128).contains(&id).then_some(id as u32);
        }
        let rank = self.partition_point(|x| x < v);
        let id = (rank < self.len() as u32).then(|| self.value_order().id_at(rank))?;
        (*self.value(id) == *v).then_some(id)
    }

    /// The value for `id`: borrowed where it is held, made from the bounds
    /// of a dense run, which is never spelled out.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn value(&self, id: u32) -> Cow<'_, Value> {
        match &self.inner.values {
            Values::Dense { first, len } => {
                assert!((id as usize) < *len, "id {id} past a dense run of {len}");
                Cow::Owned(Value::Int(first + i64::from(id)))
            }
            Values::List(values) => Cow::Borrowed(&values[id as usize]),
        }
    }

    /// The values in id order, each as [`Dictionary::value`] reads it.
    pub fn iter(&self) -> impl Iterator<Item = Cow<'_, Value>> {
        (0..self.len() as u32).map(|id| self.value(id))
    }

    /// Builds a dictionary from values in id order (values must be
    /// distinct). Strictly ascending values are distinct by that pass —
    /// a dense run of ints among them is held by its bounds; any others
    /// are sorted, equal neighbours in the sorted order are refused, and
    /// the order is kept for the reads that need it.
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
    /// from an identity order still ascend, and those kept from a dense run
    /// in one block are one, read by bounds alone.
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
        if let Some(first) = self.dense_first() {
            let lo = mapping.iter().position(Option::is_some);
            let hi = mapping.iter().rposition(Option::is_some);
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if hi - lo + 1 == kept as usize {
                    return (Dictionary::dense(first + lo as i64, kept as usize), mapping);
                }
            }
        }
        let values = self
            .iter()
            .zip(&mapping)
            .filter(|(_, m)| m.is_some())
            .map(|(v, _)| v.into_owned())
            .collect();
        let ascends = self.inner.order.get().is_some_and(ValueOrder::is_identity);
        let order = ascends.then_some(ValueOrder::IDENTITY);
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
        if let (Some(a), Some(b)) = (self.dense_first(), other.dense_first()) {
            // Two runs that overlap or abut, the other not starting first:
            // one run, the other's ids shifted, no value read.
            let shift = i128::from(b) - i128::from(a);
            let end = (shift + other.len() as i128).max(self.len() as i128);
            if (0..=self.len() as i128).contains(&shift) && end <= i128::from(u32::MAX) {
                let mapping = (0..other.len() as u32).map(|i| i + shift as u32).collect();
                return (Dictionary::dense(a, end as usize), mapping);
            }
        }
        let mut merged = self.clone();
        let mapping = other
            .iter()
            .map(|v| merged.intern(v.into_owned()))
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
    /// identity), which reads every value of both sides — a dense side's
    /// made one at a time, never spelled out.
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
        let mut out = vec![None; self.len()];
        let (mut i, mut j) = (0, 0);
        while i < self.len() && j < target.len() {
            let (x, y) = (from.id_at(i as u32), to.id_at(j as u32));
            match self.value(x).cmp(&target.value(y)) {
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

    /// Approximate heap footprint in bytes: the held values (none for a
    /// dense run), plus the value order's vectors and the value → id map
    /// where they were built.
    pub fn size_bytes(&self) -> usize {
        let held = match &self.inner.values {
            Values::List(values) => values.as_slice(),
            Values::Dense { .. } => &[],
        };
        let value_bytes: usize = held
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
        if self.same_as(other) {
            return true;
        }
        match (self.dense_first(), other.dense_first()) {
            (Some(a), Some(b)) => a == b && self.len() == other.len(),
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}
impl Eq for Dictionary {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values in id order.
    fn values_of(d: &Dictionary) -> Vec<Value> {
        d.iter().map(Cow::into_owned).collect()
    }

    /// The ids in value order, read through [`ValueOrder::id_at`].
    fn ids_by_value(d: &Dictionary) -> Vec<u32> {
        (0..d.len() as u32)
            .map(|r| d.value_order().id_at(r))
            .collect()
    }

    /// Each id's rank, read through [`ValueOrder::rank_table`].
    fn ranks_of(d: &Dictionary) -> Vec<u32> {
        let table = d.value_order().rank_table();
        (0..d.len() as u32)
            .map(|id| table.map_or(id, |r| r[id as usize]))
            .collect()
    }

    #[test]
    fn intern_assigns_dense_ids() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern(Value::str("a")), 0);
        assert_eq!(d.intern(Value::str("b")), 1);
        assert_eq!(d.intern(Value::str("a")), 0);
        assert_eq!(d.len(), 2);
        assert_eq!(*d.value(1), Value::str("b"));
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
        assert_eq!(*c.value(1), Value::int(2));
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
        assert_eq!(ids_by_value(&d), [1, 2, 0]); // 3 < 7 < 9
        assert_eq!(ranks_of(&d), [2, 0, 1]);
    }

    #[test]
    fn value_order_invalidated_on_growth() {
        let mut d = Dictionary::new();
        d.intern(Value::int(5));
        assert_eq!(ids_by_value(&d), [0]);
        d.intern(Value::int(1)); // sorts before 5
        assert_eq!(ids_by_value(&d), [1, 0]);
        // Re-interning an existing value keeps the cache valid.
        d.intern(Value::int(5));
        assert_eq!(ids_by_value(&d), [1, 0]);
        // Clones share the built view.
        let c = d.clone();
        assert_eq!(ranks_of(&c), ranks_of(&d));
    }

    #[test]
    fn null_sorts_first_in_value_order() {
        let mut d = Dictionary::new();
        d.intern(Value::int(2));
        d.intern(Value::Null);
        assert_eq!(ids_by_value(&d), [1, 0]);
    }

    #[test]
    fn interning_into_a_clone_leaves_the_original_alone() {
        let mut d = Dictionary::from_values(vec![Value::int(9), Value::int(3)]).unwrap();
        let order_before = ids_by_value(&d);
        let mut c = d.clone();
        assert!(c.same_as(&d));
        // Re-interning a present value neither copies nor invalidates.
        assert_eq!(c.intern(Value::int(3)), 1);
        assert!(c.same_as(&d));
        // A new value copies the clone first.
        assert_eq!(c.intern(Value::int(1)), 2);
        assert!(!c.same_as(&d));
        assert_eq!(values_of(&d), [Value::int(9), Value::int(3)]);
        assert_eq!(d.id_of(&Value::int(1)), None);
        assert_eq!(ids_by_value(&d), order_before);
        assert_eq!(ids_by_value(&c), [2, 1, 0]);
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
        assert_eq!(values_of(&dropped), [Value::str("y")]);

        let (merged, map) = d.merge(&d.clone());
        assert!(merged.same_as(&d));
        assert_eq!(map, vec![0, 1]);
        assert_eq!(d.remap_to(&d.clone()), vec![Some(0), Some(1)]);

        // Equal values, separate dictionaries: equal but not the same.
        let twin = Dictionary::from_values(values_of(&d)).unwrap();
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
        assert_eq!(s.size_bytes(), value_bytes(&values_of(&s)) + 2 * 8);
    }

    #[test]
    fn a_dense_int_run_interns_without_a_map_until_a_value_breaks_it() {
        let mut d = Dictionary::new();
        for i in (-5..1000).chain((-5..1000).rev()) {
            assert_eq!(d.intern(Value::int(i)), (i + 5) as u32);
        }
        assert!(d.value_order().is_identity());
        // The run is held by its bounds, and no read spells it out.
        assert_eq!(d.dense_first(), Some(-5));
        assert_eq!(d.size_bytes(), 0);
        // Reads of values — one at a time, a remap walking every value
        // against a listed dictionary, or all of them in id order — make
        // them from the bounds.
        assert_eq!(*d.value(7), Value::int(2));
        let listed = Dictionary::from_values(vec![Value::int(3), Value::int(-9)]).unwrap();
        assert_eq!(d.remap_to(&listed)[8], Some(0));
        assert_eq!(listed.remap_to(&d), [Some(8), None]);
        assert_eq!(d.size_bytes(), 0);
        assert_eq!(
            values_of(&d),
            (-5..1000).map(Value::int).collect::<Vec<_>>()
        );
        assert_eq!(d.size_bytes(), 0);
        assert_eq!(d.id_of(&Value::int(999)), Some(1004));
        assert_eq!(d.id_of(&Value::int(1000)), None);
        // A gap breaks the run: the map is built and counted.
        assert_eq!(d.intern(Value::int(5000)), 1005);
        assert!(d.size_bytes() > value_bytes(&values_of(&d)));
        assert_eq!(d.id_of(&Value::int(5000)), Some(1005));
        assert_eq!(d.id_of(&Value::int(7)), Some(12));
        // A finished dictionary sheds it.
        d.shed_map();
        assert_eq!(d.size_bytes(), value_bytes(&values_of(&d)));
        assert_eq!(d.id_of(&Value::int(5000)), Some(1005));
        assert_eq!(d.id_of(&Value::int(4999)), None);
    }

    #[test]
    fn a_permuted_dense_run_is_placed_by_value() {
        // A shuffle of -50..950: every id lands at its value's offset.
        let values: Vec<Value> = (0..1000).map(|i| Value::int(i * 337 % 1000 - 50)).collect();
        assert_eq!(placed_ids(&values).map(|o| o.len()), Some(1000));
        let d = Dictionary::from_values(values.clone()).unwrap();
        let ordered = ids_by_value(&d);
        assert!(ordered
            .windows(2)
            .all(|w| values[w[0] as usize] < values[w[1] as usize]));
        assert_eq!(d.id_of(&Value::int(-50)), Some(ordered[0]));
        // A repeat whose ints still span the count falls back to the sort,
        // which refuses it; a gap or a `Null` is sorted as before.
        let mut twice = values.clone();
        twice[7] = twice[8].clone();
        twice[9] = Value::int(1000);
        assert_eq!(placed_ids(&twice), None);
        assert!(Dictionary::from_values(twice).is_err());
        let gap = vec![Value::int(5), Value::int(1), Value::int(2)];
        assert_eq!(placed_ids(&gap), None);
        assert_eq!(sorted_ids(&gap), vec![1, 2, 0]);
        let null = vec![Value::int(1), Value::Null, Value::int(0)];
        assert_eq!(placed_ids(&null), None);
        assert_eq!(sorted_ids(&null), vec![1, 2, 0]);
    }

    #[test]
    fn a_dense_run_is_held_by_its_bounds_through_compact_and_merge() {
        let d = Dictionary::dense(10, 100);
        assert_eq!((d.len(), d.dense_first()), (100, Some(10)));
        assert_eq!(d.size_bytes(), 0);
        assert_eq!(d.partition_point(|v| v < &Value::int(42)), 32);
        assert_eq!(d.id_of(&Value::int(109)), Some(99));
        assert_eq!(d.id_of(&Value::str("10")), None);
        // Keeping one block stays dense; a hole lists what is kept.
        let (kept, _) = d.compact(|id| (20..30).contains(&id));
        assert_eq!((kept.dense_first(), kept.len()), (Some(30), 10));
        // Two runs that abut or overlap merge by an offset.
        let (merged, map) = d.merge(&Dictionary::dense(105, 20));
        assert_eq!((merged.dense_first(), merged.len()), (Some(10), 115));
        assert_eq!((map[0], map[19]), (95, 114));
        assert_eq!(d.size_bytes(), 0, "nothing was spelled out");
        let (holed, _) = d.compact(|id| id != 50);
        assert_eq!((holed.dense_first(), holed.len()), (None, 99));
        // A run that starts first, or leaves a gap, merges by value.
        let (gapped, _) = d.merge(&Dictionary::dense(200, 2));
        assert_eq!((gapped.dense_first(), gapped.len()), (None, 102));
        // A list of a dense run is held by its bounds, equal to the run.
        let listed = Dictionary::from_values((10..110).map(Value::int).collect()).unwrap();
        assert_eq!(listed.dense_first(), Some(10));
        assert_eq!(listed, d);
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
