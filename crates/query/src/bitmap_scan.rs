//! Data-level selection: evaluate a predicate *on the compressed
//! representation* — once per distinct dictionary value, never per row —
//! producing a row-selection [`Wah`] mask. Every read ([`Query`]'s count,
//! scan, group-by and join filters) and PARTITION TABLE build their masks
//! here.
//!
//! Evaluation is **range-major**. The predicate is compiled once against
//! the table — column names resolved, each comparison's satisfying value
//! set resolved to the ids an equality names (one binary search of the
//! dictionary's value order), to a contiguous *rank interval* for a range
//! ([`CmpOp::sat_rank_interval`]: two binary searches), or, for `Ne
//! <non-null>` only, to a per-value boolean table. Two same-column
//! rewrites merge leaves: a conjunction of two intervals fuses into one
//! (BETWEEN), and an `OR` tree of equalities of any shape folds into one
//! sorted id set (IN). The table is then walked in *row ranges* — the
//! boundaries common to every predicate column's segment directory, i.e.
//! segment by segment whenever the directories agree — and the whole tree
//! is evaluated bottom-up on one range before the next is touched. A
//! segment's payload is faulted at most once per query however many leaves
//! read it, and is held only while its range is evaluated.
//!
//! Each leaf decides a segment by the cheapest of four tiers:
//!
//! 1. **Zone.** A segment whose zone map's rank span holds no satisfying
//!    rank is a zero fill — one comparison for an interval, one binary
//!    search for an id set; neither stats nor payload touched.
//! 2. **Present ids, none satisfy.** The resident per-id stats show no
//!    satisfying value in the range: zero fill, payload untouched. An id
//!    set finds its ids among the segment's ascending present ids by
//!    galloping search, O(k·log(p/k)) for k ids in p; an interval or
//!    boolean table walks all p.
//! 3. **Present ids, all satisfy.** Every row of the range carries a
//!    satisfying value: one fill, payload untouched.
//! 4. **Mask build.** Only now is the payload read and the mask built on
//!    the segment's native encoding: a bitmap segment's from exactly the
//!    bitmaps of the satisfying positions tiers 2–3 found; a packed
//!    segment's by marking those positions and testing every row's code
//!    against them in one unpack pass, 63 rows per mask word; an RLE
//!    segment's run by run. An id-set leaf (an equality or
//!    a folded IN) of at most 64 ids over a bitmap segment that is not
//!    resident, while the cache has a budget, reads only those positions'
//!    bitmaps from disk — a few bytes of head table and each bitmap's
//!    words ([`SegSlot::try_bitmaps`]) — and leaves the segment paged
//!    out; the read counts as one cache miss. Every other survivor faults
//!    the whole payload in, once per range however many leaves use it.
//!
//! A child that comes out as a constant fill short-circuits its `AND` /
//! `OR`: the other side is not evaluated, so its payload is never faulted.
//!
//! Pruning never changes results: tiers 1–3 emit exactly the fill tier 4
//! would have built, so [`predicate_mask`] and [`predicate_mask_unpruned`]
//! (the same evaluator with tier 1 off) are bit-identical (locked by the
//! differential proptest `tests/proptest_scan_pruning.rs`).
//!
//! [`Query`]: crate::Query
//! [`SegSlot::try_bitmaps`]: cods_storage::SegSlot::try_bitmaps

use crate::pred::{CmpOp, CompiledPredicate, Predicate};
use cods_bitmap::{Wah, WahRef};
use cods_storage::{
    Dictionary, EncodedColumn, Present, SegmentEnc, StorageError, Table, Value, Zone,
};
use std::ops::Range;

/// The most bitmaps one segment's mask is built from by a k-way union
/// ([`WahRef::union_many`]), and the most ids an id-set leaf may name for
/// tier 4 to read just their bitmaps from a paged-out segment.
const UNION_MAX: usize = 64;

/// The satisfying value set of one comparison, in whichever form the
/// operator admits: a few named ids (an equality, or a folded same-column
/// `OR` of equalities), a rank interval in value order (the ranges), or a
/// per-id boolean table (`Ne <non-null>`).
pub(crate) enum SatSet<'a> {
    /// Exactly these ids satisfy.
    Ids {
        /// The satisfying ids, ascending and distinct.
        ids: Vec<u32>,
        /// Their value-order ranks, ascending (what the zone test searches).
        sorted_ranks: Vec<u32>,
        /// `ranks[id]` = value-order rank (the dictionary's cached
        /// [`cods_storage::ValueOrder`]), to place a zone's bounds; `None`
        /// for an identity order, where an id is its rank.
        ranks: Option<&'a [u32]>,
    },
    /// Ids whose value-order rank lies in `[lo, hi)` satisfy.
    Interval {
        /// `ranks[id]` = value-order rank (borrowed from the dictionary's
        /// cached [`cods_storage::ValueOrder`]).
        ranks: &'a [u32],
        /// Inclusive lower rank bound.
        lo: u32,
        /// Exclusive upper rank bound.
        hi: u32,
    },
    /// Ids in `[lo, hi)` satisfy: a rank interval over an identity value
    /// order, where an id is its rank.
    IdInterval {
        /// Inclusive lower id bound.
        lo: u32,
        /// Exclusive upper id bound.
        hi: u32,
    },
    /// Per-id satisfaction, indexed by value id.
    Bools(Vec<bool>),
}

/// Where a segment's satisfying present ids sit (tiers 2–3 find them, tier
/// 4 takes their bitmaps).
enum Hits {
    /// Their positions in the present ids, found by an id set's search.
    At(Vec<usize>),
    /// A walk's `count` satisfying ids, all inside positions
    /// `first..=last`; tier 4 re-tests that span.
    Span {
        count: usize,
        first: usize,
        last: usize,
    },
}

impl Hits {
    fn count(&self) -> usize {
        match self {
            Hits::At(at) => at.len(),
            Hits::Span { count, .. } => *count,
        }
    }
}

impl SatSet<'_> {
    /// The id set of the ids in `ids` (any order, repeats allowed) of
    /// `dict`.
    fn of_ids(mut ids: Vec<u32>, dict: &Dictionary) -> SatSet<'_> {
        ids.sort_unstable();
        ids.dedup();
        let ranks = dict.value_order().rank_table();
        let sorted_ranks = match ranks {
            None => ids.clone(),
            Some(ranks) => {
                let mut sorted: Vec<u32> = ids.iter().map(|&id| ranks[id as usize]).collect();
                sorted.sort_unstable();
                sorted
            }
        };
        SatSet::Ids {
            ids,
            sorted_ranks,
            ranks,
        }
    }

    /// The ids of `dict` whose value-order rank lies in `[lo, hi)`.
    fn interval(dict: &Dictionary, lo: u32, hi: u32) -> SatSet<'_> {
        match dict.value_order().rank_table() {
            None => SatSet::IdInterval { lo, hi },
            Some(ranks) => SatSet::Interval { ranks, lo, hi },
        }
    }

    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        match self {
            SatSet::Ids { ids, .. } => ids.binary_search(&id).is_ok(),
            SatSet::Interval { ranks, lo, hi } => {
                let r = ranks[id as usize];
                *lo <= r && r < *hi
            }
            SatSet::IdInterval { lo, hi } => *lo <= id && id < *hi,
            SatSet::Bools(sat) => sat[id as usize],
        }
    }

    /// Zone test: `false` only when *no* value inside the zone's
    /// `[min, max]` value interval can satisfy — sound because every
    /// present id's rank lies within the zone's span, and decided by one
    /// comparison for an interval, one binary search for an id set. The
    /// boolean fallback never zone-prunes.
    #[inline]
    pub(crate) fn zone_may_match(&self, zone: Zone) -> bool {
        let span = |ranks: Option<&[u32]>| match ranks {
            None => (zone.min_id, zone.max_id),
            Some(ranks) => (ranks[zone.min_id as usize], ranks[zone.max_id as usize]),
        };
        let meets =
            |(zone_lo, zone_hi): (u32, u32), lo: u32, hi: u32| zone_hi >= lo && zone_lo < hi;
        match self {
            SatSet::Ids {
                sorted_ranks,
                ranks,
                ..
            } => {
                let (zone_lo, zone_hi) = span(*ranks);
                let i = sorted_ranks.partition_point(|&r| r < zone_lo);
                i < sorted_ranks.len() && sorted_ranks[i] <= zone_hi
            }
            SatSet::Interval { ranks, lo, hi } => meets(span(Some(ranks)), *lo, *hi),
            SatSet::IdInterval { lo, hi } => meets(span(None), *lo, *hi),
            SatSet::Bools(_) => true,
        }
    }

    /// Rows of `col` carrying a satisfying value, from resident metadata
    /// alone: what tiers 1–2 read, no payload faulted.
    pub(crate) fn rows_in(&self, col: &EncodedColumn) -> u64 {
        col.segments()
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.zone_may_match(col.zone(i)))
            .map(|(_, slot)| self.hits(&slot.meta().present).0)
            .sum()
    }

    /// Reads one segment's resident stats (its ascending `present` ids and
    /// their `ones`): the rows carrying a satisfying id, and where those
    /// ids sit. An id set intersects with `present` by galloping search,
    /// O(k·log(p/k)) for k ids; the other forms walk every present id. A
    /// range answers an id set by two binary searches and an id interval
    /// by one intersection ([`SatSet::range_hits`]).
    fn hits(&self, present: &Present) -> (u64, Hits) {
        let (present, ones) = match present {
            Present::List { ids, ones } => (&ids[..], &ones[..]),
            Present::Range { .. } => {
                return self.range_hits(present.range().expect("a range"));
            }
        };
        if let SatSet::Ids { ids, .. } = self {
            let at = gallop_intersect(ids, present);
            return (at.iter().map(|&i| ones[i]).sum(), Hits::At(at));
        }
        let (mut rows, mut count) = (0u64, 0usize);
        let (mut first, mut last) = (0usize, 0usize);
        for (i, (&id, &ones)) in present.iter().zip(ones).enumerate() {
            if self.contains(id) {
                if count == 0 {
                    first = i;
                }
                last = i;
                count += 1;
                rows += ones;
            }
        }
        (rows, Hits::Span { count, first, last })
    }

    /// [`SatSet::hits`] over a range segment's ids `ids`, one row each: a
    /// position is its id's offset from `ids.start`, and its row.
    fn range_hits(&self, ids: Range<u32>) -> (u64, Hits) {
        let span = |first: usize, last: usize, count: usize| {
            (count as u64, Hits::Span { count, first, last })
        };
        match self {
            SatSet::Ids { ids: sat, .. } => {
                let lo = sat.partition_point(|&id| id < ids.start);
                let hi = sat.partition_point(|&id| id < ids.end);
                let at: Vec<usize> = sat[lo..hi]
                    .iter()
                    .map(|&id| (id - ids.start) as usize)
                    .collect();
                (at.len() as u64, Hits::At(at))
            }
            SatSet::IdInterval { lo, hi } => {
                let (a, b) = ((*lo).max(ids.start), (*hi).min(ids.end));
                if a >= b {
                    return span(0, 0, 0);
                }
                let at = |id: u32| (id - ids.start) as usize;
                span(at(a), at(b - 1), (b - a) as usize)
            }
            SatSet::Interval { .. } | SatSet::Bools(_) => {
                let (mut count, mut first, mut last) = (0usize, 0usize, 0usize);
                for (i, id) in ids.enumerate() {
                    if self.contains(id) {
                        if count == 0 {
                            first = i;
                        }
                        last = i;
                        count += 1;
                    }
                }
                span(first, last, count)
            }
        }
    }
}

/// Tier 4 on a range segment of `rows` rows from id `first`, reading no
/// payload: position `i` of `hits` is row `i`. An id set marks its rows;
/// a span whose every position satisfies (an id interval's) is one run;
/// any other span is tested row by row, 63 rows to a group.
fn append_range_mask(mask: &mut Wah, rows: u64, first: u32, hits: Hits, sat: &SatSet<'_>) {
    match hits {
        Hits::At(at) => {
            let mut next = 0u64;
            for i in at {
                mask.append_run(false, i as u64 - next);
                mask.append_run(true, 1);
                next = i as u64 + 1;
            }
            mask.append_run(false, rows - next);
        }
        Hits::Span {
            count,
            first: a,
            last: b,
        } => {
            mask.append_run(false, a as u64);
            if count == b - a + 1 {
                mask.append_run(true, count as u64);
            } else {
                let group_bits = cods_bitmap::word::GROUP_BITS as usize;
                let mut row = a;
                while row <= b {
                    let n = group_bits.min(b + 1 - row);
                    let bits = (0..n).fold(0u64, |acc, j| {
                        acc | u64::from(sat.contains(first + (row + j) as u32)) << j
                    });
                    mask.push_bits(bits, n as u64);
                    row += n;
                }
            }
            mask.append_run(false, rows - b as u64 - 1);
        }
    }
}

/// The positions in `present` of the ids of `ids` that it holds, ascending.
/// Both slices are ascending and distinct. Each id is found by an
/// exponential probe from just past the previous hit, then a binary search
/// of the bracket it found: O(k·log(p/k)) for k ids in p, never worse than
/// the O(k + p) merge.
fn gallop_intersect(ids: &[u32], present: &[u32]) -> Vec<usize> {
    let mut at = Vec::new();
    let mut base = 0usize;
    for &id in ids {
        let rest = &present[base..];
        if rest.is_empty() {
            break;
        }
        // Double `end` while `rest[end]` is still below `id`: then
        // `rest[end / 2] < id` (or `end` is 1) and the answer lies in
        // `end / 2 ..= end`.
        let mut end = 1;
        while end < rest.len() && rest[end] < id {
            end *= 2;
        }
        let begin = end / 2;
        let found = begin + rest[begin..(end + 1).min(rest.len())].partition_point(|&p| p < id);
        if found < rest.len() && rest[found] == id {
            at.push(base + found);
            base += found + 1;
        } else {
            base += found;
        }
    }
    at
}

/// Builds the selection mask of `pred` over `table` at data level (see the
/// module docs for the range-major walk and the four pruning tiers).
pub fn predicate_mask(table: &Table, pred: &Predicate) -> Result<Wah, StorageError> {
    eval_mask(table, pred, true)
}

/// [`predicate_mask`] with zone pruning disabled: every segment's
/// present-id stats are consulted even when its zone already rules it out.
/// Exists for the differential test harness — the two functions are
/// bit-identical by construction.
pub fn predicate_mask_unpruned(table: &Table, pred: &Predicate) -> Result<Wah, StorageError> {
    eval_mask(table, pred, false)
}

/// A predicate compiled against one table. Leaves name their column by
/// position in the evaluator's column list.
enum Node<'a> {
    Leaf { col: usize, sat: SatSet<'a> },
    And(Box<Node<'a>>, Box<Node<'a>>),
    Or(Box<Node<'a>>, Box<Node<'a>>),
    Not(Box<Node<'a>>),
    True,
}

/// The value of a subtree over one row range: a constant, or a mask as
/// long as the range. Constants are what `AND`/`OR` short-circuit on.
enum RangeMask {
    Fill(bool),
    Mask(Wah),
}

impl RangeMask {
    /// Normalizes an all-zero or all-one mask to its constant.
    fn of(mask: Wah) -> RangeMask {
        if !mask.any() {
            RangeMask::Fill(false)
        } else if mask.count_ones() == mask.len() {
            RangeMask::Fill(true)
        } else {
            RangeMask::Mask(mask)
        }
    }
}

/// One predicate column during the walk: the segments of the current row
/// range and the payloads faulted for it so far.
struct ColRange<'a> {
    col: &'a EncodedColumn,
    /// Directory entries covering the current range.
    segs: Range<usize>,
    /// Row at which `segs` ends.
    end: u64,
    /// Payloads of `segs` (parallel to it), faulted on first use by any
    /// leaf and dropped when the walk moves on — so a segment costs one
    /// fault per query and at most one range's payloads are held.
    held: Vec<Option<SegmentEnc>>,
}

impl ColRange<'_> {
    /// Extends the range by one directory entry.
    fn take_segment(&mut self) {
        self.end += self.col.segments()[self.segs.end].meta().rows;
        self.segs.end += 1;
        self.held.push(None);
    }

    /// Starts the next range at the current end.
    fn start_next(&mut self) {
        self.segs.start = self.segs.end;
        self.held.clear();
    }
}

fn eval_mask(table: &Table, pred: &Predicate, zones: bool) -> Result<Wah, StorageError> {
    let mut cols: Vec<ColRange<'_>> = Vec::new();
    let root = compile(table, pred, &mut cols)?;
    let mut mask = Wah::new();
    if let Node::Leaf { col, sat } = &root {
        // A lone comparison (or BETWEEN) has nothing to combine: append
        // each segment's mask straight into the output.
        let col = cols[*col].col;
        for seg in 0..col.segment_count() {
            append_segment_mask(&mut mask, col, seg, sat, zones, &mut None)?;
        }
        return Ok(mask);
    }
    let rows = table.rows();
    let mut start = 0u64;
    while start < rows {
        // The next boundary common to every predicate column: each takes
        // one segment, then laggards catch up until all ends agree (the
        // table's last row at the latest). Directories that agree — any
        // loaded or saved table — give one segment per column per range.
        let mut end = if cols.is_empty() { rows } else { start };
        for c in &mut cols {
            c.start_next();
            c.take_segment();
            end = end.max(c.end);
        }
        while let Some(c) = cols.iter_mut().find(|c| c.end < end) {
            c.take_segment();
            end = end.max(c.end);
        }
        match eval_range(&root, &mut cols, zones)? {
            RangeMask::Fill(bit) => mask.append_run(bit, end - start),
            RangeMask::Mask(m) => mask.append_bitmap(&m),
        }
        start = end;
    }
    Ok(mask)
}

/// Resolves `pred` against `table`: names to columns (registered in `cols`
/// on first mention), comparisons to satisfying sets.
fn compile<'a>(
    table: &'a Table,
    pred: &Predicate,
    cols: &mut Vec<ColRange<'a>>,
) -> Result<Node<'a>, StorageError> {
    let mut leaf = |col: &'a EncodedColumn, sat| {
        let known = cols.iter().position(|c| std::ptr::eq(c.col, col));
        let col = known.unwrap_or_else(|| {
            cols.push(ColRange {
                col,
                segs: 0..0,
                end: 0,
                held: Vec::new(),
            });
            cols.len() - 1
        });
        Node::Leaf { col, sat }
    };
    if let Some((col, sat)) = fused_leaf(table, pred)? {
        return Ok(leaf(col, sat));
    }
    Ok(match pred {
        Predicate::Compare {
            column,
            op,
            literal,
        } => {
            let col = table.column_by_name(column)?;
            leaf(col, sat_set(col, *op, literal))
        }
        Predicate::And(a, b) => Node::And(
            Box::new(compile(table, a, cols)?),
            Box::new(compile(table, b, cols)?),
        ),
        Predicate::Or(a, b) => Node::Or(
            Box::new(compile(table, a, cols)?),
            Box::new(compile(table, b, cols)?),
        ),
        Predicate::Not(p) => Node::Not(Box::new(compile(table, p, cols)?)),
        Predicate::True => Node::True,
    })
}

/// The one leaf an `AND` or `OR` of comparisons on one column comes down
/// to, when it does: a BETWEEN ([`fused_range`]) or an IN ([`folded_in`]).
pub(crate) fn fused_leaf<'a>(
    table: &'a Table,
    pred: &Predicate,
) -> Result<Option<(&'a EncodedColumn, SatSet<'a>)>, StorageError> {
    match pred {
        Predicate::And(a, b) => fused_range(table, a, b),
        Predicate::Or(..) => folded_in(table, pred),
        _ => Ok(None),
    }
}

/// BETWEEN fusion: a conjunction of two interval-admitting comparisons on
/// the *same column* (`k >= a AND k < b` and friends) is one rank interval
/// — the intersection — so it is one leaf instead of two half-range masks
/// that each touch most of the table. Each row holds exactly one value, so
/// satisfying both comparisons is exactly having its rank in both
/// intervals; the fused mask is bit-identical to the composed one. This is
/// what makes zone maps decisive for range scans: only the segments
/// overlapping `[a, b)` are ever visited.
fn fused_range<'a>(
    table: &'a Table,
    a: &Predicate,
    b: &Predicate,
) -> Result<Option<(&'a EncodedColumn, SatSet<'a>)>, StorageError> {
    let (
        Predicate::Compare {
            column: col_a,
            op: op_a,
            literal: lit_a,
        },
        Predicate::Compare {
            column: col_b,
            op: op_b,
            literal: lit_b,
        },
    ) = (a, b)
    else {
        return Ok(None);
    };
    if col_a != col_b {
        return Ok(None);
    }
    let col = table.column_by_name(col_a)?;
    let dict = col.dict();
    let (Some((lo_a, hi_a)), Some((lo_b, hi_b))) = (
        op_a.sat_rank_interval(dict, lit_a),
        op_b.sat_rank_interval(dict, lit_b),
    ) else {
        return Ok(None);
    };
    let sat = SatSet::interval(dict, lo_a.max(lo_b), hi_a.min(hi_b));
    Ok(Some((col, sat)))
}

/// IN folding, BETWEEN fusion's dual: an `OR` tree of any shape whose every
/// leaf is an equality on the *same column* (`k = a OR k = b OR …`) is one
/// id set — the union of the ids its literals name — so it is one leaf
/// instead of one full-length mask per literal ORed together. Each row
/// holds exactly one value, so satisfying some equality is exactly having
/// its id in the union; the folded mask is bit-identical to the composed
/// one. The tree is walked with an explicit stack, so a chain's length
/// costs no recursion.
fn folded_in<'a>(
    table: &'a Table,
    pred: &Predicate,
) -> Result<Option<(&'a EncodedColumn, SatSet<'a>)>, StorageError> {
    let mut column: Option<&String> = None;
    let mut literals = Vec::new();
    let mut stack = vec![pred];
    while let Some(p) = stack.pop() {
        match p {
            Predicate::Or(a, b) => stack.extend([b.as_ref(), a.as_ref()]),
            Predicate::Compare {
                column: c,
                op: CmpOp::Eq,
                literal,
            } if *column.get_or_insert(c) == c => literals.push(literal),
            _ => return Ok(None),
        }
    }
    let Some(column) = column else {
        return Ok(None);
    };
    let col = table.column_by_name(column)?;
    let dict = col.dict();
    let ids = literals
        .into_iter()
        .filter_map(|literal| dict.id_of(literal))
        .collect();
    Ok(Some((col, SatSet::of_ids(ids, dict))))
}

/// Resolves one comparison's satisfying set against a column's dictionary:
/// the named id for an equality, a rank interval when the operator admits
/// one, per-value booleans otherwise.
pub(crate) fn sat_set<'a>(col: &'a EncodedColumn, op: CmpOp, literal: &Value) -> SatSet<'a> {
    let dict = col.dict();
    if op == CmpOp::Eq {
        return SatSet::of_ids(dict.id_of(literal).into_iter().collect(), dict);
    }
    match op.sat_rank_interval(dict, literal) {
        Some((lo, hi)) => SatSet::interval(dict, lo, hi),
        None => {
            let probe = CompiledPredicate::Compare {
                column: 0,
                op,
                literal: literal.clone(),
            };
            SatSet::Bools(dict.iter().map(|v| probe.eval_value(&v)).collect())
        }
    }
}

/// Evaluates a subtree over the current row range, bottom-up. A constant
/// child that decides its `AND`/`OR` (zero for `AND`, one for `OR`) ends
/// the evaluation there: the other child is not visited, so no payload of
/// its columns is faulted for this range.
fn eval_range(
    node: &Node<'_>,
    cols: &mut [ColRange<'_>],
    zones: bool,
) -> Result<RangeMask, StorageError> {
    let (a, b, deciding, op): (_, _, _, fn(&Wah, &Wah) -> Wah) = match node {
        Node::True => return Ok(RangeMask::Fill(true)),
        Node::Leaf { col, sat } => {
            let c = &mut cols[*col];
            let column = c.col;
            let mut mask = Wah::new();
            for (seg, held) in c.segs.clone().zip(&mut c.held) {
                append_segment_mask(&mut mask, column, seg, sat, zones, held)?;
            }
            return Ok(RangeMask::of(mask));
        }
        Node::Not(p) => {
            return Ok(match eval_range(p, cols, zones)? {
                RangeMask::Fill(bit) => RangeMask::Fill(!bit),
                RangeMask::Mask(m) => RangeMask::Mask(m.not()),
            })
        }
        Node::And(a, b) => (a, b, false, Wah::and),
        Node::Or(a, b) => (a, b, true, Wah::or),
    };
    let left = match eval_range(a, cols, zones)? {
        RangeMask::Fill(bit) if bit == deciding => return Ok(RangeMask::Fill(bit)),
        RangeMask::Fill(_) => return eval_range(b, cols, zones),
        RangeMask::Mask(m) => m,
    };
    Ok(match eval_range(b, cols, zones)? {
        RangeMask::Fill(bit) if bit == deciding => RangeMask::Fill(bit),
        RangeMask::Fill(_) => RangeMask::Mask(left),
        RangeMask::Mask(right) => RangeMask::of(op(&left, &right)),
    })
}

/// Appends the selection mask of the satisfying value set over one segment
/// of `col` to `mask`, by the cheapest tier that decides it (module docs);
/// the mask build dispatches on the segment's own encoding — a mixed
/// directory's bitmap and RLE segments each take their native path, and
/// the resulting mask is byte-identical whatever the mix.
///
/// Tiers 1–3 run on the slot's *resident metadata* (zone, present ids,
/// cached ones): only a segment some but not all of whose rows satisfy is
/// read, into `held` unless it reads selectively — the payload this range
/// already holds, else faulted in.
fn append_segment_mask(
    mask: &mut Wah,
    col: &EncodedColumn,
    seg: usize,
    sat: &SatSet<'_>,
    zones: bool,
    held: &mut Option<SegmentEnc>,
) -> Result<(), StorageError> {
    let slot = &col.segments()[seg];
    let meta = slot.meta();
    let rows = meta.rows;
    if zones && !sat.zone_may_match(col.zone(seg)) {
        // Zone-pruned: neither stats nor payload touched.
        mask.append_run(false, rows);
        return Ok(());
    }
    // Present-id tiers, still metadata-only: stats show how many
    // satisfying values live in this row range, on how many rows, and at
    // which present-id positions.
    let (sat_rows, hits) = sat.hits(&meta.present);
    if hits.count() == 0 || sat_rows == rows {
        // No row of the range satisfies, or (each row carrying exactly one
        // present id) every row does: a fill, payload untouched.
        mask.append_run(hits.count() != 0, rows);
        return Ok(());
    }
    if let Some(ids) = meta.present.range() {
        // A range segment's mask follows from its ids: no payload read.
        append_range_mask(mask, rows, ids.start, hits, sat);
        return Ok(());
    }
    // Survivor. A leaf of a few ids over a paged-out bitmap segment reads
    // just their bitmaps from disk, leaving the slot paged out, when the
    // slot says that pays (a budgeted cache).
    if let (Hits::At(at), None, SatSet::Ids { ids, .. }) = (&hits, &held, sat) {
        if ids.len() <= UNION_MAX {
            if let Some(bitmaps) = slot.try_bitmaps(at)? {
                mask.append_bitmap(&WahRef::union_many(bitmaps.iter().map(Wah::view), rows));
                return Ok(());
            }
        }
    }
    // Otherwise fault the payload in (through the buffer cache), once per
    // range however many leaves read it, and build this range's mask on
    // its native encoding.
    let enc = match held {
        Some(enc) => enc.clone(),
        None => held.insert(slot.try_enc()?).clone(),
    };
    match &enc {
        SegmentEnc::Bitmap(seg) => {
            // The payload's bitmaps are in the order of the metadata's
            // present ids, so the positions found above index them.
            let satisfying: Vec<WahRef<'_>> = match hits {
                Hits::At(at) => at.into_iter().map(|i| seg.bitmap(i)).collect(),
                Hits::Span { first, last, .. } => (first..=last)
                    .filter(|&i| sat.contains(meta.present.id(i)))
                    .map(|i| seg.bitmap(i))
                    .collect(),
            };
            if satisfying.len() <= UNION_MAX {
                mask.append_bitmap(&WahRef::union_many(satisfying, rows));
            } else if sat_rows * 8 <= rows {
                // Many values but few rows (the cached ones say so up
                // front): merge the set positions — O(selected · log)
                // instead of paging a dense bit-vector over the whole
                // segment. This is the hot shape of a range scan over a
                // wide dictionary.
                let mut positions: Vec<u64> = Vec::with_capacity(sat_rows as usize);
                for bm in &satisfying {
                    positions.extend(bm.iter_ones());
                }
                positions.sort_unstable();
                mask.append_bitmap(&Wah::from_sorted_positions(positions, rows));
            } else {
                // Many satisfying values and dense selection: one pass
                // over the segment's set bits instead of a wide union.
                let mut bits = vec![false; rows as usize];
                for bm in satisfying {
                    for pos in bm.iter_ones() {
                        bits[pos as usize] = true;
                    }
                }
                for b in bits {
                    mask.push(b);
                }
            }
        }
        SegmentEnc::Rle(seg) => {
            for &(id, n) in seg.seq().runs() {
                mask.append_run(sat.contains(id), n);
            }
        }
        SegmentEnc::Packed(seg) => {
            // A code is a present-id position: mark the satisfying ones
            // tiers 2–3 found, then test every row's code in one pass.
            let mut hit = vec![false; meta.distinct_count()];
            match hits {
                Hits::At(at) => at.into_iter().for_each(|i| hit[i] = true),
                Hits::Span { first, last, .. } => {
                    for (i, h) in (first..=last).zip(&mut hit[first..=last]) {
                        *h = sat.contains(meta.present.id(i));
                    }
                }
            }
            seg.append_mask(&hit, mask);
        }
    }
    Ok(())
}

/// Data-level table filter: bitmap-filters every column by the predicate
/// mask, returning the selected rows as a new (compressed) table in each
/// column's own encoding. The mask stays in compressed form end to end
/// (per-segment splits inside
/// [`cods_storage::EncodedColumn::filter_bitmap`]).
pub fn filter_table(table: &Table, pred: &Predicate) -> Result<Table, StorageError> {
    let mask = predicate_mask(table, pred)?;
    let columns: Vec<std::sync::Arc<EncodedColumn>> = table
        .columns()
        .iter()
        .map(|c| Ok(std::sync::Arc::new(c.filter_bitmap(&mask)?)))
        .collect::<Result<_, StorageError>>()?;
    let schema = cods_storage::Schema::new(table.schema().columns().to_vec())?;
    Table::new(table.name(), schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Schema, Value, ValueType};

    fn table() -> Table {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::int(i % 10), Value::str(format!("s{}", i % 3))])
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    #[test]
    fn mask_counts_match_row_filtering() {
        let t = table();
        let pred = Predicate::lt("k", 3i64);
        let mask = predicate_mask(&t, &pred).unwrap();
        let naive = t
            .to_rows()
            .iter()
            .filter(|r| matches!(&r[0], Value::Int(i) if *i < 3))
            .count() as u64;
        assert_eq!(mask.count_ones(), naive);
        for (row, tuple) in t.to_rows().iter().enumerate() {
            let expect = matches!(&tuple[0], Value::Int(i) if *i < 3);
            assert_eq!(mask.get(row as u64), expect, "row {row}");
        }
    }

    #[test]
    fn combinators_compose() {
        let t = table();
        let a = predicate_mask(&t, &Predicate::lt("k", 3i64)).unwrap();
        let b = predicate_mask(&t, &Predicate::eq("v", "s0")).unwrap();
        let and =
            predicate_mask(&t, &Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0"))).unwrap();
        assert_eq!(and, a.and(&b));
        let not = predicate_mask(&t, &Predicate::lt("k", 3i64).not()).unwrap();
        assert_eq!(not, a.not());
    }

    #[test]
    fn many_satisfying_values_path() {
        // Predicate satisfied by > 64 distinct values exercises the id path.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1000).map(|i| vec![Value::int(i % 200)]).collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let mask = predicate_mask(&t, &Predicate::lt("k", 150i64)).unwrap();
        assert_eq!(mask.count_ones(), 750);
    }

    #[test]
    fn filter_table_returns_selected_rows() {
        let t = table();
        let filtered = filter_table(&t, &Predicate::eq("v", "s1")).unwrap();
        filtered.check_invariants().unwrap();
        assert_eq!(filtered.rows(), 33);
        for row in filtered.to_rows() {
            assert_eq!(row[1], Value::str("s1"));
        }
    }

    /// A unique key's segments are ranges, whose masks tier 4 builds from
    /// their bounds with no payload; recoded bitmap, the same key is the
    /// oracle. Over an identity order (ints) and a permuted one (names
    /// whose order is not the rows'), every leaf form agrees: one id, an
    /// id set, an id interval, a rank interval and a per-id table.
    #[test]
    fn range_segment_masks_match_their_bitmap_recode() {
        let schema = Schema::build(&[("k", ValueType::Int), ("n", ValueType::Str)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::int(i), Value::str(format!("n{}", (i * 7919) % 1000))])
            .collect();
        let t = Table::from_rows_with_segment_rows("t", schema, &rows, 64).unwrap();
        for c in t.columns() {
            assert!(c.segments().iter().all(|s| s.meta().is_range()));
        }
        let key = t.column_by_name("k").unwrap().dict().clone();
        assert!(key.is_dense());
        assert_eq!(key.size_bytes(), 0);
        let oracle = t
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Bitmap))
            .unwrap();
        let ne = |column: &str, literal: Value| Predicate::Compare {
            column: column.into(),
            op: crate::pred::CmpOp::Ne,
            literal,
        };
        let preds = [
            Predicate::eq("k", 517i64),
            Predicate::eq("k", 3i64)
                .or(Predicate::eq("k", 700i64))
                .or(Predicate::eq("k", 64i64)),
            Predicate::eq("k", 5i64)
                .or(Predicate::eq("k", 6i64))
                .or(Predicate::eq("k", 60i64)),
            Predicate::ge("k", 100i64).and(Predicate::lt("k", 130i64)),
            Predicate::lt("k", 70i64),
            ne("k", Value::int(5)),
            Predicate::lt("n", "n3"),
            Predicate::eq("n", "n77"),
            ne("n", Value::str("n500")),
            Predicate::ge("n", "n95").and(Predicate::lt("n", "n96")),
        ];
        for pred in preds {
            let got = predicate_mask(&t, &pred).unwrap();
            assert_eq!(got, predicate_mask(&oracle, &pred).unwrap(), "{pred:?}");
            assert_eq!(got, predicate_mask_unpruned(&t, &pred).unwrap(), "{pred:?}");
        }
        // The `!=` leaf reads every key value, each made from the run's
        // bounds: the dictionary still holds none.
        let ne5 = predicate_mask(&t, &ne("k", Value::int(5))).unwrap();
        assert_eq!(ne5.count_ones(), 999);
        assert!(!ne5.get(5));
        assert_eq!(key.size_bytes(), 0, "a query spelled the dense key out");
    }

    #[test]
    fn rle_masks_match_bitmap_masks() {
        let t = table();
        let rle = t
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
            .unwrap();
        for pred in [
            Predicate::lt("k", 3i64),
            Predicate::eq("v", "s0"),
            Predicate::lt("k", 3i64).and(Predicate::eq("v", "s0")),
            Predicate::eq("k", 99i64), // nothing satisfies
            Predicate::True,
        ] {
            assert_eq!(
                predicate_mask(&t, &pred).unwrap(),
                predicate_mask(&rle, &pred).unwrap(),
                "masks diverge for {pred:?}"
            );
        }
    }

    #[test]
    fn rle_filter_preserves_encoding() {
        let t = table()
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
            .unwrap();
        let filtered = filter_table(&t, &Predicate::eq("v", "s1")).unwrap();
        filtered.check_invariants().unwrap();
        assert_eq!(filtered.rows(), 33);
        assert!(filtered
            .columns()
            .iter()
            .all(|c| c.is_uniform(cods_storage::Encoding::Rle)));
    }

    #[test]
    fn pruned_and_unpruned_masks_are_bit_identical() {
        // Clustered + uniform, bitmap + RLE, every operator, literals in
        // and out of range, NULL literals, and boolean combinations.
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..2_000)
            .map(|i| {
                vec![
                    Value::int(i / 50), // clustered
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::int((i * 37) % 97) // scattered, with NULLs
                    },
                ]
            })
            .collect();
        let bitmap =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 128).unwrap();
        let rle = bitmap
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
            .unwrap();
        let preds = [
            Predicate::lt("k", 7i64),
            Predicate::ge("k", 33i64),
            Predicate::eq("k", 17i64),
            Predicate::eq("k", 999i64), // matches nothing
            Predicate::lt("k", -5i64),  // below every value
            Predicate::ge("k", 0i64),   // matches everything
            Predicate::lt("v", 40i64),
            Predicate::eq("v", 0i64).not(),
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Ne,
                literal: Value::int(3),
            },
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Eq,
                literal: Value::Null,
            },
            Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Le,
                literal: Value::Null,
            },
            Predicate::ge("k", 10i64).and(Predicate::lt("k", 12i64)),
            Predicate::lt("k", 3i64).or(Predicate::ge("v", 90i64)),
            Predicate::True,
        ];
        for t in [&bitmap, &rle] {
            for pred in &preds {
                let pruned = predicate_mask(t, pred).unwrap();
                let unpruned = predicate_mask_unpruned(t, pred).unwrap();
                assert_eq!(pruned, unpruned, "masks diverge for {pred:?}");
                // Cross-check against row-level evaluation.
                let compiled = pred.compile(t.schema()).unwrap();
                for (row, tuple) in t.to_rows().iter().enumerate() {
                    assert_eq!(
                        pruned.get(row as u64),
                        compiled.eval(tuple),
                        "row {row} for {pred:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn between_fusion_is_bit_identical_to_composed_masks() {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..3_000)
            .map(|i| vec![Value::int(i / 30), Value::int((i * 41) % 50)])
            .collect();
        let bitmap =
            cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 256).unwrap();
        let rle = bitmap
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
            .unwrap();
        for t in [&bitmap, &rle] {
            for (lo, hi) in [(10i64, 20i64), (0, 1), (95, 200), (-5, 3), (40, 30)] {
                let between = Predicate::ge("k", lo).and(Predicate::lt("k", hi));
                let fused = predicate_mask(t, &between).unwrap();
                let composed = predicate_mask(t, &Predicate::ge("k", lo))
                    .unwrap()
                    .and(&predicate_mask(t, &Predicate::lt("k", hi)).unwrap());
                assert_eq!(fused, composed, "between [{lo}, {hi})");
                assert_eq!(fused, predicate_mask_unpruned(t, &between).unwrap());
            }
            // Mixed-column And and Ne sides fall back to composition.
            let mixed = Predicate::ge("k", 5i64).and(Predicate::lt("v", 25i64));
            let m = predicate_mask(t, &mixed).unwrap();
            assert_eq!(m, predicate_mask_unpruned(t, &mixed).unwrap());
            let ne_side = Predicate::ge("k", 5i64).and(Predicate::Compare {
                column: "k".into(),
                op: CmpOp::Ne,
                literal: Value::int(7),
            });
            let m = predicate_mask(t, &ne_side).unwrap();
            assert_eq!(m, predicate_mask_unpruned(t, &ne_side).unwrap());
            let compiled = ne_side.compile(t.schema()).unwrap();
            for (row, tuple) in t.to_rows().iter().enumerate() {
                assert_eq!(m.get(row as u64), compiled.eval(tuple), "row {row}");
            }
        }
    }

    /// The merge [`gallop_intersect`] must agree with.
    fn merged_hits(ids: &[u32], present: &[u32]) -> Vec<usize> {
        let (mut i, mut at) = (0, Vec::new());
        for (pos, &p) in present.iter().enumerate() {
            while i < ids.len() && ids[i] < p {
                i += 1;
            }
            if i < ids.len() && ids[i] == p {
                at.push(pos);
            }
        }
        at
    }

    #[test]
    fn galloping_intersection_matches_a_merge() {
        let present: Vec<u32> = (0..200).map(|i| 3 * i + 1).collect();
        let last = *present.last().unwrap();
        let cases: Vec<Vec<u32>> = vec![
            vec![],                                // empty id set
            vec![0, 2, 3, 5, 599, 600, 10_000],    // none hit
            present.clone(),                       // k = p, all hit
            (0..=last + 5).collect(),              // k > p, every present id hit
            vec![1],                               // the first present id
            vec![last],                            // the last present id
            vec![1, last],                         // both ends
            vec![0, 1, 4, 5, 300, 301, 302, last], // hits and misses interleaved
            (0..600).step_by(7).collect(),         // spread, some hit
            (550..700).collect(),                  // a tail run past the end
        ];
        for ids in &cases {
            assert_eq!(
                gallop_intersect(ids, &present),
                merged_hits(ids, &present),
                "{ids:?}"
            );
            assert!(gallop_intersect(ids, &[]).is_empty());
        }
        // Every pair of small sets over a small universe.
        for a in 0u32..64 {
            for b in [0u32, 1, 0b1010_1010, 0xffff_ffff, 0x8000_0001, 0x0f0f_0f0f] {
                let ids: Vec<u32> = (0..6).filter(|i| a & (1 << i) != 0).collect();
                let present: Vec<u32> = (0..32).filter(|i| b & (1 << i) != 0).collect();
                assert_eq!(
                    gallop_intersect(&ids, &present),
                    merged_hits(&ids, &present),
                    "{ids:?} in {present:?}"
                );
            }
        }
    }

    #[test]
    fn an_id_set_leaf_builds_the_boolean_leafs_mask() {
        // One segment of 500 rows over 40 values, bitmap and RLE.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::int((i * 7 + i / 50) % 40)])
            .collect();
        let bitmap = Table::from_rows_with_segment_rows("t", schema, &rows, 500).unwrap();
        let rle = bitmap
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
            .unwrap();
        for t in [&bitmap, &rle] {
            let col = t.column(0);
            assert_eq!(col.segment_count(), 1);
            let n = col.dict().len() as u32;
            for ids in [
                vec![],
                vec![3],
                vec![0, n - 1],
                (0..n).step_by(3).collect(),
                (0..n).collect(),
            ] {
                let bools = (0..n).map(|id| ids.contains(&id)).collect();
                let mut masks = Vec::new();
                for sat in [
                    SatSet::of_ids(ids.clone(), col.dict()),
                    SatSet::Bools(bools),
                ] {
                    for zones in [true, false] {
                        let mut mask = Wah::new();
                        append_segment_mask(&mut mask, col, 0, &sat, zones, &mut None).unwrap();
                        masks.push(mask);
                    }
                }
                assert!(masks.windows(2).all(|w| w[0] == w[1]), "{ids:?}");
                let want = col.value_ids().iter().filter(|id| ids.contains(id)).count();
                assert_eq!(masks[0].count_ones(), want as u64, "{ids:?}");
            }
        }
    }

    #[test]
    fn a_same_column_or_of_equalities_folds_into_one_leaf() {
        let t = table();
        let eq = |k: i64| Predicate::eq("k", k);
        let ks = [7i64, 2, 7, 11, 0];
        let left_deep = ks[1..].iter().fold(eq(ks[0]), |acc, &k| acc.or(eq(k)));
        let right_deep = ks[..4]
            .iter()
            .rev()
            .fold(eq(ks[4]), |acc, &k| eq(k).or(acc));
        let mixed = eq(7).or(eq(2)).or(eq(7).or(eq(11).or(eq(0))));
        let composed = ks
            .iter()
            .map(|&k| predicate_mask(&t, &eq(k)).unwrap())
            .reduce(|a, b| a.or(&b))
            .unwrap();
        for pred in [&left_deep, &right_deep, &mixed] {
            let mut cols = Vec::new();
            match compile(&t, pred, &mut cols).unwrap() {
                Node::Leaf {
                    sat: SatSet::Ids { ids, .. },
                    ..
                } => assert_eq!(ids.len(), 3, "7, 2 and 0 are present; 11 is not"),
                _ => panic!("{pred:?} did not fold"),
            }
            assert_eq!(predicate_mask(&t, pred).unwrap(), composed);
            assert_eq!(predicate_mask_unpruned(&t, pred).unwrap(), composed);
        }
        // Another column, another operator, or a NOT inside: no fold.
        for pred in [
            eq(1).or(Predicate::eq("v", "s0")),
            eq(1).or(Predicate::lt("k", 3i64)),
            eq(1).or(eq(2).not()),
        ] {
            let mut cols = Vec::new();
            let node = compile(&t, &pred, &mut cols).unwrap();
            assert!(matches!(node, Node::Or(..)), "{pred:?} folded");
        }
    }

    #[test]
    fn zone_pruning_skips_range_mismatched_segments() {
        // k is clustered: segment s covers values [4s, 4(s+1)). A narrow
        // range predicate must produce the same mask whether or not zones
        // are consulted, and the zones must actually exclude the segment.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 25)]).collect();
        let t = cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 100).unwrap();
        let col = t.column(0);
        // Segment 0 holds values 0..4; its zone cannot match k >= 20.
        let (lo, hi) = CmpOp::Ge
            .sat_rank_interval(col.dict(), &Value::int(20))
            .unwrap();
        let sat = SatSet::interval(col.dict(), lo, hi);
        assert!(!sat.zone_may_match(col.zone(0)));
        assert!(sat.zone_may_match(col.zone(col.segment_count() - 1)));
        let pred = Predicate::ge("k", 20i64);
        assert_eq!(
            predicate_mask(&t, &pred).unwrap(),
            predicate_mask_unpruned(&t, &pred).unwrap()
        );
        assert_eq!(predicate_mask(&t, &pred).unwrap().count_ones(), 500);
    }

    #[test]
    fn rle_segment_pruning_skips_absent_ranges() {
        // Value 0 lives only in the first quarter of the rows: the mask for
        // k = 0 over the clustered RLE column must come from pruned fills
        // plus one run walk, and still match the bitmap answer.
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 250)]).collect();
        let t = cods_storage::Table::from_rows_with_segment_rows("t", schema, &rows, 100).unwrap();
        let rle = t
            .map_columns(None, |c| c.recode(cods_storage::Encoding::Rle))
            .unwrap();
        let pred = Predicate::eq("k", 0i64);
        let mask = predicate_mask(&rle, &pred).unwrap();
        assert_eq!(mask, predicate_mask(&t, &pred).unwrap());
        assert_eq!(mask.count_ones(), 250);
        assert_eq!(mask.iter_ones().max(), Some(249));
    }
}
