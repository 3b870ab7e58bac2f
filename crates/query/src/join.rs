//! Partition-wise hash join over dictionary-encoded columns.
//!
//! The join never compares values in its inner loop. Dictionary id spaces
//! are reconciled **once** up front: each probe-side key dictionary is
//! remapped into the build-side key dictionary ([`Dictionary::remap_to`]),
//! so a probe row whose key value is absent from the build dictionary is
//! rejected by a single array lookup. A pass's build rows are bucketed as
//! a CSR by key slot (`Buckets`). With one key column a key's slot *is*
//! its build dictionary id, so a probe is `remap[id]`, then `start` — no
//! hash. With several, the pass's distinct keys are numbered by the one
//! key table, [`KeyIndex`], which keeps them flat: the key's number is its
//! slot.
//!
//! Memory is bounded on both sides:
//!
//! * the **probe** side streams through [`ScanStream`], so at most ~one
//!   segment per column is resident at a time;
//! * the **build** side is guarded by the buffer cache's byte budget — if
//!   the estimated build state does not fit ([`join_passes`]), the
//!   join runs multiple partition passes, each building only the rows
//!   whose key hashes into the current partition and re-streaming the
//!   probe side.
//!
//! With `build = Right` and one partition, the output is row-identical to
//! the row-oracle [`crate::tuple::hash_join`] (probe rows in table order,
//! bucket entries in build-row order). Other plans permute row order but
//! keep the output multiset identical. NULL keys join (matching the
//! oracle's `Value::Null == Value::Null` semantics): NULL is just another
//! dictionary id here.
//!
//! [`Dictionary::remap_to`]: cods_storage::Dictionary::remap_to

use crate::cost::{join_build_bytes, join_passes, CostEstimate, RankedChoice};
use crate::keys::{key_partition, KeyIndex};
use crate::pred::Predicate;
use crate::query::STREAM_BATCH_ROWS;
use crate::rowset::{RowColumn, RowSet};
use crate::stream::{ids_in, ScanStream};
use cods_storage::{segment_cache, EncodedColumn, StorageError, Table, Value};
use std::sync::Arc;

/// Which input the hash table is built over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildSide {
    /// Build over the left input, stream the right.
    Left,
    /// Build over the right input, stream the left (the row oracle's shape).
    Right,
}

/// The cost model's verdict for one hash join, produced by [`plan_join`].
#[derive(Clone, Debug)]
pub struct JoinPlan {
    /// Chosen build side.
    pub build: BuildSide,
    /// Partition passes the build side is split into (1 = fits in budget).
    pub partitions: u32,
    /// Byte budget the build state was planned against.
    pub budget_bytes: u64,
    /// Estimated resident bytes of a single-pass build.
    pub est_build_bytes: u64,
    /// The ranked build-side alternatives behind the decision.
    pub ranking: RankedChoice,
}

/// Costs both build sides of `left ⋈ right` against `budget_bytes` (the
/// buffer cache's byte budget) and picks the cheaper: each side's cost is
/// `passes × (build bytes + probe bytes)`, since an over-budget build
/// re-streams *both* inputs once per partition pass. Building right keeps
/// only the right non-key columns as payload; building left must carry
/// every left column (the output layout is left ++ right-non-key). Ties go
/// right, so a symmetric join reproduces the row oracle's order.
pub fn plan_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    budget_bytes: u64,
) -> JoinPlan {
    let probe_bytes = |t: &Table| t.rows() * 4 * t.arity().max(1) as u64;
    let right_payload = non_key_cols(right.arity(), right_keys).len();
    let rb = join_build_bytes(right, right_keys, right_payload);
    let lb = join_build_bytes(left, left_keys, left.arity());
    let (rp, lp) = (join_passes(rb, budget_bytes), join_passes(lb, budget_bytes));
    let opt = |side: &str, bytes: u64, passes: u32, probe: &Table, build_rows: u64| CostEstimate {
        label: format!("build={side}"),
        cost: passes as f64 * (bytes + probe_bytes(probe)) as f64,
        detail: format!("~{bytes} build bytes over {build_rows} rows, {passes} pass(es)"),
    };
    let ranking = RankedChoice::ranked(
        "join build side",
        vec![
            opt("right", rb, rp, left, right.rows()),
            opt("left", lb, lp, right, left.rows()),
        ],
    );
    let (build, partitions, est_build_bytes) = if ranking.chosen().label == "build=right" {
        (BuildSide::Right, rp, rb)
    } else {
        (BuildSide::Left, lp, lb)
    };
    JoinPlan {
        build,
        partitions,
        budget_bytes,
        est_build_bytes,
        ranking,
    }
}

/// The partition pass a key lands in under this join's hash, or `None`
/// when some key value is absent from the build-side dictionaries (such a
/// row can never match). Exposed so differential tests can replicate the
/// stream's pass-major output order exactly.
pub fn partition_of(
    build: &Table,
    build_keys: &[usize],
    partitions: u32,
    key: &[Value],
) -> Option<u32> {
    let mut ids = Vec::with_capacity(build_keys.len());
    for (&c, v) in build_keys.iter().zip(key) {
        ids.push(build.column(c).dict().id_of(v)?);
    }
    Some(key_partition(&ids, partitions.max(1)))
}

/// How a row's key ids find their bucket slot.
enum Slots {
    /// One key column: the slot is the build dictionary id itself.
    ById,
    /// Several key columns: each distinct key of the pass has a dense slot,
    /// its number in first-appearance order.
    ByKey(KeyIndex),
}

/// One pass's build rows bucketed by slot, as a CSR: the build-row
/// ordinals of slot `s` are `ords[start[s]..start[s + 1]]`, in build-row
/// order — the order the row oracle emits a probe row's matches in.
#[derive(Default)]
struct Buckets {
    start: Vec<u32>,
    ords: Vec<u32>,
}

impl Buckets {
    /// Counting sort of build rows `0..slots.len()` into `n_slots` slots,
    /// row `ord` under slot `slots[ord]`.
    fn new(slots: &[u32], n_slots: usize) -> Buckets {
        let mut start = vec![0u32; n_slots + 1];
        for &s in slots {
            start[s as usize] += 1;
        }
        // Running sums leave `start[s]` where slot `s` ends...
        let mut end = 0;
        for n in &mut start {
            end += *n;
            *n = end;
        }
        // ...and placing the rows back to front moves it to where the slot
        // begins, each slot's rows in build-row order.
        let mut ords = vec![0u32; slots.len()];
        for (ord, &s) in slots.iter().enumerate().rev() {
            let at = &mut start[s as usize];
            *at -= 1;
            ords[*at as usize] = ord as u32;
        }
        Buckets { start, ords }
    }

    /// The build-row ordinals of `slot`.
    fn of(&self, slot: usize) -> &[u32] {
        &self.ords[self.start[slot] as usize..self.start[slot + 1] as usize]
    }
}

/// Where an output column's ids come from while probing.
enum Src {
    /// Index into the probe scan's columns (every probe column, in order).
    Probe(usize),
    /// Index into the build payload arrays.
    Payload(usize),
}

/// Streaming partition-wise hash join. Yields the output rows
/// (`left columns ++ right non-key columns`) as [`RowSet`]s of
/// [`STREAM_BATCH_ROWS`] rows (the last one shorter, none empty) that never
/// leave the id domain: a matched row is one probe id or one build payload
/// id per output column. Peak memory is one partition's build state, ~one
/// resident segment per probe column, and one probe batch's matches.
/// Construct via [`join_stream`].
pub struct JoinStream {
    probe: Arc<Table>,
    build: Arc<Table>,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    /// Per probe key column: probe dictionary id -> build dictionary id.
    remaps: Vec<Vec<Option<u32>>>,
    slots: Slots,
    out_src: Vec<Src>,
    payload_src: Vec<usize>,
    partitions: u32,
    pass: u32,
    buckets: Buckets,
    /// Per payload column: value id per build-row ordinal.
    payload: Vec<Vec<u32>>,
    scan: Option<ScanStream>,
    /// The probe batch being matched, one id vector per probe column, and
    /// its matches as (probe row, build ordinal) pairs in output order, of
    /// which `matched_at..` are not in an output batch yet. The pair
    /// buffers serve every probe batch.
    probe_ids: Vec<Vec<u32>>,
    match_rows: Vec<u32>,
    match_ords: Vec<u32>,
    matched_at: usize,
    /// The output batch being filled, one id vector per output column:
    /// fewer than [`STREAM_BATCH_ROWS`] rows between calls.
    fill: Vec<Vec<u32>>,
    done: bool,
}

fn non_key_cols(arity: usize, keys: &[usize]) -> Vec<usize> {
    (0..arity).filter(|i| !keys.contains(i)).collect()
}

/// Opens a [`JoinStream`] for `left ⋈ right` under `plan`. `left_keys` and
/// `right_keys` pair up positionally; the output schema is every left
/// column followed by the right non-key columns, matching
/// [`crate::tuple::hash_join`].
pub fn join_stream(
    left: Arc<Table>,
    right: Arc<Table>,
    left_keys: &[usize],
    right_keys: &[usize],
    plan: &JoinPlan,
) -> JoinStream {
    let (build, probe, build_keys, probe_keys) = match plan.build {
        BuildSide::Right => (right.clone(), left.clone(), right_keys, left_keys),
        BuildSide::Left => (left.clone(), right.clone(), left_keys, right_keys),
    };
    // Reconcile dictionaries once: probe key ids -> build key ids.
    let remaps: Vec<Vec<Option<u32>>> = probe_keys
        .iter()
        .zip(build_keys)
        .map(|(&p, &b)| probe.column(p).dict().remap_to(build.column(b).dict()))
        .collect();
    let partitions = plan.partitions.max(1);
    let slots = match build_keys {
        [_] => Slots::ById,
        _ => {
            // A pass holds about its share of the build rows, in at most
            // one slot per combination of key values.
            let key_space = build_keys
                .iter()
                .map(|&c| build.column(c).dict().len() as u64)
                .fold(1u64, u64::saturating_mul);
            let expect = (build.rows() / u64::from(partitions)).min(key_space) as usize;
            Slots::ByKey(KeyIndex::new(&build, build_keys, expect))
        }
    };
    let (out_src, payload_src) = match plan.build {
        BuildSide::Right => {
            // Payload: right non-key columns; probe rows carry all of left.
            let payload_src = non_key_cols(right.arity(), right_keys);
            let mut out_src: Vec<Src> = (0..left.arity()).map(Src::Probe).collect();
            out_src.extend((0..payload_src.len()).map(Src::Payload));
            (out_src, payload_src)
        }
        BuildSide::Left => {
            // Payload: every left column (the output needs them all);
            // probe rows carry the right non-key columns.
            let payload_src: Vec<usize> = (0..left.arity()).collect();
            let mut out_src: Vec<Src> = (0..left.arity()).map(Src::Payload).collect();
            out_src.extend(
                non_key_cols(right.arity(), right_keys)
                    .into_iter()
                    .map(Src::Probe),
            );
            (out_src, payload_src)
        }
    };
    JoinStream {
        probe,
        build,
        probe_keys: probe_keys.to_vec(),
        build_keys: build_keys.to_vec(),
        remaps,
        slots,
        fill: vec![Vec::with_capacity(STREAM_BATCH_ROWS); out_src.len()],
        out_src,
        payload_src,
        partitions,
        pass: 0,
        buckets: Buckets::default(),
        payload: Vec::new(),
        scan: None,
        probe_ids: Vec::new(),
        match_rows: Vec::new(),
        match_ords: Vec::new(),
        matched_at: 0,
        done: false,
    }
}

/// Whether rows with `key` are built and probed in pass `pass` of
/// `partitions`.
fn in_pass(key: &[u32], partitions: u32, pass: u32) -> bool {
    partitions == 1 || key_partition(key, partitions) == pass
}

impl JoinStream {
    /// (Re)builds the buckets for partition `pass`, dropping the previous
    /// pass's state first.
    fn build_pass(&mut self) -> Result<(), StorageError> {
        self.buckets = Buckets::default();
        self.payload = vec![Vec::new(); self.payload_src.len()];
        let rows = self.build.rows();
        if let Slots::ByKey(index) = &mut self.slots {
            index.clear();
        }
        let (partitions, pass) = (self.partitions, self.pass);
        // The slot of every build row of the pass, in build-row order.
        let mut slots: Vec<u32> = Vec::new();
        let mut ids = vec![0u32; self.build_keys.len()];
        // One segment of the (first) key column at a time, so each of its
        // segments decodes once.
        let whole = [(0, rows)];
        let all = if rows == 0 { &[][..] } else { &whole[..] };
        for (_, sel) in self.build.column(self.build_keys[0]).split_by_segment(all) {
            let key_ids = ids_in(&self.build, &self.build_keys, &sel)?;
            let pay_ids = ids_in(&self.build, &self.payload_src, &sel)?;
            for r in 0..key_ids[0].len() {
                for (slot, col_ids) in ids.iter_mut().zip(&key_ids) {
                    *slot = col_ids[r];
                }
                if !in_pass(&ids, partitions, pass) {
                    continue;
                }
                let slot = match &mut self.slots {
                    Slots::ById => ids[0],
                    Slots::ByKey(index) => index.intern(&ids).0,
                };
                slots.push(slot);
                for (p, col_ids) in self.payload.iter_mut().zip(&pay_ids) {
                    p.push(col_ids[r]);
                }
            }
        }
        let n_slots = match &self.slots {
            Slots::ById => self.build.column(self.build_keys[0]).dict().len(),
            Slots::ByKey(index) => index.keys().len() / self.build_keys.len(),
        };
        self.buckets = Buckets::new(&slots, n_slots);
        Ok(())
    }

    /// Probes one scanned batch — `probe_ids[c][r]` is probe column `c`'s
    /// id at the batch's row `r` — against the current pass's buckets,
    /// leaving its matches to be gathered into output batches.
    fn match_batch(&mut self, rows: usize, probe_ids: Vec<Vec<u32>>) {
        let (match_rows, match_ords) = (&mut self.match_rows, &mut self.match_ords);
        match_rows.clear();
        match_ords.clear();
        self.matched_at = 0;
        let mut push = |r: usize, bucket: &[u32]| {
            for &ord in bucket {
                match_rows.push(r as u32);
                match_ords.push(ord);
            }
        };
        match &self.slots {
            Slots::ById => {
                let remap = &self.remaps[0];
                let keys = &probe_ids[self.probe_keys[0]][..rows];
                for (r, &id) in keys.iter().enumerate() {
                    // A key value absent from the build dictionary: no match.
                    let Some(b) = remap[id as usize] else {
                        continue;
                    };
                    if in_pass(&[b], self.partitions, self.pass) {
                        push(r, self.buckets.of(b as usize));
                    }
                }
            }
            Slots::ByKey(index) => {
                let mut ids = vec![0u32; self.probe_keys.len()];
                'row: for r in 0..rows {
                    for ((slot, &c), remap) in
                        ids.iter_mut().zip(&self.probe_keys).zip(&self.remaps)
                    {
                        match remap[probe_ids[c][r] as usize] {
                            None => continue 'row,
                            Some(b) => *slot = b,
                        }
                    }
                    if !in_pass(&ids, self.partitions, self.pass) {
                        continue;
                    }
                    if let Some(slot) = index.get(&ids) {
                        push(r, self.buckets.of(slot as usize));
                    }
                }
            }
        }
        self.probe_ids = probe_ids;
    }

    /// Moves matches into the output batch being filled, column by column,
    /// until it is full or the probe batch's matches run out.
    fn gather(&mut self) {
        let filled = self.fill.first().map_or(0, Vec::len);
        let take = (STREAM_BATCH_ROWS - filled).min(self.match_rows.len() - self.matched_at);
        let at = self.matched_at..self.matched_at + take;
        let (rows, ords) = (&self.match_rows[at.clone()], &self.match_ords[at]);
        for (out, src) in self.fill.iter_mut().zip(&self.out_src) {
            match *src {
                Src::Probe(c) => {
                    let ids = &self.probe_ids[c];
                    out.extend(rows.iter().map(|&r| ids[r as usize]))
                }
                Src::Payload(p) => {
                    let payload = &self.payload[p];
                    out.extend(ords.iter().map(|&o| payload[o as usize]))
                }
            }
        }
        self.matched_at += take;
    }

    /// The table column behind output column `c`: its dictionary gives the
    /// emitted ids meaning.
    fn out_column(&self, c: usize) -> &Arc<EncodedColumn> {
        match self.out_src[c] {
            Src::Probe(i) => self.probe.column(i),
            Src::Payload(p) => self.build.column(self.payload_src[p]),
        }
    }

    /// The next batch of matches, or the typed error of a build or probe
    /// segment that could not be faulted in — what the served path drives.
    /// A stream that returned an error is finished with.
    pub fn try_next(&mut self) -> Result<Option<RowSet>, StorageError> {
        loop {
            if self.matched_at < self.match_rows.len() {
                self.gather();
            }
            let filled = self.fill.first().map_or(0, Vec::len);
            if filled == STREAM_BATCH_ROWS || (self.done && filled > 0) {
                let mut columns = Vec::with_capacity(self.fill.len());
                for c in 0..self.fill.len() {
                    let fresh = Vec::with_capacity(STREAM_BATCH_ROWS);
                    columns.push(RowColumn::Dict {
                        column: Arc::clone(self.out_column(c)),
                        ids: std::mem::replace(&mut self.fill[c], fresh),
                    });
                }
                return Ok(Some(RowSet::new(filled, columns)));
            }
            if self.done {
                return Ok(None);
            }
            if self.matched_at < self.match_rows.len() {
                continue;
            }
            if self.scan.is_none() {
                if self.pass >= self.partitions {
                    self.done = true;
                    continue;
                }
                self.build_pass()?;
                self.scan = Some(ScanStream::new(self.probe.clone(), &Predicate::True, None)?);
            }
            let batch = match &mut self.scan {
                Some(scan) => scan.next_ids()?,
                None => None,
            };
            match batch {
                Some(batch) => self.match_batch(batch.len, batch.ids),
                None => {
                    self.scan = None;
                    self.pass += 1;
                }
            }
        }
    }
}

/// [`JoinStream::try_next`] for in-process callers over resident or
/// trusted tables: a failed fault-in panics, as
/// [`cods_storage::SegSlot::enc`] does.
impl Iterator for JoinStream {
    type Item = RowSet;

    fn next(&mut self) -> Option<RowSet> {
        self.try_next()
            .unwrap_or_else(|e| panic!("segment fault failed: {e}"))
    }
}

/// Plans and fully runs `left ⋈ right`, sizing the build side against the
/// live buffer-cache budget. Returns the plan alongside the output rows.
pub fn join_collect(
    left: &Arc<Table>,
    right: &Arc<Table>,
    left_keys: &[usize],
    right_keys: &[usize],
) -> (JoinPlan, Vec<Vec<Value>>) {
    let plan = plan_join(
        left,
        right,
        left_keys,
        right_keys,
        segment_cache().stats().budget,
    );
    let rows = join_stream(left.clone(), right.clone(), left_keys, right_keys, &plan)
        .flat_map(|batch| batch.to_rows())
        .collect();
    (plan, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use cods_storage::{Schema, ValueType};

    fn arc_table(name: &str, cols: &[(&str, ValueType)], rows: Vec<Vec<Value>>) -> Arc<Table> {
        let schema = Schema::build(cols, &[]).unwrap();
        Arc::new(Table::from_rows_with_segment_rows(name, schema, &rows, 64).unwrap())
    }

    fn orders_and_skills() -> (Arc<Table>, Arc<Table>) {
        let left = arc_table(
            "orders",
            &[("who", ValueType::Str), ("qty", ValueType::Int)],
            (0..500)
                .map(|i| {
                    let who = match i % 5 {
                        0 => Value::from("ada"),
                        1 => Value::from("grace"),
                        2 => Value::from("alan"),
                        3 => Value::Null,
                        _ => Value::from("ghost"), // absent from right
                    };
                    vec![who, Value::int(i)]
                })
                .collect(),
        );
        let right = arc_table(
            "people",
            &[("name", ValueType::Str), ("team", ValueType::Str)],
            vec![
                vec![Value::from("grace"), Value::from("navy")],
                vec![Value::from("ada"), Value::from("analytical")],
                vec![Value::Null, Value::from("unknown")],
                vec![Value::from("ada"), Value::from("engines")], // dup key
                vec![Value::from("nobody"), Value::from("empty")],
            ],
        );
        (left, right)
    }

    fn oracle(left: &Table, right: &Table, lk: &[usize], rk: &[usize]) -> Vec<Vec<Value>> {
        tuple::hash_join(&left.to_rows(), &right.to_rows(), lk, rk)
    }

    fn rows(stream: JoinStream) -> Vec<Vec<Value>> {
        stream.flat_map(|batch| batch.to_rows()).collect()
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort();
        rows
    }

    #[test]
    fn build_right_single_pass_is_row_identical_to_oracle() {
        let (left, right) = orders_and_skills();
        let plan = JoinPlan {
            build: BuildSide::Right,
            partitions: 1,
            budget_bytes: u64::MAX,
            est_build_bytes: 0,
            ranking: plan_join(&left, &right, &[0], &[0], u64::MAX).ranking,
        };
        let got = rows(join_stream(left.clone(), right.clone(), &[0], &[0], &plan));
        assert_eq!(got, oracle(&left, &right, &[0], &[0]));
        // NULL keys joined (the oracle treats Null == Null).
        assert!(got.iter().any(|r| r[0] == Value::Null));
        // Probe keys missing from the build dictionary never match.
        assert!(got.iter().all(|r| r[0] != Value::from("ghost")));
    }

    #[test]
    fn build_left_is_multiset_identical() {
        let (left, right) = orders_and_skills();
        let plan = JoinPlan {
            build: BuildSide::Left,
            partitions: 1,
            budget_bytes: u64::MAX,
            est_build_bytes: 0,
            ranking: plan_join(&left, &right, &[0], &[0], u64::MAX).ranking,
        };
        let got = rows(join_stream(left.clone(), right.clone(), &[0], &[0], &plan));
        assert_eq!(sorted(got), sorted(oracle(&left, &right, &[0], &[0])));
    }

    #[test]
    fn multi_pass_partitions_match_oracle_in_pass_major_order() {
        let (left, right) = orders_and_skills();
        let mut plan = plan_join(&left, &right, &[0], &[0], 64);
        assert!(plan.partitions > 1, "tiny budget must force partitioning");
        plan.build = BuildSide::Right;
        let got = rows(join_stream(left.clone(), right.clone(), &[0], &[0], &plan));
        // Replicate pass-major order on the row oracle via partition_of.
        let all = oracle(&left, &right, &[0], &[0]);
        let mut expect = Vec::new();
        for pass in 0..plan.partitions {
            for row in &all {
                if partition_of(&right, &[0], plan.partitions, &row[..1]) == Some(pass) {
                    expect.push(row.clone());
                }
            }
        }
        assert_eq!(got, expect);
        assert_eq!(sorted(got), sorted(all));
    }

    #[test]
    fn multi_column_composite_keys_agree() {
        let left = arc_table(
            "l",
            &[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("x", ValueType::Int),
            ],
            (0..200)
                .map(|i| vec![Value::int(i % 7), Value::int(i % 3), Value::int(i)])
                .collect(),
        );
        let right = arc_table(
            "r",
            &[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("y", ValueType::Int),
            ],
            (0..60)
                .map(|i| vec![Value::int(i % 9), Value::int(i % 3), Value::int(i * 10)])
                .collect(),
        );
        let plan = plan_join(&left, &right, &[0, 1], &[0, 1], u64::MAX);
        let got = rows(join_stream(
            left.clone(),
            right.clone(),
            &[0, 1],
            &[0, 1],
            &plan,
        ));
        assert_eq!(sorted(got), sorted(oracle(&left, &right, &[0, 1], &[0, 1])));
    }

    #[test]
    fn matches_leave_in_full_batches_whatever_the_probe_batches_yield() {
        // Every 64-row probe segment matches 64 x 100 build rows: more than
        // one output batch per probe batch, and a remainder carried into
        // the next.
        let ints = [("k", ValueType::Int), ("x", ValueType::Int)];
        let left = arc_table(
            "l",
            &ints,
            (0..300)
                .map(|i| vec![Value::int(0), Value::int(i)])
                .collect(),
        );
        let right = arc_table(
            "r",
            &ints,
            (0..100)
                .map(|i| vec![Value::int(0), Value::int(-i)])
                .collect(),
        );
        let mut plan = plan_join(&left, &right, &[0], &[0], u64::MAX);
        plan.build = BuildSide::Right;
        let batches: Vec<RowSet> =
            join_stream(left.clone(), right.clone(), &[0], &[0], &plan).collect();
        let (last, full) = batches.split_last().unwrap();
        assert!(full.iter().all(|b| b.len() == STREAM_BATCH_ROWS));
        assert_eq!(last.len(), 300 * 100 % STREAM_BATCH_ROWS);
        assert!(batches.iter().all(|b| b.arity() == 3));
        let got: Vec<_> = batches.iter().flat_map(RowSet::to_rows).collect();
        assert_eq!(got, oracle(&left, &right, &[0], &[0]));
    }

    #[test]
    fn empty_inputs_yield_no_rows() {
        let empty = arc_table("e", &[("k", ValueType::Int)], vec![]);
        let full = arc_table(
            "f",
            &[("k", ValueType::Int)],
            (0..10).map(|i| vec![Value::int(i)]).collect(),
        );
        for (l, r) in [(&empty, &full), (&full, &empty), (&empty, &empty)] {
            let (plan, rows) = join_collect(l, r, &[0], &[0]);
            assert!(rows.is_empty());
            assert!(plan.partitions >= 1);
        }
    }

    #[test]
    fn join_collect_reports_plan_against_cache_budget() {
        let (left, right) = orders_and_skills();
        let (plan, rows) = join_collect(&left, &right, &[0], &[0]);
        assert_eq!(plan.build, BuildSide::Right, "smaller side builds");
        assert_eq!(sorted(rows), sorted(oracle(&left, &right, &[0], &[0])));
        assert!(plan.ranking.describe().contains("build=right"));
    }
}
