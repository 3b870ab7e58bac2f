//! Partition-wise hash join over dictionary-encoded columns.
//!
//! The join never compares values in its inner loop. Dictionary id spaces
//! are reconciled **once** up front: each probe-side key dictionary is
//! remapped into the build-side key dictionary ([`Dictionary::remap_to`]),
//! so a probe row whose key value is absent from the build dictionary is
//! rejected by a single array lookup, and every surviving comparison is a
//! `u32`/`u64` hash-map probe. Build keys pack into one `u64` when the
//! combined dictionary widths fit ([`GroupKeySpace`]), falling back to
//! composite id tuples.
//!
//! Memory is bounded on both sides:
//!
//! * the **probe** side streams through [`ScanStream`], so at most ~one
//!   segment per column is resident at a time;
//! * the **build** side is guarded by the buffer cache's byte budget — if
//!   the estimated build state does not fit ([`cost::join_passes`]), the
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

use crate::agg::GroupKeySpace;
use crate::cost::{self, RankedChoice};
use crate::pred::Predicate;
use crate::query::STREAM_BATCH_ROWS;
use crate::rowset::{RowColumn, RowSet};
use crate::stream::ScanStream;
use cods_storage::{segment_cache, EncodedColumn, StorageError, Table, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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

/// Costs both build sides of `left ⋈ right` against `budget_bytes` and
/// returns the chosen strategy with its ranked alternatives.
pub fn plan_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    budget_bytes: u64,
) -> JoinPlan {
    let c = cost::join_costing(left, right, left_keys, right_keys, budget_bytes);
    JoinPlan {
        build: if c.build_right {
            BuildSide::Right
        } else {
            BuildSide::Left
        },
        partitions: c.partitions.max(1),
        budget_bytes,
        est_build_bytes: c.est_build_bytes,
        ranking: c.ranking,
    }
}

/// Join key in the **build** dictionary id space.
#[derive(Clone, Debug, PartialEq, Eq)]
enum JoinKey {
    Packed(u64),
    Composite(Box<[u32]>),
}

/// One join uses one representation, so the variant is not hashed: a
/// packed key is a single `write_u64`.
impl Hash for JoinKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            JoinKey::Packed(v) => state.write_u64(*v),
            JoinKey::Composite(ids) => ids.iter().for_each(|&id| state.write_u32(id)),
        }
    }
}

/// Hashes a [`JoinKey`] with [`splitmix64`] instead of SipHash. The keys
/// are dictionary ids — dense integers this engine assigned, not bytes a
/// client chose — so the default hasher's collision resistance buys
/// nothing here, and the probe pays for it once per row. Seeded apart from
/// [`key_partition`], which splits the same keys by the same mixer: within
/// one pass every key agrees on `splitmix64(key) % partitions`.
struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(0x2545_F491_4F6C_DD1D)
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
}

/// Key -> bucket of build-row ordinals, in build-row order.
type KeyMap = HashMap<JoinKey, Vec<u32>, BuildHasherDefault<KeyHasher>>;

/// How key ids combine into a [`JoinKey`].
enum KeyRep {
    Packed { shifts: Vec<u32> },
    Composite,
}

impl KeyRep {
    fn choose(build: &Table, build_keys: &[usize]) -> KeyRep {
        let sizes: Vec<usize> = build_keys
            .iter()
            .map(|&c| build.column(c).dict().len())
            .collect();
        match GroupKeySpace::choose(&sizes) {
            GroupKeySpace::Packed { shifts, .. } => KeyRep::Packed { shifts },
            GroupKeySpace::Composite => KeyRep::Composite,
        }
    }

    fn key_of(&self, ids: &[u32]) -> JoinKey {
        match self {
            KeyRep::Packed { shifts } => JoinKey::Packed(
                ids.iter()
                    .zip(shifts)
                    .fold(0u64, |k, (&id, &s)| k | (id as u64) << s),
            ),
            KeyRep::Composite => JoinKey::Composite(ids.into()),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn key_partition(key: &JoinKey, partitions: u32) -> u32 {
    let h = match key {
        JoinKey::Packed(v) => splitmix64(*v),
        JoinKey::Composite(ids) => {
            let fnv = ids.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &id| {
                (h ^ id as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
            splitmix64(fnv)
        }
    };
    (h % partitions as u64) as u32
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
    let rep = KeyRep::choose(build, build_keys);
    let mut ids = Vec::with_capacity(build_keys.len());
    for (&c, v) in build_keys.iter().zip(key) {
        ids.push(build.column(c).dict().id_of(v)?);
    }
    Some(key_partition(&rep.key_of(&ids), partitions.max(1)))
}

/// Where an output column's ids come from while probing.
enum Src {
    /// Index into the probe scan's columns (every probe column, in order).
    Probe(usize),
    /// Index into the build payload arrays.
    Payload(usize),
}

const BUILD_BATCH: u64 = 8_192;

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
    rep: KeyRep,
    out_src: Vec<Src>,
    payload_src: Vec<usize>,
    partitions: u32,
    pass: u32,
    table_map: KeyMap,
    /// Per payload column: value id per bucket ordinal.
    payload: Vec<Vec<u32>>,
    scan: Option<ScanStream>,
    /// Matched rows not yet emitted, one id vector per output column;
    /// `out_ids[c][..out_at]` has been emitted already.
    out_ids: Vec<Vec<u32>>,
    out_at: usize,
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
    let rep = KeyRep::choose(&build, build_keys);
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
        rep,
        out_ids: vec![Vec::new(); out_src.len()],
        out_src,
        payload_src,
        partitions: plan.partitions.max(1),
        pass: 0,
        table_map: KeyMap::default(),
        payload: Vec::new(),
        scan: None,
        out_at: 0,
        done: false,
    }
}

impl JoinStream {
    /// (Re)builds the hash table for partition `pass`, dropping the
    /// previous pass's state first.
    fn build_pass(&mut self) -> Result<(), StorageError> {
        let rows = self.build.rows();
        // A pass holds about its share of the build rows, in at most one
        // bucket per combination of key values.
        let key_space = self
            .build_keys
            .iter()
            .map(|&c| self.build.column(c).dict().len() as u64)
            .fold(1u64, u64::saturating_mul);
        let expect = (rows / u64::from(self.partitions)).min(key_space) as usize;
        self.table_map = KeyMap::with_capacity_and_hasher(expect, Default::default());
        self.payload = vec![Vec::new(); self.payload_src.len()];
        let ids_of = |cols: &[usize], lo, hi| -> Result<Vec<Vec<u32>>, StorageError> {
            cols.iter()
                .map(|&c| self.build.column(c).try_ids_range(lo..hi))
                .collect()
        };
        let mut ord: u32 = 0;
        let mut lo = 0u64;
        while lo < rows {
            let hi = rows.min(lo + BUILD_BATCH);
            let key_ids = ids_of(&self.build_keys, lo, hi)?;
            let pay_ids = ids_of(&self.payload_src, lo, hi)?;
            let mut ids = vec![0u32; self.build_keys.len()];
            for r in 0..(hi - lo) as usize {
                for (slot, col_ids) in ids.iter_mut().zip(&key_ids) {
                    *slot = col_ids[r];
                }
                let key = self.rep.key_of(&ids);
                if self.partitions > 1 && key_partition(&key, self.partitions) != self.pass {
                    continue;
                }
                self.table_map.entry(key).or_default().push(ord);
                for (p, col_ids) in self.payload.iter_mut().zip(&pay_ids) {
                    p.push(col_ids[r]);
                }
                ord += 1;
            }
            lo = hi;
        }
        Ok(())
    }

    /// Probes one scanned batch — `probe_ids[c][r]` is probe column `c`'s
    /// id at the batch's row `r` — against the current pass's table and
    /// appends the matches' ids to the pending output, column by column.
    fn match_batch(&mut self, rows: usize, probe_ids: &[Vec<u32>]) {
        // What was emitted is dropped before the buffers grow again.
        for ids in &mut self.out_ids {
            ids.drain(..self.out_at);
        }
        self.out_at = 0;
        // The matches as (probe row, build ordinal) pairs, in output order.
        let (mut probe_rows, mut ords) = (Vec::new(), Vec::new());
        let mut ids = vec![0u32; self.probe_keys.len()];
        'row: for r in 0..rows {
            for ((slot, &c), remap) in ids.iter_mut().zip(&self.probe_keys).zip(&self.remaps) {
                match remap[probe_ids[c][r] as usize] {
                    // Key value absent from the build dictionary: no match.
                    None => continue 'row,
                    Some(b) => *slot = b,
                }
            }
            let key = self.rep.key_of(&ids);
            if self.partitions > 1 && key_partition(&key, self.partitions) != self.pass {
                continue;
            }
            let Some(bucket) = self.table_map.get(&key) else {
                continue;
            };
            probe_rows.extend(std::iter::repeat_n(r, bucket.len()));
            ords.extend_from_slice(bucket);
        }
        for (out, src) in self.out_ids.iter_mut().zip(&self.out_src) {
            match *src {
                Src::Probe(c) => out.extend(probe_rows.iter().map(|&r| probe_ids[c][r])),
                Src::Payload(p) => out.extend(ords.iter().map(|&o| self.payload[p][o as usize])),
            }
        }
    }

    /// The table column behind output column `c`: its dictionary gives the
    /// emitted ids meaning.
    fn out_column(&self, c: usize) -> &Arc<EncodedColumn> {
        match self.out_src[c] {
            Src::Probe(i) => self.probe.column(i),
            Src::Payload(p) => self.build.column(self.payload_src[p]),
        }
    }

    /// Rows matched and not yet emitted.
    fn pending(&self) -> usize {
        self.out_ids.first().map_or(0, Vec::len) - self.out_at
    }

    /// The next batch of matches, or the typed error of a build or probe
    /// segment that could not be faulted in — what the served path drives.
    /// A stream that returned an error is finished with.
    pub fn try_next(&mut self) -> Result<Option<RowSet>, StorageError> {
        loop {
            let pending = self.pending();
            if pending >= STREAM_BATCH_ROWS || (self.done && pending > 0) {
                let (at, len) = (self.out_at, pending.min(STREAM_BATCH_ROWS));
                self.out_at += len;
                let columns = (0..self.out_src.len())
                    .map(|c| RowColumn::Dict {
                        column: Arc::clone(self.out_column(c)),
                        ids: self.out_ids[c][at..at + len].to_vec(),
                    })
                    .collect();
                return Ok(Some(RowSet::new(len, columns)));
            }
            if self.done {
                return Ok(None);
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
                Some(batch) => self.match_batch(batch.len, &batch.ids),
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
