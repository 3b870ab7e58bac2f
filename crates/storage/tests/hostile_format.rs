//! Hostile bytes for format 13 and the format-3 commit log: seeded, in-tree
//! mutation loops over the golden table and catalog fixtures and over a
//! recorded `.clog`, targeted mutations of the fields inside a table's
//! metadata block, every truncation and bit flip of the commit slots of a
//! file that holds two generations, every truncation and seeded byte flip
//! of a bitmap payload through both its whole decode and its selective
//! read and of a packed payload through its decode, plus hand-built
//! hostile slots, indexes and bitmap and packed payloads.
//!
//! Every mutated image goes through both decoders. Whatever comes back must
//! be a typed error or a table that can be used to the end without a
//! panic: its invariants check (which faults every payload in and compares
//! it with its stats) returns, and when they hold its rows come out. Every
//! count read from disk is bounded by the bytes left before anything is
//! sized from it, so no mutation can ask for an unbounded allocation: a
//! count set to its type's maximum would otherwise abort the test binary.
//! Each loop prints how many mutated inputs it ran and how many decoded.

use bytes::Bytes;
use cods_bitmap::word::{make_fill, ALL_ONES_LITERAL, FILL_FLAG, LIT_MASK, MAX_FILL_GROUPS};
use cods_bitmap::Wah;
use cods_query::{Predicate, ScanStream};
use cods_storage::codec::{put_value, read_str, read_value, Reader};
use cods_storage::persist::{
    decode_catalog, decode_table, encode_catalog, encode_table, read_catalog, save_catalog,
};
use cods_storage::store::{decode_payload, encode_payload, read_bitmaps, Present, SegMeta};
use cods_storage::{
    clog_path, log_status, open_durable, wal, Catalog, Dictionary, EncodedColumn, Encoding,
    RecodeScope, RecodeTarget, Schema, SealScratch, SegSlot, Segment, SegmentEnc, StorageError,
    Table, Value, ValueType,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GOLDEN_TABLE: &[u8] = include_bytes!("golden/table.cods");
const GOLDEN_CATALOG: &[u8] = include_bytes!("golden/catalog.cods");

/// `magic:u32 version:u16`.
const PREAMBLE_LEN: usize = 6;
/// `generation index_off index_len index_sum slot_sum`, a `u64` each.
const SLOT_LEN: usize = 40;
/// The preamble and both commit slots.
const HEADER_LEN: usize = PREAMBLE_LEN + 2 * SLOT_LEN;

/// xorshift64*: a fixed seed makes every run mutate the same bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn exercise(t: &Table) {
    if t.check_invariants().is_ok() {
        t.to_rows();
    }
}

/// Runs both decoders over `raw`; returns whether either accepted it.
fn survives(raw: &[u8]) -> bool {
    let table = decode_table(Bytes::from(raw.to_vec()));
    if let Ok(t) = &table {
        exercise(t);
    }
    let catalog = decode_catalog(Bytes::from(raw.to_vec()));
    if let Ok(c) = &catalog {
        for t in c.snapshot() {
            exercise(&t);
        }
    }
    table.is_ok() || catalog.is_ok()
}

/// The four fields of slot `which`: `generation index_off index_len
/// index_sum`.
fn slot_fields(raw: &[u8], which: usize) -> [u64; 4] {
    let at = PREAMBLE_LEN + which * SLOT_LEN;
    [0, 1, 2, 3].map(|i| u64::from_le_bytes(raw[at + 8 * i..at + 8 * i + 8].try_into().unwrap()))
}

/// A slot's bytes: its fields and their checksum.
fn slot_bytes(fields: [u64; 4]) -> [u8; SLOT_LEN] {
    let mut out = [0u8; SLOT_LEN];
    for (at, field) in out.chunks_exact_mut(8).zip(fields) {
        at.copy_from_slice(&field.to_le_bytes());
    }
    let sum = wal::checksum(&[&out[..SLOT_LEN - 8]]);
    out[SLOT_LEN - 8..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// `[start, end)` of the index a fixture's first slot commits.
fn index_span(raw: &[u8]) -> (usize, usize) {
    let [_, off, len, _] = slot_fields(raw, 0);
    (off as usize, (off + len) as usize)
}

#[test]
fn every_truncation_is_a_typed_error() {
    let mut inputs = 0;
    for golden in [GOLDEN_TABLE, GOLDEN_CATALOG] {
        for cut in 0..golden.len() {
            assert!(!survives(&golden[..cut]), "cut at {cut} accepted");
            inputs += 1;
        }
    }
    println!("table-file truncations: {inputs} inputs, 0 decoded");
}

#[test]
fn seeded_bit_flips_never_panic() {
    let mut rng = Rng(0x00C0_D508);
    let (mut inputs, mut decoded) = (0, 0);
    let mut survives = |raw: &[u8]| {
        inputs += 1;
        decoded += usize::from(survives(raw));
    };
    for golden in [GOLDEN_TABLE, GOLDEN_CATALOG] {
        // Every bit of the slots and the index, where a flip moves or
        // renames a block or tears the commit…
        let (index, end) = index_span(golden);
        for at in (PREAMBLE_LEN..HEADER_LEN).chain(index..end) {
            for bit in 0..8 {
                let mut raw = golden.to_vec();
                raw[at] ^= 1 << bit;
                survives(&raw);
            }
        }
        // …then seeded flips anywhere: one bit, or a run of random bytes.
        for _ in 0..1500 {
            let mut raw = golden.to_vec();
            let at = rng.below(raw.len());
            if rng.below(4) == 0 {
                for b in raw.iter_mut().skip(at).take(1 + rng.below(8)) {
                    *b = rng.next() as u8;
                }
            } else {
                raw[at] ^= 1 << rng.below(8);
            }
            survives(&raw);
        }
    }
    println!("table-file bit flips: {inputs} inputs, {decoded} decoded");
}

/// File offsets of the fields of the golden table's block that a count or
/// tag is read from, found by walking the block with the codec.
struct BlockFields {
    table_name_len: usize,
    arity: usize,
    key_len: usize,
    /// The table's `rows`.
    table_rows: usize,
    /// Per column: its dictionary's tag and `dict_len`, its first listed
    /// value's tag (none for a dense dictionary), and its `seg_count`.
    dict_tag: Vec<usize>,
    dict_len: Vec<usize>,
    first_value_tag: Vec<Option<usize>>,
    seg_count: Vec<usize>,
    /// The length of the first string of the first `Str` dictionary.
    str_len: usize,
    /// The first record that lists ids: `present` and its first `ones`.
    present: usize,
    first_ones: usize,
    /// The first dense dictionary: its column, `dict_len` and `first`.
    dense: Option<(usize, usize, usize)>,
    /// The first range record: its `rows` and `first`.
    range_rows: usize,
    range_first: usize,
}

fn block_fields(raw: &[u8]) -> BlockFields {
    let (index, end) = index_span(raw);
    let mut index = Reader::new(&raw[index..end]);
    read_str(&mut index).unwrap();
    let (block, len) = (index.u64().unwrap() as usize, index.u64().unwrap() as usize);
    let mut r = Reader::new(&raw[block..block + len]);
    let at = |r: &Reader<'_>| block + r.position();
    let table_name_len = at(&r);
    read_str(&mut r).unwrap();
    let arity_at = at(&r);
    let arity = r.u16().unwrap();
    for _ in 0..arity {
        read_str(&mut r).unwrap();
        r.u8().unwrap();
    }
    let key_len = at(&r);
    let keys = r.u16().unwrap();
    r.take(2 * keys as usize).unwrap();
    let table_rows = at(&r);
    r.u64().unwrap();
    let mut f = BlockFields {
        table_name_len,
        arity: arity_at,
        key_len,
        table_rows,
        dict_tag: Vec::new(),
        dict_len: Vec::new(),
        first_value_tag: Vec::new(),
        seg_count: Vec::new(),
        str_len: 0,
        present: 0,
        first_ones: 0,
        dense: None,
        range_rows: 0,
        range_first: 0,
    };
    for c in 0..arity as usize {
        f.dict_tag.push(at(&r));
        let dense = r.u8().unwrap() & 0x80 != 0;
        f.dict_len.push(at(&r));
        let n = r.u32().unwrap();
        if dense {
            f.dense.get_or_insert((c, at(&r) - 4, at(&r)));
            f.first_value_tag.push(None);
            r.i64().unwrap();
        } else {
            f.first_value_tag.push(Some(at(&r)));
            for _ in 0..n {
                let tag_at = at(&r);
                if let Value::Str(_) = read_value(&mut r).unwrap() {
                    if f.str_len == 0 {
                        f.str_len = tag_at + 1;
                    }
                }
            }
        }
        r.take(1 + 8).unwrap();
        f.seg_count.push(at(&r));
        let segs = r.u32().unwrap();
        for _ in 0..segs {
            if r.u8().unwrap() & !2 == 8 {
                if f.range_rows == 0 {
                    (f.range_rows, f.range_first) = (at(&r), at(&r) + 8);
                }
                r.take(8 + 4).unwrap();
                continue;
            }
            r.take(5 * 8).unwrap();
            let present_at = at(&r);
            let present = r.u32().unwrap() as usize;
            r.take(4 * present).unwrap();
            if f.present == 0 {
                f.present = present_at;
                f.first_ones = at(&r);
            }
            r.take(8 * present).unwrap();
        }
    }
    r.finish().unwrap();
    f
}

#[test]
fn targeted_metadata_mutations_are_typed_errors() {
    let f = block_fields(GOLDEN_TABLE);
    assert!(f.str_len > 0, "the golden table has a string dictionary");
    assert!(f.dense.is_some() && f.range_rows > 0, "and a dense key");
    let put = |at: usize, bytes: &[u8]| {
        let mut raw = GOLDEN_TABLE.to_vec();
        raw[at..at + bytes.len()].copy_from_slice(bytes);
        raw
    };
    let (dense_col, dense_len, dense_first) = f.dense.unwrap();
    let mut cases = vec![
        (
            "a huge table name length",
            put(f.table_name_len, &u32::MAX.to_le_bytes()),
        ),
        ("a huge schema arity", put(f.arity, &u16::MAX.to_le_bytes())),
        ("a zero schema arity", put(f.arity, &0u16.to_le_bytes())),
        ("a huge key count", put(f.key_len, &u16::MAX.to_le_bytes())),
        (
            "a key count past the columns",
            put(f.key_len, &5u16.to_le_bytes()),
        ),
        (
            "a huge string length",
            put(f.str_len, &u32::MAX.to_le_bytes()),
        ),
        (
            "a string length past its value",
            put(f.str_len, &64u32.to_le_bytes()),
        ),
        (
            "a huge present-id count",
            put(f.present, &u32::MAX.to_le_bytes()),
        ),
        (
            "a zero present-id count",
            put(f.present, &0u32.to_le_bytes()),
        ),
        ("a zero ones", put(f.first_ones, &0u64.to_le_bytes())),
        ("a huge ones", put(f.first_ones, &u64::MAX.to_le_bytes())),
        // A range's rows are not backed by bytes: its ids must stay inside
        // `u32` and the dictionary, and its rows agree with its column's.
        (
            "range rows past u64 bits",
            put(f.range_rows, &u64::MAX.to_le_bytes()),
        ),
        (
            "range rows past u32",
            put(f.range_rows, &(1u64 << 32).to_le_bytes()),
        ),
        ("zero range rows", put(f.range_rows, &0u64.to_le_bytes())),
        (
            "a range from id u32::MAX",
            put(f.range_first, &u32::MAX.to_le_bytes()),
        ),
        (
            "a range past the dictionary",
            put(f.range_first, &299u32.to_le_bytes()),
        ),
        (
            "range rows that disagree with the table's",
            put(f.range_rows, &129u64.to_le_bytes()),
        ),
        // A dense dictionary's count is not backed by bytes either: it must
        // not overflow `i64`, and must be 1 + the largest id named.
        (
            "a dense run past i64::MAX",
            put(dense_first, &(i64::MAX - 1).to_le_bytes()),
        ),
        (
            "a dense count of u32::MAX",
            put(dense_len, &u32::MAX.to_le_bytes()),
        ),
        (
            "a dense count past the largest id named",
            put(dense_len, &301u32.to_le_bytes()),
        ),
        (
            "a dense count short of the largest id named",
            put(dense_len, &299u32.to_le_bytes()),
        ),
        ("a zero dense count", put(dense_len, &0u32.to_le_bytes())),
    ];
    for c in 0..f.dict_len.len() {
        if let Some(tag) = f.first_value_tag[c] {
            cases.push(("an unknown value tag", put(tag, &[9])));
            cases.push((
                "a dense tag on a listed dictionary",
                put(f.dict_tag[c], &[raw_tag(c) | 0x80]),
            ));
        }
        if c != dense_col {
            cases.push((
                "a huge dictionary length",
                put(f.dict_len[c], &u32::MAX.to_le_bytes()),
            ));
        }
        cases.push((
            "a huge segment count",
            put(f.seg_count[c], &u32::MAX.to_le_bytes()),
        ));
    }
    for (what, raw) in &cases {
        match decode_table(Bytes::from(raw.clone())) {
            Err(StorageError::PersistError(_)) => {}
            Err(other) => panic!("{what}: wanted a PersistError, got {other:?}"),
            Ok(_) => panic!("{what}: accepted"),
        }
    }
    println!(
        "targeted block mutations: {} inputs, 0 decoded",
        cases.len()
    );
}

/// Neither a dense dictionary's count nor a range's rows is backed by
/// bytes, so the open sizes nothing from them: a key column of `u32::MAX`
/// rows and values — a 13-byte range record under a 13-byte dictionary —
/// opens, and its metadata answers, without a per-value or per-row
/// allocation (one would be tens of gigabytes).
#[test]
fn a_dense_key_of_u32_max_values_opens_without_allocating() {
    let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
    let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::int(i)]).collect();
    let raw = encode_table(&Table::from_rows("keys", schema, &rows).unwrap()).to_vec();
    let f = block_fields(&raw);
    let (_, dense_len, _) = f.dense.expect("a dense dictionary");
    let mut raw = raw;
    let n = u64::from(u32::MAX);
    raw[f.table_rows..f.table_rows + 8].copy_from_slice(&n.to_le_bytes());
    raw[dense_len..dense_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    raw[f.range_rows..f.range_rows + 8].copy_from_slice(&n.to_le_bytes());
    let t = decode_table(Bytes::from(raw)).unwrap();
    let k = t.column(0);
    assert_eq!((t.rows(), k.distinct_count()), (n, u32::MAX as usize));
    assert!(k.segments()[0].meta().is_range());
    assert_eq!(
        k.dict().id_of(&Value::int(i64::from(u32::MAX) - 1)),
        Some(u32::MAX - 1)
    );
    assert_eq!(k.value_count(123_456_789), 1);
    assert_eq!((k.zone(0).min_id, k.zone(0).max_id), (0, u32::MAX - 1));
}

/// The golden table's type tag of column `c`.
fn raw_tag(c: usize) -> u8 {
    decode_table(Bytes::from(GOLDEN_TABLE.to_vec()))
        .unwrap()
        .schema()
        .columns()[c]
        .ty
        .tag()
}

/// `golden`'s payloads and blocks under a hand-built index, which its
/// first slot commits.
fn with_index(golden: &[u8], index: &[u8]) -> Vec<u8> {
    let at = index_span(golden).0;
    let mut raw = golden[..at].to_vec();
    raw.extend_from_slice(index);
    let fields = [1, at as u64, index.len() as u64, wal::checksum(&[index])];
    raw[PREAMBLE_LEN..PREAMBLE_LEN + SLOT_LEN].copy_from_slice(&slot_bytes(fields));
    raw
}

fn entry(out: &mut Vec<u8>, name: &str, off: u64, len: u64) {
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&off.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
}

/// The golden catalog's entries: `(name, off, len)` in index order.
fn catalog_entries() -> Vec<(String, u64, u64)> {
    let (start, end) = index_span(GOLDEN_CATALOG);
    let mut index = &GOLDEN_CATALOG[start..end];
    let mut take = |n: usize| {
        let (head, rest) = index.split_at(n);
        index = rest;
        head.to_vec()
    };
    take(8);
    let count = u32::from_le_bytes(take(4).try_into().unwrap());
    (0..count)
        .map(|_| {
            let len = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
            let name = String::from_utf8(take(len)).unwrap();
            let off = u64::from_le_bytes(take(8).try_into().unwrap());
            (name, off, u64::from_le_bytes(take(8).try_into().unwrap()))
        })
        .collect()
}

fn catalog_index(count: u32, entries: &[(&str, u64, u64)]) -> Vec<u8> {
    let mut index = 2u64.to_le_bytes().to_vec();
    index.extend_from_slice(&count.to_le_bytes());
    for &(name, off, len) in entries {
        entry(&mut index, name, off, len);
    }
    index
}

fn refused(what: &str, raw: Vec<u8>) {
    match decode_catalog(Bytes::from(raw)) {
        Err(StorageError::PersistError(_)) => {}
        Err(other) => panic!("{what}: wanted a PersistError, got {other:?}"),
        Ok(c) => panic!("{what}: accepted as {:?}", c.table_names()),
    }
}

#[test]
fn hostile_indexes_are_typed_errors() {
    let entries = catalog_entries();
    let [(a, a_off, a_len), (b, b_off, b_len)] = &entries[..] else {
        panic!("the golden catalog holds two tables: {entries:?}");
    };
    let (a, b) = (a.as_str(), b.as_str());
    let at = index_span(GOLDEN_CATALOG).0 as u64;
    // Sanity: the index rebuilt as it is decodes.
    let good = catalog_index(2, &[(a, *a_off, *a_len), (b, *b_off, *b_len)]);
    assert!(decode_catalog(Bytes::from(with_index(GOLDEN_CATALOG, &good))).is_ok());

    let file_len = GOLDEN_CATALOG.len() as u64;
    for (what, index) in [
        (
            "a block past EOF",
            catalog_index(2, &[(a, *a_off, *a_len), (b, file_len, *b_len)]),
        ),
        (
            "a block running past EOF",
            catalog_index(2, &[(a, *a_off, *a_len), (b, *b_off, file_len)]),
        ),
        (
            "a block overlapping the index",
            catalog_index(2, &[(a, *a_off, *a_len), (b, at - 4, *b_len)]),
        ),
        (
            "a block whose end overflows",
            catalog_index(2, &[(a, *a_off, *a_len), (b, u64::MAX - 2, 8)]),
        ),
        (
            "a block in the preamble",
            catalog_index(2, &[(a, 0, *a_len), (b, *b_off, *b_len)]),
        ),
        (
            "a block in the slots",
            catalog_index(2, &[(a, PREAMBLE_LEN as u64, *a_len), (b, *b_off, *b_len)]),
        ),
        (
            "an empty block",
            catalog_index(2, &[(a, *a_off, 0), (b, *b_off, *b_len)]),
        ),
        (
            "two blocks overlapping",
            catalog_index(2, &[(a, *a_off, *a_len), (b, *a_off + 1, *b_len)]),
        ),
        (
            "one block named twice",
            catalog_index(2, &[(a, *a_off, *a_len), (b, *a_off, *a_len)]),
        ),
        (
            "a duplicate name",
            catalog_index(2, &[(a, *a_off, *a_len), (a, *b_off, *b_len)]),
        ),
        (
            "a name its block does not hold",
            catalog_index(2, &[(b, *a_off, *a_len), (a, *b_off, *b_len)]),
        ),
        (
            "a block cut short",
            catalog_index(2, &[(a, *a_off, *a_len - 1), (b, *b_off, *b_len)]),
        ),
        (
            "a huge table_count",
            catalog_index(u32::MAX, &[(a, *a_off, *a_len), (b, *b_off, *b_len)]),
        ),
        (
            "a count past the entries",
            catalog_index(3, &[(a, *a_off, *a_len), (b, *b_off, *b_len)]),
        ),
        (
            "an entry past the count",
            catalog_index(1, &[(a, *a_off, *a_len), (b, *b_off, *b_len)]),
        ),
        ("an index cut inside its head", 2u64.to_le_bytes().to_vec()),
    ] {
        refused(what, with_index(GOLDEN_CATALOG, &index));
    }

    // A table file's index is one entry; a huge name length must not be
    // sized from.
    let mut index = u32::MAX.to_le_bytes().to_vec();
    index.extend_from_slice(b"users");
    match decode_table(Bytes::from(with_index(GOLDEN_TABLE, &index))) {
        Err(StorageError::PersistError(_)) => {}
        other => panic!("a huge name length: {:?}", other.map(|t| t.rows())),
    }
    assert!(HEADER_LEN < *a_off as usize);
}

// ---- The commit slots ----

/// The fixture's first slot replaced by `first` and its second by
/// `second`, read through both decoders: it must be `Corrupt`.
fn slots_refused(what: &str, golden: &[u8], first: [u8; SLOT_LEN], second: [u8; SLOT_LEN]) {
    let mut raw = golden.to_vec();
    raw[PREAMBLE_LEN..PREAMBLE_LEN + SLOT_LEN].copy_from_slice(&first);
    raw[PREAMBLE_LEN + SLOT_LEN..HEADER_LEN].copy_from_slice(&second);
    let table = decode_table(Bytes::from(raw.clone())).map(|t| t.rows());
    let catalog = decode_catalog(Bytes::from(raw)).map(|c| c.table_names());
    for (decoder, err) in [("table", table.err()), ("catalog", catalog.err())] {
        match err {
            Some(StorageError::Corrupt(m)) => assert!(m.contains("torn tail"), "{what}: {m}"),
            other => panic!("{what} ({decoder} decoder): wanted Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn hostile_commit_slots_are_typed_errors() {
    for golden in [GOLDEN_TABLE, GOLDEN_CATALOG] {
        let committed = slot_fields(golden, 0);
        let [generation, off, len, sum] = committed;
        let good = slot_bytes(committed);
        assert_eq!(
            slot_fields(golden, 1),
            [0; 4],
            "a fresh image's second slot is empty"
        );
        let mut torn = good;
        torn[3] ^= 0x10;
        slots_refused("both slots invalid", golden, torn, [0; SLOT_LEN]);
        slots_refused("both slots empty", golden, [0; SLOT_LEN], [0; SLOT_LEN]);
        let file_len = golden.len() as u64;
        for (what, fields) in [
            ("an index past EOF", [generation, file_len, len, sum]),
            (
                "an index running past EOF",
                [generation, off, file_len, sum],
            ),
            (
                "an index whose end overflows",
                [generation, off, u64::MAX, sum],
            ),
            (
                "an index over the slots",
                [generation, PREAMBLE_LEN as u64, len, sum],
            ),
            ("an index in the preamble", [generation, 0, len, sum]),
            (
                "an index that fails its checksum",
                [generation, off, len, !sum],
            ),
            ("an index cut short", [generation, off, len - 1, sum]),
        ] {
            slots_refused(what, golden, slot_bytes(fields), [0; SLOT_LEN]);
        }
        // Two valid slots naming one generation: no writer makes them, and
        // which state is committed is undefined, so the file is refused.
        slots_refused("equal generations", golden, good, good);
        // A newer generation in the second slot wins over the first slot,
        // whatever the first one holds.
        let mut raw = golden.to_vec();
        raw[PREAMBLE_LEN + SLOT_LEN..HEADER_LEN].copy_from_slice(&slot_bytes([
            generation + 1,
            off,
            len,
            sum,
        ]));
        raw[PREAMBLE_LEN..PREAMBLE_LEN + SLOT_LEN]
            .copy_from_slice(&slot_bytes([generation, file_len, 1, 0]));
        assert!(survives(&raw), "the newer valid slot commits");
    }
    println!("hostile commit slots: 2 fixtures x 10 slot pairs, 0 decoded");
}

/// A catalog file with two generations: `a` committed, then `b` added by
/// an append-save. Every truncation of the file into its slots and every
/// bit flip of the slots opens the newer state, the older one (a flip
/// tore the newer slot) or a typed error — never a panic, never a blend.
#[test]
fn every_slot_mutation_of_a_two_generation_file_opens_a_whole_state() {
    let path = scratch("slots");
    let kv = [("k", ValueType::Int), ("v", ValueType::Str)];
    let cat = Catalog::new();
    cat.create(int_str_table("a", &kv, 40)).unwrap();
    save_catalog(&cat, &path).unwrap();
    let cat = read_catalog(&path).unwrap();
    cat.create(int_str_table("b", &kv, 24)).unwrap();
    save_catalog(&cat, &path).unwrap();
    drop(cat);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        (slot_fields(&bytes, 0)[0], slot_fields(&bytes, 1)[0]),
        (1, 2),
        "generation 2 went to the second slot"
    );
    let rows = |t: &str, n| int_str_table(t, &kv, n).to_rows();
    let (mut inputs, mut newer, mut older) = (0, 0, 0);
    let mut open = |raw: &[u8]| {
        inputs += 1;
        std::fs::write(&path, raw).unwrap();
        match read_catalog(&path) {
            Ok(cat) => {
                assert_eq!(cat.get("a").unwrap().to_rows(), rows("a", 40));
                match cat.get("b").ok() {
                    Some(b) => {
                        assert_eq!(b.to_rows(), rows("b", 24));
                        newer += 1;
                    }
                    None => older += 1,
                }
            }
            Err(StorageError::Corrupt(_) | StorageError::PersistError(_)) => {}
            Err(other) => panic!("an untyped error: {other:?}"),
        }
    };
    for cut in 0..HEADER_LEN {
        let mut raw = bytes.clone();
        raw.truncate(cut);
        open(&raw);
    }
    for at in PREAMBLE_LEN..HEADER_LEN {
        for bit in 0..8 {
            let mut raw = bytes.clone();
            raw[at] ^= 1 << bit;
            open(&raw);
        }
    }
    // Each slot's 320 bits: a flip in the older slot leaves the newer
    // state, a flip in the newer one tears it and the older state opens.
    assert_eq!((newer, older), (320, 320), "{inputs} inputs");
    println!("two-generation slot mutations: {inputs} inputs, {newer} newer, {older} older");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

// ---- Bitmap payloads: the head table, the arena decoder and the selective read ----

/// A bitmap payload of `bodies`, each a bitmap's words with its active word
/// last: the head table of their ends, then the words.
fn payload_of(bodies: &[Vec<u64>]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut end = 0u32;
    for b in bodies {
        end += b.len() as u32;
        out.extend_from_slice(&end.to_le_bytes());
    }
    for w in bodies.iter().flatten() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// A bitmap's body: its words, then its active word.
fn body(bm: &Wah) -> Vec<u64> {
    let mut b = bm.words().to_vec();
    b.push(bm.view().active());
    b
}

/// Each present id's rows.
fn ones_of(m: &SegMeta) -> Vec<u64> {
    m.present.iter().map(|(_, n)| n).collect()
}

/// Sets a meta's present ids and their rows.
fn set_list(m: &mut SegMeta, ids: Vec<u32>, ones: Vec<u64>) {
    m.present = Present::List {
        ids: ids.into(),
        ones: ones.into(),
    };
}

/// Sets the rows of a meta's present ids.
fn set_ones(m: &mut SegMeta, ones: Vec<u64>) {
    let ids = m.present.ids().collect();
    set_list(m, ids, ones);
}

/// The metadata of a one-value bitmap segment of `rows` rows whose body
/// holds `words` words before its active one.
fn one_value_meta(rows: u64, words: usize) -> SegMeta {
    SegMeta {
        rows,
        present: Present::List {
            ids: vec![0u32].into(),
            ones: vec![rows].into(),
        },
        runs: 1,
        bytes: 24 + 8 * words,
        encoding: Encoding::Bitmap,
    }
}

fn payload_refused(what: &str, meta: &SegMeta, raw: &[u8]) {
    match decode_payload(meta, raw) {
        Err(StorageError::PersistError(m)) => assert!(m.contains("segment payload"), "{what}: {m}"),
        Err(other) => panic!("{what}: wanted a PersistError, got {other:?}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

/// The selective read of each present position of `raw` on its own: a
/// typed `segment payload` error, or a bitmap that passes the per-bitmap
/// check — canonical, `rows` long, the meta's ones. Returns how many
/// positions read back.
fn selective_reads(what: &str, meta: &SegMeta, raw: &[u8]) -> usize {
    let mut read = 0;
    for i in 0..meta.distinct_count() {
        match read_bitmaps(meta, raw, &[i]) {
            Ok(bms) => {
                let bm = &bms[0];
                bm.check_invariants()
                    .unwrap_or_else(|e| panic!("{what}, position {i}: {e}"));
                assert_eq!(bm.len(), meta.rows, "{what}, position {i}");
                assert_eq!(
                    bm.count_ones(),
                    meta.present.ones(i),
                    "{what}, position {i}"
                );
                assert!(bm.words().len() * 8 < raw.len(), "{what}, position {i}");
                read += 1;
            }
            Err(StorageError::PersistError(m)) => {
                assert!(m.contains("segment payload"), "{what}, position {i}: {m}")
            }
            Err(other) => panic!("{what}, position {i}: wanted a PersistError, got {other:?}"),
        }
    }
    read
}

/// Both readers refuse `raw`: the whole decode, and the selective read at
/// each of the positions `at`.
fn refused_by_both(what: &str, meta: &SegMeta, raw: &[u8], at: &[usize]) {
    payload_refused(what, meta, raw);
    for &i in at {
        match read_bitmaps(meta, raw, &[i]) {
            Err(StorageError::PersistError(m)) => {
                assert!(m.contains("segment payload"), "{what}, position {i}: {m}")
            }
            other => panic!("{what}, position {i}: wanted a PersistError, got {other:?}"),
        }
    }
}

#[test]
fn hostile_bitmap_payloads_are_typed_errors() {
    // Three values over 200 rows: fills, literals and an active tail.
    let bitmaps = [
        Wah::from_sorted_positions((0..200).filter(|p| p % 3 == 0), 200),
        Wah::from_sorted_positions((0..200).filter(|p| p % 3 == 1 && *p < 130), 200),
        Wah::from_sorted_positions(
            (0..200).filter(|p| p % 3 == 2 || (*p >= 130 && p % 3 == 1)),
            200,
        ),
    ];
    let seg = Segment::from_bitmaps(
        200,
        vec![
            (2, bitmaps[0].clone()),
            (5, bitmaps[1].clone()),
            (9, bitmaps[2].clone()),
        ],
    );
    let enc = seg.enc();
    let meta = seg.meta().clone();
    let mut good = Vec::new();
    encode_payload(&enc, &mut good);
    let bodies: Vec<Vec<u64>> = bitmaps.iter().map(body).collect();
    assert_eq!(good, payload_of(&bodies), "the head table, then the bodies");
    assert_eq!(
        decode_payload(&meta, &good).unwrap(),
        enc,
        "the untouched payload decodes"
    );
    assert_eq!(
        read_bitmaps(&meta, &good, &[2, 0]).unwrap(),
        vec![bitmaps[2].clone(), bitmaps[0].clone()],
        "the selective read returns the positions asked for"
    );

    // Every truncation and every seeded single-byte flip, through the whole
    // decode and the selective read of every position.
    // A whole decode that passes may still hold overlapping bitmaps, which
    // the slot's own check answers with an error.
    let (mut inputs, mut decoded, mut read) = (0, 0, 0);
    let mut check = |raw: &[u8]| {
        inputs += 1;
        if let Ok(enc) = decode_payload(&meta, raw) {
            let _ = SegSlot::fresh(meta.clone(), enc).check_invariants();
            decoded += 1;
        }
        read += selective_reads("a mutated payload", &meta, raw);
    };
    for cut in 0..good.len() {
        check(&good[..cut]);
    }
    let mut rng = Rng(0x5EED_0010);
    for at in 0..good.len() {
        for _ in 0..4 {
            let mut raw = good.clone();
            raw[at] ^= 1 + rng.below(255) as u8;
            check(&raw);
        }
    }
    println!("bitmap payload mutations: {inputs} inputs, {decoded} decoded, {read} positions read");

    // Head entries that lie: one far past the words, in the first and the
    // last entry; one that eats the next bitmap's words; two that
    // decrease; the last past the end of the words region.
    let ends = |raw: &[u8]| -> [u32; 3] {
        std::array::from_fn(|k| u32::from_le_bytes(raw[4 * k..4 * k + 4].try_into().unwrap()))
    };
    let with_ends = |e: [u32; 3]| {
        let mut raw = good.clone();
        for (k, end) in e.iter().enumerate() {
            raw[4 * k..4 * k + 4].copy_from_slice(&end.to_le_bytes());
        }
        raw
    };
    let [e0, e1, e2] = ends(&good);
    for (what, e, at) in [
        ("a huge first end", [u32::MAX, e1, e2], &[0, 1][..]),
        ("a huge last end", [e0, e1, u32::MAX], &[2]),
        ("an end inside the next bitmap", [e0 + 2, e1, e2], &[0, 1]),
        ("ends that decrease", [e1, e0, e2], &[1, 2]),
        ("a zero end", [0, e1, e2], &[0]),
        ("a repeated end", [e0, e0, e2], &[1]),
        ("an end past the words region", [e0, e1, e2 + 1], &[2]),
    ] {
        let raw = with_ends(e);
        refused_by_both(what, &meta, &raw, at);
        selective_reads(what, &meta, &raw);
    }
    let no_head = good[12..].to_vec();
    payload_refused("an empty head table with present ids", &meta, &no_head);
    selective_reads("an empty head table with present ids", &meta, &no_head);

    let mut raw = good.clone();
    raw.extend_from_slice(&[0; 8]);
    payload_refused("trailing bytes", &meta, &raw);
    refused_by_both("a cut payload", &meta, &good[..good.len() - 8], &[2]);

    let mut swapped = meta.clone();
    let ones = [
        bitmaps[0].count_ones(),
        bitmaps[1].count_ones(),
        bitmaps[2].count_ones(),
    ];
    set_ones(&mut swapped, vec![ones[0] + 1, ones[1] - 1, ones[2]]);
    refused_by_both(
        "ones that do not match the metadata",
        &swapped,
        &good,
        &[0, 1],
    );
    let mut runs = meta.clone();
    runs.runs += 1;
    payload_refused("runs that do not match the metadata", &runs, &good);

    // One-value segments whose single bitmap breaks one rule each.
    let zero_groups = FILL_FLAG; // a fill word of zero groups
    for (what, rows, words, active) in [
        ("len != rows", 126, vec![make_fill(true, 3)], 0),
        ("an empty bitmap", 126, vec![make_fill(false, 2)], 0),
        (
            "a zero-group fill",
            126,
            vec![zero_groups, make_fill(true, 2)],
            0,
        ),
        (
            "an unmerged fill",
            126,
            vec![make_fill(true, 1), make_fill(true, 1)],
            0,
        ),
        ("a zero literal", 126, vec![0, make_fill(true, 1)], 0),
        (
            "an all-one literal",
            126,
            vec![ALL_ONES_LITERAL, make_fill(true, 1)],
            0,
        ),
        (
            "an active word where rows fill whole groups",
            63,
            vec![],
            LIT_MASK,
        ),
        ("active bits past rows mod 63", 5, vec![], 0b11_1111),
        (
            "a length that overflows",
            63,
            vec![make_fill(true, MAX_FILL_GROUPS)],
            0,
        ),
    ] {
        let n = words.len();
        let mut b = words;
        b.push(active);
        refused_by_both(what, &one_value_meta(rows, n), &payload_of(&[b]), &[0]);
    }
    // Sanity: the same shape with nothing wrong decodes.
    let ok = payload_of(&[vec![make_fill(true, 2), 0]]);
    assert!(decode_payload(&one_value_meta(126, 1), &ok).is_ok());
    assert_eq!(
        selective_reads("a good one-value payload", &one_value_meta(126, 1), &ok),
        1
    );

    overlapping_bitmaps_are_a_typed_error_on_every_read();
}

// ---- Packed payloads: codes held to the metadata's ids and length ----

/// A packed payload — each row's present-id position bit-packed at the
/// segment's width, with no header — held to its metadata: every
/// truncation and seeded byte flip, a code at or past the present-id count,
/// padding bits set past the last row, lengths other than the one the
/// metadata gives, and codes or metadata whose recount disagrees, each a
/// typed `segment payload` error. The length is checked against the
/// metadata before a word is read, so nothing is sized past the payload,
/// however many rows the metadata claims. A one-row segment's payload is
/// one word, never empty: an empty extent is refused at open.
#[test]
fn hostile_packed_payloads_are_typed_errors() {
    use cods_storage::persist::encode_table;
    // Five values over 150 rows: width 3, so codes 5, 6 and 7 name no
    // present id, and 450 bits of codes leave 62 padding bits.
    let values = [3u32, 8, 11, 20, 42];
    let rows: Vec<u32> = (0..150).map(|r| values[(r * 7 + r / 11) % 5]).collect();
    let seq: cods_bitmap::RleSeq = rows.iter().copied().collect();
    let slot = SegmentEnc::seal(seq, Encoding::Packed, &mut SealScratch::default());
    let meta = slot.meta().clone();
    assert_eq!((meta.rows, meta.distinct_count(), meta.bytes), (150, 5, 64));
    let mut good = Vec::new();
    encode_payload(&slot.enc(), &mut good);
    assert_eq!(good.len(), 64);
    assert_eq!(
        decode_payload(&meta, &good).unwrap(),
        slot.enc(),
        "the untouched payload decodes"
    );

    // Every truncation and every seeded single-byte flip. A flip that
    // keeps every code in range and the recount equal decodes to a
    // segment that passes its own check.
    let (mut inputs, mut decoded) = (0, 0);
    let mut check = |raw: &[u8]| {
        inputs += 1;
        match decode_payload(&meta, raw) {
            Ok(enc) => {
                SegSlot::fresh(meta.clone(), enc)
                    .check_invariants()
                    .unwrap();
                decoded += 1;
            }
            Err(StorageError::PersistError(m)) => {
                assert!(m.contains("segment payload"), "{m}")
            }
            Err(other) => panic!("wanted a PersistError, got {other:?}"),
        }
    };
    for cut in 0..good.len() {
        check(&good[..cut]);
    }
    let mut rng = Rng(0x5EED_0011);
    for at in 0..good.len() {
        for _ in 0..4 {
            let mut raw = good.clone();
            raw[at] ^= 1 + rng.below(255) as u8;
            check(&raw);
        }
    }
    println!("packed payload mutations: {inputs} inputs, {decoded} decoded");

    // Row 0's code (bits 0..3) set to each value past the five ids.
    for code in 5u8..8 {
        let mut raw = good.clone();
        raw[0] = (raw[0] & !0b111) | code;
        payload_refused(&format!("code {code} of 5 ids"), &meta, &raw);
    }
    // A bit past the last row's code, in the last word.
    let mut raw = good.clone();
    raw[63] |= 0x80;
    payload_refused("a padding bit", &meta, &raw);
    // Lengths the metadata does not give.
    let mut raw = good.clone();
    raw.extend_from_slice(&[0; 8]);
    payload_refused("a trailing word", &meta, &raw);
    payload_refused("a cut word", &meta, &good[..56]);
    payload_refused("a cut byte", &meta, &good[..63]);
    payload_refused("an empty payload", &meta, &[]);
    // Row 0's code moved to another id: every code in range, the ones
    // recount to something else.
    let mut raw = good.clone();
    raw[0] ^= 0b001;
    payload_refused("a code that moves a row to another id", &meta, &raw);
    // Metadata that lies about a stat the codes recount.
    let lie = |what: &str, edit: &dyn Fn(&mut SegMeta)| {
        let mut m = meta.clone();
        edit(&mut m);
        payload_refused(what, &m, &good);
    };
    lie("ones", &|m| {
        let mut ones = ones_of(m);
        ones[0] += 1;
        ones[1] -= 1;
        set_ones(m, ones);
    });
    lie("runs", &|m| m.runs -= 1);
    lie("bytes", &|m| m.bytes = 56);
    lie("rows", &|m| {
        m.rows += 1;
        let mut ones = ones_of(m);
        ones[4] += 1;
        set_ones(m, ones);
    });
    lie("a sixth present id", &|m| {
        let mut ones = ones_of(m);
        ones[0] -= 1;
        ones.push(1);
        set_list(m, vec![3, 8, 11, 20, 42, 50], ones);
    });
    lie("four present ids (width 2)", &|m| {
        let mut ones = ones_of(m);
        let last = ones.pop().unwrap();
        ones[0] += last;
        set_list(m, vec![3, 8, 11, 20], ones);
    });
    lie("the encoding", &|m| m.encoding = Encoding::Bitmap);
    // Row counts whose payload length overflows or is far past the bytes:
    // refused before anything is sized from them.
    lie("rows past u64 bits", &|m| {
        m.rows = u64::MAX;
        set_ones(m, vec![u64::MAX - 4, 1, 1, 1, 1]);
    });
    lie("2^40 rows", &|m| {
        m.rows = 1 << 40;
        set_ones(m, vec![(1 << 40) - 4, 1, 1, 1, 1]);
    });

    // One row sealed packed is a range: no payload, and a payload given
    // to it is refused.
    let one = SegmentEnc::seal(
        [7u32].into_iter().collect(),
        Encoding::Packed,
        &mut SealScratch::default(),
    );
    assert!(one.meta().is_range());
    let mut raw = Vec::new();
    encode_payload(&one.enc(), &mut raw);
    assert!(raw.is_empty());
    payload_refused("a range given a payload", one.meta(), &[0; 8]);
    // One row listed: width 1, one word — a payload the open's `len > 0`
    // check accepts.
    let listed = SegMeta {
        rows: 1,
        present: Present::List {
            ids: vec![7u32].into(),
            ones: vec![1u64].into(),
        },
        runs: 1,
        bytes: 8,
        encoding: Encoding::Packed,
    };
    let raw = 0u64.to_le_bytes().to_vec();
    let SegmentEnc::Packed(p) = decode_payload(&listed, &raw).unwrap() else {
        panic!("a packed payload decodes to a packed segment");
    };
    assert_eq!((p.width(), p.id_at(0)), (1, 7));
    let mut raw1 = raw.clone();
    raw1[0] = 1;
    payload_refused("a one-row code past its one id", &listed, &raw1);
    payload_refused("an empty one-row payload", &listed, &[]);
    // And the sealed one round-trips through a table file as a range.
    let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
    let t = Table::from_rows("one", schema, &[vec![Value::int(7)]]).unwrap();
    assert_eq!(t.column(0).segment_encoding(0), Encoding::Packed);
    let back = decode_table(encode_table(&t)).unwrap();
    back.check_invariants().unwrap();
    assert_eq!(back.to_rows(), t.to_rows());
}

// ---- RLE payloads: the run codec, recounted against its metadata ----

/// Each stat of an RLE segment's metadata perturbed in turn — rows,
/// present ids, ones, runs and bytes, each lie kept consistent with the
/// metadata's own invariants so only the recount can catch it — and the
/// payload's own bytes cut, padded and over-counted: every case is a typed
/// `segment payload` error, never a segment whose stats lie to the cache
/// budget and the chooser.
#[test]
fn hostile_rle_payloads_are_typed_errors() {
    // Three runs over 48 rows: 5×10, 2×20, 5×18.
    let mut seq = cods_bitmap::RleSeq::new();
    for (id, n) in [(5, 10), (2, 20), (5, 18)] {
        seq.append_run(id, n);
    }
    let slot = SegmentEnc::seal(seq, Encoding::Rle, &mut SealScratch::default());
    let meta = slot.meta().clone();
    assert_eq!((meta.rows, meta.runs, meta.bytes), (48, 3, 48));
    let mut good = Vec::new();
    encode_payload(&slot.enc(), &mut good);
    assert_eq!(
        decode_payload(&meta, &good).unwrap(),
        slot.enc(),
        "the untouched payload decodes"
    );
    let lie = |what: &str, edit: &dyn Fn(&mut SegMeta)| {
        let mut m = meta.clone();
        edit(&mut m);
        payload_refused(what, &m, &good);
    };
    lie("rows", &|m| {
        m.rows += 1;
        let ones = ones_of(m);
        set_ones(m, vec![ones[0], ones[1] + 1]);
    });
    lie("present ids", &|m| set_list(m, vec![2, 7], ones_of(m)));
    lie("ones", &|m| {
        let ones = ones_of(m);
        set_ones(m, vec![ones[0] + 1, ones[1] - 1])
    });
    lie("runs", &|m| m.runs = 1);
    lie("bytes", &|m| m.bytes = 0);
    lie("encoding", &|m| m.encoding = Encoding::Bitmap);

    let mut raw = good.clone();
    raw.extend_from_slice(&[0; 12]);
    payload_refused("trailing bytes", &meta, &raw);
    payload_refused("a cut payload", &meta, &good[..good.len() - 12]);
    let mut raw = good.clone();
    raw[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    payload_refused("a huge run count", &meta, &raw);
    let mut raw = good.clone();
    raw[0..8].copy_from_slice(&47u64.to_le_bytes());
    payload_refused("a length that disagrees with the runs", &meta, &raw);
}

/// A `rows`-row segment of one value per row whose every bitmap sets row
/// 0: it matches an honest segment's metadata (ids `0..rows`, one set bit
/// each, one word or none per bitmap), so the payload decodes; rows `1..`
/// are then covered by no bitmap.
fn overlapping_segment(rows: u64) -> SegSlot {
    let bit = |r| Wah::from_sorted_positions([r], rows);
    let pairs = (0..rows).map(|r| (r as u32, bit(r))).collect();
    let honest = Segment::from_bitmaps(rows, pairs);
    let raw = payload_of(&vec![body(&bit(0)); rows as usize]);
    let enc = decode_payload(honest.meta(), &raw).expect("each bitmap is well formed");
    SegSlot::fresh(honest.meta().clone(), enc)
}

/// Row `r` of a 2-row segment.
fn row(r: u64) -> Wah {
    Wah::from_sorted_positions([r], 2)
}

fn ids(n: u64) -> Dictionary {
    Dictionary::from_values((0..n as i64).map(|i| Value::int(10 * (i + 1))).collect()).unwrap()
}

fn corrupt<T: std::fmt::Debug>(what: &str, r: Result<T, StorageError>) {
    match r {
        Err(StorageError::Corrupt(m)) => assert!(m.contains("uncovered"), "{what}: {m}"),
        other => panic!("{what}: wanted a Corrupt error, got {other:?}"),
    }
}

/// Every read of the overlapping segment's ids or runs must answer with a
/// typed error, not a sentinel id — the write paths' reads too: filtering,
/// gathering and slicing read the rows they write. Two sizes: the 2-row
/// segment, and a 64-row one of 64 values, where filtering every row
/// costs `v·m > 8·rows`.
fn overlapping_bitmaps_are_a_typed_error_on_every_read() {
    for rows in [2u64, 64] {
        let segment = vec![overlapping_segment(rows)];
        let col = EncodedColumn::from_segments(ValueType::Int, ids(rows), segment, rows);
        corrupt("try_ids_in", col.try_ids_in(&[(0, rows)]).map(drop));
        corrupt("try_runs_in", col.try_runs_in(&[(1, 2)]).map(drop));
        let every: Vec<u64> = (0..rows).collect();
        corrupt("filter_positions", col.filter_positions(&every).map(drop));
        corrupt(
            "filter_bitmap",
            col.filter_bitmap(&Wah::ones(rows)).map(drop),
        );
        corrupt("gather", col.gather(&every).map(drop));
        corrupt("slice", col.slice(1, rows).map(drop));
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let t = Arc::new(Table::new("t", schema, vec![Arc::new(col)]).unwrap());
        let mut scan = ScanStream::new(t, &Predicate::True, None).unwrap();
        corrupt("ScanStream::try_next", scan.try_next().map(drop));
    }
}

/// Recoding the overlapping segment to RLE reads its ids too: the segment,
/// a column recode, and a compaction whose group mixes it with a pinned
/// RLE segment must each answer with the typed error, not runs of a
/// sentinel id.
#[test]
fn an_overlapping_segment_recoded_to_rle_is_a_typed_error() {
    let decoded = overlapping_segment(2);
    let col = EncodedColumn::from_segments(ValueType::Int, ids(2), vec![decoded.clone()], 2);
    corrupt(
        "EncodedColumn::with_encoding",
        col.with_encoding(RecodeScope::Segments(0..1), RecodeTarget::To(Encoding::Rle)),
    );
    corrupt("EncodedColumn::recode", col.recode(Encoding::Rle));
    let honest = Segment::from_bitmaps(2, vec![(0, row(0)), (1, row(1))]);
    let mixed = EncodedColumn::from_segments(ValueType::Int, ids(2), vec![decoded, honest], 64)
        .with_encoding(RecodeScope::Segments(1..2), RecodeTarget::To(Encoding::Rle))
        .unwrap();
    corrupt("EncodedColumn::compacted", mixed.compacted());
}

// ---- The commit log: a recorded format-3 `.clog` ----

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cods_hostile_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("c.cods")
}

fn commit(cat: &Catalog, drops: &[&str], puts: Vec<Table>) {
    let (base, _) = cat.begin_evolution();
    let drops: Vec<String> = drops.iter().map(|d| d.to_string()).collect();
    cat.commit_evolution(base, &drops, puts.into_iter().map(Arc::new).collect())
        .unwrap();
}

fn int_str_table(name: &str, cols: &[(&str, ValueType)], rows: i64) -> Table {
    let schema = Schema::build(cols, &[]).unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            cols.iter()
                .map(|(_, ty)| match ty {
                    ValueType::Str => Value::str(format!("s{}", i % 3)),
                    _ => Value::int(i % 5),
                })
                .collect()
        })
        .collect();
    Table::from_rows(name, schema, &data).unwrap()
}

/// A log of three records: a put that carries its whole image; a put that
/// references both columns of the table the same record drops and carries
/// a third; a put that only references.
fn recorded_clog() -> Vec<u8> {
    let target = scratch("record");
    let (cat, _log, _) = open_durable(&target).unwrap();
    let kv = [("k", ValueType::Int), ("v", ValueType::Str)];
    commit(&cat, &[], vec![int_str_table("r", &kv, 12)]);
    let r = cat.begin_evolution().1["r"].clone();
    let w = int_str_table("w", &[("w", ValueType::Int)], 12);
    let kvw = [
        ("k", ValueType::Int),
        ("v", ValueType::Str),
        ("w", ValueType::Int),
    ];
    let columns = vec![
        r.column(0).clone(),
        r.column(1).clone(),
        w.column(0).clone(),
    ];
    let s = Table::new("s", Schema::build(&kvw, &[]).unwrap(), columns).unwrap();
    commit(&cat, &["r"], vec![s]);
    let s = cat.begin_evolution().1["s"].clone();
    commit(&cat, &[], vec![s.renamed("t")]);
    let status = log_status(&target).unwrap();
    assert_eq!(status.records, 3);
    let (referenced, carried) = status
        .pending
        .iter()
        .flat_map(|r| &r.puts)
        .fold((0, 0), |(r, c), p| (r + p.referenced, c + p.carried));
    assert_eq!((referenced, carried), (5, 3), "{:?}", status.pending);
    let raw = std::fs::read(clog_path(&target)).unwrap();
    std::fs::remove_dir_all(target.parent().unwrap()).ok();
    raw
}

/// `(start, end)` of each frame of a log: its tag, length and payload,
/// which its checksum covers.
fn frames(log: &[u8]) -> Vec<(usize, usize)> {
    let mut r = Reader::new(&log[6..]);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let start = 6 + r.position();
        r.u32().unwrap();
        let len = r.u64().unwrap() as usize;
        r.take(len).unwrap();
        out.push((start, 6 + r.position()));
        r.u64().unwrap();
    }
    out
}

/// Opens `log` as the commit log of a fresh target both ways; returns
/// whether the durable open succeeded. A replayed table is used to the
/// end, as a decoded table file is.
fn log_survives(target: &Path, log: &[u8]) -> bool {
    std::fs::write(clog_path(target), log).unwrap();
    let _ = log_status(target);
    match open_durable(target) {
        Ok((cat, _log, _)) => {
            for t in cat.snapshot() {
                exercise(&t);
            }
            true
        }
        Err(_) => false,
    }
}

#[test]
fn hostile_commit_logs_are_typed_errors() {
    let log = recorded_clog();
    let target = scratch("replay");
    let (mut inputs, mut opened) = (0, 0);
    for cut in 0..log.len() {
        inputs += 1;
        opened += usize::from(log_survives(&target, &log[..cut]));
    }
    println!("clog truncations: {inputs} inputs, {opened} opened");

    // Flips inside record payloads, each frame's checksum recomputed, so
    // the record decoder (and the image decoder under it) sees them.
    let frames = frames(&log);
    assert_eq!(frames.len(), 3);
    let mut rng = Rng(0x00C0_D5C1);
    let (mut inputs, mut opened) = (0, 0);
    for _ in 0..1500 {
        let mut raw = log.clone();
        let (start, end) = frames[rng.below(frames.len())];
        let payload = start + 12..end;
        let at = payload.start + rng.below(payload.len());
        if rng.below(4) == 0 {
            for b in &mut raw[at..(at + 1 + rng.below(8)).min(end)] {
                *b = rng.next() as u8;
            }
        } else {
            raw[at] ^= 1 << rng.below(8);
        }
        let sum = wal::checksum(&[&raw[start..end]]);
        raw[end..end + 8].copy_from_slice(&sum.to_le_bytes());
        inputs += 1;
        opened += usize::from(log_survives(&target, &raw));
    }
    println!("clog payload flips: {inputs} inputs, {opened} opened");
    std::fs::remove_dir_all(target.parent().unwrap()).ok();
}

// ---- Dictionaries that repeat a value ----

/// A one-column table, one row per value, whose dictionary holds `values`
/// in id order.
fn one_value_per_row(values: &[Value]) -> Table {
    let ty = match values[0] {
        Value::Str(_) => ValueType::Str,
        _ => ValueType::Int,
    };
    let schema = Schema::build(&[("v", ty)], &[]).unwrap();
    let rows: Vec<Vec<Value>> = values.iter().map(|v| vec![v.clone()]).collect();
    Table::from_rows("d", schema, &rows).unwrap()
}

/// `raw` with the one encoding of `from` overwritten by `to`'s, which is
/// as long.
fn with_value_replaced(raw: &[u8], from: &Value, to: &Value) -> Vec<u8> {
    let (mut old, mut new) = (Vec::new(), Vec::new());
    put_value(&mut old, from);
    put_value(&mut new, to);
    assert_eq!(old.len(), new.len());
    let at: Vec<usize> = (0..raw.len() - old.len())
        .filter(|&i| raw[i..i + old.len()] == old[..])
        .collect();
    let [at] = at[..] else {
        panic!("{from} is encoded {} times", at.len());
    };
    let mut out = raw.to_vec();
    out[at..at + new.len()].copy_from_slice(&new);
    out
}

fn refused_as_persist_error<T>(what: &str, r: Result<T, StorageError>) {
    match r {
        Err(StorageError::PersistError(e)) => assert!(e.contains("duplicate"), "{what}: {e}"),
        Err(other) => panic!("{what}: wanted a PersistError, got {other:?}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn a_dictionary_that_repeats_a_value_is_refused_at_every_decode() {
    let big = |i: i64| Value::int(7_000_000_000 + i);
    let ascending_strs: Vec<Value> = (0..40).map(|i| Value::str(format!("v{i:03}"))).collect();
    let shuffled: Vec<Value> = (0..40).map(|i| big(i * 17 % 40)).collect();
    // A dense int run is stored by its bounds; this one is listed because
    // its middle value lies outside the run, until the mutation makes it
    // repeat its neighbour.
    let dense: Vec<Value> = (0..100)
        .map(|i| big(if i == 50 { 1000 } else { i }))
        .collect();
    let cases = [
        // [v000 .. v019, v019, v021 ..]: equal neighbours in an ascending run.
        (
            "a repeat adjacent inside an ascending run",
            &ascending_strs,
            20,
            19,
        ),
        // The first value again at the far end of a shuffled dictionary.
        (
            "a repeat far apart in a shuffled dictionary",
            &shuffled,
            39,
            0,
        ),
        // A dense int run whose first and last values still span its length.
        ("an ascending run of ints with one repeat", &dense, 50, 49),
    ];
    let target = scratch("dict_repeat");
    for (what, values, at, dup) in cases {
        let t = one_value_per_row(values);
        let (from, to) = (&values[at], &values[dup]);
        let table = with_value_replaced(&encode_table(&t), from, to);
        refused_as_persist_error(what, decode_table(Bytes::from(table)));

        let cat = Catalog::new();
        cat.create(t).unwrap();
        let catalog = with_value_replaced(&encode_catalog(&cat), from, to);
        refused_as_persist_error(what, decode_catalog(Bytes::from(catalog.clone())));
        std::fs::write(&target, &catalog).unwrap();
        refused_as_persist_error(what, read_catalog(&target));
        std::fs::remove_file(clog_path(&target)).ok();
        refused_as_persist_error(what, open_durable(&target).map(|(cat, _, _)| cat));
    }
    std::fs::remove_dir_all(target.parent().unwrap()).ok();
}
