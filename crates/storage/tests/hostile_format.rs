//! Hostile bytes for format 8: a seeded, in-tree mutation loop over the
//! golden table and catalog fixtures, plus hand-built hostile indexes and
//! bitmap payloads.
//!
//! Every mutated image goes through both decoders. Whatever comes back must
//! be a typed error or a table that can be used to the end without a
//! panic: its invariants check (which faults every payload in and compares
//! it with its stats) returns, and when they hold its rows come out. Every
//! count read from disk is bounded by the bytes left before anything is
//! sized from it, so no mutation can ask for an unbounded allocation.

use bytes::Bytes;
use cods_bitmap::word::{make_fill, ALL_ONES_LITERAL, FILL_FLAG, LIT_MASK, MAX_FILL_GROUPS};
use cods_bitmap::Wah;
use cods_query::{Predicate, ScanStream};
use cods_storage::persist::{decode_catalog, decode_table};
use cods_storage::store::{decode_payload, encode_payload, SegMeta};
use cods_storage::{
    Dictionary, EncodedColumn, Encoding, Schema, Segment, SegmentEnc, StorageError, Table, Value,
    ValueType,
};
use std::sync::Arc;

const GOLDEN_TABLE: &[u8] = include_bytes!("golden/table.cods");
const GOLDEN_CATALOG: &[u8] = include_bytes!("golden/catalog.cods");

/// `magic:u32 version:u16`.
const PREAMBLE_LEN: usize = 6;
const MAGIC: u32 = 0xC0D5_0001;

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

fn index_off(raw: &[u8]) -> usize {
    let n = raw.len();
    u64::from_le_bytes(raw[n - 12..n - 4].try_into().unwrap()) as usize
}

#[test]
fn every_truncation_is_a_typed_error() {
    for golden in [GOLDEN_TABLE, GOLDEN_CATALOG] {
        for cut in 0..golden.len() {
            assert!(!survives(&golden[..cut]), "cut at {cut} accepted");
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let mut rng = Rng(0x00C0_D508);
    for golden in [GOLDEN_TABLE, GOLDEN_CATALOG] {
        // Every bit of the index and the footer, where a flip moves or
        // renames a block…
        for at in index_off(golden)..golden.len() {
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
}

/// `golden`'s heap (payloads and blocks) under a hand-built index.
fn with_index(golden: &[u8], index: &[u8]) -> Vec<u8> {
    let at = index_off(golden);
    let mut raw = golden[..at].to_vec();
    raw.extend_from_slice(index);
    raw.extend_from_slice(&(at as u64).to_le_bytes());
    raw.extend_from_slice(&MAGIC.to_le_bytes());
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
    let mut index = &GOLDEN_CATALOG[index_off(GOLDEN_CATALOG)..GOLDEN_CATALOG.len() - 12];
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
    let at = index_off(GOLDEN_CATALOG) as u64;
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
    assert!(PREAMBLE_LEN < *a_off as usize);
}

// ---- Bitmap payloads: the one-pass arena decoder ----

/// One serialized WAH stream: `len active active_bits word_count words…`.
fn stream(len: u64, active: u64, active_bits: u32, words: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&active.to_le_bytes());
    out.extend_from_slice(&active_bits.to_le_bytes());
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// The metadata of a one-value bitmap segment of `rows` rows whose payload
/// is one `words`-word stream.
fn one_value_meta(rows: u64, words: usize) -> SegMeta {
    SegMeta {
        rows,
        present_ids: vec![0u32].into(),
        ones: vec![rows].into(),
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
    let seg = Segment::new(
        200,
        vec![
            (2, bitmaps[0].clone()),
            (5, bitmaps[1].clone()),
            (9, bitmaps[2].clone()),
        ],
    );
    let enc = SegmentEnc::Bitmap(Arc::new(seg));
    let meta = SegMeta::of(&enc);
    let mut good = Vec::new();
    encode_payload(&enc, &mut good);
    assert_eq!(
        decode_payload(&meta, &good).unwrap(),
        enc,
        "the untouched payload decodes"
    );

    // A word count far past the bytes, in the first and in the last stream.
    for at in [20, good.len() - bitmaps[2].words().len() * 8 - 4] {
        let mut raw = good.clone();
        raw[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        payload_refused("a huge word_count", &meta, &raw);
    }
    // A count that fits the bytes but eats the next stream's header.
    let mut raw = good.clone();
    let n0 = bitmaps[0].words().len() as u32;
    raw[20..24].copy_from_slice(&(n0 + 2).to_le_bytes());
    payload_refused("a word_count past its stream", &meta, &raw);

    let mut raw = good.clone();
    raw.extend_from_slice(&[0; 8]);
    payload_refused("trailing bytes", &meta, &raw);
    payload_refused("a cut payload", &meta, &good[..good.len() - 8]);

    let mut swapped = meta.clone();
    let ones = [
        bitmaps[0].count_ones(),
        bitmaps[1].count_ones(),
        bitmaps[2].count_ones(),
    ];
    swapped.ones = vec![ones[0] + 1, ones[1] - 1, ones[2]].into();
    payload_refused("ones that do not match the metadata", &swapped, &good);
    let mut runs = meta.clone();
    runs.runs += 1;
    payload_refused("runs that do not match the metadata", &runs, &good);

    // One-value segments whose single stream breaks one rule each.
    let zero_groups = FILL_FLAG; // a fill word of zero groups
    for (what, rows, raw) in [
        ("len != rows", 126, stream(189, 0, 0, &[make_fill(true, 3)])),
        (
            "an empty bitmap",
            126,
            stream(126, 0, 0, &[make_fill(false, 2)]),
        ),
        (
            "a zero-group fill",
            126,
            stream(126, 0, 0, &[zero_groups, make_fill(true, 2)]),
        ),
        (
            "an unmerged fill",
            126,
            stream(126, 0, 0, &[make_fill(true, 1), make_fill(true, 1)]),
        ),
        (
            "a zero literal",
            126,
            stream(126, 0, 0, &[0, make_fill(true, 1)]),
        ),
        (
            "an all-one literal",
            126,
            stream(126, 0, 0, &[ALL_ONES_LITERAL, make_fill(true, 1)]),
        ),
        ("active_bits = 63", 63, stream(63, LIT_MASK, 63, &[])),
        ("active_bits past 63", 70, stream(70, 1, 70, &[])),
        (
            "active bits beyond active_bits",
            5,
            stream(5, 0b11_1111, 5, &[]),
        ),
        (
            "a length that overflows",
            63,
            stream(63, 0, 0, &[make_fill(true, MAX_FILL_GROUPS)]),
        ),
    ] {
        let words = (raw.len() - 24) / 8;
        payload_refused(what, &one_value_meta(rows, words), &raw);
    }
    // Sanity: the same shape with nothing wrong decodes.
    let ok = stream(126, 0, 0, &[make_fill(true, 2)]);
    assert!(decode_payload(&one_value_meta(126, 1), &ok).is_ok());

    overlapping_bitmaps_are_a_typed_error_on_every_read();
}

/// Two bitmaps that both set row 0 of a 2-row segment match an honest
/// segment's metadata (ids {0, 1}, one set bit each), so the payload
/// decodes; row 1 is then covered by neither. Every read of the segment's
/// ids or runs must answer with a typed error, not a sentinel id.
fn overlapping_bitmaps_are_a_typed_error_on_every_read() {
    let row = |r: u64| Wah::from_sorted_positions([r], 2);
    let honest = SegmentEnc::Bitmap(Arc::new(Segment::new(2, vec![(0, row(0)), (1, row(1))])));
    let mut raw = Vec::new();
    row(0).encode(&mut raw);
    row(0).encode(&mut raw);
    let decoded = decode_payload(&SegMeta::of(&honest), &raw).expect("each bitmap is well formed");
    let dict = Dictionary::from_values(vec![Value::int(10), Value::int(20)]).unwrap();
    let col = EncodedColumn::from_segments(ValueType::Int, dict, vec![decoded], 2);
    let corrupt = |what: &str, r: Result<(), StorageError>| match r {
        Err(StorageError::Corrupt(m)) => assert!(m.contains("uncovered"), "{what}: {m}"),
        other => panic!("{what}: wanted a Corrupt error, got {other:?}"),
    };
    corrupt("try_ids_in", col.try_ids_in(&[(0, 2)]).map(drop));
    corrupt("try_runs_in", col.try_runs_in(&[(1, 2)]).map(drop));
    let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
    let t = Arc::new(Table::new("t", schema, vec![Arc::new(col)]).unwrap());
    let mut scan = ScanStream::new(t, &Predicate::True, None).unwrap();
    corrupt("ScanStream::try_next", scan.try_next().map(drop));
}
