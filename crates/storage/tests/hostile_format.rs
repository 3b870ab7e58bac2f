//! Hostile bytes for format 8 and the format-3 commit log: seeded, in-tree
//! mutation loops over the golden table and catalog fixtures and over a
//! recorded `.clog`, targeted mutations of the fields inside a table's
//! metadata block, plus hand-built hostile indexes and bitmap payloads.
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
use cods_storage::codec::{read_str, read_value, Reader};
use cods_storage::persist::{decode_catalog, decode_table};
use cods_storage::store::{decode_payload, encode_payload, SegMeta};
use cods_storage::{
    clog_path, log_status, open_durable, wal, Catalog, Dictionary, EncodedColumn, Encoding, Schema,
    SealScratch, SegSlot, Segment, SegmentEnc, StorageError, Table, Value, ValueType,
};
use std::path::{Path, PathBuf};
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
    println!("table-file bit flips: {inputs} inputs, {decoded} decoded");
}

/// File offsets of the fields of the golden table's block that a count or
/// tag is read from, found by walking the block with the codec.
struct BlockFields {
    table_name_len: usize,
    arity: usize,
    key_len: usize,
    /// Per column: the `dict_len`, its first value's tag, and its
    /// `seg_count`.
    dict_len: Vec<usize>,
    first_value_tag: Vec<usize>,
    seg_count: Vec<usize>,
    /// The length of the first string of the first `Str` dictionary.
    str_len: usize,
    /// The first column's first segment record: `present` and its first
    /// `ones`.
    present: usize,
    first_ones: usize,
    /// The first column's first zone.
    zone: usize,
}

fn block_fields(raw: &[u8]) -> BlockFields {
    let mut index = Reader::new(&raw[index_off(raw)..raw.len() - 12]);
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
    r.u64().unwrap();
    let mut f = BlockFields {
        table_name_len,
        arity: arity_at,
        key_len,
        dict_len: Vec::new(),
        first_value_tag: Vec::new(),
        seg_count: Vec::new(),
        str_len: 0,
        present: 0,
        first_ones: 0,
        zone: 0,
    };
    for c in 0..arity {
        r.u8().unwrap();
        f.dict_len.push(at(&r));
        let n = r.u32().unwrap();
        f.first_value_tag.push(at(&r));
        for _ in 0..n {
            let tag_at = at(&r);
            if let Value::Str(_) = read_value(&mut r).unwrap() {
                if f.str_len == 0 {
                    f.str_len = tag_at + 1;
                }
            }
        }
        r.take(1 + 8).unwrap();
        f.seg_count.push(at(&r));
        let segs = r.u32().unwrap();
        for s in 0..segs {
            r.take(1 + 5 * 8).unwrap();
            let present_at = at(&r);
            let present = r.u32().unwrap() as usize;
            r.take(4 * present).unwrap();
            if (c, s) == (0, 0) {
                f.present = present_at;
                f.first_ones = at(&r);
            }
            r.take(8 * present).unwrap();
        }
        if c == 0 {
            f.zone = at(&r);
        }
        r.take(8 * segs as usize).unwrap();
    }
    r.finish().unwrap();
    assert!(f.str_len > 0, "the golden table has a string dictionary");
    f
}

#[test]
fn targeted_metadata_mutations_are_typed_errors() {
    let f = block_fields(GOLDEN_TABLE);
    let put = |at: usize, bytes: &[u8]| {
        let mut raw = GOLDEN_TABLE.to_vec();
        raw[at..at + bytes.len()].copy_from_slice(bytes);
        raw
    };
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
        (
            "a zone id past the dictionary",
            put(f.zone, &u32::MAX.to_le_bytes()),
        ),
        (
            "a zone max past the dictionary",
            put(f.zone + 4, &u32::MAX.to_le_bytes()),
        ),
    ];
    for c in 0..f.dict_len.len() {
        cases.push(("an unknown value tag", put(f.first_value_tag[c], &[9])));
        cases.push((
            "a huge dictionary length",
            put(f.dict_len[c], &u32::MAX.to_le_bytes()),
        ));
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
        m.ones = vec![m.ones[0], m.ones[1] + 1].into();
    });
    lie("present ids", &|m| m.present_ids = vec![2, 7].into());
    lie("ones", &|m| {
        m.ones = vec![m.ones[0] + 1, m.ones[1] - 1].into()
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
    let mut raw = Vec::new();
    for _ in 0..rows {
        bit(0).encode(&mut raw);
    }
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
    corrupt("SegSlot::recoded", decoded.recoded(Encoding::Rle));
    let col = EncodedColumn::from_segments(ValueType::Int, ids(2), vec![decoded.clone()], 2);
    corrupt("EncodedColumn::recode", col.recode(Encoding::Rle));
    let honest = Segment::from_bitmaps(2, vec![(0, row(0)), (1, row(1))]);
    let mixed = EncodedColumn::from_segments(ValueType::Int, ids(2), vec![decoded, honest], 64)
        .recode_segments(1..2, Encoding::Rle)
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
