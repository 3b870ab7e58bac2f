//! Hostile bytes for format 8: a seeded, in-tree mutation loop over the
//! golden table and catalog fixtures, plus hand-built hostile indexes.
//!
//! Every mutated image goes through both decoders. Whatever comes back must
//! be a typed error or a table that can be used to the end without a
//! panic: its invariants check (which faults every payload in and compares
//! it with its stats) returns, and when they hold its rows come out. Every
//! count read from disk is bounded by the bytes left before anything is
//! sized from it, so no mutation can ask for an unbounded allocation.

use bytes::Bytes;
use cods_storage::persist::{decode_catalog, decode_table};
use cods_storage::{StorageError, Table};

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
