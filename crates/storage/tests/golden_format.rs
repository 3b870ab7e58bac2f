//! Pins the on-disk format: the committed fixtures under `tests/golden/`
//! were produced by `encode_table` / `encode_catalog` at the commit that
//! introduced format 8 (one metadata block per table behind a catalog
//! index). Against the v7 fixtures they replaced — checked byte by byte
//! before the replacement — the payload heap is identical, each table's
//! block is byte-identical to its v7 metadata record (the v7 catalog
//! region minus its 12-byte `version table_count` head), and what is new
//! is the preamble's version number and the index between the blocks and
//! the footer: `users (off, len)` for the table file (25 bytes),
//! `version 2, count 2` and two entries for the catalog (67 bytes). The
//! encoder must keep reproducing them byte for byte, the decoder must keep
//! reading them back to the same rows, encodings, pins and zones, every
//! preamble version other than the current one must be refused with the
//! typed unsupported-version error at every entry point, and no mutation of
//! their bytes may panic a decoder.
//!
//! To regenerate after a *deliberate* format change, write
//! `encode_table(&golden_table())` and `encode_catalog(&golden_catalog())`
//! over the two fixture files and bump `persist::VERSION`.

use bytes::Bytes;
use cods_storage::persist::{
    decode_catalog, decode_table, encode_catalog, encode_table, read_catalog, read_table, VERSION,
};
use cods_storage::{
    vacuum_file, Catalog, EncodedColumn, Encoding, Schema, StorageError, Table, Value, ValueType,
};
use std::sync::Arc;

const GOLDEN_TABLE: &[u8] = include_bytes!("golden/table.cods");
const GOLDEN_CATALOG: &[u8] = include_bytes!("golden/catalog.cods");

/// 300 rows in three 128-row segments: a key, all four value types, NULLs,
/// a mixed directory (`name`: segment 0 range-recoded — hence pinned — RLE,
/// the rest bitmap), a uniform unpinned RLE column (`active`) and a
/// whole-column pin (`score`).
fn golden_table() -> Table {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("name", ValueType::Str),
            ("score", ValueType::Float),
            ("active", ValueType::Bool),
        ],
        &["id"],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..300)
        .map(|i| {
            vec![
                Value::int(i),
                Value::str(format!("user{}", i / 40)),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::float((i % 11) as f64 / 4.0)
                },
                Value::Bool(i % 100 < 60),
            ]
        })
        .collect();
    Table::from_rows_with_segment_rows("users", schema, &rows, 128)
        .unwrap()
        .with_column_segment_range_encoding("name", Encoding::Rle, 0..1)
        .unwrap()
        .with_column_encoding("active", Encoding::Rle)
        .unwrap()
        .with_column_encoding_pinned("score", Encoding::Bitmap)
        .unwrap()
}

/// `users` plus a second table that shares its `id` column by `Arc`, so the
/// heap must store those payloads once and the decode must re-share them.
fn golden_catalog() -> Catalog {
    let users = golden_table();
    let flags: Vec<Value> = (0..300)
        .map(|i| {
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::Bool(i % 3 == 0)
            }
        })
        .collect();
    let schema = Schema::build(
        &[("id", ValueType::Int), ("flag", ValueType::Bool)],
        &["id"],
    )
    .unwrap();
    let flag = EncodedColumn::from_values_with(ValueType::Bool, &flags, 128).unwrap();
    let user_flags = Table::new(
        "user_flags",
        schema,
        vec![Arc::clone(users.column(0)), Arc::new(flag)],
    )
    .unwrap();
    let cat = Catalog::new();
    cat.create(users).unwrap();
    cat.create(user_flags).unwrap();
    cat
}

/// Rows, per-segment encodings, pins and zones of `back` equal `want`'s.
fn assert_same_table(back: &Table, want: &Table) {
    assert_eq!(back.name(), want.name());
    assert_eq!(back.schema(), want.schema());
    for (a, b) in want.columns().iter().zip(back.columns()) {
        assert_eq!(a.zones(), b.zones());
        assert_eq!(a.encoding_pinned(), b.encoding_pinned());
        assert_eq!(a.segment_count(), b.segment_count());
        for i in 0..a.segment_count() {
            assert_eq!(a.segment_encoding(i), b.segment_encoding(i), "segment {i}");
            assert_eq!(a.segment_pinned(i), b.segment_pinned(i), "segment {i} pin");
        }
    }
    assert_eq!(back.to_rows(), want.to_rows());
    back.check_invariants().unwrap();
}

#[test]
fn fixture_covers_what_it_claims() {
    let t = golden_table();
    let name = t.column_by_name("name").unwrap();
    assert_eq!(name.segment_count(), 3);
    assert_eq!(name.segment_encoding(0), Encoding::Rle);
    assert_eq!(name.segment_encoding(1), Encoding::Bitmap);
    assert!(name.segment_pinned(0) && !name.segment_pinned(1));
    let active = t.column_by_name("active").unwrap();
    assert_eq!(active.uniform_encoding(), Some(Encoding::Rle));
    assert!(!active.encoding_pinned());
    assert!(t.column_by_name("score").unwrap().encoding_pinned());
    assert!(t.to_rows().iter().any(|r| r[2].is_null()));
    assert_eq!(t.schema().key(), &[0]);
}

#[test]
fn encoder_reproduces_the_golden_bytes() {
    assert_eq!(encode_table(&golden_table()).as_slice(), GOLDEN_TABLE);
    assert_eq!(encode_catalog(&golden_catalog()).as_slice(), GOLDEN_CATALOG);
}

#[test]
fn decoder_reads_the_golden_bytes() {
    let want = golden_table();
    assert_same_table(
        &decode_table(Bytes::from(GOLDEN_TABLE.to_vec())).unwrap(),
        &want,
    );

    let cat = decode_catalog(Bytes::from(GOLDEN_CATALOG.to_vec())).unwrap();
    let want_cat = golden_catalog();
    assert_eq!(
        cat.version(),
        want_cat.version(),
        "a catalog starts at the stored version"
    );
    assert_eq!(cat.table_names(), want_cat.table_names());
    for name in cat.table_names() {
        assert_same_table(&cat.get(&name).unwrap(), &want_cat.get(&name).unwrap());
    }
    // Heap dedup: the shared `id` column is stored once and comes back as
    // one set of slots.
    let (users, flags) = (cat.get("users").unwrap(), cat.get("user_flags").unwrap());
    for (a, b) in users
        .column(0)
        .segments()
        .iter()
        .zip(flags.column(0).segments())
    {
        assert!(a.ptr_eq(b), "shared column must come back shared");
    }
}

#[test]
fn every_other_version_is_refused_at_every_entry_point() {
    fn refused<T: std::fmt::Debug>(what: &str, version: u16, r: Result<T, StorageError>) {
        match r {
            Err(StorageError::PersistError(m)) => {
                assert_eq!(m, format!("unsupported version {version}"), "{what}")
            }
            other => panic!("{what} on version {version}: {other:?}"),
        }
    }
    let dir = std::env::temp_dir();
    for version in [1u16, 2, 3, 4, 5, 6, 7, VERSION + 1] {
        for (kind, golden) in [("table", GOLDEN_TABLE), ("catalog", GOLDEN_CATALOG)] {
            let mut raw = golden.to_vec();
            raw[4..6].copy_from_slice(&version.to_le_bytes());
            refused(
                "decode_table",
                version,
                decode_table(Bytes::from(raw.clone())),
            );
            refused(
                "decode_catalog",
                version,
                decode_catalog(Bytes::from(raw.clone())),
            );
            let path = dir.join(format!(
                "cods_golden_{kind}_v{version}_{}.cods",
                std::process::id()
            ));
            std::fs::write(&path, &raw).unwrap();
            refused("read_table", version, read_table(&path));
            refused(
                "read_catalog",
                version,
                read_catalog(&path).map(|c| c.table_names()),
            );
            refused("vacuum_file", version, vacuum_file(&path));
            assert_eq!(
                std::fs::read(&path).unwrap(),
                raw,
                "a refused file is untouched"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
