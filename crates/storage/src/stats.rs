//! Storage statistics: compression ratios and size accounting, feeding the
//! `stats` command of both shells ([`render_stats`]), the `fig3` harness
//! and the compression examples.

use crate::encoded::{EncodedColumn, Encoding, EncodingCounts};
use crate::segment::Zone;
use crate::table::Table;
use crate::value::Value;

/// Per-column storage statistics. Since the unified directory a column's
/// segments may mix encodings, so the physical layout is reported as a
/// histogram plus the uniform encoding when there is one.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Rows in the column.
    pub rows: u64,
    /// The single encoding every segment shares, when homogeneous.
    pub encoding: Option<Encoding>,
    /// Segments per encoding in the directory.
    pub encodings: EncodingCounts,
    /// Packed segments that are ranges, recorded by their bounds (row `r`
    /// holds id `first + r`; no payload).
    pub range_segments: usize,
    /// `true` when the whole column was pinned by an explicit recode.
    pub encoding_pinned: bool,
    /// Segments pinned by a segment-range recode, counted whether or not
    /// the column pin covers them too. A pin never keeps a segment
    /// resident.
    pub pinned_segments: usize,
    /// Segments whose payload is currently decoded in memory (a range has
    /// no payload, and is counted in neither).
    pub resident_segments: usize,
    /// Segments currently paged out to their backing file (metadata only).
    pub on_disk_segments: usize,
    /// Distinct values (dictionary size).
    pub distinct: usize,
    /// Number of row-range segments.
    pub segments: usize,
    /// Column-wide value range from the zone maps (min, max), `None` when
    /// empty.
    pub value_range: Option<(Value, Value)>,
    /// Distinct values present in the densest segment (the per-segment
    /// sparsity win: ≤ `distinct`).
    pub max_segment_distinct: usize,
    /// Total maximal constant-value runs (the chooser's key statistic).
    pub runs: u64,
    /// Mean run length (`rows / runs`; 0 when empty).
    pub avg_run_len: f64,
    /// What the column-aggregate chooser would pick right now.
    pub chooser_pick: Encoding,
    /// Segments the per-segment chooser would put in each encoding.
    pub chooser_picks: EncodingCounts,
    /// Unpinned segments whose current encoding differs from the
    /// per-segment chooser's pick (what `auto` would re-encode).
    pub chooser_disagreements: usize,
    /// Compressed payload bytes — bitmap words or RLE runs, summed from
    /// segment stats.
    pub payload_bytes: usize,
    /// Dictionary bytes (approximate).
    pub dict_bytes: usize,
    /// Bytes an uncompressed `v × r` bit matrix would use.
    pub plain_matrix_bytes: usize,
    /// `plain_matrix_bytes / payload_bytes`: 0 when empty, infinite when
    /// the column stores no payload at all (every segment a range).
    pub compression_ratio: f64,
}

impl ColumnStats {
    /// Computes statistics for a column in either encoding.
    pub fn of(c: &EncodedColumn) -> ColumnStats {
        let payload_bytes = c.payload_bytes();
        let plain = (c.rows().div_ceil(8) as usize) * c.distinct_count();
        let runs = c.run_count();
        let zones = c.zones();
        let value_range = (!zones.is_empty()).then(|| {
            let ends: Vec<u32> = zones.iter().flat_map(|z| [z.min_id, z.max_id]).collect();
            let whole = Zone::of_ids(&ends, c.dict().value_order().rank_table());
            (
                c.dict().value(whole.min_id).into_owned(),
                c.dict().value(whole.max_id).into_owned(),
            )
        });
        let mut chooser_picks = EncodingCounts::default();
        let mut chooser_disagreements = 0;
        let mut pinned_segments = 0;
        let mut range_segments = 0;
        for (i, seg) in c.segments().iter().enumerate() {
            range_segments += usize::from(seg.meta().is_range());
            let pick = seg.meta().choose_encoding();
            chooser_picks[pick] += 1;
            if c.segment_pin_raw(i) {
                pinned_segments += 1;
            }
            if !c.segment_pinned(i) && pick != seg.meta().encoding {
                chooser_disagreements += 1;
            }
        }
        let (resident_segments, on_disk_segments) = c.residency_counts();
        ColumnStats {
            rows: c.rows(),
            encoding: c.uniform_encoding(),
            encodings: c.encoding_counts(),
            range_segments,
            encoding_pinned: c.encoding_pinned(),
            pinned_segments,
            resident_segments,
            on_disk_segments,
            distinct: c.distinct_count(),
            segments: c.segment_count(),
            value_range,
            max_segment_distinct: c.max_segment_distinct(),
            runs,
            avg_run_len: if runs == 0 {
                0.0
            } else {
                c.rows() as f64 / runs as f64
            },
            chooser_pick: c.choose_encoding(),
            chooser_picks,
            chooser_disagreements,
            payload_bytes,
            dict_bytes: c.dict().size_bytes(),
            plain_matrix_bytes: plain,
            compression_ratio: if plain == 0 {
                0.0
            } else if payload_bytes == 0 {
                f64::INFINITY
            } else {
                plain as f64 / payload_bytes as f64
            },
        }
    }
}

/// Per-table storage statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Rows in the table.
    pub rows: u64,
    /// Number of columns.
    pub arity: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
    /// Total compressed bytes (bitmaps + dictionaries).
    pub total_bytes: usize,
    /// Segments whose payload is currently decoded in memory, across all
    /// columns.
    pub resident_segments: usize,
    /// Segments currently paged out to their backing file.
    pub on_disk_segments: usize,
}

impl TableStats {
    /// Computes statistics for a table.
    pub fn of(t: &Table) -> TableStats {
        let columns: Vec<ColumnStats> = t.columns().iter().map(|c| ColumnStats::of(c)).collect();
        let total_bytes = columns.iter().map(|c| c.payload_bytes + c.dict_bytes).sum();
        TableStats {
            rows: t.rows(),
            arity: t.arity(),
            resident_segments: columns.iter().map(|c| c.resident_segments).sum(),
            on_disk_segments: columns.iter().map(|c| c.on_disk_segments).sum(),
            columns,
            total_bytes,
        }
    }
}

/// A column's compression ratio to at least two significant digits
/// (`0.042x`, `0.50x`, `1.5x`, `63x`), `inf` when it stores no payload and
/// `n/a` when it is empty.
fn ratio_text(c: &ColumnStats) -> String {
    let ratio = c.compression_ratio;
    if c.plain_matrix_bytes == 0 {
        return "n/a".to_string();
    }
    if ratio.is_infinite() {
        return "inf".to_string();
    }
    let decimals = (1.0 - ratio.log10().floor()).max(0.0) as usize;
    format!("{ratio:.decimals$}x")
}

/// Renders the `stats` command's text, which both shells print: the
/// [`TableStats`] header line, then per column its segment-encoding
/// histogram (a mixed directory shows e.g. `4×bitmap/12×rle/0×packed`),
/// pin state (the column pin and the segment-range pins, each shown when
/// set), how many packed segments are ranges (`[2×range]`, when any are),
/// segment directory shape, value range, run/distinct ratios, the
/// per-segment chooser's would-be picks and compression numbers, and last
/// the heap occupancy of each backing file.
pub fn render_stats(name: &str, t: &Table) -> String {
    use std::fmt::Write as _;
    let stats = TableStats::of(t);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: {} rows, {} columns, {} bytes compressed, {} resident / {} on-disk segments",
        stats.rows, stats.arity, stats.total_bytes, stats.resident_segments, stats.on_disk_segments
    );
    for (def, c) in t.schema().columns().iter().zip(&stats.columns) {
        let enc = match c.encoding {
            Some(e) => e.to_string(),
            None => c.encodings.to_string(),
        };
        let mut pin = match (c.encoding_pinned, c.pinned_segments) {
            (false, 0) => String::new(),
            (true, 0) => " (pinned)".to_string(),
            (false, n) => format!(" ({n}×pinned)"),
            (true, n) => format!(" (pinned, {n}×pinned)"),
        };
        if c.range_segments > 0 {
            pin.push_str(&format!(" [{}×range]", c.range_segments));
        }
        let _ = writeln!(
            out,
            "  {:<12} enc={:<7}{} distinct={:<8} segments={:<5} max-seg-distinct={:<8} payload={}B ratio={}",
            def.name,
            enc,
            pin,
            c.distinct,
            c.segments,
            c.max_segment_distinct,
            c.payload_bytes,
            ratio_text(c)
        );
        let range = match &c.value_range {
            Some((lo, hi)) => format!("[{lo} .. {hi}]"),
            None => "(empty)".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<12} range={} runs={} avg-run={:.1} run/distinct={:.1} chooser={}{}",
            "",
            range,
            c.runs,
            c.avg_run_len,
            if c.distinct == 0 {
                0.0
            } else {
                c.runs as f64 / c.distinct as f64
            },
            c.chooser_picks,
            if c.chooser_disagreements > 0 {
                format!(" ({} would re-encode)", c.chooser_disagreements)
            } else {
                String::new()
            }
        );
    }
    // Per-file heap occupancy: every file this table's segments page
    // from, with the dead bytes a `vacuum` of that file would reclaim.
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for c in t.columns() {
        for s in c.segments() {
            if let Some(p) = s.backing_path() {
                if !files.contains(&p) {
                    files.push(p);
                }
            }
        }
    }
    for path in files {
        match crate::vacuum::heap_stats(&path) {
            Ok(h) => {
                let _ = writeln!(
                    out,
                    "  file {}: {} bytes ({} heap = {} live + {} dead, {} meta); vacuum reclaims ~{} bytes",
                    path.display(),
                    h.file_bytes,
                    h.heap_bytes,
                    h.live_bytes,
                    h.dead_bytes,
                    h.meta_bytes,
                    h.dead_bytes
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "  file {}: heap stats unavailable ({e})",
                    path.display()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::{RecodeScope, RecodeTarget};
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    #[test]
    fn low_cardinality_ratio_is_high() {
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..100_000).map(|i| vec![Value::int(i / 50_000)]).collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let stats = TableStats::of(&t);
        assert_eq!(stats.rows, 100_000);
        assert_eq!(stats.columns[0].distinct, 2);
        assert!(
            stats.columns[0].compression_ratio > 50.0,
            "ratio {}",
            stats.columns[0].compression_ratio
        );
    }

    #[test]
    fn clustered_low_cardinality_uses_fewer_bytes() {
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        // Clustered: long runs per value — near-pure fills.
        let lo: Vec<Vec<Value>> = (0..4096).map(|i| vec![Value::int(i / 2048)]).collect();
        // All-distinct: each row its own id, a range — no payload at all.
        let hi: Vec<Vec<Value>> = (0..4096).map(|i| vec![Value::int(i)]).collect();
        // Near-unique: two rows per value, packed at one code per row.
        let near: Vec<Vec<Value>> = (0..4096).map(|i| vec![Value::int(i / 2)]).collect();
        let t_lo = TableStats::of(&Table::from_rows("lo", schema.clone(), &lo).unwrap());
        let t_hi = TableStats::of(&Table::from_rows("hi", schema.clone(), &hi).unwrap());
        let t_near = TableStats::of(&Table::from_rows("near", schema, &near).unwrap());
        // Relative to the v × r matrix, the high-cardinality column
        // compresses enormously: its range stores nothing.
        assert!(t_hi.columns[0].compression_ratio > 10.0);
        assert_eq!(t_hi.columns[0].compression_ratio, f64::INFINITY);
        assert_eq!(t_hi.columns[0].payload_bytes, 0);
        assert_eq!(t_hi.columns[0].range_segments, 1);
        // The near-unique column's packed codes cost more than the fills,
        // yet still compress by more than 10×.
        assert!(t_lo.columns[0].payload_bytes < t_near.columns[0].payload_bytes);
        assert!(t_near.columns[0].compression_ratio > 10.0);
        assert_eq!(t_near.columns[0].range_segments, 0);
    }

    #[test]
    fn stats_tell_the_worst_compressed_column_from_an_empty_one() {
        let schema = Schema::build(&[("a", ValueType::Str)], &[]).unwrap();
        // Two values over seven rows as bitmaps: a 2-byte plain matrix
        // under a 48-byte payload.
        let rows: Vec<Vec<Value>> = (0..7)
            .map(|i| vec![Value::str(if i % 3 == 0 { "x" } else { "y" })])
            .collect();
        let t = Table::from_rows("t", schema.clone(), &rows)
            .unwrap()
            .map_columns(None, |c| c.recode(crate::Encoding::Bitmap))
            .unwrap();
        let c = &TableStats::of(&t).columns[0];
        assert_eq!((c.plain_matrix_bytes, c.payload_bytes), (2, 48));
        let text = render_stats("t", &t);
        assert!(text.contains("payload=48B ratio=0.042x\n"), "{text}");
        let empty = Table::from_rows("e", schema, &[]).unwrap();
        let text = render_stats("e", &empty);
        assert!(text.contains("payload=0B ratio=n/a\n"), "{text}");
        let text = |ratio: f64| {
            ratio_text(&ColumnStats {
                compression_ratio: ratio,
                ..c.clone()
            })
        };
        assert_eq!(text(0.5), "0.50x");
        assert_eq!(text(1.5), "1.5x");
        assert_eq!(text(63.2), "63x");
        assert_eq!(text(f64::INFINITY), "inf");
    }

    #[test]
    fn dictionary_bytes_count_the_values_and_only_the_order_that_was_built() {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let n = 10_000i64;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::int(i), Value::int(i * 7919 % n)])
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let stats = TableStats::of(&t);
        let values = n as usize * std::mem::size_of::<Value>();
        // A dense int key: held by its bounds — no values (stats reads its
        // range from them), no map, an identity order.
        assert_eq!(stats.columns[0].dict_bytes, 0);
        // A shuffled column: its values and the order its zones sorted.
        assert_eq!(stats.columns[1].dict_bytes, values + n as usize * 8);
        let payload: usize = stats.columns.iter().map(|c| c.payload_bytes).sum();
        assert_eq!(stats.total_bytes, payload + values + n as usize * 8);
    }

    #[test]
    fn empty_table_stats() {
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let t = Table::from_rows("t", schema, &[]).unwrap();
        let stats = TableStats::of(&t);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.columns[0].distinct, 0);
    }

    #[test]
    fn stats_report_zones_runs_and_chooser_pick() {
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..2_000).map(|i| vec![Value::int(i / 100)]).collect();
        let t = Table::from_rows_with_segment_rows("t", schema, &rows, 500).unwrap();
        let s = &TableStats::of(&t).columns[0];
        assert_eq!(s.segments, 4);
        assert_eq!(
            s.value_range,
            Some((Value::int(0), Value::int(19))),
            "column range folds from per-segment zones"
        );
        assert_eq!(s.runs, 20, "clustered: one run per value");
        assert!((s.avg_run_len - 100.0).abs() < 1e-9);
        assert_eq!(s.chooser_pick, Encoding::Rle, "clustered column → RLE");
        assert_eq!(
            s.chooser_picks[Encoding::Rle],
            4,
            "every segment's own pick is RLE"
        );
        assert_eq!(s.chooser_disagreements, 4, "all four would re-encode");
        assert!(!s.encoding_pinned);
        assert_eq!(s.pinned_segments, 0);
    }

    #[test]
    fn rle_columns_report_segments() {
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 250)]).collect();
        let t = Table::from_rows_with_segment_rows("t", schema, &rows, 128)
            .unwrap()
            .map_columns(None, |c| c.recode(Encoding::Rle))
            .unwrap();
        let stats = TableStats::of(&t);
        assert_eq!(stats.columns[0].encoding, Some(Encoding::Rle));
        assert_eq!(stats.columns[0].encodings[Encoding::Rle], 8);
        assert_eq!(stats.columns[0].encodings[Encoding::Bitmap], 0);
        assert_eq!(stats.columns[0].segments, 8);
        assert!(stats.columns[0].max_segment_distinct <= stats.columns[0].distinct);
        assert!(stats.columns[0].payload_bytes > 0);
    }
    #[test]
    fn stats_report_residency_without_faulting() {
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 100)]).collect();
        let t = Table::from_rows_with_segment_rows("t", schema, &rows, 125).unwrap();
        // Fresh (never saved) segments are resident.
        let s = TableStats::of(&t);
        assert_eq!((s.resident_segments, s.on_disk_segments), (8, 0));
        // A lazy reopen is metadata-only, and computing stats must keep it
        // that way — nothing here touches a payload.
        let path =
            std::env::temp_dir().join(format!("cods_stats_residency_{}.tbl", std::process::id()));
        crate::persist::save_table(&t, &path).unwrap();
        let back = crate::persist::read_table(&path).unwrap();
        let s = TableStats::of(&back);
        assert_eq!((s.resident_segments, s.on_disk_segments), (0, 8));
        assert_eq!(
            s.columns[0].payload_bytes,
            TableStats::of(&t).columns[0].payload_bytes
        );
        assert_eq!(
            back.column(0).residency_counts(),
            (0, 8),
            "stats computation faulted a payload in"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_directories_report_a_histogram() {
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| vec![Value::int(i / 100)]).collect();
        let t = Table::from_rows_with_segment_rows("t", schema, &rows, 125).unwrap();
        let mixed = t
            .map_columns(Some("c"), |c| {
                c.with_encoding(RecodeScope::Segments(0..3), RecodeTarget::To(Encoding::Rle))
            })
            .unwrap();
        let s = &TableStats::of(&mixed).columns[0];
        assert_eq!(s.encoding, None, "mixed directory has no uniform encoding");
        assert_eq!(
            (s.encodings[Encoding::Bitmap], s.encodings[Encoding::Rle]),
            (5, 3)
        );
        assert_eq!(s.pinned_segments, 3);
        assert_eq!(
            s.chooser_picks[Encoding::Rle],
            8,
            "clustered: every pick is RLE"
        );
        assert_eq!(
            s.chooser_disagreements, 5,
            "the five unpinned bitmap segments"
        );
    }
}
