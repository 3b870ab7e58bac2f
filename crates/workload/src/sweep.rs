//! The Figure 3 experiment definition: which systems run, over which
//! distinct-value sweep, at which scale.

/// The distinct-value x-axis of Figure 3: 100, 1K, 10K, 100K, 1M.
pub const PAPER_SWEEP: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// The paper's row count (10M). The harness defaults to a scaled-down run
/// (`--rows`) because the baselines take minutes at full scale, exactly as
/// in the paper.
pub const PAPER_ROWS: u64 = 10_000_000;

/// The systems of Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum System {
    /// D — the data-level approach (CODS).
    Cods,
    /// C — commercial row-oriented RDBMS (query level).
    CommercialRow,
    /// C+I — commercial row-oriented RDBMS with indexes.
    CommercialRowIndexed,
    /// S — SQLite-like row store (journaled, row-at-a-time).
    SqliteLike,
    /// M — column store evolved at query level (MonetDB stand-in).
    ColumnQueryLevel,
}

impl System {
    /// The single-letter label used in Figure 3.
    pub fn label(self) -> &'static str {
        match self {
            System::Cods => "D",
            System::CommercialRow => "C",
            System::CommercialRowIndexed => "C+I",
            System::SqliteLike => "S",
            System::ColumnQueryLevel => "M",
        }
    }

    /// The systems of Figure 3(a) (decomposition).
    pub fn decomposition_systems() -> &'static [System] {
        &[
            System::Cods,
            System::CommercialRow,
            System::CommercialRowIndexed,
            System::SqliteLike,
            System::ColumnQueryLevel,
        ]
    }

    /// The systems of Figure 3(b) (mergence; the paper omits SQLite here).
    pub fn mergence_systems() -> &'static [System] {
        &[
            System::Cods,
            System::CommercialRow,
            System::CommercialRowIndexed,
            System::ColumnQueryLevel,
        ]
    }
}

/// A full sweep specification.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Row count of the generated table.
    pub rows: u64,
    /// Distinct-value points.
    pub distinct_values: Vec<u64>,
}

impl SweepSpec {
    /// The paper's configuration at a custom row count. Sweep points above
    /// the row count are dropped (you cannot have more distinct keys than
    /// rows).
    pub fn scaled(rows: u64) -> Self {
        SweepSpec {
            rows,
            distinct_values: PAPER_SWEEP.iter().copied().filter(|&d| d <= rows).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure3_legend() {
        assert_eq!(System::Cods.label(), "D");
        assert_eq!(System::CommercialRow.label(), "C");
        assert_eq!(System::CommercialRowIndexed.label(), "C+I");
        assert_eq!(System::SqliteLike.label(), "S");
        assert_eq!(System::ColumnQueryLevel.label(), "M");
    }

    #[test]
    fn figure3a_has_five_systems_3b_has_four() {
        assert_eq!(System::decomposition_systems().len(), 5);
        assert_eq!(System::mergence_systems().len(), 4);
        assert!(!System::mergence_systems().contains(&System::SqliteLike));
    }

    #[test]
    fn scaled_sweep_caps_at_rows() {
        let s = SweepSpec::scaled(50_000);
        assert_eq!(s.distinct_values, vec![100, 1_000, 10_000]);
        let full = SweepSpec::scaled(PAPER_ROWS);
        assert_eq!(full.distinct_values.len(), 5);
    }
}
