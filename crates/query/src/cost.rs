//! Per-operator cost estimates from **resident segment metadata**.
//!
//! Every estimate here reads only what a lazily opened catalog keeps in
//! memory — zone maps, per-segment present-id/ones stats, run counts,
//! dictionary sizes — so costing a query never faults a payload through the
//! buffer cache. The estimates drive three concrete choices:
//!
//! * the group-by key representation (packed `u64` vs composite tuples,
//!   [`groupby_ranking`]);
//! * the hash join's build side and its partition-pass count against the
//!   buffer cache's byte budget ([`join_costing`]);
//! * predicate selectivity ([`predicate_selectivity`]) feeding both — a
//!   single comparison, BETWEEN or IN is costed *exactly* (the per-segment
//!   `ones` stats count its matching rows), other boolean combinations use
//!   the usual independence algebra.
//!
//! [`crate::query::ResolvedQuery::explain`] renders each [`RankedChoice`] with the
//! alternatives the estimate rejected, in rank order.

use crate::agg::GroupKeySpace;
use crate::bitmap_scan::{fused_leaf, sat_set};
use crate::pred::Predicate;
use cods_storage::{EncodedColumn, Table};
use std::cmp::Ordering;

/// One costed alternative of a [`RankedChoice`].
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// Short strategy label, e.g. `keys=packed-u64` or `build=right`.
    pub label: String,
    /// Relative cost units — comparable only within one choice. Infinite
    /// for infeasible alternatives.
    pub cost: f64,
    /// The metadata inputs behind the number, human-readable.
    pub detail: String,
}

/// An estimate-driven decision: the cheapest feasible alternative first
/// (the chosen one), then every rejected alternative in rank order.
#[derive(Clone, Debug)]
pub struct RankedChoice {
    /// What was being decided.
    pub decision: String,
    /// Alternatives, cheapest first. Never empty.
    pub options: Vec<CostEstimate>,
}

impl RankedChoice {
    /// Ranks `options` by cost (stable: earlier entries win ties).
    fn ranked(decision: &str, mut options: Vec<CostEstimate>) -> RankedChoice {
        options.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal));
        RankedChoice {
            decision: decision.to_string(),
            options,
        }
    }

    /// The chosen (cheapest feasible) alternative.
    pub fn chosen(&self) -> &CostEstimate {
        &self.options[0]
    }

    /// The rejected alternatives, best runner-up first.
    pub fn rejected(&self) -> &[CostEstimate] {
        &self.options[1..]
    }

    /// Renders the choice as indented lines: chosen first (`->`), then
    /// each rejected alternative (`x`).
    pub fn describe(&self) -> String {
        let mut out = format!("{}:", self.decision);
        for (i, o) in self.options.iter().enumerate() {
            let mark = if i == 0 { "->" } else { " x" };
            let cost = if o.cost.is_finite() {
                format!("{:.0}", o.cost)
            } else {
                "inf".to_string()
            };
            out.push_str(&format!(
                "\n  {mark} {} cost={cost} ({})",
                o.label, o.detail
            ));
        }
        out
    }
}

/// Estimated fraction of `t`'s rows satisfying `pred`, in `[0, 1]`.
///
/// Whatever the mask evaluator takes as one leaf is exact: a comparison, a
/// same-column BETWEEN and a same-column `OR` of equalities (an IN) each
/// resolve to one satisfying set (`fused_leaf`), zone-mismatched
/// segments contribute zero, and surviving segments sum the resident
/// `ones` stats of their satisfying present ids — no payload is faulted.
/// Other `And`/`Or`/`Not` trees combine by independence.
pub fn predicate_selectivity(t: &Table, pred: &Predicate) -> f64 {
    if t.rows() == 0 {
        return 0.0;
    }
    let leaf = match pred {
        Predicate::Compare {
            column,
            op,
            literal,
        } => t
            .column_by_name(column)
            .ok()
            .map(|col| (&**col, sat_set(col, *op, literal))),
        // An error names a column the table does not have.
        _ => fused_leaf(t, pred).unwrap_or(None),
    };
    match (leaf, pred) {
        (Some((col, sat)), _) => sat.rows_in(col) as f64 / t.rows() as f64,
        (None, Predicate::And(a, b)) => predicate_selectivity(t, a) * predicate_selectivity(t, b),
        (None, Predicate::Or(a, b)) => {
            let (sa, sb) = (predicate_selectivity(t, a), predicate_selectivity(t, b));
            (sa + sb - sa * sb).min(1.0)
        }
        (None, Predicate::Not(p)) => 1.0 - predicate_selectivity(t, p),
        // `True`, or a column the table does not have.
        (None, _) => 1.0,
    }
}

/// Average runs per row of one column, from the resident per-segment run
/// counts: ~1.0 for uncompressible data, → 0 for heavily clustered RLE
/// input. This is what makes the group-by estimate O(runs)-aware.
fn run_fraction(col: &EncodedColumn) -> f64 {
    let (mut runs, mut rows) = (0u64, 0u64);
    for slot in col.segments() {
        runs += slot.meta().runs;
        rows += slot.meta().rows;
    }
    if rows == 0 {
        0.0
    } else {
        runs as f64 / rows as f64
    }
}

/// Ranks the group-by key strategies for grouping `t` by `group_by` under
/// a predicate of the given selectivity. The work unit is one visited
/// `(id, run)` — clustered columns cost their run count, not their row
/// count. The kernel's actual choice ([`GroupKeySpace::choose`]) always
/// matches the winner here: packing is cheaper whenever it is feasible.
pub fn groupby_ranking(t: &Table, group_by: &[usize], selectivity: f64) -> RankedChoice {
    let sel = selectivity.clamp(0.0, 1.0);
    let rows = t.rows() as f64 * sel;
    let runs: f64 = group_by
        .iter()
        .map(|&g| (run_fraction(t.column(g)) * rows).max(1.0))
        .sum::<f64>()
        .max(1.0);
    let sizes: Vec<usize> = group_by.iter().map(|&g| t.column(g).dict().len()).collect();
    let bits = GroupKeySpace::total_bits(&sizes);
    let cols = group_by.len().max(1) as f64;
    let packed = CostEstimate {
        label: "keys=packed-u64".into(),
        cost: if bits <= 64 { runs } else { f64::INFINITY },
        detail: if bits <= 64 {
            format!("{bits} key bits, ~{runs:.0} id runs, one integer hash per run")
        } else {
            format!("infeasible: {bits} key bits > 64")
        },
    };
    let composite = CostEstimate {
        label: "keys=composite".into(),
        cost: runs * (1.5 + 0.25 * cols),
        detail: format!("~{runs:.0} id runs, tuple alloc + slice hash per run"),
    };
    let row = CostEstimate {
        label: "keys=row-values".into(),
        cost: (rows * cols * 8.0).max(8.0),
        detail: format!(
            "row-materialized baseline: ~{rows:.0} rows x {cols:.0} value clones + hashes"
        ),
    };
    RankedChoice::ranked("group-by strategy", vec![packed, composite, row])
}

/// Estimated resident bytes of a hash-join build over `build`: packed key
/// (8 B) + bucket ordinal (4 B) per row, payload value ids (4 B × column)
/// per row, plus the one-off dictionary remap arrays for the key columns.
pub fn join_build_bytes(build: &Table, key_cols: &[usize], payload_cols: usize) -> u64 {
    let rows = build.rows();
    let remap: u64 = key_cols
        .iter()
        .map(|&c| build.column(c).dict().len() as u64 * 4)
        .sum();
    rows * (8 + 4) + rows * 4 * payload_cols as u64 + remap
}

/// Partition passes needed to keep each pass's build state within
/// `budget` bytes: 1 when it already fits (or the budget is unlimited),
/// otherwise `ceil(bytes / budget)` capped at 64 passes.
pub fn join_passes(build_bytes: u64, budget: u64) -> u32 {
    if budget == u64::MAX || build_bytes <= budget {
        return 1;
    }
    if budget == 0 {
        return 64;
    }
    (build_bytes.div_ceil(budget)).min(64) as u32
}

/// The costed outcome of planning one hash join: which side to build on,
/// how many partition passes, and the ranked alternatives behind it.
#[derive(Clone, Debug)]
pub struct JoinCosting {
    /// `true` = build on the right input (the classic default; ties go
    /// right so a symmetric join reproduces the row oracle's order).
    pub build_right: bool,
    /// Partition passes for the chosen side.
    pub partitions: u32,
    /// Estimated build bytes for the chosen side.
    pub est_build_bytes: u64,
    /// Both alternatives, ranked.
    pub ranking: RankedChoice,
}

/// Costs both build sides of `left ⋈ right` against `budget` (the buffer
/// cache's byte budget) and picks the cheaper: each side's cost is
/// `passes × (build bytes + probe bytes)`, since an over-budget build
/// re-streams *both* inputs once per partition pass. Building right keeps
/// only the right non-key columns as payload; building left must carry
/// every left column (the output layout is left ++ right-non-key).
pub fn join_costing(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    budget: u64,
) -> JoinCosting {
    let right_payload = (0..right.arity())
        .filter(|i| !right_keys.contains(i))
        .count();
    let probe_bytes = |t: &Table| t.rows() * 4 * t.arity().max(1) as u64;
    let rb = join_build_bytes(right, right_keys, right_payload);
    let lb = join_build_bytes(left, left_keys, left.arity());
    let rp = join_passes(rb, budget);
    let lp = join_passes(lb, budget);
    let right_cost = rp as f64 * (rb + probe_bytes(left)) as f64;
    let left_cost = lp as f64 * (lb + probe_bytes(right)) as f64;
    let opt = |side: &str, bytes: u64, passes: u32, cost: f64, build_rows: u64| CostEstimate {
        label: format!("build={side}"),
        cost,
        detail: format!("~{bytes} build bytes over {build_rows} rows, {passes} pass(es)"),
    };
    let ranking = RankedChoice::ranked(
        "join build side",
        vec![
            opt("right", rb, rp, right_cost, right.rows()),
            opt("left", lb, lp, left_cost, left.rows()),
        ],
    );
    let build_right = ranking.chosen().label == "build=right";
    JoinCosting {
        build_right,
        partitions: if build_right { rp } else { lp },
        est_build_bytes: if build_right { rb } else { lb },
        ranking,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cods_storage::{Schema, Value, ValueType};

    fn table(rows: i64, seg: u64) -> Table {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| vec![Value::int(i / 50), Value::int(i % 97)])
            .collect();
        Table::from_rows_with_segment_rows("t", schema, &data, seg).unwrap()
    }

    #[test]
    fn comparison_selectivity_is_exact_from_metadata() {
        let t = table(1_000, 64);
        // k in [0, 20): exactly half the rows (k = i/50 < 10).
        let s = predicate_selectivity(&t, &Predicate::lt("k", 10i64));
        assert!((s - 0.5).abs() < 1e-9, "{s}");
        assert_eq!(predicate_selectivity(&t, &Predicate::True), 1.0);
        assert_eq!(predicate_selectivity(&t, &Predicate::eq("k", 9999i64)), 0.0);
        let not = predicate_selectivity(&t, &Predicate::lt("k", 10i64).not());
        assert!((not - 0.5).abs() < 1e-9);
        // Empty table: nothing selects.
        let empty = Table::from_rows(
            "e",
            Schema::build(&[("k", ValueType::Int)], &[]).unwrap(),
            &[],
        )
        .unwrap();
        assert_eq!(predicate_selectivity(&empty, &Predicate::True), 0.0);
    }

    #[test]
    fn a_folded_in_is_costed_at_its_exact_row_fraction() {
        // Two values on half the rows each: the IN of both selects every
        // row (independence would say 0.75).
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let halves: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::int(i % 2)]).collect();
        let t = Table::from_rows_with_segment_rows("h", schema, &halves, 16).unwrap();
        let both = Predicate::eq("k", 0i64).or(Predicate::eq("k", 1i64));
        assert_eq!(predicate_selectivity(&t, &both), 1.0);

        // Over several segments, with a repeat and an absent literal, in
        // every shape: the fraction of rows the mask selects.
        let t = table(1_000, 64);
        let eq = |k: i64| Predicate::eq("k", k);
        for pred in [
            eq(3).or(eq(7)).or(eq(3)).or(eq(9999)),
            eq(3).or(eq(7).or(eq(3).or(eq(9999)))),
            eq(0).or(eq(19)),
        ] {
            let mask = crate::bitmap_scan::predicate_mask(&t, &pred).unwrap();
            let exact = mask.count_ones() as f64 / t.rows() as f64;
            assert_eq!(predicate_selectivity(&t, &pred), exact, "{pred:?}");
        }
        // A BETWEEN is one leaf too.
        let between = Predicate::ge("k", 4i64).and(Predicate::lt("k", 6i64));
        assert_eq!(predicate_selectivity(&t, &between), 0.1);
    }

    #[test]
    fn groupby_ranking_prefers_packed_when_feasible() {
        let t = table(1_000, 64);
        let r = groupby_ranking(&t, &[0], 1.0);
        assert_eq!(r.chosen().label, "keys=packed-u64");
        assert_eq!(r.options.len(), 3);
        assert!(r.describe().contains("->"));
        // Clustered k has far fewer runs than rows: the packed estimate
        // must reflect O(runs).
        assert!(r.chosen().cost < 1_000.0 / 2.0, "{}", r.chosen().cost);
    }

    #[test]
    fn join_costing_picks_small_side_and_partitions() {
        let small = table(100, 64);
        let big = table(10_000, 64);
        // Unlimited budget: build on the smaller input.
        let c = join_costing(&big, &small, &[0], &[0], u64::MAX);
        assert!(c.build_right);
        assert_eq!(c.partitions, 1);
        let c = join_costing(&small, &big, &[0], &[0], u64::MAX);
        assert!(!c.build_right);
        // Starved budget: multi-pass, capped.
        let c = join_costing(&big, &small, &[0], &[0], 256);
        assert!(c.partitions > 1);
        assert!(c.partitions <= 64);
        assert!(c.ranking.describe().contains("pass(es)"));
        assert_eq!(join_passes(0, 0), 1);
        assert_eq!(join_passes(10, 0), 64);
    }
}
