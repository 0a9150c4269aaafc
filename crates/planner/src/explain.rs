//! EXPLAIN-style rendering with estimated (and measured) cardinalities.
//!
//! [`collect`] lists a physical plan's nodes in [`Plan::preorder`] order,
//! the one order plan nodes are numbered by, each with its
//! [`Plan::label`] and estimated output rows. A runtime profile's slots
//! follow the same order, so callers that want estimated-vs-actual
//! numbers (`repro explain`, `repro sql --analyze`) pass one profiled
//! execution's per-operator row counts to [`render`].

use morsel_exec::plan::Plan;

use crate::estimate::{EstMemo, Estimator};

/// One operator line of an explain tree.
pub struct ExplainLine {
    pub depth: usize,
    pub label: String,
    /// Estimated output rows.
    pub est_rows: f64,
}

/// The plan's nodes in [`Plan::preorder`] order, with estimates.
pub fn collect(plan: &Plan, estimator: &Estimator) -> Vec<ExplainLine> {
    let mut memo = EstMemo::new();
    plan.preorder()
        .into_iter()
        .map(|(depth, node)| ExplainLine {
            depth,
            label: node.label(),
            est_rows: estimator.estimate_memo(node, &mut memo).rows,
        })
        .collect()
}

/// Drift highlight: flag an operator whose actual cardinality is off
/// from the estimate by at least this factor (either direction).
pub const DRIFT_THRESHOLD_DEFAULT: f64 = 4.0;

/// Render collected lines; `actuals[i]` (if given) is the measured row
/// count of `lines[i]`'s subtree. Every line with an actual gains a
/// `drift` column (actual/est ratio), and lines whose drift reaches
/// [`DRIFT_THRESHOLD_DEFAULT`] in either direction are flagged: those
/// are the estimates the planner got most wrong.
pub fn render(lines: &[ExplainLine], actuals: Option<&[usize]>) -> String {
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        let pad = "  ".repeat(line.depth);
        out.push_str(&format!("{pad}{}  est={:.0}", line.label, line.est_rows));
        if let Some(actual) = actuals.and_then(|a| a.get(i)) {
            let drift = if line.est_rows > 0.0 {
                *actual as f64 / line.est_rows
            } else {
                f64::NAN
            };
            out.push_str(&format!("  actual={actual}  drift={drift:.2}x"));
            if drift.is_finite()
                && (drift >= DRIFT_THRESHOLD_DEFAULT || drift <= 1.0 / DRIFT_THRESHOLD_DEFAULT)
            {
                out.push_str(&format!("  <<< off by {DRIFT_THRESHOLD_DEFAULT}x or more"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_exec::agg::AggFn;
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{Batch, Column, DataType, PartitionBy, Relation, Schema};
    use std::sync::Arc;

    #[test]
    fn collect_and_render() {
        let rel = Arc::new(Relation::partitioned(
            Schema::new(vec![("k", DataType::I64)]),
            &Batch::from_columns(vec![Column::I64((0..100).collect())]),
            PartitionBy::Chunks,
            4,
            Placement::FirstTouch,
            &Topology::laptop(),
        ));
        let plan = Plan::scan(rel, None, &["k"]).agg(&["k"], vec![("c", AggFn::Count)]);
        let lines = collect(&plan, &Estimator);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].label, "agg(1 keys, 1 fns)");
        assert_eq!(lines[1].depth, 1);
        let text = render(&lines, Some(&[100, 100]));
        assert!(text.contains("est="));
        assert!(text.contains("actual=100"));
        assert!(text.contains("drift=1.00x"));
        assert!(
            !text.contains("<<<"),
            "accurate estimates must not be flagged"
        );
        // The scan line's estimate is exactly 100 rows: a drift of 4x or
        // more in either direction is flagged, anything closer is not.
        for (actual, flagged) in [
            (10_000, true),
            (400, true),
            (390, false),
            (26, false),
            (25, true),
            (1, true),
        ] {
            let text = render(&lines, Some(&[100, actual]));
            let scan = text.lines().nth(1).expect("scan line");
            assert_eq!(
                scan.ends_with("<<< off by 4x or more"),
                flagged,
                "actual {actual}: {scan}"
            );
        }
    }
}
