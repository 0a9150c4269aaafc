//! EXPLAIN-style rendering with estimated (and measured) cardinalities.
//!
//! [`collect`] walks a physical plan in pre-order and pairs every
//! operator with its estimated output rows plus a clone of the subtree
//! rooted there — callers that want estimated-vs-actual numbers (the
//! `repro explain` command) execute each subtree and feed the measured
//! row counts back into [`render`].

use morsel_exec::plan::Plan;

use crate::estimate::{EstMemo, Estimator};

/// One operator line of an explain tree.
pub struct ExplainLine {
    pub depth: usize,
    pub label: String,
    /// Estimated output rows.
    pub est_rows: f64,
    /// The subtree rooted at this operator (executable on its own).
    pub subplan: Plan,
}

/// Pre-order operator list with estimates.
pub fn collect(plan: &Plan, estimator: &Estimator) -> Vec<ExplainLine> {
    let mut out = Vec::new();
    walk(plan, estimator, 0, &mut out, &mut EstMemo::new());
    out
}

fn walk(
    plan: &Plan,
    estimator: &Estimator,
    depth: usize,
    out: &mut Vec<ExplainLine>,
    memo: &mut EstMemo,
) {
    let est = estimator.estimate_memo(plan, memo);
    let label = match plan {
        Plan::Scan {
            relation, filter, ..
        } => format!(
            "Scan [{} rows{}]",
            relation.total_rows(),
            if filter.is_some() { ", filtered" } else { "" }
        ),
        Plan::Filter { .. } => "Filter".to_owned(),
        Plan::Map { project, .. } => format!("Map -> {} cols", project.len()),
        Plan::Join {
            kind, probe_keys, ..
        } => format!("HashJoin {kind:?} on {} key(s)", probe_keys.len()),
        Plan::Agg {
            group_cols, aggs, ..
        } => format!(
            "Aggregate [{} group col(s), {} agg(s)]",
            group_cols.len(),
            aggs.len()
        ),
        Plan::Sort { keys, limit, .. } => match limit {
            Some(k) => format!("Sort [{} key(s), limit {k}]", keys.len()),
            None => format!("Sort [{} key(s)]", keys.len()),
        },
    };
    out.push(ExplainLine {
        depth,
        label,
        est_rows: est.rows,
        subplan: plan.clone(),
    });
    match plan {
        Plan::Scan { .. } => {}
        Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Agg { input, .. }
        | Plan::Sort { input, .. } => walk(input, estimator, depth + 1, out, memo),
        Plan::Join { build, probe, .. } => {
            // Probe first (it continues the pipeline), then the build
            // side, mirroring `Plan::explain`.
            walk(probe, estimator, depth + 1, out, memo);
            walk(build, estimator, depth + 1, out, memo);
        }
    }
}

/// Default drift highlight: flag an operator whose actual cardinality
/// is off from the estimate by at least this factor (either direction).
pub const DRIFT_THRESHOLD_DEFAULT: f64 = 4.0;

/// Render collected lines; `actuals[i]` (if given) is the measured row
/// count of `lines[i]`'s subtree. Uses [`DRIFT_THRESHOLD_DEFAULT`] for
/// the drift highlight.
pub fn render(lines: &[ExplainLine], actuals: Option<&[usize]>) -> String {
    render_with_threshold(lines, actuals, DRIFT_THRESHOLD_DEFAULT)
}

/// Like [`render`], with an explicit divergence threshold: every line
/// with an actual gains a `drift` column (actual/est ratio), and rows
/// whose drift exceeds the threshold in either direction are flagged —
/// those are the misestimates a replan with feedback would correct.
pub fn render_with_threshold(
    lines: &[ExplainLine],
    actuals: Option<&[usize]>,
    threshold: f64,
) -> String {
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
                && threshold > 1.0
                && (drift >= threshold || drift <= 1.0 / threshold)
            {
                out.push_str("  <<< exceeds re-opt threshold");
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
        let lines = collect(&plan, &Estimator::default());
        assert_eq!(lines.len(), 2);
        assert!(lines[0].label.starts_with("Aggregate"));
        assert_eq!(lines[1].depth, 1);
        let text = render(&lines, Some(&[100, 100]));
        assert!(text.contains("est="));
        assert!(text.contains("actual=100"));
        assert!(text.contains("drift=1.00x"));
        assert!(
            !text.contains("re-opt threshold"),
            "accurate estimates must not be flagged"
        );
        // A 100x miss on the scan line trips the divergence highlight.
        let text = render_with_threshold(&lines, Some(&[100, 10_000]), 4.0);
        assert!(text.contains("<<< exceeds re-opt threshold"));
    }
}
