//! The logical algebra: what the SQL binder emits and the planner takes.
//!
//! A [`LogicalPlan`] describes *what* to compute — scans, filters,
//! projections, equi-joins, aggregates, and sorts — without fixing join
//! order or build/probe sides. The planner ([`crate::lower::Planner`])
//! turns it into the physical [`Plan`](morsel_exec::plan::Plan) the
//! executor runs.
//!
//! Columns are addressed by position, as in the physical algebra: scalar
//! expressions (the executor's [`Expr`]), join keys, group columns,
//! aggregate inputs and sort keys are indexes into the node's *canonical*
//! input columns (the schema [`LogicalPlan::schema`] reports for that
//! input). Names only label output: a scan or projection names the
//! columns it makes, an aggregate its aggregates, and two columns may
//! share a name. The lowering pass remaps the indexes when join
//! reordering or projection pruning changes the physical column layout.

use std::sync::Arc;

use morsel_exec::agg::AggFn;
use morsel_exec::expr::{col, Expr};
use morsel_exec::join::JoinKind;
use morsel_exec::sort::SortKey;
use morsel_storage::{DataType, Relation, Schema};

/// One canonical column: its name, borrowed, and its type.
pub(crate) type Field<'a> = (&'a str, DataType);

/// A schema's columns, names borrowed.
pub(crate) fn fields_of(schema: &Schema) -> Vec<Field<'_>> {
    (schema.fields().iter())
        .map(|f| (f.name.as_str(), f.dtype))
        .collect()
}

/// A declarative logical query plan.
#[derive(Clone)]
pub enum LogicalPlan {
    /// Scan a base relation: optional filter over the *base* schema,
    /// projection into named working columns.
    Scan {
        table: String,
        relation: Arc<Relation>,
        filter: Option<Expr>,
        project: Vec<(String, Expr)>,
    },
    /// Filter on the canonical schema of `input`.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// Replace the working columns by projected expressions (canonical
    /// indices of `input`).
    Project {
        input: Box<LogicalPlan>,
        project: Vec<(String, Expr)>,
    },
    /// Equi-join on key positions: `left_keys` index `left`'s canonical
    /// columns, `right_keys` `right`'s. For [`JoinKind::Inner`] the
    /// canonical output is all `left` columns followed by all `right`
    /// columns; the planner is free to reorder a block of adjacent inner
    /// joins and to pick build/probe sides. Semi/Anti keep only `left`
    /// columns; Count appends a `match_count` column.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
    },
    /// Grouped (or scalar) aggregation: `group` and each aggregate's
    /// input index `input`'s canonical columns. The output is the group
    /// columns, then the named aggregates.
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<usize>,
        aggs: Vec<(String, AggFn)>,
    },
    /// Order by canonical column positions, with optional limit.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
        limit: Option<usize>,
    },
}

impl LogicalPlan {
    // Constructors ------------------------------------------------------

    /// Scan named base-table columns.
    pub fn scan(table: &str, relation: Arc<Relation>, filter: Option<Expr>, cols: &[&str]) -> Self {
        let project = cols
            .iter()
            .map(|&c| (c.to_owned(), col(relation.schema().index_of(c))))
            .collect();
        LogicalPlan::Scan {
            table: table.to_owned(),
            relation,
            filter,
            project,
        }
    }

    pub fn filter(self, predicate: Expr) -> Self {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, project: Vec<(&str, Expr)>) -> Self {
        LogicalPlan::Project {
            input: Box::new(self),
            project: project
                .into_iter()
                .map(|(n, e)| (n.to_owned(), e))
                .collect(),
        }
    }

    /// Inner-join `self` with `right` on key position equalities.
    pub fn join(self, right: LogicalPlan, left_keys: &[usize], right_keys: &[usize]) -> Self {
        self.join_kind(right, left_keys, right_keys, JoinKind::Inner)
    }

    pub fn join_kind(
        self,
        right: LogicalPlan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
    ) -> Self {
        assert_eq!(left_keys.len(), right_keys.len(), "join key arity mismatch");
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys: left_keys.to_vec(),
            right_keys: right_keys.to_vec(),
            kind,
        }
    }

    pub fn aggregate(self, group: &[usize], aggs: Vec<(&str, AggFn)>) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group: group.to_vec(),
            aggs: aggs.into_iter().map(|(n, a)| (n.to_owned(), a)).collect(),
        }
    }

    pub fn sort(self, keys: Vec<SortKey>, limit: Option<usize>) -> Self {
        LogicalPlan::Sort {
            input: Box::new(self),
            keys,
            limit,
        }
    }

    // Schema ------------------------------------------------------------

    /// Canonical output schema (names and types). Join reordering never
    /// changes this — only the physical layout underneath.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { relation, .. } => {
                Schema::new(self.output_fields(&[&fields_of(relation.schema())]))
            }
            LogicalPlan::Join { left, right, .. } => {
                let (l, r) = (left.schema(), right.schema());
                Schema::new(self.output_fields(&[&fields_of(&l), &fields_of(&r)]))
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. } => {
                let input = input.schema();
                Schema::new(self.output_fields(&[&fields_of(&input)]))
            }
        }
    }

    /// This node's canonical columns from its inputs' columns: the
    /// scanned relation's for a scan, `[left, right]` for a join, the
    /// child's otherwise. An inner join's output is its inputs' columns
    /// in order, so it also takes the columns of every leaf of a block of
    /// inner joins it tops. Names are borrowed, from the inputs or from
    /// this node. [`LogicalPlan::schema`] and the planner (which derives
    /// every node's columns once, bottom-up) both derive them here.
    pub(crate) fn output_fields<'a>(&'a self, inputs: &[&[Field<'a>]]) -> Vec<Field<'a>> {
        let input = inputs[0];
        let types = || -> Vec<DataType> { input.iter().map(|&(_, t)| t).collect() };
        match self {
            LogicalPlan::Filter { .. } | LogicalPlan::Sort { .. } => input.to_vec(),
            LogicalPlan::Scan { project, .. } | LogicalPlan::Project { project, .. } => {
                let src = types();
                project
                    .iter()
                    .map(|(n, e)| (n.as_str(), e.result_type(&src)))
                    .collect()
            }
            LogicalPlan::Join { kind, .. } => {
                let mut fields = input.to_vec();
                match kind {
                    JoinKind::Inner => fields.extend(inputs[1..].iter().copied().flatten()),
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Count => fields.push(("match_count", DataType::I64)),
                }
                fields
            }
            LogicalPlan::Aggregate { group, aggs, .. } => {
                let mut fields: Vec<Field<'a>> = group.iter().map(|&g| input[g]).collect();
                fields.extend(aggs.iter().map(|(n, f)| (n.as_str(), f.output_type())));
                fields
            }
        }
    }

    /// Number of base-relation scans in the tree.
    pub fn scan_count(&self) -> usize {
        match self {
            LogicalPlan::Scan { .. } => 1,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. } => input.scan_count(),
            LogicalPlan::Join { left, right, .. } => left.scan_count() + right.scan_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_exec::expr::{gt, lit};
    use morsel_numa::{Placement, Topology};
    use morsel_storage::{Batch, Column, PartitionBy};

    fn rel(names: (&str, &str), n: i64) -> Arc<Relation> {
        Arc::new(Relation::partitioned(
            Schema::new(vec![(names.0, DataType::I64), (names.1, DataType::I64)]),
            &Batch::from_columns(vec![
                Column::I64((0..n).collect()),
                Column::I64((0..n).map(|x| x % 7).collect()),
            ]),
            PartitionBy::Hash { column: 0 },
            4,
            Placement::FirstTouch,
            &Topology::laptop(),
        ))
    }

    #[test]
    fn canonical_schema_concatenates_join_sides() {
        let a = LogicalPlan::scan("a", rel(("ak", "av"), 100), None, &["ak", "av"]);
        let b = LogicalPlan::scan("b", rel(("bk", "bv"), 10), None, &["bk", "bv"]);
        let (ak, bk) = (a.schema().index_of("ak"), b.schema().index_of("bk"));
        let join = a.join(b, &[ak], &[bk]);
        assert_eq!(join.schema().names(), vec!["ak", "av", "bk", "bv"]);
        assert_eq!(join.scan_count(), 2);
        let (bv, av) = (join.schema().index_of("bv"), join.schema().index_of("av"));
        let p = join.aggregate(&[bv], vec![("total", AggFn::SumI64(av))]);
        assert_eq!(
            p.schema().names(),
            vec!["bv", "total"],
            "aggregate output is group cols then aggs"
        );
    }

    #[test]
    fn semi_join_keeps_left_columns_only() {
        let a = LogicalPlan::scan("a", rel(("ak", "av"), 100), None, &["ak", "av"]);
        let b = LogicalPlan::scan("b", rel(("bk", "bv"), 10), None, &["bk"]);
        let (ak, bk) = (a.schema().index_of("ak"), b.schema().index_of("bk"));
        let p = a.join_kind(b, &[ak], &[bk], JoinKind::Semi);
        assert_eq!(p.schema().names(), vec!["ak", "av"]);
    }

    #[test]
    fn join_sides_may_share_column_names() {
        let p = LogicalPlan::scan("a", rel(("k", "v"), 10), None, &["k", "v"]).join(
            LogicalPlan::scan("b", rel(("k", "w"), 10), None, &["k"]),
            &[0],
            &[0],
        );
        assert_eq!(p.schema().names(), vec!["k", "v", "k"]);
    }

    #[test]
    fn filter_and_sort_preserve_schema() {
        let p = LogicalPlan::scan("a", rel(("k", "v"), 10), None, &["k", "v"])
            .filter(gt(col(1), lit(3)))
            .sort(vec![SortKey::desc(1), SortKey::asc(0)], Some(5));
        assert_eq!(p.schema().names(), vec!["k", "v"]);
        assert_eq!(p.schema().index_of("v"), 1);
    }
}
