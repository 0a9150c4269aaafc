//! The logical algebra: what the SQL binder emits and the planner takes.
//!
//! A [`LogicalPlan`] describes *what* to compute — scans, filters,
//! projections, joins keyed by column **names**, aggregates, and sorts —
//! without fixing join order or build/probe sides. The planner
//! ([`crate::lower::Planner`]) turns it into the physical
//! [`Plan`](morsel_exec::plan::Plan) the executor runs.
//!
//! Scalar expressions reuse the executor's [`Expr`] with column indices
//! resolved against the node's *canonical* input schema (the schema
//! [`LogicalPlan::schema`] reports). The lowering pass remaps those
//! indices when join reordering or projection pruning changes the
//! physical column layout.

use std::sync::Arc;

use morsel_exec::agg::AggFn;
use morsel_exec::expr::{col, Expr};
use morsel_exec::join::JoinKind;
use morsel_storage::{DataType, Relation, Schema};

/// An aggregate call over a named input column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggSpec {
    /// `count(*)`.
    Count,
    /// `sum(col)` — integer or float, chosen by the column's type.
    Sum(String),
    Min(String),
    Max(String),
    /// `avg(col)` over an integer column, emitted as `f64`.
    Avg(String),
    /// `count(distinct col)` over an integer column.
    CountDistinct(String),
}

impl AggSpec {
    pub fn sum(c: &str) -> Self {
        AggSpec::Sum(c.to_owned())
    }

    /// The input column name, if any.
    pub fn input(&self) -> Option<&str> {
        match self {
            AggSpec::Count => None,
            AggSpec::Sum(c)
            | AggSpec::Min(c)
            | AggSpec::Max(c)
            | AggSpec::Avg(c)
            | AggSpec::CountDistinct(c) => Some(c),
        }
    }

    /// Resolve to the executor's [`AggFn`] against a physical schema.
    pub fn resolve(&self, schema: &Schema) -> AggFn {
        match self {
            AggSpec::Count => AggFn::Count,
            AggSpec::Sum(c) => {
                let i = schema.index_of(c);
                if schema.dtype(i) == DataType::F64 {
                    AggFn::SumF64(i)
                } else {
                    AggFn::SumI64(i)
                }
            }
            AggSpec::Min(c) => AggFn::MinI64(schema.index_of(c)),
            AggSpec::Max(c) => AggFn::MaxI64(schema.index_of(c)),
            AggSpec::Avg(c) => AggFn::AvgI64(schema.index_of(c)),
            AggSpec::CountDistinct(c) => AggFn::CountDistinctI64(schema.index_of(c)),
        }
    }

    /// Output type, given the input schema.
    pub fn output_type(&self, schema: &Schema) -> DataType {
        self.resolve(schema).output_type()
    }
}

/// A sort key by column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderBy {
    pub column: String,
    pub descending: bool,
}

impl OrderBy {
    pub fn asc(column: &str) -> Self {
        OrderBy {
            column: column.to_owned(),
            descending: false,
        }
    }

    pub fn desc(column: &str) -> Self {
        OrderBy {
            column: column.to_owned(),
            descending: true,
        }
    }
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
    /// Equi-join by column names. For [`JoinKind::Inner`] the canonical
    /// output is all `left` columns followed by all `right` columns; the
    /// planner is free to reorder a block of adjacent inner joins and to
    /// pick build/probe sides. Semi/Anti keep only `left` columns; Count
    /// appends a `match_count` column.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_keys: Vec<String>,
        right_keys: Vec<String>,
        kind: JoinKind,
    },
    /// Grouped (or scalar) aggregation over named columns.
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<String>,
        aggs: Vec<(String, AggSpec)>,
    },
    /// Order by named columns, with optional limit.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<OrderBy>,
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

    /// Inner-join `self` with `right` on named key equalities.
    pub fn join(self, right: LogicalPlan, left_keys: &[&str], right_keys: &[&str]) -> Self {
        self.join_kind(right, left_keys, right_keys, JoinKind::Inner)
    }

    pub fn join_kind(
        self,
        right: LogicalPlan,
        left_keys: &[&str],
        right_keys: &[&str],
        kind: JoinKind,
    ) -> Self {
        assert_eq!(left_keys.len(), right_keys.len(), "join key arity mismatch");
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys: left_keys.iter().map(|&k| k.to_owned()).collect(),
            right_keys: right_keys.iter().map(|&k| k.to_owned()).collect(),
            kind,
        }
    }

    pub fn aggregate(self, group: &[&str], aggs: Vec<(&str, AggSpec)>) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group: group.iter().map(|&g| g.to_owned()).collect(),
            aggs: aggs.into_iter().map(|(n, a)| (n.to_owned(), a)).collect(),
        }
    }

    pub fn sort(self, keys: Vec<OrderBy>, limit: Option<usize>) -> Self {
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
            LogicalPlan::Scan {
                relation, project, ..
            } => {
                let src = relation.schema().data_types();
                Schema::new(
                    project
                        .iter()
                        .map(|(n, e)| (n.as_str(), e.result_type(&src)))
                        .collect(),
                )
            }
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { input, project } => {
                let src = input.schema().data_types();
                Schema::new(
                    project
                        .iter()
                        .map(|(n, e)| (n.as_str(), e.result_type(&src)))
                        .collect(),
                )
            }
            LogicalPlan::Join {
                left, right, kind, ..
            } => {
                let l = left.schema();
                let mut fields: Vec<(String, DataType)> = (0..l.len())
                    .map(|i| (l.name(i).to_owned(), l.dtype(i)))
                    .collect();
                match kind {
                    JoinKind::Inner | JoinKind::InnerMark => {
                        let r = right.schema();
                        for i in 0..r.len() {
                            let name = r.name(i);
                            assert!(
                                !fields.iter().any(|(n, _)| n == name),
                                "duplicate column name {name:?} across join sides; \
                                 rename one side in its scan/projection"
                            );
                            fields.push((name.to_owned(), r.dtype(i)));
                        }
                    }
                    JoinKind::Semi | JoinKind::Anti => {}
                    JoinKind::Count => fields.push(("match_count".to_owned(), DataType::I64)),
                }
                Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect())
            }
            LogicalPlan::Aggregate { input, group, aggs } => {
                let src = input.schema();
                let mut fields: Vec<(String, DataType)> = group
                    .iter()
                    .map(|g| {
                        let i = src.index_of(g);
                        (g.clone(), src.dtype(i))
                    })
                    .collect();
                for (n, a) in aggs {
                    fields.push((n.clone(), a.output_type(&src)));
                }
                Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect())
            }
            LogicalPlan::Sort { input, .. } => input.schema(),
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
        let p = LogicalPlan::scan("a", rel(("ak", "av"), 100), None, &["ak", "av"])
            .join(
                LogicalPlan::scan("b", rel(("bk", "bv"), 10), None, &["bk", "bv"]),
                &["ak"],
                &["bk"],
            )
            .aggregate(&["bv"], vec![("total", AggSpec::sum("av"))]);
        assert_eq!(
            p.schema().names(),
            vec!["bv", "total"],
            "aggregate output is group cols then aggs"
        );
        let join = LogicalPlan::scan("a", rel(("ak", "av"), 100), None, &["ak", "av"]).join(
            LogicalPlan::scan("b", rel(("bk", "bv"), 10), None, &["bk", "bv"]),
            &["ak"],
            &["bk"],
        );
        assert_eq!(join.schema().names(), vec!["ak", "av", "bk", "bv"]);
        assert_eq!(join.scan_count(), 2);
    }

    #[test]
    fn semi_join_keeps_left_columns_only() {
        let p = LogicalPlan::scan("a", rel(("ak", "av"), 100), None, &["ak", "av"]).join_kind(
            LogicalPlan::scan("b", rel(("bk", "bv"), 10), None, &["bk"]),
            &["ak"],
            &["bk"],
            JoinKind::Semi,
        );
        assert_eq!(p.schema().names(), vec!["ak", "av"]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_across_sides_rejected() {
        let p = LogicalPlan::scan("a", rel(("k", "v"), 10), None, &["k", "v"]).join(
            LogicalPlan::scan("b", rel(("k", "w"), 10), None, &["k"]),
            &["k"],
            &["k"],
        );
        p.schema();
    }

    #[test]
    fn filter_and_sort_preserve_schema() {
        let p = LogicalPlan::scan("a", rel(("k", "v"), 10), None, &["k", "v"])
            .filter(gt(col(1), lit(3)))
            .sort(vec![OrderBy::desc("v"), OrderBy::asc("k")], Some(5));
        assert_eq!(p.schema().names(), vec!["k", "v"]);
        assert_eq!(p.schema().index_of("v"), 1);
    }
}
