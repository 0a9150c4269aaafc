//! The statistics fill, `TableStats::from_partitions`, is one pass per
//! column over a relation's partitions, so where the partitions cut the
//! relation must not show in what it fills:
//!
//! 1. the fill over the partitions equals, bit for bit, the fill over one
//!    batch holding their concatenation;
//! 2. each numeric column's `span` is the min and max of its decoded
//!    values (`None` for strings), and each column's `avg_width` is its
//!    byte total over the rows.
//!
//! Inputs: every TPC-H and SSB table at SF 0.002, as the generators
//! partition them, and one synthetic relation with an empty partition, a
//! dictionary column, and an `F64` column holding both `0.0` and `-0.0`,
//! and a NaN, which the span skips.

use std::sync::Arc;

use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, TpchConfig};
use morsel_numa::{SocketId, Topology};
use morsel_storage::{
    Batch, Column, DataType, DictColumn, Dictionary, Partition, Relation, Schema, TableStats,
};

/// `rel`'s partitions as one batch, in the relation's encodings.
fn concatenated(rel: &Relation) -> Batch {
    let mut whole = Batch::empty_as(&rel.schema().data_types(), rel.encodings());
    for p in rel.partitions() {
        whole.extend_from(&p.data);
    }
    whole
}

fn check(name: &str, rel: &Relation) {
    let got = TableStats::from_partitions(rel.partitions().iter().map(|p| &*p.data));
    let whole = concatenated(rel);
    let want = TableStats::from_partitions(std::iter::once(&whole));
    assert_eq!(got.rows, rel.total_rows() as u64, "{name}");
    assert_eq!(got.rows, want.rows, "{name}");
    assert_eq!(got.columns.len(), rel.schema().len(), "{name}");
    let rows = whole.rows();
    for (c, (g, w)) in got.columns.iter().zip(&want.columns).enumerate() {
        let what = format!("{name}.{}", rel.schema().name(c));
        let bits = |s: &morsel_storage::ColumnStats| {
            let span = s.span.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
            (s.ndv.to_bits(), s.avg_width.to_bits(), span)
        };
        assert_eq!(bits(g), bits(w), "{what}: partitions vs concatenation");

        let col = whole.column(c);
        let span = match rel.schema().dtype(c) {
            DataType::Str => None,
            _ => (0..rows)
                .map(|i| col.value(i).as_f64())
                .fold(None, |acc, x| match acc {
                    None => Some((x, x)),
                    Some((lo, hi)) => Some((f64::min(lo, x), f64::max(hi, x))),
                }),
        };
        assert_eq!(g.span, span, "{what}: span");
        let width = if rows == 0 {
            0.0
        } else {
            col.total_bytes() as f64 / rows as f64
        };
        assert_eq!(g.avg_width, width, "{what}: avg_width");
        assert!(
            g.ndv <= rows as f64,
            "{what}: ndv {} over {rows} rows",
            g.ndv
        );
    }
}

#[test]
fn the_fill_over_partitions_equals_the_fill_over_their_concatenation() {
    let topo = Topology::nehalem_ex();
    let tpch = generate_tpch(TpchConfig::scaled(0.002), &topo).catalog();
    let ssb = generate_ssb(SsbConfig::scaled(0.002), &topo).catalog();
    let mut tables = 0;
    for (bench, catalog) in [("tpch", &tpch), ("ssb", &ssb)] {
        for (name, rel) in catalog.iter() {
            check(&format!("{bench}.{name}"), rel);
            tables += 1;
        }
    }
    assert_eq!(tables, 8 + 5, "every TPC-H and SSB table");

    // The synthetic relation: partitions cut the F64 column between its
    // `-0.0` and `0.0`, it starts with a NaN, one partition is empty, and
    // `s` is coded.
    let dict = Dictionary::from_values(["ant", "bee", "cat", "dog"]);
    let part = |k: Vec<i64>, x: Vec<f64>, codes: Vec<u32>| {
        let s = Column::Dict(DictColumn::new(Arc::clone(&dict), codes));
        let batch = Batch::from_columns(vec![Column::I64(k), Column::F64(x), s]);
        Partition::new(SocketId(0), batch)
    };
    let parts = vec![
        part(vec![3, -7, 5], vec![f64::NAN, -0.0, 2.5], vec![1, 3, 3]),
        part(vec![], vec![], vec![]),
        part(vec![9, 3, 0], vec![0.0, -4.0, 0.0], vec![0, 1, 1]),
        part(vec![-7], vec![-0.0], vec![2]),
    ];
    let schema = Schema::new(vec![
        ("k", DataType::I64),
        ("x", DataType::F64),
        ("s", DataType::Str),
    ]);
    let rel = Relation::from_partitions(schema, parts);
    assert!(rel.encoding(2).dict().is_some(), "s stays coded");
    check("synthetic", &rel);
    let stats = TableStats::from_partitions(rel.partitions().iter().map(|p| &*p.data));
    // -0.0 and 0.0 are one distinct value; NaN is another.
    let ndv: Vec<f64> = stats.columns.iter().map(|c| c.ndv.round()).collect();
    assert_eq!(ndv, [5.0, 4.0, 4.0]);
    assert_eq!(stats.column(1).span, Some((-4.0, 2.5)));
}
