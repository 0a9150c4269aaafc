//! Star Schema Benchmark data generation (O'Neil et al., 2007).
//!
//! One large denormalized fact table (`lineorder`) plus four small
//! dimensions (`date`, `customer`, `supplier`, `part`) — the workload of
//! the paper's Table 3, where "most of the data comes from the large fact
//! table, which can be read NUMA-locally" and all joins are selective
//! probes into small dimension tables.

use std::fmt::Write;
use std::sync::Arc;

use morsel_numa::Topology;
use morsel_storage::{
    date, date_parts, Batch, Column, DataType, PartitionBy, Relation, Schema, StrColumn,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{text, PARTITIONS, PLACEMENT};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SsbConfig {
    /// SSB scale factor (1.0 = 6M lineorders).
    pub scale: f64,
    pub seed: u64,
}

impl Default for SsbConfig {
    fn default() -> Self {
        SsbConfig {
            scale: 0.01,
            seed: 7,
        }
    }
}

impl SsbConfig {
    pub fn scaled(scale: f64) -> Self {
        SsbConfig {
            scale,
            ..Default::default()
        }
    }
}

/// The generated star schema.
pub struct SsbDb {
    pub lineorder: Arc<Relation>,
    pub date_dim: Arc<Relation>,
    pub customer: Arc<Relation>,
    pub supplier: Arc<Relation>,
    pub part: Arc<Relation>,
    pub config: SsbConfig,
}

impl SsbDb {
    /// Name → relation catalog for text front ends (SQL binding). The
    /// date dimension is registered as `date`, the name SSB queries use.
    pub fn catalog(&self) -> morsel_storage::Catalog {
        morsel_storage::Catalog::new()
            .with_table("lineorder", self.lineorder.clone())
            .with_table("date", self.date_dim.clone())
            .with_table("customer", self.customer.clone())
            .with_table("supplier", self.supplier.clone())
            .with_table("part", self.part.clone())
    }

    pub fn total_bytes(&self) -> u64 {
        [
            &self.lineorder,
            &self.date_dim,
            &self.customer,
            &self.supplier,
            &self.part,
        ]
        .iter()
        .map(|r| r.total_bytes())
        .sum()
    }
}

/// City name: nation prefix padded to 9 chars + digit (SSB spec format,
/// e.g. "UNITED KI1").
fn city(rng: &mut StdRng, nation: &str, out: &mut String) {
    write!(out, "{nation:<9.9}{}", rng.gen_range(0..10)).expect("a String never fails a write");
}

pub fn generate(config: SsbConfig, topology: &Topology) -> SsbDb {
    let n_lineorder = ((6_000_000.0 * config.scale) as usize).max(1_000);
    let n_customer = ((30_000.0 * config.scale) as usize).max(100);
    let n_supplier = ((2_000.0 * config.scale) as usize).max(50);
    let n_part = ((200_000.0 * (1.0 + config.scale.log2().max(0.0))) as usize / 40).max(200);

    let date_dim = gen_date_dim();
    let customer = gen_customer(config, n_customer, topology);
    let supplier = gen_supplier(config, n_supplier, topology);
    let part = gen_part(config, n_part, topology);
    let lineorder = gen_lineorder(
        config,
        n_lineorder,
        n_customer,
        n_supplier,
        n_part,
        topology,
    );
    SsbDb {
        lineorder,
        date_dim,
        customer,
        supplier,
        part,
        config,
    }
}

/// The date dimension covers 1992-01-01 .. 1998-12-31 (2556 days).
fn gen_date_dim() -> Arc<Relation> {
    let start = date(1992, 1, 1);
    let end = date(1998, 12, 31);
    let n = (end - start + 1) as usize;
    let mut datekey = Vec::with_capacity(n);
    let mut year = Vec::with_capacity(n);
    let mut yearmonthnum = Vec::with_capacity(n);
    let mut yearmonth = StrColumn::with_capacity(n, 0);
    let mut weeknuminyear = Vec::with_capacity(n);
    let mut month = StrColumn::with_capacity(n, 0);
    for d in start..=end {
        let (y, m, _day) = date_parts(d);
        datekey.push(d);
        year.push(i64::from(y));
        yearmonthnum.push(i64::from(y) * 100 + i64::from(m));
        const MONTHS: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        yearmonth.push_fmt(format_args!("{}{}", MONTHS[(m - 1) as usize], y));
        weeknuminyear.push(i64::from((d - date(y, 1, 1)) / 7 + 1));
        month.push(MONTHS[(m - 1) as usize]);
    }
    let schema = Schema::new(vec![
        ("d_datekey", DataType::I32),
        ("d_year", DataType::I64),
        ("d_yearmonthnum", DataType::I64),
        ("d_yearmonth", DataType::Str),
        ("d_weeknuminyear", DataType::I64),
        ("d_month", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I32(datekey),
        Column::I64(year),
        Column::I64(yearmonthnum),
        Column::Str(yearmonth),
        Column::I64(weeknuminyear),
        Column::Str(month),
    ]);
    Arc::new(Relation::single(schema, data).dict_encoded())
}

fn gen_customer(config: SsbConfig, n: usize, topology: &Topology) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xcc);
    let mut key = Vec::with_capacity(n);
    let mut name = StrColumn::with_capacity(n, 0);
    let mut cty = StrColumn::with_capacity(n, 0);
    let mut nation = StrColumn::with_capacity(n, 0);
    let mut region = StrColumn::with_capacity(n, 0);
    let mut segment = StrColumn::with_capacity(n, 0);
    for i in 0..n as i64 {
        let (nat, reg) = text::NATIONS[rng.gen_range(0..25usize)];
        key.push(i + 1);
        name.push_fmt(format_args!("Customer#{:09}", i + 1));
        cty.push_with(|s| city(&mut rng, nat, s));
        nation.push(nat);
        region.push(text::REGIONS[reg]);
        segment.push(text::SEGMENTS[rng.gen_range(0..text::SEGMENTS.len())]);
    }
    let schema = Schema::new(vec![
        ("c_custkey", DataType::I64),
        ("c_name", DataType::Str),
        ("c_city", DataType::Str),
        ("c_nation", DataType::Str),
        ("c_region", DataType::Str),
        ("c_mktsegment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(key),
        Column::Str(name),
        Column::Str(cty),
        Column::Str(nation),
        Column::Str(region),
        Column::Str(segment),
    ]);
    Arc::new(
        Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            PARTITIONS,
            PLACEMENT,
            topology,
        )
        .dict_encoded(),
    )
}

fn gen_supplier(config: SsbConfig, n: usize, topology: &Topology) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x55);
    let mut key = Vec::with_capacity(n);
    let mut name = StrColumn::with_capacity(n, 0);
    let mut cty = StrColumn::with_capacity(n, 0);
    let mut nation = StrColumn::with_capacity(n, 0);
    let mut region = StrColumn::with_capacity(n, 0);
    for i in 0..n as i64 {
        let (nat, reg) = text::NATIONS[rng.gen_range(0..25usize)];
        key.push(i + 1);
        name.push_fmt(format_args!("Supplier#{:09}", i + 1));
        cty.push_with(|s| city(&mut rng, nat, s));
        nation.push(nat);
        region.push(text::REGIONS[reg]);
    }
    let schema = Schema::new(vec![
        ("s_suppkey", DataType::I64),
        ("s_name", DataType::Str),
        ("s_city", DataType::Str),
        ("s_nation", DataType::Str),
        ("s_region", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(key),
        Column::Str(name),
        Column::Str(cty),
        Column::Str(nation),
        Column::Str(region),
    ]);
    Arc::new(
        Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            PARTITIONS,
            PLACEMENT,
            topology,
        )
        .dict_encoded(),
    )
}

fn gen_part(config: SsbConfig, n: usize, topology: &Topology) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x99);
    let mut key = Vec::with_capacity(n);
    let mut name = StrColumn::with_capacity(n, 0);
    let mut mfgr = StrColumn::with_capacity(n, 0);
    let mut category = StrColumn::with_capacity(n, 0);
    let mut brand1 = StrColumn::with_capacity(n, 0);
    let mut color = StrColumn::with_capacity(n, 0);
    for i in 0..n as i64 {
        let m = rng.gen_range(1..=5);
        let c = rng.gen_range(1..=5);
        let b = rng.gen_range(1..=40);
        key.push(i + 1);
        name.push_with(|s| text::part_name(&mut rng, s));
        mfgr.push_fmt(format_args!("MFGR#{m}"));
        category.push_fmt(format_args!("MFGR#{m}{c}"));
        brand1.push_fmt(format_args!("MFGR#{m}{c}{b:02}"));
        color.push(text::COLORS[rng.gen_range(0..text::COLORS.len())]);
    }
    let schema = Schema::new(vec![
        ("p_partkey", DataType::I64),
        ("p_name", DataType::Str),
        ("p_mfgr", DataType::Str),
        ("p_category", DataType::Str),
        ("p_brand1", DataType::Str),
        ("p_color", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(key),
        Column::Str(name),
        Column::Str(mfgr),
        Column::Str(category),
        Column::Str(brand1),
        Column::Str(color),
    ]);
    Arc::new(
        Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            PARTITIONS,
            PLACEMENT,
            topology,
        )
        .dict_encoded(),
    )
}

fn gen_lineorder(
    config: SsbConfig,
    n: usize,
    n_customer: usize,
    n_supplier: usize,
    n_part: usize,
    topology: &Topology,
) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x10);
    let start = date(1992, 1, 1);
    let end = date(1998, 8, 2);
    let mut orderkey = Vec::with_capacity(n);
    let mut custkey = Vec::with_capacity(n);
    let mut partkey = Vec::with_capacity(n);
    let mut suppkey = Vec::with_capacity(n);
    let mut orderdate = Vec::with_capacity(n);
    let mut quantity = Vec::with_capacity(n);
    let mut extendedprice = Vec::with_capacity(n);
    let mut discount = Vec::with_capacity(n);
    let mut revenue = Vec::with_capacity(n);
    let mut supplycost = Vec::with_capacity(n);
    for i in 0..n as i64 {
        let q = rng.gen_range(1..=50i64);
        let price = rng.gen_range(90_000..=200_000i64);
        let disc = rng.gen_range(0..=10i64);
        orderkey.push(i / 4 + 1);
        custkey.push(rng.gen_range(1..=n_customer as i64));
        partkey.push(rng.gen_range(1..=n_part as i64));
        suppkey.push(rng.gen_range(1..=n_supplier as i64));
        orderdate.push(rng.gen_range(start..=end));
        quantity.push(q);
        extendedprice.push(q * price / 100);
        discount.push(disc);
        revenue.push(q * price / 100 * (100 - disc) / 100);
        supplycost.push(rng.gen_range(50_000..=120_000i64) * q / 100);
    }
    let schema = Schema::new(vec![
        ("lo_orderkey", DataType::I64),
        ("lo_custkey", DataType::I64),
        ("lo_partkey", DataType::I64),
        ("lo_suppkey", DataType::I64),
        ("lo_orderdate", DataType::I32),
        ("lo_quantity", DataType::I64),
        ("lo_extendedprice", DataType::I64),
        ("lo_discount", DataType::I64),
        ("lo_revenue", DataType::I64),
        ("lo_supplycost", DataType::I64),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(orderkey),
        Column::I64(custkey),
        Column::I64(partkey),
        Column::I64(suppkey),
        Column::I32(orderdate),
        Column::I64(quantity),
        Column::I64(extendedprice),
        Column::I64(discount),
        Column::I64(revenue),
        Column::I64(supplycost),
    ]);
    Arc::new(
        Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            PARTITIONS,
            PLACEMENT,
            topology,
        )
        .dict_encoded(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> SsbDb {
        generate(
            SsbConfig {
                scale: 0.005,
                ..Default::default()
            },
            &Topology::nehalem_ex(),
        )
    }

    #[test]
    fn row_counts() {
        let d = db();
        assert_eq!(d.date_dim.total_rows(), 2557); // 1992..1998 incl. 2 leap years
        assert_eq!(d.lineorder.total_rows(), 30_000);
        assert!(d.customer.total_rows() >= 100);
        assert!(d.supplier.total_rows() >= 50);
        assert!(d.part.total_rows() >= 200);
    }

    #[test]
    fn foreign_keys_resolve() {
        let d = db();
        let lo = d.lineorder.gather();
        let nc = d.customer.total_rows() as i64;
        let ns = d.supplier.total_rows() as i64;
        let np = d.part.total_rows() as i64;
        for i in 0..lo.rows() {
            assert!(lo.column(1).as_i64()[i] >= 1 && lo.column(1).as_i64()[i] <= nc);
            assert!(lo.column(3).as_i64()[i] >= 1 && lo.column(3).as_i64()[i] <= ns);
            assert!(lo.column(2).as_i64()[i] >= 1 && lo.column(2).as_i64()[i] <= np);
        }
    }

    #[test]
    fn revenue_formula_holds() {
        let d = db();
        let lo = d.lineorder.gather();
        for i in 0..lo.rows().min(1000) {
            let ext = lo.column(6).as_i64()[i];
            let disc = lo.column(7).as_i64()[i];
            let rev = lo.column(8).as_i64()[i];
            assert_eq!(rev, ext * (100 - disc) / 100);
        }
    }

    #[test]
    fn date_dim_covers_lineorder_dates() {
        let d = db();
        let lo = d.lineorder.gather();
        let lo_dates = lo.column(4).as_i32();
        let dd = d.date_dim.gather();
        let min_d = *dd.column(0).as_i32().first().unwrap();
        let max_d = *dd.column(0).as_i32().last().unwrap();
        assert!(lo_dates.iter().all(|&x| x >= min_d && x <= max_d));
    }

    #[test]
    fn city_format() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = String::new();
        city(&mut rng, "UNITED KINGDOM", &mut c);
        assert_eq!(c.len(), 10);
        assert!(c.starts_with("UNITED KI"));
        c.clear();
        city(&mut rng, "PERU", &mut c);
        assert!(c.starts_with("PERU     ") && c.len() == 10, "{c:?}");
    }

    #[test]
    fn brand_category_hierarchy() {
        let d = db();
        let p = d.part.gather();
        for i in 0..p.rows().min(500) {
            let mfgr = p.column(2).str_at(i);
            let cat = p.column(3).str_at(i);
            let brand = p.column(4).str_at(i);
            assert!(cat.starts_with(mfgr));
            assert!(brand.starts_with(cat));
        }
    }
}
