//! TPC-H data generation at configurable scale.
//!
//! Schema-faithful substitute for dbgen (DESIGN.md §2): all 8 tables with
//! the value distributions the 22 queries' selectivities depend on —
//! uniform keys, the spec's date ranges and arithmetic, nation/region
//! mapping, the "customers with custkey ≡ 0 (mod 3) place no orders" rule
//! (Q13/Q22), injected comment correlations (Q13, Q16), and phone country
//! codes (Q22). Decimals are cents (`i64`), dates are day numbers (`i32`).

use std::sync::Arc;

use morsel_numa::{Placement, Topology};
use morsel_storage::{date, Batch, Column, DataType, PartitionBy, Relation, Schema, StrColumn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{text, PARTITIONS, PLACEMENT};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// TPC-H scale factor (1.0 = 6M lineitems). Laptop-scale defaults.
    pub scale: f64,
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 42,
        }
    }
}

impl TpchConfig {
    pub fn scaled(scale: f64) -> Self {
        TpchConfig {
            scale,
            ..Default::default()
        }
    }

    fn count(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(min)
    }
}

/// The generated database.
pub struct TpchDb {
    pub region: Arc<Relation>,
    pub nation: Arc<Relation>,
    pub supplier: Arc<Relation>,
    pub customer: Arc<Relation>,
    pub part: Arc<Relation>,
    pub partsupp: Arc<Relation>,
    pub orders: Arc<Relation>,
    pub lineitem: Arc<Relation>,
    pub config: TpchConfig,
}

impl TpchDb {
    /// Name → relation catalog for text front ends (SQL binding).
    pub fn catalog(&self) -> morsel_storage::Catalog {
        morsel_storage::Catalog::new()
            .with_table("region", self.region.clone())
            .with_table("nation", self.nation.clone())
            .with_table("supplier", self.supplier.clone())
            .with_table("customer", self.customer.clone())
            .with_table("part", self.part.clone())
            .with_table("partsupp", self.partsupp.clone())
            .with_table("orders", self.orders.clone())
            .with_table("lineitem", self.lineitem.clone())
    }

    /// Total bytes across all relations (approximate).
    pub fn total_bytes(&self) -> u64 {
        [
            &self.region,
            &self.nation,
            &self.supplier,
            &self.customer,
            &self.part,
            &self.partsupp,
            &self.orders,
            &self.lineitem,
        ]
        .iter()
        .map(|r| r.total_bytes())
        .sum()
    }

    /// Re-place all relations under a different policy (Section 5.3's
    /// placement comparison) without regenerating.
    pub fn with_placement(&self, placement: Placement, topology: &Topology) -> TpchDb {
        TpchDb {
            region: Arc::new(self.region.with_placement(placement, topology)),
            nation: Arc::new(self.nation.with_placement(placement, topology)),
            supplier: Arc::new(self.supplier.with_placement(placement, topology)),
            customer: Arc::new(self.customer.with_placement(placement, topology)),
            part: Arc::new(self.part.with_placement(placement, topology)),
            partsupp: Arc::new(self.partsupp.with_placement(placement, topology)),
            orders: Arc::new(self.orders.with_placement(placement, topology)),
            lineitem: Arc::new(self.lineitem.with_placement(placement, topology)),
            config: self.config,
        }
    }
}

/// Retail price formula (spec 4.2.3): deterministic in the part key.
pub fn retail_price_cents(partkey: i64) -> i64 {
    90_000 + (partkey % 20_001) + 100 * (partkey % 1_000)
}

/// Generate the full database.
pub fn generate(config: TpchConfig, topology: &Topology) -> TpchDb {
    let n_supplier = config.count(10_000, 10);
    let n_customer = config.count(150_000, 150);
    let n_part = config.count(200_000, 200);
    let n_orders = config.count(1_500_000, 1_500);

    let region = gen_region();
    let nation = gen_nation();
    let supplier = gen_supplier(config, n_supplier, topology);
    let customer = gen_customer(config, n_customer, topology);
    let part = gen_part(config, n_part, topology);
    let partsupp = gen_partsupp(config, n_part, n_supplier, topology);
    let (orders, lineitem) =
        gen_orders_lineitem(config, n_orders, n_customer, n_part, n_supplier, topology);

    TpchDb {
        region,
        nation,
        supplier,
        customer,
        part,
        partsupp,
        orders,
        lineitem,
        config,
    }
}

fn gen_region() -> Arc<Relation> {
    let schema = Schema::new(vec![
        ("r_regionkey", DataType::I64),
        ("r_name", DataType::Str),
        ("r_comment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64((0..5).collect()),
        Column::Str(text::REGIONS.into_iter().collect()),
        Column::Str((0..5).map(|i| format!("region comment {i}")).collect()),
    ]);
    Arc::new(Relation::single(schema, data).dict_encoded())
}

fn gen_nation() -> Arc<Relation> {
    let schema = Schema::new(vec![
        ("n_nationkey", DataType::I64),
        ("n_name", DataType::Str),
        ("n_regionkey", DataType::I64),
        ("n_comment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64((0..25).collect()),
        Column::Str(text::NATIONS.iter().map(|&(n, _)| n).collect()),
        Column::I64(text::NATIONS.iter().map(|&(_, r)| r as i64).collect()),
        Column::Str((0..25).map(|i| format!("nation comment {i}")).collect()),
    ]);
    Arc::new(Relation::single(schema, data).dict_encoded())
}

fn gen_supplier(config: TpchConfig, n: usize, topology: &Topology) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x51);
    let mut suppkey = Vec::with_capacity(n);
    let mut name = StrColumn::with_capacity(n, 0);
    let mut address = StrColumn::with_capacity(n, 0);
    let mut nationkey = Vec::with_capacity(n);
    let mut phone = StrColumn::with_capacity(n, 0);
    let mut acctbal = Vec::with_capacity(n);
    let mut comment = StrColumn::with_capacity(n, 0);
    for i in 0..n as i64 {
        let nk = rng.gen_range(0..25i64);
        suppkey.push(i + 1);
        name.push_fmt(format_args!("Supplier#{:09}", i + 1));
        address.push_fmt(format_args!("addr {}", rng.gen_range(0..100000)));
        nationkey.push(nk);
        phone.push_with(|s| text::phone(&mut rng, nk, s));
        acctbal.push(rng.gen_range(-99_999..=999_999i64));
        // Q16: ~0.05% of suppliers have complaint comments.
        comment
            .push_with(|s| text::comment(&mut rng, 5, Some(("Customer", "Complaints")), 5_000, s));
    }
    let schema = Schema::new(vec![
        ("s_suppkey", DataType::I64),
        ("s_name", DataType::Str),
        ("s_address", DataType::Str),
        ("s_nationkey", DataType::I64),
        ("s_phone", DataType::Str),
        ("s_acctbal", DataType::I64),
        ("s_comment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(suppkey),
        Column::Str(name),
        Column::Str(address),
        Column::I64(nationkey),
        Column::Str(phone),
        Column::I64(acctbal),
        Column::Str(comment),
    ]);
    Arc::new(
        Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            PARTITIONS.min(n.max(1)),
            PLACEMENT,
            topology,
        )
        .dict_encoded(),
    )
}

fn gen_customer(config: TpchConfig, n: usize, topology: &Topology) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xc5);
    let mut custkey = Vec::with_capacity(n);
    let mut name = StrColumn::with_capacity(n, 0);
    let mut address = StrColumn::with_capacity(n, 0);
    let mut nationkey = Vec::with_capacity(n);
    let mut phone = StrColumn::with_capacity(n, 0);
    let mut acctbal = Vec::with_capacity(n);
    let mut mktsegment = StrColumn::with_capacity(n, 0);
    let mut comment = StrColumn::with_capacity(n, 0);
    for i in 0..n as i64 {
        let nk = rng.gen_range(0..25i64);
        custkey.push(i + 1);
        name.push_fmt(format_args!("Customer#{:09}", i + 1));
        address.push_fmt(format_args!("addr {}", rng.gen_range(0..100000)));
        nationkey.push(nk);
        phone.push_with(|s| text::phone(&mut rng, nk, s));
        acctbal.push(rng.gen_range(-99_999..=999_999i64));
        mktsegment.push(text::SEGMENTS[rng.gen_range(0..text::SEGMENTS.len())]);
        comment.push_with(|s| text::comment(&mut rng, 4, None, 0, s));
    }
    let schema = Schema::new(vec![
        ("c_custkey", DataType::I64),
        ("c_name", DataType::Str),
        ("c_address", DataType::Str),
        ("c_nationkey", DataType::I64),
        ("c_phone", DataType::Str),
        ("c_acctbal", DataType::I64),
        ("c_mktsegment", DataType::Str),
        ("c_comment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(custkey),
        Column::Str(name),
        Column::Str(address),
        Column::I64(nationkey),
        Column::Str(phone),
        Column::I64(acctbal),
        Column::Str(mktsegment),
        Column::Str(comment),
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

fn gen_part(config: TpchConfig, n: usize, topology: &Topology) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x97);
    let mut partkey = Vec::with_capacity(n);
    let mut name = StrColumn::with_capacity(n, 0);
    let mut mfgr = StrColumn::with_capacity(n, 0);
    let mut brand = StrColumn::with_capacity(n, 0);
    let mut ptype = StrColumn::with_capacity(n, 0);
    let mut size = Vec::with_capacity(n);
    let mut container = StrColumn::with_capacity(n, 0);
    let mut retailprice = Vec::with_capacity(n);
    let mut comment = StrColumn::with_capacity(n, 0);
    for i in 0..n as i64 {
        let m = rng.gen_range(1..=5);
        partkey.push(i + 1);
        name.push_with(|s| text::part_name(&mut rng, s));
        mfgr.push_fmt(format_args!("Manufacturer#{m}"));
        brand.push_fmt(format_args!("Brand#{}{}", m, rng.gen_range(1..=5)));
        ptype.push_with(|s| text::part_type(&mut rng, s));
        size.push(rng.gen_range(1..=50i64));
        container.push_with(|s| text::container(&mut rng, s));
        retailprice.push(retail_price_cents(i + 1));
        comment.push_with(|s| text::comment(&mut rng, 3, None, 0, s));
    }
    let schema = Schema::new(vec![
        ("p_partkey", DataType::I64),
        ("p_name", DataType::Str),
        ("p_mfgr", DataType::Str),
        ("p_brand", DataType::Str),
        ("p_type", DataType::Str),
        ("p_size", DataType::I64),
        ("p_container", DataType::Str),
        ("p_retailprice", DataType::I64),
        ("p_comment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(partkey),
        Column::Str(name),
        Column::Str(mfgr),
        Column::Str(brand),
        Column::Str(ptype),
        Column::I64(size),
        Column::Str(container),
        Column::I64(retailprice),
        Column::Str(comment),
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

fn gen_partsupp(
    config: TpchConfig,
    n_part: usize,
    n_supplier: usize,
    topology: &Topology,
) -> Arc<Relation> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xb5);
    let n = n_part * 4;
    let mut partkey = Vec::with_capacity(n);
    let mut suppkey = Vec::with_capacity(n);
    let mut availqty = Vec::with_capacity(n);
    let mut supplycost = Vec::with_capacity(n);
    let mut comment = StrColumn::with_capacity(n, 0);
    for p in 0..n_part as i64 {
        for s in 0..4i64 {
            // Spec formula spreads the 4 suppliers of a part across the
            // supplier space.
            let sk = (p + s * ((n_supplier as i64 / 4).max(1) + (p / n_supplier as i64)))
                % n_supplier as i64
                + 1;
            partkey.push(p + 1);
            suppkey.push(sk);
            availqty.push(rng.gen_range(1..=9999i64));
            supplycost.push(rng.gen_range(100..=100_000i64));
            comment.push_with(|s| text::comment(&mut rng, 2, None, 0, s));
        }
    }
    let schema = Schema::new(vec![
        ("ps_partkey", DataType::I64),
        ("ps_suppkey", DataType::I64),
        ("ps_availqty", DataType::I64),
        ("ps_supplycost", DataType::I64),
        ("ps_comment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64(partkey),
        Column::I64(suppkey),
        Column::I64(availqty),
        Column::I64(supplycost),
        Column::Str(comment),
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

#[allow(clippy::too_many_arguments)]
fn gen_orders_lineitem(
    config: TpchConfig,
    n_orders: usize,
    n_customer: usize,
    n_part: usize,
    n_supplier: usize,
    topology: &Topology,
) -> (Arc<Relation>, Arc<Relation>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0d);
    let start = date(1992, 1, 1);
    let last_order = date(1998, 8, 2);
    let cutoff = date(1995, 6, 17);

    // Orders columns.
    let mut o_orderkey = Vec::with_capacity(n_orders);
    let mut o_custkey = Vec::with_capacity(n_orders);
    let mut o_orderstatus = StrColumn::with_capacity(n_orders, 0);
    let mut o_totalprice = Vec::with_capacity(n_orders);
    let mut o_orderdate = Vec::with_capacity(n_orders);
    let mut o_orderpriority = StrColumn::with_capacity(n_orders, 0);
    let mut o_clerk = StrColumn::with_capacity(n_orders, 0);
    let mut o_shippriority = Vec::with_capacity(n_orders);
    let mut o_comment = StrColumn::with_capacity(n_orders, 0);

    // Lineitem columns (~4x orders).
    let cap = n_orders * 4;
    let mut l_orderkey = Vec::with_capacity(cap);
    let mut l_partkey = Vec::with_capacity(cap);
    let mut l_suppkey = Vec::with_capacity(cap);
    let mut l_linenumber = Vec::with_capacity(cap);
    let mut l_quantity = Vec::with_capacity(cap);
    let mut l_extendedprice = Vec::with_capacity(cap);
    let mut l_discount = Vec::with_capacity(cap);
    let mut l_tax = Vec::with_capacity(cap);
    let mut l_returnflag = StrColumn::with_capacity(cap, 0);
    let mut l_linestatus = StrColumn::with_capacity(cap, 0);
    let mut l_shipdate = Vec::with_capacity(cap);
    let mut l_commitdate = Vec::with_capacity(cap);
    let mut l_receiptdate = Vec::with_capacity(cap);
    let mut l_shipinstruct = StrColumn::with_capacity(cap, 0);
    let mut l_shipmode = StrColumn::with_capacity(cap, 0);
    let mut l_comment = StrColumn::with_capacity(cap, 0);

    for o in 0..n_orders as i64 {
        let orderkey = o + 1;
        // Customers divisible by 3 never order (spec; Q13/Q22 rely on it).
        let custkey = loop {
            let c = rng.gen_range(1..=n_customer as i64);
            if c % 3 != 0 {
                break c;
            }
        };
        let orderdate = rng.gen_range(start..=last_order);
        let lines = rng.gen_range(1..=7usize);
        let mut total = 0i64;
        let mut all_f = true;
        let mut all_o = true;
        for ln in 0..lines as i64 {
            let partkey = rng.gen_range(1..=n_part as i64);
            // One of the part's four suppliers.
            let s = rng.gen_range(0..4i64);
            let suppkey = (partkey - 1
                + s * ((n_supplier as i64 / 4).max(1) + ((partkey - 1) / n_supplier as i64)))
                % n_supplier as i64
                + 1;
            let quantity = rng.gen_range(1..=50i64);
            let extprice = quantity * retail_price_cents(partkey) / 100;
            let discount = rng.gen_range(0..=10i64); // hundredths
            let tax = rng.gen_range(0..=8i64);
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let returnflag = if receiptdate <= cutoff {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate > cutoff { "O" } else { "F" };
            all_f &= linestatus == "F";
            all_o &= linestatus == "O";
            total += extprice * (100 - discount) / 100 * (100 + tax) / 100;

            l_orderkey.push(orderkey);
            l_partkey.push(partkey);
            l_suppkey.push(suppkey);
            l_linenumber.push(ln + 1);
            l_quantity.push(quantity);
            l_extendedprice.push(extprice);
            l_discount.push(discount);
            l_tax.push(tax);
            l_returnflag.push(returnflag);
            l_linestatus.push(linestatus);
            l_shipdate.push(shipdate);
            l_commitdate.push(commitdate);
            l_receiptdate.push(receiptdate);
            l_shipinstruct.push(text::SHIP_INSTRUCT[rng.gen_range(0..text::SHIP_INSTRUCT.len())]);
            l_shipmode.push(text::SHIP_MODES[rng.gen_range(0..text::SHIP_MODES.len())]);
            l_comment.push_with(|s| text::comment(&mut rng, 2, None, 0, s));
        }
        o_orderkey.push(orderkey);
        o_custkey.push(custkey);
        o_orderstatus.push(if all_f {
            "F"
        } else if all_o {
            "O"
        } else {
            "P"
        });
        o_totalprice.push(total);
        o_orderdate.push(orderdate);
        o_orderpriority.push(text::PRIORITIES[rng.gen_range(0..text::PRIORITIES.len())]);
        o_clerk.push_fmt(format_args!("Clerk#{:09}", rng.gen_range(1..=1000)));
        o_shippriority.push(0i64);
        // Q13: ~1% of orders carry "special ... requests" comments.
        o_comment
            .push_with(|s| text::comment(&mut rng, 4, Some(("special", "requests")), 10_000, s));
    }

    let orders_schema = Schema::new(vec![
        ("o_orderkey", DataType::I64),
        ("o_custkey", DataType::I64),
        ("o_orderstatus", DataType::Str),
        ("o_totalprice", DataType::I64),
        ("o_orderdate", DataType::I32),
        ("o_orderpriority", DataType::Str),
        ("o_clerk", DataType::Str),
        ("o_shippriority", DataType::I64),
        ("o_comment", DataType::Str),
    ]);
    let orders_data = Batch::from_columns(vec![
        Column::I64(o_orderkey),
        Column::I64(o_custkey),
        Column::Str(o_orderstatus),
        Column::I64(o_totalprice),
        Column::I32(o_orderdate),
        Column::Str(o_orderpriority),
        Column::Str(o_clerk),
        Column::I64(o_shippriority),
        Column::Str(o_comment),
    ]);
    let orders = Arc::new(
        Relation::partitioned(
            orders_schema,
            &orders_data,
            PartitionBy::Hash { column: 0 },
            PARTITIONS,
            PLACEMENT,
            topology,
        )
        .dict_encoded(),
    );

    let lineitem_schema = Schema::new(vec![
        ("l_orderkey", DataType::I64),
        ("l_partkey", DataType::I64),
        ("l_suppkey", DataType::I64),
        ("l_linenumber", DataType::I64),
        ("l_quantity", DataType::I64),
        ("l_extendedprice", DataType::I64),
        ("l_discount", DataType::I64),
        ("l_tax", DataType::I64),
        ("l_returnflag", DataType::Str),
        ("l_linestatus", DataType::Str),
        ("l_shipdate", DataType::I32),
        ("l_commitdate", DataType::I32),
        ("l_receiptdate", DataType::I32),
        ("l_shipinstruct", DataType::Str),
        ("l_shipmode", DataType::Str),
        ("l_comment", DataType::Str),
    ]);
    let lineitem_data = Batch::from_columns(vec![
        Column::I64(l_orderkey),
        Column::I64(l_partkey),
        Column::I64(l_suppkey),
        Column::I64(l_linenumber),
        Column::I64(l_quantity),
        Column::I64(l_extendedprice),
        Column::I64(l_discount),
        Column::I64(l_tax),
        Column::Str(l_returnflag),
        Column::Str(l_linestatus),
        Column::I32(l_shipdate),
        Column::I32(l_commitdate),
        Column::I32(l_receiptdate),
        Column::Str(l_shipinstruct),
        Column::Str(l_shipmode),
        Column::Str(l_comment),
    ]);
    // Co-partitioned with orders on the orderkey (Section 4.3's example).
    let lineitem = Arc::new(
        Relation::partitioned(
            lineitem_schema,
            &lineitem_data,
            PartitionBy::Hash { column: 0 },
            PARTITIONS,
            PLACEMENT,
            topology,
        )
        .dict_encoded(),
    );
    (orders, lineitem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> TpchDb {
        generate(
            TpchConfig {
                scale: 0.002,
                ..Default::default()
            },
            &Topology::nehalem_ex(),
        )
    }

    #[test]
    fn row_counts_scale() {
        let db = small_db();
        assert_eq!(db.region.total_rows(), 5);
        assert_eq!(db.nation.total_rows(), 25);
        assert_eq!(db.supplier.total_rows(), 20);
        assert_eq!(db.customer.total_rows(), 300);
        assert_eq!(db.part.total_rows(), 400);
        assert_eq!(db.partsupp.total_rows(), 1600);
        assert_eq!(db.orders.total_rows(), 3000);
        let l = db.lineitem.total_rows();
        assert!(l > 3000 * 2 && l < 3000 * 8, "lineitem rows {l}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_db();
        let b = small_db();
        assert_eq!(a.lineitem.total_rows(), b.lineitem.total_rows());
        assert_eq!(a.orders.gather(), b.orders.gather());
    }

    #[test]
    fn custkey_mod3_rule() {
        let db = small_db();
        let orders = db.orders.gather();
        let custkeys = orders.column(1).as_i64();
        assert!(custkeys.iter().all(|&c| c % 3 != 0));
        assert!(custkeys.iter().all(|c| (1..=300).contains(c)));
    }

    #[test]
    fn dates_are_consistent() {
        let db = small_db();
        let l = db.lineitem.gather();
        let ship = l.column(10).as_i32();
        let commit = l.column(11).as_i32();
        let receipt = l.column(12).as_i32();
        for i in 0..l.rows() {
            assert!(receipt[i] > ship[i]);
            assert!(commit[i] >= ship[i] - 121 + 30 - 121); // sane window
            assert!(ship[i] >= date(1992, 1, 2));
            assert!(receipt[i] <= date(1998, 8, 2) + 151);
        }
    }

    #[test]
    fn returnflag_linestatus_follow_cutoff() {
        let db = small_db();
        let l = db.lineitem.gather();
        let ship = l.column(10).as_i32();
        let receipt = l.column(12).as_i32();
        let rf = l.column(8).as_str();
        let ls = l.column(9).as_str();
        let cutoff = date(1995, 6, 17);
        for i in 0..l.rows() {
            if receipt[i] <= cutoff {
                assert!(rf.get(i) == "R" || rf.get(i) == "A");
            } else {
                assert_eq!(rf.get(i), "N");
            }
            assert_eq!(ls.get(i) == "O", ship[i] > cutoff);
        }
    }

    #[test]
    fn lineitem_keys_reference_orders_and_parts() {
        let db = small_db();
        let l = db.lineitem.gather();
        let n_orders = db.orders.total_rows() as i64;
        let n_parts = db.part.total_rows() as i64;
        let n_supp = db.supplier.total_rows() as i64;
        for i in 0..l.rows() {
            let ok = l.column(0).as_i64()[i];
            assert!(ok >= 1 && ok <= n_orders);
            let pk = l.column(1).as_i64()[i];
            assert!(pk >= 1 && pk <= n_parts);
            let sk = l.column(2).as_i64()[i];
            assert!(sk >= 1 && sk <= n_supp, "suppkey {sk}");
        }
    }

    #[test]
    fn lineitem_suppkey_is_one_of_partsupp_suppliers() {
        let db = small_db();
        let ps = db.partsupp.gather();
        let mut pairs = std::collections::HashSet::new();
        for i in 0..ps.rows() {
            pairs.insert((ps.column(0).as_i64()[i], ps.column(1).as_i64()[i]));
        }
        let l = db.lineitem.gather();
        for i in 0..l.rows() {
            let pk = l.column(1).as_i64()[i];
            let sk = l.column(2).as_i64()[i];
            assert!(pairs.contains(&(pk, sk)), "({pk},{sk}) not in partsupp");
        }
    }

    #[test]
    fn partitions_spread_over_nodes() {
        let db = small_db();
        let nodes: std::collections::HashSet<u16> =
            db.lineitem.partitions().iter().map(|p| p.node.0).collect();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn placement_override() {
        let t = Topology::nehalem_ex();
        let db = small_db().with_placement(Placement::OsDefault, &t);
        assert!(db.lineitem.partitions().iter().all(|p| p.node.0 == 0));
        assert!(db.total_bytes() > 0);
    }
}
