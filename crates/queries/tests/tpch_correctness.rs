//! Correctness of the TPC-H plans against independent brute-force
//! reference implementations computed straight from the generated tables.

use std::collections::HashMap;

use morsel_core::ExecEnv;
use morsel_datagen::{generate_tpch, TpchConfig, TpchDb};
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_queries::{run_sim, tpch_queries};
use morsel_storage::{date, Batch};

fn db() -> (TpchDb, ExecEnv) {
    let topo = Topology::nehalem_ex();
    let db = generate_tpch(
        TpchConfig {
            scale: 0.003,
            ..Default::default()
        },
        &topo,
    );
    (db, ExecEnv::new(topo))
}

fn run(db: &TpchDb, env: &ExecEnv, q: usize) -> Batch {
    run_sim(
        env,
        &format!("q{q}"),
        tpch_queries::query(db, q),
        SystemVariant::full(),
        16,
        2048,
    )
    .result
}

struct Lineitem {
    orderkey: Vec<i64>,
    quantity: Vec<i64>,
    extprice: Vec<i64>,
    discount: Vec<i64>,
    tax: Vec<i64>,
    returnflag: Vec<String>,
    linestatus: Vec<String>,
    shipdate: Vec<i32>,
    commitdate: Vec<i32>,
    receiptdate: Vec<i32>,
    shipmode: Vec<String>,
}

fn lineitem(db: &TpchDb) -> Lineitem {
    let l = db.lineitem.gather();
    Lineitem {
        orderkey: l.column(0).as_i64().to_vec(),
        quantity: l.column(4).as_i64().to_vec(),
        extprice: l.column(5).as_i64().to_vec(),
        discount: l.column(6).as_i64().to_vec(),
        tax: l.column(7).as_i64().to_vec(),
        returnflag: l.column(8).as_str().iter().map(String::from).collect(),
        linestatus: l.column(9).as_str().iter().map(String::from).collect(),
        shipdate: l.column(10).as_i32().to_vec(),
        commitdate: l.column(11).as_i32().to_vec(),
        receiptdate: l.column(12).as_i32().to_vec(),
        shipmode: l.column(14).as_str().iter().map(String::from).collect(),
    }
}

#[test]
fn q1_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 1);
    let l = lineitem(&db);

    let cutoff = date(1998, 9, 2);
    type Q1Acc = (i64, i64, i64, i64, i64);
    let mut groups: HashMap<(String, String), Q1Acc> = HashMap::new();
    for i in 0..l.orderkey.len() {
        if l.shipdate[i] > cutoff {
            continue;
        }
        let key = (l.returnflag[i].clone(), l.linestatus[i].clone());
        let disc_price = l.extprice[i] * (100 - l.discount[i]) / 100;
        let charge = disc_price * (100 + l.tax[i]) / 100;
        let e = groups.entry(key).or_default();
        e.0 += l.quantity[i];
        e.1 += l.extprice[i];
        e.2 += disc_price;
        e.3 += charge;
        e.4 += 1;
    }
    assert_eq!(out.rows(), groups.len());
    for i in 0..out.rows() {
        let key = (
            out.column(0).as_str().get(i).to_owned(),
            out.column(1).as_str().get(i).to_owned(),
        );
        let g = groups.get(&key).expect("unexpected group");
        assert_eq!(out.column(2).as_i64()[i], g.0, "sum_qty {key:?}");
        assert_eq!(out.column(3).as_i64()[i], g.1, "sum_base {key:?}");
        assert_eq!(out.column(4).as_i64()[i], g.2, "sum_disc_price {key:?}");
        assert_eq!(out.column(5).as_i64()[i], g.3, "sum_charge {key:?}");
        assert_eq!(out.column(9).as_i64()[i], g.4, "count {key:?}");
        let avg_qty = out.column(6).as_f64()[i];
        assert!((avg_qty - g.0 as f64 / g.4 as f64).abs() < 1e-9);
    }
    // Sorted by returnflag, linestatus.
    for i in 1..out.rows() {
        let a = (
            out.column(0).as_str().get(i - 1),
            out.column(1).as_str().get(i - 1),
        );
        let b = (out.column(0).as_str().get(i), out.column(1).as_str().get(i));
        assert!(a <= b);
    }
}

#[test]
fn q4_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 4);
    let l = lineitem(&db);
    let o = db.orders.gather();

    let mut late_orders: std::collections::HashSet<i64> = Default::default();
    for i in 0..l.orderkey.len() {
        if l.commitdate[i] < l.receiptdate[i] {
            late_orders.insert(l.orderkey[i]);
        }
    }
    let lo = date(1993, 7, 1);
    let hi = date(1993, 10, 1) - 1;
    let mut counts: HashMap<String, i64> = HashMap::new();
    for i in 0..o.rows() {
        let od = o.column(4).as_i32()[i];
        if od >= lo && od <= hi && late_orders.contains(&o.column(0).as_i64()[i]) {
            *counts
                .entry(o.column(5).as_str().get(i).to_owned())
                .or_default() += 1;
        }
    }
    assert_eq!(out.rows(), counts.len());
    for i in 0..out.rows() {
        let prio = out.column(0).as_str().get(i);
        assert_eq!(out.column(1).as_i64()[i], counts[prio], "priority {prio}");
    }
}

#[test]
fn q6_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 6);
    let l = lineitem(&db);
    let lo = date(1994, 1, 1);
    let hi = date(1995, 1, 1) - 1;
    let mut expect = 0i64;
    for i in 0..l.orderkey.len() {
        if l.shipdate[i] >= lo
            && l.shipdate[i] <= hi
            && (5..=7).contains(&l.discount[i])
            && l.quantity[i] < 24
        {
            expect += l.extprice[i] * l.discount[i] / 100;
        }
    }
    assert_eq!(out.rows(), 1);
    assert_eq!(out.column(0).as_i64(), &[expect]);
}

#[test]
fn q12_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 12);
    let l = lineitem(&db);
    let o = db.orders.gather();
    let mut prio_of: HashMap<i64, String> = HashMap::new();
    for i in 0..o.rows() {
        prio_of.insert(
            o.column(0).as_i64()[i],
            o.column(5).as_str().get(i).to_owned(),
        );
    }
    let lo = date(1994, 1, 1);
    let hi = date(1995, 1, 1) - 1;
    let mut expect: HashMap<String, (i64, i64)> = HashMap::new();
    for i in 0..l.orderkey.len() {
        let sm = &l.shipmode[i];
        if (sm == "MAIL" || sm == "SHIP")
            && l.commitdate[i] < l.receiptdate[i]
            && l.shipdate[i] < l.commitdate[i]
            && l.receiptdate[i] >= lo
            && l.receiptdate[i] <= hi
        {
            let prio = &prio_of[&l.orderkey[i]];
            let e = expect.entry(sm.clone()).or_default();
            if prio == "1-URGENT" || prio == "2-HIGH" {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
    assert_eq!(out.rows(), expect.len());
    for i in 0..out.rows() {
        let sm = out.column(0).as_str().get(i);
        assert_eq!(out.column(1).as_i64()[i], expect[sm].0);
        assert_eq!(out.column(2).as_i64()[i], expect[sm].1);
    }
}

#[test]
fn q13_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 13);
    let o = db.orders.gather();
    let c = db.customer.gather();
    let pattern = morsel_exec::expr::LikePattern::parse("%special%requests%");
    let mut orders_per_cust: HashMap<i64, i64> = HashMap::new();
    for i in 0..o.rows() {
        if !pattern.matches(o.column(8).as_str().get(i)) {
            *orders_per_cust.entry(o.column(1).as_i64()[i]).or_default() += 1;
        }
    }
    let mut dist: HashMap<i64, i64> = HashMap::new();
    for i in 0..c.rows() {
        let n = orders_per_cust
            .get(&c.column(0).as_i64()[i])
            .copied()
            .unwrap_or(0);
        *dist.entry(n).or_default() += 1;
    }
    assert_eq!(out.rows(), dist.len());
    // Zero-order customers must exist (the mod-3 rule).
    assert!(dist[&0] > 0);
    for i in 0..out.rows() {
        let c_count = out.column(0).as_i64()[i];
        assert_eq!(
            out.column(1).as_i64()[i],
            dist[&c_count],
            "c_count {c_count}"
        );
    }
    // Sorted by custdist desc, c_count desc.
    for i in 1..out.rows() {
        let a = (out.column(1).as_i64()[i - 1], out.column(0).as_i64()[i - 1]);
        let b = (out.column(1).as_i64()[i], out.column(0).as_i64()[i]);
        assert!(a >= b);
    }
}

#[test]
fn q19_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 19);
    let l = db.lineitem.gather();
    let p = db.part.gather();
    let mut brand: HashMap<i64, (String, String, i64)> = HashMap::new();
    for i in 0..p.rows() {
        brand.insert(
            p.column(0).as_i64()[i],
            (
                p.column(3).as_str().get(i).to_owned(),
                p.column(6).as_str().get(i).to_owned(),
                p.column(5).as_i64()[i],
            ),
        );
    }
    let mut expect = 0i64;
    for i in 0..l.rows() {
        let sm = l.column(14).as_str().get(i);
        if !(sm == "AIR" || sm == "AIR REG") {
            continue;
        }
        if l.column(13).str_at(i) != "DELIVER IN PERSON" {
            continue;
        }
        let (b, cont, size) = &brand[&l.column(1).as_i64()[i]];
        let q = l.column(4).as_i64()[i];
        let ok = (b == "Brand#12"
            && ["SM CASE", "SM BOX", "SM PACK", "SM PKG"].contains(&cont.as_str())
            && (1..=11).contains(&q)
            && (1..=5).contains(size))
            || (b == "Brand#23"
                && ["MED BAG", "MED BOX", "MED PKG", "MED PACK"].contains(&cont.as_str())
                && (10..=20).contains(&q)
                && (1..=10).contains(size))
            || (b == "Brand#34"
                && ["LG CASE", "LG BOX", "LG PACK", "LG PKG"].contains(&cont.as_str())
                && (20..=30).contains(&q)
                && (1..=15).contains(size));
        if ok {
            expect += l.column(5).as_i64()[i] * (100 - l.column(6).as_i64()[i]) / 100;
        }
    }
    assert_eq!(out.rows(), 1);
    assert_eq!(out.column(0).as_i64(), &[expect]);
}

#[test]
fn q22_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 22);
    let c = db.customer.gather();
    let o = db.orders.gather();
    let codes = ["13", "31", "23", "29", "30", "18", "17"];
    let has_orders: std::collections::HashSet<i64> =
        (0..o.rows()).map(|i| o.column(1).as_i64()[i]).collect();

    let mut bal_sum = 0i64;
    let mut bal_n = 0i64;
    for i in 0..c.rows() {
        let code = &c.column(4).as_str().get(i)[..2];
        let bal = c.column(5).as_i64()[i];
        if codes.contains(&code) && bal > 0 {
            bal_sum += bal;
            bal_n += 1;
        }
    }
    let avg = bal_sum as f64 / bal_n as f64;

    let mut expect: HashMap<String, (i64, i64)> = HashMap::new();
    for i in 0..c.rows() {
        let code = &c.column(4).as_str().get(i)[..2];
        let bal = c.column(5).as_i64()[i];
        let key = c.column(0).as_i64()[i];
        if codes.contains(&code) && (bal as f64) > avg && !has_orders.contains(&key) {
            let e = expect.entry(code.to_owned()).or_default();
            e.0 += 1;
            e.1 += bal;
        }
    }
    assert_eq!(out.rows(), expect.len());
    for i in 0..out.rows() {
        let code = out.column(0).as_str().get(i);
        assert_eq!(out.column(1).as_i64()[i], expect[code].0, "numcust {code}");
        assert_eq!(
            out.column(2).as_i64()[i],
            expect[code].1,
            "totacctbal {code}"
        );
    }
}

#[test]
fn q18_matches_reference() {
    let (db, env) = db();
    let out = run(&db, &env, 18);
    let l = lineitem(&db);
    let mut qty: HashMap<i64, i64> = HashMap::new();
    for i in 0..l.orderkey.len() {
        *qty.entry(l.orderkey[i]).or_default() += l.quantity[i];
    }
    let expect: usize = qty.values().filter(|&&q| q > 300).count();
    assert_eq!(out.rows(), expect.min(100));
    // All reported orders really exceed 300.
    for i in 0..out.rows() {
        assert!(out.column(4).as_i64()[i] > 300);
    }
}
