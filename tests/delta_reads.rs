//! Reads over tables that have — or once had — a delta.
//!
//! The executor compiles a string column's kernels once per relation, so
//! every partition of a relation must encode that column the same way
//! (DESIGN.md §14). A snapshot or merged base that appended the plain
//! delta partition to dictionary-encoded base partitions broke that, and
//! TPC-H Q1 (grouping by two dictionary columns of `lineitem`) panicked
//! on any written table. Here Q1 and Q12 run as hand plan and as SQL
//! fixture after an `INSERT`, after an `UPDATE` and after a merge, and
//! must equal the hand plan over a plain single-partition copy of the
//! same rows — an input no encoding decision can reach.

use std::sync::Arc;

use morsel_repro::datagen::TpchDb;
use morsel_repro::exec::sort::{sort_batch, SortKey};
use morsel_repro::prelude::*;
use morsel_repro::queries::{tpch_queries, tpch_sql};
use morsel_repro::service::{QueryService, ServiceConfig, Session};
use morsel_repro::txn::TxnDb;

/// Sorted on all columns; float columns equal to 1e-9 relative (the
/// executors sum in different orders).
fn assert_same_rows(what: &str, want: &Batch, got: &Batch) {
    let keys: Vec<SortKey> = (0..want.width()).map(SortKey::asc).collect();
    let (want, got) = (sort_batch(want, &keys), sort_batch(got, &keys));
    assert_eq!(want.rows(), got.rows(), "{what}: row count");
    for c in 0..want.width() {
        match (want.column(c), got.column(c)) {
            (Column::F64(w), Column::F64(g)) => {
                for (i, (w, g)) in w.iter().zip(g).enumerate() {
                    let close = (w - g).abs() <= 1e-9 * w.abs().max(1.0);
                    assert!(close, "{what}: column {c} row {i}: {w} vs {g}");
                }
            }
            (w, g) => assert_eq!(w.decoded(), g.decoded(), "{what}: column {c}"),
        }
    }
}

struct Fixture {
    base: TpchDb,
    db: Arc<TxnDb>,
    session: Session,
    service: QueryService,
    env: ExecEnv,
}

impl Fixture {
    /// `base` with `orders` and `lineitem` as `pick` sees the latest
    /// committed ones.
    fn view(&self, pick: impl Fn(Arc<Relation>) -> Arc<Relation>) -> TpchDb {
        let latest = |t| pick(self.db.latest_relation(t).expect("a registered table"));
        let b = &self.base;
        TpchDb {
            region: Arc::clone(&b.region),
            nation: Arc::clone(&b.nation),
            supplier: Arc::clone(&b.supplier),
            customer: Arc::clone(&b.customer),
            part: Arc::clone(&b.part),
            partsupp: Arc::clone(&b.partsupp),
            orders: latest("orders"),
            lineitem: latest("lineitem"),
            config: b.config,
        }
    }

    fn check(&self, stage: &str) {
        // Every partition encodes a column the way partition 0 does.
        for table in ["orders", "lineitem"] {
            let rel = self.db.latest_relation(table).unwrap();
            let first = &rel.partition(0).data;
            for p in rel.partitions() {
                for c in 0..first.width() {
                    let same = match (first.column(c).as_dict(), p.data.column(c).as_dict()) {
                        (Some(a), Some(b)) => a.same_dict(b),
                        (a, b) => a.is_none() && b.is_none(),
                    };
                    assert!(same, "{stage}: {table} column {c} is encoded two ways");
                }
            }
        }
        let plain = self.view(|r| Arc::new(Relation::single(r.schema().clone(), r.gather())));
        let latest = self.view(|r| r);
        for q in [1, 12] {
            let run = |db: &TpchDb, leg: &str| {
                let name = format!("{stage}-q{q}-{leg}");
                let plan = tpch_queries::query(db, q);
                let out = run_sim(&self.env, &name, plan, SystemVariant::full(), 8, 512);
                assert_eq!(out.outcome, QueryOutcome::Completed, "{name}");
                out.result
            };
            let want = run(&plain, "oracle");
            assert!(want.rows() > 0);
            assert_same_rows(
                &format!("{stage}: Q{q} hand plan"),
                &want,
                &run(&latest, "hand"),
            );
            let sql = tpch_sql::text(q).expect("Q1 and Q12 have SQL fixtures");
            let exec = self
                .session
                .execute(&self.service, format!("{stage}-q{q}-sql"), sql)
                .unwrap_or_else(|e| panic!("{stage}: Q{q} over SQL: {e}"));
            let got = exec.rows().expect("a completed SELECT has rows");
            assert_same_rows(&format!("{stage}: Q{q} SQL fixture"), &want, got);
        }
    }

    fn dml(&self, sql: &str, rows: usize) {
        let exec = self.session.execute(&self.service, "dml", sql);
        let exec = exec.unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(exec.dml().expect("DML").rows_affected, rows, "{sql}");
    }
}

#[test]
fn q1_and_q12_over_written_tables_match_the_oracle() {
    let topo = Topology::laptop();
    let base = generate_tpch(TpchConfig::scaled(0.002), &topo);
    let dir = std::env::temp_dir().join(format!("morsel-delta-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tables = vec![
        ("orders", Arc::clone(&base.orders)),
        ("lineitem", Arc::clone(&base.lineitem)),
    ];
    let db = Arc::new(TxnDb::create(&dir, tables).expect("create"));
    let service = QueryService::start(ExecEnv::new(topo.clone()), ServiceConfig::new(2));
    let session = Session::builder()
        .database(Arc::clone(&db))
        .topology(&topo)
        .build();
    let fx = Fixture {
        base,
        db,
        session,
        service,
        env: ExecEnv::new(topo),
    };
    let flags = fx.base.lineitem.partition(0).data.column(8).as_dict();
    let flags = flags.expect("l_returnflag is dictionary-encoded at load");
    assert!(flags.dict().code_of("X").is_none());
    fx.check("loaded");

    // An order and two lineitems that Q1 and Q12 both count: one with
    // base values only, one whose return flag 'X' is outside the base
    // dictionary (a new Q1 group).
    fx.dml(
        "INSERT INTO orders VALUES (9000001, 7, 'O', 50000, DATE '1994-02-01', '1-URGENT', \
         'Clerk#000000001', 0, 'written order')",
        1,
    );
    fx.dml(
        "INSERT INTO lineitem VALUES \
         (9000001, 3, 4, 1, 17, 170000, 5, 2, 'N', 'O', DATE '1994-03-01', DATE '1994-03-10', \
          DATE '1994-03-20', 'NONE', 'MAIL', 'written line'), \
         (9000001, 5, 6, 2, 23, 230000, 0, 8, 'X', 'F', DATE '1994-03-02', DATE '1994-03-11', \
          DATE '1994-03-21', 'COLLECT COD', 'SHIP', 'written line')",
        2,
    );
    fx.check("after INSERT");

    // One base row and one inserted row move.
    let first = fx.base.lineitem.partition(0).data.row(0);
    let (key, line) = (first[0].as_i64(), first[3].as_i64());
    fx.dml(
        &format!("UPDATE lineitem SET l_quantity = 49 WHERE l_orderkey = {key} AND l_linenumber = {line}"),
        1,
    );
    fx.dml(
        "UPDATE lineitem SET l_returnflag = 'Y' WHERE l_orderkey = 9000001 AND l_linenumber = 1",
        1,
    );
    fx.check("after UPDATE");

    fx.session.merge_all().expect("merge");
    assert_eq!(fx.db.delta_stats("lineitem").unwrap().2, 1, "merged");
    fx.check("after merge");

    // … and a write on top of the merged base.
    fx.dml(
        "DELETE FROM lineitem WHERE l_orderkey = 9000001 AND l_linenumber = 2",
        1,
    );
    fx.check("after merge + DELETE");

    fx.service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
