//! Parser property tests: pretty-print a random supported AST, reparse
//! it, and require structural equality (spans excepted — AST equality
//! ignores them by construction). Plus error-position tests over a real
//! TPC-H catalog: every rejection must point at the offending bytes.

mod common;

use common::Gen;
use morsel_sql::{parse, plan_sql, Binder, SqlError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse is the identity on ASTs (spans ignored).
    #[test]
    fn pretty_printed_ast_reparses_identically(seed in 0u64..4096) {
        let ast = Gen::new(seed).select(2);
        let printed = ast.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: reparse failed: {}\n{printed}", e.render(&printed))
        });
        prop_assert_eq!(&ast, &reparsed, "seed {}: {}", seed, printed);
        // And printing is a fixpoint.
        prop_assert_eq!(printed.clone(), reparsed.to_string());
    }
}

// ---- error positions over a real catalog --------------------------------

fn tpch_catalog() -> morsel_storage::Catalog {
    let topo = morsel_numa::Topology::laptop();
    morsel_datagen::generate_tpch(morsel_datagen::TpchConfig::scaled(0.001), &topo).catalog()
}

fn bind_err(catalog: &morsel_storage::Catalog, sql: &str) -> SqlError {
    match plan_sql(catalog, sql) {
        Ok(_) => panic!("expected an error for {sql:?}"),
        Err(e) => e,
    }
}

#[test]
fn unknown_column_points_at_the_reference() {
    let cat = tpch_catalog();
    let sql = "SELECT l_orderkey, l_shipdat FROM lineitem";
    let err = bind_err(&cat, sql);
    assert_eq!(&sql[err.span.start..err.span.end], "l_shipdat");
    assert!(err.message.contains("unknown column `l_shipdat`"), "{err}");
    let rendered = err.render(sql);
    assert!(rendered.contains("^^^^^^^^^"), "{rendered}");
}

#[test]
fn ambiguous_name_points_at_the_reference_and_lists_sources() {
    let cat = tpch_catalog();
    // c_comment exists in customer; o_comment in orders; `n_comment` vs...
    // `c_custkey` appears in both customer and orders? No — use two
    // aliases of the same table.
    let sql = "SELECT n_name FROM nation AS n1, nation AS n2, region \
               WHERE n1.n_regionkey = r_regionkey AND n2.n_regionkey = r_regionkey";
    let err = bind_err(&cat, sql);
    assert_eq!(&sql[err.span.start..err.span.end], "n_name");
    assert!(err.message.contains("ambiguous column `n_name`"), "{err}");
    assert!(
        err.message.contains("n1") && err.message.contains("n2"),
        "{err}"
    );
}

#[test]
fn type_mismatched_predicate_points_at_the_comparison() {
    let cat = tpch_catalog();
    let sql = "SELECT l_orderkey FROM lineitem WHERE l_shipmode > 5";
    let err = bind_err(&cat, sql);
    assert_eq!(&sql[err.span.start..err.span.end], "l_shipmode > 5");
    assert!(
        err.message.contains("cannot compare string to integer"),
        "{err}"
    );

    // Join keys are typed too.
    let sql2 = "SELECT l_orderkey FROM lineitem, orders WHERE l_comment = o_orderkey";
    let err2 = bind_err(&cat, sql2);
    assert!(
        err2.message.contains("type mismatch in join predicate"),
        "{err2}"
    );
    assert_eq!(
        &sql2[err2.span.start..err2.span.end],
        "l_comment = o_orderkey"
    );
}

#[test]
fn trailing_garbage_points_past_the_statement() {
    let cat = tpch_catalog();
    let sql = "SELECT l_orderkey FROM lineitem ORDER BY l_orderkey 42";
    let err = parse(sql).unwrap_err();
    assert!(err.message.contains("trailing"), "{err}");
    assert_eq!(&sql[err.span.start..err.span.end], "42");
    // The binder surfaces parse errors through the same path.
    let err2 = bind_err(&cat, sql);
    assert_eq!(err2, err);
}

#[test]
fn lexer_errors_carry_positions_through_plan_sql() {
    let cat = tpch_catalog();
    let sql = "SELECT l_orderkey FROM lineitem WHERE l_comment = 'open";
    let err = bind_err(&cat, sql);
    assert!(err.message.contains("unterminated"), "{err}");
    assert_eq!(err.span.end, sql.len());
}

#[test]
fn binder_rejects_aggregates_in_where() {
    let cat = tpch_catalog();
    let sql = "SELECT l_orderkey FROM lineitem WHERE SUM(l_quantity) > 5";
    let err = bind_err(&cat, sql);
    assert!(err.message.contains("not allowed here"), "{err}");
    assert_eq!(&sql[err.span.start..err.span.end], "SUM(l_quantity)");
}

#[test]
fn bound_fixture_asts_roundtrip_through_the_printer() {
    // The 25 shipped fixtures are real-world inputs; their parsed ASTs
    // must survive print → reparse → bind unchanged.
    let cat = tpch_catalog();
    let binder = Binder::new(&cat);
    for (q, sql) in morsel_queries::tpch_sql::all() {
        let ast = parse(sql).unwrap_or_else(|e| panic!("Q{q}: {}", e.render(sql)));
        let printed = ast.to_string();
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("Q{q} reprint: {}", e.render(&printed)));
        assert_eq!(ast, reparsed, "Q{q} roundtrip changed the AST");
        assert!(
            binder.bind(&reparsed).is_ok(),
            "Q{q}: reprinted text no longer binds"
        );
    }
}
