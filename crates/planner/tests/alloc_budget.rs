//! Heap allocations of binding and planning, counted by this binary's
//! own global allocator: `Binder::bind` and `Planner::plan_handle` on the
//! four fixtures with the most joins, at SF 0.002, after one warm-up
//! pass (which builds each relation's statistics). Each budget is 1.25×
//! the count the code made when it was set, so it leaves room for small
//! changes and fails on a return to per-name or per-candidate
//! allocation. When a change lowers a count for good, lower its budget.
//! The counts are a debug build's (what `cargo test` runs), which
//! includes the planner's debug-only check of the output layout; a
//! release build plans Q8 in ~120 fewer.
//!
//! For scale: before the join enumerator kept a memo of splits,
//! lowering and binding worked on column indexes and the logical plan
//! took its join, group and sort keys and aggregate inputs as positions,
//! Q8 made 1,386 allocations binding and 5,091 planning (a release
//! build); it now makes 202 and 311. Run with one candidate-tree clone
//! put back into the enumerator (`Dpccp::pair` building both halves'
//! trees), Q5, Q8 and Q9 exceed their plan budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, TpchConfig};
use morsel_numa::Topology;
use morsel_planner::Planner;
use morsel_queries::{ssb_sql, tpch_sql};
use morsel_sql::{parse, Binder};
use morsel_storage::Catalog;

/// Counts the allocations (and reallocations) of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations to bind and to plan one fixture.
fn counts(catalog: &Catalog, planner: &Planner, sql: &str) -> (usize, usize) {
    let select = parse(sql).expect("the fixture parses");
    let warm = Binder::new(catalog)
        .bind(&select)
        .expect("the fixture binds");
    drop(planner.plan_handle(&warm));
    let (logical, bind) = allocs_of(|| Binder::new(catalog).bind(&select).unwrap());
    let (handle, plan) = allocs_of(|| planner.plan_handle(&logical));
    drop(handle);
    (bind, plan)
}

#[test]
fn bind_and_plan_stay_within_their_allocation_budgets() {
    let topo = Topology::nehalem_ex();
    let planner = Planner::new(&topo);
    let tpch = generate_tpch(TpchConfig::scaled(0.002), &topo).catalog();
    let ssb = generate_ssb(SsbConfig::scaled(0.002), &topo).catalog();
    // (fixture, catalog, text, allocations binding, planning) as counted
    // when the budgets were set.
    let fixtures = [
        ("tpch.q5", &tpch, tpch_sql::text(5), 136, 310),
        ("tpch.q8", &tpch, tpch_sql::text(8), 202, 430),
        ("tpch.q9", &tpch, tpch_sql::text(9), 146, 332),
        ("ssb.q4.2", &ssb, ssb_sql::text("4.2"), 161, 291),
    ];
    let mut over = Vec::new();
    for (name, catalog, sql, bind_then, plan_then) in fixtures {
        let (bind, plan) = counts(catalog, &planner, sql.expect("a SQL fixture"));
        println!("{name}: bind {bind} (set at {bind_then}), plan {plan} (set at {plan_then})");
        for (layer, now, then) in [("bind", bind, bind_then), ("plan", plan, plan_then)] {
            if now * 4 > then * 5 {
                over.push(format!(
                    "{name} {layer}: {now} allocations, budget 1.25 × {then}"
                ));
            }
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}
