//! A relation's string column has one encoding whatever partitions it was
//! built from (DESIGN.md §14): `Relation::from_partitions` re-encodes
//! partitions that disagree, and the compiled plan chooses each column's
//! string kernels once, from that encoding.
//!
//! Random layouts of 1–12 partitions of `t(k, s)` — each partition plain,
//! coded in a dictionary the layout shares, coded in one of its own, or
//! empty — built as they are and as a grouped view, run `GROUP BY s` with
//! `COUNT`, `ORDER BY s`, string `=`, `LIKE` and `IN` filters, string-key
//! joins in both directions to a second relation and a self-join on `s`,
//! on the simulator and on real threads at 1 and 4 workers with small and
//! large morsels. The oracle is the same rows in one plain partition, on
//! the simulator.
//!
//! The two layouts that used to go wrong are checked by name on both
//! executors: eight partitions each on its own dictionary (codes of
//! different dictionaries merged into two groups instead of six), and a
//! plain partition between two coded ones (the group key panicked).
//!
//! Run against a copy whose `from_partitions` keeps the partitions as
//! given, the random layouts and both named cases fail.

use std::sync::Arc;

use morsel_exec::expr::{col, eq, in_str, like, lits, Expr};
use morsel_exec::plan::Plan;
use morsel_exec::sort::SortKey;
use morsel_exec::AggFn;
use morsel_numa::SocketId;
use morsel_storage::{
    Batch, Column, DataType, DictColumn, Dictionary, Partition, Relation, Schema, StrColumn,
};
use proptest::TestRng;

#[path = "common/run_plans.rs"]
mod run_plans;

use run_plans::{rows, run, Exec};

const VALUES: [&str; 6] = ["AIR", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"];

/// How one partition stores `s`.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Plain,
    Shared,
    Own,
}

/// One partition of a layout: its representation and its values of `s`.
#[derive(Debug, Clone)]
struct Piece {
    kind: Kind,
    values: Vec<&'static str>,
}

fn schema() -> Schema {
    Schema::new(vec![("k", DataType::I64), ("s", DataType::Str)])
}

fn strings(values: &[&str]) -> StrColumn {
    values.iter().copied().collect()
}

/// The `s` column of `piece`, `shared` being the layout's dictionary.
fn column(piece: &Piece, shared: &Arc<Dictionary>) -> Column {
    let plain = strings(&piece.values);
    match piece.kind {
        Kind::Plain => Column::Str(plain),
        Kind::Shared => Column::Dict(DictColumn::encode(shared, plain.iter()).unwrap()),
        Kind::Own => {
            let own = Dictionary::from_values(piece.values.iter().copied());
            Column::Dict(DictColumn::encode(&own, plain.iter()).unwrap())
        }
    }
}

/// `pieces` as one relation, partition `i` on node `i % sockets`; `k`
/// numbers the rows in partition order.
fn relation(pieces: &[Piece], sockets: u16) -> Relation {
    let shared = Dictionary::from_values(VALUES);
    let mut k = 0;
    let parts = (pieces.iter().enumerate())
        .map(|(i, piece)| {
            let n = piece.values.len() as i64;
            let keys = Column::I64((k..k + n).collect());
            k += n;
            let batch = Batch::from_columns(vec![keys, column(piece, &shared)]);
            Partition::new(SocketId((i % sockets as usize) as u16), batch)
        })
        .collect();
    Relation::from_partitions(schema(), parts)
}

/// The same rows in one plain partition.
fn oracle(pieces: &[Piece]) -> Arc<Relation> {
    let values: Vec<&'static str> = pieces.iter().flat_map(|p| p.values.clone()).collect();
    Arc::new(relation(
        &[Piece {
            kind: Kind::Plain,
            values,
        }],
        1,
    ))
}

/// The second relation, `u(s2, w)`: every value but `TRUCK` plus one
/// missing from `t`, coded in its own dictionary or plain.
fn second(coded: bool) -> Arc<Relation> {
    let s2 = ["AIR", "FOB", "MAIL", "RAIL", "SHIP", "ZZZ", "MAIL"];
    let batch = Batch::from_columns(vec![
        Column::Str(strings(&s2)),
        Column::I64((0..s2.len() as i64).map(|w| 10 * w).collect()),
    ]);
    let u = Relation::single(
        Schema::new(vec![("s2", DataType::Str), ("w", DataType::I64)]),
        batch,
    );
    Arc::new(if coded { u.dict_encoded() } else { u })
}

/// `t` scanned under the names `k2, s2`, to join with itself.
fn t_as_build(t: &Arc<Relation>) -> Plan {
    Plan::scan_project(Arc::clone(t), None, vec![("k2", col(0)), ("s2", col(1))])
}

/// Every query of the matrix over `t` (joined to `u` and to itself), as
/// plans.
fn queries(t: &Arc<Relation>, u: &Arc<Relation>) -> Vec<Plan> {
    let scan = |filter: Option<Expr>| Plan::scan(Arc::clone(t), filter, &["k", "s"]);
    let by_s_then_k = vec![SortKey::asc(1), SortKey::asc(0)];
    let u_scan = || Plan::scan(Arc::clone(u), None, &["s2", "w"]);
    vec![
        scan(None).agg(&["s"], vec![("n", AggFn::Count)]),
        scan(None).sort_by(by_s_then_k.clone(), None),
        scan(None).sort_by(by_s_then_k, Some(5)),
        scan(Some(eq(col(1), lits("RAIL")))),
        scan(None).filter(like(col(1), "%AI%")),
        scan(None).filter(in_str(col(1), &["SHIP", "FOB", "ZZZ"])),
        scan(None).join(u_scan(), &["s"], &["s2"], &["w", "s2"]),
        u_scan().join(scan(None), &["s2"], &["s"], &["k", "s"]),
        scan(None)
            .join(u_scan(), &["s"], &["s2"], &["s2"])
            .agg(&["s2"], vec![("n", AggFn::Count)]),
        // A self-join: both sides in `t`'s one encoding.
        scan(None)
            .join(t_as_build(t), &["s"], &["s2"], &["s2"])
            .agg(&["s", "s2"], vec![("n", AggFn::Count)]),
    ]
}

/// Whether query `q` of [`queries`] answers in order.
fn ordered(q: usize) -> bool {
    matches!(q, 1 | 2)
}

fn sockets(exec: Exec) -> u16 {
    exec.topology().sockets()
}

/// Every query over `pieces` equals its answer over the oracle, on both
/// executors, for each worker count and morsel size, grouped or not.
fn check(pieces: &[Piece], context: &str) {
    let plain_u = second(false);
    let want: Vec<Vec<String>> = run(queries(&oracle(pieces), &plain_u), Exec::Sim, 1, 1 << 16)
        .iter()
        .enumerate()
        .map(|(q, b)| rows(b, ordered(q)))
        .collect();
    for exec in [Exec::Sim, Exec::Threaded] {
        let t = relation(pieces, sockets(exec));
        let s = t.encoding(1);
        assert!(
            t.partitions().iter().all(|p| s.stores(p.data.column(1))),
            "{context}: one encoding"
        );
        for view in [t.clone(), t.grouped()] {
            let view = Arc::new(view);
            for coded_u in [false, true] {
                for (workers, morsel) in [(1, 3), (1, 4096), (4, 3), (4, 4096)] {
                    let got = run(queries(&view, &second(coded_u)), exec, workers, morsel);
                    for (q, batch) in got.iter().enumerate() {
                        assert_eq!(
                            rows(batch, ordered(q)),
                            want[q],
                            "{context}: query {q} on {exec:?}, {workers} workers, \
                             morsels of {morsel}, u coded {coded_u}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_layout_answers_like_one_plain_partition() {
    let mut rng = TestRng::for_case("encoding_layouts", 1);
    let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
    for case in 0..16 {
        let pieces: Vec<Piece> = (0..1 + below(12))
            .map(|_| {
                let kind = [Kind::Plain, Kind::Shared, Kind::Own][below(3)];
                // One partition in four is empty.
                let n = if below(4) == 0 { 0 } else { 1 + below(20) };
                // A partition draws from a window of the values, so own
                // dictionaries differ in size and in codes.
                let (from, width) = (below(6), 1 + below(6));
                let values = (0..n).map(|_| VALUES[(from + below(width)) % 6]).collect();
                Piece { kind, values }
            })
            .collect();
        check(&pieces, &format!("case {case}: {pieces:?}"));
    }
}

/// `GROUP BY s` over `pieces` on `exec`: its groups, decoded.
fn groups(pieces: &[Piece], exec: Exec) -> Vec<String> {
    let t = Arc::new(relation(pieces, sockets(exec)));
    let plan = Plan::scan(t, None, &["s"]).agg(&["s"], vec![("n", AggFn::Count)]);
    rows(&run(vec![plan], exec, 4, 4)[0], false)
}

fn own(values: &[&'static str]) -> Piece {
    Piece {
        kind: Kind::Own,
        values: values.to_vec(),
    }
}

#[test]
fn eight_partitions_each_on_its_own_dictionary_group_into_six() {
    // Partition `i` holds values `i` and `i + 1` (mod 6): two codes each,
    // six values in all.
    let pieces: Vec<Piece> = (0..8)
        .map(|i| own(&[VALUES[i % 6], VALUES[(i + 1) % 6], VALUES[i % 6]]))
        .collect();
    for exec in [Exec::Sim, Exec::Threaded] {
        let got = groups(&pieces, exec);
        assert_eq!(got.len(), 6, "{exec:?}: {got:?}");
        let total: usize = pieces.iter().map(|p| p.values.len()).sum();
        assert_eq!(total, 24);
    }
}

#[test]
fn a_plain_partition_between_coded_ones_groups_into_six() {
    let plain = Piece {
        kind: Kind::Plain,
        values: vec!["MAIL", "RAIL"],
    };
    let pieces = vec![own(&["AIR", "FOB"]), plain, own(&["SHIP", "TRUCK", "AIR"])];
    for exec in [Exec::Sim, Exec::Threaded] {
        let got = groups(&pieces, exec);
        assert_eq!(got.len(), 6, "{exec:?}: {got:?}");
        assert!(got.contains(&format!("{:?}", vec![lits_value("AIR"), count(2)])));
    }
}

fn lits_value(s: &str) -> morsel_storage::Value {
    morsel_storage::Value::Str(s.to_owned())
}

fn count(n: i64) -> morsel_storage::Value {
    morsel_storage::Value::I64(n)
}
