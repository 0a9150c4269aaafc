//! A representative slice of TPC-H as SQL text fixtures under
//! `sql/tpch/`, covering every plan shape the planner handles: scan +
//! aggregate (Q1/Q6), selective joins (Q3/Q10/Q12/Q14), a semi join (Q4),
//! deep inner-join blocks of 6–8 relations (Q5/Q8/Q9), a count join (Q13)
//! and an aggregate below a join (Q18). The queries built around
//! broadcast tricks or correlated subqueries (Q2/7/11/15/16/17/19–22)
//! exist as hand plans only. `tests/planner_equivalence.rs` holds each
//! fixture to its hand plan in [`crate::tpch_queries`]: parse → bind →
//! plan → execute must return exactly what the hand-authored physical
//! plan returns.
//!
//! The texts use this engine's fixed-point dialect: decimals are cents
//! (`l_extendedprice * (100 - l_discount) / 100`), discounts are whole
//! percents (`l_discount BETWEEN 5 AND 7`), and dates are
//! `DATE 'yyyy-mm-dd'` literals over day-number columns.

/// The TPC-H queries that have a SQL fixture.
pub const IDS: [usize; 12] = [1, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14, 18];

/// SQL text of TPC-H query `number`, if it is part of the slice.
pub fn text(number: usize) -> Option<&'static str> {
    Some(match number {
        1 => include_str!("../sql/tpch/q1.sql"),
        3 => include_str!("../sql/tpch/q3.sql"),
        4 => include_str!("../sql/tpch/q4.sql"),
        5 => include_str!("../sql/tpch/q5.sql"),
        6 => include_str!("../sql/tpch/q6.sql"),
        8 => include_str!("../sql/tpch/q8.sql"),
        9 => include_str!("../sql/tpch/q9.sql"),
        10 => include_str!("../sql/tpch/q10.sql"),
        12 => include_str!("../sql/tpch/q12.sql"),
        13 => include_str!("../sql/tpch/q13.sql"),
        14 => include_str!("../sql/tpch/q14.sql"),
        18 => include_str!("../sql/tpch/q18.sql"),
        _ => return None,
    })
}

/// All fixtures as `(query number, text)` pairs.
pub fn all() -> Vec<(usize, &'static str)> {
    IDS.iter().map(|&q| (q, text(q).unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_logical_query_has_a_sql_fixture() {
        for &q in &IDS {
            let sql = text(q).unwrap_or_else(|| panic!("Q{q} fixture missing"));
            assert!(
                sql.to_ascii_lowercase().contains("select"),
                "Q{q} fixture looks empty"
            );
        }
        assert!(text(2).is_none(), "Q2 is not part of the slice");
        assert_eq!(all().len(), IDS.len());
    }
}
