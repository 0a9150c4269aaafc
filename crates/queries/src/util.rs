//! Helpers shared by the TPC-H and SSB query builders.

use morsel_exec::expr::{add, col, div, lit, mul, sub, Expr};
use morsel_exec::plan::Plan;
use morsel_storage::date;

/// Day number of a calendar date, as the `i64` the expression layer uses.
pub fn d(y: i32, m: u32, day: u32) -> i64 {
    i64::from(date(y, m, day))
}

/// Append a computed column to a plan, keeping all existing columns.
pub fn append(plan: Plan, name: &str, e: Expr) -> Plan {
    let s = plan.schema();
    let mut project: Vec<(String, Expr)> = (0..s.len())
        .map(|i| (s.name(i).to_owned(), col(i)))
        .collect();
    project.push((name.to_owned(), e));
    Plan::Map {
        input: Box::new(plan),
        project,
    }
}

/// TPC-H `revenue`-style expression: `price * (100 - disc) / 100` in
/// fixed-point cents.
pub fn discounted(price: Expr, disc: Expr) -> Expr {
    div(mul(price, sub(lit(100), disc)), lit(100))
}

/// TPC-H `charge` expression: `disc_price * (100 + tax) / 100`.
pub fn charged(price: Expr, disc: Expr, tax: Expr) -> Expr {
    div(mul(discounted(price, disc), add(lit(100), tax)), lit(100))
}

/// SSB revenue expression: `extendedprice * discount / 100` in cents.
pub fn disc_product(price: Expr, disc: Expr) -> Expr {
    div(mul(price, disc), lit(100))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_helper_matches_storage_dates() {
        assert_eq!(d(1970, 1, 1), 0);
        assert_eq!(d(1970, 1, 2), 1);
        assert!(d(1998, 9, 2) > d(1994, 1, 1));
    }
}
