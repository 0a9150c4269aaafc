//! All 13 Star Schema Benchmark queries as SQL text fixtures.
//!
//! Same dialect notes as [`crate::tpch_sql`]; the hand plans they are held
//! to are [`crate::ssb_queries`]. The date dimension is the catalog table
//! `date`.

pub use crate::ssb_queries::IDS;

/// SQL text of SSB query `id` (e.g. `"2.1"`).
pub fn text(id: &str) -> Option<&'static str> {
    Some(match id {
        "1.1" => include_str!("../sql/ssb/q1_1.sql"),
        "1.2" => include_str!("../sql/ssb/q1_2.sql"),
        "1.3" => include_str!("../sql/ssb/q1_3.sql"),
        "2.1" => include_str!("../sql/ssb/q2_1.sql"),
        "2.2" => include_str!("../sql/ssb/q2_2.sql"),
        "2.3" => include_str!("../sql/ssb/q2_3.sql"),
        "3.1" => include_str!("../sql/ssb/q3_1.sql"),
        "3.2" => include_str!("../sql/ssb/q3_2.sql"),
        "3.3" => include_str!("../sql/ssb/q3_3.sql"),
        "3.4" => include_str!("../sql/ssb/q3_4.sql"),
        "4.1" => include_str!("../sql/ssb/q4_1.sql"),
        "4.2" => include_str!("../sql/ssb/q4_2.sql"),
        "4.3" => include_str!("../sql/ssb/q4_3.sql"),
        _ => return None,
    })
}

/// All fixtures as `(query id, text)` pairs.
pub fn all() -> Vec<(&'static str, &'static str)> {
    IDS.iter().map(|&id| (id, text(id).unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ssb_query_has_a_sql_fixture() {
        for &id in &IDS {
            assert!(text(id).is_some(), "SSB Q{id} fixture missing");
        }
        assert!(text("9.9").is_none());
        assert_eq!(all().len(), 13);
    }
}
