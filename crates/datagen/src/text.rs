//! Word lists and text fragments mirroring the TPC-H dbgen distributions
//! that the benchmark queries depend on.
//!
//! Every generator appends to `out` instead of returning a `String`, so a
//! loader writes each value straight into its column
//! ([`morsel_storage::StrColumn::push_with`]) with no allocation per row.

use std::fmt::Write;

use rand::rngs::StdRng;
use rand::Rng;

/// The 25 TPC-H nations with their region assignment (spec table 4.2.3).
pub const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

pub const SHIP_INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// Colors for `p_name` (subset of dbgen's 92; Q9 filters on "green").
pub const COLORS: [&str; 20] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "chartreuse",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "green",
    "grey",
];

pub const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
pub const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
pub const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

pub const CONTAINER_SYLL1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
pub const CONTAINER_SYLL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Filler words for comments.
pub const COMMENT_WORDS: [&str; 24] = [
    "furiously",
    "slyly",
    "carefully",
    "blithely",
    "quickly",
    "fluffily",
    "final",
    "ironic",
    "pending",
    "regular",
    "express",
    "bold",
    "even",
    "silent",
    "unusual",
    "accounts",
    "deposits",
    "packages",
    "foxes",
    "ideas",
    "theodolites",
    "pinto",
    "beans",
    "instructions",
];

/// Random comment. With probability `special_ppm` parts-per-million the
/// comment embeds `injected` (used for Q13's "special ... requests" and
/// Q16's "Customer ... Complaints" correlations).
pub fn comment(
    rng: &mut StdRng,
    words: usize,
    injected: Option<(&str, &str)>,
    special_ppm: u32,
    out: &mut String,
) {
    let inject = injected.is_some() && rng.gen_ratio(special_ppm, 1_000_000);
    let n = words.max(2);
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())]);
    }
    if inject {
        let (a, b) = injected.unwrap();
        let mid = COMMENT_WORDS[rng.gen_range(0..COMMENT_WORDS.len())];
        out.push(' ');
        out.push_str(a);
        out.push(' ');
        out.push_str(mid);
        out.push(' ');
        out.push_str(b);
    }
}

/// `p_name`: five space-separated colors (dbgen uses 5 of 92).
pub fn part_name(rng: &mut StdRng, out: &mut String) {
    for i in 0..5 {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(COLORS[rng.gen_range(0..COLORS.len())]);
    }
}

/// `p_type`: three syllables.
pub fn part_type(rng: &mut StdRng, out: &mut String) {
    out.push_str(TYPE_SYLL1[rng.gen_range(0..TYPE_SYLL1.len())]);
    out.push(' ');
    out.push_str(TYPE_SYLL2[rng.gen_range(0..TYPE_SYLL2.len())]);
    out.push(' ');
    out.push_str(TYPE_SYLL3[rng.gen_range(0..TYPE_SYLL3.len())]);
}

pub fn container(rng: &mut StdRng, out: &mut String) {
    out.push_str(CONTAINER_SYLL1[rng.gen_range(0..CONTAINER_SYLL1.len())]);
    out.push(' ');
    out.push_str(CONTAINER_SYLL2[rng.gen_range(0..CONTAINER_SYLL2.len())]);
}

/// Phone number whose first two digits encode the nation (Q22).
pub fn phone(rng: &mut StdRng, nationkey: i64, out: &mut String) {
    let (a, b, c) = (
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000),
    );
    write!(out, "{}-{a:03}-{b:03}-{c:04}", nationkey + 10).expect("a String never fails a write");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nations_regions_consistent() {
        assert_eq!(NATIONS.len(), 25);
        assert!(NATIONS.iter().all(|&(_, r)| r < 5));
        // Spec anchors used by queries.
        assert_eq!(NATIONS[7].0, "GERMANY");
        assert_eq!(NATIONS[7].1, 3); // EUROPE
        assert_eq!(REGIONS[3], "EUROPE");
    }

    /// One generator's output as a fresh string.
    fn text(write: impl FnOnce(&mut String)) -> String {
        let mut s = String::new();
        write(&mut s);
        s
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut both = |g: &dyn Fn(&mut StdRng, &mut String)| {
            let x = text(|s| g(&mut a, s));
            assert!(!x.is_empty());
            assert_eq!(x, text(|s| g(&mut b, s)));
        };
        both(&|r, s| part_name(r, s));
        both(&|r, s| part_type(r, s));
        both(&|r, s| container(r, s));
        both(&|r, s| phone(r, 3, s));
    }

    #[test]
    fn phone_encodes_nation() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = text(|s| phone(&mut rng, 5, s));
        assert!(p.starts_with("15-"));
        assert_eq!(p.len(), "15-123-456-7890".len());
    }

    #[test]
    fn comment_injection() {
        let mut rng = StdRng::seed_from_u64(1);
        // With ppm = 1_000_000 every comment carries the pattern.
        let c = text(|s| comment(&mut rng, 4, Some(("special", "requests")), 1_000_000, s));
        assert!(c.contains("special"));
        assert!(c.contains("requests"));
        let c2 = text(|s| comment(&mut rng, 4, Some(("special", "requests")), 0, s));
        assert!(!c2.contains("special requests"));
    }
}
