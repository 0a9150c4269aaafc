//! `LikePattern`, the one `LIKE` kernel, against the backtracking oracle
//! of `common/like_reference.rs`: on random patterns of `%`, `_`, ASCII
//! literals and a two-byte character, matched directly and through the
//! compiled predicate cascade and the mask evaluator over a plain string
//! column and its dictionary-encoded twin; plus the fixed shapes random
//! generation rarely reaches — anchored and overlapping segments, the
//! empty pattern, literals and haystacks longer than one 8-byte word.

use morsel_exec::expr::{like, LikePattern};
use morsel_exec::predicate::Predicate;
use morsel_storage::{Batch, Column, DataType, DictColumn, Dictionary};
use proptest::prelude::*;

#[path = "common/like_reference.rs"]
mod like_reference;

use like_reference::like as reference;

/// The rows of `values` that match `pattern`, by the oracle.
fn reference_rows(pattern: &str, values: &[String]) -> Vec<u32> {
    (0..values.len() as u32)
        .filter(|&r| reference(pattern, &values[r as usize]))
        .collect()
}

/// `values` as a plain column and as its dictionary-encoded twin.
fn twins(values: &[String]) -> [Batch; 2] {
    let dict = Dictionary::from_values(values.iter().map(String::as_str));
    let encoded = DictColumn::encode(&dict, values).expect("the domain covers every value");
    [
        Batch::from_columns(vec![Column::Str(values.iter().collect())]),
        Batch::from_columns(vec![Column::Dict(encoded)]),
    ]
}

/// `pattern` over `values` as the cascade selects it and as the mask
/// evaluator marks it, for the plain column and for the encoded one.
fn selected(pattern: &str, values: &[String]) -> Vec<Vec<u32>> {
    let e = like(morsel_exec::expr::col(0), pattern);
    let p = Predicate::compile(&e, &[DataType::Str]);
    let n = values.len();
    twins(values)
        .iter()
        .flat_map(|b| {
            let mask = e.eval(b, 0..n);
            let marked = (0..n as u32)
                .filter(|&r| mask.as_bool()[r as usize])
                .collect();
            [p.select(b, 0..n), marked]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn like_pattern_matches_the_reference(
        pattern in "[ab_%é]{0,8}",
        input in "[abé]{0,24}",
    ) {
        prop_assert_eq!(
            LikePattern::parse(&pattern).matches(&input),
            reference(&pattern, &input),
            "pattern {:?} input {:?}", pattern, input
        );
    }

    #[test]
    fn like_selects_the_reference_rows_on_plain_and_dictionary_columns(
        pattern in "[ab_%é]{0,6}",
        values in proptest::collection::vec("[abé]{0,14}", 0..40),
    ) {
        let want = reference_rows(&pattern, &values);
        for got in selected(&pattern, &values) {
            prop_assert_eq!(&got, &want, "pattern {:?} over {:?}", pattern, values);
        }
    }
}

#[test]
fn fixed_shapes_match_the_reference() {
    let inputs: Vec<String> = [
        "",
        "a",
        "aa",
        "aaa",
        "aaaa",
        "aba",
        "ab",
        "é",
        "aé",
        "éa",
        "ééé",
        "CHINA",
        "13-555-0100",
        "1-555",
        "the special customer requests",
        "special only",
        "requests are special",
        "the special special requests requests",
        "blithely final accounts special packages requests sleep",
        "αβγ special δ requests ε",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let patterns = [
        "",
        "%",
        "%%",
        "_",
        "__",
        "%_%",
        "a",
        "a%",
        "%a",
        "%a%",
        "a%a",
        "aa%aa",
        "%aa%aa%",
        "a_a",
        "_a_",
        "%_é",
        "é%",
        "%é_%",
        "CHIN_",
        "1_-%",
        "%special%requests%",
        "%special%requests",
        "the special%",
        "%final accounts special packages%",
        "%special_requests%",
        "%δ_requests%",
    ];
    for pattern in patterns {
        let want = reference_rows(pattern, &inputs);
        for (i, s) in inputs.iter().enumerate() {
            assert_eq!(
                LikePattern::parse(pattern).matches(s),
                want.contains(&(i as u32)),
                "{pattern:?} on {s:?}"
            );
        }
        for got in selected(pattern, &inputs) {
            assert_eq!(got, want, "{pattern:?}");
        }
    }
    // The oracle itself, on the cases the fixed list is there for.
    assert!(reference("a%a", "aa") && !reference("a%a", "a"));
    assert!(reference("aa%aa", "aaaa") && !reference("aa%aa", "aaa"));
    assert!(reference("CHIN_", "CHINA") && !reference("CHIN_", "CHIN"));
    assert!(reference("_", "é") && !reference("__", "é"));
}
