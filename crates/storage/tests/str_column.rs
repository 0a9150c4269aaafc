//! Plain string columns ([`StrColumn`], offsets into one byte buffer)
//! against the obvious reference, a `Vec<String>`: random sequences of
//! every copying kernel — `push`, `push_from`, `extend_selected`,
//! `extend_range`, `append`, `Batch::gather`/`reordered` and a dictionary
//! encode/decode round trip — over empty strings and 1- to 4-byte UTF-8
//! characters. After every step the column must hold the reference's
//! values and charge the reference's bytes (length + 8 per value).

use morsel_storage::{
    encode_fragments, Batch, Column, DataType, DictColumn, Dictionary, StrColumn, Value,
};
use proptest::prelude::*;

/// Deterministic draws from one operation's seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }

    /// Up to `max` row indexes below `len`, repeats and any order allowed.
    fn selection(&mut self, len: usize, max: usize) -> Vec<u32> {
        if len == 0 {
            return Vec::new();
        }
        let n = self.below(max + 1);
        (0..n).map(|_| self.below(len) as u32).collect()
    }

    fn range(&mut self, len: usize) -> (usize, usize) {
        let from = self.below(len + 1);
        (from, from + self.below(len - from + 1))
    }
}

fn charged<'a>(values: impl IntoIterator<Item = &'a String>) -> u64 {
    values.into_iter().map(|s| s.len() as u64 + 8).sum()
}

/// `col` holds exactly `want`, and charges what the reference would.
fn check(col: &Column, want: &[String], d: &mut Draw) {
    assert_eq!(col.len(), want.len());
    for (i, w) in want.iter().enumerate() {
        assert_eq!(col.str_at(i), w, "row {i}");
    }
    if let Column::Str(v) = col {
        assert!(v.iter().eq(want.iter().map(String::as_str)));
        assert_eq!(col.total_bytes(), charged(want));
        let (from, to) = d.range(want.len());
        assert_eq!(col.byte_size(from, to), charged(&want[from..to]));
        let sel = d.selection(want.len(), 8);
        let picked = sel.iter().map(|&i| &want[i as usize]);
        assert_eq!(col.selected_bytes(&sel), charged(picked));
    }
}

fn plain(values: &[String]) -> Column {
    Column::Str(values.iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn str_column_matches_a_vec_of_strings(
        ops in proptest::collection::vec((0usize..9, any::<u64>(), "[aé漢🦀 ]{0,4}"), 1..48)
    ) {
        let mut col = Column::empty(DataType::Str);
        let mut want: Vec<String> = Vec::new();
        // The source every copying kernel reads: the values pushed so far.
        let mut pool: Vec<String> = vec![String::new()];
        for (op, seed, s) in ops {
            let mut d = Draw(seed);
            let src = plain(&pool);
            match op {
                0 => {
                    col.push(Value::Str(s.clone()));
                    want.push(s.clone());
                }
                1 => {
                    let i = d.below(pool.len());
                    col.push_from(&src, i);
                    want.push(pool[i].clone());
                }
                2 => {
                    let sel = d.selection(pool.len(), 12);
                    col.extend_selected(&src, &sel);
                    want.extend(sel.iter().map(|&i| pool[i as usize].clone()));
                }
                3 => {
                    let (from, to) = d.range(pool.len());
                    col.extend_range(&src, from, to);
                    want.extend_from_slice(&pool[from..to]);
                }
                4 => {
                    col.append(src);
                    want.extend_from_slice(&pool);
                }
                5 => {
                    let sel = d.selection(want.len(), 16);
                    let b = Batch::from_columns(vec![col]).gather(&sel);
                    col = b.into_columns().remove(0);
                    want = sel.iter().map(|&i| want[i as usize].clone()).collect();
                }
                6 => {
                    let mut perm: Vec<u32> = (0..want.len() as u32).collect();
                    for i in (1..perm.len()).rev() {
                        perm.swap(i, d.below(i + 1));
                    }
                    let b = Batch::from_columns(vec![col]).reordered(&perm);
                    col = b.into_columns().remove(0);
                    want = perm.iter().map(|&i| want[i as usize].clone()).collect();
                }
                7 => {
                    // Through a dictionary and back: same values, plain again.
                    let (_, mut encoded) = encode_fragments(&[&plain(&want)])
                        .expect("a small domain encodes");
                    let decoded = encoded.remove(0).decoded();
                    assert!(matches!(decoded, Column::Str(_)));
                    check(&decoded, &want, &mut d);
                    let dict = Dictionary::from_values(want.iter().map(String::as_str));
                    let codes = DictColumn::encode(&dict, &want).expect("every value is in it");
                    prop_assert_eq!(&Column::Str(codes.decode()), &plain(&want));
                }
                _ => {
                    // A dictionary source into a plain column: adopted when
                    // empty, decoded into the buffer otherwise.
                    let dict = Dictionary::from_values(pool.iter().map(String::as_str));
                    let coded = Column::Dict(DictColumn::encode(&dict, &pool).unwrap());
                    let sel = d.selection(pool.len(), 6);
                    col.extend_selected(&coded, &sel);
                    want.extend(sel.iter().map(|&i| pool[i as usize].clone()));
                    col = col.decoded();
                }
            }
            check(&col, &want, &mut d);
            pool.push(s);
        }
    }
}

#[test]
fn empty_and_multibyte_values_keep_their_boundaries() {
    let values = ["", "é", "", "漢字", "🦀", "a🦀é", ""];
    let col: StrColumn = values.into_iter().collect();
    assert_eq!(col.iter().collect::<Vec<_>>(), values);
    assert_eq!(col.byte_len(0, col.len()), values.concat().len());
    let mut gathered = StrColumn::new();
    gathered.extend_selected(&col, &[4, 0, 3, 3, 6]);
    assert_eq!(
        gathered.iter().collect::<Vec<_>>(),
        ["🦀", "", "漢字", "漢字", ""]
    );
    gathered.extend_range(&col, 1, 3);
    gathered.append(col.clone());
    assert_eq!(gathered.len(), 5 + 2 + values.len());
    assert_eq!(gathered.get(6), "");
    assert_eq!(gathered.get(gathered.len() - 1), "");
}
