//! The `LIKE` oracle: backtracking over characters, straight from the
//! definition — `%` matches any run of characters, `_` exactly one, any
//! other character itself. It shares nothing with `morsel_exec`'s
//! compiled matcher (no segments, no finders, no byte positions).
//! Included with `#[path]`.

/// Whether `s` matches `pattern`.
pub fn like(pattern: &str, s: &str) -> bool {
    let (p, s): (Vec<char>, Vec<char>) = (pattern.chars().collect(), s.chars().collect());
    matches(&p, &s)
}

fn matches(p: &[char], s: &[char]) -> bool {
    match p.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => matches(rest, s) || (!s.is_empty() && matches(p, &s[1..])),
        Some(('_', rest)) => !s.is_empty() && matches(rest, &s[1..]),
        Some((c, rest)) => s.first() == Some(c) && matches(rest, &s[1..]),
    }
}
