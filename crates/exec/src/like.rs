//! SQL `LIKE`, compiled once per pattern.
//!
//! A pattern is cut at its `%`s into segments, each a run of literal text
//! and `_`s, where `_` is exactly one *character* (not one byte). Every
//! segment therefore matches a fixed number of characters, so matching
//! each unanchored segment at its leftmost occurrence is exact: an earlier
//! start also ends earlier and leaves the most room for the segments after
//! it. A match is one forward pass with no backtracking — an anchored
//! first segment at the start, an anchored last segment at the end, every
//! other segment at its leftmost occurrence after the one before.
//!
//! Finding a segment means finding its first literal run, and the pattern
//! builds a [`Finder`] for each run when it is parsed. A finder tests
//! eight candidate positions per step: it compares the needle's first and
//! last bytes against two overlapping 8-byte words of the haystack at once
//! (SWAR) and verifies the bytes in between only where both match. This is
//! the one `LIKE` kernel: plain columns call it per row, dictionary
//! columns once per dictionary value, the estimator once per value of a
//! column's domain.

use std::fmt;

/// A compiled SQL `LIKE` pattern: `%` matches any run of characters, `_`
/// exactly one. There is no escape character.
#[derive(Clone)]
pub struct LikePattern {
    source: String,
    /// The non-empty segments between `%`s, in order.
    segments: Vec<Segment>,
    starts_anchored: bool,
    ends_anchored: bool,
}

impl fmt::Debug for LikePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LikePattern").field(&self.source).finish()
    }
}

impl LikePattern {
    /// Compile `pattern`.
    pub fn parse(pattern: &str) -> Self {
        LikePattern {
            source: pattern.to_owned(),
            segments: pattern
                .split('%')
                .filter(|s| !s.is_empty())
                .map(Segment::parse)
                .collect(),
            starts_anchored: !pattern.starts_with('%'),
            ends_anchored: !pattern.ends_with('%'),
        }
    }

    /// Whether `s` matches the whole pattern.
    pub fn matches(&self, s: &str) -> bool {
        let s = s.as_bytes();
        let mut segs = &self.segments[..];
        if segs.is_empty() {
            // "" matches only the empty string; "%" anything.
            return !(self.starts_anchored && self.ends_anchored) || s.is_empty();
        }
        let mut at = 0;
        if self.starts_anchored {
            match match_pieces(&segs[0].pieces, s, 0) {
                Some(end) => at = end,
                None => return false,
            }
            segs = &segs[1..];
            if segs.is_empty() {
                return !self.ends_anchored || at == s.len();
            }
        }
        let last = if self.ends_anchored {
            let (last, middle) = segs.split_last().expect("not empty");
            segs = middle;
            Some(last)
        } else {
            None
        };
        for seg in segs {
            match seg.find(s, at) {
                Some(end) => at = end,
                None => return false,
            }
        }
        last.is_none_or(|seg| seg.match_suffix(s, at))
    }
}

/// One piece of a segment.
#[derive(Clone)]
enum Piece {
    /// Literal bytes (whole characters).
    Lit(Box<[u8]>),
    /// This many `_`s: any that many characters.
    Any(usize),
}

/// The text between two `%`s.
#[derive(Clone)]
struct Segment {
    pieces: Vec<Piece>,
    /// `_`s before the first literal run.
    lead: usize,
    /// The first literal run (`pieces[first]`) and its finder; `None` when
    /// the segment is `_`s only.
    first: Option<(usize, Finder)>,
    /// Characters the segment matches.
    chars: usize,
}

impl Segment {
    fn parse(text: &str) -> Segment {
        let mut pieces: Vec<Piece> = Vec::new();
        for (i, lit) in text.split('_').enumerate() {
            if i > 0 {
                match pieces.last_mut() {
                    Some(Piece::Any(n)) => *n += 1,
                    _ => pieces.push(Piece::Any(1)),
                }
            }
            if !lit.is_empty() {
                pieces.push(Piece::Lit(lit.as_bytes().into()));
            }
        }
        let first = pieces.iter().enumerate().find_map(|(i, p)| match p {
            Piece::Lit(lit) => Some((i, Finder::new(lit))),
            Piece::Any(_) => None,
        });
        Segment {
            lead: match pieces.first() {
                Some(Piece::Any(n)) => *n,
                _ => 0,
            },
            first,
            chars: text.chars().count(),
            pieces,
        }
    }

    /// The end of the leftmost match that starts at or after `from`.
    fn find(&self, s: &[u8], from: usize) -> Option<usize> {
        // The first literal run can start no earlier than `lead`
        // characters in; where it is found, the `_`s before it hold.
        let mut min = skip_chars(s, from, self.lead)?;
        let Some((first, finder)) = &self.first else {
            return Some(min);
        };
        loop {
            let at = finder.find(s, min)?;
            let end = at + finder.needle.len();
            if let Some(end) = match_pieces(&self.pieces[first + 1..], s, end) {
                return Some(end);
            }
            min = at + 1;
        }
    }

    /// Whether the segment matches the end of `s`, starting at or after
    /// `from`.
    fn match_suffix(&self, s: &[u8], from: usize) -> bool {
        back_chars(s, s.len(), self.chars, from).and_then(|at| match_pieces(&self.pieces, s, at))
            == Some(s.len())
    }
}

/// Match `pieces` in order from byte `at` of `s`: the end of the match.
fn match_pieces(pieces: &[Piece], s: &[u8], mut at: usize) -> Option<usize> {
    for piece in pieces {
        at = match piece {
            Piece::Lit(lit) => s[at..].starts_with(lit).then_some(at + lit.len())?,
            Piece::Any(n) => skip_chars(s, at, *n)?,
        };
    }
    Some(at)
}

/// The byte position `n` characters after the character boundary `at`,
/// if `s` (valid UTF-8) has that many.
fn skip_chars(s: &[u8], mut at: usize, n: usize) -> Option<usize> {
    for _ in 0..n {
        at += match *s.get(at)? {
            0..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        };
    }
    Some(at)
}

/// The byte position `n` characters before the character boundary `at`,
/// if that is not before `floor` (also a boundary).
fn back_chars(s: &[u8], mut at: usize, n: usize, floor: usize) -> Option<usize> {
    for _ in 0..n {
        if at <= floor {
            return None;
        }
        at -= 1;
        while s[at] & 0xc0 == 0x80 {
            at -= 1;
        }
    }
    Some(at)
}

const LANES_LO: u64 = 0x0101_0101_0101_0101;
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// The high bit of every zero byte of `x`. Exact per lane: no carry
/// crosses from one byte into the next.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    !(((x & !LANES_HI).wrapping_add(!LANES_HI)) | x) & LANES_HI
}

#[inline]
fn word_at(s: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(s[at..at + 8].try_into().expect("eight bytes"))
}

/// A substring searcher for one literal, built once per pattern.
#[derive(Clone)]
struct Finder {
    needle: Box<[u8]>,
    /// The needle's first and last bytes, repeated in every byte lane.
    first: u64,
    last: u64,
}

impl Finder {
    fn new(needle: &[u8]) -> Finder {
        let (first, last) = (needle[0], needle[needle.len() - 1]);
        Finder {
            needle: needle.into(),
            first: LANES_LO * u64::from(first),
            last: LANES_LO * u64::from(last),
        }
    }

    /// The leftmost occurrence of the needle in `s` at or after `from`.
    fn find(&self, s: &[u8], from: usize) -> Option<usize> {
        let n = &self.needle[..];
        let m = n.len();
        let last_start = s.len().checked_sub(m).filter(|&l| l >= from)?;
        if last_start < 7 {
            // Fewer than eight starts in all: no word to test them with.
            return (from..=last_start).find(|&i| s[i] == n[0] && s[i..i + m] == *n);
        }
        // The bytes between the first and the last, verified per candidate.
        let inner = if m > 2 { &n[1..m - 1] } else { &[][..] };
        // The first match among the starts `at..at + 8` marked in `lanes`:
        // lane `j` of the first word holds byte `at + j`, lane `j` of the
        // second byte `at + j + m - 1`.
        let step = |at: usize, lanes: u64| {
            let a = word_at(s, at) ^ self.first;
            let b = word_at(s, at + m - 1) ^ self.last;
            let mut hits = zero_bytes(a | b) & lanes;
            while hits != 0 {
                let i = at + (hits.trailing_zeros() / 8) as usize;
                if s[i + 1..i + 1 + inner.len()] == *inner {
                    return Some(i);
                }
                hits &= hits - 1;
            }
            None
        };
        let mut at = from;
        while at + 7 <= last_start {
            if let Some(i) = step(at, LANES_HI) {
                return Some(i);
            }
            at += 8;
        }
        if at > last_start {
            return None;
        }
        // The last eight starts, less the ones already tested.
        let base = last_start - 7;
        step(base, LANES_HI << (8 * (at - base)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_exact_per_lane() {
        // 0x01 above a zero byte is where the borrow-based trick misfires.
        let x = u64::from_le_bytes([0, 1, 0x80, 0, 0xff, 0x01, 0x00, 0x7f]);
        let want = u64::from_le_bytes([0x80, 0, 0, 0x80, 0, 0, 0x80, 0]);
        assert_eq!(zero_bytes(x), want);
    }

    #[test]
    fn finder_agrees_with_a_scan_at_every_offset() {
        let hay: Vec<u8> = (0..70u32).map(|i| b"abcab"[(i * 7 % 5) as usize]).collect();
        for needle in [&b"a"[..], b"ab", b"bca", b"cabab", b"abcabcabcab", b"zz"] {
            let f = Finder::new(needle);
            for from in 0..=hay.len() + 1 {
                let want = (from..hay.len())
                    .find(|&i| hay[i..].starts_with(needle))
                    .filter(|i| i + needle.len() <= hay.len());
                assert_eq!(f.find(&hay, from), want, "{needle:?} from {from}");
            }
        }
    }
}
