//! Per-character statistics accumulated during the lexer's single pass.
//!
//! The feature extractors (J1–J20, V1–V15) historically re-walked the
//! source once per feature: `chars().count()` for J1, a whitespace filter
//! for J6, a `BTreeMap` rebuild for the entropy of J15/V13, a
//! `collect::<Vec<String>>` for the word statistics of V3/V4, and so on.
//! [`SourceStats`] replaces all of those with counters fed exactly once
//! per character while the lexer is already looking at it.
//!
//! The lexer hands over runs of source, not single characters: ASCII
//! bytes are classified through one 128-entry table ([`CLASS`]) and a
//! `char` is decoded only for bytes ≥ 0x80. Counts that the histogram
//! already holds (characters, ASCII whitespace, backslashes) are read off
//! it in [`SourceStats::finish`] instead of being kept per character, and
//! the line machine runs once per `'\n'`.
//!
//! Equivalence with the old multi-pass computation is bit-level: every
//! floating-point quantity that the extractors derive from these counters
//! is accumulated in the same order the reference code iterated
//! (document order for word lengths, token order for string lengths,
//! ascending character order for the entropy histogram), so the fused
//! path reproduces the exact `f64` bit patterns of the original.

/// `char::is_whitespace`.
pub(crate) const WS: u8 = 1;
/// A word character (paper §IV.C.4): alphanumeric or `_`. For ASCII this
/// is also "may continue an identifier".
pub(crate) const WORD: u8 = 2;
/// May start an identifier: a letter or `_`.
pub(crate) const IDENT_START: u8 = 4;
/// An ASCII letter.
const ALPHA: u8 = 8;
/// A vowel, either case (J5 readability).
const VOWEL: u8 = 16;

/// Classes of the 128 ASCII bytes; every byte ≥ 0x80 belongs to a
/// multi-byte `char` and is classified by decoding it.
pub(crate) static CLASS: [u8; 128] = {
    let mut t = [0u8; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        let mut k = 0;
        if matches!(c, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ') {
            k |= WS;
        }
        if c.is_ascii_alphanumeric() || c == b'_' {
            k |= WORD;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            k |= IDENT_START;
        }
        if c.is_ascii_alphabetic() {
            k |= ALPHA;
        }
        if matches!(c.to_ascii_lowercase(), b'a' | b'e' | b'i' | b'o' | b'u') {
            k |= VOWEL;
        }
        t[b] = k;
        b += 1;
    }
    t
};

/// End of the run starting at `from` in which every byte satisfies `keep`.
#[inline]
pub(crate) fn run_end(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| !keep(b))
        .map_or(bytes.len(), |i| from + i)
}

/// The class bits of an ASCII byte.
#[inline]
pub(crate) fn class(b: u8) -> u8 {
    CLASS[usize::from(b & 0x7f)]
}

/// In-flight state of one "word": a maximal run of alphanumeric or `_`
/// characters outside comments and string literals (paper §IV.C.4), plus
/// the incremental human-readability predicate of J5 (alphabetic, 2–15
/// bytes, contains a vowel, no consonant run longer than 4).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordRun {
    active: bool,
    char_len: usize,
    byte_len: usize,
    all_alpha: bool,
    has_vowel: bool,
    cons_run: usize,
    runs_ok: bool,
}

impl WordRun {
    #[inline]
    fn begin(&mut self) {
        if !self.active {
            *self = WordRun {
                active: true,
                all_alpha: true,
                runs_ok: true,
                ..WordRun::default()
            };
        }
    }

    /// Feeds a run of ASCII word bytes. Branch-free per byte: the
    /// consonant-run counter resets on a vowel, grows on a consonant and
    /// holds on a digit or `_`, and `runs_ok` latches false once it
    /// passes 4.
    #[inline]
    fn feed_run(&mut self, run: &[u8]) {
        self.begin();
        self.char_len += run.len();
        self.byte_len += run.len();
        let (mut all_alpha, mut has_vowel) = (self.all_alpha, self.has_vowel);
        let (mut cons_run, mut runs_ok) = (self.cons_run, self.runs_ok);
        for &b in run {
            let k = class(b);
            let alpha = k & ALPHA != 0;
            let vowel = k & VOWEL != 0;
            all_alpha &= alpha;
            has_vowel |= vowel;
            cons_run = if vowel {
                0
            } else {
                cons_run + usize::from(alpha)
            };
            runs_ok &= cons_run <= 4;
        }
        (self.all_alpha, self.has_vowel) = (all_alpha, has_vowel);
        (self.cons_run, self.runs_ok) = (cons_run, runs_ok);
    }

    /// Feeds a non-ASCII alphanumeric character.
    #[inline]
    fn feed_char(&mut self, c: char) {
        self.begin();
        self.char_len += 1;
        self.byte_len += c.len_utf8();
        self.all_alpha = false;
    }

    #[inline]
    fn is_readable(&self) -> bool {
        self.byte_len >= 2
            && self.byte_len <= 15
            && self.all_alpha
            && self.has_vowel
            && self.runs_ok
    }
}

/// Where a run of source sits, which decides the word machines it feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Zone {
    /// Outside comments and strings: feeds the code-word machine.
    Code,
    /// A string literal or a comment marker: ends any code word.
    Masked,
    /// A comment body: ends any code word, feeds the comment-word machine.
    Comment,
}

/// Character-level statistics of one macro source, filled by the lexer in
/// the same pass that produces the token stream.
///
/// Fields are documented with the features they back; "words" follow the
/// paper's definition (runs of alphanumeric/`_` outside comments and
/// strings), "lines" follow `str::lines` semantics.
#[derive(Debug, Clone)]
pub struct SourceStats {
    /// Total characters (`== source.chars().count()`; J1).
    pub char_len: usize,
    /// Unicode-whitespace characters (J6).
    pub whitespace: usize,
    /// Backslash characters (J17).
    pub backslashes: usize,
    /// Physical lines, `str::lines` semantics (J2/J3/J11/J14).
    pub line_count: usize,
    /// Lines longer than 150 characters (J14).
    pub long_lines: usize,
    /// Words outside comments and strings (J12/J13).
    pub code_words: usize,
    /// Words inside comment bodies (J5/J12/J13).
    pub comment_words: usize,
    /// Human-readable words across code and comments (J5).
    pub readable_words: usize,
    /// Character length of every code word, in document order (V3/V4).
    pub word_lengths: Vec<f64>,
    /// Decoded string-literal char lengths summed as sequential `f64`
    /// adds in token order — the exact accumulation `mean()` performed
    /// over the old owned-`String` vector (J8/V7).
    pub string_len_sum: f64,
    /// Total decoded string-literal characters (J16/V6).
    pub string_chars: usize,
    /// Total trimmed comment-body characters (V2).
    pub comment_body_chars: usize,
    /// Total full comment-span characters, marker included (V1).
    pub comment_span_chars: usize,

    // Entropy histogram: a dense ASCII lane plus a sorted lane for the
    // (rare) rest, which keeps its capacity across modules. Iterating
    // ASCII ascending then the sorted lane reproduces the old
    // full-`BTreeMap` term order exactly.
    ascii_counts: [u64; 128],
    other_counts: Vec<(char, u64)>,

    // Lexer-pass machines (meaningless after `finish`).
    code_run: WordRun,
    comment_run: WordRun,
    line_start: usize,
}

impl Default for SourceStats {
    fn default() -> Self {
        SourceStats {
            char_len: 0,
            whitespace: 0,
            backslashes: 0,
            line_count: 0,
            long_lines: 0,
            code_words: 0,
            comment_words: 0,
            readable_words: 0,
            word_lengths: Vec::new(),
            string_len_sum: 0.0,
            string_chars: 0,
            comment_body_chars: 0,
            comment_span_chars: 0,
            ascii_counts: [0; 128],
            other_counts: Vec::new(),
            code_run: WordRun::default(),
            comment_run: WordRun::default(),
            line_start: 0,
        }
    }
}

impl SourceStats {
    /// Clears all counters while keeping the capacity of the word-length
    /// and non-ASCII lanes.
    pub(crate) fn reset(&mut self) {
        let mut word_lengths = std::mem::take(&mut self.word_lengths);
        let mut other_counts = std::mem::take(&mut self.other_counts);
        word_lengths.clear();
        other_counts.clear();
        *self = SourceStats {
            word_lengths,
            other_counts,
            ..SourceStats::default()
        };
    }

    /// Source outside comments and strings; returns its character count.
    #[inline]
    pub(crate) fn code(&mut self, text: &str) -> usize {
        self.run(text, Zone::Code)
    }

    /// ASCII source outside comments and strings.
    #[inline]
    pub(crate) fn code_ascii(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.is_ascii());
        self.words(bytes, Zone::Code);
    }

    /// A run inside a string literal; returns its character count.
    #[inline]
    pub(crate) fn masked(&mut self, text: &str) -> usize {
        self.run(text, Zone::Masked)
    }

    /// A comment body (after the marker); returns the character count.
    /// Call [`end_comment_word`](Self::end_comment_word) at the comment's
    /// end.
    #[inline]
    pub(crate) fn comment(&mut self, text: &str) -> usize {
        self.run(text, Zone::Comment)
    }

    #[inline]
    fn run(&mut self, text: &str, zone: Zone) -> usize {
        if zone != Zone::Code {
            self.end_code_word();
        }
        if !text.is_ascii() {
            return self.run_chars(text, zone);
        }
        if zone != Zone::Masked {
            self.words(text.as_bytes(), zone);
        }
        text.len()
    }

    /// Feeds ASCII `bytes` to the zone's word machine: word runs whole,
    /// each non-word run as one flush, so the per-byte work carries no
    /// data-dependent branch.
    #[inline]
    fn words(&mut self, bytes: &[u8], zone: Zone) {
        let mut i = 0;
        while i < bytes.len() {
            let word_end = run_end(bytes, i, |b| class(b) & WORD != 0);
            if word_end > i {
                self.machine(zone).feed_run(&bytes[i..word_end]);
            }
            if word_end == bytes.len() {
                break;
            }
            self.flush(zone);
            i = run_end(bytes, word_end, |b| class(b) & WORD == 0);
        }
    }

    /// The rare path for text with non-ASCII characters.
    #[cold]
    fn run_chars(&mut self, text: &str, zone: Zone) -> usize {
        if zone == Zone::Masked {
            return text.chars().count();
        }
        let mut n = 0;
        for c in text.chars() {
            n += 1;
            if c.is_ascii() && class(c as u8) & WORD != 0 {
                self.machine(zone).feed_run(&[c as u8]);
            } else if !c.is_ascii() && c.is_alphanumeric() {
                self.machine(zone).feed_char(c);
            } else {
                self.flush(zone);
            }
        }
        n
    }

    #[inline]
    fn machine(&mut self, zone: Zone) -> &mut WordRun {
        if zone == Zone::Code {
            &mut self.code_run
        } else {
            &mut self.comment_run
        }
    }

    #[inline]
    fn flush(&mut self, zone: Zone) {
        if zone == Zone::Code {
            self.end_code_word();
        } else {
            self.end_comment_word();
        }
    }

    /// The line machine, run for each `'\n'`: `str::lines` counts a line
    /// per `'\n'`, stripping one `'\r'` before it. `at` is the newline's
    /// character offset.
    #[inline]
    pub(crate) fn newline(&mut self, at: usize, after_cr: bool) {
        let len = at - self.line_start - usize::from(after_cr);
        if len > 150 {
            self.long_lines += 1;
        }
        self.line_count += 1;
        self.line_start = at + 1;
    }

    /// Ends any code word: the lexer consumed ASCII code that holds no
    /// word character (whitespace, an operator), or a comment marker or
    /// string quote.
    pub(crate) fn end_code_word(&mut self) {
        if self.code_run.active {
            self.code_words += 1;
            self.word_lengths.push(self.code_run.char_len as f64);
            if self.code_run.is_readable() {
                self.readable_words += 1;
            }
            self.code_run.active = false;
        }
    }

    /// Ends the current comment-body word run. The lexer calls this at
    /// every comment terminator so a run can never merge with the first
    /// word of the *next* comment (e.g. `'t` directly followed on the
    /// next line by `'rai` is two words, not `trai`).
    pub(crate) fn end_comment_word(&mut self) {
        if self.comment_run.active {
            self.comment_words += 1;
            if self.comment_run.is_readable() {
                self.readable_words += 1;
            }
            self.comment_run.active = false;
        }
    }

    /// Flushes open word runs and the final unterminated line (which,
    /// like `str::lines`, keeps a trailing `'\r'`), and fills the
    /// character histogram and the counts read off it. `char_len` is the
    /// source's length in characters.
    pub(crate) fn finish(&mut self, source: &str, char_len: usize) {
        self.end_code_word();
        self.end_comment_word();
        let tail = char_len - self.line_start;
        if tail > 0 {
            self.line_count += 1;
            if tail > 150 {
                self.long_lines += 1;
            }
        }
        self.char_len = char_len;

        // Four lanes, so runs of one byte value do not serialize on a
        // single counter.
        let mut lanes = [[0u64; 256]; 4];
        let mut quads = source.as_bytes().chunks_exact(4);
        for q in &mut quads {
            for (lane, &b) in lanes.iter_mut().zip(q) {
                lane[usize::from(b)] += 1;
            }
        }
        for &b in quads.remainder() {
            lanes[0][usize::from(b)] += 1;
        }
        for (b, n) in self.ascii_counts.iter_mut().enumerate() {
            *n = lanes.iter().map(|lane| lane[b]).sum();
        }
        self.backslashes = self.ascii_counts[usize::from(b'\\')] as usize;
        self.whitespace = (0..128)
            .filter(|&b| CLASS[b] & WS != 0)
            .map(|b| self.ascii_counts[b] as usize)
            .sum();
        if !source.is_ascii() {
            for c in source.chars().filter(|c| !c.is_ascii()) {
                match self.other_counts.binary_search_by_key(&c, |&(k, _)| k) {
                    Ok(i) => self.other_counts[i].1 += 1,
                    Err(i) => self.other_counts.insert(i, (c, 1)),
                }
                self.whitespace += usize::from(c.is_whitespace());
            }
        }
    }

    /// Non-zero character counts in ascending character order — the exact
    /// term sequence the old `BTreeMap<char, u64>` entropy sum iterated.
    pub fn char_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.ascii_counts
            .iter()
            .copied()
            .filter(|&n| n > 0)
            .chain(self.other_counts.iter().map(|&(_, n)| n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str) -> SourceStats {
        crate::MacroAnalysis::new(source).stats().clone()
    }

    #[test]
    fn class_table_matches_char_predicates() {
        for b in 0u8..128 {
            let c = b as char;
            let k = CLASS[usize::from(b)];
            assert_eq!(k & WS != 0, c.is_whitespace(), "{b:#x}");
            assert_eq!(k & WORD != 0, c.is_alphanumeric() || c == '_', "{b:#x}");
            assert_eq!(
                k & IDENT_START != 0,
                c.is_ascii_alphabetic() || c == '_',
                "{b:#x}"
            );
        }
    }

    #[test]
    fn char_line_and_word_counts() {
        let s = run("ab cd\r\nxy\n");
        assert_eq!(s.char_len, 10);
        assert_eq!(s.line_count, 2);
        assert_eq!(s.code_words, 3);
        assert_eq!(s.word_lengths, vec![2.0, 2.0, 2.0]);
        assert_eq!(s.whitespace, 4);
    }

    #[test]
    fn lines_match_str_lines_semantics() {
        for src in ["", "a", "a\n", "a\nb", "\n", "a\r\nb\r", "x\n\r"] {
            let s = run(src);
            assert_eq!(s.line_count, src.lines().count(), "{src:?}");
        }
    }

    #[test]
    fn long_line_detection_strips_cr() {
        let line = "a".repeat(151);
        assert_eq!(run(&format!("{line}\r\n")).long_lines, 1);
        let line150 = "a".repeat(150);
        assert_eq!(run(&format!("{line150}\r\n")).long_lines, 0);
    }

    #[test]
    fn entropy_counts_ascending() {
        let s = run("ba\u{2603}ab\u{e9}\u{2603}");
        let counts: Vec<u64> = s.char_counts().collect();
        // 'a' x2, 'b' x2, e-acute x1, snowman x2 — ascending char order.
        assert_eq!(counts, vec![2, 2, 1, 2]);
    }

    #[test]
    fn readability_matches_reference_predicate() {
        fn reference(word: &str) -> bool {
            if word.len() < 2 || word.len() > 15 || !word.chars().all(|c| c.is_ascii_alphabetic()) {
                return false;
            }
            let lower = word.to_ascii_lowercase();
            let is_vowel = |c: char| matches!(c, 'a' | 'e' | 'i' | 'o' | 'u');
            if !lower.chars().any(is_vowel) {
                return false;
            }
            let mut run = 0usize;
            for c in lower.chars() {
                if is_vowel(c) {
                    run = 0;
                } else {
                    run += 1;
                    if run > 4 {
                        return false;
                    }
                }
            }
            true
        }
        for w in [
            "hello",
            "Program",
            "counter",
            "open",
            "a",
            "x1b2",
            "xqzptvk",
            "ueiwjfdjkfdsv",
            "abcdefghijklmnop",
            "caf\u{e9}",
            "_x",
            "strength",
        ] {
            let mut r = WordRun::default();
            for c in w.chars() {
                if c.is_ascii() {
                    r.feed_run(&[c as u8]);
                } else {
                    r.feed_char(c);
                }
            }
            assert_eq!(r.is_readable(), reference(w), "{w:?}");
            if w.is_ascii() {
                let mut whole = WordRun::default();
                whole.feed_run(w.as_bytes());
                assert_eq!(whole.is_readable(), reference(w), "{w:?} fed whole");
            }
        }
    }
}
