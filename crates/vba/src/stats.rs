//! Per-character statistics accumulated during the lexer's single pass.
//!
//! The feature extractors (J1–J20, V1–V15) historically re-walked the
//! source once per feature: `chars().count()` for J1, a whitespace filter
//! for J6, a `BTreeMap` rebuild for the entropy of J15/V13, a
//! `collect::<Vec<String>>` for the word statistics of V3/V4, and so on.
//! [`SourceStats`] replaces all of those with counters fed exactly once
//! per character while the lexer is already looking at it.
//!
//! The lexer hands over runs of source, not single characters, as byte
//! offsets: ASCII bytes are classified through one 128-entry table
//! ([`CLASS`]) and a `char` is decoded only for bytes ≥ 0x80. Counts that
//! the histogram already holds (characters, ASCII whitespace,
//! backslashes) are read off it in [`SourceStats::finish`] instead of
//! being kept per character, and the line machine runs once per `'\n'`.
//!
//! A word is a contiguous span of the source, so the word machines keep
//! only its start and lengths; an identifier or keyword body arrives as
//! one span. J5's readability predicate reads the word's bytes once, when
//! the word ends. The lexer also fills the distinct-identifier lane
//! ([`SourceStats::ident_lengths`]) that V14/V15 read.
//!
//! The machines that only J1–J20 read run in the lexer's full mode alone,
//! selected by the same `const FULL: bool` the lexer takes: the
//! comment-body word machine, J5's readability test and the line machine.
//! So [`line_count`](SourceStats::line_count),
//! [`long_lines`](SourceStats::long_lines),
//! [`comment_words`](SourceStats::comment_words) and
//! [`readable_words`](SourceStats::readable_words) read zero after a
//! V-mode pass; every other field is filled the same in both modes.
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
/// characters outside comments and string literals (paper §IV.C.4). A
/// word is a contiguous span of the source, so the run keeps only where
/// it starts and how long it is; J5's readability predicate reads the
/// span once, when the word ends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordRun {
    start: usize,
    /// 0 while no word is open.
    byte_len: usize,
    char_len: usize,
}

impl WordRun {
    /// Extends the open word, or opens one, with the ASCII word bytes
    /// `start..end`.
    #[inline]
    fn feed(&mut self, start: usize, end: usize) {
        if self.byte_len == 0 {
            self.start = start;
        }
        self.byte_len += end - start;
        self.char_len += end - start;
    }

    /// Extends or opens the word with a non-ASCII alphanumeric character
    /// at byte `at`.
    #[inline]
    fn feed_char(&mut self, at: usize, c: char) {
        if self.byte_len == 0 {
            self.start = at;
        }
        self.byte_len += c.len_utf8();
        self.char_len += 1;
    }

    /// J5 on the finished word: all ASCII (every char one byte), and
    /// [`is_readable`] over its bytes.
    #[inline]
    fn is_readable(&self, src: &[u8]) -> bool {
        self.byte_len == self.char_len && is_readable(&src[self.start..self.start + self.byte_len])
    }
}

/// J5's human-readability predicate: 2–15 bytes, all ASCII letters, at
/// least one vowel, and no run of more than 4 consonants. Branch-free over
/// the bytes: it builds one bit per byte for "letter" and for "vowel".
fn is_readable(word: &[u8]) -> bool {
    if !(2..=15).contains(&word.len()) {
        return false;
    }
    let (mut alpha, mut vowel) = (0u32, 0u32);
    for (i, &b) in word.iter().enumerate() {
        let k = if b < 0x80 { class(b) } else { 0 };
        alpha |= u32::from(k & ALPHA != 0) << i;
        vowel |= u32::from(k & VOWEL != 0) << i;
    }
    let cons = alpha & !vowel;
    alpha == (1 << word.len()) - 1
        && vowel != 0
        && cons & (cons >> 1) & (cons >> 2) & (cons >> 3) & (cons >> 4) == 0
}

/// Which word machine a run of source feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Zone {
    /// Outside comments and strings: the code-word machine.
    Code,
    /// A comment body: the comment-word machine.
    Comment,
}

/// Character-level statistics of one macro source, filled by the lexer in
/// its single pass. Fields marked "full mode only" stay zero after the V
/// mode's pass ([`LexScratch::lex_counts`](crate::LexScratch::lex_counts)).
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
    /// Physical lines, `str::lines` semantics (J2/J3/J11/J14). Full mode
    /// only.
    pub line_count: usize,
    /// Lines longer than 150 characters (J14). Full mode only.
    pub long_lines: usize,
    /// Words outside comments and strings (J12/J13).
    pub code_words: usize,
    /// Words inside comment bodies (J5/J12/J13). Full mode only.
    pub comment_words: usize,
    /// Human-readable words across code and comments (J5). Full mode only.
    pub readable_words: usize,
    /// Character length of every code word, in document order (V3/V4).
    pub word_lengths: Vec<f64>,
    /// Character length of every distinct user identifier (built-ins
    /// excluded, suffix included, ASCII case folded), in first-occurrence
    /// order: the lengths of [`identifiers`](crate::MacroAnalysis::identifiers)
    /// (V14/V15).
    pub ident_lengths: Vec<f64>,
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
            ident_lengths: Vec::new(),
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
    /// Clears all counters while keeping the capacity of the word-length,
    /// identifier-length and non-ASCII lanes.
    pub(crate) fn reset(&mut self) {
        let mut word_lengths = std::mem::take(&mut self.word_lengths);
        let mut ident_lengths = std::mem::take(&mut self.ident_lengths);
        let mut other_counts = std::mem::take(&mut self.other_counts);
        word_lengths.clear();
        ident_lengths.clear();
        other_counts.clear();
        *self = SourceStats {
            word_lengths,
            ident_lengths,
            other_counts,
            ..SourceStats::default()
        };
    }

    /// ASCII word bytes `start..end` of code, handed over whole: an
    /// identifier or keyword body. It extends a word that the previous
    /// code run left open (`1abc` is one word).
    #[inline]
    pub(crate) fn code_word(&mut self, start: usize, end: usize) {
        self.code_run.feed(start, end);
    }

    /// ASCII code `src[start..end]` that may mix word and non-word bytes
    /// (a number, a line continuation).
    #[inline]
    pub(crate) fn code_ascii<const FULL: bool>(&mut self, src: &[u8], start: usize, end: usize) {
        debug_assert!(src[start..end].is_ascii());
        self.words::<FULL>(src, start, end, Zone::Code);
    }

    /// Code `source[start..end]` holding non-ASCII characters; returns
    /// its character count.
    #[inline]
    pub(crate) fn code<const FULL: bool>(
        &mut self,
        source: &str,
        start: usize,
        end: usize,
    ) -> usize {
        self.run::<FULL>(source, start, end, Zone::Code)
    }

    /// A comment body `source[start..end]` (after the marker), full mode
    /// only; returns the character count. Call
    /// [`end_comment_word`](Self::end_comment_word) at the comment's end.
    #[inline]
    pub(crate) fn comment(&mut self, source: &str, start: usize, end: usize) -> usize {
        self.run::<true>(source, start, end, Zone::Comment)
    }

    #[inline]
    fn run<const FULL: bool>(
        &mut self,
        source: &str,
        start: usize,
        end: usize,
        zone: Zone,
    ) -> usize {
        let text = &source[start..end];
        if !text.is_ascii() {
            return self.run_chars::<FULL>(source, start, end, zone);
        }
        self.words::<FULL>(source.as_bytes(), start, end, zone);
        text.len()
    }

    /// Feeds ASCII `src[start..end]` to the zone's word machine: word
    /// runs whole, each non-word run as one flush.
    #[inline]
    fn words<const FULL: bool>(&mut self, src: &[u8], start: usize, end: usize, zone: Zone) {
        let bytes = &src[..end];
        let mut i = start;
        while i < end {
            let word_end = run_end(bytes, i, |b| class(b) & WORD != 0);
            if word_end > i {
                self.machine(zone).feed(i, word_end);
            }
            if word_end == end {
                break;
            }
            self.flush::<FULL>(src, zone);
            i = run_end(bytes, word_end, |b| class(b) & WORD == 0);
        }
    }

    /// The rare path for text with non-ASCII characters.
    #[cold]
    fn run_chars<const FULL: bool>(
        &mut self,
        source: &str,
        start: usize,
        end: usize,
        zone: Zone,
    ) -> usize {
        let mut n = 0;
        for (i, c) in source[start..end].char_indices() {
            let at = start + i;
            n += 1;
            if c.is_ascii() && class(c as u8) & WORD != 0 {
                self.machine(zone).feed(at, at + 1);
            } else if !c.is_ascii() && c.is_alphanumeric() {
                self.machine(zone).feed_char(at, c);
            } else {
                self.flush::<FULL>(source.as_bytes(), zone);
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
    fn flush<const FULL: bool>(&mut self, src: &[u8], zone: Zone) {
        if zone == Zone::Code {
            self.end_code_word::<FULL>(src);
        } else {
            self.end_comment_word(src);
        }
    }

    /// The line machine, run for each `'\n'` in the full mode:
    /// `str::lines` counts a line per `'\n'`, stripping one `'\r'` before
    /// it. `at` is the newline's character offset.
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
    /// word character (whitespace, an operator, a type suffix), or a
    /// comment marker or string quote. `src` is the module source. Only
    /// the full mode runs J5's readability test on the word.
    #[inline]
    pub(crate) fn end_code_word<const FULL: bool>(&mut self, src: &[u8]) {
        let run = self.code_run;
        if run.byte_len > 0 {
            self.code_words += 1;
            self.word_lengths.push(run.char_len as f64);
            if FULL {
                self.readable_words += usize::from(run.is_readable(src));
            }
            self.code_run = WordRun::default();
        }
    }

    /// Ends the current comment-body word run (full mode only). The lexer
    /// calls this at
    /// every comment terminator so a run can never merge with the first
    /// word of the *next* comment (e.g. `'t` directly followed on the
    /// next line by `'rai` is two words, not `trai`).
    pub(crate) fn end_comment_word(&mut self, src: &[u8]) {
        let run = self.comment_run;
        if run.byte_len > 0 {
            self.comment_words += 1;
            self.readable_words += usize::from(run.is_readable(src));
            self.comment_run = WordRun::default();
        }
    }

    /// Flushes the open code word and fills the character histogram and
    /// the counts read off it; the full mode also flushes the open comment
    /// word and counts the final unterminated line (which, like
    /// `str::lines`, keeps a trailing `'\r'`). `char_len` is the source's
    /// length in characters.
    pub(crate) fn finish<const FULL: bool>(&mut self, source: &str, char_len: usize) {
        self.end_code_word::<FULL>(source.as_bytes());
        if FULL {
            self.end_comment_word(source.as_bytes());
            let tail = char_len - self.line_start;
            if tail > 0 {
                self.line_count += 1;
                if tail > 150 {
                    self.long_lines += 1;
                }
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
            assert_eq!(is_readable(w.as_bytes()), reference(w), "{w:?}");
            // Through the lexer: in code, in a comment, and split across
            // two tokens (`1` then `abc…` is one word).
            let want = usize::from(reference(w));
            assert_eq!(run(w).readable_words, want, "{w:?} in code");
            assert_eq!(
                run(&format!("' {w}")).readable_words,
                want,
                "{w:?} in a comment"
            );
            assert_eq!(run(&format!("1{w}")).readable_words, 0, "1{w:?}");
        }
    }
}
