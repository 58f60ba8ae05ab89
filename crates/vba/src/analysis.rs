//! Derived views over a token stream: the quantities the feature extractors
//! consume (identifiers, strings, comments, call sites, "words", operator
//! counts).
//!
//! [`MacroAnalysis`] is the lexer's full mode. It borrows the source:
//! tokens are [`SpanToken`]s whose text is a slice of the input, string
//! values and comment bodies live in side tables (borrowed spans except
//! for the rare `""`-escaped literal, whose value is a range of one
//! reusable decoded-text buffer), and the per-character statistics
//! ([`SourceStats`]) and token-machine counts ([`TokenCounts`]) every J/V
//! feature needs were already accumulated by the lexer's single pass.
//!
//! [`LexScratch::lex_counts`] is the V mode: the same pass with no token
//! stream, no side tables and no J-only machine, for scoring on V1–V15.
//! The scan hot path reuses one [`LexScratch`] per worker so steady-state
//! analysis performs no per-document buffer allocation.

use crate::calls::TokenCounts;
use crate::idents::IdentSet;
use crate::lexer::{lex_spans, StrRepr, Tables};
use crate::stats::SourceStats;
use crate::token::{SpanKind, SpanToken};
use crate::words::WordClass;
use std::collections::BTreeSet;

/// Reusable lexing buffers: cleared per document, capacity retained.
///
/// Thread one instance through a worker loop and analyze each document
/// with [`MacroAnalysis::with_scratch`]; call
/// [`MacroAnalysis::recycle`] when done with the analysis to return the
/// buffers. [`lex_counts`](Self::lex_counts) runs the V mode on the same
/// buffers.
#[derive(Debug, Default)]
pub struct LexScratch {
    tables: Tables,
    stats: SourceStats,
    /// Used while lexing only; never moves into the analysis.
    idents: IdentSet,
}

impl LexScratch {
    /// Lexes `source` in the V mode: one pass that builds no token vector
    /// and no string or comment tables, and runs none of the J-only
    /// machines (comment-body words, J5 readability, lines, procedure
    /// bodies). Returns the statistics, the token-machine counts and the
    /// number of string literals: everything V1–V15 read, equal to what
    /// [`MacroAnalysis`] reports for them.
    ///
    /// The [`SourceStats`] fields that only the full mode fills
    /// (`line_count`, `long_lines`, `comment_words`, `readable_words`)
    /// read zero, as do [`TokenCounts::body_count`] and
    /// [`TokenCounts::body_chars`] (`-0.0`).
    ///
    /// ```
    /// use vbadet_vba::{LexScratch, MacroAnalysis};
    /// let src = "x = Chr(65) & \"B\"";
    /// let mut lex = LexScratch::default();
    /// let (stats, counts, strings) = lex.lex_counts(src);
    /// let full = MacroAnalysis::new(src);
    /// assert_eq!(stats.word_lengths, full.stats().word_lengths);
    /// assert_eq!((counts.call_count, counts.string_ops, strings), (1, 2, 1));
    /// ```
    pub fn lex_counts(&mut self, source: &str) -> (&SourceStats, TokenCounts, usize) {
        let (counts, strings) =
            lex_spans::<false>(source, &mut self.tables, &mut self.stats, &mut self.idents);
        (&self.stats, counts, strings)
    }
}

/// Lexical analysis of one macro: the token stream plus the derived
/// quantities used by the V and J feature sets.
///
/// ```
/// use vbadet_vba::MacroAnalysis;
/// let a = MacroAnalysis::new("Sub F()\r\n    p = \"x\" & Chr(66)\r\nEnd Sub\r\n");
/// assert_eq!(a.strings(), vec!["x"]);
/// assert!(a.call_sites().iter().any(|c| *c == "Chr"));
/// ```
#[derive(Debug)]
pub struct MacroAnalysis<'a> {
    source: &'a str,
    tables: Tables,
    stats: SourceStats,
    counts: TokenCounts,
}

impl<'a> MacroAnalysis<'a> {
    /// Tokenizes `source` and prepares derived views.
    pub fn new(source: &'a str) -> Self {
        let mut scratch = LexScratch::default();
        Self::with_scratch(source, &mut scratch)
    }

    /// Like [`new`](Self::new), but lexes into buffers taken from
    /// `scratch` (left empty; return them with [`recycle`](Self::recycle)).
    pub fn with_scratch(source: &'a str, scratch: &mut LexScratch) -> Self {
        let mut tables = std::mem::take(&mut scratch.tables);
        let mut stats = std::mem::take(&mut scratch.stats);
        let (counts, _) = lex_spans::<true>(source, &mut tables, &mut stats, &mut scratch.idents);
        MacroAnalysis {
            source,
            tables,
            stats,
            counts,
        }
    }

    /// Returns the analysis buffers to `scratch` for the next document.
    pub fn recycle(self, scratch: &mut LexScratch) {
        scratch.tables = self.tables;
        scratch.stats = self.stats;
    }

    /// The original source code.
    pub fn source(&self) -> &'a str {
        self.source
    }

    /// The raw token stream.
    pub fn tokens(&self) -> &[SpanToken] {
        &self.tables.tokens
    }

    /// The per-character statistics fused into the lexer pass.
    pub fn stats(&self) -> &SourceStats {
        &self.stats
    }

    /// What the token machine counted during the lexer pass: call sites
    /// by category, string operators and procedure bodies (the streaming
    /// [`call_sites`](Self::call_sites),
    /// [`string_operator_count`](Self::string_operator_count) and
    /// [`procedure_body_spans`](Self::procedure_body_spans)).
    pub fn counts(&self) -> &TokenCounts {
        &self.counts
    }

    /// Number of string literals.
    pub fn string_count(&self) -> usize {
        self.tables.strings.len()
    }

    /// Decoded value of string literal `i` (token order).
    pub fn string_value(&self, i: usize) -> &str {
        match self.tables.strings[i] {
            StrRepr::Span(s, e) => &self.source[s..e],
            StrRepr::Decoded(s, e) => &self.tables.decoded[s..e],
        }
    }

    /// Number of comments.
    pub fn comment_count(&self) -> usize {
        self.tables.comments.len()
    }

    /// Trimmed body of comment `i` (token order).
    pub fn comment_body(&self, i: usize) -> &'a str {
        let c = &self.tables.comments[i];
        &self.source[c.body_start..c.body_end]
    }

    /// Total source length in characters.
    pub fn char_len(&self) -> usize {
        self.stats.char_len
    }

    /// Number of characters inside comments (without the `'`/`Rem` marker).
    pub fn comment_chars(&self) -> usize {
        self.stats.comment_body_chars
    }

    /// Number of characters outside comments.
    pub fn code_chars(&self) -> usize {
        // Comment spans include the marker; subtract whole spans.
        self.stats
            .char_len
            .saturating_sub(self.stats.comment_span_chars)
    }

    /// All comment bodies, in order.
    pub fn comments(&self) -> Vec<&str> {
        (0..self.tables.comments.len())
            .map(|i| self.comment_body(i))
            .collect()
    }

    /// All string literal values, in order.
    pub fn strings(&self) -> Vec<&str> {
        (0..self.tables.strings.len())
            .map(|i| self.string_value(i))
            .collect()
    }

    /// Total characters inside string literals.
    pub fn string_chars(&self) -> usize {
        self.stats.string_chars
    }

    /// The *distinct* user identifiers (case-insensitive, deduplicated).
    /// Built-in function names are excluded: O1 obfuscation can only rename
    /// user identifiers, so mixing in `Shell`/`Chr` would dilute V14/V15.
    pub fn identifiers(&self) -> Vec<&str> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.tables.tokens {
            if let SpanKind::Identifier(class) = t.kind {
                if class.is_builtin() {
                    continue;
                }
                let name = &self.source[t.start..t.end];
                if seen.insert(name.to_ascii_lowercase()) {
                    out.push(name);
                }
            }
        }
        out
    }

    /// Call sites: identifiers directly followed by `(`, plus known
    /// built-ins in statement position (VBA allows `Shell prog, 1`).
    /// Identifiers following `Sub`/`Function` (declarations) are excluded.
    pub fn call_sites(&self) -> Vec<&str> {
        let significant: Vec<&SpanToken> = self
            .tables
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, SpanKind::Comment(_) | SpanKind::Newline))
            .collect();
        let mut out = Vec::new();
        for (pos, token) in significant.iter().enumerate() {
            let SpanKind::Identifier(class) = token.kind else {
                continue;
            };
            // Skip declaration names: `Sub X`, `Function X`, `Dim X`, `As X`.
            if pos > 0
                && matches!(significant[pos - 1].kind, SpanKind::Keyword(k) if k.names_declaration())
            {
                continue;
            }
            let followed_by_paren = matches!(
                significant.get(pos + 1).map(|t| t.kind),
                Some(SpanKind::Operator("("))
            );
            if followed_by_paren || class.is_builtin() {
                out.push(&self.source[token.start..token.end]);
            }
        }
        out
    }

    /// "Words" per §IV.C.4: maximal runs of alphanumeric/underscore
    /// characters outside comments and string literals.
    pub fn words(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cursor = 0usize;
        // Mask out comment and string spans, then split the rest.
        let mut segments: Vec<&str> = Vec::new();
        for t in &self.tables.tokens {
            if matches!(t.kind, SpanKind::Comment(_) | SpanKind::StringLit(_)) {
                if t.start > cursor {
                    segments.push(&self.source[cursor..t.start]);
                }
                cursor = cursor.max(t.end);
            }
        }
        if cursor < self.source.len() {
            segments.push(&self.source[cursor..]);
        }
        for segment in segments {
            out.extend(
                segment
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .filter(|w| !w.is_empty()),
            );
        }
        out
    }

    /// Words inside comments only (used by J13).
    pub fn comment_words(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for i in 0..self.tables.comments.len() {
            out.extend(
                self.comment_body(i)
                    .split(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                    .filter(|w| !w.is_empty()),
            );
        }
        out
    }

    /// Number of occurrences of the string-building operators the paper's V5
    /// tracks: `&`, `+` and `=` (§IV.C.2).
    pub fn string_operator_count(&self) -> usize {
        self.tables
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, SpanKind::Operator("&" | "+" | "=")))
            .count()
    }

    /// Physical lines of the source.
    pub fn lines(&self) -> Vec<&str> {
        self.source.lines().collect()
    }

    /// Procedure definitions: names following `Sub`/`Function` keywords.
    pub fn procedure_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let toks: Vec<&SpanToken> = self
            .tables
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, SpanKind::Newline | SpanKind::Comment(_)))
            .collect();
        for window in toks.windows(2) {
            if matches!(window[0].kind, SpanKind::Keyword(k) if k.opens_procedure())
                && matches!(window[1].kind, SpanKind::Identifier(_))
            {
                out.push(&self.source[window[1].start..window[1].end]);
            }
        }
        out
    }

    /// Bodies of procedures: for each `Sub`/`Function` … `End Sub`/`End
    /// Function` pair, the byte span of the enclosed region. Used by
    /// J18/J19.
    pub fn procedure_body_spans(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let toks = &self.tables.tokens;
        let mut open: Option<usize> = None;
        let mut i = 0usize;
        while i < toks.len() {
            if matches!(toks[i].kind, SpanKind::Keyword(k) if k.opens_procedure()) {
                // `End Sub` is handled below; `Exit Sub` should not open.
                let prev_kw = toks[..i]
                    .iter()
                    .rev()
                    .find(|t| !matches!(t.kind, SpanKind::Newline | SpanKind::Comment(_)));
                let prev_kw_is = |role: fn(WordClass) -> bool| matches!(prev_kw, Some(p) if matches!(p.kind, SpanKind::Keyword(k) if role(k)));
                // `Declare Function X Lib …` is a prototype, not a body.
                if prev_kw_is(WordClass::is_declare) {
                    i += 1;
                    continue;
                }
                if prev_kw_is(WordClass::is_end) || prev_kw_is(WordClass::is_exit) {
                    if let Some(start) = open.take() {
                        if prev_kw_is(WordClass::is_end) {
                            out.push((start, toks[i].end));
                        } else {
                            // `Exit Sub` keeps the procedure open.
                            open = Some(start);
                        }
                    }
                } else if open.is_none() {
                    open = Some(toks[i].start);
                }
            }
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Sub SendEmail()\r\n\
        Dim OutlookApp As Object\r\n\
        'Create Outlook object using CreateObject()\r\n\
        Set OutlookApp = CreateObject(\"Outlook.Application\")\r\n\
        body_ = \"a\" & \"b\" + \"c\"\r\n\
        Shell prog, 1\r\n\
        End Sub\r\n";

    #[test]
    fn strings_and_comments() {
        let a = MacroAnalysis::new(SAMPLE);
        assert_eq!(a.strings(), vec!["Outlook.Application", "a", "b", "c"]);
        assert_eq!(a.comments().len(), 1);
        assert!(a.comments()[0].contains("CreateObject"));
    }

    #[test]
    fn code_and_comment_chars_partition_source() {
        let a = MacroAnalysis::new(SAMPLE);
        // code_chars counts everything outside comment spans.
        assert!(a.code_chars() > 0 && a.code_chars() < a.char_len());
        assert!(a.comment_chars() > 0);
    }

    #[test]
    fn identifiers_exclude_builtins_and_dedupe() {
        let a = MacroAnalysis::new(SAMPLE);
        let ids = a.identifiers();
        assert!(ids.contains(&"OutlookApp"));
        assert!(ids.contains(&"SendEmail"));
        assert!(!ids.contains(&"CreateObject"), "builtin must be excluded");
        // OutlookApp appears twice but is listed once.
        assert_eq!(ids.iter().filter(|i| **i == "OutlookApp").count(), 1);
    }

    #[test]
    fn ident_lengths_match_identifiers_view() {
        let src = "Dim Alpha\r\nalpha = ALPHA + beta$ + beta\r\nx = Chr(1)\r\n\
                   caf\u{e9} = caf\u{c9} + CAF\u{e9}\r\n";
        let a = MacroAnalysis::new(src);
        let expect: Vec<f64> = a
            .identifiers()
            .iter()
            .map(|i| i.chars().count() as f64)
            .collect();
        assert_eq!(expect, [5.0, 5.0, 4.0, 1.0, 4.0, 4.0]);
        assert_eq!(a.stats().ident_lengths, expect);
    }

    #[test]
    fn call_sites_found() {
        let a = MacroAnalysis::new(SAMPLE);
        let calls = a.call_sites();
        assert!(calls.contains(&"CreateObject"));
        // Statement-position builtin without parens.
        assert!(calls.contains(&"Shell"));
        // Declaration name is not a call.
        assert!(!calls.contains(&"SendEmail"));
    }

    #[test]
    fn words_exclude_strings_and_comments() {
        let a = MacroAnalysis::new("x = \"hello world\" ' note here\r\ny = 2");
        let words = a.words();
        assert!(words.contains(&"x"));
        assert!(words.contains(&"y"));
        assert!(!words.contains(&"hello"));
        assert!(!words.contains(&"note"));
        assert_eq!(a.comment_words(), vec!["note", "here"]);
    }

    #[test]
    fn string_operator_count_tracks_concatenation() {
        let a = MacroAnalysis::new("s = \"a\" & \"b\" + \"c\" & \"d\"");
        // 1 `=`, 2 `&`, 1 `+`.
        assert_eq!(a.string_operator_count(), 4);
    }

    #[test]
    fn procedure_names_and_bodies() {
        let src = "Sub A()\r\nx = 1\r\nEnd Sub\r\n\
                   Function B(q)\r\nB = q\r\nEnd Function\r\n";
        let a = MacroAnalysis::new(src);
        assert_eq!(a.procedure_names(), vec!["A", "B"]);
        let spans = a.procedure_body_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].1 > spans[0].0);
    }

    #[test]
    fn exit_sub_does_not_close_body() {
        let src = "Sub A()\r\nIf x Then Exit Sub\r\ny = 1\r\nEnd Sub\r\n";
        let a = MacroAnalysis::new(src);
        assert_eq!(a.procedure_body_spans().len(), 1);
        let (s, e) = a.procedure_body_spans()[0];
        assert!(&src[s..e].contains("y = 1"));
    }

    #[test]
    fn empty_source() {
        let a = MacroAnalysis::new("");
        assert_eq!(a.char_len(), 0);
        assert!(a.strings().is_empty());
        assert!(a.identifiers().is_empty());
        assert!(a.call_sites().is_empty());
        assert!(a.words().is_empty());
        assert_eq!(a.string_operator_count(), 0);
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let mut scratch = LexScratch::default();
        for src in [SAMPLE, "x = 1", "", "Rem only a comment\r\n"] {
            let fresh = MacroAnalysis::new(src);
            let reused = MacroAnalysis::with_scratch(src, &mut scratch);
            assert_eq!(fresh.tokens(), reused.tokens());
            assert_eq!(fresh.strings(), reused.strings());
            assert_eq!(fresh.char_len(), reused.char_len());
            assert_eq!(fresh.comment_chars(), reused.comment_chars());
            reused.recycle(&mut scratch);
        }
    }

    #[test]
    fn stats_match_view_methods() {
        let a = MacroAnalysis::new(SAMPLE);
        let s = a.stats();
        assert_eq!(s.char_len, SAMPLE.chars().count());
        assert_eq!(s.line_count, SAMPLE.lines().count());
        assert_eq!(s.code_words, a.words().len());
        assert_eq!(s.comment_words, a.comment_words().len());
        assert_eq!(
            s.string_chars,
            a.strings().iter().map(|v| v.chars().count()).sum::<usize>()
        );
    }
}
