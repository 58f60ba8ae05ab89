//! The VBA tokenizer.
//!
//! The lexer is span-based and single-pass: it walks the source exactly
//! once, emitting [`SpanToken`]s (byte + char positions, no owned
//! payloads) while feeding every character through the
//! [`SourceStats`] accumulators the feature extractors consume. The
//! classic owned-token API ([`tokenize`]) is a thin materialization on
//! top and produces byte-identical output to the historical
//! `Vec<char>`-indexed implementation (kept as a reference oracle under
//! the `reference` feature).

use crate::stats::SourceStats;
use crate::token::{SpanKind, SpanToken, Token, TokenKind};

/// VBA reserved words (MS-VBAL §3.3.5), lowercase.
const KEYWORDS: &[&str] = &[
    "addressof",
    "alias",
    "and",
    "as",
    "attribute",
    "base",
    "boolean",
    "byref",
    "byte",
    "byval",
    "call",
    "case",
    "cdecl",
    "compare",
    "const",
    "currency",
    "date",
    "decimal",
    "declare",
    "defbool",
    "defbyte",
    "defcur",
    "defdate",
    "defdbl",
    "defint",
    "deflng",
    "defobj",
    "defsng",
    "defstr",
    "defvar",
    "dim",
    "do",
    "double",
    "each",
    "else",
    "elseif",
    "empty",
    "end",
    "enum",
    "eqv",
    "erase",
    "error",
    "event",
    "exit",
    "explicit",
    "false",
    "for",
    "friend",
    "function",
    "get",
    "gosub",
    "goto",
    "if",
    "imp",
    "implements",
    "in",
    "integer",
    "is",
    "let",
    "lib",
    "like",
    "line",
    "lock",
    "long",
    "longlong",
    "longptr",
    "loop",
    "lset",
    "mod",
    "new",
    "next",
    "not",
    "nothing",
    "null",
    "object",
    "on",
    "option",
    "optional",
    "or",
    "paramarray",
    "preserve",
    "print",
    "private",
    "property",
    "public",
    "put",
    "raiseevent",
    "randomize",
    "redim",
    "resume",
    "return",
    "rset",
    "seek",
    "select",
    "set",
    "single",
    "static",
    "step",
    "stop",
    "string",
    "sub",
    "then",
    "to",
    "true",
    "type",
    "typeof",
    "until",
    "variant",
    "wend",
    "while",
    "with",
    "withevents",
    "write",
    "xor",
];

/// Compares a lowercase table entry against the ASCII-lowercase folding
/// of `word`, byte-wise — the same ordering as
/// `entry.cmp(&word.to_ascii_lowercase())` without allocating the folded
/// copy (string comparison is bytewise-lexicographic, and ASCII folding
/// maps byte-for-byte).
pub(crate) fn cmp_ascii_fold(entry: &str, word: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let mut e = entry.bytes();
    let mut w = word.bytes().map(|b| b.to_ascii_lowercase());
    loop {
        match (e.next(), w.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(a), Some(b)) => match a.cmp(&b) {
                Ordering::Equal => continue,
                other => return other,
            },
        }
    }
}

/// Whether `word` is a VBA reserved word (case-insensitive, no allocation).
pub(crate) fn is_keyword(word: &str) -> bool {
    KEYWORDS
        .binary_search_by(|k| cmp_ascii_fold(k, word))
        .is_ok()
}

/// Type-declaration suffix characters that may trail an identifier.
fn is_type_suffix(c: char) -> bool {
    matches!(c, '$' | '%' | '&' | '!' | '#' | '@')
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || !c.is_ascii()
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || !c.is_ascii()
}

/// How a string literal's decoded value is stored: as a borrowed span of
/// the source (the common case) or, when `""` escapes force a rewrite, as
/// an index into the decoded-string arena.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StrRepr {
    /// Byte range of the value in the source (quotes excluded).
    Span(usize, usize),
    /// Index into the decoded arena.
    Decoded(usize),
}

/// Side-table record for one string literal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StringInfo {
    pub repr: StrRepr,
    /// Decoded value length in characters (recorded during lexing; J8/V7
    /// never re-walk the value).
    pub char_len: usize,
}

/// Side-table record for one comment: the trimmed body as a byte range of
/// the source. Character lengths are aggregated into
/// [`SourceStats::comment_body_chars`] during lexing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommentInfo {
    pub body_start: usize,
    pub body_end: usize,
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    cpos: usize,
    prev: Option<char>,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    #[inline]
    fn byte_at(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(i).copied()
    }

    /// Consumes the (already peeked) character `c`, routing it through
    /// the statistics accumulators exactly once.
    #[inline]
    fn bump(&mut self, c: char, stats: &mut SourceStats, masked: bool) {
        self.pos += c.len_utf8();
        self.cpos += 1;
        self.prev = Some(c);
        stats.visit(c, masked);
    }

    /// Consumes a comment-body character: masked, and additionally fed to
    /// the comment-word machine.
    #[inline]
    fn bump_comment(&mut self, c: char, stats: &mut SourceStats) {
        self.bump(c, stats, true);
        stats.visit_comment_word(c);
    }
}

/// The single fused pass: tokenizes `source` into `tokens` (+ string and
/// comment side tables) while filling `stats`. All output vectors are
/// cleared first; capacity is retained.
pub(crate) fn lex_spans(
    source: &str,
    tokens: &mut Vec<SpanToken>,
    strings: &mut Vec<StringInfo>,
    comments: &mut Vec<CommentInfo>,
    decoded: &mut Vec<String>,
    stats: &mut SourceStats,
) {
    tokens.clear();
    strings.clear();
    comments.clear();
    decoded.clear();
    stats.reset();

    let mut cur = Cursor {
        src: source,
        pos: 0,
        cpos: 0,
        prev: None,
    };
    let n = source.len();

    while let Some(c) = cur.peek() {
        let start = cur.pos;
        let cstart = cur.cpos;

        // Line continuation: whitespace, '_', optional spaces, line break.
        if c == '_' && matches!(cur.prev, None | Some(' ') | Some('\t')) {
            let mut j = cur.pos + 1;
            while j < n && matches!(cur.byte_at(j), Some(b' ') | Some(b'\t') | Some(b'\r')) {
                j += 1;
            }
            if j < n && cur.byte_at(j) == Some(b'\n') {
                // Splice: consume through the newline, no Newline token.
                while cur.pos <= j {
                    let ch = cur.peek().unwrap();
                    cur.bump(ch, stats, false);
                }
                continue;
            }
        }

        match c {
            ' ' | '\t' | '\r' => {
                cur.bump(c, stats, false);
            }
            '\n' => {
                cur.bump(c, stats, false);
                tokens.push(SpanToken {
                    kind: SpanKind::Newline,
                    start,
                    end: cur.pos,
                    char_start: cstart,
                    char_end: cur.cpos,
                });
            }
            '\'' => {
                cur.bump(c, stats, true); // the marker
                let body_start = cur.pos;
                let body_cstart = cur.cpos;
                while let Some(ch) = cur.peek() {
                    if ch == '\n' {
                        break;
                    }
                    cur.bump_comment(ch, stats);
                }
                stats.end_comment_word();
                let raw = &source[body_start..cur.pos];
                let body = raw.trim_end_matches('\r');
                // Every trimmed byte is one '\r' character.
                let body_chars = (cur.cpos - body_cstart) - (raw.len() - body.len());
                comments.push(CommentInfo {
                    body_start,
                    body_end: body_start + body.len(),
                });
                stats.comment_body_chars += body_chars;
                stats.comment_span_chars += cur.cpos - cstart;
                tokens.push(SpanToken {
                    kind: SpanKind::Comment((comments.len() - 1) as u32),
                    start,
                    end: cur.pos,
                    char_start: cstart,
                    char_end: cur.cpos,
                });
            }
            '"' => {
                cur.bump(c, stats, true); // opening quote
                let val_start = cur.pos;
                let val_end;
                let mut char_len = 0usize;
                let mut buf: Option<String> = None;
                loop {
                    match cur.peek() {
                        None => {
                            val_end = cur.pos; // unterminated: tolerate
                            break;
                        }
                        Some('"') => {
                            if cur.byte_at(cur.pos + 1) == Some(b'"') {
                                // Escaped quote: decode lazily.
                                if buf.is_none() {
                                    buf = Some(source[val_start..cur.pos].to_string());
                                }
                                cur.bump('"', stats, true);
                                cur.bump('"', stats, true);
                                buf.as_mut().unwrap().push('"');
                                char_len += 1;
                            } else {
                                val_end = cur.pos;
                                cur.bump('"', stats, true);
                                break;
                            }
                        }
                        Some('\n') => {
                            val_end = cur.pos; // strings do not span lines
                            break;
                        }
                        Some(ch) => {
                            if let Some(b) = &mut buf {
                                b.push(ch);
                            }
                            char_len += 1;
                            cur.bump(ch, stats, true);
                        }
                    }
                }
                let repr = match buf {
                    Some(s) => {
                        decoded.push(s);
                        StrRepr::Decoded(decoded.len() - 1)
                    }
                    None => StrRepr::Span(val_start, val_end),
                };
                strings.push(StringInfo { repr, char_len });
                stats.string_chars += char_len;
                stats.string_len_sum += char_len as f64;
                tokens.push(SpanToken {
                    kind: SpanKind::StringLit((strings.len() - 1) as u32),
                    start,
                    end: cur.pos,
                    char_start: cstart,
                    char_end: cur.cpos,
                });
            }
            '&' if matches!(
                cur.byte_at(cur.pos + 1),
                Some(b'H') | Some(b'h') | Some(b'O') | Some(b'o')
            ) =>
            {
                // &H / &O numeric literal (falls back to operator + ident
                // when no digits follow).
                let radix_hex = matches!(cur.byte_at(cur.pos + 1), Some(b'H') | Some(b'h'));
                let mut j = cur.pos + 2;
                while j < n {
                    let Some(b) = cur.byte_at(j) else { break };
                    let ok = (b.is_ascii_hexdigit() && radix_hex)
                        || ((b'0'..=b'7').contains(&b) && !radix_hex);
                    if !ok {
                        break;
                    }
                    j += 1;
                }
                if j > cur.pos + 2 {
                    if j < n && cur.byte_at(j).map(|b| is_type_suffix(b as char)) == Some(true) {
                        j += 1;
                    }
                    while cur.pos < j {
                        let ch = cur.peek().unwrap();
                        cur.bump(ch, stats, false);
                    }
                    tokens.push(SpanToken {
                        kind: SpanKind::Number,
                        start,
                        end: cur.pos,
                        char_start: cstart,
                        char_end: cur.cpos,
                    });
                } else {
                    cur.bump(c, stats, false);
                    tokens.push(SpanToken {
                        kind: SpanKind::Operator("&"),
                        start,
                        end: cur.pos,
                        char_start: cstart,
                        char_end: cur.cpos,
                    });
                }
            }
            '0'..='9' => {
                while let Some(ch) = cur.peek() {
                    if !ch.is_ascii_digit() {
                        break;
                    }
                    cur.bump(ch, stats, false);
                }
                if cur.peek() == Some('.') {
                    cur.bump('.', stats, false);
                    while let Some(ch) = cur.peek() {
                        if !ch.is_ascii_digit() {
                            break;
                        }
                        cur.bump(ch, stats, false);
                    }
                }
                if matches!(cur.peek(), Some('e') | Some('E')) {
                    // Only consume the exponent when digits follow.
                    let mut j = cur.pos + 1;
                    if matches!(cur.byte_at(j), Some(b'+') | Some(b'-')) {
                        j += 1;
                    }
                    if cur.byte_at(j).map(|b| b.is_ascii_digit()) == Some(true) {
                        while cur.pos < j {
                            let ch = cur.peek().unwrap();
                            cur.bump(ch, stats, false);
                        }
                        while let Some(ch) = cur.peek() {
                            if !ch.is_ascii_digit() {
                                break;
                            }
                            cur.bump(ch, stats, false);
                        }
                    }
                }
                if cur.peek().map(is_type_suffix) == Some(true) {
                    let ch = cur.peek().unwrap();
                    cur.bump(ch, stats, false);
                }
                tokens.push(SpanToken {
                    kind: SpanKind::Number,
                    start,
                    end: cur.pos,
                    char_start: cstart,
                    char_end: cur.cpos,
                });
            }
            _ if is_ident_start(c) => {
                // Snapshot the word machine: if this turns out to be a
                // `Rem` comment the speculatively-fed chars are rewound
                // (the whole comment span is masked, marker included).
                let snap = stats.word_snapshot();
                while let Some(ch) = cur.peek() {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    cur.bump(ch, stats, false);
                }
                let word = &source[start..cur.pos];
                if word.eq_ignore_ascii_case("rem") {
                    // Rem comment: swallow the rest of the line.
                    stats.word_rewind(snap);
                    let body_raw_start = cur.pos;
                    let body_cstart = cur.cpos;
                    while let Some(ch) = cur.peek() {
                        if ch == '\n' {
                            break;
                        }
                        cur.bump_comment(ch, stats);
                    }
                    stats.end_comment_word();
                    let raw = &source[body_raw_start..cur.pos];
                    let after_r = raw.trim_end_matches('\r');
                    let body = after_r.trim_start();
                    let prefix = &after_r[..after_r.len() - body.len()];
                    let body_chars = (cur.cpos - body_cstart)
                        - (raw.len() - after_r.len())
                        - prefix.chars().count();
                    let body_start = body_raw_start + (after_r.len() - body.len());
                    comments.push(CommentInfo {
                        body_start,
                        body_end: body_start + body.len(),
                    });
                    stats.comment_body_chars += body_chars;
                    stats.comment_span_chars += cur.cpos - cstart;
                    tokens.push(SpanToken {
                        kind: SpanKind::Comment((comments.len() - 1) as u32),
                        start,
                        end: cur.pos,
                        char_start: cstart,
                        char_end: cur.cpos,
                    });
                } else if is_keyword(word) {
                    tokens.push(SpanToken {
                        kind: SpanKind::Keyword,
                        start,
                        end: cur.pos,
                        char_start: cstart,
                        char_end: cur.cpos,
                    });
                } else {
                    if cur.peek().map(is_type_suffix) == Some(true) {
                        let ch = cur.peek().unwrap();
                        cur.bump(ch, stats, false);
                    }
                    tokens.push(SpanToken {
                        kind: SpanKind::Identifier,
                        start,
                        end: cur.pos,
                        char_start: cstart,
                        char_end: cur.cpos,
                    });
                }
            }
            _ => {
                // Operators and punctuation, multi-character first.
                let two: Option<&'static str> = match (c, cur.byte_at(cur.pos + 1)) {
                    ('<', Some(b'>')) => Some("<>"),
                    ('<', Some(b'=')) => Some("<="),
                    ('>', Some(b'=')) => Some(">="),
                    (':', Some(b'=')) => Some(":="),
                    _ => None,
                };
                if let Some(op) = two {
                    cur.bump(c, stats, false);
                    let ch = cur.peek().unwrap();
                    cur.bump(ch, stats, false);
                    tokens.push(SpanToken {
                        kind: SpanKind::Operator(op),
                        start,
                        end: cur.pos,
                        char_start: cstart,
                        char_end: cur.cpos,
                    });
                    continue;
                }
                let op: Option<&'static str> = match c {
                    '&' => Some("&"),
                    '+' => Some("+"),
                    '-' => Some("-"),
                    '*' => Some("*"),
                    '/' => Some("/"),
                    '\\' => Some("\\"),
                    '^' => Some("^"),
                    '=' => Some("="),
                    '<' => Some("<"),
                    '>' => Some(">"),
                    '.' => Some("."),
                    ',' => Some(","),
                    ';' => Some(";"),
                    ':' => Some(":"),
                    '(' => Some("("),
                    ')' => Some(")"),
                    '#' => Some("#"),
                    '@' => Some("@"),
                    '!' => Some("!"),
                    '$' => Some("$"),
                    '%' => Some("%"),
                    '?' => Some("?"),
                    '[' => Some("["),
                    ']' => Some("]"),
                    '{' => Some("{"),
                    '}' => Some("}"),
                    _ => None,
                };
                cur.bump(c, stats, false);
                if let Some(op) = op {
                    tokens.push(SpanToken {
                        kind: SpanKind::Operator(op),
                        start,
                        end: cur.pos,
                        char_start: cstart,
                        char_end: cur.cpos,
                    });
                }
                // Unknown characters are skipped (total lexer).
            }
        }
    }
    stats.finish();
}

/// Tokenizes VBA source code.
///
/// The lexer is *total*: any input produces a token stream (unrecognized
/// bytes become one-character [`TokenKind::Operator`]-like fallbacks are
/// skipped), which matters because obfuscated macros frequently contain
/// deliberately broken code (§VI.B of the paper).
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut strings = Vec::new();
    let mut comments = Vec::new();
    let mut decoded = Vec::new();
    let mut stats = SourceStats::default();
    lex_spans(
        source,
        &mut tokens,
        &mut strings,
        &mut comments,
        &mut decoded,
        &mut stats,
    );
    tokens
        .iter()
        .map(|t| {
            let kind = match t.kind {
                SpanKind::Identifier => TokenKind::Identifier(source[t.start..t.end].to_string()),
                SpanKind::Keyword => TokenKind::Keyword(source[t.start..t.end].to_string()),
                SpanKind::Number => TokenKind::Number(source[t.start..t.end].to_string()),
                SpanKind::StringLit(i) => {
                    let info = &strings[i as usize];
                    TokenKind::StringLit(match info.repr {
                        StrRepr::Span(s, e) => source[s..e].to_string(),
                        StrRepr::Decoded(d) => decoded[d].clone(),
                    })
                }
                SpanKind::Comment(i) => {
                    let info = &comments[i as usize];
                    TokenKind::Comment(source[info.body_start..info.body_end].to_string())
                }
                SpanKind::Operator(op) => TokenKind::Operator(op),
                SpanKind::Newline => TokenKind::Newline,
            };
            Token {
                kind,
                start: t.start,
                end: t.end,
            }
        })
        .collect()
}

/// The historical `Vec<char>`-indexed tokenizer, kept verbatim as the
/// equivalence oracle for the span lexer: property tests assert the two
/// produce identical token streams on arbitrary (including hostile)
/// input.
#[cfg(any(test, feature = "reference"))]
pub fn reference_tokenize(source: &str) -> Vec<Token> {
    let bytes: Vec<char> = source.chars().collect();
    // Byte offsets per char index (so spans refer to the original string).
    let mut offsets = Vec::with_capacity(bytes.len() + 1);
    {
        let mut off = 0usize;
        for &c in &bytes {
            offsets.push(off);
            off += c.len_utf8();
        }
        offsets.push(off);
    }

    let mut tokens = Vec::new();
    let mut i = 0usize;
    let n = bytes.len();

    let push = |tokens: &mut Vec<Token>, kind: TokenKind, start: usize, end: usize| {
        tokens.push(Token {
            kind,
            start: offsets[start],
            end: offsets[end],
        });
    };

    while i < n {
        let c = bytes[i];

        // Line continuation: whitespace, '_', optional spaces, line break.
        if c == '_' && (i == 0 || bytes[i - 1] == ' ' || bytes[i - 1] == '\t') {
            let mut j = i + 1;
            while j < n && (bytes[j] == ' ' || bytes[j] == '\t' || bytes[j] == '\r') {
                j += 1;
            }
            if j < n && bytes[j] == '\n' {
                i = j + 1; // splice: no Newline token
                continue;
            }
        }

        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
            }
            '\n' => {
                push(&mut tokens, TokenKind::Newline, i, i + 1);
                i += 1;
            }
            '\'' => {
                let start = i;
                i += 1;
                let text_start = i;
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[text_start..i].iter().collect();
                push(
                    &mut tokens,
                    TokenKind::Comment(text.trim_end_matches('\r').to_string()),
                    start,
                    i,
                );
            }
            '"' => {
                let start = i;
                i += 1;
                let mut value = String::new();
                loop {
                    if i >= n {
                        break; // unterminated string: tolerate
                    }
                    if bytes[i] == '"' {
                        if i + 1 < n && bytes[i + 1] == '"' {
                            value.push('"');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else if bytes[i] == '\n' {
                        break; // strings do not span lines
                    } else {
                        value.push(bytes[i]);
                        i += 1;
                    }
                }
                push(&mut tokens, TokenKind::StringLit(value), start, i);
            }
            '&' if i + 1 < n && matches!(bytes[i + 1], 'H' | 'h' | 'O' | 'o') => {
                // &H / &O numeric literal (falls back to operator + ident
                // when no digits follow).
                let radix_hex = matches!(bytes[i + 1], 'H' | 'h');
                let mut j = i + 2;
                while j < n
                    && (bytes[j].is_ascii_hexdigit() && radix_hex
                        || bytes[j].is_digit(8) && !radix_hex)
                {
                    j += 1;
                }
                if j > i + 2 {
                    if j < n && is_type_suffix(bytes[j]) {
                        j += 1;
                    }
                    let text: String = bytes[i..j].iter().collect();
                    push(&mut tokens, TokenKind::Number(text), i, j);
                    i = j;
                } else {
                    push(&mut tokens, TokenKind::Operator("&"), i, i + 1);
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < n && bytes[i] == '.' {
                    i += 1;
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < n && matches!(bytes[i], 'e' | 'E') {
                    let mut j = i + 1;
                    if j < n && matches!(bytes[j], '+' | '-') {
                        j += 1;
                    }
                    if j < n && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < n && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                if i < n && is_type_suffix(bytes[i]) {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                push(&mut tokens, TokenKind::Number(text), start, i);
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                if word.eq_ignore_ascii_case("rem") {
                    // Rem comment: swallow the rest of the line.
                    let text_start = i;
                    while i < n && bytes[i] != '\n' {
                        i += 1;
                    }
                    let text: String = bytes[text_start..i].iter().collect();
                    push(
                        &mut tokens,
                        TokenKind::Comment(text.trim_end_matches('\r').trim_start().to_string()),
                        start,
                        i,
                    );
                } else if is_keyword(&word) {
                    push(&mut tokens, TokenKind::Keyword(word), start, i);
                } else {
                    let mut word = word;
                    if i < n && is_type_suffix(bytes[i]) {
                        word.push(bytes[i]);
                        i += 1;
                    }
                    push(&mut tokens, TokenKind::Identifier(word), start, i);
                }
            }
            _ => {
                // Operators and punctuation, multi-character first.
                let two: Option<&'static str> = if i + 1 < n {
                    match (c, bytes[i + 1]) {
                        ('<', '>') => Some("<>"),
                        ('<', '=') => Some("<="),
                        ('>', '=') => Some(">="),
                        (':', '=') => Some(":="),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some(op) = two {
                    push(&mut tokens, TokenKind::Operator(op), i, i + 2);
                    i += 2;
                    continue;
                }
                let op: Option<&'static str> = match c {
                    '&' => Some("&"),
                    '+' => Some("+"),
                    '-' => Some("-"),
                    '*' => Some("*"),
                    '/' => Some("/"),
                    '\\' => Some("\\"),
                    '^' => Some("^"),
                    '=' => Some("="),
                    '<' => Some("<"),
                    '>' => Some(">"),
                    '.' => Some("."),
                    ',' => Some(","),
                    ';' => Some(";"),
                    ':' => Some(":"),
                    '(' => Some("("),
                    ')' => Some(")"),
                    '#' => Some("#"),
                    '@' => Some("@"),
                    '!' => Some("!"),
                    '$' => Some("$"),
                    '%' => Some("%"),
                    '?' => Some("?"),
                    '[' => Some("["),
                    ']' => Some("]"),
                    '{' => Some("{"),
                    '}' => Some("}"),
                    _ => None,
                };
                if let Some(op) = op {
                    push(&mut tokens, TokenKind::Operator(op), i, i + 1);
                }
                // Unknown characters are skipped (total lexer).
                i += 1;
            }
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_sorted_for_binary_search() {
        let mut sorted = KEYWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KEYWORDS, "KEYWORDS must stay sorted");
    }

    #[test]
    fn fold_compare_matches_allocating_compare() {
        for w in [
            "Dim",
            "DIM",
            "dim",
            "dio",
            "di",
            "dimm",
            "zzz",
            "",
            "Caf\u{e9}",
        ] {
            let lower = w.to_ascii_lowercase();
            for k in ["dim", "do", "a", "zz"] {
                assert_eq!(cmp_ascii_fold(k, w), k.cmp(lower.as_str()), "{k} vs {w}");
            }
        }
    }

    #[test]
    fn simple_statement() {
        assert_eq!(
            kinds("Dim x As Integer"),
            vec![
                Keyword("Dim".into()),
                Identifier("x".into()),
                Keyword("As".into()),
                Keyword("Integer".into()),
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(kinds("SUB sub SuB")[0], Keyword("SUB".into()));
        assert!(matches!(&kinds("DIM")[0], Keyword(_)));
        assert!(matches!(&kinds("dIm")[0], Keyword(_)));
    }

    #[test]
    fn string_literal_with_escaped_quotes() {
        assert_eq!(
            kinds(r#"s = "he said ""hi""""#),
            vec![
                Identifier("s".into()),
                Operator("="),
                StringLit("he said \"hi\"".into()),
            ]
        );
    }

    #[test]
    fn unterminated_string_is_tolerated() {
        let k = kinds("s = \"oops");
        assert_eq!(k[2], StringLit("oops".into()));
    }

    #[test]
    fn apostrophe_comment() {
        assert_eq!(
            kinds("x = 1 ' trailing comment\r\ny = 2"),
            vec![
                Identifier("x".into()),
                Operator("="),
                Number("1".into()),
                Comment(" trailing comment".into()),
                Newline,
                Identifier("y".into()),
                Operator("="),
                Number("2".into()),
            ]
        );
    }

    #[test]
    fn rem_comment() {
        let k = kinds("Rem whole line comment\nx = 1");
        assert_eq!(k[0], Comment("whole line comment".into()));
        // Identifier containing "rem" is NOT a comment.
        let k2 = kinds("remainder = 5");
        assert_eq!(k2[0], Identifier("remainder".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], Number("42".into()));
        assert_eq!(kinds("3.14")[0], Number("3.14".into()));
        assert_eq!(kinds("1e10")[0], Number("1e10".into()));
        assert_eq!(kinds("2.5E-3")[0], Number("2.5E-3".into()));
        assert_eq!(kinds("&HFF")[0], Number("&HFF".into()));
        assert_eq!(kinds("&o777")[0], Number("&o777".into()));
        assert_eq!(kinds("123&")[0], Number("123&".into()));
    }

    #[test]
    fn ampersand_operator_vs_hex_literal() {
        // Between identifiers & is the concatenation operator.
        assert_eq!(
            kinds("a & b"),
            vec![
                Identifier("a".into()),
                Operator("&"),
                Identifier("b".into())
            ]
        );
        // `a &Hello` — no hex digits after &H... actually 'e' is a hex digit?
        // "&He" -> hex digit 'e' consumed; this is genuinely ambiguous in
        // VBA and resolved toward the literal, as here.
        assert_eq!(kinds("x &H12 y")[1], Number("&H12".into()));
    }

    #[test]
    fn identifier_type_suffixes() {
        assert_eq!(kinds("name$")[0], Identifier("name$".into()));
        assert_eq!(kinds("count%")[0], Identifier("count%".into()));
        // Suffix & must not leak a string-operator token.
        let k = kinds("total& = 1");
        assert_eq!(k[0], Identifier("total&".into()));
        assert_eq!(k[1], Operator("="));
    }

    #[test]
    fn line_continuation_is_spliced() {
        let k = kinds("x = 1 + _\r\n    2");
        assert!(
            !k.contains(&Newline),
            "continuation must not produce Newline: {k:?}"
        );
        assert_eq!(k.last(), Some(&Number("2".into())));
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            kinds("a <> b <= c >= d := e"),
            vec![
                Identifier("a".into()),
                Operator("<>"),
                Identifier("b".into()),
                Operator("<="),
                Identifier("c".into()),
                Operator(">="),
                Identifier("d".into()),
                Operator(":="),
                Identifier("e".into()),
            ]
        );
    }

    #[test]
    fn member_access_chain() {
        let k = kinds("OutlookApp.CreateItem(0)");
        assert_eq!(
            k,
            vec![
                Identifier("OutlookApp".into()),
                Operator("."),
                Identifier("CreateItem".into()),
                Operator("("),
                Number("0".into()),
                Operator(")"),
            ]
        );
    }

    #[test]
    fn spans_cover_source() {
        let src = "Dim zz = \"ab\" ' c";
        for t in tokenize(src) {
            assert!(t.start <= t.end && t.end <= src.len());
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn full_procedure_from_paper_fig1a() {
        // Figure 1(a) of the paper.
        let src = "Sub StartCalculator()\r\n\
                   Dim Program As String\r\n\
                   Dim TaskID As Double\r\n\
                   On Error Resume Next\r\n\
                   Program = \"calc.exe\"\r\n\
                   'Run calculator program using Shell()\r\n\
                   TaskID = Shell(Program, 1)\r\n\
                   If Err <> 0 Then\r\n\
                   MsgBox \"Can't start \" & Program\r\n\
                   End If\r\n\
                   End Sub\r\n";
        let toks = tokenize(src);
        let strings: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                StringLit(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strings, vec!["calc.exe", "Can't start "]);
        let comments = toks.iter().filter(|t| matches!(t.kind, Comment(_))).count();
        assert_eq!(comments, 1);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, Identifier(i) if i == "Shell")));
    }

    #[test]
    fn non_ascii_identifiers_do_not_panic() {
        let k = kinds("Dim caf\u{00E9} = \"\u{2603}\"");
        assert!(k
            .iter()
            .any(|t| matches!(t, Identifier(i) if i.contains('\u{00E9}'))));
    }

    #[test]
    fn totality_on_noise() {
        let mut state = 7u64;
        for _ in 0..50 {
            let src: String = (0..200)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    char::from_u32((state % 0x250) as u32).unwrap_or('?')
                })
                .collect();
            let _ = tokenize(&src);
        }
    }

    #[test]
    fn span_lexer_matches_reference_tokenizer() {
        let samples = [
            "",
            "Dim x As Integer\r\nx = 1 ' c\r\n",
            "s = \"a\"\"b\"\ns2 = \"open",
            "Rem note \r\r\nRem\n1Rem tail\nremainder = 5",
            "x = 1 + _\r\n 2\n_ = 3\n _\n",
            "&HFF &o777 &Hx 123& 1e5 2.5E-3 9.",
            "a<>b<=c>=d:=e&f",
            "caf\u{e9} = \"\u{2603}\u{2603}\" ' \u{e9}t\u{e9}\n",
            "Sub A()\nExit Sub\nEnd Sub\nDeclare Function F Lib \"k\"\n",
            "\"unterminated\nnext = 1",
        ];
        for src in samples {
            assert_eq!(tokenize(src), reference_tokenize(src), "src = {src:?}");
        }
        // Pseudo-random noise, same generator as totality_on_noise.
        let mut state = 99u64;
        for _ in 0..100 {
            let src: String = (0..300)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    char::from_u32((state % 0x300) as u32).unwrap_or('?')
                })
                .collect();
            assert_eq!(tokenize(&src), reference_tokenize(&src), "src = {src:?}");
        }
    }
}
