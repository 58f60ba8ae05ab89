//! The VBA tokenizer.
//!
//! The lexer is span-based and single-pass: it walks the source exactly
//! once, feeding every character through the [`SourceStats`]
//! accumulators and every token through the call-site, string-operator
//! and procedure-body machine ([`TokenMachine`]) as it recognizes it.
//!
//! [`lex_spans`] has two compile-time modes. The full mode (`FULL =
//! true`, behind [`MacroAnalysis`](crate::MacroAnalysis) and
//! [`tokenize`]) also emits [`SpanToken`]s (byte + char positions, no
//! owned payloads) with their string and comment side tables, and runs
//! the machines only J1–J20 read: comment-body words, J5 readability,
//! lines and procedure bodies. The V mode (`FULL = false`, behind
//! [`LexScratch::lex_counts`](crate::LexScratch::lex_counts)) keeps only
//! what V1–V15 read: it pushes no token, fills no table and counts the
//! string literals instead, with the same character counts, word lengths,
//! identifier lengths and histogram. The classic owned-token API
//! ([`tokenize`]) is a thin materialization on top of the full mode and
//! produces byte-identical output to the historical `Vec<char>`-indexed
//! implementation (kept as a reference oracle under the `reference`
//! feature).
//!
//! The loop is driven by bytes: every token starts at an ASCII byte or at
//! the first byte of a non-ASCII `char` (which always starts an
//! identifier), so dispatch, run scanning and the [`CLASS`] table work on
//! bytes, and whitespace, identifier, comment-body and string-body runs
//! are handed to [`SourceStats`] whole, as byte offsets into the source.
//!
//! Each word is hashed once. The lexer classifies it with one probe of
//! the [`words`](crate::words) table, read with two 8-byte loads, and the
//! class rides on its token and into the token machine. An ASCII
//! identifier or keyword body goes to the code-word machine as one span,
//! which (in the full mode) decides J5 once when the word ends. A user
//! identifier (suffix included) goes into the distinct-identifier set
//! ([`IdentSet`]), and a new name appends its length to
//! [`SourceStats::ident_lengths`] for V14/V15.

use crate::calls::{TokenCounts, TokenMachine};
use crate::idents::IdentSet;
use crate::stats::{class, run_end, SourceStats, IDENT_START, WORD};
use crate::token::{SpanKind, SpanToken, Token, TokenKind};
use crate::words;

/// Type-declaration suffix characters that may trail an identifier.
fn is_suffix_byte(b: u8) -> bool {
    matches!(b, b'$' | b'%' | b'&' | b'!' | b'#' | b'@')
}

/// How a string literal's decoded value is stored: as a borrowed span of
/// the source (the common case) or, when `""` escapes force a rewrite, as
/// a byte range of the module's decoded-text buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StrRepr {
    /// Byte range of the value in the source (quotes excluded).
    Span(usize, usize),
    /// Byte range in the decoded-text buffer.
    Decoded(usize, usize),
}

/// Side-table record for one comment: the trimmed body as a byte range of
/// the source. Character lengths are aggregated into
/// [`SourceStats::comment_body_chars`] during lexing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommentInfo {
    pub body_start: usize,
    pub body_end: usize,
}

/// The token stream and its side tables, which only the full mode fills:
/// the tokens, the string values and comment bodies they index, and the
/// `""`-decoded string values.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    pub tokens: Vec<SpanToken>,
    pub strings: Vec<StrRepr>,
    pub comments: Vec<CommentInfo>,
    pub decoded: String,
}

/// Characters in `text`.
fn char_count(text: &str) -> usize {
    if text.is_ascii() {
        text.len()
    } else {
        text.chars().count()
    }
}

/// The single fused pass over `source`: fills `stats` (with `idents` as
/// the distinct-identifier set) and runs the token machine on each token
/// as it is recognized; returns the machine's counts and the number of
/// string literals.
///
/// `FULL` selects the mode. The full mode also fills `tables` and runs
/// the J-only machines: comment-body words, J5 readability, lines and
/// procedure bodies. The V mode leaves `tables` untouched. Both modes
/// clear what they fill first and retain capacity.
pub(crate) fn lex_spans<const FULL: bool>(
    source: &str,
    tables: &mut Tables,
    stats: &mut SourceStats,
    idents: &mut IdentSet,
) -> (TokenCounts, usize) {
    let Tables {
        tokens,
        strings,
        comments,
        decoded,
    } = tables;
    if FULL {
        tokens.clear();
        strings.clear();
        comments.clear();
        decoded.clear();
    }
    stats.reset();
    idents.clear();
    let mut machine = TokenMachine::default();
    let mut string_count = 0usize;

    let bytes = source.as_bytes();
    let n = bytes.len();
    let (mut pos, mut cpos) = (0usize, 0usize);
    let push = |tokens: &mut Vec<SpanToken>, kind, start, end, char_start, char_end| {
        if FULL {
            tokens.push(SpanToken {
                kind,
                start,
                end,
                char_start,
                char_end,
            })
        }
    };

    while pos < n {
        let (start, cstart) = (pos, cpos);
        let b = bytes[pos];

        // Line continuation: whitespace, '_', optional spaces, line break.
        if b == b'_' && (pos == 0 || matches!(bytes[pos - 1], b' ' | b'\t')) {
            let j = run_end(bytes, pos + 1, |b| matches!(b, b' ' | b'\t' | b'\r'));
            if j < n && bytes[j] == b'\n' {
                // Splice: consume through the newline, no Newline token.
                stats.code_ascii::<FULL>(bytes, pos, j + 1);
                cpos += j + 1 - pos;
                if FULL {
                    stats.newline(cpos - 1, bytes[j - 1] == b'\r');
                }
                pos = j + 1;
                continue;
            }
        }

        match b {
            b' ' | b'\t' | b'\r' => {
                pos = run_end(bytes, pos, |b| matches!(b, b' ' | b'\t' | b'\r'));
                stats.end_code_word::<FULL>(bytes);
                cpos += pos - start;
            }
            b'\n' => {
                stats.end_code_word::<FULL>(bytes);
                cpos += 1;
                if FULL {
                    stats.newline(cstart, pos > 0 && bytes[pos - 1] == b'\r');
                }
                pos += 1;
                push(tokens, SpanKind::Newline, start, pos, cstart, cpos);
            }
            b'\'' => {
                stats.end_code_word::<FULL>(bytes);
                cpos += 1;
                pos += 1;
                let body_start = pos;
                pos = run_end(bytes, pos, |b| b != b'\n');
                let raw = &source[body_start..pos];
                let raw_chars = if FULL {
                    let chars = stats.comment(source, body_start, pos);
                    stats.end_comment_word(bytes);
                    chars
                } else {
                    char_count(raw)
                };
                cpos += raw_chars;
                let body = raw.trim_end_matches('\r');
                // Every trimmed byte is one '\r' character.
                stats.comment_body_chars += raw_chars - (raw.len() - body.len());
                stats.comment_span_chars += cpos - cstart;
                if FULL {
                    comments.push(CommentInfo {
                        body_start,
                        body_end: body_start + body.len(),
                    });
                    let kind = SpanKind::Comment((comments.len() - 1) as u32);
                    push(tokens, kind, start, pos, cstart, cpos);
                }
            }
            b'"' => {
                stats.end_code_word::<FULL>(bytes);
                cpos += 1;
                pos += 1;
                let val_start = pos;
                // Start of the value in `decoded`, once a `""` escape
                // forces a rewrite (full mode only).
                let mut rewritten: Option<usize> = None;
                let mut char_len = 0usize;
                let val_end = loop {
                    let j = run_end(bytes, pos, |b| b != b'"' && b != b'\n');
                    let chars = char_count(&source[pos..j]);
                    cpos += chars;
                    char_len += chars;
                    if FULL && rewritten.is_some() {
                        decoded.push_str(&source[pos..j]);
                    }
                    pos = j;
                    if j == n || bytes[j] == b'\n' {
                        // Unterminated: tolerated; strings do not span lines.
                        break j;
                    }
                    if bytes.get(j + 1) == Some(&b'"') {
                        if FULL {
                            if rewritten.is_none() {
                                rewritten = Some(decoded.len());
                                decoded.push_str(&source[val_start..j]);
                            }
                            decoded.push('"');
                        }
                        cpos += 2;
                        char_len += 1;
                        pos += 2;
                    } else {
                        cpos += 1;
                        pos += 1;
                        break j;
                    }
                };
                stats.string_chars += char_len;
                stats.string_len_sum += char_len as f64;
                string_count += 1;
                if FULL {
                    strings.push(match rewritten {
                        Some(from) => StrRepr::Decoded(from, decoded.len()),
                        None => StrRepr::Span(val_start, val_end),
                    });
                }
                let kind = SpanKind::StringLit((string_count - 1) as u32);
                push(tokens, kind, start, pos, cstart, cpos);
                machine.literal();
            }
            b'&' if matches!(bytes.get(pos + 1), Some(b'H' | b'h' | b'O' | b'o')) => {
                // &H / &O numeric literal (falls back to operator + ident
                // when no digits follow).
                let j = if matches!(bytes[pos + 1], b'H' | b'h') {
                    run_end(bytes, pos + 2, |b| b.is_ascii_hexdigit())
                } else {
                    run_end(bytes, pos + 2, |b| (b'0'..=b'7').contains(&b))
                };
                if j > pos + 2 {
                    pos = j + usize::from(j < n && is_suffix_byte(bytes[j]));
                    stats.code_ascii::<FULL>(bytes, start, pos);
                    cpos += pos - start;
                    push(tokens, SpanKind::Number, start, pos, cstart, cpos);
                    machine.literal();
                } else {
                    pos += 1;
                    stats.end_code_word::<FULL>(bytes);
                    cpos += 1;
                    push(tokens, SpanKind::Operator("&"), start, pos, cstart, cpos);
                    machine.operator("&");
                }
            }
            b'0'..=b'9' => {
                let digits = |from| run_end(bytes, from, |b| b.is_ascii_digit());
                pos = digits(pos);
                if bytes.get(pos) == Some(&b'.') {
                    pos = digits(pos + 1);
                }
                if matches!(bytes.get(pos), Some(b'e' | b'E')) {
                    // Only consume the exponent when digits follow.
                    let mut j = pos + 1;
                    if matches!(bytes.get(j), Some(b'+' | b'-')) {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        pos = digits(j);
                    }
                }
                if bytes.get(pos).copied().is_some_and(is_suffix_byte) {
                    pos += 1;
                }
                stats.code_ascii::<FULL>(bytes, start, pos);
                cpos += pos - start;
                push(tokens, SpanKind::Number, start, pos, cstart, cpos);
                machine.literal();
            }
            _ if b >= 0x80 || class(b) & IDENT_START != 0 => {
                // Identifier characters: ASCII word bytes, and every byte
                // of a non-ASCII char.
                pos = run_end(bytes, pos, |b| b < 0x80 && class(b) & WORD != 0);
                let ascii = pos == n || bytes[pos] < 0x80;
                if !ascii {
                    pos = run_end(bytes, pos, |b| b >= 0x80 || class(b) & WORD != 0);
                }
                let word = words::classify_span(bytes, start, pos);
                if word.is_rem() {
                    // Rem comment: the whole span is masked, marker
                    // included; swallow the rest of the line.
                    stats.end_code_word::<FULL>(bytes);
                    cpos += pos - start;
                    let body_raw_start = pos;
                    pos = run_end(bytes, pos, |b| b != b'\n');
                    let raw = &source[body_raw_start..pos];
                    let raw_chars = if FULL {
                        let chars = stats.comment(source, body_raw_start, pos);
                        stats.end_comment_word(bytes);
                        chars
                    } else {
                        char_count(raw)
                    };
                    cpos += raw_chars;
                    let after_r = raw.trim_end_matches('\r');
                    let body = after_r.trim_start();
                    let prefix = &after_r[..after_r.len() - body.len()];
                    stats.comment_body_chars +=
                        raw_chars - (raw.len() - after_r.len()) - prefix.chars().count();
                    stats.comment_span_chars += cpos - cstart;
                    if FULL {
                        let body_start = body_raw_start + prefix.len();
                        comments.push(CommentInfo {
                            body_start,
                            body_end: body_start + body.len(),
                        });
                        let kind = SpanKind::Comment((comments.len() - 1) as u32);
                        push(tokens, kind, start, pos, cstart, cpos);
                    }
                } else {
                    let word_end = pos;
                    if !word.is_keyword() {
                        pos += usize::from(bytes.get(pos).copied().is_some_and(is_suffix_byte));
                    }
                    if ascii {
                        // The body is all word bytes: one word-machine
                        // feed; a suffix ends the word.
                        stats.code_word(start, word_end);
                        if pos > word_end {
                            stats.end_code_word::<FULL>(bytes);
                        }
                        cpos += pos - start;
                    } else {
                        cpos += stats.code::<FULL>(source, start, pos);
                    }
                    if word.is_keyword() {
                        push(tokens, SpanKind::Keyword(word), start, pos, cstart, cpos);
                        machine.keyword::<FULL>(word, cstart, cpos);
                    } else {
                        if !word.is_builtin() && idents.insert(bytes, start, pos) {
                            stats.ident_lengths.push((cpos - cstart) as f64);
                        }
                        push(tokens, SpanKind::Identifier(word), start, pos, cstart, cpos);
                        machine.identifier(word);
                    }
                }
            }
            _ => {
                // Operators and punctuation, multi-character first.
                let op: Option<&'static str> = match (b, bytes.get(pos + 1)) {
                    (b'<', Some(b'>')) => Some("<>"),
                    (b'<', Some(b'=')) => Some("<="),
                    (b'>', Some(b'=')) => Some(">="),
                    (b':', Some(b'=')) => Some(":="),
                    (b'&', _) => Some("&"),
                    (b'+', _) => Some("+"),
                    (b'-', _) => Some("-"),
                    (b'*', _) => Some("*"),
                    (b'/', _) => Some("/"),
                    (b'\\', _) => Some("\\"),
                    (b'^', _) => Some("^"),
                    (b'=', _) => Some("="),
                    (b'<', _) => Some("<"),
                    (b'>', _) => Some(">"),
                    (b'.', _) => Some("."),
                    (b',', _) => Some(","),
                    (b';', _) => Some(";"),
                    (b':', _) => Some(":"),
                    (b'(', _) => Some("("),
                    (b')', _) => Some(")"),
                    (b'#', _) => Some("#"),
                    (b'@', _) => Some("@"),
                    (b'!', _) => Some("!"),
                    (b'$', _) => Some("$"),
                    (b'%', _) => Some("%"),
                    (b'?', _) => Some("?"),
                    (b'[', _) => Some("["),
                    (b']', _) => Some("]"),
                    (b'{', _) => Some("{"),
                    (b'}', _) => Some("}"),
                    // Unknown characters are skipped (total lexer).
                    _ => None,
                };
                pos += op.map_or(1, str::len);
                stats.end_code_word::<FULL>(bytes);
                cpos += pos - start;
                if let Some(op) = op {
                    push(tokens, SpanKind::Operator(op), start, pos, cstart, cpos);
                    machine.operator(op);
                }
            }
        }
    }
    stats.finish::<FULL>(source, cpos);
    (machine.finish(), string_count)
}

/// Tokenizes VBA source code.
///
/// The lexer is *total*: any input produces a token stream (characters
/// that start no token are skipped), which matters because obfuscated
/// macros frequently contain deliberately broken code (§VI.B of the
/// paper).
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut tables = Tables::default();
    lex_spans::<true>(
        source,
        &mut tables,
        &mut SourceStats::default(),
        &mut IdentSet::default(),
    );
    let Tables {
        tokens,
        strings,
        comments,
        decoded,
    } = &tables;
    tokens
        .iter()
        .map(|t| {
            let kind = match t.kind {
                SpanKind::Identifier(_) => {
                    TokenKind::Identifier(source[t.start..t.end].to_string())
                }
                SpanKind::Keyword(_) => TokenKind::Keyword(source[t.start..t.end].to_string()),
                SpanKind::Number => TokenKind::Number(source[t.start..t.end].to_string()),
                SpanKind::StringLit(i) => TokenKind::StringLit(match strings[i as usize] {
                    StrRepr::Span(s, e) => source[s..e].to_string(),
                    StrRepr::Decoded(s, e) => decoded[s..e].to_string(),
                }),
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

#[cfg(any(test, feature = "reference"))]
fn is_type_suffix(c: char) -> bool {
    matches!(c, '$' | '%' | '&' | '!' | '#' | '@')
}

#[cfg(any(test, feature = "reference"))]
fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || !c.is_ascii()
}

#[cfg(any(test, feature = "reference"))]
fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || !c.is_ascii()
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
                } else if crate::words::KEYWORDS.contains(&word.to_ascii_lowercase().as_str()) {
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
