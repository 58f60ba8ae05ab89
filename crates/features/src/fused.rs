//! Token-stream passes shared by the fused J/V extractors.
//!
//! Everything here walks the contiguous [`SpanToken`] slice of a
//! [`MacroAnalysis`] — never the source text — and writes into reusable
//! [`PassScratch`] buffers, so steady-state extraction allocates nothing.
//! Each quantity is accumulated in the exact order the historical
//! extractors iterated it, keeping every derived `f64` bit-identical to
//! the reference implementation (see `crate::reference`).
//!
//! V14/V15's distinct identifiers are not a pass here: the lexer builds
//! that lane while it emits the tokens
//! ([`SourceStats::ident_lengths`](vbadet_vba::SourceStats::ident_lengths)).

use vbadet_vba::{MacroAnalysis, SpanKind, SpanToken, WordClass};

/// Reusable buffers for the token passes (cleared per document, capacity
/// retained).
#[derive(Debug, Default)]
pub struct PassScratch {
    arg_spans: Vec<(usize, usize)>,
}

/// Quantities derived from one streaming pass over the token slice:
/// call sites (with category counts), string operators, and procedure
/// bodies.
#[derive(Debug, Default)]
pub(crate) struct TokenDerived {
    /// Number of call sites (J7).
    pub call_count: usize,
    /// Calls per function category, V8–V12 order.
    pub cat_counts: [f64; 5],
    /// `&`/`+`/`=` operator tokens (V5).
    pub string_ops: usize,
    /// Closed procedure bodies (J18/J20).
    pub body_count: usize,
    /// Characters across closed bodies, accumulated in body order (J18/J19).
    pub body_chars: f64,
}

fn is_significant(t: &SpanToken) -> bool {
    !matches!(t.kind, SpanKind::Comment(_) | SpanKind::Newline)
}

/// One pass over the tokens: call sites + categories, string operators,
/// procedure bodies. Streaming equivalent of the `call_sites()` /
/// `string_operator_count()` / `procedure_body_spans()` views, reading
/// the word class the lexer stored on each token.
pub(crate) fn token_derived(analysis: &MacroAnalysis) -> TokenDerived {
    // `iter::Sum for f64` folds from -0.0, so the reference's body-char
    // sum is -0.0 when no body exists — and that sign bit survives into
    // J19. Start from the same identity to stay bit-identical.
    let mut d = TokenDerived {
        body_chars: -0.0,
        ..TokenDerived::default()
    };
    // Call-site machine: an identifier is "pending" until the next
    // significant token decides paren-call vs statement-position builtin.
    let mut pending: Option<WordClass> = None;
    let mut prev_kw = WordClass::default();
    let mut open_body: Option<usize> = None;

    let resolve = |d: &mut TokenDerived, class: WordClass, followed_by_paren: bool| {
        if followed_by_paren || class.is_builtin() {
            d.call_count += 1;
            if let Some(idx) = class.category_index() {
                d.cat_counts[idx] += 1.0;
            }
        }
    };

    for t in analysis.tokens() {
        if matches!(t.kind, SpanKind::Operator("&" | "+" | "=")) {
            d.string_ops += 1;
        }
        if !is_significant(t) {
            continue;
        }
        if let Some(p) = pending.take() {
            resolve(&mut d, p, matches!(t.kind, SpanKind::Operator("(")));
        }
        match t.kind {
            SpanKind::Identifier(class) if !prev_kw.names_declaration() => {
                pending = Some(class);
            }
            SpanKind::Keyword(k) if k.opens_procedure() => {
                if prev_kw.is_declare() {
                    // Prototype, not a body.
                } else if prev_kw.is_end() {
                    if let Some(start) = open_body.take() {
                        d.body_count += 1;
                        d.body_chars += (t.char_end - start) as f64;
                    }
                } else if prev_kw.is_exit() {
                    // `Exit Sub` keeps the procedure open.
                } else if open_body.is_none() {
                    open_body = Some(t.char_start);
                }
            }
            _ => {}
        }
        // The class of the previous significant token when it is a
        // keyword, else a plain word (no role).
        prev_kw = match t.kind {
            SpanKind::Keyword(k) => k,
            _ => WordClass::default(),
        };
    }
    if let Some(p) = pending.take() {
        resolve(&mut d, p, false);
    }
    d
}

/// J9: character lengths of top-level call arguments, returned as the
/// sequential `(sum, count)` the reference `mean()` accumulated.
///
/// Matches the historical walk exactly: calls are `Identifier` tokens
/// *immediately* followed by `(` in the raw stream (comments/newlines
/// break adjacency, unlike `call_sites()`), argument spans are trimmed,
/// empty arguments skipped, unclosed calls contribute nothing.
pub(crate) fn arg_length_stats(
    analysis: &MacroAnalysis,
    scratch: &mut PassScratch,
) -> (f64, usize) {
    let tokens = analysis.tokens();
    let source = analysis.source();
    let (mut sum, mut count) = (0.0f64, 0usize);
    let mut i = 0usize;
    while i < tokens.len() {
        let is_call_open = matches!(tokens[i].kind, SpanKind::Identifier(_))
            && matches!(
                tokens.get(i + 1).map(|t| t.kind),
                Some(SpanKind::Operator("("))
            );
        if !is_call_open {
            i += 1;
            continue;
        }
        // Find the matching close paren, collecting top-level comma splits.
        let open = i + 1;
        let mut depth = 0usize;
        let mut arg_start = tokens[open].end;
        let mut j = open;
        scratch.arg_spans.clear();
        let mut closed = false;
        while j < tokens.len() {
            match tokens[j].kind {
                SpanKind::Operator("(") => depth += 1,
                SpanKind::Operator(")") => {
                    depth -= 1;
                    if depth == 0 {
                        scratch.arg_spans.push((arg_start, tokens[j].start));
                        closed = true;
                        break;
                    }
                }
                SpanKind::Operator(",") if depth == 1 => {
                    scratch.arg_spans.push((arg_start, tokens[j].start));
                    arg_start = tokens[j].end;
                }
                _ => {}
            }
            j += 1;
        }
        if closed {
            for &(s, e) in &scratch.arg_spans {
                let text = source[s..e].trim();
                if !text.is_empty() {
                    sum += text.chars().count() as f64;
                    count += 1;
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    (sum, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_derived_matches_views() {
        let src = "Sub A()\r\n'c\r\nx = Chr(65) & \"s\"\r\nShell p, 1\r\nExit Sub\r\nEnd Sub\r\n\
                   Declare Function F Lib \"k\" ()\r\n";
        let a = MacroAnalysis::new(src);
        let d = token_derived(&a);
        assert_eq!(d.call_count, a.call_sites().len());
        assert_eq!(d.string_ops, a.string_operator_count());
        let bodies = a.procedure_body_spans();
        assert_eq!(d.body_count, bodies.len());
        let expect: f64 = bodies
            .iter()
            .map(|&(s, e)| src[s..e].chars().count() as f64)
            .sum();
        assert_eq!(d.body_chars.to_bits(), expect.to_bits());
    }
}
