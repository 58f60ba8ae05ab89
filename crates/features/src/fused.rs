//! The one token-slice pass the extractors make: J9's argument lengths.
//!
//! Everything else the extractors read is counted during the lexer's
//! single pass: the per-character statistics
//! ([`SourceStats`](vbadet_vba::SourceStats)), the distinct-identifier
//! lane, and the call-site, string-operator and procedure-body machine
//! ([`TokenCounts`](vbadet_vba::TokenCounts)). J9 needs the spans between
//! a call's parentheses, which only the full mode's token slice holds, so
//! it walks that slice of a [`MacroAnalysis`] — never the source text —
//! and writes into a reusable [`PassScratch`], so steady-state extraction
//! allocates nothing. The argument lengths are summed in the exact order
//! the historical extractor iterated them, keeping J9 bit-identical to the
//! reference implementation (see `crate::reference`).

use vbadet_vba::{MacroAnalysis, SpanKind};

/// Reusable buffers for the J9 token pass (cleared per document, capacity
/// retained).
#[derive(Debug, Default)]
pub struct PassScratch {
    arg_spans: Vec<(usize, usize)>,
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
