//! The historical multi-pass feature extractors, kept verbatim as the
//! bit-equivalence oracle for the fused hot path.
//!
//! These walk the source text repeatedly (per-feature `chars()` passes,
//! owned intermediate vectors) exactly as the pre-fusion implementation
//! did; equivalence tests assert that `crate::jset`/`crate::vset` produce
//! the same `f64` bit patterns. Compiled only for tests and under the
//! `reference` feature — never in production builds.

use crate::entropy::shannon_entropy;
use crate::jset::J_DIM;
use crate::vset::V_DIM;
use crate::{mean, variance};
use vbadet_vba::{FunctionCategory, MacroAnalysis, SpanKind};

/// Reference J1–J20 extraction (historical implementation).
pub fn j_features(source: &str) -> [f64; J_DIM] {
    j_features_from(&MacroAnalysis::new(source))
}

/// Reference J1–J20 extraction from an existing analysis.
pub fn j_features_from(analysis: &MacroAnalysis) -> [f64; J_DIM] {
    let source = analysis.source();
    let total_chars = source.chars().count() as f64;
    let lines = analysis.lines();
    let line_count = lines.len() as f64;

    let j1 = total_chars;
    let j2 = if line_count == 0.0 {
        0.0
    } else {
        total_chars / line_count
    };
    let j3 = line_count;

    let strings = analysis.strings();
    let j4 = strings.len() as f64;

    let words = analysis.words();
    let comment_words = analysis.comment_words();
    let all_word_count = (words.len() + comment_words.len()) as f64;
    let readable = words
        .iter()
        .chain(comment_words.iter())
        .filter(|w| is_human_readable(w))
        .count() as f64;
    let j5 = if all_word_count == 0.0 {
        0.0
    } else {
        readable / all_word_count
    };

    let whitespace = source.chars().filter(|c| c.is_whitespace()).count() as f64;
    let j6 = if total_chars == 0.0 {
        0.0
    } else {
        whitespace / total_chars
    };

    let calls = analysis.call_sites();
    let j7 = if all_word_count == 0.0 {
        0.0
    } else {
        calls.len() as f64 / all_word_count
    };

    let j8 = mean(strings.iter().map(|s| s.chars().count() as f64));
    let j9 = mean(argument_lengths(analysis).into_iter());

    let comments = analysis.comments();
    let j10 = comments.len() as f64;
    let j11 = if line_count == 0.0 {
        0.0
    } else {
        j10 / line_count
    };

    let j12 = all_word_count;
    let j13 = if all_word_count == 0.0 {
        0.0
    } else {
        words.len() as f64 / all_word_count
    };

    let long_lines = lines.iter().filter(|l| l.chars().count() > 150).count() as f64;
    let j14 = if line_count == 0.0 {
        0.0
    } else {
        long_lines / line_count
    };

    let j15 = shannon_entropy(source);
    let j16 = if total_chars == 0.0 {
        0.0
    } else {
        analysis.string_chars() as f64 / total_chars
    };

    let backslashes = source.chars().filter(|&c| c == '\\').count() as f64;
    let j17 = if total_chars == 0.0 {
        0.0
    } else {
        backslashes / total_chars
    };

    let bodies = analysis.procedure_body_spans();
    let body_chars: f64 = bodies
        .iter()
        .map(|&(s, e)| source[s..e].chars().count() as f64)
        .sum();
    let j18 = if bodies.is_empty() {
        0.0
    } else {
        body_chars / bodies.len() as f64
    };
    let j19 = if total_chars == 0.0 {
        0.0
    } else {
        body_chars / total_chars
    };
    let j20 = if total_chars == 0.0 {
        0.0
    } else {
        bodies.len() as f64 / total_chars
    };

    [
        j1, j2, j3, j4, j5, j6, j7, j8, j9, j10, j11, j12, j13, j14, j15, j16, j17, j18, j19, j20,
    ]
}

/// Reference V1–V15 extraction (historical implementation).
pub fn v_features(source: &str) -> [f64; V_DIM] {
    v_features_from(&MacroAnalysis::new(source))
}

/// Reference V1–V15 extraction from an existing analysis.
pub fn v_features_from(analysis: &MacroAnalysis) -> [f64; V_DIM] {
    let code_chars = analysis.code_chars() as f64;
    let comment_chars = analysis.comment_chars() as f64;

    let word_lengths: Vec<f64> = analysis
        .words()
        .iter()
        .map(|w| w.chars().count() as f64)
        .collect();
    let v3 = mean(word_lengths.iter().copied());
    let v4 = variance(&word_lengths);

    let v5 = analysis.string_operator_count() as f64 / code_chars.max(1.0);

    let total_chars = analysis.source().chars().count() as f64;
    let v6 = if total_chars == 0.0 {
        0.0
    } else {
        analysis.string_chars() as f64 / total_chars
    };
    let v7 = mean(analysis.strings().iter().map(|s| s.chars().count() as f64));

    let calls = analysis.call_sites();
    let total_calls = calls.len() as f64;
    let mut category_counts = [0.0f64; 5];
    for call in &calls {
        if let Some(cat) = vbadet_vba::functions::categorize(call) {
            let idx = match cat {
                FunctionCategory::Text => 0,
                FunctionCategory::Arithmetic => 1,
                FunctionCategory::TypeConversion => 2,
                FunctionCategory::Financial => 3,
                FunctionCategory::Rich => 4,
            };
            category_counts[idx] += 1.0;
        }
    }
    let ratio = |n: f64| {
        if total_calls == 0.0 {
            0.0
        } else {
            n / total_calls
        }
    };

    let v13 = shannon_entropy(analysis.source());

    let ident_lengths: Vec<f64> = analysis
        .identifiers()
        .iter()
        .map(|i| i.chars().count() as f64)
        .collect();
    let v14 = mean(ident_lengths.iter().copied());
    let v15 = variance(&ident_lengths);

    [
        code_chars,
        comment_chars,
        v3,
        v4,
        v5,
        v6,
        v7,
        ratio(category_counts[0]),
        ratio(category_counts[1]),
        ratio(category_counts[2]),
        ratio(category_counts[3]),
        ratio(category_counts[4]),
        v13,
        v14,
        v15,
    ]
}

/// A word "reads like language": alphabetic, bounded length, contains a
/// vowel, and has no long consonant run (Likarish et al.'s human-readable
/// property, operationalized).
fn is_human_readable(word: &str) -> bool {
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

/// Character lengths of call arguments: for each call-site `name(…)`, the
/// top-level comma-separated argument spans.
fn argument_lengths(analysis: &MacroAnalysis) -> Vec<f64> {
    let tokens = analysis.tokens();
    let source = analysis.source();
    let mut out = Vec::new();
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
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut closed = false;
        while j < tokens.len() {
            match tokens[j].kind {
                SpanKind::Operator("(") => depth += 1,
                SpanKind::Operator(")") => {
                    depth -= 1;
                    if depth == 0 {
                        spans.push((arg_start, tokens[j].start));
                        closed = true;
                        break;
                    }
                }
                SpanKind::Operator(",") if depth == 1 => {
                    spans.push((arg_start, tokens[j].start));
                    arg_start = tokens[j].end;
                }
                _ => {}
            }
            j += 1;
        }
        if closed {
            for (s, e) in spans {
                let text = source[s..e].trim();
                if !text.is_empty() {
                    out.push(text.chars().count() as f64);
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_readable_heuristic() {
        for w in ["hello", "Program", "counter", "open"] {
            assert!(is_human_readable(w), "{w}");
        }
        for w in ["xqzptvk", "ueiwjfdjkfdsv", "a", "x1b2", "abcdefghijklmnop"] {
            assert!(!is_human_readable(w), "{w}");
        }
    }
}
