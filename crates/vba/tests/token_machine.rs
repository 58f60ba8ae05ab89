//! The token machine the lexer runs inline equals the token-slice views
//! it replaced: call count, per-category counts (as `f64` bit patterns),
//! string-operator count and procedure bodies, over the shared bases,
//! the word-table cases and the 600 seeded mutants of the root feature
//! tests. The V-mode pass (`LexScratch::lex_counts`) reports the same
//! call, category, operator and string counts as the full mode.

#[allow(dead_code)]
#[path = "../../../tests/common/mod.rs"]
mod common;

use common::{mutate, BASES, WORD_CASES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vbadet_vba::{words, LexScratch, MacroAnalysis};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_machine_matches_views(src: &str, lex: &mut LexScratch) {
    let a = MacroAnalysis::new(src);
    let c = a.counts();

    let calls = a.call_sites();
    assert_eq!(c.call_count, calls.len(), "call count on {src:?}");
    let mut cats = [0.0f64; 5];
    for name in &calls {
        if let Some(i) = words::classify(name).category_index() {
            cats[i] += 1.0;
        }
    }
    assert_eq!(bits(&c.cat_counts), bits(&cats), "categories on {src:?}");
    assert_eq!(
        c.string_ops,
        a.string_operator_count(),
        "string operators on {src:?}"
    );

    let bodies = a.procedure_body_spans();
    assert_eq!(c.body_count, bodies.len(), "body count on {src:?}");
    let body_chars: f64 = bodies
        .iter()
        .map(|&(s, e)| src[s..e].chars().count() as f64)
        .sum();
    assert_eq!(
        c.body_chars.to_bits(),
        body_chars.to_bits(),
        "body chars on {src:?}"
    );

    let (stats, v, strings) = lex.lex_counts(src);
    assert_eq!(strings, a.string_count(), "string count on {src:?}");
    assert_eq!(
        (v.call_count, bits(&v.cat_counts), v.string_ops),
        (c.call_count, bits(&c.cat_counts), c.string_ops),
        "V-mode counts on {src:?}"
    );
    let full = a.stats();
    assert_eq!(
        (
            stats.char_len,
            stats.comment_span_chars,
            stats.comment_body_chars
        ),
        (
            full.char_len,
            full.comment_span_chars,
            full.comment_body_chars
        ),
        "V-mode character counts on {src:?}"
    );
    assert_eq!(
        (stats.string_chars, stats.string_len_sum.to_bits()),
        (full.string_chars, full.string_len_sum.to_bits()),
        "V-mode string lengths on {src:?}"
    );
    assert_eq!(stats.word_lengths, full.word_lengths, "words on {src:?}");
    assert_eq!(stats.ident_lengths, full.ident_lengths, "idents on {src:?}");
    assert!(
        stats.char_counts().eq(full.char_counts()),
        "histogram on {src:?}"
    );
}

#[test]
fn inline_machine_matches_the_views() {
    // Procedure bodies around a comment, a statement-position built-in,
    // `Exit Sub` and a `Declare Function` prototype.
    let bodies = "Sub A()\r\n'c\r\nx = Chr(65) & \"s\"\r\nShell p, 1\r\nExit Sub\r\nEnd Sub\r\n\
                  Declare Function F Lib \"k\" ()\r\n";
    let mut lex = LexScratch::default();
    for src in BASES.iter().chain(WORD_CASES).chain([&bodies]) {
        assert_machine_matches_views(src, &mut lex);
    }
    let mut rng = StdRng::seed_from_u64(0xFEA7);
    for _ in 0..600 {
        assert_machine_matches_views(&mutate(&mut rng), &mut lex);
    }
}
