//! Bit-equivalence proof for the allocation-free scoring hot path.
//!
//! The fused single-pass extractors ([`vbadet_features::FeatureScratch`])
//! and the span lexer must produce *bit-identical* `f64` vectors and
//! token streams to the historical multi-pass reference implementations
//! (kept behind the `reference` feature) — on the synthetic corpus, and
//! on hundreds of seeded hostile mutants designed to hit lexer edge
//! cases: unterminated strings and comments, line continuations, `Rem`
//! fused with digits, `&H` literals, non-ASCII identifiers, and CR/LF
//! soup. Likewise the flattened struct-of-arrays forest must reproduce
//! the per-node tree walk exactly, including on the committed fixture.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbadet_features::{reference, FeatureScratch, FeatureSet};
use vbadet_vba::{LexScratch, MacroAnalysis};

mod common;
use common::{mutate, BASES, WORD_CASES};

fn assert_bit_identical(src: &str, scratch: &mut FeatureScratch) {
    let v_ref = reference::v_features(src);
    let v_fused = scratch.extract(FeatureSet::V, src).to_vec();
    for (i, (a, b)) in v_fused.iter().zip(v_ref.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "V{} diverged on {src:?}: fused {a} vs reference {b}",
            i + 1
        );
    }
    let j_ref = reference::j_features(src);
    let j_fused = scratch.extract(FeatureSet::J, src).to_vec();
    for (i, (a, b)) in j_fused.iter().zip(j_ref.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "J{} diverged on {src:?}: fused {a} vs reference {b}",
            i + 1
        );
    }
    // The owned token stream the compat layer exposes is also unchanged.
    assert_eq!(
        vbadet_vba::tokenize(src),
        vbadet_vba::reference_tokenize(src),
        "token stream diverged on {src:?}"
    );
}

/// Identifier-set cases for V14/V15, in order through one scratch: a
/// module whose distinct names outgrow the set's first table mid-module;
/// 20,000 distinct names of one length sharing their first and last eight
/// bytes (each also repeated in another case); ASCII-case and non-ASCII
/// variants; then small modules after the big ones.
fn ident_cases() -> Vec<String> {
    let grows: String = (0..1000)
        .map(|i| format!("Dim v{i}\r\nv{i} = V{i} + w{}\r\n", i % 7))
        .collect();
    let shared: String = (0..20_000)
        .map(|i| format!("abcdefgh{i:05}ijklmnop = ABCDEFGH{i:05}IJKLMNOP + 1\r\n"))
        .collect();
    let cases = "Dim Alpha\r\nALPHA = alpha$ + alpha + Alpha$ + caf\u{e9} + CAF\u{e9} + caf\u{c9}\r\n\
                 \u{17f}hell = Shell(\u{212a}ill) + \u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}x\r\n";
    vec![
        grows,
        shared,
        cases.to_string(),
        "x = 1".to_string(),
        String::new(),
        "Sub A()\r\ny = Y + y$\r\nEnd Sub\r\n".to_string(),
    ]
}

/// The lexer's distinct-identifier lane equals the lengths of the
/// `identifiers()` view.
fn assert_ident_lane(src: &str, lex: &mut LexScratch) {
    let a = MacroAnalysis::with_scratch(src, lex);
    let want: Vec<f64> = a
        .identifiers()
        .iter()
        .map(|name| name.chars().count() as f64)
        .collect();
    assert_eq!(
        a.stats().ident_lengths,
        want,
        "identifier lane of {src:.80?}"
    );
    a.recycle(lex);
}

#[test]
fn fused_extractors_match_reference_on_hostile_mutants() {
    let mut rng = StdRng::seed_from_u64(0xFEA7);
    let mut scratch = FeatureScratch::default();
    for base in BASES.iter().chain(WORD_CASES) {
        assert_bit_identical(base, &mut scratch);
    }
    let mut lex = LexScratch::default();
    for src in ident_cases() {
        assert_bit_identical(&src, &mut scratch);
        assert_ident_lane(&src, &mut lex);
    }
    // One scratch across all mutants: proves buffer reuse cannot leak
    // state from one document into the next.
    for _ in 0..600 {
        let src = mutate(&mut rng);
        assert_bit_identical(&src, &mut scratch);
    }
}

#[test]
fn fused_extractors_match_reference_on_the_corpus() {
    let spec = vbadet_corpus::CorpusSpec::paper().scaled(0.05);
    let macros = vbadet_corpus::generate_macros(&spec);
    assert!(macros.len() > 100, "corpus draw too small to be probative");
    let mut scratch = FeatureScratch::default();
    for m in &macros {
        assert_bit_identical(&m.source, &mut scratch);
    }
}

#[test]
fn flattened_forest_matches_tree_walk_on_committed_fixture() {
    let text = include_str!("fixtures/rf_forest.txt");
    let rf = vbadet_ml::RandomForest::from_text(text).expect("fixture parses");
    let mut rng = StdRng::seed_from_u64(77);
    for case in 0..500 {
        let x: Vec<f64> = (0..2)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_range(-10.0..10.0),
            })
            .collect();
        assert_eq!(
            rf.predict_proba(&x).to_bits(),
            rf.predict_proba_reference(&x).to_bits(),
            "case {case}: {x:?}"
        );
    }
}

#[test]
fn scratch_scoring_matches_plain_scoring_through_the_detector() {
    use vbadet::{Detector, DetectorConfig, ScoreScratch};
    let spec = vbadet_corpus::CorpusSpec::paper().scaled(0.02);
    let detector = Detector::train_on_corpus(&DetectorConfig::default(), &spec);
    let mut rng = StdRng::seed_from_u64(0x5C0);
    let mut scratch = ScoreScratch::default();
    for _ in 0..100 {
        let src = mutate(&mut rng);
        let fast = detector.score_with(&mut scratch, &src);
        let slow = detector.score(&src);
        assert_eq!(fast.score.to_bits(), slow.score.to_bits(), "{src:?}");
        assert_eq!(fast.obfuscated, slow.obfuscated);
    }
}
