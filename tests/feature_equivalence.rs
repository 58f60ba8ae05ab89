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
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vbadet_features::{reference, FeatureScratch, FeatureSet};

mod common;
use common::BASES;

/// Word-table cases: type suffixes, mixed case, `Randomize` (a keyword
/// that is also an arithmetic built-in), declaration keywords, and
/// non-ASCII lookalikes (U+017F long s, U+212A Kelvin sign) that ASCII
/// folding must not match. Checked after the bases and before the
/// mutants, so the seeded mutant stream is unchanged.
const WORD_CASES: &[&str] = &[
    "x = CHR$(65) & cHr(66) & Chr$$(67) & hex%(1)\r\n",
    "sHeLl \"x\", 1\r\nSHELL$ \"y\"\r\n",
    "Randomize\r\nrandomize 5\r\nx = RANDOMIZE(3) + Rnd\r\n",
    "Declare Function URLDownloadToFileA Lib \"urlmon\" ()\r\nPrivate Declare Sub Sleep Lib \"k\" ()\r\n",
    "\u{17f}hell(1)\r\n\u{212a}ill \"f\"\r\nKill \"f\"\r\n",
    "Dim Shell As Long\r\nConst Chr = 1\r\nFunction Mid(a)\r\nEnd Function\r\nSub x: End Sub\r\n",
    "END SUB\r\nExit Function\r\nPROPERTY Get Val()\r\nEnd Property\r\nREM x\r\n",
];

/// Snippets spliced into mutants to provoke state-machine boundaries.
const HOSTILE: &[&str] = &[
    "\"", "'", "\r", "\n", "\r\n", " _\r\n", "_", "Rem ", "rem", "&H", "&", "\"\"", "E+", "#",
    "Sub ", "End Sub", "Function", "Declare ", "Exit ", "(", ")", ",", "\t", "\u{0}", "\u{e9}",
    "\u{2028}", "0", ".5", "=",
];

fn mutate(rng: &mut StdRng) -> String {
    let mut s = String::from(*BASES.choose(rng).unwrap());
    for _ in 0..rng.gen_range(1..6) {
        // Any char boundary, including the very end.
        let boundaries: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
        let at = *boundaries.choose(rng).unwrap();
        match rng.gen_range(0..4u32) {
            0 => s.insert_str(at, HOSTILE.choose(rng).unwrap()),
            1 => s.truncate(at),
            2 => {
                let other = *BASES.choose(rng).unwrap();
                let cut: Vec<usize> = other
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([other.len()])
                    .collect();
                let from = *cut.choose(rng).unwrap();
                s.insert_str(at, &other[from..]);
            }
            _ => {
                let tail: String = s[at..].chars().take(7).collect();
                s.insert_str(at, &tail);
            }
        }
    }
    s
}

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

#[test]
fn fused_extractors_match_reference_on_hostile_mutants() {
    let mut rng = StdRng::seed_from_u64(0xFEA7);
    let mut scratch = FeatureScratch::default();
    for base in BASES.iter().chain(WORD_CASES) {
        assert_bit_identical(base, &mut scratch);
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
