//! Golden fixture for feature extraction: the V1–V15 and J1–J20 vectors,
//! pinned bit for bit, and the token stream, pinned by digest.
//!
//! `tests/fixtures/features.txt` holds one line per source: the `f64` bit
//! patterns of the V and J vectors in hex, and the SHA-256 of the
//! `tokenize` output's debug form. The sources are the shared bases, the
//! word-table cases, the 600 seeded mutants of `feature_equivalence.rs`
//! (same seed and order), and every macro of the paper corpus at scale
//! 0.05. All go through one `FeatureScratch`, as on the scan path. Each
//! V vector must also come out the same through `v_features` (the V-mode
//! lex pass) and `v_features_from` over a full `MacroAnalysis`, and each
//! J vector through `j_features`. A lexer or extractor rewrite must
//! reproduce every line.
//!
//! After them come the `predict_proba` bit patterns of the committed
//! forest (`fixtures/rf_forest.txt`) on 500 seeded two-feature probes,
//! one in ten of each coordinate NaN, +inf or -inf: the same probes the
//! flattened-versus-tree-walk check in `feature_equivalence.rs` draws.
//!
//! The test only compares. To print the fixture (after a deliberate,
//! reviewed change of outputs):
//!
//! ```sh
//! cargo test -q --offline --test feature_fixture -- --ignored --nocapture print_fixture \
//!     | grep -E '^(base|word|mutant|corpus|forest) ' > tests/fixtures/features.txt
//! ```

mod common;

use common::{mutate, BASES, WORD_CASES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbadet::scan::cache::sha256;
use vbadet_features::{j_features, v_features, v_features_from, FeatureScratch, FeatureSet};
use vbadet_vba::MacroAnalysis;

const FIXTURE: &str = include_str!("fixtures/features.txt");

fn bits(values: &[f64]) -> String {
    let words: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    words.join(",")
}

fn line(label: String, src: &str, scratch: &mut FeatureScratch) -> String {
    let v = bits(scratch.extract(FeatureSet::V, src));
    let j = bits(scratch.extract(FeatureSet::J, src));
    assert_eq!(bits(&v_features(src)), v, "{label}: v_features");
    let analysis = MacroAnalysis::new(src);
    assert_eq!(
        bits(&v_features_from(&analysis)),
        v,
        "{label}: v_features_from"
    );
    assert_eq!(bits(&j_features(src)), j, "{label}: j_features");
    let tokens = format!("{:?}", vbadet_vba::tokenize(src));
    let digest: String = sha256(tokens.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("{label} v={v} j={j} tok={digest}")
}

fn fixture_lines() -> Vec<String> {
    let mut scratch = FeatureScratch::default();
    let mut lines = Vec::new();
    for (i, src) in BASES.iter().enumerate() {
        lines.push(line(format!("base {i}"), src, &mut scratch));
    }
    for (i, src) in WORD_CASES.iter().enumerate() {
        lines.push(line(format!("word {i}"), src, &mut scratch));
    }
    let mut rng = StdRng::seed_from_u64(0xFEA7);
    for i in 0..600 {
        let src = mutate(&mut rng);
        lines.push(line(format!("mutant {i}"), &src, &mut scratch));
    }
    let spec = vbadet_corpus::CorpusSpec::paper().scaled(0.05);
    for (i, m) in vbadet_corpus::generate_macros(&spec).iter().enumerate() {
        lines.push(line(format!("corpus {i}"), &m.source, &mut scratch));
    }
    let rf = vbadet_ml::RandomForest::from_text(include_str!("fixtures/rf_forest.txt"))
        .expect("forest fixture parses");
    let mut rng = StdRng::seed_from_u64(77);
    for i in 0..500 {
        let x: Vec<f64> = (0..2)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_range(-10.0..10.0),
            })
            .collect();
        lines.push(format!(
            "forest {i} x={} p={}",
            bits(&x),
            bits(&[rf.predict_proba(&x)])
        ));
    }
    lines
}

#[test]
fn feature_outputs_match_the_golden_fixture() {
    let want: Vec<&str> = FIXTURE.lines().collect();
    let got = fixture_lines();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "fixture line {} differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "fixture line count differs");
}

#[test]
#[ignore = "prints the fixture; run by hand after a reviewed output change"]
fn print_fixture() {
    for line in fixture_lines() {
        println!("{line}");
    }
}
