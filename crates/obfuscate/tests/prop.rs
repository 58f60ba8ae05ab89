//! Property-based tests for the obfuscation transforms: semantic
//! preservation (string recovery), structural invariants, and totality.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vbadet_obfuscate::{recover, Obfuscator, Technique};

/// A printable string literal value without quotes or backslash tangles.
fn arb_literal() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 ._/:-]{4,40}"
}

fn module_with_strings(values: &[String]) -> String {
    let mut body = String::new();
    for (i, v) in values.iter().enumerate() {
        body.push_str(&format!("    s{i} = \"{v}\"\r\n"));
    }
    format!("Sub Document_Open()\r\n{body}End Sub\r\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// O2: every original string value is recoverable from the split form.
    #[test]
    fn split_preserves_values(values in proptest::collection::vec(arb_literal(), 1..6), seed in any::<u64>()) {
        let src = module_with_strings(&values);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = vbadet_obfuscate::split::apply(&src, &mut rng);
        let recovered = recover::recover_strings(&out);
        for v in &values {
            prop_assert!(recovered.iter().any(|r| r == v), "{v:?} lost in {out}");
        }
    }

    /// O3: same for encoding, across all schemes.
    #[test]
    fn encoding_preserves_values(values in proptest::collection::vec(arb_literal(), 1..6), seed in any::<u64>()) {
        let src = module_with_strings(&values);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = vbadet_obfuscate::encoding::apply(&src, &mut rng);
        let recovered = recover::recover_strings(&out);
        for v in &values {
            prop_assert!(recovered.iter().any(|r| r == v), "{v:?} lost in {out}");
        }
    }

    /// O1: non-identifier tokens are untouched; renames are consistent.
    #[test]
    fn rename_preserves_non_identifiers(values in proptest::collection::vec(arb_literal(), 1..4), seed in any::<u64>()) {
        let src = module_with_strings(&values);
        let mut rng = StdRng::seed_from_u64(seed);
        let (out, _) = vbadet_obfuscate::random::apply(&src, &mut rng);
        // Strings and keywords unchanged.
        let before = vbadet_vba::MacroAnalysis::new(&src);
        let after = vbadet_vba::MacroAnalysis::new(&out);
        prop_assert_eq!(before.strings(), after.strings());
        prop_assert_eq!(
            before.tokens().iter().filter(|t| matches!(t.kind, vbadet_vba::SpanKind::Keyword(_))).count(),
            after.tokens().iter().filter(|t| matches!(t.kind, vbadet_vba::SpanKind::Keyword(_))).count()
        );
        // Entry point survives.
        prop_assert!(out.contains("Document_Open"));
    }

    /// O4: all original statements survive; procedures stay balanced.
    #[test]
    fn logic_preserves_original_statements(
        values in proptest::collection::vec(arb_literal(), 1..4),
        intensity in 1usize..60,
        seed in any::<u64>(),
    ) {
        let src = module_with_strings(&values);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = vbadet_obfuscate::logic::apply(
            &src,
            vbadet_obfuscate::logic::Intensity(intensity),
            &mut rng,
        );
        for (i, v) in values.iter().enumerate() {
            let statement = format!("s{i} = \"{v}\"");
            prop_assert!(out.contains(&statement));
        }
        // Grown, and structurally balanced: the dummy code never contains
        // the `Sub` keyword, so each procedure contributes exactly two
        // (`Sub …` + `End Sub`).
        prop_assert!(out.len() > src.len());
        let analysis = vbadet_vba::MacroAnalysis::new(&out);
        let sub_keywords = analysis
            .tokens()
            .iter()
            .filter(|t| {
                matches!(t.kind, vbadet_vba::SpanKind::Keyword(_))
                    && out[t.start..t.end].eq_ignore_ascii_case("sub")
            })
            .count();
        prop_assert_eq!(sub_keywords % 2, 0, "unbalanced Sub keywords in {}", out);
        prop_assert_eq!(analysis.procedure_body_spans().len(), sub_keywords / 2);
    }

    /// The full pipeline is deterministic in the seed and total on
    /// printable input.
    #[test]
    fn pipeline_deterministic(src in "[ -~\r\n]{0,600}", seed in any::<u64>()) {
        let pipeline = Obfuscator::new()
            .with(Technique::Split)
            .with(Technique::Encoding)
            .with(Technique::LogicWithIntensity(4))
            .with(Technique::Random);
        let a = pipeline.apply(&src, &mut StdRng::seed_from_u64(seed)).source;
        let b = pipeline.apply(&src, &mut StdRng::seed_from_u64(seed)).source;
        prop_assert_eq!(a, b);
    }

    /// recover_strings is total on arbitrary text.
    #[test]
    fn recover_total(src in "\\PC{0,1500}") {
        let _ = recover::recover_strings(&src);
    }
}
