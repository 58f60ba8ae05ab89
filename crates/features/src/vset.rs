//! The proposed feature set V1–V15 (paper Table IV).
//!
//! | Feature | Description | Targets |
//! |---------|-------------|---------|
//! | V1 | # of chars in code except comments | O4 |
//! | V2 | # of chars in comments | O4 |
//! | V3 | avg. length of words | O4 |
//! | V4 | var. length of words | O4 |
//! | V5 | appearance frequency of string operators | O2 |
//! | V6 | % of chars belonging to string | O2 |
//! | V7 | avg. length of strings in code | O2 |
//! | V8 | % of text functions called | O3 |
//! | V9 | % of arithmetic functions called | O3 |
//! | V10 | % of type conversion functions called | O3 |
//! | V11 | % of financial functions called | O3 |
//! | V12 | % of functions with rich functionality called | — |
//! | V13 | Shannon entropy of the file | O1 |
//! | V14 | avg. length of identifiers | O1 |
//! | V15 | var. length of identifiers | O1 |
//!
//! One function, [`v_vector`], computes V1–V15 from what a lex pass
//! counted: the [`SourceStats`], the token machine's [`TokenCounts`] and
//! the number of string literals. Both lexer modes feed it.
//! [`v_features`] and the scan path ([`crate::FeatureScratch`]) run the V
//! mode ([`LexScratch::lex_counts`]), which builds no token vector and
//! runs no J-only machine; [`v_features_from`] reads a full
//! [`MacroAnalysis`]. V reads none of the `SourceStats` fields that only
//! the full mode fills, so the two agree bit for bit, and
//! `crate::reference` holds the historical implementation as the
//! bit-equivalence oracle. V3/V4 read the code-word lengths and V14/V15
//! the distinct-identifier lengths that the lexer recorded, each word
//! hashed once.

use crate::entropy::entropy_from_counts;
use crate::{mean, variance};
use vbadet_vba::{LexScratch, MacroAnalysis, SourceStats, TokenCounts};

/// Number of V features.
pub const V_DIM: usize = 15;

/// Feature names, index-aligned with the vector.
pub const V_NAMES: [&str; V_DIM] = [
    "V1 # of chars in code except comments",
    "V2 # of chars in comments",
    "V3 avg. length of words",
    "V4 var. length of words",
    "V5 appearance frequency of string operators",
    "V6 % of chars belonging to string",
    "V7 avg. length of strings in code",
    "V8 % of text functions called",
    "V9 % of arithmetic functions called",
    "V10 % of type conversion functions called",
    "V11 % of financial functions called",
    "V12 % of functions with rich functionality called",
    "V13 shannon entropy of the file",
    "V14 avg. length of identifiers",
    "V15 var. length of identifiers",
];

/// Extracts V1–V15 from macro source code, in one V-mode lex pass.
pub fn v_features(source: &str) -> [f64; V_DIM] {
    let mut lex = LexScratch::default();
    let (stats, counts, strings) = lex.lex_counts(source);
    v_vector(stats, &counts, strings)
}

/// Extracts V1–V15 from an existing lexical analysis (avoids re-tokenizing
/// when multiple feature sets are extracted from the same macro).
pub fn v_features_from(analysis: &MacroAnalysis) -> [f64; V_DIM] {
    v_vector(analysis.stats(), analysis.counts(), analysis.string_count())
}

/// V1–V15 from one lex pass's statistics, token-machine counts and
/// number of string literals.
pub(crate) fn v_vector(
    stats: &SourceStats,
    counts: &TokenCounts,
    string_count: usize,
) -> [f64; V_DIM] {
    let code_chars = stats.char_len.saturating_sub(stats.comment_span_chars) as f64;
    let comment_chars = stats.comment_body_chars as f64;

    let v3 = mean(stats.word_lengths.iter().copied());
    let v4 = variance(&stats.word_lengths);

    // V5 is normalized by V1 per §IV.C.4 ("we use V1 as the normalization
    // unit"): raw operator counts would just re-measure code size.
    let v5 = counts.string_ops as f64 / code_chars.max(1.0);

    let total_chars = stats.char_len as f64;
    let v6 = if total_chars == 0.0 {
        0.0
    } else {
        stats.string_chars as f64 / total_chars
    };
    // V7: same sequential token-order sum as J8.
    let v7 = if string_count == 0 {
        0.0
    } else {
        stats.string_len_sum / string_count as f64
    };

    let total_calls = counts.call_count as f64;
    let ratio = |n: f64| {
        if total_calls == 0.0 {
            0.0
        } else {
            n / total_calls
        }
    };

    let v13 = entropy_from_counts(stats.char_counts(), stats.char_len);

    // V14/V15: the lexer's distinct-identifier lane.
    let v14 = mean(stats.ident_lengths.iter().copied());
    let v15 = variance(&stats.ident_lengths);

    [
        code_chars,
        comment_chars,
        v3,
        v4,
        v5,
        v6,
        v7,
        ratio(counts.cat_counts[0]),
        ratio(counts.cat_counts[1]),
        ratio(counts.cat_counts[2]),
        ratio(counts.cat_counts[3]),
        ratio(counts.cat_counts[4]),
        v13,
        v14,
        v15,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: &str = "Sub StartCalculator()\r\n\
        Dim Program As String\r\n\
        Dim TaskID As Double\r\n\
        On Error Resume Next\r\n\
        Program = \"calc.exe\"\r\n\
        'Run calculator program using Shell()\r\n\
        TaskID = Shell(Program, 1)\r\n\
        End Sub\r\n";

    #[test]
    fn vector_shape_and_names() {
        let v = v_features(PLAIN);
        assert_eq!(v.len(), V_DIM);
        assert_eq!(V_NAMES.len(), V_DIM);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_source_is_all_zero() {
        let v = v_features("");
        assert!(v.iter().all(|&x| x == 0.0), "{v:?}");
    }

    #[test]
    fn v1_v2_partition_chars() {
        let v = v_features(PLAIN);
        assert!(v[0] > 0.0, "code chars");
        assert!(v[1] > 0.0, "comment chars");
        // Comment body is shorter than code.
        assert!(v[0] > v[1]);
    }

    #[test]
    fn v5_counts_string_operators_normalized() {
        let few = v_features("Sub A()\r\nx = \"abcdefgh\"\r\nEnd Sub\r\n");
        let many = v_features(
            "Sub A()\r\nx = \"a\" & \"b\" & \"c\" & \"d\" & \"e\" & \"f\" & \"g\" & \"h\"\r\nEnd Sub\r\n",
        );
        assert!(many[4] > few[4], "split obfuscation must raise V5");
    }

    #[test]
    fn v8_rises_with_text_function_calls() {
        let v = v_features("x = Chr(65) & Mid(s, 1, 2) & Replace(a, b, c)");
        assert!(v[7] > 0.9, "all calls are text functions: {}", v[7]);
        let none = v_features("x = MyFunc(1)");
        assert_eq!(none[7], 0.0);
    }

    #[test]
    fn v11_detects_financial_functions() {
        let v = v_features("r = Pmt(0.05, 12, 1000) + FV(0.05, 12, 100)");
        assert!(v[10] > 0.9);
    }

    #[test]
    fn v12_detects_rich_functions() {
        let v = v_features("Shell \"calc\", 1\r\nSet o = CreateObject(\"X\")\r\n");
        assert!(v[11] > 0.9);
    }

    #[test]
    fn v13_rises_under_random_identifiers() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (obf, _) = vbadet_obfuscate_shim::random_apply(PLAIN, &mut rng);
        let plain_v = v_features(PLAIN);
        let obf_v = v_features(&obf);
        assert!(obf_v[12] > plain_v[12], "entropy must rise under O1");
        assert!(
            obf_v[13] > plain_v[13],
            "identifier length must rise under O1"
        );
    }

    /// Minimal reimplementation of O1 for this test (the real one lives in
    /// `vbadet-obfuscate`, which depends on this crate's sibling; avoiding a
    /// dev-dependency cycle).
    mod vbadet_obfuscate_shim {
        use rand::Rng;

        pub fn random_apply<R: Rng>(source: &str, rng: &mut R) -> (String, ()) {
            let mut out = source.to_string();
            for name in ["StartCalculator", "Program", "TaskID"] {
                let repl: String = (0..14)
                    .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                    .collect();
                out = out.replace(name, &repl);
            }
            (out, ())
        }
    }

    #[test]
    fn v14_v15_track_identifier_lengths() {
        let uniform = v_features("Dim ab\r\nDim cd\r\nDim ef\r\n");
        assert!((uniform[13] - 2.0).abs() < 1e-9);
        assert_eq!(uniform[14], 0.0);
        let varied = v_features("Dim a\r\nDim abcdefghijklmn\r\n");
        assert!(varied[14] > 0.0);
    }

    #[test]
    fn v6_v7_track_strings() {
        let v = v_features("x = \"aaaaaaaaaaaaaaaaaaaaaaaa\"");
        assert!(v[5] > 0.5, "most chars are in the string: {}", v[5]);
        assert_eq!(v[6], 24.0);
    }

    #[test]
    fn fused_matches_reference_bitwise() {
        for src in [
            PLAIN,
            "",
            "x = Chr(65) & Mid(s, 1, 2)",
            "Dim Alpha\r\nalpha = ALPHA + beta$\r\n' note\r\nRem more\r\n",
        ] {
            let a = MacroAnalysis::new(src);
            let reference = crate::reference::v_features_from(&a);
            for fused in [v_features_from(&a), v_features(src)] {
                for (i, (f, r)) in fused.iter().zip(reference.iter()).enumerate() {
                    assert_eq!(f.to_bits(), r.to_bits(), "V{} differs on {src:?}", i + 1);
                }
            }
        }
    }
}
