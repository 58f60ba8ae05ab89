//! Static detection of the §VI.B anti-analysis techniques.
//!
//! The paper's case studies describe three tricks that are "not directly
//! addressed by the proposed method" but "tend to be found together in
//! obfuscated VBA macros". This module provides rule-based detectors for
//! them, complementing the statistical obfuscation classifier:
//!
//! 1. *Hiding string data* — reads from document variables / control
//!    captions feeding into execution sinks;
//! 2. *Inserting broken code* — unreachable statements after an
//!    unconditional `Exit Sub` within the same procedure;
//! 3. *Changing the flow* — environment checks guarding procedure entry.

use vbadet_vba::{tokenize, MacroAnalysis, SpanKind, TokenKind};

/// One detected anti-analysis indicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AntiAnalysisIndicator {
    /// Source reads strings from out-of-band document storage
    /// (`ActiveDocument.Variables`, control `.Caption`/`.ControlTipText`…).
    HiddenStringData {
        /// The storage accessor found (e.g. `Variables`, `Caption`).
        accessor: String,
        /// How many reads were found.
        reads: usize,
    },
    /// Statements appear after an unconditional `Exit Sub`/`Exit Function`
    /// but before the procedure's end: classic broken-code shielding.
    DeadCodeAfterExit {
        /// Number of unreachable statement lines.
        statements: usize,
    },
    /// A guard expression at procedure entry compares an environment probe
    /// (`RecentFiles.Count`, `Application.Version`…) and exits.
    EnvironmentGuard {
        /// The probe found.
        probe: String,
    },
}

/// Out-of-band string storage accessors (§VI.B.1, MS-OFORMS fields).
const HIDDEN_DATA_ACCESSORS: [&str; 5] = [
    "variables",
    "caption",
    "controltiptext",
    "tag",
    "customdocumentproperties",
];

/// Environment probes used for sandbox evasion (§VI.B.3).
const ENVIRONMENT_PROBES: [&str; 4] = ["recentfiles", "version", "username", "operatingsystem"];

/// Scans macro source for the three §VI.B anti-analysis techniques.
///
/// ```
/// use vbadet::anti_analysis_scan::{scan_anti_analysis, AntiAnalysisIndicator};
/// let src = "Sub A()\r\n    x = ActiveDocument.Variables(\"k\").Value()\r\nEnd Sub\r\n";
/// let found = scan_anti_analysis(src);
/// assert!(matches!(found[0], AntiAnalysisIndicator::HiddenStringData { .. }));
/// ```
pub fn scan_anti_analysis(source: &str) -> Vec<AntiAnalysisIndicator> {
    let mut out = Vec::new();

    // 1. Hidden string data: `.Accessor` member reads.
    let tokens = tokenize(source);
    let mut accessor_hits: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for w in tokens.windows(2) {
        if let (TokenKind::Operator("."), TokenKind::Identifier(name)) = (&w[0].kind, &w[1].kind) {
            let lower = name.to_ascii_lowercase();
            if HIDDEN_DATA_ACCESSORS.contains(&lower.as_str()) {
                *accessor_hits.entry(name.clone()).or_insert(0) += 1;
            }
        }
    }
    for (accessor, reads) in accessor_hits {
        out.push(AntiAnalysisIndicator::HiddenStringData { accessor, reads });
    }

    // 2. Dead code after an unconditional Exit Sub/Function.
    let mut dead = 0usize;
    let mut after_exit = false;
    for line in source.lines() {
        let trimmed = line.trim();
        let lower = trimmed.to_ascii_lowercase();
        if lower.starts_with("end sub") || lower.starts_with("end function") {
            after_exit = false;
            continue;
        }
        // Only *unconditional* exits arm the detector: `If … Then Exit Sub`
        // is ordinary control flow.
        if (lower == "exit sub" || lower == "exit function") && !lower.contains("then") {
            after_exit = true;
            continue;
        }
        if after_exit && !trimmed.is_empty() && !trimmed.starts_with('\'') {
            dead += 1;
        }
    }
    if dead > 0 {
        out.push(AntiAnalysisIndicator::DeadCodeAfterExit { statements: dead });
    }

    // 3. Environment guards: probe comparison followed by Exit on the same
    // logical line ("If X.Probe < n Then Exit Sub").
    for line in source.lines() {
        let lower = line.to_ascii_lowercase();
        if !(lower.contains("then exit sub") || lower.contains("then exit function")) {
            continue;
        }
        for probe in ENVIRONMENT_PROBES {
            if lower.contains(&format!("{probe}.")) || lower.contains(&format!(".{probe}")) {
                out.push(AntiAnalysisIndicator::EnvironmentGuard {
                    probe: probe.to_string(),
                });
            }
        }
    }
    out
}

/// Convenience: whether any indicator is present.
pub fn has_anti_analysis(source: &str) -> bool {
    !scan_anti_analysis(source).is_empty()
}

/// Combined report for one macro: the statistical verdict plus the
/// rule-based indicators (the combination §VI.B motivates).
#[derive(Debug, Clone)]
pub struct ExtendedVerdict {
    /// The classifier's verdict.
    pub verdict: crate::Verdict,
    /// Rule-based anti-analysis findings.
    pub indicators: Vec<AntiAnalysisIndicator>,
}

impl crate::Detector {
    /// Scores a macro and scans it for anti-analysis indicators.
    pub fn score_extended(&self, source: &str) -> ExtendedVerdict {
        ExtendedVerdict {
            verdict: self.score(source),
            indicators: scan_anti_analysis(source),
        }
    }
}

/// A dedicated analysis used by the obfuscation classifier's consumers:
/// which of the O1–O4 mechanism *signals* are present (coarse, rule-based;
/// useful for explaining a positive verdict to an analyst).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MechanismSignals {
    /// Concatenation operator density suggests split strings (O2).
    pub split_strings: bool,
    /// `Chr`/`Replace`/`Asc` call density suggests encoding (O3).
    pub encoded_strings: bool,
    /// Low word readability suggests randomized identifiers (O1).
    pub randomized_names: bool,
    /// Dead `If False` blocks / unused `Dim`s suggest dummy code (O4).
    pub dummy_code: bool,
}

/// Extracts coarse mechanism signals from a macro.
pub fn mechanism_signals(source: &str) -> MechanismSignals {
    let analysis = MacroAnalysis::new(source);
    let code_chars = analysis.code_chars().max(1) as f64;
    let concat_ops = analysis
        .tokens()
        .iter()
        .filter(|t| matches!(t.kind, SpanKind::Operator("&" | "+")))
        .count();
    let concat_density = concat_ops as f64 / code_chars;

    let calls = analysis.call_sites();
    let text_calls = calls
        .iter()
        .filter(|c| {
            matches!(
                vbadet_vba::functions::categorize(c),
                Some(vbadet_vba::FunctionCategory::Text)
            )
        })
        .count();
    let text_density = if calls.is_empty() {
        0.0
    } else {
        text_calls as f64 / calls.len() as f64
    };

    let idents = analysis.identifiers();
    let unreadable = idents
        .iter()
        .filter(|i| {
            let lower = i.to_ascii_lowercase();
            lower.len() >= 8
                && !lower
                    .chars()
                    .any(|c| matches!(c, 'a' | 'e' | 'i' | 'o' | 'u'))
        })
        .count();
    let lower_source = source.to_ascii_lowercase();

    MechanismSignals {
        split_strings: concat_density > 0.02 && analysis.strings().len() >= 6,
        encoded_strings: text_density > 0.4 && text_calls >= 4,
        randomized_names: !idents.is_empty() && unreadable as f64 / idents.len() as f64 > 0.3,
        dummy_code: lower_source.contains("if false then"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_macro_has_no_indicators() {
        let src = "Sub A()\r\n    If x > 0 Then Exit Sub\r\n    y = 1\r\nEnd Sub\r\n";
        assert!(scan_anti_analysis(src).is_empty());
        assert!(!has_anti_analysis(src));
    }

    #[test]
    fn hidden_data_reads_detected() {
        let src = "Sub A()\r\n\
                   x = ActiveDocument.Variables(\"k\").Value()\r\n\
                   y = UserForm1.Label1.Caption\r\n\
                   End Sub\r\n";
        let found = scan_anti_analysis(src);
        assert_eq!(
            found
                .iter()
                .filter(|i| matches!(i, AntiAnalysisIndicator::HiddenStringData { .. }))
                .count(),
            2,
            "{found:?}"
        );
    }

    #[test]
    fn dead_code_after_unconditional_exit_detected() {
        let src = "Sub A()\r\n\
                   x = 1\r\n\
                   Exit Sub\r\n\
                   Colu.mns(\"A:A\").Delete\r\n\
                   Sel.ection.RowHeight = 15\r\n\
                   End Sub\r\n";
        let found = scan_anti_analysis(src);
        assert!(found.iter().any(|i| matches!(
            i,
            AntiAnalysisIndicator::DeadCodeAfterExit { statements: 2 }
        )));
    }

    #[test]
    fn conditional_exit_is_not_flagged() {
        let src = "Sub A()\r\n\
                   If done Then Exit Sub\r\n\
                   x = 1\r\n\
                   End Sub\r\n";
        assert!(scan_anti_analysis(src).is_empty());
    }

    #[test]
    fn environment_guard_detected() {
        let src = "Sub A()\r\n\
                   If RecentFiles.Count < 3 Then Exit Sub\r\n\
                   Shell cmd, 0\r\n\
                   End Sub\r\n";
        let found = scan_anti_analysis(src);
        assert!(found
            .iter()
            .any(|i| matches!(i, AntiAnalysisIndicator::EnvironmentGuard { .. })));
    }

    #[test]
    fn generated_anti_analysis_transforms_are_detected() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let base = "Sub Document_Open()\r\n\
                    cmd = \"powershell -enc AAAA\"\r\n\
                    Shell cmd, 0\r\n\
                    End Sub\r\n";
        let hidden = vbadet_obfuscate::anti_analysis::hide_string_data(base, &mut rng);
        assert!(has_anti_analysis(&hidden.source), "hidden strings");
        let broken = vbadet_obfuscate::anti_analysis::insert_broken_code(base, &mut rng);
        assert!(has_anti_analysis(&broken), "broken code");
        let flowed = vbadet_obfuscate::anti_analysis::change_flow(base, &mut rng);
        assert!(has_anti_analysis(&flowed), "flow change");
    }

    #[test]
    fn mechanism_signals_fire_on_their_techniques() {
        use rand::SeedableRng;
        let base = "Sub Go()\r\n\
                    a = \"first marker string\"\r\n\
                    b = \"second marker string\"\r\n\
                    c = \"third marker string\"\r\n\
                    Shell a & b & c, 0\r\n\
                    End Sub\r\n";
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let split = vbadet_obfuscate::split::apply(base, &mut rng);
        assert!(mechanism_signals(&split).split_strings, "{split}");

        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let renamed = vbadet_obfuscate::random::apply(base, &mut rng).0;
        // Random names may be pronounceable; just require the call not to
        // crash and the dummy-code flag to stay off.
        assert!(!mechanism_signals(&renamed).dummy_code);

        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let logic =
            vbadet_obfuscate::logic::apply(base, vbadet_obfuscate::logic::Intensity(30), &mut rng);
        assert!(mechanism_signals(&logic).dummy_code, "{logic}");
    }
}
