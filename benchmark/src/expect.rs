//! Output checking. The expected outcome of every document is computed
//! in-process with `vbadet::scan_bytes_with_policy` and reduced to a
//! canonical string: each module's name, verdict and score to 3 decimals
//! plus the salvage/recovery tag, or the failure class label. CLI lines and
//! serve replies are reduced to the same form and compared.

use crate::json::{self, Json};
use std::collections::{HashMap, HashSet};
use vbadet::{
    scan_bytes_with_policy, Detector, FailureClass, LadderRung, ModuleVerdict, ScanOutcome,
    ScanPolicy, Verdict,
};

/// The expected canonical outcome of `bytes` under the CLI's default policy.
pub fn expected(detector: &Detector, bytes: &[u8]) -> String {
    canonical(&scan_bytes_with_policy(
        detector,
        bytes,
        &ScanPolicy::default(),
    ))
}

/// Canonical form of one outcome: one line per module as the CLI prints
/// it without path and padding, `no VBA macros` when there is none, or
/// `FAILED [class]`.
pub fn canonical(outcome: &ScanOutcome) -> String {
    let (verdicts, tag) = match outcome {
        ScanOutcome::Clean => (&[][..], String::new()),
        ScanOutcome::Macros(v) => (&v[..], String::new()),
        ScanOutcome::Salvaged(v) => (&v[..], " [salvaged]".to_string()),
        ScanOutcome::Recovered { rung, verdicts } => {
            (&verdicts[..], format!(" [recovered:{}]", rung.label()))
        }
        ScanOutcome::Failed { class, .. } => return format!("FAILED [{}]", class.label()),
    };
    if verdicts.is_empty() {
        return format!("no VBA macros{tag}");
    }
    let lines: Vec<String> = verdicts
        .iter()
        .map(|m| {
            let mark = if m.verdict.obfuscated {
                "OBFUSCATED"
            } else {
                "clean"
            };
            format!("{} {mark} {:+.3}{tag}", m.module_name, m.verdict.score)
        })
        .collect();
    lines.join("\n")
}

/// The exit code `vbadet scan` owes a batch with these outcomes.
pub fn exit_code<'a>(outcomes: impl IntoIterator<Item = &'a str>) -> i32 {
    let mut code = 0;
    for o in outcomes {
        if o.starts_with("FAILED ") {
            return 2;
        }
        if o.lines().any(|l| l.contains(" OBFUSCATED ")) {
            code = 1;
        }
    }
    code
}

/// Reduces `vbadet scan` standard output to `(path, canonical)` pairs in
/// output order.
pub fn parse_cli(stdout: &str) -> Result<Vec<(String, String)>, String> {
    let mut docs: Vec<(String, String)> = Vec::new();
    for line in stdout.lines() {
        let (path, rest) = line
            .split_once(": ")
            .ok_or_else(|| format!("unparseable line {line:?}"))?;
        let canon = if let Some(module) = rest.strip_prefix("module ") {
            // `{name:<20} {mark:>11} (score {:+.3}){tag}`
            let mut words = module.split_whitespace();
            let (Some(name), Some(mark), Some("(score"), Some(score)) =
                (words.next(), words.next(), words.next(), words.next())
            else {
                return Err(format!("unparseable module line {line:?}"));
            };
            let tag = words.next().map(|t| format!(" {t}")).unwrap_or_default();
            format!("{name} {mark} {}{tag}", score.trim_end_matches(')'))
        } else if let Some(failed) = rest.strip_prefix("FAILED [") {
            let class = failed.split(']').next().unwrap_or_default();
            format!("FAILED [{class}]")
        } else {
            rest.to_string()
        };
        match docs.last_mut() {
            Some((p, c)) if p == path && !c.starts_with("no VBA") && !c.starts_with("FAILED") => {
                c.push('\n');
                c.push_str(&canon);
            }
            _ => docs.push((path.to_string(), canon)),
        }
    }
    Ok(docs)
}

/// Number of documents whose CLI output does not match `expected`
/// (`(path, canonical)` pairs), counting missing, repeated and unexpected
/// ones.
pub fn cli_mismatches(stdout: &str, expected: &[(String, String)]) -> usize {
    let Ok(got) = parse_cli(stdout) else {
        return expected.len();
    };
    let by_path: HashMap<&str, &str> = got.iter().map(|(p, c)| (p.as_str(), c.as_str())).collect();
    let wanted: HashSet<&str> = expected.iter().map(|(p, _)| p.as_str()).collect();
    let wrong = expected
        .iter()
        .filter(|(p, c)| by_path.get(p.as_str()) != Some(&c.as_str()))
        .count();
    let unexpected = by_path.keys().filter(|p| !wanted.contains(*p)).count();
    wrong + unexpected + (got.len() - by_path.len())
}

/// How a serve reply resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A scan outcome, in canonical form.
    Outcome(String),
    /// A typed refusal such as `overloaded`.
    Refused(String),
}

/// Reduces one `scan` reply line of `vbadet serve` to canonical form.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let j = json::parse(line.trim())?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = j.get("error").and_then(Json::as_str).unwrap_or("unknown");
        return Ok(Reply::Refused(code.to_string()));
    }
    let o = j.get("outcome").ok_or("scan reply without outcome")?;
    let kind = o
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("outcome without kind")?;
    let verdicts = || -> Result<Vec<ModuleVerdict>, String> {
        o.get("verdicts")
            .and_then(Json::as_arr)
            .ok_or("outcome without verdicts")?
            .iter()
            .map(|v| {
                Ok(ModuleVerdict {
                    module_name: v
                        .get("module")
                        .and_then(Json::as_str)
                        .ok_or("verdict without module")?
                        .to_string(),
                    verdict: Verdict {
                        obfuscated: v
                            .get("obfuscated")
                            .and_then(Json::as_bool)
                            .ok_or("verdict without obfuscated")?,
                        score: v
                            .get("score")
                            .and_then(Json::as_f64)
                            .ok_or("verdict without score")?,
                    },
                })
            })
            .collect()
    };
    let outcome = match kind {
        "clean" => ScanOutcome::Clean,
        "macros" => ScanOutcome::Macros(verdicts()?),
        "salvaged" => ScanOutcome::Salvaged(verdicts()?),
        "recovered" => ScanOutcome::Recovered {
            rung: o
                .get("rung")
                .and_then(Json::as_str)
                .and_then(LadderRung::from_label)
                .ok_or("bad rung")?,
            verdicts: verdicts()?,
        },
        "failed" => ScanOutcome::Failed {
            class: o
                .get("class")
                .and_then(Json::as_str)
                .and_then(FailureClass::from_label)
                .ok_or("bad failure class")?,
            detail: String::new(),
        },
        other => return Err(format!("unknown outcome kind {other:?}")),
    };
    Ok(Reply::Outcome(canonical(&outcome)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(name: &str, obfuscated: bool, score: f64) -> ModuleVerdict {
        ModuleVerdict {
            module_name: name.to_string(),
            verdict: Verdict { obfuscated, score },
        }
    }

    const GOOD: &str = "\
/w/a.docm: module ThisDocument               clean (score -1.234)
/w/a.docm: module Module1              OBFUSCATED (score +0.500)
/w/b.doc: no VBA macros
/w/c.bin: FAILED [unknown-container] the bytes are neither OLE nor ZIP
/w/d.docm: module ThisDocument               clean (score -0.250) [salvaged]
";

    fn expected_docs() -> Vec<(String, String)> {
        let outcomes = [
            (
                "/w/a.docm",
                ScanOutcome::Macros(vec![
                    verdict("ThisDocument", false, -1.2341),
                    verdict("Module1", true, 0.49996),
                ]),
            ),
            ("/w/b.doc", ScanOutcome::Clean),
            (
                "/w/c.bin",
                ScanOutcome::Failed {
                    class: FailureClass::UnknownContainer,
                    detail: "whatever".to_string(),
                },
            ),
            (
                "/w/d.docm",
                ScanOutcome::Salvaged(vec![verdict("ThisDocument", false, -0.25)]),
            ),
        ];
        outcomes
            .iter()
            .map(|(p, o)| (p.to_string(), canonical(o)))
            .collect()
    }

    #[test]
    fn matching_cli_output_passes_and_a_doctored_line_is_caught() {
        let expected = expected_docs();
        assert_eq!(cli_mismatches(GOOD, &expected), 0);
        assert_eq!(exit_code(expected.iter().map(|(_, c)| c.as_str())), 2);
        // One score digit changed.
        let doctored = GOOD.replace("(score +0.500)", "(score +0.501)");
        assert_eq!(cli_mismatches(&doctored, &expected), 1);
        // A verdict flipped, a class changed, a tag dropped, a line lost.
        let flipped = GOOD.replace("OBFUSCATED (score +0.500)", "clean (score +0.500)");
        assert_eq!(cli_mismatches(&flipped, &expected), 1);
        let reclassed = GOOD.replace("[unknown-container]", "[malformed]");
        assert_eq!(cli_mismatches(&reclassed, &expected), 1);
        assert_eq!(
            cli_mismatches(&GOOD.replace(" [salvaged]", ""), &expected),
            1
        );
        let lost: String = GOOD
            .lines()
            .filter(|l| !l.starts_with("/w/b.doc"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(cli_mismatches(&lost, &expected), 1);
        let extra = format!("{GOOD}/w/e.doc: no VBA macros\n");
        assert_eq!(cli_mismatches(&extra, &expected), 1);
    }

    #[test]
    fn serve_replies_reduce_to_the_same_form() {
        let expected = expected_docs();
        let reply = r#"{"ok":true,"op":"scan","generation":1,"outcome":{"kind":"macros","verdicts":[{"module":"ThisDocument","obfuscated":false,"score":-1.2341},{"module":"Module1","obfuscated":true,"score":0.49996}]}}"#;
        assert_eq!(
            parse_reply(reply).unwrap(),
            Reply::Outcome(expected[0].1.clone())
        );
        let doctored = reply.replace("0.49996", "0.5012");
        assert_ne!(
            parse_reply(&doctored).unwrap(),
            Reply::Outcome(expected[0].1.clone())
        );
        let failed = r#"{"ok":true,"op":"scan","generation":1,"outcome":{"kind":"failed","class":"unknown-container","detail":"x"}}"#;
        assert_eq!(
            parse_reply(failed).unwrap(),
            Reply::Outcome(expected[2].1.clone())
        );
        assert_eq!(
            parse_reply(r#"{"ok":false,"error":"overloaded"}"#).unwrap(),
            Reply::Refused("overloaded".to_string())
        );
    }
}
