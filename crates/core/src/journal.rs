//! Crash-safe scan journal: append-only JSONL checkpointing and replay.
//!
//! A triage run over a large corpus can be killed at any moment — OOM
//! reaper, power loss, an operator's Ctrl-C — and rescanning hundreds of
//! thousands of already-decided documents is the difference between a
//! ten-minute and a ten-hour recovery. [`ScanJournal`] checkpoints a batch
//! scan as it runs: one JSON object per line, a `begin` record before each
//! document is parsed and a `done` record (carrying its full
//! [`ScanOutcome`]) after.
//!
//! The file is a `crate::jsonl` log, the one crash-safe log the scan
//! cache's disk segments also use: a header line naming the format and
//! version, each record written whole with its newline, periodic fsyncs,
//! and a latched first write error. The journal keeps its own record
//! codec and damage policy: [`replay_journal`] stops at the first damaged
//! line — a torn final line being the expected wreckage of a crash
//! mid-write — with a warning instead of an error, and any document with
//! a `begin` but no `done` is reported as in-flight so the resuming scan
//! re-attempts it. A bad header is an error.
//!
//! Lines are written by fixed-shape `format!` calls and read back with
//! the workspace's one JSON codec, [`vbadet_metrics::json`]: exact
//! integers, capped nesting, no serialization dependency to drag into the
//! scanning core. The outcome encoding here is shared with cache entries,
//! isolate result frames and serve replies.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use crate::detector::{ModuleVerdict, Verdict};
use crate::jsonl;
use crate::scan::{FailureClass, LadderRung, ScanOutcome, ScanRecord};
use vbadet_metrics::json::{self, json_str, Json};

/// Format name carried by the journal's header line.
pub const JOURNAL_FORMAT: &str = "vbadet-scan-journal";
/// Format version carried by the journal's header line.
pub const JOURNAL_VERSION: u64 = 1;

/// Append-only checkpoint writer for a batch scan.
///
/// Created fresh per scan run; the header line is written and fsynced
/// immediately so even an instantly-killed run leaves a recognizable
/// journal. The first write error is latched: every later record fails
/// with it and writes nothing.
#[derive(Debug)]
pub struct ScanJournal {
    log: jsonl::Writer,
}

impl ScanJournal {
    /// Creates (truncating) a journal at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let log = jsonl::Writer::create(path.as_ref(), JOURNAL_FORMAT, JOURNAL_VERSION)?;
        Ok(ScanJournal { log })
    }

    /// Records that `path` is about to be scanned. A `begin` without a
    /// matching `done` marks the document as in-flight on replay.
    ///
    /// # Errors
    ///
    /// Any I/O error appending to the journal.
    pub fn begin(&mut self, path: &str) -> io::Result<()> {
        self.log.append(&format!(
            "{{\"event\":\"begin\",\"path\":{}}}",
            json_str(path)
        ));
        self.log.status()
    }

    /// Records a completed document with its full outcome.
    ///
    /// # Errors
    ///
    /// Any I/O error appending to the journal.
    pub fn done(&mut self, record: &ScanRecord) -> io::Result<()> {
        let line = format!(
            "{{\"event\":\"done\",\"path\":{},\"outcome\":{}}}",
            json_str(&record.path.display().to_string()),
            outcome_json(&record.outcome),
        );
        if vbadet_faultpoint::fire("journal::torn-write").is_some() {
            // Simulate a crash mid-write: half the record reaches the
            // file, then the writer dies.
            self.log.tear(&line);
        } else {
            self.log.append(&line);
        }
        self.log.status()
    }

    /// Forces an fsync now (end-of-batch durability point).
    ///
    /// # Errors
    ///
    /// Any I/O error from the sync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync();
        self.log.status()
    }

    /// Total bytes appended so far, including the header line. Torn writes
    /// (the fault-injected half-record) are not counted: the record never
    /// durably completed.
    pub fn bytes_written(&self) -> u64 {
        self.log.bytes_written()
    }

    /// `Err` with the first write error, after which the journal writes
    /// nothing.
    pub(crate) fn status(&self) -> io::Result<()> {
        self.log.status()
    }
}

/// What a journal says happened before the crash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalReplay {
    completed: HashMap<String, ScanOutcome>,
    /// Paths with a `begin` but no `done`: documents that were mid-scan
    /// when the run died and must be re-attempted.
    pub in_flight: Vec<String>,
    /// Set when the journal ends in a torn or garbled record (the normal
    /// signature of a crash mid-write). Everything before the damage is
    /// still replayed.
    pub warning: Option<String>,
}

impl JournalReplay {
    /// The recorded outcome for `path`, if its scan completed.
    pub fn outcome_for(&self, path: &str) -> Option<&ScanOutcome> {
        self.completed.get(path)
    }

    /// Number of documents with a recorded outcome.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }
}

/// Reads a journal back, tolerating the torn tail a crash leaves behind.
///
/// # Errors
///
/// Fails only when the file cannot be read at all or its header is missing
/// or names an unknown format/version — damage *within* the body
/// degrades to [`JournalReplay::warning`] instead.
pub fn replay_journal<P: AsRef<Path>>(path: P) -> io::Result<JournalReplay> {
    let bytes = std::fs::read(path)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if bytes.is_empty() {
        return Err(bad("empty journal".to_string()));
    }
    let lines = jsonl::read(&bytes, JOURNAL_FORMAT, JOURNAL_VERSION)
        .map_err(|e| bad(format!("not a vbadet scan journal: {e}")))?;
    let mut replay = JournalReplay::default();
    let mut pending: Vec<String> = Vec::new();
    for line in lines {
        let record = match line
            .text
            .and_then(|l| json::parse(l).map_err(String::from))
            .and_then(|j| decode_event(&j))
        {
            Ok(record) => record,
            Err(e) => {
                replay.warning = Some(format!(
                    "journal damaged at line {}: {e}; later records ignored",
                    line.number
                ));
                break;
            }
        };
        match record {
            Event::Begin(path) => {
                if !pending.contains(&path) {
                    pending.push(path);
                }
            }
            Event::Done(path, outcome) => {
                pending.retain(|p| p != &path);
                replay.completed.insert(path, outcome);
            }
        }
    }
    replay.in_flight = pending;
    Ok(replay)
}

enum Event {
    Begin(String),
    Done(String, ScanOutcome),
}

fn decode_event(j: &Json) -> Result<Event, String> {
    let event = j
        .get("event")
        .and_then(Json::as_str)
        .ok_or("record without event")?;
    let path = j
        .get("path")
        .and_then(Json::as_str)
        .ok_or("record without path")?
        .to_string();
    match event {
        "begin" => Ok(Event::Begin(path)),
        "done" => {
            let outcome = j.get("outcome").ok_or("done record without outcome")?;
            Ok(Event::Done(path, decode_outcome(outcome)?))
        }
        other => Err(format!("unknown event {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Outcome encoding
// ---------------------------------------------------------------------------

pub(crate) fn outcome_json(outcome: &ScanOutcome) -> String {
    match outcome {
        ScanOutcome::Clean => "{\"kind\":\"clean\"}".to_string(),
        ScanOutcome::Macros(v) => {
            format!("{{\"kind\":\"macros\",\"verdicts\":{}}}", verdicts_json(v))
        }
        ScanOutcome::Salvaged(v) => {
            format!(
                "{{\"kind\":\"salvaged\",\"verdicts\":{}}}",
                verdicts_json(v)
            )
        }
        ScanOutcome::Recovered { rung, verdicts } => format!(
            "{{\"kind\":\"recovered\",\"rung\":{},\"verdicts\":{}}}",
            json_str(rung.label()),
            verdicts_json(verdicts)
        ),
        ScanOutcome::Failed { class, detail } => format!(
            "{{\"kind\":\"failed\",\"class\":{},\"detail\":{}}}",
            json_str(class.label()),
            json_str(detail)
        ),
    }
}

fn verdicts_json(verdicts: &[ModuleVerdict]) -> String {
    let items: Vec<String> = verdicts
        .iter()
        .map(|m| {
            format!(
                "{{\"module\":{},\"obfuscated\":{},\"score\":{}}}",
                json_str(&m.module_name),
                m.verdict.obfuscated,
                fmt_f64(m.verdict.score)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Shortest-roundtrip float formatting: Rust's `Display` for `f64` prints
/// the shortest decimal that parses back to the same bits, which is
/// exactly the property a checkpoint needs. Non-finite scores (which the
/// detector never produces) degrade to JSON `null`.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

pub(crate) fn decode_outcome(j: &Json) -> Result<ScanOutcome, String> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("outcome without kind")?;
    let verdicts = |j: &Json| -> Result<Vec<ModuleVerdict>, String> {
        j.get("verdicts")
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
                        score: v.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    },
                })
            })
            .collect()
    };
    match kind {
        "clean" => Ok(ScanOutcome::Clean),
        "macros" => Ok(ScanOutcome::Macros(verdicts(j)?)),
        "salvaged" => Ok(ScanOutcome::Salvaged(verdicts(j)?)),
        "recovered" => {
            let rung = j
                .get("rung")
                .and_then(Json::as_str)
                .and_then(LadderRung::from_label)
                .ok_or("recovered outcome without a valid rung")?;
            Ok(ScanOutcome::Recovered {
                rung,
                verdicts: verdicts(j)?,
            })
        }
        "failed" => Ok(ScanOutcome::Failed {
            class: j
                .get("class")
                .and_then(Json::as_str)
                .and_then(FailureClass::from_label)
                .ok_or("failed outcome without a valid class")?,
            detail: j
                .get("detail")
                .and_then(Json::as_str)
                .ok_or("failed outcome without detail")?
                .to_string(),
        }),
        other => Err(format!("unknown outcome kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vbadet-journal-{tag}-{}.jsonl", std::process::id()))
    }

    fn sample_records() -> Vec<ScanRecord> {
        let verdict = |name: &str, obf: bool, score: f64| ModuleVerdict {
            module_name: name.to_string(),
            verdict: Verdict {
                obfuscated: obf,
                score,
            },
        };
        vec![
            ScanRecord {
                path: PathBuf::from("a.doc"),
                outcome: ScanOutcome::Clean,
            },
            ScanRecord {
                path: PathBuf::from("dir with spaces/b\"quoted\".docm"),
                outcome: ScanOutcome::Macros(vec![
                    verdict("Module1", true, 1.25),
                    verdict("Thïs–Dòc", false, -0.037_251_123_4),
                ]),
            },
            ScanRecord {
                path: PathBuf::from("c.xls"),
                outcome: ScanOutcome::Salvaged(vec![verdict("salvaged_1", true, 3.5)]),
            },
            ScanRecord {
                path: PathBuf::from("d.bin"),
                outcome: ScanOutcome::Recovered {
                    rung: LadderRung::Salvage,
                    verdicts: vec![verdict("salvaged_1", false, -0.5)],
                },
            },
            ScanRecord {
                path: PathBuf::from("e.doc"),
                outcome: ScanOutcome::Failed {
                    class: FailureClass::Timeout,
                    detail: "scan budget exceeded: deadline\nsecond line".to_string(),
                },
            },
        ]
    }

    #[test]
    fn journal_round_trips_every_outcome_kind() {
        let path = temp_path("roundtrip");
        let records = sample_records();
        let mut journal = ScanJournal::create(&path).unwrap();
        for r in &records {
            journal.begin(&r.path.display().to_string()).unwrap();
            journal.done(r).unwrap();
        }
        journal.sync().unwrap();
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(replay.warning.is_none());
        assert!(replay.in_flight.is_empty());
        assert_eq!(replay.completed_count(), records.len());
        for r in &records {
            assert_eq!(
                replay.outcome_for(&r.path.display().to_string()),
                Some(&r.outcome),
                "outcome mismatch for {}",
                r.path.display()
            );
        }
    }

    #[test]
    fn torn_tail_degrades_to_warning_and_in_flight() {
        let path = temp_path("torn");
        let records = sample_records();
        // Half a record, as a crash mid-write would leave it: cut between
        // two ASCII bytes, and cut inside the two-byte `é` of a raw
        // non-ASCII path. And a whole record cut right before its
        // newline: only a line that ends in `\n` is complete.
        let cafe = "{\"event\":\"done\",\"path\":\"caf\u{e9}.doc\"".as_bytes();
        let tails: [(&str, &[u8]); 3] = [
            ("mid-flight.doc", b"{\"event\":\"done\",\"path\":\"mid-fl"),
            ("caf\u{e9}.doc", &cafe[..cafe.len() - 6]),
            (
                "whole.doc",
                b"{\"event\":\"done\",\"path\":\"whole.doc\",\"outcome\":{\"kind\":\"clean\"}}",
            ),
        ];
        for (in_flight, tail) in tails {
            {
                let mut journal = ScanJournal::create(&path).unwrap();
                for r in &records[..2] {
                    journal.begin(&r.path.display().to_string()).unwrap();
                    journal.done(r).unwrap();
                }
                journal.begin(in_flight).unwrap();
            }
            {
                use std::io::Write;
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                f.write_all(tail).unwrap();
            }
            let replay = replay_journal(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(replay.completed_count(), 2);
            assert_eq!(replay.in_flight, vec![in_flight.to_string()]);
            let warning = replay.warning.expect("torn tail must set a warning");
            assert!(warning.contains("damaged"), "unexpected warning: {warning}");
        }
    }

    #[test]
    fn duplicate_path_entries_resolve_last_wins() {
        // A resumed-and-rejournaled run (or a rescan appended by an
        // operator) can record the same path twice; the later outcome is
        // the one a resume must trust.
        let path = temp_path("dup");
        let mut journal = ScanJournal::create(&path).unwrap();
        let first = ScanRecord {
            path: PathBuf::from("x.doc"),
            outcome: ScanOutcome::Clean,
        };
        let second = ScanRecord {
            path: PathBuf::from("x.doc"),
            outcome: ScanOutcome::Failed {
                class: FailureClass::Truncated,
                detail: "rescan saw a shorter file".to_string(),
            },
        };
        journal.begin("x.doc").unwrap();
        journal.done(&first).unwrap();
        journal.begin("x.doc").unwrap();
        journal.done(&second).unwrap();
        journal.sync().unwrap();
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.completed_count(), 1);
        assert_eq!(replay.outcome_for("x.doc"), Some(&second.outcome));
        assert!(replay.in_flight.is_empty());
        assert!(replay.warning.is_none());
    }

    #[test]
    fn empty_journal_file_is_a_typed_error() {
        let path = temp_path("empty");
        std::fs::write(&path, "").unwrap();
        let err = replay_journal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("empty journal"), "got {err}");
    }

    #[test]
    fn header_only_journal_replays_to_nothing() {
        // A run killed immediately after creation leaves just the header:
        // a valid journal with zero decided documents and no damage.
        let path = temp_path("header-only");
        ScanJournal::create(&path).unwrap();
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.completed_count(), 0);
        assert!(replay.in_flight.is_empty());
        assert!(replay.warning.is_none());
    }

    #[test]
    fn journal_with_every_body_line_torn_degrades_to_a_warning() {
        let path = temp_path("all-torn");
        {
            ScanJournal::create(&path).unwrap();
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"event\":\"done\",\"pa\n{\"event\nnot json\n")
                .unwrap();
        }
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Damage at the first body line: nothing replayed, nothing
        // in-flight, and the warning points at line 2 (header is line 1).
        assert_eq!(replay.completed_count(), 0);
        assert!(replay.in_flight.is_empty());
        let warning = replay.warning.expect("torn body must warn");
        assert!(warning.contains("line 2"), "unexpected warning: {warning}");
    }

    #[test]
    fn foreign_files_are_rejected_not_replayed() {
        let path = temp_path("foreign");
        std::fs::write(&path, "{\"format\":\"something-else\",\"version\":1}\n").unwrap();
        assert!(replay_journal(&path).is_err());
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(replay_journal(&path).is_err());
        std::fs::write(&path, "").unwrap();
        assert!(replay_journal(&path).is_err());
        std::fs::write(
            &path,
            "{\"format\":\"vbadet-scan-journal\",\"version\":2}\n",
        )
        .unwrap();
        assert!(replay_journal(&path).is_err());
        // A header cut before its newline is torn, like any other line.
        std::fs::write(&path, "{\"format\":\"vbadet-scan-journal\",\"version\":1}").unwrap();
        assert!(replay_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.25,
            0.1,
            1e300,
            -3.337e-10,
            f64::MIN_POSITIVE,
        ] {
            let printed = fmt_f64(x);
            let back: f64 = printed.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} printed as {printed}");
        }
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn done_lines_are_golden_for_every_outcome_kind() {
        // Literal bytes, not a round trip: journals written by earlier
        // builds must still resume, so the line format may not drift.
        let path = temp_path("golden");
        let mut journal = ScanJournal::create(&path).unwrap();
        for r in &sample_records() {
            journal.done(r).unwrap();
        }
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let want = [
            r#"{"format":"vbadet-scan-journal","version":1}"#,
            r#"{"event":"done","path":"a.doc","outcome":{"kind":"clean"}}"#,
            r#"{"event":"done","path":"dir with spaces/b\"quoted\".docm","outcome":{"kind":"macros","verdicts":[{"module":"Module1","obfuscated":true,"score":1.25},{"module":"Thïs–Dòc","obfuscated":false,"score":-0.0372511234}]}}"#,
            r#"{"event":"done","path":"c.xls","outcome":{"kind":"salvaged","verdicts":[{"module":"salvaged_1","obfuscated":true,"score":3.5}]}}"#,
            r#"{"event":"done","path":"d.bin","outcome":{"kind":"recovered","rung":"salvage","verdicts":[{"module":"salvaged_1","obfuscated":false,"score":-0.5}]}}"#,
            r#"{"event":"done","path":"e.doc","outcome":{"kind":"failed","class":"timeout","detail":"scan budget exceeded: deadline\nsecond line"}}"#,
        ];
        assert_eq!(text, want.map(|line| format!("{line}\n")).concat());
    }
}
