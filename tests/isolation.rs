//! Process-isolation integration suite: the `--isolate` supervisor engine
//! driving real child worker processes (`src/bin/isolation_worker.rs`,
//! resolved via `CARGO_BIN_EXE_isolation_worker`).
//!
//! The always-on tests prove the supervisor is a drop-in engine: identical
//! records and byte-identical deterministic counters against the
//! in-process engines, typed failures when the worker binary is missing,
//! and a worker-side memory ceiling that surfaces as `LimitExceeded`
//! instead of an OOM-killed worker.
//!
//! The `faultpoints`-gated tests kill workers for real — `abort()` inside
//! the OLE parser, a wedged decompressor past the heartbeat — and prove
//! the quarantine protocol (exactly one solo retry, also for a death in
//! the middle of a claim whose later documents were already sent),
//! journal resume equality after a mid-batch kill, and the graceful
//! drain path.
//!
//! The faultpoint registry is process-global and Rust runs integration
//! tests in parallel threads, so every test serializes on `global_guard`.

use std::path::{Path, PathBuf};

use vbadet::{scan_paths_with_policy, FailureClass, IsolateConfig, ScanOutcome, ScanPolicy};
use vbadet_ovba::VbaProjectBuilder;
use vbadet_repro::testkit::{
    clean_document, docm_document, fresh_dir, global_guard, macro_document, metered, tiny_detector,
};

/// The worker binary the supervisor re-executes: the whole binary is one
/// isolation worker speaking the frame protocol on stdin/stdout.
fn worker_config() -> IsolateConfig {
    IsolateConfig::new(vec![env!("CARGO_BIN_EXE_isolation_worker").to_string()])
}

/// A mixed corpus exercising every container path: OLE with macros, clean
/// OLE, OOXML, junk, and a truncated project.
fn mixed_corpus(dir: &Path, docs: usize) -> Vec<PathBuf> {
    (0..docs)
        .map(|i| {
            let p = dir.join(format!("doc{i:02}.bin"));
            let bytes = match i % 5 {
                0 => macro_document(),
                1 => clean_document(),
                2 => docm_document(),
                3 => b"not a document at all".to_vec(),
                _ => {
                    let full = macro_document();
                    let cut = full.len() / 2;
                    full[..cut].to_vec()
                }
            };
            std::fs::write(&p, bytes).unwrap();
            p
        })
        .collect()
}

#[test]
fn isolated_records_and_counters_match_the_in_process_engines() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("equiv");
    let paths = mixed_corpus(&dir, 10);

    let sequential = scan_paths_with_policy(det, &paths, &metered(ScanPolicy::default()));
    let isolated = scan_paths_with_policy(
        det,
        &paths,
        &metered(ScanPolicy::default().jobs(3).isolated(worker_config())),
    );

    // Same records in the same order, and the deterministic counters
    // section is byte-identical — the workers' per-document deltas merge
    // in input order, exactly like the in-process engines count.
    assert_eq!(sequential.records, isolated.records);
    assert!(!isolated.interrupted);
    let seq_counters = sequential.metrics.unwrap().counters_json();
    let iso_counters = isolated.metrics.unwrap().counters_json();
    assert_eq!(seq_counters, iso_counters);

    // Worker lifecycle telemetry rides on the histogram side, never in
    // the deterministic counters.
    assert!(!seq_counters.contains("isolate"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_worker_binary_is_a_typed_per_document_failure_not_a_hang() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("missing");
    let paths = mixed_corpus(&dir, 3);

    let config = IsolateConfig::new(vec!["/nonexistent/vbadet-isolation-worker".to_string()]);
    let report = scan_paths_with_policy(
        det,
        &paths,
        &metered(ScanPolicy::default().jobs(1).isolated(config)),
    );

    // The crash-loop cutoff trips after repeated spawn failures; every
    // document still gets a decided record and the batch terminates.
    assert_eq!(report.scanned(), paths.len());
    for record in &report.records {
        match &record.outcome {
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            } => assert!(
                detail.contains("worker unavailable"),
                "detail was {detail:?}"
            ),
            other => panic!("expected a fatal worker-unavailable record, got {other:?}"),
        }
    }
    // No worker ever existed, so nothing was quarantined.
    let snapshot = report.metrics.unwrap();
    assert!(!snapshot.histograms.contains_key("isolate.quarantines"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_worker_memory_ceiling_is_a_typed_outcome_not_a_dead_worker() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("memcap");

    // A single ~2.5 MB module: decompressing it must allocate well past a
    // 1 MB ceiling, while staying far under the default resource limits.
    let mut body = String::with_capacity(3 << 20);
    body.push_str("Sub Work()\r\n");
    for line in 0..40_000 {
        body.push_str(&format!("    v{line} = v{line} + {line} Mod 7\r\n"));
    }
    body.push_str("End Sub\r\n");
    let mut builder = VbaProjectBuilder::new("P");
    builder.add_module("Big", &body);
    let path = dir.join("big.bin");
    std::fs::write(&path, builder.build().unwrap()).unwrap();
    let paths = [path];

    // Control: without a ceiling the document scans fine (in-process; the
    // test binary has no tracking allocator, the worker binary does).
    let control = scan_paths_with_policy(det, &paths, &ScanPolicy::default());
    assert!(
        matches!(control.records[0].outcome, ScanOutcome::Macros(_)),
        "control scan should succeed, got {:?}",
        control.records[0].outcome
    );

    let policy = metered(
        ScanPolicy::default()
            .jobs(1)
            .isolated(worker_config())
            .max_scan_mem_bytes(1 << 20),
    );
    let report = scan_paths_with_policy(det, &paths, &policy);
    match &report.records[0].outcome {
        ScanOutcome::Failed {
            class: FailureClass::LimitExceeded,
            detail,
        } => assert!(detail.contains("memory"), "detail was {detail:?}"),
        other => panic!("expected a typed memory-ceiling failure, got {other:?}"),
    }

    // The ceiling tripped *inside* the worker as a cooperative budget
    // breach: the worker survived (no restart, nothing quarantined).
    let snapshot = report.metrics.unwrap();
    assert!(
        !snapshot.histograms.contains_key("isolate.restarts"),
        "the worker must survive a memory-ceiling trip"
    );
    assert!(!snapshot.histograms.contains_key("isolate.quarantines"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_isolate_journal_is_byte_identical_to_the_sequential_journal() {
    use vbadet::{replay_journal, scan_paths_journaled, ScanJournal};

    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("journal");
    let paths = mixed_corpus(&dir, 15);
    let policy = ScanPolicy::default();

    let seq_journal = dir.join("seq.jsonl");
    let mut journal = ScanJournal::create(&seq_journal).unwrap();
    let sequential = scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None);
    drop(journal);
    assert!(sequential.journal_error.is_none());

    let iso_journal = dir.join("iso.jsonl");
    let mut journal = ScanJournal::create(&iso_journal).unwrap();
    let iso_policy = policy.clone().jobs(2).isolated(worker_config());
    let isolated = scan_paths_journaled(det, &paths, &iso_policy, Some(&mut journal), None);
    drop(journal);
    assert!(isolated.journal_error.is_none());

    // One engine, one journal writer, input order: the supervisor's
    // journal is the sequential journal byte for byte.
    assert_eq!(isolated.records, sequential.records);
    assert_eq!(
        std::fs::read(&iso_journal).unwrap(),
        std::fs::read(&seq_journal).unwrap()
    );
    let replay = replay_journal(&iso_journal).unwrap();
    assert!(replay.warning.is_none());
    assert_eq!(replay.completed_count(), paths.len());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A name that is not UTF-8 reaches the worker as the bytes the
/// in-process engines open, not as its lossy display form.
#[cfg(unix)]
#[test]
fn a_path_that_is_not_utf8_scans_alike_in_process_and_isolated() {
    use std::os::unix::ffi::OsStrExt;

    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("not-utf8");
    let paths = [dir.join(std::ffi::OsStr::from_bytes(b"\xff\xfe.doc"))];
    std::fs::write(&paths[0], macro_document()).unwrap();

    let in_process = scan_paths_with_policy(det, &paths, &ScanPolicy::default());
    let isolated = scan_paths_with_policy(
        det,
        &paths,
        &ScanPolicy::default().isolated(worker_config()),
    );
    assert!(
        matches!(in_process.records[0].outcome, ScanOutcome::Macros(_)),
        "{:?}",
        in_process.records
    );
    assert_eq!(isolated.records, in_process.records);

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "faultpoints")]
mod faults {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::time::Duration;

    use vbadet::{replay_journal, scan_paths_journaled, ScanJournal};
    use vbadet_faultpoint::{clear, configure};
    use vbadet_zip::{CompressionMethod, ZipWriter};

    /// Junk documents never reach the OLE parser (the container sniffer
    /// rejects them first), so a worker armed with `ole::parse=abort`
    /// survives them — only OLE inputs are poison.
    fn safe_and_poison_corpus(dir: &Path) -> (Vec<PathBuf>, usize) {
        let mut paths = Vec::new();
        for i in 0..6 {
            let p = dir.join(format!("safe{i}.txt"));
            std::fs::write(&p, format!("plain junk payload {i}")).unwrap();
            paths.push(p);
        }
        let poison = dir.join("poison.bin");
        std::fs::write(&poison, macro_document()).unwrap();
        paths.insert(3, poison);
        (paths, 3)
    }

    /// 17 inputs at `jobs 1` are claimed two at a time, so the poison at
    /// index 5 shares its claim with the junk document at index 4, which
    /// the worker finishes first while the poison's request is already
    /// buffered behind it.
    fn claim_mate_corpus(dir: &Path) -> (Vec<PathBuf>, usize) {
        let poison_idx = 5;
        let paths = (0..17)
            .map(|i| {
                let p = dir.join(format!("doc{i:02}.bin"));
                let bytes = if i == poison_idx {
                    macro_document()
                } else {
                    format!("plain junk payload {i}").into_bytes()
                };
                std::fs::write(&p, bytes).unwrap();
                p
            })
            .collect();
        (paths, poison_idx)
    }

    /// Every record but the poison's, and the deterministic counters,
    /// equal a clean in-process run over the survivors: the quarantined
    /// document leaves no counter trace.
    fn assert_survivors_match_in_process(
        det: &vbadet::Detector,
        paths: &[PathBuf],
        poison_idx: usize,
        report: &vbadet::ScanReport,
    ) {
        let survivors: Vec<PathBuf> = paths
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != poison_idx)
            .map(|(_, p)| p.clone())
            .collect();
        let reference = scan_paths_with_policy(det, &survivors, &metered(ScanPolicy::default()));
        let surviving_records: Vec<_> = report
            .records
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != poison_idx)
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(surviving_records, reference.records);
        assert_eq!(
            report.metrics.as_ref().unwrap().counters_json(),
            reference.metrics.unwrap().counters_json()
        );
    }

    #[test]
    fn an_aborting_document_is_quarantined_after_one_solo_retry_and_the_batch_survives() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("abort");
        let (paths, poison_idx) = safe_and_poison_corpus(&dir);

        // The faultpoint is armed in the *workers* via their environment;
        // this supervisor process never parses OLE under --isolate.
        let config = worker_config().env("VBADET_FAULTPOINTS", "ole::parse=abort");
        let policy = metered(ScanPolicy::default().jobs(4).isolated(config));
        let report = scan_paths_with_policy(det, &paths, &policy);

        // Every document decided: the abort cost one worker, not the batch.
        assert_eq!(report.scanned(), paths.len());
        match &report.records[poison_idx].outcome {
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            } => {
                assert!(detail.contains("quarantined"), "detail was {detail:?}");
                assert!(detail.contains("SIGABRT"), "detail was {detail:?}");
                assert!(detail.contains("solo retry"), "detail was {detail:?}");
            }
            other => panic!("expected the poison document quarantined, got {other:?}"),
        }

        // Exactly one quarantine: first death, one solo retry, give up.
        let snapshot = report.metrics.as_ref().unwrap();
        assert_eq!(snapshot.histograms["isolate.quarantines"].total, 1);
        assert_survivors_match_in_process(det, &paths, poison_idx, &report);

        // Journaled, the same poisoned batch decides every document —
        // quarantined ones included — and the journal resumes cleanly: the
        // replay covers the full batch, so no worker is ever consulted.
        let journal_path = dir.join("scan.jsonl");
        let mut journal = ScanJournal::create(&journal_path).unwrap();
        let journal_policy = ScanPolicy::default()
            .jobs(4)
            .isolated(worker_config().env("VBADET_FAULTPOINTS", "ole::parse=abort"));
        let journaled =
            scan_paths_journaled(det, &paths, &journal_policy, Some(&mut journal), None);
        drop(journal);
        assert!(journaled.journal_error.is_none());
        assert_eq!(journaled.records, report.records);
        let replay = replay_journal(&journal_path).unwrap();
        assert!(replay.warning.is_none());
        assert_eq!(replay.completed_count(), paths.len());
        let resumed = scan_paths_journaled(det, &paths, &journal_policy, None, Some(&replay));
        assert_eq!(resumed.records, report.records);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_worker_death_mid_claim_forfeits_one_document_and_the_claim_is_resent() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("mid-claim");

        // 64 inputs at jobs 2 are claimed four at a time (eight at a time
        // under jobs 1), so the poison at index 33 kills its worker in the
        // middle of a claim, with the claim's later documents already sent
        // to that worker. Survivors never reach the OLE parser: junk, and
        // OOXML without a VBA part.
        let poison_idx = 33;
        let paths: Vec<PathBuf> = (0..64)
            .map(|i| {
                let p = dir.join(format!("doc{i:02}.bin"));
                let bytes = if i == poison_idx {
                    macro_document()
                } else if i % 2 == 0 {
                    let mut zip = ZipWriter::new();
                    zip.add_file(
                        "[Content_Types].xml",
                        format!("<Types n=\"{i}\"/>").as_bytes(),
                        CompressionMethod::Deflate,
                    )
                    .unwrap();
                    zip.finish()
                } else {
                    format!("plain junk payload {i}").into_bytes()
                };
                std::fs::write(&p, bytes).unwrap();
                p
            })
            .collect();
        let policy = |jobs: usize| {
            ScanPolicy::default()
                .jobs(jobs)
                .isolated(worker_config().env("VBADET_FAULTPOINTS", "ole::parse=abort"))
        };

        let report = scan_paths_with_policy(det, &paths, &metered(policy(2)));
        assert_eq!(report.scanned(), paths.len());
        match &report.records[poison_idx].outcome {
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            } => {
                assert!(detail.contains("SIGABRT"), "detail was {detail:?}");
                assert!(detail.contains("solo retry"), "detail was {detail:?}");
            }
            other => panic!("expected the poison document quarantined, got {other:?}"),
        }
        let snapshot = report.metrics.as_ref().unwrap();
        assert_eq!(snapshot.histograms["isolate.quarantines"].total, 1);

        // The death forfeited the poison alone: every survivor — the
        // claim's re-sent documents included — and the deterministic
        // counters equal a clean in-process run over the survivors.
        assert_survivors_match_in_process(det, &paths, poison_idx, &report);

        // The journal is the sequential (jobs 1) journal byte for byte.
        let journal_for = |jobs: usize| {
            let journal_path = dir.join(format!("jobs{jobs}.jsonl"));
            let mut journal = ScanJournal::create(&journal_path).unwrap();
            let journaled =
                scan_paths_journaled(det, &paths, &policy(jobs), Some(&mut journal), None);
            drop(journal);
            assert!(journaled.journal_error.is_none());
            assert_eq!(journaled.records, report.records, "jobs {jobs}");
            std::fs::read(&journal_path).unwrap()
        };
        assert_eq!(journal_for(2), journal_for(1));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wedged_worker_is_heartbeat_killed_and_the_document_quarantined() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("wedge");
        let (paths, poison_idx) = safe_and_poison_corpus(&dir);

        // The decompressor wedges for far longer than the heartbeat; the
        // supervisor must SIGKILL the worker rather than wait it out.
        let config = worker_config()
            .env("VBADET_FAULTPOINTS", "ovba::decompress=sleep(10000)")
            .heartbeat(Duration::from_millis(900));
        let policy = metered(ScanPolicy::default().jobs(1).isolated(config));
        let start = std::time::Instant::now();
        let report = scan_paths_with_policy(det, &paths, &policy);
        let elapsed = start.elapsed();

        assert_eq!(report.scanned(), paths.len());
        match &report.records[poison_idx].outcome {
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            } => {
                assert!(detail.contains("quarantined"), "detail was {detail:?}");
                assert!(detail.contains("heartbeat"), "detail was {detail:?}");
            }
            other => panic!("expected a heartbeat quarantine, got {other:?}"),
        }
        // Two kills: the first attempt and the solo retry — then the batch
        // moves on instead of waiting out the 10 s stall even once.
        let snapshot = report.metrics.unwrap();
        assert_eq!(snapshot.histograms["isolate.heartbeat_kills"].total, 2);
        assert!(
            elapsed < Duration::from_secs(8),
            "heartbeat did not cut the stall short: {elapsed:?}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_document_too_large_for_the_pipe_waits_and_the_heartbeat_still_fires() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("pipe-bound");

        // With a cache, the supervisor sends documents' bytes. 16 inputs
        // at `jobs 1` are claimed two at a time, so the wedging macro
        // document shares its claim with a 1 MiB junk document, far more
        // than a pipe buffer holds. The junk must wait until the wedged
        // document is answered: written behind it, it would block the
        // supervisor on a full pipe, and the heartbeat would never fire.
        let paths: Vec<PathBuf> = (0..16)
            .map(|i| {
                let p = dir.join(format!("doc{i:02}.bin"));
                let bytes = match i {
                    0 => macro_document(),
                    1 => vec![b'j'; 1 << 20],
                    _ => format!("plain junk payload {i}").into_bytes(),
                };
                std::fs::write(&p, bytes).unwrap();
                p
            })
            .collect();
        let config = worker_config()
            .env("VBADET_FAULTPOINTS", "ovba::decompress=sleep(10000)")
            .heartbeat(Duration::from_millis(900));
        let cache = std::sync::Arc::new(vbadet::ScanCache::in_memory(64));
        let policy = metered(ScanPolicy::default().jobs(1).isolated(config)).with_cache(cache);
        let start = std::time::Instant::now();
        let report = scan_paths_with_policy(det, &paths, &policy);
        let elapsed = start.elapsed();

        match &report.records[0].outcome {
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            } => assert!(detail.contains("heartbeat"), "detail was {detail:?}"),
            other => panic!("expected a heartbeat quarantine, got {other:?}"),
        }
        let snapshot = report.metrics.as_ref().unwrap();
        assert_eq!(snapshot.histograms["isolate.heartbeat_kills"].total, 2);
        assert!(
            elapsed < Duration::from_secs(8),
            "the heartbeat waited on a blocked write: {elapsed:?}"
        );
        assert_survivors_match_in_process(det, &paths, 0, &report);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wedge_behind_a_finished_claim_mate_is_charged_to_the_wedged_document() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("wedge-mate");
        let (paths, poison_idx) = claim_mate_corpus(&dir);

        // The worker holds its claim mate's finished result while the
        // poison's request is buffered, then wedges on the poison. The
        // held result still goes out within the flush bound, so the
        // heartbeat fires on the poison, not on the finished document.
        let config = worker_config()
            .env("VBADET_FAULTPOINTS", "ovba::decompress=sleep(10000)")
            .heartbeat(Duration::from_millis(900));
        let policy = metered(ScanPolicy::default().jobs(1).isolated(config));
        let report = scan_paths_with_policy(det, &paths, &policy);

        assert_eq!(report.scanned(), paths.len());
        match &report.records[poison_idx].outcome {
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            } => {
                assert!(detail.contains("quarantined"), "detail was {detail:?}");
                assert!(detail.contains("heartbeat"), "detail was {detail:?}");
            }
            other => panic!("expected a heartbeat quarantine, got {other:?}"),
        }
        // The poison's first attempt and its solo retry; a third kill
        // would mean the claim mate was blamed for the wedge.
        let snapshot = report.metrics.as_ref().unwrap();
        assert_eq!(snapshot.histograms["isolate.heartbeat_kills"].total, 2);
        assert_eq!(snapshot.histograms["isolate.quarantines"].total, 1);
        assert_survivors_match_in_process(det, &paths, poison_idx, &report);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_abort_behind_a_finished_claim_mate_quarantines_only_the_poison() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("abort-mate");
        let (paths, poison_idx) = claim_mate_corpus(&dir);

        // An abort right after the claim mate finished may take its held
        // result down with the worker; the mate then gets a solo retry of
        // its own, and only the poison is quarantined.
        let config = worker_config().env("VBADET_FAULTPOINTS", "ole::parse=abort");
        let policy = metered(ScanPolicy::default().jobs(1).isolated(config));
        let report = scan_paths_with_policy(det, &paths, &policy);

        assert_eq!(report.scanned(), paths.len());
        match &report.records[poison_idx].outcome {
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            } => {
                assert!(detail.contains("quarantined"), "detail was {detail:?}");
                assert!(detail.contains("solo retry"), "detail was {detail:?}");
                assert_eq!(
                    detail.matches("SIGABRT").count(),
                    2,
                    "detail was {detail:?}"
                );
            }
            other => panic!("expected the poison document quarantined, got {other:?}"),
        }
        let snapshot = report.metrics.as_ref().unwrap();
        assert_eq!(snapshot.histograms["isolate.quarantines"].total, 1);
        assert_survivors_match_in_process(det, &paths, poison_idx, &report);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn isolate_kill_and_resume_reproduces_the_reference_exactly() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("resume");
        let paths = mixed_corpus(&dir, 12);

        let policy = metered(ScanPolicy::default().jobs(3).isolated(worker_config()));
        let reference = scan_paths_journaled(det, &paths, &policy, None, None);

        // The supervisor's collector dies (simulated crash) at the third
        // in-order record — the same crash surface the in-process engines
        // have, however the workers interleaved.
        configure("scan::between-docs", "panic(killed)@3").unwrap();
        let journal_path = dir.join("scan.jsonl");
        let mut journal = ScanJournal::create(&journal_path).unwrap();
        let crash = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None)
        }));
        assert!(crash.is_err(), "the injected kill should have escaped");
        clear();
        drop(journal);

        // The journal holds exactly the documents that finished in input
        // order before the kill; resuming — again under --isolate —
        // replays them without consulting a worker and scans the rest.
        let replay = replay_journal(&journal_path).unwrap();
        assert!(replay.warning.is_none());
        assert_eq!(replay.completed_count(), 2);
        let resumed = scan_paths_journaled(det, &paths, &policy, None, Some(&replay));
        assert_eq!(resumed.records, reference.records);

        // And the sequential engine resuming the same journal agrees.
        let seq = scan_paths_journaled(
            det,
            &paths,
            &metered(ScanPolicy::default()),
            None,
            Some(&replay),
        );
        assert_eq!(seq.records, reference.records);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_injected_drain_stops_cleanly_and_the_journal_resumes_to_the_full_report() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("drain");
        let paths = mixed_corpus(&dir, 8);

        let reference = scan_paths_journaled(det, &paths, &ScanPolicy::default(), None, None);

        // The drain latch trips (as a SIGINT handler would trip it) when
        // the engine polls before the third document.
        configure("scan::request-drain", "return@3").unwrap();
        let journal_path = dir.join("scan.jsonl");
        let mut journal = ScanJournal::create(&journal_path).unwrap();
        let policy = ScanPolicy::default().drain_on_interrupt();
        let report = scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None);
        clear();
        vbadet::scan::interrupt::reset();
        drop(journal);

        // A contiguous prefix was decided and journaled; the report says
        // it was interrupted rather than pretending the batch finished.
        assert!(report.interrupted);
        assert_eq!(report.scanned(), 2);
        assert_eq!(report.records[..], reference.records[..2]);
        assert!(report.journal_error.is_none());

        // Resume picks up where the drain stopped and lands on the exact
        // uninterrupted report — under the isolated engine, no less.
        let replay = replay_journal(&journal_path).unwrap();
        assert!(replay.warning.is_none());
        assert_eq!(replay.completed_count(), 2);
        let resumed = scan_paths_journaled(
            det,
            &paths,
            &ScanPolicy::default().jobs(2).isolated(worker_config()),
            None,
            Some(&replay),
        );
        assert!(!resumed.interrupted);
        assert_eq!(resumed.records, reference.records);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_injected_drain_leaves_the_same_prefix_and_journal_under_every_engine_shape() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("drain-shapes");
        // 64 inputs: isolate jobs 2 claims four at a time, so its workers
        // have documents in flight past the drain point.
        let paths = mixed_corpus(&dir, 64);
        let reference = scan_paths_journaled(det, &paths, &ScanPolicy::default(), None, None);

        let shapes = [
            ("jobs 1", ScanPolicy::default().jobs(1)),
            ("jobs 4", ScanPolicy::default().jobs(4)),
            (
                "isolate jobs 2",
                ScanPolicy::default().jobs(2).isolated(worker_config()),
            ),
        ];
        let mut runs = Vec::new();
        for (shape, policy) in shapes {
            configure("scan::request-drain", "return@3").unwrap();
            let journal_path = dir.join(format!("{}.jsonl", shape.replace(' ', "-")));
            let mut journal = ScanJournal::create(&journal_path).unwrap();
            let drained = metered(policy.clone()).drain_on_interrupt();
            let report = scan_paths_journaled(det, &paths, &drained, Some(&mut journal), None);
            // Only the in-order seam polls the injected drain: one hit per
            // emitted record plus the one that trips, whatever the workers
            // were doing.
            let polls = vbadet_faultpoint::hit_count("scan::request-drain");
            clear();
            vbadet::scan::interrupt::reset();
            drop(journal);

            assert!(report.interrupted, "{shape}: not interrupted");
            assert_eq!(report.scanned(), 2, "{shape}: wrong prefix length");
            assert_eq!(report.records[..], reference.records[..2], "{shape}");
            assert!(report.journal_error.is_none(), "{shape}");
            assert_eq!(polls, 3, "{shape}: drain site polled off the seam");

            let replay = replay_journal(&journal_path).unwrap();
            assert!(replay.warning.is_none(), "{shape}");
            assert_eq!(replay.completed_count(), 2, "{shape}");
            let resumed = scan_paths_journaled(det, &paths, &policy, None, Some(&replay));
            assert!(!resumed.interrupted, "{shape}");
            assert_eq!(
                resumed.records, reference.records,
                "{shape}: resume diverged"
            );

            let journal = std::fs::read(&journal_path).unwrap();
            runs.push((shape, journal, report.metrics.unwrap().counters_json()));
        }
        // Every engine's counters land only at the seam, so documents a
        // worker scanned past the drain point leave no counter trace.
        let (_, first_journal, first_counters) = &runs[0];
        for (shape, journal, counters) in &runs[1..] {
            assert_eq!(
                journal, first_journal,
                "{shape}: journal differs from jobs 1"
            );
            assert_eq!(
                counters, first_counters,
                "{shape}: counters differ from jobs 1"
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
