//! Fault-injection suite: only meaningful when the `faultpoints` feature
//! compiles the injection registry in, so the whole file is gated.
//!
//! The faultpoint registry is process-global, and Rust runs integration
//! tests in parallel threads — every test here serializes on
//! `global_guard`, which clears the registry on entry; each test clears
//! it again on exit.
#![cfg(feature = "faultpoints")]

use std::panic::AssertUnwindSafe;

use vbadet::{
    replay_journal, scan_bytes_with_policy, scan_paths_journaled, scan_paths_with_policy,
    FailureClass, ScanJournal, ScanOutcome, ScanPolicy,
};
use vbadet_faultpoint::{clear, configure, hit_count};
use vbadet_repro::testkit::{
    clean_document, fresh_dir, global_guard, macro_document, tiny_detector,
};

#[test]
fn an_injected_parser_panic_is_contained_per_document() {
    let _guard = global_guard();
    let det = tiny_detector();
    let doc = macro_document();

    // The parse blows up with a simulated parser bug.
    configure("scan::full-parse", "panic(injected parser bug)").unwrap();

    // The panic is contained and typed; the document is lost.
    let flat = scan_bytes_with_policy(det, &doc, &ScanPolicy::default());
    match &flat {
        ScanOutcome::Failed {
            class: FailureClass::Panic,
            detail,
        } => {
            assert!(
                detail.contains("injected parser bug"),
                "detail was {detail:?}"
            )
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }

    // The contained panic leaves nothing behind: once the fault is gone,
    // the same bytes scan normally on the same thread.
    clear();
    let after = scan_bytes_with_policy(det, &doc, &ScanPolicy::default());
    assert!(
        matches!(&after, ScanOutcome::Macros(v) if v.len() == 1),
        "expected a clean rescan, got {after:?}"
    );
}

#[test]
fn injected_stall_is_cut_short_by_the_deadline() {
    let _guard = global_guard();
    let det = tiny_detector();
    let doc = macro_document();

    // The decompressor sleeps well past the document's 40 ms deadline.
    configure("ovba::decompress", "sleep(120)").unwrap();

    let start = std::time::Instant::now();
    let outcome = scan_bytes_with_policy(det, &doc, &ScanPolicy::default().deadline_ms(40));
    let elapsed = start.elapsed();

    assert!(
        matches!(
            outcome,
            ScanOutcome::Failed {
                class: FailureClass::Timeout,
                ..
            }
        ),
        "expected a deadline timeout, got {outcome:?}"
    );
    // One sleep fires before the first post-stall checkpoint; the scan must
    // not go on to stall again in later stages.
    assert!(
        elapsed < std::time::Duration::from_millis(1500),
        "stalled scan took {elapsed:?}"
    );

    clear();
}

#[test]
fn killed_scan_resumes_from_its_journal_without_rescanning_finished_docs() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("faultkill");

    let paths = [
        dir.join("a.bin"),
        dir.join("b.doc"),
        dir.join("c.bin"),
        dir.join("d.txt"),
    ];
    std::fs::write(&paths[0], macro_document()).unwrap();
    std::fs::write(&paths[1], clean_document()).unwrap();
    std::fs::write(&paths[2], macro_document()).unwrap();
    std::fs::write(&paths[3], b"not a document at all").unwrap();

    let policy = ScanPolicy::default();
    let reference = scan_paths_journaled(det, &paths, &policy, None, None);

    // The batch loop dies (simulated crash) when it reaches document 3.
    // `scan::between-docs` fires outside the per-document catch_unwind, so
    // the panic escapes and takes the scan down mid-batch.
    configure("scan::between-docs", "panic(killed)@3").unwrap();
    let journal_path = dir.join("scan.jsonl");
    let mut journal = ScanJournal::create(&journal_path).unwrap();
    let crash = std::panic::catch_unwind(AssertUnwindSafe(|| {
        scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None)
    }));
    assert!(crash.is_err(), "the injected kill should have escaped");
    assert_eq!(hit_count("scan::between-docs"), 3);
    clear();
    drop(journal);

    // The journal holds the two documents that finished before the kill.
    let replay = replay_journal(&journal_path).unwrap();
    assert!(replay.warning.is_none());
    assert_eq!(replay.completed_count(), 2);
    assert!(replay.in_flight.is_empty());

    // Resuming replays those two and scans the rest; the merged report is
    // indistinguishable from the run that never crashed.
    let resumed = scan_paths_journaled(det, &paths, &policy, None, Some(&replay));
    assert_eq!(resumed.records, reference.records);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_write_is_surfaced_and_the_tail_is_recoverable() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("faulttorn");

    let paths = [dir.join("a.bin"), dir.join("b.doc"), dir.join("c.bin")];
    std::fs::write(&paths[0], macro_document()).unwrap();
    std::fs::write(&paths[1], clean_document()).unwrap();
    std::fs::write(&paths[2], macro_document()).unwrap();

    // The second `done` record is torn mid-line (half the bytes reach the
    // disk, then the write errors out).
    configure("journal::torn-write", "return@2").unwrap();
    let journal_path = dir.join("scan.jsonl");
    let mut journal = ScanJournal::create(&journal_path).unwrap();
    let report = scan_paths_journaled(
        det,
        &paths,
        &ScanPolicy::default(),
        Some(&mut journal),
        None,
    );
    clear();
    drop(journal);

    // The scan itself still finishes every document — journaling is
    // best-effort — but the failure is reported, not swallowed.
    assert_eq!(report.scanned(), paths.len());
    let err = report
        .journal_error
        .as_deref()
        .expect("journal error must surface");
    assert!(err.contains("torn"), "journal error was {err:?}");

    // Replay degrades gracefully: the record before the tear survives, the
    // torn document is re-attempted, and the damage is a warning.
    let replay = replay_journal(&journal_path).unwrap();
    assert_eq!(replay.completed_count(), 1);
    assert_eq!(replay.in_flight, vec![paths[1].display().to_string()]);
    assert!(replay.warning.is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_kill_and_resume_reproduces_the_sequential_reference_exactly() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("parkill");

    let paths: Vec<_> = (0..12)
        .map(|i| {
            let p = dir.join(format!("doc{i:02}.bin"));
            let bytes = match i % 3 {
                0 => macro_document(),
                1 => clean_document(),
                _ => b"not a document at all".to_vec(),
            };
            std::fs::write(&p, bytes).unwrap();
            p
        })
        .collect();

    let policy = ScanPolicy {
        jobs: 4,
        ..ScanPolicy::default()
    };
    let reference = scan_paths_journaled(det, &paths, &policy, None, None);

    // In parallel mode `scan::between-docs` fires on the collector, once
    // per in-order emitted record — so kill@3 dies with exactly documents
    // 1-2 journaled, the same crash surface the sequential engine has,
    // however the four workers interleaved.
    configure("scan::between-docs", "panic(killed)@3").unwrap();
    let journal_path = dir.join("scan.jsonl");
    let mut journal = ScanJournal::create(&journal_path).unwrap();
    let crash = std::panic::catch_unwind(AssertUnwindSafe(|| {
        scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None)
    }));
    assert!(
        crash.is_err(),
        "the injected kill should have escaped the worker pool"
    );
    assert_eq!(hit_count("scan::between-docs"), 3);
    clear();
    drop(journal);

    let replay = replay_journal(&journal_path).unwrap();
    assert!(replay.warning.is_none());
    assert_eq!(replay.completed_count(), 2);
    assert!(replay.in_flight.is_empty());

    // Resuming — again with four workers — replays the two finished
    // documents and scans the rest; the merged report matches both the
    // parallel reference and the sequential engine's resume of the same
    // journal.
    let resumed = scan_paths_journaled(det, &paths, &policy, None, Some(&replay));
    assert_eq!(resumed.records, reference.records);
    let seq_policy = ScanPolicy {
        jobs: 1,
        ..policy.clone()
    };
    let seq_resumed = scan_paths_journaled(det, &paths, &seq_policy, None, Some(&replay));
    assert_eq!(resumed.records, seq_resumed.records);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_write_under_concurrency_surfaces_once_with_no_interleaved_lines() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("partorn");

    let paths: Vec<_> = (0..8)
        .map(|i| {
            let p = dir.join(format!("doc{i:02}.bin"));
            std::fs::write(
                &p,
                if i % 2 == 0 {
                    macro_document()
                } else {
                    clean_document()
                },
            )
            .unwrap();
            p
        })
        .collect();

    configure("journal::torn-write", "return@2").unwrap();
    let journal_path = dir.join("scan.jsonl");
    let mut journal = ScanJournal::create(&journal_path).unwrap();
    let policy = ScanPolicy {
        jobs: 4,
        ..ScanPolicy::default()
    };
    let report = scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None);
    clear();
    drop(journal);

    // Every document still scanned; the write failure surfaces exactly
    // once, through the collector that owns the sole journal writer.
    assert_eq!(report.scanned(), paths.len());
    let err = report
        .journal_error
        .as_deref()
        .expect("journal error must surface");
    assert!(err.contains("torn"), "journal error was {err:?}");

    // The journal's lines were written by one thread in input order: every
    // complete line is a whole JSON object — the only damage is the single
    // torn tail, which replay downgrades to a warning.
    let raw = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = raw.split('\n').collect();
    for line in &lines[..lines.len() - 1] {
        assert!(
            line.starts_with('{') && line.ends_with('}') || line.is_empty(),
            "interleaved or torn journal line: {line:?}"
        );
    }
    let replay = replay_journal(&journal_path).unwrap();
    assert_eq!(replay.completed_count(), 1);
    assert_eq!(replay.in_flight, vec![paths[1].display().to_string()]);
    assert!(replay.warning.is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_growing_past_the_size_cap_between_stat_and_read_is_limit_exceeded() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("statrace");
    let mut policy = ScanPolicy::default();
    policy.limits.max_file_size = 2048;
    let cap = policy.limits.max_file_size;

    // Each file passes the size check at 64 bytes, then grows past the cap
    // inside the injected stat→read gap: once by an appender, once to a
    // 64 MiB sparse file. The engine must re-check after the read: growth
    // is a typed LimitExceeded, never an oversized allocation handed to
    // the parsers, and the read itself stops one byte past the cap.
    for name in ["appended", "sparse"] {
        let victim = dir.join(format!("{name}.bin"));
        std::fs::write(&victim, vec![0u8; 64]).unwrap();
        configure("scan::stat-read-gap", "sleep(200)").unwrap();
        let grower = {
            let victim = victim.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(40));
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&victim)
                    .unwrap();
                match name {
                    "appended" => std::io::Write::write_all(&mut file, &vec![0u8; 8192]).unwrap(),
                    _ => file.set_len(64 << 20).unwrap(),
                }
            })
        };
        let report = scan_paths_with_policy(det, &[&victim], &policy);
        grower.join().unwrap();
        clear();

        match &report.records[0].outcome {
            ScanOutcome::Failed {
                class: FailureClass::LimitExceeded,
                detail,
            } => {
                assert!(detail.contains("grew"), "{name}: detail was {detail:?}");
                let read: u64 = detail
                    .split_once(" bytes read")
                    .and_then(|(head, _)| head.rsplit(' ').next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("{name}: no byte count in {detail:?}"));
                assert!(
                    read <= cap + 1,
                    "{name}: read {read} bytes past a {cap}-byte cap"
                );
            }
            other => panic!("{name}: expected LimitExceeded after mid-read growth, got {other:?}"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cache_open_stopped_mid_compaction_reopens_to_the_same_hits() {
    use std::sync::Arc;
    use vbadet::ScanCache;
    use vbadet_repro::testkit::{clean_doc, macro_doc};

    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("compaction");
    let paths: Vec<_> = (0..6)
        .map(|i| {
            let path = dir.join(format!("doc{i}.bin"));
            let bytes = if i % 2 == 0 {
                macro_doc(i)
            } else {
                clean_doc(i)
            };
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();
    let store = dir.join("store");
    {
        let cache = ScanCache::persistent(&store, 64).unwrap();
        let policy = ScanPolicy::default().with_cache(Arc::new(cache));
        scan_paths_with_policy(det, &paths, &policy);
    }
    let segments = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(segments(&store), ["seg-000001.jsonl"]);
    // A second segment holding the same entries gives the open two
    // segments to delete, so the stop between deletions is reachable.
    std::fs::copy(
        store.join("seg-000001.jsonl"),
        store.join("seg-000002.jsonl"),
    )
    .unwrap();
    let copy = |tag: &str| {
        let to = dir.join(tag);
        std::fs::create_dir_all(&to).unwrap();
        for name in segments(&store) {
            std::fs::copy(store.join(&name), to.join(&name)).unwrap();
        }
        to
    };
    let hits = |cache: &ScanCache| {
        let mut entries = cache.entries();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    };
    let uninterrupted = hits(&ScanCache::persistent(copy("whole"), 64).unwrap());
    assert_eq!(uninterrupted.len(), paths.len());

    for (site, left) in [
        ("cache::compact-synced", 3),
        ("cache::compact-between-deletes", 2),
    ] {
        let stopped = copy(site.trim_start_matches("cache::"));
        // A panic at the site stops the open there, as a crash would.
        configure(site, "panic(stopped)").unwrap();
        let open = std::panic::catch_unwind(|| ScanCache::persistent(&stopped, 64));
        assert_eq!(hit_count(site), 1, "{site}");
        clear();
        assert!(open.is_err(), "{site}: the open must stop at the site");
        assert_eq!(segments(&stopped).len(), left, "{site}");
        let reopened = ScanCache::persistent(&stopped, 64).unwrap();
        assert!(reopened.load_warnings().is_empty(), "{site}");
        assert_eq!(hits(&reopened), uninterrupted, "{site}");
        assert_eq!(segments(&stopped), ["seg-000004.jsonl"], "{site}");
        // And the reopened cache answers every document from its entries.
        let policy =
            vbadet_repro::testkit::metered(ScanPolicy::default()).with_cache(Arc::new(reopened));
        let report = scan_paths_with_policy(det, &paths, &policy);
        let snapshot = report.metrics.unwrap();
        assert_eq!(snapshot.histograms["cache.hits"].count, paths.len() as u64);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
