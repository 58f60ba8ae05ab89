//! Determinism suite for the parallel batch engine: `scan_paths_parallel`
//! must be observationally identical to the sequential engine — same
//! per-file outcomes, same ordering, same counters, byte-identical
//! serialized reports and journals — for any worker count, however the
//! scheduler interleaves completions.
//!
//! Every test serializes on `global_guard`: the equivalence runs spawn their
//! own worker pools (no point fighting the libtest thread pool for cores),
//! and the feature-gated stress case arms the process-global faultpoint
//! registry.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbadet::{
    replay_journal, scan_paths_journaled, scan_paths_parallel, scan_paths_with_policy,
    FailureClass, ScanJournal, ScanLimits, ScanOutcome, ScanPolicy, ScanReport,
};
use vbadet_corpus::{generate_macros, CorpusSpec, DocumentFactory};
use vbadet_ovba::VbaProjectBuilder;
use vbadet_repro::testkit::{
    clean_doc, fresh_dir, global_guard, macro_doc, salvage_wreck, tiny_detector,
};

/// Writes `n` documents cycling through every outcome family the engine
/// knows: parsed macros, clean, junk, truncated, byte-flipped mutants,
/// empty files, and salvage-only wreckage.
fn write_mixed_corpus(dir: &Path, n: usize) -> Vec<PathBuf> {
    let mut rng = StdRng::seed_from_u64(0x9A7A11E1);
    let mut paths = Vec::with_capacity(n);
    for i in 0..n {
        let (name, bytes): (String, Vec<u8>) = match i % 7 {
            0 | 1 => (format!("doc{i:04}.bin"), macro_doc(i)),
            2 => (format!("doc{i:04}.doc"), clean_doc(i)),
            3 => (
                format!("doc{i:04}.txt"),
                format!("junk payload {i}").into_bytes(),
            ),
            4 => {
                let full = macro_doc(i);
                let cut = rng.gen_range(1..full.len());
                (format!("doc{i:04}.trunc.bin"), full[..cut].to_vec())
            }
            5 => {
                let mut bytes = macro_doc(i);
                for _ in 0..rng.gen_range(1..=8usize) {
                    let j = rng.gen_range(0..bytes.len());
                    bytes[j] ^= rng.gen_range(1..=255u8);
                }
                (format!("doc{i:04}.flip.bin"), bytes)
            }
            _ => {
                if i % 14 == 6 {
                    (format!("doc{i:04}.empty"), Vec::new())
                } else {
                    (format!("doc{i:04}.wreck"), salvage_wreck(i))
                }
            }
        };
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        paths.push(path);
    }
    paths
}

/// Serializes a report the way the journal does — the strictest
/// byte-level equality the system defines for scan results.
fn serialized(report: &ScanReport) -> Vec<u8> {
    let dir = fresh_dir("parscan-ser");
    let path = dir.join("report.jsonl");
    let mut journal = ScanJournal::create(&path).unwrap();
    for record in &report.records {
        journal.done(record).unwrap();
    }
    journal.sync().unwrap();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn parallel_equals_sequential_on_clean_hostile_and_mixed_corpora() {
    let _serial = global_guard();
    let det = tiny_detector();

    let clean_dir = fresh_dir("clean");
    let clean: Vec<PathBuf> = (0..24)
        .map(|i| {
            let p = clean_dir.join(format!("c{i:02}.doc"));
            std::fs::write(
                &p,
                if i % 2 == 0 {
                    clean_doc(i)
                } else {
                    macro_doc(i)
                },
            )
            .unwrap();
            p
        })
        .collect();

    let hostile_dir = fresh_dir("hostile");
    let hostile: Vec<PathBuf> = (0..24)
        .map(|i| {
            let p = hostile_dir.join(format!("h{i:02}.bin"));
            let full = macro_doc(i);
            let bytes = match i % 3 {
                0 => full[..1 + i % (full.len() - 1)].to_vec(),
                1 => format!("garbage {i}").into_bytes(),
                _ => salvage_wreck(i),
            };
            std::fs::write(&p, bytes).unwrap();
            p
        })
        .collect();

    let mixed_dir = fresh_dir("mixed");
    let mixed = write_mixed_corpus(&mixed_dir, 63);

    let policies = [
        ScanPolicy::default(),
        ScanPolicy::with_limits(ScanLimits::strict()),
    ];
    for (corpus_name, paths) in [("clean", &clean), ("hostile", &hostile), ("mixed", &mixed)] {
        for (p_idx, policy) in policies.iter().enumerate() {
            let sequential = scan_paths_with_policy(det, paths, policy);
            let seq_bytes = serialized(&sequential);
            for jobs in [2, 4, 8] {
                let parallel = scan_paths_parallel(det, paths, policy, jobs);
                assert_eq!(
                    parallel.records, sequential.records,
                    "{corpus_name}/policy{p_idx}/jobs={jobs}: records diverged"
                );
                assert_eq!(parallel.journal_error, sequential.journal_error);
                assert_eq!(
                    serialized(&parallel),
                    seq_bytes,
                    "{corpus_name}/policy{p_idx}/jobs={jobs}: serialization diverged"
                );
            }
        }
    }

    for dir in [clean_dir, hostile_dir, mixed_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn parallel_journal_is_byte_identical_to_the_sequential_journal() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("journal");
    let paths = write_mixed_corpus(&dir, 35);
    let policy = ScanPolicy::default();

    let seq_journal = dir.join("seq.jsonl");
    let mut journal = ScanJournal::create(&seq_journal).unwrap();
    let sequential = scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None);
    drop(journal);
    assert!(sequential.journal_error.is_none());

    let par_journal = dir.join("par.jsonl");
    let mut journal = ScanJournal::create(&par_journal).unwrap();
    let par_policy = ScanPolicy {
        jobs: 4,
        ..policy.clone()
    };
    let parallel = scan_paths_journaled(det, &paths, &par_policy, Some(&mut journal), None);
    drop(journal);
    assert!(parallel.journal_error.is_none());

    assert_eq!(parallel.records, sequential.records);
    // The collector owns the only journal writer and emits in input
    // order, so the two files must match byte for byte — no interleaving,
    // no reordering, no torn lines.
    assert_eq!(
        std::fs::read(&par_journal).unwrap(),
        std::fs::read(&seq_journal).unwrap()
    );
    // And both replay to every outcome the live reports carry.
    let replay = replay_journal(&par_journal).unwrap();
    assert!(replay.warning.is_none());
    assert_eq!(replay.completed_count(), paths.len());
    for record in &sequential.records {
        assert_eq!(
            replay.outcome_for(&record.path.display().to_string()),
            Some(&record.outcome)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance bar: a 500-document mixed corpus, jobs=4, byte-equal
/// serialized reports.
#[test]
fn five_hundred_document_mixed_corpus_is_byte_equal_at_jobs_4() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("accept500");
    let paths = write_mixed_corpus(&dir, 500);

    let policy = ScanPolicy::default();
    let sequential = scan_paths_with_policy(det, &paths, &policy);
    let parallel = scan_paths_parallel(det, &paths, &policy, 4);

    assert_eq!(parallel.scanned(), 500);
    assert_eq!(parallel.records, sequential.records);
    assert_eq!(serialized(&parallel), serialized(&sequential));
    // The corpus is genuinely mixed — every counter is exercised.
    assert!(parallel.clean() > 0, "corpus should have clean documents");
    assert!(
        parallel.salvaged() > 0,
        "corpus should have salvage-only wrecks"
    );
    assert!(
        parallel.failed() > 0,
        "corpus should have hostile documents"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_factory_documents_scan_identically_in_parallel() {
    // Real container files (OLE .doc/.xls and OOXML .docm/.xlsm) from the
    // synthetic corpus factory, not just hand-built minimal projects.
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("factory");
    let spec = CorpusSpec::paper().scaled(0.01).with_seed(0xBEEF);
    let macros = generate_macros(&spec);
    let files = DocumentFactory::new(&spec, &macros).build_all();
    let paths: Vec<PathBuf> = files
        .iter()
        .take(24)
        .map(|f| {
            let p = dir.join(&f.name);
            std::fs::write(&p, &f.bytes).unwrap();
            p
        })
        .collect();

    let sequential = scan_paths_with_policy(det, &paths, &ScanPolicy::default());
    for jobs in [2, 4] {
        let parallel = scan_paths_parallel(det, &paths, &ScanPolicy::default(), jobs);
        assert_eq!(parallel.records, sequential.records, "jobs={jobs}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn input_order_survives_inverted_completion_order() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("order");

    // The first document is by far the slowest (a large multi-module
    // project); every later one is tiny. Workers finish the tail long
    // before index 0 — the collector must still emit index 0 first.
    let mut big = VbaProjectBuilder::new("Big");
    for m in 0..12 {
        let body = format!("    x = {m}\r\n").repeat(600);
        big.add_module(
            &format!("M{m}"),
            &format!("Sub S{m}()\r\n{body}End Sub\r\n"),
        );
    }
    let mut paths = vec![dir.join("doc0000.big.bin")];
    std::fs::write(&paths[0], big.build().unwrap()).unwrap();
    for i in 1..40 {
        let p = dir.join(format!("doc{i:04}.bin"));
        std::fs::write(&p, macro_doc(i)).unwrap();
        paths.push(p);
    }

    let report = scan_paths_parallel(det, &paths, &ScanPolicy::default(), 4);
    let order: Vec<&PathBuf> = report.records.iter().map(|r| &r.path).collect();
    let expected: Vec<&PathBuf> = paths.iter().collect();
    assert_eq!(order, expected, "records must stay in input order");
    assert_eq!(
        report.records,
        scan_paths_with_policy(det, &paths, &ScanPolicy::default()).records
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Stress: ≥200 documents where one "stalls" — it burns its per-document
/// budget (fuel is the deterministic twin of the wall-clock deadline and
/// trips the same [`FailureClass::Timeout`] path) on whichever worker
/// claimed it — without starving its siblings, and the batch completes.
#[test]
fn stress_budget_trip_on_one_worker_does_not_starve_siblings() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("stress-budget");

    const TOTAL: usize = 220;
    const STALL_AT: usize = 17;
    let mut paths = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        let path;
        if i == STALL_AT {
            // A single module an order of magnitude past the fuel
            // allowance: this document — and only this one — trips.
            let body = "    x = x + 1 ' busywork\r\n".repeat(20_000);
            let mut b = VbaProjectBuilder::new("Stall");
            b.add_module("M", &format!("Sub S()\r\n{body}End Sub\r\n"));
            path = dir.join(format!("doc{i:04}.stall.bin"));
            std::fs::write(&path, b.build().unwrap()).unwrap();
        } else if i % 3 == 0 {
            path = dir.join(format!("doc{i:04}.doc"));
            std::fs::write(&path, clean_doc(i)).unwrap();
        } else {
            path = dir.join(format!("doc{i:04}.bin"));
            std::fs::write(&path, macro_doc(i)).unwrap();
        }
        paths.push(path);
    }

    let policy = ScanPolicy::default().fuel(64);
    let parallel = scan_paths_parallel(det, &paths, &policy, 4);
    assert_eq!(parallel.scanned(), TOTAL);
    assert_eq!(
        parallel.failed_with(FailureClass::Timeout),
        1,
        "exactly one budget trip"
    );
    assert!(matches!(
        parallel.records[STALL_AT].outcome,
        ScanOutcome::Failed {
            class: FailureClass::Timeout,
            ..
        }
    ));
    // Siblings keep their own budgets: nothing else failed at all.
    assert_eq!(parallel.failed(), 1);
    assert_eq!(
        parallel.records,
        scan_paths_with_policy(det, &paths, &policy).records
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Stress: a document that panics the scanner mid-parse is contained on
/// its worker — the batch completes, order holds, and only the poisoned
/// documents are lost. Needs the fault-injection registry, so it runs in
/// the `--features faultpoints` verify pass.
#[cfg(feature = "faultpoints")]
#[test]
fn stress_contained_panic_on_a_worker_completes_the_batch() {
    let _serial = global_guard();
    vbadet_faultpoint::clear();
    let det = tiny_detector();
    let dir = fresh_dir("stress-panic");

    const TOTAL: usize = 200;
    const ARM_AT: u64 = 150;
    let paths: Vec<PathBuf> = (0..TOTAL)
        .map(|i| {
            let p = dir.join(format!("doc{i:04}.bin"));
            std::fs::write(&p, macro_doc(i)).unwrap();
            p
        })
        .collect();

    // `scan::full-parse` fires exactly once per document; from the 150th
    // firing onward it panics. Which documents hit 150+ depends on worker
    // scheduling — the invariants that must not depend on it: the batch
    // completes, order holds, and exactly (TOTAL - ARM_AT + 1) documents
    // are reported as contained panics.
    vbadet_faultpoint::configure("scan::full-parse", "panic(injected worker bug)@150").unwrap();
    let report = scan_paths_parallel(det, &paths, &ScanPolicy::default(), 4);
    vbadet_faultpoint::clear();

    assert_eq!(report.scanned(), TOTAL);
    assert_eq!(
        report.failed_with(FailureClass::Panic),
        TOTAL - ARM_AT as usize + 1,
        "every armed hit must be contained as a per-document panic record"
    );
    let order: Vec<&PathBuf> = report.records.iter().map(|r| &r.path).collect();
    let expected: Vec<&PathBuf> = paths.iter().collect();
    assert_eq!(order, expected);
    for record in &report.records {
        match &record.outcome {
            ScanOutcome::Macros(_) => {}
            ScanOutcome::Failed {
                class: FailureClass::Panic,
                detail,
            } => {
                assert!(detail.contains("injected worker bug"), "detail: {detail}");
            }
            other => panic!("unexpected outcome {other:?} for {}", record.path.display()),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
