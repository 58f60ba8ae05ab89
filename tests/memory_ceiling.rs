//! The per-document memory ceiling (`--max-scan-mem-mb`) is charged to
//! the document's own scanning thread. This file installs the tracking
//! allocator as its global allocator, so a ceiling here really trips; the
//! other suites run without it, where the probe never moves.
//!
//! The allocator counts per thread, so the tests here need no guard
//! against each other: one test's allocations never reach another test's
//! thread.

use std::hint::black_box;
use std::sync::mpsc;
use std::thread;

use vbadet::memguard::{live_bytes, TrackingAllocator};
use vbadet::{scan_paths_journaled, MetricsSink, ScanJournal, ScanOutcome, ScanPolicy};
use vbadet_faultpoint::{Budget, BudgetExceeded};
use vbadet_ovba::VbaProjectBuilder;
use vbadet_repro::testkit::{fresh_dir, tiny_detector};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const CEILING: u64 = 1 << 20;

#[test]
fn a_sibling_threads_allocations_do_not_count_against_this_threads_ceiling() {
    let budget = Budget::new_guarded(
        None,
        None,
        Some((live_bytes as fn() -> u64, CEILING)),
        MetricsSink::disabled(),
    );
    // Thread B allocates twice the ceiling and holds it while thread A
    // (this one) checks its budget.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let sibling = thread::spawn(move || {
        let block = black_box(vec![1u8; 2 << 20]);
        held_tx.send(()).unwrap();
        release_rx.recv().unwrap();
        drop(block);
    });
    held_rx.recv().unwrap();
    assert_eq!(
        budget.checkpoint(),
        Ok(()),
        "a sibling thread's 2 MiB tripped this thread's 1 MiB ceiling"
    );
    release_tx.send(()).unwrap();
    sibling.join().unwrap();

    // Control: the same block held on this thread does trip it.
    let block = black_box(vec![1u8; 2 << 20]);
    assert_eq!(budget.checkpoint(), Err(BudgetExceeded::Memory));
    drop(block);
}

/// A one-module project whose module holds about 400 KB of source: under
/// a 1 MiB ceiling it scans alone with room to spare, but two or more at
/// once would not fit under one shared count.
fn big_project() -> Vec<u8> {
    let mut source = String::from("Sub Work()\r\n");
    while source.len() < 400_000 {
        source.push_str("    x = x + 1\r\n");
    }
    source.push_str("End Sub\r\n");
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", &source);
    b.build().unwrap()
}

#[test]
fn forty_big_projects_scan_alike_at_every_job_count_under_a_ceiling() {
    let det = tiny_detector();
    let dir = fresh_dir("memceiling");
    let doc = big_project();
    let paths: Vec<_> = (0..40)
        .map(|i| {
            let path = dir.join(format!("big{i:02}.bin"));
            std::fs::write(&path, &doc).unwrap();
            path
        })
        .collect();
    let policy = ScanPolicy::default().max_scan_mem_bytes(CEILING);
    // The records, and the journal as bytes, of one run at `jobs`.
    let run = |jobs: usize| {
        let journal_path = dir.join(format!("jobs{jobs}.jsonl"));
        let mut journal = ScanJournal::create(&journal_path).unwrap();
        let report = scan_paths_journaled(
            det,
            &paths,
            &policy.clone().jobs(jobs),
            Some(&mut journal),
            None,
        );
        drop(journal);
        (report.records, std::fs::read(&journal_path).unwrap())
    };

    let (sequential, sequential_journal) = run(1);
    for record in &sequential {
        assert!(
            matches!(record.outcome, ScanOutcome::Macros(_)),
            "{}: {:?}",
            record.path.display(),
            record.outcome
        );
    }
    let (parallel, parallel_journal) = run(4);
    assert_eq!(parallel, sequential);
    assert!(
        parallel_journal == sequential_journal,
        "the jobs 4 journal differs from the jobs 1 journal"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
