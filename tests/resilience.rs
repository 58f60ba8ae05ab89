//! Deadline- and crash-safety resilience suite (no fault injection
//! required — the feature-gated twin lives in `fault_injection.rs`).
//!
//! Three contracts are exercised here:
//!
//! 1. **Linear time bound.** A batch of `n` documents scanned under a
//!    per-document deadline `d` completes in `O(n·d)` wall-clock time,
//!    whatever the documents contain — including inputs engineered to
//!    stall the salvage path.
//! 2. **Budget isolation.** Each document gets a fresh budget; one
//!    timed-out document must not starve its neighbours.
//! 3. **Journal round-trip.** A journaled scan replays to exactly the
//!    outcomes the live scan produced, and a resumed scan reproduces the
//!    uninterrupted report.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbadet::{
    replay_journal, scan_bytes_with_policy, scan_documents_with_policy, scan_paths_journaled,
    FailureClass, ScanJournal, ScanOutcome, ScanPolicy,
};
use vbadet_corpus::{generate_macros, CorpusSpec, DocumentFactory};
use vbadet_ole::{OleBuilder, OleFile};
use vbadet_ovba::VbaProjectBuilder;
use vbadet_repro::testkit::{fresh_dir, tiny_detector};

fn base_documents() -> &'static Vec<Vec<u8>> {
    static DOCS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let spec = CorpusSpec::paper().scaled(0.01).with_seed(0xBEEF);
        let macros = generate_macros(&spec);
        let factory = DocumentFactory::new(&spec, &macros);
        factory
            .build_all()
            .into_iter()
            .map(|f| f.bytes)
            .take(8)
            .collect()
    })
}

/// A document engineered to make the salvage path expensive: a compound
/// file holding many long near-identical modules whose `dir` stream is
/// stomped, so the strict parser fails and salvage must decompress every
/// module and run its (quadratic, length-proportional) cross-stream dedup.
fn stall_document(modules: usize, prefix_kib: usize) -> Vec<u8> {
    let shared: String =
        "    x = x + 1 ' filler line to share a long prefix\r\n".repeat(prefix_kib * 1024 / 50);
    let mut b = VbaProjectBuilder::new("Stall");
    for i in 0..modules {
        let code = format!(
            "Attribute VB_Name = \"M{i}\"\r\nSub W{i}()\r\n{shared}    y = {i}\r\nEnd Sub\r\n"
        );
        b.add_module(&format!("M{i}"), &code);
    }
    let bin = b.build().unwrap();
    // Stomp the dir stream so the structured parse fails and the scan
    // falls through to salvage.
    let parsed = OleFile::parse(&bin).unwrap();
    let mut rebuilt = OleBuilder::new();
    for path in parsed.stream_paths().unwrap() {
        let data = parsed.open_stream(&path).unwrap();
        if path == "VBA/dir" {
            rebuilt.add_stream(&path, &vec![0xFF; data.len()]).unwrap();
        } else {
            rebuilt.add_stream(&path, &data).unwrap();
        }
    }
    rebuilt.build()
}

#[test]
fn fuel_budget_turns_the_salvage_stall_vector_into_a_timeout() {
    let det = tiny_detector();
    let doc = stall_document(24, 4);

    // Unbudgeted, the document is recoverable (salvage finds the modules).
    let unbounded = scan_bytes_with_policy(det, &doc, &ScanPolicy::default());
    assert!(
        matches!(unbounded, ScanOutcome::Salvaged(ref v) if !v.is_empty()),
        "expected salvage without a budget, got {unbounded:?}"
    );

    // Budgeted, the same bytes trip the meter long before the salvage
    // dedup finishes and come back as a typed timeout.
    let bounded = scan_bytes_with_policy(det, &doc, &ScanPolicy::default().fuel(64));
    assert!(
        matches!(
            bounded,
            ScanOutcome::Failed {
                class: FailureClass::Timeout,
                ..
            }
        ),
        "expected a fuel timeout, got {bounded:?}"
    );
}

#[test]
fn per_document_budgets_are_independent() {
    let det = tiny_detector();
    let stall = stall_document(24, 4);
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    let good = b.build().unwrap();
    let mut clean_ole = OleBuilder::new();
    clean_ole
        .add_stream("WordDocument", b"nothing here")
        .unwrap();
    let clean = clean_ole.build();

    let docs: Vec<(&str, &[u8])> = vec![
        ("stall.doc", &stall[..]),
        ("good.bin", &good[..]),
        ("clean.doc", &clean[..]),
    ];
    let report = scan_documents_with_policy(det, docs, &ScanPolicy::default().fuel(64));
    assert!(matches!(
        report.records[0].outcome,
        ScanOutcome::Failed {
            class: FailureClass::Timeout,
            ..
        }
    ));
    // The stalled neighbour must not have drained anyone else's budget.
    assert!(matches!(report.records[1].outcome, ScanOutcome::Macros(_)));
    assert!(matches!(report.records[2].outcome, ScanOutcome::Clean));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any mutant corpus scanned under a 50 ms per-document deadline
    /// completes within `n·deadline + ε`: the deadline, the amortized
    /// clock checks and the one budget per document together guarantee a
    /// linear wall-clock bound however hostile the bytes are.
    #[test]
    fn deadline_bounds_batch_wall_clock_linearly(seed in any::<u64>()) {
        let det = tiny_detector();
        let bases = base_documents();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut docs: Vec<Vec<u8>> = Vec::new();
        for base in bases {
            // One byte-flip mutant and one truncation mutant per base.
            let mut flipped = base.clone();
            for _ in 0..rng.gen_range(1..=8usize) {
                let i = rng.gen_range(0..flipped.len());
                flipped[i] ^= rng.gen_range(1..=255u8);
            }
            docs.push(flipped);
            docs.push(base[..rng.gen_range(1..base.len())].to_vec());
        }
        docs.push(stall_document(24, 4));

        let deadline = Duration::from_millis(50);
        let policy = ScanPolicy::default().deadline_ms(50);
        let labelled: Vec<(String, &[u8])> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| (format!("doc{i}"), d.as_slice()))
            .collect();

        let start = Instant::now();
        let report = scan_documents_with_policy(
            det,
            labelled.iter().map(|(n, d)| (n.as_str(), *d)),
            &policy,
        );
        let elapsed = start.elapsed();

        prop_assert_eq!(report.scanned(), docs.len());
        // ε absorbs per-document overshoot (the amortized clock check is
        // read every ~64 KiB of work), scoring time (not under budget) and
        // scheduler noise on a loaded CI machine.
        let epsilon = Duration::from_secs(3) + Duration::from_millis(100) * docs.len() as u32;
        let bound = deadline * docs.len() as u32 + epsilon;
        prop_assert!(
            elapsed < bound,
            "batch of {} took {elapsed:?}, bound was {bound:?}",
            docs.len()
        );
    }
}

#[test]
fn journaled_scan_replays_and_resumes_to_identical_outcomes() {
    let det = tiny_detector();
    let dir = fresh_dir("resilience");

    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    let good = b.build().unwrap();
    let mut clean_ole = OleBuilder::new();
    clean_ole.add_stream("WordDocument", b"plain").unwrap();

    let paths = [
        dir.join("good.bin"),
        dir.join("clean.doc"),
        dir.join("junk.txt"),
        dir.join("trunc.bin"),
    ];
    std::fs::write(&paths[0], &good).unwrap();
    std::fs::write(&paths[1], clean_ole.build()).unwrap();
    std::fs::write(&paths[2], b"not a document").unwrap();
    std::fs::write(&paths[3], &good[..9]).unwrap();

    let policy = ScanPolicy::default();

    // Uninterrupted reference run, no journal.
    let reference = scan_paths_journaled(det, &paths, &policy, None, None);
    assert!(reference.journal_error.is_none());

    // Journaled run: every outcome must be recoverable from the file.
    let journal_path = dir.join("scan.jsonl");
    let mut journal = ScanJournal::create(&journal_path).unwrap();
    let live = scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None);
    assert!(live.journal_error.is_none());
    assert_eq!(live.records, reference.records);

    let replay = replay_journal(&journal_path).unwrap();
    assert!(replay.warning.is_none());
    assert_eq!(replay.completed_count(), paths.len());
    for record in &reference.records {
        assert_eq!(
            replay.outcome_for(&record.path.display().to_string()),
            Some(&record.outcome),
            "journal must round-trip the outcome of {}",
            record.path.display()
        );
    }

    // A resumed run copies the journaled outcomes instead of rescanning
    // and writes a new journal that is itself complete.
    let resumed_journal_path = dir.join("resumed.jsonl");
    let mut resumed_journal = ScanJournal::create(&resumed_journal_path).unwrap();
    let resumed = scan_paths_journaled(
        det,
        &paths,
        &policy,
        Some(&mut resumed_journal),
        Some(&replay),
    );
    assert!(resumed.journal_error.is_none());
    assert_eq!(resumed.records, reference.records);
    let second_replay = replay_journal(&resumed_journal_path).unwrap();
    assert_eq!(second_replay.completed_count(), paths.len());

    let _ = std::fs::remove_dir_all(&dir);
}
