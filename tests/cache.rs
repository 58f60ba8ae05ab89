//! Content-addressed scan-cache equivalence suite.
//!
//! The cache's contract is that it is *observationally invisible* except
//! for speed: cache-off, cold-cache and warm-cache runs must produce
//! byte-identical records and byte-identical deterministic counters
//! across every engine (sequential, the thread pool, the process-isolation
//! supervisor, and the resident service). The always-on tests prove that
//! equivalence, plus the invalidation rules: retraining the detector or
//! changing any outcome-affecting policy field is a clean full re-scan,
//! never a stale verdict.
//!
//! The `faultpoints`-gated tests prove the cache composes with the crash
//! discipline: a kill@N + `--resume` with a warm cache equals an uncached
//! resume, the stat→read growth race still classifies as `LimitExceeded`
//! with caching on (and the grown file is never cached), the cache
//! lookup's single-flight dedupes concurrent identical serve requests,
//! and a file swapped after the isolate supervisor's read — even for
//! bytes of the same size under the old mtime — never puts a verdict on
//! other bytes under its digest: the worker scans the bytes that were
//! digested, so a follower only ever gets their verdict.
//!
//! The faultpoint registry and the drain latch are process-global, so
//! every test serializes on `global_guard`.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use vbadet::json::hex;
use vbadet::{
    scan_paths_with_policy, Detector, DetectorConfig, IsolateConfig, ScanCache, ScanMetrics,
    ScanPolicy, ServeConfig,
};
use vbadet_corpus::CorpusSpec;
use vbadet_repro::testkit::{
    clean_document, docm_document, fresh_dir, global_guard, macro_doc, macro_document, metered,
    tiny_detector, with_server, Client,
};

fn worker_config() -> IsolateConfig {
    IsolateConfig::new(vec![env!("CARGO_BIN_EXE_isolation_worker").to_string()])
}

/// A duplicate-heavy corpus: 6 distinct contents (macros, clean OLE,
/// OOXML, junk, a truncated project, an empty file), each repeated —
/// exactly the shape a mail-attachment scanner sees.
fn duplicate_corpus(dir: &Path, docs: usize) -> Vec<PathBuf> {
    let truncated = {
        let full = macro_document();
        let cut = full.len() / 2;
        full[..cut].to_vec()
    };
    (0..docs)
        .map(|i| {
            let p = dir.join(format!("doc{i:02}.bin"));
            let bytes = match i % 6 {
                0 => macro_document(),
                1 => clean_document(),
                2 => docm_document(),
                3 => b"not a document at all".to_vec(),
                4 => truncated.clone(),
                _ => Vec::new(),
            };
            std::fs::write(&p, bytes).unwrap();
            p
        })
        .collect()
}

/// Distinct contents in a [`duplicate_corpus`] of `docs` documents.
fn unique_contents(docs: usize) -> u64 {
    docs.min(6) as u64
}

fn hist_total(metrics: &ScanMetrics, label: &str) -> u64 {
    metrics.histograms.get(label).map_or(0, |h| h.total)
}

/// Runs `batch` on a helper thread and fails the test if it has not
/// returned within two minutes: a single-flight deadlock must be a
/// failure, not a hung suite.
fn within_bound<R: Send + 'static>(batch: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(batch());
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("the batch did not return within 120 s")
}

#[test]
fn cold_cache_is_byte_identical_to_cache_off_across_every_engine() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("cold-equiv");

    // The isolate engine gets 96 documents so that its `--jobs 3` claims
    // hold four documents each — several cache leads per claim, on keys
    // the other threads are looking up at the same time.
    let engines: Vec<(&str, ScanPolicy, usize)> = vec![
        ("sequential", ScanPolicy::default(), 18),
        ("jobs-4", ScanPolicy::default().jobs(4), 18),
        (
            "isolate",
            ScanPolicy::default().jobs(3).isolated(worker_config()),
            96,
        ),
    ];
    for (name, base, docs) in engines {
        let paths = duplicate_corpus(&dir, docs);
        let run = |policy: ScanPolicy| {
            let paths = paths.clone();
            within_bound(move || scan_paths_with_policy(det, &paths, &policy))
        };
        let off = run(metered(base.clone()));
        let cold_policy = metered(base.clone()).with_cache(Arc::new(ScanCache::in_memory(1024)));
        let cold = run(cold_policy);

        assert_eq!(off.records, cold.records, "{name}: cold records diverge");
        let off_counters = off.metrics.unwrap().counters_json();
        let cold_metrics = cold.metrics.unwrap();
        assert_eq!(
            off_counters,
            cold_metrics.counters_json(),
            "{name}: cold deterministic counters diverge"
        );
        // Cache traffic is histogram-side telemetry only — it must never
        // leak into the deterministic counters section.
        assert!(!off_counters.contains("cache."), "{name}: {off_counters}");
        // A duplicate-heavy corpus hits even on the cold pass (later
        // copies find the first copy's entry).
        assert!(
            hist_total(&cold_metrics, "cache.inserts") >= unique_contents(paths.len()),
            "{name}: no inserts recorded"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_serves_every_document_and_stays_byte_identical() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("warm-equiv");
    let paths = duplicate_corpus(&dir, 18);
    let docs = paths.len() as u64;

    let off = scan_paths_with_policy(det, &paths, &metered(ScanPolicy::default()));
    let cache = Arc::new(ScanCache::in_memory(1024));

    let cold_policy = metered(ScanPolicy::default()).with_cache(Arc::clone(&cache));
    let cold = scan_paths_with_policy(det, &paths, &cold_policy);
    let cold_metrics = cold.metrics.unwrap();
    // Sequentially, exactly one miss per distinct content; every later
    // duplicate hits.
    assert_eq!(
        hist_total(&cold_metrics, "cache.misses"),
        unique_contents(paths.len())
    );
    assert_eq!(
        hist_total(&cold_metrics, "cache.hits"),
        docs - unique_contents(paths.len())
    );

    // The warm pass re-scans nothing: every document is a hit, and both
    // the records and the deterministic counters still match cache-off.
    let warm_policy = metered(ScanPolicy::default()).with_cache(Arc::clone(&cache));
    let warm = scan_paths_with_policy(det, &paths, &warm_policy);
    assert_eq!(off.records, cold.records);
    assert_eq!(off.records, warm.records);
    let warm_metrics = warm.metrics.unwrap();
    assert_eq!(hist_total(&warm_metrics, "cache.hits"), docs);
    assert_eq!(hist_total(&warm_metrics, "cache.misses"), 0);
    let off_counters = off.metrics.unwrap().counters_json();
    assert_eq!(off_counters, cold_metrics.counters_json());
    assert_eq!(off_counters, warm_metrics.counters_json());

    // A warm cache warms the *other* engines too: same entries, same key.
    let warm_par = scan_paths_with_policy(
        det,
        &paths,
        &metered(ScanPolicy::default().jobs(4)).with_cache(Arc::clone(&cache)),
    );
    assert_eq!(off.records, warm_par.records);
    let par_metrics = warm_par.metrics.unwrap();
    assert_eq!(hist_total(&par_metrics, "cache.hits"), docs);
    assert_eq!(off_counters, par_metrics.counters_json());

    let warm_iso = scan_paths_with_policy(
        det,
        &paths,
        &metered(ScanPolicy::default().jobs(3).isolated(worker_config()))
            .with_cache(Arc::clone(&cache)),
    );
    assert_eq!(off.records, warm_iso.records);
    let iso_metrics = warm_iso.metrics.unwrap();
    assert_eq!(hist_total(&iso_metrics, "cache.hits"), docs);
    assert_eq!(off_counters, iso_metrics.counters_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cold_cached_scan_times_every_document_it_scans() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("cold-timings");
    let paths: Vec<PathBuf> = (0..8)
        .map(|i| {
            let p = dir.join(format!("doc{i}.bin"));
            std::fs::write(&p, macro_doc(i)).unwrap();
            p
        })
        .collect();
    let docs = paths.len() as u64;

    // Distinct contents under a fresh cache: every document misses, and a
    // miss's timings land in the report as an uncached scan's would.
    for jobs in [1, 2] {
        let policy = metered(ScanPolicy::default().jobs(jobs))
            .with_cache(Arc::new(ScanCache::in_memory(64)));
        let metrics = scan_paths_with_policy(det, &paths, &policy)
            .metrics
            .unwrap();
        let samples = |label: &str| metrics.histograms.get(label).map_or(0, |h| h.count);
        assert_eq!(samples("cache.misses"), docs, "jobs {jobs}");
        assert_eq!(samples("scan.doc_ns"), docs, "jobs {jobs}");
        assert_eq!(samples("scan.features_ns"), docs, "jobs {jobs}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retraining_the_detector_invalidates_every_entry() {
    let _guard = global_guard();
    let det_a = tiny_detector();
    // A different corpus scale is a retrain: different weights, different
    // save() text, different fingerprint.
    let det_b = Detector::train_on_corpus(
        &DetectorConfig::default(),
        &CorpusSpec::paper().scaled(0.003),
    );
    let dir = fresh_dir("detector-inval");
    // Duplicate-free (6 documents, 6 distinct contents) so "zero hits"
    // is exact: with duplicates, later copies would hit the fresh
    // B-keyed entries inserted earlier in the same run.
    let paths = duplicate_corpus(&dir, 6);
    let cache = Arc::new(ScanCache::in_memory(1024));

    // Warm the cache under detector A.
    let warm_a = metered(ScanPolicy::default()).with_cache(Arc::clone(&cache));
    scan_paths_with_policy(det_a, &paths, &warm_a);

    // Detector B must see clean misses for every document — a stale
    // verdict scored by A would be silently wrong under B.
    let reference_b = scan_paths_with_policy(&det_b, &paths, &metered(ScanPolicy::default()));
    let cached_b = metered(ScanPolicy::default()).with_cache(Arc::clone(&cache));
    let report_b = scan_paths_with_policy(&det_b, &paths, &cached_b);
    let metrics_b = report_b.metrics.unwrap();
    assert_eq!(hist_total(&metrics_b, "cache.hits"), 0);
    assert_eq!(hist_total(&metrics_b, "cache.misses"), paths.len() as u64);
    assert_eq!(report_b.records, reference_b.records);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changing_an_outcome_affecting_policy_field_invalidates_every_entry() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("policy-inval");
    // Duplicate-free, same reasoning as the detector-invalidation test.
    let paths = duplicate_corpus(&dir, 6);
    let cache = Arc::new(ScanCache::in_memory(1024));

    scan_paths_with_policy(
        det,
        &paths,
        &metered(ScanPolicy::default()).with_cache(Arc::clone(&cache)),
    );

    // A fuel budget is outcome-affecting (it can turn a scan into a
    // Timeout), so even a generous one keys differently. The documents
    // here are tiny, so the *outcomes* happen to match — which is exactly
    // what makes silent staleness undetectable, and fingerprinting
    // mandatory.
    let fueled = metered(ScanPolicy::default().fuel(1_000_000_000)).with_cache(Arc::clone(&cache));
    let report = scan_paths_with_policy(det, &paths, &fueled);
    let metrics = report.metrics.unwrap();
    assert_eq!(hist_total(&metrics, "cache.hits"), 0);
    let reference = scan_paths_with_policy(
        det,
        &paths,
        &metered(ScanPolicy::default().fuel(1_000_000_000)),
    );
    assert_eq!(report.records, reference.records);

    // Execution-shape knobs (jobs) are NOT outcome-affecting and share
    // entries: the same policy at a different job count is all hits.
    let reshaped = metered(ScanPolicy::default().jobs(4)).with_cache(Arc::clone(&cache));
    let report = scan_paths_with_policy(det, &paths, &reshaped);
    assert_eq!(
        hist_total(&report.metrics.unwrap(), "cache.hits"),
        paths.len() as u64
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_cache_stays_warm_across_a_reopen() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("persist");
    let paths = duplicate_corpus(&dir, 12);
    let store = dir.join("cache");

    let first = {
        let cache = ScanCache::persistent(&store, 1024).unwrap();
        assert!(cache.is_empty());
        let policy = metered(ScanPolicy::default()).with_cache(Arc::new(cache));
        scan_paths_with_policy(det, &paths, &policy)
        // Dropping the policy drops the cache and syncs the segment.
    };

    // A fresh process (modeled by a fresh ScanCache over the same dir)
    // loads the store and serves everything from memory.
    let cache = ScanCache::persistent(&store, 1024).unwrap();
    assert!(
        cache.load_warnings().is_empty(),
        "{:?}",
        cache.load_warnings()
    );
    assert_eq!(cache.len() as u64, unique_contents(paths.len()));
    let policy = metered(ScanPolicy::default()).with_cache(Arc::new(cache));
    let second = scan_paths_with_policy(det, &paths, &policy);
    assert_eq!(first.records, second.records);
    let metrics = second.metrics.unwrap();
    assert_eq!(hist_total(&metrics, "cache.hits"), paths.len() as u64);
    assert_eq!(hist_total(&metrics, "cache.misses"), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Resident service: duplicate requests share one scan.
// ---------------------------------------------------------------------------

#[test]
fn serve_path_and_inline_requests_with_identical_content_share_the_cache() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("serve-dedup");
    let doc = dir.join("doc.bin");
    std::fs::write(&doc, macro_document()).unwrap();

    let policy = ScanPolicy::default().with_cache(Arc::new(ScanCache::in_memory(64)));
    let config = ServeConfig::new(policy);
    let (summary, (by_path, by_bytes)) = with_server(det, &config, |addr| {
        let mut c = Client::connect(addr);
        let by_path = c.roundtrip(&format!("scan {}", doc.display()));
        let by_bytes = c.roundtrip(&format!(
            "{{\"op\":\"scan\",\"bytes_hex\":\"{}\"}}",
            hex(&macro_document())
        ));
        (by_path, by_bytes)
    });

    // Identical content => the same terminal response, whichever door the
    // bytes came through — and the second caller never re-scanned.
    assert!(by_path.contains("\"kind\":\"macros\""), "{by_path}");
    assert_eq!(by_path, by_bytes);
    let metrics = summary.metrics.unwrap();
    assert_eq!(hist_total(&metrics, "cache.misses"), 1);
    assert_eq!(hist_total(&metrics, "cache.hits"), 1);
    assert_eq!(hist_total(&metrics, "cache.inserts"), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "faultpoints")]
mod faultpoints {
    use super::*;
    use std::panic::AssertUnwindSafe;

    use vbadet::{replay_journal, scan_paths_journaled, FailureClass, ScanJournal, ScanOutcome};
    use vbadet_faultpoint::{clear, configure, hit_count};
    use vbadet_repro::testkit::{journaled_outcomes, reply};

    #[test]
    fn kill_and_resume_with_a_warm_cache_equals_an_uncached_resume() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("kill-resume");
        let paths = duplicate_corpus(&dir, 12);

        let policy = ScanPolicy::default();
        let reference = scan_paths_journaled(det, &paths, &policy, None, None);

        // Warm the cache with a full pass, then kill a cached journaled
        // run at document 3 — the crash surface is identical to the
        // uncached engine's (`scan::between-docs` fires outside the
        // per-document containment).
        let cache = Arc::new(ScanCache::in_memory(1024));
        let cached_policy = policy.clone().with_cache(Arc::clone(&cache));
        scan_paths_journaled(det, &paths, &cached_policy, None, None);

        configure("scan::between-docs", "panic(killed)@3").unwrap();
        let journal_path = dir.join("scan.jsonl");
        let mut journal = ScanJournal::create(&journal_path).unwrap();
        let crash = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scan_paths_journaled(det, &paths, &cached_policy, Some(&mut journal), None)
        }));
        assert!(crash.is_err(), "the injected kill should have escaped");
        assert_eq!(hit_count("scan::between-docs"), 3);
        clear();
        drop(journal);

        let replay = replay_journal(&journal_path).unwrap();
        assert!(replay.warning.is_none());
        assert_eq!(replay.completed_count(), 2);

        // Resuming with the warm cache and resuming with no cache land on
        // the same records as the never-crashed reference.
        let resumed_cached = scan_paths_journaled(det, &paths, &cached_policy, None, Some(&replay));
        let resumed_uncached = scan_paths_journaled(det, &paths, &policy, None, Some(&replay));
        assert_eq!(resumed_cached.records, reference.records);
        assert_eq!(resumed_uncached.records, reference.records);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stat_read_growth_race_is_still_limit_exceeded_with_caching_on() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("statrace");

        // Same race as the uncached regression test: the file passes the
        // stat at 64 bytes, an appender grows it past the cap inside the
        // injected stat→read gap. The growth check runs before the digest,
        // so the oversized buffer is never hashed, never cached, and the
        // record is the same typed LimitExceeded.
        let victim = dir.join("growing.bin");
        std::fs::write(&victim, vec![0u8; 64]).unwrap();
        let cache = Arc::new(ScanCache::in_memory(64));
        let mut policy = ScanPolicy::default().with_cache(Arc::clone(&cache));
        policy.limits.max_file_size = 2048;

        configure("scan::stat-read-gap", "sleep(200)").unwrap();
        let appender = {
            let victim = victim.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(40));
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&victim)
                    .unwrap();
                std::io::Write::write_all(&mut file, &vec![0u8; 8192]).unwrap();
            })
        };
        let report = scan_paths_with_policy(det, &[&victim], &policy);
        appender.join().unwrap();
        clear();

        match &report.records[0].outcome {
            ScanOutcome::Failed {
                class: FailureClass::LimitExceeded,
                detail,
            } => {
                assert!(detail.contains("grew"), "detail was {detail:?}");
            }
            other => panic!("expected LimitExceeded after mid-read growth, got {other:?}"),
        }
        assert!(
            cache.is_empty(),
            "an over-cap read must never produce a cache entry"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_swapped_after_the_supervisor_digest_is_never_cached() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("swap-race");

        // The isolate supervisor reads and digests the file, then sends
        // the worker those bytes. A writer swaps in different bytes (of a
        // different size) while the supervisor sits right after its read:
        // the record is the verdict of the bytes read before the swap, and
        // the cache holds that verdict under their digest and nothing
        // else.
        let victim = dir.join("swapped.bin");
        let (before, after) = (macro_document(), clean_document());
        assert_ne!(before.len(), after.len());
        std::fs::write(&victim, &before).unwrap();
        let cache = Arc::new(ScanCache::in_memory(64));
        let policy = ScanPolicy::default()
            .isolated(worker_config())
            .with_cache(Arc::clone(&cache));

        configure("cache::digest-read-gap", "sleep(300)").unwrap();
        let writer = {
            let victim = victim.clone();
            let after = after.clone();
            std::thread::spawn(move || {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while hit_count("cache::digest-read-gap") == 0 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "the digest read never happened"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                std::fs::write(&victim, &after).unwrap();
            })
        };
        let report = scan_paths_with_policy(det, &[&victim], &policy);
        writer.join().unwrap();
        assert_eq!(hit_count("cache::digest-read-gap"), 1);
        clear();

        let original = dir.join("original.bin");
        std::fs::write(&original, &before).unwrap();
        let read = scan_paths_with_policy(det, &[&original], &ScanPolicy::default());
        let outcome = read.records[0].outcome.clone();
        assert_eq!(
            report.records[0].outcome, outcome,
            "the worker scans the bytes the supervisor read"
        );
        assert_eq!(
            cache.entries(),
            vec![(hex(&vbadet::scan::cache::sha256(&before)), outcome)],
            "the cache holds only the read bytes' verdict, under their digest"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_same_size_swap_under_the_old_mtime_never_poisons_the_cache() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("same-size-swap");

        // A writer swaps the macro document for as many zero bytes inside
        // the supervisor's read gap, then puts the old mtime back: no
        // `(size, mtime)` check could tell the files apart. The verdict
        // cached under the macro document's digest must still be the macro
        // document's own.
        let victim = dir.join("swapped.doc");
        let original = macro_document();
        std::fs::write(&victim, &original).unwrap();
        let mtime = std::fs::metadata(&victim).unwrap().modified().unwrap();
        let cache = Arc::new(ScanCache::in_memory(64));
        let policy = ScanPolicy::default()
            .isolated(worker_config())
            .with_cache(Arc::clone(&cache));

        configure("cache::digest-read-gap", "sleep(300)@1x1").unwrap();
        let writer = {
            let (victim, len) = (victim.clone(), original.len());
            std::thread::spawn(move || {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while hit_count("cache::digest-read-gap") == 0 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "the supervisor's read never happened"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                std::fs::write(&victim, vec![0u8; len]).unwrap();
                std::fs::File::options()
                    .write(true)
                    .open(&victim)
                    .and_then(|file| file.set_modified(mtime))
                    .unwrap();
            })
        };
        scan_paths_with_policy(det, &[&victim], &policy);
        writer.join().unwrap();
        let swapped = std::fs::metadata(&victim).unwrap();
        assert_eq!(
            (swapped.len(), swapped.modified().unwrap()),
            (original.len() as u64, mtime)
        );

        let copy = dir.join("original.doc");
        std::fs::write(&copy, &original).unwrap();
        let cached = scan_paths_with_policy(det, &[&copy], &policy);
        clear();
        let uncached = scan_paths_with_policy(det, &[&copy], &ScanPolicy::default());
        assert!(
            matches!(&uncached.records[0].outcome, ScanOutcome::Macros(v) if v[0].module_name == "Module1"),
            "{:?}",
            uncached.records
        );
        assert_eq!(cached.records, uncached.records);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_serve_requests_are_single_flighted() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("serve-flight");
        let doc = dir.join("doc.bin");
        std::fs::write(&doc, macro_document()).unwrap();

        // The leader's scan stalls long enough for the duplicate to
        // arrive mid-flight; the follower must share the leader's
        // terminal response, not start a second scan.
        configure("scan::full-parse", "sleep(250)").unwrap();

        let policy = ScanPolicy::default().with_cache(Arc::new(ScanCache::in_memory(64)));
        let config = ServeConfig::new(policy);
        let (summary, (by_path, by_bytes)) = with_server(det, &config, |addr| {
            thread::scope(|s| {
                let path_req =
                    s.spawn(|| Client::connect(addr).roundtrip(&format!("scan {}", doc.display())));
                // Stagger the duplicate into the leader's stall window.
                thread::sleep(Duration::from_millis(60));
                let bytes_req = s.spawn(|| {
                    Client::connect(addr).roundtrip(&format!(
                        "{{\"op\":\"scan\",\"bytes_hex\":\"{}\"}}",
                        hex(&macro_document())
                    ))
                });
                (path_req.join().unwrap(), bytes_req.join().unwrap())
            })
        });
        clear();

        // Both callers get the same terminal response, and only one scan
        // ever ran: one miss (the leader), one hit (the follower's shared
        // flight — or, had timing collapsed the overlap, a plain cache
        // hit; either way never a second scan).
        assert!(by_path.contains("\"kind\":\"macros\""), "{by_path}");
        assert_eq!(by_path, by_bytes);
        let metrics = summary.metrics.unwrap();
        assert_eq!(hist_total(&metrics, "cache.misses"), 1);
        assert_eq!(hist_total(&metrics, "cache.hits"), 1);
        assert_eq!(hist_total(&metrics, "cache.inserts"), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_leader_whose_file_was_swapped_never_answers_a_follower() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = fresh_dir("flight-leak");

        // Leader: `scan <path>` on an isolated service. Its supervisor
        // reads and digests the old bytes, and a writer swaps in content
        // of another size inside the read gap; the worker scans the bytes
        // the supervisor read. While the worker stalls in its parse, a
        // follower sends the old bytes inline: the same digest, so it
        // waits on the leader's key. Both answers are the old bytes'
        // verdict, never the new bytes' one published under the old
        // digest.
        let (old, new) = (macro_document(), clean_document());
        assert_ne!(old.len(), new.len());
        let references: Vec<PathBuf> = [("old.bin", &old), ("new.bin", &new)]
            .iter()
            .map(|(name, bytes)| {
                let p = dir.join(name);
                std::fs::write(&p, bytes).unwrap();
                p
            })
            .collect();
        let expected = journaled_outcomes(det, &references, &dir.join("reference.jsonl"));
        assert_ne!(expected[0], expected[1]);
        let victim = dir.join("swapped.bin");
        std::fs::write(&victim, &old).unwrap();

        configure("cache::digest-read-gap", "sleep(300)@1x1").unwrap();
        let workers = worker_config().env("VBADET_FAULTPOINTS", "scan::full-parse=sleep(1000)");
        let policy = ScanPolicy::default()
            .isolated(workers)
            .with_cache(Arc::new(ScanCache::in_memory(64)));
        let config = ServeConfig::new(policy);
        let (_, (leader, follower)) = with_server(det, &config, |addr| {
            thread::scope(|s| {
                let leader = s.spawn(|| {
                    Client::connect(addr).roundtrip(&format!("scan {}", victim.display()))
                });
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while hit_count("cache::digest-read-gap") == 0 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "the digest read never happened"
                    );
                    thread::sleep(Duration::from_millis(5));
                }
                std::fs::write(&victim, &new).unwrap();
                // Past the 300 ms gap the leader holds its key, and its
                // worker stalls a full second in the parse.
                thread::sleep(Duration::from_millis(500));
                let follower = Client::connect(addr).roundtrip(&format!(
                    "{{\"op\":\"scan\",\"bytes_hex\":\"{}\"}}",
                    hex(&old)
                ));
                (leader.join().unwrap(), follower)
            })
        });
        clear();

        assert_eq!(
            reply(&follower).get("outcome"),
            Some(&expected[0]),
            "the follower got a verdict on bytes it never sent"
        );
        assert_eq!(
            reply(&leader).get("outcome"),
            Some(&expected[0]),
            "{leader}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
