//! Observability suite: the `ScanMetrics` snapshot must be deterministic —
//! identical counters for identical inputs, sequential == parallel at any
//! worker count — and the failure paths (salvage, budget trips) must land
//! in the counters that name them.
//!
//! Tests serialize on `global_guard` for the same reason the parallel suite
//! does: equivalence runs spawn their own worker pools.

use std::path::{Path, PathBuf};

use vbadet::{
    scan_paths_journaled, scan_paths_with_policy, Detector, MetricsSink, ScanJournal, ScanMetrics,
    ScanPolicy,
};
use vbadet_ovba::VbaProjectBuilder;
use vbadet_repro::testkit::{
    clean_doc, fresh_dir, global_guard, macro_doc, metered, salvage_wreck, tiny_detector,
};

/// A corpus hitting every outcome family: parsed macros, clean documents,
/// junk, truncations, and salvage-only wreckage.
fn write_mixed_corpus(dir: &Path, n: usize) -> Vec<PathBuf> {
    let mut paths = Vec::with_capacity(n);
    for i in 0..n {
        let (name, bytes): (String, Vec<u8>) = match i % 6 {
            0 | 1 => (format!("doc{i:04}.bin"), macro_doc(i)),
            2 => (format!("doc{i:04}.doc"), clean_doc(i)),
            3 => (
                format!("doc{i:04}.txt"),
                format!("junk payload {i}").into_bytes(),
            ),
            4 => {
                let full = macro_doc(i);
                (
                    format!("doc{i:04}.trunc.bin"),
                    full[..full.len() / 3].to_vec(),
                )
            }
            _ => (format!("doc{i:04}.wreck"), salvage_wreck(i)),
        };
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        paths.push(path);
    }
    paths
}

fn run(det: &Detector, paths: &[PathBuf], policy: &ScanPolicy) -> ScanMetrics {
    let report = scan_paths_with_policy(det, paths, policy);
    report
        .metrics
        .expect("metered policy must produce a snapshot")
}

#[test]
fn counters_are_identical_between_sequential_and_every_worker_count() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("seq-par");
    let paths = write_mixed_corpus(&dir, 42);

    let sequential = run(det, &paths, &metered(ScanPolicy::default()));
    assert!(sequential.counter("scan.docs") == 42);
    for jobs in [2, 4, 8] {
        // Fresh sink per run: the snapshot must be attributable to this
        // run alone, not an accumulation across engines.
        let policy = ScanPolicy {
            jobs,
            ..metered(ScanPolicy::default())
        };
        let parallel = run(det, &paths, &policy);
        assert_eq!(
            parallel.counters_json(),
            sequential.counters_json(),
            "jobs={jobs}: counters diverged from sequential"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn counters_are_identical_across_repeated_runs() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("repeat");
    let paths = write_mixed_corpus(&dir, 24);

    let first = run(det, &paths, &metered(ScanPolicy::default()));
    let second = run(det, &paths, &metered(ScanPolicy::default()));
    assert_eq!(first.counters_json(), second.counters_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_counters_cover_every_stage_the_corpus_exercises() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("stages");
    let paths = write_mixed_corpus(&dir, 36);

    let m = run(det, &paths, &metered(ScanPolicy::default()));
    // 36 docs, i%6 buckets of 6 each: 12 parsed OLE macro docs, 6 clean
    // OLE, 6 junk, 6 truncated, 6 salvage wrecks.
    assert_eq!(m.counter("scan.docs"), 36);
    assert_eq!(m.counter("scan.macros"), 12);
    assert_eq!(m.counter("scan.clean"), 6);
    // Wrecks come back salvaged; junk and truncations fail.
    assert_eq!(m.counter("scan.salvaged"), 6);
    assert_eq!(m.counter("scan.failed"), 12);
    assert_eq!(
        m.counter("scan.failed"),
        m.counter("scan.failed.unknown-container") + m.counter("scan.failed.truncated"),
        "failure class counters must partition scan.failed: {}",
        m.counters_json()
    );
    // The parse layers underneath saw real work.
    assert!(m.counter("ole.parses") >= 18, "{}", m.counters_json());
    assert!(m.counter("ole.sectors") > 0);
    assert!(m.counter("ovba.decompress_calls") > 0);
    assert!(m.counter("ovba.bytes_out") > 0);
    // Every document enters extraction once and leaves it parsed,
    // salvaged or failed.
    assert_eq!(m.counter("extract.docs"), 36);
    assert_eq!(
        m.counter("extract.parsed") + m.counter("extract.salvaged") + m.counter("scan.failed"),
        36,
        "{}",
        m.counters_json()
    );
    assert!(m.counter("scan.modules_scored") >= 18);
    // Timers live in the histograms section only.
    assert_eq!(m.counter("scan.doc_ns"), 0);
    assert!(m.stage_total_ns("scan.doc_ns") > 0);
    assert!(m.stage_total_ns("ole.parse_ns") > 0);
    // The scoring hot path reports its two stages separately.
    assert!(m.stage_total_ns("scan.features_ns") > 0);
    assert!(m.stage_total_ns("scan.predict_ns") > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salvage_path_increments_salvage_counters() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("salvage");
    let paths: Vec<PathBuf> = (0..4)
        .map(|i| {
            let p = dir.join(format!("wreck{i}.bin"));
            std::fs::write(&p, salvage_wreck(i)).unwrap();
            p
        })
        .collect();

    let m = run(det, &paths, &metered(ScanPolicy::default()));
    assert_eq!(m.counter("extract.salvaged"), 4, "{}", m.counters_json());
    assert_eq!(m.counter("ovba.salvage_scans"), 4);
    assert_eq!(m.counter("ovba.salvage_modules"), 4);
    assert!(m.counter("ovba.salvage_candidates") >= 4);
    assert_eq!(m.counter("scan.salvaged"), 4);
    assert!(m.stage_total_ns("ovba.salvage_ns") > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_trip_lands_in_the_timeout_counter() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("timeout");
    let stall = dir.join("stall.bin");
    let body = "    x = x + 1 ' busywork\r\n".repeat(20_000);
    let mut b = VbaProjectBuilder::new("Stall");
    b.add_module("M", &format!("Sub S()\r\n{body}End Sub\r\n"));
    std::fs::write(&stall, b.build().unwrap()).unwrap();
    let fine = dir.join("fine.bin");
    std::fs::write(&fine, macro_doc(1)).unwrap();

    let policy = metered(ScanPolicy::default().fuel(64));
    let m = run(det, &[stall, fine], &policy);
    assert_eq!(m.counter("scan.docs"), 2);
    assert_eq!(m.counter("scan.failed"), 1);
    assert_eq!(m.counter("scan.failed.timeout"), 1, "{}", m.counters_json());
    assert_eq!(m.counter("scan.macros"), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_counters_match_the_journal_file() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("journal");
    let paths = write_mixed_corpus(&dir, 18);

    let journal_path = dir.join("scan.jsonl");
    let mut journal = ScanJournal::create(&journal_path).unwrap();
    let policy = metered(ScanPolicy::default());
    let report = scan_paths_journaled(det, &paths, &policy, Some(&mut journal), None);
    drop(journal);
    assert!(report.journal_error.is_none());
    let m = report.metrics.unwrap();
    assert_eq!(m.counter("journal.begin_records"), 18);
    assert_eq!(m.counter("journal.done_records"), 18);
    assert!(m.counter("journal.syncs") >= 1);
    // The header line is written before the sink sees the journal, so the
    // byte counter covers exactly the body the scan itself appended.
    let file_len = std::fs::metadata(&journal_path).unwrap().len();
    assert!(m.counter("journal.bytes") > 0);
    assert!(m.counter("journal.bytes") < file_len);
    assert!(m.stage_total_ns("journal.write_ns") > 0);

    // The parallel engine journals through a single collector: identical
    // journal counters, not jobs-times-inflated ones.
    let journal_path_par = dir.join("scan-par.jsonl");
    let mut journal = ScanJournal::create(&journal_path_par).unwrap();
    let par_policy = ScanPolicy {
        jobs: 4,
        ..metered(ScanPolicy::default())
    };
    let report = scan_paths_journaled(det, &paths, &par_policy, Some(&mut journal), None);
    drop(journal);
    let par = report.metrics.unwrap();
    assert_eq!(par.counters_json(), m.counters_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_round_trips_through_json() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("roundtrip");
    let paths = write_mixed_corpus(&dir, 12);

    let m = run(det, &paths, &metered(ScanPolicy::default()));
    let text = m.to_json();
    let back = ScanMetrics::from_json(&text).expect("snapshot JSON must parse back");
    assert_eq!(
        back, m,
        "round-trip must preserve every counter and histogram"
    );
    // And the dump is self-describing: garbage or foreign formats fail.
    assert!(ScanMetrics::from_json("").is_err());
    assert!(ScanMetrics::from_json("{}").is_err());
    assert!(ScanMetrics::from_json(&text.replace("vbadet-scan-metrics", "other")).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_stage_counters_round_trip_through_json_and_the_wire_form() {
    let _serial = global_guard();
    // The service counters live on the histogram side (request
    // interleaving is racy, so they are exempt from the determinism
    // contract) and must survive both the pretty dump `--metrics-json`
    // writes and the squeezed single-line form the `metrics` verb ships.
    use vbadet::Stage;
    let sink = MetricsSink::enabled();
    for (stage, value) in [
        (Stage::ServeAccepted, 1),
        (Stage::ServeShed, 1),
        (Stage::ServeBreakerOpens, 1),
        (Stage::ServeBreakerRejects, 3),
        (Stage::ServeDrains, 1),
        (Stage::ServeQueueDepth, 17),
        (Stage::ServeRequestNs, 1_234_567),
    ] {
        sink.record(stage, value);
    }
    let m = sink.snapshot().unwrap();
    for key in [
        "serve.accepted",
        "serve.shed",
        "serve.breaker_opens",
        "serve.breaker_rejects",
        "serve.drains",
        "serve.queue_depth",
        "serve.request_ns",
    ] {
        assert!(m.histograms.contains_key(key), "missing histogram {key}");
        assert_eq!(
            m.counter(key),
            0,
            "{key} must not be a deterministic counter"
        );
    }
    assert_eq!(m.histograms["serve.queue_depth"].total, 17);
    assert_eq!(m.histograms["serve.breaker_rejects"].count, 1);

    let pretty = m.to_json();
    assert_eq!(ScanMetrics::from_json(&pretty).unwrap(), m);
    let wire: String = pretty.split_whitespace().collect();
    assert!(!wire.contains('\n'), "wire form must be one line");
    assert_eq!(ScanMetrics::from_json(&wire).unwrap(), m);
}

#[test]
fn disabled_sink_produces_no_snapshot() {
    let _serial = global_guard();
    let det = tiny_detector();
    let dir = fresh_dir("disabled");
    let path = dir.join("doc.bin");
    std::fs::write(&path, macro_doc(0)).unwrap();

    // The default policy carries a disabled sink: no snapshot, no cost.
    let report = scan_paths_with_policy(det, &[path], &ScanPolicy::default());
    assert!(report.metrics.is_none());

    let _ = std::fs::remove_dir_all(&dir);
}
