//! Reload chaos soak for `vbadet serve`: a real daemon under concurrent
//! client load while an operator thread hammers it with model hot-reloads
//! — two alternating good models, a garbage file, and faultpoint-injected
//! corrupt loads of good files.
//!
//! ```text
//! reload_soak <path-to-vbadet-binary> <successful-reloads>
//! ```
//!
//! The `vbadet` binary must be built with `--features faultpoints` (the
//! injected corrupt loads ride in via `VBADET_FAULTPOINTS`). Asserted
//! invariants, the hot-reload contract of DESIGN.md §13:
//!
//! 1. **Zero dropped or misrouted responses** — every request line gets
//!    exactly one terminal response on its own connection, correlation
//!    ids intact, and the daemon's drain accounting agrees with the
//!    clients' tallies.
//! 2. **Every scan response carries a valid generation stamp** — in
//!    `1..=final`, and non-decreasing per connection (admission pins the
//!    live generation; it only ever moves forward).
//! 3. **Generation conservation** — the final generation is exactly
//!    `1 + successful reloads`: every success mints one generation,
//!    every failure (garbage file, injected corruption) mints none.
//! 4. **Old-generation cache entries miss** — a document cached warm
//!    under one generation is re-scanned (a cache miss) after the next
//!    successful reload, because the bound key embeds the new detector
//!    fingerprint.
//! 5. **Graceful SIGTERM drain** — exit code 3, a parseable final
//!    metrics dump whose `reload.*` counts match the operator's tallies,
//!    and zero orphaned `__worker` processes.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use vbadet::json::Json;
use vbadet::ScanMetrics;
use vbadet_repro::testkit::{
    count_orphan_workers, fresh_dir, named_macro_document, reply, tiny_detector,
    tiny_detector_seeded, Client, Daemon,
};

const CLIENTS: usize = 6;

/// Shared response tallies across the client and reloader threads.
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok_scan: AtomicU64,
    other_ok: AtomicU64,
    reload_ok: AtomicU64,
    reload_failed: AtomicU64,
}

impl Tally {
    /// One request line, one reply line. A lost reply trips the client's
    /// read timeout: that IS the dropped-response detector.
    fn ask(&self, c: &mut Client, line: &str) -> String {
        self.sent.fetch_add(1, Ordering::Relaxed);
        c.roundtrip(line)
    }
}

/// The generation a reply is stamped with, 0 when it carries none.
fn generation(line: &str) -> u64 {
    reply(line)
        .get("generation")
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn fingerprint(line: &str) -> Option<String> {
    reply(line)
        .get("fingerprint")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// One scan client: hammers the daemon until the reload churn ends,
/// checking correlation ids and the per-connection generation invariants.
#[allow(clippy::too_many_arguments)]
fn client_load(
    sock: &Path,
    tally: &Tally,
    doc: &Path,
    junk: &Path,
    hex: &str,
    done: &AtomicBool,
    max_seen: &AtomicU64,
    id: usize,
) {
    let mut c = Client::unix(sock);
    let mut last_generation = 0u64;
    let mut n = 0u64;
    while !done.load(Ordering::Relaxed) {
        let request = match n % 5 {
            0 => format!(
                "{{\"op\":\"scan\",\"path\":\"{}\",\"id\":\"c{id}-{n}\"}}",
                doc.display()
            ),
            1 => format!(
                "{{\"op\":\"scan\",\"path\":\"{}\",\"id\":\"c{id}-{n}\"}}",
                junk.display()
            ),
            2 => format!("{{\"op\":\"scan\",\"bytes_hex\":\"{hex}\",\"id\":\"c{id}-{n}\"}}"),
            3 => format!("scan {}", doc.display()),
            _ => "model".to_string(),
        };
        let reply = tally.ask(&mut c, &request);
        if request.starts_with('{') {
            let tag = format!("\"id\":\"c{id}-{n}\"");
            assert!(
                reply.contains(&tag),
                "response lost its correlation id: sent {request}, got {reply}"
            );
        }
        // Every response — scan or model — is stamped with the generation
        // it was served under; admission pinning makes that stamp
        // monotone per connection.
        let generation = generation(&reply);
        assert!(generation >= 1, "generation 0 in {reply}");
        assert!(
            generation >= last_generation,
            "client {id} saw the generation go backwards: \
             {last_generation} then {generation} in {reply}"
        );
        last_generation = generation;
        if reply.contains("\"op\":\"scan\"") {
            assert!(reply.contains("\"ok\":true"), "scan rejected: {reply}");
            tally.ok_scan.fetch_add(1, Ordering::Relaxed);
        } else {
            assert!(reply.contains("\"op\":\"model\""), "{reply}");
            tally.other_ok.fetch_add(1, Ordering::Relaxed);
        }
        n += 1;
    }
    max_seen.fetch_max(last_generation, Ordering::Relaxed);
}

/// The operator: drives reloads until `target` of them have succeeded,
/// rotating two good models and a garbage file, with the
/// `serve::reload-corrupt` faultpoint corrupting a slice of the good
/// loads from inside the daemon.
fn reload_churn(sock: &Path, tally: &Tally, good: [&Path; 2], garbage: &Path, target: u64) -> u64 {
    let mut c = Client::unix(sock);
    let mut last_generation = 1u64;
    let mut attempts = 0u64;
    while tally.reload_ok.load(Ordering::Relaxed) < target {
        assert!(
            attempts < target * 10,
            "{attempts} reload attempts produced only {} successes",
            tally.reload_ok.load(Ordering::Relaxed)
        );
        let path = if attempts % 5 == 4 {
            garbage
        } else {
            good[(attempts % 2) as usize]
        };
        let reply = tally.ask(&mut c, &format!("reload {}", path.display()));
        if reply.contains("\"ok\":true") {
            assert!(
                path != garbage,
                "the garbage model loaded successfully: {reply}"
            );
            let generation = generation(&reply);
            assert_eq!(
                generation,
                last_generation + 1,
                "reloads are serialized on one connection; generations \
                 must step by one: {reply}"
            );
            last_generation = generation;
            tally.reload_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            assert!(
                reply.contains("\"error\":\"reload-failed\""),
                "a failed reload must be typed: {reply}"
            );
            tally.reload_failed.fetch_add(1, Ordering::Relaxed);
        }
        attempts += 1;
        // A breath between swaps so scans actually land on each
        // generation instead of the churn monopolizing the lock.
        std::thread::sleep(Duration::from_millis(5));
    }
    last_generation
}

fn cache_counts(metrics_line: &str) -> (u64, u64) {
    let reply = reply(metrics_line);
    let total = |name: &str| {
        reply
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("total"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    (total("cache.hits"), total("cache.misses"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let vbadet_bin = args
        .next()
        .expect("usage: reload_soak <vbadet-binary> <successful-reloads>");
    let target: u64 = args
        .next()
        .expect("usage: reload_soak <vbadet-binary> <successful-reloads>")
        .parse()
        .expect("reload count must be a number");

    let dir = fresh_dir("reload-soak");

    // Two distinct tiny models to alternate between, and one file that is
    // not a model at all.
    eprintln!("reload_soak: training two throwaway models…");
    let model_a = dir.join("model-a.txt");
    std::fs::write(&model_a, tiny_detector().save()).unwrap();
    let model_b = dir.join("model-b.txt");
    std::fs::write(&model_b, tiny_detector_seeded(99).save()).unwrap();
    // A third model the churn never touches: the cache-invalidation probe
    // needs a fingerprint no generation has inserted under yet — after
    // one A-B-A cycle every document is warm under *both* churn
    // fingerprints, so reloading either would legitimately hit.
    let model_c = dir.join("model-c.txt");
    std::fs::write(&model_c, tiny_detector_seeded(7).save()).unwrap();
    let garbage = dir.join("garbage.model");
    std::fs::write(&garbage, "landed mid-rollout: not a model\n").unwrap();

    let doc_bytes = named_macro_document("Soak");
    let doc = dir.join("doc.bin");
    std::fs::write(&doc, &doc_bytes).unwrap();
    let junk = dir.join("junk.txt");
    std::fs::write(&junk, b"not a document, never parses").unwrap();
    let hex = vbadet::json::hex(&doc_bytes);

    let metrics_path = dir.join("metrics.json");

    // `serve::reload-corrupt` fires inside `try_reload` only: one in four
    // model loads — good file or not — fails as if the bytes on disk were
    // torn, exactly the mid-rollout corruption the typed `reload-failed`
    // path exists for. Scans never touch the faultpoint.
    let daemon = Daemon::spawn(
        &vbadet_bin,
        &dir,
        &[
            "--model",
            model_a.to_str().unwrap(),
            "--jobs",
            "2",
            "--metrics-json",
            metrics_path.to_str().unwrap(),
        ],
        &[("VBADET_FAULTPOINTS", "serve::reload-corrupt=25%return@1")],
    );
    let sock = daemon.socket();

    // Before any churn: the startup model is generation 1.
    let tally = Tally::default();
    {
        let mut c = Client::unix(sock);
        let first = tally.ask(&mut c, "model");
        assert_eq!(generation(&first), 1, "{first}");
        tally.other_ok.fetch_add(1, Ordering::Relaxed);
    }

    // Phase 1: concurrent scans while the operator thread churns reloads.
    eprintln!(
        "reload_soak: {CLIENTS} clients under {target} hot-reloads against {}",
        sock.display()
    );
    let done = AtomicBool::new(false);
    let max_seen = AtomicU64::new(0);
    let mut final_generation = 0u64;
    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let (tally, doc, junk, hex, done, max_seen) =
                (&tally, &doc, &junk, &hex, &done, &max_seen);
            s.spawn(move || client_load(sock, tally, doc, junk, hex, done, max_seen, id));
        }
        final_generation = reload_churn(sock, &tally, [&model_a, &model_b], &garbage, target);
        done.store(true, Ordering::Relaxed);
    });

    // Phase 2: the cache-invalidation probe, on a quiet daemon. Warm the
    // cache under the final generation, reload once more, and prove the
    // warm entry is a clean miss for the new fingerprint.
    let mut c = Client::unix(sock);
    let line = format!("scan {}", doc.display());
    for _ in 0..2 {
        let reply = tally.ask(&mut c, &line);
        assert!(reply.contains("\"op\":\"scan\""), "{reply}");
        tally.ok_scan.fetch_add(1, Ordering::Relaxed);
    }
    let (_, misses_before) = cache_counts(&tally.ask(&mut c, "metrics"));
    tally.other_ok.fetch_add(1, Ordering::Relaxed);
    // The probe swaps in model C — a fingerprint no generation has ever
    // inserted cache entries under. The corrupt-load faultpoint is still
    // armed at 25%, so retry until one reload lands.
    let serving = tally.ask(&mut c, "model");
    tally.other_ok.fetch_add(1, Ordering::Relaxed);
    let mut probe_generation = final_generation;
    let mut probe_fingerprint = None;
    while probe_generation == final_generation {
        let reply = tally.ask(&mut c, &format!("reload {}", model_c.display()));
        if reply.contains("\"ok\":true") {
            probe_generation = generation(&reply);
            probe_fingerprint = fingerprint(&reply);
            tally.reload_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            tally.reload_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    assert_ne!(
        probe_fingerprint,
        fingerprint(&serving),
        "model C must fingerprint apart from the serving model"
    );
    let warm = tally.ask(&mut c, &line);
    assert_eq!(generation(&warm), probe_generation, "{warm}");
    tally.ok_scan.fetch_add(1, Ordering::Relaxed);
    let (_, misses_after) = cache_counts(&tally.ask(&mut c, "metrics"));
    tally.other_ok.fetch_add(1, Ordering::Relaxed);
    assert!(
        misses_after > misses_before,
        "a warm document must be a cache miss after a reload \
         ({misses_before} misses before, {misses_after} after)"
    );
    drop(c);

    // Phase 3: SIGTERM drain.
    let drained = daemon.drain();

    // --- Assertions ---------------------------------------------------
    assert_eq!(
        drained.status.code(),
        Some(3),
        "SIGTERM drain must exit 3, got {}\n{}",
        drained.status,
        drained.log
    );

    let sent = tally.sent.load(Ordering::Relaxed);
    let ok_scan = tally.ok_scan.load(Ordering::Relaxed);
    let other_ok = tally.other_ok.load(Ordering::Relaxed);
    let reload_ok = tally.reload_ok.load(Ordering::Relaxed);
    let reload_failed = tally.reload_failed.load(Ordering::Relaxed);
    eprintln!(
        "reload_soak: {sent} requests -> {ok_scan} scans answered, {reload_ok} reloads, \
         {reload_failed} rejected reloads, {other_ok} model/metrics"
    );
    assert_eq!(
        sent,
        ok_scan + other_ok + reload_ok + reload_failed,
        "every request classified exactly once"
    );
    assert!(reload_ok > target, "churn target plus the cache probe");
    assert!(
        reload_failed > 0,
        "the garbage file and the corrupt-load faultpoint never fired"
    );

    // Invariant 1: zero dropped responses — the daemon's own accounting
    // agrees with the clients'.
    let expect = format!("drained: {ok_scan} accepted, 0 shed, {sent} responses");
    assert_eq!(
        drained.line(),
        expect,
        "daemon accounting disagrees with the clients'"
    );

    // Invariant 3: generation conservation. The churn stepped one
    // generation per success from 1, the probe added one more, and no
    // client ever saw a generation past the final one.
    assert_eq!(final_generation, 1 + (reload_ok - 1));
    assert_eq!(probe_generation, 1 + reload_ok);
    let max_seen = max_seen.load(Ordering::Relaxed);
    assert!(
        max_seen <= probe_generation,
        "a client saw generation {max_seen}, past the final {probe_generation}"
    );

    // Invariant 5: the final metrics dump agrees with the tallies.
    let metrics = ScanMetrics::from_json(&std::fs::read_to_string(&metrics_path).unwrap())
        .expect("final --metrics-json must parse");
    assert_eq!(metrics.histograms["reload.success"].total, reload_ok);
    assert_eq!(metrics.histograms["reload.failed"].total, reload_failed);
    assert_eq!(metrics.histograms["serve.accepted"].total, ok_scan);
    assert_eq!(metrics.histograms["serve.drains"].count, 1);

    let orphans = count_orphan_workers();
    assert_eq!(orphans, 0, "found {orphans} orphaned __worker processes");

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "reload_soak PASS: {sent} requests, {ok_scan} scanned, {reload_ok} hot-reloads \
         ({reload_failed} rejected typed), final generation {probe_generation}, \
         drain exit 3, 0 orphans"
    );
}
