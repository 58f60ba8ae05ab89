//! Chaos soak for `vbadet serve`: a real daemon under concurrent client
//! load with fault-injected worker deaths, aborts and stalls.
//!
//! ```text
//! serve_soak <path-to-vbadet-binary> <seconds>
//! ```
//!
//! The `vbadet` binary must be built with `--features faultpoints`. The
//! harness spawns the daemon on a Unix socket with a hostile
//! `VBADET_FAULTPOINTS` environment — a deterministic window of injected
//! systemic worker deaths (opens the circuit breaker), per-worker aborts
//! inside the OLE parser (crash-respawn churn in the isolate pool), and a
//! stall on every scan (keeps the one-deep admission queue saturated so
//! requests get shed) — then hammers it from six concurrent clients.
//!
//! Asserted invariants, the service contract of DESIGN.md §11:
//!
//! 1. **Exactly one terminal response per request line** — the daemon's
//!    own response counter must equal the number of request lines every
//!    client sent, shed and rejected requests included.
//! 2. **Typed shedding** — queue overflow surfaces as `overloaded`
//!    responses, and the daemon's shed count matches the clients' count.
//! 3. **Breaker opened AND recovered** — the injected death window must
//!    open the breaker at least once, and `health` must report it closed
//!    again once the window passes.
//! 4. **Graceful SIGTERM drain** — exit code 3, a parseable final
//!    metrics dump, and zero orphaned `__worker` processes.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vbadet::ScanMetrics;
use vbadet_repro::testkit::{
    count_orphan_workers, fresh_dir, named_macro_document, tiny_detector, Client, Daemon,
};

const CLIENTS: usize = 6;

/// Per-category response tallies, shared across client threads.
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok_scan: AtomicU64,
    overloaded: AtomicU64,
    breaker_rejected: AtomicU64,
    bad_request: AtomicU64,
    other_ok: AtomicU64,
}

impl Tally {
    /// One request line, one reply line. A lost reply trips the client's
    /// read timeout: that IS the lost-response detector.
    fn ask(&self, c: &mut Client, line: &str) -> String {
        self.sent.fetch_add(1, Ordering::Relaxed);
        c.roundtrip(line)
    }
}

fn classify(tally: &Tally, reply: &str) {
    if reply.contains("\"op\":\"scan\"") {
        tally.ok_scan.fetch_add(1, Ordering::Relaxed);
    } else if reply.contains("\"error\":\"overloaded\"") {
        tally.overloaded.fetch_add(1, Ordering::Relaxed);
    } else if reply.contains("\"error\":\"breaker-open\"") {
        tally.breaker_rejected.fetch_add(1, Ordering::Relaxed);
    } else if reply.contains("\"error\":\"bad-request\"") {
        tally.bad_request.fetch_add(1, Ordering::Relaxed);
    } else if reply.contains("\"ok\":true") {
        tally.other_ok.fetch_add(1, Ordering::Relaxed);
    } else {
        panic!("unclassifiable response: {reply}");
    }
}

fn client_load(
    sock: &Path,
    tally: &Tally,
    doc: &Path,
    junk: &Path,
    hex: &str,
    deadline: Instant,
    id: usize,
) {
    let mut c = Client::unix(sock);
    let mut n = 0u64;
    while Instant::now() < deadline {
        let request = match n % 7 {
            0 => format!(
                "{{\"op\":\"scan\",\"path\":\"{}\",\"id\":\"c{id}-{n}\"}}",
                doc.display()
            ),
            1 => format!(
                "{{\"op\":\"scan\",\"path\":\"{}\",\"id\":\"c{id}-{n}\"}}",
                junk.display()
            ),
            2 => format!("{{\"op\":\"scan\",\"bytes_hex\":\"{hex}\",\"id\":\"c{id}-{n}\"}}"),
            3 => "health".to_string(),
            4 => format!("scan {}", doc.display()),
            5 => "ready".to_string(),
            // Malformed on purpose: must get exactly one typed rejection.
            _ => format!("frobnicate c{id}-{n}"),
        };
        let reply = tally.ask(&mut c, &request);
        if request.starts_with('{') {
            let tag = format!("\"id\":\"c{id}-{n}\"");
            assert!(
                reply.contains(&tag),
                "response lost its correlation id: sent {request}, got {reply}"
            );
        }
        classify(tally, &reply);
        n += 1;
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let vbadet_bin = args
        .next()
        .expect("usage: serve_soak <vbadet-binary> <seconds>");
    let seconds: u64 = args
        .next()
        .expect("usage: serve_soak <vbadet-binary> <seconds>")
        .parse()
        .expect("seconds must be a number");

    let dir = fresh_dir("serve-soak");

    // Train once here and ship the model file so the daemon starts fast.
    eprintln!("serve_soak: training throwaway model…");
    let model = dir.join("model.txt");
    std::fs::write(&model, tiny_detector().save()).unwrap();

    let doc_bytes = named_macro_document("Soak");
    let doc = dir.join("doc.bin");
    std::fs::write(&doc, &doc_bytes).unwrap();
    let junk = dir.join("junk.txt");
    std::fs::write(&junk, b"not a document, never parses").unwrap();
    let hex = vbadet::json::hex(&doc_bytes);

    let metrics_path = dir.join("metrics.json");
    let journal_path = dir.join("journal.jsonl");

    // The chaos recipe (all deterministic hit windows):
    // - `serve::inject-death` fires in the daemon on admitted scans 6-11:
    //   six systemic deaths in a row, enough to open the threshold-2
    //   breaker even if a straggler success from an earlier scan lands
    //   between two of them, and to fail the first probes before the
    //   window closes.
    // - `ole::parse=abort@4x2` rides into the isolate workers through the
    //   inherited environment: every worker process SIGABRTs on its 4th
    //   OLE parse, a steady crash-respawn churn the slots absorb.
    // - `scan::full-parse=sleep(20)` stalls every worker scan so six
    //   clients against a one-deep queue must overflow it.
    let daemon = Daemon::spawn(
        &vbadet_bin,
        &dir,
        &[
            "--model",
            model.to_str().unwrap(),
            "--jobs",
            "2",
            "--queue",
            "1",
            "--breaker-threshold",
            "2",
            "--breaker-backoff-ms",
            "150",
            "--metrics-json",
            metrics_path.to_str().unwrap(),
            "--journal",
            journal_path.to_str().unwrap(),
        ],
        &[(
            "VBADET_FAULTPOINTS",
            "serve::inject-death=return@6x6;ole::parse=abort@4x2;scan::full-parse=sleep(20)",
        )],
    );
    let sock = daemon.socket();

    // Phase 1: concurrent hostile load.
    eprintln!(
        "serve_soak: {CLIENTS} clients for {seconds}s against {}",
        sock.display()
    );
    let tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let (tally, doc, junk, hex) = (&tally, &doc, &junk, &hex);
            s.spawn(move || client_load(sock, tally, doc, junk, hex, deadline, id));
        }
    });

    // Phase 2: the injection window is exhausted; drive probe scans until
    // the breaker reports closed again.
    let mut recovered = false;
    let mut c = Client::unix(sock);
    let recover_deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < recover_deadline {
        let scan = tally.ask(&mut c, &format!("scan {}", doc.display()));
        classify(&tally, &scan);
        let health = tally.ask(&mut c, "health");
        classify(&tally, &health);
        if health.contains("\"breaker\":\"closed\"") {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let wire_metrics = tally.ask(&mut c, "metrics");
    classify(&tally, &wire_metrics);
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
    let overloaded = tally.overloaded.load(Ordering::Relaxed);
    let breaker_rejected = tally.breaker_rejected.load(Ordering::Relaxed);
    let bad_request = tally.bad_request.load(Ordering::Relaxed);
    let other_ok = tally.other_ok.load(Ordering::Relaxed);
    eprintln!(
        "serve_soak: {sent} requests -> {ok_scan} scans answered, {overloaded} shed, \
         {breaker_rejected} breaker-rejected, {bad_request} bad-request, {other_ok} other"
    );
    assert_eq!(
        sent,
        ok_scan + overloaded + breaker_rejected + bad_request + other_ok,
        "every request classified exactly once"
    );

    // Invariant 1: the daemon wrote exactly one terminal response per
    // request line — its own counter agrees with what the clients sent.
    let expect = format!("drained: {ok_scan} accepted, {overloaded} shed, {sent} responses");
    assert_eq!(
        drained.line(),
        expect,
        "daemon accounting disagrees with the clients'"
    );

    // Invariant 2: the queue really overflowed, and shedding was typed.
    assert!(
        overloaded > 0,
        "the soak never shed a request — no backpressure exercised"
    );

    // Invariant 3: the breaker opened under the injected deaths and is
    // closed again.
    assert!(
        recovered,
        "breaker never reported closed after the death window"
    );
    let metrics = ScanMetrics::from_json(&std::fs::read_to_string(&metrics_path).unwrap())
        .expect("final --metrics-json must parse");
    assert!(
        metrics.histograms["serve.breaker_opens"].count >= 1,
        "breaker never opened"
    );
    assert!(
        breaker_rejected > 0,
        "an open breaker must reject scans typed"
    );
    assert_eq!(metrics.histograms["serve.accepted"].total, ok_scan);
    assert_eq!(metrics.histograms["serve.shed"].total, overloaded);
    assert_eq!(metrics.histograms["serve.drains"].count, 1);
    // The wire-form metrics snapshot parses just like the file dump
    // (strip the envelope's own closing brace, nothing more).
    let wire_json = wire_metrics
        .split_once("\"metrics\":")
        .and_then(|(_, tail)| tail.strip_suffix('}'))
        .unwrap();
    assert!(
        ScanMetrics::from_json(wire_json).is_ok(),
        "wire metrics must parse"
    );

    // Invariant 4: zero orphaned workers after the drain.
    let orphans = count_orphan_workers();
    assert_eq!(orphans, 0, "found {orphans} orphaned __worker processes");

    // The journal audited every decided scan.
    let journal = std::fs::read_to_string(&journal_path).unwrap();
    assert!(
        journal
            .lines()
            .filter(|l| l.contains("\"event\":\"done\""))
            .count() as u64
            == ok_scan,
        "journal done-records must match answered scans"
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "serve_soak PASS: {sent} requests, {ok_scan} scanned, {overloaded} shed, \
         breaker opened {} time(s) and recovered, drain exit 3, 0 orphans",
        metrics.histograms["serve.breaker_opens"].count
    );
}
