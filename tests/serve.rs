//! Resident-service integration suite: `vbadet::serve` driven over real
//! sockets, proving the admission, backpressure, breaker and drain
//! contracts end to end.
//!
//! The always-on tests cover the wire protocol (all four verbs, ids,
//! inline documents, typed rejections), both transports, and verdict
//! equivalence between the in-process and isolated service engines.
//!
//! The `faultpoints`-gated tests inject load and death: a wedged scan
//! fills the queue until a request is shed with `overloaded`; injected
//! worker deaths open the circuit breaker, which recovers through a
//! half-open probe; and a poison document that aborts its isolate worker
//! costs that worker, never the service.
//!
//! The drain latch and faultpoint registry are process-global, so every
//! test serializes on `TEST_LOCK`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::thread;
#[cfg(feature = "faultpoints")]
use std::time::Duration;

use vbadet::json::{self, hex, Json};
use vbadet::{Detector, DetectorConfig, Listener, ScanPolicy, ServeConfig, ServeSummary};
use vbadet_corpus::CorpusSpec;
use vbadet_ovba::VbaProjectBuilder;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn global_guard() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    #[cfg(feature = "faultpoints")]
    vbadet_faultpoint::clear();
    vbadet::scan::interrupt::reset();
    // The hot-reload latch is process-global like the drain latch; a
    // leftover request from a panicked test must not fire in the next
    // test's accept loop.
    vbadet::reset_reload_requests();
    guard
}

fn tiny_detector() -> Detector {
    Detector::train_on_corpus(
        &DetectorConfig::default(),
        &CorpusSpec::paper().scaled(0.002),
    )
}

/// A second tiny detector whose trained weights — and therefore save-text
/// fingerprint — differ from [`tiny_detector`]'s.
fn tiny_detector_seeded(seed: u64) -> Detector {
    let config = DetectorConfig {
        seed,
        ..DetectorConfig::default()
    };
    Detector::train_on_corpus(&config, &CorpusSpec::paper().scaled(0.002))
}

fn macro_document() -> Vec<u8> {
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    b.build().unwrap()
}

/// Runs the service on an ephemeral TCP port for the duration of `drive`,
/// then requests the drain and returns the summary alongside `drive`'s
/// result.
fn with_server<R>(
    detector: &Detector,
    config: &ServeConfig,
    drive: impl FnOnce(std::net::SocketAddr) -> R,
) -> (ServeSummary, R) {
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.tcp_addr().unwrap();
    // The drain latch is process-global and sticky: without this reset a
    // second `with_server` in the same test would inherit the previous
    // drain and exit before accepting anything.
    vbadet::scan::interrupt::reset();
    let mut out = None;
    let mut summary = None;
    // Latch the drain even when `drive` panics: otherwise the scope join
    // waits forever on a server nobody told to exit, and the panic that
    // actually failed the test is masked by a hang.
    struct DrainOnDrop;
    impl Drop for DrainOnDrop {
        fn drop(&mut self) {
            vbadet::scan::interrupt::request_drain();
        }
    }
    thread::scope(|s| {
        let server = s.spawn(|| vbadet::serve(&listener, detector, config, None));
        let drain = DrainOnDrop;
        out = Some(drive(addr));
        drop(drain);
        summary = Some(server.join().unwrap());
    });
    (summary.unwrap(), out.unwrap())
}

/// One line-oriented protocol client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) {
        // One write per request line; a trailing 1-byte `\n` write would
        // stall behind Nagle and skew the breaker tests' timing.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

/// Parses one reply line: every reply the service writes is one JSON
/// object, so fields are read through the shared codec, never probed as
/// substrings.
fn reply(line: &str) -> Json {
    json::parse(line).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {line}"))
}

#[test]
fn every_verb_answers_and_the_drain_accounts_for_every_response() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = std::env::temp_dir().join(format!("vbadet-serve-verbs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("doc.bin");
    std::fs::write(&doc, macro_document()).unwrap();

    let config = ServeConfig::new(ScanPolicy::default());
    let (summary, ()) = with_server(&det, &config, |addr| {
        let mut c = Client::connect(addr);

        let health = c.roundtrip("health");
        assert!(health.contains("\"ok\":true"), "{health}");
        assert!(health.contains("\"draining\":false"), "{health}");
        assert!(health.contains("\"breaker\":\"closed\""), "{health}");

        let ready = c.roundtrip("ready");
        assert!(ready.contains("\"ready\":true"), "{ready}");

        // Text-form scan of a real document on disk.
        let scan = c.roundtrip(&format!("scan {}", doc.display()));
        assert!(scan.contains("\"op\":\"scan\""), "{scan}");
        assert!(scan.contains("\"kind\":\"macros\""), "{scan}");

        // JSON form: the id round-trips, the inline bytes really get
        // scanned (same macro project, shipped as hex).
        let inline = c.roundtrip(&format!(
            "{{\"op\":\"scan\",\"bytes_hex\":\"{}\",\"id\":\"req-9\"}}",
            hex(&macro_document())
        ));
        assert!(inline.contains("\"id\":\"req-9\""), "{inline}");
        assert!(inline.contains("\"kind\":\"macros\""), "{inline}");

        // A malformed line gets a typed rejection, and the connection
        // keeps working afterwards.
        let bad = c.roundtrip("frobnicate the server");
        assert!(bad.contains("\"ok\":false"), "{bad}");
        assert!(bad.contains("\"error\":\"bad-request\""), "{bad}");

        let metrics = c.roundtrip("metrics");
        assert!(metrics.contains("\"op\":\"metrics\""), "{metrics}");
        assert!(metrics.contains("vbadet-scan-metrics"), "{metrics}");
        assert!(metrics.contains("serve.accepted"), "{metrics}");
    });

    assert!(summary.drained);
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.shed, 0);
    assert_eq!(summary.responses, 6, "exactly one response per line");
    assert!(summary.journal_error.is_none());
    let snapshot = summary.metrics.unwrap();
    assert_eq!(snapshot.histograms["serve.accepted"].total, 2);
    assert_eq!(snapshot.histograms["serve.drains"].count, 1);
    // Service counters are racy by nature; none may leak into the
    // deterministic counters section.
    assert!(!snapshot.counters_json().contains("serve."));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A bracket bomb well under the line cap: a parser recursing once per
/// level would need tens of megabytes of stack for it. The daemon must
/// reject the line as a bad request and keep serving. The whole exchange
/// runs on a thread with an explicit 2 MiB stack, so a larger
/// `RUST_MIN_STACK` cannot hide a recursion.
#[test]
fn a_nesting_bomb_is_a_bad_request_and_the_daemon_keeps_serving() {
    let depth = 200_000;
    let bomb = format!(
        "{{\"op\":\"scan\",\"x\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    assert!(bomb.len() < vbadet::serve::MAX_REQUEST_LINE_BYTES);
    thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let _guard = global_guard();
            let detail = vbadet::serve::parse_request(&bomb).unwrap_err();
            assert!(detail.contains("nesting deeper than"), "{detail}");

            let det = tiny_detector();
            let config = ServeConfig::new(ScanPolicy::default());
            let (summary, ()) = with_server(&det, &config, |addr| {
                let mut c = Client::connect(addr);
                let bad = reply(&c.roundtrip(&bomb));
                assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
                assert_eq!(bad.get("error").and_then(Json::as_str), Some("bad-request"));
                let health = reply(&c.roundtrip("health"));
                assert_eq!(health.get("ok"), Some(&Json::Bool(true)), "{health:?}");
            });
            assert_eq!(summary.responses, 2);
        })
        .unwrap()
        .join()
        .unwrap();
}

#[cfg(unix)]
#[test]
fn the_unix_transport_works_and_replaces_a_stale_socket_file() {
    let _guard = global_guard();
    let det = tiny_detector();
    let path = std::env::temp_dir().join(format!("vbadet-serve-{}.sock", std::process::id()));
    // A stale socket file from a "crashed" previous daemon must not block
    // the bind.
    let _ = std::fs::remove_file(&path);
    drop(Listener::bind_unix(&path).unwrap());
    let listener = Listener::bind_unix(&path).unwrap();
    assert!(listener.tcp_addr().is_none());

    let config = ServeConfig::new(ScanPolicy::default());
    let mut summary = None;
    thread::scope(|s| {
        let server = s.spawn(|| vbadet::serve(&listener, &det, &config, None));
        let stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"ready\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ready\":true"), "{line}");
        vbadet::scan::interrupt::request_drain();
        summary = Some(server.join().unwrap());
    });
    assert_eq!(summary.unwrap().responses, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn isolated_and_in_process_service_verdicts_agree() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = std::env::temp_dir().join(format!("vbadet-serve-iso-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("doc.bin");
    std::fs::write(&doc, macro_document()).unwrap();
    let junk = dir.join("junk.doc");
    std::fs::write(&junk, b"definitely not a document").unwrap();

    let outcomes = |config: &ServeConfig| {
        let (summary, lines) = with_server(&det, config, |addr| {
            let mut c = Client::connect(addr);
            [
                c.roundtrip(&format!("scan {}", doc.display())),
                c.roundtrip(&format!("scan {}", junk.display())),
            ]
        });
        assert_eq!(summary.accepted, 2);
        lines
    };

    let in_process = outcomes(&ServeConfig::new(ScanPolicy::default()));
    let isolated = outcomes(&ServeConfig::new(ScanPolicy::default().isolated(
        vbadet::IsolateConfig::new(vec![env!("CARGO_BIN_EXE_isolation_worker").to_string()]),
    )));
    // Byte-identical responses: isolation changes the blast radius, never
    // the answer.
    assert_eq!(in_process, isolated);
    assert!(
        in_process[0].contains("\"kind\":\"macros\""),
        "{in_process:?}"
    );
    assert!(
        in_process[1].contains("unknown-container"),
        "{in_process:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn an_inline_spool_never_follows_a_planted_symlink() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = std::env::temp_dir().join(format!("vbadet-serve-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let victim = dir.join("victim.txt");
    std::fs::write(&victim, b"precious").unwrap();

    // An isolated service spools inline bytes under a predictable name;
    // the first `bytes_hex` request takes sequence number 1 (admission
    // takes 0 for its key). Plant a symlink there first.
    let spool =
        std::env::temp_dir().join(format!("vbadet-serve-inline-{}-1.bin", std::process::id()));
    let _ = std::fs::remove_file(&spool);
    std::os::unix::fs::symlink(&victim, &spool).unwrap();

    let config = ServeConfig::new(ScanPolicy::default().isolated(vbadet::IsolateConfig::new(
        vec![env!("CARGO_BIN_EXE_isolation_worker").to_string()],
    )));
    let (_, line) = with_server(&det, &config, |addr| {
        Client::connect(addr).roundtrip(&format!(
            "{{\"op\":\"scan\",\"bytes_hex\":\"{}\"}}",
            hex(&macro_document())
        ))
    });
    let is_link = std::fs::symlink_metadata(&spool).map(|m| m.file_type().is_symlink());
    let _ = std::fs::remove_file(&spool);

    assert!(
        std::fs::read(&victim).unwrap() == b"precious",
        "the inline spool followed the symlink and overwrote its target"
    );
    assert!(
        matches!(is_link, Ok(true)),
        "the planted symlink was replaced"
    );
    assert_eq!(
        reply(&line)
            .get("outcome")
            .and_then(|o| o.get("class"))
            .and_then(Json::as_str),
        Some("io-error"),
        "{line}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_oversized_request_line_is_rejected_typed_then_the_connection_closes() {
    let _guard = global_guard();
    let det = tiny_detector();
    let config = ServeConfig::new(ScanPolicy::default());
    let (summary, ()) = with_server(&det, &config, |addr| {
        let mut c = Client::connect(addr);
        // One byte over the 1 MiB line cap with no newline in sight: the
        // server must answer typed instead of buffering forever. (Exactly
        // one byte over, so the server consumes the whole send before
        // closing — a clean FIN, not an RST that could eat the reply.)
        let blob = vec![b'a'; vbadet::serve::MAX_REQUEST_LINE_BYTES - 4];
        c.writer.write_all(b"scan ").unwrap();
        c.writer.write_all(&blob).unwrap();
        let reply = c.recv();
        assert!(reply.contains("\"error\":\"oversized\""), "{reply}");
        // EOF follows: the unframeable rest of the line cannot be parsed.
        let mut rest = String::new();
        assert_eq!(c.reader.read_line(&mut rest).unwrap(), 0);
    });
    assert_eq!(summary.responses, 1);
    assert_eq!(summary.accepted, 0);
}

#[test]
fn a_reload_swaps_generations_and_old_cache_entries_become_misses() {
    let _guard = global_guard();
    let det = tiny_detector();
    let next = tiny_detector_seeded(99);
    let dir = std::env::temp_dir().join(format!("vbadet-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("doc.bin");
    std::fs::write(&doc, macro_document()).unwrap();
    let model = dir.join("next.model");
    std::fs::write(&model, next.save()).unwrap();

    // An in-memory result cache, to prove a reload invalidates it: the
    // bound key embeds the detector fingerprint, so entries written under
    // generation 1 must be clean misses for generation 2.
    let policy =
        ScanPolicy::default().with_cache(std::sync::Arc::new(vbadet::ScanCache::in_memory(64)));
    let config = ServeConfig::new(policy);
    let (summary, ()) = with_server(&det, &config, |addr| {
        let mut c = Client::connect(addr);
        let line = format!("scan {}", doc.display());

        let before = reply(&c.roundtrip("model"));
        assert_eq!(before.get("generation"), Some(&Json::Int(1)));
        assert_eq!(
            before.get("version").and_then(Json::as_str),
            Some("startup")
        );

        // Two identical scans under generation 1: a miss, then a hit.
        for _ in 0..2 {
            let scan = c.roundtrip(&line);
            assert_eq!(
                reply(&scan).get("generation"),
                Some(&Json::Int(1)),
                "{scan}"
            );
            assert!(scan.contains("\"kind\":\"macros\""), "{scan}");
        }

        let reload = c.roundtrip(&format!("reload {}", model.display()));
        assert!(reload.contains("\"ok\":true"), "{reload}");
        assert!(reload.contains("\"op\":\"reload\""), "{reload}");
        let reload = reply(&reload);
        assert_eq!(reload.get("generation"), Some(&Json::Int(2)));
        let new_fp = reload.get("fingerprint");
        assert_ne!(
            new_fp,
            before.get("fingerprint"),
            "distinct models must fingerprint apart"
        );

        let after = reply(&c.roundtrip("model"));
        assert_eq!(after.get("generation"), Some(&Json::Int(2)));
        assert_eq!(after.get("fingerprint"), new_fp);
        assert_eq!(
            after.get("version").and_then(Json::as_str),
            Some(model.display().to_string().as_str())
        );

        // The same document again: generation 1's cache entry must be a
        // clean miss for generation 2 (the key embeds the fingerprint),
        // then the re-scan's insert serves the final request.
        for _ in 0..2 {
            let scan = c.roundtrip(&line);
            assert_eq!(
                reply(&scan).get("generation"),
                Some(&Json::Int(2)),
                "{scan}"
            );
            assert!(scan.contains("\"kind\":\"macros\""), "{scan}");
        }
    });

    assert_eq!(summary.accepted, 4);
    let snapshot = summary.metrics.unwrap();
    assert_eq!(
        snapshot.histograms["cache.hits"].total, 2,
        "one hit per generation — never across the reload"
    );
    assert_eq!(snapshot.histograms["cache.misses"].total, 2);
    assert_eq!(snapshot.histograms["reload.success"].total, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_model_is_rejected_typed_and_the_old_generation_serves() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = std::env::temp_dir().join(format!("vbadet-serve-badmodel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("doc.bin");
    std::fs::write(&doc, macro_document()).unwrap();
    let garbage = dir.join("garbage.model");
    std::fs::write(&garbage, "not a saved detector at all\n").unwrap();

    let config = ServeConfig::new(ScanPolicy::default());
    let (summary, ()) = with_server(&det, &config, |addr| {
        let mut c = Client::connect(addr);

        let rejected = c.roundtrip(&format!("reload {}", garbage.display()));
        assert!(rejected.contains("\"ok\":false"), "{rejected}");
        assert!(
            rejected.contains("\"error\":\"reload-failed\""),
            "{rejected}"
        );
        assert!(rejected.contains("loading"), "{rejected}");

        let missing = c.roundtrip(&format!("reload {}", dir.join("absent").display()));
        assert!(missing.contains("\"error\":\"reload-failed\""), "{missing}");
        assert!(missing.contains("reading"), "{missing}");

        // The old generation never stopped serving.
        let model = c.roundtrip("model");
        assert_eq!(reply(&model).get("generation"), Some(&Json::Int(1)));
        let scan = c.roundtrip(&format!("scan {}", doc.display()));
        assert_eq!(
            reply(&scan).get("generation"),
            Some(&Json::Int(1)),
            "{scan}"
        );
        assert!(scan.contains("\"kind\":\"macros\""), "{scan}");
    });

    let snapshot = summary.metrics.unwrap();
    assert_eq!(snapshot.histograms["reload.failed"].total, 2);
    assert!(!snapshot.histograms.contains_key("reload.success"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_reloads_serialize_and_the_last_swap_wins() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = std::env::temp_dir().join(format!("vbadet-serve-relrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.model");
    std::fs::write(&a, tiny_detector_seeded(7).save()).unwrap();
    let b = dir.join("b.model");
    std::fs::write(&b, tiny_detector_seeded(8).save()).unwrap();

    const RELOADERS: usize = 4;
    let config = ServeConfig::new(ScanPolicy::default());
    let (_, (mut generations, last_fp)) = with_server(&det, &config, |addr| {
        let replies: Vec<String> = thread::scope(|s| {
            let handles: Vec<_> = (0..RELOADERS)
                .map(|i| {
                    let path = if i % 2 == 0 { &a } else { &b };
                    s.spawn(move || {
                        Client::connect(addr).roundtrip(&format!("reload {}", path.display()))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for reply in &replies {
            assert!(reply.contains("\"ok\":true"), "{reply}");
        }
        let replies: Vec<Json> = replies.iter().map(|r| reply(r)).collect();
        let generation = |r: &Json| r.get("generation").and_then(Json::as_u64).unwrap();
        let winner = replies.iter().max_by_key(|r| generation(r)).unwrap();
        let model = reply(&Client::connect(addr).roundtrip("model"));
        // Last-wins: whichever reload minted the highest generation is
        // the one still serving after the dust settles.
        assert_eq!(generation(&model), generation(winner));
        (
            replies.iter().map(generation).collect::<Vec<u64>>(),
            (
                model.get("fingerprint").cloned(),
                winner.get("fingerprint").cloned(),
            ),
        )
    });
    // Serialized end to end: every reload got its own generation number,
    // with no gaps and no ties.
    generations.sort_unstable();
    assert_eq!(generations, (2..2 + RELOADERS as u64).collect::<Vec<_>>());
    assert_eq!(last_fp.0, last_fp.1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sighup_style_reload_request_is_equivalent_to_the_wire_verb() {
    let _guard = global_guard();
    let det = tiny_detector();
    let dir = std::env::temp_dir().join(format!("vbadet-serve-sighup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("rollout.model");
    std::fs::write(&model, tiny_detector_seeded(42).save()).unwrap();

    let mut config = ServeConfig::new(ScanPolicy::default());
    // The CLI wires --model here; the signal handler only sets the latch.
    config.reload_path = Some(model.clone());
    let (_, ()) = with_server(&det, &config, |addr| {
        let mut c = Client::connect(addr);
        assert_eq!(
            reply(&c.roundtrip("model")).get("generation"),
            Some(&Json::Int(1))
        );

        // What the SIGHUP handler does — the accept loop consumes the
        // latch on its next tick and reloads from `reload_path`.
        vbadet::request_reload();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let signal_reload = loop {
            let model = c.roundtrip("model");
            if reply(&model).get("generation") == Some(&Json::Int(2)) {
                break model;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "signal-driven reload never landed: {model}"
            );
            thread::sleep(std::time::Duration::from_millis(20));
        };

        // The wire verb against the same path: one generation further,
        // same fingerprint — the two paths load the identical model.
        let wire_reload = c.roundtrip(&format!("reload {}", model.display()));
        let (wire_reload, signal_reload) = (reply(&wire_reload), reply(&signal_reload));
        assert_eq!(wire_reload.get("generation"), Some(&Json::Int(3)));
        assert_eq!(
            wire_reload.get("fingerprint"),
            signal_reload.get("fingerprint")
        );
        assert_eq!(
            signal_reload.get("version").and_then(Json::as_str),
            Some(model.display().to_string().as_str())
        );
    });

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn bind_unix_refuses_to_replace_a_non_socket_file() {
    let _guard = global_guard();
    let path = std::env::temp_dir().join(format!("vbadet-notsock-{}", std::process::id()));
    std::fs::write(&path, b"precious operator data").unwrap();

    let err = match Listener::bind_unix(&path) {
        Err(e) => e,
        Ok(_) => panic!("bind over a regular file must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    let msg = err.to_string();
    assert!(msg.contains("refusing to replace"), "{msg}");
    assert!(msg.contains("not a socket"), "{msg}");
    // The refusal means the file survives untouched.
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"precious operator data",
        "the non-socket file must not be unlinked"
    );

    let _ = std::fs::remove_file(&path);
}

#[cfg(feature = "faultpoints")]
mod faults {
    use super::*;
    use vbadet_faultpoint::configure;

    #[test]
    fn a_full_queue_sheds_with_a_typed_overloaded_rejection() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = std::env::temp_dir().join(format!("vbadet-serve-shed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("doc.bin");
        std::fs::write(&doc, macro_document()).unwrap();

        // Every scan wedges for 400 ms, one worker, a one-deep queue: the
        // first request occupies the worker, the second the queue, and the
        // third must be shed — typed, immediately, not buffered.
        configure("scan::full-parse", "sleep(400)").unwrap();
        let mut config = ServeConfig::new(ScanPolicy::default());
        config.workers = 1;
        config.queue_depth = 1;

        let (summary, third) = with_server(&det, &config, |addr| {
            let mut first = Client::connect(addr);
            let mut second = Client::connect(addr);
            let mut third = Client::connect(addr);
            let line = format!("scan {}", doc.display());
            first.send(&line);
            // Let the worker dequeue the first job before offering the
            // second, so the queue slot is deterministically free for it.
            thread::sleep(Duration::from_millis(150));
            second.send(&line);
            thread::sleep(Duration::from_millis(50));
            third.send(&line);
            let shed = third.recv();
            assert!(
                first.recv().contains("\"kind\":\"macros\""),
                "in-flight request must finish"
            );
            assert!(
                second.recv().contains("\"kind\":\"macros\""),
                "queued request must finish"
            );
            shed
        });
        assert!(third.contains("\"ok\":false"), "{third}");
        assert!(third.contains("\"error\":\"overloaded\""), "{third}");
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.responses, 3);
        let snapshot = summary.metrics.unwrap();
        assert_eq!(snapshot.histograms["serve.shed"].total, 1);
        assert!(snapshot.histograms["serve.queue_depth"].count >= 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_breaker_opens_on_repeated_worker_deaths_and_recovers_by_probe() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = std::env::temp_dir().join(format!("vbadet-serve-brk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("doc.bin");
        std::fs::write(&doc, macro_document()).unwrap();

        // The first two scans die "systemically" (the @1x2 window), then
        // the injection disarms so the recovery probe can succeed.
        configure("serve::inject-death", "return@1x2").unwrap();
        let mut config = ServeConfig::new(ScanPolicy::default());
        config.breaker_threshold = 2;
        config.breaker_backoff = Duration::from_millis(100);

        let (summary, ()) = with_server(&det, &config, |addr| {
            let mut c = Client::connect(addr);
            let line = format!("scan {}", doc.display());
            for _ in 0..2 {
                let dead = c.roundtrip(&line);
                assert!(dead.contains("\"class\":\"fatal\""), "{dead}");
                assert!(dead.contains("injected worker death"), "{dead}");
            }
            let health = c.roundtrip("health");
            assert!(health.contains("\"breaker\":\"open\""), "{health}");
            let ready = c.roundtrip("ready");
            assert!(ready.contains("\"reason\":\"breaker-open\""), "{ready}");

            // While open: fast typed rejection with a retry hint, no
            // worker touched.
            let rejected = c.roundtrip(&line);
            assert!(
                rejected.contains("\"error\":\"breaker-open\""),
                "{rejected}"
            );
            assert!(rejected.contains("\"retry_ms\":"), "{rejected}");

            // Past the cooldown the next scan is the half-open probe; the
            // injection window has closed, so it succeeds and the breaker
            // closes for everyone.
            thread::sleep(Duration::from_millis(150));
            let probe = c.roundtrip(&line);
            assert!(probe.contains("\"kind\":\"macros\""), "{probe}");
            let health = c.roundtrip("health");
            assert!(health.contains("\"breaker\":\"closed\""), "{health}");
        });

        assert_eq!(summary.accepted, 3, "two deaths + the probe");
        assert_eq!(summary.responses, 7);
        let snapshot = summary.metrics.unwrap();
        assert_eq!(snapshot.histograms["serve.breaker_opens"].count, 1);
        assert!(snapshot.histograms["serve.breaker_rejects"].total >= 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_drain_finishes_in_flight_requests_before_the_service_exits() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = std::env::temp_dir().join(format!("vbadet-serve-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("doc.bin");
        std::fs::write(&doc, macro_document()).unwrap();

        configure("scan::full-parse", "sleep(300)").unwrap();
        let config = ServeConfig::new(ScanPolicy::default());
        let (summary, reply) = with_server(&det, &config, |addr| {
            let mut c = Client::connect(addr);
            c.send(&format!("scan {}", doc.display()));
            // The scan is mid-flight when the drain fires; its terminal
            // response must still arrive before the daemon exits.
            thread::sleep(Duration::from_millis(100));
            vbadet::scan::interrupt::request_drain();
            c.recv()
        });
        assert!(reply.contains("\"kind\":\"macros\""), "{reply}");
        assert!(summary.drained);
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.responses, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poison_document_costs_an_isolate_worker_never_the_service() {
        let _guard = global_guard();
        let det = tiny_detector();
        let dir = std::env::temp_dir().join(format!("vbadet-serve-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("doc.bin");
        std::fs::write(&doc, macro_document()).unwrap();
        let safe = dir.join("safe.txt");
        std::fs::write(&safe, b"plain junk, never reaches the OLE parser").unwrap();

        // The workers abort inside the OLE parser (their environment arms
        // the faultpoint); the service process never parses OLE itself.
        let isolate =
            vbadet::IsolateConfig::new(vec![env!("CARGO_BIN_EXE_isolation_worker").to_string()])
                .env("VBADET_FAULTPOINTS", "ole::parse=abort");
        let config = ServeConfig::new(ScanPolicy::default().isolated(isolate));

        let (summary, ()) = with_server(&det, &config, |addr| {
            let mut c = Client::connect(addr);
            let poisoned = c.roundtrip(&format!("scan {}", doc.display()));
            assert!(poisoned.contains("\"class\":\"fatal\""), "{poisoned}");
            assert!(poisoned.contains("quarantined"), "{poisoned}");
            // The service took the hit and keeps answering.
            let health = c.roundtrip("health");
            assert!(health.contains("\"ok\":true"), "{health}");
            let safe_scan = c.roundtrip(&format!("scan {}", safe.display()));
            assert!(safe_scan.contains("unknown-container"), "{safe_scan}");
        });
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.responses, 3);
        let snapshot = summary.metrics.unwrap();
        assert_eq!(snapshot.histograms["isolate.quarantines"].total, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reload_during_drain_is_rejected_typed_and_the_drain_completes() {
        let _guard = global_guard();
        let det = tiny_detector();
        let next = tiny_detector_seeded(13);
        let dir =
            std::env::temp_dir().join(format!("vbadet-serve-reldrain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("doc.bin");
        std::fs::write(&doc, macro_document()).unwrap();
        let model = dir.join("next.model");
        std::fs::write(&model, next.save()).unwrap();

        // Wedge the scan long enough to latch the drain and queue the
        // reload line behind it on the same connection.
        configure("scan::full-parse", "sleep(300)").unwrap();
        let config = ServeConfig::new(ScanPolicy::default());
        let (summary, (scan, reload)) = with_server(&det, &config, |addr| {
            let mut c = Client::connect(addr);
            c.send(&format!("scan {}", doc.display()));
            thread::sleep(Duration::from_millis(100));
            // Both land while the scan wedges: the connection thread will
            // see the reload only after the drain has latched.
            c.send(&format!("reload {}", model.display()));
            vbadet::scan::interrupt::request_drain();
            (c.recv(), c.recv())
        });
        // The in-flight scan still finished under its admitted
        // generation; the reload was refused, not half-applied.
        assert!(scan.contains("\"kind\":\"macros\""), "{scan}");
        assert_eq!(
            reply(&scan).get("generation"),
            Some(&Json::Int(1)),
            "{scan}"
        );
        assert!(reload.contains("\"ok\":false"), "{reload}");
        assert!(reload.contains("\"error\":\"draining\""), "{reload}");
        assert!(
            reload.contains("reload rejected: the service is draining"),
            "{reload}"
        );
        assert!(summary.drained);
        assert_eq!(summary.responses, 2);
        let snapshot = summary.metrics.unwrap();
        assert!(!snapshot.histograms.contains_key("reload.success"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_successful_reload_closes_an_open_breaker() {
        let _guard = global_guard();
        let det = tiny_detector();
        let next = tiny_detector_seeded(21);
        let dir = std::env::temp_dir().join(format!("vbadet-serve-relbrk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("doc.bin");
        std::fs::write(&doc, macro_document()).unwrap();
        let model = dir.join("next.model");
        std::fs::write(&model, next.save()).unwrap();

        // Two injected worker deaths trip the breaker; the long backoff
        // guarantees only the reload — never the cooldown — can close it.
        configure("serve::inject-death", "return@1x2").unwrap();
        let mut config = ServeConfig::new(ScanPolicy::default());
        config.breaker_threshold = 2;
        config.breaker_backoff = Duration::from_secs(60);

        let (_, ()) = with_server(&det, &config, |addr| {
            let mut c = Client::connect(addr);
            let line = format!("scan {}", doc.display());
            for _ in 0..2 {
                let dead = c.roundtrip(&line);
                assert!(dead.contains("\"class\":\"fatal\""), "{dead}");
            }
            let health = c.roundtrip("health");
            assert!(health.contains("\"breaker\":\"open\""), "{health}");

            // A reload is allowed while the breaker is open — the swap is
            // the remediation — and a successful one closes it for
            // everyone, no cooldown, no probe.
            let reload = c.roundtrip(&format!("reload {}", model.display()));
            assert!(reload.contains("\"ok\":true"), "{reload}");
            assert_eq!(reply(&reload).get("generation"), Some(&Json::Int(2)));
            let health = c.roundtrip("health");
            assert!(health.contains("\"breaker\":\"closed\""), "{health}");

            // Traffic flows immediately under the new generation.
            let scan = c.roundtrip(&line);
            assert_eq!(
                reply(&scan).get("generation"),
                Some(&Json::Int(2)),
                "{scan}"
            );
            assert!(scan.contains("\"kind\":\"macros\""), "{scan}");
        });

        let _ = std::fs::remove_dir_all(&dir);
    }
}
