//! Resident-service round-trip throughput, recorded to
//! `results/BENCH_serve.json`.
//!
//! Like `scan_parallel`, this rolls its own timing: the unit of interest
//! is a full client round trip through the live service — connect once,
//! then newline-delimited request/response over a loopback TCP socket —
//! because that is what a caller of `vbadet serve` actually pays. Three
//! request shapes are measured separately:
//!
//! - `scan_rps`: text-verb `scan <path>` of an on-disk macro document,
//!   the steady-state triage mode (admission queue + worker pool + full
//!   parse/extract/score pipeline per request),
//! - `inline_rps`: JSON requests carrying the document as `bytes_hex`,
//!   which adds request parsing and hex decode to the same pipeline,
//! - `health_rps`: the `health` probe, answered on the connection thread
//!   without touching the queue — its throughput is the protocol floor.
//!
//! Each figure is best-of-[`REPS`] over a fixed wave of requests from
//! [`CLIENTS`] concurrent connections against one long-lived server, so
//! bind/spawn cost stays out of the steady-state numbers. The keys are
//! new relative to `results/BENCH_baseline.json`, so the CI regression
//! gate records them without gating until a refreshed baseline picks
//! them up.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use vbadet::json::hex;
use vbadet::scan::interrupt;
use vbadet::{serve, Listener, ScanPolicy, ServeConfig};
use vbadet_bench::{
    bench_detector, fresh_dir, is_test_run, served_macro_project, write_result, DrainOnDrop,
};

const REPS: usize = 3;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 100;
const WAVE: usize = CLIENTS * REQUESTS_PER_CLIENT;

/// One client connection driving `REQUESTS_PER_CLIENT` strictly
/// sequential round trips of `line`; every reply must contain `expect`.
fn drive(addr: std::net::SocketAddr, line: &str, expect: &str) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let framed = format!("{line}\n");
    let mut reply = String::new();
    for _ in 0..REQUESTS_PER_CLIENT {
        writer.write_all(framed.as_bytes()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.contains(expect),
            "serve bench: unexpected reply {reply:?} (wanted {expect:?})"
        );
    }
}

/// Best-of-`REPS` wall clock for one wave of `WAVE` round trips from
/// `CLIENTS` concurrent connections, as requests/sec.
fn best_wave_rps(addr: std::net::SocketAddr, line: &str, expect: &str) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| drive(addr, line, expect));
            }
        });
        best = best.min(start.elapsed());
    }
    WAVE as f64 / best.as_secs_f64()
}

fn main() {
    if is_test_run() {
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.clamp(2, 8);

    let dir = fresh_dir("serve");
    let doc = served_macro_project();
    let doc_path = dir.join("doc.bin");
    std::fs::write(&doc_path, &doc).unwrap();

    let detector = bench_detector();

    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.tcp_addr().unwrap();
    let mut config = ServeConfig::new(ScanPolicy::default());
    config.workers = workers;
    // Deep enough that the wave measures scan throughput, not shedding.
    config.queue_depth = WAVE;

    interrupt::reset();
    let scan_line = format!("scan {}", doc_path.display());
    let inline_line = format!("{{\"op\":\"scan\",\"bytes_hex\":\"{}\"}}", hex(&doc));

    let (scan_rps, inline_rps, health_rps, summary) = thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &detector, &config, None));
        let drain = DrainOnDrop;
        drive(addr, "ready", "\"ok\""); // server is up once this returns

        let scan_rps = best_wave_rps(addr, &scan_line, "\"verdicts\"");
        let inline_rps = best_wave_rps(addr, &inline_line, "\"verdicts\"");
        let health_rps = best_wave_rps(addr, "health", "\"ok\"");

        drop(drain);
        let summary = server.join().unwrap();
        (scan_rps, inline_rps, health_rps, summary)
    });

    // Only the two scan-shaped waves are admitted; health/ready answer on
    // the connection thread without touching the queue.
    assert_eq!(
        summary.accepted,
        (2 * REPS * WAVE) as u64,
        "every scan round trip must have been admitted exactly once"
    );
    assert_eq!(summary.shed, 0, "the bench waves must not shed");
    assert!(summary.drained, "the server must exit via drain");

    println!(
        "serve: {CLIENTS} clients x {REQUESTS_PER_CLIENT} reqs, {workers} workers, {cores} core(s)\n\
           scan    {scan_rps:>8.1} req/s\n\
           inline  {inline_rps:>8.1} req/s\n\
           health  {health_rps:>8.1} req/s",
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"clients\": {CLIENTS},\n  \
         \"requests_per_client\": {REQUESTS_PER_CLIENT},\n  \"workers\": {workers},\n  \
         \"cores\": {cores},\n  \"reps\": {REPS},\n  \"scan_rps\": {scan_rps:.2},\n  \
         \"inline_rps\": {inline_rps:.2},\n  \"health_rps\": {health_rps:.2}\n}}\n"
    );
    write_result("BENCH_serve.json", &json);

    let _ = std::fs::remove_dir_all(&dir);
}
