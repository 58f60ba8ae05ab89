//! Hot-reload latency tax, recorded to `results/BENCH_reload.json`.
//!
//! Like `serve`, this rolls its own timing: the figure of interest is the
//! client-visible p99 round-trip latency of a `scan` request, measured in
//! two regimes against the same live service —
//!
//! - `steady_p99_ms`: no reloads, the baseline request distribution,
//! - `churn_p99_ms`: an operator connection hot-swaps the model every
//!   500 ms (alternating two saved detectors) for the whole phase.
//!
//! Zero-downtime means the swap is not allowed to stall traffic: a
//! reload builds the new generation off the request path and replaces an
//! `Arc` under a briefly-held lock, so the churn distribution should sit
//! on top of the steady one. The CI gate holds `churn_p99_ms` to at most
//! 2x `steady_p99_ms` — generous enough for scheduler noise on a loaded
//! box, tight enough that a reload that blocks admission (the failure
//! mode this bench exists to catch) trips it immediately.
//!
//! Neither key matches `*_docs_per_sec`, so the throughput-regression
//! gate ignores this file; the reload gate reads it directly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use vbadet::scan::interrupt;
use vbadet::{serve, Detector, DetectorConfig, Listener, ScanPolicy, ServeConfig};
use vbadet_corpus::CorpusSpec;
use vbadet_ovba::VbaProjectBuilder;

const CLIENTS: usize = 4;
const PHASE_SECS: u64 = 3;
const RELOAD_EVERY: Duration = Duration::from_millis(500);

fn macro_project() -> Vec<u8> {
    let mut body = String::new();
    for line in 0..150 {
        body.push_str(&format!(
            "    v{line} = v{} + {}\r\n",
            line.max(1) - 1,
            line + 2
        ));
    }
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", &format!("Sub Work()\r\n{body}End Sub\r\n"));
    b.build().unwrap()
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// One client looping `line` round trips until `deadline`, returning
/// every observed latency.
fn drive_timed(
    addr: std::net::SocketAddr,
    line: &str,
    expect: &str,
    deadline: Instant,
) -> Vec<Duration> {
    let (mut writer, mut reader) = connect(addr);
    let framed = format!("{line}\n");
    let mut reply = String::new();
    let mut latencies = Vec::new();
    while Instant::now() < deadline {
        let start = Instant::now();
        writer.write_all(framed.as_bytes()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        latencies.push(start.elapsed());
        assert!(
            reply.contains(expect),
            "reload bench: unexpected reply {reply:?} (wanted {expect:?})"
        );
    }
    latencies
}

/// One measurement phase: `CLIENTS` concurrent scan loops for
/// `PHASE_SECS`, with an optional reload churn riding alongside.
fn phase(
    addr: std::net::SocketAddr,
    scan_line: &str,
    models: Option<(&PathBuf, &PathBuf)>,
) -> (Vec<Duration>, u64) {
    let deadline = Instant::now() + Duration::from_secs(PHASE_SECS);
    let reloads = AtomicU64::new(0);
    let mut latencies = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| drive_timed(addr, scan_line, "\"verdicts\"", deadline)))
            .collect();
        if let Some((a, b)) = models {
            let reloads = &reloads;
            s.spawn(move || {
                let (mut writer, mut reader) = connect(addr);
                let mut reply = String::new();
                let mut n = 0u64;
                while Instant::now() < deadline {
                    let path = if n.is_multiple_of(2) { b } else { a };
                    writer
                        .write_all(format!("reload {}\n", path.display()).as_bytes())
                        .unwrap();
                    reply.clear();
                    reader.read_line(&mut reply).unwrap();
                    assert!(
                        reply.contains("\"op\":\"reload\""),
                        "reload bench: swap failed: {reply}"
                    );
                    reloads.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                    thread::sleep(RELOAD_EVERY);
                }
            });
        }
        for h in handles {
            latencies.extend(h.join().unwrap());
        }
    });
    (latencies, reloads.load(Ordering::Relaxed))
}

fn percentile_ms(latencies: &mut [Duration], pct: f64) -> f64 {
    assert!(!latencies.is_empty(), "a phase produced no samples");
    latencies.sort_unstable();
    let idx = ((latencies.len() - 1) as f64 * pct / 100.0).round() as usize;
    latencies[idx].as_secs_f64() * 1e3
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.clamp(2, 8);

    let dir = std::env::temp_dir().join(format!("vbadet-bench-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let doc_path = dir.join("doc.bin");
    std::fs::write(&doc_path, macro_project()).unwrap();

    let spec = CorpusSpec::paper().scaled(0.002);
    let detector = Detector::train_on_corpus(&DetectorConfig::default(), &spec);
    let seeded = DetectorConfig {
        seed: 99,
        ..DetectorConfig::default()
    };
    let model_a = dir.join("model-a.txt");
    std::fs::write(&model_a, detector.save()).unwrap();
    let model_b = dir.join("model-b.txt");
    std::fs::write(&model_b, Detector::train_on_corpus(&seeded, &spec).save()).unwrap();

    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.tcp_addr().unwrap();
    let mut config = ServeConfig::new(ScanPolicy::default());
    config.workers = workers;
    // Deep enough that the phases measure latency, not shedding.
    config.queue_depth = 4096;

    interrupt::reset();
    let scan_line = format!("scan {}", doc_path.display());

    struct DrainOnDrop;
    impl Drop for DrainOnDrop {
        fn drop(&mut self) {
            interrupt::request_drain();
        }
    }
    let (mut steady, mut churn, reloads) = thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &detector, &config, None));
        let drain = DrainOnDrop;
        // Server is up — and the first scan's one-time costs are paid —
        // before either phase starts timing.
        drive_timed(
            addr,
            &scan_line,
            "\"verdicts\"",
            Instant::now() + Duration::from_millis(200),
        );

        let (steady, _) = phase(addr, &scan_line, None);
        let (churn, reloads) = phase(addr, &scan_line, Some((&model_a, &model_b)));

        drop(drain);
        let summary = server.join().unwrap();
        assert_eq!(summary.shed, 0, "the bench phases must not shed");
        (steady, churn, reloads)
    });

    assert!(
        reloads >= 3,
        "the churn phase managed only {reloads} reloads; nothing was measured"
    );
    let steady_n = steady.len();
    let churn_n = churn.len();
    let steady_p99 = percentile_ms(&mut steady, 99.0);
    let steady_p50 = percentile_ms(&mut steady, 50.0);
    let churn_p99 = percentile_ms(&mut churn, 99.0);
    let churn_p50 = percentile_ms(&mut churn, 50.0);

    println!(
        "reload: {CLIENTS} clients, {workers} workers, {cores} core(s), \
         {PHASE_SECS}s per phase\n\
           steady  p50 {steady_p50:>7.2} ms   p99 {steady_p99:>7.2} ms  ({steady_n} reqs)\n\
           churn   p50 {churn_p50:>7.2} ms   p99 {churn_p99:>7.2} ms  \
         ({churn_n} reqs, {reloads} reloads)",
    );

    let results_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results_dir).unwrap();
    let json = format!(
        "{{\n  \"bench\": \"reload\",\n  \"clients\": {CLIENTS},\n  \
         \"phase_secs\": {PHASE_SECS},\n  \"workers\": {workers},\n  \
         \"cores\": {cores},\n  \"reloads\": {reloads},\n  \
         \"steady_requests\": {steady_n},\n  \"churn_requests\": {churn_n},\n  \
         \"steady_p50_ms\": {steady_p50:.3},\n  \"steady_p99_ms\": {steady_p99:.3},\n  \
         \"churn_p50_ms\": {churn_p50:.3},\n  \"churn_p99_ms\": {churn_p99:.3}\n}}\n"
    );
    let out = results_dir.join("BENCH_reload.json");
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());

    let _ = std::fs::remove_dir_all(&dir);
}
