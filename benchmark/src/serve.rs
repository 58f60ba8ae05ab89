//! `serve_campaign`: `vbadet serve` with CLI defaults under a campaign-like
//! request mix, in three phases, each round of them on a fresh daemon with
//! a cold cache: Poisson open loops at 150 and 800 requests/s, then a
//! closed loop in [`CLOSED_ROUNDS`] rounds.

use crate::expect::{self, Reply};
use crate::inputs::{self, Doc, PoolLayout, Req};
use crate::json::{self, Json};
use crate::procfs;
use crate::stats::{median, percentile, tail_percentile};
use crate::{Ctx, Report};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};
use vbadet::Detector;
use vbadet_corpus::{CorpusSpec, MacroSample};

/// Client connections; the daemon answers one request at a time on each.
const CONNECTIONS: usize = 2;

/// Daemon starts whose median is `setup_s`: one per phase plus extras.
const SETUP_STARTS: usize = 12;

/// Warm-up documents, sent before a phase so both isolate workers exist.
const WARMUP_DOCS: usize = 16;

const LOW_RATE: f64 = 150.0;
const HIGH_RATE: f64 = 800.0;

/// Shares of the run spent in the two open-loop phases; each closed-loop
/// round sends [`CLOSED_PER_SECOND`] × seconds requests after them. The
/// open loops only feed diagnostics, so the closed loop, whose rate is
/// `docs_per_s`, gets about two thirds of the run.
const LOW_SHARE: f64 = 0.2;
const HIGH_SHARE: f64 = 0.1;
const CLOSED_PER_SECOND: f64 = 260.0;

/// Closed-loop rounds, each on a fresh daemon; `docs_per_s` is the median
/// of their rates.
const CLOSED_ROUNDS: usize = 5;

/// Latency limit on the closed loop's p90: above it `docs_per_s` is 0, so
/// a rate bought with longer waits does not read as a gain.
const CLOSED_P90_LIMIT_MS: f64 = 20.0;

/// The pool is sized for this share of fresh requests (70% expected).
const FRESH_MARGIN: f64 = 0.8;

/// The written inputs of one run.
struct Inputs {
    pool: Vec<String>,
    expected: Vec<String>,
    warmup: Vec<(String, String)>,
}

/// Writes the pool (two packaging threads) and computes expected outcomes.
fn write_inputs(
    ctx: &Ctx,
    spec: &CorpusSpec,
    macros: &[MacroSample],
    layout: &PoolLayout,
) -> Result<Inputs, String> {
    let dir = ctx.work.join("serve");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let write = |doc: &Doc, detector: &Detector| -> Result<(String, String), String> {
        let path = dir.join(&doc.name);
        std::fs::write(&path, &doc.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((
            path.display().to_string(),
            expect::expected(detector, &doc.bytes),
        ))
    };
    type Round = (usize, Vec<(String, String)>);
    let mut rounds: Vec<Vec<(String, String)>> = vec![Vec::new(); layout.rounds];
    thread::scope(|s| -> Result<(), String> {
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let write = &write;
                s.spawn(move || -> Result<Vec<Round>, String> {
                    let mut out = Vec::new();
                    for round in (w..layout.rounds).step_by(2) {
                        let mut written = Vec::new();
                        inputs::pool_round(spec, macros, round, |d| {
                            written.push(write(&d, &ctx.detector))
                        });
                        out.push((round, written.into_iter().collect::<Result<_, _>>()?));
                    }
                    Ok(out)
                })
            })
            .collect();
        for w in writers {
            for (round, written) in w.join().expect("pool writer panicked")? {
                rounds[round] = written;
            }
        }
        Ok(())
    })?;
    let (pool, expected) = rounds.into_iter().flatten().unzip();
    let warmup = inputs::warmup_docs(ctx.seed, macros, WARMUP_DOCS)
        .iter()
        .map(|d| write(d, &ctx.detector))
        .collect::<Result<_, _>>()?;
    Ok(Inputs {
        pool,
        expected,
        warmup,
    })
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(&self.line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Scans `path`; whether the reply matches `expected`.
    fn scan(&mut self, path: &str, expected: &str) -> Result<bool, String> {
        let reply = self.call(&format!("scan {path}\n"))?;
        Ok(expect::parse_reply(reply)? == Reply::Outcome(expected.to_string()))
    }
}

/// A running `vbadet serve`.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<thread::JoinHandle<String>>,
    setup_s: f64,
}

impl Daemon {
    /// Spawns the daemon with CLI defaults and waits for its first `ready`
    /// and first scan reply; the time to that point is its set-up time.
    fn start(ctx: &Ctx, first: &(String, String)) -> Result<Self, String> {
        let start = Instant::now();
        let mut child = Command::new(&ctx.vbadet)
            .args(["serve", "--tcp", "127.0.0.1:0", "--model"])
            .arg(&ctx.model)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning vbadet serve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("vbadet serve exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on tcp ") {
                break addr
                    .parse()
                    .map_err(|e| format!("bad address {addr:?}: {e}"))?;
            }
        };
        let stderr = thread::spawn(move || {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut stderr, &mut rest);
            rest
        });
        let mut daemon = Daemon {
            child,
            addr,
            stderr: Some(stderr),
            setup_s: 0.0,
        };
        let mut conn = Conn::open(addr)?;
        let ready = conn.call("ready\n")?;
        if !ready.contains("\"ready\":true") {
            return Err(format!("daemon not ready: {ready}"));
        }
        if !conn.scan(&first.0, &first.1)? {
            return Err(format!("wrong first reply for {}", first.0));
        }
        daemon.setup_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's `metrics` snapshot.
    fn metrics(&self) -> Result<Json, String> {
        let mut conn = Conn::open(self.addr)?;
        let reply = json::parse(conn.call("metrics\n")?)?;
        reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| "metrics reply without metrics".to_string())
    }

    /// SIGTERM, graceful drain, reap; the daemon must exit with code 3.
    fn stop(mut self) -> Result<(), String> {
        procfs::terminate(self.child.id());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let log = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if status.code() != Some(3) {
            return Err(format!("vbadet serve exited with {status}: {log}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Outcome of one phase, from the client's side.
#[derive(Default)]
struct Phase {
    /// Latency per request in ms, from when it was due (open loop) or sent
    /// (closed loop); a failed request is infinitely late.
    latency_ms: Vec<f64>,
    failed: usize,
    /// How late the generator woke for requests it sent on time, in ms.
    late_ms: Vec<f64>,
    /// From the phase start to the last reply.
    seconds: f64,
}

/// Runs one planned request sequence over [`CONNECTIONS`] connections. A
/// request that falls due while both connections are busy waits at the
/// client, and that wait counts.
fn drive(addr: SocketAddr, reqs: &[Req], inputs: &Inputs) -> Result<Phase, String> {
    let cursor = AtomicUsize::new(0);
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(Conn::open(addr)?);
    }
    // Both client threads start at `origin`, which is also where the phase
    // time starts, closed loop included.
    let origin = Instant::now() + Duration::from_millis(20);
    let per_conn: Vec<Result<Phase, String>> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = Phase::default();
                    thread::sleep(origin.saturating_duration_since(Instant::now()));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else {
                            return Ok(out);
                        };
                        let due = req.due.map(|d| origin + Duration::from_secs_f64(d));
                        if let Some(due) = due {
                            let now = Instant::now();
                            if now < due {
                                thread::sleep(due - now);
                                out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                            }
                        }
                        let sent = Instant::now();
                        let ok = conn.scan(&inputs.pool[req.doc], &inputs.expected[req.doc])?;
                        let done = Instant::now();
                        out.latency_ms.push(if ok {
                            (done - due.unwrap_or(sent)).as_secs_f64() * 1e3
                        } else {
                            out.failed += 1;
                            f64::INFINITY
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        seconds: origin.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for p in per_conn {
        let p = p?;
        phase.latency_ms.extend(p.latency_ms);
        phase.failed += p.failed;
        phase.late_ms.extend(p.late_ms);
    }
    Ok(phase)
}

/// Sends the warm-up documents over both connections at once, so both
/// serve workers have spawned their isolate worker before timing starts.
fn warm_up(addr: SocketAddr, inputs: &Inputs) -> Result<usize, String> {
    let halves: Vec<&[(String, String)]> = inputs.warmup[1..]
        .chunks(inputs.warmup.len().div_ceil(CONNECTIONS))
        .collect();
    thread::scope(|s| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|docs| {
                s.spawn(move || -> Result<usize, String> {
                    let mut conn = Conn::open(addr)?;
                    let mut wrong = 0;
                    for (path, expected) in docs {
                        wrong += usize::from(!conn.scan(path, expected)?);
                    }
                    Ok(wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .sum()
    })
}

fn histogram_count(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Median of a log2-bucketed `*_ns` histogram, in µs, interpolated
/// linearly inside the bucket that holds it.
fn histogram_median_us(metrics: &Json, name: &str) -> f64 {
    let Some(buckets) = metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("buckets"))
        .and_then(Json::as_arr)
    else {
        return f64::NAN;
    };
    let counts: Vec<f64> = buckets.iter().filter_map(Json::as_f64).collect();
    let half = counts.iter().sum::<f64>() / 2.0;
    let mut below = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if below + c >= half && c > 0.0 {
            // Bucket i holds [2^i, 2^(i+1)) ns.
            let low = 2f64.powi(i as i32);
            return (low + low * (half - below) / c) / 1e3;
        }
        below += c;
    }
    f64::NAN
}

/// Measures `serve_campaign`.
pub fn run(ctx: &Ctx, spec: &CorpusSpec, macros: &[MacroSample]) -> Result<Report, String> {
    let s = ctx.seconds;
    let low_due = inputs::poisson_schedule(ctx.seed, 10, LOW_RATE, LOW_SHARE * s);
    let high_due = inputs::poisson_schedule(ctx.seed, 11, HIGH_RATE, HIGH_SHARE * s);
    let closed = (CLOSED_PER_SECOND * s).ceil() as usize;
    let longest = low_due.len().max(high_due.len()).max(closed);
    let layout = PoolLayout::for_docs(spec, (longest as f64 * FRESH_MARGIN).ceil() as usize);
    let fresh = inputs::fresh_order(ctx.seed, &layout);
    let open = |due: &[f64]| -> Vec<Option<f64>> { due.iter().map(|&d| Some(d)).collect() };
    let closed_plan = inputs::plan_requests(ctx.seed, 22, &vec![None; closed], &layout, &fresh);
    let mut phases = vec![
        (
            "r150".to_string(),
            inputs::plan_requests(ctx.seed, 20, &open(&low_due), &layout, &fresh),
        ),
        (
            "r800".to_string(),
            inputs::plan_requests(ctx.seed, 21, &open(&high_due), &layout, &fresh),
        ),
    ];
    for round in 1..=CLOSED_ROUNDS {
        phases.push((format!("closed{round}"), closed_plan.clone()));
    }
    let inputs = write_inputs(ctx, spec, macros, &layout)?;

    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut peak_rss = 0.0f64;
    let mut results = Vec::new();
    for (name, reqs) in &phases {
        let daemon = Daemon::start(ctx, &inputs.warmup[0])?;
        setup.push(daemon.setup_s);
        let wrong = warm_up(daemon.addr, &inputs)?;
        report.attempted += inputs.warmup.len() as u64;
        report.failed += wrong as u64;
        let phase = drive(daemon.addr, reqs, &inputs)?;
        let metrics = daemon.metrics()?;
        peak_rss = peak_rss.max(procfs::tree_peak_rss_mb(daemon.child.id()));
        daemon.stop()?;
        report.attempted += reqs.len() as u64;
        report.failed += phase.failed as u64;
        let hits = histogram_count(&metrics, "cache.hits");
        let misses = histogram_count(&metrics, "cache.misses");
        let resent = reqs.iter().filter(|r| r.resend).count();
        let server_p50 = histogram_median_us(&metrics, "serve.request_ns");
        let latencies = &phase.latency_ms;
        report.note(format!(
            "{name}: {} requests ({resent} re-sends) in {:.2} s, {} failed; \
             p50 {:.3} ms, p90 {:.3} ms",
            reqs.len(),
            phase.seconds,
            phase.failed,
            median(latencies),
            percentile(latencies, 90.0),
        ));
        report.note(format!(
            "{name}: serve.cache_hit_share {:.3} ({hits} of {} lookups; assumed re-send \
             share {}), serve.shed {}, serve.server_us_p50 ~{server_p50:.0}, \
             serve.client_wait_us_p50 ~{:.0}",
            hits / (hits + misses),
            hits + misses,
            inputs::RESEND_SHARE,
            histogram_count(&metrics, "serve.shed"),
            median(latencies) * 1e3 - server_p50,
        ));
        if name.starts_with('r') {
            let tail = tail_percentile(latencies.len());
            let p = percentile(latencies, tail);
            let beyond = latencies.iter().filter(|&&l| l > p).count();
            report.note(format!(
                "{name}: serve.p{tail}_ms_{name} {p:.3} ({beyond} of {} samples beyond), \
                 gen.late_ms_p99 {:.3} ({} sleeps)",
                latencies.len(),
                percentile(&phase.late_ms, 99.0),
                phase.late_ms.len(),
            ));
        }
        results.push(phase);
    }
    while setup.len() < SETUP_STARTS {
        let daemon = Daemon::start(ctx, &inputs.warmup[0])?;
        setup.push(daemon.setup_s);
        daemon.stop()?;
    }
    report.attempted += setup.len() as u64;

    let closed = &results[2..];
    let rates: Vec<f64> = closed
        .iter()
        .map(|p| p.latency_ms.len() as f64 / p.seconds)
        .collect();
    let closed_ms: Vec<f64> = closed.iter().flat_map(|p| p.latency_ms.clone()).collect();
    let closed_p90 = percentile(&closed_ms, 90.0);
    let within_limit = closed_p90 <= CLOSED_P90_LIMIT_MS;
    report.note(format!(
        "closed loop: {} rounds at {} req/s, median {:.1}; p90 {closed_p90:.3} ms, limit \
         {CLOSED_P90_LIMIT_MS} ms{}",
        rates.len(),
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
        median(&rates),
        if within_limit {
            ""
        } else {
            " exceeded: docs_per_s is 0"
        },
    ));
    report.metric(
        "docs_per_s",
        if within_limit { median(&rates) } else { 0.0 },
        "1/s",
    );
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.metric("setup_s", median(&setup), "s");
    Ok(report)
}

/// The documents a traced run of this workload scans: the first pool
/// documents in fresh order, the ones a daemon sees as cache misses.
pub fn trace_docs(seed: u64, spec: &CorpusSpec, macros: &[MacroSample], n: usize) -> Vec<Doc> {
    let layout = PoolLayout::for_docs(spec, n);
    let mut pool = Vec::with_capacity(layout.len());
    for round in 0..layout.rounds {
        inputs::pool_round(spec, macros, round, |d| pool.push(Some(d)));
    }
    inputs::fresh_order(seed, &layout)
        .into_iter()
        .take(n)
        .map(|i| pool[i].take().expect("each index once"))
        .collect()
}
