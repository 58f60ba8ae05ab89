//! Resident scan service: the batch engine's robustness envelope behind
//! a socket.
//!
//! [`serve`] runs a long-lived daemon on a Unix or TCP [`Listener`],
//! speaking the newline-delimited request/response protocol of [`proto`]
//! (`scan <path>`, inline `bytes_hex` documents, `metrics`, `health`,
//! `ready`). Every scan runs through the batch engine's own per-document
//! code — [`ScanPolicy`] budgets, the one salvaging extractor, the scan cache
//! and its single-flight, and (when the policy carries an
//! [`IsolateConfig`](crate::scan::IsolateConfig)) the isolate executor,
//! which sees each request as a claim of one document, so a hostile
//! document costs one worker process, never the service. An inline
//! document reaches an isolate worker in its request frame, never
//! through a file on disk.
//!
//! The service layer adds only what a one-shot batch does not need:
//!
//! - **Bounded admission.** Requests pass through a fixed-depth queue;
//!   when it is full the request is *shed* with a typed `overloaded`
//!   rejection — never silently dropped, never buffered unboundedly.
//! - **Circuit breaker** (`breaker`): repeated worker crash-loops open
//!   the breaker, scans are rejected fast with a `retry_ms` hint, and
//!   exponential-backoff probes feel for recovery.
//! - **Exactly one terminal response** per request line: every admitted,
//!   shed, rejected or malformed request gets precisely one reply, and a
//!   drop guard backstops any path that would otherwise leak a request.
//! - **Graceful drain**: when the process-global [`interrupt`] latch
//!   fires (SIGTERM/SIGINT in the CLI), the service stops accepting,
//!   finishes everything in flight, retires its workers, flushes the
//!   audit journal and returns a [`ServeSummary`].
//! - **Zero-downtime model hot-reload**: the `reload <path>` verb (or
//!   SIGHUP via [`request_reload`]) atomically swaps in a freshly loaded
//!   detector behind a monotonic *generation* counter. Every request is
//!   pinned at admission to the generation that admitted it — a document
//!   is scanned entirely by one model version — isolate executors are
//!   rebuilt lazily on their next request, the detector-fingerprint cache
//!   key turns old-generation entries into clean misses, and a malformed
//!   model file is rejected with a typed `reload-failed` response that
//!   leaves the old generation serving. The `model` verb reports what is
//!   live.
//!
//! Unlike batch reports, service metrics make no determinism promise —
//! request interleaving is inherently racy — so the serve counters all
//! live on the histogram side of [`ScanMetrics`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::detector::Detector;
use crate::journal::{outcome_json, ScanJournal};
use crate::scan::cache;
use crate::scan::isolate::{Hello, Isolated};
use crate::scan::{
    interrupt, record_outcome, scan_bytes_cached, scan_file, Executor, FailureClass, JournalSink,
    ScanOutcome, ScanPolicy, ScanRecord,
};
use vbadet_metrics::json::json_str;
use vbadet_metrics::{MetricsSink, ScanMetrics, Stage};

mod breaker;
pub mod proto;

use breaker::{Admission, Breaker};
pub use proto::{parse_request, Request, ScanTarget, Verb, MAX_REQUEST_LINE_BYTES};

/// Poll interval for the accept loop and the connection readers' drain
/// checks; bounds how stale a drain request can go unnoticed.
const DRAIN_POLL: Duration = Duration::from_millis(25);

/// Everything that shapes the service's robustness envelope.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scan policy applied to every request (budgets, limits, isolation). [`serve`] forces the policy's metrics sink on — the
    /// `metrics` verb must always have something to report.
    pub policy: ScanPolicy,
    /// Scan worker threads (each owning one isolate executor when the
    /// policy isolates). Clamped to at least 1.
    pub workers: usize,
    /// Admission queue depth; a request arriving when the queue holds
    /// this many is shed with a typed `overloaded` rejection.
    pub queue_depth: usize,
    /// Consecutive fatal (worker-death) outcomes that open the breaker.
    pub breaker_threshold: u32,
    /// Base cooldown of the breaker's exponential backoff.
    pub breaker_backoff: Duration,
    /// Model file a SIGHUP-style [`request_reload`] reloads from —
    /// normally the CLI's `--model` path, so operators overwrite the file
    /// and signal the daemon. `None` makes signal-driven reloads no-ops
    /// (the `reload <path>` wire verb still works).
    pub reload_path: Option<PathBuf>,
}

impl ServeConfig {
    /// Service defaults around the given scan policy.
    pub fn new(policy: ScanPolicy) -> Self {
        ServeConfig {
            policy,
            workers: 2,
            queue_depth: 64,
            breaker_threshold: 3,
            breaker_backoff: Duration::from_millis(500),
            reload_path: None,
        }
    }
}

/// Process-global hot-reload latch, the SIGHUP analogue of
/// [`interrupt::request_drain`]'s drain latch: the accept loop polls it
/// once per tick and reloads from [`ServeConfig::reload_path`].
static RELOAD_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Requests a model hot-reload from the serving config's `reload_path`,
/// exactly as if a `reload` wire request had arrived for that path. A
/// single atomic store, so it is async-signal-safe — the CLI's SIGHUP
/// handler calls this.
pub fn request_reload() {
    RELOAD_REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears any pending reload request (hygiene between servers in tests).
pub fn reset_reload_requests() {
    RELOAD_REQUESTED.store(false, Ordering::SeqCst);
}

fn take_reload_request() -> bool {
    RELOAD_REQUESTED.swap(false, Ordering::SeqCst)
}

/// The socket the service listens on.
pub enum Listener {
    /// A Unix-domain socket (the default transport).
    #[cfg(unix)]
    Unix(UnixListener),
    /// A TCP socket, for cross-host deployments.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a Unix socket at `path`, replacing a stale socket file left
    /// by a previous run. Only an actual socket is ever unlinked: a
    /// regular file, directory or device at the path (a typo'd `--socket
    /// /etc/passwd`, say) is refused with a typed error rather than
    /// silently destroyed.
    ///
    /// # Errors
    ///
    /// The path exists but is not a socket, or any I/O error removing the
    /// stale socket or binding.
    #[cfg(unix)]
    pub fn bind_unix<P: AsRef<Path>>(path: P) -> io::Result<Listener> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.as_ref();
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)?,
            Ok(meta) => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "refusing to replace {}: it is {}, not a socket",
                        path.display(),
                        file_type_label(&meta.file_type()),
                    ),
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Listener::Unix(listener))
    }

    /// Binds a TCP socket at `addr` (e.g. `127.0.0.1:7087`; port 0 picks
    /// an ephemeral port, readable back via [`Listener::tcp_addr`]).
    ///
    /// # Errors
    ///
    /// Any I/O error binding.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Listener::Tcp(listener))
    }

    /// The bound TCP address, when this is a TCP listener.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            #[cfg(unix)]
            Listener::Unix(_) => None,
            Listener::Tcp(l) => l.local_addr().ok(),
        }
    }

    /// Non-blocking accept: `Ok(None)` means nobody is waiting.
    fn accept(&self) -> io::Result<Option<Box<dyn Stream>>> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Box::new(s))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    // Request/response over small lines: Nagle + delayed
                    // ACK would add ~40 ms to every round trip.
                    let _ = s.set_nodelay(true);
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

#[cfg(unix)]
fn file_type_label(ft: &std::fs::FileType) -> &'static str {
    use std::os::unix::fs::FileTypeExt;
    if ft.is_dir() {
        "a directory"
    } else if ft.is_symlink() {
        "a symlink"
    } else if ft.is_fifo() {
        "a fifo"
    } else if ft.is_block_device() || ft.is_char_device() {
        "a device"
    } else {
        "a regular file"
    }
}

/// The two stream types behind one object: a connection only needs
/// read/write plus a read timeout (the drain-poll heartbeat).
trait Stream: Read + Write + Send {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

#[cfg(unix)]
impl Stream for UnixStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }
}

impl Stream for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
}

/// What the service did over its lifetime, returned when the drain
/// completes.
#[derive(Debug)]
pub struct ServeSummary {
    /// Scan requests admitted past the queue.
    pub accepted: u64,
    /// Scan requests shed with `overloaded`.
    pub shed: u64,
    /// Terminal responses written (every request line gets exactly one).
    pub responses: u64,
    /// Always true: [`serve`] only returns via a graceful drain.
    pub drained: bool,
    /// First audit-journal write error, if journaling broke mid-run.
    pub journal_error: Option<String>,
    /// Final service-wide metrics snapshot.
    pub metrics: Option<ScanMetrics>,
}

/// One admitted request travelling from a connection thread to a scan
/// worker. `reply` carries the single terminal outcome back.
struct Job {
    target: ScanTarget,
    /// Journal key: the path, or `inline:<n>` for inline bytes.
    key: String,
    /// Whether this is the breaker's half-open probe.
    probe: bool,
    /// The detector generation live at admission. The pinning invariant:
    /// this job is scanned *entirely* by this generation's detector and
    /// cache binding, however many reloads land while it waits in the
    /// queue — never a mid-scan mix of model versions.
    generation: Arc<Generation>,
    reply: mpsc::SyncSender<ScanOutcome>,
    /// Admission time, for the request-latency histogram.
    admitted: Instant,
}

/// One loaded detector version: everything a request needs to be scanned
/// coherently under a single model. Immutable once published — a reload
/// builds a whole new `Generation` and swaps the `Arc`, so requests
/// pinned to the old one keep a consistent (detector, cache-binding)
/// pair until the last of them drops it.
struct Generation {
    /// Monotonic registry counter, starting at 1 for the startup model.
    number: u64,
    detector: Detector,
    /// This generation's cache binding. The bound key embeds the
    /// detector fingerprint, so entries inserted by older generations are
    /// clean misses here — no flush, no epoch bookkeeping.
    bound: Option<cache::BoundCache>,
    /// FNV-1a-64 of the detector's canonical save() text; what the cache
    /// key embeds and what `model` reports.
    fingerprint: u64,
    /// Where the model came from: the reload path, or "startup".
    version: String,
    loaded: Instant,
}

/// State shared by the accept loop, connection threads and workers.
struct Shared<'a> {
    config: &'a ServeConfig,
    /// `config.policy` with the metrics sink forced on.
    policy: ScanPolicy,
    /// The live generation. Lock scope is a clone or a swap — never held
    /// across a scan or a model load.
    generation: Mutex<Arc<Generation>>,
    /// Serializes reloads end to end (file read, parse, swap): concurrent
    /// `reload` requests queue here and the last to swap owns the final
    /// generation number.
    reload_serial: Mutex<()>,
    breaker: Breaker,
    /// Live queue depth (incremented at admission, decremented at
    /// dequeue).
    depth: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    responses: AtomicU64,
    inline_seq: AtomicU64,
    journal: Mutex<JournalSink<'a>>,
}

impl Shared<'_> {
    /// The generation a request arriving now is pinned to.
    fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.generation.lock().expect("generation lock poisoned"))
    }
}

/// Runs the service until the process-global [`interrupt`] latch fires,
/// then drains: stops accepting, finishes every in-flight request,
/// retires workers (isolate children are shut down cleanly), flushes the
/// journal and reports.
///
/// The latch is the *only* way out — callers (the CLI's signal handlers,
/// tests) request shutdown via [`interrupt::request_drain`].
pub fn serve(
    listener: &Listener,
    detector: &Detector,
    config: &ServeConfig,
    journal: Option<&mut ScanJournal>,
) -> ServeSummary {
    let mut policy = config.policy.clone();
    if !policy.metrics.is_enabled() {
        policy.metrics = MetricsSink::enabled();
    }
    let metrics = policy.metrics.clone();
    // Generation 1 owns its detector by round-tripping the caller's
    // through save()/load() — the same proven path the isolate hello
    // frame ships detectors over, so scoring is identical by contract.
    let initial =
        Detector::load(&detector.save()).expect("a live detector's save() text always loads back");
    let shared = Shared {
        config,
        generation: Mutex::new(Arc::new(Generation {
            number: 1,
            bound: cache::BoundCache::bind(&initial, &policy),
            fingerprint: cache::detector_fingerprint(&initial),
            detector: initial,
            version: config
                .reload_path
                .as_ref()
                .map_or_else(|| "startup".to_string(), |p| p.display().to_string()),
            loaded: Instant::now(),
        })),
        reload_serial: Mutex::new(()),
        breaker: Breaker::new(
            config.breaker_threshold,
            config.breaker_backoff,
            metrics.clone(),
        ),
        depth: AtomicUsize::new(0),
        accepted: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        responses: AtomicU64::new(0),
        inline_seq: AtomicU64::new(0),
        journal: Mutex::new(JournalSink::new(journal, metrics.clone())),
        policy,
    };
    let workers = config.workers.max(1);
    let queue_depth = config.queue_depth.max(1);

    thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
        // Workers share one receiver; dequeue is inherently serial, so a
        // mutex-guarded receiver costs nothing over fancier fan-out.
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, &rx));
        }
        loop {
            if interrupt::drain_requested() {
                break;
            }
            if take_reload_request() {
                // Signal-driven reload: same path as the wire verb, but
                // with no client to answer — success and failure land in
                // the reload.* metrics instead.
                match &shared.config.reload_path {
                    Some(path) => {
                        let _ = try_reload(&shared, &path.display().to_string());
                    }
                    None => shared.policy.metrics.record(Stage::ReloadFailed, 1),
                }
            }
            match listener.accept() {
                Ok(Some(stream)) => {
                    let tx = tx.clone();
                    let shared = &shared;
                    scope.spawn(move || handle_connection(shared, stream, &tx));
                }
                // Nobody waiting (or a transient accept error): nap one
                // drain-poll tick.
                Ok(None) | Err(_) => thread::sleep(DRAIN_POLL),
            }
        }
        // Drain sequence: dropping the accept loop's sender starts the
        // cascade — connection threads notice the latch on their next
        // read timeout and exit (dropping their clones), the workers'
        // receiver then disconnects once the queue is empty, and the
        // scope join waits for all of it. In-flight requests finish and
        // get their responses; nothing is abandoned.
        drop(tx);
    });

    let mut sink = shared.journal.into_inner().unwrap();
    sink.sync();
    metrics.record(Stage::ServeDrains, 1);
    ServeSummary {
        accepted: shared.accepted.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        responses: shared.responses.load(Ordering::Relaxed),
        drained: true,
        journal_error: sink.error(),
        metrics: metrics.snapshot(),
    }
}

/// Loads a detector from `path` and swaps it in as the next generation.
/// Returns the new generation, or the human-readable reason the old one
/// keeps serving — a failed reload changes nothing.
fn try_reload(shared: &Shared<'_>, path: &str) -> Result<Arc<Generation>, String> {
    let metrics = &shared.policy.metrics;
    // One reload at a time, end to end: concurrent requests queue here
    // and the last to swap owns the final generation number.
    let _serial = shared.reload_serial.lock().expect("reload lock poisoned");
    let start = Instant::now();
    let loaded = load_model(path);
    match loaded {
        Err(detail) => {
            metrics.record(Stage::ReloadFailed, 1);
            Err(detail)
        }
        Ok(detector) => {
            let bound = cache::BoundCache::bind(&detector, &shared.policy);
            let fingerprint = cache::detector_fingerprint(&detector);
            let generation = {
                let mut current = shared.generation.lock().expect("generation lock poisoned");
                let next = Arc::new(Generation {
                    number: current.number + 1,
                    detector,
                    bound,
                    fingerprint,
                    version: path.to_string(),
                    loaded: Instant::now(),
                });
                *current = Arc::clone(&next);
                next
            };
            // The swap is the remediation an open breaker's probe cycle
            // exists to discover: whatever was crash-looping belonged to
            // the generation that just left, so start the new one clean.
            shared.breaker.close();
            metrics.record(Stage::ReloadSuccess, 1);
            metrics.record(
                Stage::ReloadNs,
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            Ok(generation)
        }
    }
}

/// Reads and parses one saved model file. The `serve::reload-corrupt`
/// faultpoint simulates a malformed model landing on disk without
/// needing one — the chaos soak uses it alongside real corrupt files.
fn load_model(path: &str) -> Result<Detector, String> {
    if vbadet_faultpoint::fire("serve::reload-corrupt").is_some() {
        return Err(format!("loading {path}: injected corrupt model"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Detector::load(&text).map_err(|e| format!("loading {path}: {e}"))
}

/// One scan worker: dequeues jobs until the channel drains at shutdown.
/// In isolate mode the worker owns the batch engine's isolate executor —
/// the same worker slot, respawn-backoff / crash-loop / quarantine
/// discipline and supervisor-side cache — amortizing worker processes
/// across requests. The executor is tagged with the generation whose
/// hello and cache binding built it and rebuilt *lazily*: the first job
/// pinned to a newer generation retires the old child and spawns one
/// speaking the new detector, so a reload never stalls the pool —
/// workers with queued old-generation jobs keep draining them.
fn worker_loop(shared: &Shared<'_>, rx: &Mutex<mpsc::Receiver<Job>>) {
    let metrics = &shared.policy.metrics;
    // In process, this worker scans under a sink of its own; a request's
    // counters reach the service snapshot only at the seam below.
    let policy = shared.policy.for_thread();
    let mut isolated: Option<(u64, Isolated<'_>)> = None;
    loop {
        let job = {
            let rx = rx.lock().unwrap();
            rx.recv()
        };
        let Ok(job) = job else { break };
        shared.depth.fetch_sub(1, Ordering::Relaxed);
        if let Some(cfg) = &shared.policy.isolate {
            let generation = &job.generation;
            if isolated
                .as_ref()
                .is_some_and(|(built_for, _)| *built_for != generation.number)
            {
                let (_, old) = isolated.take().expect("checked above");
                old.finish();
            }
            if isolated.is_none() {
                let hello = Hello::new(&generation.detector, &shared.policy, generation.number);
                let exec = Isolated::new(cfg, hello, generation.bound.clone(), &shared.policy);
                isolated = Some((generation.number, exec));
            }
        }
        let (outcome, deltas) = scan_job(&policy, isolated.as_mut().map(|(_, e)| e), &job);
        let fatal = matches!(
            outcome,
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                ..
            }
        );
        shared.breaker.report(job.probe, fatal);
        let record = ScanRecord {
            path: PathBuf::from(&job.key),
            outcome,
        };
        {
            let mut journal = shared.journal.lock().unwrap();
            journal.checkpoint(&record, false);
        }
        record_outcome(metrics, &record.outcome, &deltas);
        metrics.record(
            Stage::ServeRequestNs,
            u64::try_from(job.admitted.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        // A gone connection (client hung up mid-scan) is fine: the
        // outcome is journaled either way.
        let _ = job.reply.send(record.outcome);
    }
    if let Some((_, exec)) = isolated {
        exec.finish();
    }
}

/// Produces the terminal outcome for one job under its pinned
/// generation, with its counter deltas, through the batch engine's
/// per-document code: in process, `scan_file` or the cached-bytes scan it
/// wraps, under the worker's own `policy` ([`ScanPolicy::for_thread`]);
/// isolated, a claim of one document on the worker's executor, or for
/// inline bytes the executor's scan of those bytes, which the worker
/// receives in its request. Either way the cache lookup, and with it
/// single-flight, happens below. The
/// `serve::inject-death` faultpoint simulates a systemic worker failure
/// (the signal that feeds the breaker) without needing real crashing
/// documents; it fires before the cache, so an injected death is per-job
/// and never cached.
fn scan_job(
    policy: &ScanPolicy,
    isolated: Option<&mut Isolated<'_>>,
    job: &Job,
) -> (ScanOutcome, cache::Deltas) {
    if vbadet_faultpoint::fire("serve::inject-death").is_some() {
        let death = ScanOutcome::Failed {
            class: FailureClass::Fatal,
            detail: "injected worker death".to_string(),
        };
        return (death, Vec::new());
    }
    let (detector, bound) = (&job.generation.detector, job.generation.bound.as_ref());
    let outcome = match (isolated, &job.target) {
        (None, ScanTarget::Path(p)) => scan_file(detector, Path::new(p), policy, bound),
        (None, ScanTarget::Bytes(bytes)) => scan_bytes_cached(detector, bytes, policy, bound),
        (Some(exec), ScanTarget::Path(p)) => {
            let path = Path::new(p);
            exec.claim(std::iter::once((0, path)));
            return exec.scan(0, path);
        }
        (Some(exec), ScanTarget::Bytes(bytes)) => return exec.scan_inline(bytes),
    };
    (outcome, policy.metrics.take_counters())
}

/// One connection: a hand-rolled bounded line reader over the stream,
/// dispatching each complete line and polling the drain latch on read
/// timeouts. The connection closes on EOF, an unwritable client, an
/// over-cap line, or a drain.
fn handle_connection(shared: &Shared<'_>, stream: Box<dyn Stream>, tx: &mpsc::SyncSender<Job>) {
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    let mut stream = stream;
    let mut lines = Lines::default();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(line) = lines.next_line() {
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if line.is_empty() {
                // Blank lines are keep-alive noise, not requests.
                continue;
            }
            if handle_line(shared, &mut *stream, tx, line).is_err() {
                return;
            }
        }
        if lines.buf.len() > MAX_REQUEST_LINE_BYTES {
            // The line cannot be buffered to completion; answer typed,
            // then hang up (the rest of the line is unframeable).
            let mut responder = Responder::new(&mut *stream, None, &shared.responses);
            let _ = responder.error("oversized", Some("request line over the 1 MiB cap"), None);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => lines.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if interrupt::drain_requested() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// A connection's unread bytes, split into lines. Each byte is searched
/// for the newline once, however many reads a long line takes to arrive.
#[derive(Default)]
struct Lines {
    buf: Vec<u8>,
    /// How many bytes at the front of `buf` hold no newline.
    searched: usize,
}

impl Lines {
    /// The next whole line, its newline included, if one has arrived.
    fn next_line(&mut self) -> Option<Vec<u8>> {
        match self.buf[self.searched..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let end = self.searched + pos;
                self.searched = 0;
                Some(self.buf.drain(..=end).collect())
            }
            None => {
                self.searched = self.buf.len();
                None
            }
        }
    }
}

/// Dispatches one request line. `Err` means the client is unwritable and
/// the connection should close; protocol-level problems are answered
/// in-band and return `Ok`.
fn handle_line(
    shared: &Shared<'_>,
    w: &mut dyn Write,
    tx: &mpsc::SyncSender<Job>,
    line: &str,
) -> io::Result<()> {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(detail) => {
            return Responder::new(w, None, &shared.responses).error(
                "bad-request",
                Some(&detail),
                None,
            );
        }
    };
    let mut responder = Responder::new(w, request.id, &shared.responses);
    match request.verb {
        Verb::Health => {
            let body = format!(
                "\"op\":\"health\",\"draining\":{},\"breaker\":{},\"queue_depth\":{}",
                interrupt::drain_requested(),
                json_str(shared.breaker.state_label()),
                shared.depth.load(Ordering::Relaxed),
            );
            responder.ok(&body)
        }
        Verb::Ready => {
            let reason = if interrupt::drain_requested() {
                Some("draining")
            } else if shared.breaker.state_label() == "open" {
                Some("breaker-open")
            } else {
                None
            };
            match reason {
                None => responder.ok("\"op\":\"ready\",\"ready\":true"),
                Some(reason) => responder.ok(&format!(
                    "\"op\":\"ready\",\"ready\":false,\"reason\":{}",
                    json_str(reason)
                )),
            }
        }
        Verb::Metrics => {
            let snap = shared
                .policy
                .metrics
                .snapshot()
                .expect("serve always enables its metrics sink");
            // The snapshot's pretty JSON is whitespace-insensitive and
            // contains none inside tokens, so squeezing it yields the
            // single-line form the wire protocol needs.
            let compact: String = snap.to_json().split_whitespace().collect();
            responder.ok(&format!("\"op\":\"metrics\",\"metrics\":{compact}"))
        }
        Verb::Model => {
            let generation = shared.current();
            responder.ok(&format!(
                "\"op\":\"model\",\"generation\":{},\"version\":{},\"fingerprint\":{},\
                 \"loaded_ms_ago\":{}",
                generation.number,
                json_str(&generation.version),
                json_str(&format!("{:016x}", generation.fingerprint)),
                generation.loaded.elapsed().as_millis(),
            ))
        }
        Verb::Reload(path) => {
            if interrupt::drain_requested() {
                // A drain is a promise to finish what is in flight and
                // stop; swapping models mid-drain buys nothing and
                // muddies the accounting. The drain completes untouched.
                return responder.error(
                    "draining",
                    Some("reload rejected: the service is draining"),
                    None,
                );
            }
            match try_reload(shared, &path) {
                Ok(generation) => responder.ok(&format!(
                    "\"op\":\"reload\",\"generation\":{},\"version\":{},\"fingerprint\":{}",
                    generation.number,
                    json_str(&generation.version),
                    json_str(&format!("{:016x}", generation.fingerprint)),
                )),
                Err(detail) => responder.error("reload-failed", Some(&detail), None),
            }
        }
        Verb::Scan(target) => handle_scan(shared, responder, tx, target),
    }
}

/// Admission control for one scan: drain gate, breaker gate, bounded
/// queue, then wait for the worker's terminal outcome.
fn handle_scan(
    shared: &Shared<'_>,
    mut responder: Responder<'_>,
    tx: &mpsc::SyncSender<Job>,
    target: ScanTarget,
) -> io::Result<()> {
    if interrupt::drain_requested() {
        return responder.error("draining", None, None);
    }
    let probe = match shared.breaker.admit() {
        Admission::Reject { retry_ms } => {
            return responder.error("breaker-open", None, Some(retry_ms));
        }
        Admission::Admit { probe } => probe,
    };
    let key = match &target {
        ScanTarget::Path(p) => p.clone(),
        ScanTarget::Bytes(_) => format!(
            "inline:{}",
            shared.inline_seq.fetch_add(1, Ordering::Relaxed)
        ),
    };
    let (reply_tx, reply_rx) = mpsc::sync_channel::<ScanOutcome>(1);
    // Pin the generation at admission: this is the one the response is
    // stamped with and the one whose detector scans the document, even
    // if reloads land while the job waits in the queue.
    let generation = shared.current();
    let generation_number = generation.number;
    let job = Job {
        target,
        key,
        probe,
        generation,
        reply: reply_tx,
        admitted: Instant::now(),
    };
    // Count the depth up before offering the job so a worker's decrement
    // can never race it below zero.
    let depth = shared.depth.fetch_add(1, Ordering::Relaxed) + 1;
    match tx.try_send(job) {
        Ok(()) => {}
        Err(mpsc::TrySendError::Full(job)) => {
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            if job.probe {
                // The probe never reached a worker; re-arm the breaker so
                // the next admit can mint a fresh one.
                shared.breaker.probe_abandoned();
            }
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared.policy.metrics.record(Stage::ServeShed, 1);
            return responder.error("overloaded", None, None);
        }
        Err(mpsc::TrySendError::Disconnected(job)) => {
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            if job.probe {
                shared.breaker.probe_abandoned();
            }
            return responder.error("draining", None, None);
        }
    }
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    shared.policy.metrics.record(Stage::ServeAccepted, 1);
    shared
        .policy
        .metrics
        .record(Stage::ServeQueueDepth, depth as u64);
    match reply_rx.recv() {
        Ok(outcome) => responder.outcome(&outcome, generation_number),
        // Unreachable by design (workers always reply before exiting),
        // but the accounting survives even a worker bug: one typed
        // response, not a hang.
        Err(_) => responder.error("internal", Some("worker lost before replying"), None),
    }
}

/// Exactly-once terminal-response guard for one request line. Every send
/// increments the service-wide response counter; if a handler returns
/// without responding, the drop backstop emits a typed `internal` error
/// so the client is never left hanging.
struct Responder<'a> {
    w: &'a mut dyn Write,
    id: Option<String>,
    responses: &'a AtomicU64,
    sent: bool,
}

impl<'a> Responder<'a> {
    fn new(w: &'a mut dyn Write, id: Option<String>, responses: &'a AtomicU64) -> Self {
        Responder {
            w,
            id,
            responses,
            sent: false,
        }
    }

    fn id_field(&self) -> String {
        match &self.id {
            Some(id) => format!("\"id\":{},", json_str(id)),
            None => String::new(),
        }
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        // Mark sent before writing: a half-written line to a dead client
        // must not trigger a second (drop-guard) response attempt.
        self.sent = true;
        self.responses.fetch_add(1, Ordering::Relaxed);
        // One write for payload + newline: a separate 1-byte `\n` write
        // would sit behind Nagle until the payload segment is ACKed.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.w.write_all(&framed)?;
        self.w.flush()
    }

    fn ok(&mut self, body: &str) -> io::Result<()> {
        self.write_line(&format!("{{\"ok\":true,{}{body}}}", self.id_field()))
    }

    fn outcome(&mut self, outcome: &ScanOutcome, generation: u64) -> io::Result<()> {
        self.ok(&format!(
            "\"op\":\"scan\",\"generation\":{generation},\"outcome\":{}",
            outcome_json(outcome)
        ))
    }

    fn error(&mut self, code: &str, detail: Option<&str>, retry_ms: Option<u64>) -> io::Result<()> {
        let mut body = format!(
            "{{\"ok\":false,{}\"error\":{}",
            self.id_field(),
            json_str(code)
        );
        if let Some(detail) = detail {
            body.push_str(&format!(",\"detail\":{}", json_str(detail)));
        }
        if let Some(ms) = retry_ms {
            body.push_str(&format!(",\"retry_ms\":{ms}"));
        }
        body.push('}');
        self.write_line(&body)
    }
}

impl Drop for Responder<'_> {
    fn drop(&mut self) {
        if !self.sent {
            let _ = self.error(
                "internal",
                Some("request fell through without a response"),
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responder_drop_guard_emits_exactly_one_response() {
        let responses = AtomicU64::new(0);
        let mut out = Vec::new();
        {
            let _r = Responder::new(&mut out, Some("7".to_string()), &responses);
            // Dropped without responding: the backstop must answer.
        }
        let text = String::from_utf8(out).unwrap();
        assert_eq!(responses.load(Ordering::Relaxed), 1);
        assert!(text.contains("\"ok\":false"), "{text}");
        assert!(text.contains("\"id\":\"7\""), "{text}");
        assert!(text.contains("\"error\":\"internal\""), "{text}");
        assert_eq!(text.matches('\n').count(), 1);
    }

    #[test]
    fn responder_counts_each_terminal_response_once() {
        let responses = AtomicU64::new(0);
        let mut out = Vec::new();
        {
            let mut r = Responder::new(&mut out, None, &responses);
            r.error("overloaded", None, None).unwrap();
            // Drop after an explicit send must NOT answer again.
        }
        assert_eq!(responses.load(Ordering::Relaxed), 1);
        assert_eq!(String::from_utf8(out).unwrap().matches('\n').count(), 1);
    }

    #[test]
    fn error_responses_carry_retry_hint_and_detail() {
        let responses = AtomicU64::new(0);
        let mut out = Vec::new();
        Responder::new(&mut out, Some("a".to_string()), &responses)
            .error("breaker-open", Some("cooling down"), Some(250))
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"error\":\"breaker-open\""), "{text}");
        assert!(text.contains("\"detail\":\"cooling down\""), "{text}");
        assert!(text.contains("\"retry_ms\":250"), "{text}");
    }

    /// Feeds `input` to a [`Lines`] in chunks of `size` bytes, taking
    /// every whole line after each.
    fn lines_in_chunks(input: &[u8], size: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
        let mut lines = Lines::default();
        let mut out = Vec::new();
        for chunk in input.chunks(size) {
            lines.buf.extend_from_slice(chunk);
            while let Some(line) = lines.next_line() {
                out.push(line);
            }
        }
        (out, lines.buf)
    }

    #[test]
    fn lines_are_the_same_however_the_bytes_arrive() {
        let long = format!(
            "{{\"op\":\"scan\",\"bytes_hex\":\"{}\"}}",
            "ab".repeat(10_000)
        );
        let input = format!("scan /tmp/a.doc\n\n{long}\nmetrics\r\nhealth\nunfinished");
        let expected: Vec<Vec<u8>> = [
            "scan /tmp/a.doc\n",
            "\n",
            &format!("{long}\n"),
            "metrics\r\n",
            "health\n",
        ]
        .iter()
        .map(|l| l.as_bytes().to_vec())
        .collect();
        for size in [1, 4096, input.len()] {
            let (lines, rest) = lines_in_chunks(input.as_bytes(), size);
            assert_eq!(lines, expected, "chunks of {size}");
            assert_eq!(rest, b"unfinished", "chunks of {size}");
        }
    }
}
