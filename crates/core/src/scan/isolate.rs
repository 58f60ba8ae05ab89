//! Process-isolated batch scanning: a supervisor that survives aborts,
//! stack overflows, and OOM kills.
//!
//! The in-process engines contain panics with `catch_unwind`, but a whole
//! class of failures is beyond any in-process defence: `abort()` in a
//! dependency, a stack overflow in a parser recursion, the kernel's OOM
//! killer. `scan_paths_isolated` moves the blast radius out of the batch
//! process entirely: documents are scanned by child *worker processes*
//! (re-executions of the current binary into a hidden worker subcommand),
//! so the worst a hostile document can do is cost one worker.
//!
//! # Topology
//!
//! This module is an *executor* for the shared batch engine in
//! [`super`]: claiming, resume, journaling, drain and input ordering are
//! the engine's, so reports and journals are byte-identical to the
//! in-process runs. What is specific here is the `Slot`: each scanning
//! thread owns one, and with it at most one child process. When the
//! engine hands the executor a claim, the cache misses among its fresh
//! documents are sent to the worker in one write, and their results are
//! read back in order, so the worker never waits on the supervisor
//! between documents. A request names the document's path, or, when the
//! supervisor has already read the document (to look it up in the cache,
//! or because the service received it inline), carries its bytes, so the
//! worker scans exactly what was digested. The slot writes a request only
//! while the requests its worker has not answered fit in one pipe buffer
//! (`PIPE_BYTES`), so a write never blocks while the heartbeat should be
//! timing. The worker answers in kind: while the next request
//! frame is already whole in its read buffer, it holds each finished
//! result back, and when its input runs dry it writes every held result
//! in one write, so a claim costs one write and one wake-up each way, not
//! one per document. A flusher thread writes any result held for
//! `FLUSH_AFTER` (1 ms), so a finished result never waits behind a
//! wedged document. A death while the supervisor awaits a document
//! forfeits only that document (see Quarantine); the claim's documents
//! that got no reply are re-sent to the next worker. A dedicated reader
//! thread pumps the child's stdout frames into a channel so the slot can
//! wait with a timeout — that timeout *is* the heartbeat: a worker that
//! holds a document longer than the heartbeat deadline is SIGKILLed and
//! treated like any other worker death. With the flush bound, the
//! heartbeat still charges the document that wedged, not a finished one
//! held behind it.
//!
//! # Frame protocol
//!
//! Length-prefixed binary frames over the child's stdin/stdout; `wire`
//! holds the framing and the layout of every frame. The conversation:
//!
//! ```text
//! supervisor → worker   hello(layout version, generation, policy, detector)
//! worker → supervisor   ready(generation)
//! supervisor → worker   scan(path) or scan(bytes)   (a claim's documents,
//!                       scan(path) or scan(bytes)    back to back in one
//!                       …                            write)
//! worker → supervisor   result(outcome, counters)
//!                       …                           (one per scan, in order;
//!                                                   held ones in one write)
//! supervisor → worker   exit
//! worker                closes stdout and exits; the supervisor sees the
//!                       hang-up and reaps it
//! ```
//!
//! The protocol is strictly private to one binary version — both ends are
//! the same executable — so the encoding favours compactness (the policy
//! travels as a fixed-width block, counters by index) over
//! self-description. A worker refuses a hello of another layout version
//! and exits without a `ready`, which the supervisor counts as a failed
//! handshake.
//!
//! # Quarantine
//!
//! A document whose worker dies (by signal, unexpected exit, or heartbeat
//! kill) is retried **exactly once**, as the *first* document of a fresh
//! worker — a solo retry, so a crash there is unambiguously the
//! document's fault. The documents the dead worker had been sent but
//! had not answered are not charged: they go to the next worker after
//! the retry. A crash within `FLUSH_AFTER` of a finished, held result
//! loses that result: the supervisor sees the death while it awaits that
//! document, so the document gets the solo retry, which costs one more
//! spawn but changes no outcome. A second death quarantines the
//! document: it is recorded as [`FailureClass::Fatal`] with both death reasons in the
//! detail, the batch continues, and the quarantined outcome is journaled
//! (a resume will *not* re-scan a quarantined document). Worker deaths
//! respawn with exponential backoff, and a slot whose workers cannot even
//! complete the hello/ready handshake `CRASH_LOOP_LIMIT` times in a row
//! stops spawning and drains its remaining claims as fatal
//! "worker unavailable" records rather than spinning forever.
//!
//! # Determinism
//!
//! Each worker scans under one metrics sink for its life and, after each
//! document, takes the sink's non-zero counters
//! ([`MetricsSink::take_counters`]) and ships them back in the result
//! frame as that document's delta; the engine replays those deltas in
//! input order and then rolls the outcome in with
//! `record_outcome`, which skips [`FailureClass::Fatal`] records
//! entirely. Net effect: the deterministic counters section equals a
//! clean in-process run over the surviving documents, whatever workers
//! died along the way. Worker lifecycle events land on the histogram side
//! ([`Stage::IsolateSpawns`], restarts, heartbeat kills, quarantines,
//! docs-per-worker), which is exempt from the determinism promise.

use std::collections::VecDeque;
use std::ffi::OsString;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use super::cache::{self, Deltas, Lead, Lookup};
use super::{
    read_file_checked, run_batch, Executor, FailureClass, ScanOutcome, ScanPolicy, ScanReport,
};
use crate::detector::Detector;
use crate::journal::{JournalReplay, ScanJournal};
use vbadet_faultpoint::faultpoint;
use vbadet_metrics::{MetricsSink, Stage};

mod wire;

pub(crate) use wire::{policy_block, Hello};
use wire::{push_frame, read_frame_within, request_cap, whole_frame_buffered, Request};
pub use wire::{read_frame, write_frame, MAX_FRAME_BYTES};

/// The hidden subcommand a binary embedding [`worker_main`] dispatches on.
pub const WORKER_SUBCOMMAND: &str = "__worker";

/// Linux's default pipe capacity. The slot writes a request only while
/// the requests its worker has not answered, this one included, fit in
/// it, so a request write never blocks while the heartbeat should be
/// timing; and a cached claim reads documents ahead only until its queued
/// requests reach it.
const PIPE_BYTES: usize = 64 << 10;

/// Base delay of the exponential respawn backoff after a worker death or
/// failed spawn.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Consecutive spawn/handshake failures after which a slot stops spawning
/// and fails its remaining claims as [`FailureClass::Fatal`] "worker
/// unavailable" records.
const CRASH_LOOP_LIMIT: u32 = 3;

/// How the supervisor runs and disciplines its worker processes.
#[derive(Debug, Clone)]
pub struct IsolateConfig {
    /// Worker process argv: program followed by its arguments. The
    /// program must speak the frame protocol on stdin/stdout — in
    /// practice, the current executable with [`WORKER_SUBCOMMAND`].
    pub worker_cmd: Vec<OsString>,
    /// Per-request response deadline. A worker that holds a document
    /// longer is killed and the death handled like a crash. `None`
    /// derives a deadline from the policy (4× the per-document deadline
    /// plus slack, or 60 s without one).
    pub heartbeat: Option<Duration>,
    /// Extra environment for worker processes (on top of the inherited
    /// environment). This is how tests arm fault injection *only inside
    /// workers*: the supervisor process never sees the variable.
    pub env: Vec<(String, String)>,
}

impl IsolateConfig {
    /// A config running `worker_cmd` with default discipline.
    pub fn new<S: Into<OsString>>(worker_cmd: impl IntoIterator<Item = S>) -> Self {
        IsolateConfig {
            worker_cmd: worker_cmd.into_iter().map(Into::into).collect(),
            heartbeat: None,
            env: Vec::new(),
        }
    }

    /// The standard config: re-execute the current binary, by its path's
    /// own bytes, with [`WORKER_SUBCOMMAND`] as its only argument.
    ///
    /// # Errors
    ///
    /// Fails when the current executable path cannot be determined.
    pub fn current_exe() -> io::Result<Self> {
        let exe = std::env::current_exe()?;
        Ok(IsolateConfig::new([
            exe.into_os_string(),
            WORKER_SUBCOMMAND.into(),
        ]))
    }

    /// Overrides the heartbeat deadline.
    pub fn heartbeat(mut self, deadline: Duration) -> Self {
        self.heartbeat = Some(deadline);
        self
    }

    /// Adds an environment variable for worker processes.
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.env.push((key.to_string(), value.to_string()));
        self
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker process entry point: speaks the frame protocol on
/// stdin/stdout until an `exit` frame or EOF (the supervisor died), and
/// returns the process exit code.
///
/// A binary embeds this behind [`WORKER_SUBCOMMAND`] and should install
/// [`crate::memguard::TrackingAllocator`] as its global allocator so the
/// policy's memory ceiling can actually trip.
pub fn worker_main() -> i32 {
    let proto_err = |what: &str, detail: String| -> i32 {
        eprintln!("vbadet worker: {what}: {detail}");
        2
    };
    let (input, output) = match frame_pipes() {
        Ok(pipes) => pipes,
        Err(e) => return proto_err("stdio", e.to_string()),
    };
    let mut input = BufReader::new(input);
    // A hello of another layout, the JSON one of earlier versions
    // included, ends the worker before it sends `ready`, so the
    // supervisor sees a failed handshake.
    let (detector, base, generation) = match read_frame(&mut input) {
        Ok(Some(frame)) => match wire::decode_hello(&frame) {
            Ok(hello) => hello,
            Err(e) => return proto_err("hello", e),
        },
        Ok(None) => return 0,
        Err(e) => return proto_err("hello read", e.to_string()),
    };
    let held = Held::start(output);
    // The generation the hello carried (0 for batch runs that never
    // reload), echoed so the supervisor can prove both ends agree on
    // which detector scores documents.
    if let Err(e) = held.send(&wire::ready(generation), false) {
        return proto_err("ready write", e.to_string());
    }
    // One sink for the worker's life: taking its counters after each
    // document yields exactly that document's delta.
    let metrics = MetricsSink::enabled();
    let policy = ScanPolicy {
        metrics: metrics.clone(),
        ..base
    };
    // One result payload buffer for the worker's life.
    let mut result = Vec::new();
    let cap = request_cap(policy.limits.max_file_size);
    loop {
        let frame = match read_frame_within(&mut input, cap) {
            Ok(Some(frame)) => frame,
            Ok(None) => return 0,
            Err(e) => return proto_err("request read", e.to_string()),
        };
        // Workers never see the supervisor's cache (the hello frame does
        // not carry one): the supervisor consults it *before* dispatching,
        // so a worker request is always a real scan, and one of the bytes
        // the supervisor digested when it sends them.
        let outcome = match wire::decode_request(&frame) {
            Some(Request::Path(path)) => super::scan_file(&detector, path, &policy, None),
            Some(Request::Bytes(bytes)) => super::scan_bytes_with_policy(&detector, bytes, &policy),
            // The supervisor asks a worker to exit only once it owes
            // nothing it still wants, so held frames may go unwritten.
            Some(Request::Exit) => return 0,
            None => return proto_err("request", "not a request frame".to_string()),
        };
        result.clear();
        wire::encode_result(&mut result, &outcome, &metrics.take_counters());
        // Hold the result while the next request is already here; write
        // everything held once the input runs dry.
        let hold = whole_frame_buffered(input.buffer());
        if let Err(e) = held.send(&result, hold) {
            return proto_err("result write", e.to_string());
        }
    }
}

/// How long a worker may hold a finished result frame back while it
/// scans the next buffered request. Past it, the flusher thread writes the
/// held frames, so a result never waits behind a wedged document and the
/// supervisor's heartbeat charges the document that wedged.
const FLUSH_AFTER: Duration = Duration::from_millis(1);

/// A worker's frame output and the result frames it holds back, shared
/// by the scanning thread and one flusher thread.
struct Held<W> {
    state: Mutex<HeldState<W>>,
    /// Wakes the flusher when a batch of held frames starts.
    batch: Condvar,
}

struct HeldState<W> {
    out: W,
    /// Held frames, back to back.
    frames: Vec<u8>,
    /// When the oldest held frame was finished; `None` while nothing is
    /// held.
    since: Option<Instant>,
}

impl<W: Write> HeldState<W> {
    /// Writes every held frame in one write.
    fn write_held(&mut self) -> io::Result<()> {
        self.since = None;
        let written = self
            .out
            .write_all(&self.frames)
            .and_then(|()| self.out.flush());
        self.frames.clear();
        written
    }
}

impl<W: Write + Send + 'static> Held<W> {
    /// Wraps `out` and starts the flusher thread, which lives as long as
    /// the worker process.
    fn start(out: W) -> Arc<Self> {
        let held = Arc::new(Held {
            state: Mutex::new(HeldState {
                out,
                frames: Vec::new(),
                since: None,
            }),
            batch: Condvar::new(),
        });
        let flusher = Arc::clone(&held);
        thread::spawn(move || flusher.flush_loop());
        held
    }

    /// Writes each batch that has been held for [`FLUSH_AFTER`]. A failed
    /// write means the supervisor has let go of this worker, which it
    /// kills on the way, so the error has no one to go to.
    fn flush_loop(&self) {
        let mut st = self.state.lock().unwrap();
        loop {
            let Some(since) = st.since else {
                st = self.batch.wait(st).unwrap();
                continue;
            };
            let (due, now) = (since + FLUSH_AFTER, Instant::now());
            if now < due {
                st = self.batch.wait_timeout(st, due - now).unwrap().0;
            } else {
                let _ = st.write_held();
            }
        }
    }

    /// Adds `payload` as one frame. Held (`hold`), it waits for a later
    /// send or for the flusher; otherwise it goes out at once, with every
    /// frame held before it, in one write.
    fn send(&self, payload: &[u8], hold: bool) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        push_frame(&mut st.frames, payload, MAX_FRAME_BYTES)?;
        if !hold {
            return st.write_held();
        }
        if st.since.is_none() {
            st.since = Some(Instant::now());
            self.batch.notify_one();
        }
        Ok(())
    }
}

/// The worker's frame pipes: duplicates of its stdin and stdout. Its own
/// read buffer shows whether the next request has already arrived, and
/// the output skips `Stdout`'s line buffering, which would split a frame
/// at a 0x0A byte of its length prefix.
#[cfg(unix)]
fn frame_pipes() -> io::Result<(std::fs::File, std::fs::File)> {
    use std::os::fd::AsFd;
    Ok((
        io::stdin().as_fd().try_clone_to_owned()?.into(),
        io::stdout().as_fd().try_clone_to_owned()?.into(),
    ))
}

#[cfg(not(unix))]
fn frame_pipes() -> io::Result<(io::Stdin, io::Stdout)> {
    Ok((io::stdin(), io::stdout()))
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

/// How long a retiring worker has to hang up after its `exit` frame.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// One live child process: its handles plus the channel its reader
/// thread pumps stdout frames into. Dropping a `Worker` kills and reaps
/// the child — a supervisor can never leak an orphan, whatever path it
/// unwinds through.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    rx: mpsc::Receiver<io::Result<Vec<u8>>>,
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Worker {
    /// Kills (if still alive) and reaps the child, returning a
    /// human-readable classification of how it died.
    fn reap(mut self) -> String {
        // Killing an already-dead child is a no-op against its zombie:
        // `wait` still reports the *original* exit status, so an abort is
        // classified as an abort even though we also sent SIGKILL.
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(status) => classify_exit(status),
            Err(e) => format!("unreapable: {e}"),
        }
    }

    /// Graceful retirement: ask the worker to exit and wait, at most
    /// [`SHUTDOWN_GRACE`], for it to hang up its stdout, then reap it.
    /// Results still in flight (documents sent ahead of a drain) are
    /// discarded on the way. A worker that does not hang up in time falls
    /// to the kill-on-drop guarantee.
    fn shutdown(mut self) {
        if write_frame(&mut self.stdin, wire::EXIT).is_err() {
            return;
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            match self.rx.recv_timeout(left) {
                Ok(_) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => return,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // The reader saw EOF: the worker is exiting.
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }

    /// Reap, prefixing the classification with what went wrong first.
    fn reap_after(self, why: String) -> String {
        format!("{why}; worker {}", self.reap())
    }
}

#[cfg(unix)]
fn classify_exit(status: std::process::ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    if let Some(sig) = status.signal() {
        match sig {
            6 => "died on SIGABRT (abort)".to_string(),
            9 => "killed by SIGKILL (heartbeat or the OOM killer)".to_string(),
            11 => "died on SIGSEGV (segfault or stack overflow)".to_string(),
            n => format!("died on signal {n}"),
        }
    } else {
        match status.code() {
            Some(code) => format!("exited with code {code}"),
            None => "died with unknown status".to_string(),
        }
    }
}

#[cfg(not(unix))]
fn classify_exit(status: std::process::ExitStatus) -> String {
    match status.code() {
        Some(code) => format!("exited with code {code}"),
        None => "died with unknown status".to_string(),
    }
}

fn spawn_worker(
    config: &IsolateConfig,
    hello: &Hello,
    heartbeat: Duration,
) -> Result<Worker, String> {
    let (program, args) = config
        .worker_cmd
        .split_first()
        .ok_or("empty worker command")?;
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        // Workers die noisily by design (abort banners, panic backtraces
        // from crashing parsers); none of it belongs in the batch's
        // stderr.
        .stderr(Stdio::null())
        .envs(config.env.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", Path::new(program).display()))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (tx, rx) = mpsc::channel();
    // The reader owns the child's stdout for its lifetime; it exits on
    // EOF (child died) or when the supervisor drops the receiver.
    thread::spawn(move || {
        while let Some(frame) = read_frame(&mut stdout).transpose() {
            let failed = frame.is_err();
            if tx.send(frame).is_err() || failed {
                break;
            }
        }
    });
    let mut worker = Worker { child, stdin, rx };
    if let Err(e) = write_frame(&mut worker.stdin, &hello.frame) {
        return Err(format!("handshake ({})", worker.reap_after(e.to_string())));
    }
    // The generation the hello carries is the one the worker must echo:
    // a mismatch means the two ends disagree about which detector scores
    // documents, and the worker is buried rather than trusted.
    let expected_generation = hello.generation;
    let why = match worker.rx.recv_timeout(heartbeat) {
        Ok(Ok(frame)) => match wire::decode_ready(&frame) {
            Ok(echoed) if echoed == expected_generation => return Ok(worker),
            Ok(echoed) => format!(
                "worker acknowledged generation {echoed}, \
                 supervisor sent {expected_generation}"
            ),
            Err(e) => format!("unexpected reply ({e})"),
        },
        Ok(Err(e)) => e.to_string(),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            "no ready before the heartbeat deadline".to_string()
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(format!("handshake ({})", worker.reap()))
        }
    };
    Err(format!("handshake ({})", worker.reap_after(why)))
}

/// Why one scan attempt produced no result frame.
pub(crate) enum AttemptError {
    /// The worker process died (or was heartbeat-killed) holding the
    /// document.
    Death(String),
    /// No worker could be brought up at all (crash loop, unspawnable
    /// binary); nothing document-specific happened.
    Unavailable(String),
}

/// One worker slot: owns at most one child process, keeps a queue of
/// documents whose results are owed in order, and implements restart
/// backoff, crash-loop cutoff, and the retry-once-then-quarantine
/// protocol. Everything queued that fits the pipe goes to the worker in
/// one write, so the worker scans document after document without
/// waiting on the supervisor. A death while the supervisor awaits a
/// document forfeits only that document: it gets the solo retry, and the
/// queue's other unanswered documents are re-sent to the next worker.
struct Slot<'a> {
    config: &'a IsolateConfig,
    /// Owned, not borrowed: the serve engine rebuilds its executors with
    /// a fresh hello on model hot-reload, so the frame cannot be pinned
    /// to the lifetime of a caller-held string.
    hello: Hello,
    heartbeat: Duration,
    metrics: &'a MetricsSink,
    /// The largest request frame the slot's workers take.
    request_cap: usize,
    worker: Option<Worker>,
    docs_on_worker: u64,
    /// Request payloads queued and not yet answered, oldest first.
    pending: VecDeque<Vec<u8>>,
    /// How many of `pending`, from the front, the current worker has been
    /// sent; 0 whenever there is no worker.
    sent: usize,
    /// Exponent of the respawn backoff; reset by a successful result.
    backoff_exp: u32,
    /// Consecutive spawn/handshake failures; reaching the crash-loop
    /// limit breaks the slot.
    spawn_failures: u32,
    ever_spawned: bool,
    broken: bool,
}

impl<'a> Slot<'a> {
    fn new(
        config: &'a IsolateConfig,
        hello: Hello,
        heartbeat: Duration,
        policy: &'a ScanPolicy,
    ) -> Self {
        Slot {
            config,
            hello,
            heartbeat,
            metrics: &policy.metrics,
            request_cap: request_cap(policy.limits.max_file_size),
            worker: None,
            docs_on_worker: 0,
            pending: VecDeque::new(),
            sent: 0,
            backoff_exp: 0,
            spawn_failures: 0,
            ever_spawned: false,
            broken: false,
        }
    }

    fn backoff(&mut self) {
        let delay = BACKOFF_BASE * 2u32.pow(self.backoff_exp.min(6));
        self.backoff_exp += 1;
        thread::sleep(delay);
    }

    /// Brings up a worker if the slot has none, honouring backoff and the
    /// crash-loop cutoff.
    fn ensure_worker(&mut self) -> Result<(), AttemptError> {
        loop {
            if self.broken {
                return Err(AttemptError::Unavailable(
                    "worker unavailable: crash loop".to_string(),
                ));
            }
            if self.worker.is_some() {
                return Ok(());
            }
            if self.backoff_exp > 0 {
                self.backoff();
            }
            match spawn_worker(self.config, &self.hello, self.heartbeat) {
                Ok(w) => {
                    self.metrics.record(Stage::IsolateSpawns, 1);
                    if self.ever_spawned {
                        self.metrics.record(Stage::IsolateRestarts, 1);
                    }
                    self.ever_spawned = true;
                    self.spawn_failures = 0;
                    self.worker = Some(w);
                    self.docs_on_worker = 0;
                }
                Err(e) => {
                    self.spawn_failures += 1;
                    if self.spawn_failures >= CRASH_LOOP_LIMIT {
                        self.broken = true;
                        return Err(AttemptError::Unavailable(format!(
                            "worker unavailable: crash loop ({e})"
                        )));
                    }
                }
            }
        }
    }

    /// Retires the current worker as dead: reaps it, classifies the
    /// death, and accounts for its lifetime.
    fn bury_worker(&mut self, prefix: &str) -> String {
        self.metrics
            .record(Stage::IsolateWorkerDocs, self.docs_on_worker);
        self.backoff_exp += 1;
        self.sent = 0;
        match self.worker.take() {
            Some(w) => format!("{prefix}worker {}", w.reap()),
            None => format!("{prefix}worker already gone"),
        }
    }

    /// Queues a request payload for [`next`](Self::next) to answer in
    /// order. Queued requests go to the worker when the first of them is
    /// awaited.
    fn queue(&mut self, request: Vec<u8>) {
        self.pending.push_back(request);
    }

    /// The frame bytes of the queued requests, sent or not.
    fn queued_bytes(&self) -> usize {
        self.pending.iter().map(|r| 4 + r.len()).sum()
    }

    /// One attempt at the oldest queued document. Sends the worker the
    /// queued requests it has not been sent, in order, while its
    /// unanswered ones fit in [`PIPE_BYTES`] — a worker with none
    /// unanswered always takes one — or, for a `solo` retry, only the
    /// awaited one, as the first document of a fresh worker. Then waits
    /// out the heartbeat for the next result frame.
    fn try_next(&mut self, solo: bool) -> Result<(ScanOutcome, Deltas), AttemptError> {
        self.ensure_worker()?;
        let upto = if solo { 1 } else { self.pending.len() };
        debug_assert!(
            !solo || self.sent == 0,
            "a solo retry runs on a fresh worker"
        );
        let mut unanswered: usize = self.pending.range(..self.sent).map(|r| 4 + r.len()).sum();
        let (mut frames, mut written) = (Vec::new(), Ok(()));
        while self.sent < upto && written.is_ok() {
            let request = &self.pending[self.sent];
            unanswered += 4 + request.len();
            if self.sent > 0 && unanswered > PIPE_BYTES {
                break;
            }
            written = push_frame(&mut frames, request, self.request_cap);
            self.sent += 1;
        }
        let worker = self.worker.as_mut().expect("ensured above");
        if let Err(e) = written.and_then(|()| worker.stdin.write_all(&frames)) {
            // The pipe broke between documents: the worker died idle.
            return Err(AttemptError::Death(
                self.bury_worker(&format!("request write failed ({e}); ")),
            ));
        }
        match worker.rx.recv_timeout(self.heartbeat) {
            Ok(Ok(frame)) => {
                match wire::decode_result(&frame) {
                    Ok((outcome, deltas)) => {
                        self.pending.pop_front();
                        self.sent -= 1;
                        self.docs_on_worker += 1;
                        self.backoff_exp = 0;
                        Ok((outcome, deltas))
                    }
                    // A worker emitting garbage frames is as untrustworthy
                    // as a dead one.
                    Err(e) => Err(AttemptError::Death(
                        self.bury_worker(&format!("protocol error ({e}); ")),
                    )),
                }
            }
            Ok(Err(e)) => Err(AttemptError::Death(
                self.bury_worker(&format!("pipe read failed ({e}); ")),
            )),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.metrics.record(Stage::IsolateHeartbeatKills, 1);
                Err(AttemptError::Death(self.bury_worker(&format!(
                    "no response within the {:?} heartbeat deadline; ",
                    self.heartbeat
                ))))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(AttemptError::Death(self.bury_worker("")))
            }
        }
    }

    /// The result for the oldest queued document, under the quarantine
    /// protocol: at most two attempts, the second always in a fresh solo
    /// worker.
    fn next(&mut self) -> (ScanOutcome, Deltas) {
        let first = match self.try_next(false) {
            Ok(done) => return done,
            Err(e) => e,
        };
        let detail = match first {
            AttemptError::Unavailable(detail) => detail,
            AttemptError::Death(first_death) => {
                // Solo retry: `try_next` spawns a fresh worker (the old
                // one was buried) and sends it this document alone — so a
                // second death is unambiguously this document's doing.
                match self.try_next(true) {
                    Ok(done) => return done,
                    Err(retry) => {
                        let retry_detail = match retry {
                            AttemptError::Death(d) => d,
                            AttemptError::Unavailable(d) => d,
                        };
                        self.metrics.record(Stage::IsolateQuarantines, 1);
                        format!("quarantined: {first_death}; solo retry: {retry_detail}")
                    }
                }
            }
        };
        // No worker holds the document now (`sent` is 0), so dropping it
        // leaves the rest of the queue to go to the next worker.
        self.pending.pop_front();
        (
            ScanOutcome::Failed {
                class: FailureClass::Fatal,
                detail,
            },
            Vec::new(),
        )
    }

    /// Clean end-of-batch teardown for the slot's surviving worker.
    fn finish(mut self) {
        if let Some(worker) = self.worker.take() {
            self.metrics
                .record(Stage::IsolateWorkerDocs, self.docs_on_worker);
            worker.shutdown();
        }
    }
}

/// The isolate executor: one worker [`Slot`] per scanning thread, with
/// the supervisor-side cache in front of it. With a cache, the supervisor
/// reads each fresh document itself, with the in-process engines' checked
/// read, and looks its digest up: a hit keeps the stored outcome and
/// deltas without a worker ever seeing the document (the whole point —
/// cached documents cost no worker round-trip), a file it cannot read
/// under the cap is decided by that read exactly as in process, and a
/// miss is queued on the slot as a `bytes` request, holding its key's
/// cache lead until its result comes back. The worker scans the bytes
/// that were digested, so the result is stored under their digest as it
/// stands. The reads run ahead of the scans only until the slot's queued
/// requests reach [`PIPE_BYTES`], so a slot holds about that plus one
/// document. Without a cache, nothing is read here: each document is
/// queued as a `path` request, so the whole claim reaches the worker in
/// one write.
///
/// Batches build one per scanning thread; the resident service keeps one
/// per worker thread and generation, and scans each request as a claim
/// of one document, or, for an inline document, with
/// [`scan_inline`](Self::scan_inline).
pub(crate) struct Isolated<'a> {
    slot: Slot<'a>,
    bound: Option<cache::BoundCache>,
    policy: &'a ScanPolicy,
    /// The claimed documents not yet scanned whose plan is made, in order,
    /// with what the plan is.
    planned: VecDeque<(usize, Planned)>,
    /// With a cache, the claimed documents after `planned` that the
    /// supervisor has not read yet, in order.
    unread: VecDeque<(usize, PathBuf)>,
}

/// What the supervisor decided for one document.
enum Planned {
    /// Decided without a worker: a cache hit, or a file the supervisor's
    /// read refused, with its outcome and deltas.
    Decided(ScanOutcome, Deltas),
    /// Queued on the slot; for a cache miss, the lead to insert the
    /// result through.
    Queued(Option<Lead>),
}

impl<'a> Isolated<'a> {
    /// An executor whose worker processes speak `hello`, caching through
    /// `bound`.
    pub(crate) fn new(
        config: &'a IsolateConfig,
        hello: Hello,
        bound: Option<cache::BoundCache>,
        policy: &'a ScanPolicy,
    ) -> Self {
        let heartbeat = config
            .heartbeat
            .unwrap_or_else(|| default_heartbeat(policy));
        Isolated {
            slot: Slot::new(config, hello, heartbeat, policy),
            bound,
            policy,
            planned: VecDeque::new(),
            unread: VecDeque::new(),
        }
    }

    /// Scans a document the caller holds the bytes of, as a claim of its
    /// own: through the cache, and otherwise as a `bytes` request.
    pub(crate) fn scan_inline(&mut self, bytes: &[u8]) -> (ScanOutcome, Deltas) {
        let plan = self.plan(bytes);
        self.decide(plan)
    }

    /// Looks `bytes` up in the cache and queues a miss, or every document
    /// without a cache, as a `bytes` request.
    fn plan(&mut self, bytes: &[u8]) -> Planned {
        let lead = match &self.bound {
            Some(bound) => match bound.lookup(cache::sha256(bytes), &self.policy.metrics) {
                Lookup::Hit(outcome, deltas) => return Planned::Decided(outcome, deltas),
                Lookup::Miss(lead) => Some(lead),
            },
            None => None,
        };
        self.slot.queue(wire::bytes_request(bytes));
        Planned::Queued(lead)
    }

    /// Reads and plans unread documents, in order, until the slot's queued
    /// requests reach [`PIPE_BYTES`] or none is left.
    fn read_ahead(&mut self) {
        while self.slot.queued_bytes() < PIPE_BYTES {
            let Some((idx, path)) = self.unread.pop_front() else {
                return;
            };
            let read = read_file_checked(&path, self.policy.limits.max_file_size);
            faultpoint!("cache::digest-read-gap");
            let plan = match read {
                Ok(bytes) => self.plan(&bytes),
                Err(outcome) => Planned::Decided(outcome, Vec::new()),
            };
            self.planned.push_back((idx, plan));
        }
    }

    fn decide(&mut self, plan: Planned) -> (ScanOutcome, Deltas) {
        match plan {
            Planned::Decided(outcome, deltas) => (outcome, deltas),
            Planned::Queued(lead) => {
                let (outcome, deltas) = self.slot.next();
                if let Some(lead) = lead {
                    lead.insert(&outcome, &deltas, &self.policy.metrics);
                }
                (outcome, deltas)
            }
        }
    }
}

impl Executor for Isolated<'_> {
    fn claim<'p>(&mut self, fresh: impl Iterator<Item = (usize, &'p Path)>) {
        for (idx, path) in fresh {
            if self.bound.is_some() {
                self.unread.push_back((idx, path.to_path_buf()));
            } else {
                self.slot.queue(wire::path_request(path));
                self.planned.push_back((idx, Planned::Queued(None)));
            }
        }
        self.read_ahead();
    }

    fn scan(&mut self, idx: usize, _path: &Path) -> (ScanOutcome, Deltas) {
        // With nothing planned, the slot holds nothing, so this plans the
        // next document at least.
        self.read_ahead();
        let (claimed, plan) = self
            .planned
            .pop_front()
            .expect("the engine scans only documents it claimed");
        debug_assert_eq!(claimed, idx, "claimed documents are scanned in order");
        self.decide(plan)
    }

    fn finish(self) {
        // Release the leads of documents a drain left unscanned before
        // the worker's grace period, not after it.
        drop(self.planned);
        self.slot.finish();
    }
}

fn default_heartbeat(policy: &ScanPolicy) -> Duration {
    match policy.deadline_per_doc {
        // The deadline bounds the *scan*; spawn, I/O and scheduling ride
        // on top, so the heartbeat leaves generous headroom — it exists
        // to catch wedged workers, not slow ones.
        Some(d) => d * 4 + Duration::from_secs(5),
        None => Duration::from_secs(60),
    }
}

/// The process-isolated batch path behind [`ScanPolicy::isolate`]: the
/// shared batch engine driven by one [`Isolated`] executor per scanning
/// thread. Resume, journaling, drain and ordering are the engine's, so
/// records and journals are byte-identical to the in-process runs.
pub(crate) fn scan_paths_isolated(
    detector: &Detector,
    paths: Vec<PathBuf>,
    policy: &ScanPolicy,
    config: &IsolateConfig,
    journal: Option<&mut ScanJournal>,
    resume: Option<&JournalReplay>,
) -> ScanReport {
    let hello = Hello::new(detector, policy, 0);
    let bound = cache::BoundCache::bind(detector, policy);
    run_batch(paths, policy, journal, resume, || {
        Isolated::new(config, hello.clone(), bound.clone(), policy)
    })
}
