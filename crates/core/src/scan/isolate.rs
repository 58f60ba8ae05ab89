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
//! Frames are a `u32` little-endian byte length followed by that many
//! bytes of payload, over the child's stdin/stdout. The frames sent once
//! per worker are UTF-8 JSON; the ones sent once per document are binary
//! (layout and version in `wire`). The conversation:
//!
//! ```text
//! supervisor → worker   {"op":"hello","frame_version":3,"detector":…,…}
//! worker → supervisor   {"op":"ready","generation":…}
//! supervisor → worker   scan(path) or scan(bytes)   (a claim's documents,
//!                       scan(path) or scan(bytes)    back to back in one
//!                       …                            write)
//! worker → supervisor   result(outcome, counters)
//!                       …                           (one per scan, in order;
//!                                                   held ones in one write)
//! supervisor → worker   {"op":"exit"}
//! worker                closes stdout and exits; the supervisor sees the
//!                       hang-up and reaps it
//! ```
//!
//! The protocol is strictly private to one binary version — both ends are
//! the same executable — so the encoding favours compactness (the limits
//! travel as a positional array, counters by index) over
//! self-description.
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
use std::io::{self, BufReader, Read, Write};
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
use crate::limits::ScanLimits;
use vbadet_faultpoint::faultpoint;
use vbadet_metrics::json::{self, json_str, Json};
use vbadet_metrics::{MetricsSink, Stage};
use vbadet_ole::OleLimits;
use vbadet_ovba::OvbaLimits;
use vbadet_zip::ZipLimits;

mod wire;

/// The hidden subcommand a binary embedding [`worker_main`] dispatches on.
pub const WORKER_SUBCOMMAND: &str = "__worker";

/// Hard cap on one frame's payload; a length prefix past this is treated
/// as protocol corruption, not an allocation request. A worker takes
/// request frames up to the larger `request_cap`, since a `bytes`
/// request carries a whole document.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Linux's default pipe capacity. The slot writes a request only while
/// the requests its worker has not answered, this one included, fit in
/// it, so a request write never blocks while the heartbeat should be
/// timing; and a cached claim reads documents ahead only until its queued
/// requests reach it.
const PIPE_BYTES: usize = 64 << 10;

/// The largest request frame a worker takes: a `bytes` request holds a
/// tag and at most `max_file_size` bytes of document.
fn request_cap(max_file_size: u64) -> usize {
    (max_file_size.saturating_add(1).min(u32::MAX.into()) as usize).max(MAX_FRAME_BYTES)
}

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
// Frame codec
// ---------------------------------------------------------------------------

/// Allocation step for frame payload reads: the buffer grows as bytes
/// actually arrive, so a lying length prefix costs at most one step of
/// memory, never the whole claimed length up front.
const FRAME_READ_CHUNK: usize = 64 << 10;

/// Writes one length-prefixed frame, prefix and payload in a single
/// `write_all`. Public so the hostile-input fuzz harness can construct
/// valid frames to mutate; a payload over [`MAX_FRAME_BYTES`] is refused
/// before a byte is written.
pub fn write_frame(w: &mut impl Write, payload: impl AsRef<[u8]>) -> io::Result<()> {
    let payload = payload.as_ref();
    let mut buf = Vec::with_capacity(4 + payload.len());
    push_frame(&mut buf, payload, MAX_FRAME_BYTES)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Appends one length-prefixed frame of at most `cap` bytes to `buf`, so
/// several frames can go out in one write.
fn push_frame(buf: &mut Vec<u8>, bytes: &[u8], cap: usize) -> io::Result<()> {
    if bytes.len() > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
    Ok(())
}

/// Reads one frame of at most [`MAX_FRAME_BYTES`]; `Ok(None)` is a clean
/// EOF at a frame boundary (the peer closed the pipe), anything torn or
/// oversized is an error.
///
/// A corrupt or hostile peer can lie in the length prefix; the payload
/// buffer therefore grows incrementally as bytes arrive instead of being
/// allocated up front, so a prefix claiming 64 MiB followed by a closed
/// pipe costs a typed error, not a 64 MiB allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_within(r, MAX_FRAME_BYTES)
}

/// [`read_frame`] with a payload cap of `cap` bytes, checked against the
/// length prefix before a payload byte is read.
fn read_frame_within(r: &mut impl Read, cap: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length prefix over the cap",
        ));
    }
    let mut buf = Vec::with_capacity(len.min(FRAME_READ_CHUNK));
    let mut taken = r.take(len as u64);
    taken.read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame truncated: prefix said {len} bytes, got {}",
                buf.len()
            ),
        ));
    }
    Ok(Some(buf))
}

/// Parses a frame sent once per worker (hello, ready, exit), which is
/// UTF-8 JSON.
fn json_frame(frame: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(frame).map_err(|_| "frame is not UTF-8".to_string())?;
    json::parse(text).map_err(String::from)
}

// ---------------------------------------------------------------------------
// Protocol encode / decode
// ---------------------------------------------------------------------------

fn opt_num(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// The policy fields that can change a scan outcome, rendered once as
/// `"deadline_ms":…,"fuel":…,"max_scan_mem":…,"limits":[…]`: the tail
/// of the hello frame, which [`decode_hello`] reads back, and the text
/// the cache's policy fingerprint hashes. Execution-shape knobs (`jobs`,
/// `isolate`, metrics, drain, the cache handle) are not among them.
pub(crate) fn policy_fields(policy: &ScanPolicy) -> String {
    let l = &policy.limits;
    format!(
        "\"deadline_ms\":{},\"fuel\":{},\"max_scan_mem\":{},\
         \"limits\":[{},{},{},{},{},{},{},{},{},{}]",
        opt_num(policy.deadline_per_doc.map(|d| d.as_millis() as u64)),
        opt_num(policy.fuel_per_doc),
        opt_num(policy.max_scan_mem),
        l.zip.max_entries,
        l.zip.max_member_bytes,
        l.ole.max_sectors,
        l.ole.max_dir_entries,
        l.ole.max_stream_bytes,
        l.ole.max_dir_depth,
        l.ovba.max_modules,
        l.ovba.max_module_bytes,
        l.ovba.max_dir_bytes,
        l.max_file_size,
    )
}

/// A worker's hello frame beside the detector generation it carries, so a
/// spawn knows which generation the worker must echo without re-parsing
/// the frame and its serialized detector.
#[derive(Clone)]
pub(crate) struct Hello {
    frame: String,
    generation: u64,
}

impl Hello {
    pub(crate) fn new(detector: &Detector, policy: &ScanPolicy, generation: u64) -> Self {
        let frame = format!(
            "{{\"op\":\"hello\",\"frame_version\":{},\"generation\":{generation},\
             \"detector\":{},{}}}",
            wire::FRAME_VERSION,
            json_str(&detector.save()),
            policy_fields(policy),
        );
        Hello { frame, generation }
    }
}

fn decode_hello(j: &Json) -> Result<(Detector, ScanPolicy, u64), String> {
    let version = j.get("frame_version").and_then(Json::as_u64);
    if version != Some(wire::FRAME_VERSION) {
        return Err(format!(
            "hello frame version {version:?}, this worker speaks {}",
            wire::FRAME_VERSION
        ));
    }
    let text = j
        .get("detector")
        .and_then(Json::as_str)
        .ok_or("hello without detector")?;
    let detector = Detector::load(text).map_err(|e| format!("hello detector: {e:?}"))?;
    let lim = j
        .get("limits")
        .and_then(Json::as_arr)
        .ok_or("hello without limits")?;
    if lim.len() != 10 {
        return Err(format!("hello limits arity {} != 10", lim.len()));
    }
    let lv = |i: usize| lim[i].as_u64().ok_or("hello limit is not a number");
    let limits = ScanLimits {
        zip: ZipLimits {
            max_entries: lv(0)? as usize,
            max_member_bytes: lv(1)? as usize,
        },
        ole: OleLimits {
            max_sectors: lv(2)? as usize,
            max_dir_entries: lv(3)? as usize,
            max_stream_bytes: lv(4)? as usize,
            max_dir_depth: lv(5)? as usize,
        },
        ovba: OvbaLimits {
            max_modules: lv(6)? as usize,
            max_module_bytes: lv(7)? as usize,
            max_dir_bytes: lv(8)? as usize,
        },
        max_file_size: lv(9)?,
    };
    let num = |key: &str| j.get(key).and_then(Json::as_u64);
    let mut policy = ScanPolicy::with_limits(limits);
    policy.deadline_per_doc = num("deadline_ms").map(Duration::from_millis);
    policy.fuel_per_doc = num("fuel");
    policy.max_scan_mem = num("max_scan_mem");
    // Detector generation (0 for batch runs that never reload). The
    // worker echoes it in its ready frame so the supervisor can prove
    // both ends agree on which detector scores documents.
    let generation = num("generation").unwrap_or(0);
    Ok((detector, policy, generation))
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
    let hello = match read_frame(&mut input) {
        Ok(Some(frame)) => frame,
        Ok(None) => return 0,
        Err(e) => return proto_err("hello read", e.to_string()),
    };
    let hello = match json_frame(&hello) {
        Ok(j) => j,
        Err(e) => return proto_err("hello parse", e),
    };
    if hello.get("op").and_then(Json::as_str) != Some("hello") {
        return proto_err("handshake", "first frame is not hello".to_string());
    }
    let (detector, base, generation) = match decode_hello(&hello) {
        Ok(x) => x,
        Err(e) => return proto_err("hello decode", e),
    };
    let held = Held::start(output);
    let ready = format!("{{\"op\":\"ready\",\"generation\":{generation}}}");
    if let Err(e) = held.send(ready.as_bytes(), false) {
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
            Some(wire::Request::Path(path)) => super::scan_file(&detector, path, &policy, None),
            Some(wire::Request::Bytes(bytes)) => {
                super::scan_bytes_with_policy(&detector, bytes, &policy)
            }
            // The supervisor asks a worker to exit only once it owes
            // nothing it still wants, so held frames may go unwritten.
            None => match json_frame(&frame) {
                Ok(j) if j.get("op").and_then(Json::as_str) == Some("exit") => return 0,
                Ok(j) => return proto_err("request op", format!("{:?}", j.get("op"))),
                Err(e) => return proto_err("request parse", e),
            },
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

/// Whether `buf` begins with a whole frame: a length prefix and at least
/// that many payload bytes.
fn whole_frame_buffered(buf: &[u8]) -> bool {
    match buf.split_first_chunk::<4>() {
        Some((len, payload)) => payload.len() >= u32::from_le_bytes(*len) as usize,
        None => false,
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
        if write_frame(&mut self.stdin, b"{\"op\":\"exit\"}").is_err() {
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
    thread::spawn(move || loop {
        match read_frame(&mut stdout) {
            Ok(Some(frame)) => {
                if tx.send(Ok(frame)).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                let _ = tx.send(Err(e));
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
        Ok(Ok(frame)) => match json_frame(&frame) {
            Ok(j) if j.get("op").and_then(Json::as_str) == Some("ready") => {
                let echoed = j.get("generation").and_then(Json::as_u64).unwrap_or(0);
                if echoed == expected_generation {
                    return Ok(worker);
                }
                format!(
                    "worker acknowledged generation {echoed}, \
                     supervisor sent {expected_generation}"
                )
            }
            other => format!("unexpected reply {other:?}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use vbadet_corpus::CorpusSpec;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ready\"}").unwrap();
        write_frame(&mut buf, [0x02, 0xFF, 0x00]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"ready\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), [0x02, 0xFF, 0x00]);
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let buf = u32::MAX.to_le_bytes();
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// A reader that yields `head` and then fails the test if it is read
    /// again: a frame refused on its length prefix reads no payload.
    struct PrefixOnly<'a>(&'a [u8]);

    impl Read for PrefixOnly<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(!self.0.is_empty(), "read a payload past a refused prefix");
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn the_worker_refuses_a_request_prefix_over_its_cap_before_it_allocates() {
        // The cap follows the hello's file-size limit, never below the
        // 64 MiB frame cap, and never past what a length prefix can say.
        assert_eq!(request_cap(1024), MAX_FRAME_BYTES);
        assert_eq!(request_cap(100 << 20), (100 << 20) + 1);
        assert_eq!(request_cap(u64::MAX), u32::MAX as usize);
        for max_file_size in [1024, 100 << 20] {
            let cap = request_cap(max_file_size);
            let prefix = (cap as u32 + 1).to_le_bytes();
            let err = read_frame_within(&mut PrefixOnly(&prefix), cap).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // A prefix at the cap passes it (and the pipe then ends early),
        // while a result frame keeps the 64 MiB cap.
        let cap = request_cap(100 << 20);
        let at_cap = (cap as u32).to_le_bytes();
        let err = read_frame_within(&mut &at_cap[..], cap).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let err = read_frame(&mut PrefixOnly(&at_cap)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn a_whole_frame_is_buffered_only_once_its_last_payload_byte_is() {
        let mut two = Vec::new();
        push_frame(&mut two, b"first", MAX_FRAME_BYTES).unwrap();
        let first_len = two.len();
        push_frame(&mut two, b"second", MAX_FRAME_BYTES).unwrap();
        assert!(!whole_frame_buffered(&[]), "empty buffer");
        assert!(!whole_frame_buffered(&two[..3]), "partial length prefix");
        assert!(!whole_frame_buffered(&two[..4]), "bare length prefix");
        assert!(
            !whole_frame_buffered(&two[..first_len - 1]),
            "partial payload"
        );
        assert!(whole_frame_buffered(&two[..first_len]), "exact frame");
        assert!(
            whole_frame_buffered(&two[..first_len + 5]),
            "a frame followed by part of the next"
        );
        assert!(!whole_frame_buffered(&two[first_len..first_len + 5]));
        // An empty payload is whole with its prefix alone.
        assert!(whole_frame_buffered(&0u32.to_le_bytes()));
    }

    #[test]
    fn hello_round_trips_detector_and_policy() {
        let detector = Detector::train_on_corpus(
            &DetectorConfig::default(),
            &CorpusSpec::paper().scaled(0.02),
        );
        let policy = ScanPolicy::with_limits(ScanLimits::strict())
            .deadline_ms(1234)
            .fuel(99)
            .max_scan_mem_bytes(5 << 20);
        let hello = Hello::new(&detector, &policy, 7);
        let (loaded, decoded, generation) =
            decode_hello(&json_frame(hello.frame.as_bytes()).unwrap()).unwrap();
        assert_eq!((generation, hello.generation), (7, 7));
        assert_eq!(decoded.limits, policy.limits);
        assert_eq!(decoded.deadline_per_doc, policy.deadline_per_doc);
        assert_eq!(decoded.fuel_per_doc, policy.fuel_per_doc);
        assert_eq!(decoded.max_scan_mem, policy.max_scan_mem);
        // The detector survives the trip: same verdict on a probe string.
        let probe = "Sub A()\r\n    x = Chr(1) & Chr(2) & Chr(3)\r\nEnd Sub\r\n";
        assert_eq!(loaded.is_obfuscated(probe), detector.is_obfuscated(probe));
    }

    #[test]
    fn hello_frame_bytes_are_golden() {
        // Literal bytes around the embedded detector: the policy fields go
        // out in a fixed order, an unset budget as `null`.
        let detector = Detector::train_on_corpus(
            &DetectorConfig::default(),
            &CorpusSpec::paper().scaled(0.02),
        );
        let saved = json_str(&detector.save());
        let strict = ScanPolicy::with_limits(ScanLimits::strict())
            .deadline_ms(1234)
            .fuel(99)
            .max_scan_mem_bytes(5 << 20);
        assert_eq!(
            Hello::new(&detector, &strict, 7).frame,
            format!(
                concat!(
                    r#"{{"op":"hello","frame_version":3,"generation":7,"detector":{},"#,
                    r#""deadline_ms":1234,"#,
                    r#""fuel":99,"max_scan_mem":5242880,"limits":[4096,16777216,262144,"#,
                    r#"4096,16777216,64,256,4194304,1048576,67108864]}}"#
                ),
                saved
            )
        );
        assert_eq!(
            Hello::new(&detector, &ScanPolicy::with_limits(ScanLimits::strict()), 0).frame,
            format!(
                concat!(
                    r#"{{"op":"hello","frame_version":3,"generation":0,"detector":{},"#,
                    r#""deadline_ms":null,"#,
                    r#""fuel":null,"max_scan_mem":null,"limits":[4096,16777216,262144,"#,
                    r#"4096,16777216,64,256,4194304,1048576,67108864]}}"#
                ),
                saved
            )
        );
    }

    #[test]
    fn a_hello_of_another_frame_version_is_refused() {
        for hello in [
            r#"{"op":"hello","frame_version":1,"detector":"x"}"#,
            r#"{"op":"hello","detector":"x"}"#,
        ] {
            let err = decode_hello(&json::parse(hello).unwrap()).unwrap_err();
            assert!(err.contains("frame version"), "{err}");
        }
    }
}
