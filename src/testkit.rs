//! Scaffolding shared by the integration suites under `tests/` and the two
//! serve soaks (`src/bin/serve_soak.rs`, `src/bin/reload_soak.rs`): the
//! throwaway detector, the small documents they scan, scratch
//! directories, the guard over process-global state, an in-process
//! server, a line-protocol client, and a `vbadet serve` daemon driver.
//!
//! Every builder here is deterministic: a suite that calls one scans the
//! same bytes on every run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use vbadet::json::{self, Json};
use vbadet::{
    scan_paths_journaled, Detector, DetectorConfig, Listener, MetricsSink, ScanJournal, ScanPolicy,
    ServeConfig, ServeSummary,
};
use vbadet_corpus::CorpusSpec;
use vbadet_ole::OleBuilder;
use vbadet_ovba::VbaProjectBuilder;
use vbadet_zip::{CompressionMethod, ZipWriter};

/// How long a [`Client`] waits for one reply. A lost reply fails the
/// caller instead of hanging it; 60 s keeps a loaded host's scheduling
/// noise from tripping it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The detector every suite scans with, trained once per process on a
/// tiny paper-shaped corpus. Verdict quality is irrelevant: the suites
/// compare engines, caches and failure paths against each other, never
/// against ground truth.
pub fn tiny_detector() -> &'static Detector {
    static DETECTOR: OnceLock<Detector> = OnceLock::new();
    DETECTOR.get_or_init(|| tiny_detector_seeded(DetectorConfig::default().seed))
}

/// A detector trained like [`tiny_detector`] but from another seed, so its
/// weights, and with them its save-text fingerprint, differ.
pub fn tiny_detector_seeded(seed: u64) -> Detector {
    let config = DetectorConfig {
        seed,
        ..DetectorConfig::default()
    };
    Detector::train_on_corpus(&config, &CorpusSpec::paper().scaled(0.002))
}

/// A bare `vbaProject.bin` named `P` holding one small module.
pub fn macro_document() -> Vec<u8> {
    named_macro_document("P")
}

/// [`macro_document`]'s module in a project named `project`.
pub fn named_macro_document(project: &str) -> Vec<u8> {
    let mut b = VbaProjectBuilder::new(project);
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    b.build().unwrap()
}

/// A compound file with a `WordDocument` stream and no VBA project.
pub fn clean_document() -> Vec<u8> {
    let mut ole = OleBuilder::new();
    ole.add_stream("WordDocument", b"plain text, no project")
        .unwrap();
    ole.build()
}

/// An OOXML archive carrying [`macro_document`] as its VBA part.
pub fn docm_document() -> Vec<u8> {
    let mut zip = ZipWriter::new();
    zip.add_file(
        "[Content_Types].xml",
        b"<?xml version=\"1.0\"?><Types/>",
        CompressionMethod::Deflate,
    )
    .unwrap();
    zip.add_file(
        "word/vbaProject.bin",
        &macro_document(),
        CompressionMethod::Deflate,
    )
    .unwrap();
    zip.finish()
}

/// The `i`th of a family of distinct one-module projects.
pub fn macro_doc(i: usize) -> Vec<u8> {
    let mut b = VbaProjectBuilder::new("P");
    b.add_module(
        &format!("Module{i}"),
        &format!("Sub Work{i}()\r\n    x = {i}\r\n    y = x * 2\r\nEnd Sub\r\n"),
    );
    b.build().unwrap()
}

/// The `i`th of a family of distinct macro-free compound files.
pub fn clean_doc(i: usize) -> Vec<u8> {
    let mut ole = OleBuilder::new();
    ole.add_stream(
        "WordDocument",
        format!("plain text #{i}, no macros").as_bytes(),
    )
    .unwrap();
    ole.build()
}

/// Wreckage the structured parsers reject but the extractor's raw-bytes
/// sweep mines: a fake ZIP signature followed by an intact compressed
/// module.
pub fn salvage_wreck(i: usize) -> Vec<u8> {
    let mut doc = b"PK\x03\x04 not really an archive ".to_vec();
    doc.extend_from_slice(&vbadet_ovba::compress(
        format!("Attribute VB_Name = \"M{i}\"\r\nSub S{i}()\r\n    x = {i}\r\nEnd Sub\r\n")
            .as_bytes(),
    ));
    doc
}

/// `policy` with a live metrics sink.
pub fn metered(policy: ScanPolicy) -> ScanPolicy {
    policy.with_metrics(MetricsSink::enabled())
}

/// A new, empty directory under the system temp dir, unique to this
/// process and this call.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vbadet-{tag}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serializes the tests of one suite and resets the process-global state
/// they share: the faultpoint registry (when compiled in), the drain latch
/// and the hot-reload latch. A poisoned lock is recovered, so one failing
/// test does not cascade into every later one.
pub fn global_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    #[cfg(feature = "faultpoints")]
    vbadet_faultpoint::clear();
    vbadet::scan::interrupt::reset();
    vbadet::reset_reload_requests();
    guard
}

/// Runs the service on an ephemeral TCP port for the duration of `drive`,
/// then requests the drain and returns the summary alongside `drive`'s
/// result.
pub fn with_server<R>(
    detector: &Detector,
    config: &ServeConfig,
    drive: impl FnOnce(SocketAddr) -> R,
) -> (ServeSummary, R) {
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.tcp_addr().unwrap();
    // The drain latch is process-global and sticky: without this reset a
    // second `with_server` in the same test would inherit the previous
    // drain and exit before accepting anything.
    vbadet::scan::interrupt::reset();
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
        let out = drive(addr);
        drop(drain);
        (server.join().unwrap(), out)
    })
}

/// One connection speaking the service's line protocol, over TCP or a
/// Unix socket.
pub struct Client {
    pub writer: Box<dyn Write + Send>,
    pub reader: BufReader<Box<dyn Read + Send>>,
}

impl Client {
    /// Connects over TCP, with Nagle off.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let reader = stream.try_clone().unwrap();
        Client::over(stream, reader)
    }

    /// Connects to the Unix socket at `path`.
    pub fn unix(path: &Path) -> Client {
        let stream = UnixStream::connect(path)
            .unwrap_or_else(|e| panic!("connect to {}: {e}", path.display()));
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let reader = stream.try_clone().unwrap();
        Client::over(stream, reader)
    }

    fn over(writer: impl Write + Send + 'static, reader: impl Read + Send + 'static) -> Client {
        Client {
            writer: Box::new(writer),
            reader: BufReader::new(Box::new(reader)),
        }
    }

    /// Sends one request line. One write per line: a trailing 1-byte
    /// `\n` write would stall behind Nagle and skew timing-sensitive tests.
    pub fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    /// Reads one reply line, trimmed. Fails when no reply arrives within
    /// the timeout or the server closes the connection instead.
    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("no reply within {REPLY_TIMEOUT:?}: {e}"));
        assert!(
            n > 0,
            "the server closed the connection instead of replying"
        );
        line.trim().to_string()
    }

    /// One request line, one reply line: the protocol is strictly
    /// sequential per connection.
    pub fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

/// Parses one reply line: every reply the service writes is one JSON
/// object, so fields are read through the shared codec, never probed as
/// substrings.
pub fn reply(line: &str) -> Json {
    json::parse(line).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {line}"))
}

/// The `outcome` object of each `done` line a journaled batch over
/// `paths` writes to `journal_path`, in input order.
pub fn journaled_outcomes(det: &Detector, paths: &[PathBuf], journal_path: &Path) -> Vec<Json> {
    let mut journal = ScanJournal::create(journal_path).unwrap();
    scan_paths_journaled(det, paths, &ScanPolicy::default(), Some(&mut journal), None);
    drop(journal);
    std::fs::read_to_string(journal_path)
        .unwrap()
        .lines()
        .map(reply)
        .filter(|j| j.get("event").and_then(Json::as_str) == Some("done"))
        .map(|j| j.get("outcome").unwrap().clone())
        .collect()
}

/// A `vbadet serve` daemon on a Unix socket in a scratch directory, its
/// stderr logged to a file there.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
}

/// What a drained [`Daemon`] left behind.
pub struct Drained {
    pub status: ExitStatus,
    pub log: String,
}

impl Daemon {
    /// Spawns `vbadet_bin serve --socket DIR/serve.sock ARGS…` with `env`
    /// added to its environment, and waits up to 30 s for the socket to
    /// appear. Fails, printing the log, if the daemon exits first.
    pub fn spawn(vbadet_bin: &str, dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Daemon {
        let socket = dir.join("serve.sock");
        let log = dir.join("daemon.log");
        let mut child = Command::new(vbadet_bin)
            .args(["serve", "--socket", socket.to_str().unwrap()])
            .args(args)
            .envs(env.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log).unwrap())
            .spawn()
            .expect("spawn vbadet serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
            if let Some(status) = child.try_wait().unwrap() {
                panic!(
                    "daemon exited before binding: {status}\n{}",
                    std::fs::read_to_string(&log).unwrap_or_default()
                );
            }
            thread::sleep(Duration::from_millis(50));
        }
        Daemon { child, socket, log }
    }

    /// The socket the daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Sends SIGTERM and waits up to 20 s for the daemon to drain and exit.
    pub fn drain(mut self) -> Drained {
        let pid = self.child.id().to_string();
        assert!(
            Command::new("kill")
                .args(["-TERM", &pid])
                .status()
                .unwrap()
                .success(),
            "kill -TERM failed"
        );
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not drain within 20s of SIGTERM"
            );
            thread::sleep(Duration::from_millis(50));
        };
        Drained {
            status,
            log: std::fs::read_to_string(&self.log).unwrap_or_default(),
        }
    }
}

impl Drained {
    /// The daemon's final `drained: N accepted, N shed, N responses` line.
    pub fn line(&self) -> &str {
        self.log
            .lines()
            .find(|l| l.starts_with("drained:"))
            .unwrap_or_else(|| panic!("no drain summary in the daemon log:\n{}", self.log))
    }
}

/// Running processes whose command line names an isolate worker.
pub fn count_orphan_workers() -> usize {
    let out = Command::new("ps")
        .args(["-eo", "args"])
        .output()
        .expect("run ps");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("__worker"))
        .count()
}
