//! Never-abort, deadline-bounded batch scanning.
//!
//! A malware triage run processes thousands of files, many of them
//! deliberately malformed; one hostile document must never take down the
//! batch — and must never stall it either. [`scan_paths_with_policy`] (and
//! the in-memory [`scan_documents_with_policy`]) process every input,
//! isolate per-document panics with [`std::panic::catch_unwind`], classify
//! each failure into a [`FailureClass`], and aggregate everything into a
//! [`ScanReport`].
//!
//! The [`ScanPolicy`] every entry point takes adds budgets on top: an
//! optional per-document wall-clock deadline and fuel allowance, threaded
//! as a cooperative [`Budget`] through every container parser. A
//! pathological-but-limit-respecting input trips the budget and is
//! reported as [`FailureClass::Timeout`] instead of hanging the batch.
//! Damaged documents need no policy switch: the one extractor
//! ([`extract_macros_bounded`]) salvages whatever intact module source a
//! broken container still holds, and reports it as
//! [`ScanOutcome::Salvaged`].
//!
//! Every batch entry point — [`scan_paths_journaled`] and its wrappers,
//! and the in-memory [`scan_documents_with_policy`] — runs through one
//! private ordered engine, driven by a per-thread *executor* that scans
//! one claimed input and returns its outcome plus its counter deltas. The
//! engine owns everything else: the claim cursor, the resume lookup, the
//! drain latch, the in-order reorder buffer, the single journal writer,
//! counting and report assembly. With [`ScanPolicy::jobs`] ≤ 1 the
//! executor runs inline on the calling thread; above that, scoped worker
//! threads each own one executor and the calling thread collects their
//! results **in input order**, so reports and journals are byte-identical
//! whatever the worker count (`tests/parallel_scan.rs`). Scanning code
//! never counts into the report: each scanning thread counts into a sink
//! of its own ([`MetricsSink::for_thread`]), and a document's counters
//! reach the report only when the engine emits its record, so a document
//! decided past a drain leaves no trace in them.
//!
//! There are two executors. The in-process one scans on its own thread
//! under `catch_unwind`. The [`isolate`] one ([`ScanPolicy::isolate`])
//! hands each document to a child *worker process*, so the failure modes
//! `catch_unwind` cannot contain — aborts, stack overflows, the OOM
//! killer — cost one worker, not the batch. A document that kills its
//! worker is retried exactly once in a fresh solo worker and, if it kills
//! that too, is recorded as [`FailureClass::Fatal`] (quarantined) while
//! the batch continues. Both executors look documents up in the
//! [`cache`] when the policy carries one, and its lookup is the one
//! single-flight: concurrent identical documents cost one scan. The
//! resident service ([`crate::serve`](mod@crate::serve)) runs the same per-document code.
//!
//! Finally, [`interrupt`] provides a graceful-drain latch: when a policy
//! opts in via [`ScanPolicy::drain_on_interrupt`], a drain request (e.g.
//! from a SIGINT handler) stops the engines from dispatching new
//! documents; everything already decided is journaled and reported with
//! [`ScanReport::interrupted`] set, so a later `--resume` picks up
//! exactly where the drain stopped.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use crate::detector::{Detector, ModuleVerdict, ScoreScratch};
use crate::extract::{extract_macros_bounded, ExtractionStatus};
use crate::journal::{JournalReplay, ScanJournal};
use crate::limits::ScanLimits;
use crate::DetectError;
use vbadet_faultpoint::{faultpoint, Budget, BudgetExceeded};
use vbadet_metrics::{Counter, MetricsSink, ScanMetrics, Stage};

pub mod cache;
pub mod isolate;

pub use cache::ScanCache;
pub use isolate::IsolateConfig;

thread_local! {
    /// One [`ScoreScratch`] per scanning thread: the sequential caller,
    /// each pool worker, each isolate worker process, and each service
    /// worker keep their extraction buffers warm across documents, so
    /// steady-state scoring performs no heap allocation. Thread-local
    /// (rather than threaded through the call stack) keeps the buffers
    /// outside the `catch_unwind` containment boundaries; every use
    /// clears them on entry, so a panicked document cannot poison the
    /// next one.
    static SCORE_SCRATCH: std::cell::RefCell<ScoreScratch> =
        std::cell::RefCell::new(ScoreScratch::default());
}

/// Scores one module through the per-thread scratch, timing the two hot
/// stages separately. Verdicts are bit-identical to `detector.score`.
fn score_module(detector: &Detector, metrics: &MetricsSink, code: &str) -> crate::Verdict {
    SCORE_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        {
            let _t = metrics.time(Stage::FeaturesNs);
            detector.extract_with(scratch, code);
        }
        let _t = metrics.time(Stage::PredictNs);
        detector.predict_with(scratch)
    })
}

/// Records this document's heap-allocation footprint on drop: the delta
/// of the scanning thread's
/// [`memguard::cumulative_allocs`](crate::memguard::cumulative_allocs)
/// across the scan becomes the `alloc.count_per_doc` /
/// `alloc.bytes_per_doc` histograms, so a sibling thread's allocations
/// never land in this document's figures. In a process without the
/// tracking allocator the counters never move and nothing is recorded.
struct AllocGuard<'a> {
    metrics: &'a MetricsSink,
    start: (u64, u64),
}

impl<'a> AllocGuard<'a> {
    fn new(metrics: &'a MetricsSink) -> Self {
        AllocGuard {
            metrics,
            start: crate::memguard::cumulative_allocs(),
        }
    }
}

impl Drop for AllocGuard<'_> {
    fn drop(&mut self) {
        let (count, bytes) = crate::memguard::cumulative_allocs();
        let dc = count.saturating_sub(self.start.0);
        if dc > 0 {
            self.metrics.record(Stage::AllocCountPerDoc, dc);
            self.metrics
                .record(Stage::AllocBytesPerDoc, bytes.saturating_sub(self.start.1));
        }
    }
}

/// Graceful-drain latch for batch scans.
///
/// A process-global flag, set from a signal handler (it is a single atomic
/// store, so it is async-signal-safe) or from tests, and consulted by the
/// batch engines *only* when the active [`ScanPolicy`] opts in via
/// [`ScanPolicy::drain_on_interrupt`] — a library embedder's batches are
/// never affected by a flag they did not ask to honor.
pub mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};

    static DRAIN: AtomicBool = AtomicBool::new(false);

    /// Requests a graceful drain: engines stop dispatching new documents.
    /// Safe to call from a signal handler.
    pub fn request_drain() {
        DRAIN.store(true, Ordering::Relaxed);
    }

    /// Whether a drain has been requested.
    pub fn drain_requested() -> bool {
        DRAIN.load(Ordering::Relaxed)
    }

    /// Clears the latch (call before starting a batch that honors it).
    pub fn reset() {
        DRAIN.store(false, Ordering::Relaxed);
    }

    /// Test hook: lets the fault-injection site `scan::request-drain`
    /// trigger a drain at a deterministic document index.
    pub(crate) fn poll_injected() {
        if vbadet_faultpoint::fire("scan::request-drain").is_some() {
            request_drain();
        }
    }
}

/// Why a document could not be scanned, at the granularity the batch
/// report cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// A sector or DIFAT chain in the compound file loops.
    CyclicChain,
    /// A configured [`ScanLimits`] cap was hit (decompression bomb,
    /// oversized directory, a file too large to read…).
    LimitExceeded,
    /// The file ends before a referenced structure.
    Truncated,
    /// A structure is malformed in some other way and salvage recovered
    /// nothing.
    Malformed,
    /// The bytes are neither an OLE compound file nor a ZIP archive.
    UnknownContainer,
    /// An OOXML archive with no `vbaProject.bin` part.
    NoVbaPart,
    /// The file could not be read from disk.
    Io,
    /// The scanner itself panicked on this input (a bug — the panic is
    /// contained and reported rather than aborting the batch).
    Panic,
    /// The per-document scan [`Budget`] (wall-clock deadline or fuel
    /// allowance) was exhausted mid-parse.
    Timeout,
    /// The worker *process* scanning this document died (abort, fatal
    /// signal, OOM kill) or missed its heartbeat deadline — failure modes
    /// `catch_unwind` cannot contain. Only produced by the [`isolate`]
    /// supervisor; a quarantined document is one that killed both its
    /// original worker and its fresh solo-retry worker.
    Fatal,
}

/// Every class with its stable label and the per-class failure counter
/// it increments (`scan.failed.<label>`), in declaration order: a new
/// class is added here alone. The order is also the class's code on the
/// isolate wire.
#[rustfmt::skip]
const FAILURE_CLASSES: [(FailureClass, &str, Counter); 10] = [
    (FailureClass::CyclicChain,      "cyclic-chain",      Counter::ScanFailedCyclicChain),
    (FailureClass::LimitExceeded,    "limit-exceeded",    Counter::ScanFailedLimitExceeded),
    (FailureClass::Truncated,        "truncated",         Counter::ScanFailedTruncated),
    (FailureClass::Malformed,        "malformed",         Counter::ScanFailedMalformed),
    (FailureClass::UnknownContainer, "unknown-container", Counter::ScanFailedUnknownContainer),
    (FailureClass::NoVbaPart,        "no-vba-part",       Counter::ScanFailedNoVbaPart),
    (FailureClass::Io,               "io-error",          Counter::ScanFailedIo),
    (FailureClass::Panic,            "panic",             Counter::ScanFailedPanic),
    (FailureClass::Timeout,          "timeout",           Counter::ScanFailedTimeout),
    (FailureClass::Fatal,            "fatal",             Counter::ScanFailedFatal),
];

impl FailureClass {
    /// Every class, in declaration order.
    pub const ALL: [FailureClass; 10] = {
        let mut all = [FailureClass::Fatal; 10];
        let mut i = 0;
        while i < all.len() {
            assert!(
                FAILURE_CLASSES[i].0 as usize == i,
                "FAILURE_CLASSES lists the classes in declaration order"
            );
            all[i] = FAILURE_CLASSES[i].0;
            i += 1;
        }
        all
    };

    /// Maps a detection error onto its batch-report class.
    pub fn from_error(e: &DetectError) -> Self {
        use vbadet_ole::OleError;
        use vbadet_ovba::OvbaError;
        use vbadet_zip::ZipError;
        match e {
            DetectError::UnknownContainer => FailureClass::UnknownContainer,
            DetectError::NoVbaPart => FailureClass::NoVbaPart,
            // A tripped memory ceiling travels in the same typed wrapper as
            // the other budget breaches, but it is a resource cap, not a
            // stall: report it with the other limit breaches.
            DetectError::Zip(ZipError::DeadlineExceeded(why))
            | DetectError::Ole(OleError::DeadlineExceeded(why))
            | DetectError::Ovba(OvbaError::DeadlineExceeded(why))
            | DetectError::Ovba(OvbaError::Ole(OleError::DeadlineExceeded(why))) => match why {
                BudgetExceeded::Memory => FailureClass::LimitExceeded,
                _ => FailureClass::Timeout,
            },
            DetectError::Zip(ZipError::LimitExceeded { .. })
            | DetectError::Ole(OleError::LimitExceeded { .. })
            | DetectError::Ovba(OvbaError::LimitExceeded { .. })
            | DetectError::Ovba(OvbaError::Ole(OleError::LimitExceeded { .. })) => {
                FailureClass::LimitExceeded
            }
            DetectError::Ole(OleError::ChainCycle { .. })
            | DetectError::Ovba(OvbaError::Ole(OleError::ChainCycle { .. })) => {
                FailureClass::CyclicChain
            }
            DetectError::Zip(ZipError::Truncated { .. })
            | DetectError::Ole(OleError::Truncated { .. })
            | DetectError::Ovba(OvbaError::TruncatedContainer)
            | DetectError::Ovba(OvbaError::Ole(OleError::Truncated { .. })) => {
                FailureClass::Truncated
            }
            _ => FailureClass::Malformed,
        }
    }

    /// Stable lowercase label used in reports, journals and CLI output.
    pub fn label(self) -> &'static str {
        FAILURE_CLASSES[self as usize].1
    }

    /// The per-class failure counter this class increments in a
    /// [`ScanMetrics`] snapshot.
    pub fn counter(self) -> Counter {
        FAILURE_CLASSES[self as usize].2
    }

    /// Inverse of [`label`](Self::label), used when replaying a journal.
    pub fn from_label(label: &str) -> Option<Self> {
        FAILURE_CLASSES
            .iter()
            .find(|&&(_, l, _)| l == label)
            .map(|&(class, ..)| class)
    }
}

/// A rung of the retired degradation ladder, which retried a failed
/// document under strict limits and then as a raw-bytes sweep.
///
/// No scan produces it any more: the extractor sweeps the raw bytes
/// itself. It survives so that journals written while the ladder existed
/// still replay their [`ScanOutcome::Recovered`] records on `--resume`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LadderRung {
    /// Re-parse under [`ScanLimits::strict`].
    Strict,
    /// Salvage-only sweep of the raw document bytes.
    Salvage,
}

impl LadderRung {
    /// Stable lowercase label used in reports and journals.
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::Strict => "strict",
            LadderRung::Salvage => "salvage",
        }
    }

    /// Inverse of [`label`](Self::label), used when replaying a journal.
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "strict" => LadderRung::Strict,
            "salvage" => LadderRung::Salvage,
            _ => return None,
        })
    }
}

/// Outcome of scanning one document.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanOutcome {
    /// Parsed cleanly; no macros present.
    Clean,
    /// Parsed cleanly; per-module verdicts attached.
    Macros(Vec<ModuleVerdict>),
    /// A container structure was damaged but a salvage sweep recovered
    /// modules; verdicts attached.
    Salvaged(Vec<ModuleVerdict>),
    /// The full parse failed but a lower rung of the retired degradation
    /// ladder produced a result (possibly an empty one). Only replayed from
    /// old journals; no scan produces it.
    Recovered {
        /// The rung that succeeded.
        rung: LadderRung,
        /// Per-module verdicts from the successful rung.
        verdicts: Vec<ModuleVerdict>,
    },
    /// The document could not be scanned.
    Failed {
        /// Broad class of the failure, for aggregation.
        class: FailureClass,
        /// Human-readable detail (the underlying error or panic message).
        detail: String,
    },
}

impl ScanOutcome {
    /// Whether any attached verdict flags obfuscation.
    pub fn flagged(&self) -> bool {
        match self {
            ScanOutcome::Macros(v)
            | ScanOutcome::Salvaged(v)
            | ScanOutcome::Recovered { verdicts: v, .. } => v.iter().any(|m| m.verdict.obfuscated),
            _ => false,
        }
    }
}

/// One scanned document inside a [`ScanReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRecord {
    /// Input path (or a synthetic label for in-memory scans).
    pub path: PathBuf,
    /// What happened.
    pub outcome: ScanOutcome,
}

/// Aggregate result of a batch scan. Every input appears exactly once in
/// [`records`](Self::records), whatever happened to it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanReport {
    /// Per-document outcomes, in input order.
    pub records: Vec<ScanRecord>,
    /// Set when checkpointing to a journal failed mid-batch. The scan
    /// itself runs to completion regardless — a full-disk journal must not
    /// take down the batch — but the journal is then unusable for resume.
    pub journal_error: Option<String>,
    /// Pipeline observability snapshot, present when the policy carried an
    /// enabled [`MetricsSink`]. The `counters` section is deterministic:
    /// identical for sequential and parallel runs over the same inputs.
    pub metrics: Option<ScanMetrics>,
    /// Set when the batch stopped early on a graceful drain request
    /// ([`interrupt`]): [`records`](Self::records) then holds a contiguous
    /// prefix of the inputs, every one of them journaled, and the
    /// remainder was never dispatched.
    pub interrupted: bool,
}

impl ScanReport {
    /// Total number of inputs processed.
    pub fn scanned(&self) -> usize {
        self.records.len()
    }

    /// Documents that parsed with no macros.
    pub fn clean(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, ScanOutcome::Clean))
            .count()
    }

    /// Documents with at least one module flagged as obfuscated.
    pub fn flagged(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.flagged()).count()
    }

    /// Documents whose macros came from the salvage scanner.
    pub fn salvaged(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, ScanOutcome::Salvaged(_)))
            .count()
    }

    /// Documents recovered by the retired degradation ladder (replayed
    /// from an old journal).
    pub fn recovered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, ScanOutcome::Recovered { .. }))
            .count()
    }

    /// Documents that could not be scanned at all.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, ScanOutcome::Failed { .. }))
            .count()
    }

    /// Failure count for one class.
    pub fn failed_with(&self, class: FailureClass) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(&r.outcome, ScanOutcome::Failed { class: c, .. } if *c == class))
            .count()
    }
}

/// How a batch scan spends its patience: per-document resource limits and
/// optional per-document budgets, plus how the batch runs (workers,
/// isolation, cache, metrics, drain).
#[derive(Debug, Clone, Default)]
pub struct ScanPolicy {
    /// Per-layer resource caps (see [`ScanLimits`]).
    pub limits: ScanLimits,
    /// Wall-clock allowance per document. `None` means no deadline.
    pub deadline_per_doc: Option<Duration>,
    /// Fuel allowance per document (≈ 1 unit per KiB of parsing work).
    /// `None` means unlimited. Fuel gives deterministic budget trips for
    /// tests; deadlines are the production knob.
    pub fuel_per_doc: Option<u64>,
    /// Scanning threads per batch. `0` and `1` both scan inline on the
    /// calling thread; `n > 1` fans documents out to `n` workers. Reports,
    /// journals and per-document outcomes are identical either way —
    /// parallelism is an implementation detail the output must never
    /// betray.
    pub jobs: usize,
    /// Observability handle. Disabled (and free) by default; when enabled,
    /// every layer records counters and stage timings into it, and the
    /// batch engines attach its snapshot to [`ScanReport::metrics`].
    pub metrics: MetricsSink,
    /// Per-document memory ceiling in bytes, enforced through the scan
    /// [`Budget`] against the scanning thread's live-allocation probe
    /// ([`crate::memguard::live_bytes`]), so a sibling worker's
    /// allocations never count against it. A breach surfaces as a typed
    /// [`FailureClass::LimitExceeded`] instead of an OOM kill. Only
    /// meaningful in a process with the tracking allocator installed
    /// (the CLI and isolate workers install it; without it the probe
    /// never moves and the ceiling never trips).
    pub max_scan_mem: Option<u64>,
    /// Whether this batch honors the process-global [`interrupt`] drain
    /// latch. Off by default so library embedders are never surprised by
    /// a flag they did not set.
    pub drain_on_interrupt: bool,
    /// When set, path batches run under the [`isolate`] supervisor:
    /// documents are scanned in child worker processes so aborts, stack
    /// overflows and OOM kills cost one worker, not the batch.
    pub isolate: Option<IsolateConfig>,
    /// Content-addressed result cache, consulted by every engine. `None`
    /// (the default) scans everything. Like `jobs` and `isolate`, the
    /// cache is an execution-shape knob: records and deterministic
    /// counters are identical with it off, cold or warm (`tests/cache.rs`
    /// proves it), so it does not participate in the policy fingerprint.
    pub cache: Option<Arc<ScanCache>>,
}

impl ScanPolicy {
    /// A policy with the given limits and everything else at defaults.
    pub fn with_limits(limits: ScanLimits) -> Self {
        ScanPolicy {
            limits,
            ..ScanPolicy::default()
        }
    }

    /// Sets a per-document wall-clock deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_per_doc = Some(Duration::from_millis(ms));
        self
    }

    /// Sets a per-document fuel allowance.
    pub fn fuel(mut self, units: u64) -> Self {
        self.fuel_per_doc = Some(units);
        self
    }

    /// Sets the number of scanning worker threads (see [`ScanPolicy::jobs`]).
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Attaches a metrics sink; pass [`MetricsSink::enabled`] to collect a
    /// [`ScanMetrics`] snapshot on the report.
    pub fn with_metrics(mut self, metrics: MetricsSink) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets a per-document memory ceiling in bytes (see
    /// [`ScanPolicy::max_scan_mem`]).
    pub fn max_scan_mem_bytes(mut self, bytes: u64) -> Self {
        self.max_scan_mem = Some(bytes);
        self
    }

    /// Opts this batch into the graceful-drain latch (see [`interrupt`]).
    pub fn drain_on_interrupt(mut self) -> Self {
        self.drain_on_interrupt = true;
        self
    }

    /// Runs path batches under the process-isolation supervisor.
    pub fn isolated(mut self, config: IsolateConfig) -> Self {
        self.isolate = Some(config);
        self
    }

    /// Attaches a content-addressed result cache (see [`ScanCache`]).
    pub fn with_cache(mut self, cache: Arc<ScanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Mints the per-document budget this policy prescribes, carrying the
    /// policy's metrics handle into every layer the budget traverses. The
    /// memory ceiling's baseline is what this thread has live *now*, so
    /// only the document's own allocations count against it: the budget
    /// must be minted on the thread that scans the document.
    fn budget(&self) -> Budget {
        Budget::new_guarded(
            self.deadline_per_doc,
            self.fuel_per_doc,
            self.max_scan_mem
                .map(|cap| (crate::memguard::live_bytes as fn() -> u64, cap)),
            self.metrics.clone(),
        )
    }

    /// This policy as one scanning thread runs it: under a sink of the
    /// thread's own ([`MetricsSink::for_thread`]), whose counters the
    /// thread takes after each document as that document's deltas. The
    /// sink counts when the report does or a cache stores each miss's
    /// deltas, and is disabled (free) otherwise.
    pub(crate) fn for_thread(&self) -> ScanPolicy {
        let mut policy = self.clone();
        if self.metrics.is_enabled() || self.cache.is_some() {
            policy.metrics = self.metrics.for_thread();
        }
        policy
    }

    /// Whether this batch should stop emitting documents now. Polls the
    /// injected drain site, so only the engine's single in-order seam
    /// calls it: the site's hit count is then one per emitted record.
    fn drain_now(&self) -> bool {
        interrupt::poll_injected();
        self.drain_latched()
    }

    /// Whether this batch honors a drain that has been requested. A pure
    /// read, for worker threads deciding whether to claim more input.
    fn drain_latched(&self) -> bool {
        self.drain_on_interrupt && interrupt::drain_requested()
    }
}

/// RAII suppression of the default panic hook's stderr output.
///
/// Panic containment via `catch_unwind` keeps the batch alive, but the
/// default hook still spews a message and backtrace to stderr for every
/// contained panic — unacceptable noise when a hostile corpus triggers
/// thousands. The guard flips a thread-local flag consulted by a
/// pass-through filter hook installed once per process; panics on other
/// threads (and on this thread outside the guard's lifetime) reach the
/// previous hook untouched, so nesting and concurrent batches are safe.
mod quiet {
    use std::cell::Cell;
    use std::panic;
    use std::sync::Once;

    thread_local! {
        static SUPPRESS: Cell<bool> = const { Cell::new(false) };
    }

    static INSTALL: Once = Once::new();

    fn install_filter() {
        INSTALL.call_once(|| {
            let previous = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if !SUPPRESS.with(Cell::get) {
                    previous(info);
                }
            }));
        });
    }

    pub(crate) struct QuietPanicGuard {
        prior: bool,
    }

    impl QuietPanicGuard {
        pub(crate) fn new() -> Self {
            install_filter();
            QuietPanicGuard {
                prior: SUPPRESS.with(|s| s.replace(true)),
            }
        }
    }

    impl Drop for QuietPanicGuard {
        fn drop(&mut self) {
            let prior = self.prior;
            SUPPRESS.with(|s| s.set(prior));
        }
    }
}

fn panic_detail(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Adds one decided record to the report's deterministic counters: the
/// counter deltas its scan returned, then its outcome. This is the only
/// place a document's counters reach the report. The batch engine calls
/// it exactly once per record, from its single in-order seam, so the sums
/// can never depend on worker scheduling; the resident service
/// ([`crate::serve`](mod@crate::serve)) calls it once per decided request.
pub(crate) fn record_outcome(sink: &MetricsSink, outcome: &ScanOutcome, deltas: &[(Counter, u64)]) {
    if let ScanOutcome::Failed {
        class: FailureClass::Fatal,
        ..
    } = outcome
    {
        // A fatal record means a worker process died mid-scan, taking an
        // unknowable amount of partially-recorded pipeline work with it.
        // Quarantined documents are therefore excluded from the
        // deterministic counters entirely (their count lives in the
        // isolate.quarantines histogram), which is what keeps the counters
        // section byte-identical to a clean run on the surviving inputs.
        return;
    }
    cache::replay_deltas(sink, deltas);
    sink.count(Counter::ScanDocs, 1);
    let verdicts = match outcome {
        ScanOutcome::Clean => {
            sink.count(Counter::ScanClean, 1);
            return;
        }
        ScanOutcome::Macros(v) => {
            sink.count(Counter::ScanMacros, 1);
            v
        }
        ScanOutcome::Salvaged(v) => {
            sink.count(Counter::ScanSalvaged, 1);
            v
        }
        ScanOutcome::Recovered { verdicts, .. } => {
            sink.count(Counter::ScanRecovered, 1);
            verdicts
        }
        ScanOutcome::Failed { class, .. } => {
            sink.count(Counter::ScanFailed, 1);
            sink.count(class.counter(), 1);
            return;
        }
    };
    sink.count(Counter::ScanModulesScored, verdicts.len() as u64);
    let flagged = verdicts.iter().filter(|m| m.verdict.obfuscated).count();
    sink.count(Counter::ScanModulesFlagged, flagged as u64);
}

/// Scans one in-memory document under a [`ScanPolicy`], containing any
/// panic from the parsing or scoring stack and enforcing the policy's
/// budgets.
///
/// This is the batch engine's unit of work: it never returns `Err` and
/// never unwinds — every abnormal path becomes [`ScanOutcome::Failed`].
pub fn scan_bytes_with_policy(
    detector: &Detector,
    bytes: &[u8],
    policy: &ScanPolicy,
) -> ScanOutcome {
    let _quiet = quiet::QuietPanicGuard::new();
    let _doc_timer = policy.metrics.time(Stage::DocNs);
    let _alloc_guard = AllocGuard::new(&policy.metrics);
    let budget = policy.budget();
    let result = catch_unwind(AssertUnwindSafe(|| {
        faultpoint!("scan::full-parse");
        scan_bytes_bounded(detector, bytes, &policy.limits, &budget)
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => ScanOutcome::Failed {
            class: FailureClass::Panic,
            detail: panic_detail(payload),
        },
    }
}

fn scan_bytes_bounded(
    detector: &Detector,
    bytes: &[u8],
    limits: &ScanLimits,
    budget: &Budget,
) -> ScanOutcome {
    match extract_macros_bounded(bytes, limits, budget) {
        Ok(extraction) => {
            if extraction.macros.is_empty() {
                return ScanOutcome::Clean;
            }
            let verdicts = extraction
                .macros
                .iter()
                .map(|m| ModuleVerdict {
                    module_name: m.module_name.clone(),
                    verdict: score_module(detector, budget.metrics(), &m.code),
                })
                .collect();
            match extraction.status {
                ExtractionStatus::Parsed => ScanOutcome::Macros(verdicts),
                ExtractionStatus::Salvaged => ScanOutcome::Salvaged(verdicts),
            }
        }
        Err(e) => ScanOutcome::Failed {
            class: FailureClass::from_error(&e),
            detail: e.to_string(),
        },
    }
}

/// Scans a batch of labelled in-memory documents under a [`ScanPolicy`].
/// Used by tests and the fuzz harness; [`scan_paths_with_policy`] is the
/// filesystem-facing equivalent. Each document gets its own fresh budget, so a batch of `n` documents under a
/// per-document deadline `d` completes in at most `n·d` plus per-document
/// bookkeeping. [`ScanPolicy::jobs`] fans the batch out exactly as for
/// path batches; the isolate supervisor and the cache apply to path
/// batches only.
pub fn scan_documents_with_policy<'a, I>(
    detector: &Detector,
    docs: I,
    policy: &ScanPolicy,
) -> ScanReport
where
    I: IntoIterator<Item = (&'a str, &'a [u8])>,
{
    let (labels, docs): (Vec<PathBuf>, Vec<&[u8]>) = docs
        .into_iter()
        .map(|(label, bytes)| (PathBuf::from(label), bytes))
        .unzip();
    let scan = |i: usize, _: &Path, p: &ScanPolicy| scan_bytes_with_policy(detector, docs[i], p);
    let exec = || InProcess(&scan, policy.for_thread());
    run_batch(labels, policy, None, None, exec)
}

/// Scans every path in order under a [`ScanPolicy`], never aborting:
/// unreadable files become [`FailureClass::Io`] records, oversized files
/// are rejected by `stat` before a byte is read, parser panics become
/// [`FailureClass::Panic`] records, and the batch always runs to the end.
pub fn scan_paths_with_policy<P: AsRef<Path>>(
    detector: &Detector,
    paths: &[P],
    policy: &ScanPolicy,
) -> ScanReport {
    scan_paths_journaled(detector, paths, policy, None, None)
}

/// Like [`scan_paths_with_policy`] but explicitly parallel: the batch fans
/// out to `jobs` worker threads (overriding [`ScanPolicy::jobs`]). The
/// report — per-file outcomes, ordering, counters — is identical to the
/// sequential engine's; only the wall clock changes.
pub fn scan_paths_parallel<P: AsRef<Path>>(
    detector: &Detector,
    paths: &[P],
    policy: &ScanPolicy,
    jobs: usize,
) -> ScanReport {
    let policy = ScanPolicy {
        jobs,
        ..policy.clone()
    };
    scan_paths_journaled(detector, paths, &policy, None, None)
}

/// Single-writer funnel for journal checkpoints. The journal latches its
/// first write error and then writes nothing — the scan itself must run
/// to completion on a full disk — and the error is surfaced exactly once
/// as [`ScanReport::journal_error`]. Shared with [`crate::serve`](mod@crate::serve), which
/// funnels its per-request audit records through one of these behind a
/// mutex.
pub(crate) struct JournalSink<'a> {
    journal: Option<&'a mut ScanJournal>,
    metrics: MetricsSink,
}

impl<'a> JournalSink<'a> {
    pub(crate) fn new(journal: Option<&'a mut ScanJournal>, metrics: MetricsSink) -> Self {
        JournalSink { journal, metrics }
    }

    /// The journal's latched write error, if any.
    pub(crate) fn error(&self) -> Option<String> {
        Some(self.journal.as_ref()?.status().err()?.to_string())
    }

    fn record(
        &mut self,
        counter: Counter,
        op: impl FnOnce(&mut ScanJournal) -> std::io::Result<()>,
    ) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if j.status().is_err() {
            return;
        }
        let _t = self.metrics.time(Stage::JournalWriteNs);
        let before = j.bytes_written();
        // A failure is latched in the journal and read back by `error`.
        let _ = op(j);
        self.metrics.count(counter, 1);
        self.metrics.count(
            Counter::JournalBytes,
            j.bytes_written().saturating_sub(before),
        );
    }

    fn begin(&mut self, key: &str) {
        self.record(Counter::JournalBeginRecords, |j| j.begin(key));
    }

    fn done(&mut self, record: &ScanRecord) {
        self.record(Counter::JournalDoneRecords, |j| j.done(record));
    }

    pub(crate) fn sync(&mut self) {
        self.record(Counter::JournalSyncs, |j| j.sync());
    }

    /// Checkpoints one decided record: `begin` + `done`, or `done` alone
    /// when `begun` says no `begin` line is due — the inline engine wrote
    /// it before scanning, or the outcome was copied from a resume replay.
    pub(crate) fn checkpoint(&mut self, record: &ScanRecord, begun: bool) {
        if !begun {
            self.begin(&record.path.display().to_string());
        }
        self.done(record);
    }
}

/// The full-featured batch entry point: policy-driven scanning with
/// optional crash-safe checkpointing and resume.
///
/// When `journal` is given, every document is bracketed by a `begin`
/// record and a `done` record (with its full outcome), each flushed
/// immediately; a scan killed mid-batch leaves a journal from which
/// [`replay_journal`](crate::journal::replay_journal) recovers everything
/// already decided. When `resume` is given, paths the replay says are
/// complete are *not* rescanned — their recorded outcomes are copied into
/// the report (and re-checkpointed into the new journal, so it is
/// self-contained) — while paths that were mid-scan at the crash are
/// re-attempted.
///
/// A journal write failure never aborts the batch: journaling stops, the
/// scan continues, and the error is surfaced in
/// [`ScanReport::journal_error`].
pub fn scan_paths_journaled<P: AsRef<Path>>(
    detector: &Detector,
    paths: &[P],
    policy: &ScanPolicy,
    journal: Option<&mut ScanJournal>,
    resume: Option<&JournalReplay>,
) -> ScanReport {
    let paths: Vec<PathBuf> = paths.iter().map(|p| p.as_ref().to_path_buf()).collect();
    if let Some(config) = &policy.isolate {
        return isolate::scan_paths_isolated(detector, paths, policy, config, journal, resume);
    }
    let bound = cache::BoundCache::bind(detector, policy);
    let scan = |_: usize, path: &Path, p: &ScanPolicy| scan_file(detector, path, p, bound.as_ref());
    let exec = || InProcess(&scan, policy.for_thread());
    run_batch(paths, policy, journal, resume, exec)
}

/// What the batch engine runs on each scanning thread: it scans one
/// claimed input at a time and hands back the outcome plus the counter
/// deltas the collector replays for it. Everything else — claiming,
/// resume, journaling, drain, ordering, counting — is the engine's. The
/// resident service drives the isolate executor one single-document
/// claim per request.
pub(crate) trait Executor {
    /// Announces a claim's fresh (not resume-replayed) inputs, once and in
    /// order, before the engine scans them in that order. An executor that
    /// can work ahead of [`scan`](Self::scan) starts them here.
    fn claim<'p>(&mut self, _fresh: impl Iterator<Item = (usize, &'p Path)>) {}

    /// Scans input `idx`, recorded under `path`.
    fn scan(&mut self, idx: usize, path: &Path) -> (ScanOutcome, cache::Deltas);

    /// End-of-batch teardown on the thread that owned the executor.
    fn finish(self)
    where
        Self: Sized,
    {
    }
}

/// The in-process executor: runs a scan function on the engine's own
/// thread under the thread's policy ([`ScanPolicy::for_thread`]), and
/// returns the counters it takes after each document as its deltas.
struct InProcess<F>(F, ScanPolicy);

impl<F: Fn(usize, &Path, &ScanPolicy) -> ScanOutcome> Executor for InProcess<F> {
    fn scan(&mut self, idx: usize, path: &Path) -> (ScanOutcome, cache::Deltas) {
        // Belt over suspenders: the scan stack contains panics itself, but
        // a scanning thread must outlive even a containment bug in it.
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.0)(idx, path, &self.1)))
            .unwrap_or_else(|payload| ScanOutcome::Failed {
                class: FailureClass::Panic,
                detail: panic_detail(payload),
            });
        (outcome, self.1.metrics.take_counters())
    }
}

/// One decided document on its way to the in-order seam.
struct Decided {
    record: ScanRecord,
    deltas: cache::Deltas,
    /// Copied from the resume replay rather than scanned, so it is
    /// journaled as `done` alone.
    resumed: bool,
}

/// Opens the claim of `paths`, the inputs from index `start` on: looks up
/// each one's resume outcome and announces the fresh ones to the
/// executor.
fn open_claim<'p, 'r, E: Executor>(
    exec: &mut E,
    start: usize,
    paths: &'p [PathBuf],
    lookup: impl Fn(&Path) -> Option<&'r ScanOutcome>,
) -> Vec<(usize, &'p PathBuf, Option<&'r ScanOutcome>)> {
    let claim: Vec<_> = (start..)
        .zip(paths)
        .map(|(idx, path)| (idx, path, lookup(path)))
        .collect();
    exec.claim(
        claim
            .iter()
            .filter(|(_, _, replayed)| replayed.is_none())
            .map(|&(idx, path, _)| (idx, path.as_path())),
    );
    claim
}

/// Decides input `idx`: the replayed outcome when the resume journal
/// completed it, otherwise the executor's scan.
fn decide<E: Executor>(
    exec: &mut E,
    idx: usize,
    path: PathBuf,
    replayed: Option<&ScanOutcome>,
) -> Decided {
    let (outcome, deltas) = match replayed {
        Some(outcome) => (outcome.clone(), Vec::new()),
        None => exec.scan(idx, &path),
    };
    Decided {
        record: ScanRecord { path, outcome },
        deltas,
        resumed: replayed.is_some(),
    }
}

/// The batch engine's single in-order seam: the one journal writer and
/// the one place records meet the counters and the report.
struct Collector<'a> {
    policy: &'a ScanPolicy,
    sink: JournalSink<'a>,
    records: Vec<ScanRecord>,
}

impl Collector<'_> {
    /// Emits the next record in input order, with its counters;
    /// [`record_outcome`] drops Fatal records, so a quarantined document
    /// leaves no trace in the counters.
    fn emit(&mut self, decided: Decided, begun: bool) {
        self.sink.checkpoint(&decided.record, begun);
        let Decided { record, deltas, .. } = decided;
        record_outcome(&self.policy.metrics, &record.outcome, &deltas);
        self.records.push(record);
    }

    fn finish(mut self, total: usize) -> ScanReport {
        self.sink.sync();
        // Only a drain stops a batch short: workers stop claiming on the
        // latch, and the in-order seam stops emitting on it.
        let interrupted = self.records.len() < total;
        debug_assert!(
            !interrupted || self.policy.drain_latched(),
            "batch engine lost a record"
        );
        ScanReport {
            records: self.records,
            journal_error: self.sink.error(),
            metrics: self.policy.metrics.snapshot(),
            interrupted,
        }
    }
}

/// The one batch engine behind every `scan_paths*` entry point and
/// [`scan_documents_with_policy`].
///
/// Inputs are claimed in runs of `(total / (jobs × 8)).clamp(1, 16)`:
/// large enough to amortize the claim (the cursor bump, and for the
/// isolate executor one write of the run's requests), small enough that a
/// tail of expensive documents still spreads across workers. Each claim's
/// fresh inputs go to [`Executor::claim`] before the first of them is
/// scanned.
///
/// With `jobs ≤ 1` the executor runs inline on the calling thread, and
/// each fresh document's `begin` line is journaled *before* the executor
/// decides it, so a crash mid-document replays as in flight. With `jobs > 1`, scoped
/// workers — one executor each — claim inputs from an atomic cursor and
/// send each claim's `(index, decided)` pairs through a bounded channel
/// as one `Vec`, so the collector wakes once per claim rather than once
/// per document; the calling thread holds early finishers in a reorder
/// buffer and emits strictly in input order. Either way:
///
/// - the report is identical whatever order workers finish in;
/// - the journal has exactly one writer, so a parallel journal is byte
///   for byte the inline one;
/// - the `scan::between-docs` faultpoint and the drain poll run once per
///   emitted record, at the same seam, so a kill or a drain leaves the
///   same journal under every engine shape.
fn run_batch<E: Executor>(
    paths: Vec<PathBuf>,
    policy: &ScanPolicy,
    journal: Option<&mut ScanJournal>,
    resume: Option<&JournalReplay>,
    executor: impl Fn() -> E + Sync,
) -> ScanReport {
    let _quiet = quiet::QuietPanicGuard::new();
    let total = paths.len();
    let jobs = policy.jobs.max(1).min(total.max(1));
    let claim = (total / (jobs * 8)).clamp(1, 16);
    // The journal keys a record by its path's display form, which is lossy
    // for a name that is not UTF-8: two such names can share a key, so
    // only a UTF-8 path is looked up, and any other is rescanned.
    let lookup = |path: &Path| resume.and_then(|r| r.outcome_for(path.to_str()?));
    let mut out = Collector {
        policy,
        sink: JournalSink::new(journal, policy.metrics.clone()),
        records: Vec::with_capacity(total),
    };

    if jobs <= 1 {
        let mut exec = executor();
        'claims: for start in (0..total).step_by(claim) {
            let end = (start + claim).min(total);
            for (idx, path, replayed) in open_claim(&mut exec, start, &paths[start..end], lookup) {
                if policy.drain_now() {
                    break 'claims;
                }
                faultpoint!("scan::between-docs");
                if replayed.is_none() {
                    out.sink.begin(&path.display().to_string());
                }
                let decided = decide(&mut exec, idx, path.clone(), replayed);
                out.emit(decided, true);
            }
        }
        exec.finish();
        return out.finish(total);
    }

    let cursor = AtomicUsize::new(0);
    thread::scope(|scope| {
        // Bounded: workers stall rather than pile unbounded completions
        // onto a collector slower than the scan (e.g. fsyncing a journal
        // on a loaded disk). Created inside the scope, so a panicking
        // collector drops the receiver before the join: every blocked
        // send fails and the workers exit instead of deadlocking.
        let (tx, rx) = mpsc::sync_channel::<Vec<(usize, Decided)>>(jobs * 2);
        for _ in 0..jobs {
            let tx = tx.clone();
            let (cursor, paths, executor, lookup) = (&cursor, &paths, &executor, &lookup);
            scope.spawn(move || {
                let _quiet = quiet::QuietPanicGuard::new();
                let mut exec = executor();
                let mut docs_scanned = 0u64;
                // Workers only read the drain latch; the collector alone
                // polls the injected drain site.
                while !policy.drain_latched() {
                    let start = cursor.fetch_add(claim, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let end = (start + claim).min(total);
                    // A drain stops the claim between documents, so it
                    // waits on one document per worker, not a claim.
                    let decided: Vec<_> = open_claim(&mut exec, start, &paths[start..end], lookup)
                        .into_iter()
                        .take_while(|_| !policy.drain_latched())
                        .map(|(idx, path, replayed)| {
                            (idx, decide(&mut exec, idx, path.clone(), replayed))
                        })
                        .collect();
                    docs_scanned += decided.len() as u64;
                    let sent = {
                        let _wait = policy.metrics.time(Stage::PoolSendWaitNs);
                        tx.send(decided)
                    };
                    if sent.is_err() {
                        // The collector is gone (drain or panic).
                        break;
                    }
                }
                policy.metrics.record(Stage::PoolWorkerDocs, docs_scanned);
                exec.finish();
            });
        }
        drop(tx);

        // Dropping `rx` on a drain unblocks every worker stalled on the
        // bounded channel. Whatever sits in the reorder buffer past the
        // emitted prefix was decided but never journaled — a resume
        // simply rescans it.
        let mut pending: BTreeMap<usize, Decided> = BTreeMap::new();
        'collect: for claimed in rx {
            pending.extend(claimed);
            policy
                .metrics
                .record(Stage::PoolReorderDepth, pending.len() as u64);
            while let Some(decided) = pending.remove(&out.records.len()) {
                if policy.drain_now() {
                    break 'collect;
                }
                faultpoint!("scan::between-docs");
                let begun = decided.resumed;
                out.emit(decided, begun);
            }
        }
    });
    out.finish(total)
}

/// Reads one document's bytes under the file-size cap: open the file,
/// check its size on the open handle so an oversized input is rejected
/// as [`FailureClass::LimitExceeded`] without its bytes ever being read
/// into memory, then read at most one byte past the cap through that
/// handle. A file that grows after the size check (log rotation, an
/// attacker racing the scanner) is caught on what was actually read, and
/// the read never holds more than `max_file_size + 1` bytes, however far
/// the file grew. `Err` carries the typed outcome for the batch record.
///
/// This is the *single* read in the per-document path — the cache digests
/// the returned buffer rather than re-reading, so caching adds zero I/O,
/// and the isolate supervisor, when it reads a document for the cache,
/// sends the worker this buffer. Crucially the grew-during-read check
/// runs *before* any caller digests the bytes: an over-cap buffer is
/// rejected here and can never be cached, looked up, or scanned.
pub(crate) fn read_file_checked(path: &Path, max_file_size: u64) -> Result<Vec<u8>, ScanOutcome> {
    use std::io::Read;
    let io_failure = |e: std::io::Error| ScanOutcome::Failed {
        class: FailureClass::Io,
        detail: e.to_string(),
    };
    let file = std::fs::File::open(path).map_err(io_failure)?;
    let size = file.metadata().map_err(io_failure)?.len();
    if size > max_file_size {
        return Err(ScanOutcome::Failed {
            class: FailureClass::LimitExceeded,
            detail: format!("file is {size} bytes, over the {max_file_size}-byte cap"),
        });
    }
    faultpoint!("scan::stat-read-gap");
    // One byte past the cap is enough to tell that the file outgrew it.
    let mut bytes = Vec::with_capacity(size as usize);
    file.take(max_file_size.saturating_add(1))
        .read_to_end(&mut bytes)
        .map_err(io_failure)?;
    if bytes.len() as u64 > max_file_size {
        return Err(ScanOutcome::Failed {
            class: FailureClass::LimitExceeded,
            detail: format!(
                "file grew during read: {} bytes read, over the {max_file_size}-byte cap",
                bytes.len(),
            ),
        });
    }
    Ok(bytes)
}

/// Scans one on-disk file: checked read, then [`scan_bytes_cached`].
pub(crate) fn scan_file(
    detector: &Detector,
    path: &Path,
    policy: &ScanPolicy,
    bound: Option<&cache::BoundCache>,
) -> ScanOutcome {
    match read_file_checked(path, policy.limits.max_file_size) {
        Ok(bytes) => scan_bytes_cached(detector, &bytes, policy, bound),
        Err(outcome) => outcome,
    }
}

/// Scans in-memory bytes, through the bound cache when there is one:
/// look their digest up, and on a miss scan them and store the counters
/// the scan took as the entry's deltas. `policy` is a scanning thread's
/// ([`ScanPolicy::for_thread`]), whose sink holds no counters on entry;
/// either way the document's deltas are left in it, for the caller to
/// take after the document. That keeps the deterministic counter section
/// identical across cache-off, cold and warm runs, and a miss's timings
/// land in the live histograms like any scan's. A concurrent scan of the
/// same bytes is waited for, not repeated (the cache's single-flight).
pub(crate) fn scan_bytes_cached(
    detector: &Detector,
    bytes: &[u8],
    policy: &ScanPolicy,
    bound: Option<&cache::BoundCache>,
) -> ScanOutcome {
    let Some(bound) = bound else {
        return scan_bytes_with_policy(detector, bytes, policy);
    };
    let (outcome, deltas) = match bound.lookup(cache::sha256(bytes), &policy.metrics) {
        cache::Lookup::Hit(outcome, deltas) => (outcome, deltas),
        cache::Lookup::Miss(lead) => {
            let outcome = scan_bytes_with_policy(detector, bytes, policy);
            let deltas = policy.metrics.take_counters();
            lead.insert(&outcome, &deltas, &policy.metrics);
            (outcome, deltas)
        }
    };
    cache::replay_deltas(&policy.metrics, &deltas);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use vbadet_corpus::CorpusSpec;
    use vbadet_ovba::VbaProjectBuilder;

    fn detector() -> Detector {
        Detector::train_on_corpus(
            &DetectorConfig::default(),
            &CorpusSpec::paper().scaled(0.05),
        )
    }

    fn doc_with_macro() -> Vec<u8> {
        let mut b = VbaProjectBuilder::new("P");
        b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
        b.build().unwrap()
    }

    #[test]
    fn batch_mixes_outcomes_without_aborting() {
        let det = detector();
        let with_macro = doc_with_macro();
        let mut clean_ole = vbadet_ole::OleBuilder::new();
        clean_ole
            .add_stream("WordDocument", b"no macros here")
            .unwrap();
        let clean = clean_ole.build();
        let docs: Vec<(&str, &[u8])> = vec![
            ("a.bin", &with_macro[..]),
            ("b.doc", &clean[..]),
            ("c.txt", b"not a document at all"),
            ("d.doc", &with_macro[..7]),
        ];
        let report = scan_documents_with_policy(&det, docs, &ScanPolicy::default());
        assert_eq!(report.scanned(), 4);
        assert!(matches!(report.records[0].outcome, ScanOutcome::Macros(_)));
        assert!(matches!(report.records[1].outcome, ScanOutcome::Clean));
        assert_eq!(report.failed(), 2);
        assert_eq!(report.failed_with(FailureClass::UnknownContainer), 2);
    }

    #[test]
    fn missing_file_is_an_io_failure_not_an_abort() {
        let det = detector();
        let report = scan_paths_with_policy(
            &det,
            &["/nonexistent/definitely-not-here.doc"],
            &ScanPolicy::default(),
        );
        assert_eq!(report.scanned(), 1);
        assert_eq!(report.failed_with(FailureClass::Io), 1);
    }

    #[test]
    fn oversized_file_is_rejected_by_stat_before_read() {
        let det = detector();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("vbadet-oversize-{}.bin", std::process::id()));
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        let mut policy = ScanPolicy::default();
        policy.limits.max_file_size = 1024;
        let report = scan_paths_with_policy(&det, &[&path], &policy);
        std::fs::remove_file(&path).ok();
        assert_eq!(report.failed_with(FailureClass::LimitExceeded), 1);
        match &report.records[0].outcome {
            ScanOutcome::Failed { detail, .. } => {
                assert!(
                    detail.contains("4096"),
                    "detail should carry the size: {detail}"
                )
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_fuel_reports_timeout() {
        let det = detector();
        let doc = doc_with_macro();
        let policy = ScanPolicy::default().fuel(1);
        let outcome = scan_bytes_with_policy(&det, &doc, &policy);
        assert!(
            matches!(
                outcome,
                ScanOutcome::Failed {
                    class: FailureClass::Timeout,
                    ..
                }
            ),
            "expected timeout, got {outcome:?}"
        );
    }

    #[test]
    fn default_policy_salvages_wreckage_the_parsers_reject() {
        // Bytes that sniff as a ZIP but have no central directory at all,
        // with an intact compressed VBA container buried inside: the ZIP
        // parse fails structurally, and the extractor's raw-bytes sweep
        // recovers the module without any policy switch.
        let det = detector();
        let mut doc = b"PK\x03\x04 this is not really an archive ".to_vec();
        doc.extend_from_slice(&vbadet_ovba::compress(
            b"Attribute VB_Name = \"M\"\r\nSub Work()\r\n    x = 1\r\nEnd Sub\r\n",
        ));
        match scan_bytes_with_policy(&det, &doc, &ScanPolicy::default()) {
            ScanOutcome::Salvaged(verdicts) => assert_eq!(verdicts.len(), 1),
            other => panic!("expected a salvaged module, got {other:?}"),
        }
    }

    #[test]
    fn panics_are_contained_per_document() {
        // No known panicking input exists (that's the point of the fuzz
        // harness), so exercise the containment path directly.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> ScanOutcome {
            panic!("synthetic parser bug");
        }))
        .err()
        .map(|payload| {
            let detail = panic_detail(payload);
            ScanOutcome::Failed {
                class: FailureClass::Panic,
                detail,
            }
        })
        .unwrap();
        assert!(matches!(
            outcome,
            ScanOutcome::Failed { class: FailureClass::Panic, ref detail }
                if detail == "synthetic parser bug"
        ));
    }

    #[test]
    fn quiet_guard_restores_suppression_state() {
        // Nested guards must not clobber each other's restore values.
        let _outer = quiet::QuietPanicGuard::new();
        {
            let _inner = quiet::QuietPanicGuard::new();
        }
        // Still suppressed under the outer guard: a contained panic here
        // must not reach the previous hook. (Observable only as the lack
        // of stderr noise; the assertion is that this does not unwind.)
        let _ = catch_unwind(|| panic!("suppressed"));
    }

    #[test]
    fn parallel_engine_matches_sequential_on_a_mixed_batch() {
        let det = detector();
        let dir = std::env::temp_dir().join(format!("vbadet-scan-par-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let with_macro = doc_with_macro();
        let mut clean_ole = vbadet_ole::OleBuilder::new();
        clean_ole
            .add_stream("WordDocument", b"no macros here")
            .unwrap();
        let clean = clean_ole.build();
        let contents: Vec<(&str, &[u8])> = vec![
            ("a.bin", &with_macro[..]),
            ("b.doc", &clean[..]),
            ("c.txt", b"not a document at all"),
            ("d.doc", &with_macro[..7]),
            ("e.bin", &with_macro[..]),
        ];
        let paths: Vec<PathBuf> = contents
            .iter()
            .map(|(name, bytes)| {
                let p = dir.join(name);
                std::fs::write(&p, bytes).unwrap();
                p
            })
            .collect();
        let sequential = scan_paths_with_policy(&det, &paths, &ScanPolicy::default());
        for jobs in [2, 3, 8] {
            let parallel = scan_paths_parallel(&det, &paths, &ScanPolicy::default(), jobs);
            assert_eq!(parallel.records, sequential.records, "jobs={jobs}");
            assert_eq!(parallel.journal_error, None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_zero_and_one_route_through_the_sequential_engine() {
        // Both select the in-thread path; observable only as identical
        // behavior on the degenerate inputs (no threads to deadlock on an
        // empty batch, one record for one path).
        let det = detector();
        for jobs in [0, 1, 4] {
            let report = scan_paths_parallel::<&str>(&det, &[], &ScanPolicy::default(), jobs);
            assert_eq!(report.scanned(), 0);
        }
        let report =
            scan_paths_parallel(&det, &["/nonexistent/nope.doc"], &ScanPolicy::default(), 8);
        assert_eq!(report.failed_with(FailureClass::Io), 1);
    }

    #[test]
    fn failure_labels_are_stable() {
        assert_eq!(FailureClass::CyclicChain.label(), "cyclic-chain");
        assert_eq!(FailureClass::LimitExceeded.label(), "limit-exceeded");
        assert_eq!(FailureClass::Panic.label(), "panic");
        assert_eq!(FailureClass::Timeout.label(), "timeout");
    }

    #[test]
    fn each_failure_counter_is_scan_failed_and_the_label() {
        for class in FailureClass::ALL {
            assert_eq!(
                class.counter().label(),
                format!("scan.failed.{}", class.label())
            );
        }
    }

    #[test]
    fn labels_round_trip() {
        for class in FailureClass::ALL {
            assert_eq!(FailureClass::from_label(class.label()), Some(class));
        }
        for rung in [LadderRung::Strict, LadderRung::Salvage] {
            assert_eq!(LadderRung::from_label(rung.label()), Some(rung));
        }
        assert_eq!(FailureClass::from_label("bogus"), None);
        assert_eq!(LadderRung::from_label("bogus"), None);
    }
}
