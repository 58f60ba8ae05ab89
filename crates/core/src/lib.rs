//! Obfuscated VBA macro detection — the paper's end-to-end pipeline.
//!
//! Reproduction of *"Obfuscated VBA Macro Detection Using Machine
//! Learning"* (Kim, Hong, Oh, Lee — DSN 2018): document container parsing,
//! VBA macro extraction, the paper's preprocessing (§IV.B), the V1–V15 /
//! J1–J20 feature sets, and five classifiers evaluated with 10-fold
//! cross-validation.
//!
//! The crate stitches the substrates together:
//! [`extract`] (documents → macro sources), [`detector`] (the
//! train-then-scan public API) and [`experiment`] (drivers that regenerate
//! every table and figure of the paper's evaluation section).
//!
//! # Quickstart
//!
//! ```
//! use vbadet::{Detector, DetectorConfig};
//! use vbadet_corpus::CorpusSpec;
//!
//! // Train on a (scaled-down) synthetic corpus...
//! let spec = CorpusSpec::paper().scaled(0.03);
//! let detector = Detector::train_on_corpus(&DetectorConfig::default(), &spec);
//!
//! // ...then score macro source code.
//! let plain = "Sub Report()\r\n    Range(\"A1\").Value = 42\r\nEnd Sub\r\n";
//! assert!(!detector.is_obfuscated(plain));
//! ```

pub mod anti_analysis_scan;
pub mod detector;
mod error;
pub mod experiment;
pub mod extract;
pub mod journal;
mod jsonl;
pub mod limits;
pub mod memguard;
pub mod preprocess;
pub mod scan;
pub mod serve;
pub mod signature;
pub mod threshold;

pub use anti_analysis_scan::{scan_anti_analysis, AntiAnalysisIndicator};
pub use detector::{
    ClassifierKind, Detector, DetectorConfig, ModuleVerdict, ScoreScratch, Verdict,
};
pub use error::DetectError;
pub use extract::{
    extract_macros, extract_macros_bounded, ContainerKind, ExtractedMacro, Extraction,
    ExtractionStatus,
};
pub use journal::{replay_journal, JournalReplay, ScanJournal};
pub use limits::ScanLimits;
pub use memguard::TrackingAllocator;
pub use preprocess::preprocess_macros;
pub use scan::isolate::{worker_main, IsolateConfig};
pub use scan::{
    scan_bytes_with_policy, scan_documents_with_policy, scan_paths_journaled, scan_paths_parallel,
    scan_paths_with_policy, FailureClass, LadderRung, ScanCache, ScanOutcome, ScanPolicy,
    ScanRecord, ScanReport,
};
pub use serve::{request_reload, reset_reload_requests};
pub use serve::{serve, Listener, ServeConfig, ServeSummary};
pub use signature::SignatureScanner;
pub use threshold::{tune_threshold, OperatingPoint, ThresholdPolicy};
pub use vbadet_faultpoint::{Budget, BudgetExceeded};
pub use vbadet_metrics::json;
pub use vbadet_metrics::{Counter, HistogramSnapshot, MetricsSink, ScanMetrics, Stage};
