//! Std-only pipeline observability for the scanning stack.
//!
//! A production triage run is useless as a black box: when throughput
//! drops, the operator needs to know whether the time went into ZIP
//! inflation, OLE sector walks, MS-OVBA decompression, feature scoring or
//! journal fsyncs. This crate provides the three pieces that answer that
//! question without slowing the answer down:
//!
//! - [`MetricsSink`]: a cheap cloneable handle, either *disabled* (every
//!   operation is a null-pointer check and a return — the default, so
//!   unmetered scans pay nothing) or *enabled* (an `Arc` over fixed
//!   arrays of relaxed atomics shared by every clone). Each scanning
//!   thread records through a [`MetricsSink::for_thread`] sink: its
//!   counters stay its own until the caller takes them as one document's
//!   delta and adds them to the report in input order, while its timings
//!   land in the report's histograms at once.
//! - [`Counter`] / [`Stage`]: the closed vocabulary of what the scanning
//!   pipeline counts and times. Counters are **deterministic**: for a
//!   given input corpus and policy they must not depend on thread
//!   interleaving, which is what lets the batch engine promise identical
//!   counters for sequential and parallel runs. Stages are wall-clock
//!   timers and pool-shape histograms, and are explicitly *not* covered
//!   by that promise.
//! - [`ScanMetrics`]: an immutable snapshot of a sink, with a stable
//!   sorted JSON rendering ([`ScanMetrics::to_json`]), a parser over the
//!   shared [`json`] codec ([`ScanMetrics::from_json`]) and a
//!   human-readable table ([`ScanMetrics::render_text`]).
//! - [`json`]: the one JSON codec every wire and disk format of the
//!   scanner decodes with.
//!
//! Timers use log2-bucketed histograms: recording is one `Instant` pair
//! per *stage entry* (never per byte or per loop iteration) plus three
//! relaxed atomic adds, so instrumentation overhead stays within noise of
//! the scan itself. The hot parsing loops record only counters — single
//! relaxed `fetch_add`s at work already coarse enough to carry a
//! `Budget::charge`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod json;

use json::{json_str, Json};

/// Number of log2 buckets per histogram. Bucket `i` holds values `v` with
/// `floor(log2(v)) == i` (bucket 0 also holds `v == 0`); the last bucket
/// saturates. 40 buckets cover nanosecond timings up to ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Stable dotted name used in snapshots, JSON and reports.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Inverse of [`label`](Self::label); `None` for a label this
            /// build does not know.
            pub fn from_label(label: &str) -> Option<Self> {
                match label {
                    $($label => Some($name::$variant),)+
                    _ => None,
                }
            }

            /// Position in [`ALL`](Self::ALL): a compact code for this
            /// variant, stable within one build.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Deterministic work counters, one per pipeline event worth
    /// aggregating. For a fixed corpus and policy these must not depend
    /// on scheduling: the parallel batch engine asserts sequential ==
    /// parallel totals over exactly this set.
    Counter {
        /// ZIP central directories parsed.
        ZipParses => "zip.parses",
        /// ZIP central-directory entries decoded.
        ZipEntries => "zip.entries",
        /// ZIP members fully extracted and CRC-checked.
        ZipMembersRead => "zip.members_read",
        /// Deflate blocks decoded by the inflater.
        ZipInflateBlocks => "zip.inflate_blocks",
        /// Bytes produced by deflate decompression.
        ZipBytesInflated => "zip.bytes_inflated",
        /// Bytes copied out of stored (uncompressed) members.
        ZipBytesStored => "zip.bytes_stored",
        /// OLE compound files successfully parsed.
        OleParses => "ole.parses",
        /// Sectors split out of compound-file bodies.
        OleSectors => "ole.sectors",
        /// DIFAT sectors walked.
        OleDifatSectors => "ole.difat_sectors",
        /// FAT sectors decoded from the DIFAT.
        OleFatSectors => "ole.fat_sectors",
        /// Directory entries decoded.
        OleDirEntries => "ole.dir_entries",
        /// FAT/miniFAT chain walks performed.
        OleChainReads => "ole.chain_reads",
        /// Bytes materialized by chain walks.
        OleChainBytes => "ole.chain_bytes",
        /// MS-OVBA containers decompressed (strict decoder).
        OvbaDecompressCalls => "ovba.decompress_calls",
        /// MS-OVBA chunks decoded (strict + salvage decoders).
        OvbaChunks => "ovba.chunks",
        /// Bytes produced by strict MS-OVBA decompression.
        OvbaBytesOut => "ovba.bytes_out",
        /// Salvage sweeps over raw byte buffers.
        OvbaSalvageScans => "ovba.salvage_scans",
        /// Candidate container signatures the salvage sweep tried.
        OvbaSalvageCandidates => "ovba.salvage_candidates",
        /// Modules the salvage sweep actually recovered.
        OvbaSalvageModules => "ovba.salvage_modules",
        /// Documents entering the extraction layer, once per document
        /// whatever recovers its macros.
        ExtractDocs => "extract.docs",
        /// Extractions that parsed cleanly per MS-OVBA.
        ExtractParsed => "extract.parsed",
        /// Extractions recovered by the salvage scanner.
        ExtractSalvaged => "extract.salvaged",
        /// Documents decided by the batch engine.
        ScanDocs => "scan.docs",
        /// Documents that parsed with no macros.
        ScanClean => "scan.clean",
        /// Documents with cleanly parsed macros.
        ScanMacros => "scan.macros",
        /// Documents whose macros came from salvage.
        ScanSalvaged => "scan.salvaged",
        /// Documents recovered by the retired degradation ladder (replayed
        /// from an old journal; no scan produces them).
        ScanRecovered => "scan.recovered",
        /// Documents that could not be scanned.
        ScanFailed => "scan.failed",
        /// Modules scored by the detector.
        ScanModulesScored => "scan.modules_scored",
        /// Scored modules flagged as obfuscated.
        ScanModulesFlagged => "scan.modules_flagged",
        /// Failures classified as cyclic sector chains.
        ScanFailedCyclicChain => "scan.failed.cyclic-chain",
        /// Failures classified as resource-limit breaches.
        ScanFailedLimitExceeded => "scan.failed.limit-exceeded",
        /// Failures classified as truncated structures.
        ScanFailedTruncated => "scan.failed.truncated",
        /// Failures classified as otherwise malformed.
        ScanFailedMalformed => "scan.failed.malformed",
        /// Failures on unrecognized container bytes.
        ScanFailedUnknownContainer => "scan.failed.unknown-container",
        /// OOXML archives with no VBA part.
        ScanFailedNoVbaPart => "scan.failed.no-vba-part",
        /// Failures reading the file from disk.
        ScanFailedIo => "scan.failed.io-error",
        /// Contained scanner panics.
        ScanFailedPanic => "scan.failed.panic",
        /// Per-document budget trips.
        ScanFailedTimeout => "scan.failed.timeout",
        /// Fatal worker deaths (abort/signal/OOM) under process isolation.
        ScanFailedFatal => "scan.failed.fatal",
        /// Journal `begin` records written.
        JournalBeginRecords => "journal.begin_records",
        /// Journal `done` records written.
        JournalDoneRecords => "journal.done_records",
        /// Journal fsyncs issued.
        JournalSyncs => "journal.syncs",
        /// Journal bytes appended.
        JournalBytes => "journal.bytes",
    }
}

metric_enum! {
    /// Histogram-backed stages: wall-clock timers (`*_ns`, recorded once
    /// per stage entry) and worker-pool shape distributions. These vary
    /// run to run and are **excluded** from the sequential == parallel
    /// determinism guarantee.
    Stage {
        /// ZIP central-directory parse, per archive.
        ZipParseNs => "zip.parse_ns",
        /// Deflate inflation of one member.
        ZipInflateNs => "zip.inflate_ns",
        /// OLE compound-file parse, per container.
        OleParseNs => "ole.parse_ns",
        /// VBA project walk + module decompression, per project.
        OvbaProjectNs => "ovba.project_ns",
        /// Salvage sweep, per buffer or stream set.
        OvbaSalvageNs => "ovba.salvage_ns",
        /// Detector feature extraction, per scored module.
        FeaturesNs => "scan.features_ns",
        /// Classifier inference over extracted features, per scored module.
        PredictNs => "scan.predict_ns",
        /// Whole single-document scan, end to end.
        DocNs => "scan.doc_ns",
        /// Heap bytes allocated while scanning one document.
        AllocBytesPerDoc => "alloc.bytes_per_doc",
        /// Heap allocations performed while scanning one document.
        AllocCountPerDoc => "alloc.count_per_doc",
        /// One journal append (write + flush + periodic fsync).
        JournalWriteNs => "journal.write_ns",
        /// Worker blocked handing a claim's results to the collector, one
        /// sample per claim: a worker sends each claim's decided documents
        /// in one message.
        PoolSendWaitNs => "pool.send_wait_ns",
        /// Collector reorder-buffer depth in documents, sampled as each
        /// claim's results arrive.
        PoolReorderDepth => "pool.reorder_depth",
        /// Documents scanned per worker, recorded at worker exit.
        PoolWorkerDocs => "pool.worker_docs",
        /// Worker processes spawned by the isolation supervisor.
        IsolateSpawns => "isolate.spawns",
        /// Worker processes respawned after a death.
        IsolateRestarts => "isolate.restarts",
        /// Wedged workers SIGKILLed after a missed heartbeat deadline.
        IsolateHeartbeatKills => "isolate.heartbeat_kills",
        /// Documents quarantined after killing a fresh solo worker too.
        IsolateQuarantines => "isolate.quarantines",
        /// Documents scanned per worker process, recorded at worker exit.
        IsolateWorkerDocs => "isolate.worker_docs",
        /// Scan requests admitted past the service's admission queue.
        ServeAccepted => "serve.accepted",
        /// Scan requests shed with a typed `overloaded` rejection.
        ServeShed => "serve.shed",
        /// Circuit-breaker transitions into the open state.
        ServeBreakerOpens => "serve.breaker_opens",
        /// Scan requests rejected while the circuit breaker was open.
        ServeBreakerRejects => "serve.breaker_rejects",
        /// Graceful service drains completed.
        ServeDrains => "serve.drains",
        /// Admission queue depth, sampled as each request is enqueued.
        ServeQueueDepth => "serve.queue_depth",
        /// One service request, admission to terminal response.
        ServeRequestNs => "serve.request_ns",
        /// Scan-cache lookups that returned a stored outcome. Histogram
        /// side deliberately: hit/miss traffic depends on scheduling and
        /// cache state, so it must not perturb the deterministic counters.
        CacheHits => "cache.hits",
        /// Scan-cache lookups that found nothing usable.
        CacheMisses => "cache.misses",
        /// Outcomes inserted into the scan cache.
        CacheInserts => "cache.inserts",
        /// Entries evicted from the in-memory LRU tier.
        CacheEvictions => "cache.evictions",
        /// Approximate serialized size of each inserted entry, in bytes.
        CacheBytes => "cache.bytes",
        /// Model hot-reloads that swapped in a new detector generation.
        ReloadSuccess => "reload.success",
        /// Model hot-reloads rejected (unreadable or malformed model file).
        ReloadFailed => "reload.failed",
        /// One successful reload, file read to generation swap.
        ReloadNs => "reload.swap_ns",
    }
}

/// One live histogram: count, sum, log2 buckets. All relaxed atomics.
#[derive(Debug)]
struct Histogram {
    count: AtomicU64,
    total: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Bucket for a value: `floor(log2(v))`, saturating; 0 maps to bucket 0.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((63 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// One registry: counters of its own, and histograms that thread sinks
/// ([`MetricsSink::for_thread`]) share with the sink they came from.
#[derive(Debug)]
struct MetricsCore {
    counters: Vec<AtomicU64>,
    histograms: Arc<[Histogram]>,
}

/// A cheap handle to the metrics registry, threaded through the scan
/// alongside `ScanLimits`/`Budget`.
///
/// Clones share one registry. The default handle is *disabled*: every
/// recording call is a branch on a `None` and nothing else, so policies
/// that never ask for metrics pay nothing. All recording is `&self` and
/// thread-safe (relaxed atomics — totals are exact, cross-counter
/// consistency is not promised mid-scan).
#[derive(Debug, Clone, Default)]
pub struct MetricsSink(Option<Arc<MetricsCore>>);

impl MetricsSink {
    /// A handle that records nothing. Identical to `MetricsSink::default()`.
    pub fn disabled() -> Self {
        MetricsSink(None)
    }

    /// A fresh, empty, recording registry.
    pub fn enabled() -> Self {
        MetricsSink::disabled().for_thread()
    }

    /// A recording sink for one scanning thread: counters of its own,
    /// which the thread takes after each document
    /// ([`take_counters`](Self::take_counters)) as that document's
    /// delta, and timings that land in this sink's histograms as they
    /// happen. A thread sink of a disabled sink still counts, and its
    /// timings go into fresh histograms of its own.
    pub fn for_thread(&self) -> Self {
        let histograms = match &self.0 {
            Some(core) => Arc::clone(&core.histograms),
            None => Stage::ALL.iter().map(|_| Histogram::default()).collect(),
        };
        let counters = Counter::ALL.iter().map(|_| AtomicU64::new(0)).collect();
        MetricsSink(Some(Arc::new(MetricsCore {
            counters,
            histograms,
        })))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n` to a counter. A single relaxed `fetch_add` when enabled.
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if let Some(core) = &self.0 {
            core.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one raw value (a duration in ns, a queue depth…) into a
    /// stage histogram.
    #[inline]
    pub fn record(&self, stage: Stage, value: u64) {
        if let Some(core) = &self.0 {
            core.histograms[stage.index()].record(value);
        }
    }

    /// Starts a wall-clock timer for `stage`; the elapsed nanoseconds are
    /// recorded when the returned guard drops. Reads the clock (and clones
    /// the registry `Arc`) only when the sink is enabled, so the guard owns
    /// its target and never pins the sink it was minted from.
    #[inline]
    pub fn time(&self, stage: Stage) -> StageTimer {
        StageTimer {
            armed: self.0.clone().map(|core| (core, stage, Instant::now())),
        }
    }

    /// Resets every counter to zero and returns the non-zero values it
    /// held, in declaration order; empty for a disabled sink. A sink
    /// taken after each document yields that document's counter delta
    /// without a registry per document.
    pub fn take_counters(&self) -> Vec<(Counter, u64)> {
        let Some(core) = self.0.as_deref() else {
            return Vec::new();
        };
        Counter::ALL
            .iter()
            .filter_map(|&c| {
                let n = core.counters[c.index()].swap(0, Ordering::Relaxed);
                (n != 0).then_some((c, n))
            })
            .collect()
    }

    /// Snapshots the registry into an immutable [`ScanMetrics`], or `None`
    /// for a disabled sink. Zero counters and empty histograms are
    /// omitted.
    pub fn snapshot(&self) -> Option<ScanMetrics> {
        let core = self.0.as_deref()?;
        let mut counters = BTreeMap::new();
        for &c in Counter::ALL {
            let v = core.counters[c.index()].load(Ordering::Relaxed);
            if v != 0 {
                counters.insert(c.label().to_string(), v);
            }
        }
        let mut histograms = BTreeMap::new();
        for &s in Stage::ALL {
            let h = &core.histograms[s.index()];
            let count = h.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut buckets: Vec<u64> = h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            while buckets.last() == Some(&0) {
                buckets.pop();
            }
            histograms.insert(
                s.label().to_string(),
                HistogramSnapshot {
                    count,
                    total: h.total.load(Ordering::Relaxed),
                    buckets,
                },
            );
        }
        Some(ScanMetrics {
            counters,
            histograms,
        })
    }
}

/// RAII stage timer minted by [`MetricsSink::time`].
#[must_use = "the timer records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct StageTimer {
    armed: Option<(Arc<MetricsCore>, Stage, Instant)>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some((core, stage, start)) = self.armed.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            core.histograms[stage.index()].record(ns);
        }
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds for `*_ns` stages).
    pub total: u64,
    /// Log2 buckets, trailing zeros trimmed. `buckets[i]` counts values
    /// with `floor(log2(v)) == i` (bucket 0 also holds zeros).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Immutable metrics snapshot carried on a `ScanReport` and rendered by
/// the CLI. `counters` is the deterministic section — identical for
/// sequential and parallel runs over the same corpus and policy —
/// `histograms` holds wall-clock timings and pool-shape samples, which
/// are not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Deterministic event counters, keyed by [`Counter::label`].
    pub counters: BTreeMap<String, u64>,
    /// Timing and pool-shape histograms, keyed by [`Stage::label`].
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Format name carried by the snapshot's JSON rendering.
pub const METRICS_FORMAT: &str = "vbadet-scan-metrics";
/// Format version carried by the snapshot's JSON rendering.
pub const METRICS_VERSION: u64 = 2;

impl ScanMetrics {
    /// Value of one counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total nanoseconds recorded for one stage, 0 when absent.
    pub fn stage_total_ns(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.total)
    }

    /// The deterministic counters section alone, as a stable sorted JSON
    /// object. Two runs with equal counters produce byte-identical output,
    /// which is how the engine-equivalence tests compare snapshots.
    pub fn counters_json(&self) -> String {
        let body: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Full snapshot as a single JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"format\": {},\n  \"version\": {METRICS_VERSION},\n",
            json_str(METRICS_FORMAT)
        ));
        out.push_str("  \"counters\": {");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\n    {}: {v}", json_str(k)))
            .collect();
        out.push_str(&counters.join(","));
        if !counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        let histos: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                format!(
                    "\n    {}: {{\"count\": {}, \"total\": {}, \"buckets\": [{}]}}",
                    json_str(k),
                    h.count,
                    h.total,
                    buckets.join(",")
                )
            })
            .collect();
        out.push_str(&histos.join(","));
        if !histos.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a snapshot back from [`ScanMetrics::to_json`] output (or any
    /// whitespace-reformatted equivalent).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem, a wrong
    /// format/version header, or a malformed section.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut format = None;
        let mut version = None;
        let mut snapshot = ScanMetrics::default();
        let root = json::parse(text)?;
        for (key, value) in object(&root, "snapshot")? {
            match key.as_str() {
                "format" => format = value.as_str(),
                "version" => version = value.as_u64(),
                "counters" => {
                    snapshot.counters = section(value, "counters", |v| integer(v, "counter"))?;
                }
                "histograms" => snapshot.histograms = section(value, "histograms", histogram)?,
                other => return Err(format!("unknown top-level key {other:?}")),
            }
        }
        if format != Some(METRICS_FORMAT) {
            return Err("not a vbadet scan-metrics snapshot".to_string());
        }
        if version != Some(METRICS_VERSION) {
            return Err("unsupported scan-metrics version".to_string());
        }
        Ok(snapshot)
    }

    /// Human-readable table for `vbadet scan --stats`.
    pub fn render_text(&self) -> String {
        let mut out = String::from("scan metrics — counters (deterministic):\n");
        if self.counters.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name:<30} {value:>12}\n"));
        }
        out.push_str("scan metrics — stages (wall clock / pool shape):\n");
        if self.histograms.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for (name, h) in &self.histograms {
            if name.ends_with("_ns") {
                out.push_str(&format!(
                    "  {name:<30} {:>8} × mean {:>10}  total {}\n",
                    h.count,
                    fmt_ns(h.mean() as u64),
                    fmt_ns(h.total),
                ));
            } else {
                out.push_str(&format!(
                    "  {name:<30} {:>8} samples, mean {:.1}, max bucket 2^{}\n",
                    h.count,
                    h.mean(),
                    h.buckets.len().saturating_sub(1),
                ));
            }
        }
        out
    }
}

fn object<'a>(j: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    j.as_obj().ok_or_else(|| format!("{what} is not an object"))
}

fn integer(j: &Json, what: &str) -> Result<u64, String> {
    j.as_u64()
        .ok_or_else(|| format!("{what} is not a non-negative integer"))
}

/// One named section of the snapshot: an object whose values all decode
/// with `item`.
fn section<T>(
    j: &Json,
    what: &str,
    item: impl Fn(&Json) -> Result<T, String>,
) -> Result<BTreeMap<String, T>, String> {
    object(j, what)?
        .iter()
        .map(|(name, v)| Ok((name.clone(), item(v)?)))
        .collect()
}

fn histogram(j: &Json) -> Result<HistogramSnapshot, String> {
    let mut h = HistogramSnapshot::default();
    for (key, v) in object(j, "histogram")? {
        match key.as_str() {
            "count" => h.count = integer(v, "histogram count")?,
            "total" => h.total = integer(v, "histogram total")?,
            "buckets" => {
                h.buckets = v
                    .as_arr()
                    .ok_or("histogram buckets are not an array")?
                    .iter()
                    .map(|b| integer(b, "histogram bucket"))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown histogram key {other:?}")),
        }
    }
    Ok(h)
}

/// Compact duration formatting for the text report.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_and_snapshots_nothing() {
        let sink = MetricsSink::default();
        assert!(!sink.is_enabled());
        sink.count(Counter::ScanDocs, 5);
        sink.record(Stage::DocNs, 123);
        drop(sink.time(Stage::DocNs));
        assert!(sink.snapshot().is_none());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let sink = MetricsSink::enabled();
        let clone = sink.clone();
        sink.count(Counter::OleSectors, 3);
        clone.count(Counter::OleSectors, 4);
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.counter("ole.sectors"), 7);
        assert_eq!(
            snap.counter("zip.parses"),
            0,
            "untouched counters are omitted"
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn timer_records_one_sample() {
        let sink = MetricsSink::enabled();
        {
            let _t = sink.time(Stage::DocNs);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = sink.snapshot().unwrap();
        let h = &snap.histograms["scan.doc_ns"];
        assert_eq!(h.count, 1);
        assert!(h.total >= 1_000_000, "slept 1ms, recorded {}ns", h.total);
        assert_eq!(h.buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn json_round_trips() {
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 42);
        sink.count(Counter::ZipBytesInflated, u64::MAX / 2);
        sink.record(Stage::PoolReorderDepth, 0);
        sink.record(Stage::PoolReorderDepth, 7);
        sink.record(Stage::DocNs, 1_500_000);
        let snap = sink.snapshot().unwrap();
        let parsed = ScanMetrics::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.counters_json(), snap.counters_json());
    }

    #[test]
    fn from_json_tolerates_reformatting() {
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 3);
        sink.record(Stage::DocNs, 9);
        let snap = sink.snapshot().unwrap();
        let squeezed: String = snap.to_json().split_whitespace().collect();
        assert_eq!(ScanMetrics::from_json(&squeezed).unwrap(), snap);
        let padded = snap.to_json().replace(":", " : ").replace(",", " ,\n");
        assert_eq!(ScanMetrics::from_json(&padded).unwrap(), snap);
    }

    #[test]
    fn from_json_rejects_damage() {
        assert!(ScanMetrics::from_json("").is_err());
        assert!(
            ScanMetrics::from_json("{}").is_err(),
            "missing format header"
        );
        assert!(ScanMetrics::from_json(
            "{\"format\":\"vbadet-scan-metrics\",\"version\":99,\"counters\":{},\"histograms\":{}}"
        )
        .is_err());
        assert!(ScanMetrics::from_json(
            "{\"format\":\"other\",\"version\":1,\"counters\":{},\"histograms\":{}}"
        )
        .is_err());
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 3);
        let good = sink.snapshot().unwrap().to_json();
        assert!(ScanMetrics::from_json(&good[..good.len() / 2]).is_err());
        assert!(ScanMetrics::from_json(&format!("{good} trailing")).is_err());
        // Every comma dropped: still well-formed tokens, not JSON.
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 3);
        sink.count(Counter::ZipParses, 2);
        sink.record(Stage::DocNs, 9);
        let commaless = sink.snapshot().unwrap().to_json().replace(',', " ");
        assert!(
            ScanMetrics::from_json(&commaless).is_err(),
            "accepted {commaless}"
        );
        // Integers only: floats and negatives are damage, not counts.
        for bad in ["3.0", "-3", "1e2"] {
            let damaged = good.replace("3\n", &format!("{bad}\n"));
            assert_ne!(damaged, good);
            assert!(ScanMetrics::from_json(&damaged).is_err(), "{damaged}");
        }
    }

    #[test]
    fn to_json_bytes_are_golden() {
        // Literal bytes, not a round trip: saved `--metrics-json` files
        // and the serve `metrics` reply are this exact rendering.
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 42);
        sink.count(Counter::ZipBytesInflated, u64::MAX / 2);
        sink.record(Stage::PoolReorderDepth, 0);
        sink.record(Stage::PoolReorderDepth, 7);
        sink.record(Stage::DocNs, 1_500_000);
        assert_eq!(
            sink.snapshot().unwrap().to_json(),
            r#"{
  "format": "vbadet-scan-metrics",
  "version": 2,
  "counters": {
    "scan.docs": 42,
    "zip.bytes_inflated": 9223372036854775807
  },
  "histograms": {
    "pool.reorder_depth": {"count": 2, "total": 7, "buckets": [1,0,1]},
    "scan.doc_ns": {"count": 1, "total": 1500000, "buckets": [0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]}
  }
}
"#
        );
        assert_eq!(
            MetricsSink::enabled().snapshot().unwrap().to_json(),
            "{\n  \"format\": \"vbadet-scan-metrics\",\n  \"version\": 2,\n  \
             \"counters\": {},\n  \"histograms\": {}\n}\n"
        );
    }

    #[test]
    fn counters_json_is_sorted_and_stable() {
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 1);
        sink.count(Counter::ZipParses, 2);
        sink.count(Counter::ExtractDocs, 3);
        let json = sink.snapshot().unwrap().counters_json();
        assert_eq!(
            json,
            "{\"extract.docs\":3,\"scan.docs\":1,\"zip.parses\":2}"
        );
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &c in Counter::ALL {
            assert!(
                seen.insert(c.label()),
                "duplicate counter label {}",
                c.label()
            );
            assert_eq!(Counter::from_label(c.label()), Some(c));
        }
        let mut seen = std::collections::HashSet::new();
        for &s in Stage::ALL {
            assert!(
                seen.insert(s.label()),
                "duplicate stage label {}",
                s.label()
            );
            assert_eq!(Stage::from_label(s.label()), Some(s));
        }
        assert_eq!(Counter::from_label("scan.unheard_of"), None);
    }

    #[test]
    fn take_counters_returns_nonzero_counters_in_declaration_order_and_resets() {
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 1);
        sink.count(Counter::ZipParses, 2);
        sink.record(Stage::DocNs, 7);
        assert_eq!(
            sink.take_counters(),
            vec![(Counter::ZipParses, 2), (Counter::ScanDocs, 1)]
        );
        assert_eq!(sink.take_counters(), Vec::new());
        sink.count(Counter::ScanDocs, 4);
        assert_eq!(sink.take_counters(), vec![(Counter::ScanDocs, 4)]);
        // Histograms are not counters: taking leaves them alone.
        assert_eq!(sink.snapshot().unwrap().histograms["scan.doc_ns"].count, 1);
        assert_eq!(MetricsSink::disabled().take_counters(), Vec::new());
    }

    #[test]
    fn a_thread_sink_counts_alone_and_times_into_the_shared_histograms() {
        let report = MetricsSink::enabled();
        let thread = report.for_thread();
        thread.count(Counter::ScanDocs, 3);
        thread.record(Stage::DocNs, 7);
        drop(thread.time(Stage::FeaturesNs));
        let snap = report.snapshot().unwrap();
        assert!(snap.counters.is_empty());
        assert_eq!(snap.histograms["scan.doc_ns"].count, 1);
        assert_eq!(snap.histograms["scan.features_ns"].count, 1);
        assert_eq!(thread.take_counters(), vec![(Counter::ScanDocs, 3)]);

        let alone = MetricsSink::disabled().for_thread();
        alone.count(Counter::ScanDocs, 1);
        assert_eq!(alone.take_counters(), vec![(Counter::ScanDocs, 1)]);
    }

    #[test]
    fn render_text_mentions_every_recorded_metric() {
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 2);
        sink.record(Stage::DocNs, 5_000);
        sink.record(Stage::PoolReorderDepth, 3);
        let text = sink.snapshot().unwrap().render_text();
        assert!(text.contains("scan.docs"));
        assert!(text.contains("scan.doc_ns"));
        assert!(text.contains("pool.reorder_depth"));
    }

    #[test]
    fn sink_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsSink>();
    }
}
