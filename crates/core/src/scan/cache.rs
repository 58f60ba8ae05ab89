//! Content-addressed scan-result cache.
//!
//! A production attachment scanner sees the same document bytes over and
//! over — mail bursts fan one attachment out to thousands of inboxes,
//! shared templates circulate for years. Re-running container parsing +
//! feature extraction + inference on bytes that were fully adjudicated
//! minutes ago wastes the hot path. This module caches *decided outcomes*,
//! keyed by content, and serves them back byte-identically.
//!
//! # Key derivation
//!
//! An entry is addressed by the triple
//!
//! ```text
//! (SHA-256(document bytes), FNV-1a-64(detector.save()), FNV-1a-64(policy fields))
//! ```
//!
//! plus the on-disk schema version. The *content* digest is SHA-256 — the
//! document is attacker-controlled, and a collidable hash (FNV, CRC) would
//! let a hostile document alias a clean one and be served its verdict. The
//! detector and policy fingerprints only guard against *operator* drift
//! (retrained model, changed limits), not an adversary, so the cheap FNV
//! is enough there. The policy fingerprint covers exactly the fields that
//! can change a scan outcome — the same set the isolation supervisor ships
//! to its workers in its hello frame — so execution-shape knobs (`jobs`,
//! `isolate`, metrics, the cache itself) never fragment the key space.
//!
//! Any fingerprint mismatch is a clean miss: a retrained detector or a
//! changed limit makes every old entry invisible (never a stale verdict),
//! while the entries stay on disk for runs that still match.
//!
//! # Tiers
//!
//! - **In-memory**: a 16-way sharded LRU, `Mutex` per shard, suitable for
//!   the resident service where the worker pool hits it concurrently.
//! - **On-disk** (optional): append-only JSONL segment files under a cache
//!   directory, one new segment per writer run, with the same crash-safety
//!   discipline as the scan journal — a torn tail is detected and dropped,
//!   never misparsed. Each line additionally carries an FNV-1a checksum
//!   over its canonical content, so a *bitflipped* (not just torn) entry
//!   is skipped instead of served as a wrong verdict.
//!
//! # Determinism contract
//!
//! The deterministic counter section of [`ScanMetrics`] must be identical
//! with the cache off, cold, and warm. Misses therefore scan under a
//! fresh sink and store the resulting counter *deltas* with the outcome;
//! hits replay those deltas into the live sink, so the totals come out as
//! if every document had been scanned. Cache traffic itself (hits, misses,
//! inserts, evictions, entry bytes) is recorded on the histogram side,
//! which is exempt from the determinism promise.
//!
//! Outcomes that are not pure functions of `(bytes, detector, policy)`
//! are never cached: `Io` (path-specific), `Timeout` (wall-clock and
//! load dependent), `Panic` and `Fatal` (environmental).

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::detector::Detector;
use crate::journal::{decode_outcome, outcome_json};
use vbadet_faultpoint::faultpoint;
use vbadet_metrics::json::{self, hex, json_str, unhex, Json};
use vbadet_metrics::{Counter, MetricsSink, Stage};

use super::{FailureClass, ScanOutcome, ScanPolicy};

/// On-disk store format name, carried in every segment header.
pub const CACHE_FORMAT: &str = "vbadet-scan-cache";
/// On-disk schema version. Bumping it orphans (but does not delete) every
/// existing segment: the loader skips segments with a different version.
pub const CACHE_VERSION: u64 = 1;

/// Number of in-memory LRU shards. A power of two so shard selection is a
/// mask on the first digest byte.
const SHARDS: usize = 16;

/// fsync the open segment every this many appended entries (same period
/// as the journal). Entries between syncs survive a process crash but not
/// a power cut; the torn-tail loader handles either.
const FSYNC_PERIOD: u64 = 64;

/// Hard cap on one serialized entry line. Anything longer on disk is
/// treated as damage; anything longer at insert time is simply not
/// persisted (the in-memory tier still takes it).
const MAX_ENTRY_LINE_BYTES: usize = 1 << 20;

/// SHA-256 of a document's bytes. The content half of a cache key.
pub type ContentDigest = [u8; 32];

/// Full cache key: content digest + detector and policy fingerprints.
/// The schema version is implicit (it gates segment loading).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    digest: ContentDigest,
    detector_fp: u64,
    policy_fp: u64,
}

/// One document's contribution to the deterministic counters, as
/// non-zero `(counter, value)` pairs captured from a fresh-sink scan — a
/// cache miss here, or an isolate worker's result frame — and replayed
/// into the live sink with [`replay_deltas`]. Cache entries sort theirs
/// by counter label at insert so the canonical serialization is stable.
pub(crate) type Deltas = Vec<(Counter, u64)>;

/// One cached decision.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    outcome: ScanOutcome,
    deltas: Deltas,
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), hand-rolled over std only.
//
// The workspace deliberately has no external crypto dependency; 70 lines
// of the reference compression function beat pulling one in. Correctness
// is pinned by the FIPS test vectors in this module's tests.
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `bytes`.
pub fn sha256(bytes: &[u8]) -> ContentDigest {
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    let mut block = [0u8; 64];
    let mut chunks = bytes.chunks_exact(64);
    for chunk in &mut chunks {
        block.copy_from_slice(chunk);
        sha256_compress(&mut state, &block);
    }
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let rest = chunks.remainder();
    block[..rest.len()].copy_from_slice(rest);
    block[rest.len()] = 0x80;
    block[rest.len() + 1..].fill(0);
    if rest.len() + 1 + 8 > 64 {
        sha256_compress(&mut state, &block);
        block.fill(0);
    }
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    sha256_compress(&mut state, &block);
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn sha256_compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4-byte slice"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(SHA256_K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// FNV-1a-64. Used for the detector/policy fingerprints and the per-line
/// damage checksum — places where the input is not attacker-controlled or
/// where corruption, not collision-forging, is the threat.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fingerprint of a trained detector: FNV over its canonical `save()`
/// text, which covers the feature mode, scaler, weights and seed — any
/// retrain changes it.
pub(crate) fn detector_fingerprint(detector: &Detector) -> u64 {
    fnv1a64(detector.save().as_bytes())
}

/// Fingerprint of the outcome-affecting policy fields. Mirrors the field
/// set the isolation supervisor serializes into its hello frame: limits,
/// budgets and the ladder switch change outcomes; `jobs`, `isolate`,
/// metrics, drain and the cache handle itself do not.
pub(crate) fn policy_fingerprint(policy: &ScanPolicy) -> u64 {
    let l = &policy.limits;
    let canon = format!(
        "deadline_ms={:?} fuel={:?} ladder={} max_scan_mem={:?} \
         zip=({},{}) ole=({},{},{},{}) ovba=({},{},{}) max_file_size={}",
        policy.deadline_per_doc.map(|d| d.as_millis()),
        policy.fuel_per_doc,
        policy.ladder,
        policy.max_scan_mem,
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
    );
    fnv1a64(canon.as_bytes())
}

/// Whether an outcome is a pure function of `(bytes, detector, policy)`
/// and may therefore be cached. See the module docs for the exclusions.
fn cacheable(outcome: &ScanOutcome) -> bool {
    match outcome {
        ScanOutcome::Clean
        | ScanOutcome::Macros(_)
        | ScanOutcome::Salvaged(_)
        | ScanOutcome::Recovered { .. } => true,
        ScanOutcome::Failed { class, .. } => !matches!(
            class,
            FailureClass::Io | FailureClass::Panic | FailureClass::Timeout | FailureClass::Fatal
        ),
    }
}

// ---------------------------------------------------------------------------
// In-memory tier: sharded stamp-LRU.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Key, (Entry, u64)>,
    clock: u64,
}

impl Shard {
    fn get(&mut self, key: &Key) -> Option<Entry> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(entry, stamp)| {
            *stamp = clock;
            entry.clone()
        })
    }

    /// Inserts and returns how many entries were evicted to make room.
    fn put(&mut self, key: Key, entry: Entry, capacity: usize) -> u64 {
        self.clock += 1;
        self.map.insert(key, (entry, self.clock));
        let mut evicted = 0;
        while self.map.len() > capacity {
            // O(n) min-stamp scan: capacity per shard is small (total/16)
            // and eviction only runs once the shard is full, so this stays
            // off the hot path. A linked LRU is not worth the unsafe.
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

// ---------------------------------------------------------------------------
// On-disk tier: append-only JSONL segments.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct DiskStore {
    file: fs::File,
    appended: u64,
    write_error: bool,
}

/// Canonical serialization of one entry line. Doubles as the checksum
/// input (minus the `sum` field itself): the loader re-derives this exact
/// string from the parsed fields and compares checksums, so any bitflip —
/// in the digest, the outcome, the deltas, or the checksum — mismatches.
fn encode_entry_body(key: &Key, entry: &Entry) -> String {
    format!(
        "\"digest\":{},\"detector\":{},\"policy\":{},\"outcome\":{},\"counters\":{}",
        json_str(&hex(&key.digest)),
        json_str(&format!("{:016x}", key.detector_fp)),
        json_str(&format!("{:016x}", key.policy_fp)),
        outcome_json(&entry.outcome),
        deltas_json(&entry.deltas),
    )
}

fn encode_entry_line(key: &Key, entry: &Entry) -> String {
    let body = encode_entry_body(key, entry);
    format!(
        "{{{body},\"sum\":{}}}\n",
        json_str(&format!("{:016x}", fnv1a64(body.as_bytes())))
    )
}

/// Decodes one parsed entry line back into `(Key, Entry)`, verifying the
/// checksum by re-deriving the canonical body. `Err` is a human-readable
/// damage description.
fn decode_entry(j: &Json) -> Result<(Key, Entry), String> {
    let digest = j
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|s| ContentDigest::try_from(unhex(s).ok()?).ok())
        .ok_or("entry without a 64-hex-digit digest")?;
    let fp = |field: &str| -> Result<u64, String> {
        j.get(field)
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or(format!("entry without a hex {field} fingerprint"))
    };
    let key = Key {
        digest,
        detector_fp: fp("detector")?,
        policy_fp: fp("policy")?,
    };
    let outcome = decode_outcome(j.get("outcome").ok_or("entry without an outcome")?)?;
    let deltas = decode_deltas(j)?;
    let entry = Entry { outcome, deltas };
    let sum = j
        .get("sum")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("entry without a checksum")?;
    let body = encode_entry_body(&key, &entry);
    if fnv1a64(body.as_bytes()) != sum {
        return Err("entry checksum mismatch (bitflip or tamper)".to_string());
    }
    Ok((key, entry))
}

fn segment_header() -> String {
    format!(
        "{{\"format\":{},\"version\":{CACHE_VERSION}}}\n",
        json_str(CACHE_FORMAT)
    )
}

/// Lists the segment files in `dir`, sorted by name (which sorts by index
/// thanks to the zero-padded naming scheme).
fn segment_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("seg-") && name.ends_with(".jsonl") {
            segments.push(path);
        }
    }
    segments.sort();
    Ok(segments)
}

fn next_segment_path(dir: &Path, existing: &[PathBuf]) -> PathBuf {
    let max = existing
        .iter()
        .filter_map(|p| p.file_stem()?.to_str()?.strip_prefix("seg-")?.parse().ok())
        .max()
        .unwrap_or(0u64);
    dir.join(format!("seg-{:06}.jsonl", max + 1))
}

// ---------------------------------------------------------------------------
// The cache proper.
// ---------------------------------------------------------------------------

/// A content-addressed scan-result cache. See the module docs.
///
/// Attach one to a batch via [`ScanPolicy::with_cache`](super::ScanPolicy)
/// or to the service by constructing its policy with one; every engine
/// (sequential, parallel, isolated, serve) consults it identically.
#[derive(Debug)]
pub struct ScanCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard capacity (total capacity / SHARDS, at least 1).
    shard_capacity: usize,
    disk: Option<Mutex<DiskStore>>,
    load_warnings: Vec<String>,
}

impl ScanCache {
    fn fresh_shards() -> Vec<Mutex<Shard>> {
        (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect()
    }

    /// A purely in-memory cache holding at most ~`capacity` entries
    /// (rounded up to a multiple of the shard count). For the resident
    /// service, where the process outlives many requests.
    pub fn in_memory(capacity: usize) -> ScanCache {
        ScanCache {
            shards: Self::fresh_shards(),
            shard_capacity: (capacity / SHARDS).max(1),
            disk: None,
            load_warnings: Vec::new(),
        }
    }

    /// A cache backed by an on-disk segment directory, for batch runs that
    /// want hits across process restarts. Existing segments are loaded
    /// into the in-memory tier (damage is tolerated and reported via
    /// [`load_warnings`](Self::load_warnings)); new inserts are appended
    /// to a fresh segment.
    ///
    /// # Errors
    ///
    /// Only on environmental failure: the directory cannot be created,
    /// listed, or a fresh segment cannot be opened for append. Damaged
    /// *content* never errors — that is a warning plus a smaller cache.
    pub fn persistent<P: AsRef<Path>>(dir: P, capacity: usize) -> io::Result<ScanCache> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut cache = ScanCache {
            shards: Self::fresh_shards(),
            shard_capacity: (capacity / SHARDS).max(1),
            disk: None,
            load_warnings: Vec::new(),
        };
        let segments = segment_paths(dir)?;
        for segment in &segments {
            cache.load_segment(segment);
        }
        let fresh = next_segment_path(dir, &segments);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&fresh)?;
        file.write_all(segment_header().as_bytes())?;
        file.sync_data()?;
        cache.disk = Some(Mutex::new(DiskStore {
            file,
            appended: 0,
            write_error: false,
        }));
        Ok(cache)
    }

    /// Loads one segment into the in-memory tier. Total: every class of
    /// damage degrades to a warning, never an error or a wrong entry —
    /// a bad header skips the segment, an unparseable or oversized line
    /// stops the segment there (torn tail), a parseable line whose
    /// checksum mismatches is skipped and the rest of the segment kept.
    fn load_segment(&mut self, path: &Path) {
        let name = path.display();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                self.load_warnings.push(format!("{name}: unreadable: {e}"));
                return;
            }
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.split_inclusive('\n');
        let header_ok = lines.next().is_some_and(|line| {
            line.ends_with('\n')
                && json::parse(line.trim_end()).is_ok_and(|j| {
                    j.get("format").and_then(Json::as_str) == Some(CACHE_FORMAT)
                        && j.get("version").and_then(Json::as_u64) == Some(CACHE_VERSION)
                })
        });
        if !header_ok {
            self.load_warnings.push(format!(
                "{name}: missing or foreign header, segment skipped"
            ));
            return;
        }
        for (lineno, line) in lines.enumerate() {
            let lineno = lineno + 2;
            if !line.ends_with('\n') {
                self.load_warnings
                    .push(format!("{name}:{lineno}: torn tail dropped"));
                return;
            }
            if line.len() > MAX_ENTRY_LINE_BYTES {
                self.load_warnings.push(format!(
                    "{name}:{lineno}: {}-byte line over the {MAX_ENTRY_LINE_BYTES}-byte cap, \
                     rest of segment dropped",
                    line.len()
                ));
                return;
            }
            let decoded = json::parse(line.trim_end())
                .map_err(|e| format!("unparseable: {e}"))
                .and_then(|j| decode_entry(&j));
            match decoded {
                Ok((key, entry)) => {
                    self.shard(&key)
                        .lock()
                        .expect("cache shard lock poisoned")
                        .put(key, entry, self.shard_capacity);
                }
                Err(why) => {
                    // A checksum or schema failure is line-local damage:
                    // skip it and keep loading. (A torn write can only be
                    // the *last* line; that case returned above.)
                    self.load_warnings.push(format!("{name}:{lineno}: {why}"));
                }
            }
        }
    }

    /// Warnings accumulated while loading on-disk segments: one line per
    /// damaged segment, torn tail, or corrupt entry. Empty for in-memory
    /// caches and pristine directories.
    pub fn load_warnings(&self) -> &[String] {
        &self.load_warnings
    }

    /// Number of entries currently resident in memory.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock poisoned").map.len())
            .sum()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every resident entry as `(hex content digest, outcome)`, in no
    /// particular order. For tests and offline inspection: the hostile
    /// -input fuzz asserts that whatever survives a corrupted store is a
    /// subset of what was written, never an altered verdict.
    pub fn entries(&self) -> Vec<(String, ScanOutcome)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard lock poisoned")
                    .map
                    .iter()
                    .map(|(k, (entry, _))| (hex(&k.digest), entry.outcome.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[key.digest[0] as usize % SHARDS]
    }

    pub(crate) fn lookup(&self, key: &Key, metrics: &MetricsSink) -> Option<(ScanOutcome, Deltas)> {
        let hit = self
            .shard(key)
            .lock()
            .expect("cache shard lock poisoned")
            .get(key);
        match hit {
            Some(entry) => {
                metrics.record(Stage::CacheHits, 1);
                Some((entry.outcome, entry.deltas))
            }
            None => {
                metrics.record(Stage::CacheMisses, 1);
                None
            }
        }
    }

    pub(crate) fn insert(
        &self,
        key: Key,
        outcome: &ScanOutcome,
        deltas: &[(Counter, u64)],
        metrics: &MetricsSink,
    ) {
        if !cacheable(outcome) {
            return;
        }
        let mut deltas = deltas.to_vec();
        deltas.sort_by_key(|(c, _)| c.label());
        let entry = Entry {
            outcome: outcome.clone(),
            deltas,
        };
        let line = encode_entry_line(&key, &entry);
        metrics.record(Stage::CacheInserts, 1);
        metrics.record(Stage::CacheBytes, line.len() as u64);
        let evicted = self
            .shard(&key)
            .lock()
            .expect("cache shard lock poisoned")
            .put(key, entry, self.shard_capacity);
        if evicted > 0 {
            metrics.record(Stage::CacheEvictions, evicted);
        }
        if line.len() > MAX_ENTRY_LINE_BYTES {
            return;
        }
        if let Some(disk) = &self.disk {
            let mut store = disk.lock().expect("cache disk lock poisoned");
            if store.write_error {
                return;
            }
            // One write per line: a crash can tear at most the final
            // line, which the loader detects by its missing newline.
            if store.file.write_all(line.as_bytes()).is_err() {
                // A full disk must not take down the batch: stop
                // persisting, keep scanning and keep the memory tier.
                store.write_error = true;
                return;
            }
            store.appended += 1;
            if store.appended % FSYNC_PERIOD == 0 {
                let _ = store.file.sync_data();
            }
        }
    }
}

impl Drop for ScanCache {
    fn drop(&mut self) {
        if let Some(disk) = &self.disk {
            if let Ok(store) = disk.lock() {
                let _ = store.file.sync_data();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-facing binding.
// ---------------------------------------------------------------------------

/// A [`ScanCache`] bound to one `(detector, policy)` pair: the expensive
/// fingerprints are computed once per batch or service lifetime, not once
/// per document. Engines construct one at entry from
/// [`ScanPolicy::cache`](super::ScanPolicy) and pass it down the per-
/// document path.
#[derive(Debug, Clone)]
pub(crate) struct BoundCache {
    cache: Arc<ScanCache>,
    detector_fp: u64,
    policy_fp: u64,
}

impl BoundCache {
    /// Binds the policy's cache, if any.
    pub(crate) fn bind(detector: &Detector, policy: &ScanPolicy) -> Option<BoundCache> {
        policy.cache.as_ref().map(|cache| BoundCache {
            cache: Arc::clone(cache),
            detector_fp: detector_fingerprint(detector),
            policy_fp: policy_fingerprint(policy),
        })
    }

    pub(crate) fn key(&self, digest: ContentDigest) -> Key {
        Key {
            digest,
            detector_fp: self.detector_fp,
            policy_fp: self.policy_fp,
        }
    }

    pub(crate) fn lookup(
        &self,
        digest: ContentDigest,
        metrics: &MetricsSink,
    ) -> Option<(ScanOutcome, Deltas)> {
        self.cache.lookup(&self.key(digest), metrics)
    }

    pub(crate) fn insert(
        &self,
        digest: ContentDigest,
        outcome: &ScanOutcome,
        deltas: &[(Counter, u64)],
        metrics: &MetricsSink,
    ) {
        self.cache
            .insert(self.key(digest), outcome, deltas, metrics);
    }

    /// Reads and digests a file for a supervisor-side probe (used by the
    /// isolation engine and the resident service, whose actual scan may
    /// happen in another process). Any read trouble — missing file, over
    /// the cap, grew past the cap — is [`PathProbe::Unreadable`]: the
    /// caller's normal scan path classifies it exactly as it would have
    /// with no cache, and nothing about it is cached or miss-counted.
    pub(crate) fn probe_path(
        &self,
        path: &Path,
        max_file_size: u64,
        metrics: &MetricsSink,
    ) -> PathProbe {
        let Some((digest, stamp)) = digest_path_under_cap(path, max_file_size) else {
            return PathProbe::Unreadable;
        };
        match self.lookup(digest, metrics) {
            Some((outcome, deltas)) => PathProbe::Hit(outcome, deltas),
            None => PathProbe::Miss(digest, stamp),
        }
    }
}

/// A file's `(size, mtime)`: the guard for a supervisor-side cache
/// insert. A miss is digested from the *supervisor's* read but scanned
/// from the *worker's*, and a racing writer could slip different bytes
/// between the two. The caller inserts only if the file's stamp after the
/// scan equals the stamp taken *before* the digest read — a lost insert
/// is cheap, a digest pointing at someone else's verdict is not.
pub(crate) type FileStamp = (u64, SystemTime);

/// The current [`FileStamp`] of `path`, or `None` if it cannot be read.
pub(crate) fn file_stamp(path: &Path) -> Option<FileStamp> {
    stamp_of(&fs::metadata(path).ok()?)
}

fn stamp_of(meta: &fs::Metadata) -> Option<FileStamp> {
    Some((meta.len(), meta.modified().ok()?))
}

/// Reads and digests a file under the size cap without consulting any
/// cache, returning the digest with the file's stamp from *before* the
/// read (see [`FileStamp`]). `None` means the file is unreadable or over
/// the cap — callers bypass caching entirely and let their normal scan
/// path classify the trouble exactly as an uncached run would.
pub(crate) fn digest_path_under_cap(
    path: &Path,
    max_file_size: u64,
) -> Option<(ContentDigest, FileStamp)> {
    let meta = fs::metadata(path).ok()?;
    if meta.len() > max_file_size {
        return None;
    }
    let stamp = stamp_of(&meta)?;
    let bytes = fs::read(path).ok()?;
    faultpoint!("cache::digest-read-gap");
    if bytes.len() as u64 > max_file_size {
        return None;
    }
    Some((sha256(&bytes), stamp))
}

/// Result of [`BoundCache::probe_path`].
pub(crate) enum PathProbe {
    /// Cached: the stored outcome and its replayable counter deltas.
    Hit(ScanOutcome, Deltas),
    /// Readable but not cached; the digest and the pre-read stamp are
    /// handed back so the caller can insert whatever its scan decides
    /// without re-reading, if the file has not changed since.
    Miss(ContentDigest, FileStamp),
    /// Not readable under the cap; bypass the cache entirely.
    Unreadable,
}

/// Takes the non-zero counters of a sink that saw exactly one document
/// since it was created or last taken, in declaration order, as that
/// document's replayable deltas. Resets the sink's counters.
pub(crate) fn deltas_from_sink(sink: &MetricsSink) -> Deltas {
    sink.take_counters()
}

/// The one counter-delta encoding, `{"label":n,…}` in the deltas' own
/// order: cache entry bodies (sorted by label at insert) and isolate
/// result frames (declaration order, from [`deltas_from_sink`]) both
/// write it, and [`decode_deltas`] reads it back.
pub(crate) fn deltas_json(deltas: &[(Counter, u64)]) -> String {
    let mut out = String::from("{");
    for (i, (counter, n)) in deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(counter.label()));
        out.push(':');
        out.push_str(&n.to_string());
    }
    out.push('}');
    out
}

/// Reads the `counters` object of a cache entry or result frame. Both
/// ends are one binary, so an unknown label or a non-integer count is
/// damage, never a delta to drop.
pub(crate) fn decode_deltas(record: &Json) -> Result<Deltas, String> {
    record
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("record without a counters object")?
        .iter()
        .map(|(label, n)| {
            let counter = Counter::from_label(label).ok_or(format!("unknown counter {label:?}"))?;
            let n = n.as_u64().ok_or(format!("non-integer counter {label:?}"))?;
            Ok((counter, n))
        })
        .collect()
}

/// Replays stored deltas into the live sink, as if the document had been
/// scanned here.
pub(crate) fn replay_deltas(metrics: &MetricsSink, deltas: &[(Counter, u64)]) {
    for &(counter, n) in deltas {
        metrics.count(counter, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorConfig, ModuleVerdict};
    use vbadet_corpus::CorpusSpec;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vbadet-cache-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(seed: u8) -> Key {
        Key {
            digest: sha256(&[seed]),
            detector_fp: 0x1111,
            policy_fp: 0x2222,
        }
    }

    fn macro_outcome() -> ScanOutcome {
        ScanOutcome::Macros(vec![ModuleVerdict {
            module_name: "Module1".to_string(),
            verdict: crate::detector::Verdict {
                obfuscated: true,
                score: 0.875,
            },
        }])
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // 55/56/64-byte messages straddle the padding block boundary.
        for (len, want) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
        ] {
            assert_eq!(hex(&sha256(&vec![b'a'; len])), want, "len={len}");
        }
    }

    #[test]
    fn fnv_fingerprints_are_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn policy_fingerprint_tracks_outcome_affecting_fields_only() {
        let base = ScanPolicy::default();
        let fp = policy_fingerprint(&base);
        // Execution-shape knobs must not fragment the key space.
        assert_eq!(fp, policy_fingerprint(&base.clone().jobs(7)));
        assert_eq!(
            fp,
            policy_fingerprint(&base.clone().with_metrics(MetricsSink::enabled()))
        );
        assert_eq!(fp, policy_fingerprint(&base.clone().drain_on_interrupt()));
        assert_eq!(
            fp,
            policy_fingerprint(
                &base
                    .clone()
                    .with_cache(std::sync::Arc::new(ScanCache::in_memory(4)))
            )
        );
        // Outcome-affecting fields must.
        assert_ne!(fp, policy_fingerprint(&base.clone().deadline_ms(1234)));
        assert_ne!(fp, policy_fingerprint(&base.clone().fuel(9)));
        assert_ne!(fp, policy_fingerprint(&base.clone().with_ladder()));
        assert_ne!(fp, policy_fingerprint(&base.clone().max_scan_mem_bytes(1)));
        let mut shrunk = base.clone();
        shrunk.limits.max_file_size = 17;
        assert_ne!(fp, policy_fingerprint(&shrunk));
    }

    #[test]
    fn detector_fingerprint_tracks_retraining() {
        let config = DetectorConfig::default();
        let a = Detector::train_on_corpus(&config, &CorpusSpec::paper().scaled(0.02));
        let b = Detector::train_on_corpus(&config, &CorpusSpec::paper().scaled(0.03));
        assert_eq!(detector_fingerprint(&a), detector_fingerprint(&a));
        assert_ne!(detector_fingerprint(&a), detector_fingerprint(&b));
    }

    #[test]
    fn in_memory_roundtrip_and_miss_on_foreign_key() {
        let cache = ScanCache::in_memory(64);
        let metrics = MetricsSink::default();
        let outcome = macro_outcome();
        let deltas = vec![(Counter::ScanDocs, 1), (Counter::ZipParses, 2)];
        cache.insert(key(1), &outcome, &deltas, &metrics);
        let (got, got_deltas) = cache.lookup(&key(1), &metrics).expect("hit");
        assert_eq!(got, outcome);
        assert_eq!(got_deltas.len(), 2);
        assert!(cache.lookup(&key(2), &metrics).is_none());
        let mut other_policy = key(1);
        other_policy.policy_fp ^= 1;
        assert!(
            cache.lookup(&other_policy, &metrics).is_none(),
            "a fingerprint mismatch must be a clean miss"
        );
    }

    #[test]
    fn uncacheable_outcomes_are_never_stored() {
        let cache = ScanCache::in_memory(64);
        let metrics = MetricsSink::default();
        for class in [
            FailureClass::Io,
            FailureClass::Panic,
            FailureClass::Timeout,
            FailureClass::Fatal,
        ] {
            let outcome = ScanOutcome::Failed {
                class,
                detail: "environmental".to_string(),
            };
            cache.insert(key(class as u8), &outcome, &[], &metrics);
        }
        assert!(cache.is_empty());
        let typed = ScanOutcome::Failed {
            class: FailureClass::Truncated,
            detail: "file ends early".to_string(),
        };
        cache.insert(key(100), &typed, &[], &metrics);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_oldest_entry_per_shard() {
        // Capacity below the shard count clamps to one entry per shard:
        // two keys in the same shard must evict down to the newer one.
        let cache = ScanCache::in_memory(1);
        let metrics = MetricsSink::enabled();
        let (mut a, mut b) = (key(1), key(2));
        a.digest[0] = 0;
        b.digest[0] = 0;
        cache.insert(a, &ScanOutcome::Clean, &[], &metrics);
        cache.insert(b, &ScanOutcome::Clean, &[], &metrics);
        assert!(cache.lookup(&a, &metrics).is_none(), "oldest evicted");
        assert!(cache.lookup(&b, &metrics).is_some());
        let snap = metrics.snapshot().unwrap();
        assert_eq!(snap.histograms["cache.evictions"].total, 1);
        assert_eq!(snap.histograms["cache.inserts"].count, 2);
    }

    #[test]
    fn persistent_roundtrip_across_reopen() {
        let dir = tempdir("roundtrip");
        let metrics = MetricsSink::default();
        let outcome = macro_outcome();
        {
            let cache = ScanCache::persistent(&dir, 64).unwrap();
            assert!(cache.load_warnings().is_empty());
            cache.insert(key(1), &outcome, &[(Counter::ScanDocs, 1)], &metrics);
            cache.insert(key(2), &ScanOutcome::Clean, &[], &metrics);
        }
        let cache = ScanCache::persistent(&dir, 64).unwrap();
        assert!(
            cache.load_warnings().is_empty(),
            "{:?}",
            cache.load_warnings()
        );
        assert_eq!(cache.len(), 2);
        let (got, deltas) = cache.lookup(&key(1), &metrics).expect("hit after reopen");
        assert_eq!(got, outcome);
        assert_eq!(deltas, vec![(Counter::ScanDocs, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_drops_only_the_last_line() {
        let dir = tempdir("torn");
        let metrics = MetricsSink::default();
        {
            let cache = ScanCache::persistent(&dir, 64).unwrap();
            cache.insert(key(1), &ScanOutcome::Clean, &[], &metrics);
            cache.insert(key(2), &macro_outcome(), &[], &metrics);
        }
        let seg = segment_paths(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let cut = bytes.len() - 10;
        bytes.truncate(cut);
        fs::write(&seg, &bytes).unwrap();
        let cache = ScanCache::persistent(&dir, 64).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(1), &metrics).is_some());
        assert!(cache.lookup(&key(2), &metrics).is_none());
        assert!(
            cache.load_warnings().iter().any(|w| w.contains("torn")),
            "{:?}",
            cache.load_warnings()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflipped_entry_is_skipped_not_served() {
        let dir = tempdir("bitflip");
        let metrics = MetricsSink::default();
        {
            let cache = ScanCache::persistent(&dir, 64).unwrap();
            cache.insert(key(1), &macro_outcome(), &[], &metrics);
            cache.insert(key(2), &ScanOutcome::Clean, &[], &metrics);
        }
        let seg = segment_paths(&dir).unwrap().pop().unwrap();
        let text = fs::read_to_string(&seg).unwrap();
        // Flip the verdict of the first entry without touching its
        // checksum: the loader must refuse to serve the altered line.
        let doctored = text.replacen("\"obfuscated\":true", "\"obfuscated\":false", 1);
        assert_ne!(doctored, text, "fixture should contain a verdict to flip");
        fs::write(&seg, doctored).unwrap();
        let cache = ScanCache::persistent(&dir, 64).unwrap();
        assert!(cache.lookup(&key(1), &metrics).is_none());
        assert!(cache.lookup(&key(2), &metrics).is_some());
        assert!(
            cache
                .load_warnings()
                .iter()
                .any(|w| w.contains("checksum mismatch")),
            "{:?}",
            cache.load_warnings()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_header_skips_the_segment() {
        let dir = tempdir("header");
        fs::write(
            dir.join("seg-000001.jsonl"),
            "{\"format\":\"something-else\",\"version\":1}\n",
        )
        .unwrap();
        let cache = ScanCache::persistent(&dir, 64).unwrap();
        assert!(cache.is_empty());
        assert!(cache.load_warnings().iter().any(|w| w.contains("header")));
        // The writer must have opened a *new* segment, not appended to
        // the foreign one.
        assert_eq!(segment_paths(&dir).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_serialization_round_trips_canonically() {
        let entry = Entry {
            outcome: macro_outcome(),
            deltas: vec![(Counter::ScanDocs, 1), (Counter::ZipParses, 3)],
        };
        let line = encode_entry_line(&key(9), &entry);
        let parsed = json::parse(line.trim_end()).unwrap();
        let (k, e) = decode_entry(&parsed).unwrap();
        assert_eq!(k, key(9));
        assert_eq!(e, entry);
        assert_eq!(encode_entry_line(&k, &e), line);
    }

    #[test]
    fn entry_line_bytes_are_golden() {
        // Literal bytes, not a round trip: the loader re-derives this body
        // to verify `sum`, so any drift would cold every stored segment.
        let entry = Entry {
            outcome: macro_outcome(),
            deltas: vec![(Counter::ScanDocs, 1), (Counter::ZipParses, 3)],
        };
        assert_eq!(
            encode_entry_line(&key(9), &entry),
            concat!(
                r#"{"digest":"2b4c342f5433ebe591a1da77e013d1b72475562d48578dca8b84bac6651c3cb9","#,
                r#""detector":"0000000000001111","policy":"0000000000002222","#,
                r#""outcome":{"kind":"macros","verdicts":[{"module":"Module1","obfuscated":true,"score":0.875}]},"#,
                r#""counters":{"scan.docs":1,"zip.parses":3},"sum":"38adf65815cb4328"}"#,
                "\n"
            )
        );
    }

    #[test]
    fn damaged_digests_and_counters_are_typed_not_panics() {
        let entry = Entry {
            outcome: ScanOutcome::Clean,
            deltas: vec![(Counter::ScanDocs, 1)],
        };
        let line = encode_entry_line(&key(3), &entry);
        let digest = hex(&key(3).digest);
        // Three-byte characters straddle every two-byte digit pair.
        let wide = "€".repeat(21) + "a";
        for (damaged, why) in [
            (line.replace(&digest, &wide), "64-hex-digit digest"),
            (line.replace(&digest, &digest[..62]), "64-hex-digit digest"),
            (
                line.replace("\"scan.docs\"", "\"scan.nope\""),
                "unknown counter",
            ),
            (line.replace(":1}", ":1.0}"), "non-integer counter"),
            (
                line.replace(",\"counters\":{\"scan.docs\":1}", ""),
                "counters object",
            ),
        ] {
            let j = json::parse(damaged.trim_end()).unwrap();
            let err = decode_entry(&j).unwrap_err();
            assert!(err.contains(why), "{damaged}: {err}");
        }
    }
}
