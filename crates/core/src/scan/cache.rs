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
//! (SHA-256(document bytes), FNV-1a-64(detector.save()), FNV-1a-64(policy block))
//! ```
//!
//! plus the on-disk schema version. The *content* digest is SHA-256 — the
//! document is attacker-controlled, and a collidable hash (FNV, CRC) would
//! let a hostile document alias a clean one and be served its verdict. The
//! detector and policy fingerprints only guard against *operator* drift
//! (retrained model, changed limits), not an adversary, so the cheap FNV
//! is enough there. The policy fingerprint hashes exactly the fields that
//! can change a scan outcome, in the one fixed-width binary block the
//! isolation supervisor also ships to its workers in its hello frame, so
//! execution-shape knobs (`jobs`, `isolate`, metrics, the cache itself)
//! never fragment the key space.
//!
//! Any fingerprint mismatch is a clean miss: a retrained detector or a
//! changed limit makes every old entry invisible (never a stale verdict),
//! while the entries stay in the LRU, and on disk, until they are evicted.
//!
//! Every engine digests the very buffer it scans: in process, the one
//! checked read of the file; isolated, the supervisor's read, whose bytes
//! it sends to the worker. An entry is therefore always the verdict of
//! the bytes its digest names, however the file changes on disk.
//!
//! # Tiers
//!
//! - **In-memory**: one exact LRU under one `Mutex`, which also guards the
//!   keys in flight (see single-flight below). A recency index keyed by
//!   use stamp evicts the least recently used entry in O(log n), so a
//!   cache of capacity N holds at most N entries, for every N ≥ 1.
//! - **On-disk** (optional): segment files under a cache directory, each
//!   a `crate::jsonl` log, the one crash-safe log the scan journal also
//!   uses. Every open compacts: it loads the segments in index order,
//!   writes the live LRU, oldest first, into one new segment and syncs
//!   it, then deletes the segments it read (but not one that another open
//!   cache still writes, which holds a lock on it). The run then appends
//!   to the new segment each insert and the first hit on each entry it
//!   loaded, so the next open loads, and evicts, in order of use. A
//!   directory holds one segment between runs. A crash mid-compaction
//!   leaves the old segments, the new one, or both; the newest entry of a
//!   key wins on load, so each loads the same hits. The cache keeps its
//!   own damage policy: a torn tail or an oversized line ends the
//!   segment, a line that fails its checksum or schema is skipped, a bad
//!   header skips the segment and leaves it on disk. Each line carries an
//!   FNV-1a checksum over its canonical content, so a *bitflipped* (not
//!   just torn) entry is skipped instead of served as a wrong verdict.
//!
//! # Determinism contract
//!
//! The deterministic counter section of [`ScanMetrics`](crate::ScanMetrics) must be identical
//! with the cache off, cold, and warm. A miss is scanned under the
//! scanning thread's own sink, and the counters it leaves there are
//! stored with the outcome as the entry's *deltas*; a hit replays those
//! deltas into the thread sink, so the record carries the same deltas to
//! the report as if the document had been scanned. Cache traffic itself (hits, misses,
//! inserts, evictions, entry bytes) is recorded on the histogram side,
//! which is exempt from the determinism promise.
//!
//! Outcomes that are not pure functions of `(bytes, detector, policy)`
//! are never cached: `Io` (path-specific), `Timeout` (wall-clock and
//! load dependent), `Panic` and `Fatal` (environmental).
//!
//! # Single-flight
//!
//! A lookup that misses takes the *lead* for its key: a `Lead` guard
//! that carries the insert and, on drop, releases the key and wakes
//! every thread waiting on it. A lookup that finds its key led by
//! another thread waits, then looks up again: the leader's insert makes
//! it a hit, and an outcome the cache refused (a timeout, a worker death)
//! makes it a miss and the next leader. Results reach followers only
//! through the cache, so a follower gets exactly what a later lookup
//! would have served it. Every engine shares this one rendezvous:
//! concurrent identical documents, in a pool, an isolated batch or the
//! service, cost one scan.
//!
//! A thread waits only while it holds no lead itself (a thread-local
//! count), so no two threads can wait on each other: the isolate
//! executor holds one lead per queued miss and can wait only while none
//! is queued, the in-process path holds at most one and releases it
//! before its next lookup, and a service worker holds none when a
//! request arrives. A thread that holds a lead and finds a key led
//! elsewhere scans it without waiting.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::detector::Detector;
use crate::journal::{decode_outcome, outcome_json};
use crate::jsonl;
use vbadet_faultpoint::faultpoint;
use vbadet_metrics::json::{self, hex, json_str, unhex, Json};
use vbadet_metrics::{Counter, MetricsSink, Stage};

use super::{FailureClass, ScanOutcome, ScanPolicy};

/// On-disk store format name, carried in every segment header.
pub const CACHE_FORMAT: &str = "vbadet-scan-cache";
/// On-disk schema version. Bumping it orphans (but does not delete) every
/// existing segment: the loader skips segments with a different version.
pub const CACHE_VERSION: u64 = 2;

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
/// non-zero `(counter, value)` pairs taken from the sink that scanned it
/// — a scanning thread's, or an isolate worker's, shipped in its result
/// frame — and added to the report with [`replay_deltas`]. Cache entries
/// sort theirs by counter label at insert so the canonical serialization
/// is stable.
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
// of the reference compression function beat pulling one in. On x86-64
// CPUs with the SHA extensions the same function runs on them instead.
// Correctness is pinned by the FIPS test vectors in this module's tests,
// and the two compression paths by a test that runs both.
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
    let whole = bytes.len() - bytes.len() % 64;
    sha256_blocks(&mut state, &bytes[..whole]);
    // Padding: 0x80, zeros, 64-bit big-endian bit length — one block, or
    // two when the remainder leaves no room for the length.
    let rest = &bytes[whole..];
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() + 1 + 8 > 64 { 128 } else { 64 };
    tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    sha256_blocks(&mut state, &tail[..end]);
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compresses whole 64-byte blocks: on the CPU's SHA extensions when it
/// has them (several times the portable speed, and the warm-cache path
/// is mostly this digest), else with the portable [`sha256_compress`].
fn sha256_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` confirmed every feature `compress` enables.
        return unsafe { shani::compress(state, blocks) };
    }
    for block in blocks.chunks_exact(64) {
        sha256_compress(state, block.try_into().expect("64-byte block"));
    }
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

/// The SHA-256 compression function on x86 SHA extensions, two rounds per
/// `sha256rnds2`, with the state held as the `ABEF`/`CDGH` lane pairs the
/// instruction works on.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four words, `w[0]` in the lowest lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let cdab = _mm_shuffle_epi32(lanes(&state[..4]), 0xb1);
        let efgh = _mm_shuffle_epi32(lanes(&state[4..]), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut m = [0u32; 16];
            for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
            // The schedule in four 4-word registers, w[i % 4] holding
            // W[4i..4i + 4] once round group i needs it.
            let mut w = [
                lanes(&m[..4]),
                lanes(&m[4..8]),
                lanes(&m[8..12]),
                lanes(&m[12..]),
            ];
            for i in 0..16 {
                if i >= 4 {
                    let t = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
                        _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4),
                    );
                    w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
                }
                let wk = _mm_add_epi32(w[i % 4], lanes(&super::SHA256_K[4 * i..]));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgfe, 0) as u32,
            _mm_extract_epi32(hgfe, 1) as u32,
            _mm_extract_epi32(hgfe, 2) as u32,
            _mm_extract_epi32(hgfe, 3) as u32,
        ];
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

/// Fingerprint of the outcome-affecting policy fields: FNV over the
/// policy block the isolate hello frame carries.
pub(crate) fn policy_fingerprint(policy: &ScanPolicy) -> u64 {
    fnv1a64(&super::isolate::policy_block(policy))
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
// In-memory tier: one exact LRU and the keys in flight, under one lock.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Lru {
    /// Each entry with its use stamp, and whether this run's segment
    /// records a use of it yet: an insert is a line there, and so is the
    /// first hit on an entry loaded from an earlier run.
    map: HashMap<Key, (Entry, u64, bool)>,
    /// The recency index: use stamp to key, least recently used first.
    order: BTreeMap<u64, Key>,
    clock: u64,
    capacity: usize,
    /// Keys whose [`Lead`] is live: being scanned by some thread.
    flights: HashSet<Key>,
}

impl Lru {
    /// The entry, and whether this is its first recorded use in the run.
    fn get(&mut self, key: &Key) -> Option<(Entry, bool)> {
        let (entry, stamp, recorded) = self.map.get_mut(key)?;
        self.order.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.order.insert(self.clock, *key);
        Some((entry.clone(), !std::mem::replace(recorded, true)))
    }

    /// Inserts and returns how many entries were evicted to make room.
    /// `recorded` says whether this run's segment holds the entry's line.
    fn put(&mut self, key: Key, entry: Entry, recorded: bool) -> u64 {
        self.clock += 1;
        self.order.insert(self.clock, key);
        if let Some((_, stamp, _)) = self.map.insert(key, (entry, self.clock, recorded)) {
            self.order.remove(&stamp);
        }
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let (_, oldest) = self.order.pop_first().expect("one stamp per entry");
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

// ---------------------------------------------------------------------------
// On-disk tier: append-only JSONL segments.
// ---------------------------------------------------------------------------

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

/// Lists the segment files in `dir` (`seg-N.jsonl`) with their indices,
/// in index order.
fn segment_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let index = name
            .strip_prefix("seg-")
            .and_then(|n| n.strip_suffix(".jsonl"));
        if let Some(index) = index.and_then(|n| n.parse().ok()) {
            segments.push((index, path));
        }
    }
    segments.sort();
    Ok(segments)
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
    lru: Mutex<Lru>,
    /// Signalled whenever a lead is released.
    landed: Condvar,
    disk: Option<Mutex<jsonl::Writer>>,
    load_warnings: Vec<String>,
}

impl ScanCache {
    /// A purely in-memory cache holding at most `capacity` entries (at
    /// least one). For the resident service, where the process outlives
    /// many requests.
    pub fn in_memory(capacity: usize) -> ScanCache {
        ScanCache {
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                capacity: capacity.max(1),
                flights: HashSet::new(),
            }),
            landed: Condvar::new(),
            disk: None,
            load_warnings: Vec::new(),
        }
    }

    /// A cache backed by an on-disk segment directory, for batch runs that
    /// want hits across process restarts. Existing segments are loaded
    /// into the in-memory tier (damage is tolerated and reported via
    /// [`load_warnings`](Self::load_warnings)), then compacted into one
    /// fresh segment, to which new inserts are appended.
    ///
    /// # Errors
    ///
    /// Only on environmental failure: the directory cannot be created or
    /// listed, or the fresh segment cannot be written and synced. Damaged
    /// *content* never errors — that is a warning plus a smaller cache.
    pub fn persistent<P: AsRef<Path>>(dir: P, capacity: usize) -> io::Result<ScanCache> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut cache = ScanCache::in_memory(capacity);
        let segments = segment_paths(dir)?;
        let read: Vec<&Path> = segments
            .iter()
            .filter(|(_, path)| cache.load_segment(path))
            .map(|(_, path)| path.as_path())
            .collect();
        let next = segments.last().map_or(1, |(index, _)| index + 1);
        let fresh = dir.join(format!("seg-{next:06}.jsonl"));
        let mut log = jsonl::Writer::create(&fresh, CACHE_FORMAT, CACHE_VERSION)?;
        let lru = cache.lru.get_mut().unwrap_or_else(PoisonError::into_inner);
        for key in lru.order.values() {
            log.append(encode_entry_line(key, &lru.map[key].0).trim_end_matches('\n'));
        }
        log.sync();
        log.status()?;
        // From here on, a crash leaves the old segments beside the new one.
        faultpoint!("cache::compact-synced");
        for (i, path) in read.into_iter().enumerate() {
            if i > 0 {
                faultpoint!("cache::compact-between-deletes");
            }
            // A segment that another open cache still writes is locked.
            if fs::File::open(path).is_ok_and(|segment| segment.try_lock().is_err()) {
                continue;
            }
            if let Err(e) = fs::remove_file(path) {
                let warning = format!("{}: not deleted: {e}", path.display());
                cache.load_warnings.push(warning);
            }
        }
        cache.disk = Some(Mutex::new(log));
        Ok(cache)
    }

    /// Loads one segment into the in-memory tier and says whether its
    /// header was this version's. Total: every class of damage degrades
    /// to a warning, never an error or a wrong entry — a bad header skips
    /// the segment, a torn or oversized line stops the segment there, a
    /// line that fails its checksum or schema is skipped and the rest of
    /// the segment kept.
    fn load_segment(&mut self, path: &Path) -> bool {
        let name = path.display();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                self.load_warnings.push(format!("{name}: unreadable: {e}"));
                return false;
            }
        };
        let lines = match jsonl::read(&bytes, CACHE_FORMAT, CACHE_VERSION) {
            Ok(lines) => lines,
            Err(e) => {
                self.load_warnings
                    .push(format!("{name}: {e}, segment skipped"));
                return false;
            }
        };
        let lru = self.lru.get_mut().unwrap_or_else(PoisonError::into_inner);
        for line in lines {
            let lineno = line.number;
            if line.len > MAX_ENTRY_LINE_BYTES {
                self.load_warnings.push(format!(
                    "{name}:{lineno}: {}-byte line over the {MAX_ENTRY_LINE_BYTES}-byte cap, \
                     rest of segment dropped",
                    line.len
                ));
                break;
            }
            let decoded = line
                .text
                .and_then(|text| json::parse(text).map_err(|e| format!("unparseable: {e}")))
                .and_then(|j| decode_entry(&j));
            match decoded {
                Ok((key, entry)) => {
                    lru.put(key, entry, false);
                }
                // Line-local damage: skip it and keep loading. (A torn
                // line is always the last, so skipping it ends the segment.)
                Err(why) => self.load_warnings.push(format!("{name}:{lineno}: {why}")),
            }
        }
        true
    }

    /// Warnings accumulated while loading on-disk segments: one line per
    /// damaged segment, torn tail, or corrupt entry. Empty for in-memory
    /// caches and pristine directories.
    pub fn load_warnings(&self) -> &[String] {
        &self.load_warnings
    }

    /// Number of entries currently resident in memory.
    pub fn len(&self) -> usize {
        self.lock().map.len()
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
        let lru = self.lock();
        lru.map
            .iter()
            .map(|(key, (entry, ..))| (hex(&key.digest), entry.outcome.clone()))
            .collect()
    }

    /// The one lock. A panic never leaves the LRU half-updated, so a
    /// poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up under the single-flight rule (see the module docs):
    /// a hit, or a miss that leads the key — unless another thread leads
    /// it, in which case this waits for that lead to land first.
    pub(crate) fn lookup(self: &Arc<Self>, key: Key, metrics: &MetricsSink) -> Lookup {
        let mut lru = self.lock();
        loop {
            if let Some((entry, first_use)) = lru.get(&key) {
                drop(lru);
                // An entry loaded from an earlier run moves up the next
                // open's load order by one line, once per run.
                if first_use && self.disk.is_some() {
                    self.persist(&encode_entry_line(&key, &entry));
                }
                metrics.record(Stage::CacheHits, 1);
                return Lookup::Hit(entry.outcome, entry.deltas);
            }
            let leading = lru.flights.insert(key);
            if leading || LEADS.get() > 0 {
                drop(lru);
                metrics.record(Stage::CacheMisses, 1);
                return Lookup::Miss(Lead::new(Arc::clone(self), key, leading));
            }
            lru = self
                .landed
                .wait(lru)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn insert(
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
        let evicted = self.lock().put(key, entry, true);
        if evicted > 0 {
            metrics.record(Stage::CacheEvictions, evicted);
        }
        self.persist(&line);
    }

    /// Appends one entry line to this run's segment, if the cache has one
    /// and the line is within the cap.
    fn persist(&self, line: &str) {
        if line.len() > MAX_ENTRY_LINE_BYTES {
            return;
        }
        if let Some(disk) = &self.disk {
            // A failed append latches in the log and stops persisting: a
            // full disk must not take down the batch, and the memory tier
            // keeps serving.
            disk.lock()
                .expect("cache disk lock poisoned")
                .append(line.trim_end_matches('\n'));
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-facing binding.
// ---------------------------------------------------------------------------

/// A [`ScanCache`] bound to one `(detector, policy)` pair: the expensive
/// fingerprints are computed once per batch or service generation, not
/// once per document. Engines construct one at entry from
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

    /// [`ScanCache::lookup`] of `digest` under this binding.
    pub(crate) fn lookup(&self, digest: ContentDigest, metrics: &MetricsSink) -> Lookup {
        let key = Key {
            digest,
            detector_fp: self.detector_fp,
            policy_fp: self.policy_fp,
        };
        self.cache.lookup(key, metrics)
    }
}

/// What a cache lookup found.
pub(crate) enum Lookup {
    /// Cached: the stored outcome and its replayable counter deltas.
    Hit(ScanOutcome, Deltas),
    /// Not cached: scan, then hand the result to [`Lead::insert`].
    Miss(Lead),
}

thread_local! {
    /// Leads this thread holds: while it holds any, its lookups never
    /// wait (see the module docs).
    static LEADS: Cell<usize> = const { Cell::new(0) };
}

/// The right, and the duty, to decide one missed key. Dropping it (after
/// any [`insert`](Self::insert)) releases the key and wakes the threads
/// waiting on it; a panicking scan releases it on unwind. A miss taken
/// while the key is already led is a lead that releases nothing. Bound
/// to the thread that took it, whose lead count it is part of.
pub(crate) struct Lead {
    cache: Arc<ScanCache>,
    key: Key,
    leading: bool,
    _thread: PhantomData<*const ()>,
}

impl Lead {
    fn new(cache: Arc<ScanCache>, key: Key, leading: bool) -> Lead {
        if leading {
            LEADS.set(LEADS.get() + 1);
        }
        Lead {
            cache,
            key,
            leading,
            _thread: PhantomData,
        }
    }

    /// Stores the scan's result (when cacheable), then releases the key.
    pub(crate) fn insert(
        self,
        outcome: &ScanOutcome,
        deltas: &[(Counter, u64)],
        metrics: &MetricsSink,
    ) {
        self.cache.insert(self.key, outcome, deltas, metrics);
    }
}

impl Drop for Lead {
    fn drop(&mut self) {
        if self.leading {
            LEADS.set(LEADS.get() - 1);
            self.cache.lock().flights.remove(&self.key);
            self.cache.landed.notify_all();
        }
    }
}

/// The counter-delta encoding of cache entry bodies, `{"label":n,…}` in
/// the deltas' own order (sorted by label at insert); [`decode_deltas`]
/// reads it back.
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

/// Reads the `counters` object of a cache entry. The writer is this
/// binary, so an unknown label or a non-integer count is damage, never a
/// delta to drop.
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

/// Replays a document's deltas into `metrics`, as if the document had
/// been scanned under it.
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

    impl ScanCache {
        fn get(&self, key: &Key) -> Option<Entry> {
            self.lock().get(key).map(|(entry, _)| entry)
        }
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_extension_compression_matches_the_portable_one() {
        if !shani::available() {
            return;
        }
        let mut seed = 0x5eed_u64;
        for blocks in 0..=20 {
            let bytes: Vec<u8> = (0..blocks * 64)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 33) as u8
                })
                .collect();
            let init = [seed as u32, 2, 3, 4, 5, 6, 7, (seed >> 32) as u32];
            let mut portable = init;
            for block in bytes.chunks_exact(64) {
                sha256_compress(&mut portable, block.try_into().unwrap());
            }
            let mut extension = init;
            // SAFETY: `available` confirmed every feature `compress` enables.
            unsafe { shani::compress(&mut extension, &bytes) };
            assert_eq!(extension, portable, "{blocks} blocks");
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
        let got = cache.get(&key(1)).expect("hit");
        assert_eq!(got.outcome, outcome);
        assert_eq!(got.deltas.len(), 2);
        assert!(cache.get(&key(2)).is_none());
        let mut other_policy = key(1);
        other_policy.policy_fp ^= 1;
        assert!(
            cache.get(&other_policy).is_none(),
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
        // A cache of capacity one keeps one entry: the second key evicts
        // the first.
        let cache = ScanCache::in_memory(1);
        let metrics = MetricsSink::enabled();
        let (mut a, mut b) = (key(1), key(2));
        a.digest[0] = 0;
        b.digest[0] = 0;
        cache.insert(a, &ScanOutcome::Clean, &[], &metrics);
        cache.insert(b, &ScanOutcome::Clean, &[], &metrics);
        assert!(cache.get(&a).is_none(), "oldest evicted");
        assert!(cache.get(&b).is_some());
        let snap = metrics.snapshot().unwrap();
        assert_eq!(snap.histograms["cache.evictions"].total, 1);
        assert_eq!(snap.histograms["cache.inserts"].count, 2);
    }

    #[test]
    fn capacity_is_exact_and_the_least_recently_used_entry_goes_first() {
        let metrics = MetricsSink::default();
        for capacity in [1, 5, 17, 20] {
            let cache = ScanCache::in_memory(capacity);
            for seed in 0..40 {
                cache.insert(key(seed), &ScanOutcome::Clean, &[], &metrics);
            }
            assert_eq!(cache.len(), capacity);
            // The last `capacity` inserts survive. A `get` refreshes the
            // oldest of them, so the next insert evicts the one after it.
            let oldest = 40 - capacity as u8;
            assert!(cache.get(&key(oldest - 1)).is_none(), "{capacity}");
            assert!(cache.get(&key(oldest)).is_some(), "{capacity}");
            cache.insert(key(200), &ScanOutcome::Clean, &[], &metrics);
            assert_eq!(cache.len(), capacity);
            assert!(cache.get(&key(200)).is_some());
            if capacity > 1 {
                assert!(cache.get(&key(oldest)).is_some(), "{capacity}");
                assert!(cache.get(&key(oldest + 1)).is_none(), "{capacity}");
            }
        }
    }

    #[test]
    fn fifty_opens_leave_one_segment_and_the_entries_of_one_long_lived_cache() {
        let dir = tempdir("compact");
        let metrics = MetricsSink::default();
        let long_lived = ScanCache::in_memory(8);
        let sorted = |cache: &ScanCache| {
            let mut entries = cache.entries();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries
        };
        for run in 0..50u8 {
            let cache = ScanCache::persistent(&dir, 8).unwrap();
            assert_eq!(segment_paths(&dir).unwrap().len(), 1, "open {run}");
            // A new key and a repeated one, whose newest outcome must win.
            for seed in [run, run / 3] {
                let outcome = ScanOutcome::Failed {
                    class: FailureClass::Truncated,
                    detail: format!("run {run}"),
                };
                cache.insert(key(seed), &outcome, &[], &metrics);
                long_lived.insert(key(seed), &outcome, &[], &metrics);
            }
        }
        let reopened = ScanCache::persistent(&dir, 8).unwrap();
        assert!(reopened.load_warnings().is_empty());
        assert_eq!(segment_paths(&dir).unwrap().len(), 1);
        assert_eq!(sorted(&reopened), sorted(&long_lived));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_open_leaves_the_segment_another_open_cache_writes() {
        let dir = tempdir("two-writers");
        let metrics = MetricsSink::default();
        let first = ScanCache::persistent(&dir, 8).unwrap();
        first.insert(key(1), &ScanOutcome::Clean, &[], &metrics);
        let second = ScanCache::persistent(&dir, 8).unwrap();
        assert!(second.get(&key(1)).is_some());
        // The first cache's later inserts still reach its segment.
        first.insert(key(2), &ScanOutcome::Clean, &[], &metrics);
        second.insert(key(3), &ScanOutcome::Clean, &[], &metrics);
        drop((first, second));
        let reopened = ScanCache::persistent(&dir, 8).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(segment_paths(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_load_in_index_order_not_name_order() {
        // `seg-10` sorts before `seg-9` by name; its entry is the newer.
        let dir = tempdir("order");
        let metrics = MetricsSink::default();
        for (name, detail) in [("seg-9.jsonl", "older"), ("seg-10.jsonl", "newer")] {
            let cache = ScanCache::in_memory(4);
            let outcome = ScanOutcome::Failed {
                class: FailureClass::Truncated,
                detail: detail.to_string(),
            };
            cache.insert(key(1), &outcome, &[], &metrics);
            let line = encode_entry_line(&key(1), &cache.get(&key(1)).unwrap());
            let header = format!("{{\"format\":\"{CACHE_FORMAT}\",\"version\":{CACHE_VERSION}}}\n");
            fs::write(dir.join(name), header + &line).unwrap();
        }
        let cache = ScanCache::persistent(&dir, 4).unwrap();
        let got = cache.get(&key(1)).unwrap().outcome;
        assert!(matches!(got, ScanOutcome::Failed { detail, .. } if detail == "newer"));
        let left: Vec<u64> = segment_paths(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(left, [11]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hit_moves_its_entry_up_the_next_opens_eviction_order() {
        // The runs A, B, A, C, A at capacity 2: the third run's hit on A
        // outlives B's insert, so C evicts B and the fifth run hits A.
        let dir = tempdir("use-order");
        let metrics = MetricsSink::default();
        let mut hits = Vec::new();
        for (run, seed) in [1, 2, 1, 3, 1].into_iter().enumerate() {
            let cache = Arc::new(ScanCache::persistent(&dir, 2).unwrap());
            match cache.lookup(key(seed), &metrics) {
                Lookup::Hit(..) => hits.push(run + 1),
                Lookup::Miss(lead) => lead.insert(&ScanOutcome::Clean, &[], &metrics),
            }
        }
        assert_eq!(hits, [3, 5]);
        // Only the first hit in a run writes a line: the header, the two
        // compacted entries and one hit.
        let cache = Arc::new(ScanCache::persistent(&dir, 2).unwrap());
        for _ in 0..3 {
            assert!(matches!(cache.lookup(key(3), &metrics), Lookup::Hit(..)));
        }
        drop(cache);
        let (_, segment) = segment_paths(&dir).unwrap().pop().unwrap();
        assert_eq!(fs::read_to_string(segment).unwrap().lines().count(), 4);
        let _ = fs::remove_dir_all(&dir);
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
        let got = cache.get(&key(1)).expect("hit after reopen");
        assert_eq!(got.outcome, outcome);
        assert_eq!(got.deltas, vec![(Counter::ScanDocs, 1)]);
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
        let seg = segment_paths(&dir).unwrap().pop().unwrap().1;
        let mut bytes = fs::read(&seg).unwrap();
        let cut = bytes.len() - 10;
        bytes.truncate(cut);
        fs::write(&seg, &bytes).unwrap();
        let cache = ScanCache::persistent(&dir, 64).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
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
        let seg = segment_paths(&dir).unwrap().pop().unwrap().1;
        let text = fs::read_to_string(&seg).unwrap();
        // Flip the verdict of the first entry without touching its
        // checksum: the loader must refuse to serve the altered line.
        let doctored = text.replacen("\"obfuscated\":true", "\"obfuscated\":false", 1);
        assert_ne!(doctored, text, "fixture should contain a verdict to flip");
        fs::write(&seg, doctored).unwrap();
        let cache = ScanCache::persistent(&dir, 64).unwrap();
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
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

    #[test]
    fn a_follower_waits_for_the_lead_and_hits_its_insert() {
        let cache = Arc::new(ScanCache::in_memory(64));
        let metrics = MetricsSink::enabled();
        let Lookup::Miss(lead) = cache.lookup(key(1), &metrics) else {
            panic!("a cold cache hit");
        };
        let follower = {
            let (cache, metrics) = (Arc::clone(&cache), metrics.clone());
            std::thread::spawn(move || match cache.lookup(key(1), &metrics) {
                Lookup::Hit(outcome, _) => outcome,
                Lookup::Miss(_) => panic!("the follower scanned a key whose lead landed"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !follower.is_finished(),
            "the follower must wait for the lead"
        );
        lead.insert(&macro_outcome(), &[], &metrics);
        assert_eq!(follower.join().unwrap(), macro_outcome());
        let snap = metrics.snapshot().unwrap();
        assert_eq!(snap.histograms["cache.misses"].count, 1);
        assert_eq!(snap.histograms["cache.hits"].count, 1);
    }

    #[test]
    fn a_refused_insert_makes_the_follower_the_next_leader() {
        let cache = Arc::new(ScanCache::in_memory(64));
        let metrics = MetricsSink::default();
        let Lookup::Miss(lead) = cache.lookup(key(1), &metrics) else {
            panic!("a cold cache hit");
        };
        // A thread that holds a lead never waits, not even on its own key.
        assert!(matches!(cache.lookup(key(1), &metrics), Lookup::Miss(_)));
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(
                move || match cache.lookup(key(1), &MetricsSink::default()) {
                    Lookup::Hit(..) => false,
                    Lookup::Miss(next) => next.leading,
                },
            )
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !follower.is_finished(),
            "the follower must wait for the lead"
        );
        let timeout = ScanOutcome::Failed {
            class: FailureClass::Timeout,
            detail: "deadline".to_string(),
        };
        lead.insert(&timeout, &[], &metrics);
        assert!(
            follower.join().unwrap(),
            "an uncacheable outcome must leave the follower to lead its own scan"
        );
        assert!(cache.is_empty());
    }
}
