//! Content-addressed scan-cache throughput over a duplicate-heavy
//! on-disk corpus, recorded to `results/BENCH_cache.json` so
//! `scripts/ci.sh` can gate on it.
//!
//! The corpus shape is the cache's design target: a mail-gateway burst
//! where the same handful of attachments arrives hundreds of times. Three
//! passes are measured over the identical path list with the sequential
//! engine (so the numbers isolate cache effect from pool scaling):
//!
//! - `uncached`: cache off — every document fully scanned, every time.
//! - `cold`: a fresh in-memory cache per rep — first sight of each
//!   distinct content misses and scans, every later duplicate hits. This
//!   is the pass the equivalence suite proves byte-identical to
//!   `uncached`.
//! - `warm`: one pre-warmed cache shared across reps — every document is
//!   a digest + lookup. The CI gate holds `warm_docs_per_sec` at ≥ 3×
//!   `uncached_docs_per_sec`.
//!
//! The measured hit rate of a metered warm pass rides along so the README
//! table stays honest about what the speedup assumes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vbadet::{scan_paths_with_policy, MetricsSink, ScanCache, ScanPolicy};
use vbadet_bench::{bench_detector, best_of, fresh_dir, is_test_run, macro_project, write_result};
use vbadet_ole::OleBuilder;
use vbadet_zip::{CompressionMethod, ZipWriter};

const DOCS: usize = 400;
const UNIQUE: usize = 8;
const REPS: usize = 3;

fn docm_doc(i: usize) -> Vec<u8> {
    let mut zip = ZipWriter::new();
    zip.add_file(
        "[Content_Types].xml",
        b"<?xml version=\"1.0\"?><Types/>",
        CompressionMethod::Deflate,
    )
    .unwrap();
    zip.add_file(
        "word/vbaProject.bin",
        &macro_project(i),
        CompressionMethod::Deflate,
    )
    .unwrap();
    zip.finish()
}

/// `DOCS` documents drawn from `UNIQUE` distinct contents: macro
/// projects, `.docm` containers, a clean OLE file and one junk payload,
/// interleaved so consecutive documents rarely share content (the
/// unfriendliest order for any accidental "last result" shortcut).
fn write_corpus(dir: &Path) -> (Vec<PathBuf>, u64) {
    let contents: Vec<Vec<u8>> = (0..UNIQUE)
        .map(|u| match u % 4 {
            0 | 1 => macro_project(u),
            2 => docm_doc(u),
            _ => {
                if u % 8 == 3 {
                    let mut ole = OleBuilder::new();
                    ole.add_stream("WordDocument", b"plain text attachment")
                        .unwrap();
                    ole.build()
                } else {
                    format!("junk payload {u}").into_bytes()
                }
            }
        })
        .collect();
    let mut paths = Vec::with_capacity(DOCS);
    let mut total_bytes = 0u64;
    for i in 0..DOCS {
        let bytes = &contents[i % UNIQUE];
        total_bytes += bytes.len() as u64;
        let path = dir.join(format!("doc{i:04}.bin"));
        std::fs::write(&path, bytes).unwrap();
        paths.push(path);
    }
    (paths, total_bytes)
}

fn main() {
    if is_test_run() {
        return;
    }

    let dir = fresh_dir("cache");
    let (paths, total_bytes) = write_corpus(&dir);

    let detector = bench_detector();
    let uncached_policy = ScanPolicy::default();

    // Page-cache warmup so the uncached baseline (measured first) isn't
    // charged for cold reads the cached passes then get for free.
    let warmup = scan_paths_with_policy(&detector, &paths, &uncached_policy);
    assert_eq!(warmup.scanned(), DOCS);

    let uncached = best_of(REPS, DOCS, || {
        scan_paths_with_policy(&detector, &paths, &uncached_policy).scanned()
    });

    // Cold: a fresh cache per rep, so each rep pays UNIQUE full scans
    // plus DOCS-UNIQUE hits — the first-batch experience.
    let cold = best_of(REPS, DOCS, || {
        let policy = ScanPolicy::default().with_cache(Arc::new(ScanCache::in_memory(1024)));
        scan_paths_with_policy(&detector, &paths, &policy).scanned()
    });

    // Warm: one cache, pre-filled outside the timed region — the steady
    // state of a long-running gateway.
    let cache = Arc::new(ScanCache::in_memory(1024));
    let warm_policy = ScanPolicy::default().with_cache(Arc::clone(&cache));
    assert_eq!(
        scan_paths_with_policy(&detector, &paths, &warm_policy).scanned(),
        DOCS
    );
    let warm = best_of(REPS, DOCS, || {
        scan_paths_with_policy(&detector, &paths, &warm_policy).scanned()
    });

    // Measured hit rate from a metered warm pass (not assumed from the
    // corpus shape).
    let metered = ScanPolicy::default()
        .with_cache(Arc::clone(&cache))
        .with_metrics(MetricsSink::enabled());
    let report = scan_paths_with_policy(&detector, &paths, &metered);
    assert_eq!(report.scanned(), DOCS);
    let snapshot = report.metrics.expect("metered run must snapshot");
    let hits = snapshot.histograms.get("cache.hits").map_or(0, |h| h.total);
    let misses = snapshot
        .histograms
        .get("cache.misses")
        .map_or(0, |h| h.total);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    let uncached_dps = DOCS as f64 / uncached.as_secs_f64();
    let cold_dps = DOCS as f64 / cold.as_secs_f64();
    let warm_dps = DOCS as f64 / warm.as_secs_f64();
    let warm_speedup = uncached.as_secs_f64() / warm.as_secs_f64();

    println!(
        "cache: {DOCS} docs ({UNIQUE} unique), {total_bytes} bytes\n\
           uncached  {uncached_dps:>9.1} docs/s  ({uncached:.3?}/batch)\n\
           cold      {cold_dps:>9.1} docs/s  ({cold:.3?}/batch)\n\
           warm      {warm_dps:>9.1} docs/s  ({warm:.3?}/batch)\n\
           speedup   {warm_speedup:>9.2}x warm vs uncached\n\
           hit rate  {:>9.1}% ({hits} hits / {misses} misses)",
        hit_rate * 100.0,
    );

    let json = format!(
        "{{\n  \"bench\": \"cache\",\n  \"docs\": {DOCS},\n  \"unique_docs\": {UNIQUE},\n  \
         \"bytes\": {total_bytes},\n  \"reps\": {REPS},\n  \
         \"uncached_secs\": {:.6},\n  \"cold_secs\": {:.6},\n  \"warm_secs\": {:.6},\n  \
         \"uncached_docs_per_sec\": {uncached_dps:.2},\n  \"cold_docs_per_sec\": {cold_dps:.2},\n  \
         \"warm_docs_per_sec\": {warm_dps:.2},\n  \"warm_speedup\": {warm_speedup:.4},\n  \
         \"warm_hit_rate\": {hit_rate:.4}\n}}\n",
        uncached.as_secs_f64(),
        cold.as_secs_f64(),
        warm.as_secs_f64(),
    );
    write_result("BENCH_cache.json", &json);

    let _ = std::fs::remove_dir_all(&dir);
}
