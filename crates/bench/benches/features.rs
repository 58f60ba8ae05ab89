//! Fused single-pass feature extraction vs the historical multi-pass
//! reference, recorded to `results/BENCH_features.json` so `scripts/ci.sh`
//! can gate on the speedup.
//!
//! Hand-rolled timing for the same reason as `scan_parallel`: the CI gate
//! needs machine-readable throughput numbers, and the honest unit is a
//! best-of-N sweep over a realistic macro set — both paths walk identical
//! inputs and are proven bit-identical by `tests/feature_equivalence.rs`,
//! so this measures cost, not behaviour.

use std::time::{Duration, Instant};

use vbadet_bench::{is_test_run, write_result};
use vbadet_corpus::{generate_macros, CorpusSpec};
use vbadet_features::{reference, FeatureScratch, FeatureSet};

const REPS: usize = 5;

fn best_of<F: FnMut() -> f64>(mut run: F) -> (Duration, f64) {
    let mut best = Duration::MAX;
    let mut sink = 0.0;
    for _ in 0..REPS {
        let start = Instant::now();
        sink = run();
        best = best.min(start.elapsed());
    }
    (best, sink)
}

fn main() {
    if is_test_run() {
        return;
    }

    // The paper-shaped corpus at scale 0.1 (421 modules, about 3 MB):
    // plain and obfuscated macros in their calibrated mix.
    let macros = generate_macros(&CorpusSpec::paper().scaled(0.1));
    let sources: Vec<&str> = macros.iter().map(|m| m.source.as_str()).collect();
    let docs = sources.len();
    let bytes: usize = sources.iter().map(|s| s.len()).sum();

    // Both passes fold V1 into a sink the optimizer cannot elide.
    let mut scratch = FeatureScratch::default();
    let (fused, fused_sink) = best_of(|| {
        sources
            .iter()
            .map(|s| scratch.extract(FeatureSet::V, s)[0] + scratch.extract(FeatureSet::J, s)[0])
            .sum()
    });
    let (refr, ref_sink) = best_of(|| {
        sources
            .iter()
            .map(|s| reference::v_features(s)[0] + reference::j_features(s)[0])
            .sum()
    });
    assert_eq!(
        fused_sink.to_bits(),
        ref_sink.to_bits(),
        "paths diverged inside the bench itself"
    );

    let fused_docs_per_sec = docs as f64 / fused.as_secs_f64();
    let reference_docs_per_sec = docs as f64 / refr.as_secs_f64();
    let speedup = refr.as_secs_f64() / fused.as_secs_f64();

    println!(
        "features: {docs} modules, {bytes} bytes (V + J per module)\n\
           fused      {fused_docs_per_sec:>10.1} docs/s  ({fused:.3?}/sweep)\n\
           reference  {reference_docs_per_sec:>10.1} docs/s  ({refr:.3?}/sweep)\n\
           speedup    {speedup:>10.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"features\",\n  \"docs\": {docs},\n  \"bytes\": {bytes},\n  \
         \"reps\": {REPS},\n  \
         \"fused_docs_per_sec\": {fused_docs_per_sec:.2},\n  \
         \"reference_docs_per_sec\": {reference_docs_per_sec:.2},\n  \
         \"speedup_vs_reference\": {speedup:.4}\n}}\n"
    );
    write_result("BENCH_features.json", &json);
}
