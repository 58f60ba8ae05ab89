//! Steady-state feature extraction makes no heap allocation (DESIGN §14):
//! once one `FeatureScratch` has seen a set of sources, a second pass
//! over them allocates nothing, including for `""`-escaped string
//! literals and non-ASCII characters. That holds for a scratch that
//! alternates V and J (both lexer modes share its buffers) and for one
//! that only ever scores V1–V15 (the V-mode pass alone, as a detector on
//! V scores).
//!
//! The tracking allocator counts per thread, so the figure is this test
//! thread's own allocations: another test in this file could run beside
//! it without disturbing the count.

use vbadet::memguard::{cumulative_allocs, TrackingAllocator};
use vbadet_features::{FeatureScratch, FeatureSet};

#[allow(dead_code)]
mod common;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn a_warm_feature_scratch_extracts_without_allocating() {
    let corpus = vbadet_corpus::generate_macros(&vbadet_corpus::CorpusSpec::paper().scaled(0.05));
    let sources: Vec<&str> = common::BASES
        .iter()
        .copied()
        .chain(corpus.iter().map(|m| m.source.as_str()))
        .collect();
    for sets in [&[FeatureSet::V, FeatureSet::J][..], &[FeatureSet::V]] {
        let mut scratch = FeatureScratch::default();
        let pass = |scratch: &mut FeatureScratch| {
            let mut sink = 0.0;
            for src in &sources {
                for &set in sets {
                    sink += scratch.extract(set, src)[0];
                }
            }
            sink
        };
        let warm = pass(&mut scratch);
        let (before, _) = cumulative_allocs();
        let again = pass(&mut scratch);
        let (after, _) = cumulative_allocs();
        assert_eq!(warm.to_bits(), again.to_bits());
        assert_eq!(
            after - before,
            0,
            "a warm {sets:?} FeatureScratch allocated over {} sources",
            sources.len()
        );
    }
}
