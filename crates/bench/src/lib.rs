//! Shared plumbing for the table/figure regeneration binaries and the
//! hand-timed benches under `benches/`.
//!
//! Every binary accepts the corpus scale through the `VBADET_SCALE`
//! environment variable (default `1.0` = the paper's full 4,212-macro
//! corpus; e.g. `VBADET_SCALE=0.1` for a quick pass) and the fold count
//! through `VBADET_FOLDS` (default 10, as in §V).
//!
//! The benches (`scan_parallel`, `features`, `cache` and `reload`, which
//! feed the `scripts/ci.sh` gates) each write one `results/BENCH_*.json`.
//! The helpers below are the pieces they share; their generated inputs
//! are part of what the committed baselines measured, so changing one
//! changes every baseline that uses it.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vbadet::{Detector, DetectorConfig};
use vbadet_corpus::CorpusSpec;
use vbadet_ovba::VbaProjectBuilder;

/// Reads `VBADET_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("VBADET_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&f| f > 0.0 && f <= 1.0)
        .unwrap_or(1.0)
}

/// Reads `VBADET_FOLDS` (default 10).
pub fn folds() -> usize {
    std::env::var("VBADET_FOLDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&k| k >= 2)
        .unwrap_or(10)
}

/// The corpus spec for the configured scale.
pub fn corpus_spec() -> CorpusSpec {
    let f = scale();
    let spec = CorpusSpec::paper();
    if (f - 1.0).abs() < f64::EPSILON {
        spec
    } else {
        spec.scaled(f)
    }
}

/// Prints a banner naming the experiment and its configuration.
pub fn banner(what: &str) {
    let spec = corpus_spec();
    println!("=== {what} ===");
    println!(
        "corpus: scale {:.3} -> {} macros / {} files (seed {:#x}), {} folds",
        scale(),
        spec.total_macros(),
        spec.total_files(),
        spec.seed,
        folds(),
    );
    println!();
}

/// Renders an ASCII histogram line: `label | ####### value`.
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    format!(
        "{label:<28} | {:<width$} {value:.3}",
        "#".repeat(filled.min(width))
    )
}

/// `cargo test` runs `harness = false` bench binaries with `--test`;
/// timing means nothing there, so every bench returns at once when this
/// is true.
pub fn is_test_run() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Creates an empty per-process scratch directory for one bench's
/// on-disk inputs.
pub fn fresh_dir(bench: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vbadet-bench-{bench}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The small detector every scanning bench uses: the default MLP on V,
/// trained on the paper-shaped corpus at scale 0.002.
pub fn bench_detector() -> Detector {
    Detector::train_on_corpus(
        &DetectorConfig::default(),
        &CorpusSpec::paper().scaled(0.002),
    )
}

/// A realistically sized module (~150 statements), distinct for each `i`:
/// scanning one costs real parse/feature work, not thread handoff.
pub fn macro_project(i: usize) -> Vec<u8> {
    let mut body = String::new();
    for line in 0..150 {
        body.push_str(&format!(
            "    v{line} = v{} + {i} Mod {}\r\n",
            line.max(1) - 1,
            line + 2
        ));
    }
    let mut b = VbaProjectBuilder::new("P");
    b.add_module(
        &format!("Module{i}"),
        &format!("Sub Work{i}()\r\n{body}End Sub\r\n"),
    );
    b.build().unwrap()
}

/// The one document the reload bench sends over and over: a module of
/// ~150 statements.
pub fn served_macro_project() -> Vec<u8> {
    let mut body = String::new();
    for line in 0..150 {
        body.push_str(&format!(
            "    v{line} = v{} + {}\r\n",
            line.max(1) - 1,
            line + 2
        ));
    }
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", &format!("Sub Work()\r\n{body}End Sub\r\n"));
    b.build().unwrap()
}

/// Best wall clock of `reps` runs of a batch of `docs` documents; each run
/// returns how many documents it scanned, which must be all of them.
pub fn best_of<F: FnMut() -> usize>(reps: usize, docs: usize, mut run: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let scanned = run();
        let elapsed = start.elapsed();
        assert_eq!(scanned, docs, "every rep must scan the whole batch");
        best = best.min(elapsed);
    }
    best
}

/// Writes a bench's JSON to `results/<file>` at the repository root.
pub fn write_result(file: &str, json: &str) {
    let results_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results_dir).unwrap();
    let out = results_dir.join(file);
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());
}

/// Latches the service drain when dropped, so a bench that panics while
/// a server runs in its scope still stops the server: otherwise the
/// scope join waits forever and the panic is masked by a hang.
pub struct DrainOnDrop;

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        vbadet::scan::interrupt::request_drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        // Env-independent behaviour of the helpers themselves.
        assert!(scale() > 0.0 && scale() <= 1.0);
        assert!(folds() >= 2);
        assert!(corpus_spec().total_macros() > 0);
    }

    #[test]
    fn bars_scale() {
        let b = bar("x", 0.5, 1.0, 10);
        assert!(b.contains("#####"));
        assert!(!bar("x", 0.0, 1.0, 10).contains('#'));
    }
}
