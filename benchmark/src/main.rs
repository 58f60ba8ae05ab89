//! Seeded end-to-end benchmark of the `vbadet` CLI and scan service.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! benchmark compare PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! Run from the repository root. A run builds `vbadet` from source, trains
//! the model for the seed, generates the workload's inputs from the seed,
//! computes every document's expected outcome in-process, then measures
//! the shipped program (`--trace 0`) or the traced in-process pipeline
//! (`--trace 1`) for S seconds. It prints each metric by name and unit,
//! then one JSON result object as its last line, and exits nonzero when
//! any output was wrong. See README.md for the workloads and metrics.

mod batch;
mod compare;
mod expect;
mod inputs;
mod json;
mod procfs;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use vbadet::{Detector, DetectorConfig};
use vbadet_corpus::generate_macros;

/// The workloads: the three `BENCHMARK.json` lists, in its order, then
/// `serve_campaign`, which runs the same way but is left out of that file
/// because its rate drifts with the host by more than any bound it could
/// hold (README.md).
const WORKLOADS: [&str; 4] = [
    "paper_seq",
    "paper_pool",
    "triage_isolate",
    "serve_campaign",
];

/// Serve-pool documents the traced run of `serve_campaign` scans.
const SERVE_TRACE_DOCS: usize = 512;

/// What every measurement shares.
pub struct Ctx {
    /// The `vbadet` binary built from this checkout.
    pub vbadet: PathBuf,
    /// The seed's model, saved where the CLI can load it.
    pub model: PathBuf,
    /// The same model, loaded back from that file.
    pub detector: Detector,
    /// Scratch directory for this run's inputs.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Metrics and diagnostics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        _ => run_command(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

fn flag_values(args: &[String]) -> Result<(HashMap<&str, &str>, Vec<&str>), String> {
    let mut values = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(key) => {
                let v = it.next().ok_or(format!("--{key} needs a value"))?;
                values.insert(key, v.as_str());
            }
            None => positional.push(a.as_str()),
        }
    }
    Ok((values, positional))
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let (flags, files) = flag_values(args)?;
    let [parent, change] = files[..] else {
        return Err("usage: benchmark compare PARENT.jsonl CHANGE.jsonl [--bench FILE]".into());
    };
    let bench = flags.get("bench").copied().unwrap_or("BENCHMARK.json");
    print!(
        "{}",
        compare::run(Path::new(parent), Path::new(change), Path::new(bench))?
    );
    Ok(ExitCode::SUCCESS)
}

/// Builds `vbadet` from this checkout; the path of the binary.
fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root: no crates/cli to build".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "Cargo.toml", "-p", "vbadet-cli"])
        .stdin(Stdio::null())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building vbadet failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    std::fs::canonicalize(Path::new(&target).join("release/vbadet"))
        .map_err(|e| format!("locating the built vbadet: {e}"))
}

/// Writes `docs` into `dir`; `(path, expected canonical outcome)` pairs.
fn write_docs(
    dir: &Path,
    docs: &[inputs::Doc],
    detector: &Detector,
) -> Result<Vec<(String, String)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    docs.iter()
        .map(|d| {
            let path = dir.join(&d.name);
            std::fs::write(&path, &d.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((
                path.display().to_string(),
                expect::expected(detector, &d.bytes),
            ))
        })
        .collect()
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let (flags, stray) = flag_values(args)?;
    if let Some(s) = stray.first() {
        return Err(format!("unexpected argument {s:?}"));
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("--{k} is required"));
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let traced = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }

    let vbadet = build_cli()?;
    procfs::sync();
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = WorkDir(root.join(format!(
        ".bench_work/{workload}-{seed}-{}",
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;

    // Training is harness time: the CLI only ever loads the saved model.
    let spec = inputs::paper_spec(seed);
    let macros = generate_macros(&spec);
    let trained = Detector::train(
        &DetectorConfig::default(),
        macros.iter().map(|m| (m.source.as_str(), m.obfuscated)),
    );
    let saved = trained.save();
    let model = work.0.join("model.txt");
    std::fs::write(&model, &saved).map_err(|e| format!("{}: {e}", model.display()))?;
    let detector = Detector::load(&saved).map_err(|e| format!("reloading model: {e}"))?;
    let ctx = Ctx {
        vbadet: vbadet.clone(),
        model,
        detector,
        work: work.0.clone(),
        seed,
        seconds: seconds as f64,
    };

    let docs = match workload {
        "paper_seq" | "paper_pool" => inputs::paper_docs(&spec, &macros),
        "triage_isolate" => inputs::triage_docs(seed, &macros),
        _ if traced => serve::trace_docs(seed, &spec, &macros, SERVE_TRACE_DOCS),
        _ => Vec::new(),
    };
    let expected = write_docs(&work.0.join("docs"), &docs, &ctx.detector)?;
    drop(docs);
    let report = if traced {
        let spans = vbadet.with_file_name(format!("spans-{workload}-{seed}.jsonl"));
        trace::run(&ctx, &expected, &spans)?
    } else {
        match workload {
            "paper_seq" => batch::run(&ctx, &["--jobs", "1"], &expected)?,
            "paper_pool" => batch::run(&ctx, &["--jobs", "2"], &expected)?,
            "triage_isolate" => batch::run(&ctx, &["--isolate", "--jobs", "2"], &expected)?,
            _ => serve::run(&ctx, &spec, &macros)?,
        }
    };

    println!(
        "workload {workload}, seed {seed}, {seconds} s, trace {}",
        u8::from(traced)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    println!(
        "  outputs checked: {} attempted, {} wrong",
        report.attempted, report.failed
    );
    let result = report.to_json();
    if let Some(out) = flags.get("out") {
        use std::io::Write;
        let line = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, {}\n",
            json::quote(workload),
            u8::from(traced),
            &result[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{result}");
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
