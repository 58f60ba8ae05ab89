//! The traced run: a workload's documents scanned in-process, layer by
//! layer, through each layer's public API, with a span recorded in the
//! benchmark's own code around every call. Self times come from the span
//! tree; the same loop without spans gives the tracing overhead.

use crate::batch;
use crate::json::quote;
use crate::stats::median;
use crate::{Ctx, Report};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vbadet::extract::{sniff, ContainerKind};
use vbadet::{
    scan_bytes_with_policy, scan_paths_parallel, scan_paths_with_policy, Detector, IsolateConfig,
    ModuleVerdict, ScanOutcome, ScanPolicy, ScoreScratch,
};
use vbadet_ole::OleFile;
use vbadet_ovba::{OvbaError, VbaProject};
use vbadet_vba::{LexScratch, MacroAnalysis};
use vbadet_zip::ZipArchive;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Passes of the CLI and isolate probes, whose medians are used.
const PROBE_PASSES: usize = 3;

/// Fewest rounds of the main loop, however short the run.
const MIN_ROUNDS: usize = 3;

/// One timed call. Spans of one document share `doc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub doc: u32,
}

/// Records spans in memory; when off, records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, doc: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            doc,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if self.on {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    fn span<T>(&mut self, name: &'static str, parent: u32, doc: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, doc);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of every span: its duration minus the part of it that the
/// intervals of its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-name call counts and self-time totals of one pass.
#[derive(Default)]
struct Tally {
    calls: BTreeMap<&'static str, u64>,
    self_ns: BTreeMap<&'static str, u64>,
    root_ns: u64,
}

impl Tally {
    fn of(spans: &[Span]) -> Self {
        let mut t = Tally::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            *t.calls.entry(s.name).or_default() += 1;
            *t.self_ns.entry(s.name).or_default() += own;
            if s.parent == NO_PARENT {
                t.root_ns += s.end - s.start;
            }
        }
        t
    }

    fn ns(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64
    }
}

/// Layers a document passes through, in pipeline order.
const LAYERS: [&str; 7] = [
    "scan.read",
    "zip.parse",
    "zip.inflate",
    "ole.parse",
    "ovba.project",
    "features.extract",
    "ml.predict",
];

/// The scan pipeline, called layer by layer from outside: read, sniff,
/// ZIP central directory, `vbaProject.bin` inflate, OLE parse, VBA project
/// (with MS-OVBA decompression), then features and prediction per module.
/// `None` where a strict layer call fails and the engine would fall back
/// to salvage or report a failure.
fn replay(
    t: &mut Tracer,
    detector: &Detector,
    scratch: &mut ScoreScratch,
    path: &Path,
    doc: u32,
    inflated: &mut u64,
) -> Option<ScanOutcome> {
    let root = t.open("doc", NO_PARENT, doc);
    let out = (|| {
        let bytes = t
            .span("scan.read", root, doc, || std::fs::read(path))
            .ok()?;
        let container = sniff(&bytes)?;
        let part;
        let ole_bytes: &[u8] = match container {
            ContainerKind::Ole => &bytes,
            ContainerKind::Ooxml => {
                let zip = t
                    .span("zip.parse", root, doc, || ZipArchive::parse(&bytes))
                    .ok()?;
                let name = zip
                    .names()
                    .find(|n| n.ends_with("vbaProject.bin"))?
                    .to_string();
                part = t
                    .span("zip.inflate", root, doc, || zip.read_file(&name))
                    .ok()?;
                *inflated += part.len() as u64;
                &part
            }
        };
        let ole = t
            .span("ole.parse", root, doc, || OleFile::parse(ole_bytes))
            .ok()?;
        let project = match t.span("ovba.project", root, doc, || VbaProject::from_ole(&ole)) {
            Ok(project) => project,
            Err(OvbaError::NoVbaProject) if container == ContainerKind::Ole => {
                return Some(ScanOutcome::Clean)
            }
            Err(_) => return None,
        };
        let verdicts = project
            .modules
            .iter()
            .map(|m| {
                t.span("features.extract", root, doc, || {
                    black_box(detector.extract_with(scratch, &m.code));
                });
                ModuleVerdict {
                    module_name: m.name.clone(),
                    verdict: t.span("ml.predict", root, doc, || detector.predict_with(scratch)),
                }
            })
            .collect();
        Some(ScanOutcome::Macros(verdicts))
    })();
    t.close(root);
    out
}

/// One document of the traced run, loaded once.
struct Loaded {
    path: String,
    bytes: Vec<u8>,
    expected: String,
}

/// Whether a layer-by-layer replay agrees with the engine's outcome: equal
/// where the strict layers succeeded, and a failure or salvage where not.
fn agrees(replayed: &Option<ScanOutcome>, expected: &str) -> bool {
    match replayed {
        Some(o) => crate::expect::canonical(o) == expected,
        None => expected.starts_with("FAILED") || expected.contains(" ["),
    }
}

/// One round's numbers, from which medians are taken.
struct Round {
    traced: Tally,
    traced_wall_ns: f64,
    untraced_wall_ns: f64,
    engine_ns: f64,
    probes: Tally,
}

/// Runs the traced measurement over `docs` (`(path, expected)` pairs).
pub fn run(ctx: &Ctx, docs: &[(String, String)], spans_out: &Path) -> Result<Report, String> {
    let started = Instant::now();
    let loaded: Vec<Loaded> = docs
        .iter()
        .map(|(p, e)| {
            Ok(Loaded {
                path: p.clone(),
                bytes: std::fs::read(p).map_err(|err| format!("{p}: {err}"))?,
                expected: e.clone(),
            })
        })
        .collect::<Result<_, String>>()?;
    let sources: Vec<String> = loaded
        .iter()
        .filter_map(|d| vbadet::extract_macros(&d.bytes).ok())
        .flatten()
        .map(|m| m.code)
        .collect();
    let compressed: Vec<Vec<u8>> = sources
        .iter()
        .map(|s| vbadet_ovba::compress(s.as_bytes()))
        .collect();
    let n = loaded.len() as f64;
    let mut report = Report::default();

    // The CLI's per-document cost beyond the library call, and the
    // isolate round trip: both measured on these inputs before the loop.
    let mut cli = Vec::new();
    for _ in 0..PROBE_PASSES {
        let pass = batch::scan(ctx, &["--jobs", "1"], docs, None)?;
        report.attempted += docs.len() as u64;
        report.failed += pass.mismatches as u64;
        cli.push(pass.seconds);
    }
    let paths: Vec<&str> = docs.iter().map(|(p, _)| p.as_str()).collect();
    let isolated = ScanPolicy::default()
        .isolated(IsolateConfig::new(vec![
            ctx.vbadet.display().to_string(),
            vbadet::scan::isolate::WORKER_SUBCOMMAND.to_string(),
        ]))
        .jobs(2);
    let (mut iso, mut par) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_PASSES {
        for (isolate, times) in [(true, &mut iso), (false, &mut par)] {
            let t0 = Instant::now();
            let records = if isolate {
                scan_paths_with_policy(&ctx.detector, &paths, &isolated)
            } else {
                scan_paths_parallel(&ctx.detector, &paths, &ScanPolicy::default(), 2)
            }
            .records;
            times.push(t0.elapsed().as_secs_f64());
            report.attempted += docs.len() as u64;
            report.failed += records
                .iter()
                .zip(&loaded)
                .filter(|(r, d)| crate::expect::canonical(&r.outcome) != d.expected)
                .count() as u64;
        }
    }

    let policy = ScanPolicy::default();
    let mut scratch = ScoreScratch::default();
    let mut lex = LexScratch::default();
    let mut rounds = Vec::new();
    let mut last_spans = Vec::new();
    let (mut modules, mut inflated) = (0u64, 0u64);
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < ctx.seconds {
        // Each document goes through the traced replay, the same replay
        // without spans and the engine call back to back, in an order that
        // rotates, so slow drifts of the machine fall on all three alike.
        let mut traced = Tracer::new(true);
        let mut untraced = Tracer::new(false);
        let mut engine = Tracer::new(true);
        let (mut traced_wall_ns, mut untraced_wall_ns) = (0.0, 0.0);
        let mut round_inflated = 0;
        for (i, d) in loaded.iter().enumerate() {
            let (doc, path) = (i as u32, Path::new(&d.path));
            for step in 0..3 {
                let t0 = Instant::now();
                match (step + i + rounds.len()) % 3 {
                    0 => {
                        let out = replay(
                            &mut traced,
                            &ctx.detector,
                            &mut scratch,
                            path,
                            doc,
                            &mut round_inflated,
                        );
                        traced_wall_ns += t0.elapsed().as_nanos() as f64;
                        report.attempted += 1;
                        report.failed += u64::from(!agrees(&out, &d.expected));
                    }
                    1 => {
                        black_box(replay(
                            &mut untraced,
                            &ctx.detector,
                            &mut scratch,
                            path,
                            doc,
                            &mut 0,
                        ));
                        untraced_wall_ns += t0.elapsed().as_nanos() as f64;
                    }
                    _ => {
                        engine.span("scan.engine", NO_PARENT, doc, || {
                            black_box(scan_bytes_with_policy(&ctx.detector, &d.bytes, &policy))
                        });
                    }
                }
            }
        }

        let mut probes = Tracer::new(true);
        for (i, (source, packed)) in sources.iter().zip(&compressed).enumerate() {
            let i = i as u32;
            probes.span("ovba.decompress", NO_PARENT, i, || {
                black_box(vbadet_ovba::decompress(packed).expect("own compressed stream"))
            });
            probes.span("vba.lex", NO_PARENT, i, || {
                MacroAnalysis::with_scratch(black_box(source), &mut lex).recycle(&mut lex)
            });
        }
        for (i, d) in loaded.iter().enumerate() {
            probes.span("cache.sha256", NO_PARENT, i as u32, || {
                black_box(vbadet::scan::cache::sha256(&d.bytes))
            });
        }

        let tally = Tally::of(&traced.spans);
        modules = tally.calls.get("ml.predict").copied().unwrap_or(0);
        inflated = round_inflated;
        rounds.push(Round {
            traced: tally,
            traced_wall_ns,
            untraced_wall_ns,
            engine_ns: Tally::of(&engine.spans).ns("scan.engine"),
            probes: Tally::of(&probes.spans),
        });
        last_spans = traced.spans;
    }
    write_spans(spans_out, &last_spans)?;

    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let layer_us = |name: &'static str, per: f64| med(&|r: &Round| r.traced.ns(name) / per / 1e3);
    let source_bytes: f64 = sources.iter().map(|s| s.len() as f64).sum();
    let doc_bytes: f64 = loaded.iter().map(|d| d.bytes.len() as f64).sum();
    let mb_per_s = |bytes: f64, ns: f64| bytes / ns * 1e3;
    let pipeline: f64 = LAYERS[1..].iter().map(|l| layer_us(l, n)).sum();
    let doc_us = med(&|r: &Round| r.traced.root_ns as f64 / n / 1e3);
    let engine_us = med(&|r: &Round| r.engine_ns / n / 1e3);
    let m = modules.max(1) as f64;

    report.note(format!(
        "{} rounds over {} documents, {} modules; spans of the last traced pass in {}",
        rounds.len(),
        loaded.len(),
        modules,
        spans_out.display()
    ));
    report.note(format!(
        "{:<18} {:>8} {:>12} {:>10} {:>7}",
        "layer", "calls", "self us/doc", "MB/s", "share"
    ));
    let last = &rounds[rounds.len() - 1].traced;
    for name in LAYERS.iter().copied().chain(["doc"]) {
        let us = if name == "doc" {
            med(&|r: &Round| r.traced.ns("doc") / n / 1e3)
        } else {
            layer_us(name, n)
        };
        report.note(format!(
            "{:<18} {:>8} {:>12.2} {:>10} {:>6.1}%",
            if name == "doc" { "(remainder)" } else { name },
            last.calls.get(name).copied().unwrap_or(0),
            us,
            match name {
                "scan.read" => format!("{:.1}", doc_bytes / (us * n)),
                "zip.inflate" => format!("{:.1}", inflated as f64 / (us * n)),
                _ => "-".to_string(),
            },
            us / doc_us * 100.0
        ));
    }
    let self_sum: u64 = last.self_ns.values().sum();
    report.note(format!(
        "self times + remainder = {:.1} us, document total = {:.1} us (last pass)",
        self_sum as f64 / n / 1e3,
        last.root_ns as f64 / n / 1e3
    ));

    let probe_mb =
        |name: &'static str, bytes: f64| med(&|r: &Round| mb_per_s(bytes, r.probes.ns(name)));
    report.metric("zip.parse_us_per_doc", layer_us("zip.parse", n), "us");
    report.metric(
        "zip.inflate_mb_per_s",
        med(&|r: &Round| mb_per_s(inflated as f64, r.traced.ns("zip.inflate"))),
        "MB/s",
    );
    report.metric("ole.parse_us_per_doc", layer_us("ole.parse", n), "us");
    report.metric("ovba.project_us_per_doc", layer_us("ovba.project", n), "us");
    report.metric(
        "ovba.decompress_mb_per_s",
        probe_mb("ovba.decompress", source_bytes),
        "MB/s",
    );
    report.metric(
        "vba.lex_mb_per_s",
        probe_mb("vba.lex", source_bytes),
        "MB/s",
    );
    report.metric(
        "features.extract_us_per_module",
        layer_us("features.extract", m),
        "us",
    );
    report.metric("ml.predict_us_per_module", layer_us("ml.predict", m), "us");
    report.metric("scan.read_us_per_doc", layer_us("scan.read", n), "us");
    report.metric("scan.engine_us_per_doc", engine_us - pipeline, "us");
    report.metric(
        "scan.cli_us_per_doc",
        median(&cli) / n * 1e6 - engine_us - layer_us("scan.read", n),
        "us",
    );
    report.metric(
        "isolate.ipc_us_per_doc",
        (median(&iso) - median(&par)) / n * 1e6,
        "us",
    );
    report.metric(
        "cache.sha256_mb_per_s",
        probe_mb("cache.sha256", doc_bytes),
        "MB/s",
    );
    report.metric("trace.doc_us_per_doc", doc_us, "us");
    report.metric(
        "trace.remainder_us_per_doc",
        med(&|r: &Round| r.traced.ns("doc") / n / 1e3),
        "us",
    );
    report.metric(
        "trace.overhead_pct",
        med(&|r: &Round| (r.traced_wall_ns / r.untraced_wall_ns - 1.0) * 100.0),
        "%",
    );
    report.metric("scan.docs", n, "count");
    report.metric("scan.modules", modules as f64, "count");
    report.metric("scan.bytes", doc_bytes, "bytes");
    Ok(report)
}

/// Writes spans as JSON lines: name, start and end in ns from the pass
/// start, parent index (or null) and document id.
fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"doc\":{}}}\n",
            quote(s.name),
            s.start,
            s.end,
            s.doc
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            doc: 0,
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        // doc [0,100): read [5,20), parse [20,60) with child [30,50),
        // predict [55,70) overlapping parse, and a child spilling past the
        // root's end.
        let spans = [
            span("doc", 0, 100, NO_PARENT),
            span("read", 5, 20, 0),
            span("parse", 20, 60, 0),
            span("inner", 30, 50, 2),
            span("predict", 55, 70, 0),
            span("late", 90, 130, 0),
        ];
        let own = self_times(&spans);
        // Children of doc cover [5,70) and [90,100): 75 of 100.
        assert_eq!(own, vec![25, 15, 20, 20, 15, 40]);
        // Without overlap, self times of a tree sum to its root's duration.
        let tree = &spans[..4];
        assert_eq!(self_times(tree), vec![45, 15, 20, 20]);
        let tally = Tally::of(tree);
        assert_eq!(tally.root_ns, 100);
        assert_eq!(tally.self_ns.values().sum::<u64>(), 100);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("doc", NO_PARENT, 0);
        t.span("x", id, 0, || ());
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
