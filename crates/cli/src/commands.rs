//! CLI subcommand implementations.

use std::error::Error;
use std::ffi::{OsStr, OsString};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vbadet::{
    extract_macros, replay_journal, scan_paths_journaled, ClassifierKind, Detector, DetectorConfig,
    IsolateConfig, MetricsSink, ScanCache, ScanJournal, ScanLimits, ScanOutcome, ScanPolicy,
};
use vbadet_corpus::{generate_macros, CorpusSpec, DocumentFactory};

type CmdResult = Result<(), Box<dyn Error>>;

/// The scan policy flags `scan` and `serve` share (`policy_from_flags`).
const POLICY: &[&str] = &["deadline-ms", "fuel", "limits", "max-scan-mem-mb"];

/// The flags that pick the detector: `--model`, or the training corpus
/// and classifier (`detector_from_flags`).
const DETECTOR: &[&str] = &["classifier", "model", "scale", "seed"];

/// A command, the flags it reads that take a value (in groups), and the
/// bare switches it reads.
type CommandFlags = (
    &'static str,
    &'static [&'static [&'static str]],
    &'static [&'static str],
);

/// The flags each command reads. A command takes no flag outside its
/// entry.
const COMMANDS: &[CommandFlags] = &[
    (
        "scan",
        &[
            POLICY,
            DETECTOR,
            &[
                "cache",
                "cache-entries",
                "jobs",
                "journal",
                "metrics-json",
                "resume",
            ],
        ],
        &["isolate", "stats"],
    ),
    (
        "serve",
        &[
            POLICY,
            DETECTOR,
            &[
                "breaker-backoff-ms",
                "breaker-threshold",
                "cache-entries",
                "heartbeat-ms",
                "jobs",
                "journal",
                "metrics-json",
                "queue",
                "socket",
                "tcp",
            ],
        ],
        &["in-process"],
    ),
    ("extract", &[], &[]),
    ("obfuscate", &[&["seed", "techniques"]], &[]),
    ("deobfuscate", &[], &[]),
    ("corpus", &[&["out", "scale", "seed"]], &[]),
    ("train", &[&["classifier", "out", "scale", "seed"]], &[]),
    ("evaluate", &[&["folds", "scale", "seed"]], &[]),
];

/// Minimal flag parser: `--key value` pairs, bare `--switch` flags, plus
/// positional arguments, for one command's flags (`COMMANDS`). Any other
/// `--key` is an error: guessing that it takes a value would swallow the
/// path after it, and ignoring it would run without what it asked for.
/// Positional arguments are paths and keep their bytes; a flag or flag
/// value that is not UTF-8 is an error.
struct Flags {
    values: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
    positional: Vec<OsString>,
}

/// `arg` as UTF-8, or the usage error for it.
fn utf8(arg: &OsStr) -> Result<&str, String> {
    arg.to_str()
        .ok_or_else(|| format!("argument {arg:?} is not valid UTF-8"))
}

/// Whether `command`'s entry in `COMMANDS` lists `key` as a value flag
/// (`switch` false) or as a switch (`switch` true).
fn takes(command: &str, key: &str, switch: bool) -> bool {
    COMMANDS
        .iter()
        .filter(|(name, ..)| *name == command)
        .any(|(_, values, switches)| {
            if switch {
                switches.contains(&key)
            } else {
                values.iter().any(|group| group.contains(&key))
            }
        })
}

impl Flags {
    fn parse(command: &str, args: &[OsString]) -> Result<Self, Box<dyn Error>> {
        let mut values = std::collections::HashMap::new();
        let mut switches = std::collections::HashSet::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if !arg.as_encoded_bytes().starts_with(b"--") {
                positional.push(arg.clone());
                continue;
            }
            let key = &utf8(arg)?[2..];
            if takes(command, key, true) {
                switches.insert(key.to_string());
                continue;
            }
            if !takes(command, key, false) {
                let known = COMMANDS
                    .iter()
                    .any(|(name, ..)| takes(name, key, false) || takes(name, key, true));
                return Err(if known {
                    format!("{command} does not take --{key}")
                } else {
                    format!("unknown flag --{key}")
                }
                .into());
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("--{key} requires a value"))?;
            values.insert(key.to_string(), utf8(value)?.to_string());
        }
        // A loaded model ignores the flags that would train one.
        if values.contains_key("model") {
            if let Some(key) = ["classifier", "scale", "seed"]
                .into_iter()
                .find(|key| values.contains_key(*key))
            {
                return Err(format!(
                    "{command}: --{key} trains a detector, --model loads one: pass one or the other"
                )
                .into());
            }
        }
        Ok(Flags {
            values,
            switches,
            positional,
        })
    }

    fn has(&self, key: &str) -> bool {
        self.switches.contains(key)
    }

    /// `--key`'s value parsed as a `T`, or `default` when it is absent.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Box<dyn Error>>
    where
        T::Err: Error + 'static,
    {
        Ok(match self.values.get(key) {
            Some(v) => v.parse()?,
            None => default,
        })
    }

    /// `--classifier NAME`, in any case; the MLP when absent.
    fn classifier(&self) -> Result<ClassifierKind, Box<dyn Error>> {
        let Some(name) = self.values.get("classifier") else {
            return Ok(ClassifierKind::Mlp);
        };
        let name = name.to_ascii_lowercase();
        ClassifierKind::from_tag(&name).ok_or_else(|| format!("unknown classifier: {name}").into())
    }
}

/// Loads `--model FILE`, or trains a fresh detector on the synthetic
/// corpus (`--scale`, `--seed`, `--classifier`). Shared by `scan` and
/// `serve`, which differ only in their default corpus scale.
fn detector_from_flags(flags: &Flags, default_scale: f64) -> Result<Detector, Box<dyn Error>> {
    Ok(match flags.values.get("model") {
        Some(path) => {
            eprintln!("loading detector from {path}…");
            Detector::load(&std::fs::read_to_string(path)?)?
        }
        None => {
            let scale = flags.get("scale", default_scale)?;
            let seed = flags.get("seed", 0xD5)?;
            let classifier = flags.classifier()?;
            eprintln!("training {classifier} detector on synthetic corpus (scale {scale})…");
            let config = DetectorConfig {
                classifier,
                seed,
                ..DetectorConfig::default()
            };
            Detector::train_on_corpus(&config, &spec_at(scale, seed))
        }
    })
}

fn spec_at(scale: f64, seed: u64) -> CorpusSpec {
    let spec = CorpusSpec::paper().with_seed(seed);
    if (scale - 1.0).abs() < f64::EPSILON {
        spec
    } else {
        spec.scaled(scale)
    }
}

/// The first SIGINT (Ctrl-C) or SIGTERM (`kill`, a supervisor's stop)
/// requests a graceful drain; a second signal of either kind force-exits
/// with the conventional 128+signum code. Only atomics and `_exit` — both
/// async-signal-safe — run in the handler.
#[cfg(unix)]
fn install_signal_drain() {
    use crate::sig::{signal, SIGINT, SIGTERM};
    use std::sync::atomic::{AtomicBool, Ordering};
    static SEEN: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(signum: i32) {
        extern "C" {
            fn _exit(code: i32) -> !;
        }
        if SEEN.swap(true, Ordering::Relaxed) {
            unsafe { _exit(128 + signum) }
        }
        vbadet::scan::interrupt::request_drain();
    }
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_drain() {}

/// SIGHUP asks `vbadet serve` for a model hot-reload from its `--model`
/// path — the conventional "re-read your config" signal, here meaning
/// "the model file changed under you". The handler is one atomic store;
/// the serve accept loop does the actual load and swap.
#[cfg(unix)]
fn install_sighup_reload() {
    use crate::sig::{signal, SIGHUP};
    extern "C" fn on_hup(_signum: i32) {
        vbadet::request_reload();
    }
    unsafe {
        signal(SIGHUP, on_hup as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sighup_reload() {}

/// The per-request scan policy `scan` and `serve` share: `--limits`,
/// `--deadline-ms`, `--fuel` and `--max-scan-mem-mb`. `cmd`
/// prefixes the error messages.
fn policy_from_flags(cmd: &str, flags: &Flags) -> Result<ScanPolicy, Box<dyn Error>> {
    let limits = match flags.values.get("limits").map(String::as_str) {
        None | Some("default") => ScanLimits::default(),
        Some("strict") => ScanLimits::strict(),
        Some(other) => return Err(format!("unknown limits profile: {other}").into()),
    };
    let mut policy = ScanPolicy::with_limits(limits);
    if let Some(ms) = flags.values.get("deadline-ms") {
        policy = policy.deadline_ms(ms.parse()?);
    }
    if let Some(units) = flags.values.get("fuel") {
        policy = policy.fuel(units.parse()?);
    }
    if let Some(mb) = flags.values.get("max-scan-mem-mb") {
        let mb: u64 = mb.parse()?;
        if mb == 0 {
            return Err(format!("{cmd}: --max-scan-mem-mb must be at least 1").into());
        }
        policy = policy.max_scan_mem_bytes(mb << 20);
    }
    Ok(policy)
}

pub fn scan(args: &[OsString]) -> Result<ExitCode, Box<dyn Error>> {
    let flags = Flags::parse("scan", args)?;
    if flags.positional.is_empty() {
        return Err("scan: at least one file required".into());
    }
    let mut policy = policy_from_flags("scan", &flags)?;
    // Metrics are pay-for-what-you-ask: the sink stays disabled (and
    // near-free) unless the run wants `--stats` output or a JSON dump.
    let metrics_json = flags.values.get("metrics-json").cloned();
    if flags.has("stats") || metrics_json.is_some() {
        policy = policy.with_metrics(MetricsSink::enabled());
    }
    // Default to one worker per available core; `--jobs 1` pins the scan
    // to the sequential in-thread engine (the output is identical either
    // way — parallelism only changes the wall clock).
    let default_jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = flags.get("jobs", default_jobs)?;
    if jobs == 0 {
        return Err(
            "scan: --jobs must be at least 1 (use --jobs 1 for the sequential engine)".into(),
        );
    }
    policy = policy.jobs(jobs);
    if flags.has("isolate") {
        policy = policy.isolated(IsolateConfig::current_exe()?);
    }
    // `--cache DIR` fronts the batch with the crash-safe on-disk result
    // cache: previously scanned content (by digest, under this detector
    // and policy) is answered without re-extracting or re-scoring.
    if let Some(dir) = flags.values.get("cache") {
        let capacity = flags.get("cache-entries", 65_536)?;
        if capacity == 0 {
            return Err("scan: --cache-entries must be at least 1 with --cache".into());
        }
        let cache = ScanCache::persistent(dir, capacity)
            .map_err(|e| format!("scan: opening cache {dir}: {e}"))?;
        for warning in cache.load_warnings() {
            eprintln!("cache warning: {warning}");
        }
        eprintln!("cache at {dir}: {} entries loaded", cache.len());
        policy = policy.with_cache(std::sync::Arc::new(cache));
    } else if flags.values.contains_key("cache-entries") {
        return Err("scan: --cache-entries only applies with --cache DIR".into());
    }
    // Ctrl-C drains instead of killing: stop dispatching, flush the
    // journal, report what was decided, exit 3 so the run is resumable.
    policy = policy.drain_on_interrupt();
    vbadet::scan::interrupt::reset();
    install_signal_drain();
    let resume = match flags.values.get("resume") {
        Some(path) => {
            let replay = replay_journal(path)?;
            if let Some(warning) = &replay.warning {
                eprintln!("warning: {warning}");
            }
            eprintln!(
                "resuming from {path}: {} documents already decided, {} mid-scan re-attempted",
                replay.completed_count(),
                replay.in_flight.len()
            );
            Some(replay)
        }
        None => None,
    };
    let journal_path = flags.values.get("journal");
    let mut journal = journal_path.map(ScanJournal::create).transpose()?;
    let detector = detector_from_flags(&flags, 0.1)?;

    // The batch never aborts: every input is processed, failures are
    // per-file records, and the exit status is decided only at the end.
    let report = scan_paths_journaled(
        &detector,
        &flags.positional,
        &policy,
        journal.as_mut(),
        resume.as_ref(),
    );
    let mut any_flagged = false;
    for record in &report.records {
        let path = record.path.display();
        match &record.outcome {
            ScanOutcome::Clean => println!("{path}: no VBA macros"),
            ScanOutcome::Macros(verdicts)
            | ScanOutcome::Salvaged(verdicts)
            | ScanOutcome::Recovered { verdicts, .. } => {
                let provenance = match &record.outcome {
                    ScanOutcome::Salvaged(_) => " [salvaged]".to_string(),
                    ScanOutcome::Recovered { rung, .. } => {
                        format!(" [recovered:{}]", rung.label())
                    }
                    _ => String::new(),
                };
                if verdicts.is_empty() {
                    println!("{path}: no VBA macros{provenance}");
                }
                for v in verdicts {
                    let mark = if v.verdict.obfuscated {
                        "OBFUSCATED"
                    } else {
                        "clean"
                    };
                    any_flagged |= v.verdict.obfuscated;
                    println!(
                        "{path}: module {:<20} {:>11} (score {:+.3}){provenance}",
                        v.module_name, mark, v.verdict.score
                    );
                }
            }
            ScanOutcome::Failed { class, detail } => {
                println!("{path}: FAILED [{}] {detail}", class.label());
            }
        }
    }
    // Only a resumed journal from the retired ladder holds recovered
    // outcomes, so the count is shown only when there is one.
    let recovered = match report.recovered() {
        0 => String::new(),
        n => format!(", {n} recovered"),
    };
    eprintln!(
        "scanned {}: {} clean, {} flagged, {} salvaged{recovered}, {} failed",
        report.scanned(),
        report.clean(),
        report.flagged(),
        report.salvaged(),
        report.failed()
    );
    if any_flagged {
        eprintln!("note: obfuscation != maliciousness; see the paper's §VI.A");
    }
    // Metrics are emitted before the failure exits below: a batch with
    // failed inputs is exactly the run whose stage counters matter most.
    if let Some(metrics) = &report.metrics {
        if flags.has("stats") {
            eprint!("{}", metrics.render_text());
        }
        if let Some(path) = &metrics_json {
            write_atomically(Path::new(path), metrics.to_json().as_bytes())?;
            eprintln!("wrote pipeline metrics to {path}");
        }
    }
    if let Some(e) = &report.journal_error {
        return Err(format!("journal write failed mid-scan: {e}").into());
    }
    // Exit-code precedence (see `vbadet help`): interruption wins (the run is
    // resumable and the user should know), then batch failures, then
    // findings, then clean.
    if report.interrupted {
        eprintln!(
            "interrupted: {} of {} documents decided and journaled; resume with --resume",
            report.scanned(),
            flags.positional.len()
        );
        return Ok(ExitCode::from(3));
    }
    if report.failed() > 0 {
        return Err(format!("{} of {} inputs failed", report.failed(), report.scanned()).into());
    }
    Ok(if any_flagged {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `vbadet serve`: the resident scan service. Binds the requested socket,
/// runs [`vbadet::serve`] until a SIGTERM/SIGINT drain, then flushes
/// metrics, removes the socket file and exits 3 (the same "stopped on
/// request, work is accounted for" slot as an interrupted batch).
pub fn serve(args: &[OsString]) -> Result<ExitCode, Box<dyn Error>> {
    let flags = Flags::parse("serve", args)?;
    if let Some(stray) = flags.positional.first() {
        return Err(format!("serve: unexpected positional argument {stray:?}").into());
    }
    let mut policy = policy_from_flags("serve", &flags)?;
    // Process isolation is the default for a resident service — a hostile
    // document costs one worker process, never the daemon. `--in-process`
    // opts out for trusted inputs where spawn latency matters.
    if !flags.has("in-process") {
        let mut isolate = IsolateConfig::current_exe()?;
        if let Some(ms) = flags.values.get("heartbeat-ms") {
            // A zero heartbeat times out every handshake, so every
            // isolated scan would answer "worker unavailable".
            let ms: u64 = ms.parse()?;
            if ms == 0 {
                return Err("serve: --heartbeat-ms must be at least 1".into());
            }
            isolate = isolate.heartbeat(std::time::Duration::from_millis(ms));
        }
        policy = policy.isolated(isolate);
    } else if flags.values.contains_key("heartbeat-ms") {
        return Err("serve: --heartbeat-ms only applies to isolated workers".into());
    }
    // The service caches by default: a resident scanner sees the same
    // attachment bytes again and again, and a hit skips the whole scan
    // (in isolate mode, the worker round trip too). `--cache-entries 0`
    // turns it off.
    let cache_entries = flags.get("cache-entries", 4096)?;
    if cache_entries > 0 {
        policy = policy.with_cache(std::sync::Arc::new(ScanCache::in_memory(cache_entries)));
    }
    policy = policy.with_metrics(MetricsSink::enabled());

    let mut config = vbadet::ServeConfig::new(policy);
    config.workers = flags.get("jobs", config.workers)?;
    if config.workers == 0 {
        return Err("serve: --jobs must be at least 1".into());
    }
    config.queue_depth = flags.get("queue", config.queue_depth)?;
    if config.queue_depth == 0 {
        return Err("serve: --queue must be at least 1".into());
    }
    config.breaker_threshold = flags.get("breaker-threshold", config.breaker_threshold)?;
    config.breaker_backoff = std::time::Duration::from_millis(flags.get(
        "breaker-backoff-ms",
        config.breaker_backoff.as_millis() as u64,
    )?);

    let detector = detector_from_flags(&flags, 0.01)?;
    // SIGHUP reloads from the same file `--model` loaded: retrain, drop
    // the new model over the old path, signal the daemon. Without
    // --model there is nowhere to reload from, and SIGHUP-driven
    // reloads count as failed in the reload.* metrics.
    config.reload_path = flags.values.get("model").map(PathBuf::from);

    let socket = flags.values.get("socket").cloned();
    let listener = match (&socket, flags.values.get("tcp")) {
        (Some(_), Some(_)) => return Err("serve: --socket and --tcp are mutually exclusive".into()),
        (Some(path), None) => {
            #[cfg(unix)]
            {
                vbadet::Listener::bind_unix(path)?
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("serve: --socket needs a Unix platform; use --tcp ADDR".into());
            }
        }
        (None, Some(addr)) => vbadet::Listener::bind_tcp(addr)?,
        (None, None) => return Err("serve: --socket PATH or --tcp ADDR required".into()),
    };
    // The bound address goes to stderr before the first accept so a
    // supervisor (or the soak harness) can wait for it; with `--tcp :0`
    // this is the only place the ephemeral port is reported.
    match listener.tcp_addr() {
        Some(addr) => eprintln!("listening on tcp {addr}"),
        None => eprintln!(
            "listening on unix {}",
            socket.as_deref().unwrap_or_default()
        ),
    }
    eprintln!(
        "serving with {} workers, queue depth {}, breaker threshold {} ({}); \
         SIGTERM or Ctrl-C drains; SIGHUP or `reload <path>` hot-swaps the model",
        config.workers,
        config.queue_depth,
        config.breaker_threshold,
        if flags.has("in-process") {
            "in-process"
        } else {
            "isolated"
        }
    );

    let journal_path = flags.values.get("journal");
    let mut journal = journal_path.map(ScanJournal::create).transpose()?;
    vbadet::scan::interrupt::reset();
    vbadet::reset_reload_requests();
    install_signal_drain();
    install_sighup_reload();
    let summary = vbadet::serve(&listener, &detector, &config, journal.as_mut());

    if let Some(path) = &socket {
        let _ = std::fs::remove_file(path);
    }
    if let (Some(metrics), Some(path)) = (&summary.metrics, flags.values.get("metrics-json")) {
        write_atomically(Path::new(path), metrics.to_json().as_bytes())?;
        eprintln!("wrote service metrics to {path}");
    }
    eprintln!(
        "drained: {} accepted, {} shed, {} responses",
        summary.accepted, summary.shed, summary.responses
    );
    if let Some(e) = &summary.journal_error {
        return Err(format!("journal write failed mid-run: {e}").into());
    }
    Ok(ExitCode::from(3))
}

pub fn extract(args: &[OsString]) -> CmdResult {
    let flags = Flags::parse("extract", args)?;
    let path = flags.positional.first().ok_or("extract: file required")?;
    extract_to(Path::new(path), &mut std::io::stdout().lock())
}

/// Writes every macro module of the document at `path` to `out`.
fn extract_to(path: &Path, out: &mut impl std::io::Write) -> CmdResult {
    let bytes = std::fs::read(path)?;
    let macros = extract_macros(&bytes)?;
    if macros.is_empty() {
        eprintln!("{}: no VBA macros", path.display());
        return Ok(());
    }
    for m in macros {
        writeln!(
            out,
            "' ===== project {} / module {} ({:?}) =====",
            m.project_name, m.module_name, m.container
        )?;
        writeln!(out, "{}", m.code)?;
    }
    Ok(())
}

pub fn obfuscate(args: &[OsString]) -> CmdResult {
    use rand::SeedableRng;
    use vbadet_obfuscate::{Obfuscator, Technique};

    let flags = Flags::parse("obfuscate", args)?;
    let path = flags
        .positional
        .first()
        .ok_or("obfuscate: a .vba source file is required")?;
    let source = std::fs::read_to_string(path)?;
    let seed = flags.get("seed", 0xD5)?;
    let list = flags
        .values
        .get("techniques")
        .map(String::as_str)
        .unwrap_or("o2,o3,o4,o1");

    let mut pipeline = Obfuscator::new();
    for item in list.split(',') {
        pipeline = match item.trim().to_ascii_lowercase().as_str() {
            "o1" => pipeline.with(Technique::Random),
            "o2" => pipeline.with(Technique::Split),
            "o3" => pipeline.with(Technique::Encoding),
            "o4" => pipeline.with(Technique::Logic),
            other => return Err(format!("unknown technique: {other}").into()),
        };
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let result = pipeline.apply(&source, &mut rng);
    print!("{}", result.source);
    eprintln!(
        "applied {:?}: {} -> {} chars",
        result.applied,
        source.len(),
        result.source.len()
    );
    Ok(())
}

pub fn deobfuscate(args: &[OsString]) -> CmdResult {
    let flags = Flags::parse("deobfuscate", args)?;
    let path = flags
        .positional
        .first()
        .ok_or("deobfuscate: a .vba source file is required")?;
    let source = std::fs::read_to_string(path)?;
    let report = vbadet_obfuscate::deobfuscate(&source);
    print!("{}", report.source);
    eprintln!(
        "folded {} string expressions, removed {} dead blocks and {} unused procedures \
         ({} -> {} chars)",
        report.folded_strings,
        report.removed_dead_blocks,
        report.removed_procedures,
        source.len(),
        report.source.len(),
    );
    Ok(())
}

pub fn corpus(args: &[OsString]) -> CmdResult {
    let flags = Flags::parse("corpus", args)?;
    let out: PathBuf = flags
        .values
        .get("out")
        .ok_or("corpus: --out DIR required")?
        .into();
    let scale = flags.get("scale", 0.05)?;
    let seed = flags.get("seed", 0xD512018)?;
    let spec = spec_at(scale, seed);

    std::fs::create_dir_all(out.join("benign"))?;
    std::fs::create_dir_all(out.join("malicious"))?;

    eprintln!(
        "generating {} macros in {} files…",
        spec.total_macros(),
        spec.total_files()
    );
    let macros = generate_macros(&spec);
    let factory = DocumentFactory::new(&spec, &macros);
    let mut written = 0usize;
    let mut io_error: Option<std::io::Error> = None;
    // Labels file: name, class, module count.
    let mut labels = String::from("file,malicious,modules\n");
    factory.for_each(|file| {
        labels.push_str(&format!(
            "{},{},{}\n",
            file.name, file.malicious, file.module_count
        ));
        if io_error.is_some() {
            return;
        }
        let dir = if file.malicious {
            "malicious"
        } else {
            "benign"
        };
        if let Err(e) = std::fs::write(out.join(dir).join(&file.name), &file.bytes) {
            io_error = Some(e);
            return;
        }
        written += 1;
    });
    if let Some(e) = io_error {
        return Err(e.into());
    }
    std::fs::write(out.join("labels.csv"), labels)?;
    eprintln!(
        "wrote {written} documents + labels.csv to {}",
        out.display()
    );
    Ok(())
}

pub fn train(args: &[OsString]) -> CmdResult {
    let flags = Flags::parse("train", args)?;
    let out = flags
        .values
        .get("out")
        .ok_or("train: --out FILE required")?;
    let scale = flags.get("scale", 0.25)?;
    let seed = flags.get("seed", 0xD5)?;
    let classifier = flags.classifier()?;
    eprintln!("training {classifier} on synthetic corpus (scale {scale})…");
    let config = DetectorConfig {
        classifier,
        seed,
        ..DetectorConfig::default()
    };
    let detector = Detector::train_on_corpus(&config, &spec_at(scale, seed));
    let text = detector.save();
    write_atomically(Path::new(out), text.as_bytes())?;
    eprintln!("saved {} bytes to {out}", text.len());
    Ok(())
}

/// Writes `bytes` to `path` so that a reader, such as a serve `reload` or
/// a metrics scraper, sees the old file or the whole new one, never a
/// torn write: the bytes go to a temp file in the same directory, which
/// is fsynced and then renamed over `path`, and the directory is fsynced
/// after the rename.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let mut name = OsString::from(".");
    name.push(path.file_name().unwrap_or(path.as_os_str()));
    name.push(format!(".tmp-{}", std::process::id()));
    let tmp = dir.join(name);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| file.write_all(bytes).and_then(|()| file.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

pub fn evaluate(args: &[OsString]) -> CmdResult {
    let flags = Flags::parse("evaluate", args)?;
    let scale = flags.get("scale", 1.0)?;
    let folds = flags.get("folds", 10)?;
    let seed = flags.get("seed", 0xD512018)?;
    let spec = spec_at(scale, seed);

    eprintln!(
        "corpus: {} macros; {folds}-fold CV for 5 classifiers x 2 feature sets…",
        spec.total_macros()
    );
    let data = vbadet::experiment::ExperimentData::from_spec(&spec);
    let results = vbadet::experiment::evaluate_all(&data, folds, seed);
    println!(
        "{:<8} {:<6} {:>9} {:>10} {:>8} {:>8} {:>7}",
        "features", "clf", "accuracy", "precision", "recall", "F2", "AUC"
    );
    for r in &results {
        println!(
            "{:<8} {:<6} {:>9.3} {:>10.3} {:>8.3} {:>8.3} {:>7.3}",
            r.feature_set.to_string(),
            r.classifier.name(),
            r.accuracy,
            r.precision,
            r.recall,
            r.f2,
            r.auc
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<OsString> {
        items.iter().map(OsString::from).collect()
    }

    #[test]
    fn flags_parse_pairs_and_positionals() {
        let f = Flags::parse(
            "scan",
            &strs(&["--scale", "0.5", "a.doc", "--seed", "7", "b.doc"]),
        )
        .unwrap();
        assert_eq!(f.get("scale", 1.0).unwrap(), 0.5);
        assert_eq!(f.get("seed", 0u64).unwrap(), 7);
        assert_eq!(f.positional, strs(&["a.doc", "b.doc"]));
    }

    #[test]
    fn flags_defaults_apply() {
        let f = Flags::parse("evaluate", &strs(&["x"])).unwrap();
        assert_eq!(f.get("scale", 0.1).unwrap(), 0.1);
        assert_eq!(f.get("folds", 10usize).unwrap(), 10);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(Flags::parse("scan", &strs(&["--scale"])).is_err());
    }

    #[test]
    fn switches_parse_without_values() {
        let f = Flags::parse("scan", &strs(&["--stats", "a.doc"])).unwrap();
        assert!(f.has("stats"));
        assert!(!f.has("isolate"));
        assert_eq!(f.positional, strs(&["a.doc"]));
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // A retired switch and a typo must both fail loudly, never eat
        // the path that follows them.
        for (args, flag) in [
            (&["--ladder", "a.doc"][..], "--ladder"),
            (
                &["--scale", "0.5", "--stat", "a.doc", "b.doc"][..],
                "--stat",
            ),
        ] {
            let err = Flags::parse("scan", &strs(args)).err().expect("must fail");
            assert_eq!(err.to_string(), format!("unknown flag {flag}"));
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_flag_or_value_that_is_not_utf8_is_an_error_and_a_path_keeps_its_bytes() {
        use std::os::unix::ffi::OsStringExt;
        let name = OsString::from_vec(b"\xff\xfe.doc".to_vec());
        let positional = vec![name.clone()];
        assert_eq!(
            Flags::parse("scan", &positional).unwrap().positional,
            positional
        );
        let mut flag = OsString::from("--");
        flag.push(&name);
        for args in [vec![flag], vec![OsString::from("--model"), name]] {
            let err = Flags::parse("scan", &args).err().expect("must fail");
            assert!(err.to_string().contains("not valid UTF-8"), "{err}");
        }
    }

    #[test]
    fn the_flag_lists_and_the_help_text_name_the_same_flags() {
        let help = crate::usage();
        let mut named: Vec<&str> = help
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .filter(|flag| !flag.is_empty())
            .collect();
        named.sort_unstable();
        named.dedup();
        for flag in &named {
            let args = strs(&[&format!("--{flag}"), "1"]);
            let parsed = COMMANDS
                .iter()
                .filter(|(command, ..)| Flags::parse(command, &args).is_ok());
            assert!(parsed.count() > 0, "help names --{flag}");
        }
        let mut listed: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|(_, values, switches)| values.iter().copied().flatten().chain(*switches))
            .copied()
            .collect();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(named, listed);
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_refused() {
        for (command, args, want) in [
            (
                "scan",
                &["--model", "m.txt", "--queue", "5", "f.doc"][..],
                "scan does not take --queue",
            ),
            (
                "scan",
                &["--breaker-threshold", "9", "f.doc"],
                "scan does not take --breaker-threshold",
            ),
            (
                "scan",
                &["--techniques", "o1", "f.doc"],
                "scan does not take --techniques",
            ),
            (
                "scan",
                &["--in-process", "f.doc"],
                "scan does not take --in-process",
            ),
            ("serve", &["--stats"], "serve does not take --stats"),
            ("serve", &["--cache", "d"], "serve does not take --cache"),
            (
                "extract",
                &["--jobs", "3", "f.doc"],
                "extract does not take --jobs",
            ),
            (
                "extract",
                &["--cache", "x", "f.doc"],
                "extract does not take --cache",
            ),
            (
                "deobfuscate",
                &["--seed", "1", "f.vba"],
                "deobfuscate does not take --seed",
            ),
            (
                "obfuscate",
                &["--out", "o", "f.vba"],
                "obfuscate does not take --out",
            ),
            (
                "corpus",
                &["--classifier", "lda"],
                "corpus does not take --classifier",
            ),
            (
                "train",
                &["--model", "m.txt"],
                "train does not take --model",
            ),
            (
                "evaluate",
                &["--isolate"],
                "evaluate does not take --isolate",
            ),
        ] {
            let err = Flags::parse(command, &strs(args)).err().expect("must fail");
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn training_flags_beside_a_model_are_refused() {
        for command in ["scan", "serve"] {
            for key in ["classifier", "scale", "seed"] {
                let args = strs(&["--model", "m.txt", &format!("--{key}"), "1", "f.doc"]);
                let err = Flags::parse(command, &args).err().expect("must fail");
                assert_eq!(
                    err.to_string(),
                    format!("{command}: --{key} trains a detector, --model loads one: pass one or the other")
                );
            }
            assert!(Flags::parse(command, &strs(&["--model", "m.txt", "--jobs", "2"])).is_ok());
            assert!(Flags::parse(command, &strs(&["--scale", "0.5", "--seed", "2"])).is_ok());
        }
    }

    #[test]
    fn bad_numeric_value_is_an_error() {
        let f = Flags::parse("scan", &strs(&["--scale", "abc"])).unwrap();
        assert!(f.get("scale", 1.0).is_err());
    }

    #[test]
    fn classifier_names_resolve() {
        for (name, expected) in [
            ("svm", ClassifierKind::Svm),
            ("RF", ClassifierKind::RandomForest),
            ("mlp", ClassifierKind::Mlp),
            ("lda", ClassifierKind::Lda),
            ("bnb", ClassifierKind::BernoulliNb),
        ] {
            let flags = Flags::parse("train", &strs(&["--classifier", name])).unwrap();
            assert_eq!(flags.classifier().unwrap(), expected);
        }
        let flags = Flags::parse("train", &strs(&["--classifier", "xgboost"])).unwrap();
        assert!(flags.classifier().is_err());
    }

    #[test]
    fn spec_scaling() {
        assert_eq!(spec_at(1.0, 5).total_macros(), 4212);
        assert!(spec_at(0.1, 5).total_macros() < 500);
    }
}

#[cfg(test)]
mod command_tests {
    use super::*;

    fn strs2(items: &[&str]) -> Vec<OsString> {
        items.iter().map(OsString::from).collect()
    }

    #[test]
    fn scan_requires_files() {
        assert!(scan(&[]).is_err());
    }

    #[test]
    fn scan_missing_file_is_an_error() {
        // Training runs first, so keep the corpus tiny.
        let err = scan(&strs2(&["--scale", "0.002", "/nonexistent/file.doc"]));
        assert!(err.is_err());
    }

    #[test]
    fn scan_processes_whole_batch_before_failing() {
        // A bad first input must not prevent the later good input from
        // being scanned; the command fails only at the end.
        let dir = std::env::temp_dir().join("vbadet_cli_test_batch");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.bin");
        let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
        b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
        std::fs::write(&good, b.build().unwrap()).unwrap();
        let junk = dir.join("junk.doc");
        std::fs::write(&junk, b"definitely not a document").unwrap();

        let err = scan(&strs2(&[
            "--scale",
            "0.002",
            junk.to_str().unwrap(),
            good.to_str().unwrap(),
        ]));
        // The batch ran to completion (no early `?` abort on the junk
        // file) and reported the per-file failure via the exit status.
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("1 of 2 inputs failed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_journal_and_resume_roundtrip() {
        let dir = std::env::temp_dir().join("vbadet_cli_test_journal");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.bin");
        let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
        b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
        std::fs::write(&good, b.build().unwrap()).unwrap();
        let journal = dir.join("scan.jsonl");

        scan(&strs2(&[
            "--scale",
            "0.002",
            "--journal",
            journal.to_str().unwrap(),
            good.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(journal.metadata().unwrap().len() > 0);
        // Resuming from the journal replays the recorded outcome instead
        // of rescanning, and still exits cleanly.
        scan(&strs2(&[
            "--scale",
            "0.002",
            "--resume",
            journal.to_str().unwrap(),
            good.to_str().unwrap(),
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_with_jobs_processes_the_whole_batch() {
        // `--jobs 4` must behave exactly like the sequential engine: every
        // input processed, per-file failures reported only at the end.
        let dir = std::env::temp_dir().join("vbadet_cli_test_jobs");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.bin");
        let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
        b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
        std::fs::write(&good, b.build().unwrap()).unwrap();
        let junk = dir.join("junk.doc");
        std::fs::write(&junk, b"definitely not a document").unwrap();

        let err = scan(&strs2(&[
            "--scale",
            "0.002",
            "--jobs",
            "4",
            junk.to_str().unwrap(),
            good.to_str().unwrap(),
        ]));
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("1 of 2 inputs failed"));

        let bad = scan(&strs2(&["--jobs", "zero?", good.to_str().unwrap()]));
        assert!(bad.is_err(), "non-numeric --jobs must be rejected");

        // `--jobs 0` is rejected with a clear error, never silently
        // reinterpreted as "default" or "sequential".
        let zero = scan(&strs2(&["--jobs", "0", good.to_str().unwrap()]));
        let msg = zero.unwrap_err().to_string();
        assert!(
            msg.contains("--jobs must be at least 1"),
            "zero-jobs error was {msg:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_metrics_json_counters_identical_across_jobs() {
        // The ISSUE's determinism contract at the CLI boundary: the
        // `counters` section of `--metrics-json` output must be
        // byte-identical whether the scan ran sequentially or on a pool.
        let dir = std::env::temp_dir().join("vbadet_cli_test_metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let mut inputs = Vec::new();
        for i in 0..6 {
            let path = dir.join(format!("doc{i}.bin"));
            let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
            b.add_module(
                "Module1",
                &format!("Sub W{i}()\r\n    x = {i}\r\nEnd Sub\r\n"),
            );
            std::fs::write(&path, b.build().unwrap()).unwrap();
            inputs.push(path.into_os_string());
        }
        let junk = dir.join("junk.doc");
        std::fs::write(&junk, b"not a document at all").unwrap();
        inputs.push(junk.into_os_string());

        let run = |jobs: &str, out: &std::path::Path| {
            let mut args = strs2(&[
                "--scale",
                "0.002",
                "--jobs",
                jobs,
                "--metrics-json",
                out.to_str().unwrap(),
            ]);
            args.extend(inputs.iter().cloned());
            // The junk input makes the batch exit non-zero; metrics must
            // have been written anyway.
            assert!(scan(&args).is_err());
            vbadet::ScanMetrics::from_json(&std::fs::read_to_string(out).unwrap()).unwrap()
        };
        let seq = run("1", &dir.join("seq.json"));
        let par = run("4", &dir.join("par.json"));
        assert_eq!(seq.counters_json(), par.counters_json());
        assert_eq!(seq.counter("scan.docs"), 7);
        assert_eq!(seq.counter("scan.failed.unknown-container"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_rejects_unknown_limit_profile() {
        let err = scan(&strs2(&["--limits", "paranoid", "whatever.doc"]));
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("unknown limits profile"));
    }

    #[test]
    fn serve_rejects_a_zero_heartbeat() {
        let err = serve(&strs2(&["--heartbeat-ms", "0"])).unwrap_err();
        assert_eq!(err.to_string(), "serve: --heartbeat-ms must be at least 1");
    }

    #[test]
    fn extract_requires_a_file() {
        assert!(extract(&[]).is_err());
        assert!(extract(&strs2(&["/nonexistent.doc"])).is_err());
    }

    #[test]
    fn extract_prints_the_salvaged_module_of_a_stomped_dir_stream() {
        // Overwrite `VBA/dir` with 0xFF: the strict parser fails, and
        // `extract` must succeed with the module salvaged exactly as `scan`
        // salvages it.
        let code = "Attribute VB_Name = \"Module1\"\r\nSub Payload()\r\n    y = 2\r\nEnd Sub\r\n";
        let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
        b.add_module("Module1", code);
        let parsed = vbadet_ole::OleFile::parse(&b.build().unwrap()).unwrap();
        let mut rebuilt = vbadet_ole::OleBuilder::new();
        for path in parsed.stream_paths().unwrap() {
            let data = parsed.open_stream(&path).unwrap();
            if path == "VBA/dir" {
                rebuilt.add_stream(&path, &vec![0xFF; data.len()]).unwrap();
            } else {
                rebuilt.add_stream(&path, &data).unwrap();
            }
        }
        let dir = std::env::temp_dir().join("vbadet_cli_test_extract_stomped");
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("stomped.bin");
        std::fs::write(&doc, rebuilt.build()).unwrap();

        let mut out = Vec::new();
        extract_to(&doc, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(
            out.starts_with(
                "' ===== project <salvaged> / module salvaged_1#VBA/Module1 (Ole) =====\n"
            ),
            "{out}"
        );
        assert!(out.contains(code), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn extract_prints_the_swept_module_of_a_broken_zip() {
        // No central directory at all: the raw-bytes sweep still finds
        // the compressed module behind the fake ZIP signature.
        let code = "Attribute VB_Name = \"M\"\r\nSub Work()\r\n    x = 1\r\nEnd Sub\r\n";
        let mut bytes = b"PK\x03\x04 this is not really an archive ".to_vec();
        bytes.extend_from_slice(&vbadet_ovba::compress(code.as_bytes()));
        let dir = std::env::temp_dir().join("vbadet_cli_test_extract_fake_zip");
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("wreck.docm");
        std::fs::write(&doc, bytes).unwrap();

        let mut out = Vec::new();
        extract_to(&doc, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(
            out,
            format!("' ===== project <salvaged> / module salvaged_1 (Ooxml) =====\n{code}\n")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obfuscate_rejects_unknown_techniques() {
        let dir = std::env::temp_dir().join("vbadet_cli_test_obf");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.vba");
        std::fs::write(&path, "Sub A()\r\nEnd Sub\r\n").unwrap();
        let err = obfuscate(&strs2(&["--techniques", "o9", path.to_str().unwrap()]));
        assert!(err.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_cli_refuses_what_it_would_ignore_before_doing_any_work() {
        let err = scan(&strs2(&[
            "--model",
            "/nonexistent.model",
            "--classifier",
            "lda",
            "f.doc",
        ]));
        assert!(err.unwrap_err().to_string().contains("--model loads one"));
        let err = extract(&strs2(&["--jobs", "3", "--cache", "x", "/nonexistent.doc"]));
        assert_eq!(err.unwrap_err().to_string(), "extract does not take --jobs");
    }

    #[test]
    fn corpus_labels_list_every_document_written() {
        let dir =
            std::env::temp_dir().join(format!("vbadet_cli_test_corpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        corpus(&strs2(&[
            "--out",
            dir.to_str().unwrap(),
            "--scale",
            "0.002",
            "--seed",
            "7",
        ]))
        .unwrap();
        let labels = std::fs::read_to_string(dir.join("labels.csv")).unwrap();
        let mut rows = labels.lines();
        assert_eq!(rows.next(), Some("file,malicious,modules"));
        let mut count = 0;
        for row in rows {
            let fields: Vec<&str> = row.split(',').collect();
            let class = if fields[1] == "true" {
                "malicious"
            } else {
                "benign"
            };
            assert!(dir.join(class).join(fields[0]).is_file(), "{row}");
            count += 1;
        }
        let written = ["benign", "malicious"]
            .iter()
            .map(|class| std::fs::read_dir(dir.join(class)).unwrap().count())
            .sum::<usize>();
        assert!(count > 0);
        assert_eq!(count, written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_replaces_its_output_whole_and_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("vbadet_cli_test_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.txt");
        std::fs::write(&model, "an older model\n").unwrap();
        train(&strs2(&[
            "--out",
            model.to_str().unwrap(),
            "--scale",
            "0.004",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&model).unwrap();
        assert!(vbadet::Detector::load(&text).is_ok());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["model.txt"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_replaces_its_metrics_json_whole_and_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("vbadet_cli_test_metrics_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = dir.join("doc.bin");
        let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
        b.add_module("Module1", "Sub W()\r\n    x = 1\r\nEnd Sub\r\n");
        std::fs::write(&doc, b.build().unwrap()).unwrap();
        let out = dir.join("metrics.json");
        std::fs::write(&out, "stale metrics from an earlier run\n").unwrap();
        scan(&strs2(&[
            "--scale",
            "0.002",
            "--metrics-json",
            out.to_str().unwrap(),
            doc.to_str().unwrap(),
        ]))
        .unwrap();
        let metrics =
            vbadet::ScanMetrics::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(metrics.counter("scan.docs"), 1);
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["doc.bin", "metrics.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_requires_out_dir() {
        assert!(corpus(&[]).is_err());
    }

    #[test]
    fn train_and_scan_model_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("vbadet_cli_test_train");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.txt");
        train(&strs2(&[
            "--out",
            model.to_str().unwrap(),
            "--scale",
            "0.004",
        ]))
        .unwrap();
        assert!(model.metadata().unwrap().len() > 100);
        // A detector loaded from the file scores without error.
        let detector = vbadet::Detector::load(&std::fs::read_to_string(&model).unwrap()).unwrap();
        let v = detector.score("Sub A()\r\n    x = 1\r\nEnd Sub\r\n");
        assert!(v.score.is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
