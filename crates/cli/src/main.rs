//! `vbadet` — command-line obfuscated-VBA-macro scanner.
//!
//! ```text
//! vbadet scan <file>...           scan documents, print per-module verdicts
//! vbadet extract <file>           dump extracted macro source to stdout
//! vbadet obfuscate <file.vba>     obfuscate VBA source (O1-O4) to stdout
//! vbadet corpus --out DIR         write a synthetic document corpus to disk
//! vbadet evaluate                 run the Table V cross-validation
//! ```

mod commands;

use std::process::ExitCode;

/// Live-heap tracking for `--max-scan-mem-mb`: installed process-wide so
/// both the in-process engines and `--isolate` worker re-executions of
/// this binary can trip the memory ceiling as a typed outcome.
#[global_allocator]
static ALLOC: vbadet::TrackingAllocator = vbadet::TrackingAllocator;

fn main() -> ExitCode {
    // Arguments stay `OsString`s: a path need not be UTF-8, and a flag
    // that is not is a usage error (`commands::Flags`), never a panic.
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.to_string_lossy(), rest),
        None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if command == vbadet::scan::isolate::WORKER_SUBCOMMAND {
        // Hidden subcommand: this process is an isolation worker, driven
        // over stdin/stdout by a supervising `vbadet scan --isolate` or
        // `vbadet serve`. Ignore SIGINT and SIGTERM so signals delivered
        // to the whole process group (terminal Ctrl-C, a service
        // manager's stop) let the supervisor drain gracefully instead of
        // reaping a batch of killed workers; the supervisor retires
        // workers itself via their exit frames.
        ignore_drain_signals();
        return ExitCode::from(vbadet::worker_main() as u8);
    }
    let result: Result<ExitCode, Box<dyn std::error::Error>> = match &*command {
        "scan" => commands::scan(rest),
        "serve" => commands::serve(rest),
        "extract" => commands::extract(rest).map(|()| ExitCode::SUCCESS),
        "obfuscate" => commands::obfuscate(rest).map(|()| ExitCode::SUCCESS),
        "deobfuscate" => commands::deobfuscate(rest).map(|()| ExitCode::SUCCESS),
        "corpus" => commands::corpus(rest).map(|()| ExitCode::SUCCESS),
        "evaluate" => commands::evaluate(rest).map(|()| ExitCode::SUCCESS),
        "train" => commands::train(rest).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command: {other}\n{}", usage()).into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The C library's `signal(2)` and the signal numbers the CLI handles.
#[cfg(unix)]
mod sig {
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
    pub const SIGHUP: i32 = 1;
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub const SIG_IGN: usize = 1;
}

#[cfg(unix)]
fn ignore_drain_signals() {
    use sig::{signal, SIGHUP, SIGINT, SIGTERM, SIG_IGN};
    unsafe {
        // SIGHUP joins the ignore list: a process-group HUP asking the
        // serve daemon to hot-reload its model must not kill the
        // daemon's workers out from under it — the supervisor retires
        // them itself, lazily, with the new generation's hello.
        signal(SIGHUP, SIG_IGN);
        signal(SIGINT, SIG_IGN);
        signal(SIGTERM, SIG_IGN);
    }
}

#[cfg(not(unix))]
fn ignore_drain_signals() {}

fn usage() -> &'static str {
    "vbadet — obfuscated VBA macro detection (DSN 2018 reproduction)

USAGE:
    vbadet scan [--scale F] [--classifier NAME] [--seed N] | [--model FILE]
                [--limits default|strict] [--deadline-ms N] [--fuel N] [--jobs N]
                [--isolate] [--max-scan-mem-mb N] [--cache DIR]
                [--journal FILE] [--resume FILE] [--stats]
                [--metrics-json FILE] <file>...
    vbadet serve (--socket PATH | --tcp ADDR) [--jobs N] [--queue N]
                [--breaker-threshold N] [--breaker-backoff-ms N]
                [--in-process] [--heartbeat-ms N] [--cache-entries N]
                [--journal FILE] [--metrics-json FILE] [scan policy options]
    vbadet extract <file>
    vbadet obfuscate [--techniques o1,o2,o3,o4] [--seed N] <file.vba>
    vbadet deobfuscate <file.vba>
    vbadet corpus --out DIR [--scale F] [--seed N]
    vbadet train --out MODEL [--scale F] [--classifier NAME] [--seed N]
    vbadet evaluate [--scale F] [--folds K] [--seed N]

COMMANDS:
    scan        Extract macros from .doc/.xls/.docm/.xlsm/vbaProject.bin and
                classify each module (trains a fresh detector, or pass
                --model FILE saved by `vbadet train`). Batch-safe: every
                input is processed under resource limits, damaged projects
                are salvaged when possible, and failures are per-file
                records, never aborts
    serve       Resident scan service on a Unix or TCP socket. Requests are
                newline-delimited: `scan <path>`, `metrics`, `health`,
                `ready`, `reload <path>`, `model`, or JSON
                (`{\"op\":\"scan\",\"path\":\"…\",\"id\":…}`; inline
                documents via `bytes_hex`). Every request gets exactly one
                reply; a full queue sheds with a typed `overloaded` error;
                repeated worker deaths open a circuit breaker that recovers
                by probing. `reload` (or SIGHUP) hot-swaps the detector
                with zero downtime: in-flight requests finish under the
                model generation that admitted them. Exits 3 after a
                SIGTERM/Ctrl-C graceful drain
    train       Train a detector and save it for reuse with `scan --model`
    extract     Print every macro module's source code
    obfuscate   Apply O1-O4 obfuscation to a VBA source file
    deobfuscate Fold hidden strings, strip dead code and dummy procedures
    corpus      Generate a labeled synthetic corpus of real container files
    evaluate    Run the paper's Table V cross-validation

SCAN EXIT CODES:
    0   every input scanned, nothing flagged
    1   every input scanned, at least one module flagged OBFUSCATED
    2   error, or batch completed with per-file failures
    3   interrupted (Ctrl-C drain); journal is resumable with --resume

OPTIONS (a command takes only the flags its USAGE line names; any other
is an error):
    --scale F        corpus scale, 0 < F <= 1 (default: 0.1 scan, 1.0 evaluate)
    --classifier N   svm | rf | mlp | lda | bnb (default mlp)
    --techniques T   comma list of o1,o2,o3,o4 (default all)
    --folds K        cross-validation folds (default 10)
    --limits P       scan resource-limit profile: default | strict
    --deadline-ms N  wall-clock budget per document; a document that blows
                     it is reported FAILED [timeout], the batch keeps going
    --fuel N         deterministic work budget per document (~1 unit/KiB)
    --jobs N         scanning workers (default: one per core); --jobs 1
                     selects the sequential engine; 0 is rejected. Reports
                     and journals are identical at any N
    --isolate        scan in child worker processes: aborts, stack
                     overflows and OOM kills cost one worker, not the
                     batch. A document that kills two workers in a row is
                     quarantined (FAILED [fatal]) and the batch continues
    --max-scan-mem-mb N
                     per-document heap ceiling; a document allocating past
                     it is FAILED [limit-exceeded] instead of OOM-killed
    --cache DIR      content-addressed result cache: documents whose bytes,
                     detector and policy were already scanned are answered
                     from DIR without re-scanning (crash-safe JSONL store,
                     compacted to one segment on open; --cache-entries N
                     keeps the N most recently used, default 65536)

    --journal FILE   checkpoint each document's outcome to FILE (JSONL,
                     crash-safe) as the scan runs
    --resume FILE    replay a journal from a killed run: completed documents
                     are not rescanned, mid-scan ones are re-attempted
    --seed N         RNG seed
    --model FILE     load a detector saved by `vbadet train` instead of
                     training one (so not with --scale, --classifier or
                     --seed); a file cut short or damaged is refused
    --stats          print the pipeline metrics snapshot to stderr
    --metrics-json FILE
                     write the pipeline metrics snapshot as JSON

SERVE OPTIONS:
    --socket PATH    listen on a Unix-domain socket (stale files replaced)
    --tcp ADDR       listen on TCP, e.g. 127.0.0.1:7087 (port 0 = ephemeral;
                     the bound address is printed to stderr)
    --jobs N         scan worker threads (default 2)
    --queue N        admission queue depth; a request past it is shed with
                     `overloaded` (default 64)
    --breaker-threshold N
                     consecutive worker deaths that open the circuit
                     breaker (default 3)
    --breaker-backoff-ms N
                     breaker cooldown base, doubled per re-open (default 500)
    --in-process     scan in the daemon process instead of isolated child
                     workers (faster; a crashing document kills the service)
    --heartbeat-ms N isolated-worker liveness deadline
    --cache-entries N
                     in-memory result-cache capacity; repeated identical
                     documents are answered without re-scanning and
                     concurrent duplicates share one scan (default 4096,
                     0 disables)
    Scan policy options (--limits, --deadline-ms, --fuel,
    --max-scan-mem-mb, --model or --scale/--classifier/--seed) apply per
    request; --metrics-json writes the final service metrics at drain.

SIGNALS:
    One SIGINT (Ctrl-C) or SIGTERM during `scan`/`serve` drains gracefully:
    no new work is accepted, in-flight documents finish, the journal is
    flushed, a summary prints, exit code 3.
    A second signal force-exits immediately (code 128+signum: 130 for
    SIGINT, 143 for SIGTERM).
    SIGHUP during `serve` hot-reloads the detector from the --model path
    (a no-op recorded in reload.failed when serve trained its own model);
    scans in flight finish under the generation that admitted them."
}
