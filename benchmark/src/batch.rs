//! Batch workloads: `vbadet scan` over the whole input set, pass after
//! pass, each pass one process from spawn to exit.

use crate::expect;
use crate::procfs::RssSampler;
use crate::stats::{median, percentile, tail_percentile};
use crate::{Ctx, Report};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Warm-up passes before timing starts (page cache, CPU frequency).
const WARMUP_PASSES: usize = 2;

/// Fewest single-document runs whose median is `setup_s`. One runs after
/// every timed pass, so they sample the same stretch of time as the passes.
const SETUP_RUNS: usize = 20;

/// Percentile of pass wall time that `docs_per_s` is taken from. On a
/// shared host a pass runs in a fast or a slow state that switches every
/// few seconds in shares that drift between runs. The median flips between
/// the two states; the fastest tenth stays in the fast one (README.md).
const RATE_PERCENTILE: f64 = 10.0;

/// One finished `vbadet scan` process.
pub struct Pass {
    pub seconds: f64,
    pub mismatches: usize,
}

/// Runs `vbadet scan --model M <flags> <paths>` once and checks every line
/// and the exit code against `expected`. With `rss`, also samples the peak
/// resident set of the process and its workers.
pub fn scan(
    ctx: &Ctx,
    flags: &[&str],
    expected: &[(String, String)],
    rss: Option<&mut f64>,
) -> Result<Pass, String> {
    let start = Instant::now();
    let mut child = Command::new(&ctx.vbadet)
        .arg("scan")
        .arg("--model")
        .arg(&ctx.model)
        .args(flags)
        .args(expected.iter().map(|(p, _)| p))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", ctx.vbadet.display()))?;
    let sampler = rss.is_some().then(|| RssSampler::start(child.id()));
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for vbadet: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    if let (Some(out), Some(sampler)) = (rss, sampler) {
        *out = sampler.finish();
    }
    read.map_err(|e| format!("reading vbadet output: {e}"))?;
    let mut mismatches = expect::cli_mismatches(&stdout, expected);
    let want = expect::exit_code(expected.iter().map(|(_, c)| c.as_str()));
    if status.code() != Some(want) && mismatches == 0 {
        mismatches = expected.len();
    }
    Ok(Pass {
        seconds,
        mismatches,
    })
}

/// Measures one batch workload: warm-up passes, then whole-batch passes for
/// `ctx.seconds`, each followed by one single-document run for `setup_s`,
/// then one untimed pass under the RSS sampler.
pub fn run(ctx: &Ctx, flags: &[&str], expected: &[(String, String)]) -> Result<Report, String> {
    let mut report = Report::default();
    let mut check = |pass: &Pass, docs: usize| {
        report.attempted += docs as u64;
        report.failed += pass.mismatches as u64;
    };

    // Set-up: process start and model load around one small macro
    // document, the cost a caller pays per invocation.
    let setup_doc: Vec<(String, String)> = expected
        .iter()
        .filter(|(_, c)| !c.starts_with("FAILED") && !c.starts_with("no VBA"))
        .min_by_key(|(p, _)| std::fs::metadata(p).map_or(u64::MAX, |m| m.len()))
        .cloned()
        .into_iter()
        .collect();
    let setup_run = |check: &mut dyn FnMut(&Pass, usize)| -> Result<f64, String> {
        let one = scan(ctx, flags, &setup_doc, None)?;
        check(&one, 1);
        Ok(one.seconds)
    };

    for _ in 0..WARMUP_PASSES {
        let pass = scan(ctx, flags, expected, None)?;
        check(&pass, expected.len());
    }
    let (mut times, mut setup) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    while times.is_empty() || clock.elapsed().as_secs_f64() < ctx.seconds {
        let pass = scan(ctx, flags, expected, None)?;
        check(&pass, expected.len());
        times.push(pass.seconds);
        setup.push(setup_run(&mut check)?);
    }
    while setup.len() < SETUP_RUNS {
        setup.push(setup_run(&mut check)?);
    }
    let mut rss = 0.0;
    let pass = scan(ctx, flags, expected, Some(&mut rss))?;
    check(&pass, expected.len());

    let n = expected.len() as f64;
    let fast = percentile(&times, RATE_PERCENTILE);
    let tail_p = tail_percentile(times.len());
    let tail = percentile(&times, tail_p);
    report.note(format!(
        "{} timed passes of {} documents; pass wall time p{RATE_PERCENTILE} {:.2} ms, \
         p50 {:.2} ms, p{tail_p} {:.2} ms ({} passes beyond); {} set-up runs",
        times.len(),
        expected.len(),
        fast * 1e3,
        median(&times) * 1e3,
        tail * 1e3,
        times.iter().filter(|&&t| t > tail).count(),
        setup.len(),
    ));
    let mut classes = std::collections::BTreeMap::new();
    for (_, c) in expected {
        if let Some(class) = c.strip_prefix("FAILED [") {
            *classes.entry(class.trim_end_matches(']')).or_insert(0) += 1;
        }
    }
    for (class, n) in classes {
        report.note(format!("scan.failed.{class} {n} per pass"));
    }
    report.metric("docs_per_s", n / fast, "1/s");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("setup_s", median(&setup), "s");
    Ok(report)
}
