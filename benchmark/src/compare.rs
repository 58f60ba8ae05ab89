//! `benchmark compare PARENT CHANGE`: the comparison rule of the
//! choosing-metrics guide, §8, over result lines written with `--out`.
//!
//! Runs are paired in file order (run them alternately: parent, change,
//! change, parent, …). A metric improved when the change wins at least
//! nine tenths of the pairs and the medians differ by more than the
//! parent's interquartile range. It is unresolved when the parent's own
//! spread is wider than the bound and the change does not read better in
//! every run, since the parent's runs then differ among themselves by more
//! than the bound; otherwise it is worse when the change's median is worse
//! than the parent's by more than the metric's bound.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub higher_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// Values of each (workload, metric) in file order, and failures per
/// workload.
#[derive(Debug, Default)]
pub struct Runs {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed: BTreeMap<String, f64>,
}

pub fn declared(bench: &Json) -> BTreeMap<String, Declared> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(name), Some(better)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
            ) {
                out.insert(
                    name.to_string(),
                    Declared {
                        higher_is_better: better == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    },
                );
            }
        }
    }
    out
}

pub fn runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let j = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        *runs.failed.entry(workload.to_string()).or_default() +=
            j.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, m) in j.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// One (workload, metric) pairing: the numbers the rule uses and its
/// verdict.
pub struct Row {
    pub pairs: usize,
    pub wins: usize,
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_iqr: f64,
    pub change_iqr: f64,
    pub verdict: &'static str,
}

pub fn row(parent: &[f64], change: &[f64], d: &Declared, more_failures: bool) -> Row {
    let better = |b: f64, a: f64| if d.higher_is_better { b > a } else { b < a };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let (c1, c3) = quartiles(change);
    let beyond_spread = (mc - mp).abs() > q3 - q1;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_by = if d.higher_is_better {
        (mp - mc) / mp.abs()
    } else {
        (mc - mp) / mp.abs()
    };
    let verdict = if wins as f64 >= WIN_SHARE * pairs as f64 && beyond_spread && better(mc, mp) {
        if more_failures {
            "unresolved"
        } else {
            "improved"
        }
    } else {
        match d.bound {
            Some(bound) if (q3 - q1) / mp.abs() > bound && !all_better => "unresolved",
            Some(bound) if worse_by > bound => "worse",
            Some(_) => "unchanged",
            None if losses as f64 >= WIN_SHARE * pairs as f64 && beyond_spread => "worse",
            None => "unchanged",
        }
    };
    Row {
        pairs,
        wins,
        parent_median: mp,
        change_median: mc,
        parent_iqr: q3 - q1,
        change_iqr: c3 - c1,
        verdict,
    }
}

/// The comparison table.
pub fn run(parent: &Path, change: &Path, bench: &Path) -> Result<String, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let declared = declared(&json::parse(&read(bench)?)?);
    let (a, b) = (runs(&read(parent)?)?, runs(&read(change)?)?);
    let mut out = format!(
        "{:<16} {:<32} {:>5} {:>12} {:>12} {:>8} {:>6} {:>8} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "pairs",
        "parent",
        "change",
        "change%",
        "wins",
        "p.iqr%",
        "c.iqr%",
        "bound"
    );
    for ((workload, metric), pv) in &a.values {
        let (Some(cv), Some(d)) = (
            b.values.get(&(workload.clone(), metric.clone())),
            declared.get(metric),
        ) else {
            continue;
        };
        let more_failures = b.failed.get(workload) > a.failed.get(workload);
        let r = row(pv, cv, d, more_failures);
        let mp = r.parent_median;
        out.push_str(&format!(
            "{:<16} {:<32} {:>5} {:>12.4} {:>12.4} {:>+7.2}% {:>6} {:>7.2}% {:>7.2}% {:>6}  {}\n",
            workload,
            metric,
            r.pairs,
            mp,
            r.change_median,
            (r.change_median - mp) / mp.abs() * 100.0,
            format!("{}/{}", r.wins, r.pairs),
            r.parent_iqr / mp.abs() * 100.0,
            r.change_iqr / r.change_median.abs() * 100.0,
            d.bound.map_or("-".to_string(), |b| format!("{b}")),
            r.verdict,
        ));
    }
    if a.values
        .values()
        .chain(b.values.values())
        .any(|v| v.len() < 10)
    {
        out.push_str("note: fewer than ten pairs for some metrics; the rule asks for ten\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: Declared = Declared {
        higher_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(row(&parent, &faster, &RATE, false).verdict, "improved");
        assert_eq!(row(&parent, &faster, &RATE, true).verdict, "unresolved");
        assert_eq!(row(&parent, &slower, &RATE, false).verdict, "worse");
        assert_eq!(row(&parent, &same, &RATE, false).verdict, "unchanged");
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(row(&noisy, &parent, &RATE, false).verdict, "unresolved");
        let noisy_slower: Vec<f64> = noisy.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            row(&noisy, &noisy_slower, &RATE, false).verdict,
            "unresolved"
        );
        let layer = Declared {
            higher_is_better: false,
            bound: None,
        };
        assert_eq!(row(&parent, &faster, &layer, false).verdict, "worse");
    }

    #[test]
    fn result_lines_group_by_workload_and_metric() {
        let text = "{\"workload\":\"paper_seq\",\"seed\":1,\"failed\":0,\"metrics\":{\"docs_per_s\":{\"value\":10.5,\"unit\":\"1/s\"}}}\n\
                    {\"workload\":\"paper_seq\",\"seed\":2,\"failed\":1,\"metrics\":{\"docs_per_s\":{\"value\":11,\"unit\":\"1/s\"}}}\n";
        let r = runs(text).unwrap();
        assert_eq!(
            r.values[&("paper_seq".to_string(), "docs_per_s".to_string())],
            vec![10.5, 11.0]
        );
        assert_eq!(r.failed["paper_seq"], 1.0);
        let bench = json::parse(
            r#"{"end_to_end":[{"name":"docs_per_s","unit":"1/s","better":"higher","bound":0.1}],
                "per_layer":[{"name":"zip.parse_us_per_doc","unit":"us","better":"lower"}]}"#,
        )
        .unwrap();
        let d = declared(&bench);
        assert_eq!(d["docs_per_s"], RATE);
        assert_eq!(d["zip.parse_us_per_doc"].bound, None);
    }
}
