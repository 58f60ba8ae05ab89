//! Regenerates **Figure 7**: ROC curves of the best V-set classifier and
//! the best J-set classifier (by F2), printed as an ASCII plot plus the
//! sampled curve points.

use vbadet::experiment::{evaluate_all, ClassifierEval, ExperimentData};
use vbadet_bench::{banner, corpus_spec, folds};
use vbadet_features::FeatureSet;

fn sample_curve(roc: &[(f64, f64)], fprs: &[f64]) -> Vec<f64> {
    // tpr at given fpr by walking the piecewise-constant curve.
    fprs.iter()
        .map(|&target| {
            let mut tpr = 0.0;
            for &(f, t) in roc {
                if f <= target {
                    tpr = t;
                } else {
                    break;
                }
            }
            tpr
        })
        .collect()
}

fn main() {
    banner("Figure 7: ROC curves (best V classifier vs best J classifier)");
    let spec = corpus_spec();
    let data = ExperimentData::from_spec(&spec);
    let results = evaluate_all(&data, folds(), spec.seed);

    let best = |set: FeatureSet| -> &ClassifierEval {
        results
            .iter()
            .filter(|r| r.feature_set == set)
            .max_by(|a, b| a.f2.partial_cmp(&b.f2).expect("finite"))
            .expect("non-empty")
    };
    let v = best(FeatureSet::V);
    let j = best(FeatureSet::J);

    // ASCII plot: 61 x 21 grid, V = '#', J = '+', both = '*'.
    const W: usize = 61;
    const H: usize = 21;
    let mut grid = vec![vec![' '; W]; H];
    let plot = |grid: &mut Vec<Vec<char>>, roc: &[(f64, f64)], mark: char| {
        for (i, fpr) in (0..W).map(|i| i as f64 / (W - 1) as f64).enumerate() {
            let tpr = sample_curve(roc, &[fpr])[0];
            let row = ((1.0 - tpr) * (H - 1) as f64).round() as usize;
            let cell = &mut grid[row.min(H - 1)][i];
            *cell = if *cell == ' ' || *cell == mark {
                mark
            } else {
                '*'
            };
        }
    };
    plot(&mut grid, &v.roc, '#');
    plot(&mut grid, &j.roc, '+');

    println!("TPR");
    for (r, row) in grid.iter().enumerate() {
        let y = 1.0 - r as f64 / (H - 1) as f64;
        println!("{y:.1} |{}", row.iter().collect::<String>());
    }
    println!("    +{}", "-".repeat(W));
    println!("     0.0 {: >54}", "FPR 1.0");
    println!();
    println!(
        "#  {} on V features: AUC {:.3}  (paper: MLP/V AUC 0.950)",
        v.classifier.name(),
        v.auc
    );
    println!(
        "+  {} on J features: AUC {:.3}  (paper: RF/J  AUC 0.812)",
        j.classifier.name(),
        j.auc
    );

    println!();
    println!("sampled points (fpr -> tpr):");
    let fprs = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0];
    let vt = sample_curve(&v.roc, &fprs);
    let jt = sample_curve(&j.roc, &fprs);
    println!("{:>6} {:>8} {:>8}", "fpr", "V tpr", "J tpr");
    for ((f, tv), tj) in fprs.iter().zip(vt.iter()).zip(jt.iter()) {
        println!("{f:>6.2} {tv:>8.3} {tj:>8.3}");
    }
}
