//! From-scratch machine-learning classifiers, metrics and cross-validation.
//!
//! The paper evaluates five supervised classifiers (§IV.D): Random Forest,
//! SVM (RBF kernel, `C = 150`, `γ = 0.03`), Multi-Layer Perceptron, Linear
//! Discriminant Analysis and Bernoulli Naive Bayes — via scikit-learn. Rust
//! has no equivalent batteries-included stack (repro band: "ML crates
//! thin"), so this crate implements each from the algorithms the paper
//! cites, plus the evaluation machinery: accuracy / precision / recall /
//! Fβ (§V uses β=2), ROC curves with AUC, feature standardization and
//! stratified 10-fold cross-validation.
//!
//! Every classifier exposes a real-valued [`Classifier::decision_function`]
//! (positive ⇒ "obfuscated") so ROC/AUC is computed from scores rather than
//! hard labels.
//!
//! # Examples
//!
//! ```
//! use vbadet_ml::{Classifier, RandomForest};
//!
//! // A linearly separable toy problem.
//! let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
//! let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
//! let mut rf = RandomForest::new(25, 4);
//! rf.fit(&x, &y);
//! assert!(rf.predict(&[35.0]));
//! assert!(!rf.predict(&[3.0]));
//! ```

pub mod cv;
pub mod forest;
pub mod importance;
pub mod lda;
mod linalg;
pub mod metrics;
pub mod mlp;
pub mod nb;
pub mod persist;
pub mod scaler;
pub mod svm;
pub mod tree;

pub use cv::{cross_validate, stratified_kfold, CvOutcome};
pub use forest::RandomForest;
pub use importance::{permutation_importance, FeatureImportance};
pub use lda::LinearDiscriminant;
pub use metrics::{auc, f_beta, roc_curve, ConfusionMatrix};
pub use mlp::MlpClassifier;
pub use nb::BernoulliNb;
pub use scaler::StandardScaler;
pub use svm::SvmRbf;

/// A trained (or trainable) binary classifier.
///
/// Labels are `bool`: `true` is the positive class ("obfuscated").
///
/// `Send + Sync` is a supertrait: a boxed model must be shareable across
/// the scanning worker pool (every implementation is plain owned data, so
/// this costs nothing).
pub trait Classifier: Send + Sync {
    /// Fits the model to a training set.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x` and `y` lengths differ or `x` is empty.
    fn fit(&mut self, x: &[Vec<f64>], y: &[bool]);

    /// A real-valued score, calibrated so that `score >= 0` means the
    /// positive class.
    fn decision_function(&self, x: &[f64]) -> f64;

    /// Hard prediction at the default threshold.
    fn predict(&self, x: &[f64]) -> bool {
        self.decision_function(x) >= 0.0
    }

    /// Short display name ("RF", "SVM", …).
    fn name(&self) -> &'static str;

    /// Serializes the fitted model to the crate's text format (see
    /// [`persist`]).
    ///
    /// # Panics
    ///
    /// Implementations panic when called before [`Classifier::fit`].
    fn save_text(&self) -> String;
}

pub(crate) fn validate_fit_input(x: &[Vec<f64>], y: &[bool]) {
    assert!(!x.is_empty(), "training set must be non-empty");
    assert_eq!(x.len(), y.len(), "feature/label length mismatch");
    let dim = x[0].len();
    assert!(
        x.iter().all(|row| row.len() == dim),
        "ragged feature matrix"
    );
}
