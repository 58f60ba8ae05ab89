//! Static feature extraction for obfuscation detection.
//!
//! Implements the paper's two feature sets:
//!
//! - [`vset`]: the 15 proposed discriminant features V1–V15 (Table IV),
//!   designed around the O1–O4 obfuscation techniques;
//! - [`jset`]: the 20 comparison features J1–J20 (Table VI) from the
//!   obfuscated-JavaScript literature (Likarish et al. \[24\], Aebersold et
//!   al. \[26\]), adapted to VBA exactly as the paper describes (J14 uses a
//!   150-character line threshold).
//!
//! Both extractors turn one macro's source into a fixed-width `f64` vector;
//! classifier-side standardization lives in `vbadet-ml`.
//!
//! # Examples
//!
//! ```
//! use vbadet_features::{v_features, V_DIM, V_NAMES};
//!
//! let v = v_features("Sub A()\r\n    x = Chr(65) & \"B\"\r\nEnd Sub\r\n");
//! assert_eq!(v.len(), V_DIM);
//! assert_eq!(V_NAMES[12], "V13 shannon entropy of the file");
//! assert!(v[12] > 0.0);
//! ```

pub mod entropy;
mod fused;
pub mod jset;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod vset;

pub use entropy::{entropy_from_counts, shannon_entropy};
pub use fused::PassScratch;
pub use jset::{j_features, j_features_from, J_DIM, J_NAMES};
pub use vset::{v_features, v_features_from, V_DIM, V_NAMES};

/// Which feature set to extract; used by experiment drivers that sweep both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// The proposed V1–V15 set.
    V,
    /// The comparison J1–J20 set.
    J,
}

impl FeatureSet {
    /// Vector width of this feature set.
    pub fn dim(self) -> usize {
        match self {
            FeatureSet::V => V_DIM,
            FeatureSet::J => J_DIM,
        }
    }

    /// Human-readable feature names, index-aligned with the vectors.
    pub fn names(self) -> &'static [&'static str] {
        match self {
            FeatureSet::V => &V_NAMES,
            FeatureSet::J => &J_NAMES,
        }
    }

    /// Extracts this feature set from macro source code.
    pub fn extract(self, source: &str) -> Vec<f64> {
        match self {
            FeatureSet::V => v_features(source).to_vec(),
            FeatureSet::J => j_features(source).to_vec(),
        }
    }
}

/// Reusable per-worker extraction state: the lexer buffers, the J9
/// token-pass buffers, and the output vector — cleared per document,
/// capacity retained, so steady-state extraction performs no heap
/// allocation.
///
/// The feature set picks the lexer mode. [`FeatureSet::V`] runs the V
/// mode ([`vbadet_vba::LexScratch::lex_counts`]): one pass that builds no
/// token vector and runs no J-only machine, so the statistics' full-mode
/// fields (`line_count`, `long_lines`, `comment_words`,
/// `readable_words`) are never filled. [`FeatureSet::J`] runs the full
/// mode ([`vbadet_vba::MacroAnalysis`]) and its token slice for J9.
///
/// ```
/// use vbadet_features::{FeatureScratch, FeatureSet};
/// let mut scratch = FeatureScratch::default();
/// let v = scratch.extract(FeatureSet::V, "x = Chr(65)").to_vec();
/// assert_eq!(v, FeatureSet::V.extract("x = Chr(65)"));
/// ```
#[derive(Debug, Default)]
pub struct FeatureScratch {
    lex: vbadet_vba::LexScratch,
    pass: PassScratch,
    out: Vec<f64>,
}

impl FeatureScratch {
    /// Extracts `set` from `source` into the reusable output buffer.
    /// Identical (bit-for-bit) to [`FeatureSet::extract`].
    pub fn extract(&mut self, set: FeatureSet, source: &str) -> &[f64] {
        self.out.clear();
        match set {
            FeatureSet::V => {
                let (stats, counts, strings) = self.lex.lex_counts(source);
                self.out
                    .extend_from_slice(&vset::v_vector(stats, &counts, strings));
            }
            FeatureSet::J => {
                let analysis = vbadet_vba::MacroAnalysis::with_scratch(source, &mut self.lex);
                self.out
                    .extend_from_slice(&jset::j_features_fused(&analysis, &mut self.pass));
                analysis.recycle(&mut self.lex);
            }
        }
        &self.out
    }
}

impl std::fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureSet::V => write!(f, "V1-V15"),
            FeatureSet::J => write!(f, "J1-J20"),
        }
    }
}

/// Mean of a sequence of lengths (0 when empty).
pub(crate) fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Population variance (0 when fewer than 2 items).
pub(crate) fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_set_dims_and_names_align() {
        assert_eq!(FeatureSet::V.dim(), 15);
        assert_eq!(FeatureSet::J.dim(), 20);
        assert_eq!(FeatureSet::V.names().len(), 15);
        assert_eq!(FeatureSet::J.names().len(), 20);
        assert_eq!(FeatureSet::V.extract("x = 1").len(), 15);
        assert_eq!(FeatureSet::J.extract("x = 1").len(), 20);
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean([].into_iter()), 0.0);
        assert_eq!(mean([2.0, 4.0].into_iter()), 3.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]) - 1.25).abs() < 1e-12);
    }
}
