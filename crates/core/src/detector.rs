//! The public detection API: train a classifier on labeled macros, then
//! score raw macro source or whole documents.

use crate::extract::extract_macros;
use crate::DetectError;
use vbadet_corpus::{generate_macros, CorpusSpec};
use vbadet_features::FeatureSet;
use vbadet_ml::{
    BernoulliNb, Classifier, LinearDiscriminant, MlpClassifier, RandomForest, StandardScaler,
    SvmRbf,
};

/// Which of the paper's five classifiers backs the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// Support Vector Machine, RBF kernel, `C = 150`, `γ = 0.03` (§IV.D).
    Svm,
    /// Random Forest, 100 trees, √d features per split.
    RandomForest,
    /// Multi-Layer Perceptron, one 32-unit hidden layer.
    Mlp,
    /// Linear Discriminant Analysis.
    Lda,
    /// Bernoulli Naive Bayes.
    BernoulliNb,
}

impl ClassifierKind {
    /// All five, in the paper's Table V order.
    pub const ALL: [ClassifierKind; 5] = [
        ClassifierKind::Svm,
        ClassifierKind::RandomForest,
        ClassifierKind::Mlp,
        ClassifierKind::Lda,
        ClassifierKind::BernoulliNb,
    ];

    /// Instantiates an untrained classifier with the paper's
    /// hyperparameters.
    pub fn build(self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ClassifierKind::Svm => Box::new(SvmRbf::new(150.0, 0.03)),
            ClassifierKind::RandomForest => Box::new(RandomForest::with_seed(100, 0, seed)),
            ClassifierKind::Mlp => Box::new(MlpClassifier::with_seed(&[32], 150, 0.02, seed)),
            ClassifierKind::Lda => Box::new(LinearDiscriminant::new()),
            ClassifierKind::BernoulliNb => Box::new(BernoulliNb::new(1.0)),
        }
    }

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::Svm => "SVM",
            ClassifierKind::RandomForest => "RF",
            ClassifierKind::Mlp => "MLP",
            ClassifierKind::Lda => "LDA",
            ClassifierKind::BernoulliNb => "BNB",
        }
    }
}

impl std::fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Feature set; the paper's proposal is [`FeatureSet::V`].
    pub feature_set: FeatureSet,
    /// Backing classifier; MLP scored the best F2 in the paper.
    pub classifier: ClassifierKind,
    /// Seed for stochastic classifiers.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            feature_set: FeatureSet::V,
            classifier: ClassifierKind::Mlp,
            seed: 0xD5,
        }
    }
}

/// Verdict for one macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Decision at the default threshold.
    pub obfuscated: bool,
    /// Raw decision score (positive ⇒ obfuscated; magnitude ≈ confidence).
    pub score: f64,
}

/// Verdict for one module of a scanned document.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleVerdict {
    /// Module name inside the VBA project.
    pub module_name: String,
    /// The verdict for its source.
    pub verdict: Verdict,
}

/// Reusable per-worker scoring state: the fused extractor's lexer and
/// token-pass buffers plus the feature and standardized vectors. Cleared
/// per module, capacity retained, so steady-state scoring allocates
/// nothing.
///
/// The detector's feature set picks the lexer mode: a detector on
/// V1–V15 scores each module in one V-mode lex pass, which builds no
/// token vector and runs no J-only machine (so the lexer statistics'
/// `line_count`, `long_lines`, `comment_words` and `readable_words` are
/// never filled); one on J1–J20 runs the full mode (see
/// [`vbadet_features::FeatureScratch`]).
#[derive(Debug, Default)]
pub struct ScoreScratch {
    fx: vbadet_features::FeatureScratch,
    features: Vec<f64>,
    scaled: Vec<f64>,
}

/// A trained obfuscation detector.
///
/// See the crate-level example. Train either on your own labeled macros
/// ([`Detector::train`]) or on the calibrated synthetic corpus
/// ([`Detector::train_on_corpus`]).
pub struct Detector {
    config: DetectorConfig,
    scaler: StandardScaler,
    model: Box<dyn Classifier>,
}

impl std::fmt::Debug for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Detector")
            .field("config", &self.config)
            .field("model", &self.model.name())
            .finish_non_exhaustive()
    }
}

impl Detector {
    /// Trains on `(source, is_obfuscated)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn train<'a, I>(config: &DetectorConfig, samples: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, bool)>,
    {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (source, label) in samples {
            x.push(config.feature_set.extract(source));
            y.push(label);
        }
        assert!(!x.is_empty(), "training set must be non-empty");
        let scaler = StandardScaler::fit(&x);
        let x = scaler.transform_all(&x);
        let mut model = config.classifier.build(config.seed);
        model.fit(&x, &y);
        Detector {
            config: *config,
            scaler,
            model,
        }
    }

    /// Trains on a synthetic corpus generated from `spec`.
    pub fn train_on_corpus(config: &DetectorConfig, spec: &CorpusSpec) -> Self {
        let macros = generate_macros(spec);
        Self::train(
            config,
            macros.iter().map(|m| (m.source.as_str(), m.obfuscated)),
        )
    }

    /// The configuration the detector was trained with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Scores one macro's source code.
    pub fn score(&self, source: &str) -> Verdict {
        let features = self.config.feature_set.extract(source);
        let z = self.scaler.transform(&features);
        let score = self.model.decision_function(&z);
        Verdict {
            obfuscated: score >= 0.0,
            score,
        }
    }

    /// Stage 1 of the split hot path: extracts this detector's feature
    /// set into `scratch`'s reusable buffers and returns the vector.
    /// Bit-identical to `config.feature_set.extract(source)`.
    pub fn extract_with<'s>(&self, scratch: &'s mut ScoreScratch, source: &str) -> &'s [f64] {
        let v = scratch.fx.extract(self.config.feature_set, source);
        scratch.features.clear();
        scratch.features.extend_from_slice(v);
        &scratch.features
    }

    /// Stage 2 of the split hot path: standardizes and classifies the
    /// features last written by [`Detector::extract_with`].
    pub fn predict_with(&self, scratch: &mut ScoreScratch) -> Verdict {
        self.scaler
            .transform_into(&scratch.features, &mut scratch.scaled);
        let score = self.model.decision_function(&scratch.scaled);
        Verdict {
            obfuscated: score >= 0.0,
            score,
        }
    }

    /// Allocation-free equivalent of [`Detector::score`]: fused
    /// extraction into `scratch`, then in-place standardization and
    /// classification. Bit-identical verdicts.
    pub fn score_with(&self, scratch: &mut ScoreScratch, source: &str) -> Verdict {
        self.extract_with(scratch, source);
        self.predict_with(scratch)
    }

    /// Whether one macro looks obfuscated.
    pub fn is_obfuscated(&self, source: &str) -> bool {
        self.score(source).obfuscated
    }

    /// Extracts and scores every macro module of a document
    /// (`.doc`/`.xls`/`.docm`/`.xlsm`/`vbaProject.bin` bytes).
    ///
    /// # Errors
    ///
    /// Propagates container/VBA parsing failures; see [`extract_macros`].
    pub fn scan_document(&self, bytes: &[u8]) -> Result<Vec<ModuleVerdict>, DetectError> {
        let macros = extract_macros(bytes)?;
        Ok(macros
            .into_iter()
            .map(|m| ModuleVerdict {
                verdict: self.score(&m.code),
                module_name: m.module_name,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vbadet_obfuscate::{Obfuscator, Technique};

    fn trained() -> Detector {
        // 0.1 scale: smaller draws hold too few lightly-obfuscated
        // examples for verdicts to generalize beyond the training draw.
        let spec = CorpusSpec::paper().scaled(0.1);
        Detector::train_on_corpus(&DetectorConfig::default(), &spec)
    }

    #[test]
    fn detects_freshly_obfuscated_code() {
        let detector = trained();
        // A plain macro with real string content (paths, messages) so the
        // string-hiding techniques have something to transform.
        let plain = "Attribute VB_Name = \"Module1\"\r\n\
                     Sub ExportReport()\r\n\
                     \x20   Dim target As String\r\n\
                     \x20   target = \"C:\\Reports\\quarterly_summary.csv\"\r\n\
                     \x20   ActiveSheet.Copy\r\n\
                     \x20   ActiveWorkbook.SaveAs Filename:=target, FileFormat:=6\r\n\
                     \x20   MsgBox \"Saved the quarterly report to \" & target\r\n\
                     End Sub\r\n";
        assert!(!detector.is_obfuscated(plain), "plain business macro");

        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let obfuscated = Obfuscator::new()
            .with(Technique::Split)
            .with(Technique::Encoding)
            .with(Technique::LogicWithIntensity(40))
            .with(Technique::Random)
            .apply(plain, &mut rng)
            .source;
        assert!(
            detector.is_obfuscated(&obfuscated),
            "same macro after O1-O4"
        );
    }

    #[test]
    fn scores_are_ordered_by_obviousness() {
        let detector = trained();
        let plain = "Sub A()\r\n    MsgBox \"hello there operator\"\r\nEnd Sub\r\n";
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let heavy = Obfuscator::new()
            .with(Technique::Split)
            .with(Technique::Encoding)
            .with(Technique::LogicWithIntensity(60))
            .with(Technique::Random)
            .apply(plain, &mut rng)
            .source;
        assert!(detector.score(&heavy).score > detector.score(plain).score);
    }

    #[test]
    fn scan_document_end_to_end() {
        let detector = trained();
        let mut project = vbadet_ovba::VbaProjectBuilder::new("P");
        project.add_module(
            "ThisDocument",
            "Sub Document_Open()\r\n    Call Helper\r\nEnd Sub\r\n",
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let obf = Obfuscator::new()
            .with(Technique::Split)
            .with(Technique::Encoding)
            .with(Technique::LogicWithIntensity(60))
            .with(Technique::Random)
            .apply(
                "Sub Helper()\r\n\
                 \x20   Dim sh As Object\r\n\
                 \x20   Set sh = CreateObject(\"WScript.Shell\")\r\n\
                 \x20   sh.Run \"powershell -enc SQBFAFgAIAAoAE4AZQB3AC0ATwBiAGoA\", 0, False\r\n\
                 \x20   Shell Environ(\"TEMP\") & \"\\stage2.exe\", 0\r\n\
                 End Sub\r\n",
                &mut rng,
            )
            .source;
        project.add_module("Module1", &obf);
        let bytes = project.build().unwrap();
        let verdicts = detector.scan_document(&bytes).unwrap();
        assert_eq!(verdicts.len(), 2);
        let module1 = verdicts
            .iter()
            .find(|v| v.module_name == "Module1")
            .unwrap();
        assert!(module1.verdict.obfuscated);
    }

    #[test]
    fn score_with_matches_score_bitwise() {
        let spec = CorpusSpec::paper().scaled(0.02);
        let macros = generate_macros(&spec);
        for set in [FeatureSet::V, FeatureSet::J] {
            let config = DetectorConfig {
                feature_set: set,
                ..DetectorConfig::default()
            };
            let detector = Detector::train(
                &config,
                macros.iter().map(|m| (m.source.as_str(), m.obfuscated)),
            );
            let mut scratch = ScoreScratch::default();
            for m in macros.iter().take(30) {
                let fast = detector.score_with(&mut scratch, &m.source);
                let slow = detector.score(&m.source);
                assert_eq!(fast.score.to_bits(), slow.score.to_bits(), "{set}");
                assert_eq!(fast.obfuscated, slow.obfuscated);
            }
        }
    }

    #[test]
    fn all_classifier_kinds_train_and_score() {
        let spec = CorpusSpec::paper().scaled(0.015);
        let macros = generate_macros(&spec);
        for kind in ClassifierKind::ALL {
            let config = DetectorConfig {
                classifier: kind,
                ..DetectorConfig::default()
            };
            let detector = Detector::train(
                &config,
                macros.iter().map(|m| (m.source.as_str(), m.obfuscated)),
            );
            let v = detector.score("Sub A()\r\n    x = 1\r\nEnd Sub\r\n");
            assert!(v.score.is_finite(), "{kind}");
        }
    }
}

// --- persistence ----------------------------------------------------------

impl ClassifierKind {
    /// Stable tag used in saved detector files.
    fn tag(self) -> &'static str {
        match self {
            ClassifierKind::Svm => "svm",
            ClassifierKind::RandomForest => "rf",
            ClassifierKind::Mlp => "mlp",
            ClassifierKind::Lda => "lda",
            ClassifierKind::BernoulliNb => "bnb",
        }
    }

    /// The classifier a saved-file tag names (`svm`, `rf`, `mlp`, `lda`,
    /// `bnb`), as the CLI's `--classifier` also spells them.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "svm" => ClassifierKind::Svm,
            "rf" => ClassifierKind::RandomForest,
            "mlp" => ClassifierKind::Mlp,
            "lda" => ClassifierKind::Lda,
            "bnb" => ClassifierKind::BernoulliNb,
            _ => return None,
        })
    }

    /// Restores a model of this kind from its serialized text.
    fn load_model(self, text: &str) -> Result<Box<dyn Classifier>, String> {
        Ok(match self {
            ClassifierKind::Svm => Box::new(SvmRbf::from_text(text).map_err(|e| e.to_string())?),
            ClassifierKind::RandomForest => {
                Box::new(RandomForest::from_text(text).map_err(|e| e.to_string())?)
            }
            ClassifierKind::Mlp => {
                Box::new(MlpClassifier::from_text(text).map_err(|e| e.to_string())?)
            }
            ClassifierKind::Lda => {
                Box::new(LinearDiscriminant::from_text(text).map_err(|e| e.to_string())?)
            }
            ClassifierKind::BernoulliNb => {
                Box::new(BernoulliNb::from_text(text).map_err(|e| e.to_string())?)
            }
        })
    }
}

/// Error restoring a saved detector.
#[derive(Debug)]
pub struct LoadError(String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot load detector: {}", self.0)
    }
}

impl std::error::Error for LoadError {}

/// The trailer line that ends a saved detector whose text before it is
/// `body`: the body's length in bytes and its SHA-256.
fn trailer(body: &str) -> String {
    let digest = crate::scan::cache::sha256(body.as_bytes());
    format!(
        "--end-- {} {}\n",
        body.len(),
        vbadet_metrics::json::hex(&digest)
    )
}

impl Detector {
    /// Serializes the trained detector (config, scaler, model) to text,
    /// ending with a trailer line `--end-- LEN SHA256` over the body
    /// before it, so a file cut short or damaged never loads.
    pub fn save(&self) -> String {
        let feature_tag = match self.config.feature_set {
            FeatureSet::V => "v",
            FeatureSet::J => "j",
        };
        let body = format!(
            "vbadet-detector v1\nfeatures {feature_tag}\nclassifier {}\nseed {}\n--scaler--\n{}--model--\n{}",
            self.config.classifier.tag(),
            self.config.seed,
            self.scaler.to_text(),
            self.model.save_text(),
        );
        let trailer = trailer(&body);
        body + &trailer
    }

    /// Restores a detector saved by [`Detector::save`].
    ///
    /// # Errors
    ///
    /// Fails on a missing or mismatched trailer (a file cut short, damaged,
    /// or saved before the trailer existed), on malformed text, or on an
    /// unknown classifier/feature tag.
    pub fn load(text: &str) -> Result<Self, LoadError> {
        let body = text
            .strip_suffix('\n')
            .and_then(|t| t.rfind('\n'))
            .map(|end| &text[..end + 1])
            .filter(|body| trailer(body) == text[body.len()..])
            .ok_or_else(|| {
                LoadError(
                    "no matching `--end--` trailer: the file is cut short, damaged, or from \
                     an older version; retrain it with `vbadet train`"
                        .to_string(),
                )
            })?;
        let mut lines = body.lines();
        if lines.next() != Some("vbadet-detector v1") {
            return Err(LoadError("bad header".to_string()));
        }
        let feature_set = match lines.next().and_then(|l| l.strip_prefix("features ")) {
            Some("v") => FeatureSet::V,
            Some("j") => FeatureSet::J,
            other => return Err(LoadError(format!("bad features line: {other:?}"))),
        };
        let classifier = lines
            .next()
            .and_then(|l| l.strip_prefix("classifier "))
            .and_then(ClassifierKind::from_tag)
            .ok_or_else(|| LoadError("bad classifier line".to_string()))?;
        let seed: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("seed "))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadError("bad seed line".to_string()))?;

        let rest = body
            .split_once("--scaler--\n")
            .ok_or_else(|| LoadError("missing scaler section".to_string()))?
            .1;
        let (scaler_text, model_text) = rest
            .split_once("--model--\n")
            .ok_or_else(|| LoadError("missing model section".to_string()))?;
        let scaler =
            StandardScaler::from_text(scaler_text).map_err(|e| LoadError(e.to_string()))?;
        let model = classifier.load_model(model_text).map_err(LoadError)?;
        Ok(Detector {
            config: DetectorConfig {
                feature_set,
                classifier,
                seed,
            },
            scaler,
            model,
        })
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn save_load_roundtrip_for_every_classifier() {
        let spec = CorpusSpec::paper().scaled(0.01);
        let macros = generate_macros(&spec);
        let samples: Vec<(&str, bool)> = macros
            .iter()
            .map(|m| (m.source.as_str(), m.obfuscated))
            .collect();
        for kind in ClassifierKind::ALL {
            let config = DetectorConfig {
                classifier: kind,
                ..DetectorConfig::default()
            };
            let detector = Detector::train(&config, samples.iter().copied());
            let text = detector.save();
            let loaded = Detector::load(&text).unwrap_or_else(|e| panic!("{kind}: {e}"));
            for (source, _) in samples.iter().take(20) {
                assert_eq!(
                    detector.score(source).score.to_bits(),
                    loaded.score(source).score.to_bits(),
                    "{kind}: scores must be bit-identical after reload"
                );
            }
        }
    }

    #[test]
    fn every_strict_prefix_and_every_byte_flip_of_a_saved_detector_fails_to_load() {
        let spec = CorpusSpec::paper().scaled(0.01);
        for kind in ClassifierKind::ALL {
            let config = DetectorConfig {
                classifier: kind,
                ..DetectorConfig::default()
            };
            let text = Detector::train_on_corpus(&config, &spec).save();
            for cut in 0..text.len() {
                let err = Detector::load(&text[..cut]).err();
                assert!(
                    err.is_some(),
                    "{kind}: a cut at {cut} of {} loaded",
                    text.len()
                );
            }
            // Flips spread across the body, and every byte of the trailer.
            // The text is ASCII, so a flip of the low bit keeps it a str.
            let trailer_at = text.rfind("--end--").unwrap();
            let spread = (0..trailer_at).step_by(trailer_at / 300 + 1);
            let mut bytes = text.clone().into_bytes();
            for at in spread.chain(trailer_at..text.len()) {
                bytes[at] ^= 1;
                let flipped = std::str::from_utf8(&bytes).unwrap();
                assert!(
                    Detector::load(flipped).is_err(),
                    "{kind}: a flip at {at} loaded"
                );
                bytes[at] ^= 1;
            }
            let err = Detector::load(&text[..text.len() - 1]).unwrap_err();
            assert!(err.to_string().contains("retrain"), "{err}");
        }
    }

    #[test]
    fn a_detector_saved_without_a_trailer_is_refused() {
        let spec = CorpusSpec::paper().scaled(0.01);
        let text = Detector::train_on_corpus(&DetectorConfig::default(), &spec).save();
        let body = &text[..text.rfind("--end--").unwrap()];
        let err = Detector::load(body).unwrap_err().to_string();
        assert!(err.contains("retrain it with `vbadet train`"), "{err}");
    }

    #[test]
    fn malformed_detector_text_rejected() {
        assert!(Detector::load("").is_err());
        assert!(Detector::load("vbadet-detector v1\nfeatures q\n").is_err());
        assert!(Detector::load("vbadet-detector v1\nfeatures v\nclassifier nope\n").is_err());
    }
}
