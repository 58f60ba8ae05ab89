//! Umbrella crate for the workspace: hosts cross-crate integration tests
//! (`tests/`) and runnable examples (`examples/`). The actual library lives
//! in the `vbadet` crate and its substrate crates; [`testkit`] is the
//! scaffolding the integration suites and the serve soaks share.

pub mod testkit;

pub use vbadet;
pub use vbadet_corpus as corpus;
pub use vbadet_features as features;
pub use vbadet_ml as ml;
pub use vbadet_obfuscate as obfuscate;
pub use vbadet_ole as ole;
pub use vbadet_ovba as ovba;
pub use vbadet_vba as vba;
pub use vbadet_zip as zip;
