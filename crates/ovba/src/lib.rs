//! [MS-OVBA] VBA project storage: compression codec, `dir` stream records,
//! and whole-project reading/writing on top of [`vbadet_ole`].
//!
//! A VBA project lives inside an OLE compound file (either a standalone
//! `vbaProject.bin` for OOXML documents, or under a storage such as `Macros`
//! in a legacy `.doc`). The project's `VBA/dir` stream and every module's
//! source code are stored in the MS-OVBA *CompressedContainer* format — an
//! LZ77 variant with 4096-byte independent chunks.
//!
//! This crate implements:
//! - [`compression`]: the container codec, both directions;
//! - [`dir`]: the `dir` stream record format (project + module records);
//! - [`project`]: [`VbaProject`] extraction (the olevba-equivalent used by
//!   the detector) and [`VbaProjectBuilder`] synthesis (used by the corpus
//!   generator, so extraction is exercised against real container bytes).
//!
//! # Examples
//!
//! ```
//! use vbadet_ovba::{VbaProject, VbaProjectBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = VbaProjectBuilder::new("VBAProject");
//! builder.add_module("Module1", "Sub Hello()\r\n    MsgBox \"hi\"\r\nEnd Sub\r\n");
//! let bin = builder.build()?; // vbaProject.bin bytes
//!
//! let ole = vbadet_ole::OleFile::parse(&bin)?;
//! let project = VbaProject::from_ole(&ole)?;
//! assert_eq!(project.modules[0].name, "Module1");
//! assert!(project.modules[0].code.contains("MsgBox"));
//! # Ok(())
//! # }
//! ```

pub mod compression;
pub mod dir;
mod error;
pub mod project;
pub mod project_stream;
pub mod salvage;

pub use compression::{
    compress, decompress, decompress_budgeted, decompress_salvage_budgeted,
    DEFAULT_MAX_DECOMPRESSED,
};
pub use dir::{DirStream, ModuleRecord, ModuleType};
pub use error::OvbaError;
pub use project::{OvbaLimits, VbaModule, VbaProject, VbaProjectBuilder};
pub use project_stream::{ProjectModuleRef, ProjectStream};
pub use salvage::{salvage_modules_from_bytes_budgeted, salvage_modules_from_ole_budgeted};
pub use vbadet_faultpoint::{Budget, BudgetExceeded};
