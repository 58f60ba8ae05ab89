//! Minimal, dependency-free ZIP and raw-DEFLATE implementation.
//!
//! OOXML documents (`.docm`, `.xlsm`) are ZIP archives whose members are
//! (usually) DEFLATE-compressed. The paper's extraction pipeline therefore
//! needs a ZIP container reader; the synthetic-corpus generator additionally
//! needs a writer so that end-to-end tests exercise real container bytes.
//!
//! The crate provides:
//!
//! - [`crc32`]: the CRC-32 checksum used by ZIP,
//! - [`mod@deflate`]: an RFC 1951 compressor (stored / fixed-Huffman /
//!   dynamic-Huffman blocks with greedy LZ77 matching),
//! - [`mod@inflate`]: a full RFC 1951 decompressor,
//! - [`ZipArchive`]/[`ZipWriter`]: ZIP archive reading and writing
//!   (methods 0 and 8).
//!
//! # Examples
//!
//! ```
//! use vbadet_zip::{ZipWriter, ZipArchive, CompressionMethod};
//!
//! # fn main() -> Result<(), vbadet_zip::ZipError> {
//! let mut writer = ZipWriter::new();
//! writer.add_file("word/vbaProject.bin", b"binary payload", CompressionMethod::Deflate)?;
//! let bytes = writer.finish();
//!
//! let archive = ZipArchive::parse(&bytes)?;
//! assert_eq!(archive.read_file("word/vbaProject.bin")?, b"binary payload");
//! # Ok(())
//! # }
//! ```

mod archive;
mod bits;
pub mod crc32;
pub mod deflate;
mod error;
mod huffman;
pub mod inflate;

pub use archive::{CompressionMethod, ZipArchive, ZipEntry, ZipLimits, ZipWriter};
pub use deflate::{deflate, BlockStyle};
pub use error::ZipError;
pub use inflate::{inflate, inflate_budgeted};
pub use vbadet_faultpoint::{Budget, BudgetExceeded};
