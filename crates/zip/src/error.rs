use std::error::Error;
use std::fmt;

use vbadet_faultpoint::BudgetExceeded;

/// Errors produced while reading or writing ZIP archives and DEFLATE streams.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ZipError {
    /// The end-of-central-directory record was not found.
    MissingEndOfCentralDirectory,
    /// A structure was truncated: expected at least `needed` bytes at `offset`.
    Truncated { offset: usize, needed: usize },
    /// A magic signature did not match.
    BadSignature {
        offset: usize,
        expected: u32,
        found: u32,
    },
    /// The named member does not exist in the archive.
    MemberNotFound(String),
    /// The archive uses a compression method this crate does not implement.
    UnsupportedMethod(u16),
    /// The named member is encrypted (general-purpose flag bit 0).
    Encrypted(String),
    /// The named member's sizes carry the ZIP64 `0xFFFFFFFF` sentinel; the
    /// real sizes live in a ZIP64 extra field this crate does not read.
    Zip64(String),
    /// The stored CRC-32 does not match the decompressed data.
    CrcMismatch {
        name: String,
        expected: u32,
        found: u32,
    },
    /// The DEFLATE stream is malformed.
    InvalidDeflate(&'static str),
    /// A declared size is inconsistent with the actual data.
    SizeMismatch {
        name: String,
        expected: usize,
        found: usize,
    },
    /// A configured resource limit was exceeded (member size, entry count…).
    /// Distinguished from malformed-structure errors so callers can report
    /// capped inputs — e.g. decompression bombs — as a typed outcome.
    LimitExceeded { what: &'static str, limit: usize },
    /// The caller's scan budget (wall-clock deadline or fuel allowance)
    /// tripped mid-parse. Unlike [`ZipError::LimitExceeded`] this says
    /// nothing about the input's structure — only that the caller ran out
    /// of patience for it.
    DeadlineExceeded(BudgetExceeded),
}

impl From<BudgetExceeded> for ZipError {
    fn from(why: BudgetExceeded) -> Self {
        ZipError::DeadlineExceeded(why)
    }
}

impl fmt::Display for ZipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZipError::MissingEndOfCentralDirectory => {
                write!(f, "end-of-central-directory record not found")
            }
            ZipError::Truncated { offset, needed } => {
                write!(
                    f,
                    "truncated structure at offset {offset}, needed {needed} bytes"
                )
            }
            ZipError::BadSignature {
                offset,
                expected,
                found,
            } => write!(
                f,
                "bad signature at offset {offset}: expected {expected:#010x}, found {found:#010x}"
            ),
            ZipError::MemberNotFound(name) => write!(f, "member not found: {name}"),
            ZipError::UnsupportedMethod(m) => write!(f, "unsupported compression method {m}"),
            ZipError::Encrypted(name) => write!(f, "encrypted member not supported: {name}"),
            ZipError::Zip64(name) => write!(f, "zip64 member not supported: {name}"),
            ZipError::CrcMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "crc mismatch for {name}: expected {expected:#010x}, found {found:#010x}"
            ),
            ZipError::InvalidDeflate(msg) => write!(f, "invalid deflate stream: {msg}"),
            ZipError::SizeMismatch {
                name,
                expected,
                found,
            } => {
                write!(
                    f,
                    "size mismatch for {name}: expected {expected}, found {found}"
                )
            }
            ZipError::LimitExceeded { what, limit } => {
                write!(f, "resource limit exceeded: {what} (limit {limit})")
            }
            ZipError::DeadlineExceeded(why) => write!(f, "scan budget exceeded: {why}"),
        }
    }
}

impl Error for ZipError {}
