//! ZIP archive container: enough of APPNOTE.TXT to read and write OOXML
//! documents (local file headers, central directory, end-of-central-directory;
//! methods 0 = stored and 8 = deflate).

use crate::crc32::crc32;
use crate::deflate::{deflate, BlockStyle};
use crate::inflate::inflate_budgeted;
use crate::ZipError;
use vbadet_faultpoint::{faultpoint, Budget};
use vbadet_metrics::{Counter, Stage};

const LOCAL_HEADER_SIG: u32 = 0x0403_4B50;
const CENTRAL_HEADER_SIG: u32 = 0x0201_4B50;
const EOCD_SIG: u32 = 0x0605_4B50;
/// Per-member decompressed size cap (OOXML parts are small).
const MAX_MEMBER: usize = 1 << 28;

/// Resource caps applied while parsing an archive and extracting members.
///
/// Overruns surface as [`ZipError::LimitExceeded`] — a typed outcome, not an
/// allocation. In particular a decompression bomb is rejected from its
/// *declared* size before any output buffer is grown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipLimits {
    /// Maximum number of central-directory entries.
    pub max_entries: usize,
    /// Maximum decompressed size of any single member.
    pub max_member_bytes: usize,
}

impl Default for ZipLimits {
    fn default() -> Self {
        ZipLimits {
            max_entries: 1 << 14,
            max_member_bytes: MAX_MEMBER,
        }
    }
}

/// Compression method for an archive member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompressionMethod {
    /// Method 0: no compression.
    Stored,
    /// Method 8: DEFLATE.
    #[default]
    Deflate,
}

impl CompressionMethod {
    fn code(self) -> u16 {
        match self {
            CompressionMethod::Stored => 0,
            CompressionMethod::Deflate => 8,
        }
    }
}

/// Central-directory metadata for one archive member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipEntry {
    /// Member path, as stored (forward-slash separated).
    pub name: String,
    /// General-purpose bit flags (bit 0: encrypted).
    pub flags: u16,
    /// Compression method code (0 or 8 are supported for extraction).
    pub method: u16,
    /// CRC-32 of the uncompressed data.
    pub crc32: u32,
    /// Size of the stored (possibly compressed) data.
    pub compressed_size: u32,
    /// Size of the uncompressed data.
    pub uncompressed_size: u32,
    /// Offset of the member's local header from the start of the archive.
    pub local_header_offset: u32,
}

/// A parsed, in-memory ZIP archive.
///
/// Parsing reads the central directory only; member data is decompressed on
/// demand by [`ZipArchive::read_file`].
#[derive(Debug, Clone)]
pub struct ZipArchive<'a> {
    data: &'a [u8],
    entries: Vec<ZipEntry>,
    limits: ZipLimits,
    /// Shared cooperative budget; member extraction charges against it.
    budget: Budget,
}

fn read_u16(data: &[u8], offset: usize) -> Result<u16, ZipError> {
    data.get(offset..offset + 2)
        .map(|b| u16::from_le_bytes([b[0], b[1]]))
        .ok_or(ZipError::Truncated { offset, needed: 2 })
}

fn read_u32(data: &[u8], offset: usize) -> Result<u32, ZipError> {
    data.get(offset..offset + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(ZipError::Truncated { offset, needed: 4 })
}

impl<'a> ZipArchive<'a> {
    /// Parses the archive's central directory.
    ///
    /// # Errors
    ///
    /// Fails when the end-of-central-directory record cannot be located or a
    /// central directory entry is malformed.
    pub fn parse(data: &'a [u8]) -> Result<Self, ZipError> {
        Self::parse_budgeted(data, ZipLimits::default(), Budget::unlimited())
    }

    /// Like [`ZipArchive::parse`] but under explicit resource limits, and
    /// charging parsing work — and all later member extraction through the
    /// returned archive — against a cooperative scan [`Budget`].
    ///
    /// # Errors
    ///
    /// In addition to the malformed-input errors of [`ZipArchive::parse`],
    /// returns [`ZipError::LimitExceeded`] when the central directory
    /// declares more entries than `limits` allows, and
    /// [`ZipError::DeadlineExceeded`] when the budget trips.
    pub fn parse_budgeted(
        data: &'a [u8],
        limits: ZipLimits,
        budget: Budget,
    ) -> Result<Self, ZipError> {
        faultpoint!("zip::parse", Err(ZipError::MissingEndOfCentralDirectory));
        let _t = budget.metrics().time(Stage::ZipParseNs);
        // EOCD is at least 22 bytes and ends with a variable-length comment:
        // scan backwards for the signature.
        if data.len() < 22 {
            return Err(ZipError::MissingEndOfCentralDirectory);
        }
        let mut eocd_offset = None;
        let scan_start = data.len() - 22;
        let scan_floor = scan_start.saturating_sub(0xFFFF);
        for offset in (scan_floor..=scan_start).rev() {
            if offset % 1024 == 0 {
                budget.charge(1)?;
            }
            if read_u32(data, offset)? == EOCD_SIG {
                eocd_offset = Some(offset);
                break;
            }
        }
        let eocd = eocd_offset.ok_or(ZipError::MissingEndOfCentralDirectory)?;
        let entry_count = read_u16(data, eocd + 10)? as usize;
        let cd_offset = read_u32(data, eocd + 16)? as usize;
        if entry_count > limits.max_entries {
            return Err(ZipError::LimitExceeded {
                what: "central directory entries",
                limit: limits.max_entries,
            });
        }

        let mut entries = Vec::with_capacity(entry_count);
        let mut pos = cd_offset;
        for _ in 0..entry_count {
            budget.charge(1)?;
            let sig = read_u32(data, pos)?;
            if sig != CENTRAL_HEADER_SIG {
                return Err(ZipError::BadSignature {
                    offset: pos,
                    expected: CENTRAL_HEADER_SIG,
                    found: sig,
                });
            }
            let flags = read_u16(data, pos + 8)?;
            let method = read_u16(data, pos + 10)?;
            let crc = read_u32(data, pos + 16)?;
            let compressed_size = read_u32(data, pos + 20)?;
            let uncompressed_size = read_u32(data, pos + 24)?;
            let name_len = read_u16(data, pos + 28)? as usize;
            let extra_len = read_u16(data, pos + 30)? as usize;
            let comment_len = read_u16(data, pos + 32)? as usize;
            let local_header_offset = read_u32(data, pos + 42)?;
            let name_bytes =
                data.get(pos + 46..pos + 46 + name_len)
                    .ok_or(ZipError::Truncated {
                        offset: pos + 46,
                        needed: name_len,
                    })?;
            let name = String::from_utf8_lossy(name_bytes).into_owned();
            entries.push(ZipEntry {
                name,
                flags,
                method,
                crc32: crc,
                compressed_size,
                uncompressed_size,
                local_header_offset,
            });
            pos += 46 + name_len + extra_len + comment_len;
        }
        budget.metrics().count(Counter::ZipParses, 1);
        budget
            .metrics()
            .count(Counter::ZipEntries, entries.len() as u64);
        Ok(ZipArchive {
            data,
            entries,
            limits,
            budget,
        })
    }

    /// The central-directory entries, in directory order.
    pub fn entries(&self) -> &[ZipEntry] {
        &self.entries
    }

    /// Returns the names of all members.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Returns whether the archive contains a member named `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Extracts and verifies one member by name.
    ///
    /// # Errors
    ///
    /// Fails when the member is missing, uses an unsupported compression
    /// method, is malformed, or its CRC-32 does not match.
    pub fn read_file(&self, name: &str) -> Result<Vec<u8>, ZipError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| ZipError::MemberNotFound(name.to_string()))?;
        self.read_entry(entry)
    }

    /// Extracts and verifies the member described by `entry`.
    ///
    /// # Errors
    ///
    /// As [`ZipArchive::read_file`]. An encrypted member fails with
    /// [`ZipError::Encrypted`] and a member whose sizes carry the ZIP64
    /// `0xFFFFFFFF` sentinel with [`ZipError::Zip64`], both before any
    /// data is read or allocated.
    pub fn read_entry(&self, entry: &ZipEntry) -> Result<Vec<u8>, ZipError> {
        if entry.compressed_size == u32::MAX || entry.uncompressed_size == u32::MAX {
            return Err(ZipError::Zip64(entry.name.clone()));
        }
        // Reject from the declared sizes before touching any data: a bomb
        // must trip the limit without the output buffer ever growing.
        let cap = self.limits.max_member_bytes;
        if entry.uncompressed_size as usize > cap || entry.compressed_size as usize > cap {
            return Err(ZipError::LimitExceeded {
                what: "member size",
                limit: cap,
            });
        }
        let pos = entry.local_header_offset as usize;
        let sig = read_u32(self.data, pos)?;
        if sig != LOCAL_HEADER_SIG {
            return Err(ZipError::BadSignature {
                offset: pos,
                expected: LOCAL_HEADER_SIG,
                found: sig,
            });
        }
        // Either header marking the member encrypted is enough: its bytes
        // would only inflate to noise.
        if (entry.flags | read_u16(self.data, pos + 6)?) & 1 != 0 {
            return Err(ZipError::Encrypted(entry.name.clone()));
        }
        // Name/extra lengths in the local header may differ from the central
        // directory; trust the local ones for locating data.
        let name_len = read_u16(self.data, pos + 26)? as usize;
        let extra_len = read_u16(self.data, pos + 28)? as usize;
        let data_start = pos + 30 + name_len + extra_len;
        let raw = self
            .data
            .get(data_start..data_start + entry.compressed_size as usize)
            .ok_or(ZipError::Truncated {
                offset: data_start,
                needed: entry.compressed_size as usize,
            })?;

        let metrics = self.budget.metrics();
        let out = match entry.method {
            0 => {
                self.budget.charge((raw.len() / 1024) as u64 + 1)?;
                metrics.count(Counter::ZipBytesStored, raw.len() as u64);
                raw.to_vec()
            }
            8 => {
                let _t = metrics.time(Stage::ZipInflateNs);
                let out = inflate_budgeted(raw, cap, &self.budget)?;
                metrics.count(Counter::ZipBytesInflated, out.len() as u64);
                out
            }
            m => return Err(ZipError::UnsupportedMethod(m)),
        };
        if out.len() != entry.uncompressed_size as usize {
            return Err(ZipError::SizeMismatch {
                name: entry.name.clone(),
                expected: entry.uncompressed_size as usize,
                found: out.len(),
            });
        }
        let found = crc32(&out);
        if found != entry.crc32 {
            return Err(ZipError::CrcMismatch {
                name: entry.name.clone(),
                expected: entry.crc32,
                found,
            });
        }
        metrics.count(Counter::ZipMembersRead, 1);
        Ok(out)
    }
}

/// Incrementally builds a ZIP archive in memory.
///
/// ```
/// use vbadet_zip::{ZipWriter, ZipArchive, CompressionMethod};
/// # fn main() -> Result<(), vbadet_zip::ZipError> {
/// let mut w = ZipWriter::new();
/// w.add_file("a.txt", b"alpha", CompressionMethod::Stored)?;
/// w.add_file("dir/b.bin", &[0u8; 128], CompressionMethod::Deflate)?;
/// let bytes = w.finish();
/// assert_eq!(ZipArchive::parse(&bytes)?.entries().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ZipWriter {
    out: Vec<u8>,
    entries: Vec<ZipEntry>,
}

impl ZipWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one member. Deflate falls back to stored when compression
    /// would grow the data.
    ///
    /// # Errors
    ///
    /// Fails if `data` exceeds the 32-bit ZIP size fields.
    pub fn add_file(
        &mut self,
        name: &str,
        data: &[u8],
        method: CompressionMethod,
    ) -> Result<&mut Self, ZipError> {
        if data.len() > u32::MAX as usize {
            return Err(ZipError::SizeMismatch {
                name: name.to_string(),
                expected: u32::MAX as usize,
                found: data.len(),
            });
        }
        let (stored, actual_method) = match method {
            CompressionMethod::Stored => (data.to_vec(), CompressionMethod::Stored),
            CompressionMethod::Deflate => {
                let packed = deflate(data, BlockStyle::Dynamic);
                if packed.len() < data.len() {
                    (packed, CompressionMethod::Deflate)
                } else {
                    (data.to_vec(), CompressionMethod::Stored)
                }
            }
        };
        let crc = crc32(data);
        let offset = self.out.len() as u32;
        let name_bytes = name.as_bytes();

        self.out.extend_from_slice(&LOCAL_HEADER_SIG.to_le_bytes());
        self.out.extend_from_slice(&20u16.to_le_bytes()); // version needed
        self.out.extend_from_slice(&0u16.to_le_bytes()); // flags
        self.out
            .extend_from_slice(&actual_method.code().to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // mod time
        self.out.extend_from_slice(&0x21u16.to_le_bytes()); // mod date (1980-01-01)
        self.out.extend_from_slice(&crc.to_le_bytes());
        self.out
            .extend_from_slice(&(stored.len() as u32).to_le_bytes());
        self.out
            .extend_from_slice(&(data.len() as u32).to_le_bytes());
        self.out
            .extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // extra len
        self.out.extend_from_slice(name_bytes);
        self.out.extend_from_slice(&stored);

        self.entries.push(ZipEntry {
            name: name.to_string(),
            flags: 0,
            method: actual_method.code(),
            crc32: crc,
            compressed_size: stored.len() as u32,
            uncompressed_size: data.len() as u32,
            local_header_offset: offset,
        });
        Ok(self)
    }

    /// Writes the central directory and end record, returning the archive.
    pub fn finish(mut self) -> Vec<u8> {
        let cd_offset = self.out.len() as u32;
        for entry in &self.entries {
            let name_bytes = entry.name.as_bytes();
            self.out
                .extend_from_slice(&CENTRAL_HEADER_SIG.to_le_bytes());
            self.out.extend_from_slice(&20u16.to_le_bytes()); // version made by
            self.out.extend_from_slice(&20u16.to_le_bytes()); // version needed
            self.out.extend_from_slice(&0u16.to_le_bytes()); // flags
            self.out.extend_from_slice(&entry.method.to_le_bytes());
            self.out.extend_from_slice(&0u16.to_le_bytes()); // mod time
            self.out.extend_from_slice(&0x21u16.to_le_bytes()); // mod date
            self.out.extend_from_slice(&entry.crc32.to_le_bytes());
            self.out
                .extend_from_slice(&entry.compressed_size.to_le_bytes());
            self.out
                .extend_from_slice(&entry.uncompressed_size.to_le_bytes());
            self.out
                .extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
            self.out.extend_from_slice(&0u16.to_le_bytes()); // extra len
            self.out.extend_from_slice(&0u16.to_le_bytes()); // comment len
            self.out.extend_from_slice(&0u16.to_le_bytes()); // disk number
            self.out.extend_from_slice(&0u16.to_le_bytes()); // internal attrs
            self.out.extend_from_slice(&0u32.to_le_bytes()); // external attrs
            self.out
                .extend_from_slice(&entry.local_header_offset.to_le_bytes());
            self.out.extend_from_slice(name_bytes);
        }
        let cd_size = self.out.len() as u32 - cd_offset;
        let count = self.entries.len() as u16;
        self.out.extend_from_slice(&EOCD_SIG.to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // disk number
        self.out.extend_from_slice(&0u16.to_le_bytes()); // cd start disk
        self.out.extend_from_slice(&count.to_le_bytes());
        self.out.extend_from_slice(&count.to_le_bytes());
        self.out.extend_from_slice(&cd_size.to_le_bytes());
        self.out.extend_from_slice(&cd_offset.to_le_bytes());
        self.out.extend_from_slice(&0u16.to_le_bytes()); // comment len
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_stored_and_deflate() {
        let mut w = ZipWriter::new();
        w.add_file("stored.txt", b"plain contents", CompressionMethod::Stored)
            .unwrap();
        let big = b"repetitive payload ".repeat(500);
        w.add_file("deep/nested/deflate.bin", &big, CompressionMethod::Deflate)
            .unwrap();
        let bytes = w.finish();

        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(archive.entries().len(), 2);
        assert!(archive.contains("stored.txt"));
        assert_eq!(archive.read_file("stored.txt").unwrap(), b"plain contents");
        assert_eq!(archive.read_file("deep/nested/deflate.bin").unwrap(), big);
        // Deflate member should actually be smaller on disk.
        let entry = archive
            .entries()
            .iter()
            .find(|e| e.name.ends_with("deflate.bin"))
            .unwrap();
        assert_eq!(entry.method, 8);
        assert!(entry.compressed_size < entry.uncompressed_size);
    }

    #[test]
    fn incompressible_member_falls_back_to_stored() {
        let mut state = 99u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 33) as u8
            })
            .collect();
        let mut w = ZipWriter::new();
        w.add_file("noise", &noise, CompressionMethod::Deflate)
            .unwrap();
        let bytes = w.finish();
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(archive.entries()[0].method, 0);
        assert_eq!(archive.read_file("noise").unwrap(), noise);
    }

    #[test]
    fn empty_archive_roundtrips() {
        let bytes = ZipWriter::new().finish();
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(archive.entries().len(), 0);
        assert!(matches!(
            archive.read_file("x"),
            Err(ZipError::MemberNotFound(_))
        ));
    }

    #[test]
    fn empty_member_roundtrips() {
        let mut w = ZipWriter::new();
        w.add_file("empty", b"", CompressionMethod::Deflate)
            .unwrap();
        let bytes = w.finish();
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(archive.read_file("empty").unwrap(), b"");
    }

    #[test]
    fn corrupted_member_detected_by_crc() {
        let mut w = ZipWriter::new();
        w.add_file("f", b"0123456789abcdef", CompressionMethod::Stored)
            .unwrap();
        let mut bytes = w.finish();
        // Flip a data byte inside the stored member (after the 30-byte local
        // header + 1-byte name).
        bytes[31 + 4] ^= 0xFF;
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert!(matches!(
            archive.read_file("f"),
            Err(ZipError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn missing_eocd_rejected() {
        assert!(matches!(
            ZipArchive::parse(&[0u8; 64]),
            Err(ZipError::MissingEndOfCentralDirectory)
        ));
        assert!(ZipArchive::parse(b"short").is_err());
    }

    #[test]
    fn unsupported_method_reported() {
        let mut w = ZipWriter::new();
        w.add_file("f", b"data here", CompressionMethod::Stored)
            .unwrap();
        let mut bytes = w.finish();
        // Patch method field in both local (offset 8) and central headers.
        bytes[8] = 99;
        let cd = bytes.len() - 22 - 46 - 1; // EOCD + one CD entry + name "f"
        bytes[cd + 10] = 99;
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert!(matches!(
            archive.read_file("f"),
            Err(ZipError::UnsupportedMethod(99))
        ));
    }

    #[test]
    fn archive_with_comment_is_parsed() {
        let mut bytes = {
            let mut w = ZipWriter::new();
            w.add_file("f", b"x", CompressionMethod::Stored).unwrap();
            w.finish()
        };
        // Append a trailing comment and fix the comment-length field.
        let comment = b"trailing zip comment";
        let eocd = bytes.len() - 22;
        bytes[eocd + 20] = comment.len() as u8;
        bytes.extend_from_slice(comment);
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(archive.read_file("f").unwrap(), b"x");
    }

    #[test]
    fn many_members() {
        let mut w = ZipWriter::new();
        for i in 0..300 {
            let name = format!("part/{i}.xml");
            let body = format!("<part id='{i}'/>").repeat(i % 7 + 1);
            w.add_file(&name, body.as_bytes(), CompressionMethod::Deflate)
                .unwrap();
        }
        let bytes = w.finish();
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(archive.entries().len(), 300);
        for i in [0usize, 1, 150, 299] {
            let body = format!("<part id='{i}'/>").repeat(i % 7 + 1);
            assert_eq!(
                archive.read_file(&format!("part/{i}.xml")).unwrap(),
                body.as_bytes()
            );
        }
    }
}
