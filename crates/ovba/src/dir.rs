//! MS-OVBA §2.3.4.2 `dir` stream: project information, project references
//! and module records.
//!
//! The stream is a flat sequence of records (`u16` id, `u32` size, payload).
//! The parser is tolerant: unknown records are skipped, so projects written
//! by real Office builds (which include reference records we do not model)
//! still parse.

use crate::OvbaError;

/// Module kind (`MODULETYPE` record id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModuleType {
    /// Procedural module (record 0x21) — a standard `Module`.
    #[default]
    Procedural,
    /// Document, class or designer module (record 0x22) — e.g.
    /// `ThisDocument`, `ThisWorkbook`, `Sheet1`.
    Document,
}

/// One module's metadata from the `dir` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRecord {
    /// Module name (MBCS record 0x19).
    pub name: String,
    /// Name of the OLE stream holding this module's code (record 0x1A).
    pub stream_name: String,
    /// Byte offset of the compressed source within the module stream
    /// (record 0x31); bytes before it are the performance cache.
    pub text_offset: u32,
    /// Procedural vs document module.
    pub module_type: ModuleType,
    /// Whether the module is marked read-only (record 0x25).
    pub read_only: bool,
    /// Whether the module is marked private (record 0x28).
    pub private: bool,
}

/// Parsed project-level information from the `dir` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirStream {
    /// Target platform (record 0x01): 0 = 16-bit Win, 1 = 32-bit Win,
    /// 2 = Mac, 3 = 64-bit Win.
    pub syskind: u32,
    /// Locale id (record 0x02).
    pub lcid: u32,
    /// Code page for all MBCS strings (record 0x03).
    pub codepage: u16,
    /// Project name (record 0x04).
    pub name: String,
    /// Project doc string (record 0x05).
    pub doc_string: String,
    /// Help file path (record 0x06).
    pub help_file: String,
    /// Help context (record 0x07).
    pub help_context: u32,
    /// The project's modules, in record order.
    pub modules: Vec<ModuleRecord>,
}

impl Default for DirStream {
    fn default() -> Self {
        DirStream {
            syskind: 1,
            lcid: 0x0409,
            codepage: 1252,
            name: "VBAProject".to_string(),
            doc_string: String::new(),
            help_file: String::new(),
            help_context: 0,
            modules: Vec::new(),
        }
    }
}

/// Decodes an MBCS payload. We model code page 1252 as Latin-1, which is
/// exact for the ASCII subset every generated macro uses.
fn decode_mbcs(bytes: &[u8]) -> String {
    latin1(bytes.to_vec())
}

/// Maps each byte to the char of the same value (Latin-1). All-ASCII
/// input, the common case, becomes the `String` without a copy.
pub(crate) fn latin1(bytes: Vec<u8>) -> String {
    if bytes.is_ascii() {
        String::from_utf8(bytes).expect("ASCII is UTF-8")
    } else {
        bytes.iter().map(|&b| b as char).collect()
    }
}

fn encode_mbcs(s: &str) -> Vec<u8> {
    s.chars()
        .map(|c| if (c as u32) < 256 { c as u8 } else { b'?' })
        .collect()
}

fn encode_utf16(s: &str) -> Vec<u8> {
    s.encode_utf16().flat_map(|u| u.to_le_bytes()).collect()
}

impl DirStream {
    /// Parses an (already decompressed) `dir` stream.
    ///
    /// # Errors
    ///
    /// Fails on truncated records or when no module/name records are present.
    pub fn parse(data: &[u8]) -> Result<Self, OvbaError> {
        let mut dir = DirStream::default();
        let mut pos = 0usize;
        let mut current_module: Option<ModuleRecord> = None;
        let mut saw_name = false;

        while pos + 6 <= data.len() {
            let id = u16::from_le_bytes([data[pos], data[pos + 1]]);
            let mut size =
                u32::from_le_bytes([data[pos + 2], data[pos + 3], data[pos + 4], data[pos + 5]])
                    as usize;
            // PROJECTVERSION (0x09): the size field is a reserved constant 4
            // but the payload is actually 6 bytes (u32 major + u16 minor).
            if id == 0x09 {
                size = 6;
            }
            pos += 6;
            if pos + size > data.len() {
                return Err(OvbaError::BadDirRecord {
                    id,
                    reason: "record overruns stream",
                });
            }
            let payload = &data[pos..pos + size];
            pos += size;

            match id {
                0x01 => {
                    dir.syskind = read_u32(payload, id, "syskind")?;
                }
                0x02 => {
                    dir.lcid = read_u32(payload, id, "lcid")?;
                }
                0x03 => {
                    if payload.len() < 2 {
                        return Err(OvbaError::BadDirRecord {
                            id,
                            reason: "short codepage",
                        });
                    }
                    dir.codepage = u16::from_le_bytes([payload[0], payload[1]]);
                }
                0x04 => {
                    dir.name = decode_mbcs(payload);
                    saw_name = true;
                }
                0x05 => {
                    dir.doc_string = decode_mbcs(payload);
                }
                0x06 => {
                    dir.help_file = decode_mbcs(payload);
                }
                0x07 => {
                    dir.help_context = read_u32(payload, id, "help context")?;
                }
                0x19 => {
                    // New module begins; flush any previous one.
                    if let Some(m) = current_module.take() {
                        dir.modules.push(m);
                    }
                    current_module = Some(ModuleRecord {
                        name: decode_mbcs(payload),
                        stream_name: String::new(),
                        text_offset: 0,
                        module_type: ModuleType::Procedural,
                        read_only: false,
                        private: false,
                    });
                }
                0x1A => {
                    if let Some(m) = current_module.as_mut() {
                        m.stream_name = decode_mbcs(payload);
                    }
                }
                0x31 => {
                    if let Some(m) = current_module.as_mut() {
                        m.text_offset = read_u32(payload, id, "module offset")?;
                    }
                }
                0x21 => {
                    if let Some(m) = current_module.as_mut() {
                        m.module_type = ModuleType::Procedural;
                    }
                }
                0x22 => {
                    if let Some(m) = current_module.as_mut() {
                        m.module_type = ModuleType::Document;
                    }
                }
                0x25 => {
                    if let Some(m) = current_module.as_mut() {
                        m.read_only = true;
                    }
                }
                0x28 => {
                    if let Some(m) = current_module.as_mut() {
                        m.private = true;
                    }
                }
                0x2B => {
                    // Module terminator.
                    if let Some(m) = current_module.take() {
                        dir.modules.push(m);
                    }
                }
                0x10 => {
                    // dir terminator.
                    break;
                }
                _ => { /* tolerated: references, unicode mirrors, cookies… */ }
            }
        }
        if let Some(m) = current_module.take() {
            dir.modules.push(m);
        }
        if !saw_name && dir.modules.is_empty() {
            return Err(OvbaError::MissingDirRecord("PROJECTNAME/MODULE"));
        }
        Ok(dir)
    }

    /// Serializes this structure to (uncompressed) `dir` stream bytes,
    /// mirroring the record layout Office writes.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let rec = |out: &mut Vec<u8>, id: u16, payload: &[u8]| {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
        };

        // PROJECTINFORMATION.
        rec(&mut out, 0x01, &self.syskind.to_le_bytes());
        rec(&mut out, 0x02, &self.lcid.to_le_bytes());
        rec(&mut out, 0x14, &self.lcid.to_le_bytes()); // LCIDINVOKE
        rec(&mut out, 0x03, &self.codepage.to_le_bytes());
        rec(&mut out, 0x04, &encode_mbcs(&self.name));
        // DOCSTRING: MBCS record + 0x40 unicode mirror.
        rec(&mut out, 0x05, &encode_mbcs(&self.doc_string));
        rec(&mut out, 0x40, &encode_utf16(&self.doc_string));
        // HELPFILE: two MBCS copies (0x06, 0x3D).
        rec(&mut out, 0x06, &encode_mbcs(&self.help_file));
        rec(&mut out, 0x3D, &encode_mbcs(&self.help_file));
        rec(&mut out, 0x07, &self.help_context.to_le_bytes());
        rec(&mut out, 0x08, &0u32.to_le_bytes()); // LIBFLAGS
                                                  // PROJECTVERSION: reserved size field 4, 6 payload bytes.
        out.extend_from_slice(&0x09u16.to_le_bytes());
        out.extend_from_slice(&4u32.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes()); // version major
        out.extend_from_slice(&0u16.to_le_bytes()); // version minor
                                                    // CONSTANTS: MBCS + unicode mirror.
        rec(&mut out, 0x0C, b"");
        rec(&mut out, 0x3C, b"");

        // PROJECTMODULES header.
        rec(&mut out, 0x0F, &(self.modules.len() as u16).to_le_bytes());
        rec(&mut out, 0x13, &0xFFFFu16.to_le_bytes()); // PROJECTCOOKIE

        for module in &self.modules {
            rec(&mut out, 0x19, &encode_mbcs(&module.name));
            rec(&mut out, 0x47, &encode_utf16(&module.name)); // NAMEUNICODE
            rec(&mut out, 0x1A, &encode_mbcs(&module.stream_name));
            rec(&mut out, 0x32, &encode_utf16(&module.stream_name));
            rec(&mut out, 0x1C, b""); // MODULEDOCSTRING
            rec(&mut out, 0x48, b"");
            rec(&mut out, 0x31, &module.text_offset.to_le_bytes());
            rec(&mut out, 0x1E, &0u32.to_le_bytes()); // MODULEHELPCONTEXT
            rec(&mut out, 0x2C, &0xFFFFu16.to_le_bytes()); // MODULECOOKIE
            let type_id = match module.module_type {
                ModuleType::Procedural => 0x21u16,
                ModuleType::Document => 0x22u16,
            };
            rec(&mut out, type_id, b"");
            if module.read_only {
                rec(&mut out, 0x25, b"");
            }
            if module.private {
                rec(&mut out, 0x28, b"");
            }
            rec(&mut out, 0x2B, b""); // module terminator
        }

        rec(&mut out, 0x10, b""); // dir terminator
        out
    }
}

fn read_u32(payload: &[u8], id: u16, what: &'static str) -> Result<u32, OvbaError> {
    if payload.len() < 4 {
        return Err(OvbaError::BadDirRecord { id, reason: what });
    }
    Ok(u32::from_le_bytes([
        payload[0], payload[1], payload[2], payload[3],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DirStream {
        DirStream {
            syskind: 3,
            lcid: 0x0409,
            codepage: 1252,
            name: "TestProject".to_string(),
            doc_string: "a doc string".to_string(),
            help_file: String::new(),
            help_context: 7,
            modules: vec![
                ModuleRecord {
                    name: "ThisDocument".to_string(),
                    stream_name: "ThisDocument".to_string(),
                    text_offset: 0,
                    module_type: ModuleType::Document,
                    read_only: false,
                    private: false,
                },
                ModuleRecord {
                    name: "Module1".to_string(),
                    stream_name: "Module1".to_string(),
                    text_offset: 1234,
                    module_type: ModuleType::Procedural,
                    read_only: true,
                    private: true,
                },
            ],
        }
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let dir = sample();
        let parsed = DirStream::parse(&dir.serialize()).unwrap();
        assert_eq!(parsed, dir);
    }

    #[test]
    fn empty_project_roundtrips() {
        let dir = DirStream::default();
        let parsed = DirStream::parse(&dir.serialize()).unwrap();
        assert_eq!(parsed.name, "VBAProject");
        assert!(parsed.modules.is_empty());
    }

    #[test]
    fn unknown_records_are_skipped() {
        let mut bytes = Vec::new();
        // Unknown record 0x7777 before a valid stream.
        bytes.extend_from_slice(&0x7777u16.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"xyz");
        bytes.extend_from_slice(&sample().serialize());
        let parsed = DirStream::parse(&bytes).unwrap();
        assert_eq!(parsed.modules.len(), 2);
    }

    #[test]
    fn truncated_record_rejected() {
        let mut bytes = sample().serialize();
        // Chop inside the last record's payload... extend with a record that
        // promises more bytes than remain.
        bytes.extend_from_slice(&0x04u16.to_le_bytes());
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(b"short");
        // The 0x10 terminator inside `bytes` stops parsing before the bad
        // tail, so this still parses; strip the terminator to expose it.
        let clean = sample().serialize();
        let without_term = &clean[..clean.len() - 6];
        let mut bad = without_term.to_vec();
        bad.extend_from_slice(&0x04u16.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(b"short");
        assert!(DirStream::parse(&bad).is_err());
    }

    #[test]
    fn version_record_six_byte_quirk() {
        // A stream consisting of NAME + VERSION + terminator must parse, and
        // the 6-byte version payload must not desynchronize the reader.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x04u16.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"Proj");
        bytes.extend_from_slice(&0x09u16.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[9, 9, 9, 9, 7, 7]); // u32 + u16
        bytes.extend_from_slice(&0x10u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let parsed = DirStream::parse(&bytes).unwrap();
        assert_eq!(parsed.name, "Proj");
    }

    #[test]
    fn garbage_never_panics() {
        let mut state = 3141u64;
        for len in [0usize, 1, 5, 6, 7, 64, 500] {
            for _ in 0..60 {
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                let _ = DirStream::parse(&data);
            }
        }
    }
}
