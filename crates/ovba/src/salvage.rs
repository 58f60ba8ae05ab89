//! Salvage extraction for damaged VBA projects (olevba's "stomped / corrupt
//! container" fallback).
//!
//! When the `dir` stream is unreadable — VBA stomping, a truncated project,
//! a deliberately corrupted directory — the module *source* often still
//! sits in the file as intact MS-OVBA compressed containers. Salvage mode
//! scans raw bytes for container signatures (0x01 followed by a chunk
//! header whose signature bits are 0b011), decompresses best-effort, and
//! keeps whatever looks like VBA text.

use crate::compression::decompress_salvage_budgeted;
use crate::dir::{latin1, ModuleType};
use crate::project::{OvbaLimits, VbaModule};
use crate::OvbaError;
use vbadet_faultpoint::Budget;
use vbadet_metrics::Counter;
use vbadet_ole::OleFile;

/// Minimum decompressed size for a salvaged blob to count as a module. A
/// sweep over raw bytes meets chance container signatures, and a very short
/// decode can carry a keyword such as `dim ` by accident; Office opens every
/// module with an `Attribute VB_Name = "…"` line, so real module source
/// clears this floor. It is not the paper's 150-byte short-macro floor
/// (`vbadet::preprocess::MIN_MACRO_BYTES`), which the paper applies when
/// it prepares its macro corpus (§IV.B), not to what a scan extracts.
const MIN_SALVAGE_BYTES: usize = 32;

/// Whether a decompressed blob plausibly is VBA source rather than one of
/// the binary project streams (`dir`, `_VBA_PROJECT`…): mostly printable,
/// with at least one telltale keyword.
fn looks_like_vba(text: &[u8]) -> bool {
    let printable = text
        .iter()
        .filter(|&&b| matches!(b, b'\r' | b'\n' | b'\t') || (0x20..0x7F).contains(&b))
        .count();
    if printable * 10 < text.len() * 9 {
        return false;
    }
    let head: String = text
        .iter()
        .take(4096)
        .map(|&b| (b as char).to_ascii_lowercase())
        .collect();
    [
        "attribute vb_",
        "sub ",
        "function ",
        "dim ",
        "end sub",
        "end function",
    ]
    .iter()
    .any(|k| head.contains(k))
}

/// Scans `data` for embedded compressed containers and returns every blob
/// that decompresses cleanly and looks like VBA source. `origin` labels the
/// recovered modules (a stream path, or `""` for a raw buffer). The byte
/// scan (one fuel unit per KiB) and each chunk decode are charged against a
/// cooperative scan [`Budget`].
///
/// # Errors
///
/// Returns [`OvbaError::DeadlineExceeded`] when the budget trips; malformed
/// containers are skipped quietly.
pub fn salvage_modules_from_bytes_budgeted(
    data: &[u8],
    origin: &str,
    limits: &OvbaLimits,
    budget: &Budget,
) -> Result<Vec<VbaModule>, OvbaError> {
    budget.metrics().count(Counter::OvbaSalvageScans, 1);
    let mut out = Vec::new();
    let mut i = 0usize;
    // Charge per KiB of scanned input; `next_toll` is the scan position at
    // which the next fuel unit is due.
    let mut next_toll = 1024usize;
    while i + 3 <= data.len() && out.len() < limits.max_modules {
        if i >= next_toll {
            budget.charge(1)?;
            next_toll = i + 1024;
        }
        let header = u16::from_le_bytes([data[i + 1], data[i + 2]]);
        if data[i] != 0x01 || (header >> 12) & 0b111 != 0b011 {
            i += 1;
            continue;
        }
        budget.metrics().count(Counter::OvbaSalvageCandidates, 1);
        match decompress_salvage_budgeted(&data[i..], limits.max_module_bytes, budget)? {
            Some((blob, consumed)) if blob.len() >= MIN_SALVAGE_BYTES => {
                if looks_like_vba(&blob) {
                    let name = if origin.is_empty() {
                        format!("salvaged_{}", out.len() + 1)
                    } else {
                        format!("salvaged_{}#{}", out.len() + 1, origin)
                    };
                    budget.metrics().count(Counter::OvbaSalvageModules, 1);
                    out.push(VbaModule {
                        name,
                        code: latin1(blob),
                        module_type: ModuleType::Procedural,
                    });
                }
                i += consumed.max(1);
            }
            _ => i += 1,
        }
    }
    Ok(out)
}

/// Salvages modules from every stream of a parsed compound file. Used when
/// the project's `dir` stream or records cannot be parsed; streams that fail
/// to read are skipped rather than aborting the salvage pass. Every
/// per-stream scan charges through [`salvage_modules_from_bytes_budgeted`],
/// and the
/// cross-stream dedup — quadratic in the recovered module count, with each
/// comparison linear in module size — charges one fuel unit per comparison,
/// so a crafted corpus of many near-identical long modules trips the budget
/// instead of stalling the scan.
///
/// # Errors
///
/// Returns [`OvbaError::DeadlineExceeded`] when the budget trips.
pub fn salvage_modules_from_ole_budgeted(
    ole: &OleFile,
    limits: &OvbaLimits,
    budget: &Budget,
) -> Result<Vec<VbaModule>, OvbaError> {
    let mut out: Vec<VbaModule> = Vec::new();
    for path in ole.stream_paths()? {
        if out.len() >= limits.max_modules {
            break;
        }
        let stream = match ole.open_stream(&path) {
            Ok(stream) => stream,
            // A budget trip mid-read must abort the pass; any other read
            // failure just skips this stream.
            Err(vbadet_ole::OleError::DeadlineExceeded(why)) => return Err(why.into()),
            Err(_) => continue,
        };
        for module in salvage_modules_from_bytes_budgeted(&stream, &path, limits, budget)? {
            if out.len() >= limits.max_modules {
                break;
            }
            // A module recovered from two aliased streams is kept once.
            let mut duplicate = false;
            for seen in &out {
                budget.charge(1)?;
                if seen.code == module.code {
                    duplicate = true;
                    break;
                }
            }
            if !duplicate {
                out.push(module);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::compress;
    use crate::project::VbaProjectBuilder;

    fn salvage_bytes(data: &[u8]) -> Vec<VbaModule> {
        salvage_modules_from_bytes_budgeted(data, "", &OvbaLimits::default(), &Budget::unlimited())
            .unwrap()
    }

    const CODE: &str =
        "Attribute VB_Name = \"Module1\"\r\nSub Payload()\r\n    MsgBox \"x\"\r\nEnd Sub\r\n";

    #[test]
    fn recovers_module_from_raw_buffer_with_garbage() {
        let mut buf = vec![0xAB; 137];
        buf.extend_from_slice(&compress(CODE.as_bytes()));
        buf.extend(std::iter::repeat_n(0xCD, 64));
        let found = salvage_bytes(&buf);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, CODE);
        assert!(found[0].name.starts_with("salvaged_"));
    }

    #[test]
    fn recovers_modules_when_dir_stream_is_stomped() {
        let mut b = VbaProjectBuilder::new("P");
        b.add_module("Module1", CODE);
        let bin = b.build().unwrap();
        // Stomp the dir stream: the strict parser must fail, salvage must
        // still find the module source in VBA/Module1.
        let mut ole_builder = vbadet_ole::OleBuilder::new();
        let parsed = OleFile::parse(&bin).unwrap();
        for path in parsed.stream_paths().unwrap() {
            let data = parsed.open_stream(&path).unwrap();
            if path == "VBA/dir" {
                ole_builder
                    .add_stream(&path, &vec![0xFF; data.len()])
                    .unwrap();
            } else {
                ole_builder.add_stream(&path, &data).unwrap();
            }
        }
        let stomped = OleFile::parse(&ole_builder.build()).unwrap();
        assert!(crate::VbaProject::from_ole(&stomped).is_err());
        let found = salvage_modules_from_ole_budgeted(
            &stomped,
            &OvbaLimits::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].code, CODE);
        assert!(found[0].name.contains("VBA/Module1"));
    }

    #[test]
    fn binary_streams_are_not_reported_as_modules() {
        // A compressed container holding binary junk decompresses fine but
        // must be filtered by the looks-like-VBA check.
        let junk: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
        let buf = compress(&junk);
        assert!(salvage_bytes(&buf).is_empty());
    }

    #[test]
    fn truncated_container_yields_clean_prefix_or_nothing() {
        let packed = compress(CODE.as_bytes());
        for cut in [1, 2, 5, packed.len() / 2, packed.len() - 1] {
            // Must not panic; any recovered text must be a prefix of CODE.
            for m in salvage_bytes(&packed[..cut]) {
                assert!(CODE.starts_with(&m.code));
            }
        }
    }
}
