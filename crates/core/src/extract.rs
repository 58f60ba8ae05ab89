//! Macro extraction from document bytes (the olevba-equivalent step of
//! §IV.B): container sniffing, OOXML unwrapping, OLE walking, MS-OVBA
//! decompression.

use crate::limits::ScanLimits;
use crate::scan::FailureClass;
use crate::DetectError;
use vbadet_faultpoint::Budget;
use vbadet_metrics::{Counter, Stage};
use vbadet_ole::OleFile;
use vbadet_ovba::{
    salvage_modules_from_bytes_budgeted, salvage_modules_from_ole_budgeted, OvbaError, VbaProject,
};
use vbadet_zip::ZipArchive;

/// Detected container family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// OLE compound file (`.doc`, `.xls`, raw `vbaProject.bin`).
    Ole,
    /// OOXML ZIP (`.docm`, `.xlsm`, …).
    Ooxml,
}

/// One macro module recovered from a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedMacro {
    /// Module name from the project `dir` stream.
    pub module_name: String,
    /// Decompressed VBA source.
    pub code: String,
    /// Name of the VBA project the module came from.
    pub project_name: String,
    /// Container family of the input document.
    pub container: ContainerKind,
}

/// Sniffs the container type from magic bytes.
pub fn sniff(bytes: &[u8]) -> Option<ContainerKind> {
    if bytes.starts_with(&[0xD0, 0xCF, 0x11, 0xE0, 0xA1, 0xB1, 0x1A, 0xE1]) {
        Some(ContainerKind::Ole)
    } else if bytes.starts_with(b"PK") {
        Some(ContainerKind::Ooxml)
    } else {
        None
    }
}

/// Extracts all VBA macros from a document (`.doc`, `.xls`, `.docm`,
/// `.xlsm` or a bare `vbaProject.bin`): [`extract_macros_bounded`] under
/// default [`ScanLimits`] and no budget, so a damaged document is salvaged
/// here exactly as it is on the scan path.
///
/// # Errors
///
/// Fails when the container is unrecognized, malformed beyond salvage, or
/// over a default limit, or when an OOXML archive carries no VBA part. A
/// well-formed document *without* macros yields `Ok` with an empty vector
/// only for OLE files that genuinely have no project
/// ([`DetectError::NoVbaPart`] is OOXML-specific because a macro extension
/// like `.docm` implies one).
pub fn extract_macros(bytes: &[u8]) -> Result<Vec<ExtractedMacro>, DetectError> {
    extract_macros_bounded(bytes, &ScanLimits::default(), &Budget::unlimited()).map(|e| e.macros)
}

/// How the macros of an [`Extraction`] were recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtractionStatus {
    /// The VBA project parsed cleanly per MS-OVBA.
    Parsed,
    /// A container structure was unreadable (stomped `dir` stream,
    /// corrupted compound-file directory, ZIP without a central
    /// directory…) but module source was recovered by sweeping the
    /// project's streams, or else the raw bytes, for intact compressed
    /// containers.
    Salvaged,
}

/// Result of limit-aware extraction: the recovered macros plus whether the
/// MS-OVBA parser or a salvage sweep produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extraction {
    /// Recovered macro modules (possibly empty for a macro-free OLE file).
    pub macros: Vec<ExtractedMacro>,
    /// Provenance of the recovery.
    pub status: ExtractionStatus,
}

/// The one extractor: sniffs the container, opens it under explicit
/// [`ScanLimits`] and a cooperative scan [`Budget`] threaded through every
/// container layer, and salvages when a structure is malformed or
/// truncated yet intact compressed containers remain. A failed VBA project
/// is swept stream by stream, then as one raw buffer; a broken compound
/// file or ZIP is swept as raw bytes. Salvaged modules are tagged
/// [`ExtractionStatus::Salvaged`].
///
/// Limit breaches and cyclic sector chains are *not* salvaged — an input
/// that trips a resource cap is reported as [`DetectError`] wrapping a
/// `LimitExceeded` (or `ChainCycle`) so batch callers can surface it as a
/// typed outcome rather than silently truncating. Nor is a budget trip: a
/// pathological-but-limit-respecting document trips the budget instead of
/// stalling, surfacing as a typed
/// `DeadlineExceeded` error from whichever layer was mid-parse, and the
/// salvage scan would spend the same (already exhausted) budget.
///
/// # Errors
///
/// As [`extract_macros`], plus `DeadlineExceeded` wrappers.
pub fn extract_macros_bounded(
    bytes: &[u8],
    limits: &ScanLimits,
    budget: &Budget,
) -> Result<Extraction, DetectError> {
    budget.metrics().count(Counter::ExtractDocs, 1);
    match sniff(bytes) {
        Some(ContainerKind::Ole) => {
            extract_from_ole_bytes(bytes, ContainerKind::Ole, limits, budget)
        }
        Some(ContainerKind::Ooxml) => {
            budget.checkpoint().map_err(OvbaError::from)?;
            let container = ContainerKind::Ooxml;
            let zip = match ZipArchive::parse_budgeted(bytes, limits.zip, budget.clone()) {
                Ok(zip) => zip,
                Err(e) => return sweep(bytes, e.into(), container, limits, budget),
            };
            let part = zip
                .names()
                .find(|n| n.ends_with("vbaProject.bin"))
                .map(str::to_string)
                .ok_or(DetectError::NoVbaPart)?;
            match zip.read_file(&part) {
                Ok(bin) => extract_from_ole_bytes(&bin, container, limits, budget),
                Err(e) => sweep(bytes, e.into(), container, limits, budget),
            }
        }
        None => Err(DetectError::UnknownContainer),
    }
}

/// Parses an OLE buffer and extracts its VBA project, salvaging when the
/// parse fails for a reason other than a resource cap, a cyclic chain or a
/// budget trip.
fn extract_from_ole_bytes(
    bytes: &[u8],
    container: ContainerKind,
    limits: &ScanLimits,
    budget: &Budget,
) -> Result<Extraction, DetectError> {
    // Explicit clock reads at the layer boundaries: `charge` amortizes its
    // wall-clock checks over many charges, so a small document that stalls
    // (rather than works) could otherwise slip past its deadline unnoticed.
    budget.checkpoint().map_err(OvbaError::from)?;
    let ole = match OleFile::parse_budgeted(bytes, limits.ole, budget.clone()) {
        Ok(ole) => ole,
        Err(e) => return sweep(bytes, e.into(), container, limits, budget),
    };
    match VbaProject::from_ole_budgeted(&ole, &limits.ovba, budget) {
        Ok(project) => {
            budget.checkpoint().map_err(OvbaError::from)?;
            budget.metrics().count(Counter::ExtractParsed, 1);
            Ok(Extraction {
                macros: project_to_macros(project, container),
                status: ExtractionStatus::Parsed,
            })
        }
        Err(OvbaError::NoVbaProject) if container == ContainerKind::Ole => {
            budget.metrics().count(Counter::ExtractParsed, 1);
            Ok(Extraction {
                macros: Vec::new(),
                status: ExtractionStatus::Parsed,
            })
        }
        Err(e) => {
            let broken = DetectError::from(e);
            if !salvageable(&broken) {
                return Err(broken);
            }
            let salvaged = {
                let _t = budget.metrics().time(Stage::OvbaSalvageNs);
                salvage_modules_from_ole_budgeted(&ole, &limits.ovba, budget)?
            };
            budget.checkpoint().map_err(OvbaError::from)?;
            if salvaged.is_empty() {
                // No stream that opens holds a module; a module whose
                // directory entry broke still sits in some sector.
                return sweep(bytes, broken, container, limits, budget);
            }
            Ok(tag_salvaged(salvaged, container, budget))
        }
    }
}

/// The last resort when a container structure breaks: sweeps `bytes` for
/// intact compressed containers, ignoring every structure around them.
/// Returns the modules found as [`ExtractionStatus::Salvaged`], or `broken`
/// when there are none. A resource cap, cyclic chain or budget trip is
/// returned as it is, unswept.
fn sweep(
    bytes: &[u8],
    broken: DetectError,
    container: ContainerKind,
    limits: &ScanLimits,
    budget: &Budget,
) -> Result<Extraction, DetectError> {
    if !salvageable(&broken) {
        return Err(broken);
    }
    let salvaged = {
        let _t = budget.metrics().time(Stage::OvbaSalvageNs);
        salvage_modules_from_bytes_budgeted(bytes, "", &limits.ovba, budget)?
    };
    budget.checkpoint().map_err(OvbaError::from)?;
    if salvaged.is_empty() {
        return Err(broken);
    }
    Ok(tag_salvaged(salvaged, container, budget))
}

/// Whether a broken structure is worth a salvage pass: only a malformed
/// or truncated one. A resource cap, a cyclic chain or a budget trip is
/// reported as it is.
fn salvageable(broken: &DetectError) -> bool {
    matches!(
        FailureClass::from_error(broken),
        FailureClass::Malformed | FailureClass::Truncated
    )
}

fn tag_salvaged(
    modules: Vec<vbadet_ovba::VbaModule>,
    container: ContainerKind,
    budget: &Budget,
) -> Extraction {
    budget.metrics().count(Counter::ExtractSalvaged, 1);
    let macros = modules
        .into_iter()
        .map(|m| ExtractedMacro {
            module_name: m.name,
            code: m.code,
            project_name: String::from("<salvaged>"),
            container,
        })
        .collect();
    Extraction {
        macros,
        status: ExtractionStatus::Salvaged,
    }
}

fn project_to_macros(project: VbaProject, container: ContainerKind) -> Vec<ExtractedMacro> {
    let project_name = project.name;
    project
        .modules
        .into_iter()
        .map(|m| ExtractedMacro {
            module_name: m.name,
            code: m.code,
            project_name: project_name.clone(),
            container,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbadet_ole::OleBuilder;
    use vbadet_ovba::VbaProjectBuilder;
    use vbadet_zip::{CompressionMethod, ZipWriter};

    fn project() -> VbaProjectBuilder {
        let mut b = VbaProjectBuilder::new("Proj");
        b.add_module("ThisDocument", "Sub Document_Open()\r\nEnd Sub\r\n");
        b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
        b
    }

    #[test]
    fn extracts_from_bare_vba_project_bin() {
        let bin = project().build().unwrap();
        let macros = extract_macros(&bin).unwrap();
        assert_eq!(macros.len(), 2);
        assert_eq!(macros[0].module_name, "ThisDocument");
        assert_eq!(macros[0].container, ContainerKind::Ole);
        assert_eq!(macros[0].project_name, "Proj");
    }

    #[test]
    fn extracts_from_legacy_doc() {
        let mut ole = OleBuilder::new();
        ole.add_stream("WordDocument", &[0u8; 4096]).unwrap();
        project().write_into(&mut ole, "Macros").unwrap();
        let macros = extract_macros(&ole.build()).unwrap();
        assert_eq!(macros.len(), 2);
    }

    #[test]
    fn extracts_from_docm() {
        let bin = project().build().unwrap();
        let mut zip = ZipWriter::new();
        zip.add_file(
            "[Content_Types].xml",
            b"<Types/>",
            CompressionMethod::Deflate,
        )
        .unwrap();
        zip.add_file("word/vbaProject.bin", &bin, CompressionMethod::Deflate)
            .unwrap();
        let macros = extract_macros(&zip.finish()).unwrap();
        assert_eq!(macros.len(), 2);
        assert_eq!(macros[0].container, ContainerKind::Ooxml);
    }

    #[test]
    fn ole_without_macros_yields_empty() {
        let mut ole = OleBuilder::new();
        ole.add_stream("WordDocument", b"plain document").unwrap();
        assert!(extract_macros(&ole.build()).unwrap().is_empty());
    }

    #[test]
    fn ooxml_without_vba_part_is_reported() {
        let mut zip = ZipWriter::new();
        zip.add_file("word/document.xml", b"<doc/>", CompressionMethod::Deflate)
            .unwrap();
        assert!(matches!(
            extract_macros(&zip.finish()),
            Err(DetectError::NoVbaPart)
        ));
    }

    /// Bytes that sniff as a ZIP but have no central directory, with an
    /// intact compressed module buried inside.
    fn fake_zip() -> Vec<u8> {
        let mut doc = b"PK\x03\x04 this is not really an archive ".to_vec();
        doc.extend_from_slice(&vbadet_ovba::compress(
            b"Attribute VB_Name = \"M\"\r\nSub Work()\r\n    x = 1\r\nEnd Sub\r\n",
        ));
        doc
    }

    #[test]
    fn a_broken_zip_is_swept_for_intact_modules() {
        let x = extract_macros_bounded(&fake_zip(), &ScanLimits::default(), &Budget::unlimited())
            .unwrap();
        assert_eq!(x.status, ExtractionStatus::Salvaged);
        assert_eq!(x.macros.len(), 1);
        assert_eq!(x.macros[0].module_name, "salvaged_1");
        assert_eq!(x.macros[0].container, ContainerKind::Ooxml);
    }

    #[test]
    fn a_resource_cap_is_reported_typed_not_swept() {
        // The raw bytes hold both modules, but a cap breach says nothing
        // about structure: it must surface as itself.
        let mut limits = ScanLimits::default();
        limits.ole.max_sectors = 2;
        let err =
            extract_macros_bounded(&project().build().unwrap(), &limits, &Budget::unlimited())
                .unwrap_err();
        assert!(
            matches!(
                err,
                DetectError::Ole(vbadet_ole::OleError::LimitExceeded { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn a_cyclic_module_stream_is_reported_as_a_cyclic_chain() {
        // Module1's stream spans several sectors of the mini stream: point
        // its first miniFAT entry at itself, in the one miniFAT sector the
        // builder writes.
        let code: String = (0..40).map(|i| format!("    x{i} = {i}\r\n")).collect();
        let mut b = VbaProjectBuilder::new("Proj");
        b.add_module("Module1", &format!("Sub Work()\r\n{code}End Sub\r\n"));
        let mut bytes = b.build().unwrap();
        let ole = OleFile::parse(&bytes).unwrap();
        let start = ole
            .entries()
            .iter()
            .find(|e| e.name == "Module1")
            .unwrap()
            .start_sector;
        let minifat = u32::from_le_bytes(bytes[60..64].try_into().unwrap()) as usize;
        let at = 512 + 512 * minifat + 4 * start as usize;
        bytes[at..at + 4].copy_from_slice(&start.to_le_bytes());
        let err = extract_macros_bounded(&bytes, &ScanLimits::default(), &Budget::unlimited())
            .unwrap_err();
        assert!(
            matches!(
                err,
                DetectError::Ovba(OvbaError::Ole(vbadet_ole::OleError::ChainCycle { .. }))
            ),
            "{err:?}"
        );
        assert_eq!(FailureClass::from_error(&err).label(), "cyclic-chain");
    }

    #[test]
    fn unknown_bytes_rejected() {
        assert!(matches!(
            extract_macros(b"%PDF-1.4 not an office doc"),
            Err(DetectError::UnknownContainer)
        ));
        assert!(matches!(
            extract_macros(b""),
            Err(DetectError::UnknownContainer)
        ));
    }

    #[test]
    fn sniffing() {
        assert_eq!(sniff(b"PK\x03\x04rest"), Some(ContainerKind::Ooxml));
        assert_eq!(
            sniff(&[0xD0, 0xCF, 0x11, 0xE0, 0xA1, 0xB1, 0x1A, 0xE1, 0, 0]),
            Some(ContainerKind::Ole)
        );
        assert_eq!(sniff(b"MZ"), None);
    }
}
