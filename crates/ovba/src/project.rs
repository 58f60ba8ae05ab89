//! Whole-project extraction and synthesis.

use crate::compression::{compress, decompress_budgeted};
use crate::dir::{latin1, DirStream, ModuleRecord, ModuleType};
use crate::OvbaError;
use vbadet_faultpoint::Budget;
use vbadet_metrics::Stage;
use vbadet_ole::{OleBuilder, OleError, OleFile};

/// Resource caps applied while extracting a VBA project.
///
/// Overruns surface as [`OvbaError::LimitExceeded`] rather than unbounded
/// allocation from attacker-controlled counts and compressed streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OvbaLimits {
    /// Maximum number of modules in one project.
    pub max_modules: usize,
    /// Maximum decompressed size of one module's source.
    pub max_module_bytes: usize,
    /// Maximum decompressed size of the `dir` stream.
    pub max_dir_bytes: usize,
}

impl Default for OvbaLimits {
    fn default() -> Self {
        OvbaLimits {
            max_modules: 1024,
            max_module_bytes: 1 << 24,
            max_dir_bytes: 1 << 22,
        }
    }
}

/// One extracted VBA module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VbaModule {
    /// Module name from the `dir` stream.
    pub name: String,
    /// Decompressed source code (code page decoded).
    pub code: String,
    /// Procedural vs document module.
    pub module_type: ModuleType,
}

/// An extracted VBA project: project metadata plus all module sources.
///
/// This is the olevba-equivalent: given an OLE compound file (a legacy
/// `.doc`/`.xls` or a `vbaProject.bin`), it locates the `VBA` storage,
/// decompresses the `dir` stream, and decompresses every module's source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VbaProject {
    /// Project name.
    pub name: String,
    /// Path of the storage containing the `VBA` storage (empty for
    /// `vbaProject.bin`, `"Macros"` for Word, `"_VBA_PROJECT_CUR"` for Excel).
    pub root: String,
    /// All modules with their decompressed source code.
    pub modules: Vec<VbaModule>,
}

/// Storage roots probed when locating a VBA project.
const KNOWN_ROOTS: [&str; 3] = ["", "Macros", "_VBA_PROJECT_CUR"];

impl VbaProject {
    /// Extracts the VBA project from a parsed compound file, probing the
    /// well-known storage roots.
    ///
    /// # Errors
    ///
    /// Returns [`OvbaError::NoVbaProject`] when no `VBA/dir` stream exists,
    /// or a decoding error when the project structures are malformed.
    pub fn from_ole(ole: &OleFile) -> Result<Self, OvbaError> {
        Self::from_ole_budgeted(ole, &OvbaLimits::default(), &Budget::unlimited())
    }

    /// Like [`VbaProject::from_ole`] but under explicit resource limits, and
    /// charging decompression work against a cooperative scan [`Budget`].
    ///
    /// # Errors
    ///
    /// In addition to the errors of [`VbaProject::from_ole`], returns
    /// [`OvbaError::LimitExceeded`] when the project exceeds the module
    /// count or decompressed-size caps in `limits`, and
    /// [`OvbaError::DeadlineExceeded`] when the budget trips.
    pub fn from_ole_budgeted(
        ole: &OleFile,
        limits: &OvbaLimits,
        budget: &Budget,
    ) -> Result<Self, OvbaError> {
        for root in KNOWN_ROOTS {
            let dir_path = join(root, "VBA/dir");
            if ole.exists(&dir_path) {
                return Self::from_ole_at_budgeted(ole, root, limits, budget);
            }
        }
        // Fallback: search any stream path ending in `VBA/dir`.
        for path in ole.stream_paths()? {
            if let Some(root) = path.strip_suffix("/VBA/dir") {
                return Self::from_ole_at_budgeted(ole, root, limits, budget);
            }
            if path == "VBA/dir" {
                return Self::from_ole_at_budgeted(ole, "", limits, budget);
            }
        }
        Err(OvbaError::NoVbaProject)
    }

    /// Extracts the VBA project under a specific storage root. Fails when
    /// the `dir` stream or a module stream is missing or malformed; a
    /// stream that exists but cannot be read (a cyclic chain, a declared
    /// size past the end of the file, a cap) fails as [`OvbaError::Ole`].
    fn from_ole_at_budgeted(
        ole: &OleFile,
        root: &str,
        limits: &OvbaLimits,
        budget: &Budget,
    ) -> Result<Self, OvbaError> {
        let _t = budget.metrics().time(Stage::OvbaProjectNs);
        let dir_bytes = ole
            .open_stream(&join(root, "VBA/dir"))
            .map_err(|e| match e {
                OleError::NotFound(_) | OleError::WrongType(_) => OvbaError::NoVbaProject,
                e => e.into(),
            })?;
        let dir = DirStream::parse(&decompress_budgeted(
            &dir_bytes,
            limits.max_dir_bytes,
            budget,
        )?)?;
        if dir.modules.len() > limits.max_modules {
            return Err(OvbaError::LimitExceeded {
                what: "module count",
                limit: limits.max_modules,
            });
        }

        let mut modules = Vec::with_capacity(dir.modules.len());
        for record in &dir.modules {
            let stream_name = if record.stream_name.is_empty() {
                &record.name
            } else {
                &record.stream_name
            };
            let stream_path = join(root, &format!("VBA/{stream_name}"));
            let stream = ole.open_stream(&stream_path).map_err(|e| match e {
                OleError::NotFound(_) | OleError::WrongType(_) => {
                    OvbaError::MissingModuleStream(stream_name.clone())
                }
                e => e.into(),
            })?;
            let offset = record.text_offset as usize;
            if offset > stream.len() {
                return Err(OvbaError::BadModuleOffset {
                    module: record.name.clone(),
                    offset: record.text_offset,
                    stream_len: stream.len(),
                });
            }
            let source = decompress_budgeted(&stream[offset..], limits.max_module_bytes, budget)?;
            modules.push(VbaModule {
                name: record.name.clone(),
                code: latin1(source),
                module_type: record.module_type,
            });
        }
        Ok(VbaProject {
            name: dir.name,
            root: root.to_string(),
            modules,
        })
    }
}

fn join(root: &str, rest: &str) -> String {
    if root.is_empty() {
        rest.to_string()
    } else {
        format!("{root}/{rest}")
    }
}

/// Builds a `vbaProject.bin`-compatible OLE compound file from module
/// sources. Used by the synthetic corpus so that the extraction pipeline is
/// tested against real container bytes.
///
/// ```
/// use vbadet_ovba::{VbaProject, VbaProjectBuilder};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = VbaProjectBuilder::new("Project1");
/// b.add_module("ThisDocument", "Sub Document_Open()\r\nEnd Sub\r\n")
///     .document_module("ThisDocument");
/// let ole = vbadet_ole::OleFile::parse(&b.build()?)?;
/// let project = VbaProject::from_ole(&ole)?;
/// assert_eq!(project.name, "Project1");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VbaProjectBuilder {
    name: String,
    modules: Vec<(String, String, ModuleType)>,
}

impl VbaProjectBuilder {
    /// Creates a builder for a project named `name`.
    pub fn new(name: &str) -> Self {
        VbaProjectBuilder {
            name: name.to_string(),
            modules: Vec::new(),
        }
    }

    /// Adds a procedural module with the given source code.
    pub fn add_module(&mut self, name: &str, code: &str) -> &mut Self {
        self.modules
            .push((name.to_string(), code.to_string(), ModuleType::Procedural));
        self
    }

    /// Marks a previously added module as a document module (e.g.
    /// `ThisDocument`, `ThisWorkbook`).
    pub fn document_module(&mut self, name: &str) -> &mut Self {
        for (n, _, t) in self.modules.iter_mut() {
            if n == name {
                *t = ModuleType::Document;
            }
        }
        self
    }

    /// Writes the project's streams into an existing [`OleBuilder`] under
    /// `root` (empty for `vbaProject.bin`, `"Macros"` for a `.doc`).
    ///
    /// # Errors
    ///
    /// Fails when a module name is not a valid OLE stream name.
    pub fn write_into(&self, ole: &mut OleBuilder, root: &str) -> Result<(), OvbaError> {
        let dir = DirStream {
            name: self.name.clone(),
            modules: self
                .modules
                .iter()
                .map(|(name, _, module_type)| ModuleRecord {
                    name: name.clone(),
                    stream_name: name.clone(),
                    text_offset: 0,
                    module_type: *module_type,
                    read_only: false,
                    private: false,
                })
                .collect(),
            ..DirStream::default()
        };
        ole.add_stream(&join(root, "VBA/dir"), &compress(&dir.serialize()))?;

        // _VBA_PROJECT: version-dependent performance cache; readers only
        // need the 7-byte header (reserved 0x61CC, version, reserved bytes).
        let vba_project_stream: [u8; 7] = [0xCC, 0x61, 0xFF, 0xFF, 0x00, 0x00, 0x00];
        ole.add_stream(&join(root, "VBA/_VBA_PROJECT"), &vba_project_stream)?;

        for (name, code, _) in &self.modules {
            let bytes: Vec<u8> = code
                .chars()
                .map(|c| if (c as u32) < 256 { c as u8 } else { b'?' })
                .collect();
            ole.add_stream(&join(root, &format!("VBA/{name}")), &compress(&bytes))?;
        }

        // PROJECT stream: the textual project description Office writes.
        let mut project_text = String::new();
        project_text.push_str("ID=\"{00000000-0000-0000-0000-000000000000}\"\r\n");
        for (name, _, module_type) in &self.modules {
            match module_type {
                ModuleType::Document => {
                    project_text.push_str(&format!("Document={name}/&H00000000\r\n"))
                }
                ModuleType::Procedural => project_text.push_str(&format!("Module={name}\r\n")),
            }
        }
        project_text.push_str(&format!("Name=\"{}\"\r\n", self.name));
        project_text.push_str("HelpContextID=\"0\"\r\n");
        project_text.push_str("VersionCompatible32=\"393222000\"\r\n");
        project_text.push_str("CMG=\"0000\"\r\nDPB=\"0000\"\r\nGC=\"0000\"\r\n");
        ole.add_stream(&join(root, "PROJECT"), project_text.as_bytes())?;

        // PROJECTwm: module-name map (MBCS name NUL UTF-16 name NUL NUL,
        // terminated by two NULs).
        let mut wm = Vec::new();
        for (name, _, _) in &self.modules {
            wm.extend(name.bytes());
            wm.push(0);
            wm.extend(name.encode_utf16().flat_map(|u| u.to_le_bytes()));
            wm.extend_from_slice(&[0, 0]);
        }
        wm.extend_from_slice(&[0, 0]);
        ole.add_stream(&join(root, "PROJECTwm"), &wm)?;
        Ok(())
    }

    /// Builds standalone `vbaProject.bin` bytes.
    ///
    /// # Errors
    ///
    /// Fails when a module name is not a valid OLE stream name.
    pub fn build(&self) -> Result<Vec<u8>, OvbaError> {
        let mut ole = OleBuilder::new();
        self.write_into(&mut ole, "")?;
        Ok(ole.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_module_project() -> VbaProjectBuilder {
        let mut b = VbaProjectBuilder::new("VBAProject");
        b.add_module(
            "ThisDocument",
            "Attribute VB_Name = \"ThisDocument\"\r\nSub Document_Open()\r\n    Run\r\nEnd Sub\r\n",
        )
        .document_module("ThisDocument");
        b.add_module(
            "Module1",
            "Attribute VB_Name = \"Module1\"\r\nSub Run()\r\n    MsgBox \"hello\"\r\nEnd Sub\r\n",
        );
        b
    }

    #[test]
    fn build_extract_roundtrip() {
        let bin = two_module_project().build().unwrap();
        let ole = OleFile::parse(&bin).unwrap();
        let project = VbaProject::from_ole(&ole).unwrap();
        assert_eq!(project.name, "VBAProject");
        assert_eq!(project.root, "");
        assert_eq!(project.modules.len(), 2);
        assert_eq!(project.modules[0].name, "ThisDocument");
        assert_eq!(project.modules[0].module_type, ModuleType::Document);
        assert!(project.modules[0].code.contains("Document_Open"));
        assert_eq!(project.modules[1].name, "Module1");
        assert!(project.modules[1].code.contains("MsgBox \"hello\""));
    }

    #[test]
    fn word_style_macros_root() {
        let mut ole = OleBuilder::new();
        ole.add_stream("WordDocument", &vec![0u8; 4096]).unwrap();
        two_module_project().write_into(&mut ole, "Macros").unwrap();
        let parsed = OleFile::parse(&ole.build()).unwrap();
        let project = VbaProject::from_ole(&parsed).unwrap();
        assert_eq!(project.root, "Macros");
        assert_eq!(project.modules.len(), 2);
    }

    #[test]
    fn excel_style_root() {
        let mut ole = OleBuilder::new();
        ole.add_stream("Workbook", &vec![0u8; 4096]).unwrap();
        two_module_project()
            .write_into(&mut ole, "_VBA_PROJECT_CUR")
            .unwrap();
        let parsed = OleFile::parse(&ole.build()).unwrap();
        let project = VbaProject::from_ole(&parsed).unwrap();
        assert_eq!(project.root, "_VBA_PROJECT_CUR");
    }

    #[test]
    fn unusual_root_found_by_fallback_scan() {
        let mut ole = OleBuilder::new();
        two_module_project()
            .write_into(&mut ole, "OddRoot")
            .unwrap();
        let parsed = OleFile::parse(&ole.build()).unwrap();
        let project = VbaProject::from_ole(&parsed).unwrap();
        assert_eq!(project.root, "OddRoot");
    }

    #[test]
    fn no_project_reported() {
        let mut ole = OleBuilder::new();
        ole.add_stream("WordDocument", b"not a macro doc").unwrap();
        let parsed = OleFile::parse(&ole.build()).unwrap();
        assert!(matches!(
            VbaProject::from_ole(&parsed),
            Err(OvbaError::NoVbaProject)
        ));
    }

    #[test]
    fn missing_module_stream_reported() {
        // Hand-build a project whose dir references a stream that is absent.
        let dir = DirStream {
            modules: vec![ModuleRecord {
                name: "Ghost".to_string(),
                stream_name: "Ghost".to_string(),
                text_offset: 0,
                module_type: ModuleType::Procedural,
                read_only: false,
                private: false,
            }],
            ..DirStream::default()
        };
        let mut ole = OleBuilder::new();
        ole.add_stream("VBA/dir", &compress(&dir.serialize()))
            .unwrap();
        let parsed = OleFile::parse(&ole.build()).unwrap();
        assert!(matches!(
            VbaProject::from_ole(&parsed),
            Err(OvbaError::MissingModuleStream(_))
        ));
    }

    #[test]
    fn bad_text_offset_reported() {
        let dir = DirStream {
            modules: vec![ModuleRecord {
                name: "M".to_string(),
                stream_name: "M".to_string(),
                text_offset: 10_000,
                module_type: ModuleType::Procedural,
                read_only: false,
                private: false,
            }],
            ..DirStream::default()
        };
        let mut ole = OleBuilder::new();
        ole.add_stream("VBA/dir", &compress(&dir.serialize()))
            .unwrap();
        ole.add_stream("VBA/M", &compress(b"Sub A()\r\nEnd Sub\r\n"))
            .unwrap();
        let parsed = OleFile::parse(&ole.build()).unwrap();
        assert!(matches!(
            VbaProject::from_ole(&parsed),
            Err(OvbaError::BadModuleOffset { .. })
        ));
    }

    #[test]
    fn nonzero_text_offset_skips_performance_cache() {
        // Simulate Office's performance cache: junk bytes before the
        // compressed source, with the dir offset pointing past them.
        let code = b"Sub Cached()\r\nEnd Sub\r\n";
        let mut stream = vec![0xEEu8; 321];
        stream.extend_from_slice(&compress(code));
        let dir = DirStream {
            modules: vec![ModuleRecord {
                name: "M".to_string(),
                stream_name: "M".to_string(),
                text_offset: 321,
                module_type: ModuleType::Procedural,
                read_only: false,
                private: false,
            }],
            ..DirStream::default()
        };
        let mut ole = OleBuilder::new();
        ole.add_stream("VBA/dir", &compress(&dir.serialize()))
            .unwrap();
        ole.add_stream("VBA/M", &stream).unwrap();
        let parsed = OleFile::parse(&ole.build()).unwrap();
        let project = VbaProject::from_ole(&parsed).unwrap();
        assert_eq!(project.modules[0].code, String::from_utf8_lossy(code));
    }

    #[test]
    fn large_module_roundtrips() {
        let body = "Sub Large()\r\n".to_string()
            + &"    Call Helper(1, 2, 3)\r\n".repeat(3000)
            + "End Sub\r\n";
        let mut b = VbaProjectBuilder::new("P");
        b.add_module("Big", &body);
        let ole = OleFile::parse(&b.build().unwrap()).unwrap();
        let project = VbaProject::from_ole(&ole).unwrap();
        assert_eq!(project.modules[0].code, body);
    }
}
