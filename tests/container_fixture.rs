//! Golden fixture for container extraction: ZIP inflate, the OLE walk and
//! MS-OVBA decompression, pinned byte for byte.
//!
//! `tests/fixtures/containers.txt` records, for every document of the
//! paper corpus at scale 0.1, the SHA-256 of the inflated
//! `vbaProject.bin` and of every decompressed module source; then the
//! failure class and error text of seeded mutants: bit flips and
//! truncations of each OOXML document's *compressed* `vbaProject.bin`
//! bytes, and the 500 raw-project mutants of `hostile_inputs.rs`. A
//! decoder rewrite must reproduce every line.
//!
//! The test only compares. To print the fixture (after a deliberate,
//! reviewed change of outputs):
//!
//! ```sh
//! cargo test -q --offline --test container_fixture -- --ignored --nocapture print_fixture \
//!     | grep -E '^(doc|flip|cut|raw) ' > tests/fixtures/containers.txt
//! ```

mod mutants;

use mutants::{flip_bytes, raw_project_mutants};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vbadet::scan::cache::sha256;
use vbadet::{extract_macros_bounded, Budget, FailureClass, ScanLimits};
use vbadet_corpus::{generate_macros, CorpusSpec, DocumentFactory};
use vbadet_zip::ZipArchive;

const FIXTURE: &str = include_str!("fixtures/containers.txt");

/// Mutants drawn per OOXML document, of each kind.
const FLIPS_PER_DOC: usize = 3;
const CUTS_PER_DOC: usize = 3;

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn u16_at(bytes: &[u8], at: usize) -> usize {
    u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize
}

/// One line per extraction: the module digests on success, the failure
/// class label and error text otherwise. Salvaged module names and error
/// text can carry control bytes, so the line is escaped.
fn outcome(bytes: &[u8]) -> String {
    let line = match extract_macros_bounded(bytes, &ScanLimits::default(), &Budget::unlimited()) {
        Ok(x) => {
            let modules: Vec<String> = x
                .macros
                .iter()
                .map(|m| format!("{}={}", m.module_name, hex(&sha256(m.code.as_bytes()))))
                .collect();
            format!("ok {:?} [{}]", x.status, modules.join(" "))
        }
        Err(e) => format!("err {} {e}", FailureClass::from_error(&e).label()),
    };
    line.escape_debug().to_string()
}

/// Where a ZIP member's compressed bytes sit in the archive, and where its
/// central-directory compressed-size field sits.
struct Member {
    data: std::ops::Range<usize>,
    central_size_field: usize,
}

fn vba_member(doc: &[u8]) -> Option<Member> {
    let archive = ZipArchive::parse(doc).ok()?;
    let entry = archive
        .entries()
        .iter()
        .find(|e| e.name.ends_with("vbaProject.bin"))?;
    let local = entry.local_header_offset as usize;
    let start = local + 30 + u16_at(doc, local + 26) + u16_at(doc, local + 28);
    let central = (0..doc.len() - 46).find(|&at| {
        doc[at..at + 4] == *b"PK\x01\x02"
            && u32::from_le_bytes(doc[at + 42..at + 46].try_into().unwrap()) as usize == local
    })?;
    Some(Member {
        data: start..start + entry.compressed_size as usize,
        central_size_field: central + 20,
    })
}

fn fixture_lines() -> Vec<String> {
    let spec = CorpusSpec::paper().scaled(0.1);
    let macros = generate_macros(&spec);
    let docs = DocumentFactory::new(&spec, &macros).build_all();
    let mut lines = Vec::new();

    // The corpus: inflated part digest, then every module digest.
    for doc in &docs {
        let bin = ZipArchive::parse(&doc.bytes).ok().map(|zip| {
            let part = zip
                .names()
                .find(|n| n.ends_with("vbaProject.bin"))
                .expect("OOXML corpus documents carry a VBA part")
                .to_string();
            hex(&sha256(
                &zip.read_file(&part).expect("corpus part inflates"),
            ))
        });
        lines.push(format!(
            "doc {} bin={} {}",
            doc.name,
            bin.as_deref().unwrap_or("-"),
            outcome(&doc.bytes)
        ));
    }

    // Mutants of the compressed `vbaProject.bin` bytes inside each OOXML
    // document: flips of the stream in place, and truncations made by
    // shrinking the member's central-directory compressed size.
    for (i, doc) in docs.iter().enumerate() {
        let Some(member) = vba_member(&doc.bytes) else {
            continue;
        };
        let mut rng = StdRng::seed_from_u64(0xF1C5_0000 + i as u64);
        for k in 0..FLIPS_PER_DOC {
            let mut mutant = doc.bytes.clone();
            let flipped = flip_bytes(&mutant[member.data.clone()], &mut rng);
            mutant[member.data.clone()].copy_from_slice(&flipped);
            lines.push(format!("flip {} {k} {}", doc.name, outcome(&mutant)));
        }
        for k in 0..CUTS_PER_DOC {
            let mut mutant = doc.bytes.clone();
            let len = rng.gen_range(0..member.data.len()) as u32;
            let at = member.central_size_field;
            mutant[at..at + 4].copy_from_slice(&len.to_le_bytes());
            lines.push(format!("cut {} {k} {len} {}", doc.name, outcome(&mutant)));
        }
    }

    // The raw-project mutants of `hostile_inputs.rs`, same seed and order.
    for (k, mutant) in raw_project_mutants().iter().enumerate() {
        lines.push(format!("raw {k} {}", outcome(mutant)));
    }
    lines
}

#[test]
fn container_outputs_match_the_golden_fixture() {
    let want: Vec<&str> = FIXTURE.lines().collect();
    let got = fixture_lines();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "fixture line {} differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "fixture line count differs");
    // The fixture must exercise the decoders, not only reject at a sniff.
    for kind in ["doc ", "flip ", "cut ", "raw "] {
        assert!(want.iter().any(|l| l.starts_with(kind)), "no {kind}lines");
    }
}

#[test]
#[ignore = "prints the fixture; run by hand after a reviewed output change"]
fn print_fixture() {
    for line in fixture_lines() {
        println!("{line}");
    }
}
