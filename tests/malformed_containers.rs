//! Regression tests for specific malformed-container shapes (ISSUE
//! satellite): truncated OLE header, out-of-range sector IDs, ZIP
//! central/local disagreement, and declared-size decompression bombs.
//! Each shape must produce a *typed* error — never a panic, hang, or
//! unbounded allocation.

use vbadet::{extract_macros_bounded, Budget, DetectError, ScanLimits};
use vbadet_ole::{OleBuilder, OleError, OleFile};
use vbadet_ovba::VbaProjectBuilder;
use vbadet_zip::{CompressionMethod, ZipArchive, ZipError, ZipLimits, ZipWriter};

fn project_bin() -> Vec<u8> {
    let mut b = VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub A()\r\n    x = 1\r\nEnd Sub\r\n");
    b.build().unwrap()
}

#[test]
fn truncated_ole_header_is_a_typed_error() {
    let bin = project_bin();
    for cut in [0, 1, 8, 75, 100, 511] {
        let err = OleFile::parse(&bin[..cut]);
        assert!(err.is_err(), "parse accepted a {cut}-byte header prefix");
    }
    // Cut inside the sector payload region: the header parses but a
    // referenced sector is missing.
    let err = OleFile::parse(&bin[..513]).unwrap_err();
    assert!(
        matches!(
            err,
            OleError::Truncated { .. } | OleError::ChainCycle { .. }
        ),
        "unexpected error for truncated body: {err:?}"
    );
}

#[test]
fn out_of_range_sector_ids_do_not_allocate_or_loop() {
    let mut bytes = project_bin();
    // Point the directory chain at a far out-of-range (but still
    // "regular") sector id. The walk must fail with Truncated, not index
    // out of bounds or allocate per the claimed id.
    bytes[48..52].copy_from_slice(&0x00FF_FFF0u32.to_le_bytes());
    assert!(matches!(
        OleFile::parse(&bytes),
        Err(OleError::Truncated { .. })
    ));

    // Same for the first FAT sector in the header DIFAT.
    let mut bytes = project_bin();
    bytes[76..80].copy_from_slice(&0x00FF_FFF0u32.to_le_bytes());
    assert!(matches!(
        OleFile::parse(&bytes),
        Err(OleError::Truncated { .. })
    ));
}

#[test]
fn header_claiming_absurd_sector_count_is_capped() {
    // A tiny file cannot trip the sector-count cap by itself (the count is
    // derived from the real file size), so drive the cap directly.
    let bin = project_bin();
    let tight = vbadet_ole::OleLimits {
        max_sectors: 4,
        ..Default::default()
    };
    assert!(matches!(
        OleFile::parse_budgeted(&bin, tight, Budget::unlimited()),
        Err(OleError::LimitExceeded {
            what: "sector count",
            ..
        })
    ));
}

#[test]
fn zip_central_local_mismatch_is_a_typed_error() {
    let mut zip = ZipWriter::new();
    zip.add_file(
        "word/vbaProject.bin",
        &project_bin(),
        CompressionMethod::Deflate,
    )
    .unwrap();
    zip.add_file("word/document.xml", b"<doc/>", CompressionMethod::Deflate)
        .unwrap();
    let mut bytes = zip.finish();

    // The central directory points at local headers; corrupt the first
    // local header signature so the two views disagree.
    assert_eq!(&bytes[0..4], b"PK\x03\x04");
    bytes[0] = b'Q';
    let archive = ZipArchive::parse(&bytes).unwrap();
    let err = archive.read_file("word/vbaProject.bin").unwrap_err();
    assert!(
        matches!(err, ZipError::BadSignature { .. }),
        "unexpected: {err:?}"
    );
}

#[test]
fn zip_member_declaring_huge_size_is_rejected_before_allocation() {
    // Bomb defense: the declared uncompressed size alone must trip the
    // cap — the engine may not inflate first and check later.
    let payload = vec![0u8; 1 << 16];
    let mut zip = ZipWriter::new();
    zip.add_file("word/vbaProject.bin", &payload, CompressionMethod::Deflate)
        .unwrap();
    let bytes = zip.finish();

    let limits = ZipLimits {
        max_member_bytes: 1 << 10,
        ..Default::default()
    };
    let archive = ZipArchive::parse_budgeted(&bytes, limits, Budget::unlimited()).unwrap();
    assert!(matches!(
        archive.read_file("word/vbaProject.bin"),
        Err(ZipError::LimitExceeded {
            what: "member size",
            ..
        })
    ));
}

#[test]
fn ooxml_bomb_surfaces_as_limit_exceeded_through_the_pipeline() {
    let mut zip = ZipWriter::new();
    zip.add_file(
        "[Content_Types].xml",
        b"<Types/>",
        CompressionMethod::Deflate,
    )
    .unwrap();
    zip.add_file(
        "word/vbaProject.bin",
        &project_bin(),
        CompressionMethod::Deflate,
    )
    .unwrap();
    let bytes = zip.finish();

    let mut limits = ScanLimits::default();
    limits.zip.max_member_bytes = 64;
    assert!(matches!(
        extract_macros_bounded(&bytes, &limits, &Budget::unlimited()),
        Err(DetectError::Zip(ZipError::LimitExceeded { .. }))
    ));
}

#[test]
fn oversized_stream_entry_is_capped_at_the_ole_layer() {
    let mut builder = OleBuilder::new();
    builder.add_stream("big", &vec![0x42u8; 1 << 16]).unwrap();
    let bytes = builder.build();

    let tight = vbadet_ole::OleLimits {
        max_stream_bytes: 1 << 10,
        ..Default::default()
    };
    let ole = OleFile::parse_budgeted(&bytes, tight, Budget::unlimited()).unwrap();
    assert!(matches!(
        ole.open_stream("big"),
        Err(OleError::LimitExceeded {
            what: "stream size",
            ..
        })
    ));
}

#[test]
fn module_count_cap_is_enforced() {
    let mut b = VbaProjectBuilder::new("Many");
    for i in 0..24 {
        b.add_module(&format!("M{i}"), "Sub A()\r\nEnd Sub\r\n");
    }
    let bin = b.build().unwrap();
    let ole = OleFile::parse(&bin).unwrap();

    let limits = vbadet_ovba::OvbaLimits {
        max_modules: 8,
        ..Default::default()
    };
    assert!(matches!(
        vbadet_ovba::VbaProject::from_ole_budgeted(&ole, &limits, &Budget::unlimited()),
        Err(vbadet_ovba::OvbaError::LimitExceeded {
            what: "module count",
            ..
        })
    ));
}

/// A one-member OOXML archive carrying `project_bin()` (its local header
/// at offset 0), and the offset of its central header.
fn one_member_docm() -> (Vec<u8>, usize) {
    let mut zip = ZipWriter::new();
    zip.add_file(
        "word/vbaProject.bin",
        &project_bin(),
        CompressionMethod::Deflate,
    )
    .unwrap();
    let bytes = zip.finish();
    let central = bytes
        .windows(4)
        .position(|w| w == b"PK\x01\x02")
        .expect("central header");
    (bytes, central)
}

fn failure_label(bytes: &[u8]) -> &'static str {
    let err =
        extract_macros_bounded(bytes, &ScanLimits::default(), &Budget::unlimited()).unwrap_err();
    vbadet::FailureClass::from_error(&err).label()
}

#[test]
fn encrypted_member_fails_typed_before_inflate() {
    // Flag bit 0 in either header marks the member encrypted. The stream
    // is garbage too, so a decoder that ran first would report it instead.
    for flags_in in ["local", "central"] {
        let (mut bytes, central) = one_member_docm();
        let at = if flags_in == "local" { 6 } else { central + 8 };
        bytes[at] |= 1;
        let data = 30 + "word/vbaProject.bin".len();
        bytes[data..data + 16].fill(0xFF);
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(
            archive.read_file("word/vbaProject.bin"),
            Err(ZipError::Encrypted("word/vbaProject.bin".into()))
        );
        assert_eq!(failure_label(&bytes), "malformed");
    }
}

#[test]
fn zip64_size_sentinel_fails_typed_before_allocation() {
    // 0xFFFFFFFF in either size field defers the real size to a ZIP64
    // extra field. Read as a size it would trip the member cap and be
    // misreported as limit-exceeded.
    for size_at in [20usize, 24] {
        let (mut bytes, central) = one_member_docm();
        bytes[central + size_at..central + size_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let archive = ZipArchive::parse(&bytes).unwrap();
        assert_eq!(
            archive.read_file("word/vbaProject.bin"),
            Err(ZipError::Zip64("word/vbaProject.bin".into()))
        );
        assert_eq!(failure_label(&bytes), "malformed");
    }
}
