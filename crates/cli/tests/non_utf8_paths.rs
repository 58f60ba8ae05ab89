//! The built `vbadet` binary on a file whose name is not UTF-8: the name
//! is a path like any other, scanned in process and under `--isolate`
//! alike, and never a panic.
#![cfg(unix)]

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::process::Command;

#[test]
fn a_path_that_is_not_utf8_scans_to_the_same_record_with_and_without_isolate() {
    let dir = std::env::temp_dir().join(format!("vbadet-cli-not-utf8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join(OsStr::from_bytes(b"\xff\xfe.doc"));
    let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    std::fs::write(&doc, b.build().unwrap()).unwrap();

    let scan = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_vbadet"))
            .args(["scan", "--scale", "0.002", "--jobs", "1"])
            .args(extra)
            .arg(&doc)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(matches!(out.status.code(), Some(0 | 1)), "{stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let in_process = scan(&[]);
    assert!(in_process.contains(": module Module1"), "{in_process}");
    assert_eq!(scan(&["--isolate"]), in_process);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A copy of `vbadet` installed under a directory whose name is not UTF-8
/// re-executes itself by its path's own bytes, so `--isolate` scans as in
/// process instead of failing every document on a worker that cannot
/// spawn.
#[test]
fn an_install_directory_that_is_not_utf8_still_spawns_isolate_workers() {
    let dir = std::env::temp_dir().join(format!("vbadet-cli-not-utf8-exe-{}", std::process::id()));
    let bin = dir.join(OsStr::from_bytes(b"bin\xff"));
    std::fs::create_dir_all(&bin).unwrap();
    let exe = bin.join("vbadet");
    std::fs::copy(env!("CARGO_BIN_EXE_vbadet"), &exe).unwrap();
    let doc = dir.join("macro.doc");
    let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    std::fs::write(&doc, b.build().unwrap()).unwrap();

    let scan = |extra: &[&str]| {
        let out = Command::new(&exe)
            .args(["scan", "--scale", "0.002", "--jobs", "1"])
            .args(extra)
            .arg(&doc)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(matches!(out.status.code(), Some(0 | 1)), "{stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let in_process = scan(&[]);
    assert!(in_process.contains(": module Module1"), "{in_process}");
    assert_eq!(scan(&["--isolate"]), in_process);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two names that differ only in bytes that are not UTF-8 have the same
/// display form, which is how the journal keys a record. A resume must
/// not copy one file's outcome onto the other: each is rescanned.
#[test]
fn a_resume_never_copies_one_non_utf8_name_outcome_onto_another() {
    let dir =
        std::env::temp_dir().join(format!("vbadet-cli-not-utf8-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let macro_doc = dir.join(OsStr::from_bytes(b"a\xff.doc"));
    let junk = dir.join(OsStr::from_bytes(b"a\xfe.doc"));
    let mut b = vbadet_ovba::VbaProjectBuilder::new("P");
    b.add_module("Module1", "Sub Work()\r\n    x = 1\r\nEnd Sub\r\n");
    std::fs::write(&macro_doc, b.build().unwrap()).unwrap();
    std::fs::write(&junk, b"not a document at all").unwrap();
    let journal = dir.join("scan.jsonl");

    let scan = |extra: &[&OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_vbadet"))
            .args(["scan", "--scale", "0.002", "--jobs", "1"])
            .args(extra)
            .arg(&macro_doc)
            .arg(&junk)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let journaled = scan(&["--journal".as_ref(), journal.as_os_str()]);
    assert!(journaled.contains(": module Module1"), "{journaled}");
    assert!(
        journaled.contains("FAILED [unknown-container]"),
        "{journaled}"
    );
    assert_eq!(scan(&["--resume".as_ref(), journal.as_os_str()]), journaled);

    let _ = std::fs::remove_dir_all(&dir);
}
