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
