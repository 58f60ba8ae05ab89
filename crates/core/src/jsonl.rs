//! The crash-safe append-only JSONL log under the scan journal
//! ([`crate::journal`]) and the scan cache's disk segments
//! ([`crate::scan::cache`]), written once. A log is a header line
//! `{"format":…,"version":…}`, then one record per line. Each caller keeps
//! its own record codec and damage policy (DESIGN §7).

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

use vbadet_metrics::json::{self, json_str, Json};

/// A log is fsynced every this many records. Between fsyncs each record
/// is already written to the file, so only an OS-level crash can lose it.
const FSYNC_PERIOD: usize = 64;

/// Appends records to one log file. Its first write or fsync error is
/// latched and every later append is skipped: a full disk stops the log,
/// never the scan that feeds it.
#[derive(Debug)]
pub(crate) struct Writer {
    file: File,
    unsynced: usize,
    bytes_written: u64,
    error: Option<io::Error>,
}

impl Writer {
    /// Creates (truncating) the log at `path`, writes its header line and
    /// fsyncs it, so even a run killed at once leaves a recognizable log.
    /// On unix it then fsyncs the parent directory, so the new file's
    /// name survives a power cut too.
    pub(crate) fn create(path: &Path, format: &str, version: u64) -> io::Result<Writer> {
        // Append mode: each record lands at the end of the file even if
        // another writer has the same file open.
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        // An advisory lock, held until the writer drops: the scan cache
        // deletes no segment whose lock another writer holds.
        let _ = file.try_lock();
        file.set_len(0)?;
        let mut log = Writer {
            file,
            unsynced: 0,
            bytes_written: 0,
            error: None,
        };
        log.append(&format!(
            "{{\"format\":{},\"version\":{version}}}",
            json_str(format)
        ));
        log.sync();
        log.status()?;
        #[cfg(unix)]
        File::open(parent_dir(path))?.sync_all()?;
        Ok(log)
    }

    /// Appends `record`, which holds no `\n`, and its `\n` in one write,
    /// so a crash can tear only the final line.
    pub(crate) fn append(&mut self, record: &str) {
        if self.error.is_some() {
            return;
        }
        let line = [record.as_bytes(), b"\n"].concat();
        if let Err(e) = self.file.write_all(&line) {
            self.error = Some(e);
            return;
        }
        self.bytes_written += line.len() as u64;
        self.unsynced += 1;
        if self.unsynced >= FSYNC_PERIOD {
            self.sync();
        }
    }

    /// Fault injection's torn append: writes half of `record`, then fails
    /// as a writer that died mid-write would.
    pub(crate) fn tear(&mut self, record: &str) {
        if self.error.is_none() {
            let _ = self.file.write_all(&record.as_bytes()[..record.len() / 2]);
            self.error = Some(io::Error::other("injected torn write"));
        }
    }

    /// Fsyncs now.
    pub(crate) fn sync(&mut self) {
        if self.error.is_none() {
            self.unsynced = 0;
            self.error = self.file.sync_data().err();
        }
    }

    /// Bytes appended so far, the header line included. A torn append
    /// never completed, so it is not counted.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// `Err` with the latched first error, if there is one.
    pub(crate) fn status(&self) -> io::Result<()> {
        match &self.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

/// The directory that holds `path`; a bare file name is in `.`.
#[cfg(unix)]
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// One line of a log, as [`read`] yields it.
pub(crate) struct Line<'a> {
    /// 1-based line number; the header is line 1.
    pub(crate) number: usize,
    /// Length in bytes, its `\n` included.
    pub(crate) len: usize,
    /// The line without its `\n`, or why it is damaged: it is not UTF-8
    /// (decoded per line, so a torn character damages only its line), or
    /// it is a torn tail, a final line with no `\n`, even whole JSON.
    pub(crate) text: Result<&'a str, String>,
}

/// Checks the header line of the log in `bytes` against `format` and
/// `version`, and returns the body lines after it.
///
/// # Errors
///
/// A description of a missing, torn, unparseable or foreign header.
pub(crate) fn read<'a>(
    bytes: &'a [u8],
    format: &str,
    version: u64,
) -> Result<impl Iterator<Item = Line<'a>>, String> {
    let mut lines = bytes
        .split_inclusive(|&b| b == b'\n')
        .enumerate()
        .map(|(i, raw)| Line {
            number: i + 1,
            len: raw.len(),
            text: match raw.strip_suffix(b"\n") {
                Some(line) => std::str::from_utf8(line).map_err(|e| format!("not UTF-8: {e}")),
                None => Err("torn tail (no trailing newline)".to_string()),
            },
        });
    let header = lines.next().ok_or("no header line")?;
    let header = header.text.map_err(|e| format!("header: {e}"))?;
    let header = json::parse(header).map_err(|e| format!("header: {e}"))?;
    if header.get("format").and_then(Json::as_str) != Some(format) {
        return Err(format!("header does not name format {format:?}"));
    }
    if header.get("version").and_then(Json::as_u64) != Some(version) {
        return Err(format!("header is not version {version}"));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(bytes: &[u8]) -> Vec<Result<&str, String>> {
        read(bytes, "fmt", 3)
            .unwrap()
            .map(|line| line.text)
            .collect()
    }

    #[test]
    fn a_log_truncates_its_file_and_reads_back_its_records() {
        let path = std::env::temp_dir().join(format!("vbadet-jsonl-{}", std::process::id()));
        std::fs::write(&path, "left over from an earlier run\n").unwrap();
        let mut log = Writer::create(&path, "fmt", 3).unwrap();
        let records: Vec<_> = (0..FSYNC_PERIOD + 2)
            .map(|i| format!("{{\"n\":{i}}}"))
            .collect();
        for r in &records {
            log.append(r);
        }
        assert!(log.status().is_ok());
        let written = log.bytes_written();
        // A torn append is latched: nothing after it reaches the file.
        log.tear("{\"n\":-1}");
        log.append("{\"n\":-2}");
        log.sync();
        let err = log.status().unwrap_err().to_string();
        assert!(err.contains("torn"), "{err}");
        assert_eq!(log.bytes_written(), written);
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(bytes.starts_with(b"{\"format\":\"fmt\",\"version\":3}\n"));
        assert_eq!(written, bytes.len() as u64 - 4, "the torn half is 4 bytes");
        let got = lines(&bytes);
        assert_eq!(
            got[..records.len()],
            records.iter().map(|r| Ok(r.as_str())).collect::<Vec<_>>()
        );
        assert_eq!(
            got[records.len()],
            Err("torn tail (no trailing newline)".to_string())
        );
    }

    #[test]
    #[cfg(unix)]
    fn a_bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("scan.jsonl")), Path::new("."));
        assert_eq!(parent_dir(Path::new("logs/scan.jsonl")), Path::new("logs"));
        File::open(parent_dir(Path::new("scan.jsonl")))
            .and_then(|dir| dir.sync_all())
            .unwrap();
    }

    #[test]
    fn damage_is_line_local_and_a_final_line_without_a_newline_is_torn() {
        let mut bytes = b"{\"format\":\"fmt\",\"version\":3}\n\"caf".to_vec();
        bytes.extend_from_slice(b"\xc3\n{\"n\":2}\n{\"n\":3}");
        let got = lines(&bytes);
        assert!(got[0].as_ref().unwrap_err().contains("UTF-8"), "{got:?}");
        assert_eq!(got[1], Ok("{\"n\":2}"));
        assert!(got[2].as_ref().unwrap_err().contains("torn"), "{got:?}");
    }
}
