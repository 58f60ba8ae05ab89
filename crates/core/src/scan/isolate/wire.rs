//! The binary payloads of the isolate protocol's per-document frames.
//!
//! The `hello`, `ready` and `exit` frames are JSON; they are sent once
//! per worker. The frames sent once per document, the two `scan` requests
//! and the `result`, use the compact layout below instead, so that
//! neither end builds, parses or walks a JSON tree per document. The
//! layout's version travels in the hello frame (`"frame_version"`), and a
//! worker refuses a hello with a version other than [`FRAME_VERSION`].
//!
//! Version 3, every integer little-endian:
//!
//! ```text
//! path    u8 0x01, then the path's bytes (the rest of the payload): its
//!            raw `OsStr` bytes on unix, so any name the supervisor can
//!            open reaches the worker unchanged; UTF-8 elsewhere
//! bytes   u8 0x03, then the document's bytes (the rest of the payload),
//!            which the supervisor has already read
//! result  u8 0x02
//!         u8 outcome kind: 0 clean, 1 macros, 2 salvaged, 3 recovered,
//!            4 failed
//!         recovered:  u8 rung (0 strict, 1 salvage), then verdicts
//!         macros, salvaged: verdicts
//!           verdicts: u32 count, then per module u32 name length, the
//!                     name as UTF-8, u8 obfuscated (0 or 1), u64 score
//!                     (the f64's bits)
//!         failed:     u8 class (its index in `FailureClass::ALL`),
//!                     u32 detail length, the detail as UTF-8
//!         u8 counter pairs, then per pair u8 counter (its index in
//!            `Counter::ALL`, strictly increasing) and u64 delta
//! ```
//!
//! A result payload must end exactly after its last pair. A score travels
//! as its bits, so records stay byte-identical to an in-process scan.

use std::path::Path;
#[cfg(unix)]
use std::{ffi::OsStr, os::unix::ffi::OsStrExt};

use super::super::{FailureClass, LadderRung, ScanOutcome};
use crate::detector::{ModuleVerdict, Verdict};
use vbadet_metrics::Counter;

/// The layout version the hello frame carries.
pub(crate) const FRAME_VERSION: u64 = 3;

/// First byte of a `path` request payload. JSON frames start with `{`.
const PATH_TAG: u8 = 0x01;
/// First byte of a `result` payload.
const RESULT_TAG: u8 = 0x02;
/// First byte of a `bytes` request payload.
const BYTES_TAG: u8 = 0x03;

const _: () = assert!(
    Counter::ALL.len() < 256,
    "counter codes and the pair count are one byte each"
);

/// A `scan` request: the document to read, or the bytes to scan.
#[derive(Debug, PartialEq)]
pub(crate) enum Request<'a> {
    Path(&'a Path),
    Bytes(&'a [u8]),
}

/// A `path` request payload for `path`.
pub(crate) fn path_request(path: &Path) -> Vec<u8> {
    [&[PATH_TAG][..], path.as_os_str().as_encoded_bytes()].concat()
}

/// A `bytes` request payload for a document the supervisor holds.
pub(crate) fn bytes_request(bytes: &[u8]) -> Vec<u8> {
    [&[BYTES_TAG][..], bytes].concat()
}

/// The request a payload carries, or `None` if the payload is not one
/// (an `exit` frame, say, or off unix a path that is not UTF-8).
pub(crate) fn decode_request(payload: &[u8]) -> Option<Request<'_>> {
    match payload.split_first()? {
        (&BYTES_TAG, bytes) => Some(Request::Bytes(bytes)),
        #[cfg(unix)]
        (&PATH_TAG, path) => Some(Request::Path(Path::new(OsStr::from_bytes(path)))),
        #[cfg(not(unix))]
        (&PATH_TAG, path) => std::str::from_utf8(path)
            .ok()
            .map(|p| Request::Path(Path::new(p))),
        _ => None,
    }
}

/// Appends a `result` payload to `buf`. `deltas` must be in declaration
/// order with no counter twice, as [`MetricsSink::take_counters`]
/// returns them.
///
/// [`MetricsSink::take_counters`]: vbadet_metrics::MetricsSink::take_counters
pub(crate) fn encode_result(buf: &mut Vec<u8>, outcome: &ScanOutcome, deltas: &[(Counter, u64)]) {
    buf.push(RESULT_TAG);
    match outcome {
        ScanOutcome::Clean => buf.push(0),
        ScanOutcome::Macros(v) => {
            buf.push(1);
            encode_verdicts(buf, v);
        }
        ScanOutcome::Salvaged(v) => {
            buf.push(2);
            encode_verdicts(buf, v);
        }
        ScanOutcome::Recovered { rung, verdicts } => {
            buf.push(3);
            buf.push(*rung as u8);
            encode_verdicts(buf, verdicts);
        }
        ScanOutcome::Failed { class, detail } => {
            buf.push(4);
            buf.push(*class as u8);
            encode_str(buf, detail);
        }
    }
    buf.push(deltas.len() as u8);
    for &(counter, n) in deltas {
        buf.push(counter.index() as u8);
        buf.extend_from_slice(&n.to_le_bytes());
    }
}

/// A length never truncates into a frame that goes out: a payload over
/// `MAX_FRAME_BYTES` (64 MiB) is refused before it is written.
fn encode_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode_verdicts(buf: &mut Vec<u8>, verdicts: &[ModuleVerdict]) {
    buf.extend_from_slice(&(verdicts.len() as u32).to_le_bytes());
    for m in verdicts {
        encode_str(buf, &m.module_name);
        buf.push(m.verdict.obfuscated as u8);
        buf.extend_from_slice(&m.verdict.score.to_bits().to_le_bytes());
    }
}

/// Decodes a `result` payload. Both ends are one binary, so anything
/// that does not parse exactly — a short or long payload, an unknown
/// kind, class, rung or counter, a flag other than 0 or 1, text that is
/// not UTF-8, counters out of order — is a protocol error that buries the
/// worker.
pub(crate) fn decode_result(payload: &[u8]) -> Result<(ScanOutcome, Vec<(Counter, u64)>), String> {
    let mut r = Reader(payload);
    if r.u8()? != RESULT_TAG {
        return Err("not a result frame".to_string());
    }
    let outcome = match r.u8()? {
        0 => ScanOutcome::Clean,
        1 => ScanOutcome::Macros(r.verdicts()?),
        2 => ScanOutcome::Salvaged(r.verdicts()?),
        3 => {
            let rung = match r.u8()? {
                0 => LadderRung::Strict,
                1 => LadderRung::Salvage,
                n => return Err(format!("unknown rung {n}")),
            };
            ScanOutcome::Recovered {
                rung,
                verdicts: r.verdicts()?,
            }
        }
        4 => {
            let code = r.u8()?;
            let class = *FailureClass::ALL
                .get(code as usize)
                .ok_or(format!("unknown failure class {code}"))?;
            ScanOutcome::Failed {
                class,
                detail: r.str()?.to_string(),
            }
        }
        n => return Err(format!("unknown outcome kind {n}")),
    };
    let pairs = r.u8()? as usize;
    let mut deltas = Vec::with_capacity(pairs);
    let mut next = 0;
    for _ in 0..pairs {
        let code = r.u8()? as usize;
        let counter = *Counter::ALL
            .get(code)
            .ok_or(format!("unknown counter {code}"))?;
        if code < next {
            return Err(format!("counter {code} out of order"));
        }
        next = code + 1;
        deltas.push((counter, r.u64()?));
    }
    if !r.0.is_empty() {
        return Err(format!("{} bytes after the last counter", r.0.len()));
    }
    Ok((outcome, deltas))
}

/// A cursor over a payload; every read past its end is an error.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.0.len() {
            return Err("result frame truncated".to_string());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or("result frame truncated")?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| "text is not UTF-8".to_string())
    }

    fn verdicts(&mut self) -> Result<Vec<ModuleVerdict>, String> {
        let count = self.u32()? as usize;
        // The smallest verdict is 13 bytes, so a lying count cannot
        // reserve more than the payload could hold.
        let mut verdicts = Vec::with_capacity(count.min(self.0.len() / 13));
        for _ in 0..count {
            let module_name = self.str()?.to_string();
            let obfuscated = match self.u8()? {
                0 => false,
                1 => true,
                n => return Err(format!("obfuscated flag {n}")),
            };
            let score = f64::from_bits(self.u64()?);
            verdicts.push(ModuleVerdict {
                module_name,
                verdict: Verdict { obfuscated, score },
            });
        }
        Ok(verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbadet_metrics::MetricsSink;

    fn encoded(outcome: &ScanOutcome, deltas: &[(Counter, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_result(&mut buf, outcome, deltas);
        buf
    }

    /// The golden frame's outcome and deltas: one flagged module, and a
    /// counter past 2^53.
    fn golden_parts() -> (ScanOutcome, Vec<(Counter, u64)>) {
        let sink = MetricsSink::enabled();
        sink.count(Counter::ScanDocs, 1);
        sink.count(Counter::OleParses, 1);
        sink.count(Counter::OleSectors, 9_007_199_254_740_993);
        sink.count(Counter::ScanModulesScored, 2);
        let outcome = ScanOutcome::Macros(vec![ModuleVerdict {
            module_name: "Module1".to_string(),
            verdict: Verdict {
                obfuscated: true,
                score: 0.875,
            },
        }]);
        (outcome, sink.take_counters())
    }

    #[test]
    fn every_outcome_round_trips_with_its_deltas() {
        let verdicts = vec![
            ModuleVerdict {
                module_name: "Módulo1".to_string(),
                verdict: Verdict {
                    obfuscated: false,
                    score: -0.1,
                },
            },
            ModuleVerdict {
                module_name: String::new(),
                verdict: Verdict {
                    obfuscated: true,
                    score: f64::MIN_POSITIVE,
                },
            },
        ];
        let mut outcomes = vec![
            ScanOutcome::Clean,
            ScanOutcome::Macros(verdicts.clone()),
            ScanOutcome::Macros(Vec::new()),
            ScanOutcome::Salvaged(verdicts.clone()),
            ScanOutcome::Recovered {
                rung: LadderRung::Strict,
                verdicts: verdicts.clone(),
            },
            ScanOutcome::Recovered {
                rung: LadderRung::Salvage,
                verdicts: Vec::new(),
            },
        ];
        outcomes.extend(FailureClass::ALL.iter().map(|&class| ScanOutcome::Failed {
            class,
            detail: format!("{} — detail", class.label()),
        }));
        let all: Vec<(Counter, u64)> = Counter::ALL
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, u64::MAX - i as u64))
            .collect();
        for outcome in &outcomes {
            for deltas in [&[][..], &all[..]] {
                let frame = encoded(outcome, deltas);
                let (back, back_deltas) = decode_result(&frame).unwrap();
                assert_eq!(&back, outcome);
                assert_eq!(back_deltas, deltas);
            }
        }
    }

    #[test]
    fn result_frame_bytes_are_golden() {
        // Literal bytes, not a round trip: counters go out in declaration
        // order by their `Counter::ALL` index, exact past 2^53, and the
        // score as its bits.
        let (outcome, deltas) = golden_parts();
        let frame = encoded(&outcome, &deltas);
        #[rustfmt::skip]
        let golden = [
            0x02, // result
            0x01, // macros
            0x01, 0x00, 0x00, 0x00, // one verdict
            0x07, 0x00, 0x00, 0x00, b'M', b'o', b'd', b'u', b'l', b'e', b'1',
            0x01, // obfuscated
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xec, 0x3f, // 0.875
            0x04, // counter pairs
            6, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ole.parses
            7, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x00, // ole.sectors
            22, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // scan.docs
            28, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // scan.modules_scored
        ];
        assert_eq!(frame, golden);
        assert_eq!(decode_result(&frame).unwrap(), (outcome, deltas));
    }

    #[test]
    fn every_truncation_and_byte_flip_decodes_or_fails_typed() {
        let (outcome, deltas) = golden_parts();
        let frame = encoded(&outcome, &deltas);
        for cut in 0..frame.len() {
            let err = decode_result(&frame[..cut]).unwrap_err();
            assert!(!err.is_empty(), "cut at {cut}");
        }
        let mut long = frame.clone();
        long.push(0);
        assert!(decode_result(&long)
            .unwrap_err()
            .contains("after the last counter"));
        let mut decoded = 0;
        for at in 0..frame.len() {
            for x in 1..=255u8 {
                let mut mutant = frame.clone();
                mutant[at] ^= x;
                // A flip either decodes (a changed name, score or count
                // value) or is a typed error; either way, no panic.
                if decode_result(&mutant).is_ok() {
                    decoded += 1;
                }
            }
        }
        assert!(decoded > 0, "no flip of a value byte decoded");
    }

    #[test]
    fn result_frame_with_an_unknown_counter_is_a_protocol_error() {
        let (outcome, deltas) = golden_parts();
        let frame = encoded(&outcome, &deltas);
        let first_code = frame.len() - 4 * 9;
        assert_eq!(frame[first_code], Counter::OleParses.index() as u8);
        for code in Counter::ALL.len()..=255 {
            let mut unknown = frame.clone();
            unknown[first_code] = code as u8;
            let err = decode_result(&unknown).unwrap_err();
            assert!(err.contains("unknown counter"), "{err}");
        }
    }

    #[test]
    fn result_frame_with_a_repeated_counter_is_a_protocol_error() {
        let (outcome, deltas) = golden_parts();
        let frame = encoded(&outcome, &deltas);
        let first_code = frame.len() - 4 * 9;
        let mut repeated = frame.clone();
        repeated[first_code + 9] = frame[first_code];
        let err = decode_result(&repeated).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn scan_requests_round_trip_and_other_frames_are_not_requests() {
        let path = Path::new("/tmp/ünï.doc");
        let buf = path_request(path);
        assert_eq!(buf[0], PATH_TAG);
        assert_eq!(decode_request(&buf), Some(Request::Path(path)));
        assert_eq!(decode_request(b"{\"op\":\"exit\"}"), None);
        assert_eq!(decode_request(b""), None);
    }

    /// What a single-byte flip of a request must decode to: the tag
    /// decides the kind (or that it is no request), and the rest of the
    /// payload is the path or the document.
    fn flipped(mutant: &[u8]) -> Option<Request<'_>> {
        match mutant.split_first()? {
            (&BYTES_TAG, rest) => Some(Request::Bytes(rest)),
            #[cfg(unix)]
            (&PATH_TAG, rest) => Some(Request::Path(Path::new(OsStr::from_bytes(rest)))),
            #[cfg(not(unix))]
            (&PATH_TAG, rest) => std::str::from_utf8(rest)
                .ok()
                .map(|p| Request::Path(Path::new(p))),
            _ => None,
        }
    }

    /// A name that is not UTF-8 reaches the worker byte for byte.
    #[cfg(unix)]
    #[test]
    fn a_scan_request_carries_the_raw_bytes_of_its_path() {
        let path = Path::new(OsStr::from_bytes(b"/tmp/\xff\xfe.doc"));
        let buf = path_request(path);
        assert_eq!(buf, b"\x01/tmp/\xff\xfe.doc");
        assert_eq!(decode_request(&buf), Some(Request::Path(path)));
        // Every cut is a shorter name or, with the tag gone, no request;
        // a flip of the tag makes a bytes request or no request, and of a
        // name byte another name. None of them panics.
        for cut in 0..=buf.len() {
            let name = buf
                .get(1..cut)
                .map(|name| Request::Path(Path::new(OsStr::from_bytes(name))));
            assert_eq!(decode_request(&buf[..cut]), name, "cut at {cut}");
        }
        for at in 0..buf.len() {
            for x in 1..=255u8 {
                let mut mutant = buf.clone();
                mutant[at] ^= x;
                assert_eq!(
                    decode_request(&mutant),
                    flipped(&mutant),
                    "flip {x:#x} at {at}"
                );
                if at > 0 {
                    assert!(matches!(decode_request(&mutant), Some(Request::Path(_))));
                }
            }
        }
    }

    #[test]
    fn bytes_requests_round_trip_empty_binary_and_multi_mib_documents() {
        let binary: Vec<u8> = (0..=255u8).chain((0..=255u8).rev()).collect();
        let large: Vec<u8> = (0..3 * 1024 * 1024 + 17)
            .map(|i: u32| ((i * 31) >> 3) as u8)
            .collect();
        for doc in [&[][..], &binary, &large] {
            let payload = bytes_request(doc);
            assert_eq!(payload[0], BYTES_TAG);
            assert_eq!(decode_request(&payload), Some(Request::Bytes(doc)));
            // And through the frame codec, at the request cap of the
            // default 64 MiB file-size limit.
            let cap = super::super::request_cap(64 << 20);
            let mut frame = Vec::new();
            super::super::push_frame(&mut frame, &payload, cap).unwrap();
            let back = super::super::read_frame_within(&mut &frame[..], cap)
                .unwrap()
                .unwrap();
            assert_eq!(decode_request(&back), Some(Request::Bytes(doc)));
        }
    }

    #[test]
    fn every_truncation_and_flip_of_a_request_decodes_to_a_request_or_none() {
        let doc = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1\x00\xff\x0a\x01\x03 a short document";
        for request in [
            path_request(Path::new("/srv/mail/a.doc")),
            bytes_request(doc),
        ] {
            for cut in 0..=request.len() {
                let cut_to = flipped(&request[..cut]);
                assert_eq!(cut_to.is_some(), cut > 0, "cut at {cut}");
                assert_eq!(decode_request(&request[..cut]), cut_to, "cut at {cut}");
            }
            for at in 0..request.len() {
                for x in 1..=255u8 {
                    let mut mutant = request.clone();
                    mutant[at] ^= x;
                    assert_eq!(
                        decode_request(&mutant),
                        flipped(&mutant),
                        "flip {x:#x} at {at}"
                    );
                }
            }
        }
    }
}
