//! The isolate protocol's wire: the length-prefixed framing and the
//! binary payload of every frame the supervisor and a worker exchange.
//!
//! A frame is a `u32` little-endian byte length followed by that many
//! bytes of payload. The first payload byte is the frame's tag. The
//! hello carries the layout version, and a worker refuses a hello of any
//! other version than [`FRAME_VERSION`] (the JSON hello of earlier
//! versions included), so both ends always speak one layout.
//!
//! Version 4, every integer little-endian:
//!
//! ```text
//! hello   u8 0x04, u32 layout version, u64 detector generation, the
//!            policy block, then the detector's `save()` text as UTF-8
//!            (the rest of the payload)
//!           policy block (107 bytes): the per-document deadline in
//!            nanoseconds, the fuel and the memory ceiling in bytes, each
//!            a u8 presence flag (0 or 1) and a u64 value (0 when
//!            absent); then ten u64 limits: ZIP max_entries,
//!            max_member_bytes; OLE max_sectors, max_dir_entries,
//!            max_stream_bytes, max_dir_depth; OVBA max_modules,
//!            max_module_bytes, max_dir_bytes; max_file_size
//! ready   u8 0x05, u64 the generation the hello carried
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
//! exit    u8 0x06
//! ```
//!
//! A hello, ready, result or exit payload must end exactly where its
//! layout does. A score travels as its bits, so records stay
//! byte-identical to an in-process scan. The policy block is also what
//! the cache's policy fingerprint hashes, so the fields that can change
//! an outcome are rendered in one place.

use std::io::{self, Read, Write};
use std::path::Path;
use std::time::Duration;
#[cfg(unix)]
use std::{ffi::OsStr, os::unix::ffi::OsStrExt};

use super::super::{FailureClass, LadderRung, ScanOutcome, ScanPolicy};
use crate::detector::{Detector, ModuleVerdict, Verdict};
use crate::limits::ScanLimits;
use vbadet_metrics::Counter;
use vbadet_ole::OleLimits;
use vbadet_ovba::OvbaLimits;
use vbadet_zip::ZipLimits;

/// The layout version the hello frame carries.
const FRAME_VERSION: u32 = 4;

/// First byte of a `path` request payload.
const PATH_TAG: u8 = 0x01;
/// First byte of a `result` payload.
const RESULT_TAG: u8 = 0x02;
/// First byte of a `bytes` request payload.
const BYTES_TAG: u8 = 0x03;
/// First byte of a `hello` payload.
const HELLO_TAG: u8 = 0x04;
/// First byte of a `ready` payload.
const READY_TAG: u8 = 0x05;
/// The whole `exit` payload.
pub(crate) const EXIT: [u8; 1] = [0x06];

const _: () = assert!(
    Counter::ALL.len() < 256,
    "counter codes and the pair count are one byte each"
);

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Hard cap on one frame's payload; a length prefix past this is treated
/// as protocol corruption, not an allocation request. A worker takes
/// request frames up to the larger `request_cap`, since a `bytes`
/// request carries a whole document.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Allocation step for frame payload reads: the buffer grows as bytes
/// actually arrive, so a lying length prefix costs at most one step of
/// memory, never the whole claimed length up front.
const FRAME_READ_CHUNK: usize = 64 << 10;

/// The largest request frame a worker takes: a `bytes` request holds a
/// tag and at most `max_file_size` bytes of document.
pub(crate) fn request_cap(max_file_size: u64) -> usize {
    (max_file_size.saturating_add(1).min(u32::MAX.into()) as usize).max(MAX_FRAME_BYTES)
}

/// Writes one length-prefixed frame, prefix and payload in a single
/// `write_all`. Public so the hostile-input fuzz harness can construct
/// valid frames to mutate; a payload over [`MAX_FRAME_BYTES`] is refused
/// before a byte is written.
pub fn write_frame(w: &mut impl Write, payload: impl AsRef<[u8]>) -> io::Result<()> {
    let payload = payload.as_ref();
    let mut buf = Vec::with_capacity(4 + payload.len());
    push_frame(&mut buf, payload, MAX_FRAME_BYTES)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Appends one length-prefixed frame of at most `cap` bytes to `buf`, so
/// several frames can go out in one write.
pub(crate) fn push_frame(buf: &mut Vec<u8>, bytes: &[u8], cap: usize) -> io::Result<()> {
    if bytes.len() > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
    Ok(())
}

/// Reads one frame of at most [`MAX_FRAME_BYTES`]; `Ok(None)` is a clean
/// EOF at a frame boundary (the peer closed the pipe), anything torn or
/// oversized is an error.
///
/// A corrupt or hostile peer can lie in the length prefix; the payload
/// buffer therefore grows incrementally as bytes arrive instead of being
/// allocated up front, so a prefix claiming 64 MiB followed by a closed
/// pipe costs a typed error, not a 64 MiB allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_within(r, MAX_FRAME_BYTES)
}

/// [`read_frame`] with a payload cap of `cap` bytes, checked against the
/// length prefix before a payload byte is read.
pub(crate) fn read_frame_within(r: &mut impl Read, cap: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length prefix over the cap",
        ));
    }
    let mut buf = Vec::with_capacity(len.min(FRAME_READ_CHUNK));
    let mut taken = r.take(len as u64);
    taken.read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame truncated: prefix said {len} bytes, got {}",
                buf.len()
            ),
        ));
    }
    Ok(Some(buf))
}

/// Whether `buf` begins with a whole frame: a length prefix and at least
/// that many payload bytes.
pub(crate) fn whole_frame_buffered(buf: &[u8]) -> bool {
    match buf.split_first_chunk::<4>() {
        Some((len, payload)) => payload.len() >= u32::from_le_bytes(*len) as usize,
        None => false,
    }
}

// ---------------------------------------------------------------------------
// The per-worker frames: hello, ready
// ---------------------------------------------------------------------------

/// The policy block: the fields that can change a scan outcome, in one
/// fixed-width rendering, which the hello carries and the cache's policy
/// fingerprint hashes. Execution-shape knobs (`jobs`, `isolate`, metrics,
/// drain, the cache handle) are not among them.
pub(crate) fn policy_block(policy: &ScanPolicy) -> Vec<u8> {
    // No scan outlives 2^64 ns (584 years), so a longer deadline travels
    // as that.
    let nanos = |d: Duration| d.as_nanos().try_into().unwrap_or(u64::MAX);
    let deadline = policy.deadline_per_doc.map(nanos);
    let mut block = Vec::with_capacity(107);
    for value in [deadline, policy.fuel_per_doc, policy.max_scan_mem] {
        block.push(value.is_some() as u8);
        block.extend_from_slice(&value.unwrap_or(0).to_le_bytes());
    }
    let l = &policy.limits;
    for limit in [
        l.zip.max_entries as u64,
        l.zip.max_member_bytes as u64,
        l.ole.max_sectors as u64,
        l.ole.max_dir_entries as u64,
        l.ole.max_stream_bytes as u64,
        l.ole.max_dir_depth as u64,
        l.ovba.max_modules as u64,
        l.ovba.max_module_bytes as u64,
        l.ovba.max_dir_bytes as u64,
        l.max_file_size,
    ] {
        block.extend_from_slice(&limit.to_le_bytes());
    }
    block
}

/// A worker's hello frame beside the detector generation it carries, so a
/// spawn knows which generation the worker must echo without decoding the
/// frame and its serialized detector.
#[derive(Clone)]
pub(crate) struct Hello {
    pub(super) frame: Vec<u8>,
    pub(super) generation: u64,
}

impl Hello {
    pub(crate) fn new(detector: &Detector, policy: &ScanPolicy, generation: u64) -> Self {
        let frame = [
            &[HELLO_TAG][..],
            &FRAME_VERSION.to_le_bytes(),
            &generation.to_le_bytes(),
            &policy_block(policy),
            detector.save().as_bytes(),
        ]
        .concat();
        Hello { frame, generation }
    }
}

/// Decodes a hello payload into the detector, the policy and the
/// generation the worker must echo in its ready frame. A frame of
/// another layout version, or one that does not parse exactly, is an
/// error.
pub(crate) fn decode_hello(payload: &[u8]) -> Result<(Detector, ScanPolicy, u64), String> {
    let mut r = Reader(payload);
    if r.u8()? != HELLO_TAG {
        return Err("not a hello frame".to_string());
    }
    let version = r.u32()?;
    if version != FRAME_VERSION {
        return Err(format!(
            "hello of layout version {version}, this worker speaks {FRAME_VERSION}"
        ));
    }
    let generation = r.u64()?;
    let policy = r.policy()?;
    let text = std::str::from_utf8(r.0).map_err(|_| "detector text is not UTF-8")?;
    let detector = Detector::load(text).map_err(|e| format!("hello detector: {e:?}"))?;
    Ok((detector, policy, generation))
}

/// A `ready` payload echoing `generation`.
pub(crate) fn ready(generation: u64) -> Vec<u8> {
    [&[READY_TAG][..], &generation.to_le_bytes()].concat()
}

/// The generation a `ready` payload echoes.
pub(crate) fn decode_ready(payload: &[u8]) -> Result<u64, String> {
    let mut r = Reader(payload);
    if r.u8()? != READY_TAG {
        return Err("not a ready frame".to_string());
    }
    let generation = r.u64()?;
    if !r.0.is_empty() {
        return Err(format!("{} bytes after the generation", r.0.len()));
    }
    Ok(generation)
}

// ---------------------------------------------------------------------------
// The per-document frames: scan requests, exit, result
// ---------------------------------------------------------------------------

/// A frame the worker takes after the hello: the document to read, the
/// bytes to scan, or the request to exit.
#[derive(Debug, PartialEq)]
pub(crate) enum Request<'a> {
    Path(&'a Path),
    Bytes(&'a [u8]),
    Exit,
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
/// (off unix, say, a path that is not UTF-8).
pub(crate) fn decode_request(payload: &[u8]) -> Option<Request<'_>> {
    match payload.split_first()? {
        (&BYTES_TAG, bytes) => Some(Request::Bytes(bytes)),
        #[cfg(unix)]
        (&PATH_TAG, path) => Some(Request::Path(Path::new(OsStr::from_bytes(path)))),
        #[cfg(not(unix))]
        (&PATH_TAG, path) => std::str::from_utf8(path)
            .ok()
            .map(|p| Request::Path(Path::new(p))),
        _ if payload == EXIT => Some(Request::Exit),
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
/// [`MAX_FRAME_BYTES`] is refused before it is written.
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
        let (head, rest) = self.0.split_at_checked(n).ok_or("frame truncated")?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
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

    fn flag(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(format!("flag byte {n}, not 0 or 1")),
        }
    }

    /// A presence flag, then the value (0 when absent).
    fn optional(&mut self) -> Result<Option<u64>, String> {
        Ok(self.flag()?.then_some(self.u64()?))
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
            let obfuscated = self.flag()?;
            let score = f64::from_bits(self.u64()?);
            verdicts.push(ModuleVerdict {
                module_name,
                verdict: Verdict { obfuscated, score },
            });
        }
        Ok(verdicts)
    }

    /// The policy block, in [`policy_block`]'s order.
    fn policy(&mut self) -> Result<ScanPolicy, String> {
        let deadline_per_doc = self.optional()?.map(Duration::from_nanos);
        let fuel_per_doc = self.optional()?;
        let max_scan_mem = self.optional()?;
        let limits = ScanLimits {
            zip: ZipLimits {
                max_entries: self.u64()? as usize,
                max_member_bytes: self.u64()? as usize,
            },
            ole: OleLimits {
                max_sectors: self.u64()? as usize,
                max_dir_entries: self.u64()? as usize,
                max_stream_bytes: self.u64()? as usize,
                max_dir_depth: self.u64()? as usize,
            },
            ovba: OvbaLimits {
                max_modules: self.u64()? as usize,
                max_module_bytes: self.u64()? as usize,
                max_dir_bytes: self.u64()? as usize,
            },
            max_file_size: self.u64()?,
        };
        Ok(ScanPolicy {
            deadline_per_doc,
            fuel_per_doc,
            max_scan_mem,
            ..ScanPolicy::with_limits(limits)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{ClassifierKind, DetectorConfig};
    use std::sync::OnceLock;
    use vbadet_corpus::CorpusSpec;
    use vbadet_metrics::MetricsSink;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, ready(3)).unwrap();
        write_frame(&mut buf, [0x02, 0xFF, 0x00]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), ready(3));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), [0x02, 0xFF, 0x00]);
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let buf = u32::MAX.to_le_bytes();
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// A reader that yields `head` and then fails the test if it is read
    /// again: a frame refused on its length prefix reads no payload.
    struct PrefixOnly<'a>(&'a [u8]);

    impl Read for PrefixOnly<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(!self.0.is_empty(), "read a payload past a refused prefix");
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn the_worker_refuses_a_request_prefix_over_its_cap_before_it_allocates() {
        // The cap follows the hello's file-size limit, never below the
        // 64 MiB frame cap, and never past what a length prefix can say.
        assert_eq!(request_cap(1024), MAX_FRAME_BYTES);
        assert_eq!(request_cap(100 << 20), (100 << 20) + 1);
        assert_eq!(request_cap(u64::MAX), u32::MAX as usize);
        for max_file_size in [1024, 100 << 20] {
            let cap = request_cap(max_file_size);
            let prefix = (cap as u32 + 1).to_le_bytes();
            let err = read_frame_within(&mut PrefixOnly(&prefix), cap).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // A prefix at the cap passes it (and the pipe then ends early),
        // while a result frame keeps the 64 MiB cap.
        let cap = request_cap(100 << 20);
        let at_cap = (cap as u32).to_le_bytes();
        let err = read_frame_within(&mut &at_cap[..], cap).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let err = read_frame(&mut PrefixOnly(&at_cap)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn a_whole_frame_is_buffered_only_once_its_last_payload_byte_is() {
        let mut two = Vec::new();
        push_frame(&mut two, b"first", MAX_FRAME_BYTES).unwrap();
        let first_len = two.len();
        push_frame(&mut two, b"second", MAX_FRAME_BYTES).unwrap();
        assert!(!whole_frame_buffered(&[]), "empty buffer");
        assert!(!whole_frame_buffered(&two[..3]), "partial length prefix");
        assert!(!whole_frame_buffered(&two[..4]), "bare length prefix");
        assert!(
            !whole_frame_buffered(&two[..first_len - 1]),
            "partial payload"
        );
        assert!(whole_frame_buffered(&two[..first_len]), "exact frame");
        assert!(
            whole_frame_buffered(&two[..first_len + 5]),
            "a frame followed by part of the next"
        );
        assert!(!whole_frame_buffered(&two[first_len..first_len + 5]));
        // An empty payload is whole with its prefix alone.
        assert!(whole_frame_buffered(&0u32.to_le_bytes()));
    }

    /// A small trained detector, so a hello can be decoded thousands of
    /// times in a test.
    fn detector() -> &'static Detector {
        static DETECTOR: OnceLock<Detector> = OnceLock::new();
        DETECTOR.get_or_init(|| {
            let config = DetectorConfig {
                classifier: ClassifierKind::Lda,
                ..DetectorConfig::default()
            };
            Detector::train_on_corpus(&config, &CorpusSpec::paper().scaled(0.01))
        })
    }

    fn strict() -> ScanPolicy {
        ScanPolicy::with_limits(ScanLimits::strict())
    }

    /// The strict limits as the policy block's last 80 bytes.
    #[rustfmt::skip]
    const STRICT_LIMITS: [u8; 80] = [
        0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // zip max_entries 4096
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, // zip max_member_bytes 16 MiB
        0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, // ole max_sectors 262144
        0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ole max_dir_entries 4096
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, // ole max_stream_bytes 16 MiB
        0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ole max_dir_depth 64
        0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ovba max_modules 256
        0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, // ovba max_module_bytes 4 MiB
        0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, // ovba max_dir_bytes 1 MiB
        0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, // max_file_size 64 MiB
    ];

    #[test]
    fn hello_ready_and_exit_frame_bytes_are_golden() {
        // Literal bytes before the embedded detector text: the policy
        // block is fixed-width, an unset budget a 0 flag and a 0 value.
        let policy = strict()
            .deadline_ms(1234)
            .fuel(99)
            .max_scan_mem_bytes(5 << 20);
        #[rustfmt::skip]
        let head = [
            0x04, // hello
            0x04, 0x00, 0x00, 0x00, // layout version 4
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // generation 7
            0x01, 0x80, 0x58, 0x8d, 0x49, 0x00, 0x00, 0x00, 0x00, // deadline 1.234e9 ns
            0x01, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // fuel 99
            0x01, 0x00, 0x00, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00, // 5 MiB ceiling
        ];
        let saved = detector().save();
        let golden = [&head[..], &STRICT_LIMITS, saved.as_bytes()].concat();
        assert_eq!(Hello::new(detector(), &policy, 7).frame, golden);
        assert_eq!(policy_block(&policy), golden[13..13 + 107]);

        #[rustfmt::skip]
        let unset_head = [
            0x04, 0x04, 0x00, 0x00, 0x00, // hello, layout version 4
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // generation 0
        ];
        let unset = [
            &unset_head[..],
            &[0; 9],
            &[0; 9],
            &[0; 9],
            &STRICT_LIMITS,
            saved.as_bytes(),
        ]
        .concat();
        assert_eq!(Hello::new(detector(), &strict(), 0).frame, unset);

        assert_eq!(ready(7), [0x05, 0x07, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            ready(u64::MAX),
            [0x05, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]
        );
        assert_eq!(EXIT, [0x06]);
    }

    #[test]
    fn hello_round_trips_detector_and_policy() {
        let policy = strict()
            .deadline_ms(1234)
            .fuel(99)
            .max_scan_mem_bytes(5 << 20);
        for (policy, generation) in [(policy, 7), (ScanPolicy::default(), 0)] {
            let hello = Hello::new(detector(), &policy, generation);
            let (loaded, decoded, back) = decode_hello(&hello.frame).unwrap();
            assert_eq!((back, hello.generation), (generation, generation));
            assert_eq!(decoded.limits, policy.limits);
            assert_eq!(decoded.deadline_per_doc, policy.deadline_per_doc);
            assert_eq!(decoded.fuel_per_doc, policy.fuel_per_doc);
            assert_eq!(decoded.max_scan_mem, policy.max_scan_mem);
            assert_eq!(loaded.save(), detector().save());
        }
        assert_eq!(decode_ready(&ready(7)), Ok(7));
        assert_eq!(decode_request(&EXIT), Some(Request::Exit));
    }

    #[test]
    fn a_hello_carries_a_sub_millisecond_deadline_exactly() {
        let longest = Duration::from_nanos(u64::MAX);
        for (deadline, decoded) in [
            (Duration::from_micros(1500), Duration::from_micros(1500)),
            (Duration::from_micros(500), Duration::from_micros(500)),
            (Duration::from_nanos(1), Duration::from_nanos(1)),
            (Duration::ZERO, Duration::ZERO),
            (longest, longest),
            // Past 2^64 ns (584 years), a deadline travels as that.
            (Duration::MAX, longest),
        ] {
            let mut policy = strict();
            policy.deadline_per_doc = Some(deadline);
            let (_, back, _) = decode_hello(&Hello::new(detector(), &policy, 1).frame).unwrap();
            assert_eq!(back.deadline_per_doc, Some(decoded));
        }
    }

    #[test]
    fn a_hello_of_another_frame_version_is_refused() {
        let hello = Hello::new(detector(), &strict(), 0).frame;
        let mut v3 = hello.clone();
        v3[1] = 3;
        let Err(err) = decode_hello(&v3) else {
            panic!("version 3 is refused")
        };
        assert!(err.contains("layout version 3"), "{err}");
        // The JSON hello of earlier layouts is not a hello at all.
        let json = br#"{"op":"hello","frame_version":3,"generation":0,"detector":"x"}"#;
        let Err(err) = decode_hello(json) else {
            panic!("a JSON hello is refused")
        };
        assert!(err.contains("not a hello"), "{err}");
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_hello_and_a_ready_decodes_or_fails_typed() {
        let policy = strict().deadline_ms(1).fuel(2).max_scan_mem_bytes(3);
        let hello = Hello::new(detector(), &policy, 5).frame;
        let ready = ready(5);
        // A cut inside the fixed-width head is an error; one inside the
        // detector text decodes whatever `Detector::load` accepts (the
        // frame's length prefix, not the text, guards against a torn
        // frame).
        for cut in 0..hello.len() {
            let decoded = decode_hello(&hello[..cut]);
            assert!(cut > 13 + 107 || decoded.is_err(), "hello cut at {cut}");
        }
        for cut in 0..ready.len() {
            assert!(decode_ready(&ready[..cut]).is_err(), "ready cut at {cut}");
        }
        let long = [&ready[..], &[0]].concat();
        assert!(decode_ready(&long)
            .unwrap_err()
            .contains("after the generation"));
        let (mut hellos, mut readies) = (0, 0);
        for at in 0..hello.len() {
            for x in 1..=255u8 {
                let mut mutant = hello.clone();
                mutant[at] ^= x;
                // A flip either decodes (another value or detector) or
                // is a typed error; either way, no panic.
                hellos += decode_hello(&mutant).is_ok() as usize;
                if let Some(byte) = ready.get(at) {
                    let mut mutant = ready.clone();
                    mutant[at] = byte ^ x;
                    readies += decode_ready(&mutant).is_ok() as usize;
                }
            }
        }
        assert!(hellos > 0, "no flip of a hello value byte decoded");
        assert_eq!(readies, 8 * 255, "every generation flip decodes");
    }

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
        assert_eq!(decode_request(&EXIT), Some(Request::Exit));
        // The JSON exit of earlier layouts is no request, and neither is
        // an exit tag with more behind it.
        assert_eq!(decode_request(b"{\"op\":\"exit\"}"), None);
        assert_eq!(decode_request(&[EXIT[0], 0]), None);
        assert_eq!(decode_request(b""), None);
    }

    /// What a single-byte flip of a request must decode to: the tag
    /// decides the kind (or that it is no request), and the rest of the
    /// payload is the path or the document; an exit is the tag alone.
    fn flipped(mutant: &[u8]) -> Option<Request<'_>> {
        match mutant.split_first()? {
            (&BYTES_TAG, rest) => Some(Request::Bytes(rest)),
            #[cfg(unix)]
            (&PATH_TAG, rest) => Some(Request::Path(Path::new(OsStr::from_bytes(rest)))),
            #[cfg(not(unix))]
            (&PATH_TAG, rest) => std::str::from_utf8(rest)
                .ok()
                .map(|p| Request::Path(Path::new(p))),
            _ if mutant == EXIT => Some(Request::Exit),
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
            let cap = request_cap(64 << 20);
            let mut frame = Vec::new();
            push_frame(&mut frame, &payload, cap).unwrap();
            let back = read_frame_within(&mut &frame[..], cap).unwrap().unwrap();
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
