//! Wire protocol parser for the resident scan service.
//!
//! Requests are newline-delimited and come in two equivalent shapes:
//!
//! - **Text**: `scan <path>`, `metrics`, `health`, `ready`,
//!   `reload <path>`, `model` — the form a human types into `nc`/`socat`.
//! - **JSON**: `{"op":"scan","path":"…"}` (or `"bytes_hex":"…"` for an
//!   inline document) with an optional `"id"` (string or non-negative
//!   integer) the server echoes into the response, so a client
//!   multiplexing requests on one connection can correlate replies.
//!
//! JSON lines decode with the workspace's one codec,
//! [`vbadet_metrics::json`]: an integer id is exact to the last digit,
//! and bracket nesting past its depth cap is a `bad-request`, not a
//! stack overflow. Parsing is total: any line that is not a well-formed
//! request yields a typed error message, never a panic — the fuzz
//! harness in `tests/hostile_inputs.rs` holds the parser to that.

use vbadet_metrics::json::{self, Json};

/// Hard cap on one request line. The connection reader enforces this
/// *before* parsing (an unbounded line would otherwise buffer forever);
/// the parser re-checks it so it is safe on any input.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// What a scan request points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanTarget {
    /// A path on the server's filesystem.
    Path(String),
    /// Document bytes shipped inline (hex-decoded from `bytes_hex`).
    Bytes(Vec<u8>),
}

/// The service verbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// Scan one document through the service's robustness envelope.
    Scan(ScanTarget),
    /// Snapshot the service-wide [`ScanMetrics`](vbadet_metrics::ScanMetrics).
    Metrics,
    /// Liveness: state of the drain latch, breaker and queue.
    Health,
    /// Readiness: whether a scan sent now would be admitted.
    Ready,
    /// Hot-swap the detector from a saved model file on the server's
    /// filesystem; requests admitted before the swap finish under the
    /// generation that admitted them.
    Reload(String),
    /// Describe the live detector generation: version, fingerprint,
    /// load time, generation counter.
    Model,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub verb: Verb,
    /// Client correlation id, echoed verbatim into the response.
    pub id: Option<String>,
}

impl Request {
    fn bare(verb: Verb) -> Self {
        Request { verb, id: None }
    }
}

/// Parses one request line (without its terminating newline).
///
/// # Errors
///
/// A human-readable description of why the line is not a request; the
/// server wraps it in a `bad-request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    if line.len() > MAX_REQUEST_LINE_BYTES {
        return Err(format!(
            "request line is {} bytes, over the {MAX_REQUEST_LINE_BYTES}-byte cap",
            line.len()
        ));
    }
    let line = line.trim();
    if line.is_empty() {
        return Err("empty request".to_string());
    }
    if line.starts_with('{') {
        return parse_json_request(line);
    }
    match line.split_once(char::is_whitespace) {
        None => match line {
            "metrics" => Ok(Request::bare(Verb::Metrics)),
            "health" => Ok(Request::bare(Verb::Health)),
            "ready" => Ok(Request::bare(Verb::Ready)),
            "model" => Ok(Request::bare(Verb::Model)),
            "scan" => Err("scan without a path".to_string()),
            "reload" => Err("reload without a path".to_string()),
            other => Err(format!("unknown verb {other:?}")),
        },
        Some((verb, rest)) => {
            let rest = rest.trim();
            match verb {
                "scan" if rest.is_empty() => Err("scan without a path".to_string()),
                "scan" => Ok(Request::bare(Verb::Scan(ScanTarget::Path(
                    rest.to_string(),
                )))),
                "reload" if rest.is_empty() => Err("reload without a path".to_string()),
                "reload" => Ok(Request::bare(Verb::Reload(rest.to_string()))),
                other => Err(format!("unknown verb {other:?}")),
            }
        }
    }
}

fn parse_json_request(line: &str) -> Result<Request, String> {
    let j = json::parse(line).map_err(|e| format!("bad json: {e}"))?;
    let id = match j.get("id") {
        None => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Int(n)) => Some(n.to_string()),
        Some(_) => return Err("id must be a string or a non-negative integer".to_string()),
    };
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request without op")?;
    let verb = match op {
        "metrics" => Verb::Metrics,
        "health" => Verb::Health,
        "ready" => Verb::Ready,
        "model" => Verb::Model,
        "reload" => match j.get("path").and_then(Json::as_str) {
            Some(p) if !p.is_empty() => Verb::Reload(p.to_string()),
            Some(_) => return Err("reload with an empty path".to_string()),
            None => return Err("reload without a path".to_string()),
        },
        "scan" => {
            let path = j.get("path").and_then(Json::as_str);
            let hex = j.get("bytes_hex").and_then(Json::as_str);
            match (path, hex) {
                (Some(_), Some(_)) => {
                    return Err("scan takes path or bytes_hex, not both".to_string())
                }
                (Some(p), None) if !p.is_empty() => Verb::Scan(ScanTarget::Path(p.to_string())),
                (Some(_), None) => return Err("scan with an empty path".to_string()),
                (None, Some(h)) => Verb::Scan(ScanTarget::Bytes(
                    json::unhex(h).map_err(|e| format!("bytes_hex: {e}"))?,
                )),
                (None, None) => return Err("scan without path or bytes_hex".to_string()),
            }
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Request { verb, id })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_verbs_parse() {
        assert_eq!(
            parse_request("scan /tmp/a.doc").unwrap(),
            Request::bare(Verb::Scan(ScanTarget::Path("/tmp/a.doc".to_string())))
        );
        assert_eq!(
            parse_request("scan  a path with spaces.doc ").unwrap(),
            Request::bare(Verb::Scan(ScanTarget::Path(
                "a path with spaces.doc".to_string()
            )))
        );
        assert_eq!(parse_request("metrics").unwrap().verb, Verb::Metrics);
        assert_eq!(parse_request(" health ").unwrap().verb, Verb::Health);
        assert_eq!(parse_request("ready").unwrap().verb, Verb::Ready);
        assert_eq!(parse_request("model").unwrap().verb, Verb::Model);
        assert_eq!(
            parse_request("reload /models/v2.det").unwrap().verb,
            Verb::Reload("/models/v2.det".to_string())
        );
        assert_eq!(
            parse_request("reload  a model with spaces.det ")
                .unwrap()
                .verb,
            Verb::Reload("a model with spaces.det".to_string())
        );
    }

    #[test]
    fn json_reload_and_model_parse() {
        let r = parse_request("{\"op\":\"reload\",\"path\":\"/m/v2.det\",\"id\":\"r-1\"}").unwrap();
        assert_eq!(r.id.as_deref(), Some("r-1"));
        assert_eq!(r.verb, Verb::Reload("/m/v2.det".to_string()));
        let r = parse_request("{\"op\":\"model\",\"id\":3}").unwrap();
        assert_eq!(r.id.as_deref(), Some("3"));
        assert_eq!(r.verb, Verb::Model);
    }

    #[test]
    fn json_scan_parses_with_ids() {
        let r = parse_request("{\"op\":\"scan\",\"path\":\"/x.doc\",\"id\":\"req-1\"}").unwrap();
        assert_eq!(r.id.as_deref(), Some("req-1"));
        assert_eq!(r.verb, Verb::Scan(ScanTarget::Path("/x.doc".to_string())));
        let r = parse_request("{\"op\":\"scan\",\"bytes_hex\":\"d0cf11e0\",\"id\":7}").unwrap();
        assert_eq!(r.id.as_deref(), Some("7"));
        assert_eq!(
            r.verb,
            Verb::Scan(ScanTarget::Bytes(vec![0xd0, 0xcf, 0x11, 0xe0]))
        );
        // Integer ids echo digit-exact, past 2^53 and up to u64::MAX.
        for id in ["9007199254740993", "18446744073709551615"] {
            let r = parse_request(&format!("{{\"op\":\"health\",\"id\":{id}}}")).unwrap();
            assert_eq!(r.id.as_deref(), Some(id));
        }
        // Anything else numeric is not an id: no rounding, no saturating.
        for id in ["1e30", "-1", "1.5", "1.0", "18446744073709551616"] {
            let err = parse_request(&format!("{{\"op\":\"health\",\"id\":{id}}}")).unwrap_err();
            assert_eq!(
                err, "id must be a string or a non-negative integer",
                "id {id}"
            );
        }
    }

    #[test]
    fn malformed_requests_fail_typed() {
        for bad in [
            "",
            "   ",
            "scan",
            "scan   ",
            "frobnicate",
            "metrics now",
            "{",
            "{}",
            "{\"op\":\"scan\"}",
            "{\"op\":\"scan\",\"path\":\"\"}",
            "{\"op\":\"scan\",\"path\":\"a\",\"bytes_hex\":\"00\"}",
            "{\"op\":\"scan\",\"bytes_hex\":\"xyz\"}",
            "reload",
            "reload   ",
            "{\"op\":\"reload\"}",
            "{\"op\":\"reload\",\"path\":\"\"}",
            "model now",
            "{\"op\":\"nope\"}",
            "{\"op\":\"scan\",\"path\":\"a\",\"id\":[1]}",
            "{\"op\":\"scan\",\"path\":\"a\",\"id\":-3}",
            "{\"op\":17}",
            "{\"op\":\"scan\",\"bytes_hex\":\"abc\"}",
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn oversized_line_is_rejected_by_length_alone() {
        let line = format!("scan {}", "a".repeat(MAX_REQUEST_LINE_BYTES));
        assert!(parse_request(&line).is_err());
    }
}
