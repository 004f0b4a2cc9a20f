//! The `parfait-serve` wire protocol: JSONL frames, zero dependencies.
//!
//! Each line is one JSON object. Client → server lines are *requests*,
//! discriminated by `"op"`; server → client lines are *frames*,
//! discriminated by `"frame"`. The full grammar lives in DESIGN.md §17;
//! in brief:
//!
//! ```text
//! request  = verify | flush | ping | metrics | shutdown
//! verify   = {"op":"verify","id":S,"tenant":S,"app":S,
//!             "cpu":"ibex"|"pico","opt":"-O0"|"-O1"|"-O2",
//!             "mode":"cell"|"software"?}          (mode defaults to cell)
//! frame    = status | result | error | pong | metrics | bye
//! status   = {"frame":"status","id":S,"state":"queued"}
//! result   = {"frame":"result","id":S,...,"cached":B,
//!             "stages":[{"stage":S,"cache_hit":B}...],"composed":{...}}
//! error    = {"frame":"error","id":S|null,"error":S}
//! ```
//!
//! Parsing is total: any malformed line maps to a structured
//! [`ProtoError`] (carrying the line's `"id"` when one can be
//! recovered, so the client can correlate), never a panic. The
//! per-line size cap and the read loop live in
//! [`server`](crate::serve::server).

use parfait_hsms::platform::Cpu;
use parfait_littlec::codegen::OptLevel;
use parfait_telemetry::json::{parse as parse_json, Json};

use crate::cache::valid_tenant;
use crate::graph::StageSet;

/// Upper bound on one request line, in bytes. A line longer than this
/// is answered with an error frame and discarded — a defense against a
/// confused (or hostile) client streaming an unbounded "line" into the
/// daemon's memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How much of a cell one verify request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every stage plus the composed certificate.
    Cell,
    /// The stages not keyed on the platform only.
    Software,
}

impl Mode {
    /// The stages this mode runs.
    pub fn stages(self) -> StageSet {
        match self {
            Mode::Cell => StageSet::all(),
            Mode::Software => StageSet::software(),
        }
    }

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Cell => "cell",
            Mode::Software => "software",
        }
    }
}

/// One cell-verification request.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyRequest {
    /// Client-chosen correlation id, echoed on every frame about this
    /// request.
    pub id: String,
    /// Cache namespace ([`valid_tenant`]-validated at parse time).
    pub tenant: String,
    /// Application slug (resolved against the server's registry at
    /// execution time).
    pub app: String,
    /// Platform CPU.
    pub cpu: Cpu,
    /// Optimization level.
    pub opt: OptLevel,
    /// Cell or software-only.
    pub mode: Mode,
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Queue a cell for verification.
    Verify(VerifyRequest),
    /// Run everything queued on this session and emit the results.
    Flush,
    /// Liveness probe.
    Ping,
    /// Emit a metrics snapshot frame.
    Metrics,
    /// Drain (implicit flush) and stop the server.
    Shutdown,
}

/// A malformed request, with the offending line's `"id"` when it could
/// be recovered — so even a rejected request is correlatable.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoError {
    /// The line's `"id"` member, if the line parsed far enough to have
    /// one.
    pub id: Option<String>,
    /// What was wrong.
    pub error: String,
}

impl ProtoError {
    fn new(id: Option<String>, error: impl Into<String>) -> ProtoError {
        ProtoError { id, error: error.into() }
    }
}

fn req_str(v: &Json, id: &Option<String>, key: &str) -> Result<String, ProtoError> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(ProtoError::new(id.clone(), format!("{key:?} must be a string"))),
        None => Err(ProtoError::new(id.clone(), format!("missing {key:?}"))),
    }
}

/// Parse one wire line. Total: every failure is a structured
/// [`ProtoError`].
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = parse_json(line).map_err(|e| ProtoError::new(None, format!("malformed JSON: {e}")))?;
    let id = v.get("id").and_then(Json::as_str).map(str::to_string);
    let op = match v.get("op") {
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(ProtoError::new(id, "\"op\" must be a string")),
        None => return Err(ProtoError::new(id, "missing \"op\"")),
    };
    match op.as_str() {
        "flush" => Ok(Request::Flush),
        "ping" => Ok(Request::Ping),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "verify" => {
            let rid = req_str(&v, &id, "id")?;
            let tenant = req_str(&v, &id, "tenant")?;
            if !valid_tenant(&tenant) {
                return Err(ProtoError::new(
                    id,
                    format!("invalid tenant {tenant:?}: expected 1-64 chars of [A-Za-z0-9_-]"),
                ));
            }
            let app = req_str(&v, &id, "app")?;
            let cpu = match req_str(&v, &id, "cpu")?.to_ascii_lowercase().as_str() {
                "ibex" => Cpu::Ibex,
                "pico" | "picorv32" => Cpu::Pico,
                other => {
                    return Err(ProtoError::new(id, format!("unknown cpu {other:?} (ibex|pico)")))
                }
            };
            let opt = match req_str(&v, &id, "opt")?.trim_start_matches('-') {
                "O0" | "o0" => OptLevel::O0,
                "O1" | "o1" => OptLevel::O1,
                "O2" | "o2" => OptLevel::O2,
                other => {
                    return Err(ProtoError::new(id, format!("unknown opt {other:?} (-O0|-O1|-O2)")))
                }
            };
            let mode = match v.get("mode") {
                None => Mode::Cell,
                Some(Json::Str(s)) if s == "cell" => Mode::Cell,
                Some(Json::Str(s)) if s == "software" => Mode::Software,
                Some(other) => {
                    return Err(ProtoError::new(
                        id,
                        format!("unknown mode {other} (cell|software)"),
                    ))
                }
            };
            Ok(Request::Verify(VerifyRequest { id: rid, tenant, app, cpu, opt, mode }))
        }
        other => Err(ProtoError::new(id, format!("unknown op {other:?}"))),
    }
}

/// `{"frame":"status",...}` — the request was accepted and queued.
pub fn status_frame(id: &str, state: &str) -> Json {
    Json::obj([("frame", Json::str("status")), ("id", Json::str(id)), ("state", Json::str(state))])
}

/// `{"frame":"error",...}` — a malformed line or a failed request.
pub fn error_frame(id: Option<&str>, error: &str) -> Json {
    Json::obj([
        ("frame", Json::str("error")),
        ("id", id.map(Json::str).unwrap_or(Json::Null)),
        ("error", Json::str(error)),
    ])
}

/// `{"frame":"pong"}` — liveness reply.
pub fn pong_frame() -> Json {
    Json::obj([("frame", Json::str("pong"))])
}

/// `{"frame":"metrics",...}` — a registry snapshot.
pub fn metrics_frame(snapshot: Json) -> Json {
    Json::obj([("frame", Json::str("metrics")), ("snapshot", snapshot)])
}

/// `{"frame":"bye"}` — the server drained and is stopping.
pub fn bye_frame() -> Json {
    Json::obj([("frame", Json::str("bye"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_round_trips_with_defaults() {
        let r = parse_request(
            r#"{"op":"verify","id":"r1","tenant":"team-a","app":"hasher","cpu":"ibex","opt":"-O2"}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Verify(VerifyRequest {
                id: "r1".into(),
                tenant: "team-a".into(),
                app: "hasher".into(),
                cpu: Cpu::Ibex,
                opt: OptLevel::O2,
                mode: Mode::Cell,
            })
        );
        // Spelling variants.
        let r = parse_request(
            r#"{"op":"verify","id":"r2","tenant":"t","app":"a","cpu":"PICO","opt":"O0","mode":"software"}"#,
        )
        .unwrap();
        match r {
            Request::Verify(v) => {
                assert_eq!((v.cpu, v.opt, v.mode), (Cpu::Pico, OptLevel::O0, Mode::Software))
            }
            _ => panic!("verify"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"flush"}"#), Ok(Request::Flush));
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
    }

    #[test]
    fn malformed_lines_produce_correlatable_errors() {
        // Truncated JSON: no id recoverable.
        let e = parse_request(r#"{"op":"verify","id":"r9""#).unwrap_err();
        assert!(e.error.contains("malformed JSON"), "{e:?}");
        assert_eq!(e.id, None);
        // Unknown op: id recovered.
        let e = parse_request(r#"{"op":"warp","id":"r3"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r3"));
        assert!(e.error.contains("unknown op"), "{e:?}");
        // Bad tenant characters.
        let e = parse_request(
            r#"{"op":"verify","id":"r4","tenant":"../etc","app":"a","cpu":"ibex","opt":"-O2"}"#,
        )
        .unwrap_err();
        assert!(e.error.contains("invalid tenant"), "{e:?}");
        // Missing fields, wrong types.
        let e = parse_request(r#"{"op":"verify","id":"r5","tenant":"t"}"#).unwrap_err();
        assert!(e.error.contains("missing \"app\""), "{e:?}");
        let e = parse_request(r#"{"op":1}"#).unwrap_err();
        assert!(e.error.contains("\"op\" must be a string"), "{e:?}");
        let e = parse_request("").unwrap_err();
        assert!(e.error.contains("malformed JSON"), "{e:?}");
    }
}
