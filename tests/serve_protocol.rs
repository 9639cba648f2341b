//! Every malformed request the daemon can reject, rejected over a live
//! socket — and every rejection sent exactly as the parser built it: the
//! wire response is byte for byte the `to_json` of the
//! [`RequestError`](custom_fit::serve::RequestError) that
//! [`parse_request`] returns for the same line.
//!
//! The errors name the offending field *and* its byte offset, in the
//! style of the line-numbered CSV errors in `cfp_dse::io` — several
//! cases below pin the offset to the byte the client can see.

mod common;

use common::serve::{state_dir, Client};
use custom_fit::serve::json::{self, Json};
use custom_fit::serve::{parse_request, ServeConfig, Server};

/// One rejection case: a request line and the expected error kind.
struct Case {
    line: String,
    kind: &'static str,
    /// Substring of the line whose byte offset the error must carry
    /// (`None` for errors whose offset is the whole-document 0 or not
    /// tied to a visible token).
    offset_of: Option<&'static str>,
    /// Substring the `field` must equal, for field-carrying kinds.
    field: Option<&'static str>,
}

fn case(line: &str, kind: &'static str) -> Case {
    Case {
        line: line.to_string(),
        kind,
        offset_of: None,
        field: None,
    }
}

fn field_case(
    line: &str,
    kind: &'static str,
    offset_of: &'static str,
    field: &'static str,
) -> Case {
    Case {
        line: line.to_string(),
        kind,
        offset_of: Some(offset_of),
        field: Some(field),
    }
}

/// Every rejection variant of the protocol, one (or more) live cases
/// each: `too_long`, `syntax`, `not_an_object`, `unknown_op`,
/// `missing_field`, `bad_field`.
fn cases() -> Vec<Case> {
    let mut cases = vec![
        // too_long: a syntactically fine request padded past MAX_LINE.
        case(
            &format!(
                r#"{{"op":"ping","pad":"{}"}}"#,
                "x".repeat(custom_fit::serve::proto::MAX_LINE)
            ),
            "too_long",
        ),
        // syntax: truncated document, unknown escape, trailing garbage.
        case(r#"{"op":"#, "syntax"),
        case(r#"{"op":"ping"} extra"#, "syntax"),
        case(r#"{"op":"pi\qng"}"#, "syntax"),
        // syntax: a \u escape is four hex digits, and a sign is not one;
        // the offset is the first byte after the `u`.
        Case {
            offset_of: Some("+041"),
            ..case(r#"{"op":"\u+041"}"#, "syntax")
        },
        Case {
            offset_of: Some("-041"),
            ..case(r#"{"op":"\u-041"}"#, "syntax")
        },
        // not_an_object at the root.
        case("[1,2,3]", "not_an_object"),
        case(r#""ping""#, "not_an_object"),
        // unknown_op.
        case(r#"{"op":"frobnicate"}"#, "unknown_op"),
        // missing_field, at several depths.
        case(r#"{"no_op":true}"#, "missing_field"),
        case(r#"{"op":"status"}"#, "missing_field"),
        case(r#"{"op":"submit"}"#, "missing_field"),
        field_case(
            r#"{"op":"submit","job":{"preset":"smoke"}}"#,
            "missing_field",
            r#"{"preset"#,
            "job.benches",
        ),
        field_case(
            r#"{"op":"submit","job":{"benches":["D"]}}"#,
            "missing_field",
            r#"{"benches"#,
            "job.archs",
        ),
        field_case(
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke","fault":{"kind":"stall","seed":1,"denominator":1}}}"#,
            "missing_field",
            r#"{"kind"#,
            "job.fault.millis",
        ),
    ];
    // bad_field: the error's offset points at the offending value.
    for (line, offset_of, field) in [
        (
            r#"{"op":"submit","job":{"benches":["D","Q"],"preset":"smoke"}}"#,
            r#""Q""#,
            "job.benches",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(1 1 64 1 8 1)"],"preset":"smoke"}}"#,
            r#""smoke""#,
            "job.preset",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"nope"}}"#,
            r#""nope""#,
            "job.preset",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(0 0 0)"]}}"#,
            r#""(0 0 0)""#,
            "job.archs",
        ),
        // Malformed fused-extension sets: unknown name, duplicate name,
        // and a trailing token without the `+` sigil. Each is rejected
        // at admission with the offset of the offending spec string.
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1 +fma)"]}}"#,
            r#""(4 2 128 2 4 1 +fma)""#,
            "job.archs",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1 +madd+madd)"]}}"#,
            r#""(4 2 128 2 4 1 +madd+madd)""#,
            "job.archs",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"archs":["(4 2 128 2 4 1 madd)"]}}"#,
            r#""(4 2 128 2 4 1 madd)""#,
            "job.archs",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke","threads":0}}"#,
            "0}",
            "job.threads",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke","deadline_ms":0}}"#,
            "0}",
            "job.deadline_ms",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke","max_cost":-1}}"#,
            "-1}",
            "job.max_cost",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke","reuse":"yes"}}"#,
            r#""yes""#,
            "job.reuse",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke","frobs":1}}"#,
            r#""frobs""#,
            "job.frobs",
        ),
        (
            r#"{"op":"submit","job":{"benches":["D"],"preset":"smoke","fault":{"kind":"drop","seed":1,"denominator":1}}}"#,
            r#""drop""#,
            "job.fault.kind",
        ),
        (r#"{"op":"result","id":7}"#, "7}", "id"),
        (
            r#"{"op":"result","id":"job-000000","wait":"no"}"#,
            r#""no""#,
            "wait",
        ),
    ] {
        cases.push(field_case(line, "bad_field", offset_of, field));
    }
    cases
}

#[test]
fn every_rejection_variant_round_trips_over_a_live_socket() {
    let dir = state_dir("protocol");
    let server = Server::start(ServeConfig::new(&dir)).expect("start daemon");
    let mut client = Client::connect(server.addr());

    for case in cases() {
        let response = client.request_raw(&case.line);
        let v = json::parse(&response)
            .unwrap_or_else(|e| panic!("unparseable rejection {response:?}: {e:?}"));
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "{response}"
        );
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{response}"
        );
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some(case.kind),
            "for request {}: {response}",
            case.line
        );

        // The wire carries exactly the rejection the parser built.
        let built = parse_request(&case.line).expect_err("a rejection case");
        assert_eq!(built.kind(), case.kind);
        assert_eq!(response, built.to_json(), "for request {}", case.line);

        // The offset names a byte of the offending line the client can
        // check for itself.
        if let Some(token) = case.offset_of {
            let expected = case
                .line
                .find(token)
                .unwrap_or_else(|| panic!("token {token:?} not in {}", case.line));
            let offset = v
                .get("offset")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("no offset in {response}"));
            assert_eq!(
                offset as usize, expected,
                "offset should point at {token:?} in {}",
                case.line
            );
        }
        if let Some(field) = case.field {
            assert_eq!(
                v.get("field").and_then(Json::as_str),
                Some(field),
                "{response}"
            );
        }
    }

    // The connection survived every rejection: a good request still works.
    let pong = client.request(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extension-bearing architecture specs are first-class at the protocol
/// boundary: a submit naming them parses, and the canonical journal
/// line ([`JobSpec::submit_line`]) is a fixed point that preserves the
/// extension suffix — restart recovery re-creates the extended job bit
/// for bit.
#[test]
fn extended_specs_round_trip_through_the_canonical_line() {
    use custom_fit::machine::ExtSet;
    use custom_fit::serve::proto::Request;

    let line = r#"{"op":"submit","job":{"benches":["F"],"archs":["(8 4 256 2 4 1 +madd)","(8 4 256 2 4 1 +madd+minmax+addshr)","(8 4 256 2 4 1)"]}}"#;
    let Request::Submit(job) = parse_request(line).expect("parses") else {
        panic!("not a submit")
    };
    assert_eq!(job.archs.len(), 3);
    assert_eq!(job.archs[0].exts, ExtSet::MULADD);
    assert_eq!(job.archs[1].exts, ExtSet::ALL);
    assert!(job.archs[2].exts.is_empty());

    let canon = job.submit_line();
    assert!(
        canon.contains("+madd+minmax+addshr"),
        "suffix survives: {canon}"
    );
    let Request::Submit(again) = parse_request(&canon).expect("re-parses") else {
        panic!("canonical not a submit")
    };
    assert_eq!(*job, *again);
    assert_eq!(
        again.submit_line(),
        canon,
        "canonical form is a fixed point"
    );

    // The rejection for a malformed set names the unknown extension, so
    // the client knows which names the daemon accepts.
    let err = parse_request(
        r#"{"op":"submit","job":{"benches":["F"],"archs":["(8 4 256 2 4 1 +simd)"]}}"#,
    )
    .expect_err("unknown extension admitted");
    let text = err.to_string();
    assert!(text.contains("simd"), "{text}");
    assert!(text.contains("madd"), "accepted names listed: {text}");
}

/// A `Display` for every rejection leads with the byte offset, the way
/// the CSV layer's errors lead with the line number.
#[test]
fn rejection_display_names_the_byte() {
    let err = parse_request(r#"{"op":"status"}"#).expect_err("status without id must be rejected");
    let text = err.to_string();
    assert!(text.starts_with("byte "), "{text}");
    assert!(text.contains("id"), "{text}");
}

/// A client streaming one endless line is rejected and cut off: the
/// daemon holds at most `MAX_LINE + 1` bytes of a line and reads on
/// only as much again looking for its end, so the `too_long` rejection
/// and the close come long before the client has written 16 MiB.
#[test]
fn an_endless_line_is_rejected_and_cut_off() {
    use std::io::{BufRead, BufReader, Write};
    let dir = state_dir("endless");
    let server = Server::start(ServeConfig::new(&dir)).expect("start daemon");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let (total, chunk) = (16 << 20, vec![b'x'; 64 << 10]);
    let mut written = 0;
    while written < total {
        match stream.write(&chunk) {
            Ok(n) => written += n,
            Err(_) => break,
        }
    }
    assert!(written < total, "the daemon took all {written} bytes");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("the rejection");
    let v = json::parse(line.trim_end()).unwrap_or_else(|e| panic!("{line:?}: {e:?}"));
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("too_long"));
    line.clear();
    assert!(
        matches!(reader.read_line(&mut line), Ok(0) | Err(_)),
        "the connection is closed, not {line:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
