//! Answer checking: every response is compared bit for bit with an
//! expected answer computed outside the timed phase.

use didt_serve::{Response, ResponsePayload};
use didt_telemetry::Json;

/// Structural equality with numbers compared by `to_bits()`. Object keys
/// listed in `ignore` are skipped at the top level only (session ids,
/// which the router rewrites).
#[must_use]
pub fn json_bits_eq(a: &Json, b: &Json, ignore: &[&str]) -> bool {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => {
            let keep = |p: &&(String, Json)| !ignore.contains(&p.0.as_str());
            let x: Vec<_> = x.iter().filter(keep).collect();
            let y: Vec<_> = y.iter().filter(keep).collect();
            x.len() == y.len()
                && x.iter()
                    .zip(&y)
                    .all(|(p, q)| p.0 == q.0 && json_bits_eq(&p.1, &q.1, &[]))
        }
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| json_bits_eq(p, q, &[]))
        }
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Whether `got` is the expected successful answer: status `ok`, the
/// same kind, and a bit-identical result (top-level `ignore` keys
/// excepted). Errors and `Rejected` responses never match.
#[must_use]
pub fn response_matches(got: &Response, want: &Response, ignore: &[&str]) -> bool {
    match (&got.payload, &want.payload) {
        (
            ResponsePayload::Ok { kind, result },
            ResponsePayload::Ok {
                kind: want_kind,
                result: want_result,
            },
        ) => kind == want_kind && json_bits_eq(result, want_result, ignore),
        _ => false,
    }
}

/// The session id in an `ok` session response.
#[must_use]
pub fn session_id(resp: &Response) -> Option<u64> {
    match &resp.payload {
        ResponsePayload::Ok { result, .. } => result.get("session").and_then(Json::as_u64),
        _ => None,
    }
}

/// FNV-1a of a string (golden fingerprints).
#[must_use]
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_distinguish_signed_zero_and_ignore_top_level_keys() {
        let a = Json::obj(vec![("session", Json::num(1.0)), ("v", Json::num(0.0))]);
        let b = Json::obj(vec![("session", Json::num(9.0)), ("v", Json::num(-0.0))]);
        assert!(!json_bits_eq(&a, &b, &["session"]));
        let c = Json::obj(vec![("session", Json::num(9.0)), ("v", Json::num(0.0))]);
        assert!(json_bits_eq(&a, &c, &["session"]));
        assert!(!json_bits_eq(&a, &c, &[]));
    }
}
