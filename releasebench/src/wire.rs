//! A timed HTTP/1.1 client for the service's loopback API.
//!
//! One connection per request (the server closes after each response).
//! A call is timed from the first byte written to the last byte read;
//! nothing is deserialized inside that interval. Bodies are inspected
//! afterwards with the byte-level helpers below, which need no full
//! parse of a ≈1 MB artifact.

use eree_core::accountant::ReleaseCost;
use eree_service::SubmitReceipt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
    /// When the first request byte was written.
    pub sent: Instant,
    /// When the last response byte was read.
    pub done: Instant,
}

impl Reply {
    /// Send-to-last-byte time.
    pub fn elapsed(&self) -> Duration {
        self.done - self.sent
    }
}

/// A request serialized once, ready to be sent any number of times.
#[derive(Debug, Clone)]
pub struct Request(Vec<u8>);

impl Request {
    /// `GET path`.
    pub fn get(path: &str) -> Self {
        Self::new("GET", path, "")
    }

    /// `POST path` with a JSON `body`.
    pub fn post(path: &str, body: &str) -> Self {
        Self::new("POST", path, body)
    }

    fn new(method: &str, path: &str, body: &str) -> Self {
        Request(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
        )
    }

    /// Send on a fresh connection and read the whole response.
    pub fn send(&self, addr: SocketAddr) -> std::io::Result<Reply> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut raw = Vec::with_capacity(4096);
        let sent = Instant::now();
        stream.write_all(&self.0)?;
        stream.read_to_end(&mut raw)?;
        let done = Instant::now();
        let split = find(&raw, b"\r\n\r\n").ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response has no header end",
            )
        })?;
        let status = std::str::from_utf8(&raw[..split])
            .ok()
            .and_then(|head| head.split_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable status line")
            })?;
        raw.drain(..split + 4);
        Ok(Reply {
            status,
            body: raw,
            sent,
            done,
        })
    }
}

/// Position of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The `"status"` field of a release view or receipt. Both put it ahead
/// of the artifact, so only the head of the body is searched.
pub fn status_field(body: &[u8]) -> Option<&str> {
    let head = &body[..body.len().min(512)];
    let key = b"\"status\":\"";
    let start = find(head, key)? + key.len();
    let len = find(&head[start..], b"\"")?;
    std::str::from_utf8(&head[start..start + len]).ok()
}

/// The artifact of a release view, as the exact bytes the service
/// serialized. The view's `artifact` field comes last, so it runs from
/// the first `"artifact":` to the closing brace.
pub fn artifact_bytes(body: &[u8]) -> Option<&[u8]> {
    let key = b"\"artifact\":";
    let start = find(body, key)? + key.len();
    let end = body.len().checked_sub(1)?;
    let artifact = body.get(start..end)?;
    (artifact.first() == Some(&b'{') && body[end] == b'}').then_some(artifact)
}

/// FNV-1a over `bytes`: the digest the public cache records for an
/// artifact's canonical JSON (`ReleaseCache::artifact_digest`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The `cost` object of an artifact. It precedes the payload, so only
/// the artifact's head is searched.
pub fn artifact_cost(artifact: &[u8]) -> Option<ReleaseCost> {
    let key = b"\"cost\":";
    let head = &artifact[..artifact.len().min(16 * 1024)];
    let start = find(head, key)? + key.len();
    let len = find(&head[start..], b"}")? + 1;
    let json = std::str::from_utf8(&head[start..start + len]).ok()?;
    serde_json::from_str(json).ok()
}

/// A submit receipt (a small body).
pub fn receipt(body: &[u8]) -> Option<SubmitReceipt> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_helpers_read_a_release_view() {
        let body = br#"{"id":7,"season":"s0","status":"complete","cached":false,"error":null,"artifact":{"request":{},"cost":{"epsilon":8.0,"delta":0.0,"per_cell_epsilon":1.0,"multiplier":1},"payload":{"Cells":[]}}}"#;
        assert_eq!(status_field(body), Some("complete"));
        let artifact = artifact_bytes(body).expect("artifact present");
        assert!(artifact.starts_with(b"{\"request\""));
        assert!(artifact.ends_with(b"[]}}"));
        let cost = artifact_cost(artifact).expect("cost present");
        assert_eq!(cost.epsilon, 8.0);
        assert_eq!(cost.multiplier, 1);
        let queued = br#"{"id":7,"season":"s0","status":"queued","cached":false,"error":null,"artifact":null}"#;
        assert_eq!(status_field(queued), Some("queued"));
        assert_eq!(artifact_bytes(queued), None);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
