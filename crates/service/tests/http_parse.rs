//! Property and regression tests for the HTTP request parser: whatever
//! bytes arrive, [`parse_request`] answers with a request or a 400/413
//! refusal, reads within its caps, and never hands a cut-short request
//! to the router.

use eree_service::http::{
    parse_request, Handler, HttpServer, Request, Response, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A `GET` whose head, padded with one header, is exactly `size`
/// bytes long.
fn padded_head(size: usize) -> Vec<u8> {
    let prefix = "GET /ok HTTP/1.1\r\nX-Pad: ";
    format!("{prefix}{}\r\n\r\n", "p".repeat(size - prefix.len() - 4)).into_bytes()
}

/// A `POST` declaring `content_length` and carrying `body`.
fn post(content_length: usize, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /seasons/s/releases HTTP/1.1\r\nHost: x\r\nContent-Length: {content_length}\r\n\r\n"
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// A byte source that counts what its reader pulls from it.
struct Counted<'a> {
    bytes: &'a [u8],
    pulled: usize,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (&self.bytes[self.pulled..]).read(buf)?;
        self.pulled += n;
        Ok(n)
    }
}

/// Where the first blank line of `bytes` ends, if it has one.
fn blank_line_end(bytes: &[u8]) -> Option<usize> {
    (1..bytes.len()).find_map(|i| match &bytes[i - 1..] {
        [b'\n', b'\n', ..] => Some(i + 1),
        [b'\n', b'\r', b'\n', ..] => Some(i + 2),
        _ => None,
    })
}

/// The `Content-Length` a head declares: its last parseable such
/// header, or 0.
fn declared_length(head: &[u8]) -> usize {
    String::from_utf8_lossy(head)
        .lines()
        .filter_map(|line| line.split_once(':'))
        .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .filter_map(|(_, value)| value.trim().parse().ok())
        .next_back()
        .unwrap_or(0)
}

/// Request-shaped tokens: concatenated at random they make many
/// short lines, blank lines, and headers.
const TOKENS: [&[u8]; 12] = [
    b"GET",
    b" ",
    b"/",
    b"\r\n",
    b"\n",
    b"Content-Length: ",
    b"3",
    b"17",
    b"abc",
    b"\xff",
    b":",
    b"POST /x HTTP/1.1\r\n",
];

/// What a near-miss input should get.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Anything the general properties allow.
    Any,
    /// A parsed request.
    Served,
    /// A refusal with this status.
    Refused(u16),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_request` over arbitrary bytes and seeded near-miss
    /// requests never panics; refuses only with 400 or 413, and with
    /// 413 when a head or `Content-Length` passes its cap; accepts
    /// only a head ended by a blank line followed by exactly
    /// `Content-Length` body bytes; and pulls at most the head cap
    /// plus the capped body plus one read buffer from the stream.
    #[test]
    fn parse_request_refuses_cleanly_and_reads_within_its_caps(
        kind in 0u8..7,
        delta in 0usize..5,
        cut in any::<usize>(),
        noise in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let body: Vec<u8> = noise.iter().map(|b| b'a' + b % 26).collect();
        let (input, expect) = match kind {
            // Arbitrary bytes.
            0 => (noise.clone(), Expect::Any),
            // Arbitrary request-shaped tokens.
            1 => (
                noise.iter().flat_map(|&b| TOKENS[b as usize % TOKENS.len()]).copied().collect(),
                Expect::Any,
            ),
            // A head within two bytes of MAX_HEAD_BYTES.
            2 => {
                let size = MAX_HEAD_BYTES - 2 + delta;
                let expect = if size > MAX_HEAD_BYTES { Expect::Refused(413) } else { Expect::Served };
                (padded_head(size), expect)
            }
            // A Content-Length within two bytes of MAX_BODY_BYTES.
            3 => {
                let length = MAX_BODY_BYTES - 2 + delta;
                if length > MAX_BODY_BYTES {
                    (post(length, b""), Expect::Refused(413))
                } else {
                    (post(length, &vec![b'b'; length]), Expect::Served)
                }
            }
            // A well-formed request cut short anywhere: a head line
            // without its newline, a missing blank line, a short body.
            4 => {
                let whole = post(body.len(), &body);
                (whole[..cut % whole.len()].to_vec(), Expect::Refused(400))
            }
            // A body shorter than its Content-Length.
            5 => (post(body.len() + 1 + delta, &body), Expect::Refused(400)),
            // One byte that is not UTF-8, anywhere in the request.
            _ => {
                let mut bytes = post(body.len(), &body);
                let at = cut % bytes.len();
                bytes[at] = 0x80 | noise.first().copied().unwrap_or(0);
                (bytes, Expect::Refused(400))
            }
        };

        let mut reader = BufReader::new(Counted { bytes: &input, pulled: 0 });
        let result = parse_request(&mut reader);
        let pulled = reader.get_ref().pulled;
        let consumed = pulled - reader.buffer().len();
        let head_region = &input[..blank_line_end(&input).unwrap_or(input.len())];
        let bound =
            MAX_HEAD_BYTES + declared_length(head_region).min(MAX_BODY_BYTES) + reader.capacity();
        prop_assert!(pulled <= bound, "pulled {pulled} bytes, bound {bound}");
        match (&result, expect) {
            (Ok(request), Expect::Any | Expect::Served) => {
                let head = &input[..consumed - request.body.len()];
                prop_assert_eq!(Some(head.len()), blank_line_end(&input));
                prop_assert!(head.len() <= MAX_HEAD_BYTES);
                prop_assert_eq!(request.body.len(), declared_length(head));
                prop_assert_eq!(request.body.as_bytes(), &input[head.len()..consumed]);
            }
            (Err(response), Expect::Any) => {
                prop_assert!(matches!(response.status, 400 | 413), "status {}", response.status);
            }
            (Err(response), Expect::Refused(status)) => prop_assert_eq!(response.status, status),
            (outcome, expect) => {
                return Err(TestCaseError::fail(format!("expected {expect:?}, got {outcome:?}")));
            }
        }
    }
}

/// A head cut short by the client closing its write half is answered
/// 400 and never reaches the router: a dropped connection must not
/// close a season.
#[test]
fn head_cut_short_by_eof_is_refused_not_routed() {
    let routed = Arc::new(AtomicBool::new(false));
    let handler: Handler = {
        let routed = Arc::clone(&routed);
        Arc::new(move |_: &Request| {
            routed.store(true, Ordering::SeqCst);
            Response::json(200, "{}")
        })
    };
    let mut server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
    let mut client = TcpStream::connect(server.addr()).unwrap();
    client
        .write_all(b"POST /seasons/s/close HTTP/1.1\r\nHost: x")
        .unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    let _ = client.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 400 "),
        "unexpected response: {response:?}"
    );
    server.shutdown();
    assert!(
        !routed.load(Ordering::SeqCst),
        "a cut-short request was routed"
    );
}
