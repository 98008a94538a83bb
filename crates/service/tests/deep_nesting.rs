//! A request body nested past the JSON parser's depth limit is answered
//! 400, and the service keeps serving. Parsing such a body with unbounded
//! recursion overflows an HTTP thread's stack, which aborts the whole
//! process, so this test has a binary of its own.

use eree_core::definitions::PrivacyParams;
use eree_service::{ReleaseService, ServiceConfig};
use lodes::{Generator, GeneratorConfig};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One raw exchange: `head` (a request line and headers, without the
/// blank line), `Content-Length` and `body`, answered in full (the server
/// closes each connection after its response).
fn exchange(addr: SocketAddr, head: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(
        stream,
        "{head}\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request sent");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    response
}

#[test]
fn deeply_nested_body_is_refused_and_the_service_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("eree-service-nesting-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let dataset = Generator::new(GeneratorConfig::test_small(55)).generate();
    let cap = PrivacyParams::pure(0.1, 1.0);
    let service =
        ReleaseService::start(&dir, dataset, ServiceConfig::new(cap)).expect("service starts");

    let body = "[".repeat(200_000);
    let response = exchange(service.addr(), "POST /seasons HTTP/1.1", &body);
    assert!(
        response.starts_with("HTTP/1.1 400 "),
        "unexpected response: {response}"
    );
    let audit = exchange(service.addr(), "GET /audit HTTP/1.1", "");
    assert!(
        audit.starts_with("HTTP/1.1 200 "),
        "unexpected response: {audit}"
    );

    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
