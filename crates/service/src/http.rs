//! A deliberately minimal HTTP/1.1 server: `std::net` + a fixed thread
//! pool, one request per connection, JSON bodies only.
//!
//! The workspace vendors every dependency, and a release frontend needs a
//! tiny, auditable slice of HTTP — not an async runtime. This module
//! implements exactly that slice: parse one request (method, path,
//! `Content-Length`-delimited body) off a connection, hand it to a
//! router, write one response, close. Connections are distributed over a
//! fixed pool of worker threads; the accept loop runs on its own thread
//! and shuts down cooperatively.
//!
//! Hard limits keep a malicious or broken client from tying up a worker:
//! the request line and headers together are capped at
//! [`MAX_HEAD_BYTES`] (every head line is read through a bounded
//! [`Read::take`], so an endless line is cut off at the cap, not
//! buffered), bodies at [`MAX_BODY_BYTES`], and every socket read
//! carries a timeout.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum accepted size of the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request-body size, in bytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Per-read socket timeout: a stalled client costs a worker at most this.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// The raw query string (everything after `?`, empty when absent).
    pub query: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// The value of query parameter `name`, if present.
    ///
    /// Parameters are split on `&` and `=` without percent-decoding —
    /// the routing surface only uses plain ASCII tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// One HTTP response: a status code, a content type, and a body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A response with `status` and a pre-serialized JSON `body`.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A response with `status`, an explicit `content_type`, and a plain
    /// text `body` (used by the OpenMetrics exposition).
    pub fn text(status: u16, content_type: &'static str, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type,
            body: body.into(),
        }
    }

    /// An error response: `{"error": <message>}` with `status`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::to_string(&serde::Value::Map(vec![(
            "error".to_string(),
            serde::Value::Str(message.to_string()),
        )]))
        .expect("error body serialization is infallible");
        Self {
            status,
            content_type: "application/json",
            body,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        423 => "Locked",
        _ => "Internal Server Error",
    }
}

/// Read one head line (the request line or a header, newline included)
/// through [`Read::take`], capped at what is left of the
/// [`MAX_HEAD_BYTES`] budget: a line that reaches the cap without its
/// newline is refused with 413 before another byte is buffered. A line
/// cut short by the client closing is returned as read.
fn read_head_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, Response> {
    let remaining = MAX_HEAD_BYTES - *head_bytes;
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(remaining as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| Response::error(400, &format!("unreadable request head: {e}")))?;
    if line.len() == remaining && !line.ends_with(b"\n") {
        return Err(Response::error(413, "request head too large"));
    }
    *head_bytes += line.len();
    String::from_utf8(line).map_err(|_| Response::error(400, "request head is not UTF-8"))
}

/// Read and parse one request off `stream`. Errors are protocol-level
/// (malformed request line, oversized head/body, timeout) and map to a
/// 400/413 response by the caller.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0usize;
    let line = read_head_line(&mut reader, &mut head_bytes)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| Response::error(400, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| Response::error(400, "request line has no path"))?;
    // The query string is split off the path; routes that care (the
    // metrics exposition format switch) read it from `Request::query`.
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader, &mut head_bytes)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "unparseable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(413, "request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| Response::error(400, &format!("truncated body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    // A peer that hung up mid-response is its own problem; the server
    // must not die for it.
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(response.body.as_bytes()))
        .and_then(|_| stream.flush());
}

/// The router signature: pure request → response.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server: an accept thread feeding a fixed worker pool.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `handler` on `threads` pool workers until [`shutdown`](Self::shutdown).
    pub fn serve(addr: &str, threads: usize, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only for the handoff, not for
                    // the (potentially slow) connection handling.
                    let stream = rx.lock().expect("pool receiver poisoned").recv();
                    match stream {
                        Ok(mut stream) => {
                            let response = match read_request(&mut stream) {
                                Ok(request) => handler(&request),
                                Err(error_response) => error_response,
                            };
                            write_response(&mut stream, &response);
                        }
                        // Sender dropped: the accept loop exited.
                        Err(_) => break,
                    }
                })
            })
            .collect();
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // A send can only fail after shutdown started.
                        let _ = tx.send(stream);
                    }
                }
                // `tx` drops here, draining the pool after queued
                // connections are served.
            })
        };
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, serve everything already queued, and join every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A client streaming an endless request line is answered 413 as
    /// soon as the head budget is spent — not after the read timeout,
    /// and without buffering past the cap.
    #[test]
    fn endless_request_line_is_refused_at_the_head_cap() {
        let handler: Handler = Arc::new(|_: &Request| Response::json(200, "{}"));
        let mut server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.set_read_timeout(Some(READ_TIMEOUT * 2)).unwrap();
        let started = Instant::now();
        // No newline, and the socket stays open: only the cap can end
        // the read.
        client.write_all(&vec![b'a'; MAX_HEAD_BYTES + 1]).unwrap();
        let mut response = Vec::new();
        let _ = client.read_to_end(&mut response);
        let elapsed = started.elapsed();
        let response = String::from_utf8_lossy(&response);
        assert!(
            response.starts_with("HTTP/1.1 413 "),
            "unexpected response: {response:?}"
        );
        assert!(
            elapsed < READ_TIMEOUT / 2,
            "refusal took {elapsed:?}, the read timeout is {READ_TIMEOUT:?}"
        );
        drop(client);
        server.shutdown();
    }

    /// A head that fits the budget exactly is still served.
    #[test]
    fn head_of_exactly_the_cap_is_served() {
        let handler: Handler =
            Arc::new(|request: &Request| Response::json(200, request.path.clone()));
        let mut server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let head = |pad: usize| {
            let prefix = "GET /ok HTTP/1.1\r\nX-Pad: ";
            format!("{prefix}{}\r\n\r\n", "p".repeat(pad - prefix.len() - 4))
        };
        for (size, status) in [(MAX_HEAD_BYTES, "200"), (MAX_HEAD_BYTES + 1, "413")] {
            let request = head(size);
            assert_eq!(request.len(), size);
            let mut client = TcpStream::connect(server.addr()).unwrap();
            client.write_all(request.as_bytes()).unwrap();
            let mut response = String::new();
            let _ = client.read_to_string(&mut response);
            assert!(
                response.starts_with(&format!("HTTP/1.1 {status} ")),
                "head of {size} bytes: {response:?}"
            );
        }
        server.shutdown();
    }
}
