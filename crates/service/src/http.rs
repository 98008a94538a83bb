//! A deliberately minimal HTTP/1.1 server: `std::net` + a fixed thread
//! pool, one request per connection, JSON bodies only.
//!
//! The workspace vendors every dependency, and a release frontend needs a
//! tiny, auditable slice of HTTP — not an async runtime. This module
//! implements exactly that slice: parse one request (method, path,
//! `Content-Length`-delimited body) off a connection, hand it to a
//! router, write one response, close. A fixed pool of worker threads
//! each accept their own connections off the one listener, so the
//! server holds no queue of its own: a connection no worker has taken
//! yet waits in the kernel's listen backlog. Shutdown is cooperative:
//! each worker leaves at its next accept.
//!
//! Hard limits keep a malicious or broken client from tying up a worker:
//! the request line and headers together are capped at
//! [`MAX_HEAD_BYTES`] (every head line is read through a bounded
//! [`Read::take`], so an endless line is cut off at the cap, not
//! buffered), bodies at [`MAX_BODY_BYTES`], the whole request must
//! arrive within one deadline (a client trickling bytes is answered 408
//! when it passes), and the whole response must be written within
//! another (a client that stops reading its response is dropped). A
//! request is routed only once its head has ended with a blank line and
//! its whole body has arrived: a connection that closes early is
//! answered 400, never handled.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum accepted size of the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request-body size, in bytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Whole-request deadline, counted from the first read: a stalled or
/// trickling client costs a worker at most this.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Whole-response write deadline, counted from the first write: a client
/// that stops reading its response costs a worker at most this. (A
/// timeout per write call is not enough: each partial write restarts it,
/// so a stalled reader held a worker for several timeouts.)
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

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
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        423 => "Locked",
        _ => "Internal Server Error",
    }
}

/// A socket under one deadline: every read or write re-arms the
/// socket's timeout with the time left, so no pattern of slow reads (a
/// trickling client) or partial writes (a client that stops reading) can
/// stretch a request or a response past the deadline.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl<'a> Deadline<'a> {
    fn after(stream: &'a TcpStream, timeout: Duration) -> Self {
        Self {
            stream,
            at: Instant::now() + timeout,
        }
    }

    /// The time left, or a `TimedOut` error once the deadline passed.
    fn left(&self) -> io::Result<Duration> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// The response to a failed read: 408 once the request deadline passed
/// (a socket timeout reads as `WouldBlock` on Unix, `TimedOut`
/// elsewhere), 400 for anything else.
fn read_error(error: io::Error, what: &str) -> Response {
    match error.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            Response::error(408, "request not received before the deadline")
        }
        _ => Response::error(400, &format!("{what}: {error}")),
    }
}

/// Read one head line (the request line or a header, newline included)
/// through [`Read::take`], capped at what is left of the
/// [`MAX_HEAD_BYTES`] budget: a line that reaches the cap without its
/// newline is refused with 413 before another byte is buffered, and a
/// line cut short by the end of the stream with 400.
fn read_head_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, Response> {
    let remaining = MAX_HEAD_BYTES - *head_bytes;
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(remaining as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| read_error(e, "unreadable request head"))?;
    if !line.ends_with(b"\n") {
        return Err(if line.len() == remaining {
            Response::error(413, "request head too large")
        } else {
            Response::error(400, "request head cut short")
        });
    }
    *head_bytes += line.len();
    String::from_utf8(line).map_err(|_| Response::error(400, "request head is not UTF-8"))
}

/// Read one request off `stream` within [`READ_TIMEOUT`] of the first
/// read.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    parse_request(&mut BufReader::new(Deadline::after(stream, READ_TIMEOUT)))
}

/// Parse one request off `reader`: the request line, headers up to a
/// blank line, then exactly `Content-Length` body bytes. Reads at most
/// [`MAX_HEAD_BYTES`] of head and [`MAX_BODY_BYTES`] of body through the
/// buffer. An error is the response to send instead: 400 for a malformed
/// or cut-short request, 413 for a head or declared body over its cap,
/// 408 once a socket deadline passed.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, Response> {
    let mut head_bytes = 0usize;
    let line = read_head_line(reader, &mut head_bytes)?;
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
        let header = read_head_line(reader, &mut head_bytes)?;
        if header == "\r\n" || header == "\n" {
            break;
        }
        if let Some((name, value)) = header.trim_end().split_once(':') {
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
        .map_err(|e| read_error(e, "truncated body"))?;
    let body = String::from_utf8(body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Write `response` to `stream` within [`WRITE_TIMEOUT`].
fn write_response(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    // A peer that hung up or stopped reading mid-response is its own
    // problem; the server must not die (or wait) for it.
    let mut out = Deadline::after(stream, WRITE_TIMEOUT);
    let _ = out
        .write_all(head.as_bytes())
        .and_then(|_| out.write_all(response.body.as_bytes()))
        .and_then(|_| out.flush());
}

/// The router signature: pure request → response.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// How long [`HttpServer::shutdown`] waits on each wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A running HTTP server: a fixed pool of threads, each accepting and
/// serving its own connections.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `handler` on `threads` pool workers until [`shutdown`](Self::shutdown).
    pub fn serve(addr: &str, threads: usize, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Every handle exists before any thread starts, so a failed clone
        // leaves no thread behind holding the port.
        let listeners = (0..threads.max(1))
            .map(|_| listener.try_clone())
            .collect::<io::Result<Vec<_>>>()?;
        let workers = listeners
            .into_iter()
            .map(|listener| {
                let (stop, handler) = (Arc::clone(&stop), Arc::clone(&handler));
                std::thread::spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(mut stream) = stream {
                            let response = match read_request(&mut stream) {
                                Ok(request) => handler(&request),
                                Err(error_response) => error_response,
                            };
                            write_response(&mut stream, &response);
                        }
                    }
                })
            })
            .collect();
        Ok(Self {
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let each worker finish the connection it is
    /// serving, and join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Each worker leaves at its next accept: one throwaway connection
        // per worker wakes it.
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
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

    /// A client trickling one byte a second never finishes its request
    /// line; the whole-request deadline answers it 408 (or closes) once
    /// the deadline passes, instead of each byte re-arming a fresh
    /// timeout.
    #[test]
    fn trickling_client_is_cut_off_at_the_request_deadline() {
        let handler: Handler = Arc::new(|_: &Request| Response::json(200, "{}"));
        let mut server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        let grace = Duration::from_secs(5);
        client.set_read_timeout(Some(READ_TIMEOUT + grace)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let (mut writer, stop) = (client.try_clone().unwrap(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let request = b"GET /never-finished-path HTTP/1.1\r\n";
                for byte in request.iter().cycle().take(60) {
                    if stop.load(Ordering::SeqCst) || writer.write_all(&[*byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_secs(1));
                }
            })
        };
        let started = Instant::now();
        let mut response = Vec::new();
        let outcome = client.read_to_end(&mut response);
        let elapsed = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        trickle.join().unwrap();
        let client_gave_up = matches!(
            &outcome,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        );
        assert!(
            !client_gave_up && elapsed < READ_TIMEOUT + grace,
            "trickling client held the worker for {elapsed:?} ({outcome:?})"
        );
        let response = String::from_utf8_lossy(&response);
        assert!(
            response.is_empty() || response.starts_with("HTTP/1.1 408 "),
            "unexpected response: {response:?}"
        );
        server.shutdown();
    }

    /// With one pool worker, a client that requests a large response and
    /// never reads it does not block the next client past the write
    /// timeout.
    #[test]
    fn client_that_never_reads_does_not_block_the_pool() {
        // Far more than the socket buffers absorb: a send buffer
        // autotunes to at most a few MiB, and a receive buffer the
        // client never drains does not grow.
        let big = Arc::new("x".repeat(32 << 20));
        let handler: Handler = Arc::new(move |request: &Request| match request.path.as_str() {
            "/big" => Response::text(200, "text/plain", big.as_str()),
            _ => Response::json(200, "{}"),
        });
        let mut server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        stalled.write_all(b"GET /big HTTP/1.1\r\n\r\n").unwrap();

        let grace = Duration::from_secs(5);
        let started = Instant::now();
        let mut next = TcpStream::connect(server.addr()).unwrap();
        next.set_read_timeout(Some(WRITE_TIMEOUT + grace)).unwrap();
        next.write_all(b"GET /small HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        let outcome = next.read_to_string(&mut response);
        let elapsed = started.elapsed();
        assert!(
            response.starts_with("HTTP/1.1 200 "),
            "second client not answered within {elapsed:?} ({outcome:?}): {response:?}"
        );
        assert!(
            elapsed < WRITE_TIMEOUT + grace,
            "answered after {elapsed:?}"
        );
        drop(stalled);
        server.shutdown();
    }

    /// Two workers answer eight concurrent clients: while both workers
    /// are held in the handler, the six clients no worker has taken yet
    /// wait in the listen backlog. Then shutdown returns at once.
    #[test]
    fn four_times_more_concurrent_clients_than_workers_are_all_answered() {
        let threads = 2;
        let clients = 4 * threads;
        // The handler waits on the gate, which stays closed until every
        // client has connected and sent its request.
        let gate = Arc::new(std::sync::RwLock::new(()));
        let closed = gate.write().unwrap();
        let handler: Handler = {
            let gate = Arc::clone(&gate);
            Arc::new(move |request: &Request| {
                let _open = gate.read().unwrap();
                Response::json(200, request.path.clone())
            })
        };
        let mut server = HttpServer::serve("127.0.0.1:0", threads, handler).unwrap();
        let (addr, sent) = (
            server.addr(),
            Arc::new(std::sync::Barrier::new(clients + 1)),
        );
        let clients: Vec<_> = (0..clients)
            .map(|i| {
                let sent = Arc::clone(&sent);
                std::thread::spawn(move || {
                    let mut client = TcpStream::connect(addr).unwrap();
                    client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                    let request = format!("GET /client-{i} HTTP/1.1\r\n\r\n");
                    client.write_all(request.as_bytes()).unwrap();
                    sent.wait();
                    let mut response = String::new();
                    let _ = client.read_to_string(&mut response);
                    response
                })
            })
            .collect();
        sent.wait();
        drop(closed);
        for (i, client) in clients.into_iter().enumerate() {
            let response = client.join().unwrap();
            assert!(
                response.starts_with("HTTP/1.1 200 ")
                    && response.ends_with(&format!("/client-{i}")),
                "client {i}: {response:?}"
            );
        }
        let started = Instant::now();
        server.shutdown();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "shutdown took {elapsed:?}"
        );
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
