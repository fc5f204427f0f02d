//! A minimal std-only HTTP/1.1 server.
//!
//! The shims-only policy rules out hyper/axum; the serve plane needs
//! exactly one thing — answering small `GET` requests with small text
//! bodies — so a blocking accept loop on [`TcpListener`] plus one
//! thread per connection covers it.  No thread polls on a timer for
//! work: the accept thread blocks in `accept()`, and each connection
//! thread blocks in `read()` on its own socket.
//!
//! Connections are HTTP/1.1 keep-alive: a connection thread loops read
//! head → dispatch → write until the client closes, asks to close
//! (`Connection: close`, or HTTP/1.0 without `keep-alive`), sends a
//! body, or goes idle for [`IDLE_TIMEOUT`].  Bytes read past a head's
//! blank line are the next (pipelined) request and are kept.
//!
//! Sockets and query slots are separate budgets.  An idle kept-alive
//! connection costs a parked thread and nothing else; the `workers`
//! count of [`HttpServer::bind_pooled`] (`--query-threads`) bounds how
//! many *handlers* run at once, so a slow query (a sampled betweenness
//! run can take tens of milliseconds) holds one slot while `/metrics`
//! scrapes and `/healthz` probes take the others.  Live connections are
//! capped at [`MAX_CONNECTIONS`]; past the cap the accept thread sheds
//! with a canned `503`.  A panicking handler becomes a `500`.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use graphct_trace::Counter;

/// How long a kept-alive connection may sit between requests before the
/// server closes it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-read timeout once a request head has started arriving, and the
/// write timeout for replies.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest request head accepted; a longer one gets `431`.
const MAX_HEAD: usize = 8192;
/// Live connections above which new ones are shed with `503`.
pub const MAX_CONNECTIONS: usize = 256;

/// Connections refused at the [`MAX_CONNECTIONS`] cap.
static HTTP_SHED: Counter = Counter::new(
    "http_shed_total",
    "Connections refused with 503 because the live-connection cap was reached",
);
/// Handler panics answered with `500`.
static HTTP_HANDLER_PANICS: Counter = Counter::new(
    "http_handler_panics_total",
    "Route handlers that panicked; each was answered with a 500",
);

/// Touch the transport counters so they appear in the first `/metrics`
/// scrape.  Must run inside an active session.
pub(crate) fn register_http_metrics() {
    HTTP_SHED.add(0);
    HTTP_HANDLER_PANICS.add(0);
}

/// The canned reply for a connection over the cap.
const SHED_REPLY: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
Content-Type: text/plain; charset=utf-8\r\nContent-Length: 12\r\n\
Retry-After: 1\r\nConnection: close\r\n\r\nserver busy\n";

/// An HTTP response the route handler produces.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A plaintext response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// The Prometheus text exposition content type.
    pub fn metrics(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
        }
    }

    /// A `404 Not Found` response.
    pub fn not_found() -> Self {
        Self::text(404, "not found\n")
    }
}

/// The route handler: request method, path, and raw query string
/// (without the `?`, empty when absent) in, [`Response`] out.  Method
/// handling (405s) lives here — in practice in the
/// [`Router`](crate::router::Router) — not in the transport.
pub type Handler = dyn Fn(&str, &str, &str) -> Response + Send + Sync;

/// A counting semaphore: at most `n` holders of a [`Permit`] at once.
struct Gate {
    free: Mutex<usize>,
    freed: Condvar,
}

struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(n: usize) -> Gate {
        Gate {
            free: Mutex::new(n.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut free = lock(&self.free);
        while *free == 0 {
            free = self
                .freed
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.free) += 1;
        self.0.freed.notify_one();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State the accept thread, the connection threads and `stop` share.
struct Shared {
    handler: Arc<Handler>,
    gate: Gate,
    stop: AtomicBool,
    /// Live connections by id (a `try_clone` of each socket, so `stop`
    /// can wake the threads blocked reading them).
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled whenever a connection closes.
    closed: Condvar,
}

/// A background HTTP server; dropping (or [`stop`](HttpServer::stop)ping)
/// it shuts the accept loop down and joins all threads.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl HttpServer {
    /// Bind `addr` with one query slot (plenty for pure metrics
    /// exporting; `graphct serve` uses [`bind_pooled`](Self::bind_pooled)).
    pub fn bind(addr: &str, handler: Arc<Handler>) -> std::io::Result<HttpServer> {
        Self::bind_pooled(addr, handler, 1)
    }

    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// requests through `handler`, at most `workers` handlers running at
    /// once.  Every accepted connection gets its own thread whether or
    /// not a slot is free; only the handler call waits for one.
    pub fn bind_pooled(
        addr: &str,
        handler: Arc<Handler>,
        workers: usize,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler,
            gate: Gate::new(workers),
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            closed: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("graphct-obs-http".into())
                .spawn(move || {
                    graphct_trace::register_current_thread();
                    accept_loop(&listener, &shared)
                })?
        };
        Ok(HttpServer {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let in-flight handlers write their replies, close
    /// idle connections, and join all threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        {
            // Set under the registry lock: the accept thread registers a
            // connection under the same lock, so it either sees the flag
            // or its connection is in the map swept below.
            let conns = lock(&self.shared.conns);
            self.shared.stop.store(true, Ordering::Release);
            // Wake every connection thread blocked reading: an idle one
            // sees EOF and exits; one inside a handler still writes its
            // reply (marked `Connection: close`) first.
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // Wake the blocking accept with a connection of our own.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, IO_TIMEOUT);
        for thread in accept.join().unwrap_or_default() {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept until stopped; returns the connection threads still running.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.stop.load(Ordering::Acquire) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // Out of descriptors or similar: wait for a connection to
                // close instead of spinning on the same error.
                let conns = lock(&shared.conns);
                let _ = shared
                    .closed
                    .wait_timeout(conns, Duration::from_millis(100));
                continue;
            }
        };
        threads.retain(|t| !t.is_finished());
        let mut conns = lock(&shared.conns);
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        if conns.len() >= MAX_CONNECTIONS {
            drop(conns);
            HTTP_SHED.incr();
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let _ = (&stream).write_all(SHED_REPLY);
            continue;
        }
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let id = next_id;
        next_id += 1;
        let worker = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("graphct-obs-http-conn".into())
            .spawn(move || {
                graphct_trace::register_current_thread();
                serve_connection(stream, &worker);
                lock(&worker.conns).remove(&id);
                worker.closed.notify_all();
            });
        // The new thread deregisters under the lock we still hold, so it
        // cannot remove its entry before this insert.
        if let Ok(thread) = spawned {
            conns.insert(id, clone);
            threads.push(thread);
        }
    }
    threads
}

/// Answer requests on one connection until it closes.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // Replies go out in one write; without NODELAY a kept connection's
    // reply can sit behind the client's delayed ACK.
    if stream.set_nodelay(true).is_err() || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut timeout = None;
    while let Some(end) = fill_head(&mut stream, &mut buf, &mut timeout) {
        let (response, connection) = match parse_request_head(&buf[..end]) {
            Ok(head) => (respond(shared, &head), head.connection()),
            Err(e) => (e.response(), Connection::Close),
        };
        let connection = if shared.stop.load(Ordering::Acquire) {
            Connection::Close
        } else {
            connection
        };
        if write_response(&mut stream, &response, connection).is_err()
            || connection == Connection::Close
        {
            return;
        }
        buf.drain(..end);
    }
}

/// Run the handler for `head` under a query slot; a panic becomes `500`.
fn respond(shared: &Shared, head: &RequestHead<'_>) -> Response {
    // Split the query string off the path (`/profile?format=json`).
    let (path, query) = head.target.split_once('?').unwrap_or((head.target, ""));
    let _permit = shared.gate.acquire();
    catch_unwind(AssertUnwindSafe(|| {
        (shared.handler)(head.method, path, query)
    }))
    .unwrap_or_else(|_| {
        HTTP_HANDLER_PANICS.incr();
        Response::text(500, "internal server error\n")
    })
}

/// Read until `buf` starts with a whole request head and return its
/// length (or, past [`MAX_HEAD`] with no end in sight, everything read,
/// which the parser rejects).  `None` when the peer closed, went idle
/// for [`IDLE_TIMEOUT`], or stalled mid-head for the read timeout.
fn fill_head(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    timeout: &mut Option<Duration>,
) -> Option<usize> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            return Some(at + 4);
        }
        if buf.len() > MAX_HEAD {
            return Some(buf.len());
        }
        let want = Some(if buf.is_empty() {
            IDLE_TIMEOUT
        } else {
            IO_TIMEOUT
        });
        if *timeout != want {
            stream.set_read_timeout(want).ok()?;
            *timeout = want;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// What the reply says about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Connection {
    /// HTTP/1.1's default: kept, no header.
    Keep,
    /// An HTTP/1.0 client asked to keep it: `Connection: keep-alive`.
    KeepAlive,
    /// The server closes after this reply: `Connection: close`.
    Close,
}

/// A parsed request head.
#[derive(Debug, PartialEq, Eq)]
struct RequestHead<'a> {
    method: &'a str,
    target: &'a str,
    /// `1` for HTTP/1.1, `0` for HTTP/1.0.
    minor_version: u8,
    /// A `Connection: close` token.
    close: bool,
    /// A `Connection: keep-alive` token.
    keep_alive: bool,
    /// `Content-Length` > 0 or any `Transfer-Encoding`.
    has_body: bool,
}

impl RequestHead<'_> {
    fn connection(&self) -> Connection {
        // The server reads no bodies, so a request with one ends the
        // connection: its body would otherwise parse as the next head.
        if self.close || self.has_body {
            Connection::Close
        } else if self.minor_version == 1 {
            Connection::Keep
        } else if self.keep_alive {
            Connection::KeepAlive
        } else {
            Connection::Close
        }
    }
}

/// Why a request head was refused.
#[derive(Debug, PartialEq, Eq)]
enum HeadError {
    /// Longer than [`MAX_HEAD`]: `431`.
    TooLarge,
    /// Not a valid HTTP/1.x head: `400`.
    Malformed(&'static str),
}

impl HeadError {
    fn response(&self) -> Response {
        match self {
            HeadError::TooLarge => Response::text(431, "request header fields too large\n"),
            HeadError::Malformed(why) => Response::text(400, format!("bad request: {why}\n")),
        }
    }
}

/// Parse a request head: the request line and header lines up to and
/// including the blank line.  Pure over its input; arbitrary bytes give
/// `Ok` or `Err`, never a panic.
fn parse_request_head(raw: &[u8]) -> Result<RequestHead<'_>, HeadError> {
    if raw.len() > MAX_HEAD {
        return Err(HeadError::TooLarge);
    }
    let text = std::str::from_utf8(raw).map_err(|_| HeadError::Malformed("head is not UTF-8"))?;
    let text = text
        .strip_suffix("\r\n\r\n")
        .ok_or(HeadError::Malformed("head does not end with a blank line"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HeadError::Malformed(
            "request line is not `METHOD TARGET VERSION`",
        ));
    };
    let is_tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    if method.is_empty() || !method.bytes().all(is_tchar) {
        return Err(HeadError::Malformed("invalid method"));
    }
    if target.is_empty() || target.bytes().any(|b| b.is_ascii_control()) {
        return Err(HeadError::Malformed("invalid request target"));
    }
    let minor_version = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        _ => return Err(HeadError::Malformed("unsupported HTTP version")),
    };
    let mut head = RequestHead {
        method,
        target,
        minor_version,
        close: false,
        keep_alive: false,
        has_body: false,
    };
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HeadError::Malformed("header line without a colon"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',').map(str::trim) {
                head.close |= token.eq_ignore_ascii_case("close");
                head.keep_alive |= token.eq_ignore_ascii_case("keep-alive");
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            let len: u64 = value
                .parse()
                .map_err(|_| HeadError::Malformed("invalid Content-Length"))?;
            head.has_body |= len > 0;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            head.has_body = true;
        }
    }
    Ok(head)
}

fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    connection: Connection,
) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    };
    let connection = match connection {
        Connection::Keep => "",
        Connection::KeepAlive => "Connection: keep-alive\r\n",
        Connection::Close => "Connection: close\r\n",
    };
    let mut reply = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{connection}\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len()
    );
    reply.push_str(&response.body);
    stream.write_all(reply.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Instant;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let status: u16 = text
            .lines()
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    /// Read one reply by `Content-Length`, leaving the socket usable.
    /// Returns the status, whether it said `Connection: close`, and the
    /// body.
    fn read_reply(stream: &mut TcpStream) -> (u16, bool, String) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).unwrap(), 1, "EOF inside a reply");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let status = head.split(' ').nth(1).unwrap().parse().unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        (
            status,
            head.contains("\r\nConnection: close\r\n"),
            String::from_utf8(body).unwrap(),
        )
    }

    fn kept(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    fn test_handler() -> Arc<Handler> {
        Arc::new(
            |method: &str, path: &str, query: &str| match (method, path) {
                ("GET", "/hello") if query.is_empty() => Response::text(200, "hi\n"),
                ("GET", "/hello") => Response::text(200, format!("hi query={query}\n")),
                ("GET", "/panic") => panic!("handler panic (expected by the test)"),
                ("GET", _) => Response::not_found(),
                _ => Response::text(405, "method not allowed\n"),
            },
        )
    }

    #[test]
    fn serves_routes_and_404s() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        assert_eq!(get(addr, "/hello"), (200, "hi\n".to_owned()));
        assert_eq!(
            get(addr, "/hello?x=1"),
            (200, "hi query=x=1\n".to_owned()),
            "query string reaches the handler"
        );
        assert_eq!(get(addr, "/missing").0, 404);
        server.stop();
        // Port is released after stop.
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn pooled_workers_answer_concurrent_requests() {
        let server = HttpServer::bind_pooled("127.0.0.1:0", test_handler(), 4).unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || get(addr, "/hello")))
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), (200, "hi\n".to_owned()));
        }
        server.stop();
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn one_connection_answers_request_after_request() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let mut stream = kept(server.local_addr());
        for path in ["/hello", "/hello?x=2", "/missing"] {
            write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let (status, close, _) = read_reply(&mut stream);
            assert!(!close, "a kept reply must not say Connection: close");
            assert!(status == 200 || status == 404);
        }
        // All three went over the one accepted socket: one thread serves it.
        assert_eq!(lock(&server.shared.conns).len(), 1);
        server.stop();
    }

    #[test]
    fn connection_close_is_honoured_and_announced() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let mut stream = kept(server.local_addr());
        write!(
            stream,
            "GET /hello HTTP/1.1\r\nHost: t\r\nConnection: Close\r\n\r\n"
        )
        .unwrap();
        assert_eq!(read_reply(&mut stream), (200, true, "hi\n".to_owned()));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "EOF after the close reply");

        // HTTP/1.0 closes by default and keeps only when asked.
        let mut stream = kept(server.local_addr());
        write!(stream, "GET /hello HTTP/1.0\r\n\r\n").unwrap();
        assert!(read_reply(&mut stream).1);
        let mut stream = kept(server.local_addr());
        write!(
            stream,
            "GET /hello HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        .unwrap();
        write!(
            stream,
            "GET /hello HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        .unwrap();
        assert_eq!(read_reply(&mut stream), (200, false, "hi\n".to_owned()));
        assert_eq!(read_reply(&mut stream), (200, false, "hi\n".to_owned()));

        // A request with a body (which the server does not read) is
        // answered, then the connection closes.
        let mut stream = kept(server.local_addr());
        write!(
            stream,
            "POST /hello HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
        )
        .unwrap();
        let (status, close, _) = read_reply(&mut stream);
        assert_eq!((status, close), (405, true));
        server.stop();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let mut stream = kept(server.local_addr());
        stream
            .write_all(b"GET /hello?n=1 HTTP/1.1\r\n\r\nGET /hello?n=2 HTTP/1.1\r\n\r\n")
            .unwrap();
        assert_eq!(read_reply(&mut stream).2, "hi query=n=1\n");
        assert_eq!(read_reply(&mut stream).2, "hi query=n=2\n");
        server.stop();
    }

    #[test]
    fn idle_kept_connections_never_hold_a_query_slot() {
        let server = HttpServer::bind_pooled("127.0.0.1:0", test_handler(), 2).unwrap();
        let addr = server.local_addr();
        // Longer than the whole exchange may take: a slot pinned to an
        // idle socket would only come free at the idle timeout.
        assert!(IDLE_TIMEOUT > Duration::from_secs(2));
        let began = Instant::now();
        let ask = |s: &mut TcpStream| {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            write!(s, "GET /hello HTTP/1.1\r\n\r\n").unwrap();
            assert_eq!(read_reply(s).0, 200);
        };
        // Three kept-alive connections, each answered once, then idle.
        let idle: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut s = kept(addr);
                ask(&mut s);
                s
            })
            .collect();
        ask(&mut kept(addr));
        assert!(began.elapsed() < Duration::from_secs(2));
        drop(idle);
        server.stop();
    }

    #[test]
    fn stop_wakes_idle_kept_connections_and_releases_the_port() {
        let server = HttpServer::bind_pooled("127.0.0.1:0", test_handler(), 2).unwrap();
        let addr = server.local_addr();
        let mut idle: Vec<TcpStream> = (0..3).map(|_| kept(addr)).collect();
        for s in &mut idle {
            write!(s, "GET /hello HTTP/1.1\r\n\r\n").unwrap();
            assert_eq!(read_reply(s).0, 200);
        }
        let stopping = Instant::now();
        server.stop();
        assert!(
            stopping.elapsed() < Duration::from_secs(1),
            "stop took {:?}",
            stopping.elapsed()
        );
        assert!(TcpStream::connect(addr).is_err());
        for mut s in idle {
            let mut rest = Vec::new();
            assert_eq!(s.read_to_end(&mut rest).map(|_| rest.len()).unwrap_or(0), 0);
        }
    }

    #[test]
    fn connections_past_the_cap_are_shed_with_503() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| kept(addr)).collect();
        let mut over = kept(addr);
        let (status, close, body) = read_reply(&mut over);
        assert_eq!((status, close, body.as_str()), (503, true, "server busy\n"));
        drop(held);
        server.stop();
    }

    #[test]
    fn a_panicking_handler_is_a_500_and_the_server_lives_on() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        let (status, body) = get(addr, "/panic");
        assert_eq!((status, body.as_str()), (500, "internal server error\n"));
        // One query slot: the panic must have released it.
        assert_eq!(get(addr, "/hello"), (200, "hi\n".to_owned()));
        server.stop();
    }

    #[test]
    fn bad_heads_get_400_or_431_and_a_close() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        for (request, status) in [
            (b"garbage\r\n\r\n".to_vec(), 400),
            (b"GET /hello HTTP/2.0\r\n\r\n".to_vec(), 400),
            (
                format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD)).into_bytes(),
                431,
            ),
            (
                format!("GET /hello HTTP/1.1\r\nX: {}", "a".repeat(2 * MAX_HEAD)).into_bytes(),
                431,
            ),
        ] {
            let mut stream = kept(addr);
            stream.write_all(&request).unwrap();
            let (got, close, _) = read_reply(&mut stream);
            assert_eq!((got, close), (status, true));
        }
        server.stop();
    }

    #[test]
    fn parses_request_heads() {
        let head = parse_request_head(
            b"GET /v1/x?a=1 HTTP/1.1\r\nHost: h\r\nconnection: Keep-Alive, Close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(
            head,
            RequestHead {
                method: "GET",
                target: "/v1/x?a=1",
                minor_version: 1,
                close: true,
                keep_alive: true,
                has_body: false,
            }
        );
        assert_eq!(head.connection(), Connection::Close);
        let head = parse_request_head(b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(head.connection(), Connection::Keep);
        let head = parse_request_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert_eq!(head.connection(), Connection::KeepAlive);
        for body in ["Content-Length: 4", "Transfer-Encoding: chunked"] {
            let raw = format!("POST / HTTP/1.1\r\n{body}\r\n\r\n");
            let head = parse_request_head(raw.as_bytes()).unwrap();
            assert!(head.has_body);
            assert_eq!(head.connection(), Connection::Close);
        }
    }

    #[test]
    fn rejects_each_kind_of_bad_head() {
        let malformed =
            |raw: &[u8]| matches!(parse_request_head(raw), Err(HeadError::Malformed(_)));
        assert!(malformed(b"\r\n\r\n"));
        assert!(malformed(b"GET\r\n\r\n"));
        assert!(malformed(b"GET /\r\n\r\n"));
        assert!(malformed(b"GET / HTTP/1.1 extra\r\n\r\n"));
        assert!(malformed(b"GET  / HTTP/1.1\r\n\r\n"));
        assert!(malformed(b"G(T / HTTP/1.1\r\n\r\n"));
        assert!(malformed(b"GET /\x01 HTTP/1.1\r\n\r\n"));
        assert!(malformed(b"GET / HTTP/2\r\n\r\n"));
        assert!(malformed(b"GET / HTTP/1.1\r\nno colon\r\n\r\n"));
        assert!(malformed(b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"));
        assert!(malformed(b"GET /\xff HTTP/1.1\r\n\r\n"));
        assert!(malformed(b"GET / HTTP/1.1\r\n"));
        let oversize = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD));
        assert_eq!(
            parse_request_head(oversize.as_bytes()),
            Err(HeadError::TooLarge)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_the_head_parser(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let _ = parse_request_head(&bytes);
        }

        #[test]
        fn near_miss_heads_never_panic_the_head_parser(
            picks in prop::collection::vec(0usize..12, 0..40),
        ) {
            // Fragments of real heads, shuffled: reaches the header and
            // version branches that random bytes almost never do.
            const PARTS: [&str; 12] = [
                "GET", " ", "/x?y=1", "HTTP/1.1", "HTTP/1.0", "\r\n", ":",
                "Connection", "close", "Content-Length", "7", "\r\n\r\n",
            ];
            let raw: String = picks.iter().map(|&i| PARTS[i]).collect();
            if let Ok(head) = parse_request_head(raw.as_bytes()) {
                let _ = head.connection();
            }
        }
    }
}
