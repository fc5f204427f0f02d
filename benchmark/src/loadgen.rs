//! The load generator: an HTTP/1.1 client that keeps its connection when
//! the server lets it, an open-loop sender that times every request from
//! the moment it was *due*, and a closed-loop sender for capacity.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One HTTP reply and how its time divided.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Time to open the socket, when this request had to.
    pub connect: Option<Duration>,
    /// Request written → first byte of the reply.
    pub ttfb: Duration,
}

/// A client for one connection's worth of requests.
///
/// Speaks HTTP/1.1 as a browser would: no `Connection: close` of its
/// own, reads the body by `Content-Length`, and keeps the socket for the
/// next request unless the reply says `Connection: close`.  Today's
/// server always says so (`reused` stays 0); a server that stops saying
/// so gets its connections reused without this file changing.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    pub connects: u64,
    pub reused: u64,
}

const IO_TIMEOUT: Duration = Duration::from_secs(5);

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            connects: 0,
            reused: 0,
        }
    }

    /// `GET path`.  A kept connection the server has meanwhile dropped
    /// is retried once on a fresh one.
    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        if let Some(stream) = self.stream.take() {
            match self.exchange(stream, path, None) {
                Ok(reply) => {
                    self.reused += 1;
                    return Ok(reply);
                }
                Err(e) if stale(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let opening = Instant::now();
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.connects += 1;
        self.exchange(stream, path, Some(opening.elapsed()))
    }

    fn exchange(
        &mut self,
        mut stream: TcpStream,
        path: &str,
        connect: Option<Duration>,
    ) -> std::io::Result<Reply> {
        let written = Instant::now();
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        let mut raw = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let mut ttfb = None;
        let head_end = loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            ttfb.get_or_insert_with(|| written.elapsed());
            raw.extend_from_slice(&chunk[..n]);
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
        };
        let head = parse_head(&raw[..head_end])?;
        match head.content_length {
            Some(len) => {
                let have = raw.len().min(head_end + len);
                raw.resize(head_end + len, 0);
                stream.read_exact(&mut raw[have..])?;
            }
            // No length: the body runs to the end of the connection.
            None => {
                stream.read_to_end(&mut raw)?;
            }
        }
        if !head.close && head.content_length.is_some() {
            self.stream = Some(stream);
        }
        Ok(Reply {
            status: head.status,
            body: String::from_utf8_lossy(&raw[head_end..]).into_owned(),
            connect,
            ttfb: ttfb.expect("set with the first byte"),
        })
    }
}

/// Did a kept connection fail in a way that only says the server had
/// closed it before this request?
fn stale(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
    )
}

#[derive(Debug, PartialEq)]
struct Head {
    status: u16,
    content_length: Option<usize>,
    close: bool,
}

fn parse_head(raw: &[u8]) -> std::io::Result<Head> {
    let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_owned());
    let text = std::str::from_utf8(raw).map_err(|_| bad("reply head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let mut head = Head {
        status,
        content_length: None,
        close: false,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            head.close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok(head)
}

/// One request with the three instants that matter.
#[derive(Debug)]
pub struct Timed<R> {
    /// When the schedule said to send it.
    pub intended: Instant,
    /// When it was actually sent (later when the generator ran behind).
    pub sent: Instant,
    pub done: Instant,
    pub out: R,
}

impl<R> Timed<R> {
    /// What a user who asked at the intended time waited.
    pub fn latency(&self) -> Duration {
        self.done - self.intended
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent - self.intended
    }
}

/// Send on a fixed schedule: request `i` is due `offsets[i]` after
/// `start`, whether or not earlier replies have come back.  One
/// connection can only have one request in flight, so a slow reply
/// delays the sends behind it — and because latency counts from the
/// intended time, that delay lands in their latencies instead of
/// vanishing (no coordinated omission).
pub fn open_loop<R>(
    start: Instant,
    offsets: &[Duration],
    mut send: impl FnMut(usize) -> R,
) -> Vec<Timed<R>> {
    offsets
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            let intended = start + offset;
            let wait = intended.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let out = send(i);
            Timed {
                intended,
                sent,
                done: Instant::now(),
                out,
            }
        })
        .collect()
}

/// Send back to back until `until`: each request waits for the previous
/// reply, so the rate is whatever the server sustains.
pub fn closed_loop<R>(until: Instant, mut send: impl FnMut(usize) -> R) -> Vec<Timed<R>> {
    let mut sent_all = Vec::new();
    while Instant::now() < until {
        let sent = Instant::now();
        let out = send(sent_all.len());
        sent_all.push(Timed {
            intended: sent,
            sent,
            done: Instant::now(),
            out,
        });
    }
    sent_all
}

/// Send times for `seconds` at `rate` per second: one per interval, at
/// the position `within()` (in `[0, 1)`) of its interval.  Seeded random
/// positions keep the rate exact while leaving arrivals in no fixed phase
/// to any timer in the server — an evenly spaced schedule whose interval
/// is a multiple of the accept loop's 5 ms poll meets the same wait on
/// every request, and which wait is decided by when the run started.
pub fn schedule(rate: f64, seconds: f64, mut within: impl FnMut() -> f64) -> Vec<Duration> {
    let count = (rate * seconds).floor() as usize;
    (0..count)
        .map(|i| Duration::from_secs_f64((i as f64 + within()) / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_heads_case_insensitively() {
        let head =
            parse_head(b"HTTP/1.1 200 OK\r\ncontent-LENGTH: 12\r\nConnection: Close\r\n\r\n");
        assert_eq!(
            head.unwrap(),
            Head {
                status: 200,
                content_length: Some(12),
                close: true
            }
        );
        let head = parse_head(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!((head.status, head.close), (404, false));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
    }

    /// A server that answers `replies` requests per connection, keeping
    /// the connection open or closing it as told.
    fn serve(listener: TcpListener, connections: usize, replies: usize, close: bool) {
        for _ in 0..connections {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..replies {
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    if stream.read(&mut byte).unwrap() == 0 {
                        return;
                    }
                    head.push(byte[0]);
                }
                let connection = if close { "Connection: close\r\n" } else { "" };
                write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n{connection}\r\nhello"
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn reuses_the_connection_only_when_the_server_keeps_it() {
        for (close, connections, replies) in [(false, 1, 3), (true, 3, 1)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || serve(listener, connections, replies, close));
            let mut client = Client::new(addr);
            for _ in 0..3 {
                let reply = client.get("/x").unwrap();
                assert_eq!((reply.status, reply.body.as_str()), (200, "hello"));
            }
            let expect = if close { (3, 0) } else { (1, 2) };
            assert_eq!((client.connects, client.reused), expect, "close={close}");
            drop(client);
            server.join().unwrap();
        }
    }

    #[test]
    fn a_dropped_keep_alive_connection_is_retried_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Promise keep-alive, then serve one reply per connection.
        let server = std::thread::spawn(move || serve(listener, 2, 1, false));
        let mut client = Client::new(addr);
        assert_eq!(client.get("/a").unwrap().body, "hello");
        assert_eq!(client.get("/b").unwrap().body, "hello");
        assert_eq!((client.connects, client.reused), (2, 0));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // Ten requests 10 ms apart; the third takes 50 ms instead of ~0.
        let offsets = schedule(100.0, 0.1, || 0.5);
        assert_eq!(offsets.len(), 10);
        assert_eq!(offsets[0], Duration::from_millis(5));
        let start = Instant::now();
        let sent = open_loop(start, &offsets, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        // Intended times are the schedule's, stall or no stall.
        for (t, &offset) in sent.iter().zip(&offsets) {
            assert_eq!(t.intended, start + offset);
        }
        assert!(ms(sent[2].latency()) >= 50.0);
        // Requests 3..6 were due during the stall: sent late, and their
        // latency from the intended time carries the wait (40, 30, 20,
        // 10 ms) that a from-send clock would hide.
        for (i, waited) in [(3, 40.0), (4, 30.0), (5, 20.0), (6, 10.0)] {
            assert!(
                ms(sent[i].lag()) >= waited - 1.0,
                "lag {i}: {:?}",
                sent[i].lag()
            );
            assert!(ms(sent[i].latency()) >= waited - 1.0, "latency {i}");
            assert!(
                ms(sent[i].done - sent[i].sent) < 5.0,
                "service time {i} is still small"
            );
        }
        // Once caught up, requests go out on time again.
        assert!(ms(sent[9].lag()) < 5.0, "{:?}", sent[9].lag());
    }

    #[test]
    fn closed_loop_sends_back_to_back_until_the_deadline() {
        let until = Instant::now() + Duration::from_millis(30);
        let sent = closed_loop(until, |_| std::thread::sleep(Duration::from_millis(5)));
        assert!((3..=7).contains(&sent.len()), "{}", sent.len());
        assert!(sent.windows(2).all(|w| w[1].sent >= w[0].done));
    }
}
