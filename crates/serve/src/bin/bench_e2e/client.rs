//! A raw-socket HTTP/1.1 client (no client library, as in `serve_smoke`)
//! and the two load generators.
//!
//! The client keeps one connection alive across requests. When the server
//! has closed it — at its per-connection request cap, after an idle
//! timeout, or after answering `Connection: close` — the client opens a new
//! one and counts a reconnect. A request the server closed the connection
//! on before reading any of it is sent again on the new connection; that
//! is the only resend. A 429, a 5xx, a socket error or a timeout is
//! recorded as a failure and never retried.

use crate::workload::Request;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request that has not answered within this long fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    /// The `X-Dante-Cache` header (`hit` / `miss`), when present.
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

/// One keep-alive connection to the server.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
    opened: u64,
}

enum Failure {
    /// The server closed the connection before answering any byte.
    ClosedEarly,
    Other(String),
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            reader: None,
            opened: 0,
        }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.opened.saturating_sub(1)
    }

    /// Sends `raw` and reads the whole response.
    pub fn send(&mut self, raw: &[u8]) -> Result<Response, String> {
        let reused = self.reader.is_some() && !self.closed_by_server();
        if !reused {
            self.open()?;
        }
        match self.exchange(raw) {
            Err(Failure::ClosedEarly) if reused => {
                self.open()?;
                self.exchange(raw).map_err(Failure::into_message)
            }
            result => result.map_err(Failure::into_message),
        }
    }

    fn open(&mut self) -> Result<(), String> {
        self.reader = None;
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("configure socket: {e}"))?;
        self.reader = Some(BufReader::new(stream));
        self.opened += 1;
        Ok(())
    }

    /// Whether the idle connection was closed by the server (EOF pending).
    fn closed_by_server(&mut self) -> bool {
        let Some(reader) = &self.reader else {
            return true;
        };
        if !reader.buffer().is_empty() {
            // Unsolicited bytes: the stream is out of step, start afresh.
            return true;
        }
        let stream = reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut byte = [0u8; 1];
        let closed = !matches!(stream.peek(&mut byte), Err(e) if e.kind() == ErrorKind::WouldBlock);
        closed || stream.set_nonblocking(false).is_err()
    }

    fn exchange(&mut self, raw: &[u8]) -> Result<Response, Failure> {
        let result = self.exchange_inner(raw);
        if result.is_err() {
            self.reader = None;
        }
        result
    }

    fn exchange_inner(&mut self, raw: &[u8]) -> Result<Response, Failure> {
        let reader = self.reader.as_mut().expect("connection is open");
        reader
            .get_mut()
            .write_all(raw)
            .map_err(|e| Failure::Other(format!("write: {e}")))?;
        let mut status_line = String::new();
        match reader.read_line(&mut status_line) {
            Ok(0) => return Err(Failure::ClosedEarly),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return Err(Failure::ClosedEarly),
            Err(e) => return Err(Failure::Other(io_message("status line", &e))),
        }
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| Failure::Other(format!("malformed status line {status_line:?}")))?;
        let mut content_length = None;
        let mut cache = None;
        let mut close = false;
        loop {
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| Failure::Other(io_message("header", &e)))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(Failure::Other(format!("malformed header {line:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-dante-cache") {
                cache = Some(value.to_owned());
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length =
            content_length.ok_or_else(|| Failure::Other("no Content-Length".to_owned()))?;
        let mut body = vec![0u8; length];
        reader
            .read_exact(&mut body)
            .map_err(|e| Failure::Other(io_message("body", &e)))?;
        if close {
            self.reader = None;
        }
        Ok(Response {
            status,
            cache,
            body,
        })
    }
}

impl Failure {
    fn into_message(self) -> String {
        match self {
            Self::ClosedEarly => "connection closed before the response".to_owned(),
            Self::Other(message) => message,
        }
    }
}

fn io_message(what: &str, e: &std::io::Error) -> String {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        format!("timeout reading {what}")
    } else {
        format!("{what}: {e}")
    }
}

/// One measured request as the client saw it. Times are nanoseconds from
/// the start of the phase.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the request was due: its schedule slot (open loop) or the
    /// previous completion (closed loop).
    pub due_ns: u64,
    pub write_ns: u64,
    pub done_ns: u64,
    /// How late the generator sent, not counting waits for a busy
    /// connection.
    pub lag_ns: u64,
    pub response: Result<Response, String>,
}

impl Sample {
    /// Latency counted from when the request was due, so connection stalls
    /// count against the requests queued behind them.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// Latency from the first request byte written to the last body byte.
    pub fn service_latency_ns(&self) -> u64 {
        self.done_ns - self.write_ns
    }
}

/// What a phase produced: the requests sent (in index order), what each
/// returned, and the connections' reconnect count.
#[derive(Debug)]
pub struct Phase {
    pub requests: Vec<Request>,
    pub samples: Vec<Sample>,
    pub reconnects: u64,
    /// From the phase start to the last completion.
    pub elapsed_ns: u64,
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Closed loop on one connection: request `i + 1` is written once request
/// `i` has completed, until `seconds` have passed.
pub fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    mut request: impl FnMut(usize) -> Request,
) -> Phase {
    let mut conn = Conn::new(addr);
    let mut requests = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    while start.elapsed() < deadline {
        let due_ns = samples.last().map_or(0, |s| s.done_ns);
        let req = request(requests.len());
        let write_ns = ns_since(start);
        let response = conn.send(&req.raw);
        let done_ns = ns_since(start);
        samples.push(Sample {
            due_ns,
            write_ns,
            done_ns,
            lag_ns: write_ns - due_ns,
            response,
        });
        requests.push(req);
    }
    let elapsed_ns = samples.last().map_or(0, |s| s.done_ns);
    Phase {
        requests,
        samples,
        reconnects: conn.reconnects(),
        elapsed_ns,
    }
}

/// Open loop: `connections` client threads take the next due request in
/// schedule order, wait for its due time if early, and send it on their
/// own connection.
pub fn open_loop(addr: SocketAddr, connections: usize, requests: Vec<Request>) -> Phase {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; requests.len()]);
    let start = Instant::now();
    let reconnects: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::new(addr);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = requests.get(i) else {
                            break;
                        };
                        let free_ns = ns_since(start);
                        if free_ns < req.due_ns {
                            std::thread::sleep(Duration::from_nanos(req.due_ns - free_ns));
                        }
                        let write_ns = ns_since(start);
                        let response = conn.send(&req.raw);
                        let done_ns = ns_since(start);
                        let sample = Sample {
                            due_ns: req.due_ns,
                            write_ns,
                            done_ns,
                            lag_ns: write_ns - req.due_ns.max(free_ns),
                            response,
                        };
                        slots.lock().expect("sample slots lock poisoned")[i] = Some(sample);
                    }
                    conn.reconnects()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .sum()
    });
    let samples: Vec<Sample> = slots
        .into_inner()
        .expect("sample slots lock poisoned")
        .into_iter()
        .map(|s| s.expect("every request was sent"))
        .collect();
    let elapsed_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
    Phase {
        requests,
        samples,
        reconnects,
        elapsed_ns,
    }
}

/// `GET path` on a fresh connection; the body must be UTF-8.
pub fn get_text(addr: SocketAddr, path: &str) -> Result<String, String> {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    let response = Conn::new(addr).send(raw.as_bytes())?;
    if response.status != 200 {
        return Err(format!("GET {path} answered {}", response.status));
    }
    String::from_utf8(response.body).map_err(|_| format!("GET {path}: body is not UTF-8"))
}
