//! A minimal HTTP/1.1 layer over `std::net`.
//!
//! Implements exactly what the sweep service needs — request parsing with
//! hard size and time limits, fixed-length and chunked responses, and
//! keep-alive — with no external dependencies. Not a general-purpose HTTP
//! implementation: requests must carry `Content-Length` bodies (chunked
//! *request* bodies are rejected with 411), a `Content-Length` must be
//! plain digits and appear at most once (anything else is a 400), and only
//! the small header set the service inspects is retained.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (without the `?`), empty if absent.
    pub query: String,
    /// Body bytes (empty when the request carried none).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The `X-Dante-Client` header value (empty when absent). Bulk-lane
    /// fairness is keyed on this token, so one client's backlog cannot
    /// starve another's.
    pub client: String,
}

impl Request {
    /// The value of query parameter `key` (`k=v` pairs split on `&`), if
    /// present. No percent-decoding: the service's parameters are plain
    /// tokens.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be served; each maps to one response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Clean EOF before any request byte (keep-alive connection closed).
    Closed,
    /// Socket error or timeout mid-request.
    Io(String),
    /// Malformed request head.
    BadRequest(String),
    /// Head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Body exceeded the configured cap; the payload carries the cap.
    BodyTooLarge(usize),
    /// Request body without a `Content-Length` (e.g. chunked upload).
    LengthRequired,
}

/// Reads one request from a connection.
///
/// `max_body` caps the declared `Content-Length`; oversized requests fail
/// *before* the body is read, so a hostile client cannot make the server
/// buffer it.
///
/// # Errors
///
/// Returns a [`RequestError`] describing which limit or syntax rule failed.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Request, RequestError> {
    let mut head = Vec::new();
    // Read byte-wise up to the blank line; BufReader makes this cheap and
    // guarantees we never consume bytes past the head we aren't meant to.
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if head.is_empty() {
                    return Err(RequestError::Closed);
                }
                return Err(RequestError::BadRequest("truncated request head".into()));
            }
            Ok(_) => head.push(byte[0]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(if head.is_empty() {
                    RequestError::Closed
                } else {
                    RequestError::Io("timed out reading request head".into())
                });
            }
            Err(e) => return Err(RequestError::Io(e.to_string())),
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| RequestError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::BadRequest(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == "HTTP/1.1"; // 1.1 default; 1.0 closes.
    let mut expects_continue = false;
    let mut has_transfer_encoding = false;
    let mut client = String::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // RFC 9112 §6.3: 1*DIGIT only (`usize::from_str` would take
                // a leading `+`), and a repeated header is refused rather
                // than letting the last one win.
                if content_length.is_some() {
                    return Err(RequestError::BadRequest("repeated Content-Length".into()));
                }
                let digits = value.bytes().all(|b| b.is_ascii_digit());
                content_length = Some(value.parse().ok().filter(|_| digits).ok_or_else(|| {
                    RequestError::BadRequest(format!("bad Content-Length {value:?}"))
                })?);
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "expect" => expects_continue = value.eq_ignore_ascii_case("100-continue"),
            "transfer-encoding" => has_transfer_encoding = true,
            "x-dante-client" => client = value.to_owned(),
            _ => {}
        }
    }
    if has_transfer_encoding {
        return Err(RequestError::LengthRequired);
    }

    let body = match content_length {
        None | Some(0) => Vec::new(),
        Some(n) if n > max_body => return Err(RequestError::BodyTooLarge(max_body)),
        Some(n) => {
            if expects_continue {
                let _ = reader.get_ref().write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            }
            let mut body = vec![0u8; n];
            reader
                .read_exact(&mut body)
                .map_err(|e| RequestError::Io(format!("short body read: {e}")))?;
            body
        }
    };
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: query.to_owned(),
        body,
        keep_alive,
        client,
    })
}

/// Reason phrase for the status codes the service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a fixed-length response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A chunked-transfer response in progress: one header write, then any
/// number of [`chunk`](Self::chunk)s, then [`finish`](Self::finish). The
/// connection always closes afterwards (streams are unbounded, so reusing
/// the connection would require trailer bookkeeping the service doesn't
/// need).
#[derive(Debug)]
pub struct ChunkedResponse<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedResponse<'a> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn start(stream: &'a mut TcpStream, status: u16, content_type: &str) -> io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status),
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Writes one non-empty chunk (empty payloads are skipped: an empty
    /// chunk is the stream terminator in the wire format).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn chunk(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", payload.len())?;
        self.stream.write_all(payload)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Writes the terminating zero chunk, ending the stream cleanly.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Applies the service's socket timeouts (read and write) to a connection.
pub fn configure_stream(stream: &TcpStream, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn round_trip(raw: &[u8], max_body: usize) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Hold the socket open briefly so the reader sees a live peer.
            thread::sleep(Duration::from_millis(50));
        });
        let (stream, _) = listener.accept().unwrap();
        configure_stream(&stream, Duration::from_secs(2));
        let mut reader = BufReader::new(stream);
        let out = read_request(&mut reader, max_body);
        writer.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = round_trip(
            b"POST /v1/sweep?mode=async&x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
            64,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.query_param("mode"), Some("async"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.client, "", "no client token sent");
    }

    #[test]
    fn client_token_header_is_retained() {
        let req = round_trip(
            b"GET /healthz HTTP/1.1\r\nX-Dante-Client: team-a\r\n\r\n",
            64,
        )
        .unwrap();
        assert_eq!(req.client, "team-a");
        // Header names are case-insensitive.
        let req = round_trip(b"GET / HTTP/1.1\r\nx-dante-CLIENT:  b \r\n\r\n", 64).unwrap();
        assert_eq!(req.client, "b");
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = round_trip(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let err = round_trip(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 64).unwrap_err();
        assert_eq!(err, RequestError::BodyTooLarge(64));
    }

    #[test]
    fn chunked_request_bodies_are_refused() {
        let err =
            round_trip(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 64).unwrap_err();
        assert_eq!(err, RequestError::LengthRequired);
    }

    #[test]
    fn malformed_request_lines_error() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        ] {
            assert!(
                matches!(round_trip(raw, 64), Err(RequestError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn immediate_eof_reports_closed() {
        assert_eq!(round_trip(b"", 64).unwrap_err(), RequestError::Closed);
    }
}
