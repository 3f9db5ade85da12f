//! Minimal HTTP/1.1 plumbing for `zbp-serve`.
//!
//! The repository is dependency-free by design, so the daemon speaks
//! just enough HTTP itself: one request per connection (`Connection:
//! close` on every response), request line + headers + an optional
//! `Content-Length` body on the way in, and either a complete response
//! or a close-delimited NDJSON stream on the way out. That subset is
//! exactly what `curl`, CI smoke scripts and the `perf/` benchmark's
//! load generator need — there is deliberately no keep-alive, chunked
//! encoding or TLS.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use zbp_support::json::Json;

/// Cap on the request line + headers, bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Cap on a request body, bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed incoming request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client already).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw body bytes (`Content-Length`-delimited; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// When the body is not valid UTF-8 JSON.
    pub fn json_body(&self) -> Result<Json, String> {
        let text =
            std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))?;
        Json::parse(text).map_err(|e| format!("body is not valid JSON: {}", e.0))
    }
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// On malformed request framing, oversized head/body, or I/O errors
/// (including the stream's read timeout elapsing).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut head_budget = MAX_HEAD_BYTES;
    let line = read_line_capped(&mut reader, &mut head_budget)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(bad_request("malformed request line"));
    };
    let method = method.to_string();
    // Strip any query string: the daemon routes on the path alone.
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    loop {
        let header = read_line_capped(&mut reader, &mut head_budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad_request("unparsable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad_request("request body exceeds 1 MiB"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Reads one `\n`-terminated line, charging every byte against the
/// shared head `budget` — the check runs per buffered chunk, *before*
/// the chunk is kept, so a client streaming an endless newline-free
/// line can never make the daemon buffer more than the head cap. EOF
/// before a newline yields whatever arrived (the caller's parser
/// rejects incomplete heads).
fn read_line_capped(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            break;
        }
        let taken = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => pos + 1,
            None => available.len(),
        };
        if taken > *budget {
            return Err(bad_request("request head exceeds 64 KiB"));
        }
        let done = available[taken - 1] == b'\n';
        line.extend_from_slice(&available[..taken]);
        reader.consume(taken);
        *budget -= taken;
        if done {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| bad_request("request head is not UTF-8"))
}

fn bad_request(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes it.
///
/// # Errors
///
/// On I/O errors writing to the stream.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    respond_raw(stream, status, "application/json", &body.render_pretty())
}

/// Writes a complete plain-text response and flushes it.
///
/// # Errors
///
/// On I/O errors writing to the stream.
pub fn respond_text(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    respond_raw(stream, status, "text/plain; charset=utf-8", body)
}

fn respond_raw(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len(),
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The head of every NDJSON stream response.
const NDJSON_HEAD: &str =
    "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";

/// A close-delimited NDJSON event stream: the response head, then one
/// JSON object per line. The body ends when the connection closes
/// (`Connection: close`), which every HTTP/1.1 client accepts.
///
/// Events are held until [`Self::flush`], which writes all of them in
/// one write. The daemon flushes whenever a request is about to wait
/// and when it ends, so a client sees every event before any wait, and
/// a warm request costs a few writes (and wake-ups of its client), not
/// one per cell.
pub struct NdjsonStream<'a> {
    stream: &'a mut TcpStream,
    started: bool,
    /// Lines not yet written, with the response head in front of the
    /// first.
    pending: String,
}

impl<'a> NdjsonStream<'a> {
    /// Wraps `stream`; nothing is written until the first flush.
    pub fn new(stream: &'a mut TcpStream) -> Self {
        Self { stream, started: false, pending: String::new() }
    }

    /// Whether any event (and therefore the response head) was emitted
    /// — after that, errors can only be reported as stream events, not
    /// as an HTTP status.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Adds one event line, and the response head in front of the
    /// first, to the output [`Self::flush`] writes.
    pub fn emit(&mut self, event: &Json) {
        if !self.started {
            self.started = true;
            self.pending.push_str(NDJSON_HEAD);
        }
        self.pending.push_str(&event.render());
        self.pending.push('\n');
    }

    /// Writes every event emitted since the last flush in one write,
    /// and flushes the socket.
    ///
    /// # Errors
    ///
    /// On I/O errors (e.g. the client hung up — the caller treats that
    /// as cancellation).
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(self.pending.as_bytes());
        self.pending.clear();
        written?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(&raw).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn);
        writer.join().expect("writer");
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.json_body().expect("json").get("a"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn strips_query_strings_and_tolerates_missing_body() {
        let req = roundtrip(b"GET /metrics?pretty=1 HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(roundtrip(raw.as_bytes()).is_err());
    }

    #[test]
    fn rejects_a_newline_free_flood_without_unbounded_buffering() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            // Stream several times the head cap with no newline; stop
            // when the server rejects the head and closes on us.
            let chunk = [b'A'; 8192];
            for _ in 0..(4 * MAX_HEAD_BYTES / chunk.len()) {
                if c.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let err = read_request(&mut conn).expect_err("endless request line must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(conn);
        writer.join().expect("writer");
    }

    #[test]
    fn rejects_an_oversized_multi_header_head() {
        // Many newline-terminated headers must also stay under the
        // shared head budget.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD_BYTES {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert!(roundtrip(&raw).is_err());
    }

    #[test]
    fn events_are_held_until_a_flush_writes_them_together() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        client.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
        let (mut conn, _) = listener.accept().expect("accept");
        let mut out = NdjsonStream::new(&mut conn);
        assert!(!out.started());
        out.flush().expect("nothing to flush");
        out.emit(&Json::Num(1.0));
        out.emit(&Json::Num(2.0));
        assert!(out.started());
        client.set_nonblocking(true).expect("nonblocking");
        let held = client.read(&mut [0; 1]).map_err(|e| e.kind());
        assert_eq!(held, Err(io::ErrorKind::WouldBlock), "nothing is written before the flush");
        client.set_nonblocking(false).expect("blocking");
        out.flush().expect("flush");
        out.emit(&Json::Num(3.0));
        out.flush().expect("flush");
        drop(out);
        drop(conn);
        // The head goes out once, in front of the first event.
        let mut got = String::new();
        client.read_to_string(&mut got).expect("read to close");
        assert_eq!(got, format!("{NDJSON_HEAD}1\n2\n3\n"));
    }
}
