//! The load generator's HTTP client: one keep-alive connection, one
//! request in flight (closed loop), timestamps at the layer boundaries a
//! client can see, and a small extractor for the `/match` reply fields.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a reply may take before the request counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// When each phase of one round trip ended.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrip {
    pub status: u16,
    pub start: Instant,
    /// Request fully handed to the socket.
    pub written: Instant,
    /// First reply bytes arrived.
    pub first_byte: Instant,
    /// Reply complete.
    pub done: Instant,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    body_start: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            body_start: 0,
        })
    }

    /// Sends one pre-rendered request and reads the whole reply.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<RoundTrip> {
        let start = Instant::now();
        self.stream.write_all(request)?;
        let written = Instant::now();

        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP reply");
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad())?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let length: usize = head
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(bad)?;
        self.body_start = head_end + 4;
        let total = self.body_start + length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let done = Instant::now();
        Ok(RoundTrip {
            status,
            start,
            written,
            first_byte: first_byte.unwrap_or(done),
            done,
        })
    }

    /// Body of the last reply.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }
}

/// How the server says a query ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Status {
    Completed,
    LimitReached,
    /// Timed out, cancelled, or a word this client does not know.
    #[default]
    Other,
}

/// The fields of a `/match` reply the benchmark checks or accounts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    pub status: Status,
    pub count: u64,
    pub elapsed_us: u64,
    pub queue_us: u64,
    pub exec_us: u64,
    /// Present when the reply carried an `embeddings` array.
    pub embeddings: Option<Vec<Vec<u32>>>,
}

/// The bytes after `pattern` (a quoted key and its colon) in a flat scan
/// of `body`.
fn after_key<'a>(body: &'a [u8], pattern: &[u8]) -> Option<&'a [u8]> {
    let at = body.windows(pattern.len()).position(|w| w == pattern)?;
    Some(&body[at + pattern.len()..])
}

/// A number, bare or (past 2^53) quoted.
fn number(rest: &[u8]) -> Option<u64> {
    let rest = rest.strip_prefix(b"\"").unwrap_or(rest);
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Extracts an [`Answer`] from a 200 reply body; `None` if a field is
/// missing or malformed.
pub fn parse_answer(body: &[u8]) -> Option<Answer> {
    let status_rest = after_key(body, b"\"status\":")?.strip_prefix(b"\"")?;
    let status_len = status_rest.iter().position(|&b| b == b'"')?;
    let embeddings = match after_key(body, b"\"embeddings\":") {
        None => None,
        Some(rest) => Some(parse_embeddings(rest)?),
    };
    Some(Answer {
        status: match &status_rest[..status_len] {
            b"completed" => Status::Completed,
            b"limit-reached" => Status::LimitReached,
            _ => Status::Other,
        },
        count: number(after_key(body, b"\"count\":")?)?,
        elapsed_us: number(after_key(body, b"\"elapsed_us\":")?)?,
        queue_us: number(after_key(body, b"\"queue_us\":")?)?,
        exec_us: number(after_key(body, b"\"exec_us\":")?)?,
        embeddings,
    })
}

/// Parses `[[1,2],[3,4]]` (no whitespace, as the server writes it).
fn parse_embeddings(rest: &[u8]) -> Option<Vec<Vec<u32>>> {
    let mut out = Vec::new();
    let mut i = 1; // past the outer '['
    if *rest.first()? != b'[' {
        return None;
    }
    loop {
        match *rest.get(i)? {
            b']' => return Some(out),
            b',' => i += 1,
            b'[' => {
                i += 1;
                let mut tuple = Vec::new();
                loop {
                    let digits = rest[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                    if digits > 0 {
                        tuple.push(
                            std::str::from_utf8(&rest[i..i + digits])
                                .ok()?
                                .parse()
                                .ok()?,
                        );
                        i += digits;
                    }
                    match *rest.get(i)? {
                        b',' => i += 1,
                        b']' => {
                            i += 1;
                            break;
                        }
                        _ => return None,
                    }
                }
                out.push(tuple);
            }
            _ => return None,
        }
    }
}
