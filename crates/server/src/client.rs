//! A minimal blocking HTTP/1.1 JSON client for the daemon — shared by the
//! integration tests, the `lcs_client` CLI, and the layered benchmark
//! (the container has no curl). One [`Client`] holds one keep-alive connection;
//! a request on a dead connection reconnects once before failing.

use crate::json::{self, Json};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to the daemon.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

/// A parsed response: status code and JSON body.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Parsed JSON body ([`Value::Null`] for an empty body).
    pub body: Value,
}

impl Response {
    /// `true` for 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Field lookup on the body object, `None` if absent.
    pub fn field<'a>(&'a self, name: &str) -> Option<&'a Value> {
        json::lookup(&self.body, name)
    }
}

impl Client {
    /// A client for the given address (connects lazily).
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            stream: None,
        }
    }

    /// Overrides the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// GET the path.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, b"")
    }

    /// POST a JSON value to the path.
    pub fn post(&mut self, path: &str, body: &Value) -> std::io::Result<Response> {
        let rendered = json::render(body);
        self.request("POST", path, rendered.as_bytes())
    }

    /// POST raw bytes (for malformed-payload tests).
    pub fn post_raw(&mut self, path: &str, body: &[u8]) -> std::io::Result<Response> {
        self.request("POST", path, body)
    }

    /// One request; reconnects once if the keep-alive peer went away.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        match self.try_request(method, path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.stream = None;
                self.try_request(method, path, body)
            }
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let stream = self.connect()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: lcs\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        let response = read_response(stream);
        if response.is_err() {
            self.stream = None;
        }
        response
    }
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        if head.len() > 64 * 1024 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response head too large",
            ));
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line: {status_line}"),
            )
        })?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("connection")
            && value.trim().eq_ignore_ascii_case("close")
        {
            close = true;
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    if close {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    let text = String::from_utf8_lossy(&body);
    let value = if text.trim().is_empty() {
        Value::Null
    } else {
        serde_json::from_str::<Json>(&text)
            .map(|j| j.0)
            .map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response body is not JSON: {e}"),
                )
            })?
    };
    Ok(Response {
        status,
        body: value,
    })
}
