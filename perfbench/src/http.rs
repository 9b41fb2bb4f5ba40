//! A minimal blocking HTTP/1.1 client: one connection per request, as
//! `cornetd` closes every connection after its response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-request timeout (connect, each read and each write).
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// A response: status and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Send one request; `Err` on a transport failure or timeout.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: Option<&str>,
    body: &str,
) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(TIMEOUT)).ok();
    stream.set_write_timeout(Some(TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(t) = tenant {
        head.push_str(&format!("X-Cornet-Tenant: {t}\r\n"));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}
