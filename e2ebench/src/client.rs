//! A closed-loop keep-alive HTTP client: one request in flight per
//! connection, each round-trip timed from write to last body byte.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use amp_portal::server::read_framed_response;

pub struct Reply {
    pub status: u16,
    pub head: String,
    pub body: String,
    pub rtt: Duration,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Percent-encode a path segment, query or form value (space as `%20`,
/// which both the path and the query decoder accept).
pub fn encode(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for b in v.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        Ok(Client {
            addr,
            stream: open(addr)?,
            buf: Vec::new(),
        })
    }

    pub fn get(&mut self, path: &str, session: Option<&str>) -> Result<Reply, String> {
        let cookie = session
            .map(|s| format!("Cookie: amp_session={s}\r\n"))
            .unwrap_or_default();
        let raw = format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{cookie}\r\n");
        self.round_trip(&raw)
    }

    pub fn post(
        &mut self,
        path: &str,
        form: &[(&str, String)],
        session: Option<&str>,
    ) -> Result<Reply, String> {
        let body = form
            .iter()
            .map(|(k, v)| format!("{k}={}", encode(v)))
            .collect::<Vec<_>>()
            .join("&");
        let cookie = session
            .map(|s| format!("Cookie: amp_session={s}\r\n"))
            .unwrap_or_default();
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{cookie}\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.round_trip(&raw)
    }

    /// One request, one framed response. A connection the server closed
    /// (idle timeout between phases) is reopened once, before timing.
    fn round_trip(&mut self, raw: &str) -> Result<Reply, String> {
        match self.try_round_trip(raw) {
            Ok(r) => Ok(r),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof
                        | std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                self.stream = open(self.addr).map_err(|e| format!("reconnect: {e}"))?;
                self.buf.clear();
                self.try_round_trip(raw)
                    .map_err(|e| format!("transport: {e}"))
            }
            Err(e) => Err(format!("transport: {e}")),
        }
    }

    fn try_round_trip(&mut self, raw: &str) -> std::io::Result<Reply> {
        let start = Instant::now();
        self.stream.write_all(raw.as_bytes())?;
        let resp = read_framed_response(&mut self.stream, &mut self.buf)?;
        let rtt = start.elapsed();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap_or((&resp, ""));
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let reply = Reply {
            status,
            head: head.to_string(),
            body: body.to_string(),
            rtt,
        };
        if reply
            .header("Connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.stream = open(self.addr)?;
            self.buf.clear();
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::encode;

    #[test]
    fn form_encoding() {
        assert_eq!(encode("HD 200123"), "HD%20200123");
        assert_eq!(encode("1.05"), "1.05");
        assert_eq!(encode("a&b=c"), "a%26b%3Dc");
    }
}
