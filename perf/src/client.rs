//! The load generator's connection: a plain blocking `TcpStream` with a
//! `BufReader` on the read half. One request outstanding, one `write`
//! per request line, no socket options — whatever the server's
//! transport costs a naive client is what gets measured.

use crate::stats::Fnv;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `OK n`: the announced payload line count; `None` for `ERR`.
    pub ok_lines: Option<usize>,
    /// FNV-1a over the payload lines (newline-terminated).
    pub payload_hash: u64,
}

pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> io::Result<LineClient> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(LineClient {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Send one request line and read its whole framed response.
    pub fn request(&mut self, request_line: &str) -> io::Result<Reply> {
        let mut framed = Vec::with_capacity(request_line.len() + 1);
        framed.extend_from_slice(request_line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        read_reply(&mut self.reader, &mut self.line)
    }
}

/// Read one `OK n` + n lines (or `ERR …`) frame from `reader`.
pub fn read_reply(reader: &mut impl BufRead, line: &mut String) -> io::Result<Reply> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let ok_lines = line
        .strip_prefix("OK ")
        .and_then(|n| n.trim_end().parse::<usize>().ok());
    let mut hash = Fnv::default();
    for _ in 0..ok_lines.unwrap_or(0) {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        hash.write(line.as_bytes());
    }
    Ok(Reply {
        ok_lines,
        payload_hash: hash.0,
    })
}

/// What an oracle payload looks like once framed and read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub lines: usize,
    pub hash: u64,
    /// `<result>` elements in the payload.
    pub answers: usize,
}

impl Expected {
    /// What [`read_reply`] will report for `payload` served over the wire.
    pub fn of(payload: &str) -> Expected {
        let mut hash = Fnv::default();
        let mut lines = 0;
        for l in payload.lines() {
            hash.write(l.as_bytes());
            hash.write(b"\n");
            lines += 1;
        }
        Expected {
            lines,
            hash: hash.0,
            answers: payload.matches("  <result").count(),
        }
    }

    pub fn matches(&self, reply: &Reply) -> bool {
        reply.ok_lines == Some(self.lines) && reply.payload_hash == self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;
    use ncq_core::Database;
    use ncq_server::{NetConfig, Server, ServerConfig, TcpAcceptor};
    use std::io::Read;
    use std::sync::Arc;
    use std::time::Instant;

    /// An independent client, as small as a client can be: raw socket,
    /// one byte at a time until the newline.
    fn independent_ping_us(addr: SocketAddr, n: usize) -> Vec<f64> {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut byte = [0u8; 1];
        (0..n)
            .map(|_| {
                let t = Instant::now();
                s.write_all(b"PING\n").unwrap();
                while byte[0] != b'\n' {
                    s.read_exact(&mut byte).unwrap();
                }
                byte[0] = 0;
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    }

    /// Transport fidelity: the load generator sees the same round trip
    /// as a client that shares no code with it.
    #[test]
    fn ping_round_trip_matches_an_independent_client() {
        let db = Database::from_xml_str("<bib><a>Ben Bit</a><y>1999</y></bib>").unwrap();
        let server = Server::start(Arc::new(db), ServerConfig::default());
        let acceptor =
            TcpAcceptor::bind("127.0.0.1:0", server.client(), NetConfig::default()).unwrap();
        let mut client = LineClient::connect(acceptor.local_addr()).unwrap();
        let ours: Vec<f64> = (0..25)
            .map(|_| {
                let t = Instant::now();
                let reply = client.request("PING").unwrap();
                assert_eq!(reply.ok_lines, Some(0));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let theirs = independent_ping_us(acceptor.local_addr(), 25);
        // Skip each connection's first exchanges (no delayed ACK yet).
        let (a, b) = (median(&ours[5..]), median(&theirs[5..]));
        assert!(
            (a - b).abs() / b <= 0.10,
            "LineClient PING p50 {a:.0} us vs independent client {b:.0} us"
        );
    }

    #[test]
    fn frames_parse_and_hash_like_the_oracle_expects() {
        let wire = b"OK 2\n<answer>\n</answer>\nERR nope (req 1)\nOK 0\n";
        let mut reader = &wire[..];
        let mut line = String::new();
        let ok = read_reply(&mut reader, &mut line).unwrap();
        assert!(Expected::of("<answer>\n</answer>").matches(&ok));
        let err = read_reply(&mut reader, &mut line).unwrap();
        assert_eq!(err.ok_lines, None);
        let empty = read_reply(&mut reader, &mut line).unwrap();
        assert!(Expected::of("").matches(&empty));
        assert!(read_reply(&mut reader, &mut line).is_err());
    }
}
