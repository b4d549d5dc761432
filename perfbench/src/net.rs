//! The load side: a keep-alive HTTP/1.1 client connection, and the
//! `ssa-server` child process it talks to.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A response: status and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(msg.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// A running `ssa-server` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: String,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawn the server on an ephemeral port and wait for its
    /// `listening on ADDR` line. Its stderr goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> std::io::Result<Server> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("listening on ") {
                        break Ok(a.trim().to_string());
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(bad(format!(
                        "server exited before listening; see {}",
                        log.display()
                    )));
                }
            }
        }?;
        Ok(Server {
            child,
            addr,
            spawned,
        })
    }

    /// Peak resident set size (VmHWM) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL the server and wait for it to end.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
