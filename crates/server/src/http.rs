//! Hand-rolled HTTP/1.1 over `std::net` (the workspace is offline — no
//! hyper, no tokio). Just enough of RFC 7230 for the wire protocol in
//! DESIGN.md §15: request line, headers, `Content-Length` bodies,
//! keep-alive, and a bounded thread-per-connection pool fed by an
//! accept loop.
//!
//! The accept loop carries the `server.accept` failpoint: an injected
//! accept failure drops that one connection attempt and keeps serving —
//! robustness tests prove a transient accept error never kills the
//! server.
//!
//! Load shedding: accepted connections queue in a *bounded* channel
//! between the accept loop and the worker pool. When every worker is
//! busy and the backlog is full, the accept loop answers the overflow
//! connection inline with `503 Service Unavailable` + `Retry-After` and
//! closes it — bounded memory under overload, and clients get an
//! explicit retry signal instead of an unbounded queue or a silent
//! reset (`scripts/server_smoke.sh` retries on it with jittered
//! backoff).

use crate::api;
use crate::host::ServerState;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Largest request body accepted (64 MiB): bounds memory per connection.
const MAX_BODY: usize = 64 << 20;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string, e.g. `/sessions/3/view`.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// One response; `write_to` renders the status line + headers + body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// Seconds for a `Retry-After` header (load-shedding 503s).
    pub retry_after: Option<u32>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// The load-shedding response: the worker pool and its bounded
    /// backlog are saturated, come back after `retry_after` seconds.
    pub fn unavailable(retry_after: u32) -> Response {
        let mut resp = Response::json(
            503,
            format!(
                "{{\"error\": \"server saturated, retry after {retry_after}s\", \"status\": 503}}\n"
            ),
        );
        resp.retry_after = Some(retry_after);
        resp
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        if let Some(secs) = self.retry_after {
            write!(out, "Retry-After: {secs}\r\n")?;
        }
        out.write_all(b"\r\n")?;
        out.write_all(self.body.as_bytes())
    }
}

/// Percent-decode a query component (enough for `%20`/`+` style input).
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> HashMap<String, String> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Read one request off the connection. `Ok(None)` means the client
/// closed the connection cleanly between requests (keep-alive end).
fn read_request(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed request line: {line:?}"),
            ))
        }
    };
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Ok(None);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad Content-Length: {value:?}"),
                    )
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, HashMap::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

/// Serve one connection until the client closes it, asks to, or the
/// server is stopping. A short read timeout keeps idle keep-alive
/// connections from wedging shutdown: between requests the worker wakes
/// every 200 ms to check the stop flag.
fn serve_connection(stream: TcpStream, state: &ServerState, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
    // A response larger than the write buffer leaves in several writes;
    // with Nagle on, its last partial segment waits for the client's
    // delayed ACK (~40 ms). Every response is flushed whole, so send now.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(writer);
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                let keep = req.keep_alive;
                let resp = api::route(state, &req);
                if resp
                    .write_to(&mut writer, keep)
                    .and_then(|()| writer.flush())
                    .is_err()
                    || !keep
                {
                    return;
                }
            }
            Ok(None) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle between keep-alive requests: wait more unless the
                // server is shutting down.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) => {
                // Best-effort 400 for a malformed request, then close.
                let resp = Response::text(400, format!("bad request: {e}\n"));
                let _ = resp.write_to(&mut writer, false);
                let _ = writer.flush();
                return;
            }
        }
    }
}

/// A running server: accept loop + bounded worker pool, stoppable.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the pool, and join all threads. In-flight
    /// requests finish; queued connections are served before exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The `server.accept` failpoint: a transient fault on one accepted
/// connection. Returns true when the connection should be dropped.
fn accept_fault() -> bool {
    #[cfg(feature = "fault-injection")]
    {
        ssa_relation::fault::check("server.accept").is_err()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        false
    }
}

/// Seconds a shed client is told to wait before retrying.
const SHED_RETRY_AFTER_SECS: u32 = 1;

/// Bind and serve `state` on `addr` with `pool` worker threads and a
/// default accept backlog of `pool * 16 + 16` queued connections.
/// Returns once the listener is live; use the handle to stop.
pub fn serve(
    state: Arc<ServerState>,
    addr: impl ToSocketAddrs,
    pool: usize,
) -> std::io::Result<ServerHandle> {
    let backlog = pool.max(1) * 16 + 16;
    serve_with(state, addr, pool, backlog)
}

/// [`serve`] with an explicit accept-backlog bound: at most `backlog`
/// accepted connections wait for a worker; the overflow connection is
/// answered inline with a 503 + `Retry-After` and closed.
pub fn serve_with(
    state: Arc<ServerState>,
    addr: impl ToSocketAddrs,
    pool: usize,
    backlog: usize,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(backlog.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<JoinHandle<()>> = (0..pool.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("ssa-server-worker-{i}"))
                .spawn(move || loop {
                    let next = {
                        let guard = match rx.lock() {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        guard.recv()
                    };
                    match next {
                        Ok(stream) => serve_connection(stream, &state, &stop),
                        Err(_) => return, // sender dropped: shutdown
                    }
                })
                .expect("spawn worker thread")
        })
        .collect();

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("ssa-server-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                if accept_fault() {
                    continue; // transient fault: drop this connection only
                }
                match stream {
                    Ok(s) => match tx.try_send(s) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(s)) => {
                            // Pool + backlog saturated: shed this
                            // connection with an explicit retry signal
                            // instead of queueing without bound.
                            let mut s = s;
                            let _ = s.set_nodelay(true);
                            let _ = Response::unavailable(SHED_RETRY_AFTER_SECS)
                                .write_to(&mut s, false);
                            let _ = s.flush();
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => break,
                    },
                    Err(_) => continue, // transient OS-level accept error
                }
            }
            // Dropping `tx` here lets the workers drain and exit.
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        workers,
    })
}
