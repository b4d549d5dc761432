//! End-to-end tests over real TCP: boot the server on an ephemeral
//! port, drive the wire protocol with a minimal HTTP/1.1 client, and
//! check the session model — shared-snapshot reads, serialized writes,
//! refresh, and the error→status mapping of DESIGN.md §15.

use ssa_server::{serve, ServerHandle, ServerState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const CARS_CSV: &str = "\
Id,Model,Price,Year
1,Jetta,15500,2005
2,Golf,13990,2004
3,Jetta,16990,2006
4,Passat,22400,2006
";

/// Read one HTTP response off a (possibly keep-alive) connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .expect("read status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code present")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("read header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .expect("write request");
}

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, method, path, body, true);
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

fn boot() -> (Arc<ServerState>, ServerHandle) {
    let state = Arc::new(ServerState::new());
    let handle = serve(Arc::clone(&state), ("127.0.0.1", 0), 4).expect("bind ephemeral port");
    (state, handle)
}

#[test]
fn sheet_lifecycle_and_error_mapping() {
    let (_state, handle) = boot();
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "health body: {body}");

    let (status, body) = request(addr, "PUT", "/sheets/cars", CARS_CSV);
    assert_eq!(status, 201, "create: {body}");
    assert!(body.contains("\"rows\": 4"), "create body: {body}");

    let (status, body) = request(addr, "PUT", "/sheets/cars", CARS_CSV);
    assert_eq!(status, 409, "duplicate create: {body}");

    let (status, body) = request(addr, "GET", "/sheets/cars", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"version\": 0"), "meta body: {body}");

    let (status, body) = request(addr, "GET", "/sheets/nope", "");
    assert_eq!(status, 404, "unknown sheet: {body}");

    let (status, body) = request(addr, "GET", "/sheets/cars/csv", "");
    assert_eq!(status, 200);
    assert!(body.starts_with("Id,Model,Price,Year"), "csv body: {body}");

    // Writer endpoints bump the published version each commit.
    let (status, body) = request(addr, "POST", "/sheets/cars/rows", "5,Beetle,9900,2001\n");
    assert_eq!(status, 200, "append: {body}");
    assert!(body.contains("\"version\": 1"), "append body: {body}");

    let (status, body) = request(addr, "POST", "/sheets/cars/cells", "0 Price 14999");
    assert_eq!(status, 200, "update: {body}");
    assert!(body.contains("\"version\": 2"), "update body: {body}");

    let (status, body) = request(addr, "POST", "/sheets/cars/delete", "4");
    assert_eq!(status, 200, "delete: {body}");
    assert!(body.contains("\"version\": 3"), "delete body: {body}");

    // Client mistakes map to 400/404, not 500.
    let (status, _) = request(addr, "POST", "/sheets/cars/rows", "not,enough\n");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/sheets/cars/cells", "0 NoSuchCol 1");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "PATCH", "/sheets/cars", "");
    assert_eq!(status, 405);

    handle.shutdown();
}

#[test]
fn session_flow_reads_pinned_snapshot_until_refresh() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);

    let (status, body) = request(addr, "POST", "/sessions?sheet=cars", "");
    assert_eq!(status, 201, "session: {body}");
    assert!(body.contains("\"session\": 1"), "session body: {body}");

    // Query-state ops work and the view reflects them.
    let (status, body) = request(
        addr,
        "POST",
        "/sessions/1/apply",
        "select Price < 20000\ngroup Model asc\nagg avg Price\n",
    );
    assert_eq!(status, 200, "apply: {body}");
    let (status, view) = request(addr, "GET", "/sessions/1/view", "");
    assert_eq!(status, 200);
    assert!(view.contains("Jetta"), "view: {view}");
    assert!(!view.contains("Passat"), "filtered out: {view}");

    let (status, explain) = request(addr, "GET", "/sessions/1/explain", "");
    assert_eq!(status, 200);
    assert!(!explain.is_empty());

    // A writer appends; the session still reads its pinned snapshot.
    request(addr, "POST", "/sheets/cars/rows", "6,Jetta,12000,2003\n");
    let (_, view_before) = request(addr, "GET", "/sessions/1/view", "");
    assert_eq!(view_before, view, "pinned snapshot must not move");

    // Refresh re-pins to the latest snapshot, keeping query state.
    let (status, body) = request(addr, "POST", "/sessions/1/refresh", "");
    assert_eq!(status, 200, "refresh: {body}");
    assert!(body.contains("\"version\": 1"), "refresh body: {body}");
    let (_, view_after) = request(addr, "GET", "/sessions/1/view", "");
    assert!(view_after.contains("12000"), "refreshed view: {view_after}");
    assert!(
        !view_after.contains("Passat"),
        "selection kept: {view_after}"
    );

    // Base edits through a session are refused with 409.
    let (status, body) = request(addr, "POST", "/sessions/1/apply", "feed 7, 'X', 1, 2000");
    assert_eq!(status, 409, "write via session: {body}");
    for cmd in [
        "setcell 0 Price 1",
        "delrows 0",
        "load cars",
        "sql SELECT * FROM cars",
    ] {
        let (status, _) = request(addr, "POST", "/sessions/1/apply", cmd);
        assert_eq!(status, 409, "write command not refused: {cmd}");
    }

    // Bad script input is the client's 400; unknown session is 404.
    let (status, _) = request(addr, "POST", "/sessions/1/apply", "select NoSuchCol > 1");
    assert_eq!(status, 404, "unknown column");
    let (status, _) = request(addr, "POST", "/sessions/1/apply", "bogus");
    assert_eq!(status, 400, "unknown command");
    let (status, _) = request(addr, "GET", "/sessions/99/view", "");
    assert_eq!(status, 404);

    let (status, _) = request(addr, "DELETE", "/sessions/1", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "GET", "/sessions/1/view", "");
    assert_eq!(status, 404, "closed session is gone");

    handle.shutdown();
}

/// `explain` names what a refresh did: the patch kind when the session's
/// warm cache was patched with the published edits, and the named reason
/// when it re-evaluated in full.
#[test]
fn refresh_reports_patch_or_named_fallback_in_explain() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);
    let last_delta = |id: u32| {
        let (status, explain) = request(addr, "GET", &format!("/sessions/{id}/explain"), "");
        assert_eq!(status, 200);
        explain
            .lines()
            .find_map(|l| l.strip_prefix("last delta: "))
            .unwrap_or_else(|| panic!("no last delta line: {explain}"))
            .to_string()
    };
    // Session 1 patches; session 2's dedup forces the full fallback.
    for (id, gestures) in [(1, "group Model asc\nagg avg Price\n"), (2, "dedup\n")] {
        let (status, body) = request(addr, "POST", "/sessions?sheet=cars", "");
        assert_eq!(status, 201, "session: {body}");
        let (status, body) = request(addr, "POST", &format!("/sessions/{id}/apply"), gestures);
        assert_eq!(status, 200, "apply: {body}");
        let (status, _) = request(addr, "GET", &format!("/sessions/{id}/view"), "");
        assert_eq!(status, 200);
    }

    request(addr, "POST", "/sheets/cars/rows", "5,Jetta,12000,2003\n");
    request(addr, "POST", "/sheets/cars/cells", "1 Price 13000");
    request(addr, "POST", "/sheets/cars/delete", "3");
    for id in [1, 2] {
        let (status, body) = request(addr, "POST", &format!("/sessions/{id}/refresh"), "");
        assert_eq!(status, 200, "refresh: {body}");
        assert!(body.contains("\"version\": 3"), "refresh body: {body}");
    }
    assert_eq!(
        last_delta(1),
        "rebased (1 appended, 1 deleted, 1 cells updated)"
    );
    assert_eq!(
        last_delta(2),
        "full (duplicate elimination re-decides survivors)"
    );
    let (_, view) = request(addr, "GET", "/sessions/1/view", "");
    assert!(
        view.contains("12000") && view.contains("13000"),
        "view: {view}"
    );
    assert!(!view.contains("Passat"), "deleted row still shown: {view}");

    // A gap longer than the published edit list re-evaluates in full.
    for i in 0..40 {
        request(
            addr,
            "POST",
            "/sheets/cars/rows",
            &format!("{},Golf,9000,2001\n", 10 + i),
        );
    }
    request(addr, "POST", "/sessions/1/refresh", "");
    assert_eq!(
        last_delta(1),
        "full (refresh gap not in the published edit list)"
    );
    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    for i in 0..5 {
        send_request(&mut writer, "GET", "/sheets/cars", "", false);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i} on one connection");
        assert!(body.contains("\"sheet\": \"cars\""), "body {i}: {body}");
    }
    // Shutdown must complete even though this keep-alive connection is
    // still open and idle (the worker's read timeout checks the stop
    // flag); the streams are dropped only after the join.
    handle.shutdown();
    drop(writer);
    drop(reader);
}

#[test]
fn concurrent_sessions_see_consistent_views() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);

    // Several client threads each open a session and read repeatedly
    // while a writer streams appends; every view a session sees must be
    // one of its own pinned states, never a torn intermediate.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, body) = request(addr, "POST", "/sessions?sheet=cars", "");
                assert_eq!(status, 201, "session: {body}");
                let id: u64 = body
                    .split("\"session\": ")
                    .nth(1)
                    .and_then(|r| r.split(',').next())
                    .and_then(|n| n.trim().parse().ok())
                    .expect("session id in body");
                let (_, baseline) = request(addr, "GET", &format!("/sessions/{id}/view"), "");
                for _ in 0..10 {
                    let (status, view) = request(addr, "GET", &format!("/sessions/{id}/view"), "");
                    assert_eq!(status, 200);
                    assert_eq!(view, baseline, "pinned view drifted");
                }
            })
        })
        .collect();
    let writer = std::thread::spawn(move || {
        for i in 0..10 {
            let (status, body) = request(
                addr,
                "POST",
                "/sheets/cars/rows",
                &format!("{},Filler,{},2000\n", 100 + i, 1000 + i),
            );
            assert_eq!(status, 200, "append {i}: {body}");
        }
    });
    for r in readers {
        r.join().expect("reader thread");
    }
    writer.join().expect("writer thread");

    let (_, body) = request(addr, "GET", "/sheets/cars", "");
    assert!(body.contains("\"rows\": 14"), "final rows: {body}");
    assert!(body.contains("\"version\": 10"), "final version: {body}");
    handle.shutdown();
}

#[test]
fn large_view_twice_on_one_keep_alive_connection() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    let mut csv = String::from("Id,Model,Price,Year\n");
    for i in 0..4000 {
        csv.push_str(&format!(
            "{i},Model{},{},{}\n",
            i % 37,
            10_000 + i,
            1990 + i % 30
        ));
    }
    let (status, body) = request(addr, "PUT", "/sheets/big", &csv);
    assert_eq!(status, 201, "create: {body}");
    let (status, body) = request(addr, "POST", "/sessions?sheet=big", "");
    assert_eq!(status, 201, "session: {body}");

    // Each response is larger than the server's write buffer, so it
    // leaves in several writes. Both must arrive whole, and the second
    // must start exactly where the first one's Content-Length ended.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut bodies = Vec::new();
    for _ in 0..2 {
        send_request(&mut writer, "GET", "/sessions/1/view", "", false);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.len() > 64 * 1024, "view is only {} bytes", body.len());
        assert!(body.contains("Model36"), "view lost rows");
        bodies.push(body);
    }
    assert_eq!(bodies[0], bodies[1], "same pinned snapshot, same bytes");
    handle.shutdown();
    drop(writer);
    drop(reader);
}

#[test]
fn delete_counts_distinct_rows_and_past_the_end_rows_are_404() {
    let (_state, handle) = boot();
    let addr = handle.addr();
    request(addr, "PUT", "/sheets/cars", CARS_CSV);

    // Repeated ids delete (and count) once.
    let (status, body) = request(addr, "POST", "/sheets/cars/delete", "3 3");
    assert_eq!(status, 200, "delete: {body}");
    assert!(body.contains("\"deleted\": 1,"), "delete body: {body}");
    let (_, body) = request(addr, "GET", "/sheets/cars", "");
    assert!(body.contains("\"rows\": 3"), "rows after delete: {body}");
    let (status, body) = request(addr, "POST", "/sheets/cars/delete", "0,2 0");
    assert_eq!(status, 200, "delete: {body}");
    assert!(body.contains("\"deleted\": 2,"), "delete body: {body}");

    // A past-the-end row is an unknown resource, not a malformed request,
    // and leaves the sheet and its version alone.
    let (status, body) = request(addr, "POST", "/sheets/cars/delete", "0 1");
    assert_eq!(status, 404, "past-the-end delete: {body}");
    let (status, body) = request(addr, "POST", "/sheets/cars/cells", "1 Price 1");
    assert_eq!(status, 404, "past-the-end cell: {body}");
    let (_, body) = request(addr, "GET", "/sheets/cars", "");
    assert!(body.contains("\"rows\": 1"), "rows after refusals: {body}");
    assert!(
        body.contains("\"version\": 2"),
        "version after refusals: {body}"
    );
    handle.shutdown();
}
