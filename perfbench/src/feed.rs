//! `feed`: live base writes beside a polling dashboard on one durable
//! sheet, open loop at fixed rates.

use crate::gen::{self, Write, WriteStream};
use crate::net::{Conn, Server};
use spreadsheet_algebra::{DurableSheet, FsyncPolicy, SheetError, SheetOp};
use ssa_relation::{Relation, Schema};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Writes per second, the issue's rate. One append costs about 5 ms at
/// 30k rows under a live snapshot, so the writer is at most a quarter
/// busy and the loop measures latency under load without a backlog.
pub const WRITE_RATE: f64 = 40.0;
/// Dashboard polls (refresh + view) per second, the issue's rate: one
/// poll per four writes. A write that publishes over a snapshot no
/// session pins also frees that snapshot's rows; one whose predecessor
/// the dashboard still pins does not. At one poll per two writes the two
/// kinds were exactly half the acks each, so the ack median sat in the
/// gap between the two modes and moved by a quarter between runs; at one
/// per four it lies inside the slower mode. Polls fall midway between two
/// writes: due at the same instant as a write, which of the two the
/// server ran first flipped from run to run, and a seeded Poisson stream
/// made the dashboard tail depend on each seed's bursts.
pub const POLL_RATE: f64 = 10.0;
/// The server's fsync policy, fixed on both sides.
pub const FSYNC: &str = "batch:25";
/// Two fsync intervals: after this every acked write is on disk.
pub const SETTLE: Duration = Duration::from_millis(50);
/// Fresh servers a run's measured time is split over, each on the
/// pristine sheet with the same write stream and its own crash check. The
/// gated feed medians are the median of the segments' medians. On the
/// 2-core machine the rates were chosen on, the ack median of one server
/// process differed from the next one's by up to a quarter (12.5 and 15.9
/// ms within one run at 100k rows), and the shared machine had busy spells
/// that doubled the dashboard median of a whole run; a median over nine
/// servers ignores a spell that covers fewer than five of them.
pub const SEGMENTS: usize = 9;

pub fn policy() -> FsyncPolicy {
    FsyncPolicy::parse(FSYNC).expect("fixed fsync policy parses")
}

pub struct Inputs {
    pub dir: PathBuf,
    pub sheet: PathBuf,
    /// The base the server starts from, for the replay oracle.
    pub initial: Relation,
    /// The dashboard session's gestures.
    pub dashboard: Vec<String>,
    pub seed: u64,
}

pub fn dashboard_lines(seed: u64) -> Vec<String> {
    vec![
        "group o_orderstatus asc".to_string(),
        "agg avg o_totalprice 2".to_string(),
        format!("select o_totalprice > {}", gen::price_threshold(seed)),
    ]
}

/// Generate `orders` and write it as a durable sheet (snapshot + empty
/// WAL) under `dir`.
pub fn prepare(dir: &Path, seed: u64) -> Result<Inputs, String> {
    let inputs = Inputs {
        dir: dir.to_path_buf(),
        sheet: dir.join("orders.sheet"),
        initial: gen::orders(gen::FEED_ROWS, seed),
        dashboard: dashboard_lines(seed),
        seed,
    };
    reset(&inputs)?;
    Ok(inputs)
}

/// (Re)write the sheet as the generated table with an empty WAL.
pub fn reset(inputs: &Inputs) -> Result<(), String> {
    DurableSheet::create(&inputs.sheet, 0, inputs.initial.clone(), policy())
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Spawn the durable server on the sheet and time spawn → sheet answers.
pub fn spawn(bin: &Path, inputs: &Inputs, log: &Path) -> std::io::Result<(Server, f64)> {
    let args: Vec<String> = [
        "--pool",
        "2",
        "--durable",
        &inputs.dir.display().to_string(),
        "--fsync",
        FSYNC,
        "--open",
        &inputs.sheet.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = Server::spawn(bin, &args, log)?;
    let r = Conn::open(&server.addr)?.request("GET", "/sheets/orders", "")?;
    if !r.ok() {
        return Err(std::io::Error::other(format!("orders: {}", r.status)));
    }
    let secs = server.spawned.elapsed().as_secs_f64();
    Ok((server, secs))
}

/// A write as the op the server's route commits for it.
pub fn to_op(schema: &Schema, w: &Write) -> Result<SheetOp, SheetError> {
    use ssa_server::wire;
    Ok(match w {
        Write::Rows(body) => SheetOp::AppendRows {
            rows: wire::rows_from_csv(schema, body)?,
        },
        Write::Cells(body) => {
            let mut parts = body.splitn(3, ' ');
            let (row, column, literal) = (parts.next(), parts.next(), parts.next());
            let (Some(row), Some(column), Some(literal)) = (row, column, literal) else {
                return Err(SheetError::Persist {
                    message: format!("bad cell body {body:?}"),
                });
            };
            SheetOp::UpdateCell {
                row: row.parse().map_err(|_| SheetError::Persist {
                    message: format!("bad row {row:?}"),
                })?,
                column: column.to_string(),
                value: wire::parse_literal(literal)?,
            }
        }
        Write::Delete(body) => SheetOp::DeleteRows {
            ids: wire::parse_row_ids(body)?,
        },
    })
}

#[derive(Default)]
pub struct Run {
    /// Write ack latency from due time, by route.
    pub acks: Vec<(&'static str, f64)>,
    pub dashboards: Vec<f64>,
    /// Send → reply round trips, by route.
    pub rtts: Vec<(&'static str, f64)>,
    /// Open-loop lateness: send time minus the later of due time and the
    /// previous response.
    pub lag: Vec<f64>,
    /// Writes the server acked, in order.
    pub acked: Vec<Write>,
    /// Each segment's ack and dashboard medians, in order.
    pub segment_acks: Vec<f64>,
    pub segment_dashboards: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub elapsed: f64,
}

impl Run {
    /// Append a later segment's samples and counts.
    pub fn extend(&mut self, later: Run) {
        self.acks.extend(later.acks);
        self.dashboards.extend(later.dashboards);
        self.rtts.extend(later.rtts);
        self.lag.extend(later.lag);
        self.acked.extend(later.acked);
        self.segment_acks.extend(later.segment_acks);
        self.segment_dashboards.extend(later.segment_dashboards);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.elapsed += later.elapsed;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Open the dashboard session (untimed), then send the writes and the
/// polls on their fixed schedules for `seconds`, from one thread in due
/// order. With one request in flight at a time, the client and the
/// server's two workers do not compete for the machine's two cores: with
/// a sending thread per connection, a write and a poll overlapped whenever
/// one ran long, and in a ten-seed batch taken while the shared machine
/// was busy, three runs' dashboard medians were 1.5–2.4 times the rest's.
pub fn drive(addr: &str, inputs: &Inputs, seconds: f64) -> std::io::Result<Run> {
    let mut dash = Conn::open(addr)?;
    let r = dash.request("POST", "/sessions?sheet=orders", "")?;
    let id: u64 = r
        .text()
        .split("\"session\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("no session in {:?}", r.text())))?;
    for line in &inputs.dashboard {
        let r = dash.request("POST", &format!("/sessions/{id}/apply"), line)?;
        if !r.ok() {
            return Err(std::io::Error::other(format!("{line}: {}", r.text())));
        }
    }
    let mut writer = Conn::open(addr)?;
    let mut stream = WriteStream::new(gen::FEED_ROWS, inputs.seed);
    let mut run = Run::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut free = start;
    let (mut writes, mut polls) = (0u32, 0u32);
    loop {
        let write_at = f64::from(writes) / WRITE_RATE;
        let poll_at = (f64::from(polls) + 0.5 * POLL_RATE / WRITE_RATE) / POLL_RATE;
        let is_write = write_at < poll_at;
        let due = start + Duration::from_secs_f64(write_at.min(poll_at));
        if due >= end {
            break;
        }
        let write = is_write.then(|| stream.next_write());
        sleep_until(due);
        let sent = Instant::now();
        run.lag.push(ms(sent - due.max(free)));
        run.attempted += 1;
        let ok = if let Some(write) = write {
            writes += 1;
            let path = format!("/sheets/orders/{}", write.route());
            writer.request("POST", &path, write.body()).map(|r| {
                if r.ok() {
                    run.acks.push((write.route(), ms(due.elapsed())));
                    run.rtts.push((write.route(), ms(sent.elapsed())));
                    run.acked.push(write);
                }
                r.ok()
            })
        } else {
            polls += 1;
            dash.request("POST", &format!("/sessions/{id}/refresh"), "")
                .and_then(|r| {
                    run.rtts.push(("refresh", ms(sent.elapsed())));
                    let t = Instant::now();
                    let v = dash.request("GET", &format!("/sessions/{id}/view"), "")?;
                    run.rtts.push(("view_dashboard", ms(t.elapsed())));
                    if r.ok() && v.ok() {
                        run.dashboards.push(ms(due.elapsed()));
                    }
                    Ok(r.ok() && v.ok())
                })
        };
        match ok {
            Ok(true) => {}
            Ok(false) => run.failed += 1,
            Err(_) => {
                run.failed += 1;
                break;
            }
        }
        free = Instant::now();
    }
    run.elapsed = start.elapsed().as_secs_f64();
    Ok(run)
}

/// Crash check: let two fsync intervals pass, SIGKILL the server, reopen
/// the sheet in a fresh server, and compare its fingerprint with an
/// in-process replay of every acked write. Returns whether they match.
pub fn crash_check(bin: &Path, server: Server, inputs: &Inputs, run: &Run, log: &Path) -> bool {
    std::thread::sleep(SETTLE);
    server.kill();
    let expected = match replay_fingerprint(inputs, &run.acked) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("feed oracle: replay failed: {e}");
            return false;
        }
    };
    let reopened = spawn(bin, inputs, log).and_then(|(server, _)| {
        let r = Conn::open(&server.addr)?.request("GET", "/sheets/orders/fingerprint", "")?;
        server.kill();
        Ok(r)
    });
    match reopened {
        Ok(r) if r.ok() && r.text() == expected => true,
        Ok(r) => {
            eprintln!(
                "feed oracle: fingerprint mismatch after {} acked writes (status {})",
                run.acked.len(),
                r.status
            );
            false
        }
        Err(e) => {
            eprintln!("feed oracle: restart failed: {e}");
            false
        }
    }
}

fn replay_fingerprint(inputs: &Inputs, acked: &[Write]) -> Result<String, SheetError> {
    let schema = inputs.initial.schema().clone();
    let mut sheet = DurableSheet::in_memory(0, inputs.initial.clone())?;
    for w in acked {
        sheet.commit(to_op(&schema, w)?)?;
    }
    Ok(sheet.replica().fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64) -> Vec<u8> {
        let mut out = dashboard_lines(seed).join("\n").into_bytes();
        let mut writes = WriteStream::new(gen::FEED_ROWS, seed);
        for _ in 0..1_000 {
            let w = writes.next_write();
            out.extend(format!("\n{} {}", w.route(), w.body()).bytes());
        }
        out
    }

    #[test]
    fn dashboard_and_writes_are_byte_identical_per_seed() {
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }
}
