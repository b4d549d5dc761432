//! `cold_open`: restart the durable server on a pristine snapshot plus a
//! WAL tail, and time spawn → the first gesture's ack.

use crate::feed;
use crate::gen::{self, WriteStream};
use crate::net::{Conn, Server};
use spreadsheet_algebra::DurableSheet;
use ssa_relation::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Inputs {
    /// The pristine snapshot; its WAL sits beside it.
    pub pristine: PathBuf,
    /// The first gesture.
    pub gesture: String,
    /// Rows the oracle says the first gesture leaves.
    pub expected_rows: usize,
}

/// Write the 1M-row snapshot, then commit the WAL tail through a durable
/// sheet. The oracle counts the gesture's rows by a plain scan of the
/// base the tail leaves.
pub fn prepare(dir: &Path, seed: u64) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let pristine = dir.join("orders.sheet");
    let base = gen::orders(gen::COLD_ROWS, seed);
    let schema = base.schema().clone();
    let mut sheet =
        DurableSheet::create(&pristine, 0, base, feed::policy()).map_err(|e| e.to_string())?;
    for w in wal_tail(seed) {
        let op = feed::to_op(&schema, &w).map_err(|e| e.to_string())?;
        sheet.commit(op).map_err(|e| e.to_string())?;
    }
    sheet.sync_now().map_err(|e| e.to_string())?;
    let threshold = gen::cold_threshold(seed);
    let base = sheet.replica().sheet().base();
    let price = schema.index_of("o_totalprice").map_err(|e| e.to_string())?;
    // Predicates compare on the engine's documented total order
    // (`Value::cmp`), where a Float ranks just above an equal Int: a price
    // of exactly 178123.00 passes `> 178123`, which SQL would reject.
    let bound = Value::Int(threshold);
    let expected_rows = base
        .rows()
        .iter()
        .filter(|t| t.get(price).cmp(&bound) == std::cmp::Ordering::Greater)
        .count();
    Ok(Inputs {
        pristine,
        gesture: format!("select o_totalprice > {threshold}"),
        expected_rows,
    })
}

/// The writes logged after the snapshot.
pub fn wal_tail(seed: u64) -> Vec<gen::Write> {
    let mut stream = WriteStream::new(gen::COLD_ROWS, seed ^ 0xC01D);
    (0..gen::COLD_WAL_OPS)
        .map(|_| stream.next_write())
        .collect()
}

/// Copy the pristine snapshot and WAL into `dir`; returns the copy's path.
pub fn fresh_copy(inputs: &Inputs, dir: &Path) -> std::io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let sheet = dir.join("orders.sheet");
    std::fs::copy(&inputs.pristine, &sheet)?;
    let wal = spreadsheet_algebra::storage::wal::wal_path(&inputs.pristine);
    std::fs::copy(&wal, spreadsheet_algebra::storage::wal::wal_path(&sheet))?;
    Ok(sheet)
}

/// One restart's measurements, in milliseconds except `setup_s`.
pub struct Restart {
    pub setup_s: f64,
    pub first_answer: f64,
    pub first_view: f64,
    pub peak_rss_mb: f64,
    pub correct: bool,
}

/// Restart once on a fresh copy: spawn → sheet answers (set-up), open a
/// session, apply the first gesture (first answer), then fetch its view.
pub fn restart(bin: &Path, inputs: &Inputs, dir: &Path, log: &Path) -> std::io::Result<Restart> {
    let sheet = fresh_copy(inputs, dir)?;
    let args: Vec<String> = [
        "--pool",
        "1",
        "--durable",
        &dir.display().to_string(),
        "--fsync",
        feed::FSYNC,
        "--open",
        &sheet.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = Server::spawn(bin, &args, log)?;
    let mut conn = Conn::open(&server.addr)?;
    let meta = conn.request("GET", "/sheets/orders", "")?;
    let setup_s = server.spawned.elapsed().as_secs_f64();
    let r = conn.request("POST", "/sessions?sheet=orders", "")?;
    let id = r
        .text()
        .split("\"session\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse::<u64>().ok());
    let Some(id) = id else {
        return Err(std::io::Error::other(format!(
            "no session in {:?}",
            r.text()
        )));
    };
    let ack = conn.request("POST", &format!("/sessions/{id}/apply"), &inputs.gesture)?;
    let first_answer = server.spawned.elapsed().as_secs_f64() * 1e3;
    let rows = ack
        .text()
        .rsplit_once(" rows)")
        .and_then(|(head, _)| head.rsplit_once('(').map(|(_, n)| n.to_string()))
        .and_then(|n| n.parse::<usize>().ok());
    let t = Instant::now();
    let view = conn.request("GET", &format!("/sessions/{id}/view"), "")?;
    let first_view = t.elapsed().as_secs_f64() * 1e3;
    let peak_rss_mb = server.peak_rss_mb();
    server.kill();
    let correct = meta.ok() && ack.ok() && view.ok() && rows == Some(inputs.expected_rows);
    if !correct {
        eprintln!(
            "cold_open oracle: first ack {:?} rows vs expected {}",
            rows, inputs.expected_rows
        );
    }
    Ok(Restart {
        setup_s,
        first_answer,
        first_view,
        peak_rss_mb,
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64) -> Vec<u8> {
        let mut out = format!("{}\n", gen::cold_threshold(seed)).into_bytes();
        for w in wal_tail(seed) {
            out.extend(format!("{} {}\n", w.route(), w.body()).bytes());
        }
        out
    }

    #[test]
    fn wal_tail_and_gesture_are_byte_identical_per_seed() {
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }
}
