//! Seeded inputs for every workload. The same seed regenerates the same
//! tables, thresholds and operation sequences byte for byte; the server
//! only ever sees what these functions produce.

use ssa_relation::rng::Rng;
use ssa_relation::{Relation, Tuple, Value};
use ssa_tpch::{FeedConfig, OrderFeed};

/// TPC-H scale of the study catalog (`lineitem` ≈ 30k rows).
pub const STUDY_SCALE: f64 = 5.0;
/// The study catalog is one fixed dataset, as in the paper's user study
/// (and the server's `--preload`); the run's seed varies the constants
/// the tasks are typed with.
pub const STUDY_DATA_SEED: u64 = 42;
/// Rows of `orders` hosted by the feed workload: the issue's 30k-row
/// orientation size, not its 100k. Every write copies the table. On the
/// shared 2-core machine the benchmark was tuned on, a copy of 100k
/// nine-value rows swung between 21 and 37 ms within four minutes while a
/// 30k-row copy moved between 5.0 and 7.5 ms, and feed medians at 100k
/// spread past the 25% bound between runs. The traced run still times the
/// append at 100k rows.
pub const FEED_ROWS: usize = 30_000;
/// Rows of the `orders` snapshot the cold-open workload restarts on.
pub const COLD_ROWS: usize = 1_000_000;
/// Logged ops in the WAL tail replayed on every cold open.
pub const COLD_WAL_OPS: usize = 2_000;
/// Customer keys the generated orders reference.
const CUSTOMERS: usize = 15_000;

/// Independent RNG streams derived from one workload seed.
pub fn stream(seed: u64, salt: u64) -> Rng {
    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Rewrite every numeric literal outside quotes in `text`: dates
/// (`19YYMMDD`) move by up to three days within their month, other
/// numbers scale by up to ±2%. Column names are left alone. The shifts
/// are small so that each task's result, and so its response size, stays
/// close to the task as written.
pub fn perturb_numbers(text: &str, rng: &mut Rng) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    let mut quoted = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let in_word = i > 0 && {
            let p = bytes[i - 1] as char;
            p.is_ascii_alphanumeric() || p == '_' || p == '.'
        };
        if c == '\'' {
            quoted = !quoted;
        }
        if quoted || !c.is_ascii_digit() || in_word {
            out.push(c);
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
            i += 1;
        }
        let lit = &text[start..i];
        out.push_str(&perturb_literal(lit, rng));
    }
    out
}

fn perturb_literal(lit: &str, rng: &mut Rng) -> String {
    if lit.contains('.') {
        let v: f64 = lit.parse().unwrap_or(0.0);
        // Two decimals, as typed: a discount bound of 0.05 stays 0.05.
        // Discounts are multiples of 0.01, so 0.049 vs 0.051 would drop or
        // keep a whole discount level and swing the result size.
        return format!("{:.2}", v * rng.gen_range(0.98..1.02));
    }
    let v: i64 = lit.parse().unwrap_or(0);
    if lit.len() == 8 && lit.starts_with("19") {
        let day = (v % 100 + rng.gen_range(-3i64..=3)).clamp(1, 28);
        return (v - v % 100 + day).to_string();
    }
    ((v as f64 * rng.gen_range(0.98..1.02)).round() as i64).to_string()
}

/// `orders` rows from the TPC-H order feed, keys `0..n`.
pub fn orders(n: usize, seed: u64) -> Relation {
    let mut feed = OrderFeed::new(
        FeedConfig {
            customers: CUSTOMERS,
            ..FeedConfig::default()
        },
        seed,
    );
    let mut rel = Relation::new("orders", ssa_tpch::schema::orders());
    rel.append_rows(feed.batch(n))
        .expect("feed rows match the orders schema");
    rel
}

/// One base write against `orders`, as the HTTP body its route takes.
#[derive(Debug, Clone, PartialEq)]
pub enum Write {
    /// `POST /sheets/orders/rows`: one CSV row.
    Rows(String),
    /// `POST /sheets/orders/cells`: `<row> <column> <literal>`.
    Cells(String),
    /// `POST /sheets/orders/delete`: one live base-row id.
    Delete(String),
}

impl Write {
    pub fn route(&self) -> &'static str {
        match self {
            Write::Rows(_) => "rows",
            Write::Cells(_) => "cells",
            Write::Delete(_) => "delete",
        }
    }

    pub fn body(&self) -> &str {
        match self {
            Write::Rows(b) | Write::Cells(b) | Write::Delete(b) => b,
        }
    }
}

/// The write stream: 85% one-row appends, 10% cell updates, 5% deletes
/// of a live row. It tracks the row count so every id it names exists
/// once all earlier writes are applied.
pub struct WriteStream {
    rng: Rng,
    feed: OrderFeed,
    rows: usize,
}

impl WriteStream {
    pub fn new(rows: usize, seed: u64) -> WriteStream {
        WriteStream {
            rng: stream(seed, 0xF00D),
            feed: OrderFeed::new(
                FeedConfig {
                    customers: CUSTOMERS,
                    first_orderkey: rows as i64,
                    ..FeedConfig::default()
                },
                seed ^ 0xFEED,
            ),
            rows,
        }
    }

    pub fn next_write(&mut self) -> Write {
        let roll = self.rng.gen_range(0..100u32);
        if roll < 85 || self.rows < 2 {
            self.rows += 1;
            Write::Rows(csv_row(&self.feed.next_order()))
        } else if roll < 95 {
            let row = self.rng.gen_range(0..self.rows);
            if self.rng.gen_bool(0.5) {
                let price = (self.rng.gen_range(900.0..180_000.0) * 100.0f64).round() / 100.0;
                Write::Cells(format!("{row} o_totalprice {price:.2}"))
            } else {
                let p = ssa_tpch::schema::ORDER_PRIORITIES[self.rng.gen_range(0..5usize)];
                Write::Cells(format!("{row} o_orderpriority '{p}'"))
            }
        } else {
            let row = self.rng.gen_range(0..self.rows);
            self.rows -= 1;
            Write::Delete(row.to_string())
        }
    }
}

fn csv_row(t: &Tuple) -> String {
    t.values()
        .iter()
        .map(|v| match v {
            Value::Float(f) => format!("{f:.2}"),
            Value::Str(s) => s.as_str().to_string(),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The dashboard's selective price filter: about 6 of 30k orders pass,
/// so the view (~2 KB) stays well under the server's 8 KiB write buffer.
/// Larger views wait out a delayed ACK (the `study` views measure that),
/// and a view near the buffer size would stall on some seeds only.
pub fn price_threshold(seed: u64) -> i64 {
    stream(seed, 0xDA5B).gen_range(179_960..179_970i64)
}

/// The cold-open first gesture's filter: about 50 of a million orders
/// pass, so its answer and view stay small and the restart measures
/// storage, not rendering.
pub fn cold_threshold(seed: u64) -> i64 {
    stream(seed, 0xC01D).gen_range(179_985..179_995i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writes(seed: u64) -> Vec<u8> {
        let mut s = WriteStream::new(1_000, seed);
        let ops: Vec<String> = (0..2_000)
            .map(|_| {
                let w = s.next_write();
                format!("{} {}", w.route(), w.body())
            })
            .collect();
        ops.join("\n").into_bytes()
    }

    #[test]
    fn write_stream_is_byte_identical_per_seed() {
        assert_eq!(writes(3), writes(3));
        assert_ne!(writes(3), writes(4));
    }

    #[test]
    fn write_mix_and_ids_stay_live() {
        let mut s = WriteStream::new(50, 9);
        let mut rows = 50usize;
        let mut counts = [0usize; 3];
        for _ in 0..4_000 {
            match s.next_write() {
                Write::Rows(b) => {
                    assert_eq!(b.split(',').count(), 6, "{b}");
                    rows += 1;
                    counts[0] += 1;
                }
                Write::Cells(b) => {
                    let id: usize = b.split(' ').next().unwrap().parse().unwrap();
                    assert!(id < rows);
                    counts[1] += 1;
                }
                Write::Delete(b) => {
                    assert!(b.parse::<usize>().unwrap() < rows);
                    rows -= 1;
                    counts[2] += 1;
                }
            }
        }
        assert!(
            counts[0] > 3_200 && counts[1] > 250 && counts[2] > 100,
            "{counts:?}"
        );
    }

    #[test]
    fn perturbation_touches_literals_only() {
        let sql = "SELECT l_q2 FROM t WHERE a_1 <= 19980915 AND d >= 0.05 AND s = 'X 12' \
                   AND q < 24000 AND r > 5000 AND e < 19940115";
        let a = perturb_numbers(sql, &mut stream(1, 2));
        assert_eq!(a, perturb_numbers(sql, &mut stream(1, 2)));
        assert!(
            a.starts_with("SELECT l_q2 FROM t WHERE a_1 <= 199809"),
            "{a}"
        );
        assert!(a.contains("s = 'X 12'"), "{a}");
        assert_ne!(a, perturb_numbers(sql, &mut stream(2, 2)));
        assert_ne!(a, sql);
    }

    #[test]
    fn orders_are_seeded() {
        assert_eq!(orders(100, 5).rows(), orders(100, 5).rows());
        assert_ne!(orders(100, 5).rows(), orders(100, 6).rows());
    }
}
