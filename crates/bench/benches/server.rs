//! Server load bench: concurrent shared-snapshot reads vs the unshared
//! single-site baseline, with and without a writer streaming appends
//! (DESIGN.md §15).
//!
//! One read request models an ad-hoc querier hitting the server: open a
//! session over the sheet's published snapshot, apply a selective query
//! (selection + grouping + aggregate) through the undoable engine,
//! evaluate the view, close. Under the shared-snapshot architecture the
//! session forks the base `Arc` in O(1) and every history snapshot the
//! engine takes is likewise an O(1) `Arc` clone. The baseline
//! re-creates the pre-refactor world this crate actually shipped: the
//! base was held by value, so opening a session deep-copied it AND each
//! gesture's undo snapshot deep-copied it again (`Engine` snapshots
//! were `(Relation, QueryState, u64)` by value — see the git history of
//! `crates/core/src/history.rs`). The reported `speedup` is that
//! architectural ratio — shared-read throughput (at the entry's thread
//! count) over the single-thread deep-copy baseline — which transfers
//! across machines, unlike raw thread scaling on whatever CPU count CI
//! happens to have.
//!
//! The `read_shared_4_writer` entry re-runs the 4-thread read workload
//! while a writer commits paced 100-row appends through the host
//! (publishing a snapshot each time); its `p99_ratio` is read-tail
//! latency versus the quiet 4-thread run — the "reads are unaffected by
//! writes" claim, with < 2x as the acceptance ceiling.
//!
//! The `refresh_after_4_writes` entry times a session refresh plus its
//! view after four writer commits (append, cell update, append, delete)
//! for the `feed` dashboard (group by status, average price per group, a
//! selective price filter): the delta-aware refresh that patches the
//! session's warm cache with the published edits, against the full
//! re-evaluation a re-pin without the edits pays (`full_p50_ms`).
//!
//! Results go to console and `BENCH_server.json` at the repository
//! root. `SSA_BENCH_FAST=1` runs a smoke configuration (the JSON is
//! then marked `"fast": true`).

use spreadsheet_algebra::prelude::*;
use ssa_relation::{Relation, Value};
use ssa_server::{session_over, ServerState, SheetHost};
use ssa_tpch::{schema, FeedConfig, OrderFeed};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn orders_host(n: usize) -> (SheetHost, OrderFeed) {
    let mut feed = OrderFeed::new(
        FeedConfig {
            customers: (n / 100).max(10),
            ..FeedConfig::default()
        },
        0x005E_4E44,
    );
    let mut rel = Relation::new("orders", schema::orders());
    rel.append_rows(feed.batch(n))
        .expect("feed rows fit schema");
    (SheetHost::new(rel), feed)
}

/// A copy of the base that shares no row chunk with it: what the
/// pre-refactor world paid wherever it copied the base by value (a
/// `Relation::clone` now copies only chunk pointers).
fn deep_copy(rel: &Relation) -> Relation {
    Relation::with_rows(rel.name(), rel.schema().clone(), rel.rows().to_vec())
        .expect("same schema, same widths")
}

/// The per-request query, applied through the undoable engine, varied
/// by request index so successive requests never hit an identical
/// predicate. The selection passes ~1-3% of rows (feed prices are
/// uniform in 900..180k): an ad-hoc drill-down whose cost is the O(n)
/// predicate scan, not an O(n) re-materialization of the whole table.
/// `old_snapshots` charges each gesture the pre-refactor undo-snapshot
/// cost: a deep copy of the base, exactly what `Engine` paid before the
/// base moved behind an `Arc`.
fn query(e: &mut Engine, i: usize, old_snapshots: bool) {
    let threshold = 2_000.0 + (i % 7) as f64 * 500.0;
    let charge = |e: &mut Engine| {
        if old_snapshots {
            black_box(deep_copy(e.sheet().base()));
        }
    };
    charge(e);
    e.select(Expr::col("o_totalprice").lt(Expr::lit(threshold)))
        .expect("selection applies");
    charge(e);
    e.group(&["o_orderstatus"], Direction::Asc)
        .expect("grouping applies");
    charge(e);
    e.aggregate(AggFunc::Avg, "o_totalprice", 2)
        .expect("aggregate applies");
    black_box(e.view().expect("request view evaluates"));
}

/// One shared-architecture read request: O(1) snapshot fork, O(1)
/// history snapshots, then the query.
fn read_shared(host: &SheetHost, i: usize) {
    let snapshot = host.snapshot();
    let mut e = Engine::over_shared(Arc::clone(&snapshot.base));
    query(&mut e, i, false);
}

/// One baseline read request: the pre-refactor world, where opening a
/// session deep-copies the base and every gesture's undo snapshot
/// deep-copies it again.
fn read_unshared(host: &SheetHost, i: usize) {
    let snapshot = host.snapshot();
    let mut e = Engine::over(deep_copy(&snapshot.base));
    query(&mut e, i, true);
}

/// Run `requests` reads per thread across `threads` threads; returns
/// (wall seconds, all per-request latencies in µs).
fn run_reads(
    host: &SheetHost,
    threads: usize,
    requests: usize,
    read: fn(&SheetHost, usize),
) -> (f64, Vec<f64>) {
    let wall = Instant::now();
    let mut latencies = Vec::with_capacity(threads * requests);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut times = Vec::with_capacity(requests);
                    for i in 0..requests {
                        let start = Instant::now();
                        read(host, t * requests + i);
                        times.push(start.elapsed().as_secs_f64() * 1e6);
                    }
                    times
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("reader thread"));
        }
    });
    (wall.elapsed().as_secs_f64(), latencies)
}

/// The `feed` dashboard's gestures: group by status, average price per
/// group, and a price filter that passes about 1% of the orders.
const DASHBOARD: &[&str] = &[
    "group o_orderstatus asc",
    "agg avg o_totalprice 2",
    "select o_totalprice > 178000",
];

/// Per-round (delta-aware refresh + view, full re-pin + view) times in
/// ms: each round commits an append, a cell update, an append and a
/// delete, then brings one dashboard session current each way. The two
/// views must agree before anything is timed.
fn refresh_rounds(base: Relation, feed: &mut OrderFeed, rounds: usize) -> (Vec<f64>, Vec<f64>) {
    let len = base.len();
    let state = ServerState::new();
    state.create_sheet(base).expect("host the sheet");
    let host = state.host("orders").expect("hosted sheet");
    let (id, _) = state.create_session("orders").expect("open a session");
    let slot = state.session(id).expect("live session");
    let mut full = session_over(&host.snapshot());
    for line in DASHBOARD {
        slot.lock()
            .expect("session lock")
            .script
            .execute(line)
            .expect("dashboard gesture");
        full.script.execute(line).expect("dashboard gesture");
    }
    let mut patched_ms = Vec::with_capacity(rounds);
    let mut full_ms = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let row = ((round * 7919) % len) as u32;
        host.append_rows(feed.batch(1)).expect("append commits");
        host.update_cell(row, "o_totalprice", Value::Float(178_500.0 + round as f64))
            .expect("update commits");
        host.append_rows(feed.batch(1)).expect("append commits");
        host.delete_rows(&[row / 2]).expect("delete commits");

        let start = Instant::now();
        state.refresh_session(id).expect("refresh");
        let mut guard = slot.lock().expect("session lock");
        let engine = guard.script.session.engine().expect("session engine");
        engine.view().expect("refreshed view");
        patched_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let patched = engine.view().expect("cached view").clone();

        let base = host.snapshot().base.clone();
        let engine = full.script.session.engine().expect("session engine");
        let start = Instant::now();
        engine
            .sheet_mut()
            .rebase_with(base, None)
            .expect("full re-pin");
        let fresh = engine.view().expect("re-evaluated view");
        full_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            &patched, fresh,
            "patched refresh != full re-evaluation — bench aborted"
        );
    }
    (patched_ms, full_ms)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct ReadRow {
    rows: usize,
    scenario: String,
    threads: usize,
    requests: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    speedup: f64,
    p99_ratio: Option<f64>,
}

#[allow(clippy::too_many_arguments)]
fn read_row(
    rows: usize,
    scenario: &str,
    threads: usize,
    wall: f64,
    mut latencies: Vec<f64>,
    baseline_rps: f64,
    quiet_p99: Option<f64>,
) -> ReadRow {
    latencies.sort_by(|a, b| a.total_cmp(b));
    let throughput_rps = latencies.len() as f64 / wall;
    let p99 = percentile(&latencies, 0.99);
    ReadRow {
        rows,
        scenario: scenario.to_string(),
        threads,
        requests: latencies.len(),
        throughput_rps,
        p50_us: percentile(&latencies, 0.50),
        p99_us: p99,
        speedup: if baseline_rps > 0.0 {
            throughput_rps / baseline_rps
        } else {
            1.0
        },
        p99_ratio: quiet_p99.map(|q| p99 / q),
    }
}

fn main() {
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    let sizes: &[usize] = if fast { &[5_000] } else { &[5_000, 100_000] };
    let requests = if fast { 30 } else { 120 };
    let threads = 4;

    let mut reads: Vec<ReadRow> = Vec::new();
    let mut writes: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
    let mut refreshes: Vec<(usize, usize, f64, f64, f64)> = Vec::new();

    for &n in sizes {
        let (host, mut feed) = orders_host(n);

        // The shared read must agree with the deep-copy baseline —
        // bitwise, including presentation order — before timing.
        {
            let snapshot = host.snapshot();
            let mut shared = Engine::over_shared(Arc::clone(&snapshot.base));
            let mut copied = Engine::over(deep_copy(&snapshot.base));
            query(&mut shared, 3, false);
            query(&mut copied, 3, true);
            assert_eq!(
                shared.view().expect("shared view"),
                copied.view().expect("copied view"),
                "shared read != deep-copy oracle at {n} rows — bench aborted"
            );
        }

        let (wall, lat) = run_reads(&host, 1, requests, read_unshared);
        let baseline = read_row(n, "read_unshared", 1, wall, lat, 0.0, None);
        let baseline_rps = baseline.throughput_rps;

        let (wall, lat) = run_reads(&host, 1, requests, read_shared);
        let shared1 = read_row(n, "read_shared", 1, wall, lat, baseline_rps, None);

        let (wall, lat) = run_reads(&host, threads, requests, read_shared);
        let shared4 = read_row(n, "read_shared_4", threads, wall, lat, baseline_rps, None);
        let quiet_p99 = shared4.p99_us;

        // Same 4-thread read workload with a writer streaming paced
        // 100-row appends (each commit publishes a fresh snapshot).
        let stop = AtomicBool::new(false);
        let (wall, lat, mut commit_ms) = std::thread::scope(|scope| {
            let host_ref = &host;
            let stop_ref = &stop;
            let batches: Vec<Vec<ssa_relation::Tuple>> =
                (0..200).map(|_| feed.batch(100)).collect();
            let writer = scope.spawn(move || {
                let mut times = Vec::new();
                for batch in batches {
                    if stop_ref.load(Ordering::Relaxed) {
                        break;
                    }
                    let start = Instant::now();
                    host_ref.append_rows(batch).expect("writer append commits");
                    times.push(start.elapsed().as_secs_f64() * 1e3);
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                times
            });
            let (wall, lat) = run_reads(host_ref, threads, requests, read_shared);
            stop.store(true, Ordering::Relaxed);
            let times = writer.join().expect("writer thread");
            (wall, lat, times)
        });
        let withwriter = read_row(
            n,
            "read_shared_4_writer",
            threads,
            wall,
            lat,
            baseline_rps,
            Some(quiet_p99),
        );

        commit_ms.sort_by(|a, b| a.total_cmp(b));
        let commits = commit_ms.len();
        if commits > 0 {
            writes.push((
                n,
                commits,
                percentile(&commit_ms, 0.50),
                percentile(&commit_ms, 0.99),
                host.snapshot().version as f64,
            ));
        }

        // Dashboard refresh after four commits, on a host of its own over
        // a private copy of the base, so its writes never touch the read
        // host's chunks.
        let rounds = if fast { 20 } else { 100 };
        let (mut patched, mut full) =
            refresh_rounds(deep_copy(&host.snapshot().base), &mut feed, rounds);
        patched.sort_by(|a, b| a.total_cmp(b));
        full.sort_by(|a, b| a.total_cmp(b));
        let (p50, full_p50) = (percentile(&patched, 0.50), percentile(&full, 0.50));
        println!(
            "server/{n:>6} rows/refresh_after_4_writes   p50 {p50:.3} ms  full re-eval p50 \
             {full_p50:.3} ms  speedup {:.1}x",
            full_p50 / p50
        );
        refreshes.push((n, rounds, p50, percentile(&patched, 0.99), full_p50));

        // Session fork cost: O(1) Arc fork vs the baseline deep copy.
        let snapshot = host.snapshot();
        let samples = if fast { 20 } else { 100 };
        let fork_us = {
            let start = Instant::now();
            for _ in 0..samples {
                black_box(Spreadsheet::over_shared(Arc::clone(&snapshot.base)));
            }
            start.elapsed().as_secs_f64() * 1e6 / samples as f64
        };
        let copy_us = {
            let start = Instant::now();
            for _ in 0..samples {
                black_box(Spreadsheet::over(deep_copy(&snapshot.base)));
            }
            start.elapsed().as_secs_f64() * 1e6 / samples as f64
        };
        reads.push(baseline);
        reads.push(shared1);
        reads.push(shared4);
        reads.push(withwriter);
        reads.push(ReadRow {
            rows: n,
            scenario: "session_fork".to_string(),
            threads: 1,
            requests: samples,
            throughput_rps: 1e6 / fork_us,
            p50_us: fork_us,
            p99_us: fork_us,
            speedup: copy_us / fork_us,
            p99_ratio: None,
        });

        for r in reads.iter().filter(|r| r.rows == n) {
            println!(
                "server/{:>6} rows/{:22} x{} {:9.1} req/s  p50 {:9.1} µs  p99 {:9.1} µs  speedup {:6.2}x{}",
                r.rows,
                r.scenario,
                r.threads,
                r.throughput_rps,
                r.p50_us,
                r.p99_us,
                r.speedup,
                r.p99_ratio
                    .map(|x| format!("  p99_ratio {x:.2}"))
                    .unwrap_or_default(),
            );
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"server\",\n");
    json.push_str(
        "  \"workload\": \"one read = engine session over the published snapshot + selection + \
         group + avg + view on TPC-H orders; speedup = read throughput at the entry's \
         thread count vs the 1-thread pre-refactor baseline (session open deep-copies the \
         base and each gesture's undo snapshot deep-copies it again); p99_ratio = \
         4-thread read p99 with a writer streaming paced 100-row appends vs quiet; \
         refreshes = dashboard session refresh + view after 4 commits, delta-aware \
         patch vs full re-evaluation (full_p50_ms)\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"reads\": [\n");
    for (i, r) in reads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"scenario\": \"{}\", \"threads\": {}, \"requests\": {}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"speedup\": {:.2}{}}}{}\n",
            r.rows,
            r.scenario,
            r.threads,
            r.requests,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.speedup,
            r.p99_ratio
                .map(|x| format!(", \"p99_ratio\": {x:.2}"))
                .unwrap_or_default(),
            if i + 1 < reads.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"writes\": [\n");
    for (i, (rows, commits, p50, p99, version)) in writes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {rows}, \"scenario\": \"append_100_commit\", \"commits\": {commits}, \
             \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \"final_version\": {version}}}{}\n",
            if i + 1 < writes.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"refreshes\": [\n");
    for (i, (rows, rounds, p50, p99, full_p50)) in refreshes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {rows}, \"scenario\": \"refresh_after_4_writes\", \
             \"refreshes\": {rounds}, \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \
             \"full_p50_ms\": {full_p50:.3}, \"speedup\": {:.2}}}{}\n",
            full_p50 / p50,
            if i + 1 < refreshes.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, &json).expect("write BENCH_server.json at repo root");
    println!("wrote {path}");
}
