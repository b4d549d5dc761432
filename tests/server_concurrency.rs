//! Concurrent snapshot isolation for the sheet server (DESIGN.md §15).
//!
//! The server's contract: a session pinned to a published snapshot sees
//! *bitwise-identical* results no matter what the writer does — before,
//! during and after `append_rows`/`update_cell` commits — until the
//! session explicitly refreshes. Randomized interleavings are checked
//! against a single-site oracle (the same script replayed on a private
//! deep copy of the pinned base), and the fault-injected publish path
//! proves a failed write never corrupts what readers see.

use spreadsheet_algebra::Spreadsheet;
use ssa_relation::rng::Rng;
use ssa_relation::{Relation, Tuple};
use ssa_server::{session_over, SheetHost};
use ssa_tpch::{schema, FeedConfig, OrderFeed};
use std::sync::Arc;

/// Serialize against the process-global failpoint registry when it is
/// compiled in (armed sites leak across tests otherwise).
#[cfg(feature = "fault-injection")]
fn test_lock() -> Option<std::sync::MutexGuard<'static, ()>> {
    Some(ssa_relation::fault::lock())
}
#[cfg(not(feature = "fault-injection"))]
fn test_lock() -> Option<()> {
    None
}

fn orders(n: usize, seed: u64) -> (Relation, OrderFeed) {
    let mut feed = OrderFeed::new(
        FeedConfig {
            customers: (n / 50).max(5),
            ..FeedConfig::default()
        },
        seed,
    );
    let mut rel = Relation::new("orders", schema::orders());
    rel.append_rows(feed.batch(n))
        .expect("feed rows fit schema");
    (rel, feed)
}

/// A copy of `rel` that shares no row chunk with it.
fn deep_copy(rel: &Relation) -> Relation {
    Relation::with_rows(rel.name(), rel.schema().clone(), rel.rows().to_vec())
        .expect("same schema, same widths")
}

/// Query-state ops a session may apply; invalid sequences are fine —
/// failed ops are transactional no-ops on both session and oracle.
const OPS: &[&str] = &[
    "group o_orderstatus asc",
    "group o_custkey asc",
    "regroup o_orderpriority desc",
    "ungroup",
    "order o_totalprice desc",
    "select o_totalprice < 150000",
    "select o_totalprice > 50000",
    "agg avg o_totalprice",
    "agg count o_orderkey",
    "formula margin = o_totalprice * 0.1",
    "dedup",
    "undo",
    "redo",
];

#[test]
fn reader_view_is_bitwise_stable_across_writer_commits() {
    let _guard = test_lock();
    let (base, mut feed) = orders(800, 11);
    let host = SheetHost::new(base);

    let mut slot = session_over(&host.snapshot());
    for op in [
        "group o_orderstatus asc",
        "agg avg o_totalprice",
        "select o_totalprice < 150000",
        "order o_totalprice desc",
    ] {
        slot.script.execute(op).expect("session op");
    }
    let baseline = slot.script.execute("show").expect("baseline view");

    // Writer streams commits on another thread; the pinned reader
    // re-evaluates its view between commits and must never see drift.
    std::thread::scope(|scope| {
        let host = &host;
        let rows: Vec<Tuple> = feed.batch(60);
        scope.spawn(move || {
            for (i, chunk) in rows.chunks(10).enumerate() {
                host.append_rows(chunk.to_vec()).expect("append commits");
                let version = host.snapshot().version;
                // A fresh value every round: a no-op update (same value)
                // rightly skips the commit + publish entirely.
                host.update_cell(
                    3,
                    "o_totalprice",
                    ssa_relation::Value::Float(10_000.5 + i as f64),
                )
                .expect("update commits");
                assert_eq!(host.snapshot().version, version + 1, "version is monotone");
            }
        });
        for _ in 0..12 {
            let view = slot.script.execute("show").expect("pinned view");
            assert_eq!(view, baseline, "pinned session saw a writer commit");
        }
    });
    assert_eq!(host.snapshot().version, 12, "6 appends + 6 updates");

    // Refresh re-pins to the latest snapshot: the query state survives
    // (Sec. V: it references base columns, not base rows) and the new
    // rows appear.
    slot.script
        .session
        .engine()
        .expect("engine")
        .sheet_mut()
        .rebase(Arc::clone(&host.snapshot().base))
        .expect("rebase onto latest snapshot");
    let refreshed = slot.script.execute("show").expect("refreshed view");
    assert_ne!(refreshed, baseline, "refresh must surface writer commits");
}

#[test]
fn pinned_snapshot_survives_edits_across_chunk_boundaries() {
    let _guard = test_lock();
    let chunk = ssa_relation::rows::CHUNK;
    let (base, mut feed) = orders(3 * chunk + chunk / 2, 31);
    let host = SheetHost::new(base);
    let pinned = host.snapshot();
    let pinned_rows = pinned.base.rows().to_vec();
    let mut slot = session_over(&pinned);
    for op in ["group o_orderstatus asc", "agg sum o_totalprice"] {
        slot.script.execute(op).expect("session op");
    }
    let baseline = slot.script.execute("show").expect("baseline view");

    // The writer's base, replayed on a plain vector.
    let mut model = pinned_rows.clone();
    let price = pinned
        .base
        .schema()
        .index_of("o_totalprice")
        .expect("orders has o_totalprice");
    let boundaries = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, 3 * chunk];
    for (i, &at) in boundaries.iter().enumerate() {
        // Appends that fill the tail chunk and open the next one.
        let rows = feed.batch(chunk / 3);
        host.append_rows(rows.clone()).expect("append commits");
        model.extend(rows);
        // One cell on each side of a chunk boundary.
        for row in [at, at + 1] {
            let value = ssa_relation::Value::Float(0.25 + (i * 2 + row) as f64);
            host.update_cell(row as u32, "o_totalprice", value)
                .expect("update commits");
            model[row].set(price, value);
        }
        // Deletes straddling the boundary and the current tail.
        let last = model.len() - 1;
        let mut ids = vec![at as u32, at as u32 + 2, last as u32];
        let (deleted, _) = host.delete_rows(&ids).expect("delete commits");
        assert_eq!(deleted, 3);
        ids.sort_unstable();
        for &id in ids.iter().rev() {
            model.remove(id as usize);
        }

        assert_eq!(*pinned.base.rows(), pinned_rows[..], "pinned rows moved");
        let view = slot.script.execute("show").expect("pinned view");
        assert_eq!(view, baseline, "pinned session saw a writer commit");
        assert_eq!(*host.snapshot().base.rows(), model[..], "writer diverged");
    }
}

#[test]
fn interleaved_sessions_match_single_site_oracle() {
    let _guard = test_lock();
    let (base, mut feed) = orders(400, 23);
    let host = Arc::new(SheetHost::new(base));
    let mut rng = Rng::seed_from_u64(0x5EED_5E55);

    // Stagger session creation with writer commits so the sessions pin
    // different versions, then run their scripts concurrently.
    let mut planned = Vec::new();
    for _ in 0..6 {
        host.append_rows(feed.batch(25))
            .expect("interleaved append");
        let snapshot = host.snapshot();
        let script: Vec<&str> = (0..10).map(|_| *rng.pick(OPS)).collect();
        planned.push((snapshot, script));
    }

    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (snapshot, script) in &planned {
            let host = Arc::clone(&host);
            handles.push(scope.spawn(move || {
                let mut slot = session_over(snapshot);
                let outputs: Vec<Option<String>> = script
                    .iter()
                    .map(|op| slot.script.execute(op).ok())
                    .collect();
                // Keep the writer busy underneath the readers.
                host.update_cell(1, "o_orderpriority", ssa_relation::Value::str("1-URGENT"))
                    .expect("concurrent update");
                let view = slot.script.execute("show").expect("session view");
                (outputs, view)
            }));
        }
        for h in handles {
            results.push(h.join().expect("session thread"));
        }
    });

    // Oracle: the same script on a private single-site copy of exactly
    // the base the session pinned.
    for ((snapshot, script), (outputs, view)) in planned.iter().zip(&results) {
        let mut oracle = session_over(snapshot);
        // Sever sharing: the oracle runs over its own deep copy (a
        // `Relation::clone` would still share row chunks).
        oracle
            .script
            .session
            .adopt(spreadsheet_algebra::Engine::from_sheet(Spreadsheet::over(
                deep_copy(&snapshot.base),
            )));
        for (op, out) in script.iter().zip(outputs) {
            assert_eq!(
                &oracle.script.execute(op).ok(),
                out,
                "op `{op}` diverged from the single-site oracle"
            );
        }
        assert_eq!(
            &oracle.script.execute("show").expect("oracle view"),
            view,
            "final view diverged from the single-site oracle"
        );
    }
}

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use spreadsheet_algebra::SheetError;
    use ssa_relation::fault::{self, Behavior};
    use ssa_relation::RelationError;

    /// A publish failure (error or panic) after the write was applied
    /// must leave writer and readers agreeing on the pre-write state.
    #[test]
    fn failed_publish_never_corrupts_reader_snapshots() {
        let _guard = fault::lock();
        for behavior in [Behavior::Error, Behavior::Panic] {
            let (base, mut feed) = orders(200, 7);
            let host = SheetHost::new(base);
            let mut slot = session_over(&host.snapshot());
            slot.script
                .execute("group o_orderstatus asc")
                .expect("session op");
            let baseline = slot.script.execute("show").expect("baseline view");
            let before = host.snapshot();

            fault::arm("server.publish", 1, behavior);
            let err = host
                .append_rows(feed.batch(5))
                .expect_err("armed publish must fail");
            match behavior {
                Behavior::Error => assert!(
                    matches!(
                        err,
                        SheetError::Relation(RelationError::FaultInjected { .. })
                    ),
                    "got: {err}"
                ),
                Behavior::Panic => assert!(
                    matches!(
                        err,
                        SheetError::Relation(RelationError::WorkerPanicked { .. })
                    ),
                    "got: {err}"
                ),
                // This test only arms Error/Panic; Abort kills the
                // process and is exercised by the child-process crash
                // suite (crates/server/tests/crash_recovery.rs).
                Behavior::Abort => unreachable!("not armed here"),
            }

            // Readers: same snapshot object, same version, same view.
            let after = host.snapshot();
            assert_eq!(after.version, before.version, "version moved on failure");
            assert!(
                Arc::ptr_eq(&after.base, &before.base),
                "published base swapped on failure"
            );
            assert_eq!(
                slot.script.execute("show").expect("view after failure"),
                baseline,
                "reader view changed across a failed publish"
            );

            // The writer recovered: the failed rows are gone and the
            // next commit publishes exactly one batch at version+1.
            let (appended, version) = host.append_rows(feed.batch(3)).expect("next write");
            assert_eq!(appended, 3);
            assert_eq!(version, before.version + 1);
            assert_eq!(host.snapshot().base.len(), 200 + 3, "failed rows leaked");
        }
    }

    /// A fault on the accept path drops one connection; the server keeps
    /// serving every later connection.
    #[test]
    fn accept_fault_does_not_kill_the_server() {
        use std::io::{Read, Write};
        use std::net::TcpStream;

        let _guard = fault::lock();
        let state = Arc::new(ssa_server::ServerState::new());
        let (base, _) = orders(50, 3);
        state.create_sheet(base).expect("host sheet");
        let handle = ssa_server::serve(Arc::clone(&state), ("127.0.0.1", 0), 2)
            .expect("bind ephemeral port");
        let addr = handle.addr();

        let health = |expect_ok: bool| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(
                stream,
                "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            .expect("send");
            let mut out = String::new();
            let got = stream.read_to_string(&mut out).unwrap_or(0);
            if expect_ok {
                assert!(out.contains("200 OK"), "healthy response, got: {out:?}");
            } else {
                assert_eq!(got, 0, "faulted connection should be dropped: {out:?}");
            }
        };

        health(true);
        fault::arm("server.accept", 1, Behavior::Error);
        health(false); // this one is dropped by the armed accept fault
        for _ in 0..3 {
            health(true); // and the server is still alive
        }
        handle.shutdown();
    }
}
