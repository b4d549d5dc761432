//! `--trace 1`: per-layer metrics.
//!
//! First every workload runs briefly over TCP, untraced, for per-route
//! round trips and the open-loop lag. Then each workload's generated
//! operations are replayed in-process, without sockets, twice: once with
//! spans around every call into a layer's public function, once with
//! only the per-operation root spans. Root spans named `op.*` are the
//! benchmark's own composition of the calls a route makes; their
//! children are the layer calls, so a layer's self time is measured
//! where its work happens and the `op.*` self time is the glue between.
//! The difference between the two replays is the tracing overhead.

use crate::trace::{self, Tracer};
use crate::{cold, feed, gen, stats, study, Args, Report};
use sheetmusiq::ScriptHost;
use spreadsheet_algebra::render::render_table;
use spreadsheet_algebra::{
    DurableSheet, Engine, PagedSheet, Plan, SheetError, SheetOp, Spreadsheet, StateDelta,
};
use ssa_relation::agg::parse_agg_func;
use ssa_relation::expr_parse::parse_expr;
use ssa_relation::Sym;
use ssa_server::{route, DurabilityConfig, Request, ServerState};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Writes replayed per feed pass, through the route and decomposed each.
const FEED_WRITES: usize = 120;
/// A dashboard poll after every this many writes.
const POLL_EVERY: usize = 4;
/// Rows of the table the 1-row appends are timed on: ROADMAP's size.
const APPEND_ROWS: usize = 100_000;
/// 1-row appends timed on a bare sheet, without and with a reader's
/// snapshot alive.
const APPENDS_UNSHARED: usize = 50;
const APPENDS_SHARED: usize = 20;
/// Commits timed on a bare durable sheet, with a sync every `SYNC_EVERY`.
const WAL_COMMITS: usize = 100;
const SYNC_EVERY: usize = 10;
/// Recoveries timed per cold-open pass.
const RECOVERIES: usize = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Dispatch one request through the server's router under a span; a
/// non-2xx response is an error.
fn routed(
    t: &mut Tracer,
    name: &'static str,
    op: u64,
    state: &ServerState,
    method: &str,
    target: &str,
    body: &str,
) -> Result<String, String> {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            q.split('&')
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        ),
        None => (target.to_string(), HashMap::new()),
    };
    let req = Request {
        method: method.to_string(),
        path,
        query,
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    };
    let resp = t.span(name, op, |_| route(state, &req));
    if (200..300).contains(&resp.status) {
        Ok(resp.body)
    } else {
        Err(format!("{method} {target}: {} {}", resp.status, resp.body))
    }
}

fn session_id(body: &str) -> Result<u64, String> {
    body.split("\"session\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| format!("no session id in {body:?}"))
}

/// Counts the replays gather besides spans.
#[derive(Default)]
struct Counters {
    /// Views after a state change, by `last_delta` classification.
    incremental_views: usize,
    full_reasons: BTreeMap<&'static str, usize>,
    bytes_read: u64,
    wal_bytes: Vec<f64>,
    feed_symbols: usize,
    view_bytes: Vec<f64>,
}

/// Apply one transcript line through the engine's own operators.
fn apply_line(e: &mut Engine, line: &str) -> Result<(), SheetError> {
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    let w: Vec<&str> = rest.split_whitespace().collect();
    let arg = |i: usize| -> Result<&str, SheetError> {
        w.get(i).copied().ok_or_else(|| SheetError::Persist {
            message: format!("missing argument {i} in {line:?}"),
        })
    };
    let num = |i: usize| -> Result<usize, SheetError> {
        arg(i)?.parse().map_err(|_| SheetError::Persist {
            message: format!("bad number in {line:?}"),
        })
    };
    let dir = |i: usize| match w.get(i) {
        Some(d) if d.eq_ignore_ascii_case("desc") => spreadsheet_algebra::Direction::Desc,
        _ => spreadsheet_algebra::Direction::Asc,
    };
    match cmd {
        "select" => e.select(parse_expr(rest)?).map(drop),
        "group" => e.group_add(&[arg(0)?], dir(1)),
        "agg" => e
            .aggregate(parse_agg_func(arg(0)?)?, arg(1)?, num(2)?)
            .map(drop),
        "order" => e.order(arg(0)?, dir(1), num(2)?),
        "project" => e.project_out(rest),
        "dedup" => e.dedup(),
        "undo" => e.undo().map(drop),
        "modify" => {
            let (id, pred) = rest.split_once(' ').ok_or_else(|| SheetError::Persist {
                message: format!("bad modify {line:?}"),
            })?;
            let id = id.parse().map_err(|_| SheetError::Persist {
                message: format!("bad selection id in {line:?}"),
            })?;
            e.replace_selection(id, parse_expr(pred)?)
        }
        _ => Err(SheetError::Persist {
            message: format!("no engine operator for {line:?}"),
        }),
    }
}

/// `Engine::view`, recorded as `core.view_full`, `core.view_incremental`
/// (after a state change, by `last_delta`) or `core.view_cached`; then
/// `render_table` when `render` is set. Returns the rendered length.
fn view(
    t: &mut Tracer,
    op: u64,
    e: &mut Engine,
    changed: bool,
    render: bool,
    c: &mut Counters,
) -> Result<usize, String> {
    let name = if !changed {
        "core.view_cached"
    } else {
        match e.sheet().last_delta() {
            StateDelta::Full { reason } => {
                *c.full_reasons.entry(reason).or_default() += 1;
                "core.view_full"
            }
            _ => {
                c.incremental_views += 1;
                "core.view_incremental"
            }
        }
    };
    let t0 = t.now();
    let derived = e.view().map_err(err)?;
    let t1 = t.now();
    t.record(name, op, t0, t1);
    if !render {
        return Ok(0);
    }
    let text = render_table(derived);
    t.record("render.table", op, t1, t.now());
    Ok(text.len())
}

fn replay_study(t: &mut Tracer, inputs: &study::Inputs, c: &mut Counters) -> Result<(), String> {
    let state = ServerState::new();
    for (_, path) in &inputs.files {
        let op = t.next_op();
        let stored = t.span("op.open_sheet", op, |t| {
            let paged = t.span("storage.paged_open", op, |_| PagedSheet::open(path));
            let paged = paged.map_err(err)?;
            let stored = t.span("storage.materialize", op, |_| paged.materialize());
            c.bytes_read += paged.bytes_read();
            stored.map_err(err)
        })?;
        let mut relation = stored.relation;
        relation.set_name(stored.name);
        state.create_sheet(relation).map_err(err)?;
    }
    for task in &inputs.tasks {
        // Through the router, as the server runs it.
        let op = t.next_op();
        let body = routed(
            t,
            "api.session_open",
            op,
            &state,
            "POST",
            &format!("/sessions?sheet={}", task.sheet),
            "",
        )?;
        let id = session_id(&body)?;
        for line in &task.lines {
            routed(
                t,
                "api.apply",
                op,
                &state,
                "POST",
                &format!("/sessions/{id}/apply"),
                line,
            )?;
        }
        let shown = routed(
            t,
            "api.view",
            op,
            &state,
            "GET",
            &format!("/sessions/{id}/view"),
            "",
        )?;
        if shown != task.view {
            return Err(format!(
                "task {}: routed view differs from the oracle",
                task.id
            ));
        }
        c.view_bytes.push(shown.len() as f64);
        routed(
            t,
            "api.session_close",
            op,
            &state,
            "DELETE",
            &format!("/sessions/{id}"),
            "",
        )?;

        let snapshot = state.host(&task.sheet).map_err(err)?.snapshot();
        // The script layer, one gesture per call.
        let mut script: ScriptHost = ssa_server::session_over(&snapshot).script;
        for line in &task.lines {
            let op = t.next_op();
            t.span("musiq.execute", op, |_| script.execute(line))
                .map_err(err)?;
        }
        // The engine layer: operator call, then the view it presents.
        let mut engine = Engine::over_shared(Arc::clone(&snapshot.base));
        for line in &task.lines {
            let op = t.next_op();
            t.span("op.gesture", op, |t| {
                t.span("core.apply", op, |_| apply_line(&mut engine, line))
                    .map_err(err)?;
                view(t, op, &mut engine, true, false, c)
            })?;
            let sheet = engine.sheet();
            t.span("plan.prepare", op, |_| {
                Plan::prepare(sheet.base(), sheet.state())
            })
            .map_err(err)?;
        }
        let op = t.next_op();
        t.span("op.view", op, |t| view(t, op, &mut engine, false, true, c))?;
    }
    Ok(())
}

fn replay_feed(
    t: &mut Tracer,
    inputs: &feed::Inputs,
    dir: &Path,
    c: &mut Counters,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let sheet = dir.join("orders.sheet");
    DurableSheet::create(&sheet, 0, inputs.initial.clone(), feed::policy()).map_err(err)?;
    let state = ServerState::durable(DurabilityConfig {
        dir: dir.to_path_buf(),
        policy: feed::policy(),
        replica: 0,
    });
    state.open_durable_sheet(&sheet).map_err(err)?;
    let op = t.next_op();
    let body = routed(
        t,
        "api.session_open",
        op,
        &state,
        "POST",
        "/sessions?sheet=orders",
        "",
    )?;
    let id = session_id(&body)?;
    for line in &inputs.dashboard {
        routed(
            t,
            "api.apply",
            op,
            &state,
            "POST",
            &format!("/sessions/{id}/apply"),
            line,
        )?;
    }
    let host = state.host("orders").map_err(err)?;
    let schema = host.snapshot().base.schema().clone();
    let mut writes = gen::WriteStream::new(gen::FEED_ROWS, inputs.seed);
    let symbols = Sym::interned_count();
    // Through the router, with the dashboard polling beside the writes.
    for i in 0..FEED_WRITES {
        let op = t.next_op();
        let w = writes.next_write();
        let name = match w {
            gen::Write::Rows(_) => "api.rows",
            gen::Write::Cells(_) => "api.cells",
            gen::Write::Delete(_) => "api.delete",
        };
        let target = format!("/sheets/orders/{}", w.route());
        routed(t, name, op, &state, "POST", &target, w.body())?;
        if i % POLL_EVERY == 0 {
            routed(
                t,
                "api.refresh",
                op,
                &state,
                "POST",
                &format!("/sessions/{id}/refresh"),
                "",
            )?;
            routed(
                t,
                "api.view_dashboard",
                op,
                &state,
                "GET",
                &format!("/sessions/{id}/view"),
                "",
            )?;
        }
    }
    // The same stream continued, decomposed into the calls the routes make.
    let slot = state.session(id).map_err(err)?;
    for i in 0..FEED_WRITES {
        let op = t.next_op();
        match writes.next_write() {
            gen::Write::Rows(body) => t.span("op.rows", op, |t| {
                let rows = t.span("wire.rows_from_csv", op, |_| {
                    ssa_server::wire::rows_from_csv(&schema, &body)
                });
                let rows = rows.map_err(err)?;
                t.span("host.append_rows", op, |_| host.append_rows(rows))
                    .map(drop)
                    .map_err(err)
            })?,
            w @ gen::Write::Cells(_) => {
                let SheetOp::UpdateCell { row, column, value } =
                    feed::to_op(&schema, &w).map_err(err)?
                else {
                    return Err("cell write did not parse as a cell update".into());
                };
                t.span("op.cells", op, |t| {
                    t.span("host.update_cell", op, |_| {
                        host.update_cell(row, &column, value)
                    })
                })
                .map(drop)
                .map_err(err)?
            }
            gen::Write::Delete(body) => {
                let ids = ssa_server::wire::parse_row_ids(&body).map_err(err)?;
                t.span("op.delete", op, |t| {
                    t.span("host.delete_rows", op, |_| host.delete_rows(&ids))
                })
                .map(drop)
                .map_err(err)?
            }
        }
        if i % POLL_EVERY == 0 {
            t.span("op.refresh", op, |t| {
                t.span("host.refresh_session", op, |_| state.refresh_session(id))
            })
            .map_err(err)?;
            let mut guard = slot.lock().map_err(err)?;
            let engine = guard.script.session.engine().map_err(err)?;
            t.span("op.view_dashboard", op, |t| {
                view(t, op, engine, true, true, c)
            })?;
        }
    }
    c.feed_symbols = Sym::interned_count() - symbols;
    drop(host);
    drop(state);

    // A 1-row append at ROADMAP's size, alone and with a reader's snapshot.
    let mut sheet_mem = Spreadsheet::over(gen::orders(APPEND_ROWS, inputs.seed));
    let mut appends = gen::WriteStream::new(APPEND_ROWS, inputs.seed ^ 0xA99);
    let one_row = |stream: &mut gen::WriteStream| loop {
        if let gen::Write::Rows(body) = stream.next_write() {
            break ssa_server::wire::rows_from_csv(&schema, &body);
        }
    };
    for i in 0..APPENDS_UNSHARED + APPENDS_SHARED {
        let op = t.next_op();
        let rows = one_row(&mut appends).map_err(err)?;
        if i < APPENDS_UNSHARED {
            t.span("core.append_unshared", op, |_| sheet_mem.append_rows(rows))
                .map_err(err)?;
        } else {
            let reader = sheet_mem.base_arc();
            t.span("core.append_shared", op, |_| sheet_mem.append_rows(rows))
                .map_err(err)?;
            drop(reader);
        }
    }
    drop(sheet_mem);

    // The write-ahead log: commit, and the batch policy's sync.
    let mut extra = gen::WriteStream::new(gen::FEED_ROWS, inputs.seed ^ 0xA99);
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).map_err(err)?;
    let mut durable = DurableSheet::create(
        wal_dir.join("orders.sheet"),
        0,
        inputs.initial.clone(),
        feed::policy(),
    )
    .map_err(err)?;
    for i in 0..WAL_COMMITS {
        let op = t.next_op();
        let w = feed::to_op(&schema, &extra.next_write()).map_err(err)?;
        let before = durable.wal_len();
        t.span("wal.commit", op, |_| durable.commit(w))
            .map_err(err)?;
        c.wal_bytes.push((durable.wal_len() - before) as f64);
        if (i + 1) % SYNC_EVERY == 0 {
            t.span("wal.sync", op, |_| durable.sync_now())
                .map_err(err)?;
        }
    }
    Ok(())
}

fn replay_cold(t: &mut Tracer, inputs: &cold::Inputs, dir: &Path) -> Result<(), String> {
    for _ in 0..RECOVERIES {
        let op = t.next_op();
        let sheet = cold::fresh_copy(inputs, dir).map_err(err)?;
        let ack = t.span("op.first_answer", op, |t| {
            let d = t.span("storage.recover", op, |_| {
                DurableSheet::open(&sheet, 0, feed::policy())
            });
            let host = ssa_server::SheetHost::from_durable(d.map_err(err)?);
            let mut script = ssa_server::session_over(&host.snapshot()).script;
            t.span("musiq.first_gesture", op, |_| {
                script.execute(&inputs.gesture)
            })
            .map_err(err)
        })?;
        if !ack.contains(&format!("({} rows)", inputs.expected_rows)) {
            return Err(format!("cold replay: first ack {ack:?}"));
        }
    }
    Ok(())
}

fn replay_all(
    t: &mut Tracer,
    work: &Path,
    s: &study::Inputs,
    f: &feed::Inputs,
    k: &cold::Inputs,
) -> Result<Counters, String> {
    let mut c = Counters::default();
    replay_study(t, s, &mut c)?;
    let feed_dir = work.join("replay-feed");
    replay_feed(t, f, &feed_dir, &mut c)?;
    let _ = std::fs::remove_dir_all(&feed_dir);
    replay_cold(t, k, &work.join("replay-cold"))?;
    Ok(c)
}

fn median_of(map: &BTreeMap<&'static str, Vec<f64>>, names: &[&str]) -> Option<f64> {
    let all: Vec<f64> = names
        .iter()
        .filter_map(|n| map.get(n))
        .flatten()
        .copied()
        .collect();
    (!all.is_empty()).then(|| stats::median(&all))
}

pub fn run(
    bin: &Path,
    work: &Path,
    root: &Path,
    args: &Args,
    r: &mut Report,
) -> Result<(), String> {
    let symbols_at_start = Sym::interned_count();
    let window = (args.seconds / 3.0).max(2.0);

    // Untraced TCP runs: per-route round trips and the open-loop lag.
    let study_dir = work.join("study");
    std::fs::create_dir_all(&study_dir).map_err(err)?;
    let study = crate::study_tcp(bin, &study_dir, args.seed, window, r)?;
    let (s_in, s_run) = (study.inputs, study.run);
    let feed_dir = work.join("feed");
    std::fs::create_dir_all(&feed_dir).map_err(err)?;
    let feed = crate::feed_tcp(bin, &feed_dir, args.seed, window, r)?;
    let (f_in, f_run) = (feed.inputs, feed.run);
    let (k_in, restarts, _) = crate::cold_tcp(bin, &work.join("cold"), args.seed, 0.0, r)?;
    let first_answers: Vec<f64> = restarts.iter().map(|x| x.first_answer).collect();

    // In-process replays: traced, then root spans only.
    let mut traced = Tracer::new(true);
    let counters = replay_all(&mut traced, work, &s_in, &f_in, &k_in);
    let mut plain = Tracer::new(false);
    let plain_ok = replay_all(&mut plain, work, &s_in, &f_in, &k_in);
    r.attempted += 2;
    let c = match (counters, plain_ok) {
        (Ok(c), Ok(_)) => c,
        (Err(e), _) | (_, Err(e)) => {
            r.failed += 1;
            return Err(format!("replay failed: {e}"));
        }
    };
    let spans = traced.spans();
    let selfs = trace::self_ms_by_name(spans);
    let durs = trace::dur_ms_by_name(spans);

    let out_dir = root.join(".bench_out");
    let spans_file = out_dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::File::create(&spans_file))
        .and_then(|mut f| traced.write_to(&mut f))
        .map_err(|e| format!("writing spans: {e}"))?;
    println!("spans: {} written to {}", spans.len(), spans_file.display());

    let layer = |r: &mut Report, metric: &str, names: &[&str], moves: &str| {
        let v = median_of(&selfs, names).unwrap_or(0.0);
        let n: usize = names
            .iter()
            .filter_map(|n| selfs.get(n))
            .map(Vec::len)
            .sum();
        r.metric(
            metric,
            v,
            "ms",
            &format!("n={n}, median self time; moves {moves}"),
        );
    };
    layer(r, "api.apply_ms", &["api.apply"], "gesture_p50_ms on study");
    layer(r, "api.view_ms", &["api.view"], "view_p50_ms on study");
    layer(
        r,
        "api.session_open_ms",
        &["api.session_open"],
        "tasks_per_s on study",
    );
    layer(
        r,
        "api.session_close_ms",
        &["api.session_close"],
        "tasks_per_s on study",
    );
    layer(r, "api.rows_ms", &["api.rows"], "ack_p50_ms on feed");
    layer(r, "api.cells_ms", &["api.cells"], "ack_p50_ms on feed");
    layer(r, "api.delete_ms", &["api.delete"], "ack_p50_ms on feed");
    layer(
        r,
        "api.refresh_ms",
        &["api.refresh"],
        "dashboard_p50_ms on feed",
    );
    layer(
        r,
        "wire.rows_from_csv_ms",
        &["wire.rows_from_csv"],
        "ack_p50_ms on feed",
    );
    layer(
        r,
        "host.append_rows_ms",
        &["host.append_rows"],
        "ack_p50_ms/ack_p99_ms on feed",
    );
    layer(
        r,
        "host.update_cell_ms",
        &["host.update_cell"],
        "ack_p50_ms/ack_p99_ms on feed",
    );
    layer(
        r,
        "host.delete_rows_ms",
        &["host.delete_rows"],
        "ack_p50_ms/ack_p99_ms on feed",
    );
    layer(
        r,
        "host.refresh_session_ms",
        &["host.refresh_session"],
        "dashboard_p50_ms on feed",
    );
    layer(
        r,
        "musiq.execute_ms",
        &["musiq.execute"],
        "gesture_p50_ms on study",
    );
    layer(
        r,
        "core.apply_ms",
        &["core.apply"],
        "gesture_p50_ms on study",
    );
    let views = [
        "core.view_full",
        "core.view_incremental",
        "core.view_cached",
    ];
    layer(
        r,
        "core.view_ms",
        &views,
        "gesture_* on study, dashboard_* on feed",
    );
    layer(
        r,
        "core.view_full_ms",
        &["core.view_full"],
        "gesture_* on study, dashboard_* on feed",
    );
    layer(
        r,
        "core.view_incremental_ms",
        &["core.view_incremental"],
        "gesture_p50_ms on study",
    );
    let full: usize = c.full_reasons.values().sum();
    let ratio = c.incremental_views as f64 / (c.incremental_views + full).max(1) as f64;
    r.metric(
        "delta.incremental_ratio",
        ratio,
        "ratio",
        "non-Full views / views after a change",
    );
    r.metric(
        "delta.full_views",
        full as f64,
        "count",
        "Full { reason } views; by reason below",
    );
    for (reason, n) in &c.full_reasons {
        let slug: String = reason
            .chars()
            .map(|ch| if ch.is_ascii_alphanumeric() { ch } else { '_' })
            .collect();
        r.note(&format!("delta.full.{slug}"), *n as f64, "count", "");
    }
    layer(
        r,
        "plan.prepare_ms",
        &["plan.prepare"],
        "gesture_p50_ms on study",
    );
    layer(
        r,
        "render.table_ms",
        &["render.table"],
        "view_p50_ms on study",
    );
    layer(
        r,
        "core.append_shared_ms",
        &["core.append_shared"],
        "ack_p50_ms on feed",
    );
    layer(
        r,
        "core.append_unshared_ms",
        &["core.append_unshared"],
        "ack_p50_ms on feed",
    );
    println!(
        "  ROADMAP at 100k rows: 0.008 ms unshared, 17.7 ms with a published snapshot (append + view)"
    );
    layer(r, "wal.commit_ms", &["wal.commit"], "ack_p99_ms on feed");
    layer(r, "wal.sync_ms", &["wal.sync"], "ack_p99_ms on feed");
    let wal_bytes = if c.wal_bytes.is_empty() {
        0.0
    } else {
        stats::median(&c.wal_bytes)
    };
    r.metric(
        "wal.bytes_per_op",
        wal_bytes,
        "bytes",
        "median WAL growth per commit",
    );
    layer(
        r,
        "storage.recover_ms",
        &["storage.recover"],
        "first_answer_p50_ms on cold_open, setup_s on feed",
    );
    layer(
        r,
        "storage.paged_open_ms",
        &["storage.paged_open"],
        "setup_s on study",
    );
    layer(
        r,
        "storage.materialize_ms",
        &["storage.materialize"],
        "setup_s on study",
    );
    r.metric(
        "storage.bytes_read",
        c.bytes_read as f64,
        "bytes",
        "study sheets, paged open + materialize",
    );
    let grown = Sym::interned_count() - symbols_at_start;
    r.metric(
        "intern.symbols",
        grown as f64,
        "count",
        "interner growth over this run (all inputs)",
    );
    r.note(
        "intern.symbols_feed_writes",
        c.feed_symbols as f64,
        "count",
        "growth during the feed write replay",
    );
    let lag = stats::summarize(&f_run.lag, 0.99).map_or(0.0, |s| s.tail);
    r.metric(
        "loadgen.lag_p99_ms",
        lag,
        "ms",
        &format!("n={}, feed open-loop send lateness", f_run.lag.len()),
    );

    // TCP round trip minus the router's own time, per op kind.
    let mut tcp: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    tcp.insert("api.apply", s_run.gestures.clone());
    tcp.insert("api.view", s_run.views.clone());
    tcp.insert("api.session_open", s_run.opens.clone());
    tcp.insert("api.session_close", s_run.closes.clone());
    for (kind, ms) in &f_run.rtts {
        let api = match *kind {
            "rows" => "api.rows",
            "cells" => "api.cells",
            "delete" => "api.delete",
            "refresh" => "api.refresh",
            _ => "api.view_dashboard",
        };
        tcp.entry(api).or_default().push(*ms);
    }
    let mut overheads = Vec::new();
    for (api, rtts) in &tcp {
        if let (Some(api_ms), false) = (median_of(&selfs, &[api]), rtts.is_empty()) {
            let o = stats::median(rtts) - api_ms;
            r.note(
                &format!("http.overhead_ms[{api}]"),
                o,
                "ms",
                &format!("tcp n={}", rtts.len()),
            );
            overheads.push(o);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.metric(
        "http.overhead_ms",
        mean(&overheads),
        "ms",
        "mean over op kinds of TCP p50 - api p50",
    );
    r.metric(
        "http.view_bytes",
        mean(&c.view_bytes),
        "bytes",
        "mean study view response",
    );

    // Tracing overhead: traced minus untraced root medians, per op kind.
    let plain_durs = trace::dur_ms_by_name(plain.spans());
    let mut trace_over = Vec::new();
    for (name, untraced) in &plain_durs {
        if let Some(traced) = durs.get(name) {
            let d = stats::median(traced) - stats::median(untraced);
            r.note(
                &format!("trace.overhead_ms[{name}]"),
                d,
                "ms",
                "traced - untraced median",
            );
            trace_over.push(d);
        }
    }
    let over = if trace_over.is_empty() {
        0.0
    } else {
        stats::median(&trace_over)
    };
    r.metric("trace.overhead_ms", over, "ms", "median over op kinds");

    // What share of the untraced end-to-end medians the blocking spans
    // (the layer calls under each replayed op) account for.
    let share = |r: &mut Report, name: &str, root: &str, e2e: &[f64]| {
        let blocking: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, _)| {
                let kids = spans.iter().filter(|k| k.parent == Some(i));
                kids.map(|k| k.dur() as f64 / 1e6).sum()
            })
            .collect();
        let value = if blocking.is_empty() || e2e.is_empty() {
            0.0
        } else {
            stats::median(&blocking) / stats::median(e2e)
        };
        r.metric(
            name,
            value,
            "ratio",
            &format!("children of {root} / untraced TCP p50"),
        );
    };
    share(r, "blocking_share.gesture", "op.gesture", &s_run.gestures);
    share(r, "blocking_share.view", "op.view", &s_run.views);
    let acks: Vec<f64> = f_run
        .acks
        .iter()
        .filter(|(k, _)| *k == "rows")
        .map(|(_, v)| *v)
        .collect();
    share(r, "blocking_share.ack", "op.rows", &acks);
    share(
        r,
        "blocking_share.first_answer",
        "op.first_answer",
        &first_answers,
    );
    Ok(())
}
