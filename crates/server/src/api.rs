//! Request routing and the error→status mapping (DESIGN.md §15).
//!
//! Endpoints:
//!
//! | Method | Path                    | Body               | Effect |
//! |--------|-------------------------|--------------------|--------|
//! | GET    | /health                 | —                  | liveness + counts |
//! | GET    | /sheets                 | —                  | hosted sheet names |
//! | PUT    | /sheets/{name}          | CSV (with header)  | host a new sheet |
//! | GET    | /sheets/{name}          | —                  | snapshot metadata |
//! | GET    | /sheets/{name}/csv      | —                  | snapshot as CSV |
//! | POST   | /sheets/{name}/rows     | CSV rows (no hdr)  | append via writer |
//! | POST   | /sheets/{name}/delete   | row ids            | delete via writer |
//! | POST   | /sheets/{name}/cells    | `row col literal`  | update via writer |
//! | POST   | /sheets/{name}/ops      | op lines           | replicated query-state ops |
//! | GET    | /sheets/{name}/sync     | —                  | full replication payload |
//! | POST   | /sheets/{name}/sync     | sync payload       | merge peer log, reply with ours |
//! | POST   | /sheets/{name}/compact  | —                  | snapshot + truncate the WAL |
//! | GET    | /sheets/{name}/fingerprint | —               | canonical (base, state) rendering |
//! | POST   | /sessions?sheet=name    | —                  | open a session |
//! | GET    | /sessions/{id}/view     | —                  | rendered view |
//! | GET    | /sessions/{id}/explain  | —                  | evaluation plan |
//! | POST   | /sessions/{id}/apply    | script lines       | run query-state ops |
//! | POST   | /sessions/{id}/refresh  | —                  | re-pin to latest snapshot |
//! | DELETE | /sessions/{id}          | —                  | close the session |
//!
//! Write commands (`feed`, `setcell`, …) inside `/apply` get 409: a
//! session reads a shared immutable snapshot, so base edits must go
//! through the sheet's serialized writer endpoints.
//!
//! `/sheets/{name}/ops` is the replicated counterpart of `/apply`: each
//! line becomes a tagged [`SheetOp`] event committed through the WAL on
//! the *shared* writer sheet (DESIGN.md §17), so it survives crashes
//! and flows to peers over `/sync`.

use crate::host::{ServerState, SessionSlot};
use crate::http::{Request, Response};
use crate::wire;
use sheetmusiq::is_write_command;
use spreadsheet_algebra::{Result, SheetError, SheetOp};
use ssa_relation::{csv, RelationError};
use std::sync::{Arc, Mutex, MutexGuard};

/// Map a sheet-level error onto an HTTP status: unknown names are 404,
/// injected faults are 503 (retryable), internal invariants and a
/// corrupt mid-log WAL frame are 500, a peer behind the compaction
/// frontier is 409 (it must re-bootstrap from the snapshot), and
/// everything else — bad literals, incompatible schemas, operations
/// the algebra rejects — is the client's 400.
pub fn status_for(err: &SheetError) -> u16 {
    match err {
        SheetError::UnknownSheet { .. }
        | SheetError::UnknownColumn { .. }
        | SheetError::UnknownSelection { .. }
        | SheetError::Relation(RelationError::UnknownRelation { .. })
        | SheetError::Relation(RelationError::RowOutOfRange { .. }) => 404,
        SheetError::Relation(RelationError::FaultInjected { .. }) => 503,
        SheetError::BehindCompaction { .. } => 409,
        SheetError::Relation(RelationError::WorkerPanicked { .. })
        | SheetError::Internal { .. }
        | SheetError::TornLog { .. }
        | SheetError::AuditDivergence { .. } => 500,
        _ => 400,
    }
}

fn error_response(err: &SheetError) -> Response {
    let status = status_for(err);
    Response::json(
        status,
        format!(
            "{{\"error\": {}, \"status\": {status}}}\n",
            wire::json_str(&err.to_string())
        ),
    )
}

fn not_found(what: &str) -> Response {
    Response::json(
        404,
        format!("{{\"error\": {}, \"status\": 404}}\n", wire::json_str(what)),
    )
}

fn lock_slot(slot: &Mutex<SessionSlot>) -> MutexGuard<'_, SessionSlot> {
    match slot.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn body_text(req: &Request) -> std::result::Result<&str, Response> {
    std::str::from_utf8(&req.body).map_err(|_| {
        Response::json(
            400,
            "{\"error\": \"body is not valid UTF-8\", \"status\": 400}\n".to_string(),
        )
    })
}

/// Run `f` and turn its sheet-level error into an HTTP error response.
fn respond(f: impl FnOnce() -> Result<Response>) -> Response {
    f().unwrap_or_else(|e| error_response(&e))
}

fn health(state: &ServerState) -> Response {
    Response::json(
        200,
        format!(
            "{{\"ok\": true, \"sheets\": {}, \"sessions\": {}}}\n",
            state.sheet_names().len(),
            state.session_count()
        ),
    )
}

fn list_sheets(state: &ServerState) -> Response {
    let names: Vec<String> = state
        .sheet_names()
        .iter()
        .map(|n| wire::json_str(n))
        .collect();
    Response::json(200, format!("{{\"sheets\": [{}]}}\n", names.join(", ")))
}

fn create_sheet(state: &ServerState, name: &str, req: &Request) -> Response {
    let body = match body_text(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    if state.sheet_exists(name) {
        return Response::json(
            409,
            format!(
                "{{\"error\": {}, \"status\": 409}}\n",
                wire::json_str(&format!("sheet `{name}` already exists"))
            ),
        );
    }
    respond(|| {
        let relation = csv::parse_csv(name, body).map_err(SheetError::from)?;
        let version = state.create_sheet(relation)?;
        let snapshot = state.host(name)?.snapshot();
        Ok(Response::json(
            201,
            wire::sheet_json(name, version, &snapshot.base),
        ))
    })
}

fn sheet_meta(state: &ServerState, name: &str) -> Response {
    respond(|| {
        let snapshot = state.host(name)?.snapshot();
        Ok(Response::json(
            200,
            wire::sheet_json(name, snapshot.version, &snapshot.base),
        ))
    })
}

fn sheet_csv(state: &ServerState, name: &str) -> Response {
    respond(|| {
        let snapshot = state.host(name)?.snapshot();
        Ok(Response::text(200, csv::to_csv(&snapshot.base)))
    })
}

fn append_rows(state: &ServerState, name: &str, req: &Request) -> Response {
    let body = match body_text(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    respond(|| {
        let host = state.host(name)?;
        let rows = wire::rows_from_csv(host.snapshot().base.schema(), body)?;
        let (appended, version) = host.append_rows(rows)?;
        Ok(Response::json(
            200,
            format!("{{\"appended\": {appended}, \"version\": {version}}}\n"),
        ))
    })
}

fn delete_rows(state: &ServerState, name: &str, req: &Request) -> Response {
    let body = match body_text(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    respond(|| {
        let ids = wire::parse_row_ids(body)?;
        let (deleted, version) = state.host(name)?.delete_rows(&ids)?;
        Ok(Response::json(
            200,
            format!("{{\"deleted\": {deleted}, \"version\": {version}}}\n"),
        ))
    })
}

fn update_cell(state: &ServerState, name: &str, req: &Request) -> Response {
    let body = match body_text(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    respond(|| {
        let parts: Vec<&str> = body.trim().splitn(3, char::is_whitespace).collect();
        let [row, column, literal] = parts.as_slice() else {
            return Err(SheetError::Persist {
                message: "cell body must be `<base-row-id> <column> <literal>`".to_string(),
            });
        };
        let row: u32 = row.parse().map_err(|_| SheetError::Persist {
            message: format!("bad base-row id {row:?}"),
        })?;
        let value = wire::parse_literal(literal)?;
        let version = state.host(name)?.update_cell(row, column, value)?;
        Ok(Response::json(200, format!("{{\"version\": {version}}}\n")))
    })
}

/// Replicated query-state (and base) ops: each non-empty line is parsed
/// as one [`SheetOp`] and committed through the durable pipeline —
/// apply, WAL append, publish — so the response acks logged events. The
/// whole body is parsed before anything commits, so a bad line rejects
/// the batch instead of acking half of it.
fn sheet_ops(state: &ServerState, name: &str, req: &Request) -> Response {
    let body = match body_text(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    respond(|| {
        let ops = body
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(SheetOp::parse_command)
            .collect::<Result<Vec<SheetOp>>>()?;
        if ops.is_empty() {
            return Err(SheetError::Persist {
                message: "empty op body".to_string(),
            });
        }
        let host = state.host(name)?;
        let mut version = 0;
        let mut events = Vec::with_capacity(ops.len());
        for op in ops {
            let (event, v) = host.apply_op(op)?;
            version = v;
            events.push(format!("[{}, {}]", event.replica, event.seq));
        }
        Ok(Response::json(
            200,
            format!(
                "{{\"applied\": {}, \"version\": {version}, \"events\": [{}]}}\n",
                events.len(),
                events.join(", ")
            ),
        ))
    })
}

/// GET: the full replication payload. POST: one sync exchange — merge
/// the peer's payload, reply with the events it is missing.
fn sheet_sync(state: &ServerState, name: &str, req: &Request) -> Response {
    respond(|| {
        let host = state.host(name)?;
        let payload = if req.method == "GET" {
            host.sync_pull()?
        } else {
            let body = match body_text(req) {
                Ok(b) => b,
                Err(_) => {
                    return Err(SheetError::Persist {
                        message: "sync body is not valid UTF-8".to_string(),
                    })
                }
            };
            host.sync_exchange(body)?
        };
        Ok(Response::json(200, payload))
    })
}

fn sheet_compact(state: &ServerState, name: &str) -> Response {
    respond(|| {
        let wal_len = state.host(name)?.compact()?;
        Ok(Response::json(
            200,
            format!("{{\"compacted\": true, \"wal_bytes\": {wal_len}}}\n"),
        ))
    })
}

fn sheet_fingerprint(state: &ServerState, name: &str) -> Response {
    respond(|| Ok(Response::json(200, state.host(name)?.fingerprint())))
}

fn create_session(state: &ServerState, req: &Request) -> Response {
    let Some(sheet) = req.query.get("sheet") else {
        return Response::json(
            400,
            "{\"error\": \"missing ?sheet= query parameter\", \"status\": 400}\n".to_string(),
        );
    };
    respond(|| {
        let (id, version) = state.create_session(sheet)?;
        Ok(Response::json(
            201,
            format!(
                "{{\"session\": {id}, \"sheet\": {}, \"version\": {version}}}\n",
                wire::json_str(sheet)
            ),
        ))
    })
}

fn with_session(
    state: &ServerState,
    id: &str,
    f: impl FnOnce(&mut SessionSlot) -> Response,
) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return not_found("session ids are numeric");
    };
    match state.session(id) {
        Ok(slot) => {
            let slot: Arc<Mutex<SessionSlot>> = slot;
            let mut guard = lock_slot(&slot);
            f(&mut guard)
        }
        Err(_) => not_found(&format!("no session {id}")),
    }
}

fn session_apply(state: &ServerState, id: &str, req: &Request) -> Response {
    let body = match body_text(req) {
        Ok(b) => b.to_string(),
        Err(resp) => return resp,
    };
    with_session(state, id, |slot| {
        let mut outputs = Vec::new();
        for line in body.lines().filter(|l| !l.trim().is_empty()) {
            if is_write_command(line) {
                return Response::json(
                    409,
                    format!(
                        "{{\"error\": {}, \"status\": 409}}\n",
                        wire::json_str(&format!(
                            "`{}` edits base data; use POST /sheets/{}/rows|cells|delete, \
                             then POST refresh on the session",
                            line.trim(),
                            slot.sheet
                        ))
                    ),
                );
            }
            match slot.script.execute(line) {
                Ok(out) => outputs.push(wire::json_str(&out)),
                Err(e) => return error_response(&e),
            }
        }
        Response::json(
            200,
            format!(
                "{{\"version\": {}, \"outputs\": [{}]}}\n",
                slot.version,
                outputs.join(", ")
            ),
        )
    })
}

fn session_view(state: &ServerState, id: &str) -> Response {
    with_session(state, id, |slot| match slot.script.execute("show") {
        Ok(out) => Response::text(200, out),
        Err(e) => error_response(&e),
    })
}

fn session_explain(state: &ServerState, id: &str) -> Response {
    with_session(state, id, |slot| match slot.script.execute("explain") {
        Ok(out) => Response::text(200, out),
        Err(e) => error_response(&e),
    })
}

fn session_refresh(state: &ServerState, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return not_found("session ids are numeric");
    };
    if state.session(id).is_err() {
        return not_found(&format!("no session {id}"));
    }
    respond(|| {
        let version = state.refresh_session(id)?;
        Ok(Response::json(200, format!("{{\"version\": {version}}}\n")))
    })
}

fn session_close(state: &ServerState, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return not_found("session ids are numeric");
    };
    if state.drop_session(id) {
        Response::json(200, "{\"closed\": true}\n".to_string())
    } else {
        not_found(&format!("no session {id}"))
    }
}

/// Dispatch one request against the server state.
pub fn route(state: &ServerState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["health"]) => health(state),
        ("GET", ["sheets"]) => list_sheets(state),
        ("PUT", ["sheets", name]) => create_sheet(state, name, req),
        ("GET", ["sheets", name]) => sheet_meta(state, name),
        ("GET", ["sheets", name, "csv"]) => sheet_csv(state, name),
        ("POST", ["sheets", name, "rows"]) => append_rows(state, name, req),
        ("POST", ["sheets", name, "delete"]) => delete_rows(state, name, req),
        ("POST", ["sheets", name, "cells"]) => update_cell(state, name, req),
        ("POST", ["sheets", name, "ops"]) => sheet_ops(state, name, req),
        ("GET" | "POST", ["sheets", name, "sync"]) => sheet_sync(state, name, req),
        ("POST", ["sheets", name, "compact"]) => sheet_compact(state, name),
        ("GET", ["sheets", name, "fingerprint"]) => sheet_fingerprint(state, name),
        ("POST", ["sessions"]) => create_session(state, req),
        ("POST", ["sessions", id, "apply"]) => session_apply(state, id, req),
        ("GET", ["sessions", id, "view"]) => session_view(state, id),
        ("GET", ["sessions", id, "explain"]) => session_explain(state, id),
        ("POST", ["sessions", id, "refresh"]) => session_refresh(state, id),
        ("DELETE", ["sessions", id]) => session_close(state, id),
        ("GET" | "POST" | "PUT" | "DELETE" | "HEAD", _) => {
            not_found(&format!("no route for {method} {}", req.path))
        }
        _ => Response::json(
            405,
            "{\"error\": \"method not allowed\", \"status\": 405}\n".to_string(),
        ),
    }
}
