//! Shared-snapshot sheet hosting (DESIGN.md §15) over a durable,
//! replicated writer (DESIGN.md §17).
//!
//! Each named sheet lives in a [`SheetHost`]: one writer
//! [`DurableSheet`] serialized behind a mutex, plus the currently
//! *published* [`SheetSnapshot`] — an `Arc` of the base relation tagged
//! with the sheet's data version (the §12 epoch counter extended to
//! count every committed base mutation). Reads never take the writer
//! lock: a session clones the snapshot `Arc` (two pointer bumps under a
//! short read lock) and evaluates its own query state against that
//! immutable base. Writes apply to the writer sheet — transactionally,
//! as per §12 — then append to the write-ahead log, and only then
//! publish a fresh snapshot with a single pointer swap, so readers
//! observe either the old base or the new one, never a torn state.
//!
//! Ack ordering is the durability contract (§17): a response leaves the
//! server only after apply → WAL append (+ fsync per policy) → publish
//! have all succeeded, in that order. An op is therefore never acked
//! before it is in the log, and a failure at any stage unwinds the
//! earlier ones: a failed WAL append rolls the in-memory apply back
//! inside [`DurableSheet::commit`], and a failed publish aborts the
//! receipt — memory pop + WAL truncate — so the unacked op leaves no
//! trace anywhere.
//!
//! Failure model: the `server.publish` failpoint sits between the
//! logged write and the snapshot swap. When it fires, the commit is
//! aborted as above, so writer, log, and readers all agree on the
//! pre-write state — the write reports an error and has no partial
//! effect anywhere.

use sheetmusiq::{ScriptHost, Session};
use spreadsheet_algebra::replica::{decode_sync, encode_sync};
use spreadsheet_algebra::sheet::distinct_row_ids;
use spreadsheet_algebra::{
    DurableSheet, Engine, FsyncPolicy, OpEvent, PagedSheet, Result, SheetError, SheetOp,
    VersionVector,
};
use ssa_relation::{Catalog, Relation, Tuple, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// An immutable, atomically published view of one sheet's base data.
#[derive(Debug, Clone)]
pub struct SheetSnapshot {
    /// Sheet (relation) name.
    pub name: String,
    /// The base relation; shared with the writer until its next edit.
    pub base: Arc<Relation>,
    /// Monotone data version at publish time (see `Spreadsheet::version`).
    pub version: u64,
}

/// One hosted sheet: serialized durable writer + published snapshot.
pub struct SheetHost {
    name: String,
    writer: Mutex<DurableSheet>,
    published: RwLock<Arc<SheetSnapshot>>,
}

impl std::fmt::Debug for SheetHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SheetHost")
            .field("name", &self.name)
            .finish()
    }
}

/// Poison-safe lock: the data under these locks is kept consistent by
/// the §12 transactional edits plus the §17 abort path, so a panicking
/// writer leaves a valid (pre- or post-publish) state behind and the
/// guard can be recovered.
fn lock_writer(m: &Mutex<DurableSheet>) -> MutexGuard<'_, DurableSheet> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl SheetHost {
    /// Host a relation in memory (no WAL), publishing its initial
    /// snapshot at version 0.
    pub fn new(relation: Relation) -> SheetHost {
        match DurableSheet::in_memory(0, relation) {
            Ok(d) => SheetHost::from_durable(d),
            // invariant: replica id 0 is always within range.
            Err(e) => unreachable!("in-memory replica 0 must construct: {e}"),
        }
    }

    /// Host an already-constructed durable writer (created or recovered
    /// elsewhere), publishing its current state as the first snapshot.
    pub fn from_durable(durable: DurableSheet) -> SheetHost {
        let sheet = durable.replica().sheet();
        let name = sheet.name().to_string();
        let snapshot = Arc::new(SheetSnapshot {
            name: name.clone(),
            base: sheet.base_arc(),
            version: sheet.version(),
        });
        SheetHost {
            name,
            writer: Mutex::new(durable),
            published: RwLock::new(snapshot),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The currently published snapshot (lock-free for practical
    /// purposes: a short read lock around one `Arc` clone).
    pub fn snapshot(&self) -> Arc<SheetSnapshot> {
        match self.published.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Swap in a snapshot of the writer's current state; returns the
    /// published version. Infallible by design: it is only called after
    /// the op is applied and logged.
    fn publish(&self, writer: &DurableSheet) -> u64 {
        let sheet = writer.replica().sheet();
        let snapshot = Arc::new(SheetSnapshot {
            name: self.name.clone(),
            base: sheet.base_arc(),
            version: sheet.version(),
        });
        let version = snapshot.version;
        match self.published.write() {
            Ok(mut g) => *g = snapshot,
            Err(poisoned) => *poisoned.into_inner() = snapshot,
        }
        version
    }

    /// Commit one op through the full §17 pipeline: apply in memory,
    /// append to the WAL (fsync per policy), pass the `server.publish`
    /// failpoint, swap the snapshot — and only then return (the caller's
    /// ack). A failure at any stage unwinds the earlier ones, so an op
    /// the client never saw acked is never in the log or the snapshot.
    pub fn apply_op(&self, op: SheetOp) -> Result<(OpEvent, u64)> {
        let mut writer = lock_writer(&self.writer);
        let receipt = writer.commit(op)?;
        // A panicking publish (the failpoint's `Panic` behavior) must be
        // as harmless as an erroring one: catch it, abort the commit,
        // surface a typed error — the caller's connection reports 500,
        // everyone else keeps reading the old snapshot.
        let published = std::panic::catch_unwind(Self::publish_guard).unwrap_or_else(|payload| {
            let site = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "server.publish panicked".to_string());
            Err(SheetError::Relation(
                ssa_relation::RelationError::WorkerPanicked { site },
            ))
        });
        match published {
            Ok(()) => {
                let event = receipt.event.clone();
                let version = self.publish(&writer);
                Ok((event, version))
            }
            Err(e) => {
                // Never acked, so it must not survive: pop it from
                // memory and truncate it off the log. If even the abort
                // fails the writer is wedged — surface that error, it is
                // strictly worse than the publish failure.
                writer.abort(&receipt)?;
                Err(e)
            }
        }
    }

    /// Append rows; returns (rows appended, new version).
    pub fn append_rows(&self, rows: Vec<Tuple>) -> Result<(usize, u64)> {
        let n = rows.len();
        let (_, version) = self.apply_op(SheetOp::AppendRows { rows })?;
        Ok((n, version))
    }

    /// Delete base rows by id; returns (rows deleted, new version).
    /// Repeated ids count once.
    pub fn delete_rows(&self, ids: &[u32]) -> Result<(usize, u64)> {
        let ids = distinct_row_ids(ids);
        let n = ids.len();
        let (_, version) = self.apply_op(SheetOp::DeleteRows { ids })?;
        Ok((n, version))
    }

    /// Update one base cell; returns the new version.
    pub fn update_cell(&self, row: u32, column: &str, value: Value) -> Result<u64> {
        let (_, version) = self.apply_op(SheetOp::UpdateCell {
            row,
            column: column.to_string(),
            value,
        })?;
        Ok(version)
    }

    /// One sync exchange (the POST /sheets/{name}/sync body): absorb the
    /// peer's payload — merging per Theorem 2 where ops commute, by the
    /// canonical `(weight, replica, seq)` total order with Theorem-3
    /// history rewriting where they do not — persist what was adopted,
    /// publish, and reply with the events the peer is missing.
    pub fn sync_exchange(&self, body: &str) -> Result<String> {
        let (peer_vv, events) = decode_sync(body)?;
        let mut writer = lock_writer(&self.writer);
        writer.absorb(&events)?;
        self.publish(&writer);
        let reply = writer.events_since(&peer_vv)?;
        encode_sync(&writer.replica().frontier_vv(), &reply)
    }

    /// The full replication payload (the GET /sheets/{name}/sync body):
    /// our frontier plus every retained event. A peer that absorbs this
    /// and POSTs its own payload back is fully converged with us.
    pub fn sync_pull(&self) -> Result<String> {
        let writer = lock_writer(&self.writer);
        let events = writer.events_since(&VersionVector::new())?;
        encode_sync(&writer.replica().frontier_vv(), &events)
    }

    /// Canonical rendering of (base, state) — bitwise equal across
    /// converged replicas regardless of delivery order.
    pub fn fingerprint(&self) -> String {
        lock_writer(&self.writer).replica().fingerprint()
    }

    /// Flush batched WAL appends to disk (no-op for in-memory hosts or
    /// a clean log).
    pub fn flush_wal(&self) -> Result<()> {
        lock_writer(&self.writer).sync_now()
    }

    /// Compact the log: rewrite the snapshot file at the current state
    /// and truncate the WAL (atomic per §17); returns the WAL length
    /// after compaction.
    pub fn compact(&self) -> Result<u64> {
        let mut writer = lock_writer(&self.writer);
        writer.compact()?;
        Ok(writer.wal_len())
    }

    /// Bytes currently in the WAL (0 for in-memory hosts).
    pub fn wal_len(&self) -> u64 {
        lock_writer(&self.writer).wal_len()
    }

    /// The `server.publish` failpoint, between the logged commit and the
    /// snapshot swap.
    fn publish_guard() -> Result<()> {
        ssa_relation::fault_check!("server.publish");
        Ok(())
    }
}

/// One HTTP session: a `sheetmusiq` script host whose engine is pinned
/// to a published snapshot of its sheet.
#[derive(Debug)]
pub struct SessionSlot {
    /// Name of the hosted sheet this session reads.
    pub sheet: String,
    /// Version of the snapshot the session is currently pinned to.
    pub version: u64,
    /// The scriptable session driving `sheetmusiq` actions.
    pub script: ScriptHost,
}

/// One registered sheet: either a live [`SheetHost`] or a still-on-disk
/// [`PagedSheet`] that materializes on first touch.
///
/// Sheets opened from the binary paged store register with only their
/// head/footer/meta read — schema and row count are known, row data is
/// not. The first request that needs the sheet (a session, a write)
/// resolves the slot: the paged source loads its columns, becomes a
/// relation, and the resulting host is cached in the `OnceLock` for
/// every later request. A failed materialization puts the source back,
/// so a transient I/O error is retryable and never wedges the slot.
#[derive(Debug)]
struct SheetSlot {
    host: OnceLock<Arc<SheetHost>>,
    pending: Mutex<Option<PagedSheet>>,
    /// Stored row count for listings before materialization.
    rows: usize,
}

impl SheetSlot {
    fn ready(host: Arc<SheetHost>) -> SheetSlot {
        let rows = host.snapshot().base.len();
        let slot = SheetSlot {
            host: OnceLock::new(),
            pending: Mutex::new(None),
            rows,
        };
        let _ = slot.host.set(host);
        slot
    }

    fn paged(paged: PagedSheet) -> SheetSlot {
        let rows = paged.row_count();
        SheetSlot {
            host: OnceLock::new(),
            pending: Mutex::new(Some(paged)),
            rows,
        }
    }

    fn is_loaded(&self) -> bool {
        self.host.get().is_some()
    }

    /// The live host, materializing the paged source on first touch.
    fn resolve(&self, name: &str) -> Result<Arc<SheetHost>> {
        if let Some(h) = self.host.get() {
            return Ok(Arc::clone(h));
        }
        let mut pending = match self.pending.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Double-check under the lock: another thread may have finished
        // materializing while this one waited.
        if let Some(h) = self.host.get() {
            return Ok(Arc::clone(h));
        }
        let paged = pending.take().ok_or_else(|| SheetError::Persist {
            message: format!("sheet `{name}` has no live host and no paged source"),
        })?;
        match paged.materialize() {
            Ok(stored) => {
                let mut relation = stored.relation;
                relation.set_name(name.to_string());
                let host = Arc::new(SheetHost::new(relation));
                let host = match self.host.set(host) {
                    Ok(()) => Arc::clone(self.host.get().ok_or_else(|| SheetError::Persist {
                        message: "sheet host vanished after set".into(),
                    })?),
                    // Unreachable in practice (set happens under the
                    // pending lock), but losing the race is harmless:
                    // use whoever won.
                    Err(_) => Arc::clone(self.host.get().ok_or_else(|| SheetError::Persist {
                        message: "sheet host vanished after race".into(),
                    })?),
                };
                Ok(host)
            }
            Err(e) => {
                *pending = Some(paged);
                Err(e)
            }
        }
    }
}

/// Where and how a server persists its hosted sheets (§17): a directory
/// of `<name>.sheet` snapshot files with `.wal` logs beside them, one
/// fsync policy for every log, and the replica id stamped on every
/// event this server commits.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `<name>.sheet` + `<name>.sheet.wal` pairs.
    pub dir: PathBuf,
    /// When appends reach the disk platter: `always`, `batch(ms)`, `never`.
    pub policy: FsyncPolicy,
    /// This server's replica id (must differ across replicas that sync).
    pub replica: u64,
}

/// The whole server: named sheet slots plus live sessions.
#[derive(Debug, Default)]
pub struct ServerState {
    sheets: RwLock<BTreeMap<String, Arc<SheetSlot>>>,
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<SessionSlot>>>>,
    next_session: AtomicU64,
    durability: Option<DurabilityConfig>,
}

impl ServerState {
    pub fn new() -> ServerState {
        ServerState::default()
    }

    /// A server whose sheets are durable: every sheet created or opened
    /// gets a snapshot file + WAL under `config.dir`.
    pub fn durable(config: DurabilityConfig) -> ServerState {
        ServerState {
            durability: Some(config),
            ..ServerState::default()
        }
    }

    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref()
    }

    /// Snapshot path a sheet name maps to under the durability dir.
    fn sheet_path(cfg: &DurabilityConfig, name: &str) -> PathBuf {
        cfg.dir.join(format!("{name}.sheet"))
    }

    /// Host a relation under its own name. Errors if the name is taken.
    /// On a durable server this also creates the snapshot + empty WAL.
    pub fn create_sheet(&self, relation: Relation) -> Result<u64> {
        let name = relation.name().to_string();
        let host = match &self.durability {
            Some(cfg) => {
                let path = Self::sheet_path(cfg, &name);
                if path.exists() {
                    return Err(SheetError::Persist {
                        message: format!(
                            "sheet file `{}` already exists; reopen it with --open",
                            path.display()
                        ),
                    });
                }
                SheetHost::from_durable(DurableSheet::create(
                    path,
                    cfg.replica,
                    relation,
                    cfg.policy,
                )?)
            }
            None => SheetHost::new(relation),
        };
        let mut sheets = match self.sheets.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if sheets.contains_key(&name) {
            return Err(SheetError::Persist {
                message: format!("sheet `{name}` already exists"),
            });
        }
        let version = host.snapshot().version;
        sheets.insert(name, Arc::new(SheetSlot::ready(Arc::new(host))));
        Ok(version)
    }

    /// Register a sheet straight from a binary paged file: only the
    /// head, footer and meta frames are read here — row data stays on
    /// disk until the first session or write touches the sheet. Returns
    /// the registered name and the stored row count.
    pub fn open_sheet_file(&self, path: impl AsRef<Path>) -> Result<(String, usize)> {
        let paged = spreadsheet_algebra::open_paged(path)?;
        let name = paged.name().to_string();
        let rows = paged.row_count();
        let mut sheets = match self.sheets.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if sheets.contains_key(&name) {
            return Err(SheetError::Persist {
                message: format!("sheet `{name}` already exists"),
            });
        }
        sheets.insert(name.clone(), Arc::new(SheetSlot::paged(paged)));
        Ok((name, rows))
    }

    /// Recover a durable sheet from its snapshot file: replay the WAL
    /// tail (§17 — a torn final frame is trimmed, a mid-log corruption
    /// is a typed [`SheetError::TornLog`]), then host and publish the
    /// recovered state. Returns the registered name and row count.
    pub fn open_durable_sheet(&self, path: impl AsRef<Path>) -> Result<(String, usize)> {
        let cfg = self
            .durability
            .as_ref()
            .ok_or_else(|| SheetError::Persist {
                message: "server has no durability configuration (--durable)".to_string(),
            })?;
        let durable = DurableSheet::open(path.as_ref(), cfg.replica, cfg.policy)?;
        let host = SheetHost::from_durable(durable);
        let name = host.name().to_string();
        let rows = host.snapshot().base.len();
        let mut sheets = match self.sheets.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if sheets.contains_key(&name) {
            return Err(SheetError::Persist {
                message: format!("sheet `{name}` already exists"),
            });
        }
        sheets.insert(name.clone(), Arc::new(SheetSlot::ready(Arc::new(host))));
        Ok((name, rows))
    }

    /// Flush every loaded sheet's batched WAL appends to disk; returns
    /// how many sheets were flushed. Errors are reported per sheet on
    /// stderr rather than aborting the sweep — the periodic flusher must
    /// keep covering the healthy sheets.
    pub fn flush_wals(&self) -> usize {
        let slots: Vec<(String, Arc<SheetSlot>)> = {
            let sheets = match self.sheets.read() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            sheets
                .iter()
                .map(|(n, s)| (n.clone(), Arc::clone(s)))
                .collect()
        };
        let mut flushed = 0;
        for (name, slot) in slots {
            if let Some(host) = slot.host.get() {
                match host.flush_wal() {
                    Ok(()) => flushed += 1,
                    Err(e) => eprintln!("wal flush {name}: {e}"),
                }
            }
        }
        flushed
    }

    fn slot(&self, name: &str) -> Result<Arc<SheetSlot>> {
        let sheets = match self.sheets.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        sheets
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| SheetError::UnknownSheet {
                name: name.to_string(),
            })
    }

    /// Look up a hosted sheet, materializing a paged one on first touch.
    pub fn host(&self, name: &str) -> Result<Arc<SheetHost>> {
        self.slot(name)?.resolve(name)
    }

    /// Whether a sheet is registered under `name` (live or still paged),
    /// without forcing materialization.
    pub fn sheet_exists(&self, name: &str) -> bool {
        self.slot(name).is_ok()
    }

    /// Whether the named sheet is materialized in memory (false while a
    /// paged sheet is still waiting on disk for its first touch).
    pub fn sheet_loaded(&self, name: &str) -> Result<bool> {
        Ok(self.slot(name)?.is_loaded())
    }

    /// Stored row count without forcing materialization.
    pub fn sheet_rows(&self, name: &str) -> Result<usize> {
        Ok(self.slot(name)?.rows)
    }

    /// Names of all hosted sheets, sorted.
    pub fn sheet_names(&self) -> Vec<String> {
        let sheets = match self.sheets.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        sheets.keys().cloned().collect()
    }

    /// Open a session over the named sheet's current snapshot.
    /// Returns (session id, pinned snapshot version).
    pub fn create_session(&self, sheet: &str) -> Result<(u64, u64)> {
        let snapshot = self.host(sheet)?.snapshot();
        let slot = session_over(&snapshot);
        let id = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sessions = match self.sessions.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let version = slot.version;
        sessions.insert(id, Arc::new(Mutex::new(slot)));
        Ok((id, version))
    }

    /// Look up a live session by id.
    pub fn session(&self, id: u64) -> Result<Arc<Mutex<SessionSlot>>> {
        let sessions = match self.sessions.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        sessions
            .get(&id)
            .map(Arc::clone)
            .ok_or_else(|| SheetError::Persist {
                message: format!("no session {id}"),
            })
    }

    /// Close a session; returns whether it existed.
    pub fn drop_session(&self, id: u64) -> bool {
        let mut sessions = match self.sessions.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        sessions.remove(&id).is_some()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        let sessions = match self.sessions.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        sessions.len()
    }

    /// Re-pin a session to its sheet's latest snapshot, keeping the
    /// session's query state (selections, grouping, aggregates) intact —
    /// the paper's Sec. V split makes this a pure base swap + re-eval.
    pub fn refresh_session(&self, id: u64) -> Result<u64> {
        let slot = self.session(id)?;
        let mut slot = match slot.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let snapshot = self.host(&slot.sheet)?.snapshot();
        if snapshot.version == slot.version {
            return Ok(slot.version);
        }
        slot.script
            .session
            .engine()?
            .sheet_mut()
            .rebase(Arc::clone(&snapshot.base))?;
        slot.version = snapshot.version;
        Ok(slot.version)
    }
}

/// Build a session slot pinned to a snapshot: the engine shares the
/// snapshot's base `Arc` — no data is copied until the host's writer
/// edits it, and then only on the writer's side.
pub fn session_over(snapshot: &SheetSnapshot) -> SessionSlot {
    let engine = Engine::over_shared(Arc::clone(&snapshot.base));
    let mut session = Session::new(Catalog::new());
    session.adopt(engine);
    SessionSlot {
        sheet: snapshot.name.clone(),
        version: snapshot.version,
        script: ScriptHost::new(session),
    }
}
