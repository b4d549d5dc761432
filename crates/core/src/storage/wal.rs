//! Per-sheet write-ahead log and the durable replica built on it
//! (DESIGN.md §17).
//!
//! A durable sheet is two files: `<path>` (a binary compaction snapshot,
//! the format of §16, stamped with the version vector of everything
//! baked into it) and `<path>.wal` — the events committed since that
//! snapshot, one CRC-framed JSON event per frame:
//!
//! ```text
//! "SSAW" u32:version                  -- fixed 8-byte head
//! WALHEADER frame                     -- replica id, compacted vv, frontier
//! WALOP frame *                       -- one OpEvent each, append-only
//! ```
//!
//! There is no tail sentinel — a WAL is *expected* to end mid-frame
//! after a crash. Recovery distinguishes the two corruption shapes:
//! a torn **final** frame (header or payload past EOF, or a CRC
//! mismatch on the last frame) is the normal crash signature, trimmed
//! and logged; a bad frame **with intact frames after it** means the
//! file was damaged after writing, and recovery refuses with
//! [`SheetError::TornLog`] rather than silently dropping committed ops.
//!
//! Durability pipeline (the ack-ordering invariant): apply in memory →
//! append to WAL → fsync per policy → only then publish/ack. A failed
//! append rolls the in-memory apply back, so an op is never acknowledged
//! unless it is at least queued in the OS page cache, and with
//! `FsyncPolicy::Always` never acknowledged before it is on disk.

use super::codec::{self, parse_frame_header, write_frame, Cursor, FrameKind, FRAME_HEADER_LEN};
use super::{corrupt, open_sheet_with_vv, save_sheet_with_vv, write_atomic};
use crate::error::{Result, SheetError};
use crate::replica::{EventId, EventKey, MergeOutcome, OpEvent, Replica, SheetOp, VersionVector};
use ssa_relation::Relation;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Leading magic of a write-ahead log file.
pub(crate) const WAL_MAGIC: [u8; 4] = *b"SSAW";
pub(crate) const WAL_VERSION: u32 = 1;
const WAL_HEAD_LEN: u64 = 8;

/// When acknowledged writes reach disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync before every ack: an acked op is on disk, full stop.
    Always,
    /// fsync at most once per interval: an acked op is on disk within
    /// the interval (or sooner); a crash can lose at most the tail of
    /// acks inside the current window.
    Batch(Duration),
    /// Never fsync explicitly; the OS decides. Fastest, weakest.
    Never,
}

impl FsyncPolicy {
    /// Parse the CLI spelling: `always`, `batch:<ms>`, or `never`.
    pub fn parse(s: &str) -> Result<FsyncPolicy> {
        if s.eq_ignore_ascii_case("always") {
            Ok(FsyncPolicy::Always)
        } else if s.eq_ignore_ascii_case("never") {
            Ok(FsyncPolicy::Never)
        } else if let Some(ms) = s.strip_prefix("batch:") {
            let ms: u64 = ms.parse().map_err(|_| SheetError::Persist {
                message: format!("bad fsync batch interval {ms:?}"),
            })?;
            Ok(FsyncPolicy::Batch(Duration::from_millis(ms)))
        } else {
            Err(SheetError::Persist {
                message: format!("bad fsync policy {s:?} (always|batch:<ms>|never)"),
            })
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(d) => write!(f, "batch:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// The conventional WAL path for a snapshot at `path`: `<path>.wal`.
pub fn wal_path(snapshot: &Path) -> PathBuf {
    let mut os = snapshot.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> SheetError {
    SheetError::Persist {
        message: format!("wal: {what} {} failed: {e}", path.display()),
    }
}

fn header_image(replica: u64, vv: &VersionVector, frontier: EventKey) -> Result<Vec<u8>> {
    let mut payload = Vec::new();
    codec::put_u64(&mut payload, replica);
    codec::put_u32(&mut payload, vv.iter().count() as u32);
    for (r, s) in vv.iter() {
        codec::put_u64(&mut payload, r);
        codec::put_u64(&mut payload, s);
    }
    codec::put_u64(&mut payload, frontier.0);
    codec::put_u64(&mut payload, frontier.1);
    codec::put_u64(&mut payload, frontier.2);
    let mut out = Vec::new();
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    write_frame(&mut out, FrameKind::WalHeader, &payload)?;
    Ok(out)
}

/// Append handle over one WAL file.
pub struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Logical end of file (everything at or past this offset is
    /// unwritten or rolled back).
    len: u64,
    last_sync: Instant,
    dirty: bool,
}

impl WalWriter {
    /// Create a fresh WAL (head + header frame only) atomically, then
    /// open it for appending.
    pub fn create(
        path: impl Into<PathBuf>,
        replica: u64,
        vv: &VersionVector,
        frontier: EventKey,
        policy: FsyncPolicy,
    ) -> Result<WalWriter> {
        let path = path.into();
        let image = header_image(replica, vv, frontier)?;
        write_atomic(&path, &image)?;
        Self::open_at(path, image.len() as u64, policy)
    }

    /// Open an existing WAL for appending at `len` (the validated end
    /// from [`read_wal`]); anything past it is a trimmed torn tail.
    pub fn open_at(path: impl Into<PathBuf>, len: u64, policy: FsyncPolicy) -> Result<WalWriter> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        file.set_len(len)
            .map_err(|e| io_err("truncate", &path, e))?;
        let mut writer = WalWriter {
            file,
            path,
            policy,
            len,
            last_sync: Instant::now(),
            dirty: false,
        };
        writer
            .file
            .seek(SeekFrom::Start(len))
            .map_err(|e| io_err("seek", &writer.path.clone(), e))?;
        Ok(writer)
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEAD_LEN
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event frame; returns the offset the log had *before*
    /// the append, for [`Self::truncate_to`] rollback. Honors the fsync
    /// policy before returning, so `Always` means "on disk when Ok".
    pub fn append(&mut self, event: &OpEvent) -> Result<u64> {
        ssa_relation::fault_check!("wal.append");
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::WalOp, event.encode()?.as_bytes())?;
        let before = self.len;
        self.file
            .write_all(&buf)
            .map_err(|e| io_err("append", &self.path, e))?;
        self.len += buf.len() as u64;
        self.dirty = true;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batch(interval) => {
                if self.last_sync.elapsed() >= interval {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(before)
    }

    /// Force everything appended so far to disk.
    pub fn sync(&mut self) -> Result<()> {
        ssa_relation::fault_check!("wal.fsync");
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, e))?;
        self.dirty = false;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Sync only if there are unsynced appends (the batch flusher's
    /// periodic call).
    pub fn sync_if_dirty(&mut self) -> Result<()> {
        if self.dirty {
            self.sync()?;
        }
        Ok(())
    }

    /// Roll the log back to `offset` (a value previously returned by
    /// [`Self::append`]) — the rollback half of a failed commit.
    pub fn truncate_to(&mut self, offset: u64) -> Result<()> {
        self.file
            .set_len(offset)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("seek", &self.path, e))?;
        self.len = offset;
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, e))?;
        Ok(())
    }
}

/// Everything recovered from one WAL file.
pub struct WalContents {
    pub replica: u64,
    /// Compacted version vector recorded at WAL creation.
    pub vv: VersionVector,
    pub frontier: EventKey,
    pub events: Vec<OpEvent>,
    /// Bytes of torn tail trimmed (0 for a cleanly closed log).
    pub trimmed: u64,
    /// Validated end of log — where appending may resume.
    pub end: u64,
}

/// Read and validate a WAL. A torn final frame is tolerated and
/// reported via `trimmed`; a corrupt frame with intact data after it is
/// [`SheetError::TornLog`].
pub fn read_wal(path: impl AsRef<Path>) -> Result<WalContents> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_err("read", path, e))?;
    let file_len = bytes.len() as u64;
    if file_len < WAL_HEAD_LEN {
        // The head is written atomically at creation; anything shorter
        // was never a WAL.
        return Err(corrupt(format!(
            "wal {} too short ({file_len} bytes)",
            path.display()
        )));
    }
    if bytes[0..4] != WAL_MAGIC {
        return Err(corrupt(format!("wal {}: bad magic", path.display())));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != WAL_VERSION {
        return Err(corrupt(format!(
            "wal {}: unsupported version {version}",
            path.display()
        )));
    }

    // Walk frames. Each iteration classifies the frame at `pos`:
    // fits-and-valid → consume; anything wrong at the tail → trim;
    // anything wrong earlier → typed TornLog error.
    let torn = |offset: u64| SheetError::TornLog {
        path: path.display().to_string(),
        offset,
    };
    let mut pos = WAL_HEAD_LEN;
    let mut frames: Vec<(FrameKind, &[u8], u64)> = Vec::new();
    let mut end = pos;
    let mut trimmed = 0;
    while pos < file_len {
        if pos + FRAME_HEADER_LEN > file_len {
            trimmed = file_len - pos;
            break;
        }
        let at = pos as usize;
        let header: [u8; 9] = bytes[at..at + FRAME_HEADER_LEN as usize]
            .try_into()
            .map_err(|_| corrupt("frame header slice"))?;
        // Read the length field before trusting the kind byte: a torn
        // tail can corrupt either, and the claimed extent tells us
        // whether this was the final frame.
        let claimed_len = u64::from(u32::from_le_bytes([
            header[1], header[2], header[3], header[4],
        ]));
        let frame_end = pos + FRAME_HEADER_LEN + claimed_len;
        let is_last = frame_end >= file_len;
        let parsed = parse_frame_header(&header)
            .ok()
            .and_then(|(kind, len, crc)| {
                if frame_end > file_len {
                    return None;
                }
                let payload = &bytes[at + FRAME_HEADER_LEN as usize..frame_end as usize];
                (codec::crc32(payload) == crc && len as u64 == claimed_len)
                    .then_some((kind, payload))
            });
        match parsed {
            Some((kind, payload)) => {
                frames.push((kind, payload, pos));
                pos = frame_end;
                end = pos;
            }
            None if is_last => {
                trimmed = file_len - pos;
                break;
            }
            None => return Err(torn(pos)),
        }
    }

    // First frame must be the header; later frames must be ops. A
    // header-position mismatch is not a crash signature (creation is
    // atomic), so it is always an error.
    let Some(&(FrameKind::WalHeader, header_payload, _)) = frames.first() else {
        return Err(corrupt(format!(
            "wal {}: missing header frame",
            path.display()
        )));
    };
    let mut cur = Cursor::new(header_payload);
    let replica = cur.u64()?;
    let n = cur.u32()?;
    let mut vv = VersionVector::new();
    for _ in 0..n {
        let r = cur.u64()?;
        let s = cur.u64()?;
        vv.record(EventId { replica: r, seq: s });
    }
    let frontier = (cur.u64()?, cur.u64()?, cur.u64()?);
    if !cur.is_empty() {
        return Err(corrupt(format!(
            "wal {}: trailing bytes in header frame",
            path.display()
        )));
    }

    let mut events = Vec::with_capacity(frames.len().saturating_sub(1));
    for &(kind, payload, offset) in &frames[1..] {
        if kind != FrameKind::WalOp {
            return Err(torn(offset));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| corrupt(format!("wal {}: op frame is not UTF-8", path.display())))?;
        events.push(OpEvent::decode(text)?);
    }

    Ok(WalContents {
        replica,
        vv,
        frontier,
        events,
        trimmed,
        end,
    })
}

/// Receipt of one durable commit, for rolling it back if a later stage
/// (e.g. the snapshot publish) fails.
#[derive(Debug)]
pub struct CommitReceipt {
    pub event: OpEvent,
    wal_before: Option<u64>,
}

/// A [`Replica`] whose committed events are persisted: snapshot file +
/// WAL, with crash recovery, compaction, and merge absorption.
pub struct DurableSheet {
    replica: Replica,
    wal: Option<WalWriter>,
    snapshot_path: Option<PathBuf>,
    policy: FsyncPolicy,
}

impl DurableSheet {
    /// A purely in-memory replica (no WAL, no snapshot) — the server's
    /// default for sheets created without a durability directory.
    pub fn in_memory(replica_id: u64, base: Relation) -> Result<DurableSheet> {
        Ok(DurableSheet {
            replica: Replica::new(replica_id, base)?,
            wal: None,
            snapshot_path: None,
            policy: FsyncPolicy::Never,
        })
    }

    /// Create a new durable sheet at `path`: writes the genesis snapshot
    /// and an empty WAL, both atomically.
    pub fn create(
        path: impl Into<PathBuf>,
        replica_id: u64,
        base: Relation,
        policy: FsyncPolicy,
    ) -> Result<DurableSheet> {
        let path = path.into();
        let replica = Replica::new(replica_id, base)?;
        save_sheet_with_vv(&replica.freeze_raw(), replica.compacted_vv(), &path)?;
        let wal = WalWriter::create(
            wal_path(&path),
            replica_id,
            replica.compacted_vv(),
            replica.frontier(),
            policy,
        )?;
        Ok(DurableSheet {
            replica,
            wal: Some(wal),
            snapshot_path: Some(path),
            policy,
        })
    }

    /// Recover a durable sheet: open the snapshot, replay the WAL tail
    /// onto it (trimming a torn final frame), and resume appending. If
    /// no WAL exists next to the snapshot, a fresh one is created — this
    /// is how a plain §16 sheet file is adopted into the durable world.
    pub fn open(
        path: impl Into<PathBuf>,
        replica_id: u64,
        policy: FsyncPolicy,
    ) -> Result<DurableSheet> {
        let path = path.into();
        let (stored, snapshot_vv) = open_sheet_with_vv(&path)?;
        let wal_file = wal_path(&path);
        if !wal_file.exists() {
            // No log: adopt the snapshot as compacted history. Events
            // baked into it are unknown individually, so the frontier
            // must upper-bound every possible baked key.
            let frontier = if snapshot_vv.is_empty() {
                (0, 0, 0)
            } else {
                (snapshot_vv.weight(), u64::MAX, u64::MAX)
            };
            let replica = Replica::recover(replica_id, &stored, snapshot_vv, frontier)?;
            let wal = WalWriter::create(
                wal_file,
                replica_id,
                replica.compacted_vv(),
                replica.frontier(),
                policy,
            )?;
            return Ok(DurableSheet {
                replica,
                wal: Some(wal),
                snapshot_path: Some(path),
                policy,
            });
        }

        ssa_relation::fault_check!("wal.replay");
        let contents = read_wal(&wal_file)?;
        if contents.trimmed > 0 {
            eprintln!(
                "wal {}: trimmed {} bytes of torn tail",
                wal_file.display(),
                contents.trimmed
            );
        }
        // The snapshot's vector is authoritative: a crash between
        // "snapshot renamed" and "fresh WAL written" during compaction
        // leaves an old WAL whose events are already baked — they are
        // covered by snapshot_vv and skipped here.
        let frontier = contents.frontier;
        let mut replica = Replica::recover(replica_id, &stored, snapshot_vv.clone(), frontier)?;
        let fresh: Vec<OpEvent> = contents
            .events
            .into_iter()
            .filter(|e| !snapshot_vv.covers(e.id()))
            .collect();
        replica.merge(&fresh)?;
        let wal = WalWriter::open_at(wal_file, contents.end, policy)?;
        Ok(DurableSheet {
            replica,
            wal: Some(wal),
            snapshot_path: Some(path),
            policy,
        })
    }

    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Evaluate the current view (see [`Replica::view`]).
    pub fn view(&mut self) -> Result<&crate::eval::Derived> {
        self.replica.view()
    }

    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    pub fn snapshot_path(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }

    pub fn wal_len(&self) -> u64 {
        self.wal.as_ref().map_or(0, WalWriter::len)
    }

    /// Commit one local op: apply in memory, then append to the WAL
    /// (rolling the memory apply back if the append fails, so the op
    /// either exists everywhere or nowhere).
    pub fn commit(&mut self, op: SheetOp) -> Result<CommitReceipt> {
        let event = self.replica.commit(op)?;
        let wal_before = match &mut self.wal {
            Some(wal) => match wal.append(&event) {
                Ok(before) => Some(before),
                Err(append_err) => {
                    self.replica.rollback_last()?;
                    return Err(append_err);
                }
            },
            None => None,
        };
        Ok(CommitReceipt { event, wal_before })
    }

    /// Undo a commit whose downstream stage failed (the op was never
    /// acked): remove it from memory and truncate it off the WAL.
    pub fn abort(&mut self, receipt: &CommitReceipt) -> Result<()> {
        self.replica.rollback_last()?;
        if let (Some(wal), Some(before)) = (&mut self.wal, receipt.wal_before) {
            wal.truncate_to(before)?;
        }
        Ok(())
    }

    /// Merge events from a peer and persist the ones actually adopted.
    /// If persisting fails partway, the adopted events are retracted
    /// from memory so disk and memory never disagree about history.
    pub fn absorb(&mut self, events: &[OpEvent]) -> Result<MergeOutcome> {
        let outcome = self.replica.merge(events)?;
        if let Some(wal) = &mut self.wal {
            let mut first_offset = None;
            let mut failure = None;
            for event in &outcome.added {
                match wal.append(event) {
                    Ok(before) => {
                        first_offset.get_or_insert(before);
                    }
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = failure {
                if let Some(offset) = first_offset {
                    wal.truncate_to(offset)?;
                }
                let ids: Vec<EventId> = outcome.added.iter().map(OpEvent::id).collect();
                self.replica.retract(&ids)?;
                return Err(e);
            }
        }
        Ok(outcome)
    }

    /// The events a peer at `peer_vv` is missing (see
    /// [`Replica::events_since`]).
    pub fn events_since(&self, peer_vv: &VersionVector) -> Result<Vec<OpEvent>> {
        self.replica.events_since(peer_vv)
    }

    /// Flush pending batched appends to disk.
    pub fn sync_now(&mut self) -> Result<()> {
        match &mut self.wal {
            Some(wal) => wal.sync_if_dirty(),
            None => Ok(()),
        }
    }

    /// Compact: write the current sheet as the new snapshot (atomic
    /// tmp+fsync+rename), then start a fresh empty WAL, then seal the
    /// in-memory log. Crash-safe at every step: an old WAL next to a new
    /// snapshot replays as duplicates (covered by the snapshot vector),
    /// which recovery skips.
    pub fn compact(&mut self) -> Result<()> {
        let Some(path) = self.snapshot_path.clone() else {
            return Err(SheetError::Persist {
                message: "cannot compact an in-memory sheet".to_string(),
            });
        };
        if !self.replica.can_compact() {
            return Err(SheetError::BehindCompaction {
                detail: "log has causal gaps; sync with peers before compacting".to_string(),
            });
        }
        let vv = self.replica.frontier_vv();
        save_sheet_with_vv(&self.replica.freeze_raw(), &vv, &path)?;
        let frontier = self
            .replica
            .log()
            .last()
            .map_or(self.replica.frontier(), OpEvent::key);
        let wal = WalWriter::create(
            wal_path(&path),
            self.replica.id(),
            &vv,
            frontier,
            self.policy,
        )?;
        self.wal = Some(wal);
        self.replica.mark_compacted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::used_cars;
    use ssa_relation::Expr;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ssa-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    /// Serialize against the fault-injection registry when it is compiled
    /// in: armed sites are process-global, so a test that commits must
    /// not run while another has `wal.append` armed.
    #[cfg(feature = "fault-injection")]
    fn test_lock() -> Option<std::sync::MutexGuard<'static, ()>> {
        Some(ssa_relation::fault::lock())
    }
    #[cfg(not(feature = "fault-injection"))]
    fn test_lock() -> Option<()> {
        None
    }

    fn select_op(min_price: i64) -> SheetOp {
        SheetOp::Select {
            predicate: Expr::col("Price").gt(Expr::lit(min_price)),
        }
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("batch:25").unwrap(),
            FsyncPolicy::Batch(Duration::from_millis(25))
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(
            FsyncPolicy::parse("batch:25").unwrap().to_string(),
            "batch:25"
        );
    }

    #[test]
    fn commit_persists_and_reopen_recovers() {
        let _lock = test_lock();
        let dir = tmp_dir("roundtrip");
        let path = dir.join("cars.ssab");
        let fp = {
            let mut sheet =
                DurableSheet::create(&path, 1, used_cars(), FsyncPolicy::Always).expect("create");
            sheet.commit(select_op(15000)).expect("commit");
            sheet
                .commit(SheetOp::Rename {
                    from: "Mileage".into(),
                    to: "Miles".into(),
                })
                .expect("commit");
            sheet.replica().fingerprint()
        };
        let recovered = DurableSheet::open(&path, 1, FsyncPolicy::Always).expect("open");
        assert_eq!(recovered.replica().fingerprint(), fp);
        assert_eq!(recovered.replica().log().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_frame_is_trimmed_and_earlier_ops_survive() {
        let _lock = test_lock();
        let dir = tmp_dir("torn-tail");
        let path = dir.join("cars.ssab");
        let fp_one = {
            let mut sheet =
                DurableSheet::create(&path, 1, used_cars(), FsyncPolicy::Always).expect("create");
            sheet.commit(select_op(15000)).expect("commit 1");
            let fp = sheet.replica().fingerprint();
            sheet.commit(select_op(16000)).expect("commit 2");
            fp
        };
        // Tear the last frame: chop bytes off the end of the file.
        let wal_file = wal_path(&path);
        let bytes = std::fs::read(&wal_file).expect("read wal");
        std::fs::write(&wal_file, &bytes[..bytes.len() - 7]).expect("tear");
        let recovered = DurableSheet::open(&path, 1, FsyncPolicy::Always).expect("open");
        assert_eq!(recovered.replica().log().len(), 1, "second op trimmed");
        assert_eq!(recovered.replica().fingerprint(), fp_one);
        // The trim is durable: appending resumes at the validated end.
        let reread = read_wal(&wal_file).expect("reread");
        assert_eq!(reread.trimmed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let _lock = test_lock();
        let dir = tmp_dir("mid-log");
        let path = dir.join("cars.ssab");
        {
            let mut sheet =
                DurableSheet::create(&path, 1, used_cars(), FsyncPolicy::Always).expect("create");
            sheet.commit(select_op(15000)).expect("commit 1");
            sheet.commit(select_op(16000)).expect("commit 2");
        }
        // Flip a payload byte of the *first* op frame (there is intact
        // data after it, so this is not a crash signature).
        let wal_file = wal_path(&path);
        let mut bytes = std::fs::read(&wal_file).expect("read wal");
        let contents = read_wal(&wal_file).expect("clean read");
        assert_eq!(contents.events.len(), 2);
        // Locate the first op frame: skip head + header frame.
        let mut pos = 8usize;
        let hdr_len = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]) as usize;
        pos += 9 + hdr_len;
        let first_op = pos;
        bytes[first_op + 9 + 4] ^= 0xFF;
        std::fs::write(&wal_file, &bytes).expect("corrupt");
        let err = match DurableSheet::open(&path, 1, FsyncPolicy::Always) {
            Err(e) => e,
            Ok(_) => panic!("mid-log corruption must fail recovery"),
        };
        assert!(
            matches!(err, SheetError::TornLog { offset, .. } if offset == first_op as u64),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_snapshot_and_empties_log() {
        let _lock = test_lock();
        let dir = tmp_dir("compact");
        let path = dir.join("cars.ssab");
        let fp = {
            let mut sheet =
                DurableSheet::create(&path, 1, used_cars(), FsyncPolicy::Always).expect("create");
            sheet.commit(select_op(15000)).expect("commit");
            sheet.commit(SheetOp::Dedup).expect("commit");
            sheet.compact().expect("compact");
            assert!(sheet.replica().log().is_empty());
            assert!(sheet.wal_len() <= 200, "fresh wal is near-empty");
            // Post-compaction commits land in the fresh log.
            sheet.commit(select_op(100)).expect("commit");
            sheet.replica().fingerprint()
        };
        let recovered = DurableSheet::open(&path, 1, FsyncPolicy::Always).expect("open");
        assert_eq!(recovered.replica().fingerprint(), fp);
        assert_eq!(recovered.replica().log().len(), 1);
        // The compacted events are genuinely baked into the snapshot.
        assert!(recovered.replica().compacted_vv().get(1) >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absorb_persists_merged_events() {
        let _lock = test_lock();
        let dir = tmp_dir("absorb");
        let path_a = dir.join("a.ssab");
        let mut a = DurableSheet::create(&path_a, 1, used_cars(), FsyncPolicy::Always).expect("a");
        let mut b = DurableSheet::in_memory(2, used_cars()).expect("b");
        b.commit(select_op(15000)).expect("b commit");
        let events = b.events_since(&a.replica().frontier_vv()).expect("events");
        let outcome = a.absorb(&events).expect("absorb");
        assert_eq!(outcome.added.len(), 1);
        assert_eq!(a.replica().fingerprint(), b.replica().fingerprint());
        // The absorbed event survives restart.
        drop(a);
        let recovered = DurableSheet::open(&path_a, 1, FsyncPolicy::Always).expect("open");
        assert_eq!(recovered.replica().fingerprint(), b.replica().fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn failed_append_rolls_back_the_memory_apply() {
        use ssa_relation::fault;
        let dir = tmp_dir("append-fault");
        let path = dir.join("cars.ssab");
        let mut sheet =
            DurableSheet::create(&path, 1, used_cars(), FsyncPolicy::Always).expect("create");
        let before = sheet.replica().fingerprint();
        let _guard = fault::lock();
        fault::reset();
        fault::arm("wal.append", 1, fault::Behavior::Error);
        let err = sheet.commit(select_op(15000)).expect_err("commit");
        fault::reset();
        assert!(err.to_string().contains("wal.append"), "{err}");
        assert_eq!(sheet.replica().fingerprint(), before);
        assert!(sheet.replica().log().is_empty());
        // The sheet is still usable and consistent after the rollback.
        sheet.commit(select_op(15000)).expect("retry succeeds");
        drop(sheet);
        let recovered = DurableSheet::open(&path, 1, FsyncPolicy::Always).expect("open");
        assert_eq!(recovered.replica().log().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
