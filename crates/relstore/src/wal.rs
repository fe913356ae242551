//! `DurableEngine`: a write-ahead-logged, snapshotting storage backend.
//!
//! The durable backend wraps a write-through in-memory [`Database`] and
//! journals every logical mutation to a binary write-ahead log before it is
//! considered committed, taking periodic full-database snapshots so the log
//! can be truncated. All disk access goes through the [`Vfs`] trait
//! (`crate::vfs`): [`StdFs`] in production (byte-identical WAL layout to the
//! pre-Vfs engine), `FaultVfs` in the storage torture tests (DESIGN.md §12).
//!
//! ## On-disk layout
//!
//! One directory per engine:
//!
//! ```text
//! snapshot-<epoch>   full database state at the start of the epoch
//!                    (the line format of `crate::snapshot`, row ids kept,
//!                    plus a `#checksum <fnv1a64>` footer line)
//! wal-<epoch>        logical ops committed since that snapshot
//! ```
//!
//! A checkpoint writes `snapshot-<epoch+1>` (atomic tmp + sync + rename),
//! starts an empty `wal-<epoch+1>`, and removes the files of `epoch-1` —
//! the *previous* epoch is retained so recovery can fall back to it when
//! the newest snapshot is corrupt. Recovery tries snapshot epochs newest
//! first: verify the snapshot checksum, parse it, then replay the WAL
//! *chain* from that epoch up to the newest (`snapshot-E` + a fully
//! replayed `wal-E` reconstructs exactly the state `snapshot-(E+1)` froze,
//! so falling back one epoch loses nothing committed).
//!
//! ## WAL record format
//!
//! Each record is a frame `[u32 len | u32 fnv1a(payload) | payload]`, all
//! integers little-endian. The payload is one tagged logical op:
//!
//! ```text
//! 1 CreateTable  name, columns (name, dtype, nullable)
//! 2 CreateIndex  table, name, kind, unique, key column names
//! 3 DropTable    name
//! 4 Insert       table, row id, values
//! 5 Delete       table, row id
//! 6 Update       table, row id, new values
//! 7 Commit       (group boundary, empty body)
//! ```
//!
//! Rows of *unlogged* tables ([`StorageEngine::set_unlogged`]) appear in
//! neither the WAL nor a snapshot: only their DDL does, so they recover
//! empty. They hold derived state the owner rebuilds from its logged
//! tables (an MDP's filter tables, DESIGN.md §6.4).
//!
//! Ops between two `Commit` markers form one atomic group: replay buffers
//! decoded ops and applies them only when their `Commit` frame is read, so
//! a crash mid-group loses the whole group, never half of it. Replay stops
//! at the first torn or corrupt frame (short header, short payload,
//! checksum mismatch, undecodable op); whether that is treated as a torn
//! tail (truncate and continue — expected after a crash) or as detected
//! corruption (typed [`Error::Corrupt`]) depends on what follows: if any
//! valid frame exists *after* the bad one, the damage is mid-log bit rot,
//! not a tear, and recovery refuses to silently drop committed groups.
//! Corruption of the *final* group is indistinguishable from a torn write
//! of an unacknowledged group by construction (length+checksum framing
//! carries no external commit count) and is truncated like a tear. Row ids
//! are recorded in the log and restored verbatim, so recovered state is
//! byte-identical to the pre-crash snapshot text.
//!
//! ## Failure semantics
//!
//! Every fault surfaces as a typed error ([`Error::Io`],
//! [`Error::TornWrite`], [`Error::Corrupt`]) — never a panic. A failed
//! group flush (write error, short write, failed sync) **wedges** the
//! engine: the pending buffer is dropped and every further mutation
//! returns [`Error::Wedged`] until the caller recovers by reopening the
//! directory. Retrying the flush instead would append the group's frames a
//! second time after a partial write and corrupt the log — the same class
//! of bug as the infamous Postgres fsync-retry problem. A wedged (or
//! mid-commit-crashed) engine's in-memory state may be *ahead* of durable
//! state, which [`DurableEngine::is_degraded`] reports so callers can stop
//! trusting the write-through cache. A failed **auto**-checkpoint does not
//! fail its commit (the data is already durable): pre-publish failures are
//! counted and retried at the next commit; a failure after the new
//! snapshot is published but before the new WAL opens wedges the engine,
//! since later commits would otherwise land in a log recovery ignores.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::catalog::Database;
use crate::engine::StorageEngine;
use crate::error::{Error, Result};
use crate::index::IndexKind;
use crate::schema::{ColumnDef, TableSchema};
use crate::snapshot::{read_database, write_database_into};
use crate::table::{Row, RowId};
use crate::value::{DataType, Value};
use crate::vfs::{StdFs, Vfs, VfsFile};

/// Default number of committed ops between automatic checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 8192;

/// Tuning knobs of a [`DurableEngine`], set through
/// [`DurableEngine::set_checkpoint_every`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Snapshot + truncate the log after this many journaled ops, so it
    /// bounds replay (`None` disables auto-checkpointing; rows of unlogged
    /// tables do not count; explicit [`StorageEngine::checkpoint`]
    /// always works). The torture harness sets this low to force frequent
    /// compaction windows.
    pub checkpoint_every: Option<u64>,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            checkpoint_every: Some(DEFAULT_CHECKPOINT_EVERY),
        }
    }
}

/// What [`DurableEngine::open`] did to reconstruct state, for callers (and
/// the storage torture tests) that need to distinguish a clean replay from
/// a checksum fall-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Highest snapshot epoch present in the directory.
    pub newest_epoch: u64,
    /// Epoch whose snapshot recovery actually started from.
    pub epoch_used: u64,
    /// True when the newest snapshot was unusable (corrupt checksum,
    /// unreadable, unparsable) and an older epoch was used instead.
    pub fell_back: bool,
    /// Bytes of torn/uncommitted tail truncated from the newest WAL.
    pub truncated_tail_bytes: u64,
}

const OP_CREATE_TABLE: u8 = 1;
const OP_CREATE_INDEX: u8 = 2;
const OP_DROP_TABLE: u8 = 3;
const OP_INSERT: u8 = 4;
const OP_DELETE: u8 = 5;
const OP_UPDATE: u8 = 6;
const OP_COMMIT: u8 = 7;

/// FNV-1a over the payload; cheap, dependency-free, and plenty to detect
/// torn or bit-rotted frames (we never face adversarial corruption).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// 64-bit FNV-1a for the snapshot body footer (a whole snapshot is big
/// enough that a 32-bit sum would start colliding under heavy bit rot).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- payload encoding ----------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

/// Sequential payload reader; every accessor fails on truncation instead of
/// panicking, so a corrupt frame surfaces as a decode error.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or_else(|| Error::Corrupt("wal: truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        // `take` guarantees exactly 4 bytes, so the conversion is infallible
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::Corrupt("wal: invalid utf-8".into()))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(self.str()?),
            t => return Err(Error::Corrupt(format!("wal: unknown value tag {t}"))),
        })
    }

    fn row(&mut self) -> Result<Row> {
        let n = self.u32()? as usize;
        // cap pre-allocation by what the buffer could possibly hold
        let mut row = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A decoded logical WAL op, buffered until its group's commit marker.
enum WalOp {
    CreateTable(TableSchema),
    CreateIndex {
        table: String,
        name: String,
        kind: IndexKind,
        unique: bool,
        columns: Vec<String>,
    },
    DropTable(String),
    Insert(String, RowId, Row),
    Delete(String, RowId),
    Update(String, RowId, Row),
}

fn decode_op(payload: &[u8]) -> Result<Option<WalOp>> {
    let mut c = Cursor::new(payload);
    let op = match c.u8()? {
        OP_CREATE_TABLE => {
            let name = c.str()?;
            let ncols = c.u32()? as usize;
            let mut cols = Vec::with_capacity(ncols.min(payload.len()));
            for _ in 0..ncols {
                let cname = c.str()?;
                let dtype = match c.u8()? {
                    0 => DataType::Bool,
                    1 => DataType::Int,
                    2 => DataType::Float,
                    3 => DataType::Str,
                    t => return Err(Error::Corrupt(format!("wal: unknown dtype tag {t}"))),
                };
                let mut col = ColumnDef::new(cname, dtype);
                if c.u8()? != 0 {
                    col = col.nullable();
                }
                cols.push(col);
            }
            Some(WalOp::CreateTable(TableSchema::new(name, cols)?))
        }
        OP_CREATE_INDEX => {
            let table = c.str()?;
            let name = c.str()?;
            let kind = match c.u8()? {
                0 => IndexKind::Hash,
                1 => IndexKind::BTree,
                t => return Err(Error::Corrupt(format!("wal: unknown index kind {t}"))),
            };
            let unique = c.u8()? != 0;
            let ncols = c.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols.min(payload.len()));
            for _ in 0..ncols {
                columns.push(c.str()?);
            }
            Some(WalOp::CreateIndex {
                table,
                name,
                kind,
                unique,
                columns,
            })
        }
        OP_DROP_TABLE => Some(WalOp::DropTable(c.str()?)),
        OP_INSERT => Some(WalOp::Insert(c.str()?, RowId(c.u64()?), c.row()?)),
        OP_DELETE => Some(WalOp::Delete(c.str()?, RowId(c.u64()?))),
        OP_UPDATE => Some(WalOp::Update(c.str()?, RowId(c.u64()?), c.row()?)),
        OP_COMMIT => None,
        t => return Err(Error::Corrupt(format!("wal: unknown op tag {t}"))),
    };
    if !c.done() {
        return Err(Error::Corrupt("wal: trailing bytes in payload".into()));
    }
    Ok(op)
}

fn apply_op(db: &mut Database, op: WalOp) -> Result<()> {
    match op {
        WalOp::CreateTable(schema) => db.create_table(schema),
        WalOp::CreateIndex {
            table,
            name,
            kind,
            unique,
            columns,
        } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            db.create_index(&table, &name, kind, &cols, unique)
        }
        WalOp::DropTable(name) => db.drop_table(&name).map(|_| ()),
        // `insert_with_id` preserves the logged row id (and bumps the table's id
        // counter), so recovered state is byte-identical to pre-crash state
        WalOp::Insert(table, rid, row) => db.table_mut(&table)?.insert_with_id(rid, row),
        WalOp::Delete(table, rid) => db.delete(&table, rid).map(|_| ()),
        WalOp::Update(table, rid, row) => db.update(&table, rid, row).map(|_| ()),
    }
}

// ---- the engine ----------------------------------------------------------

/// The durable storage backend: write-through in-memory state plus a binary
/// WAL plus periodic snapshots, generic over the [`Vfs`] it persists
/// through (default [`StdFs`]). Constructed over a directory;
/// [`DurableEngine::open`] recovers committed state after a crash.
///
/// Not `Clone` (a WAL directory has one writer), but `Send + Sync` like
/// the volatile backend: a durable node can move to its own thread.
pub struct DurableEngine<V: Vfs = StdFs> {
    db: Database,
    vfs: V,
    dir: PathBuf,
    epoch: u64,
    wal: V::File,
    /// Encoded frames of the open (or auto-) commit group.
    pending: Vec<u8>,
    /// Ops in the pending buffer (for the checkpoint counter).
    pending_ops: u64,
    /// Open `begin` nesting depth: only the outermost `commit` flushes, so
    /// a caller can wrap several engine-level groups into one atomic unit.
    group_depth: u32,
    /// Tables whose rows are neither journaled nor snapshotted.
    unlogged: HashSet<String>,
    ops_since_checkpoint: u64,
    config: DurableConfig,
    /// Committed WAL bytes this epoch (instrumentation for the bench).
    wal_bytes: u64,
    commits: u64,
    /// Set when a durability operation failed; see the module docs.
    wedged: Option<String>,
    checkpoint_failures: u64,
    recovery: Option<RecoveryReport>,
}

impl<V: Vfs> std::fmt::Debug for DurableEngine<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableEngine")
            .field("dir", &self.dir)
            .field("epoch", &self.epoch)
            .field("wal_bytes", &self.wal_bytes)
            .field("commits", &self.commits)
            .field("wedged", &self.wedged)
            .finish_non_exhaustive()
    }
}

impl DurableEngine {
    /// Creates a fresh engine over `dir` on the real filesystem (created if
    /// missing; must not already contain an engine).
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::create_with(StdFs, dir)
    }

    /// Creates a fresh engine on the real filesystem whose initial snapshot
    /// is `db` (bulk load: the seed state is persisted once as
    /// `snapshot-0`, not logged op by op).
    pub fn create_from(dir: impl Into<PathBuf>, db: Database) -> Result<Self> {
        Self::create_from_with(StdFs, dir, db)
    }

    /// Recovers an engine from `dir` on the real filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(StdFs, dir)
    }
}

impl<V: Vfs> DurableEngine<V> {
    /// [`DurableEngine::create`] over an explicit [`Vfs`].
    pub fn create_with(vfs: V, dir: impl Into<PathBuf>) -> Result<Self> {
        Self::create_from_with(vfs, dir, Database::new())
    }

    /// [`DurableEngine::create_from`] over an explicit [`Vfs`].
    pub fn create_from_with(vfs: V, dir: impl Into<PathBuf>, db: Database) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)
            .map_err(|e| Error::from_io("wal: create dir", e))?;
        if !snapshot_epochs(&vfs, &dir)?.is_empty() {
            return Err(Error::Io(format!(
                "wal: directory '{}' already contains an engine (use open)",
                dir.display()
            )));
        }
        write_snapshot_atomic(&vfs, &dir, 0, &db, &HashSet::new())?;
        let wal = open_wal(&vfs, &dir, 0, true)?;
        Ok(DurableEngine {
            db,
            vfs,
            dir,
            epoch: 0,
            wal,
            pending: Vec::new(),
            pending_ops: 0,
            group_depth: 0,
            unlogged: HashSet::new(),
            ops_since_checkpoint: 0,
            config: DurableConfig::default(),
            wal_bytes: 0,
            commits: 0,
            wedged: None,
            checkpoint_failures: 0,
            recovery: None,
        })
    }

    /// [`DurableEngine::open`] over an explicit [`Vfs`]: verifies the
    /// newest snapshot's checksum and replays its WAL, falling back to the
    /// previous epoch (replaying the WAL *chain* forward) when the newest
    /// snapshot is corrupt. Truncates any torn or uncommitted WAL suffix
    /// (expected after a crash) before accepting new writes; mid-log
    /// corruption — a bad frame with valid frames after it — is refused
    /// with [`Error::Corrupt`] instead of silently dropping committed
    /// groups.
    pub fn open_with(vfs: V, dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let epochs = snapshot_epochs(&vfs, &dir)?;
        let Some(&newest) = epochs.first() else {
            return Err(Error::Io(format!(
                "wal: no snapshot found in '{}'",
                dir.display()
            )));
        };
        let mut last_err: Option<Error> = None;
        for &start in &epochs {
            match try_recover(&vfs, &dir, start, newest) {
                Ok((db, valid_len, truncated)) => {
                    let mut wal = open_wal(&vfs, &dir, newest, false)?;
                    wal.truncate(valid_len)
                        .map_err(|e| Error::from_io("wal: truncate torn tail", e))?;
                    return Ok(DurableEngine {
                        db,
                        vfs,
                        dir,
                        epoch: newest,
                        wal,
                        pending: Vec::new(),
                        pending_ops: 0,
                        group_depth: 0,
                        unlogged: HashSet::new(),
                        ops_since_checkpoint: 0,
                        config: DurableConfig::default(),
                        wal_bytes: valid_len,
                        commits: 0,
                        wedged: None,
                        checkpoint_failures: 0,
                        recovery: Some(RecoveryReport {
                            newest_epoch: newest,
                            epoch_used: start,
                            fell_back: start != newest,
                            truncated_tail_bytes: truncated,
                        }),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| Error::Corrupt("wal: no recoverable epoch".into())))
    }

    /// The directory this engine persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The [`Vfs`] this engine persists through.
    pub fn vfs(&self) -> &V {
        &self.vfs
    }

    /// Current snapshot epoch (bumped by every checkpoint).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Committed WAL bytes written in the current epoch.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Commit groups made durable so far (including auto-commits).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// What [`DurableEngine::open`] did to recover this engine (`None` on
    /// a freshly created engine).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// True once a durability operation failed: the in-memory database may
    /// be ahead of durable state, and all further mutations are refused
    /// with [`Error::Wedged`]. Recover by reopening the directory.
    pub fn is_degraded(&self) -> bool {
        self.wedged.is_some()
    }

    /// Why the engine wedged, if it did.
    pub fn wedge_reason(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    /// Auto-checkpoints that failed before publishing and will be retried.
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures
    }

    /// This engine's tuning knobs.
    pub fn config(&self) -> DurableConfig {
        self.config
    }

    /// Sets the automatic-checkpoint threshold: snapshot + truncate after
    /// every `n` committed ops (`None` disables; explicit
    /// [`StorageEngine::checkpoint`] always works).
    pub fn set_checkpoint_every(&mut self, n: Option<u64>) {
        self.config.checkpoint_every = n;
    }

    fn guard(&self) -> Result<()> {
        match &self.wedged {
            Some(reason) => Err(Error::Wedged(reason.clone())),
            None => Ok(()),
        }
    }

    fn wedge(&mut self, err: &Error) {
        self.wedged = Some(err.to_string());
        self.pending.clear();
        self.pending_ops = 0;
    }

    fn log_op(&mut self, payload: &[u8]) -> Result<()> {
        append_frame(&mut self.pending, payload);
        self.op_logged()
    }

    /// Journals row op `tag` on `table` — the row id, plus the stored row
    /// for inserts and updates — encoded straight into the pending buffer.
    /// An op on an unlogged table writes nothing and, adding nothing to
    /// replay, does not count towards the checkpoint threshold.
    fn log_row_op(&mut self, tag: u8, table: &str, rid: RowId) -> Result<()> {
        if self.unlogged.contains(table) {
            return Ok(());
        }
        let row = match tag {
            OP_DELETE => None,
            _ => Some(self.db.get(table, rid)?),
        };
        let at = begin_frame(&mut self.pending);
        self.pending.push(tag);
        put_str(&mut self.pending, table);
        put_u64(&mut self.pending, rid.0);
        if let Some(row) = row {
            put_row(&mut self.pending, row);
        }
        end_frame(&mut self.pending, at);
        self.op_logged()
    }

    /// Counts one journaled op; outside a commit group it commits alone.
    fn op_logged(&mut self) -> Result<()> {
        self.pending_ops += 1;
        if self.group_depth == 0 {
            self.flush_group()?;
        }
        Ok(())
    }

    /// Writes the pending frames plus a commit marker and syncs. Any
    /// failure wedges the engine (see the module docs: a retry would
    /// duplicate the partially written frames).
    fn flush_group(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.guard()?;
        append_frame(&mut self.pending, &[OP_COMMIT]);
        if let Err(e) = self.wal.append(&self.pending) {
            let err = Error::from_io("wal: append", e);
            self.wedge(&err);
            return Err(err);
        }
        if let Err(e) = self.wal.sync() {
            let err = Error::from_io("wal: sync", e);
            self.wedge(&err);
            return Err(err);
        }
        self.wal_bytes += self.pending.len() as u64;
        self.commits += 1;
        self.ops_since_checkpoint += self.pending_ops;
        self.pending.clear();
        self.pending_ops = 0;
        if let Some(every) = self.config.checkpoint_every {
            if self.ops_since_checkpoint >= every {
                // the commit itself is already durable, so an auto-
                // checkpoint failure must not fail it: pre-publish errors
                // are counted and retried at the next commit (post-publish
                // errors wedge inside do_checkpoint)
                if self.do_checkpoint().is_err() {
                    self.checkpoint_failures += 1;
                }
            }
        }
        Ok(())
    }

    /// Snapshot + log truncation: writes `snapshot-<epoch+1>` atomically,
    /// starts an empty `wal-<epoch+1>`, and removes the files of
    /// `epoch-1`, keeping one previous epoch for checksum fall-back.
    fn do_checkpoint(&mut self) -> Result<()> {
        let next = self.epoch + 1;
        // failure before the rename publishes is safe: the directory is
        // untouched as far as recovery is concerned, so just propagate
        write_snapshot_atomic(&self.vfs, &self.dir, next, &self.db, &self.unlogged)?;
        // the new snapshot is published: recovery now prefers epoch `next`,
        // so failing to start its WAL would send future commits into a log
        // recovery ignores — wedge instead
        match open_wal(&self.vfs, &self.dir, next, true) {
            Ok(w) => self.wal = w,
            Err(e) => {
                self.wedge(&e);
                return Err(e);
            }
        }
        if self.epoch > 0 {
            // best-effort cleanup: a crash in between leaves stale files
            // that recovery ignores (it picks the highest valid epoch)
            let _ = self
                .vfs
                .remove(wal_path(&self.dir, self.epoch - 1).as_path());
            let _ = self
                .vfs
                .remove(snapshot_path(&self.dir, self.epoch - 1).as_path());
        }
        self.epoch = next;
        self.ops_since_checkpoint = 0;
        self.wal_bytes = 0;
        Ok(())
    }
}

impl<V: Vfs> StorageEngine for DurableEngine<V> {
    fn database(&self) -> &Database {
        &self.db
    }

    fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        self.guard()?;
        let mut p = vec![OP_CREATE_TABLE];
        put_str(&mut p, schema.name());
        put_u32(&mut p, schema.columns().len() as u32);
        for col in schema.columns() {
            put_str(&mut p, &col.name);
            p.push(match col.dtype {
                DataType::Bool => 0,
                DataType::Int => 1,
                DataType::Float => 2,
                DataType::Str => 3,
            });
            p.push(u8::from(col.nullable));
        }
        self.db.create_table(schema)?;
        self.log_op(&p)
    }

    fn create_index(
        &mut self,
        table: &str,
        name: &str,
        kind: IndexKind,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        self.guard()?;
        self.db.create_index(table, name, kind, columns, unique)?;
        let mut p = vec![OP_CREATE_INDEX];
        put_str(&mut p, table);
        put_str(&mut p, name);
        p.push(match kind {
            IndexKind::Hash => 0,
            IndexKind::BTree => 1,
        });
        p.push(u8::from(unique));
        put_u32(&mut p, columns.len() as u32);
        for c in columns {
            put_str(&mut p, c);
        }
        self.log_op(&p)
    }

    fn drop_table(&mut self, name: &str) -> Result<()> {
        self.guard()?;
        self.db.drop_table(name)?;
        self.unlogged.remove(name);
        let mut p = vec![OP_DROP_TABLE];
        put_str(&mut p, name);
        self.log_op(&p)
    }

    /// Marks an empty table unlogged for the life of this engine; the mark
    /// itself is not persisted (a reopened engine logs the table again).
    fn set_unlogged(&mut self, table: &str) -> Result<()> {
        if !self.db.table(table)?.is_empty() {
            return Err(Error::TransactionState(format!(
                "table '{table}' has rows: only an empty table can become unlogged"
            )));
        }
        self.unlogged.insert(table.to_owned());
        Ok(())
    }

    fn insert(&mut self, table: &str, row: Row) -> Result<RowId> {
        self.guard()?;
        // apply first to learn the row id the in-memory engine assigns
        let rid = self.db.insert(table, row)?;
        self.log_row_op(OP_INSERT, table, rid)?;
        Ok(rid)
    }

    fn insert_batch(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<RowId>> {
        let mut ids = Vec::with_capacity(rows.len());
        for row in rows {
            ids.push(StorageEngine::insert(self, table, row)?);
        }
        Ok(ids)
    }

    fn delete(&mut self, table: &str, id: RowId) -> Result<Row> {
        self.guard()?;
        let row = self.db.delete(table, id)?;
        self.log_row_op(OP_DELETE, table, id)?;
        Ok(row)
    }

    fn update(&mut self, table: &str, id: RowId, row: Row) -> Result<Row> {
        self.guard()?;
        let old = self.db.update(table, id, row)?;
        self.log_row_op(OP_UPDATE, table, id)?;
        Ok(old)
    }

    fn begin(&mut self) {
        self.group_depth += 1;
    }

    fn commit(&mut self) -> Result<()> {
        self.group_depth = self.group_depth.saturating_sub(1);
        if self.group_depth == 0 {
            self.flush_group()
        } else {
            Ok(())
        }
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.guard()?;
        if self.group_depth > 0 {
            return Err(Error::TransactionState(
                "checkpoint inside an open commit group".into(),
            ));
        }
        self.do_checkpoint()
    }
}

// ---- files ---------------------------------------------------------------

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch}"))
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}"))
}

/// Epochs with a (non-tmp) snapshot file, newest first.
fn snapshot_epochs<V: Vfs>(vfs: &V, dir: &Path) -> Result<Vec<u64>> {
    let names = match vfs.read_dir(dir) {
        Ok(names) => names,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(Error::from_io("wal: read dir", e)),
    };
    let mut epochs: Vec<u64> = names
        .iter()
        .filter_map(|name| name.strip_prefix("snapshot-")?.parse().ok())
        .collect();
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(epochs)
}

const SNAPSHOT_FOOTER_PREFIX: &str = "#checksum ";

/// Appends the checksum footer line to a snapshot body.
fn seal_snapshot(body: &mut String) {
    use std::fmt::Write as _;
    let sum = fnv1a64(body.as_bytes());
    // `fmt::Write` for a `String` never fails
    let _ = writeln!(body, "{SNAPSHOT_FOOTER_PREFIX}{sum:016x}");
}

/// Splits a snapshot into (body, checksum footer), if the footer exists.
fn split_footer(raw: &str) -> Option<(&str, &str)> {
    let stripped = raw.strip_suffix('\n')?;
    let nl = stripped.rfind('\n')?;
    let sum = stripped[nl + 1..].strip_prefix(SNAPSHOT_FOOTER_PREFIX)?;
    Some((&raw[..nl + 1], sum))
}

/// Verifies the footer checksum and returns the snapshot body. Footer-less
/// snapshots (written before checksums existed) are accepted as-is: the
/// atomic tmp+rename publish already guarantees they are complete.
fn verify_snapshot(raw: &str) -> Result<&str> {
    match split_footer(raw) {
        Some((body, sum)) => {
            let want = u64::from_str_radix(sum, 16)
                .map_err(|_| Error::Corrupt("snapshot: malformed checksum footer".into()))?;
            if fnv1a64(body.as_bytes()) == want {
                Ok(body)
            } else {
                Err(Error::Corrupt("snapshot: checksum mismatch".into()))
            }
        }
        None => Ok(raw),
    }
}

/// Publishes `snapshot-<epoch>`: `db` without the rows of the `unlogged`
/// tables, sealed, written to a tmp file, synced and renamed into place.
fn write_snapshot_atomic<V: Vfs>(
    vfs: &V,
    dir: &Path,
    epoch: u64,
    db: &Database,
    unlogged: &HashSet<String>,
) -> Result<()> {
    let tmp = dir.join(format!("snapshot-{epoch}.tmp"));
    let mut text = String::new();
    write_database_into(&mut text, db, |table| unlogged.contains(table));
    seal_snapshot(&mut text);
    vfs.write(&tmp, text.as_bytes())
        .map_err(|e| Error::from_io("wal: write snapshot", e))?;
    vfs.sync_file(&tmp)
        .map_err(|e| Error::from_io("wal: sync snapshot", e))?;
    vfs.rename(&tmp, snapshot_path(dir, epoch).as_path())
        .map_err(|e| Error::from_io("wal: publish snapshot", e))?;
    Ok(())
}

fn open_wal<V: Vfs>(vfs: &V, dir: &Path, epoch: u64, truncate: bool) -> Result<V::File> {
    vfs.open_append(wal_path(dir, epoch).as_path(), truncate)
        .map_err(|e| Error::from_io("wal: open log", e))
}

fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, fnv1a(payload));
    out.extend_from_slice(payload);
}

/// Opens a frame whose payload is encoded in place after it; returns the
/// header's offset for [`end_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    at
}

/// Fills in the length and checksum of the frame opened at `at`: the same
/// bytes [`append_frame`] writes for that payload.
fn end_frame(out: &mut [u8], at: usize) {
    let (header, payload) = out[at..].split_at_mut(8);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
}

/// One recovery attempt starting from `start`'s snapshot: verify + parse
/// it, then replay the WAL chain `wal-start .. wal-newest`. Non-final WALs
/// in the chain were complete when their successor snapshot was taken, so
/// anything short of full replay there is corruption; the final WAL may
/// carry a torn tail. Returns the recovered database, the committed byte
/// length of the newest WAL, and the truncated tail size.
fn try_recover<V: Vfs>(
    vfs: &V,
    dir: &Path,
    start: u64,
    newest: u64,
) -> Result<(Database, u64, u64)> {
    let raw = vfs
        .read(snapshot_path(dir, start).as_path())
        .map_err(|e| Error::from_io("wal: read snapshot", e))?;
    let raw = String::from_utf8(raw)
        .map_err(|_| Error::Corrupt(format!("snapshot-{start}: invalid utf-8")))?;
    let mut db = read_database(verify_snapshot(&raw)?)?;
    let mut committed = 0u64;
    let mut truncated = 0u64;
    for e in start..=newest {
        let bytes = match vfs.read(wal_path(dir, e).as_path()) {
            Ok(b) => b,
            // a crash between snapshot rename and WAL creation leaves no
            // newest WAL: equivalent to an empty log
            Err(err) if err.kind() == std::io::ErrorKind::NotFound && e == newest => Vec::new(),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::Corrupt(format!(
                    "wal-{e}: missing from the fall-back replay chain"
                )));
            }
            Err(err) => return Err(Error::from_io("wal: read log", err)),
        };
        let end = replay(&mut db, &bytes)?;
        if e < newest {
            // this WAL froze into snapshot-(e+1); it must replay whole
            if end.parsed as usize != bytes.len() {
                return Err(Error::Corrupt(format!(
                    "wal-{e}: corrupt frame in a non-final log of the replay chain"
                )));
            }
        } else {
            if (end.parsed as usize) < bytes.len()
                && has_valid_frame_after(&bytes, end.parsed as usize)
            {
                return Err(Error::Corrupt(format!(
                    "wal-{e}: corrupt frame followed by valid frames (mid-log corruption, \
                     not a torn tail)"
                )));
            }
            committed = end.committed;
            truncated = bytes.len() as u64 - end.committed;
        }
    }
    Ok((db, committed, truncated))
}

/// Where a replay pass stopped.
struct ReplayEnd {
    /// Byte length of the committed prefix (ends at a commit marker).
    committed: u64,
    /// Byte offset where frame parsing stopped (≥ `committed`; frames of
    /// an open, uncommitted group parse fine but never apply).
    parsed: u64,
}

/// Replays committed groups from `bytes` into `db`. Anything after the
/// last commit marker — an open group, a torn frame, a corrupt checksum —
/// is not applied; the caller decides (via [`ReplayEnd::parsed`] and a
/// forward scan) whether the unparsable remainder is a truncatable tail or
/// detected corruption.
fn replay(db: &mut Database, bytes: &[u8]) -> Result<ReplayEnd> {
    let mut pos = 0usize;
    let mut committed = 0usize;
    let mut group: Vec<WalOp> = Vec::new();
    // stop at a torn header (or clean EOF), torn payload, corrupt frame
    while let Some(header_end) = pos.checked_add(8).filter(|e| *e <= bytes.len()) {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(bytes[pos + 4..header_end].try_into().unwrap());
        let Some(frame_end) = header_end.checked_add(len).filter(|e| *e <= bytes.len()) else {
            break; // torn payload
        };
        let payload = &bytes[header_end..frame_end];
        if fnv1a(payload) != want {
            break; // corrupt frame
        }
        let Ok(op) = decode_op(payload) else {
            break; // undecodable op: same
        };
        pos = frame_end;
        match op {
            Some(op) => group.push(op),
            None => {
                // commit marker: the group becomes visible atomically
                for op in group.drain(..) {
                    apply_op(db, op)?;
                }
                committed = pos;
            }
        }
    }
    Ok(ReplayEnd {
        committed: committed as u64,
        parsed: pos as u64,
    })
}

/// Scans forward from just past a bad frame for any complete, checksummed,
/// decodable frame — evidence that the bad frame is mid-log corruption
/// rather than a torn tail (a tear is always the physical end of the log).
fn has_valid_frame_after(bytes: &[u8], stop: usize) -> bool {
    let mut pos = stop + 1;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if let Some(end) = (pos + 8).checked_add(len).filter(|e| *e <= bytes.len()) {
            let payload = &bytes[pos + 8..end];
            if fnv1a(payload) == want && decode_op(payload).is_ok() {
                return true;
            }
        }
        pos += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_database;
    use crate::vfs::{CrashMode, DiskFaultPlan, FaultVfs};
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mdv-wal-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn schema_t() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Str).nullable(),
            ],
        )
        .unwrap()
    }

    fn row(k: i64, v: &str) -> Row {
        vec![Value::Int(k), Value::Str(v.into())]
    }

    #[test]
    fn recovery_replays_committed_ops_byte_identically() {
        let dir = temp_dir("basic");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        eng.create_index("t", "by_k", IndexKind::Hash, &["k"], true)
            .unwrap();
        eng.begin();
        let a = StorageEngine::insert(&mut eng, "t", row(1, "a")).unwrap();
        StorageEngine::insert(&mut eng, "t", row(2, "b")).unwrap();
        eng.commit().unwrap();
        StorageEngine::update(&mut eng, "t", a, vec![Value::Int(1), Value::Null]).unwrap();
        StorageEngine::delete(&mut eng, "t", a).unwrap();
        let want = write_database(eng.database());
        drop(eng);
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), want);
        let report = recovered.recovery_report().unwrap();
        assert!(!report.fell_back);
        assert_eq!(report.truncated_tail_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_group_is_lost_whole() {
        let dir = temp_dir("atomic");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        StorageEngine::insert(&mut eng, "t", row(1, "committed")).unwrap();
        let want = write_database(eng.database());
        eng.begin();
        StorageEngine::insert(&mut eng, "t", row(2, "doomed")).unwrap();
        StorageEngine::insert(&mut eng, "t", row(3, "doomed")).unwrap();
        // simulate a crash before commit: the group never reaches the file
        drop(eng);
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nested_groups_flush_only_at_outermost_commit() {
        let dir = temp_dir("nest");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        let committed = eng.commits();
        eng.begin(); // outer group (e.g. a whole node operation)
        eng.begin(); // inner group (e.g. one engine-level batch)
        StorageEngine::insert(&mut eng, "t", row(1, "a")).unwrap();
        StorageEngine::commit(&mut eng).unwrap(); // inner: must NOT flush
        StorageEngine::insert(&mut eng, "t", row(2, "b")).unwrap();
        assert_eq!(eng.commits(), committed, "inner commit flushed early");
        // crash here loses the whole outer group
        {
            let lost = DurableEngine::open(&dir).unwrap();
            assert!(lost.database().table("t").unwrap().iter().next().is_none());
        }
        StorageEngine::commit(&mut eng).unwrap(); // outer: flushes both
        let want = write_database(eng.database());
        drop(eng);
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_discarded_and_log_reusable() {
        let dir = temp_dir("torn");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        StorageEngine::insert(&mut eng, "t", row(1, "safe")).unwrap();
        let want = write_database(eng.database());
        let epoch = eng.epoch();
        drop(eng);
        // crash mid-append: a partial frame lands at the end of the log
        let path = wal_path(&dir, epoch);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad]).unwrap(); // len=64, torn
        drop(f);
        let mut recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), want);
        assert!(recovered.recovery_report().unwrap().truncated_tail_bytes > 0);
        // the torn tail was truncated: new writes commit and recover fine
        StorageEngine::insert(&mut recovered, "t", row(2, "after")).unwrap();
        let want2 = write_database(recovered.database());
        drop(recovered);
        let again = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(again.database()), want2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_final_frame_truncates_but_corrupt_frame_before_commit_is_detected() {
        let dir = temp_dir("crc");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        StorageEngine::insert(&mut eng, "t", row(1, "keep")).unwrap();
        let keep = write_database(eng.database());
        StorageEngine::insert(&mut eng, "t", row(2, "flipped")).unwrap();
        let epoch = eng.epoch();
        drop(eng);
        let path = wal_path(&dir, epoch);
        let good = std::fs::read(&path).unwrap();
        let n = good.len();
        // flip a byte in the very last frame (the commit marker): nothing
        // valid follows, so this is indistinguishable from a torn tail of
        // an unacknowledged group and gets truncated
        let mut bytes = good.clone();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), keep);
        // flip a byte in the op frame *before* that commit marker: the
        // intact marker after it proves the group was committed, so the
        // damage is detected corruption, not silent truncation
        let mut bytes = good;
        bytes[n - 20] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match DurableEngine::open(&dir) {
            Err(Error::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_detected_not_truncated() {
        let dir = temp_dir("midlog");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        StorageEngine::insert(&mut eng, "t", row(1, "early")).unwrap();
        for k in 2..6 {
            StorageEngine::insert(&mut eng, "t", row(k, "later")).unwrap();
        }
        let epoch = eng.epoch();
        drop(eng);
        // flip a byte in an early committed group: valid frames follow it,
        // so recovery must refuse rather than drop the later commits
        let path = wal_path(&dir, epoch);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        match DurableEngine::open(&dir) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("mid-log"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous_epoch() {
        let dir = temp_dir("fallback");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        for k in 0..5 {
            StorageEngine::insert(&mut eng, "t", row(k, "pre")).unwrap();
        }
        eng.checkpoint().unwrap();
        StorageEngine::insert(&mut eng, "t", row(100, "post")).unwrap();
        let want = write_database(eng.database());
        assert_eq!(eng.epoch(), 1);
        drop(eng);
        // rot the newest snapshot's body: its checksum must catch it and
        // recovery must rebuild the same state from epoch 0's chain
        let path = snapshot_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, bytes).unwrap();
        let recovered = DurableEngine::open(&dir).unwrap();
        let report = recovered.recovery_report().unwrap();
        assert!(report.fell_back);
        assert_eq!(report.epoch_used, 0);
        assert_eq!(report.newest_epoch, 1);
        assert_eq!(write_database(recovered.database()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_retains_one_epoch_and_survives_restart() {
        let dir = temp_dir("ckpt");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        for k in 0..10 {
            StorageEngine::insert(&mut eng, "t", row(k, "x")).unwrap();
        }
        assert!(eng.wal_bytes() > 0);
        eng.checkpoint().unwrap();
        assert_eq!(eng.epoch(), 1);
        assert_eq!(eng.wal_bytes(), 0, "log truncated at checkpoint");
        // the previous epoch is retained for checksum fall-back …
        assert!(snapshot_path(&dir, 0).exists());
        assert!(wal_path(&dir, 0).exists());
        eng.checkpoint().unwrap();
        // … and dropped once it is two epochs old
        assert_eq!(eng.epoch(), 2);
        assert!(!snapshot_path(&dir, 0).exists());
        assert!(!wal_path(&dir, 0).exists());
        assert!(snapshot_path(&dir, 1).exists());
        StorageEngine::insert(&mut eng, "t", row(100, "post")).unwrap();
        let want = write_database(eng.database());
        drop(eng);
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(recovered.epoch(), 2);
        assert_eq!(write_database(recovered.database()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_fires_on_threshold() {
        let dir = temp_dir("auto");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.set_checkpoint_every(Some(5));
        assert_eq!(eng.config().checkpoint_every, Some(5));
        eng.create_table(schema_t()).unwrap();
        for k in 0..20 {
            StorageEngine::insert(&mut eng, "t", row(k, "x")).unwrap();
        }
        assert!(eng.epoch() >= 3, "epoch {} after 21 ops", eng.epoch());
        let want = write_database(eng.database());
        drop(eng);
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unlogged_rows_are_neither_journaled_nor_snapshotted() {
        let dir = temp_dir("unlogged");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        eng.create_table(TableSchema::new("d", vec![ColumnDef::new("k", DataType::Int)]).unwrap())
            .unwrap();
        eng.create_index("d", "by_k", IndexKind::Hash, &["k"], false)
            .unwrap();
        eng.set_unlogged("d").unwrap();
        let ddl_bytes = eng.wal_bytes();
        let commits = eng.commits();
        let rid = StorageEngine::insert(&mut eng, "d", vec![Value::Int(1)]).unwrap();
        StorageEngine::update(&mut eng, "d", rid, vec![Value::Int(2)]).unwrap();
        StorageEngine::insert(&mut eng, "d", vec![Value::Int(3)]).unwrap();
        StorageEngine::delete(&mut eng, "d", rid).unwrap();
        assert_eq!(
            eng.wal_bytes(),
            ddl_bytes,
            "an unlogged row reached the WAL"
        );
        assert_eq!(eng.commits(), commits, "an unlogged row committed a group");
        assert_eq!(eng.database().table("d").unwrap().len(), 1);
        StorageEngine::insert(&mut eng, "t", row(1, "logged")).unwrap();
        // what recovery must produce: the logged rows, `d` empty
        let mut want = eng.database().clone();
        want.table_mut("d").unwrap().truncate();
        let want = write_database(&want);

        let reopen = |dir: &Path| {
            let recovered = DurableEngine::open(dir).unwrap();
            assert_eq!(write_database(recovered.database()), want);
        };
        reopen(&dir); // from the WAL
        eng.checkpoint().unwrap();
        let snapshot = std::fs::read_to_string(snapshot_path(&dir, eng.epoch())).unwrap();
        assert!(snapshot.contains("index\tby_k\thash\tmulti\t0\n"));
        assert!(
            !snapshot.contains("I:3"),
            "an unlogged row reached the snapshot"
        );
        drop(eng);
        reopen(&dir); // from the snapshot

        // only an empty table can be marked, and dropping it clears the mark
        let mut eng = DurableEngine::open(&dir).unwrap();
        assert!(eng.set_unlogged("t").is_err());
        assert!(eng.set_unlogged("missing").is_err());
        eng.drop_table("d").unwrap();
        assert!(!eng.unlogged.contains("d"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_from_seeds_without_logging() {
        let mut db = Database::new();
        db.create_table(schema_t()).unwrap();
        db.insert("t", row(1, "seed")).unwrap();
        let dir = temp_dir("seed");
        let eng = DurableEngine::create_from(&dir, db.clone()).unwrap();
        assert_eq!(eng.wal_bytes(), 0, "seed state goes to the snapshot");
        assert_eq!(write_database(eng.database()), write_database(&db));
        drop(eng);
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), write_database(&db));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_refuses_empty_dir_and_create_refuses_existing() {
        let dir = temp_dir("guard");
        assert!(DurableEngine::open(&dir).is_err());
        let eng = DurableEngine::create(&dir).unwrap();
        drop(eng);
        assert!(DurableEngine::create(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_snapshot_without_footer_still_opens() {
        let dir = temp_dir("legacy");
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.create_table(schema_t()).unwrap();
        StorageEngine::insert(&mut eng, "t", row(1, "old")).unwrap();
        let want = write_database(eng.database());
        let epoch = eng.epoch();
        drop(eng);
        // strip the footer, simulating a snapshot from before checksums
        let path = snapshot_path(&dir, epoch);
        let raw = std::fs::read_to_string(&path).unwrap();
        let (body, _) = split_footer(&raw).expect("snapshot has a footer");
        std::fs::write(&path, body).unwrap();
        let recovered = DurableEngine::open(&dir).unwrap();
        assert_eq!(write_database(recovered.database()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_sync_wedges_engine_with_typed_errors() {
        let vfs = FaultVfs::new(5);
        let mut eng = DurableEngine::create_with(vfs.clone(), "/n1").unwrap();
        eng.create_table(schema_t()).unwrap();
        StorageEngine::insert(&mut eng, "t", row(1, "durable")).unwrap();
        let want = write_database(eng.database());
        // every sync now fails: the next commit must error and wedge
        vfs.set_plan(DiskFaultPlan {
            sync_err: 1.0,
            ..DiskFaultPlan::default()
        });
        let err = StorageEngine::insert(&mut eng, "t", row(2, "lost")).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "got {err:?}");
        assert!(eng.is_degraded());
        // further mutations are refused, reads still work
        vfs.set_plan(DiskFaultPlan::default());
        let err = StorageEngine::insert(&mut eng, "t", row(3, "refused")).unwrap_err();
        assert!(matches!(err, Error::Wedged(_)), "got {err:?}");
        assert!(StorageEngine::checkpoint(&mut eng).is_err());
        assert_eq!(eng.database().table("t").unwrap().len(), 2);
        drop(eng);
        // reopening over the crashed (durable-only) disk recovers exactly
        // the acked prefix — the failed commit never became visible
        vfs.crash(CrashMode::DurableOnly);
        let recovered = DurableEngine::open_with(vfs, "/n1").unwrap();
        assert!(!recovered.is_degraded());
        assert_eq!(write_database(recovered.database()), want);
        let _ = std::fs::remove_dir_all("/n1");
    }

    #[test]
    fn short_write_surfaces_as_torn_write() {
        let vfs = FaultVfs::new(11);
        let mut eng = DurableEngine::create_with(vfs.clone(), "/n2").unwrap();
        eng.create_table(schema_t()).unwrap();
        let want = write_database(eng.database());
        vfs.set_plan(DiskFaultPlan {
            short_write: 1.0,
            ..DiskFaultPlan::default()
        });
        let err = StorageEngine::insert(&mut eng, "t", row(1, "torn")).unwrap_err();
        assert!(matches!(err, Error::TornWrite(_)), "got {err:?}");
        assert!(eng.is_degraded());
        drop(eng);
        // the partial frame is a classic torn tail: recovery truncates it
        vfs.set_plan(DiskFaultPlan::default());
        vfs.crash(CrashMode::FullCache);
        let recovered = DurableEngine::open_with(vfs, "/n2").unwrap();
        assert_eq!(write_database(recovered.database()), want);
    }

    #[test]
    fn engine_is_byte_identical_on_stdfs_and_faultvfs() {
        fn drive<V: Vfs>(mut eng: DurableEngine<V>) -> DurableEngine<V> {
            eng.create_table(schema_t()).unwrap();
            eng.create_index("t", "by_k", IndexKind::BTree, &["k"], false)
                .unwrap();
            eng.begin();
            let a = StorageEngine::insert(&mut eng, "t", row(1, "a")).unwrap();
            StorageEngine::insert(&mut eng, "t", row(2, "b")).unwrap();
            eng.commit().unwrap();
            StorageEngine::update(&mut eng, "t", a, vec![Value::Int(9), Value::Null]).unwrap();
            eng.checkpoint().unwrap();
            StorageEngine::delete(&mut eng, "t", a).unwrap();
            eng
        }
        let dir = temp_dir("vfs-eq");
        let vfs = FaultVfs::new(3);
        let real = drive(DurableEngine::create(&dir).unwrap());
        let sim = drive(DurableEngine::create_with(vfs.clone(), &dir).unwrap());
        // the simulated disk holds exactly the bytes the real one does, for
        // every epoch file the engine wrote
        let mut sim_files: Vec<(PathBuf, Vec<u8>)> = vfs.dump().into_iter().collect();
        sim_files.sort();
        assert!(!sim_files.is_empty());
        for (path, bytes) in &sim_files {
            assert_eq!(
                &std::fs::read(path).unwrap(),
                bytes,
                "{} diverged between StdFs and FaultVfs",
                path.display()
            );
        }
        assert_eq!(real.epoch(), sim.epoch());
        assert_eq!(real.wal_bytes(), sim.wal_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
