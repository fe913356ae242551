//! The virtual filesystem under the durable backend (DESIGN.md §12).
//!
//! [`crate::wal::DurableEngine`] talks to disk exclusively through the
//! [`Vfs`] trait — open/read/write/sync/rename/remove/read_dir — so the
//! exact same recovery code runs against two backends:
//!
//! * [`StdFs`]: a zero-cost passthrough to `std::fs` (the default; the
//!   on-disk layout is byte-identical to the pre-Vfs engine),
//! * [`FaultVfs`]: a deterministic simulated disk that injects I/O faults
//!   from one seeded xoshiro stream (read/write errors, short writes,
//!   failed syncs, silent byte corruption) and records every durability
//!   boundary so a crash-point explorer can replay recovery from the disk
//!   image at *each* write/sync/rename of a schedule.
//!
//! ## The crash model
//!
//! `FaultVfs` keeps two byte strings per file: `pending` (what the OS page
//! cache would hold; all reads see it) and `durable` (what survived the
//! last successful sync). A crash — [`FaultVfs::crash`] or a crash image
//! taken at a boundary — discards `pending` in one of three ways:
//!
//! * **durable-only**: strictly what was synced (a power cut with an
//!   honest disk),
//! * **full-cache**: everything written (the cache happened to flush),
//! * **torn-tail**: synced bytes plus a *prefix* of the unsynced suffix
//!   (the cache flushed part of an append before the cut).
//!
//! Committed (synced) writes must survive all three; recovery must treat
//! anything beyond the durable prefix as untrusted. Renames are modeled as
//! atomic metadata operations (the engine syncs file contents before
//! renaming; the explorer takes boundaries on both sides of the rename, so
//! a crash between content sync and publish is still explored).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mdv_runtime::rng::Prng;

/// An open, append-only file handle of a [`Vfs`] backend. The WAL is the
/// only long-lived handle the engine holds, and it only ever appends,
/// syncs, and (at recovery) truncates a torn tail.
pub trait VfsFile: Send + Sync {
    /// Appends `data` at the end of the file. A short (torn) write
    /// surfaces as [`io::ErrorKind::WriteZero`] after persisting a prefix.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Makes everything appended so far durable (`fsync`). On error the
    /// data must be assumed *not* durable.
    fn sync(&mut self) -> io::Result<()>;

    /// Truncates the file to `len` bytes (recovery cutting a torn tail).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem surface the durable engine needs. Implementations are
/// cheap-clone handles: every engine opened through clones of one handle
/// shares the same underlying (real or simulated) disk.
pub trait Vfs {
    type File: VfsFile;

    /// Creates `dir` and its parents (idempotent).
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Opens `path` for appending, creating it if missing; `truncate`
    /// empties it first.
    fn open_append(&self, path: &Path, truncate: bool) -> io::Result<Self::File>;

    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates or replaces `path` with `data` (not yet durable).
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Syncs a closed file's content by path (`fsync` before a publishing
    /// rename).
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// The file names (not paths) inside `dir`.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
}

// ---- StdFs ----------------------------------------------------------------

/// The real filesystem: a zero-sized passthrough to `std::fs`. The default
/// backend of [`crate::wal::DurableEngine`]; its on-disk layout is pinned
/// byte-identical to the pre-Vfs engine by `tests/storage_torture.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl VfsFile for File {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(|_| ())
    }
}

impl Vfs for StdFs {
    type File = File;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn open_append(&self, path: &Path, truncate: bool) -> io::Result<File> {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(truncate)
            .open(path)?;
        f.seek(SeekFrom::End(0))?;
        Ok(f)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }
}

// ---- FaultVfs -------------------------------------------------------------

/// Per-operation fault probabilities of a [`FaultVfs`], all drawn from one
/// seeded xoshiro stream so a whole torture schedule is a pure function of
/// `(DiskFaultPlan, seed)`. `Default` injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskFaultPlan {
    /// Probability that a read fails with an injected I/O error.
    pub read_err: f64,
    /// Probability that a write/append fails before persisting anything.
    pub write_err: f64,
    /// Probability that a write/append persists only a prefix and fails
    /// with [`io::ErrorKind::WriteZero`] (a torn write).
    pub short_write: f64,
    /// Probability that a sync fails (the data must not be trusted
    /// durable — the engine wedges rather than acks).
    pub sync_err: f64,
    /// Probability that a write/append *silently* flips one byte of the
    /// persisted data (bit rot; caught later by frame and snapshot
    /// checksums, never parsed as garbage).
    pub corrupt: f64,
}

/// Counters of the faults a [`FaultVfs`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub read_errors: u64,
    pub write_errors: u64,
    pub short_writes: u64,
    pub sync_errors: u64,
    pub corruptions: u64,
}

impl FaultStats {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.write_errors
            + self.short_writes
            + self.sync_errors
            + self.corruptions
    }
}

/// How a [`FaultVfs::crash`] collapses unsynced state (see the module docs
/// for the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Only synced bytes survive.
    DurableOnly,
    /// The whole cache happened to reach disk.
    FullCache,
    /// Synced bytes plus half of each file's unsynced appended suffix.
    TornTail,
}

/// All crash variants, in a fixed exploration order.
pub const CRASH_MODES: [CrashMode; 3] = [
    CrashMode::DurableOnly,
    CrashMode::FullCache,
    CrashMode::TornTail,
];

#[derive(Debug, Clone, Default)]
struct FileState {
    durable: Vec<u8>,
    pending: Vec<u8>,
}

impl FileState {
    /// The bytes surviving a crash under `mode`.
    fn surviving(&self, mode: CrashMode) -> Vec<u8> {
        match mode {
            CrashMode::DurableOnly => self.durable.clone(),
            CrashMode::FullCache => self.pending.clone(),
            CrashMode::TornTail => {
                // torn tails only make sense for append-extended files; a
                // rewritten (non-extending) file falls back to durable
                if self.pending.len() > self.durable.len()
                    && self.pending.starts_with(&self.durable)
                {
                    let extra = self.pending.len() - self.durable.len();
                    self.pending[..self.durable.len() + extra.div_ceil(2)].to_vec()
                } else {
                    self.durable.clone()
                }
            }
        }
    }
}

/// One recorded durability boundary: the simulated disk right after a
/// write/sync/rename/remove/truncate completed (or tore).
#[derive(Debug, Clone)]
struct Boundary {
    op: String,
    marker: u64,
    files: BTreeMap<PathBuf, FileState>,
    dirs: Vec<PathBuf>,
}

#[derive(Debug)]
struct Disk {
    files: BTreeMap<PathBuf, FileState>,
    dirs: Vec<PathBuf>,
    rng: Prng,
    plan: DiskFaultPlan,
    armed: bool,
    recording: bool,
    marker: u64,
    boundaries: Vec<Boundary>,
    stats: FaultStats,
}

impl Disk {
    /// One probability draw from the shared stream. Draws only when the
    /// probability is positive, so disabling a fault class does not shift
    /// the stream consumed by the others across plan variations.
    fn hit(&mut self, p: f64) -> bool {
        self.armed && p > 0.0 && self.rng.gen_f64() < p
    }

    fn record(&mut self, op: String) {
        if self.recording {
            self.boundaries.push(Boundary {
                op,
                marker: self.marker,
                files: self.files.clone(),
                dirs: self.dirs.clone(),
            });
        }
    }

    fn dir_exists(&self, dir: &Path) -> bool {
        self.dirs.iter().any(|d| d == dir)
    }
}

fn injected(kind: io::ErrorKind, what: &str, path: &Path) -> io::Error {
    io::Error::new(
        kind,
        format!("injected {what} fault on '{}'", path.display()),
    )
}

/// The deterministic simulated disk: a fault-injecting, boundary-recording
/// [`Vfs`]. Clones share one disk (and one fault stream), which is how the
/// per-shard engines of one node see a single failure domain.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    disk: Arc<Mutex<Disk>>,
}

impl FaultVfs {
    /// A clean simulated disk: no faults armed, nothing recorded.
    pub fn new(seed: u64) -> Self {
        Self::with_plan(seed, DiskFaultPlan::default())
    }

    /// A simulated disk injecting faults per `plan` (armed immediately).
    pub fn with_plan(seed: u64, plan: DiskFaultPlan) -> Self {
        FaultVfs {
            disk: Arc::new(Mutex::new(Disk {
                files: BTreeMap::new(),
                dirs: Vec::new(),
                rng: Prng::seed_from_u64(seed),
                plan,
                armed: true,
                recording: false,
                marker: 0,
                boundaries: Vec::new(),
                stats: FaultStats::default(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Disk> {
        self.disk.lock().expect("fault disk lock poisoned")
    }

    /// Replaces the fault plan (takes effect on the next operation).
    pub fn set_plan(&self, plan: DiskFaultPlan) {
        self.lock().plan = plan;
    }

    /// Arms or disarms fault injection without touching the plan — e.g.
    /// disarm for a setup phase, arm for the torture window.
    pub fn arm(&self, on: bool) {
        self.lock().armed = on;
    }

    /// Starts or stops recording durability boundaries.
    pub fn set_recording(&self, on: bool) {
        self.lock().recording = on;
    }

    /// Annotates subsequent boundaries with `marker` (tests use it to tag
    /// each boundary with the count of commits acked so far, which is what
    /// the committed-writes-survive oracle needs at replay time).
    pub fn set_marker(&self, marker: u64) {
        self.lock().marker = marker;
    }

    /// How many durability boundaries have been recorded.
    pub fn boundary_count(&self) -> usize {
        self.lock().boundaries.len()
    }

    /// The recorded operation label and marker of boundary `i`.
    pub fn boundary_info(&self, i: usize) -> (String, u64) {
        let disk = self.lock();
        let b = &disk.boundaries[i];
        (b.op.clone(), b.marker)
    }

    /// The crash image of boundary `i` under `mode`, as a fresh, clean
    /// `FaultVfs` (no faults, no recording) ready to be recovered from.
    pub fn crash_image(&self, i: usize, mode: CrashMode) -> FaultVfs {
        let disk = self.lock();
        let b = &disk.boundaries[i];
        let files = b
            .files
            .iter()
            .map(|(path, fs)| {
                let bytes = fs.surviving(mode);
                (
                    path.clone(),
                    FileState {
                        durable: bytes.clone(),
                        pending: bytes,
                    },
                )
            })
            .collect();
        FaultVfs {
            disk: Arc::new(Mutex::new(Disk {
                files,
                dirs: b.dirs.clone(),
                rng: Prng::seed_from_u64(0),
                plan: DiskFaultPlan::default(),
                armed: false,
                recording: false,
                marker: 0,
                boundaries: Vec::new(),
                stats: FaultStats::default(),
            })),
        }
    }

    /// Crashes the live disk in place: unsynced state collapses per `mode`
    /// and every surviving byte becomes durable. Recorded boundaries and
    /// fault counters survive (they describe the pre-crash run).
    pub fn crash(&self, mode: CrashMode) {
        let mut disk = self.lock();
        for fs in disk.files.values_mut() {
            let bytes = fs.surviving(mode);
            fs.durable = bytes.clone();
            fs.pending = bytes;
        }
    }

    /// The faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.lock().stats
    }

    /// Every file's current (cache-visible) content, for byte-level
    /// comparisons against another backend.
    pub fn dump(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.lock()
            .files
            .iter()
            .map(|(p, fs)| (p.clone(), fs.pending.clone()))
            .collect()
    }

    /// Sum of all unsynced (pending-beyond-durable) bytes — zero on a
    /// fully synced disk.
    pub fn unsynced_bytes(&self) -> usize {
        self.lock()
            .files
            .values()
            .map(|fs| fs.pending.len().saturating_sub(fs.durable.len()))
            .sum()
    }
}

/// An open handle into a [`FaultVfs`] file.
#[derive(Debug)]
pub struct FaultFile {
    disk: Arc<Mutex<Disk>>,
    path: PathBuf,
}

impl FaultFile {
    fn lock(&self) -> std::sync::MutexGuard<'_, Disk> {
        self.disk.lock().expect("fault disk lock poisoned")
    }
}

/// Appends `data` to `path` on the locked disk, with write-error, short-
/// write, and silent-corruption faults; shared by handle appends and
/// whole-file writes (which first truncate).
fn append_faulty(disk: &mut Disk, path: &Path, data: &[u8], op: &str) -> io::Result<()> {
    let p_write = disk.plan.write_err;
    if disk.hit(p_write) {
        disk.stats.write_errors += 1;
        return Err(injected(io::ErrorKind::Other, "write", path));
    }
    let mut payload = data.to_vec();
    let p_corrupt = disk.plan.corrupt;
    if !payload.is_empty() && disk.hit(p_corrupt) {
        let at = (disk.rng.next_u64() as usize) % payload.len();
        payload[at] ^= 1 << (disk.rng.next_u64() % 8);
        disk.stats.corruptions += 1;
    }
    let p_short = disk.plan.short_write;
    let short = if payload.len() > 1 && disk.hit(p_short) {
        Some((disk.rng.next_u64() as usize) % payload.len())
    } else {
        None
    };
    let file = disk.files.entry(path.to_path_buf()).or_default();
    match short {
        Some(n) => {
            file.pending.extend_from_slice(&payload[..n]);
            disk.stats.short_writes += 1;
            disk.record(format!(
                "{op} {} ({n}/{}B torn)",
                path.display(),
                payload.len()
            ));
            Err(injected(io::ErrorKind::WriteZero, "short-write", path))
        }
        None => {
            file.pending.extend_from_slice(&payload);
            disk.record(format!("{op} {} ({}B)", path.display(), payload.len()));
            Ok(())
        }
    }
}

fn sync_faulty(disk: &mut Disk, path: &Path) -> io::Result<()> {
    let p_sync = disk.plan.sync_err;
    if disk.hit(p_sync) {
        disk.stats.sync_errors += 1;
        return Err(injected(io::ErrorKind::Other, "sync", path));
    }
    let file = disk
        .files
        .get_mut(path)
        .ok_or_else(|| injected(io::ErrorKind::NotFound, "sync-missing", path))?;
    file.durable = file.pending.clone();
    disk.record(format!("sync {}", path.display()));
    Ok(())
}

impl VfsFile for FaultFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let path = self.path.clone();
        append_faulty(&mut self.lock(), &path, data, "append")
    }

    fn sync(&mut self) -> io::Result<()> {
        let path = self.path.clone();
        sync_faulty(&mut self.lock(), &path)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut disk = self.lock();
        let file = disk
            .files
            .get_mut(&self.path)
            .ok_or_else(|| injected(io::ErrorKind::NotFound, "truncate-missing", &self.path))?;
        file.pending.truncate(len as usize);
        let path = self.path.clone();
        disk.record(format!("truncate {} to {len}B", path.display()));
        Ok(())
    }
}

impl Vfs for FaultVfs {
    type File = FaultFile;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut disk = self.lock();
        if !disk.dir_exists(dir) {
            disk.dirs.push(dir.to_path_buf());
        }
        Ok(())
    }

    fn open_append(&self, path: &Path, truncate: bool) -> io::Result<FaultFile> {
        let mut disk = self.lock();
        let file = disk.files.entry(path.to_path_buf()).or_default();
        if truncate {
            file.pending.clear();
        }
        Ok(FaultFile {
            disk: Arc::clone(&self.disk),
            path: path.to_path_buf(),
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut disk = self.lock();
        let p_read = disk.plan.read_err;
        if disk.hit(p_read) {
            disk.stats.read_errors += 1;
            return Err(injected(io::ErrorKind::Other, "read", path));
        }
        disk.files
            .get(path)
            .map(|fs| fs.pending.clone())
            .ok_or_else(|| injected(io::ErrorKind::NotFound, "read-missing", path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut disk = self.lock();
        // a rewrite empties the cache view first; durable content (what a
        // crash reverts to) only changes at the next sync
        disk.files
            .entry(path.to_path_buf())
            .or_default()
            .pending
            .clear();
        append_faulty(&mut disk, path, data, "write")
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        sync_faulty(&mut self.lock(), path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut disk = self.lock();
        let file = disk
            .files
            .remove(from)
            .ok_or_else(|| injected(io::ErrorKind::NotFound, "rename-missing", from))?;
        disk.files.insert(to.to_path_buf(), file);
        disk.record(format!("rename {} -> {}", from.display(), to.display()));
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut disk = self.lock();
        disk.files
            .remove(path)
            .ok_or_else(|| injected(io::ErrorKind::NotFound, "remove-missing", path))?;
        disk.record(format!("remove {}", path.display()));
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let disk = self.lock();
        if !disk.dir_exists(dir) {
            return Err(injected(io::ErrorKind::NotFound, "read-dir-missing", dir));
        }
        Ok(disk
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn pending_is_visible_durable_survives_crash() {
        let vfs = FaultVfs::new(1);
        vfs.create_dir_all(&p("/d")).unwrap();
        let mut f = vfs.open_append(&p("/d/wal"), true).unwrap();
        f.append(b"synced").unwrap();
        f.sync().unwrap();
        f.append(b"+lost").unwrap();
        assert_eq!(vfs.read(&p("/d/wal")).unwrap(), b"synced+lost");
        assert_eq!(vfs.unsynced_bytes(), 5);
        vfs.crash(CrashMode::DurableOnly);
        assert_eq!(vfs.read(&p("/d/wal")).unwrap(), b"synced");
        assert_eq!(vfs.unsynced_bytes(), 0);
    }

    #[test]
    fn torn_tail_crash_keeps_a_prefix_of_the_unsynced_suffix() {
        let vfs = FaultVfs::new(1);
        let mut f = vfs.open_append(&p("/wal"), true).unwrap();
        f.append(b"AB").unwrap();
        f.sync().unwrap();
        f.append(b"cdef").unwrap();
        vfs.crash(CrashMode::TornTail);
        assert_eq!(vfs.read(&p("/wal")).unwrap(), b"ABcd");
    }

    #[test]
    fn boundaries_record_ops_markers_and_images() {
        let vfs = FaultVfs::new(1);
        vfs.set_recording(true);
        let mut f = vfs.open_append(&p("/wal"), true).unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap();
        vfs.set_marker(1);
        f.append(b"two").unwrap();
        assert_eq!(vfs.boundary_count(), 3);
        assert_eq!(vfs.boundary_info(0).1, 0);
        assert_eq!(vfs.boundary_info(2).1, 1);
        // at boundary 1 (the sync), "one" is durable
        let img = vfs.crash_image(1, CrashMode::DurableOnly);
        assert_eq!(img.read(&p("/wal")).unwrap(), b"one");
        // at boundary 2 (unsynced append), durable-only still sees "one",
        // full-cache sees both
        assert_eq!(
            vfs.crash_image(2, CrashMode::DurableOnly)
                .read(&p("/wal"))
                .unwrap(),
            b"one"
        );
        assert_eq!(
            vfs.crash_image(2, CrashMode::FullCache)
                .read(&p("/wal"))
                .unwrap(),
            b"onetwo"
        );
    }

    #[test]
    fn rename_is_atomic_and_rewrite_keeps_durable_until_sync() {
        let vfs = FaultVfs::new(7);
        vfs.write(&p("/tmp1"), b"new-snapshot").unwrap();
        vfs.sync_file(&p("/tmp1")).unwrap();
        vfs.rename(&p("/tmp1"), &p("/snapshot-1")).unwrap();
        assert!(vfs.read(&p("/tmp1")).is_err());
        assert_eq!(vfs.read(&p("/snapshot-1")).unwrap(), b"new-snapshot");
        // rewrite without sync: crash reverts to the synced content
        vfs.write(&p("/snapshot-1"), b"overwrite").unwrap();
        vfs.crash(CrashMode::DurableOnly);
        assert_eq!(vfs.read(&p("/snapshot-1")).unwrap(), b"new-snapshot");
    }

    #[test]
    fn injected_faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let vfs = FaultVfs::with_plan(
                seed,
                DiskFaultPlan {
                    write_err: 0.3,
                    short_write: 0.3,
                    sync_err: 0.3,
                    corrupt: 0.2,
                    ..DiskFaultPlan::default()
                },
            );
            let mut f = vfs.open_append(&p("/wal"), true).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..50u8 {
                outcomes.push(f.append(&[i; 8]).is_ok());
                outcomes.push(f.sync().is_ok());
            }
            (outcomes, vfs.stats(), vfs.dump())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds, same faults");
        let stats = run(42).1;
        assert!(stats.total() > 0, "plan never fired: {stats:?}");
    }

    #[test]
    fn read_dir_lists_only_direct_children() {
        let vfs = FaultVfs::new(1);
        vfs.create_dir_all(&p("/a")).unwrap();
        vfs.write(&p("/a/x"), b"1").unwrap();
        vfs.write(&p("/a/y"), b"2").unwrap();
        vfs.write(&p("/b"), b"3").unwrap();
        let mut names = vfs.read_dir(&p("/a")).unwrap();
        names.sort();
        assert_eq!(names, ["x", "y"]);
        assert!(vfs.read_dir(&p("/missing")).is_err());
    }

    #[test]
    fn stdfs_and_faultvfs_agree_byte_for_byte_without_faults() {
        let dir = std::env::temp_dir().join(format!("mdv-vfs-eq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let real = StdFs;
        let sim = FaultVfs::new(9);
        for vfs_run in [0, 1] {
            let wal = dir.join("wal-0");
            macro_rules! both {
                ($m:ident ( $($a:expr),* )) => {
                    if vfs_run == 0 { real.$m($($a),*).map(|_| ()).unwrap() }
                    else { sim.$m($($a),*).map(|_| ()).unwrap() }
                };
            }
            both!(create_dir_all(&dir));
            both!(write(&wal, b""));
            both!(sync_file(&wal));
            both!(write(&dir.join("snap.tmp"), b"snapshot body\n"));
            both!(sync_file(&dir.join("snap.tmp")));
            both!(rename(&dir.join("snap.tmp"), &dir.join("snapshot-0")));
        }
        let mut f_real = real.open_append(&dir.join("wal-0"), false).unwrap();
        let mut f_sim = sim.open_append(&dir.join("wal-0"), false).unwrap();
        for f in [&mut f_real as &mut dyn VfsFile, &mut f_sim] {
            f.append(b"frame-1").unwrap();
            f.sync().unwrap();
            f.append(b"frame-2").unwrap();
            f.truncate(7).unwrap();
        }
        for name in ["wal-0", "snapshot-0"] {
            assert_eq!(
                real.read(&dir.join(name)).unwrap(),
                sim.read(&dir.join(name)).unwrap(),
                "{name} diverged between StdFs and FaultVfs"
            );
        }
        let mut real_names = real.read_dir(&dir).unwrap();
        let mut sim_names = sim.read_dir(&dir).unwrap();
        real_names.sort();
        sim_names.sort();
        assert_eq!(real_names, sim_names);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
