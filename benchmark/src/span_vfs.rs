//! The benchmark's seat under the durable backend: a counting, timing
//! [`Vfs`] wrapper, and the memory disk it wraps.
//!
//! [`SpanVfs`] counts every `append`, `sync`, `write`, `sync_file` and
//! `rename` the engine issues. The counts are exact and are taken on every
//! run; the calls are timed and recorded as spans only when the tracer is
//! on. [`MemFs`] is the device: a benchmark run may write only inside its
//! checkout and `fsync` on the sandbox disk has a 2x run-to-run spread, so
//! the WAL, group commit and checkpoint code all run for real while the
//! device cost is carried by the exact counts (see README, "Flush policy").

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mdv_relstore::{Vfs, VfsFile};

use crate::span::Tracer;

// ---- MemFs ------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemDisk {
    files: HashMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

/// A plain in-memory filesystem; clones share one disk.
#[derive(Debug, Clone, Default)]
pub struct MemFs(Arc<Mutex<MemDisk>>);

fn not_found(what: &str, path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("memfs: {what} '{}' not found", path.display()),
    )
}

impl MemFs {
    fn disk(&self) -> std::sync::MutexGuard<'_, MemDisk> {
        self.0.lock().expect("memfs lock poisoned")
    }

    /// Copies every file directly inside `from` into a new directory `to`.
    pub fn copy_dir(&self, from: &Path, to: &Path) {
        let mut disk = self.disk();
        let copies: Vec<(PathBuf, Vec<u8>)> = disk
            .files
            .iter()
            .filter(|(p, _)| p.parent() == Some(from))
            .filter_map(|(p, data)| Some((to.join(p.file_name()?), data.clone())))
            .collect();
        disk.dirs.insert(to.to_path_buf());
        disk.files.extend(copies);
    }
}

#[derive(Debug)]
pub struct MemFile {
    disk: Arc<Mutex<MemDisk>>,
    path: PathBuf,
}

impl MemFile {
    fn with_data<T>(&self, f: impl FnOnce(&mut Vec<u8>) -> T) -> io::Result<T> {
        let mut disk = self.disk.lock().expect("memfs lock poisoned");
        disk.files
            .get_mut(&self.path)
            .map(f)
            .ok_or_else(|| not_found("file", &self.path))
    }
}

impl VfsFile for MemFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.with_data(|file| file.extend_from_slice(data))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.with_data(|_| ())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.with_data(|file| file.truncate(len as usize))
    }
}

impl Vfs for MemFs {
    type File = MemFile;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut disk = self.disk();
        for ancestor in dir.ancestors() {
            disk.dirs.insert(ancestor.to_path_buf());
        }
        Ok(())
    }

    fn open_append(&self, path: &Path, truncate: bool) -> io::Result<MemFile> {
        let mut disk = self.disk();
        let file = disk.files.entry(path.to_path_buf()).or_default();
        if truncate {
            file.clear();
        }
        Ok(MemFile {
            disk: Arc::clone(&self.0),
            path: path.to_path_buf(),
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.disk()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found("file", path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.disk().files.insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.disk().files.contains_key(path) {
            true => Ok(()),
            false => Err(not_found("file", path)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut disk = self.disk();
        let data = disk
            .files
            .remove(from)
            .ok_or_else(|| not_found("file", from))?;
        disk.files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.disk()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found("file", path))
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let disk = self.disk();
        if !disk.dirs.contains(dir) {
            return Err(not_found("directory", dir));
        }
        let mut names: Vec<String> = disk
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        names.sort();
        Ok(names)
    }
}

// ---- SpanVfs ----------------------------------------------------------------

#[derive(Debug, Default)]
struct Counters {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    append_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    renames: AtomicU64,
    /// Longest `write` → `rename` stretch: one snapshot checkpoint as the
    /// device sees it (serializing the snapshot happens before `write`
    /// and is not visible from here).
    checkpoint_ns_max: AtomicU64,
}

/// A point-in-time copy of the counters; subtract two to get a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsCounts {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
    /// `sync` on the WAL handle plus `sync_file` on snapshots.
    pub syncs: u64,
    pub sync_ns: u64,
    /// Whole-file writes (snapshots).
    pub writes: u64,
    pub write_bytes: u64,
    pub renames: u64,
    pub checkpoint_ns_max: u64,
}

impl VfsCounts {
    /// Counts since `earlier`; the checkpoint maximum is not a sum and is
    /// carried over as is.
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            append_ns: self.append_ns - earlier.append_ns,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            renames: self.renames - earlier.renames,
            checkpoint_ns_max: self.checkpoint_ns_max,
        }
    }

    pub fn bytes_written(&self) -> u64 {
        self.append_bytes + self.write_bytes
    }
}

/// Counting, span-recording wrapper over any [`Vfs`]; clones (one per
/// node) share one set of counters.
#[derive(Debug, Clone)]
pub struct SpanVfs<V> {
    inner: V,
    counters: Arc<Counters>,
    /// Start of the snapshot write a later `rename` will publish.
    checkpoint_start: Arc<Mutex<Option<Instant>>>,
    tracer: Tracer,
}

impl<V> SpanVfs<V> {
    pub fn new(inner: V, tracer: Tracer) -> Self {
        SpanVfs {
            inner,
            counters: Arc::default(),
            checkpoint_start: Arc::default(),
            tracer,
        }
    }

    pub fn inner(&self) -> &V {
        &self.inner
    }

    pub fn counts(&self) -> VfsCounts {
        let c = &self.counters;
        VfsCounts {
            appends: c.appends.load(Relaxed),
            append_bytes: c.append_bytes.load(Relaxed),
            append_ns: c.append_ns.load(Relaxed),
            syncs: c.syncs.load(Relaxed),
            sync_ns: c.sync_ns.load(Relaxed),
            writes: c.writes.load(Relaxed),
            write_bytes: c.write_bytes.load(Relaxed),
            renames: c.renames.load(Relaxed),
            checkpoint_ns_max: c.checkpoint_ns_max.load(Relaxed),
        }
    }

    /// Resets the checkpoint maximum at the start of a measured window.
    pub fn reset_checkpoint_max(&self) {
        self.counters.checkpoint_ns_max.store(0, Relaxed);
    }
}

/// Runs `f` under a span when tracing, adding its time to `ns`.
fn spanned<T>(
    tracer: &Tracer,
    name: &'static str,
    ns: Option<&AtomicU64>,
    f: impl FnOnce() -> T,
) -> T {
    if !tracer.is_on() {
        return f();
    }
    let (out, took) = tracer.timed(name, f);
    if let Some(ns) = ns {
        ns.fetch_add(took.as_nanos() as u64, Relaxed);
    }
    out
}

pub struct SpanFile<F> {
    inner: F,
    counters: Arc<Counters>,
    tracer: Tracer,
}

impl<F: VfsFile> VfsFile for SpanFile<F> {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.counters.appends.fetch_add(1, Relaxed);
        self.counters
            .append_bytes
            .fetch_add(data.len() as u64, Relaxed);
        let inner = &mut self.inner;
        spanned(
            &self.tracer,
            "relstore.vfs.append",
            Some(&self.counters.append_ns),
            || inner.append(data),
        )
    }

    fn sync(&mut self) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        let inner = &mut self.inner;
        spanned(
            &self.tracer,
            "relstore.vfs.sync",
            Some(&self.counters.sync_ns),
            || inner.sync(),
        )
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

impl<V: Vfs> Vfs for SpanVfs<V> {
    type File = SpanFile<V::File>;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn open_append(&self, path: &Path, truncate: bool) -> io::Result<Self::File> {
        Ok(SpanFile {
            inner: self.inner.open_append(path, truncate)?,
            counters: Arc::clone(&self.counters),
            tracer: self.tracer.clone(),
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.counters.writes.fetch_add(1, Relaxed);
        self.counters
            .write_bytes
            .fetch_add(data.len() as u64, Relaxed);
        *self
            .checkpoint_start
            .lock()
            .expect("checkpoint clock poisoned") = Some(Instant::now());
        // whole-file writes are appends of a fresh file as far as the
        // device is concerned; they share the append time total
        spanned(
            &self.tracer,
            "relstore.vfs.write",
            Some(&self.counters.append_ns),
            || self.inner.write(path, data),
        )
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        spanned(
            &self.tracer,
            "relstore.vfs.sync_file",
            Some(&self.counters.sync_ns),
            || self.inner.sync_file(path),
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.renames.fetch_add(1, Relaxed);
        let out = spanned(&self.tracer, "relstore.vfs.rename", None, || {
            self.inner.rename(from, to)
        });
        let started = self
            .checkpoint_start
            .lock()
            .expect("checkpoint clock poisoned")
            .take();
        if let Some(started) = started {
            self.counters
                .checkpoint_ns_max
                .fetch_max(started.elapsed().as_nanos() as u64, Relaxed);
        }
        out
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_relstore::{DataType, DurableEngine, StorageEngine, TableSchema, Value};

    fn table() -> TableSchema {
        TableSchema::new("T", vec![mdv_relstore::ColumnDef::new("v", DataType::Int)]).unwrap()
    }

    #[test]
    fn memfs_behaves_like_a_directory_tree() {
        let fs = MemFs::default();
        let dir = Path::new("/data/m1");
        assert!(fs.read_dir(dir).is_err());
        fs.create_dir_all(dir).unwrap();
        assert!(fs.read_dir(Path::new("/data")).unwrap().is_empty());
        let mut f = fs.open_append(&dir.join("wal-0"), true).unwrap();
        f.append(b"abc").unwrap();
        f.append(b"def").unwrap();
        f.truncate(4).unwrap();
        assert_eq!(fs.read(&dir.join("wal-0")).unwrap(), b"abcd");
        fs.write(&dir.join("tmp"), b"snap").unwrap();
        fs.rename(&dir.join("tmp"), &dir.join("snapshot-1"))
            .unwrap();
        assert_eq!(fs.read_dir(dir).unwrap(), vec!["snapshot-1", "wal-0"]);
        fs.copy_dir(dir, Path::new("/data/copy"));
        assert_eq!(
            fs.read(Path::new("/data/copy/snapshot-1")).unwrap(),
            b"snap"
        );
        fs.remove(&dir.join("wal-0")).unwrap();
        assert!(fs.read(&dir.join("wal-0")).is_err());
        assert!(fs.read(Path::new("/data/copy/wal-0")).is_ok());
    }

    #[test]
    fn counts_are_exact_and_recovery_reads_them_back() {
        let tracer = Tracer::on();
        let vfs = SpanVfs::new(MemFs::default(), tracer.clone());
        let mut store = DurableEngine::create_with(vfs.clone(), "/data/n").unwrap();
        store.create_table(table()).unwrap();
        let before = vfs.counts();
        for i in 0..5 {
            store.insert("T", vec![Value::Int(i)]).unwrap();
        }
        let window = vfs.counts().since(&before);
        // five ungrouped inserts: five commits, one append + one sync each
        assert_eq!((window.appends, window.syncs), (5, 5));
        assert!(window.append_bytes > 0 && window.append_bytes <= store.wal_bytes());
        assert_eq!(window.writes, 0);

        store.checkpoint().unwrap();
        let after = vfs.counts().since(&before);
        assert_eq!((after.writes, after.renames), (1, 1));
        assert!(after.write_bytes > 0 && after.checkpoint_ns_max > 0);
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "relstore.vfs.rename"));

        drop(store);
        let reopened = DurableEngine::open_with(vfs, "/data/n").unwrap();
        assert_eq!(reopened.database().table("T").unwrap().iter().count(), 5);
    }

    #[test]
    fn untraced_runs_count_but_do_not_time() {
        let vfs = SpanVfs::new(MemFs::default(), Tracer::off());
        let mut store = DurableEngine::create_with(vfs.clone(), "/d").unwrap();
        store.create_table(table()).unwrap();
        let c = vfs.counts();
        assert!(c.syncs > 0 && c.appends > 0);
        assert_eq!((c.sync_ns, c.append_ns), (0, 0));
    }
}
