//! A counting [`Storage`] wrapper: every benchmark store sits on one, so
//! device traffic is measured below the pager without changing what the
//! pager sees (`mmap`, `truncate` and `is_persistent` are forwarded).

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xmorph_pagestore::storage::{FileStorage, Storage};
use xmorph_pagestore::{MmapRegion, Store, StoreResult};

#[derive(Debug, Default)]
struct Cells {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
    write_ns: AtomicU64,
    sync_ns: AtomicU64,
}

/// Shared counters of one or more [`CountingStorage`] devices.
#[derive(Debug, Clone, Default)]
pub struct Device(Arc<Cells>);

/// A point-in-time copy of [`Device`] counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub bytes_written: u64,
    pub syncs: u64,
    pub write_s: f64,
    pub sync_s: f64,
}

impl DeviceSnapshot {
    pub fn since(&self, earlier: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            syncs: self.syncs - earlier.syncs,
            write_s: self.write_s - earlier.write_s,
            sync_s: self.sync_s - earlier.sync_s,
        }
    }
}

impl Device {
    pub fn snapshot(&self) -> DeviceSnapshot {
        let c = &self.0;
        DeviceSnapshot {
            reads: c.reads.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
            write_s: c.write_ns.load(Ordering::Relaxed) as f64 / 1e9,
            sync_s: c.sync_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Create a fresh file store at `path` on a counted device, with the
    /// default store options (WAL on at the default size).
    pub fn create_store(&self, path: &Path) -> StoreResult<Store> {
        let inner = FileStorage::create(path)?;
        Store::options().with_storage(Box::new(self.wrap(inner)))
    }

    /// Open an existing file store at `path` on a counted device.
    pub fn open_store(&self, path: &Path) -> StoreResult<Store> {
        let inner = FileStorage::open(path)?;
        Store::options().with_storage(Box::new(self.wrap(inner)))
    }

    fn wrap(&self, inner: FileStorage) -> CountingStorage {
        CountingStorage {
            inner,
            cells: Arc::clone(&self.0),
        }
    }
}

/// A [`FileStorage`] that counts transfers and times writes and syncs.
pub struct CountingStorage {
    inner: FileStorage,
    cells: Arc<Cells>,
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Storage for CountingStorage {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.cells.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_at(offset, data);
        self.cells.write_ns.fetch_add(nanos(t), Ordering::Relaxed);
        self.cells.writes.fetch_add(1, Ordering::Relaxed);
        self.cells
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync();
        self.cells.sync_ns.fetch_add(nanos(t), Ordering::Relaxed);
        self.cells.syncs.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn mmap(&mut self, offset: u64, len: usize) -> io::Result<Option<MmapRegion>> {
        self.inner.mmap(offset, len)
    }

    fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}
