//! Runtime-managed data blocks with NUMA placement.
//!
//! In OCR, application data lives in runtime-managed *data blocks*; the
//! runtime therefore knows where every byte lives and can co-locate tasks
//! with their data or migrate the data itself. The paper leans on this: "it
//! would easily be possible in OCR, where the runtime system is also in
//! charge of managing the data, but it might be very difficult in
//! applications based on TBB" (§III.A).
//!
//! A [`DataBlock`] is a byte buffer plus a NUMA-node label. On real
//! hardware the label would drive `mbind`/first-touch placement; here it
//! drives scheduling affinity and the simulators' traffic accounting (see
//! the substitution notes in `DESIGN.md`).

use coop_telemetry::sync::RwLock;
use numa_topology::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of a data block within one runtime instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DbId(pub(crate) u64);

impl fmt::Debug for DbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "db{}", self.0)
    }
}

struct Inner {
    bytes: RwLock<Vec<u8>>,
    /// Current NUMA placement, as a raw node index (atomically migratable).
    node: AtomicUsize,
    migrations: AtomicU64,
}

/// A runtime-managed buffer with a NUMA placement label.
///
/// Cheap to clone (all clones share the buffer). Access goes through
/// closures so the lock scope is explicit and instrumented:
///
/// ```
/// use coop_runtime::{Runtime, RuntimeConfig};
/// use numa_topology::{presets::tiny, NodeId};
///
/// let rt = Runtime::start(RuntimeConfig::new("db-demo", tiny())).unwrap();
/// let db = rt.create_datablock(8, NodeId(1));
/// db.write(|buf| buf[0] = 42);
/// assert_eq!(db.read(|buf| buf[0]), 42);
/// assert_eq!(db.node(), NodeId(1));
/// rt.shutdown();
/// ```
#[derive(Clone)]
pub struct DataBlock {
    id: DbId,
    inner: Arc<Inner>,
}

impl DataBlock {
    pub(crate) fn new(id: DbId, size: usize, node: NodeId) -> Self {
        DataBlock {
            id,
            inner: Arc::new(Inner {
                bytes: RwLock::new(vec![0u8; size]),
                node: AtomicUsize::new(node.0),
                migrations: AtomicU64::new(0),
            }),
        }
    }

    /// Size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.inner.bytes.read().len()
    }

    /// The NUMA node this block currently lives on.
    pub fn node(&self) -> NodeId {
        NodeId(self.inner.node.load(Ordering::Acquire))
    }

    /// Moves the block to another node. On real hardware this would copy
    /// pages; here it re-labels the block (and counts the migration), which
    /// is what the scheduling and the simulators consume.
    pub fn migrate(&self, node: NodeId) {
        self.inner.node.store(node.0, Ordering::Release);
        self.inner.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Shared read access.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let guard = self.inner.bytes.read();
        f(&guard)
    }

    /// Exclusive write access.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut guard = self.inner.bytes.write();
        f(&mut guard)
    }

    /// Number of migrations so far.
    pub fn migration_count(&self) -> u64 {
        self.inner.migrations.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for DataBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:?}[{}B]", self.id, self.node(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write() {
        let db = DataBlock::new(DbId(1), 16, NodeId(0));
        assert_eq!(db.len(), 16);
        db.write(|b| {
            b[3] = 7;
            b[15] = 9;
        });
        assert_eq!(db.read(|b| (b[3], b[15])), (7, 9));
    }

    #[test]
    fn migrate_relabels_and_counts() {
        let db = DataBlock::new(DbId(2), 4, NodeId(0));
        assert_eq!(db.node(), NodeId(0));
        db.migrate(NodeId(3));
        assert_eq!(db.node(), NodeId(3));
        assert_eq!(db.migration_count(), 1);
        // Data survives migration.
        db.write(|b| b[0] = 1);
        db.migrate(NodeId(1));
        assert_eq!(db.read(|b| b[0]), 1);
    }

    #[test]
    fn clones_share_buffer() {
        let db = DataBlock::new(DbId(3), 4, NodeId(0));
        let c = db.clone();
        db.write(|b| b[0] = 5);
        assert_eq!(c.read(|b| b[0]), 5);
        assert_eq!(c.id, DbId(3));
    }

    #[test]
    fn zero_size_block() {
        let db = DataBlock::new(DbId(4), 0, NodeId(0));
        assert_eq!(db.len(), 0);
        db.read(|b| assert!(b.is_empty()));
    }

    #[test]
    fn concurrent_writers_serialize() {
        let db = DataBlock::new(DbId(5), 8, NodeId(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        db.write(|b| {
                            let v = b[0];
                            b[0] = v.wrapping_add(1);
                        });
                    }
                });
            }
        });
        assert_eq!(db.read(|b| b[0]), (400 % 256) as u8);
    }
}
