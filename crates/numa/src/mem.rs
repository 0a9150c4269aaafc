//! Simulated NUMA memory placement.
//!
//! On the paper's hardware, placement is physical: a page lives on the node
//! that first touched it (or wherever `numactl`/mmap policy put it). Our
//! substrate keeps all data in host RAM but *tags* every allocation with the
//! node it notionally lives on. The execution layer consults the tag to
//! classify each access as local or remote and to charge the cost model.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::topology::{SocketId, Topology};

/// Placement policy for relation partitions, storage areas and hash tables.
///
/// Mirrors the alternatives compared in Section 5.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// NUMA-aware: data lives on the node the owning thread is pinned to
    /// (the paper's first-touch behaviour with pinned threads).
    FirstTouch,
    /// Round-robin page interleaving across all nodes (the paper's
    /// "interleaved" alternative, and its choice for global hash tables).
    Interleaved,
    /// Everything on one node — the paper's "OS default", footnote 6: "the
    /// database itself is located on a single NUMA node, because the data
    /// is read from disk by a single thread".
    OsDefault,
    /// Explicitly on a given node.
    OnNode(SocketId),
}

impl Placement {
    /// Resolve the node for chunk `index` of an allocation made by a thread
    /// on `toucher` given `sockets` nodes.
    pub fn node_for(self, index: usize, toucher: SocketId, sockets: u16) -> SocketId {
        match self {
            Placement::FirstTouch => toucher,
            Placement::Interleaved => SocketId((index % sockets as usize) as u16),
            Placement::OsDefault => SocketId(0),
            Placement::OnNode(n) => n,
        }
    }
}

/// The node tag of one logically contiguous allocation.
///
/// An interleaved allocation is modelled as alternating fixed-size stripes
/// (the paper uses 2MB pages; we default to 2MB worth of bytes).
#[derive(Debug, Clone)]
pub enum Residency {
    /// Entire allocation on one node.
    Node(SocketId),
    /// Striped round-robin over all nodes with the given stripe size.
    Interleaved { sockets: u16, stripe: usize },
}

/// Default stripe size for interleaved allocations: one 2MB huge page.
pub const DEFAULT_STRIPE: usize = 2 << 20;

impl Residency {
    /// Node holding byte offset `off` of the allocation.
    pub fn node_at(&self, off: usize) -> SocketId {
        match *self {
            Residency::Node(n) => n,
            Residency::Interleaved { sockets, stripe } => {
                SocketId(((off / stripe) % sockets as usize) as u16)
            }
        }
    }
}

/// Byte-accurate memory traffic accounting, the substrate behind the
/// paper's Table 1 "rd. / wr. / remote / QPI" columns.
///
/// All counters are plain relaxed atomics: they are statistics, not
/// synchronization.
#[derive(Debug)]
pub struct AccessCounters {
    sockets: u16,
    read_local: AtomicU64,
    read_remote: AtomicU64,
    write_local: AtomicU64,
    write_remote: AtomicU64,
    /// Traffic per directed socket pair (row-major `from * sockets + to`),
    /// in bytes. Only remote traffic is recorded here (the QPI links).
    link_bytes: Vec<AtomicU64>,
}

/// A snapshot of [`AccessCounters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSnapshot {
    pub sockets: u16,
    pub read_local: u64,
    pub read_remote: u64,
    pub write_local: u64,
    pub write_remote: u64,
    pub link_bytes: Vec<u64>,
}

impl AccessCounters {
    pub fn new(topology: &Topology) -> Self {
        let sockets = topology.sockets();
        AccessCounters {
            sockets,
            read_local: AtomicU64::new(0),
            read_remote: AtomicU64::new(0),
            write_local: AtomicU64::new(0),
            write_remote: AtomicU64::new(0),
            link_bytes: (0..u32::from(sockets) * u32::from(sockets))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Record `bytes` read by a thread on `at` from memory on `from`.
    pub fn record_read(&self, at: SocketId, from: SocketId, bytes: u64) {
        if at == from {
            self.read_local.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.read_remote.fetch_add(bytes, Ordering::Relaxed);
            self.link(from, at).fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Record `bytes` written by a thread on `at` to memory on `to`.
    pub fn record_write(&self, at: SocketId, to: SocketId, bytes: u64) {
        if at == to {
            self.write_local.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.write_remote.fetch_add(bytes, Ordering::Relaxed);
            self.link(at, to).fetch_add(bytes, Ordering::Relaxed);
        }
    }

    fn link(&self, from: SocketId, to: SocketId) -> &AtomicU64 {
        &self.link_bytes[from.0 as usize * self.sockets as usize + to.0 as usize]
    }

    /// Fraction of all accessed bytes that were remote, in `[0, 1]`.
    pub fn remote_fraction(&self) -> f64 {
        let s = self.snapshot();
        let remote = s.read_remote + s.write_remote;
        let total = remote + s.read_local + s.write_local;
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }

    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            sockets: self.sockets,
            read_local: self.read_local.load(Ordering::Relaxed),
            read_remote: self.read_remote.load(Ordering::Relaxed),
            write_local: self.write_local.load(Ordering::Relaxed),
            write_remote: self.write_remote.load(Ordering::Relaxed),
            link_bytes: self
                .link_bytes
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
        }
    }

    pub fn reset(&self) {
        self.read_local.store(0, Ordering::Relaxed);
        self.read_remote.store(0, Ordering::Relaxed);
        self.write_local.store(0, Ordering::Relaxed);
        self.write_remote.store(0, Ordering::Relaxed);
        for l in &self.link_bytes {
            l.store(0, Ordering::Relaxed);
        }
    }
}

impl TrafficSnapshot {
    pub fn total_read(&self) -> u64 {
        self.read_local + self.read_remote
    }

    pub fn total_write(&self) -> u64 {
        self.write_local + self.write_remote
    }

    /// Bytes moved over the busiest directed link.
    pub fn max_link_bytes(&self) -> u64 {
        self.link_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Difference `self - earlier`, for measuring one query's traffic.
    pub fn delta_since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            sockets: self.sockets,
            read_local: self.read_local - earlier.read_local,
            read_remote: self.read_remote - earlier.read_remote,
            write_local: self.write_local - earlier.write_local,
            write_remote: self.write_remote - earlier.write_remote,
            link_bytes: self
                .link_bytes
                .iter()
                .zip(&earlier.link_bytes)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    pub fn remote_fraction(&self) -> f64 {
        let remote = self.read_remote + self.write_remote;
        let total = remote + self.read_local + self.write_local;
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_resolution() {
        let s0 = SocketId(0);
        let s2 = SocketId(2);
        assert_eq!(Placement::FirstTouch.node_for(7, s2, 4), s2);
        assert_eq!(Placement::Interleaved.node_for(6, s0, 4), SocketId(2));
        assert_eq!(Placement::OsDefault.node_for(3, s2, 4), SocketId(0));
        assert_eq!(
            Placement::OnNode(SocketId(3)).node_for(9, s0, 4),
            SocketId(3)
        );
    }

    #[test]
    fn interleaved_residency_stripes() {
        let r = Residency::Interleaved {
            sockets: 4,
            stripe: 100,
        };
        assert_eq!(r.node_at(0), SocketId(0));
        assert_eq!(r.node_at(99), SocketId(0));
        assert_eq!(r.node_at(100), SocketId(1));
        assert_eq!(r.node_at(399), SocketId(3));
        assert_eq!(r.node_at(400), SocketId(0));
    }

    #[test]
    fn counters_classify_local_and_remote() {
        let t = Topology::nehalem_ex();
        let c = AccessCounters::new(&t);
        c.record_read(SocketId(0), SocketId(0), 100);
        c.record_read(SocketId(0), SocketId(1), 50);
        c.record_write(SocketId(2), SocketId(2), 10);
        c.record_write(SocketId(2), SocketId(3), 40);
        let s = c.snapshot();
        assert_eq!(s.read_local, 100);
        assert_eq!(s.read_remote, 50);
        assert_eq!(s.write_local, 10);
        assert_eq!(s.write_remote, 40);
        assert!((c.remote_fraction() - 90.0 / 200.0).abs() < 1e-12);
        assert_eq!(s.max_link_bytes(), 50);
    }

    #[test]
    fn snapshot_delta() {
        let t = Topology::laptop();
        let c = AccessCounters::new(&t);
        c.record_read(SocketId(0), SocketId(0), 100);
        let before = c.snapshot();
        c.record_read(SocketId(0), SocketId(0), 11);
        let after = c.snapshot();
        assert_eq!(after.delta_since(&before).read_local, 11);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = Topology::nehalem_ex();
        let c = AccessCounters::new(&t);
        c.record_read(SocketId(0), SocketId(1), 50);
        c.reset();
        let s = c.snapshot();
        assert_eq!(s.total_read() + s.total_write(), 0);
        assert_eq!(s.max_link_bytes(), 0);
    }
}
