//! Booting and reshaping the benchmark's fleet through the public API only:
//! [`DriverRuntime::start`]/[`DriverRuntime::adopt`],
//! [`Node::with_store`]/[`Node::joiner_with_store`], and [`MemLog`] or
//! [`WalLog`] — optionally behind the traced-run [`TracedLog`] wrapper,
//! which is the only thing a traced boot does differently.

use crate::trace::{SpanSink, TracedLog};
use recraft_cluster::{
    AdminClient, DriverRuntime, FleetNet, HarnessNode, HarnessStore, NodeStatus, RuntimeOptions,
};
use recraft_core::{Node, Timing};
use recraft_kv::{KvMachine, KvStore};
use recraft_net::AdminCmd;
use recraft_storage::{MemLog, WalLog, WalOptions};
use recraft_types::{ClusterConfig, ClusterId, NodeId, RangeSet};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Which log store every node runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-memory log.
    Mem,
    /// Segmented write-ahead log with a real `fdatasync` per barrier.
    Wal,
}

/// The id of the cluster every boot starts as.
pub const BOOT_CLUSTER: ClusterId = ClusterId(1);

/// A per-node Raft seed from the workload seed.
///
/// `Node` itself mixes `id × 0x9E37_79B9_7F4A_7C15` into whatever seed it
/// gets; a seed built from the same product would cancel it and put every
/// node on one RNG stream (identical election timeouts, split votes). This
/// uses the murmur3 finalizer over `(seed, id)` instead.
#[must_use]
pub fn node_seed(seed: u64, id: NodeId) -> u64 {
    let mut x = seed ^ id.0.rotate_left(32) ^ 0x5EED_BE4C;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// A fleet of nodes on one `DriverRuntime`, all on loopback TCP.
pub struct Fleet {
    net: Arc<FleetNet>,
    runtime: DriverRuntime,
    status: Mutex<BTreeMap<NodeId, Arc<NodeStatus>>>,
    /// Status blocks of reaped nodes, so fleet-wide counters never go back.
    reaped: Mutex<Vec<Arc<NodeStatus>>>,
    backend: Backend,
    data_dir: Option<PathBuf>,
    seed: u64,
    sink: Option<Arc<SpanSink>>,
    next_id: Mutex<u64>,
}

impl Fleet {
    /// Boots `n` nodes (ids `1..=n`) as one cluster over the full keyspace.
    /// WAL directories live under `data_dir` (required for [`Backend::Wal`]).
    ///
    /// # Panics
    /// Panics on bind or WAL-open failure.
    #[must_use]
    pub fn boot(
        backend: Backend,
        n: u64,
        seed: u64,
        data_dir: Option<PathBuf>,
        sink: Option<Arc<SpanSink>>,
    ) -> Fleet {
        let net = FleetNet::new();
        let runtime = DriverRuntime::start(Arc::clone(&net), &RuntimeOptions::default());
        let fleet = Fleet {
            net,
            runtime,
            status: Mutex::new(BTreeMap::new()),
            reaped: Mutex::new(Vec::new()),
            backend,
            data_dir,
            seed,
            sink,
            next_id: Mutex::new(n + 1),
        };
        let ids: Vec<NodeId> = (1..=n).map(NodeId).collect();
        let config = ClusterConfig::new(BOOT_CLUSTER, ids.iter().copied(), RangeSet::full())
            .expect("boot config");
        // Every front door is bound and published before any node runs, so
        // peers can dial each other from the first heartbeat.
        let doors: Vec<TcpListener> = ids.iter().map(|id| fleet.bind(*id)).collect();
        for (id, door) in ids.into_iter().zip(doors) {
            let node = Node::with_store(
                id,
                config.clone(),
                KvMachine::Mem(KvStore::new()),
                fleet.store(id),
                Timing::default(),
                node_seed(seed, id),
            );
            fleet.seat(node, door);
        }
        fleet
    }

    fn bind(&self, id: NodeId) -> TcpListener {
        let door = TcpListener::bind("127.0.0.1:0").expect("bind front door");
        self.net
            .register(id, door.local_addr().expect("front door addr"));
        door
    }

    fn seat(&self, node: HarnessNode, door: TcpListener) {
        let status = Arc::new(NodeStatus::default());
        self.status
            .lock()
            .expect("status map poisoned")
            .insert(node.id(), Arc::clone(&status));
        self.runtime.adopt(node, status, door);
    }

    fn store(&self, id: NodeId) -> HarnessStore {
        let store: HarnessStore = match self.backend {
            Backend::Mem => Box::new(MemLog::new()),
            Backend::Wal => {
                let dir = self
                    .data_dir
                    .as_ref()
                    .expect("wal backend needs a data dir")
                    .join(format!("node-{}", id.0));
                let opts = WalOptions {
                    fsync: true,
                    segment_bytes: 8 * 1024 * 1024,
                };
                Box::new(WalLog::open_with(dir, opts).expect("open node wal"))
            }
        };
        match &self.sink {
            Some(sink) => Box::new(TracedLog::new(store, id, Arc::clone(sink))),
            None => store,
        }
    }

    /// Boots `k` fresh joiners provisioned for `target` and seats them.
    /// Ids are never reused, so no WAL directory is ever recycled.
    pub fn spawn_joiners(&self, k: usize, target: ClusterId) -> Vec<NodeId> {
        let ids: Vec<NodeId> = {
            let mut next = self.next_id.lock().expect("id counter poisoned");
            let ids = (*next..*next + k as u64).map(NodeId).collect();
            *next += k as u64;
            ids
        };
        for id in &ids {
            let door = self.bind(*id);
            let node = Node::joiner_with_store(
                *id,
                Some(target),
                KvMachine::Mem(KvStore::new()),
                self.store(*id),
                Timing::default(),
                node_seed(self.seed, *id),
            );
            self.seat(node, door);
        }
        ids
    }

    /// Takes the named (retired) nodes off the runtime and withdraws their
    /// addresses.
    pub fn reap(&self, ids: &[NodeId]) {
        for id in ids {
            self.net.deregister(*id);
            let _ = self.runtime.remove(*id);
            let gone = self.status.lock().expect("status map poisoned").remove(id);
            self.reaped
                .lock()
                .expect("reaped list poisoned")
                .extend(gone);
        }
    }

    /// The shared address map.
    #[must_use]
    pub fn net(&self) -> &FleetNet {
        &self.net
    }

    /// The runtime (for its wire counters).
    #[must_use]
    pub fn runtime(&self) -> &DriverRuntime {
        &self.runtime
    }

    /// Every seated node's status block.
    #[must_use]
    pub fn statuses(&self) -> BTreeMap<NodeId, Arc<NodeStatus>> {
        self.status.lock().expect("status map poisoned").clone()
    }

    /// One node's status block.
    #[must_use]
    pub fn status(&self, id: NodeId) -> Option<Arc<NodeStatus>> {
        self.status
            .lock()
            .expect("status map poisoned")
            .get(&id)
            .cloned()
    }

    /// The live node currently leading `cluster`, if any.
    #[must_use]
    pub fn leader_of(&self, cluster: ClusterId) -> Option<NodeId> {
        self.statuses().into_iter().find_map(|(id, s)| {
            (s.cluster.load(Ordering::Acquire) == cluster.0 && s.is_leader.load(Ordering::Acquire))
                .then_some(id)
        })
    }

    /// Live members reporting `cluster`, with their addresses.
    #[must_use]
    pub fn members_of(&self, cluster: ClusterId) -> BTreeMap<NodeId, SocketAddr> {
        self.statuses()
            .into_iter()
            .filter(|(_, s)| s.cluster.load(Ordering::Acquire) == cluster.0)
            .filter_map(|(id, _)| self.net.addr_of(id).map(|a| (id, a)))
            .collect()
    }

    /// Sum of a status counter over every node ever seated, reaped ones
    /// included.
    #[must_use]
    pub fn sum(&self, field: impl Fn(&NodeStatus) -> u64) -> u64 {
        let reaped: u64 = self
            .reaped
            .lock()
            .expect("reaped list poisoned")
            .iter()
            .map(|s| field(s))
            .sum();
        reaped + self.statuses().values().map(|s| field(s)).sum::<u64>()
    }

    /// Waits until a leader of the boot cluster accepts a no-op — which it
    /// only does once it has committed an entry of its own term, i.e. once
    /// it is ready to serve. Polls every millisecond.
    #[must_use]
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        let mut admin = AdminClient::new(0);
        while Instant::now() < until {
            if let Some(leader) = self.leader_of(BOOT_CLUSTER) {
                if let Some(addr) = self.net.addr_of(leader) {
                    if let Some(Ok(())) = admin.send_one(addr, leader, AdminCmd::ProposeNoop) {
                        return true;
                    }
                }
            }
            thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// Moves the boot cluster's leadership to `id` (an election it starts
    /// on request) and waits until it is ready to serve. Seats are dealt to
    /// workers round-robin, so with two workers node 1 shares its worker
    /// with node 3 and node 2 is alone; which node leads changes both the
    /// commit path (in-memory or over a socket) and how many co-hosted
    /// compactions stall the leader. Pinning it makes every run measure
    /// the same placement.
    ///
    /// `id` is asked to campaign only while a leader exists and `id` has
    /// applied everything that leader committed, and then gets 300 ms to
    /// win. A node whose log lags cannot win, but its campaign still
    /// deposes the leader; asked again every few milliseconds, it kept a
    /// 6-node cluster leaderless for 20 s.
    #[must_use]
    pub fn pin_leader(&self, id: NodeId, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        let mut admin = AdminClient::new(0);
        let (Some(addr), Some(me)) = (self.net.addr_of(id), self.status(id)) else {
            return false;
        };
        while Instant::now() < until {
            match self.leader_of(BOOT_CLUSTER) {
                Some(leader) if leader == id => {
                    if let Some(Ok(())) = admin.send_one(addr, id, AdminCmd::ProposeNoop) {
                        return true;
                    }
                }
                Some(leader) => {
                    let committed = self
                        .status(leader)
                        .map_or(u64::MAX, |s| s.commit.load(Ordering::Acquire));
                    if me.applied.load(Ordering::Acquire) >= committed {
                        let _ = admin.send_one(addr, id, AdminCmd::Campaign);
                        let won = Instant::now() + Duration::from_millis(300);
                        while Instant::now() < won && self.leader_of(BOOT_CLUSTER) != Some(id) {
                            thread::sleep(Duration::from_millis(1));
                        }
                        continue;
                    }
                }
                None => {}
            }
            thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// One line per seated node, for failure messages.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.statuses() {
            out.push_str(&format!(
                "  node {:>2} w{} steps={} cluster={} leader={} commit={} applied={} elections={} installs={} retired={}\n",
                id.0,
                s.worker.load(Ordering::Acquire),
                s.steps.load(Ordering::Acquire),
                s.cluster.load(Ordering::Acquire),
                s.is_leader.load(Ordering::Acquire),
                s.commit.load(Ordering::Acquire),
                s.applied.load(Ordering::Acquire),
                s.elections.load(Ordering::Acquire),
                s.snapshot_installs.load(Ordering::Acquire),
                s.retired.load(Ordering::Acquire),
            ));
            let mut admin = AdminClient::new(3);
            if let Some(st) = self.net.addr_of(id).and_then(|a| admin.fetch_stats(a, id)) {
                out.push_str(&format!(
                    "           epoch={} members={:?} leader_hint={:?} ranges={:?}\n",
                    st.epoch, st.members, st.leader_hint, st.ranges
                ));
            }
        }
        out
    }

    /// Stops the runtime and returns every still-seated node.
    #[must_use]
    pub fn shutdown(self) -> Vec<HarnessNode> {
        self.runtime.shutdown_collect()
    }
}
