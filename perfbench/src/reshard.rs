//! The reshard schedule: one split → merge back → re-staff cycle, starting
//! from the 6-node boot cluster:
//!
//! 1. **split** the 6-node cluster into two 3-node children at
//!    [`SPLIT_KEY`] (the lower three node ids take the lower range);
//! 2. **merge** the children back, coordinated by the lower child and
//!    resuming with its members only, so the upper child's three nodes
//!    retire;
//! 3. **re-staff**: reap the retired nodes, boot three fresh joiners and
//!    send `AddAndResize` for them.
//!
//! Steps are separated by a fixed settle pause, and every step is timed
//! from the moment its command is sent. Split and merge run under the
//! round's load ([`Schedule::run`]); the re-staff runs once the load has
//! stopped ([`Schedule::restaff`]), because the joiners' catch-up stops
//! client commits for a time that varied 0.2–1.9 s between rounds and
//! would swamp every latency figure of the phase. A run repeats the cycle
//! on a fresh fleet each round rather than on the re-staffed one: a split
//! sent right after a re-staff sometimes never completes (see the README's
//! findings).

use crate::fleet::{Fleet, BOOT_CLUSTER};
use crate::gen::{key_name, AckBoard, SPLIT_KEY};
use recraft_cluster::AdminClient;
use recraft_net::AdminCmd;
use recraft_types::{
    ClusterConfig, ClusterId, Error, KeyRange, MergeParticipant, MergeTx, NodeId, RangeSet,
    SplitSpec, TxId,
};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// Pause between one step's completion and the next step's command: the
/// previous step's automatic follow-up (a resize's quorum reset, a merged
/// cluster's no-op) settles, and ops due in one window do not spill into
/// the next.
const SETTLE: Duration = Duration::from_millis(250);
/// How long any one step may take before the run fails.
const STEP_TIMEOUT: Duration = Duration::from_secs(20);

/// One reconfiguration step as observed. Times are ns since the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// `split`, `merge` or `resize`.
    pub kind: &'static str,
    /// The round the step belongs to.
    pub cycle: usize,
    /// Command sent.
    pub sent: u64,
    /// A leader accepted it (`run_on_leader` returned).
    pub accepted: u64,
    /// The resulting cluster(s) had a leader (for a resize: `accepted`).
    pub led: u64,
    /// The step's end-to-end completion: a put acknowledged by each new
    /// cluster (split, merge), or every joiner caught up (resize).
    pub done: u64,
}

/// The split of `members` (sorted; the lower half takes keys below
/// [`SPLIT_KEY`]) into clusters `lo` and `hi`.
///
/// # Errors
/// When the member set cannot form two non-empty children.
pub fn split_cmd(
    members: &BTreeSet<NodeId>,
    lo: ClusterId,
    hi: ClusterId,
) -> Result<(AdminCmd, BTreeSet<NodeId>, BTreeSet<NodeId>), String> {
    let sorted: Vec<NodeId> = members.iter().copied().collect();
    if sorted.len() < 2 {
        return Err(format!("cannot split {} members", sorted.len()));
    }
    let (a, b) = sorted.split_at(sorted.len() / 2);
    let cut = key_name(SPLIT_KEY);
    let lo_range = KeyRange::new(Vec::new(), cut.clone()).map_err(|e| e.to_string())?;
    let hi_range = KeyRange::from_start(cut);
    let child = |id, nodes: &[NodeId], range| {
        ClusterConfig::new(
            id,
            nodes.iter().copied(),
            RangeSet::from_ranges([range]).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())
    };
    let spec = SplitSpec::new(
        vec![child(lo, a, lo_range)?, child(hi, b, hi_range)?],
        members,
        &RangeSet::full(),
    )
    .map_err(|e| e.to_string())?;
    Ok((
        AdminCmd::Split(spec),
        a.iter().copied().collect(),
        b.iter().copied().collect(),
    ))
}

/// The merge of `lo` (coordinator, whose members resume) and `hi` into
/// `new_cluster`.
///
/// # Errors
/// When the transaction is malformed.
pub fn merge_cmd(
    tx: u64,
    lo: (ClusterId, &BTreeSet<NodeId>),
    hi: (ClusterId, &BTreeSet<NodeId>),
    new_cluster: ClusterId,
) -> Result<AdminCmd, String> {
    let tx = MergeTx {
        id: TxId(tx),
        coordinator: lo.0,
        participants: vec![
            MergeParticipant {
                cluster: lo.0,
                members: lo.1.clone(),
            },
            MergeParticipant {
                cluster: hi.0,
                members: hi.1.clone(),
            },
        ],
        new_cluster,
        resume_members: Some(lo.1.clone()),
    };
    tx.validate().map_err(|e| e.to_string())?;
    Ok(AdminCmd::Merge(tx))
}

/// The membership change adding `joiners` in one step.
#[must_use]
pub fn resize_cmd(joiners: &[NodeId]) -> AdminCmd {
    AdminCmd::AddAndResize(joiners.iter().copied().collect())
}

/// Drives the schedule against a live fleet while the generator runs.
pub struct Schedule<'a> {
    fleet: &'a Fleet,
    acks: &'a AckBoard,
    epoch: Instant,
    admin: AdminClient,
    cluster: ClusterId,
    members: BTreeSet<NodeId>,
    next_cluster: u64,
    cycle: usize,
    /// Steps completed so far.
    pub steps: Vec<Step>,
}

impl<'a> Schedule<'a> {
    /// The schedule for the fleet as booted (cluster 1 on nodes `members`),
    /// in round `cycle`.
    #[must_use]
    pub fn new(
        fleet: &'a Fleet,
        acks: &'a AckBoard,
        epoch: Instant,
        members: BTreeSet<NodeId>,
        cycle: usize,
    ) -> Schedule<'a> {
        Schedule {
            fleet,
            acks,
            epoch,
            admin: AdminClient::new(1),
            cluster: BOOT_CLUSTER,
            members,
            next_cluster: BOOT_CLUSTER.0 + 1,
            cycle,
            steps: Vec::new(),
        }
    }

    /// The cluster serving the whole keyspace once the schedule stops.
    #[must_use]
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn alloc(&mut self) -> ClusterId {
        self.next_cluster += 1;
        ClusterId(self.next_cluster - 1)
    }

    /// Split → merge, each step preceded by the settle pause and followed
    /// by one.
    ///
    /// # Errors
    /// When a step is refused or does not complete in time.
    pub fn run(&mut self) -> Result<(), String> {
        let cycle = self.cycle;
        thread::sleep(SETTLE);
        let (lo, hi, lo_members, hi_members) = self.split(cycle)?;
        thread::sleep(SETTLE);
        self.merge(cycle, (lo, &lo_members), (hi, &hi_members))?;
        thread::sleep(SETTLE);
        Ok(())
    }

    /// The re-staff that completes the cycle: three joiners and
    /// `AddAndResize` for them.
    ///
    /// # Errors
    /// When the resize is refused or the joiners do not catch up in time.
    pub fn restaff(&mut self) -> Result<(), String> {
        self.resize(self.cycle)
    }

    /// Sends `cmd` to the cluster's leader until it is accepted, retrying
    /// every millisecond while the leader is unknown or answers
    /// `PreconditionP1`/`P3` (the previous step or a fresh leader's no-op
    /// still settling) — a finer grain than `run_on_leader`'s backoff, so
    /// the accept time measures the protocol rather than the retry timer.
    fn send(&mut self, cmd: &AdminCmd) -> Result<(u64, u64), String> {
        let sent = self.now();
        let deadline = Instant::now() + STEP_TIMEOUT;
        let mut last = String::from("no leader");
        while Instant::now() < deadline {
            let target = self
                .fleet
                .leader_of(self.cluster)
                .and_then(|l| Some((l, self.fleet.net().addr_of(l)?)));
            if let Some((leader, addr)) = target {
                match self.admin.send_one(addr, leader, cmd.clone()) {
                    Some(Ok(())) => return Ok((sent, self.now())),
                    Some(Err(
                        e @ (Error::NotLeader(_) | Error::PreconditionP1 | Error::PreconditionP3),
                    )) => {
                        last = e.to_string();
                    }
                    Some(Err(e)) => return Err(format!("{} refused: {e}", cmd.kind())),
                    None => last = "transport failure".into(),
                }
            }
            thread::sleep(Duration::from_millis(1));
        }
        Err(format!(
            "{} not accepted within {STEP_TIMEOUT:?}: {last}",
            cmd.kind()
        ))
    }

    fn wait(
        &mut self,
        what: &str,
        mut ready: impl FnMut(&Self) -> Option<u64>,
    ) -> Result<u64, String> {
        let deadline = Instant::now() + STEP_TIMEOUT;
        loop {
            if let Some(t) = ready(self) {
                return Ok(t);
            }
            if Instant::now() >= deadline {
                return Err(format!("{what} did not happen within {STEP_TIMEOUT:?}"));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn split(
        &mut self,
        cycle: usize,
    ) -> Result<(ClusterId, ClusterId, BTreeSet<NodeId>, BTreeSet<NodeId>), String> {
        let (lo, hi) = (self.alloc(), self.alloc());
        let (cmd, lo_members, hi_members) = split_cmd(&self.members, lo, hi)?;
        let (sent, accepted) = self.send(&cmd)?;
        let fleet = self.fleet;
        let led = self.wait("split children electing", |d| {
            (fleet.leader_of(lo).is_some() && fleet.leader_of(hi).is_some()).then(|| d.now())
        })?;
        let done = self.wait("a put acknowledged by each split child", |d| {
            Some(d.acks.first(lo.0)?.max(d.acks.first(hi.0)?))
        })?;
        self.steps.push(Step {
            kind: "split",
            cycle,
            sent,
            accepted,
            led,
            done,
        });
        Ok((lo, hi, lo_members, hi_members))
    }

    fn merge(
        &mut self,
        cycle: usize,
        lo: (ClusterId, &BTreeSet<NodeId>),
        hi: (ClusterId, &BTreeSet<NodeId>),
    ) -> Result<(), String> {
        let merged = self.alloc();
        let cmd = merge_cmd(cycle as u64 + 1, lo, hi, merged)?;
        self.cluster = lo.0;
        let (sent, accepted) = self.send(&cmd)?;
        let fleet = self.fleet;
        let led = self.wait("merged cluster electing", |d| {
            fleet.leader_of(merged).map(|_| d.now())
        })?;
        let done = self.wait("a put acknowledged by the merged cluster", |d| {
            d.acks.first(merged.0)
        })?;
        self.steps.push(Step {
            kind: "merge",
            cycle,
            sent,
            accepted,
            led,
            done,
        });
        self.cluster = merged;
        self.members = lo.1.clone();
        let retiring: Vec<NodeId> = hi.1.iter().copied().collect();
        self.wait("the upper child's nodes retiring", |d| {
            retiring
                .iter()
                .all(|id| {
                    fleet
                        .status(*id)
                        .is_none_or(|s| s.retired.load(Ordering::Acquire))
                })
                .then(|| d.now())
        })?;
        self.fleet.reap(&retiring);
        Ok(())
    }

    fn resize(&mut self, cycle: usize) -> Result<(), String> {
        let joiners = self.fleet.spawn_joiners(3, self.cluster);
        let cmd = resize_cmd(&joiners);
        let fleet = self.fleet;
        let cluster = self.cluster;
        self.wait("a leader to resize", |d| {
            fleet.leader_of(cluster).map(|_| d.now())
        })?;
        let commit = fleet
            .leader_of(cluster)
            .and_then(|l| fleet.status(l))
            .map_or(0, |s| s.commit.load(Ordering::Acquire));
        let (sent, accepted) = self.send(&cmd)?;
        let done = self.wait("joiners catching up", |d| {
            joiners
                .iter()
                .all(|id| {
                    fleet.status(*id).is_some_and(|s| {
                        s.cluster.load(Ordering::Acquire) == cluster.0
                            && s.applied.load(Ordering::Acquire) >= commit
                    })
                })
                .then(|| d.now())
        })?;
        self.steps.push(Step {
            kind: "resize",
            cycle,
            sent,
            accepted,
            led: accepted,
            done,
        });
        self.members.extend(joiners);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recraft_types::ClusterConfig;

    fn ids(r: std::ops::RangeInclusive<u64>) -> BTreeSet<NodeId> {
        r.map(NodeId).collect()
    }

    #[test]
    fn split_builds_a_valid_two_way_spec_at_the_split_key() {
        let (cmd, lo, hi) = split_cmd(&ids(1..=6), ClusterId(2), ClusterId(3)).unwrap();
        assert_eq!(lo, ids(1..=3));
        assert_eq!(hi, ids(4..=6));
        let AdminCmd::Split(spec) = cmd else {
            panic!("not a split")
        };
        let lo_cfg = spec.subcluster_of(NodeId(1)).expect("node 1 placed");
        let hi_cfg = spec.subcluster_of(NodeId(6)).expect("node 6 placed");
        assert_eq!(lo_cfg.id(), ClusterId(2));
        assert_eq!(hi_cfg.id(), ClusterId(3));
        assert!(lo_cfg.ranges().contains(&key_name(SPLIT_KEY - 1)));
        assert!(!lo_cfg.ranges().contains(&key_name(SPLIT_KEY)));
        assert!(hi_cfg.ranges().contains(&key_name(SPLIT_KEY)));
        assert!(split_cmd(&ids(1..=1), ClusterId(2), ClusterId(3)).is_err());
    }

    #[test]
    fn merge_resumes_with_the_coordinator_and_validates() {
        let (lo, hi) = (ids(1..=3), ids(4..=6));
        let AdminCmd::Merge(tx) =
            merge_cmd(1, (ClusterId(2), &lo), (ClusterId(3), &hi), ClusterId(4)).unwrap()
        else {
            panic!("not a merge")
        };
        assert_eq!(tx.coordinator, ClusterId(2));
        assert_eq!(tx.new_cluster, ClusterId(4));
        assert_eq!(tx.resume_members.as_ref(), Some(&lo));
        assert_eq!(tx.participants.len(), 2);
        assert!(tx.validate().is_ok());
        // Overlapping participants are not a merge.
        assert!(merge_cmd(1, (ClusterId(2), &lo), (ClusterId(3), &lo), ClusterId(4)).is_err());
    }

    #[test]
    fn resize_adds_exactly_the_joiners() {
        let AdminCmd::AddAndResize(set) = resize_cmd(&[NodeId(7), NodeId(8), NodeId(9)]) else {
            panic!("not an add-and-resize")
        };
        assert_eq!(set, ids(7..=9));
        // The staffed member set is what the next split cuts in half.
        let staffed: BTreeSet<NodeId> = ids(1..=3).into_iter().chain(set).collect();
        let (_, lo, hi) = split_cmd(&staffed, ClusterId(5), ClusterId(6)).unwrap();
        assert_eq!((lo, hi), (ids(1..=3), ids(7..=9)));
        let _ = ClusterConfig::new(ClusterId(5), ids(1..=3), RangeSet::full()).unwrap();
    }
}
