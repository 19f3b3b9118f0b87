//! The benchmark's own load generator over loopback TCP.
//!
//! One thread drives every session through a [`Poller`]; an open-loop
//! phase adds a timer thread that only wakes it at each op's scheduled
//! send time, so the generator never busy-waits and never sleeps through
//! a reply. Each *lane* is one connection carrying one put session
//! and one get session; a phase uses one lane, or two lanes routed by key
//! (keys below [`SPLIT_KEY`] on lane 0) so that no session ever spans two
//! clusters across a split or merge.
//!
//! The client discipline: follow `Redirect`/`NotLeader` hints, move away
//! from a cluster that answers `WrongRange`, and on every (re)connection
//! resend the lane's unconfirmed ops in ascending sequence order under
//! their original `(session, seq)`. A leader change therefore shows up as
//! latency and resends, never as a silently dropped op. A `SessionStale`
//! answer to a put means a higher sequence number of the same session
//! already applied, and since lower ones are always sent first, this one
//! did too: it counts as confirmed.
//!
//! Open-loop latency is measured from each op's *scheduled* time, so a
//! stall also charges the ops that queued behind it.

use crate::fleet::Fleet;
use bytes::Bytes;
use recraft_cluster::{NodeStatus, CLIENT_BASE};
use recraft_kv::{KvCmd, KvResp};
use recraft_net::frame::{decode_frame, encode_frame, MAX_FRAME_BYTES};
use recraft_net::poll::{self, Poller, INTEREST_READ, INTEREST_WRITE};
use recraft_net::{Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, Error, NodeId, SessionId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Distinct keys (`k00000000` … `k00009999`), drawn uniformly.
pub const KEYS: u32 = 10_000;
/// Value size in bytes (the paper's evaluation size).
pub const VALUE_BYTES: usize = 512;
/// The key the reshard workload splits at; also the lane boundary.
pub const SPLIT_KEY: u32 = 5_000;
/// "Not yet" for a time field.
pub const NEVER: u64 = u64::MAX;

/// No reply on a connection with ops outstanding for this long: assume the
/// replies are lost, reconnect to the next node and resend. A retired node
/// answers nothing at all, so this also bounds how long a session stays
/// on a node a merge retired.
const REPLY_TIMEOUT_NS: u64 = 300_000_000;
/// First pause before redialing after a transient rejection, a dead
/// socket or a cluster with no leader; doubles per failed attempt.
const RETRY_NS: u64 = 5_000_000;
/// Ceiling of that pause.
const RETRY_MAX_NS: u64 = 100_000_000;

/// The wire name of key `k`.
#[must_use]
pub fn key_name(k: u32) -> Vec<u8> {
    format!("k{k:08}").into_bytes()
}

/// The value put op `id` writes: unique per op, so a read names the put
/// whose value it returned.
#[must_use]
pub fn value_for(id: u32) -> Bytes {
    let mut v = format!("v{id}-").into_bytes();
    v.resize(VALUE_BYTES, b'x');
    Bytes::from(v)
}

/// The op id a value names (`None` for bytes no put of this run wrote).
#[must_use]
pub fn parse_value(v: &[u8]) -> Option<u32> {
    let rest = v.strip_prefix(b"v")?;
    let end = rest.iter().position(|b| *b == b'-')?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// Put or get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An exactly-once write through the log.
    Put,
    /// A linearizable ReadIndex read.
    Get,
}

/// What a get returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The key was absent.
    Absent,
    /// The value put op `id` wrote.
    Value(u32),
    /// Bytes no put of this run wrote, or an undecodable reply.
    Garbage,
}

/// One client operation and what happened to it. Times are ns since the
/// run's epoch.
#[derive(Debug, Clone)]
pub struct Op {
    /// Put or get.
    pub kind: Kind,
    /// Key index.
    pub key: u32,
    /// Wire session.
    pub session: u64,
    /// Wire sequence number within the session.
    pub seq: u64,
    /// When the op was scheduled (open loop) or issued (closed loop).
    pub due: u64,
    /// First time it was written to a socket.
    pub sent: u64,
    /// When it was confirmed ([`NEVER`] if it never was).
    pub done: u64,
    /// Times it was written again after a reconnect.
    pub resends: u32,
    /// A get's answer.
    pub read: Option<Answer>,
}

impl Op {
    /// Whether the op was confirmed.
    #[must_use]
    pub fn confirmed(&self) -> bool {
        self.done != NEVER
    }

    /// Confirmation latency in ns, measured from the due time.
    #[must_use]
    pub fn latency(&self) -> Option<u64> {
        self.confirmed().then(|| self.done.saturating_sub(self.due))
    }
}

/// How a phase paces its ops.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Ops due on a fixed schedule of `rate` per second, sent when due
    /// whatever is outstanding.
    Open {
        /// Ops per second.
        rate: f64,
    },
    /// A new op whenever fewer than `window` are outstanding.
    Closed {
        /// Ops kept outstanding.
        window: usize,
    },
}

/// Which ops a phase issues.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Uniform keys; each op is a get with probability `get_frac`.
    Random {
        /// Share of gets.
        get_frac: f64,
    },
    /// One op of this kind on every key in order, then stop.
    Sweep(Kind),
}

/// One phase of load.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Pacing.
    pub pace: Pace,
    /// Op mix.
    pub mix: Mix,
    /// Two key-routed lanes instead of one.
    pub by_key: bool,
    /// Stop issuing after this long (or when the phase's stop flag rises).
    pub issue_for: Duration,
    /// After issuing stops, how long to wait for outstanding ops.
    pub drain: Duration,
}

/// Where a phase sits in the op log and on the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// First op id of the phase.
    pub first: usize,
    /// One past its last op id.
    pub end_op: usize,
    /// Phase start (ns since epoch).
    pub start: u64,
    /// When issuing stopped.
    pub issued_until: u64,
    /// When the drain ended.
    pub end: u64,
}

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Ops written again after a reconnect.
    pub resends: u64,
    /// `WrongRange` answers.
    pub wrong_range: u64,
    /// `Redirect`/`NotLeader` answers acted on.
    pub redirects: u64,
}

/// First put acknowledged by each cluster, shared with the thread driving
/// reconfigurations (which waits on it to see a new cluster serve).
#[derive(Debug, Default)]
pub struct AckBoard {
    first: Mutex<BTreeMap<u64, u64>>,
}

impl AckBoard {
    fn note(&self, cluster: u64, at: u64) {
        self.first
            .lock()
            .expect("ack board poisoned")
            .entry(cluster)
            .or_insert(at);
    }

    /// When `cluster` first acknowledged a put, if it has.
    #[must_use]
    pub fn first(&self, cluster: u64) -> Option<u64> {
        self.first
            .lock()
            .expect("ack board poisoned")
            .get(&cluster)
            .copied()
    }
}

/// A small deterministic RNG (splitmix64) for the op stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// One connection and the two sessions it carries.
struct Lane {
    client: NodeId,
    put_session: u64,
    get_session: u64,
    stream: Option<TcpStream>,
    node: NodeId,
    node_status: Option<Arc<NodeStatus>>,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Unconfirmed op ids; ascending id is ascending seq per session.
    pending: BTreeSet<u32>,
    prefer: Option<NodeId>,
    /// A cluster that answered `WrongRange`: dial elsewhere.
    avoid: Option<u64>,
    cursor: usize,
    retry_at: u64,
    /// The next pause after a failed attempt.
    backoff: u64,
    last_rx: u64,
    /// While a fresh connection is unproven, only its oldest pending op
    /// is sent; the rest follow, in order, once that one is confirmed. A
    /// connection to a follower (or a cluster with no leader) thus costs
    /// one op per attempt instead of the whole backlog.
    probe: Option<u32>,
}

/// What a batch of replies asks the lane to do with its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Keep,
    Retry,
    Redirect(Option<NodeId>),
    WrongRange,
}

/// The generator: its op log and counters persist across phases.
pub struct Gen<'f> {
    fleet: &'f Fleet,
    epoch: Instant,
    rng: Rng,
    /// Every op issued so far, indexed by op id.
    pub ops: Vec<Op>,
    by_req: HashMap<(u64, u64), u32>,
    next_seq: HashMap<u64, u64>,
    next_session: u64,
    /// Client-side counters.
    pub counters: Counters,
    /// Whether to time frame encode/write and decode calls.
    traced: bool,
    /// Per-op encode+write time (ns), traced runs only.
    pub write_ns: Vec<u64>,
    /// Per-frame decode time (ns), traced runs only.
    pub decode_ns: Vec<u64>,
    /// Open-loop issue lateness (ns past due) per op.
    pub late_ns: Vec<u64>,
    /// `(op, time)` of every resend, traced runs only: each is a child
    /// span of the original op.
    pub resend_log: Vec<(u32, u64)>,
}

impl<'f> Gen<'f> {
    /// A generator over `fleet`, timing against `epoch`.
    #[must_use]
    pub fn new(fleet: &'f Fleet, epoch: Instant, seed: u64, traced: bool) -> Gen<'f> {
        Gen {
            fleet,
            epoch,
            rng: Rng::new(seed),
            ops: Vec::new(),
            by_req: HashMap::new(),
            next_seq: HashMap::new(),
            next_session: 1,
            counters: Counters::default(),
            traced,
            write_ns: Vec::new(),
            decode_ns: Vec::new(),
            late_ns: Vec::new(),
            resend_log: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lane(&mut self) -> Lane {
        let put_session = self.next_session;
        self.next_session += 2;
        Lane {
            client: NodeId(CLIENT_BASE + put_session),
            put_session,
            get_session: put_session + 1,
            stream: None,
            node: NodeId(0),
            node_status: None,
            inbuf: Vec::with_capacity(1 << 16),
            outbuf: Vec::new(),
            pending: BTreeSet::new(),
            prefer: None,
            avoid: None,
            cursor: put_session as usize,
            retry_at: 0,
            backoff: RETRY_NS,
            last_rx: 0,
            probe: None,
        }
    }

    /// Runs one phase to completion: issue for `phase.issue_for` (or until
    /// `stop` rises), then drain. Records the first put each cluster
    /// acknowledges on `acks`.
    ///
    /// # Panics
    /// Panics if the poller or waker cannot be created.
    pub fn run(&mut self, phase: &Phase, stop: &AtomicBool, acks: &AckBoard) -> Span {
        let mut lanes: Vec<Lane> = (0..if phase.by_key { 2 } else { 1 })
            .map(|_| self.lane())
            .collect();
        let (waker, wake_rx) = poll::waker().expect("generator waker");
        let timer_stop = AtomicBool::new(false);
        let start = self.now();
        let first = self.ops.len();
        let issue_until = start + phase.issue_for.as_nanos() as u64;
        let mut issued_until = NEVER;
        let mut drain_until = NEVER;
        let mut next_key = 0u32;
        let mut poller = Poller::new();
        let end = thread::scope(|scope| {
            if let Pace::Open { rate } = phase.pace {
                let interval = Duration::from_secs_f64(1.0 / rate);
                let t0 = self.epoch + Duration::from_nanos(start);
                let (waker, timer_stop) = (&waker, &timer_stop);
                scope.spawn(move || {
                    let mut next = t0;
                    while !timer_stop.load(Ordering::Relaxed) {
                        next += interval;
                        if let Some(wait) = next.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        waker.wake();
                    }
                });
            }
            let mut issued = 0u64;
            loop {
                let now = self.now();
                if issued_until == NEVER {
                    let done_issuing = now >= issue_until
                        || stop.load(Ordering::Acquire)
                        || matches!(phase.mix, Mix::Sweep(_) if next_key >= KEYS);
                    if done_issuing {
                        issued_until = now;
                        drain_until = now + phase.drain.as_nanos() as u64;
                        timer_stop.store(true, Ordering::Relaxed);
                    }
                }
                if issued_until == NEVER {
                    match phase.pace {
                        Pace::Open { rate } => loop {
                            let due = start + ((issued + 1) as f64 * 1e9 / rate) as u64;
                            if due > now {
                                break;
                            }
                            self.issue(&mut lanes, phase, due, now, &mut next_key);
                            self.late_ns.push(now - due);
                            issued += 1;
                        },
                        Pace::Closed { window } => {
                            while lanes.iter().map(|l| l.pending.len()).sum::<usize>() < window
                                && !matches!(phase.mix, Mix::Sweep(_) if next_key >= KEYS)
                            {
                                self.issue(&mut lanes, phase, now, now, &mut next_key);
                            }
                        }
                    }
                }
                for lane in &mut lanes {
                    if lane.stream.is_none() && !lane.pending.is_empty() && lane.retry_at <= now {
                        self.connect(lane);
                    }
                    if lane.stream.is_some()
                        && !lane.pending.is_empty()
                        && now.saturating_sub(lane.last_rx) > REPLY_TIMEOUT_NS
                    {
                        lane.drop_stream(now, 0);
                        lane.cursor += 1;
                        lane.prefer = None;
                    }
                }
                let idle = lanes.iter().all(|l| l.pending.is_empty());
                if issued_until != NEVER && (idle || now >= drain_until) {
                    break now;
                }
                poller.clear();
                poller.register(wake_rx.raw_fd(), INTEREST_READ);
                let mut tokens = Vec::with_capacity(lanes.len());
                for (i, lane) in lanes.iter().enumerate() {
                    if let Some(s) = &lane.stream {
                        let interest = if lane.outbuf.is_empty() {
                            INTEREST_READ
                        } else {
                            INTEREST_READ | INTEREST_WRITE
                        };
                        tokens.push((poller.register(poll::fd_of(s), interest), i));
                    }
                }
                let wait = match phase.pace {
                    Pace::Open { .. } if issued_until == NEVER => Duration::from_millis(20),
                    _ => Duration::from_millis(2),
                };
                if poller.wait(Some(wait)).is_err() {
                    continue;
                }
                if poller.readiness(0).readable {
                    wake_rx.drain();
                }
                for (token, i) in tokens {
                    let ready = poller.readiness(token);
                    if ready.writable {
                        lanes[i].flush(self.now());
                    }
                    if ready.readable || ready.error {
                        self.read(&mut lanes[i], acks);
                    }
                }
            }
        });
        Span {
            first,
            end_op: self.ops.len(),
            start,
            issued_until,
            end,
        }
    }

    fn issue(&mut self, lanes: &mut [Lane], phase: &Phase, due: u64, now: u64, next_key: &mut u32) {
        let (kind, key) = match phase.mix {
            Mix::Random { get_frac } => {
                let kind = if self.rng.unit() < get_frac {
                    Kind::Get
                } else {
                    Kind::Put
                };
                (kind, self.rng.below(KEYS))
            }
            Mix::Sweep(kind) => {
                *next_key += 1;
                (kind, *next_key - 1)
            }
        };
        let li = if phase.by_key && key >= SPLIT_KEY {
            1
        } else {
            0
        };
        let lane = &mut lanes[li];
        let session = if kind == Kind::Put {
            lane.put_session
        } else {
            lane.get_session
        };
        let seq = {
            let s = self.next_seq.entry(session).or_insert(0);
            *s += 1;
            *s
        };
        let id = u32::try_from(self.ops.len()).expect("op ids fit u32");
        self.by_req.insert((session, seq), id);
        self.ops.push(Op {
            kind,
            key,
            session,
            seq,
            due,
            sent: NEVER,
            done: NEVER,
            resends: 0,
            read: None,
        });
        lane.pending.insert(id);
        if lane.stream.is_some() && lane.probe.is_none() {
            self.send(lane, id, now);
        }
    }

    fn send(&mut self, lane: &mut Lane, id: u32, now: u64) {
        let t0 = self.traced.then(Instant::now);
        let op = &mut self.ops[id as usize];
        let key = key_name(op.key);
        let req_op = match op.kind {
            Kind::Put => ClientOp::Command {
                key: key.clone(),
                cmd: KvCmd::Put {
                    key,
                    value: value_for(id),
                }
                .encode(),
            },
            Kind::Get => ClientOp::Get { key },
        };
        let env = Envelope::new(
            lane.client,
            lane.node,
            Message::ClientReq {
                req: ClientRequest {
                    session: SessionId(op.session),
                    seq: op.seq,
                    op: req_op,
                },
            },
        );
        if op.sent == NEVER {
            op.sent = now;
        } else {
            op.resends += 1;
            self.counters.resends += 1;
            if self.traced {
                self.resend_log.push((id, now));
            }
        }
        lane.outbuf.extend_from_slice(&encode_frame(&env));
        lane.flush(now);
        if let Some(t0) = t0 {
            self.write_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Dials the lane's next node and sends its oldest unconfirmed op as
    /// the connection's probe.
    fn connect(&mut self, lane: &mut Lane) {
        let now = self.now();
        let statuses = self.fleet.statuses();
        let live: Vec<(NodeId, std::net::SocketAddr)> = self
            .fleet
            .net()
            .snapshot()
            .into_iter()
            .filter(|(id, _)| {
                statuses
                    .get(id)
                    .is_some_and(|s| !s.retired.load(Ordering::Acquire))
            })
            .collect();
        let away: Vec<(NodeId, std::net::SocketAddr)> = live
            .iter()
            .copied()
            .filter(|(id, _)| lane.avoid != Some(statuses[id].cluster.load(Ordering::Acquire)))
            .collect();
        let pool = if away.is_empty() { &live } else { &away };
        if pool.is_empty() {
            lane.retry_at = now + RETRY_NS;
            return;
        }
        let (id, addr) = lane
            .prefer
            .and_then(|p| pool.iter().find(|(n, _)| *n == p).copied())
            .unwrap_or_else(|| pool[lane.cursor % pool.len()]);
        let stream = match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(s) if s.set_nonblocking(true).is_ok() => s,
            _ => {
                lane.cursor += 1;
                lane.prefer = None;
                lane.retry_at = now + RETRY_NS;
                return;
            }
        };
        let _ = stream.set_nodelay(true);
        lane.stream = Some(stream);
        lane.node = id;
        lane.node_status = statuses.get(&id).cloned();
        lane.avoid = None;
        lane.inbuf.clear();
        lane.outbuf.clear();
        lane.last_rx = now;
        lane.probe = lane.pending.first().copied();
        if let Some(op) = lane.probe {
            self.send(lane, op, now);
        }
    }

    /// Drains the lane's socket and handles every complete reply.
    fn read(&mut self, lane: &mut Lane, acks: &AckBoard) {
        let Some(stream) = lane.stream.as_mut() else {
            return;
        };
        let mut buf = [0u8; 1 << 16];
        let mut dead = false;
        loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => lane.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let at = self.now();
        let mut verdict = Verdict::Keep;
        let mut at_byte = 0;
        while lane.inbuf.len() - at_byte >= 4 {
            let len = u32::from_be_bytes(
                lane.inbuf[at_byte..at_byte + 4]
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            if len > MAX_FRAME_BYTES {
                dead = true;
                break;
            }
            if lane.inbuf.len() - at_byte < 4 + len {
                break;
            }
            let t0 = self.traced.then(Instant::now);
            let mut frame = Bytes::copy_from_slice(&lane.inbuf[at_byte..at_byte + 4 + len]);
            at_byte += 4 + len;
            let decoded = decode_frame(&mut frame);
            if let Some(t0) = t0 {
                self.decode_ns.push(t0.elapsed().as_nanos() as u64);
            }
            match decoded {
                Ok(Envelope {
                    msg: Message::ClientResp { resp },
                    ..
                }) => {
                    lane.last_rx = at;
                    verdict = verdict.max(self.on_resp(lane, resp, at, acks));
                }
                Ok(_) => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        lane.inbuf.drain(..at_byte);
        match verdict {
            _ if dead => {
                lane.back_off(at);
                lane.cursor += 1;
                lane.prefer = None;
            }
            Verdict::Keep => {}
            Verdict::Retry => lane.back_off(at),
            Verdict::Redirect(Some(hint)) if hint != lane.node => {
                self.counters.redirects += 1;
                lane.prefer = Some(hint);
                lane.drop_stream(at, 0);
            }
            Verdict::Redirect(_) => {
                // No leader known (an election is running), or the hint
                // names the node we are on: move on after a pause.
                self.counters.redirects += 1;
                lane.prefer = None;
                lane.cursor += 1;
                lane.back_off(at);
            }
            Verdict::WrongRange => {
                self.counters.wrong_range += 1;
                lane.avoid = lane
                    .node_status
                    .as_ref()
                    .map(|s| s.cluster.load(Ordering::Acquire));
                lane.prefer = None;
                lane.cursor += 1;
                lane.drop_stream(at, 0);
            }
        }
    }

    fn on_resp(
        &mut self,
        lane: &mut Lane,
        resp: ClientResponse,
        at: u64,
        acks: &AckBoard,
    ) -> Verdict {
        let Some(&id) = self.by_req.get(&(resp.session.0, resp.seq)) else {
            return Verdict::Keep;
        };
        if !lane.pending.contains(&id) {
            return Verdict::Keep; // a duplicate answer for a confirmed op
        }
        let kind = self.ops[id as usize].kind;
        match resp.outcome {
            ClientOutcome::Reply { payload } => {
                if kind == Kind::Get {
                    self.ops[id as usize].read = Some(match KvResp::decode(&payload) {
                        Ok(KvResp::Value { value: None, .. }) => Answer::Absent,
                        Ok(KvResp::Value { value: Some(v), .. }) => {
                            parse_value(&v).map_or(Answer::Garbage, Answer::Value)
                        }
                        _ => Answer::Garbage,
                    });
                }
                self.confirm(lane, id, at, acks);
                Verdict::Keep
            }
            ClientOutcome::Rejected {
                error: Error::SessionStale,
            } if kind == Kind::Put => {
                self.confirm(lane, id, at, acks);
                Verdict::Keep
            }
            ClientOutcome::Redirect { leader_hint, .. }
            | ClientOutcome::Rejected {
                error: Error::NotLeader(leader_hint),
            } => Verdict::Redirect(leader_hint),
            ClientOutcome::Rejected {
                error: Error::WrongRange(_),
            } => Verdict::WrongRange,
            ClientOutcome::Rejected { .. } => Verdict::Retry,
        }
    }

    fn confirm(&mut self, lane: &mut Lane, id: u32, at: u64, acks: &AckBoard) {
        lane.pending.remove(&id);
        lane.backoff = RETRY_NS;
        if lane.probe == Some(id) {
            // The connection reaches a serving leader: release the backlog,
            // still in ascending order.
            lane.probe = None;
            let held: Vec<u32> = lane.pending.iter().copied().collect();
            for op in held {
                if lane.stream.is_none() {
                    break;
                }
                self.send(lane, op, at);
            }
        }
        let op = &mut self.ops[id as usize];
        op.done = at;
        if let (Kind::Put, Some(s)) = (op.kind, &lane.node_status) {
            acks.note(s.cluster.load(Ordering::Acquire), at);
        }
    }
}

impl Lane {
    /// Writes as much of the output buffer as the socket takes.
    fn flush(&mut self, now: u64) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let mut written = 0;
        while written < self.outbuf.len() {
            match stream.write(&self.outbuf[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.back_off(now);
                    self.cursor += 1;
                    return;
                }
            }
        }
        self.outbuf.drain(..written);
    }

    /// Drops the connection and redials after the current backoff, which
    /// doubles for next time.
    fn back_off(&mut self, now: u64) {
        self.drop_stream(now, self.backoff);
        self.backoff = (self.backoff * 2).min(RETRY_MAX_NS);
    }

    fn drop_stream(&mut self, now: u64, pause: u64) {
        self.probe = None;
        self.stream = None;
        self.node_status = None;
        self.inbuf.clear();
        self.outbuf.clear();
        self.retry_at = now + pause;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_put() {
        let v = value_for(1234);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(parse_value(&v), Some(1234));
        assert_eq!(parse_value(b"garbage"), None);
        assert_eq!(parse_value(b"v12"), None);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u32> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.below(KEYS)).collect()
        };
        let b: Vec<u32> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.below(KEYS)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|k| *k < KEYS));
        let mut r = Rng::new(8);
        assert_ne!(a, (0..8).map(|_| r.below(KEYS)).collect::<Vec<_>>());
    }
}
