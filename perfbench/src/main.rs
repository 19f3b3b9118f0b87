//! Socket-level benchmark for the ReCraft workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-mem --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Workloads:
//!
//! * `kv-mem` / `kv-wal` — [`ROUNDS`] rounds, each booting a 3-node
//!   cluster on `MemLog` (`WalLog` with fsync for `kv-wal`), prefilling
//!   every key, then driving an open loop at 2000 op/s (80% puts, 20%
//!   ReadIndex gets; uniform over 10k keys, 512 B values) for whole
//!   compaction periods;
//! * `saturate` — closed-loop puts, one session, window 64, on `MemLog`;
//! * `reshard` — [`RESHARD_ROUNDS`] rounds, each booting a 6-node cluster
//!   on `MemLog`, prefilling every key, then driving an open loop at
//!   1000 op/s routed by key while the cluster splits and merges back, and
//!   re-staffing it once the load has stopped.
//!
//! Every round ends with a read-back of every key and the correctness
//! checks. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! seed untraced and then traced (storage wrapper, frame timers, `StatsReq`
//! sampling) and prints the per-layer metrics plus the tracing overhead.
//! The last stdout line is the JSON result; everything else goes to
//! stderr. `perfbench/README.md` says why each workload and metric exists.

mod check;
mod fleet;
mod gen;
mod report;
mod reshard;
mod stats;
mod trace;

use crate::fleet::{Backend, Fleet, BOOT_CLUSTER};
use crate::gen::{AckBoard, Counters, Gen, Kind, Mix, Op, Pace, Phase, Span};
use crate::reshard::{Schedule, Step};
use crate::trace::{SpanSink, StoreSpan};
use recraft_cluster::{verify_sessions_from, AdminClient, HarnessNode, WireStats};
use recraft_core::Timing;
use recraft_types::{ClusterId, NodeId, SessionId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Nodes per boot: `kv-*` and `saturate`, and `reshard`.
const BOOT_NODES: u64 = 3;
const RESHARD_NODES: u64 = 6;
/// The node the measured phases start with as leader (see
/// [`Fleet::pin_leader`]).
const PINNED_LEADER: NodeId = NodeId(1);
/// Rounds per `kv-*` run.
const ROUNDS: usize = 3;
/// Rounds per `reshard` run; each round's reshard phase lasts this share
/// of `--seconds` (or as long as its cycle takes, if that is longer).
const RESHARD_ROUNDS: usize = 10;
/// Steady-phase rate and share of gets.
const STEADY_RATE: f64 = 2000.0;
const STEADY_GETS: f64 = 0.2;

/// The steady phase of one `kv-*` round: a whole number of compaction
/// periods (the time the steady put rate takes to fill
/// `Timing::default().compaction_threshold` entries) within the round's
/// share of `seconds`, so every round sees the same number of snapshots.
fn steady_duration(seconds: f64) -> f64 {
    let per_round = seconds / ROUNDS as f64;
    let period =
        Timing::default().compaction_threshold as f64 / (STEADY_RATE * (1.0 - STEADY_GETS));
    (per_round / period).floor().max(1.0) * period
}

/// How long a phase waits for its outstanding ops once issuing stops;
/// anything still unconfirmed then is failed.
const DRAIN: Duration = Duration::from_secs(10);

/// Set while a check that reports by panicking runs.
static QUIET_PANICS: AtomicBool = AtomicBool::new(false);

/// What a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Steady open loop on `MemLog`.
    KvMem,
    /// The same on `WalLog` with fsync.
    KvWal,
    /// Closed-loop puts on `MemLog`.
    Saturate,
    /// Split → merge under open-loop load, then a re-staff, on `MemLog`.
    Reshard,
}

impl Workload {
    /// Whether `BENCHMARK.json` lists the workload. An untraced run of a
    /// gated workload fails if any op goes unconfirmed: none of the sets
    /// behind its bounds lost one.
    fn gated(self) -> bool {
        matches!(self, Workload::KvMem | Workload::Reshard)
    }
}

/// The command line.
#[derive(Debug, Clone)]
struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        kv.insert(name, value);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?.to_string();
    let workload = match name.as_str() {
        "kv-mem" => Workload::KvMem,
        "kv-wal" => Workload::KvWal,
        "saturate" => Workload::Saturate,
        "reshard" => Workload::Reshard,
        other => {
            return Err(format!(
                "unknown workload {other:?} (kv-mem, kv-wal, saturate, reshard)"
            ))
        }
    };
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        name,
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Fleet-wide counters at a phase boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Runtime wire/scheduling counters.
    pub wire: WireStats,
    /// Sum of `NodeStatus::steps`.
    pub steps: u64,
    /// Sum of `NodeStatus::elections`.
    pub elections: u64,
    /// Sum of `NodeStatus::snapshot_installs`.
    pub installs: u64,
    /// CPU time the runtime's worker threads have used (µs).
    pub worker_cpu_us: u64,
}

fn probe(fleet: &Fleet) -> Probe {
    Probe {
        wire: fleet.runtime().wire_stats(),
        steps: fleet.sum(|s| s.steps.load(Ordering::Acquire)),
        elections: fleet.sum(|s| s.elections.load(Ordering::Acquire)),
        installs: fleet.sum(|s| s.snapshot_installs.load(Ordering::Acquire)),
        worker_cpu_us: worker_cpu_us(),
    }
}

/// CPU time (user + system, µs) used so far by the process's live runtime
/// worker threads (named `recraft-worker-*`), from `/proc/self/task/*/stat`
/// in `USER_HZ` = 100 ticks. Time a thread spends descheduled — waiting
/// for a core, or stolen by the hypervisor — is not in it. 0 where `/proc`
/// is missing.
fn worker_cpu_us() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("stat")).ok())
        .filter_map(|stat| {
            let (open, close) = (stat.find('(')?, stat.rfind(')')?);
            if !stat[open + 1..close].starts_with("recraft-worker") {
                return None;
            }
            // Fields after the name start at `state` (field 3); `utime`
            // and `stime` are fields 14 and 15.
            let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
            let ticks: u64 =
                fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
            Some(ticks * 10_000)
        })
        .sum()
}

/// `StatsReq`/status samples from the traced run's measured phase.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Leader commit − leader applied, sampled every millisecond.
    pub apply_lag: Vec<f64>,
    /// Leader commit − follower applied, from `StatsReq` every 50 ms.
    pub follower_lag: Vec<f64>,
    /// The leader's resident state-machine bytes at the end of the phase.
    pub resident_bytes: u64,
}

/// A measured phase: its place in the op log and its boundary counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseOut {
    /// Ops and clock span.
    pub span: Span,
    /// Counters at the start.
    pub before: Probe,
    /// Counters at the end.
    pub after: Probe,
    /// `Gen::write_ns` length at start and end.
    pub writes: (usize, usize),
}

/// Everything one round observed.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Launch → first leader ready to serve (s).
    pub setup_s: f64,
    /// First op id after the prefill.
    pub measured_from: usize,
    /// The op log.
    pub ops: Vec<Op>,
    /// Client counters.
    pub counters: Counters,
    /// Per-op encode+write time (traced).
    pub write_ns: Vec<u64>,
    /// Per-frame decode time (traced).
    pub decode_ns: Vec<u64>,
    /// Resend times per op (traced).
    pub resend_log: Vec<(u32, u64)>,
    /// Open-loop issue lateness.
    pub late_ns: Vec<u64>,
    /// The steady phase (`kv-*`).
    pub steady: Option<PhaseOut>,
    /// The saturation phase (`saturate`).
    pub sat: Option<PhaseOut>,
    /// The reshard phase (`reshard`).
    pub reshard: Option<PhaseOut>,
    /// The read-back.
    pub readback: Span,
    /// Reconfiguration steps.
    pub steps: Vec<Step>,
    /// Snapshot installs from the start of the reshard phase to the end
    /// of the re-staff.
    pub installs: u64,
    /// Storage spans (traced).
    pub spans: Vec<StoreSpan>,
    /// Measured-phase samples (traced).
    pub samples: Samples,
    /// Runtime worker threads.
    pub workers: usize,
    /// Correctness violations.
    pub violations: Vec<String>,
}

fn phase_steady(secs: f64) -> Phase {
    Phase {
        pace: Pace::Open { rate: STEADY_RATE },
        mix: Mix::Random {
            get_frac: STEADY_GETS,
        },
        by_key: false,
        issue_for: Duration::from_secs_f64(secs),
        drain: DRAIN,
    }
}

fn phase_sat(secs: f64) -> Phase {
    Phase {
        pace: Pace::Closed { window: 64 },
        mix: Mix::Random { get_frac: 0.0 },
        by_key: false,
        issue_for: Duration::from_secs_f64(secs),
        drain: DRAIN,
    }
}

fn phase_reshard() -> Phase {
    Phase {
        pace: Pace::Open { rate: 1000.0 },
        mix: Mix::Random { get_frac: 0.2 },
        by_key: true,
        // Issuing stops when the round's share of `--seconds` has passed and
        // the schedule is done; this is only a backstop.
        issue_for: Duration::from_secs(150),
        drain: DRAIN,
    }
}

/// One op of `kind` on every key in order, closed loop: the prefill
/// (puts) and the final read-back (gets).
fn phase_sweep(kind: Kind) -> Phase {
    Phase {
        pace: Pace::Closed { window: 64 },
        mix: Mix::Sweep(kind),
        by_key: true,
        // A sweep takes about a second; this only bounds a stalled fleet.
        issue_for: Duration::from_secs(20),
        drain: DRAIN,
    }
}

/// Runs one phase of `gen` on a scoped thread while `side` runs on this
/// one (sampling, or driving reconfigurations). `side` gets the stop flag,
/// which ends issuing early when raised, and the flag that says the phase
/// is over.
fn phase<T>(
    gen: &mut Gen<'_>,
    fleet: &Fleet,
    phase: &Phase,
    acks: &AckBoard,
    side: impl FnOnce(&AtomicBool, &AtomicBool) -> T,
) -> (PhaseOut, T) {
    let before = probe(fleet);
    let writes0 = gen.write_ns.len();
    let stop = AtomicBool::new(false);
    let finished = AtomicBool::new(false);
    let (span, out) = thread::scope(|s| {
        let h = s.spawn(|| {
            let span = gen.run(phase, &stop, acks);
            finished.store(true, Ordering::Release);
            span
        });
        let out = side(&stop, &finished);
        (h.join().expect("generator thread panicked"), out)
    });
    let after = probe(fleet);
    let ops = &gen.ops[span.first..span.end_op];
    eprintln!(
        "phase {:?}/{:?}: {} ops, {} confirmed, {} elections, {:.2}s issuing, {:.2}s total",
        phase.pace,
        phase.mix,
        ops.len(),
        ops.iter().filter(|o| o.confirmed()).count(),
        after.elections.saturating_sub(before.elections),
        (span.issued_until.saturating_sub(span.start)) as f64 / 1e9,
        (span.end.saturating_sub(span.start)) as f64 / 1e9,
    );
    let out_phase = PhaseOut {
        span,
        before,
        after,
        writes: (writes0, gen.write_ns.len()),
    };
    (out_phase, out)
}

/// Samples leader apply lag every ms and follower lag every 50 ms until
/// the phase finishes (traced runs only). The sampled cluster is the one
/// [`PINNED_LEADER`] belongs to, which in `reshard` is the boot cluster,
/// then the lower split child, then the merged cluster.
fn sample(fleet: &Fleet, finished: &AtomicBool) -> Samples {
    let mut out = Samples::default();
    let mut admin = AdminClient::new(2);
    let mut last_stats = Instant::now();
    while !finished.load(Ordering::Acquire) {
        let cluster = fleet.status(PINNED_LEADER).map_or(BOOT_CLUSTER, |s| {
            ClusterId(s.cluster.load(Ordering::Acquire))
        });
        if let Some(leader) = fleet.leader_of(cluster).and_then(|l| fleet.status(l)) {
            let commit = leader.commit.load(Ordering::Acquire);
            let applied = leader.applied.load(Ordering::Acquire);
            out.apply_lag.push(commit.saturating_sub(applied) as f64);
        }
        if last_stats.elapsed() >= Duration::from_millis(50) {
            last_stats = Instant::now();
            let stats: Vec<_> = fleet
                .members_of(cluster)
                .into_iter()
                .filter_map(|(id, addr)| admin.fetch_stats(addr, id))
                .collect();
            if let Some(leader) = stats.iter().find(|s| s.is_leader) {
                out.resident_bytes = leader.bytes;
                for f in stats.iter().filter(|s| !s.is_leader) {
                    out.follower_lag
                        .push(leader.commit.saturating_sub(f.applied) as f64);
                }
            }
        }
        thread::sleep(Duration::from_millis(1));
    }
    out
}

/// One run: [`ROUNDS`] rounds for `kv-*`, [`RESHARD_ROUNDS`] for
/// `reshard`, one for `saturate`. Each round boots its own fleet (with its
/// own Raft seeds), so a property fixed at boot — which core each thread
/// lands on, which seats share a worker — varies between rounds and the
/// run reports the median round.
fn run(args: &Args, traced: bool) -> Result<Vec<RunOut>, String> {
    let rounds = match args.workload {
        Workload::KvMem | Workload::KvWal => ROUNDS,
        Workload::Reshard => RESHARD_ROUNDS,
        Workload::Saturate => 1,
    };
    (0..rounds).map(|r| round(args, traced, r)).collect()
}

/// One round: boot, pin the leader, prefill every key, measure, read back,
/// check.
fn round(args: &Args, traced: bool, r: usize) -> Result<RunOut, String> {
    let epoch = Instant::now();
    let sink = traced.then(|| SpanSink::new(epoch));
    let data_dir = match args.workload {
        Workload::KvMem | Workload::Saturate | Workload::Reshard => None,
        Workload::KvWal => Some(PathBuf::from(".bench_data").join(format!(
            "{}-{}-{r}",
            std::process::id(),
            u8::from(traced)
        ))),
    };
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let result = round_in(args, traced, r, epoch, sink, data_dir.clone());
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn round_in(
    args: &Args,
    traced: bool,
    r: usize,
    epoch: Instant,
    sink: Option<std::sync::Arc<SpanSink>>,
    data_dir: Option<PathBuf>,
) -> Result<RunOut, String> {
    let mut out = RunOut::default();
    let seed = args
        .seed
        .wrapping_mul(RESHARD_ROUNDS as u64 + 1)
        .wrapping_add(r as u64);
    let backend = if args.workload == Workload::KvWal {
        Backend::Wal
    } else {
        Backend::Mem
    };
    let t0 = Instant::now();
    let nodes = if args.workload == Workload::Reshard {
        RESHARD_NODES
    } else {
        BOOT_NODES
    };
    let fleet = Fleet::boot(backend, nodes, seed, data_dir, sink.clone());
    if !fleet.wait_ready(Duration::from_secs(20)) {
        return Err(format!(
            "round {r}: no leader ready within 20s\n{}",
            fleet.dump()
        ));
    }
    out.setup_s = t0.elapsed().as_secs_f64();
    if !fleet.pin_leader(PINNED_LEADER, Duration::from_secs(20)) {
        return Err(format!(
            "could not move leadership to node {}\n{}",
            PINNED_LEADER.0,
            fleet.dump()
        ));
    }
    out.workers = fleet.runtime().worker_count();
    let acks = AckBoard::default();
    let mut gen = Gen::new(&fleet, epoch, seed, traced);
    // Every key is written once before anything is measured, so snapshots
    // (whose cost grows with the resident state) cost the same throughout.
    phase(&mut gen, &fleet, &phase_sweep(Kind::Put), &acks, |_, _| ());
    out.measured_from = gen.ops.len();

    let final_cluster = match args.workload {
        Workload::Reshard => {
            let members: BTreeSet<_> = fleet.members_of(BOOT_CLUSTER).into_keys().collect();
            let mut schedule = Schedule::new(&fleet, &acks, epoch, members, r);
            let length = Duration::from_secs_f64(args.seconds / RESHARD_ROUNDS as f64);
            let (reshard, (result, samples)) = phase(
                &mut gen,
                &fleet,
                &phase_reshard(),
                &acks,
                |stop, finished| {
                    thread::scope(|s| {
                        let sampler = traced.then(|| s.spawn(|| sample(&fleet, finished)));
                        let started = Instant::now();
                        let result = schedule.run();
                        if result.is_ok() {
                            // The load runs on for the rest of the round's
                            // share, so every round's phase is as long.
                            thread::sleep(length.saturating_sub(started.elapsed()));
                        }
                        stop.store(true, Ordering::Release);
                        let samples = sampler
                            .map(|h| h.join().expect("sampler thread panicked"))
                            .unwrap_or_default();
                        (result, samples)
                    })
                },
            );
            result.and_then(|()| schedule.restaff()).map_err(|e| {
                format!(
                    "round {r}: {e}; steps so far {:?}\n{}",
                    schedule.steps,
                    fleet.dump()
                )
            })?;
            out.installs = probe(&fleet).installs - reshard.before.installs;
            out.reshard = Some(reshard);
            out.samples = samples;
            out.steps = schedule.steps.clone();
            schedule.cluster()
        }
        Workload::Saturate => {
            let (sat, ()) = phase(&mut gen, &fleet, &phase_sat(args.seconds), &acks, |_, _| ());
            out.sat = Some(sat);
            BOOT_CLUSTER
        }
        Workload::KvMem | Workload::KvWal => {
            let steady = phase_steady(steady_duration(args.seconds));
            let (steady, samples) = phase(&mut gen, &fleet, &steady, &acks, |_, finished| {
                if traced {
                    sample(&fleet, finished)
                } else {
                    Samples::default()
                }
            });
            out.steady = Some(steady);
            out.samples = samples;
            BOOT_CLUSTER
        }
    };

    let (readback, ()) = phase(&mut gen, &fleet, &phase_sweep(Kind::Get), &acks, |_, _| ());
    out.readback = readback.span;

    let lost_fails = args.workload.gated() && !traced;
    out.counters = gen.counters;
    out.write_ns = std::mem::take(&mut gen.write_ns);
    out.decode_ns = std::mem::take(&mut gen.decode_ns);
    out.late_ns = std::mem::take(&mut gen.late_ns);
    out.resend_log = std::mem::take(&mut gen.resend_log);
    out.ops = std::mem::take(&mut gen.ops);
    drop(gen);
    if let Some(sink) = &sink {
        out.spans = sink.snapshot();
    }

    let nodes = fleet.shutdown();
    let survivors: Vec<HarnessNode> = nodes
        .into_iter()
        .filter(|n| n.cluster() == final_cluster)
        .collect();
    out.violations = checks(&out, &survivors, lost_fails);
    Ok(out)
}

/// Every correctness check of a finished round. With `lost_fails`, an op
/// never confirmed is a violation too.
fn checks(out: &RunOut, survivors: &[HarnessNode], lost_fails: bool) -> Vec<String> {
    let mut bad = Vec::new();
    if survivors.is_empty() {
        bad.push("no surviving node in the final cluster".to_string());
    }
    let lost = out.ops[..out.readback.first]
        .iter()
        .filter(|o| !o.confirmed())
        .count();
    if lost_fails && lost > 0 {
        bad.push(format!("{lost} ops never confirmed"));
    }
    let rb = out.readback.first..out.readback.end_op;
    let unconfirmed = out.ops[rb.clone()]
        .iter()
        .filter(|o| !o.confirmed())
        .count();
    if unconfirmed > 0 {
        bad.push(format!("{unconfirmed} read-back gets never answered"));
    }
    if rb.len() != gen::KEYS as usize {
        bad.push(format!(
            "read-back issued {} gets for {} keys",
            rb.len(),
            gen::KEYS
        ));
    }
    if let Some(node) = survivors.iter().max_by_key(|n| n.applied_index().0) {
        for (&session, &(issued, acked)) in &check::put_seqs(&out.ops) {
            if acked == issued {
                // Every put of the session confirmed: the table must record
                // exactly its last one.
                QUIET_PANICS.store(true, Ordering::Relaxed);
                let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    verify_sessions_from(survivors, session, 1, issued);
                }));
                QUIET_PANICS.store(false, Ordering::Relaxed);
                if verdict.is_err() {
                    bad.push(format!(
                        "session {session}: survivors' session table does not record last seq {issued}"
                    ));
                }
            } else {
                // Some puts unconfirmed: the entry lies between the highest
                // confirmed and the highest issued sequence number.
                let recorded = node.sessions().last_seq(SessionId(session));
                if let Err(e) = check::check_session(session, (issued, acked), recorded) {
                    bad.push(e);
                }
            }
        }
    }
    for r in [
        check::check_accounting(&out.ops),
        check::check_reads(&out.ops),
        check::check_readback(&out.ops, rb),
    ] {
        if let Err(e) = r {
            bad.push(e);
        }
    }
    bad
}

/// Writes a traced round's spans, one JSON object a line, to
/// `.bench_out/trace-<workload>-r<round>.jsonl` (the latest traced run of a
/// workload replaces the previous one's): client ops keyed
/// `(session, seq)` with due/sent/reply times and, when due inside a
/// reconfiguration window, the admin step as parent; resends as children
/// of their op; admin steps; and every storage span.
fn write_trace(args: &Args, r: usize, out: &RunOut) {
    use std::io::Write as _;
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("trace-{}-r{r}.jsonl", args.name));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            w,
            "{{\"span\":\"run\",\"workload\":\"{}\",\"seed\":{},\"round\":{r}}}",
            args.name, args.seed
        )?;
        for (i, s) in out.steps.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":\"admin\",\"id\":{i},\"kind\":\"{}\",\"cycle\":{},\"sent\":{},\"accepted\":{},\"led\":{},\"done\":{}}}",
                s.kind, s.cycle, s.sent, s.accepted, s.led, s.done
            )?;
        }
        for (id, op) in out.ops.iter().enumerate() {
            let parent = out
                .steps
                .iter()
                .position(|s| op.due >= s.sent && op.due <= s.done);
            let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let done = if op.confirmed() {
                op.done.to_string()
            } else {
                "null".to_string()
            };
            writeln!(
                w,
                "{{\"span\":\"op\",\"id\":{id},\"kind\":\"{:?}\",\"key\":{},\"session\":{},\"seq\":{},\"due\":{},\"sent\":{},\"reply\":{done},\"resends\":{},\"parent_admin\":{parent}}}",
                op.kind, op.key, op.session, op.seq, op.due, op.sent, op.resends
            )?;
        }
        for (op, at) in &out.resend_log {
            writeln!(w, "{{\"span\":\"resend\",\"parent_op\":{op},\"at\":{at}}}")?;
        }
        for s in &out.spans {
            writeln!(
                w,
                "{{\"span\":\"store\",\"node\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"entries\":{}}}",
                s.node, s.name, s.start, s.end, s.entries
            )?;
        }
        w.flush()
    };
    match write() {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `verify_sessions_from` reports a mismatch by panicking; the check
    // catches that and reports a violation, so its message stays quiet.
    // A panic anywhere else — a runtime worker included — ends the run at
    // once with a failure, instead of leaving the load waiting on a dead
    // fleet.
    std::panic::set_hook(Box::new(|info| {
        if !QUIET_PANICS.load(Ordering::Relaxed) {
            eprintln!("perfbench: {info}");
            std::process::exit(101);
        }
    }));
    let result = if args.trace {
        run(&args, false).and_then(|plain| {
            let traced = run(&args, true)?;
            for (r, out) in traced.iter().enumerate() {
                write_trace(&args, r, out);
            }
            report::per_layer(&plain, &traced)
        })
    } else {
        run(&args, false).and_then(|out| report::end_to_end(&out))
    };
    match result {
        Ok(rep) => {
            eprint!("{}", rep.human());
            println!("{}", rep.json());
            if rep.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
