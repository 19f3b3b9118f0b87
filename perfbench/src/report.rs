//! Turning a run's observations into the named metrics the benchmark
//! prints, and printing them.

use crate::gen::{Kind, Op, NEVER};
use crate::reshard::Step;
use crate::stats::{median, median_of, sort, tail};
use crate::trace::tail_overlap;
use crate::{PhaseOut, RunOut};
use std::fmt::Write as _;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and quantile actually used, for the stderr summary.
    pub note: String,
}

/// A run's result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops attempted in the measured phases.
    pub attempted: u64,
    /// Of those, ops never confirmed.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Violations, for stderr.
    pub violations: Vec<String>,
}

impl Report {
    fn new(out: &RunOut) -> Report {
        let measured = &out.ops[out.measured_from..out.readback.first];
        Report {
            correct: out.violations.is_empty(),
            attempted: measured.len() as u64,
            failed: measured.iter().filter(|o| !o.confirmed()).count() as u64,
            metrics: Vec::new(),
            violations: out.violations.clone(),
        }
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { -1.0 },
            unit,
            note: note.into(),
        });
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// A readable summary for stderr.
    #[must_use]
    pub fn human(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            let _ = writeln!(s, "VIOLATION: {v}");
        }
        let _ = writeln!(
            s,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<34} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        s
    }
}

/// Latency (µs) of `kind` ops in `ops`; an op never confirmed counts as
/// having waited until `end`, so it misses any latency limit.
fn latencies_us<'a>(ops: impl Iterator<Item = &'a Op>, kind: Kind, end: u64) -> Vec<f64> {
    let mut v: Vec<f64> = ops
        .filter(|o| o.kind == kind)
        .map(|o| o.latency().unwrap_or_else(|| end.saturating_sub(o.due)) as f64 / 1e3)
        .collect();
    sort(&mut v);
    v
}

fn phase_ops<'a>(out: &'a RunOut, p: &PhaseOut) -> &'a [Op] {
    &out.ops[p.span.first..p.span.end_op]
}

/// The latency limit of the gated `put_over_10ms_frac`, in µs: far above
/// an ordinary op (run p50s of 0.13–0.7 ms, busy host included) and below a
/// stall (a snapshot build, an election, a split or merge window: tens to
/// hundreds of ms). An op never confirmed is over it.
const STALL_LIMIT_US: f64 = 10_000.0;

/// The longest stretch inside `[ws, we]` during which some op was due and
/// outstanding but none completed. `ops` are `(due, done)` pairs in ns;
/// `done` is [`NEVER`] for an op never confirmed.
#[must_use]
pub fn unavailability(ops: &[(u64, u64)], ws: u64, we: u64) -> u64 {
    let mut completions: Vec<u64> = ops
        .iter()
        .map(|o| o.1)
        .filter(|d| *d >= ws && *d <= we)
        .collect();
    completions.push(ws);
    completions.push(we);
    completions.sort_unstable();
    let mut by_due: Vec<(u64, u64)> = ops
        .iter()
        .copied()
        .filter(|o| o.0 <= we && o.1 > ws)
        .collect();
    by_due.sort_unstable();
    let mut longest = 0;
    for w in completions.windows(2) {
        let (a, b) = (w[0], w[1]);
        // The earliest op due before `b` that was still outstanding after
        // `a`: from then until `b`, ops waited and none completed.
        if let Some(&(due, _)) = by_due.iter().take_while(|o| o.0 < b).find(|o| o.1 > a) {
            longest = longest.max(b - due.max(a));
        }
    }
    longest
}

fn steps_median_ms(
    steps: &[Step],
    kind: &str,
    f: impl Fn(&Step) -> u64,
) -> Result<(f64, usize), String> {
    let v: Vec<f64> = steps
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| f(s) as f64 / 1e6)
        .collect();
    let n = v.len();
    median_of(v)
        .map(|m| (m, n))
        .ok_or_else(|| format!("no {kind} step completed"))
}

/// Folds per-round reports into one: each metric is the median over the
/// rounds; op counts add up; the run is correct only if every round was.
fn merge(rounds: Vec<Report>) -> Report {
    let mut merged = Report {
        correct: rounds.iter().all(|r| r.correct),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics: Vec::new(),
        violations: rounds
            .iter()
            .flat_map(|r| r.violations.iter().cloned())
            .collect(),
    };
    let Some(first) = rounds.first() else {
        return merged;
    };
    for m in &first.metrics {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.metrics.iter().find(|x| x.name == m.name).map(|x| x.value))
            .collect();
        let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        let note = format!("median of rounds [{}]; {}", listed.join(" "), m.note);
        merged.push(&m.name, median_of(values).unwrap_or(m.value), m.unit, note);
    }
    merged
}

/// The end-to-end metrics (`--trace 0`). `put_over_10ms_frac` and the
/// tail percentiles pool the measured-phase ops of every round; `setup_s`
/// and the reconfiguration times are the median round, `put_p50_us` the
/// fastest.
///
/// # Errors
/// When the run produced too few samples to report a metric.
pub fn end_to_end(rounds: &[RunOut]) -> Result<Report, String> {
    let mut rep = merge(
        rounds
            .iter()
            .map(round_end_to_end)
            .collect::<Result<_, _>>()?,
    );
    let measured: Vec<(&RunOut, &PhaseOut)> = rounds
        .iter()
        .filter_map(|r| r.steady.as_ref().or(r.reshard.as_ref()).map(|p| (r, p)))
        .collect();
    if !measured.is_empty() {
        let pooled = |kind| {
            let mut v: Vec<f64> = measured
                .iter()
                .flat_map(|(r, p)| latencies_us(phase_ops(r, p).iter(), kind, p.span.end))
                .collect();
            sort(&mut v);
            v
        };
        let (puts, gets) = (pooled(Kind::Put), pooled(Kind::Get));
        let note = format!("{} rounds pooled", measured.len());
        // The fastest round, not the pooled ops: the p50 is the cost of an
        // ordinary op, and a round's election or a burst of load from the
        // host's other tenants (each queues every op due behind it) would
        // otherwise move it. The pooled share over the limit below still
        // counts every op such a round delayed.
        let per_round: Vec<f64> = measured.iter().map(|(r, p)| put_p50(r, p)).collect();
        let listed: Vec<String> = per_round.iter().map(|v| format!("{v:.1}")).collect();
        let p50 = per_round
            .iter()
            .copied()
            .reduce(f64::min)
            .ok_or("no put measured")?;
        rep.push(
            "put_p50_us",
            p50,
            "us",
            format!("fastest of rounds [{}]", listed.join(" ")),
        );
        let over = puts.iter().filter(|l| **l > STALL_LIMIT_US).count();
        rep.push(
            "put_over_10ms_frac",
            ratio(over as f64, puts.len() as f64),
            "ratio",
            format!("{over}/{}; {note}", puts.len()),
        );
        // The tails are printed for reading but not gated: on a shared
        // 2-core host the snapshot stalls behind them vary by more than any
        // usable bound (README, "Measured spread"). The traced run reports
        // them as `client.*` metrics.
        for (name, v, at) in [
            ("put_p50_us (pooled)", &puts, 0.5),
            ("put_p99_us", &puts, 0.99),
            ("put_p999_us", &puts, 0.999),
            ("get_p50_us", &gets, 0.5),
            ("get_p99_us", &gets, 0.99),
        ] {
            if let Some(t) = tail(v, at) {
                eprintln!(
                    "  {name:<34} {:>14.4} us     q={:.4} n={} (not gated)",
                    t.value, t.q, t.n
                );
            }
        }
    }
    // The reconfiguration figures, also not gated: `kv-mem` makes no
    // reconfiguration, and every gated metric has to be measured on every
    // gated workload. The traced run reports them as `client.*` metrics.
    let reshard: Vec<Vec<Figure>> = rounds
        .iter()
        .filter_map(|r| r.reshard.as_ref().map(|p| reshard_figures(r, p)))
        .collect();
    if let Some(first) = reshard.first() {
        for (i, f) in first.iter().enumerate() {
            let values: Vec<f64> = reshard.iter().map(|r| r[i].value).collect();
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
            eprintln!(
                "  {:<34} {:>14.4} {:<6} median of rounds [{}] (not gated)",
                f.name,
                median_of(values).unwrap_or(f64::NAN),
                f.unit,
                listed.join(" ")
            );
        }
    }
    Ok(rep)
}

/// One round's metrics other than the pooled latencies.
fn round_end_to_end(out: &RunOut) -> Result<Report, String> {
    let mut rep = Report::new(out);
    rep.push("setup_s", out.setup_s, "s", "");
    if let Some(sat) = &out.sat {
        let confirmed = phase_ops(out, sat)
            .iter()
            .filter(|o| o.kind == Kind::Put && o.done <= sat.span.issued_until)
            .count();
        let window_s = (sat.span.issued_until - sat.span.start) as f64 / 1e9;
        rep.push(
            "sat_ops_per_s",
            confirmed as f64 / window_s,
            "op/s",
            format!("{confirmed} puts in {window_s:.2}s"),
        );
    }
    if let Some(reshard) = &out.reshard {
        let pairs: Vec<(u64, u64)> = phase_ops(out, reshard)
            .iter()
            .map(|o| (o.due, o.done))
            .collect();
        for st in &out.steps {
            eprintln!(
                "step {:<6} round {} accepted +{:.1}ms led +{:.1}ms done +{:.1}ms unavailable {:.1}ms",
                st.kind,
                st.cycle,
                (st.accepted - st.sent) as f64 / 1e6,
                (st.led - st.sent) as f64 / 1e6,
                (st.done - st.sent) as f64 / 1e6,
                unavailability(&pairs, st.sent, st.done) as f64 / 1e6
            );
        }
    }
    Ok(rep)
}

/// A named figure of one round.
#[derive(Debug, Clone, Copy)]
struct Figure {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// One reshard round's reconfiguration figures: each step's time from its
/// command to its end-to-end completion, the longest unavailability inside
/// any step's window, and the p99 of puts due inside the windows.
fn reshard_figures(out: &RunOut, reshard: &PhaseOut) -> Vec<Figure> {
    let step_ms = |kind: &str| {
        out.steps
            .iter()
            .find(|s| s.kind == kind)
            .map_or(f64::NAN, |s| (s.done - s.sent) as f64 / 1e6)
    };
    let ops = phase_ops(out, reshard);
    let pairs: Vec<(u64, u64)> = ops.iter().map(|o| (o.due, o.done)).collect();
    let unavail = out
        .steps
        .iter()
        .map(|s| unavailability(&pairs, s.sent, s.done))
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    let in_window = ops
        .iter()
        .filter(|o| out.steps.iter().any(|s| o.due >= s.sent && o.due <= s.done));
    let reconfig_puts = latencies_us(in_window, Kind::Put, reshard.span.end);
    let fig = |name, value, unit| Figure { name, value, unit };
    vec![
        fig("split_ms", step_ms("split"), "ms"),
        fig("merge_ms", step_ms("merge"), "ms"),
        fig("resize_ms", step_ms("resize"), "ms"),
        fig("reconfig_unavail_ms", unavail, "ms"),
        fig("reconfig_put_p99_us", q(&reconfig_puts, 0.99), "us"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn q(sorted: &[f64], at: f64) -> f64 {
    if at == 0.5 {
        median(sorted).unwrap_or(0.0)
    } else {
        tail(sorted, at).map_or_else(|| sorted.last().copied().unwrap_or(0.0), |t| t.value)
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    sort(&mut v);
    v
}

/// The per-layer metrics (`--trace 1`) of the traced run, plus the tracing
/// overhead against the untraced run of the same seed, folded over rounds
/// by median.
///
/// # Errors
/// When a round produced too few samples to report a metric.
pub fn per_layer(plain: &[RunOut], traced: &[RunOut]) -> Result<Report, String> {
    let mut rep = merge(
        plain
            .iter()
            .zip(traced)
            .map(|(p, t)| per_layer_round(p, t))
            .collect::<Result<_, _>>()?,
    );
    // Failures are counted over the whole run, not as a median round: one
    // round that lost ops must show.
    let failed_frac = ratio(rep.failed as f64, rep.attempted as f64);
    if let Some(m) = rep
        .metrics
        .iter_mut()
        .find(|m| m.name == "client.failed_frac")
    {
        m.value = failed_frac;
    }
    Ok(rep)
}

fn per_layer_round(plain: &RunOut, traced: &RunOut) -> Result<Report, String> {
    let mut rep = Report::new(traced);
    rep.correct &= plain.violations.is_empty();
    rep.violations.extend(plain.violations.iter().cloned());
    let out = traced;

    // client: the generator's own validity checks
    let late = sorted(out.late_ns.iter().map(|n| *n as f64 / 1e6).collect());
    rep.push(
        "client.gen_late_ms",
        q(&late, 0.99),
        "ms",
        format!("p99 of {}", late.len()),
    );
    rep.push("client.resends", out.counters.resends as f64, "count", "");
    rep.push(
        "client.wrong_range",
        out.counters.wrong_range as f64,
        "count",
        "",
    );
    rep.push(
        "client.redirects",
        out.counters.redirects as f64,
        "count",
        "",
    );
    rep.push(
        "client.failed_frac",
        ratio(rep.failed as f64, rep.attempted as f64),
        "ratio",
        "",
    );

    let measured = |r: &'_ RunOut| r.steady.or(r.sat).or(r.reshard);
    let (p, p_plain) = match (measured(out), measured(plain)) {
        (Some(p), Some(q)) => (p, q),
        _ => return Err("a run measured no phase".into()),
    };
    phase_layers(&mut rep, out, &p);
    reshard_layers(&mut rep, plain, out)?;
    // The untraced run's latency tails, which the end-to-end set cannot
    // gate on this host (see README, "Measured spread").
    let tails = |kind, at| {
        q(
            &latencies_us(phase_ops(plain, &p_plain).iter(), kind, p_plain.span.end),
            at,
        )
    };
    rep.push(
        "client.put_p99_us",
        tails(Kind::Put, 0.99),
        "us",
        "untraced",
    );
    rep.push(
        "client.put_p999_us",
        tails(Kind::Put, 0.999),
        "us",
        "untraced",
    );
    rep.push(
        "client.get_p99_us",
        tails(Kind::Get, 0.99),
        "us",
        "untraced",
    );
    rep.push("client.put_p50_us", tails(Kind::Put, 0.5), "us", "untraced");
    rep.push("client.get_p50_us", tails(Kind::Get, 0.5), "us", "untraced");
    let traced_p50 = put_p50(out, &p);
    rep.push("trace.put_p50_us", traced_p50, "us", "");
    rep.push(
        "trace.overhead_put_p50_us",
        traced_p50 - put_p50(plain, &p_plain),
        "us",
        "traced − untraced",
    );
    Ok(rep)
}

fn put_p50(out: &RunOut, p: &PhaseOut) -> f64 {
    q(
        &latencies_us(phase_ops(out, p).iter(), Kind::Put, p.span.end),
        0.5,
    )
}

/// Per-layer metrics of a measured phase.
fn phase_layers(rep: &mut Report, out: &RunOut, steady: &PhaseOut) {
    let p = steady;
    let ops = phase_ops(out, p).iter().filter(|o| o.confirmed()).count() as f64;
    let batches = (p.after.wire.batches - p.before.wire.batches) as f64;
    let envs = (p.after.wire.batched_envelopes - p.before.wire.batched_envelopes) as f64;
    let wakeups = (p.after.wire.wakeups - p.before.wire.wakeups) as f64;
    let steps = p.after.steps.saturating_sub(p.before.steps) as f64;
    rep.push("net.envelopes_per_batch", ratio(envs, batches), "ratio", "");
    rep.push("net.batches_per_op", ratio(batches, ops), "ratio", "");
    rep.push("runtime.wakeups_per_op", ratio(wakeups, ops), "ratio", "");
    rep.push("runtime.steps_per_op", ratio(steps, ops), "ratio", "");
    let cpu = p.after.worker_cpu_us.saturating_sub(p.before.worker_cpu_us) as f64;
    rep.push("runtime.worker_cpu_us_per_op", ratio(cpu, ops), "us", "");
    rep.push(
        "core.elections",
        p.after.elections.saturating_sub(p.before.elections) as f64,
        "count",
        "",
    );
    // The joiners install their snapshots during the re-staff, which runs
    // after the reshard phase; `out.installs` counts to its end.
    let installs = if out.reshard.is_some() {
        out.installs
    } else {
        p.after.installs.saturating_sub(p.before.installs)
    };
    rep.push("core.snapshot_installs", installs as f64, "count", "");
    let writes = sorted(
        out.write_ns[steady.writes.0..steady.writes.1]
            .iter()
            .map(|n| *n as f64 / 1e3)
            .collect(),
    );
    rep.push(
        "net.client_write_us",
        q(&writes, 0.5),
        "us",
        format!("median of {}", writes.len()),
    );
    let decodes = sorted(out.decode_ns.iter().map(|n| *n as f64 / 1e3).collect());
    rep.push(
        "net.client_decode_us",
        q(&decodes, 0.5),
        "us",
        format!("median of {}", decodes.len()),
    );

    // core
    let lag = sorted(out.samples.follower_lag.clone());
    rep.push(
        "core.follower_lag_p99",
        q(&lag, 0.99),
        "entries",
        format!("n={}", lag.len()),
    );

    // storage, over the steady phase
    let spans: Vec<_> = out
        .spans
        .iter()
        .filter(|s| s.start >= steady.span.start && s.start <= steady.span.end)
        .copied()
        .collect();
    let durs = |name: &str, scale: f64| {
        sorted(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur() as f64 / scale)
                .collect(),
        )
    };
    let syncs = durs("sync", 1e3);
    let appends: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("append"))
        .collect();
    let entries: f64 = appends.iter().map(|s| f64::from(s.entries)).sum();
    let append_us = sorted(appends.iter().map(|s| s.dur() as f64 / 1e3).collect());
    let wall = (steady.span.end - steady.span.start) as f64 / 1e3;
    rep.push(
        "storage.sync_us.p50",
        q(&syncs, 0.5),
        "us",
        format!("n={}", syncs.len()),
    );
    rep.push("storage.sync_us.p99", q(&syncs, 0.99), "us", "");
    rep.push(
        "storage.syncs_per_entry",
        ratio(syncs.len() as f64, entries),
        "ratio",
        "",
    );
    rep.push(
        "storage.sync_busy_frac",
        ratio(syncs.iter().sum(), out.workers as f64 * wall),
        "ratio",
        format!("{} workers", out.workers),
    );
    rep.push(
        "storage.append_batch_us.p50",
        q(&append_us, 0.5),
        "us",
        format!("n={}", append_us.len()),
    );
    rep.push(
        "storage.entries_per_append",
        ratio(entries, appends.len() as f64),
        "ratio",
        "",
    );
    let saves = durs("save_snapshot", 1e6);
    let compacts = durs("compact_to", 1e6);
    rep.push(
        "storage.save_snapshot_ms.max",
        saves.last().copied().unwrap_or(0.0),
        "ms",
        "",
    );
    rep.push(
        "storage.compact_ms.max",
        compacts.last().copied().unwrap_or(0.0),
        "ms",
        "",
    );
    rep.push("storage.snapshots", saves.len() as f64, "count", "");
    let ops = phase_ops(out, steady);
    let puts = latencies_us(ops.iter(), Kind::Put, steady.span.end);
    let p99_ns = (q(&puts, 0.99) * 1e3) as u64;
    let put_pairs: Vec<(u64, u64)> = ops
        .iter()
        .filter(|o| o.kind == Kind::Put)
        .map(|o| {
            (
                o.due,
                if o.done == NEVER {
                    steady.span.end
                } else {
                    o.done
                },
            )
        })
        .collect();
    let (hits, tail_n) = tail_overlap(&put_pairs, &spans, p99_ns);
    rep.push(
        "storage.tail_overlap_frac",
        ratio(hits as f64, tail_n as f64),
        "ratio",
        format!("{hits}/{tail_n}"),
    );

    // kv
    rep.push(
        "kv.resident_mb",
        out.samples.resident_bytes as f64 / 1e6,
        "MB",
        "",
    );
    let apply = sorted(out.samples.apply_lag.clone());
    rep.push(
        "kv.apply_lag_p99",
        q(&apply, 0.99),
        "entries",
        format!("n={}", apply.len()),
    );
}

/// Per-layer metrics of the reshard schedule — the traced run's admin and
/// fleet step times, and the untraced run's end-to-end reconfiguration
/// figures — or, on a workload that makes no reconfiguration, the same
/// names at 0.
fn reshard_layers(rep: &mut Report, plain: &RunOut, out: &RunOut) -> Result<(), String> {
    let (Some(_), Some(p_plain)) = (&out.reshard, &plain.reshard) else {
        for name in [
            "admin.accept_ms",
            "fleet.split_elect_ms",
            "fleet.merge_commit_ms",
            "fleet.resize_catchup_ms",
            "client.split_ms",
            "client.merge_ms",
            "client.resize_ms",
            "client.reconfig_unavail_ms",
        ] {
            rep.push(name, 0.0, "ms", "no reconfiguration on this workload");
        }
        rep.push(
            "client.reconfig_put_p99_us",
            0.0,
            "us",
            "no reconfiguration on this workload",
        );
        return Ok(());
    };
    let v: Vec<f64> = out
        .steps
        .iter()
        .map(|s| (s.accepted - s.sent) as f64 / 1e6)
        .collect();
    let n = v.len();
    rep.push(
        "admin.accept_ms",
        median_of(v).unwrap_or(0.0),
        "ms",
        format!("median of {n} steps"),
    );
    let (split_elect, _) = steps_median_ms(&out.steps, "split", |s| s.led - s.accepted)?;
    let (merge_commit, _) = steps_median_ms(&out.steps, "merge", |s| s.led - s.accepted)?;
    let (catchup, _) = steps_median_ms(&out.steps, "resize", |s| s.done - s.accepted)?;
    rep.push("fleet.split_elect_ms", split_elect, "ms", "");
    rep.push("fleet.merge_commit_ms", merge_commit, "ms", "");
    rep.push("fleet.resize_catchup_ms", catchup, "ms", "");
    for f in reshard_figures(plain, p_plain) {
        rep.push(&format!("client.{}", f.name), f.value, f.unit, "untraced");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailability_finds_the_longest_wait_with_ops_due() {
        // Ops due every 10, each done 2 later, except a stall: ops due at
        // 30 and 40 both complete at 95.
        let ops = [(0, 2), (10, 12), (20, 22), (30, 95), (40, 95), (100, 102)];
        // From 30 (first op due after the completion at 22) to 95.
        assert_eq!(unavailability(&ops, 0, 110), 65);
        // Clipped to the window.
        assert_eq!(unavailability(&ops, 50, 110), 45);
        // No op due, no unavailability.
        assert_eq!(unavailability(&[], 0, 100), 0);
        // An op never confirmed waits until the window's end.
        assert_eq!(unavailability(&[(10, NEVER)], 0, 100), 90);
    }
}
