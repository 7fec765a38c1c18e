//! `ledger` — the zen repo's one benchmark.
//!
//! Four workloads, three end-to-end metrics each, and a separate traced
//! run for the per-layer numbers. `README.md` beside this file says why
//! each workload exists, what every metric means, which layer should
//! move which number, and which public items the benchmark calls.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ledger run   [--seed <n>] [--seconds <s>] [--trace <0|1>]   # every workload
//! ledger check [--seed <n>] [--seconds <s>]                   # suite twice, must agree
//! ledger spec                                                 # print BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload per
//! process, so `peak_rss_mb` and the allocator start clean. Its last
//! line of output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; with `--trace 0` the metrics are the
//! end-to-end ones, with `--trace 1` the per-layer ones. The benchmark
//! drives the stack through public API only and claims no gain.

mod alloc;
mod fabric;
mod kernels;
mod span;
mod spec;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant as WallInstant;

use zen_telemetry::json::{push_str_literal, Line};

use crate::kernels::KERNEL_METRICS;
use crate::span::{Callback, Layer, Trace};
use crate::stats::{median, within_bound, Better};
use crate::workloads::{Rep, Size, Workload, EXACT_METRICS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// An end-to-end metric: what a user of `zen` waits for or pays.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// Share of the earlier median by which it may worsen.
    bound: f64,
    /// Absolute worsening always tolerated (set-up times of a few
    /// milliseconds move by more than any share without meaning it).
    abs_floor: f64,
    source: Source,
}

/// Where an end-to-end metric's value comes from.
enum Source {
    /// Median over the repetitions of work ÷ wall.
    Rate,
    /// Median over every set-up made.
    Setup,
    /// `VmHWM` at exit.
    PeakRss,
}

/// Every workload reports all three; `BENCHMARK.json` repeats them.
/// They are host time and memory. What the modelled network's tenants
/// see (simulated latency, control bytes per setup, failover hole) is in
/// the exact per-layer metrics: on three of the four workloads those
/// read the same on every seed, which the benchmark contract does not
/// accept of an end-to-end metric (see README, "End-to-end metrics").
const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        // 10 % was the aim. The reference box shares its host: over ten
        // seeds the quartiles of this metric were 2–6 % apart in a calm
        // hour and 11–16 % in a busy one (see README, "Steadiness"), and
        // a bound narrower than that rejects an unchanged program.
        bound: 0.25,
        abs_floor: 0.0,
        source: Source::Rate,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.05,
        source: Source::Setup,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        source: Source::PeakRss,
    },
];

/// Per-layer metrics that come from the traced run: its spans, and the
/// extra repetitions that only the traced run makes.
const SPAN_METRICS: [(&str, &str, Better); 23] = [
    ("sim.world.self_ns_per_event", "ns", Better::Lower),
    ("sim.world.self_wall_share", "ratio", Better::Lower),
    ("sim.host.span_ns_per_event", "ns", Better::Lower),
    ("sim.host.allocs_per_event", "count", Better::Lower),
    ("sim.host.wall_share", "ratio", Better::Lower),
    ("core.agent.span_ns_per_frame", "ns", Better::Lower),
    ("core.agent.span_ns_per_control_msg", "ns", Better::Lower),
    ("core.agent.allocs_per_frame", "count", Better::Lower),
    ("core.agent.wall_share", "ratio", Better::Lower),
    ("core.controller.span_ns_per_packet_in", "ns", Better::Lower),
    (
        "core.controller.allocs_per_packet_in",
        "count",
        Better::Lower,
    ),
    ("core.controller.timer_span_share", "ratio", Better::Lower),
    ("core.controller.wall_share", "ratio", Better::Lower),
    ("core.cbench.span_ns_per_event", "ns", Better::Lower),
    ("core.cbench.wall_share", "ratio", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.allocs_per_op", "count", Better::Lower),
    ("trace.bytes_alloc_per_op", "bytes", Better::Lower),
    (
        "telemetry.recorder.enabled_overhead_pct",
        "%",
        Better::Lower,
    ),
    ("sim.shard.frames_per_s_1", "1/s", Better::Higher),
    ("sim.shard.frames_per_s_2", "1/s", Better::Higher),
    ("sim.shard.speedup_2", "ratio", Better::Higher),
    ("sim.shard.vs_world_ratio", "ratio", Better::Higher),
];

/// Fewest repetitions behind a reported number.
const MIN_REPS: usize = 3;
/// Extra set-ups timed after each repetition, and how long to spend on
/// them: several set-ups take milliseconds, and a handful of millisecond
/// timings is not steady. Spread over the run like the repetitions, so
/// a busy second of the box's other tenants falls on a few of them.
const SETUPS_PER_REP: usize = 25;
const SETUPS_PER_REP_BUDGET_S: f64 = 0.1;

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What one invocation on one workload produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human- and diff-readable JSON lines printed before the result.
    report: String,
    faults: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Faults of a set of repetitions of one seed: each one's own, plus any
/// simulated statistic that did not repeat exactly.
fn repetition_faults(workload: Workload, reps: &[Rep]) -> Vec<String> {
    let mut faults: Vec<String> = reps.iter().flat_map(|r| r.faults.iter().cloned()).collect();
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.digest != first.digest {
            faults.push(format!(
                "{}: sim_digest of repetition {i} is {:016x}, of repetition 0 {:016x}",
                workload.name(),
                rep.digest,
                first.digest
            ));
        }
        if rep.exact != first.exact {
            faults.push(format!(
                "{}: exact metrics of repetition {i} differ from repetition 0",
                workload.name()
            ));
        }
    }
    faults
}

fn report_exact(workload: Workload, rep: &Rep, report: &mut String) {
    Line::new("sim_digest")
        .str("workload", workload.name())
        .str("digest", &format!("{:016x}", rep.digest))
        .finish(report);
    for (name, unit, _) in EXACT_METRICS {
        Line::new("exact")
            .str("workload", workload.name())
            .str("name", name)
            .f64("value", rep.exact[name])
            .str("unit", unit)
            .finish(report);
    }
}

fn report_metrics(workload: Workload, metrics: &[Metric], report: &mut String) {
    for m in metrics {
        Line::new("metric")
            .str("workload", workload.name())
            .str("name", m.name)
            .f64("value", m.value)
            .str("unit", m.unit)
            .finish(report);
    }
}

/// The untraced run: repetitions of the fixed work until `seconds` have
/// passed (at least [`MIN_REPS`]). The rate is the median over the
/// repetitions of work ÷ wall, the set-up time the median over every
/// set-up made.
fn measure(workload: Workload, seed: u64, seconds: f64, size: Size) -> Outcome {
    let started = WallInstant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let rep = workload.run(seed, size, false);
        setups.push(rep.setup_s);
        reps.push(rep);
        let extra_from = WallInstant::now();
        for _ in 0..SETUPS_PER_REP {
            setups.push(workload.setup_only(seed, size));
            if extra_from.elapsed().as_secs_f64() >= SETUPS_PER_REP_BUDGET_S {
                break;
            }
        }
    }
    let rates: Vec<f64> = reps.iter().map(Rep::work_per_s).collect();

    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            unit: spec.unit,
            value: match spec.source {
                Source::Rate => median(&rates),
                Source::Setup => median(&setups),
                Source::PeakRss => peak_rss_mb(),
            },
        })
        .collect();

    let mut report = String::new();
    for (i, rep) in reps.iter().enumerate() {
        Line::new("rep")
            .str("workload", workload.name())
            .u64("rep", i as u64)
            .f64("setup_s", rep.setup_s)
            .f64("wall_s", rep.wall_s)
            .u64("work", rep.work)
            .str("work_unit", workload.work_unit())
            .f64("work_per_s", rep.work_per_s())
            .u64("events", rep.events)
            .finish(&mut report);
    }
    // Informational: the best repetition shows what the box can do when
    // its other tenants are quiet; the gap to the median is their share.
    Line::new("spread")
        .str("workload", workload.name())
        .u64("reps", reps.len() as u64)
        .f64("work_per_s_min", stats::quantile(&rates, 0.0))
        .f64("work_per_s_max", stats::quantile(&rates, 1.0))
        .u64("setups", setups.len() as u64)
        .f64("setup_s_min", stats::quantile(&setups, 0.0))
        .f64("setup_s_max", stats::quantile(&setups, 1.0))
        .finish(&mut report);
    report_exact(workload, &reps[0], &mut report);
    report_metrics(workload, &metrics, &mut report);
    let faults = repetition_faults(workload, &reps);
    Outcome {
        correct: faults.is_empty(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        report,
        faults,
    }
}

/// Values of the per-layer metrics in [`SPAN_METRICS`], set by name.
struct SpanValues(Vec<f64>);

impl SpanValues {
    fn new() -> SpanValues {
        SpanValues(vec![0.0; SPAN_METRICS.len()])
    }

    fn set(&mut self, name: &str, value: f64) {
        let at = SPAN_METRICS
            .iter()
            .position(|m| m.0 == name)
            .expect("span metric is declared");
        self.0[at] = value;
    }
}

/// The span metrics a traced repetition yields by itself.
fn span_values(rep: &Rep, trace: &Trace, v: &mut SpanValues) {
    let wall_ns = rep.wall_s * 1e9;
    let all = trace.all();
    // The loop is serial and spans never nest: what is outside every
    // span is the simulator's own time (queue, links, dispatch).
    let self_ns = wall_ns - all.ns as f64;
    let host = trace.layer(Layer::Host);
    let agent = trace.layer(Layer::Agent);
    let agent_rx = trace.get(Layer::Agent, Callback::Packet);
    let agent_ctl = trace.get(Layer::Agent, Callback::Control);
    let ctl = trace.layer(Layer::Controller);
    let ctl_rx = trace.get(Layer::Controller, Callback::Control);
    let ctl_timer = trace.get(Layer::Controller, Callback::Timer);
    let cbench = trace.layer(Layer::Cbench);
    let packet_ins = rep.exact["core.controller.packet_ins"];
    let per = |num: u64, den: u64| ratio(num as f64, den as f64);
    v.set(
        "sim.world.self_ns_per_event",
        ratio(self_ns, rep.events as f64),
    );
    v.set("sim.world.self_wall_share", ratio(self_ns, wall_ns));
    v.set("sim.host.span_ns_per_event", per(host.ns, host.calls));
    v.set("sim.host.allocs_per_event", per(host.allocs, host.calls));
    v.set("sim.host.wall_share", ratio(host.ns as f64, wall_ns));
    v.set(
        "core.agent.span_ns_per_frame",
        per(agent_rx.ns, agent_rx.calls),
    );
    v.set(
        "core.agent.span_ns_per_control_msg",
        per(agent_ctl.ns, agent_ctl.calls),
    );
    v.set(
        "core.agent.allocs_per_frame",
        per(agent_rx.allocs, agent_rx.calls),
    );
    v.set("core.agent.wall_share", ratio(agent.ns as f64, wall_ns));
    v.set(
        "core.controller.span_ns_per_packet_in",
        ratio(ctl_rx.ns as f64, packet_ins),
    );
    v.set(
        "core.controller.allocs_per_packet_in",
        ratio(ctl_rx.allocs as f64, packet_ins),
    );
    v.set(
        "core.controller.timer_span_share",
        per(ctl_timer.ns, ctl.ns),
    );
    v.set("core.controller.wall_share", ratio(ctl.ns as f64, wall_ns));
    v.set(
        "core.cbench.span_ns_per_event",
        per(cbench.ns, cbench.calls),
    );
    v.set("core.cbench.wall_share", ratio(cbench.ns as f64, wall_ns));
    v.set("trace.allocs_per_op", per(rep.loop_allocs, rep.work));
    v.set(
        "trace.bytes_alloc_per_op",
        per(rep.loop_alloc_bytes, rep.work),
    );
}

/// "Explained" lines: kernel × count beside the span it should add up
/// to, with the remainder. Reported, not gated.
fn report_explained(
    workload: Workload,
    rep: &Rep,
    trace: &Trace,
    kernels: &[f64],
    out: &mut String,
) {
    let kernel = |name: &str| {
        KERNEL_METRICS
            .iter()
            .position(|m| m.0 == name)
            .map_or(0.0, |at| kernels[at])
    };
    let mut line = |span: &str, span_ns: u64, explained_ns: f64| {
        if span_ns == 0 {
            return;
        }
        Line::new("explained")
            .str("workload", workload.name())
            .str("span", span)
            .u64("span_ns", span_ns)
            .f64("explained_ns", explained_ns)
            .f64("unexplained_ns", span_ns as f64 - explained_ns)
            .finish(out);
    };
    let [micro, mega, miss] = rep.probes;
    line(
        "agent.on_packet = probes x dataplane.datapath.{micro_hit,mega_hit,miss}_ns",
        trace.get(Layer::Agent, Callback::Packet).ns,
        micro as f64 * kernel("dataplane.datapath.micro_hit_ns")
            + mega as f64 * kernel("dataplane.datapath.mega_hit_ns")
            + miss as f64 * kernel("dataplane.datapath.miss_ns"),
    );
    let packet_ins = rep.exact["core.controller.packet_ins"];
    let flow_mods = packet_ins * rep.exact["core.controller.flow_mods_per_op"];
    line(
        "controller.on_control = packet_ins x proto.codec.{decode_view_packet_in,encode_packet_out}_ns + flow_mods x encode_flow_mod_ns",
        trace.get(Layer::Controller, Callback::Control).ns,
        packet_ins
            * (kernel("proto.codec.decode_view_packet_in_ns")
                + kernel("proto.codec.encode_packet_out_ns"))
            + flow_mods * kernel("proto.codec.encode_flow_mod_ns"),
    );
}

/// Where the trace file goes: `<target>/ledger/`, beside the profile
/// directory the executable was built into.
fn trace_path(workload: Workload) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?.join("ledger");
    Some(dir.join(format!("trace-{}.jsonl", workload.name())))
}

/// The traced run: one untraced and one traced repetition (their
/// difference is the tracing overhead), the runs the remaining
/// per-layer metrics need, and every kernel.
fn trace(workload: Workload, seed: u64, size: Size) -> Result<Outcome, String> {
    let plain = workload.run(seed, size, false);
    let mut faults = plain.faults.clone();
    let mut report = String::new();
    let mut spans = SpanValues::new();

    let traced = workload.run(seed, size, true);
    faults.extend(traced.faults.iter().cloned());
    if traced.digest != plain.digest {
        faults.push(format!(
            "{}: traced run's sim_digest {:016x} differs from the untraced {:016x}",
            workload.name(),
            traced.digest,
            plain.digest
        ));
    }
    let trace = traced
        .trace
        .as_ref()
        .ok_or("traced repetition returned no trace")?;
    span_values(&traced, trace, &mut spans);
    spans.set(
        "trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );

    let mut file = String::new();
    trace.write_jsonl(workload.name(), &mut file);
    let path = trace_path(workload).ok_or("cannot place the trace file")?;
    let dir = path.parent().ok_or("trace path has no directory")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    Line::new("trace_file")
        .str("workload", workload.name())
        .str("path", &path.display().to_string())
        .u64("sampled_spans", trace.samples.len() as u64)
        .finish(&mut report);

    if let Some(recorded) = workload.run_recorded(seed, size) {
        spans.set(
            "telemetry.recorder.enabled_overhead_pct",
            (recorded.wall_s / plain.wall_s - 1.0) * 100.0,
        );
    }
    if workload.has_shard_twin() {
        let pair = workloads::shard_pair(seed, size);
        faults.extend(pair.faults);
        let [one, two] = pair.frames_per_s.each_ref().map(|runs| median(runs));
        spans.set("sim.shard.frames_per_s_1", one);
        spans.set("sim.shard.frames_per_s_2", two);
        spans.set("sim.shard.speedup_2", ratio(two, one));
        spans.set("sim.shard.vs_world_ratio", ratio(one, plain.work_per_s()));
        for (shards, runs) in (1u64..).zip(&pair.frames_per_s) {
            Line::new("shard_runs")
                .u64("shards", shards)
                .f64("frames_per_s_min", stats::quantile(runs, 0.0))
                .f64("frames_per_s_median", median(runs))
                .f64("frames_per_s_max", stats::quantile(runs, 1.0))
                .finish(&mut report);
        }
    }
    let kernels_from = WallInstant::now();
    let kernel_values = kernels::run_all();
    Line::new("kernels")
        .u64("kernels", KERNEL_METRICS.len() as u64)
        .u64("batches", kernels::BATCHES as u64)
        .f64("min_batch_ms", kernels::MIN_BATCH.as_secs_f64() * 1e3)
        .f64("wall_s", kernels_from.elapsed().as_secs_f64())
        .finish(&mut report);
    report_explained(workload, &traced, trace, &kernel_values, &mut report);

    let mut metrics: Vec<Metric> = Vec::new();
    for ((name, unit, _), value) in SPAN_METRICS.iter().zip(spans.0) {
        metrics.push(Metric { name, unit, value });
    }
    for (name, unit, _) in EXACT_METRICS {
        metrics.push(Metric {
            name,
            unit,
            value: plain.exact[name],
        });
    }
    for ((name, unit, _), value) in KERNEL_METRICS.iter().zip(kernel_values) {
        metrics.push(Metric { name, unit, value });
    }
    Line::new("sim_digest")
        .str("workload", workload.name())
        .str("digest", &format!("{:016x}", plain.digest))
        .finish(&mut report);
    report_metrics(workload, &metrics, &mut report);
    Ok(Outcome {
        correct: faults.is_empty(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        report,
        faults,
    })
}

/// The contract's result line.
fn result_line(o: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.correct && o.metrics.iter().all(|m| m.value.is_finite()),
        o.attempted.max(1),
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_literal(&mut out, m.name);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, ":{{\"value\":{value},\"unit\":");
        push_str_literal(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// A result line read back.
#[derive(Debug, PartialEq)]
struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Parse a line [`result_line`] wrote (the suite reads its children's).
fn parse_result_line(line: &str) -> Option<Parsed> {
    let number_after = |key: &str| -> Option<&str> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
    };
    let correct = number_after("\"correct\":")? == "true";
    let attempted = number_after("\"attempted\":")?.parse().ok()?;
    let failed = number_after("\"failed\":")?.parse().ok()?;
    let mut metrics = Vec::new();
    let marker = "\":{\"value\":";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name_from = rest[..at].rfind('"')? + 1;
        let name = rest[name_from..at].to_string();
        let tail = &rest[at + marker.len()..];
        let value = tail[..tail.find(',')?].parse().ok()?;
        metrics.push((name, value));
        rest = tail;
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

// ---------------------------------------------------------------- the suite

/// One child process's output: its result, and the lines that must
/// repeat exactly for a fixed seed.
struct ChildRun {
    result: Parsed,
    exact_lines: Vec<String>,
}

fn spawn(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse_result_line(last)
        .ok_or_else(|| format!("{}: unreadable result line", workload.name()))?;
    let exact_lines = stdout
        .lines()
        .filter(|l| {
            l.starts_with("{\"type\":\"exact\"") || l.starts_with("{\"type\":\"sim_digest\"")
        })
        .map(str::to_string)
        .collect();
    Ok(ChildRun {
        result,
        exact_lines,
    })
}

/// Run every workload, one child process each.
fn suite(seed: u64, seconds: f64, trace: bool) -> Result<Vec<(Workload, ChildRun)>, String> {
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        runs.push((workload, spawn(workload, seed, seconds, false)?));
        if trace {
            spawn(workload, seed, seconds, true)?;
        }
    }
    Ok(runs)
}

fn summary(seed: u64, correct: bool, agree: Option<bool>) -> String {
    let mut out = String::new();
    let mut line = Line::new("summary")
        .u64("seed", seed)
        .u64("workloads", Workload::ALL.len() as u64)
        .bool("correct", correct);
    if let Some(agree) = agree {
        line = line.bool("sets_agree", agree);
    }
    // The benchmark defines the measurement; it claims no gain.
    line.f64("claim", f64::NAN).finish(&mut out);
    out
}

/// `ledger check`: the suite twice; every end-to-end metric of the
/// second set within its bound of the first, every exact line equal.
fn check(seed: u64, seconds: f64) -> Result<bool, String> {
    let first = suite(seed, seconds, false)?;
    let second = suite(seed, seconds, false)?;
    let mut agree = true;
    let mut correct = true;
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        correct &= a.result.correct && b.result.correct;
        if a.exact_lines != b.exact_lines {
            agree = false;
            eprintln!(
                "check: {}: sim_digest or exact metrics differ between the sets",
                workload.name()
            );
        }
        for spec in &END_TO_END {
            let value = |run: &ChildRun| {
                run.result
                    .metrics
                    .iter()
                    .find(|(n, _)| n == spec.name)
                    .map(|&(_, v)| v)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                return Err(format!("{}: {} missing", workload.name(), spec.name));
            };
            let ok = within_bound(x, y, spec.better, spec.bound, spec.abs_floor);
            agree &= ok;
            let mut out = String::new();
            Line::new("check")
                .str("workload", workload.name())
                .str("name", spec.name)
                .f64("first", x)
                .f64("second", y)
                .f64("worsening", stats::worsening(x, y, spec.better))
                .f64("bound", spec.bound)
                .bool("within", ok)
                .finish(&mut out);
            print!("{out}");
        }
    }
    print!("{}", summary(seed, correct, Some(agree)));
    Ok(agree && correct)
}

// ---------------------------------------------------------------- command line

#[derive(Debug, PartialEq)]
enum Mode {
    One { workload: Workload, trace: bool },
    Run { trace: bool },
    Check,
    Spec,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut rest = args;
    let sub = match rest.first().map(String::as_str) {
        Some(s @ ("run" | "check" | "spec")) => {
            rest = &rest[1..];
            Some(s)
        }
        _ => None,
    };
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mode = match (sub, workload) {
        (Some("run"), None) => Mode::Run { trace },
        (Some("check"), None) => Mode::Check,
        (Some("spec"), None) => Mode::Spec,
        (None, Some(workload)) => Mode::One { workload, trace },
        (None, None) => {
            return Err("give --workload <name>, or `run`, `check` or `spec`".to_string())
        }
        (Some(_), Some(_)) => return Err("--workload does not go with a subcommand".to_string()),
        (Some(other), None) => return Err(format!("unknown subcommand {other}")),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!(
                "usage: ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let done = match args.mode {
        Mode::One { workload, trace } => {
            let outcome = if trace {
                self::trace(workload, args.seed, Size::Full)
            } else {
                Ok(measure(workload, args.seed, args.seconds, Size::Full))
            };
            outcome.map(|o| {
                for fault in &o.faults {
                    eprintln!("ledger: FAULT: {fault}");
                }
                print!("{}", o.report);
                println!("{}", result_line(&o));
                o.correct
            })
        }
        Mode::Run { trace } => suite(args.seed, args.seconds, trace).map(|runs| {
            let correct = runs.iter().all(|(_, r)| r.result.correct);
            print!("{}", summary(args.seed, correct, None));
            correct
        }),
        Mode::Check => check(args.seed, args.seconds),
        Mode::Spec => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "work_per_s",
                    unit: "1/s",
                    value: 1_503_221.25,
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                },
            ],
            report: String::new(),
            faults: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_the_contract_shape_and_reads_back() {
        let line = result_line(&outcome());
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"work_per_s\":{\"value\":1503221.25,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        assert_eq!(
            parse_result_line(&line),
            Some(Parsed {
                correct: true,
                attempted: 1000,
                failed: 0,
                metrics: vec![
                    ("work_per_s".to_string(), 1_503_221.25),
                    ("setup_s".to_string(), 0.8127)
                ],
            })
        );
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect_not_the_json_invalid() {
        let mut o = outcome();
        o.metrics[0].value = f64::NAN;
        let line = result_line(&o);
        assert!(line.starts_with("{\"correct\":false,"));
        assert!(line.contains("\"work_per_s\":{\"value\":0,"));
    }

    #[test]
    fn metric_lines_go_through_the_pinned_emitter_and_the_summary_claims_nothing() {
        let mut report = String::new();
        report_metrics(Workload::CbenchClosed, &outcome().metrics[..1], &mut report);
        assert_eq!(
            report,
            "{\"type\":\"metric\",\"workload\":\"cbench_closed\",\"name\":\"work_per_s\",\
             \"value\":1503221.25,\"unit\":\"1/s\"}\n"
        );
        assert!(summary(7, true, None).ends_with("\"claim\":null}\n"));
        assert!(summary(7, true, Some(false)).contains("\"sets_agree\":false"));
    }

    #[test]
    fn command_lines() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>());
        assert_eq!(
            parse("--workload cbench_closed --seed 3 --seconds 10 --trace 1"),
            Ok(Args {
                mode: Mode::One {
                    workload: Workload::CbenchClosed,
                    trace: true
                },
                seed: 3,
                seconds: 10.0
            })
        );
        assert_eq!(
            parse("run --trace 1 --seed 2").map(|a| a.mode),
            Ok(Mode::Run { trace: true })
        );
        assert_eq!(parse("check").map(|a| a.mode), Ok(Mode::Check));
        assert_eq!(parse("spec").map(|a| a.mode), Ok(Mode::Spec));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload cbench_closed --trace 2").is_err());
        assert!(parse("run --trace").is_err());
        assert!(parse("--workload cbench_closed --seconds 0").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(SPAN_METRICS.iter().map(|m| m.0));
        names.extend(EXACT_METRICS.iter().map(|m| m.0));
        names.extend(KERNEL_METRICS.iter().map(|m| m.0));
        assert!(
            names.len() - END_TO_END.len() <= 128,
            "too many per-layer metrics"
        );
        names.extend(Workload::ALL.map(Workload::name));
        let total = names.len();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    /// Every workload at about a hundredth of its size: only the
    /// correctness checks are asserted, so API drift that breaks the
    /// benchmark fails `cargo test --workspace`.
    #[test]
    fn smoke() {
        for workload in Workload::ALL {
            let reps: Vec<Rep> = (0..2)
                .map(|_| workload.run(2, Size::Smoke, false))
                .collect();
            let faults = repetition_faults(workload, &reps);
            assert!(faults.is_empty(), "{faults:?}");
            assert!(
                reps[0].work > 0 && reps[0].attempted > 0,
                "{}",
                workload.name()
            );
            assert_eq!(reps[0].failed, 0, "{}", workload.name());
        }
    }

    #[test]
    fn smoke_shard_pair() {
        let pair = workloads::shard_pair(2, Size::Smoke);
        assert!(pair.faults.is_empty(), "{:?}", pair.faults);
        assert!(pair.frames_per_s.iter().flatten().all(|&r| r > 0.0));
    }

    /// The traced world is the same simulation as the untraced one, and
    /// its spans cover every layer on the workload's path.
    #[test]
    fn smoke_traced() {
        let plain = Workload::ReactiveChurn.run(2, Size::Smoke, false);
        let traced = Workload::ReactiveChurn.run(2, Size::Smoke, true);
        assert_eq!(plain.digest, traced.digest);
        let trace = traced.trace.as_ref().expect("trace recorded");
        for layer in [Layer::Host, Layer::Agent, Layer::Controller] {
            assert!(trace.layer(layer).calls > 0, "{}", layer.name());
        }
        assert_eq!(trace.layer(Layer::Cbench).calls, 0);
        let mut values = SpanValues::new();
        span_values(&traced, trace, &mut values);
        assert!(values.0.iter().all(|v| v.is_finite()));
        let mut explained = String::new();
        let kernels = vec![1.0; KERNEL_METRICS.len()];
        report_explained(
            Workload::ReactiveChurn,
            &traced,
            trace,
            &kernels,
            &mut explained,
        );
        assert_eq!(explained.lines().count(), 2, "{explained}");
        let mut file = String::new();
        trace.write_jsonl("reactive_churn", &mut file);
        assert!(file.starts_with("{\"type\":\"span_total\","));
    }
}
