//! `perfbench` — the layered end-to-end benchmark of ridfa.
//!
//! ```text
//! perfbench --workload <bulk|stream|serve_small|serve_large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets the system up several times (reporting the
//! median set-up time), drives the workload for `--seconds` in one-second
//! slices, checks every verdict against the serial oracle and prints the
//! end-to-end metrics of the slices the hypervisor left quiet.
//! With `--trace 1` it instead replays the workload's inputs through each
//! layer with spans around every call, drives the workload untraced and
//! traced, and prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object; the exit code is 0 only when every
//! output was correct.

mod drive;
mod host;
mod inputs;
mod replay;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use ridfa::automata::nfa::Nfa;
use ridfa::core::csdpa::{EnginePlan, PatternRegistry, RegistryConfig};
use ridfa::core::ridfa::RiDfa;

use drive::{LoopbackServer, Run, Window};
use inputs::{Item, Workload, PATTERNS};
use replay::Tables;
use trace::{mib, LayerStat, Trace};

const USAGE: &str = "usage: perfbench --workload <bulk|stream|serve_small|serve_large> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per untraced run; the median is reported as `setup_s`.
const SETUPS: usize = 7;

/// Length of a slice of the measured phase: the span over which the
/// hypervisor's stolen time is read.
const SLICE_SECONDS: f64 = 1.0;

/// A slice in which the hypervisor stole at most this share of the host's
/// CPU time is quiet.
const QUIET_STEAL: f64 = 0.01;

/// Whole passes over the inputs a closed loop's measured phase must make.
const MIN_PASSES: usize = 3;

/// The fixed request rate of `serve_small`'s open loop.
const SERVE_SMALL_RATE: f64 = 1000.0;

/// Shares of `--seconds` in a traced run: the layer replay, the untraced
/// and traced end-to-end phases together, and the serve stage of the
/// in-process workloads.
const REPLAY_SHARE: f64 = 0.4;
const E2E_SHARE: f64 = 0.4;
const SERVE_SHARE: f64 = 0.15;

/// Untraced and traced end-to-end phases alternate this many times.
const E2E_ROUNDS: usize = 4;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_mib_s",
    "latency_p50_us",
    "cpu_ms_per_mib",
    "peak_rss_mib",
];

/// The per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [&str; 24] = [
    "alphabet.classify_mib_s",
    "kernel.interior_mib_s",
    "kernel.first_mib_s",
    "reach.serial_mib_s",
    "reach.join_us",
    "reach.transitions_per_byte",
    "reach.speculative_starts",
    "session.mib_s",
    "session.speedup",
    "session.dispatch_us",
    "stream.mib_s",
    "stream.buffer_bytes",
    "registry.overhead_us",
    "registry.scan_block_us",
    "registry.scan_block_pooled_mib_s",
    "registry.insert_ms",
    "registry.resident_bytes",
    "ridfa.construct_ms",
    "serve.overhead_us",
    "serve.cpu_us_per_req",
    "serve.offload_efficiency",
    "serve.idle_wakeups_per_s",
    "loadgen.late_p99_us",
    "trace.overhead_frac",
];

/// One run's settings.
#[derive(Debug, Clone)]
struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Input-size multiplier (1.0 for the benchmark; tests shrink it).
    scale: f64,
    setups: usize,
    /// Inverts the oracle verdict of this input (tests only: a run must
    /// catch it).
    flip: Option<usize>,
}

fn main() {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&config);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: 1.0,
        setups: SETUPS,
        flip: None,
    })
}

/// A metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run prints.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        self.line(format!("# FAILED {note}"));
    }

    fn absorb(&mut self, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        for note in &run.notes {
            self.line(format!("# FAILED {note}"));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("{name} is {value}"));
            return;
        }
        self.line(format!("{name} = {value:.6} {unit}"));
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_into(cfg, &mut report) {
        report.fail(e);
    }
    let expected: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let printed: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    if report.correct() && printed != expected {
        report.fail(format!(
            "printed metrics {printed:?}, expected {expected:?}"
        ));
    }
    report
}

fn describe(workload: Workload) -> &'static str {
    match workload {
        Workload::Bulk => {
            "closed loop, 1 caller thread, in-process registry.recognize(id, text, 0) \
             round-robin over 16 texts of 1-3 MiB (4 patterns, 1/4 rejected)"
        }
        Workload::Stream => {
            "closed loop, 1 caller thread, in-process registry.recognize_stream over \
             8 in-memory 4 MiB traffic logs (2 with a corrupt record)"
        }
        Workload::ServeSmall => {
            "open loop at 1000 req/s, 1 pipelined loopback connection, writer + reader \
             threads, 128 bodies of 256 B-4 KiB (4 patterns, 1/4 rejected), inline lane"
        }
        Workload::ServeLarge => {
            "closed loop, 1 loopback connection, 1 client thread, 16 bodies of 1-4 MiB \
             (4 patterns, 1/4 rejected), offload lane above 64 KiB"
        }
    }
}

fn run_into(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let w = cfg.workload;
    report.line(format!("# {}", host::fingerprint(cfg.seed)));
    report.line(format!("# workload {}: {}", w.name(), describe(w)));

    // Inputs and oracle verdicts, before any clock starts.
    let nfas: Vec<Nfa> = (0..PATTERNS.len()).map(inputs::nfa).collect();
    let mut construct_ms = Vec::new();
    let rids: Vec<RiDfa> = nfas
        .iter()
        .map(|nfa| {
            let t0 = Instant::now();
            let rid = inputs::construct(nfa);
            construct_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rid
        })
        .collect();
    let mut items = inputs::generate(w, cfg.seed, cfg.scale, &rids);
    if let Some(i) = cfg.flip {
        items[i].expected = !items[i].expected;
    }
    let bytes: usize = items.iter().map(|i| i.text.len()).sum();
    let rejected = items.iter().filter(|i| !i.expected).count();
    report.line(format!(
        "# inputs {} texts, {:.2} MiB, {rejected} rejected by the oracle",
        items.len(),
        mib(bytes as u64)
    ));

    if cfg.trace {
        traced(cfg, &nfas, rids, &construct_ms, &items, report)
    } else {
        untraced(cfg, &rids, &items, report)
    }
}

/// What a workload runs against.
enum Fixture {
    Local(Box<PatternRegistry>),
    Served(LoopbackServer),
}

/// Builds the system from cold: pattern construction, plan resolution,
/// session warm-up and, for serve workloads, bind plus a first answered
/// request. Returns the fixture and the resolved plans.
fn set_up(workload: Workload) -> Result<(Fixture, Vec<EnginePlan>), String> {
    let nfas: Vec<Nfa> = (0..PATTERNS.len()).map(inputs::nfa).collect();
    let registry = drive::build_registry(&nfas, &mut Vec::new())?;
    let plans = plans_of(&registry);
    let fixture = if workload.is_serve() {
        Fixture::Served(LoopbackServer::start(registry)?)
    } else {
        Fixture::Local(Box::new(registry))
    };
    Ok((fixture, plans))
}

fn tear_down(fixture: Fixture) -> Result<(), String> {
    match fixture {
        Fixture::Local(registry) => drive::check_health(registry.health()),
        Fixture::Served(server) => server.stop().map(|_| ()),
    }
}

fn plans_of(registry: &PatternRegistry) -> Vec<EnginePlan> {
    PATTERNS
        .iter()
        .map(|id| registry.plan(id).unwrap_or(EnginePlan::Auto))
        .collect()
}

fn drive_workload(
    workload: Workload,
    fixture: &mut Fixture,
    items: &[Item],
    window: &Window,
    trace: Option<&mut Trace>,
) -> Run {
    match fixture {
        Fixture::Local(registry) if workload == Workload::Stream => {
            drive::stream(registry, items, window, trace)
        }
        Fixture::Local(registry) => drive::bulk(registry, items, window, trace),
        Fixture::Served(server) => {
            let run = if workload == Workload::ServeSmall {
                drive::open_loop(&server.conn, items, SERVE_SMALL_RATE, window, trace)
            } else {
                drive::closed_loop(&mut server.conn, items, window, trace)
            };
            server.count(&run);
            run
        }
    }
}

/// Prints each pattern's resolved plan and the kernel its interior chunks
/// run at the workload's chunk size.
fn stamp_plans(report: &mut Report, workload: Workload, items: &[Item], tables: &[Tables]) {
    let claimants = claimants();
    let mut line = String::from("# plans");
    for (p, tables) in tables.iter().enumerate() {
        let len = items
            .iter()
            .find(|i| i.pattern == p)
            .map(|i| replay::layer_spans(workload, i.text.len(), claimants))
            .and_then(|spans| spans.iter().skip(1).map(|s| s.len()).max())
            .unwrap_or(0);
        let kernel = tables.effective_kernel(len).map_or("none", |k| k.name());
        line += &format!(
            " {}={}/kernel={kernel}@{len}B",
            PATTERNS[p],
            tables.plan.name()
        );
    }
    report.line(line);
}

/// Reach-phase claimants of a default registry: its pool workers plus the
/// calling thread.
fn claimants() -> usize {
    RegistryConfig::default().num_workers + 1
}

fn percentile_us(samples: &[u64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    stats::percentile(&sorted, p).map(|ns| ns as f64 / 1e3)
}

fn untraced(
    cfg: &Config,
    rids: &[RiDfa],
    items: &[Item],
    report: &mut Report,
) -> Result<(), String> {
    let w = cfg.workload;
    let t0 = Instant::now();
    let (mut fixture, plans) = set_up(w)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let tables = tables_for(rids, &plans)?;
    stamp_plans(report, w, items, &tables);

    // Warm caches, pools and CPU clocks on the workload itself, then
    // measure.
    let warm = drive_workload(
        w,
        &mut fixture,
        items,
        &Window::new(warm_up(cfg.seconds)),
        None,
    );
    report.absorb(&warm);
    // The measured phase runs in slices of about a second, each read
    // with the share of host CPU time the hypervisor stole during it.
    // Metrics come from the quiet slices, or from the quieter half when
    // most were not, so a neighbour's burst costs the slices it hit, not
    // the run. Every slice's verdicts count.
    let count = (cfg.seconds / SLICE_SECONDS).ceil().max(1.0) as usize;
    let mut slices = Vec::with_capacity(count);
    for _ in 0..count {
        let before = host::steal_and_total_ticks();
        let window = Window::new(cfg.seconds / count as f64);
        let slice = drive_workload(w, &mut fixture, items, &window, None);
        let after = host::steal_and_total_ticks();
        slices.push((slice, (after.0 - before.0, after.1 - before.1)));
    }
    // Peak memory of inputs, system and workload, before the extra
    // set-ups below churn the allocator.
    let peak_rss = host::peak_rss_bytes();
    if let Err(e) = tear_down(fixture) {
        report.fail(e);
    }
    // The remaining set-ups run after the measured phase, on a host
    // already busy with this workload, like the first one's successors
    // in a series of runs.
    for _ in 1..cfg.setups {
        let t0 = Instant::now();
        let (fixture, _) = set_up(w)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        tear_down(fixture)?;
    }

    let share = |(steal, total): (u64, u64)| steal as f64 / total.max(1) as f64;
    let stolen: Vec<f64> = slices.iter().map(|&(_, ticks)| share(ticks)).collect();
    let keep = stats::quiet_slices(&stolen, QUIET_STEAL);
    let measured = keep.iter().filter(|&&kept| kept).count();
    let (mut run, mut passes) = (Run::default(), Vec::new());
    let (mut all_ticks, mut kept_ticks) = ((0, 0), (0, 0));
    for ((slice, ticks), kept) in slices.into_iter().zip(keep) {
        report.absorb(&slice);
        all_ticks = (all_ticks.0 + ticks.0, all_ticks.1 + ticks.1);
        if kept {
            kept_ticks = (kept_ticks.0 + ticks.0, kept_ticks.1 + ticks.1);
            passes.extend(stats::pass_rates(
                &slice.latencies_ns,
                &slice.op_bytes,
                items.len(),
            ));
            run.absorb(slice);
        }
    }
    let secs = run.wall.as_secs_f64();
    report.line(format!(
        "# measured {} of {count} slices, {:.3} s, {} operations, {:.2} MiB ({:.1} MiB/s), {} latency samples; \
         host CPU time stolen {:.1} % in all slices, {:.1} % in the measured ones",
        measured,
        secs,
        run.attempted,
        mib(run.bytes),
        mib(run.bytes) / secs,
        run.latencies_ns.len(),
        100.0 * share(all_ticks),
        100.0 * share(kept_ticks)
    ));
    let shape: Vec<String> = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
        .into_iter()
        .filter_map(|p| percentile_us(&run.latencies_ns, p).map(|us| format!("p{p}={us:.0}")))
        .collect();
    report.line(format!("# latency us {}", shape.join(" ")));
    if !run.late_ns.is_empty() {
        let late: Vec<String> = [50.0, 95.0, 99.0]
            .into_iter()
            .filter_map(|p| percentile_us(&run.late_ns, p).map(|us| format!("p{p}={us:.0}")))
            .collect();
        report.line(format!("# sent late us {}", late.join(" ")));
    }
    report.metric("setup_s", stats::median(&setup_s), "s");
    // A closed loop's rate is the median over whole passes through its
    // inputs, so a stall of the host costs the passes it hits, not the
    // run; the open loop's rate is the one it offers.
    if w == Workload::ServeSmall {
        report.metric("throughput_mib_s", mib(run.bytes) / secs, "MiB/s");
    } else if passes.len() >= MIN_PASSES {
        let bytes_s = stats::median(&passes);
        report.metric("throughput_mib_s", bytes_s / (1u64 << 20) as f64, "MiB/s");
    } else {
        report.fail(format!(
            "throughput_mib_s: {} whole passes over the inputs, fewer than {MIN_PASSES}",
            passes.len()
        ));
    }
    match percentile_us(&run.latencies_ns, 50.0) {
        Some(us) => report.metric("latency_p50_us", us, "us"),
        None => report.fail(format!(
            "latency_p50_us: {} samples, fewer than {} needed",
            run.latencies_ns.len(),
            stats::samples_needed(50.0)
        )),
    }
    report.metric(
        "cpu_ms_per_mib",
        run.cpu.as_secs_f64() * 1e3 / mib(run.bytes),
        "ms/MiB",
    );
    report.metric("peak_rss_mib", mib(peak_rss), "MiB");
    report.line(format!(
        "error_rate = {:.6} ratio ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    Ok(())
}

/// Untimed warm-up before a measured phase of `seconds`.
fn warm_up(seconds: f64) -> f64 {
    (0.2 * seconds).min(2.0)
}

fn tables_for(rids: &[RiDfa], plans: &[EnginePlan]) -> Result<Vec<Tables>, String> {
    rids.iter()
        .zip(plans)
        .map(|(rid, &plan)| Tables::new(rid.clone(), plan))
        .collect()
}

fn traced(
    cfg: &Config,
    nfas: &[Nfa],
    rids: Vec<RiDfa>,
    construct_ms: &[f64],
    items: &[Item],
    report: &mut Report,
) -> Result<(), String> {
    let w = cfg.workload;
    let t = cfg.seconds;
    let mut trace = Trace::new();
    let mut insert_ms = Vec::new();
    let mut registry = drive::build_registry(nfas, &mut insert_ms)?;
    let tables = tables_for(&rids, &plans_of(&registry))?;
    stamp_plans(report, w, items, &tables);

    // Layers below the server, one after the other.
    let mut replayed = Run::default();
    let budget = Duration::from_secs_f64(t * REPLAY_SHARE);
    let counts = replay::replay(
        w,
        items,
        &tables,
        &mut registry,
        budget,
        &mut trace,
        &mut replayed,
    );
    report.absorb(&replayed);
    let resident_bytes = registry.resident_bytes();

    // The workload itself, untraced and then traced.
    let mut fixture = if w.is_serve() {
        drive::check_health(registry.health())?;
        Fixture::Served(LoopbackServer::start(drive::build_registry(
            nfas,
            &mut Vec::new(),
        )?)?)
    } else {
        Fixture::Local(Box::new(registry))
    };
    // Alternating short phases expose both to the same host conditions.
    let phase = || Window::new(t * E2E_SHARE / (2 * E2E_ROUNDS) as f64);
    let (mut plain, mut traced) = (Run::default(), Run::default());
    for _ in 0..E2E_ROUNDS {
        plain.absorb(drive_workload(w, &mut fixture, items, &phase(), None));
        traced.absorb(drive_workload(
            w,
            &mut fixture,
            items,
            &phase(),
            Some(&mut trace),
        ));
    }
    report.absorb(&plain);
    report.absorb(&traced);

    // The serve stage: the workload's own loop for serve workloads, a
    // closed loop over the same inputs otherwise.
    let (server, staged) = match fixture {
        Fixture::Served(server) => (server, None),
        local => {
            tear_down(local)?;
            let mut server = LoopbackServer::start(drive::build_registry(nfas, &mut Vec::new())?)?;
            let run = drive::closed_loop(
                &mut server.conn,
                items,
                &Window::new(t * SERVE_SHARE),
                Some(&mut trace),
            );
            server.count(&run);
            report.absorb(&run);
            (server, Some(run))
        }
    };
    let serve_run = staged.as_ref().unwrap_or(&traced);

    // Idle: one connection open, nothing sent.
    let idle = Duration::from_secs_f64((0.1 * t).clamp(0.2, 1.0));
    let switches = host::voluntary_switches();
    std::thread::sleep(idle);
    let idle_wakeups = (host::voluntary_switches() - switches) as f64 / idle.as_secs_f64();
    if let Err(e) = server.stop() {
        report.fail(e);
    }

    // The in-process floor of a request is the registry call of the lane
    // its body takes.
    let offloaded = items
        .iter()
        .any(|i| i.text.len() as u64 > drive::OFFLOAD_BYTES);
    let lane = if offloaded {
        "registry.scan_block_pooled"
    } else {
        "registry.scan_block"
    };
    let summary = trace::summarize(trace.spans());
    print_spans(report, &summary, lane);
    let stat = |name: &str| -> Result<&LayerStat, String> {
        summary.get(name).ok_or(format!("no {name} spans recorded"))
    };
    let serial = stat("reach.serial")?.mib_s();
    let session = stat("session")?;
    let scan_block_us = stat("registry.scan_block")?.median_us();
    let floor_us = stat(lane)?.median_us();
    let pooled = stat("registry.scan_block_pooled")?.mib_s();
    let serve_p50 =
        percentile_us(&serve_run.latencies_ns, 50.0).ok_or("serve stage: too few samples")?;
    let p50 =
        |run: &Run| percentile_us(&run.latencies_ns, 50.0).ok_or("e2e phase: too few samples");
    let overhead = p50(&traced)? / p50(&plain)? - 1.0;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // With fewer than 1000 sends p99 is not backed by data: report the
    // worst send instead.
    let late_p99 = percentile_us(&serve_run.late_ns, 99.0).unwrap_or_else(|| {
        serve_run
            .late_ns
            .iter()
            .max()
            .map_or(0.0, |&ns| ns as f64 / 1e3)
    });

    report.metric(
        "alphabet.classify_mib_s",
        stat("alphabet.classify")?.mib_s(),
        "MiB/s",
    );
    report.metric(
        "kernel.interior_mib_s",
        stat("kernel.interior")?.mib_s(),
        "MiB/s",
    );
    report.metric("kernel.first_mib_s", stat("kernel.first")?.mib_s(), "MiB/s");
    report.metric("reach.serial_mib_s", serial, "MiB/s");
    report.metric("reach.join_us", stat("reach.join")?.mean_us(), "us");
    report.metric(
        "reach.transitions_per_byte",
        counts.transitions as f64 / counts.bytes as f64,
        "transitions/B",
    );
    report.metric(
        "reach.speculative_starts",
        counts.starts as f64 / counts.interior_chunks.max(1) as f64,
        "runs/chunk",
    );
    report.metric("session.mib_s", session.mib_s(), "MiB/s");
    report.metric("session.speedup", session.mib_s() / serial, "x");
    report.metric(
        "session.dispatch_us",
        stat("session.dispatch")?.median_us(),
        "us",
    );
    report.metric("stream.mib_s", stat("stream")?.mib_s(), "MiB/s");
    report.metric(
        "stream.buffer_bytes",
        counts.stream_buffer_bytes as f64,
        "B",
    );
    report.metric(
        "registry.overhead_us",
        stat("registry.recognize")?.mean_us() - session.mean_us(),
        "us",
    );
    report.metric("registry.scan_block_us", scan_block_us, "us");
    report.metric("registry.scan_block_pooled_mib_s", pooled, "MiB/s");
    report.metric("registry.insert_ms", mean(&insert_ms), "ms");
    report.metric("registry.resident_bytes", resident_bytes as f64, "B");
    report.metric("ridfa.construct_ms", mean(construct_ms), "ms");
    report.metric("serve.overhead_us", serve_p50 - floor_us, "us");
    report.metric(
        "serve.cpu_us_per_req",
        serve_run.cpu.as_secs_f64() * 1e6 / serve_run.attempted.max(1) as f64,
        "us/req",
    );
    report.metric(
        "serve.offload_efficiency",
        mib(serve_run.bytes) / serve_run.wall.as_secs_f64() / pooled,
        "ratio",
    );
    report.metric("serve.idle_wakeups_per_s", idle_wakeups, "1/s");
    report.metric("loadgen.late_p99_us", late_p99, "us");
    report.metric("trace.overhead_frac", overhead, "ratio");
    Ok(())
}

/// Prints every span name's totals and self time, and the layer chain:
/// each layer's time per input byte next to the layer it wraps.
fn print_spans(
    report: &mut Report,
    summary: &std::collections::BTreeMap<&'static str, LayerStat>,
    lane: &'static str,
) {
    report.line("# spans: name count total_ms self_ms ns/B".into());
    for (name, s) in summary {
        report.line(format!(
            "#   {name} {} {:.3} {:.3} {:.4}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.ns_per_byte()
        ));
    }
    let ns_per_byte = |names: &[&str]| -> Option<f64> {
        let stats: Vec<&LayerStat> = names.iter().filter_map(|n| summary.get(n)).collect();
        let total: u64 = stats.iter().map(|s| s.total_ns).sum();
        let bytes: u64 = stats.iter().map(|s| s.bytes).sum();
        (stats.len() == names.len()).then(|| total as f64 / bytes as f64)
    };
    let claimants = claimants() as f64;
    let kernel = ns_per_byte(&["kernel.first", "kernel.interior"]);
    // (layer, its ns/B, wrapped layer, the wrapped ns/B it cannot beat)
    let chain = [
        (
            "kernel",
            kernel,
            "alphabet.classify",
            ns_per_byte(&["alphabet.classify"]),
        ),
        (
            "reach.serial",
            ns_per_byte(&["reach.serial"]),
            "kernel+join",
            kernel
                .zip(summary.get("reach.join"))
                .map(|(k, j)| k + j.ns_per_byte()),
        ),
        (
            "session",
            ns_per_byte(&["session"]),
            "kernel/claimants",
            kernel.map(|k| k / claimants),
        ),
        (
            "stream",
            ns_per_byte(&["stream"]),
            "kernel/claimants",
            kernel.map(|k| k / claimants),
        ),
        (
            "registry.recognize",
            ns_per_byte(&["registry.recognize"]),
            "session",
            ns_per_byte(&["session"]),
        ),
        (
            "e2e.request",
            ns_per_byte(&["e2e.request"]),
            lane,
            ns_per_byte(&[lane]),
        ),
    ];
    report.line("# layer chain: layer ns/B >= wrapped ns/B (self ns/B)".into());
    for (outer, o, inner, i) in chain {
        if let (Some(o), Some(i)) = (o, i) {
            let mark = if o >= i * 0.9 { "ok" } else { "BELOW" };
            report.line(format!(
                "#   {outer} {o:.4} >= {inner} {i:.4} ({:.4}) {mark}",
                o - i
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_command_line() {
        let c = parse_args(args(
            "--workload serve_small --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(c.workload, Workload::ServeSmall);
        assert_eq!((c.seed, c.seconds, c.trace), (9, 10.0, true));
        assert!(parse_args(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload bulk --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(args("--workload bulk --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(args("--workload bulk --seed 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload bulk --seed")).is_err());
    }

    fn tiny(workload: Workload, trace: bool, flip: Option<usize>) -> Config {
        Config {
            workload,
            seed: 11,
            seconds: 1.1,
            trace,
            scale: 0.04,
            setups: 1,
            flip,
        }
    }

    fn names(report: &Report) -> Vec<&'static str> {
        report.metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn minimal_runs_are_correct_and_complete() {
        for w in Workload::ALL {
            let report = run(&tiny(w, false, None));
            assert!(report.correct(), "{w:?}: {:#?}", report.lines);
            assert_eq!(names(&report), END_TO_END, "{w:?}");
            assert!(report
                .json()
                .starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    #[test]
    fn minimal_runs_catch_a_flipped_verdict() {
        for w in Workload::ALL {
            let report = run(&tiny(w, false, Some(0)));
            assert!(!report.correct(), "{w:?} missed the flipped verdict");
            assert!(report.json().starts_with("{\"correct\": false"), "{w:?}");
        }
    }

    #[test]
    fn minimal_traced_runs_report_every_layer() {
        for w in Workload::ALL {
            let report = run(&tiny(w, true, None));
            assert!(report.correct(), "{w:?}: {:#?}", report.lines);
            assert_eq!(names(&report), PER_LAYER, "{w:?}");
        }
    }
}
