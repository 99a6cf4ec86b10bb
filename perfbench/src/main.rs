//! The repository benchmark: drains closed-loop client populations through
//! the replicated log on the simulator and on a real TCP cluster, checks
//! the committed logs on every run, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload sim-timely|sim-bisource|tcp-durable --seed N
//!           --seconds S --trace 0|1 [--node-bin PATH] [--out-dir DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the layer
//! wrappers and prints the per-layer metrics instead. See `METRICS.md` for
//! every metric, its unit, and which end-to-end number it should move.
//! End-to-end times are reported at a reference machine speed (`calib`).

mod calib;
mod price;
mod procfs;
mod sim;
mod spans;
mod stats;
mod tcp;

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minsync_harness::TopologySpec;
use minsync_net::derive_stream;
use minsync_types::SystemConfig;

use crate::sim::{RoundResult, Shape, Tally};
use crate::spans::Span;
use crate::stats::{fail_frac, mean, median, nearest_rank, ratio, LAYERS};
use crate::tcp::{ClusterRun, ClusterShape, Mode};

/// Batch cap of every workload; each routing group has four batches' worth
/// of closed-loop clients, so up to four batches are outstanding.
const BATCH: usize = 8;
const CLIENTS_PER_GROUP: usize = 4 * BATCH;
/// Commands per client per simulator round.
const SIM_COMMANDS: usize = 64;
/// Commands per client per cluster run. Each client's first command is
/// timed from mesh start; at 128 commands those 32 samples are 0.8% of
/// the latency sample, and they commit in the first slots, so they sit
/// below the p99 rather than in it.
const TCP_COMMANDS: usize = 128;
/// Bootstrap-only clusters after each drained one in untraced tcp runs.
const SETUP_SAMPLES: usize = 4;
/// Fewest rounds or cluster runs one measurement makes, however short.
const MIN_ROUNDS: usize = 3;
/// Calibration-kernel iterations before and after each simulator round, per
/// lane, and each drained cluster, per core (see `calib`).
const SIM_CAL_ITERS: usize = 5;
const TCP_CAL_ITERS: usize = 10;
/// Hard cap on one run's measuring, well inside the 180 s run budget.
const HARD_CAP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        node_bin: None,
        out_dir: PathBuf::from(".perfbench"),
    };
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds: must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                }
            }
            "--node-bin" => args.node_bin = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// A finished measurement.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Human-readable run summary, printed before the JSON line.
    summary: String,
    spans: Vec<Span>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sim-timely" => run_sim(&args, &sim_timely()),
        "sim-bisource" => run_sim(&args, &sim_bisource()),
        "tcp-durable" => run_tcp(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !outcome.spans.is_empty() {
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = spans::write(&path, &outcome.spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!(
        "# perfbench workload={} seed={} trace={} {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.summary
    );
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// `sim-timely`: every channel timely, every replica correct.
fn sim_timely() -> Shape {
    Shape {
        n: 7,
        t: 2,
        groups: 2,
        silent: 0,
        topology: TopologySpec::AllTimely { delta: 3 },
        batch: BATCH,
        clients_per_group: CLIENTS_PER_GROUP,
        commands_per_client: SIM_COMMANDS,
    }
}

/// `sim-bisource`: asynchronous channels plus one ◇⟨t+1⟩-bisource at
/// replica 0, with the top two replicas silent Byzantine.
fn sim_bisource() -> Shape {
    let base = sim_timely();
    let system = SystemConfig::new(base.n, base.t).expect("valid system size");
    Shape {
        silent: 2,
        topology: TopologySpec::standard(0, &system),
        ..base
    }
}

/// `tcp-durable`: four authenticated, WAL-backed replica processes.
fn cluster_shape() -> ClusterShape {
    ClusterShape {
        n: 4,
        t: 1,
        clients: CLIENTS_PER_GROUP,
        commands: TCP_COMMANDS,
        batch: BATCH,
        tick_us: 200,
    }
}

/// The simulator twin of `tcp-durable`: same system, population and batch
/// cap, on timely channels, so a clean run carries the cluster's protocol
/// traffic.
fn tcp_twin() -> Shape {
    let c = cluster_shape();
    Shape {
        n: c.n,
        t: c.t,
        groups: 1,
        silent: 0,
        topology: TopologySpec::AllTimely { delta: 3 },
        batch: c.batch,
        clients_per_group: c.clients,
        commands_per_client: c.commands,
    }
}

/// Whether the measuring budget is used up: another round of the last
/// one's length would end nearer the budget's far side than its near side.
fn spent(start: Instant, last: Duration, budget: Duration) -> bool {
    start.elapsed() + last / 2 >= budget
}

/// Seeds of successive rounds in one run: distinct streams of the run seed.
fn round_seed(seed: u64, round: usize) -> u64 {
    derive_stream(seed, round as u64 + 1)
}

fn peak_rss_mb() -> f64 {
    procfs::read("self").map_or(0.0, |s| s.hwm_kb as f64 / 1024.0)
}

fn failed_commands(rounds: &[&RoundResult]) -> u64 {
    rounds
        .iter()
        .filter(|r| r.failure.is_some())
        .map(|r| r.commands)
        .sum()
}

fn first_failure<'a>(mut failures: impl Iterator<Item = &'a Option<String>>) -> String {
    failures
        .find_map(|f| f.clone())
        .map_or_else(|| "ok".into(), |f| format!("FAILED: {f}"))
}

/// Untraced simulator rounds, run on `lanes` threads at once (one per
/// core), each lane repeating rounds until the budget is spent. Every lane
/// drains its own simulation; pooling the lanes measures the simulator on
/// every core of the machine rather than on whichever one a single thread
/// happened to land on. Each lane times the calibration kernel between its
/// rounds, and every round comes back with the machine's slowdown over it
/// (`calib::slowdown` of the bursts just before and just after it).
fn sim_lanes(args: &Args, shape: &Shape, lanes: usize) -> Vec<(RoundResult, f64)> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let deadline = start + HARD_CAP;
    let lane = |lane: usize| {
        let mut rounds: Vec<(RoundResult, f64)> = Vec::new();
        let mut before: Vec<f64> = Vec::new();
        calib::burst(SIM_CAL_ITERS, &mut before);
        let mut last = Duration::ZERO;
        loop {
            let enough = rounds.len() >= MIN_ROUNDS;
            if (enough && spent(start, last, budget)) || Instant::now() >= deadline {
                break;
            }
            let k = 1 + lane + lanes * rounds.len();
            let t0 = Instant::now();
            let r = sim::run_round(shape, round_seed(args.seed, k), None, deadline);
            last = t0.elapsed();
            let mut after = Vec::new();
            calib::burst(SIM_CAL_ITERS, &mut after);
            before.extend_from_slice(&after);
            let slow = calib::slowdown(&before);
            before = after;
            eprintln!(
                "perfbench: round {k}: {:.1} cmd/s, p50 {:.3} ms, p99 {:.3} ms, setup {:.6} s, \
                 slowdown {slow:.3}",
                r.commands as f64 / r.drain.as_secs_f64(),
                r.p50_ms,
                r.p99_ms,
                r.setup.as_secs_f64()
            );
            let failed = r.failure.is_some();
            rounds.push((r, slow));
            if failed {
                break;
            }
        }
        rounds
    };
    // Lane 0 runs on the calling thread, so the process runs `lanes`
    // threads in all.
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..lanes).map(|l| scope.spawn(move || lane(l))).collect();
        let mut rounds = lane(0);
        for h in others {
            rounds.extend(h.join().expect("a simulator lane panicked"));
        }
        rounds
    })
}

fn run_sim(args: &Args, shape: &Shape) -> Result<Outcome, String> {
    if !args.trace {
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Round 0 runs alone: it warms the process up and fixes the memory
        // peak of one simulation before the lanes overlap theirs. It is
        // checked and counted, but not timed.
        let solo = sim::run_round(
            shape,
            round_seed(args.seed, 0),
            None,
            Instant::now() + HARD_CAP,
        );
        let peak_rss = peak_rss_mb();
        let (plain, slows): (Vec<RoundResult>, Vec<f64>) =
            sim_lanes(args, shape, lanes).into_iter().unzip();
        let all: Vec<&RoundResult> = plain.iter().chain([&solo]).collect();
        let attempted: u64 = all.iter().map(|r| r.commands).sum();
        let failed = failed_commands(&all);
        let f = |get: fn(&RoundResult) -> f64| plain.iter().map(get).collect::<Vec<f64>>();
        let cmds_per_s = ratio(
            f(|r| r.commands as f64).iter().sum(),
            f(|r| r.drain.as_secs_f64()).iter().sum(),
        );
        // Lanes on a shared machine can run at different speeds; the mean
        // of the rounds' percentiles weighs them evenly where a median
        // would jump between the lanes' clusters.
        let p50_ms = mean(&f(|r| r.p50_ms));
        let p99_ms = mean(&f(|r| r.p99_ms));
        // The run's slowdown is the median over its rounds: robust to a
        // round whose brackets caught a spike (see `calib`).
        let slow = median(&slows);
        let summary = format!(
            "rounds={} lanes={lanes} commands/round={} kernel_ms={:.4} raw: {cmds_per_s:.1} \
             cmd/s, p50 {p50_ms:.3} ms, p99 {p99_ms:.3} ms {}",
            all.len(),
            shape.total(),
            slow * calib::REF_MS,
            first_failure(all.iter().map(|r| &r.failure))
        );
        let mut m = Metrics::default();
        m.put("cmds_per_s", cmds_per_s * slow, "cmd/s");
        m.put("commit_p50_ms", p50_ms / slow, "ms");
        m.put("commit_p99_ms", p99_ms / slow, "ms");
        m.put(
            "msgs_per_cmd",
            ratio(
                f(|r| r.messages as f64).iter().sum(),
                f(|r| r.commands as f64).iter().sum(),
            ),
            "msg/cmd",
        );
        m.put("setup_s", median(&f(|r| r.setup.as_secs_f64())) / slow, "s");
        m.put("peak_rss_mb", peak_rss, "MiB");
        m.put("ok_frac", 1.0 - fail_frac(attempted, failed), "frac");
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
            summary,
            spans: Vec::new(),
        });
    }

    // The traced run is sequential: it alternates plain and wrapped rounds
    // on the same seeds, so the wrappers' overhead and the handlers' share
    // of the drain are measured on matched work.
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let deadline = start + HARD_CAP;
    let epoch = Instant::now();
    let mut plain: Vec<RoundResult> = Vec::new();
    let mut traced: Vec<RoundResult> = Vec::new();
    let mut tally = Tally::default();
    let (mut rounds_sum, mut rounds_slots) = (0u64, 0u64);
    let mut spans = Vec::new();
    let mut last = Duration::ZERO;
    let mut k = 0;
    loop {
        let enough = plain.len() >= MIN_ROUNDS && traced.len() >= MIN_ROUNDS;
        if (enough && spent(start, last, budget)) || Instant::now() >= deadline {
            break;
        }
        let round_start = Instant::now();
        if k % 2 == 1 {
            let sink = Arc::new(Mutex::new(Tally::default()));
            let r = sim::run_round(
                shape,
                round_seed(args.seed, k - 1),
                Some((&sink, epoch)),
                deadline,
            );
            let mut t = std::mem::take(&mut *sink.lock().map_err(|_| "tally poisoned")?);
            rounds_sum += t.slot_rounds.values().sum::<u64>();
            rounds_slots += t.slot_rounds.len() as u64;
            t.slot_rounds.clear();
            tally.absorb(t);
            traced.push(r);
        } else {
            plain.push(sim::run_round(
                shape,
                round_seed(args.seed, k),
                None,
                deadline,
            ));
        }
        last = round_start.elapsed();
        spans.push(Span::between(
            "sim.round",
            "bench",
            epoch,
            round_start,
            Instant::now(),
            k as u64,
            u32::MAX,
        ));
        k += 1;
        if plain.iter().chain(&traced).any(|r| r.failure.is_some()) {
            break;
        }
    }
    let all: Vec<&RoundResult> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.commands).sum();
    let failed = failed_commands(&all);
    let summary = format!(
        "rounds={} commands/round={} {}",
        all.len(),
        shape.total(),
        first_failure(all.iter().map(|r| &r.failure))
    );
    let mut m = Metrics::default();
    spans.extend(std::mem::take(&mut tally.spans));
    let f =
        |rs: &[RoundResult], get: fn(&RoundResult) -> f64| rs.iter().map(get).collect::<Vec<f64>>();
    let sum = |rs: &[RoundResult], get: fn(&RoundResult) -> f64| f(rs, get).iter().sum::<f64>();
    let plain_cmds = sum(&plain, |r| r.commands as f64);
    let plain_drain_ns = sum(&plain, |r| r.drain.as_nanos() as f64);
    let traced_cmds = sum(&traced, |r| r.commands as f64);
    let traced_drain_ns = sum(&traced, |r| r.drain.as_nanos() as f64);
    m.put(
        "sim.events_per_cmd",
        ratio(sum(&plain, |r| r.events as f64), plain_cmds),
        "event/cmd",
    );
    m.put(
        "sim.ns_per_event",
        ratio(plain_drain_ns, sum(&plain, |r| r.events as f64)),
        "ns",
    );
    // Plain round i ran the same seed as traced round i: the wrappers'
    // handler time is set against the unwrapped drain of the same work.
    let matched = &plain[..traced.len().min(plain.len())];
    let matched_drain_ns = sum(matched, |r| r.drain.as_nanos() as f64);
    let handler_ns: f64 = tally.layer_ns.iter().map(|&ns| ns as f64).sum();
    m.put(
        "sim.self_frac",
        ratio(
            matched_drain_ns - handler_ns - sum(matched, |r| r.predicate.as_nanos() as f64),
            matched_drain_ns,
        ),
        "frac",
    );
    m.put(
        "sim.queue_max",
        all.iter().map(|r| r.queue_max).max().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "sim.timers_per_slot",
        ratio(
            sum(&plain, |r| r.timers as f64),
            sum(&plain, |r| r.slots as f64),
        ),
        "timer/slot",
    );
    m.put(
        "sim.commit_p50_ticks",
        mean(&f(&plain, |r| r.p50_ticks)),
        "ticks",
    );
    m.put(
        "sim.commit_p99_ticks",
        mean(&f(&plain, |r| r.p99_ticks)),
        "ticks",
    );
    layer_metrics(&mut m, &tally, &traced, rounds_sum, rounds_slots, shape.n);
    m.put(
        "bench.pred_frac",
        ratio(
            sum(&plain, |r| r.predicate.as_nanos() as f64),
            plain_drain_ns,
        ),
        "frac",
    );
    m.put(
        "trace.overhead_frac",
        ratio(traced_drain_ns / traced_cmds, plain_drain_ns / plain_cmds) - 1.0,
        "frac",
    );
    socket_layers_absent(&mut m);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        summary,
        spans,
    })
}

/// Handler, protocol, workload, wire and MAC metrics from traced rounds'
/// wrappers (shared by the simulator workloads and the cluster's twin).
fn layer_metrics(
    m: &mut Metrics,
    tally: &Tally,
    traced: &[RoundResult],
    rounds_sum: u64,
    rounds_slots: u64,
    n: usize,
) {
    let cmds: f64 = traced.iter().map(|r| r.commands as f64).sum();
    let mut steps = tally.step_ns.clone();
    steps.sort_unstable();
    m.put(
        "smr.step_ns.p50",
        f64::from(nearest_rank(&steps, 50.0).unwrap_or(0)),
        "ns",
    );
    m.put(
        "smr.step_ns.p99",
        f64::from(nearest_rank(&steps, 99.0).unwrap_or(0)),
        "ns",
    );
    m.put(
        "smr.steps_per_cmd",
        ratio(tally.layer_steps.iter().sum::<u64>() as f64, cmds),
        "step/cmd",
    );
    m.put("smr.live_instances.max", tally.live_max as f64, "count");
    m.put("smr.buffered.max", tally.buffered_max as f64, "count");
    m.put("smr.future_drops", tally.future_drops as f64, "count");
    m.put("smr.retired_drops", tally.retired_drops as f64, "count");
    let mut layer_msgs = [0u64; 5];
    for r in traced {
        for &(kind, count) in &r.kinds {
            if let Some(l) = stats::layer_of(kind) {
                layer_msgs[l] += count;
            }
        }
    }
    for (l, name) in LAYERS.iter().enumerate() {
        m.put(
            format!("proto.{name}.msgs_per_cmd"),
            ratio(layer_msgs[l] as f64, cmds),
            "msg/cmd",
        );
        m.put(
            format!("proto.{name}.ns_per_cmd"),
            ratio(tally.layer_ns[l] as f64, cmds),
            "ns/cmd",
        );
    }
    m.put(
        "proto.ea.rounds_per_slot",
        ratio(rounds_sum as f64, rounds_slots as f64),
        "round/slot",
    );
    m.put(
        "workload.cmds_per_slot",
        ratio(tally.slot_cmds as f64, tally.slots as f64),
        "cmd/slot",
    );
    m.put(
        "workload.empty_slot_frac",
        ratio(tally.empty_slots as f64, tally.slots as f64),
        "frac",
    );
    let wire_per_cmd = ratio(tally.wire_msgs as f64, cmds);
    let w = price::wire(&tally.sample, n);
    m.put("wire.bytes_per_cmd", w.bytes * wire_per_cmd, "B/cmd");
    m.put(
        "wire.encode_ns_per_cmd",
        w.encode_ns * wire_per_cmd,
        "ns/cmd",
    );
    m.put(
        "wire.decode_ns_per_cmd",
        w.decode_ns * wire_per_cmd,
        "ns/cmd",
    );
    m.put("auth.tag_ns_per_cmd", w.tag_ns * wire_per_cmd, "ns/cmd");
    m.put(
        "auth.verify_ns_per_cmd",
        w.verify_ns * wire_per_cmd,
        "ns/cmd",
    );
}

/// Layers only a socket deployment runs: zero on simulator workloads.
fn socket_layers_absent(m: &mut Metrics) {
    for (name, unit) in SOCKET_LAYERS {
        m.put(*name, 0.0, unit);
    }
}

const SOCKET_LAYERS: &[(&str, &str)] = &[
    ("mesh.rtt_us.p50", "us"),
    ("mesh.rtt_us.p99", "us"),
    ("mesh.frames_per_s", "frame/s"),
    ("mesh.reconnects", "count"),
    ("mesh.outbound_dropped", "count"),
    ("link.rtt_ewma_us.max", "us"),
    ("wal.bytes_per_cmd", "B/cmd"),
    ("node.cpu_ms_per_kcmd", "ms/kcmd"),
    ("node.cpu_util", "frac"),
    ("node.runq_wait_ratio", "frac"),
    ("node.sys_frac", "frac"),
    ("node.ctxsw_per_cmd", "switch/cmd"),
    ("node.threads", "count"),
    ("cluster.spawn_s", "s"),
    ("cluster.teardown_s", "s"),
    ("cluster.drain_skew", "frac"),
    ("ledger.priced_frac", "frac"),
];

fn run_tcp(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .node_bin
        .clone()
        .ok_or("tcp-durable needs --node-bin (the minsync-node binary)")?;
    if !bin.is_file() {
        return Err(format!("no replica binary at {}", bin.display()));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let shape = cluster_shape();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let hard = start + HARD_CAP;
    let epoch = Instant::now();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc = cores as f64;

    // The twin prices the protocol layers (traced) or counts the protocol's
    // messages (untraced): the mesh exposes no message counter.
    let twin = tcp_twin();
    let twin_round = sim::run_round(&twin, round_seed(args.seed, 0), None, hard);
    let sink = Arc::new(Mutex::new(Tally::default()));
    let twin_traced = args
        .trace
        .then(|| sim::run_round(&twin, round_seed(args.seed, 0), Some((&sink, epoch)), hard));

    let total = shape.total() as u64;
    let mut setups: Vec<f64> = Vec::new();
    let mut plain: Vec<ClusterRun> = Vec::new();
    let mut traced: Vec<ClusterRun> = Vec::new();
    let mut spans = Vec::new();
    // Per plain cluster: the machine's slowdown over its drain, from the
    // calibration bursts just before and just after it (untraced).
    let mut slows: Vec<f64> = Vec::new();
    let mut last = Duration::ZERO;
    let mut k = 0usize;
    loop {
        let enough = plain.len() >= MIN_ROUNDS && (!args.trace || traced.len() >= 2);
        if (enough && spent(start, last, budget)) || Instant::now() >= hard {
            break;
        }
        // Traced runs alternate plain clusters with clusters whose replicas
        // record their own trace rings (`--trace`), for the overhead.
        let node_trace = args.trace && k % 2 == 1;
        let mode = if node_trace {
            Mode::DrainTraced
        } else {
            Mode::Drain
        };
        let dir = args
            .out_dir
            .join(format!("cluster-{}-{k}", std::process::id()));
        // Calibration brackets each untraced drain, on every core, as the
        // cluster runs on every core.
        let mut cal = if args.trace {
            Vec::new()
        } else {
            calib::burst_all(TCP_CAL_ITERS, cores)
        };
        let remaining = hard.saturating_duration_since(Instant::now());
        let t0 = Instant::now();
        let run = tcp::run(
            &bin,
            &shape,
            round_seed(args.seed, k),
            &dir,
            mode,
            remaining,
        );
        last = t0.elapsed();
        if !args.trace {
            cal.extend(calib::burst_all(TCP_CAL_ITERS, cores));
        }
        let slow = calib::slowdown(&cal);
        eprintln!(
            "perfbench: cluster {k} ({mode:?}): {:.1} cmd/s, setup {:.4} s, slowdown {slow:.3}",
            total as f64 / run.drain.as_secs_f64(),
            run.setup.as_secs_f64()
        );
        if !args.trace && run.failure.is_none() {
            // Bootstrap-only clusters between drains give `setup_s` more
            // samples without lengthening the run much.
            for j in 0..SETUP_SAMPLES {
                let dir = args
                    .out_dir
                    .join(format!("setup-{}-{k}-{j}", std::process::id()));
                let seed = round_seed(args.seed, 1000 * (k + 1) + j);
                let setup = tcp::run(&bin, &shape, seed, &dir, Mode::SetupOnly, remaining);
                if let Some(f) = setup.failure {
                    return Err(format!("bootstrap-only cluster failed: {f}"));
                }
                setups.push(setup.setup.as_secs_f64());
            }
        }
        spans.push(Span::between(
            "cluster.run",
            "bench",
            epoch,
            t0,
            Instant::now(),
            k as u64,
            u32::MAX,
        ));
        let failed = run.failure.is_some();
        if node_trace {
            traced.push(run);
        } else {
            plain.push(run);
            slows.push(slow);
        }
        k += 1;
        if failed {
            break;
        }
    }
    let runs: Vec<&ClusterRun> = plain.iter().chain(&traced).collect();
    let mut attempted = total * runs.len() as u64;
    let mut failed = total * runs.iter().filter(|r| r.failure.is_some()).count() as u64;
    let mut failures: Vec<Option<String>> = runs.iter().map(|r| r.failure.clone()).collect();
    for twin_run in std::iter::once(&twin_round).chain(&twin_traced) {
        attempted += twin_run.commands;
        if twin_run.failure.is_some() {
            failed += twin_run.commands;
            failures.push(twin_run.failure.clone());
        }
    }
    let mut summary = format!(
        "clusters={} commands/cluster={} {}",
        runs.len(),
        total,
        first_failure(failures.iter())
    );
    let ok: Vec<&ClusterRun> = plain.iter().filter(|r| r.failure.is_none()).collect();
    let per_run =
        |get: &dyn Fn(&ClusterRun) -> f64| ok.iter().map(|r| get(r)).collect::<Vec<f64>>();
    let tick_ms = shape.tick_us as f64 / 1000.0;
    let mut m = Metrics::default();
    if !args.trace {
        let cmds_per_s = ratio(
            (total * ok.len() as u64) as f64,
            per_run(&|r| r.drain.as_secs_f64()).iter().sum(),
        );
        let p50_ms = median(&per_run(&|r| r.latency_ticks("p50", shape.t))) * tick_ms;
        let p99_ms = median(&per_run(&|r| r.latency_ticks("p99", shape.t))) * tick_ms;
        // The run's slowdown: the median over its drained clusters (see
        // `calib`); 1 when none drained.
        let slow = if slows.is_empty() {
            1.0
        } else {
            median(&slows)
        };
        summary = format!(
            "{summary} kernel_ms={:.4} raw: {cmds_per_s:.1} cmd/s, p50 {p50_ms:.1} ms, \
             p99 {p99_ms:.1} ms",
            slow * calib::REF_MS,
        );
        m.put("cmds_per_s", cmds_per_s * slow, "cmd/s");
        m.put("commit_p50_ms", p50_ms / slow, "ms");
        m.put("commit_p99_ms", p99_ms / slow, "ms");
        m.put(
            "msgs_per_cmd",
            ratio(twin_round.messages as f64, twin_round.commands as f64),
            "msg/cmd",
        );
        setups.extend(per_run(&|r| r.setup.as_secs_f64()));
        m.put("setup_s", median(&setups) / slow, "s");
        m.put(
            "peak_rss_mb",
            median(&per_run(&|r| {
                r.replicas
                    .iter()
                    .map(|x| x.proc_delta.hwm_kb)
                    .max()
                    .unwrap_or(0) as f64
                    / 1024.0
            })),
            "MiB",
        );
        m.put("ok_frac", 1.0 - fail_frac(attempted, failed), "frac");
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
            summary,
            spans: Vec::new(),
        });
    }

    // Per-layer metrics: the twin's wrappers price handler, protocol,
    // workload, wire and MAC layers; the clusters give the process, mesh,
    // WAL and orchestration layers; loopback and WAL probes price the rest.
    let twin_traced = twin_traced.unwrap_or_default();
    let mut tally = std::mem::take(&mut *sink.lock().map_err(|_| "tally poisoned")?);
    let rounds_sum = tally.slot_rounds.values().sum::<u64>();
    let rounds_slots = tally.slot_rounds.len() as u64;
    spans.extend(std::mem::take(&mut tally.spans));
    m.put(
        "sim.events_per_cmd",
        ratio(twin_round.events as f64, twin_round.commands as f64),
        "event/cmd",
    );
    let twin_handler_ns: f64 = tally.layer_ns.iter().map(|&ns| ns as f64).sum();
    let twin_drain_ns = twin_round.drain.as_nanos() as f64;
    m.put(
        "sim.ns_per_event",
        ratio(twin_drain_ns, twin_round.events as f64),
        "ns",
    );
    m.put(
        "sim.self_frac",
        ratio(
            twin_drain_ns - twin_handler_ns - twin_round.predicate.as_nanos() as f64,
            twin_drain_ns,
        ),
        "frac",
    );
    m.put("sim.queue_max", twin_round.queue_max as f64, "count");
    m.put(
        "sim.timers_per_slot",
        ratio(twin_round.timers as f64, twin_round.slots as f64),
        "timer/slot",
    );
    m.put("sim.commit_p50_ticks", twin_round.p50_ticks, "ticks");
    m.put("sim.commit_p99_ticks", twin_round.p99_ticks, "ticks");
    let twin_rounds = std::slice::from_ref(&twin_traced);
    layer_metrics(
        &mut m,
        &tally,
        twin_rounds,
        rounds_sum,
        rounds_slots,
        twin.n,
    );
    m.put(
        "bench.pred_frac",
        ratio(twin_round.predicate.as_nanos() as f64, twin_drain_ns),
        "frac",
    );
    let median_drain = |rs: &[ClusterRun]| {
        median(
            &rs.iter()
                .filter(|r| r.failure.is_none())
                .map(|r| r.drain.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    m.put(
        "trace.overhead_frac",
        ratio(median_drain(&traced), median_drain(&plain)) - 1.0,
        "frac",
    );

    let mesh = price::mesh_pair()?;
    m.put("mesh.rtt_us.p50", mesh.rtt_p50_us, "us");
    m.put("mesh.rtt_us.p99", mesh.rtt_p99_us, "us");
    m.put("mesh.frames_per_s", mesh.frames_per_s, "frame/s");
    m.put(
        "mesh.reconnects",
        median(&per_run(&|r| r.sum_counter("mesh.reconnects") as f64)),
        "count",
    );
    m.put(
        "mesh.outbound_dropped",
        median(&per_run(&|r| {
            r.sum_counter("mesh.outbound_dropped.") as f64
        })),
        "count",
    );
    m.put(
        "link.rtt_ewma_us.max",
        median(&per_run(&|r| r.max_gauge("link.rtt_ewma.") as f64)) * shape.tick_us as f64,
        "us",
    );
    let wal_bytes = |r: &ClusterRun| r.replicas.iter().map(|x| x.wal_bytes).sum::<u64>() as f64;
    m.put(
        "wal.bytes_per_cmd",
        median(&per_run(&|r| wal_bytes(r) / total as f64)),
        "B/cmd",
    );
    let cpu_ns =
        |r: &ClusterRun| r.replicas.iter().map(|x| x.proc_delta.run_ns).sum::<u64>() as f64;
    let sum_proc = |r: &ClusterRun, get: fn(&procfs::ProcSample) -> u64| {
        r.replicas.iter().map(|x| get(&x.proc_delta)).sum::<u64>() as f64
    };
    m.put(
        "node.cpu_ms_per_kcmd",
        median(&per_run(&|r| cpu_ns(r) / 1e6 / (total as f64 / 1000.0))),
        "ms/kcmd",
    );
    m.put(
        "node.cpu_util",
        median(&per_run(&|r| {
            cpu_ns(r) / (r.drain.as_nanos() as f64 * nproc)
        })),
        "frac",
    );
    m.put(
        "node.runq_wait_ratio",
        median(&per_run(&|r| ratio(sum_proc(r, |p| p.wait_ns), cpu_ns(r)))),
        "frac",
    );
    m.put(
        "node.sys_frac",
        median(&per_run(&|r| {
            ratio(sum_proc(r, |p| p.stime), sum_proc(r, |p| p.utime + p.stime))
        })),
        "frac",
    );
    m.put(
        "node.ctxsw_per_cmd",
        median(&per_run(&|r| sum_proc(r, |p| p.ctxsw) / total as f64)),
        "switch/cmd",
    );
    m.put(
        "node.threads",
        per_run(&|r| {
            r.replicas
                .iter()
                .map(|x| x.proc_delta.threads)
                .max()
                .unwrap_or(0) as f64
        })
        .into_iter()
        .fold(0.0, f64::max),
        "count",
    );
    m.put(
        "cluster.spawn_s",
        median(&per_run(&|r| r.spawn.as_secs_f64())),
        "s",
    );
    m.put(
        "cluster.teardown_s",
        median(&per_run(&|r| r.teardown.as_secs_f64())),
        "s",
    );
    m.put(
        "cluster.drain_skew",
        median(&per_run(&ClusterRun::drain_skew)),
        "frac",
    );

    // The ledger: unit prices times counts, against the CPU the replicas
    // actually burned. The residual is CPU no priced layer accounts for.
    let wal_ns = price::wal_append(&args.out_dir.join("wal-price.log"), &twin_round.log)
        .map_err(|e| format!("pricing the WAL: {e}"))?;
    let w = price::wire(&tally.sample, twin.n);
    let wire_per_cmd = ratio(tally.wire_msgs as f64, twin_round.commands as f64);
    let slots_per_cmd = ratio(twin_round.slots as f64, twin_round.commands as f64);
    let priced_ns_per_cmd = ratio(twin_handler_ns, twin_round.commands as f64)
        + wire_per_cmd
            * (w.encode_ns + w.decode_ns + w.tag_ns + w.verify_ns + mesh.transport_ns_per_frame)
        + wal_ns * slots_per_cmd * shape.n as f64;
    m.put(
        "ledger.priced_frac",
        ratio(
            priced_ns_per_cmd,
            median(&per_run(&|r| cpu_ns(r) / total as f64)),
        ),
        "frac",
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        summary,
        spans,
    })
}
