//! Simulator rounds: one closed-loop client population drained through the
//! full replica stack on `net::sim`, optionally with benchmark-owned
//! wrappers around each replica and proposal source that price every
//! layer from outside the program.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minsync_adversary::SilentNode;
use minsync_broadcast::RbMsg;
use minsync_core::{CbId, ConsensusConfig, ProtocolMsg, RbTag};
use minsync_harness::TopologySpec;
use minsync_net::sim::{OutputRecord, SimBuilder};
use minsync_net::{Env, Node, TimerId};
use minsync_smr::{ProposalSource, ReplicaNode, SmrEvent, SmrMsg};
use minsync_telemetry::Registry;
use minsync_types::{ProcessId, SystemConfig};
use minsync_workload::{account, command, ArrivalProcess, Batch, BatchingSource, WorkloadSpec};

use crate::spans::Span;
use crate::stats::{layer_of, nearest_rank, quorum_pick, LAYERS};

/// Replica-to-replica message of the batched log.
pub type Msg = SmrMsg<Batch>;
type Out = SmrEvent<Batch>;

/// Layer index of handler time a timer firing causes. With checkpoint
/// retry off (the default) the only timers armed are eventual agreement's
/// round timers (Figure 3), so timer-driven steps are charged to `ea`.
const TIMER_LAYER: usize = 2;
/// Layer index of the replica's start-up step (the SMR layer opens slot 1).
const START_LAYER: usize = 4;
/// Every `SAMPLE_EVERY`-th cross-replica delivery is kept for pricing the
/// wire and MAC layers on the workload's own message mix.
const SAMPLE_EVERY: u64 = 16;
/// Cap on kept messages per replica.
const SAMPLE_CAP: usize = 4096;
/// Cap on handler spans kept per replica per round.
const SPAN_CAP: usize = 1024;
/// Caps on what one run keeps in total: enough for stable percentiles and
/// prices, small enough that a long traced run stays within a few tens of
/// MiB and prices its sample in well under a second.
const STEP_KEEP: usize = 1 << 22;
const SAMPLE_KEEP: usize = 1 << 14;
const SPAN_KEEP: usize = 1 << 16;

/// One simulated deployment: system size, routing groups, Byzantine
/// riders, network, and the closed-loop client population.
#[derive(Clone, Debug)]
pub struct Shape {
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Routing groups `m`.
    pub groups: usize,
    /// Silent Byzantine replicas, in the top ids.
    pub silent: usize,
    /// Network shape.
    pub topology: TopologySpec,
    /// Batch cap.
    pub batch: usize,
    /// Closed-loop clients per group (think time 0).
    pub clients_per_group: usize,
    /// Commands each client issues per round.
    pub commands_per_client: usize,
}

impl Shape {
    /// Correct replicas (ids `0..correct`).
    pub fn correct(&self) -> usize {
        self.n - self.silent
    }

    /// Commands one round submits.
    pub fn total(&self) -> usize {
        self.groups * self.clients_per_group * self.commands_per_client
    }
}

/// What one round measured and checked.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Workload generation plus simulator build.
    pub setup: Duration,
    /// `run_until` entry to the slowest correct replica's last commit.
    pub drain: Duration,
    /// Commands submitted.
    pub commands: u64,
    /// Why the round failed its checks, if it did.
    pub failure: Option<String>,
    /// Submit→commit latency in virtual ticks, `(t+1)`-th smallest
    /// per-replica percentile.
    pub p50_ticks: f64,
    /// 99th percentile, ticks.
    pub p99_ticks: f64,
    /// Submit→commit wall-clock latency of the simulated clients, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Messages handed to the simulated network.
    pub messages: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Timer firings delivered.
    pub timers: u64,
    /// Event-queue high-water mark.
    pub queue_max: usize,
    /// Log slots committed at replica 0.
    pub slots: u64,
    /// Benchmark time spent in the stop predicate during the drain.
    pub predicate: Duration,
    /// Messages sent per kind (traced rounds only).
    pub kinds: Vec<(&'static str, u64)>,
    /// Replica 0's committed log (kept for pricing the WAL).
    pub log: Vec<Batch>,
}

/// Per-layer counts and times gathered by the wrappers of traced rounds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every handler invocation's wall time, ns.
    pub step_ns: Vec<u32>,
    /// Handler ns per protocol layer of the triggering message.
    pub layer_ns: [u64; 5],
    /// Handler invocations per layer.
    pub layer_steps: [u64; 5],
    /// Most live consensus instances any replica held after a step.
    pub live_max: usize,
    /// Most buffered future-slot messages any replica held after a step.
    pub buffered_max: usize,
    /// Future-slot messages dropped, summed over replicas.
    pub future_drops: u64,
    /// Retired-slot messages refused, summed over replicas.
    pub retired_drops: u64,
    /// Highest protocol round seen per slot, over all replicas.
    pub slot_rounds: BTreeMap<u64, u64>,
    /// Cross-replica deliveries (the traffic a socket substrate frames).
    pub wire_msgs: u64,
    /// Sampled cross-replica deliveries: `(from, to, message)`.
    pub sample: Vec<(usize, usize, Msg)>,
    /// Kept spans.
    pub spans: Vec<Span>,
    /// Committed slots seen by the sources (summed over replicas).
    pub slots: u64,
    /// Commands in those slots.
    pub slot_cmds: u64,
    /// Empty (no-op) slots among them.
    pub empty_slots: u64,
}

impl Tally {
    /// Adds `other`'s counts, times and samples to this tally.
    pub fn absorb(&mut self, other: Tally) {
        fn take_upto<T>(into: &mut Vec<T>, from: Vec<T>, cap: usize) {
            let room = cap.saturating_sub(into.len());
            into.extend(from.into_iter().take(room));
        }
        take_upto(&mut self.step_ns, other.step_ns, STEP_KEEP);
        for l in 0..LAYERS.len() {
            self.layer_ns[l] += other.layer_ns[l];
            self.layer_steps[l] += other.layer_steps[l];
        }
        self.live_max = self.live_max.max(other.live_max);
        self.buffered_max = self.buffered_max.max(other.buffered_max);
        self.future_drops += other.future_drops;
        self.retired_drops += other.retired_drops;
        for (slot, r) in other.slot_rounds {
            let e = self.slot_rounds.entry(slot).or_insert(0);
            *e = (*e).max(r);
        }
        self.wire_msgs += other.wire_msgs;
        take_upto(&mut self.sample, other.sample, SAMPLE_KEEP);
        take_upto(&mut self.spans, other.spans, SPAN_KEEP);
        self.slots += other.slots;
        self.slot_cmds += other.slot_cmds;
        self.empty_slots += other.empty_slots;
    }

    /// Merges `tally` into the shared sink (a poisoned sink means another
    /// wrapper panicked; that panic already fails the run).
    fn flush_into(tally: Tally, sink: &Mutex<Tally>) {
        if let Ok(mut s) = sink.lock() {
            s.absorb(tally);
        }
    }
}

/// The slot a message is about.
fn slot_of(msg: &Msg) -> u64 {
    match msg {
        SmrMsg::Slot { slot, .. }
        | SmrMsg::Ack { slot }
        | SmrMsg::Checkpoint { slot, .. }
        | SmrMsg::SigAck { slot, .. }
        | SmrMsg::CertCheckpoint { slot, .. } => *slot,
    }
}

/// The protocol round a slot message belongs to, if it is round-scoped.
fn round_of(msg: &Msg) -> Option<u64> {
    let SmrMsg::Slot { msg, .. } = msg else {
        return None;
    };
    let tag = match msg {
        ProtocolMsg::EaProp2 { round, .. }
        | ProtocolMsg::EaCoord { round, .. }
        | ProtocolMsg::EaRelay { round, .. } => return Some(round.get()),
        ProtocolMsg::Rb(rb) => match rb {
            RbMsg::Init { tag, .. } | RbMsg::Echo { tag, .. } | RbMsg::Ready { tag, .. } => tag,
        },
    };
    match tag {
        RbTag::AcEst(r) | RbTag::CbVal(CbId::AcProp(r)) | RbTag::CbVal(CbId::EaProp(r)) => {
            Some(r.get())
        }
        RbTag::CbVal(CbId::ConsValid) | RbTag::Decide => None,
    }
}

/// Benchmark-owned wrapper around one replica: times every handler call
/// and reads the replica's public gauges after it.
struct Probe<P: ProposalSource<Batch>> {
    inner: ReplicaNode<Batch, P>,
    me: usize,
    epoch: Instant,
    tally: Tally,
    sink: Arc<Mutex<Tally>>,
}

impl<P: ProposalSource<Batch>> Probe<P> {
    fn step(
        &mut self,
        cause: &'static str,
        layer: usize,
        req: u64,
        run: impl FnOnce(&mut ReplicaNode<Batch, P>),
    ) {
        let start = Instant::now();
        run(&mut self.inner);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let t = &mut self.tally;
        t.step_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        t.layer_ns[layer] += ns;
        t.layer_steps[layer] += 1;
        t.live_max = t.live_max.max(self.inner.live_instances());
        t.buffered_max = t.buffered_max.max(self.inner.buffered_len());
        if t.spans.len() < SPAN_CAP {
            t.spans.push(Span::between(
                "smr.step",
                cause,
                self.epoch,
                start,
                end,
                req,
                self.me as u32,
            ));
        }
    }
}

impl<P: ProposalSource<Batch>> Node for Probe<P> {
    type Msg = Msg;
    type Output = Out;

    fn on_start(&mut self, env: &mut Env<Msg, Out>) {
        self.step("start", START_LAYER, 0, |n| n.on_start(env));
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, env: &mut Env<Msg, Out>) {
        let kind = SmrMsg::classify(&msg);
        let slot = slot_of(&msg);
        if let Some(r) = round_of(&msg) {
            let e = self.tally.slot_rounds.entry(slot).or_insert(0);
            *e = (*e).max(r);
        }
        if from.index() != self.me {
            self.tally.wire_msgs += 1;
            if self.tally.wire_msgs.is_multiple_of(SAMPLE_EVERY)
                && self.tally.sample.len() < SAMPLE_CAP
            {
                self.tally.sample.push((from.index(), self.me, msg.clone()));
            }
        }
        let layer = layer_of(kind).unwrap_or(START_LAYER);
        self.step(kind, layer, slot, |n| n.on_message(from, msg, env));
    }

    fn on_timer(&mut self, timer: TimerId, env: &mut Env<Msg, Out>) {
        self.step("timer", TIMER_LAYER, 0, |n| n.on_timer(timer, env));
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

impl<P: ProposalSource<Batch>> Drop for Probe<P> {
    fn drop(&mut self) {
        let mut tally = std::mem::take(&mut self.tally);
        tally.future_drops += self.inner.future_drops();
        tally.retired_drops += self.inner.retired_drops();
        Tally::flush_into(tally, &self.sink);
    }
}

/// Benchmark-owned wrapper around one replica's proposal source: counts
/// the batches the log commits.
struct CountingSource {
    inner: BatchingSource,
    tally: Tally,
    sink: Arc<Mutex<Tally>>,
}

impl ProposalSource<Batch> for CountingSource {
    fn propose(&mut self, slot: u64) -> Batch {
        self.inner.propose(slot)
    }

    fn on_commit(&mut self, slot: u64, value: &Batch) {
        self.tally.slots += 1;
        self.tally.slot_cmds += value.len() as u64;
        self.tally.empty_slots += u64::from(value.is_empty());
        self.inner.on_commit(slot, value);
    }
}

impl Drop for CountingSource {
    fn drop(&mut self) {
        Tally::flush_into(std::mem::take(&mut self.tally), &self.sink);
    }
}

/// The incremental stop predicate: folds only the outputs appended since
/// its last call, so its cost per call does not grow with the run, and
/// stamps each commit with the wall clock to give the simulated clients'
/// wall-clock latency.
struct Drain {
    correct: usize,
    total: usize,
    seen: usize,
    cmds: Vec<usize>,
    finished: usize,
    /// Per replica, per client: ns since `start` of the client's last
    /// commit (its next command's submit time, think time being zero).
    last: Vec<Vec<u64>>,
    /// Per replica: wall-clock latency of every command, ns.
    lat: Vec<Vec<u64>>,
    start: Instant,
    deadline: Instant,
    done_at: Option<Duration>,
    predicate: Duration,
}

impl Drain {
    fn new(shape: &Shape, start: Instant, deadline: Instant) -> Drain {
        let clients = shape.groups * shape.clients_per_group;
        Drain {
            correct: shape.correct(),
            total: shape.total(),
            seen: 0,
            cmds: vec![0; shape.correct()],
            finished: 0,
            last: vec![vec![0; clients]; shape.correct()],
            lat: vec![Vec::with_capacity(shape.total()); shape.correct()],
            start,
            deadline,
            done_at: None,
            predicate: Duration::ZERO,
        }
    }

    fn observe(&mut self, outs: &[OutputRecord<Out>]) -> bool {
        let now = Instant::now();
        let at = now.duration_since(self.start).as_nanos() as u64;
        for rec in &outs[self.seen..] {
            let p = rec.process.index();
            let Some((_, batch)) = rec.event.as_committed() else {
                continue;
            };
            if p >= self.correct {
                continue;
            }
            for &cmd in batch.commands() {
                let c = command::client_of(cmd) as usize;
                self.lat[p].push(at - self.last[p][c]);
                self.last[p][c] = at;
            }
            let before = self.cmds[p];
            self.cmds[p] += batch.len();
            if before < self.total && self.cmds[p] >= self.total {
                self.finished += 1;
            }
        }
        self.seen = outs.len();
        let done = self.finished == self.correct;
        if done {
            self.done_at = Some(now.duration_since(self.start));
        }
        self.predicate += now.elapsed();
        done || now >= self.deadline
    }
}

/// Replica `p`'s committed commands, flattened in log order.
fn flat_log(outputs: &[OutputRecord<Out>], p: usize) -> Vec<u64> {
    outputs
        .iter()
        .filter(|o| o.process.index() == p)
        .filter_map(|o| o.event.as_committed())
        .flat_map(|(_, b)| b.commands().iter().copied())
        .collect()
}

/// Checks that every correct replica committed the same first `total`
/// commands and that each client's commands appear once, in order.
fn check_logs(outputs: &[OutputRecord<Out>], correct: usize, total: usize) -> Option<String> {
    let logs: Vec<Vec<u64>> = (0..correct).map(|p| flat_log(outputs, p)).collect();
    for (p, log) in logs.iter().enumerate() {
        if log.len() < total {
            return Some(format!("replica {p} stalled at {}/{total}", log.len()));
        }
        if log[..total] != logs[0][..total] {
            return Some(format!("replica {p} diverged from replica 0"));
        }
    }
    let mut next: BTreeMap<u64, u64> = BTreeMap::new();
    for &cmd in &logs[0][..total] {
        let expected = next.entry(command::client_of(cmd)).or_insert(0);
        if command::seq_of(cmd) != *expected {
            return Some(format!(
                "client {} committed seq {} before seq {}",
                command::client_of(cmd),
                command::seq_of(cmd),
                expected
            ));
        }
        *expected += 1;
    }
    None
}

/// Runs one round on the simulator under `seed`. With `trace`, every
/// replica and source is wrapped and their tallies land in the sink when
/// the simulator is dropped.
pub fn run_round(
    shape: &Shape,
    seed: u64,
    trace: Option<(&Arc<Mutex<Tally>>, Instant)>,
    deadline: Instant,
) -> RoundResult {
    let setup_start = Instant::now();
    let system = SystemConfig::new(shape.n, shape.t).expect("valid system size");
    let pop = WorkloadSpec {
        groups: shape.groups,
        clients_per_group: shape.clients_per_group,
        commands_per_client: shape.commands_per_client,
        arrivals: ArrivalProcess::ClosedLoop { think: 0 },
        seed,
    }
    .generate(&system)
    .expect("feasible workload");
    let topology = shape.topology.build(&system).expect("valid topology");
    let cfg = ConsensusConfig::paper(system);
    let target = pop.slots_upper_bound(shape.batch);
    let registry = Registry::new();
    let mut builder = SimBuilder::new(topology)
        .seed(seed)
        .max_events(1_000_000_000);
    if trace.is_some() {
        builder = builder.classify(SmrMsg::classify);
    }
    for i in 0..shape.correct() {
        let source = pop.source_for(i, shape.batch);
        builder = match trace {
            None => builder.node(ReplicaNode::new(cfg, source, target).with_registry(&registry)),
            Some((sink, epoch)) => {
                let source = CountingSource {
                    inner: source,
                    tally: Tally::default(),
                    sink: Arc::clone(sink),
                };
                builder.node(Probe {
                    inner: ReplicaNode::new(cfg, source, target).with_registry(&registry),
                    me: i,
                    epoch,
                    tally: Tally::default(),
                    sink: Arc::clone(sink),
                })
            }
        };
    }
    for _ in 0..shape.silent {
        builder = builder.node(SilentNode::<Msg, Out>::new());
    }
    let mut sim = builder.build();
    let setup = setup_start.elapsed();

    let start = Instant::now();
    let mut drain = Drain::new(shape, start, deadline);
    let report = sim.run_until(|outs| drain.observe(outs));
    drop(sim); // flushes the wrappers' tallies
    let total = shape.total();
    let correct = shape.correct();

    let mut failure = match drain.done_at {
        None => Some(format!(
            "not drained before the deadline ({:?})",
            report.reason
        )),
        Some(_) => check_logs(&report.outputs, correct, total),
    };
    let future_drops = registry.snapshot().counter("smr.future_drops").unwrap_or(0);
    if failure.is_none() && future_drops > 0 {
        failure = Some(format!("{future_drops} future-slot messages dropped"));
    }

    let (mut p50_ticks, mut p99_ticks, mut p50_ms, mut p99_ms) = (vec![], vec![], vec![], vec![]);
    for p in 0..correct {
        let lat = account(&pop, &report.outputs, ProcessId::new(p)).latency;
        p50_ticks.push(lat.p50 as f64);
        p99_ticks.push(lat.p99 as f64);
        let mut wall = std::mem::take(&mut drain.lat[p]);
        wall.sort_unstable();
        p50_ms.push(nearest_rank(&wall, 50.0).unwrap_or(0) as f64 / 1e6);
        p99_ms.push(nearest_rank(&wall, 99.0).unwrap_or(0) as f64 / 1e6);
    }
    let pick = |v: &[f64]| quorum_pick(v, shape.t).unwrap_or(0.0);
    let log: Vec<Batch> = report
        .outputs
        .iter()
        .filter(|o| o.process.index() == 0)
        .filter_map(|o| o.event.as_committed().map(|(_, b)| b.clone()))
        .collect();
    RoundResult {
        setup,
        drain: drain.done_at.unwrap_or_else(|| start.elapsed()),
        commands: total as u64,
        failure,
        p50_ticks: pick(&p50_ticks),
        p99_ticks: pick(&p99_ticks),
        p50_ms: pick(&p50_ms),
        p99_ms: pick(&p99_ms),
        messages: report.metrics.messages_sent,
        events: report.metrics.events_processed,
        timers: report.metrics.timers_fired,
        queue_max: report.metrics.max_queue_len,
        slots: log.len() as u64,
        predicate: drain.predicate,
        kinds: report.metrics.kind_counts(),
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_types::Round;

    fn tiny(silent: usize, topology: TopologySpec) -> Shape {
        Shape {
            n: 4,
            t: 1,
            groups: 1,
            silent,
            topology,
            batch: 4,
            clients_per_group: 8,
            commands_per_client: 4,
        }
    }

    #[test]
    fn a_clean_round_passes_its_checks() {
        let shape = tiny(0, TopologySpec::AllTimely { delta: 3 });
        let deadline = Instant::now() + Duration::from_secs(60);
        let r = run_round(&shape, 5, None, deadline);
        assert_eq!(r.failure, None);
        assert_eq!(r.commands, 32);
        assert!(r.messages > 0 && r.p50_ticks > 0.0 && r.p50_ms > 0.0);
    }

    #[test]
    fn traced_rounds_fill_the_tally_without_changing_the_protocol() {
        let shape = tiny(
            1,
            TopologySpec::standard(0, &SystemConfig::new(4, 1).unwrap()),
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        let plain = run_round(&shape, 9, None, deadline);
        let sink = Arc::new(Mutex::new(Tally::default()));
        let traced = run_round(&shape, 9, Some((&sink, Instant::now())), deadline);
        assert_eq!(traced.failure, None);
        assert_eq!(plain.messages, traced.messages, "wrappers are passive");
        assert_eq!(plain.p50_ticks, traced.p50_ticks);
        let tally = sink.lock().unwrap();
        assert!(
            tally.layer_steps.iter().all(|&s| s > 0),
            "{:?}",
            tally.layer_steps
        );
        assert_eq!(
            tally.slot_cmds,
            3 * 32,
            "three correct sources saw every command"
        );
        assert!(!tally.slot_rounds.is_empty() && !tally.sample.is_empty());
    }

    #[test]
    fn rounds_are_read_off_round_scoped_messages() {
        let r = Round::new(3);
        let ea: Msg = SmrMsg::Slot {
            slot: 7,
            msg: ProtocolMsg::EaRelay {
                round: r,
                value: None,
            },
        };
        assert_eq!((slot_of(&ea), round_of(&ea)), (7, Some(3)));
        let ac: Msg = SmrMsg::Slot {
            slot: 2,
            msg: ProtocolMsg::Rb(RbMsg::Echo {
                origin: ProcessId::new(1),
                tag: RbTag::AcEst(r),
                value: Batch::default(),
            }),
        };
        assert_eq!(round_of(&ac), Some(3));
        let ack: Msg = SmrMsg::Ack { slot: 4 };
        assert_eq!((slot_of(&ack), round_of(&ack)), (4, None));
    }

    #[test]
    fn divergent_logs_fail_the_check() {
        let rec = |p: usize, slot: u64, cmds: Vec<u64>| OutputRecord {
            time: minsync_net::VirtualTime::from_ticks(slot),
            process: ProcessId::new(p),
            event: SmrEvent::Committed {
                slot,
                command: Batch(cmds),
            },
        };
        let a = command::encode(0, 0);
        let b = command::encode(0, 1);
        let good = vec![rec(0, 1, vec![a, b]), rec(1, 1, vec![a, b])];
        assert_eq!(check_logs(&good, 2, 2), None);
        let diverged = vec![rec(0, 1, vec![a, b]), rec(1, 1, vec![b, a])];
        assert!(check_logs(&diverged, 2, 2).unwrap().contains("diverged"));
        let reordered = vec![rec(0, 1, vec![b, a]), rec(1, 1, vec![b, a])];
        assert!(check_logs(&reordered, 2, 2).unwrap().contains("before seq"));
        let stalled = vec![rec(0, 1, vec![a]), rec(1, 1, vec![a, b])];
        assert!(check_logs(&stalled, 2, 2).unwrap().contains("stalled"));
    }
}
