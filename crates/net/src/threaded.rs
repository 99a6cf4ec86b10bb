//! A live, multi-threaded runtime for the same [`Node`] automata the
//! simulator runs.
//!
//! Every process gets an OS thread running one [`Driver`] plus its own
//! inbox. A sender samples the [`NetworkTopology`]'s per-channel delay (one
//! send timestamp per broadcast, one virtual tick =
//! [`ThreadedConfig::tick`]) and pushes `(due, from, msg)` straight into the
//! destination's inbox; the receiving driver delivers the message once it
//! falls due. No send ever blocks: inboxes are unbounded, and a process that
//! has halted drops its inbox, so traffic to it is discarded. Outputs flow to
//! a collector on the calling thread, which evaluates the stop predicate.
//!
//! This runtime exists for the examples — it demonstrates that the sans-io
//! automata are substrate-independent — and makes no determinism promises:
//! that is the simulator's job.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use minsync_telemetry::trace::TraceRecorder;
use minsync_types::ProcessId;
use rand::rngs::SplitMix64;
use rand::SeedableRng;

use crate::{Driver, Effect, NetworkTopology, Node, Outbox, WallClock};

/// Stream-namespace tag of the threaded runtime (`"THRD"`), keeping its
/// derived seeds disjoint from every other consumer of the same base seed.
/// Local indices `1..=n` seed the node envs; [`DELAY_STREAMS`]` + i` seeds
/// process `i`'s delay sampling.
const THREADED_STREAM_TAG: u32 = 0x5448_5244;

/// First local stream index of the per-sender delay-sampling streams.
const DELAY_STREAMS: u32 = 1 << 31;

/// Wall-clock execution parameters.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Wall-clock duration of one virtual tick (delays and timeouts in the
    /// topology/protocol are expressed in ticks).
    pub tick: Duration,
    /// Hard wall-clock cap on the whole run.
    pub timeout: Duration,
    /// RNG seed (per-thread RNGs are derived from it; scheduling is still
    /// OS-dependent, so runs are *not* reproducible).
    pub seed: u64,
    /// Structured-trace hook. When set, every process mirrors its execution
    /// into the ring: effects at the sans-io boundary, `INBOX`
    /// enqueue/dequeue (enqueue stamped when a delivery falls due), timer
    /// firings and per-handler wall-clock step costs. Timestamps are
    /// wall-clock time divided by [`ThreadedConfig::tick`], so dumps line
    /// up with simulator dumps of the same configuration.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            tick: Duration::from_micros(200),
            timeout: Duration::from_secs(30),
            seed: 0,
            trace: None,
        }
    }
}

/// One output event with its wall-clock emission offset.
#[derive(Clone, Debug)]
pub struct ThreadedOutput<O> {
    /// Emitting process.
    pub process: ProcessId,
    /// Wall-clock offset from run start.
    pub elapsed: Duration,
    /// The event.
    pub event: O,
}

/// Result of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedReport<O> {
    /// All outputs, in arrival order at the collector.
    pub outputs: Vec<ThreadedOutput<O>>,
    /// Total wall-clock duration.
    pub elapsed: Duration,
    /// True if the run hit [`ThreadedConfig::timeout`] before the stop
    /// predicate was satisfied.
    pub timed_out: bool,
}

/// One handler invocation's queued effects, as recorded by
/// [`run_threaded_recorded`].
///
/// The stream is ordered per process (each node thread records its own
/// invocations in execution order); interleaving *across* processes follows
/// collector arrival order and is not meaningful. Compare per-process
/// subsequences — that is what the conformance replayer does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedInvocation<M, O> {
    /// The process whose handler ran.
    pub process: ProcessId,
    /// Every effect the handler queued, in emission order (possibly none —
    /// recorded anyway so replays can line invocations up one-to-one).
    pub effects: Vec<Effect<M, O>>,
}

/// A message in flight: the instant it falls due, its sender, the message.
type InFlight<M> = (Instant, ProcessId, M);

/// Runs `nodes` on OS threads until `stop` returns true over the collected
/// outputs, or the timeout elapses.
///
/// # Panics
///
/// Panics if `nodes.len() != topology.n()`.
pub fn run_threaded<M, O>(
    topology: NetworkTopology,
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
    config: ThreadedConfig,
    stop: impl FnMut(&[ThreadedOutput<O>]) -> bool,
) -> ThreadedReport<O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    run_threaded_inner(topology, nodes, config, stop, None)
}

/// Like [`run_threaded`], but additionally records every handler
/// invocation's effect stream — the threaded counterpart of
/// [`SimBuilder::record_effects`](crate::sim::SimBuilder::record_effects),
/// which is what lets conformance fixtures be replayed and checked on this
/// substrate too.
///
/// The returned invocations are in collector arrival order; only the
/// per-process subsequences are deterministic (given deterministic nodes).
///
/// # Panics
///
/// Panics if `nodes.len() != topology.n()`.
pub fn run_threaded_recorded<M, O>(
    topology: NetworkTopology,
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
    config: ThreadedConfig,
    stop: impl FnMut(&[ThreadedOutput<O>]) -> bool,
) -> (ThreadedReport<O>, Vec<RecordedInvocation<M, O>>)
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    let (record_tx, record_rx) = unbounded::<RecordedInvocation<M, O>>();
    let report = run_threaded_inner(topology, nodes, config, stop, Some(record_tx));
    // Every worker thread (and the local clone) has dropped its sender by
    // the time the inner run returns, so this drain terminates.
    let mut recorded = Vec::new();
    while let Ok(inv) = record_rx.try_recv() {
        recorded.push(inv);
    }
    (report, recorded)
}

fn run_threaded_inner<M, O>(
    topology: NetworkTopology,
    nodes: Vec<Box<dyn Node<Msg = M, Output = O>>>,
    config: ThreadedConfig,
    mut stop: impl FnMut(&[ThreadedOutput<O>]) -> bool,
    record: Option<Sender<RecordedInvocation<M, O>>>,
) -> ThreadedReport<O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    assert_eq!(nodes.len(), topology.n(), "node count must match topology");
    let n = nodes.len();
    let clock = WallClock::new(Instant::now(), config.tick);
    let shutdown = Arc::new(AtomicBool::new(false));
    let (output_tx, output_rx) = unbounded::<ThreadedOutput<O>>();
    let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) =
        (0..n).map(|_| unbounded::<InFlight<M>>()).unzip();
    let stream =
        |k: u32| crate::derive_stream(config.seed, crate::stream_of(THREADED_STREAM_TAG, k));

    // Each worker owns its inbox receiver, so a worker that exits (halted,
    // or shut down) disconnects its inbox and later sends to it fail fast.
    let mut handles = Vec::with_capacity(n);
    for (idx, (node, inbox)) in nodes.into_iter().zip(inbox_rxs).enumerate() {
        let me = ProcessId::new(idx);
        let mut wires = Wires {
            me,
            clock,
            topology: topology.clone(),
            rng: SplitMix64::seed_from_u64(stream(DELAY_STREAMS + idx as u32)),
            inboxes: inbox_txs.clone(),
            outputs: output_tx.clone(),
            record: record.clone(),
        };
        let mut driver = Driver::new(
            me,
            n,
            node,
            stream(idx as u32 + 1),
            clock,
            config.trace.clone(),
        );
        let shutdown = Arc::clone(&shutdown);
        handles.push(std::thread::spawn(move || {
            driver.start(&mut wires);
            while !driver.halted() && !shutdown.load(Ordering::Relaxed) {
                driver.run_due(&mut wires);
                match inbox.recv_timeout(driver.next_wait(Duration::from_millis(20))) {
                    Ok((due, from, msg)) => driver.schedule(due, from, msg),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }));
    }
    drop(inbox_txs);
    drop(output_tx);
    drop(record);

    // Collector loop on the calling thread.
    let mut collected: Vec<ThreadedOutput<O>> = Vec::new();
    let mut timed_out = false;
    loop {
        if stop(&collected) {
            break;
        }
        if clock.elapsed() >= config.timeout {
            timed_out = true;
            break;
        }
        match output_rx.recv_timeout(Duration::from_millis(10)) {
            Ok(out) => collected.push(out),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    shutdown.store(true, Ordering::Relaxed);
    // Drain any last outputs without blocking.
    while let Ok(out) = output_rx.try_recv() {
        collected.push(out);
    }
    for h in handles {
        let _ = h.join();
    }
    ThreadedReport {
        outputs: collected,
        elapsed: clock.elapsed(),
        timed_out,
    }
}

/// One process's side of the in-memory network: the [`Outbox`] its driver
/// sends through.
struct Wires<M, O> {
    me: ProcessId,
    clock: WallClock,
    topology: NetworkTopology,
    /// This sender's delay-sampling stream.
    rng: SplitMix64,
    inboxes: Vec<Sender<InFlight<M>>>,
    outputs: Sender<ThreadedOutput<O>>,
    /// Recording channel of [`run_threaded_recorded`] (`None` = plain run).
    record: Option<Sender<RecordedInvocation<M, O>>>,
}

impl<M: Clone, O: Clone> Wires<M, O> {
    /// Samples the `me → to` delay for a message sent at `sent` and hands
    /// it to `to`'s inbox. A closed inbox just means that process is done.
    fn route(&mut self, sent: Instant, to: ProcessId, msg: M) {
        let at = self.clock.ticks_at(sent);
        let delay = self
            .topology
            .timing(self.me, to)
            .delivery_time(at, &mut self.rng)
            - at;
        let due = self.clock.after(sent, delay);
        let _ = self.inboxes[to.index()].send((due, self.me, msg));
    }
}

impl<M: Clone, O: Clone> Outbox<M, O> for Wires<M, O> {
    fn send(&mut self, to: ProcessId, msg: M) {
        self.route(Instant::now(), to, msg);
    }

    fn broadcast(&mut self, msg: M) {
        // One timestamp for the whole fan-out; per-channel delays are still
        // sampled per destination.
        let sent = Instant::now();
        for to in 0..self.inboxes.len() {
            self.route(sent, ProcessId::new(to), msg.clone());
        }
    }

    fn output(&mut self, elapsed: Duration, event: O) {
        let _ = self.outputs.send(ThreadedOutput {
            process: self.me,
            elapsed,
            event,
        });
    }

    fn observe(&mut self, effects: &[Effect<M, O>]) {
        if let Some(tx) = &self.record {
            let _ = tx.send(RecordedInvocation {
                process: self.me,
                effects: effects.to_vec(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelTiming, Env, TimerId};

    struct Pinger;

    impl Node for Pinger {
        type Msg = u32;
        type Output = u32;

        fn on_start(&mut self, env: &mut Env<u32, u32>) {
            if env.me() == ProcessId::new(0) {
                env.broadcast(1);
            }
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, env: &mut Env<u32, u32>) {
            env.output(msg);
            env.halt();
        }
    }

    #[test]
    fn threaded_ping_delivers_to_all() {
        let topo = NetworkTopology::uniform(3, ChannelTiming::timely(1));
        let nodes: Vec<Box<dyn Node<Msg = u32, Output = u32>>> =
            vec![Box::new(Pinger), Box::new(Pinger), Box::new(Pinger)];
        let report = run_threaded(
            topo,
            nodes,
            ThreadedConfig {
                tick: Duration::from_micros(50),
                timeout: Duration::from_secs(10),
                seed: 1,
                trace: None,
            },
            |outs| outs.len() >= 3,
        );
        assert!(!report.timed_out, "threaded run timed out");
        assert_eq!(report.outputs.len(), 3);
        assert!(report.outputs.iter().all(|o| o.event == 1));
    }

    #[test]
    fn recorded_run_captures_per_invocation_effects() {
        let topo = NetworkTopology::uniform(2, ChannelTiming::timely(1));
        let nodes: Vec<Box<dyn Node<Msg = u32, Output = u32>>> =
            vec![Box::new(Pinger), Box::new(Pinger)];
        let (report, recorded) = run_threaded_recorded(
            topo,
            nodes,
            ThreadedConfig {
                tick: Duration::from_micros(50),
                timeout: Duration::from_secs(10),
                seed: 3,
                trace: None,
            },
            |outs| outs.len() >= 2,
        );
        assert!(!report.timed_out, "threaded run timed out");
        let p0: Vec<_> = recorded
            .iter()
            .filter(|r| r.process == ProcessId::new(0))
            .collect();
        // p0's first invocation is on_start, which queued the broadcast.
        assert_eq!(p0[0].effects, [Effect::Broadcast { msg: 1 }]);
        // Every process recorded at least its start invocation.
        assert!(recorded.iter().any(|r| r.process == ProcessId::new(1)));
    }

    struct TimerOnly;

    impl Node for TimerOnly {
        type Msg = ();
        type Output = &'static str;

        fn on_start(&mut self, env: &mut Env<(), &'static str>) {
            let keep = env.set_timer(5);
            let drop_me = env.set_timer(1);
            env.cancel_timer(drop_me);
            let _ = keep;
        }

        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Env<(), &'static str>) {}

        fn on_timer(&mut self, _t: TimerId, env: &mut Env<(), &'static str>) {
            env.output("fired");
            env.halt();
        }
    }

    #[test]
    fn threaded_timers_fire_and_cancel() {
        let topo = NetworkTopology::all_timely(1, 1);
        let report = run_threaded(
            topo,
            vec![Box::new(TimerOnly) as Box<dyn Node<Msg = (), Output = &'static str>>],
            ThreadedConfig {
                tick: Duration::from_micros(100),
                timeout: Duration::from_secs(5),
                seed: 2,
                trace: None,
            },
            |outs| !outs.is_empty(),
        );
        assert!(!report.timed_out);
        assert_eq!(report.outputs.len(), 1, "cancelled timer must not fire");
        assert_eq!(report.outputs[0].event, "fired");
    }

    /// p0 halts at once; p1 then sends p0 more messages than an inbox of
    /// 64 Ki slots would hold.
    struct FloodTheHalted;

    impl Node for FloodTheHalted {
        type Msg = u32;
        type Output = u32;

        fn on_start(&mut self, env: &mut Env<u32, u32>) {
            if env.me() == ProcessId::new(0) {
                env.halt();
            } else {
                for i in 0..70_000 {
                    env.send(ProcessId::new(0), i);
                }
            }
        }

        fn on_message(&mut self, _: ProcessId, _: u32, _: &mut Env<u32, u32>) {}
    }

    #[test]
    fn flooding_a_halted_process_does_not_hang_the_run() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        // The run goes on a thread of its own so a hang fails the test at
        // the watchdog instead of stalling the suite.
        let run = std::thread::spawn(move || {
            let began = Instant::now();
            let nodes: Vec<Box<dyn Node<Msg = u32, Output = u32>>> =
                vec![Box::new(FloodTheHalted), Box::new(FloodTheHalted)];
            let report = run_threaded(
                NetworkTopology::uniform(2, ChannelTiming::timely(1)),
                nodes,
                ThreadedConfig {
                    tick: Duration::from_micros(50),
                    timeout: Duration::from_secs(10),
                    seed: 4,
                    trace: None,
                },
                move |_| began.elapsed() >= Duration::from_secs(2),
            );
            let _ = done_tx.send(report.timed_out);
        });
        let timed_out = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the threaded run hung past its own timeout");
        run.join().expect("the run thread panicked");
        assert!(
            !timed_out,
            "the stop predicate, not the timeout, ends the run"
        );
    }
}
