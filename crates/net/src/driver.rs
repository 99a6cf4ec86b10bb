//! The wall-clock driver: one process's sans-io [`Node`] run against real
//! time.
//!
//! Both wall-clock substrates — the threaded runtime ([`crate::threaded`])
//! and the TCP mesh (`minsync-transport`) — run every process through one
//! [`Driver`]. The driver owns the node, its [`Env`], the [`WallClock`] and a
//! single due-ordered queue holding the process's pending timers and any
//! deliveries scheduled for later. It applies the timer and halt effects
//! itself; the effects that leave the process — sends, broadcasts and
//! outputs — go to the substrate through one seam, the [`Outbox`] trait. A
//! substrate is then only its transport: how a message reaches the peer's
//! driver.
//!
//! Tracing is optional and passive. With a [`TraceRecorder`] attached the
//! driver records `TimerFired`, `HandlerStep` — the handler call alone,
//! recorded before the substrate sees the invocation's effects — and the
//! `INBOX` dequeue of every delivery that waited in an inbox, alongside the
//! effect events the [`Env`] records itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minsync_telemetry::trace::{queues, TraceKind, TraceRecorder};
use minsync_types::ProcessId;

use crate::{Effect, Env, Node, TimerId, VirtualTime};

/// Wall-clock time measured in virtual ticks from a run's start instant.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
    tick: Duration,
}

impl WallClock {
    /// A clock whose tick zero is `start`, advancing one tick per `tick`.
    pub fn new(start: Instant, tick: Duration) -> Self {
        WallClock { start, tick }
    }

    /// Wall-clock time since the start instant.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The tick `at` falls in.
    pub fn ticks_at(&self, at: Instant) -> VirtualTime {
        let nanos = at.saturating_duration_since(self.start).as_nanos();
        VirtualTime::from_ticks((nanos / self.tick.as_nanos().max(1)) as u64)
    }

    /// The current tick.
    pub fn now(&self) -> VirtualTime {
        self.ticks_at(Instant::now())
    }

    /// The instant `ticks` ticks after `from`.
    pub fn after(&self, from: Instant, ticks: u64) -> Instant {
        from + self.tick * u32::try_from(ticks).unwrap_or(u32::MAX)
    }
}

/// Where a [`Driver`] hands the effects it does not apply itself.
pub trait Outbox<M, O> {
    /// Carries `msg` over the channel to `to` (possibly this process).
    fn send(&mut self, to: ProcessId, msg: M);
    /// Carries one copy of `msg` to every process, this one included.
    fn broadcast(&mut self, msg: M);
    /// Emits an observable event, `elapsed` after the run started.
    fn output(&mut self, elapsed: Duration, event: O);
    /// Sees every invocation's complete effect list before it is applied
    /// (recorded runs). The default ignores it.
    fn observe(&mut self, effects: &[Effect<M, O>]) {
        let _ = effects;
    }
}

/// What falls due in a driver's queue.
enum Due<M> {
    Timer(TimerId),
    Deliver { from: ProcessId, msg: M },
}

/// One process's node, run in wall-clock time (see the module docs).
pub struct Driver<M, O> {
    me: ProcessId,
    node: Box<dyn Node<Msg = M, Output = O>>,
    env: Env<M, O>,
    clock: WallClock,
    /// Pending timers and scheduled deliveries, keyed `(due, push order)`.
    queue: BTreeMap<(Instant, u64), Due<M>>,
    seq: u64,
    halted: bool,
    trace: Option<Arc<TraceRecorder>>,
    /// Deliveries waiting in this process's inbox, maintained only when
    /// tracing (it labels the `INBOX` events).
    inbox_depth: Arc<AtomicU64>,
}

impl<M, O> Driver<M, O>
where
    M: Clone + std::fmt::Debug + Send + 'static,
    O: Clone + std::fmt::Debug + Send + 'static,
{
    /// Wraps `node` as process `me` of `n`, its node-visible random stream
    /// seeded from `seed`. With `trace` set, the env's effects and the
    /// driver's own events are mirrored into the ring.
    pub fn new(
        me: ProcessId,
        n: usize,
        node: Box<dyn Node<Msg = M, Output = O>>,
        seed: u64,
        clock: WallClock,
        trace: Option<Arc<TraceRecorder>>,
    ) -> Self {
        let mut env = Env::new(n, seed);
        if let Some(trace) = &trace {
            env.set_trace(Arc::clone(trace));
        }
        Driver {
            me,
            node,
            env,
            clock,
            queue: BTreeMap::new(),
            seq: 0,
            halted: false,
            trace,
            inbox_depth: Arc::new(AtomicU64::new(0)),
        }
    }

    /// True once the node has queued [`Effect::Halt`]; nothing is invoked
    /// after that.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The inbox depth counter, for substrates whose inbox is filled by
    /// other threads: they add one per traced enqueue, and
    /// [`Driver::dequeue`] takes one off.
    pub fn inbox_depth(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.inbox_depth)
    }

    /// Runs the node's `on_start`.
    pub fn start(&mut self, io: &mut impl Outbox<M, O>) {
        self.invoke(io, |node, env| node.on_start(env));
    }

    /// Delivers `msg` from `from` now, for traffic that never waits in an
    /// inbox (the mesh's self-channel).
    pub fn deliver(&mut self, from: ProcessId, msg: M, io: &mut impl Outbox<M, O>) {
        if !self.halted {
            self.invoke(io, |node, env| node.on_message(from, msg, env));
        }
    }

    /// Delivers `msg` from `from` now, recording it as an `INBOX` dequeue.
    pub fn dequeue(&mut self, from: ProcessId, msg: M, io: &mut impl Outbox<M, O>) {
        if self.halted {
            return;
        }
        if self.trace.is_some() {
            let depth = self
                .inbox_depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                    Some(d.saturating_sub(1))
                })
                .unwrap_or(0)
                .saturating_sub(1);
            self.record(
                self.clock.now(),
                TraceKind::Dequeue {
                    queue: queues::INBOX,
                    depth,
                },
            );
        }
        self.deliver(from, msg, io);
    }

    /// Schedules `msg` from `from` for delivery once `due` has passed.
    pub fn schedule(&mut self, due: Instant, from: ProcessId, msg: M) {
        self.push(due, Due::Deliver { from, msg });
    }

    /// Runs everything due by now, in due order: timer firings (unless
    /// cancelled) and scheduled deliveries. Stops early if the node halts.
    pub fn run_due(&mut self, io: &mut impl Outbox<M, O>) {
        let now = Instant::now();
        if self.trace.is_some() {
            self.note_falling_due(now);
        }
        while let Some(entry) = self.queue.first_entry() {
            if self.halted || entry.key().0 > now {
                break;
            }
            match entry.remove() {
                Due::Timer(id) => {
                    if self.env.timers_mut().try_fire(id) {
                        self.record(self.clock.now(), TraceKind::TimerFired);
                        self.invoke(io, |node, env| node.on_timer(id, env));
                    }
                }
                Due::Deliver { from, msg } => self.dequeue(from, msg, io),
            }
        }
    }

    /// How long to block for new input: until the next queued entry falls
    /// due, at most `cap`.
    pub fn next_wait(&self, cap: Duration) -> Duration {
        self.queue
            .first_key_value()
            .map_or(cap, |(&(due, _), _)| {
                due.saturating_duration_since(Instant::now())
            })
            .min(cap)
    }

    /// Records the scheduled deliveries due by `now` as `INBOX` enqueues,
    /// each stamped at the tick it fell due, so an enqueue/dequeue pair
    /// measures the time from falling due until handled.
    fn note_falling_due(&self, now: Instant) {
        for (&(due, _), item) in self.queue.range(..=(now, u64::MAX)) {
            if matches!(item, Due::Timer(_)) {
                continue;
            }
            let depth = self.inbox_depth.fetch_add(1, Ordering::Relaxed) + 1;
            self.record(
                self.clock.ticks_at(due),
                TraceKind::Enqueue {
                    queue: queues::INBOX,
                    depth,
                },
            );
        }
    }

    fn push(&mut self, due: Instant, item: Due<M>) {
        self.queue.insert((due, self.seq), item);
        self.seq += 1;
    }

    fn record(&self, at: VirtualTime, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            trace.record_at(at.ticks(), self.me.index() as u32, kind);
        }
    }

    /// One handler invocation: prepare the env, run the handler (timed when
    /// tracing), then apply what it queued.
    fn invoke(
        &mut self,
        io: &mut impl Outbox<M, O>,
        handler: impl FnOnce(&mut dyn Node<Msg = M, Output = O>, &mut Env<M, O>),
    ) {
        self.env.prepare(self.me, self.clock.now());
        let step = self.trace.as_ref().map(|_| Instant::now());
        handler(self.node.as_mut(), &mut self.env);
        if let Some(step) = step {
            let nanos = step.elapsed().as_nanos() as u64;
            self.record(self.clock.now(), TraceKind::HandlerStep { nanos });
        }
        let mut effects = self.env.take_buffer();
        io.observe(&effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => io.send(to, msg),
                Effect::Broadcast { msg } => io.broadcast(msg),
                Effect::SetTimer { id, delay } => {
                    self.env.timers_mut().arm(id);
                    self.push(self.clock.after(Instant::now(), delay), Due::Timer(id));
                }
                Effect::CancelTimer { id } => self.env.timers_mut().cancel(id),
                Effect::Output(event) => io.output(self.clock.elapsed(), event),
                Effect::Halt => self.halted = true,
            }
        }
        self.env.restore_buffer(effects);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_telemetry::trace::TraceEvent;

    /// Collects what reaches the substrate and, when tracing, the ring as
    /// it stood each time an invocation's effects arrived.
    #[derive(Default)]
    struct Collect {
        sent: Vec<u32>,
        outputs: Vec<&'static str>,
        trace: Option<Arc<TraceRecorder>>,
        ring_at_observe: Vec<Vec<TraceEvent>>,
    }

    impl Outbox<u32, &'static str> for Collect {
        fn send(&mut self, _to: ProcessId, msg: u32) {
            self.sent.push(msg);
        }
        fn broadcast(&mut self, msg: u32) {
            self.sent.push(msg);
        }
        fn output(&mut self, _elapsed: Duration, event: &'static str) {
            self.outputs.push(event);
        }
        fn observe(&mut self, _effects: &[Effect<u32, &'static str>]) {
            if let Some(trace) = &self.trace {
                self.ring_at_observe.push(trace.events());
            }
        }
    }

    /// Arms timers of 3, 1 and 2 ticks on start and cancels the 1-tick one;
    /// each firing outputs its delay. The first message is answered, then
    /// the node halts.
    #[derive(Default)]
    struct Timers {
        delays: Vec<(TimerId, &'static str)>,
    }

    impl Node for Timers {
        type Msg = u32;
        type Output = &'static str;

        fn on_start(&mut self, env: &mut Env<u32, &'static str>) {
            self.delays = vec![(env.set_timer(3), "3"), (env.set_timer(1), "1")];
            self.delays.push((env.set_timer(2), "2"));
            env.cancel_timer(self.delays[1].0);
        }

        fn on_message(&mut self, _: ProcessId, msg: u32, env: &mut Env<u32, &'static str>) {
            env.send(ProcessId::new(1), msg + 1);
            env.halt();
            env.output("halted");
        }

        fn on_timer(&mut self, t: TimerId, env: &mut Env<u32, &'static str>) {
            let (_, delay) = self.delays.iter().find(|(id, _)| *id == t).expect("armed");
            env.output(delay);
        }
    }

    fn driver(tick: Duration, trace: Option<Arc<TraceRecorder>>) -> Driver<u32, &'static str> {
        let clock = WallClock::new(Instant::now(), tick);
        let node = Box::new(Timers::default());
        Driver::new(ProcessId::new(0), 2, node, 7, clock, trace)
    }

    #[test]
    fn timers_fire_in_due_order_and_a_cancelled_one_never() {
        let (mut d, mut io) = (driver(Duration::from_millis(2), None), Collect::default());
        d.start(&mut io);
        std::thread::sleep(Duration::from_millis(20));
        d.run_due(&mut io);
        assert_eq!(io.outputs, ["2", "3"]);
        let cap = Duration::from_millis(5);
        assert_eq!(d.next_wait(cap), cap, "nothing is left pending");
    }

    #[test]
    fn deliveries_wait_until_due_and_nothing_runs_after_halt() {
        let (mut d, mut io) = (driver(Duration::from_secs(1), None), Collect::default());
        d.start(&mut io);
        let later = Instant::now() + Duration::from_secs(60);
        d.schedule(later, ProcessId::new(1), 5);
        d.run_due(&mut io);
        assert!(io.sent.is_empty(), "a delivery is not handled before due");
        d.schedule(Instant::now(), ProcessId::new(1), 9);
        d.run_due(&mut io);
        // The halting step's own effects are all applied...
        assert!(d.halted());
        assert_eq!(
            (&io.sent[..], &io.outputs[..]),
            (&[10][..], &["halted"][..])
        );
        // ...but no later handler runs, whatever the entry point.
        d.deliver(ProcessId::new(1), 1, &mut io);
        d.dequeue(ProcessId::new(1), 2, &mut io);
        d.schedule(Instant::now(), ProcessId::new(1), 3);
        d.run_due(&mut io);
        assert_eq!((io.sent.len(), io.outputs.len()), (1, 1));
    }

    #[test]
    fn handler_step_is_recorded_before_the_substrate_sees_the_effects() {
        let trace = Arc::new(TraceRecorder::new(1024));
        let mut d = driver(Duration::from_secs(1), Some(Arc::clone(&trace)));
        let mut io = Collect {
            trace: Some(Arc::clone(&trace)),
            ..Collect::default()
        };
        d.start(&mut io);
        d.schedule(Instant::now(), ProcessId::new(1), 1);
        d.run_due(&mut io);
        assert_eq!(io.ring_at_observe.len(), 2, "start plus one delivery");
        for (i, ring) in io.ring_at_observe.iter().enumerate() {
            let steps = ring
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::HandlerStep { .. }))
                .count();
            assert_eq!(steps, i + 1, "invocation {i}'s step precedes its effects");
        }
        // The scheduled delivery is traced as one INBOX enqueue/dequeue pair.
        let inbox: Vec<_> = trace
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::Enqueue { queue, depth } if queue == queues::INBOX => Some(depth),
                TraceKind::Dequeue { queue, depth } if queue == queues::INBOX => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(inbox, [1, 0]);
    }
}
