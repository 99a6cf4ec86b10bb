//! Unit prices of the layers a socket substrate adds, measured by calling
//! their public functions from outside: the wire codec and frame MAC on a
//! captured message mix, a WAL-format append, and a loopback round trip
//! through an in-process pair of `TcpMesh`es.

use std::hint::black_box;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minsync_auth::{Authenticator, HmacAuthenticator};
use minsync_net::{Env, Node};
use minsync_transport::mesh::{MeshConfig, TcpMesh};
use minsync_types::ProcessId;
use minsync_wire::{
    decode_frame, encode_frame, encode_frame_tagged, verify_frame_tag, Wire, DEFAULT_MAX_FRAME,
};
use minsync_workload::Batch;

use crate::stats::nearest_rank;

/// Per-message costs of framing and authenticating one message mix.
#[derive(Clone, Copy, Debug, Default)]
pub struct WirePrice {
    /// Mean frame size (header and body, no MAC), bytes.
    pub bytes: f64,
    /// `encode_frame`, ns per message.
    pub encode_ns: f64,
    /// `decode_frame`, ns per message.
    pub decode_ns: f64,
    /// MAC cost of `encode_frame_tagged` over `encode_frame`, ns.
    pub tag_ns: f64,
    /// `verify_frame_tag`, ns per message.
    pub verify_ns: f64,
}

/// Passes over the sample per timing; enough that a pass of a few thousand
/// messages dominates timer resolution.
const REPS: usize = 5;

fn per_msg(elapsed: Duration, msgs: usize) -> f64 {
    elapsed.as_nanos() as f64 / (REPS * msgs).max(1) as f64
}

/// Prices the wire and MAC layers on `sample` — `(from, to, message)`
/// triples of an `n`-replica run.
pub fn wire<T: Wire>(sample: &[(usize, usize, T)], n: usize) -> WirePrice {
    if sample.is_empty() {
        return WirePrice::default();
    }
    let auth = HmacAuthenticator::deal(b"perfbench-pricing", n);
    let mut buf = Vec::with_capacity(1 << 16);
    let frames: Vec<Vec<u8>> = sample
        .iter()
        .map(|(_, _, m)| {
            let mut f = Vec::new();
            encode_frame(m, &mut f, DEFAULT_MAX_FRAME).expect("sampled messages fit a frame");
            f
        })
        .collect();
    let tagged: Vec<Vec<u8>> = sample
        .iter()
        .map(|(from, to, m)| {
            let mut f = Vec::new();
            encode_frame_tagged(
                m,
                &mut f,
                DEFAULT_MAX_FRAME,
                &auth[*from],
                ProcessId::new(*to),
            )
            .expect("sampled messages fit a frame");
            f
        })
        .collect();
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;

    let start = Instant::now();
    for _ in 0..REPS {
        for (_, _, m) in sample {
            buf.clear();
            encode_frame(black_box(m), &mut buf, DEFAULT_MAX_FRAME).expect("fits");
            black_box(&buf);
        }
    }
    let encode_ns = per_msg(start.elapsed(), sample.len());

    let start = Instant::now();
    for _ in 0..REPS {
        for f in &frames {
            black_box(decode_frame::<T>(black_box(&f[4..])).expect("round trip"));
        }
    }
    let decode_ns = per_msg(start.elapsed(), sample.len());

    let start = Instant::now();
    for _ in 0..REPS {
        for (from, to, m) in sample {
            buf.clear();
            let key: &dyn Authenticator = &auth[*from];
            encode_frame_tagged(
                black_box(m),
                &mut buf,
                DEFAULT_MAX_FRAME,
                key,
                ProcessId::new(*to),
            )
            .expect("fits");
            black_box(&buf);
        }
    }
    let tag_ns = (per_msg(start.elapsed(), sample.len()) - encode_ns).max(0.0);

    let start = Instant::now();
    for _ in 0..REPS {
        for ((from, to, _), f) in sample.iter().zip(&tagged) {
            let body = verify_frame_tag(black_box(&f[4..]), &auth[*to], ProcessId::new(*from))
                .expect("genuine tag");
            black_box(body);
        }
    }
    let verify_ns = per_msg(start.elapsed(), sample.len());

    WirePrice {
        bytes,
        encode_ns,
        decode_ns,
        tag_ns,
        verify_ns,
    }
}

/// The replica binary's WAL record for one slot: `<slot> <cmd>… ;`.
pub fn wal_line(slot: u64, batch: &Batch) -> String {
    let mut line = slot.to_string();
    for &cmd in batch.commands() {
        line.push(' ');
        line.push_str(&cmd.to_string());
    }
    line.push_str(" ;\n");
    line
}

/// Prices one WAL append as the replica binary performs it (format the
/// record, `write_all` and `flush` an unbuffered append-mode file), in ns
/// per slot, over `log` written to `path`.
pub fn wal_append(path: &Path, log: &[Batch]) -> std::io::Result<f64> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)?;
    let start = Instant::now();
    for (i, batch) in log.iter().enumerate() {
        let line = wal_line(i as u64 + 1, batch);
        file.write_all(line.as_bytes())?;
        file.flush()?;
    }
    let ns = start.elapsed().as_nanos() as f64 / log.len().max(1) as f64;
    std::fs::remove_file(path)?;
    Ok(ns)
}

/// Round trips timed one at a time.
const PINGS: u32 = 2_000;
/// Echoes in the pipelined phase, and how many may be in flight.
const BULK: u32 = 20_000;
const WINDOW: u32 = 64;

/// Loopback behaviour of the transport.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeshPrice {
    /// Round-trip time of one message with nothing else in flight, µs.
    pub rtt_p50_us: f64,
    /// 99th percentile, µs.
    pub rtt_p99_us: f64,
    /// Frames per second (both directions) with `WINDOW` in flight.
    pub frames_per_s: f64,
    /// Process CPU per frame in the pipelined phase, less the frame's own
    /// codec and MAC cost (priced separately): the transport's share, ns.
    pub transport_ns_per_frame: f64,
}

/// What side 0 of the pair measured.
#[derive(Debug, Default)]
struct PairResult {
    /// Single round trips, ns.
    rtts: Vec<u64>,
    /// Wall time of the pipelined phase.
    bulk: Duration,
    /// Process CPU over the pipelined phase, ns.
    bulk_cpu_ns: u64,
}

/// CPU time of this process's live threads, ns.
fn cpu_ns() -> u64 {
    crate::procfs::read("self").map_or(0, |s| s.run_ns)
}

/// Side 0 of the pair: times single round trips, then keeps `WINDOW`
/// echoes in flight; side 1 echoes everything back.
struct Pinger {
    me: usize,
    sent_at: Instant,
    pings: u32,
    bulk_sent: u32,
    bulk_back: u32,
    bulk_start: Option<(Instant, u64)>,
    result: Arc<Mutex<PairResult>>,
    finished: Arc<AtomicBool>,
}

impl Node for Pinger {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, env: &mut Env<u64, ()>) {
        if self.me == 0 {
            self.sent_at = Instant::now();
            env.send(ProcessId::new(1), 0);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: u64, env: &mut Env<u64, ()>) {
        if self.me == 1 {
            env.send(from, msg);
            return;
        }
        if self.pings < PINGS {
            let rtt = self.sent_at.elapsed().as_nanos() as u64;
            if let Ok(mut r) = self.result.lock() {
                r.rtts.push(rtt);
            }
            self.pings += 1;
            if self.pings < PINGS {
                self.sent_at = Instant::now();
                env.send(from, u64::from(self.pings));
                return;
            }
            self.bulk_start = Some((Instant::now(), cpu_ns()));
            while self.bulk_sent < WINDOW {
                self.bulk_sent += 1;
                env.send(from, u64::from(self.bulk_sent));
            }
            return;
        }
        self.bulk_back += 1;
        if self.bulk_sent < BULK {
            self.bulk_sent += 1;
            env.send(from, u64::from(self.bulk_sent));
        } else if self.bulk_back == BULK {
            if let (Ok(mut r), Some((start, cpu))) = (self.result.lock(), self.bulk_start) {
                r.bulk = start.elapsed();
                r.bulk_cpu_ns = cpu_ns().saturating_sub(cpu);
            }
            self.finished.store(true, Ordering::SeqCst);
            env.output(());
        }
    }
}

/// Runs the in-process `TcpMesh` pair with per-frame authentication on.
pub fn mesh_pair() -> Result<MeshPrice, String> {
    let auth = HmacAuthenticator::deal(b"perfbench-mesh-pair", 2);
    let meshes: Vec<TcpMesh> = (0..2)
        .map(|i| TcpMesh::bind(ProcessId::new(i), "127.0.0.1:0".parse().expect("static")))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bind: {e}"))?;
    let peers: Vec<SocketAddr> = meshes
        .iter()
        .map(TcpMesh::local_addr)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("local_addr: {e}"))?;
    let result = Arc::new(Mutex::new(PairResult::default()));
    let finished = Arc::new(AtomicBool::new(false));
    let timed_out = std::thread::scope(|scope| {
        let handles: Vec<_> = meshes
            .into_iter()
            .zip(auth)
            .enumerate()
            .map(|(i, (mesh, key))| {
                let peers = peers.clone();
                let node = Pinger {
                    me: i,
                    sent_at: Instant::now(),
                    pings: 0,
                    bulk_sent: 0,
                    bulk_back: 0,
                    bulk_start: None,
                    result: Arc::clone(&result),
                    finished: Arc::clone(&finished),
                };
                let finished = Arc::clone(&finished);
                scope.spawn(move || {
                    let config = MeshConfig {
                        timeout: Duration::from_secs(30),
                        auth: Some(Arc::new(key) as Arc<dyn Authenticator>),
                        ..MeshConfig::default()
                    };
                    let report = mesh.run(Box::new(node), &peers, &config, move |_, _| {
                        finished.load(Ordering::SeqCst)
                    });
                    report.timed_out
                })
            })
            .collect();
        // Join both sides before looking at either result.
        let timed_out: Vec<bool> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or(true))
            .collect();
        timed_out.contains(&true)
    });
    if timed_out || !finished.load(Ordering::SeqCst) {
        return Err("mesh pair timed out".into());
    }
    let mut r = std::mem::take(&mut *result.lock().map_err(|_| "mesh pair result poisoned")?);
    r.rtts.sort_unstable();
    let frames = 2.0 * f64::from(BULK);
    let own = wire(&[(0, 1, 0u64), (1, 0, 0u64)], 2);
    let own_ns = own.encode_ns + own.decode_ns + own.tag_ns + own.verify_ns;
    Ok(MeshPrice {
        rtt_p50_us: nearest_rank(&r.rtts, 50.0).unwrap_or(0) as f64 / 1e3,
        rtt_p99_us: nearest_rank(&r.rtts, 99.0).unwrap_or(0) as f64 / 1e3,
        frames_per_s: frames / r.bulk.as_secs_f64().max(1e-9),
        transport_ns_per_frame: (r.bulk_cpu_ns as f64 / frames - own_ns).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Msg;
    use minsync_core::ProtocolMsg;
    use minsync_smr::SmrMsg;
    use minsync_types::Round;

    #[test]
    fn wal_lines_match_the_replica_format() {
        assert_eq!(wal_line(3, &Batch(vec![7, 9])), "3 7 9 ;\n");
        assert_eq!(wal_line(1, &Batch::default()), "1 ;\n");
    }

    #[test]
    fn wire_pricing_round_trips_the_sample() {
        let msg: Msg = SmrMsg::Slot {
            slot: 1,
            msg: ProtocolMsg::EaProp2 {
                round: Round::FIRST,
                value: Batch(vec![1, 2, 3]),
            },
        };
        let p = wire(&[(0, 1, msg.clone()), (2, 0, msg)], 3);
        assert!(p.bytes > 24.0 && p.encode_ns > 0.0 && p.verify_ns > 0.0);
        assert_eq!(wire::<Msg>(&[], 3).bytes, 0.0);
    }
}
