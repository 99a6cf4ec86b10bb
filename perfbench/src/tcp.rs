//! One localhost cluster of `minsync-node` processes, driven over the
//! replica binary's documented control pipe (`PORT`/`PEERS`/`DONE`/`STOP`)
//! from a single thread, so each phase is timestamped by the benchmark.

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use minsync_auth::HmacAuthenticator;
use minsync_telemetry::Snapshot;
use minsync_transport::cluster::{control, LogDigest};

use crate::procfs::{self, ProcSample};
use crate::stats::quorum_pick;

/// The deployed shape under test.
#[derive(Clone, Debug)]
pub struct ClusterShape {
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Closed-loop clients (one routing group).
    pub clients: usize,
    /// Commands per client.
    pub commands: usize,
    /// Batch cap.
    pub batch: usize,
    /// Wall-clock length of one mesh tick, µs.
    pub tick_us: u64,
}

impl ClusterShape {
    /// Commands one cluster run submits.
    pub fn total(&self) -> usize {
        self.clients * self.commands
    }
}

/// One replica's report plus its `/proc` counters over the drain.
#[derive(Clone, Debug)]
pub struct Replica {
    /// The `STAT v1` block it printed at `DONE`.
    pub snapshot: Snapshot,
    /// Counter growth from `PEERS` to `DONE`.
    pub proc_delta: ProcSample,
    /// Its WAL file's size, bytes.
    pub wal_bytes: u64,
}

impl Replica {
    fn gauge(&self, name: &str) -> u64 {
        self.snapshot.gauge(name).unwrap_or(0)
    }

    /// Mesh start to its last commit, from the replica's own report.
    pub fn wall(&self) -> Duration {
        Duration::from_micros(self.gauge("node.wall_us"))
    }
}

/// What one cluster run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct ClusterRun {
    /// First spawn until every child announced its port.
    pub spawn: Duration,
    /// First spawn until every child was handed the peer list.
    pub setup: Duration,
    /// `STOP` sent until the last child was reaped.
    pub teardown: Duration,
    /// Slowest correct replica's mesh start → last commit.
    pub drain: Duration,
    /// Per-replica reports, by id.
    pub replicas: Vec<Replica>,
    /// Why the run failed its checks, if it did.
    pub failure: Option<String>,
}

impl ClusterRun {
    /// The latency a client waiting for `t + 1` replies sees, from the
    /// replicas' `node.lat_<which>` gauges (ticks).
    pub fn latency_ticks(&self, which: &str, t: usize) -> f64 {
        let v: Vec<f64> = self
            .replicas
            .iter()
            .map(|r| r.gauge(&format!("node.lat_{which}")) as f64)
            .collect();
        quorum_pick(&v, t).unwrap_or(0.0)
    }

    /// `(slowest − fastest) / slowest` drain across replicas.
    pub fn drain_skew(&self) -> f64 {
        let walls: Vec<f64> = self
            .replicas
            .iter()
            .map(|r| r.wall().as_secs_f64())
            .collect();
        let max = walls.iter().copied().fold(0.0, f64::max);
        let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        if max > 0.0 {
            (max - min) / max
        } else {
            0.0
        }
    }

    /// Sum of one counter over the replicas' snapshots.
    pub fn sum_counter(&self, prefix: &str) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.snapshot.sum_counters(prefix))
            .sum()
    }

    /// Largest gauge whose name starts with `prefix`, over all replicas.
    pub fn max_gauge(&self, prefix: &str) -> u64 {
        self.replicas
            .iter()
            .flat_map(|r| {
                r.snapshot.iter().filter_map(|(name, _)| {
                    name.starts_with(prefix)
                        .then(|| r.snapshot.gauge(name))
                        .flatten()
                })
            })
            .max()
            .unwrap_or(0)
    }
}

/// Kill-on-drop guard: no child outlives the benchmark, whatever fails.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reads lines off a child's stdout until one satisfies `until`; returns
/// the lines before it. EOF first is an error.
fn read_until(
    out: &mut BufReader<ChildStdout>,
    id: usize,
    until: impl Fn(&str) -> bool,
) -> Result<(Vec<String>, String), String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        match out.read_line(&mut line) {
            Ok(0) => return Err(format!("replica {id} closed its control pipe")),
            Ok(_) => {}
            Err(e) => return Err(format!("replica {id} control pipe: {e}")),
        }
        let line = line.trim_end().to_string();
        if until(&line) {
            return Ok((lines, line));
        }
        lines.push(line);
    }
}

/// The digest a replica's WAL file folds to, over the log prefix carrying
/// the first `total` commands — the prefix `node.digest` covers. `None` if
/// the file is unreadable or malformed.
pub fn wal_digest(text: &str, total: usize) -> Option<u64> {
    let mut digest = LogDigest::new();
    let mut commands = 0usize;
    for line in text.lines() {
        if commands >= total {
            break;
        }
        let mut tokens = line.split_whitespace();
        let slot: u64 = tokens.next()?.parse().ok()?;
        let mut cmds: Vec<u64> = Vec::new();
        for tok in tokens {
            if tok == ";" {
                break;
            }
            cmds.push(tok.parse().ok()?);
        }
        if !line.trim_end().ends_with(';') {
            return None;
        }
        digest.fold_slot(slot, &cmds);
        commands += cmds.len();
    }
    (commands >= total).then(|| digest.value())
}

/// The pairwise-MAC keyrings the trusted dealer hands the children.
fn keyrings(seed: u64, n: usize) -> Vec<HmacAuthenticator> {
    let mut master = b"perfbench-cluster-".to_vec();
    master.extend_from_slice(&seed.to_le_bytes());
    HmacAuthenticator::deal(&master, n)
}

/// What one cluster run does after the bootstrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Drain the workload, check it, then tear down.
    Drain,
    /// Drain with every replica recording its own `--trace` ring.
    DrainTraced,
    /// Tear down right after the bootstrap: one more `setup_s` sample.
    SetupOnly,
}

/// Spawns one cluster in `dir` (WAL files and trace dumps land there),
/// runs it in `mode`, checks it, and tears it down.
pub fn run(
    bin: &Path,
    shape: &ClusterShape,
    seed: u64,
    dir: &Path,
    mode: Mode,
    timeout: Duration,
) -> ClusterRun {
    let mut run = ClusterRun::default();
    if let Err(e) = std::fs::create_dir_all(dir) {
        run.failure = Some(format!("creating {}: {e}", dir.display()));
        return run;
    }
    let result = drive(bin, shape, seed, dir, mode, timeout, &mut run);
    if let Err(e) = result {
        run.failure = Some(e);
    }
    let _ = std::fs::remove_dir_all(dir);
    run
}

fn wal_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("wal-{id}.log"))
}

fn drive(
    bin: &Path,
    shape: &ClusterShape,
    seed: u64,
    dir: &Path,
    mode: Mode,
    timeout: Duration,
    run: &mut ClusterRun,
) -> Result<(), String> {
    let keys = keyrings(seed, shape.n);
    let start = Instant::now();
    let mut children = Children(Vec::with_capacity(shape.n));
    let mut stdins: Vec<ChildStdin> = Vec::with_capacity(shape.n);
    let mut stdouts: Vec<BufReader<ChildStdout>> = Vec::with_capacity(shape.n);
    for (id, key) in keys.iter().enumerate() {
        let mut cmd = Command::new(bin);
        cmd.args(["--id", &id.to_string()])
            .args(["--n", &shape.n.to_string()])
            .args(["--t", &shape.t.to_string()])
            .args(["--listen", "127.0.0.1:0"])
            .args(["--auth-keys", &key.to_hex()])
            .arg("--wal")
            .arg(wal_path(dir, id))
            .args(["--groups", "1"])
            .args(["--clients", &shape.clients.to_string()])
            .args(["--commands", &shape.commands.to_string()])
            .args(["--batch", &shape.batch.to_string()])
            .args(["--arrival", "closed:0"])
            .args(["--seed", &seed.to_string()])
            .args(["--behavior", "correct"])
            .args(["--tick-us", &shape.tick_us.to_string()])
            .args(["--timeout-ms", &timeout.as_millis().to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if mode == Mode::DrainTraced {
            cmd.arg("--trace")
                .arg(dir.join(format!("trace-{id}.jsonl")));
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning replica {id}: {e}"))?;
        stdins.push(child.stdin.take().expect("piped stdin"));
        stdouts.push(BufReader::new(child.stdout.take().expect("piped stdout")));
        children.0.push(child);
    }

    let mut ports = Vec::with_capacity(shape.n);
    for (id, out) in stdouts.iter_mut().enumerate() {
        let (_, line) = read_until(out, id, |l| l.starts_with(control::PORT))?;
        let port: u16 = line[control::PORT.len()..]
            .trim()
            .parse()
            .map_err(|_| format!("replica {id} sent a bad port line: {line}"))?;
        ports.push(port);
    }
    run.spawn = start.elapsed();
    let pids: Vec<String> = children.0.iter().map(|c| c.id().to_string()).collect();
    let before: Vec<ProcSample> = pids
        .iter()
        .map(|pid| procfs::read(pid).unwrap_or_default())
        .collect();
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let peer_line = format!("{} {}\n", control::PEERS, peers.join(" "));
    for (id, stdin) in stdins.iter_mut().enumerate() {
        stdin
            .write_all(peer_line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("handing replica {id} its peers: {e}"))?;
    }
    run.setup = start.elapsed();

    let drained = mode != Mode::SetupOnly;
    for (id, out) in stdouts.iter_mut().enumerate().filter(|_| drained) {
        let (block, _) = read_until(out, id, |l| l.trim() == control::DONE)?;
        let after = procfs::read(&pids[id]).unwrap_or_default();
        let snapshot = Snapshot::parse(&block.join("\n"))
            .map_err(|e| format!("replica {id} sent a bad statistics block: {e}"))?;
        run.replicas.push(Replica {
            snapshot,
            proc_delta: after.since(&before[id]),
            wal_bytes: 0,
        });
    }

    let stop = Instant::now();
    for stdin in &mut stdins {
        let _ = stdin.write_all(format!("{}\n", control::STOP).as_bytes());
        let _ = stdin.flush();
    }
    drop(stdins);
    for (id, child) in children.0.iter_mut().enumerate() {
        let status = child
            .wait()
            .map_err(|e| format!("reaping replica {id}: {e}"))?;
        if !status.success() {
            return Err(format!("replica {id} exited with {status}"));
        }
    }
    run.teardown = stop.elapsed();
    drop(stdouts);
    run.drain = run
        .replicas
        .iter()
        .map(Replica::wall)
        .max()
        .unwrap_or_default();
    if drained {
        check(shape, dir, run)
    } else {
        Ok(())
    }
}

/// The per-run correctness checks: every replica committed every command,
/// all reported the same log digest, each WAL folds to its replica's
/// digest, and nothing was dropped or forged.
fn check(shape: &ClusterShape, dir: &Path, run: &mut ClusterRun) -> Result<(), String> {
    let total = shape.total() as u64;
    let digest0 = run.replicas[0].gauge("node.digest");
    for (id, r) in run.replicas.iter_mut().enumerate() {
        let committed = r.gauge("node.committed_commands");
        if committed != total {
            return Err(format!("replica {id} committed {committed}/{total}"));
        }
        let digest = r.gauge("node.digest");
        if digest != digest0 {
            return Err(format!("replica {id} digest differs from replica 0"));
        }
        let path = wal_path(dir, id);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        r.wal_bytes = text.len() as u64;
        if wal_digest(&text, shape.total()) != Some(digest) {
            return Err(format!("replica {id} WAL does not fold to its digest"));
        }
        for counter in ["mesh.auth_rejects", "smr.future_drops"] {
            let v = r.snapshot.counter(counter).unwrap_or(0);
            if v != 0 {
                return Err(format!("replica {id} {counter} = {v}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_folds_like_the_reported_digest() {
        let mut d = LogDigest::new();
        d.fold_slot(1, &[10, 11]);
        d.fold_slot(2, &[12]);
        let text = "1 10 11 ;\n2 12 ;\n3 ;\n";
        assert_eq!(
            wal_digest(text, 3),
            Some(d.value()),
            "trailing no-op slot ignored"
        );
        assert_eq!(wal_digest(text, 4), None, "too short");
        assert_eq!(wal_digest("1 10 11\n2 12 ;\n", 3), None, "torn line");
        assert_eq!(wal_digest("x ;\n", 1), None);
    }

    #[test]
    fn quorum_latency_and_skew_from_snapshots() {
        let replica = |p50: u64, wall_us: u64| {
            let mut s = Snapshot::empty();
            s.set_gauge("node.lat_p50", p50);
            s.set_gauge("node.wall_us", wall_us);
            s.set_gauge("link.rtt_ewma.p1", p50 / 2);
            Replica {
                snapshot: s,
                proc_delta: ProcSample::default(),
                wal_bytes: 0,
            }
        };
        let run = ClusterRun {
            replicas: vec![
                replica(9, 1000),
                replica(4, 900),
                replica(6, 800),
                replica(7, 1000),
            ],
            ..ClusterRun::default()
        };
        assert_eq!(run.latency_ticks("p50", 1), 6.0);
        assert!((run.drain_skew() - 0.2).abs() < 1e-9);
        assert_eq!(run.max_gauge("link.rtt_ewma."), 4);
    }
}
