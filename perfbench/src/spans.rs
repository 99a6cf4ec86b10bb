//! In-memory span recording for traced runs: spans are kept in memory while
//! the run measures and written out as JSON lines when it ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `smr.step` or `cluster.drain`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// What caused it: the triggering message kind, `timer`, or the
    /// enclosing span's name.
    pub cause: &'static str,
    /// Request id: the log slot (0 when the span is not tied to one).
    pub req: u64,
    /// Replica the span ran on (`u32::MAX` for the benchmark itself).
    pub node: u32,
}

impl Span {
    /// A span from `start` to `end`, both measured against `epoch`.
    pub fn between(
        name: &'static str,
        cause: &'static str,
        epoch: Instant,
        start: Instant,
        end: Instant,
        req: u64,
        node: u32,
    ) -> Span {
        Span {
            name,
            start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
            cause,
            req,
            node,
        }
    }
}

/// Writes `spans` as JSON lines to `path`.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cause\":\"{}\",\"req\":{},\"node\":{}}}",
            s.name, s.start_ns, s.end_ns, s.cause, s.req, s.node
        )?;
    }
    out.flush()
}
