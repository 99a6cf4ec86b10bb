//! Machine-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host, whose speed drifts
//! by tens of percent over minutes as the neighbours' load changes. A run
//! therefore also times a fixed kernel, independent of the program under
//! test, on the same cores between its rounds, and reports its wall-clock
//! metrics at a reference speed: as they would read on a machine where one
//! kernel iteration takes `REF_MS`. A change to the program moves the
//! reported numbers as much as it moves the raw ones; a slow or fast spell
//! of the host moves the kernel too, and cancels out.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// Kernel time per iteration that the reported metrics are scaled to, ms.
pub const REF_MS: f64 = 1.0;

/// One iteration of the kernel: hashing, allocation and a sort, the kind of
/// work the replicas' handlers do. Deterministic in `seed`.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut v: Vec<u64> = Vec::with_capacity(20_000);
    let mut m: HashMap<u64, u64> = HashMap::new();
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
        let e = m.entry(x % 4096).or_insert(0);
        *e = e.wrapping_add(x);
    }
    v.sort_unstable();
    v[100] ^ m.len() as u64
}

/// Runs `iters` kernel iterations on the calling thread and appends each
/// one's wall time, ms, to `out`.
pub fn burst(iters: usize, out: &mut Vec<f64>) {
    for i in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(kernel(i as u64 + 7));
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    }
}

/// Runs `burst(iters)` on `lanes` threads at once, one per core, and
/// returns every iteration's time, ms.
pub fn burst_all(iters: usize, lanes: usize) -> Vec<f64> {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..lanes)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    burst(iters, &mut out);
                    out
                })
            })
            .collect();
        let mut out = Vec::new();
        burst(iters, &mut out);
        for h in others {
            out.extend(h.join().expect("a calibration lane panicked"));
        }
        out
    })
}

/// How much slower than the reference the machine ran: the median kernel
/// time of `samples` over `REF_MS`. Throughputs are multiplied by it and
/// times divided by it; 1 when there are no samples.
pub fn slowdown(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m > 0.0 {
        m / REF_MS
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
    }

    #[test]
    fn slowdown_is_median_over_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[3.0 * REF_MS, REF_MS, 2.0 * REF_MS]), 2.0);
    }

    #[test]
    fn bursts_record_every_iteration() {
        let all = burst_all(2, 3);
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|&ms| ms > 0.0));
    }
}
