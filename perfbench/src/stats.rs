//! Small, pure summary helpers shared by every workload.

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it. `None` when empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The value a client waiting for `t + 1` matching replies sees: the
/// `(t + 1)`-th smallest of the per-replica values. `None` when fewer than
/// `t + 1` replicas reported.
pub fn quorum_pick(values: &[f64], t: usize) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(t).copied()
}

/// Conventional median (mean of the two middle values for even lengths);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Share of attempted commands that were not committed identically by
/// every correct replica. A run with nothing attempted failed outright.
pub fn fail_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed.min(attempted) as f64 / attempted as f64
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The protocol layers of the paper's stack, in the order their messages
/// appear in a slot.
pub const LAYERS: [&str; 5] = ["cb", "ac", "ea", "decide", "smr"];

/// Index into [`LAYERS`] of the layer a message kind (as returned by
/// `SmrMsg::classify`) belongs to: cooperative broadcast (`CB_VAL/*`),
/// adopt-commit (`AC_EST/*`), eventual agreement (`EA_*`), the consensus
/// decision broadcast (`DECIDE/*`), and the SMR control plane (`SMR_*`).
/// `None` for a kind outside the stack.
pub fn layer_of(kind: &str) -> Option<usize> {
    let prefix = kind.split(['/', '_']).next()?;
    match prefix {
        "CB" => Some(0),
        "AC" => Some(1),
        "EA" => Some(2),
        "DECIDE" => Some(3),
        "SMR" => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50));
        assert_eq!(nearest_rank(&v, 99.0), Some(99));
        assert_eq!(nearest_rank(&v, 100.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7u64], 99.0), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 50.0), None);
        // Ten samples: p99 is the largest, p50 the fifth.
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(nearest_rank(&ten, 50.0), Some(14));
        assert_eq!(nearest_rank(&ten, 99.0), Some(19));
    }

    #[test]
    fn quorum_pick_is_the_t_plus_first_smallest() {
        // n = 4, t = 1: the second-fastest replica answers the client.
        assert_eq!(quorum_pick(&[9.0, 3.0, 7.0, 5.0], 1), Some(5.0));
        // t = 0: the fastest.
        assert_eq!(quorum_pick(&[9.0, 3.0], 0), Some(3.0));
        // n = 7, t = 2 with ties.
        assert_eq!(
            quorum_pick(&[4.0, 4.0, 1.0, 8.0, 4.0, 2.0, 9.0], 2),
            Some(4.0)
        );
        assert_eq!(quorum_pick(&[1.0], 1), None);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn fail_frac_counts_against_attempts() {
        assert_eq!(fail_frac(1000, 0), 0.0);
        assert_eq!(fail_frac(1000, 250), 0.25);
        assert_eq!(fail_frac(10, 99), 1.0, "never above one");
        assert_eq!(fail_frac(0, 0), 1.0, "nothing attempted is a failed run");
    }

    #[test]
    fn message_kinds_map_to_protocol_layers() {
        let cases = [
            ("CB_VAL/INIT", "cb"),
            ("CB_VAL/READY", "cb"),
            ("AC_EST/ECHO", "ac"),
            ("EA_PROP2", "ea"),
            ("EA_COORD", "ea"),
            ("EA_RELAY", "ea"),
            ("DECIDE/INIT", "decide"),
            ("DECIDE/READY", "decide"),
            ("SMR_ACK", "smr"),
            ("SMR_CKPT", "smr"),
            ("SMR_SIGACK", "smr"),
            ("SMR_CERT_CKPT", "smr"),
        ];
        for (kind, layer) in cases {
            assert_eq!(layer_of(kind).map(|i| LAYERS[i]), Some(layer), "{kind}");
        }
        assert_eq!(layer_of("BOGUS"), None);
        assert_eq!(layer_of(""), None);
    }
}
