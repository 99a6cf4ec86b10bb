//! Deterministic seed-stream splitting shared by every substrate.
//!
//! Several components need *independent* pseudo-random streams derived from
//! one user-provided seed: the simulator keeps the node-visible [`Env`]
//! stream distinct from its delay-sampling stream, the threaded runtime
//! seeds each process's env and delay sampling separately, the workload generator
//! gives every client its own arrival stream, and the TCP transport derives
//! a per-replica stream from the cluster seed. Before this helper each site
//! re-spelled the same SplitMix64 golden-ratio mix inline; they now share
//! one derivation:
//!
//! ```text
//! derive_stream(seed, stream) = seed ^ stream · 0x9E3779B97F4A7C15
//! ```
//!
//! The multiplier is SplitMix64's golden-ratio increment (Steele, Lea &
//! Flood, OOPSLA 2014): consecutive `stream` indices land `2⁶⁴/φ` apart, so
//! derived seeds never collide for distinct stream indices and stay
//! decorrelated under SplitMix64's finalizer. `stream = 0` returns the seed
//! unchanged — callers reserve it for "the base stream itself".
//!
//! [`Env`]: crate::Env

/// SplitMix64's golden-ratio increment, `⌊2⁶⁴/φ⌋` rounded to odd.
pub const SPLITMIX64_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the seed of independent stream `stream` from a base `seed`
/// (see the module docs). Deterministic; `derive_stream(seed, 0) == seed`.
///
/// # Stream-index allocation
///
/// The index space is shared by every consumer of one base seed, so two
/// consumers picking the same index get *identical* streams, not
/// independent ones. Allocation rule: the simulator owns bare indices 0
/// (delay sampling) and 1 (the node-visible [`Env`](crate::Env) stream)
/// and the workload generator owns bare client ids — both kept at their
/// historical values so published experiment tables stay reproducible.
/// Every other consumer must namespace its indices with [`stream_of`]
/// (the threaded runtime and the TCP transport do), which keeps them
/// disjoint from the bare range and from each other.
pub fn derive_stream(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(SPLITMIX64_GOLDEN)
}

/// Composes a consumer `tag` and a consumer-local index `k` into one
/// [`derive_stream`] index (`tag << 32 | k`): distinct tags can never
/// collide with each other or with the bare low-index range the simulator
/// and workload generator own, as long as local indices stay below 2³².
pub fn stream_of(tag: u32, k: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_zero_is_the_base_seed() {
        assert_eq!(derive_stream(42, 0), 42);
    }

    #[test]
    fn streams_are_distinct_and_deterministic() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|s| derive_stream(7, s)).collect();
        assert_eq!(seeds.len(), 1000, "no collisions across stream indices");
        assert_eq!(derive_stream(7, 3), derive_stream(7, 3));
    }

    #[test]
    fn tagged_streams_stay_clear_of_the_bare_range() {
        // A tagged consumer can never collide with the simulator's bare
        // indices (0, 1), the workload's bare client ids, or another tag.
        assert_ne!(stream_of(0x4D45_5348, 0), 0);
        assert_ne!(stream_of(0x4D45_5348, 1), 1);
        assert_ne!(stream_of(0x4D45_5348, 7), stream_of(0x5448_5244, 7));
        assert_eq!(stream_of(0, 9), 9, "tag 0 is the bare range itself");
    }

    #[test]
    fn matches_the_historical_inline_derivations() {
        // The simulator's env stream was `seed ^ GOLDEN` — stream index 1.
        assert_eq!(derive_stream(9, 1), 9 ^ SPLITMIX64_GOLDEN);
        // The workload's per-client stream was `seed ^ client · GOLDEN`.
        assert_eq!(
            derive_stream(9, 5),
            9 ^ 5u64.wrapping_mul(SPLITMIX64_GOLDEN)
        );
    }
}
