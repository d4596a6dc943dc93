//! Content addressing for the result cache ([`crate::store::TieredCache`]).
//!
//! Keys are digests of a sweep's canonical spec string
//! ([`dante::sweep::SweepSpec::canonical_string`]); values are the exact
//! response bodies served. Because the trial engine is counter-based
//! deterministic, a cache hit is byte-identical to re-running the sweep —
//! the cache changes latency, never results.

/// 128-bit FNV-1a over the canonical spec bytes, rendered as 32 hex chars.
///
/// Two independent 64-bit FNV streams with distinct offset bases: not
/// cryptographic, but the keyspace is trusted (specs come through
/// validation) and 128 bits make accidental collisions negligible.
#[must_use]
pub fn digest(canonical: &str) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut a: u64 = 0xCBF2_9CE4_8422_2325;
    let mut b: u64 = 0x6C62_272E_07BB_0142;
    for &byte in canonical.as_bytes() {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte ^ 0x5A)).wrapping_mul(PRIME);
    }
    format!("{a:016x}{b:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_collision_averse() {
        let d = digest("dante.sweep.v1;seed=1");
        assert_eq!(d.len(), 32);
        assert_eq!(d, digest("dante.sweep.v1;seed=1"), "deterministic");
        assert_ne!(d, digest("dante.sweep.v1;seed=2"));
        assert_ne!(digest(""), digest("\u{0000}"));
    }
}
