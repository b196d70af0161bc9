//! A minimal, dependency-free property-testing harness.
//!
//! The workspace's randomized tests were originally written against an
//! external property-testing crate; this module provides the small subset
//! the tests actually need — run a closure over many seeded random cases and
//! report a reproducible failure — on top of [`SimRng`], so `cargo test`
//! works fully offline and the case streams are bit-stable across
//! toolchains.
//!
//! There is no shrinking: a failing case prints its index and master seed so
//! it can be replayed exactly via `NOCLAT_CHECK_SEED`.

use crate::rng::{splitmix64, SimRng};

/// Default master seed for [`cases`]. Override with the `NOCLAT_CHECK_SEED`
/// environment variable to replay a reported failure.
pub const DEFAULT_MASTER_SEED: u64 = 0xC0FF_EE00_5EED;

/// The master seed in effect (environment override or the default).
#[must_use]
pub fn master_seed() -> u64 {
    std::env::var("NOCLAT_CHECK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_MASTER_SEED)
}

/// Runs `f` over `n` independent random cases.
///
/// Each case receives its own [`SimRng`] derived from `(master seed, case
/// index)`, so cases are independent and the whole run is reproducible. On a
/// failing case the index and master seed are printed before the panic is
/// propagated.
///
/// # Panics
///
/// Re-raises the panic of the first failing case.
pub fn cases<F: FnMut(&mut SimRng)>(n: u64, mut f: F) {
    let master = master_seed();
    for i in 0..n {
        let mut rng = SimRng::new(splitmix64(master ^ (i.wrapping_mul(0x9e37_79b9))));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "property failed on case {i} of {n} (master seed {master}); \
                 replay with NOCLAT_CHECK_SEED={master}"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Picks a uniformly random element of `items`.
///
/// # Panics
///
/// Panics if `items` is empty.
pub fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

/// Uniform draw from `[lo, hi)`.
///
/// # Panics
///
/// Panics if the range is empty.
pub fn range_u64(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi, "empty range {lo}..{hi}");
    lo + rng.below(hi - lo)
}

/// Uniform draw from `[lo, hi)` as `f64`.
///
/// # Panics
///
/// Panics if the range is empty or not finite.
pub fn range_f64(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
    lo + rng.unit() * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_run_the_requested_count() {
        let mut count = 0u64;
        cases(17, |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        cases(5, |rng| a.push(rng.next_u64()));
        cases(5, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
    }

    #[test]
    fn helpers_stay_in_bounds() {
        cases(50, |rng| {
            let v = range_u64(rng, 10, 20);
            assert!((10..20).contains(&v));
            let x = range_f64(rng, -1.0, 1.0);
            assert!((-1.0..1.0).contains(&x));
            let p = pick(rng, &[1, 2, 3]);
            assert!((1..=3).contains(&p));
        });
    }
}
