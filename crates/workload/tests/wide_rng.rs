//! Bit-identity of the lane-parallel RNG and image-generation paths
//! against their scalar oracles.
//!
//! * [`WorkloadRng::next_block`] must emit exactly the scalar stream
//!   for every block length (full lanes, remainders, empty) and for
//!   adversarial seeds.
//! * [`ThreadImage::generate_wide`] must produce a bit-identical image
//!   to [`ThreadImage::generate`] for every benchmark and seed tried.

use rat_workload::{ThreadImage, WorkloadRng, ALL_BENCHMARKS};

const SEEDS: [u64; 6] = [0, 1, 42, 0xDEAD_BEEF, u64::MAX - 3, u64::MAX];

#[test]
fn next_block_matches_scalar_for_every_length() {
    for &seed in &SEEDS {
        for len in 0..=33usize {
            let mut blocked = WorkloadRng::seed_from_u64(seed);
            let mut scalar = WorkloadRng::seed_from_u64(seed);
            let mut buf = vec![0u64; len];
            blocked.next_block(&mut buf);
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v, scalar.next_u64(), "seed {seed} len {len} draw {i}");
            }
            // The stream must resume at the same position.
            for _ in 0..4 {
                assert_eq!(blocked.next_u64(), scalar.next_u64());
            }
        }
    }
}

#[test]
fn next_block_interleaves_with_scalar_draws() {
    let mut blocked = WorkloadRng::seed_from_u64(9);
    let mut scalar = WorkloadRng::seed_from_u64(9);
    for round in 0..8 {
        let len = (round * 5) % 17;
        let mut buf = vec![0u64; len];
        blocked.next_block(&mut buf);
        for &v in &buf {
            assert_eq!(v, scalar.next_u64());
        }
        assert_eq!(blocked.next_u64(), scalar.next_u64());
    }
}

#[test]
fn generate_wide_is_bit_identical_for_every_benchmark() {
    for &bench in ALL_BENCHMARKS {
        for seed in [42u64, 43, 1_000_003] {
            let scalar = ThreadImage::generate(bench, seed);
            let wide = ThreadImage::generate_wide(bench, seed);
            assert_eq!(
                scalar.digest(),
                wide.digest(),
                "{bench:?} seed {seed}: wide generation diverged from the scalar oracle"
            );
        }
    }
}

#[test]
fn digest_distinguishes_images() {
    let a = ThreadImage::generate(ALL_BENCHMARKS[0], 1);
    let b = ThreadImage::generate(ALL_BENCHMARKS[0], 2);
    assert_ne!(a.digest(), b.digest(), "different seeds, different digests");
}
