//! Property tests for the butterfly's blocking behavior.

use proptest::prelude::*;
use sigma_interconnect::Butterfly;

fn pot_size() -> impl Strategy<Value = usize> {
    (1u32..=5).prop_map(|e| 1usize << e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Butterfly routing always delivers every request exactly once, in
    /// at least one and at most `requests` waves; XOR permutations take
    /// exactly one.
    #[test]
    fn butterfly_waves_deliver_everything(
        (n, seed) in pot_size().prop_flat_map(|n| (Just(n), any::<u64>()))
    ) {
        let bf = Butterfly::new(n).unwrap();
        // A pseudo-random permutation.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let req: Vec<(usize, usize)> = perm.iter().copied().enumerate().collect();
        let routing = bf.route(&req);
        let delivered: usize = routing.waves.iter().map(Vec::len).sum();
        prop_assert_eq!(delivered, n);
        prop_assert!(routing.wave_count() >= 1);
        prop_assert!(routing.wave_count() <= n);

        // XOR mask derived from the seed: always one wave.
        let mask = (seed as usize) % n;
        let xor_req: Vec<(usize, usize)> = (0..n).map(|i| (i, i ^ mask)).collect();
        prop_assert_eq!(bf.route(&xor_req).wave_count(), 1);
    }
}
