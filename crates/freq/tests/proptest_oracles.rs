//! Property tests for the frequency-oracle layer: estimator consistency
//! and report-space invariants under randomized parameters.

use hh_freq::hashtogram::{Hashtogram, HashtogramParams, HashtogramReport};
use hh_freq::krr::KrrOracle;
use hh_freq::traits::{Aggregator, FrequencyOracle};
use hh_freq::wire::WireReport;
use hh_math::rng::seeded_rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hashtogram_reports_stay_in_range(
        logw in 3u32..10,
        eps in 0.2f64..3.0,
        seed in 0u64..1000,
    ) {
        let params = HashtogramParams {
            domain: 1 << logw,
            eps,
            groups: 3,
            buckets: 1 << logw,
            hashed: false,
        };
        let oracle = Hashtogram::new(params, seed);
        let mut rng = seeded_rng(seed ^ 0xAB);
        for i in 0..200u64 {
            let rep = oracle.respond(i, i % (1 << logw), &mut rng);
            prop_assert!(rep.ell < 1 << logw);
            prop_assert!(rep.bit == 1 || rep.bit == -1);
            prop_assert!((oracle.group_of(i) as usize) < 3);
            // Wire round trip is exact and within the claimed size.
            let bytes = rep.encode();
            prop_assert_eq!(bytes.len(), rep.encoded_len());
            prop_assert_eq!(HashtogramReport::decode(&bytes), Ok(rep));
            prop_assert!(8 * rep.encoded_len() <= oracle.report_bits().next_multiple_of(8));
        }
    }

    #[test]
    fn hashtogram_estimates_sum_near_n_direct(
        seed in 0u64..200,
        logd in 2u32..6,
    ) {
        // In the direct variant the per-group bucket estimates sum to the
        // group's debiased report mass; totals over the domain track n.
        let domain = 1u64 << logd;
        let n = 4_000u64;
        let mut oracle = Hashtogram::new(HashtogramParams::direct(domain, 1.0, 0.2), seed);
        let mut rng = seeded_rng(seed + 1);
        for i in 0..n {
            let rep = oracle.respond(i, i % domain, &mut rng);
            oracle.collect(i, rep);
        }
        oracle.finalize();
        let total: f64 = (0..domain).map(|x| oracle.estimate(x)).sum();
        // Total is an unbiased estimate of n with noise ~ c_eps sqrt(nW).
        let slack = 6.0 * 2.2 * ((n * domain) as f64).sqrt() + 100.0;
        prop_assert!((total - n as f64).abs() < slack, "total {total} vs n {n}");
    }

    #[test]
    fn krr_estimates_sum_exactly_to_n(
        k in 2u64..24,
        eps in 0.2f64..3.0,
        seed in 0u64..500,
    ) {
        let n = 1_000u64;
        let mut oracle = KrrOracle::new(k, eps);
        let mut rng = seeded_rng(seed);
        for i in 0..n {
            let rep = oracle.respond(i, i % k, &mut rng);
            oracle.collect(i, rep);
        }
        oracle.finalize();
        let total: f64 = (0..k).map(|x| oracle.estimate(x)).sum();
        // GRR debiasing is linear: estimates sum to exactly n.
        prop_assert!((total - n as f64).abs() < 1e-6 * n as f64, "total {total}");
    }

    #[test]
    fn report_bits_accounting_is_consistent(logw in 3u32..12) {
        let oracle = Hashtogram::new(
            HashtogramParams {
                domain: 1 << logw,
                eps: 1.0,
                groups: 5,
                buckets: 1 << logw,
                hashed: false,
            },
            1,
        );
        prop_assert_eq!(oracle.report_bits(), 1 + logw as usize);
    }
}
