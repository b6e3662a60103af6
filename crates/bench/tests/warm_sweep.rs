//! Warm-start sweeps must be indistinguishable from cold-start sweeps:
//! forking every population job from a pool simulator warmed once yields
//! bit-identical records to re-running the warmup.

use exynos_bench::experiments as exp;
use exynos_core::batch::ChunkCache;
use exynos_core::cancel::CancelToken;
use std::sync::Arc;

#[test]
fn warm_sweep_matches_cold_sweep_bit_for_bit() {
    let (scale, warmup, detail) = (1, 3_000, 2_000);
    let suite = exynos_trace::standard_suite(scale);
    let cold = exp::scalar_sweep(&suite, warmup, detail, 2).unwrap();
    let pool = exp::try_build_warm_pool(scale, warmup, 2, &CancelToken::new()).unwrap();
    assert_eq!(pool.jobs(), cold.len());
    assert_eq!(pool.warmup(), warmup);
    assert_eq!(pool.scale(), scale);
    assert_eq!(pool.bytes(), 0, "the pool holds residents, not images");
    let cache = Arc::new(ChunkCache::unbounded());
    let (warm, _) = exp::sweep(exp::Start::Warm(&pool), detail, 2, &cache).unwrap();
    assert_eq!(cold.len(), warm.len());
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.gen, b.gen);
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{} {}", a.name, a.gen);
        assert_eq!(a.mpki.to_bits(), b.mpki.to_bits(), "{} {}", a.name, a.gen);
        assert_eq!(
            a.load_latency.to_bits(),
            b.load_latency.to_bits(),
            "{} {}",
            a.name,
            a.gen
        );
    }
}
