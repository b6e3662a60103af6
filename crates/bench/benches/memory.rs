//! Criterion benches for the memory side: cache arrays, the multi-stride
//! engine, DRAM bank timing.

use criterion::{criterion_group, criterion_main, Criterion};
use exynos_dram::{DramConfig, MemoryController};
use exynos_mem::{AccessKind, Cache, CacheConfig, InsertPriority, LineMeta};
use exynos_prefetch::{MultiStrideEngine, StrideConfig};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    for (name, sectors) in [("unsectored", 1), ("sectored", 2)] {
        group.bench_function(name, |b| {
            let mut cache = Cache::new(CacheConfig {
                size_bytes: 1 << 20,
                ways: 8,
                line_bytes: 64,
                sectors_per_tag: sectors,
                latency: 12,
            });
            let mut addr = 0u64;
            b.iter(|| {
                addr = addr.wrapping_add(64) & 0xFF_FFFF;
                if cache.access(addr, AccessKind::Demand).is_none() {
                    cache.fill(addr, AccessKind::Demand, LineMeta::default(), InsertPriority::Elevated);
                }
            })
        });
    }
    group.finish();
}

fn bench_stride_engine(c: &mut Criterion) {
    c.bench_function("stride_engine_train", |b| {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let mut line = 0u64;
        let mut phase = 0usize;
        let pat = [2u64, 2, 5];
        b.iter(|| {
            line += pat[phase];
            phase = (phase + 1) % 3;
            std::hint::black_box(e.on_demand_line(line).len())
        })
    });
}

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram_read", |b| {
        let mut mc = MemoryController::new(DramConfig::m5());
        let mut addr = 0u64;
        let mut t = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(8192);
            t += 100;
            std::hint::black_box(mc.read(addr, t))
        })
    });
}

criterion_group!(benches, bench_cache, bench_stride_engine, bench_dram);
criterion_main!(benches);
