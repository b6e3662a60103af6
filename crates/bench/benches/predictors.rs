//! Criterion benches for the branch-prediction stack: SHP prediction,
//! front-end throughput per generation, indirect prediction schemes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exynos_branch::config::FrontendConfig;
use exynos_branch::frontend::FrontEnd;
use exynos_branch::shp::{Shp, ShpConfig};
use exynos_trace::gen::web::{WebParams, WebWorkload};
use exynos_trace::{Inst, TraceGen};

fn bench_shp(c: &mut Criterion) {
    let mut group = c.benchmark_group("shp_predict");
    for (name, cfg) in [("m1_8x1k", ShpConfig::m1()), ("m5_16x2k", ShpConfig::m5())] {
        let shp = Shp::new(cfg);
        let mut h = shp.history();
        for i in 0..200 {
            h.push_outcome(i % 3 == 0);
        }
        group.bench_function(name, |b| {
            let mut pc = 0x4000u64;
            b.iter(|| {
                pc = pc.wrapping_add(4);
                std::hint::black_box(shp.predict(pc, 3, &h).sum)
            })
        });
    }
    group.finish();
}

fn bench_frontend(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend_per_inst");
    group.sample_size(20);
    for cfg in [FrontendConfig::m1(), FrontendConfig::m5(), FrontendConfig::m6()] {
        // Pre-generate a trace chunk.
        let mut gen = WebWorkload::new(&WebParams::default(), 70, 3);
        let insts: Vec<Inst> = (0..50_000).map(|_| gen.next_inst()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(cfg.name), &cfg, |b, cfg| {
            b.iter(|| {
                let mut fe = FrontEnd::new(cfg.clone());
                for i in &insts {
                    std::hint::black_box(fe.on_inst(i).expect("clean trace"));
                }
                fe.stats().mpki()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shp, bench_frontend);
criterion_main!(benches);
