//! Criterion version of Fig. 10: `MUTATE site` cost vs XMark size,
//! against the baseline dump, at reduced factors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xmorph_bench::harness::{exist_dump, prepare, run_guard_on, StoreKind};
use xmorph_datagen::XmarkConfig;

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_mutate_site");
    group.sample_size(10);
    for factor in [0.01, 0.02, 0.03] {
        let xml = XmarkConfig::with_factor(factor).generate();
        let prep = prepare(&xml, StoreKind::Memory);
        group.bench_with_input(
            BenchmarkId::new("xmorph_render", factor),
            &factor,
            |b, _| b.iter(|| run_guard_on(&prep, "MUTATE site")),
        );
        group.bench_with_input(BenchmarkId::new("exist_dump", factor), &factor, |b, _| {
            b.iter(|| exist_dump(&xml, "site", StoreKind::Memory))
        });
    }
    group.finish();
}

fn bench_compile_only(c: &mut Criterion) {
    // The compile phase must be (nearly) size-independent.
    let mut group = c.benchmark_group("fig10_compile");
    group.sample_size(20);
    for factor in [0.01, 0.03] {
        let xml = XmarkConfig::with_factor(factor).generate();
        let prep = prepare(&xml, StoreKind::Memory);
        group.bench_with_input(BenchmarkId::new("analyze", factor), &factor, |b, _| {
            b.iter(|| {
                let guard = xmorph_core::Guard::parse("MUTATE site").unwrap();
                guard.analyze(&prep.doc.snapshot()).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10, bench_compile_only);
criterion_main!(benches);
