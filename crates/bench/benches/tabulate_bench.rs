//! Tabulation-engine benchmarks: marginal computation across spec widths,
//! the SDL publication pipeline, and graph-DP baselines.

use bench::bench_context;
use criterion::{criterion_group, criterion_main, Criterion};
use graphdp::{EdgeLaplace, TruncatedLaplace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdl::{SdlConfig, SdlPublisher};
use std::hint::black_box;
use tabulate::{
    compute_marginal_legacy, workload1, workload3, DatasetIndex, Kernel, MarginalSpec,
    WorkplaceAttr,
};

fn bench_engine(c: &mut Criterion) {
    let ctx = bench_context();
    let mut group = c.benchmark_group("tabulate");
    group.sample_size(20);

    // Legacy per-worker hash-map engine (the retained reference path).
    group.bench_function("workload1_marginal_legacy", |b| {
        b.iter(|| black_box(compute_marginal_legacy(&ctx.dataset, &workload1())))
    });
    group.bench_function("workload3_marginal_legacy", |b| {
        b.iter(|| black_box(compute_marginal_legacy(&ctx.dataset, &workload3())))
    });

    // Columnar CSR index engine (one-shard layout): one-time build, then
    // indexed tabulation.
    let build = || DatasetIndex::build_with_threshold(&ctx.dataset, usize::MAX);
    group.bench_function("index_build", |b| b.iter(|| black_box(build())));
    let index = build();
    let marginal = |spec: &MarginalSpec, threads| index.marginal(spec, None, threads, Kernel::Auto);
    group.bench_function("workload1_marginal_indexed", |b| {
        b.iter(|| black_box(marginal(&workload1(), 1)))
    });
    group.bench_function("workload3_marginal_indexed", |b| {
        b.iter(|| black_box(marginal(&workload3(), 1)))
    });
    let threads = tabulate::par::threads();
    group.bench_function("workload3_marginal_indexed_sharded", |b| {
        b.iter(|| black_box(marginal(&workload3(), threads)))
    });
    group.bench_function("naics_only_marginal_indexed", |b| {
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        b.iter(|| black_box(marginal(&spec, 1)))
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let ctx = bench_context();
    let mut group = c.benchmark_group("baselines");
    group.sample_size(20);

    group.bench_function("sdl_publish_workload1", |b| {
        let publisher = SdlPublisher::new(&ctx.dataset, SdlConfig::default());
        b.iter(|| black_box(publisher.publish(&ctx.dataset, &workload1())))
    });
    group.bench_function("edge_laplace_workload1", |b| {
        let mech = EdgeLaplace::new(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(mech.release_marginal(&ctx.dataset, &workload1(), &mut rng)))
    });
    group.bench_function("truncated_laplace_workload1_theta50", |b| {
        let mech = TruncatedLaplace::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(mech.release_marginal(&ctx.dataset, &workload1(), &mut rng)))
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_baselines);
criterion_main!(benches);
