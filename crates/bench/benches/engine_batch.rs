//! Sequential vs parallel `ReleaseEngine::execute_all` on a
//! workload-sized Small-scale batch. A batch is `execute` on each request
//! in order over one `TabulationCache`, so the parallel series measures
//! only the parallelism inside one release (tabulation shards, per-cell
//! noise); the release service scales across seasons, one worker thread
//! each. Outputs are bit-identical at any thread count. (On a single-core
//! machine the two series read as parity.)

use bench::bench_context;
use criterion::{criterion_group, criterion_main, Criterion};
use eree_core::engine::{ReleaseEngine, ReleaseRequest};
use eree_core::{MechanismKind, PrivacyParams};
use std::hint::black_box;
use tabulate::{workload1, workload3};

/// A publication-season batch: both workloads × the three mechanisms,
/// several quarters' worth of seeds.
fn season_batch() -> Vec<ReleaseRequest> {
    let mut batch = Vec::new();
    for quarter in 0..4u64 {
        batch.push(
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(quarter),
        );
        batch.push(
            ReleaseRequest::marginal(workload3())
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 8.0))
                .seed(100 + quarter),
        );
        batch.push(
            ReleaseRequest::shapes(workload3())
                .mechanism(MechanismKind::SmoothLaplace)
                .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
                .seed(200 + quarter),
        );
    }
    batch
}

fn session_budget() -> PrivacyParams {
    // 4 quarters x (2 + 8 + 16) with delta headroom.
    PrivacyParams::approximate(0.1, 104.0, 0.5)
}

fn bench_execute_all(c: &mut Criterion) {
    let ctx = bench_context();
    let batch = season_batch();
    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    group.bench_function("execute_all_sequential", |b| {
        b.iter(|| {
            let mut engine = ReleaseEngine::new(session_budget()).with_parallelism(1);
            black_box(engine.execute_all(&ctx.dataset, &batch))
        })
    });
    group.bench_function("execute_all_parallel", |b| {
        b.iter(|| {
            let mut engine = ReleaseEngine::new(session_budget());
            black_box(engine.execute_all(&ctx.dataset, &batch))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_execute_all);
criterion_main!(benches);
