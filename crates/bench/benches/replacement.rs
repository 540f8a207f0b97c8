//! Criterion bench for the working-set simulator. Per-policy replay cost
//! is the `benchmark/` package's `paging.replay_ns_per_ref.*`.

use criterion::{criterion_group, criterion_main, Criterion};
use dsa_core::ids::PageNo;
use dsa_paging::replacement::ws::working_set_sim;
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::rng::Rng64;

fn trace() -> Vec<PageNo> {
    RefStringCfg::LruStack {
        pages: 64,
        theta: 0.9,
    }
    .generate_pages(30_000, &mut Rng64::new(2))
}

fn bench_working_set(c: &mut Criterion) {
    let trace = trace();
    c.bench_function("working_set_tau100_30k_refs", |b| {
        b.iter(|| working_set_sim(&trace, 100).faults);
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_working_set
}
criterion_main!(benches);
