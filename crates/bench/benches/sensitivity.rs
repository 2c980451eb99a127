//! Benchmarks one gate-selection step of each optimizer — the
//! micro-benchmark behind the paper's Table 2: brute-force vs pruned vs
//! heuristic selection on the same circuit state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use statsize::{
    BruteForceSelector, DeterministicSelector, HeuristicSelector, Objective, PrunedSelector,
    TimedCircuit,
};
use statsize_bench::suite;
use statsize_cells::{CellLibrary, VariationModel};

fn bench_selection(c: &mut Criterion) {
    let lib = CellLibrary::synthetic_180nm();
    let variation = VariationModel::paper_default();
    let objective = Objective::percentile(0.99);

    for name in ["c432", "c880"] {
        let nl = suite::build_circuit(name, 1);
        let circuit = TimedCircuit::new(&nl, &lib, variation, 2.0);
        let mut group = c.benchmark_group(format!("select_{name}"));
        group.sample_size(10);

        group.bench_with_input(BenchmarkId::from_parameter("brute"), &(), |b, _| {
            let sel = BruteForceSelector::new(1.0);
            b.iter(|| sel.select(&circuit, objective))
        });
        group.bench_with_input(BenchmarkId::from_parameter("pruned"), &(), |b, _| {
            let sel = PrunedSelector::new(1.0);
            b.iter(|| sel.select(&circuit, objective))
        });
        group.bench_with_input(BenchmarkId::from_parameter("heuristic2"), &(), |b, _| {
            let sel = HeuristicSelector::new(1.0, 2);
            b.iter(|| sel.select(&circuit, objective))
        });
        group.bench_with_input(BenchmarkId::from_parameter("deterministic"), &(), |b, _| {
            let sel = DeterministicSelector::new(1.0);
            b.iter(|| sel.select(&circuit))
        });
        group.finish();
    }
}

/// The work-stealing pruned sweep across thread counts — the `t1` row is
/// the same sweep on one worker, so the group reads directly as a
/// scaling curve (selections are bit-identical throughout).
fn bench_parallel_selection(c: &mut Criterion) {
    let lib = CellLibrary::synthetic_180nm();
    let variation = VariationModel::paper_default();
    let objective = Objective::percentile(0.99);

    for name in ["c432", "c880"] {
        let nl = suite::build_circuit(name, 1);
        let circuit = TimedCircuit::new(&nl, &lib, variation, 2.0);
        let mut group = c.benchmark_group(format!("pruned_parallel_{name}"));
        group.sample_size(10);
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("t{threads}")),
                &threads,
                |b, &threads| {
                    let sel = PrunedSelector::new(1.0).with_threads(threads);
                    b.iter(|| sel.select(&circuit, objective))
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_selection, bench_parallel_selection);
criterion_main!(benches);
