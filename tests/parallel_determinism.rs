//! Determinism suite for the work-stealing parallel candidate sweeps.
//!
//! The contract under test: for every thread count, the parallel
//! selectors return **bit-identical** `Selection`s to the serial
//! reference sweep — same gates, same sensitivities, same order — and
//! the `PruneStats` accounting invariant `pruned + completed ==
//! candidates` holds (the *split* between the two counters is allowed to
//! differ across schedules; the selections are not).

use statsize::{BruteForceSelector, Objective, PruneStats, PrunedSelector, TimedCircuit};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::generator;

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

fn assert_stats_invariant(stats: &PruneStats, ctx: &str) {
    assert_eq!(
        stats.pruned + stats.completed,
        stats.candidates,
        "{ctx}: every candidate must end exactly one way, got {stats:?}"
    );
}

/// Serial-vs-parallel bit-identity of `select` and `select_top_k` on one
/// generated ISCAS profile, after `descent` rounds of committing the
/// serial top 3, plus the stats invariant at every thread count. Returns
/// the serial `select` stats.
fn check_pruned_profile(name: &str, seed: u64, dt: f64, k: usize, descent: usize) -> PruneStats {
    let nl = generator::generate_iscas(name, seed).unwrap();
    let lib = CellLibrary::synthetic_180nm();
    let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
    let obj = Objective::percentile(0.99);
    let selector = PrunedSelector::new(1.0);
    for _ in 0..descent {
        for s in selector.with_threads(1).select_top_k(&circuit, obj, 3) {
            circuit.commit_resize(s.gate, 1.0);
        }
    }

    let (want_best, serial_stats) = selector.with_threads(1).select_with_stats(&circuit, obj);
    let want_best = want_best.expect("the profiles under test still have an improving gate");
    assert_stats_invariant(&serial_stats, &format!("{name}: serial"));
    let want_top = selector.with_threads(1).select_top_k(&circuit, obj, k);
    assert_eq!(
        want_top.first(),
        Some(&want_best),
        "{name}: top-1 is the argmax"
    );

    for threads in THREAD_COUNTS {
        let par = selector.with_threads(threads);
        let (got_best, stats) = par.select_with_stats(&circuit, obj);
        assert_eq!(
            Some(want_best),
            got_best,
            "{name}: select must be bit-identical at {threads} threads"
        );
        assert_stats_invariant(&stats, &format!("{name}: {threads} threads"));
        assert_eq!(stats.candidates, serial_stats.candidates, "{name}");

        let got_top = par.select_top_k(&circuit, obj, k);
        assert_eq!(
            want_top, got_top,
            "{name}: select_top_k({k}) must be bit-identical at {threads} threads"
        );
    }
    serial_stats
}

#[test]
fn pruned_parallel_is_bit_identical_on_c432() {
    check_pruned_profile("c432", 1, 2.0, 4, 0);
}

#[test]
fn pruned_parallel_is_bit_identical_on_c880() {
    // Coarser lattice than the bench profile: identical code paths and
    // scheduling behavior, smaller supports, so the debug-mode suite
    // stays fast.
    check_pruned_profile("c880", 1, 3.0, 4, 0);
}

#[test]
fn pruned_parallel_is_bit_identical_on_c432_after_descent() {
    // Unsized circuits prune nearly every front against the first
    // completed sensitivity (about 98% on this profile). After some
    // descent the circuit balances: fewer fronts prune, more complete,
    // and the surviving fronts trade bound witnesses level by level.
    let stats = check_pruned_profile("c432", 1, 3.0, 3, 16);
    assert!(
        stats.pruned_fraction() < 0.9,
        "expected the low-pruning regime, got {stats:?}"
    );
}

#[test]
fn brute_force_parallel_is_bit_identical_on_c432() {
    let nl = generator::generate_iscas("c432", 1).unwrap();
    let lib = CellLibrary::synthetic_180nm();
    let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 3.0);
    let obj = Objective::percentile(0.99);
    let want = BruteForceSelector::new(1.0)
        .with_threads(1)
        .all_sensitivities(&circuit, obj);
    let got = BruteForceSelector::new(1.0)
        .with_threads(4)
        .all_sensitivities(&circuit, obj);
    assert_eq!(want, got, "full sensitivity profile must be bit-identical");
}

#[test]
fn thread_counts_beyond_the_candidate_pool_are_safe() {
    // More workers than candidates (c17 has 6 gates): the sweep caps the
    // worker count and still returns the exact serial result.
    let nl = statsize_netlist::bench::c17();
    let lib = CellLibrary::synthetic_180nm();
    let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
    let obj = Objective::percentile(0.99);
    let selector = PrunedSelector::new(1.0);
    let want = selector.with_threads(1).select_top_k(&circuit, obj, 3);
    for threads in [7, 64, 1024] {
        let (got, stats) = selector
            .with_threads(threads)
            .select_top_k_with_stats(&circuit, obj, 3);
        assert_eq!(want, got, "threads={threads}");
        assert_stats_invariant(&stats, &format!("c17 @ {threads} threads"));
    }
}
