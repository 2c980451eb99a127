//! `size_gen3000`: batch coordinate descent on `gen3000`.
//!
//! Four iterations from minimum sizes with two selector threads. The
//! pruned sweep does nearly all the work here, and its cost grows from
//! one iteration to the next as the circuit balances and fewer
//! candidates are pruned, so the timed phase covers the descent past its
//! cheap first step.

use crate::report::Outcome;
use crate::stats::{median, median_or_nan};
use crate::trace::Tracer;
use crate::{common_tail, failed_frac, guarded, repeat, SETUPS_PER_REP};
use statsize::{Objective, Optimizer, PruneStats, PrunedSelector, SelectorKind, TimedCircuit};
use statsize_bench::suite;
use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
use statsize_dist::{Dist, TierPolicy};
use statsize_netlist::{GateId, Netlist};
use statsize_ssta::{ArcDelays, SstaAnalysis, TimingGraph};
use std::time::{Duration, Instant};

const CIRCUIT: &str = "gen3000";
/// Generator seed of the circuit; fixed, so every run sizes the same one.
const CIRCUIT_SEED: u64 = 1;
const DT: f64 = 2.0;
const DELTA_W: f64 = 1.0;
const ITERATIONS: usize = 4;
const THREADS: usize = 2;

fn objective() -> Objective {
    Objective::percentile(0.99)
}

/// The descent's observable result: the selected gates and the objective
/// after each commit, as bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trajectory {
    gates: Vec<GateId>,
    objective_bits: Vec<u64>,
}

fn setup(library: &CellLibrary) -> (Netlist, Duration) {
    let t0 = Instant::now();
    let netlist = suite::build_circuit(CIRCUIT, CIRCUIT_SEED);
    let circuit = TimedCircuit::new(&netlist, library, VariationModel::paper_default(), DT);
    std::hint::black_box(circuit.objective_value(objective()));
    let elapsed = t0.elapsed();
    (netlist, elapsed)
}

/// Checks a trajectory against the serial reference: same gates, same
/// objective bits, objective never increasing.
fn check(out: &mut Outcome, what: &str, initial: f64, got: &Trajectory, reference: &Trajectory) {
    out.check(got == reference, || {
        format!("{what}: trajectory differs from the serial one: {got:?} vs {reference:?}")
    });
    let mut last = initial;
    for &bits in &got.objective_bits {
        let v = f64::from_bits(bits);
        out.check(v <= last, || {
            format!("{what}: objective rose from {last} to {v}")
        });
        last = v;
    }
    out.check(got.gates.len() == ITERATIONS, || {
        format!(
            "{what}: {} iterations instead of {ITERATIONS}",
            got.gates.len()
        )
    });
}

/// The untraced workload.
pub fn run(seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let library = CellLibrary::synthetic_180nm();
    let mut setups = Vec::new();
    let netlist = setup(&library).0;
    let fresh = || TimedCircuit::new(&netlist, &library, VariationModel::paper_default(), DT);
    let initial = fresh().objective_value(objective());

    // The serial trajectory every threaded run must reproduce bit for
    // bit (selections are identical for every thread count).
    out.attempted += ITERATIONS as u64;
    let reference = guarded(&mut out, "serial reference descent", || {
        let mut c = fresh();
        descend_optimizer(&mut c, 1)
    });

    if let Some((reference, _, _)) = &reference {
        check(&mut out, "serial descent", initial, reference, reference);
    }

    let (mut iterations, mut step_ms) = (0, Vec::new());
    let mut gain = f64::NAN;
    let mut runs = Vec::new();
    let reps = repeat(seconds, 2, || {
        for _ in 0..SETUPS_PER_REP {
            setups.push(setup(&library).1.as_secs_f64());
        }
        let mut c = fresh();
        let t0 = Instant::now();
        let result = guarded(&mut out, "descent", || descend_optimizer(&mut c, THREADS));
        let elapsed = t0.elapsed();
        runs.push(result);
        elapsed
    });
    for result in runs {
        out.attempted += ITERATIONS as u64;
        let Some((traj, per_iter, final_objective)) = result else {
            out.failed += ITERATIONS as u64;
            continue;
        };
        out.failed += (ITERATIONS - traj.gates.len().min(ITERATIONS)) as u64;
        iterations += per_iter.len();
        let sum: f64 = per_iter.iter().map(Duration::as_secs_f64).sum();
        step_ms.push(sum * 1e3 / per_iter.len().max(1) as f64);
        gain = 100.0 * (initial - final_objective) / initial;
        if let Some((reference, _, _)) = &reference {
            check(&mut out, "two-thread descent", initial, &traj, reference);
        }
    }
    let times = &reps.wall;
    let total: f64 = times.iter().sum();
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "gen3000 build + full SSTA at minimum sizes",
    );
    out.metric(
        "run_s",
        median_or_nan(times),
        "s",
        times.len(),
        "one 4-iteration descent, 2 selector threads",
    );
    out.metric(
        "t99_gain_pct",
        gain,
        "%",
        1,
        "T99 reduction after 4 iterations (deterministic)",
    );
    out.metric(
        "ops_per_s",
        iterations as f64 / total,
        "1/s",
        iterations,
        "sizing iterations per second",
    );
    out.metric(
        "step_p50_ms",
        median_or_nan(&step_ms),
        "ms",
        step_ms.len(),
        "mean iteration (sweep + commit) of a descent; iterations 0-3 differ 10x, so they are not pooled",
    );
    common_tail(&mut out);
    out.seal_reported();
    out.metric(
        "run_cpu_s",
        median(&reps.cpu),
        "s",
        reps.cpu.len(),
        "CPU time of one repetition, all threads",
    );
    if let Some((_, per_iter, _)) = &reference {
        let serial: f64 = per_iter.iter().map(Duration::as_secs_f64).sum();
        out.metric(
            "serial_descent_s",
            serial,
            "s",
            1,
            "the 1-thread reference descent",
        );
    }
    failed_frac(
        &mut out,
        "descent iterations not run over iterations attempted",
    );
    out
}

/// Batch descent through the public optimizer: the trajectory, each
/// iteration's time, and the final objective.
fn descend_optimizer(
    circuit: &mut TimedCircuit<'_>,
    threads: usize,
) -> (Trajectory, Vec<Duration>, f64) {
    let result = Optimizer::new(objective(), SelectorKind::Pruned)
        .with_delta_w(DELTA_W)
        .with_max_iterations(ITERATIONS)
        .with_threads(threads)
        .run(circuit);
    let trajectory = Trajectory {
        gates: result.iterations.iter().map(|r| r.gate).collect(),
        objective_bits: result
            .iterations
            .iter()
            .map(|r| r.objective_after.to_bits())
            .collect(),
    };
    let times = result.iterations.iter().map(|r| r.elapsed).collect();
    (trajectory, times, result.final_objective)
}

/// One traced (or untraced, with a disabled tracer) descent, calling the
/// selector and the commit directly so each gets its own span. Returns
/// the trajectory, per-iteration sweep times and prune statistics.
fn descend_layers(
    circuit: &mut TimedCircuit<'_>,
    threads: usize,
    tracer: &mut Tracer,
) -> (Trajectory, Vec<f64>, Vec<PruneStats>) {
    let selector = PrunedSelector::new(DELTA_W).with_threads(threads);
    let mut trajectory = Trajectory {
        gates: Vec::new(),
        objective_bits: Vec::new(),
    };
    let (mut sweeps, mut stats) = (Vec::new(), Vec::new());
    for iteration in 0..ITERATIONS {
        tracer.request(iteration as u64);
        let step = tracer.enter("optimizer");
        let t0 = Instant::now();
        let (selection, s) = tracer.time("pruned", || {
            selector.select_with_stats(circuit, objective())
        });
        sweeps.push(t0.elapsed().as_secs_f64());
        stats.push(s);
        let Some(selection) = selection else {
            tracer.exit(step);
            break;
        };
        tracer.time("circuit", || circuit.commit_resize(selection.gate, DELTA_W));
        trajectory.gates.push(selection.gate);
        trajectory
            .objective_bits
            .push(circuit.objective_value(objective()).to_bits());
        tracer.exit(step);
    }
    (trajectory, sweeps, stats)
}

/// The per-layer split of `size_gen3000`.
pub fn traced(out: &mut Outcome) -> String {
    let library = CellLibrary::synthetic_180nm();
    let variation = VariationModel::paper_default();
    let mut tracer = Tracer::new(true);

    // Set-up, one layer at a time: median of three.
    let mut netlist = None;
    for i in 0..3 {
        tracer.request(i);
        let nl = tracer.time("netlist", || suite::build_circuit(CIRCUIT, CIRCUIT_SEED));
        let delays = tracer.time("cells", || {
            let model = DelayModel::new(&library, &nl);
            ArcDelays::compute(&nl, &model, &GateSizes::minimum(&nl), &variation, DT)
        });
        let ssta = tracer.time("ssta", || {
            let graph = TimingGraph::build(&nl);
            SstaAnalysis::run_with_policy(&graph, &delays, TierPolicy::auto())
        });
        std::hint::black_box(ssta.sink_arrival());
        netlist = Some(nl);
    }
    let netlist = netlist.expect("three set-ups ran");
    let ms = |v: Vec<f64>| median(&v) * 1e3;
    out.metric(
        "netlist.build_ms",
        ms(tracer.durations("netlist")),
        "ms",
        3,
        "-> setup_s (all workloads)",
    );
    out.metric(
        "cells.delays_ms",
        ms(tracer.durations("cells")),
        "ms",
        3,
        "-> setup_s (size_gen3000)",
    );
    out.metric(
        "ssta.full_ms",
        ms(tracer.durations("ssta")),
        "ms",
        3,
        "-> setup_s (size_gen3000); campaign_iscas run_s",
    );

    let fresh = || TimedCircuit::new(&netlist, &library, variation, DT);
    let initial = fresh().objective_value(objective());
    out.attempted += 5 * ITERATIONS as u64;

    // Serial sweep: its prune statistics repeat exactly run to run.
    let mut off = Tracer::new(false);
    let serial = guarded(out, "serial traced descent", || {
        descend_layers(&mut fresh(), 1, &mut off)
    });
    // The descent at two threads, untraced and traced alternately; the
    // metrics come from the last traced one.
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut twin, mut traced) = (None, None);
    let mut final_circuit = fresh();
    let mut run_tracer = Tracer::new(true);
    for _ in 0..2 {
        let mut circuit = fresh();
        let t0 = Instant::now();
        twin = guarded(out, "untraced twin descent", || {
            descend_layers(&mut circuit, THREADS, &mut off)
        });
        untraced_s.push(t0.elapsed().as_secs_f64());
        final_circuit = fresh();
        run_tracer = Tracer::new(true);
        let t0 = Instant::now();
        traced = guarded(out, "traced descent", || {
            descend_layers(&mut final_circuit, THREADS, &mut run_tracer)
        });
        traced_s.push(t0.elapsed().as_secs_f64());
    }

    let (Some(serial), Some(twin), Some(traced)) = (serial, twin, traced) else {
        out.failed += ITERATIONS as u64;
        return tracer.to_jsonl("size_gen3000.setup");
    };
    check(
        out,
        "traced two-thread descent",
        initial,
        &traced.0,
        &serial.0,
    );
    check(
        out,
        "untraced two-thread descent",
        initial,
        &twin.0,
        &serial.0,
    );

    let t2: f64 = traced.1.iter().sum();
    let t1: f64 = serial.1.iter().sum();
    out.metric(
        "pruned.sweep_s",
        t2,
        "s",
        ITERATIONS,
        "-> run_s, step_p50_ms (size_gen3000)",
    );
    for (i, s) in traced.1.iter().enumerate() {
        out.metric(
            format!("pruned.sweep_s.iter{i}"),
            *s,
            "s",
            1,
            "-> run_s (size_gen3000)",
        );
    }
    out.metric(
        "pruned.sweep_t1_s",
        t1,
        "s",
        ITERATIONS,
        "-> run_s (size_gen3000), at one thread",
    );
    out.metric(
        "parallel.speedup",
        t1 / t2,
        "x",
        ITERATIONS,
        "sweep t1/t2, base pruned.sweep_t1_s -> run_s (size_gen3000)",
    );
    let mut sum = PruneStats::default();
    for s in &serial.2 {
        sum.candidates += s.candidates;
        sum.completed += s.completed;
        sum.pruned += s.pruned;
        sum.levels_propagated += s.levels_propagated;
        sum.nodes_computed += s.nodes_computed;
    }
    let count = |v: usize| v as f64;
    out.metric(
        "pruned.candidates",
        count(sum.candidates),
        "count",
        ITERATIONS,
        "t1, repeats exactly; base of pruned_frac",
    );
    out.metric(
        "pruned.completed",
        count(sum.completed),
        "count",
        ITERATIONS,
        "t1, repeats exactly -> run_s (size_gen3000)",
    );
    out.metric(
        "pruned.pruned_frac",
        sum.pruned_fraction(),
        "frac",
        ITERATIONS,
        "t1, repeats exactly -> run_s (size_gen3000)",
    );
    out.metric(
        "pruned.levels",
        count(sum.levels_propagated),
        "count",
        ITERATIONS,
        "t1, repeats exactly -> run_s (size_gen3000)",
    );
    out.metric(
        "pruned.nodes",
        count(sum.nodes_computed),
        "count",
        ITERATIONS,
        "t1, repeats exactly -> run_s (size_gen3000)",
    );
    out.metric(
        "pruned.us_per_node",
        t1 * 1e6 / count(sum.nodes_computed.max(1)),
        "us",
        sum.nodes_computed,
        "t1 sweep time per computed node -> run_s (size_gen3000)",
    );
    let commits = run_tracer.durations("circuit");
    out.metric(
        "circuit.commit_ms",
        commits.iter().sum::<f64>() * 1e3 / commits.len().max(1) as f64,
        "ms",
        commits.len(),
        "mean incremental commit -> run_s (size_gen3000), small share",
    );
    let selfs = run_tracer.self_times();
    out.metric(
        "optimizer.self_ms",
        selfs.get("optimizer").copied().unwrap_or(0.0) * 1e3,
        "ms",
        ITERATIONS,
        "iteration time outside sweep and commit -> run_s (size_gen3000)",
    );
    kernel_probe(out, &final_circuit);
    out.metric(
        "trace.overhead_pct.size_gen3000",
        100.0 * (median(&traced_s) - median(&untraced_s)) / median(&untraced_s),
        "%",
        4,
        "traced vs untraced 2-thread descent",
    );
    tracer.to_jsonl("size_gen3000.setup") + &run_tracer.to_jsonl("size_gen3000")
}

/// Times the `convolve`/`max` calls that recompute each node's arrival on
/// the sized circuit's real operands, and reports the arrival widths.
fn kernel_probe(out: &mut Outcome, circuit: &TimedCircuit<'_>) {
    let graph = circuit.graph();
    let (ssta, delays) = (circuit.ssta(), circuit.delays());
    let mut bins: Vec<f64> = Vec::new();
    let mut nodes = 0usize;
    let t0 = Instant::now();
    for level in 1..=graph.sink_level() {
        for &node in graph.nodes_at_level(level) {
            let mut acc: Option<Dist> = None;
            for edge in graph.in_edges(node) {
                let from = ssta.arrival(edge.from);
                let term = match edge.gate {
                    Some(g) => from.convolve(delays.dist(g)),
                    None => from.clone(),
                };
                acc = Some(match acc {
                    Some(a) => a.max_independent(&term),
                    None => term,
                });
            }
            std::hint::black_box(&acc);
            nodes += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    for level in 0..=graph.sink_level() {
        for &node in graph.nodes_at_level(level) {
            bins.push(ssta.arrival(node).support_len() as f64);
        }
    }
    out.metric(
        "dist.node_kernel_us",
        elapsed * 1e6 / nodes.max(1) as f64,
        "us",
        nodes,
        "convolve+max per node recompute; compare pruned.us_per_node -> run_s (size_gen3000)",
    );
    out.metric(
        "dist.arrival_bins_p50",
        median(&bins),
        "bins",
        bins.len(),
        "-> run_s (size_gen3000), step_p50_ms (serve_c1355)",
    );
    out.metric(
        "dist.arrival_bins_max",
        bins.iter().copied().fold(0.0, f64::max),
        "bins",
        bins.len(),
        "-> run_s (size_gen3000)",
    );
}
