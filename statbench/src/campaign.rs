//! `campaign_iscas`: `Campaign::run_with_store` over the paper's ISCAS
//! set, two shards of one thread each, in three passes: cold (fresh
//! journal and store), cached (replayed from the read-only store, no
//! sweeps), and a warm refinement at `dt = 1` started from the stored
//! sizes.
//!
//! Jobs are submitted largest first, so the two-shard schedule is the same
//! on every run: `c3540` alone takes about as long as all the others
//! together, and it starts at once instead of whenever a shard frees up.

use crate::report::Outcome;
use crate::stats::{median, median_or_nan};
use crate::trace::Tracer;
use crate::{common_tail, failed_frac, guarded, repeat, Scratch, SETUPS_PER_REP};
use statsize::{
    BruteForceSelector, Campaign, CampaignJob, CampaignReport, Journal, Objective, PrunedSelector,
    ResultStore, SelectorKind, TimedCircuit,
};
use statsize_bench::campaign::render_report;
use statsize_bench::suite;
use statsize_cells::{CellLibrary, VariationModel};
use std::time::{Duration, Instant};

/// The paper's ISCAS-85 circuits, largest first.
const CIRCUITS: [&str; 7] = ["c3540", "c2670", "c1908", "c1355", "c880", "c499", "c432"];
const CORPUS_SEED: u64 = 1;
/// Iterations per job of the cold (and cached) pass.
const ITERATIONS: usize = 15;
/// Iterations per job of the warm refinement pass.
const WARM_ITERATIONS: usize = 5;
const SHARDS: usize = 2;
const THREADS: usize = 2;
/// Iterations of the paper's Table 2 comparison.
const TABLE2_ITERATIONS: usize = 3;

fn objective() -> Objective {
    Objective::percentile(0.99)
}

fn campaign(dt: f64, iterations: usize) -> Campaign {
    Campaign::new(objective(), SelectorKind::Pruned)
        .with_max_iterations(iterations)
        .with_dt(dt)
        .with_shards(SHARDS)
        .with_total_threads(THREADS)
        .with_corpus_seed(CORPUS_SEED)
}

fn jobs() -> Vec<CampaignJob> {
    CIRCUITS
        .iter()
        .map(|&name| CampaignJob::new(name, suite::build_circuit(name, CORPUS_SEED)))
        .collect()
}

/// The three passes' reports and times.
struct Passes {
    cold: CampaignReport,
    cached: CampaignReport,
    warm: CampaignReport,
    cold_s: f64,
    cached_s: f64,
    warm_s: f64,
}

/// Runs the three passes with fresh files in `scratch`, each call into
/// the campaign, store and journal inside a span.
fn passes(
    jobs: &[CampaignJob],
    library: &CellLibrary,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<Passes, String> {
    let (journal_path, store_path) = (
        scratch.path("campaign.journal"),
        scratch.path("campaign.store"),
    );
    let t0 = Instant::now();
    let mut journal = tracer
        .time("journal.create", || Journal::create(&journal_path))
        .map_err(|e| e.to_string())?;
    let mut store = tracer
        .time("store.create", || ResultStore::create(&store_path))
        .map_err(|e| e.to_string())?;
    let cold = tracer.time("campaign.cold", || {
        campaign(2.0, ITERATIONS).run_with_store(
            jobs,
            library,
            Some(&mut journal),
            Some(&mut store),
        )
    });
    let cold_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut store = tracer
        .time("store.open", || ResultStore::open_read_only(&store_path))
        .map_err(|e| e.to_string())?;
    let cached = tracer.time("campaign.cached", || {
        campaign(2.0, ITERATIONS).run_with_store(jobs, library, None, Some(&mut store))
    });
    let cached_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut store = tracer
        .time("store.open", || ResultStore::open_read_only(&store_path))
        .map_err(|e| e.to_string())?;
    let warm = tracer.time("campaign.warm", || {
        campaign(1.0, WARM_ITERATIONS).run_with_store(jobs, library, None, Some(&mut store))
    });
    let warm_s = t0.elapsed().as_secs_f64();
    Ok(Passes {
        cold,
        cached,
        warm,
        cold_s,
        cached_s,
        warm_s,
    })
}

/// Output checks: every job completes; the cached pass replays every job
/// and renders byte-identically to the cold one; every warm job started
/// from stored sizes. Returns the number of jobs that did not complete.
fn check(out: &mut Outcome, p: &Passes) -> u64 {
    let mut incomplete = 0;
    for (pass, report) in [("cold", &p.cold), ("cached", &p.cached), ("warm", &p.warm)] {
        let done = report.counts().completed;
        incomplete += (CIRCUITS.len() - done.min(CIRCUITS.len())) as u64;
        out.check(done == CIRCUITS.len(), || {
            format!("{pass} pass completed {done} of {} jobs", CIRCUITS.len())
        });
    }
    out.check(p.cached.cached == CIRCUITS.len(), || {
        format!("cached pass replayed {} jobs", p.cached.cached)
    });
    let obj = objective().to_string();
    out.check(
        render_report(&p.cached, &obj, false) == render_report(&p.cold, &obj, false),
        || "the cached report differs from the cold report".to_string(),
    );
    out.check(p.warm.completed().all(|o| o.warm_started), || {
        "a warm job did not start from stored sizes".to_string()
    });
    incomplete
}

/// Mean T99 reduction over the cold pass's jobs, in percent.
fn gain_pct(report: &CampaignReport) -> f64 {
    let gains: Vec<f64> = report
        .completed()
        .map(|o| 100.0 * (o.initial_objective - o.final_objective) / o.initial_objective)
        .collect();
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// The untraced workload.
pub fn run(seconds: u64, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let library = CellLibrary::synthetic_180nm();
    let mut setups = Vec::new();
    let mut off = Tracer::new(false);
    let mut results = Vec::new();
    let reps = repeat(seconds, 2, || {
        let mut jobs_built = Vec::new();
        for _ in 0..SETUPS_PER_REP {
            let t0 = Instant::now();
            jobs_built = jobs();
            setups.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let r = guarded(&mut out, "campaign passes", || {
            passes(&jobs_built, &library, scratch, &mut off)
        });
        results.push(r);
        t0.elapsed()
    });
    let (mut cold, mut cached, mut warm, mut rounds, mut gain) =
        (vec![], vec![], vec![], vec![], f64::NAN);
    for r in results {
        out.attempted += 3 * CIRCUITS.len() as u64;
        match r {
            Some(Ok(p)) => {
                out.failed += check(&mut out, &p);
                cold.push(p.cold_s);
                cached.push(p.cached_s * 1e3);
                warm.push(p.warm_s);
                gain = gain_pct(&p.cold);
                for o in p.cold.completed() {
                    rounds.push(o.wall.as_secs_f64() * 1e3 / o.iterations.max(1) as f64);
                }
            }
            Some(Err(e)) => {
                out.failed += 3 * CIRCUITS.len() as u64;
                out.errors.push(e);
            }
            None => out.failed += 3 * CIRCUITS.len() as u64,
        }
    }
    let times = &reps.wall;
    let total: f64 = times.iter().sum();
    let jobs_done = out.attempted - out.failed;
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "build the 7 ISCAS netlists",
    );
    out.metric(
        "run_s",
        median(times),
        "s",
        times.len(),
        "cold + cached + warm passes",
    );
    out.metric(
        "t99_gain_pct",
        gain,
        "%",
        CIRCUITS.len(),
        "mean T99 reduction of the cold pass (deterministic)",
    );
    out.metric(
        "ops_per_s",
        jobs_done as f64 / total,
        "1/s",
        jobs_done as usize,
        "jobs answered per second, all passes",
    );
    out.metric(
        "step_p50_ms",
        median_or_nan(&rounds),
        "ms",
        rounds.len(),
        "cold job wall / iterations",
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
    if !cold.is_empty() {
        out.metric(
            "cold_s",
            median(&cold),
            "s",
            cold.len(),
            "fresh journal and store",
        );
        out.metric(
            "cached_ms",
            median(&cached),
            "ms",
            cached.len(),
            "read-only store replay, zero sweeps",
        );
        out.metric(
            "warm_s",
            median(&warm),
            "s",
            warm.len(),
            "dt = 1 refinement from stored sizes",
        );
    }
    failed_frac(&mut out, "jobs not completed over jobs attempted");
    out
}

/// The per-layer split of `campaign_iscas`.
pub fn traced(out: &mut Outcome, scratch: &Scratch) -> String {
    let library = CellLibrary::synthetic_180nm();
    let jobs = jobs();
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    out.attempted += 6 * CIRCUITS.len() as u64;
    let twin = guarded(out, "untraced campaign passes", || {
        let t0 = Instant::now();
        (passes(&jobs, &library, scratch, &mut off), t0.elapsed())
    });
    let traced = guarded(out, "traced campaign passes", || {
        let t0 = Instant::now();
        (passes(&jobs, &library, scratch, &mut tracer), t0.elapsed())
    });
    let (Some((Ok(twin), twin_t)), Some((Ok(p), traced_t))) = (twin, traced) else {
        out.failed += 6 * CIRCUITS.len() as u64;
        out.errors
            .push("the traced campaign passes did not run".to_string());
        return tracer.to_jsonl("campaign_iscas");
    };
    out.failed += check(out, &twin) + check(out, &p);

    // Each job runs on one thread of its own shard: its wall time is its
    // serial time.
    let mut sum_jobs = 0.0;
    for name in CIRCUITS {
        let wall = p
            .cold
            .completed()
            .find(|o| o.name == name)
            .map_or(f64::NAN, |o| o.wall.as_secs_f64());
        sum_jobs += wall;
        out.metric(
            format!("campaign.job_s.{name}"),
            wall,
            "s",
            1,
            "cold pass, one thread -> cold_s, run_s (campaign_iscas)",
        );
    }
    out.metric(
        "campaign.shard_efficiency",
        sum_jobs / (SHARDS as f64 * p.cold_s),
        "frac",
        CIRCUITS.len(),
        "sum of job_s / (2 * cold_s) -> cold_s, run_s (campaign_iscas)",
    );

    // store: open, lookup and record, called directly on the cold pass's
    // store and outcomes.
    let store_path = scratch.path("campaign.store");
    let cold_cfg = campaign(2.0, ITERATIONS);
    let keys: Vec<_> = jobs
        .iter()
        .filter_map(|j| j.netlist().map(|n| cold_cfg.scenario_key(&library, n)))
        .collect();
    match tracer.time("store.open", || ResultStore::open_read_only(&store_path)) {
        Ok(store) => {
            let mut hits = 0;
            for key in &keys {
                hits += usize::from(
                    tracer
                        .time("store.lookup", || store.lookup_exact(key))
                        .is_some(),
                );
            }
            out.check(hits == keys.len(), || {
                format!("{hits} of {} stored scenarios found", keys.len())
            });
            match tracer.time("store.create", || {
                ResultStore::create(scratch.path("record.store"))
            }) {
                Ok(mut copy) => {
                    for key in &keys {
                        if let Some(entry) = store.lookup_exact(key) {
                            tracer.time("store.record", || {
                                copy.record(key, &entry.sizes, &entry.outcome)
                            });
                        }
                    }
                }
                Err(e) => out.errors.push(e.to_string()),
            }
        }
        Err(e) => out.errors.push(e.to_string()),
    }
    let journal_path = scratch.path("campaign.journal");
    match tracer.time("journal.resume", || Journal::resume(&journal_path)) {
        Ok(j) => out.check(j.len() == CIRCUITS.len(), || {
            format!("journal holds {} of {} jobs", j.len(), CIRCUITS.len())
        }),
        Err(e) => out.errors.push(e.to_string()),
    }
    let opens = tracer.durations("store.open");
    let lookups = tracer.durations("store.lookup");
    let records = tracer.durations("store.record");
    out.metric(
        "store.open_ms",
        median_or_nan(&opens) * 1e3,
        "ms",
        opens.len(),
        "read-only open of the 7-entry store -> cached_ms (campaign_iscas)",
    );
    out.metric(
        "store.lookup_us",
        median_or_nan(&lookups) * 1e6,
        "us",
        lookups.len(),
        "-> cached_ms (campaign_iscas)",
    );
    out.metric(
        "store.record_ms",
        median_or_nan(&records) * 1e3,
        "ms",
        records.len(),
        "-> cold_s (campaign_iscas)",
    );
    let create = tracer.durations("journal.create");
    let resume = tracer.durations("journal.resume");
    out.metric(
        "journal.create_ms",
        median_or_nan(&create) * 1e3,
        "ms",
        create.len(),
        "-> cold_s (campaign_iscas)",
    );
    out.metric(
        "journal.resume_ms",
        median_or_nan(&resume) * 1e3,
        "ms",
        resume.len(),
        "read back 7 records -> cold_s (campaign_iscas)",
    );

    // ssta: the full analysis a warm start runs at dt = 1 from the
    // stored sizes (set_sizes re-analyses from scratch).
    let mut warm_ssta = 0.0;
    if let Ok(store) = ResultStore::open_read_only(&store_path) {
        for (job, key) in jobs.iter().zip(&keys) {
            let (Some(netlist), Some(entry)) = (job.netlist(), store.lookup_exact(key)) else {
                continue;
            };
            let mut circuit =
                TimedCircuit::new(netlist, &library, VariationModel::paper_default(), 1.0);
            let t0 = Instant::now();
            tracer.time("ssta.warm", || circuit.set_sizes(&entry.sizes));
            warm_ssta += t0.elapsed().as_secs_f64();
        }
    }
    out.metric(
        "ssta.full_ms.warm",
        warm_ssta * 1e3,
        "ms",
        CIRCUITS.len(),
        "sum over the 7 circuits at dt = 1 -> warm_s (campaign_iscas)",
    );

    table2(out, &library, &mut tracer);
    out.metric(
        "trace.overhead_pct.campaign_iscas",
        100.0 * (traced_t.as_secs_f64() - twin_t.as_secs_f64()) / twin_t.as_secs_f64(),
        "%",
        2,
        "traced vs untraced three passes",
    );
    tracer.to_jsonl("campaign_iscas")
}

/// Paper Table 2 on c880: brute force against the pruned sweep over the
/// first iterations, one thread each, same selection required.
fn table2(out: &mut Outcome, library: &CellLibrary, tracer: &mut Tracer) {
    let netlist = suite::build_circuit("c880", CORPUS_SEED);
    let mut circuit = TimedCircuit::new(&netlist, library, VariationModel::paper_default(), 2.0);
    let (mut brute_t, mut pruned_t) = (Duration::ZERO, Duration::ZERO);
    for i in 0..TABLE2_ITERATIONS {
        tracer.request(i as u64);
        out.attempted += 1;
        let t0 = Instant::now();
        let brute = tracer.time("brute", || {
            BruteForceSelector::new(1.0)
                .with_threads(1)
                .select(&circuit, objective())
        });
        brute_t += t0.elapsed();
        let t0 = Instant::now();
        let pruned = tracer.time("pruned", || {
            PrunedSelector::new(1.0)
                .with_threads(1)
                .select(&circuit, objective())
        });
        pruned_t += t0.elapsed();
        let same = match (&brute, &pruned) {
            (Some(b), Some(p)) => {
                b.gate == p.gate && b.sensitivity.to_bits() == p.sensitivity.to_bits()
            }
            _ => false,
        };
        out.check(same, || {
            format!("c880 iteration {i}: pruned chose {pruned:?}, brute force {brute:?}")
        });
        let Some(p) = pruned else {
            out.failed += 1;
            break;
        };
        circuit.commit_resize(p.gate, 1.0);
    }
    out.metric(
        "brute.sweep_s.c880",
        brute_t.as_secs_f64(),
        "s",
        TABLE2_ITERATIONS,
        "Table 2 brute force -> cold_s (campaign_iscas)",
    );
    out.metric(
        "pruned.sweep_s.c880",
        pruned_t.as_secs_f64(),
        "s",
        TABLE2_ITERATIONS,
        "Table 2 pruned -> cold_s (campaign_iscas)",
    );
    out.metric(
        "table2.speedup.c880",
        brute_t.as_secs_f64() / pruned_t.as_secs_f64(),
        "x",
        TABLE2_ITERATIONS,
        "brute / pruned, base brute.sweep_s.c880 -> cold_s (campaign_iscas)",
    );
}
