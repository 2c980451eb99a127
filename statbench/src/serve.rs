//! `serve_c1355`: a closed loop with one client driving the serve
//! front-end (`Server::handle_line`) from the seeded op stream, with the
//! write-ahead log on and a batch budget of two threads.
//!
//! The incremental circuit update, the WAL and the front-end do most of
//! the work here; the selector sweep runs only inside `step`.

use crate::report::Outcome;
use crate::stats::{median, median_or_nan, min_samples_for_tail, tail};
use crate::stream::{self, Kind, Request, Stream};
use crate::trace::Tracer;
use crate::{common_tail, failed_frac, guarded, repeat, Scratch, SETUPS_PER_REP};
use statsize::wal::{Wal, WalRecord};
use statsize::wire;
use statsize::{
    Deadline, Design, Objective, OpReport, Optimizer, QueryRequest, SelectorKind, SessionOp,
    SessionStore, TimedCircuit,
};
use statsize_bench::serve::Server;
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::Netlist;
use std::collections::BTreeMap;
use std::time::Instant;

const DESIGN: &str = "c1355";
/// Rounds in one replay of the stream: enough that one replay alone puts
/// ten samples beyond the `what_if` p99 and the `commit` p95.
pub const ROUNDS: usize = 52;
/// Rounds in each replay of the traced run.
const TRACE_ROUNDS: usize = 2 * stream::PERIOD;
const THREADS: usize = 2;

/// Gate names (the nets they drive), in gate order.
pub fn gate_names(netlist: &Netlist) -> Vec<String> {
    netlist
        .gate_ids()
        .map(|g| netlist.net(netlist.gate(g).output()).name().to_string())
        .collect()
}

/// Whether a response line reports success, including every entry of a
/// batch.
pub fn response_ok(response: &str) -> bool {
    let Ok(json) = wire::parse(response) else {
        return false;
    };
    let Some(obj) = json.as_object() else {
        return false;
    };
    let ok = |o: &[(String, wire::Json)]| matches!(wire::get_bool(o, "ok"), Ok(true));
    ok(obj)
        && wire::get(obj, "results")
            .ok()
            .and_then(wire::Json::as_array)
            .is_none_or(|rs| rs.iter().all(|r| r.as_object().is_some_and(ok)))
}

/// Objective values reported by the records of a `step` response.
fn step_objectives(response: &str) -> Vec<f64> {
    let Ok(json) = wire::parse(response) else {
        return Vec::new();
    };
    let records = json
        .as_object()
        .and_then(|o| wire::get(o, "records").ok())
        .and_then(wire::Json::as_array)
        .unwrap_or(&[]);
    records
        .iter()
        .filter_map(|r| {
            r.as_object()
                .and_then(|o| wire::get_f64(o, "objective").ok())
        })
        .collect()
}

/// A fresh server with its WAL in `scratch`, after the stream's set-up.
fn start(stream: &Stream, scratch: &Scratch, out: &mut Outcome) -> Option<Server> {
    let wal = match Wal::create(scratch.path("serve.wal")) {
        Ok(w) => w,
        Err(e) => {
            out.errors.push(format!("cannot create the WAL: {e}"));
            return None;
        }
    };
    let mut server = Server::new().with_total_threads(THREADS).with_wal(wal);
    for r in &stream.setup {
        let response = server.handle_line(&r.line).unwrap_or_default();
        if !response_ok(&response) {
            out.errors
                .push(format!("set-up request {} answered {response}", r.line));
            return None;
        }
    }
    Some(server)
}

/// One replay's measurements.
#[derive(Debug, Default)]
struct Replay {
    latency_us: BTreeMap<Kind, Vec<f64>>,
    /// Summed request latency (seconds) of each period.
    period_s: Vec<f64>,
    transcript: String,
    best_objective: f64,
    failed: u64,
}

/// Replays the timed requests through `server`, timing each, optionally
/// inside a `serve` span per request.
fn replay(
    server: &mut Server,
    requests: &[Request],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Replay {
    let mut r = Replay {
        best_objective: f64::INFINITY,
        ..Replay::default()
    };
    for (i, req) in requests.iter().enumerate() {
        tracer.request(i as u64);
        let span = tracer.enter("serve");
        let t0 = Instant::now();
        let response = guarded(out, "serve request", || server.handle_line(&req.line));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tracer.exit(span);
        let response = response.flatten().unwrap_or_default();
        if !response_ok(&response) {
            r.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(format!("{} answered {response}", req.line));
            }
        }
        if req.kind == Kind::Step {
            for v in step_objectives(&response) {
                r.best_objective = r.best_objective.min(v);
            }
        }
        r.latency_us.entry(req.kind).or_default().push(us);
        if r.period_s.len() <= req.period {
            r.period_s.resize(req.period + 1, 0.0);
        }
        r.period_s[req.period] += us / 1e6;
        r.transcript.push_str(&response);
        r.transcript.push('\n');
    }
    r
}

/// The design's objective before any resize, read from a direct session.
fn initial_objective(netlist: &Netlist) -> f64 {
    let library = CellLibrary::synthetic_180nm();
    TimedCircuit::new(netlist, &library, VariationModel::paper_default(), 2.0)
        .objective_value(Objective::percentile(0.99))
}

/// The untraced workload.
pub fn run(seed: u64, seconds: u64, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let netlist = statsize_netlist::bench::c1355();
    let stream = stream::generate(seed, DESIGN, &gate_names(&netlist), ROUNDS);
    let initial = initial_objective(&netlist);
    for (kind, p) in [(Kind::WhatIf, 0.99), (Kind::Commit, 0.95)] {
        let n = stream.count(kind);
        out.check(n >= min_samples_for_tail(p), || {
            format!(
                "one replay has {n} {kind:?} requests, too few for p{}",
                p * 100.0
            )
        });
    }

    let mut setups = Vec::new();
    let mut replays = Vec::new();
    let mut off = Tracer::new(false);
    let reps = repeat(seconds, 2, || {
        for _ in 1..SETUPS_PER_REP {
            let t0 = Instant::now();
            drop(start(&stream, scratch, &mut out));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let server = start(&stream, scratch, &mut out);
        setups.push(t0.elapsed().as_secs_f64());
        let Some(mut server) = server else {
            return t0.elapsed();
        };
        let t0 = Instant::now();
        let r = replay(&mut server, &stream.rounds, &mut off, &mut out);
        let elapsed = t0.elapsed();
        server.finish();
        replays.push(r);
        elapsed
    });

    let mut latency: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut periods = Vec::new();
    let mut best = f64::INFINITY;
    for r in &replays {
        periods.extend(&r.period_s);
        out.attempted += stream.rounds.len() as u64;
        out.failed += r.failed;
        for (k, v) in &r.latency_us {
            latency.entry(*k).or_default().extend(v);
        }
        best = best.min(r.best_objective);
        out.check(r.transcript == replays[0].transcript, || {
            "the transcript differs between replays of one seed".to_string()
        });
    }
    out.check(replays.len() == reps.wall.len(), || {
        "a replay could not start".to_string()
    });
    let samples = |k: Kind| latency.get(&k).cloned().unwrap_or_default();
    // A replay is ROUNDS / PERIOD periods of the same shape (session a
    // repeats its trajectory every period). Its time is taken as that
    // many median periods, so a stall the machine imposes on one period
    // does not move the figure; the plain wall time is printed beside it.
    let replay_s = (ROUNDS / stream::PERIOD) as f64 * median_or_nan(&periods);
    let steps = samples(Kind::Step);
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "server + WAL + load c1355 + open 2 sessions",
    );
    out.metric(
        "run_s",
        replay_s,
        "s",
        periods.len(),
        "one replay of the stream: 13 median 4-round periods",
    );
    out.metric(
        "t99_gain_pct",
        100.0 * (initial - best) / initial,
        "%",
        steps.len(),
        "best T99 session a's steps reach",
    );
    out.metric(
        "ops_per_s",
        stream.rounds.len() as f64 / replay_s,
        "1/s",
        periods.len(),
        "requests answered per second, at the run_s pace",
    );
    out.metric(
        "step_p50_ms",
        median_or_nan(&steps) / 1e3,
        "ms",
        steps.len(),
        "step requests",
    );
    common_tail(&mut out);
    out.seal_reported();
    out.metric(
        "replay_wall_s",
        median(&reps.wall),
        "s",
        reps.wall.len(),
        "wall time of one whole replay",
    );
    if let Some(first) = replays.first() {
        out.metric(
            "transcript_bytes",
            first.transcript.len() as f64,
            "bytes",
            replays.len(),
            format!(
                "fnv1a {:016x}; equal across runs of one seed",
                wire::fnv1a(first.transcript.as_bytes())
            ),
        );
    }
    out.metric(
        "run_cpu_s",
        median(&reps.cpu),
        "s",
        reps.cpu.len(),
        "CPU time of one repetition, all threads",
    );

    for (name, kind, p) in [
        ("what_if_p50_us", Kind::WhatIf, 0.5),
        ("what_if_p99_us", Kind::WhatIf, 0.99),
        ("commit_p50_us", Kind::Commit, 0.5),
        ("commit_p95_us", Kind::Commit, 0.95),
    ] {
        let v = samples(kind);
        match tail(&v, p) {
            Ok(x) => out.metric(name, x, "us", v.len(), "per request, through handle_line"),
            Err(e) => out.errors.push(format!("{name}: {e}")),
        }
    }
    failed_frac(&mut out, "non-ok responses and panics over requests");
    out
}

/// The per-layer split of `serve_c1355`.
pub fn traced(seed: u64, out: &mut Outcome, scratch: &Scratch) -> String {
    let netlist = statsize_netlist::bench::c1355();
    let gates = gate_names(&netlist);
    let stream = stream::generate(seed, DESIGN, &gates, TRACE_ROUNDS);
    let mut spans = String::new();

    // Front-end: the same short stream untraced and traced, alternately.
    let mut elapsed = [Vec::new(), Vec::new()];
    for on in [false, true, false, true] {
        let mut tracer = Tracer::new(on);
        let Some(mut server) = start(&stream, scratch, out) else {
            return spans;
        };
        let t0 = Instant::now();
        let r = replay(&mut server, &stream.rounds, &mut tracer, out);
        elapsed[usize::from(on)].push(t0.elapsed().as_secs_f64());
        server.finish();
        out.attempted += stream.rounds.len() as u64;
        out.failed += r.failed;
        spans += &tracer.to_jsonl("serve_c1355");
    }

    // wire: parsing the request lines alone.
    let lines: Vec<&str> = stream.rounds.iter().map(|r| r.line.as_str()).collect();
    let t0 = Instant::now();
    for line in &lines {
        std::hint::black_box(wire::parse(line).is_ok());
    }
    out.metric(
        "wire.parse_us",
        t0.elapsed().as_secs_f64() * 1e6 / lines.len() as f64,
        "us",
        lines.len(),
        "-> what_if_p50_us (serve_c1355), negligible share",
    );

    // service, circuit and wal, called directly on the same operations.
    let mut tracer = Tracer::new(true);
    let mut store = SessionStore::new().with_total_threads(THREADS);
    let design = Design::new(DESIGN, netlist.clone(), CellLibrary::synthetic_180nm());
    let optimizer = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
        .with_max_iterations(1000)
        .with_threads(THREADS);
    let opened = store
        .add_design(design)
        .and_then(|()| store.open("a", DESIGN, optimizer.clone()))
        .and_then(|()| store.open("b", DESIGN, optimizer))
        .and_then(|()| {
            for s in ["a", "b"] {
                store
                    .session_mut(s)
                    .expect("just opened")
                    .snapshot("base")?;
            }
            Ok(())
        });
    if let Err(e) = opened {
        out.errors.push(format!("direct sessions: {e}"));
        return spans;
    }
    let mut wal = match Wal::create(scratch.path("direct.wal")) {
        Ok(w) => w,
        Err(e) => {
            out.errors.push(format!("cannot create the WAL: {e}"));
            return spans;
        }
    };
    let library = CellLibrary::synthetic_180nm();
    let mut circuit = TimedCircuit::new(&netlist, &library, VariationModel::paper_default(), 2.0);
    let mut step_nodes = Vec::new();
    let mut direct_failed = 0u64;
    for (i, req) in stream.rounds.iter().enumerate() {
        tracer.request(i as u64);
        let json = wire::parse(&req.line).expect("generated requests parse");
        let obj = json.as_object().expect("generated requests are objects");
        let session = wire::get_str(obj, "session").unwrap_or("a").to_string();
        let gate = wire::get_str(obj, "gate").unwrap_or_default().to_string();
        let delta_w = wire::get_f64(obj, "delta_w").unwrap_or(1.0);
        let name = wire::get_str(obj, "name").unwrap_or_default().to_string();
        let s = store.session_mut(&session).expect("both sessions are open");
        let ok = match req.kind {
            Kind::WhatIf => {
                let r = tracer.time("service.what_if", || s.what_if(&gate, delta_w));
                if let Some(g) = netlist
                    .find_net(&gate)
                    .and_then(|n| netlist.net(n).driver())
                {
                    let undo = tracer.time("circuit.commit_undo", || {
                        let undo = circuit.commit_resize_undoable(g, delta_w);
                        std::hint::black_box(circuit.objective_value(Objective::percentile(0.99)));
                        undo
                    });
                    tracer.time("circuit.commit_undo", || circuit.undo_resize(undo));
                }
                r.is_ok()
            }
            Kind::Commit => {
                let r = tracer.time("service.commit", || s.commit(&gate, delta_w));
                let record = WalRecord::Commit {
                    session: session.clone(),
                    gate: gate.clone(),
                    delta_w,
                };
                tracer.time("wal.append", || wal.append(&record));
                r.is_ok()
            }
            Kind::Step => {
                let r = tracer.time("service.step", || s.step(Deadline::none()));
                if let Ok(step) = &r {
                    let nodes: usize = step
                        .records
                        .iter()
                        .filter_map(|x| x.prune)
                        .map(|p| p.nodes_computed)
                        .sum();
                    step_nodes.push(nodes as f64);
                }
                r.is_ok()
            }
            Kind::Snapshot => tracer
                .time("service.snapshot", || s.snapshot(&name))
                .is_ok(),
            Kind::Rollback => tracer
                .time("service.rollback", || s.rollback(&name))
                .is_ok(),
            Kind::Batch => {
                let requests = [
                    QueryRequest::new(
                        "a",
                        SessionOp::WhatIf {
                            gate: gate_of(obj, 0),
                            delta_w: 1.0,
                        },
                    ),
                    QueryRequest::new(
                        "b",
                        SessionOp::Commit {
                            gate: gate_of(obj, 1),
                            delta_w: 1.0,
                        },
                    ),
                ];
                let results = tracer.time("service.batch", || store.batch(&requests));
                results
                    .iter()
                    .all(|r| matches!(r, Ok(OpReport::WhatIf(_)) | Ok(OpReport::Commit(_))))
            }
            Kind::Setup => true,
        };
        out.attempted += 1;
        if !ok {
            direct_failed += 1;
        }
    }
    out.failed += direct_failed;
    out.check(direct_failed == 0, || {
        format!("{direct_failed} direct session calls failed")
    });
    out.check(wal.healthy(), || {
        "the direct WAL stopped accepting appends".to_string()
    });
    let p50 = |layer: &str| median_or_nan(&tracer.durations(layer));
    // Each what-if makes two circuit calls (commit, then undo); report
    // the pair.
    let undo = tracer.durations("circuit.commit_undo");
    let pairs: Vec<f64> = undo.chunks(2).map(|c| c.iter().sum()).collect();
    out.metric(
        "service.what_if_us",
        p50("service.what_if") * 1e6,
        "us",
        tracer.durations("service.what_if").len(),
        "gap to what_if_p50_us is the front-end -> what_if_p50_us, what_if_p99_us (serve_c1355)",
    );
    out.metric(
        "circuit.commit_undo_us",
        median_or_nan(&pairs) * 1e6,
        "us",
        pairs.len(),
        "commit + objective + undo -> what_if_p50_us (serve_c1355)",
    );
    out.metric(
        "wal.append_us",
        p50("wal.append") * 1e6,
        "us",
        tracer.durations("wal.append").len(),
        "includes fsync -> commit_p50_us, commit_p95_us (serve_c1355)",
    );
    out.metric(
        "service.step_ms",
        p50("service.step") * 1e3,
        "ms",
        step_nodes.len(),
        "-> step_p50_ms (serve_c1355)",
    );
    out.metric(
        "service.step_pruned_nodes",
        median_or_nan(&step_nodes),
        "count",
        step_nodes.len(),
        "nodes computed per step -> step_p50_ms (serve_c1355)",
    );
    out.metric(
        "service.snapshot_us",
        p50("service.snapshot") * 1e6,
        "us",
        tracer.durations("service.snapshot").len(),
        "-> ops_per_s (serve_c1355)",
    );
    out.metric(
        "service.rollback_us",
        p50("service.rollback") * 1e6,
        "us",
        tracer.durations("service.rollback").len(),
        "-> ops_per_s (serve_c1355)",
    );
    out.metric(
        "service.batch_us",
        p50("service.batch") * 1e6,
        "us",
        tracer.durations("service.batch").len(),
        "-> ops_per_s (serve_c1355)",
    );
    out.metric(
        "trace.overhead_pct.serve_c1355",
        100.0 * (median(&elapsed[1]) - median(&elapsed[0])) / median(&elapsed[0]),
        "%",
        4,
        "traced vs untraced replay of the same stream",
    );
    spans + &tracer.to_jsonl("serve_c1355.direct")
}

/// The gate of entry `i` of a generated batch request.
fn gate_of(obj: &[(String, wire::Json)], i: usize) -> String {
    wire::get(obj, "requests")
        .ok()
        .and_then(wire::Json::as_array)
        .and_then(|rs| rs.get(i))
        .and_then(wire::Json::as_object)
        .and_then(|o| wire::get_str(o, "gate").ok())
        .unwrap_or_default()
        .to_string()
}
