//! The paper's accelerated selector: perturbation fronts with exact
//! pruning (Figures 6–9).
//!
//! For every candidate gate a **perturbation front** is initialized
//! (`Initialize`, Figure 7) and its sensitivity bound `Smx = Δmx/Δw`
//! computed, where `Δmx` is the maximum percentile shift over the active
//! front — by Theorems 1–4 an upper bound on the candidate's exact
//! sensitivity `Sx`. Fronts are then advanced one level at a time
//! (`PropagateOneLevel`, Figure 9); whenever a front reaches the sink its
//! exact `Sx` is known and every candidate with `Smx < Max_S` is pruned
//! without further propagation (Figure 6, step 20). Because bounds only
//! shrink as fronts advance, the surviving argmax is exactly the
//! brute-force argmax.
//!
//! Soundness note: past the front, propagation merges with *unperturbed*
//! side inputs (shift 0), so the usable guarantee is
//! `Sx ≤ max(Smx, 0)`. Pruning only ever compares against `Max_S ≥ 0`,
//! for which this is exactly sufficient: `Smx < Max_S` implies
//! `max(Smx, 0) < Max_S` whenever `Max_S > 0`, and with `Max_S = 0` a
//! pruned candidate provably has no positive sensitivity.
//!
//! # Sweep
//!
//! Figure 6 advances fronts best-bound-first through a global heap. This
//! module keeps the pruning rule and replaces only that order: fronts are
//! *claimed* in descending initial bound (ties toward the lower gate
//! index), and each claimed front is advanced until it reaches the sink
//! or is pruned. The strongest candidates still complete first and raise
//! `Max_S` for everyone else, but only one front per worker grows at a
//! time, where a global heap keeps every front alive and growing at once.
//!
//! The sweep is the same at every thread count, one included. It runs as
//! a two-phase work-stealing scan (infrastructure in the crate's
//! `parallel` module) inside a *single* spawn of the worker pool:
//! workers steal candidates from a shared atomic cursor and initialize
//! every front, rendezvous at a barrier (whose leader publishes the
//! claim order), then roll straight into the propagation phase on the
//! same threads, keeping each worker's scratch pool warm across the
//! phase boundary. The live threshold is the paper's `Max_S` published
//! through an atomic monotone max, so every worker prunes against the
//! freshest exact sensitivity completed anywhere.
//!
//! The propagation phase evaluates the front bound *lazily*. Pruning
//! needs only whether some front node has `Δi/Δw ≥ Max_S − slack`, not
//! `Smx` itself, so newly computed front nodes are recorded unevaluated
//! and the prune test evaluates them one at a time, stopping at the
//! first witness; a front without one is pruned. Division by a positive
//! `Δw` is monotone under rounding, so this is exactly the eager test
//! `Smx < Max_S − slack`: every decision, and every returned bit, is the
//! same, at a fraction of the `lattice_shift_bound` calls once the
//! circuit balances and fronts survive many levels. Only initialization,
//! whose bounds set the claim order, needs the bound's value and
//! evaluates it eagerly.
//!
//! The *returned selections equal brute force's for every claim order
//! and every thread count*, by construction rather than by luck: a
//! candidate is only ever pruned when its bound — hence its exact
//! sensitivity — is strictly below the threshold at some moment, and the
//! threshold never exceeds the final k-th best sensitivity. Every true
//! top-k member therefore completes under *any* schedule, with a
//! sensitivity computed by the same deterministic lattice operations,
//! and the final reduction sorts by (sensitivity, lowest gate id) — a
//! total order. Only the [`PruneStats`] *counters* depend on the
//! schedule, and only with more than one worker (the invariant
//! `pruned + completed == candidates` always holds).

use crate::circuit::TimedCircuit;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::objective::Objective;
use crate::parallel::{default_threads, normalize_threads, run_workers, SharedMax, WorkQueue};
use crate::selection::Selection;
use statsize_dist::{lattice_shift_bound, DistScratch, TierPolicy};
use statsize_netlist::GateId;
use statsize_ssta::{ConeWalk, SstaAnalysis, StepReport, TimingNode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Barrier, Mutex, OnceLock};

/// Work statistics of one pruned selection, quantifying how effective the
/// perturbation bounds were (the paper reports "as many as 55 out of 56
/// candidate nodes are pruned").
///
/// Invariant: `pruned + completed == candidates` — every candidate front
/// ends exactly one way. With one worker thread the sweep's schedule is
/// fixed, so every counter repeats exactly across runs. With more workers
/// the *split* between the two counters may vary from run to run (each
/// worker observes the shared `Max_S` threshold at different moments, so
/// a candidate pruned in one run may complete in another), and
/// `levels_propagated`/`nodes_computed` vary accordingly; the returned
/// [`Selection`]s are bit-identical regardless. The counters measure
/// propagation, not bound evaluations: the sweep evaluates a front's
/// bound only as far as its prune test needs, while initialization
/// evaluates every node of the initial front.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Number of candidate gates considered (all gates in the circuit).
    pub candidates: usize,
    /// Candidates whose front reached the sink (exact `Sx` computed).
    pub completed: usize,
    /// Candidates eliminated by the bound before reaching the sink.
    pub pruned: usize,
    /// Total `PropagateOneLevel` calls, including initialization steps.
    pub levels_propagated: usize,
    /// Total perturbed arrival distributions computed across all fronts.
    pub nodes_computed: usize,
}

impl PruneStats {
    /// Fraction of candidates pruned before full propagation.
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }

    /// Folds another stats record into this one (per-worker aggregation).
    fn merge(&mut self, other: &PruneStats) {
        self.candidates += other.candidates;
        self.completed += other.completed;
        self.pruned += other.pruned;
        self.levels_propagated += other.levels_propagated;
        self.nodes_computed += other.nodes_computed;
    }
}

/// The paper's pruned statistical selector. Produces results identical to
/// [`BruteForceSelector`](crate::BruteForceSelector) (same gate, same
/// sensitivity, bit for bit), typically at a fraction of the work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedSelector {
    delta_w: f64,
    threads: usize,
    kernel_policy: TierPolicy,
    deadline: Deadline,
}

/// Safety slack (ps per unit width) applied to the pruning comparison.
///
/// The whole-bin front bound is preserved *exactly* by the lattice
/// operators, except for one nuisance term: tail trimming renormalizes
/// mass by factors of `1 ± 1e-12`, which perturbs objective evaluations
/// by well under `1e-9` ps at any percentile with real mass. Pruning only
/// when the bound is below `Max_S` by more than this slack absorbs that
/// noise; it is about six orders of magnitude below any sensitivity that
/// matters, so pruning effectiveness is unaffected.
const PRUNE_SLACK: f64 = 1e-6;

/// One candidate gate's partially propagated perturbation front.
struct Candidate<'a> {
    gate: GateId,
    walk: ConeWalk<'a>,
    /// `Δi` per active front node; `None` until the node's bound is
    /// first needed (the sweep evaluates lazily).
    deltas: HashMap<TimingNode, Option<f64>>,
    /// Current bound `Smx = Δmx/Δw` — valid after
    /// [`refresh_bound`](Candidate::refresh_bound), stale after a
    /// [`record`](Candidate::record) on its own.
    smx: f64,
}

impl<'a> Candidate<'a> {
    /// Folds one propagation step into the front: record newly computed
    /// nodes unevaluated and drop retired ones.
    fn record(&mut self, report: &StepReport) {
        for &node in &report.computed {
            if node != TimingNode::SINK {
                // The sink's exact δ is handled by the caller.
                self.deltas.insert(node, None);
            }
        }
        for &node in &report.retired {
            self.deltas.remove(&node);
        }
    }

    /// Evaluates every front node and sets `smx` to `Δmx/Δw` — the eager
    /// form, for callers that need the bound's value.
    fn refresh_bound(&mut self, base: &SstaAnalysis, delta_w: f64) {
        let delta_mx = self
            .deltas
            .iter_mut()
            .map(|(&node, delta)| *delta.get_or_insert_with(|| front_delta(&self.walk, base, node)))
            .fold(f64::NEG_INFINITY, f64::max);
        self.smx = delta_mx / delta_w;
    }

    /// The prune test without the bound's value: true when some front
    /// node has `Δi/Δw ≥ t`, i.e. exactly when `Smx ≥ t` (dividing by a
    /// positive `Δw` is monotone under rounding, so the max commutes with
    /// it; the max of an empty front is `−∞`, which meets `t = −∞`).
    /// Already-evaluated nodes are tried first; unevaluated ones are
    /// evaluated one at a time and the search stops at the first witness.
    fn has_witness(&mut self, base: &SstaAnalysis, delta_w: f64, t: f64) -> bool {
        if t == f64::NEG_INFINITY || self.deltas.values().flatten().any(|&d| d / delta_w >= t) {
            return true;
        }
        self.deltas.iter_mut().any(|(&node, delta)| {
            delta.is_none() && {
                let d = *delta.insert(front_delta(&self.walk, base, node));
                d / delta_w >= t
            }
        })
    }
}

/// `Δi` of one front node: the whole-bin shift bound, at most one
/// lattice step looser than the interpolated shift but provably
/// preserved by every downstream lattice operation — this is what keeps
/// the pruning exact on the discretized representation.
fn front_delta(walk: &ConeWalk<'_>, base: &SstaAnalysis, node: TimingNode) -> f64 {
    let perturbed = walk
        .perturbed(node)
        .expect("front nodes keep their perturbed arrivals");
    lattice_shift_bound(base.arrival(node), perturbed)
}

/// The k-th-best pruning threshold over a best-first-sorted completed
/// list (the paper's `Max_S` when `k = 1`), never below 0.
fn threshold_of(completed: &[Selection], k: usize) -> f64 {
    if completed.len() < k {
        0.0
    } else {
        completed[k - 1].sensitivity.max(0.0)
    }
}

impl PrunedSelector {
    /// Creates a selector with the given trial width increment `Δw`.
    ///
    /// The sweep runs on one worker thread by default; see
    /// [`with_threads`](Self::with_threads) (and the
    /// `STATSIZE_SELECTOR_THREADS` environment variable, which overrides
    /// the default for every selector).
    ///
    /// # Panics
    ///
    /// Panics if `delta_w` is not finite and positive.
    pub fn new(delta_w: f64) -> Self {
        assert!(
            delta_w.is_finite() && delta_w > 0.0,
            "Δw must be finite and positive, got {delta_w}"
        );
        Self {
            delta_w,
            threads: default_threads(),
            kernel_policy: TierPolicy::exact(),
            deadline: Deadline::none(),
        }
    }

    /// The trial width increment.
    pub fn delta_w(&self) -> f64 {
        self.delta_w
    }

    /// Sets a cooperative [`Deadline`] for the sweep (default: none).
    /// The deadline is polled at candidate and front-level boundaries —
    /// once per initialized front and once per propagated level — so an
    /// expired deadline surfaces within one bounded unit of work. Use the
    /// `try_*` entry points with a deadline set; the infallible ones
    /// panic on expiry.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides the worker-thread count for the candidate sweep,
    /// mirroring [`MonteCarlo::with_threads`](statsize_ssta::MonteCarlo::with_threads):
    /// the returned selections are bit-identical for every thread count.
    /// Degenerate values are normalized — `0` is clamped to 1, and counts
    /// above the number of candidate gates are capped at it, so no worker
    /// is ever spawned with nothing to do.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count (before per-call capping at the
    /// candidate count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the kernel tier policy for the sweep's front propagation —
    /// **with the FFT tier stripped**. The pruning guarantee rests on the
    /// whole-bin shift bound being preserved *exactly* by every lattice
    /// operation (Theorems 1–3); an approximate convolution, however
    /// tightly certified, voids that invariant, so this call site is
    /// exact-tier-only by construction: [`TierPolicy::without_fft`] is
    /// applied to whatever the caller passes. Dense SIMD tiers remain in
    /// effect — they are bit-identical to the scalar reference kernel,
    /// which is exactly what the theory requires.
    #[must_use]
    pub fn with_kernel_policy(mut self, policy: TierPolicy) -> Self {
        self.kernel_policy = policy.without_fft();
        self
    }

    /// Finds the most sensitive gate — identical to brute force — or
    /// `None` when no gate improves the objective.
    ///
    /// # Panics
    ///
    /// Panics if the objective is not
    /// [`shift_bounded`](Objective::shift_bounded): the pruning theory
    /// only covers objectives whose improvement is bounded by the maximum
    /// percentile shift. Panics if a configured
    /// [`with_deadline`](Self::with_deadline) expires — use
    /// [`try_select`](Self::try_select) with deadlines.
    pub fn select(&self, circuit: &TimedCircuit<'_>, objective: Objective) -> Option<Selection> {
        self.select_with_stats(circuit, objective).0
    }

    /// Fallible form of [`select`](Self::select): `Err` when the
    /// configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep.
    pub fn try_select(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> Result<Option<Selection>, DeadlineExceeded> {
        let (mut top, _) = self.try_select_top_k_with_stats(circuit, objective, 1)?;
        Ok(top.pop())
    }

    /// The `k` most sensitive gates — see
    /// [`select_top_k_with_stats`](Self::select_top_k_with_stats).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the objective is not
    /// [`shift_bounded`](Objective::shift_bounded).
    pub fn select_top_k(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> Vec<Selection> {
        self.select_top_k_with_stats(circuit, objective, k).0
    }

    /// Like [`select`](Self::select), also returning pruning statistics.
    pub fn select_with_stats(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> (Option<Selection>, PruneStats) {
        let (mut top, stats) = self.select_top_k_with_stats(circuit, objective, 1);
        (top.pop(), stats)
    }

    /// The `k` most sensitive gates — the paper's "size multiple gates in
    /// the same iteration" variant (Section 3.3), still exact: candidates
    /// are pruned against the *k-th best* completed sensitivity, so the
    /// returned set matches brute force. Gates with non-positive
    /// sensitivity are never returned; the result is sorted by descending
    /// sensitivity (ties toward lower gate ids) and may be shorter than
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, the objective is not
    /// [`shift_bounded`](Objective::shift_bounded), or a configured
    /// [`with_deadline`](Self::with_deadline) expires — use
    /// [`try_select_top_k_with_stats`](Self::try_select_top_k_with_stats)
    /// with deadlines.
    pub fn select_top_k_with_stats(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> (Vec<Selection>, PruneStats) {
        self.try_select_top_k_with_stats(circuit, objective, k)
            .expect("sweep deadline exceeded; use try_select_top_k_with_stats with a deadline")
    }

    /// Fallible form of
    /// [`select_top_k_with_stats`](Self::select_top_k_with_stats): `Err`
    /// when the configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep (partial results are discarded — a partial sweep has no
    /// exactness guarantee to offer).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the objective is not
    /// [`shift_bounded`](Objective::shift_bounded).
    pub fn try_select_top_k_with_stats(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> Result<(Vec<Selection>, PruneStats), DeadlineExceeded> {
        assert!(k > 0, "k must be positive");
        assert!(
            objective.shift_bounded(),
            "pruned selection requires a shift-bounded objective; \
             use BruteForceSelector for {objective}"
        );
        // The claim-order sweep (module docs). Both phases run inside a
        // single spawn of the worker pool: each worker initializes fronts
        // until the init cursor drains, meets the others at a barrier
        // (the leader publishes the claim order there), and continues
        // straight into propagation with its scratch pool — and the
        // distributions recycled into it during initialization — intact.
        let base = circuit.ssta();
        let base_cost = circuit.objective_value(objective);
        let gates: Vec<GateId> = circuit.netlist().gate_ids().collect();
        let n = gates.len();
        let threads = normalize_threads(self.threads, n);
        let mut stats = PruneStats {
            candidates: n,
            ..PruneStats::default()
        };

        // Initialized fronts are parked in per-candidate slots between
        // the phases (each slot is locked exactly twice — once to park,
        // once to claim — so the mutexes are uncontended bookkeeping,
        // not a hot path).
        let slots: Vec<Mutex<Option<Candidate<'_>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let init_queue = WorkQueue::new(n);
        let sweep_queue = WorkQueue::new(n);
        // Propagation claim order, published by the barrier leader once
        // every front is parked: descending initial bound, ties toward
        // the lower gate index, so the strongest candidate completes
        // early and raises the shared threshold for everyone else.
        let order: OnceLock<Vec<usize>> = OnceLock::new();
        let rendezvous = Barrier::new(threads);
        let threshold = SharedMax::new(0.0);
        let completed: Mutex<Vec<Selection>> = Mutex::new(Vec::new());
        // Cooperative-deadline latch: the first worker that observes the
        // expired deadline raises it; everyone else sees it at their next
        // claim (or right after the rendezvous) and unwinds through the
        // normal return path — no thread is ever cancelled mid-step.
        let expired = AtomicBool::new(false);

        let worker_stats: Vec<PruneStats> = run_workers(threads, || {
            let mut scratch = DistScratch::with_policy(self.kernel_policy);
            let mut local = PruneStats::default();

            // --- Phase 1: initialize every front (Figure 7), workers
            // stealing candidate indices from a shared cursor. ---
            while !expired.load(AtomicOrdering::Relaxed) {
                if self.deadline.expired() {
                    expired.store(true, AtomicOrdering::Relaxed);
                    break;
                }
                let Some(idx) = init_queue.claim() else {
                    break;
                };
                let cand = self.initialize_candidate(circuit, gates[idx], &mut scratch, &mut local);
                *slots[idx].lock().expect("init worker panicked") = Some(cand);
            }

            // Rendezvous: every front is parked (every worker reaches the
            // barrier even on an expired deadline — a missing party would
            // deadlock the rest). The barrier elects a leader, which
            // sorts the initial bounds while the others wait at the
            // second barrier; then all workers roll on.
            if rendezvous.wait().is_leader() && !expired.load(AtomicOrdering::Relaxed) {
                let mut by_bound: Vec<(f64, usize)> = slots
                    .iter()
                    .enumerate()
                    .map(|(idx, slot)| {
                        let smx = slot
                            .lock()
                            .expect("init worker panicked")
                            .as_ref()
                            .expect("phase 1 initialized every slot")
                            .smx;
                        (smx, idx)
                    })
                    .collect();
                by_bound.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                order
                    .set(by_bound.into_iter().map(|(_, idx)| idx).collect())
                    .expect("only the barrier leader publishes the order");
            }
            rendezvous.wait();
            // The barrier orders the latch store before this load, so an
            // expiry during phase 1 is visible to every worker here — and
            // the unpublished claim order is never read.
            if expired.load(AtomicOrdering::Relaxed) {
                return local;
            }
            let order = order.get().expect("leader published before the barrier");

            // --- Phase 2: advance claimed fronts to the sink or prune
            // them against the live shared threshold (Figure 6's loop,
            // fronts distributed across workers). ---
            'sweep: while let Some(pos) = sweep_queue.claim() {
                if expired.load(AtomicOrdering::Relaxed) {
                    break;
                }
                let idx = order[pos];
                let mut cand = slots[idx]
                    .lock()
                    .expect("sweep worker panicked")
                    .take()
                    .expect("each slot is claimed exactly once");
                loop {
                    // Cooperative deadline, once per front level.
                    if self.deadline.expired() {
                        expired.store(true, AtomicOrdering::Relaxed);
                        cand.walk.recycle_into(&mut scratch);
                        break 'sweep;
                    }
                    // Prune: the bound says this candidate can never
                    // enter the top k. A stale (lagging) threshold read
                    // only delays pruning — it can never prune a
                    // candidate the final threshold would keep.
                    if !cand.has_witness(base, self.delta_w, threshold.get() - PRUNE_SLACK) {
                        local.pruned += 1;
                        cand.walk.recycle_into(&mut scratch);
                        break;
                    }
                    let report = cand
                        .walk
                        .step_level_with(&mut scratch)
                        .expect("unfinished candidates always have pending levels");
                    local.levels_propagated += 1;
                    local.nodes_computed += report.computed.len();
                    cand.record(&report);

                    if let Some(sink) = cand.walk.sink_arrival() {
                        // Front reached the sink: exact sensitivity,
                        // published so every worker prunes against it.
                        let sensitivity = (base_cost - objective.value(sink)) / self.delta_w;
                        local.completed += 1;
                        let selection = Selection {
                            gate: cand.gate,
                            sensitivity,
                        };
                        let mut done = completed.lock().expect("sweep worker panicked");
                        let at = done.partition_point(|existing| existing.better_than(&selection));
                        done.insert(at, selection);
                        threshold.raise(threshold_of(&done, k));
                        drop(done);
                        cand.walk.recycle_into(&mut scratch);
                        break;
                    }
                }
            }
            local
        });
        if expired.load(AtomicOrdering::Relaxed) {
            return Err(DeadlineExceeded);
        }
        for s in &worker_stats {
            stats.merge(s);
        }

        let mut completed = completed.into_inner().expect("sweep worker panicked");
        completed.truncate(k);
        completed.retain(|s| s.sensitivity > 0.0);
        Ok((completed, stats))
    }

    /// Initializes one candidate front (Figure 7): temporary resize,
    /// propagate the seed perturbations up to the gate's own level,
    /// compute the initial bound.
    fn initialize_candidate<'c>(
        &self,
        circuit: &'c TimedCircuit<'_>,
        gate: GateId,
        scratch: &mut DistScratch,
        stats: &mut PruneStats,
    ) -> Candidate<'c> {
        let base = circuit.ssta();
        let overrides = circuit.overrides_for_resize(gate, self.delta_w);
        let walk =
            ConeWalk::new(circuit.graph(), circuit.delays(), base, overrides).evicting_retired();
        let mut cand = Candidate {
            gate,
            walk,
            deltas: HashMap::new(),
            smx: f64::NEG_INFINITY,
        };
        let own_level = circuit
            .graph()
            .level(circuit.graph().out_node_of_gate(gate));
        while cand.walk.next_level().is_some_and(|l| l <= own_level) {
            let report = cand
                .walk
                .step_level_with(scratch)
                .expect("level observed pending");
            stats.levels_propagated += 1;
            stats.nodes_computed += report.computed.len();
            cand.record(&report);
        }
        cand.refresh_bound(base, self.delta_w);
        cand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceSelector;
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_netlist::{bench, generator, shapes, Netlist};

    fn check_matches_brute_force(nl: &Netlist, dt: f64, steps: usize) {
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
        let obj = Objective::percentile(0.99);
        let brute = BruteForceSelector::new(1.0);
        let pruned = PrunedSelector::new(1.0);
        for step in 0..steps {
            let b = brute.select(&circuit, obj);
            let (p, stats) = pruned.select_with_stats(&circuit, obj);
            match (b, p) {
                (None, None) => break,
                (Some(b), Some(p)) => {
                    assert_eq!(b.gate, p.gate, "step {step}: gate mismatch");
                    assert_eq!(
                        b.sensitivity, p.sensitivity,
                        "step {step}: sensitivity mismatch"
                    );
                    assert_eq!(
                        stats.completed + stats.pruned,
                        stats.candidates,
                        "every candidate ends exactly one way"
                    );
                    circuit.commit_resize(b.gate, 1.0);
                }
                (b, p) => panic!("step {step}: brute {b:?} vs pruned {p:?}"),
            }
        }
    }

    #[test]
    fn matches_brute_force_on_c17() {
        check_matches_brute_force(&bench::c17(), 1.0, 6);
    }

    #[test]
    fn matches_brute_force_on_a_reconvergent_grid() {
        check_matches_brute_force(&shapes::grid("g", 3, 4), 1.0, 4);
    }

    #[test]
    fn matches_brute_force_on_a_symmetric_diamond() {
        // Perfectly symmetric arms produce exact sensitivity ties: the
        // deterministic tie-break must keep both selectors aligned.
        check_matches_brute_force(&shapes::diamond("d", 3), 1.0, 4);
    }

    #[test]
    fn matches_brute_force_on_a_generated_circuit() {
        let nl = generator::generate_iscas("c432", 17).unwrap();
        check_matches_brute_force(&nl, 2.0, 2);
    }

    #[test]
    fn pruning_actually_prunes() {
        let nl = generator::generate_iscas("c432", 3).unwrap();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
        let (sel, stats) =
            PrunedSelector::new(1.0).select_with_stats(&circuit, Objective::percentile(0.99));
        assert!(sel.is_some());
        assert!(
            stats.pruned_fraction() > 0.5,
            "expected most candidates pruned, got {:?}",
            stats
        );
        // Pruned fronts must do far less work than full propagation for
        // every candidate would.
        assert!(stats.completed >= 1);
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        // Brute force is the reference: every thread count, one included,
        // runs the same claim-order sweep.
        let nl = shapes::grid("g", 4, 5);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let want_top = BruteForceSelector::new(1.0).select_top_k(&circuit, obj, 3);
        for threads in [1, 2, 3, 8, 999] {
            let par = PrunedSelector::new(1.0).with_threads(threads);
            let (got_top, stats) = par.select_top_k_with_stats(&circuit, obj, 3);
            assert_eq!(want_top, got_top, "threads={threads}");
            assert_eq!(
                stats.completed + stats.pruned,
                stats.candidates,
                "threads={threads}: every candidate ends exactly one way"
            );
            assert_eq!(stats.candidates, nl.gate_count());
        }
    }

    #[test]
    fn one_thread_stats_repeat_exactly() {
        // One worker fixes the schedule, so every counter — not just the
        // selection — repeats across runs, also after descent, where
        // fronts trade witnesses level by level.
        let nl = generator::generate_iscas("c432", 5).unwrap();
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
        let obj = Objective::percentile(0.99);
        let selector = PrunedSelector::new(1.0).with_threads(1);
        for _ in 0..4 {
            let best = selector.select(&circuit, obj).unwrap();
            circuit.commit_resize(best.gate, 1.0);
        }
        let first = selector.select_top_k_with_stats(&circuit, obj, 2);
        let second = selector.select_top_k_with_stats(&circuit, obj, 2);
        assert_eq!(first, second);
        assert!(
            first.1.completed > 1,
            "expected a contested sweep: {:?}",
            first.1
        );
    }

    /// The thresholds the lazy test must agree on for a front whose
    /// bounds are `values`: `−∞`, 0, every value and one ulp either side.
    fn probe_thresholds(values: &[f64]) -> Vec<f64> {
        let mut ts = vec![f64::NEG_INFINITY, 0.0, 0.0f64.next_down(), 0.0f64.next_up()];
        for &v in values {
            ts.extend([v.next_down(), v, v.next_up()]);
        }
        ts
    }

    #[test]
    fn lazy_prune_test_agrees_with_the_eager_bound() {
        let nl = generator::generate_iscas("c432", 5).unwrap();
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
        let obj = Objective::percentile(0.99);
        for _ in 0..3 {
            let best = PrunedSelector::new(1.0).select(&circuit, obj).unwrap();
            circuit.commit_resize(best.gate, 1.0);
        }
        // A Δw other than 1, so the division is not the identity.
        let selector = PrunedSelector::new(0.7);
        let base = circuit.ssta();
        let mut scratch = DistScratch::new();
        let mut stats = PruneStats::default();
        let mut levels = 0;
        for gate in circuit.netlist().gate_ids().step_by(9) {
            let mut cand = selector.initialize_candidate(&circuit, gate, &mut scratch, &mut stats);
            while cand.walk.sink_arrival().is_none() {
                let report = cand.walk.step_level_with(&mut scratch).unwrap();
                cand.record(&report);
                // Two lazy states: as the sweep leaves them (older nodes
                // evaluated, new ones not) and with nothing evaluated.
                let recorded = cand.deltas.clone();
                let cold: HashMap<_, _> = recorded.keys().map(|&n| (n, None)).collect();
                cand.refresh_bound(base, selector.delta_w);
                let smx = cand.smx;
                let values: Vec<f64> = cand
                    .deltas
                    .values()
                    .map(|d| d.unwrap() / selector.delta_w)
                    .collect();
                for t in probe_thresholds(&values) {
                    for lazy in [&recorded, &cold] {
                        cand.deltas = lazy.clone();
                        assert_eq!(
                            cand.has_witness(base, selector.delta_w, t),
                            smx >= t,
                            "gate {gate:?}, level {}, t = {t:e}, smx = {smx:e}",
                            report.level
                        );
                    }
                }
                cand.refresh_bound(base, selector.delta_w);
                levels += 1;
            }
        }
        assert!(levels > 50, "too few fronts probed: {levels}");

        // The empty front: its bound is −∞ in both forms.
        let gate = circuit.netlist().gate_ids().next().unwrap();
        let mut empty = selector.initialize_candidate(&circuit, gate, &mut scratch, &mut stats);
        empty.deltas.clear();
        empty.refresh_bound(base, selector.delta_w);
        assert_eq!(empty.smx, f64::NEG_INFINITY);
        for t in probe_thresholds(&[1.0, -1.0]) {
            assert_eq!(
                empty.has_witness(base, selector.delta_w, t),
                empty.smx >= t,
                "empty front, t = {t:e}"
            );
        }
    }

    #[test]
    fn thread_knob_normalizes_degenerate_counts() {
        // 0 threads is a degenerate request: clamped to 1.
        let sel = PrunedSelector::new(1.0).with_threads(0);
        assert_eq!(sel.threads(), 1);
        // More threads than candidates: capped at the candidate count at
        // sweep time, and the result is unchanged.
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let a = PrunedSelector::new(1.0)
            .with_threads(1)
            .select(&circuit, obj);
        let b = PrunedSelector::new(1.0)
            .with_threads(1000)
            .select(&circuit, obj);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_objective_is_accepted() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let sel = PrunedSelector::new(1.0).select(&circuit, Objective::Mean);
        assert!(sel.is_some());
    }

    #[test]
    fn expired_deadline_errors_on_both_sweeps() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        for threads in [1usize, 4] {
            let sel = PrunedSelector::new(1.0)
                .with_threads(threads)
                .with_deadline(Deadline::after(std::time::Duration::ZERO));
            assert_eq!(
                sel.try_select(&circuit, obj),
                Err(DeadlineExceeded),
                "threads={threads}"
            );
            assert!(
                sel.try_select_top_k_with_stats(&circuit, obj, 2).is_err(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn unlimited_deadline_leaves_selection_bit_identical() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let plain = PrunedSelector::new(1.0).select(&circuit, obj);
        let with_deadline = PrunedSelector::new(1.0)
            .with_deadline(Deadline::none())
            .try_select(&circuit, obj)
            .expect("unlimited deadline never expires");
        assert_eq!(plain, with_deadline);
    }

    #[test]
    #[should_panic(expected = "sweep deadline exceeded")]
    fn infallible_entry_point_panics_on_expiry() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let _ = PrunedSelector::new(1.0)
            .with_deadline(Deadline::after(std::time::Duration::ZERO))
            .select(&circuit, Objective::percentile(0.99));
    }

    #[test]
    #[should_panic(expected = "shift-bounded")]
    fn non_bounded_objective_rejected() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let _ = PrunedSelector::new(1.0).select(&circuit, Objective::MeanPlusSigma(3.0));
    }
}
