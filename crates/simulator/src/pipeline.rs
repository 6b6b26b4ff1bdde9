//! Pipelined execution of a mapping.
//!
//! Every data set `d` of application `a` traverses the chain of interval
//! assignments: a *transfer* along each link (including the `P_in_a` input
//! edge and the `P_out_a` output edge) and a *compute* on each enrolled
//! processor. The dependency structure encodes the paper's scheduling
//! semantics (Section 3.3, "each operation is executed as soon as
//! possible"):
//!
//! * a transfer waits for the producer's compute of the same data set and
//!   for the previous transfer on the same link (links are serial);
//! * a compute waits for its input transfer and the previous compute on the
//!   same processor (processors are serial);
//! * under **no-overlap**, a processor additionally cannot receive data set
//!   `d+1` before finishing its send of data set `d` (receive, compute and
//!   send are serialized), which is exactly one extra dependency per
//!   transfer.
//!
//! [`simulate`] and [`simulate_with_buffers`] execute that structure
//! through the flat [`crate::wavefront`] recurrence — heap-free,
//! `O(stages)` state, with certified steady-state fast-forward. The
//! original event-by-event build over [`crate::engine::Engine`] remains
//! available as [`simulate_reference_dag`]: it is the oracle the
//! wavefront is proved bitwise identical to
//! (`tests/wavefront_equivalence.rs`), and the backend
//! [`crate::trace::simulate_traced`] uses when per-operation intervals
//! are requested.
//!
//! With a saturated source (all data sets available at `t = 0`), the
//! measured steady-state inter-completion gap converges to the analytic
//! period (Eqs. 3/4) and the first data set's completion time equals the
//! analytic latency (Eq. 5) — the integration tests assert both.

use crate::engine::Engine;
use crate::wavefront::{simulate_wavefront, SteadyState};
use cpo_model::mapping::Assignment;
use cpo_model::prelude::*;

/// Timing results for one application.
#[derive(Debug, Clone)]
pub struct AppTimes {
    /// Completion time of every simulated data set.
    pub completions: Vec<f64>,
    /// Completion time of data set 0 = latency of an uncontended data set.
    pub first_latency: f64,
    /// Average inter-completion gap over the second half of the run
    /// (steady state).
    pub measured_period: f64,
    /// The wavefront core's certified steady-state fast-forward, when it
    /// fired (`None` on DAG-engine runs and on instances whose arithmetic
    /// could not be certified exact — see [`crate::wavefront`]).
    pub steady_state: Option<SteadyState>,
    /// How many rows ran the fast-forward certificate: a deterministic
    /// work counter, `0` on DAG-engine runs, on bounded buffers and
    /// wherever the once-per-application pre-check rules the certificate
    /// out (see [`crate::wavefront`]).
    pub certificate_attempts: usize,
}

/// Full simulation report.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-application timings.
    pub apps: Vec<AppTimes>,
    /// Global weighted measured period `max_a W_a · T̂_a`.
    pub period: f64,
    /// Global weighted first-data-set latency `max_a W_a · L̂_a`.
    pub latency: f64,
    /// Power of the enrolled processors (energy per time unit, Section 3.5).
    pub power: f64,
    /// Total simulated time (last completion).
    pub makespan: f64,
    /// `busy[u]` = total compute busy time of processor `u`.
    pub busy: Vec<f64>,
}

impl SimReport {
    /// Compute utilization of processor `u` (busy time / makespan).
    pub fn utilization(&self, u: usize) -> f64 {
        if self.makespan > 0.0 {
            self.busy[u] / self.makespan
        } else {
            0.0
        }
    }

    /// Energy consumed over the simulated horizon (power × makespan).
    pub fn energy_over_horizon(&self) -> f64 {
        self.power * self.makespan
    }
}

/// Simulate `datasets` data sets of every application through `mapping`
/// with unbounded inter-stage buffers (the paper's model).
///
/// Runs on the flat wavefront core (`O(datasets × stages)` worst case,
/// `O(warm-up × stages)` when the steady state certifies — bitwise
/// identical results either way, and bitwise identical to
/// [`simulate_reference_dag`]).
///
/// Panics if the mapping is invalid (call [`Mapping::validate`] first when
/// unsure) or `datasets == 0`.
pub fn simulate(
    apps: &AppSet,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
    datasets: usize,
) -> SimReport {
    simulate_with_buffers(apps, platform, mapping, model, datasets, usize::MAX)
}

/// [`simulate`] with **bounded buffers**: each enrolled processor can hold
/// at most `capacity ≥ 1` received-but-unprocessed data sets, so the
/// transfer of data set `d` into a processor cannot start before that
/// processor began consuming data set `d − capacity`.
///
/// This is an extension beyond the paper (which implicitly assumes enough
/// buffering): with `capacity = 1` the classic coupling appears — under the
/// overlap model the steady period grows from
/// `max(incoming, compute, outgoing)` towards `incoming + compute` on
/// receive-bound processors. `capacity = usize::MAX` recovers the paper's
/// semantics exactly.
pub fn simulate_with_buffers(
    apps: &AppSet,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
    datasets: usize,
    capacity: usize,
) -> SimReport {
    // Wavefront eligibility: the routed communication pattern must be
    // regular (one Benes rearrangement round, i.e. contention-free wires).
    // Valid plain mappings always qualify — on both topologies — so this
    // only drops to the DAG oracle with its serialization model for
    // irregular flow multisets.
    if fabric_rounds(apps, platform, mapping) > 1 {
        return build_and_run(apps, platform, mapping, model, datasets, capacity).0;
    }
    simulate_wavefront(apps, platform, mapping, model, datasets, capacity, true)
}

/// The original discrete-event build over the generic
/// [`Engine`](crate::engine::Engine): one heap event per
/// `(data set × operation)`. Kept as the independently-implemented oracle
/// the wavefront core is proved against, and for irregular extensions the
/// grid recurrence cannot express. Same semantics and panics as
/// [`simulate_with_buffers`].
pub fn simulate_reference_dag(
    apps: &AppSet,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
    datasets: usize,
    capacity: usize,
) -> SimReport {
    build_and_run(apps, platform, mapping, model, datasets, capacity).0
}

/// Metadata attached to every simulated operation (for traces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpMeta {
    /// A communication along edge `edge` of application `app` (edge 0 is
    /// the input link, edge `m` the output link).
    Transfer {
        /// Application index.
        app: usize,
        /// Edge index along the chain.
        edge: usize,
        /// Data set index.
        dataset: usize,
    },
    /// A computation of chain node `node` on processor `proc`.
    Compute {
        /// Application index.
        app: usize,
        /// Chain position.
        node: usize,
        /// Executing processor.
        proc: usize,
        /// Data set index.
        dataset: usize,
    },
}

/// Per-edge transfer durations (`m + 1` entries, input edge first, output
/// edge last) and per-node compute durations (`m` entries) of one
/// application's chain — the duration vocabulary both simulator cores
/// share. Topology-aware: on `Dedicated` platforms every entry is exactly
/// the historical `δ / bw` division (bit for bit); on `Multistage`
/// platforms the interior edges carry the fabric traversal overhead.
pub(crate) fn chain_durations(
    app: &cpo_model::application::Application,
    a: usize,
    platform: &Platform,
    chain: &[Assignment],
) -> (Vec<f64>, Vec<f64>) {
    chain_durations_with(app, a, platform, chain, 1)
}

/// [`chain_durations`] with an explicit fabric **contention factor**: when
/// `contention > 1` every interior transfer that actually crosses the
/// multistage fabric is stretched by that factor — the conservative
/// serialization model for flow patterns the Benes network can only route
/// in `contention` rearrangement rounds. Plain interval/one-to-one
/// mappings always route in one round ([`fabric_rounds`] returns 1), so
/// this path only fires for irregular extensions.
pub(crate) fn chain_durations_with(
    app: &cpo_model::application::Application,
    a: usize,
    platform: &Platform,
    chain: &[Assignment],
    contention: usize,
) -> (Vec<f64>, Vec<f64>) {
    let m = chain.len();
    let transfer: Vec<f64> = (0..=m)
        .map(|j| {
            if j == 0 {
                platform.transfer_time_input(a, chain[0].proc, app.input)
            } else if j == m {
                platform.transfer_time_output(a, chain[m - 1].proc, app.result_size())
            } else {
                let t = platform.transfer_time_inter(
                    a,
                    chain[j - 1].proc,
                    chain[j].proc,
                    app.input_of(chain[j].interval.first),
                );
                if contention > 1
                    && platform.is_multistage()
                    && chain[j - 1].proc != chain[j].proc
                {
                    t * contention as f64
                } else {
                    t
                }
            }
        })
        .collect();
    let compute: Vec<f64> = chain
        .iter()
        .map(|asg| {
            app.interval_work(asg.interval.first, asg.interval.last)
                / platform.procs[asg.proc].speed(asg.mode)
        })
        .collect();
    (transfer, compute)
}

/// Number of Benes rearrangement rounds needed to route the mapping's
/// inter-processor flows through a multistage fabric — the simulator's
/// wavefront-eligibility certificate. `1` on dedicated links, and `1` on
/// multistage platforms whenever the flow pattern is a partial
/// permutation (always true for valid plain mappings: each enrolled
/// processor hosts one interval, hence at most one predecessor edge and
/// one successor edge). A value above 1 means shared-wire contention:
/// the DAG oracle then runs with the conservative serialization model of
/// [`chain_durations_with`], and the wavefront fast path is skipped.
pub(crate) fn fabric_rounds(apps: &AppSet, platform: &Platform, mapping: &Mapping) -> usize {
    if !platform.is_multistage() {
        return 1;
    }
    let mut flows: Vec<(usize, usize)> = Vec::new();
    for a in 0..apps.a() {
        let chain = mapping.app_chain(a);
        for w in chain.windows(2) {
            if w[0].proc != w[1].proc {
                flows.push((w[0].proc, w[1].proc));
            }
        }
    }
    if flows.is_empty() {
        return 1;
    }
    let net = cpo_matching::BenesNetwork::with_capacity_for(platform.p());
    net.route_rounds(&flows).len().max(1)
}

/// Average inter-completion gap over the second half of the run (NaN for
/// a single data set) — the shared steady-state period estimator.
pub(crate) fn measured_period(completions: &[f64]) -> f64 {
    if completions.len() >= 2 {
        let lo = completions.len() / 2;
        let hi = completions.len() - 1;
        if hi > lo {
            (completions[hi] - completions[lo]) / (hi - lo) as f64
        } else {
            completions[hi] - completions[hi - 1]
        }
    } else {
        f64::NAN
    }
}

/// Fold per-application timings into the report (weighted period/latency,
/// power of the enrolled processors) — shared by both simulator cores.
pub(crate) fn assemble_report(
    apps: &AppSet,
    platform: &Platform,
    mapping: &Mapping,
    app_times: Vec<AppTimes>,
    busy: Vec<f64>,
    makespan: f64,
) -> SimReport {
    let period = app_times
        .iter()
        .zip(&apps.apps)
        .map(|(t, app)| app.weight * t.measured_period)
        .fold(0.0, cpo_model::num::fmax);
    let latency = app_times
        .iter()
        .zip(&apps.apps)
        .map(|(t, app)| app.weight * t.first_latency)
        .fold(0.0, cpo_model::num::fmax);
    let power = EnergyModel::default().mapping_energy(mapping, platform);
    SimReport { apps: app_times, period, latency, power, makespan, busy }
}

pub(crate) fn build_and_run(
    apps: &AppSet,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
    datasets: usize,
    capacity: usize,
) -> (SimReport, Engine, Vec<OpMeta>) {
    assert!(datasets > 0, "simulate at least one data set");
    assert!(capacity >= 1, "buffers need capacity at least 1");
    mapping.validate(apps, platform).expect("valid mapping");
    let mut meta: Vec<OpMeta> = Vec::new();
    let mut engine = Engine::new();
    let cpu_res: Vec<_> = (0..platform.p()).map(|_| engine.add_resource()).collect();

    let mut per_app_outputs: Vec<Vec<usize>> = Vec::with_capacity(apps.a());
    // The DAG oracle models routed-path contention: flow multisets the
    // Benes fabric needs several rearrangement rounds for get their
    // crossing transfers stretched accordingly (factor 1 — a no-op — for
    // every valid plain mapping and for all dedicated platforms).
    let rounds = fabric_rounds(apps, platform, mapping);
    for (a, app) in apps.apps.iter().enumerate() {
        let chain = mapping.app_chain(a);
        let m = chain.len();
        let (transfer_time, compute_time) = chain_durations_with(app, a, platform, &chain, rounds);

        // Operation ids of the previous data set, plus the full compute
        // history per node for the bounded-buffer dependency.
        let mut prev_t: Vec<Option<usize>> = vec![None; m + 1];
        let mut prev_c: Vec<Option<usize>> = vec![None; m];
        let mut hist_c: Vec<Vec<usize>> = vec![Vec::with_capacity(datasets); m];
        let mut outputs = Vec::with_capacity(datasets);
        for d in 0..datasets {
            let mut cur_t: Vec<usize> = Vec::with_capacity(m + 1);
            let mut cur_c: Vec<usize> = Vec::with_capacity(m);
            for j in 0..=m {
                let mut deps: Vec<usize> = Vec::with_capacity(4);
                if j > 0 {
                    deps.push(cur_c[j - 1]); // producer finished computing d
                }
                if let Some(t) = prev_t[j] {
                    deps.push(t); // link is serial
                }
                if model == CommModel::NoOverlap && j < m {
                    // Receiver (node j) must have finished *sending* the
                    // previous data set before receiving this one.
                    if let Some(t) = prev_t[j + 1] {
                        deps.push(t);
                    }
                }
                // Bounded buffer at the receiver: data set d may only be
                // delivered once data set d - capacity has been consumed.
                if j < m && capacity != usize::MAX && d >= capacity {
                    deps.push(hist_c[j][d - capacity]);
                }
                let t_op = engine.add_op(transfer_time[j], None, &deps);
                meta.push(OpMeta::Transfer { app: a, edge: j, dataset: d });
                debug_assert_eq!(meta.len() - 1, t_op);
                cur_t.push(t_op);
                if j < m {
                    let mut cdeps: Vec<usize> = vec![t_op];
                    if let Some(c) = prev_c[j] {
                        cdeps.push(c); // processor is serial
                    }
                    let c_op =
                        engine.add_op(compute_time[j], Some(cpu_res[chain[j].proc]), &cdeps);
                    meta.push(OpMeta::Compute { app: a, node: j, proc: chain[j].proc, dataset: d });
                    debug_assert_eq!(meta.len() - 1, c_op);
                    cur_c.push(c_op);
                    hist_c[j].push(c_op);
                }
            }
            outputs.push(cur_t[m]);
            prev_t = cur_t.into_iter().map(Some).collect();
            prev_c = cur_c.into_iter().map(Some).collect();
        }
        per_app_outputs.push(outputs);
    }

    let makespan = engine.run().expect("validated mappings have finite durations");

    let mut app_times = Vec::with_capacity(apps.a());
    for outputs in &per_app_outputs {
        let completions: Vec<f64> = outputs.iter().map(|&op| engine.end_of(op)).collect();
        let first_latency = completions[0];
        let period = measured_period(&completions);
        app_times.push(AppTimes {
            completions,
            first_latency,
            measured_period: period,
            steady_state: None,
            certificate_attempts: 0,
        });
    }

    let busy = (0..platform.p()).map(|u| engine.busy(u)).collect();
    let report = assemble_report(apps, platform, mapping, app_times, busy, makespan);
    (report, engine, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::generator::section2_example;
    use cpo_model::mapping::Interval;

    fn period_mapping() -> Mapping {
        Mapping::new()
            .with(Interval::new(0, 0, 2), 2, 1)
            .with(Interval::new(1, 0, 1), 1, 1)
            .with(Interval::new(1, 2, 3), 0, 1)
    }

    #[test]
    fn measured_matches_analytic_overlap() {
        let (apps, pf) = section2_example();
        let mapping = period_mapping();
        let ev = Evaluator::new(&apps, &pf);
        let rep = simulate(&apps, &pf, &mapping, CommModel::Overlap, 64);
        let analytic_t = ev.period(&mapping, CommModel::Overlap);
        let analytic_l = ev.latency(&mapping);
        assert!(
            (rep.period - analytic_t).abs() < 1e-9,
            "measured {} vs analytic {}",
            rep.period,
            analytic_t
        );
        assert!((rep.latency - analytic_l).abs() < 1e-9);
    }

    #[test]
    fn measured_matches_analytic_no_overlap() {
        let (apps, pf) = section2_example();
        let mapping = period_mapping();
        let ev = Evaluator::new(&apps, &pf);
        let rep = simulate(&apps, &pf, &mapping, CommModel::NoOverlap, 64);
        let analytic_t = ev.period(&mapping, CommModel::NoOverlap);
        assert!(
            (rep.period - analytic_t).abs() < 1e-9,
            "measured {} vs analytic {}",
            rep.period,
            analytic_t
        );
        // Latency is model independent.
        assert!((rep.latency - ev.latency(&mapping)).abs() < 1e-9);
    }

    #[test]
    fn no_overlap_throughput_never_better() {
        let (apps, pf) = section2_example();
        let mapping = period_mapping();
        let ov = simulate(&apps, &pf, &mapping, CommModel::Overlap, 48);
        let no = simulate(&apps, &pf, &mapping, CommModel::NoOverlap, 48);
        assert!(ov.period <= no.period + 1e-9);
    }

    #[test]
    fn completions_are_monotone_and_evenly_spaced_in_steady_state() {
        let (apps, pf) = section2_example();
        let rep = simulate(&apps, &pf, &period_mapping(), CommModel::Overlap, 32);
        for at in &rep.apps {
            for w in at.completions.windows(2) {
                assert!(w[1] > w[0] - 1e-12);
            }
            // Steady state: the last gaps all equal the measured period.
            let n = at.completions.len();
            let gap = at.completions[n - 1] - at.completions[n - 2];
            assert!((gap - at.measured_period).abs() < 1e-9);
        }
    }

    #[test]
    fn power_and_energy_accounting() {
        let (apps, pf) = section2_example();
        let rep = simulate(&apps, &pf, &period_mapping(), CommModel::Overlap, 16);
        assert!((rep.power - 136.0).abs() < 1e-9); // 6² + 8² + 6²
        assert!(rep.energy_over_horizon() > 0.0);
        assert!(rep.makespan > 0.0);
    }

    #[test]
    fn utilization_of_critical_processor_approaches_one() {
        let (apps, pf) = section2_example();
        // In the period-1 mapping every processor has compute time exactly
        // 1 per data set and the period is 1: utilization → 1.
        let rep = simulate(&apps, &pf, &period_mapping(), CommModel::Overlap, 256);
        for u in 0..3 {
            assert!(
                rep.utilization(u) > 0.9,
                "proc {u} utilization {}",
                rep.utilization(u)
            );
        }
    }

    #[test]
    fn single_dataset_run() {
        let (apps, pf) = section2_example();
        let rep = simulate(&apps, &pf, &period_mapping(), CommModel::Overlap, 1);
        assert!(rep.apps[0].measured_period.is_nan());
        assert!(rep.latency > 0.0);
    }

    #[test]
    fn unbounded_capacity_matches_default() {
        let (apps, pf) = section2_example();
        let m = period_mapping();
        let a = simulate(&apps, &pf, &m, CommModel::Overlap, 32);
        let b = simulate_with_buffers(&apps, &pf, &m, CommModel::Overlap, 32, usize::MAX);
        let c = simulate_with_buffers(&apps, &pf, &m, CommModel::Overlap, 32, 1_000);
        assert_eq!(a.period, b.period);
        assert_eq!(a.period, c.period);
        assert_eq!(a.latency, c.latency);
    }

    #[test]
    fn capacity_one_degrades_receive_bound_pipelines() {
        // A 2-stage chain where the second processor's incoming transfer
        // time equals its compute time: with capacity 1 the transfer of
        // d+1 must wait for compute of d, so the steady period doubles
        // from max(in, comp) = 4 to in + comp = 8 under overlap.
        let app = cpo_model::application::Application::from_pairs(0.0, &[(1.0, 4.0), (4.0, 0.0)]);
        let apps = AppSet::single(app);
        let pf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
        let m = Mapping::new()
            .with(Interval::new(0, 0, 0), 0, 0)
            .with(Interval::new(0, 1, 1), 1, 0);
        let unbounded = simulate(&apps, &pf, &m, CommModel::Overlap, 64);
        let tight = simulate_with_buffers(&apps, &pf, &m, CommModel::Overlap, 64, 1);
        assert!((unbounded.period - 4.0).abs() < 1e-9);
        assert!((tight.period - 8.0).abs() < 1e-9, "got {}", tight.period);
        // Latency of the first data set is unaffected by buffering.
        assert!((tight.latency - unbounded.latency).abs() < 1e-9);
    }

    #[test]
    fn larger_buffers_monotonically_recover_throughput() {
        let app = cpo_model::application::Application::from_pairs(0.0, &[(1.0, 4.0), (4.0, 0.0)]);
        let apps = AppSet::single(app);
        let pf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
        let m = Mapping::new()
            .with(Interval::new(0, 0, 0), 0, 0)
            .with(Interval::new(0, 1, 1), 1, 0);
        let mut last = f64::INFINITY;
        for cap in [1usize, 2, 4, 8] {
            let rep = simulate_with_buffers(&apps, &pf, &m, CommModel::Overlap, 64, cap);
            assert!(rep.period <= last + 1e-9, "capacity {cap}");
            last = rep.period;
        }
        let unbounded = simulate(&apps, &pf, &m, CommModel::Overlap, 64);
        assert!((last - unbounded.period).abs() < 1e-9, "cap 8 saturates");
    }

    #[test]
    #[should_panic(expected = "capacity at least 1")]
    fn zero_capacity_rejected() {
        let (apps, pf) = section2_example();
        let _ = simulate_with_buffers(&apps, &pf, &period_mapping(), CommModel::Overlap, 4, 0);
    }

    #[test]
    fn wavefront_and_dag_agree_bitwise_on_the_section2_example() {
        let (apps, pf) = section2_example();
        let m = period_mapping();
        for model in [CommModel::Overlap, CommModel::NoOverlap] {
            for capacity in [usize::MAX, 1, 3] {
                let wf = simulate_with_buffers(&apps, &pf, &m, model, 48, capacity);
                let dag = simulate_reference_dag(&apps, &pf, &m, model, 48, capacity);
                assert_eq!(wf.period.to_bits(), dag.period.to_bits());
                assert_eq!(wf.latency.to_bits(), dag.latency.to_bits());
                assert_eq!(wf.makespan.to_bits(), dag.makespan.to_bits());
                for (a, b) in wf.busy.iter().zip(&dag.busy) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (wa, da) in wf.apps.iter().zip(&dag.apps) {
                    assert_eq!(wa.completions.len(), da.completions.len());
                    for (x, y) in wa.completions.iter().zip(&da.completions) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "valid mapping")]
    fn invalid_mapping_panics() {
        let (apps, pf) = section2_example();
        let broken = Mapping::new().with(Interval::new(0, 0, 2), 0, 0);
        let _ = simulate(&apps, &pf, &broken, CommModel::Overlap, 4);
    }

    #[test]
    fn fabric_rounds_certifies_valid_mappings() {
        use cpo_model::platform::Processor;
        use cpo_model::topology::MultistageNetwork;
        let (apps, pf) = section2_example();
        let mapping = period_mapping();
        // Dedicated links never need rearrangement rounds.
        assert_eq!(fabric_rounds(&apps, &pf, &mapping), 1);
        // Valid plain mappings are partial permutations: one round on a
        // fabric too, so the wavefront fast path stays eligible.
        let fabric = Platform::multistage(
            pf.procs.clone(),
            MultistageNetwork::new(1.0, 0.1).unwrap(),
        )
        .unwrap();
        assert_eq!(fabric_rounds(&apps, &fabric, &mapping), 1);
        // An irregular flow multiset (two flows leaving processor 0 —
        // impossible for a validated plain mapping, reachable only from
        // future irregular extensions) needs several rounds: the DAG
        // oracle then serializes the crossing transfers.
        let fabric4 = Platform::multistage(
            vec![Processor::new(vec![1.0]).unwrap(); 4],
            MultistageNetwork::new(1.0, 0.1).unwrap(),
        )
        .unwrap();
        let irregular = Mapping::new()
            .with(Interval::new(0, 0, 0), 0, 0)
            .with(Interval::new(0, 1, 2), 1, 0)
            .with(Interval::new(1, 0, 1), 0, 0)
            .with(Interval::new(1, 2, 3), 2, 0);
        assert!(fabric_rounds(&apps, &fabric4, &irregular) > 1);
    }

    #[test]
    fn contention_stretches_only_interior_crossing_edges() {
        use cpo_model::application::Application;
        use cpo_model::platform::Processor;
        use cpo_model::topology::MultistageNetwork;
        let app = Application::from_pairs(4.0, &[(2.0, 3.0), (1.0, 5.0)]);
        let fabric = Platform::multistage(
            vec![Processor::new(vec![1.0]).unwrap(); 4],
            MultistageNetwork::new(1.0, 0.5).unwrap(),
        )
        .unwrap();
        let mapping = Mapping::new()
            .with(Interval::new(0, 0, 0), 0, 0)
            .with(Interval::new(0, 1, 1), 1, 0);
        let chain = mapping.app_chain(0);
        let (base, _) = chain_durations_with(&app, 0, &fabric, &chain, 1);
        let (stretched, _) = chain_durations_with(&app, 0, &fabric, &chain, 3);
        // Input and output edges ride the dedicated front-end links:
        // untouched by contention.
        assert_eq!(base[0].to_bits(), stretched[0].to_bits());
        assert_eq!(base[2].to_bits(), stretched[2].to_bits());
        // The interior crossing edge is serialized across the rounds.
        assert_eq!(stretched[1].to_bits(), (base[1] * 3.0).to_bits());
    }
}
