//! `cpo-experiments` — regenerate every table and figure of the paper.
//!
//! Subcommands:
//!
//! * `fig1`    — the Section 2 / Figure 1 motivating example numbers;
//! * `table1`  — empirical certification of the mono-criterion complexity
//!   table (polynomial cells vs exhaustive search);
//! * `table2`  — same for the multi-criteria table;
//! * `gadgets` — NP-hardness reduction fidelity + exact-solver blow-up;
//! * `scaling` — runtime scaling of every polynomial algorithm;
//! * `pareto`  — period/energy trade-off staircases;
//! * `all`     — everything above, in order (default).
//!
//! Plus the typed front door over the problem IR:
//!
//! * `solve <spec.json> [--check] [--threads N] [--datasets N]` — solve
//!   one `SolveRequest` (instance + `ProblemSpec`) through the router and
//!   print the `SolveOutcome` as JSON;
//! * `batch <specs.jsonl> [--check] [--threads N] [--datasets N]` — drain
//!   a JSONL file through the `serve` pipeline (`serve_cli`); one outcome
//!   line per input line, in input order, never aborting on per-item
//!   failures;
//! * `spec-example [batch|large|benes]` — print the runnable example
//!   request (or the mixed feasible/infeasible batch, the large-scale
//!   wavefront soak, or the Benes multistage-fabric instance) committed
//!   under `examples/specs/`.
//!
//! And the trust subsystem (see the `trust` module of this crate):
//!
//! * `replay <bundle.json>` — re-execute a repro bundle bit-for-bit and
//!   report whether the recorded observations reproduce (exit 0) or not
//!   (exit 1);
//! * `fuzz [--seconds N] [--seed S] [--threads N]` — time-boxed,
//!   deterministically seeded differential fuzz over the full scenario
//!   cross-product; any divergence is frozen into a bundle under
//!   `repro-bundles/` (override with `CPO_BUNDLE_DIR`) and exits 1.
//!
//! `--check` closes the loop end-to-end: every routed solution is
//! re-evaluated analytically *and* executed in the simulator (the
//! wavefront core) over `--datasets` data sets (default 64; CI soaks the
//! committed large-scale spec at one million), and the measured
//! period/latency/energy must agree with the reported objective.
//!
//! Every experiment is seeded; outputs are the markdown rows recorded in
//! EXPERIMENTS.md.

use cpo_core::bi::period_energy::{min_energy_interval_fully_hom, min_energy_one_to_one_matching};
use cpo_core::bi::period_latency::{
    min_latency_under_period_fully_hom, min_period_under_latency_fully_hom,
};
use cpo_core::exact::{exact_optimize, ExactConfig, SpeedPolicy};
use cpo_core::heuristics::{local_search, LocalSearchConfig};
use cpo_core::mono::latency::min_latency_interval_comm_hom;
use cpo_core::mono::period_interval::minimize_global_period;
use cpo_core::mono::period_one_to_one::min_period_one_to_one_comm_hom;
use cpo_core::tri::multimodal::{branch_and_bound_tri_counted, tri_feasible};
use cpo_core::tri::unimodal::min_latency_tri_unimodal;
use cpo_core::{Criterion, MappingKind};
use cpo_model::gadgets::*;
use cpo_model::generator::*;
use cpo_model::prelude::*;
use cpo_experiments::serve_cli;
use cpo_experiments::trust::{self, bundle_source, check_outcome, close, maybe_corrupt};
use cpo_simulator::simulate;
use std::time::Instant;

fn status(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "MISMATCH"
    }
}

// ---------------------------------------------------------------------------
// fig1
// ---------------------------------------------------------------------------

fn fig1() {
    println!("\n## FIG1 — Section 2 motivating example\n");
    println!("| quantity | paper | measured | simulated | status |");
    println!("|---|---|---|---|---|");
    let (apps, pf) = section2_example();
    let ev = Evaluator::new(&apps, &pf);
    let cfg_max = ExactConfig {
        kind: MappingKind::Interval,
        model: CommModel::Overlap,
        speed: SpeedPolicy::MaxOnly,
    };
    let cfg_all = ExactConfig { speed: SpeedPolicy::All, ..cfg_max };

    let t = exact_optimize(&apps, &pf, cfg_max, Criterion::Period, &Thresholds::none()).unwrap();
    let sim_t = simulate(&apps, &pf, &t.mapping, CommModel::Overlap, 64).period;
    println!(
        "| minimum period (Eq. 1) | 1 | {:.3} | {:.3} | {} |",
        t.objective,
        sim_t,
        status(close(t.objective, 1.0) && close(sim_t, 1.0))
    );

    let l = min_latency_interval_comm_hom(&apps, &pf).unwrap();
    let sim_l = simulate(&apps, &pf, &l.mapping, CommModel::Overlap, 8).latency;
    println!(
        "| minimum latency (Eq. 2) | 2.75 | {:.3} | {:.3} | {} |",
        l.objective,
        sim_l,
        status(close(l.objective, 2.75) && close(sim_l, 2.75))
    );

    let e = exact_optimize(&apps, &pf, cfg_all, Criterion::Energy, &Thresholds::none()).unwrap();
    let period_at_e = ev.period(&e.mapping, CommModel::Overlap);
    println!(
        "| minimum energy | 10 | {:.1} | — | {} |",
        e.objective,
        status(close(e.objective, 10.0))
    );
    println!(
        "| period at minimum energy | 14 | {:.3} | — | {} |",
        period_at_e,
        status(close(period_at_e, 14.0))
    );

    let th = Thresholds::uniform_period(2.0, 2);
    let comp = exact_optimize(&apps, &pf, cfg_all, Criterion::Energy, &th).unwrap();
    println!(
        "| energy under period ≤ 2 | 46 | {:.1} | — | {} |",
        comp.objective,
        status(close(comp.objective, 46.0))
    );
    let energy_fast = ev.energy(&t.mapping);
    println!(
        "| energy of the period-optimal mapping | 136 | {:.1} | — | {} |",
        energy_fast,
        status(close(energy_fast, 136.0))
    );
}

// ---------------------------------------------------------------------------
// table1 / table2 certification harness
// ---------------------------------------------------------------------------

struct Cert {
    agree: usize,
    total: usize,
    feasible: usize,
}

impl Cert {
    fn row(&self, name: &str, algo: &str) -> String {
        format!(
            "| {} | {} | {}/{} optimal (on {} feasible) | {} |",
            name,
            algo,
            self.agree,
            self.total,
            self.feasible,
            status(self.agree == self.total)
        )
    }
}

fn certify(
    seeds: u64,
    mut fast: impl FnMut(u64) -> Option<f64>,
    mut brute: impl FnMut(u64) -> Option<f64>,
) -> Cert {
    let mut agree = 0;
    let mut feasible = 0;
    for seed in 0..seeds {
        let f = fast(seed);
        let b = brute(seed);
        match (f, b) {
            (None, None) => agree += 1,
            (Some(x), Some(y)) => {
                feasible += 1;
                if close(x, y) {
                    agree += 1;
                }
            }
            _ => {}
        }
    }
    Cert { agree, total: seeds as usize, feasible }
}

fn table1() {
    println!("\n## TABLE 1 — mono-criterion complexity, empirical certification\n");
    println!("| cell | algorithm | result | status |");
    println!("|---|---|---|---|");
    const SEEDS: u64 = 100;

    // Period / one-to-one / com-hom (Theorem 1).
    let app_cfg = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
    let cert = certify(
        SEEDS,
        |s| {
            let apps = random_apps(&app_cfg, s);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: apps.total_stages() + 1, modes: (1, 2), ..Default::default() },
                s + 1000,
            );
            min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap).map(|x| x.objective)
        },
        |s| {
            let apps = random_apps(&app_cfg, s);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: apps.total_stages() + 1, modes: (1, 2), ..Default::default() },
                s + 1000,
            );
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::OneToOne,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                Criterion::Period,
                &Thresholds::none(),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Period / one-to-one / com-hom", "Thm 1: binary search + greedy"));

    // Period / interval / fully-hom (Theorem 3, Algorithm 2).
    let app_cfg2 = AppGenConfig { apps: 2, stages: (2, 4), ..Default::default() };
    let cert = certify(
        SEEDS,
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_fully_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (1, 2), ..Default::default() },
                s + 2000,
            );
            minimize_global_period(&apps, &pf, CommModel::Overlap).map(|x| x.objective)
        },
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_fully_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (1, 2), ..Default::default() },
                s + 2000,
            );
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                Criterion::Period,
                &Thresholds::none(),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Period / interval / fully-hom", "Thm 3: DP + Algorithm 2"));
    println!("| Period / interval / special-app | NP-complete (Thm 5) | see `gadgets` | ok |");
    println!("| Latency / one-to-one / special-app | NP-complete (Thm 9) | see `gadgets` | ok |");

    // Latency / interval / com-hom (Theorem 12).
    let app_cfg3 = AppGenConfig { apps: 3, stages: (1, 3), ..Default::default() };
    let cert = certify(
        SEEDS,
        |s| {
            let apps = random_apps(&app_cfg3, s);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (1, 3), ..Default::default() },
                s + 3000,
            );
            min_latency_interval_comm_hom(&apps, &pf).map(|x| x.objective)
        },
        |s| {
            let apps = random_apps(&app_cfg3, s);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (1, 3), ..Default::default() },
                s + 3000,
            );
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                Criterion::Latency,
                &Thresholds::none(),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Latency / interval / com-hom", "Thm 12: greedy on A fastest"));
}

fn table2() {
    println!("\n## TABLE 2 — multi-criteria complexity, empirical certification\n");
    println!("| cell | algorithm | result | status |");
    println!("|---|---|---|---|");
    const SEEDS: u64 = 60;

    // Period/Latency (Theorems 15/16).
    let app_cfg = AppGenConfig { apps: 2, stages: (2, 4), ..Default::default() };
    let mk = |s: u64| {
        let apps = random_apps(&app_cfg, s);
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 4, modes: (1, 1), ..Default::default() },
            s + 4000,
        );
        let tb = minimize_global_period(&apps, &pf, CommModel::Overlap)
            .map(|x| x.objective * 1.5)
            .unwrap_or(1e9);
        (apps, pf, tb)
    };
    let cert = certify(
        SEEDS,
        |s| {
            let (apps, pf, tb) = mk(s);
            min_latency_under_period_fully_hom(&apps, &pf, CommModel::Overlap, &vec![tb; apps.a()])
                .map(|x| x.objective)
        },
        |s| {
            let (apps, pf, tb) = mk(s);
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                Criterion::Latency,
                &Thresholds::none().with_period(vec![tb; apps.a()]),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Period/Latency / fully-hom (L min)", "Thm 15/16: DP (L,T)(i,q)"));

    let cert = certify(
        SEEDS,
        |s| {
            let (apps, pf, _) = mk(s);
            min_period_under_latency_fully_hom(
                &apps,
                &pf,
                CommModel::Overlap,
                &vec![1e6; apps.a()],
            )
            .map(|x| x.objective)
        },
        |s| {
            let (apps, pf, _) = mk(s);
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::MaxOnly,
                },
                Criterion::Period,
                &Thresholds::none().with_latency(vec![1e6; apps.a()]),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Period/Latency / fully-hom (T min)", "Thm 15/16: binary search dual"));

    // Period/Energy one-to-one (Theorem 19).
    let app_cfg2 = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
    let cert = certify(
        SEEDS,
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: apps.total_stages(), modes: (2, 3), ..Default::default() },
                s + 5000,
            );
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 2.0 + 2.0).collect();
            min_energy_one_to_one_matching(&apps, &pf, CommModel::Overlap, &tb)
                .map(|x| x.objective)
        },
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_comm_homogeneous(
                &PlatformGenConfig { procs: apps.total_stages(), modes: (2, 3), ..Default::default() },
                s + 5000,
            );
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 2.0 + 2.0).collect();
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::OneToOne,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::All,
                },
                Criterion::Energy,
                &Thresholds::none().with_period(tb),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Period/Energy / one-to-one / com-hom", "Thm 19: Hungarian matching"));

    // Period/Energy interval (Theorems 18/21).
    let cert = certify(
        SEEDS,
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_fully_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (2, 3), ..Default::default() },
                s + 6000,
            );
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 3.0 + 2.0).collect();
            min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &tb).map(|x| x.objective)
        },
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_fully_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (2, 3), ..Default::default() },
                s + 6000,
            );
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 3.0 + 2.0).collect();
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::All,
                },
                Criterion::Energy,
                &Thresholds::none().with_period(tb),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Period/Energy / interval / fully-hom", "Thm 18/21: DP + convolution"));

    // Tri-criteria uni-modal (Theorem 24).
    let cert = certify(
        SEEDS,
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_fully_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (1, 1), ..Default::default() },
                s + 7000,
            );
            let e_per = EnergyModel::default().dynamic(pf.procs[0].max_speed());
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() + 5.0).collect();
            min_latency_tri_unimodal(&apps, &pf, CommModel::Overlap, &tb, 3.0 * e_per + 1e-6)
                .map(|x| x.objective)
        },
        |s| {
            let apps = random_apps(&app_cfg2, s);
            let pf = random_fully_homogeneous(
                &PlatformGenConfig { procs: 4, modes: (1, 1), ..Default::default() },
                s + 7000,
            );
            let e_per = EnergyModel::default().dynamic(pf.procs[0].max_speed());
            let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() + 5.0).collect();
            exact_optimize(
                &apps,
                &pf,
                ExactConfig {
                    kind: MappingKind::Interval,
                    model: CommModel::Overlap,
                    speed: SpeedPolicy::All,
                },
                Criterion::Latency,
                &Thresholds::none().with_period(tb).with_energy(3.0 * e_per + 1e-6),
            )
            .map(|x| x.objective)
        },
    );
    println!("{}", cert.row("Tri-criteria / uni-modal / fully-hom", "Thm 24: Algorithm 2 + DP"));
    println!("| Tri-criteria / multi-modal | NP-hard (Thm 26/27) | see `gadgets` | ok |");

    // Heuristic quality vs exact branch-and-bound on the Section 2 example
    // family.
    let (apps, pf) = section2_example();
    let mut exact_sum = 0.0;
    let mut greedy_sum = 0.0;
    let mut ls_sum = 0.0;
    let mut cases = 0;
    for tb in [1.5, 2.0, 3.0, 4.0, 6.0] {
        let bounds = [tb, tb];
        let lat = [f64::INFINITY, f64::INFINITY];
        if let (Some(ex), Some(ls)) = (
            cpo_core::tri::multimodal::branch_and_bound_tri(
                &apps,
                &pf,
                CommModel::Overlap,
                MappingKind::Interval,
                &bounds,
                &lat,
            ),
            local_search(
                &apps,
                &pf,
                CommModel::Overlap,
                &bounds,
                &lat,
                &LocalSearchConfig { iterations: 4000, seed: 11, ..Default::default() },
            ),
        ) {
            let start = ex.mapping.clone().at_max_speed(&pf);
            let greedy = cpo_core::heuristics::greedy_energy_downscale(
                &apps,
                &pf,
                CommModel::Overlap,
                &bounds,
                &lat,
                &start,
            )
            .expect("feasible start");
            exact_sum += ex.objective;
            greedy_sum += greedy.objective;
            ls_sum += ls.objective;
            cases += 1;
        }
    }
    println!(
        "| Heuristics vs exact (Section 2 family, {} bounds) | greedy downscale / local search | mean ratio {:.3} / {:.3} | {} |",
        cases,
        greedy_sum / exact_sum,
        ls_sum / exact_sum,
        status(ls_sum / exact_sum < 1.25)
    );
}

// ---------------------------------------------------------------------------
// gadgets
// ---------------------------------------------------------------------------

fn gadgets() {
    println!("\n## GADGETS — NP-hardness reductions, run both ways\n");
    println!("| reduction | instances | fidelity | status |");
    println!("|---|---|---|---|");

    // Theorem 5 intended-mapping check on factory instances.
    let mut ok5 = 0;
    const N5: u64 = 20;
    for seed in 0..N5 {
        let inst = ThreePartition::yes_instance(3, seed);
        let g = theorem5_encode(&inst);
        let triples = inst.solve().expect("yes");
        let m = theorem5_mapping(&inst, &triples);
        let t = Evaluator::new(&g.apps, &g.platform).period(&m, CommModel::Overlap);
        if close(t, 1.0) {
            ok5 += 1;
        }
    }
    println!(
        "| Thm 5 (3-PARTITION → period/interval) | {N5} YES | {ok5}/{N5} reach period 1 | {} |",
        status(ok5 == N5 as usize)
    );

    // Theorem 9.
    let mut ok9 = 0;
    for seed in 0..N5 {
        let inst = ThreePartition::yes_instance(3, seed + 100);
        let g = theorem9_encode(&inst);
        let m = theorem9_mapping(&inst.solve().expect("yes"));
        let l = Evaluator::new(&g.apps, &g.platform).latency(&m);
        if close(l, g.target_latency) {
            ok9 += 1;
        }
    }
    println!(
        "| Thm 9 (3-PARTITION → latency/one-to-one) | {N5} YES | {ok9}/{N5} reach latency B | {} |",
        status(ok9 == N5 as usize)
    );

    // Theorem 26 fidelity on mixed YES/NO.
    let mut agree = 0;
    const N26: u64 = 12;
    for seed in 0..N26 {
        let inst = if seed % 2 == 0 {
            TwoPartition::yes_instance(3, seed)
        } else {
            TwoPartition::no_instance(3, seed)
        };
        let expected = inst.solve().is_some();
        let g = theorem26_encode(&inst);
        let got = tri_feasible(
            &g.apps,
            &g.platform,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[g.target_period],
            &[g.target_latency],
            g.target_energy,
        );
        if got == expected {
            agree += 1;
        }
    }
    println!(
        "| Thm 26 (2-PARTITION → tri-criteria) | {N26} mixed | {agree}/{N26} feasibility agrees | {} |",
        status(agree == N26 as usize)
    );

    // Theorem 27 (interval variant).
    let mut agree27 = 0;
    const N27: u64 = 6;
    for seed in 0..N27 {
        let inst = if seed % 2 == 0 {
            TwoPartition::yes_instance(2, seed)
        } else {
            TwoPartition::no_instance(2, seed)
        };
        let expected = inst.solve().is_some();
        let g = theorem27_encode(&inst);
        let got = tri_feasible(
            &g.apps,
            &g.platform,
            CommModel::Overlap,
            MappingKind::Interval,
            &[g.target_period],
            &[g.target_latency],
            g.target_energy,
        );
        if got == expected {
            agree27 += 1;
        }
    }
    println!(
        "| Thm 27 (2-PARTITION → tri-criteria, interval) | {N27} mixed | {agree27}/{N27} agree | {} |",
        status(agree27 == N27 as usize)
    );

    // Exact-solver blow-up on Theorem 26 gadgets: nodes visited vs n.
    println!("\n### Branch-and-bound blow-up on Theorem 26 gadgets (NP-hardness signature)\n");
    println!("| items n | search nodes | time |");
    println!("|---|---|---|");
    for n in 2..=5 {
        let inst = TwoPartition::yes_instance(n, 1);
        let g = theorem26_encode(&inst);
        let t0 = Instant::now();
        let (_, nodes) = branch_and_bound_tri_counted(
            &g.apps,
            &g.platform,
            CommModel::Overlap,
            MappingKind::OneToOne,
            &[g.target_period],
            &[g.target_latency],
        );
        println!("| {n} | {nodes} | {:?} |", t0.elapsed());
    }
}

// ---------------------------------------------------------------------------
// scaling
// ---------------------------------------------------------------------------

fn time_it(mut f: impl FnMut()) -> f64 {
    // Warm up once, then take the best of 3 runs.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn scaling() {
    println!("\n## SCALING — runtime of the polynomial algorithms\n");
    println!("(growth = t(size)/t(previous size); the claimed bounds predict");
    println!("about 4-8x per doubling for the quadratic/cubic algorithms)\n");

    println!("### Theorem 1 (period, one-to-one, com-hom) — O((n·A·p)² log(n·A·p))\n");
    println!("| N stages (= p) | time (ms) | growth |");
    println!("|---|---|---|");
    let mut prev = f64::NAN;
    for n in [20usize, 40, 80, 160] {
        let apps = random_apps(
            &AppGenConfig { apps: 4, stages: (n / 4, n / 4), ..Default::default() },
            7,
        );
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: n, modes: (1, 3), ..Default::default() },
            8,
        );
        let t = time_it(|| {
            let _ = min_period_one_to_one_comm_hom(&apps, &pf, CommModel::Overlap);
        });
        println!("| {n} | {:.2} | {:.1}x |", t * 1e3, t / prev);
        prev = t;
    }

    println!("\n### Theorem 3 (period, interval, fully-hom) — O(n³p²) worst case\n");
    println!("| n per app (A=4, p=16) | time (ms) | growth |");
    println!("|---|---|---|");
    prev = f64::NAN;
    for n in [8usize, 16, 32, 64] {
        let apps = random_apps(
            &AppGenConfig { apps: 4, stages: (n, n), ..Default::default() },
            9,
        );
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 16, modes: (1, 2), ..Default::default() },
            10,
        );
        let t = time_it(|| {
            let _ = minimize_global_period(&apps, &pf, CommModel::Overlap);
        });
        println!("| {n} | {:.2} | {:.1}x |", t * 1e3, t / prev);
        prev = t;
    }

    println!("\n### Theorem 18/21 (energy DP) — O(A·n³·p²)\n");
    println!("| n per app (A=2, p=8) | time (ms) | growth |");
    println!("|---|---|---|");
    prev = f64::NAN;
    for n in [8usize, 16, 32, 64] {
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (n, n), ..Default::default() },
            11,
        );
        let pf = random_fully_homogeneous(
            &PlatformGenConfig { procs: 8, modes: (3, 3), ..Default::default() },
            12,
        );
        let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 4.0 + 2.0).collect();
        let t = time_it(|| {
            let _ = min_energy_interval_fully_hom(&apps, &pf, CommModel::Overlap, &tb);
        });
        println!("| {n} | {:.2} | {:.1}x |", t * 1e3, t / prev);
        prev = t;
    }

    println!("\n### Theorem 19 (energy matching) — Hungarian-dominated\n");
    println!("| N stages (= p) | time (ms) | growth |");
    println!("|---|---|---|");
    prev = f64::NAN;
    for n in [16usize, 32, 64, 128] {
        let apps = random_apps(
            &AppGenConfig { apps: 4, stages: (n / 4, n / 4), ..Default::default() },
            13,
        );
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: n, modes: (2, 3), ..Default::default() },
            14,
        );
        let tb: Vec<f64> = apps.apps.iter().map(|a| a.total_work() / 2.0 + 4.0).collect();
        let t = time_it(|| {
            let _ = min_energy_one_to_one_matching(&apps, &pf, CommModel::Overlap, &tb);
        });
        println!("| {n} | {:.2} | {:.1}x |", t * 1e3, t / prev);
        prev = t;
    }
}

// ---------------------------------------------------------------------------
// extensions: replication / sharing / buffers ablations
// ---------------------------------------------------------------------------

fn extensions() {
    println!("\n## EXTENSIONS — Section 6 future work, implemented and measured\n");

    // Replication vs plain intervals on a monolithic-stage-heavy workload.
    println!("### Replication (paper ref [4]): period with p processors\n");
    println!("| p | plain interval period | replicated period | gain |");
    println!("|---|---|---|---|");
    let apps = AppSet::new(vec![
        cpo_model::application::Application::from_pairs(0.0, &[(8.0, 1.0)]),
        cpo_model::application::Application::from_pairs(0.0, &[(4.0, 1.0), (4.0, 1.0)]),
    ])
    .unwrap();
    for p in [2usize, 3, 4, 6, 8] {
        let pf = Platform::fully_homogeneous(p, vec![2.0], 4.0).unwrap();
        let plain = minimize_global_period(&apps, &pf, CommModel::Overlap).map(|s| s.objective);
        let repl = cpo_core::replication::minimize_global_period_replicated(
            &apps,
            &pf,
            CommModel::Overlap,
        )
        .map(|(_, t)| t);
        match (plain, repl) {
            (Some(tp), Some(tr)) => println!(
                "| {p} | {tp:.3} | {tr:.3} | {:.2}x |",
                tp / tr
            ),
            _ => println!("| {p} | infeasible | — | — |"),
        }
    }

    // Replication as an alternative to DVFS for energy.
    println!("\n### Replication vs DVFS: energy under a period bound (work-8 stage)\n");
    println!("| period <= | DVFS-only energy | replication+DVFS energy | replicas |");
    println!("|---|---|---|---|");
    let one = AppSet::single(cpo_model::application::Application::from_pairs(0.0, &[(8.0, 0.0)]));
    let pf = Platform::fully_homogeneous(8, vec![1.0, 2.0, 4.0, 8.0], 1.0).unwrap();
    for tb in [8.0, 4.0, 2.0, 1.0] {
        let dvfs =
            min_energy_interval_fully_hom(&one, &pf, CommModel::Overlap, &[tb]).map(|s| s.objective);
        let repl = cpo_core::replication::min_energy_replicated_under_period(
            &one,
            &pf,
            CommModel::Overlap,
            &[tb],
        );
        match (dvfs, repl) {
            (Some(ed), Some((m, er))) => println!(
                "| {tb} | {ed:.1} | {er:.1} | {} |",
                m.assignments[0].r()
            ),
            (None, Some((m, er))) => println!("| {tb} | infeasible | {er:.1} | {} |", m.assignments[0].r()),
            _ => println!("| {tb} | infeasible | infeasible | — |"),
        }
    }

    // Sharing gain on random scarce-processor instances.
    println!("\n### Processor sharing: interval vs general optimal period (p = 2, A = 2)\n");
    println!("| seeds | sharing strictly helps | mean gain when it helps |");
    println!("|---|---|---|");
    let cfg = AppGenConfig { apps: 2, stages: (1, 3), ..Default::default() };
    let mut helps = 0;
    let mut gain_sum = 0.0;
    const NS: u64 = 40;
    for seed in 0..NS {
        let apps = random_apps(&cfg, seed);
        let pf = Platform::fully_homogeneous(2, vec![2.0], 1.0).unwrap();
        if let Some((ti, tg)) = cpo_core::sharing::sharing_gain(&apps, &pf, CommModel::Overlap) {
            if tg < ti - 1e-9 {
                helps += 1;
                if ti.is_finite() {
                    gain_sum += ti / tg;
                }
            }
        }
    }
    println!(
        "| {NS} | {helps} | {} |",
        if helps > 0 && gain_sum > 0.0 { format!("{:.2}x", gain_sum / helps as f64) } else { "(feasibility rescues only)".into() }
    );

    // Bounded buffers.
    println!("\n### Bounded buffers: measured period vs capacity (receive-bound chain)\n");
    println!("| capacity | measured period | vs paper model |");
    println!("|---|---|---|");
    let app = cpo_model::application::Application::from_pairs(0.0, &[(1.0, 4.0), (4.0, 0.0)]);
    let bapps = AppSet::single(app);
    let bpf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
    let mapping = cpo_model::mapping::Mapping::new()
        .with(cpo_model::mapping::Interval::new(0, 0, 0), 0, 0)
        .with(cpo_model::mapping::Interval::new(0, 1, 1), 1, 0);
    let ideal =
        cpo_simulator::simulate(&bapps, &bpf, &mapping, CommModel::Overlap, 64).period;
    for cap in [1usize, 2, 4, 8] {
        let t = cpo_simulator::simulate_with_buffers(
            &bapps,
            &bpf,
            &mapping,
            CommModel::Overlap,
            64,
            cap,
        )
        .period;
        println!("| {cap} | {t:.3} | {:.2}x |", t / ideal);
    }
    println!("| unbounded (paper) | {ideal:.3} | 1.00x |");
}

// ---------------------------------------------------------------------------
// robustness
// ---------------------------------------------------------------------------

fn robustness() {
    println!("\n## ROBUSTNESS — optimal mappings under execution noise\n");
    println!("Multiplicative noise U(1-eps, 1+eps) on every operation; 32 trials,");
    println!("64 data sets; mapping = the Section 2 period-optimal mapping.\n");
    println!("| eps | mean period | worst period | degradation |");
    println!("|---|---|---|---|");
    let (apps, pf) = section2_example();
    let mapping = cpo_model::mapping::Mapping::new()
        .with(cpo_model::mapping::Interval::new(0, 0, 2), 2, 1)
        .with(cpo_model::mapping::Interval::new(1, 0, 1), 1, 1)
        .with(cpo_model::mapping::Interval::new(1, 2, 3), 0, 1);
    for eps in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let rep = cpo_simulator::jitter_analysis(
            &apps,
            &pf,
            &mapping,
            CommModel::Overlap,
            64,
            eps,
            32,
            11,
        );
        println!(
            "| {eps} | {:.3} | {:.3} | {:+.1}% |",
            rep.mean_period,
            rep.max_period,
            100.0 * rep.degradation()
        );
    }
    println!("\nReading: the period-1 mapping has zero slack (all three cycle-times");
    println!("equal 1), so any noise converts directly into period degradation —");
    println!("the deterministic optimum is a fragile optimum.");
}

// ---------------------------------------------------------------------------
// pareto
// ---------------------------------------------------------------------------

fn pareto() {
    println!("\n## PARETO — period/energy trade-off staircases\n");
    let (apps, _) = section2_example();
    let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    println!("### Homogenized Section 2 platform (3 procs, modes {{1,3,6,8}})\n");
    println!("| period <= | min energy | processors |");
    println!("|---|---|---|");
    for pt in cpo_core::pareto::period_energy_front(&apps, &pf, CommModel::Overlap, MappingKind::Interval)
    {
        println!("| {:.3} | {:.1} | {} |", pt.period, pt.energy, pt.solution.mapping.enrolled());
    }

    let video = AppSet::single(video_encoding_app(1.0));
    let farm = Platform::fully_homogeneous(6, vec![0.5, 1.0, 2.0, 4.0], 4.0).unwrap();
    println!("\n### Video encoding chain on a 6-processor DVFS farm\n");
    println!("| period <= | min energy | processors |");
    println!("|---|---|---|");
    for pt in
        cpo_core::pareto::period_energy_front(&video, &farm, CommModel::Overlap, MappingKind::Interval)
    {
        println!("| {:.3} | {:.2} | {} |", pt.period, pt.energy, pt.solution.mapping.enrolled());
    }
}

// ---------------------------------------------------------------------------
// dump: archive the Section 2 instance as JSON
// ---------------------------------------------------------------------------

fn dump() {
    let (apps, platform) = section2_example();
    let period_optimal = cpo_model::mapping::Mapping::new()
        .with(cpo_model::mapping::Interval::new(0, 0, 2), 2, 1)
        .with(cpo_model::mapping::Interval::new(1, 0, 1), 1, 1)
        .with(cpo_model::mapping::Interval::new(1, 2, 3), 0, 1);
    let compromise = cpo_model::mapping::Mapping::new()
        .with(cpo_model::mapping::Interval::new(0, 0, 2), 0, 0)
        .with(cpo_model::mapping::Interval::new(1, 0, 0), 2, 0)
        .with(cpo_model::mapping::Interval::new(1, 1, 3), 1, 0);
    let inst = cpo_model::io::Instance::new(
        "Section 2 / Figure 1 motivating example of Benoit, Renaud-Goud, Robert (IPDPS 2010)",
        apps,
        platform,
    )
    .with_thresholds(Thresholds::uniform_period(2.0, 2))
    .with_mapping("period-optimal", period_optimal)
    .with_mapping("energy-compromise", compromise);
    let json = inst.to_json().expect("serializable");
    // Round-trip check before emitting.
    let back = cpo_model::io::Instance::from_json(&json).expect("round-trips");
    assert_eq!(inst, back);
    println!("{json}");
}

// ---------------------------------------------------------------------------
// solve: the typed front door (ProblemSpec → router → engine); `batch`
// drains through the serve pipeline in `serve_cli`
// ---------------------------------------------------------------------------

fn engine_config(threads: Option<usize>) -> cpo_engine::EngineConfig {
    match threads {
        Some(n) => cpo_engine::EngineConfig::with_threads(n),
        None => cpo_engine::EngineConfig::default(),
    }
}

fn cmd_solve(path: &str, check: bool, threads: Option<usize>, datasets: usize) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    let req = SolveRequest::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse `{path}`: {e}");
        std::process::exit(2);
    });
    let cfg = engine_config(threads);
    let engine = cpo_engine::Engine::new(cfg.clone());
    let out = maybe_corrupt(engine.solve(&req.apps, &req.platform, &req.problem));
    let json = out.to_json().or_else(|_| serve_cli::unrepresentable(out.kind()).to_json_compact());
    println!("{}", json.expect("a plain string reason serializes"));
    if let SolveOutcome::Unsupported { reason } = &out {
        if let Some(details) = cpo_engine::panic_details(reason) {
            // A panic is always worth keeping, `--check` or not.
            let message = format!("engine panic: {}", details.payload);
            let source = bundle_source(&req, Some(&text));
            export(FailureKind::EnginePanic, message, source, &cfg, datasets);
        }
    }
    if check {
        match check_outcome(&req, &out, datasets) {
            Ok(()) => eprintln!("check: ok ({})", out.kind()),
            Err(e) => {
                eprintln!("check: MISMATCH: {e}");
                let source = bundle_source(&req, Some(&text));
                export(FailureKind::CheckMismatch, e, source, &cfg, datasets);
                std::process::exit(1);
            }
        }
    }
}

/// Freeze a `solve` failure into a repro bundle.
fn export(
    kind: FailureKind,
    message: String,
    source: BundleSource,
    cfg: &cpo_engine::EngineConfig,
    datasets: usize,
) {
    match trust::export_bundle(kind, message, None, source, cfg, datasets) {
        Ok(path) => eprintln!("repro bundle written: {}", path.display()),
        Err(e) => eprintln!("could not write repro bundle: {e}"),
    }
}

fn cmd_replay(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    let bundle = ReproBundle::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse bundle `{path}`: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "replaying bundle {} ({:?}: {})",
        bundle.bundle_id, bundle.failure.kind, bundle.failure.message
    );
    match trust::replay(&bundle) {
        Ok(report) => {
            for line in &report.details {
                eprintln!("  {line}");
            }
            for d in &report.divergences {
                eprintln!("  divergence still present: {d}");
            }
            if report.confirmed {
                println!("replay: CONFIRMED — every recorded path reproduced bit-for-bit");
            } else {
                println!("replay: NOT REPRODUCED — recorded observations differ from this run");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_fuzz(seconds: u64, seed: u64, threads: Option<usize>) {
    let cfg = engine_config(threads);
    eprintln!(
        "fuzz: {seconds}s time box, seed {seed}, bundles under `{}`",
        trust::bundle_dir().display()
    );
    let report = trust::fuzz(seconds, seed, &cfg);
    println!(
        "fuzz: {} instances over {} scenarios ({} full sweeps), {} divergent",
        report.executed,
        report.scenarios,
        report.iterations,
        report.bundles.len()
    );
    for path in &report.bundles {
        eprintln!("  bundle: {}", path.display());
    }
    if !report.bundles.is_empty() {
        std::process::exit(1);
    }
}

/// The committed example request: the Section 2 energy compromise on the
/// homogenized platform, solved through the router.
fn example_request() -> SolveRequest {
    let (apps, _) = section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let problem = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![2.0, 2.0]);
    SolveRequest::new(
        "Section 2 energy compromise (energy under period <= 2, homogenized platform)",
        apps,
        platform,
        problem,
    )
}

/// The committed example batch: a mix of feasible, infeasible and
/// unsupported specs over the Section 2 instance, exercising the per-item
/// failure reporting.
fn example_batch() -> Vec<SolveRequest> {
    let (apps, _) = section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let mut reqs = Vec::new();
    for tb in [1.5, 2.0, 3.0, 6.0] {
        reqs.push(SolveRequest::new(
            format!("energy under period <= {tb}"),
            apps.clone(),
            platform.clone(),
            ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
                .with_period_bounds(vec![tb, tb]),
        ));
    }
    reqs.push(SolveRequest::new(
        "minimum period (interval)",
        apps.clone(),
        platform.clone(),
        ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap),
    ));
    reqs.push(SolveRequest::new(
        "minimum period with replication",
        apps.clone(),
        platform.clone(),
        ProblemSpec::new(Objective::Period, Strategy::Replicated, CommModel::Overlap),
    ));
    reqs.push(SolveRequest::new(
        "latency under an unachievable period bound (infeasible)",
        apps.clone(),
        platform.clone(),
        ProblemSpec::new(Objective::Latency, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![0.01, 0.01]),
    ));
    reqs.push(SolveRequest::new(
        "energy for a general mapping (unsupported)",
        apps.clone(),
        platform.clone(),
        ProblemSpec::new(Objective::Energy, Strategy::General, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]),
    ));
    reqs.push(SolveRequest::new(
        "period/latency front (no-overlap model)",
        apps,
        platform,
        ProblemSpec::new(Objective::PeriodLatencyFront, Strategy::Interval, CommModel::NoOverlap),
    ));
    reqs
}

/// The committed large-scale request: a wide random instance whose
/// `--check` pass exercises the wavefront simulator at "millions of data
/// sets" scale (pair it with `--datasets 1000000` — the DAG engine could
/// not hold that many events in memory, the wavefront streams them).
fn example_large() -> SolveRequest {
    let apps = random_apps(
        &AppGenConfig { apps: 3, stages: (10, 14), ..Default::default() },
        2024,
    );
    let platform = random_fully_homogeneous(
        &PlatformGenConfig { procs: apps.total_stages() + 2, modes: (2, 2), ..Default::default() },
        2025,
    );
    let problem = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    SolveRequest::new(
        "large-scale throughput study: minimum period over a 3-app, ~36-stage instance \
         (check with --datasets 1000000 to soak the wavefront simulator)",
        apps,
        platform,
        problem,
    )
}

/// The committed Benes request: the Section 2 instance solved over a
/// multistage (rearrangeable Benes) interconnect instead of dedicated
/// links. The router wraps the interval period solver in the routing
/// certificate (`Plan::Benes`), and `--check` replays the mapping
/// through the simulator with the fabric contention model.
fn example_benes() -> SolveRequest {
    let (apps, _) = section2_example();
    let procs = vec![Processor::new(vec![1.0, 3.0, 6.0, 8.0]).unwrap(); 3];
    let net = MultistageNetwork::new(1.0, 0.05).unwrap();
    let platform = Platform::multistage(procs, net).unwrap();
    let problem = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    SolveRequest::new(
        "Section 2 instance over a Benes multistage fabric (minimum period, interval mapping)",
        apps,
        platform,
        problem,
    )
}

fn spec_example(which: Option<&str>) {
    match which {
        Some("batch") => {
            for req in example_batch() {
                println!("{}", req.to_json_compact().expect("serializable"));
            }
        }
        Some("large") => {
            let req = example_large();
            let json = req.to_json().expect("serializable");
            assert_eq!(SolveRequest::from_json(&json).expect("round-trips"), req);
            println!("{json}");
        }
        Some("benes") => {
            let req = example_benes();
            let json = req.to_json().expect("serializable");
            assert_eq!(SolveRequest::from_json(&json).expect("round-trips"), req);
            println!("{json}");
        }
        _ => {
            let req = example_request();
            let json = req.to_json().expect("serializable");
            assert_eq!(SolveRequest::from_json(&json).expect("round-trips"), req);
            println!("{json}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let check = args.iter().any(|a| a == "--check");
    let threads = args.iter().position(|a| a == "--threads").map(|i| {
        match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("--threads needs a positive integer value");
                std::process::exit(2);
            }
        }
    });
    let datasets = match args.iter().position(|a| a == "--datasets") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            // A single data set has no inter-completion gap: the measured
            // period would be NaN and every --check would spuriously fail.
            Some(n) if n >= 2 => n,
            _ => {
                eprintln!("--datasets needs an integer value of at least 2");
                std::process::exit(2);
            }
        },
        None => 64,
    };
    let file = args.get(1).filter(|a| !a.starts_with("--")).cloned();
    let u64_flag = |flag: &str, default: u64| -> u64 {
        match args.iter().position(|a| a == flag) {
            Some(i) => match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => n,
                None => {
                    eprintln!("{flag} needs a non-negative integer value");
                    std::process::exit(2);
                }
            },
            None => default,
        }
    };
    match cmd {
        "fig1" => fig1(),
        "table1" => table1(),
        "table2" => table2(),
        "gadgets" => gadgets(),
        "scaling" => scaling(),
        "pareto" => pareto(),
        "extensions" => extensions(),
        "robustness" => robustness(),
        "dump" => dump(),
        "solve" => match file {
            Some(f) => cmd_solve(&f, check, threads, datasets),
            None => {
                eprintln!(
                    "usage: cpo-experiments solve <spec.json> [--check] [--threads N] \
                     [--datasets N]"
                );
                std::process::exit(2);
            }
        },
        "batch" => match file {
            Some(f) => std::process::exit(
                serve_cli::cmd_batch(&f, check, threads, datasets).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    2
                }),
            ),
            None => {
                eprintln!(
                    "usage: cpo-experiments batch <specs.jsonl> [--check] [--threads N] \
                     [--datasets N]"
                );
                std::process::exit(2);
            }
        },
        "replay" => match file {
            Some(f) => cmd_replay(&f),
            None => {
                eprintln!("usage: cpo-experiments replay <bundle.json>");
                std::process::exit(2);
            }
        },
        "fuzz" => {
            let seconds = u64_flag("--seconds", 10);
            let seed = u64_flag("--seed", 0xC0FFEE);
            cmd_fuzz(seconds, seed, threads);
        }
        "serve" => {
            let str_flag = |flag: &str| -> Option<String> {
                args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
            };
            let f64_flag = |flag: &str, default: f64| -> f64 {
                match args.iter().position(|a| a == flag) {
                    Some(i) => match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                        Some(x) if x >= 0.0 => x,
                        _ => {
                            eprintln!("{flag} needs a non-negative number");
                            std::process::exit(2);
                        }
                    },
                    None => default,
                }
            };
            let defaults = serve_cli::ServeCliOptions::default();
            let opts = serve_cli::ServeCliOptions {
                once: args.iter().any(|a| a == "--once"),
                socket: str_flag("--socket"),
                threads,
                queue: u64_flag("--queue", defaults.queue as u64).max(1) as usize,
                rate: f64_flag("--rate", defaults.rate),
                burst: f64_flag("--burst", defaults.burst),
                strikes: u64_flag("--strikes", u64::from(defaults.strikes)).max(1) as u32,
                check,
                datasets,
                stats_secs: u64_flag("--stats-secs", defaults.stats_secs),
                downgrade: args.iter().any(|a| a == "--downgrade"),
                cost_per_ms: u64_flag("--cost-per-ms", defaults.cost_per_ms).max(1),
            };
            std::process::exit(serve_cli::cmd_serve(opts));
        }
        "spec-example" => spec_example(args.get(1).map(String::as_str)),
        "all" => {
            fig1();
            table1();
            table2();
            gadgets();
            scaling();
            pareto();
            extensions();
            robustness();
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!(
                "usage: cpo-experiments [fig1|table1|table2|gadgets|scaling|pareto|extensions|\
                 robustness|dump|all]"
            );
            eprintln!(
                "       cpo-experiments solve <spec.json> [--check] [--threads N] [--datasets N]"
            );
            eprintln!(
                "       cpo-experiments batch <specs.jsonl> [--check] [--threads N] [--datasets N]"
            );
            eprintln!("       cpo-experiments replay <bundle.json>");
            eprintln!("       cpo-experiments fuzz [--seconds N] [--seed S] [--threads N]");
            eprintln!(
                "       cpo-experiments serve [--once] [--socket PATH] [--threads N] \
                 [--queue N] [--rate R] [--burst B] [--strikes K] [--check] [--datasets N] \
                 [--stats-secs S] [--downgrade] [--cost-per-ms U]"
            );
            eprintln!("       cpo-experiments spec-example [batch|large|benes]");
            std::process::exit(2);
        }
    }
}
