//! Bitwise equivalence of the wavefront simulator core against the
//! discrete-event DAG engine, and of the steady-state fast-forward
//! against the full rolling run.
//!
//! The wavefront (`cpo_simulator::wavefront`) claims to execute *the same
//! float operations* as the event engine — `max` is pure selection, the
//! single rounding per grid point is the `+ duration` — so every derived
//! quantity must agree **bit for bit**: completions, busy times,
//! makespan, measured period/latency. The fast-forward additionally
//! claims exactness whenever its lattice/horizon certificate fires. Both
//! claims are soaked here over random instances (integral and
//! full-mantissa durations, odd-integer speeds at 1 024 data sets), both
//! communication models, bounded and unbounded buffers, and the
//! degenerate shapes (one stage, one data set, zero-size data). Honors
//! `PROPTEST_CASES` for deeper soaks.

use cpo_model::generator::{
    random_apps, random_comm_homogeneous, random_fully_homogeneous, AppGenConfig,
    PlatformGenConfig,
};
use cpo_model::prelude::*;
use cpo_simulator::{simulate_reference_dag, simulate_wavefront, SimReport};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Random valid interval mapping (same shape as the tier-1 suite's).
fn random_mapping(apps: &AppSet, platform: &Platform, rng: &mut StdRng) -> Option<Mapping> {
    random_chain_mapping(apps, platform, rng, false)
}

/// Random valid interval mapping, or one-to-one when `one_to_one`.
fn random_chain_mapping(
    apps: &AppSet,
    platform: &Platform,
    rng: &mut StdRng,
    one_to_one: bool,
) -> Option<Mapping> {
    let mut procs: Vec<usize> = (0..platform.p()).collect();
    procs.shuffle(rng);
    let mut mapping = Mapping::new();
    let mut next = 0usize;
    for (a, app) in apps.apps.iter().enumerate() {
        let mut first = 0usize;
        while first < app.n() {
            let last = if one_to_one { first } else { rng.gen_range(first..app.n()) };
            if next >= procs.len() {
                return None;
            }
            let u = procs[next];
            next += 1;
            let mode = rng.gen_range(0..platform.procs[u].modes());
            mapping.push(Interval::new(a, first, last), u, mode);
            first = last + 1;
        }
    }
    Some(mapping)
}

/// Every float in the two reports, compared by bit pattern.
fn assert_bitwise(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.apps.len(), b.apps.len(), "{what}: app count");
    for (i, (x, y)) in a.apps.iter().zip(&b.apps).enumerate() {
        assert_eq!(x.completions.len(), y.completions.len(), "{what}: app {i} completions len");
        for (d, (c1, c2)) in x.completions.iter().zip(&y.completions).enumerate() {
            assert_eq!(
                c1.to_bits(),
                c2.to_bits(),
                "{what}: app {i} data set {d}: {c1} vs {c2}"
            );
        }
        assert_eq!(x.first_latency.to_bits(), y.first_latency.to_bits(), "{what}: app {i} latency");
        assert_eq!(
            x.measured_period.to_bits(),
            y.measured_period.to_bits(),
            "{what}: app {i} period"
        );
    }
    for (u, (b1, b2)) in a.busy.iter().zip(&b.busy).enumerate() {
        assert_eq!(b1.to_bits(), b2.to_bits(), "{what}: busy[{u}]: {b1} vs {b2}");
    }
    assert_eq!(a.period.to_bits(), b.period.to_bits(), "{what}: period");
    assert_eq!(a.latency.to_bits(), b.latency.to_bits(), "{what}: latency");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{what}: makespan");
    assert_eq!(a.power.to_bits(), b.power.to_bits(), "{what}: power");
}

/// A `--check`-style instance: 2 apps × 6–11 stages of integral work
/// 1–20 and data 1–5 on 24 identical processors whose 2–3 modes are odd
/// integers, bandwidth 3 or 5, interval or one-to-one mapping. Odd
/// divisors give the durations full mantissas.
fn odd_speed_instance(seed: u64) -> (AppSet, Platform, Mapping) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5);
    let apps = random_apps(
        &AppGenConfig {
            apps: 2,
            stages: (6, 11),
            work: (1.0, 20.0),
            data: (1.0, 5.0),
            integral: true,
        },
        seed,
    );
    let mut pool = vec![3.0, 5.0, 7.0, 9.0, 11.0, 13.0];
    pool.shuffle(&mut rng);
    pool.truncate(rng.gen_range(2..=3));
    pool.sort_by(f64::total_cmp);
    let bandwidth = if rng.gen_range(0..2) == 0 { 3.0 } else { 5.0 };
    let pf = Platform::fully_homogeneous(24, pool, bandwidth).unwrap();
    let mapping = random_chain_mapping(&apps, &pf, &mut rng, seed % 2 == 1)
        .expect("24 processors hold 22 stages");
    (apps, pf, mapping)
}

/// One full comparison: wavefront (fast-forward off and on) vs DAG oracle.
fn check_instance(
    apps: &AppSet,
    pf: &Platform,
    mapping: &Mapping,
    model: CommModel,
    datasets: usize,
    capacity: usize,
) {
    let dag = simulate_reference_dag(apps, pf, mapping, model, datasets, capacity);
    let rolling = simulate_wavefront(apps, pf, mapping, model, datasets, capacity, false);
    assert_bitwise(&rolling, &dag, "rolling vs dag");
    let fast = simulate_wavefront(apps, pf, mapping, model, datasets, capacity, true);
    assert_bitwise(&fast, &dag, "fast-forward vs dag");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wavefront_matches_dag_on_integral_instances(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let apps = random_apps(
            &AppGenConfig { apps: 1 + (seed % 3) as usize, stages: (1, 6), ..Default::default() },
            seed,
        );
        let pf = random_comm_homogeneous(
            &PlatformGenConfig { procs: apps.total_stages() + 2, ..Default::default() },
            seed + 1,
        );
        let Some(mapping) = random_mapping(&apps, &pf, &mut rng) else { continue };
        let datasets = 1 + (seed % 61) as usize;
        for model in [CommModel::Overlap, CommModel::NoOverlap] {
            for capacity in [usize::MAX, 1, 3] {
                check_instance(&apps, &pf, &mapping, model, datasets, capacity);
            }
        }
    }

    #[test]
    fn wavefront_matches_dag_on_full_mantissa_instances(seed in 0u64..1_000_000) {
        // Non-integral works/speeds: durations carry arbitrary mantissas,
        // so the fast-forward certificate must refuse (or fire only where
        // genuinely exact) — either way the bits must match.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let apps = random_apps(
            &AppGenConfig {
                apps: 2,
                stages: (1, 5),
                work: (0.1, 9.7),
                data: (0.0, 3.3),
                integral: false,
            },
            seed,
        );
        let pf = random_fully_homogeneous(
            &PlatformGenConfig {
                procs: apps.total_stages() + 1,
                speed: (0.7, 6.3),
                integral: false,
                ..Default::default()
            },
            seed + 2,
        );
        let Some(mapping) = random_mapping(&apps, &pf, &mut rng) else { continue };
        let datasets = 2 + (seed % 47) as usize;
        for model in [CommModel::Overlap, CommModel::NoOverlap] {
            for capacity in [usize::MAX, 2] {
                check_instance(&apps, &pf, &mapping, model, datasets, capacity);
            }
        }
    }

    #[test]
    fn fast_forward_equals_full_run_wherever_it_detects(seed in 0u64..1_000_000) {
        // Dyadic platforms (power-of-two speeds, unit bandwidth) keep the
        // arithmetic on a coarse lattice: the certificate fires early and
        // the closed-form tail must reproduce the recurrence exactly over
        // long horizons.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1AD);
        let apps = random_apps(
            &AppGenConfig { apps: 2, stages: (1, 4), ..Default::default() },
            seed,
        );
        let speeds: Vec<f64> = vec![1.0, 2.0, 4.0];
        let pf = Platform::fully_homogeneous(apps.total_stages() + 1, speeds, 1.0).unwrap();
        let Some(mapping) = random_mapping(&apps, &pf, &mut rng) else { continue };
        let datasets = 1024 + (seed % 1024) as usize;
        for model in [CommModel::Overlap, CommModel::NoOverlap] {
            let full = simulate_wavefront(&apps, &pf, &mapping, model, datasets, usize::MAX, false);
            let fast = simulate_wavefront(&apps, &pf, &mapping, model, datasets, usize::MAX, true);
            assert_bitwise(&fast, &full, "fast-forward vs full run");
            prop_assert!(
                fast.apps.iter().all(|a| a.steady_state.is_some()),
                "dyadic instances certify within 1k data sets"
            );
            for a in &fast.apps {
                let ss = a.steady_state.unwrap();
                prop_assert!(ss.detected_at < datasets);
                prop_assert!(ss.delta >= 0.0);
            }
        }
    }

    #[test]
    fn wavefront_matches_dag_on_odd_speed_instances(seed in 0u64..1_000_000) {
        let (apps, pf, mapping) = odd_speed_instance(seed);
        for model in [CommModel::Overlap, CommModel::NoOverlap] {
            check_instance(&apps, &pf, &mapping, model, 1024, usize::MAX);
        }
    }
}

#[test]
fn odd_speed_instances_never_attempt_the_certificate() {
    // Exact work-counter gate: the once-per-application pre-check rules
    // the fast-forward certificate out before the first row, so none of
    // these 1 024-data-set runs pays for a single attempt.
    let mut attempts = 0;
    let mut apps_run = 0;
    for seed in 0..32 {
        let (apps, pf, mapping) = odd_speed_instance(seed);
        for model in [CommModel::Overlap, CommModel::NoOverlap] {
            let rep = simulate_wavefront(&apps, &pf, &mapping, model, 1024, usize::MAX, true);
            for a in &rep.apps {
                assert!(a.steady_state.is_none());
                attempts += a.certificate_attempts;
                apps_run += 1;
            }
        }
    }
    assert_eq!(apps_run, 128);
    assert_eq!(attempts, 0);
    // The DAG oracle never attempts a certificate at all.
    let (apps, pf, mapping) = odd_speed_instance(7);
    let dag = simulate_reference_dag(&apps, &pf, &mapping, CommModel::Overlap, 64, usize::MAX);
    assert!(dag.apps.iter().all(|a| a.certificate_attempts == 0));
}

#[test]
fn degenerate_chains_agree() {
    // 1 stage / 1 data set / zero-size data, both models, both cores.
    for (work, data) in [(1.0, 0.0), (3.0, 2.0), (0.0, 0.0)] {
        let app = cpo_model::application::Application::from_pairs(data, &[(work, data)]);
        let apps = AppSet::single(app);
        let pf = Platform::fully_homogeneous(1, vec![1.0, 2.0], 1.0).unwrap();
        let mapping = Mapping::new().with(Interval::new(0, 0, 0), 0, 1);
        for model in [CommModel::Overlap, CommModel::NoOverlap] {
            for datasets in [1usize, 2, 5] {
                check_instance(&apps, &pf, &mapping, model, datasets, usize::MAX);
                check_instance(&apps, &pf, &mapping, model, datasets, 1);
            }
        }
    }
}

#[test]
fn bounded_buffers_agree_across_capacities() {
    // The receive-bound chain whose steady period visibly depends on the
    // buffer capacity — the wavefront's ring must reproduce the DAG's
    // history dependency at every depth.
    let app = cpo_model::application::Application::from_pairs(0.0, &[(1.0, 4.0), (4.0, 0.0)]);
    let apps = AppSet::single(app);
    let pf = Platform::fully_homogeneous(2, vec![1.0], 1.0).unwrap();
    let mapping = Mapping::new()
        .with(Interval::new(0, 0, 0), 0, 0)
        .with(Interval::new(0, 1, 1), 1, 0);
    for model in [CommModel::Overlap, CommModel::NoOverlap] {
        for capacity in [1usize, 2, 3, 5, 8, 64, usize::MAX] {
            check_instance(&apps, &pf, &mapping, model, 96, capacity);
        }
    }
}

#[test]
fn fast_forward_report_is_complete() {
    // The fast-forwarded run still reports every completion, the same
    // measured period, and per-app steady-state metadata.
    let (apps, pf) = cpo_model::generator::section2_example();
    let mapping = Mapping::new()
        .with(Interval::new(0, 0, 2), 2, 1)
        .with(Interval::new(1, 0, 1), 1, 1)
        .with(Interval::new(1, 2, 3), 0, 1);
    let datasets = 100_000;
    let rep = simulate_wavefront(&apps, &pf, &mapping, CommModel::Overlap, datasets, usize::MAX, true);
    for a in &rep.apps {
        assert_eq!(a.completions.len(), datasets);
        let ss = a.steady_state.expect("section 2 is dyadic");
        // The emitted tail really is an arithmetic progression.
        let d0 = ss.detected_at;
        for d in (d0 + 1)..datasets.min(d0 + 50) {
            let expected = a.completions[d0] + (d - d0) as f64 * ss.delta;
            assert_eq!(a.completions[d].to_bits(), expected.to_bits());
        }
    }
    // And it matches the DAG engine on a prefix-sized rerun (the full
    // 100k DAG build would dominate the test suite's runtime).
    let dag = simulate_reference_dag(&apps, &pf, &mapping, CommModel::Overlap, 512, usize::MAX);
    let wf = simulate_wavefront(&apps, &pf, &mapping, CommModel::Overlap, 512, usize::MAX, true);
    assert_bitwise(&wf, &dag, "512-data-set prefix");
}
