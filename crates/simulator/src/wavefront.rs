//! Flat SoA wavefront recurrence — the simulator hot path.
//!
//! # Why a wavefront
//!
//! For interval (and one-to-one) mappings the paper's scheduling semantics
//! (Section 3.3: transfer-then-compute, serial links, serial processors,
//! plus the extra no-overlap edge) form a **regular grid**: the dependency
//! DAG of `(data set d, operation j)` pairs has the same local stencil at
//! every grid point, and mappings keep every processor exclusive to one
//! interval ([`Mapping::validate`] rejects sharing), so applications are
//! mutually independent. The generic event engine
//! ([`crate::engine::Engine`]) materializes that grid as one heap event
//! per operation — `O(datasets × stages)` allocations, dependents lists
//! and `BinaryHeap` traffic. This module replaces it with a rolling
//! recurrence over a handful of flat `Vec<f64>` rows:
//!
//! ```text
//! T[d][j] = max( C[d][j-1]            (producer finished, j > 0)
//!              , T[d-1][j]            (link is serial,     d > 0)
//!              , T[d-1][j+1]          (no-overlap only,    d > 0, j < m)
//!              , C[d-cap][j] )        (bounded buffers,    d ≥ cap, j < m)
//!            + transfer[j]
//! C[d][j] = max(T[d][j], C[d-1][j]) + compute[j]
//! ```
//!
//! Only the previous row is live, so the run is `O(datasets × stages)`
//! time and `O(stages)` state (plus the completions vector the report
//! exposes, and a `capacity × stages` ring when buffers are bounded).
//!
//! **Bitwise identity with the DAG engine.** The event engine computes
//! every operation's end as `max(dependency ends, 0) + duration`:
//! `f64::max` merely *selects* one operand, so the fold order the calendar
//! queue happens to use is irrelevant, and the single rounding per
//! operation is the `+ duration`. The recurrence above performs exactly
//! the same selections and the same single addition per grid point, so
//! completions, busy times, makespan and the derived period/latency are
//! equal **bit for bit** — proved over random instances by
//! `tests/wavefront_equivalence.rs`.
//!
//! # Steady-state fast-forward
//!
//! With a saturated source the schedule is a max-plus linear system, so
//! completions eventually advance by one constant Δ per data set. When
//! the module can *certify* that the remaining floating-point run is
//! exact (see below), it stops iterating and emits the remaining
//! completions in closed form — `completions[d] = base + (d − d₀)·Δ` —
//! making million-data-set runs cost `O(warm-up × stages)`.
//!
//! The certificate has two parts, both checked, so fast-forward is **only
//! taken when it is bitwise exact**:
//!
//! 1. **Per-component rates with argmax dominance.** Let
//!    `δ[j] = row_d[j] − row_{d−1}[j]` be the observed per-component
//!    increments (components need not share one rate: a zero-size input
//!    edge sits at rate 0 forever while the bottleneck advances at the
//!    period). Predicting `row_{d+k} = row_d + k·δ` is sound iff every
//!    `max` in the stencil keeps its winner: each cell's inputs are
//!    `(value when row d was computed, that component's rate)` pairs —
//!    including the literal `0.0` seeding every transfer's max — and the
//!    certificate requires, per cell, that some input attaining the
//!    maximum *value* also attains the maximum *rate*, and that the
//!    cell's own observed increment equals that winning rate. Then
//!    `u_w + k·r_w ≥ u_i + k·r_i` for every input and every `k ≥ 0`:
//!    winners stay winners, and by induction over cells (ascending `j`)
//!    and rows the whole orbit is affine in `k`.
//! 2. **Exactness (lattice + horizon).** The dominance argument is a
//!    *real-arithmetic* statement; floating point must be shown to agree
//!    with it. The certificate therefore requires every value the
//!    remaining run touches to live on a lattice `2^e·ℤ` (with `e` the
//!    minimum lowest-set-bit exponent over the durations, both live
//!    rows, the per-node busy accumulators and every rate) and the
//!    largest reachable value — `max_j(row[j] + remaining·δ[j])`, also
//!    covering every busy total — to stay at or below `2^(52+e)`. Then
//!    every `+` the remaining recurrence would execute, every
//!    closed-form product `k·δ` (an integer times a lattice point with
//!    an exactly representable result) and every busy-time extension is
//!    exact: floating-point *is* real arithmetic from here on, and the
//!    closed form reproduces the recurrence bit for bit.
//!
//! **Once-per-application pre-check.** Two facts about the certificate
//! hold on every row, so whether it can *ever* pass is known before the
//! first row runs:
//!
//! - its lattice exponent `e` never exceeds `e_dur`, the lowest-set-bit
//!   exponent over the non-zero `transfer` and `compute` durations (they
//!   are part of the scan);
//! - its horizon bound covers every busy total `node_busy[j] + r·compute[j]`,
//!   which is `D·compute[j]` up to rounding for a run of `D` data sets
//!   (the `d + 1` accumulated terms plus the `r` remaining ones).
//!
//! With `D < 2^50` the accumulated rounding is far below a factor 2, so
//! when `D·max_j compute[j] > 2^(53+e_dur)` the bound exceeds
//! `2^(52+e_dur) ≥ 2^(52+e)` on every row and no attempt can return a
//! certificate. Such runs skip all certificate work and keep the plain
//! `O(datasets × stages)` rolling recurrence, which is still heap-free
//! and allocation-free; the skip only drops attempts that would return
//! `None`, so the output is bitwise the same. Durations with full 52-bit
//! mantissas (arbitrary `work / speed` ratios, e.g. odd-integer speeds)
//! usually land here after a handful of data sets: `e_dur` then sits
//! about 52 binades below the largest duration. Dyadic instances (integer or
//! power-of-two-scaled durations, e.g. every instance of the paper's
//! Section 2 family) pass the pre-check and fast-forward after a few
//! rows; their attempts reuse `e_dur` and rescan only the live rows, the
//! busy accumulators and the rates.
//! `AppTimes::certificate_attempts` counts the attempts per application.
//!
//! Bounded-buffer runs never fast-forward: their state includes a
//! `capacity`-deep history, and certifying a uniform shift across it
//! would cost what it saves.

use crate::pipeline::{assemble_report, chain_durations, measured_period, AppTimes, SimReport};
use cpo_model::mapping::Assignment;
use cpo_model::prelude::*;

/// Certificate that an application's wavefront entered an exactly
/// periodic regime (see the module docs for the soundness argument).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Data-set index of the last explicitly simulated row; every later
    /// completion was emitted in closed form.
    pub detected_at: usize,
    /// Exact per-data-set completion increment from `detected_at` on.
    pub delta: f64,
}

/// Simulate through the wavefront recurrence. Semantics and panics match
/// [`crate::pipeline::simulate_with_buffers`]; `fast_forward` enables the
/// certified steady-state extension (the result is bitwise identical
/// either way — disabling it only forces the full `O(datasets × stages)`
/// run, which the equivalence suite uses as a cross-check).
pub fn simulate_wavefront(
    apps: &AppSet,
    platform: &Platform,
    mapping: &Mapping,
    model: CommModel,
    datasets: usize,
    capacity: usize,
    fast_forward: bool,
) -> SimReport {
    assert!(datasets > 0, "simulate at least one data set");
    assert!(capacity >= 1, "buffers need capacity at least 1");
    mapping.validate(apps, platform).expect("valid mapping");

    let mut busy = vec![0.0f64; platform.p()];
    let mut app_times = Vec::with_capacity(apps.a());
    let mut makespan = 0.0f64;
    for (a, app) in apps.apps.iter().enumerate() {
        let chain = mapping.app_chain(a);
        let (transfer, compute) = chain_durations(app, a, platform, &chain);
        // Mirror the event engine's guards (`add_op` + `run`): stage
        // fields are `pub`, so NaN-contaminated data can reach a
        // validated mapping — fail loudly rather than emit a NaN report.
        for &d in transfer.iter().chain(compute.iter()) {
            assert!(d >= 0.0 || d.is_nan(), "operation durations must be non-negative");
            assert!(
                d.is_finite(),
                "non-finite data contaminated simulator operation durations \
                 (app {a}: NaN/infinite stage work, data size, speed or bandwidth)"
            );
        }
        let at = run_app(&transfer, &compute, model, datasets, capacity, fast_forward, &chain, &mut busy);
        makespan = makespan.max(*at.completions.last().expect("at least one data set"));
        app_times.push(at);
    }
    assemble_report(apps, platform, mapping, app_times, busy, makespan)
}

/// One application's rolling recurrence (applications are independent:
/// valid mappings never share a processor).
#[allow(clippy::too_many_arguments)]
fn run_app(
    transfer: &[f64],
    compute: &[f64],
    model: CommModel,
    datasets: usize,
    capacity: usize,
    fast_forward: bool,
    chain: &[Assignment],
    busy: &mut [f64],
) -> AppTimes {
    let m = compute.len();
    let no_overlap = model == CommModel::NoOverlap;
    // `capacity ≥ datasets` can never delay anything: data set `d` only
    // waits for `d − capacity ≥ 0`.
    let bounded = capacity != usize::MAX && capacity < datasets;
    let mut t_prev = vec![0.0f64; m + 1];
    let mut t_cur = vec![0.0f64; m + 1];
    let mut c_prev = vec![0.0f64; m];
    let mut c_cur = vec![0.0f64; m];
    let mut ring: Vec<f64> = if bounded { vec![0.0; capacity * m] } else { Vec::new() };
    // Per-node busy accumulators: repeated addition of the same constant,
    // mirroring the DAG engine's per-completion `+=` bit for bit.
    let mut node_busy = vec![0.0f64; m];
    let mut completions: Vec<f64> = Vec::with_capacity(datasets);
    let mut steady = None;
    let mut certificate_attempts = 0;
    // Decided once: a run whose duration lattice cannot hold its horizon
    // never certifies, so it skips every attempt (see the module docs).
    let e_dur = duration_lattice(transfer, compute);
    let fast_forward = fast_forward && !bounded && may_certify(e_dur, compute, datasets);
    // Cheap per-row gate: only run the full certificate once the
    // completion increment repeats (NaN never equals itself, so the first
    // row always skips).
    let mut last_dm = f64::NAN;

    for d in 0..datasets {
        for j in 0..=m {
            let mut ready = 0.0f64;
            if j > 0 {
                ready = ready.max(c_cur[j - 1]);
            }
            if d > 0 {
                ready = ready.max(t_prev[j]);
                if no_overlap && j < m {
                    ready = ready.max(t_prev[j + 1]);
                }
            }
            if bounded && j < m && d >= capacity {
                ready = ready.max(ring[(d - capacity) % capacity * m + j]);
            }
            t_cur[j] = ready + transfer[j];
            if j < m {
                c_cur[j] = t_cur[j].max(c_prev[j]) + compute[j];
                node_busy[j] += compute[j];
            }
        }
        if bounded {
            let row = (d % capacity) * m;
            ring[row..row + m].copy_from_slice(&c_cur);
        }
        completions.push(t_cur[m]);

        if fast_forward && d > 0 {
            let remaining = datasets - 1 - d;
            let dm = t_cur[m] - t_prev[m];
            if remaining > 0 && dm == last_dm {
                certificate_attempts += 1;
                if let Some(delta) = certified_rates(
                    &t_prev, &t_cur, &c_prev, &c_cur, compute, &node_busy, e_dur, no_overlap,
                    remaining,
                ) {
                    let base = t_cur[m];
                    for k in 1..=remaining {
                        completions.push(base + k as f64 * delta);
                    }
                    for (nb, &c) in node_busy.iter_mut().zip(compute) {
                        *nb += remaining as f64 * c;
                    }
                    steady = Some(SteadyState { detected_at: d, delta });
                    break;
                }
            }
            last_dm = dm;
        }
        std::mem::swap(&mut t_prev, &mut t_cur);
        std::mem::swap(&mut c_prev, &mut c_cur);
    }

    for (nb, asg) in node_busy.iter().zip(chain) {
        busy[asg.proc] += nb;
    }
    let first_latency = completions[0];
    let period = measured_period(&completions);
    AppTimes {
        completions,
        first_latency,
        measured_period: period,
        steady_state: steady,
        certificate_attempts,
    }
}

/// Lowest-set-bit exponent over the non-zero durations — the coarsest
/// lattice any certificate of this application can use (`i32::MAX` when
/// every duration is zero).
fn duration_lattice(transfer: &[f64], compute: &[f64]) -> i32 {
    transfer
        .iter()
        .chain(compute)
        .filter(|&&v| v != 0.0)
        .map(|&v| lsb_exponent(v))
        .min()
        .unwrap_or(i32::MAX)
}

/// The once-per-application pre-check: `false` only when no row of a
/// `datasets` run can pass [`certified_rates`], because the busy totals
/// alone (`≈ datasets · compute[j]`) outgrow the horizon `2^(52+e_dur)`
/// by more than the factor-2 rounding margin (see the module docs).
fn may_certify(e_dur: i32, compute: &[f64], datasets: usize) -> bool {
    let cmax = compute.iter().fold(0.0f64, |acc, &c| acc.max(c));
    // Below 2^50 data sets the busy accumulators' rounding stays far
    // under the margin; beyond that, keep attempting.
    if cmax == 0.0 || datasets as u64 >= 1 << 50 {
        return true;
    }
    datasets as f64 * cmax <= pow2(53 + e_dur)
}

/// `2^k`, saturating to `+∞` above the largest and to `0` below the
/// smallest finite power of two.
fn pow2(k: i32) -> f64 {
    if k >= 1024 {
        f64::INFINITY
    } else if k < -1074 {
        0.0
    } else {
        2.0f64.powi(k)
    }
}

/// The fast-forward certificate: returns the completion increment Δ when
/// the last two rows exhibit per-component rates whose argmax structure
/// is stable **and** the remaining run is provably exact in floating
/// point (lattice + horizon conditions — see the module docs). `None`
/// simply means "keep iterating". `e_dur` is the durations' lattice
/// exponent ([`duration_lattice`]), computed once per application.
#[allow(clippy::too_many_arguments)]
fn certified_rates(
    t_prev: &[f64],
    t_cur: &[f64],
    c_prev: &[f64],
    c_cur: &[f64],
    compute: &[f64],
    node_busy: &[f64],
    e_dur: i32,
    no_overlap: bool,
    remaining: usize,
) -> Option<f64> {
    let m = compute.len();
    let dt = |j: usize| t_cur[j] - t_prev[j];
    let dc = |j: usize| c_cur[j] - c_prev[j];

    // Argmax dominance, cell by cell: some input attaining the maximum
    // value must also attain the maximum rate, and the cell's observed
    // increment must equal that rate. Winners then stay winners for every
    // k ≥ 0 and the orbit is affine. The subtractions and comparisons
    // here are certified exact by the lattice check below, so a pass is a
    // genuine real-arithmetic statement.
    for j in 0..=m {
        let d_cell = dt(j);
        if !d_cell.is_finite() || d_cell < 0.0 {
            return None;
        }
        // Inputs of transfer cell j: the literal 0.0 seeding the max, the
        // producer compute of the same row, the serial-link predecessor,
        // and (no-overlap) the receiver's previous send.
        let mut vmax = 0.0f64; // max input value
        let mut vr = 0.0f64; // max rate among max-value inputs
        let mut rmax = 0.0f64; // max rate over all inputs
        let mut feed = |v: f64, r: f64| {
            if v > vmax {
                vmax = v;
                vr = r;
            } else if v == vmax && r > vr {
                vr = r;
            }
            if r > rmax {
                rmax = r;
            }
        };
        if j > 0 {
            feed(c_cur[j - 1], dc(j - 1));
        }
        feed(t_prev[j], dt(j));
        if no_overlap && j < m {
            feed(t_prev[j + 1], dt(j + 1));
        }
        if vr != rmax || d_cell != rmax {
            return None;
        }
        if j < m {
            // Compute cell j: max(transfer end of this row, serial
            // predecessor on the processor).
            let d_cell = dc(j);
            if !d_cell.is_finite() || d_cell < 0.0 {
                return None;
            }
            let (ta, ra) = (t_cur[j], dt(j));
            let (cb, rb) = (c_prev[j], dc(j));
            let (vr, rmax) = if ta > cb {
                (ra, ra.max(rb))
            } else if cb > ta {
                (rb, ra.max(rb))
            } else {
                (ra.max(rb), ra.max(rb))
            };
            if vr != rmax || d_cell != rmax {
                return None;
            }
        }
    }

    // Lattice exponent: every value the remaining run touches must be an
    // integer multiple of 2^e. The durations' share is `e_dur`.
    let mut e = e_dur;
    let mut lattice = |v: f64| -> bool {
        if v == 0.0 {
            return true;
        }
        if !v.is_finite() {
            return false;
        }
        e = e.min(lsb_exponent(v));
        true
    };
    for row in [t_prev, t_cur, c_prev, c_cur, node_busy] {
        for &v in row {
            if !lattice(v) {
                return None;
            }
        }
    }
    for j in 0..=m {
        if !lattice(dt(j)) {
            return None;
        }
        if j < m && !lattice(dc(j)) {
            return None;
        }
    }
    let delta = dt(m);
    if e == i32::MAX {
        // Every duration and every time is exactly zero: trivially exact.
        return Some(delta);
    }

    // Horizon: the largest value any later row, closed-form product or
    // busy total can reach. Requiring it ≤ 2^(52+e) leaves a factor-2
    // margin over the 2^(53+e) exactness limit, which swallows the
    // rounding of this very bound computation.
    let r = remaining as f64;
    let mut bound = 0.0f64;
    for (j, &t) in t_cur.iter().enumerate() {
        bound = bound.max(t + r * dt(j));
    }
    for j in 0..m {
        bound = bound.max(c_cur[j] + r * dc(j));
        bound = bound.max(node_busy[j] + r * compute[j]);
    }
    if !bound.is_finite() || bound > pow2(52 + e) {
        return None;
    }
    Some(delta)
}

/// Exponent of the lowest set bit of a finite, non-zero f64: the largest
/// `e` with `v ∈ 2^e·ℤ`.
fn lsb_exponent(v: f64) -> i32 {
    let bits = v.to_bits();
    let exp_field = ((bits >> 52) & 0x7ff) as i32;
    let mant = bits & ((1u64 << 52) - 1);
    if exp_field == 0 {
        // Subnormal: v = mant × 2^-1074 (mant ≠ 0 since v ≠ 0).
        -1074 + mant.trailing_zeros() as i32
    } else {
        let full = mant | (1 << 52);
        exp_field - 1075 + full.trailing_zeros() as i32
    }
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
    fn lsb_exponent_identifies_the_lattice() {
        assert_eq!(lsb_exponent(1.0), 0);
        assert_eq!(lsb_exponent(2.0), 1);
        assert_eq!(lsb_exponent(0.5), -1);
        assert_eq!(lsb_exponent(3.0), 0);
        assert_eq!(lsb_exponent(6.0), 1);
        assert_eq!(lsb_exponent(0.75), -2);
        assert_eq!(lsb_exponent(f64::MIN_POSITIVE), -1022);
        // 0.1 is not dyadic: its mantissa uses nearly every bit
        // (0x3FB999999999999A ends in ...1010 ⇒ one trailing zero).
        assert_eq!(lsb_exponent(0.1), -55);
    }

    #[test]
    fn section2_fast_forwards_exactly() {
        // Dyadic durations: the Section 2 example enters the certified
        // steady state almost immediately.
        let (apps, pf) = section2_example();
        let m = period_mapping();
        let full = simulate_wavefront(&apps, &pf, &m, CommModel::Overlap, 4096, usize::MAX, false);
        let fast = simulate_wavefront(&apps, &pf, &m, CommModel::Overlap, 4096, usize::MAX, true);
        for (f, s) in full.apps.iter().zip(&fast.apps) {
            assert_eq!(f.completions.len(), s.completions.len());
            for (x, y) in f.completions.iter().zip(&s.completions) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(full.period.to_bits(), fast.period.to_bits());
        assert_eq!(full.makespan.to_bits(), fast.makespan.to_bits());
        for (b, c) in full.busy.iter().zip(&fast.busy) {
            assert_eq!(b.to_bits(), c.to_bits());
        }
        for (f, s) in full.apps.iter().zip(&fast.apps) {
            // Pinned exactly: the pre-check must not delay detection.
            assert_eq!(s.steady_state, Some(SteadyState { detected_at: 2, delta: 1.0 }));
            assert_eq!(s.certificate_attempts, 1);
            assert!(f.steady_state.is_none(), "full run never fast-forwards");
            assert_eq!(f.certificate_attempts, 0);
        }
    }

    #[test]
    fn million_datasets_complete_quickly_on_dyadic_instances() {
        let (apps, pf) = section2_example();
        let m = period_mapping();
        let rep = simulate_wavefront(&apps, &pf, &m, CommModel::Overlap, 1_000_000, usize::MAX, true);
        assert_eq!(rep.apps[0].completions.len(), 1_000_000);
        for a in &rep.apps {
            assert_eq!(a.steady_state, Some(SteadyState { detected_at: 2, delta: 1.0 }));
            assert_eq!(a.certificate_attempts, 1);
        }
        // Period 1 mapping: the millionth completion sits near t = 1e6.
        assert!((rep.makespan - 1e6).abs() / 1e6 < 1e-2, "makespan {}", rep.makespan);
        assert!((rep.period - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-finite data contaminated")]
    fn nan_contaminated_durations_fail_loudly() {
        // Application fields are `pub`: contaminated data can reach a
        // mapping that still validates structurally (`input` feeds the
        // input-edge transfer directly). The wavefront must refuse (like
        // the event engine's typed NonFiniteData path), not emit a
        // NaN-filled report.
        let (mut apps, pf) = section2_example();
        apps.apps[0].input = f64::NAN;
        let m = period_mapping();
        let _ = simulate_wavefront(&apps, &pf, &m, CommModel::Overlap, 8, usize::MAX, true);
    }

    #[test]
    fn non_dyadic_instances_never_certify_falsely() {
        // work/speed = 1/3: repeating binary fraction, full mantissa. The
        // lattice-horizon certificate must reject fast-forwarding long
        // runs rather than emit an inexact closed form.
        let app = cpo_model::application::Application::from_pairs(0.0, &[(1.0, 0.0)]);
        let apps = AppSet::single(app);
        let pf = Platform::fully_homogeneous(1, vec![3.0], 1.0).unwrap();
        let m = Mapping::new().with(Interval::new(0, 0, 0), 0, 0);
        let full = simulate_wavefront(&apps, &pf, &m, CommModel::Overlap, 100_000, usize::MAX, false);
        let fast = simulate_wavefront(&apps, &pf, &m, CommModel::Overlap, 100_000, usize::MAX, true);
        for (x, y) in full.apps[0].completions.iter().zip(&fast.apps[0].completions) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(full.busy[0].to_bits(), fast.busy[0].to_bits());
        assert_eq!(fast.apps[0].certificate_attempts, 0, "ruled out before the first row");
    }

    /// The unbounded recurrence of [`run_app`], restated so that a test can
    /// see every pair of consecutive rows: `visit(d, t_prev, t_cur, c_prev,
    /// c_cur, node_busy)` runs after each row `d ≥ 1`. Returns the
    /// completions.
    fn for_each_row(
        transfer: &[f64],
        compute: &[f64],
        no_overlap: bool,
        datasets: usize,
        mut visit: impl FnMut(usize, &[f64], &[f64], &[f64], &[f64], &[f64]),
    ) -> Vec<f64> {
        let m = compute.len();
        let (mut t_prev, mut t_cur) = (vec![0.0f64; m + 1], vec![0.0f64; m + 1]);
        let (mut c_prev, mut c_cur) = (vec![0.0f64; m], vec![0.0f64; m]);
        let mut node_busy = vec![0.0f64; m];
        let mut completions = Vec::with_capacity(datasets);
        for d in 0..datasets {
            for j in 0..=m {
                let mut ready = 0.0f64;
                if j > 0 {
                    ready = ready.max(c_cur[j - 1]);
                }
                if d > 0 {
                    ready = ready.max(t_prev[j]);
                    if no_overlap && j < m {
                        ready = ready.max(t_prev[j + 1]);
                    }
                }
                t_cur[j] = ready + transfer[j];
                if j < m {
                    c_cur[j] = t_cur[j].max(c_prev[j]) + compute[j];
                    node_busy[j] += compute[j];
                }
            }
            completions.push(t_cur[m]);
            if d > 0 {
                visit(d, &t_prev, &t_cur, &c_prev, &c_cur, &node_busy);
            }
            std::mem::swap(&mut t_prev, &mut t_cur);
            std::mem::swap(&mut c_prev, &mut c_cur);
        }
        completions
    }

    #[test]
    fn precheck_never_rules_out_a_passing_certificate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Three duration families: dyadic (certify early), full mantissa
        // (ruled out) and a fine 2^-40 lattice whose horizon 2^12 sits
        // inside the data-set range, so runs land on both sides of the
        // pre-check's threshold.
        let mut passed = [0usize; 3];
        let mut ruled_out = [0usize; 3];
        for i in 0..180u64 {
            let mut rng = StdRng::seed_from_u64(i);
            let family = (i % 3) as usize;
            let m = rng.gen_range(1..6usize);
            let mut draw = |zero_ok: bool| -> f64 {
                match family {
                    0 => f64::from(rng.gen_range(u32::from(!zero_ok)..9)) / f64::from(1 << rng.gen_range(0..4)),
                    1 => rng.gen_range(0.1..5.0),
                    _ => rng.gen_range(1u64 << 39..1 << 42) as f64 * 2f64.powi(-40),
                }
            };
            let works: Vec<(f64, f64)> = (0..m).map(|_| (draw(false), draw(true))).collect();
            let apps = AppSet::single(cpo_model::application::Application::from_pairs(
                draw(true),
                &works,
            ));
            // A one-to-one chain at unit speed and bandwidth; the durations
            // come from the simulator's own derivation, and the restated
            // recurrence is checked against the real core bit for bit.
            let pf = Platform::fully_homogeneous(m, vec![1.0], 1.0).unwrap();
            let mapping = (0..m)
                .fold(Mapping::new(), |mp, j| mp.with(Interval::new(0, j, j), j, 0));
            let (transfer, compute) =
                chain_durations(&apps.apps[0], 0, &pf, &mapping.app_chain(0));
            let datasets = match family {
                0 => rng.gen_range(2..4096),
                1 => rng.gen_range(2..1024),
                _ => rng.gen_range(256..8192),
            };
            let e_dur = duration_lattice(&transfer, &compute);
            let possible = may_certify(e_dur, &compute, datasets);
            if !possible {
                ruled_out[family] += 1;
            }
            for model in [CommModel::Overlap, CommModel::NoOverlap] {
                let no_overlap = model == CommModel::NoOverlap;
                let completions =
                    for_each_row(&transfer, &compute, no_overlap, datasets, |d, tp, tc, cp, cc, nb| {
                        let remaining = datasets - 1 - d;
                        if remaining == 0 {
                            return;
                        }
                        let cert =
                            certified_rates(tp, tc, cp, cc, &compute, nb, e_dur, no_overlap, remaining);
                        if cert.is_some() {
                            assert!(
                                possible,
                                "instance {i} row {d}: certificate passed where the pre-check \
                                 ruled it out (e_dur {e_dur}, D {datasets}, compute {compute:?})"
                            );
                            passed[family] += 1;
                        }
                    });
                let rep = simulate_wavefront(&apps, &pf, &mapping, model, datasets, usize::MAX, false);
                let real: Vec<u64> = rep.apps[0].completions.iter().map(|c| c.to_bits()).collect();
                let restated: Vec<u64> = completions.iter().map(|c| c.to_bits()).collect();
                assert_eq!(real, restated, "instance {i}: restated recurrence drifted");
            }
        }
        assert!(passed[0] > 0 && passed[2] > 0, "certificates passed: {passed:?}");
        assert!(ruled_out[1] > 0 && ruled_out[2] > 0, "runs ruled out: {ruled_out:?}");
        assert!(ruled_out[2] < 60, "the 2^-40 lattice must straddle the threshold: {ruled_out:?}");
    }
}
