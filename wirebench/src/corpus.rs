//! The seeded corpus generator.
//!
//! Every request line is JSON text written here, field by field — never
//! through the `cpo_model` serializer under test, so a later serializer
//! change cannot change the input. Alongside the text the generator keeps
//! the typed twin of every distinct request (a *template*): the oracle
//! routes the templates, and the tests prove that each line parses back
//! to its template.

use crate::json;
use cpo_model::hash::{hash_instance, hash_spec};
use cpo_model::prelude::*;
use std::collections::HashSet;
use std::ops::Range;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Section 2 instance, duplicate-heavy energy specs plus an
    /// adversarial quarter and a few unparseable lines: the wire path.
    Mixed,
    /// Distinct random 2 × 16–64-stage instances on 8 identical
    /// processors: the router, DPs and sweep.
    Solver,
    /// Distinct point-objective requests on plain mappings, served with
    /// `--check`: the analytic re-evaluation and the simulator.
    Checked,
}

/// Simulated data sets for `--check` on the `checked` workload.
pub const CHECK_DATASETS: usize = 1024;

/// Share of a run spent in the open loop. From 10 s on every workload
/// times more than 1000 requests there, so at least 10 lie beyond p99.
pub const OPEN_LOOP_SHARE: f64 = 0.35;

/// Measured seconds' worth of corpus lines the traced run replays.
const TRACED_SECONDS: f64 = 3.0;

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [Workload::Mixed, Workload::Solver, Workload::Checked];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::Solver => "solver",
            Workload::Checked => "checked",
        }
    }

    /// Open-loop send rate, requests/second: about half of what the
    /// served binary sustains in replay on a 2-core host, so the open
    /// loop builds no backlog.
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Workload::Mixed => 9_000.0,
            Workload::Solver => 290.0,
            Workload::Checked => 870.0,
        }
    }

    /// Corpus lines per measured second: the replay phase then takes
    /// about a quarter of the run, and the open loop (see
    /// [`OPEN_LOOP_SHARE`]) fits inside the corpus.
    fn lines_per_second(self) -> f64 {
        match self {
            Workload::Mixed => 4_400.0,
            Workload::Solver => 160.0,
            Workload::Checked => 350.0,
        }
    }

    /// Corpus lines the traced in-process run replays: a fixed prefix, so
    /// the traced run costs the same whatever `--seconds` is.
    pub fn traced_lines(self) -> usize {
        (self.lines_per_second() * TRACED_SECONDS) as usize
    }

    /// Requests the open loop sends in a run of `seconds`.
    pub fn open_loop_count(self, seconds: u64) -> usize {
        (self.open_loop_rate() * OPEN_LOOP_SHARE * seconds as f64).ceil() as usize
    }

    /// Whether `serve` and `batch` run with `--check`.
    pub fn check(self) -> bool {
        self == Workload::Checked
    }

    /// Extra `serve`/`batch` flags for this workload.
    pub fn check_flags(self) -> Vec<String> {
        if self.check() {
            vec![
                "--check".into(),
                "--datasets".into(),
                CHECK_DATASETS.to_string(),
            ]
        } else {
            Vec::new()
        }
    }
}

/// splitmix64: the corpus's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Round to three decimals: short, exponent-free text that parses back to
/// the same `f64`.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

struct AppDesc {
    name: &'static str,
    input: f64,
    /// `(work, output)` per stage.
    stages: Vec<(f64, f64)>,
}

/// A fully homogeneous platform on dedicated uniform links.
struct PlatformDesc {
    procs: usize,
    speeds: Vec<f64>,
    e_stat: f64,
    bandwidth: f64,
}

struct SpecDesc {
    objective: Objective,
    strategy: Strategy,
    comm: CommModel,
    period: Option<Vec<f64>>,
    exact_fallback: bool,
    sweep_threads: Option<usize>,
}

impl SpecDesc {
    fn new(objective: Objective, strategy: Strategy, comm: CommModel) -> SpecDesc {
        SpecDesc {
            objective,
            strategy,
            comm,
            period: None,
            exact_fallback: false,
            sweep_threads: None,
        }
    }

    fn with_period(mut self, bounds: Vec<f64>) -> SpecDesc {
        self.period = Some(bounds);
        self
    }
}

fn objective_name(o: Objective) -> &'static str {
    match o {
        Objective::Period => "Period",
        Objective::Latency => "Latency",
        Objective::Energy => "Energy",
        Objective::PeriodEnergyFront => "PeriodEnergyFront",
        Objective::PeriodLatencyFront => "PeriodLatencyFront",
    }
}

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::OneToOne => "OneToOne",
        Strategy::Interval => "Interval",
        Strategy::Replicated => "Replicated",
        Strategy::General => "General",
    }
}

fn comm_name(c: CommModel) -> &'static str {
    match c {
        CommModel::Overlap => "Overlap",
        CommModel::NoOverlap => "NoOverlap",
    }
}

fn opt_json<T>(v: &Option<T>, f: impl Fn(&T) -> String) -> String {
    v.as_ref().map_or_else(|| "null".to_string(), f)
}

fn apps_json(apps: &[AppDesc]) -> String {
    let apps: Vec<String> = apps
        .iter()
        .map(|a| {
            let stages: Vec<String> = a
                .stages
                .iter()
                .map(|&(w, d)| format!("{{\"output\":{},\"work\":{}}}", json::num(d), json::num(w)))
                .collect();
            format!(
                "{{\"input\":{},\"name\":{},\"stages\":[{}],\"weight\":1}}",
                json::num(a.input),
                json::string(a.name),
                stages.join(",")
            )
        })
        .collect();
    format!("{{\"apps\":[{}]}}", apps.join(","))
}

fn platform_json(p: &PlatformDesc) -> String {
    let proc = format!(
        "{{\"e_stat\":{},\"speeds\":{}}}",
        json::num(p.e_stat),
        json::num_array(&p.speeds)
    );
    let procs = vec![proc; p.procs];
    format!(
        "{{\"links\":{{\"Uniform\":{}}},\"procs\":[{}],\"topology\":\"Dedicated\"}}",
        json::num(p.bandwidth),
        procs.join(",")
    )
}

fn spec_json(s: &SpecDesc) -> String {
    format!(
        "{{\"comm\":\"{}\",\"constraints\":{{\"energy\":null,\"latency\":null,\"period\":{}}},\
         \"hints\":{{\"exact_fallback\":{},\"heuristic_fallback\":false,\
         \"local_search_iterations\":null,\"seed\":null,\"sweep_threads\":{}}},\
         \"objective\":\"{}\",\"strategy\":\"{}\",\"version\":1}}",
        comm_name(s.comm),
        opt_json(&s.period, |b| json::num_array(b)),
        s.exact_fallback,
        opt_json(&s.sweep_threads, |t| t.to_string()),
        objective_name(s.objective),
        strategy_name(s.strategy),
    )
}

/// The typed twin of a generated request (no envelope: the oracle's
/// answer does not depend on id, tenant or description).
fn typed(apps: &[AppDesc], pf: &PlatformDesc, spec: &SpecDesc) -> SolveRequest {
    let apps = AppSet::new(
        apps.iter()
            .map(|a| {
                let stages = a.stages.iter().map(|&(w, d)| Stage::new(w, d)).collect();
                Application::named(a.name, a.input, stages, 1.0).expect("generated app is valid")
            })
            .collect(),
    )
    .expect("generated app set is valid");
    let proc = Processor::new(pf.speeds.clone())
        .expect("generated speeds are valid")
        .with_static_energy(pf.e_stat);
    let platform = Platform::new(vec![proc; pf.procs], Links::Uniform(pf.bandwidth))
        .expect("generated platform is valid");
    let mut problem = ProblemSpec::new(spec.objective, spec.strategy, spec.comm);
    if let Some(b) = &spec.period {
        problem = problem.with_period_bounds(b.clone());
    }
    problem.hints.exact_fallback = spec.exact_fallback;
    problem.hints.sweep_threads = spec.sweep_threads;
    SolveRequest::new(String::new(), apps, platform, problem)
}

/// A distinct request: its JSON pieces and its typed twin.
struct Template {
    apps: String,
    platform: String,
    problem: String,
    request: SolveRequest,
}

impl Template {
    fn new(apps: &[AppDesc], pf: &PlatformDesc, spec: &SpecDesc) -> Template {
        Template {
            apps: apps_json(apps),
            platform: platform_json(pf),
            problem: spec_json(spec),
            request: typed(apps, pf, spec),
        }
    }

    fn line(&self, description: &str, id: &str, tenant: &str) -> String {
        format!(
            "{{\"apps\":{},\"deadline_ms\":null,\"description\":{},\"id\":{},\"platform\":{},\
             \"problem\":{},\"tenant\":{},\"version\":1}}",
            self.apps,
            json::string(description),
            json::string(id),
            self.platform,
            self.problem,
            json::string(tenant)
        )
    }
}

/// The deliberately unparseable line of the `mixed` workload. It is
/// shallow on purpose: a deeply nested line aborts the served binary
/// (unbounded parser recursion), which would lose every reply.
pub const GARBAGE_LINE: &str = "{\"this line is\": deliberately broken,,,";

/// One unparseable line every this many lines of `mixed`.
const GARBAGE_EVERY: usize = 512;

/// A generated corpus.
pub struct Corpus {
    pub workload: Workload,
    /// One JSONL request per entry (no trailing newline).
    pub lines: Vec<String>,
    /// The template index of each line; `None` for an unparseable line.
    pub template_of: Vec<Option<usize>>,
    /// The typed twin of every distinct request.
    pub templates: Vec<SolveRequest>,
    /// A parseable line with id `warmup`, sent before any timed phase:
    /// the same cheap Section 2 request for every workload and seed, so
    /// set-up time does not depend on the corpus.
    pub warmup: String,
}

/// The id of corpus line `i`.
pub fn line_id(i: usize) -> String {
    format!("wb-{i}")
}

/// The index encoded in a reply's raw id field (`"wb-<i>"`).
pub fn parse_line_id(raw: &str) -> Option<usize> {
    raw.strip_prefix("\"wb-")?.strip_suffix('"')?.parse().ok()
}

fn section2_apps() -> Vec<AppDesc> {
    vec![
        AppDesc {
            name: "App1",
            input: 1.0,
            stages: vec![(3.0, 3.0), (2.0, 2.0), (1.0, 0.0)],
        },
        AppDesc {
            name: "App2",
            input: 0.0,
            stages: vec![(2.0, 1.0), (6.0, 1.0), (4.0, 1.0), (2.0, 1.0)],
        },
    ]
}

fn section2_platform() -> PlatformDesc {
    PlatformDesc {
        procs: 3,
        speeds: vec![1.0, 3.0, 6.0, 8.0],
        e_stat: 0.0,
        bandwidth: 1.0,
    }
}

/// The `mixed` template the warm-up line uses (energy under period
/// bounds 1.0: a solution).
const WARMUP_TEMPLATE: usize = 3;

/// The `mixed` templates: 8 duplicate-heavy energy specs (period bounds
/// 0.25…2.0), then the adversarial four (infeasible, malformed bound
/// count, unsupported strategy, exact general search).
fn mixed_templates() -> Vec<Template> {
    let apps = section2_apps();
    let pf = section2_platform();
    let mut specs: Vec<SpecDesc> = (0..8)
        .map(|slot| {
            let tb = 0.25 * (slot + 1) as f64;
            SpecDesc::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
                .with_period(vec![tb, tb])
        })
        .collect();
    specs.push(
        SpecDesc::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period(vec![1e-6, 1e-6]),
    );
    specs.push(
        SpecDesc::new(Objective::Energy, Strategy::Interval, CommModel::NoOverlap)
            .with_period(vec![2.0]),
    );
    specs.push(
        SpecDesc::new(Objective::Energy, Strategy::General, CommModel::Overlap)
            .with_period(vec![2.0, 2.0]),
    );
    let mut exact = SpecDesc::new(Objective::Period, Strategy::General, CommModel::Overlap);
    exact.exact_fallback = true;
    specs.push(exact);
    specs.iter().map(|s| Template::new(&apps, &pf, s)).collect()
}

/// Distinct sorted speeds drawn from `pool`.
fn speeds(rng: &mut Rng, pool: &[f64], count: usize) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::with_capacity(count);
    while out.len() < count {
        let s = pool[rng.range(0, pool.len() as u64 - 1) as usize];
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out.sort_by(f64::total_cmp);
    out
}

/// Two apps with `stages[a]` stages of random work and data sizes.
fn random_apps(rng: &mut Rng, stages: [usize; 2], work: u64, data: u64) -> Vec<AppDesc> {
    ["A1", "A2"]
        .into_iter()
        .zip(stages)
        .map(|(name, n)| AppDesc {
            name,
            input: rng.range(1, data) as f64,
            stages: (0..n)
                .map(|_| (rng.range(1, work) as f64, rng.range(1, data) as f64))
                .collect(),
        })
        .collect()
}

/// Per-application period bounds a little above a rough lower bound
/// (heaviest stage on the fastest mode plus its transfers, or an even
/// split of the work over `share` processors), so most bounded specs are
/// feasible but still bind.
fn period_bounds(
    rng: &mut Rng,
    apps: &[AppDesc],
    pf: &PlatformDesc,
    comm: CommModel,
    share: f64,
) -> Vec<f64> {
    let smax = pf.speeds.last().copied().expect("at least one speed");
    apps.iter()
        .map(|a| {
            let total: f64 = a.stages.iter().map(|s| s.0).sum();
            let heaviest = a.stages.iter().map(|s| s.0).fold(0.0, f64::max);
            let data = a.stages.iter().map(|s| s.1).fold(a.input, f64::max) / pf.bandwidth;
            let transfers = match comm {
                CommModel::Overlap => data,
                CommModel::NoOverlap => 2.0 * data,
            };
            let floor = (heaviest / smax + transfers).max(total / (share * smax));
            round3(floor * (1.2 + 0.6 * rng.unit()))
        })
        .collect()
}

fn comm(rng: &mut Rng) -> CommModel {
    if rng.next() & 1 == 0 {
        CommModel::Overlap
    } else {
        CommModel::NoOverlap
    }
}

/// The shape of line `i` in a stratified design: `i` cycles through
/// `kinds` request kinds, and within each kind through every stage count
/// in `lo..lo + span` (independently for the two apps) and every mode
/// count in `modes`. Every corpus then holds the same mix of sizes, and
/// the seed only draws the numbers — so per-request cost, and with it the
/// measured rates, does not swing with the seed.
fn shape(
    i: usize,
    kinds: usize,
    lo: usize,
    span: usize,
    modes: (usize, usize),
) -> (usize, [usize; 2], usize) {
    let k = i / kinds;
    // 5 and 19 are coprime with both spans used, so each app's stage
    // count runs through the whole range.
    let stages = [lo + (k * 5) % span, lo + (k * 19 + span / 2) % span];
    let m = modes.0 + (k / span) % (modes.1 - modes.0 + 1);
    (i % kinds, stages, m)
}

/// A `solver` request: 2 apps × 16–64 stages on 8 identical processors
/// with 2–4 modes; energy or latency under period bounds, or one of the
/// two fronts, all on interval mappings.
fn solver_template(rng: &mut Rng, i: usize) -> Template {
    let (kind, stages, modes) = shape(i, 4, 16, 49, (2, 4));
    let apps = random_apps(rng, stages, 8, 3);
    let pool: Vec<f64> = (1..=12).map(f64::from).collect();
    let pf = PlatformDesc {
        procs: 8,
        speeds: speeds(rng, &pool, modes),
        e_stat: rng.range(0, 4) as f64,
        bandwidth: rng.range(2, 4) as f64,
    };
    let comm = comm(rng);
    let spec = match kind {
        0 => SpecDesc::new(Objective::Energy, Strategy::Interval, comm)
            .with_period(period_bounds(rng, &apps, &pf, comm, 4.0)),
        1 => SpecDesc::new(Objective::Latency, Strategy::Interval, comm)
            .with_period(period_bounds(rng, &apps, &pf, comm, 4.0)),
        2 => SpecDesc {
            sweep_threads: Some(1),
            ..SpecDesc::new(Objective::PeriodEnergyFront, Strategy::Interval, comm)
        },
        _ => SpecDesc {
            sweep_threads: Some(1),
            ..SpecDesc::new(Objective::PeriodLatencyFront, Strategy::Interval, comm)
        },
    };
    Template::new(&apps, &pf, &spec)
}

/// A `checked` request: 2 apps × 6–11 stages on 24 identical processors
/// whose 2–3 modes are odd integers (non-dyadic durations keep the
/// simulator's fast-forward certificate from firing, so `--check`
/// simulates every data set); period, latency, or energy under period
/// bounds, on interval or one-to-one mappings.
fn checked_template(rng: &mut Rng, i: usize) -> Template {
    let (kind, stages, modes) = shape(i, 6, 6, 6, (2, 3));
    let apps = random_apps(rng, stages, 20, 5);
    let pool = [3.0, 5.0, 7.0, 9.0, 11.0, 13.0];
    let pf = PlatformDesc {
        procs: 24,
        speeds: speeds(rng, &pool, modes),
        e_stat: rng.range(0, 3) as f64,
        bandwidth: [3.0, 5.0][rng.range(0, 1) as usize],
    };
    let comm = comm(rng);
    let strategy = if kind % 2 == 0 {
        Strategy::Interval
    } else {
        Strategy::OneToOne
    };
    let spec = match kind / 2 {
        0 => SpecDesc::new(Objective::Period, strategy, comm),
        1 => SpecDesc::new(Objective::Latency, strategy, comm),
        _ => SpecDesc::new(Objective::Energy, strategy, comm)
            .with_period(period_bounds(rng, &apps, &pf, comm, 1.0)),
    };
    Template::new(&apps, &pf, &spec)
}

/// 64-bit FNV-1a over the corpus bytes (lines joined by `\n`): two
/// commits that print the same digest ran identical input.
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, line) in lines.iter().enumerate() {
        let sep: &[u8] = if i == 0 { b"" } else { b"\n" };
        for &b in sep.iter().chain(line.as_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Corpus {
    /// The corpus of `workload` for `seed`, sized for a run of `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Corpus {
        let n = (workload.lines_per_second() * seconds.max(1) as f64).ceil() as usize;
        let line_rng =
            |i: usize| Rng::new(seed ^ (i as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut templates = Vec::new();
        let mut template_of = Vec::with_capacity(n);
        let mut lines = Vec::with_capacity(n);
        let description = |i: usize| format!("wb {} #{i}", workload.name());
        let tenant = |i: usize| format!("t{}", i % 4);
        match workload {
            Workload::Mixed => {
                templates = mixed_templates();
                for i in 0..n {
                    if i % GARBAGE_EVERY == GARBAGE_EVERY - 1 {
                        lines.push(GARBAGE_LINE.to_string());
                        template_of.push(None);
                        continue;
                    }
                    let r = line_rng(i).next();
                    // 3/4 duplicate-heavy, 1/4 adversarial.
                    let t = if r % 4 == 0 {
                        8 + ((r >> 2) % 4) as usize
                    } else {
                        ((r >> 2) % 8) as usize
                    };
                    lines.push(templates[t].line(&description(i), &line_id(i), &tenant(i)));
                    template_of.push(Some(t));
                }
            }
            Workload::Solver | Workload::Checked => {
                for i in 0..n {
                    let mut rng = line_rng(i);
                    let t = if workload == Workload::Solver {
                        solver_template(&mut rng, i)
                    } else {
                        checked_template(&mut rng, i)
                    };
                    lines.push(t.line(&description(i), &line_id(i), &tenant(i)));
                    template_of.push(Some(templates.len()));
                    templates.push(t);
                }
            }
        }
        let warmup = mixed_templates()[WARMUP_TEMPLATE].line("wb warmup", "warmup", "t0");
        Corpus {
            workload,
            lines,
            template_of,
            templates: templates.into_iter().map(|t| t.request).collect(),
            warmup,
        }
    }

    /// Lines the served binary must reject as unparseable.
    pub fn garbage_lines(&self) -> usize {
        self.template_of.iter().filter(|t| t.is_none()).count()
    }

    /// Mean bytes per line (without the newline).
    pub fn mean_line_bytes(&self) -> f64 {
        self.lines.iter().map(String::len).sum::<usize>() as f64 / self.lines.len() as f64
    }

    /// Distinct structural digests ÷ parseable lines: one minus the
    /// memo-cache hit ceiling.
    pub fn distinct_digest_share(&self) -> f64 {
        let digests: Vec<(u128, u128)> = self
            .templates
            .iter()
            .map(|r| (hash_instance(&r.apps, &r.platform), hash_spec(&r.problem)))
            .collect();
        let mut seen = HashSet::new();
        let mut parseable = 0usize;
        for t in self.template_of.iter().flatten() {
            parseable += 1;
            seen.insert(digests[*t]);
        }
        seen.len() as f64 / parseable.max(1) as f64
    }

    /// Lines `range` as one JSONL buffer.
    pub fn jsonl(&self, range: Range<usize>) -> String {
        let lines = &self.lines[range];
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in ALL {
            let a = Corpus::generate(w, 7, 1);
            let b = Corpus::generate(w, 7, 1);
            let c = Corpus::generate(w, 8, 1);
            assert_eq!(a.lines, b.lines, "{}", w.name());
            assert_eq!(digest(&a.lines), digest(&b.lines));
            assert_ne!(digest(&a.lines), digest(&c.lines), "{}", w.name());
        }
    }

    #[test]
    fn every_line_parses_back_to_its_template() {
        for w in ALL {
            let c = Corpus::generate(w, 3, 1);
            for (i, line) in c.lines.iter().enumerate() {
                match c.template_of[i] {
                    Some(t) => {
                        let req = SolveRequest::from_json(line).expect("generated line parses");
                        let twin = &c.templates[t];
                        assert_eq!(req.apps, twin.apps, "{} line {i}", w.name());
                        assert_eq!(req.platform, twin.platform, "{} line {i}", w.name());
                        assert_eq!(req.problem, twin.problem, "{} line {i}", w.name());
                        assert_eq!(req.id.as_deref(), Some(line_id(i).as_str()));
                    }
                    None => assert!(SolveRequest::from_json(line).is_err()),
                }
            }
            let warm = SolveRequest::from_json(&c.warmup).expect("warm-up parses");
            assert_eq!(
                warm.problem,
                mixed_templates()[WARMUP_TEMPLATE].request.problem
            );
        }
    }

    #[test]
    fn mixed_is_duplicate_heavy_and_the_others_are_distinct() {
        let m = Corpus::generate(Workload::Mixed, 1, 1);
        assert!(m.distinct_digest_share() < 0.01);
        assert!(m.garbage_lines() > 0);
        for w in [Workload::Solver, Workload::Checked] {
            let c = Corpus::generate(w, 1, 1);
            assert_eq!(c.distinct_digest_share(), 1.0, "{}", w.name());
            assert_eq!(c.garbage_lines(), 0);
        }
    }

    #[test]
    fn ids_round_trip() {
        assert_eq!(parse_line_id("\"wb-42\""), Some(42));
        assert_eq!(parse_line_id("\"warmup\""), None);
        assert_eq!(parse_line_id("null"), None);
    }
}
