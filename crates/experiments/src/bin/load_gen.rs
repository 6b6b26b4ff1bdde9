//! `load_gen` — generate serve traffic and verify reply completeness.
//!
//! ```text
//! load_gen gen --mix duplicate|adversarial|flood|mixed --count N
//!              [--seed S] [--tenants T] [--deadline-ms D]
//!              [--garbage G] [--poison P]
//! load_gen verify --requests reqs.jsonl --responses replies.jsonl
//! ```
//!
//! `gen` writes JSONL `SolveRequest`s to stdout, every one carrying a
//! unique `id` (`lg-<i>`), a round-robin tenant, and — depending on the
//! mix — duplicate-heavy cache fodder, adversarial specs (infeasible
//! bounds, unsupported combinations, saturating exact plans), `G`
//! deliberately unparseable lines, and `P` poison requests (description
//! contains `POISON`, the marker the chaos drill panics on).
//!
//! `verify` replays the request file against a reply file and asserts
//! the serve contract: **every** line was answered exactly once — each
//! request id appears on exactly one reply, unparseable request lines
//! (undecodable ones included) are matched one-for-one by id-less
//! `Rejected{Invalid}` replies, and requests without an id by the other
//! id-less replies.
//! Exit 0 when the contract holds, 1 with a diagnostic when it does not.
//!
//! Deterministic: same flags + seed → bytewise-identical stream.

use cpo_model::generator::section2_example;
use cpo_model::io::serde_json_error;
use cpo_model::prelude::*;
use cpo_model::spec::Strategy;
use cpo_serve::{RejectReason, ServeOutcome, ServeReply};
use std::collections::HashMap;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn instance() -> (AppSet, Platform) {
    let (apps, _) = section2_example();
    (apps, Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap())
}

/// A duplicate-heavy spec: `slot` cycles a small set of distinct digests
/// (cache fodder).
fn duplicate_spec(slot: u64) -> ProblemSpec {
    let tb = 0.25 * (slot % 8 + 1) as f64;
    ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![tb, tb])
}

/// An adversarial spec: infeasible bounds, malformed bound counts,
/// unsupported strategy combinations, and budget-saturating exact plans.
fn adversarial_spec(slot: u64) -> ProblemSpec {
    match slot % 4 {
        // Infeasible: bounds far below any achievable period.
        0 => ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![1e-6, 1e-6]),
        // Malformed: wrong bound count (typed unsupported, never a
        // panic).
        1 => ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::NoOverlap)
            .with_period_bounds(vec![2.0]),
        // Unsupported combination without fallback permissions.
        2 => ProblemSpec::new(Objective::Energy, Strategy::General, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]),
        // Exact general search: cost estimate saturates — deadline bait.
        _ => {
            let mut s = ProblemSpec::new(Objective::Period, Strategy::General, CommModel::Overlap);
            s.hints.exact_fallback = true;
            s
        }
    }
}

struct GenOptions {
    mix: String,
    count: u64,
    seed: u64,
    tenants: u64,
    deadline_ms: Option<u64>,
    garbage: u64,
    poison: u64,
}

fn cmd_gen(opts: &GenOptions) -> i32 {
    let (apps, pf) = instance();
    let mut emitted = 0u64;
    for i in 0..opts.count {
        let r = splitmix64(opts.seed ^ i.wrapping_mul(0x2545f4914f6cdd1d));
        // Interleave garbage and poison deterministically through the
        // stream: the first `garbage` multiples of 17, the first
        // `poison` multiples of 13.
        if opts.garbage > 0 && i % 17 == 3 && i / 17 < opts.garbage {
            println!("{{\"this line is\": deliberately broken,,,");
            emitted += 1;
            continue;
        }
        let poison = opts.poison > 0 && i % 13 == 5 && i / 13 < opts.poison;
        let spec = if poison {
            duplicate_spec(0)
        } else {
            match opts.mix.as_str() {
                "duplicate" => duplicate_spec(r),
                "adversarial" => adversarial_spec(r),
                "flood" => duplicate_spec(0),
                // mixed: 3/4 duplicate-heavy, 1/4 adversarial.
                _ => {
                    if r.is_multiple_of(4) {
                        adversarial_spec(r >> 2)
                    } else {
                        duplicate_spec(r >> 2)
                    }
                }
            }
        };
        let description = if poison {
            format!("load_gen POISON #{i}")
        } else {
            format!("load_gen {} #{i}", opts.mix)
        };
        let tenant = if opts.mix == "flood" {
            "flooder".to_string()
        } else {
            format!("t{}", i % opts.tenants.max(1))
        };
        let mut req = SolveRequest::new(description, apps.clone(), pf.clone(), spec)
            .with_id(format!("lg-{i}"))
            .with_tenant(tenant);
        if let Some(d) = opts.deadline_ms {
            req = req.with_deadline_ms(d);
        }
        match req.to_json_compact() {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("request {i} unserializable: {e}");
                return 2;
            }
        }
        emitted += 1;
    }
    eprintln!("load_gen: emitted {emitted} lines (mix={})", opts.mix);
    0
}

fn cmd_verify(requests_path: &str, responses_path: &str) -> i32 {
    // Lines stay bytes: hostile traffic holds lines that are not UTF-8,
    // and the server answers each of them like any other garbage line.
    let read = |path: &str| -> Vec<Vec<u8>> {
        match std::fs::read(path) {
            Ok(bytes) => bytes
                .split(|&b| b == b'\n')
                .map(|l| l.strip_suffix(b"\r").unwrap_or(l))
                .filter(|l| !std::str::from_utf8(l).is_ok_and(|t| t.trim().is_empty()))
                .map(<[u8]>::to_vec)
                .collect(),
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                std::process::exit(2);
            }
        }
    };
    let requests = read(requests_path);
    let responses = read(responses_path);

    // What was asked: id → count for parseable lines, the id-less
    // requests, and the garbage line count (undecodable lines included).
    let mut want: HashMap<String, u64> = HashMap::new();
    let mut anonymous = 0u64;
    let mut garbage = 0u64;
    for line in &requests {
        let parsed = serde_json_error::from_utf8(line).and_then(SolveRequest::from_json);
        match parsed {
            Ok(req) => match req.id {
                Some(id) => *want.entry(id).or_insert(0) += 1,
                None => anonymous += 1,
            },
            Err(_) => garbage += 1,
        }
    }

    // What was answered.
    let mut got: HashMap<String, u64> = HashMap::new();
    let mut idless = 0u64;
    let mut invalid_idless = 0u64;
    for line in &responses {
        let line = String::from_utf8_lossy(line);
        match ServeReply::from_json(&line) {
            Ok(reply) => match reply.id {
                Some(id) => *got.entry(id).or_insert(0) += 1,
                None => {
                    idless += 1;
                    if matches!(
                        reply.outcome,
                        ServeOutcome::Rejected { reason: RejectReason::Invalid, .. }
                    ) {
                        invalid_idless += 1;
                    }
                }
            },
            Err(e) => {
                eprintln!("verify: unparseable reply line: {e}\n  {line}");
                return 1;
            }
        }
    }

    let mut failures = 0u64;
    for (id, &n) in &want {
        let answered = got.get(id).copied().unwrap_or(0);
        if answered != n {
            eprintln!("verify: id `{id}` submitted {n}× but answered {answered}×");
            failures += 1;
        }
    }
    for id in got.keys() {
        if !want.contains_key(id) {
            eprintln!("verify: reply for never-submitted id `{id}`");
            failures += 1;
        }
    }
    // Every garbage line and only those get an id-less typed Invalid;
    // an id-less request gets some other id-less reply.
    if idless != garbage + anonymous || invalid_idless != garbage {
        eprintln!(
            "verify: {garbage} garbage and {anonymous} id-less request lines but {idless} \
             id-less replies ({invalid_idless} typed Invalid)"
        );
        failures += 1;
    }
    if responses.len() != requests.len() {
        eprintln!(
            "verify: {} request lines vs {} reply lines",
            requests.len(),
            responses.len()
        );
        failures += 1;
    }
    if failures == 0 {
        eprintln!(
            "verify: ok — {} lines, every request answered exactly once \
             ({} garbage lines got typed Invalid replies)",
            requests.len(),
            garbage
        );
        0
    } else {
        eprintln!("verify: FAILED ({failures} contract violations)");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let str_flag = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };
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
        "gen" => {
            let mix = str_flag("--mix").unwrap_or_else(|| "mixed".to_string());
            if !["duplicate", "adversarial", "flood", "mixed"].contains(&mix.as_str()) {
                eprintln!("--mix must be duplicate|adversarial|flood|mixed, got `{mix}`");
                std::process::exit(2);
            }
            let opts = GenOptions {
                mix,
                count: u64_flag("--count", 256),
                seed: u64_flag("--seed", 0x10ad),
                tenants: u64_flag("--tenants", 4),
                deadline_ms: str_flag("--deadline-ms").map(|v| match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--deadline-ms needs a non-negative integer value");
                        std::process::exit(2);
                    }
                }),
                garbage: u64_flag("--garbage", 0),
                poison: u64_flag("--poison", 0),
            };
            std::process::exit(cmd_gen(&opts));
        }
        "verify" => {
            let (Some(requests), Some(responses)) =
                (str_flag("--requests"), str_flag("--responses"))
            else {
                eprintln!("usage: load_gen verify --requests reqs.jsonl --responses replies.jsonl");
                std::process::exit(2);
            };
            std::process::exit(cmd_verify(&requests, &responses));
        }
        _ => {
            eprintln!(
                "usage: load_gen gen --mix duplicate|adversarial|flood|mixed --count N \
                 [--seed S] [--tenants T] [--deadline-ms D] [--garbage G] [--poison P]"
            );
            eprintln!("       load_gen verify --requests reqs.jsonl --responses replies.jsonl");
            std::process::exit(2);
        }
    }
}
