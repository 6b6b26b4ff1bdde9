//! `wirebench` — the wire-to-wire benchmark of the solve service.
//!
//! ```text
//! wirebench --workload mixed|solver|checked --seed N --seconds S --trace 0|1
//!           --bin path/to/cpo-experiments [--work-dir DIR]
//! ```
//!
//! One run generates the workload's corpus from the seed, routes every
//! distinct request in-process for the reference answers, then drives the
//! real binary over pipes: set-up (spawn → first reply, several times),
//! an open loop at the workload's fixed rate, a full-speed replay, and
//! `batch --threads 2` over the same corpus file. Every reply is checked.
//! With `--trace 1` the same corpus is then replayed in-process with
//! spans around each module's public entry point, and the per-layer
//! metrics replace the end-to-end ones in the result line. The last line
//! of stdout is the JSON result; see NOTES.md for the metric definitions.

mod corpus;
mod inproc;
mod json;
mod oracle;
mod stats;
mod trace;
mod wire;

use corpus::{Corpus, Workload};
use oracle::{check_batch, check_serve, Reference, Tally};
use stats::{median, percentile};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("batch_rps", "lines/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, as in `BENCHMARK.json`. The last
/// two are wire figures that cannot carry a bound: `latency_p99_us` moves
/// with how often the shared host stalls a vCPU far more than any bound
/// would allow, and `failed_share` is 0 at a healthy commit.
const PER_LAYER: [(&str, &str); 28] = [
    ("cpo_model.parse_us", "us"),
    ("cpo_model.request_bytes", "count"),
    ("cpo_model.digest_us", "us"),
    ("cpo_model.serialize_us", "us"),
    ("cpo_model.reply_bytes", "count"),
    ("cpo_core.plan_us", "us"),
    ("cpo_core.route_us", "us"),
    ("cpo_engine.solve_us", "us"),
    ("cpo_engine.cache_hit_ratio", "ratio"),
    ("cpo_engine.cache_entries", "count"),
    ("cpo_engine.cache_evictions", "count"),
    ("cpo_engine.batch_t1_rps", "req/s"),
    ("cpo_engine.batch_t2_rps", "req/s"),
    ("cpo_simulator.check_us", "us"),
    ("cpo_serve.inproc_rps", "req/s"),
    ("cpo_serve.submit_us", "us"),
    ("cpo_serve.reply_lag_p50_us", "us"),
    ("cpo_serve.reply_lag_p99_us", "us"),
    ("cpo_serve.queue_wait_us", "us"),
    ("cpo_serve.accepted", "count"),
    ("cpo_serve.rejected_queue_full", "count"),
    ("cpo_experiments.wire_overhead_us", "us"),
    ("cpo_experiments.batch_overhead_us", "us"),
    ("layers.unaccounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("loadgen.send_lag_p99_us", "us"),
    ("latency_p99_us", "us"),
    ("failed_share", "ratio"),
];

/// The wire phases run in this many rounds, one process per phase and
/// round. Rates and percentiles pool every round's samples: on a 2-core
/// host a process's speed depends on where its threads land, so the
/// per-process figures are bimodal, and a pooled figure over many
/// processes moves much less from run to run than a median would.
const ROUNDS: usize = 15;

/// The open loop runs in segments of about this many requests, one
/// process each, dealt round-robin over the rounds; its percentiles pool
/// every segment.
const OPEN_LOOP_SEGMENT: usize = 1000;

/// `range` cut into `count` consecutive pieces.
fn segments(range: Range<usize>, count: usize) -> Vec<Range<usize>> {
    let len = range.len();
    (0..count)
        .map(|k| range.start + len * k / count..range.start + len * (k + 1) / count)
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin: PathBuf,
    work_dir: PathBuf,
}

const USAGE: &str = "usage: wirebench --workload mixed|solver|checked --seed N --seconds S \
                     --trace 0|1 --bin PATH [--work-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag} needs an integer"))
        })
    };
    let workload = value("--workload").ok_or(USAGE)?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: number("--seed", 1)?,
        seconds: number("--seconds", 10)?.max(1),
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        bin: PathBuf::from(value("--bin").ok_or(USAGE)?),
        work_dir: PathBuf::from(value("--work-dir").unwrap_or(".bench_build/wirebench")),
    })
}

/// The result line: every declared metric exactly once, finite.
fn result_json(
    correct: bool,
    tally: &Tally,
    declared: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if values.len() != declared.len() {
        return Err(format!(
            "{} metric values for {} declared metrics",
            values.len(),
            declared.len()
        ));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json::string(name),
            json::string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.sent,
        tally.failed(),
        metrics.join(",")
    ))
}

fn print_properties(corpus: &Corpus, reference: &Reference, seed: u64) {
    let n = corpus.lines.len() as f64;
    println!(
        "corpus: workload={} seed={seed} lines={} mean_bytes={:.1} distinct_digest_share={:.5} \
         garbage_share={:.5} digest={:016x}",
        corpus.workload.name(),
        corpus.lines.len(),
        corpus.mean_line_bytes(),
        corpus.distinct_digest_share(),
        corpus.garbage_lines() as f64 / n,
        corpus::digest(&corpus.lines),
    );
    let mut kinds: std::collections::BTreeMap<&str, usize> = Default::default();
    for t in &corpus.template_of {
        *kinds
            .entry(t.map_or("invalid", |t| reference.kind[t]))
            .or_insert(0) += 1;
    }
    let shares: Vec<String> = kinds
        .iter()
        .map(|(k, c)| format!("{k}={:.4}", *c as f64 / n))
        .collect();
    println!("expected outcomes: {}", shares.join(" "));
}

fn print_tally(phase: &str, t: &Tally) {
    println!(
        "{phase:<9} sent={} correct={} missing={} duplicated={} shed={} wrong={}",
        t.sent, t.correct, t.missing, t.duplicated, t.shed, t.wrong
    );
}

/// Wall time of each phase of the run, for the log.
struct PhaseClock {
    last: Instant,
    laps: Vec<String>,
}

impl PhaseClock {
    fn new() -> PhaseClock {
        PhaseClock {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    fn lap(&mut self, phase: &str) {
        self.laps
            .push(format!("{phase}={:.2}", self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    if !args.bin.is_file() {
        return Err(format!("no binary at {}", args.bin.display()));
    }
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    let wl = args.workload;
    let mut clock = PhaseClock::new();
    let corpus = Corpus::generate(wl, args.seed, args.seconds);
    clock.lap("generate");
    let n = corpus.lines.len();
    let reference = Reference::build(&corpus);
    clock.lap("oracle");
    print_properties(&corpus, &reference, args.seed);
    let target = wire::Target {
        bin: args.bin.clone(),
        flags: wl.check_flags(),
        queue: n + 16,
        bundle_dir: args.work_dir.join("bundles"),
    };
    let mut wrongs = Vec::new();

    // Each round takes one set-up spawn, its share of the open-loop
    // segments, one replay segment and one batch segment, so a slow spell
    // of the host weighs on every metric alike.
    let rate = wl.open_loop_rate();
    let open_count = n.min(wl.open_loop_count(args.seconds));
    let open_segments = segments(0..open_count, (open_count / OPEN_LOOP_SEGMENT).max(1));
    let (mut setups, mut latencies, mut rss_kb, mut send_lag_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut replay_seconds, mut batch_seconds) = (0.0, 0.0);
    let (mut open_tally, mut replay_tally, mut batch_tally) =
        (Tally::default(), Tally::default(), Tally::default());
    for (round, seg) in segments(0..n, ROUNDS).into_iter().enumerate() {
        setups.push(wire::setup_seconds(&target, &corpus.warmup)?);

        for open in open_segments.iter().skip(round).step_by(ROUNDS) {
            let phase = wire::run_serve(
                &target,
                &corpus.warmup,
                &corpus.lines[open.clone()],
                Some(rate),
            )?;
            let check = check_serve(&corpus, &reference, open.clone(), &phase.replies);
            latencies.extend(check.line_of_reply.iter().zip(&phase.arrived).filter_map(
                |(line, at)| {
                    line.map(|i| {
                        at.saturating_duration_since(phase.due[i - open.start])
                            .as_secs_f64()
                            * 1e6
                    })
                },
            ));
            rss_kb.push(phase.vm_hwm_kb as f64);
            send_lag_us.extend(phase.send_lag_us);
            open_tally.add(&check.tally);
            wrongs.extend(check.first_wrong);
        }

        let phase = wire::run_serve(&target, &corpus.warmup, &corpus.lines[seg.clone()], None)?;
        let check = check_serve(&corpus, &reference, seg.clone(), &phase.replies);
        let span = phase
            .last_arrival()
            .saturating_duration_since(phase.first_write)
            .max(Duration::from_nanos(1));
        replay_seconds += span.as_secs_f64();
        replay_tally.add(&check.tally);
        wrongs.extend(check.first_wrong);

        let path = args.work_dir.join(format!("corpus-{}.jsonl", wl.name()));
        std::fs::write(&path, corpus.jsonl(seg.clone()))
            .map_err(|e| format!("write corpus: {e}"))?;
        let batch = wire::run_batch(
            &target,
            &path,
            &args.work_dir.join(format!("batch-out-{}.jsonl", wl.name())),
        );
        let _ = std::fs::remove_file(&path);
        let batch = batch?;
        if batch.status.success() == reference.any_failed(&corpus, seg.clone()) {
            return Err(format!("batch exited with {}", batch.status));
        }
        let (t, wrong) = check_batch(&corpus, &reference, seg.clone(), &batch.lines);
        batch_seconds += batch.seconds;
        batch_tally.add(&t);
        wrongs.extend(wrong);
    }
    if latencies.is_empty() {
        return Err("open loop: no correctly answered request to time".into());
    }
    let setup_s = median(&setups);
    let throughput_rps = replay_tally.correct as f64 / replay_seconds;
    let batch_rps = n as f64 / batch_seconds;
    clock.lap("wire");

    let mut tally = Tally::default();
    for (phase, t) in [
        ("open_loop", &open_tally),
        ("replay", &replay_tally),
        ("batch", &batch_tally),
    ] {
        print_tally(phase, t);
        tally.add(t);
    }
    for wrong in &wrongs {
        eprintln!("wirebench: WRONG REPLY: {wrong}");
    }
    let failed_share = tally.failed() as f64 / tally.sent as f64;
    let correct = tally.wrong == 0 && tally.missing == 0 && tally.duplicated == 0;
    println!(
        "timed: open loop {} requests at {rate} req/s in {} processes, \
         replay and batch {n} lines in {ROUNDS} processes each, {ROUNDS} set-up spawns",
        latencies.len(),
        open_segments.len()
    );
    println!(
        "failed_share={failed_share} ({} of {} lines)",
        tally.failed(),
        tally.sent
    );
    let latency_p50_us = percentile(&latencies, 0.5);
    let latency_p99_us = percentile(&latencies, 0.99);
    println!(
        "wire: throughput_rps={throughput_rps:.1} latency_p50_us={latency_p50_us:.1} \
         latency_p99_us={latency_p99_us:.1} batch_rps={batch_rps:.1} setup_s={setup_s:.5}"
    );

    let line = if args.trace {
        let mut spans = trace::Trace::new();
        let f = inproc::traced_run(&corpus, wl.traced_lines(), &mut spans)?;
        let trace_path = args.work_dir.join(format!("trace-{}.jsonl", wl.name()));
        spans
            .write_jsonl(&trace_path)
            .map_err(|e| format!("write trace: {e}"))?;
        println!(
            "spans: {} written to {}",
            spans.spans.len(),
            trace_path.display()
        );
        clock.lap("traced");
        print!("{}", f.table());
        let engine_batch_us = 1e6 / f.batch_t2_rps;
        let values = [
            ("cpo_model.parse_us", f.stage("cpo_model.parse")),
            ("cpo_model.request_bytes", corpus.mean_line_bytes()),
            ("cpo_model.digest_us", f.stage("cpo_model.digest")),
            ("cpo_model.serialize_us", f.stage("cpo_model.serialize")),
            ("cpo_model.reply_bytes", f.reply_bytes),
            ("cpo_core.plan_us", f.stage("cpo_core.plan")),
            ("cpo_core.route_us", f.route_us),
            ("cpo_engine.solve_us", f.stage("cpo_engine.solve")),
            ("cpo_engine.cache_hit_ratio", f.cache_hit_ratio),
            ("cpo_engine.cache_entries", f.cache_entries as f64),
            ("cpo_engine.cache_evictions", f.cache_evictions as f64),
            ("cpo_engine.batch_t1_rps", f.batch_t1_rps),
            ("cpo_engine.batch_t2_rps", f.batch_t2_rps),
            ("cpo_simulator.check_us", f.stage("cpo_simulator.check")),
            ("cpo_serve.inproc_rps", f.inproc_rps),
            ("cpo_serve.submit_us", f.submit_us),
            ("cpo_serve.reply_lag_p50_us", f.reply_lag_p50_us),
            ("cpo_serve.reply_lag_p99_us", f.reply_lag_p99_us),
            ("cpo_serve.queue_wait_us", f.queue_wait_us),
            ("cpo_serve.accepted", f.accepted as f64),
            (
                "cpo_serve.rejected_queue_full",
                f.rejected_queue_full as f64,
            ),
            (
                "cpo_experiments.wire_overhead_us",
                1e6 / throughput_rps - 1e6 / f.inproc_rps,
            ),
            (
                "cpo_experiments.batch_overhead_us",
                1e6 / batch_rps
                    - (f.stage("cpo_model.parse") + engine_batch_us + f.batch_serialize_us),
            ),
            ("layers.unaccounted_share", f.unaccounted_share()),
            ("trace.overhead_share", f.trace_overhead_share),
            ("loadgen.send_lag_p99_us", percentile(&send_lag_us, 0.99)),
            ("latency_p99_us", latency_p99_us),
            ("failed_share", failed_share),
        ];
        result_json(correct, &tally, &PER_LAYER, &values)?
    } else {
        let values = [
            ("throughput_rps", throughput_rps),
            ("latency_p50_us", latency_p50_us),
            ("batch_rps", batch_rps),
            ("setup_s", setup_s),
            ("peak_rss_mb", median(&rss_kb) / 1024.0),
        ];
        result_json(correct, &tally, &END_TO_END, &values)?
    };
    println!("phase seconds: {}", clock.laps.join(" "));
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        json::names_in(json::field(&text, section).expect("section present"))
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layer);
        let workloads: Vec<String> = corpus::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn result_line_has_every_declared_metric_once() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let t = Tally {
            sent: 3,
            correct: 3,
            ..Tally::default()
        };
        let line = result_json(true, &t, &END_TO_END, &values).expect("complete");
        assert_eq!(json::field(&line, "attempted"), Some("3"));
        assert_eq!(json::field(&line, "failed"), Some("0"));
        let metrics = json::field(&line, "metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = json::field(metrics, name).expect("metric present");
            assert_eq!(json::field(m, "unit"), Some(format!("\"{unit}\"").as_str()));
        }
        assert!(result_json(true, &t, &END_TO_END, &values[1..]).is_err());
        let mut bad = values.clone();
        bad[0].1 = f64::NAN;
        assert!(result_json(true, &t, &END_TO_END, &bad).is_err());
    }
}
