//! End-to-end drills for the `serve` subcommand and the streaming JSONL
//! contract, run against the compiled binaries (`cpo-experiments`,
//! `load_gen`) so transport, signal, and environment wiring are covered —
//! not just the library layer that `crates/serve/tests` already locks.

use cpo_model::prelude::*;
use cpo_model::spec::Strategy;
use cpo_serve::{RejectReason, ServeOutcome, ServeReply};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpo-experiments"))
}

fn load_gen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_load_gen"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpo-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn request_line(tb: f64) -> String {
    let (apps, _) = cpo_model::generator::section2_example();
    let platform = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let problem = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![tb, tb]);
    SolveRequest::new("e2e", apps, platform, problem)
        .with_id(format!("e2e-{tb}"))
        .to_json_compact()
        .unwrap()
}

/// Generate a request file with `load_gen gen`, returning its lines.
fn generate(dir: &Path, args: &[&str]) -> String {
    let out = load_gen().args(["gen"]).args(args).output().expect("run load_gen gen");
    assert!(out.status.success(), "load_gen gen failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf8 request stream");
    std::fs::write(dir.join("reqs.jsonl"), &text).expect("write request file");
    text
}

/// Run `serve --once` over `input`, returning (stdout, stderr).
fn serve_once(input: impl AsRef<[u8]>, envs: &[(&str, &str)], extra: &[&str]) -> (String, String) {
    let mut cmd = bin();
    cmd.args(["serve", "--once", "--stats-secs", "0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn serve");
    // Feed stdin from its own thread while the replies are read: stdin
    // waits on a full queue, so writing everything before reading would
    // stall on a full reply pipe.
    let mut stdin = child.stdin.take().unwrap();
    let input = input.as_ref().to_vec();
    let feeder = std::thread::spawn(move || stdin.write_all(&input));
    let out = child.wait_with_output().expect("serve exits");
    feeder.join().unwrap().expect("feed stdin");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "serve exited nonzero:\n{stderr}");
    (String::from_utf8_lossy(&out.stdout).to_string(), stderr)
}

/// Assert the full reply contract with `load_gen verify`.
fn verify(dir: &Path, replies: &str) {
    std::fs::write(dir.join("replies.jsonl"), replies).expect("write reply file");
    let out = load_gen()
        .args(["verify", "--requests"])
        .arg(dir.join("reqs.jsonl"))
        .arg("--responses")
        .arg(dir.join("replies.jsonl"))
        .output()
        .expect("run load_gen verify");
    assert!(
        out.status.success(),
        "reply contract violated:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---------------------------------------------------------------------------
// satellite: streaming JSONL robustness in `batch`
// ---------------------------------------------------------------------------

#[test]
fn batch_garbage_lines_become_typed_unsupported_outcomes_in_order() {
    let dir = scratch("batch-garbage");
    let lines = [
        request_line(2.0),
        "{not json at all".to_string(),
        request_line(1.5),
        "42".to_string(),
        "{\"description\": \"missing everything\"}".to_string(),
        request_line(1.0),
    ];
    let path = dir.join("batch.jsonl");
    std::fs::write(&path, lines.join("\n")).expect("write batch file");

    let out = bin().arg("batch").arg(&path).output().expect("run batch");
    assert!(out.status.success(), "batch failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let outcomes: Vec<SolveOutcome> = stdout
        .lines()
        .map(|l| SolveOutcome::from_json(l).expect("every batch line is a typed outcome"))
        .collect();
    assert_eq!(outcomes.len(), lines.len(), "one outcome per input line, garbage included");
    for (i, expect_garbage) in [false, true, false, true, true, false].iter().enumerate() {
        match (&outcomes[i], expect_garbage) {
            (SolveOutcome::Solution { .. }, false) => {}
            (SolveOutcome::Unsupported { reason }, true) => {
                assert!(
                    reason.contains("unparseable request"),
                    "line {i}: garbage must carry a parse reason, got `{reason}`"
                );
            }
            (other, _) => panic!("line {i}: unexpected outcome {other:?}"),
        }
    }

    // Both doors word a garbage line the same way: serve's rejection
    // detail is batch's unsupported reason.
    let (replies, _) = serve_once(format!("{}\n", lines[1]), &[], &[]);
    let reply = ServeReply::from_json(replies.trim()).expect("one typed reply");
    match (&reply.outcome, &outcomes[1]) {
        (ServeOutcome::Rejected { detail, .. }, SolveOutcome::Unsupported { reason }) => {
            assert_eq!(detail, reason, "one garbage text for both doors")
        }
        other => panic!("unexpected garbage verdicts {other:?}"),
    }
}

#[test]
fn deeply_nested_lines_get_typed_rejections_on_both_doors() {
    // Regression: a 20 KB line of `[` overflowed serve's reader stack and a
    // 200 KB one batch's main stack (exit 134, no reply at all).
    let unparseable = |text: &str| {
        assert!(text.starts_with("unparseable request:"), "got `{text}`");
        assert!(text.contains("nesting deeper than"), "got `{text}`");
    };
    let input = format!("{}\n{}\n", "[".repeat(20_000), request_line(2.0));
    let (replies, _) = serve_once(&input, &[], &[]);
    let replies: Vec<ServeReply> =
        replies.lines().map(|l| ServeReply::from_json(l).expect("typed reply")).collect();
    assert_eq!(replies.len(), 2, "one reply per line");
    for reply in &replies {
        match (&reply.seq, &reply.outcome) {
            (0, ServeOutcome::Rejected { reason: RejectReason::Invalid, detail }) => {
                unparseable(detail)
            }
            (1, ServeOutcome::Done { result: SolveOutcome::Solution { .. } }) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }

    let dir = scratch("deep-nesting");
    let path = dir.join("batch.jsonl");
    std::fs::write(&path, format!("{}\n{}\n", "[".repeat(200_000), request_line(2.0)))
        .expect("write batch file");
    let (code, stdout) = batch(&path, &[], &[]);
    assert_eq!(code, Some(0));
    let outcomes: Vec<SolveOutcome> =
        stdout.lines().map(|l| SolveOutcome::from_json(l).expect("typed outcome")).collect();
    assert_eq!(outcomes.len(), 2, "one outcome per line");
    match &outcomes[0] {
        SolveOutcome::Unsupported { reason } => unparseable(reason),
        other => panic!("deep line: unexpected outcome {other:?}"),
    }
    assert!(matches!(outcomes[1], SolveOutcome::Solution { .. }), "{:?}", outcomes[1]);
}

/// A valid line, an undecodable one, a valid one: the raw input of the
/// invalid-UTF-8 regression tests on every door.
fn lines_around_invalid_utf8() -> Vec<u8> {
    [request_line(2.0).as_bytes(), b"\xff\xfe bad", request_line(1.5).as_bytes(), b""].join(&b'\n')
}

/// The replies (or batch outcomes, as the reply detail) to
/// [`lines_around_invalid_utf8`]: both requests solved, the middle line a
/// typed parse rejection.
fn assert_only_the_undecodable_line_is_rejected(details: &[Result<(), String>]) {
    assert_eq!(details.len(), 3, "one reply per line: {details:?}");
    assert_eq!(details[0], Ok(()));
    assert_eq!(details[2], Ok(()));
    assert_eq!(details[1], Err("unparseable request: invalid UTF-8 at byte 0".to_string()));
}

fn serve_details(stdout: &str) -> Vec<Result<(), String>> {
    let mut replies: Vec<ServeReply> =
        stdout.lines().map(|l| ServeReply::from_json(l).expect("typed reply")).collect();
    replies.sort_by_key(|r| r.seq);
    replies
        .into_iter()
        .map(|r| match r.outcome {
            ServeOutcome::Done { result: SolveOutcome::Solution { .. } } => Ok(()),
            ServeOutcome::Rejected { reason: RejectReason::Invalid, detail } => Err(detail),
            other => panic!("unexpected reply {other:?}"),
        })
        .collect()
}

#[test]
fn an_undecodable_stdin_line_costs_no_other_line_its_reply() {
    // Regression: the stdin reader stopped at the first invalid-UTF-8
    // line, so every later line went unanswered.
    let (stdout, _) = serve_once(lines_around_invalid_utf8(), &[], &[]);
    assert_only_the_undecodable_line_is_rejected(&serve_details(&stdout));
}

#[test]
fn an_undecodable_socket_line_costs_no_other_line_its_reply() {
    let dir = scratch("socket-utf8");
    let sock = dir.join("serve.sock");
    let child = bin()
        .args(["serve", "--stats-secs", "0", "--socket"])
        .arg(&sock)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut waited = 0u64;
    while !sock.exists() {
        assert!(waited < 10_000, "socket never appeared");
        std::thread::sleep(std::time::Duration::from_millis(20));
        waited += 20;
    }
    let mut stream = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    stream.write_all(&lines_around_invalid_utf8()).expect("send lines");
    // The connection still reads verbs after the undecodable line.
    stream.write_all(b"shutdown\n").expect("send shutdown verb");
    let out = child.wait_with_output().expect("serve exits after shutdown");
    assert!(out.status.success(), "shutdown must exit 0");
    assert_only_the_undecodable_line_is_rejected(&serve_details(&String::from_utf8_lossy(
        &out.stdout,
    )));
}

#[test]
fn an_undecodable_batch_line_costs_no_other_line_its_outcome() {
    // Regression: `batch` refused the whole file ("stream did not contain
    // valid UTF-8").
    let dir = scratch("batch-utf8");
    let path = dir.join("batch.jsonl");
    std::fs::write(&path, lines_around_invalid_utf8()).expect("write batch file");
    let (code, stdout) = batch(&path, &[], &[]);
    assert_eq!(code, Some(0));
    let details: Vec<_> = stdout
        .lines()
        .map(|l| match SolveOutcome::from_json(l).expect("typed outcome") {
            SolveOutcome::Solution { .. } => Ok(()),
            SolveOutcome::Unsupported { reason } => Err(reason),
            other => panic!("unexpected outcome {other:?}"),
        })
        .collect();
    assert_only_the_undecodable_line_is_rejected(&details);
}

#[test]
fn one_renderer_keeps_seq_and_id_for_unrepresentable_verdicts_and_projects_batch_lines() {
    use cpo_experiments::serve_cli::{batch_outcome, render, unrepresentable};
    use cpo_serve::DeadlineStage;
    // `1e999` parses to +inf, which JSON cannot carry back out.
    let result = SolveOutcome::from_json(
        r#"{"Solution":{"mapping":{"Plain":{"assignments":[]}},"objective":1e999}}"#,
    )
    .expect("an infinite objective parses");
    let reply = ServeReply {
        seq: 7,
        id: Some("inf".into()),
        tenant: None,
        downgraded: false,
        elapsed_ms: 0.5,
        outcome: ServeOutcome::Done { result },
    };
    let back = ServeReply::from_json(&render(&reply, true)).expect("a typed serve line");
    assert_eq!((back.seq, back.id.as_deref()), (7, Some("inf")));
    assert_eq!(back.outcome, ServeOutcome::Done { result: unrepresentable("solution") });
    let line = SolveOutcome::from_json(&render(&reply, false)).expect("a typed batch line");
    assert_eq!(line, unrepresentable("solution"));

    let deadline = ServeOutcome::Deadline {
        exceeded_at: DeadlineStage::Plan,
        budget_ms: 5,
        elapsed_ms: 1,
        estimated_ms: 9,
    };
    match batch_outcome(&deadline).into_owned() {
        SolveOutcome::Unsupported { reason } => {
            assert!(reason.starts_with("deadline of 5 ms exceeded at Plan"), "{reason}")
        }
        other => panic!("a deadline projects to unsupported, got {other:?}"),
    }
}

/// Run `batch` over `path` with extra flags, returning (exit code, stdout).
fn batch(path: &Path, envs: &[(&str, &str)], extra: &[&str]) -> (Option<i32>, String) {
    let mut cmd = bin();
    cmd.arg("batch").arg(path).args(extra);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run batch");
    (out.status.code(), String::from_utf8(out.stdout).expect("utf8 batch output"))
}

#[test]
fn batch_output_matches_the_committed_golden_bytes_at_every_thread_count() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let golden = [
        ("batch_mixed.jsonl", "batch_mixed.expected.jsonl", &["--check"][..]),
        ("serve_smoke.jsonl", "serve_smoke.expected.jsonl", &[][..]),
        (
            "checked_odd_speeds.jsonl",
            "checked_odd_speeds.expected.jsonl",
            &["--check", "--datasets", "1024"][..],
        ),
        ("hostile_lines.jsonl", "hostile_lines.expected.jsonl", &[][..]),
    ];
    for (input, expected, flags) in golden {
        let expected = std::fs::read_to_string(specs.join(expected)).expect("golden file");
        for threads in ["1", "2", "4"] {
            let (code, stdout) =
                batch(&specs.join(input), &[], &[flags, &["--threads", threads]].concat());
            assert_eq!(code, Some(0), "{input} at --threads {threads}");
            assert!(stdout == expected, "{input} at --threads {threads}: bytes differ");
        }
    }
}

#[test]
fn batch_under_panic_chaos_answers_every_line_once_in_order_and_exits_1() {
    let dir = scratch("batch-chaos");
    let lines: Vec<String> = (0..40).map(|i| request_line(1.0 + f64::from(i) / 8.0)).collect();
    let path = dir.join("batch.jsonl");
    std::fs::write(&path, lines.join("\n")).expect("write batch file");
    let (code, clean) = batch(&path, &[], &["--threads", "4"]);
    assert_eq!(code, Some(0));
    let bundles = dir.join("bundles");
    let chaos = [
        ("CPO_SERVE_CHAOS", "panic=0.3"),
        ("CPO_SERVE_CHAOS_SEED", "5"),
        ("CPO_BUNDLE_DIR", bundles.to_str().unwrap()),
    ];
    let (code, chaotic) = batch(&path, &chaos, &["--threads", "4"]);
    assert_eq!(code, Some(1), "a failed line makes batch exit 1");
    let clean: Vec<&str> = clean.lines().collect();
    let chaotic: Vec<&str> = chaotic.lines().collect();
    assert_eq!(chaotic.len(), lines.len(), "one line per input line");
    let mut failed = 0;
    for (i, (got, want)) in chaotic.iter().zip(&clean).enumerate() {
        if got == want {
            continue;
        }
        failed += 1;
        match SolveOutcome::from_json(got).expect("typed outcome") {
            SolveOutcome::Unsupported { reason } if reason.starts_with("worker panicked") => {}
            other => panic!("line {i}: expected the clean answer or a panic, got {other:?}"),
        }
    }
    assert!(failed > 0, "panic=0.3 over 40 lines must hit at least once");
    // Seeded chaos decides per seq, so the same lines fail on every run.
    let (_, again) = batch(&path, &chaos, &["--threads", "2"]);
    assert_eq!(again.lines().collect::<Vec<_>>(), chaotic, "seeded chaos is deterministic");
}

// ---------------------------------------------------------------------------
// serve: clean run, chaos drills
// ---------------------------------------------------------------------------

#[test]
fn serve_once_answers_every_line_exactly_once() {
    let dir = scratch("clean");
    let reqs = generate(&dir, &["--mix", "mixed", "--count", "48", "--seed", "3", "--garbage", "2"]);
    let (replies, _) = serve_once(&reqs, &[], &[]);
    verify(&dir, &replies);
}

#[test]
fn a_replayed_file_sheds_nothing_and_answers_alike_at_every_thread_count() {
    // stdin waits on a full queue, so a file replayed as fast as the pipe
    // takes it is answered in full at the default queue capacity.
    let dir = scratch("replay");
    let reqs = generate(&dir, &["--mix", "mixed", "--count", "1200", "--seed", "21"]);
    let mut answers = Vec::new();
    for threads in ["1", "2", "4"] {
        let (replies, _) =
            serve_once(&reqs, &[], &["--threads", threads, "--check", "--datasets", "1024"]);
        verify(&dir, &replies);
        let mut lines: Vec<String> = replies
            .lines()
            .map(|l| {
                let reply = ServeReply::from_json(l).expect("typed reply");
                assert!(
                    !matches!(
                        reply.outcome,
                        ServeOutcome::Rejected { reason: RejectReason::QueueFull, .. }
                    ),
                    "--threads {threads}: a piped line was shed: {l}"
                );
                ServeReply { elapsed_ms: 0.0, ..reply }.to_json_compact().unwrap()
            })
            .collect();
        lines.sort();
        assert_eq!(lines.len(), 1200);
        answers.push((threads, lines));
    }
    for (threads, lines) in &answers[1..] {
        assert!(lines == &answers[0].1, "--threads {threads} answers differ from --threads 1");
    }
}

#[test]
fn a_reply_is_written_before_stdin_closes() {
    use std::io::{BufRead, BufReader};
    // A lone request on an open pipe must not sit in the reply buffer: the
    // writer flushes once nothing is queued behind the reply.
    let mut child = bin()
        .args(["serve", "--once", "--stats-secs", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{}", request_line(2.0)).expect("send request");
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let reply = rx.recv_timeout(std::time::Duration::from_secs(20));
    drop(stdin);
    let status = child.wait().expect("serve exits at EOF");
    let reply = reply.expect("the reply arrives while stdin is still open");
    let reply = ServeReply::from_json(reply.trim()).expect("typed reply");
    assert_eq!(reply.id.as_deref(), Some("e2e-2"));
    assert!(matches!(reply.outcome, ServeOutcome::Done { .. }), "{reply:?}");
    assert!(status.success());
}

#[test]
fn serve_survives_panic_chaos_and_exports_repro_bundles() {
    let dir = scratch("chaos-panic");
    let bundles = dir.join("bundles");
    let reqs = generate(&dir, &["--mix", "duplicate", "--count", "40", "--seed", "11"]);
    let (replies, stderr) = serve_once(
        &reqs,
        &[
            ("CPO_SERVE_CHAOS", "panic=0.3"),
            ("CPO_SERVE_CHAOS_SEED", "5"),
            ("CPO_BUNDLE_DIR", bundles.to_str().unwrap()),
        ],
        &[],
    );
    verify(&dir, &replies);
    let failed = replies
        .lines()
        .filter(|l| {
            matches!(ServeReply::from_json(l).unwrap().outcome, ServeOutcome::Failed { .. })
        })
        .count();
    assert!(failed > 0, "panic=0.3 over 40 requests must hit at least once");
    let exported = std::fs::read_dir(&bundles).map(|d| d.count()).unwrap_or(0);
    assert!(exported > 0, "injected panics must freeze repro bundles\n{stderr}");
}

#[test]
fn serve_quarantines_poison_after_strikes_under_chaos() {
    let dir = scratch("chaos-poison");
    let reqs =
        generate(&dir, &["--mix", "duplicate", "--count", "40", "--seed", "9", "--poison", "3"]);
    let (replies, stderr) = serve_once(
        &reqs,
        &[
            ("CPO_SERVE_CHAOS", "poison=POISON"),
            ("CPO_BUNDLE_DIR", dir.join("bundles").to_str().unwrap()),
        ],
        &["--strikes", "2"],
    );
    verify(&dir, &replies);
    // Poison lines share their digest with innocent duplicates, which the
    // breaker may bounce too once it trips: count the poison ids only.
    let poison_ids: Vec<String> = reqs
        .lines()
        .filter(|l| l.contains("POISON"))
        .map(|l| SolveRequest::from_json(l).unwrap().id.expect("load_gen sets ids"))
        .collect();
    assert_eq!(poison_ids.len(), 3);
    let mut failed = 0usize;
    let mut quarantined = 0usize;
    for line in replies.lines() {
        let reply = ServeReply::from_json(line).unwrap();
        if !reply.id.as_ref().is_some_and(|id| poison_ids.contains(id)) {
            continue;
        }
        match reply.outcome {
            ServeOutcome::Failed { .. } => failed += 1,
            ServeOutcome::Rejected { reason: RejectReason::Quarantined, .. } => quarantined += 1,
            _ => {}
        }
    }
    // Ingress can admit the third poison request before the second strike
    // lands (strict serialized counts are locked in crates/serve/tests);
    // what must hold regardless of racing: every poison line is either a
    // typed failure or a quarantine bounce, and at least the threshold
    // count failed before the breaker could trip.
    assert!(failed >= 2, "strike threshold 2 admits at least two poison failures\n{stderr}");
    assert_eq!(failed + quarantined, 3, "every poison line gets a typed reply\n{stderr}");
}

#[test]
fn serve_freezes_a_poisoned_request_into_one_replayable_bundle() {
    let dir = scratch("poison-bundle");
    let bundles = dir.join("bundles");
    let example = bin().args(["spec-example", "batch"]).output().expect("spec-example");
    let example = String::from_utf8(example.stdout).expect("utf8 example batch");
    // +inf static energy (`1e999`) parses but cannot re-serialize: the
    // bundle must carry the raw line.
    let poison =
        example.lines().nth(4).expect("line 5").replace("\"e_stat\":0", "\"e_stat\":1e999");
    assert!(poison.contains("1e999"), "the poison replacement must hit");
    let (replies, stderr) = serve_once(
        format!("{poison}\n"),
        &[("CPO_BUNDLE_DIR", bundles.to_str().unwrap())],
        &["--check"],
    );
    let reply = ServeReply::from_json(replies.trim()).expect("one typed reply");
    assert!(
        matches!(&reply.outcome, ServeOutcome::Failed { reason } if reason.contains("energy inf")),
        "{reply:?}"
    );
    let files: Vec<PathBuf> =
        std::fs::read_dir(&bundles).expect("bundle dir").map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "exactly one bundle\n{stderr}");
    let out = bin().arg("replay").arg(&files[0]).output().expect("replay runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn serve_keeps_exactly_once_under_stall_chaos() {
    let dir = scratch("chaos-stall");
    let reqs = generate(&dir, &["--mix", "mixed", "--count", "32", "--seed", "17"]);
    let (replies, _) =
        serve_once(&reqs, &[("CPO_SERVE_CHAOS", "stall=0.5:10")], &["--threads", "4"]);
    verify(&dir, &replies);
}

// ---------------------------------------------------------------------------
// serve: socket ingress and control verbs
// ---------------------------------------------------------------------------

#[test]
fn serve_socket_takes_requests_and_control_verbs() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let dir = scratch("socket");
    let sock = dir.join("serve.sock");
    let child = bin()
        .args(["serve", "--stats-secs", "0", "--socket"])
        .arg(&sock)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The socket appears once the listener binds.
    let mut waited = 0u64;
    while !sock.exists() {
        assert!(waited < 10_000, "socket never appeared");
        std::thread::sleep(std::time::Duration::from_millis(20));
        waited += 20;
    }

    let stream = UnixStream::connect(&sock).expect("connect to serve socket");
    let mut writer = stream.try_clone().expect("clone socket stream");
    let mut reader = BufReader::new(stream);

    // Control verb: stats comes back on the same connection.
    writeln!(writer, "stats").expect("send stats verb");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read stats reply");
    assert!(line.contains("\"accepted\":0"), "fresh stats line, got: {line}");

    // A request over the socket is answered on stdout.
    writeln!(writer, "{}", request_line(2.0)).expect("send request");
    // Graceful shutdown over the socket drains and exits 0.
    writeln!(writer, "shutdown").expect("send shutdown verb");

    let out = child.wait_with_output().expect("serve exits after shutdown");
    assert!(out.status.success(), "shutdown must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let replies: Vec<ServeReply> =
        stdout.lines().map(|l| ServeReply::from_json(l).expect("typed reply")).collect();
    assert_eq!(replies.len(), 1, "the socket request is answered exactly once");
    assert!(matches!(replies[0].outcome, ServeOutcome::Done { .. }));
    assert_eq!(replies[0].id.as_deref(), Some("e2e-2"));
    assert!(!sock.exists(), "socket file is removed on exit");
}
