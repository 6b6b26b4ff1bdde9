//! The `cpo-experiments serve` and `batch` subcommands: transport, stats
//! printing and trust-subsystem wiring around one [`cpo_serve::Server`]
//! pipeline.
//!
//! `serve` ingress:
//!
//! * **stdin** — one JSONL `SolveRequest` per line; with `--once` the
//!   server drains and exits 0 at EOF (the drill/bench mode).
//! * **Unix socket** (`--socket PATH`) — additional ingress accepting
//!   the same lines from any number of connections.
//!
//! All solve replies stream to **stdout** as JSONL `ServeReply` lines,
//! whatever the ingress — the envelope `id` is the correlation key. The
//! ingress threads only frame lines; the server's workers parse them.
//! stdin waits on a full queue (a pipe sheds nothing), a socket
//! connection gets `queue_full` replies. Replies are rendered on the
//! thread that answers and written through one 8 KiB buffer, flushed as
//! soon as no request is queued behind the reply just written, and at
//! drain.
//! Control verbs (on either ingress): `shutdown` starts a graceful
//! drain, `stats` prints an immediate stats line, `reset-quarantine`
//! reopens quarantined digests. Periodic stats lines (and the final
//! drain snapshot) go to stderr as compact JSON. SIGTERM/SIGINT start
//! the same graceful drain as `shutdown`.
//!
//! `batch FILE` is an ordered drain of the same server: every non-blank
//! line goes through `submit_line_wait` at the default queue capacity, so
//! its seq is its line index and no line is shed; each reply is rendered
//! into slot `seq` and the slots are written in input order once the
//! server has drained. A batch line is the reply's [`batch_outcome`].
//!
//! Both doors render through [`render`] and freeze failures through the
//! same trust hooks. Fault injection: `CPO_SERVE_CHAOS` (+
//! `CPO_SERVE_CHAOS_SEED`) — see [`cpo_serve::chaos`].

use crate::trust;
use cpo_model::prelude::SolveOutcome;
use cpo_serve::chaos::ChaosConfig;
use cpo_serve::{
    CheckHook, FailureHook, ReplySink, ServeConfig, ServeOutcome, ServeReply, Server,
    ServerHandle, ServerHooks, CHECK_MISMATCH,
};
use std::borrow::Cow;
use std::io::{BufRead, BufWriter, Stdout, Write};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// CLI options for `serve` (parsed by the binary's flag helpers).
pub struct ServeCliOptions {
    /// Exit after stdin EOF + drain (drill/bench mode).
    pub once: bool,
    /// Optional Unix socket ingress path.
    pub socket: Option<String>,
    /// Worker threads (`None` = one per core).
    pub threads: Option<usize>,
    /// Ingress queue capacity.
    pub queue: usize,
    /// Per-tenant token rate, requests/second (0 = unlimited).
    pub rate: f64,
    /// Per-tenant burst capacity.
    pub burst: f64,
    /// Quarantine strike threshold.
    pub strikes: u32,
    /// Cross-validate every solve (the `--check` loop).
    pub check: bool,
    /// Simulator data sets for `--check` and bundle export.
    pub datasets: usize,
    /// Stats line period, seconds (0 = no periodic line).
    pub stats_secs: u64,
    /// Enable the deadline heuristic-downgrade path.
    pub downgrade: bool,
    /// Deadline calibration, cost units per millisecond.
    pub cost_per_ms: u64,
}

impl Default for ServeCliOptions {
    fn default() -> Self {
        ServeCliOptions {
            once: false,
            socket: None,
            threads: None,
            queue: cpo_serve::DEFAULT_QUEUE_CAPACITY,
            rate: 0.0,
            burst: 64.0,
            strikes: cpo_serve::DEFAULT_STRIKES,
            check: false,
            datasets: 64,
            stats_secs: 10,
            downgrade: false,
            cost_per_ms: cpo_serve::DEFAULT_COST_UNITS_PER_MS,
        }
    }
}

/// The drain trigger shared by SIGTERM, `shutdown` verbs and stdin EOF.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // std links libc; declaring `signal` directly keeps the approved
    // dependency set closed. SIGTERM = 15, SIGINT = 2 on linux.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(15, on_signal);
        signal(2, on_signal);
    }
}

fn chaos_from_env() -> Result<Option<ChaosConfig>, String> {
    let Some(spec) = std::env::var_os("CPO_SERVE_CHAOS") else {
        return Ok(None);
    };
    let spec = spec.to_string_lossy().to_string();
    let seed = match std::env::var_os("CPO_SERVE_CHAOS_SEED") {
        Some(s) => s
            .to_string_lossy()
            .parse::<u64>()
            .map_err(|_| "CPO_SERVE_CHAOS_SEED must be a u64".to_string())?,
        None => 0,
    };
    let cfg = ChaosConfig::parse(&spec, seed)?;
    Ok((!cfg.is_inert()).then_some(cfg))
}

/// Start the one pipeline both doors drive: `cfg` with the chaos plan
/// from the environment, an engine that solves one request per call (the
/// server's workers own the parallelism), and the trust subsystem wired
/// into the capture hooks.
fn start(
    cfg: ServeConfig,
    sink: ReplySink,
    check: bool,
    datasets: usize,
) -> Result<Server, String> {
    let engine = cpo_engine::EngineConfig { threads: 1, ..Default::default() };
    let export_cfg = engine.clone();
    let failure: FailureHook = Arc::new(move |seq, req, raw, kind, message| {
        let source = trust::bundle_source(req, raw);
        let item = Some(seq as usize);
        let written =
            trust::export_bundle(kind, message.to_string(), item, source, &export_cfg, datasets);
        match &written {
            Ok(path) => eprintln!("repro bundle written: {}", path.display()),
            Err(e) => eprintln!("could not write repro bundle: {e}"),
        }
        written.is_ok()
    });
    let check: Option<CheckHook> = check.then(|| {
        let hook: CheckHook =
            Arc::new(move |req, out| trust::check_outcome(req, out, datasets));
        hook
    });
    let cfg = ServeConfig { engine, chaos: chaos_from_env()?, ..cfg };
    Ok(Server::start(cfg, sink, ServerHooks { failure: Some(failure), check }))
}

/// The stand-in for a `kind` solver outcome the JSON writer refuses
/// (non-finite values): still one typed outcome per request, never a
/// crash.
pub fn unrepresentable(kind: &str) -> SolveOutcome {
    SolveOutcome::Unsupported {
        reason: format!("{kind} outcome not JSON-representable (non-finite values)"),
    }
}

/// A reply as one `batch` line: the solver verdict itself, or, for a
/// rejection, a deadline or a failure, an `Unsupported` outcome carrying
/// the reply's own text.
pub fn batch_outcome(outcome: &ServeOutcome) -> Cow<'_, SolveOutcome> {
    let reason = match outcome {
        ServeOutcome::Done { result } => return Cow::Borrowed(result),
        ServeOutcome::Rejected { detail, .. } => detail.clone(),
        ServeOutcome::Failed { reason } => reason.clone(),
        ServeOutcome::Deadline { exceeded_at, budget_ms, elapsed_ms, estimated_ms } => format!(
            "deadline of {budget_ms} ms exceeded at {exceeded_at:?}: {elapsed_ms} ms elapsed, \
             {estimated_ms} ms estimated"
        ),
    };
    Cow::Owned(SolveOutcome::Unsupported { reason })
}

/// The one reply renderer: `reply` as a `serve` line (the whole
/// envelope) or as a `batch` line (its [`batch_outcome`]). A solver
/// verdict the JSON writer refuses is replaced by its
/// [`unrepresentable`] stand-in, seq and id kept.
pub fn render(reply: &ServeReply, envelope: bool) -> String {
    let line = if envelope {
        reply.to_json_compact()
    } else {
        batch_outcome(&reply.outcome).to_json_compact()
    };
    line.unwrap_or_else(|_| {
        let kind = match &reply.outcome {
            ServeOutcome::Done { result } => result.kind(),
            _ => "reply",
        };
        // The stand-in holds no floating-point value but the finite
        // `elapsed_ms`, so this second render succeeds.
        let outcome = ServeOutcome::Done { result: unrepresentable(kind) };
        render(&ServeReply { outcome, ..reply.clone() }, envelope)
    })
}

/// `raw` without its line ending (`\n` or `\r\n`), as `str::lines`
/// splits. Lines stay bytes until the server decodes them, so one
/// undecodable line gets its own typed rejection and costs no other line
/// its reply.
fn line_body(raw: &[u8]) -> &[u8] {
    match raw.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => raw,
    }
}

/// The next raw line of a stream ingress, read into `buf`; `None` at EOF
/// or on a read error.
fn next_line<'b>(reader: &mut impl BufRead, buf: &'b mut Vec<u8>) -> Option<&'b [u8]> {
    buf.clear();
    match reader.read_until(b'\n', buf) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(line_body(buf)),
    }
}

/// One line handled from any ingress; a request line waits on a full
/// queue when `wait` is set. Returns `true` when the line asked for
/// shutdown.
fn handle_line(
    handle: &ServerHandle,
    line: &[u8],
    wait: bool,
    control_out: &mut dyn Write,
) -> bool {
    let submit = |line: &[u8]| {
        if wait {
            handle.submit_line_wait(line);
        } else {
            handle.submit_line(line);
        }
    };
    let Ok(text) = std::str::from_utf8(line) else {
        // Not a control verb: the server rejects it like any other
        // unparseable request.
        submit(line);
        return false;
    };
    match text.trim() {
        "" => false,
        "shutdown" => {
            SHUTDOWN.store(true, Ordering::SeqCst);
            let _ = writeln!(control_out, "draining");
            true
        }
        "stats" => {
            let snap = handle.snapshot();
            let line = cpo_model::io::serde_json_error::to_string(&snap)
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            let _ = writeln!(control_out, "{line}");
            false
        }
        "reset-quarantine" => {
            handle.reset_quarantine();
            let _ = writeln!(control_out, "quarantine reset");
            false
        }
        request => {
            submit(request.as_bytes());
            false
        }
    }
}

fn stats_line(handle: &ServerHandle) {
    let snap = handle.snapshot();
    match cpo_model::io::serde_json_error::to_string(&snap) {
        Ok(line) => eprintln!("{line}"),
        Err(e) => eprintln!("stats line unserializable: {e}"),
    }
}

/// The `serve` reply stream: stdout behind std's default 8 KiB buffer.
struct ReplyOut {
    out: BufWriter<Stdout>,
    /// The server whose backlog decides when to flush; `None` before
    /// start and after drain, when every reply is flushed at once.
    server: Option<ServerHandle>,
}

impl ReplyOut {
    /// Write one rendered reply line. It is flushed unless a queued
    /// request will write (and flush) after it, so a reply waits behind
    /// at most a buffer's worth of later replies.
    fn write_line(&mut self, line: &str) {
        let _ = self.out.write_all(line.as_bytes());
        if self.server.as_ref().is_none_or(|s| s.backlog() == 0) {
            let _ = self.out.flush();
        }
    }
}

/// Run the server; returns the process exit code.
pub fn cmd_serve(opts: ServeCliOptions) -> i32 {
    let cfg = ServeConfig {
        threads: opts.threads.unwrap_or(0),
        queue_capacity: opts.queue,
        rate_per_sec: opts.rate,
        burst: opts.burst,
        strikes: opts.strikes,
        deadline_downgrade: opts.downgrade,
        cost_units_per_ms: opts.cost_per_ms,
        ..ServeConfig::default()
    };
    install_signal_handlers();

    // Replies: JSONL on stdout, rendered outside the lock.
    let out = ReplyOut { out: BufWriter::new(std::io::stdout()), server: None };
    let out = Arc::new(Mutex::new(out));
    let sink: ReplySink = {
        let out = Arc::clone(&out);
        Arc::new(move |reply| {
            let mut line = render(reply, true);
            line.push('\n');
            out.lock().unwrap().write_line(&line);
        })
    };

    let server = match start(cfg, sink, opts.check, opts.datasets) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    out.lock().unwrap().server = Some(server.handle());
    eprintln!("serve: ready (queue={}, strikes={})", opts.queue, opts.strikes);

    // Socket ingress: one handler thread per connection.
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
        match UnixListener::bind(path) {
            Ok(listener) => {
                let handle = server.handle();
                std::thread::spawn(move || {
                    for conn in listener.incoming().flatten() {
                        let handle = handle.clone();
                        std::thread::spawn(move || {
                            let mut writer = match conn.try_clone() {
                                Ok(w) => w,
                                Err(_) => return,
                            };
                            let mut reader = std::io::BufReader::new(conn);
                            let mut buf = Vec::new();
                            while let Some(line) = next_line(&mut reader, &mut buf) {
                                if handle_line(&handle, line, false, &mut writer) {
                                    break;
                                }
                            }
                        });
                    }
                });
            }
            Err(e) => {
                eprintln!("cannot bind socket `{path}`: {e}");
                return 2;
            }
        }
    }

    // stdin ingress on its own thread so the main thread can watch the
    // shutdown flag and run the stats ticker.
    let stdin_handle = server.handle();
    let once = opts.once;
    let stdin_reader = std::thread::spawn(move || {
        let mut stdin = std::io::stdin().lock();
        let mut stderr = std::io::stderr();
        let mut buf = Vec::new();
        while let Some(line) = next_line(&mut stdin, &mut buf) {
            if handle_line(&stdin_handle, line, true, &mut stderr) {
                return;
            }
            if SHUTDOWN.load(Ordering::SeqCst) {
                return;
            }
        }
        // stdin EOF: in --once mode that is the drain signal.
        if once {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
    });

    let ticker_handle = server.handle();
    let mut last_stats = std::time::Instant::now();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(25));
        if opts.stats_secs > 0 && last_stats.elapsed().as_secs() >= opts.stats_secs {
            stats_line(&ticker_handle);
            last_stats = std::time::Instant::now();
        }
    }

    // Graceful drain: answer everything accepted, print the final stats
    // line, exit 0. The stdin thread may still be blocked on a read;
    // joining it only in --once mode (where EOF is guaranteed).
    let final_snap = server.drain();
    {
        // Drop the handle (it keeps the server alive) and flush what the
        // workers left buffered; later replies flush one by one.
        let mut out = out.lock().unwrap();
        out.server = None;
        let _ = out.out.flush();
    }
    if once {
        let _ = stdin_reader.join();
    }
    match cpo_model::io::serde_json_error::to_string(&final_snap) {
        Ok(line) => eprintln!("{line}"),
        Err(e) => eprintln!("final stats unserializable: {e}"),
    }
    eprintln!(
        "serve: drained ({} accepted, {} replies, {} quarantined)",
        final_snap.accepted,
        final_snap.replies(),
        final_snap.quarantined
    );
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
    }
    0
}

/// Run `batch FILE`: every non-blank line through the serve pipeline,
/// one [`batch_outcome`] line per input line on stdout, in input order.
/// Returns the exit code, 1 when some line failed (a `--check` mismatch
/// or a worker panic), else 0; `Err` when the file cannot be read, the
/// chaos plan is malformed or stdout cannot be written.
pub fn cmd_batch(
    path: &str,
    check: bool,
    threads: Option<usize>,
    datasets: usize,
) -> Result<i32, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let blank = |line: &[u8]| std::str::from_utf8(line).is_ok_and(|t| t.trim().is_empty());
    let lines: Vec<&[u8]> =
        bytes.split_inclusive(|&b| b == b'\n').map(line_body).filter(|l| !blank(l)).collect();
    let cfg = ServeConfig {
        threads: threads.unwrap_or(0),
        rate_per_sec: 0.0,
        // Workers admit lines concurrently, so quarantine would race the
        // strikes and make the output depend on timing. The first strike
        // of a digest still exports its bundle.
        strikes: u32::MAX,
        ..ServeConfig::default()
    };
    let slots: Arc<Vec<OnceLock<String>>> =
        Arc::new(lines.iter().map(|_| OnceLock::new()).collect());
    let sink: ReplySink = {
        let slots = Arc::clone(&slots);
        Arc::new(move |reply| {
            if let ServeOutcome::Failed { reason } = &reply.outcome {
                if let Some(e) = reason.strip_prefix(CHECK_MISMATCH) {
                    eprintln!("check: item {} MISMATCH: {e}", reply.seq);
                }
            }
            // Exactly one reply per seq: the slot is always empty here.
            let _ = slots[reply.seq as usize].set(render(reply, false));
        })
    };
    let server = start(cfg, sink, check, datasets)?;
    for (i, line) in lines.iter().enumerate() {
        let seq = server.submit_line_wait(line);
        assert_eq!(seq, i as u64, "a batch line's admission seq is its line index");
    }
    let snap = server.drain();
    let mut out = BufWriter::new(std::io::stdout().lock());
    slots
        .iter()
        .try_for_each(|slot| writeln!(out, "{}", slot.get().expect("every line is answered")))
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write batch output: {e}"))?;
    if check {
        eprintln!(
            "check: {} items, {} failed (cache: {} hits / {} misses)",
            lines.len(),
            snap.failed,
            snap.cache.hits,
            snap.cache.misses
        );
    }
    Ok(i32::from(snap.failed > 0))
}
