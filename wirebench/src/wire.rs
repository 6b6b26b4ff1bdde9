//! Driving the real binaries over pipes: `cpo-experiments serve --once`
//! (set-up, open loop, replay) and `cpo-experiments batch`.
//!
//! The generator side uses at most two threads — the calling thread
//! writes, one reader thread reads — and one stdin/stdout pipe pair. The
//! served binary always runs with `--threads 2 --stats-secs 0` and a
//! queue larger than the corpus, so it never has a reason to shed.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A phase stops waiting for replies once none has arrived for this long,
/// and the oracle counts the missing ones.
const REPLY_IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// The binary under test and the flags every invocation shares.
pub struct Target {
    pub bin: PathBuf,
    /// Workload flags for both `serve` and `batch` (`--check …`).
    pub flags: Vec<String>,
    /// `--queue` for `serve`.
    pub queue: usize,
    /// Where a failing request's repro bundle would be written.
    pub bundle_dir: PathBuf,
}

/// A child process that is killed and reaped if the phase bails out.
struct Proc(Option<Child>);

impl Proc {
    fn wait(mut self) -> Result<ExitStatus, String> {
        let mut child = self.0.take().expect("waited once");
        child.wait().map_err(|e| format!("wait: {e}"))
    }

    fn id(&self) -> u32 {
        self.0.as_ref().expect("running").id()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Target {
    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .args(&self.flags)
            .env("CPO_BUNDLE_DIR", &self.bundle_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        cmd
    }

    fn spawn_serve(&self) -> Result<(Proc, ChildStdin, BufReader<ChildStdout>), String> {
        let queue = self.queue.to_string();
        let args = [
            "serve",
            "--once",
            "--threads",
            "2",
            "--stats-secs",
            "0",
            "--queue",
            &queue,
        ];
        let mut child = self
            .command(&args)
            .stdin(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok((Proc(Some(child)), stdin, stdout))
    }
}

/// Send the warm-up line and read its reply, which must be a solve.
fn warm_up(
    stdin: &mut ChildStdin,
    stdout: &mut BufReader<ChildStdout>,
    warmup: &str,
) -> Result<(), String> {
    stdin
        .write_all(format!("{warmup}\n").as_bytes())
        .map_err(|e| format!("write warm-up: {e}"))?;
    let mut reply = String::new();
    stdout
        .read_line(&mut reply)
        .map_err(|e| format!("read warm-up reply: {e}"))?;
    let ok = crate::json::field(&reply, "id") == Some("\"warmup\"")
        && crate::json::field(&reply, "outcome")
            .and_then(|o| crate::json::field(o, "Done"))
            .is_some();
    if ok {
        Ok(())
    } else {
        Err(format!(
            "warm-up reply is not a solve: {}",
            reply.trim_end()
        ))
    }
}

fn finish(proc: Proc, what: &str) -> Result<(), String> {
    let status = proc.wait()?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{what} exited with {status}"))
    }
}

/// Set-up time: `serve` spawn → the reply to one warm-up line.
pub fn setup_seconds(target: &Target, warmup: &str) -> Result<f64, String> {
    let start = Instant::now();
    let (proc, mut stdin, mut stdout) = target.spawn_serve()?;
    warm_up(&mut stdin, &mut stdout, warmup)?;
    let seconds = start.elapsed().as_secs_f64();
    drop(stdin);
    std::io::copy(&mut stdout, &mut std::io::sink()).map_err(|e| format!("drain: {e}"))?;
    finish(proc, "serve")?;
    Ok(seconds)
}

/// What one serve phase observed.
pub struct ServePhase {
    /// Reply lines, in arrival order.
    pub replies: Vec<String>,
    /// Arrival time of each reply.
    pub arrived: Vec<Instant>,
    /// When the first request byte was written.
    pub first_write: Instant,
    /// When each line was due (open loop) or written (replay starts all
    /// lines at `first_write`).
    pub due: Vec<Instant>,
    /// How late the writer was for each line, microseconds (open loop).
    pub send_lag_us: Vec<f64>,
    /// `VmHWM` of the serve process before its stdin closed, kB.
    pub vm_hwm_kb: u64,
}

impl ServePhase {
    /// Arrival of the last reply.
    pub fn last_arrival(&self) -> Instant {
        self.arrived
            .iter()
            .copied()
            .max()
            .unwrap_or(self.first_write)
    }
}

fn vm_hwm_kb(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// Drop the calling thread's timer slack (50 µs by default) to 1 ns, so
/// the open-loop writer wakes when a request is due instead of up to
/// 50 µs later.
fn exact_sleeps() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and only changes the
    // calling thread's timer slack; no memory is shared with the kernel.
    // A failure leaves the default slack, which only makes sends later.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Block until the reader reports every reply, its stream ends, or no
/// reply has arrived for [`REPLY_IDLE_TIMEOUT`].
fn wait_for_replies(done: &mpsc::Receiver<()>, received: &AtomicUsize) {
    let tick = Duration::from_secs(1);
    let (mut seen, mut idle) = (received.load(Ordering::Relaxed), Duration::ZERO);
    loop {
        match done.recv_timeout(tick) {
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let now = received.load(Ordering::Relaxed);
                if now != seen {
                    (seen, idle) = (now, Duration::ZERO);
                } else {
                    idle += tick;
                    if idle >= REPLY_IDLE_TIMEOUT {
                        return;
                    }
                }
            }
            _ => return,
        }
    }
}

/// Stream `lines` through one `serve --once` process after a warm-up
/// line. With `rate`, line `i` is due at `start + i / rate` (open loop);
/// without, the whole corpus is written as fast as the pipe takes it.
pub fn run_serve(
    target: &Target,
    warmup: &str,
    lines: &[String],
    rate: Option<f64>,
) -> Result<ServePhase, String> {
    let (proc, mut stdin, mut stdout) = target.spawn_serve()?;
    warm_up(&mut stdin, &mut stdout, warmup)?;
    let expected = lines.len();
    let (done_tx, done_rx) = mpsc::channel();
    let received = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&received);
    let reader = std::thread::spawn(move || {
        let mut replies = Vec::with_capacity(expected);
        let mut arrived = Vec::with_capacity(expected);
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    arrived.push(Instant::now());
                    replies.push(line.trim_end().to_string());
                    counter.store(replies.len(), Ordering::Relaxed);
                    if replies.len() == expected {
                        let _ = done_tx.send(());
                    }
                }
            }
        }
        (replies, arrived)
    });

    let mut due = Vec::with_capacity(expected);
    let mut send_lag_us = Vec::new();
    let first_write;
    let write_result = match rate {
        None => {
            let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
            for l in lines {
                buf.push_str(l);
                buf.push('\n');
            }
            first_write = Instant::now();
            due.resize(expected, first_write);
            stdin.write_all(buf.as_bytes())
        }
        Some(rate) => {
            exact_sleeps();
            first_write = Instant::now() + Duration::from_millis(1);
            send_lag_us.reserve(expected);
            let mut buf = Vec::with_capacity(4096);
            let mut result = Ok(());
            for (i, l) in lines.iter().enumerate() {
                let when = first_write + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if now < when {
                    std::thread::sleep(when - now);
                }
                send_lag_us
                    .push(Instant::now().saturating_duration_since(when).as_secs_f64() * 1e6);
                due.push(when);
                buf.clear();
                buf.extend_from_slice(l.as_bytes());
                buf.push(b'\n');
                result = stdin.write_all(&buf);
                if result.is_err() {
                    break;
                }
            }
            result
        }
    };
    // Every reply in (or the timeout): read the peak RSS while the server
    // is still up, then close stdin so it drains and exits.
    let vm_hwm_kb = write_result
        .map_err(|e| format!("write requests: {e}"))
        .and_then(|()| {
            wait_for_replies(&done_rx, &received);
            vm_hwm_kb(proc.id())
        });
    drop(stdin);
    let joined = reader
        .join()
        .map_err(|_| "reply reader panicked".to_string());
    let vm_hwm_kb = vm_hwm_kb?;
    let (replies, arrived) = joined?;
    finish(proc, "serve")?;
    Ok(ServePhase {
        replies,
        arrived,
        first_write,
        due,
        send_lag_us,
        vm_hwm_kb,
    })
}

/// What one `batch` run produced.
pub struct BatchRun {
    pub lines: Vec<String>,
    /// Spawn → exit, seconds.
    pub seconds: f64,
    pub status: ExitStatus,
}

/// Run `batch --threads 2` over the corpus file. Its output goes to
/// `out_path` and is read after it exits: a file, as a batch job would
/// write, so no reader thread is woken per output line.
pub fn run_batch(target: &Target, corpus_path: &Path, out_path: &Path) -> Result<BatchRun, String> {
    let path = corpus_path.to_str().ok_or("corpus path is not UTF-8")?;
    let out = File::create(out_path).map_err(|e| format!("create {}: {e}", out_path.display()))?;
    let start = Instant::now();
    let child = target
        .command(&["batch", path, "--threads", "2"])
        .stdin(Stdio::null())
        .stdout(out)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", target.bin.display()))?;
    let status = Proc(Some(child)).wait()?;
    let seconds = start.elapsed().as_secs_f64();
    let out = std::fs::read_to_string(out_path).map_err(|e| format!("read batch output: {e}"));
    let _ = std::fs::remove_file(out_path);
    Ok(BatchRun {
        lines: out?.lines().map(String::from).collect(),
        seconds,
        status,
    })
}
