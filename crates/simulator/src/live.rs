//! Live multi-threaded pipeline executor.
//!
//! Runs a linear-chain application for real: one OS thread per enrolled
//! processor (interval of stages), bounded crossbeam channels as the
//! communication links (capacity 1 reproduces the synchronous pipelined
//! regime of the paper), and wall-clock measurements of throughput
//! (1/period) and per-item latency.
//!
//! This is the demonstrator bridging the abstract model to actual
//! execution — see `examples/live_stream.rs`.

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A stage function: consumes one item, produces one item.
pub type StageFn<T> = Box<dyn FnMut(T) -> T + Send>;

/// A timestamped channel pair (item plus its injection instant).
type Link<T> = (Sender<(T, Instant)>, Receiver<(T, Instant)>);

/// A builder for a live pipeline: an ordered list of stage workers.
pub struct LivePipeline<T> {
    stages: Vec<StageFn<T>>,
    capacity: usize,
}

/// Wall-clock measurements of a live run.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Number of items processed end to end.
    pub items: usize,
    /// Total wall-clock time from first injection to last completion.
    pub elapsed: Duration,
    /// Items per second (inverse of the measured period).
    pub throughput: f64,
    /// Mean per-item latency (injection → completion).
    pub mean_latency: Duration,
    /// Maximum per-item latency.
    pub max_latency: Duration,
}

impl<T: Send + 'static> LivePipeline<T> {
    /// Empty pipeline with link capacity 1 (fully synchronous pipelining).
    pub fn new() -> Self {
        LivePipeline { stages: Vec::new(), capacity: 1 }
    }

    /// Set the channel capacity of every link (≥ 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "links need capacity at least 1");
        self.capacity = capacity;
        self
    }

    /// Append a stage worker (one thread).
    pub fn stage(mut self, f: impl FnMut(T) -> T + Send + 'static) -> Self {
        self.stages.push(Box::new(f));
        self
    }

    /// Number of stage workers.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when no stage was added.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Run all `inputs` through the pipeline; returns outputs in order and
    /// the wall-clock report. Panics on an empty pipeline.
    pub fn run(self, inputs: Vec<T>) -> (Vec<T>, LiveReport) {
        assert!(!self.stages.is_empty(), "a pipeline needs at least one stage");
        let items = inputs.len();
        let latencies: Arc<Mutex<Vec<Duration>>> =
            Arc::new(Mutex::new(Vec::with_capacity(items)));

        let (inject_tx, mut upstream): Link<T> = bounded(self.capacity);
        let mut handles = Vec::with_capacity(self.stages.len());
        let stage_count = self.stages.len();
        for (i, mut f) in self.stages.into_iter().enumerate() {
            let (tx, rx): Link<T> = bounded(self.capacity);
            let input = upstream;
            let lat = Arc::clone(&latencies);
            let is_last = i + 1 == stage_count;
            let handle = std::thread::spawn(move || {
                let mut outputs: Vec<T> = Vec::new();
                for (item, t0) in input.iter() {
                    let out = f(item);
                    if is_last {
                        lat.lock().push(t0.elapsed());
                        outputs.push(out);
                    } else {
                        // Receiver hung up means early shutdown: stop.
                        if tx.send((out, t0)).is_err() {
                            break;
                        }
                    }
                }
                outputs
            });
            handles.push(handle);
            upstream = rx;
        }
        drop(upstream); // the last stage's tx side is unused

        let started = Instant::now();
        for item in inputs {
            inject_tx.send((item, Instant::now())).expect("pipeline alive");
        }
        drop(inject_tx);

        let mut outputs = Vec::new();
        for handle in handles {
            let mut out = handle.join().expect("stage thread panicked");
            outputs.append(&mut out);
        }
        let elapsed = started.elapsed();

        let lats = latencies.lock();
        let mean_latency = if lats.is_empty() {
            Duration::ZERO
        } else {
            lats.iter().sum::<Duration>() / lats.len() as u32
        };
        let max_latency = lats.iter().copied().max().unwrap_or(Duration::ZERO);
        let throughput = if elapsed.as_secs_f64() > 0.0 {
            items as f64 / elapsed.as_secs_f64()
        } else {
            f64::INFINITY
        };
        (
            outputs,
            LiveReport { items, elapsed, throughput, mean_latency, max_latency },
        )
    }
}

impl<T: Send + 'static> Default for LivePipeline<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Busy-spin for roughly `ops` arithmetic operations — a portable stand-in
/// for stage computation requirements in demos and benches.
pub fn spin_work(ops: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..ops {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_pipeline_preserves_items() {
        let pipe = LivePipeline::new().stage(|x: u64| x).stage(|x| x);
        let (out, rep) = pipe.run((0..100).collect());
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(rep.items, 100);
        assert!(rep.throughput > 0.0);
    }

    #[test]
    fn stages_compose_in_order() {
        let pipe = LivePipeline::new().stage(|x: i64| x + 1).stage(|x| x * 10);
        let (out, _) = pipe.run(vec![1, 2, 3]);
        assert_eq!(out, vec![20, 30, 40]);
    }

    #[test]
    fn latency_reported_positive() {
        let pipe = LivePipeline::new().stage(|x: u64| {
            std::thread::sleep(Duration::from_micros(200));
            x
        });
        let (_, rep) = pipe.run(vec![1, 2, 3, 4]);
        assert!(rep.mean_latency >= Duration::from_micros(200));
        assert!(rep.max_latency >= rep.mean_latency);
    }

    #[test]
    fn pipelining_overlaps_consecutive_items() {
        // Structural, not wall-clock: while stage 1 still holds item 0 it
        // waits for stage 0 to start item 1. Only pipelined execution can
        // satisfy that rendezvous; a serial executor would time out. The
        // timeout bounds a failing run and never decides a passing one.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let overlapped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let seen = Arc::clone(&overlapped);
        let pipe = LivePipeline::new()
            .stage(move |x: u64| {
                if x == 1 {
                    started_tx.send(()).expect("stage 1 is listening");
                }
                x
            })
            .stage(move |x| {
                if x == 0 {
                    let met = started_rx.recv_timeout(Duration::from_secs(30)).is_ok();
                    seen.store(met, std::sync::atomic::Ordering::SeqCst);
                }
                x
            });
        let (out, _) = pipe.run(vec![0, 1, 2]);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(
            overlapped.load(std::sync::atomic::Ordering::SeqCst),
            "stage 0 must start item 1 while stage 1 still holds item 0"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let pipe = LivePipeline::new().stage(|x: u64| x);
        let (out, rep) = pipe.run(vec![]);
        assert!(out.is_empty());
        assert_eq!(rep.items, 0);
        assert_eq!(rep.mean_latency, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let pipe: LivePipeline<u64> = LivePipeline::new();
        let _ = pipe.run(vec![1]);
    }

    #[test]
    fn spin_work_is_deterministic() {
        assert_eq!(spin_work(1000), spin_work(1000));
    }
}
