//! The reply oracle.
//!
//! The reference outcome of every distinct request comes from in-process
//! `cpo_core::router::route`; on `checked` the `check_outcome` verdict is
//! folded in exactly as `serve --check` folds it (a mismatch becomes a
//! `Failed` reply). Serve replies and batch lines are compared on outcome
//! bytes, ignoring `seq` and `elapsed_ms`. Unparseable request lines must
//! come back as a typed `Rejected{Invalid}` (serve) or an `unparseable
//! request` unsupported outcome (batch).

use crate::corpus::{parse_line_id, Corpus, CHECK_DATASETS};
use crate::json;
use cpo_core::router::route;
use cpo_experiments::trust::check_outcome;
use cpo_model::io::serde_json_error;
use cpo_model::prelude::*;
use cpo_serve::ServeOutcome;
use std::ops::Range;

/// The expected answer of every template.
pub struct Reference {
    /// Expected serve `outcome` field bytes.
    pub serve: Vec<String>,
    /// Expected batch output line.
    pub batch: Vec<String>,
    /// Outcome kind (`solution`, `front`, `infeasible`, `unsupported`,
    /// or `failed` for a check mismatch).
    pub kind: Vec<&'static str>,
}

/// The serve verdict for a solver outcome, folding in the `--check`
/// cross-validation the way `serve --check` does: a mismatch becomes a
/// `Failed` reply.
pub fn serve_outcome(req: &SolveRequest, out: SolveOutcome, check: bool) -> ServeOutcome {
    match check.then(|| check_outcome(req, &out, CHECK_DATASETS)) {
        Some(Err(message)) => ServeOutcome::Failed {
            reason: format!("check mismatch: {message}"),
        },
        _ => ServeOutcome::Done { result: out },
    }
}

fn reference_of(req: &SolveRequest, check: bool) -> (String, String, &'static str) {
    let out = route(&req.apps, &req.platform, &req.problem);
    let batch = out
        .to_json_compact()
        .expect("reference outcomes are JSON-representable");
    let serve = serve_outcome(req, out, check);
    let kind = match &serve {
        ServeOutcome::Done { result } => result.kind(),
        _ => "failed",
    };
    let serve = serde_json_error::to_string(&serve).expect("reference replies serialize");
    (serve, batch, kind)
}

impl Reference {
    /// Route every template, on two threads.
    pub fn build(corpus: &Corpus) -> Reference {
        let check = corpus.workload.check();
        let templates = &corpus.templates;
        let half = templates.len().div_ceil(2);
        let parts: Vec<Vec<(String, String, &'static str)>> = std::thread::scope(|s| {
            let workers: Vec<_> = templates
                .chunks(half.max(1))
                .map(|chunk| {
                    s.spawn(move || chunk.iter().map(|r| reference_of(r, check)).collect())
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("oracle worker panicked"))
                .collect()
        });
        let mut reference = Reference {
            serve: Vec::new(),
            batch: Vec::new(),
            kind: Vec::new(),
        };
        for (serve, batch, kind) in parts.into_iter().flatten() {
            reference.serve.push(serve);
            reference.batch.push(batch);
            reference.kind.push(kind);
        }
        reference
    }

    /// Whether any line of `range` expects a check mismatch (then `batch
    /// --check` over those lines must exit 1).
    pub fn any_failed(&self, corpus: &Corpus, range: Range<usize>) -> bool {
        corpus.template_of[range]
            .iter()
            .flatten()
            .any(|&t| self.kind[t] == "failed")
    }
}

/// Reply accounting for one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Lines sent.
    pub sent: u64,
    /// Lines answered once with the reference outcome.
    pub correct: u64,
    /// Lines never answered.
    pub missing: u64,
    /// Extra replies for an already-answered line.
    pub duplicated: u64,
    /// Typed shedding or failure replies (`queue_full`, `shutting_down`,
    /// any other non-`Invalid` rejection, `Deadline`, `Failed`).
    pub shed: u64,
    /// Replies with an outcome other than the reference: wrong verdicts.
    pub wrong: u64,
}

impl Tally {
    /// Everything counted against `failed_share`.
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicated + self.shed + self.wrong
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.correct += o.correct;
        self.missing += o.missing;
        self.duplicated += o.duplicated;
        self.shed += o.shed;
        self.wrong += o.wrong;
    }
}

/// The result of checking one serve phase.
pub struct ServeCheck {
    pub tally: Tally,
    /// For each reply, the corpus line it correctly answers (`None` for
    /// garbage-line rejections and for replies that failed the check).
    pub line_of_reply: Vec<Option<usize>>,
    /// The first wrong reply, for the diagnostic.
    pub first_wrong: Option<String>,
}

fn is_invalid_rejection(outcome: &str) -> bool {
    json::field(outcome, "Rejected").and_then(|r| json::field(r, "reason")) == Some("\"Invalid\"")
}

fn is_shed(outcome: &str) -> bool {
    ["Rejected", "Deadline", "Failed"]
        .iter()
        .any(|k| json::field(outcome, k).is_some())
}

/// Check the replies to corpus lines `sent`.
pub fn check_serve(
    corpus: &Corpus,
    reference: &Reference,
    sent: Range<usize>,
    replies: &[String],
) -> ServeCheck {
    let mut tally = Tally {
        sent: sent.len() as u64,
        ..Tally::default()
    };
    let mut seen = vec![0u32; sent.len()];
    let mut line_of_reply = Vec::with_capacity(replies.len());
    let mut first_wrong = None;
    let mut invalid_replies = 0u64;
    let mut wrong = |tally: &mut Tally, why: String| {
        tally.wrong += 1;
        first_wrong.get_or_insert(why);
    };
    for reply in replies {
        line_of_reply.push(None);
        let (Some(id), Some(outcome)) = (json::field(reply, "id"), json::field(reply, "outcome"))
        else {
            wrong(&mut tally, format!("malformed reply: {reply}"));
            continue;
        };
        if id == "null" {
            if is_invalid_rejection(outcome) {
                invalid_replies += 1;
            } else {
                wrong(
                    &mut tally,
                    format!("id-less reply that is not Rejected{{Invalid}}: {reply}"),
                );
            }
            continue;
        }
        let Some((i, t)) = parse_line_id(id)
            .filter(|i| sent.contains(i))
            .and_then(|i| corpus.template_of[i].map(|t| (i, t)))
        else {
            wrong(
                &mut tally,
                format!("reply for a line that was not sent: {reply}"),
            );
            continue;
        };
        seen[i - sent.start] += 1;
        if seen[i - sent.start] > 1 {
            tally.duplicated += 1;
        } else if outcome == reference.serve[t] {
            tally.correct += 1;
            *line_of_reply.last_mut().expect("pushed above") = Some(i);
        } else if is_shed(outcome) {
            tally.shed += 1;
        } else {
            wrong(
                &mut tally,
                format!("line {i}: expected {} got {outcome}", reference.serve[t]),
            );
        }
    }
    let mut garbage = 0u64;
    for (t, &count) in corpus.template_of[sent].iter().zip(&seen) {
        match t {
            Some(_) if count == 0 => tally.missing += 1,
            Some(_) => {}
            None => garbage += 1,
        }
    }
    tally.correct += invalid_replies.min(garbage);
    tally.missing += garbage.saturating_sub(invalid_replies);
    tally.duplicated += invalid_replies.saturating_sub(garbage);
    ServeCheck {
        tally,
        line_of_reply,
        first_wrong,
    }
}

/// Check `batch` output over corpus lines `sent` (one output line per
/// input line, in input order).
pub fn check_batch(
    corpus: &Corpus,
    reference: &Reference,
    sent: Range<usize>,
    out: &[String],
) -> (Tally, Option<String>) {
    let mut tally = Tally {
        sent: sent.len() as u64,
        ..Tally::default()
    };
    let mut first_wrong = None;
    for (i, line) in sent.clone().zip(out) {
        let ok = match corpus.template_of[i] {
            Some(t) => *line == reference.batch[t],
            None => line.starts_with("{\"Unsupported\":{\"reason\":\"unparseable request"),
        };
        if ok {
            tally.correct += 1;
        } else {
            tally.wrong += 1;
            first_wrong.get_or_insert_with(|| format!("batch line {i}: {line}"));
        }
    }
    tally.missing = sent.len().saturating_sub(out.len()) as u64;
    tally.duplicated = out.len().saturating_sub(sent.len()) as u64;
    (tally, first_wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Workload;

    /// The replies a faultless server would send for the whole corpus.
    fn perfect_replies(corpus: &Corpus, reference: &Reference) -> Vec<String> {
        corpus
            .template_of
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Some(t) => format!(
                    "{{\"downgraded\":false,\"elapsed_ms\":0.25,\"id\":\"wb-{i}\",\"outcome\":{},\
                     \"seq\":{i},\"tenant\":\"t0\"}}",
                    reference.serve[*t]
                ),
                None => format!(
                    "{{\"downgraded\":false,\"elapsed_ms\":0,\"id\":null,\"outcome\":{{\"Rejected\":\
                     {{\"detail\":\"parse error\",\"reason\":\"Invalid\"}}}},\"seq\":{i},\"tenant\":null}}"
                ),
            })
            .collect()
    }

    fn fixture() -> (Corpus, Reference, Vec<String>) {
        let corpus = Corpus::generate(Workload::Mixed, 11, 1);
        let reference = Reference::build(&corpus);
        let replies = perfect_replies(&corpus, &reference);
        (corpus, reference, replies)
    }

    #[test]
    fn perfect_replies_pass() {
        let (corpus, reference, replies) = fixture();
        let n = corpus.lines.len();
        let check = check_serve(&corpus, &reference, 0..n, &replies);
        assert_eq!(
            check.tally,
            Tally {
                sent: n as u64,
                correct: n as u64,
                ..Tally::default()
            }
        );
    }

    #[test]
    fn flags_wrong_dropped_and_duplicated_replies() {
        let (corpus, reference, mut replies) = fixture();
        let n = corpus.lines.len();
        // A wrong verdict: the objective of a solution changed.
        let victim = (0..n)
            .find(|&i| replies[i].contains("\"objective\":"))
            .expect("a solution");
        replies[victim] = replies[victim].replacen("\"objective\":", "\"objective\":1", 1);
        let dropped = replies.remove(n - 2);
        assert!(!dropped.is_empty());
        replies.push(replies[0].clone());
        let t = check_serve(&corpus, &reference, 0..n, &replies).tally;
        assert_eq!((t.wrong, t.missing, t.duplicated), (1, 1, 1));
        assert_eq!(t.failed(), 3);
    }

    #[test]
    fn shedding_counts_as_failure_not_as_wrong_verdict() {
        let (corpus, reference, mut replies) = fixture();
        let n = corpus.lines.len();
        let i = (0..n)
            .find(|&i| corpus.template_of[i].is_some())
            .expect("parseable line");
        replies[i] = format!(
            "{{\"downgraded\":false,\"elapsed_ms\":0,\"id\":\"wb-{i}\",\"outcome\":{{\"Rejected\":\
             {{\"detail\":\"queue at capacity 4\",\"reason\":\"QueueFull\"}}}},\"seq\":{i},\"tenant\":\"t0\"}}"
        );
        let t = check_serve(&corpus, &reference, 0..n, &replies).tally;
        assert_eq!((t.shed, t.wrong, t.failed()), (1, 0, 1));
    }

    #[test]
    fn garbage_lines_need_typed_rejections() {
        let (corpus, reference, mut replies) = fixture();
        let n = corpus.lines.len();
        let g = corpus
            .template_of
            .iter()
            .position(Option::is_none)
            .expect("garbage line");
        replies.remove(g);
        let t = check_serve(&corpus, &reference, 0..n, &replies).tally;
        assert_eq!((t.missing, t.wrong), (1, 0));
    }

    #[test]
    fn batch_check_flags_each_fault() {
        let (corpus, reference, _) = fixture();
        let mut out: Vec<String> = corpus
            .template_of
            .iter()
            .map(|t| match t {
                Some(t) => reference.batch[*t].clone(),
                None => "{\"Unsupported\":{\"reason\":\"unparseable request: x\"}}".into(),
            })
            .collect();
        assert_eq!(
            check_batch(&corpus, &reference, 0..corpus.lines.len(), &out)
                .0
                .failed(),
            0
        );
        out[0] = "{\"Infeasible\":{\"reason\":\"no\"}}".into();
        out.pop();
        let (t, first) = check_batch(&corpus, &reference, 0..corpus.lines.len(), &out);
        assert_eq!((t.wrong, t.missing), (1, 1));
        assert!(first.expect("diagnostic").starts_with("batch line 0"));
    }
}
