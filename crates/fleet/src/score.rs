//! Verdicts, SV-COMP-style scoring, and the deterministic score report.
//!
//! Scoring follows the SV-COMP MemSafety convention: a confirmed safe
//! program (`correct-true`) earns 2 points, a confirmed bug
//! (`correct-false`) earns 1, a false alarm costs 16, a missed bug costs
//! 32, and `unknown` — timeout, analysis budget, or an internal failure —
//! scores 0. The asymmetry is the point: a runner that guesses gets
//! buried, so timeouts and failures must surface as `unknown`, never as a
//! verdict.

use crate::suite::{Category, Expected, TaskSpec};
use crate::worker::TaskOutput;
use lclint_core::{CasStats, RemoteStats};
use lclint_syntax::stats::{self, Counters};
use std::fmt::Write as _;

/// Why a task scored `unknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// The checker's own analysis budget was exhausted (deterministic).
    Budget,
    /// The per-task wall-clock budget elapsed; the worker was killed.
    Timeout,
    /// The suite's global wall-clock budget elapsed before dispatch.
    GlobalBudget,
    /// The worker died or failed internally mid-task.
    Internal,
    /// The task did not parse: the checker never saw the whole program,
    /// so neither verdict would be trustworthy.
    Unparsed,
}

impl UnknownReason {
    /// A short label for the verdict listing.
    pub fn label(&self) -> &'static str {
        match self {
            UnknownReason::Budget => "budget",
            UnknownReason::Timeout => "timeout",
            UnknownReason::GlobalBudget => "global-budget",
            UnknownReason::Internal => "internal",
            UnknownReason::Unparsed => "unparsed",
        }
    }
}

/// The runner's conclusion about one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds (no violation kind reported).
    True,
    /// The property is violated.
    False,
    /// No conclusion.
    Unknown(UnknownReason),
}

impl Verdict {
    /// A short label for the verdict listing.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::True => "true",
            Verdict::False => "false",
            Verdict::Unknown(_) => "unknown",
        }
    }
}

/// How a verdict compares against the sidecar's expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Expected true, concluded true: +2.
    CorrectTrue,
    /// Expected false, concluded false: +1.
    CorrectFalse,
    /// Expected false, concluded true (missed bug): −32.
    IncorrectTrue,
    /// Expected true, concluded false (false alarm): −16.
    IncorrectFalse,
    /// No conclusion: 0.
    Unknown,
}

impl Outcome {
    /// The outcome's score contribution.
    pub fn points(&self) -> i64 {
        match self {
            Outcome::CorrectTrue => 2,
            Outcome::CorrectFalse => 1,
            Outcome::IncorrectTrue => -32,
            Outcome::IncorrectFalse => -16,
            Outcome::Unknown => 0,
        }
    }

    /// A short label for the verdict listing.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::CorrectTrue => "correct-true",
            Outcome::CorrectFalse => "correct-false",
            Outcome::IncorrectTrue => "incorrect-true",
            Outcome::IncorrectFalse => "incorrect-false",
            Outcome::Unknown => "unknown",
        }
    }
}

/// Derives a task's verdict from the worker's output: internal failure
/// and budget exhaustion are `unknown`; otherwise any reported kind in
/// the category's violation set refutes the property.
pub fn verdict_for(category: Category, out: &TaskOutput) -> Verdict {
    if out.internal {
        return Verdict::Unknown(UnknownReason::Internal);
    }
    if out.budget {
        return Verdict::Unknown(UnknownReason::Budget);
    }
    if out.kinds.iter().any(|k| k == "syntax") {
        return Verdict::Unknown(UnknownReason::Unparsed);
    }
    let violations = category.violation_kinds();
    if out.kinds.iter().any(|k| violations.contains(&k.as_str())) {
        Verdict::False
    } else {
        Verdict::True
    }
}

/// Compares a verdict against the expectation.
pub fn outcome_for(expect: Expected, verdict: Verdict) -> Outcome {
    match (expect, verdict) {
        (_, Verdict::Unknown(_)) => Outcome::Unknown,
        (Expected::True, Verdict::True) => Outcome::CorrectTrue,
        (Expected::False, Verdict::False) => Outcome::CorrectFalse,
        (Expected::False, Verdict::True) => Outcome::IncorrectTrue,
        (Expected::True, Verdict::False) => Outcome::IncorrectFalse,
    }
}

/// One task's scored result.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The task name.
    pub name: String,
    /// The property category.
    pub category: Category,
    /// The declared expectation.
    pub expect: Expected,
    /// The runner's conclusion.
    pub verdict: Verdict,
    /// Verdict vs. expectation.
    pub outcome: Outcome,
    /// Worker wall-clock milliseconds (0 when never dispatched).
    pub ms: f64,
    /// Content-addressed store activity attributable to the task.
    pub cas: CasStats,
    /// Remote-tier store activity attributable to the task (all zero
    /// without a remote).
    pub remote: RemoteStats,
}

impl TaskResult {
    /// Scores a worker output against a task's sidecar.
    pub fn score(task: &TaskSpec, out: &TaskOutput) -> TaskResult {
        let verdict = verdict_for(task.category, out);
        TaskResult {
            name: task.name.clone(),
            category: task.category,
            expect: task.expect,
            verdict,
            outcome: outcome_for(task.expect, verdict),
            ms: out.ms,
            cas: out.cas,
            remote: out.remote,
        }
    }

    /// A result for a task that never ran to completion.
    pub fn unknown(task: &TaskSpec, reason: UnknownReason) -> TaskResult {
        TaskResult {
            name: task.name.clone(),
            category: task.category,
            expect: task.expect,
            verdict: Verdict::Unknown(reason),
            outcome: Outcome::Unknown,
            ms: 0.0,
            cas: CasStats::default(),
            remote: RemoteStats::default(),
        }
    }
}

/// Per-category (or total) score counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreRow {
    /// Tasks in the row.
    pub tasks: usize,
    /// `correct-true` count.
    pub correct_true: usize,
    /// `correct-false` count.
    pub correct_false: usize,
    /// `incorrect-true` + `incorrect-false` count.
    pub incorrect: usize,
    /// `unknown` count.
    pub unknown: usize,
    /// Points total.
    pub score: i64,
}

impl ScoreRow {
    fn absorb(&mut self, r: &TaskResult) {
        self.tasks += 1;
        self.score += r.outcome.points();
        match r.outcome {
            Outcome::CorrectTrue => self.correct_true += 1,
            Outcome::CorrectFalse => self.correct_false += 1,
            Outcome::IncorrectTrue | Outcome::IncorrectFalse => self.incorrect += 1,
            Outcome::Unknown => self.unknown += 1,
        }
    }
}

/// The merged result of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Every task's result, in suite (name) order — shard-invariant.
    pub results: Vec<TaskResult>,
    /// Shard count the run used.
    pub shards: usize,
    /// Total wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Summed per-task content-addressed store counters.
    pub cas: CasStats,
    /// Summed per-task remote-tier counters (all zero without a remote).
    pub remote: RemoteStats,
    /// Workers respawned after dying mid-task (capped per shard).
    pub respawns: u64,
}

impl SuiteReport {
    /// Builds a report from merged, suite-ordered results.
    pub fn new(
        results: Vec<TaskResult>,
        shards: usize,
        wall_ms: f64,
        respawns: u64,
    ) -> SuiteReport {
        let mut cas = CasStats::default();
        let mut remote = RemoteStats::default();
        for r in &results {
            cas.add(&r.cas);
            remote.add(&r.remote);
        }
        SuiteReport { results, shards, wall_ms, cas, remote, respawns }
    }

    /// The score counters for one category.
    pub fn row(&self, category: Category) -> ScoreRow {
        let mut row = ScoreRow::default();
        for r in self.results.iter().filter(|r| r.category == category) {
            row.absorb(r);
        }
        row
    }

    /// The score counters across every task.
    pub fn total(&self) -> ScoreRow {
        let mut row = ScoreRow::default();
        for r in &self.results {
            row.absorb(r);
        }
        row
    }

    /// Total incorrect verdicts (the hard acceptance bar is 0).
    pub fn incorrect(&self) -> usize {
        self.total().incorrect
    }

    /// Renders the per-category score table. Deterministic: identical for
    /// any shard count and any store state (no timing, no CAS counters —
    /// those go to [`SuiteReport::render_timing`] on stderr).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<18} {:>6} {:>13} {:>14} {:>10} {:>8} {:>7}",
            "category", "tasks", "correct-true", "correct-false", "incorrect", "unknown", "score"
        );
        let mut write_row = |label: &str, row: &ScoreRow| {
            let _ = writeln!(
                s,
                "{:<18} {:>6} {:>13} {:>14} {:>10} {:>8} {:>7}",
                label,
                row.tasks,
                row.correct_true,
                row.correct_false,
                row.incorrect,
                row.unknown,
                row.score
            );
        };
        for c in Category::all() {
            let row = self.row(*c);
            if row.tasks > 0 {
                write_row(c.label(), &row);
            }
        }
        write_row("total", &self.total());
        s
    }

    /// Renders the per-task verdict listing (deterministic, suite order).
    pub fn render_verdicts(&self) -> String {
        let mut s = String::new();
        for r in &self.results {
            let detail = match r.verdict {
                Verdict::Unknown(reason) => format!(" ({})", reason.label()),
                _ => String::new(),
            };
            let _ = writeln!(
                s,
                "{} {} expect={} verdict={}{} {} {:+}",
                r.name,
                r.category.label(),
                match r.expect {
                    Expected::True => "true",
                    Expected::False => "false",
                },
                r.verdict.label(),
                detail,
                r.outcome.label(),
                r.outcome.points()
            );
        }
        s
    }

    /// Renders the non-deterministic run summary (timing and store
    /// counters), kept off the deterministic stream.
    pub fn render_timing(&self) -> String {
        let total = self.total();
        let mut s = String::new();
        let respawned = if self.respawns > 0 {
            format!(", {} worker respawn(s)", self.respawns)
        } else {
            String::new()
        };
        let _ = writeln!(
            s,
            "{} tasks across {} shard(s) in {:.1} ms (score {}){respawned}",
            total.tasks, self.shards, self.wall_ms, total.score
        );
        let probes = self.cas.hits + self.cas.misses;
        let rate = if probes > 0 { self.cas.hits as f64 / probes as f64 * 100.0 } else { 0.0 };
        // Hits and misses lead each line; the rest follow their listing.
        let _ = writeln!(
            s,
            "cas: {} hits / {} misses ({rate:.1}% hit rate), {}",
            self.cas.hits,
            self.cas.misses,
            stats::text(self.cas.counters().skip(2))
        );
        if !self.remote.is_empty() {
            let r = &self.remote;
            let rest = stats::text(r.counters().skip(2));
            let _ = writeln!(s, "remote: {} hits / {} misses, {rest}", r.hits, r.misses);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(kinds: &[&str]) -> TaskOutput {
        TaskOutput {
            kinds: kinds.iter().map(|s| (*s).to_owned()).collect(),
            ..TaskOutput::default()
        }
    }

    #[test]
    fn verdicts_respect_category_scopes() {
        // A leak refutes memtrack and memsafety, but not deref.
        let leak = out(&["mustfree"]);
        assert_eq!(verdict_for(Category::Memtrack, &leak), Verdict::False);
        assert_eq!(verdict_for(Category::Memsafety, &leak), Verdict::False);
        assert_eq!(verdict_for(Category::Deref, &leak), Verdict::True);
        // Budget and internal dominate.
        let mut b = out(&["mustfree"]);
        b.budget = true;
        assert_eq!(verdict_for(Category::Memtrack, &b), Verdict::Unknown(UnknownReason::Budget));
        let mut i = out(&[]);
        i.internal = true;
        assert_eq!(verdict_for(Category::Deref, &i), Verdict::Unknown(UnknownReason::Internal));
    }

    #[test]
    fn scoring_matches_svcomp_weights() {
        assert_eq!(outcome_for(Expected::True, Verdict::True).points(), 2);
        assert_eq!(outcome_for(Expected::False, Verdict::False).points(), 1);
        assert_eq!(outcome_for(Expected::False, Verdict::True).points(), -32);
        assert_eq!(outcome_for(Expected::True, Verdict::False).points(), -16);
        assert_eq!(
            outcome_for(Expected::True, Verdict::Unknown(UnknownReason::Timeout)).points(),
            0
        );
    }

    #[test]
    fn table_is_deterministic_and_counts_add_up() {
        let task = |name: &str, c, e| TaskSpec {
            name: name.to_owned(),
            text: String::new(),
            category: c,
            expect: e,
            max_steps: None,
            class: None,
        };
        let results = vec![
            TaskResult::score(&task("a", Category::Deref, Expected::True), &out(&[])),
            TaskResult::score(&task("b", Category::Deref, Expected::False), &out(&["nullderef"])),
            TaskResult::score(&task("c", Category::Memtrack, Expected::True), &out(&["mustfree"])),
            TaskResult::unknown(
                &task("d", Category::Free, Expected::False),
                UnknownReason::Timeout,
            ),
        ];
        let report = SuiteReport::new(results, 2, 12.5, 0);
        let total = report.total();
        assert_eq!(total.tasks, 4);
        assert_eq!(total.correct_true, 1);
        assert_eq!(total.correct_false, 1);
        assert_eq!(total.incorrect, 1);
        assert_eq!(total.unknown, 1);
        assert_eq!(total.score, 2 + 1 - 16);
        assert_eq!(report.incorrect(), 1);
        let t1 = report.render_table();
        let t2 = report.render_table();
        assert_eq!(t1, t2);
        assert!(t1.contains("valid-deref"));
        assert!(t1.contains("total"));
        assert!(!t1.contains("valid-memsafety"), "empty categories are omitted:\n{t1}");
        let v = report.render_verdicts();
        assert!(
            v.contains("d valid-free expect=false verdict=unknown (timeout) unknown +0"),
            "{v}"
        );
    }
}
