//! Sync-preserving partial-order feasibility scoring of predicted cycles.
//!
//! iGoodlock predicts cycles from lockset overlap alone, which is what
//! gives it predictive power — and what makes some predictions
//! unrealizable. The happens-before filter ([`crate::igoodlock_filtered`])
//! already *prunes* cycles whose hold windows are ordered by fork/join
//! edges;
//! this module layers a *scoring* pass on top of it, in the spirit of the
//! sync-preserving partial-order deadlock predictors: every predicted
//! cycle gets a verdict — [`Feasible`](FeasibilityVerdict::Feasible),
//! [`Infeasible`](FeasibilityVerdict::Infeasible), or
//! [`Unknown`](FeasibilityVerdict::Unknown) — plus a numeric score in
//! `[0, 1]` estimating how likely an active scheduler is to realize the
//! deadlock state.
//!
//! The verdicts are deliberately asymmetric in strength:
//!
//! * `Infeasible` is **sound**: it is produced only when two hold windows
//!   are ordered by fork/join happens-before, an ordering that holds in
//!   *every* execution of the program, not just the observed one. An
//!   infeasible cycle can therefore never be confirmed by any trial, and
//!   an allocator may skip it outright.
//! * `Feasible` is a *heuristic*: the windows may overlap under fork/join
//!   order, and the score ranks how close the observed schedule already
//!   came to overlapping them (observed window overlap, window gaps
//!   normalized by trace length, cycle width).
//! * `Unknown` means the relation carries no hold-window timings (it was
//!   built from bare tuples or merged from a fleet), so nothing can be
//!   said; the neutral score `0.5` keeps such cycles in the middle of
//!   any priority order.
//!
//! Everything the scorer reads — hold windows, their fork/join clocks,
//! the trace length — travels with the relation.
//!
//! **Precondition: fork/join structure does not depend on the schedule.**
//! If main spawns the second worker before joining the first only while
//! a flag the first sets in its critical section is unseen, the observed
//! run may order the windows while a trial does not, and confirm an
//! `Infeasible` cycle. The staged generator of
//! `tests/feasibility_soundness.rs` enforces the precondition; the same
//! file checks in that counterexample.

use std::collections::HashMap;
use std::fmt;

use df_events::Trace;
use serde::{Deserialize, Serialize};

use crate::cycle::Cycle;
use crate::relation::{DepTiming, LockDep, LockDependencyRelation};

/// The qualitative outcome of the feasibility check for one cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum FeasibilityVerdict {
    /// The hold windows may overlap in some execution consistent with
    /// fork/join order; the deadlock state is reachable as far as the
    /// partial order can tell.
    Feasible,
    /// Two hold windows are ordered by fork/join happens-before — an
    /// ordering that holds in every execution — so the deadlock state is
    /// provably unreachable and no trial can ever confirm the cycle.
    Infeasible,
    /// The relation carries no hold-window timings for this cycle (bare
    /// tuples, fleet merges), so feasibility cannot be judged.
    Unknown,
}

impl fmt::Display for FeasibilityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FeasibilityVerdict::Feasible => "Feasible",
            FeasibilityVerdict::Infeasible => "Infeasible",
            FeasibilityVerdict::Unknown => "Unknown",
        })
    }
}

/// The feasibility judgement for one predicted cycle: the verdict plus a
/// deterministic score in `[0, 1]` (0 = provably infeasible, 0.5 =
/// unknown, higher = the observed schedule came closer to overlapping
/// every pair of hold windows).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct CycleFeasibility {
    /// Index of the cycle in the Phase I report it was scored from.
    pub cycle_index: usize,
    /// The qualitative verdict.
    pub verdict: FeasibilityVerdict,
    /// The numeric score in `[0, 1]` used to seed trial allocation.
    pub score: f64,
}

impl fmt::Display for CycleFeasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (score {:.2})", self.verdict, self.score)
    }
}

/// Floor for feasible scores: even the coldest feasible cycle keeps a
/// nonzero priority so an adaptive allocator cannot starve it entirely.
const MIN_FEASIBLE_SCORE: f64 = 0.05;

/// The neutral score assigned to [`FeasibilityVerdict::Unknown`] cycles.
const UNKNOWN_SCORE: f64 = 0.5;

/// One-shot feasibility analysis of a Phase I run: a tuple→timing index
/// over the relation, whose timings carry the fork/join clocks.
///
/// # Example
///
/// ```
/// use df_events::Trace;
/// use df_igoodlock::{FeasibilityAnalysis, LockDependencyRelation};
///
/// let relation = LockDependencyRelation::from_trace(&Trace::default());
/// let analysis = FeasibilityAnalysis::from_relation(&relation);
/// assert!(analysis.score_cycles(&[]).is_empty());
/// ```
pub struct FeasibilityAnalysis<'a> {
    /// Timing of each deduplicated tuple, keyed by the tuple itself so a
    /// cycle component (which carries identical fields) can find it.
    timing_of: HashMap<&'a LockDep, &'a DepTiming>,
    /// Observed trace length, the normalizer for window gaps.
    trace_len: u64,
}

impl<'a> FeasibilityAnalysis<'a> {
    /// Builds the analysis from a relation and the timings it carries.
    pub fn from_relation(relation: &'a LockDependencyRelation) -> Self {
        let timing_of = relation
            .deps()
            .iter()
            .enumerate()
            .filter_map(|(i, dep)| Some((dep, relation.timing(i)?)))
            .collect();
        FeasibilityAnalysis {
            timing_of,
            trace_len: relation.events(),
        }
    }

    /// [`Self::from_relation`] under its former signature; the trace is
    /// not read. Kept only because the repository benchmark still calls
    /// it.
    #[doc(hidden)]
    pub fn new(_trace: &Trace, relation: &'a LockDependencyRelation) -> Self {
        Self::from_relation(relation)
    }

    /// Scores every cycle of a Phase I report, in report order.
    pub fn score_cycles(&self, cycles: &[Cycle]) -> Vec<CycleFeasibility> {
        cycles
            .iter()
            .enumerate()
            .map(|(i, c)| self.score_cycle(i, c))
            .collect()
    }

    /// Scores one cycle. `cycle_index` is echoed into the result so the
    /// judgement stays attached to its report entry.
    pub fn score_cycle(&self, cycle_index: usize, cycle: &Cycle) -> CycleFeasibility {
        let timings: Option<Vec<&DepTiming>> = cycle
            .components()
            .iter()
            .map(|c| {
                let dep = LockDep {
                    thread: c.thread,
                    thread_obj: c.thread_obj,
                    lockset: c.lockset.clone(),
                    lock: c.lock,
                    contexts: c.contexts.clone(),
                    mode: c.mode,
                    hold_modes: c.hold_modes.clone(),
                };
                self.timing_of.get(&dep).copied()
            })
            .collect();
        let Some(timings) = timings.filter(|t| !t.is_empty() && self.trace_len > 0) else {
            return CycleFeasibility {
                cycle_index,
                verdict: FeasibilityVerdict::Unknown,
                score: UNKNOWN_SCORE,
            };
        };

        // Sound pruning first: any fork/join-ordered window pair makes
        // the deadlock state unreachable in every execution.
        let mut overlap_frac_sum = 0.0;
        let mut gap_norm_sum = 0.0;
        let mut pairs = 0u32;
        for i in 0..timings.len() {
            for j in (i + 1)..timings.len() {
                let (a, b) = (timings[i], timings[j]);
                if !a.may_overlap(b) {
                    return CycleFeasibility {
                        cycle_index,
                        verdict: FeasibilityVerdict::Infeasible,
                        score: 0.0,
                    };
                }
                pairs += 1;
                let lo = a.window_start_seq.max(b.window_start_seq);
                let hi = a.acquire_seq.min(b.acquire_seq);
                if hi >= lo {
                    // The observed schedule already overlapped these
                    // windows; rate the overlap against the shorter one.
                    let shortest = (a.acquire_seq - a.window_start_seq)
                        .min(b.acquire_seq - b.window_start_seq)
                        .max(1);
                    overlap_frac_sum += ((hi - lo) as f64 / shortest as f64).min(1.0);
                } else {
                    // Observed windows were disjoint: the wider the gap
                    // relative to the trace, the colder the cycle.
                    gap_norm_sum += (lo - hi) as f64 / self.trace_len as f64;
                }
            }
        }
        let pairs_f = f64::from(pairs);
        let overlap_frac = overlap_frac_sum / pairs_f;
        let avg_gap_norm = gap_norm_sum / pairs_f;
        // Base optimism 0.55 (the scheduler actively steers toward the
        // windows), raised by observed overlap, lowered by observed gaps,
        // and diluted for wide cycles (all n windows must meet at once).
        let width_factor = 2.0 / cycle.len() as f64;
        let score = ((0.55 + 0.45 * overlap_frac - 0.25 * avg_gap_norm) * width_factor)
            .clamp(MIN_FEASIBLE_SCORE, 1.0);
        CycleFeasibility {
            cycle_index,
            verdict: FeasibilityVerdict::Feasible,
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleComponent;
    use df_events::{EventKind, Label, ObjKind, ThreadId};

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// Two threads running concurrently (no join between them) that
    /// acquire {a, b} in opposite nested order — Figure 1 in miniature.
    fn concurrent_cycle_trace() -> Trace {
        let mut trace = Trace::new();
        let main = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let t2 = ThreadId::new(2);
        for (t, site) in [(main, "<main>"), (t1, "spawn:1"), (t2, "spawn:2")] {
            let obj = trace
                .objects_mut()
                .create(ObjKind::Thread, l(site), None, vec![]);
            trace.bind_thread(t, obj);
        }
        let a = trace
            .objects_mut()
            .create(ObjKind::Lock, l("main:22"), None, vec![]);
        let b = trace
            .objects_mut()
            .create(ObjKind::Lock, l("main:23"), None, vec![]);
        trace.push(main, EventKind::ThreadStart);
        for t in [t1, t2] {
            trace.push(
                main,
                EventKind::Spawn {
                    child: t,
                    child_obj: trace.thread_obj(t).unwrap(),
                },
            );
        }
        trace.push(t1, EventKind::ThreadStart);
        trace.push(t2, EventKind::ThreadStart);
        trace.push(
            t1,
            EventKind::acquire(a, l("run:15"), vec![], vec![l("run:15")]),
        );
        trace.push(
            t1,
            EventKind::acquire(b, l("run:16"), vec![a], vec![l("run:15"), l("run:16")]),
        );
        trace.push(t1, EventKind::release(b, l("run:17")));
        trace.push(t1, EventKind::release(a, l("run:18")));
        trace.push(
            t2,
            EventKind::acquire(b, l("run:15"), vec![], vec![l("run:15")]),
        );
        trace.push(
            t2,
            EventKind::acquire(a, l("run:16"), vec![b], vec![l("run:15"), l("run:16")]),
        );
        trace
    }

    /// The same opposite-order acquisitions, but the first thread is
    /// joined before the second is spawned: the hold windows are ordered
    /// by fork/join happens-before in every execution.
    fn ordered_cycle_trace() -> Trace {
        let mut trace = Trace::new();
        let main = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let t2 = ThreadId::new(2);
        for (t, site) in [(main, "<main>"), (t1, "spawn:1"), (t2, "spawn:2")] {
            let obj = trace
                .objects_mut()
                .create(ObjKind::Thread, l(site), None, vec![]);
            trace.bind_thread(t, obj);
        }
        let a = trace
            .objects_mut()
            .create(ObjKind::Lock, l("main:22"), None, vec![]);
        let b = trace
            .objects_mut()
            .create(ObjKind::Lock, l("main:23"), None, vec![]);
        trace.push(main, EventKind::ThreadStart);
        trace.push(
            main,
            EventKind::Spawn {
                child: t1,
                child_obj: trace.thread_obj(t1).unwrap(),
            },
        );
        trace.push(t1, EventKind::ThreadStart);
        trace.push(
            t1,
            EventKind::acquire(a, l("run:15"), vec![], vec![l("run:15")]),
        );
        trace.push(
            t1,
            EventKind::acquire(b, l("run:16"), vec![a], vec![l("run:15"), l("run:16")]),
        );
        trace.push(t1, EventKind::release(b, l("run:17")));
        trace.push(t1, EventKind::release(a, l("run:18")));
        trace.push(t1, EventKind::ThreadExit);
        trace.push(main, EventKind::Join { target: t1 });
        trace.push(
            main,
            EventKind::Spawn {
                child: t2,
                child_obj: trace.thread_obj(t2).unwrap(),
            },
        );
        trace.push(t2, EventKind::ThreadStart);
        trace.push(
            t2,
            EventKind::acquire(b, l("run:15"), vec![], vec![l("run:15")]),
        );
        trace.push(
            t2,
            EventKind::acquire(a, l("run:16"), vec![b], vec![l("run:15"), l("run:16")]),
        );
        trace
    }

    /// The predicted cycle of either trace, built from the relation's own
    /// tuples so the analysis can map components back to timings.
    fn cycle_of(relation: &LockDependencyRelation) -> Cycle {
        let deps = relation.deps();
        assert_eq!(deps.len(), 2, "the test traces have exactly two tuples");
        Cycle::new(vec![
            CycleComponent::from(&deps[0]),
            CycleComponent::from(&deps[1]),
        ])
    }

    #[test]
    fn concurrent_opposite_order_scores_feasible() {
        let trace = concurrent_cycle_trace();
        let relation = LockDependencyRelation::from_trace(&trace);
        let analysis = FeasibilityAnalysis::from_relation(&relation);
        let fs = analysis.score_cycles(&[cycle_of(&relation)]);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].cycle_index, 0);
        assert_eq!(fs[0].verdict, FeasibilityVerdict::Feasible);
        assert!(
            fs[0].score >= MIN_FEASIBLE_SCORE && fs[0].score <= 1.0,
            "{}",
            fs[0].score
        );
    }

    #[test]
    fn fork_join_ordered_windows_score_infeasible() {
        let trace = ordered_cycle_trace();
        let relation = LockDependencyRelation::from_trace(&trace);
        let analysis = FeasibilityAnalysis::from_relation(&relation);
        let f = analysis.score_cycle(3, &cycle_of(&relation));
        assert_eq!(f.cycle_index, 3);
        assert_eq!(f.verdict, FeasibilityVerdict::Infeasible);
        assert_eq!(f.score, 0.0);
    }

    #[test]
    fn relation_without_timings_scores_unknown() {
        let trace = concurrent_cycle_trace();
        let with_timings = LockDependencyRelation::from_trace(&trace);
        // Rebuild from bare tuples: same cycle, no timings.
        let bare = LockDependencyRelation::from_deps(with_timings.deps().to_vec());
        assert!(bare.timing(0).is_none());
        let analysis = FeasibilityAnalysis::from_relation(&bare);
        let f = analysis.score_cycle(0, &cycle_of(&bare));
        assert_eq!(f.verdict, FeasibilityVerdict::Unknown);
        assert_eq!(f.score, UNKNOWN_SCORE);
    }

    #[test]
    fn scoring_is_deterministic() {
        let trace = concurrent_cycle_trace();
        let relation = LockDependencyRelation::from_trace(&trace);
        let cycle = cycle_of(&relation);
        let a = FeasibilityAnalysis::from_relation(&relation).score_cycle(0, &cycle);
        let b = FeasibilityAnalysis::from_relation(&relation).score_cycle(0, &cycle);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn verdicts_render_and_round_trip() {
        let f = CycleFeasibility {
            cycle_index: 2,
            verdict: FeasibilityVerdict::Infeasible,
            score: 0.0,
        };
        assert_eq!(f.to_string(), "Infeasible (score 0.00)");
        let json = serde_json::to_string(&f).unwrap();
        let back: CycleFeasibility = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
        assert_eq!(FeasibilityVerdict::Feasible.to_string(), "Feasible");
        assert_eq!(FeasibilityVerdict::Unknown.to_string(), "Unknown");
    }
}
