//! Deterministic adaptive allocation of Phase II trials.
//!
//! The paper's campaign spends `confirm_trials` on every iGoodlock cycle
//! uniformly. At fleet scale trials are the expensive resource, and the
//! precision layer gives the campaign a useful prior: every cycle carries
//! a feasibility verdict and score ([`df_igoodlock::CycleFeasibility`]).
//! [`allocate_trials`] turns that prior into a successive-halving-style
//! bandit loop:
//!
//! * `Infeasible`-scored cycles are **deferred**: they run only after
//!   every other cycle is done, with the same per-cycle ceiling, and are
//!   the first to go when the budget runs out. The verdict decides the
//!   order of trials, never whether they run: it holds only when the
//!   program's fork/join structure does not depend on the schedule, and
//!   no check on the trace can establish that.
//! * Rounds hand out doubling quanta of trials, highest-priority cycle
//!   first. Priority is the feasibility score shrunk by failures,
//!   `score / (1 + trials_run)` — the running `matched/ran` estimate of
//!   an unconfirmed cycle is `0/ran`, so every fruitless batch demotes
//!   the cycle against colder-but-untried ones.
//! * A cycle leaves the loop the moment a trial matches (confirmed — no
//!   further evidence needed) or when it reaches `confirm_trials`
//!   (exhausted, same per-cycle ceiling as the uniform campaign).
//! * An optional `total_budget` caps the campaign-wide spend.
//!
//! Determinism is the design constraint that matters: the allocator is
//! pure sequential logic over deterministic scores, trial batches within
//! a cycle run in trial-index order (trial `i` always uses seed
//! `phase2_seed_base + i`), and the executor reports the deterministic
//! sequential prefix of each batch. Consequently the allocation — which
//! cycles run, how many trials each got, in what order — is byte-for-byte
//! identical at any `jobs` value, and with no `total_budget` the set of
//! confirmed cycles provably equals the uniform campaign's (both run the
//! same seed prefix of every cycle until a match or the ceiling).

/// Per-cycle input to [`allocate_trials`]: the feasibility prior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleBudget {
    /// Index of the cycle in its Phase I report.
    pub cycle_index: usize,
    /// Feasibility score in `[0, 1]` (use `0.5` when unscored).
    pub score: f64,
    /// Whether the cycle was judged infeasible; such cycles are deferred
    /// until every other cycle is done.
    pub infeasible: bool,
}

/// What one executed batch of trials reported back to the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Trials actually run — the executor may stop a batch early at the
    /// first matching trial, reporting only the sequential prefix.
    pub ran: u32,
    /// Trials within `ran` that matched the target cycle.
    pub matched: u32,
}

/// Per-cycle output of [`allocate_trials`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocationOutcome {
    /// Index of the cycle in its Phase I report.
    pub cycle_index: usize,
    /// Total trials spent on this cycle.
    pub trials_run: u32,
    /// Matching trials observed.
    pub matched: u32,
    /// Whether the cycle was deferred as infeasible (it may still have
    /// run trials, unless the budget ran out first).
    pub deferred_infeasible: bool,
    /// Whether at least one trial matched.
    pub confirmed: bool,
}

/// Trials handed to each cycle in the first round; later rounds double
/// the quantum, so hot cycles confirm within a few rounds while cold
/// ones still probe cheaply.
const INITIAL_QUANTUM: u32 = 2;

/// Runs the adaptive allocation loop, calling
/// `run_batch(slot, start_trial, len)` to execute trials
/// `start_trial .. start_trial + len` of the cycle at input slot `slot`.
/// The executor must run batches in trial-index order and may truncate a
/// batch at its first matching trial (reporting the sequential prefix);
/// both properties hold for [`crate::TrialPool::run_trials`] campaigns.
///
/// Returns one [`AllocationOutcome`] per input, in input order.
pub fn allocate_trials<F>(
    cycles: &[CycleBudget],
    confirm_trials: u32,
    total_budget: Option<u32>,
    mut run_batch: F,
) -> Vec<AllocationOutcome>
where
    F: FnMut(usize, u32, u32) -> BatchResult,
{
    let mut outcomes: Vec<AllocationOutcome> = cycles
        .iter()
        .map(|c| AllocationOutcome {
            cycle_index: c.cycle_index,
            trials_run: 0,
            matched: 0,
            deferred_infeasible: c.infeasible,
            confirmed: false,
        })
        .collect();
    let slots = |infeasible: bool| {
        (0..cycles.len())
            .filter(|&i| cycles[i].infeasible == infeasible)
            .collect::<Vec<_>>()
    };
    // Every other cycle first; the infeasible ones get what is left.
    let mut active = slots(false);
    let mut deferred = slots(true);
    let mut budget_left = total_budget;
    let mut quantum = INITIAL_QUANTUM;
    while budget_left != Some(0) {
        if active.is_empty() {
            if deferred.is_empty() {
                break;
            }
            active = std::mem::take(&mut deferred);
            quantum = INITIAL_QUANTUM;
        }
        // Highest priority first; ties break toward the earlier cycle so
        // the order is total and deterministic.
        active.sort_by(|&a, &b| {
            let priority = |i: usize| cycles[i].score / (1.0 + f64::from(outcomes[i].trials_run));
            priority(b)
                .partial_cmp(&priority(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(cycles[a].cycle_index.cmp(&cycles[b].cycle_index))
        });
        let round: Vec<usize> = active.clone();
        for slot in round {
            let out = &outcomes[slot];
            let mut len = quantum.min(confirm_trials - out.trials_run);
            if let Some(left) = budget_left {
                len = len.min(left);
            }
            if len == 0 {
                // Only a drained budget can zero the batch (active cycles
                // always have headroom); the campaign is over.
                return outcomes;
            }
            let result = run_batch(slot, outcomes[slot].trials_run, len);
            debug_assert!(result.ran <= len, "executor ran more trials than asked");
            outcomes[slot].trials_run += result.ran;
            outcomes[slot].matched += result.matched;
            if let Some(left) = &mut budget_left {
                *left -= result.ran.min(*left);
            }
            if result.matched > 0 {
                outcomes[slot].confirmed = true;
            }
            if outcomes[slot].confirmed || outcomes[slot].trials_run >= confirm_trials {
                active.retain(|&i| i != slot);
            }
        }
        quantum = quantum.saturating_mul(2);
    }
    outcomes
}

/// Trials a uniform campaign would have spent on the same cycles, minus
/// what the adaptive one actually ran — the `trials_saved` counter.
pub fn trials_saved(outcomes: &[AllocationOutcome], confirm_trials: u32) -> u64 {
    let uniform = confirm_trials as u64 * outcomes.len() as u64;
    let spent: u64 = outcomes.iter().map(|o| u64::from(o.trials_run)).sum();
    uniform.saturating_sub(spent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(cycle_index: usize, score: f64) -> CycleBudget {
        CycleBudget {
            cycle_index,
            score,
            infeasible: false,
        }
    }

    /// An executor whose cycle at slot `s` matches on trial
    /// `first_match[s]` (`None` = never), truncating batches at the
    /// match like the pipeline does. Records every call.
    fn scripted(
        first_match: Vec<Option<u32>>,
        calls: std::rc::Rc<std::cell::RefCell<Vec<(usize, u32, u32)>>>,
    ) -> impl FnMut(usize, u32, u32) -> BatchResult {
        move |slot, start, len| {
            calls.borrow_mut().push((slot, start, len));
            match first_match[slot] {
                Some(m) if (start..start + len).contains(&m) => BatchResult {
                    ran: m - start + 1,
                    matched: 1,
                },
                _ => BatchResult {
                    ran: len,
                    matched: 0,
                },
            }
        }
    }

    fn infeasible(cycle_index: usize) -> CycleBudget {
        CycleBudget {
            cycle_index,
            score: 0.0,
            infeasible: true,
        }
    }

    #[test]
    fn infeasible_cycles_run_last() {
        let cycles = [infeasible(0), budget(1, 0.9)];
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let out = allocate_trials(
            &cycles,
            4,
            None,
            scripted(vec![Some(2), None], calls.clone()),
        );
        assert!(out[0].deferred_infeasible);
        assert!(!out[1].deferred_infeasible);
        assert_eq!(out[1].trials_run, 4, "feasible cycle still exhausts");
        assert_eq!(out[0].trials_run, 3, "deferred, not skipped");
        assert!(out[0].confirmed);
        let calls = calls.borrow();
        let first_deferred = calls.iter().position(|&(slot, _, _)| slot == 0).unwrap();
        assert!(
            calls[..first_deferred]
                .iter()
                .all(|&(slot, _, _)| slot == 1)
                && calls[first_deferred..]
                    .iter()
                    .all(|&(slot, _, _)| slot == 0),
            "the infeasible cycle ran before the other was done: {calls:?}"
        );
    }

    #[test]
    fn a_drained_budget_cuts_deferred_cycles_first() {
        let cycles = [infeasible(0), budget(1, 0.1), infeasible(2)];
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let out = allocate_trials(
            &cycles,
            4,
            Some(6),
            scripted(vec![None, None, None], calls.clone()),
        );
        assert_eq!(out[1].trials_run, 4);
        assert_eq!(out[0].trials_run + out[2].trials_run, 2);
        assert_eq!(out[0].trials_run, 2, "ties go to the earlier cycle");
        assert_eq!(trials_saved(&out, 4), 12 - 6);
    }

    #[test]
    fn uncapped_campaigns_match_uniform_confirmation() {
        // Cycle 0 never matches, cycle 1 matches on trial 5, cycle 2 on
        // trial 0. Without a budget every cycle must reach its verdict:
        // exhausted at confirm_trials, or confirmed at its first match.
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let cycles = [budget(0, 0.2), budget(1, 0.6), budget(2, 0.9)];
        let out = allocate_trials(
            &cycles,
            8,
            None,
            scripted(vec![None, Some(5), Some(0)], calls.clone()),
        );
        assert_eq!(out[0].trials_run, 8);
        assert!(!out[0].confirmed);
        assert_eq!(out[1].trials_run, 6, "stopped at its first match");
        assert!(out[1].confirmed);
        assert_eq!(out[2].trials_run, 1);
        assert!(out[2].confirmed);
        assert_eq!(trials_saved(&out, 8), 24 - 8 - 6 - 1);
    }

    #[test]
    fn higher_scores_probe_first() {
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let cycles = [budget(0, 0.1), budget(1, 0.9)];
        allocate_trials(&cycles, 4, None, scripted(vec![None, None], calls.clone()));
        let first = calls.borrow()[0];
        assert_eq!(first.0, 1, "the hot cycle gets the first batch");
        assert_eq!(first.1, 0);
    }

    #[test]
    fn total_budget_caps_the_spend() {
        let cycles = [budget(0, 0.5), budget(1, 0.5), budget(2, 0.5)];
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let out = allocate_trials(
            &cycles,
            100,
            Some(7),
            scripted(vec![None, None, None], calls.clone()),
        );
        let spent: u32 = out.iter().map(|o| o.trials_run).sum();
        assert_eq!(spent, 7);
    }

    #[test]
    fn allocation_is_deterministic() {
        let cycles = [budget(0, 0.4), budget(1, 0.4), budget(2, 0.7)];
        let run = || {
            let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let out = allocate_trials(
                &cycles,
                16,
                Some(20),
                scripted(vec![None, Some(3), None], calls.clone()),
            );
            let seen = calls.borrow().clone();
            (out, seen)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fruitless_batches_demote_a_hot_cycle() {
        // Cycle 0 starts hot but never matches; cycle 1 starts colder.
        // After enough fruitless batches on 0, cycle 1 must get probed
        // before 0 is fully exhausted (shrinking priority at work).
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let cycles = [budget(0, 0.9), budget(1, 0.5)];
        allocate_trials(&cycles, 64, None, scripted(vec![None, None], calls.clone()));
        let calls = calls.borrow();
        let first_for_1 = calls.iter().position(|&(s, _, _)| s == 1).unwrap();
        let last_for_0 = calls.iter().rposition(|&(s, _, _)| s == 0).unwrap();
        assert!(
            first_for_1 < last_for_0,
            "cycle 1 was starved until cycle 0 exhausted: {calls:?}"
        );
    }

    #[test]
    fn no_cycles_is_a_no_op() {
        let out = allocate_trials(&[], 10, Some(5), |_, _, _| unreachable!());
        assert!(out.is_empty());
        assert_eq!(trials_saved(&out, 10), 0);
    }
}
