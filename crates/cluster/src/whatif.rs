//! Fork-based what-if scheduling: candidate futures, integer scoring, and
//! the live-session contract.
//!
//! At a scheduling decision the server enumerates a handful of **candidate
//! futures** for the affected job — keep the current allocation, shrink to
//! the efficiency target, shrink to half, grow into free capacity, migrate
//! to another cell, or checkpoint now — scores each by **predicted dynamic
//! efficiency** (the paper's `work / (nodes · span)` metric over the
//! remaining iterations), and commits the winner.
//!
//! Three score sources share one [`CandidateScore`] representation:
//!
//! * **analytic** — closed-form Amdahl suffix sums (the service's scale
//!   path; no cache, no simulator),
//! * **profile** — suffix sums over a memoized fixed-allocation profile
//!   ([`profile_suffix`]), and
//! * **fork** — a real simulator run of the candidate's removal plan,
//!   forked from the job's live [`WhatIfSession`] at the current barrier
//!   ([`realized_suffix`] prices the realized profile's varying
//!   allocation).
//!
//! Scores are integer nanoseconds / node-nanoseconds, compared by
//! [`CandidateScore::beats`] with a strict deterministic order, and
//! memoized in the [`crate::ProfileCache`] under a
//! [`score_fingerprint`] keyed by workload identity, start allocation,
//! committed removal plan, barrier index and the candidate itself — so
//! repeated evaluations across decisions hit cache instead of re-running
//! the simulator.

use std::hash::Hasher;

use desim::fxhash::FxHasher;
use dps_sim::SimResult;

use crate::efficiency::EfficiencyProfile;
use crate::workload::{ProfileCache, Workload};

/// The kinds of candidate future a what-if decision considers. The `u32`
/// value doubles as the journal tag and the fingerprint discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateKind {
    /// Keep the current allocation.
    Keep = 0,
    /// Shrink to the efficiency-floor target.
    ShrinkTarget = 1,
    /// Shrink to half the current allocation.
    ShrinkHalf = 2,
    /// Grow into the cell's free nodes.
    Grow = 3,
    /// Move to another cell (pays a checkpoint + restart).
    Migrate = 4,
    /// Keep the allocation but take an extra checkpoint now.
    CheckpointNow = 5,
}

/// Integer score of one candidate future over a job's remaining
/// iterations. All fields are exact sums of profile integers, so scores —
/// and every comparison between them — are byte-deterministic across
/// shard counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidateScore {
    /// Predicted remaining wall time (ns).
    pub span_ns: u64,
    /// Serial work remaining (ns).
    pub work_ns: u64,
    /// Node·ns the candidate would allocate for that span.
    pub alloc_node_ns: u128,
}

impl CandidateScore {
    /// Predicted dynamic efficiency: remaining work over allocated
    /// node-time (`1.0` for an empty suffix — nothing left to waste).
    pub fn dynamic_efficiency(&self) -> f64 {
        if self.alloc_node_ns == 0 {
            1.0
        } else {
            self.work_ns as f64 / self.alloc_node_ns as f64
        }
    }

    /// Whether the candidate clears the policy's efficiency floor.
    pub fn clears(&self, min_eff: f64) -> bool {
        self.dynamic_efficiency() >= min_eff
    }

    /// Strict deterministic preference order: a floor-clearing candidate
    /// beats one below the floor; among floor-clearing candidates the
    /// shorter predicted span wins (finish sooner), ties to the cheaper
    /// allocation (free more nodes); among below-floor candidates the
    /// higher efficiency wins (waste less), ties to the shorter span.
    /// Exact ties return `false`, so the scan keeps the *first* candidate
    /// in enumeration order — enumeration order is part of the contract.
    pub fn beats(&self, other: &CandidateScore, min_eff: f64) -> bool {
        let (a, b) = (self.clears(min_eff), other.clears(min_eff));
        if a != b {
            return a;
        }
        if a {
            if self.span_ns != other.span_ns {
                return self.span_ns < other.span_ns;
            }
            self.alloc_node_ns < other.alloc_node_ns
        } else {
            // Integer cross-comparison of work/alloc ratios: exact, no f64.
            let lhs = u128::from(self.work_ns) * other.alloc_node_ns;
            let rhs = u128::from(other.work_ns) * self.alloc_node_ns;
            if lhs != rhs {
                return lhs > rhs;
            }
            self.span_ns < other.span_ns
        }
    }
}

/// Scores the suffix `points[from..]` of a fixed-allocation profile run at
/// `nodes` nodes — the "no fork available" predictor: what the remaining
/// iterations cost if the job runs them all at `nodes`.
pub fn profile_suffix(profile: &EfficiencyProfile, from: usize, nodes: u32) -> CandidateScore {
    let mut s = CandidateScore::default();
    for pt in profile.points.iter().skip(from) {
        let span = pt.span.as_nanos();
        s.span_ns = s.span_ns.saturating_add(span);
        s.work_ns = s.work_ns.saturating_add(pt.cpu_work.as_nanos());
        s.alloc_node_ns += u128::from(nodes.max(1)) * u128::from(span);
    }
    s
}

/// Scores the suffix `points[from..]` of a *realized* (fork-executed)
/// profile, pricing each iteration at the allocation the removal plan
/// leaves it: iteration `k` runs on `start_nodes` minus every plan entry
/// `(after, count)` with `after <= k` (the plan's 1-based "kill `count`
/// workers after iteration `after`" convention).
pub fn realized_suffix(
    profile: &EfficiencyProfile,
    start_nodes: u32,
    plan: &[(usize, u32)],
    from: usize,
) -> CandidateScore {
    let mut s = CandidateScore::default();
    for (k, pt) in profile.points.iter().enumerate().skip(from) {
        let removed: u32 = plan
            .iter()
            .filter(|&&(after, _)| after <= k)
            .map(|&(_, count)| count)
            .sum();
        let alloc = start_nodes.saturating_sub(removed).max(1);
        let span = pt.span.as_nanos();
        s.span_ns = s.span_ns.saturating_add(span);
        s.work_ns = s.work_ns.saturating_add(pt.cpu_work.as_nanos());
        s.alloc_node_ns += u128::from(alloc) * u128::from(span);
    }
    s
}

/// Fingerprint of one candidate evaluation for the score memo: workload
/// identity, start allocation, committed removal plan, decision barrier,
/// candidate allocation and a discriminant separating fork-realized from
/// profile-suffix semantics. Same fingerprint ⇒ same score by
/// construction, so hits can skip the simulator entirely.
pub fn score_fingerprint(
    workload_key: &str,
    start_nodes: u32,
    plan: &[(usize, u32)],
    barrier: usize,
    candidate_nodes: u32,
    tag: u32,
) -> u64 {
    let mut h = FxHasher::default();
    h.write(workload_key.as_bytes());
    h.write_u32(start_nodes);
    h.write_usize(plan.len());
    for &(after, count) in plan {
        h.write_usize(after);
        h.write_u32(count);
    }
    h.write_usize(barrier);
    h.write_u32(candidate_nodes);
    h.write_u32(tag);
    h.finish()
}

/// A job's live what-if session: a paused simulation advanced to the
/// job's current iteration barrier, from which candidate futures fork
/// without re-simulating the prefix. Implemented by
/// `workload::WhatIfEvaluator` over `SimCheckpoint::fork()`; the trait
/// lives here so `cluster-svc` can drive sessions without depending on
/// the app crates.
/// Sessions are engine-local (created and dropped inside one `serve`
/// call), so the trait is deliberately not `Send`: the underlying paused
/// simulation pins itself to the thread that runs the service loop.
pub trait WhatIfSession {
    /// Advances the warm base to (just before) 1-based barrier `barrier`.
    /// Barriers must be requested monotonically. Returns `false` when the
    /// underlying run finished first (the session is then exhausted).
    fn advance_to_barrier(&mut self, barrier: usize) -> SimResult<bool>;

    /// Forks the base and executes the full removal `plan` (entries at or
    /// before the current barrier having already executed in the base),
    /// returning the realized per-iteration profile. Requires a prior
    /// successful [`WhatIfSession::advance_to_barrier`].
    fn score_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<EfficiencyProfile>;

    /// Commits `plan` into the warm base so future forks inherit it. The
    /// plan replaces any previously committed plan.
    fn commit_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<()>;

    /// Cumulative deterministic cost of this session: committed simulator
    /// steps spent advancing the warm base plus every forked suffix. The
    /// service's circuit breaker charges each decision the delta of this
    /// counter — virtual work, never host wall time, so budget breaches are
    /// reproducible per seed. Sessions without a meaningful step notion
    /// report 0 (never breaching).
    fn steps_used(&self) -> u64 {
        0
    }
}

/// The batch server's what-if allocation choice: scores the candidate
/// set `{cap, efficiency target, half of cap, 1}` as constant-allocation
/// suffixes from iteration `iter` (memoized in `cache`) and returns the
/// winner under [`CandidateScore::beats`].
pub fn best_allocation(
    cache: &mut ProfileCache,
    w: &dyn Workload,
    iter: usize,
    cap: u32,
    min_eff: f64,
) -> SimResult<u32> {
    let cap = cap.max(1);
    let mut target = 1;
    for n in 1..=cap {
        if cache.efficiency(w, n, iter)? >= min_eff {
            target = n;
        }
    }
    let mut candidates = [cap, target, cap.div_ceil(2), 1];
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    let key = w.key();
    let mut best: Option<(u32, CandidateScore)> = None;
    let mut last = 0;
    for &m in &candidates {
        if m == last {
            continue; // deduped: sorted descending
        }
        last = m;
        let fp = score_fingerprint(&key, m, &[], iter, m, CandidateKind::Keep as u32);
        let score = match cache.score(fp) {
            Some(s) => s,
            None => {
                let s = profile_suffix(cache.profile(w, m)?, iter, m);
                cache.insert_score(fp, s);
                s
            }
        };
        let better = match &best {
            None => true,
            Some((_, b)) => score.beats(b, min_eff),
        };
        if better {
            best = Some((m, score));
        }
    }
    Ok(best.expect("at least one candidate").0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::IterationPoint;
    use crate::server::lu_like_job;
    use crate::workload::PhaseWorkload;
    use desim::SimDuration;

    fn profile_of(spans: &[(u64, u64)]) -> EfficiencyProfile {
        EfficiencyProfile {
            points: spans
                .iter()
                .enumerate()
                .map(|(k, &(span, work))| IterationPoint {
                    label: format!("iter:{}", k + 1),
                    span: SimDuration(span),
                    cpu_work: SimDuration(work),
                    efficiency: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn suffix_scores_sum_the_tail() {
        let p = profile_of(&[(100, 80), (50, 40), (25, 20)]);
        let s = profile_suffix(&p, 1, 4);
        assert_eq!(s.span_ns, 75);
        assert_eq!(s.work_ns, 60);
        assert_eq!(s.alloc_node_ns, 4 * 75);
        let empty = profile_suffix(&p, 3, 4);
        assert_eq!(empty, CandidateScore::default());
        assert_eq!(empty.dynamic_efficiency(), 1.0);
    }

    #[test]
    fn realized_suffix_prices_the_removal_plan() {
        // 8 nodes, plan kills 4 after iteration 1: iterations 0 at 8,
        // 1 and 2 at 4 (0-based index >= after).
        let p = profile_of(&[(100, 80), (100, 80), (100, 80)]);
        let s = realized_suffix(&p, 8, &[(1, 4)], 0);
        assert_eq!(s.alloc_node_ns, 8 * 100 + 4 * 100 + 4 * 100);
        // From iteration 2 only the shrunk tail remains.
        let tail = realized_suffix(&p, 8, &[(1, 4)], 2);
        assert_eq!(tail.alloc_node_ns, 4 * 100);
        // Removals can never price below one node.
        let floor = realized_suffix(&p, 2, &[(1, 5)], 2);
        assert_eq!(floor.alloc_node_ns, 100);
    }

    #[test]
    fn beats_is_a_strict_deterministic_order() {
        let fast_cheap = CandidateScore {
            span_ns: 100,
            work_ns: 90,
            alloc_node_ns: 100,
        };
        let fast_rich = CandidateScore {
            span_ns: 100,
            work_ns: 90,
            alloc_node_ns: 400,
        };
        let slow = CandidateScore {
            span_ns: 300,
            work_ns: 90,
            alloc_node_ns: 310,
        };
        // All clear a 0.1 floor: span first, then allocation.
        assert!(fast_cheap.beats(&slow, 0.1));
        assert!(fast_cheap.beats(&fast_rich, 0.1));
        assert!(!fast_rich.beats(&fast_cheap, 0.1));
        // A clearing candidate beats a non-clearing one regardless of span.
        let wasteful = CandidateScore {
            span_ns: 1,
            work_ns: 1,
            alloc_node_ns: 1000,
        };
        assert!(slow.beats(&wasteful, 0.25));
        assert!(!wasteful.beats(&slow, 0.25));
        // Below the floor, higher efficiency wins.
        let bad = CandidateScore {
            span_ns: 100,
            work_ns: 10,
            alloc_node_ns: 1000,
        };
        let worse = CandidateScore {
            span_ns: 50,
            work_ns: 10,
            alloc_node_ns: 4000,
        };
        assert!(bad.beats(&worse, 0.9));
        // Ties are not "beats": the first enumerated candidate stays.
        assert!(!fast_cheap.beats(&fast_cheap, 0.1));
    }

    #[test]
    fn fingerprints_separate_every_key_component() {
        let base = score_fingerprint("w", 8, &[(2, 4)], 3, 4, 0);
        assert_eq!(base, score_fingerprint("w", 8, &[(2, 4)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("x", 8, &[(2, 4)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 7, &[(2, 4)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 3)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 4)], 2, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 4)], 3, 5, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 4)], 3, 4, 2));
    }

    #[test]
    fn best_allocation_prefers_the_efficiency_target() {
        // The LU-like shape: late iterations parallelize worse, so the
        // scored winner should sit at or below the pointwise target and
        // never above the cap.
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 6));
        let mut cache = ProfileCache::new();
        for iter in 0..6 {
            let n = best_allocation(&mut cache, &w, iter, 8, 0.5).unwrap();
            assert!((1..=8).contains(&n));
        }
        // Memoized: a second pass over the same decisions is all hits.
        let misses = cache.misses();
        for iter in 0..6 {
            best_allocation(&mut cache, &w, iter, 8, 0.5).unwrap();
        }
        assert_eq!(cache.misses(), misses);
    }
}
