//! The workload abstraction every malleable application implements.
//!
//! The cluster server schedules jobs whose compute-node allocation varies
//! at iteration boundaries. What it needs from an application is exactly
//! what the paper's simulator produces: a **per-iteration dynamic-efficiency
//! profile** at any candidate allocation. The [`Workload`] trait captures
//! that contract, so the server is agnostic to whether the profile comes
//! from
//!
//! * a full dps-sim run of a real DPS application (`LuWorkload` /
//!   `StencilWorkload` in the `workload` crate), or
//! * the cheap analytic Amdahl model ([`PhaseWorkload`], wrapping the
//!   original [`Phase`] sequences).
//!
//! Profiles are deterministic for a given `(workload, node count)` pair, so
//! the server memoizes them in a [`ProfileCache`] — simulator-backed
//! scheduling costs one engine run per distinct allocation probed, not one
//! per scheduling decision.

use std::collections::VecDeque;
use std::hash::Hasher;

use desim::fxhash::{FxHashMap, FxHasher};
use desim::SimDuration;
use dps_sim::{SimError, SimResult};

use crate::efficiency::{EfficiencyProfile, IterationPoint};
use crate::server::Phase;
use crate::whatif::CandidateScore;

/// A malleable application the cluster server can schedule.
///
/// Implementations must be deterministic: two calls to [`Workload::profile`]
/// with the same node count must return identical profiles, and two
/// workloads with equal [`Workload::key`]s must behave identically (the
/// server shares memoized profiles between them).
pub trait Workload: Send + Sync {
    /// Stable identity used to memoize profiles. Equal keys ⇒ identical
    /// profiles at every node count.
    fn key(&self) -> String;

    /// Number of iterations (phases) the application executes. Allocation
    /// changes happen only at iteration boundaries.
    fn iterations(&self) -> usize;

    /// Largest allocation [`Workload::profile`] accepts (e.g. the worker
    /// count of a DPS application). `u32::MAX` means "no intrinsic cap".
    fn max_nodes(&self) -> u32;

    /// Per-iteration dynamic-efficiency profile of a complete run at a
    /// fixed allocation of `nodes` compute nodes (`1..=max_nodes`). The
    /// returned profile has exactly [`Workload::iterations`] points.
    /// Simulator-backed implementations surface the run's typed failure
    /// (deadlock, blown budget, …) instead of panicking.
    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile>;

    /// Executes the application **once** with the allocation varying per
    /// iteration (`allocs[k]` nodes during iteration `k`;
    /// `allocs.len() == iterations`), using the backend's real dynamic
    /// reallocation machinery (DPS thread removal for the simulator-backed
    /// workloads). Returns `Ok(None)` when the backend cannot realize the
    /// schedule in a single run (e.g. a growing allocation under a
    /// removal-only mechanism), `Err` when the realization run itself
    /// failed.
    fn realize(&self, allocs: &[u32]) -> SimResult<Option<EfficiencyProfile>> {
        let _ = allocs;
        Ok(None)
    }

    /// Opens a live what-if session for one job instance starting on
    /// `start_nodes` nodes: a warm paused simulation the scheduler can
    /// advance barrier-by-barrier and fork into candidate futures (see
    /// [`crate::whatif::WhatIfSession`]). Returns `Ok(None)` when the
    /// backend cannot fork (the scheduler then falls back to
    /// profile-suffix scoring), `Err` when opening the run itself failed.
    fn whatif_session(
        &self,
        start_nodes: u32,
    ) -> SimResult<Option<Box<dyn crate::whatif::WhatIfSession>>> {
        let _ = start_nodes;
        Ok(None)
    }
}

/// The analytic Amdahl backend: a [`Phase`] sequence as a [`Workload`].
///
/// This is the original `ClusterSim` job model, kept as the cheap third
/// backend beside the simulator-backed LU and stencil workloads — profiles
/// cost a few multiplications instead of an engine run.
#[derive(Clone, Debug)]
pub struct PhaseWorkload {
    phases: Vec<Phase>,
    key: String,
}

impl PhaseWorkload {
    /// Wraps a phase sequence. The memo key is derived from the phase data,
    /// so structurally identical jobs share cached profiles.
    pub fn new(phases: Vec<Phase>) -> PhaseWorkload {
        assert!(!phases.is_empty(), "workload needs at least one phase");
        let mut h = FxHasher::default();
        for p in &phases {
            h.write_u64(p.work.as_nanos());
            h.write_u64(p.parallel_fraction.to_bits());
        }
        PhaseWorkload {
            key: format!("phases:{:016x}", h.finish()),
            phases,
        }
    }

    /// The wrapped phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    fn point(&self, k: usize, nodes: u32) -> IterationPoint {
        let p = &self.phases[k];
        IterationPoint {
            label: format!("iter:{}", k + 1),
            span: p.duration_on(nodes),
            cpu_work: p.work,
            efficiency: p.efficiency_on(nodes),
        }
    }
}

impl Workload for PhaseWorkload {
    fn key(&self) -> String {
        self.key.clone()
    }

    fn iterations(&self) -> usize {
        self.phases.len()
    }

    fn max_nodes(&self) -> u32 {
        u32::MAX
    }

    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        if nodes < 1 {
            return Err(SimError::protocol("profile at zero nodes"));
        }
        Ok(EfficiencyProfile {
            points: (0..self.phases.len())
                .map(|k| self.point(k, nodes))
                .collect(),
        })
    }

    fn realize(&self, allocs: &[u32]) -> SimResult<Option<EfficiencyProfile>> {
        if allocs.len() != self.phases.len() {
            return Err(SimError::protocol(format!(
                "realize schedule has {} entries for {} phases",
                allocs.len(),
                self.phases.len()
            )));
        }
        Ok(Some(EfficiencyProfile {
            points: allocs
                .iter()
                .enumerate()
                .map(|(k, &n)| self.point(k, n))
                .collect(),
        }))
    }
}

/// Default capacity of a [`ProfileCache`] (distinct profiles held).
pub const DEFAULT_PROFILE_CAPACITY: usize = 4096;

/// How many candidate scores are held per profile-capacity unit (scores
/// are a few words each; profiles are whole point vectors).
const SCORES_PER_PROFILE: usize = 16;

/// Memoized `(workload key, node count) → profile` store, plus a
/// fingerprint-keyed memo of what-if [`CandidateScore`]s.
///
/// Keyed with the simulator's [`FxHasher`] maps (the hot-map convention of
/// the engine crates): profile lookups sit on the server's event-loop hot
/// path, once per scheduling probe.
///
/// Both memos are **bounded**: once `capacity` profiles (or
/// `capacity × 16` scores) are held, the oldest entry *by insertion
/// order* is evicted first. Insertion order is part of the deterministic
/// event order, so the hit/miss/eviction counters — and everything
/// downstream of a recomputed profile — are identical across shard
/// counts.
pub struct ProfileCache {
    map: FxHashMap<(String, u32), EfficiencyProfile>,
    order: VecDeque<(String, u32)>,
    scores: FxHashMap<u64, CandidateScore>,
    score_order: VecDeque<u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for ProfileCache {
    fn default() -> ProfileCache {
        ProfileCache::new()
    }
}

impl ProfileCache {
    /// An empty cache at [`DEFAULT_PROFILE_CAPACITY`].
    pub fn new() -> ProfileCache {
        ProfileCache::with_capacity(DEFAULT_PROFILE_CAPACITY)
    }

    /// An empty cache holding at most `capacity` profiles (floored at 1)
    /// and `capacity × 16` candidate scores, evicting the oldest inserted
    /// entry once full.
    pub fn with_capacity(capacity: usize) -> ProfileCache {
        ProfileCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            scores: FxHashMap::default(),
            score_order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of distinct `(workload, node count)` profiles currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.scores.is_empty()
    }

    /// Profile capacity (scores get 16× this).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of candidate scores currently memoized.
    pub fn scores_len(&self) -> usize {
        self.scores.len()
    }

    /// Lookups (profiles and scores) served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compute (and store) a fresh entry.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries (profiles and scores) evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// A memoized candidate score (see
    /// [`crate::whatif::score_fingerprint`]); counts as a hit when
    /// present, a miss when absent (the caller computes and
    /// [`ProfileCache::insert_score`]s it).
    pub fn score(&mut self, fingerprint: u64) -> Option<CandidateScore> {
        match self.scores.get(&fingerprint) {
            Some(s) => {
                self.hits += 1;
                Some(*s)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoizes a computed candidate score, evicting the oldest score
    /// first when full. Re-inserting an existing fingerprint updates in
    /// place.
    pub fn insert_score(&mut self, fingerprint: u64, score: CandidateScore) {
        if self.scores.insert(fingerprint, score).is_some() {
            return;
        }
        self.score_order.push_back(fingerprint);
        let cap = self.capacity.saturating_mul(SCORES_PER_PROFILE);
        while self.scores.len() > cap {
            let oldest = self.score_order.pop_front().expect("scores tracked");
            self.scores.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// The profile of `w` at `nodes`, computing and memoizing it on first
    /// use. Failures are *not* memoized — a later retry recomputes.
    pub fn profile(&mut self, w: &dyn Workload, nodes: u32) -> SimResult<&EfficiencyProfile> {
        let key = (w.key(), nodes);
        if !self.map.contains_key(&key) {
            self.misses += 1;
            let p = w
                .profile(nodes)
                .map_err(|e| e.context(format!("profiling workload {} at {nodes} nodes", key.0)))?;
            if p.points.len() != w.iterations() {
                return Err(SimError::protocol(format!(
                    "workload {} profile at {nodes} nodes has {} points for {} iterations",
                    key.0,
                    p.points.len(),
                    w.iterations()
                )));
            }
            while self.map.len() >= self.capacity {
                let oldest = self.order.pop_front().expect("profiles tracked");
                self.map.remove(&oldest);
                self.evictions += 1;
            }
            self.order.push_back(key.clone());
            self.map.insert(key.clone(), p);
        } else {
            self.hits += 1;
        }
        Ok(self.map.get(&key).expect("just ensured"))
    }

    /// One iteration's point of `w` at `nodes` (cloned out of the cache).
    pub fn point(
        &mut self,
        w: &dyn Workload,
        nodes: u32,
        iter: usize,
    ) -> SimResult<IterationPoint> {
        Ok(self.profile(w, nodes)?.points[iter].clone())
    }

    /// Predicted dynamic efficiency of iteration `iter` of `w` at `nodes`.
    pub fn efficiency(&mut self, w: &dyn Workload, nodes: u32, iter: usize) -> SimResult<f64> {
        Ok(self.profile(w, nodes)?.points[iter].efficiency)
    }
}

/// Seeded random workload generation for scheduler studies.
///
/// Generates `count` LU-like analytic jobs with xorshift-seeded arrivals,
/// sizes and node requests — a reproducible scheduler-study workload on the
/// [`PhaseWorkload`] backend.
pub fn random_jobs(count: usize, max_nodes: u32, seed: u64) -> Vec<crate::server::Job> {
    use crate::server::{lu_like_job, Job};
    use desim::SimTime;

    // Splitmix-style seeding so adjacent seeds diverge immediately.
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut t = 0u64;
    (0..count)
        .map(|i| {
            t += next() % 120; // inter-arrival up to 2 minutes
            let nodes = 1 + (next() % u64::from(max_nodes)) as u32;
            let work = 200 + next() % 1800;
            let phases = 4 + (next() % 8) as usize;
            Job::from_phases(
                format!("job{i}"),
                SimTime(t * 1_000_000_000),
                nodes,
                lu_like_job(SimDuration::from_secs(work), phases),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::lu_like_job;

    #[test]
    fn phase_workload_profile_matches_analytic_model() {
        let phases = lu_like_job(SimDuration::from_secs(100), 6);
        let w = PhaseWorkload::new(phases.clone());
        assert_eq!(w.iterations(), 6);
        for nodes in [1u32, 4, 8] {
            let p = w.profile(nodes).unwrap();
            assert_eq!(p.points.len(), 6);
            for (k, pt) in p.points.iter().enumerate() {
                assert_eq!(pt.span, phases[k].duration_on(nodes));
                assert_eq!(pt.cpu_work, phases[k].work);
                assert!((pt.efficiency - phases[k].efficiency_on(nodes)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn phase_workload_realizes_any_schedule() {
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 4));
        let r = w
            .realize(&[4, 2, 4, 1])
            .expect("no run failure")
            .expect("analytic realize");
        assert_eq!(r.points.len(), 4);
        assert_eq!(r.points[1].span, w.phases()[1].duration_on(2));
    }

    #[test]
    fn keys_identify_structurally_equal_jobs() {
        let a = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let b = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let c = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(101), 5));
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn profile_cache_memoizes_per_workload_and_node_count() {
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let mut cache = ProfileCache::new();
        assert!(cache.is_empty());
        let e1 = cache.efficiency(&w, 4, 0).unwrap();
        let e2 = cache.efficiency(&w, 4, 0).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(cache.len(), 1);
        cache.efficiency(&w, 8, 0).unwrap();
        assert_eq!(cache.len(), 2);
        // A structurally identical workload hits the same entries.
        let w2 = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        cache.efficiency(&w2, 8, 2).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn profile_cache_counts_hits_and_misses() {
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        let mut cache = ProfileCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.profile(&w, 4).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.profile(&w, 4).unwrap();
        cache.point(&w, 4, 2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        cache.profile(&w, 8).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // A structurally identical workload hits the shared entry.
        let w2 = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 5));
        cache.profile(&w2, 8).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
    }

    #[test]
    fn profile_cache_evicts_oldest_insertion_first() {
        let w = PhaseWorkload::new(lu_like_job(SimDuration::from_secs(100), 3));
        let mut cache = ProfileCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.profile(&w, 1).unwrap();
        cache.profile(&w, 2).unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        // Third profile evicts the oldest (nodes=1), deterministically.
        cache.profile(&w, 3).unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        let misses = cache.misses();
        cache.profile(&w, 2).unwrap(); // survivor: hit
        assert_eq!(cache.misses(), misses);
        cache.profile(&w, 1).unwrap(); // evicted: recomputed
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn score_memo_is_bounded_and_counts() {
        use crate::whatif::CandidateScore;
        let mut cache = ProfileCache::with_capacity(1); // 16 scores
        assert!(cache.score(7).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert_score(
            7,
            CandidateScore {
                span_ns: 1,
                work_ns: 1,
                alloc_node_ns: 1,
            },
        );
        assert_eq!(cache.score(7).unwrap().span_ns, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        for fp in 100..120u64 {
            cache.insert_score(fp, CandidateScore::default());
        }
        assert_eq!(cache.scores_len(), 16);
        assert!(cache.evictions() > 0);
        // The earliest inserted fingerprints are the ones gone.
        assert!(cache.score(7).is_none());
        assert!(cache.score(119).is_some());
    }

    #[test]
    fn random_workloads_are_reproducible() {
        let a = random_jobs(10, 8, 42);
        let b = random_jobs(10, 8, 42);
        let c = random_jobs(10, 8, 43);
        assert_eq!(a.len(), 10);
        assert_eq!(
            a.iter().map(|j| j.arrival).collect::<Vec<_>>(),
            b.iter().map(|j| j.arrival).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|j| j.requested_nodes).collect::<Vec<_>>(),
            c.iter().map(|j| j.requested_nodes).collect::<Vec<_>>()
        );
        for j in &a {
            assert!(j.requested_nodes >= 1 && j.requested_nodes <= 8);
            assert!(j.workload.iterations() >= 1);
        }
    }
}
