//! The shared experiment environment: one place that wires
//! [`NetParams`] / [`TestbedParams`] / [`SimConfig`] / kernel cost models
//! together.
//!
//! This struct started life as `Env` in the bench crate and was copy-pasted
//! in spirit across the figure binaries and examples (every one re-built
//! the same `SimConfig { timing: ChargedOnly, … }` and
//! `NetParams::fast_ethernet()` pair). It now lives here so the bench
//! binaries, the examples, the scenario registry and the simulator-backed
//! workloads all share the exact same wiring.

use desim::SimDuration;
use dps_sim::{SimConfig, SimResult, TimingMode};
use lu_app::{measure_lu, predict_lu, DataMode, LuConfig, LuRun};
use netmodel::NetParams;
use perfmodel::{LuCost, PlatformProfile};
use stencil_app::{measure_stencil, predict_stencil, StencilConfig, StencilRun};
use testbed::TestbedParams;

use crate::apps::{LuWorkload, StencilWorkload};

/// Matrix order used throughout the paper's evaluation.
pub const N: usize = 2592;

/// The experiment environment: what the simulator believes (measured
/// platform parameters) and what the testbed really is.
pub struct SimEnv {
    /// Network parameters the simulator predicts with.
    pub net: NetParams,
    /// Ground-truth testbed the "measured" curves come from.
    pub tb: TestbedParams,
    /// LU kernel cost model for PDEXEC charges.
    pub cost: LuCost,
    /// Engine configuration shared by every run.
    pub simcfg: SimConfig,
    /// Root seed every stochastic ingredient of an experiment derives from
    /// (workload generators, fault schedules). Deliberately *not* part of
    /// the workload cache keys — profiles are deterministic given a config,
    /// so runs with different seeds still share memoized profiles.
    pub seed: u64,
}

/// Default root seed ([`SimEnv::paper`]); the `scenarios` binary's `--seed`
/// flag overrides it via [`SimEnv::paper_seeded`].
pub const DEFAULT_SEED: u64 = 42;

impl SimEnv {
    /// The paper's setup: UltraSparc II nodes on Fast Ethernet, at the
    /// default root seed.
    pub fn paper() -> SimEnv {
        SimEnv::paper_seeded(DEFAULT_SEED)
    }

    /// The paper's setup with an explicit root seed.
    pub fn paper_seeded(seed: u64) -> SimEnv {
        SimEnv {
            net: NetParams::fast_ethernet(),
            tb: TestbedParams::sun_cluster(),
            cost: LuCost::new(PlatformProfile::ultrasparc_ii_440()),
            simcfg: SimConfig {
                timing: TimingMode::ChargedOnly,
                step_overhead: SimDuration::from_micros(50),
                record_trace: false,
                ..SimConfig::default()
            },
            seed,
        }
    }

    /// Compatibility shim for the `perfbench` benchmark crate, its only
    /// caller: the engine is serial, so the one accepted value is 1 and the
    /// environment is returned unchanged.
    #[doc(hidden)]
    pub fn with_engine_threads(self, threads: usize) -> SimEnv {
        assert_eq!(threads, 1, "the simulator engine is single-threaded");
        self
    }

    /// Base LU configuration at the paper's matrix order, in fast
    /// PDEXEC/NOALLOC mode.
    pub fn lu(&self, r: usize, nodes: u32) -> LuConfig {
        self.lu_sized(N, r, nodes)
    }

    /// Base LU configuration at an arbitrary matrix order — the cluster
    /// server schedules many smaller applications rather than one
    /// paper-sized run.
    pub fn lu_sized(&self, n: usize, r: usize, nodes: u32) -> LuConfig {
        let mut cfg = LuConfig::new(n, r, nodes);
        cfg.mode = DataMode::Ghost;
        cfg.cost = Some(self.cost);
        cfg
    }

    /// Base stencil configuration in fast PDEXEC/NOALLOC mode.
    pub fn stencil(&self, n: usize, iters: usize, nodes: u32) -> StencilConfig {
        let mut cfg = StencilConfig::new(n, iters, nodes);
        cfg.mode = DataMode::Ghost;
        cfg
    }

    /// Predicts an LU run on the simulator.
    pub fn predict(&self, cfg: &LuConfig) -> SimResult<LuRun> {
        predict_lu(cfg, self.net, &self.simcfg)
    }

    /// "Measures" an LU run on the ground-truth testbed emulator.
    pub fn measure(&self, cfg: &LuConfig, seed: u64) -> SimResult<LuRun> {
        measure_lu(cfg, self.tb, seed, &self.simcfg)
    }

    /// Predicts a stencil run on the simulator.
    pub fn predict_stencil(&self, cfg: &StencilConfig) -> SimResult<StencilRun> {
        predict_stencil(cfg, self.net, &self.simcfg)
    }

    /// "Measures" a stencil run on the ground-truth testbed emulator.
    pub fn measure_stencil(&self, cfg: &StencilConfig, seed: u64) -> SimResult<StencilRun> {
        measure_stencil(cfg, self.tb, seed, &self.simcfg)
    }

    /// Wraps an LU configuration as a simulator-backed cluster
    /// [`cluster::Workload`].
    pub fn lu_workload(&self, cfg: LuConfig) -> LuWorkload {
        LuWorkload::new(cfg, self.net, self.simcfg.clone())
    }

    /// Wraps a stencil configuration as a simulator-backed cluster
    /// [`cluster::Workload`].
    pub fn stencil_workload(&self, cfg: StencilConfig) -> StencilWorkload {
        StencilWorkload::new(cfg, self.net, self.simcfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_env_wires_valid_configs() {
        let env = SimEnv::paper();
        env.lu(324, 8).validate().unwrap();
        env.lu_sized(288, 36, 4).validate().unwrap();
        env.stencil(256, 8, 8).validate().unwrap();
    }

    #[test]
    fn small_lu_prediction_runs() {
        let env = SimEnv::paper();
        let run = env.predict(&env.lu_sized(144, 36, 2)).unwrap();
        assert!(run.report.terminated);
        assert!(run.factorization_time > SimDuration::ZERO);
    }
}
