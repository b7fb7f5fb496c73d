//! Service topology and tenant configuration.
//!
//! The semantic unit of partitioning is the **cell**: a fixed slice of
//! `nodes_per_cell` compute nodes with its own free pool and event queue.
//! A job runs entirely inside one cell; the placement layer balances work
//! across cells. **Shards** are executors: shard `s` owns a contiguous
//! range of cells and drains their queues as one event loop. Because the
//! cell layout (and the global event order — see `service`) never depends
//! on the shard count, reports are byte-identical across shard counts.

use std::ops::Range;

use cluster::{BreakerSpec, SchedulePolicy};
use dps_sim::{SimError, SimResult};

/// Per-tenant admission-control parameters.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (unique within a service).
    pub name: String,
    /// Fair-share weight: the deficit round-robin quantum, in node units,
    /// credited each scheduling visit. Must be at least 1.
    pub weight: u32,
    /// Backpressure bound: arrivals beyond this many queued jobs are
    /// rejected at admission. `0` means unbounded.
    pub max_pending: usize,
    /// Quota on concurrently running jobs. `0` means unbounded.
    pub max_inflight: usize,
}

impl TenantSpec {
    /// A tenant with the given weight and no quotas.
    pub fn new(name: impl Into<String>, weight: u32) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight,
            max_pending: 0,
            max_inflight: 0,
        }
    }

    /// Sets the pending-queue backpressure bound (`0` = unbounded).
    pub fn with_max_pending(mut self, max_pending: usize) -> TenantSpec {
        self.max_pending = max_pending;
        self
    }

    /// Sets the running-jobs quota (`0` = unbounded).
    pub fn with_max_inflight(mut self, max_inflight: usize) -> TenantSpec {
        self.max_inflight = max_inflight;
        self
    }
}

/// Topology and policy of one service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Nodes per cell. A job runs inside one cell, so this also caps the
    /// admissible per-job node request.
    pub nodes_per_cell: u32,
    /// Number of cells (fixed node-pool slices).
    pub cells: u32,
    /// Number of shard executors; each owns a contiguous cell range.
    /// Purely an execution grouping — results do not depend on it.
    pub shards: u32,
    /// Scheduling policy shared by every shard (rigid / malleable /
    /// elastic recovery), identical in meaning to the batch `ClusterSim`.
    pub policy: SchedulePolicy,
    /// Registered tenants; a `JobSpec.tenant` indexes this list.
    pub tenants: Vec<TenantSpec>,
    /// Optional circuit breaker around fork-based what-if scoring: when
    /// set, decisions whose session cost exceeds the budget count as
    /// breaches, and a tripped breaker falls back to profile-priced
    /// scoring until its deterministic cooldown elapses. `None` (the
    /// default) disables the breaker entirely.
    pub breaker: Option<BreakerSpec>,
}

impl ServiceConfig {
    /// A config with the given topology and policy and no tenants yet.
    pub fn new(nodes_per_cell: u32, cells: u32, shards: u32, policy: SchedulePolicy) -> Self {
        ServiceConfig {
            nodes_per_cell,
            cells,
            shards,
            policy,
            tenants: Vec::new(),
            breaker: None,
        }
    }

    /// Adds a tenant (builder style).
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Enables the what-if circuit breaker (builder style).
    pub fn with_breaker(mut self, spec: BreakerSpec) -> Self {
        self.breaker = Some(spec);
        self
    }

    /// Total nodes across all cells.
    pub fn total_nodes(&self) -> u32 {
        self.nodes_per_cell * self.cells
    }

    /// Validates the topology; every violation is a typed protocol error.
    pub fn validate(&self) -> SimResult<()> {
        if self.nodes_per_cell == 0 {
            return Err(SimError::protocol(
                "service needs at least one node per cell",
            ));
        }
        if self.cells == 0 {
            return Err(SimError::protocol("service needs at least one cell"));
        }
        if self.shards == 0 || self.shards > self.cells {
            return Err(SimError::protocol(format!(
                "shard count must be in 1..={} (cells), got {}",
                self.cells, self.shards
            )));
        }
        if self.tenants.is_empty() {
            return Err(SimError::protocol("service needs at least one tenant"));
        }
        for t in &self.tenants {
            if t.weight == 0 {
                return Err(SimError::protocol(format!(
                    "tenant '{}' needs a fair-share weight of at least 1",
                    t.name
                )));
            }
        }
        for (i, a) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|b| b.name == a.name) {
                return Err(SimError::protocol(format!(
                    "duplicate tenant name '{}'",
                    a.name
                )));
            }
        }
        if let Some(b) = &self.breaker {
            if b.trip_after == 0 {
                return Err(SimError::protocol("breaker trip_after must be at least 1"));
            }
            if b.max_steps_per_decision == 0 {
                return Err(SimError::protocol("breaker step budget must be at least 1"));
            }
        }
        Ok(())
    }

    /// Cells owned by shard `s`: a contiguous, balanced range. The union
    /// over shards covers `0..cells` in ascending cell order, so iterating
    /// shards then their cells visits cells in global order regardless of
    /// the shard count.
    pub fn shard_cells(&self, s: u32) -> Range<u32> {
        let c = u64::from(self.cells);
        let n = u64::from(self.shards);
        let s = u64::from(s);
        (s * c / n) as u32..((s + 1) * c / n) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cells: u32, shards: u32) -> ServiceConfig {
        ServiceConfig::new(4, cells, shards, SchedulePolicy::Rigid)
            .with_tenant(TenantSpec::new("t0", 1))
    }

    #[test]
    fn shard_ranges_cover_cells_in_order() {
        for cells in 1..=9 {
            for shards in 1..=cells {
                let c = cfg(cells, shards);
                let mut seen = Vec::new();
                for s in 0..shards {
                    let r = c.shard_cells(s);
                    seen.extend(r);
                }
                assert_eq!(seen, (0..cells).collect::<Vec<_>>(), "{cells}/{shards}");
            }
        }
    }

    #[test]
    fn shard_ranges_are_balanced() {
        let c = cfg(8, 3);
        let sizes: Vec<usize> = (0..3).map(|s| c.shard_cells(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&n| n == 2 || n == 3), "{sizes:?}");
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        assert!(cfg(4, 2).validate().is_ok());
        assert!(cfg(4, 0).validate().is_err());
        assert!(cfg(4, 5).validate().is_err());
        let mut no_tenants = cfg(4, 2);
        no_tenants.tenants.clear();
        assert!(no_tenants.validate().is_err());
        let zero_weight = cfg(4, 1).with_tenant(TenantSpec::new("z", 0));
        assert!(zero_weight.validate().is_err());
        let dup = cfg(4, 1).with_tenant(TenantSpec::new("t0", 2));
        assert!(dup.validate().is_err());
    }
}
