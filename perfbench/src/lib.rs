//! The repository's benchmark: four workloads over the simulator and the
//! job service, end-to-end metrics from untraced runs, and a per-layer
//! split of host time from traced runs. See `README.md` in this directory.

pub mod heap;
pub mod layers;
pub mod lu_predict;
pub mod refclock;
pub mod report;
pub mod server;
mod split;

use report::Outcome;

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 4] = [
    "lu-predict",
    "server-scale",
    "server-whatif",
    "server-recover",
];

/// Runs workload `name` for about `seconds` of measurement; `small` selects
/// test-sized inputs. `None` for an unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool, small: bool) -> Option<Outcome> {
    let sizes = if small { &server::SMALL } else { &server::FULL };
    Some(match name {
        "lu-predict" => lu_predict::run(seed, seconds, trace, small),
        "server-scale" => server::run_scale(seed, seconds, trace, sizes),
        "server-whatif" => server::run_whatif(seed, seconds, trace, sizes),
        "server-recover" => server::run_recover(seed, seconds, trace, sizes),
        _ => return None,
    })
}
