//! Fleet-scale measurement backing the `BENCH_3.json` fleet section.
//!
//! The multi-tenant fleet claim is twofold: tenants are cheap to spin up
//! (clone-from-base VFS, shared exec cache — no per-tenant decode) and
//! aggregate throughput scales with worker threads while every tenant
//! stays bit-identical to its solo run. This module measures both:
//!
//! * `spin_up_ns_per_tenant` — mean host nanoseconds to build one
//!   tenant world (kernel over the shared base + client spawn through
//!   the shared exec cache + agent wrap), at each fleet size.
//! * `syscalls_per_sec` / `insns_per_sec` — aggregate simulated-syscall
//!   and client-instruction throughput driving the whole fleet to
//!   completion on a work-stealing pool, at 1 thread and at
//!   `min(8, host cores)` threads.

use std::time::Instant;

use ia_fleet::{workload, Fleet};
use ia_obs::report::{Json, Layout};

/// Fleet sizes swept (tenant counts). The top size is the acceptance
/// bar: the pool must sustain 10k+ concurrent tenants.
pub const FLEET_SIZES: [usize; 3] = [100, 1_000, 10_000];

/// Distinct tenant binaries installed in the shared base.
const POOL: usize = 16;

/// One measured fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetSample {
    /// Concurrent tenants driven.
    pub tenants: usize,
    /// Worker threads in the pool.
    pub threads: usize,
    /// Mean host ns to spin up one tenant world.
    pub spin_up_ns_per_tenant: f64,
    /// Wall milliseconds to drive the whole fleet to completion.
    pub wall_ms: f64,
    /// Aggregate simulated syscalls per host second.
    pub syscalls_per_sec: f64,
    /// Aggregate client instructions per host second.
    pub insns_per_sec: f64,
    /// Successful work steals between workers.
    pub steals: u64,
}

/// Measures one (tenants, threads) point: spin-up, then drive.
fn measure(tenants: usize, threads: usize) -> FleetSample {
    let base = workload::pool_base(POOL);
    let t0 = Instant::now();
    let fleet = workload::spawn_pool(&base, tenants, POOL, workload::tenant_agents);
    let spin_up = t0.elapsed().as_nanos() as f64 / tenants.max(1) as f64;
    let (_, report) = Fleet::new(threads).run(fleet);
    FleetSample {
        tenants,
        threads,
        spin_up_ns_per_tenant: spin_up,
        wall_ms: report.wall_ns as f64 / 1e6,
        syscalls_per_sec: report.syscalls_per_sec(),
        insns_per_sec: report.insns_per_sec(),
        steals: report.steals,
    }
}

/// Sweeps [`FLEET_SIZES`] at 1 thread and at `min(8, host cores)`
/// threads (deduplicated on single-core hosts).
#[must_use]
pub fn run_all() -> Vec<FleetSample> {
    let par = workload::host_threads();
    let mut out = Vec::new();
    for tenants in FLEET_SIZES {
        out.push(measure(tenants, 1));
        if par > 1 {
            out.push(measure(tenants, par));
        }
    }
    out
}

/// Renders the `"fleet"` section of `BENCH_3.json`.
#[must_use]
pub fn render_section(samples: &[FleetSample]) -> Json {
    Json::array(
        Layout::Block,
        samples.iter().map(|f| {
            Json::inline()
                .field("tenants", f.tenants)
                .field("threads", f.threads)
                .field(
                    "spin_up_ns_per_tenant",
                    Json::fixed(f.spin_up_ns_per_tenant, 0),
                )
                .field("wall_ms", Json::fixed(f.wall_ms, 1))
                .field("syscalls_per_sec", Json::fixed(f.syscalls_per_sec, 0))
                .field("insns_per_sec", Json::fixed(f.insns_per_sec, 0))
                .field("steals", f.steals)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_point_measures() {
        let s = measure(32, 1);
        assert_eq!(s.tenants, 32);
        assert!(s.syscalls_per_sec > 0.0);
        assert!(s.spin_up_ns_per_tenant > 0.0);
    }
}
