//! Fleet conformance: the work-stealing pool must be invisible.
//!
//! Every generated program that the serial oracle runs solo is also run
//! as one tenant among many on a multi-threaded [`Fleet`] — preempted
//! into quanta, migrated between workers, sharing the base VFS and exec
//! cache with every other tenant. Its outcome and complete `Observable`
//! (console, exit statuses, VFS digest, virtual clock, instruction and
//! syscall counts) must be bit-identical to the solo run. Any divergence
//! means host-side scheduling policy leaked into tenant semantics.

use ia_fleet::{Fleet, FleetBase, Tenant};
use ia_prng::Prng;

use crate::gen::{sample, OpSet, Program};
use crate::oracle::{describe_diff, run_stack, Observation, StackKind, MAX_STEPS};

/// Quantum for fleet-conformance runs: small enough that every generated
/// program is preempted and requeued many times.
const QUANTUM: u64 = 100;

/// Aggregate statistics from one fleet-conformance sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetStats {
    /// Tenants checked (one per seed).
    pub tenants: u64,
    /// Worker threads in the fleet.
    pub threads: usize,
    /// Total scheduling turns across the fleet (>> tenants proves the
    /// quantum actually fragmented the runs).
    pub turns: u64,
    /// Successful steals between workers.
    pub steals: u64,
}

/// The agent stack a seed's tenant runs under — rotated so the sweep
/// covers all four configurations (bare, full-interception, batched,
/// triple-stacked).
#[must_use]
pub fn fleet_stack(seed: u64) -> StackKind {
    match seed % 4 {
        0 => StackKind::Bare,
        1 => StackKind::Pass,
        2 => StackKind::Batched,
        _ => StackKind::Stacked,
    }
}

/// Builds the shared base every fleet-conformance tenant clones from:
/// the standard skeleton plus [`Program::setup`]'s fixtures — the exact
/// initial state the serial oracle's kernel sees.
#[must_use]
pub fn fleet_base() -> FleetBase {
    let mut base = FleetBase::new();
    base.decorate(Program::setup);
    base
}

/// Runs seeds `start..start + seeds` as parallel fleet tenants on
/// `threads` workers and checks each against its serial oracle run.
/// Returns the first divergence as `(seed, detail)`.
pub fn check_fleet(
    start: u64,
    seeds: u64,
    threads: usize,
    ops_min: usize,
    ops_max: usize,
) -> Result<FleetStats, (u64, String)> {
    let base = fleet_base();
    let mut programs = Vec::new();
    let mut tenants = Vec::new();
    for (i, seed) in (start..start + seeds).enumerate() {
        let mut rng = Prng::new(seed);
        let nops = rng.range_usize(ops_min, ops_max + 1);
        let program = sample(seed, nops, OpSet::ALL);
        tenants.push(Tenant::spawn(
            &base,
            i,
            &program.compile(),
            &[b"conform"],
            b"conform",
            fleet_stack(seed).agents(),
        ));
        programs.push((seed, program));
    }

    let (results, report) = Fleet::new(threads)
        .quantum(QUANTUM)
        .max_steps_total(MAX_STEPS)
        .run(tenants);

    for (i, (seed, program)) in programs.iter().enumerate() {
        let serial = run_stack(program, fleet_stack(*seed));
        let fleet = Observation {
            outcome: results[i].outcome.clone(),
            obs: results[i].obs.clone(),
            leaks: Vec::new(),
        };
        if let Some(d) = describe_diff("serial", &serial, "fleet", &fleet) {
            return Err((*seed, format!("fleet divergence: {d}")));
        }
        if !serial.leaks.is_empty() {
            return Err((
                *seed,
                format!("serial oracle left leaks: {:?}", serial.leaks),
            ));
        }
    }
    Ok(FleetStats {
        tenants: seeds,
        threads,
        turns: report.total_turns,
        steals: report.steals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_sweep_matches_serial_oracle() {
        let stats = check_fleet(0, 12, 4, 4, 30).unwrap_or_else(|(s, d)| panic!("seed {s}: {d}"));
        assert_eq!(stats.tenants, 12);
        assert!(stats.turns >= 12);
    }
}
