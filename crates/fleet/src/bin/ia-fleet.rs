//! `ia-fleet` — drive N tenant kernels across a work-stealing host pool.
//!
//! ```text
//! ia-fleet [--tenants N] [--threads T] [--seed S] [--quantum Q]
//!          [--pool P] [--bare] [--json]
//! ia-fleet --smoke
//! ```
//!
//! The default mode spins up `N` tenants (deterministic per-seed
//! workloads drawn from a pool of `P` distinct images installed in the
//! shared base), drives them to completion, and prints spin-up latency
//! and aggregate throughput.
//!
//! `--smoke` is the CI gate: 256 tenants, solo-vs-fleet determinism spot
//! checks, and a self-calibrating scaling ratio — the best aggregate
//! throughput at `min(8, host cores)` threads must reach at least `0.7 ×`
//! linear over the best single-threaded run of the same fleet, the two
//! run in alternating rounds. Last, the process's peak resident set
//! (`VmHWM`) must stay under 64 MiB; where `/proc` is absent the check
//! is skipped and says so.

use std::process::ExitCode;
use std::time::Instant;

use ia_fleet::workload::{self, host_threads, pool_base, pool_path, spawn_pool};
use ia_fleet::{solo_observable, Fleet, FleetReport};
use ia_kernel::ia_obs::report::Json;

/// The `--json` line: one run's throughput and exec-cache counters.
fn render_json(report: &FleetReport, spin_up_ns: f64, (hits, misses): (u64, u64)) -> String {
    Json::inline()
        .field("tenants", report.tenants)
        .field("threads", report.threads)
        .field("spin_up_ns_per_tenant", Json::fixed(spin_up_ns, 0))
        .field("wall_ms", Json::fixed(report.wall_ns as f64 / 1e6, 1))
        .field(
            "syscalls_per_sec",
            Json::fixed(report.syscalls_per_sec(), 0),
        )
        .field("insns_per_sec", Json::fixed(report.insns_per_sec(), 0))
        .field("turns", report.total_turns)
        .field("steals", report.steals)
        .field(
            "exec_cache",
            Json::inline().field("hits", hits).field("misses", misses),
        )
        .render()
}

fn smoke() -> ExitCode {
    const TENANTS: usize = 256;
    const POOL: usize = 16;
    /// Parallel/serial round pairs behind the scaling ratio.
    const ROUNDS: usize = 3;
    let threads = host_threads();
    let base = pool_base(POOL);
    let run = |threads| {
        let tenants = spawn_pool(&base, TENANTS, POOL, workload::tenant_agents);
        Fleet::new(threads).run(tenants)
    };

    // Determinism spot check: every 32nd tenant solo vs in-fleet. The
    // solo reference runs on a *private* base built identically to the
    // shared one (same image pool, its own exec cache) — base content is
    // part of the Observable (VFS digest, file counts), so it must match.
    let (results, first) = run(threads);
    for id in (0..TENANTS).step_by(32) {
        let (outcome, obs) = solo_observable(
            &pool_base(POOL),
            pool_path(id % POOL).as_bytes(),
            &[b"tenant"],
            workload::tenant_agents(),
            u64::MAX,
        );
        if results[id].outcome != outcome || results[id].obs != obs {
            eprintln!("smoke: FAIL tenant {id} diverged from its solo run");
            return ExitCode::FAILURE;
        }
    }

    // Scaling ratio: the same fleet at `threads` and at 1 thread, in
    // alternating rounds so both sides see the same host windows; the
    // best parallel rate over the best serial one.
    let mut par = first.syscalls_per_sec();
    let mut ser = 0f64;
    for round in 0..ROUNDS {
        if round > 0 {
            par = par.max(run(threads).1.syscalls_per_sec());
        }
        ser = ser.max(run(1).1.syscalls_per_sec());
    }
    let ratio = par / ser.max(1e-9);
    let floor = 0.7 * threads as f64;
    println!(
        "smoke: {TENANTS} tenants, {threads} threads, best of {ROUNDS} rounds: {par:.0} syscalls/s parallel vs {ser:.0} serial (ratio {ratio:.2}, floor {floor:.2})",
    );
    if threads > 1 && ratio < floor {
        eprintln!("smoke: FAIL scaling ratio {ratio:.2} under the {floor:.2} floor");
        return ExitCode::FAILURE;
    }

    // Memory gate: after seven 256-tenant fleets, this process's peak
    // resident set must stay small, since a tenant holds only the guest
    // memory it has written.
    match peak_rss_kib() {
        Some(kib) => {
            let mib = kib as f64 / 1024.0;
            println!("smoke: peak RSS {mib:.1} MiB (limit {PEAK_RSS_LIMIT_MIB} MiB)");
            if mib > PEAK_RSS_LIMIT_MIB as f64 {
                eprintln!("smoke: FAIL peak RSS {mib:.1} MiB over {PEAK_RSS_LIMIT_MIB} MiB");
                return ExitCode::FAILURE;
            }
        }
        None => println!("smoke: /proc/self/status has no VmHWM; peak RSS check skipped"),
    }
    println!("smoke: ok (determinism x8, scaling gate, memory gate)");
    ExitCode::SUCCESS
}

/// The smoke's peak resident-set ceiling.
const PEAK_RSS_LIMIT_MIB: u64 = 64;

/// This process's peak resident set in KiB (`VmHWM`), where the host has
/// a Linux-style `/proc`.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }

    let flag = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let tenants = flag("--tenants", 1_000) as usize;
    let threads = flag("--threads", host_threads() as u64) as usize;
    let seed = flag("--seed", 0x1af1_ee75_eed5);
    let quantum = flag("--quantum", 50_000);
    let pool = (flag("--pool", 16) as usize).clamp(1, tenants.max(1));
    let bare = args.iter().any(|a| a == "--bare");
    let json = args.iter().any(|a| a == "--json");

    let agents = if bare {
        workload::bare_agents
    } else {
        workload::tenant_agents
    };
    let base = pool_base(pool);
    let start = Instant::now();
    let fleet_tenants = spawn_pool(&base, tenants, pool, agents);
    let spin_up_ns = start.elapsed().as_nanos() as f64 / tenants.max(1) as f64;
    let (results, report) = Fleet::new(threads)
        .seed(seed)
        .quantum(quantum)
        .run(fleet_tenants);

    let exited = results
        .iter()
        .filter(|r| r.outcome == ia_kernel::RunOutcome::AllExited)
        .count();
    let (hits, misses) = (base.exec_cache.hits(), base.exec_cache.misses());
    if json {
        print!("{}", render_json(&report, spin_up_ns, (hits, misses)));
    } else {
        println!(
            "fleet: {} tenants on {} threads",
            report.tenants, report.threads
        );
        println!("  spin-up:   {spin_up_ns:.0} ns/tenant");
        println!("  wall:      {:.1} ms", report.wall_ns as f64 / 1e6);
        println!(
            "  syscalls:  {} ({:.0}/s)",
            report.total_syscalls,
            report.syscalls_per_sec()
        );
        println!(
            "  insns:     {} ({:.0}/s)",
            report.total_insns,
            report.insns_per_sec()
        );
        println!("  turns:     {} (quantum {quantum})", report.total_turns);
        println!("  steals:    {}", report.steals);
        println!("  exec cache: {hits} hits / {misses} misses");
        println!("  exited:    {exited}/{}", report.tenants);
    }
    if exited != report.tenants {
        eprintln!(
            "fleet: {} tenants did not run to exit",
            report.tenants - exited
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_matches_golden() {
        let report = FleetReport {
            tenants: 200,
            threads: 2,
            wall_ns: 42_123_456,
            total_syscalls: 23_017,
            total_insns: 7_466_123,
            total_turns: 249,
            steals: 26,
        };
        assert_eq!(
            render_json(&report, 30_771.4, (184, 16)),
            include_str!("../../tests/golden/fleet.json")
        );
    }
}
