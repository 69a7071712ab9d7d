//! Fleet determinism: a tenant's `Observable` must be bit-identical
//! between a solo run and any fleet run — regardless of thread count,
//! quantum size, or work stealing. Plus the static `Send` assertions
//! that underwrite moving kernels between host threads at all.

use ia_fleet::{solo_observable, workload, Fleet, FleetBase, Tenant};
use ia_interpose::Agent;
use ia_kernel::{ExecCache, Kernel, KernelBuilder, KernelSnapshot};
use ia_vfs::Fs;

/// Everything a fleet migrates (or shares) across host threads must be
/// `Send`. Compile-time only: if any of these regress to `Rc`/`RefCell`
/// internals, this file stops building.
#[test]
fn fleet_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Kernel>();
    assert_send::<Box<dyn Agent>>();
    assert_send::<KernelSnapshot>();
    assert_send::<Tenant>();
    assert_send::<ExecCache>();
    assert_send::<Fs>();
    assert_send::<KernelBuilder>();
}

/// The shared pieces (base VFS, exec cache) are additionally `Sync` —
/// many worker threads hold references concurrently.
#[test]
fn shared_base_types_are_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Fs>();
    assert_sync::<ExecCache>();
}

const SEEDS: usize = 32;
const POOL: usize = 32; // one distinct image per seed
const THREADS: usize = 8;

fn spawn_fleet(base: &FleetBase) -> Vec<Tenant> {
    workload::spawn_pool(base, SEEDS, POOL, workload::tenant_agents)
}

/// 32 distinct tenant seeds, run solo (private base, uninterrupted) and
/// in an 8-thread fleet with a deliberately tiny quantum (so every
/// tenant is preempted and requeued many times, and stealing actually
/// happens). Every tenant's outcome and `Observable` must match bit for
/// bit.
#[test]
fn thirty_two_seeds_solo_vs_eight_thread_fleet() {
    let base = workload::pool_base(POOL);
    let (results, report) = Fleet::new(THREADS).quantum(2_000).run(spawn_fleet(&base));
    assert_eq!(results.len(), SEEDS);
    // A tiny quantum must actually fragment the runs into many turns,
    // otherwise this test is not exercising preemption at all.
    assert!(
        report.total_turns > SEEDS as u64,
        "quantum too large to preempt"
    );

    for (i, r) in results.iter().enumerate() {
        let (outcome, obs) = solo_observable(
            &workload::pool_base(POOL),
            workload::pool_path(i).as_bytes(),
            &[b"tenant"],
            workload::tenant_agents(),
            u64::MAX,
        );
        assert_eq!(r.outcome, outcome, "tenant {i}: outcome diverged");
        assert_eq!(r.obs, obs, "tenant {i}: observable diverged from solo run");
    }
}

/// Same fleet, different schedules: thread counts and quanta are pure
/// host-side policy and must not leak into any tenant's `Observable`.
#[test]
fn schedule_policy_is_unobservable() {
    let base = workload::pool_base(POOL);
    let (a, _) = Fleet::new(1).quantum(u64::MAX).run(spawn_fleet(&base));
    let (b, _) = Fleet::new(THREADS).quantum(1_000).run(spawn_fleet(&base));
    let (c, _) = Fleet::new(3)
        .quantum(7_777)
        .seed(42)
        .run(spawn_fleet(&base));
    for i in 0..SEEDS {
        assert_eq!(a[i].obs, b[i].obs, "tenant {i}: 1-thread vs 8-thread");
        assert_eq!(a[i].obs, c[i].obs, "tenant {i}: 1-thread vs 3-thread");
        assert_eq!(a[i].outcome, b[i].outcome);
        assert_eq!(a[i].outcome, c[i].outcome);
    }
}

/// Distinct seeds must actually produce distinct observables — otherwise
/// the determinism assertions above are vacuous.
#[test]
fn seeds_produce_distinct_observables() {
    let base = workload::pool_base(POOL);
    let (results, _) = Fleet::new(2).run(spawn_fleet(&base));
    for w in results.windows(2) {
        assert_ne!(
            w[0].obs, w[1].obs,
            "adjacent seeds produced identical observables"
        );
    }
}
