//! Differential test: the default configuration against the reference.
//!
//! The default kernel runs the fused engine with the trap fast path on: it
//! executes superinstructions, runs back-to-back turns in one burst, and
//! answers `getpid`/`gettimeofday` without leaving the VM loop. The
//! reference (`Engine::Plain`, fast path off) steps one instruction at a
//! time and routes every trap. None of the difference may be observable:
//! for every workload × agent row of the paper's Tables 3-2 and 3-3, both
//! must produce bit-identical virtual-clock totals, instruction counts,
//! console output, syscall totals and router statistics.

use ia_kernel::{Engine, KernelBuilder, I486_25, VAX_6250};
use ia_workloads::runner::run_workload_in;
use ia_workloads::{run_workload_with, AgentKind, SchedKind, Workload};

fn assert_default_matches_reference(workload: Workload, agent: AgentKind) {
    let profile = match workload {
        Workload::Scribe => VAX_6250,
        Workload::Make8 => I486_25,
    };
    let reference = run_workload_with(workload, profile, agent, SchedKind::Reference);
    let sliced = run_workload_with(workload, profile, agent, SchedKind::Sliced);
    let label = format!("{workload:?}/{}", agent.name());
    assert_eq!(
        reference.virtual_ns, sliced.virtual_ns,
        "{label}: virtual clock diverged"
    );
    assert_eq!(
        reference.total_insns, sliced.total_insns,
        "{label}: instruction totals diverged"
    );
    assert_eq!(
        reference.syscalls, sliced.syscalls,
        "{label}: syscall totals diverged"
    );
    assert_eq!(
        reference.intercepted, sliced.intercepted,
        "{label}: intercepted-trap counts diverged"
    );
    assert_eq!(
        reference.passthrough, sliced.passthrough,
        "{label}: passthrough-trap counts diverged"
    );
    assert_eq!(
        reference.outcome, sliced.outcome,
        "{label}: outcome diverged"
    );
    assert_eq!(
        reference.console, sliced.console,
        "{label}: console output diverged"
    );
}

#[test]
fn scribe_default_is_identical_to_the_reference() {
    for agent in AgentKind::TABLE_ROWS {
        assert_default_matches_reference(Workload::Scribe, agent);
    }
}

#[test]
fn make8_default_is_identical_to_the_reference() {
    for agent in AgentKind::TABLE_ROWS {
        assert_default_matches_reference(Workload::Make8, agent);
    }
}

/// The fast path only answers traps inside the fused burst, so on the
/// plain engine the knob must change nothing at all: not the observable
/// state, not what the router counted, not a single fast-path hit or miss.
#[test]
fn fast_path_is_inert_on_the_plain_engine() {
    for workload in [Workload::Scribe, Workload::Make8] {
        let profile = match workload {
            Workload::Scribe => VAX_6250,
            Workload::Make8 => I486_25,
        };
        for agent in AgentKind::ALL {
            let [on, off] = [true, false].map(|fast| {
                let mut k = KernelBuilder::new()
                    .profile(profile)
                    .engine(Engine::Plain)
                    .fast_path(fast)
                    .build();
                let (outcome, router) = run_workload_in(&mut k, workload, agent);
                (outcome, k.observable(), router.stats, k.fast_stats.rows())
            });
            let label = format!("{workload:?}/{}", agent.name());
            assert_eq!(on.0, off.0, "{label}: outcome diverged");
            assert_eq!(on.1, off.1, "{label}: observable state diverged");
            assert_eq!(on.2, off.2, "{label}: router statistics diverged");
            assert_eq!(on.3, off.3, "{label}: fast-path hit/miss rows diverged");
            assert!(
                on.3.iter().all(|&(_, (hits, _))| hits == 0),
                "{label}: the plain engine answered in the loop"
            );
        }
    }
}
