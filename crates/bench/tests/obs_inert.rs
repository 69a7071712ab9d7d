//! Differential proof that the ia-obs hooks are observably inert: running
//! a workload with the flight recorder + metrics enabled must produce a
//! bit-identical [`Observable`] snapshot (client view, virtual clock,
//! instruction and syscall totals) to the bare run. The hooks sit on the
//! scheduler hot path, the kernel trap entry, and the agent chain
//! dispatch — any accidental clock charge or state mutation shows up here.

use ia_workloads::runner::{run_workload_observed, AgentKind, SchedKind, Workload};

const ALL_AGENTS: [AgentKind; 7] = [
    AgentKind::None,
    AgentKind::Timex,
    AgentKind::Trace,
    AgentKind::Union,
    AgentKind::TimeSymbolic,
    AgentKind::DfsTrace,
    AgentKind::Profile,
];

fn profile_for(w: Workload) -> ia_kernel::MachineProfile {
    match w {
        Workload::Scribe => ia_kernel::VAX_6250,
        Workload::Make8 => ia_kernel::I486_25,
    }
}

#[test]
fn recorder_is_observably_inert_across_workloads_and_agents() {
    for workload in [Workload::Scribe, Workload::Make8] {
        for agent in ALL_AGENTS {
            let profile = profile_for(workload);
            let (bare_stats, bare_obs) =
                run_workload_observed(workload, profile, agent, SchedKind::Sliced, None);
            let (rec_stats, rec_obs) =
                run_workload_observed(workload, profile, agent, SchedKind::Sliced, Some(512));
            assert_eq!(
                bare_obs, rec_obs,
                "observable snapshot diverged under the recorder \
                 ({workload:?} / {agent:?})"
            );
            assert_eq!(
                bare_stats.virtual_ns, rec_stats.virtual_ns,
                "virtual clock diverged under the recorder \
                 ({workload:?} / {agent:?})"
            );
            assert_eq!(bare_stats.console, rec_stats.console);
            assert_eq!(bare_stats.outcome, rec_stats.outcome);
            assert_eq!(bare_stats.intercepted, rec_stats.intercepted);
        }
    }
}

#[test]
fn recorder_is_inert_under_the_reference_too() {
    let (bare_stats, bare_obs) = run_workload_observed(
        Workload::Scribe,
        ia_kernel::VAX_6250,
        AgentKind::Trace,
        SchedKind::Reference,
        None,
    );
    let (rec_stats, rec_obs) = run_workload_observed(
        Workload::Scribe,
        ia_kernel::VAX_6250,
        AgentKind::Trace,
        SchedKind::Reference,
        Some(256),
    );
    assert_eq!(bare_obs, rec_obs);
    assert_eq!(bare_stats.virtual_ns, rec_stats.virtual_ns);
}

/// A call no agent registered interest in must cross zero interposition
/// machinery: with the recorder on, the flat dispatch table sends it
/// straight to the kernel, so the ring must contain no `interpose` frame
/// for it.
#[test]
fn no_phantom_interpose_frames_on_bypassed_calls() {
    use ia_abi::Sysno;
    use ia_kernel::{KernelBuilder, ObsEvent, RunOutcome};
    use ia_workloads::micro::{self, MicroCall};

    let mut k = KernelBuilder::new().build();
    micro::setup(&mut k);
    let img = micro::loop_image(MicroCall::Getpid, 64);
    let pid = k.spawn_image(&img, &[b"st"], b"st");
    let mut router = ia_interpose::InterposedRouter::new();
    // Timex registers interest only in gettimeofday; getpid is bypassed.
    ia_interpose::wrap_process(&mut k, &mut router, pid, ia_agents::Timex::boxed(60), &[]);
    k.obs.enable(8192);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    let getpid = Sysno::Getpid.number();
    let mut dispatched = 0u64;
    for ev in k.obs.events() {
        match ev.event {
            ObsEvent::TrapDispatch { nr, .. } if nr == getpid => dispatched += 1,
            ObsEvent::LayerEnter { layer, nr, .. } | ObsEvent::LayerExit { layer, nr, .. } => {
                assert!(
                    !(nr == getpid && k.obs.layer_name(layer) == "interpose"),
                    "bypassed getpid produced a phantom interpose frame"
                );
            }
            _ => {}
        }
    }
    assert!(dispatched >= 64, "probe loop must actually have run");
    assert!(
        router.stats.passthrough >= 64,
        "bypassed calls must count as passthrough"
    );
}
