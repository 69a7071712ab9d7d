//! Differential proof that the ia-obs hooks are observably inert: running
//! a workload with the flight recorder enabled must produce a bit-identical
//! [`Observable`] snapshot (client view, virtual clock, instruction and
//! syscall totals) to the bare run, and must take the same path through
//! the scheduler. The hooks sit on the scheduler hot path, the kernel trap
//! entry, and the agent chain dispatch — any accidental clock charge,
//! state mutation or path choice shows up here.

use ia_interpose::{Agent, InterposedRouter, RouterStats};
use ia_kernel::{Kernel, KernelBuilder, Observable, RunOutcome};
use ia_workloads::micro::{self, MicroCall};
use ia_workloads::runner::{run_workload_observed, AgentKind, SchedKind, Workload};

fn profile_for(w: Workload) -> ia_kernel::MachineProfile {
    match w {
        Workload::Scribe => ia_kernel::VAX_6250,
        Workload::Make8 => ia_kernel::I486_25,
    }
}

#[test]
fn recorder_is_observably_inert_across_workloads_and_agents() {
    for workload in [Workload::Scribe, Workload::Make8] {
        for agent in AgentKind::ALL {
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

/// Everything the scheduler's path choice leaves in the host-side
/// counters of a default-configuration run: in-loop answers and routed
/// fast-answerable traps per `(pid, nr)`, superinstructions executed,
/// slice turns, and what the router saw; plus the observable end state.
#[derive(Debug, PartialEq)]
struct PathTaken {
    fast: Vec<((ia_kernel::Pid, u32), (u64, u64))>,
    fusion: [u64; ia_vm::FUSED_KINDS],
    slices: u64,
    router: RouterStats,
    observable: Observable,
}

/// Spawns a run's program into a fresh kernel.
type Setup = fn(&mut Kernel) -> ia_kernel::Pid;
/// Builds the agent chain a run wraps its program in.
type Chain = fn() -> Vec<Box<dyn Agent>>;

/// Runs the program `setup` spawns on the default configuration, wrapped
/// in `chain`, with the recorder off (`None`) or on with that ring size.
fn default_path(recorder: Option<usize>, setup: Setup, chain: Chain) -> PathTaken {
    let mut k = KernelBuilder::new().profile(ia_kernel::VAX_6250).build();
    if let Some(cap) = recorder {
        k.obs.enable(cap);
    }
    let pid = setup(&mut k);
    let mut router = InterposedRouter::new();
    for agent in chain() {
        ia_interpose::wrap_process(&mut k, &mut router, pid, agent, &[]);
    }
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert!(
        k.fast_stats.hits() > 0,
        "the run must answer traps in the loop"
    );
    PathTaken {
        fast: k.fast_stats.rows(),
        fusion: k.fusion_stats.hits,
        slices: k.perf.slices,
        router: router.stats,
        observable: k.observable(),
    }
}

/// The recorder never changes which path a run takes: with it on, the
/// default configuration still runs bursts and answers `getpid` and
/// `gettimeofday` in the loop, so every host-side counter matches the
/// unrecorded run exactly.
#[test]
fn recorder_leaves_the_default_path_unchanged() {
    let scribe: Setup = |k| {
        ia_workloads::scribe::setup(k);
        k.spawn_image(&ia_workloads::scribe::image(), &[b"scribe"], b"scribe")
    };
    let getpid_loop: Setup = |k| {
        micro::setup(k);
        k.spawn_image(&micro::loop_image(MicroCall::Getpid, 512), &[b"m"], b"m")
    };
    let no_agent: Chain = Vec::new;
    // Timex intercepts only gettimeofday, so getpid stays in the loop.
    let timex: Chain = || vec![ia_agents::Timex::boxed(60) as Box<dyn Agent>];
    for (name, setup, chain) in [
        ("scribe", scribe, no_agent),
        ("getpid", getpid_loop, no_agent),
        ("getpid/timex", getpid_loop, timex),
    ] {
        let off = default_path(None, setup, chain);
        let on = default_path(Some(64), setup, chain);
        assert_eq!(off, on, "{name}: the recorder changed the path");
    }
}

/// A call no agent registered interest in must cross zero interposition
/// machinery: the router's interest test sends it straight to the kernel,
/// or the burst answers it in the loop, so the ring must contain no
/// `interpose` frame for it.
#[test]
fn no_phantom_interpose_frames_on_bypassed_calls() {
    use ia_abi::Sysno;
    use ia_kernel::ObsEvent;

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
    let answered = k.fast_stats.hits();
    assert!(
        dispatched + answered >= 64,
        "probe loop must actually have run ({dispatched} dispatched, {answered} answered)"
    );
    assert!(
        router.stats.passthrough >= 64,
        "bypassed calls must count as passthrough"
    );
}
