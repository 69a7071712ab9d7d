//! The measurement harness shared by tests, benches and the `reproduce`
//! binary: run a workload under a chosen agent, read the virtual clock.

use ia_agents::{DfsTraceAgent, ProfileAgent, TimeSymbolic, Timex, TraceAgent, UnionAgent};
use ia_interpose::InterposedRouter;
use ia_kernel::{Engine, Kernel, KernelBuilder, MachineProfile, Observable, RunOutcome};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Format-my-dissertation (Table 3-2; VAX profile).
    Scribe,
    /// Make-8-programs (Table 3-3; i486 profile).
    Make8,
}

/// Which agent to interpose, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentKind {
    /// No interposition (the "None" rows).
    None,
    /// The time-shifting agent.
    Timex,
    /// The call-tracing agent.
    Trace,
    /// Union directories (mounted over the workload's directories).
    Union,
    /// The null full-interception symbolic agent.
    TimeSymbolic,
    /// File-reference tracing.
    DfsTrace,
    /// Call counting.
    Profile,
}

impl AgentKind {
    /// Every kind.
    pub const ALL: [AgentKind; 7] = [
        AgentKind::None,
        AgentKind::Timex,
        AgentKind::Trace,
        AgentKind::Union,
        AgentKind::TimeSymbolic,
        AgentKind::DfsTrace,
        AgentKind::Profile,
    ];

    /// The kinds of the paper's table rows, in table order.
    pub const TABLE_ROWS: [AgentKind; 4] = [
        AgentKind::None,
        AgentKind::Timex,
        AgentKind::Trace,
        AgentKind::Union,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AgentKind::None => "None",
            AgentKind::Timex => "timex",
            AgentKind::Trace => "trace",
            AgentKind::Union => "union",
            AgentKind::TimeSymbolic => "time_symbolic",
            AgentKind::DfsTrace => "dfs_trace",
            AgentKind::Profile => "profile",
        }
    }
}

/// Which kernel configuration drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// The default `KernelBuilder`: fused engine, trap fast path on.
    Sliced,
    /// The differential reference: `Engine::Plain` with the fast path off,
    /// so every trap is routed and nothing is answered in-loop.
    Reference,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Virtual elapsed seconds.
    pub virtual_secs: f64,
    /// Virtual elapsed nanoseconds — exact, for differential comparison.
    pub virtual_ns: u64,
    /// Total instructions retired across all processes.
    pub total_insns: u64,
    /// Total system calls dispatched at the kernel.
    pub syscalls: u64,
    /// Traps intercepted by agents.
    pub intercepted: u64,
    /// Traps that bypassed agents (pay-per-use).
    pub passthrough: u64,
    /// Scheduler outcome.
    pub outcome: RunOutcome,
    /// Everything the workload wrote to the console.
    pub console: Vec<u8>,
}

/// Union mount specs used when benchmarking the union agent: overlay the
/// workload's directories, so most calls traverse the agent.
fn union_specs(w: Workload) -> Vec<Vec<u8>> {
    match w {
        Workload::Scribe => vec![
            b"/home/mbj/diss=/home/mbj/diss:/usr/lib/scribe".to_vec(),
            b"/usr/lib/scribe/fonts=/usr/lib/scribe/fonts:/usr/share".to_vec(),
        ],
        Workload::Make8 => vec![b"/usr/src/proj=/usr/src/proj:/tmp".to_vec()],
    }
}

/// Runs `workload` on `profile` under `agent`, returning the statistics.
#[must_use]
pub fn run_workload(workload: Workload, profile: MachineProfile, agent: AgentKind) -> RunStats {
    run_workload_with(workload, profile, agent, SchedKind::Sliced)
}

/// [`run_workload`] with an explicit configuration — the seam the
/// differential tests use to compare the default configuration against
/// the reference.
#[must_use]
pub fn run_workload_with(
    workload: Workload,
    profile: MachineProfile,
    agent: AgentKind,
    sched: SchedKind,
) -> RunStats {
    run_workload_observed(workload, profile, agent, sched, None).0
}

/// Like [`run_workload_with`], but optionally enables the ia-obs flight
/// recorder (with the given ring capacity) for the whole run and returns
/// the kernel's final [`Observable`] snapshot alongside the stats — the
/// seam the recorder-inertness differential test drives.
pub fn run_workload_observed(
    workload: Workload,
    profile: MachineProfile,
    agent: AgentKind,
    sched: SchedKind,
    recorder_capacity: Option<usize>,
) -> (RunStats, Observable) {
    let builder = KernelBuilder::new().profile(profile);
    let mut k = match sched {
        SchedKind::Sliced => builder.build(),
        SchedKind::Reference => builder.engine(Engine::Plain).fast_path(false).build(),
    };
    if let Some(cap) = recorder_capacity {
        k.obs.enable(cap);
    }
    let (outcome, router) = run_workload_in(&mut k, workload, agent);
    let stats = RunStats {
        virtual_secs: k.clock.elapsed_secs(),
        virtual_ns: k.clock.elapsed_ns(),
        total_insns: k.total_insns,
        syscalls: k.total_syscalls,
        intercepted: router.stats.intercepted,
        passthrough: router.stats.passthrough,
        outcome,
        console: k.console.output().to_vec(),
    };
    (stats, k.observable())
}

/// Spawns `workload` into `k`, wraps it in `agent`, and runs it to the
/// end on whatever configuration `k` was built with, returning how the run
/// ended and the router (for its statistics).
pub fn run_workload_in(
    k: &mut Kernel,
    workload: Workload,
    agent: AgentKind,
) -> (RunOutcome, InterposedRouter) {
    let pid = match workload {
        Workload::Scribe => {
            crate::scribe::setup(k);
            k.spawn_image(&crate::scribe::image(), &[b"scribe"], b"scribe")
        }
        Workload::Make8 => {
            crate::make8::setup(k);
            crate::make8::spawn(k)
        }
    };

    let mut router = InterposedRouter::new();
    match agent {
        AgentKind::None => {}
        AgentKind::Timex => {
            ia_interpose::wrap_process(k, &mut router, pid, Timex::boxed(3600), &[]);
        }
        AgentKind::Trace => {
            let (a, _) = TraceAgent::new();
            ia_interpose::wrap_process(k, &mut router, pid, Box::new(a), &[]);
        }
        AgentKind::Union => {
            let specs = union_specs(workload);
            let refs: Vec<&[u8]> = specs.iter().map(Vec::as_slice).collect();
            ia_interpose::wrap_process(k, &mut router, pid, UnionAgent::boxed(&refs), &[]);
        }
        AgentKind::TimeSymbolic => {
            ia_interpose::wrap_process(k, &mut router, pid, TimeSymbolic::boxed(), &[]);
        }
        AgentKind::DfsTrace => {
            let (a, _) = DfsTraceAgent::new();
            ia_interpose::wrap_process(k, &mut router, pid, a, &[]);
        }
        AgentKind::Profile => {
            let (a, _) = ProfileAgent::new();
            ia_interpose::wrap_process(k, &mut router, pid, Box::new(a), &[]);
        }
    }

    (k.run_with(&mut router), router)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_kernel::{I486_25, VAX_6250};

    #[test]
    fn table_3_2_shape_holds() {
        // Paper: base 151.7 s; timex +0.5 s (0.3%), trace +3.5 s (2.5%),
        // union +5.0 s (3.5%). Require the ordering and the "practically
        // negligible" property (all under ~6%).
        let base = run_workload(Workload::Scribe, VAX_6250, AgentKind::None);
        assert_eq!(base.outcome, RunOutcome::AllExited);
        let timex = run_workload(Workload::Scribe, VAX_6250, AgentKind::Timex);
        let trace = run_workload(Workload::Scribe, VAX_6250, AgentKind::Trace);
        let union = run_workload(Workload::Scribe, VAX_6250, AgentKind::Union);
        let s = |r: &RunStats| (r.virtual_secs / base.virtual_secs - 1.0) * 100.0;
        assert!(s(&timex) > 0.0, "timex adds something: {:.2}%", s(&timex));
        assert!(
            s(&timex) < s(&trace) && s(&trace) < s(&union),
            "ordering timex < trace < union: {:.2} {:.2} {:.2}",
            s(&timex),
            s(&trace),
            s(&union)
        );
        assert!(s(&union) < 8.0, "all slowdowns small: {:.2}%", s(&union));
    }

    /// On make8's trace row, the log the agent writes through the interface
    /// holds exactly the text its host-side handle captured.
    #[test]
    fn make8_trace_log_matches_the_handle() {
        let mut k = KernelBuilder::new().profile(I486_25).build();
        crate::make8::setup(&mut k);
        let pid = crate::make8::spawn(&mut k);
        let mut router = InterposedRouter::new();
        let (agent, handle) = TraceAgent::new();
        ia_interpose::wrap_process(&mut k, &mut router, pid, Box::new(agent), &[]);
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert!(handle.lines() > 20_000, "{} lines", handle.lines());
        let log = k.read_file(TraceAgent::DEFAULT_LOG).unwrap();
        assert!(log == handle.text().as_bytes(), "log and handle differ");
    }

    #[test]
    fn table_3_3_shape_holds() {
        // Paper: base 16.0 s; timex +19%, union +82%, trace +107%.
        let base = run_workload(Workload::Make8, I486_25, AgentKind::None);
        assert_eq!(base.outcome, RunOutcome::AllExited);
        let timex = run_workload(Workload::Make8, I486_25, AgentKind::Timex);
        let trace = run_workload(Workload::Make8, I486_25, AgentKind::Trace);
        let union = run_workload(Workload::Make8, I486_25, AgentKind::Union);
        let s = |r: &RunStats| (r.virtual_secs / base.virtual_secs - 1.0) * 100.0;
        assert!(
            s(&timex) > 5.0,
            "timex slowdown significant on fork-heavy work: {:.1}%",
            s(&timex)
        );
        assert!(
            s(&timex) < s(&union) && s(&union) < s(&trace),
            "ordering timex < union < trace: {:.1} {:.1} {:.1}",
            s(&timex),
            s(&union),
            s(&trace)
        );
        assert!(s(&trace) > 50.0, "trace slowdown large: {:.1}%", s(&trace));
    }
}
