//! The differential executor: one program, many configurations, one
//! verdict.
//!
//! Two oracles compose here:
//!
//! * **Engine conformance** — for a fixed agent configuration, the
//!   default configuration (fused engine, trap fast path on) and the
//!   reference (`Engine::Plain`, fast path off) must agree on the
//!   *complete* observable state, virtual clock included.
//! * **Transparency** (the paper's §3.1) — across agent configurations,
//!   the *client-visible* state (console, exit statuses, filesystem
//!   content) must agree, while clocks legitimately differ by the
//!   interposition overhead.

use ia_agents::{PassThrough, ProfileAgent, TimeSymbolic, TraceAgent};
use ia_interpose::{wrap_process, Agent, InterposedRouter};
use ia_kernel::{run, Engine, Kernel, KernelBuilder, Observable, RunLimits, RunOutcome};

use crate::gen::Program;

/// Step budget for one conformance run; generated programs finish in well
/// under a million instructions, so hitting this is itself a finding.
pub const MAX_STEPS: u64 = 50_000_000;

/// The one conformance world setup: a kernel from `config` with the
/// program's file pool ([`Program::setup`]), the program spawned as
/// `conform`, and `agents` wrapped around it in order.
#[must_use]
pub fn world(
    program: &Program,
    config: KernelBuilder,
    agents: Vec<Box<dyn Agent>>,
) -> (Kernel, InterposedRouter) {
    let mut k = config.build();
    Program::setup(&mut k);
    let pid = k.spawn_image(&program.compile(), &[b"conform"], b"conform");
    let mut router = InterposedRouter::new();
    for a in agents {
        wrap_process(&mut k, &mut router, pid, a, &[]);
    }
    (k, router)
}

/// Runs a [`world`] until every process has exited or [`MAX_STEPS`]
/// instructions have retired.
pub fn run_world(k: &mut Kernel, router: &mut InterposedRouter) -> RunOutcome {
    run(
        k,
        router,
        RunLimits {
            max_steps: MAX_STEPS,
        },
    )
}

/// Which agent configuration wraps the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// No interposition at all.
    Bare,
    /// One full-interception pass-through agent.
    Pass,
    /// One batchable full-coverage observer (vectored upcalls engaged).
    Batched,
    /// Three stacked pass-through agents (symbolic, profile, trace).
    Stacked,
}

impl StackKind {
    /// Builds the agent boxes for this configuration.
    #[must_use]
    pub fn agents(self) -> Vec<Box<dyn Agent>> {
        match self {
            StackKind::Bare => Vec::new(),
            StackKind::Pass => vec![TimeSymbolic::boxed()],
            StackKind::Batched => vec![PassThrough::boxed() as Box<dyn Agent>],
            StackKind::Stacked => vec![
                TimeSymbolic::boxed(),
                Box::new(ProfileAgent::new().0),
                Box::new(TraceAgent::with_log(b"/dev/null").0),
            ],
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Full observable state at the end.
    pub obs: Observable,
    /// Post-run invariant violations (leaks, queue corruption); must be
    /// empty.
    pub leaks: Vec<String>,
}

/// Runs `program` once on the default configuration (fused engine, trap
/// fast path on) with the given agents wrapped around the initial process.
#[must_use]
pub fn run_config(program: &Program, agents: Vec<Box<dyn Agent>>) -> Observation {
    run_config_full(program, true, Engine::Fused, agents)
}

/// The fully-knobbed run: fast path × execution engine.
#[must_use]
pub fn run_config_full(
    program: &Program,
    fast: bool,
    engine: Engine,
    agents: Vec<Box<dyn Agent>>,
) -> Observation {
    let config = KernelBuilder::new().fast_path(fast).engine(engine);
    let (mut k, mut router) = world(program, config, agents);
    let outcome = run_world(&mut k, &mut router);
    let leaks = if outcome == RunOutcome::AllExited {
        k.check_quiescent()
    } else {
        k.check_invariants()
    };
    Observation {
        outcome,
        obs: k.observable(),
        leaks,
    }
}

/// Convenience: [`run_config`] with a named pass-through stack.
#[must_use]
pub fn run_stack(program: &Program, stack: StackKind) -> Observation {
    run_config(program, stack.agents())
}

/// Convenience: [`run_config_full`] with a named pass-through stack.
#[must_use]
pub fn run_stack_full(
    program: &Program,
    stack: StackKind,
    fast: bool,
    engine: Engine,
) -> Observation {
    run_config_full(program, fast, engine, stack.agents())
}

/// Renders console bytes for an error message, lossily and truncated.
fn show_console(bytes: &[u8]) -> String {
    let s = String::from_utf8_lossy(bytes);
    if s.len() > 160 {
        format!("{}… ({} bytes)", &s[..160], bytes.len())
    } else {
        s.into_owned()
    }
}

/// First difference between two full observations, if any.
#[must_use]
pub fn describe_diff(la: &str, a: &Observation, lb: &str, b: &Observation) -> Option<String> {
    if a.outcome != b.outcome {
        return Some(format!(
            "outcome: {la}={:?} vs {lb}={:?}",
            a.outcome, b.outcome
        ));
    }
    if let Some(d) = describe_client_diff(la, a, lb, b) {
        return Some(d);
    }
    if a.obs.clock_ns != b.obs.clock_ns {
        return Some(format!(
            "virtual clock: {la}={}ns vs {lb}={}ns",
            a.obs.clock_ns, b.obs.clock_ns
        ));
    }
    if a.obs.total_insns != b.obs.total_insns {
        return Some(format!(
            "instructions: {la}={} vs {lb}={}",
            a.obs.total_insns, b.obs.total_insns
        ));
    }
    if a.obs.total_syscalls != b.obs.total_syscalls {
        return Some(format!(
            "syscalls: {la}={} vs {lb}={}",
            a.obs.total_syscalls, b.obs.total_syscalls
        ));
    }
    None
}

/// First difference between the client-visible halves, if any.
#[must_use]
pub fn describe_client_diff(
    la: &str,
    a: &Observation,
    lb: &str,
    b: &Observation,
) -> Option<String> {
    let (ca, cb) = (&a.obs.client, &b.obs.client);
    if ca.console != cb.console {
        return Some(format!(
            "console: {la}={:?} vs {lb}={:?}",
            show_console(&ca.console),
            show_console(&cb.console)
        ));
    }
    if ca.exit_statuses != cb.exit_statuses {
        return Some(format!(
            "exit statuses: {la}={:?} vs {lb}={:?}",
            ca.exit_statuses, cb.exit_statuses
        ));
    }
    if ca.vfs_digest != cb.vfs_digest {
        return Some(format!(
            "vfs digest: {la}={:#x} vs {lb}={:#x} (files {}/{} bytes {}/{})",
            ca.vfs_digest, cb.vfs_digest, ca.fs_files, cb.fs_files, ca.fs_bytes, cb.fs_bytes
        ));
    }
    None
}

fn completed(label: &str, o: &Observation) -> Result<(), String> {
    if o.outcome != RunOutcome::AllExited {
        return Err(format!("[{label}] did not complete: {:?}", o.outcome));
    }
    if !o.leaks.is_empty() {
        return Err(format!("[{label}] kernel left inconsistent: {:?}", o.leaks));
    }
    Ok(())
}

/// The full oracle matrix for one program: four agent stacks × three
/// configurations — the default (fused, fast path on), the fused engine
/// with the fast path off, and the reference (plain, fast path off). The
/// fast path only acts on the fused engine, so plain with it on would be
/// the reference again. Per-stack, every configuration must agree on the
/// *complete* observable state (the trap fast path and both execution
/// engines are bit-identical by design); across stacks, the client view
/// must agree. Every run must terminate and leave the kernel leak-free.
pub fn check_program(program: &Program) -> Result<(), String> {
    let mut baseline: Option<(&'static str, Observation)> = None;
    for (label, stack) in [
        ("bare", StackKind::Bare),
        ("pass", StackKind::Pass),
        ("batched", StackKind::Batched),
        ("stacked", StackKind::Stacked),
    ] {
        let mut reference: Option<(String, Observation)> = None;
        for (cfg, fast, engine) in [
            ("fast+fused", true, Engine::Fused),
            ("fused", false, Engine::Fused),
            ("plain", false, Engine::Plain),
        ] {
            let run_label = format!("{label}/{cfg}");
            let o = run_stack_full(program, stack, fast, engine);
            completed(&run_label, &o)?;
            match &reference {
                None => reference = Some((run_label, o)),
                Some((rlabel, r)) => {
                    if let Some(d) = describe_diff(rlabel, r, &run_label, &o) {
                        return Err(format!("engine divergence: {d}"));
                    }
                }
            }
        }
        let (_, default) = reference.expect("at least one config ran");
        match &baseline {
            None => baseline = Some((label, default)),
            Some((blabel, base)) => {
                if let Some(d) = describe_client_diff(blabel, base, label, &default) {
                    return Err(format!("transparency violation: {d}"));
                }
            }
        }
    }
    Ok(())
}

/// Transparency check against a custom agent stack: the client view with
/// `agents` wrapped must equal the bare run. `compare_fs` selects whether
/// at-rest filesystem content must also match — turn it off for agents
/// (crypt, zip) that legitimately transform stored bytes while presenting
/// the same data through the interface.
pub fn check_client_equiv(
    program: &Program,
    agents: impl Fn() -> Vec<Box<dyn Agent>>,
    compare_fs: bool,
) -> Result<(), String> {
    let bare = run_stack(program, StackKind::Bare);
    completed("bare", &bare)?;
    let wrapped = run_config(program, agents());
    completed("wrapped", &wrapped)?;
    let (ca, cb) = (&bare.obs.client, &wrapped.obs.client);
    if ca.console != cb.console {
        return Err(format!(
            "console: bare={:?} vs wrapped={:?}",
            show_console(&ca.console),
            show_console(&cb.console)
        ));
    }
    if ca.exit_statuses != cb.exit_statuses {
        return Err(format!(
            "exit statuses: bare={:?} vs wrapped={:?}",
            ca.exit_statuses, cb.exit_statuses
        ));
    }
    if compare_fs && ca.vfs_digest != cb.vfs_digest {
        return Err(format!(
            "vfs digest: bare={:#x} vs wrapped={:#x}",
            ca.vfs_digest, cb.vfs_digest
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample, OpSet};

    #[test]
    fn oracle_matrix_passes_on_generated_programs() {
        for seed in 0..6 {
            let p = sample(seed, 25, OpSet::ALL);
            check_program(&p).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn client_equiv_accepts_pass_through() {
        let p = sample(77, 20, OpSet::ALL);
        check_client_equiv(&p, || vec![TimeSymbolic::boxed()], true).unwrap();
    }
}
