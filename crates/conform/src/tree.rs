//! Fault-**tree** exploration: branch the kernel at every injected fault
//! site and explore both continuations.
//!
//! The linear fault schedule ([`crate::fault`]) drives one trajectory per
//! case — every n-th call of one syscall fails. Tree mode instead treats
//! each intercepted call of the target syscall as a *decision site*: the
//! world is captured once as a [`WorldSnapshot`] template (O(1) for the
//! filesystem, thanks to structural sharing), and each leaf of the binary
//! decision tree — a distinct fault/pass assignment for the first
//! `depth` sites — runs in a world branched from that template by
//! [`restore_world`]. The injector follows the leaf's decision string;
//! sites beyond the explored frontier pass through.
//!
//! Every leaf is executed twice — on the default configuration (fused
//! engine, trap fast path on) and on the reference (`Engine::Plain`, fast
//! path off) — and the two observables must agree bit for bit (the conformance oracle,
//! now under every fault pattern, not just the happy path). Every leaf
//! must terminate and leave the kernel quiescent, and the all-pass leaf
//! must be client-identical to a bare straight-line run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ia_abi::{Errno, RawArgs, Sysno};
use ia_interpose::{
    restore_world, snapshot_world, Agent, InterestSet, InterposedRouter, SysCtx, WorldSnapshot,
};
use ia_kernel::{Engine, Kernel, KernelBuilder, RunOutcome, SysOutcome};

use crate::gen::Program;
use crate::oracle::{
    describe_client_diff, describe_diff, run_world, world, Observation, StackKind,
};

/// One tree-mode exploration target, replayable from a `.conf` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCase {
    /// Syscall whose interceptions become decision sites.
    pub target: Sysno,
    /// Errno injected on the "fault" side of each decision.
    pub errno: Errno,
    /// Frontier: number of leading sites explored both ways.
    pub depth: usize,
}

impl std::fmt::Display for TreeCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tree {} x {} to depth {}",
            self.target.name(),
            self.errno.name(),
            self.depth
        )
    }
}

/// Counters from one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// (target, errno) pairs explored.
    pub cases: u64,
    /// Decision-tree leaves executed (each under both schedulers).
    pub leaves: u64,
    /// Faults actually injected across all leaves.
    pub injected: u64,
}

/// Decision-driven injector: the i-th intercepted call of `target`
/// (globally, across fork-inherited copies — the site counter is shared)
/// consults decision `i` of the leaf's schedule; sites beyond it pass.
struct TreeInjector {
    target: Sysno,
    errno: Errno,
    site: Arc<AtomicU64>,
    schedule: Arc<Mutex<Vec<bool>>>,
    injected: Arc<AtomicU64>,
}

impl Agent for TreeInjector {
    fn name(&self) -> &'static str {
        "tree-injector"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::of(&[self.target])
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        let site = self.site.fetch_add(1, Ordering::Relaxed);
        let fault = self
            .schedule
            .lock()
            .unwrap()
            .get(usize::try_from(site).unwrap_or(usize::MAX))
            .copied()
            .unwrap_or(false);
        if fault {
            self.injected.fetch_add(1, Ordering::Relaxed);
            let vnow = ctx.kernel.clock.elapsed_ns();
            ctx.kernel
                .obs
                .fault_injected(ctx.pid, nr, self.errno as u32, vnow);
            return SysOutcome::Done(Err(self.errno));
        }
        ctx.down(nr, args)
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(TreeInjector {
            target: self.target,
            errno: self.errno,
            site: self.site.clone(),
            schedule: self.schedule.clone(),
            injected: self.injected.clone(),
        })
    }
}

/// One kernel configuration's world: the live kernel+router pair and
/// the pristine template every leaf branches from.
struct TreeWorld {
    k: Kernel,
    router: InterposedRouter,
    template: WorldSnapshot,
    site: Arc<AtomicU64>,
    schedule: Arc<Mutex<Vec<bool>>>,
    injected: Arc<AtomicU64>,
}

impl TreeWorld {
    fn new(program: &Program, case: TreeCase, fast: bool, engine: Engine) -> TreeWorld {
        let site = Arc::new(AtomicU64::new(0));
        let schedule = Arc::new(Mutex::new(Vec::new()));
        let injected = Arc::new(AtomicU64::new(0));
        let injector = Box::new(TreeInjector {
            target: case.target,
            errno: case.errno,
            site: site.clone(),
            schedule: schedule.clone(),
            injected: injected.clone(),
        });
        let config = KernelBuilder::new().fast_path(fast).engine(engine);
        let (mut k, mut router) = world(program, config, vec![injector]);
        // The template: everything is loaded but nothing has run. Restoring
        // it is the branch point for every leaf.
        let template = snapshot_world(&mut k, &mut router);
        TreeWorld {
            k,
            router,
            template,
            site,
            schedule,
            injected,
        }
    }

    fn snapshot_id(&self) -> u64 {
        self.template.id()
    }

    /// Branches a fresh world off the template and runs one leaf to
    /// completion. Returns the observation and the number of decision
    /// sites the leaf actually passed through.
    fn run_leaf(&mut self, schedule: &[bool]) -> Result<(Observation, u64), String> {
        restore_world(&mut self.k, &mut self.router, &self.template);
        *self.schedule.lock().unwrap() = schedule.to_vec();
        self.site.store(0, Ordering::Relaxed);
        self.injected.store(0, Ordering::Relaxed);
        let outcome = run_world(&mut self.k, &mut self.router);
        if outcome != RunOutcome::AllExited {
            return Err(format!("wedged the machine: {outcome:?}"));
        }
        let leaks = self.k.check_quiescent();
        if !leaks.is_empty() {
            return Err(format!("left kernel inconsistent: {leaks:?}"));
        }
        Ok((
            Observation {
                outcome,
                obs: self.k.observable(),
                leaks,
            },
            self.site.load(Ordering::Relaxed),
        ))
    }
}

fn show_schedule(s: &[bool]) -> String {
    if s.is_empty() {
        "-".into()
    } else {
        s.iter().map(|&f| if f { 'F' } else { 'p' }).collect()
    }
}

/// An injector following the maximally-faulted frontier path — used to
/// re-run a tree repro under the flight recorder so the recording shows
/// the injections.
#[must_use]
pub fn frontier_injector(case: TreeCase) -> Box<dyn Agent> {
    Box::new(TreeInjector {
        target: case.target,
        errno: case.errno,
        site: Arc::new(AtomicU64::new(0)),
        schedule: Arc::new(Mutex::new(vec![true; case.depth])),
        injected: Arc::new(AtomicU64::new(0)),
    })
}

/// Explores the decision tree for one (target, errno) pair. Leaves are
/// enumerated depth-first: each executed leaf contributes one child per
/// not-yet-decided site it passed through inside the frontier.
fn explore_case(
    program: &Program,
    case: TreeCase,
    bare: &Observation,
    stats: &mut TreeStats,
) -> Result<(), String> {
    let mut fast = TreeWorld::new(program, case, true, Engine::Fused);
    let mut slow = TreeWorld::new(program, case, false, Engine::Plain);
    let snap_ids = (fast.snapshot_id(), slow.snapshot_id());
    let ctx = move |schedule: &[bool], extra: &str| {
        format!(
            "[{case}, schedule {}, snapshots {}/{}] {extra}",
            show_schedule(schedule),
            snap_ids.0,
            snap_ids.1
        )
    };

    let mut pending: Vec<Vec<bool>> = vec![Vec::new()];
    while let Some(schedule) = pending.pop() {
        let (a, sites_a) = fast
            .run_leaf(&schedule)
            .map_err(|e| ctx(&schedule, &format!("default {e}")))?;
        let (b, sites_b) = slow
            .run_leaf(&schedule)
            .map_err(|e| ctx(&schedule, &format!("reference {e}")))?;
        if let Some(d) = describe_diff("default", &a, "reference", &b) {
            return Err(ctx(&schedule, &format!("engine divergence: {d}")));
        }
        if sites_a != sites_b {
            return Err(ctx(
                &schedule,
                &format!("decision sites diverged: default={sites_a} vs reference={sites_b}"),
            ));
        }
        if schedule.is_empty() {
            // The all-pass leaf is the straight-line program: interception
            // must be transparent to the client.
            if let Some(d) = describe_client_diff("bare", bare, "all-pass leaf", &a) {
                return Err(ctx(&schedule, &format!("transparency violation: {d}")));
            }
        }
        stats.leaves += 1;
        stats.injected += fast.injected.load(Ordering::Relaxed);
        // Branch: every undecided site this leaf passed through, up to the
        // frontier, spawns the sibling where that site faults instead.
        let reach = usize::try_from(sites_a).unwrap_or(usize::MAX);
        for i in schedule.len()..reach.min(case.depth) {
            let mut child = schedule.clone();
            child.resize(i, false);
            child.push(true);
            pending.push(child);
        }
    }
    stats.cases += 1;
    Ok(())
}

fn bare_observation(program: &Program) -> Result<Observation, String> {
    let bare = crate::oracle::run_stack(program, StackKind::Bare);
    if bare.outcome != RunOutcome::AllExited || !bare.leaks.is_empty() {
        return Err(format!(
            "[bare] did not complete cleanly: {:?} {:?}",
            bare.outcome, bare.leaks
        ));
    }
    Ok(bare)
}

/// Explores one (target, errno, depth) case in isolation — the replay and
/// shrink entry point for tree repros.
pub fn run_tree_case(program: &Program, case: TreeCase) -> Result<TreeStats, String> {
    let bare = bare_observation(program)?;
    let mut stats = TreeStats::default();
    explore_case(program, case, &bare, &mut stats)?;
    Ok(stats)
}

/// Tree-explores every syscall on the program's surface × a representative
/// errno pair. The returned stats describe the whole forest; a failure
/// names the case that exposed it.
pub fn check_tree(program: &Program, depth: usize) -> Result<TreeStats, (TreeCase, String)> {
    let probe = TreeCase {
        target: Sysno::Exit,
        errno: Errno::EIO,
        depth,
    };
    let bare = bare_observation(program).map_err(|e| (probe, e))?;
    let mut stats = TreeStats::default();
    for target in program.syscall_surface() {
        for errno in [Errno::EIO, Errno::EPERM] {
            let case = TreeCase {
                target,
                errno,
                depth,
            };
            explore_case(program, case, &bare, &mut stats).map_err(|e| (case, e))?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample, OpSet};

    #[test]
    fn tree_explores_expected_leaf_count() {
        // A file-op program with plenty of write sites: depth d with >= d
        // sites on every path gives exactly 2^d leaves.
        let p = sample(3, 12, OpSet::FS_CLIENT);
        let case = TreeCase {
            target: Sysno::Write,
            errno: Errno::EIO,
            depth: 2,
        };
        let stats = run_tree_case(&p, case).unwrap();
        assert_eq!(stats.leaves, 4, "binary tree of depth 2");
        assert!(stats.injected >= 2, "the faulted legs inject");
    }

    #[test]
    fn tree_holds_on_generated_programs() {
        for seed in [2, 7] {
            let p = sample(seed, 10, OpSet::ALL);
            let stats =
                check_tree(&p, 1).unwrap_or_else(|(case, d)| panic!("seed {seed}, {case}: {d}"));
            assert!(stats.leaves >= stats.cases, "at least the all-pass leaf");
        }
    }
}
