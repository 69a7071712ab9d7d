//! Soundness cross-validation of the static analyzer: for any generated
//! program, the set of syscall numbers it *actually issues* at runtime must
//! be contained in the footprint `ia-analyze` computed for its image before
//! the run — dynamic trace ⊆ static footprint, over every seed.
//!
//! This is the strongest check the analyzer gets: the conformance generator
//! produces programs with loops, forks, `execve`, signal handlers and
//! itimers, so any transfer function that under-approximates (a forgotten
//! register clobber, a wrong join) shows up here as a traced call outside
//! the footprint.

use std::collections::BTreeSet;

use std::sync::{Arc, Mutex};

use ia_abi::{RawArgs, Sysno};
use ia_analyze::footprint;
use ia_interpose::{Agent, InterestSet, SysCtx};
use ia_kernel::{KernelBuilder, RunOutcome, SysOutcome};

use crate::gen::{exec_child_image, Program};
use crate::oracle::{run_world, world};

/// A raw agent that records every trap number the client (and its forked
/// children, which share the recording set through the cloned `Arc`) issues.
#[derive(Clone)]
pub struct SyscallRecorder {
    nrs: Arc<Mutex<BTreeSet<u32>>>,
}

impl SyscallRecorder {
    /// Creates a recorder and a shared handle onto its trap-number set.
    #[must_use]
    pub fn new() -> (SyscallRecorder, Arc<Mutex<BTreeSet<u32>>>) {
        let nrs = Arc::new(Mutex::new(BTreeSet::new()));
        (SyscallRecorder { nrs: nrs.clone() }, nrs)
    }
}

impl Agent for SyscallRecorder {
    fn name(&self) -> &'static str {
        "syscall-recorder"
    }

    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.nrs.lock().unwrap().insert(nr);
        ctx.down(nr, args)
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

/// The static footprint a run of `program` must stay inside: the compiled
/// image's own footprint, plus — when the image may `execve` — the footprint
/// of the exec'd child image (`/bin/conform-child`).
#[must_use]
pub fn static_footprint(program: &Program) -> InterestSet {
    let image = program.compile();
    let mut set = footprint(&image).set;
    if set.contains(Sysno::Execve.number()) {
        set = set.union(&footprint(&exec_child_image()).set);
    }
    set
}

/// Runs `program` with a recorder wrapped around it and checks that every
/// trap it issued was predicted by the static footprint.
pub fn check_soundness(program: &Program) -> Result<(), String> {
    let set = static_footprint(program);

    let (recorder, traced) = SyscallRecorder::new();
    let (mut k, mut router) = world(program, KernelBuilder::new(), vec![Box::new(recorder)]);
    let outcome = run_world(&mut k, &mut router);
    if outcome != RunOutcome::AllExited {
        return Err(format!("soundness run did not complete: {outcome:?}"));
    }

    let traced = traced.lock().unwrap();
    let escaped: Vec<u32> = traced
        .iter()
        .copied()
        .filter(|&nr| !set.contains(nr))
        .collect();
    if escaped.is_empty() {
        Ok(())
    } else {
        let names: Vec<String> = escaped
            .iter()
            .map(|&nr| match Sysno::from_u32(nr) {
                Some(s) => format!("{}({nr})", s.name()),
                None => format!("nosys({nr})"),
            })
            .collect();
        Err(format!(
            "static footprint missed dynamically issued calls: {} (traced {} distinct, footprint {} numbers)",
            names.join(", "),
            traced.len(),
            set.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample, OpSet};

    #[test]
    fn recorder_is_transparent_and_records() {
        let program = sample(7, 12, OpSet::ALL);
        check_soundness(&program).unwrap();
    }
}
