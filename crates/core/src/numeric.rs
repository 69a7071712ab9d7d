//! Layer 0 — the *numeric system call layer*.
//!
//! "The lowest (or zeroth) layer of the toolkit which is directly used by
//! any interposition agents presents the system interface as a single
//! entry point accepting vectors of untyped numeric arguments."
//!
//! In this reproduction the numeric contract *is* the mechanism-level
//! [`ia_interpose::Agent`] trait (`syscall(number, args)` plus
//! interest registration and the incoming-signal hook), so this module
//! adds the utilities agents build at this level: a trap-number remapper —
//! the paper's "one range of system call numbers could be remapped to
//! calls on a different range at this level", which is how an emulator for
//! a foreign operating system's numbering starts.

use std::collections::HashMap;

use ia_abi::RawArgs;
use ia_interpose::{Agent, InterestSet, SysCtx};
use ia_kernel::SysOutcome;

/// A purely numeric agent that rewrites trap numbers before passing them
/// down — the seed of an OS emulator.
#[derive(Debug, Clone, Default)]
pub struct RemapAgent {
    map: HashMap<u32, u32>,
}

impl RemapAgent {
    /// An empty remapper (identity behaviour until mappings are added).
    #[must_use]
    pub fn new() -> RemapAgent {
        RemapAgent::default()
    }

    /// Maps foreign trap number `from` to native number `to`.
    pub fn map(&mut self, from: u32, to: u32) -> &mut Self {
        self.map.insert(from, to);
        self
    }

    /// Remaps the inclusive range `[lo, hi]` by a constant offset, the
    /// paper's range remapping.
    pub fn map_range(&mut self, lo: u32, hi: u32, offset: i64) -> &mut Self {
        for n in lo..=hi {
            self.map.insert(n, (i64::from(n) + offset) as u32);
        }
        self
    }

    /// Number of mapped trap numbers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no mappings exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Agent for RemapAgent {
    fn name(&self) -> &'static str {
        "numeric-remap"
    }

    fn interests(&self) -> InterestSet {
        let mut s = InterestSet::new();
        for &from in self.map.keys() {
            s.add(from);
        }
        s
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        let target = self.map.get(&nr).copied().unwrap_or(nr);
        ctx.down(target, args)
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    #[test]
    fn foreign_numbers_reach_native_calls() {
        // A "foreign binary" that uses trap 204 for write and 201 for exit.
        let src = r#"
            .data
            msg: .asciz "foreign"
            .text
            main:
                li r0, 1
                la r1, msg
                li r2, 7
                sys 204
                li r0, 0
                sys 201
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"f"], b"f");
        let mut remap = RemapAgent::new();
        remap.map_range(200, 260, -200); // foreign = native + 200
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, Box::new(remap));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "foreign");
    }

    #[test]
    fn remapped_fork_hands_the_child_the_chain() {
        // Foreign 202 is fork: the kernel hands the child the chain even
        // though the trap number the router saw was not `fork`, and the
        // child's foreign write and exit only work if it inherited the
        // remapper.
        let src = r#"
            .data
            msg: .asciz "child"
            .text
            main:
                sys 202
                jz r0, child
                li r0, 0
                li r1, 0
                li r2, 0
                li r3, 0
                sys wait4
                li r0, 0
                sys 201
            child:
                li r0, 1
                la r1, msg
                li r2, 5
                sys 204
                li r0, 0
                sys 201
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"f"], b"f");
        let mut remap = RemapAgent::new();
        remap.map_range(200, 260, -200);
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, Box::new(remap));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "child");
        // Parent fork + exit, child write + exit; wait4 is native.
        assert_eq!(router.stats.intercepted, 4);
        assert_eq!(k.exit_status(pid + 1), Some(0));
    }

    #[test]
    fn unmapped_foreign_number_fails_without_agent() {
        // exit(errno of `sys 204`): without a remapping agent the foreign
        // trap number is EINVAL (22).
        let src = "main: sys 204\n mov r0, r1\n sys exit\n";
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.spawn_image(&img, &[b"f"], b"f");
        k.run_to_completion();
        assert_eq!(
            k.exit_status(1),
            Some(ia_abi::signal::wait_status_exited(
                ia_abi::Errno::EINVAL.code() as u8
            ))
        );
    }
}
