//! The `time_symbolic` agent (§3.5.1.1).
//!
//! "The interposition agent, time_symbolic, intercepts each system call,
//! decodes each call and arguments, and calls C++ virtual procedures
//! corresponding to each system call. These procedures just take the
//! default action for each system call ... This allows the minimum toolkit
//! overhead for each intercepted system call to be easily measured."
//!
//! It is literally the [`SymbolicSyscall`] trait with nothing overridden:
//! every call decodes through the symbolic dispatcher and takes its
//! default pass-through body. Table 3-5's "with agent" column runs under
//! this agent.

use ia_toolkit::{Symbolic, SymbolicSyscall};

/// The null symbolic agent: full interception, default behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeSymbolic;

impl TimeSymbolic {
    /// Boxed, adapter-wrapped form ready for the agent loader.
    #[must_use]
    pub fn boxed() -> Box<Symbolic<TimeSymbolic>> {
        Box::new(Symbolic::new(TimeSymbolic))
    }
}

impl SymbolicSyscall for TimeSymbolic {
    fn name(&self) -> &'static str {
        "time_symbolic"
    }
    // Everything else: inherited defaults. That is the whole point.
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    #[test]
    fn intercepts_everything_changes_nothing() {
        let src = r#"
            .data
            path: .asciz "/tmp/f"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                mov r0, r3
                sys close
                la r0, path
                sys unlink
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, TimeSymbolic::boxed());
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(router.stats.intercepted, 4);
        assert_eq!(router.stats.passthrough, 0);
        assert_eq!(k.exit_status(pid), Some(0));
    }

    #[test]
    fn per_call_overhead_is_intercept_plus_dispatch_plus_downcall() {
        // Measure getpid with and without the agent; the difference should
        // be the paper's 67 µs floor (30 intercept + 37 downcall) plus the
        // virtual dispatch.
        let src = "main: sys getpid\n li r0,0\n sys exit\n";
        let img = ia_vm::assemble(src).unwrap();

        let mut plain = KernelBuilder::new().build();
        plain.spawn_image(&img, &[b"t"], b"t");
        plain.run_to_completion();

        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, TimeSymbolic::boxed());
        k.run_with(&mut router);

        let delta = k.clock.elapsed_ns() - plain.clock.elapsed_ns();
        // Per intercepted call: trap interception, chain virtual dispatch,
        // symbolic decode/dispatch, and the downcall — the paper's "about
        // 140 to 210 µs" per symbolic-toolkit call. Plus one agent
        // teardown at process exit.
        let per_call = k.profile.intercept_ns
            + k.profile.virtual_call_ns
            + k.profile.symbolic_dispatch_ns
            + k.profile.downcall_ns;
        assert!((140_000..=210_000).contains(&per_call), "paper's range");
        // Two intercepted calls (getpid + exit).
        assert_eq!(
            delta,
            2 * per_call + k.profile.agent_exit_ns,
            "exactly the modelled overhead"
        );
    }
}
