//! The `timex` agent — "changes the apparent time of day" (§3.3.1).
//!
//! The paper's smallest agent: 35 statements, two routines — a derived
//! `gettimeofday()` and an `init()` parsing the desired offset from the
//! agent's command line. This version is the same shape: one overridden
//! trait method plus `init`, inheriting every other behaviour.

use ia_abi::{Sysno, Timeval};
use ia_interpose::InterestSet;
use ia_kernel::SysOutcome;
use ia_toolkit::{minimum_interests, SymCtx, Symbolic, SymbolicSyscall};

/// Shifts the time the client observes by a fixed number of seconds.
#[derive(Debug, Clone, Default)]
pub struct Timex {
    /// "Difference between real and funky time", per the paper's comment.
    pub offset: i64,
}

impl Timex {
    /// A timex shifting by `offset` seconds.
    #[must_use]
    pub fn new(offset: i64) -> Timex {
        Timex { offset }
    }

    /// Boxed, adapter-wrapped form ready for the agent loader.
    #[must_use]
    pub fn boxed(offset: i64) -> Box<Symbolic<Timex>> {
        Box::new(Symbolic::new(Timex::new(offset)))
    }
}

impl SymbolicSyscall for Timex {
    fn name(&self) -> &'static str {
        "timex"
    }

    /// "timex ... interposes on only the bare minimum plus gettimeofday".
    fn interests(&self) -> InterestSet {
        let mut s = minimum_interests();
        s.add_sys(Sysno::Gettimeofday);
        s
    }

    /// Accepts the desired effective offset, e.g. `+3600` or `-86400`.
    fn init(&mut self, _ctx: &mut SymCtx<'_, '_>, args: &[Vec<u8>]) {
        if let Some(first) = args.first() {
            if let Ok(s) = std::str::from_utf8(first) {
                if let Ok(v) = s.trim_start_matches('+').parse::<i64>() {
                    self.offset = v;
                }
            }
        }
    }

    fn sys_gettimeofday(&mut self, ctx: &mut SymCtx<'_, '_>, tp: u64, tzp: u64) -> SysOutcome {
        let ret = ctx.down_args(Sysno::Gettimeofday, [tp, tzp, 0, 0, 0, 0]);
        if let SysOutcome::Done(Ok(_)) = ret {
            if tp != 0 {
                if let Ok(mut tv) = ctx.read_struct::<Timeval>(tp) {
                    tv.sec += self.offset;
                    let _ = ctx.write_struct(tp, &tv);
                }
            }
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    const PROG: &str = r#"
        .data
        tv: .space 16
        .text
        main:
            la  r0, tv
            li  r1, 0
            sys gettimeofday
            ; exit(sec & 0xff) so the test can see the shifted time
            la  r1, tv
            ld  r0, (r1)
            li  r6, 255
            and r0, r0, r6
            sys exit
    "#;

    fn observed_sec(offset: Option<i64>) -> (u8, i64) {
        let mut k = KernelBuilder::new().build();
        let img = ia_vm::assemble(PROG).unwrap();
        let pid = k.spawn_image(&img, &[b"t"], b"t");
        let mut router = InterposedRouter::new();
        if let Some(off) = offset {
            ia_interpose::push_agent(&mut k, pid, Timex::boxed(off));
        }
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        let status = k.exit_status(pid).unwrap();
        ((status >> 8) as u8, k.clock.now().sec)
    }

    #[test]
    fn shifts_observed_time_by_offset() {
        let (plain, real) = observed_sec(None);
        let (shifted, real2) = observed_sec(Some(100));
        // Virtual clocks in both runs should essentially agree; timex runs
        // charge a few extra syscall-costs, not whole seconds.
        assert_eq!(real, real2);
        assert_eq!(
            shifted,
            ((i64::from(plain) + 100) & 0xff) as u8,
            "client sees time + 100"
        );
    }

    #[test]
    fn init_parses_agent_argument() {
        let mut k = KernelBuilder::new().build();
        let img = ia_vm::assemble(PROG).unwrap();
        let mut router = InterposedRouter::new();
        let pid = ia_interpose::spawn_with_agent(
            &mut k,
            Timex::boxed(0),
            &[b"+100".to_vec()],
            &img,
            &[b"t"],
            b"t",
        );
        k.run_with(&mut router);
        let status = k.exit_status(pid).unwrap();
        let plain = k.clock.now().sec; // roughly; just check the offset appeared
        let _ = plain;
        assert_ne!(status, 0);
    }

    #[test]
    fn negative_offsets_supported() {
        let (plain, _) = observed_sec(None);
        let (shifted, _) = observed_sec(Some(-5));
        assert_eq!(shifted, ((i64::from(plain) - 5) & 0xff) as u8);
    }
}
