//! The `oscompat` agent — "Emulation of Other Operating Systems" (§1.4).
//!
//! "Alternate system call implementations can be used to concurrently run
//! binaries from variant operating systems on the same platform."
//!
//! Two emulation personalities are provided:
//!
//! * [`OsCompatAgent::legacy_bsd`] — runs binaries that use *obsolete*
//!   4.3BSD trap numbers our kernel dropped (`creat`, `time`, the old
//!   two-argument `wait`), translating each into its modern equivalent.
//!   This needs argument and result rewriting, not just number remapping.
//! * [`OsCompatAgent::foreign`] — a "foreign OS" whose entire trap table
//!   sits at an offset (the HP-UX-on-Mach shape), remapped wholesale at
//!   the numeric layer.

use ia_abi::{OpenFlags, RawArgs, Sysno, Timeval};
use ia_interpose::{Agent, InterestSet, SysCtx};
use ia_kernel::SysOutcome;
use ia_toolkit::{Scratch, SymCtx};

/// Obsolete 4.3BSD trap numbers the legacy personality understands.
pub mod legacy {
    /// `creat(path, mode)` — old call 8.
    pub const CREAT: u32 = 8;
    /// `time(tloc)` — old call 13.
    pub const TIME: u32 = 13;
    /// Two-value `wait()` — old call 84 (the 4.3BSD `owait`).
    pub const OWAIT: u32 = 84;
}

/// Which personality the agent emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Personality {
    LegacyBsd,
    Foreign { offset: u32 },
}

/// The OS-emulation agent.
pub struct OsCompatAgent {
    personality: Personality,
    scratch: Scratch,
}

impl OsCompatAgent {
    /// Emulates obsolete 4.3BSD calls on the modern interface.
    #[must_use]
    pub fn legacy_bsd() -> Box<OsCompatAgent> {
        Box::new(OsCompatAgent {
            personality: Personality::LegacyBsd,
            scratch: Scratch::new(),
        })
    }

    /// Emulates a foreign OS whose trap numbers are `native + offset`.
    /// Offsets must keep the foreign table below 256 (the interception
    /// vector's width), as on the real 4.3BSD trap table.
    #[must_use]
    pub fn foreign(offset: u32) -> Box<OsCompatAgent> {
        Box::new(OsCompatAgent {
            personality: Personality::Foreign { offset },
            scratch: Scratch::new(),
        })
    }
}

impl Agent for OsCompatAgent {
    fn name(&self) -> &'static str {
        match self.personality {
            Personality::LegacyBsd => "oscompat-legacy-bsd",
            Personality::Foreign { .. } => "oscompat-foreign",
        }
    }

    fn interests(&self) -> InterestSet {
        let mut s = InterestSet::new();
        match self.personality {
            Personality::LegacyBsd => {
                s.add(legacy::CREAT);
                s.add(legacy::TIME);
                s.add(legacy::OWAIT);
            }
            Personality::Foreign { offset } => {
                s.add_range(offset, offset.saturating_add(255));
            }
        }
        s
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        match self.personality {
            Personality::Foreign { offset } => {
                // Pure number translation: foreign = native + offset.
                ctx.down(nr - offset, args)
            }
            Personality::LegacyBsd => {
                let mut sym = SymCtx::new(ctx);
                self.scratch.reset();
                match nr {
                    legacy::CREAT => {
                        // creat(path, mode) == open(path, WRONLY|CREAT|TRUNC, mode)
                        let flags = u64::from(
                            OpenFlags::O_WRONLY | OpenFlags::O_CREAT | OpenFlags::O_TRUNC,
                        );
                        sym.down_args(Sysno::Open, [args[0], flags, args[1], 0, 0, 0])
                    }
                    legacy::TIME => {
                        // time(tloc): seconds since the epoch in r0, also
                        // stored through tloc when non-null.
                        let Ok(tv_addr) = self
                            .scratch
                            .reserve(&mut sym, <Timeval as ia_abi::wire::Wire>::WIRE_SIZE)
                        else {
                            return SysOutcome::Done(Err(ia_abi::Errno::ENOMEM));
                        };
                        let out = sym.down_args(Sysno::Gettimeofday, [tv_addr, 0, 0, 0, 0, 0]);
                        match out {
                            SysOutcome::Done(Ok(_)) => {
                                let Ok(tv) = sym.read_struct::<Timeval>(tv_addr) else {
                                    return SysOutcome::Done(Err(ia_abi::Errno::EFAULT));
                                };
                                if args[0] != 0 {
                                    let bytes = (tv.sec as u64).to_le_bytes();
                                    if let Err(e) = sym.write_bytes(args[0], &bytes) {
                                        return SysOutcome::Done(Err(e));
                                    }
                                }
                                SysOutcome::Done(Ok([tv.sec as u64, 0]))
                            }
                            other => other,
                        }
                    }
                    legacy::OWAIT => {
                        // owait(): status comes back in the *second result
                        // register* instead of through a pointer.
                        let Ok(status_addr) = self.scratch.reserve(&mut sym, 8) else {
                            return SysOutcome::Done(Err(ia_abi::Errno::ENOMEM));
                        };
                        let out = sym.down_args(Sysno::Wait4, [0, status_addr, 0, 0, 0, 0]);
                        match out {
                            SysOutcome::Done(Ok([pid, _])) => {
                                let status = sym
                                    .read_bytes(status_addr, 8)
                                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                                    .unwrap_or(0);
                                SysOutcome::Done(Ok([pid, status]))
                            }
                            other => other,
                        }
                    }
                    other => ctx.down(other, args),
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(OsCompatAgent {
            personality: self.personality,
            scratch: self.scratch.deep_clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    #[test]
    fn legacy_creat_and_time_work() {
        // A "legacy binary": uses creat (8) and time (13).
        let src = r#"
            .data
            path: .asciz "/tmp/legacy.out"
            text: .asciz "old world"
            .text
            main:
                la r0, path
                li r1, 420
                sys 8           ; creat(path, 0644)
                mov r3, r0
                mov r0, r3
                la r1, text
                li r2, 9
                sys write
                mov r0, r3
                sys close
                li r0, 0
                sys 13          ; time(NULL) -> seconds in r0
                ; exit(seconds != 0)
                li r1, 0
                sltu r0, r1, r0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"legacy"], b"legacy");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, OsCompatAgent::legacy_bsd());
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.read_file(b"/tmp/legacy.out").unwrap(), b"old world");
        assert_eq!(
            k.exit_status(pid),
            Some(ia_abi::signal::wait_status_exited(1)),
            "time returned nonzero seconds"
        );
    }

    #[test]
    fn legacy_owait_returns_status_in_second_register() {
        let src = r#"
            main:
                sys fork
                jz r0, child
                sys 84          ; owait() -> (pid, status)
                ; exit(status >> 8): the child's code
                li r6, 8
                shr r0, r2, r6
                sys exit
            child:
                li r0, 9
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"legacy"], b"legacy");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, OsCompatAgent::legacy_bsd());
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(
            k.exit_status(pid),
            Some(ia_abi::signal::wait_status_exited(9))
        );
    }

    #[test]
    fn foreign_personality_offsets_whole_table() {
        let src = r#"
            .data
            msg: .asciz "HPUX"
            .text
            main:
                li r0, 1
                la r1, msg
                li r2, 4
                sys 204         ; write at +200
                li r0, 0
                sys 201         ; exit at +200
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"hpux"], b"hpux");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, OsCompatAgent::foreign(200));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "HPUX");
    }
}
