//! Time and resource-usage system calls.

use ia_abi::types::ItimerVal;
use ia_abi::{Errno, RawArgs, Timeval, Timezone};

use super::{done0, SysOutcome};
use crate::kernel::Kernel;
use crate::process::Pid;

impl Kernel {
    /// `gettimeofday(tp, tzp)` — the call the paper's `timex` agent
    /// interposes on.
    pub(crate) fn sys_gettimeofday(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let now = self.clock.now();
        let r = (|| {
            let p = self.proc_mut(pid)?;
            if args[0] != 0 {
                p.mem.write_struct(args[0], &now)?;
            }
            if args[1] != 0 {
                p.mem.write_struct(args[1], &Timezone::default())?;
            }
            Ok(())
        })();
        done0(r)
    }

    /// `settimeofday(tp, tzp)` — superuser only.
    pub(crate) fn sys_settimeofday(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            if self.proc(pid)?.euid != 0 {
                return Err(Errno::EPERM);
            }
            if args[0] != 0 {
                let tv = self.proc(pid)?.mem.read_struct::<Timeval>(args[0])?;
                self.clock.set_now(tv);
            }
            Ok(())
        })();
        done0(r)
    }

    /// `adjtime(delta, olddelta)` — applied instantly rather than skewed.
    pub(crate) fn sys_adjtime(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            if self.proc(pid)?.euid != 0 {
                return Err(Errno::EPERM);
            }
            let delta = self.proc(pid)?.mem.read_struct::<Timeval>(args[0])?;
            let now = self.clock.now();
            self.clock
                .set_now(Timeval::from_micros(now.as_micros() + delta.as_micros()));
            if args[1] != 0 {
                self.proc_mut(pid)?
                    .mem
                    .write_struct(args[1], &Timeval::default())?;
            }
            Ok(())
        })();
        done0(r)
    }

    /// `getitimer(which, value)` — `ITIMER_REAL` only.
    pub(crate) fn sys_getitimer(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            if args[0] != 0 {
                return Err(Errno::EINVAL);
            }
            let elapsed = self.clock.elapsed_ns();
            let p = self.proc(pid)?;
            let it = match p.itimer {
                Some((deadline, interval)) => ItimerVal {
                    value: Timeval::from_micros((deadline.saturating_sub(elapsed) / 1_000) as i64),
                    interval: Timeval::from_micros((interval / 1_000) as i64),
                },
                None => ItimerVal::default(),
            };
            self.proc_mut(pid)?.mem.write_struct(args[1], &it)
        })();
        done0(r)
    }

    /// `setitimer(which, value, ovalue)` — `ITIMER_REAL` only; expiry posts
    /// `SIGALRM`.
    pub(crate) fn sys_setitimer(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            if args[0] != 0 {
                return Err(Errno::EINVAL);
            }
            let elapsed = self.clock.elapsed_ns();
            let new = if args[1] != 0 {
                let it = self.proc(pid)?.mem.read_struct::<ItimerVal>(args[1])?;
                let value_ns = (it.value.as_micros().max(0) as u64) * 1_000;
                let interval_ns = (it.interval.as_micros().max(0) as u64) * 1_000;
                if value_ns == 0 {
                    None
                } else {
                    Some((elapsed + value_ns, interval_ns))
                }
            } else {
                None
            };
            let p = self.proc_mut(pid)?;
            let old = p.itimer;
            p.itimer = new;
            if args[2] != 0 {
                let it = match old {
                    Some((deadline, interval)) => ItimerVal {
                        value: Timeval::from_micros(
                            (deadline.saturating_sub(elapsed) / 1_000) as i64,
                        ),
                        interval: Timeval::from_micros((interval / 1_000) as i64),
                    },
                    None => ItimerVal::default(),
                };
                self.proc_mut(pid)?.mem.write_struct(args[2], &it)?;
            }
            Ok(())
        })();
        done0(r)
    }

    /// `getrusage(who, rusage)` — `RUSAGE_SELF` (0) only.
    pub(crate) fn sys_getrusage(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            if args[0] != 0 {
                return Err(Errno::EINVAL);
            }
            let insn_ns = self.profile.insn_ns;
            let ru = self.proc(pid)?.rusage(insn_ns);
            self.proc_mut(pid)?.mem.write_struct(args[1], &ru)
        })();
        done0(r)
    }
}
