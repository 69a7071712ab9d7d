//! The `.conf` repro format: a failing (usually shrunken) program, plus
//! the fault case that exposed it, as a line-oriented text file that
//! `conform --replay` re-executes bit-for-bit.
//!
//! ```text
//! # any number of comment lines
//! seed 42
//! fault read 5 2          # optional: syscall errno-code every
//! tree write 5 2          # optional: syscall errno-code depth
//! op create_write 1 2
//! op fork_wait 0 7
//! ```

use ia_abi::Errno;

use crate::fault::FaultCase;
use crate::gen::{ConfOp, Program};
use crate::tree::TreeCase;

/// A replayable reproducer: the program and, when the failure came from
/// fault injection (linear or tree mode), the case that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The (minimized) program.
    pub program: Program,
    /// The linear fault case to apply on replay, if any.
    pub fault: Option<FaultCase>,
    /// The tree-exploration case to replay, if any.
    pub tree: Option<TreeCase>,
}

fn op_fields(op: &ConfOp) -> (&'static str, u32, u32) {
    use ConfOp::*;
    match *op {
        Echo { payload } => ("echo", payload.into(), 0),
        CreateWrite { file, payload } => ("create_write", file.into(), payload.into()),
        AppendWrite { file, payload } => ("append_write", file.into(), payload.into()),
        ReadEcho { file } => ("read_echo", file.into(), 0),
        StatFile { file } => ("stat_file", file.into(), 0),
        QueryIds => ("query_ids", 0, 0),
        TimeOfDay => ("time_of_day", 0, 0),
        MkdirRmdir => ("mkdir_rmdir", 0, 0),
        LinkUnlink { file } => ("link_unlink", file.into(), 0),
        SymlinkEcho { file } => ("symlink_echo", file.into(), 0),
        RenameShuffle { file } => ("rename_shuffle", file.into(), 0),
        ChmodCycle { file } => ("chmod_cycle", file.into(), 0),
        ChdirStat { file } => ("chdir_stat", file.into(), 0),
        DupShuffle { file } => ("dup_shuffle", file.into(), 0),
        TruncateShort { file, len } => ("truncate_short", file.into(), len.into()),
        PipeEcho { payload } => ("pipe_echo", payload.into(), 0),
        SelectPipe { payload } => ("select_pipe", payload.into(), 0),
        SocketEcho { payload } => ("socket_echo", payload.into(), 0),
        ForkWait { payload, status } => ("fork_wait", payload.into(), status.into()),
        ForkExecWait => ("fork_exec_wait", 0, 0),
        ForkKill { calls } => ("fork_kill", calls.into(), 0),
        AlarmHandler { delay_us } => ("alarm_handler", delay_us.into(), 0),
        SelectSleep { timeout_us } => ("select_sleep", timeout_us.into(), 0),
        KillHandler => ("kill_handler", 0, 0),
        Burn { iters } => ("burn", iters.into(), 0),
    }
}

#[allow(clippy::cast_possible_truncation)]
fn op_parse(name: &str, a: u32, bfield: u32) -> Option<ConfOp> {
    use ConfOp::*;
    let b8 = bfield as u8;
    let a8 = a as u8;
    let a16 = a as u16;
    Some(match name {
        "echo" => Echo { payload: a8 },
        "create_write" => CreateWrite {
            file: a8,
            payload: b8,
        },
        "append_write" => AppendWrite {
            file: a8,
            payload: b8,
        },
        "read_echo" => ReadEcho { file: a8 },
        "stat_file" => StatFile { file: a8 },
        "query_ids" => QueryIds,
        "time_of_day" => TimeOfDay,
        "mkdir_rmdir" => MkdirRmdir,
        "link_unlink" => LinkUnlink { file: a8 },
        "symlink_echo" => SymlinkEcho { file: a8 },
        "rename_shuffle" => RenameShuffle { file: a8 },
        "chmod_cycle" => ChmodCycle { file: a8 },
        "chdir_stat" => ChdirStat { file: a8 },
        "dup_shuffle" => DupShuffle { file: a8 },
        "truncate_short" => TruncateShort { file: a8, len: b8 },
        "pipe_echo" => PipeEcho { payload: a8 },
        "select_pipe" => SelectPipe { payload: a8 },
        "socket_echo" => SocketEcho { payload: a8 },
        "fork_wait" => ForkWait {
            payload: a8,
            status: b8,
        },
        "fork_exec_wait" => ForkExecWait,
        "fork_kill" => ForkKill { calls: a8 },
        "alarm_handler" => AlarmHandler { delay_us: a16 },
        "select_sleep" => SelectSleep { timeout_us: a16 },
        "kill_handler" => KillHandler,
        "burn" => Burn { iters: a16 },
        _ => return None,
    })
}

impl Repro {
    /// Renders the repro as `.conf` text. `comments` become leading `#`
    /// lines (e.g. the divergence description).
    #[must_use]
    pub fn to_conf(&self, comments: &[&str]) -> String {
        let mut out = String::from("# ia-conform repro\n");
        for c in comments {
            for line in c.lines() {
                out.push_str(&format!("# {line}\n"));
            }
        }
        out.push_str(&format!("seed {}\n", self.program.seed));
        if let Some(f) = self.fault {
            out.push_str(&format!(
                "fault {} {} {}\n",
                f.target.name(),
                f.errno.code(),
                f.every
            ));
        }
        if let Some(t) = self.tree {
            out.push_str(&format!(
                "tree {} {} {}\n",
                t.target.name(),
                t.errno.code(),
                t.depth
            ));
        }
        for op in &self.program.ops {
            let (name, a, b) = op_fields(op);
            out.push_str(&format!("op {name} {a} {b}\n"));
        }
        out
    }

    /// Parses `.conf` text.
    pub fn from_conf(text: &str) -> Result<Repro, String> {
        let mut seed: Option<u64> = None;
        let mut fault: Option<FaultCase> = None;
        let mut tree: Option<TreeCase> = None;
        let mut ops = Vec::new();
        // `fault` and `tree` share the `<syscall> <errno-code> <n>` shape.
        fn case_fields<'t>(
            toks: &mut impl Iterator<Item = &'t str>,
            err: &impl Fn(&str) -> String,
        ) -> Result<(ia_abi::Sysno, Errno, u64), String> {
            let name = toks.next().ok_or_else(|| err("missing syscall"))?;
            let target = ia_abi::sysno::ALL_SYSCALLS
                .iter()
                .copied()
                .find(|s| s.name() == name)
                .ok_or_else(|| err("unknown syscall"))?;
            let code: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("bad errno code"))?;
            let errno = Errno::from_code(code).ok_or_else(|| err("unknown errno"))?;
            let n: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("bad count"))?;
            Ok((target, errno, n))
        }
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("line {}: {m}: {line:?}", lineno + 1);
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("seed") => {
                    let v = toks.next().ok_or_else(|| err("missing value"))?;
                    seed = Some(v.parse().map_err(|_| err("bad seed"))?);
                }
                Some("fault") => {
                    let (target, errno, every) = case_fields(&mut toks, &err)?;
                    fault = Some(FaultCase {
                        target,
                        errno,
                        every: every.max(2),
                    });
                }
                Some("tree") => {
                    let (target, errno, depth) = case_fields(&mut toks, &err)?;
                    tree = Some(TreeCase {
                        target,
                        errno,
                        depth: usize::try_from(depth).map_err(|_| err("bad depth"))?,
                    });
                }
                Some("op") => {
                    let name = toks.next().ok_or_else(|| err("missing op name"))?;
                    let a: u32 = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                    let b: u32 = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                    ops.push(op_parse(name, a, b).ok_or_else(|| err("unknown op"))?);
                }
                _ => return Err(err("unknown directive")),
            }
        }
        Ok(Repro {
            program: Program {
                seed: seed.ok_or("missing `seed` line")?,
                ops,
            },
            fault,
            tree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample, OpSet};
    use ia_abi::Sysno;

    #[test]
    fn conf_round_trips_every_op() {
        let program = sample(123, 200, OpSet::ALL);
        let repro = Repro {
            program,
            fault: Some(FaultCase {
                target: Sysno::Read,
                errno: Errno::EIO,
                every: 2,
            }),
            tree: None,
        };
        let text = repro.to_conf(&["console: bare=\"x\" vs wrapped=\"\""]);
        let back = Repro::from_conf(&text).unwrap();
        assert_eq!(back, repro);
    }

    #[test]
    fn conf_with_tree_case_round_trips() {
        let repro = Repro {
            program: sample(9, 12, OpSet::FS_CLIENT),
            fault: None,
            tree: Some(TreeCase {
                target: Sysno::Write,
                errno: Errno::EIO,
                depth: 2,
            }),
        };
        let text = repro.to_conf(&[]);
        assert!(text.contains("tree write"));
        assert_eq!(Repro::from_conf(&text).unwrap(), repro);
    }

    #[test]
    fn conf_without_fault_round_trips() {
        let repro = Repro {
            program: sample(5, 10, OpSet::FS_CLIENT),
            fault: None,
            tree: None,
        };
        assert_eq!(Repro::from_conf(&repro.to_conf(&[])).unwrap(), repro);
    }

    #[test]
    fn bad_lines_are_rejected_with_location() {
        assert!(Repro::from_conf("bogus 1").unwrap_err().contains("line 1"));
        assert!(Repro::from_conf("seed 1\nop no_such_op 0 0")
            .unwrap_err()
            .contains("line 2"));
    }
}
