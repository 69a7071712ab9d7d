//! # ia-analyze — static analysis of VM images
//!
//! The paper's agents decide at *attach time* which system calls they care
//! about (the interest set). This crate closes the loop from the other side:
//! it inspects a binary image **before it runs** and infers the set of
//! system calls the image could ever issue — its static *syscall footprint*
//! — plus a lint report of defects the machine would punish at runtime
//! (`SIGILL`, `SIGSEGV`, `SIGFPE`).
//!
//! The pipeline:
//!
//! 1. **Decode** every 12-byte instruction slot leniently ([`analyze_bytes`]
//!    tolerates undecodable slots, unlike `Image::from_bytes`).
//! 2. **CFG** construction with reachability from the entry point
//!    ([`cfg`]).
//! 3. **Abstract interpretation** over a constant/interval domain
//!    ([`domain`], [`interp`]), resolving the possible values of `r7` at
//!    every `SYS` site.
//! 4. **Footprint** conversion into an [`InterestSet`] — the same type
//!    agents register with the router — plus least-privilege policy
//!    inference (`SandboxAgent::from_footprint` in `ia-agents`).
//!
//! Soundness: the analysis *may over-approximate but never
//! under-approximates*. If `r7` cannot be bounded at some reachable site
//! (e.g. it was loaded from memory), the footprint widens to "all
//! syscalls" and `exact` flips off — the result fails closed.
//!
//! Three control-transfer gadgets can move the program counter somewhere no
//! CFG edge points, and each is accounted for explicitly:
//!
//! * **Signal delivery** — the kernel jumps to an arbitrary *instruction
//!   index* (not block leader) with the interrupted context's registers,
//!   `r0` = signal number, `r1` = auxiliary value, and a context frame
//!   pushed below `sp`.
//! * **`ret` through a corrupted slot** — the return address lives in
//!   writable stack memory; a store (or a syscall that writes memory) can
//!   redirect the `ret` to any index, with the registers live at the `ret`.
//! * **`sigreturn` with a forged context** — restores the pc *and all 16
//!   registers* from program-controlled memory, so its targets cannot be
//!   bounded by any join of program states.
//!
//! The first two transfer registers that are bounded by the join of all
//! ordinary program-point states, so [`analyze_code`] handles them with a
//! *pervasive* re-analysis (see [`interp::run_pervasive`]) rooted at every
//! instruction under that join, iterated to a fixpoint. The third is
//! unbounded by construction: a reachable `sigreturn` site forces the
//! footprint to `ALL` with `exact = false` — fail closed, never guess.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod domain;
pub mod flow;
pub mod interp;
pub mod report;
pub mod taint;

pub use cfg::Cfg;
pub use domain::AbsVal;
pub use flow::{analyze_flow, FlowAnalysis, FlowLabel, FlowSpec, SinkFlow, SourceFlow};
pub use interp::{RegState, SysSite, SyscallSet, ValueFinding};
pub use report::{flow_json, lint_json, render_text, Finding, Severity, SCHEMA_VERSION};
pub use taint::Taint;

use ia_abi::{Errno, Sysno};
use ia_interpose::InterestSet;
use ia_vm::{Image, Insn, IMAGE_MAGIC};
use std::collections::BTreeSet;

/// The inferred static syscall footprint of an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// The footprint as an interest set — directly usable for policy.
    pub set: InterestSet,
    /// True if every reachable `SYS` site resolved to concrete numbers.
    /// False means some site widened to ⊤ and `set` is `ALL` (fail closed).
    pub exact: bool,
    /// The enumerated syscall numbers (meaningful only when `exact`).
    pub nrs: BTreeSet<u32>,
}

impl Footprint {
    /// Derives the footprint from resolved `SYS` sites.
    #[must_use]
    pub fn from_sites(sites: &[SysSite]) -> Footprint {
        let mut set = InterestSet::new();
        let mut nrs = BTreeSet::new();
        let mut exact = true;
        for site in sites {
            match &site.nrs {
                SyscallSet::Exact(vs) => {
                    for &v in vs {
                        nrs.insert(v);
                        if v < 256 {
                            set.add(v);
                        } else {
                            // InterestSet uses bit 255 as the "and beyond"
                            // proxy; contains(nr ≥ 256) tests that bit.
                            set.add(255);
                        }
                    }
                }
                SyscallSet::Top => {
                    set = InterestSet::ALL;
                    exact = false;
                }
            }
        }
        if !exact {
            nrs.clear();
        }
        Footprint { set, exact, nrs }
    }

    /// The footprint as symbolic names, where the numbers are known calls.
    #[must_use]
    pub fn syscalls(&self) -> Vec<Sysno> {
        self.nrs
            .iter()
            .filter_map(|&v| Sysno::from_u32(v))
            .collect()
    }
}

/// Everything the analyzer learned about one image.
#[derive(Debug, Clone)]
pub struct ImageAnalysis {
    /// Entry point (instruction index).
    pub entry: usize,
    /// Lenient decode of the code segment; `None` = undecodable slot.
    pub code: Vec<Option<Insn>>,
    /// Data segment length in bytes.
    pub data_len: usize,
    /// The control-flow graph (reachability computed from `entry`).
    pub cfg: Cfg,
    /// Resolved `SYS` sites used for the footprint. When signal handlers
    /// force a second phase these include handler-reachable sites.
    pub sites: Vec<SysSite>,
    /// Lint findings, errors first.
    pub findings: Vec<Finding>,
    /// The inferred syscall footprint.
    pub footprint: Footprint,
}

impl ImageAnalysis {
    /// Number of findings at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// True if any finding is an error — the image faults on a reachable
    /// path.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

/// Severity for a structural defect: error where reachable, else warning.
fn sev(reachable: bool) -> Severity {
    if reachable {
        Severity::Error
    } else {
        Severity::Warning
    }
}

/// Analyzes an already-decoded code segment.
#[must_use]
pub fn analyze_code(code: Vec<Option<Insn>>, entry: usize, data_len: usize) -> ImageAnalysis {
    let n = code.len();
    let cfg = Cfg::build(&code, entry);

    // Phase 1: abstract interpretation from the entry point.
    let roots = if entry < n {
        vec![(cfg.block_of[entry], RegState::at_entry())]
    } else {
        Vec::new()
    };
    let phase1 = interp::run(&code, &cfg, &roots);

    let mut findings = Vec::new();

    if entry >= n {
        findings.push(Finding {
            severity: Severity::Error,
            kind: "fall-off-end",
            at: None,
            message: format!(
                "entry point {entry} is at/past the end of the {n}-insn text segment (SIGSEGV at startup)"
            ),
        });
    }

    // A block whose trailing `sys` provably invokes exit (`r7 == EXIT` on
    // every path into it, per phase 1) does not return in an un-interposed
    // run, so control running off the end there is not a fault the image
    // can reach on its own. An agent that vetoes the exit changes that at
    // runtime, but the veto is the agent's decision — and the CFG keeps the
    // fall-through edge regardless, so the *footprint* stays sound. This is
    // a value judgment, not a syntactic one: a `sys` entered from a branch
    // with some other `r7` does return, and keeps its finding.
    let exit_nr = Sysno::Exit as u32;
    let provably_exits = |at: usize| {
        phase1.sites.iter().any(|s| {
            s.at == at
                && matches!(&s.nrs, SyscallSet::Exact(vs) if vs.as_slice() == [exit_nr].as_slice())
        })
    };

    for (b, block) in cfg.blocks.iter().enumerate() {
        let reachable = cfg.reachable[b];
        if block.ends_in_illegal {
            findings.push(Finding {
                severity: sev(reachable),
                kind: "undecodable",
                at: Some(block.end - 1),
                message: format!(
                    "undecodable instruction{} (SIGILL if executed)",
                    if reachable {
                        " on a reachable path"
                    } else {
                        " in unreachable code"
                    }
                ),
            });
        }
        if block.falls_off && !provably_exits(block.end - 1) {
            findings.push(Finding {
                severity: sev(reachable),
                kind: "fall-off-end",
                at: Some(block.end - 1),
                message: format!(
                    "control can run off the end of the text segment{} (SIGSEGV)",
                    if reachable {
                        ""
                    } else {
                        " (unreachable block)"
                    }
                ),
            });
        }
    }

    for bt in &cfg.bad_targets {
        let reachable = cfg.reachable[cfg.block_of[bt.at]];
        findings.push(Finding {
            severity: sev(reachable),
            kind: "bad-branch-target",
            at: Some(bt.at),
            message: format!(
                "branch target {} is outside the text segment (0..{n}){}",
                bt.target,
                if reachable { "" } else { " [unreachable]" }
            ),
        });
    }

    for f in &phase1.findings {
        findings.push(match *f {
            ValueFinding::DivByZero { at, reg } => Finding {
                severity: Severity::Error,
                kind: "div-by-zero",
                at: Some(at),
                message: format!("divisor r{reg} is provably zero here (SIGFPE)"),
            },
            ValueFinding::StoreBelowData { at, addr } => Finding {
                severity: Severity::Warning,
                kind: "store-below-data",
                at: Some(at),
                message: format!(
                    "store to address {addr:#x}, below the data base {:#x} (guard region)",
                    ia_vm::DATA_BASE
                ),
            },
            ValueFinding::ReadUnwritten { at, reg } => Finding {
                severity: Severity::Warning,
                kind: "read-unwritten",
                at: Some(at),
                message: format!("r{reg} is read but never written on some path reaching here"),
            },
        });
    }

    // Unreachable-code warnings, one per contiguous instruction span.
    let mut span: Option<(usize, usize)> = None;
    let mut spans = Vec::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            span = match span {
                Some((s, _)) => Some((s, block.end)),
                None => Some((block.start, block.end)),
            };
        } else if let Some(sp) = span.take() {
            spans.push(sp);
        }
    }
    spans.extend(span);
    for (s, e) in spans {
        findings.push(Finding {
            severity: Severity::Warning,
            kind: "unreachable-code",
            at: Some(s),
            message: format!("insns {s}..{e} are unreachable from the entry point"),
        });
    }

    // Phase 2: account for control transfers no CFG edge models. Ladder,
    // most to least severe; the footprint comes from the deepest phase that
    // ran, while lint findings and reachability stay with phase 1 (the
    // pervasive phase's pessimism would drown them in noise).
    //
    // 1. `sigreturn` restores the pc and *all* registers from
    //    program-controlled memory: nothing bounds where it goes or with
    //    what, so any site that may invoke it forces the footprint to ALL.
    // 2. Signal delivery (possible once `sigaction` may run) enters an
    //    arbitrary instruction index with the interrupted registers; a
    //    `ret` whose stack slot was corrupted enters an arbitrary index
    //    with the registers live at the `ret`. Both carry register states
    //    bounded by the join of all program-point states, so a pervasive
    //    re-analysis rooted at every instruction under that join (iterated,
    //    since handler code adds new points) covers them.
    let may_invoke = |sites: &[SysSite], nr: u32| {
        sites.iter().any(|s| match &s.nrs {
            SyscallSet::Top => true,
            SyscallSet::Exact(vs) => vs.contains(&nr),
        })
    };
    let sigaction = Sysno::Sigaction as u32;
    let sigreturn = Sysno::Sigreturn as u32;
    // Any reachable `ret` counts as corruptible: the return slot sits in
    // writable memory below data the kernel seeded (a depth-0 `ret` pops an
    // argv pointer), and no store in this machine is provably stack-safe.
    let reachable_ret = cfg
        .blocks
        .iter()
        .enumerate()
        .any(|(b, blk)| cfg.reachable[b] && code[blk.end - 1] == Some(Insn::Ret));

    // What delivery scribbles on top of an interrupted context: r0 becomes
    // the signal number, r1 an auxiliary value, and sp moves down past the
    // pushed context frame. Applied unconditionally — it only widens.
    let adjust = |mut st: RegState| {
        st.regs[0] = st.regs[0].join(AbsVal::range(1, 32));
        st.regs[1] = AbsVal::Top;
        st.regs[15] = AbsVal::Top;
        st.written = u16::MAX;
        st
    };

    // Why a phase's sites force the footprint to ALL, if they do.
    let cause = |sites: &[SysSite]| -> Option<&'static str> {
        if sites.iter().any(|s| matches!(s.nrs, SyscallSet::Top)) {
            Some("a syscall number could not be bounded (loaded from memory or otherwise unresolved)")
        } else if may_invoke(sites, sigreturn) {
            Some("a reachable site may invoke sigreturn, which resumes at an arbitrary pc with arbitrary registers from a forgeable saved context")
        } else {
            None
        }
    };

    let mut widened = cause(&phase1.sites);
    let sites = if widened.is_some() {
        phase1.sites
    } else if may_invoke(&phase1.sites, sigaction) || reachable_ret {
        let mut pervasive = adjust(phase1.point_join.clone().unwrap_or_else(RegState::at_entry));
        // Iterate: the pervasive run reaches new program points (handler
        // bodies, ret targets) whose states feed back into the bound. The
        // chain can climb slowly, so after a few rounds give up the
        // precision and jump to ⊤, which is a fixpoint by construction.
        let mut rounds = 0;
        let phase2 = loop {
            let a = interp::run_pervasive(&code, &cfg, &pervasive);
            let next = match &a.point_join {
                Some(pj) => pervasive.join(&adjust(pj.clone())),
                None => pervasive.clone(),
            };
            if next == pervasive {
                break a;
            }
            rounds += 1;
            pervasive = if rounds >= 4 { RegState::top() } else { next };
        };
        // Handler or ret-target code may itself reach a sigreturn (or an
        // unbounded site) phase 1 never saw; the ladder's first rung
        // applies to it all the same.
        widened = cause(&phase2.sites);
        phase2.sites
    } else {
        phase1.sites
    };

    let mut footprint = Footprint::from_sites(&sites);
    if let Some(why) = widened {
        footprint = Footprint {
            set: InterestSet::ALL,
            exact: false,
            nrs: BTreeSet::new(),
        };
        findings.push(Finding {
            severity: Severity::Warning,
            kind: "footprint-widened",
            at: None,
            message: format!("footprint widened to all syscalls: {why}"),
        });
    }
    findings.sort_by_key(|f| (f.severity, f.at));
    ImageAnalysis {
        entry,
        code,
        data_len,
        cfg,
        sites,
        findings,
        footprint,
    }
}

/// Analyzes a parsed image.
#[must_use]
pub fn analyze_image(img: &Image) -> ImageAnalysis {
    analyze_code(
        img.code.iter().copied().map(Some).collect(),
        img.entry as usize,
        img.data.len(),
    )
}

/// Lenient image parse + analysis: the header must be well-formed, but
/// undecodable instruction slots become lint findings instead of `ENOEXEC`
/// (unlike `Image::from_bytes`, which rejects the whole file).
pub fn analyze_bytes(bytes: &[u8]) -> Result<ImageAnalysis, Errno> {
    const HEADER: usize = 4 + 4 + 8 + 4 + 4;
    if bytes.len() < HEADER {
        return Err(Errno::ENOEXEC);
    }
    let u32at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let magic = u32at(0);
    let version = u32at(4);
    if magic != IMAGE_MAGIC || version != 1 {
        return Err(Errno::ENOEXEC);
    }
    let entry = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let ncode = u32at(16) as usize;
    let ndata = u32at(20) as usize;
    // Checked: on 32-bit targets a hostile ncode near u32::MAX would wrap
    // `ncode * 12` and could make a short file pass the length check.
    let expected = ncode
        .checked_mul(12)
        .and_then(|c| c.checked_add(HEADER))
        .and_then(|c| c.checked_add(ndata));
    if expected != Some(bytes.len()) {
        return Err(Errno::ENOEXEC);
    }
    let code: Vec<Option<Insn>> = bytes[HEADER..HEADER + ncode * 12]
        .chunks_exact(12)
        .map(|c| Insn::decode(c.try_into().expect("12 bytes")))
        .collect();
    let entry = usize::try_from(entry).unwrap_or(usize::MAX);
    Ok(analyze_code(code, entry, ndata))
}

/// Convenience: just the footprint of an image.
#[must_use]
pub fn footprint(img: &Image) -> Footprint {
    analyze_image(img).footprint
}

/// The lint exec gate: refuses (`ENOEXEC`) any image whose lint report
/// contains errors, so `execve` of a binary that provably faults fails up
/// front instead of at runtime. Install it when building the exec cache:
/// `KernelBuilder::new().exec_cache(ExecCache::gated(lint_gate))`.
pub fn lint_gate(img: &Image) -> Result<(), Errno> {
    if analyze_image(img).has_errors() {
        Err(Errno::ENOEXEC)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_vm::Insn::*;

    fn img(code: Vec<Insn>) -> Image {
        Image {
            entry: 0,
            code,
            data: Vec::new(),
        }
    }

    #[test]
    fn clean_program_has_no_findings_and_an_exact_footprint() {
        let a = analyze_image(&img(vec![
            Li(0, 0),
            Li(7, Sysno::Getpid as u64),
            Sys,
            Li(7, Sysno::Exit as u64),
            Sys,
        ]));
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert!(a.footprint.exact);
        assert_eq!(a.footprint.syscalls(), vec![Sysno::Exit, Sysno::Getpid]);
        assert!(a.footprint.set.contains(Sysno::Getpid as u32));
        assert!(!a.footprint.set.contains(Sysno::Open as u32));
    }

    #[test]
    fn indirect_syscall_number_fails_closed() {
        // r7 loaded from memory: the footprint must widen to ALL.
        let a = analyze_image(&img(vec![Ld(7, 15, 0), Sys, Halt]));
        assert!(!a.footprint.exact);
        assert_eq!(a.footprint.set, InterestSet::ALL);
        assert!(a.footprint.nrs.is_empty());
    }

    #[test]
    fn sigaction_triggers_handler_phase() {
        // Installs a handler whose body is an island no CFG edge reaches
        // (the jmp spins in place) — only the pervasive phase sees it run.
        let code = vec![
            Li(7, Sysno::Sigaction as u64), // 0
            Sys,                            // 1
            Li(7, Sysno::Exit as u64),      // 2
            Sys,                            // 3
            Jmp(4),                         // 4: spin if the exit is vetoed
            Li(7, Sysno::Getpid as u64),    // 5: handler body (island)
            Sys,                            // 6
            Ret,                            // 7
        ];
        let a = analyze_image(&img(code));
        assert!(a.footprint.exact);
        assert!(
            a.footprint.set.contains(Sysno::Getpid as u32),
            "handler site included: {:?}",
            a.footprint
        );
    }

    #[test]
    fn ret_through_corrupted_stack_slot_is_covered() {
        // The program forges a return address: [sp] ← 4, ret. The CFG has
        // no edge from the ret to insn 4, but the machine jumps there, so
        // the "hidden" getpid must land in the footprint anyway.
        let code = vec![
            Li(1, 4),                    // 0: forged target = insn 4
            Addi(15, 15, -8),            // 1
            St(15, 1, 0),                // 2: [sp] ← 4
            Ret,                         // 3: pc ← mem[sp] = 4
            Li(7, Sysno::Getpid as u64), // 4: CFG-unreachable
            Sys,                         // 5
            Li(7, Sysno::Exit as u64),   // 6
            Sys,                         // 7
        ];
        let a = analyze_image(&img(code));
        assert!(
            a.footprint.set.contains(Sysno::Getpid as u32),
            "ret-hijacked syscalls are in the footprint: {:?}",
            a.footprint
        );
        assert!(a.footprint.set.contains(Sysno::Exit as u32));
    }

    #[test]
    fn branch_into_exit_sys_does_not_hide_the_fall_through() {
        // `jmp 2` enters the sys with r7 = 0 (not exit), so at runtime the
        // trap returns and control falls into the code below. The old
        // syntactic exit idiom pruned that edge and hid the getpid.
        let code = vec![
            Jmp(2),                      // 0
            Li(7, Sysno::Exit as u64),   // 1: skipped
            Sys,                         // 2: r7 = 0 here
            Li(7, Sysno::Getpid as u64), // 3
            Sys,                         // 4
            Li(7, Sysno::Exit as u64),   // 5
            Sys,                         // 6
        ];
        let a = analyze_image(&img(code));
        assert!(a.footprint.exact);
        assert!(
            a.footprint.set.contains(Sysno::Getpid as u32),
            "post-sys code is live: {:?}",
            a.footprint
        );
        // The final sys *is* provably exit, so no fall-off-end error.
        assert!(!a.has_errors(), "{:?}", a.findings);
    }

    #[test]
    fn sigreturn_forces_footprint_to_all() {
        // A forged SigContext lets sigreturn resume anywhere with any
        // registers; nothing short of ALL is sound.
        let code = vec![
            Li(7, Sysno::Sigreturn as u64),
            Sys,
            Li(7, Sysno::Exit as u64),
            Sys,
        ];
        let a = analyze_image(&img(code));
        assert!(!a.footprint.exact);
        assert_eq!(a.footprint.set, InterestSet::ALL);
        assert!(a.findings.iter().any(|f| f.kind == "footprint-widened"));
    }

    #[test]
    fn handler_entry_mid_block_widens_the_site() {
        // A handler may point directly at insn 3, entering with the
        // interrupted r7 — e.g. 46 from insn 0 — rather than the 1 the
        // in-block li suggests. The site must cover the whole point join,
        // not just the block-local narrowing.
        let code = vec![
            Li(7, Sysno::Sigaction as u64), // 0
            Sys,                            // 1
            Li(7, Sysno::Exit as u64),      // 2
            Sys,                            // 3
        ];
        let a = analyze_image(&img(code));
        assert!(a.footprint.exact);
        assert!(
            a.footprint.set.contains(Sysno::Getpid as u32),
            "mid-block entry carries any interrupted r7 in [0, 46]: {:?}",
            a.footprint
        );
    }

    #[test]
    fn hostile_header_lengths_are_rejected() {
        let mut bytes = img(vec![Nop, Halt]).to_bytes();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // ncode
        assert!(matches!(analyze_bytes(&bytes), Err(Errno::ENOEXEC)));
    }

    #[test]
    fn lint_errors_surface_and_gate_refuses() {
        let bad = img(vec![Jmp(99)]);
        let a = analyze_image(&bad);
        assert!(a.has_errors());
        assert!(a.findings.iter().any(|f| f.kind == "bad-branch-target"));

        let mut k = ia_kernel::KernelBuilder::new()
            .exec_cache(ia_kernel::ExecCache::gated(lint_gate))
            .build();
        k.install_image(b"/bin/bad", &bad).expect("install");
        let err = k.spawn(b"/bin/bad", &[b"bad"]).expect_err("gated");
        assert_eq!(err, Errno::ENOEXEC);
    }

    #[test]
    fn lenient_parse_reports_undecodable_instead_of_rejecting() {
        let mut bytes = img(vec![Nop, Nop, Halt]).to_bytes();
        // Corrupt the second instruction's opcode.
        bytes[24 + 12] = 0xfe;
        assert!(Image::from_bytes(&bytes).is_err(), "strict parser rejects");
        let a = analyze_bytes(&bytes).expect("lenient parser accepts");
        assert!(a.findings.iter().any(|f| f.kind == "undecodable"));
        assert!(a.has_errors());
    }
}
