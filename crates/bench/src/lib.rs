//! # ia-bench — regenerating every table and figure of the paper
//!
//! Each function reproduces one table from §3 of *Interposition Agents*;
//! the `reproduce` binary prints them in the paper's layout, and the
//! benches under `benches/` (built on [`harness`]) measure the same
//! scenarios in host wall-clock time.
//!
//! | Function | Paper table |
//! |---|---|
//! | [`table_3_1`] | Sizes of agents, measured in semicolons |
//! | [`table_3_2`] | Time to format my dissertation (VAX 6250) |
//! | [`table_3_3`] | Time to make 8 programs (25 MHz i486) |
//! | [`table_3_4`] | Performance of low-level operations |
//! | [`table_3_5`] | Performance of individual system calls |
//! | [`dfs_trace_comparison`] | §3.5.2 best-available-implementation study |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleetbench;
pub mod fusion;
pub mod harness;
pub mod hostbench;
pub mod overhead;
pub mod snapbench;

use std::fmt::Write as _;
use std::hint::black_box;

use harness::best_mean_ns;
use ia_agents::TimeSymbolic;
use ia_interpose::{InterposedRouter, SysCtx};
use ia_kernel::{KernelBuilder, MachineProfile, I486_25, VAX_6250};
use ia_workloads::micro::{self, MicroCall};
use ia_workloads::{run_workload, AgentKind, Workload};

/// One row of an agent-size table.
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Agent name.
    pub name: &'static str,
    /// Statements (semicolons) of toolkit code the agent reuses.
    pub toolkit_statements: usize,
    /// Statements specific to the agent.
    pub agent_statements: usize,
}

/// Counts statements in the spirit of the paper — "the actual metric used
/// was to count semicolons. For C and C++, this gives a better measure of
/// the actual number of statements present in the code than counting
/// lines". Rust is expression-oriented (match arms and tail expressions
/// carry no semicolon), so the closest equivalent counts semicolons *plus*
/// match arms, skipping comments, doc lines, and `#[cfg(test)]` modules.
#[must_use]
pub fn count_statements(source: &str) -> usize {
    let code = source.split("#[cfg(test)]").next().unwrap_or(source);
    code.lines()
        .map(str::trim_start)
        .filter(|l| !l.starts_with("//") && !l.starts_with("//!") && !l.starts_with("///"))
        .map(|l| {
            let semis = l.matches(';').count();
            // A match arm (`... => expr,` / `... => expr`) is a statement
            // that C would have written with a semicolon.
            let arm = usize::from(l.contains("=>"));
            semis + arm
        })
        .sum()
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/bench lives two levels down")
        .to_path_buf()
}

fn statements_in(rel_paths: &[&str]) -> usize {
    let root = workspace_root();
    rel_paths
        .iter()
        .map(|p| {
            let full = root.join(p);
            let src = std::fs::read_to_string(&full)
                .unwrap_or_else(|e| panic!("read {}: {e}", full.display()));
            count_statements(&src)
        })
        .sum()
}

/// Source files of the toolkit layers below the symbolic level (what the
/// paper counts as the 2467-statement reusable base for `timex`/`trace`).
pub const TOOLKIT_BASE_FILES: &[&str] = &[
    "crates/interpose/src/agent.rs",
    "crates/interpose/src/interest.rs",
    "crates/interpose/src/loader.rs",
    "crates/interpose/src/router.rs",
    "crates/core/src/ctx.rs",
    "crates/core/src/numeric.rs",
    "crates/core/src/scratch.rs",
    "crates/core/src/symbolic.rs",
];

/// The additional pathname/descriptor/open-object/directory layers the
/// `union` and `dfs_trace` agents also reuse (the paper's 3977 statements).
pub const TOOLKIT_FS_FILES: &[&str] = &[
    "crates/core/src/object.rs",
    "crates/core/src/path.rs",
    "crates/core/src/dir.rs",
    "crates/core/src/fsagent.rs",
];

/// Reproduces Table 3-1: sizes of agents in statements (semicolons).
#[must_use]
pub fn table_3_1() -> Vec<SizeRow> {
    let base = statements_in(TOOLKIT_BASE_FILES);
    let with_fs = base + statements_in(TOOLKIT_FS_FILES);
    vec![
        SizeRow {
            name: "timex",
            toolkit_statements: base,
            agent_statements: statements_in(&["crates/agents/src/timex.rs"]),
        },
        SizeRow {
            name: "trace",
            toolkit_statements: base,
            agent_statements: statements_in(&["crates/agents/src/trace.rs"]),
        },
        SizeRow {
            name: "union",
            toolkit_statements: with_fs,
            agent_statements: statements_in(&["crates/agents/src/union_agent.rs"]),
        },
    ]
}

/// One row of an application-timing table.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Agent row label ("None", "timex", ...).
    pub agent: &'static str,
    /// Virtual elapsed seconds.
    pub seconds: f64,
    /// Percent slowdown relative to the no-agent row.
    pub slowdown_pct: f64,
    /// Syscalls dispatched.
    pub syscalls: u64,
}

fn timing_table(workload: Workload, profile: MachineProfile) -> Vec<TimingRow> {
    let mut rows = Vec::new();
    let mut base = 0.0;
    for agent in AgentKind::TABLE_ROWS {
        let stats = run_workload(workload, profile, agent);
        if agent == AgentKind::None {
            base = stats.virtual_secs;
        }
        rows.push(TimingRow {
            agent: agent.name(),
            seconds: stats.virtual_secs,
            slowdown_pct: if base > 0.0 {
                (stats.virtual_secs / base - 1.0) * 100.0
            } else {
                0.0
            },
            syscalls: stats.syscalls,
        });
    }
    rows
}

/// Reproduces Table 3-2: formatting the dissertation on the VAX 6250.
#[must_use]
pub fn table_3_2() -> Vec<TimingRow> {
    timing_table(Workload::Scribe, VAX_6250)
}

/// Reproduces Table 3-3: making 8 programs on the 25 MHz i486.
#[must_use]
pub fn table_3_3() -> Vec<TimingRow> {
    timing_table(Workload::Make8, I486_25)
}

/// One row of the low-level operations table.
#[derive(Debug, Clone)]
pub struct LowLevelRow {
    /// Operation label, as in the paper.
    pub operation: &'static str,
    /// The paper's measured value in µs.
    pub paper_us: f64,
    /// The simulation's modelled value in µs.
    pub model_us: f64,
    /// Host nanoseconds per operation for our Rust substrate (a modern
    /// machine doing the analogous operation), for the record.
    pub host_ns: f64,
}

/// Reproduces Table 3-4: performance of the low-level operations that
/// implement interposition, on the i486 profile.
#[must_use]
pub fn table_3_4() -> Vec<LowLevelRow> {
    let p = I486_25;

    // Host-side analogues, measured with std::time.
    let obj: Box<dyn Callee> = Box::new(Impl);
    let [host_call, host_virtual] = best_mean_ns(HOST_REPS, HOST_ITERS, |leg| {
        let x = black_box(7);
        black_box(if leg == 0 { plain_call(x) } else { obj.call(x) });
    });
    let (host_intercept, host_downcall) = host_interposition_costs();

    vec![
        LowLevelRow {
            operation: "C procedure call with 1 arg, result",
            paper_us: 1.22,
            model_us: p.call_ns as f64 / 1000.0,
            host_ns: host_call,
        },
        LowLevelRow {
            operation: "C++ virtual procedure call with 1 arg, result",
            paper_us: 1.94,
            model_us: p.virtual_call_ns as f64 / 1000.0,
            host_ns: host_virtual,
        },
        LowLevelRow {
            operation: "Intercept and return from system call",
            paper_us: 30.0,
            model_us: p.intercept_ns as f64 / 1000.0,
            host_ns: host_intercept,
        },
        LowLevelRow {
            operation: "htg_unix_syscall() overhead",
            paper_us: 37.0,
            model_us: p.downcall_ns as f64 / 1000.0,
            host_ns: host_downcall,
        },
    ]
}

#[inline(never)]
fn plain_call(x: u64) -> u64 {
    x.wrapping_mul(2654435761).rotate_left(7)
}

trait Callee {
    fn call(&self, x: u64) -> u64;
}

struct Impl;

impl Callee for Impl {
    #[inline(never)]
    fn call(&self, x: u64) -> u64 {
        plain_call(x)
    }
}

/// Rounds, and calls per leg in each round, of Table 3-4's host timings
/// (see [`harness::best_mean_ns`]).
const HOST_REPS: usize = 5;
const HOST_ITERS: usize = 200_000;

/// Host wall-clock cost, in ns per `getpid`, of the two legs of an
/// intercepted trap as Table 3-4 splits them. The `htg_unix_syscall()` leg
/// is timed directly: one [`SysCtx::down`] over an empty chain minus one
/// direct [`ia_kernel::Kernel::syscall`]. "Intercept and return" is the
/// remainder: routing the trap through the interposed router to a
/// full-interception null agent (whose one downcall reaches the kernel)
/// minus the direct call, minus the downcall leg. The three legs are
/// timed round by round, so each difference is taken within one host
/// window.
fn host_interposition_costs() -> (f64, f64) {
    use ia_kernel::SyscallRouter;
    let img = ia_vm::assemble("main: halt\n").expect("trivial image");
    let getpid = ia_abi::Sysno::Getpid.number();
    let mut k = KernelBuilder::new().build();
    let pid = k.spawn_image(&img, &[b"m"], b"m");
    let mut router = InterposedRouter::new();
    router.push_agent(pid, TimeSymbolic::boxed());
    let [direct_ns, down_ns, routed_ns] = best_mean_ns(HOST_REPS, HOST_ITERS, |leg| {
        black_box(match leg {
            0 => k.syscall(pid, getpid, [0; 6]),
            1 => SysCtx::new(&mut k, pid, &mut [], 0).down(getpid, [0; 6]),
            _ => router.route(&mut k, pid, getpid, [0; 6], 0),
        });
    });
    let downcall = (down_ns - direct_ns).max(0.0);
    let intercept = (routed_ns - direct_ns - downcall).max(0.0);
    (intercept, downcall)
}

/// One row of the per-syscall table.
#[derive(Debug, Clone)]
pub struct SyscallRow {
    /// Call label, as printed in Table 3-5.
    pub operation: &'static str,
    /// Modelled µs without an agent.
    pub without_agent_us: f64,
    /// Modelled µs under the `time_symbolic` agent.
    pub with_agent_us: f64,
    /// The toolkit overhead (difference).
    pub overhead_us: f64,
}

/// Measures the virtual cost of one call of `call` by differencing two
/// loop lengths (cancelling program setup) and subtracting the exact
/// instruction time (cancelling loop overhead — negligible on the real
/// i486, but our per-instruction costs are deliberately inflated; see
/// `ia_kernel::clock`).
fn measure_micro(call: MicroCall, agent: bool, profile: MachineProfile) -> f64 {
    let run = |n: u64| -> (u64, u64) {
        let mut k = KernelBuilder::new().profile(profile).build();
        micro::setup(&mut k);
        let pid = k.spawn_image(&micro::loop_image(call, n), &[b"m"], b"m");
        let mut router = InterposedRouter::new();
        if agent {
            router.push_agent(pid, TimeSymbolic::boxed());
        }
        let out = k.run_with(&mut router);
        assert_eq!(out, ia_kernel::RunOutcome::AllExited, "{}", call.name());
        (k.clock.elapsed_ns(), k.total_insns)
    };
    let n1 = 64;
    let n2 = 192;
    let (e1, i1) = run(n1);
    let (e2, i2) = run(n2);
    // Signed difference: a `saturating_sub` here would clamp a
    // cheaper-than-instruction-time path to zero instead of reporting it.
    let d = i128::from(e2) - i128::from(e1) - i128::from((i2 - i1) * profile.insn_ns);
    d as f64 / f64::from((n2 - n1) as u32) / 1000.0
}

/// Reproduces Table 3-5: per-syscall cost without and with interposition,
/// on the i486 profile.
#[must_use]
pub fn table_3_5() -> Vec<SyscallRow> {
    MicroCall::ALL
        .iter()
        .map(|&call| {
            let without = measure_micro(call, false, I486_25);
            let with = measure_micro(call, true, I486_25);
            SyscallRow {
                operation: call.name(),
                without_agent_us: without,
                with_agent_us: with,
                overhead_us: with - without,
            }
        })
        .collect()
}

/// The §3.5.2 comparison: dfs_trace (agent-based file-reference tracing)
/// versus running untraced, on a file-intensive workload — the paper's
/// AFS-benchmark comparison showing agents trade performance for
/// structure.
#[derive(Debug, Clone)]
pub struct DfsComparison {
    /// Untraced virtual seconds.
    pub base_secs: f64,
    /// Traced virtual seconds.
    pub traced_secs: f64,
    /// Percent slowdown (paper: 64% for the agent, 3% for the kernel
    /// implementation it replicates).
    pub slowdown_pct: f64,
    /// Statements of agent-specific code (paper: 1584 vs the kernel
    /// implementation's 1627).
    pub agent_statements: usize,
}

/// Runs the dfs_trace comparison on the make8 workload.
#[must_use]
pub fn dfs_trace_comparison() -> DfsComparison {
    let base = run_workload(Workload::Make8, I486_25, AgentKind::None);
    let traced = run_workload(Workload::Make8, I486_25, AgentKind::DfsTrace);
    DfsComparison {
        base_secs: base.virtual_secs,
        traced_secs: traced.virtual_secs,
        slowdown_pct: (traced.virtual_secs / base.virtual_secs - 1.0) * 100.0,
        agent_statements: statements_in(&["crates/agents/src/dfs_trace.rs"]),
    }
}

// ---- rendering ---------------------------------------------------------

/// Renders Table 3-1 in the paper's layout.
#[must_use]
pub fn render_table_3_1(rows: &[SizeRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3-1: Sizes of agents, measured in semicolons");
    let _ = writeln!(
        out,
        "(paper: timex 35/2467, trace 1348/2467, union 166/3977)\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>10}",
        "Agent", "Toolkit", "Agent", "Total"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>10}",
            r.name,
            r.toolkit_statements,
            r.agent_statements,
            r.toolkit_statements + r.agent_statements
        );
    }
    out
}

/// Renders a timing table (3-2 or 3-3).
#[must_use]
pub fn render_timing(title: &str, paper_note: &str, rows: &[TimingRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "({paper_note})\n");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>10}",
        "Agent", "Seconds", "% Slowdown", "Syscalls"
    );
    for r in rows {
        if r.agent == "None" {
            let _ = writeln!(
                out,
                "{:<12} {:>10.1} {:>12} {:>10}",
                r.agent, r.seconds, "-", r.syscalls
            );
        } else {
            let _ = writeln!(
                out,
                "{:<12} {:>10.1} {:>11.1}% {:>10}",
                r.agent, r.seconds, r.slowdown_pct, r.syscalls
            );
        }
    }
    out
}

/// Renders Table 3-4.
#[must_use]
pub fn render_table_3_4(rows: &[LowLevelRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3-4: Performance of low-level operations");
    let _ = writeln!(
        out,
        "(i486 profile; host column = this machine running the substrate)\n"
    );
    let _ = writeln!(
        out,
        "{:<48} {:>10} {:>10} {:>12}",
        "Operation", "paper µs", "model µs", "host ns"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<48} {:>10.2} {:>10.2} {:>12.1}",
            r.operation, r.paper_us, r.model_us, r.host_ns
        );
    }
    out
}

/// Renders Table 3-5.
#[must_use]
pub fn render_table_3_5(rows: &[SyscallRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3-5: Performance of individual system calls (i486)"
    );
    let _ = writeln!(
        out,
        "(paper anchors: getpid 25 µs, gettimeofday 47 µs, read 1K 370 µs, stat 892 µs;\n toolkit overhead 140-210 µs typical, ~10 ms for fork/execve)\n"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12} {:>12}",
        "Operation", "without µs", "with µs", "overhead µs"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>12.0} {:>12.0} {:>12.0}",
            r.operation, r.without_agent_us, r.with_agent_us, r.overhead_us
        );
    }
    out
}

/// Renders the §3.5.2 comparison.
#[must_use]
pub fn render_dfs(cmp: &DfsComparison) -> String {
    format!(
        "DFSTrace comparison (§3.5.2), make-8-programs workload\n\
         (paper: agent-based tracing 64% slowdown vs 3.0% kernel-based; 1584 vs 1627 statements)\n\n\
         untraced: {:.1} s   dfs_trace: {:.1} s   slowdown: {:.1}%\n\
         agent-specific statements: {}\n",
        cmp.base_secs, cmp.traced_secs, cmp.slowdown_pct, cmp.agent_statements
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_counter_counts_semicolons_not_comments() {
        let src =
            "let a = 1; let b = 2;\n// not this; one\n/// nor; this\ncall();\nFoo => bar(),\n";
        assert_eq!(count_statements(src), 4, "3 semicolons + 1 match arm");
        let with_tests = "a();\n#[cfg(test)]\nmod tests { b(); c(); }\n";
        assert_eq!(count_statements(with_tests), 1, "test modules excluded");
    }

    #[test]
    fn table_3_1_shape() {
        let rows = table_3_1();
        assert_eq!(rows.len(), 3);
        let timex = &rows[0];
        let trace = &rows[1];
        let union = &rows[2];
        // The paper's size results: toolkit dominates simple agents; trace
        // is much larger than timex (proportional to the interface);
        // union's agent code stays small despite affecting 40+ calls.
        assert!(timex.agent_statements < 100, "{}", timex.agent_statements);
        assert!(
            trace.agent_statements > 3 * timex.agent_statements,
            "trace {} vs timex {}",
            trace.agent_statements,
            timex.agent_statements
        );
        assert!(
            timex.toolkit_statements > 5 * timex.agent_statements,
            "toolkit dominates: {} vs {}",
            timex.toolkit_statements,
            timex.agent_statements
        );
        assert!(union.toolkit_statements > trace.toolkit_statements);
        assert!(union.agent_statements < trace.agent_statements);
    }

    #[test]
    fn table_3_4_model_matches_paper_exactly() {
        for r in table_3_4() {
            let ratio = r.model_us / r.paper_us;
            assert!(
                (0.99..1.01).contains(&ratio),
                "{}: model {} vs paper {}",
                r.operation,
                r.model_us,
                r.paper_us
            );
        }
    }

    #[test]
    fn table_3_5_anchors_within_band() {
        let rows = table_3_5();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.operation == name)
                .unwrap_or_else(|| panic!("row {name}"))
                .clone()
        };
        let getpid = get("getpid()");
        assert!(
            (24.0..30.0).contains(&getpid.without_agent_us),
            "{getpid:?}"
        );
        assert!((140.0..220.0).contains(&getpid.overhead_us), "{getpid:?}");
        let read1k = get("read() 1K of data");
        assert!(
            (360.0..390.0).contains(&read1k.without_agent_us),
            "{read1k:?}"
        );
        let stat = get("stat()");
        assert!((880.0..910.0).contains(&stat.without_agent_us), "{stat:?}");
        let fstat = get("fstat()");
        assert!((84.0..90.0).contains(&fstat.without_agent_us), "{fstat:?}");
        let fork = get("fork(), wait(), _exit()");
        assert!(
            fork.overhead_us > 5_000.0,
            "fork under agents costs ~10+ms extra: {fork:?}"
        );
    }
}

/// One row of the pay-per-use ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: &'static str,
    /// Virtual seconds on make-8.
    pub seconds: f64,
    /// Traps intercepted.
    pub intercepted: u64,
    /// Traps bypassing the chain at zero cost.
    pub passthrough: u64,
}

/// Quantifies the pay-per-use design decision (DESIGN.md): the same
/// single-method agent (`timex`) costs dramatically less with a narrow
/// interest set than an equivalent agent registered for every trap —
/// "calls not intercepted by interposition agents go directly to the
/// underlying system and result in no additional overhead".
#[must_use]
pub fn ablation_pay_per_use() -> Vec<AblationRow> {
    let rows = [
        ("no agent", AgentKind::None),
        ("narrow interests (timex)", AgentKind::Timex),
        ("intercept-everything null", AgentKind::TimeSymbolic),
    ];
    rows.iter()
        .map(|&(label, kind)| {
            let stats = run_workload(Workload::Make8, I486_25, kind);
            AblationRow {
                config: label,
                seconds: stats.virtual_secs,
                intercepted: stats.intercepted,
                passthrough: stats.passthrough,
            }
        })
        .collect()
}

/// Renders the pay-per-use ablation.
#[must_use]
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: pay-per-use interception (make-8-programs, i486)"
    );
    let _ = writeln!(
        out,
        "(the design choice behind §3.4.2: \"agent overheads are of a pay-per-use nature\")\n"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>12}",
        "Configuration", "Seconds", "Intercepted", "Passthrough"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>10.1} {:>12} {:>12}",
            r.config, r.seconds, r.intercepted, r.passthrough
        );
    }
    out
}
