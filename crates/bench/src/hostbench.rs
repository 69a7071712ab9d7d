//! Host-throughput measurement backing `reproduce --json` (`BENCH_1.json`).
//!
//! Unlike everything else in this crate, these numbers are *host*
//! wall-clock, not virtual time: how many simulated instructions and traps
//! per second the interpreter-plus-scheduler retires on the machine
//! running it. Each scenario runs on the reference (plain engine, fast path
//! off), on the fused engine with the fast path off, and on the default
//! configuration (fused engine, fast path on) in the same process, so the
//! reported speedups are measured in one environment rather than compared
//! across commits.
//!
//! Scenarios, following the paper's low-level methodology (§3.4):
//!
//! * a pure compute loop (no traps) — interpreter + scheduler overhead,
//!   reported in Minsns/s;
//! * a `getpid()` trap loop — trap dispatch overhead, reported in traps/s;
//! * both repeated beneath an ALL-interest symbolic agent, the worst-case
//!   interposition configuration of Table 3-4;
//! * the trap loop beneath a batchable pass-through observer (vectored
//!   upcalls) and beneath a stack of three timex agents (a deep chain none
//!   of whose agents is interested in `getpid`).

use std::time::Instant;

use ia_agents::{PassThrough, TimeSymbolic, Timex};
use ia_interpose::InterposedRouter;
use ia_kernel::{Engine, Kernel, KernelBuilder, RunOutcome};
use ia_obs::report::{Json, Layout};
use ia_vm::{Image, ProgramBuilder};
use ia_workloads::micro::{self, MicroCall};

/// Iterations of the 2-instruction compute loop (≈ 6M instructions with
/// prologue).
const COMPUTE_ITERS: u64 = 3_000_000;
/// `getpid()` traps per trap-loop run.
const TRAP_ITERS: u64 = 150_000;
/// Timed repetitions per scenario, each running every configuration
/// once; each row keeps its best (minimum-time) repetition.
const REPS: usize = 9;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario key, e.g. `compute/no_agent`.
    pub name: String,
    /// `"fused"` (production engine) or `"plain"` (single-step
    /// reference).
    pub engine: &'static str,
    /// Whether the trap fast path (in-loop `getpid`/`gettimeofday`
    /// answers on the fused engine) was enabled for the run.
    pub fast_path: bool,
    /// Simulated instructions retired.
    pub insns: u64,
    /// Traps dispatched at the kernel.
    pub traps: u64,
    /// Best host wall-clock seconds over the repetitions.
    pub host_secs: f64,
    /// Millions of simulated instructions per host second.
    pub minsns_per_sec: f64,
    /// Traps per host second.
    pub traps_per_sec: f64,
}

/// The agent configuration wrapped around a benchmark process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentCfg {
    /// Bare process, no chain.
    None,
    /// One ALL-interest symbolic agent (Table 3-4 worst case).
    AllInterest,
    /// One batchable full-coverage observer (vectored upcall floor).
    Observer,
    /// Three stacked timex agents (deep chain, `getpid` uninterested).
    Stacked3,
}

impl AgentCfg {
    fn install(self, k: &mut Kernel, router: &mut InterposedRouter, pid: ia_kernel::Pid) {
        match self {
            AgentCfg::None => {}
            AgentCfg::AllInterest => {
                ia_interpose::wrap_process(k, router, pid, TimeSymbolic::boxed(), &[]);
            }
            AgentCfg::Observer => {
                ia_interpose::wrap_process(k, router, pid, PassThrough::boxed(), &[]);
            }
            AgentCfg::Stacked3 => {
                for off in [60, 120, 180] {
                    ia_interpose::wrap_process(k, router, pid, Timex::boxed(off), &[]);
                }
            }
        }
    }
}

fn compute_image(iters: u64) -> Image {
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.li(13, iters);
    let top = b.here();
    let done = b.new_label();
    b.jz(13, done);
    b.addi(13, 13, -1);
    b.jmp(top);
    b.bind(done);
    b.li(0, 0);
    b.sys(ia_abi::Sysno::Exit);
    b.build()
}

fn measure_once(img: &Image, agent: AgentCfg, (fused, fast): Config) -> (u64, u64, f64) {
    let mut k = KernelBuilder::new()
        .fast_path(fast)
        .engine(if fused { Engine::Fused } else { Engine::Plain })
        .build();
    micro::setup(&mut k);
    let pid = k.spawn_image(img, &[b"bench"], b"bench");
    let mut router = InterposedRouter::new();
    agent.install(&mut k, &mut router, pid);
    let t0 = Instant::now();
    let outcome = k.run_with(&mut router);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(outcome, RunOutcome::AllExited, "bench workload must finish");
    (k.total_insns, k.total_syscalls, secs)
}

/// `(fused engine, fast path)`.
type Config = (bool, bool);

/// The reference: plain engine, fast path off.
const REFERENCE: Config = (false, false);
/// The default configuration: fused engine, fast path on.
const DEFAULT: Config = (true, true);

/// Measures one scenario under each of `configs`, interleaved rep by rep
/// (every repetition runs each configuration once, in order), and keeps
/// each row's fastest repetition, so a ratio's two sides are timed at
/// most one repetition apart.
fn interleaved<const N: usize>(
    name: &str,
    img: &Image,
    agent: AgentCfg,
    configs: [Config; N],
) -> [Scenario; N] {
    let mut best = [(0, 0, f64::INFINITY); N];
    for _ in 0..REPS {
        for (best, &config) in best.iter_mut().zip(&configs) {
            let r = measure_once(img, agent, config);
            if r.2 < best.2 {
                *best = r;
            }
        }
    }
    std::array::from_fn(|i| {
        let ((fused, fast), (insns, traps, host_secs)) = (configs[i], best[i]);
        Scenario {
            name: name.to_string(),
            engine: if fused { "fused" } else { "plain" },
            fast_path: fast,
            insns,
            traps,
            host_secs,
            minsns_per_sec: insns as f64 / host_secs / 1e6,
            traps_per_sec: traps as f64 / host_secs,
        }
    })
}

/// Runs every scenario on the reference, on the fused engine without the
/// trap fast path, and on the default configuration — each later column
/// turning on one stage of the hot path, so the committed numbers carry
/// each stage's before/after. A scenario's three configurations are
/// interleaved rep by rep (see [`interleaved`]), so every speedup divides
/// rows measured in the same host windows.
#[must_use]
pub fn run_all() -> Vec<Scenario> {
    let compute = compute_image(COMPUTE_ITERS);
    let traps = micro::loop_image(MicroCall::Getpid, TRAP_ITERS);
    let mut out = Vec::new();
    for (loop_name, img, agent) in [
        ("compute/no_agent", &compute, AgentCfg::None),
        (
            "compute/all_interest_agent",
            &compute,
            AgentCfg::AllInterest,
        ),
        ("traps/no_agent", &traps, AgentCfg::None),
        ("traps/all_interest_agent", &traps, AgentCfg::AllInterest),
        ("traps/pass_through", &traps, AgentCfg::Observer),
        ("traps/stacked3", &traps, AgentCfg::Stacked3),
    ] {
        out.extend(interleaved(
            loop_name,
            img,
            agent,
            [REFERENCE, (true, false), DEFAULT],
        ));
    }
    out
}

/// The trap scenario the CI smoke check guards: the bare trap loop on the
/// default configuration (fused engine, fast path on).
pub const SMOKE_SCENARIO: &str = "traps/no_agent";

/// The compute scenario the CI smoke check guards: the bare compute loop
/// on the default configuration, gating interpreter throughput in
/// Minsns/s.
pub const SMOKE_COMPUTE_SCENARIO: &str = "compute/no_agent";

/// Measures [`SMOKE_SCENARIO`] on the default configuration (fused engine,
/// fast path on) *and* on the reference (plain engine, fast path off),
/// interleaved rep by rep in the same host windows. The gate compares the
/// live guarded/reference *ratio* against the committed one: shared CI
/// hosts swing absolute throughput by 2× between frequency windows, and
/// a ratio divides the window out while still catching hot-path
/// regressions. Each row keeps its best repetition: a gate must not trip
/// on a cold cache or a scheduling hiccup.
#[must_use]
pub fn run_smoke() -> (Scenario, Scenario) {
    let traps = micro::loop_image(MicroCall::Getpid, TRAP_ITERS);
    let [default, reference] =
        interleaved(SMOKE_SCENARIO, &traps, AgentCfg::None, [DEFAULT, REFERENCE]);
    (default, reference)
}

/// Measures [`SMOKE_COMPUTE_SCENARIO`] on the default configuration plus
/// the reference, same pairing and best-of discipline as [`run_smoke`].
#[must_use]
pub fn run_smoke_compute() -> (Scenario, Scenario) {
    let compute = compute_image(COMPUTE_ITERS);
    let [default, reference] = interleaved(
        SMOKE_COMPUTE_SCENARIO,
        &compute,
        AgentCfg::None,
        [DEFAULT, REFERENCE],
    );
    (default, reference)
}

/// Renders the scenarios (plus per-stage speedups) as the
/// `BENCH_1.json` document.
#[must_use]
pub fn render_json(scenarios: &[Scenario]) -> String {
    let rows = scenarios.iter().map(|sc| {
        Json::inline()
            .field("name", &sc.name)
            .field("engine", sc.engine)
            .field("fast_path", sc.fast_path)
            .field("insns", sc.insns)
            .field("traps", sc.traps)
            .field("host_secs", Json::fixed(sc.host_secs, 6))
            .field("minsns_per_sec", Json::fixed(sc.minsns_per_sec, 3))
            .field("traps_per_sec", Json::fixed(sc.traps_per_sec, 1))
    });
    let mut doc = Json::document("bench", "BENCH_1")
        .field(
            "description",
            "host throughput of the simulator hot path, default configuration vs plain reference, one environment",
        )
        .field("machine_profile", "i486_25")
        .field("scenarios", Json::array(Layout::Block, rows));
    let mut names: Vec<&String> = scenarios.iter().map(|s| &s.name).collect();
    names.dedup();
    let of = |name: &str, (engine, fast): (&str, bool)| {
        scenarios
            .iter()
            .find(|s| s.name == name && s.engine == engine && s.fast_path == fast)
    };
    // Each ratio compares runs taken in this same process, turning on one
    // hot-path stage at a time: execution engine, then trap fast path.
    for (section, slow, quick) in [
        (
            "speedup_fused_over_plain",
            ("plain", false),
            ("fused", false),
        ),
        (
            "speedup_fast_over_nofast",
            ("fused", false),
            ("fused", true),
        ),
    ] {
        let mut speedups = Json::block();
        for name in &names {
            if let (Some(slow), Some(quick)) = (of(name, slow), of(name, quick)) {
                speedups = speedups.field(name, Json::fixed(slow.host_secs / quick.host_secs, 2));
            }
        }
        doc = doc.field(section, speedups);
    }
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_image_retires_expected_instructions() {
        let mut k = KernelBuilder::new().build();
        micro::setup(&mut k);
        k.spawn_image(&compute_image(50), &[b"c"], b"c");
        assert_eq!(k.run_to_completion(), RunOutcome::AllExited);
        // 1 (li) + 50 × 3 (jz, addi, jmp) + 1 (jz taken) + 1 (li) +
        // 2 (sys expands to li r7 + trap)
        assert_eq!(k.total_insns, 1 + 50 * 3 + 1 + 1 + 2);
    }
}
