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

/// Iterations of the 3-instruction compute loop (≈ 9M instructions with
/// prologue) on the reference.
const COMPUTE_ITERS: u64 = 3_000_000;
/// `getpid()` traps per trap-loop run on the reference.
const TRAP_ITERS: u64 = 150_000;
/// Timed repetitions per scenario, each running every configuration
/// once; each row keeps its best (minimum-time) repetition, and each
/// speedup is the median of the repetitions' paired ratios.
const REPS: usize = 9;

/// Iterations per configuration (reference, fused without the fast path,
/// default) for the compute scenarios: the fused engine runs the loop
/// about 2.5x faster, so it runs twice the iterations.
const COMPUTE_SIZES: [u64; 3] = [COMPUTE_ITERS, 2 * COMPUTE_ITERS, 2 * COMPUTE_ITERS];
/// Iterations per configuration for a trap scenario whose `getpid` the
/// default answers in the loop, about 10x faster than routing it.
const ANSWERED_TRAP_SIZES: [u64; 3] = [TRAP_ITERS, TRAP_ITERS, 10 * TRAP_ITERS];
/// Iterations per configuration for a trap scenario whose agents send
/// every trap out to the router on every configuration.
const ROUTED_TRAP_SIZES: [u64; 3] = [TRAP_ITERS; 3];

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
    /// Host seconds of every repetition, in order. Rows of one scenario
    /// share the repetition index, so `rep_secs[i]` of two rows were
    /// timed back to back (see [`paired_speedup`]).
    pub rep_secs: Vec<f64>,
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

fn trap_image(iters: u64) -> Image {
    micro::loop_image(MicroCall::Getpid, iters)
}

/// Measures one scenario under each of `configs`, each running the loop
/// `image(iterations)` builds, interleaved rep by rep (every repetition
/// runs each configuration once, in order). Iterations are sized per
/// configuration so that every row's repetition takes a similar time, and
/// so shares the same host windows. Each row keeps its fastest repetition
/// as its throughput and every repetition's time for [`paired_speedup`].
fn interleaved<const N: usize>(
    name: &str,
    image: fn(u64) -> Image,
    agent: AgentCfg,
    configs: [(Config, u64); N],
) -> [Scenario; N] {
    let images = configs.map(|(_, iters)| image(iters));
    let mut counts = [(0, 0); N];
    let mut reps: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(REPS));
    for _ in 0..REPS {
        for (((count, reps), &(config, _)), img) in
            counts.iter_mut().zip(&mut reps).zip(&configs).zip(&images)
        {
            let (insns, traps, secs) = measure_once(img, agent, config);
            *count = (insns, traps);
            reps.push(secs);
        }
    }
    std::array::from_fn(|i| {
        let (((fused, fast), _), (insns, traps)) = (configs[i], counts[i]);
        let rep_secs = std::mem::take(&mut reps[i]);
        let host_secs = rep_secs.iter().copied().fold(f64::INFINITY, f64::min);
        Scenario {
            name: name.to_string(),
            engine: if fused { "fused" } else { "plain" },
            fast_path: fast,
            insns,
            traps,
            host_secs,
            rep_secs,
            minsns_per_sec: insns as f64 / host_secs / 1e6,
            traps_per_sec: traps as f64 / host_secs,
        }
    })
}

/// How many times faster `quick` ran than `slow`: the median over
/// repetitions of the two rows' paired throughput ratio, in simulated
/// instructions per host second (each loop retires a fixed number of
/// instructions per iteration, and the rows may run different iteration
/// counts). The two sides of each pair were timed back to back, so a host
/// window that speeds up or slows down one repetition cancels out of its
/// ratio, and the median ignores the odd repetition that ran alone in
/// one.
fn paired_speedup(slow: &Scenario, quick: &Scenario) -> f64 {
    let rate = |sc: &Scenario, secs: f64| sc.insns as f64 / secs.max(1e-9);
    let mut ratios: Vec<f64> = slow
        .rep_secs
        .iter()
        .zip(&quick.rep_secs)
        .map(|(&s, &q)| rate(quick, q) / rate(slow, s))
        .collect();
    ratios.sort_by(f64::total_cmp);
    match ratios.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => ratios[n / 2],
        n => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
    }
}

/// Runs every scenario on the reference, on the fused engine without the
/// trap fast path, and on the default configuration — each later column
/// turning on one stage of the hot path, so the committed numbers carry
/// each stage's before/after. A scenario's three configurations are
/// interleaved rep by rep (see [`interleaved`]), and every speedup is a
/// [`paired_speedup`] of rows measured in the same host windows.
#[must_use]
pub fn run_all() -> Vec<Scenario> {
    let compute: fn(u64) -> Image = compute_image;
    let traps: fn(u64) -> Image = trap_image;
    let mut out = Vec::new();
    for (loop_name, image, agent, [reference, nofast, default]) in [
        ("compute/no_agent", compute, AgentCfg::None, COMPUTE_SIZES),
        (
            "compute/all_interest_agent",
            compute,
            AgentCfg::AllInterest,
            COMPUTE_SIZES,
        ),
        ("traps/no_agent", traps, AgentCfg::None, ANSWERED_TRAP_SIZES),
        (
            "traps/all_interest_agent",
            traps,
            AgentCfg::AllInterest,
            ROUTED_TRAP_SIZES,
        ),
        (
            "traps/pass_through",
            traps,
            AgentCfg::Observer,
            ROUTED_TRAP_SIZES,
        ),
        (
            "traps/stacked3",
            traps,
            AgentCfg::Stacked3,
            ANSWERED_TRAP_SIZES,
        ),
    ] {
        out.extend(interleaved(
            loop_name,
            image,
            agent,
            [
                (REFERENCE, reference),
                ((true, false), nofast),
                (DEFAULT, default),
            ],
        ));
    }
    out
}

/// The trap scenario the CI smoke check guards: the bare trap loop on the
/// default configuration (fused engine, fast path on).
pub const SMOKE_SCENARIO: &str = "traps/no_agent";

/// The `BENCH_1.json` section holding each scenario's default-over-reference
/// [`paired_speedup`], against which `reproduce --smoke` gates.
pub const SMOKE_SECTION: &str = "speedup_default_over_reference";

/// The compute scenario the CI smoke check guards: the bare compute loop
/// on the default configuration, gating interpreter throughput in
/// Minsns/s.
pub const SMOKE_COMPUTE_SCENARIO: &str = "compute/no_agent";

/// Measures [`SMOKE_SCENARIO`] on the reference (plain engine, fast path
/// off) and the default configuration (fused engine, fast path on),
/// interleaved rep by rep in that order as in [`run_all`], and returns
/// the default's [`paired_speedup`] over the reference. The gate compares
/// it against the committed one: shared CI hosts swing absolute
/// throughput by 2× between frequency windows, and a paired ratio
/// divides the window out while still catching hot-path regressions.
#[must_use]
pub fn run_smoke() -> f64 {
    let [reference, _, default] = ANSWERED_TRAP_SIZES;
    let [reference, default] = interleaved(
        SMOKE_SCENARIO,
        trap_image,
        AgentCfg::None,
        [(REFERENCE, reference), (DEFAULT, default)],
    );
    paired_speedup(&reference, &default)
}

/// [`run_smoke`] for [`SMOKE_COMPUTE_SCENARIO`].
#[must_use]
pub fn run_smoke_compute() -> f64 {
    let [reference, _, default] = COMPUTE_SIZES;
    let [reference, default] = interleaved(
        SMOKE_COMPUTE_SCENARIO,
        compute_image,
        AgentCfg::None,
        [(REFERENCE, reference), (DEFAULT, default)],
    );
    paired_speedup(&reference, &default)
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
    // hot-path stage at a time (execution engine, then trap fast path),
    // then both at once: the ratio `reproduce --smoke` gates.
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
        (SMOKE_SECTION, ("plain", false), ("fused", true)),
    ] {
        let mut speedups = Json::block();
        for name in &names {
            if let (Some(slow), Some(quick)) = (of(name, slow), of(name, quick)) {
                speedups = speedups.field(name, Json::fixed(paired_speedup(slow, quick), 2));
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
