//! Tracing from outside: delegating wrappers around the public router and
//! agent interfaces, and the per-instance span record they fill.
//!
//! Every wrapper forwards every trait method unchanged and only reads the
//! host clock around the calls that do work, so the traced run takes the
//! same paths as the untraced one (the benchmark checks this: Observables
//! and exact counts must match bit for bit). The `ia-obs` recorder stays
//! off, because enabling it switches the scheduler's lane and burst gates
//! off and would measure a path the default never runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ia_abi::{RawArgs, Signal, Sysno};
use ia_interpose::{Agent, BatchCall, InterestSet, SignalVerdict, SysCtx};
use ia_kernel::{FastSpec, Kernel, Pid, SysOutcome, SyscallRouter};

/// Syscall classes the report groups router buckets into.
pub const CLASSES: [&str; 5] = ["fork", "execve", "exit", "file", "other"];

/// Agents the workloads load, in report order.
pub const AGENTS: [&str; 6] = [
    "timex",
    "trace",
    "union",
    "txn",
    "time_symbolic",
    "pass_through",
];

/// Router buckets: one per syscall number below 256, and one for larger
/// numbers and signal filtering.
pub const NR_BUCKETS: usize = 257;

/// The router bucket of raw syscall number `nr`.
fn bucket(nr: u32) -> usize {
    (nr as usize).min(NR_BUCKETS - 1)
}

/// The [`CLASSES`] index of router bucket `b`.
pub fn class_of(b: usize) -> usize {
    match u32::try_from(b).ok().and_then(Sysno::from_u32) {
        Some(Sysno::Fork | Sysno::Vfork) => 0,
        Some(Sysno::Execve) => 1,
        Some(Sysno::Exit) => 2,
        Some(s) if s.uses_pathname() || s.uses_descriptor() => 3,
        _ => 4,
    }
}

/// The report name of router bucket `b`.
pub fn bucket_name(b: usize) -> String {
    match u32::try_from(b).ok().and_then(Sysno::from_u32) {
        _ if b == NR_BUCKETS - 1 => "other".to_string(),
        Some(s) => s.name().to_string(),
        None => format!("nr{b}"),
    }
}

/// Accumulated host time and call count of one span kind in one instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    /// One span of `ns`.
    pub fn once(ns: u64) -> Acc {
        Acc { ns, calls: 1 }
    }

    /// Adds one span that started at `start` and ends now.
    pub fn add_since(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

/// Runs `f` as one span of `acc`.
pub fn timed<T>(acc: &mut Acc, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    acc.add_since(t);
    out
}

/// One instance's spans, aggregated per kind. The parent of each kind is
/// fixed (see [`Spans::rows`]), so a kind's self time is its total minus
/// its children's.
#[derive(Debug, Clone)]
pub struct Spans {
    /// The whole instance (the root span).
    pub instance: Acc,
    /// `Kernel::branch` of the txn template.
    pub branch: Acc,
    /// `Kernel::run_with` under the timed router.
    pub run_with: Acc,
    /// Router upcalls (route, absorb_batch, filter_signal,
    /// on_process_exit) bucketed by syscall number ([`NR_BUCKETS`]);
    /// `calls` counts `route` calls only.
    pub route: Vec<Acc>,
    /// Inclusive time inside each agent of [`AGENTS`].
    pub agents: [Acc; AGENTS.len()],
    /// `Kernel::observable` at instance end.
    pub observable: Acc,
    /// `Tenant::spawn_path` for every tenant of a fleet.
    pub spinup: Acc,
    /// `Fleet::run`.
    pub drive: Acc,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            instance: Acc::default(),
            branch: Acc::default(),
            run_with: Acc::default(),
            route: vec![Acc::default(); NR_BUCKETS],
            agents: [Acc::default(); AGENTS.len()],
            observable: Acc::default(),
            spinup: Acc::default(),
            drive: Acc::default(),
        }
    }
}

impl Spans {
    /// Router time and route calls of class `c` of [`CLASSES`].
    pub fn class(&self, c: usize) -> Acc {
        let mut acc = Acc::default();
        for (b, a) in self.route.iter().enumerate() {
            if class_of(b) == c {
                acc.ns += a.ns;
                acc.calls += a.calls;
            }
        }
        acc
    }

    /// Time inside the interposition router, all syscalls.
    pub fn route_ns(&self) -> u64 {
        self.route.iter().map(|a| a.ns).sum()
    }

    /// `route` calls, all syscalls.
    pub fn routes(&self) -> u64 {
        self.route.iter().map(|a| a.calls).sum()
    }

    /// Instance time covered by no child span.
    pub fn unattributed_ns(&self) -> u64 {
        let children =
            self.branch.ns + self.run_with.ns + self.observable.ns + self.spinup.ns + self.drive.ns;
        self.instance.ns.saturating_sub(children)
    }

    /// `(span, parent, ns, calls)` rows for the written-out trace.
    pub fn rows(&self) -> Vec<(String, &'static str, u64, u64)> {
        let mut v = vec![
            (
                "instance".to_string(),
                "",
                self.instance.ns,
                self.instance.calls,
            ),
            (
                "branch".to_string(),
                "instance",
                self.branch.ns,
                self.branch.calls,
            ),
            (
                "run_with".to_string(),
                "instance",
                self.run_with.ns,
                self.run_with.calls,
            ),
            (
                "observable".to_string(),
                "instance",
                self.observable.ns,
                self.observable.calls,
            ),
            (
                "fleet.spinup".to_string(),
                "instance",
                self.spinup.ns,
                self.spinup.calls,
            ),
            (
                "fleet.drive".to_string(),
                "instance",
                self.drive.ns,
                self.drive.calls,
            ),
        ];
        for (b, a) in self.route.iter().enumerate() {
            v.push((
                format!("route.{}", bucket_name(b)),
                "run_with",
                a.ns,
                a.calls,
            ));
        }
        // Agents run inside a route, or inside a fleet tenant's run.
        let agent_parent = if self.drive.calls > 0 {
            "fleet.drive"
        } else {
            "route"
        };
        for (n, a) in AGENTS.iter().zip(&self.agents) {
            v.push((format!("agent.{n}"), agent_parent, a.ns, a.calls));
        }
        v.retain(|r| r.2 > 0 || r.3 > 0);
        v
    }
}

/// Agent timers shared by every clone of an instance's wrapped agents —
/// atomics, because fleet tenants run on several host threads.
#[derive(Debug, Default)]
pub struct AgentClocks([(AtomicU64, AtomicU64); AGENTS.len()]);

impl AgentClocks {
    /// Adds the accumulated agent time into `spans`.
    pub fn fold_into(&self, spans: &mut Spans) {
        for (acc, (ns, calls)) in spans.agents.iter_mut().zip(&self.0) {
            acc.ns += ns.load(Ordering::Relaxed);
            acc.calls += calls.load(Ordering::Relaxed);
        }
    }
}

/// A delegating [`Agent`] that times its inner agent's work.
pub struct TimedAgent {
    inner: Box<dyn Agent>,
    slot: usize,
    clocks: Arc<AgentClocks>,
}

impl TimedAgent {
    /// Wraps `inner`. Panics on an agent outside [`AGENTS`]: every agent a
    /// workload loads must have a row in the report.
    pub fn wrap(inner: Box<dyn Agent>, clocks: &Arc<AgentClocks>) -> Box<dyn Agent> {
        let slot = AGENTS
            .iter()
            .position(|&n| n == inner.name())
            .expect("every traced agent has a report row");
        Box::new(TimedAgent {
            inner,
            slot,
            clocks: Arc::clone(clocks),
        })
    }

    fn time<T>(&mut self, count: bool, f: impl FnOnce(&mut dyn Agent) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        let (ns, calls) = &self.clocks.0[self.slot];
        ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if count {
            calls.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl Agent for TimedAgent {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn interests(&self) -> InterestSet {
        self.inner.interests()
    }

    fn init(&mut self, ctx: &mut SysCtx<'_>, args: &[Vec<u8>]) {
        self.inner.init(ctx, args);
    }

    fn init_child(&mut self, ctx: &mut SysCtx<'_>) {
        self.time(false, |a| a.init_child(ctx));
    }

    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        self.time(true, |a| a.syscall(ctx, nr, args))
    }

    fn signal_incoming(&mut self, ctx: &mut SysCtx<'_>, sig: Signal) -> SignalVerdict {
        self.time(false, |a| a.signal_incoming(ctx, sig))
    }

    fn interests_fixed(&self) -> bool {
        self.inner.interests_fixed()
    }

    fn batch_interests(&self) -> InterestSet {
        self.inner.batch_interests()
    }

    fn syscall_batch(&mut self, ctx: &mut SysCtx<'_>, nr: u32, calls: &[BatchCall]) {
        self.time(true, |a| a.syscall_batch(ctx, nr, calls));
    }

    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(TimedAgent {
            inner: self.inner.clone_box(),
            slot: self.slot,
            clocks: Arc::clone(&self.clocks),
        })
    }
}

/// A delegating [`SyscallRouter`] that times the upcalls which do work,
/// bucketed by syscall number. `fast_spec` and `note_fast_direct` are
/// forwarded untimed: they are table lookups on the scheduler's side of
/// the seam.
pub struct TimedRouter<'a, R: SyscallRouter> {
    pub inner: &'a mut R,
    pub spans: &'a mut Spans,
}

impl<R: SyscallRouter> SyscallRouter for TimedRouter<'_, R> {
    fn route(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        nr: u32,
        args: RawArgs,
        restarts: u32,
    ) -> SysOutcome {
        timed(&mut self.spans.route[bucket(nr)], || {
            self.inner.route(k, pid, nr, args, restarts)
        })
    }

    fn filter_signal(&mut self, k: &mut Kernel, pid: Pid, sig: Signal) -> bool {
        let t = Instant::now();
        let out = self.inner.filter_signal(k, pid, sig);
        self.spans.route[NR_BUCKETS - 1].ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn on_process_exit(&mut self, k: &mut Kernel, pid: Pid) {
        let t = Instant::now();
        self.inner.on_process_exit(k, pid);
        self.spans.route[bucket(Sysno::Exit.number())].ns += t.elapsed().as_nanos() as u64;
    }

    fn fast_spec(&mut self, k: &Kernel, pid: Pid) -> FastSpec {
        self.inner.fast_spec(k, pid)
    }

    fn note_fast_direct(&mut self, k: &mut Kernel, pid: Pid, nr: u32, count: u64) {
        self.inner.note_fast_direct(k, pid, nr, count);
    }

    fn absorb_batch(&mut self, k: &mut Kernel, pid: Pid, nr: u32, calls: &[BatchCall]) {
        let t = Instant::now();
        self.inner.absorb_batch(k, pid, nr, calls);
        self.spans.route[bucket(nr)].ns += t.elapsed().as_nanos() as u64;
    }
}
