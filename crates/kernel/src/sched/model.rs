//! Model-based test of the scheduler's bookkeeping: the runnable set, the
//! blocked set, and the lazily invalidated timer and select heaps are
//! checked against a naive model that rescans every process for each
//! decision — round-robin pick, earliest deadline, timer fire, wakeups,
//! expired selects — over seeded random sequences of itimer arm/disarm,
//! timed selects, block and wake, process exit, and clock advances.
//!
//! The model rearms an overdue periodic timer past `now` on its original
//! phase (`next = deadline + interval · (periods elapsed + 1)`), as
//! [`fire_timers`] does, and counts one fire per due timer per pass. The
//! older single-period rearm, which leaves an overdue deadline in the past
//! and fires once per missed period, is deliberately not reproduced.

use std::collections::{BTreeMap, BTreeSet};

use ia_abi::types::ItimerVal;
use ia_abi::{RawArgs, Signal, Sysno, Timeval};
use ia_prng::Prng;
use ia_vfs::PipeId;

use super::*;
use crate::KernelBuilder;

/// Where the test writes `setitimer` arguments in each process.
const ITIMER_ADDR: u64 = 0x2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    Runnable,
    Blocked(WaitChannel),
}

#[derive(Debug, Clone)]
struct MProc {
    state: MState,
    itimer: Option<(u64, u64)>,
    alarm_pending: bool,
}

/// The naive scheduler model: a flat process map and a wakeup list, every
/// query a full scan.
#[derive(Debug, Default)]
struct Model {
    now: u64,
    procs: BTreeMap<Pid, MProc>,
    wakeups: Vec<WakeEvent>,
    /// Timer expirations fired: one per due timer per pass.
    fires: u64,
}

impl Model {
    fn runnable(&self) -> BTreeSet<Pid> {
        self.pids_where(|p| p.state == MState::Runnable)
    }

    fn blocked(&self) -> BTreeSet<Pid> {
        self.pids_where(|p| matches!(p.state, MState::Blocked(_)))
    }

    fn pids_where(&self, f: impl Fn(&MProc) -> bool) -> BTreeSet<Pid> {
        self.procs
            .iter()
            .filter(|(_, p)| f(p))
            .map(|(&pid, _)| pid)
            .collect()
    }

    /// Lowest runnable pid above `last`, wrapping to the lowest.
    fn pick(&self, last: Pid) -> Option<Pid> {
        let runnable = self.runnable();
        runnable
            .iter()
            .copied()
            .find(|&p| p > last)
            .or_else(|| runnable.iter().next().copied())
    }

    /// Minimum over every armed itimer and every timed select.
    fn earliest_deadline(&self) -> Option<u64> {
        self.procs
            .values()
            .flat_map(|p| {
                let timer = p.itimer.map(|(d, _)| d);
                let select = match p.state {
                    MState::Blocked(WaitChannel::Select { deadline_ns })
                        if deadline_ns != u64::MAX =>
                    {
                        Some(deadline_ns)
                    }
                    _ => None,
                };
                timer.into_iter().chain(select)
            })
            .min()
    }

    fn post_alarm(&mut self, pid: Pid) {
        self.procs.get_mut(&pid).expect("live").alarm_pending = true;
        self.wakeups.push(WakeEvent::SignalTo(pid));
    }

    fn fire_timers(&mut self) {
        let now = self.now;
        let due: Vec<Pid> = self
            .procs
            .iter()
            .filter(|(_, p)| p.itimer.is_some_and(|(d, _)| d <= now))
            .map(|(&pid, _)| pid)
            .collect();
        for pid in due {
            let p = self.procs.get_mut(&pid).expect("listed");
            let (deadline, interval) = p.itimer.expect("due");
            p.itimer = (interval > 0).then(|| {
                (
                    deadline + interval * ((now - deadline) / interval + 1),
                    interval,
                )
            });
            self.fires += 1;
            self.post_alarm(pid);
        }
    }

    fn apply_wakeups(&mut self) {
        let events = std::mem::take(&mut self.wakeups);
        for (&pid, p) in &mut self.procs {
            let MState::Blocked(ch) = p.state else {
                continue;
            };
            let woken = events.iter().any(|&ev| match (ev, ch) {
                (
                    WakeEvent::Pipe(a),
                    WaitChannel::PipeReadable(b) | WaitChannel::PipeWritable(b),
                ) => a == b,
                (WakeEvent::ChildOf(parent), WaitChannel::Child) => parent == pid,
                (WakeEvent::SignalTo(target), _) => target == pid && p.alarm_pending,
                (WakeEvent::Tty, WaitChannel::TtyInput) => true,
                (
                    WakeEvent::Pipe(_) | WakeEvent::Tty | WakeEvent::Sock(_),
                    WaitChannel::Select { .. },
                ) => true,
                _ => false,
            });
            if woken {
                p.state = MState::Runnable;
            }
        }
    }

    fn wake_expired_selects(&mut self) {
        let now = self.now;
        for p in self.procs.values_mut() {
            if matches!(p.state, MState::Blocked(WaitChannel::Select { deadline_ns })
                if deadline_ns <= now)
            {
                p.state = MState::Runnable;
            }
        }
    }
}

/// A router that blocks every trap on one wait channel — how the test
/// parks a process exactly as a blocking syscall would.
struct BlockOn(WaitChannel);

impl SyscallRouter for BlockOn {
    fn route(&mut self, _: &mut Kernel, _: Pid, _: u32, _: RawArgs, _: u32) -> SysOutcome {
        SysOutcome::Block(self.0)
    }
}

fn setitimer(k: &mut Kernel, m: &mut Model, pid: Pid, value_us: i64, interval_us: i64) {
    let it = ItimerVal {
        interval: Timeval::from_micros(interval_us),
        value: Timeval::from_micros(value_us),
    };
    k.procs
        .get_mut(&pid)
        .expect("live")
        .mem
        .write_struct(ITIMER_ADDR, &it)
        .expect("in bounds");
    let out = k.syscall(pid, Sysno::Setitimer.number(), [0, ITIMER_ADDR, 0, 0, 0, 0]);
    assert!(matches!(out, SysOutcome::Done(Ok(_))), "{out:?}");
    m.now += k.profile.syscall_base_ns(Sysno::Setitimer);
    let value_ns = value_us as u64 * 1_000;
    m.procs.get_mut(&pid).expect("live").itimer =
        (value_ns > 0).then(|| (m.now + value_ns, interval_us as u64 * 1_000));
}

fn block(k: &mut Kernel, m: &mut Model, pid: Pid, ch: WaitChannel) {
    dispatch(k, &mut BlockOn(ch), pid, Sysno::Select.number(), [0; 6], 0);
    m.procs.get_mut(&pid).expect("live").state = MState::Blocked(ch);
}

/// Runs the kernel's and the model's versions of the scheduler passes the
/// idle path makes after time passes.
fn time_passes(k: &mut Kernel, m: &mut Model) {
    fire_timers(k);
    m.fire_timers();
    apply_wakeups(k);
    m.apply_wakeups();
    wake_expired_selects(k);
    m.wake_expired_selects();
}

fn assert_agrees(k: &mut Kernel, m: &Model, rng: &mut Prng, ctx: &str) {
    assert_eq!(k.clock.elapsed_ns(), m.now, "{ctx}: clock");
    let live: BTreeSet<Pid> = k.procs.keys().copied().collect();
    let expect: BTreeSet<Pid> = m.procs.keys().copied().collect();
    assert_eq!(live, expect, "{ctx}: process table");
    for (pid, mp) in &m.procs {
        let p = &k.procs[pid];
        let state = match mp.state {
            MState::Runnable => ProcState::Runnable,
            MState::Blocked(ch) => ProcState::Blocked(ch),
        };
        assert_eq!(p.state, state, "{ctx}: pid {pid} state");
        assert_eq!(p.itimer, mp.itimer, "{ctx}: pid {pid} itimer");
        assert_eq!(
            p.sig.pending.contains(Signal::SIGALRM),
            mp.alarm_pending,
            "{ctx}: pid {pid} SIGALRM pending"
        );
    }
    assert_eq!(k.perf.timer_fires, m.fires, "{ctx}: timer fires");
    assert_eq!(k.run_queue, m.runnable(), "{ctx}: runnable set");
    assert_eq!(k.blocked_queue, m.blocked(), "{ctx}: blocked set");
    assert_eq!(
        earliest_deadline(k),
        m.earliest_deadline(),
        "{ctx}: earliest deadline"
    );
    let last = rng.below(8) as Pid;
    assert_eq!(
        pick_runnable(k, last),
        m.pick(last),
        "{ctx}: pick after {last}"
    );
    assert!(
        k.check_invariants().is_empty(),
        "{ctx}: {:?}",
        k.check_invariants()
    );
}

fn run_sequence(seed: u64, ops: usize) {
    let mut rng = Prng::new(seed);
    let mut k = KernelBuilder::new().build();
    let mut m = Model::default();
    let img = ia_vm::assemble("main: halt\n").expect("assembles");
    for _ in 0..5 {
        let pid = k.spawn_image(&img, &[b"m"], b"m");
        m.procs.insert(
            pid,
            MProc {
                state: MState::Runnable,
                itimer: None,
                alarm_pending: false,
            },
        );
    }
    let pipes = [PipeId(1), PipeId(2)];
    for step in 0..ops {
        let pids: Vec<Pid> = m.procs.keys().copied().collect();
        let pid = *rng.pick(&pids);
        let runnable = m.procs[&pid].state == MState::Runnable;
        let op = rng.below(100);
        let ctx = format!("seed {seed} step {step} op {op} pid {pid}");
        match op {
            // Arm a one-shot or periodic timer, sometimes on-phase with a
            // coming advance.
            0..=19 => {
                let value = rng.range_i64(1, 400);
                let interval = if rng.bool() { rng.range_i64(1, 150) } else { 0 };
                setitimer(&mut k, &mut m, pid, value, interval);
            }
            20..=26 => setitimer(&mut k, &mut m, pid, 0, 0),
            // A timed (or untimed) select.
            27..=41 if runnable => {
                let deadline_ns = if rng.below(5) == 0 {
                    u64::MAX
                } else {
                    m.now + rng.range_u64(1, 500_000)
                };
                block(&mut k, &mut m, pid, WaitChannel::Select { deadline_ns });
            }
            // Block on a pipe, the terminal, or a child.
            42..=53 if runnable => {
                let ch = match rng.below(4) {
                    0 => WaitChannel::PipeReadable(*rng.pick(&pipes)),
                    1 => WaitChannel::PipeWritable(*rng.pick(&pipes)),
                    2 => WaitChannel::TtyInput,
                    _ => WaitChannel::Child,
                };
                block(&mut k, &mut m, pid, ch);
            }
            // Wake events.
            54..=65 => {
                let ev = match rng.below(4) {
                    0 => WakeEvent::Pipe(*rng.pick(&pipes)),
                    1 => WakeEvent::Tty,
                    2 => WakeEvent::ChildOf(*rng.pick(&pids)),
                    _ => WakeEvent::SignalTo(*rng.pick(&pids)),
                };
                k.wakeups.push(ev);
                m.wakeups.push(ev);
                apply_wakeups(&mut k);
                m.apply_wakeups();
            }
            // An orphan exits and is reaped on the spot.
            66..=68 if pids.len() > 1 => {
                k.terminate(pid, ia_abi::signal::wait_status_exited(0));
                m.procs.remove(&pid);
            }
            // Idle: jump the clock to the next deadline, as the scheduler
            // does when nothing is runnable.
            69..=78 => {
                if let Some(deadline) = m.earliest_deadline() {
                    m.now = m.now.max(deadline);
                    let now = k.clock.elapsed_ns();
                    k.clock.advance_ns(m.now - now);
                    time_passes(&mut k, &mut m);
                }
            }
            // Let time pass by an arbitrary amount (a slice, a burst).
            _ => {
                let dt = rng.range_u64(0, 300_000);
                k.clock.advance_ns(dt);
                m.now += dt;
                time_passes(&mut k, &mut m);
            }
        }
        assert_agrees(&mut k, &m, &mut rng, &ctx);
    }
}

#[test]
fn heaps_and_queues_match_a_full_scan_model() {
    for seed in 0..64 {
        run_sequence(seed, 400);
    }
}
