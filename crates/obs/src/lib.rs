//! ia-obs: the flight recorder.
//!
//! The observability layer the paper's §6 evaluation implies but never
//! names: to debug conformance failures we want a replayable record of the
//! last few hundred decisions the kernel made, and to report per-call
//! interposition overheads we must see which layers of the agent chain a
//! trap crossed. Both come from one instrument behind a facade ([`Obs`])
//! that costs a single branch when disabled: a fixed-capacity ring buffer
//! of typed [`Event`]s, each stamped with a monotone sequence number and
//! the virtual clock at record time. When full, the oldest event is
//! overwritten; [`Obs::dropped`] counts the casualties. Anything derived
//! from a recording — per-layer attribution, replay windows, flight
//! timelines — is a fold over [`Obs::events`] done by the reader.
//!
//! Invariants the rest of the workspace relies on:
//!
//! * **Inertness** — no hook advances the virtual clock, touches kernel
//!   state, reads the host clock, or panics. Enabling the recorder must
//!   not change a single observable bit of a run, nor which path the
//!   scheduler takes (`crates/bench/tests/obs_inert.rs` proves both).
//! * **Zero-dep** — depends only on `ia-abi` (for syscall names in
//!   reports) and `std`.

pub mod report;

/// Process id, mirrored from `ia-kernel` (which this crate cannot depend
/// on without a cycle).
pub type Pid = u32;

/// How a trap left a layer, as recorded by [`Obs::layer_exit`]. A reduced
/// mirror of the kernel's `SysOutcome` (which ia-obs cannot name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a success value.
    Ok,
    /// Completed with the given errno number.
    Err(u32),
    /// Blocked; the trap will be re-dispatched on wake.
    Block,
    /// Control does not return to the caller (exit, exec replacement).
    NoReturn,
}

/// Interned layer identifier; resolve with [`Obs::layer_name`].
pub type LayerId = u16;

/// One recorded fact. Small and `Copy` so the ring buffer stays flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A trap entered a layer ("kernel", "interpose", or an agent name).
    LayerEnter { layer: LayerId, pid: Pid, nr: u32 },
    /// The matching exit, with how the call resolved.
    LayerExit {
        layer: LayerId,
        pid: Pid,
        nr: u32,
        outcome: Outcome,
    },
    /// The scheduler dispatched a trap; `restarts` counts prior Block
    /// outcomes of the same logical call.
    TrapDispatch { pid: Pid, nr: u32, restarts: u32 },
    /// The scheduler ran a slice of `retired` instructions for `pid`.
    Slice { pid: Pid, retired: u64 },
    /// A signal was delivered (past the agent filter chain) to `pid`.
    SignalDelivered { pid: Pid, sig: u32 },
    /// A conformance fault injector forced `nr` to fail with `errno`.
    FaultInjected { pid: Pid, nr: u32, errno: u32 },
}

/// An [`Event`] plus its recording context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    /// Monotone per-recorder sequence number, starting at 0.
    pub seq: u64,
    /// Virtual clock (ns) when the event was recorded.
    pub vclock_ns: u64,
    /// The event itself.
    pub event: Event,
}

#[derive(Debug, Clone)]
struct Inner {
    ring: Vec<Stamped>,
    cap: usize,
    head: usize,
    seq: u64,
    layers: Vec<&'static str>,
}

impl Inner {
    fn new(capacity: usize) -> Inner {
        Inner {
            ring: Vec::with_capacity(capacity.min(4096)),
            cap: capacity.max(1),
            head: 0,
            seq: 0,
            layers: Vec::new(),
        }
    }

    fn intern(&mut self, name: &'static str) -> LayerId {
        if let Some(i) = self.layers.iter().position(|l| *l == name) {
            return i as LayerId;
        }
        self.layers.push(name);
        (self.layers.len() - 1) as LayerId
    }

    fn push(&mut self, vclock_ns: u64, event: Event) {
        let stamped = Stamped {
            seq: self.seq,
            vclock_ns,
            event,
        };
        self.seq += 1;
        if self.ring.len() < self.cap {
            self.ring.push(stamped);
        } else {
            self.ring[self.head] = stamped;
            self.head = (self.head + 1) % self.cap;
        }
    }
}

/// The facade the kernel and dispatch paths hold. Disabled (the default)
/// it is a `None` check per hook; enabled it records events.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Box<Inner>>,
}

impl Obs {
    /// A disabled recorder (what a freshly built kernel installs).
    #[must_use]
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Turns recording on with a ring of `capacity` events (min 1).
    /// Re-enabling resets all recorded state.
    pub fn enable(&mut self, capacity: usize) {
        self.inner = Some(Box::new(Inner::new(capacity)));
    }

    /// Turns recording off and discards all recorded state.
    pub fn disable(&mut self) {
        self.inner = None;
    }

    /// True when hooks record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- hooks (each a no-op when disabled) -----------------------------
    //
    // Each hook is an `#[inline]` null-check that tail-calls a `#[cold]`
    // `#[inline(never)]` worker. The split matters: these sit inside the
    // scheduler and interpreter hot loops, and inlining the full recording
    // body there measurably slows the *disabled* configuration through
    // sheer code growth. Only the one-branch guard may be inlined.

    /// A trap enters `layer` for `pid`/`nr` at virtual time `vnow_ns`.
    #[inline]
    pub fn layer_enter(&mut self, layer: &'static str, pid: Pid, nr: u32, vnow_ns: u64) {
        if self.inner.is_some() {
            self.layer_slow(layer, pid, nr, None, vnow_ns);
        }
    }

    /// The matching exit, with how the call resolved.
    #[inline]
    pub fn layer_exit(
        &mut self,
        layer: &'static str,
        pid: Pid,
        nr: u32,
        outcome: Outcome,
        vnow_ns: u64,
    ) {
        if self.inner.is_some() {
            self.layer_slow(layer, pid, nr, Some(outcome), vnow_ns);
        }
    }

    /// Records a `LayerEnter` (`exit` is `None`) or a `LayerExit`.
    #[cold]
    #[inline(never)]
    fn layer_slow(
        &mut self,
        layer: &'static str,
        pid: Pid,
        nr: u32,
        exit: Option<Outcome>,
        vnow_ns: u64,
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let layer = inner.intern(layer);
        let event = match exit {
            None => Event::LayerEnter { layer, pid, nr },
            Some(outcome) => Event::LayerExit {
                layer,
                pid,
                nr,
                outcome,
            },
        };
        inner.push(vnow_ns, event);
    }

    /// The scheduler dispatched a trap (`restarts` > 0 on re-delivery of
    /// a call that blocked).
    #[inline]
    pub fn trap_dispatch(&mut self, pid: Pid, nr: u32, restarts: u32, vnow_ns: u64) {
        if self.inner.is_some() {
            self.record_slow(vnow_ns, Event::TrapDispatch { pid, nr, restarts });
        }
    }

    /// The scheduler ran `retired` instructions of `pid`.
    #[inline]
    pub fn slice(&mut self, pid: Pid, retired: u64, vnow_ns: u64) {
        if self.inner.is_some() {
            self.record_slow(vnow_ns, Event::Slice { pid, retired });
        }
    }

    /// A signal cleared the agent filter chain and reached `pid`.
    #[inline]
    pub fn signal_delivered(&mut self, pid: Pid, sig: u32, vnow_ns: u64) {
        if self.inner.is_some() {
            self.record_slow(vnow_ns, Event::SignalDelivered { pid, sig });
        }
    }

    /// A fault injector forced `nr` to fail with `errno`.
    #[inline]
    pub fn fault_injected(&mut self, pid: Pid, nr: u32, errno: u32, vnow_ns: u64) {
        if self.inner.is_some() {
            self.record_slow(vnow_ns, Event::FaultInjected { pid, nr, errno });
        }
    }

    #[cold]
    #[inline(never)]
    fn record_slow(&mut self, vnow_ns: u64, event: Event) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.push(vnow_ns, event);
        }
    }

    // ---- readers --------------------------------------------------------

    /// All retained events, oldest first. Empty when disabled.
    #[must_use]
    pub fn events(&self) -> Vec<Stamped> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(inner.ring.len());
        out.extend_from_slice(&inner.ring[inner.head..]);
        out.extend_from_slice(&inner.ring[..inner.head]);
        out
    }

    /// Events recorded but overwritten by newer ones.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.seq - i.ring.len() as u64)
    }

    /// Total events ever recorded (retained + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.seq)
    }

    /// Resolves an interned [`LayerId`] from an event.
    #[must_use]
    pub fn layer_name(&self, id: LayerId) -> &'static str {
        self.inner
            .as_deref()
            .and_then(|i| i.layers.get(id as usize).copied())
            .unwrap_or("?")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_record_nothing() {
        let mut o = Obs::new();
        o.layer_enter("kernel", 1, 20, 0);
        o.layer_exit("kernel", 1, 20, Outcome::Ok, 10);
        o.slice(1, 100, 20);
        o.trap_dispatch(1, 20, 0, 30);
        assert!(!o.is_enabled());
        assert!(o.events().is_empty());
        assert_eq!(o.recorded(), 0);
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut o = Obs::new();
        o.enable(4);
        for i in 0..10u64 {
            o.slice(1, i, i * 100);
        }
        let ev = o.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(o.recorded(), 10);
        assert_eq!(o.dropped(), 6);
        // Oldest-first, strictly increasing sequence numbers 6..=9, and
        // the virtual clock never regresses along the ring.
        let seqs: Vec<u64> = ev.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        for w in ev.windows(2) {
            assert!(w[0].vclock_ns <= w[1].vclock_ns, "vclock must not regress");
        }
        assert!(matches!(ev[3].event, Event::Slice { retired: 9, .. }));
    }

    #[test]
    fn reenable_resets() {
        let mut o = Obs::new();
        o.enable(8);
        o.slice(1, 1, 1);
        o.enable(8);
        assert_eq!(o.recorded(), 0);
    }
}
