//! Flight-recorder dumps for conformance failures.
//!
//! When an oracle fails, the shrunk repro tells you *what* program breaks,
//! but not *what the machine was doing* when it broke. This module re-runs
//! a shrunk repro with the ia-obs flight recorder enabled and renders the
//! last events — trap dispatches, per-layer enter/exit, scheduler slices,
//! signal deliveries, injected faults — so the `.conf` file ships with a
//! timeline of the failure. The driver writes it beside the repro as
//! `<tag>.flight.txt` and CI uploads both as one artifact.

use std::fmt::Write as _;

use ia_interpose::Agent;
use ia_kernel::KernelBuilder;
use ia_obs::report::render_events_text;

use crate::fault::FaultInjector;
use crate::oracle::{run_world, world, StackKind};
use crate::trace::Repro;

/// Ring capacity for failure recordings: enough to cover the tail of any
/// shrunk repro (they are tens of ops) with room for restarts and slices.
pub const FLIGHT_CAPACITY: usize = 256;

/// Re-runs `repro` under the flight recorder and renders the event tail.
///
/// A fault repro replays with its [`FaultInjector`] wrapped (so the
/// recording shows the injections); a plain repro replays under the
/// stacked configuration, which exercises the most layers. The recording
/// is diagnostic: the replayed run may or may not reproduce the original
/// divergence (that is what `--replay` is for), but its timeline is what
/// the oracle saw.
#[must_use]
pub fn record_flight(repro: &Repro) -> String {
    let (stack_label, agents): (&str, Vec<Box<dyn Agent>>) = match (repro.fault, repro.tree) {
        (Some(case), _) => (
            "fault-injector",
            vec![FaultInjector::boxed(case.target, case.every, case.errno).0],
        ),
        (None, Some(case)) => ("tree-injector", vec![crate::tree::frontier_injector(case)]),
        (None, None) => ("stacked", StackKind::Stacked.agents()),
    };
    let mut k = world(&repro.program, KernelBuilder::new(), agents);
    k.obs.enable(FLIGHT_CAPACITY);
    let outcome = run_world(&mut k);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "conform flight recording: seed {}, {} ops, stack {stack_label}{}{}",
        repro.program.seed,
        repro.program.ops.len(),
        repro.fault.map(|f| format!(" ({f})")).unwrap_or_default(),
        repro.tree.map(|t| format!(" ({t})")).unwrap_or_default()
    );
    let _ = writeln!(
        s,
        "replay outcome {outcome:?}; last {} of {} events ({} dropped)",
        k.obs.events().len(),
        k.obs.recorded(),
        k.obs.dropped()
    );
    s.push('\n');
    s.push_str(&render_events_text(&k.obs));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample, OpSet};
    use crate::FaultCase;
    use ia_abi::{Errno, Sysno};

    #[test]
    fn plain_repro_recording_has_layer_events() {
        let repro = Repro {
            program: sample(3, 12, OpSet::ALL),
            fault: None,
            tree: None,
        };
        let dump = record_flight(&repro);
        assert!(dump.contains("stack stacked"));
        assert!(dump.contains("enter"), "no layer-enter events:\n{dump}");
        assert!(dump.contains("trap"), "no trap dispatches:\n{dump}");
    }

    #[test]
    fn fault_repro_recording_shows_injections() {
        let program = sample(9, 15, OpSet::ALL);
        let case = FaultCase {
            target: Sysno::Write,
            errno: Errno::EIO,
            every: 2,
        };
        let repro = Repro {
            program,
            fault: Some(case),
            tree: None,
        };
        let dump = record_flight(&repro);
        assert!(dump.contains("fault-injector"));
        assert!(dump.contains("fault"), "no injected-fault events:\n{dump}");
    }
}
