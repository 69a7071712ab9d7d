//! Flow soundness cross-validation: dynamic flows ⊆ static flows.
//!
//! The static analyzer (`ia_analyze::flow`) claims, for every write-shaped
//! site, an upper bound on the labels that can be flowing when that site
//! executes. The [`FlowGuard`](ia_agents::FlowGuard) agent in record mode
//! measures the same thing exactly, at runtime, by following labelled
//! bytes through files, pipes, and sockets. This module runs generated
//! conformance programs under the recording guard and asserts containment:
//! every dynamic flow event's label set must be inside the static
//! [`ambient_at`](ia_analyze::flow::FlowAnalysis::ambient_at) bound for
//! its site. Any transfer function that under-approximates — a forgotten
//! taint propagation, a source the analyzer failed to see — shows up as a
//! dynamic label the static relation cannot explain.
//!
//! Fault schedules run too: an agent fabricating errors underneath the
//! recorder changes which reads succeed, and the dynamic trace must *stay*
//! inside the static bound for every such schedule (the static relation
//! already covers all outcomes, so injected errors can only shrink the
//! dynamic side).

use ia_agents::{FlowEvent, FlowGuardAgent, FlowPolicy};
use ia_analyze::analyze_image;
use ia_analyze::flow::{analyze_flow, FlowAnalysis, FlowSpec};
use ia_interpose::Agent;
use ia_kernel::{KernelBuilder, RunOutcome};

use crate::fault::{FaultCase, FaultInjector};
use crate::gen::Program;
use crate::oracle::{run_world, world};

/// The label specification the flow oracle runs under: each of the four
/// conformance pool files carries its own label, spelled both absolutely
/// and relative to `/tmp/mix` (generated programs `chdir` there).
#[must_use]
pub fn flow_spec() -> FlowSpec {
    let mut spec = FlowSpec::new();
    for i in 0..4u32 {
        let abs = format!("/tmp/mix/f{i}.dat").into_bytes();
        let rel = format!("f{i}.dat").into_bytes();
        spec = spec.label(&format!("f{i}"), &[&abs, &rel]);
    }
    spec
}

/// Runs `program` under a recording flow guard (optionally with a fault
/// injector stacked on top) and returns the dynamic flow trace.
fn record_flows(program: &Program, fault: Option<&FaultCase>) -> Result<Vec<FlowEvent>, String> {
    let spec = flow_spec();
    let (agent, handle) = FlowGuardAgent::new(FlowPolicy::record(spec.clone()));
    let mut agents: Vec<Box<dyn Agent>> = vec![agent];
    if let Some(case) = fault {
        agents.push(FaultInjector::boxed(case.target, case.every, case.errno).0);
    }
    let mut k = world(program, KernelBuilder::new(), agents);
    // Pre-create and pre-label the pool files so labelled bytes exist from
    // the first read, whatever order the generated ops run in (nothing has
    // run yet).
    for (i, label) in spec.labels.iter().enumerate() {
        let path = format!("/tmp/mix/f{i}.dat");
        let ino = k
            .write_file(path.as_bytes(), format!("seed-{}!", label.name).as_bytes())
            .map_err(|e| format!("seeding {path}: {}", e.name()))?;
        handle.seed_ino(ino, 1 << i);
    }
    let outcome = run_world(&mut k);
    if outcome != RunOutcome::AllExited {
        return Err(format!("flow run did not complete: {outcome:?}"));
    }
    Ok(handle.events())
}

/// Checks one dynamic trace against one static relation: every event's
/// labels must lie inside the static ambient bound at its site. Events
/// from `execve`'d children are exempt — they run an image the static
/// relation never saw.
pub fn check_events(fa: &FlowAnalysis, events: &[FlowEvent]) -> Result<(), String> {
    for ev in events {
        if ev.exec_child {
            continue;
        }
        let allowed = fa.ambient_at(ev.site);
        let escaped = ev.labels & !allowed;
        if escaped != 0 {
            return Err(format!(
                "dynamic flow escaped the static relation: pid {} wrote labels \
                 {:#x} at site {} but the analyzer allows only {:#x} there \
                 ({} static sinks, widened: {})",
                ev.pid,
                ev.labels,
                ev.site,
                allowed,
                fa.sinks.len(),
                fa.widened,
            ));
        }
    }
    Ok(())
}

/// Static flow relation for a generated program under the oracle's spec.
#[must_use]
pub fn static_flows(program: &Program) -> FlowAnalysis {
    let image = program.compile();
    let a = analyze_image(&image);
    analyze_flow(&image, &a, &flow_spec())
}

/// Full containment check for one program: dynamic flows ⊆ static flows.
pub fn check_flow_soundness(program: &Program) -> Result<(), String> {
    let fa = static_flows(program);
    let events = record_flows(program, None)?;
    check_events(&fa, &events)
}

/// Containment under an injected fault schedule: fabricated errors on top
/// of the recorder may suppress reads and writes, never invent flows.
pub fn check_flow_faults(program: &Program, case: &FaultCase) -> Result<(), String> {
    let fa = static_flows(program);
    let events = record_flows(program, Some(case))?;
    check_events(&fa, &events)
}

/// A deliberately broken static relation: claims the program is flow-free.
/// The oracle must reject it for any program that actually moves labelled
/// bytes — proof the containment check has teeth.
#[must_use]
pub fn lying_static(program: &Program) -> FlowAnalysis {
    let mut fa = static_flows(program);
    fa.widened = false;
    fa.sources.clear();
    fa.sinks.clear();
    fa.findings.clear();
    fa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sample, OpSet};

    #[test]
    fn generated_programs_flow_inside_the_static_relation() {
        for seed in 0..24 {
            let program = sample(seed, 10, OpSet::ALL);
            check_flow_soundness(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn lying_mutant_is_caught() {
        // Find a seed whose program actually produces a dynamic flow, then
        // doctor the static relation to deny everything: the oracle must
        // object. Fail if no seed in the window flows at all — that would
        // mean the oracle is vacuous.
        let mut caught = false;
        for seed in 0..64 {
            let program = sample(seed, 10, OpSet::FS_CLIENT);
            let events = match record_flows(&program, None) {
                Ok(ev) => ev,
                Err(_) => continue,
            };
            if events.iter().all(|e| e.exec_child || e.labels == 0) {
                continue;
            }
            let lie = lying_static(&program);
            assert!(
                check_events(&lie, &events).is_err(),
                "seed {seed}: an all-clean static relation passed a flowing trace"
            );
            caught = true;
            break;
        }
        assert!(caught, "no generated program produced a dynamic flow");
    }
}
