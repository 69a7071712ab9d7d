//! End-to-end acceptance for the information-flow subsystem: the static
//! analyzer flags the exfiltrator with a source→sink chain, the FlowGuard
//! agent blocks it at runtime, and the structurally identical benign twin
//! analyzes clean and runs with zero per-call labelling cost.

use interposition_agents::agents::{FlowGuardAgent, FlowMode, FlowPolicy};
use interposition_agents::analyze::analyze_image;
use interposition_agents::analyze::flow::{analyze_flow, FlowSpec};
use interposition_agents::interpose::{spawn_with_agent, Agent, InterposedRouter};
use interposition_agents::kernel::{KernelBuilder, RunOutcome};
use interposition_agents::workloads::exfil;

fn spec() -> FlowSpec {
    FlowSpec::new().label("secret", &[b"/secret"])
}

#[test]
fn static_analysis_flags_the_exfiltrator_with_a_chain() {
    let img = exfil::exfil_image();
    let fa = analyze_flow(&img, &analyze_image(&img), &spec());
    assert!(!fa.is_clean(), "exfiltrator analyzed clean");
    let flows: Vec<_> = fa.findings.iter().filter(|f| f.kind == "flow").collect();
    assert!(!flows.is_empty(), "no flow findings: {:?}", fa.findings);
    // The finding names the label and traces it back to a source site.
    let msg = &flows[0].message;
    assert!(msg.contains("secret"), "finding names no label: {msg}");
    assert!(
        msg.contains("sources:") && msg.contains("insn"),
        "finding carries no source chain: {msg}"
    );
    // Every flagged sink is a real static sink with a nonzero bound.
    for f in &flows {
        let at = f.at.expect("flow finding without a site");
        assert_ne!(fa.ambient_at(at), 0, "finding at a zero-ambient site");
    }
}

#[test]
fn static_analysis_passes_the_benign_twin() {
    let img = exfil::benign_image();
    let fa = analyze_flow(&img, &analyze_image(&img), &spec());
    assert!(fa.is_clean(), "benign twin flagged: {:?}", fa.findings);
    assert!(
        fa.findings.iter().all(|f| f.kind != "flow"),
        "flow findings on the benign twin"
    );
}

#[test]
fn flowguard_blocks_the_exfiltrator_at_the_socket() {
    let img = exfil::exfil_image();
    let fa = analyze_flow(&img, &analyze_image(&img), &spec());
    let policy = FlowPolicy::from_flow(&fa, FlowMode::Enforce);
    assert!(!policy.spec.is_empty(), "dirty image got a clean policy");

    let mut k = KernelBuilder::new().build();
    exfil::setup(&mut k);
    let mut router = InterposedRouter::new();
    let (agent, handle) = FlowGuardAgent::new(policy);
    spawn_with_agent(&mut k, agent, &[], &img, &[b"exfil"], b"exfil");
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);

    let violations = handle.violations();
    assert_eq!(
        violations.len(),
        1,
        "expected one blocked write: {violations:?}"
    );
    assert_eq!(violations[0].target, "socket");
    assert_ne!(violations[0].labels, 0);
    // Nothing labelled crossed the socket: the only recorded flow events
    // would be tainted writes that completed.
    assert!(handle.events().is_empty(), "{:?}", handle.events());
}

#[test]
fn benign_twin_runs_under_a_zero_cost_policy() {
    let img = exfil::benign_image();
    let fa = analyze_flow(&img, &analyze_image(&img), &spec());
    let policy = FlowPolicy::from_flow(&fa, FlowMode::Enforce);

    let mut k = KernelBuilder::new().build();
    exfil::setup(&mut k);
    let mut router = InterposedRouter::new();
    let (agent, handle) = FlowGuardAgent::new(policy);
    // Pay-per-use: the statically-clean image registers no interests at
    // all, so the guard never sees a single call.
    assert!(agent.interests().is_empty(), "clean policy has interests");
    let pid = spawn_with_agent(&mut k, agent, &[], &img, &[b"ok"], b"ok");
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert_eq!(
        k.exit_status(pid),
        Some(interposition_agents::abi::signal::wait_status_exited(0))
    );
    assert!(handle.violations().is_empty());
    assert!(handle.events().is_empty());
}

#[test]
fn record_mode_traces_the_exfiltration_it_would_block() {
    let img = exfil::exfil_image();
    let fa = analyze_flow(&img, &analyze_image(&img), &spec());
    let policy = FlowPolicy::from_flow(&fa, FlowMode::Record);

    let mut k = KernelBuilder::new().build();
    exfil::setup(&mut k);
    let mut router = InterposedRouter::new();
    let (agent, handle) = FlowGuardAgent::new(policy);
    spawn_with_agent(&mut k, agent, &[], &img, &[b"rec"], b"rec");
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    assert!(handle.violations().is_empty());
    let events = handle.events();
    assert!(!events.is_empty(), "no dynamic flow recorded");
    // Dynamic ⊆ static, at the exact site.
    for ev in &events {
        assert_eq!(ev.labels & !fa.ambient_at(ev.site), 0, "{ev:?}");
    }
}
