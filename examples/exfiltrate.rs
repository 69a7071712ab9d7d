//! Information-flow interposition, end to end: a program launders a
//! labelled secret through registers, a staging buffer, and a fork before
//! pushing it out a socket — and a structurally identical twin does the
//! same dance with public data.
//!
//! Static taint analysis over the two images tells them apart: the
//! exfiltrator's socket write is flagged with the exact source→sink
//! chain, while the benign twin analyzes flow-clean. The derived policy
//! is pay-per-use in the paper's sense — the guard interposes on the
//! dirty image and blocks the leak at the socket, and on the clean image
//! it registers no interests at all, so every call takes the kernel's
//! fast path untouched.
//!
//! ```text
//! cargo run --example exfiltrate
//! ```

use interposition_agents::agents::{FlowGuardAgent, FlowMode, FlowPolicy};
use interposition_agents::analyze::analyze_image;
use interposition_agents::analyze::flow::{analyze_flow, FlowSpec};
use interposition_agents::interpose::{spawn_with_agent, Agent, InterposedRouter};
use interposition_agents::kernel::{KernelBuilder, RunOutcome};
use interposition_agents::workloads::exfil;

fn main() {
    let spec = FlowSpec::new().label("secret", &[b"/secret"]);

    // --- static analysis: same shape, different verdicts -----------------
    for (name, img) in [
        ("exfiltrator", exfil::exfil_image()),
        ("benign twin", exfil::benign_image()),
    ] {
        let fa = analyze_flow(&img, &analyze_image(&img), &spec);
        println!("{name}: clean={}", fa.is_clean());
        for f in fa.findings.iter().filter(|f| f.kind == "flow") {
            println!("  insn {:>3}: {}", f.at.unwrap_or(0), f.message);
        }
    }

    // --- enforce: the guard blocks the leak at the socket ----------------
    let img = exfil::exfil_image();
    let fa = analyze_flow(&img, &analyze_image(&img), &spec);
    let (agent, handle) = FlowGuardAgent::new(FlowPolicy::from_flow(&fa, FlowMode::Enforce));
    let mut k = KernelBuilder::new().build();
    exfil::setup(&mut k);
    let mut router = InterposedRouter::new();
    spawn_with_agent(&mut k, agent, &[], &img, &[b"exfil"], b"exfil");
    let outcome = k.run_with(&mut router);
    println!("\nexfiltrator under FlowGuard: {outcome:?}");
    for v in handle.violations() {
        println!(
            "  blocked: pid {} insn {} labels {:#x} -> {}",
            v.pid, v.site, v.labels, v.target
        );
    }
    assert!(!handle.violations().is_empty(), "the leak was not blocked");

    // --- pay-per-use: the clean twin costs nothing per call --------------
    let img = exfil::benign_image();
    let fa = analyze_flow(&img, &analyze_image(&img), &spec);
    let policy = FlowPolicy::from_flow(&fa, FlowMode::Enforce);
    let (agent, handle) = FlowGuardAgent::new(policy);
    println!(
        "\nbenign twin policy interests empty (zero per-call cost): {}",
        agent.interests().is_empty()
    );
    let mut k = KernelBuilder::new().build();
    exfil::setup(&mut k);
    let mut router = InterposedRouter::new();
    spawn_with_agent(&mut k, agent, &[], &img, &[b"ok"], b"ok");
    let outcome = k.run_with(&mut router);
    println!(
        "benign twin ran: {outcome:?}, violations: {}",
        handle.violations().len()
    );
    assert_eq!(outcome, RunOutcome::AllExited);
}
