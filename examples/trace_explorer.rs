//! System call tracing and monitoring at scale (§2.4, §3.3.2): run the
//! paper's make-8-programs workload under the `trace` and `profile`
//! agents, then explore what they captured.
//!
//! ```text
//! cargo run --release --example trace_explorer
//! ```

use interposition_agents::agents::{DfsTraceAgent, ProfileAgent, TraceAgent};
use interposition_agents::interpose::{wrap_process, InterposedRouter};
use interposition_agents::kernel::KernelBuilder;
use interposition_agents::workloads::make8;

fn main() {
    let mut k = KernelBuilder::new().build();
    make8::setup(&mut k);
    let pid = make8::spawn(&mut k);

    let mut router = InterposedRouter::new();
    let (profile, prof) = ProfileAgent::new();
    let (dfs, dfs_h) = DfsTraceAgent::new();
    let (trace, trace_h) = TraceAgent::with_log(b"/tmp/make.trace");
    // Stack all three monitors: trace on top sees raw traps first.
    wrap_process(&mut k, &mut router, pid, Box::new(profile), &[]);
    wrap_process(&mut k, &mut router, pid, dfs, &[]);
    wrap_process(&mut k, &mut router, pid, Box::new(trace), &[]);

    let outcome = k.run_with(&mut router);
    println!("outcome: {outcome:?}");
    println!(
        "virtual time {:.1} s, {} syscalls, {} intercepted across {} processes",
        k.clock.elapsed_secs(),
        k.total_syscalls,
        router.stats.intercepted,
        k.exit_statuses().len()
    );

    println!("\n--- first 12 lines of the strace-style log ---");
    for line in trace_h.text().lines().take(12) {
        println!("  {line}");
    }
    println!("  ... {} lines total", trace_h.lines());

    println!("\n--- profile: busiest system calls across the build ---");
    for line in prof.report().lines().take(10) {
        println!("  {line}");
    }

    println!("\n--- dfs_trace: file-reference summary ---");
    for (op, n) in dfs_h.summary() {
        println!("  {op:?}: {n}");
    }
    println!(
        "\nbinary reference log: {} records, {} bytes serialized",
        dfs_h.len(),
        dfs_h.to_log().len()
    );

    println!("\n--- dfs_trace: workload characterization ---");
    let analysis = interposition_agents::agents::analyze(&dfs_h.records());
    for line in analysis.report().lines() {
        println!("  {line}");
    }
}
