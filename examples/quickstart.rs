//! Quickstart: boot the simulated system, run an unmodified binary with no
//! interposition (Figure 1-1), then run the *same binary* under a tracing
//! agent (Figure 1-2) — no recompilation, no relinking.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use interposition_agents::agents::TraceAgent;
use interposition_agents::interpose::{spawn_with_agent, InterposedRouter};
use interposition_agents::kernel::KernelBuilder;
use interposition_agents::vm::assemble;

const PROGRAM: &str = r#"
    ; An ordinary 4.3BSD-style program: create a file, write to it,
    ; read it back, print it, exit.
    .data
    path: .asciz "/tmp/greeting.txt"
    text: .asciz "hello from the system interface\n"
    buf:  .space 64
    .text
    main:
        la  r0, path
        li  r1, 0x601           ; O_WRONLY|O_CREAT|O_TRUNC
        li  r2, 420             ; 0644
        sys open
        mov r3, r0
        mov r0, r3
        la  r1, text
        li  r2, 32
        sys write
        mov r0, r3
        sys close
        la  r0, path
        li  r1, 0
        li  r2, 0
        sys open
        mov r3, r0
        mov r0, r3
        la  r1, buf
        li  r2, 64
        sys read
        mov r2, r0              ; bytes read
        li  r0, 1               ; stdout
        la  r1, buf
        sys write
        li  r0, 0
        sys exit
"#;

fn main() {
    let image = assemble(PROGRAM).expect("program assembles");

    // ---- Figure 1-1: the kernel provides the system interface ----------
    println!("=== run 1: no interposition (Figure 1-1) ===");
    let mut k = KernelBuilder::new().build();
    k.spawn_image(&image, &[b"greet"], b"greet");
    let outcome = k.run_to_completion();
    println!("outcome:  {outcome:?}");
    println!("console:  {}", k.console.output_string().trim_end());
    println!("virtual:  {:.6} s", k.clock.elapsed_secs());

    // ---- Figure 1-2: "Your code here!" ---------------------------------
    println!("\n=== run 2: same binary under the trace agent (Figure 1-2) ===");
    let mut k = KernelBuilder::new().build();
    let mut router = InterposedRouter::new();
    let (agent, trace) = TraceAgent::new();
    spawn_with_agent(&mut k, Box::new(agent), &[], &image, &[b"greet"], b"greet");
    let outcome = k.run_with(&mut router);
    println!("outcome:  {outcome:?}");
    println!("console:  {}", k.console.output_string().trim_end());
    println!(
        "virtual:  {:.6} s  (interposition costs time)",
        k.clock.elapsed_secs()
    );
    println!(
        "\n--- what the agent saw (from {}) ---",
        String::from_utf8_lossy(TraceAgent::DEFAULT_LOG)
    );
    for line in trace.text().lines() {
        println!("  {line}");
    }
    println!(
        "\n{} traps intercepted, {} passed through untouched",
        router.stats.intercepted, router.stats.passthrough
    );
}
