//! Emulation of other operating systems (§1.4, Figure 1-4): "alternate
//! system call implementations can be used to concurrently run binaries
//! from variant operating systems on the same platform."
//!
//! Two "foreign" binaries run side by side with a native one:
//! * a *legacy 4.3BSD* binary using obsolete trap numbers (`creat`,
//!   `time`) that the modern kernel no longer implements, and
//! * an "HP-UX-style" binary whose whole trap table sits at +200.
//!
//! ```text
//! cargo run --example os_emulation
//! ```

use interposition_agents::agents::OsCompatAgent;
use interposition_agents::interpose::{spawn_with_agent, InterposedRouter};
use interposition_agents::kernel::KernelBuilder;
use interposition_agents::vm::assemble;

const LEGACY: &str = r#"
    .data
    path: .asciz "/tmp/legacy.txt"
    msg:  .asciz "written via creat(2), trap 8\n"
    .text
    main:
        la r0, path
        li r1, 420
        sys 8               ; old creat()
        mov r3, r0
        mov r0, r3
        la r1, msg
        li r2, 29
        sys write
        mov r0, r3
        sys close
        li r0, 0
        sys 13              ; old time(NULL)
        li r0, 0
        sys exit
"#;

const HPUX: &str = r#"
    .data
    msg: .asciz "greetings from the foreign trap table\n"
    .text
    main:
        li r0, 1
        la r1, msg
        li r2, 38
        sys 204             ; write at native+200
        li r0, 0
        sys 201             ; exit at native+200
"#;

const NATIVE: &str = r#"
    .data
    msg: .asciz "native binary, native traps\n"
    .text
    main:
        li r0, 1
        la r1, msg
        li r2, 28
        sys write
        li r0, 0
        sys exit
"#;

fn main() {
    let mut k = KernelBuilder::new().build();
    let mut router = InterposedRouter::new();

    // Native binary: no agent at all.
    k.spawn_image(&assemble(NATIVE).unwrap(), &[b"native"], b"native");

    // Legacy binary under the legacy-BSD personality.
    spawn_with_agent(
        &mut k,
        OsCompatAgent::legacy_bsd(),
        &[],
        &assemble(LEGACY).unwrap(),
        &[b"legacy"],
        b"legacy",
    );

    // Foreign binary under the offset personality.
    spawn_with_agent(
        &mut k,
        OsCompatAgent::foreign(200),
        &[],
        &assemble(HPUX).unwrap(),
        &[b"hpux"],
        b"hpux",
    );

    let outcome = k.run_with(&mut router);
    println!("outcome: {outcome:?}");
    println!("\nconsole (all three personalities interleaved on one kernel):");
    for line in k.console.output_string().lines() {
        println!("  {line}");
    }
    println!(
        "\nfile the legacy binary creat()ed: {:?}",
        String::from_utf8_lossy(&k.read_file(b"/tmp/legacy.txt").unwrap()).trim_end()
    );
    println!(
        "traps intercepted {} / passed through {}",
        router.stats.intercepted, router.stats.passthrough
    );
}
