//! Protected environments for running untrusted binaries (§1.4, Figure
//! 1-3): a "malicious" program tries to read secrets, delete system files,
//! fork-bomb, and exfiltrate — and the sandbox agent contains all of it,
//! in monitoring-and-emulating mode so the binary "is unaware of the
//! restrictions".
//!
//! Before anything runs, the binary is statically analyzed: `ia-analyze`
//! infers its exact syscall footprint, and the sandbox allow-list is that
//! footprint and nothing more — least privilege derived from the image
//! itself, not from a human guessing what the tool needs.
//!
//! ```text
//! cargo run --example untrusted_binary
//! ```

use interposition_agents::abi::Sysno;
use interposition_agents::agents::{SandboxAgent, SandboxPolicy};
use interposition_agents::interpose::{spawn_with_agent, InterestSet, InterposedRouter};
use interposition_agents::kernel::KernelBuilder;
use interposition_agents::vm::assemble;

const MALWARE: &str = r#"
    .data
    secret:  .asciz "/etc/master.passwd"
    target:  .asciz "/etc/rc"
    sock:    .asciz "/tmp/exfil.sock"
    payload: .asciz "stolen data"
    note:    .asciz "pwned? "
    okmsg:   .asciz "all attacks reported success\n"
    buf:     .space 64
    .text
    main:
        ; 1. read the password file
        la  r0, secret
        li  r1, 0
        li  r2, 0
        sys open
        ; 2. delete a system file
        la  r0, target
        sys unlink
        mov r10, r1             ; errno (0 = "worked")
        ; 3. try to fork a worker
        sys fork
        jz  r0, never           ; (the sandbox never lets the child exist)
        ; 4. open an exfiltration socket
        li  r0, 0
        li  r1, 0
        li  r2, 0
        sys socket
        ; 5. declare victory if the unlink "succeeded"
        jnz r10, fail
        li  r0, 1
        la  r1, okmsg
        li  r2, 29
        sys write
    fail:
        li  r0, 0
        sys exit
    never:
        li  r0, 99
        sys exit
"#;

fn main() {
    let image = assemble(MALWARE).expect("assembles");

    // Static analysis first: infer the binary's syscall footprint and the
    // least-privilege policy it implies. The analysis is exact for this
    // image, and matches what a human auditing the listing would write down.
    let (_, _, footprint) = SandboxAgent::from_footprint(&image);
    assert!(footprint.exact, "footprint fully resolved statically");
    assert_eq!(
        footprint.set,
        InterestSet::of(&[
            Sysno::Open,
            Sysno::Unlink,
            Sysno::Fork,
            Sysno::Socket,
            Sysno::Write,
            Sysno::Exit,
        ]),
        "inferred footprint equals the hand-written allow-list"
    );
    let names: Vec<&str> = footprint.syscalls().iter().map(|s| s.name()).collect();
    println!("inferred syscall footprint: {}", names.join(" "));
    println!(
        "execve/kill outside the footprint: {}\n",
        !footprint.set.contains(Sysno::Execve as u32)
            && !footprint.set.contains(Sysno::Kill as u32)
    );

    let mut k = KernelBuilder::new().build();
    k.write_file(b"/etc/master.passwd", b"root:secret-hash")
        .unwrap();
    k.write_file(b"/etc/rc", b"boot script").unwrap();

    // The running policy composes the inferred allow-list with the
    // file-space rules: calls outside the footprint are refused outright,
    // and the calls inside it still go through hide/deny/emulate checks.
    let mut allowed = footprint.set;
    allowed.add_sys(Sysno::Sigreturn);
    let policy = SandboxPolicy {
        hidden: vec![b"/etc/master.passwd".to_vec()],
        readonly: vec![b"/etc".to_vec()],
        deny_fork: true,
        deny_sockets: true,
        emulate_writes: true, // lie to the malware: mutations "succeed"
        allowed_calls: Some(allowed),
        ..SandboxPolicy::default()
    };
    let (agent, monitor) = SandboxAgent::new(policy);

    let mut router = InterposedRouter::new();
    spawn_with_agent(
        &mut k,
        agent,
        &[],
        &image,
        &[b"totally-legit-tool"],
        b"totally-legit-tool",
    );
    let outcome = k.run_with(&mut router);

    println!("outcome: {outcome:?}");
    println!(
        "malware believed: {:?}",
        k.console.output_string().trim_end()
    );
    println!("\n--- what actually happened ---");
    println!("/etc/rc survives: {}", k.read_file(b"/etc/rc").is_ok());
    println!(
        "password file untouched and was never readable: {}",
        k.read_file(b"/etc/master.passwd").is_ok()
    );
    println!("processes left running: {}", k.running_count());
    println!("\n--- violations the monitor recorded ---");
    for v in monitor.violations() {
        println!(
            "  {:<10} {:<24} -> {}",
            v.call,
            String::from_utf8_lossy(&v.path),
            v.result
        );
    }
}
