//! Transactional software environments (§1.4): "a simple `run transaction`
//! command could be constructed that runs arbitrary unmodified programs
//! ... such that all persistent execution side effects are remembered ...
//! but where in actuality the user is presented with a commit or abort
//! choice at the end of such a session. Indeed, one such transactional
//! program invocation could occur within another, transparently providing
//! nested transactions."
//!
//! ```text
//! cargo run --example transactional_shell
//! ```

use interposition_agents::agents::TxnAgent;
use interposition_agents::interpose::{spawn_with_agent, wrap_process, InterposedRouter};
use interposition_agents::kernel::{Kernel, KernelBuilder};
use interposition_agents::vm::assemble;

const SESSION: &str = r#"
    ; a "shell session" that edits a config file and removes a log
    .data
    conf: .asciz "/etc/app.conf"
    log:  .asciz "/var/app.log"
    text: .asciz "retries = 5"
    .text
    main:
        la r0, conf
        li r1, 0x601
        li r2, 420
        sys open
        mov r3, r0
        mov r0, r3
        la r1, text
        li r2, 11
        sys write
        mov r0, r3
        sys close
        la r0, log
        sys unlink
        li r0, 0
        sys exit
"#;

fn fresh_world() -> Kernel {
    let mut k = KernelBuilder::new().build();
    k.mkdir_p(b"/var").unwrap();
    k.write_file(b"/etc/app.conf", b"retries = 1").unwrap();
    k.write_file(b"/var/app.log", b"old log data").unwrap();
    k
}

fn show(k: &mut Kernel, label: &str) {
    println!(
        "  [{label}] app.conf = {:?}, app.log exists = {}",
        String::from_utf8_lossy(&k.read_file(b"/etc/app.conf").unwrap()),
        k.read_file(b"/var/app.log").is_ok()
    );
}

fn main() {
    let image = assemble(SESSION).expect("assembles");

    // ---- session 1: the user aborts -------------------------------------
    println!("=== session 1: run the mutating session, then ABORT ===");
    let mut k = fresh_world();
    show(&mut k, "before");
    let mut router = InterposedRouter::new();
    let (agent, txn) = TxnAgent::new();
    txn.set_abort();
    spawn_with_agent(&mut k, agent, &[], &image, &[b"sh"], b"sh");
    k.run_with(&mut router);
    println!(
        "  session touched: {:?}, whiteouts: {:?}",
        txn.modified_paths()
            .iter()
            .map(|p| String::from_utf8_lossy(p).into_owned())
            .collect::<Vec<_>>(),
        txn.deleted_paths()
            .iter()
            .map(|p| String::from_utf8_lossy(p).into_owned())
            .collect::<Vec<_>>(),
    );
    show(&mut k, "after abort");

    // ---- session 2: the user commits -------------------------------------
    println!("\n=== session 2: same session, then COMMIT ===");
    let mut k = fresh_world();
    show(&mut k, "before");
    let mut router = InterposedRouter::new();
    let (agent, txn) = TxnAgent::new();
    txn.set_commit();
    spawn_with_agent(&mut k, agent, &[], &image, &[b"sh"], b"sh");
    k.run_with(&mut router);
    show(&mut k, "after commit");

    // ---- session 3: nested — inner commit inside an outer abort ---------
    println!("\n=== session 3: nested transactions (inner COMMIT, outer ABORT) ===");
    let mut k = fresh_world();
    show(&mut k, "before");
    let mut router = InterposedRouter::new();
    let (outer, outer_h) = TxnAgent::new();
    let (inner, inner_h) = TxnAgent::new();
    outer_h.set_abort();
    inner_h.set_commit();
    let pid = k.spawn_image(&image, &[b"sh"], b"sh");
    wrap_process(&mut k, &mut router, pid, outer, &[]);
    wrap_process(&mut k, &mut router, pid, inner, &[]);
    k.run_with(&mut router);
    println!(
        "  inner outcome: {:?}, outer outcome: {:?}",
        inner_h.outcome(),
        outer_h.outcome()
    );
    show(&mut k, "after nested");
    println!("  (the inner commit landed inside the outer transaction, which aborted)");
}
