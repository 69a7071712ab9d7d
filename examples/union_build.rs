//! Union directories (§3.3.3 and the §1.4 motivation): "mount a search
//! list of directories in the filesystem name space such that the union of
//! their contents appears to reside in a single directory. This could be
//! used in a software development environment to allow distinct source and
//! object directories to appear as a single directory when running make."
//!
//! ```text
//! cargo run --example union_build
//! ```

use interposition_agents::agents::UnionAgent;
use interposition_agents::interpose::{spawn_with_agent, InterposedRouter};
use interposition_agents::kernel::KernelBuilder;
use interposition_agents::vm::assemble;

/// Lists `/build` and then builds "prog" by reading the source (which
/// really lives in /src) and writing the object *through the union* (which
/// lands in /src, the first member).
const MAKE_LIKE: &str = r#"
    .data
    dirp: .asciz "/build"
    srcp: .asciz "/build/main.c"
    objp: .asciz "/build/main.o"
    nl:   .asciz "\n"
    dbuf: .space 2048
    fbuf: .space 128
    .text
    main:
        ; ls /build
        la r0, dirp
        li r1, 0
        li r2, 0
        sys open
        mov r3, r0
        mov r0, r3
        la r1, dbuf
        li r2, 2048
        li r3, 0
        sys getdirentries
        la  r10, dbuf
        add r11, r10, r0
    walk:
        sltu r6, r10, r11
        jz  r6, built
        ld  r4, 8(r10)
        li  r6, 0xffff
        and r5, r4, r6          ; reclen
        li  r6, 16
        shr r4, r4, r6
        li  r6, 0xffff
        and r4, r4, r6          ; namlen
        li  r0, 1
        addi r1, r10, 12
        mov r2, r4
        sys write
        li  r0, 1
        la  r1, nl
        li  r2, 1
        sys write
        add r10, r10, r5
        jmp walk
    built:
        ; cc main.c -> main.o, through the union view
        la r0, srcp
        li r1, 0
        li r2, 0
        sys open
        mov r3, r0
        mov r0, r3
        la r1, fbuf
        li r2, 128
        sys read
        mov r12, r0             ; source bytes
        la r0, objp
        li r1, 0x601
        li r2, 420
        sys open
        mov r3, r0
        mov r0, r3
        la r1, fbuf
        mov r2, r12
        sys write
        mov r0, r3
        sys close
        li r0, 0
        sys exit
"#;

fn main() {
    let mut k = KernelBuilder::new().build();
    // Distinct source and object trees.
    k.mkdir_p(b"/src").unwrap();
    k.mkdir_p(b"/obj").unwrap();
    k.write_file(b"/src/main.c", b"int main() { return 0; }")
        .unwrap();
    k.write_file(b"/src/Makefile", b"main.o: main.c").unwrap();
    k.write_file(b"/obj/libold.o", b"OLDOBJ").unwrap();

    let image = assemble(MAKE_LIKE).expect("assembles");
    let mut router = InterposedRouter::new();
    spawn_with_agent(
        &mut k,
        UnionAgent::boxed(&[b"/build=/src:/obj"]),
        &[],
        &image,
        &[b"make"],
        b"make",
    );
    let outcome = k.run_with(&mut router);

    println!("outcome: {outcome:?}");
    println!("\n`ls /build` through the union agent:");
    for line in k.console.output_string().lines() {
        println!("  {line}");
    }
    println!("\nobject written through the view lands in the first member:");
    println!(
        "  /src/main.o = {:?}",
        String::from_utf8_lossy(&k.read_file(b"/src/main.o").unwrap())
    );
    println!(
        "  /obj/main.o exists: {}",
        k.read_file(b"/obj/main.o").is_ok()
    );
    println!(
        "\n(the program only ever named /build/...; neither /src nor /obj appears in its image)"
    );
}
