//! Direct unit tests of the kernel-level syscall implementations: edge
//! cases, error paths, and BSD semantics that the end-to-end programs
//! don't isolate.

use ia_abi::{Errno, OpenFlags, Stat, Sysno};
use ia_kernel::{Kernel, KernelBuilder, Pid, SysOutcome};

fn boot_with_proc() -> (Kernel, Pid) {
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble("main: halt\n").unwrap();
    let pid = k.spawn_image(&img, &[b"t"], b"t");
    (k, pid)
}

/// Stages a NUL-terminated string in the process's data area, returning
/// its address.
fn stage(k: &mut Kernel, pid: Pid, addr: u64, s: &[u8]) -> u64 {
    k.proc_mut(pid).unwrap().mem.write_cstr(addr, s).unwrap();
    addr
}

fn call(k: &mut Kernel, pid: Pid, sys: Sysno, args: [u64; 6]) -> SysOutcome {
    k.syscall(pid, sys.number(), args)
}

fn ok_val(out: SysOutcome) -> u64 {
    match out {
        SysOutcome::Done(Ok([v, _])) => v,
        other => panic!("expected success, got {other:?}"),
    }
}

fn expect_err(out: SysOutcome, e: Errno) {
    assert_eq!(out, SysOutcome::Done(Err(e)));
}

#[test]
fn open_flags_matrix() {
    let (mut k, pid) = boot_with_proc();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/f");
    // O_CREAT|O_EXCL creates once, fails the second time.
    let flags = u64::from(OpenFlags::O_WRONLY | OpenFlags::O_CREAT | OpenFlags::O_EXCL);
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p, flags, 0o644, 0, 0, 0]));
    assert!(fd >= 3);
    expect_err(
        call(&mut k, pid, Sysno::Open, [p, flags, 0o644, 0, 0, 0]),
        Errno::EEXIST,
    );
    // Opening a directory for write is EISDIR.
    let d = stage(&mut k, pid, 0x2100, b"/tmp");
    expect_err(
        call(
            &mut k,
            pid,
            Sysno::Open,
            [d, u64::from(OpenFlags::O_WRONLY), 0, 0, 0, 0],
        ),
        Errno::EISDIR,
    );
    // Missing file without O_CREAT.
    let m = stage(&mut k, pid, 0x2200, b"/tmp/missing");
    expect_err(
        call(&mut k, pid, Sysno::Open, [m, 0, 0, 0, 0, 0]),
        Errno::ENOENT,
    );
}

#[test]
fn umask_applies_to_creation() {
    let (mut k, pid) = boot_with_proc();
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Umask, [0o077, 0, 0, 0, 0, 0])),
        0o022
    );
    let p = stage(&mut k, pid, 0x2000, b"/tmp/masked");
    let flags = u64::from(OpenFlags::O_WRONLY | OpenFlags::O_CREAT);
    ok_val(call(&mut k, pid, Sysno::Open, [p, flags, 0o666, 0, 0, 0]));
    let st = stage(&mut k, pid, 0x2100, b"/tmp/masked");
    let buf = 0x3000;
    ok_val(call(&mut k, pid, Sysno::Stat, [st, buf, 0, 0, 0, 0]));
    let stat: Stat = k.proc(pid).unwrap().mem.read_struct(buf).unwrap();
    assert_eq!(stat.mode & 0o777, 0o600, "0666 & ~077");
}

#[test]
fn dup_shares_the_file_offset() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/tmp/f", b"abcdefgh").unwrap();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/f");
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p, 0, 0, 0, 0, 0]));
    let dup = ok_val(call(&mut k, pid, Sysno::Dup, [fd, 0, 0, 0, 0, 0]));
    // Read 4 via fd, then 4 via dup: the offset is shared.
    let buf = 0x3000;
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Read, [fd, buf, 4, 0, 0, 0])),
        4
    );
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Read, [dup, buf + 8, 4, 0, 0, 0])),
        4
    );
    let mem = &k.proc(pid).unwrap().mem;
    assert_eq!(&mem.read_bytes(buf, 4).unwrap()[..], b"abcd");
    assert_eq!(&mem.read_bytes(buf + 8, 4).unwrap()[..], b"efgh");
}

#[test]
fn append_mode_ignores_offset() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/tmp/log", b"AAAA").unwrap();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/log");
    let flags = u64::from(OpenFlags::O_WRONLY | OpenFlags::O_APPEND);
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p, flags, 0, 0, 0, 0]));
    // Even after seeking to 0, the write appends.
    ok_val(call(&mut k, pid, Sysno::Lseek, [fd, 0, 0, 0, 0, 0]));
    let buf = stage(&mut k, pid, 0x3000, b"BB");
    ok_val(call(&mut k, pid, Sysno::Write, [fd, buf, 2, 0, 0, 0]));
    assert_eq!(k.read_file(b"/tmp/log").unwrap(), b"AAAABB");
}

#[test]
fn bad_descriptor_errors_everywhere() {
    let (mut k, pid) = boot_with_proc();
    for sys in [
        Sysno::Read,
        Sysno::Write,
        Sysno::Close,
        Sysno::Fstat,
        Sysno::Lseek,
        Sysno::Dup,
        Sysno::Fsync,
        Sysno::Getdirentries,
        Sysno::Fchmod,
        Sysno::Fchown,
        Sysno::Ftruncate,
    ] {
        let out = call(&mut k, pid, sys, [47, 0x3000, 8, 0, 0, 0]);
        assert_eq!(out, SysOutcome::Done(Err(Errno::EBADF)), "{sys}");
    }
}

#[test]
fn efault_on_wild_pointers() {
    let (mut k, pid) = boot_with_proc();
    let wild = u64::MAX - 4096;
    expect_err(
        call(&mut k, pid, Sysno::Open, [wild, 0, 0, 0, 0, 0]),
        Errno::EFAULT,
    );
    expect_err(
        call(&mut k, pid, Sysno::Gettimeofday, [wild, 0, 0, 0, 0, 0]),
        Errno::EFAULT,
    );
    expect_err(
        call(&mut k, pid, Sysno::Read, [1, wild, 64, 0, 0, 0]),
        Errno::EFAULT,
    );
}

#[test]
fn permissions_enforced_for_non_root() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/etc/private", b"secret").unwrap();
    {
        let root = ia_vfs::inode::ROOT_INO;
        let ino =
            k.fs.resolve(root, b"/etc/private", ia_vfs::Cred::ROOT)
                .unwrap()
                .ino;
        let now = k.clock.now();
        k.fs.chmod(ino, 0o600, ia_vfs::Cred::ROOT, now).unwrap();
    }
    // Drop privileges.
    ok_val(call(&mut k, pid, Sysno::Setuid, [1000, 0, 0, 0, 0, 0]));
    assert_eq!(ok_val(call(&mut k, pid, Sysno::Getuid, [0; 6])), 1000);
    let p = stage(&mut k, pid, 0x2000, b"/etc/private");
    expect_err(
        call(&mut k, pid, Sysno::Open, [p, 0, 0, 0, 0, 0]),
        Errno::EACCES,
    );
    // And we can't get privileges back.
    expect_err(
        call(&mut k, pid, Sysno::Setuid, [0, 0, 0, 0, 0, 0]),
        Errno::EPERM,
    );
    // chown is superuser-only in 4.3BSD.
    expect_err(
        call(&mut k, pid, Sysno::Chown, [p, 1000, 1000, 0, 0, 0]),
        Errno::EPERM,
    );
    // settimeofday requires root too.
    expect_err(
        call(&mut k, pid, Sysno::Settimeofday, [0, 0, 0, 0, 0, 0]),
        Errno::EPERM,
    );
}

#[test]
fn setuid_exec_raises_effective_uid() {
    let mut k = KernelBuilder::new().build();
    // A setuid-root binary that reports its euid as its exit status.
    let img = ia_vm::assemble("main: sys geteuid\n sys exit\n").unwrap();
    let ino = k.install_image(b"/bin/su-probe", &img).unwrap();
    let now = k.clock.now();
    k.fs.chmod(ino, 0o4755, ia_vfs::Cred::ROOT, now).unwrap();

    // A non-root launcher execs it.
    let launcher = ia_vm::assemble(
        r#"
        .data
        path: .asciz "/bin/su-probe"
        .text
        main:
            li r0, 1000
            sys setuid
            la r0, path
            li r1, 0
            li r2, 0
            sys execve
            li r0, 99
            sys exit
        "#,
    )
    .unwrap();
    let pid = k.spawn_image(&launcher, &[b"l"], b"l");
    k.run_to_completion();
    assert_eq!(
        k.exit_status(pid),
        Some(ia_abi::signal::wait_status_exited(0)),
        "euid became 0 (the file owner) despite the real uid being 1000"
    );
}

#[test]
fn chroot_confines_absolute_and_dotdot_paths() {
    let (mut k, pid) = boot_with_proc();
    k.mkdir_p(b"/jail/inner").unwrap();
    k.write_file(b"/jail/data.txt", b"inside").unwrap();
    k.write_file(b"/etc/passwd-real", b"outside").unwrap();
    let j = stage(&mut k, pid, 0x2000, b"/jail");
    ok_val(call(&mut k, pid, Sysno::Chroot, [j, 0, 0, 0, 0, 0]));
    // Absolute paths resolve inside the jail.
    let p = stage(&mut k, pid, 0x2100, b"/data.txt");
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p, 0, 0, 0, 0, 0]));
    assert!(fd >= 3);
    // ".." cannot climb out.
    let esc = stage(&mut k, pid, 0x2200, b"/../etc/passwd-real");
    expect_err(
        call(&mut k, pid, Sysno::Open, [esc, 0, 0, 0, 0, 0]),
        Errno::ENOENT,
    );
}

#[test]
fn fcntl_dupfd_and_cloexec() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/tmp/f", b"x").unwrap();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/f");
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p, 0, 0, 0, 0, 0]));
    // F_DUPFD with a minimum slot.
    let dup = ok_val(call(&mut k, pid, Sysno::Fcntl, [fd, 0, 10, 0, 0, 0]));
    assert_eq!(dup, 10);
    // F_SETFD / F_GETFD.
    ok_val(call(&mut k, pid, Sysno::Fcntl, [fd, 2, 1, 0, 0, 0]));
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Fcntl, [fd, 1, 0, 0, 0, 0])),
        1
    );
    // F_GETFL reflects open flags; F_SETFL can toggle O_APPEND only-ish.
    let fl = ok_val(call(&mut k, pid, Sysno::Fcntl, [fd, 3, 0, 0, 0, 0]));
    assert_eq!(fl & 3, u64::from(OpenFlags::O_RDONLY));
    ok_val(call(
        &mut k,
        pid,
        Sysno::Fcntl,
        [fd, 4, u64::from(OpenFlags::O_APPEND), 0, 0, 0],
    ));
    let fl = ok_val(call(&mut k, pid, Sysno::Fcntl, [fd, 3, 0, 0, 0, 0]));
    assert_ne!(fl & u64::from(OpenFlags::O_APPEND), 0);
}

#[test]
fn select_reports_console_and_regular_files_ready() {
    let (mut k, pid) = boot_with_proc();
    // fd 1 (tty) is writable; readable only at EOF/with input.
    let masks = 0x3000;
    k.proc_mut(pid).unwrap().mem.write_u64(masks, 0b10).unwrap(); // fd1 write
    k.proc_mut(pid)
        .unwrap()
        .mem
        .write_u64(masks + 8, 0)
        .unwrap();
    let n = ok_val(call(&mut k, pid, Sysno::Select, [2, 0, masks, 0, 0, 0]));
    assert_eq!(n, 1);
    assert_eq!(k.proc(pid).unwrap().mem.read_u64(masks).unwrap(), 0b10);
}

#[test]
fn wait4_with_wnohang_and_echild() {
    let (mut k, pid) = boot_with_proc();
    // No children at all.
    expect_err(
        call(&mut k, pid, Sysno::Wait4, [0, 0, 1, 0, 0, 0]),
        Errno::ECHILD,
    );
    // Fork, child still alive: WNOHANG returns 0.
    let child = ok_val(call(&mut k, pid, Sysno::Fork, [0; 6]));
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Wait4, [0, 0, 1, 0, 0, 0])),
        0
    );
    // Child exits; now it is reaped.
    let _ = call(&mut k, child as u32, Sysno::Exit, [7, 0, 0, 0, 0, 0]);
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Wait4, [0, 0, 1, 0, 0, 0])),
        child
    );
}

#[test]
fn pipe_fifo_and_socketpair_fstat_kinds() {
    let (mut k, pid) = boot_with_proc();
    let buf = 0x3000;
    // Anonymous pipe.
    let SysOutcome::Done(Ok([r, w])) = call(&mut k, pid, Sysno::Pipe, [0; 6]) else {
        panic!("pipe failed")
    };
    ok_val(call(&mut k, pid, Sysno::Fstat, [r, buf, 0, 0, 0, 0]));
    let st: Stat = k.proc(pid).unwrap().mem.read_struct(buf).unwrap();
    assert_eq!(st.mode & 0o170000, 0o010000, "S_IFIFO");
    let _ = w;
    // Socketpair.
    let SysOutcome::Done(Ok([a, _b])) = call(&mut k, pid, Sysno::Socketpair, [0; 6]) else {
        panic!("socketpair failed")
    };
    ok_val(call(&mut k, pid, Sysno::Fstat, [a, buf, 0, 0, 0, 0]));
    let st: Stat = k.proc(pid).unwrap().mem.read_struct(buf).unwrap();
    assert_eq!(st.mode & 0o170000, 0o140000, "S_IFSOCK");
}

#[test]
fn named_fifo_carries_data_between_processes() {
    let mut k = KernelBuilder::new().build();
    let writer = ia_vm::assemble(
        r#"
        .data
        p: .asciz "/tmp/fifo"
        m: .asciz "via-fifo"
        .text
        main:
            la r0, p
            li r1, 438
            sys mkfifo
            la r0, p
            li r1, 1        ; O_WRONLY
            li r2, 0
            sys open
            mov r3, r0
            mov r0, r3
            la r1, m
            li r2, 8
            sys write
            mov r0, r3
            sys close
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    let reader = ia_vm::assemble(
        r#"
        .data
        p: .asciz "/tmp/fifo"
        buf: .space 16
        .text
        main:
            ; spin until the fifo exists
        try:
            la r0, p
            li r1, 0
            li r2, 0
            sys open
            jz r1, opened       ; errno == 0
            jmp try
        opened:
            mov r3, r0
            mov r0, r3
            la r1, buf
            li r2, 16
            sys read
            mov r2, r0
            li r0, 1
            la r1, buf
            sys write
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    k.spawn_image(&writer, &[b"w"], b"w");
    k.spawn_image(&reader, &[b"r"], b"r");
    assert_eq!(k.run_to_completion(), ia_kernel::RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "via-fifo");
}

#[test]
fn socket_rendezvous_through_the_name_space() {
    let mut k = KernelBuilder::new().build();
    let server = ia_vm::assemble(
        r#"
        .data
        addr: .asciz "/tmp/svc.sock"
        buf:  .space 32
        .text
        main:
            li r0, 1
            li r1, 1
            li r2, 0
            sys socket
            mov r10, r0
            mov r0, r10
            la r1, addr
            li r2, 0
            sys bind
            mov r0, r10
            li r1, 4
            sys listen
            mov r0, r10
            li r1, 0
            li r2, 0
            sys accept
            mov r11, r0         ; connection fd
            mov r0, r11
            la r1, buf
            li r2, 32
            sys read
            mov r2, r0
            li r0, 1
            la r1, buf
            sys write
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    let client = ia_vm::assemble(
        r#"
        .data
        addr: .asciz "/tmp/svc.sock"
        msg:  .asciz "ping!"
        .text
        main:
            li r0, 1
            li r1, 1
            li r2, 0
            sys socket
            mov r10, r0
        retry:
            mov r0, r10
            la r1, addr
            li r2, 0
            sys connect
            jnz r1, retry       ; until the server has bound
            mov r0, r10
            la r1, msg
            li r2, 5
            sys write
            mov r0, r10
            sys close
            li r0, 0
            sys exit
        "#,
    )
    .unwrap();
    k.spawn_image(&server, &[b"srv"], b"srv");
    k.spawn_image(&client, &[b"cli"], b"cli");
    assert_eq!(k.run_to_completion(), ia_kernel::RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "ping!");
}

#[test]
fn itimer_delivers_sigalrm() {
    let mut k = KernelBuilder::new().build();
    // Program: install SIGALRM handler (writes "A" then exits), arm a
    // 50 ms timer, spin forever.
    let src = r#"
        .data
        act: .space 16
        it:  .space 32
        msg: .asciz "A"
        .text
        main:
            jmp setup
        pad: nop
        handler:
            li r0, 1
            la r1, msg
            li r2, 1
            sys write
            li r0, 0
            sys exit
        setup:
            li r3, 2            ; address of `handler`
            la r1, act
            st r3, (r1)
            li r0, 14           ; SIGALRM
            la r1, act
            li r2, 0
            sys sigaction
            ; itimer value = 50_000 us
            la r1, it
            li r3, 50000
            st r3, 24(r1)       ; value.usec (interval 0)
            li r0, 0
            la r1, it
            li r2, 0
            sys setitimer
        spin:
            jmp spin
    "#;
    let img = ia_vm::assemble(src).unwrap();
    k.spawn_image(&img, &[b"alarm"], b"alarm");
    let out = ia_kernel::run(
        &mut k,
        &mut ia_kernel::KernelRouter,
        ia_kernel::RunLimits {
            max_steps: 1_000_000,
        },
    );
    assert_eq!(out, ia_kernel::RunOutcome::AllExited);
    assert_eq!(k.console.output_string(), "A");
}

#[test]
fn sigsuspend_waits_for_a_signal() {
    // Parent sigsuspends; child (forked before) kills the parent with a
    // handled signal; parent resumes and exits cleanly.
    let src = r#"
        .data
        act: .space 16
        .text
        main:
            jmp setup
        pad: nop
        handler:
            mov r0, r1
            sys sigreturn
        setup:
            li r3, 2
            la r1, act
            st r3, (r1)
            li r0, 30           ; SIGUSR1
            la r1, act
            li r2, 0
            sys sigaction
            ; block SIGUSR1 first — the classic race sigsuspend solves
            li r0, 1            ; SIG_BLOCK
            li r1, 0x20000000   ; bit 29 = SIGUSR1
            sys sigprocmask
            sys getpid
            mov r12, r0
            sys fork
            jz r0, child
            ; parent: atomically unblock and wait
            li r0, 0
            sys sigsuspend
            ; EINTR after the handler ran: reap the child, exit 5
            li r0, 0
            li r1, 0
            li r2, 0
            li r3, 0
            sys wait4
            li r0, 5
            sys exit
        child:
            mov r0, r12
            li r1, 30
            sys kill
            li r0, 0
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"s"], b"s");
    assert_eq!(k.run_to_completion(), ia_kernel::RunOutcome::AllExited);
    assert_eq!(
        k.exit_status(pid),
        Some(ia_abi::signal::wait_status_exited(5))
    );
}

#[test]
fn exec_closes_cloexec_descriptors() {
    let mut k = KernelBuilder::new().build();
    // Target: tries to fstat fd 3 and exits with the errno (EBADF = 9 if
    // the descriptor was closed by exec).
    let target = ia_vm::assemble(
        r#"
        .data
        buf: .space 128
        .text
        main:
            li r0, 3
            la r1, buf
            sys fstat
            mov r0, r1
            sys exit
        "#,
    )
    .unwrap();
    k.install_image(b"/bin/probe", &target).unwrap();
    let launcher = ia_vm::assemble(
        r#"
        .data
        f:    .asciz "/tmp/file"
        path: .asciz "/bin/probe"
        .text
        main:
            la r0, f
            li r1, 0x601
            li r2, 420
            sys open            ; lands on fd 3
            mov r10, r0
            mov r0, r10
            li r1, 2            ; F_SETFD
            li r2, 1            ; close-on-exec
            sys fcntl
            la r0, path
            li r1, 0
            li r2, 0
            sys execve
            li r0, 99
            sys exit
        "#,
    )
    .unwrap();
    let pid = k.spawn_image(&launcher, &[b"l"], b"l");
    k.run_to_completion();
    assert_eq!(
        k.exit_status(pid),
        Some(ia_abi::signal::wait_status_exited(Errno::EBADF.code() as u8))
    );
}

#[test]
fn process_groups_and_group_kill() {
    let (mut k, pid) = boot_with_proc();
    let c1 = ok_val(call(&mut k, pid, Sysno::Fork, [0; 6])) as u32;
    let c2 = ok_val(call(&mut k, pid, Sysno::Fork, [0; 6])) as u32;
    // Children join a new group led by c1.
    ok_val(call(&mut k, c1, Sysno::Setpgid, [0, 0, 0, 0, 0, 0]));
    ok_val(call(
        &mut k,
        c2,
        Sysno::Setpgid,
        [u64::from(c2), u64::from(c1), 0, 0, 0, 0],
    ));
    assert_eq!(
        ok_val(call(&mut k, c1, Sysno::Getpgrp, [0; 6])),
        u64::from(c1)
    );
    // kill(-pgrp, SIGKILL) terminates both children, not the parent.
    let neg = (-(i64::from(c1))) as u64;
    ok_val(call(&mut k, pid, Sysno::Kill, [neg, 9, 0, 0, 0, 0]));
    assert!(k.proc(pid).is_ok());
    assert!(matches!(
        k.proc(c1).map(|p| p.state),
        Ok(ia_kernel::ProcState::Zombie(_))
    ));
    assert!(matches!(
        k.proc(c2).map(|p| p.state),
        Ok(ia_kernel::ProcState::Zombie(_))
    ));
}

#[test]
fn unknown_syscall_number_is_einval() {
    let (mut k, pid) = boot_with_proc();
    assert_eq!(
        k.syscall(pid, 9999, [0; 6]),
        SysOutcome::Done(Err(Errno::EINVAL))
    );
    assert_eq!(
        k.syscall(pid, 0, [0; 6]),
        SysOutcome::Done(Err(Errno::EINVAL))
    );
}

#[test]
fn getrusage_reflects_activity() {
    let mut k = KernelBuilder::new().build();
    let src = r#"
        .data
        ru: .space 80
        .text
        main:
            li r12, 50
        spin:
            addi r12, r12, -1
            jnz r12, spin
            li r0, 0
            la r1, ru
            sys getrusage
            ; exit(utime.sec == 0 && nsyscalls tracked elsewhere) — just
            ; check the call succeeded
            mov r0, r1
            sys exit
    "#;
    let img = ia_vm::assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"r"], b"r");
    k.run_to_completion();
    assert_eq!(k.exit_status(pid), Some(0), "getrusage succeeded");
}

#[test]
fn readv_writev_scatter_gather() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/tmp/vec", b"").unwrap();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/vec");
    let fd = ok_val(call(
        &mut k,
        pid,
        Sysno::Open,
        [p, u64::from(OpenFlags::O_RDWR), 0, 0, 0, 0],
    ));
    // Two iovecs: "abc" at 0x3000, "defg" at 0x3100.
    {
        let mem = &mut k.proc_mut(pid).unwrap().mem;
        mem.write_bytes(0x3000, b"abc").unwrap();
        mem.write_bytes(0x3100, b"defg").unwrap();
        // iovec array at 0x4000.
        mem.write_u64(0x4000, 0x3000).unwrap();
        mem.write_u64(0x4008, 3).unwrap();
        mem.write_u64(0x4010, 0x3100).unwrap();
        mem.write_u64(0x4018, 4).unwrap();
    }
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Writev, [fd, 0x4000, 2, 0, 0, 0])),
        7
    );
    assert_eq!(k.read_file(b"/tmp/vec").unwrap(), b"abcdefg");

    // Scatter it back into two different buffers.
    ok_val(call(&mut k, pid, Sysno::Lseek, [fd, 0, 0, 0, 0, 0]));
    {
        let mem = &mut k.proc_mut(pid).unwrap().mem;
        mem.write_u64(0x4000, 0x5000).unwrap();
        mem.write_u64(0x4008, 2).unwrap();
        mem.write_u64(0x4010, 0x5100).unwrap();
        mem.write_u64(0x4018, 16).unwrap();
    }
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Readv, [fd, 0x4000, 2, 0, 0, 0])),
        7
    );
    let mem = &k.proc(pid).unwrap().mem;
    assert_eq!(&mem.read_bytes(0x5000, 2).unwrap()[..], b"ab");
    assert_eq!(&mem.read_bytes(0x5100, 5).unwrap()[..], b"cdefg");
}

#[test]
fn select_timeout_expires_on_the_virtual_clock() {
    // A program that selects on nothing with a 10 ms timeout: the
    // scheduler must advance the clock and wake it, not deadlock.
    let src = r#"
        .data
        tv: .quad 0
            .quad 10000     ; 10_000 us
        .text
        main:
            li r0, 0
            li r1, 0
            li r2, 0
            li r3, 0
            la r4, tv
            sys select
            ; returns 0 ready
            sys exit
    "#;
    let mut k = KernelBuilder::new().build();
    let img = ia_vm::assemble(src).unwrap();
    let pid = k.spawn_image(&img, &[b"s"], b"s");
    let before = k.clock.elapsed_ns();
    assert_eq!(k.run_to_completion(), ia_kernel::RunOutcome::AllExited);
    assert_eq!(k.exit_status(pid), Some(0), "select returned 0 fds");
    assert!(
        k.clock.elapsed_ns() - before >= 10_000_000,
        "clock advanced past the timeout"
    );
}

#[test]
fn sbrk_failure_reports_enomem_and_preserves_break() {
    let (mut k, pid) = boot_with_proc();
    let old = ok_val(call(&mut k, pid, Sysno::Sbrk, [0, 0, 0, 0, 0, 0]));
    // Ask for more than the whole address space.
    expect_err(
        call(&mut k, pid, Sysno::Sbrk, [1 << 40, 0, 0, 0, 0, 0]),
        Errno::ENOMEM,
    );
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Sbrk, [0, 0, 0, 0, 0, 0])),
        old,
        "failed grow left the break unchanged"
    );
}

#[test]
fn hard_links_visible_through_descriptor_io() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/tmp/orig", b"shared-bytes").unwrap();
    let p1 = stage(&mut k, pid, 0x2000, b"/tmp/orig");
    let p2 = stage(&mut k, pid, 0x2100, b"/tmp/alias");
    ok_val(call(&mut k, pid, Sysno::Link, [p1, p2, 0, 0, 0, 0]));
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p2, 0, 0, 0, 0, 0]));
    let n = ok_val(call(&mut k, pid, Sysno::Read, [fd, 0x3000, 32, 0, 0, 0]));
    assert_eq!(n, 12);
    assert_eq!(
        &k.proc(pid).unwrap().mem.read_bytes(0x3000, 12).unwrap()[..],
        b"shared-bytes"
    );
    // Unlink the original; the alias still works.
    ok_val(call(&mut k, pid, Sysno::Unlink, [p1, 0, 0, 0, 0, 0]));
    assert_eq!(k.read_file(b"/tmp/alias").unwrap(), b"shared-bytes");
}

/// A read into an unmapped buffer fails `EFAULT` only after the transfer's
/// bookkeeping: the file offset, the clock and `inblock` move as for a
/// read that succeeded, and no byte of guest memory changes.
#[test]
fn read_into_an_unmapped_buffer_faults_after_the_offset_moves() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/tmp/f", b"0123456789").unwrap();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/f");
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p, 0, 0, 0, 0, 0]));
    let size = k.proc(pid).unwrap().mem.size() as u64;
    let base = k.profile.syscall_base_ns(Sysno::Read);
    let per_byte = k.profile.io_byte_ns();
    let inblock = |k: &Kernel| k.proc(pid).unwrap().usage.inblock;
    let offset = |k: &mut Kernel| ok_val(call(k, pid, Sysno::Lseek, [fd, 0, 1, 0, 0, 0]));

    // Straddles the end of the space: its first two bytes are mapped.
    let top = |k: &Kernel| {
        k.proc(pid)
            .unwrap()
            .mem
            .read_bytes(size - 2, 2)
            .unwrap()
            .to_vec()
    };
    let before = top(&k);
    let (t0, b0) = (k.clock.elapsed_ns(), inblock(&k));
    expect_err(
        call(&mut k, pid, Sysno::Read, [fd, size - 2, 4, 0, 0, 0]),
        Errno::EFAULT,
    );
    assert_eq!(k.clock.elapsed_ns() - t0, base + 4 * per_byte);
    assert_eq!(inblock(&k), b0 + 1);
    assert_eq!(top(&k), before, "nothing written");
    assert_eq!(offset(&mut k), 4, "the offset moved past the lost bytes");

    // Wholly wild.
    let t0 = k.clock.elapsed_ns();
    expect_err(
        call(&mut k, pid, Sysno::Read, [fd, u64::MAX - 4096, 3, 0, 0, 0]),
        Errno::EFAULT,
    );
    assert_eq!(k.clock.elapsed_ns() - t0, base + 3 * per_byte);
    assert_eq!(offset(&mut k), 7);

    // At end of file a zero-byte read still checks the pointer.
    ok_val(call(&mut k, pid, Sysno::Lseek, [fd, 10, 0, 0, 0, 0]));
    let (t0, b0) = (k.clock.elapsed_ns(), inblock(&k));
    expect_err(
        call(&mut k, pid, Sysno::Read, [fd, size + 1, 8, 0, 0, 0]),
        Errno::EFAULT,
    );
    assert_eq!(k.clock.elapsed_ns() - t0, base);
    assert_eq!(inblock(&k), b0 + 1);
    assert_eq!(offset(&mut k), 10);
}

/// A write from an unmapped buffer fails `EFAULT` before the descriptor is
/// looked at, and moves neither the file, its offset nor `oublock`.
#[test]
fn write_from_an_unmapped_buffer_faults_before_anything_moves() {
    let (mut k, pid) = boot_with_proc();
    let size = k.proc(pid).unwrap().mem.size() as u64;
    expect_err(
        call(&mut k, pid, Sysno::Write, [47, size - 2, 4, 0, 0, 0]),
        Errno::EFAULT,
    );
    k.write_file(b"/tmp/w", b"abc").unwrap();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/w");
    let fd = ok_val(call(
        &mut k,
        pid,
        Sysno::Open,
        [p, u64::from(OpenFlags::O_RDWR), 0, 0, 0, 0],
    ));
    let oublock = k.proc(pid).unwrap().usage.oublock;
    let t0 = k.clock.elapsed_ns();
    expect_err(
        call(&mut k, pid, Sysno::Write, [fd, size - 2, 4, 0, 0, 0]),
        Errno::EFAULT,
    );
    assert_eq!(
        k.clock.elapsed_ns() - t0,
        k.profile.syscall_base_ns(Sysno::Write)
    );
    assert_eq!(k.proc(pid).unwrap().usage.oublock, oublock);
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Lseek, [fd, 0, 1, 0, 0, 0])),
        0
    );
    assert_eq!(k.read_file(b"/tmp/w").unwrap(), b"abc");
}

/// `readv` fills its vectors in order: one that is unmapped fails the call
/// `EFAULT` after the vectors before it were filled and the offset moved.
#[test]
fn readv_faults_at_the_first_unmapped_vector() {
    let (mut k, pid) = boot_with_proc();
    k.write_file(b"/tmp/v", b"abcdefg").unwrap();
    let p = stage(&mut k, pid, 0x2000, b"/tmp/v");
    let fd = ok_val(call(&mut k, pid, Sysno::Open, [p, 0, 0, 0, 0, 0]));
    {
        let mem = &mut k.proc_mut(pid).unwrap().mem;
        mem.write_u64(0x4000, 0x5000).unwrap();
        mem.write_u64(0x4008, 3).unwrap();
        mem.write_u64(0x4010, u64::MAX - 4096).unwrap();
        mem.write_u64(0x4018, 16).unwrap();
    }
    expect_err(
        call(&mut k, pid, Sysno::Readv, [fd, 0x4000, 2, 0, 0, 0]),
        Errno::EFAULT,
    );
    assert_eq!(
        &k.proc(pid).unwrap().mem.read_bytes(0x5000, 3).unwrap()[..],
        b"abc"
    );
    assert_eq!(
        ok_val(call(&mut k, pid, Sysno::Lseek, [fd, 0, 1, 0, 0, 0])),
        7
    );
}
