//! `ia-stats` — the ia-obs observability report tool.
//!
//! ```text
//! cargo run -p ia-bench --release --bin ia-stats              # text report
//! cargo run -p ia-bench --release --bin ia-stats -- --json    # BENCH_2 JSON
//! cargo run -p ia-bench --release --bin ia-stats -- --fusion  # fusion histogram
//! cargo run -p ia-bench --release --bin ia-stats -- --selftest
//! ```
//!
//! The default and `--json` modes run the BENCH_2 measurement (the
//! paper-§6-shaped per-agent overhead table plus per-layer `getpid()`
//! attribution) and print it; `--json` prints the same document that
//! `reproduce --json` writes to `BENCH_2.json`.
//!
//! `--fusion` runs representative workloads on the fused engine and
//! prints a JSON histogram of executed superinstructions per family,
//! plus the exec-cache hit/miss counters — CI uploads it as an artifact.
//!
//! `--selftest` exercises the recorder and metrics invariants end to end
//! without any workload dependence — tier-1 runs it on every push.

use ia_abi::Sysno;
use ia_agents::Timex;
use ia_bench::overhead;
use ia_interpose::InterposedRouter;
use ia_kernel::{KernelBuilder, RunOutcome};
use ia_obs::report::{json_escape, render_events_text, render_metrics_json};
use ia_obs::{Event, Obs, Outcome};
use ia_workloads::micro::{self, MicroCall};
use ia_workloads::runner::{run_workload_observed, AgentKind, SchedKind, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selftest") {
        selftest();
        println!("ia-stats selftest: ok");
        return;
    }
    if args.iter().any(|a| a == "--fusion") {
        print!("{}", render_fusion_json());
        return;
    }
    let b = overhead::run_all();
    if args.iter().any(|a| a == "--json") {
        print!("{}", overhead::render_json(&b));
    } else {
        print!("{}", overhead::render_text(&b));
        print!("{}", render_fast_stats());
    }
}

/// Runs a short probe with the trap fast path on — a `getpid()` loop (not
/// interposed by the timex chain, so it is answered in the VM loop) and a
/// `gettimeofday()` loop (interposed, so every call takes the slow path) —
/// and renders the kernel's per-`(pid, syscall)` hit/miss counters.
fn render_fast_stats() -> String {
    let mut k = KernelBuilder::new().build();
    micro::setup(&mut k);
    let mut router = InterposedRouter::new();
    for call in [MicroCall::Getpid, MicroCall::Gettimeofday] {
        let img = micro::loop_image(call, 256);
        let pid = k.spawn_image(&img, &[b"probe"], b"probe");
        ia_interpose::wrap_process(&mut k, &mut router, pid, Timex::boxed(3600), &[]);
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    }
    let mut s = String::from("\nfast path probe (getpid + gettimeofday loops under timex):\n");
    s.push_str("  pid  syscall            hits    misses\n");
    for ((pid, nr), (hits, misses)) in k.fast_stats.rows() {
        let name = Sysno::from_u32(nr).map_or_else(|| format!("nr{nr}"), |s| format!("{s:?}"));
        s.push_str(&format!("  {pid:<4} {name:<16} {hits:>6} {misses:>9}\n"));
    }
    s.push_str(&format!(
        "  total: {} answered in the VM loop, {} via full dispatch\n",
        k.fast_stats.hits(),
        k.fast_stats.misses()
    ));
    s
}

/// Runs representative workloads on the default configuration — a compute
/// countdown loop, a `getpid()` trap loop, and a fork/exec storm of one
/// installed tool — and renders the per-family superinstruction hit
/// histogram plus the exec-cache counters as a JSON document.
fn render_fusion_json() -> String {
    let mut k = KernelBuilder::new().build();
    micro::setup(&mut k);

    // Compute loop: one pair from every arithmetic fusion family per
    // iteration (ld+alu, cmp+branch, addi+branch).
    let compute = ia_vm::assemble(
        r#"
        .data
        cell: .space 8
        .text
        main:
            la  r9, cell
            li  r13, 20000
        loop:
            ld  r5, (r9)
            add r5, r5, r13
            seq r4, r13, r14
            jnz r4, done
            addi r13, r13, -1
            jnz r13, loop
        done:
            li r0, 0
            sys exit
        "#,
    )
    .expect("compute loop assembles");
    k.spawn_image(&compute, &[b"compute"], b"compute");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);

    // Trap loop: li r7 + sys pairs.
    k.spawn_image(&micro::loop_image(MicroCall::Getpid, 2000), &[b"t"], b"t");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);

    // Exec storm: fork/exec the same installed tool, exercising the
    // digest-keyed image cache.
    let tool = ia_vm::assemble("main: li r0, 0\n sys exit\n").expect("tool assembles");
    k.install_image(b"/bin/tool", &tool).expect("tool installs");
    let driver = ia_vm::assemble(
        r#"
        .data
        path: .asciz "/bin/tool"
        .text
        main:
            li  r12, 8
        loop:
            jz  r12, fin
            sys fork
            jz  r0, child
            li  r0, 0
            li  r1, 0
            li  r2, 0
            li  r3, 0
            sys wait4
            addi r12, r12, -1
            jmp loop
        child:
            la  r0, path
            li  r1, 0
            li  r2, 0
            sys execve
            li  r0, 99
            sys exit
        fin:
            li r0, 0
            sys exit
        "#,
    )
    .expect("driver assembles");
    k.spawn_image(&driver, &[b"driver"], b"driver");
    assert_eq!(k.run_to_completion(), RunOutcome::AllExited);

    let rows = k.fusion_stats.rows();
    let (cache_hits, cache_misses) = k.exec_cache_stats();
    let mut s = ia_obs::report::json_header("report", "fusion-histogram");
    s.push_str(
        "  \"description\": \"superinstructions executed per fusion family on \
         representative workloads (compute loop, getpid loop, exec storm)\",\n",
    );
    s.push_str("  \"histogram\": [\n");
    for (i, (family, hits)) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"hits\": {}}}{}\n",
            json_escape(family),
            hits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"superinsns_executed\": {},\n",
        k.fusion_stats.total()
    ));
    s.push_str(&format!(
        "  \"exec_cache\": {{\"hits\": {cache_hits}, \"misses\": {cache_misses}}}\n"
    ));
    s.push_str("}\n");
    s
}

/// Checks the recorder, metrics, and report invariants; panics (non-zero
/// exit) on any violation.
fn selftest() {
    ring_buffer_invariants();
    layer_attribution_is_exclusive();
    json_escaper_round_trips();
    recorder_is_inert_on_a_real_workload();
    no_phantom_interpose_frames_on_bypassed_calls();
}

/// The ring keeps exactly the last `capacity` events, counts what it
/// dropped, and stamps strictly increasing sequence numbers.
fn ring_buffer_invariants() {
    let mut obs = Obs::new();
    assert!(!obs.is_enabled(), "fresh recorder must start disabled");
    obs.trap_dispatch(1, 20, 0, 0); // disabled: must be a no-op
    assert_eq!(obs.recorded(), 0, "disabled recorder recorded an event");

    obs.enable(4);
    for i in 0..7u32 {
        obs.trap_dispatch(1, i, 0, u64::from(i) * 10);
    }
    let events = obs.events();
    assert_eq!(events.len(), 4, "ring must hold exactly its capacity");
    assert_eq!(obs.recorded(), 7);
    assert_eq!(obs.dropped(), 3);
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "sequence numbers must increase");
        assert!(w[0].vclock_ns <= w[1].vclock_ns, "vclock must not regress");
    }
    match events[0].event {
        Event::TrapDispatch { nr, .. } => assert_eq!(nr, 3, "oldest surviving event"),
        ref other => panic!("unexpected event {other:?}"),
    }
}

/// Nested layer frames attribute exclusive time: the parent's per-call
/// cost must not include the child's.
fn layer_attribution_is_exclusive() {
    let mut obs = Obs::new();
    obs.enable(16);
    // outer runs 100ns total, inner 30ns of it.
    obs.layer_enter("outer", 1, 3, 1000);
    obs.layer_enter("inner", 1, 3, 1040);
    obs.layer_exit("inner", 1, 3, Outcome::Ok, 1070);
    obs.layer_exit("outer", 1, 3, Outcome::Ok, 1100);
    let snap = obs.metrics();
    let stat = |layer: &str| {
        snap.rows
            .iter()
            .find(|(l, nr, _)| l == layer && *nr == 3)
            .map(|(_, _, s)| s.clone())
            .unwrap_or_else(|| panic!("missing {layer} row"))
    };
    assert_eq!(stat("inner").virt_ns, 30);
    assert_eq!(stat("outer").virt_ns, 70, "outer must exclude inner's 30ns");
    assert_eq!(snap.layer_calls("outer"), 1);
    let json = render_metrics_json(&snap);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(render_events_text(&obs).contains("enter"));
}

/// The shared JSON escaper covers quotes, backslashes, and control bytes.
fn json_escaper_round_trips() {
    assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
    assert_eq!(json_escape(r"a\b"), r"a\\b");
    assert_eq!(json_escape("a\nb\tc\rd"), r"a\nb\tc\rd");
    assert_eq!(json_escape("\u{1}"), "\\u0001");
    assert_eq!(json_escape("plain"), "plain");
}

/// Enabling the recorder must not perturb the simulation: same virtual
/// clock and observable state as a bare run.
fn recorder_is_inert_on_a_real_workload() {
    let (bare, bare_obs) = run_workload_observed(
        Workload::Scribe,
        ia_kernel::VAX_6250,
        AgentKind::Trace,
        SchedKind::Sliced,
        None,
    );
    let (rec, rec_obs) = run_workload_observed(
        Workload::Scribe,
        ia_kernel::VAX_6250,
        AgentKind::Trace,
        SchedKind::Sliced,
        Some(256),
    );
    assert_eq!(bare.virtual_ns, rec.virtual_ns, "recorder moved the clock");
    assert_eq!(bare_obs, rec_obs, "recorder perturbed observable state");
}

/// A call no agent registered interest in must cross zero interposition
/// machinery: with the recorder on (which itself forces the slow
/// scheduler path), the flat dispatch table sends it straight to the
/// kernel, so the ring must contain no `interpose` frame for it.
fn no_phantom_interpose_frames_on_bypassed_calls() {
    let mut k = KernelBuilder::new().build();
    micro::setup(&mut k);
    let img = micro::loop_image(MicroCall::Getpid, 64);
    let pid = k.spawn_image(&img, &[b"st"], b"st");
    let mut router = InterposedRouter::new();
    // Timex registers interest only in gettimeofday; getpid is bypassed.
    ia_interpose::wrap_process(&mut k, &mut router, pid, Timex::boxed(60), &[]);
    k.obs.enable(8192);
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    let getpid = Sysno::Getpid.number();
    let mut dispatched = 0u64;
    for ev in k.obs.events() {
        match ev.event {
            Event::TrapDispatch { nr, .. } if nr == getpid => dispatched += 1,
            Event::LayerEnter { layer, nr, .. } | Event::LayerExit { layer, nr, .. } => {
                assert!(
                    !(nr == getpid && k.obs.layer_name(layer) == "interpose"),
                    "bypassed getpid produced a phantom interpose frame"
                );
            }
            _ => {}
        }
    }
    assert!(dispatched >= 64, "probe loop must actually have run");
    assert!(
        router.stats.passthrough >= 64,
        "bypassed calls must count as passthrough"
    );
}
