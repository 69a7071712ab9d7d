//! Host wall-clock bench for Table 3-5: each micro syscall loop with and
//! without the time_symbolic agent (virtual µs printed by `reproduce`).

use ia_agents::TimeSymbolic;
use ia_bench::harness::case;
use ia_interpose::InterposedRouter;
use ia_kernel::KernelBuilder;
use ia_workloads::micro::{self, MicroCall};

fn run(call: MicroCall, with_agent: bool) -> u64 {
    let mut k = KernelBuilder::new().build();
    micro::setup(&mut k);
    let pid = k.spawn_image(&micro::loop_image(call, 32), &[b"m"], b"m");
    let mut router = InterposedRouter::new();
    if with_agent {
        ia_interpose::push_agent(&mut k, pid, TimeSymbolic::boxed());
    }
    k.run_with(&mut router);
    k.clock.elapsed_ns()
}

fn main() {
    for call in [
        MicroCall::Getpid,
        MicroCall::Read1k,
        MicroCall::Stat,
        MicroCall::ForkWaitExit,
    ] {
        case(
            "table_3_5_syscalls",
            &format!("{}_without", call.name()),
            10,
            || run(call, false),
        );
        case(
            "table_3_5_syscalls",
            &format!("{}_with_agent", call.name()),
            10,
            || run(call, true),
        );
    }
}
