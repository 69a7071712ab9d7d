//! Host wall-clock bench for Table 3-4's low-level operations, measured
//! against the Rust substrate: direct kernel dispatch, routed dispatch
//! with a pass-through agent (the intercept), and stacked downcalls.

use ia_agents::TimeSymbolic;
use ia_bench::harness::case;
use ia_interpose::InterposedRouter;
use ia_kernel::{KernelBuilder, SyscallRouter};

fn main() {
    let img = ia_vm::assemble("main: halt\n").unwrap();
    let nr = ia_abi::Sysno::Getpid.number();
    const GROUP: &str = "table_3_4_low_level";
    const SAMPLES: usize = 30;

    {
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"m"], b"m");
        case(GROUP, "kernel_syscall_direct", SAMPLES, || {
            k.syscall(pid, nr, [0; 6])
        });
    }

    {
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"m"], b"m");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, TimeSymbolic::boxed());
        case(GROUP, "intercepted_one_agent", SAMPLES, || {
            router.route(&mut k, pid, nr, [0; 6], 0)
        });
    }

    {
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"m"], b"m");
        let mut router = InterposedRouter::new();
        for _ in 0..3 {
            ia_interpose::push_agent(&mut k, pid, TimeSymbolic::boxed());
        }
        case(GROUP, "intercepted_three_agents", SAMPLES, || {
            router.route(&mut k, pid, nr, [0; 6], 0)
        });
    }

    {
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"m"], b"m");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, ia_agents::Timex::boxed(1)); // narrow interests
        case(GROUP, "passthrough_uninterested_agent", SAMPLES, || {
            router.route(&mut k, pid, nr, [0; 6], 0)
        });
    }
}
