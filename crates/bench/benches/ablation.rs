//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * pay-per-use interception (narrow interest sets) vs intercept-all,
//! * agent chain depth (stacking cost per layer),
//! * the symbolic decoding layer vs raw numeric interposition.

use ia_abi::RawArgs;
use ia_bench::harness::case;
use ia_interpose::{Agent, InterestSet, InterposedRouter, SysCtx};
use ia_kernel::{KernelBuilder, RunOutcome, SysOutcome};

/// Raw numeric pass-through agent (no symbolic decode).
struct RawNull;

impl Agent for RawNull {
    fn name(&self) -> &'static str {
        "raw-null"
    }
    fn interests(&self) -> InterestSet {
        InterestSet::ALL
    }
    fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
        ctx.down(nr, args)
    }
    fn clone_box(&self) -> Box<dyn Agent> {
        Box::new(RawNull)
    }
}

fn run_mix(agents: usize, symbolic: bool, narrow: bool) -> u64 {
    let mut k = KernelBuilder::new().build();
    ia_workloads::mix::setup(&mut k);
    let img = ia_workloads::mix::random_program(7, 60);
    let pid = k.spawn_image(&img, &[b"mix"], b"mix");
    let mut router = InterposedRouter::new();
    for _ in 0..agents {
        if narrow {
            ia_interpose::push_agent(&mut k, pid, ia_agents::Timex::boxed(1));
        } else if symbolic {
            ia_interpose::push_agent(&mut k, pid, ia_agents::TimeSymbolic::boxed());
        } else {
            ia_interpose::push_agent(&mut k, pid, Box::new(RawNull));
        }
    }
    assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    k.clock.elapsed_ns()
}

fn main() {
    const GROUP: &str = "ablation";
    case(GROUP, "no_agent", 20, || run_mix(0, false, false));
    case(GROUP, "narrow_interests_pay_per_use", 20, || {
        run_mix(1, false, true)
    });
    case(GROUP, "raw_numeric_agent", 20, || run_mix(1, false, false));
    case(GROUP, "symbolic_agent", 20, || run_mix(1, true, false));
    for depth in [2usize, 4] {
        case(GROUP, &format!("symbolic_chain_depth_{depth}"), 20, || {
            run_mix(depth, true, false)
        });
    }
}
