//! The agent loader — the paper's "general agent loader program used to
//! invoke arbitrary agents, which are compiled separately from the agent
//! loader".
//!
//! Loading wraps an agent around a client process: the agent's `init` hook
//! runs with a downcall context, interest registration happens through the
//! agent's `interests()`, and the one-time load cost from Table 3-2's
//! floor is charged to the virtual clock.

use ia_abi::Errno;
use ia_kernel::{Kernel, Pid};
use ia_vm::Image;

use crate::agent::{Agent, SysCtx};
use crate::chain::{flush_pending, push_agent, take_chain};
use crate::router::InterposedRouter;

/// Wraps `agent` around an existing process: pushes it on top of the
/// chain the process carries, charges the agent start-up cost, and runs
/// `init`. The router argument is unused: the chain lives in the kernel.
pub fn wrap_process(
    k: &mut Kernel,
    _router: &mut InterposedRouter,
    pid: Pid,
    mut agent: Box<dyn Agent>,
    agent_args: &[Vec<u8>],
) {
    // Installing an agent changes the chain: any batched calls must be
    // observed by the old configuration first.
    flush_pending(k, pid);
    let cost = k.profile.agent_startup_ns;
    k.clock.advance_ns(cost);
    if let Ok(p) = k.proc_mut(pid) {
        p.usage.sys_ns += cost;
    }
    // init runs with the *existing* chain below the new agent.
    let mut chain = take_chain(k, pid).unwrap_or_default();
    agent.init(&mut SysCtx::new(k, pid, &mut chain.agents, 0), agent_args);
    k.set_emulation(pid, chain);
    push_agent(k, pid, agent);
}

/// Spawns `image` as a fresh process already wrapped by `agent` — the
/// common `agent_loader prog args...` invocation.
pub fn spawn_with_agent(
    k: &mut Kernel,
    agent: Box<dyn Agent>,
    agent_args: &[Vec<u8>],
    image: &Image,
    argv: &[&[u8]],
    name: &[u8],
) -> Pid {
    let pid = k.spawn_image(image, argv, name);
    wrap_process(k, &mut InterposedRouter::new(), pid, agent, agent_args);
    pid
}

/// Like [`spawn_with_agent`] but loading the client binary from the
/// simulated filesystem, exactly as the paper's loader did.
pub fn load_with_agent(
    k: &mut Kernel,
    agent: Box<dyn Agent>,
    agent_args: &[Vec<u8>],
    path: &[u8],
    argv: &[&[u8]],
) -> Result<Pid, Errno> {
    let pid = k.spawn(path, argv)?;
    wrap_process(k, &mut InterposedRouter::new(), pid, agent, agent_args);
    Ok(pid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interest::InterestSet;
    use ia_abi::{RawArgs, Sysno};
    use ia_kernel::{RunOutcome, SysOutcome};

    struct InitProbe {
        inited_with: Vec<Vec<u8>>,
    }

    impl Agent for InitProbe {
        fn name(&self) -> &'static str {
            "init-probe"
        }
        fn interests(&self) -> InterestSet {
            InterestSet::NONE
        }
        fn init(&mut self, ctx: &mut SysCtx<'_>, args: &[Vec<u8>]) {
            self.inited_with = args.to_vec();
            // Agents may use the interface during init (e.g. open a log).
            let out = ctx.down_sys(Sysno::Getpid, [0; 6]);
            assert!(matches!(out, SysOutcome::Done(Ok(_))));
        }
        fn syscall(&mut self, ctx: &mut SysCtx<'_>, nr: u32, args: RawArgs) -> SysOutcome {
            ctx.down(nr, args)
        }
        fn clone_box(&self) -> Box<dyn Agent> {
            Box::new(InitProbe {
                inited_with: self.inited_with.clone(),
            })
        }
    }

    #[test]
    fn loader_runs_init_with_args_and_charges_startup() {
        let mut k = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble("main: li r0, 0\n sys exit\n").unwrap();
        let mut router = InterposedRouter::new();
        let before = k.clock.elapsed_ns();
        let pid = spawn_with_agent(
            &mut k,
            Box::new(InitProbe {
                inited_with: vec![],
            }),
            &[b"+60".to_vec()],
            &img,
            &[b"client"],
            b"client",
        );
        assert!(k.clock.elapsed_ns() - before >= k.profile.agent_startup_ns);
        assert!(crate::has_chain(&k, pid));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
    }

    #[test]
    fn load_from_filesystem() {
        let mut k = ia_kernel::KernelBuilder::new().build();
        let img = ia_vm::assemble("main: li r0, 3\n sys exit\n").unwrap();
        k.install_image(b"/bin/prog", &img).unwrap();
        let mut router = InterposedRouter::new();
        let pid = load_with_agent(
            &mut k,
            Box::new(InitProbe {
                inited_with: vec![],
            }),
            &[],
            b"/bin/prog",
            &[b"prog"],
        )
        .unwrap();
        k.run_with(&mut router);
        assert_eq!(
            k.exit_status(pid),
            Some(ia_abi::signal::wait_status_exited(3))
        );
        assert_eq!(
            load_with_agent(
                &mut k,
                Box::new(InitProbe {
                    inited_with: vec![]
                }),
                &[],
                b"/bin/missing",
                &[],
            )
            .unwrap_err(),
            Errno::ENOENT
        );
    }
}
