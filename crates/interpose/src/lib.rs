//! # ia-interpose — the system-call interception mechanism
//!
//! The simulated equivalent of the Mach 2.5 facilities the paper builds on:
//!
//! | Paper (Mach 2.5)            | Here                                        |
//! |-----------------------------|---------------------------------------------|
//! | per-task emulation vector   | the [`chain`] held in each kernel `Process` |
//! | `task_set_emulation()`      | [`push_agent`] and its [`InterestSet`]      |
//! | syscall redirection         | [`InterposedRouter`] in the scheduler       |
//! | `htg_unix_syscall()`        | [`SysCtx::down`]                            |
//! | agent loader program        | [`loader`]                                  |
//! | agents forked with client   | chain cloning + `init_child`                |
//! | emulation dies with task    | the chain is dropped with its process       |
//!
//! An *agent* ([`Agent`]) is user code that both uses and provides the
//! system interface. Agents stack: each process carries a chain, traps
//! enter at the top, and every agent's `down()` reaches the next instance
//! below — another agent or the kernel (Figures 1-2 through 1-4). Because
//! the chains live in the kernel's processes, one `Kernel` is the whole
//! world: `Kernel::snapshot`, `restore` and `branch` carry every chain.
//!
//! Interception is pay-per-use, as measured in the paper: a trap whose
//! number no agent registered interest in goes straight to the kernel with
//! zero added cost; an intercepted trap is charged the measured intercept
//! (30 µs) and downcall (37 µs) constants against the virtual clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod chain;
pub mod interest;
pub mod loader;
pub mod router;

pub use agent::{dispatch_chain, Agent, SignalVerdict, SysCtx};
pub use chain::{agent, chain_len, flush_pending, has_chain, push_agent, remove_chain, with_chain};
pub use ia_kernel::BatchCall;
pub use interest::InterestSet;
pub use loader::{load_with_agent, spawn_with_agent, wrap_process};
pub use router::{InterposedRouter, RouterStats, BATCH_CAP};
