//! # ia-conform — deterministic syscall fuzzing + differential conformance
//!
//! The paper's central claim is *transparency*: an unmodified program
//! behaves identically with and without interposition agents (§3.1).
//! This crate turns that claim into systematic coverage:
//!
//! 1. [`gen`] — a seeded random-program generator over the full syscall
//!    surface (files, pipes, fork/exec/wait, signals, itimers, select,
//!    sockets, chdir/permissions) whose output always terminates, even
//!    under injected errors.
//! 2. [`oracle`] — a differential executor running each program under
//!    {bare, pass-through, batched, stacked} agents × {the default (fused,
//!    fast path on), fused with the fast path off, the plain reference}
//!    and asserting the observables agree bit for bit.
//! 3. [`fault`] — systematic error injection at each interception point,
//!    asserting the kernel stays consistent (no leaked descriptors or
//!    pipes, wait converges, scheduler queues sane).
//! 4. [`shrink`] + [`trace`] — on failure, ddmin minimization and a
//!    replayable `.conf` file, so a CI failure reproduces locally with
//!    `cargo run -p ia-conform -- --replay file.conf`.
//! 5. [`soundness`] — cross-validation of the `ia-analyze` static
//!    analyzer: the trap numbers a program actually issues must be a
//!    subset of its statically inferred footprint, for every seed.
//!
//! [`mutant`] holds deliberately broken agents proving the oracle and
//! shrinker actually work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod flight;
pub mod flowsound;
pub mod gen;
pub mod mutant;
pub mod oracle;
pub mod shrink;
pub mod soundness;
pub mod trace;
pub mod tree;

pub use fault::{check_faults, fault_schedule, run_fault_case, FaultCase, FaultInjector};
pub use fleet::{check_fleet, FleetStats};
pub use flowsound::{check_flow_faults, check_flow_soundness, flow_spec, static_flows};
pub use gen::{sample, ConfOp, OpSet, Program};
pub use oracle::{
    check_client_equiv, check_program, run_config, run_config_full, run_stack, run_stack_full,
    run_world, world, Observation, StackKind,
};
pub use shrink::shrink;
pub use soundness::{check_soundness, static_footprint, SyscallRecorder};
pub use trace::Repro;
pub use tree::{check_tree, run_tree_case, TreeCase, TreeStats};
