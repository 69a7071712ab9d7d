//! # ia-vfs — the in-memory 4.3BSD-style filesystem substrate
//!
//! The paper's agents manipulate filesystem abstractions (pathnames,
//! directories, files, symbolic links, pipes, devices, permissions), so the
//! reproduction needs a kernel filesystem for the simulated kernel to serve.
//! This crate provides one: an in-memory UFS-shaped tree with
//!
//! * inodes for regular files, directories, symbolic links, character
//!   devices, FIFOs and sockets,
//! * hard links with link counting and deferred reclamation (an unlinked
//!   file survives while the kernel holds it open),
//! * owner/group/other permission bits checked against credentials,
//! * full path resolution with `..`, symlink following and `ELOOP` limits,
//! * pipe buffers shared by `pipe(2)` descriptors and named FIFOs.
//!
//! The crate is deliberately *clock-free* and *process-free*: callers pass
//! in the current [`ia_abi::Timeval`] and their credentials, making every
//! operation deterministic and independently testable. The kernel crate
//! layers open files, descriptors and blocking semantics on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod fs;
pub mod inode;
pub mod path;
pub mod pipe;
pub mod pstore;

pub use digest::Digest;
pub use fs::{Fs, FsSnapshot, FsStats, Resolved};
pub use inode::{Cred, Ino, Inode, InodeKind, NodeMeta};
pub use path::{is_absolute, join, normalize, split_components};
pub use pipe::{Pipe, PipeId, PipeTable, PIPE_CAPACITY};
pub use pstore::{FileContent, PVec, CHUNK_SIZE};
