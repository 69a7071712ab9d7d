//! The `searchpath` agent — the motivating example from §1.4: "the
//! ability to mount a search list of directories in the filesystem name
//! space".
//!
//! Names under a virtual directory resolve against an ordered list of real
//! directories, first hit wins. Unlike [`crate::union_agent`], listings
//! are *not* merged — this is the lighter agent you want for `$PATH`-style
//! lookup, and a demonstration of the paper's appropriate-code-size goal:
//! the whole agent is one `getpn` override.

use ia_abi::{Stat, Sysno};
use ia_kernel::SysOutcome;
use ia_toolkit::{
    DefaultPathname, FsAgent, PathIntent, Pathname, PathnameSet, Scratch, SymCtx, Symbolic,
};

use crate::union_agent::UnionMount;

/// The search-list pathname-set.
#[derive(Debug, Clone, Default)]
pub struct SearchSet {
    /// Mounts, longest virtual prefix first.
    pub mounts: Vec<UnionMount>,
}

impl SearchSet {
    fn exists(ctx: &mut SymCtx<'_, '_>, scratch: &Scratch, path: &[u8]) -> bool {
        let Ok(addr) = scratch.write_cstr(ctx, path) else {
            return false;
        };
        let Ok(st) = scratch.reserve(ctx, <Stat as ia_abi::wire::Wire>::WIRE_SIZE) else {
            return false;
        };
        matches!(
            ctx.down_args(Sysno::Stat, [addr, st, 0, 0, 0, 0]),
            SysOutcome::Done(Ok(_))
        )
    }
}

impl PathnameSet for SearchSet {
    fn set_name(&self) -> &'static str {
        "searchpath"
    }

    fn init(&mut self, _ctx: &mut SymCtx<'_, '_>, args: &[Vec<u8>]) {
        for a in args {
            if let Some(m) = UnionMount::parse(a) {
                self.mounts.push(m);
            }
        }
        self.mounts
            .sort_by_key(|m| std::cmp::Reverse(m.virtual_dir.len()));
    }

    fn getpn(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        path: &[u8],
        intent: PathIntent,
        scratch: &Scratch,
    ) -> Box<dyn Pathname> {
        for m in &self.mounts {
            let Some(suffix) = m.suffix_of(path) else {
                continue;
            };
            if suffix.is_empty() {
                // The virtual dir itself: alias of the first member.
                return Box::new(DefaultPathname::new(m.members[0].clone(), scratch.clone()));
            }
            let candidates: Vec<Vec<u8>> = m
                .members
                .iter()
                .map(|mem| {
                    let mut p = mem.clone();
                    p.push(b'/');
                    p.extend_from_slice(suffix);
                    p
                })
                .collect();
            let chosen = match intent {
                PathIntent::Create => candidates[0].clone(),
                _ => candidates
                    .iter()
                    .find(|c| Self::exists(ctx, scratch, c))
                    .cloned()
                    .unwrap_or_else(|| candidates[0].clone()),
            };
            return Box::new(DefaultPathname::new(chosen, scratch.clone()));
        }
        Box::new(DefaultPathname::new(path, scratch.clone()))
    }
}

/// The ready-to-load search-path agent.
pub struct SearchPathAgent;

impl SearchPathAgent {
    /// Builds from mount specs (`/virtual=/a:/b`).
    #[must_use]
    pub fn boxed(specs: &[&[u8]]) -> Box<Symbolic<FsAgent<SearchSet>>> {
        let mut set = SearchSet::default();
        for s in specs {
            if let Some(m) = UnionMount::parse(s) {
                set.mounts.push(m);
            }
        }
        set.mounts
            .sort_by_key(|m| std::cmp::Reverse(m.virtual_dir.len()));
        Box::new(Symbolic::new(FsAgent::new("searchpath", set)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    #[test]
    fn first_member_with_the_file_wins() {
        let src = r#"
            .data
            path: .asciz "/pathdir/tool"
            buf:  .space 16
            .text
            main:
                la r0, path
                li r1, 0
                li r2, 0
                sys open
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
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/first").unwrap();
        k.mkdir_p(b"/second").unwrap();
        // Only the second member has the tool.
        k.write_file(b"/second/tool", b"from-second").unwrap();
        let pid = k.spawn_image(&img, &[b"c"], b"c");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(
            &mut k,
            pid,
            SearchPathAgent::boxed(&[b"/pathdir=/first:/second"]),
        );
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "from-second");

        // Add it to the first member: priority flips.
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/first").unwrap();
        k.mkdir_p(b"/second").unwrap();
        k.write_file(b"/first/tool", b"from-first!").unwrap();
        k.write_file(b"/second/tool", b"from-second").unwrap();
        let pid = k.spawn_image(&img, &[b"c"], b"c");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(
            &mut k,
            pid,
            SearchPathAgent::boxed(&[b"/pathdir=/first:/second"]),
        );
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        assert_eq!(k.console.output_string(), "from-first!");
    }

    #[test]
    fn creations_land_in_the_first_member() {
        let src = r#"
            .data
            path: .asciz "/pathdir/new.txt"
            text: .asciz "x"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                mov r0, r3
                la r1, text
                li r2, 1
                sys write
                mov r0, r3
                sys close
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/first").unwrap();
        k.mkdir_p(b"/second").unwrap();
        let pid = k.spawn_image(&img, &[b"c"], b"c");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(
            &mut k,
            pid,
            SearchPathAgent::boxed(&[b"/pathdir=/first:/second"]),
        );
        k.run_with(&mut router);
        assert_eq!(k.read_file(b"/first/new.txt").unwrap(), b"x");
        assert!(k.read_file(b"/second/new.txt").is_err());
    }
}
