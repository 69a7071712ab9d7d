//! The `crypt` agent — "transparent data ... encryption agents" (§1.4,
//! abstract).
//!
//! Files under a configured subtree are stored enciphered; clients read
//! and write plaintext. The cipher is a positional XOR stream (an
//! involution: encrypt = decrypt), chosen so any byte range can be
//! transformed independently — which is exactly what an interposing
//! [`OpenObject`] needs, since clients read and write at arbitrary
//! offsets.

use ia_abi::wire::Wire;
use ia_abi::{Errno, OpenFlags, Stat, Sysno, Whence};
use ia_kernel::SysOutcome;
use ia_toolkit::{
    obj_ref, DefaultPathname, FsAgent, ObjRef, OpenObject, PathIntent, Pathname, PathnameSet,
    Scratch, SymCtx, Symbolic,
};

/// Applies the keystream to `data` starting at file position `pos`.
pub fn apply_keystream(key: &[u8], pos: u64, data: &mut [u8]) {
    assert!(!key.is_empty(), "empty key");
    for (i, b) in data.iter_mut().enumerate() {
        let p = pos + i as u64;
        let k = key[(p % key.len() as u64) as usize];
        // Mix the block index in so repeating plaintext doesn't repeat.
        let salt = ((p / key.len() as u64) & 0xff) as u8;
        *b ^= k ^ salt;
    }
}

/// The encrypting pathname-set: configuration lives here.
#[derive(Debug, Clone)]
pub struct CryptSet {
    /// Subtree whose files are enciphered at rest.
    pub prefix: Vec<u8>,
    /// Cipher key.
    pub key: Vec<u8>,
}

impl PathnameSet for CryptSet {
    fn set_name(&self) -> &'static str {
        "crypt"
    }

    fn getpn(
        &mut self,
        _ctx: &mut SymCtx<'_, '_>,
        path: &[u8],
        _intent: PathIntent,
        scratch: &Scratch,
    ) -> Box<dyn Pathname> {
        let under = path == self.prefix.as_slice()
            || (path.starts_with(&self.prefix) && path.get(self.prefix.len()) == Some(&b'/'));
        if under {
            Box::new(CryptPathname {
                inner: DefaultPathname::new(path, scratch.clone()),
                key: self.key.clone(),
            })
        } else {
            Box::new(DefaultPathname::new(path, scratch.clone()))
        }
    }
}

struct CryptPathname {
    inner: DefaultPathname,
    key: Vec<u8>,
}

impl Pathname for CryptPathname {
    fn path(&self) -> &[u8] {
        self.inner.path()
    }
    fn scratch(&self) -> &Scratch {
        self.inner.scratch()
    }
    fn clone_pathname(&self) -> Box<dyn Pathname> {
        Box::new(CryptPathname {
            inner: self.inner.clone(),
            key: self.key.clone(),
        })
    }

    fn open(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        flags: u64,
        mode: u64,
    ) -> (SysOutcome, Option<ObjRef>) {
        let (out, _) = self.inner.open(ctx, flags, mode);
        let obj = match out {
            SysOutcome::Done(Ok(_)) => Some(obj_ref(CryptObject {
                key: self.key.clone(),
                pos: 0,
                append: OpenFlags::new(flags as u32).has(OpenFlags::O_APPEND),
                scratch: self.inner.scratch().clone(),
            })),
            _ => None,
        };
        (out, obj)
    }
}

/// The transforming open object: tracks the logical file position and
/// XORs data on the way through.
struct CryptObject {
    key: Vec<u8>,
    pos: u64,
    /// `O_APPEND`: the kernel writes at end-of-file regardless of `pos`,
    /// so the keystream offset must come from the live file size.
    append: bool,
    scratch: Scratch,
}

impl CryptObject {
    /// Current size of the underlying file, via an `fstat` downcall.
    fn file_size(&self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> Result<u64, Errno> {
        let statbuf = self.scratch.write(ctx, &[0u8; Stat::WIRE_SIZE])?;
        match ctx.down_args(Sysno::Fstat, [fd, statbuf, 0, 0, 0, 0]) {
            SysOutcome::Done(Ok(_)) => Ok(ctx.read_struct::<Stat>(statbuf)?.size),
            SysOutcome::Done(Err(e)) => Err(e),
            _ => Err(Errno::EIO),
        }
    }
}

impl OpenObject for CryptObject {
    fn obj_name(&self) -> &'static str {
        "crypt-object"
    }

    fn read(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        let out = ctx.down_args(Sysno::Read, [fd, buf, nbyte, 0, 0, 0]);
        if let SysOutcome::Done(Ok([n, _])) = out {
            if n > 0 {
                // Decipher in place in the client's buffer.
                if let Ok(mut data) = ctx.read_bytes(buf, n as usize) {
                    apply_keystream(&self.key, self.pos, &mut data);
                    let _ = ctx.write_bytes(buf, &data);
                }
            }
            self.pos += n;
        }
        out
    }

    fn write(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        // Encipher into scratch; the client's buffer must stay plaintext.
        let mut data = match ctx.read_bytes(buf, nbyte as usize) {
            Ok(d) => d,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        // Appending writes land at end-of-file, not at the tracked
        // position, so key the stream off the live size there.
        let pos = if self.append {
            match self.file_size(ctx, fd) {
                Ok(sz) => sz,
                Err(e) => return SysOutcome::Done(Err(e)),
            }
        } else {
            self.pos
        };
        apply_keystream(&self.key, pos, &mut data);
        let staged = match self.scratch.write(ctx, &data) {
            Ok(a) => a,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        let out = ctx.down_args(Sysno::Write, [fd, staged, nbyte, 0, 0, 0]);
        if let SysOutcome::Done(Ok([n, _])) = out {
            self.pos = pos + n;
        }
        out
    }

    fn lseek(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, offset: u64, whence: u64) -> SysOutcome {
        let out = ctx.down_args(Sysno::Lseek, [fd, offset, whence, 0, 0, 0]);
        if let SysOutcome::Done(Ok([newpos, _])) = out {
            self.pos = newpos;
        } else if whence == u64::from(Whence::Set.to_u32()) {
            self.pos = offset;
        }
        out
    }

    fn clone_object(&self) -> Box<dyn OpenObject> {
        Box::new(CryptObject {
            key: self.key.clone(),
            pos: self.pos,
            append: self.append,
            scratch: self.scratch.deep_clone(),
        })
    }
}

/// The ready-to-load encrypting agent.
pub struct CryptAgent;

impl CryptAgent {
    /// Enciphers everything under `prefix` with `key`.
    #[must_use]
    pub fn boxed(prefix: &[u8], key: &[u8]) -> Box<Symbolic<FsAgent<CryptSet>>> {
        Box::new(Symbolic::new(FsAgent::new(
            "crypt",
            CryptSet {
                prefix: prefix.to_vec(),
                key: key.to_vec(),
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    #[test]
    fn keystream_is_an_involution_and_offset_stable() {
        let key = b"secret";
        let mut data = b"the quick brown fox".to_vec();
        apply_keystream(key, 100, &mut data);
        assert_ne!(data, b"the quick brown fox");
        apply_keystream(key, 100, &mut data);
        assert_eq!(data, b"the quick brown fox");

        // Transforming in two halves equals transforming at once.
        let mut whole = b"abcdefgh".to_vec();
        apply_keystream(key, 40, &mut whole);
        let mut parts = b"abcdefgh".to_vec();
        apply_keystream(key, 40, &mut parts[..3]);
        apply_keystream(key, 43, &mut parts[3..]);
        assert_eq!(whole, parts);
    }

    const WRITER_READER: &str = r#"
        .data
        path: .asciz "/vault/secret.txt"
        text: .asciz "attack at dawn"
        buf:  .space 32
        .text
        main:
            la r0, path
            li r1, 0x601
            li r2, 420
            sys open
            mov r3, r0
            mov r0, r3
            la r1, text
            li r2, 14
            sys write
            mov r0, r3
            sys close
            la r0, path
            li r1, 0
            li r2, 0
            sys open
            mov r3, r0
            mov r0, r3
            la r1, buf
            li r2, 32
            sys read
            mov r2, r0
            li r0, 1
            la r1, buf
            sys write
            li r0, 0
            sys exit
    "#;

    #[test]
    fn client_sees_plaintext_disk_holds_ciphertext() {
        let img = ia_vm::assemble(WRITER_READER).unwrap();
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/vault").unwrap();
        let pid = k.spawn_image(&img, &[b"c"], b"c");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, CryptAgent::boxed(b"/vault", b"k3y!"));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);

        assert_eq!(k.console.output_string(), "attack at dawn");
        let at_rest = k.read_file(b"/vault/secret.txt").unwrap();
        assert_eq!(at_rest.len(), 14);
        assert_ne!(at_rest, b"attack at dawn", "ciphertext at rest");
        let mut deciphered = at_rest;
        apply_keystream(b"k3y!", 0, &mut deciphered);
        assert_eq!(deciphered, b"attack at dawn");
    }

    #[test]
    fn files_outside_prefix_untouched() {
        let src = r#"
            .data
            path: .asciz "/tmp/clear.txt"
            text: .asciz "plain"
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                mov r0, r3
                la r1, text
                li r2, 5
                sys write
                mov r0, r3
                sys close
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let pid = k.spawn_image(&img, &[b"c"], b"c");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, CryptAgent::boxed(b"/vault", b"k3y!"));
        k.run_with(&mut router);
        assert_eq!(k.read_file(b"/tmp/clear.txt").unwrap(), b"plain");
    }
}
