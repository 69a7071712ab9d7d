//! The `zip` agent — "transparent data compression" (§1.4) and an example
//! of "logical devices implemented entirely in user space".
//!
//! Files under a configured subtree are stored run-length encoded. On
//! open, the agent inflates the file into an agent-side buffer; reads and
//! writes are served *from the agent* with no downcalls for data at all —
//! the open object is a logical device living in user space. On final
//! close of a dirty file, the buffer is deflated and written back.

use ia_abi::{Errno, OpenFlags, Stat, Sysno, Whence};
use ia_kernel::SysOutcome;
use ia_toolkit::{
    obj_ref, DefaultPathname, FsAgent, ObjRef, OpenObject, PathIntent, Pathname, PathnameSet,
    Scratch, SymCtx, Symbolic,
};

/// Escape byte for the RLE format.
const ESC: u8 = 0xFE;

/// Run-length encodes `data`: runs of four or more identical bytes become
/// `[ESC, len, byte]`; a literal `ESC` becomes `[ESC, 0, ESC]`.
#[must_use]
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        if run >= 4 || (b == ESC && run >= 1) {
            out.push(ESC);
            out.push(run as u8);
            out.push(b);
        } else {
            for _ in 0..run {
                out.push(b);
            }
        }
        i += run;
    }
    out
}

/// Inverse of [`rle_compress`].
pub fn rle_decompress(data: &[u8]) -> Result<Vec<u8>, Errno> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        if data[i] == ESC {
            if i + 2 >= data.len() {
                return Err(Errno::EIO);
            }
            let n = data[i + 1];
            let b = data[i + 2];
            if n == 0 {
                out.push(b);
            } else {
                out.extend(std::iter::repeat_n(b, n as usize));
            }
            i += 3;
        } else {
            out.push(data[i]);
            i += 1;
        }
    }
    Ok(out)
}

/// The compressing pathname-set.
#[derive(Debug, Clone)]
pub struct ZipSet {
    /// Subtree whose files are stored compressed.
    pub prefix: Vec<u8>,
}

impl PathnameSet for ZipSet {
    fn set_name(&self) -> &'static str {
        "zip"
    }

    fn getpn(
        &mut self,
        _ctx: &mut SymCtx<'_, '_>,
        path: &[u8],
        _intent: PathIntent,
        scratch: &Scratch,
    ) -> Box<dyn Pathname> {
        let under = path.starts_with(&self.prefix)
            && (path.len() == self.prefix.len() || path.get(self.prefix.len()) == Some(&b'/'));
        if under {
            Box::new(ZipPathname {
                inner: DefaultPathname::new(path, scratch.clone()),
            })
        } else {
            Box::new(DefaultPathname::new(path, scratch.clone()))
        }
    }
}

struct ZipPathname {
    inner: DefaultPathname,
}

impl Pathname for ZipPathname {
    fn path(&self) -> &[u8] {
        self.inner.path()
    }
    fn scratch(&self) -> &Scratch {
        self.inner.scratch()
    }
    fn clone_pathname(&self) -> Box<dyn Pathname> {
        Box::new(ZipPathname {
            inner: self.inner.clone(),
        })
    }

    fn open(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        flags: u64,
        mode: u64,
    ) -> (SysOutcome, Option<ObjRef>) {
        // The underlying file needs read+write access for inflate and
        // write-back regardless of the client's access mode.
        let fl = OpenFlags::new(flags as u32);
        let mut under_flags = flags & !u64::from(OpenFlags::O_ACCMODE);
        under_flags |= u64::from(OpenFlags::O_RDWR);
        let (out, _) = self.inner.open(ctx, under_flags, mode);
        let SysOutcome::Done(Ok([fd, _])) = out else {
            return (out, None);
        };
        // Inflate the current contents through downcalls.
        let mut packed = Vec::new();
        let scratch = self.inner.scratch().clone();
        if !fl.has(OpenFlags::O_TRUNC) {
            let Ok(buf) = scratch.reserve(ctx, 1024) else {
                return (SysOutcome::Done(Err(Errno::ENOMEM)), None);
            };
            loop {
                match ctx.down_args(Sysno::Read, [fd, buf, 1024, 0, 0, 0]) {
                    SysOutcome::Done(Ok([0, _])) => break,
                    SysOutcome::Done(Ok([n, _])) => {
                        if let Ok(chunk) = ctx.read_bytes(buf, n as usize) {
                            packed.extend(chunk);
                        }
                    }
                    SysOutcome::Done(Err(e)) => return (SysOutcome::Done(Err(e)), None),
                    other => return (other, None),
                }
            }
        }
        let data = match rle_decompress(&packed) {
            Ok(d) => d,
            Err(e) => return (SysOutcome::Done(Err(e)), None),
        };
        let obj = obj_ref(ZipObject {
            data,
            pos: if fl.has(OpenFlags::O_APPEND) {
                u64::MAX
            } else {
                0
            },
            dirty: false,
            readable: fl.readable(),
            writable: fl.writable(),
            scratch,
        });
        (SysOutcome::Done(Ok([fd, 0])), Some(obj))
    }
}

/// The in-agent logical file: all data lives here between open and close.
struct ZipObject {
    data: Vec<u8>,
    /// Logical position; `u64::MAX` means "append".
    pos: u64,
    dirty: bool,
    readable: bool,
    writable: bool,
    scratch: Scratch,
}

impl ZipObject {
    fn cur(&self) -> u64 {
        if self.pos == u64::MAX {
            self.data.len() as u64
        } else {
            self.pos
        }
    }
}

impl OpenObject for ZipObject {
    fn obj_name(&self) -> &'static str {
        "zip-object"
    }

    fn read(&mut self, ctx: &mut SymCtx<'_, '_>, _fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        if !self.readable {
            return SysOutcome::Done(Err(Errno::EBADF));
        }
        let pos = self.cur() as usize;
        if pos >= self.data.len() {
            return SysOutcome::Done(Ok([0, 0]));
        }
        let n = (nbyte as usize).min(self.data.len() - pos);
        if let Err(e) = ctx.write_bytes(buf, &self.data[pos..pos + n]) {
            return SysOutcome::Done(Err(e));
        }
        self.pos = (pos + n) as u64;
        SysOutcome::Done(Ok([n as u64, 0]))
    }

    fn write(&mut self, ctx: &mut SymCtx<'_, '_>, _fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        if !self.writable {
            return SysOutcome::Done(Err(Errno::EBADF));
        }
        let data = match ctx.read_bytes(buf, nbyte as usize) {
            Ok(d) => d,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        let pos = self.cur() as usize;
        if pos + data.len() > self.data.len() {
            self.data.resize(pos + data.len(), 0);
        }
        self.data[pos..pos + data.len()].copy_from_slice(&data);
        self.pos = (pos + data.len()) as u64;
        self.dirty = true;
        SysOutcome::Done(Ok([data.len() as u64, 0]))
    }

    fn lseek(
        &mut self,
        _ctx: &mut SymCtx<'_, '_>,
        _fd: u64,
        offset: u64,
        whence: u64,
    ) -> SysOutcome {
        let base = match Whence::from_u32(whence as u32) {
            Ok(Whence::Set) => 0,
            Ok(Whence::Cur) => self.cur() as i64,
            Ok(Whence::End) => self.data.len() as i64,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        let new = base + offset as i64;
        if new < 0 {
            return SysOutcome::Done(Err(Errno::EINVAL));
        }
        self.pos = new as u64;
        SysOutcome::Done(Ok([new as u64, 0]))
    }

    fn ftruncate(&mut self, _ctx: &mut SymCtx<'_, '_>, _fd: u64, length: u64) -> SysOutcome {
        if !self.writable {
            return SysOutcome::Done(Err(Errno::EINVAL));
        }
        self.data.resize(length as usize, 0);
        self.dirty = true;
        SysOutcome::Done(Ok([0, 0]))
    }

    fn fstat(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, statbuf: u64) -> SysOutcome {
        // Report the *logical* size, not the compressed size.
        let out = ctx.down_args(Sysno::Fstat, [fd, statbuf, 0, 0, 0, 0]);
        if let SysOutcome::Done(Ok(_)) = out {
            if let Ok(mut st) = ctx.read_struct::<Stat>(statbuf) {
                st.size = self.data.len() as u64;
                let _ = ctx.write_struct(statbuf, &st);
            }
        }
        out
    }

    fn close(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> SysOutcome {
        if self.dirty {
            let packed = rle_compress(&self.data);
            let _ = ctx.down_args(Sysno::Ftruncate, [fd, 0, 0, 0, 0, 0]);
            let _ = ctx.down_args(Sysno::Lseek, [fd, 0, 0, 0, 0, 0]);
            let mut off = 0;
            while off < packed.len() {
                let chunk = &packed[off..(off + 1024).min(packed.len())];
                let Ok(addr) = self.scratch.write(ctx, chunk) else {
                    break;
                };
                match ctx.down_args(Sysno::Write, [fd, addr, chunk.len() as u64, 0, 0, 0]) {
                    SysOutcome::Done(Ok([n, _])) if n > 0 => off += n as usize,
                    _ => break,
                }
                self.scratch.reset();
            }
        }
        ctx.down_args(Sysno::Close, [fd, 0, 0, 0, 0, 0])
    }

    fn clone_object(&self) -> Box<dyn OpenObject> {
        Box::new(ZipObject {
            data: self.data.clone(),
            pos: self.pos,
            dirty: self.dirty,
            readable: self.readable,
            writable: self.writable,
            scratch: self.scratch.deep_clone(),
        })
    }
}

/// The ready-to-load compressing agent.
pub struct ZipAgent;

impl ZipAgent {
    /// Compresses everything under `prefix`.
    #[must_use]
    pub fn boxed(prefix: &[u8]) -> Box<Symbolic<FsAgent<ZipSet>>> {
        Box::new(Symbolic::new(FsAgent::new(
            "zip",
            ZipSet {
                prefix: prefix.to_vec(),
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
    fn rle_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            b"abc".to_vec(),
            vec![7; 1000],
            b"aaaabbbbccccd".to_vec(),
            vec![ESC, ESC, ESC],
            (0..=255u8).collect(),
            vec![0xFE, 4, 1, 0xFE],
        ];
        for c in cases {
            let packed = rle_compress(&c);
            assert_eq!(rle_decompress(&packed).unwrap(), c, "case {c:?}");
        }
        // Long runs actually shrink.
        assert!(rle_compress(&vec![0u8; 4096]).len() < 100);
        // Truncated stream is an error, not a panic.
        assert!(rle_decompress(&[ESC]).is_err());
        assert!(rle_decompress(&[ESC, 5]).is_err());
    }

    #[test]
    fn transparent_compression_round_trip() {
        let src = r#"
            .data
            path: .asciz "/arch/blob.bin"
            buf:  .space 64
            .text
            main:
                la r0, path
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                ; write 48 'x' bytes (compressible)
                la  r1, buf
                li  r5, 48
                li  r6, 120     ; 'x'
                mov r10, r1
            fill:
                jz  r5, wr
                stb r6, (r10)
                addi r10, r10, 1
                addi r5, r5, -1
                jmp fill
            wr:
                mov r0, r3
                la  r1, buf
                li  r2, 48
                sys write
                mov r0, r3
                sys close
                ; read it back
                la r0, path
                li r1, 0
                li r2, 0
                sys open
                mov r3, r0
                mov r0, r3
                la r1, buf
                li r2, 64
                sys read
                mov r2, r0
                li r0, 1
                la r1, buf
                sys write
                mov r0, r3
                sys close
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        k.mkdir_p(b"/arch").unwrap();
        let pid = k.spawn_image(&img, &[b"z"], b"z");
        let mut router = InterposedRouter::new();
        ia_interpose::push_agent(&mut k, pid, ZipAgent::boxed(b"/arch"));
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);

        assert_eq!(k.console.output_string(), "x".repeat(48));
        let at_rest = k.read_file(b"/arch/blob.bin").unwrap();
        assert!(
            at_rest.len() < 48,
            "stored compressed ({} bytes)",
            at_rest.len()
        );
        assert_eq!(rle_decompress(&at_rest).unwrap(), vec![b'x'; 48]);
    }
}
