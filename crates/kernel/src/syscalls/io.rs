//! Descriptor I/O system calls.

use std::borrow::Cow;
use std::collections::BTreeMap;

use ia_abi::signal::Signal;
use ia_abi::types::IoVec;
use ia_abi::{Errno, FcntlCmd, OpenFlags, RawArgs, Timeval, Whence};
use ia_vfs::pipe::PipeIo;
use ia_vfs::{Ino, InodeKind};

use super::{done, SysOutcome};
use crate::console::DevRead;
use crate::files::{FdEntry, FileKind};
use crate::kernel::{Kernel, WakeEvent};
use crate::process::{Pid, Process, WaitChannel};
use crate::socket::SockState;

/// Upper bound on a single transfer, to keep simulated buffers sane.
const MAX_IO: usize = 1 << 20;

/// What a read found.
enum ReadOut {
    Ready(Data),
    Block(WaitChannel),
}

/// The bytes a read found, still where it found them.
enum Data {
    /// Bytes taken from a pipe, socket or device.
    Bytes(Vec<u8>),
    /// `len` bytes of regular file `ino` from `off`, copied to the caller
    /// straight from the file's chunks.
    File { ino: Ino, off: usize, len: usize },
}

impl Data {
    fn len(&self) -> usize {
        match self {
            Data::Bytes(d) => d.len(),
            Data::File { len, .. } => *len,
        }
    }
}

/// What a write did.
enum WriteOut {
    Wrote(usize),
    Block(WaitChannel),
}

/// Where the bytes of a write come from.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// `len` bytes of the caller's memory at `addr` (`write`), copied to
    /// the file, pipe or device straight from there.
    Guest { addr: u64, len: usize },
    /// Bytes already gathered (`writev`).
    Bytes(&'a [u8]),
}

impl<'a> Src<'a> {
    /// The bytes, borrowed from `pid`'s memory where they lie in one
    /// segment. A field borrow, so the caller may hold the filesystem or
    /// the console mutably meanwhile.
    fn bytes<'m>(
        self,
        procs: &'m BTreeMap<Pid, Box<Process>>,
        pid: Pid,
    ) -> Result<Cow<'m, [u8]>, Errno>
    where
        'a: 'm,
    {
        match self {
            Src::Guest { addr, len } => procs
                .get(&pid)
                .ok_or(Errno::ESRCH)?
                .mem
                .read_bytes(addr, len),
            Src::Bytes(b) => Ok(Cow::Borrowed(b)),
        }
    }
}

impl Kernel {
    /// Resolves the pipe a connected socket reads from / writes to.
    fn sock_pipes(
        &self,
        sid: crate::files::SockId,
    ) -> Result<(ia_vfs::PipeId, ia_vfs::PipeId), Errno> {
        match self.sockets.get(sid)?.state {
            SockState::Connected { rx, tx } => Ok((rx, tx)),
            _ => Err(Errno::ENOTCONN),
        }
    }

    /// Takes a read's bookkeeping (offset, clock, `inblock`, atime) and
    /// finds its bytes; the caller copies them out.
    fn do_read(&mut self, pid: Pid, fd: u64, len: usize) -> Result<ReadOut, Errno> {
        let len = len.min(MAX_IO);
        let entry = self.proc(pid)?.fds.get(fd)?;
        let file = self.files.get(entry.file)?;
        if !file.flags.readable() {
            return Err(Errno::EBADF);
        }
        let (kind, flags, offset) = (file.kind, file.flags, file.offset);
        match kind {
            FileKind::Vnode(ino) => {
                let n = match &self.fs.get(ino)?.kind {
                    InodeKind::Directory(_) => return Err(Errno::EISDIR),
                    InodeKind::Regular(data) => data.readable(offset as usize, len),
                    _ => return Err(Errno::EINVAL),
                };
                let now = self.clock.now();
                self.fs.accessed(ino, now)?;
                self.files.get_mut(entry.file)?.offset = offset + n as u64;
                self.clock.advance_ns(n as u64 * self.profile.io_byte_ns());
                self.proc_mut(pid)?.usage.inblock += 1;
                Ok(ReadOut::Ready(Data::File {
                    ino,
                    off: offset as usize,
                    len: n,
                }))
            }
            FileKind::PipeRead(id) => self.pipe_read(id, len, flags),
            FileKind::PipeWrite(_) => Err(Errno::EBADF),
            FileKind::Device(dev) => match self.console.device_read(dev, len)? {
                DevRead::Data(d) => Ok(ReadOut::Ready(Data::Bytes(d))),
                DevRead::WouldBlock => {
                    if flags.has(OpenFlags::O_NONBLOCK) {
                        Err(Errno::EWOULDBLOCK)
                    } else {
                        Ok(ReadOut::Block(WaitChannel::TtyInput))
                    }
                }
            },
            FileKind::Socket(sid) => {
                let (rx, _) = self.sock_pipes(sid)?;
                self.pipe_read(rx, len, flags)
            }
        }
    }

    /// Copies bytes `at..at + n` of what a read found into `pid`'s memory
    /// at `addr`. `EFAULT` leaves that memory untouched.
    fn copy_out(
        &mut self,
        pid: Pid,
        data: &Data,
        at: usize,
        addr: u64,
        n: usize,
    ) -> Result<(), Errno> {
        let mem = &mut self.procs.get_mut(&pid).ok_or(Errno::ESRCH)?.mem;
        match data {
            Data::Bytes(d) => mem.write_bytes(addr, &d[at..at + n]),
            Data::File { ino, off, .. } => {
                let file = self.fs.get(*ino)?.as_file().ok_or(Errno::EINVAL)?;
                file.read_into(off + at, mem.slice_mut(addr, n)?);
                Ok(())
            }
        }
    }

    fn pipe_read(
        &mut self,
        id: ia_vfs::PipeId,
        len: usize,
        flags: OpenFlags,
    ) -> Result<ReadOut, Errno> {
        let pipe = self.fs.pipes.get_mut(id).ok_or(Errno::EBADF)?;
        let mut out = Vec::new();
        match pipe.read(&mut out, len) {
            PipeIo::Done(_) => {
                self.wakeups.push(WakeEvent::Pipe(id));
                Ok(ReadOut::Ready(Data::Bytes(out)))
            }
            PipeIo::Hangup => Ok(ReadOut::Ready(Data::Bytes(Vec::new()))),
            PipeIo::WouldBlock => {
                if flags.has(OpenFlags::O_NONBLOCK) {
                    Err(Errno::EWOULDBLOCK)
                } else {
                    Ok(ReadOut::Block(WaitChannel::PipeReadable(id)))
                }
            }
        }
    }

    /// A write's whole transfer. A guest source faults `EFAULT` before the
    /// descriptor is looked at; otherwise its bytes go to their sink
    /// without an intermediate copy.
    fn do_write(&mut self, pid: Pid, fd: u64, src: Src<'_>) -> Result<WriteOut, Errno> {
        let p = self.proc(pid)?;
        if let Src::Guest { addr, len } = src {
            p.mem.check(addr, len)?;
        }
        let entry = p.fds.get(fd)?;
        let file = self.files.get(entry.file)?;
        if !file.flags.writable() {
            return Err(Errno::EBADF);
        }
        let (kind, flags, offset) = (file.kind, file.flags, file.offset);
        match kind {
            FileKind::Vnode(ino) => {
                let now = self.clock.now();
                let off = if flags.has(OpenFlags::O_APPEND) {
                    self.fs.get(ino)?.size()
                } else {
                    offset
                };
                let data = src.bytes(&self.procs, pid)?;
                let n = self.fs.write_at(ino, off, &data, now)?;
                self.files.get_mut(entry.file)?.offset = off + n as u64;
                self.clock.advance_ns(n as u64 * self.profile.io_byte_ns());
                self.proc_mut(pid)?.usage.oublock += 1;
                Ok(WriteOut::Wrote(n))
            }
            FileKind::PipeWrite(id) => self.pipe_write(pid, id, src, flags),
            FileKind::PipeRead(_) => Err(Errno::EBADF),
            FileKind::Device(dev) => {
                let data = src.bytes(&self.procs, pid)?;
                let n = self.console.device_write(dev, &data)?;
                self.proc_mut(pid)?.usage.oublock += 1;
                Ok(WriteOut::Wrote(n))
            }
            FileKind::Socket(sid) => {
                let (_, tx) = self.sock_pipes(sid)?;
                self.pipe_write(pid, tx, src, flags)
            }
        }
    }

    fn pipe_write(
        &mut self,
        pid: Pid,
        id: ia_vfs::PipeId,
        src: Src<'_>,
        flags: OpenFlags,
    ) -> Result<WriteOut, Errno> {
        let pipe = self.fs.pipes.get_mut(id).ok_or(Errno::EBADF)?;
        let put = pipe.write(&src.bytes(&self.procs, pid)?);
        match put {
            PipeIo::Done(n) => {
                self.wakeups.push(WakeEvent::Pipe(id));
                Ok(WriteOut::Wrote(n))
            }
            PipeIo::Hangup => {
                // Writing with no readers raises SIGPIPE and fails EPIPE.
                let _ = self.post_signal(pid, Signal::SIGPIPE);
                Err(Errno::EPIPE)
            }
            PipeIo::WouldBlock => {
                if flags.has(OpenFlags::O_NONBLOCK) {
                    Err(Errno::EWOULDBLOCK)
                } else {
                    Ok(WriteOut::Block(WaitChannel::PipeWritable(id)))
                }
            }
        }
    }

    /// `read(fd, buf, nbyte)`
    pub(crate) fn sys_read(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = match self.do_read(pid, args[0], args[2] as usize) {
            Ok(ReadOut::Ready(data)) => {
                let n = data.len();
                self.copy_out(pid, &data, 0, args[1], n)
                    .map(|()| [n as u64, 0])
            }
            Ok(ReadOut::Block(ch)) => return SysOutcome::Block(ch),
            Err(e) => Err(e),
        };
        done(r)
    }

    /// `write(fd, buf, nbyte)`
    pub(crate) fn sys_write(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let src = Src::Guest {
            addr: args[1],
            len: (args[2] as usize).min(MAX_IO),
        };
        match self.do_write(pid, args[0], src) {
            Ok(WriteOut::Wrote(n)) => SysOutcome::ok1(n as u64),
            Ok(WriteOut::Block(ch)) => SysOutcome::Block(ch),
            Err(e) => SysOutcome::err(e),
        }
    }

    fn read_iovecs(&self, pid: Pid, addr: u64, count: usize) -> Result<Vec<IoVec>, Errno> {
        if count > 16 {
            return Err(Errno::EINVAL);
        }
        let mem = &self.proc(pid)?.mem;
        let mut v = Vec::with_capacity(count);
        for i in 0..count {
            v.push(mem.read_struct::<IoVec>(addr + (i * 16) as u64)?);
        }
        Ok(v)
    }

    /// `readv(fd, iov, iovcnt)` — scatter read.
    pub(crate) fn sys_readv(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let iov = match self.read_iovecs(pid, args[1], args[2] as usize) {
            Ok(v) => v,
            Err(e) => return SysOutcome::err(e),
        };
        let total: usize = iov.iter().map(|v| v.len as usize).sum();
        let data = match self.do_read(pid, args[0], total.min(MAX_IO)) {
            Ok(ReadOut::Ready(data)) => data,
            Ok(ReadOut::Block(ch)) => return SysOutcome::Block(ch),
            Err(e) => return SysOutcome::err(e),
        };
        let mut off = 0usize;
        for v in &iov {
            if off >= data.len() {
                break;
            }
            let n = (v.len as usize).min(data.len() - off);
            if let Err(e) = self.copy_out(pid, &data, off, v.base, n) {
                return SysOutcome::err(e);
            }
            off += n;
        }
        SysOutcome::ok1(data.len() as u64)
    }

    /// `writev(fd, iov, iovcnt)` — gather write.
    pub(crate) fn sys_writev(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let iov = match self.read_iovecs(pid, args[1], args[2] as usize) {
            Ok(v) => v,
            Err(e) => return SysOutcome::err(e),
        };
        let mut data = Vec::new();
        for v in &iov {
            match self.proc(pid).and_then(|p| {
                p.mem
                    .read_bytes(v.base, (v.len as usize).min(MAX_IO - data.len()))
            }) {
                Ok(d) => data.extend_from_slice(&d),
                Err(e) => return SysOutcome::err(e),
            }
        }
        match self.do_write(pid, args[0], Src::Bytes(&data)) {
            Ok(WriteOut::Wrote(n)) => SysOutcome::ok1(n as u64),
            Ok(WriteOut::Block(ch)) => SysOutcome::Block(ch),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `lseek(fd, offset, whence)` → new offset
    pub(crate) fn sys_lseek(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            let file = self.files.get(entry.file)?;
            let whence = Whence::from_u32(args[2] as u32)?;
            let delta = args[1] as i64;
            match file.kind {
                FileKind::Vnode(ino) => {
                    let size = self.fs.get(ino)?.size();
                    let base = match whence {
                        Whence::Set => 0,
                        Whence::Cur => file.offset as i64,
                        Whence::End => size as i64,
                    };
                    let new = base + delta;
                    if new < 0 {
                        return Err(Errno::EINVAL);
                    }
                    self.files.get_mut(entry.file)?.offset = new as u64;
                    Ok([new as u64, 0])
                }
                FileKind::Device(_) => Ok([0, 0]),
                _ => Err(Errno::ESPIPE),
            }
        })();
        done(r)
    }

    /// `close(fd)`
    pub(crate) fn sys_close(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        match self.proc_mut(pid).and_then(|p| p.fds.remove(args[0])) {
            Ok(entry) => {
                self.release_file(entry.file);
                SysOutcome::ok()
            }
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `dup(fd)` → lowest free descriptor sharing the open file
    pub(crate) fn sys_dup(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            self.files.get(entry.file)?; // validate
            self.files.incref(entry.file);
            match self.proc_mut(pid)?.fds.alloc(
                0,
                FdEntry {
                    file: entry.file,
                    cloexec: false,
                },
            ) {
                Ok(fd) => Ok([fd, 0]),
                Err(e) => {
                    self.files.decref(entry.file);
                    Err(e)
                }
            }
        })();
        done(r)
    }

    /// `dup2(from, to)`
    pub(crate) fn sys_dup2(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            if args[0] == args[1] {
                return Ok([args[1], 0]);
            }
            self.files.incref(entry.file);
            let displaced = self.proc_mut(pid)?.fds.install(
                args[1],
                FdEntry {
                    file: entry.file,
                    cloexec: false,
                },
            );
            match displaced {
                Ok(old) => {
                    if let Some(o) = old {
                        self.release_file(o.file);
                    }
                    Ok([args[1], 0])
                }
                Err(e) => {
                    self.files.decref(entry.file);
                    Err(e)
                }
            }
        })();
        done(r)
    }

    /// `fcntl(fd, cmd, arg)`
    pub(crate) fn sys_fcntl(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let fd = args[0];
            let entry = self.proc(pid)?.fds.get(fd)?;
            match FcntlCmd::from_u32(args[1] as u32)? {
                FcntlCmd::DupFd => {
                    self.files.incref(entry.file);
                    match self.proc_mut(pid)?.fds.alloc(
                        args[2] as usize,
                        FdEntry {
                            file: entry.file,
                            cloexec: false,
                        },
                    ) {
                        Ok(nfd) => Ok([nfd, 0]),
                        Err(e) => {
                            self.files.decref(entry.file);
                            Err(e)
                        }
                    }
                }
                FcntlCmd::GetFd => Ok([u64::from(entry.cloexec), 0]),
                FcntlCmd::SetFd => {
                    self.proc_mut(pid)?.fds.set_cloexec(fd, args[2] & 1 != 0)?;
                    Ok([0, 0])
                }
                FcntlCmd::GetFl => Ok([u64::from(self.files.get(entry.file)?.flags.bits()), 0]),
                FcntlCmd::SetFl => {
                    let settable = OpenFlags::O_NONBLOCK | OpenFlags::O_APPEND;
                    let f = self.files.get_mut(entry.file)?;
                    f.flags =
                        OpenFlags::new((f.flags.bits() & !settable) | (args[2] as u32 & settable));
                    Ok([0, 0])
                }
            }
        })();
        done(r)
    }

    /// `pipe()` → (read fd, write fd) in the two return registers
    pub(crate) fn sys_pipe(&mut self, pid: Pid) -> SysOutcome {
        let r = (|| {
            let id = self.fs.pipes.create();
            self.fs.pipes.add_reader(id);
            self.fs.pipes.add_writer(id);
            let rfile = self
                .files
                .insert(FileKind::PipeRead(id), OpenFlags::new(OpenFlags::O_RDONLY));
            let wfile = self
                .files
                .insert(FileKind::PipeWrite(id), OpenFlags::new(OpenFlags::O_WRONLY));
            let p = self.proc_mut(pid)?;
            let rfd = p.fds.alloc(
                0,
                FdEntry {
                    file: rfile,
                    cloexec: false,
                },
            );
            let rfd = match rfd {
                Ok(fd) => fd,
                Err(e) => {
                    self.release_file(rfile);
                    self.release_file(wfile);
                    return Err(e);
                }
            };
            let wfd = match self.proc_mut(pid)?.fds.alloc(
                0,
                FdEntry {
                    file: wfile,
                    cloexec: false,
                },
            ) {
                Ok(fd) => fd,
                Err(e) => {
                    let entry = self.proc_mut(pid)?.fds.remove(rfd).expect("just allocated");
                    self.release_file(entry.file);
                    self.release_file(wfile);
                    return Err(e);
                }
            };
            Ok([rfd, wfd])
        })();
        done(r)
    }

    /// `getdirentries(fd, buf, nbytes, basep)` → bytes transferred
    pub(crate) fn sys_getdirentries(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            let file = self.files.get(entry.file)?;
            let FileKind::Vnode(ino) = file.kind else {
                return Err(Errno::EINVAL);
            };
            let entries = self.fs.readdir(ino)?; // ENOTDIR for non-dirs
            let start = file.offset;
            let cap = (args[2] as usize).min(MAX_IO);
            let mut out = Vec::new();
            let mut cursor = 0u64;
            for e in &entries {
                let reclen = e.reclen() as u64;
                if cursor >= start {
                    if out.len() + reclen as usize > cap {
                        break;
                    }
                    e.encode_to(&mut out);
                }
                cursor += reclen;
            }
            if out.is_empty() && cap < 512 && start < cursor {
                // Buffer too small for even one record.
                return Err(Errno::EINVAL);
            }
            let new_off = start + out.len() as u64;
            self.files.get_mut(entry.file)?.offset = new_off;
            let p = self.proc_mut(pid)?;
            p.mem.write_bytes(args[1], &out)?;
            if args[3] != 0 {
                p.mem.write_u64(args[3], start)?;
            }
            Ok([out.len() as u64, 0])
        })();
        done(r)
    }

    /// `ioctl(fd, request, argp)` — terminals answer, everything else is
    /// `ENOTTY`.
    pub(crate) fn sys_ioctl(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            match self.files.get(entry.file)?.kind {
                FileKind::Device(crate::console::DEV_TTY) => Ok([0, 0]),
                _ => Err(Errno::ENOTTY),
            }
        })();
        done(r)
    }

    /// `fsync(fd)` — everything is already "on disk"; validates the fd.
    pub(crate) fn sys_fsync(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let entry = self.proc(pid)?.fds.get(args[0])?;
            self.files.get(entry.file)?;
            Ok([0, 0])
        })();
        done(r)
    }

    /// `sbrk(incr)` → previous break
    pub(crate) fn sys_sbrk(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let r = (|| {
            let p = self.proc_mut(pid)?;
            let old = p.mem.sbrk(args[0] as i64)?;
            Ok([old, 0])
        })();
        done(r)
    }

    /// `getdtablesize()`
    pub(crate) fn sys_getdtablesize(&mut self, pid: Pid) -> SysOutcome {
        match self.proc(pid) {
            Ok(p) => SysOutcome::ok1(p.fds.size() as u64),
            Err(e) => SysOutcome::err(e),
        }
    }

    /// `select(nfds, readfds, writefds, exceptfds, timeout)`.
    ///
    /// Descriptor sets are 64-bit masks in process memory. Except-sets are
    /// accepted and always cleared (no exceptional conditions exist here).
    pub(crate) fn sys_select(&mut self, pid: Pid, args: &RawArgs) -> SysOutcome {
        let read_mask = |k: &Kernel, addr: u64| -> Result<u64, Errno> {
            if addr == 0 {
                Ok(0)
            } else {
                k.proc(pid)?.mem.read_u64(addr)
            }
        };
        let r: Result<SysOutcome, Errno> = (|| {
            let nfds = (args[0] as usize).min(64);
            let want_r = read_mask(self, args[1])?;
            let want_w = read_mask(self, args[2])?;
            let mut got_r = 0u64;
            let mut got_w = 0u64;
            for fd in 0..nfds as u64 {
                let bit = 1u64 << fd;
                if want_r & bit != 0 && self.fd_readable(pid, fd)? {
                    got_r |= bit;
                }
                if want_w & bit != 0 && self.fd_writable(pid, fd)? {
                    got_w |= bit;
                }
            }
            let count = got_r.count_ones() + got_w.count_ones();

            // Deadline management across restarts.
            let deadline = match self.proc(pid)?.select_deadline {
                Some(d) => d,
                None => {
                    let d = if args[4] == 0 {
                        u64::MAX
                    } else {
                        let tv = self.proc(pid)?.mem.read_struct::<Timeval>(args[4])?;
                        self.clock
                            .elapsed_ns()
                            .saturating_add((tv.as_micros().max(0) as u64) * 1_000)
                    };
                    self.proc_mut(pid)?.select_deadline = Some(d);
                    d
                }
            };

            if count > 0 || self.clock.elapsed_ns() >= deadline {
                let p = self.proc_mut(pid)?;
                p.select_deadline = None;
                if args[1] != 0 {
                    p.mem.write_u64(args[1], got_r)?;
                }
                if args[2] != 0 {
                    p.mem.write_u64(args[2], got_w)?;
                }
                if args[3] != 0 {
                    p.mem.write_u64(args[3], 0)?;
                }
                return Ok(SysOutcome::ok1(u64::from(count)));
            }
            Ok(SysOutcome::Block(WaitChannel::Select))
        })();
        match r {
            Ok(o) => o,
            Err(e) => {
                if let Ok(p) = self.proc_mut(pid) {
                    p.select_deadline = None;
                }
                SysOutcome::err(e)
            }
        }
    }

    fn fd_readable(&self, pid: Pid, fd: u64) -> Result<bool, Errno> {
        let entry = match self.proc(pid)?.fds.get(fd) {
            Ok(e) => e,
            Err(_) => return Ok(false),
        };
        let file = self.files.get(entry.file)?;
        Ok(match file.kind {
            FileKind::Vnode(_) => true,
            FileKind::PipeRead(id) => self
                .fs
                .pipes
                .get(id)
                .is_none_or(|p| !p.is_empty() || p.writers() == 0),
            FileKind::PipeWrite(_) => false,
            FileKind::Device(crate::console::DEV_TTY) => self.console.readable(),
            FileKind::Device(_) => true,
            FileKind::Socket(sid) => match self.sockets.get(sid)?.state {
                SockState::Connected { rx, .. } => self
                    .fs
                    .pipes
                    .get(rx)
                    .is_none_or(|p| !p.is_empty() || p.writers() == 0),
                SockState::Listening { .. } => self.sockets.acceptable(sid),
                _ => false,
            },
        })
    }

    fn fd_writable(&self, pid: Pid, fd: u64) -> Result<bool, Errno> {
        let entry = match self.proc(pid)?.fds.get(fd) {
            Ok(e) => e,
            Err(_) => return Ok(false),
        };
        let file = self.files.get(entry.file)?;
        Ok(match file.kind {
            FileKind::Vnode(_) | FileKind::Device(_) => true,
            FileKind::PipeWrite(id) => self
                .fs
                .pipes
                .get(id)
                .is_none_or(|p| p.space() > 0 || p.readers() == 0),
            FileKind::PipeRead(_) => false,
            FileKind::Socket(sid) => match self.sockets.get(sid)?.state {
                SockState::Connected { tx, .. } => self
                    .fs
                    .pipes
                    .get(tx)
                    .is_none_or(|p| p.space() > 0 || p.readers() == 0),
                _ => false,
            },
        })
    }
}
