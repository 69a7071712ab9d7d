//! The `dfs_trace` agent (§3.5.3) — file-reference tracing in the mould of
//! the Coda project's DFSTrace tools.
//!
//! The paper built this agent as the "best available equivalent" of a
//! kernel-based tracing facility: it records every file reference — opens
//! with flags and resulting descriptors, closes, name operations, seeks —
//! as timestamped records. The agent-based implementation "required no
//! modifications to existing code since inheritance was used to add
//! functionality": here, a recording [`Pathname`] wrapper and a recording
//! open object, with all actual behaviour inherited from the toolkit
//! defaults.
//!
//! Records accumulate in a host-visible log ([`DfsTraceHandle`]) and can
//! be serialized to a versioned binary stream ([`write_log`] /
//! [`read_log`]) or summarized ([`DfsTraceHandle::summary`]).

use std::sync::{Arc, Mutex};

use ia_abi::wire::{Dec, Enc};
use ia_abi::{Errno, Timeval};
use ia_kernel::SysOutcome;
use ia_toolkit::{
    obj_ref, DefaultPathname, FsAgent, ObjRef, OpenObject, PathIntent, Pathname, PathnameSet,
    Scratch, SymCtx, Symbolic,
};

/// Operation codes, after DFSTrace's record types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
#[repr(u8)]
pub enum TraceOp {
    Open = 1,
    Close = 2,
    Stat = 3,
    Lstat = 4,
    Access = 5,
    Chdir = 6,
    Unlink = 7,
    Rename = 8,
    Link = 9,
    Symlink = 10,
    Mkdir = 11,
    Rmdir = 12,
    Readlink = 13,
    Execve = 14,
    Truncate = 15,
    Chmod = 16,
    Chown = 17,
    Utimes = 18,
    Seek = 19,
    Mkfifo = 20,
    Mknod = 21,
    Chroot = 22,
    Read = 23,
    Write = 24,
}

impl TraceOp {
    fn from_u8(v: u8) -> Option<TraceOp> {
        use TraceOp::*;
        [
            Open, Close, Stat, Lstat, Access, Chdir, Unlink, Rename, Link, Symlink, Mkdir, Rmdir,
            Readlink, Execve, Truncate, Chmod, Chown, Utimes, Seek, Mkfifo, Mknod, Chroot, Read,
            Write,
        ]
        .into_iter()
        .find(|o| *o as u8 == v)
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time, seconds.
    pub sec: i64,
    /// Virtual time, microseconds.
    pub usec: i64,
    /// Operation.
    pub op: TraceOp,
    /// Primary pathname (empty for pure descriptor ops).
    pub path: Vec<u8>,
    /// Secondary pathname (rename/link targets).
    pub path2: Vec<u8>,
    /// Descriptor involved, if any.
    pub fd: i64,
    /// 0 on success, else the errno code.
    pub errno: u32,
    /// Transfer size or offset, where meaningful.
    pub amount: u64,
}

/// Log format magic ("DFSR") and version.
pub const LOG_MAGIC: u32 = 0x4446_5352;
/// Current log version.
pub const LOG_VERSION: u32 = 1;

/// Serializes records to the versioned binary log format.
#[must_use]
pub fn write_log(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = vec![0u8; 12];
    Enc::new(&mut out)
        .u32(LOG_MAGIC)
        .u32(LOG_VERSION)
        .u32(records.len() as u32);
    for r in records {
        let mut rec = vec![0u8; 8 + 8 + 1 + 4 + r.path.len() + 4 + r.path2.len() + 8 + 4 + 8];
        let mut e = Enc::new(&mut rec);
        e.i64(r.sec)
            .i64(r.usec)
            .u8(r.op as u8)
            .u32(r.path.len() as u32)
            .bytes(&r.path)
            .u32(r.path2.len() as u32)
            .bytes(&r.path2)
            .i64(r.fd)
            .u32(r.errno)
            .u64(r.amount);
        out.extend_from_slice(&rec);
    }
    out
}

/// Why a binary log failed to parse. A torn tail (host snapshot taken
/// mid-append) is distinguished from outright corruption, and the records
/// parsed intact before the tear are returned rather than dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The stream ends inside the 12-byte header.
    TruncatedHeader,
    /// The stream does not begin with [`LOG_MAGIC`].
    BadMagic(u32),
    /// The header's version is not [`LOG_VERSION`].
    BadVersion(u32),
    /// Record `index` (0-based) carries an op byte outside the vocabulary.
    BadOp {
        /// Which record.
        index: usize,
        /// The offending byte.
        op: u8,
    },
    /// The stream ends inside record `index`: a torn/truncated tail.
    /// `recovered` holds every record parsed intact before the tear.
    TruncatedRecord {
        /// Which record the stream tore inside.
        index: usize,
        /// The intact prefix.
        recovered: Vec<TraceRecord>,
    },
    /// All records parsed but `extra` bytes follow the last one — the
    /// header under-counts, so records may have been silently lost by the
    /// writer (or the stream is two logs glued together).
    TrailingBytes {
        /// How many unconsumed bytes remain.
        extra: usize,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::TruncatedHeader => write!(f, "log truncated inside the header"),
            LogError::BadMagic(m) => write!(f, "bad log magic {m:#010x}"),
            LogError::BadVersion(v) => write!(f, "unsupported log version {v}"),
            LogError::BadOp { index, op } => {
                write!(f, "record {index} has unknown op byte {op}")
            }
            LogError::TruncatedRecord { index, recovered } => write!(
                f,
                "log truncated inside record {index} ({} intact before the tear)",
                recovered.len()
            ),
            LogError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes of trailing data after the last record")
            }
        }
    }
}

impl std::error::Error for LogError {}

/// Smallest possible record encoding (empty paths), used to bound the
/// pre-allocation against a hostile header count.
const MIN_RECORD_BYTES: usize = 8 + 8 + 1 + 4 + 4 + 8 + 4 + 8;

/// Parses the binary log format. On a torn tail the intact prefix is
/// inside the [`LogError::TruncatedRecord`] error, not discarded.
pub fn read_log(bytes: &[u8]) -> Result<Vec<TraceRecord>, LogError> {
    let mut d = Dec::new(bytes);
    let magic = d.u32().map_err(|_| LogError::TruncatedHeader)?;
    let version = d.u32().map_err(|_| LogError::TruncatedHeader)?;
    if magic != LOG_MAGIC {
        return Err(LogError::BadMagic(magic));
    }
    if version != LOG_VERSION {
        return Err(LogError::BadVersion(version));
    }
    let n = d.u32().map_err(|_| LogError::TruncatedHeader)? as usize;
    // A hostile count cannot force a huge allocation: no valid stream
    // holds more records than its length divided by the minimum encoding.
    let mut out = Vec::with_capacity(n.min(bytes.len() / MIN_RECORD_BYTES + 1));
    for index in 0..n {
        let torn = |_: Errno| LogError::TruncatedRecord {
            index,
            recovered: Vec::new(), // placeholder; filled below
        };
        let parsed = (|d: &mut Dec<'_>| -> Result<TraceRecord, LogError> {
            let sec = d.i64().map_err(torn)?;
            let usec = d.i64().map_err(torn)?;
            let op_byte = d.u8().map_err(torn)?;
            let op = TraceOp::from_u8(op_byte).ok_or(LogError::BadOp { index, op: op_byte })?;
            let plen = d.u32().map_err(torn)? as usize;
            let path = d.bytes(plen).map_err(torn)?.to_vec();
            let p2len = d.u32().map_err(torn)? as usize;
            let path2 = d.bytes(p2len).map_err(torn)?.to_vec();
            let fd = d.i64().map_err(torn)?;
            let errno = d.u32().map_err(torn)?;
            let amount = d.u64().map_err(torn)?;
            Ok(TraceRecord {
                sec,
                usec,
                op,
                path,
                path2,
                fd,
                errno,
                amount,
            })
        })(&mut d);
        match parsed {
            Ok(rec) => out.push(rec),
            Err(LogError::TruncatedRecord { index, .. }) => {
                return Err(LogError::TruncatedRecord {
                    index,
                    recovered: out,
                })
            }
            Err(e) => return Err(e),
        }
    }
    if d.remaining() != 0 {
        return Err(LogError::TrailingBytes {
            extra: d.remaining(),
        });
    }
    Ok(out)
}

/// Host-side view of the accumulated records.
#[derive(Debug, Clone, Default)]
pub struct DfsTraceHandle {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl DfsTraceHandle {
    /// Snapshot of all records.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.lock().unwrap().is_empty()
    }

    /// The binary log.
    #[must_use]
    pub fn to_log(&self) -> Vec<u8> {
        write_log(&self.records.lock().unwrap())
    }

    /// Per-operation counts, like the DFSTrace summary tools.
    #[must_use]
    pub fn summary(&self) -> std::collections::BTreeMap<TraceOp, u64> {
        let mut m = std::collections::BTreeMap::new();
        for r in self.records.lock().unwrap().iter() {
            *m.entry(r.op).or_default() += 1;
        }
        m
    }
}

#[derive(Debug, Clone, Default)]
struct Log {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl Log {
    #[allow(clippy::too_many_arguments)] // one record, many fields
    fn push(
        &self,
        now: Timeval,
        op: TraceOp,
        path: &[u8],
        path2: &[u8],
        fd: i64,
        out: &SysOutcome,
        amount: u64,
    ) {
        let errno = match out {
            SysOutcome::Done(Err(e)) => e.code(),
            _ => 0,
        };
        self.records.lock().unwrap().push(TraceRecord {
            sec: now.sec,
            usec: now.usec,
            op,
            path: path.to_vec(),
            path2: path2.to_vec(),
            fd,
            errno,
            amount,
        });
    }
}

/// The recording pathname-set.
#[derive(Debug, Clone, Default)]
pub struct DfsSet {
    log: Log,
}

impl PathnameSet for DfsSet {
    fn set_name(&self) -> &'static str {
        "dfs_trace"
    }

    fn getpn(
        &mut self,
        _ctx: &mut SymCtx<'_, '_>,
        path: &[u8],
        _intent: PathIntent,
        scratch: &Scratch,
    ) -> Box<dyn Pathname> {
        Box::new(RecordingPathname {
            inner: DefaultPathname::new(path, scratch.clone()),
            log: self.log.clone(),
        })
    }
}

/// A pathname whose every operation is recorded; behaviour is inherited
/// from the default pathname object.
struct RecordingPathname {
    inner: DefaultPathname,
    log: Log,
}

macro_rules! record_simple {
    ($( $method:ident => $op:ident ( $($arg:ident),* ); )+) => {
        $(
            fn $method(&mut self, ctx: &mut SymCtx<'_, '_> $(, $arg: u64)*) -> SysOutcome {
                let out = self.inner.$method(ctx $(, $arg)*);
                self.log.push(ctx.now(), TraceOp::$op, self.inner.path(), b"", -1, &out, 0);
                out
            }
        )+
    };
}

impl Pathname for RecordingPathname {
    fn path(&self) -> &[u8] {
        self.inner.path()
    }

    fn scratch(&self) -> &Scratch {
        self.inner.scratch()
    }

    fn clone_pathname(&self) -> Box<dyn Pathname> {
        Box::new(RecordingPathname {
            inner: self.inner.clone(),
            log: self.log.clone(),
        })
    }

    fn open(
        &mut self,
        ctx: &mut SymCtx<'_, '_>,
        flags: u64,
        mode: u64,
    ) -> (SysOutcome, Option<ObjRef>) {
        let (out, _) = self.inner.open(ctx, flags, mode);
        let fd = match out {
            SysOutcome::Done(Ok([fd, _])) => fd as i64,
            _ => -1,
        };
        self.log.push(
            ctx.now(),
            TraceOp::Open,
            self.inner.path(),
            b"",
            fd,
            &out,
            flags,
        );
        // Interpose a recording object so close/seek/read/write volumes
        // are traced, as DFSTrace's descriptor records were.
        let obj = if fd >= 0 {
            Some(obj_ref(RecordingObject {
                path: self.inner.path().to_vec(),
                log: self.log.clone(),
            }))
        } else {
            None
        };
        (out, obj)
    }

    record_simple! {
        stat => Stat(statbuf);
        lstat => Lstat(statbuf);
        access => Access(mode);
        chmod => Chmod(mode);
        chown => Chown(uid, gid);
        readlink => Readlink(buf, bufsize);
        truncate => Truncate(length);
        utimes => Utimes(times);
        chdir => Chdir();
        chroot => Chroot();
        mkdir => Mkdir(mode);
        rmdir => Rmdir();
        mknod => Mknod(mode, dev);
        mkfifo => Mkfifo(mode);
        execve => Execve(argv, envp);
    }

    fn unlink(&mut self, ctx: &mut SymCtx<'_, '_>) -> SysOutcome {
        let out = self.inner.unlink(ctx);
        self.log.push(
            ctx.now(),
            TraceOp::Unlink,
            self.inner.path(),
            b"",
            -1,
            &out,
            0,
        );
        out
    }

    fn link(&mut self, ctx: &mut SymCtx<'_, '_>, new: &mut dyn Pathname) -> SysOutcome {
        let out = self.inner.link(ctx, new);
        self.log.push(
            ctx.now(),
            TraceOp::Link,
            self.inner.path(),
            new.path(),
            -1,
            &out,
            0,
        );
        out
    }

    fn rename(&mut self, ctx: &mut SymCtx<'_, '_>, to: &mut dyn Pathname) -> SysOutcome {
        let out = self.inner.rename(ctx, to);
        self.log.push(
            ctx.now(),
            TraceOp::Rename,
            self.inner.path(),
            to.path(),
            -1,
            &out,
            0,
        );
        out
    }

    fn symlink(&mut self, ctx: &mut SymCtx<'_, '_>, contents: u64) -> SysOutcome {
        let out = self.inner.symlink(ctx, contents);
        self.log.push(
            ctx.now(),
            TraceOp::Symlink,
            self.inner.path(),
            b"",
            -1,
            &out,
            0,
        );
        out
    }
}

/// Recording open object: traces close, seek and transfer volumes.
struct RecordingObject {
    path: Vec<u8>,
    log: Log,
}

impl OpenObject for RecordingObject {
    fn obj_name(&self) -> &'static str {
        "dfs-recording-object"
    }

    fn read(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        let out = ctx.down_args(ia_abi::Sysno::Read, [fd, buf, nbyte, 0, 0, 0]);
        if let SysOutcome::Done(Ok([n, _])) = out {
            self.log.push(
                ctx.now(),
                TraceOp::Read,
                &self.path,
                b"",
                fd as i64,
                &out,
                n,
            );
        }
        out
    }

    fn write(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, buf: u64, nbyte: u64) -> SysOutcome {
        let out = ctx.down_args(ia_abi::Sysno::Write, [fd, buf, nbyte, 0, 0, 0]);
        if let SysOutcome::Done(Ok([n, _])) = out {
            self.log.push(
                ctx.now(),
                TraceOp::Write,
                &self.path,
                b"",
                fd as i64,
                &out,
                n,
            );
        }
        out
    }

    fn lseek(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64, offset: u64, whence: u64) -> SysOutcome {
        let out = ctx.down_args(ia_abi::Sysno::Lseek, [fd, offset, whence, 0, 0, 0]);
        self.log.push(
            ctx.now(),
            TraceOp::Seek,
            &self.path,
            b"",
            fd as i64,
            &out,
            offset,
        );
        out
    }

    fn close(&mut self, ctx: &mut SymCtx<'_, '_>, fd: u64) -> SysOutcome {
        let out = ctx.down_args(ia_abi::Sysno::Close, [fd, 0, 0, 0, 0, 0]);
        self.log.push(
            ctx.now(),
            TraceOp::Close,
            &self.path,
            b"",
            fd as i64,
            &out,
            0,
        );
        out
    }

    fn clone_object(&self) -> Box<dyn OpenObject> {
        Box::new(RecordingObject {
            path: self.path.clone(),
            log: self.log.clone(),
        })
    }
}

/// The ready-to-load dfs_trace agent.
pub struct DfsTraceAgent;

impl DfsTraceAgent {
    /// Creates the agent and its host handle.
    #[must_use]
    #[allow(clippy::new_ret_no_self)] // factory: returns (agent, handle)
    pub fn new() -> (Box<Symbolic<FsAgent<DfsSet>>>, DfsTraceHandle) {
        let set = DfsSet::default();
        let handle = DfsTraceHandle {
            records: set.log.records.clone(),
        };
        (
            Box::new(Symbolic::new(FsAgent::new("dfs_trace", set))),
            handle,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_interpose::InterposedRouter;
    use ia_kernel::{KernelBuilder, RunOutcome};

    #[test]
    fn log_round_trips() {
        let records = vec![
            TraceRecord {
                sec: 1,
                usec: 2,
                op: TraceOp::Open,
                path: b"/etc/passwd".to_vec(),
                path2: vec![],
                fd: 3,
                errno: 0,
                amount: 0,
            },
            TraceRecord {
                sec: 3,
                usec: 4,
                op: TraceOp::Rename,
                path: b"/a".to_vec(),
                path2: b"/b".to_vec(),
                fd: -1,
                errno: 2,
                amount: 0,
            },
        ];
        let bytes = write_log(&records);
        assert_eq!(read_log(&bytes).unwrap(), records);
        assert!(read_log(&bytes[..8]).is_err());
        let mut corrupt = bytes.clone();
        corrupt[0] ^= 1;
        assert!(matches!(read_log(&corrupt), Err(LogError::BadMagic(_))));
    }

    /// One record of every op, with asymmetric fields so truncation can
    /// never tear at a boundary that happens to re-parse cleanly.
    fn one_of_each_op() -> Vec<TraceRecord> {
        (1u8..=24)
            .map(|v| {
                let op = TraceOp::from_u8(v).expect("contiguous vocabulary");
                TraceRecord {
                    sec: i64::from(v),
                    usec: i64::from(v) * 7,
                    op,
                    path: vec![b'p'; v as usize],
                    path2: if v % 3 == 0 {
                        vec![b'q'; v as usize * 2]
                    } else {
                        vec![]
                    },
                    fd: i64::from(v) - 2,
                    errno: u32::from(v % 5),
                    amount: u64::from(v) * 1000,
                }
            })
            .collect()
    }

    /// Property: for a log holding every record type, *every* proper
    /// prefix yields a typed truncation error — never a panic, never a
    /// silently shortened Ok — and the torn-record error hands back the
    /// intact prefix. Appending garbage is also detected.
    #[test]
    fn every_truncation_of_every_record_type_is_a_typed_error() {
        let records = one_of_each_op();
        let bytes = write_log(&records);

        // Record the byte offset where each record ends.
        let mut boundaries = vec![12usize]; // header
        for r in &records {
            let len = 8 + 8 + 1 + 4 + r.path.len() + 4 + r.path2.len() + 8 + 4 + 8;
            boundaries.push(boundaries.last().unwrap() + len);
        }
        assert_eq!(*boundaries.last().unwrap(), bytes.len());

        for cut in 0..bytes.len() {
            let err = read_log(&bytes[..cut]).expect_err("every proper prefix is torn");
            if cut < 12 {
                assert_eq!(err, LogError::TruncatedHeader, "cut at {cut}");
                continue;
            }
            // Which record does the cut land inside?
            let index = boundaries[1..]
                .iter()
                .position(|&end| cut < end)
                .expect("cut before the final boundary");
            match err {
                LogError::TruncatedRecord {
                    index: got,
                    recovered,
                } => {
                    assert_eq!(got, index, "cut at {cut}");
                    assert_eq!(
                        recovered,
                        records[..index],
                        "intact prefix must be recovered, cut at {cut}"
                    );
                }
                other => panic!("cut at {cut}: unexpected error {other:?}"),
            }
        }

        // Full stream parses; one extra byte is trailing garbage.
        assert_eq!(read_log(&bytes).unwrap(), records);
        let mut glued = bytes.clone();
        glued.push(0xAB);
        assert_eq!(read_log(&glued), Err(LogError::TrailingBytes { extra: 1 }));

        // A bad op byte inside a record is corruption, not truncation.
        let mut bad = bytes.clone();
        bad[12 + 8 + 8] = 99; // first record's op byte
        assert_eq!(read_log(&bad), Err(LogError::BadOp { index: 0, op: 99 }));

        // A hostile count cannot force a huge allocation: header says 4
        // billion records, stream holds none.
        let mut hostile = vec![0u8; 12];
        Enc::new(&mut hostile)
            .u32(LOG_MAGIC)
            .u32(LOG_VERSION)
            .u32(u32::MAX);
        assert!(matches!(
            read_log(&hostile),
            Err(LogError::TruncatedRecord { index: 0, .. })
        ));
    }

    #[test]
    fn records_file_references_of_a_client() {
        let src = r#"
            .data
            path: .asciz "/tmp/traced.txt"
            text: .asciz "hello"
            st:   .space 96
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
                la r0, path
                la r1, st
                sys stat
                la r0, path
                sys unlink
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let mut router = InterposedRouter::new();
        let (agent, handle) = DfsTraceAgent::new();
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"t"], b"t");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);

        let summary = handle.summary();
        assert_eq!(summary[&TraceOp::Open], 1);
        assert_eq!(summary[&TraceOp::Write], 1);
        assert_eq!(summary[&TraceOp::Close], 1);
        assert_eq!(summary[&TraceOp::Stat], 1);
        assert_eq!(summary[&TraceOp::Unlink], 1);

        let recs = handle.records();
        let open = recs.iter().find(|r| r.op == TraceOp::Open).unwrap();
        assert_eq!(open.path, b"/tmp/traced.txt");
        assert!(open.fd >= 3);
        let write = recs.iter().find(|r| r.op == TraceOp::Write).unwrap();
        assert_eq!(write.amount, 5);

        // Binary round trip of the live log.
        assert_eq!(read_log(&handle.to_log()).unwrap().len(), handle.len());
    }
}

/// Per-path statistics extracted from a trace — the analysis the Coda
/// project ran over DFSTrace logs to characterize filesystem workloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Successful opens.
    pub opens: u64,
    /// Read operations and bytes.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Write operations.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Metadata references (stat/lstat/access).
    pub lookups: u64,
    /// Name-space mutations (unlink/rename/link/mkdir/rmdir/...).
    pub mutations: u64,
}

/// Whole-trace analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// Statistics per referenced path.
    pub per_path: std::collections::BTreeMap<Vec<u8>, PathStats>,
    /// References that failed (non-zero errno).
    pub failures: u64,
    /// Total records analyzed.
    pub records: u64,
    /// Trace duration in virtual microseconds (last − first timestamp).
    pub duration_us: i64,
}

impl TraceAnalysis {
    /// The working set: distinct paths referenced.
    #[must_use]
    pub fn working_set_size(&self) -> usize {
        self.per_path.len()
    }

    /// Paths ordered by total data volume, busiest first.
    #[must_use]
    pub fn hottest_paths(&self, n: usize) -> Vec<(Vec<u8>, u64)> {
        let mut v: Vec<(Vec<u8>, u64)> = self
            .per_path
            .iter()
            .map(|(p, s)| (p.clone(), s.bytes_read + s.bytes_written))
            .collect();
        v.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
        v.truncate(n);
        v
    }

    /// Renders a workload-characterization report.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} records over {:.3} virtual s; working set {} paths; {} failed references\n",
            self.records,
            self.duration_us as f64 / 1e6,
            self.working_set_size(),
            self.failures
        ));
        for (path, bytes) in self.hottest_paths(8) {
            let s = &self.per_path[&path];
            out.push_str(&format!(
                "  {:<32} {:>8} B  ({} opens, {} reads, {} writes, {} lookups)\n",
                String::from_utf8_lossy(&path),
                bytes,
                s.opens,
                s.reads,
                s.writes,
                s.lookups
            ));
        }
        out
    }
}

/// Analyzes a record stream.
#[must_use]
pub fn analyze(records: &[TraceRecord]) -> TraceAnalysis {
    let mut a = TraceAnalysis {
        records: records.len() as u64,
        ..TraceAnalysis::default()
    };
    if let (Some(first), Some(last)) = (records.first(), records.last()) {
        a.duration_us = (last.sec * 1_000_000 + last.usec) - (first.sec * 1_000_000 + first.usec);
    }
    for r in records {
        if r.errno != 0 {
            a.failures += 1;
            continue;
        }
        if r.path.is_empty() {
            continue;
        }
        let s = a.per_path.entry(r.path.clone()).or_default();
        match r.op {
            TraceOp::Open => s.opens += 1,
            TraceOp::Read => {
                s.reads += 1;
                s.bytes_read += r.amount;
            }
            TraceOp::Write => {
                s.writes += 1;
                s.bytes_written += r.amount;
            }
            TraceOp::Stat | TraceOp::Lstat | TraceOp::Access | TraceOp::Readlink => {
                s.lookups += 1;
            }
            TraceOp::Unlink
            | TraceOp::Rename
            | TraceOp::Link
            | TraceOp::Symlink
            | TraceOp::Mkdir
            | TraceOp::Rmdir
            | TraceOp::Truncate
            | TraceOp::Chmod
            | TraceOp::Chown
            | TraceOp::Utimes
            | TraceOp::Mkfifo
            | TraceOp::Mknod => s.mutations += 1,
            _ => {}
        }
    }
    a
}

#[cfg(test)]
mod analysis_tests {
    use super::*;

    fn rec(op: TraceOp, path: &[u8], amount: u64, errno: u32, sec: i64) -> TraceRecord {
        TraceRecord {
            sec,
            usec: 0,
            op,
            path: path.to_vec(),
            path2: vec![],
            fd: 3,
            errno,
            amount,
        }
    }

    #[test]
    fn analysis_aggregates_per_path() {
        let records = vec![
            rec(TraceOp::Open, b"/a", 0, 0, 0),
            rec(TraceOp::Read, b"/a", 1024, 0, 1),
            rec(TraceOp::Read, b"/a", 512, 0, 2),
            rec(TraceOp::Write, b"/b", 100, 0, 3),
            rec(TraceOp::Stat, b"/c", 0, 0, 4),
            rec(TraceOp::Open, b"/missing", 0, 2, 5),
        ];
        let a = analyze(&records);
        assert_eq!(a.records, 6);
        assert_eq!(a.failures, 1);
        assert_eq!(a.working_set_size(), 3);
        assert_eq!(a.duration_us, 5_000_000);
        assert_eq!(a.per_path[&b"/a".to_vec()].bytes_read, 1536);
        assert_eq!(a.per_path[&b"/b".to_vec()].bytes_written, 100);
        assert_eq!(a.per_path[&b"/c".to_vec()].lookups, 1);
        let hottest = a.hottest_paths(1);
        assert_eq!(hottest[0].0, b"/a".to_vec());
        assert!(a.report().contains("working set 3 paths"));
    }

    #[test]
    fn analysis_of_a_real_run() {
        use ia_interpose::InterposedRouter;
        use ia_kernel::{KernelBuilder, RunOutcome};
        let src = r#"
            .data
            p: .asciz "/tmp/hot"
            buf: .space 64
            .text
            main:
                la r0, p
                li r1, 0x601
                li r2, 420
                sys open
                mov r3, r0
                li r12, 5
            wl: jz r12, fin
                mov r0, r3
                la r1, buf
                li r2, 64
                sys write
                addi r12, r12, -1
                jmp wl
            fin:
                mov r0, r3
                sys close
                li r0, 0
                sys exit
        "#;
        let img = ia_vm::assemble(src).unwrap();
        let mut k = KernelBuilder::new().build();
        let mut router = InterposedRouter::new();
        let (agent, handle) = DfsTraceAgent::new();
        ia_interpose::spawn_with_agent(&mut k, agent, &[], &img, &[b"w"], b"w");
        assert_eq!(k.run_with(&mut router), RunOutcome::AllExited);
        let a = analyze(&handle.records());
        let hot = &a.per_path[&b"/tmp/hot".to_vec()];
        assert_eq!(hot.opens, 1);
        assert_eq!(hot.writes, 5);
        assert_eq!(hot.bytes_written, 320);
    }
}
