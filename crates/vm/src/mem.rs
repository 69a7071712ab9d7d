//! The process address space: a byte-addressed data/stack region that
//! holds only the bytes a process has written.
//!
//! Code lives outside this space (Harvard style) so that image loading and
//! `sbrk` stay simple; everything an application reads or writes — and
//! everything the kernel copies in and out during a system call — goes
//! through these accessors, which fault with `EFAULT` instead of panicking.

use std::borrow::Cow;

use ia_abi::wire::Wire;
use ia_abi::Errno;

/// Default address-space size: 1 MiB, comfortably larger than any workload
/// in the paper needs. Only written bytes are held, so the size costs
/// nothing until a process uses it.
pub const DEFAULT_MEM_SIZE: usize = 1 << 20;

/// Zeros that reads of the unheld gap between the segments borrow from.
static ZEROS: [u8; 4096] = [0; 4096];

/// A process's data/stack address space of [`size`](Self::size) bytes,
/// held as two segments that grow on write:
///
/// * `lo` covers `[0, lo.len())`: the data and heap;
/// * `hi` covers `[size - hi.len(), size)`: the stack.
///
/// Every byte between them reads as zero and is never allocated. A write
/// below the stack octant (the top eighth, which `sbrk` never enters)
/// grows `lo`; one inside it grows `hi` downwards. A write that would make
/// the two overlap merges them into one `lo` covering the whole space.
/// So a process holds, and a clone (`fork`, a kernel snapshot) copies,
/// its data, heap and stack extents rather than the whole space, and the
/// layout is invisible to programs: every read and fault is that of a
/// flat zero-filled buffer.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Bytes `[0, lo.len())`.
    lo: Vec<u8>,
    /// Bytes `[size - hi.len(), size)`; `lo.len() + hi.len() <= size`.
    hi: Vec<u8>,
    size: usize,
    /// Current program break (top of the data/heap region).
    brk: u64,
}

impl AddressSpace {
    /// Creates a zeroed address space of `size` bytes with the break at
    /// `brk0`. Nothing is allocated until the first write.
    #[must_use]
    pub fn new(size: usize, brk0: u64) -> AddressSpace {
        AddressSpace {
            lo: Vec::new(),
            hi: Vec::new(),
            size,
            brk: brk0,
        }
    }

    /// First byte of the stack octant (the top eighth of the space) — the
    /// same boundary `sbrk` refuses to cross.
    fn stack_boundary(&self) -> usize {
        self.size - self.size / 8
    }

    /// First byte of the `hi` segment.
    fn hi_start(&self) -> usize {
        self.size - self.hi.len()
    }

    /// Bytes the segments hold: what a clone of this space copies.
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The current program break.
    #[must_use]
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// `sbrk`: moves the break by `incr` (positive or negative), returning
    /// the *old* break. Fails with `ENOMEM` if the break would collide with
    /// the stack region (the top eighth of the space) or go negative.
    pub fn sbrk(&mut self, incr: i64) -> Result<u64, Errno> {
        let old = self.brk;
        let new = old.wrapping_add(incr as u64);
        let ceiling = self.stack_boundary() as u64;
        if incr >= 0 {
            if new > ceiling {
                return Err(Errno::ENOMEM);
            }
        } else if new > old {
            // wrapped below zero
            return Err(Errno::EINVAL);
        }
        self.brk = new;
        Ok(old)
    }

    /// Zeroes the space and resets the break — what `execve` does. Both
    /// segments are released.
    pub fn clear(&mut self, brk0: u64) {
        self.lo = Vec::new();
        self.hi = Vec::new();
        self.brk = brk0;
    }

    /// Checks that `[addr, addr + len)` lies inside the space, returning
    /// `addr` as an index; `EFAULT` otherwise.
    pub fn check(&self, addr: u64, len: usize) -> Result<usize, Errno> {
        let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
        let end = a.checked_add(len).ok_or(Errno::EFAULT)?;
        if end > self.size {
            return Err(Errno::EFAULT);
        }
        Ok(a)
    }

    /// The longest contiguous run of bytes starting at `a`, which is in
    /// range: the rest of a segment, or of the zero gap (at most
    /// [`ZEROS`]' length). Empty only at `a == size`.
    fn run_at(&self, a: usize) -> &[u8] {
        let hs = self.hi_start();
        if a < self.lo.len() {
            &self.lo[a..]
        } else if a >= hs {
            &self.hi[a - hs..]
        } else {
            &ZEROS[..(hs - a).min(ZEROS.len())]
        }
    }

    /// Fills `out` with the in-range bytes starting at `a`.
    fn copy_out(&self, mut a: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let run = self.run_at(a);
            let n = run.len().min(out.len() - done);
            out[done..done + n].copy_from_slice(&run[..n]);
            done += n;
            a += n;
        }
    }

    /// Reads `len` bytes at `addr`: borrowed when they lie inside one
    /// segment (or the zero gap), copied when they span more than one.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Cow<'_, [u8]>, Errno> {
        let a = self.check(addr, len)?;
        let run = self.run_at(a);
        if run.len() >= len {
            return Ok(Cow::Borrowed(&run[..len]));
        }
        let mut out = vec![0; len];
        self.copy_out(a, &mut out);
        Ok(Cow::Owned(out))
    }

    /// The `len` bytes at `addr` as one writable slice, for the caller to
    /// fill. This is the single choke point every mutation goes through,
    /// so it is where the segments grow.
    #[inline]
    pub fn slice_mut(&mut self, addr: u64, len: usize) -> Result<&mut [u8], Errno> {
        let a = self.check(addr, len)?;
        if len == 0 {
            return Ok(&mut []);
        }
        let e = a + len;
        if e > self.lo.len() && a < self.hi_start() {
            self.cover(a, e);
        }
        if e <= self.lo.len() {
            Ok(&mut self.lo[a..e])
        } else {
            let hs = self.hi_start();
            Ok(&mut self.hi[a - hs..e - hs])
        }
    }

    /// Writes `data` at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        self.slice_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Grows a segment so that one of them covers `[a, e)`, or merges
    /// both into `lo` when growing one would reach into the other.
    #[cold]
    #[inline(never)]
    fn cover(&mut self, a: usize, e: usize) {
        let hs = self.hi_start();
        if a < self.lo.len() || a < self.stack_boundary() {
            if e <= hs {
                self.lo.resize(e, 0);
                return;
            }
        } else {
            // `lo.len() <= a < hs`: extend `hi` down to `a`, at least
            // doubling it, so a stack pushed a word at a time is copied
            // O(1) times per byte; never below `lo`.
            let start = a
                .min(hs.saturating_sub(self.hi.len().max(64)))
                .max(self.lo.len());
            let mut hi = vec![0; self.size - start];
            hi[hs - start..].copy_from_slice(&self.hi);
            self.hi = hi;
            return;
        }
        self.lo.resize(hs, 0);
        self.lo.extend_from_slice(&self.hi);
        self.hi = Vec::new();
    }

    /// Reads one byte. Like the other word accessors it stays out of line,
    /// so the fused burst's memory arms remain a call each.
    #[inline(never)]
    pub fn read_u8(&self, addr: u64) -> Result<u8, Errno> {
        Ok(self.read_bytes(addr, 1)?[0])
    }

    /// Writes one byte.
    #[inline(never)]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), Errno> {
        self.write_bytes(addr, &[v])
    }

    /// Reads a little-endian u64.
    #[inline(never)]
    pub fn read_u64(&self, addr: u64) -> Result<u64, Errno> {
        let b = self.read_bytes(addr, 8)?;
        Ok(u64::from_le_bytes(b[..].try_into().expect("8 bytes")))
    }

    /// Writes a little-endian u64.
    #[inline(never)]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), Errno> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Reads a NUL-terminated string of at most `max` bytes (NUL excluded).
    /// `ENAMETOOLONG` if no NUL appears within the bound, `EFAULT` if the
    /// space ends first.
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<Vec<u8>, Errno> {
        let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
        if a >= self.size {
            return Err(Errno::EFAULT);
        }
        let window = max.saturating_add(1);
        let end = self.size.min(a.saturating_add(window));
        let mut out = Vec::new();
        let mut p = a;
        while p < end {
            let run = self.run_at(p);
            let run = &run[..run.len().min(end - p)];
            if let Some(n) = run.iter().position(|&c| c == 0) {
                out.extend_from_slice(&run[..n]);
                return Ok(out);
            }
            out.extend_from_slice(run);
            p += run.len();
        }
        if end - a < window {
            Err(Errno::EFAULT)
        } else {
            Err(Errno::ENAMETOOLONG)
        }
    }

    /// Writes `s` plus a terminating NUL at `addr`.
    pub fn write_cstr(&mut self, addr: u64, s: &[u8]) -> Result<(), Errno> {
        self.write_bytes(addr, s)?;
        self.write_u8(addr + s.len() as u64, 0)
    }

    /// Reads a wire-encoded structure.
    pub fn read_struct<T: Wire>(&self, addr: u64) -> Result<T, Errno> {
        T::decode(&self.read_bytes(addr, T::WIRE_SIZE)?)
    }

    /// Writes a wire-encoded structure.
    pub fn write_struct<T: Wire>(&mut self, addr: u64, v: &T) -> Result<(), Errno> {
        self.write_bytes(addr, &v.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_abi::Timeval;
    use ia_prng::{run_cases, Prng};

    fn space() -> AddressSpace {
        AddressSpace::new(4096, 1024)
    }

    #[test]
    fn byte_and_word_round_trips() {
        let mut m = space();
        m.write_u8(10, 0xab).unwrap();
        assert_eq!(m.read_u8(10).unwrap(), 0xab);
        m.write_u64(100, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(100).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = space();
        assert_eq!(m.read_u64(4090), Err(Errno::EFAULT));
        assert_eq!(m.write_u8(4096, 1), Err(Errno::EFAULT));
        assert_eq!(m.read_bytes(u64::MAX, 1), Err(Errno::EFAULT));
    }

    #[test]
    fn cstr_round_trip_and_bounds() {
        let mut m = space();
        m.write_cstr(50, b"hello").unwrap();
        assert_eq!(m.read_cstr(50, 64).unwrap(), b"hello");
        // Unterminated within bound.
        m.write_bytes(200, &[b'x'; 20]).unwrap();
        assert_eq!(m.read_cstr(200, 10), Err(Errno::ENAMETOOLONG));
    }

    #[test]
    fn struct_round_trip() {
        let mut m = space();
        let tv = Timeval { sec: 42, usec: 7 };
        m.write_struct(300, &tv).unwrap();
        assert_eq!(m.read_struct::<Timeval>(300).unwrap(), tv);
    }

    #[test]
    fn sbrk_moves_break_and_respects_ceiling() {
        let mut m = space();
        assert_eq!(m.sbrk(100).unwrap(), 1024);
        assert_eq!(m.brk(), 1124);
        assert_eq!(m.sbrk(-100).unwrap(), 1124);
        assert_eq!(m.brk(), 1024);
        // 4096 - 512 = 3584 ceiling.
        assert_eq!(m.sbrk(10_000), Err(Errno::ENOMEM));
        assert_eq!(m.brk(), 1024, "failed sbrk leaves break unchanged");
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = space();
        m.write_u64(0, 99).unwrap();
        m.sbrk(64).unwrap();
        m.clear(2048);
        assert_eq!(m.read_u64(0).unwrap(), 0);
        assert_eq!(m.brk(), 2048);
    }

    #[test]
    fn clear_after_writes_leaves_no_residue() {
        let mut m = AddressSpace::new(1 << 16, 0);
        m.write_bytes(4000, &[0xff; 64]).unwrap();
        m.write_u8((1 << 16) - 1, 0xff).unwrap();
        m.clear(512);
        for addr in (0..(1 << 16)).step_by(4096) {
            assert_eq!(m.read_u8(addr as u64).unwrap(), 0);
        }
        assert_eq!(m.read_u8((1 << 16) - 1).unwrap(), 0);
        assert_eq!(m.live_bytes(), 0);
    }

    /// One operation of the model test.
    #[derive(Debug, Clone)]
    enum Op {
        Read(u64, usize),
        ReadU8(u64),
        ReadU64(u64),
        ReadCstr(u64, usize),
        Write(u64, Vec<u8>),
        WriteU8(u64, u8),
        WriteU64(u64, u64),
        WriteCstr(u64, Vec<u8>),
        Clear(u64),
        /// Clone both sides and carry on with the originals; the clones
        /// are checked again at the end, so the originals' later writes
        /// must not reach them.
        Fork,
    }

    /// The reference the model test holds `AddressSpace` to: one flat,
    /// fully allocated buffer.
    #[derive(Clone)]
    struct Flat {
        mem: Vec<u8>,
        brk: u64,
    }

    impl Flat {
        fn check(&self, addr: u64, len: usize) -> Result<usize, Errno> {
            let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
            match a.checked_add(len) {
                Some(end) if end <= self.mem.len() => Ok(a),
                _ => Err(Errno::EFAULT),
            }
        }

        fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
            let a = self.check(addr, len)?;
            Ok(self.mem[a..a + len].to_vec())
        }

        fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
            let a = self.check(addr, data.len())?;
            self.mem[a..a + data.len()].copy_from_slice(data);
            Ok(())
        }

        fn read_cstr(&self, addr: u64, max: usize) -> Result<Vec<u8>, Errno> {
            let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
            if a >= self.mem.len() {
                return Err(Errno::EFAULT);
            }
            let window = &self.mem[a..self.mem.len().min(a + max + 1)];
            match window.iter().position(|&c| c == 0) {
                Some(n) => Ok(window[..n].to_vec()),
                None if window.len() < max + 1 => Err(Errno::EFAULT),
                None => Err(Errno::ENAMETOOLONG),
            }
        }
    }

    /// Applies `op` to both sides and returns what each observed.
    fn apply(m: &mut AddressSpace, f: &mut Flat, op: &Op) -> [Result<Vec<u8>, Errno>; 2] {
        let word = |r: Result<u64, Errno>| r.map(|v| v.to_le_bytes().to_vec());
        let unit = |r: Result<(), Errno>| r.map(|()| Vec::new());
        match op {
            Op::Read(a, n) => [m.read_bytes(*a, *n).map(Cow::into_owned), f.read(*a, *n)],
            Op::ReadU8(a) => [m.read_u8(*a).map(|v| vec![v]), f.read(*a, 1)],
            Op::ReadU64(a) => [word(m.read_u64(*a)), f.read(*a, 8)],
            Op::ReadCstr(a, max) => [m.read_cstr(*a, *max), f.read_cstr(*a, *max)],
            Op::Write(a, d) => [unit(m.write_bytes(*a, d)), unit(f.write(*a, d))],
            Op::WriteU8(a, v) => [unit(m.write_u8(*a, *v)), unit(f.write(*a, &[*v]))],
            Op::WriteU64(a, v) => [
                unit(m.write_u64(*a, *v)),
                unit(f.write(*a, &v.to_le_bytes())),
            ],
            Op::WriteCstr(a, s) => {
                let flat = f
                    .write(*a, s)
                    .and_then(|()| f.write(*a + s.len() as u64, &[0]));
                [unit(m.write_cstr(*a, s)), unit(flat)]
            }
            Op::Clear(brk) => {
                m.clear(*brk);
                f.mem.fill(0);
                f.brk = *brk;
                [Ok(Vec::new()), Ok(Vec::new())]
            }
            Op::Fork => unreachable!("handled by run_model"),
        }
    }

    /// Asserts that `m` reads exactly as `f` does, byte for byte.
    fn assert_same(m: &AddressSpace, f: &Flat, what: &str) {
        assert_eq!(m.size(), f.mem.len(), "{what}: size");
        assert_eq!(m.brk(), f.brk, "{what}: brk");
        assert!(m.live_bytes() <= m.size(), "{what}: segments overlap");
        assert!(
            m.read_bytes(0, m.size()).unwrap()[..] == f.mem[..],
            "{what}: contents differ"
        );
    }

    /// Runs `ops` on a fresh space of `size` bytes and its flat reference,
    /// comparing every result, then the full contents of every space the
    /// run forked. Returns the last space.
    fn run_model(size: usize, ops: &[Op], what: &str) -> AddressSpace {
        let mut m = AddressSpace::new(size, 64);
        let mut f = Flat {
            mem: vec![0; size],
            brk: 64,
        };
        let mut forked = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if let Op::Fork = op {
                forked.push((m.clone(), f.clone(), i));
                continue;
            }
            let [got, want] = apply(&mut m, &mut f, op);
            assert_eq!(got, want, "{what}: step {i}: {op:?}");
        }
        assert_same(&m, &f, what);
        for (m, f, i) in &forked {
            assert_same(m, f, &format!("{what}: space forked at step {i}"));
        }
        m
    }

    /// An address biased toward the places the layout can get wrong: the
    /// first and last bytes, the stack boundary, the end of the space,
    /// just past it, and addresses whose end overflows.
    fn model_addr(rng: &mut Prng, size: usize) -> u64 {
        let size = size as u64;
        let boundary = size - size / 8;
        match rng.below(8) {
            0 => rng.below(64),
            1 => boundary - 16 + rng.below(32),
            2 => size - 1 - rng.below(64),
            3 => size - 8 + rng.below(16),
            4 => u64::MAX - rng.below(16),
            _ => rng.below(size),
        }
    }

    fn model_op(rng: &mut Prng, size: usize) -> Op {
        let a = model_addr(rng, size);
        let len = match rng.below(3) {
            0 => 1,
            1 => 8,
            _ => rng.range_usize(0, 300),
        };
        match rng.below(20) {
            0..=2 => Op::Read(a, len),
            3 => Op::ReadU8(a),
            4 | 5 => Op::ReadU64(a),
            6 | 7 => Op::ReadCstr(a, rng.range_usize(0, 400)),
            8..=11 => {
                // Mostly non-zero bytes, so strings run into the gap.
                let data = rng.bytes(len).iter().map(|&b| b | 1).collect();
                Op::Write(a, data)
            }
            12 => Op::WriteU8(a, rng.next_u64() as u8),
            13 | 14 => Op::WriteU64(a, rng.next_u64()),
            15 => Op::WriteCstr(a, vec![b'x'; len]),
            16 => Op::Clear(rng.below(size as u64)),
            _ => Op::Fork,
        }
    }

    #[test]
    fn matches_a_flat_buffer_on_random_operations() {
        // Fixed inputs first. A clone is byte-identical and bounded by
        // the written extents, and diverges on its own writes.
        let size = 1 << 16;
        let m = run_model(
            size,
            &[
                Op::WriteU64(100, 0xdead),
                Op::WriteU64(size as u64 - 16, 0xbeef), // stack octant
                Op::Fork,
                Op::WriteU64(200, 7),
                Op::ReadU64(100),
                Op::ReadU64(5000),
                Op::ReadU64(size as u64 - 8),
            ],
            "clone bounded",
        );
        assert!(m.live_bytes() < 512, "held {} bytes", m.live_bytes());
        assert_eq!(m.clone().live_bytes(), m.live_bytes());
        // A write straddling the stack boundary survives a fork.
        let size = 1 << 13;
        let boundary = (size - size / 8) as u64;
        run_model(
            size,
            &[
                Op::Write(boundary - 4, vec![9; 8]),
                Op::Fork,
                Op::Read(boundary - 4, 8),
                Op::WriteU64(boundary - 8, 1),
            ],
            "straddling write",
        );
        // Segments that meet, then a read and a string across the seam.
        let size = 256;
        run_model(
            size,
            &[
                Op::WriteU8(size as u64 - 1, 5),
                Op::Write(0, vec![b'a'; 200]),
                Op::ReadCstr(150, 100),
                Op::Read(100, 156),
                Op::Write(190, vec![b'b'; 40]),
                Op::ReadCstr(0, 300),
            ],
            "segments meet",
        );
        run_cases(300, |case, rng| {
            let size = *rng.pick(&[256usize, 4096, 1 << 13]);
            let ops: Vec<Op> = (0..rng.range_usize(1, 120))
                .map(|_| model_op(rng, size))
                .collect();
            run_model(size, &ops, &format!("case {case}"));
        });
    }
}
