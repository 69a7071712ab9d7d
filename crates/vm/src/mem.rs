//! The process address space: a flat byte-addressed data/stack region.
//!
//! Code lives outside this space (Harvard style) so that image loading and
//! `sbrk` stay simple; everything an application reads or writes — and
//! everything the kernel copies in and out during a system call — goes
//! through these accessors, which fault with `EFAULT` instead of panicking.

use ia_abi::wire::Wire;
use ia_abi::Errno;

/// Default address-space size: 1 MiB, comfortably larger than any workload
/// in the paper needs, small enough that `fork` is cheap to simulate.
pub const DEFAULT_MEM_SIZE: usize = 1 << 20;

/// A process's data/stack address space.
///
/// Writes are tracked with two high-water marks — the top of the dirty
/// data region and the bottom of the dirty stack region — so a clone (for
/// `fork` or a kernel snapshot) and `execve` touch only the bytes a
/// process has actually used instead of the whole space. Reads of
/// never-written memory return zeros either way, so the marks are
/// invisible to programs.
#[derive(Debug)]
pub struct AddressSpace {
    mem: Vec<u8>,
    /// Current program break (top of the data/heap region).
    brk: u64,
    /// Exclusive end of the dirty low (data/heap) region.
    data_hwm: usize,
    /// Inclusive start of the dirty high (stack) region.
    stack_lwm: usize,
}

/// Same size, break and contents, but only the dirty data and stack
/// regions are transferred; the rest of the copy is freshly zeroed (which
/// the allocator provides without touching pages). Never-written bytes are
/// zero by construction, so the copy is byte-for-byte identical to a full
/// one.
impl Clone for AddressSpace {
    fn clone(&self) -> AddressSpace {
        let mut mem = vec![0u8; self.mem.len()];
        let hwm = self.data_hwm;
        mem[..hwm].copy_from_slice(&self.mem[..hwm]);
        let lwm = self.stack_lwm.max(hwm);
        mem[lwm..].copy_from_slice(&self.mem[lwm..]);
        AddressSpace {
            mem,
            brk: self.brk,
            data_hwm: self.data_hwm,
            stack_lwm: self.stack_lwm,
        }
    }
}

impl AddressSpace {
    /// Creates a zeroed address space of `size` bytes with the break at
    /// `brk0`.
    #[must_use]
    pub fn new(size: usize, brk0: u64) -> AddressSpace {
        AddressSpace {
            mem: vec![0; size],
            brk: brk0,
            data_hwm: 0,
            stack_lwm: size,
        }
    }

    /// First byte of the stack octant (the top eighth of the space) — the
    /// same boundary `sbrk` refuses to cross.
    fn stack_boundary(&self) -> usize {
        self.mem.len() - self.mem.len() / 8
    }

    /// Bytes a copy of this space must actually transfer (dirty regions).
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        let lwm = self.stack_lwm.max(self.data_hwm);
        self.data_hwm + (self.mem.len() - lwm)
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.mem.len()
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
        let ceiling = (self.mem.len() - self.mem.len() / 8) as u64;
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

    /// Zeroes the space and resets the break — what `execve` does. Only
    /// the dirty regions are touched; everything else is still zero.
    pub fn clear(&mut self, brk0: u64) {
        let hwm = self.data_hwm;
        self.mem[..hwm].fill(0);
        let lwm = self.stack_lwm.max(hwm);
        self.mem[lwm..].fill(0);
        self.brk = brk0;
        self.data_hwm = 0;
        self.stack_lwm = self.mem.len();
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, Errno> {
        let a = usize::try_from(addr).map_err(|_| Errno::EFAULT)?;
        let end = a.checked_add(len).ok_or(Errno::EFAULT)?;
        if end > self.mem.len() {
            return Err(Errno::EFAULT);
        }
        Ok(a)
    }

    /// Reads `len` bytes at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], Errno> {
        let a = self.check(addr, len)?;
        Ok(&self.mem[a..a + len])
    }

    /// Writes `data` at `addr`. This is the single choke point every
    /// mutation goes through, so it is where the dirty marks are kept.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        let a = self.check(addr, data.len())?;
        let e = a + data.len();
        self.mem[a..e].copy_from_slice(data);
        if a < self.stack_boundary() {
            if e > self.data_hwm {
                self.data_hwm = e;
            }
        } else if a < self.stack_lwm {
            self.stack_lwm = a;
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> Result<u8, Errno> {
        Ok(self.read_bytes(addr, 1)?[0])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), Errno> {
        self.write_bytes(addr, &[v])
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> Result<u64, Errno> {
        let b = self.read_bytes(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), Errno> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Reads a NUL-terminated string of at most `max` bytes (NUL excluded).
    /// `ENAMETOOLONG` if no NUL appears within the bound.
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<Vec<u8>, Errno> {
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

    /// Writes `s` plus a terminating NUL at `addr`.
    pub fn write_cstr(&mut self, addr: u64, s: &[u8]) -> Result<(), Errno> {
        self.write_bytes(addr, s)?;
        self.write_u8(addr + s.len() as u64, 0)
    }

    /// Reads a wire-encoded structure.
    pub fn read_struct<T: Wire>(&self, addr: u64) -> Result<T, Errno> {
        T::decode(self.read_bytes(addr, T::WIRE_SIZE)?)
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
    fn clone_is_byte_identical_but_bounded() {
        let mut m = AddressSpace::new(1 << 16, 1024);
        assert_eq!(m.live_bytes(), 0);
        m.write_u64(100, 0xdead).unwrap();
        m.write_u64((1 << 16) - 16, 0xbeef).unwrap(); // stack octant
        let c = m.clone();
        assert_eq!(c.brk(), m.brk());
        assert_eq!(c.size(), m.size());
        for addr in [0u64, 100, 5000, (1 << 16) - 16, (1 << 16) - 8] {
            assert_eq!(c.read_u64(addr).unwrap(), m.read_u64(addr).unwrap());
        }
        // Only the two dirty regions count as live.
        assert_eq!(m.live_bytes(), 108 + 16);
        // The clone tracks its own writes from the inherited marks.
        let mut c = c;
        c.write_u64(200, 7).unwrap();
        assert_eq!(c.live_bytes(), 208 + 16);
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

    #[test]
    fn straddling_write_is_covered_by_fork() {
        let size = 1 << 13; // boundary at 7168
        let mut m = AddressSpace::new(size, 0);
        let boundary = (size - size / 8) as u64;
        m.write_bytes(boundary - 4, &[9; 8]).unwrap(); // straddles
        let c = m.clone();
        assert_eq!(
            c.read_bytes(boundary - 4, 8).unwrap(),
            m.read_bytes(boundary - 4, 8).unwrap()
        );
    }
}
