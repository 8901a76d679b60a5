//! Sparse byte-addressable physical memory.
//!
//! The simulated machine has a 4 GiB little-endian address space backed by
//! 4 KiB pages allocated on first touch, so even workloads with widely
//! separated text/data/stack segments stay cheap to host.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use t1000_isa::Program;

/// Size of one backing page in bytes.
pub const PAGE_SIZE: u32 = 4096;

/// Hasher for page numbers: one multiply by an odd 64-bit constant
/// (Fibonacci hashing). Distinct page numbers keep distinct low bits, and
/// the high bits mix every input bit. The keys are simulator addresses, not
/// adversarial input, so a keyed hash buys nothing here.
#[derive(Default)]
struct PageHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(FIB);
    }
}

/// Sparse little-endian memory.
#[derive(Clone, Default)]
pub struct Memory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE as usize]>, BuildHasherDefault<PageHasher>>,
}

/// Byte offset of `addr` in its page if a `len`-byte access there stays
/// inside that page.
fn in_page(addr: u32, len: u32) -> Option<usize> {
    let off = addr % PAGE_SIZE;
    (off <= PAGE_SIZE - len).then_some(off as usize)
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Creates a memory pre-loaded with a program's text and data segments.
    pub fn with_program(p: &Program) -> Memory {
        let mut m = Memory::new();
        for (i, &w) in p.text.iter().enumerate() {
            m.write_u32(p.text_base + 4 * i as u32, w);
        }
        // Page-sized copies; every page the segment touches is allocated,
        // as byte-by-byte stores would.
        let (mut addr, mut rest) = (p.data_base, p.data.as_slice());
        while !rest.is_empty() {
            let off = (addr % PAGE_SIZE) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            m.page(addr)[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u32);
            rest = &rest[n..];
        }
        m
    }

    fn page(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    /// Reads one byte (unallocated memory reads as zero).
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page(addr)[(addr % PAGE_SIZE) as usize] = v;
    }

    /// Reads a little-endian halfword (no alignment requirement here;
    /// alignment faults are the CPU's concern). A halfword inside one page
    /// costs one page lookup; one spanning two pages is read byte by byte.
    pub fn read_u16(&self, addr: u32) -> u16 {
        if let Some(off) = in_page(addr, 2) {
            return match self.pages.get(&(addr / PAGE_SIZE)) {
                Some(p) => u16::from_le_bytes([p[off], p[off + 1]]),
                None => 0,
            };
        }
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian halfword, with one page lookup when it stays
    /// inside one page.
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        if let Some(off) = in_page(addr, 2) {
            self.page(addr)[off..off + 2].copy_from_slice(&v.to_le_bytes());
            return;
        }
        let [a, b] = v.to_le_bytes();
        self.write_u8(addr, a);
        self.write_u8(addr.wrapping_add(1), b);
    }

    /// Reads a little-endian word. A word inside one page costs one page
    /// lookup; one spanning two pages is read byte by byte.
    pub fn read_u32(&self, addr: u32) -> u32 {
        if let Some(off) = in_page(addr, 4) {
            return match self.pages.get(&(addr / PAGE_SIZE)) {
                Some(p) => u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]),
                None => 0,
            };
        }
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian word, with one page lookup when it stays
    /// inside one page.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        if let Some(off) = in_page(addr, 4) {
            self.page(addr)[off..off + 4].copy_from_slice(&v.to_le_bytes());
            return;
        }
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Number of pages currently allocated (for footprint assertions).
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unallocated_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u32(0x1234_5678), 0);
        assert_eq!(m.allocated_pages(), 0);
    }

    #[test]
    fn word_round_trip_is_little_endian() {
        let mut m = Memory::new();
        m.write_u32(0x1000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000), 0xdead_beef);
        assert_eq!(m.read_u8(0x1000), 0xef);
        assert_eq!(m.read_u8(0x1003), 0xde);
        assert_eq!(m.read_u16(0x1002), 0xdead);
    }

    #[test]
    fn accesses_spanning_page_boundaries_work() {
        let mut m = Memory::new();
        m.write_u32(PAGE_SIZE - 2, 0x0102_0304);
        assert_eq!(m.read_u32(PAGE_SIZE - 2), 0x0102_0304);
        assert_eq!(m.read_u16(PAGE_SIZE - 2), 0x0304);
        assert_eq!(m.read_u16(PAGE_SIZE), 0x0102);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn unaligned_words_round_trip_inside_a_page() {
        let mut m = Memory::new();
        m.write_u32(0x2001, 0xa1b2_c3d4);
        assert_eq!(m.read_u32(0x2001), 0xa1b2_c3d4);
        assert_eq!(m.read_u8(0x2001), 0xd4);
        assert_eq!(m.read_u8(0x2004), 0xa1);
        assert_eq!(m.read_u32(0x2000), 0xb2c3_d400);
        assert_eq!(m.allocated_pages(), 1);
        // The last word that fits in the page, and the first that spans.
        m.write_u32(0x2ffc, 0x1122_3344);
        m.write_u32(0x2ffd, 0x5566_7788);
        assert_eq!(m.read_u32(0x2ffc), 0x6677_8844);
        assert_eq!(m.read_u32(0x2ffd), 0x5566_7788);
        assert_eq!(m.read_u8(0x3000), 0x55);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn halfwords_round_trip_inside_and_across_pages() {
        let mut m = Memory::new();
        // In-page, including the last halfword that fits and an odd
        // address inside the page.
        m.write_u16(0x5000, 0xbeef);
        m.write_u16(0x5ffe, 0x1234);
        m.write_u16(0x5801, 0xa55a);
        assert_eq!(m.read_u16(0x5000), 0xbeef);
        assert_eq!(m.read_u8(0x5000), 0xef);
        assert_eq!(m.read_u16(0x5ffe), 0x1234);
        assert_eq!(m.read_u8(0x5fff), 0x12);
        assert_eq!(m.read_u16(0x5801), 0xa55a);
        assert_eq!(m.read_u32(0x5800), 0x00a5_5a00);
        assert_eq!(m.allocated_pages(), 1);
        // Page-crossing: one byte on each side of the boundary.
        m.write_u16(0x6fff, 0xc0de);
        assert_eq!(m.read_u8(0x6fff), 0xde);
        assert_eq!(m.read_u8(0x7000), 0xc0);
        assert_eq!(m.read_u16(0x6fff), 0xc0de);
        assert_eq!(m.allocated_pages(), 3);
        // Unallocated halfwords read as zero, in-page or straddling, and
        // allocate nothing.
        for addr in [0x9000, 0x9ffe, 0x9fff, u32::MAX] {
            assert_eq!(m.read_u16(addr), 0, "at 0x{addr:x}");
        }
        assert_eq!(m.allocated_pages(), 3);
    }

    #[test]
    fn reading_unallocated_memory_allocates_nothing() {
        let mut m = Memory::new();
        m.write_u8(0x4000, 7);
        assert_eq!(m.allocated_pages(), 1);
        for addr in [0x8000, 0x8001, PAGE_SIZE * 9 - 2, u32::MAX - 3, u32::MAX] {
            assert_eq!(m.read_u32(addr), 0);
        }
        assert_eq!(m.read_u16(0x9000), 0);
        assert_eq!(m.allocated_pages(), 1);
    }

    #[test]
    fn data_segment_copy_matches_byte_stores() {
        // A data segment that starts mid-page and spans three pages.
        let mut p = Program::from_words(vec![0]);
        p.data_base = 3 * PAGE_SIZE - 5;
        p.data = (0..2 * PAGE_SIZE + 9).map(|i| (i * 7 + 1) as u8).collect();
        let m = Memory::with_program(&p);
        let mut bytes = Memory::new();
        bytes.write_u32(p.text_base, 0);
        for (i, &b) in p.data.iter().enumerate() {
            bytes.write_u8(p.data_base + i as u32, b);
        }
        assert_eq!(m.allocated_pages(), bytes.allocated_pages());
        for addr in p.data_base - 8..p.data_base + p.data.len() as u32 + 8 {
            assert_eq!(m.read_u8(addr), bytes.read_u8(addr), "at 0x{addr:x}");
        }
    }

    #[test]
    fn program_image_is_loaded() {
        use t1000_isa::program::{DATA_BASE, TEXT_BASE};
        let mut p = Program::from_words(vec![0x1234_5678, 0x9abc_def0]);
        p.data = vec![1, 2, 3];
        let m = Memory::with_program(&p);
        assert_eq!(m.read_u32(TEXT_BASE), 0x1234_5678);
        assert_eq!(m.read_u32(TEXT_BASE + 4), 0x9abc_def0);
        assert_eq!(m.read_u8(DATA_BASE + 2), 3);
    }
}
